//! Quickstart: train a federated model with FedADMM on a non-IID synthetic
//! MNIST-like dataset and watch the per-round test accuracy.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use fedadmm::prelude::*;

fn main() {
    // 1. A federated configuration in the spirit of the paper's MNIST /
    //    100-client setting, shrunk so the example finishes in seconds:
    //    10% of clients participate per round, up to E = 5 local epochs with
    //    system heterogeneity (each client draws its epoch count uniformly
    //    from {1..E}), and SGD with learning rate 0.1 as the local solver.
    let config = FedConfig {
        num_clients: 100,
        participation: Participation::Fraction(0.1),
        local_epochs: 5,
        system_heterogeneity: true,
        batch_size: BatchSize::Size(16),
        local_learning_rate: 0.1,
        model: ModelSpec::Mlp {
            input_dim: 784,
            hidden_dim: 32,
            num_classes: 10,
        },
        seed: 42,
        eval_subset: usize::MAX,
    };

    // 2. Synthetic MNIST-like data (the offline stand-in for the real
    //    dataset; see `fedadmm-data`), partitioned the paper's non-IID way:
    //    sorted by label, two shards per client.
    let (train, test) = SyntheticDataset::Mnist.generate(10_000, 500, config.seed);
    let partition =
        DataDistribution::NonIidShards.partition(&train, config.num_clients, config.seed);
    println!(
        "non-IID partition: {:.1} distinct labels per client on average",
        partition.mean_distinct_labels(&train)
    );

    // 3. FedADMM (Algorithm 1): server step η = 1, warm-started local
    //    training, dual variables stored at the clients. ρ = 0.3 is the fixed
    //    substrate-calibrated constant (the paper uses 0.01 for its
    //    CNN/real-image gradient scale; see `SUBSTRATE_RHO` in
    //    `fedadmm-experiments`) and is used unchanged
    //    across every example and experiment in this repository.
    let algorithm = FedAdmm::new(0.3, ServerStepSize::Constant(1.0));
    let mut sim = RoundEngine::new(config, train, test, partition, algorithm, SyncRounds)
        .expect("configuration is consistent");

    // 4. Run 30 communication rounds and report progress.
    println!("round | test accuracy | test loss | cumulative upload (floats)");
    for _ in 0..30 {
        let record = sim.run_round().expect("round succeeds");
        println!(
            "{:5} | {:13.3} | {:9.3} | {}",
            record.round + 1,
            record.test_accuracy,
            record.test_loss,
            record.cumulative_upload_floats
        );
    }

    let history = sim.history();
    println!(
        "\nbest accuracy {:.3}; rounds to 80%: {}",
        history.best_accuracy(),
        history
            .rounds_to_accuracy(0.8)
            .map(|r| r.to_string())
            .unwrap_or_else(|| "not reached".to_string())
    );
}
