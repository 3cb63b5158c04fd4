//! Watch FedADMM's dual variables adapt to data heterogeneity.
//!
//! Section III-A interprets the dual variable `y_i` as a signed "price
//! vector" that records how much client `i`'s data pulls it away from the
//! global model. This example runs the same FedADMM configuration on an IID
//! and a non-IID partition of the same synthetic dataset and prints the
//! drift / dual-norm statistics of [`DriftReport`] side by side: under the
//! non-IID partition the dual variables grow substantially larger — they are
//! doing the adaptation work that would otherwise require tuning ρ.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example dual_variables
//! ```

use fedadmm::prelude::*;

fn run(distribution: DataDistribution, seed: u64) -> Vec<(usize, f32, DriftReport)> {
    let config = FedConfig {
        num_clients: 50,
        participation: Participation::Fraction(0.2),
        local_epochs: 3,
        system_heterogeneity: true,
        batch_size: BatchSize::Size(16),
        local_learning_rate: 0.1,
        model: ModelSpec::Mlp {
            input_dim: 784,
            hidden_dim: 32,
            num_classes: 10,
        },
        seed,
        eval_subset: usize::MAX,
    };
    let (train, test) = SyntheticDataset::Mnist.generate(5_000, 500, seed);
    let partition = distribution.partition(&train, config.num_clients, seed);
    let mut sim = RoundEngine::new(
        config,
        train,
        test,
        partition,
        FedAdmm::new(0.3, ServerStepSize::Constant(1.0)),
        SyncRounds,
    )
    .expect("configuration is consistent");

    let mut snapshots = Vec::new();
    for round in 1..=20 {
        let record = sim.run_round().expect("round succeeds");
        if round % 5 == 0 {
            let report = DriftReport::compute(
                &sim.clients().expect("the store lends every state"),
                sim.global_model(),
            );
            snapshots.push((round, record.test_accuracy, report));
        }
    }
    snapshots
}

fn main() {
    println!("=== FedADMM dual variables under IID vs non-IID data ===\n");
    let iid = run(DataDistribution::Iid, 7);
    let non_iid = run(DataDistribution::NonIidShards, 7);

    println!(
        "{:>5} | {:>9} | {:>12} | {:>12} | {:>10}",
        "round", "setting", "accuracy", "mean ‖y_i‖", "mean drift"
    );
    for ((round, acc, rep), (_, acc_n, rep_n)) in iid.iter().zip(non_iid.iter()) {
        println!(
            "{:>5} | {:>9} | {:>12.3} | {:>12.4} | {:>10.4}",
            round, "IID", acc, rep.mean_dual_norm, rep.mean_model_drift
        );
        println!(
            "{:>5} | {:>9} | {:>12.3} | {:>12.4} | {:>10.4}",
            round, "non-IID", acc_n, rep_n.mean_dual_norm, rep_n.mean_model_drift
        );
    }

    let last_iid = &iid.last().unwrap().2;
    let last_non_iid = &non_iid.last().unwrap().2;
    println!("\nfinal IID     state: {}", last_iid.summary());
    println!("final non-IID state: {}", last_non_iid.summary());
    println!(
        "\nThe dual variables are the per-client running record of disagreement with the global \
         model (the \"price vectors\" of Section III-A): they grow while a client's data pulls it \
         away from consensus and they enter every subsequent local objective, which is what lets \
         the same fixed ρ = 0.3 work unchanged in both the IID and the non-IID setting. The KKT \
         residual ‖Σ_i y_i‖ ({:.1} IID vs {:.1} non-IID here) shrinks towards 0 as the runs \
         approach a stationary point of the consensus problem (2).",
        last_iid.dual_sum_norm, last_non_iid.dual_sum_norm
    );
}
