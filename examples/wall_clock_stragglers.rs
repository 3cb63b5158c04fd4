//! Virtual-clock view of system heterogeneity: how much time FedADMM's
//! tolerance for variable local work saves on a heterogeneous device fleet.
//!
//! The paper measures communication *rounds*; this example installs a
//! tiered `DeviceModel` (edge gateways down to low-end phones, each with a
//! network link) on the engine and reads the virtual clock it drives. Two
//! runs select the same cohorts from the same fleet:
//!
//! * **FedAvg, fixed work** — every selected client runs the full `E`
//!   epochs (FedAvg/SCAFFOLD in the paper's protocol), so each round waits
//!   for the slowest device doing the most work;
//! * **FedADMM, variable work** — each client runs `E_i ~ Uniform{1..E}`
//!   epochs (FedADMM/FedProx), so slow devices often do less.
//!
//! The last column, virtual seconds to a target accuracy, is the end-to-end
//! comparison: it weighs the shorter rounds against however many more
//! rounds the lighter work needs.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example wall_clock_stragglers
//! ```

use fedadmm::prelude::*;

const NUM_CLIENTS: usize = 100;
const ROUNDS: usize = 30;
const TARGET_ACCURACY: f32 = 0.7;
const SEED: u64 = 42;

/// A realistic mixed fleet: a few edge gateways, mostly mid-range phones
/// and a tail of slow devices. Per-epoch times are for 600 local samples.
fn fleet() -> DeviceModel {
    let device = |seconds_per_epoch, upload_mbps, download_mbps, latency_ms| Device {
        seconds_per_epoch,
        link: Some(Link {
            upload_mbps,
            download_mbps,
            latency_ms,
        }),
    };
    let tiers = [
        (device(0.2, 100.0, 200.0, 5.0), 0.05),
        (device(0.5, 30.0, 80.0, 20.0), 0.25),
        (device(1.5, 10.0, 30.0, 40.0), 0.5),
        (device(6.0, 2.0, 8.0, 80.0), 0.2),
    ];
    DeviceModel::tiered(NUM_CLIENTS, &tiers, SEED)
}

/// Runs `algorithm` on the fleet and returns its history.
fn run<A: Algorithm>(algorithm: A) -> RunHistory {
    let config = FedConfig {
        num_clients: NUM_CLIENTS,
        participation: Participation::Fraction(0.1),
        local_epochs: 5,
        system_heterogeneity: true,
        batch_size: BatchSize::Size(20),
        local_learning_rate: 0.1,
        model: ModelSpec::Logistic {
            input_dim: 784,
            num_classes: 10,
        },
        seed: SEED,
        eval_subset: 500,
    };
    let (train, test) = SyntheticDataset::Mnist.generate(NUM_CLIENTS * 60, 500, SEED);
    let partition = DataDistribution::NonIidShards.partition(&train, NUM_CLIENTS, SEED);
    let mut engine = RoundEngine::new(config, train, test, partition, algorithm, SyncRounds)
        .and_then(|engine| engine.with_devices(fleet()))
        .expect("engine builds");
    engine.run_rounds(ROUNDS).expect("rounds succeed");
    engine.into_history()
}

fn main() {
    // FedAvg ignores `system_heterogeneity` (it always runs E epochs);
    // FedADMM draws E_i per client and round.
    let runs = [
        ("FedAvg, fixed E", run(FedAvg::new())),
        (
            "FedADMM, variable E",
            run(FedAdmm::new(0.3, ServerStepSize::Constant(1.0))),
        ),
    ];

    println!("{NUM_CLIENTS} clients on a four-tier fleet, 10 per round, {ROUNDS} rounds, E = 5\n");
    println!(
        "protocol             | virtual time | mean round | local epochs | final acc | to {TARGET_ACCURACY} acc"
    );
    let seconds = |h: &RunHistory| h.records.last().map_or(0.0, |r| r.virtual_seconds);
    for (name, history) in &runs {
        let to_target = history
            .records
            .iter()
            .find(|r| r.test_accuracy >= TARGET_ACCURACY)
            .map_or("not reached".to_string(), |r| {
                format!("{:.0} s", r.virtual_seconds)
            });
        println!(
            "{:<20} | {:>10.0} s | {:>8.1} s | {:>12} | {:>9.3} | {:>11}",
            name,
            seconds(history),
            seconds(history) / history.len() as f64,
            history.total_local_epochs(),
            history.final_accuracy(),
            to_target
        );
    }
    println!(
        "\nVariable local work cuts the synchronous rounds' virtual time by {:.0}% on the \
         same cohorts, without dropping a single update.",
        100.0 * (1.0 - seconds(&runs[1].1) / seconds(&runs[0].1))
    );
}
