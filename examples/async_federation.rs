//! Synchronous rounds versus semi-asynchronous deadlines versus fully
//! asynchronous aggregation on a straggler-heavy device fleet.
//!
//! The paper's related-work section argues that asynchronous ADMM's
//! bounded-delay assumption is unrealistic for federated fleets, and that
//! FedADMM's synchronous-but-partial-participation protocol sidesteps the
//! straggler problem instead. This example quantifies the trade-off on a
//! simulated two-tier fleet (30% of devices are 8× slower) by running the
//! same FedADMM configuration through all three schedulers of the unified
//! `RoundEngine`, each timed by the same `DeviceModel`:
//!
//! * **`SyncRounds`** — every round waits for its slowest selected client;
//! * **`SemiAsync`** — rounds end at a fixed deadline; stragglers' updates
//!   arrive rounds later, staleness-damped, instead of stalling the server;
//! * **`BufferedAsync`** — updates are applied the moment they arrive,
//!   staleness-damped (the asynchronous extreme).
//!
//! Reported: test accuracy as a function of *virtual wall-clock time*.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example async_federation
//! ```

use fedadmm::prelude::*;
use fedadmm_core::engine::RoundEngine;

const NUM_CLIENTS: usize = 20;
const CONCURRENCY: usize = 4; // == clients per synchronous round (C = 0.2)
const SECONDS_PER_EPOCH: f64 = 1.0;
const SLOWDOWN: f64 = 8.0;
const SEED: u64 = 7;
const TOTAL_CLIENT_UPDATES: usize = 120;

fn config() -> FedConfig {
    FedConfig {
        num_clients: NUM_CLIENTS,
        participation: Participation::Count(CONCURRENCY),
        local_epochs: 2,
        system_heterogeneity: false,
        batch_size: BatchSize::Size(20),
        local_learning_rate: 0.1,
        model: ModelSpec::Mlp {
            input_dim: 784,
            hidden_dim: 32,
            num_classes: 10,
        },
        seed: SEED,
        eval_subset: 400,
    }
}

fn algorithm() -> FedAdmm {
    FedAdmm::new(0.3, ServerStepSize::Constant(1.0))
}

fn main() {
    let (train, test) = SyntheticDataset::Mnist.generate(2_000, 600, SEED);
    let partition = DataDistribution::NonIidShards.partition(&train, NUM_CLIENTS, SEED);

    // The shared straggler fleet: three devices in every ten run a local
    // epoch 8× slower than the rest.
    let seconds = (0..NUM_CLIENTS).map(|c| {
        if c % 10 >= 7 {
            SECONDS_PER_EPOCH * SLOWDOWN
        } else {
            SECONDS_PER_EPOCH
        }
    });
    let devices = DeviceModel::new(seconds.collect());

    // --- Fully asynchronous FedADMM -------------------------------------
    let pool = AsyncConfig::new(CONCURRENCY);
    let mut async_engine = RoundEngine::new(
        config(),
        train.clone(),
        test.clone(),
        partition.clone(),
        algorithm(),
        BufferedAsync::new(pool),
    )
    .and_then(|engine| engine.with_devices(devices.clone()))
    .expect("async configuration is consistent");
    while async_engine.scheduler().updates_applied() < TOTAL_CLIENT_UPDATES {
        async_engine.step().expect("async step succeeds");
    }
    let (async_mean_staleness, async_max_staleness) = async_engine.staleness_stats();
    let (_, async_acc) = async_engine.evaluate_global().expect("evaluation succeeds");
    let async_time = async_engine.now();

    // --- Semi-asynchronous FedADMM --------------------------------------
    // Deadline set to the fast tier's round time (2 epochs × 1 s/epoch):
    // fast clients always make the deadline, the slow tier arrives rounds
    // late with staleness damping instead of stalling anyone.
    let fleet = SemiAsyncConfig::new(2.0 * SECONDS_PER_EPOCH);
    let mut semi_engine = RoundEngine::new(
        config(),
        train.clone(),
        test.clone(),
        partition.clone(),
        algorithm(),
        SemiAsync::new(fleet),
    )
    .and_then(|engine| engine.with_devices(devices.clone()))
    .expect("semi-async configuration is consistent");
    while semi_engine.events().len() < TOTAL_CLIENT_UPDATES {
        semi_engine.run_round().expect("semi-async round succeeds");
    }
    let (semi_mean_staleness, semi_max_staleness) = semi_engine.staleness_stats();
    let (_, semi_acc) = semi_engine.evaluate_global().expect("evaluation succeeds");
    let semi_time = semi_engine.now();

    // --- Synchronous FedADMM --------------------------------------------
    // A synchronous round lasts as long as its *slowest* selected client;
    // the same device model times it. We run the same number of client
    // updates (120 / CONCURRENCY rounds).
    let mut sync_engine =
        RoundEngine::new(config(), train, test, partition, algorithm(), SyncRounds)
            .and_then(|engine| engine.with_devices(devices))
            .expect("sync configuration is consistent");
    sync_engine
        .run_rounds(TOTAL_CLIENT_UPDATES / CONCURRENCY)
        .expect("rounds succeed");
    let sync_time = sync_engine.now();
    let (_, sync_acc) = sync_engine.evaluate_global().expect("evaluation succeeds");

    println!("Two-tier fleet: {NUM_CLIENTS} clients, 30% of them {SLOWDOWN}× slower");
    println!("All protocols run {TOTAL_CLIENT_UPDATES} client updates of the same FedADMM.");
    println!();
    println!(
        "{:<28} | {:>15} | {:>13}",
        "protocol", "virtual seconds", "test accuracy"
    );
    println!("{}", "-".repeat(64));
    println!(
        "{:<28} | {:>15.1} | {:>13.3}",
        "synchronous (wait-for-all)", sync_time, sync_acc
    );
    println!(
        "{:<28} | {:>15.1} | {:>13.3}",
        "semi-async (deadline)", semi_time, semi_acc
    );
    println!(
        "{:<28} | {:>15.1} | {:>13.3}",
        "fully async (on-arrival)", async_time, async_acc
    );
    println!();
    println!(
        "semi-async staleness: mean {:.2}, max {} rounds ({} stragglers still in flight)",
        semi_mean_staleness,
        semi_max_staleness,
        semi_engine.scheduler().stragglers_in_flight(),
    );
    println!(
        "fully-async staleness: mean {:.2}, max {} versions (polynomial damping a = 0.5)",
        async_mean_staleness, async_max_staleness
    );
    println!();
    println!(
        "The synchronous server pays the straggler tax every round; the deadline scheduler \
         caps each round's cost at the deadline and folds late arrivals in (staleness-damped) \
         when they finally land; the fully asynchronous server never waits at all, so its \
         virtual time is set by device throughput rather than by the slowest selected device."
    );
}
