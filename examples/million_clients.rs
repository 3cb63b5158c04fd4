//! Million-client rounds on a laptop: the sharded, spill-to-disk client
//! state store.
//!
//! FedADMM keeps per-client state (the local model `w_i` and the dual
//! variable `y_i`) between rounds, so a naive simulation allocates
//! `m × 2 × d` floats up front — ~63 GB for a million clients of a
//! 7 850-parameter model. But with `C = 0.1%` participation only ~1 000
//! clients are ever *active* per round. This example runs exactly that
//! population on [`StoreConfig::Spill`]: untouched clients stay implicit
//! (a shard materializes lazily on first selection), and trained shards
//! are evicted to disk under an LRU policy whenever resident state
//! exceeds a fixed byte budget. Aggregation runs hierarchically — one
//! partial fold per shard, combined tree-style — so the server never
//! walks a million-entry array either.
//!
//! Reported per round: rounds/sec, resident store bytes versus the dense
//! footprint, and the store's materialize / spill / reload counters.
//!
//! Run with (about a minute; use `--release`, the debug build is far
//! slower):
//!
//! ```text
//! cargo run --release --example million_clients
//! ```
//!
//! Population, participation and budget are compile-time constants below —
//! shrink `NUM_CLIENTS` for a quick look, or grow the budget to watch the
//! spill traffic disappear.

use fedadmm::prelude::*;
use fedadmm::telemetry::peak_rss_bytes;
use fedadmm_core::engine::RoundEngine;
use fedadmm_data::partition::Partition;
use fedadmm_data::Dataset;

const NUM_CLIENTS: usize = 1_000_000;
const COHORT: usize = 1_000; // C = 0.1%
const SAMPLES_PER_CLIENT: usize = 20;
const NUM_SHARDS: usize = 512;
const BUDGET_BYTES: u64 = 64 * 1024 * 1024;
const ROUNDS: usize = 5;
const SEED: u64 = 42;

/// Label-sorted shared-index partition: client `c` owns a window of the
/// label-ordered sample list, so every client is non-IID (few labels)
/// while the dataset itself stays small and shared.
fn shared_non_iid_partition(train: &Dataset) -> Partition {
    let mut order: Vec<usize> = (0..train.len()).collect();
    order.sort_by_key(|&i| train.label(i));
    let span = train.len() - SAMPLES_PER_CLIENT;
    Partition::new(
        (0..NUM_CLIENTS)
            .map(|c| {
                let start = (c * 17) % span;
                order[start..start + SAMPLES_PER_CLIENT].to_vec()
            })
            .collect(),
    )
}

fn main() {
    let config = FedConfig {
        num_clients: NUM_CLIENTS,
        participation: Participation::Count(COHORT),
        local_epochs: 1,
        system_heterogeneity: false,
        batch_size: BatchSize::Size(20),
        local_learning_rate: 0.05,
        model: ModelSpec::Logistic {
            input_dim: 784,
            num_classes: 10,
        },
        seed: SEED,
        eval_subset: usize::MAX,
    };
    let dense_bytes = NUM_CLIENTS as u64 * 2 * config.model.num_params() as u64 * 4;
    println!(
        "population {NUM_CLIENTS}, cohort {COHORT}/round, state budget {} MB",
        BUDGET_BYTES / (1024 * 1024)
    );
    println!(
        "a dense Vec<ClientState> would need ~{:.0} GB; the spill store holds {NUM_SHARDS} shards",
        dense_bytes as f64 / 1e9
    );

    let (train, test) = SyntheticDataset::Mnist.generate(2_000, 400, SEED);
    let partition = shared_non_iid_partition(&train);
    let store = StoreConfig::Spill {
        num_shards: NUM_SHARDS,
        budget_bytes: BUDGET_BYTES,
        dir: None, // a fresh temp dir, cleaned up on drop
    };
    let mut engine = RoundEngine::new_with_store(
        config,
        train,
        test,
        partition,
        FedAdmm::paper_default(),
        SyncRounds,
        &store,
    )
    .expect("valid configuration")
    .with_aggregation(AggregationMode::Hierarchical)
    .eval_subset(0.25);

    println!(
        "\n{:>5} {:>9} {:>10} {:>12} {:>8} {:>8} {:>8}",
        "round", "acc", "rounds/s", "resident", "mat", "spill", "reload"
    );
    for round in 0..ROUNDS {
        let start = std::time::Instant::now();
        let record = engine.run_round().expect("round succeeds");
        let secs = start.elapsed().as_secs_f64();
        let stats = engine.store().stats();
        println!(
            "{round:>5} {:>8.1}% {:>10.2} {:>9} MB {:>8} {:>8} {:>8}",
            record.test_accuracy * 100.0,
            1.0 / secs.max(1e-12),
            engine.store().resident_bytes() / (1024 * 1024),
            stats.materializations,
            stats.spill_writes,
            stats.spill_loads,
        );
    }

    if let Some(peak) = peak_rss_bytes() {
        println!(
            "\npeak RSS {} MB — {:.1}% of the dense footprint",
            peak / (1024 * 1024),
            peak as f64 / dense_bytes as f64 * 100.0
        );
    }
}
