//! Bounded-memory scale smoke test (the `scale-smoke` CI job).
//!
//! 100 000 clients at 1% participation over a label-skewed shared dataset,
//! running on the spill-to-disk store with a 64 MB client-state budget. A
//! dense `Vec<ClientState>` for this population would need ~9.4 GB (100k ×
//! three ℝ^7850 vectors); the test asserts the whole process stays under
//! 2 GiB peak RSS, which is only possible if lazy materialization and
//! budget-driven eviction actually work.
//!
//! `#[ignore]`d by default — run with
//! `cargo test --release --test scale_smoke -- --ignored`.

mod common;

use common::Scenario;
use fedadmm::prelude::*;
use fedadmm::telemetry::{names, peak_rss_bytes};
use fedadmm_data::partition::Partition;

const NUM_CLIENTS: usize = 100_000;
const SAMPLES_PER_CLIENT: usize = 20;
const BUDGET_BYTES: u64 = 64 * 1024 * 1024;
const RSS_LIMIT_BYTES: u64 = 2 * 1024 * 1024 * 1024;

/// Label-sorted shared-index partition: clients own overlapping windows of
/// the label-ordered sample list, so each sees a skewed (non-IID) slice
/// without needing 2M distinct samples.
fn shared_non_iid_partition(train: &Dataset, num_clients: usize) -> Partition {
    let mut order: Vec<usize> = (0..train.len()).collect();
    order.sort_by_key(|&i| train.label(i));
    let span = train.len() - SAMPLES_PER_CLIENT;
    let clients: Vec<Vec<usize>> = (0..num_clients)
        .map(|c| {
            let start = (c * 17) % span;
            order[start..start + SAMPLES_PER_CLIENT].to_vec()
        })
        .collect();
    Partition::new(clients)
}

#[test]
#[ignore = "scale smoke: ~100k clients, run in release via the scale-smoke CI job"]
fn hundred_thousand_clients_stay_under_memory_budget() {
    let scenario = Scenario {
        participation: 0.01,
        epochs: 1,
        batch: 20,
        learning_rate: 0.05,
        train: 2_000,
        test: 400,
        ..Scenario::new(NUM_CLIENTS, 2024)
    };
    let (train, test) = scenario.data();
    let partition = shared_non_iid_partition(&train, NUM_CLIENTS);

    let store = StoreConfig::Spill {
        num_shards: 512,
        budget_bytes: BUDGET_BYTES,
        dir: None,
    };
    let admm = FedAdmm::paper_default();
    let mut engine = scenario
        .engine_on(train, test, partition, admm, SyncRounds, &store)
        .with_aggregation(AggregationMode::Hierarchical)
        .eval_subset(0.25)
        .with_telemetry(Box::new(Recorder::new()));

    let records = engine.run_rounds(2).unwrap();
    assert_eq!(records.len(), 2);
    assert_eq!(records[0].num_selected, 1_000);

    // The store must have worked lazily and under pressure: ~1% of the
    // population materialized per round, with the 64 MB budget forcing
    // trained shards out to disk between rounds.
    let stats = engine.store().stats();
    assert!(
        stats.materializations >= 1_000,
        "selected clients materialize on demand: {stats:?}"
    );
    assert!(
        (stats.materializations as usize) < NUM_CLIENTS / 10,
        "the inactive tail must stay implicit: {stats:?}"
    );
    assert!(
        stats.spill_writes > 0,
        "a 64 MB budget cannot hold a 1 000-client cohort resident: {stats:?}"
    );

    // Telemetry probe: the resident-bytes gauge is wired through and the
    // whole process stayed far below the dense footprint (~9.4 GB).
    let recorder = engine.recorder().expect("recorder installed above");
    let resident = recorder
        .metrics()
        .gauge_by_name(names::STORE_RESIDENT_BYTES)
        .expect("store gauge recorded at round close");
    assert!(resident > 0.0);
    let peak = peak_rss_bytes().expect("peak RSS probe available on linux");
    assert!(
        peak < RSS_LIMIT_BYTES,
        "peak RSS {} MB exceeds the {} MB bound",
        peak / (1024 * 1024),
        RSS_LIMIT_BYTES / (1024 * 1024)
    );
}
