//! Integration tests for the event-driven (staleness-aware) scheduling of
//! the unified engine, exercised through the public façade together with
//! the data and algorithm crates.
//!
//! The buffered-asynchronous schedule is the substrate for studying the
//! bounded-delay trade-off the paper's related-work section raises about
//! asynchronous ADMM; these tests pin down its core invariants: virtual
//! time advances monotonically, stragglers produce stale updates, the
//! staleness policy is respected, and asynchronous FedADMM still learns on
//! heterogeneous pools.

mod common;

use common::{fleet, Scenario, LOGISTIC};
use fedadmm::prelude::*;

/// This file's setting: 40 label-skewed training samples per client and
/// 200 test samples.
const fn scenario(clients: usize, seed: u64) -> Scenario {
    Scenario {
        train: clients * 40,
        test: 200,
        distribution: DataDistribution::NonIidShards,
        ..Scenario::new(clients, seed)
    }
}

/// Steps the engine until `updates` aggregations have been applied.
fn run_updates<A: Algorithm>(engine: &mut RoundEngine<A, BufferedAsync>, updates: usize) {
    let target = engine.scheduler().updates_applied() + updates;
    let mut guard = 0;
    while engine.scheduler().updates_applied() < target {
        engine.step().unwrap();
        guard += 1;
        assert!(
            guard < updates * 20 + 64,
            "scheduler failed to apply {updates} updates"
        );
    }
}

#[test]
fn async_fedadmm_learns_on_a_straggler_pool() {
    let pool = AsyncConfig::new(4);
    let admm = FedAdmm::new(0.3, ServerStepSize::Constant(1.0));
    let mut engine = scenario(10, 1).timed(
        admm,
        BufferedAsync::new(pool),
        fleet(10, &[2, 4, 8, 9], 8.0),
    );
    let (_, acc0) = engine.evaluate_global().unwrap();
    run_updates(&mut engine, 60);
    let (_, acc1) = engine.evaluate_global().unwrap();
    assert!(
        acc1 > acc0 + 0.1,
        "async FedADMM accuracy only moved {acc0} → {acc1}"
    );
}

#[test]
fn virtual_time_is_monotone_and_stragglers_arrive_late() {
    let pool = AsyncConfig::new(4).with_staleness(StalenessWeight::Constant);
    let mut engine = scenario(8, 2).timed(
        FedAvg::new(),
        BufferedAsync::new(pool),
        fleet(8, &[3, 4, 6], 10.0),
    );
    run_updates(&mut engine, 30);
    let records = engine.events();
    for pair in records.windows(2) {
        assert!(pair[1].sim_time >= pair[0].sim_time);
    }
    // With a 10× slowdown tier and 4 concurrent clients, some update must
    // arrive with non-zero staleness.
    let (_, max_staleness) = engine.staleness_stats();
    assert!(max_staleness > 0);
}

#[test]
fn bounded_delay_policy_never_applies_overly_stale_updates() {
    let max_staleness = 2usize;
    let pool = AsyncConfig::new(5).with_staleness(StalenessWeight::BoundedDelay { max_staleness });
    let mut engine = scenario(10, 3).timed(
        FedAvg::new(),
        BufferedAsync::new(pool),
        fleet(10, &[0, 5, 6, 9], 12.0),
    );
    for _ in 0..50 {
        engine.step().unwrap();
    }
    for record in engine.events() {
        if record.staleness > max_staleness {
            assert_eq!(record.weight, 0.0, "stale update was applied: {record:?}");
        } else {
            assert_eq!(record.weight, 1.0);
        }
    }
}

#[test]
fn polynomial_damping_downweights_stale_updates() {
    let pool = AsyncConfig::new(5).with_staleness(StalenessWeight::Polynomial { exponent: 1.0 });
    let mut engine = scenario(10, 4).timed(
        FedAvg::new(),
        BufferedAsync::new(pool),
        fleet(10, &[2, 4, 9], 12.0),
    );
    for _ in 0..50 {
        engine.step().unwrap();
    }
    for record in engine.events() {
        let expected = 1.0 / (1.0 + record.staleness as f32);
        assert!((record.weight - expected).abs() < 1e-6);
    }
}

#[test]
fn upload_accounting_is_cumulative_and_matches_model_dimension() {
    let d = LOGISTIC.num_params();
    let mut engine = scenario(6, 5).timed(
        FedAvg::new(),
        BufferedAsync::new(AsyncConfig::new(2)),
        fleet(6, &[], 1.0),
    );
    run_updates(&mut engine, 10);
    for (k, record) in engine.events().iter().enumerate() {
        assert_eq!(record.cumulative_upload_floats, (k + 1) * d);
    }
}

#[test]
fn history_records_accumulate_at_evaluation_points() {
    let pool = AsyncConfig {
        eval_every: 5,
        ..AsyncConfig::new(3)
    };
    let admm = FedAdmm::new(0.3, ServerStepSize::Constant(1.0));
    let mut engine = scenario(6, 6).timed(admm, BufferedAsync::new(pool), fleet(6, &[], 1.0));
    run_updates(&mut engine, 20);
    let history = engine.history();
    assert_eq!(history.algorithm, "FedADMM");
    assert_eq!(
        history.len(),
        engine
            .events()
            .iter()
            .filter(|r| r.test_accuracy.is_some())
            .count()
    );
    assert!(history.len() >= 3);
}

#[test]
fn async_and_sync_reach_comparable_accuracy_on_homogeneous_pools() {
    // On a homogeneous pool with mild concurrency and no staleness damping,
    // asynchronous FedAvg is a reordering of synchronous FedAvg's work;
    // after the same number of applied client updates both must be clearly
    // better than initialization. (Damping would break the premise: FedAvg
    // uploads full models, so down-weighting them shrinks θ.)
    let seed = 7;
    let pool = AsyncConfig::new(2).with_staleness(StalenessWeight::Constant);
    let mut async_run =
        scenario(8, seed).timed(FedAvg::new(), BufferedAsync::new(pool), fleet(8, &[], 1.0));
    run_updates(&mut async_run, 48);
    let (_, async_acc) = async_run.evaluate_global().unwrap();

    let mut sync_run = scenario(8, seed).engine(FedAvg::new());
    // 12 rounds × 4 selected clients = 48 client updates.
    sync_run.run_rounds(12).unwrap();
    let (_, sync_acc) = sync_run.evaluate_global().unwrap();

    assert!(async_acc > 0.25, "async accuracy {async_acc}");
    assert!(sync_acc > 0.25, "sync accuracy {sync_acc}");
}
