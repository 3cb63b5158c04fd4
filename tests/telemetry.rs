//! Integration tests for the observability seam: a [`Recorder`] installed
//! on the engine observes real runs under every scheduler, the trace tree
//! mirrors the tick/phase structure, exported JSON round-trips through the
//! vendored serializer, and the opt-in optimality-gap gauge reports the
//! paper's `V_t` diagnostic per round.

mod common;

use common::{fleet, Scenario};
use fedadmm::core::algorithms::UpdateScratch;
use fedadmm::core::diagnostics::optimality_gap;
use fedadmm::prelude::*;
use fedadmm::telemetry::names;
use std::sync::{Arc, Mutex};

#[test]
fn recorder_observes_a_sync_run() {
    let rounds = 3;
    let mut engine = Scenario::new(8, 11)
        .engine(FedAdmm::paper_default())
        .with_telemetry(Box::new(Recorder::new()));
    engine.run_rounds(rounds).unwrap();

    let recorder = engine
        .recorder_mut()
        .expect("installed telemetry is the recorder");

    let m = recorder.metrics();
    assert_eq!(m.counter_by_name(names::ROUNDS_TOTAL), Some(rounds as u64));
    assert_eq!(
        m.counter_by_name(names::AGGREGATIONS_TOTAL),
        Some(rounds as u64)
    );
    // 4 of 8 clients participate per synchronous round.
    assert_eq!(
        m.counter_by_name(names::CLIENT_UPDATES_TOTAL),
        Some(4 * rounds as u64)
    );
    // Every selected client both downloads and uploads the full model.
    let model_floats = m.counter_by_name(names::BROADCAST_FLOATS_TOTAL).unwrap();
    assert!(model_floats > 0);
    assert_eq!(
        m.counter_by_name(names::UPLOAD_FLOATS_TOTAL),
        Some(model_floats)
    );
    // Timed histograms saw one observation per client update / round.
    let compute = m.histogram_by_name(names::CLIENT_COMPUTE_SECONDS).unwrap();
    assert_eq!(compute.count(), 4 * rounds as u64);
    assert!(compute.sum() > 0.0);
    let wall = m.histogram_by_name(names::ROUND_WALL_SECONDS).unwrap();
    assert_eq!(wall.count(), rounds as u64);
    // Synchronous rounds have zero staleness.
    let staleness = m.histogram_by_name(names::STALENESS_ROUNDS).unwrap();
    assert_eq!(staleness.max(), 0.0);
    assert!(m.gauge_by_name(names::TEST_ACCURACY).unwrap() > 0.0);

    // The trace tree mirrors the tick → phase → client structure.
    let records = recorder.tracer().records();
    let ticks: Vec<_> = records.iter().filter(|s| s.name == "sync-rounds").collect();
    assert_eq!(ticks.len(), rounds);
    let dispatch = records
        .iter()
        .find(|s| s.name == "dispatch")
        .expect("dispatch phase span recorded");
    assert!(
        ticks.iter().any(|t| t.id == dispatch.parent),
        "dispatch must nest under a tick span"
    );
    let locals: Vec<_> = records
        .iter()
        .filter(|s| s.name == "local_update")
        .collect();
    assert_eq!(locals.len(), 4 * rounds);
    assert!(locals.iter().all(|s| s.client.is_some()));
    assert!(records.iter().any(|s| s.name == "aggregate"));
    assert!(records.iter().any(|s| s.name == "server_fold"));
    assert!(records.iter().any(|s| s.name == "round_end"));

    // Both exports parse back as JSON.
    let json = recorder.metrics_json();
    assert_eq!(
        json["counters"][names::ROUNDS_TOTAL].as_u64(),
        Some(rounds as u64)
    );
    assert!(json["histograms"][names::ROUND_WALL_SECONDS]["p50"]
        .as_f64()
        .is_some());
    for line in recorder.trace_json_lines().lines() {
        let span: serde_json::Value = serde_json::from_str(line).expect("every trace line parses");
        assert!(span["end_ns"].as_u64().unwrap() >= span["start_ns"].as_u64().unwrap());
    }
}

/// A recorded semi-async run of 10 rounds: every second client of 8 is far
/// too slow for the 3.5 s deadline (6 s for its two epochs), so arrivals
/// recur with staleness ≥ 1.
fn recorded_semi_async_run() -> RoundEngine<FedAdmm, SemiAsync> {
    let semi = SemiAsync::new(SemiAsyncConfig::new(3.5));
    let mut engine = Scenario::new(8, 12)
        .timed(FedAdmm::paper_default(), semi, fleet(8, &[1, 3, 5, 7], 3.0))
        .with_telemetry(Box::new(Recorder::new()));
    engine.run_rounds(10).unwrap();
    engine
}

#[test]
fn recorder_observes_staleness_under_semi_async() {
    let engine = recorded_semi_async_run();

    let recorder = engine
        .recorder()
        .expect("installed telemetry is the recorder");
    let staleness = recorder
        .metrics()
        .histogram_by_name(names::STALENESS_ROUNDS)
        .unwrap();
    assert!(staleness.count() > 0, "no arrivals were observed");
    assert!(
        staleness.max() >= 1.0,
        "straggler fleet produced no stale arrivals"
    );
    // The history's per-round staleness stats agree with the recorder's
    // ceiling (satellite: staleness surfaced in RoundRecord).
    let history_max = engine
        .history()
        .records
        .iter()
        .map(|r| r.staleness_max)
        .max()
        .unwrap();
    assert_eq!(history_max as f64, staleness.max());
    let ticks = recorder
        .tracer()
        .records()
        .iter()
        .filter(|s| s.name == "semi-async")
        .count();
    assert_eq!(ticks, 10);
}

#[test]
fn semi_async_round_wall_seconds_are_wall_clock() {
    // Each round spans at least the 3.5 s deadline of virtual time, but
    // the simulation runs it in milliseconds: the wall-clock histogram
    // must show the latter, the history's clock the former.
    let engine = recorded_semi_async_run();
    let recorder = engine.recorder().unwrap();
    let wall = recorder
        .metrics()
        .histogram_by_name(names::ROUND_WALL_SECONDS)
        .unwrap();
    assert_eq!(wall.count(), 10);
    let p50 = wall.quantile(0.5);
    assert!(p50 < 1.0, "round_wall_seconds p50 is {p50}");
    let last = engine.history().records.last().unwrap();
    assert!(
        last.virtual_seconds >= 10.0 * 3.5,
        "{}",
        last.virtual_seconds
    );
}

#[test]
fn recorder_observes_buffered_async_ticks() {
    let pool = BufferedAsync::new(AsyncConfig::new(4));
    let mut engine = Scenario::new(10, 13)
        .timed(
            FedAdmm::paper_default(),
            pool,
            fleet(10, &[2, 4, 8, 9], 8.0),
        )
        .with_telemetry(Box::new(Recorder::new()));
    // Buffered ticks are arrival-driven: step until two aggregations land.
    let mut guard = 0;
    while engine.scheduler().updates_applied() < 2 {
        engine.step().unwrap();
        guard += 1;
        assert!(guard < 256, "buffered scheduler never aggregated");
    }

    let recorder = engine
        .recorder()
        .expect("installed telemetry is the recorder");
    let m = recorder.metrics();
    assert!(m.counter_by_name(names::CLIENT_UPDATES_TOTAL).unwrap() > 0);
    assert!(m.counter_by_name(names::AGGREGATIONS_TOTAL).unwrap() >= 2);
    let records = recorder.tracer().records();
    assert!(
        records.iter().any(|s| s.name == "buffered-async"),
        "tick spans carry the scheduler label"
    );
    assert!(records.iter().any(|s| s.name == "arrival"));
}

#[test]
fn optimality_gap_gauge_is_opt_in_and_reported_per_round() {
    let rho = 0.3;
    let scenario = Scenario::new(6, 14);
    let (train, _) = scenario.data();
    let run = |gap: bool, store: &StoreConfig| {
        let admm = FedAdmm::new(rho, ServerStepSize::Constant(1.0));
        let mut engine = scenario
            .engine_with(admm, SyncRounds, store)
            .with_telemetry(Box::new(Recorder::new()));
        if gap {
            engine = engine.with_optimality_gap(rho);
        }
        engine.run_rounds(2).unwrap();
        let gauge = engine
            .recorder()
            .expect("installed telemetry is the recorder")
            .metrics()
            .gauge_by_name("optimality_gap");
        if let Some(gauge) = gauge {
            // The gauge streams the states out of the store; it has the bits
            // of V_t on the collected states, computed on a fresh scratch.
            let states = engine.clients().unwrap();
            let model = engine.config().model;
            let mut scratch = UpdateScratch::default();
            let collected = optimality_gap(
                &states,
                engine.global_model(),
                rho,
                model,
                &train,
                &mut scratch,
            );
            assert_eq!(
                gauge.to_bits(),
                (collected.unwrap().total() as f64).to_bits()
            );
        }
        gauge
    };

    let gap = run(true, &StoreConfig::InMemory).expect("gap gauge registered dynamically");
    assert!(gap.is_finite() && gap >= 0.0);

    // Every store spelling reads the same states, so the gauge agrees to
    // the bit.
    let roomy_spill = StoreConfig::Spill {
        num_shards: 2,
        budget_bytes: u64::MAX,
        dir: None,
    };
    for store in [StoreConfig::Sharded { num_shards: 4 }, roomy_spill] {
        let other = run(true, &store).expect("gap gauge on every store");
        assert_eq!(other.to_bits(), gap.to_bits(), "{store:?}");
    }

    // Without `with_optimality_gap` the gauge never appears.
    assert_eq!(run(false, &StoreConfig::InMemory), None);
}

/// The seam's fake: keeps the debug text of every event it is handed.
struct Collect(Arc<Mutex<Vec<String>>>);

impl Telemetry for Collect {
    fn enabled(&self) -> bool {
        true
    }

    fn on_event(&mut self, event: &Event<'_>) {
        self.0.lock().unwrap().push(format!("{event:?}"));
    }
}

/// `event` without what legitimately differs between two runs: wall-clock
/// readings (`…seconds: <value>`) and the pool geometry of a dispatch batch.
fn run_independent(event: &str) -> String {
    if event.starts_with("Dispatch") {
        return "Dispatch".to_string();
    }
    let mut out = String::new();
    let mut rest = event;
    while let Some(at) = rest.find("seconds: ") {
        let (kept, value) = rest.split_at(at + "seconds: ".len());
        out.push_str(kept);
        out.push('_');
        rest = &value[value.find([',', ' ']).unwrap_or(value.len())..];
    }
    out + rest
}

#[test]
fn a_custom_hook_sees_the_same_events_at_any_worker_count() {
    let events_at = |workers: usize| {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut engine = Scenario::new(8, 15)
            .engine(FedAdmm::paper_default())
            .with_dispatch_workers(workers)
            .with_telemetry(Box::new(Collect(Arc::clone(&log))));
        engine.run_rounds(2).unwrap();
        assert!(engine.recorder().is_none(), "the fake is not a recorder");
        let events = log.lock().unwrap();
        events
            .iter()
            .map(|e| run_independent(e))
            .collect::<Vec<_>>()
    };
    let inline = events_at(1);
    assert_eq!(inline[0], r#"SpanStart { name: "sync-rounds", round: 0 }"#);
    // 4 of 8 clients per round, reported in client-id order after the batch.
    let updates = inline.iter().filter(|e| e.starts_with("ClientUpdate"));
    assert_eq!(updates.count(), 4 * 2);
    assert!(inline.contains(&"Eval { round: 1, seconds: _ }".to_string()));
    assert_eq!(inline, events_at(3));
}
