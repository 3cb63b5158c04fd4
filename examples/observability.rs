//! Instrumenting a federated run with the telemetry subsystem.
//!
//! `fedadmm-telemetry` is a zero-dependency observability layer: a
//! structured span tracer, a metrics registry (counters, gauges,
//! histograms) and a `Telemetry` hook trait the `RoundEngine` drives at
//! fixed points of every round. The default `NoTelemetry` hook keeps the
//! engine's hot path free of clock reads; installing a `Recorder` turns
//! the same run into a span tree plus Prometheus-style metrics — without
//! changing a single bit of the training trajectory (see
//! `tests/engine_parity.rs`).
//!
//! This example runs FedADMM under the semi-asynchronous deadline
//! scheduler on a straggler fleet, with the opt-in optimality-gap gauge
//! enabled, then prints:
//!
//! * the headline counters (rounds, client updates, floats moved),
//! * latency histograms with bucket-interpolated quantiles,
//! * the staleness distribution the deadline regime produced,
//! * the first few spans of the trace (exportable as JSONL).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example observability
//! ```

use fedadmm::prelude::*;
use fedadmm::telemetry::names;
use fedadmm_core::engine::RoundEngine;

const NUM_CLIENTS: usize = 12;
const ROUNDS: usize = 12;
const SEED: u64 = 17;
const RHO: f32 = 0.3;

fn main() {
    let config = FedConfig {
        num_clients: NUM_CLIENTS,
        participation: Participation::Fraction(0.5),
        local_epochs: 2,
        system_heterogeneity: false,
        batch_size: BatchSize::Size(16),
        local_learning_rate: 0.1,
        model: ModelSpec::Logistic {
            input_dim: 784,
            num_classes: 10,
        },
        seed: SEED,
        eval_subset: usize::MAX,
    };
    let (train, test) = SyntheticDataset::Mnist.generate(NUM_CLIENTS * 40, 200, SEED);
    let partition = DataDistribution::NonIidShards.partition(&train, NUM_CLIENTS, SEED);

    // Every second device is 3× slower than the round deadline allows, so
    // its updates recur staleness-damped — exactly what the staleness
    // histogram and the per-round `staleness_mean`/`staleness_max` history
    // fields are there to expose.
    let fleet = SemiAsyncConfig::new(3.5);
    let seconds_per_epoch = (0..NUM_CLIENTS).map(|c| if c % 2 == 1 { 3.0 } else { 1.0 });

    let mut engine = RoundEngine::new(
        config,
        train,
        test,
        partition,
        FedAdmm::new(RHO, ServerStepSize::Constant(1.0)),
        SemiAsync::new(fleet),
    )
    .and_then(|engine| engine.with_devices(DeviceModel::new(seconds_per_epoch.collect())))
    .expect("engine builds")
    .with_telemetry(Box::new(Recorder::new()))
    .with_optimality_gap(RHO);

    engine.run_rounds(ROUNDS).expect("run succeeds");

    // Borrow the recorder back from the engine to export what it saw.
    let recorder = engine
        .recorder_mut()
        .expect("the installed hooks are a Recorder");

    println!("== counters ==");
    let m = recorder.metrics();
    for name in [
        names::ROUNDS_TOTAL,
        names::CLIENT_UPDATES_TOTAL,
        names::AGGREGATIONS_TOTAL,
        names::UPLOAD_FLOATS_TOTAL,
        names::BROADCAST_FLOATS_TOTAL,
        names::DROPPED_ARRIVALS_TOTAL,
    ] {
        println!("  {name:24} {}", m.counter_by_name(name).unwrap_or(0));
    }

    println!("\n== latency histograms (seconds) ==");
    for name in [
        names::ROUND_WALL_SECONDS,
        names::CLIENT_COMPUTE_SECONDS,
        names::AGGREGATE_SECONDS,
        names::EVAL_SECONDS,
    ] {
        let h = m.histogram_by_name(name).expect("registered by Recorder");
        println!(
            "  {name:24} n={:4}  mean={:.2e}  p50={:.2e}  p99={:.2e}  max={:.2e}",
            h.count(),
            h.mean(),
            h.quantile(0.5),
            h.quantile(0.99),
            h.max()
        );
    }

    let staleness = m
        .histogram_by_name(names::STALENESS_ROUNDS)
        .expect("registered by Recorder");
    println!(
        "\n== staleness (rounds) ==\n  n={}  mean={:.2}  p90={:.1}  max={:.0}",
        staleness.count(),
        staleness.mean(),
        staleness.quantile(0.9),
        staleness.max()
    );
    println!(
        "  optimality gap V_t (last round): {:.4}",
        m.gauge_by_name("optimality_gap").unwrap_or(f64::NAN)
    );
    println!(
        "  test accuracy: {:.3}",
        m.gauge_by_name(names::TEST_ACCURACY).unwrap_or(f64::NAN)
    );

    // The trace is a span tree: scheduler ticks at the root, dispatch /
    // aggregate phases under them, per-client local updates as leaves.
    // `trace_json_lines()` exports the same records as JSONL for offline
    // analysis; here we pretty-print the first tick's subtree.
    println!("\n== first spans of the trace ==");
    let records = recorder.tracer().records();
    for span in records.iter().take(10) {
        let indent = if span.parent == 0 {
            ""
        } else if records
            .iter()
            .find(|s| s.id == span.parent)
            .is_some_and(|p| p.parent == 0)
        {
            "  "
        } else {
            "    "
        };
        let client = span
            .client
            .map(|c| format!(" client={c}"))
            .unwrap_or_default();
        println!(
            "  {indent}{:18} round={:?}{client} {:.3} ms",
            span.name,
            span.round,
            span.duration_ns() as f64 / 1e6
        );
    }
    println!("  … {} spans total", recorder.tracer().len());

    // The full registry exports as one JSON object through the vendored
    // serializer.
    let json = recorder.metrics_json();
    println!(
        "\npeak RSS: {:.1} MiB",
        json["gauges"][names::PEAK_RSS_BYTES]
            .as_f64()
            .unwrap_or(0.0)
            / (1024.0 * 1024.0)
    );
}
