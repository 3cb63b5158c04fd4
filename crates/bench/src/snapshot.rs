//! The `bench-snapshot` harness: schema-versioned `BENCH_*.json`
//! performance snapshots of the engine.
//!
//! Criterion answers "did this micro-operation get slower?"; this harness
//! answers "what does a whole federated run cost right now?". It drives a
//! fixed scenario matrix (sync / semi-async × IID / non-IID, plus a
//! large-population spill-store scenario, a heterogeneous-epochs
//! straggler-skew scenario that stresses the dispatch pool, a fused
//! compression + privacy wire scenario timed against its plain
//! reference, and a train-bound dense-compute scenario that stresses the
//! local-SGD kernels) through the
//! [`RoundEngine`] with a [`Recorder`] installed and writes one JSON file
//! per invocation, named `BENCH_<date>_<git-sha>.json`, containing
//! rounds/sec, bytes moved (uploads and θ broadcasts), staleness quantiles,
//! per-phase timing quantiles and the process peak RSS. Committing a
//! snapshot per PR gives the repo a perf *trajectory*, not just a pass/fail
//! bit.
//!
//! The schema is versioned ([`SCHEMA_VERSION`]) and checked by
//! [`validate_snapshot`]; CI runs `bench-snapshot --scale smoke` and
//! validates the output on every push. Two snapshots can be compared with
//! `bench-snapshot --diff A.json B.json`.

use fedadmm_core::engine::RoundEngine;
use fedadmm_core::prelude::*;
use fedadmm_data::partition::Partition;
use fedadmm_data::synthetic::SyntheticDataset;
use fedadmm_data::Dataset;
use fedadmm_experiments::common::{Scale, Setting, SUBSTRATE_RHO};
use fedadmm_nn::models::ModelSpec;
use fedadmm_privacy::prelude::GaussianMechanism;
use fedadmm_system::device::{DeviceClass, DevicePopulation};
use fedadmm_telemetry::{names, peak_rss_bytes, Histogram, Recorder, Telemetry};
use fedadmm_tensor::TensorResult;
use serde_json::{json, Value};
use std::sync::Arc;
use std::time::Instant;

/// Version of the snapshot JSON schema. Bump when renaming or removing
/// fields, or when validation starts requiring new ones; CI validation
/// rejects snapshots with any other version. v2 added the mandatory
/// large-population spill-store scenario; v3 added the straggler-skew
/// scenario, the per-scenario dispatch counters and the top-level
/// `dispatch` block; v4 added the fused compression + privacy wire
/// scenario, the per-scenario `wire_bytes` / `dense_wire_ratio` fields,
/// and redefined `bytes_moved` as true wire bytes (quantized size when
/// the wire path is on) instead of dense `4 · floats`; v5 added the
/// train-bound dense-compute scenario with its `samples_per_sec` /
/// `steps_per_sec` throughput fields.
pub const SCHEMA_VERSION: u64 = 5;

/// Which scheduler a scenario drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// The synchronous round protocol ([`SyncRounds`]).
    Sync,
    /// The deadline-driven straggler-tolerant protocol ([`SemiAsync`]),
    /// with per-client speeds from a tiered [`DevicePopulation`].
    SemiAsync,
}

impl SchedulerKind {
    /// Stable label used in scenario names and the JSON.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::Sync => "sync",
            SchedulerKind::SemiAsync => "semi-async",
        }
    }
}

/// One cell of the benchmark matrix.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioSpec {
    /// The scheduler under test.
    pub scheduler: SchedulerKind,
    /// Client data distribution.
    pub distribution: DataDistribution,
}

impl ScenarioSpec {
    /// Stable scenario name, e.g. `"semi-async/non-IID"`.
    pub fn name(&self) -> String {
        format!("{}/{}", self.scheduler.label(), self.distribution.label())
    }
}

/// The fixed scenario matrix: sync / semi-async × IID / non-IID.
pub fn scenario_matrix() -> Vec<ScenarioSpec> {
    let mut out = Vec::new();
    for scheduler in [SchedulerKind::Sync, SchedulerKind::SemiAsync] {
        for distribution in [DataDistribution::Iid, DataDistribution::NonIidShards] {
            out.push(ScenarioSpec {
                scheduler,
                distribution,
            });
        }
    }
    out
}

/// Rounds each scenario runs at the given scale.
pub fn rounds_for(scale: Scale) -> usize {
    match scale {
        Scale::Smoke => 8,
        Scale::Scaled => 20,
        Scale::Paper => 50,
    }
}

fn base_setting(distribution: DataDistribution, scale: Scale) -> Setting {
    Setting::for_dataset(SyntheticDataset::Mnist, distribution, 100, scale)
}

/// The tiered device fleet driving the semi-async scenarios, bridged into
/// per-client epoch seconds via [`DevicePopulation::seconds_per_epoch`].
fn semi_async_config(setting: &Setting) -> SemiAsyncConfig {
    let fleet = DevicePopulation::tiered(
        setting.num_clients,
        &[
            (DeviceClass::HighEnd, 0.5),
            (DeviceClass::MidRange, 0.3),
            (DeviceClass::LowEnd, 0.2),
        ],
        setting.seed,
    );
    let samples_per_client = setting.train_size / setting.num_clients.max(1);
    let seconds = fleet.seconds_per_epoch(setting.num_clients, samples_per_client);
    // Deadline at the median per-round compute cost: the fast half makes
    // every round, the slow tail arrives stale.
    let mut sorted = seconds.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let deadline = sorted[sorted.len() / 2] * setting.local_epochs.max(1) as f64;
    SemiAsyncConfig {
        seconds_per_epoch: seconds,
        round_deadline: deadline.max(1e-6),
        staleness: StalenessWeight::Polynomial { exponent: 0.5 },
    }
}

fn hist_json(hist: Option<&Histogram>) -> Value {
    match hist {
        Some(h) if h.count() > 0 => json!({
            "count": h.count(),
            "mean": h.mean(),
            "p50": h.quantile(0.50),
            "p90": h.quantile(0.90),
            "p99": h.quantile(0.99),
            "max": h.max(),
        }),
        _ => json!({"count": 0u64, "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0}),
    }
}

fn counter(rec: &Recorder, name: &str) -> u64 {
    rec.metrics().counter_by_name(name).unwrap_or(0)
}

/// The upload-side byte fields of a finished run:
/// `(dense_bytes, wire_bytes, dense_wire_ratio)`. `dense_bytes` is the
/// classical `4 · floats` accounting; `wire_bytes` is the true on-the-wire
/// size (quantized payload + per-vector header when the engine's wire path
/// is on, identical to dense otherwise); the ratio is their quotient
/// (1.0 dense, ≈ 4 at 8 bits).
fn upload_fields(rec: &Recorder) -> (u64, u64, f64) {
    let dense = counter(rec, names::UPLOAD_FLOATS_TOTAL) * 4;
    let wire = counter(rec, names::WIRE_BYTES_TOTAL);
    let ratio = if wire > 0 {
        dense as f64 / wire as f64
    } else {
        1.0
    };
    (dense, wire, ratio)
}

/// The dispatch counters of a finished run: `(chunks, steals, imbalance)`.
/// The imbalance gauge holds the last round's max/mean busy-seconds ratio
/// across workers (1.0 = perfectly balanced; 0.0 when never timed).
fn dispatch_fields(rec: &Recorder) -> (u64, u64, f64) {
    (
        counter(rec, names::DISPATCH_CHUNKS_TOTAL),
        counter(rec, names::DISPATCH_STEALS_TOTAL),
        rec.metrics()
            .gauge_by_name(names::DISPATCH_IMBALANCE)
            .unwrap_or(0.0),
    )
}

/// Runs one scenario with a [`Recorder`] installed and returns its JSON row.
pub fn run_scenario(spec: &ScenarioSpec, scale: Scale, rounds: usize) -> TensorResult<Value> {
    let setting = base_setting(spec.distribution, scale);
    let algorithm = FedAdmm::new(SUBSTRATE_RHO, ServerStepSize::Constant(1.0));
    let recorder = Box::new(Recorder::new());
    // The larger scales cap evaluation at a quarter of the test set so the
    // snapshot measures the federated pipeline, not repeated full evals.
    let eval_fraction = match scale {
        Scale::Smoke => 1.0,
        Scale::Scaled | Scale::Paper => 0.25,
    };
    let (wall_seconds, final_accuracy, history, telemetry) = match spec.scheduler {
        SchedulerKind::Sync => {
            let mut engine = setting
                .build_sim(algorithm)?
                .eval_subset(eval_fraction)
                .with_telemetry(recorder);
            let start = Instant::now();
            engine.run_rounds(rounds)?;
            let wall = start.elapsed().as_secs_f64();
            let acc = engine.history().final_accuracy();
            let telemetry = engine.take_telemetry();
            (wall, acc, engine.into_history(), telemetry)
        }
        SchedulerKind::SemiAsync => {
            let scheduler = SemiAsync::new(semi_async_config(&setting));
            let mut engine = setting
                .build_with_scheduler(algorithm, scheduler)?
                .eval_subset(eval_fraction)
                .with_telemetry(recorder);
            let start = Instant::now();
            engine.run_rounds(rounds)?;
            let wall = start.elapsed().as_secs_f64();
            let acc = engine.history().final_accuracy();
            let telemetry = engine.take_telemetry();
            (wall, acc, engine.into_history(), telemetry)
        }
    };
    let rec = telemetry
        .as_any()
        .and_then(|a| a.downcast_ref::<Recorder>())
        .expect("scenario telemetry is a Recorder");

    let (upload_bytes, wire_bytes, dense_wire_ratio) = upload_fields(rec);
    let broadcast_bytes = counter(rec, names::BROADCAST_FLOATS_TOTAL) * 4;
    let staleness_max = history.records.iter().map(|r| r.staleness_max).max();
    let (dispatch_chunks, dispatch_steals, dispatch_imbalance) = dispatch_fields(rec);
    Ok(json!({
        "name": spec.name(),
        "scheduler": spec.scheduler.label(),
        "distribution": spec.distribution.label(),
        "rounds": rounds,
        "wall_seconds": wall_seconds,
        "rounds_per_sec": rounds as f64 / wall_seconds.max(1e-12),
        "final_accuracy": final_accuracy as f64,
        "client_updates": counter(rec, names::CLIENT_UPDATES_TOTAL),
        "upload_bytes": upload_bytes,
        "broadcast_bytes": broadcast_bytes,
        "wire_bytes": wire_bytes,
        "dense_wire_ratio": dense_wire_ratio,
        "bytes_moved": wire_bytes + broadcast_bytes,
        "staleness": hist_json(rec.metrics().histogram_by_name(names::STALENESS_ROUNDS)),
        "staleness_max_recorded": staleness_max.unwrap_or(0),
        "client_compute_seconds": hist_json(rec.metrics().histogram_by_name(names::CLIENT_COMPUTE_SECONDS)),
        "aggregate_seconds": hist_json(rec.metrics().histogram_by_name(names::AGGREGATE_SECONDS)),
        "eval_seconds": hist_json(rec.metrics().histogram_by_name(names::EVAL_SECONDS)),
        "dispatch_chunks": dispatch_chunks,
        "dispatch_steals": dispatch_steals,
        "dispatch_imbalance": dispatch_imbalance,
    }))
}

/// Client population of the straggler-skew scenario at each scale.
pub fn straggler_population(scale: Scale) -> usize {
    match scale {
        Scale::Smoke => 96,
        Scale::Scaled | Scale::Paper => 192,
    }
}

/// Epochs the slow tier of the straggler-skew scenario runs per round.
pub const STRAGGLER_EPOCHS: usize = 16;

/// Runs the heterogeneous-epochs straggler-skew scenario: full
/// participation over tiny per-client shards (4 samples each), with every
/// forty-eighth client running [`STRAGGLER_EPOCHS`] local epochs while the rest
/// run one — the paper's system-heterogeneity protocol pushed to a skew
/// extreme. Because per-job compute is tiny, the scenario is dominated by
/// the dispatch path itself (scheduling, scratch reuse, allocation churn);
/// it is the row the work-stealing pool is judged against.
pub fn run_straggler_scenario(scale: Scale, rounds: usize) -> TensorResult<Value> {
    const SAMPLES_PER_CLIENT: usize = 4;
    const SEED: u64 = 4242;
    let num_clients = straggler_population(scale);
    let config = FedConfig {
        num_clients,
        participation: Participation::Fraction(1.0),
        local_epochs: 1,
        system_heterogeneity: false,
        batch_size: BatchSize::Size(SAMPLES_PER_CLIENT),
        local_learning_rate: 0.05,
        model: ModelSpec::Logistic {
            input_dim: 784,
            num_classes: 10,
        },
        seed: SEED,
        eval_subset: usize::MAX,
    };
    let (train, test) =
        SyntheticDataset::Mnist.generate(num_clients * SAMPLES_PER_CLIENT, 200, SEED);
    let partition = DataDistribution::Iid.partition(&train, num_clients, SEED);
    let epochs: Vec<usize> = (0..num_clients)
        .map(|c| if c % 48 == 0 { STRAGGLER_EPOCHS } else { 1 })
        .collect();
    let mut engine = RoundEngine::new(
        config,
        train,
        test,
        partition,
        FedAdmm::paper_default(),
        SyncRounds,
    )?
    .with_work_schedule(LocalWorkSchedule::PerClient(epochs))
    .eval_subset(0.25)
    .with_telemetry(Box::new(Recorder::new()));

    let start = Instant::now();
    engine.run_rounds(rounds)?;
    let wall_seconds = start.elapsed().as_secs_f64();
    let final_accuracy = engine.history().final_accuracy();
    let telemetry = engine.take_telemetry();
    let history = engine.into_history();
    let rec = telemetry
        .as_any()
        .and_then(|a| a.downcast_ref::<Recorder>())
        .expect("scenario telemetry is a Recorder");

    let (upload_bytes, wire_bytes, dense_wire_ratio) = upload_fields(rec);
    let broadcast_bytes = counter(rec, names::BROADCAST_FLOATS_TOTAL) * 4;
    let staleness_max = history.records.iter().map(|r| r.staleness_max).max();
    let (dispatch_chunks, dispatch_steals, dispatch_imbalance) = dispatch_fields(rec);
    Ok(json!({
        "name": format!("straggler-skew/{num_clients}-clients"),
        "scheduler": SchedulerKind::Sync.label(),
        "distribution": DataDistribution::Iid.label(),
        "num_clients": num_clients,
        "straggler_epochs": STRAGGLER_EPOCHS,
        "rounds": rounds,
        "wall_seconds": wall_seconds,
        "rounds_per_sec": rounds as f64 / wall_seconds.max(1e-12),
        "final_accuracy": final_accuracy as f64,
        "client_updates": counter(rec, names::CLIENT_UPDATES_TOTAL),
        "upload_bytes": upload_bytes,
        "broadcast_bytes": broadcast_bytes,
        "wire_bytes": wire_bytes,
        "dense_wire_ratio": dense_wire_ratio,
        "bytes_moved": wire_bytes + broadcast_bytes,
        "staleness": hist_json(rec.metrics().histogram_by_name(names::STALENESS_ROUNDS)),
        "staleness_max_recorded": staleness_max.unwrap_or(0),
        "client_compute_seconds": hist_json(rec.metrics().histogram_by_name(names::CLIENT_COMPUTE_SECONDS)),
        "aggregate_seconds": hist_json(rec.metrics().histogram_by_name(names::AGGREGATE_SECONDS)),
        "eval_seconds": hist_json(rec.metrics().histogram_by_name(names::EVAL_SECONDS)),
        "dispatch_chunks": dispatch_chunks,
        "dispatch_steals": dispatch_steals,
        "dispatch_imbalance": dispatch_imbalance,
    }))
}

/// Bit width of the wire scenario's quantizer.
pub const WIRE_BITS: u8 = 8;

/// Clip norm of the wire scenario's Gaussian mechanism — loose enough that
/// the accuracy signal survives at smoke scale while still exercising the
/// clip + noise arithmetic on every upload.
pub const WIRE_DP_CLIP: f32 = 20.0;

/// Noise multiplier of the wire scenario's Gaussian mechanism.
pub const WIRE_DP_NOISE: f32 = 1e-3;

/// Timing repetitions per wire-scenario leg. Both legs are deterministic
/// (same seed → identical accuracy and byte counters every repetition), so
/// only scheduler noise varies between runs; keeping each leg's fastest
/// wall time makes the paired plain-vs-fused comparison stable on hosts
/// where a single short run can swing by ±10 %.
pub const WIRE_TIMING_REPS: usize = 3;

/// Runs the fused compression + privacy wire scenario: the sync / non-IID
/// matrix cell with the wire path on — [`WIRE_BITS`]-bit stochastic
/// quantization plus Gaussian DP, both applied inside the dispatch workers,
/// with the server folding the coded cohort in one fused
/// dequantize-accumulate sweep — timed against a plain reference run of the
/// identical setting (same seed, same recorder, wire path disabled). The
/// row carries the usual scenario keys for the fused run plus the
/// reference `plain_rounds_per_sec` / `plain_final_accuracy` and the
/// relative `wire_overhead_pct`, the number the ≤ 15 % fused-path overhead
/// claim is judged against; the ~4× upload shrink shows up in
/// `dense_wire_ratio` and `bytes_moved`.
pub fn run_wire_scenario(scale: Scale, rounds: usize) -> TensorResult<Value> {
    let setting = base_setting(DataDistribution::NonIidShards, scale);
    let eval_fraction = match scale {
        Scale::Smoke => 1.0,
        Scale::Scaled | Scale::Paper => 0.25,
    };
    let run_leg = |wire: &WirePathConfig| -> TensorResult<(f64, f32, Box<dyn Telemetry>)> {
        let algorithm = FedAdmm::new(SUBSTRATE_RHO, ServerStepSize::Constant(1.0));
        let mut engine = setting
            .build_sim(algorithm)?
            .with_wire_path(wire.clone())
            .eval_subset(eval_fraction)
            .with_telemetry(Box::new(Recorder::new()));
        let start = Instant::now();
        engine.run_rounds(rounds)?;
        let wall = start.elapsed().as_secs_f64();
        Ok((
            wall,
            engine.history().final_accuracy(),
            engine.take_telemetry(),
        ))
    };
    // The repetitions alternate plain/fused rather than running each leg's
    // block back to back: on a loaded host, background activity drifts over
    // the seconds a leg block takes, and whichever leg ran later would
    // absorb the drift as phantom overhead. Interleaving exposes both legs
    // to the same conditions; keeping each leg's fastest wall time then
    // strips the symmetric noise (both legs are deterministic, so accuracy
    // and byte counters are identical across repetitions).
    let plain_cfg = WirePathConfig::disabled();
    let fused_cfg = WirePathConfig::enabled(Quantizer::new(WIRE_BITS, true)).with_guard(Arc::new(
        GaussianMechanism::new(WIRE_DP_CLIP, WIRE_DP_NOISE),
    ));
    let mut plain_wall = f64::INFINITY;
    let mut wall_seconds = f64::INFINITY;
    let mut plain_last = None;
    let mut fused_last = None;
    for _ in 0..WIRE_TIMING_REPS {
        let (wall, acc, telemetry) = run_leg(&plain_cfg)?;
        plain_wall = plain_wall.min(wall);
        plain_last = Some((acc, telemetry));
        let (wall, acc, telemetry) = run_leg(&fused_cfg)?;
        wall_seconds = wall_seconds.min(wall);
        fused_last = Some((acc, telemetry));
    }
    let (plain_acc, plain_telemetry) = plain_last.expect("WIRE_TIMING_REPS is nonzero");
    let (final_accuracy, telemetry) = fused_last.expect("WIRE_TIMING_REPS is nonzero");
    let plain_rec = plain_telemetry
        .as_any()
        .and_then(|a| a.downcast_ref::<Recorder>())
        .expect("scenario telemetry is a Recorder");
    let (plain_upload_bytes, _, _) = upload_fields(plain_rec);
    let rec = telemetry
        .as_any()
        .and_then(|a| a.downcast_ref::<Recorder>())
        .expect("scenario telemetry is a Recorder");

    let (upload_bytes, wire_bytes, dense_wire_ratio) = upload_fields(rec);
    let broadcast_bytes = counter(rec, names::BROADCAST_FLOATS_TOTAL) * 4;
    let (dispatch_chunks, dispatch_steals, dispatch_imbalance) = dispatch_fields(rec);
    let plain_rounds_per_sec = rounds as f64 / plain_wall.max(1e-12);
    let rounds_per_sec = rounds as f64 / wall_seconds.max(1e-12);
    let wire_overhead_pct =
        (plain_rounds_per_sec - rounds_per_sec) / plain_rounds_per_sec.max(1e-12) * 100.0;
    Ok(json!({
        "name": format!("wire/non-IID/{WIRE_BITS}bit+dp"),
        "scheduler": SchedulerKind::Sync.label(),
        "distribution": DataDistribution::NonIidShards.label(),
        "quantizer_bits": WIRE_BITS,
        "dp_clip_norm": WIRE_DP_CLIP as f64,
        "dp_noise_multiplier": WIRE_DP_NOISE as f64,
        "rounds": rounds,
        "wall_seconds": wall_seconds,
        "rounds_per_sec": rounds_per_sec,
        "final_accuracy": final_accuracy as f64,
        "plain_wall_seconds": plain_wall,
        "plain_rounds_per_sec": plain_rounds_per_sec,
        "plain_final_accuracy": plain_acc as f64,
        "plain_upload_bytes": plain_upload_bytes,
        "wire_overhead_pct": wire_overhead_pct,
        "client_updates": counter(rec, names::CLIENT_UPDATES_TOTAL),
        "upload_bytes": upload_bytes,
        "broadcast_bytes": broadcast_bytes,
        "wire_bytes": wire_bytes,
        "dense_wire_ratio": dense_wire_ratio,
        "bytes_moved": wire_bytes + broadcast_bytes,
        "staleness": hist_json(rec.metrics().histogram_by_name(names::STALENESS_ROUNDS)),
        "staleness_max_recorded": 0u64,
        "client_compute_seconds": hist_json(rec.metrics().histogram_by_name(names::CLIENT_COMPUTE_SECONDS)),
        "aggregate_seconds": hist_json(rec.metrics().histogram_by_name(names::AGGREGATE_SECONDS)),
        "eval_seconds": hist_json(rec.metrics().histogram_by_name(names::EVAL_SECONDS)),
        "dispatch_chunks": dispatch_chunks,
        "dispatch_steals": dispatch_steals,
        "dispatch_imbalance": dispatch_imbalance,
    }))
}

/// Shape of the train-bound scenario at a scale:
/// `(clients, samples_per_client, hidden_dim, batch)`.
pub fn train_shape(scale: Scale) -> (usize, usize, usize, usize) {
    match scale {
        Scale::Smoke => (8, 64, 128, 32),
        Scale::Scaled | Scale::Paper => (16, 128, 256, 64),
    }
}

/// Local epochs every client of the train-bound scenario runs per round.
pub const TRAIN_EPOCHS: usize = 2;

/// Runs the train-bound dense-compute scenario: full participation of a
/// small population over a *wide* MLP (784 → [`train_shape`] hidden units →
/// 10) with large mini-batches, so nearly all of the round's wall time is
/// spent inside the local-SGD forward/backward kernels rather than in
/// dispatch, aggregation or evaluation. This is the row the compute-kernel
/// roadmap work (blocked GEMM, fused layers, activation arena) is judged
/// against; besides the standard keys it reports `samples_per_sec` and
/// `steps_per_sec` — SGD-step throughput derived from the run history
/// (every client holds exactly `samples_per_client` samples, so the step
/// count per local epoch is `ceil(samples_per_client / batch)`).
pub fn run_train_scenario(scale: Scale, rounds: usize) -> TensorResult<Value> {
    const SEED: u64 = 7331;
    let (num_clients, samples_per_client, hidden_dim, batch) = train_shape(scale);
    let config = FedConfig {
        num_clients,
        participation: Participation::Fraction(1.0),
        local_epochs: TRAIN_EPOCHS,
        system_heterogeneity: false,
        batch_size: BatchSize::Size(batch),
        local_learning_rate: 0.05,
        model: ModelSpec::Mlp {
            input_dim: 784,
            hidden_dim,
            num_classes: 10,
        },
        seed: SEED,
        eval_subset: usize::MAX,
    };
    let (train, test) =
        SyntheticDataset::Mnist.generate(num_clients * samples_per_client, 200, SEED);
    let partition = DataDistribution::Iid.partition(&train, num_clients, SEED);
    let mut engine = RoundEngine::new(
        config,
        train,
        test,
        partition,
        FedAdmm::paper_default(),
        SyncRounds,
    )?
    .eval_subset(0.25)
    .with_telemetry(Box::new(Recorder::new()));

    let start = Instant::now();
    engine.run_rounds(rounds)?;
    let wall_seconds = start.elapsed().as_secs_f64();
    let final_accuracy = engine.history().final_accuracy();
    let telemetry = engine.take_telemetry();
    let history = engine.into_history();
    let rec = telemetry
        .as_any()
        .and_then(|a| a.downcast_ref::<Recorder>())
        .expect("scenario telemetry is a Recorder");

    let (upload_bytes, wire_bytes, dense_wire_ratio) = upload_fields(rec);
    let broadcast_bytes = counter(rec, names::BROADCAST_FLOATS_TOTAL) * 4;
    let staleness_max = history.records.iter().map(|r| r.staleness_max).max();
    let (dispatch_chunks, dispatch_steals, dispatch_imbalance) = dispatch_fields(rec);
    let total_samples: usize = history.records.iter().map(|r| r.samples_processed).sum();
    let steps_per_epoch = samples_per_client.div_ceil(batch);
    let total_steps = history.total_local_epochs() * steps_per_epoch;
    Ok(json!({
        "name": format!("train-bound/mlp-784x{hidden_dim}x10"),
        "scheduler": SchedulerKind::Sync.label(),
        "distribution": DataDistribution::Iid.label(),
        "num_clients": num_clients,
        "hidden_dim": hidden_dim,
        "batch_size": batch,
        "local_epochs": TRAIN_EPOCHS,
        "rounds": rounds,
        "wall_seconds": wall_seconds,
        "rounds_per_sec": rounds as f64 / wall_seconds.max(1e-12),
        "samples_per_sec": total_samples as f64 / wall_seconds.max(1e-12),
        "steps_per_sec": total_steps as f64 / wall_seconds.max(1e-12),
        "final_accuracy": final_accuracy as f64,
        "client_updates": counter(rec, names::CLIENT_UPDATES_TOTAL),
        "upload_bytes": upload_bytes,
        "broadcast_bytes": broadcast_bytes,
        "wire_bytes": wire_bytes,
        "dense_wire_ratio": dense_wire_ratio,
        "bytes_moved": wire_bytes + broadcast_bytes,
        "staleness": hist_json(rec.metrics().histogram_by_name(names::STALENESS_ROUNDS)),
        "staleness_max_recorded": staleness_max.unwrap_or(0),
        "client_compute_seconds": hist_json(rec.metrics().histogram_by_name(names::CLIENT_COMPUTE_SECONDS)),
        "aggregate_seconds": hist_json(rec.metrics().histogram_by_name(names::AGGREGATE_SECONDS)),
        "eval_seconds": hist_json(rec.metrics().histogram_by_name(names::EVAL_SECONDS)),
        "dispatch_chunks": dispatch_chunks,
        "dispatch_steals": dispatch_steals,
        "dispatch_imbalance": dispatch_imbalance,
    }))
}

/// Client population of the spill-store scenario at each scale: a
/// seconds-scale stand-in for CI at `Smoke`, the full million-client
/// population at `Scaled` and `Paper`.
pub fn spill_population(scale: Scale) -> usize {
    match scale {
        Scale::Smoke => 10_000,
        Scale::Scaled | Scale::Paper => 1_000_000,
    }
}

/// Label-sorted shared-index partition (the `scale_smoke` shape): clients
/// own overlapping windows of the label-ordered sample list, so every
/// client sees a skewed non-IID slice without the dataset growing with the
/// population.
fn shared_non_iid_partition(
    train: &Dataset,
    num_clients: usize,
    samples_per_client: usize,
) -> Partition {
    let mut order: Vec<usize> = (0..train.len()).collect();
    order.sort_by_key(|&i| train.label(i));
    let span = train.len() - samples_per_client;
    Partition::new(
        (0..num_clients)
            .map(|c| {
                let start = (c * 17) % span;
                order[start..start + samples_per_client].to_vec()
            })
            .collect(),
    )
}

/// Runs the large-population spill-store scenario: [`spill_population`]
/// clients over a label-skewed shared dataset, a ~1 000-client cohort per
/// round, the spill-to-disk store under a client-state budget too small to
/// hold one cohort resident, and hierarchical (per-shard tree)
/// aggregation. The row carries the standard scenario keys plus the store
/// counters and the process peak RSS — this is the number the
/// million-client roadmap item is judged against.
pub fn run_spill_scenario(scale: Scale, rounds: usize) -> TensorResult<Value> {
    const SAMPLES_PER_CLIENT: usize = 20;
    let num_clients = spill_population(scale);
    // ~1% cohorts at smoke scale, capped at the paper-scale 1 000-client
    // cohort for the million-client run.
    let cohort = (num_clients / 100).clamp(1, 1_000);
    // Small enough that a single cohort (~94 KB of state per client at
    // d = 7 850) overflows it, so every round exercises spill + reload.
    let budget_bytes: u64 = match scale {
        Scale::Smoke => 8 * 1024 * 1024,
        Scale::Scaled | Scale::Paper => 64 * 1024 * 1024,
    };
    let config = FedConfig {
        num_clients,
        participation: Participation::Count(cohort),
        local_epochs: 1,
        system_heterogeneity: false,
        batch_size: BatchSize::Size(20),
        local_learning_rate: 0.05,
        model: ModelSpec::Logistic {
            input_dim: 784,
            num_classes: 10,
        },
        seed: 2024,
        eval_subset: usize::MAX,
    };
    let (train, test) = SyntheticDataset::Mnist.generate(2_000, 400, 2024);
    let partition = shared_non_iid_partition(&train, num_clients, SAMPLES_PER_CLIENT);
    let store = StoreConfig::Spill {
        num_shards: 512,
        budget_bytes,
        dir: None,
    };
    let mut engine = RoundEngine::new_with_store(
        config,
        train,
        test,
        partition,
        FedAdmm::paper_default(),
        SyncRounds,
        &store,
    )?
    .with_aggregation(AggregationMode::Hierarchical)
    .eval_subset(0.25)
    .with_telemetry(Box::new(Recorder::new()));

    let start = Instant::now();
    engine.run_rounds(rounds)?;
    let wall_seconds = start.elapsed().as_secs_f64();
    let final_accuracy = engine.history().final_accuracy();
    let stats = engine.store().stats();
    let resident_bytes = engine.store().resident_bytes();
    let telemetry = engine.take_telemetry();
    let history = engine.into_history();
    let rec = telemetry
        .as_any()
        .and_then(|a| a.downcast_ref::<Recorder>())
        .expect("scenario telemetry is a Recorder");

    let (upload_bytes, wire_bytes, dense_wire_ratio) = upload_fields(rec);
    let broadcast_bytes = counter(rec, names::BROADCAST_FLOATS_TOTAL) * 4;
    let staleness_max = history.records.iter().map(|r| r.staleness_max).max();
    let (dispatch_chunks, dispatch_steals, dispatch_imbalance) = dispatch_fields(rec);
    Ok(json!({
        "name": format!("spill/non-IID/{num_clients}-clients"),
        "scheduler": SchedulerKind::Sync.label(),
        "distribution": DataDistribution::NonIidShards.label(),
        "store": "spill",
        "num_clients": num_clients,
        "budget_bytes": budget_bytes,
        "rounds": rounds,
        "wall_seconds": wall_seconds,
        "rounds_per_sec": rounds as f64 / wall_seconds.max(1e-12),
        "final_accuracy": final_accuracy as f64,
        "client_updates": counter(rec, names::CLIENT_UPDATES_TOTAL),
        "upload_bytes": upload_bytes,
        "broadcast_bytes": broadcast_bytes,
        "wire_bytes": wire_bytes,
        "dense_wire_ratio": dense_wire_ratio,
        "bytes_moved": wire_bytes + broadcast_bytes,
        "staleness": hist_json(rec.metrics().histogram_by_name(names::STALENESS_ROUNDS)),
        "staleness_max_recorded": staleness_max.unwrap_or(0),
        "client_compute_seconds": hist_json(rec.metrics().histogram_by_name(names::CLIENT_COMPUTE_SECONDS)),
        "aggregate_seconds": hist_json(rec.metrics().histogram_by_name(names::AGGREGATE_SECONDS)),
        "eval_seconds": hist_json(rec.metrics().histogram_by_name(names::EVAL_SECONDS)),
        "dispatch_chunks": dispatch_chunks,
        "dispatch_steals": dispatch_steals,
        "dispatch_imbalance": dispatch_imbalance,
        "shard_folds": counter(rec, names::SHARD_FOLDS_TOTAL),
        "store_materializations": stats.materializations,
        "store_spill_writes": stats.spill_writes,
        "store_spill_loads": stats.spill_loads,
        "store_evictions": stats.evictions,
        "store_resident_bytes": resident_bytes,
        "peak_rss_bytes": peak_rss_bytes().unwrap_or(0),
    }))
}

/// Measures hook overhead on the sync/IID scenario: the same seeded run
/// with the default no-op hook (twice — the rerun bounds timing noise) and
/// with a full [`Recorder`]. Percentages are relative to the first no-op
/// run; the no-op rerun delta is the noise floor the ≤ 2 % overhead claim
/// is judged against.
pub fn overhead_check(scale: Scale, rounds: usize) -> TensorResult<Value> {
    let setting = base_setting(DataDistribution::Iid, scale);
    let time_run = |telemetry: Option<Box<Recorder>>| -> TensorResult<f64> {
        let algorithm = FedAdmm::new(SUBSTRATE_RHO, ServerStepSize::Constant(1.0));
        let mut engine = setting.build_sim(algorithm)?;
        if let Some(rec) = telemetry {
            engine = engine.with_telemetry(rec);
        }
        let start = Instant::now();
        engine.run_rounds(rounds)?;
        Ok(start.elapsed().as_secs_f64())
    };
    let noop_a = time_run(None)?;
    let noop_b = time_run(None)?;
    let recorder = time_run(Some(Box::new(Recorder::new())))?;
    let pct = |t: f64| (t - noop_a) / noop_a.max(1e-12) * 100.0;
    Ok(json!({
        "rounds": rounds,
        "noop_seconds": noop_a,
        "noop_rerun_pct": pct(noop_b),
        "recorder_seconds": recorder,
        "recorder_pct": pct(recorder),
    }))
}

/// Builds the complete snapshot document for a scale.
pub fn build_snapshot(scale: Scale, rounds: usize) -> TensorResult<Value> {
    let mut scenarios = Vec::new();
    for spec in scenario_matrix() {
        scenarios.push((spec.name(), run_scenario(&spec, scale, rounds)?));
    }
    let spill = run_spill_scenario(scale, rounds)?;
    scenarios.push((spill["name"].as_str().unwrap_or("spill").to_string(), spill));
    let straggler = run_straggler_scenario(scale, rounds)?;
    scenarios.push((
        straggler["name"]
            .as_str()
            .unwrap_or("straggler")
            .to_string(),
        straggler,
    ));
    let wire = run_wire_scenario(scale, rounds)?;
    scenarios.push((wire["name"].as_str().unwrap_or("wire").to_string(), wire));
    let train = run_train_scenario(scale, rounds)?;
    scenarios.push((train["name"].as_str().unwrap_or("train").to_string(), train));
    let scenario_values: Vec<Value> = scenarios.into_iter().map(|(_, v)| v).collect();
    let overhead = overhead_check(scale, rounds)?;
    let dispatch_config = DispatchConfig::default();
    let created_unix = unix_now();
    let (y, m, d) = civil_from_unix(created_unix);
    Ok(json!({
        "schema_version": SCHEMA_VERSION,
        "created_unix": created_unix,
        "created_date": format!("{y:04}-{m:02}-{d:02}"),
        "git_sha": git_short_sha(),
        "scale": format!("{scale:?}").to_ascii_lowercase(),
        "rounds_per_scenario": rounds,
        "peak_rss_bytes": peak_rss_bytes(),
        "dispatch": {
            "workers": dispatch_config.resolved_workers(),
            // The work-stealing pool is the only schedule; the field stays
            // so committed snapshots and fresh ones share a schema.
            "mode": "steal",
        },
        "scenarios": Value::Array(scenario_values),
        "overhead": overhead,
    }))
}

/// Checks that `snapshot` matches the schema this binary writes.
pub fn validate_snapshot(snapshot: &Value) -> Result<(), String> {
    let version = snapshot["schema_version"]
        .as_u64()
        .ok_or("schema_version missing")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} != expected {SCHEMA_VERSION}"
        ));
    }
    snapshot["git_sha"].as_str().ok_or("git_sha missing")?;
    snapshot["created_date"]
        .as_str()
        .filter(|d| d.len() == 10)
        .ok_or("created_date missing or malformed")?;
    let scenarios = snapshot["scenarios"]
        .as_array()
        .ok_or("scenarios missing")?;
    if scenarios.is_empty() {
        return Err("scenarios array is empty".to_string());
    }
    for s in scenarios {
        let name = s["name"].as_str().ok_or("scenario name missing")?;
        for key in ["rounds_per_sec", "wall_seconds", "final_accuracy"] {
            s[key]
                .as_f64()
                .ok_or_else(|| format!("{name}: {key} missing"))?;
        }
        for key in [
            "upload_bytes",
            "broadcast_bytes",
            "wire_bytes",
            "bytes_moved",
            "rounds",
        ] {
            s[key]
                .as_u64()
                .ok_or_else(|| format!("{name}: {key} missing"))?;
        }
        s["dense_wire_ratio"]
            .as_f64()
            .ok_or_else(|| format!("{name}: dense_wire_ratio missing"))?;
        for key in ["p50", "p90", "p99", "max"] {
            s["staleness"][key]
                .as_f64()
                .ok_or_else(|| format!("{name}: staleness.{key} missing"))?;
        }
        for key in ["dispatch_chunks", "dispatch_steals"] {
            s[key]
                .as_u64()
                .ok_or_else(|| format!("{name}: {key} missing"))?;
        }
        s["dispatch_imbalance"]
            .as_f64()
            .ok_or_else(|| format!("{name}: dispatch_imbalance missing"))?;
    }
    let straggler = scenarios
        .iter()
        .find(|s| {
            s["name"]
                .as_str()
                .is_some_and(|n| n.starts_with("straggler-skew/"))
        })
        .ok_or("no straggler-skew scenario present")?;
    straggler["straggler_epochs"]
        .as_u64()
        .filter(|&e| e > 1)
        .ok_or("straggler scenario: straggler_epochs missing or trivial")?;
    let train = scenarios
        .iter()
        .find(|s| {
            s["name"]
                .as_str()
                .is_some_and(|n| n.starts_with("train-bound/"))
        })
        .ok_or("no train-bound scenario present")?;
    for key in ["samples_per_sec", "steps_per_sec"] {
        train[key]
            .as_f64()
            .filter(|v| *v > 0.0)
            .ok_or_else(|| format!("train-bound scenario: {key} missing or zero"))?;
    }
    train["hidden_dim"]
        .as_u64()
        .filter(|&h| h >= 64)
        .ok_or("train-bound scenario: hidden_dim missing or not train-bound")?;
    let wire = scenarios
        .iter()
        .find(|s| s["name"].as_str().is_some_and(|n| n.starts_with("wire/")))
        .ok_or("no wire scenario present")?;
    wire["quantizer_bits"]
        .as_u64()
        .filter(|&b| (1..32).contains(&b))
        .ok_or("wire scenario: quantizer_bits missing or out of range")?;
    for key in [
        "plain_rounds_per_sec",
        "wire_overhead_pct",
        "dense_wire_ratio",
    ] {
        wire[key]
            .as_f64()
            .ok_or_else(|| format!("wire scenario: {key} missing"))?;
    }
    let ratio = wire["dense_wire_ratio"].as_f64().unwrap_or(0.0);
    if ratio < 2.0 {
        return Err(format!(
            "wire scenario dense/wire ratio {ratio:.2} — compression not engaged"
        ));
    }
    snapshot["dispatch"]["workers"]
        .as_u64()
        .ok_or("dispatch.workers missing")?;
    snapshot["dispatch"]["mode"]
        .as_str()
        .ok_or("dispatch.mode missing")?;
    let spill = scenarios
        .iter()
        .find(|s| s["store"].as_str() == Some("spill"))
        .ok_or("no spill-store scenario present")?;
    let clients = spill["num_clients"]
        .as_u64()
        .ok_or("spill scenario: num_clients missing")?;
    if clients < 10_000 {
        return Err(format!(
            "spill scenario covers only {clients} clients (>= 10000 required)"
        ));
    }
    for key in [
        "store_materializations",
        "store_spill_writes",
        "store_resident_bytes",
        "peak_rss_bytes",
        "budget_bytes",
    ] {
        spill[key]
            .as_u64()
            .ok_or_else(|| format!("spill scenario: {key} missing"))?;
    }
    for key in ["noop_rerun_pct", "recorder_pct"] {
        snapshot["overhead"][key]
            .as_f64()
            .ok_or_else(|| format!("overhead.{key} missing"))?;
    }
    Ok(())
}

/// Renders a per-scenario comparison of two snapshots (`b` relative to `a`).
pub fn diff_snapshots(a: &Value, b: &Value) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "snapshot diff: {} ({}) -> {} ({})\n",
        a["git_sha"].as_str().unwrap_or("?"),
        a["created_date"].as_str().unwrap_or("?"),
        b["git_sha"].as_str().unwrap_or("?"),
        b["created_date"].as_str().unwrap_or("?"),
    ));
    let empty = Vec::new();
    let scenarios_a = a["scenarios"].as_array().unwrap_or(&empty);
    let scenarios_b = b["scenarios"].as_array().unwrap_or(&empty);
    for sa in scenarios_a {
        let name = sa["name"].as_str().unwrap_or("?");
        let Some(sb) = scenarios_b
            .iter()
            .find(|s| s["name"].as_str() == Some(name))
        else {
            out.push_str(&format!("  {name:24} only in first snapshot\n"));
            continue;
        };
        let rps_a = sa["rounds_per_sec"].as_f64().unwrap_or(0.0);
        let rps_b = sb["rounds_per_sec"].as_f64().unwrap_or(0.0);
        let delta = if rps_a > 0.0 {
            (rps_b - rps_a) / rps_a * 100.0
        } else {
            0.0
        };
        out.push_str(&format!(
            "  {name:24} {rps_a:8.2} -> {rps_b:8.2} rounds/s ({delta:+6.1}%)  bytes {} -> {}\n",
            sa["bytes_moved"].as_u64().unwrap_or(0),
            sb["bytes_moved"].as_u64().unwrap_or(0),
        ));
    }
    let rss = |v: &Value| v["peak_rss_bytes"].as_u64().unwrap_or(0);
    out.push_str(&format!("  peak RSS {} -> {} bytes\n", rss(a), rss(b)));
    out
}

/// The file name a snapshot is written under: `BENCH_<date>_<sha>.json`.
pub fn snapshot_filename(snapshot: &Value) -> String {
    format!(
        "BENCH_{}_{}.json",
        snapshot["created_date"].as_str().unwrap_or("unknown"),
        snapshot["git_sha"].as_str().unwrap_or("nogit"),
    )
}

/// The workspace root (two levels above this crate's manifest).
pub fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels below the workspace root")
        .to_path_buf()
}

fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Converts a unix timestamp to a `(year, month, day)` civil date (UTC) —
/// the standard days-from-epoch algorithm, hand-rolled to stay offline.
pub fn civil_from_unix(secs: u64) -> (i64, u32, u32) {
    let days = (secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let month = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    let year = yoe + era * 400 + i64::from(month <= 2);
    (year, month, day)
}

/// Short commit hash of the checked-out revision, read straight from
/// `.git` (no subprocess); `"nogit"` when unavailable.
pub fn git_short_sha() -> String {
    let git = repo_root().join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "nogit".to_string(),
    };
    let sha = if let Some(reference) = head.strip_prefix("ref: ") {
        let reference = reference.trim();
        match std::fs::read_to_string(git.join(reference)) {
            Ok(s) => s.trim().to_string(),
            // Loose ref absent — fall back to packed-refs.
            Err(_) => std::fs::read_to_string(git.join("packed-refs"))
                .ok()
                .and_then(|packed| {
                    packed.lines().find_map(|line| {
                        line.strip_suffix(reference)
                            .map(|sha| sha.trim().to_string())
                    })
                })
                .unwrap_or_default(),
        }
    } else {
        head
    };
    if sha.len() >= 7 && sha.bytes().all(|b| b.is_ascii_hexdigit()) {
        sha[..7].to_string()
    } else {
        "nogit".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_date_conversion_matches_known_dates() {
        assert_eq!(civil_from_unix(0), (1970, 1, 1));
        assert_eq!(civil_from_unix(86_399), (1970, 1, 1));
        assert_eq!(civil_from_unix(86_400), (1970, 1, 2));
        // 2000-02-29 (leap day): 951_782_400.
        assert_eq!(civil_from_unix(951_782_400), (2000, 2, 29));
        // 2026-08-08: 1_786_147_200.
        assert_eq!(civil_from_unix(1_786_147_200), (2026, 8, 8));
    }

    #[test]
    fn matrix_covers_four_scenarios() {
        let names: Vec<String> = scenario_matrix().iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 4);
        assert!(names.iter().any(|n| n == "sync/IID"));
        assert!(names.iter().any(|n| n.starts_with("semi-async/")));
    }

    #[test]
    fn spill_population_scales_to_a_million_clients() {
        assert_eq!(spill_population(Scale::Smoke), 10_000);
        assert_eq!(spill_population(Scale::Scaled), 1_000_000);
        assert_eq!(spill_population(Scale::Paper), 1_000_000);
    }

    #[test]
    fn git_sha_is_short_hex_or_nogit() {
        let sha = git_short_sha();
        assert!(
            sha == "nogit" || (sha.len() == 7 && sha.bytes().all(|b| b.is_ascii_hexdigit())),
            "unexpected sha {sha:?}"
        );
    }

    #[test]
    fn snapshot_builds_and_validates_at_tiny_scale() {
        let snapshot = build_snapshot(Scale::Smoke, 2).unwrap();
        validate_snapshot(&snapshot).expect("fresh snapshot validates");
        let name = snapshot_filename(&snapshot);
        assert!(name.starts_with("BENCH_") && name.ends_with(".json"));
        // Round-trips through the serializer.
        let text = serde_json::to_string_pretty(&snapshot).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        validate_snapshot(&back).unwrap();
        // The semi-async scenarios must actually observe staleness events.
        let scenarios = back["scenarios"].as_array().unwrap();
        assert_eq!(
            scenarios.len(),
            8,
            "4 matrix cells + the spill, straggler, wire and train-bound scenarios"
        );
        let semi = scenarios
            .iter()
            .find(|s| s["name"].as_str() == Some("semi-async/IID"))
            .unwrap();
        assert!(semi["staleness"]["count"].as_u64().unwrap() > 0);
        // And all scenarios moved bytes in both directions.
        for s in scenarios {
            assert!(s["upload_bytes"].as_u64().unwrap() > 0);
            assert!(s["broadcast_bytes"].as_u64().unwrap() > 0);
        }
        // The spill scenario worked lazily over the large population.
        let spill = scenarios
            .iter()
            .find(|s| s["store"].as_str() == Some("spill"))
            .unwrap();
        assert_eq!(spill["num_clients"].as_u64().unwrap(), 10_000);
        assert!(spill["store_materializations"].as_u64().unwrap() > 0);
        assert!(spill["shard_folds"].as_u64().unwrap() > 0);
        // The straggler-skew scenario exercises the dispatch pool under
        // telemetry, so its chunk counter must be live.
        let straggler = scenarios
            .iter()
            .find(|s| {
                s["name"]
                    .as_str()
                    .is_some_and(|n| n.starts_with("straggler-skew/"))
            })
            .unwrap();
        assert_eq!(straggler["num_clients"].as_u64().unwrap(), 96);
        assert!(straggler["dispatch_chunks"].as_u64().unwrap() > 0);
        assert!(straggler["dispatch_imbalance"].as_f64().unwrap() >= 1.0);
        assert!(back["dispatch"]["workers"].as_u64().unwrap() >= 1);
        // The wire scenario actually compressed its uploads (~4× at 8 bits)
        // and reports both legs of the overhead comparison.
        let wire = scenarios
            .iter()
            .find(|s| s["name"].as_str().is_some_and(|n| n.starts_with("wire/")))
            .unwrap();
        let ratio = wire["dense_wire_ratio"].as_f64().unwrap();
        assert!((3.5..4.5).contains(&ratio), "8-bit ratio was {ratio}");
        assert!(wire["wire_bytes"].as_u64().unwrap() < wire["upload_bytes"].as_u64().unwrap());
        assert!(wire["plain_rounds_per_sec"].as_f64().unwrap() > 0.0);
        assert!(wire["wire_overhead_pct"].as_f64().unwrap().is_finite());
        // The train-bound scenario reports live SGD-step throughput and
        // stays consistent with its own step accounting: steps/sec exceeds
        // rounds/sec by the per-round step count.
        let train = scenarios
            .iter()
            .find(|s| {
                s["name"]
                    .as_str()
                    .is_some_and(|n| n.starts_with("train-bound/"))
            })
            .unwrap();
        assert!(train["samples_per_sec"].as_f64().unwrap() > 0.0);
        let steps_per_sec = train["steps_per_sec"].as_f64().unwrap();
        let rounds_per_sec = train["rounds_per_sec"].as_f64().unwrap();
        assert!(steps_per_sec > rounds_per_sec);
        // Every dense scenario still reports wire bytes — equal to the
        // classical 4·floats accounting when the path is off.
        for s in scenarios.iter().filter(|s| s["dense_wire_ratio"] == 1.0) {
            assert_eq!(
                s["wire_bytes"].as_u64().unwrap(),
                s["upload_bytes"].as_u64().unwrap()
            );
        }
    }

    #[test]
    fn validation_rejects_wrong_schema_and_diff_renders() {
        let mut snapshot = build_snapshot(Scale::Smoke, 1).unwrap();
        let other = snapshot.clone();
        let text = diff_snapshots(&snapshot, &other);
        assert!(text.contains("rounds/s"));
        assert!(text.contains("sync/IID"));
        if let Value::Object(fields) = &mut snapshot {
            for (k, v) in fields.iter_mut() {
                if k == "schema_version" {
                    *v = json!(999u64);
                }
            }
        }
        assert!(validate_snapshot(&snapshot).is_err());
        assert!(validate_snapshot(&json!({"not": "a snapshot"})).is_err());
    }
}
