//! The [`Telemetry`] hook trait the simulation engine drives, its no-op
//! default, and the full [`Recorder`] implementation.
//!
//! The engine calls these hooks at fixed points of every round — snapshot
//! downloads, per-client local updates (timed on the scoped worker threads),
//! uploads, the fused server-aggregation pass, arrival events and round
//! close. [`NoTelemetry`] implements every hook as an empty default and
//! reports `enabled() == false`, which the engine uses to skip timing
//! altogether — the uninstrumented hot path stays allocation-free and
//! byte-identical to the pre-telemetry engine. [`Recorder`] turns the same
//! hooks into tracer spans and registry metrics.

use crate::metrics::{
    exponential_buckets, linear_buckets, CounterId, GaugeId, HistogramId, MetricsRegistry,
};
use crate::process::peak_rss_bytes;
use crate::trace::{SpanId, Tracer};
use serde_json::Value;
use std::any::Any;

/// Everything the engine knows about a round at close time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundSummary {
    /// Round index (0-based).
    pub round: usize,
    /// Wall-clock (synchronous schedules) or virtual (event-driven
    /// schedules) duration of the round in seconds.
    pub wall_seconds: f64,
    /// Number of client updates aggregated.
    pub num_selected: usize,
    /// Floats uploaded by clients for this round.
    pub upload_floats: usize,
    /// Test accuracy after the round's server update.
    pub test_accuracy: f64,
    /// Mean test loss after the round's server update.
    pub test_loss: f64,
    /// Mean staleness of the arrivals folded into this round (0 for
    /// synchronous schedules).
    pub staleness_mean: f64,
    /// Maximum staleness of the arrivals folded into this round.
    pub staleness_max: usize,
}

/// What one parallel dispatch batch looked like to the work-stealing pool.
///
/// Emitted once per [`Telemetry::on_dispatch`] call, after the batch's
/// messages have been collected. `busy_seconds` is indexed by worker and
/// only populated when [`Telemetry::enabled`] returned true for the batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DispatchSummary<'a> {
    /// Jobs (client updates) executed in the batch.
    pub jobs: u64,
    /// Workers the pool ran the batch on (1 = the serial inline path).
    pub workers: usize,
    /// Chunk size jobs were claimed in.
    pub chunk_size: usize,
    /// Chunks claimed from the shared cursor across all workers.
    pub chunks: u64,
    /// Chunk claims beyond each worker's first — work that static
    /// partitioning would have left queued behind a straggler.
    pub steals: u64,
    /// Per-worker busy time in seconds (empty when timing was disabled).
    pub busy_seconds: &'a [f64],
}

/// Observability hooks threaded through the engine (see [module docs](self)).
///
/// Every method has an empty default body, so implementors override only
/// what they consume. Implementations must be `Send`: per-client timings are
/// *measured* on the dispatch worker threads but always *reported* from the
/// engine thread, so hooks themselves never race.
pub trait Telemetry: Send {
    /// Whether the expensive instrumentation (per-client `Instant` reads,
    /// span bookkeeping) should run. The engine consults this once per
    /// dispatch batch; `false` keeps the hot path identical to an
    /// uninstrumented build.
    fn enabled(&self) -> bool {
        false
    }

    /// A scheduler tick is starting (`scheduler` is [`Scheduler::name`]-style
    /// static label).
    fn on_tick_start(&mut self, scheduler: &'static str, round: usize) {
        let _ = (scheduler, round);
    }

    /// The tick that started with the same arguments has finished.
    fn on_tick_end(&mut self, scheduler: &'static str, round: usize) {
        let _ = (scheduler, round);
    }

    /// A named phase of a tick (e.g. `"dispatch"`, `"aggregate"`) starts.
    fn on_phase_start(&mut self, phase: &'static str, round: usize) {
        let _ = (phase, round);
    }

    /// The named phase ends.
    fn on_phase_end(&mut self, phase: &'static str, round: usize) {
        let _ = (phase, round);
    }

    /// A client downloaded a model snapshot of `floats` parameters.
    fn on_download(&mut self, round: usize, client: usize, floats: usize) {
        let _ = (round, client, floats);
    }

    /// A client finished its local update. `seconds` is measured on the
    /// worker thread (0 when `enabled()` is false).
    fn on_client_update(
        &mut self,
        round: usize,
        client: usize,
        seconds: f64,
        epochs: usize,
        samples: usize,
    ) {
        let _ = (round, client, seconds, epochs, samples);
    }

    /// Clients uploaded `floats` parameters to the server.
    fn on_upload(&mut self, floats: usize) {
        let _ = floats;
    }

    /// Clients uploaded `bytes` over the wire (the quantized size when the
    /// engine's wire path is on, the dense `4 · floats` size otherwise).
    fn on_wire_upload(&mut self, bytes: usize) {
        let _ = bytes;
    }

    /// The server folded `num_messages` payloads into θ in `seconds`
    /// (the fused single-pass aggregation).
    fn on_aggregate(&mut self, round: usize, num_messages: usize, seconds: f64) {
        let _ = (round, num_messages, seconds);
    }

    /// The global model was evaluated on the test set in `seconds`.
    fn on_eval(&mut self, round: usize, seconds: f64) {
        let _ = (round, seconds);
    }

    /// An update arrived at the server with the given staleness and was
    /// applied with `weight` (0 = dropped).
    fn on_arrival(&mut self, client: usize, staleness: usize, weight: f32) {
        let _ = (client, staleness, weight);
    }

    /// A round closed; `summary` carries everything the history records.
    fn on_round_end(&mut self, summary: &RoundSummary) {
        let _ = summary;
    }

    /// A named scalar diagnostic (e.g. the optimality gap `V_t`) was
    /// computed for the current round.
    fn on_gauge(&mut self, name: &'static str, value: f64) {
        let _ = (name, value);
    }

    /// The client-state store's cumulative operation counters at round
    /// close. Values are monotone totals since the store was built;
    /// implementations that keep counters should diff against the previous
    /// report (as [`Recorder`] does).
    fn on_store_stats(
        &mut self,
        materializations: u64,
        spill_writes: u64,
        spill_loads: u64,
        evictions: u64,
    ) {
        let _ = (materializations, spill_writes, spill_loads, evictions);
    }

    /// One per-shard partial fold of the hierarchical server aggregation
    /// finished: `messages` payloads were folded for `shard` in `seconds`.
    fn on_shard_fold(&mut self, round: usize, shard: usize, messages: usize, seconds: f64) {
        let _ = (round, shard, messages, seconds);
    }

    /// A parallel dispatch batch finished; `summary` carries the pool's
    /// chunk/steal counters and per-worker busy times.
    fn on_dispatch(&mut self, round: usize, summary: &DispatchSummary<'_>) {
        let _ = (round, summary);
    }

    /// Downcast support so callers can recover a concrete implementation
    /// (e.g. a [`Recorder`]) from a `dyn Telemetry`.
    fn as_any(&self) -> Option<&dyn Any> {
        None
    }

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        None
    }
}

/// The default hook: does nothing, reports `enabled() == false`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoTelemetry;

impl Telemetry for NoTelemetry {}

/// Metric names the [`Recorder`] registers (public so tests and exporters
/// can look them up by name).
pub mod names {
    /// Counter: rounds completed.
    pub const ROUNDS_TOTAL: &str = "rounds_total";
    /// Counter: client local updates completed.
    pub const CLIENT_UPDATES_TOTAL: &str = "client_updates_total";
    /// Counter: server aggregation passes.
    pub const AGGREGATIONS_TOTAL: &str = "aggregations_total";
    /// Counter: arrivals dropped by staleness policies (weight 0).
    pub const DROPPED_ARRIVALS_TOTAL: &str = "dropped_arrivals_total";
    /// Counter: floats uploaded client → server.
    pub const UPLOAD_FLOATS_TOTAL: &str = "upload_floats_total";
    /// Counter: true bytes uploaded client → server (quantized wire size
    /// when the engine's wire path is on, dense `4 · floats` otherwise).
    pub const WIRE_BYTES_TOTAL: &str = "wire_bytes_total";
    /// Counter: floats downloaded server → client (θ snapshots).
    pub const BROADCAST_FLOATS_TOTAL: &str = "broadcast_floats_total";
    /// Counter: local epochs run.
    pub const LOCAL_EPOCHS_TOTAL: &str = "local_epochs_total";
    /// Counter: training samples processed.
    pub const SAMPLES_TOTAL: &str = "samples_total";
    /// Histogram: round wall time in seconds.
    pub const ROUND_WALL_SECONDS: &str = "round_wall_seconds";
    /// Histogram: per-client local-update compute seconds.
    pub const CLIENT_COMPUTE_SECONDS: &str = "client_compute_seconds";
    /// Histogram: fused server-aggregation pass seconds.
    pub const AGGREGATE_SECONDS: &str = "aggregate_seconds";
    /// Histogram: global-model evaluation seconds.
    pub const EVAL_SECONDS: &str = "eval_seconds";
    /// Histogram: staleness (rounds) of applied/dropped arrivals.
    pub const STALENESS_ROUNDS: &str = "staleness_rounds";
    /// Gauge: latest test accuracy.
    pub const TEST_ACCURACY: &str = "test_accuracy";
    /// Gauge: latest test loss.
    pub const TEST_LOSS: &str = "test_loss";
    /// Gauge: peak resident set size in bytes (`VmHWM`).
    pub const PEAK_RSS_BYTES: &str = "peak_rss_bytes";
    /// Gauge: bytes of client state resident in the store.
    pub const STORE_RESIDENT_BYTES: &str = "store_resident_bytes";
    /// Counter: client states materialized lazily by the store.
    pub const STORE_MATERIALIZATIONS_TOTAL: &str = "store_materializations_total";
    /// Counter: shards spilled to disk by the store.
    pub const STORE_SPILL_WRITES_TOTAL: &str = "store_spill_writes_total";
    /// Counter: shards loaded back from disk by the store.
    pub const STORE_SPILL_LOADS_TOTAL: &str = "store_spill_loads_total";
    /// Counter: shard evictions performed by the store's budget enforcement.
    pub const STORE_EVICTIONS_TOTAL: &str = "store_evictions_total";
    /// Counter: per-shard partial folds of the hierarchical aggregation.
    pub const SHARD_FOLDS_TOTAL: &str = "shard_folds_total";
    /// Histogram: per-shard partial-fold seconds.
    pub const SHARD_FOLD_SECONDS: &str = "shard_fold_seconds";
    /// Counter: chunks claimed from the dispatch pool's shared cursor.
    pub const DISPATCH_CHUNKS_TOTAL: &str = "dispatch_chunks_total";
    /// Counter: chunk claims beyond each worker's first (stolen work).
    pub const DISPATCH_STEALS_TOTAL: &str = "dispatch_steals_total";
    /// Histogram: per-worker busy seconds within one dispatch batch.
    pub const WORKER_BUSY_SECONDS: &str = "worker_busy_seconds";
    /// Gauge: max/mean per-worker busy time of the latest dispatch batch
    /// (1.0 = perfectly balanced).
    pub const DISPATCH_IMBALANCE: &str = "dispatch_imbalance";
}

/// The full-fat hook: every engine callback becomes tracer spans and
/// registry metrics, exportable as JSONL / JSON through the shared
/// vendored serializer.
#[derive(Debug)]
pub struct Recorder {
    tracer: Tracer,
    metrics: MetricsRegistry,
    c_rounds: CounterId,
    c_client_updates: CounterId,
    c_aggregations: CounterId,
    c_dropped: CounterId,
    c_upload: CounterId,
    c_wire_bytes: CounterId,
    c_broadcast: CounterId,
    c_epochs: CounterId,
    c_samples: CounterId,
    h_round_wall: HistogramId,
    h_client_compute: HistogramId,
    h_aggregate: HistogramId,
    h_eval: HistogramId,
    h_staleness: HistogramId,
    g_accuracy: GaugeId,
    g_loss: GaugeId,
    g_peak_rss: GaugeId,
    c_store_materializations: CounterId,
    c_store_spill_writes: CounterId,
    c_store_spill_loads: CounterId,
    c_store_evictions: CounterId,
    c_shard_folds: CounterId,
    h_shard_fold: HistogramId,
    c_dispatch_chunks: CounterId,
    c_dispatch_steals: CounterId,
    h_worker_busy: HistogramId,
    g_dispatch_imbalance: GaugeId,
    /// Last monotone store totals seen by `on_store_stats`, so the counters
    /// can be incremented by the delta.
    last_store: [u64; 4],
    /// Open tick span (at most one at a time; ticks never nest).
    tick_span: Option<SpanId>,
    /// Open phase spans, innermost last.
    phase_spans: Vec<(SpanId, &'static str)>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// Creates a recorder with the default trace-ring capacity.
    pub fn new() -> Self {
        Recorder::with_trace_capacity(crate::trace::DEFAULT_TRACE_CAPACITY)
    }

    /// Creates a recorder whose trace ring keeps `capacity` records.
    pub fn with_trace_capacity(capacity: usize) -> Self {
        let mut metrics = MetricsRegistry::new();
        let seconds_grid = exponential_buckets(1e-5, 2.0, 30); // 10 µs … ~3 h
        let c_rounds = metrics.counter(names::ROUNDS_TOTAL);
        let c_client_updates = metrics.counter(names::CLIENT_UPDATES_TOTAL);
        let c_aggregations = metrics.counter(names::AGGREGATIONS_TOTAL);
        let c_dropped = metrics.counter(names::DROPPED_ARRIVALS_TOTAL);
        let c_upload = metrics.counter(names::UPLOAD_FLOATS_TOTAL);
        let c_wire_bytes = metrics.counter(names::WIRE_BYTES_TOTAL);
        let c_broadcast = metrics.counter(names::BROADCAST_FLOATS_TOTAL);
        let c_epochs = metrics.counter(names::LOCAL_EPOCHS_TOTAL);
        let c_samples = metrics.counter(names::SAMPLES_TOTAL);
        let h_round_wall = metrics.histogram(names::ROUND_WALL_SECONDS, seconds_grid.clone());
        let h_client_compute =
            metrics.histogram(names::CLIENT_COMPUTE_SECONDS, seconds_grid.clone());
        let h_aggregate = metrics.histogram(names::AGGREGATE_SECONDS, seconds_grid.clone());
        let h_eval = metrics.histogram(names::EVAL_SECONDS, seconds_grid.clone());
        let h_staleness = metrics.histogram(names::STALENESS_ROUNDS, linear_buckets(0.0, 1.0, 64));
        let g_accuracy = metrics.gauge(names::TEST_ACCURACY);
        let g_loss = metrics.gauge(names::TEST_LOSS);
        let g_peak_rss = metrics.gauge(names::PEAK_RSS_BYTES);
        let c_store_materializations = metrics.counter(names::STORE_MATERIALIZATIONS_TOTAL);
        let c_store_spill_writes = metrics.counter(names::STORE_SPILL_WRITES_TOTAL);
        let c_store_spill_loads = metrics.counter(names::STORE_SPILL_LOADS_TOTAL);
        let c_store_evictions = metrics.counter(names::STORE_EVICTIONS_TOTAL);
        let c_shard_folds = metrics.counter(names::SHARD_FOLDS_TOTAL);
        let h_shard_fold = metrics.histogram(names::SHARD_FOLD_SECONDS, seconds_grid.clone());
        let c_dispatch_chunks = metrics.counter(names::DISPATCH_CHUNKS_TOTAL);
        let c_dispatch_steals = metrics.counter(names::DISPATCH_STEALS_TOTAL);
        let h_worker_busy = metrics.histogram(names::WORKER_BUSY_SECONDS, seconds_grid);
        let g_dispatch_imbalance = metrics.gauge(names::DISPATCH_IMBALANCE);
        Recorder {
            tracer: Tracer::new(capacity),
            metrics,
            c_rounds,
            c_client_updates,
            c_aggregations,
            c_dropped,
            c_upload,
            c_wire_bytes,
            c_broadcast,
            c_epochs,
            c_samples,
            h_round_wall,
            h_client_compute,
            h_aggregate,
            h_eval,
            h_staleness,
            g_accuracy,
            g_loss,
            g_peak_rss,
            c_store_materializations,
            c_store_spill_writes,
            c_store_spill_loads,
            c_store_evictions,
            c_shard_folds,
            h_shard_fold,
            c_dispatch_chunks,
            c_dispatch_steals,
            h_worker_busy,
            g_dispatch_imbalance,
            last_store: [0; 4],
            tick_span: None,
            phase_spans: Vec::new(),
        }
    }

    /// Read access to the metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable access to the metrics registry (for custom instruments).
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Read access to the tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable access to the tracer (for user-level [`span!`](crate::span)s).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Exports the trace ring as JSON lines.
    pub fn trace_json_lines(&self) -> String {
        self.tracer.to_json_lines()
    }

    /// Refreshes the peak-RSS gauge and exports the metrics registry as one
    /// JSON object.
    pub fn metrics_json(&mut self) -> Value {
        if let Some(peak) = peak_rss_bytes() {
            self.metrics.set(self.g_peak_rss, peak as f64);
        }
        self.metrics.to_json()
    }
}

impl Telemetry for Recorder {
    fn enabled(&self) -> bool {
        true
    }

    fn on_tick_start(&mut self, scheduler: &'static str, round: usize) {
        self.tick_span = Some(self.tracer.start_with(scheduler, Some(round as u64), None));
    }

    fn on_tick_end(&mut self, _scheduler: &'static str, _round: usize) {
        if let Some(id) = self.tick_span.take() {
            self.tracer.end(id);
        }
    }

    fn on_phase_start(&mut self, phase: &'static str, round: usize) {
        let id = self.tracer.start_with(phase, Some(round as u64), None);
        self.phase_spans.push((id, phase));
    }

    fn on_phase_end(&mut self, phase: &'static str, _round: usize) {
        if let Some(pos) = self.phase_spans.iter().rposition(|(_, p)| *p == phase) {
            let (id, _) = self.phase_spans.remove(pos);
            self.tracer.end(id);
        }
    }

    fn on_download(&mut self, _round: usize, _client: usize, floats: usize) {
        self.metrics.inc(self.c_broadcast, floats as u64);
    }

    fn on_client_update(
        &mut self,
        round: usize,
        client: usize,
        seconds: f64,
        epochs: usize,
        samples: usize,
    ) {
        self.metrics.inc(self.c_client_updates, 1);
        self.metrics.inc(self.c_epochs, epochs as u64);
        self.metrics.inc(self.c_samples, samples as u64);
        self.metrics.observe(self.h_client_compute, seconds);
        self.tracer.complete(
            "local_update",
            seconds,
            Some(round as u64),
            Some(client as u64),
        );
    }

    fn on_upload(&mut self, floats: usize) {
        self.metrics.inc(self.c_upload, floats as u64);
    }

    fn on_wire_upload(&mut self, bytes: usize) {
        self.metrics.inc(self.c_wire_bytes, bytes as u64);
    }

    fn on_aggregate(&mut self, round: usize, num_messages: usize, seconds: f64) {
        let _ = num_messages;
        self.metrics.inc(self.c_aggregations, 1);
        self.metrics.observe(self.h_aggregate, seconds);
        self.tracer
            .complete("server_fold", seconds, Some(round as u64), None);
    }

    fn on_eval(&mut self, round: usize, seconds: f64) {
        self.metrics.observe(self.h_eval, seconds);
        self.tracer
            .complete("evaluate", seconds, Some(round as u64), None);
    }

    fn on_arrival(&mut self, client: usize, staleness: usize, weight: f32) {
        self.metrics.observe(self.h_staleness, staleness as f64);
        if weight <= 0.0 {
            self.metrics.inc(self.c_dropped, 1);
        }
        self.tracer.event("arrival", None, Some(client as u64));
    }

    fn on_round_end(&mut self, summary: &RoundSummary) {
        self.metrics.inc(self.c_rounds, 1);
        self.metrics
            .observe(self.h_round_wall, summary.wall_seconds);
        self.metrics.set(self.g_accuracy, summary.test_accuracy);
        self.metrics.set(self.g_loss, summary.test_loss);
        self.tracer
            .event("round_end", Some(summary.round as u64), None);
    }

    fn on_gauge(&mut self, name: &'static str, value: f64) {
        let id = self.metrics.gauge(name);
        self.metrics.set(id, value);
    }

    fn on_store_stats(
        &mut self,
        materializations: u64,
        spill_writes: u64,
        spill_loads: u64,
        evictions: u64,
    ) {
        // The store reports monotone totals; turn them into counter deltas.
        let totals = [materializations, spill_writes, spill_loads, evictions];
        let ids = [
            self.c_store_materializations,
            self.c_store_spill_writes,
            self.c_store_spill_loads,
            self.c_store_evictions,
        ];
        for ((total, last), id) in totals.iter().zip(self.last_store.iter_mut()).zip(ids) {
            self.metrics.inc(id, total.saturating_sub(*last));
            *last = *total;
        }
    }

    fn on_shard_fold(&mut self, round: usize, shard: usize, messages: usize, seconds: f64) {
        let _ = messages;
        self.metrics.inc(self.c_shard_folds, 1);
        self.metrics.observe(self.h_shard_fold, seconds);
        self.tracer.complete(
            "shard_fold",
            seconds,
            Some(round as u64),
            Some(shard as u64),
        );
    }

    fn on_dispatch(&mut self, round: usize, summary: &DispatchSummary<'_>) {
        self.metrics.inc(self.c_dispatch_chunks, summary.chunks);
        self.metrics.inc(self.c_dispatch_steals, summary.steals);
        let busy = summary.busy_seconds;
        if !busy.is_empty() {
            let mut max = 0.0f64;
            let mut sum = 0.0f64;
            for &b in busy {
                self.metrics.observe(self.h_worker_busy, b);
                sum += b;
                if b > max {
                    max = b;
                }
            }
            let mean = sum / busy.len() as f64;
            if mean > 0.0 {
                self.metrics.set(self.g_dispatch_imbalance, max / mean);
            }
        }
        self.tracer
            .event("dispatch_batch", Some(round as u64), None);
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(round: usize) -> RoundSummary {
        RoundSummary {
            round,
            wall_seconds: 0.25,
            num_selected: 3,
            upload_floats: 300,
            test_accuracy: 0.8,
            test_loss: 0.5,
            staleness_mean: 0.5,
            staleness_max: 2,
        }
    }

    #[test]
    fn noop_is_disabled_and_inert() {
        let mut t = NoTelemetry;
        assert!(!t.enabled());
        t.on_tick_start("sync-rounds", 0);
        t.on_client_update(0, 1, 0.0, 2, 30);
        t.on_round_end(&summary(0));
        t.on_tick_end("sync-rounds", 0);
        assert!(t.as_any().is_none());
    }

    #[test]
    fn recorder_accumulates_metrics_and_spans() {
        let mut r = Recorder::with_trace_capacity(64);
        assert!(r.enabled());
        r.on_tick_start("sync-rounds", 0);
        r.on_phase_start("dispatch", 0);
        r.on_download(0, 4, 100);
        r.on_client_update(0, 4, 0.01, 2, 30);
        r.on_phase_end("dispatch", 0);
        r.on_upload(100);
        r.on_wire_upload(108);
        r.on_aggregate(0, 1, 0.002);
        r.on_eval(0, 0.003);
        r.on_arrival(4, 2, 0.5);
        r.on_arrival(5, 9, 0.0);
        r.on_round_end(&summary(0));
        r.on_tick_end("sync-rounds", 0);
        r.on_gauge("optimality_gap", 12.5);

        let m = r.metrics();
        assert_eq!(m.counter_by_name(names::ROUNDS_TOTAL), Some(1));
        assert_eq!(m.counter_by_name(names::CLIENT_UPDATES_TOTAL), Some(1));
        assert_eq!(m.counter_by_name(names::UPLOAD_FLOATS_TOTAL), Some(100));
        assert_eq!(m.counter_by_name(names::WIRE_BYTES_TOTAL), Some(108));
        assert_eq!(m.counter_by_name(names::BROADCAST_FLOATS_TOTAL), Some(100));
        assert_eq!(m.counter_by_name(names::DROPPED_ARRIVALS_TOTAL), Some(1));
        assert_eq!(m.gauge_by_name(names::TEST_ACCURACY), Some(0.8));
        assert_eq!(m.gauge_by_name("optimality_gap"), Some(12.5));
        let staleness = m.histogram_by_name(names::STALENESS_ROUNDS).unwrap();
        assert_eq!(staleness.count(), 2);
        assert_eq!(staleness.max(), 9.0);

        // The tick span is the root; dispatch and local_update nest under it.
        let records = r.tracer().records();
        let tick = records.iter().find(|s| s.name == "sync-rounds").unwrap();
        let dispatch = records.iter().find(|s| s.name == "dispatch").unwrap();
        let local = records.iter().find(|s| s.name == "local_update").unwrap();
        assert_eq!(tick.parent, 0);
        assert_eq!(dispatch.parent, tick.id);
        assert_eq!(local.parent, dispatch.id);
        assert_eq!(local.client, Some(4));
    }

    #[test]
    fn recorder_diffs_store_totals_and_records_shard_folds() {
        let mut r = Recorder::with_trace_capacity(16);
        // The store reports monotone totals; the counters advance by deltas.
        r.on_store_stats(10, 2, 1, 3);
        r.on_store_stats(15, 2, 4, 5);
        let m = r.metrics();
        assert_eq!(
            m.counter_by_name(names::STORE_MATERIALIZATIONS_TOTAL),
            Some(15)
        );
        assert_eq!(m.counter_by_name(names::STORE_SPILL_WRITES_TOTAL), Some(2));
        assert_eq!(m.counter_by_name(names::STORE_SPILL_LOADS_TOTAL), Some(4));
        assert_eq!(m.counter_by_name(names::STORE_EVICTIONS_TOTAL), Some(5));

        r.on_shard_fold(3, 7, 12, 0.001);
        r.on_shard_fold(3, 8, 4, 0.002);
        let m = r.metrics();
        assert_eq!(m.counter_by_name(names::SHARD_FOLDS_TOTAL), Some(2));
        let h = m.histogram_by_name(names::SHARD_FOLD_SECONDS).unwrap();
        assert_eq!(h.count(), 2);
        let records = r.tracer().records();
        let fold = records.iter().find(|s| s.name == "shard_fold").unwrap();
        assert_eq!(fold.round, Some(3));
    }

    #[test]
    fn recorder_tracks_dispatch_batches_and_imbalance() {
        let mut r = Recorder::with_trace_capacity(16);
        r.on_dispatch(
            2,
            &DispatchSummary {
                jobs: 12,
                workers: 4,
                chunk_size: 2,
                chunks: 6,
                steals: 2,
                busy_seconds: &[0.4, 0.1, 0.1, 0.2],
            },
        );
        let m = r.metrics();
        assert_eq!(m.counter_by_name(names::DISPATCH_CHUNKS_TOTAL), Some(6));
        assert_eq!(m.counter_by_name(names::DISPATCH_STEALS_TOTAL), Some(2));
        let busy = m.histogram_by_name(names::WORKER_BUSY_SECONDS).unwrap();
        assert_eq!(busy.count(), 4);
        // max/mean = 0.4 / 0.2 = 2.0
        let imbalance = m.gauge_by_name(names::DISPATCH_IMBALANCE).unwrap();
        assert!((imbalance - 2.0).abs() < 1e-9);
        // No busy data (timing off) leaves the gauge untouched.
        r.on_dispatch(
            3,
            &DispatchSummary {
                jobs: 3,
                workers: 1,
                chunk_size: 3,
                chunks: 1,
                steals: 0,
                busy_seconds: &[],
            },
        );
        assert_eq!(
            r.metrics().counter_by_name(names::DISPATCH_CHUNKS_TOTAL),
            Some(7)
        );
    }

    #[test]
    fn recorder_exports_json() {
        let mut r = Recorder::new();
        r.on_round_end(&summary(0));
        let v = r.metrics_json();
        assert_eq!(v["counters"]["rounds_total"].as_u64(), Some(1));
        #[cfg(target_os = "linux")]
        assert!(v["gauges"]["peak_rss_bytes"].as_f64().unwrap() > 0.0);
        // Trace JSONL parses line by line through the shared serializer.
        r.on_tick_start("semi-async", 1);
        r.on_tick_end("semi-async", 1);
        for line in r.trace_json_lines().lines() {
            let _: crate::trace::SpanRecord = serde_json::from_str(line).unwrap();
        }
    }

    #[test]
    fn recorder_downcasts_through_dyn_telemetry() {
        let mut boxed: Box<dyn Telemetry> = Box::new(Recorder::new());
        boxed.on_round_end(&summary(0));
        let recorder = boxed
            .as_any()
            .and_then(|a| a.downcast_ref::<Recorder>())
            .expect("recorder downcasts");
        assert_eq!(
            recorder.metrics().counter_by_name(names::ROUNDS_TOTAL),
            Some(1)
        );
    }
}
