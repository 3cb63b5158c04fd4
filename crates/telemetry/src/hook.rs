//! The [`Telemetry`] hook trait the simulation engine drives, its no-op
//! default, and the full [`Recorder`] implementation.
//!
//! The engine reports one [`Event`] at fixed points of every round —
//! snapshot downloads, per-client local updates (timed on the dispatch
//! pool's workers), uploads, the fused server-aggregation pass, arrival
//! events and round close. [`NoTelemetry`] ignores them all and reports
//! `enabled() == false`, which the engine uses to skip timing altogether —
//! the uninstrumented hot path stays allocation-free and byte-identical to
//! the pre-telemetry engine. [`Recorder`] turns the same events into tracer
//! spans and registry metrics.

use crate::metrics::{
    exponential_buckets, linear_buckets, CounterId, GaugeId, HistogramId, MetricsRegistry,
};
use crate::process::peak_rss_bytes;
use crate::trace::{SpanId, Tracer};
use serde_json::Value;

/// Everything the engine knows about a round at close time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundSummary {
    /// Round index (0-based).
    pub round: usize,
    /// Wall-clock seconds the simulation spent on the round, under every
    /// scheduler (virtual time is `RoundRecord::virtual_seconds`).
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
/// Carried by [`Event::Dispatch`], emitted once per batch after its
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

/// One fact the engine reports through [`Telemetry::on_event`].
///
/// Variants marked *timed* are only emitted while [`Telemetry::enabled`]
/// is true; their `seconds` are measured by the engine (per-client ones on
/// the dispatch worker that ran the job).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event<'a> {
    /// A span opens: a scheduler tick (the outermost span, named after the
    /// scheduler) or a named phase inside one (`"dispatch"`, `"aggregate"`,
    /// `"fuse_pass"`).
    SpanStart {
        /// Scheduler label or phase name.
        name: &'static str,
        /// Round the span belongs to.
        round: usize,
    },
    /// The innermost open span called `name` closes.
    SpanEnd {
        /// Scheduler label or phase name.
        name: &'static str,
        /// Round the span belongs to.
        round: usize,
    },
    /// *Timed.* A client downloaded a model snapshot of `floats` parameters.
    Download {
        /// Round of the dispatch.
        round: usize,
        /// Downloading client.
        client: usize,
        /// Snapshot length.
        floats: usize,
    },
    /// *Timed.* A client finished its local update.
    ClientUpdate {
        /// Round of the dispatch.
        round: usize,
        /// Client that trained.
        client: usize,
        /// Wall time of the update on its worker.
        seconds: f64,
        /// Local epochs run.
        epochs: usize,
        /// Training samples processed.
        samples: usize,
    },
    /// Clients uploaded `floats` parameters to the server.
    Upload {
        /// Floats uploaded.
        floats: usize,
    },
    /// Clients uploaded `bytes` over the wire (the quantized size when the
    /// engine's wire path is on, the dense `4 · floats` size otherwise).
    WireUpload {
        /// Bytes uploaded.
        bytes: usize,
    },
    /// *Timed.* The server folded `num_messages` payloads into θ (the fused
    /// single-pass aggregation).
    Aggregate {
        /// Round being aggregated.
        round: usize,
        /// Payloads folded.
        num_messages: usize,
        /// Wall time of the pass.
        seconds: f64,
    },
    /// *Timed.* The global model was evaluated on the test set.
    Eval {
        /// Round being closed.
        round: usize,
        /// Wall time of the evaluation.
        seconds: f64,
    },
    /// An update arrived at the server with the given staleness and was
    /// applied with `weight` (0 = dropped).
    Arrival {
        /// Arriving client.
        client: usize,
        /// Rounds since the client's snapshot was taken.
        staleness: usize,
        /// Weight the update was applied with.
        weight: f32,
    },
    /// A round closed; the summary carries everything the history records.
    RoundEnd(RoundSummary),
    /// A named scalar diagnostic (e.g. the optimality gap `V_t`) was
    /// computed for the current round.
    Gauge {
        /// Gauge name.
        name: &'static str,
        /// Latest value.
        value: f64,
    },
    /// *Timed.* The client-state store's cumulative operation counters at
    /// round close. Values are monotone totals since the store was built;
    /// consumers that keep counters should diff against the previous report
    /// (as [`Recorder`] does).
    StoreStats {
        /// Client states materialized from their implicit form.
        materializations: u64,
        /// Shards written to disk by an eviction.
        spill_writes: u64,
        /// Shards loaded back from disk.
        spill_loads: u64,
        /// Shards evicted from residency.
        evictions: u64,
    },
    /// *Timed.* One per-shard partial fold of the hierarchical server
    /// aggregation finished.
    ShardFold {
        /// Round being aggregated.
        round: usize,
        /// Shard folded.
        shard: usize,
        /// Payloads folded for the shard.
        messages: usize,
        /// Wall time of the partial fold.
        seconds: f64,
    },
    /// *Timed.* A parallel dispatch batch finished; the summary carries the
    /// pool's chunk/steal counters and per-worker busy times.
    Dispatch {
        /// Round of the dispatch.
        round: usize,
        /// What the batch looked like to the pool.
        summary: DispatchSummary<'a>,
    },
}

/// Observability hooks threaded through the engine (see [module docs](self)).
///
/// Both methods have defaults — disabled, and ignore the event — so an
/// implementor overrides only what it consumes. Implementations must be
/// `Send`: per-client timings are *measured* on the dispatch worker threads
/// but always *reported* from the engine thread, so hooks never race.
pub trait Telemetry: Send {
    /// Whether the expensive instrumentation (per-client `Instant` reads,
    /// span bookkeeping) should run. The engine consults this once per
    /// dispatch batch; `false` keeps the hot path identical to an
    /// uninstrumented build.
    fn enabled(&self) -> bool {
        false
    }

    /// The engine reports one [`Event`].
    fn on_event(&mut self, _event: &Event<'_>) {}

    /// The [`Recorder`] behind these hooks, if that is what they are (what
    /// `RoundEngine::recorder` hands out).
    fn recorder(&self) -> Option<&Recorder> {
        None
    }

    /// Mutable form of [`recorder`](Telemetry::recorder).
    fn recorder_mut(&mut self) -> Option<&mut Recorder> {
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

/// The full-fat hook: every engine event becomes tracer spans and
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
    /// The store counters (materializations, spill writes, spill loads,
    /// evictions — the field order of [`Event::StoreStats`]), each with the
    /// last monotone total seen so it can advance by the delta.
    c_store: [(CounterId, u64); 4],
    c_shard_folds: CounterId,
    h_shard_fold: HistogramId,
    c_dispatch_chunks: CounterId,
    c_dispatch_steals: CounterId,
    h_worker_busy: HistogramId,
    g_dispatch_imbalance: GaugeId,
    /// Open tick and phase spans, innermost last (a tick is the outermost).
    open_spans: Vec<(SpanId, &'static str)>,
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
        // 10 µs … ~3 h
        let seconds_grid = || exponential_buckets(1e-5, 2.0, 30);
        // Fields initialize in the order written, which is the order the
        // registry (and so its JSON export) lists the metrics in.
        Recorder {
            tracer: Tracer::new(capacity),
            c_rounds: metrics.counter(names::ROUNDS_TOTAL),
            c_client_updates: metrics.counter(names::CLIENT_UPDATES_TOTAL),
            c_aggregations: metrics.counter(names::AGGREGATIONS_TOTAL),
            c_dropped: metrics.counter(names::DROPPED_ARRIVALS_TOTAL),
            c_upload: metrics.counter(names::UPLOAD_FLOATS_TOTAL),
            c_wire_bytes: metrics.counter(names::WIRE_BYTES_TOTAL),
            c_broadcast: metrics.counter(names::BROADCAST_FLOATS_TOTAL),
            c_epochs: metrics.counter(names::LOCAL_EPOCHS_TOTAL),
            c_samples: metrics.counter(names::SAMPLES_TOTAL),
            h_round_wall: metrics.histogram(names::ROUND_WALL_SECONDS, seconds_grid()),
            h_client_compute: metrics.histogram(names::CLIENT_COMPUTE_SECONDS, seconds_grid()),
            h_aggregate: metrics.histogram(names::AGGREGATE_SECONDS, seconds_grid()),
            h_eval: metrics.histogram(names::EVAL_SECONDS, seconds_grid()),
            h_staleness: metrics.histogram(names::STALENESS_ROUNDS, linear_buckets(0.0, 1.0, 64)),
            g_accuracy: metrics.gauge(names::TEST_ACCURACY),
            g_loss: metrics.gauge(names::TEST_LOSS),
            g_peak_rss: metrics.gauge(names::PEAK_RSS_BYTES),
            c_store: [
                names::STORE_MATERIALIZATIONS_TOTAL,
                names::STORE_SPILL_WRITES_TOTAL,
                names::STORE_SPILL_LOADS_TOTAL,
                names::STORE_EVICTIONS_TOTAL,
            ]
            .map(|name| (metrics.counter(name), 0)),
            c_shard_folds: metrics.counter(names::SHARD_FOLDS_TOTAL),
            h_shard_fold: metrics.histogram(names::SHARD_FOLD_SECONDS, seconds_grid()),
            c_dispatch_chunks: metrics.counter(names::DISPATCH_CHUNKS_TOTAL),
            c_dispatch_steals: metrics.counter(names::DISPATCH_STEALS_TOTAL),
            h_worker_busy: metrics.histogram(names::WORKER_BUSY_SECONDS, seconds_grid()),
            g_dispatch_imbalance: metrics.gauge(names::DISPATCH_IMBALANCE),
            metrics,
            open_spans: Vec::new(),
        }
    }

    /// Read access to the metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Read access to the tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
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

    fn on_event(&mut self, event: &Event<'_>) {
        match *event {
            Event::SpanStart { name, round } => {
                let id = self.tracer.start_with(name, Some(round as u64), None);
                self.open_spans.push((id, name));
            }
            Event::SpanEnd { name, .. } => {
                // Like `Tracer::end`, closing a span closes what it encloses.
                if let Some(pos) = self.open_spans.iter().rposition(|(_, n)| *n == name) {
                    self.tracer.end(self.open_spans[pos].0);
                    self.open_spans.truncate(pos);
                }
            }
            Event::Download { floats, .. } => self.metrics.inc(self.c_broadcast, floats as u64),
            Event::ClientUpdate {
                round,
                client,
                seconds,
                epochs,
                samples,
            } => {
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
            Event::Upload { floats } => self.metrics.inc(self.c_upload, floats as u64),
            Event::WireUpload { bytes } => self.metrics.inc(self.c_wire_bytes, bytes as u64),
            Event::Aggregate { round, seconds, .. } => {
                self.metrics.inc(self.c_aggregations, 1);
                self.metrics.observe(self.h_aggregate, seconds);
                self.tracer
                    .complete("server_fold", seconds, Some(round as u64), None);
            }
            Event::Eval { round, seconds } => {
                self.metrics.observe(self.h_eval, seconds);
                self.tracer
                    .complete("evaluate", seconds, Some(round as u64), None);
            }
            Event::Arrival {
                client,
                staleness,
                weight,
            } => {
                self.metrics.observe(self.h_staleness, staleness as f64);
                if weight <= 0.0 {
                    self.metrics.inc(self.c_dropped, 1);
                }
                self.tracer.event("arrival", None, Some(client as u64));
            }
            Event::RoundEnd(summary) => {
                self.metrics.inc(self.c_rounds, 1);
                self.metrics
                    .observe(self.h_round_wall, summary.wall_seconds);
                self.metrics.set(self.g_accuracy, summary.test_accuracy);
                self.metrics.set(self.g_loss, summary.test_loss);
                self.tracer
                    .event("round_end", Some(summary.round as u64), None);
            }
            Event::Gauge { name, value } => {
                let id = self.metrics.gauge(name);
                self.metrics.set(id, value);
            }
            Event::StoreStats {
                materializations,
                spill_writes,
                spill_loads,
                evictions,
            } => {
                // The store reports monotone totals; turn them into counter deltas.
                let totals = [materializations, spill_writes, spill_loads, evictions];
                for ((id, last), total) in self.c_store.iter_mut().zip(totals) {
                    self.metrics.inc(*id, total.saturating_sub(*last));
                    *last = total;
                }
            }
            Event::ShardFold {
                round,
                shard,
                seconds,
                ..
            } => {
                self.metrics.inc(self.c_shard_folds, 1);
                self.metrics.observe(self.h_shard_fold, seconds);
                self.tracer.complete(
                    "shard_fold",
                    seconds,
                    Some(round as u64),
                    Some(shard as u64),
                );
            }
            Event::Dispatch { round, summary } => {
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
        }
    }

    fn recorder(&self) -> Option<&Recorder> {
        Some(self)
    }

    fn recorder_mut(&mut self) -> Option<&mut Recorder> {
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

    fn span(name: &'static str, round: usize) -> [Event<'static>; 2] {
        [
            Event::SpanStart { name, round },
            Event::SpanEnd { name, round },
        ]
    }

    fn client_update(client: usize) -> Event<'static> {
        Event::ClientUpdate {
            round: 0,
            client,
            seconds: 0.01,
            epochs: 2,
            samples: 30,
        }
    }

    fn arrival(client: usize, staleness: usize, weight: f32) -> Event<'static> {
        Event::Arrival {
            client,
            staleness,
            weight,
        }
    }

    #[test]
    fn noop_is_disabled_and_inert() {
        let mut t = NoTelemetry;
        assert!(!t.enabled());
        t.on_event(&client_update(1));
        t.on_event(&Event::RoundEnd(summary(0)));
        assert!(t.recorder().is_none());
        assert!(t.recorder_mut().is_none());
    }

    #[test]
    fn recorder_accumulates_metrics_and_spans() {
        let mut r = Recorder::with_trace_capacity(64);
        assert!(r.enabled());
        let [tick_start, tick_end] = span("sync-rounds", 0);
        let [dispatch_start, dispatch_end] = span("dispatch", 0);
        for event in [
            tick_start,
            dispatch_start,
            Event::Download {
                round: 0,
                client: 4,
                floats: 100,
            },
            client_update(4),
            dispatch_end,
            Event::Upload { floats: 100 },
            Event::WireUpload { bytes: 108 },
            Event::Aggregate {
                round: 0,
                num_messages: 1,
                seconds: 0.002,
            },
            Event::Eval {
                round: 0,
                seconds: 0.003,
            },
            arrival(4, 2, 0.5),
            arrival(5, 9, 0.0),
            Event::RoundEnd(summary(0)),
            tick_end,
            Event::Gauge {
                name: "optimality_gap",
                value: 12.5,
            },
        ] {
            r.on_event(&event);
        }

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
        for [materializations, spill_writes, spill_loads, evictions] in
            [[10, 2, 1, 3], [15, 2, 4, 5]]
        {
            r.on_event(&Event::StoreStats {
                materializations,
                spill_writes,
                spill_loads,
                evictions,
            });
        }
        let m = r.metrics();
        assert_eq!(
            m.counter_by_name(names::STORE_MATERIALIZATIONS_TOTAL),
            Some(15)
        );
        assert_eq!(m.counter_by_name(names::STORE_SPILL_WRITES_TOTAL), Some(2));
        assert_eq!(m.counter_by_name(names::STORE_SPILL_LOADS_TOTAL), Some(4));
        assert_eq!(m.counter_by_name(names::STORE_EVICTIONS_TOTAL), Some(5));

        for (shard, messages, seconds) in [(7, 12, 0.001), (8, 4, 0.002)] {
            r.on_event(&Event::ShardFold {
                round: 3,
                shard,
                messages,
                seconds,
            });
        }
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
        r.on_event(&Event::Dispatch {
            round: 2,
            summary: DispatchSummary {
                jobs: 12,
                workers: 4,
                chunk_size: 2,
                chunks: 6,
                steals: 2,
                busy_seconds: &[0.4, 0.1, 0.1, 0.2],
            },
        });
        let m = r.metrics();
        assert_eq!(m.counter_by_name(names::DISPATCH_CHUNKS_TOTAL), Some(6));
        assert_eq!(m.counter_by_name(names::DISPATCH_STEALS_TOTAL), Some(2));
        let busy = m.histogram_by_name(names::WORKER_BUSY_SECONDS).unwrap();
        assert_eq!(busy.count(), 4);
        // max/mean = 0.4 / 0.2 = 2.0
        let imbalance = m.gauge_by_name(names::DISPATCH_IMBALANCE).unwrap();
        assert!((imbalance - 2.0).abs() < 1e-9);
        // No busy data (timing off) leaves the gauge untouched.
        r.on_event(&Event::Dispatch {
            round: 3,
            summary: DispatchSummary {
                jobs: 3,
                workers: 1,
                chunk_size: 3,
                chunks: 1,
                steals: 0,
                busy_seconds: &[],
            },
        });
        assert_eq!(
            r.metrics().counter_by_name(names::DISPATCH_CHUNKS_TOTAL),
            Some(7)
        );
    }

    #[test]
    fn recorder_exports_json() {
        let mut r = Recorder::new();
        r.on_event(&Event::RoundEnd(summary(0)));
        let v = r.metrics_json();
        assert_eq!(v["counters"]["rounds_total"].as_u64(), Some(1));
        #[cfg(target_os = "linux")]
        assert!(v["gauges"]["peak_rss_bytes"].as_f64().unwrap() > 0.0);
        // Trace JSONL parses line by line into JSON values; the tick's end
        // also closes the phase an error return left open.
        let [tick_start, tick_end] = span("semi-async", 1);
        let [phase_start, _] = span("dispatch", 1);
        for event in [tick_start, phase_start, tick_end] {
            r.on_event(&event);
        }
        assert!(r.open_spans.is_empty());
        assert_eq!(r.trace_json_lines().lines().count(), 3);
        for line in r.trace_json_lines().lines() {
            let span: Value = serde_json::from_str(line).unwrap();
            assert!(span["name"].as_str().is_some(), "{line}");
        }
    }

    #[test]
    fn recorder_downcasts_through_dyn_telemetry() {
        let mut boxed: Box<dyn Telemetry> = Box::new(Recorder::new());
        boxed.on_event(&Event::RoundEnd(summary(0)));
        let recorder = boxed.recorder().expect("the hooks are a recorder");
        assert_eq!(
            recorder.metrics().counter_by_name(names::ROUNDS_TOTAL),
            Some(1)
        );
    }
}
