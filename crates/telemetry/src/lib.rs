//! Hand-rolled observability for the FedADMM simulation engine.
//!
//! Everything here is zero-dependency by design (no crates.io): the tracer,
//! the metrics registry and the process probes are small enough to own, and
//! owning them keeps the workspace offline-buildable. Three layers:
//!
//! * [`trace`] — a structured span/event tracer with a bounded ring buffer
//!   and hierarchical parents; exports JSONL.
//! * [`metrics`] — a registry of counters, gauges and fixed-bucket
//!   histograms updated through pre-registered integer handles.
//! * [`process`] — peak/current RSS probes from `/proc/self/status`.
//!
//! The [`Telemetry`] trait is the seam the engine drives: it reports every
//! fact as one [`Event`] through [`Telemetry::on_event`] (ignored by
//! default) and gates its own timing on [`Telemetry::enabled`], so a [`NoTelemetry`] run is byte-identical to an
//! uninstrumented build. [`Recorder`] implements the trait on top of the
//! tracer + registry and exports both through the vendored `serde_json`.
//!
//! ```
//! use fedadmm_telemetry::{Event, Recorder, Telemetry};
//!
//! let mut rec = Recorder::new();
//! let (name, round) = ("sync-rounds", 0);
//! rec.on_event(&Event::SpanStart { name, round });
//! rec.on_event(&Event::ClientUpdate {
//!     round,
//!     client: 3,
//!     seconds: 0.012,
//!     epochs: 2,
//!     samples: 600,
//! });
//! rec.on_event(&Event::SpanEnd { name, round });
//! assert_eq!(
//!     rec.metrics().counter_by_name("client_updates_total"),
//!     Some(1)
//! );
//! ```

#![warn(missing_docs)]

pub mod hook;
pub mod metrics;
pub mod process;
pub mod trace;

pub use hook::{names, DispatchSummary, Event, NoTelemetry, Recorder, RoundSummary, Telemetry};
pub use metrics::{
    exponential_buckets, linear_buckets, CounterId, GaugeId, Histogram, HistogramId,
    MetricsRegistry,
};
pub use process::{current_rss_bytes, peak_rss_bytes};
pub use trace::{SpanId, SpanRecord, Tracer, DEFAULT_TRACE_CAPACITY};
