//! The buffered asynchronous scheduler (event-driven, staleness-weighted).
//!
//! Each tick dispatches at most a handful of arrivals; they still run
//! through the engine's [`DispatchPool`](super::DispatchPool), whose
//! adaptive chunk size (`jobs / (4·workers)`, clamped to ≥ 1) degrades to
//! one job per chunk for these tiny cohorts.
//!
//! Each job's finish time is fixed at dispatch by the engine's
//! [`DeviceModel`](crate::heterogeneity::DeviceModel), its upload charged at
//! the dense size because it does not exist yet, so the schedule needs a
//! model installed (`RoundEngine::with_devices`). On a heterogeneous fleet
//! fast devices contribute many low-staleness updates and stragglers few,
//! stale ones.

use super::scheduler::{
    DispatchOrder, EngineCore, RoundStats, Scheduler, StalenessWeight, TickReport,
};
use crate::config::FedConfig;
use crate::param::ParamVector;
use fedadmm_tensor::{TensorError, TensorResult};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of a buffered asynchronous schedule.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AsyncConfig {
    /// How many clients compute concurrently (the size of the device pool
    /// the server keeps busy). Plays the role of `|S_t|` in the synchronous
    /// protocol.
    pub max_concurrency: usize,
    /// Staleness weighting applied to arriving updates.
    pub staleness: StalenessWeight,
    /// Evaluate the global model every this many server aggregations
    /// (evaluation is the expensive part of the simulation).
    pub eval_every: usize,
    /// Aggregate once this many weighted updates have arrived. `1` (the
    /// default) applies every arrival immediately — fully asynchronous
    /// aggregation; larger values give FedBuff-style buffered aggregation.
    pub aggregate_after: usize,
}

impl AsyncConfig {
    /// A pool of `concurrency` computing clients, polynomial staleness
    /// damping (`a = 0.5`), evaluation every 10 aggregations and no buffer.
    pub fn new(concurrency: usize) -> Self {
        AsyncConfig {
            max_concurrency: concurrency,
            staleness: StalenessWeight::Polynomial { exponent: 0.5 },
            eval_every: 10,
            aggregate_after: 1,
        }
    }

    /// Sets the staleness weighting.
    pub fn with_staleness(mut self, staleness: StalenessWeight) -> Self {
        self.staleness = staleness;
        self
    }

    /// Sets the aggregation buffer size (`K` arrivals per server update).
    pub fn with_aggregate_after(mut self, k: usize) -> Self {
        self.aggregate_after = k.max(1);
        self
    }
}

/// A client currently computing, keyed by its completion time.
struct InFlight {
    finish_time: f64,
    client_id: usize,
    /// Server version (number of aggregations) when the snapshot was taken.
    snapshot_version: usize,
    /// The model snapshot the client downloaded (shared, not copied).
    snapshot: Arc<ParamVector>,
    /// Local epochs this dispatch will run.
    epochs: usize,
    /// Derived local RNG seed for this dispatch.
    seed: u64,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        self.finish_time == other.finish_time && self.client_id == other.client_id
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest finish pops first.
        other
            .finish_time
            .partial_cmp(&self.finish_time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.client_id.cmp(&self.client_id))
    }
}

/// Event-driven asynchronous scheduling with staleness weighting and an
/// aggregation buffer (fully asynchronous when `aggregate_after == 1`).
///
/// The schedule keeps `max_concurrency` clients computing at all times.
/// Each tick pops the earliest completion, runs that client's local update
/// against its (possibly stale) θ snapshot, scales the payload by the
/// staleness weight, and flushes the buffer through the algorithm's server
/// update once `aggregate_after` weighted updates have accumulated.
pub struct BufferedAsync {
    config: AsyncConfig,
    in_flight: BinaryHeap<InFlight>,
    busy: Vec<bool>,
    rng: SmallRng,
    buffer: Vec<crate::algorithms::ClientMessage>,
    buffered_epochs: usize,
    buffered_samples: usize,
    version: usize,
    dispatched: usize,
    /// When the ticks of the next round record began (wall clock).
    window: Option<Instant>,
}

impl BufferedAsync {
    /// Creates the scheduler from its pool configuration.
    pub fn new(config: AsyncConfig) -> Self {
        BufferedAsync {
            config,
            in_flight: BinaryHeap::new(),
            busy: Vec::new(),
            rng: SmallRng::seed_from_u64(0),
            buffer: Vec::new(),
            buffered_epochs: 0,
            buffered_samples: 0,
            version: 0,
            dispatched: 0,
            window: None,
        }
    }

    /// The pool configuration.
    pub fn config(&self) -> &AsyncConfig {
        &self.config
    }

    /// Number of server aggregations applied so far.
    pub fn updates_applied(&self) -> usize {
        self.version
    }

    /// Dispatches idle clients until the pool holds `max_concurrency` jobs,
    /// each running the epochs the engine's work schedule draws for it.
    fn fill_pool(&mut self, core: &EngineCore<'_>) -> TensorResult<()> {
        while self.in_flight.len() < self.config.max_concurrency {
            let idle: Vec<usize> = self
                .busy
                .iter()
                .enumerate()
                .filter_map(|(i, &b)| (!b).then_some(i))
                .collect();
            if idle.is_empty() {
                break;
            }
            let &client_id = idle.choose(&mut self.rng).expect("idle list is non-empty");
            let epochs = core.work_schedule.epochs_for(client_id, &mut self.rng);
            let duration = core.dispatch_seconds(client_id, epochs)?;
            let seed = core.config.seed
                ^ (self.dispatched as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (client_id as u64).wrapping_mul(0x2545_F491_4F6C_DD1D);
            self.busy[client_id] = true;
            self.in_flight.push(InFlight {
                finish_time: core.now() + duration,
                client_id,
                snapshot_version: self.version,
                snapshot: core.broadcast(),
                epochs,
                seed,
            });
            self.dispatched += 1;
        }
        Ok(())
    }
}

impl Scheduler for BufferedAsync {
    fn name(&self) -> &'static str {
        "buffered-async"
    }

    fn setting_label(&self, _config: &FedConfig) -> String {
        format!("async, {} concurrent", self.config.max_concurrency)
    }

    fn init(&mut self, core: &mut EngineCore<'_>) -> TensorResult<()> {
        if self.config.max_concurrency == 0 {
            return Err(TensorError::InvalidArgument(
                "max_concurrency must be at least 1".to_string(),
            ));
        }
        self.busy = vec![false; core.config.num_clients];
        self.rng = SmallRng::seed_from_u64(core.config.seed ^ 0xA517_C0DE);
        Ok(())
    }

    fn tick(&mut self, core: &mut EngineCore<'_>) -> TensorResult<TickReport> {
        let window = *self.window.get_or_insert_with(Instant::now);
        // The pool is filled on the first tick, not in `init`: the device
        // model and work schedule are installed after `init` runs. Nothing
        // draws from the rng or moves θ or the clock in between.
        if self.dispatched == 0 {
            self.fill_pool(core)?;
        }
        let job = self
            .in_flight
            .pop()
            .ok_or_else(|| TensorError::InvalidArgument("no client is in flight".to_string()))?;
        core.advance_clock(job.finish_time);
        self.busy[job.client_id] = false;

        // Run the client's local update against its (possibly stale)
        // snapshot, through the shared dispatch path.
        let order = DispatchOrder {
            client_id: job.client_id,
            epochs: job.epochs,
            snapshot: job.snapshot,
            seed: job.seed,
        };
        let message = core.dispatch_one(&order)?;
        drop(order);

        let staleness = self.version - job.snapshot_version;
        let weight = self.config.staleness.weight(staleness);
        core.add_upload(message.upload_floats());
        core.add_wire_bytes(message.wire_bytes());

        let mut aggregated = false;
        if weight > 0.0 {
            // Scale the payload by the staleness weight and buffer it.
            let mut scaled = message;
            for p in scaled.payload.iter_mut() {
                p.scale(weight);
            }
            // Wire payloads carry the damping in their scale factor; the
            // server folds it into the per-message coefficient.
            if let Some(wire) = &mut scaled.wire {
                wire.scale *= weight;
            }
            self.buffered_epochs += scaled.epochs_run;
            self.buffered_samples += scaled.samples_processed;
            self.buffer.push(scaled);
            if self.buffer.len() >= self.config.aggregate_after {
                core.aggregate(&std::mem::take(&mut self.buffer), &mut self.rng);
                self.version += 1;
                aggregated = true;
            }
        }

        let mut report = TickReport::default();
        let mut accuracy = None;
        if aggregated && self.version.is_multiple_of(self.config.eval_every) {
            self.window = None;
            let elapsed_ms = window.elapsed().as_millis() as u64;
            let record = core.record_round(RoundStats {
                num_selected: self.config.aggregate_after,
                upload_floats: 0,
                total_local_epochs: std::mem::take(&mut self.buffered_epochs),
                samples_processed: std::mem::take(&mut self.buffered_samples),
                // Like uploads, wire bytes are accounted per event here.
                wire_bytes: 0,
                elapsed_ms,
            })?;
            accuracy = Some(record.test_accuracy);
            report.record = Some(record);
        }
        // Note: this arrival is recorded *after* any round record produced
        // above, so its staleness is attributed to the next record's
        // staleness window (the record's own window closes at evaluation).
        report
            .events
            .push(core.record_event(job.client_id, staleness, weight, accuracy));
        self.fill_pool(core)?;
        Ok(report)
    }
}
