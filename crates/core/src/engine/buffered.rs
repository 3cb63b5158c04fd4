//! The buffered asynchronous scheduler (event-driven, staleness-weighted).
//!
//! A job's local update runs when it is dispatched, against the θ of that
//! moment, on the engine's [`DispatchPool`](super::DispatchPool) (whose
//! adaptive chunk size, `jobs / (4·workers)` clamped to ≥ 1, degrades to one
//! job per chunk for these tiny batches; a one-job batch runs inline). Its
//! message arrives at the dispatch time plus [`EngineCore::job_seconds`] —
//! the epochs it ran and the bytes it sent, timed by the engine's
//! [`DeviceModel`](crate::heterogeneity::DeviceModel), so the schedule needs
//! a model installed (`RoundEngine::with_devices`). On a heterogeneous fleet
//! fast devices contribute many low-staleness updates and stragglers few,
//! stale ones. Algorithms that read server state in `client_update_scratch`
//! (SCAFFOLD's control variate) read it at dispatch, with the θ snapshot
//! the job trains on.

use super::in_flight::{require_devices, InFlight};
use super::scheduler::{
    DispatchOrder, EngineCore, RoundStats, Scheduler, StalenessWeight, TickReport,
};
use crate::algorithms::ClientMessage;
use crate::config::FedConfig;
use fedadmm_tensor::{TensorError, TensorResult};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// Configuration of a buffered asynchronous schedule.
#[derive(Debug, Clone)]
pub struct AsyncConfig {
    /// How many clients compute concurrently (the size of the device pool
    /// the server keeps busy). Plays the role of `|S_t|` in the synchronous
    /// protocol.
    pub max_concurrency: usize,
    /// Staleness weighting applied to arriving updates.
    pub staleness: StalenessWeight,
    /// Evaluate the global model every this many server aggregations
    /// (evaluation is the expensive part of the simulation); at least 1.
    pub eval_every: usize,
    /// Aggregate once this many weighted updates have arrived; at least 1.
    /// `1` (the default) applies every arrival immediately — fully
    /// asynchronous aggregation; larger values give FedBuff-style buffered
    /// aggregation.
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

/// Event-driven asynchronous scheduling with staleness weighting and an
/// aggregation buffer (fully asynchronous when `aggregate_after == 1`).
///
/// The schedule keeps `max_concurrency` clients computing at all times.
/// Each tick tops the pool up, delivers the earliest arrival, scales its
/// payload by the staleness weight, and flushes the buffer through the
/// algorithm's server update once `aggregate_after` weighted updates have
/// accumulated.
pub struct BufferedAsync {
    config: AsyncConfig,
    /// Jobs in flight, versioned by the server aggregation they started at.
    in_flight: InFlight,
    rng: SmallRng,
    buffer: Vec<ClientMessage>,
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
            in_flight: InFlight::default(),
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

    /// Dispatches idle clients, drawn uniformly, until the pool holds
    /// `max_concurrency` jobs, each running the epochs the engine's work
    /// schedule draws for it.
    fn fill_pool(&mut self, core: &mut EngineCore<'_>) -> TensorResult<()> {
        let wanted = self.config.max_concurrency - self.in_flight.len();
        let mut idle: Vec<usize> = (0..core.config.num_clients)
            .filter(|&c| !self.in_flight.is_busy(c))
            .collect();
        let mut orders = Vec::with_capacity(wanted);
        while orders.len() < wanted && !idle.is_empty() {
            let &client_id = idle.choose(&mut self.rng).expect("idle list is non-empty");
            idle.retain(|&c| c != client_id);
            orders.push(DispatchOrder {
                client_id,
                epochs: core.work_schedule.epochs_for(client_id, &mut self.rng),
                snapshot: core.broadcast(),
                seed: core.config.seed
                    ^ (self.dispatched as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ (client_id as u64).wrapping_mul(0x2545_F491_4F6C_DD1D),
            });
            self.dispatched += 1;
        }
        self.in_flight.dispatch(core, orders, self.version)
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
        if self.config.eval_every == 0 {
            return Err(TensorError::InvalidArgument(
                "eval_every must be at least 1: the schedule records a round \
                 every eval_every aggregations"
                    .to_string(),
            ));
        }
        if self.config.aggregate_after == 0 {
            return Err(TensorError::InvalidArgument(
                "aggregate_after must be at least 1: it is the number of \
                 arrivals each server aggregation folds"
                    .to_string(),
            ));
        }
        self.rng = SmallRng::seed_from_u64(core.config.seed ^ 0xA517_C0DE);
        Ok(())
    }

    fn tick(&mut self, core: &mut EngineCore<'_>) -> TensorResult<TickReport> {
        require_devices(core)?;
        let window = *self.window.get_or_insert_with(Instant::now);
        // The pool is filled here, not in `init`: the device model and work
        // schedule are installed after `init` runs.
        self.fill_pool(core)?;
        let mut job = self
            .in_flight
            .pop()
            .ok_or_else(|| TensorError::InvalidArgument("no client is in flight".to_string()))?;
        core.advance_clock(job.due);
        let client = job.message.client_id;
        // Like the deadline tick: every upload is charged when it arrives.
        core.add_upload(job.message.upload_floats());
        core.add_wire_bytes(job.message.wire_bytes());
        let (staleness, weight) = job.weigh(self.version, self.config.staleness);

        let mut aggregated = false;
        if weight > 0.0 {
            self.buffered_epochs += job.message.epochs_run;
            self.buffered_samples += job.message.samples_processed;
            self.buffer.push(job.message);
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
            let record = core.record_round(RoundStats {
                num_selected: self.config.aggregate_after,
                // Uploads and wire bytes were charged as they arrived, not
                // per record.
                upload_floats: 0,
                total_local_epochs: std::mem::take(&mut self.buffered_epochs),
                samples_processed: std::mem::take(&mut self.buffered_samples),
                wire_bytes: 0,
                elapsed_ms: window.elapsed().as_millis() as u64,
            })?;
            accuracy = Some(record.test_accuracy);
            report.record = Some(record);
        }
        // Note: this arrival is recorded *after* any round record produced
        // above, so its staleness is attributed to the next record's
        // staleness window (the record's own window closes at evaluation).
        let event = core.record_event(client, staleness, weight, accuracy);
        report.events.push(event);
        Ok(report)
    }
}
