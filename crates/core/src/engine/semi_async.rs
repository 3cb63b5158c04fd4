//! The semi-asynchronous deadline scheduler.
//!
//! The paper motivates FedADMM by the *straggler problem*: a synchronous
//! round lasts as long as its slowest selected client. Fully asynchronous
//! aggregation (the [`BufferedAsync`](super::BufferedAsync) schedule)
//! removes the wait entirely but gives up the round structure. The
//! semi-asynchronous schedule studied here — and in semi-async FL systems
//! like SAFA / FedSAE (see PAPERS.md) — sits between the two:
//!
//! * each round the server dispatches fresh work to every *idle* selected
//!   client with the current θ snapshot;
//! * at the round **deadline** it aggregates whatever arrived, in one
//!   batch;
//! * clients that missed the deadline keep computing — their updates
//!   arrive in a later round, staleness-weighted against the rounds they
//!   missed, instead of being dropped or stalling everyone else.
//!
//! Deadlines govern *virtual* time: each job's finish time is fixed at
//! dispatch by the engine's
//! [`DeviceModel`](crate::heterogeneity::DeviceModel), its upload charged at
//! the dense size because it does not exist yet, so the schedule needs a
//! model installed (`RoundEngine::with_devices`). The real CPU work of each
//! batch of arrivals still runs through the engine's work-stealing
//! [`DispatchPool`](super::DispatchPool), so simulated stragglers never
//! serialize the simulation itself.
//!
//! Because FedADMM's dual variables absorb variable amounts of local work,
//! it tolerates the resulting mix of fresh and stale updates far better
//! than FedAvg — the engine-parity integration tests pin this down.
//!
//! **Caveat on staleness weighting.** Like the legacy asynchronous engine,
//! staleness damping multiplies the uploaded *payload* by `s(τ)`. That is
//! the natural semantics for delta-style uploads (FedADMM, FedProx,
//! SCAFFOLD, FedSGD): a damped delta is simply a smaller correction. For
//! model-upload algorithms whose server *averages* payloads (FedAvg,
//! FedPD), a damped stale model shrinks the average's total mass, so part
//! of FedAvg's degradation under this scheduler is the weighting scheme
//! itself rather than pure learning dynamics — use
//! [`StalenessWeight::Constant`] to isolate the reordering effect.

use super::scheduler::{
    derive_client_seed, derive_round_seed, DispatchOrder, EngineCore, RoundStats, Scheduler,
    StalenessWeight, TickReport,
};
use crate::algorithms::ClientMessage;
use crate::config::FedConfig;
use crate::param::ParamVector;
use fedadmm_tensor::{TensorError, TensorResult};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Configuration of a semi-asynchronous (deadline) schedule. How long each
/// client's job takes comes from the engine's
/// [`DeviceModel`](crate::heterogeneity::DeviceModel).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SemiAsyncConfig {
    /// The round deadline in virtual seconds: the server aggregates
    /// whatever arrived within this budget after the round started.
    pub round_deadline: f64,
    /// Staleness weighting applied to straggler updates that arrive after
    /// the round they were dispatched in (τ = rounds missed).
    pub staleness: StalenessWeight,
}

impl SemiAsyncConfig {
    /// A deadline schedule with polynomial staleness damping (`a = 0.5`).
    /// [`StalenessWeight::BoundedDelay`] with `max_staleness: 0` turns it
    /// into a synchronous deadline that drops its stragglers.
    pub fn new(round_deadline: f64) -> Self {
        SemiAsyncConfig {
            round_deadline,
            staleness: StalenessWeight::Polynomial { exponent: 0.5 },
        }
    }

    /// Sets the staleness weighting.
    pub fn with_staleness(mut self, staleness: StalenessWeight) -> Self {
        self.staleness = staleness;
        self
    }
}

/// A dispatched job that has not arrived at the server yet.
struct Pending {
    client_id: usize,
    finish_time: f64,
    /// Round in which the job was dispatched.
    dispatch_round: usize,
    snapshot: Arc<ParamVector>,
    epochs: usize,
    seed: u64,
}

/// Deadline-driven rounds with straggler carry-over (see the module docs).
pub struct SemiAsync {
    config: SemiAsyncConfig,
    pending: Vec<Pending>,
    busy: Vec<bool>,
}

impl SemiAsync {
    /// Creates the scheduler from its fleet configuration.
    pub fn new(config: SemiAsyncConfig) -> Self {
        SemiAsync {
            config,
            pending: Vec::new(),
            busy: Vec::new(),
        }
    }

    /// The fleet configuration.
    pub fn config(&self) -> &SemiAsyncConfig {
        &self.config
    }

    /// Number of straggler jobs still in flight.
    pub fn stragglers_in_flight(&self) -> usize {
        self.pending.len()
    }
}

impl Scheduler for SemiAsync {
    fn name(&self) -> &'static str {
        "semi-async"
    }

    fn setting_label(&self, config: &FedConfig) -> String {
        format!(
            "semi-async, {} clients, deadline {}s",
            config.num_clients, self.config.round_deadline
        )
    }

    fn init(&mut self, core: &mut EngineCore<'_>) -> TensorResult<()> {
        if !self.config.round_deadline.is_finite() || self.config.round_deadline <= 0.0 {
            return Err(TensorError::InvalidArgument(
                "round_deadline must be positive".to_string(),
            ));
        }
        self.busy = vec![false; core.config.num_clients];
        Ok(())
    }

    fn tick(&mut self, core: &mut EngineCore<'_>) -> TensorResult<TickReport> {
        let start = Instant::now();
        let round = core.round();
        let mut round_rng = SmallRng::seed_from_u64(derive_round_seed(
            core.config.seed ^ 0x5EA1_A57C,
            round as u64,
        ));

        // 1. Select and dispatch fresh work to idle clients with the
        //    *current* θ snapshot (zero-copy broadcast).
        let selected = core
            .selector
            .select(core.config.num_clients, &mut round_rng);
        let snapshot = core.broadcast();
        let round_start = core.now();
        for &client_id in &selected {
            if self.busy[client_id] {
                continue; // still computing a previous round's job
            }
            let epochs = core.work_schedule.epochs_for(client_id, &mut round_rng);
            let duration = core.dispatch_seconds(client_id, epochs)?;
            self.busy[client_id] = true;
            self.pending.push(Pending {
                client_id,
                finish_time: round_start + duration,
                dispatch_round: round,
                snapshot: snapshot.clone(),
                epochs,
                seed: derive_client_seed(core.config.seed, round as u64, client_id),
            });
        }
        drop(snapshot);
        if self.pending.is_empty() {
            return Err(TensorError::InvalidArgument(
                "semi-async round has no work in flight".to_string(),
            ));
        }

        // 2. The round ends at the deadline — or at the earliest arrival if
        //    the deadline would catch nothing (guaranteed progress).
        let mut deadline = round_start + self.config.round_deadline;
        let earliest = self
            .pending
            .iter()
            .map(|p| p.finish_time)
            .fold(f64::INFINITY, f64::min);
        if earliest > deadline {
            deadline = earliest;
        }
        core.advance_clock(deadline);

        // 3. Collect everything that made the deadline; stragglers stay in
        //    `pending` and carry their stale snapshots forward.
        let (mut arrived, still_pending): (Vec<Pending>, Vec<Pending>) = self
            .pending
            .drain(..)
            .partition(|p| p.finish_time <= deadline);
        self.pending = still_pending;
        arrived.sort_by(|a, b| {
            a.finish_time
                .partial_cmp(&b.finish_time)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.client_id.cmp(&b.client_id))
        });

        // 4. Run all arrived local updates through the shared parallel
        //    dispatch path (each against its own dispatch-time snapshot).
        let orders: Vec<DispatchOrder> = arrived
            .iter()
            .map(|p| DispatchOrder {
                client_id: p.client_id,
                epochs: p.epochs,
                snapshot: Arc::clone(&p.snapshot),
                seed: p.seed,
            })
            .collect();
        let mut messages = core.in_span("dispatch", |core| core.dispatch(&orders))?;
        drop(orders);

        // 5. Staleness-weight the stragglers' payloads (τ = rounds missed),
        //    record the arrival events, and drop zero-weight updates.
        let mut report = TickReport::default();
        let mut kept: Vec<ClientMessage> = Vec::with_capacity(messages.len());
        let mut total_epochs = 0usize;
        let mut total_samples = 0usize;
        for message in messages.drain(..) {
            let pending = arrived
                .iter()
                .find(|p| p.client_id == message.client_id)
                .expect("arrived job for every message");
            self.busy[message.client_id] = false;
            let staleness = round - pending.dispatch_round;
            let weight = self.config.staleness.weight(staleness);
            core.add_upload(message.upload_floats());
            core.add_wire_bytes(message.wire_bytes());
            report
                .events
                .push(core.record_event(message.client_id, staleness, weight, None));
            if weight > 0.0 {
                total_epochs += message.epochs_run;
                total_samples += message.samples_processed;
                let mut scaled = message;
                if weight != 1.0 {
                    for p in scaled.payload.iter_mut() {
                        p.scale(weight);
                    }
                    // Wire payloads carry the damping in their scale factor
                    // (codes cannot be scaled without decoding); the server
                    // folds it into the per-message coefficient.
                    if let Some(wire) = &mut scaled.wire {
                        wire.scale *= weight;
                    }
                }
                kept.push(scaled);
            }
        }

        // 6. Aggregate the round's arrivals in one batch and evaluate.
        let upload_floats: usize = kept.iter().map(|m| m.upload_floats()).sum();
        let wire_bytes: usize = kept.iter().map(|m| m.wire_bytes()).sum();
        if !kept.is_empty() {
            core.in_span("aggregate", |core| core.aggregate(&kept, &mut round_rng));
        }
        let record = core.record_round(RoundStats {
            num_selected: kept.len(),
            upload_floats,
            total_local_epochs: total_epochs,
            samples_processed: total_samples,
            wire_bytes,
            elapsed_ms: start.elapsed().as_millis() as u64,
        })?;
        report.record = Some(record);
        Ok(report)
    }
}
