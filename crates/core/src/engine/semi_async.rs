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
//! A job's local update runs when it is dispatched, on the engine's
//! work-stealing [`DispatchPool`](super::DispatchPool), so simulated
//! stragglers never serialize the simulation itself. Deadlines govern
//! *virtual* time: the update arrives at its dispatch time plus
//! [`EngineCore::job_seconds`] — the epochs it ran and the bytes it sent,
//! timed by the engine's [`DeviceModel`](crate::heterogeneity::DeviceModel),
//! so the schedule needs a model installed (`RoundEngine::with_devices`).
//! Algorithms that read server state in `client_update_scratch` (SCAFFOLD's
//! control variate) read it at dispatch, with the θ snapshot the job trains
//! on.
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

use super::in_flight::InFlight;
use super::scheduler::{
    derive_client_seed, derive_round_seed, DispatchOrder, EngineCore, RoundStats, Scheduler,
    StalenessWeight, TickReport,
};
use crate::config::FedConfig;
use fedadmm_tensor::{TensorError, TensorResult};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
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

/// Deadline-driven rounds with straggler carry-over (see the module docs).
pub struct SemiAsync {
    config: SemiAsyncConfig,
    /// Jobs in flight, versioned by the round that dispatched them.
    in_flight: InFlight,
}

impl SemiAsync {
    /// Creates the scheduler from its fleet configuration.
    pub fn new(config: SemiAsyncConfig) -> Self {
        SemiAsync {
            config,
            in_flight: InFlight::default(),
        }
    }

    /// The fleet configuration.
    pub fn config(&self) -> &SemiAsyncConfig {
        &self.config
    }

    /// Number of straggler jobs still in flight.
    pub fn stragglers_in_flight(&self) -> usize {
        self.in_flight.len()
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
        self.in_flight = InFlight::new(core.config.num_clients);
        Ok(())
    }

    fn tick(&mut self, core: &mut EngineCore<'_>) -> TensorResult<TickReport> {
        let start = Instant::now();
        let round = core.round();
        let mut round_rng = SmallRng::seed_from_u64(derive_round_seed(
            core.config.seed ^ 0x5EA1_A57C,
            round as u64,
        ));

        // 1. Select, and run fresh work on the idle selected clients against
        //    the *current* θ snapshot (zero-copy broadcast); clients still
        //    computing an earlier round's job sit this round out.
        let selected = core
            .selector
            .select(core.config.num_clients, &mut round_rng);
        let round_start = core.now();
        let orders = selected
            .into_iter()
            .filter(|&client_id| !self.in_flight.is_busy(client_id))
            .map(|client_id| DispatchOrder {
                client_id,
                epochs: core.work_schedule.epochs_for(client_id, &mut round_rng),
                snapshot: core.broadcast(),
                seed: derive_client_seed(core.config.seed, round as u64, client_id),
            })
            .collect();
        self.in_flight.dispatch(core, orders, round)?;

        // 2. The round ends at the deadline — or at the earliest arrival if
        //    the deadline would catch nothing (guaranteed progress).
        let earliest = self.in_flight.earliest().ok_or_else(|| {
            TensorError::InvalidArgument("semi-async round has no work in flight".to_string())
        })?;
        let deadline = (round_start + self.config.round_deadline).max(earliest);
        core.advance_clock(deadline);

        // 3. Staleness-weight everything that made the deadline (τ = rounds
        //    missed), record the arrivals and drop zero-weight updates;
        //    stragglers stay in flight.
        let mut report = TickReport::default();
        let mut kept = Vec::new();
        for mut job in self.in_flight.deliver(deadline) {
            let (staleness, weight) = job.weigh(core, round, self.config.staleness);
            let event = core.record_event(job.message.client_id, staleness, weight, None);
            report.events.push(event);
            if weight > 0.0 {
                kept.push(job.message);
            }
        }

        // 4. Aggregate the round's arrivals in one batch and evaluate.
        if !kept.is_empty() {
            core.in_span("aggregate", |core| core.aggregate(&kept, &mut round_rng));
        }
        report.record = Some(core.record_round(RoundStats {
            num_selected: kept.len(),
            upload_floats: kept.iter().map(|m| m.upload_floats()).sum(),
            total_local_epochs: kept.iter().map(|m| m.epochs_run).sum(),
            samples_processed: kept.iter().map(|m| m.samples_processed).sum(),
            wire_bytes: kept.iter().map(|m| m.wire_bytes()).sum(),
            elapsed_ms: start.elapsed().as_millis() as u64,
        })?);
        Ok(report)
    }
}
