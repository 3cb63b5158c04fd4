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
//! [`SyncRounds`](super::SyncRounds) runs the same tick, `deadline_tick`,
//! with no deadline: the synchronous round is the deadline nobody misses.
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
//! model-upload algorithms whose server *averages* payloads (FedAvg), a
//! damped stale model shrinks the average's total mass, so part
//! of FedAvg's degradation under this scheduler is the weighting scheme
//! itself rather than pure learning dynamics — use
//! [`StalenessWeight::Constant`] to isolate the reordering effect.

use super::in_flight::{require_devices, InFlight};
use super::scheduler::{
    derive_client_seed, derive_round_seed, DispatchOrder, EngineCore, RoundStats, Scheduler,
    StalenessWeight, TickReport,
};
use crate::algorithms::total_upload;
use crate::config::FedConfig;
use fedadmm_tensor::{TensorError, TensorResult};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

/// Configuration of a semi-asynchronous (deadline) schedule. How long each
/// client's job takes comes from the engine's
/// [`DeviceModel`](crate::heterogeneity::DeviceModel).
#[derive(Debug, Clone)]
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

    fn init(&mut self, _core: &mut EngineCore<'_>) -> TensorResult<()> {
        if !self.config.round_deadline.is_finite() || self.config.round_deadline <= 0.0 {
            return Err(TensorError::InvalidArgument(
                "round_deadline must be positive".to_string(),
            ));
        }
        Ok(())
    }

    fn tick(&mut self, core: &mut EngineCore<'_>) -> TensorResult<TickReport> {
        require_devices(core)?;
        let seed = core.config.seed ^ SEMI_ASYNC_SEED_SALT;
        deadline_tick(
            core,
            &mut self.in_flight,
            Some(self.config.round_deadline),
            self.config.staleness,
            seed,
        )
    }
}

/// Mixed into the run seed of [`SemiAsync`]'s round RNG (selection, epoch
/// draws, server randomness). It exists only to hold
/// `GOLDEN_SEMI_ASYNC_DIGEST` in `tests/engine_parity.rs`: without it a
/// deadline round draws what the synchronous round of the same seed draws.
const SEMI_ASYNC_SEED_SALT: u64 = 0x5EA1_A57C;

/// One deadline round on `in_flight`, its RNG seeded from `seed`: the tick
/// of [`SemiAsync`] and — with no deadline, [`StalenessWeight::Constant`]
/// and the run seed — of [`SyncRounds`](super::SyncRounds). A round with no
/// deadline delivers every job and records no arrival events.
pub(super) fn deadline_tick(
    core: &mut EngineCore<'_>,
    in_flight: &mut InFlight,
    deadline: Option<f64>,
    staleness: StalenessWeight,
    seed: u64,
) -> TensorResult<TickReport> {
    let start = Instant::now();
    let round = core.round();
    let mut round_rng = SmallRng::seed_from_u64(derive_round_seed(seed, round as u64));

    // 1. Select (everyone if the algorithm requires it, as `benchmark/`'s
    //    mirror does) and run fresh work on the idle selected clients
    //    against the *current* θ (zero-copy broadcast); clients still busy
    //    sit this round out.
    let num_clients = core.config.num_clients;
    let selected: Vec<usize> = if core.algorithm.requires_full_participation() {
        (0..num_clients).collect()
    } else {
        core.selector.select(num_clients, &mut round_rng)
    };
    let round_start = core.now();
    let orders = selected
        .into_iter()
        .filter(|&client_id| !in_flight.is_busy(client_id))
        .map(|client_id| DispatchOrder {
            client_id,
            epochs: core.work_schedule.epochs_for(client_id, &mut round_rng),
            snapshot: core.broadcast(),
            seed: derive_client_seed(core.config.seed, round as u64, client_id),
        })
        .collect();
    in_flight.dispatch(core, orders, round)?;

    // 2. The round ends at the deadline — or at the earliest arrival if the
    //    deadline would catch nothing (guaranteed progress); with no
    //    deadline, when the last job is due.
    let end = match deadline {
        Some(budget) => {
            let earliest = in_flight.earliest().ok_or_else(|| {
                TensorError::InvalidArgument("semi-async round has no work in flight".to_string())
            })?;
            (round_start + budget).max(earliest)
        }
        None => in_flight.latest().unwrap_or(round_start),
    };
    core.advance_clock(end);

    // 3. Charge every upload that is due as it arrives, staleness-weight it
    //    (τ = rounds missed), record a deadline round's arrivals and drop
    //    zero-weight updates; stragglers stay in flight.
    let mut report = TickReport::default();
    let delivered = in_flight.deliver(end);
    let mut kept = Vec::with_capacity(delivered.len());
    for mut job in delivered {
        let (tau, weight) = job.weigh(round, staleness);
        core.add_upload(job.message.upload_floats());
        core.add_wire_bytes(job.message.wire_bytes());
        if deadline.is_some() {
            let event = core.record_event(job.message.client_id, tau, weight, None);
            report.events.push(event);
        }
        if weight > 0.0 {
            kept.push(job.message);
        }
    }

    // 4. Aggregate the kept updates in one batch, free the uploads (folded
    //    into θ) so evaluation can reuse their memory, and evaluate.
    if !kept.is_empty() {
        core.in_span("aggregate", |core| core.aggregate(&kept, &mut round_rng));
    }
    let stats = RoundStats {
        num_selected: kept.len(),
        upload_floats: total_upload(&kept),
        total_local_epochs: kept.iter().map(|m| m.epochs_run).sum(),
        samples_processed: kept.iter().map(|m| m.samples_processed).sum(),
        wire_bytes: kept.iter().map(|m| m.wire_bytes()).sum(),
        elapsed_ms: start.elapsed().as_millis() as u64,
    };
    drop(kept);
    report.record = Some(core.record_round(stats)?);
    Ok(report)
}
