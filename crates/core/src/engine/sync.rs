//! The synchronous round scheduler — the paper's Figure 1/2 protocol, run
//! as the deadline round of [`SemiAsync`](super::SemiAsync) with no
//! deadline.

use super::in_flight::InFlight;
use super::scheduler::{EngineCore, Scheduler, StalenessWeight, TickReport};
use super::semi_async::deadline_tick;
use fedadmm_tensor::TensorResult;

/// Synchronous federated rounds — the paper's evaluation protocol:
///
/// 1. the server selects `S_t` (full participation if the algorithm
///    requires it),
/// 2. every selected client downloads the θ snapshot and runs its local
///    update in parallel over the engine's work-stealing
///    [`DispatchPool`](super::DispatchPool) (the server *waits for all of
///    them* — this is the straggler-bound protocol the paper's
///    system-heterogeneity experiments stress; within a round the pool
///    keeps fast workers busy around a slow client instead of letting a
///    static partition idle),
/// 3. the server aggregates all `|S_t|` messages in one pass and the new
///    model is evaluated.
///
/// That is [`SemiAsync`](super::SemiAsync)'s deadline round with no
/// deadline: every job is delivered at full weight and no arrival event is
/// recorded. With a [`DeviceModel`](crate::heterogeneity::DeviceModel)
/// installed, each round advances the virtual clock by the cohort maximum
/// of [`EngineCore::job_seconds`]: download, the epochs run, the wire bytes
/// sent. Without one the clock stays put.
///
/// RNG streams (selection, per-client epoch draws, per-client local
/// training) are derived from the run seed alone, so a seeded run produces
/// a byte-identical [`RunHistory`](crate::metrics::RunHistory) (pinned by
/// the engine-parity golden digests).
#[derive(Debug, Clone, Copy, Default)]
pub struct SyncRounds;

impl Scheduler for SyncRounds {
    fn name(&self) -> &'static str {
        "sync-rounds"
    }

    fn tick(&mut self, core: &mut EngineCore<'_>) -> TensorResult<TickReport> {
        let seed = core.config.seed;
        deadline_tick(
            core,
            &mut InFlight::default(),
            None,
            StalenessWeight::Constant,
            seed,
        )
    }
}
