//! The synchronous round scheduler — the paper's Figure 1/2 protocol.

use super::scheduler::{
    derive_client_seed, derive_round_seed, DispatchOrder, EngineCore, RoundStats, Scheduler,
    TickReport,
};
use crate::config::FedConfig;
use fedadmm_tensor::TensorResult;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

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
/// With a [`DeviceModel`](crate::heterogeneity::DeviceModel) installed, each
/// round advances the virtual clock by the cohort maximum of
/// [`EngineCore::job_seconds`]: download, the epochs run, the wire bytes
/// sent.
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
        let start = Instant::now();
        let round = core.round();
        let mut round_rng =
            SmallRng::seed_from_u64(derive_round_seed(core.config.seed, round as u64));

        // 1. Client selection.
        let selected: Vec<usize> = if core.algorithm.requires_full_participation() {
            (0..core.config.num_clients).collect()
        } else {
            core.selector
                .select(core.config.num_clients, &mut round_rng)
        };

        // 2. Per-client epoch counts for this round (system heterogeneity),
        //    drawn in selection order from the round RNG.
        let base_seed = core.config.seed;
        let snapshot = core.broadcast();
        let orders: Vec<DispatchOrder> = selected
            .iter()
            .map(|&client_id| DispatchOrder {
                client_id,
                epochs: core.work_schedule.epochs_for(client_id, &mut round_rng),
                snapshot: snapshot.clone(),
                seed: derive_client_seed(base_seed, round as u64, client_id),
            })
            .collect();

        // 3. Local updates through the shared parallel dispatch path.
        let messages = core.in_span("dispatch", |core| core.dispatch(&orders))?;
        drop(orders);
        drop(snapshot);

        // 4. Server aggregation (single fused pass inside the algorithm).
        // True wire bytes: the quantized size when the wire path encoded
        // the uploads, dense 4·floats otherwise.
        let wire_bytes: usize = messages.iter().map(|m| m.wire_bytes()).sum();
        // The round lasts as long as its slowest client's download, local
        // work and (real, possibly quantized) upload; without a device
        // model the clock stays put.
        let slowest = messages
            .iter()
            .filter_map(|m| core.job_seconds(m))
            .fold(0.0, f64::max);
        core.advance_clock(core.now() + slowest);
        let total_local_epochs = messages.iter().map(|m| m.epochs_run).sum();
        let samples_processed = messages.iter().map(|m| m.samples_processed).sum();
        let outcome = core.in_span("aggregate", |core| {
            let outcome = core.aggregate(&messages, &mut round_rng);
            core.add_upload(outcome.upload_floats);
            core.add_wire_bytes(wire_bytes);
            outcome
        });
        // The uploads (|S_t|·d floats) are folded into θ: free them before
        // evaluation allocates, so its buffers can reuse that memory.
        drop(messages);

        // 5. Evaluation and bookkeeping.
        let record = core.record_round(RoundStats {
            num_selected: selected.len(),
            upload_floats: outcome.upload_floats,
            total_local_epochs,
            samples_processed,
            wire_bytes,
            elapsed_ms: start.elapsed().as_millis() as u64,
        })?;
        Ok(TickReport {
            record: Some(record),
            events: Vec::new(),
        })
    }

    fn setting_label(&self, config: &FedConfig) -> String {
        format!("{} clients", config.num_clients)
    }
}
