//! `TracedSync`: the synchronous round protocol, call for call as
//! `SyncRounds::tick` makes it, with a span around every call into a layer.
//!
//! The spans are recorded from here — outside the program — so the traced
//! run needs no instrumentation inside the engine. A traced run's
//! trajectory digest must equal the untraced run's: that is the proof that
//! this mirror is faithful, and the orchestrator checks it.
//!
//! This file and `probes.rs` are the only ones that reach below the
//! `fedadmm::prelude` façade.

use fedadmm::core::engine::scheduler::{
    derive_client_seed, derive_round_seed, DispatchOrder, EngineCore, RoundStats, TickReport,
};
use fedadmm::core::engine::Scheduler;
use fedadmm::tensor::TensorResult;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

/// The calls of one tick that get a span, in call order.
pub const PHASES: [&str; 5] = [
    "core.selection.select",
    "core.scheduler.orders",
    "core.dispatch",
    "core.aggregate",
    "core.record",
];
const TICK: &str = "core.scheduler.tick";

/// One recorded interval. `parent` is the index of the enclosing span in
/// the log (`None` for a tick); spans of one round share `round`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub round: usize,
}

/// A `SyncRounds` mirror that records spans in memory.
pub struct TracedSync {
    epoch: Instant,
    spans: Vec<Span>,
    shard_borrows: u64,
}

impl TracedSync {
    /// `rounds` sizes the span log up front so recording never reallocates
    /// inside a timed round.
    pub fn new(rounds: usize) -> Self {
        TracedSync {
            epoch: Instant::now(),
            spans: Vec::with_capacity(rounds * (PHASES.len() + 1)),
            shard_borrows: 0,
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Distinct store shards the cohorts touched, summed over rounds: the
    /// denominator of `clientstore.reload_ratio`.
    pub fn shard_borrows(&self) -> u64 {
        self.shard_borrows
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `call` inside a span named `name` under the tick span `parent`.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        round: usize,
        call: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now_ns();
        let out = call();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            round,
        });
        out
    }
}

impl Scheduler for TracedSync {
    fn name(&self) -> &'static str {
        "traced-sync"
    }

    fn tick(&mut self, core: &mut EngineCore<'_>) -> TensorResult<TickReport> {
        let start = Instant::now();
        let round = core.round();
        let tick = self.spans.len();
        let tick_start_ns = self.now_ns();
        self.spans.push(Span {
            name: TICK,
            start_ns: tick_start_ns,
            end_ns: tick_start_ns,
            parent: None,
            round,
        });
        let mut round_rng =
            SmallRng::seed_from_u64(derive_round_seed(core.config.seed, round as u64));

        let selected: Vec<usize> = self.span(PHASES[0], tick, round, || {
            if core.algorithm.requires_full_participation() {
                (0..core.config.num_clients).collect()
            } else {
                core.selector
                    .select(core.config.num_clients, &mut round_rng)
            }
        });

        let base_seed = core.config.seed;
        let (snapshot, orders) = self.span(PHASES[1], tick, round, || {
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
            (snapshot, orders)
        });

        let messages = self.span(PHASES[2], tick, round, || core.dispatch(&orders))?;
        drop(orders);
        drop(snapshot);

        let (outcome, wire_bytes) = self.span(PHASES[3], tick, round, || {
            let outcome = core.aggregate(&messages, &mut round_rng);
            core.add_upload(outcome.upload_floats);
            let wire_bytes: usize = messages.iter().map(|m| m.wire_bytes()).sum();
            core.add_wire_bytes(wire_bytes);
            (outcome, wire_bytes)
        });

        let record = self.span(PHASES[4], tick, round, || {
            core.record_round(RoundStats {
                num_selected: selected.len(),
                upload_floats: outcome.upload_floats,
                total_local_epochs: messages.iter().map(|m| m.epochs_run).sum(),
                samples_processed: messages.iter().map(|m| m.samples_processed).sum(),
                wire_bytes,
                elapsed_ms: start.elapsed().as_millis() as u64,
            })
        })?;
        self.spans[tick].end_ns = self.now_ns();
        // Bookkeeping of the benchmark's own, kept outside the tick span.
        self.shard_borrows += core.store.shard_map().group(&selected)?.len() as u64;
        Ok(TickReport {
            record: Some(record),
            events: Vec::new(),
        })
    }
}

/// Per-round durations of one traced pass, one series per phase plus the
/// tick itself, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct PhaseSeries {
    pub tick: Vec<u64>,
    /// Aligned with [`PHASES`].
    pub phases: [Vec<u64>; 5],
}

/// Splits a span log into per-round duration series.
pub fn phase_series(spans: &[Span]) -> PhaseSeries {
    let mut out = PhaseSeries::default();
    for span in spans {
        let duration = span.end_ns - span.start_ns;
        match PHASES.iter().position(|&p| p == span.name) {
            Some(k) => out.phases[k].push(duration),
            None => out.tick.push(duration),
        }
    }
    out
}

/// One span per line: `{"name", "start_ns", "end_ns", "parent", "round"}`.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for span in spans {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"round\":{}}}\n",
            span.name, span.start_ns, span.end_ns, parent, span.round
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_series_splits_by_name_and_keeps_round_order() {
        let span = |name, start_ns, end_ns, parent, round| Span {
            name,
            start_ns,
            end_ns,
            parent,
            round,
        };
        let spans = [
            span(TICK, 0, 100, None, 0),
            span(PHASES[0], 1, 11, Some(0), 0),
            span(PHASES[2], 20, 90, Some(0), 0),
            span(TICK, 100, 250, None, 1),
            span(PHASES[0], 101, 106, Some(3), 1),
        ];
        let series = phase_series(&spans);
        assert_eq!(series.tick, vec![100, 150]);
        assert_eq!(series.phases[0], vec![10, 5]);
        assert_eq!(series.phases[2], vec![70]);
        let jsonl = spans_jsonl(&spans);
        assert_eq!(jsonl.lines().count(), 5);
        assert!(jsonl.starts_with(
            "{\"name\":\"core.scheduler.tick\",\"start_ns\":0,\"end_ns\":100,\"parent\":null,\"round\":0}"
        ));
    }
}
