//! The [`Scheduler`] trait and the [`EngineCore`] facilities it drives.
//!
//! A scheduler owns *when* client work is dispatched and *when* the server
//! aggregates; the engine owns everything else (datasets, client state, the
//! global model, metrics). One tick of the scheduler corresponds to one
//! scheduling decision:
//!
//! * [`SyncRounds`](super::SyncRounds) — a tick is a full synchronous round
//!   (select → dispatch all → aggregate all → evaluate): `SemiAsync`'s
//!   deadline round with no deadline;
//! * [`BufferedAsync`](super::BufferedAsync) — a tick is one *arrival*: the
//!   earliest in-flight client finishes, its update is staleness-weighted
//!   and buffered, and the buffer is flushed to the server once it holds
//!   `aggregate_after` updates;
//! * [`SemiAsync`](super::SemiAsync) — a tick is one *deadline round*: the
//!   server aggregates whatever arrived by the deadline and carries
//!   stragglers (with their stale snapshots) into later rounds.
//!
//! The engine's dispatch facilities guarantee two properties schedulers rely
//! on:
//!
//! 1. **zero-copy broadcast** — clients download θ as an
//!    [`Arc<ParamVector>`] snapshot; no per-client copy of the model is ever
//!    made (the server would clone θ only to mutate it while a snapshot is
//!    alive, and every built-in scheduler drops its snapshots in the tick
//!    that dispatched them);
//! 2. **schedule-independent randomness** — each dispatched job derives its
//!    RNG stream from `(seed, tick, client_id)`, so results do not depend
//!    on thread interleaving or on which scheduler issued the work.

use super::dispatch::{DispatchBatchStats, DispatchPool, DispatchScratch};
use super::wire::{decode_message, WirePath};
use crate::algorithms::{
    total_upload, Algorithm, ClientMessage, FoldPlan, FoldTerm, ServerOutcome,
};
use crate::client::ClientState;
use crate::config::FedConfig;
use crate::heterogeneity::{DeviceModel, LocalWorkSchedule};
use crate::metrics::{RoundRecord, RunHistory};
use crate::param::ParamVector;
use crate::selection::ClientSelector;
use crate::trainer::{eval_jobs, eval_logits_into, eval_span, mean_of_logits, LocalEnv};
use fedadmm_clientstore::{hierarchical_fold, ClientStateStore};
use fedadmm_data::Dataset;
use fedadmm_telemetry::{names, DispatchSummary, Event, RoundSummary, Telemetry};
use fedadmm_tensor::TensorResult;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How the server folds a round's payloads into θ.
///
/// The default single fused pass reproduces the legacy engine bit for bit.
/// Hierarchical aggregation is opt-in because float addition is not
/// associative: regrouping the sum by shard changes results in the last
/// ulps, so it must never be silently enabled under a byte-identity pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AggregationMode {
    /// One fused accumulator pass over all payloads in message order, cut
    /// by coordinate range into dispatch-pool jobs (the legacy behavior's
    /// bits for every worker count; byte-identical to the pre-store
    /// engine).
    #[default]
    SinglePass,
    /// Per-shard partial folds on the dispatch pool, then a log-depth
    /// pairwise combine. Requires the algorithm to expose a
    /// [`FoldPlan`](crate::algorithms::FoldPlan); falls back to
    /// [`SinglePass`](AggregationMode::SinglePass) when it does not.
    Hierarchical,
}

/// How an update's weight decays with its staleness τ (the number of server
/// aggregations since the client downloaded its model snapshot).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StalenessWeight {
    /// No damping: every update is applied at full weight (vanilla
    /// asynchronous aggregation).
    Constant,
    /// Polynomial damping `s(τ) = (1 + τ)^{-a}` (the common choice in
    /// asynchronous FL; `a = 0.5` is a typical value).
    Polynomial {
        /// Damping exponent `a ≥ 0`.
        exponent: f32,
    },
    /// Hard cutoff: updates staler than the bound are dropped entirely —
    /// the *bounded delay* assumption of asynchronous ADMM made literal.
    BoundedDelay {
        /// Maximum tolerated staleness.
        max_staleness: usize,
    },
}

impl StalenessWeight {
    /// The multiplicative weight applied to an update of staleness `tau`.
    pub fn weight(&self, tau: usize) -> f32 {
        match *self {
            StalenessWeight::Constant => 1.0,
            StalenessWeight::Polynomial { exponent } => (1.0 + tau as f32).powf(-exponent.max(0.0)),
            StalenessWeight::BoundedDelay { max_staleness } => {
                if tau > max_staleness {
                    0.0
                } else {
                    1.0
                }
            }
        }
    }
}

/// One applied (or dropped) client arrival in an event-driven schedule.
#[derive(Debug, Clone)]
pub struct AsyncRecord {
    /// Sequence number of the event (0-based, in application order).
    pub event: usize,
    /// Virtual time at which the update arrived at the server.
    pub sim_time: f64,
    /// The client that produced the update.
    pub client_id: usize,
    /// Staleness τ of the update (server aggregations since its snapshot).
    pub staleness: usize,
    /// The weight the update was applied with (0 means it was dropped).
    pub weight: f32,
    /// Test accuracy after applying the update (`None` between evaluation
    /// points, to keep the simulation affordable).
    pub test_accuracy: Option<f32>,
    /// Cumulative floats uploaded to the server so far.
    pub cumulative_upload_floats: usize,
}

/// A unit of client work issued by a scheduler.
#[derive(Debug, Clone)]
pub struct DispatchOrder {
    /// The client that runs the work.
    pub client_id: usize,
    /// Local epochs to run.
    pub epochs: usize,
    /// The model snapshot the client downloads (shared, never copied).
    pub snapshot: Arc<ParamVector>,
    /// Seed of the client's local RNG stream, derived from
    /// `(base seed, tick, client_id)` so results are schedule-independent.
    pub seed: u64,
}

/// What a completed aggregation contributes to the run history.
#[derive(Debug, Clone, Copy)]
pub struct RoundStats {
    /// Number of client updates aggregated (`|S_t|`, or the buffer size).
    pub num_selected: usize,
    /// Floats uploaded by clients for this record (0 for
    /// [`BufferedAsync`](super::BufferedAsync), which accounts uploads per
    /// event instead).
    pub upload_floats: usize,
    /// Total local epochs run across the aggregated updates.
    pub total_local_epochs: usize,
    /// Total samples processed across the aggregated updates.
    pub samples_processed: usize,
    /// True wire bytes of this record's uploads (quantized size when the
    /// wire path is on, dense `4 · upload_floats` otherwise; 0 for
    /// `BufferedAsync`, which accounts uploads per event).
    pub wire_bytes: usize,
    /// Wall-clock milliseconds the scheduler spent producing this record
    /// (virtual time is read from the engine's clock instead).
    pub elapsed_ms: u64,
}

/// What one scheduler tick produced.
#[derive(Debug, Clone, Default)]
pub struct TickReport {
    /// The history record pushed this tick, if the tick completed a round.
    pub record: Option<RoundRecord>,
    /// Arrival events recorded this tick (event-driven schedules only).
    pub events: Vec<AsyncRecord>,
}

/// Derives the seed of a client's local RNG stream from the run seed, the
/// dispatch tick and the client id. The same constants as the legacy
/// engines, so seeded runs reproduce across the refactor.
pub fn derive_client_seed(base_seed: u64, tick: u64, client_id: usize) -> u64 {
    base_seed
        ^ tick.wrapping_mul(0x517C_C1B7_2722_0A95)
        ^ (client_id as u64).wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Derives the per-round server RNG seed (selection, epoch draws,
/// algorithm server randomness) — same constant as the legacy sync engine.
pub fn derive_round_seed(base_seed: u64, round: u64) -> u64 {
    base_seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Mutable view of the engine a scheduler drives during one tick.
///
/// The engine lends the scheduler everything it needs: the federated state
/// (clients, global model, algorithm), the plumbing facilities
/// ([`EngineCore::dispatch`], [`EngineCore::aggregate`],
/// [`EngineCore::evaluate_global`]) and the bookkeeping sinks
/// ([`EngineCore::record_round`], [`EngineCore::record_event`]).
pub struct EngineCore<'a> {
    /// The run configuration.
    pub config: &'a FedConfig,
    /// The shared training set.
    pub train: &'a Dataset,
    /// The held-out test set.
    pub test: &'a Dataset,
    /// Per-client persistent state, behind the pluggable store backend.
    pub store: &'a mut dyn ClientStateStore,
    /// The global model θ (shared snapshot handle).
    pub global: &'a mut Arc<ParamVector>,
    /// The federated algorithm.
    pub algorithm: &'a mut dyn Algorithm,
    /// The client-selection scheme.
    pub selector: &'a dyn ClientSelector,
    /// The local-work (epoch count) schedule.
    pub work_schedule: &'a LocalWorkSchedule,
    /// The device model behind the virtual clock, if one is installed.
    pub(super) devices: Option<&'a DeviceModel>,
    pub(super) history: &'a mut RunHistory,
    pub(super) events: &'a mut Vec<AsyncRecord>,
    pub(super) clock: &'a mut f64,
    pub(super) cumulative_upload: &'a mut usize,
    pub(super) cumulative_wire_bytes: &'a mut usize,
    pub(super) round: &'a mut usize,
    /// Observability hooks (the engine's `with_telemetry` hook, or the
    /// no-op default). Schedulers mark phases with [`EngineCore::in_span`].
    pub(super) telemetry: &'a mut dyn Telemetry,
    /// Index into `events` of the first arrival not yet attributed to a
    /// round record (advanced by [`EngineCore::record_round`]).
    pub(super) event_mark: &'a mut usize,
    /// How [`EngineCore::aggregate`] folds payloads into θ.
    pub(super) aggregation: AggregationMode,
    /// The persistent worker pool behind [`EngineCore::dispatch`].
    pub(super) pool: &'a DispatchPool,
    /// The wire path (upload compression + privacy), `None` when uploads
    /// stay dense. See [`super::wire`].
    pub(super) wire: Option<&'a WirePath>,
}

/// One dispatch job in flight on the pool: the worker that claims the job
/// takes the `(order, state)` input exactly once and leaves its result.
struct JobSlot<'o, 's> {
    input: Option<(&'o DispatchOrder, &'s mut ClientState)>,
    output: Option<(usize, TensorResult<ClientMessage>, f64)>,
}

/// What every job of one dispatch shares, read-only.
#[derive(Clone, Copy)]
struct JobContext<'a> {
    algorithm: &'a dyn Algorithm,
    train: &'a Dataset,
    config: &'a FedConfig,
    wire: Option<&'a WirePath>,
    /// Whether jobs read the clock. Gated on `Telemetry::enabled`, so with
    /// the no-op hook the hot path is identical to an uninstrumented build.
    timed: bool,
}

impl JobContext<'_> {
    /// Runs one client's local update on a worker's scratch arena — the
    /// job body behind [`EngineCore::dispatch`] — and returns the result
    /// with the seconds it took (0.0 when untimed).
    fn run(
        &self,
        order: &DispatchOrder,
        client: &mut ClientState,
        scratch: &mut DispatchScratch,
    ) -> (TensorResult<ClientMessage>, f64) {
        let DispatchScratch {
            indices,
            update,
            wire_codes,
        } = scratch;
        indices.clear();
        indices.extend_from_slice(&client.indices);
        let env = LocalEnv {
            dataset: self.train,
            indices,
            model: self.config.model,
            epochs: order.epochs,
            batch_size: self.config.batch_size,
            learning_rate: self.config.local_learning_rate,
            seed: order.seed,
        };
        let start = self.timed.then(Instant::now);
        let mut result =
            self.algorithm
                .client_update_scratch(client, &order.snapshot, &env, update);
        if let (Some(wire), Ok(message)) = (self.wire, result.as_mut()) {
            // Privatize + quantize on the worker, through its reusable
            // code buffer — the fused client edge.
            wire.encode(message, order.seed, wire_codes);
        }
        (result, start.map_or(0.0, |s| s.elapsed().as_secs_f64()))
    }
}

/// `d · |terms|` below which the server fold stays one range: about 40 µs
/// of folding at the ≈ 0.16 ns per float-term a 192-message fold runs at,
/// while an empty two-job pool batch takes 14–35 µs on a 2-vCPU host — so
/// below it a split saves nothing.
const FOLD_GRAIN: usize = 1 << 18;

/// Fold range boundaries are multiples of this many floats (64 bytes, one
/// cache line), so the jobs of a line-aligned θ write disjoint lines.
const FOLD_ALIGN: usize = 16;

/// Coordinates per range when a `dim`-coordinate fold of `terms` terms is
/// cut for `workers` pool workers: all of θ below [`FOLD_GRAIN`], else
/// `⌈dim / workers⌉` rounded up to a multiple of [`FOLD_ALIGN`] — so at most
/// `workers` ranges, fewer when θ is short.
fn fold_span(dim: usize, terms: usize, workers: usize) -> usize {
    let ranges = if dim * terms < FOLD_GRAIN { 1 } else { workers };
    dim.div_ceil(ranges.max(1))
        .next_multiple_of(FOLD_ALIGN)
        .max(FOLD_ALIGN)
}

/// Evaluates `global` on the first `config.eval_subset` test samples: at
/// most one [`eval_logits_into`] job per pool worker, each pushing a
/// contiguous span of samples through its worker's cached network in
/// training-sized forward passes and writing the logits rows into its share
/// of one buffer; the caller then reduces the rows chunk by chunk
/// ([`mean_of_logits`]). A sample's logits do not depend on its batch
/// neighbours and the reduction is over fixed chunks in chunk order, so the
/// result has the bits of [`evaluate`](crate::trainer::evaluate) for every
/// worker count. The first failed job in sample order is the error returned.
pub(super) fn evaluate_on_pool(
    pool: &DispatchPool,
    config: &FedConfig,
    global: &ParamVector,
    test: &Dataset,
) -> TensorResult<(f32, f32)> {
    let n = test.len().min(config.eval_subset);
    let classes = config.model.num_classes();
    let jobs = eval_jobs(n, pool.workers());
    let mut logits = vec![0.0f32; n * classes];
    let mut rest = logits.as_mut_slice();
    let slots: Vec<Mutex<(&mut [f32], TensorResult<()>)>> = (0..jobs)
        .map(|job| {
            let (rows, tail) =
                std::mem::take(&mut rest).split_at_mut(eval_span(job, jobs, n).len() * classes);
            rest = tail;
            Mutex::new((rows, Ok(())))
        })
        .collect();
    pool.run(jobs, false, &|_worker, job, scratch| {
        let mut slot = slots[job].lock().expect("eval slot lock");
        let (rows, outcome) = &mut *slot;
        *outcome = eval_logits_into(
            config.model,
            global.as_slice(),
            test,
            eval_span(job, jobs, n),
            &mut scratch.update.net,
            &mut scratch.update.train,
            rows,
        );
    });
    for slot in slots {
        slot.into_inner().expect("eval slot lock").1?;
    }
    pool.with_scratch(|scratch| {
        mean_of_logits(
            &logits,
            classes,
            &test.labels()[..n],
            &mut scratch.update.train,
        )
    })
}

impl EngineCore<'_> {
    /// The current virtual time.
    pub fn now(&self) -> f64 {
        *self.clock
    }

    /// Advances the virtual clock (monotone; earlier times are ignored).
    pub fn advance_clock(&mut self, to: f64) {
        if to > *self.clock {
            *self.clock = to;
        }
    }

    /// Virtual seconds the job behind `message` takes on its client's
    /// device: downloading θ, the epochs it ran and uploading the bytes it
    /// sent. `None` without a [`DeviceModel`]. Every scheduler times its
    /// jobs this way.
    pub fn job_seconds(&self, message: &ClientMessage) -> Option<f64> {
        let download = 4 * self.global.len();
        self.devices.map(|devices| {
            devices.job_seconds(
                message.client_id,
                message.epochs_run,
                download,
                message.wire_bytes(),
            )
        })
    }

    /// Number of rounds recorded so far.
    pub fn round(&self) -> usize {
        *self.round
    }

    /// Cumulative floats uploaded so far.
    pub fn cumulative_upload(&self) -> usize {
        *self.cumulative_upload
    }

    /// Accounts client → server communication.
    pub fn add_upload(&mut self, floats: usize) {
        *self.cumulative_upload += floats;
        self.telemetry.on_event(&Event::Upload { floats });
    }

    /// Accounts client → server communication in true wire bytes (the
    /// quantized size for wire-path uploads, `4 · floats` dense).
    pub fn add_wire_bytes(&mut self, bytes: usize) {
        *self.cumulative_wire_bytes += bytes;
        self.telemetry.on_event(&Event::WireUpload { bytes });
    }

    /// Cumulative wire bytes uploaded so far.
    pub fn cumulative_wire_bytes(&self) -> usize {
        *self.cumulative_wire_bytes
    }

    /// Runs `f` as a named phase of the current round: a telemetry span
    /// that opens before `f` and closes after it, whatever `f` returns.
    pub fn in_span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let round = *self.round;
        self.telemetry.on_event(&Event::SpanStart { name, round });
        let out = f(self);
        self.telemetry.on_event(&Event::SpanEnd { name, round });
        out
    }

    /// A zero-copy broadcast handle to the current global model: clients
    /// share the allocation instead of copying θ.
    pub fn broadcast(&self) -> Arc<ParamVector> {
        Arc::clone(self.global)
    }

    /// Evaluates the global model on the test set: `(loss, accuracy)`, at
    /// most one forward-only pool job per worker.
    pub fn evaluate_global(&self) -> TensorResult<(f32, f32)> {
        evaluate_on_pool(self.pool, self.config, self.global, self.test)
    }

    /// Timed runs: `order` pulled one θ snapshot.
    fn report_download(&mut self, order: &DispatchOrder) {
        self.telemetry.on_event(&Event::Download {
            round: *self.round,
            client: order.client_id,
            floats: order.snapshot.len(),
        });
    }

    /// Timed runs: `client`'s job took `seconds` on its worker.
    fn report_update(&mut self, client: usize, seconds: f64, message: &ClientMessage) {
        self.telemetry.on_event(&Event::ClientUpdate {
            round: *self.round,
            client,
            seconds,
            epochs: message.epochs_run,
            samples: message.samples_processed,
        });
    }

    /// Runs a batch of orders through the shared parallel dispatch path.
    ///
    /// Work is self-scheduled over the engine's persistent
    /// [`DispatchPool`]; because each order carries its own derived seed,
    /// the outcome is independent of the thread schedule, the worker count
    /// and the chunk size. Messages are returned sorted by client id, and
    /// the first error (in client-id order) is propagated. A one-order
    /// batch runs inline on the pool's serial scratch arena.
    ///
    /// # Panics
    /// Panics if an order targets an unknown client, or two orders target
    /// the same client (a scheduler bug: a client cannot run two local
    /// updates concurrently).
    pub fn dispatch(&mut self, orders: &[DispatchOrder]) -> TensorResult<Vec<ClientMessage>> {
        if orders.is_empty() {
            return Ok(Vec::new());
        }
        // Validate the batch before borrowing any state: every order must
        // target a known client, and no client may appear twice.
        for order in orders {
            assert!(
                order.client_id < self.store.num_clients(),
                "dispatch order for unknown client {}",
                order.client_id
            );
        }
        let mut by_id: Vec<usize> = (0..orders.len()).collect();
        by_id.sort_by_key(|&k| orders[k].client_id);
        for pair in by_id.windows(2) {
            assert!(
                orders[pair[0]].client_id != orders[pair[1]].client_id,
                "client {} dispatched twice in one batch",
                orders[pair[1]].client_id
            );
        }
        // The ascending cohort the store materializes — O(selected) work
        // even when most of the population has never been touched.
        let ids: Vec<usize> = by_id.iter().map(|&k| orders[k].client_id).collect();

        // Jobs are claimed chunk-wise from the pool's shared cursor, each
        // worker reusing its own scratch arena. Job slots are built (and
        // drained) in ascending client-id order, so the result order is
        // schedule-independent by construction.
        let timed = self.telemetry.enabled();
        let job = JobContext {
            algorithm: &*self.algorithm,
            train: self.train,
            config: self.config,
            wire: self.wire,
            timed,
        };
        let pool = self.pool;
        let mut results: Vec<(usize, TensorResult<ClientMessage>, f64)> =
            Vec::with_capacity(orders.len());
        let mut batch = DispatchBatchStats::default();
        self.store.with_states(&ids, &mut |states| {
            let slots: Vec<Mutex<JobSlot<'_, '_>>> = states
                .iter_mut()
                .zip(&by_id)
                .map(|(client, &k)| {
                    Mutex::new(JobSlot {
                        input: Some((&orders[k], &mut **client)),
                        output: None,
                    })
                })
                .collect();
            batch = pool.run(slots.len(), timed, &|_worker, index, scratch| {
                let mut slot = slots[index].lock().expect("job slot lock");
                let (order, client) = slot.input.take().expect("each job claimed once");
                let (result, seconds) = job.run(order, client, scratch);
                slot.output = Some((client.id, result, seconds));
            });
            for slot in slots {
                let slot = slot.into_inner().expect("job slot lock");
                results.push(slot.output.expect("every job ran"));
            }
            Ok(())
        })?;
        debug_assert!(results.windows(2).all(|w| w[0].0 < w[1].0));
        self.collect_messages(orders, results, batch)
    }

    /// The tail of [`EngineCore::dispatch`]: accounts downloads, emits the batch summary,
    /// propagates the first error in client-id order and unwraps messages.
    fn collect_messages(
        &mut self,
        orders: &[DispatchOrder],
        results: Vec<(usize, TensorResult<ClientMessage>, f64)>,
        batch: DispatchBatchStats,
    ) -> TensorResult<Vec<ClientMessage>> {
        let timed = self.telemetry.enabled();
        if timed {
            // Downloads are accounted at dispatch time.
            for order in orders {
                self.report_download(order);
            }
            self.telemetry.on_event(&Event::Dispatch {
                round: *self.round,
                summary: DispatchSummary {
                    jobs: batch.jobs,
                    workers: batch.workers,
                    chunk_size: batch.chunk_size,
                    chunks: batch.chunks,
                    steals: batch.steals,
                    busy_seconds: &batch.busy_seconds,
                },
            });
        }
        let mut messages = Vec::with_capacity(results.len());
        for (client, result, seconds) in results {
            let message = result?;
            if timed {
                self.report_update(client, seconds, &message);
            }
            messages.push(message);
        }
        Ok(messages)
    }

    /// Applies a batch of messages to θ — the server step.
    ///
    /// θ is mutated copy-on-write: if client snapshots of the current θ are
    /// still alive, the allocation is cloned once; otherwise the update
    /// happens in place.
    ///
    /// The algorithm is asked for its [`FoldPlan`] once. A batch of
    /// single-vector uploads — all dense, or all coded by the wire path —
    /// with a plan is folded by [`EngineCore::apply_plan`]: one fused pass,
    /// in the coded domain when the uploads are coded, one dispatch-pool job
    /// per coordinate range of θ — or per shard under
    /// [`AggregationMode::Hierarchical`]. Every other
    /// batch (stateful or stochastic server steps, SCAFFOLD's two-vector
    /// uploads) goes to the algorithm's own `server_update`, coded messages
    /// decoded first ([`decode_message`]) — correct, at one extra O(d)
    /// sweep per message.
    pub fn aggregate(
        &mut self,
        messages: &[ClientMessage],
        rng: &mut dyn rand::RngCore,
    ) -> ServerOutcome {
        let timed = self.telemetry.enabled();
        let start = timed.then(Instant::now);
        let num_clients = self.config.num_clients;
        let dense = messages.iter().all(|m| m.wire.is_none());
        let coded = |m: &ClientMessage| m.wire.as_ref().is_some_and(|w| w.vectors.len() == 1);
        let plan = if dense || messages.iter().all(coded) {
            self.algorithm.fold_plan(messages, num_clients)
        } else {
            None
        };
        let outcome = match plan {
            Some(plan) => {
                if dense {
                    self.apply_plan(&plan, messages, plan.dense_terms(messages), timed);
                } else {
                    // The span lets instrumented runs count one fused pass
                    // per aggregation.
                    self.in_span("fuse_pass", |core| {
                        core.apply_plan(&plan, messages, plan.coded_terms(messages), timed)
                    });
                }
                ServerOutcome {
                    upload_floats: total_upload(messages),
                }
            }
            None => {
                let decoded: Vec<ClientMessage>;
                let messages = if dense {
                    messages
                } else {
                    decoded = messages.iter().map(decode_message).collect();
                    &decoded
                };
                let global = Arc::make_mut(self.global);
                self.algorithm
                    .server_update(global, messages, num_clients, rng)
            }
        };
        if let Some(start) = start {
            self.telemetry.on_event(&Event::Aggregate {
                round: *self.round,
                num_messages: messages.len(),
                seconds: start.elapsed().as_secs_f64(),
            });
        }
        outcome
    }

    /// Folds one term per message into θ as `plan` says.
    ///
    /// [`AggregationMode::SinglePass`]: θ is cut into at most one contiguous
    /// coordinate range per pool worker ([`fold_span`]; one range below a
    /// fixed grain of `d · |terms|`), and every range is folded as one job
    /// on the dispatch pool — idle between dispatches, as for evaluation.
    /// Each coordinate's sum is computed by one job, over all the terms in
    /// message order, so θ gets the bits of the serial [`FoldPlan::apply`]
    /// for every worker count and schedule.
    ///
    /// [`AggregationMode::Hierarchical`]: the terms are grouped by the
    /// sender's shard (ascending shard order, whatever the arrival order),
    /// every shard's group is summed as a job on the dispatch pool, the
    /// partials are combined pairwise and the sum is applied to θ.
    fn apply_plan<T: FoldTerm>(
        &mut self,
        plan: &FoldPlan,
        messages: &[ClientMessage],
        terms: Vec<T>,
        timed: bool,
    ) {
        if self.aggregation != AggregationMode::Hierarchical {
            let span = fold_span(self.global.len(), terms.len(), self.pool.workers());
            let assign = plan.assigns();
            let global = Arc::make_mut(self.global).as_mut_slice();
            let jobs = global.len().div_ceil(span);
            let ranges = Mutex::new(global.chunks_mut(span).enumerate());
            self.pool.run(jobs, false, &|_worker, _job, _scratch| {
                let (range, out) = ranges
                    .lock()
                    .expect("fold range lock")
                    .next()
                    .expect("one range per job");
                T::fold(&terms, assign, range * span, out);
            });
            return;
        }
        let map = self.store.shard_map();
        let mut by_shard: BTreeMap<usize, Vec<T>> = BTreeMap::new();
        for (msg, term) in messages.iter().zip(terms) {
            by_shard
                .entry(map.shard_of(msg.client_id))
                .or_default()
                .push(term);
        }
        let groups: Vec<(usize, Vec<T>)> = by_shard.into_iter().collect();
        let pool = self.pool;
        let (delta, shard_stats) = hierarchical_fold(
            self.global.len(),
            &groups,
            timed,
            |terms, partial| T::fold(terms, true, 0, partial.as_mut_slice()),
            |shards, fold_shard| {
                pool.run(shards, false, &|_worker, shard, _scratch| fold_shard(shard));
            },
        );
        if timed {
            for stat in &shard_stats {
                self.telemetry.on_event(&Event::ShardFold {
                    round: *self.round,
                    shard: stat.shard,
                    messages: stat.messages,
                    seconds: stat.seconds,
                });
            }
        }
        let global = Arc::make_mut(self.global);
        match plan {
            FoldPlan::Accumulate(_) => global.axpy(1.0, &delta),
            FoldPlan::Assign(_) => global.copy_from(&delta),
        }
    }

    /// Evaluates θ, pushes a [`RoundRecord`] built from `stats` and returns
    /// it. Increments the round counter.
    ///
    /// The record also absorbs the staleness distribution of every arrival
    /// event recorded since the previous round closed (always zero for
    /// synchronous schedules, which record no events).
    pub fn record_round(&mut self, stats: RoundStats) -> TensorResult<RoundRecord> {
        let eval_start = self.telemetry.enabled().then(Instant::now);
        let (test_loss, test_accuracy) = self.evaluate_global()?;
        if let Some(start) = eval_start {
            self.telemetry.on_event(&Event::Eval {
                round: *self.round,
                seconds: start.elapsed().as_secs_f64(),
            });
        }
        let window = &self.events[*self.event_mark..];
        let staleness_mean = if window.is_empty() {
            0.0
        } else {
            window.iter().map(|e| e.staleness).sum::<usize>() as f64 / window.len() as f64
        };
        let staleness_max = window.iter().map(|e| e.staleness).max().unwrap_or(0);
        *self.event_mark = self.events.len();
        // Dense bytes are what the uploads would have cost uncompressed;
        // with the wire path off the schedulers report exactly that, so
        // the ratio is 1.0 and the record is unchanged.
        let dense_bytes = 4 * stats.upload_floats;
        let wire_bytes = if stats.wire_bytes > 0 {
            stats.wire_bytes
        } else {
            dense_bytes
        };
        let dense_wire_ratio = if wire_bytes > 0 {
            dense_bytes as f64 / wire_bytes as f64
        } else {
            1.0
        };
        let record = RoundRecord {
            round: *self.round,
            test_accuracy,
            test_loss,
            num_selected: stats.num_selected,
            upload_floats: stats.upload_floats,
            cumulative_upload_floats: *self.cumulative_upload,
            total_local_epochs: stats.total_local_epochs,
            samples_processed: stats.samples_processed,
            wire_bytes,
            dense_wire_ratio,
            elapsed_ms: stats.elapsed_ms,
            virtual_seconds: *self.clock,
            staleness_mean,
            staleness_max,
        };
        self.telemetry.on_event(&Event::RoundEnd(RoundSummary {
            round: record.round,
            wall_seconds: record.elapsed_ms as f64 / 1000.0,
            num_selected: record.num_selected,
            upload_floats: record.upload_floats,
            test_accuracy: record.test_accuracy as f64,
            test_loss: record.test_loss as f64,
            staleness_mean,
            staleness_max,
        }));
        if self.telemetry.enabled() {
            self.telemetry.on_event(&Event::Gauge {
                name: names::STORE_RESIDENT_BYTES,
                value: self.store.resident_bytes() as f64,
            });
            let stats = self.store.stats();
            self.telemetry.on_event(&Event::StoreStats {
                materializations: stats.materializations,
                spill_writes: stats.spill_writes,
                spill_loads: stats.spill_loads,
                evictions: stats.evictions,
            });
        }
        self.history.push(record.clone());
        *self.round += 1;
        Ok(record)
    }

    /// Records one arrival event (event-driven schedules), filling in the
    /// event index, current virtual time and cumulative upload count: the
    /// floats charged so far plus `pending_upload`, received but charged
    /// later (a deadline round charges its uploads when it aggregates).
    pub fn record_event(
        &mut self,
        client_id: usize,
        staleness: usize,
        weight: f32,
        pending_upload: usize,
        test_accuracy: Option<f32>,
    ) -> AsyncRecord {
        let record = AsyncRecord {
            event: self.events.len(),
            sim_time: *self.clock,
            client_id,
            staleness,
            weight,
            test_accuracy,
            cumulative_upload_floats: *self.cumulative_upload + pending_upload,
        };
        self.telemetry.on_event(&Event::Arrival {
            client: client_id,
            staleness,
            weight,
        });
        self.events.push(record.clone());
        record
    }
}

/// A round-scheduling policy driving the [`RoundEngine`](super::RoundEngine).
pub trait Scheduler: Send {
    /// Scheduler name used in labels and logs.
    fn name(&self) -> &'static str;

    /// The `setting` string recorded in the run history.
    fn setting_label(&self, config: &FedConfig) -> String {
        format!("{} clients", config.num_clients)
    }

    /// Called once before the first tick; validates the scheduler's
    /// configuration against the engine's and primes internal state (e.g.
    /// seeds an RNG). Runs inside `RoundEngine::new`, before
    /// any builder (`with_devices`, `with_work_schedule`, …).
    fn init(&mut self, core: &mut EngineCore<'_>) -> TensorResult<()> {
        let _ = core;
        Ok(())
    }

    /// Advances the schedule by one decision (one synchronous round, one
    /// arrival, or one deadline round) and reports what happened.
    fn tick(&mut self, core: &mut EngineCore<'_>) -> TensorResult<TickReport>;
}

impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn setting_label(&self, config: &FedConfig) -> String {
        (**self).setting_label(config)
    }
    fn init(&mut self, core: &mut EngineCore<'_>) -> TensorResult<()> {
        (**self).init(core)
    }
    fn tick(&mut self, core: &mut EngineCore<'_>) -> TensorResult<TickReport> {
        (**self).tick(core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::FedAvg;
    use crate::config::DataDistribution;
    use crate::engine::RoundEngine;
    use fedadmm_data::synthetic::SyntheticDataset;
    use fedadmm_nn::models::ModelSpec;
    use fedadmm_tensor::vecops::{self, DequantTerm};

    /// A scheduler whose tick lends the engine core to a closure.
    struct WithCore<F>(F);

    impl<F: FnMut(&mut EngineCore<'_>) + Send> Scheduler for WithCore<F> {
        fn name(&self) -> &'static str {
            "with-core"
        }

        fn tick(&mut self, core: &mut EngineCore<'_>) -> TensorResult<TickReport> {
            (self.0)(core);
            Ok(TickReport::default())
        }
    }

    /// Runs `f` on the core of a two-client engine whose pool has `workers`
    /// workers (`None`: the engine's default pool, `FEDADMM_DISPATCH_WORKERS`
    /// or the host's core count).
    fn on_core(workers: Option<usize>, f: impl FnMut(&mut EngineCore<'_>) + Send) {
        let config = FedConfig {
            num_clients: 2,
            model: ModelSpec::Logistic {
                input_dim: 784,
                num_classes: 10,
            },
            ..FedConfig::default()
        };
        let (train, test) = SyntheticDataset::Mnist.generate(8, 4, 1);
        let partition = DataDistribution::Iid.partition(&train, 2, 1);
        let mut engine =
            RoundEngine::new(config, train, test, partition, FedAvg::new(), WithCore(f)).unwrap();
        if let Some(workers) = workers {
            engine = engine.with_dispatch_workers(workers);
        }
        engine.step().unwrap();
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// One fold case: `k` dense payloads and `k` coded ones of length `d`,
    /// non-integer values whose sums round, so a change of summation order
    /// shows in the bits.
    struct Case {
        d: usize,
        theta: ParamVector,
        coefficients: Vec<f32>,
        payloads: Vec<ParamVector>,
        codes: Vec<Vec<u16>>,
    }

    impl Case {
        fn new(d: usize, k: usize) -> Self {
            let value = |i: usize, j: usize| ((i * 7 + j * 13) % 101) as f32 * 0.0137 - 0.6;
            Case {
                d,
                theta: ParamVector::from_vec((0..d).map(|i| value(i, 5) * 3.1).collect()),
                coefficients: (0..k).map(|j| 0.3 + (j % 17) as f32 * 0.0193).collect(),
                payloads: (0..k)
                    .map(|j| ParamVector::from_vec((0..d).map(|i| value(i, j)).collect()))
                    .collect(),
                codes: (0..k)
                    .map(|j| (0..d).map(|i| ((i * 31 + j * 7) % 256) as u16).collect())
                    .collect(),
            }
        }

        fn dense_terms(&self) -> Vec<(f32, &ParamVector)> {
            self.coefficients
                .iter()
                .copied()
                .zip(&self.payloads)
                .collect()
        }

        fn coded_terms(&self) -> Vec<DequantTerm<'_>> {
            self.coefficients
                .iter()
                .zip(&self.codes)
                .enumerate()
                .map(|(j, (&alpha, codes))| DequantTerm {
                    alpha,
                    min: -0.5 + j as f32 * 1e-3,
                    step: (1 + j % 3) as f32 / 255.0,
                    codes,
                })
                .collect()
        }

        /// θ after the serial `FoldPlan::apply` of `terms`, checked against
        /// one kernel call over all the terms (`kernel`).
        fn serial<T: FoldTerm>(
            &self,
            plan: &FoldPlan,
            terms: &[T],
            kernel: impl FnOnce(&mut [f32]),
        ) -> Vec<u32> {
            let mut folded = self.theta.clone();
            plan.apply(terms, &mut folded);
            let mut whole = self.theta.clone();
            kernel(whole.as_mut_slice());
            assert_eq!(
                bits(folded.as_slice()),
                bits(whole.as_slice()),
                "d = {}",
                self.d
            );
            bits(folded.as_slice())
        }

        /// θ after `apply_plan` on `core`, with a live snapshot of θ held
        /// across the fold when `snapshot` is set.
        fn on_pool<T: FoldTerm + Clone>(
            &self,
            core: &mut EngineCore<'_>,
            plan: &FoldPlan,
            terms: &[T],
            snapshot: bool,
        ) -> Vec<u32> {
            *core.global = Arc::new(self.theta.clone());
            let live = snapshot.then(|| core.broadcast());
            core.apply_plan(plan, &[], terms.to_vec(), false);
            if let Some(live) = live {
                assert!(!Arc::ptr_eq(&live, core.global), "θ was cloned");
                assert_eq!(bits(live.as_slice()), bits(self.theta.as_slice()));
            }
            bits(core.global.as_slice())
        }
    }

    /// `apply_plan` cuts θ into coordinate ranges on the pool; for pools of
    /// 1, 2, 3 and 8 workers and the engine's default pool (CI pins 1 and
    /// 3), every θ length (around the 16-float range boundaries, and shorter
    /// than 16 per worker) and plan kind, dense and coded, it must
    /// give the bits of the serial full-range fold — below the grain (one
    /// range, inline) and at it (one range per worker, as θ allows).
    #[test]
    fn range_split_fold_equals_the_serial_fold_bit_for_bit() {
        let cases: Vec<Case> = [1usize, 15, 16, 17, 1_000, 7_850, 50_890]
            .into_iter()
            .flat_map(|d| [Case::new(d, 3), Case::new(d, FOLD_GRAIN.div_ceil(d))])
            .collect();
        let plans = |case: &Case| {
            [
                FoldPlan::Accumulate(case.coefficients.clone()),
                FoldPlan::Assign(case.coefficients.clone()),
            ]
        };
        // The serial references, each equal to one kernel call over every
        // term.
        let mut want = Vec::new();
        for case in &cases {
            let (dense, coded) = (case.dense_terms(), case.coded_terms());
            for plan in plans(case) {
                let assign = plan.assigns();
                want.push(case.serial(&plan, &dense, |out| {
                    let alphas = &case.coefficients;
                    let xs: Vec<&[f32]> = case.payloads.iter().map(|p| p.as_slice()).collect();
                    if assign {
                        vecops::weighted_sum_into(alphas, &xs, out)
                    } else {
                        vecops::axpy_fused(alphas, &xs, out)
                    }
                }));
                want.push(case.serial(&plan, &coded, |out| {
                    if assign {
                        vecops::dequant_sum_into(&coded, out)
                    } else {
                        vecops::dequant_axpy_fused(&coded, out)
                    }
                }));
            }
        }
        for pool in [Some(1), Some(2), Some(3), Some(8), None] {
            let (mut got, mut workers) = (Vec::new(), 0);
            on_core(pool, |core| {
                workers = core.pool.workers();
                for case in &cases {
                    let ranges = case
                        .d
                        .div_ceil(fold_span(case.d, case.payloads.len(), workers));
                    if case.d * case.payloads.len() >= FOLD_GRAIN && case.d > 16 {
                        assert!(ranges > 1 || workers == 1, "d = {} is cut", case.d);
                    }
                    assert!(ranges <= workers, "d = {}", case.d);
                    let (dense, coded) = (case.dense_terms(), case.coded_terms());
                    for (p, plan) in plans(case).iter().enumerate() {
                        // One live snapshot per case: the copy-on-write clone.
                        got.push(case.on_pool(core, plan, &dense, p == 0));
                        got.push(case.on_pool(core, plan, &coded, false));
                    }
                }
            });
            assert_eq!(got.len(), want.len());
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                let case = &cases[i / 4];
                assert!(
                    g == w,
                    "{workers} workers, d = {}, {} terms, fold {}",
                    case.d,
                    case.payloads.len(),
                    i % 4
                );
            }
        }
    }
}
