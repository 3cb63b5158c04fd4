//! The federated simulation engine.
//!
//! [`RoundEngine`] is the one way to run a federated experiment: it owns
//! all the federated plumbing (client selection, model broadcast,
//! local-update dispatch, server aggregation, datasets, per-client state,
//! the global model, the algorithm, metrics) and drives rounds through a
//! pluggable [`Scheduler`]:
//!
//! | Scheduler | Protocol | Paper connection |
//! |-----------|----------|------------------|
//! | [`SyncRounds`] | the deadline round with no deadline: select → dispatch all → wait for all → aggregate | Figure 1/2, the paper's evaluation protocol |
//! | [`SemiAsync`] | aggregate whatever arrived by the round deadline; carry stragglers forward | the straggler tolerance claim of Section I |
//! | [`BufferedAsync`] | apply each arrival, staleness-weighted (buffer `K ≥ 1`) | the asynchronous-ADMM trade-off of Section II |
//!
//! All three dispatch through one in-flight queue and share one virtual
//! clock, driven by the [`DeviceModel`]
//! installed with [`RoundEngine::with_devices`] and stamped on every
//! [`RoundRecord::virtual_seconds`]. `SyncRounds` and `SemiAsync` run one
//! round tick; only `SyncRounds` runs without a device model.
//!
//! Engine-level guarantees shared by every scheduler:
//!
//! * **Zero-copy broadcast.** θ is handed to clients as an
//!   [`Arc<ParamVector>`](std::sync::Arc) snapshot; the server mutates it
//!   copy-on-write ([`Arc::make_mut`](std::sync::Arc::make_mut)). No
//!   scheduler keeps a snapshot past the tick that dispatched it — each
//!   runs a job's local update at dispatch and keeps only its message in
//!   flight — so every aggregation updates θ in place.
//! * **One threading substrate.** All local updates run through
//!   [`EngineCore::dispatch`], backed by a persistent work-stealing
//!   [`DispatchPool`] (the workspace's one pool,
//!   [`fedadmm_tensor::dispatch`], with a [`dispatch::DispatchScratch`] per
//!   worker): workers claim job chunks from a shared cursor (so
//!   stragglers never serialize a partition) and reuse per-thread scratch
//!   arenas (so steady-state dispatch allocates nothing). Between
//!   dispatches the same workers run the forward-only evaluation jobs of
//!   [`EngineCore::evaluate_global`] and the server fold (one job per
//!   coordinate range of θ, or per shard under hierarchical aggregation);
//!   the only other user is the synthetic dataset generator, on a
//!   short-lived pool of its own before the engine exists. Every job's RNG
//!   stream is derived from `(seed, round, client_id)`, every fold
//!   coordinate is summed by one job in message order, and chunk and shard
//!   results are reduced in index order, so results are byte-identical
//!   across worker counts, chunk sizes *and* the scheduler that issued the
//!   work.
//! * **Single-pass aggregation.** Algorithms with a linear server step fold
//!   all payloads into θ in one fused pass per coordinate range, in message
//!   order, instead of one full `axpy` sweep per message; the ranges are
//!   pool jobs (see [`EngineCore::aggregate`]). Large cohorts can opt into
//!   [`AggregationMode::Hierarchical`]: per-shard partial folds on the
//!   dispatch pool plus a log-depth combine.
//! * **One client-state store.** Per-client state lives behind a
//!   [`ClientStateStore`], always the
//!   lazily sharded store: a client costs memory only once selected, and
//!   an optional byte budget spills least-recently-selected shards to disk
//!   ([`RoundEngine::new_with_store`]) — which makes million-client
//!   populations simulable on a workstation.
//!
//! ## Example
//!
//! ```
//! use fedadmm_core::engine::{RoundEngine, SyncRounds};
//! use fedadmm_core::prelude::*;
//! use fedadmm_data::synthetic::SyntheticDataset;
//! use fedadmm_nn::models::ModelSpec;
//!
//! let config = FedConfig {
//!     num_clients: 10,
//!     participation: Participation::Fraction(0.3),
//!     local_epochs: 2,
//!     batch_size: BatchSize::Size(16),
//!     local_learning_rate: 0.1,
//!     model: ModelSpec::Logistic { input_dim: 784, num_classes: 10 },
//!     seed: 7,
//!     ..FedConfig::default()
//! };
//! let (train, test) = SyntheticDataset::Mnist.generate(200, 50, 7);
//! let partition = DataDistribution::Iid.partition(&train, config.num_clients, 7);
//! let algorithm = FedAdmm::new(0.01, ServerStepSize::Constant(1.0));
//! let mut engine =
//!     RoundEngine::new(config, train, test, partition, algorithm, SyncRounds).unwrap();
//! let history = engine.run_rounds(3).unwrap();
//! assert_eq!(history.len(), 3);
//! ```

pub mod buffered;
pub mod dispatch;
mod in_flight;
pub mod scheduler;
pub mod semi_async;
pub mod sync;
pub mod wire;

pub use buffered::{AsyncConfig, BufferedAsync};
pub use dispatch::{DispatchBatchStats, DispatchConfig, DispatchPool};
pub use scheduler::{
    AggregationMode, AsyncRecord, DispatchOrder, EngineCore, RoundStats, Scheduler,
    StalenessWeight, TickReport,
};
pub use semi_async::{SemiAsync, SemiAsyncConfig};
pub use sync::SyncRounds;
pub use wire::{WirePath, WirePathConfig};

use crate::algorithms::Algorithm;
use crate::client::ClientState;
use crate::config::FedConfig;
use crate::heterogeneity::{DeviceModel, LocalWorkSchedule};
use crate::metrics::{RoundRecord, RunHistory};
use crate::param::ParamVector;
use crate::selection::{ClientSelector, FullParticipation, UniformFraction};
use fedadmm_clientstore::{ClientStateStore, StoreConfig};
use fedadmm_data::partition::Partition;
use fedadmm_data::Dataset;
use fedadmm_telemetry::{Event, NoTelemetry, Recorder, Telemetry};
use fedadmm_tensor::{TensorError, TensorResult};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A federated run driven by a pluggable [`Scheduler`].
///
/// See the [module docs](self) for the architecture; the API is round
/// drivers (`run_round`, `run_rounds`, `run_until_accuracy`), accessors,
/// scheduler access and the event stream of event-driven schedules.
pub struct RoundEngine<A: Algorithm, S: Scheduler> {
    config: FedConfig,
    train: Dataset,
    test: Dataset,
    store: Box<dyn ClientStateStore>,
    global: Arc<ParamVector>,
    algorithm: A,
    selector: Box<dyn ClientSelector>,
    work_schedule: LocalWorkSchedule,
    /// The device model behind the virtual clock, if installed.
    devices: Option<DeviceModel>,
    scheduler: S,
    history: RunHistory,
    events: Vec<AsyncRecord>,
    clock: f64,
    cumulative_upload: usize,
    cumulative_wire_bytes: usize,
    round: usize,
    telemetry: Box<dyn Telemetry>,
    /// First event index not yet attributed to a round record.
    event_mark: usize,
    /// ρ used for the per-round optimality-gap gauge, if enabled.
    gap_rho: Option<f32>,
    /// How the server folds each round's payloads into θ.
    aggregation: AggregationMode,
    /// The persistent dispatch pool every tick's client work runs on.
    pool: DispatchPool,
    /// The resolved wire path (compression + privacy on the upload edge),
    /// `None` when uploads stay dense.
    wire: Option<WirePath>,
}

impl<A: Algorithm, S: Scheduler> RoundEngine<A, S> {
    /// Creates an engine.
    ///
    /// The global model is randomly initialised from `config.seed` (the
    /// paper: "We adopt random initialization for the global model in all
    /// algorithms, zero initialization for dual variables…"); every client
    /// starts with a copy of it and a zero correction slot, held in a
    /// [`StoreConfig::InMemory`] store (⌈√m⌉ lazy shards, no budget). The
    /// scheduler's own configuration is validated by its
    /// [`Scheduler::init`] hook.
    pub fn new(
        config: FedConfig,
        train: Dataset,
        test: Dataset,
        partition: Partition,
        algorithm: A,
        scheduler: S,
    ) -> TensorResult<Self> {
        Self::new_with_store(
            config,
            train,
            test,
            partition,
            algorithm,
            scheduler,
            &StoreConfig::InMemory,
        )
    }

    /// Creates an engine whose per-client state lives in a store built from
    /// `store_config`.
    ///
    /// Every spelling builds the same lazily sharded store, so every one
    /// reproduces [`RoundEngine::new`] bit for bit: [`StoreConfig::InMemory`]
    /// is [`RoundEngine::new`]'s own; [`StoreConfig::Sharded`] picks the
    /// shard count; [`StoreConfig::Spill`] additionally evicts
    /// least-recently selected shards to disk under a byte budget — the
    /// configuration for million-client populations.
    pub fn new_with_store(
        config: FedConfig,
        train: Dataset,
        test: Dataset,
        partition: Partition,
        mut algorithm: A,
        scheduler: S,
        store_config: &StoreConfig,
    ) -> TensorResult<Self> {
        if partition.num_clients() != config.num_clients {
            return Err(TensorError::InvalidArgument(format!(
                "partition has {} clients but the configuration expects {}",
                partition.num_clients(),
                config.num_clients
            )));
        }
        if train.feature_dim() != config.model.input_dim() {
            return Err(TensorError::InvalidArgument(format!(
                "dataset features have dimension {} but the model expects {}",
                train.feature_dim(),
                config.model.input_dim()
            )));
        }
        let mut init_rng = SmallRng::seed_from_u64(config.seed);
        let net = config.model.build(&mut init_rng);
        let global = Arc::new(ParamVector::from_vec(net.params_flat()));
        let store = store_config.build(partition.into_client_indices(), &global)?;

        algorithm.init(global.len(), config.num_clients);
        // `benchmark/`'s mirror scheduler reads the same flag.
        let selector: Box<dyn ClientSelector> = if algorithm.requires_full_participation() {
            Box::new(FullParticipation)
        } else {
            Box::new(UniformFraction::new(config.clients_per_round()))
        };
        let work_schedule = if algorithm.supports_variable_work() {
            LocalWorkSchedule::from_config(config.local_epochs, config.system_heterogeneity)
        } else {
            LocalWorkSchedule::Fixed(config.local_epochs)
        };
        let history = RunHistory::new(algorithm.name(), scheduler.setting_label(&config));
        let mut engine = RoundEngine {
            config,
            train,
            test,
            store,
            global,
            algorithm,
            selector,
            work_schedule,
            devices: None,
            scheduler,
            history,
            events: Vec::new(),
            clock: 0.0,
            cumulative_upload: 0,
            cumulative_wire_bytes: 0,
            round: 0,
            telemetry: Box::new(NoTelemetry),
            event_mark: 0,
            gap_rho: None,
            aggregation: AggregationMode::SinglePass,
            pool: DispatchPool::new(DispatchConfig::default()),
            wire: None,
        };
        let (scheduler, mut core) = engine.split();
        scheduler.init(&mut core)?;
        Ok(engine)
    }

    /// Split borrow: the scheduler, and an [`EngineCore`] over the rest of
    /// the engine for it to drive.
    fn split(&mut self) -> (&mut S, EngineCore<'_>) {
        let core = EngineCore {
            config: &self.config,
            train: &self.train,
            test: &self.test,
            store: self.store.as_mut(),
            global: &mut self.global,
            algorithm: &mut self.algorithm,
            selector: &*self.selector,
            work_schedule: &self.work_schedule,
            devices: self.devices.as_ref(),
            history: &mut self.history,
            events: &mut self.events,
            clock: &mut self.clock,
            cumulative_upload: &mut self.cumulative_upload,
            cumulative_wire_bytes: &mut self.cumulative_wire_bytes,
            round: &mut self.round,
            telemetry: self.telemetry.as_mut(),
            event_mark: &mut self.event_mark,
            aggregation: self.aggregation,
            pool: &self.pool,
            wire: self.wire.as_ref(),
        };
        (&mut self.scheduler, core)
    }

    /// Selects the server aggregation strategy.
    /// [`AggregationMode::SinglePass`] (the default) is byte-identical to
    /// the legacy engine; [`AggregationMode::Hierarchical`] folds per shard
    /// on the dispatch pool with a log-depth combine, for large cohorts.
    /// Algorithms without a [`FoldPlan`](crate::algorithms::FoldPlan) always
    /// run their own sequential `server_update`.
    pub fn with_aggregation(mut self, mode: AggregationMode) -> Self {
        self.aggregation = mode;
        self
    }

    /// Rebuilds the dispatch pool with `workers` workers. The default pool
    /// takes its worker count from `FEDADMM_DISPATCH_WORKERS`, else the
    /// hardware. Dispatch results are byte-identical for every worker
    /// count; only the schedule (and the wall clock) changes.
    pub fn with_dispatch_workers(mut self, workers: usize) -> Self {
        self.pool = DispatchPool::new(DispatchConfig {
            workers: Some(workers),
        });
        self
    }

    /// The dispatch pool the engine's client work runs on.
    pub fn dispatch_pool(&self) -> &DispatchPool {
        &self.pool
    }

    /// Configures the wire path (upload compression + privacy, fused into
    /// dispatch and aggregation — see [`wire`]). Off unless `config` carries
    /// a quantizer ([`WirePathConfig::enabled`]) or a guard
    /// ([`WirePathConfig::with_guard`]; alone it privatizes uploads and
    /// leaves them dense).
    pub fn with_wire_path(mut self, config: WirePathConfig) -> Self {
        self.wire = config.resolve();
        self
    }

    /// Caps evaluation at a fraction of the test set per round: a
    /// `fraction >= 1.0` keeps the current behavior (the full test set);
    /// smaller values evaluate on the first `⌈fraction·n⌉` samples (at
    /// least one).
    /// Large-population benchmarks use this to keep per-round evaluation
    /// from dominating wall time.
    pub fn eval_subset(mut self, fraction: f64) -> Self {
        self.config.eval_subset = if fraction >= 1.0 {
            usize::MAX
        } else {
            let n = self.test.len();
            (((n as f64) * fraction.max(0.0)).ceil() as usize).clamp(1, n.max(1))
        };
        self
    }

    /// Replaces the client-selection scheme (the default is uniform-random
    /// `C·m` clients, or full participation for algorithms that require it).
    pub fn with_selector(mut self, selector: Box<dyn ClientSelector>) -> Self {
        self.selector = selector;
        self
    }

    /// Replaces the local-work schedule (e.g. a deterministic per-client
    /// schedule for ablations).
    pub fn with_work_schedule(mut self, schedule: LocalWorkSchedule) -> Self {
        self.work_schedule = schedule;
        self
    }

    /// Installs the device model behind the virtual clock: how fast each
    /// client's work goes (see [`DeviceModel`]). [`SyncRounds`] then
    /// advances the clock by its slowest client's job every round, and
    /// [`SemiAsync`] and [`BufferedAsync`] — which cannot run without a
    /// model — time their arrivals with it. The clock is observation only
    /// under [`SyncRounds`]: the trajectory is the one without a model.
    ///
    /// # Errors
    /// [`TensorError::InvalidArgument`], naming the client, if the model
    /// does not hold one device per client with finite, positive durations
    /// and bandwidths and a finite, non-negative latency.
    pub fn with_devices(mut self, devices: DeviceModel) -> TensorResult<Self> {
        devices.check(self.config.num_clients)?;
        self.devices = Some(devices);
        Ok(self)
    }

    /// Installs observability hooks (e.g. a
    /// [`Recorder`]). The default is
    /// [`NoTelemetry`], whose `enabled() == false` keeps the hot path free
    /// of timing calls — an uninstrumented run is byte-identical.
    pub fn with_telemetry(mut self, telemetry: Box<dyn Telemetry>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Enables the per-round optimality-gap gauge: after every completed
    /// round the engine computes `V_t` (equation (7), via
    /// [`diagnostics::optimality_gap`](crate::diagnostics::optimality_gap)
    /// with penalty `rho`) and reports it as an
    /// [`Event::Gauge`] named `"optimality_gap"`. Opt-in because the
    /// gap is an O(total samples) computation per round. It streams the
    /// states through [`ClientStateStore::for_each_state`], one at a time,
    /// and evaluates every gradient on the dispatch pool's serial scratch.
    pub fn with_optimality_gap(mut self, rho: f32) -> Self {
        self.gap_rho = Some(rho);
        self
    }

    /// The installed [`Recorder`], if the telemetry hooks are one — the way
    /// to read traces and metrics during or after a run.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.telemetry.recorder()
    }

    /// Mutable form of [`recorder`](Self::recorder) (e.g. for
    /// [`Recorder::metrics_json`], which refreshes the peak-RSS gauge).
    pub fn recorder_mut(&mut self) -> Option<&mut Recorder> {
        self.telemetry.recorder_mut()
    }

    /// The configuration this engine runs under.
    pub fn config(&self) -> &FedConfig {
        &self.config
    }

    /// Immutable access to the algorithm.
    pub fn algorithm(&self) -> &A {
        &self.algorithm
    }

    /// Mutable access to the algorithm — used by the experiments that adjust
    /// η or ρ mid-run (Figures 6 and 9).
    pub fn algorithm_mut(&mut self) -> &mut A {
        &mut self.algorithm
    }

    /// Immutable access to the scheduler.
    pub fn scheduler(&self) -> &S {
        &self.scheduler
    }

    /// The current global model θ.
    pub fn global_model(&self) -> &ParamVector {
        &self.global
    }

    /// Every client's state, in id order, for tests and diagnostics, with
    /// never-selected clients in their initial form (local model θ⁰, zero
    /// correction). Holds all `m` states in memory at once;
    /// [`ClientStateStore::for_each_state`] through
    /// [`store_mut`](Self::store_mut) streams them instead. Fails only if
    /// the store cannot read a state back (a damaged spill shard).
    pub fn clients(&mut self) -> TensorResult<Vec<ClientState>> {
        let mut states = Vec::with_capacity(self.store.num_clients());
        self.store.for_each_state(&mut |state| {
            states.push(state.clone());
            Ok(())
        })?;
        Ok(states)
    }

    /// The client-state store backing this engine.
    pub fn store(&self) -> &dyn ClientStateStore {
        self.store.as_ref()
    }

    /// Mutable access to the store (e.g. to stream states through
    /// [`ClientStateStore::for_each_state`]).
    pub fn store_mut(&mut self) -> &mut dyn ClientStateStore {
        self.store.as_mut()
    }

    /// The round history recorded so far.
    pub fn history(&self) -> &RunHistory {
        &self.history
    }

    /// Arrival events recorded so far (event-driven schedules; empty for
    /// [`SyncRounds`]).
    pub fn events(&self) -> &[AsyncRecord] {
        &self.events
    }

    /// The current virtual time in seconds, as the installed
    /// [`DeviceModel`] times the fleet (0 without a model).
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Cumulative floats uploaded by clients so far.
    pub fn cumulative_upload_floats(&self) -> usize {
        self.cumulative_upload
    }

    /// Cumulative client → server traffic in true wire bytes: the
    /// quantized size when the wire path encoded an upload, the dense
    /// `4 · floats` size otherwise.
    pub fn cumulative_wire_bytes(&self) -> usize {
        self.cumulative_wire_bytes
    }

    /// Evaluates the current global model on the test set, returning
    /// `(loss, accuracy)`. Runs on the dispatch pool, like
    /// [`EngineCore::evaluate_global`].
    pub fn evaluate_global(&self) -> TensorResult<(f32, f32)> {
        scheduler::evaluate_on_pool(&self.pool, &self.config, &self.global, &self.test)
    }

    /// Observed staleness of recorded arrivals: `(mean, max)`.
    pub fn staleness_stats(&self) -> (f64, usize) {
        if self.events.is_empty() {
            return (0.0, 0);
        }
        let sum: usize = self.events.iter().map(|r| r.staleness).sum();
        let max = self.events.iter().map(|r| r.staleness).max().unwrap_or(0);
        (sum as f64 / self.events.len() as f64, max)
    }

    /// Advances the schedule by one tick and reports what happened.
    pub fn step(&mut self) -> TensorResult<TickReport> {
        // A tick is the outermost telemetry span, named after the scheduler.
        let (name, round) = (self.scheduler.name(), self.round);
        self.telemetry.on_event(&Event::SpanStart { name, round });
        let (scheduler, mut core) = self.split();
        let report = scheduler.tick(&mut core);
        self.telemetry.on_event(&Event::SpanEnd { name, round });
        let report = report?;
        if report.record.is_some() {
            if let Some(rho) = self.gap_rho {
                let gap = self.pool.with_scratch(|scratch| {
                    crate::diagnostics::streamed_optimality_gap(
                        |visit| self.store.for_each_state(visit),
                        &self.global,
                        rho,
                        self.config.model,
                        &self.train,
                        &mut scratch.update,
                    )
                })?;
                self.telemetry.on_event(&Event::Gauge {
                    name: "optimality_gap",
                    value: gap.total() as f64,
                });
            }
        }
        Ok(report)
    }

    /// Runs ticks until one produces a round record, and returns it.
    ///
    /// For [`SyncRounds`] and [`SemiAsync`] every tick is a round; for
    /// [`BufferedAsync`] this advances arrivals until the next evaluation
    /// point (bounded by an internal safety cap).
    pub fn run_round(&mut self) -> TensorResult<RoundRecord> {
        // Cap the tick count so drop-everything staleness policies cannot
        // spin forever without producing a record.
        const MAX_TICKS_PER_ROUND: usize = 10_000;
        for _ in 0..MAX_TICKS_PER_ROUND {
            if let Some(record) = self.step()?.record {
                return Ok(record);
            }
        }
        Err(TensorError::InvalidArgument(
            "scheduler produced no round record within the tick budget".to_string(),
        ))
    }

    /// Runs `rounds` additional rounds and returns the records produced.
    pub fn run_rounds(&mut self, rounds: usize) -> TensorResult<Vec<RoundRecord>> {
        let mut records = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            records.push(self.run_round()?);
        }
        Ok(records)
    }

    /// Runs until the test accuracy reaches `target` or `max_rounds` rounds
    /// have been executed. Returns the 1-based round count at which the
    /// target was reached, or `None` (after running `max_rounds` rounds).
    pub fn run_until_accuracy(
        &mut self,
        target: f32,
        max_rounds: usize,
    ) -> TensorResult<Option<usize>> {
        if let Some(r) = self.history.rounds_to_accuracy(target) {
            return Ok(Some(r));
        }
        while self.round < max_rounds {
            let record = self.run_round()?;
            if record.test_accuracy >= target {
                return Ok(Some(self.round));
            }
        }
        Ok(None)
    }

    /// Consumes the engine and returns its history.
    pub fn into_history(self) -> RunHistory {
        self.history
    }
}

/// A synchronous-round engine (the common case).
pub type SyncEngine<A> = RoundEngine<A, SyncRounds>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{FedAdmm, FedAvg, FedProx, FedSgd, Scaffold, ServerStepSize};
    use crate::config::{DataDistribution, Participation};
    use fedadmm_data::batching::BatchSize;
    use fedadmm_data::synthetic::SyntheticDataset;
    use fedadmm_nn::models::ModelSpec;

    fn small_config(num_clients: usize, seed: u64) -> FedConfig {
        FedConfig {
            num_clients,
            participation: Participation::Fraction(0.3),
            local_epochs: 2,
            system_heterogeneity: false,
            batch_size: BatchSize::Size(16),
            local_learning_rate: 0.1,
            model: ModelSpec::Logistic {
                input_dim: 784,
                num_classes: 10,
            },
            seed,
            eval_subset: usize::MAX,
        }
    }

    fn make_engine<A: Algorithm, S: Scheduler>(
        algorithm: A,
        scheduler: S,
        num_clients: usize,
        samples: usize,
        seed: u64,
    ) -> RoundEngine<A, S> {
        try_engine(algorithm, scheduler, num_clients, samples, seed).unwrap()
    }

    /// [`make_engine`] for a scheduler that may refuse its configuration.
    fn try_engine<A: Algorithm, S: Scheduler>(
        algorithm: A,
        scheduler: S,
        num_clients: usize,
        samples: usize,
        seed: u64,
    ) -> TensorResult<RoundEngine<A, S>> {
        let config = small_config(num_clients, seed);
        let (train, test) = SyntheticDataset::Mnist.generate(samples, 60, seed);
        let partition = DataDistribution::Iid.partition(&train, num_clients, seed);
        RoundEngine::new(config, train, test, partition, algorithm, scheduler)
    }

    /// Per-epoch durations no virtual clock can run on.
    const BAD_SECONDS: [f64; 4] = [f64::NAN, -1.0, 0.0, f64::INFINITY];

    /// Compute-only devices at 1 s per epoch, except the `slow` clients at
    /// `slow_seconds`.
    fn fleet(num_clients: usize, slow: &[usize], slow_seconds: f64) -> DeviceModel {
        let seconds = (0..num_clients).map(|c| if slow.contains(&c) { slow_seconds } else { 1.0 });
        DeviceModel::new(seconds.collect())
    }

    /// [`make_engine`] on [`fleet`]`(num_clients, slow, slow_seconds)`.
    fn timed_engine<A: Algorithm, S: Scheduler>(
        algorithm: A,
        scheduler: S,
        (num_clients, slow, slow_seconds): (usize, &[usize], f64),
        samples: usize,
        seed: u64,
    ) -> RoundEngine<A, S> {
        make_engine(algorithm, scheduler, num_clients, samples, seed)
            .with_devices(fleet(num_clients, slow, slow_seconds))
            .unwrap()
    }

    /// A model's freshly initialised parameters: non-trivial logits.
    fn initial_params(model: ModelSpec, seed: u64) -> ParamVector {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        ParamVector::from_vec(model.build(&mut rng).params_flat())
    }

    /// Forward passes cut to `EVAL_BATCH`, spans cut per worker, rows
    /// reduced per `EVAL_CHUNK`: for every `n` in `sizes` — around every
    /// pass, job and chunk boundary — and pools of 1, 2, 3 and the default
    /// number of workers, loss and accuracy must carry the bits of the
    /// evaluation that pushed every chunk through the network whole.
    fn assert_evaluation_equals_the_whole_chunk_reference(model: ModelSpec, sizes: &[usize]) {
        use crate::trainer::{evaluate, evaluate_whole_chunks};
        let bits = |r: TensorResult<(f32, f32)>| r.map(|(l, a)| (l.to_bits(), a.to_bits()));
        let (_, test) = SyntheticDataset::Mnist.generate(10, 1000, 17);
        let global = initial_params(model, 5);
        // Plus the pool an engine gets by default: `FEDADMM_DISPATCH_WORKERS`
        // workers (CI pins 1 and 3) or the host's core count.
        let pools: Vec<DispatchPool> = [Some(1), Some(2), Some(3), None]
            .into_iter()
            .map(|workers| DispatchPool::new(DispatchConfig { workers }))
            .collect();
        for &n in sizes {
            let reference = bits(evaluate_whole_chunks(model, global.as_slice(), &test, n));
            assert!(reference.is_ok());
            assert_eq!(
                bits(evaluate(model, global.as_slice(), &test, n)),
                reference,
                "trainer::evaluate, {} on {n} samples",
                model.name()
            );
            let config = FedConfig {
                model,
                eval_subset: n,
                ..small_config(4, 17)
            };
            for pool in &pools {
                assert_eq!(
                    bits(scheduler::evaluate_on_pool(pool, &config, &global, &test)),
                    reference,
                    "{} workers, {} on {n} samples",
                    pool.workers(),
                    model.name()
                );
            }
        }
    }

    const EVAL_SIZES: [usize; 13] = [0, 1, 31, 32, 33, 63, 64, 65, 100, 255, 256, 257, 1000];

    #[test]
    fn evaluation_equals_the_whole_chunk_reference_for_every_shape_and_worker_count() {
        assert_evaluation_equals_the_whole_chunk_reference(
            ModelSpec::Logistic {
                input_dim: 784,
                num_classes: 10,
            },
            &EVAL_SIZES,
        );
        assert_evaluation_equals_the_whole_chunk_reference(
            ModelSpec::Mlp {
                input_dim: 784,
                hidden_dim: 64,
                num_classes: 10,
            },
            &EVAL_SIZES,
        );
    }

    /// The conv / pool / im2col layers, up to the benchmark's 100-sample
    /// evaluation (two jobs, four passes).
    #[test]
    fn cnn_evaluation_equals_the_whole_chunk_reference_for_every_shape_and_worker_count() {
        assert_evaluation_equals_the_whole_chunk_reference(ModelSpec::Cnn1, &EVAL_SIZES[..9]);
    }

    #[test]
    fn evaluation_returns_the_first_error_in_sample_order() {
        use crate::trainer::evaluate;
        // A 12-class test set under a 10-class model: label 10 at sample 40
        // and label 11 at sample 700 lie in different jobs' spans and
        // different chunks; every worker count reports the earlier one, as
        // the serial evaluation does.
        let model = ModelSpec::Logistic {
            input_dim: 784,
            num_classes: 10,
        };
        let (_, clean) = SyntheticDataset::Mnist.generate(10, 1000, 23);
        let (features, mut labels) = clean.gather_all().unwrap();
        (labels[40], labels[700]) = (10, 11);
        let test = Dataset::new(features.into_vec(), labels, 784, 12).unwrap();
        let global = initial_params(model, 5);
        let config = FedConfig {
            model,
            ..small_config(4, 23)
        };
        let serial = evaluate(model, global.as_slice(), &test, usize::MAX).unwrap_err();
        assert!(
            serial.to_string().contains("label 10 out of range"),
            "{serial}"
        );
        // A parameter vector of the wrong length fails every job alike.
        let short = ParamVector::zeros(model.num_params() - 1);
        let short_serial = evaluate(model, short.as_slice(), &clean, usize::MAX).unwrap_err();
        for workers in 1..=3 {
            let pool = DispatchPool::new(DispatchConfig {
                workers: Some(workers),
            });
            let pooled = scheduler::evaluate_on_pool(&pool, &config, &global, &test).unwrap_err();
            assert_eq!(pooled.to_string(), serial.to_string(), "{workers} workers");
            let pooled = scheduler::evaluate_on_pool(&pool, &config, &short, &clean).unwrap_err();
            assert_eq!(
                pooled.to_string(),
                short_serial.to_string(),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn sync_engine_runs_rounds_and_records_metrics() {
        let mut engine = make_engine(FedAvg::new(), SyncRounds, 6, 120, 4);
        let record = engine.run_round().unwrap();
        assert_eq!(record.round, 0);
        assert_eq!(record.num_selected, 2); // 30% of 6, rounded
        assert!(record.test_accuracy >= 0.0 && record.test_accuracy <= 1.0);
        assert!(record.upload_floats > 0);
        assert_eq!(record.cumulative_upload_floats, record.upload_floats);
        assert_eq!(engine.history().len(), 1);
        assert!(
            engine.events().is_empty(),
            "sync schedules record no events"
        );
        let record2 = engine.run_round().unwrap();
        assert_eq!(
            record2.cumulative_upload_floats,
            record.upload_floats + record2.upload_floats
        );
    }

    #[test]
    fn new_validates_partition_and_model() {
        let config = small_config(10, 0);
        let (train, test) = SyntheticDataset::Mnist.generate(100, 20, 0);
        let bad_partition = DataDistribution::Iid.partition(&train, 5, 0);
        assert!(RoundEngine::new(
            config,
            train.clone(),
            test.clone(),
            bad_partition,
            FedAvg::new(),
            SyncRounds
        )
        .is_err());

        let mut bad_model = small_config(10, 0);
        bad_model.model = ModelSpec::Logistic {
            input_dim: 100,
            num_classes: 10,
        };
        let partition = DataDistribution::Iid.partition(&train, 10, 0);
        assert!(
            RoundEngine::new(bad_model, train, test, partition, FedAvg::new(), SyncRounds).is_err()
        );
    }

    #[test]
    fn buffered_construction_validates_the_device_pool() {
        let build = |pool| try_engine(FedAvg::new(), BufferedAsync::new(pool), 4, 80, 0);
        let zero = AsyncConfig {
            max_concurrency: 0,
            ..AsyncConfig::new(2)
        };
        assert!(build(zero).is_err());
        // Never evaluating would never record a round.
        let never = AsyncConfig {
            eval_every: 0,
            ..AsyncConfig::new(2)
        };
        let err = build(never).err().expect("eval_every 0 is rejected");
        assert!(err.to_string().contains("eval_every"), "{err}");
        // `with_aggregate_after` clamps to 1, but a literal 0 must be refused
        // too: it would fold every arrival alone under records that say
        // `num_selected: 0`.
        let empty = AsyncConfig {
            aggregate_after: 0,
            ..AsyncConfig::new(2)
        };
        let err = build(empty).err().expect("aggregate_after 0 is rejected");
        assert!(err.to_string().contains("aggregate_after"), "{err}");
        // A device model of the wrong size, or with a per-epoch duration
        // that is not a positive number, is refused naming the client.
        let engine = || build(AsyncConfig::new(2)).unwrap();
        assert!(engine().with_devices(fleet(3, &[], 1.0)).is_err());
        for bad in BAD_SECONDS {
            let err = engine()
                .with_devices(fleet(4, &[2], bad))
                .err()
                .expect("a bad duration is rejected");
            assert!(err.to_string().contains("client 2"), "{bad}: {err}");
        }
    }

    #[test]
    fn semi_async_construction_validates_the_device_pool() {
        let build = |fleet| try_engine(FedAvg::new(), SemiAsync::new(fleet), 4, 80, 0);
        for bad in BAD_SECONDS {
            assert!(build(SemiAsyncConfig::new(bad)).is_err(), "deadline {bad}");
            let err = build(SemiAsyncConfig::new(2.5))
                .unwrap()
                .with_devices(fleet(4, &[1], bad))
                .err()
                .expect("a bad duration is rejected");
            assert!(err.to_string().contains("client 1"), "{bad}: {err}");
        }
    }

    #[test]
    fn event_driven_schedules_refuse_to_run_without_a_device_model() {
        let needs_model = |err: TensorError| {
            assert!(err.to_string().contains("device model"), "{err}");
        };
        let mut semi = make_engine(
            FedAvg::new(),
            SemiAsync::new(SemiAsyncConfig::new(2.5)),
            4,
            80,
            0,
        );
        needs_model(semi.step().unwrap_err());
        let mut buffered = make_engine(
            FedAvg::new(),
            BufferedAsync::new(AsyncConfig::new(2)),
            4,
            80,
            0,
        );
        needs_model(buffered.step().unwrap_err());
        // A synchronous run without one keeps the clock at 0.
        let mut sync = make_engine(FedAvg::new(), SyncRounds, 4, 80, 0);
        assert_eq!(sync.run_round().unwrap().virtual_seconds, 0.0);
        assert_eq!(sync.now(), 0.0);
    }

    #[test]
    fn initial_state_matches_paper_initialisation() {
        let mut engine = make_engine(FedAdmm::paper_default(), SyncRounds, 6, 120, 3);
        // Every client starts at the global model with zero dual variables.
        for client in engine.clients().unwrap() {
            assert_eq!(client.local_model, *engine.global_model());
            assert_eq!(client.dual.norm(), 0.0);
        }
        assert_eq!(engine.history().len(), 0);
        assert!(engine.history().is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = make_engine(FedAvg::new(), SyncRounds, 6, 120, 6);
        let mut b = make_engine(FedAvg::new(), SyncRounds, 6, 120, 7);
        a.run_rounds(2).unwrap();
        b.run_rounds(2).unwrap();
        assert_ne!(a.global_model(), b.global_model());
    }

    #[test]
    fn all_algorithms_run_one_round() {
        // Smoke test: every algorithm completes a round and uploads the
        // expected number of floats.
        let d = ModelSpec::Logistic {
            input_dim: 784,
            num_classes: 10,
        }
        .num_params();
        let algorithms: Vec<(Box<dyn Algorithm>, usize)> = vec![
            (Box::new(FedAvg::new()), d * 2),
            (Box::new(FedProx::new(0.1)), d * 2),
            (Box::new(FedSgd::new(0.1)), d * 2),
            (Box::new(Scaffold::new()), 2 * d * 2),
            (
                Box::new(FedAdmm::new(0.01, ServerStepSize::ParticipationRatio)),
                d * 2,
            ),
        ];
        for (algorithm, expected_upload) in algorithms {
            let name = algorithm.name();
            let mut engine = make_engine(algorithm, SyncRounds, 5, 100, 9);
            let record = engine.run_round().unwrap();
            assert_eq!(record.upload_floats, expected_upload, "{name}");
            // A boxed algorithm reports the name of what is in the box.
            assert_eq!(engine.history().algorithm, name);
        }
    }

    #[test]
    fn run_until_accuracy_stops_early() {
        let admm = FedAdmm::new(0.3, ServerStepSize::Constant(1.0));
        let mut engine = make_engine(admm, SyncRounds, 8, 400, 10);
        let rounds = engine.run_until_accuracy(0.35, 30).unwrap();
        assert!(rounds.is_some(), "never reached 35% accuracy");
        assert_eq!(rounds.unwrap(), engine.history().len());
        // An unreachable target exhausts the budget and returns None.
        let mut engine2 = make_engine(FedSgd::new(0.01), SyncRounds, 5, 100, 10);
        assert_eq!(engine2.run_until_accuracy(0.999, 2).unwrap(), None);
        assert_eq!(engine2.history().len(), 2);
    }

    #[test]
    fn algorithm_mut_allows_mid_run_adjustment() {
        let mut engine = make_engine(FedAdmm::paper_default(), SyncRounds, 6, 120, 11);
        engine.run_rounds(2).unwrap();
        engine
            .algorithm_mut()
            .set_server_step(ServerStepSize::Constant(0.5));
        engine.algorithm_mut().set_rho(0.1);
        engine.run_rounds(2).unwrap();
        assert_eq!(engine.history().len(), 4);
        assert_eq!(engine.algorithm().rho, 0.1);
    }

    #[test]
    fn sync_engine_is_deterministic_in_seed() {
        let mut a = make_engine(FedAdmm::paper_default(), SyncRounds, 6, 120, 5);
        let mut b = make_engine(FedAdmm::paper_default(), SyncRounds, 6, 120, 5);
        a.run_rounds(3).unwrap();
        b.run_rounds(3).unwrap();
        // Histories agree on everything except wall-clock timing.
        let (mut ha, mut hb) = (a.history().clone(), b.history().clone());
        for r in ha.records.iter_mut().chain(hb.records.iter_mut()) {
            r.elapsed_ms = 0;
        }
        assert_eq!(ha, hb);
        assert_eq!(a.global_model(), b.global_model());
    }

    #[test]
    fn buffered_engine_reproduces_event_driven_behavior() {
        let pool = BufferedAsync::new(AsyncConfig::new(3));
        let mut engine = timed_engine(FedAvg::new(), pool, (6, &[], 1.0), 120, 6);
        for _ in 0..12 {
            engine.step().unwrap();
        }
        assert_eq!(engine.events().len(), 12);
        assert!(engine.now() > 0.0);
        for pair in engine.events().windows(2) {
            assert!(pair[1].sim_time >= pair[0].sim_time);
        }
        assert_eq!(engine.scheduler().updates_applied(), 12);
        // The round record carries the virtual clock.
        let record = engine.history().records.last().unwrap();
        assert_eq!(record.virtual_seconds, engine.events()[9].sim_time);
    }

    #[test]
    fn staleness_weights() {
        assert_eq!(StalenessWeight::Constant.weight(100), 1.0);
        let poly = StalenessWeight::Polynomial { exponent: 1.0 };
        assert_eq!(poly.weight(0), 1.0);
        assert!((poly.weight(1) - 0.5).abs() < 1e-6);
        assert!(poly.weight(9) < poly.weight(1));
        let bounded = StalenessWeight::BoundedDelay { max_staleness: 2 };
        assert_eq!(bounded.weight(2), 1.0);
        assert_eq!(bounded.weight(3), 0.0);
    }

    #[test]
    fn buffered_staleness_comes_from_concurrency() {
        // With identical devices and unit concurrency, updates are applied
        // in dispatch order and nothing is ever stale.
        let serial = BufferedAsync::new(AsyncConfig::new(1));
        let mut engine = timed_engine(FedAvg::new(), serial, (4, &[], 1.0), 80, 1);
        for _ in 0..8 {
            engine.step().unwrap();
        }
        assert_eq!(engine.staleness_stats(), (0.0, 0));
        // With many concurrent clients every snapshot but the first is
        // taken before the preceding updates are applied.
        let concurrent = AsyncConfig::new(4).with_staleness(StalenessWeight::Constant);
        let pool = BufferedAsync::new(concurrent);
        let mut engine = timed_engine(FedAvg::new(), pool, (8, &[], 1.0), 160, 2);
        for _ in 0..12 {
            engine.step().unwrap();
        }
        let (_, max) = engine.staleness_stats();
        assert!(max > 0, "expected some staleness with 4 concurrent clients");
    }

    #[test]
    fn bounded_delay_drops_stale_updates() {
        let pool =
            AsyncConfig::new(4).with_staleness(StalenessWeight::BoundedDelay { max_staleness: 0 });
        let pool = BufferedAsync::new(pool);
        let mut engine = timed_engine(FedAvg::new(), pool, (8, &[0, 5, 6], 10.0), 160, 3);
        // Run by events rather than applied updates to observe drops.
        for _ in 0..20 {
            engine.step().unwrap();
        }
        let dropped = engine.events().iter().filter(|r| r.weight == 0.0).count();
        assert!(
            dropped > 0,
            "the straggler tier should produce dropped (stale) updates"
        );
        // Applied updates still counted correctly.
        let applied = engine.events().iter().filter(|r| r.weight > 0.0).count();
        assert_eq!(applied, engine.scheduler().updates_applied());
    }

    #[test]
    fn buffered_engine_is_deterministic_in_seed() {
        let run = || {
            let pool = BufferedAsync::new(AsyncConfig::new(3));
            let mut engine = timed_engine(FedAvg::new(), pool, (6, &[4], 3.0), 120, 11);
            for _ in 0..10 {
                engine.step().unwrap();
            }
            engine
        };
        let (a, b) = (run(), run());
        assert_eq!(a.global_model(), b.global_model());
        assert_eq!(
            a.scheduler().updates_applied(),
            b.scheduler().updates_applied()
        );
    }

    #[test]
    fn buffered_engine_with_buffer_aggregates_in_batches() {
        let pool = BufferedAsync::new(AsyncConfig::new(3).with_aggregate_after(4));
        let mut engine = timed_engine(FedAvg::new(), pool, (6, &[], 1.0), 120, 7);
        for _ in 0..8 {
            engine.step().unwrap();
        }
        // 8 arrivals with a buffer of 4 → exactly 2 server aggregations.
        assert_eq!(engine.scheduler().updates_applied(), 2);
    }

    #[test]
    fn buffered_arrivals_run_the_engine_work_schedule() {
        // One record per arrival, so each record's epochs are one job's.
        let pool = || {
            let config = AsyncConfig {
                eval_every: 1,
                ..AsyncConfig::new(3).with_staleness(StalenessWeight::Constant)
            };
            BufferedAsync::new(config)
        };
        fn arrival_epochs<A: Algorithm>(
            engine: &RoundEngine<A, BufferedAsync>,
        ) -> Vec<(usize, usize)> {
            let records = &engine.history().records;
            assert_eq!(records.len(), engine.events().len());
            let epochs = records.iter().map(|r| r.total_local_epochs);
            engine
                .events()
                .iter()
                .map(|e| e.client_id)
                .zip(epochs)
                .collect()
        }
        // FedAvg runs a fixed E even with heterogeneity on, as it does
        // under the other schedulers.
        let config = FedConfig {
            system_heterogeneity: true,
            ..small_config(6, 12)
        };
        let (train, test) = SyntheticDataset::Mnist.generate(120, 60, 12);
        let partition = DataDistribution::Iid.partition(&train, 6, 12);
        let mut engine = RoundEngine::new(config, train, test, partition, FedAvg::new(), pool())
            .unwrap()
            .with_devices(fleet(6, &[], 1.0))
            .unwrap();
        for _ in 0..12 {
            engine.step().unwrap();
        }
        let epochs = arrival_epochs(&engine);
        assert!(epochs.iter().all(|&(_, e)| e == 2), "{epochs:?}");
        // A per-client schedule installed after construction is honoured.
        let schedule = vec![1, 2, 3, 1, 2, 3];
        let mut engine = timed_engine(FedAdmm::paper_default(), pool(), (6, &[], 1.0), 120, 13)
            .with_work_schedule(LocalWorkSchedule::PerClient(schedule.clone()));
        for _ in 0..12 {
            engine.step().unwrap();
        }
        let epochs = arrival_epochs(&engine);
        assert!(epochs.iter().all(|&(c, e)| e == schedule[c]), "{epochs:?}");
    }

    #[test]
    fn semi_async_rounds_progress_under_stragglers() {
        // Deadline of 2.5s on a fleet where the straggler tier needs 3s per
        // epoch (6s per two-epoch job): fast clients make every deadline,
        // stragglers arrive a couple of rounds late.
        let semi = SemiAsync::new(SemiAsyncConfig::new(2.5));
        let mut engine = timed_engine(FedAdmm::paper_default(), semi, (8, &[3, 7], 3.0), 160, 8);
        let records = engine.run_rounds(10).unwrap();
        assert_eq!(records.len(), 10);
        assert!(engine.now() >= 10.0 * 2.5 - 1e-9);
        // Every record closes on the clock.
        for pair in records.windows(2) {
            assert!(pair[1].virtual_seconds >= pair[0].virtual_seconds + 2.5 - 1e-9);
        }
        let (_, max_staleness) = engine.staleness_stats();
        assert!(
            max_staleness > 0,
            "stragglers must arrive with staleness > 0"
        );
        // Straggler carry-over: at least one event is stale but applied.
        assert!(engine
            .events()
            .iter()
            .any(|e| e.staleness > 0 && e.weight > 0.0));
    }

    /// Steps `engine` `ticks` times. Every event must count every upload
    /// delivered so far, dropped ones included, and so must every round
    /// record; returns the records and the number of uploads kept.
    fn charged_on_arrival<S: Scheduler>(
        mut engine: RoundEngine<Scaffold, S>,
        ticks: usize,
    ) -> (Vec<RoundRecord>, usize) {
        // SCAFFOLD uploads `Δw` and `Δc`: 2d floats per message.
        let per_message = 2 * engine.global_model().len();
        let (mut arrived, mut dropped, mut records) = (0, 0, Vec::new());
        for _ in 0..ticks {
            let report = engine.step().unwrap();
            for event in &report.events {
                arrived += 1;
                dropped += usize::from(event.weight == 0.0);
                let charged = event.cumulative_upload_floats;
                assert_eq!(charged, arrived * per_message, "event {}", event.event);
            }
            if let Some(record) = report.record {
                let charged = record.cumulative_upload_floats;
                assert_eq!(charged, arrived * per_message, "round {}", record.round);
                records.push(record);
            }
        }
        assert!(
            dropped > 0 && dropped < arrived,
            "{dropped} of {arrived} uploads dropped"
        );
        assert_eq!(engine.cumulative_upload_floats(), arrived * per_message);
        (records, arrived - dropped)
    }

    #[test]
    fn semi_async_charges_every_upload_when_it_arrives() {
        let d = 7850;
        // A deadline that two-epoch stragglers miss, and a bound that drops
        // them when they land.
        let drop_late = StalenessWeight::BoundedDelay { max_staleness: 0 };
        let semi = SemiAsync::new(SemiAsyncConfig::new(2.5).with_staleness(drop_late));
        let engine = timed_engine(Scaffold::new(), semi, (8, &[3, 7], 3.0), 160, 8);
        let (records, kept) = charged_on_arrival(engine, 10);
        // A deadline round reports the uploads of what it folded: the
        // updates it kept.
        for r in &records {
            assert_eq!(r.upload_floats, r.num_selected * 2 * d, "round {}", r.round);
        }
        assert_eq!(records.iter().map(|r| r.num_selected).sum::<usize>(), kept);
    }

    #[test]
    fn buffered_charges_every_upload_when_it_arrives() {
        // Buffered pairs, the stale arrivals dropped. Its records report no
        // uploads of their own: the events carry them.
        let config = AsyncConfig {
            eval_every: 1,
            ..AsyncConfig::new(4)
                .with_aggregate_after(2)
                .with_staleness(StalenessWeight::BoundedDelay { max_staleness: 1 })
        };
        let pool = BufferedAsync::new(config);
        let engine = timed_engine(Scaffold::new(), pool, (6, &[4], 3.0), 120, 10);
        let (records, _) = charged_on_arrival(engine, 40);
        assert!(!records.is_empty());
        for r in &records {
            let reported = (r.upload_floats, r.num_selected);
            assert_eq!(reported, (0, 2), "round {}", r.round);
        }
    }

    #[test]
    fn semi_async_is_deterministic_in_seed() {
        let run = || {
            let semi = SemiAsync::new(SemiAsyncConfig::new(2.5));
            let mut engine =
                timed_engine(FedAdmm::paper_default(), semi, (8, &[3, 7], 10.0), 160, 9);
            engine.run_rounds(4).unwrap();
            engine
        };
        let (a, b) = (run(), run());
        // Histories agree on everything except wall-clock timing.
        let (mut ha, mut hb) = (a.history().clone(), b.history().clone());
        for r in ha.records.iter_mut().chain(hb.records.iter_mut()) {
            r.elapsed_ms = 0;
        }
        assert_eq!(ha, hb);
        assert_eq!(a.global_model(), b.global_model());
    }

    #[test]
    fn zero_copy_broadcast_shares_the_global_allocation() {
        // No scheduler holds a θ snapshot at aggregation time — each keeps
        // messages in flight, not snapshots — so
        // every path mutates θ in place and the allocation survives.
        fn keeps_theta<A: Algorithm, S: Scheduler>(
            mut engine: RoundEngine<A, S>,
            ticks: usize,
            name: &str,
        ) {
            let before = engine.global_model().as_slice().as_ptr();
            for _ in 0..ticks {
                engine.step().unwrap();
            }
            let after = engine.global_model().as_slice().as_ptr();
            assert_eq!(before, after, "{name} aggregation reallocated θ");
        }
        keeps_theta(
            make_engine(FedAvg::new(), SyncRounds, 5, 100, 10),
            1,
            "sync",
        );
        // Stragglers in flight across rounds.
        let semi = SemiAsync::new(SemiAsyncConfig::new(2.5));
        let fleet = (8, &[3, 7][..], 3.0);
        let semi = timed_engine(FedAdmm::paper_default(), semi, fleet, 160, 8);
        keeps_theta(semi, 6, "semi-async");
        let pool = BufferedAsync::new(AsyncConfig::new(3));
        let buffered = timed_engine(FedAvg::new(), pool, (6, &[4], 3.0), 120, 10);
        keeps_theta(buffered, 20, "buffered");
    }
}
