//! Engine parity and robustness tests.
//!
//! Two pins:
//!
//! 1. **Parity** — one table walks the golden scenario over every
//!    configuration axis that must not move a bit: FedADMM on five stores ×
//!    two folds × four wire modes × two worker counts, under two observers,
//!    and the six baselines on two pools. Each cell reproduces its golden
//!    digest or, where none is pinned, its one-worker reference cell. A CNN 1
//!    run and the `SemiAsync` / `BufferedAsync` runs reproduce digests of
//!    their own (the event-driven ones also fold every arrival's order and
//!    virtual time). This is every refactor's contract: selection, RNG
//!    streams and float-op order do not move.
//! 2. **Robustness** — under the `SemiAsync` deadline scheduler on a
//!    straggler fleet, FedADMM keeps learning from staleness-damped late
//!    arrivals (its uploads are *deltas*, so damping merely shrinks a
//!    correction), while FedAvg — whose uploads are full models that the
//!    server averages — is visibly hurt by the same damping. This is the
//!    paper's system-heterogeneity robustness claim transported to the
//!    deadline regime.

mod common;

use common::{event_digest, fleet, run_digest, state_digest, Scenario};
use fedadmm::core::trainer::evaluate;
use fedadmm::prelude::*;
use fedadmm::telemetry::names;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// This file's setting on `clients` clients: 30 % of them per round, E = 3
/// under variable local work, label-skewed shards.
const fn parity(clients: usize, seed: u64) -> Scenario {
    Scenario {
        participation: 0.3,
        epochs: 3,
        heterogeneity: true,
        distribution: DataDistribution::NonIidShards,
        ..Scenario::new(clients, seed)
    }
}

/// The golden scenario, run for 4 rounds.
const GOLDEN: Scenario = parity(9, 93);

/// FedADMM on [`GOLDEN`], dense and folded flat, on any store and pool and
/// under any observer. Pinned from the engine that owned a dense
/// `Vec<ClientState>`, before the client-state-store refactor.
const GOLDEN_DIGEST: u64 = 0xa147_b46a_ce24_2a96;

/// FedADMM on the golden scenario with the 8-bit + Gaussian-DP wire path on,
/// folded flat (any store) and by shard (three shards). Captured on the
/// commit before `EngineCore::aggregate` was restructured around one
/// `FoldPlan` applier.
const GOLDEN_WIRE_DIGEST: u64 = 0x22ab_5b29_a507_22b8;
const GOLDEN_WIRE_HIERARCHICAL_DIGEST: u64 = 0xbe34_0c59_3198_871b;

/// The five other algorithms and FedADMM with gradient-descent local solves
/// on the golden scenario, with the digest each produced on the former
/// per-job path (a fresh `Network` and `TrainScratch` per client update),
/// captured before the scratch form became the only local-update
/// implementation.
fn baseline_goldens() -> Vec<(&'static str, Box<dyn Algorithm>, u64)> {
    let gradient_descent = LocalSolver::GradientDescent {
        steps: 5,
        learning_rate: 0.1,
    };
    let fedadmm_gd = FedAdmm::new(0.3, ServerStepSize::Constant(1.0)).with_solver(gradient_descent);
    vec![
        ("FedAvg", Box::new(FedAvg::new()), 0x0b16_97d3_3777_5669),
        (
            "FedProx",
            Box::new(FedProx::new(0.1)),
            0x93c8_c907_dbe6_bdc0,
        ),
        ("SCAFFOLD", Box::new(Scaffold::new()), 0xa524_780f_f1d6_30e4),
        ("FedDyn", Box::new(FedDyn::new(0.1)), 0x69ae_eb64_4d3e_5c42),
        ("FedSGD", Box::new(FedSgd::new(0.5)), 0xbd4c_cbfa_c3b0_60d4),
        ("FedADMM-GD", Box::new(fedadmm_gd), 0xeaa2_7c70_355f_1f65),
    ]
}

/// The wire path's four modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Wire {
    Off,
    EightBit,
    EightBitGuarded,
    GuardOnly,
}

impl Wire {
    fn path(self) -> WirePathConfig {
        let guard = || Arc::new(GaussianMechanism::new(20.0, 1e-3));
        let eight_bit = || WirePathConfig::enabled(Quantizer::new(8, true));
        match self {
            Wire::Off => WirePathConfig::disabled(),
            Wire::EightBit => eight_bit(),
            Wire::EightBitGuarded => eight_bit().with_guard(guard()),
            Wire::GuardOnly => WirePathConfig::disabled().with_guard(guard()),
        }
    }
}

/// What rides along a run without being allowed to touch it.
#[derive(Debug, Clone, Copy)]
enum Observer {
    None,
    /// A tiered fleet with links behind the synchronous clock.
    Devices,
    Recorder,
}

/// One row of the parity table: a golden-scenario run and what it must
/// reproduce.
struct Cell {
    /// The algorithm as the table names it (`Algorithm::name` does not
    /// name FedADMM's local solver).
    label: &'static str,
    algorithm: Box<dyn Algorithm>,
    store: StoreConfig,
    fold: AggregationMode,
    wire: Wire,
    /// `None` is the default pool.
    workers: Option<usize>,
    observer: Observer,
    /// The pinned digest, or `None` to match the cell's reference: the
    /// first one-worker cell with the same label, fold, wire mode and
    /// (under the by-shard fold) shard count.
    golden: Option<u64>,
}

impl Cell {
    fn fedadmm(store: StoreConfig, fold: AggregationMode, wire: Wire, workers: usize) -> Self {
        let shards = shard_count(&store);
        let golden = match (fold, wire) {
            (AggregationMode::SinglePass, Wire::Off) => Some(GOLDEN_DIGEST),
            (AggregationMode::SinglePass, Wire::EightBitGuarded) => Some(GOLDEN_WIRE_DIGEST),
            (AggregationMode::Hierarchical, Wire::EightBitGuarded) if shards == 3 => {
                Some(GOLDEN_WIRE_HIERARCHICAL_DIGEST)
            }
            _ => None,
        };
        Cell {
            label: "FedADMM",
            algorithm: Box::new(FedAdmm::paper_default()),
            store,
            fold,
            wire,
            workers: Some(workers),
            observer: Observer::None,
            golden,
        }
    }

    /// Everything at its default: the default store, the flat fold, the
    /// wire path off, the default pool, nobody watching.
    fn plain(label: &'static str, algorithm: Box<dyn Algorithm>, golden: u64) -> Self {
        Cell {
            label,
            algorithm,
            store: StoreConfig::InMemory,
            fold: AggregationMode::SinglePass,
            wire: Wire::Off,
            workers: None,
            observer: Observer::None,
            golden: Some(golden),
        }
    }

    fn name(&self) -> String {
        let pool = self
            .workers
            .map_or("default pool".into(), |w| format!("{w} workers"));
        format!(
            "{} on {:?}, {:?} fold, wire {:?}, {pool}, observer {:?}",
            self.label, self.store, self.fold, self.wire, self.observer
        )
    }

    /// Runs the cell's 4 golden rounds: the run digest and the digest of
    /// every client's state.
    fn run(self) -> (u64, u64) {
        let mut engine = GOLDEN
            .engine_with(self.algorithm, SyncRounds, &self.store)
            .with_aggregation(self.fold)
            .with_wire_path(self.wire.path());
        if let Some(workers) = self.workers {
            engine = engine.with_dispatch_workers(workers);
        }
        engine = match self.observer {
            Observer::None => engine,
            Observer::Devices => engine.with_devices(tiered_fleet()).unwrap(),
            Observer::Recorder => engine.with_telemetry(Box::new(Recorder::new())),
        };
        engine.run_rounds(4).unwrap();
        if matches!(self.store, StoreConfig::Spill { .. }) {
            let stats = engine.store().stats();
            assert!(
                stats.evictions > 0,
                "the budget must force evictions: {stats:?}"
            );
        }
        let states = state_digest(&engine.clients().unwrap());
        (run_digest(engine.history(), engine.global_model()), states)
    }
}

/// The shard count `store` gives the golden scenario's 9 clients.
fn shard_count(store: &StoreConfig) -> usize {
    match store {
        StoreConfig::InMemory => 3, // ⌈√9⌉
        StoreConfig::Sharded { num_shards } | StoreConfig::Spill { num_shards, .. } => *num_shards,
    }
}

/// The golden clients on a three-tier fleet, every device with a link.
fn tiered_fleet() -> DeviceModel {
    let device = |seconds_per_epoch, upload_mbps, download_mbps, latency_ms| Device {
        seconds_per_epoch,
        link: Some(Link {
            upload_mbps,
            download_mbps,
            latency_ms,
        }),
    };
    let tiers = [
        (device(0.4, 30.0, 80.0, 20.0), 0.4),
        (device(1.2, 10.0, 30.0, 40.0), 0.3),
        (device(5.0, 2.0, 8.0, 80.0), 0.3),
    ];
    DeviceModel::tiered(GOLDEN.clients, &tiers, GOLDEN.seed)
}

/// Every row of the parity table, references first.
fn parity_table() -> Vec<Cell> {
    // About one client's state: every round evicts and reloads shards.
    let spill = StoreConfig::Spill {
        num_shards: 3,
        budget_bytes: 64 * 1024,
        dir: None,
    };
    let stores = [
        StoreConfig::InMemory,
        StoreConfig::Sharded { num_shards: 1 },
        StoreConfig::Sharded { num_shards: 3 },
        StoreConfig::Sharded { num_shards: 9 },
        spill.clone(),
    ];
    let mut table = Vec::new();
    for fold in [AggregationMode::SinglePass, AggregationMode::Hierarchical] {
        for wire in [
            Wire::Off,
            Wire::EightBit,
            Wire::EightBitGuarded,
            Wire::GuardOnly,
        ] {
            for workers in [1, 3] {
                for store in &stores {
                    table.push(Cell::fedadmm(store.clone(), fold, wire, workers));
                }
            }
        }
    }
    for observer in [Observer::Devices, Observer::Recorder] {
        table.push(Cell {
            observer,
            ..Cell::plain("FedADMM", Box::new(FedAdmm::paper_default()), GOLDEN_DIGEST)
        });
    }
    for workers in [None, Some(3)] {
        for (label, algorithm, golden) in baseline_goldens() {
            table.push(Cell {
                workers,
                ..Cell::plain(label, algorithm, golden)
            });
        }
    }
    // Each baseline's correction slot (SCAFFOLD's c_i, FedDyn's h_i) goes
    // through the spill codec and comes back bit for bit.
    for (label, algorithm, golden) in baseline_goldens() {
        table.push(Cell {
            store: spill.clone(),
            ..Cell::plain(label, algorithm, golden)
        });
    }
    table
}

#[test]
fn every_parity_cell_reproduces_its_golden_or_reference_digest() {
    // One reference per (label, wire mode, shard count under the
    // by-shard fold; 0 for the flat fold): the flat fold sums every
    // coordinate in message order whatever the store, the by-shard fold in
    // shard order.
    let mut references: HashMap<(&str, Wire, usize), (String, u64, u64)> = HashMap::new();
    for cell in parity_table() {
        let name = cell.name();
        let shards = match cell.fold {
            AggregationMode::SinglePass => 0,
            AggregationMode::Hierarchical => shard_count(&cell.store),
        };
        let key = (cell.label, cell.wire, shards);
        let golden = cell.golden;
        let (digest, states) = cell.run();
        if let Some(golden) = golden {
            assert_eq!(digest, golden, "{name}: digest {digest:#018x}");
        }
        let (reference, ref_digest, ref_states) = references
            .entry(key)
            .or_insert_with(|| (name.clone(), digest, states));
        assert_eq!(
            digest, *ref_digest,
            "{name}: digest {digest:#018x} differs from {reference}"
        );
        assert_eq!(
            states, *ref_states,
            "{name}: client states differ from {reference}"
        );
    }
}

/// FedADMM training the paper's CNN 1 (the only `Conv2d` / `MaxPool2d` /
/// im2col user): 4 clients × 5 samples, half the fleet per round, 1–2 local
/// epochs in ragged batches of 4 + 1, 2 rounds. Captured on the commit
/// before the `A·Bᵀ` panel kernel replaced the convolution's hand-rolled
/// product nests.
const GOLDEN_CNN_DIGEST: u64 = 0x1ce8_1295_2b96_3921;

#[test]
fn cnn_run_matches_its_pre_panel_kernel_golden_digest() {
    let scenario = Scenario {
        participation: 0.5,
        epochs: 2,
        batch: 4,
        learning_rate: 0.01,
        model: ModelSpec::Cnn1,
        train: 4 * 5,
        test: 12,
        distribution: DataDistribution::Iid,
        ..parity(4, 57)
    };
    let mut engine = scenario.engine(FedAdmm::paper_default());
    engine.run_rounds(2).unwrap();
    let digest = run_digest(engine.history(), engine.global_model());
    assert_eq!(
        digest, GOLDEN_CNN_DIGEST,
        "CNN run diverged from its golden digest (digest {digest:#018x})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Byte-identity holds for *arbitrary* pool sizes, not just the table's
    /// one and three workers (few cases — each is a full seeded training
    /// run).
    #[test]
    fn dispatch_digest_is_invariant_under_arbitrary_pool_geometry(workers in 1usize..=8) {
        let mut engine = GOLDEN
            .engine(FedAdmm::paper_default())
            .with_dispatch_workers(workers);
        engine.run_rounds(4).unwrap();
        prop_assert_eq!(run_digest(engine.history(), engine.global_model()), GOLDEN_DIGEST);
    }
}

#[test]
fn evaluate_global_matches_the_serial_reference_for_every_worker_count() {
    // 700 test samples are three chunks (256 + 256 + 188) and a 350-sample
    // cap two (256 + 94): the chunks run as pool jobs on whichever workers
    // claim them and are summed in chunk order, so loss and accuracy must
    // carry the bits of the serial `evaluate` loop — the golden scenario's
    // 120-sample test set is a single chunk and never sums anything.
    let scenario = Scenario {
        model: ModelSpec::Mlp {
            input_dim: 784,
            hidden_dim: 64,
            num_classes: 10,
        },
        test: 700,
        ..parity(6, 21)
    };
    let (_, test) = scenario.data();
    for (subset, evaluated) in [(1.0, 700), (0.5, 350)] {
        let mut reference: Option<(u32, u32)> = None;
        for workers in [1usize, 2, 3, 8] {
            let mut engine = scenario
                .engine(FedAdmm::paper_default())
                .with_dispatch_workers(workers)
                .eval_subset(subset);
            let record = engine.run_round().unwrap();
            let (loss, accuracy) = engine.evaluate_global().unwrap();
            let global = engine.global_model().as_slice();
            let serial = evaluate(scenario.model, global, &test, evaluated);
            let bits = (loss.to_bits(), accuracy.to_bits());
            assert_eq!(
                bits,
                serial.map(|(l, a)| (l.to_bits(), a.to_bits())).unwrap(),
                "{workers} workers, {evaluated} samples"
            );
            // The round record was evaluated by the same path, on the
            // workers that had just trained.
            assert_eq!(
                (record.test_loss.to_bits(), record.test_accuracy.to_bits()),
                bits
            );
            assert_eq!(*reference.get_or_insert(bits), bits, "{workers} workers");
        }
    }
}

#[test]
fn engine_is_deterministic_across_runs() {
    // The parallel dispatch path derives every client's RNG stream from
    // (seed, round, client), so two runs must agree bit for bit regardless
    // of thread interleaving.
    let scenario = parity(10, 31);
    let mut a = scenario.engine(FedAdmm::paper_default());
    let mut b = scenario.engine(FedAdmm::paper_default());
    a.run_rounds(4).unwrap();
    b.run_rounds(4).unwrap();
    assert_eq!(a.global_model(), b.global_model());
    // Histories agree on everything except wall-clock timing.
    let mut ha = a.history().clone();
    let mut hb = b.history().clone();
    for r in ha.records.iter_mut().chain(hb.records.iter_mut()) {
        r.elapsed_ms = 0;
    }
    assert_eq!(ha, hb);
}

#[test]
fn the_sync_clock_closes_every_round_later_and_stands_still_without_devices() {
    // The table's device cell holds the trajectory to the golden digest;
    // here the clock itself: every round closes later than the one before,
    // and without a model it never moves.
    let mut timed = GOLDEN
        .engine(FedAdmm::paper_default())
        .with_devices(tiered_fleet())
        .unwrap();
    timed.run_rounds(4).unwrap();
    let clock: Vec<f64> = timed
        .history()
        .records
        .iter()
        .map(|r| r.virtual_seconds)
        .collect();
    assert!(clock[0] > 0.0, "{clock:?}");
    assert!(clock.windows(2).all(|w| w[1] > w[0]), "{clock:?}");
    assert_eq!(timed.now(), clock[3]);
    let mut plain = GOLDEN.engine(FedAdmm::paper_default());
    plain.run_rounds(4).unwrap();
    assert!(plain
        .history()
        .records
        .iter()
        .all(|r| r.virtual_seconds == 0.0));
}

#[test]
fn an_installed_recorder_observes_every_round_of_the_run() {
    // The table's recorder cell holds the trajectory to the golden digest;
    // here the recorder saw the run it rode along with.
    let scenario = parity(10, 77);
    let mut instrumented = scenario
        .engine(FedAdmm::paper_default())
        .with_telemetry(Box::new(Recorder::new()));
    instrumented.run_rounds(5).unwrap();
    let recorder = instrumented
        .recorder()
        .expect("engine hands back the installed recorder");
    assert_eq!(
        recorder.metrics().counter_by_name(names::ROUNDS_TOTAL),
        Some(5)
    );
    assert!(!recorder.tracer().is_empty());
}

/// The event-driven population: ten clients, half of them selected per
/// semi-async round, three local epochs each, non-IID shards.
const fn event_driven(seed: u64) -> Scenario {
    Scenario {
        participation: 0.5,
        heterogeneity: false,
        ..parity(10, seed)
    }
}

/// Every second client is 3× slower than the 3.5 s deadline allows for its
/// three epochs, so its updates recur 1–3 rounds late (staleness-damped)
/// round after round — the regime the deadline scheduler exists for.
fn semi_async_engine<A: Algorithm>(algorithm: A, seed: u64) -> RoundEngine<A, SemiAsync> {
    let semi = SemiAsync::new(SemiAsyncConfig::new(3.5));
    event_driven(seed).timed(algorithm, semi, fleet(10, &[1, 3, 5, 7, 9], 3.0))
}

/// Runs [`semi_async_engine`] for `rounds` rounds: accuracy before and
/// after, and the number of stale updates applied.
fn semi_async_run<A: Algorithm>(algorithm: A, rounds: usize, seed: u64) -> (f32, f32, usize) {
    let mut engine = semi_async_engine(algorithm, seed);
    let (_, acc0) = engine.evaluate_global().unwrap();
    engine.run_rounds(rounds).unwrap();
    let (_, acc1) = engine.evaluate_global().unwrap();
    let stale_applied = engine
        .events()
        .iter()
        .filter(|e| e.staleness > 0 && e.weight > 0.0)
        .count();
    (acc0, acc1, stale_applied)
}

#[test]
fn semi_async_fedadmm_tolerates_stragglers_where_fedavg_degrades() {
    // Long enough for FedADMM's dual tracking to absorb the recurring
    // stale deltas; everything is seeded, so the run is deterministic.
    let rounds = 36;
    let (admm_0, admm_1, admm_stale) =
        semi_async_run(FedAdmm::new(0.3, ServerStepSize::Constant(1.0)), rounds, 42);
    let (_, avg_1, avg_stale) = semi_async_run(FedAvg::new(), rounds, 42);

    // The straggler tier actually participated late in both runs.
    assert!(admm_stale > 0, "no stale FedADMM updates were applied");
    assert!(avg_stale > 0, "no stale FedAvg updates were applied");

    // FedADMM keeps learning despite half its fleet arriving late: its
    // uploads are *deltas*, so a damped stale delta is a smaller
    // correction, and the dual variables re-absorb the residual the next
    // time the client participates.
    assert!(
        admm_1 > admm_0 + 0.6,
        "semi-async FedADMM only moved accuracy {admm_0} → {admm_1}"
    );
    // FedAvg replaces θ by an average that keeps folding in stale,
    // down-weighted full models, dragging the global model toward old
    // client optima — it lands clearly below FedADMM on the same fleet.
    assert!(
        admm_1 > avg_1 + 0.1,
        "FedADMM ({admm_1}) should beat FedAvg ({avg_1}) under deadline scheduling"
    );
}

/// FedADMM under `SemiAsync` on `semi_async_run`'s fleet (every second
/// client 3× slower, 3.5 s deadline), seed 42, 8 rounds. Captured before the
/// per-scheduler device fleets became one engine-level device model.
const GOLDEN_SEMI_ASYNC_DIGEST: u64 = 0x9251_e421_c105_60a5;

/// FedADMM under `BufferedAsync` on a four-wide pool of ten clients, four
/// of them 8× slower (clients 2, 4, 8 and 9: the seed-1 draw of the former
/// `AsyncConfig::two_tier`), 60 arrivals, at `aggregate_after` 1 and 4.
/// Captured alongside [`GOLDEN_SEMI_ASYNC_DIGEST`].
const GOLDEN_BUFFERED_DIGEST: [(usize, u64); 2] =
    [(1, 0x3dfc_d4ba_de66_22eb), (4, 0xa8e8_3991_7bdf_96fd)];

#[test]
fn event_driven_runs_match_their_golden_digests() {
    let admm = || FedAdmm::new(0.3, ServerStepSize::Constant(1.0));
    let mut engine = semi_async_engine(admm(), 42);
    engine.run_rounds(8).unwrap();
    let digest = event_digest(engine.history(), engine.global_model(), engine.events());
    assert_eq!(
        digest, GOLDEN_SEMI_ASYNC_DIGEST,
        "semi-async run diverged (digest {digest:#018x})"
    );
    for (k, golden) in GOLDEN_BUFFERED_DIGEST {
        let pool = BufferedAsync::new(AsyncConfig::new(4).with_aggregate_after(k));
        let devices = fleet(10, &[2, 4, 8, 9], 8.0);
        let mut engine = event_driven(42).timed(admm(), pool, devices);
        for _ in 0..60 {
            engine.step().unwrap();
        }
        let digest = event_digest(engine.history(), engine.global_model(), engine.events());
        assert_eq!(
            digest, golden,
            "buffered run (aggregate_after {k}) diverged (digest {digest:#018x})"
        );
    }
}

#[test]
fn semi_async_applies_every_selected_clients_work_eventually() {
    // No update is lost: every dispatched job eventually arrives (within
    // the horizon) or is still tracked as in flight.
    let scenario = Scenario {
        heterogeneity: false,
        distribution: DataDistribution::Iid,
        ..parity(8, 51)
    };
    let semi = SemiAsync::new(SemiAsyncConfig::new(3.0));
    let mut engine = scenario.timed(FedAdmm::paper_default(), semi, fleet(8, &[3, 7], 6.0));
    let records = engine.run_rounds(8).unwrap();
    assert_eq!(records.len(), 8);
    let arrived = engine.events().len();
    let in_flight = engine.scheduler().stragglers_in_flight();
    assert!(arrived > 0);
    // Each arrival is either fresh (staleness 0) or a carried-over
    // straggler; the two together account for all dispatched work.
    assert!(engine.events().iter().all(|e| e.weight > 0.0));
    assert!(in_flight <= engine.config().num_clients);
}
