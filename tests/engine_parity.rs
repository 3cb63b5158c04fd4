//! Engine parity and robustness tests.
//!
//! Two pins:
//!
//! 1. **Parity** — a seeded `RoundEngine` + `SyncRounds` run reproduces
//!    golden digests of its full `RunHistory` and final global model, for
//!    FedADMM, for each of the eight baselines, for FedADMM under the
//!    8-bit + DP wire path (flat and by-shard fold) and for FedADMM training
//!    the paper's CNN 1, on every dispatch-pool geometry; and `SemiAsync` /
//!    `BufferedAsync` runs reproduce digests that also fold every arrival
//!    event (order and virtual time). This is every refactor's contract:
//!    selection, RNG streams and float-op order do not move.
//! 2. **Robustness** — under the `SemiAsync` deadline scheduler on a
//!    straggler fleet, FedADMM keeps learning from staleness-damped late
//!    arrivals (its uploads are *deltas*, so damping merely shrinks a
//!    correction), while FedAvg — whose uploads are full models that the
//!    server averages — is visibly hurt by the same damping. This is the
//!    paper's system-heterogeneity robustness claim transported to the
//!    deadline regime.

use fedadmm::core::trainer::evaluate;
use fedadmm::prelude::*;
use fedadmm::telemetry::names;
use fedadmm_core::engine::{DispatchConfig, RoundEngine, WirePathConfig};
use proptest::prelude::*;
use std::sync::Arc;

fn config(num_clients: usize, seed: u64, system_heterogeneity: bool) -> FedConfig {
    FedConfig {
        num_clients,
        participation: Participation::Fraction(0.3),
        local_epochs: 3,
        system_heterogeneity,
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

fn data(num_clients: usize, seed: u64) -> (fedadmm::data::Dataset, fedadmm::data::Dataset) {
    SyntheticDataset::Mnist.generate(num_clients * 30, 120, seed)
}

/// FNV-1a digest over every schedule-independent field of a run: the full
/// round history (modulo wall-clock timing) plus the bit pattern of the
/// final global model.
fn run_digest(history: &RunHistory, global: &ParamVector) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut fold = |x: u64| {
        for byte in x.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(PRIME);
        }
    };
    for r in &history.records {
        fold(r.round as u64);
        fold(u64::from(r.test_accuracy.to_bits()));
        fold(u64::from(r.test_loss.to_bits()));
        fold(r.num_selected as u64);
        fold(r.upload_floats as u64);
        fold(r.cumulative_upload_floats as u64);
        fold(r.total_local_epochs as u64);
        fold(r.samples_processed as u64);
        fold(r.staleness_mean.to_bits());
        fold(r.staleness_max as u64);
    }
    for &x in global.as_slice() {
        fold(u64::from(x.to_bits()));
    }
    h
}

/// [`run_digest`] continued over every arrival event: virtual time and
/// weight bits, client, staleness and cumulative upload — so arrival order
/// and the virtual clock are pinned, not only θ.
fn event_digest(history: &RunHistory, global: &ParamVector, events: &[AsyncRecord]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = run_digest(history, global);
    for e in events {
        for x in [
            e.sim_time.to_bits(),
            u64::from(e.weight.to_bits()),
            e.client_id as u64,
            e.staleness as u64,
            e.cumulative_upload_floats as u64,
        ] {
            for byte in x.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(PRIME);
            }
        }
    }
    h
}

#[test]
fn in_memory_engine_matches_pre_refactor_golden_digest() {
    // Pinned from the engine as it stood before the client-state-store
    // refactor: a run on the default `StoreConfig::InMemory` store (lazy
    // shards) must reproduce the exact trajectory (selection, RNG streams,
    // float-op order) of the engine that owned a dense `Vec<ClientState>`.
    // Any reordering of the aggregation arithmetic or the dispatch seeding
    // changes this digest.
    let digest = scenario_digest(FedAdmm::paper_default(), DispatchConfig::default());
    assert_eq!(
        digest, GOLDEN_DIGEST,
        "seeded run diverged from the pre-refactor engine (digest {digest:#018x})"
    );
}

const GOLDEN_DIGEST: u64 = 0xa147_b46a_ce24_2a96;

/// FedADMM on the golden scenario with the 8-bit + Gaussian-DP wire path on,
/// folded flat (`InMemory` store) and by shard (three shards). Captured on
/// the commit before `EngineCore::aggregate` was restructured around one
/// `FoldPlan` applier.
const GOLDEN_WIRE_DIGEST: u64 = 0x22ab_5b29_a507_22b8;
const GOLDEN_WIRE_HIERARCHICAL_DIGEST: u64 = 0xbe34_0c59_3198_871b;

/// Runs the golden-digest scenario (9 clients, seed 93, non-IID shards, 4
/// rounds) for `algorithm` on an explicitly configured dispatch pool, with
/// dense uploads and the default `InMemory` store, and returns the run
/// digest.
fn scenario_digest<A: Algorithm>(algorithm: A, dispatch: DispatchConfig) -> u64 {
    scenario_digest_with(
        algorithm,
        dispatch,
        &StoreConfig::InMemory,
        WirePathConfig::disabled(),
        AggregationMode::SinglePass,
    )
}

/// The golden scenario on the given store, wire path and fold.
fn scenario_digest_with<A: Algorithm>(
    algorithm: A,
    dispatch: DispatchConfig,
    store: &StoreConfig,
    wire: WirePathConfig,
    aggregation: AggregationMode,
) -> u64 {
    let mut engine = golden_engine(algorithm, store)
        .with_dispatch(dispatch)
        .with_wire_path(wire)
        .with_aggregation(aggregation);
    engine.run_rounds(4).unwrap();
    run_digest(engine.history(), engine.global_model())
}

/// The golden scenario's engine on `store`, not yet run.
fn golden_engine<A: Algorithm>(algorithm: A, store: &StoreConfig) -> RoundEngine<A, SyncRounds> {
    let num_clients = 9;
    let cfg = config(num_clients, 93, true);
    let (train, test) = data(num_clients, 93);
    let partition = DataDistribution::NonIidShards.partition(&train, num_clients, 93);
    RoundEngine::new_with_store(cfg, train, test, partition, algorithm, SyncRounds, store).unwrap()
}

#[test]
fn the_virtual_clock_is_observation_only() {
    // A tiered fleet with links behind the synchronous clock leaves the
    // golden trajectory where it is, and every round closes later than the
    // one before.
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
    let devices = DeviceModel::tiered(9, &tiers, 93);
    let mut timed = golden_engine(FedAdmm::paper_default(), &StoreConfig::InMemory)
        .with_devices(devices)
        .unwrap();
    timed.run_rounds(4).unwrap();
    let digest = run_digest(timed.history(), timed.global_model());
    assert_eq!(digest, GOLDEN_DIGEST, "digest {digest:#018x}");
    let clock: Vec<f64> = timed
        .history()
        .records
        .iter()
        .map(|r| r.virtual_seconds)
        .collect();
    assert!(clock[0] > 0.0, "{clock:?}");
    assert!(clock.windows(2).all(|w| w[1] > w[0]), "{clock:?}");
    assert_eq!(timed.now(), clock[3]);
    // Without a model the clock never moves.
    let mut plain = golden_engine(FedAdmm::paper_default(), &StoreConfig::InMemory);
    plain.run_rounds(4).unwrap();
    assert!(plain
        .history()
        .records
        .iter()
        .all(|r| r.virtual_seconds == 0.0));
}

#[test]
fn wire_on_runs_match_their_pre_restructure_golden_digests() {
    let wire = || {
        WirePathConfig::enabled(Quantizer::new(8, true))
            .with_guard(Arc::new(GaussianMechanism::new(20.0, 1e-3)))
    };
    let pools = [
        DispatchConfig::default(),
        DispatchConfig {
            workers: Some(3),
            chunk_size: Some(1),
        },
    ];
    for dispatch in pools {
        let flat = (
            StoreConfig::InMemory,
            AggregationMode::SinglePass,
            GOLDEN_WIRE_DIGEST,
        );
        let by_shard = (
            StoreConfig::Sharded { num_shards: 3 },
            AggregationMode::Hierarchical,
            GOLDEN_WIRE_HIERARCHICAL_DIGEST,
        );
        for (store, aggregation, golden) in [flat, by_shard] {
            let algorithm = FedAdmm::paper_default();
            let digest = scenario_digest_with(algorithm, dispatch, &store, wire(), aggregation);
            assert_eq!(
                digest, golden,
                "wire-on {aggregation:?} run diverged under {dispatch:?} (digest {digest:#018x})"
            );
        }
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
    let num_clients = 4;
    let cfg = FedConfig {
        participation: Participation::Fraction(0.5),
        local_epochs: 2,
        batch_size: BatchSize::Size(4),
        local_learning_rate: 0.01,
        model: ModelSpec::Cnn1,
        ..config(num_clients, 57, true)
    };
    let (train, test) = SyntheticDataset::Mnist.generate(num_clients * 5, 12, 57);
    let partition = DataDistribution::Iid.partition(&train, num_clients, 57);
    let algorithm = FedAdmm::paper_default();
    let mut engine = RoundEngine::new(cfg, train, test, partition, algorithm, SyncRounds)
        .unwrap()
        .with_wire_path(WirePathConfig::disabled());
    engine.run_rounds(2).unwrap();
    let digest = run_digest(engine.history(), engine.global_model());
    assert_eq!(
        digest, GOLDEN_CNN_DIGEST,
        "CNN run diverged from its golden digest (digest {digest:#018x})"
    );
}

/// The eight non-FedADMM algorithms on the golden scenario, with the digest
/// each produced on the former per-job path (a fresh `Network` and
/// `TrainScratch` per client update), captured before the scratch form
/// became the only local-update implementation. FedPD runs under full
/// participation, which the engine selects on its own.
fn baseline_goldens() -> Vec<(Box<dyn Algorithm>, u64)> {
    let inexact = FedAdmmInexact::new(
        0.3,
        ServerStepSize::Constant(1.0),
        LocalSolver::GradientDescent {
            steps: 5,
            learning_rate: 0.1,
        },
    );
    vec![
        (Box::new(FedAvg::new()), 0x0b16_97d3_3777_5669),
        (Box::new(FedProx::new(0.1)), 0x93c8_c907_dbe6_bdc0),
        (Box::new(Scaffold::new()), 0xa524_780f_f1d6_30e4),
        (Box::new(FedDyn::new(0.1)), 0x69ae_eb64_4d3e_5c42),
        (Box::new(FedPd::new(0.3, 0.5)), 0x899f_1673_69e4_406e),
        (Box::new(FedOpt::adam()), 0x4f6a_8b16_73d3_d03b),
        (Box::new(FedSgd::new(0.5)), 0xbd4c_cbfa_c3b0_60d4),
        (Box::new(inexact), 0xeaa2_7c70_355f_1f65),
    ]
}

#[test]
fn baseline_algorithms_match_their_pre_switch_golden_digests() {
    let pools = [
        DispatchConfig::default(),
        DispatchConfig {
            workers: Some(3),
            chunk_size: Some(1),
        },
    ];
    for dispatch in pools {
        for (algorithm, golden) in baseline_goldens() {
            let name = algorithm.name();
            let digest = scenario_digest(algorithm, dispatch);
            assert_eq!(
                digest, golden,
                "{name} diverged from its golden digest under {dispatch:?} (digest {digest:#018x})"
            );
        }
    }
}

#[test]
fn dispatch_is_byte_identical_across_worker_counts_and_chunk_sizes() {
    // The work-stealing pool may hand any job to any worker in any chunking;
    // because every job's RNG stream is (seed, round, client)-derived and
    // results are collected in client-id order, the digest must not move.
    for workers in [1usize, 2, 3, 8] {
        for chunk in [1usize, 4] {
            let dispatch = DispatchConfig {
                workers: Some(workers),
                chunk_size: Some(chunk),
            };
            assert_eq!(
                scenario_digest(FedAdmm::paper_default(), dispatch),
                GOLDEN_DIGEST,
                "digest moved with {workers} workers, chunk {chunk}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Byte-identity holds for *arbitrary* pool geometry, not just the
    /// hand-picked worker/chunk pairs (few cases — each is a full seeded
    /// training run).
    #[test]
    fn dispatch_digest_is_invariant_under_arbitrary_pool_geometry(
        workers in 1usize..=8,
        chunk in 1usize..=9,
    ) {
        let dispatch = DispatchConfig {
            workers: Some(workers),
            chunk_size: Some(chunk),
        };
        prop_assert_eq!(scenario_digest(FedAdmm::paper_default(), dispatch), GOLDEN_DIGEST);
    }
}

#[test]
fn evaluate_global_matches_the_serial_reference_for_every_worker_count() {
    // 700 test samples are three chunks (256 + 256 + 188) and a 350-sample
    // cap two (256 + 94): the chunks run as pool jobs on whichever workers
    // claim them and are summed in chunk order, so loss and accuracy must
    // carry the bits of the serial `evaluate` loop — the golden scenario's
    // 120-sample test set is a single chunk and never sums anything.
    let model = ModelSpec::Mlp {
        input_dim: 784,
        hidden_dim: 64,
        num_classes: 10,
    };
    let num_clients = 6;
    for (subset, evaluated) in [(1.0, 700), (0.5, 350)] {
        let mut reference: Option<(u32, u32)> = None;
        for workers in [1usize, 2, 3, 8] {
            let cfg = FedConfig {
                model,
                ..config(num_clients, 21, true)
            };
            let (train, test) = SyntheticDataset::Mnist.generate(num_clients * 30, 700, 21);
            let partition = DataDistribution::NonIidShards.partition(&train, num_clients, 21);
            let algorithm = FedAdmm::paper_default();
            let mut engine =
                RoundEngine::new(cfg, train, test.clone(), partition, algorithm, SyncRounds)
                    .unwrap()
                    .with_dispatch_workers(workers)
                    .with_wire_path(WirePathConfig::disabled())
                    .eval_subset(subset);
            let record = engine.run_round().unwrap();
            let (loss, accuracy) = engine.evaluate_global().unwrap();
            let serial = evaluate(model, engine.global_model().as_slice(), &test, evaluated);
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
    let num_clients = 10;
    let make = || {
        let cfg = config(num_clients, 31, true);
        let (train, test) = data(num_clients, 31);
        let partition = DataDistribution::NonIidShards.partition(&train, num_clients, 31);
        RoundEngine::new(
            cfg,
            train,
            test,
            partition,
            FedAdmm::paper_default(),
            SyncRounds,
        )
        .unwrap()
    };
    let mut a = make();
    let mut b = make();
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
fn instrumented_run_is_byte_identical_to_uninstrumented() {
    // Telemetry is observation only: installing a full `Recorder` (spans,
    // counters, histograms, per-client timings) must not perturb a single
    // bit of the training trajectory. Timing reads are gated on
    // `Telemetry::enabled`, so the only code that may differ between the
    // two runs is clock reads and metric bookkeeping — never RNG draws,
    // selection, or arithmetic.
    let num_clients = 10;
    let make = || {
        let cfg = config(num_clients, 77, true);
        let (train, test) = data(num_clients, 77);
        let partition = DataDistribution::NonIidShards.partition(&train, num_clients, 77);
        RoundEngine::new(
            cfg,
            train,
            test,
            partition,
            FedAdmm::paper_default(),
            SyncRounds,
        )
        .unwrap()
    };
    let mut plain = make();
    let mut instrumented = make().with_telemetry(Box::new(Recorder::new()));
    plain.run_rounds(5).unwrap();
    instrumented.run_rounds(5).unwrap();

    assert_eq!(
        plain.global_model(),
        instrumented.global_model(),
        "recording telemetry changed the trained model"
    );
    // Histories agree on everything except wall-clock timing.
    let mut hp = plain.history().clone();
    let mut hi = instrumented.history().clone();
    for r in hp.records.iter_mut().chain(hi.records.iter_mut()) {
        r.elapsed_ms = 0;
    }
    assert_eq!(hp, hi, "recording telemetry changed the run history");

    // And the recorder actually observed the run it rode along with.
    let recorder = instrumented
        .recorder()
        .expect("engine hands back the installed recorder");
    assert_eq!(
        recorder.metrics().counter_by_name(names::ROUNDS_TOTAL),
        Some(5)
    );
    assert!(!recorder.tracer().is_empty());
}

/// Compute-only devices at 1 s per epoch, except the `slow` clients at
/// `slow_seconds`.
fn fleet(num_clients: usize, slow: &[usize], slow_seconds: f64) -> DeviceModel {
    let seconds = (0..num_clients).map(|c| if slow.contains(&c) { slow_seconds } else { 1.0 });
    DeviceModel::new(seconds.collect())
}

/// The event-driven population: ten clients on `devices`, half of them
/// selected per semi-async round, non-IID shards.
fn event_driven_engine<A: Algorithm, S: Scheduler>(
    algorithm: A,
    scheduler: S,
    devices: DeviceModel,
    seed: u64,
) -> RoundEngine<A, S> {
    let num_clients = 10;
    let cfg = FedConfig {
        participation: Participation::Fraction(0.5),
        ..config(num_clients, seed, false)
    };
    let (train, test) = data(num_clients, seed);
    let partition = DataDistribution::NonIidShards.partition(&train, num_clients, seed);
    RoundEngine::new(cfg, train, test, partition, algorithm, scheduler)
        .unwrap()
        .with_devices(devices)
        .unwrap()
}

/// Every second client is 3× slower than the 3.5 s deadline allows for its
/// three epochs, so its updates recur 1–3 rounds late (staleness-damped)
/// round after round — the regime the deadline scheduler exists for.
fn semi_async_engine<A: Algorithm>(algorithm: A, seed: u64) -> RoundEngine<A, SemiAsync> {
    let semi = SemiAsync::new(SemiAsyncConfig::new(3.5));
    event_driven_engine(algorithm, semi, fleet(10, &[1, 3, 5, 7, 9], 3.0), seed)
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
        let mut engine = event_driven_engine(admm(), pool, devices, 42);
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
    let num_clients = 8;
    let cfg = config(num_clients, 51, false);
    let (train, test) = data(num_clients, 51);
    let partition = DataDistribution::Iid.partition(&train, num_clients, 51);
    let semi = SemiAsync::new(SemiAsyncConfig::new(3.0));
    let algorithm = FedAdmm::paper_default();
    let mut engine = RoundEngine::new(cfg, train, test, partition, algorithm, semi)
        .unwrap()
        .with_devices(fleet(num_clients, &[3, 7], 6.0))
        .unwrap();
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
