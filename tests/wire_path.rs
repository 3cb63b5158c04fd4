//! Wire-path integration tests.
//!
//! Four pins on the fused compression + privacy path:
//!
//! 1. **Bounded error** — the server's fused dequantize-accumulate fold
//!    agrees with the naive compress → decompress → aggregate reference up
//!    to float associativity, and both stay within the quantizer's
//!    worst-case error of the uncompressed fold (property-tested over bit
//!    widths, rounding modes and cohort shapes).
//! 2. **Determinism** — DP noise and stochastic rounding derive from
//!    `(seed, round, client)` streams, so private compressed runs are
//!    bit-reproducible and move with the engine seed.
//! 3. **Byte-identity off** — with the wire path disabled the engine is
//!    bit-identical to one that never heard of it (the golden digest in
//!    `tests/engine_parity.rs` pins the same property against a constant).
//! 4. **One pass** — every algorithm with a `FoldPlan` folds a coded cohort
//!    in exactly one `fuse_pass` span per aggregation; the decode fallback
//!    emits none.

mod common;

use common::Scenario;
use fedadmm::prelude::*;
use fedadmm_core::engine::wire::decode_message;
use fedadmm_tensor::vecops::{self, DequantTerm};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn wire_message(client_id: usize, values: Vec<f32>) -> fedadmm_core::algorithms::ClientMessage {
    fedadmm_core::algorithms::ClientMessage {
        client_id,
        num_samples: 30,
        payload: vec![ParamVector::from_vec(values)],
        epochs_run: 1,
        samples_processed: 30,
        wire: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The fused fold (one `dequant_axpy_fused` sweep over the coded
    /// cohort) must match the naive reference (decode every message, then
    /// fold dense) up to float associativity, and both must sit within
    /// `Σ_i |c_i|·max_error_i` of the fold over the *original* dense
    /// uploads — the wire path's correctness contract.
    #[test]
    fn fused_fold_matches_naive_reference_within_quantizer_bound(
        bits_idx in 0usize..3,
        stochastic in any::<bool>(),
        cohort in 1usize..10,
        dim in 2usize..80,
        seed in any::<u64>(),
    ) {
        let bits = [4u8, 8, 16][bits_idx];
        let quantizer = Quantizer::new(bits, stochastic);
        let path = WirePathConfig::enabled(quantizer).resolve().unwrap();
        let coeff = 1.0f32 / cohort as f32;
        let mut rng = SmallRng::seed_from_u64(seed);

        let mut reference = vec![0.0f32; dim];
        let mut bound = 0.0f32;
        let mut encoded = Vec::with_capacity(cohort);
        let mut codes = Vec::new();
        for c in 0..cohort {
            let values: Vec<f32> = (0..dim).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            vecops::axpy(coeff, &values, &mut reference);
            let lo = values.iter().cloned().fold(f32::INFINITY, f32::min);
            let hi = values.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            bound += coeff.abs() * quantizer.max_error(hi - lo);
            let mut msg = wire_message(c, values);
            path.encode(&mut msg, seed ^ (c as u64), &mut codes);
            encoded.push(msg);
        }

        // Naive reference: decode each message back to dense, fold densely.
        let mut naive = vec![0.0f32; dim];
        for msg in &encoded {
            let dense = decode_message(msg);
            vecops::axpy(coeff, dense.payload[0].as_slice(), &mut naive);
        }

        // Fused path: one sweep over the coded cohort, scale folded into
        // the per-message coefficient exactly as `EngineCore::aggregate` does.
        let terms: Vec<DequantTerm<'_>> = encoded
            .iter()
            .map(|msg| {
                let wire = msg.wire.as_ref().unwrap();
                let v = &wire.vectors[0];
                DequantTerm {
                    alpha: coeff * wire.scale,
                    min: v.min,
                    step: v.step,
                    codes: &v.codes,
                }
            })
            .collect();
        let mut fused = vec![0.0f32; dim];
        vecops::dequant_axpy_fused(&terms, &mut fused);

        for (f, n) in fused.iter().zip(naive.iter()) {
            prop_assert!(
                (f - n).abs() <= 1e-4 * (1.0 + n.abs()),
                "fused {f} vs naive {n}: more than float-associativity apart"
            );
        }
        let slack = bound * 1.001 + 1e-5;
        for (f, r) in fused.iter().zip(reference.iter()) {
            prop_assert!(
                (f - r).abs() <= slack,
                "fused {f} vs dense reference {r} exceeds the quantizer bound {slack}"
            );
        }
    }
}

#[test]
fn private_compressed_runs_are_deterministic_and_move_with_the_seed() {
    let wire = || {
        WirePathConfig::enabled(Quantizer::new(8, true))
            .with_guard(Arc::new(GaussianMechanism::new(10.0, 0.01)))
    };
    let mut a = Scenario::new(8, 19)
        .engine(FedAdmm::paper_default())
        .with_wire_path(wire());
    let mut b = Scenario::new(8, 19)
        .engine(FedAdmm::paper_default())
        .with_wire_path(wire());
    a.run_rounds(3).unwrap();
    b.run_rounds(3).unwrap();
    assert_eq!(
        a.global_model(),
        b.global_model(),
        "same seed + same wire config must be bit-identical"
    );
    let mut ha = a.history().clone();
    let mut hb = b.history().clone();
    for r in ha.records.iter_mut().chain(hb.records.iter_mut()) {
        r.elapsed_ms = 0;
    }
    assert_eq!(ha, hb);

    let mut c = Scenario::new(8, 20)
        .engine(FedAdmm::paper_default())
        .with_wire_path(wire());
    c.run_rounds(3).unwrap();
    assert_ne!(
        a.global_model(),
        c.global_model(),
        "noise and rounding streams must move with the engine seed"
    );
}

#[test]
fn disabled_wire_path_is_byte_identical_and_enabled_is_not() {
    let mut off_a = Scenario::new(8, 33)
        .engine(FedAdmm::paper_default())
        .with_wire_path(WirePathConfig::disabled());
    let mut off_b = Scenario::new(8, 33)
        .engine(FedAdmm::paper_default())
        .with_wire_path(WirePathConfig::disabled());
    off_a.run_rounds(4).unwrap();
    off_b.run_rounds(4).unwrap();
    assert_eq!(off_a.global_model(), off_b.global_model());

    let mut default = Scenario::new(8, 33)
        .engine(FedAdmm::paper_default())
        .with_wire_path(WirePathConfig::default());
    default.run_rounds(4).unwrap();
    assert_eq!(
        off_a.global_model(),
        default.global_model(),
        "wire path must be off by default"
    );

    let mut on = Scenario::new(8, 33)
        .engine(FedAdmm::paper_default())
        .with_wire_path(WirePathConfig::enabled(Quantizer::new(8, true)));
    on.run_rounds(4).unwrap();
    assert_ne!(
        off_a.global_model(),
        on.global_model(),
        "8-bit quantization must perturb the trajectory"
    );

    // Dense runs report dense bytes; coded runs report true wire bytes,
    // ~4× smaller at 8 bits (plus the tiny min/step/scale header).
    for r in &off_a.history().records {
        assert_eq!(r.wire_bytes, 4 * r.upload_floats);
        assert_eq!(r.dense_wire_ratio, 1.0);
    }
    for r in &on.history().records {
        assert!(r.wire_bytes > 0 && r.wire_bytes < 4 * r.upload_floats);
        assert!(
            r.dense_wire_ratio > 3.5 && r.dense_wire_ratio < 4.5,
            "8-bit ratio was {}",
            r.dense_wire_ratio
        );
    }
    assert!(on.cumulative_wire_bytes() > 0);
    assert!(on.cumulative_wire_bytes() * 3 < off_a.cumulative_wire_bytes());
}

#[test]
fn compressed_private_run_still_learns() {
    let private = WirePathConfig::enabled(Quantizer::new(8, true))
        .with_guard(Arc::new(GaussianMechanism::new(20.0, 1e-3)));
    // Four levels per coordinate degrade the run but must not diverge it.
    let aggressive = WirePathConfig::enabled(Quantizer::new(2, true));
    for (wire, min_gain) in [(private, 0.2), (aggressive, f32::NEG_INFINITY)] {
        let mut engine = Scenario::new(8, 41)
            .engine(FedAdmm::paper_default())
            .with_wire_path(wire.clone());
        let (_, acc0) = engine.evaluate_global().unwrap();
        engine.run_rounds(8).unwrap();
        let history = engine.history();
        assert!(history.accuracy_series().iter().all(|a| a.is_finite()));
        assert!(engine
            .global_model()
            .as_slice()
            .iter()
            .all(|v| v.is_finite()));
        let best = history.best_accuracy();
        assert!(
            best > acc0 + min_gain,
            "FedADMM under {wire:?} failed to learn: {acc0} → {best}"
        );
    }
}

/// The `fuse_pass` spans of three recorded rounds (three aggregations) of
/// `algorithm` under `wire`.
fn fuse_passes<A: Algorithm>(algorithm: A, wire: WirePathConfig) -> usize {
    let mut engine = Scenario::new(8, 29)
        .engine(algorithm)
        .with_wire_path(wire)
        .with_telemetry(Box::new(Recorder::new()));
    engine.run_rounds(3).unwrap();
    let recorder = engine
        .recorder()
        .expect("engine hands back the installed recorder");
    let spans = recorder.tracer().records();
    spans.iter().filter(|s| s.name == "fuse_pass").count()
}

#[test]
fn every_fold_plan_algorithm_folds_a_coded_cohort_in_one_pass() {
    let coded = || WirePathConfig::enabled(Quantizer::new(8, true));
    let gradient_descent = LocalSolver::GradientDescent {
        steps: 5,
        learning_rate: 0.1,
    };
    let planned: Vec<Box<dyn Algorithm>> = vec![
        Box::new(FedAdmm::paper_default()),
        Box::new(FedAdmm::new(0.3, ServerStepSize::Constant(1.0)).with_solver(gradient_descent)),
        Box::new(FedAvg::new()),
        Box::new(FedProx::new(0.1)),
        Box::new(FedSgd::new(0.5)),
    ];
    for algorithm in planned {
        let name = algorithm.name();
        assert_eq!(fuse_passes(algorithm, coded()), 3, "{name}");
    }
    // No plan (two vectors per upload), or nothing coded to fuse: no span.
    assert_eq!(fuse_passes(Scaffold::new(), coded()), 0);
    let guard_only =
        WirePathConfig::disabled().with_guard(Arc::new(GaussianMechanism::new(20.0, 1e-3)));
    assert_eq!(fuse_passes(FedAdmm::paper_default(), guard_only), 0);
}

#[test]
fn multi_vector_uploads_take_the_decode_fallback_and_still_work() {
    // SCAFFOLD uploads two vectors per message; the fused single-sweep fold
    // requires single-vector wire payloads, so the engine must fall back to
    // the decode reference — correctness over speed, never a panic.
    let mut engine = Scenario::new(8, 23)
        .engine(Scaffold::new())
        .with_wire_path(WirePathConfig::enabled(Quantizer::new(8, true)));
    let (_, acc0) = engine.evaluate_global().unwrap();
    engine.run_rounds(6).unwrap();
    for r in &engine.history().records {
        assert!(r.wire_bytes > 0 && r.wire_bytes < 4 * r.upload_floats);
    }
    let best = engine.history().best_accuracy();
    assert!(
        best > acc0 + 0.15,
        "compressed SCAFFOLD failed to learn: {acc0} → {best}"
    );
}
