//! Integration tests for the differential-privacy extension composed with
//! the full federated simulation.

mod common;

use common::{Scenario, LOGISTIC};
use fedadmm::prelude::*;
use std::sync::Arc;

/// Sixteen clients, a quarter of them per round, variable local work, 100
/// label-skewed training samples each and 200 test samples.
const fn scenario(seed: u64) -> Scenario {
    Scenario {
        participation: 0.25,
        heterogeneity: true,
        train: 1600,
        test: 200,
        distribution: DataDistribution::NonIidShards,
        ..Scenario::new(16, seed)
    }
}

/// The wire path's guard-only mode: uploads are clipped and noised by
/// `mechanism` on the dispatch workers and stay dense.
fn guarded(mechanism: GaussianMechanism) -> WirePathConfig {
    WirePathConfig::disabled().with_guard(Arc::new(mechanism))
}

fn fedadmm() -> FedAdmm {
    FedAdmm::new(0.3, ServerStepSize::Constant(1.0))
}

#[test]
fn dp_fedadmm_learns_under_moderate_noise_and_tracks_its_budget() {
    let mechanism = GaussianMechanism::new(20.0, 1e-3);
    let mut sim = scenario(1)
        .engine(fedadmm())
        .with_wire_path(guarded(mechanism));
    let mut accountant = PrivacyAccountant::new(1e-3, 0.25, 1e-5);
    let (_, acc0) = sim.evaluate_global().unwrap();
    for _ in 0..20 {
        sim.run_round().unwrap();
        accountant.step(1);
    }
    assert!(
        sim.history().best_accuracy() > acc0 + 0.3,
        "DP run failed to learn: {} → {}",
        acc0,
        sim.history().best_accuracy()
    );
    let spent = accountant.spent();
    assert_eq!(spent.rounds, 20);
    assert!(spent.rho_zcdp > 0.0 && spent.epsilon > 0.0);
    // More rounds can only cost more privacy.
    assert!(accountant.forecast(10).epsilon > spent.epsilon);
}

#[test]
fn stronger_noise_costs_accuracy_but_never_breaks_the_run() {
    let gentle = {
        let mut sim = scenario(2)
            .engine(fedadmm())
            .with_wire_path(guarded(GaussianMechanism::new(20.0, 1e-3)));
        sim.run_rounds(15).unwrap();
        sim.history().best_accuracy()
    };
    let harsh = {
        let mut sim = scenario(2)
            .engine(fedadmm())
            .with_wire_path(guarded(GaussianMechanism::new(20.0, 5e-2)));
        sim.run_rounds(15).unwrap();
        let history = sim.history();
        assert!(history.accuracy_series().iter().all(|a| a.is_finite()));
        history.best_accuracy()
    };
    assert!(
        gentle > harsh,
        "more noise must not help: gentle {gentle} vs harsh {harsh}"
    );
}

#[test]
fn clipping_alone_preserves_learning_when_the_threshold_is_loose() {
    // A loose clipping norm should have virtually no effect on the
    // trajectory compared with the unguarded algorithm.
    let mut plain = scenario(3).engine(fedadmm());
    let mut clipped = scenario(3)
        .engine(fedadmm())
        .with_wire_path(guarded(GaussianMechanism::new(1e4, 0.0)));
    plain.run_rounds(8).unwrap();
    clipped.run_rounds(8).unwrap();
    assert!(plain.global_model().dist(clipped.global_model()) < 1e-4);
    assert!((plain.history().final_accuracy() - clipped.history().final_accuracy()).abs() < 1e-6);
}

#[test]
fn wire_encode_is_privatize_then_quantize_on_their_own_seed_streams() {
    use fedadmm::core::engine::wire::{guard_seed, quant_seed};
    use fedadmm::core::trainer::LocalEnv;

    let (train, _) = SyntheticDataset::Mnist.generate(40, 10, 17);
    let indices: Vec<usize> = (0..40).collect();
    let env = LocalEnv {
        dataset: &train,
        indices: &indices,
        model: LOGISTIC,
        epochs: 2,
        batch_size: BatchSize::Size(16),
        learning_rate: 0.1,
        seed: 99,
    };
    let theta = ParamVector::from_vec(vec![0.01; env.model.num_params()]);
    let quantizer = Quantizer::new(8, true);
    let mechanism = GaussianMechanism::new(5.0, 0.01);
    let path = WirePathConfig::enabled(quantizer)
        .with_guard(Arc::new(mechanism))
        .resolve()
        .unwrap();

    // Real uploads, encoded as a dispatch worker would: FedADMM sends one
    // vector, SCAFFOLD two (Δw and Δc), vector k on guard and quantizer
    // seeds of its own.
    let fedadmm = FedAdmm::new(0.3, ServerStepSize::Constant(1.0));
    let mut scaffold = Scaffold::new();
    scaffold.init(env.model.num_params(), 1);
    for (algorithm, vectors) in [(&fedadmm as &dyn Algorithm, 1), (&scaffold, 2)] {
        let mut client = ClientState::new(0, indices.clone(), &theta);
        let plain = algorithm.client_update(&mut client, &theta, &env).unwrap();
        assert_eq!(plain.payload.len(), vectors);
        let mut message = plain.clone();
        path.encode(&mut message, env.seed, &mut Vec::new());

        // By hand: clip and noise each vector, then quantize what came out.
        let expected: Vec<_> = plain
            .payload
            .iter()
            .enumerate()
            .map(|(k, vector)| {
                let mut values = vector.as_slice().to_vec();
                mechanism.privatize(&mut values, guard_seed(env.seed, k));
                quantizer.quantize(&values, quant_seed(env.seed, k))
            })
            .collect();
        assert!(message.payload.is_empty());
        assert_eq!(
            message.wire.unwrap().vectors,
            expected,
            "{}",
            algorithm.name()
        );
    }
}

#[test]
fn accountant_matches_hand_computed_zcdp_composition() {
    // q = 0.25, σ = 1e-3 → ρ per round = q²/(2σ²) is enormous; use a
    // realistic deployment instead: σ = 1.2, q = 0.01, T = 500.
    let acc = PrivacyAccountant::new(1.2, 0.01, 1e-5);
    let spent = acc.forecast(500);
    let rho = 0.01f64 * 0.01 / (2.0 * 1.2 * 1.2) * 500.0;
    assert!((spent.rho_zcdp - rho).abs() < 1e-12);
    let eps = rho + 2.0 * (rho * (1.0f64 / 1e-5).ln()).sqrt();
    assert!((spent.epsilon - eps).abs() < 1e-12);
    assert!(
        spent.epsilon < 1.0,
        "a realistic deployment stays under ε = 1: {}",
        spent.epsilon
    );
}
