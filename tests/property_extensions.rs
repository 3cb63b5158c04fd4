//! Property-based tests (proptest) for the extension crates and the new
//! core modules: invariants that must hold for *arbitrary* inputs, not just
//! the hand-picked cases of the unit tests.

use fedadmm::core::theory::{min_rho, theorem1_constants};
use fedadmm::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // ------------------------------------------------------------------
    // Differential privacy mechanism.
    // ------------------------------------------------------------------

    /// Clipping never increases the norm, never changes the direction, and
    /// is idempotent.
    #[test]
    fn clipping_is_a_contraction_and_idempotent(
        values in proptest::collection::vec(-50.0f32..50.0, 1..64),
        clip in 0.1f32..20.0,
    ) {
        let mech = GaussianMechanism::new(clip, 0.0);
        let mut clipped = values.clone();
        mech.clip(&mut clipped);
        let norm = |v: &[f32]| v.iter().map(|x| x * x).sum::<f32>().sqrt();
        prop_assert!(norm(&clipped) <= clip * 1.0001);
        prop_assert!(norm(&clipped) <= norm(&values) * 1.0001);
        // Idempotent: clipping twice changes nothing further.
        let mut twice = clipped.clone();
        mech.clip(&mut twice);
        for (a, b) in clipped.iter().zip(twice.iter()) {
            prop_assert!((a - b).abs() <= 1e-6);
        }
        // Direction preserved: the sign pattern never flips.
        for (orig, new) in values.iter().zip(clipped.iter()) {
            prop_assert!(orig.signum() == new.signum() || *new == 0.0 || *orig == 0.0);
        }
    }

    /// The zCDP accountant is additive: accounting T₁ then T₂ rounds equals
    /// accounting T₁ + T₂ rounds in one go.
    #[test]
    fn privacy_accounting_is_additive(
        sigma in 0.3f64..5.0,
        q in 0.001f64..1.0,
        t1 in 1usize..500,
        t2 in 1usize..500,
    ) {
        let mut split = PrivacyAccountant::new(sigma, q, 1e-5);
        split.step(t1);
        split.step(t2);
        let mut joint = PrivacyAccountant::new(sigma, q, 1e-5);
        joint.step(t1 + t2);
        prop_assert!((split.spent().rho_zcdp - joint.spent().rho_zcdp).abs() < 1e-12);
        prop_assert!((split.spent().epsilon - joint.spent().epsilon).abs() < 1e-9);
    }

    // ------------------------------------------------------------------
    // Theory module.
    // ------------------------------------------------------------------

    /// Whenever ρ exceeds the admissibility threshold, the Theorem 1
    /// constants exist and are positive, and c1 grows with p_min.
    #[test]
    fn theorem_constants_are_positive_above_threshold(
        l in 0.05f64..20.0,
        margin in 1.01f64..10.0,
        p_min in 0.01f64..1.0,
    ) {
        let rho = min_rho(l) * margin;
        let c = theorem1_constants(rho, l, p_min);
        prop_assert!(c.is_some());
        let c = c.unwrap();
        prop_assert!(c.c1 > 0.0 && c.c2 > 0.0 && c.c3 > 0.0);
        let larger = theorem1_constants(rho, l, (p_min * 1.5).min(1.0)).unwrap();
        prop_assert!(larger.c1 >= c.c1);
    }

    // ------------------------------------------------------------------
    // Device model.
    // ------------------------------------------------------------------

    /// A job's virtual time is monotone: more epochs, or more bytes either
    /// way, can never make a client finish earlier — so neither can they
    /// shorten a synchronous round, the cohort maximum of these times.
    #[test]
    fn round_time_is_monotone_in_work_and_payload(
        epochs in 0usize..20,
        extra_epochs in 0usize..20,
        bytes in 0usize..8_000_000,
        extra_bytes in 0usize..8_000_000,
        seed in any::<u64>(),
    ) {
        let link = Link { upload_mbps: 2.0, download_mbps: 8.0, latency_ms: 80.0 };
        let tiers = [
            (Device { seconds_per_epoch: 0.5, link: None }, 0.5),
            (Device { seconds_per_epoch: 6.0, link: Some(link) }, 0.5),
        ];
        let devices = DeviceModel::tiered(4, &tiers, seed);
        for client in 0..4 {
            let base = devices.job_seconds(client, epochs, bytes, bytes);
            let heavier = devices.job_seconds(
                client,
                epochs + extra_epochs,
                bytes + extra_bytes,
                bytes + extra_bytes,
            );
            prop_assert!(heavier >= base);
        }
    }

    // ------------------------------------------------------------------
    // Drift diagnostics.
    // ------------------------------------------------------------------

    /// Mean drift is never above max drift, and the KKT residual obeys the
    /// triangle inequality against the individual dual norms.
    #[test]
    fn drift_report_aggregates_are_consistent(
        dims in 1usize..16,
        num_clients in 1usize..10,
        scale in 0.0f32..5.0,
    ) {
        let global = ParamVector::zeros(dims);
        let clients: Vec<_> = (0..num_clients)
            .map(|i| {
                let mut c = fedadmm::core::client::ClientState::new(i, vec![0], &global);
                let v: Vec<f32> = (0..dims).map(|j| scale * ((i + j) as f32).cos()).collect();
                c.local_model = ParamVector::from_vec(v.clone());
                c.dual = ParamVector::from_vec(v.iter().map(|x| -x).collect());
                c
            })
            .collect();
        let report = DriftReport::compute(&clients, &global);
        prop_assert!(report.mean_model_drift <= report.max_model_drift + 1e-6);
        prop_assert!(report.mean_dual_norm <= report.max_dual_norm + 1e-6);
        let sum_of_norms: f32 = clients.iter().map(|c| c.dual.norm()).sum();
        prop_assert!(report.dual_sum_norm <= sum_of_norms + 1e-4);
        prop_assert_eq!(report.num_clients, num_clients);
    }
}
