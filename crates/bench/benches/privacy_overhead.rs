//! Cost of the privacy extensions: per-round overhead and accuracy impact.
//!
//! The paper's footnote 1 claims differential privacy and secure
//! multi-party computation compose with FedADMM. This bench quantifies that
//! composition on the smoke setting:
//!
//! * the report compares rounds-to-target for plain FedADMM against
//!   DP-FedADMM at increasing noise multipliers (the accuracy cost of
//!   privacy);
//! * the Criterion group times one round with and without the Gaussian
//!   mechanism and one secure-aggregation masking pass (the computational
//!   cost, which is negligible next to local training).

use criterion::{criterion_group, criterion_main, Criterion};
use fedadmm_bench::smoke_simulation;
use fedadmm_core::algorithms::{Algorithm, FedAdmm, ServerStepSize};
use fedadmm_core::engine::{SyncEngine, WirePathConfig};
use fedadmm_core::prelude::DataDistribution;
use fedadmm_privacy::dp::GaussianMechanism;
use fedadmm_privacy::secure_agg::SecureAggregator;
use std::sync::Arc;

const RHO: f32 = 0.3;
const TARGET: f32 = 0.6;
const BUDGET: usize = 40;

/// The smoke simulation of FedADMM, its uploads clipped and noised by
/// `mechanism` (the wire path's guard-only mode) when there is one.
fn simulation(mechanism: Option<GaussianMechanism>, seed: u64) -> SyncEngine<Box<dyn Algorithm>> {
    let algorithm = Box::new(FedAdmm::new(RHO, ServerStepSize::Constant(1.0)));
    let wire = WirePathConfig {
        quantizer: None,
        guard: mechanism.map(|m| Arc::new(m) as _),
    };
    smoke_simulation(algorithm, DataDistribution::NonIidShards, seed).with_wire_path(wire)
}

fn bench_privacy(c: &mut Criterion) {
    // Accuracy impact of increasing noise.
    println!("\n[privacy @ smoke scale] DP-FedADMM accuracy cost (non-IID, target {TARGET})");
    println!("{:<26} | rounds to target | best accuracy", "mechanism");
    let configs: Vec<(&str, Option<GaussianMechanism>)> = vec![
        ("no privacy", None),
        ("clip C=20, σ=0", Some(GaussianMechanism::new(20.0, 0.0))),
        (
            "clip C=20, σ=1e-3",
            Some(GaussianMechanism::new(20.0, 1e-3)),
        ),
        (
            "clip C=20, σ=5e-3",
            Some(GaussianMechanism::new(20.0, 5e-3)),
        ),
    ];
    for (label, mechanism) in &configs {
        let mut sim = simulation(*mechanism, 23);
        let rounds = sim
            .run_until_accuracy(TARGET, BUDGET)
            .expect("run succeeds");
        println!(
            "{:<26} | {:>16} | {:>13.3}",
            label,
            rounds
                .map(|r| r.to_string())
                .unwrap_or_else(|| format!("{BUDGET}+")),
            sim.history().best_accuracy()
        );
    }

    // Per-round computational overhead.
    let mut group = c.benchmark_group("privacy_round_cost");
    group.sample_size(10);
    group.bench_function("fedadmm_plain_round", |b| {
        let mut sim = simulation(None, 3);
        b.iter(|| sim.run_round().unwrap());
    });
    group.bench_function("fedadmm_dp_round", |b| {
        let mut sim = simulation(Some(GaussianMechanism::new(20.0, 1e-3)), 3);
        b.iter(|| sim.run_round().unwrap());
    });
    group.bench_function("secure_agg_mask_10_clients_cnn2", |b| {
        // Masking cost for 10 clients and the CNN 2 dimension of Table II.
        let participants: Vec<usize> = (0..10).collect();
        let dim = 1_105_098;
        let agg = SecureAggregator::new(7, &participants, dim);
        let update = vec![0.01f32; dim];
        b.iter(|| {
            let mut masked = update.clone();
            agg.apply_mask(3, &mut masked);
            masked
        });
    });
    group.finish();
}

criterion_group!(benches, bench_privacy);
criterion_main!(benches);
