//! Benchmarks of one client's local update — the unit of work every
//! federated round is built from — for each algorithm's local objective
//! (plain, proximal, augmented-Lagrangian, control-variate-corrected), on a
//! warm worker scratch as the dispatch pool runs it.

use criterion::{criterion_group, criterion_main, Criterion};
use fedadmm_bench::small_mlp;
use fedadmm_core::algorithms::{Algorithm, FedAdmm, FedAvg, FedProx, Scaffold, UpdateScratch};
use fedadmm_core::client::ClientState;
use fedadmm_core::param::ParamVector;
use fedadmm_core::trainer::LocalEnv;
use fedadmm_data::batching::BatchSize;
use fedadmm_data::synthetic::SyntheticDataset;
use std::hint::black_box;

fn bench_client_update(c: &mut Criterion) {
    let (train, _) = SyntheticDataset::Mnist.generate(256, 16, 0);
    let indices: Vec<usize> = (0..64).collect();
    let model = small_mlp();
    let theta = ParamVector::zeros(model.num_params());
    let env = LocalEnv {
        dataset: &train,
        indices: &indices,
        model,
        epochs: 2,
        batch_size: BatchSize::Size(16),
        learning_rate: 0.1,
        seed: 7,
    };

    let mut group = c.benchmark_group("client_update_2_epochs_64_samples");
    group.sample_size(20);
    let mut scaffold = Scaffold::new();
    scaffold.init(model.num_params(), 4);
    let algorithms: Vec<(&str, Box<dyn Algorithm>)> = vec![
        ("FedAvg", Box::new(FedAvg::new())),
        ("FedProx_rho0.1", Box::new(FedProx::new(0.1))),
        ("FedADMM_rho0.01", Box::new(FedAdmm::paper_default())),
        ("SCAFFOLD", Box::new(scaffold)),
    ];
    for (name, algorithm) in algorithms {
        let mut scratch = UpdateScratch::default();
        group.bench_function(name, |bench| {
            bench.iter(|| {
                let mut client = ClientState::new(0, indices.clone(), &theta);
                algorithm
                    .client_update_scratch(
                        black_box(&mut client),
                        black_box(&theta),
                        &env,
                        &mut scratch,
                    )
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_client_update);
criterion_main!(benches);
