//! Micro-benchmarks of the alternative local solvers of criterion (6).
//!
//! Times one client-side local solve of the augmented-Lagrangian subproblem
//! (3) under each implemented solver: the paper's fixed-epoch SGD
//! (Algorithm 1), full-batch gradient descent, gradient descent run to the
//! inexactness criterion, and L-BFGS. The absolute times depend on the
//! substrate, but the *relative* cost shows how a client can trade accuracy
//! (ε_i) for work — the system-heterogeneity mechanism of Section III-A.

use criterion::{criterion_group, criterion_main, Criterion};
use fedadmm_core::algorithms::{Algorithm, FedAdmm, FedAdmmInexact, ServerStepSize, UpdateScratch};
use fedadmm_core::client::ClientState;
use fedadmm_core::param::ParamVector;
use fedadmm_core::solver::LocalSolver;
use fedadmm_core::trainer::LocalEnv;
use fedadmm_data::batching::BatchSize;
use fedadmm_data::synthetic::SyntheticDataset;
use fedadmm_data::Dataset;
use fedadmm_nn::models::ModelSpec;

const RHO: f32 = 0.3;

struct Workbench {
    train: Dataset,
    indices: Vec<usize>,
    model: ModelSpec,
}

impl Workbench {
    fn new() -> Self {
        let (train, _) = SyntheticDataset::Mnist.generate(200, 10, 5);
        Workbench {
            train,
            indices: (0..200).collect(),
            model: ModelSpec::Logistic {
                input_dim: 784,
                num_classes: 10,
            },
        }
    }

    fn env(&self, epochs: usize) -> LocalEnv<'_> {
        LocalEnv {
            dataset: &self.train,
            indices: &self.indices,
            model: self.model,
            epochs,
            batch_size: BatchSize::Size(20),
            learning_rate: 0.1,
            seed: 11,
        }
    }

    fn fresh_client(&self) -> (ClientState, ParamVector) {
        let theta = ParamVector::zeros(self.model.num_params());
        (ClientState::new(0, self.indices.clone(), &theta), theta)
    }
}

fn bench_local_solvers(c: &mut Criterion) {
    let bench_data = Workbench::new();
    let mut group = c.benchmark_group("fedadmm_local_solve");
    group.sample_size(10);

    group.bench_function("sgd_3_epochs_algorithm_1", |b| {
        let alg = FedAdmm::new(RHO, ServerStepSize::Constant(1.0));
        let env = bench_data.env(3);
        let mut scratch = UpdateScratch::default();
        b.iter(|| {
            let (mut client, theta) = bench_data.fresh_client();
            alg.client_update_scratch(&mut client, &theta, &env, &mut scratch)
                .unwrap()
        });
    });

    let solvers: Vec<(&str, LocalSolver)> = vec![
        (
            "gradient_descent_10_steps",
            LocalSolver::GradientDescent {
                steps: 10,
                learning_rate: 0.5,
            },
        ),
        (
            "gd_to_tolerance_eps_0.05",
            LocalSolver::ToTolerance {
                epsilon: 0.05,
                learning_rate: 0.5,
                max_steps: 200,
            },
        ),
        (
            "lbfgs_memory_10",
            LocalSolver::Lbfgs {
                memory: 10,
                max_iters: 25,
                epsilon: 0.05,
            },
        ),
    ];
    for (label, solver) in solvers {
        group.bench_function(label, |b| {
            let alg = FedAdmmInexact::new(RHO, ServerStepSize::Constant(1.0), solver);
            let env = bench_data.env(1);
            let mut scratch = UpdateScratch::default();
            b.iter(|| {
                let (mut client, theta) = bench_data.fresh_client();
                alg.client_update_scratch(&mut client, &theta, &env, &mut scratch)
                    .unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_local_solvers);
criterion_main!(benches);
