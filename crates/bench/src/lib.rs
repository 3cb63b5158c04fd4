//! Support code for the Criterion benchmark suite.
//!
//! Each bench target in `benches/` corresponds to one table or figure of
//! the paper. Because regenerating a full table is an *experiment* rather
//! than a micro-benchmark, every bench does two things:
//!
//! 1. it regenerates the corresponding artefact at `Scale::Smoke` once and
//!    prints the same rows/series the paper reports (so that `cargo bench`
//!    output doubles as a miniature reproduction log), and
//! 2. it benchmarks the representative unit of work behind that artefact
//!    (typically "one communication round of algorithm X under setting Y")
//!    with Criterion, which is what the timing numbers refer to.

use fedadmm_core::prelude::*;
use fedadmm_data::synthetic::SyntheticDataset;
use fedadmm_experiments::common::{Scale, Setting};
use fedadmm_nn::models::ModelSpec;

/// Prints an experiment report produced by the experiments crate, prefixed
/// so it is easy to find in `cargo bench` output.
pub fn print_report(report: &fedadmm_experiments::common::ExperimentReport) {
    println!(
        "\n[reproduction @ smoke scale] {} — {}",
        report.name, report.description
    );
    println!("{}", report.rendered);
}

/// A small synchronous engine used as the unit of work in round benchmarks.
pub fn smoke_simulation(
    algorithm: Box<dyn Algorithm>,
    distribution: DataDistribution,
    seed: u64,
) -> SyncEngine<Box<dyn Algorithm>> {
    let setting = Setting::for_dataset(SyntheticDataset::Mnist, distribution, 100, Scale::Smoke);
    let mut setting = setting;
    setting.seed = seed;
    setting
        .build_simulation(algorithm)
        .expect("smoke setting is valid")
}

/// The standard algorithm line-up used by the round benchmarks.
pub fn bench_suite() -> Vec<(&'static str, Box<dyn Algorithm>)> {
    vec![
        ("FedSGD", Box::new(FedSgd::new(0.1)) as Box<dyn Algorithm>),
        ("FedADMM", Box::new(FedAdmm::paper_default())),
        ("FedAvg", Box::new(FedAvg::new())),
        ("FedProx", Box::new(FedProx::new(0.1))),
        ("SCAFFOLD", Box::new(Scaffold::new())),
    ]
}

/// A tiny MLP spec shared by micro-benchmarks.
pub fn small_mlp() -> ModelSpec {
    ModelSpec::Mlp {
        input_dim: 784,
        hidden_dim: 32,
        num_classes: 10,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_simulation_runs_a_round() {
        let mut sim = smoke_simulation(
            Box::new(FedAdmm::paper_default()),
            DataDistribution::NonIidShards,
            0,
        );
        let record = sim.run_round().unwrap();
        assert!(record.test_accuracy.is_finite());
    }

    #[test]
    fn bench_suite_is_the_paper_lineup() {
        let names: Vec<&str> = bench_suite().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec!["FedSGD", "FedADMM", "FedAvg", "FedProx", "SCAFFOLD"]
        );
    }
}
