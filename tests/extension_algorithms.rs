//! Integration tests for the extension algorithms (FedDyn and the FedOpt
//! server-optimizer family) running inside the full simulation engine.
//!
//! These algorithms are not part of the paper's evaluation, but they share
//! FedADMM's interface and communication protocol, so every invariant the
//! engine guarantees for the paper's methods must hold for them too:
//! identical per-round upload cost, determinism under a fixed seed, and
//! learning progress on the synthetic substrate.

mod common;

use common::{Scenario, LOGISTIC};
use fedadmm::prelude::*;

/// This file's setting on `clients` clients sharing `samples` training
/// samples: 30 % of them per round, 200 test samples.
const fn scenario(
    clients: usize,
    samples: usize,
    distribution: DataDistribution,
    seed: u64,
) -> Scenario {
    Scenario {
        participation: 0.3,
        train: samples,
        test: 200,
        distribution,
        ..Scenario::new(clients, seed)
    }
}

#[test]
fn feddyn_learns_on_iid_data() {
    let mut sim = scenario(8, 400, DataDistribution::Iid, 1).engine(FedDyn::new(0.3));
    let (_, acc0) = sim.evaluate_global().unwrap();
    sim.run_rounds(10).unwrap();
    let best = sim.history().best_accuracy();
    assert!(
        best > acc0 + 0.15,
        "FedDyn accuracy only moved {acc0} → {best}"
    );
}

#[test]
fn feddyn_upload_cost_matches_fedadmm() {
    // Both upload exactly one d-vector per selected client per round.
    let d = LOGISTIC.num_params();
    let mut dyn_sim = scenario(6, 120, DataDistribution::Iid, 2).engine(FedDyn::new(0.3));
    let mut admm_sim = scenario(6, 120, DataDistribution::Iid, 2)
        .engine(FedAdmm::new(0.3, ServerStepSize::Constant(1.0)));
    let r_dyn = dyn_sim.run_round().unwrap();
    let r_admm = admm_sim.run_round().unwrap();
    assert_eq!(r_dyn.upload_floats, r_dyn.num_selected * d);
    assert_eq!(r_dyn.upload_floats, r_admm.upload_floats);
}

#[test]
fn fedopt_family_learns_and_reports_correct_names() {
    for (alg, expected) in [
        (FedOpt::avgm(), "FedAvgM"),
        (FedOpt::adam(), "FedAdam"),
        (FedOpt::yogi(), "FedYogi"),
    ] {
        let mut sim = scenario(6, 300, DataDistribution::Iid, 3).engine(alg);
        assert_eq!(sim.history().algorithm, expected);
        let (_, acc0) = sim.evaluate_global().unwrap();
        sim.run_rounds(8).unwrap();
        let best = sim.history().best_accuracy();
        assert!(
            best > acc0 + 0.1,
            "{expected} accuracy only moved {acc0} → {best}"
        );
    }
}

#[test]
fn fedopt_sgd_with_unit_lr_tracks_fedavg() {
    // FedOpt(SGD, lr = 1) is algebraically FedAvg; over a full simulated run
    // (same seeds, same selection) the two global models must coincide.
    let mut a = scenario(6, 240, DataDistribution::NonIidShards, 4)
        .engine(FedOpt::new(ServerOptimizer::Sgd { lr: 1.0 }));
    let mut b = scenario(6, 240, DataDistribution::NonIidShards, 4).engine(FedAvg::new());
    a.run_rounds(4).unwrap();
    b.run_rounds(4).unwrap();
    let dist = a.global_model().dist(b.global_model());
    assert!(dist < 1e-4, "FedOpt(SGD,1) deviates from FedAvg by {dist}");
}

#[test]
fn extension_algorithms_are_deterministic_in_seed() {
    let mut a = scenario(6, 180, DataDistribution::NonIidShards, 5).engine(FedOpt::adam());
    let mut b = scenario(6, 180, DataDistribution::NonIidShards, 5).engine(FedOpt::adam());
    a.run_rounds(3).unwrap();
    b.run_rounds(3).unwrap();
    assert_eq!(a.global_model(), b.global_model());

    let mut c = scenario(6, 180, DataDistribution::NonIidShards, 6).engine(FedDyn::new(0.3));
    let mut d = scenario(6, 180, DataDistribution::NonIidShards, 6).engine(FedDyn::new(0.3));
    c.run_rounds(3).unwrap();
    d.run_rounds(3).unwrap();
    assert_eq!(c.global_model(), d.global_model());
}

#[test]
fn boxed_extension_algorithms_compose_with_the_engine() {
    // The Box<dyn Algorithm> path used by the experiment harness must accept
    // the extension algorithms as well.
    let algorithms: Vec<Box<dyn Algorithm>> = vec![
        Box::new(FedDyn::new(0.3)),
        Box::new(FedOpt::avgm()),
        Box::new(FedOpt::adagrad()),
    ];
    for alg in algorithms {
        let name = alg.name();
        let mut sim = scenario(5, 100, DataDistribution::Iid, 7).engine(alg);
        let record = sim.run_round().unwrap();
        assert!(record.upload_floats > 0, "{name} uploaded nothing");
        assert_eq!(sim.history().algorithm, name);
    }
}

#[test]
fn quantity_skew_partition_drives_a_full_run() {
    // The new quantity-skew partitioner composes with the engine: highly
    // imbalanced client volumes, every client still owns data, and FedADMM
    // still learns.
    use fedadmm::data::partition;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    let scenario = scenario(10, 600, DataDistribution::Iid, 8);
    let (train, test) = scenario.data();
    let mut rng = SmallRng::seed_from_u64(8);
    let partition = partition::quantity_skew(&train, 10, 1.5, &mut rng);
    assert!(partition.volume_imbalance() > 5.0);
    assert!(partition.sizes().iter().all(|&s| s > 0));

    let admm = FedAdmm::new(0.3, ServerStepSize::Constant(1.0));
    let store = StoreConfig::InMemory;
    let mut sim = scenario.engine_on(train, test, partition, admm, SyncRounds, &store);
    let (_, acc0) = sim.evaluate_global().unwrap();
    sim.run_rounds(10).unwrap();
    assert!(sim.history().best_accuracy() > acc0 + 0.1);
}
