//! End-to-end integration tests: data generation → partitioning → federated
//! training → evaluation, across crates.

mod common;

use common::Scenario;
use fedadmm::core::algorithms::{ClientMessage, UpdateScratch};
use fedadmm::core::client::ClientState;
use fedadmm::core::selection::UniformFraction;
use fedadmm::core::trainer::LocalEnv;
use fedadmm::prelude::*;
use fedadmm::tensor::TensorResult;

/// This file's MLP: one hidden layer of 24 units.
const MLP: ModelSpec = ModelSpec::Mlp {
    input_dim: 784,
    hidden_dim: 24,
    num_classes: 10,
};

/// This file's setting on `clients` clients sharing `samples` training
/// samples: 20 % of them per round, E = 3 under variable local work, the
/// MLP, 200 test samples.
const fn scenario(
    clients: usize,
    samples: usize,
    distribution: DataDistribution,
    seed: u64,
) -> Scenario {
    Scenario {
        participation: 0.2,
        epochs: 3,
        heterogeneity: true,
        model: MLP,
        train: samples,
        test: 200,
        distribution,
        ..Scenario::new(clients, seed)
    }
}

#[test]
fn fedadmm_learns_iid_task_end_to_end() {
    let mut sim = scenario(15, 600, DataDistribution::Iid, 1)
        .engine(FedAdmm::new(SUBSTRATE_RHO, ServerStepSize::Constant(1.0)));
    let (_, acc_before) = sim.evaluate_global().unwrap();
    sim.run_rounds(12).unwrap();
    let best = sim.history().best_accuracy();
    assert!(
        best > acc_before + 0.25,
        "FedADMM failed to learn: {acc_before:.3} -> {best:.3}"
    );
}

/// The substrate's fixed ρ (see `fedadmm-experiments::common::SUBSTRATE_RHO`).
/// The setting it was calibrated on is not recorded; REPRODUCTION.md gives
/// the verdict it produces on every claim of the paper.
const SUBSTRATE_RHO: f32 = 0.3;

#[test]
fn fedadmm_learns_under_label_skew() {
    // The paper's non-IID setting: two label shards per client. FedADMM must
    // still make substantial progress (the dual variables counteract drift).
    let mut sim = scenario(15, 600, DataDistribution::NonIidShards, 2)
        .engine(FedAdmm::new(SUBSTRATE_RHO, ServerStepSize::Constant(1.0)));
    sim.run_rounds(15).unwrap();
    assert!(
        sim.history().best_accuracy() > 0.35,
        "best accuracy only {:.3} under label skew",
        sim.history().best_accuracy()
    );
}

/// Table III's setting at integration-test scale: under the paper's
/// protocol (100 clients, 10% participation, label-skewed shards, variable
/// local work) FedADMM reaches a high accuracy target and takes at most 1.5×
/// FedAvg's round count. It does not check the paper's claim that FedADMM
/// needs *fewer* rounds (REPRODUCTION.md gives that verdict). On this synthetic
/// substrate (MLP on generated class-conditional images, vendored PRNG)
/// FedAvg's full-model averaging converges unusually fast, so a strict
/// "fewer rounds" ordering does not reproduce here — FedADMM's edge on the
/// substrate shows instead in robustness regimes (straggler tolerance,
/// see tests/engine_parity.rs, and long-horizon non-IID accuracy).
/// This test is deliberately larger than the other tests.
#[test]
fn fedadmm_reaches_target_within_1_5x_fedavg_rounds_non_iid() {
    let target = 0.9;
    let budget = 45;
    let protocol = Scenario {
        participation: 0.1,
        epochs: 5,
        model: ModelSpec::Mlp {
            input_dim: 784,
            hidden_dim: 32,
            num_classes: 10,
        },
        test: 400,
        eval_subset: 400,
        ..scenario(100, 100 * 100, DataDistribution::NonIidShards, 42)
    };
    let mut admm = protocol.engine(FedAdmm::new(SUBSTRATE_RHO, ServerStepSize::Constant(1.0)));
    let admm_rounds = admm
        .run_until_accuracy(target, budget)
        .unwrap()
        .unwrap_or(budget + 1);

    let mut avg = protocol.engine(FedAvg::new());
    let avg_rounds = avg
        .run_until_accuracy(target, budget)
        .unwrap()
        .unwrap_or(budget + 1);
    assert!(
        admm_rounds <= budget,
        "FedADMM never reached {target} within {budget} rounds"
    );
    assert!(
        admm_rounds * 2 <= avg_rounds * 3,
        "FedADMM took {admm_rounds} rounds but FedAvg took {avg_rounds} (allowed factor 1.5)"
    );
}

#[test]
fn all_five_algorithms_complete_a_short_non_iid_run() {
    let algorithms: Vec<(&str, Box<dyn Algorithm>)> = vec![
        ("FedSGD", Box::new(FedSgd::new(0.1))),
        ("FedADMM", Box::new(FedAdmm::paper_default())),
        ("FedAvg", Box::new(FedAvg::new())),
        ("FedProx", Box::new(FedProx::new(0.1))),
        ("SCAFFOLD", Box::new(Scaffold::new())),
    ];
    for (name, algorithm) in algorithms {
        let mut sim = scenario(10, 300, DataDistribution::NonIidShards, 4).engine(algorithm);
        let records = sim.run_rounds(3).unwrap();
        assert_eq!(records.len(), 3, "{name} did not complete 3 rounds");
        for r in &records {
            assert!(
                r.test_accuracy.is_finite(),
                "{name} produced a non-finite accuracy"
            );
            assert!(r.test_loss.is_finite(), "{name} produced a non-finite loss");
        }
        assert_eq!(sim.history().algorithm, name);
    }
}

/// The abstract's communication claim, measured on the uploads the engine
/// charges: FedADMM, FedAvg and FedProx upload `d` floats per selected
/// client per round, SCAFFOLD `2d`.
#[test]
fn communication_accounting_matches_algorithm_costs() {
    let d = MLP.num_params();
    let (rounds, selected) = (3, 2); // 20 % of 10 clients
    let algorithms: [(Box<dyn Algorithm>, usize); 4] = [
        (Box::new(FedAdmm::paper_default()), d),
        (Box::new(FedAvg::new()), d),
        (Box::new(FedProx::new(0.1)), d),
        (Box::new(Scaffold::new()), 2 * d),
    ];
    for (algorithm, per_client) in algorithms {
        let name = algorithm.name();
        let mut sim = scenario(10, 300, DataDistribution::Iid, 5).engine(algorithm);
        for r in sim.run_rounds(rounds).unwrap() {
            let round = format!("{name} round {}", r.round);
            assert_eq!(r.num_selected, selected, "{round}");
            assert_eq!(r.upload_floats, selected * per_client, "{round}");
        }
        let total = sim.history().total_upload_floats();
        assert_eq!(total, rounds * selected * per_client, "{name}");
    }
}

#[test]
fn fedadmm_communication_matches_fedavg_exactly() {
    // "FedADMM maintains identical communication costs per round as
    // FedAvg/Prox" — abstract of the paper.
    let mut admm = scenario(10, 300, DataDistribution::Iid, 6).engine(FedAdmm::paper_default());
    let mut avg = scenario(10, 300, DataDistribution::Iid, 6).engine(FedAvg::new());
    admm.run_rounds(4).unwrap();
    avg.run_rounds(4).unwrap();
    assert_eq!(
        admm.history().total_upload_floats(),
        avg.history().total_upload_floats()
    );
}

#[test]
fn system_heterogeneity_reduces_total_computation() {
    // Variable local epochs (FedADMM/FedProx protocol) must process fewer
    // samples than the fixed-E protocol (FedAvg/SCAFFOLD) over the same
    // number of rounds — the paper's "50% less training computation" claim.
    let mut admm = scenario(10, 300, DataDistribution::Iid, 7).engine(FedAdmm::paper_default());
    let mut avg = scenario(10, 300, DataDistribution::Iid, 7).engine(FedAvg::new());
    admm.run_rounds(6).unwrap();
    avg.run_rounds(6).unwrap();
    let admm_epochs = admm.history().total_local_epochs();
    let avg_epochs = avg.history().total_local_epochs();
    assert!(
        admm_epochs < avg_epochs,
        "heterogeneous work ({admm_epochs} epochs) not less than fixed work ({avg_epochs} epochs)"
    );
}

#[test]
fn runs_are_reproducible_across_identical_simulations() {
    let mut a =
        scenario(12, 360, DataDistribution::NonIidShards, 8).engine(FedAdmm::paper_default());
    let mut b =
        scenario(12, 360, DataDistribution::NonIidShards, 8).engine(FedAdmm::paper_default());
    let ra = a.run_rounds(4).unwrap();
    let rb = b.run_rounds(4).unwrap();
    for (x, y) in ra.iter().zip(rb.iter()) {
        assert_eq!(x.test_accuracy, y.test_accuracy);
        assert_eq!(x.upload_floats, y.upload_floats);
    }
}

/// FedAvg asking for every client in every round.
struct EveryClient(FedAvg);

impl Algorithm for EveryClient {
    fn name(&self) -> &'static str {
        "FedAvg, every client"
    }

    fn requires_full_participation(&self) -> bool {
        true
    }

    fn client_update_scratch(
        &self,
        client: &mut ClientState,
        global: &ParamVector,
        env: &LocalEnv<'_>,
        scratch: &mut UpdateScratch,
    ) -> TensorResult<ClientMessage> {
        self.0.client_update_scratch(client, global, env, scratch)
    }

    fn fold_plan(&self, messages: &[ClientMessage], num_clients: usize) -> Option<FoldPlan> {
        self.0.fold_plan(messages, num_clients)
    }
}

#[test]
fn full_participation_algorithms_run_every_client() {
    // `benchmark/`'s mirror scheduler selects everyone for such an
    // algorithm, whatever the selector; the engine must do the same.
    let mut sim = scenario(8, 240, DataDistribution::Iid, 9)
        .engine(EveryClient(FedAvg::new()))
        .with_selector(Box::new(UniformFraction::new(2)));
    for r in sim.run_rounds(3).unwrap() {
        assert_eq!(r.num_selected, 8, "round {}", r.round);
        assert_eq!(r.upload_floats, 8 * MLP.num_params(), "round {}", r.round);
    }
}

/// FedAvg whose uploads carry a NaN in their first coordinate.
struct PoisonedUpload(FedAvg);

impl Algorithm for PoisonedUpload {
    fn name(&self) -> &'static str {
        "FedAvg, poisoned upload"
    }

    fn client_update_scratch(
        &self,
        client: &mut ClientState,
        global: &ParamVector,
        env: &LocalEnv<'_>,
        scratch: &mut UpdateScratch,
    ) -> TensorResult<ClientMessage> {
        let mut message = self.0.client_update_scratch(client, global, env, scratch)?;
        message.payload[0].as_mut_slice()[0] = f32::NAN;
        Ok(message)
    }

    fn fold_plan(&self, messages: &[ClientMessage], num_clients: usize) -> Option<FoldPlan> {
        self.0.fold_plan(messages, num_clients)
    }
}

#[test]
fn a_non_finite_global_model_ends_the_round_with_an_error() {
    let mut sim = scenario(8, 240, DataDistribution::Iid, 9).engine(PoisonedUpload(FedAvg::new()));
    let error = sim.run_round().unwrap_err().to_string();
    assert!(error.contains("round 0"), "{error}");
    assert!(error.contains("FedAvg, poisoned upload"), "{error}");
    assert!(error.contains("non-finite"), "{error}");
    assert!(sim.history().is_empty(), "a non-finite round was recorded");
}

#[test]
fn dual_variables_stay_zero_for_primal_methods_and_move_for_fedadmm() {
    let mut admm =
        scenario(10, 300, DataDistribution::NonIidShards, 10).engine(FedAdmm::paper_default());
    admm.run_rounds(3).unwrap();
    assert!(
        admm.clients().unwrap().iter().any(|c| c.dual.norm() > 0.0),
        "FedADMM never updated any dual variable"
    );

    let mut avg = scenario(10, 300, DataDistribution::NonIidShards, 10).engine(FedAvg::new());
    avg.run_rounds(3).unwrap();
    assert!(
        avg.clients().unwrap().iter().all(|c| c.dual.norm() == 0.0),
        "FedAvg must not touch dual variables"
    );
}
