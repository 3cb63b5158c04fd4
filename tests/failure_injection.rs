//! Failure injection: FedADMM under hostile participation patterns.
//!
//! The paper's key robustness claim (Remark 2) is that convergence only
//! requires clients to participate *infinitely often* — no minimum number of
//! active clients per round, no bounded delay, no uniformity. These tests
//! drive the full neural-network simulation through deterministic,
//! adversarially skewed and decaying activation schemes, through mid-round
//! client dropout, and through rounds with a single survivor, and check that
//! training still makes progress (while FedAvg-style methods are free to
//! degrade).

mod common;

use common::Scenario;
use fedadmm::core::selection::{DecayingProbabilities, FixedProbabilities, RoundRobin};
use fedadmm::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// This file's setting on `clients` clients sharing `samples` training
/// samples: 20 % of them per round, variable local work, 200 test samples.
const fn scenario(
    clients: usize,
    samples: usize,
    seed: u64,
    distribution: DataDistribution,
) -> Scenario {
    Scenario {
        participation: 0.2,
        heterogeneity: true,
        train: samples,
        test: 200,
        distribution,
        ..Scenario::new(clients, seed)
    }
}

fn fedadmm() -> FedAdmm {
    FedAdmm::new(0.3, ServerStepSize::Constant(1.0))
}

#[test]
fn round_robin_activation_still_learns() {
    // Fully deterministic activation — no randomness at all in who is
    // selected — satisfies infinitely-often participation and must converge.
    let mut sim = scenario(20, 2000, 1, DataDistribution::NonIidShards)
        .engine(fedadmm())
        .with_selector(Box::new(RoundRobin::new(4)));
    let (_, acc0) = sim.evaluate_global().unwrap();
    sim.run_rounds(25).unwrap();
    let report = DriftReport::compute(&sim.clients().unwrap(), sim.global_model());
    assert_eq!(
        report.clients_ever_selected, 20,
        "round robin must cover every client"
    );
    assert!(
        sim.history().best_accuracy() > acc0 + 0.3,
        "accuracy only moved from {acc0} to {}",
        sim.history().best_accuracy()
    );
}

#[test]
fn heavily_skewed_participation_probabilities_do_not_break_convergence() {
    // Client 0 participates almost every round; the rest only 5% of the
    // time. This is exactly the "unbalanced client activation" regime that
    // the dual variables and the proximal term are supposed to absorb.
    let m = 15;
    let mut probs = vec![0.05; m];
    probs[0] = 0.95;
    let mut sim = scenario(m, 1500, 2, DataDistribution::NonIidShards)
        .engine(fedadmm())
        .with_selector(Box::new(FixedProbabilities::new(probs)));
    let (_, acc0) = sim.evaluate_global().unwrap();
    sim.run_rounds(40).unwrap();
    assert!(
        sim.history().best_accuracy() > acc0 + 0.3,
        "skewed activation stalled training at {}",
        sim.history().best_accuracy()
    );
    // The frequently selected client must not have dragged the global model
    // onto its own two classes: accuracy is measured over all ten classes.
    let report = DriftReport::compute(&sim.clients().unwrap(), sim.global_model());
    assert!(report.max_times_selected > 5 * report.min_times_selected.max(1));
}

#[test]
fn decaying_availability_satisfies_infinitely_often_and_keeps_improving() {
    // Participation probability decays harmonically (Σ_t p_t = ∞). Early
    // rounds carry most of the progress; later sparse rounds must not undo
    // it.
    let m = 20;
    let mut sim = scenario(m, 2000, 3, DataDistribution::Iid)
        .engine(fedadmm())
        .with_selector(Box::new(DecayingProbabilities::new(vec![0.6; m], 15.0)));
    sim.run_rounds(30).unwrap();
    let best_early = sim
        .history()
        .records
        .iter()
        .take(15)
        .map(|r| r.test_accuracy)
        .fold(0.0f32, f32::max);
    let final_acc = sim.history().final_accuracy();
    assert!(
        best_early > 0.5,
        "early rounds should learn, got {best_early}"
    );
    assert!(
        final_acc > best_early - 0.1,
        "late sparse rounds catastrophically regressed: {best_early} → {final_acc}"
    );
}

/// Mid-round failures: splits `participants` into (survivors, dropped),
/// each client failing before its update reaches the server with
/// probability `dropout_prob`. At least one client always survives, the
/// never-empty guarantee the selectors give.
fn split_dropouts(
    participants: &[usize],
    dropout_prob: f64,
    rng: &mut impl Rng,
) -> (Vec<usize>, Vec<usize>) {
    let (mut survivors, mut dropped): (Vec<usize>, Vec<usize>) = participants
        .iter()
        .partition(|_| !rng.gen_bool(dropout_prob));
    if survivors.is_empty() && !dropped.is_empty() {
        survivors.push(dropped.remove(0));
    }
    (survivors, dropped)
}

#[test]
fn mid_round_dropout_only_slows_training_down() {
    // 40% of participating clients fail to report back each round. The
    // surviving updates still move the model; dropped clients simply keep
    // their stale (w_i, y_i) until they succeed — the same mechanism that
    // handles non-selection.
    let m = 20;
    let mut sim = scenario(m, 2000, 4, DataDistribution::NonIidShards).engine(fedadmm());
    let mut rng = SmallRng::seed_from_u64(99);
    let full_selection: Vec<usize> = (0..m).collect();
    let mut reached = false;
    for _ in 0..30 {
        // Model dropout by shrinking the selector's universe each round:
        // survivors are sampled first, then handed to the simulation as the
        // round's "selected" clients via a fixed-probability selector of
        // exactly those ids.
        let (survivors, dropped) = split_dropouts(&full_selection, 0.4, &mut rng);
        assert!(!survivors.is_empty());
        assert_eq!(survivors.len() + dropped.len(), m);
        let mut probs = vec![0.0f64; m];
        let mut any = false;
        for &s in survivors.iter().take(4) {
            probs[s] = 1.0;
            any = true;
        }
        assert!(any);
        // Replace the selector for this round only.
        sim = sim.with_selector(Box::new(FixedProbabilities::new(probs)));
        let record = sim.run_round().unwrap();
        if record.test_accuracy > 0.6 {
            reached = true;
            break;
        }
    }
    assert!(
        reached,
        "dropout prevented the run from ever reaching 60% accuracy"
    );
}

#[test]
fn single_survivor_rounds_do_not_diverge() {
    // The most extreme partial participation: exactly one client per round.
    // FedADMM's strongly convex subproblems guarantee each round makes
    // bounded, non-divergent progress (Section I, contribution list).
    let m = 10;
    let mut sim = scenario(m, 1000, 5, DataDistribution::NonIidShards)
        .engine(fedadmm())
        .with_selector(Box::new(fedadmm::core::selection::UniformFraction::new(1)));
    sim.run_rounds(40).unwrap();
    let accuracies = sim.history().accuracy_series();
    assert!(accuracies.iter().all(|a| a.is_finite()));
    let best = sim.history().best_accuracy();
    assert!(
        best > 0.35,
        "single-client rounds should still learn, got {best}"
    );
    // No catastrophic collapse at the end of the run.
    assert!(sim.history().final_accuracy() > best - 0.25);
}

#[test]
fn fedadmm_keeps_all_client_state_consistent_under_failures() {
    // State invariants that must hold whatever the participation pattern:
    // all stored vectors stay finite, never-selected clients still have
    // their zero-initialised dual (they have not run line 20 yet), and the
    // round-robin coverage accounting matches the per-client counters.
    let m = 12;
    let mut sim = scenario(m, 1200, 6, DataDistribution::NonIidShards)
        .engine(fedadmm())
        .with_selector(Box::new(RoundRobin::new(2)));
    sim.run_rounds(4).unwrap(); // covers 8 of the 12 clients
    let clients = sim.clients().unwrap();
    let selected_total: usize = clients.iter().map(|c| c.times_selected).sum();
    assert_eq!(selected_total, 8);
    for client in &clients {
        assert!(client.local_model.as_slice().iter().all(|v| v.is_finite()));
        assert!(client.dual.as_slice().iter().all(|v| v.is_finite()));
        if client.times_selected == 0 {
            assert_eq!(
                client.dual.norm(),
                0.0,
                "client {} never ran line 20",
                client.id
            );
        } else {
            assert!(
                client.times_selected == 1,
                "round robin selects each client at most once here"
            );
        }
    }
    let report = DriftReport::compute(&clients, sim.global_model());
    assert_eq!(report.clients_ever_selected, 8);
}
