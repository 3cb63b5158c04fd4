//! Integration tests that check the paper's *analysis* (Section IV and the
//! full proof of Section VII) against executable instances.
//!
//! The quadratic consensus substrate (`tests/common/quadratic.rs`, included
//! by this binary alone) makes every quantity of the proof available in
//! closed form — the smoothness constant `L`, the lower bound `f*`, exact
//! subproblem minimisers — so Lemma 3, Theorem 1 and the Table I complexity
//! comparisons can be verified numerically rather than taken on faith.

#[path = "common/quadratic.rs"]
mod quadratic;

use fedadmm::core::theory::{
    min_rho, round_complexity, table1, theorem1_bound, theorem1_constants, ComplexityParams, Method,
};
use proptest::prelude::*;
use quadratic::{
    random_orthogonal, standard_normal, QuadraticClientLoss, QuadraticConfig, QuadraticFedAdmm,
    QuadraticProblem, ServerRule,
};
use rand::{rngs::SmallRng, Rng, SeedableRng};

fn problem(num_clients: usize, dim: usize, heterogeneity: f64, seed: u64) -> QuadraticProblem {
    QuadraticProblem::random(
        QuadraticConfig {
            num_clients,
            dim,
            eig_min: 0.5,
            eig_max: 2.0,
            heterogeneity,
        },
        seed,
    )
}

fn dot(x: &[f64], y: &[f64]) -> f64 {
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

// ---------------------------------------------------------------------------
// The substrate itself: its linear algebra, its problems and its solves.
// ---------------------------------------------------------------------------

#[test]
fn gaussian_elimination_solves_known_system() {
    // One client with A = [[2, 1], [1, 3]] and b = [3, 5], so that
    // w* = A⁻¹b = [0.8, 1.4].
    let client = QuadraticClientLoss::new(
        vec![2.0, 1.0, 1.0, 3.0],
        vec![3.0, 5.0],
        (5.0 + 5.0f64.sqrt()) / 2.0,
    );
    let x = QuadraticProblem::new(vec![client]).global_optimum();
    assert!((x[0] - 0.8).abs() < 1e-12);
    assert!((x[1] - 1.4).abs() < 1e-12);
}

#[test]
fn orthogonal_matrix_has_orthonormal_rows() {
    let mut rng = SmallRng::seed_from_u64(3);
    let d = 7;
    let q = random_orthogonal(d, &mut rng);
    for i in 0..d {
        for j in 0..d {
            let rij = dot(&q[i * d..(i + 1) * d], &q[j * d..(j + 1) * d]);
            let expected = if i == j { 1.0 } else { 0.0 };
            assert!((rij - expected).abs() < 1e-9, "row {i}·row {j} = {rij}");
        }
    }
}

#[test]
fn generated_matrices_are_spd_with_prescribed_spectrum() {
    let p = problem(8, 6, 1.0, 0);
    let d = p.dim();
    for c in p.clients() {
        // Rayleigh quotients of random vectors must lie in [eig_min, eig_max],
        // with A_i·v = ∇f_i(v) − ∇f_i(0).
        let grad_at_zero = c.grad(&vec![0.0; d]);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..20 {
            let v: Vec<f64> = (0..d).map(|_| standard_normal(&mut rng)).collect();
            let av: Vec<f64> = c
                .grad(&v)
                .iter()
                .zip(&grad_at_zero)
                .map(|(g, g0)| g - g0)
                .collect();
            let rayleigh = dot(&v, &av) / dot(&v, &v);
            assert!(
                (0.5 - 1e-6..=2.0 + 1e-6).contains(&rayleigh),
                "rayleigh {rayleigh}"
            );
        }
    }
    assert!((p.lipschitz() - 2.0).abs() < 1e-9);
}

#[test]
fn global_optimum_is_stationary_for_the_sum() {
    let p = problem(8, 6, 1.0, 1);
    let w_star = p.global_optimum();
    assert!(p.stationarity_residual(&w_star) < 1e-8);
    // And it minimises the sum: any perturbation increases the objective.
    let f_star = p.objective(&w_star);
    let mut perturbed = w_star.clone();
    perturbed[0] += 0.1;
    assert!(p.objective(&perturbed) > f_star);
}

#[test]
fn admm_minimizer_is_stationary_for_the_augmented_lagrangian() {
    let p = problem(8, 6, 1.0, 2);
    let c = &p.clients()[0];
    let theta = vec![0.3; p.dim()];
    let dual = vec![-0.2; p.dim()];
    let rho = 1.5;
    let w = c.admm_minimizer(&dual, &theta, rho);
    // ∇L_i(w) = A w − b + y + ρ(w − θ) must vanish.
    let mut g = c.grad(&w);
    for j in 0..p.dim() {
        g[j] += dual[j] + rho * (w[j] - theta[j]);
    }
    let gnorm = dot(&g, &g).sqrt();
    assert!(gnorm < 1e-8, "gradient norm {gnorm}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The closed-form ADMM minimiser really is a stationary point of the
    /// augmented Lagrangian, for arbitrary duals, anchors and ρ.
    #[test]
    fn quadratic_admm_minimizer_is_stationary(
        seed in any::<u64>(),
        rho in 0.1f64..10.0,
        anchor in -2.0f64..2.0,
        dual_scale in -1.0f64..1.0,
    ) {
        let p = problem(1, 4, 1.0, seed);
        let c = &p.clients()[0];
        let theta = vec![anchor; 4];
        let dual = vec![dual_scale; 4];
        let w = c.admm_minimizer(&dual, &theta, rho);
        let mut g = c.grad(&w);
        for j in 0..4 {
            g[j] += dual[j] + rho * (w[j] - theta[j]);
        }
        let gnorm: f64 = g.iter().map(|v| v * v).sum::<f64>().sqrt();
        prop_assert!(gnorm < 1e-7, "residual {}", gnorm);
    }

    /// The global optimum of a random quadratic problem is stationary for
    /// the sum of the client losses.
    #[test]
    fn quadratic_global_optimum_is_stationary(
        seed in any::<u64>(),
        clients in 2usize..10,
        heterogeneity in 0.1f64..3.0,
    ) {
        let p = problem(clients, 5, heterogeneity, seed);
        let w_star = p.global_optimum();
        prop_assert!(p.stationarity_residual(&w_star) < 1e-7);
    }
}

#[test]
fn solver_rejects_degenerate_inputs() {
    let mut admm = QuadraticFedAdmm::new(problem(8, 6, 1.0, 10), 1.0);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        admm.run_round_with(&[]);
    }));
    assert!(result.is_err(), "empty selection must be rejected");
}

// ---------------------------------------------------------------------------
// Algorithm 1 on the substrate: convergence, Lemma 3 and Theorem 1.
// ---------------------------------------------------------------------------

#[test]
fn full_participation_exact_solves_converge_to_the_optimum() {
    let p = problem(8, 6, 1.0, 4);
    let m = p.num_clients();
    let rho = min_rho(p.lipschitz()) * 1.5;
    let mut admm = QuadraticFedAdmm::new(p, rho);
    let records = admm.run(200, m, 7);
    let last = records.last().unwrap();
    assert!(
        last.dist_to_optimum < 1e-4,
        "distance {}",
        last.dist_to_optimum
    );
    assert!(last.optimality_gap < 1e-6, "V_t = {}", last.optimality_gap);
    assert!(
        last.dual_sum_norm < 1e-4,
        "KKT residual {}",
        last.dual_sum_norm
    );
}

#[test]
fn lagrangian_decreases_monotonically_under_full_participation() {
    // Inequality (31) of the proof: with exact solves and full
    // participation the expected (here: deterministic) decrement is
    // non-negative once ρ > (1 + √5)L.
    let p = problem(8, 6, 1.0, 6);
    let m = p.num_clients();
    let rho = min_rho(p.lipschitz()) * 1.2;
    let mut admm = QuadraticFedAdmm::new(p, rho);
    let records = admm.run(50, m, 13);
    for pair in records.windows(2) {
        assert!(
            pair[1].lagrangian <= pair[0].lagrangian + 1e-9,
            "Lagrangian increased: {} -> {}",
            pair[0].lagrangian,
            pair[1].lagrangian
        );
    }
}

#[test]
fn lagrangian_is_lower_bounded_by_lemma_3() {
    let p = problem(8, 6, 1.0, 7);
    let f_star = p.f_star();
    let m = p.num_clients();
    let rho = 2.0 * p.lipschitz() + 0.5; // ρ ≥ 2L as required by Lemma 3.
    let mut admm = QuadraticFedAdmm::new(p, rho);
    let records = admm.run(100, m / 2, 17);
    for r in &records {
        assert!(
            r.lagrangian >= f_star - 1e-9,
            "Lemma 3 violated: L = {} < f* = {}",
            r.lagrangian,
            f_star
        );
    }
}

#[test]
fn inexact_solves_leave_a_floor_proportional_to_epsilon() {
    let p = problem(8, 6, 1.0, 9);
    let m = p.num_clients();
    let rho = min_rho(p.lipschitz()) * 1.5;
    let exact = QuadraticFedAdmm::new(p.clone(), rho).run(150, m, 23);
    let inexact = QuadraticFedAdmm::new(p, rho)
        .with_epsilon(1e-2)
        .run(150, m, 23);
    let exact_v = exact.last().unwrap().optimality_gap;
    let inexact_v = inexact.last().unwrap().optimality_gap;
    assert!(exact_v < 1e-6);
    assert!(
        inexact_v > exact_v,
        "inexact solves must not reach the exact fixed point"
    );
    // …but the run still converges to a neighbourhood (Theorem 1 floor).
    assert!(inexact.last().unwrap().dist_to_optimum < 0.5);
}

#[test]
fn theorem1_bound_holds_across_seeds_and_participation_levels() {
    // Full participation with exact solves, where η = |S|/m = 1: the running
    // average of V_t must stay below the Theorem 1 right-hand side for every
    // problem tested. Each case is (problem, rounds T, selection seed).
    let cases = (0..5u64)
        .map(|seed| (problem(10, 8, 1.5, seed), 60, seed + 100))
        .chain([(problem(8, 6, 1.0, 8), 100, 19)]);
    for (p, t, run_seed) in cases {
        let m = p.num_clients();
        let l = p.lipschitz();
        let rho = min_rho(l) * 1.5;
        let f_star = p.f_star();
        let constants = theorem1_constants(rho, l, 1.0).expect("ρ is admissible");

        let mut admm = QuadraticFedAdmm::new(p, rho);
        // L⁰ with w = θ = 0 and y = 0 is Σ f_i(0) = 0. The bound is on the
        // average of V_t over t = 0..T−1, i.e. the gap *before* each round;
        // V_0 uses the initial state.
        let l0 = admm.lagrangian();
        let initial_gap = admm.optimality_gap();
        let records = admm.run(t, m, run_seed);

        let mut vts = vec![initial_gap];
        vts.extend(records.iter().take(t - 1).map(|r| r.optimality_gap));
        let average: f64 = vts.iter().sum::<f64>() / (m as f64 * t as f64);
        let bound = theorem1_bound(&constants, l0 - f_star, 0.0, l, m, t);
        assert!(
            average <= bound,
            "selection seed {run_seed}: measured average {average} exceeds the Theorem 1 bound {bound}"
        );
    }
}

#[test]
fn partial_participation_reaches_the_global_optimum_without_dissimilarity_assumptions() {
    // The headline of the analysis: convergence under partial participation
    // with heterogeneous clients, no bounded-dissimilarity assumption. Make
    // the clients *very* heterogeneous and activate only 20% per round, then
    // 25% of a milder problem. Each case is (problem, clients a round,
    // rounds, selection seed, bound on ‖θ − w*‖).
    let cases = [
        (problem(20, 6, 4.0, 11), 4, 800, 42, 5e-2),
        (problem(8, 6, 1.0, 5), 2, 600, 11, 1e-2),
    ];
    for (p, selected, rounds, seed, bound) in cases {
        let rho = min_rho(p.lipschitz()) * 1.5;
        let w_star = p.global_optimum();
        let mut admm = QuadraticFedAdmm::new(p, rho);
        let records = admm.run(rounds, selected, seed);
        let last = records.last().unwrap();
        assert!(
            last.dist_to_optimum < bound,
            "θ is still {} away from w* = {:?}",
            last.dist_to_optimum,
            &w_star[..2]
        );
        // The optimality gap fell by several orders of magnitude.
        assert!(last.optimality_gap < records[0].optimality_gap * 1e-3);
    }
}

#[test]
fn lemma3_lower_bound_holds_even_under_skewed_activation() {
    // Lemma 3 (L^{t+1} ≥ f* − Σε_i / 2L) must hold along the whole
    // trajectory, including when activation is heavily skewed towards a few
    // clients — activation only enters the proof through which subproblems
    // get refreshed.
    let p = problem(12, 5, 2.0, 3);
    let f_star = p.f_star();
    let rho = 2.0 * p.lipschitz() + 0.1;
    let mut admm = QuadraticFedAdmm::new(p, rho);
    // Clients 0 and 1 are activated 10× more often than the rest.
    let mut schedule: Vec<Vec<usize>> = Vec::new();
    for t in 0..200usize {
        if t % 10 == 9 {
            schedule.push(vec![t % 12]);
        } else {
            schedule.push(vec![0, 1]);
        }
    }
    for selected in &schedule {
        let record = admm.run_round_with(selected);
        assert!(
            record.lagrangian >= f_star - 1e-9,
            "Lemma 3 violated at round {}: L = {} < f* = {}",
            record.round,
            record.lagrangian,
            f_star
        );
    }
}

#[test]
fn dual_variables_satisfy_the_kkt_conditions_at_the_fixed_point() {
    // Section III-A: at a stationary point of problem (2),
    // ∇f_i(w_i*) + y_i* = 0 for every client and Σ_i y_i* = 0.
    let p = problem(6, 5, 1.0, 7);
    let rho = min_rho(p.lipschitz()) * 2.0;
    let mut admm = QuadraticFedAdmm::new(p, rho);
    admm.run(400, 6, 5);
    let problem_ref = admm.problem().clone();
    let mut dual_sum = vec![0.0f64; problem_ref.dim()];
    for (i, (w, y)) in admm.locals().iter().zip(admm.duals().iter()).enumerate() {
        let grad = problem_ref.clients()[i].grad(w);
        for j in 0..problem_ref.dim() {
            assert!(
                (grad[j] + y[j]).abs() < 1e-4,
                "client {i}: ∇f_i + y_i = {} at coordinate {j}",
                grad[j] + y[j]
            );
            dual_sum[j] += y[j];
        }
    }
    let sum_norm: f64 = dual_sum.iter().map(|v| v * v).sum::<f64>().sqrt();
    assert!(
        sum_norm < 1e-3,
        "Σ y_i = {sum_norm} should vanish at stationarity"
    );
}

#[test]
fn epsilon_floor_scales_with_the_inexactness_level() {
    // Theorem 1's bound has an additive c3·ε_max floor: runs with larger
    // ε must stall at proportionally larger optimality gaps.
    let p = problem(8, 6, 1.0, 13);
    let rho = min_rho(p.lipschitz()) * 1.5;
    let gap_for = |eps: f64| {
        let mut admm = QuadraticFedAdmm::new(p.clone(), rho).with_epsilon(eps);
        admm.run(300, 8, 1).last().unwrap().optimality_gap
    };
    let tight = gap_for(1e-4);
    let loose = gap_for(1e-1);
    assert!(
        tight < loose,
        "ε = 1e-4 gap {tight} should be below ε = 0.1 gap {loose}"
    );
    assert!(
        loose < 10.0,
        "even the loose run stays in a bounded neighbourhood"
    );
}

#[test]
fn table1_reproduces_the_paper_ordering_in_the_high_accuracy_regime() {
    // ε = 1e-4, m = 1000, S = 100 (the paper's largest settings): FedADMM
    // needs fewer rounds than FedAvg and SCAFFOLD; FedPD is listed but
    // requires full participation; FedProx matches FedADMM's 1/ε rate only
    // if S > B².
    let p = ComplexityParams::paper_scale(1e-4);
    let rows = table1(&p);
    assert_eq!(rows.len(), 5);
    let value = |m: Method| rows.iter().find(|(x, _)| *x == m).unwrap().1;
    let admm = value(Method::FedAdmm).unwrap();
    assert!(admm < value(Method::FedAvg).unwrap());
    assert!(admm < value(Method::Scaffold).unwrap());
    assert_eq!(value(Method::FedPd), None, "FedPD needs full participation");
    // FedProx's bound does not depend on m/S, so it can be numerically
    // smaller — but it only exists at all because S > B² here.
    assert!(value(Method::FedProx).is_some());
    let constrained = ComplexityParams {
        dissimilarity: 50.0,
        ..p
    };
    assert_eq!(round_complexity(Method::FedProx, &constrained), None);
    // FedADMM is unaffected by the dissimilarity constant.
    assert_eq!(round_complexity(Method::FedAdmm, &constrained), Some(admm));
}

#[test]
fn admissible_rho_threshold_matches_the_golden_ratio_constant() {
    for l in [0.1, 1.0, 7.5] {
        let threshold = min_rho(l);
        assert!((threshold / l - (1.0 + 5.0f64.sqrt())).abs() < 1e-12);
        assert!(theorem1_constants(threshold * 0.99, l, 0.5).is_none());
        assert!(theorem1_constants(threshold * 1.01, l, 0.5).is_some());
    }
}

/// 20 clients with diagonal `A_i` (entries uniform in `[lo, hi]`) and `b_i`
/// uniform in `[−1, 1]`, d = 6, with `H = mean_i A_i` and `g = mean_i b_i`
/// as diagonals.
fn diagonal_problem(lo: f64, hi: f64, seed: u64) -> (QuadraticProblem, Vec<f64>, Vec<f64>) {
    let (m, d) = (20, 6);
    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut h, mut g) = (vec![0.0; d], vec![0.0; d]);
    let clients = (0..m)
        .map(|_| {
            let diag: Vec<f64> = (0..d).map(|_| rng.gen_range(lo..hi)).collect();
            let b: Vec<f64> = (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut a = vec![0.0; d * d];
            for j in 0..d {
                a[j * d + j] = diag[j];
                h[j] += diag[j] / m as f64;
                g[j] += b[j] / m as f64;
            }
            let eig_max = diag.iter().copied().fold(0.0, f64::max);
            QuadraticClientLoss::new(a, b, eig_max)
        })
        .collect();
    (QuadraticProblem::new(clients), h, g)
}

fn distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[test]
fn a_constant_server_step_has_the_anti_proximal_fixed_point() {
    // Two of 20 clients a round (C = 0.1), exact local solves, ρ = 0.3. The
    // conservation law of eq. (5) puts a fixed point of η = 1 where
    // (H − c·I)·θ_η = g with c = (1 − C/η)·ρ = 0.27: it exists when
    // λ_min(H) > c and θ diverges when it does not. Theorem 1's η = |S|/m
    // lands on the optimum w* = H⁻¹g in both cases.
    let (rho, c) = (0.3, 0.27);
    let (stable, h, g) = diagonal_problem(0.3, 1.0, 7);
    let theta_eta: Vec<f64> = (0..6).map(|j| g[j] / (h[j] - c)).collect();
    let mut admm =
        QuadraticFedAdmm::new(stable.clone(), rho).with_server_rule(ServerRule::Constant(1.0));
    admm.run(4000, 2, 7);
    let gap = distance(admm.theta(), &theta_eta);
    assert!(gap < 1e-9, "η = 1: ‖θ − θ_η‖ = {gap}");

    let (unstable, h_flat, _) = diagonal_problem(0.01, 0.3, 7);
    assert!(h_flat.iter().any(|&x| x < c), "λ_min(H) must sit below c");
    let mut admm =
        QuadraticFedAdmm::new(unstable.clone(), rho).with_server_rule(ServerRule::Constant(1.0));
    admm.run(400, 2, 7);
    let size = admm.theta().iter().map(|x| x * x).sum::<f64>().sqrt();
    assert!(
        !size.is_finite() || size > 1e6,
        "η = 1 without a fixed point: ‖θ‖ = {size} by round 400"
    );

    for problem in [stable, unstable] {
        let w_star = problem.global_optimum();
        let mut admm = QuadraticFedAdmm::new(problem, rho);
        admm.run(4000, 2, 7);
        let gap = distance(admm.theta(), &w_star);
        assert!(gap < 1e-9, "η = |S|/m: ‖θ − w*‖ = {gap}");
    }
}

#[test]
fn the_cohort_primal_rule_reaches_the_optimum_and_zeroes_the_mean_dual() {
    // FedDyn's server rule θ ← mean_{i∈S} w_i + ȳ/ρ on the two problems
    // above, same ρ, cohorts and seed: it has no anti-proximal fixed point,
    // so θ reaches w* whether or not λ_min(H) > c, and the mean dual
    // ȳ = (1/m)·Σ_i y_i vanishes.
    let rho = 0.3;
    for (lo, hi) in [(0.3, 1.0), (0.01, 0.3)] {
        let (problem, _, _) = diagonal_problem(lo, hi, 7);
        let (m, w_star) = (problem.num_clients() as f64, problem.global_optimum());
        let mut admm =
            QuadraticFedAdmm::new(problem, rho).with_server_rule(ServerRule::CohortPrimal);
        let last = *admm.run(4000, 2, 7).last().unwrap();
        let gap = distance(admm.theta(), &w_star);
        assert!(gap < 1e-9, "A_ii in [{lo}, {hi}): ‖θ − w*‖ = {gap}");
        let mean_dual = last.dual_sum_norm / m;
        assert!(mean_dual < 1e-9, "A_ii in [{lo}, {hi}): ‖ȳ‖ = {mean_dual}");
    }
}
