//! Integration tests that check the paper's *analysis* (Section IV and the
//! full proof of Section VII) against executable instances.
//!
//! The quadratic consensus substrate (`fedadmm_core::quadratic`) makes every
//! quantity of the proof available in closed form — the smoothness constant
//! `L`, the lower bound `f*`, exact subproblem minimisers — so Lemma 3,
//! Theorem 1 and the Table I complexity comparisons can be verified
//! numerically rather than taken on faith.

use fedadmm::core::quadratic::{
    QuadraticClientLoss, QuadraticConfig, QuadraticFedAdmm, QuadraticProblem,
};
use fedadmm::core::theory::{
    min_rho, round_complexity, table1, theorem1_bound, theorem1_constants, ComplexityParams, Method,
};

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

#[test]
fn theorem1_bound_holds_across_seeds_and_participation_levels() {
    // Full participation with exact solves: the running average of V_t must
    // stay below the Theorem 1 right-hand side for every seed tested.
    for seed in 0..5u64 {
        let p = problem(10, 8, 1.5, seed);
        let m = p.num_clients();
        let l = p.lipschitz();
        let rho = min_rho(l) * 1.5;
        let f_star = p.f_star();
        let constants = theorem1_constants(rho, l, 1.0).expect("ρ is admissible");

        let mut admm = QuadraticFedAdmm::new(p, rho);
        let l0 = admm.lagrangian();
        let initial_gap = QuadraticFedAdmm::new(problem(10, 8, 1.5, seed), rho).optimality_gap();
        let t = 60;
        let records = admm.run(t, m, seed + 100);

        let mut vts = vec![initial_gap];
        vts.extend(records.iter().take(t - 1).map(|r| r.optimality_gap));
        let average: f64 = vts.iter().sum::<f64>() / (m as f64 * t as f64);
        let bound = theorem1_bound(&constants, l0 - f_star, 0.0, l, m, t);
        assert!(
            average <= bound,
            "seed {seed}: measured average {average} exceeds the Theorem 1 bound {bound}"
        );
    }
}

#[test]
fn partial_participation_reaches_the_global_optimum_without_dissimilarity_assumptions() {
    // The headline of the analysis: convergence under partial participation
    // with heterogeneous clients, no bounded-dissimilarity assumption. Make
    // the clients *very* heterogeneous and activate only 20% per round.
    let p = problem(20, 6, 4.0, 11);
    let rho = min_rho(p.lipschitz()) * 1.5;
    let w_star = p.global_optimum();
    let mut admm = QuadraticFedAdmm::new(p, rho);
    let records = admm.run(800, 4, 42);
    let last = records.last().unwrap();
    assert!(
        last.dist_to_optimum < 5e-2,
        "θ is still {} away from w* = {:?}",
        last.dist_to_optimum,
        &w_star[..2]
    );
    // The optimality gap fell by several orders of magnitude.
    assert!(last.optimality_gap < records[0].optimality_gap * 1e-3);
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
    use rand::{rngs::SmallRng, Rng, SeedableRng};
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
    let mut admm = QuadraticFedAdmm::new(stable.clone(), rho).with_eta(1.0);
    admm.run(4000, 2, 7);
    let gap = distance(admm.theta(), &theta_eta);
    assert!(gap < 1e-9, "η = 1: ‖θ − θ_η‖ = {gap}");

    let (unstable, h_flat, _) = diagonal_problem(0.01, 0.3, 7);
    assert!(h_flat.iter().any(|&x| x < c), "λ_min(H) must sit below c");
    let mut admm = QuadraticFedAdmm::new(unstable.clone(), rho).with_eta(1.0);
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
