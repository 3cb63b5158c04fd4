//! The paper's theoretical results as executable formulas.
//!
//! Two pieces of the paper are purely analytic and therefore reproduced as
//! code rather than as experiments:
//!
//! * **Table I** — the number of communication rounds each method needs to
//!   reach an ε-stationary solution, as a function of the accuracy ε, the
//!   population size `m`, the number of active clients `S`, and the
//!   data-dissimilarity / bounded-gradient constants `B` and `G` that the
//!   *baselines* (but not FedADMM) require. [`ComplexityParams`] and
//!   [`round_complexity`] evaluate those expressions so that the
//!   documentation table can be regenerated and the crossovers inspected
//!   (e.g. FedADMM's advantage grows as ε shrinks or as heterogeneity makes
//!   `B` large).
//! * **Theorem 1** — the convergence bound
//!   `(1/mT) Σ_t E[V_t] ≤ (1/mT)·(c2/c1)·(L⁰ − f* + (m/2L)ε_max) + c3·ε_max`
//!   with constants `c1, c2, c3` determined by `ρ`, the smoothness constant
//!   `L`, and the minimum participation probability `p_min`.
//!   [`TheoremConstants`] computes them, [`min_rho`] gives the admissible
//!   range `ρ > (1 + √5)L`, and [`theorem1_bound`] evaluates the right-hand
//!   side of equation (8). The quadratic-consensus substrate of the
//!   integration tests, `tests/common/quadratic.rs`, verifies the bound
//!   empirically.

/// Parameters entering the Table I round-complexity expressions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComplexityParams {
    /// Target stationarity accuracy ε.
    pub epsilon: f64,
    /// Total number of clients `m`.
    pub num_clients: usize,
    /// Number of active clients per round `S`.
    pub active_clients: usize,
    /// Bounded-gradient constant `G` of assumption (10) (needed by FedAvg).
    pub gradient_bound: f64,
    /// Data-dissimilarity constant `B` of assumption (9) (needed by
    /// FedAvg/FedProx; FedADMM and SCAFFOLD allow `B = ∞`).
    pub dissimilarity: f64,
}

impl ComplexityParams {
    /// A convenient default mirroring the paper's largest experiments:
    /// `m = 1000`, `S = 100` (10% participation).
    pub fn paper_scale(epsilon: f64) -> Self {
        ComplexityParams {
            epsilon,
            num_clients: 1000,
            active_clients: 100,
            gradient_bound: 10.0,
            dissimilarity: 5.0,
        }
    }

    fn m(&self) -> f64 {
        self.num_clients as f64
    }

    fn s(&self) -> f64 {
        self.active_clients.max(1) as f64
    }
}

/// The methods compared in Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// FedAvg \[4\], \[9\].
    FedAvg,
    /// FedProx \[8\] (requires `S > B²`).
    FedProx,
    /// SCAFFOLD \[9\] (doubles the upload cost).
    Scaffold,
    /// FedPD \[22\] (requires all clients to communicate simultaneously).
    FedPd,
    /// FedADMM (this paper).
    FedAdmm,
}

impl Method {
    /// Every row of Table I, in the paper's order.
    pub fn all() -> [Method; 5] {
        [
            Method::FedAvg,
            Method::FedProx,
            Method::Scaffold,
            Method::FedPd,
            Method::FedAdmm,
        ]
    }

    /// The method's name as printed in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Method::FedAvg => "FedAvg",
            Method::FedProx => "FedProx",
            Method::Scaffold => "SCAFFOLD",
            Method::FedPd => "FedPD",
            Method::FedAdmm => "FedADMM",
        }
    }
}

/// Evaluates the Table I round-complexity expression for `method`
/// (up to the absolute constants hidden by the O(·) notation, which are set
/// to 1). Returns `None` when the method's side conditions are violated:
/// FedProx requires `S > B²` and FedPD requires full participation.
pub fn round_complexity(method: Method, p: &ComplexityParams) -> Option<f64> {
    assert!(p.epsilon > 0.0, "the target accuracy ε must be positive");
    let eps = p.epsilon;
    let m = p.m();
    let s = p.s();
    match method {
        Method::FedAvg => {
            let b = p.dissimilarity;
            let g = p.gradient_bound;
            Some((m - s) / (m * s) / (eps * eps) + g / eps.powf(1.5) + b * b / eps)
        }
        Method::FedProx => {
            let b = p.dissimilarity;
            if s <= b * b {
                None
            } else {
                Some(b * b / eps)
            }
        }
        Method::Scaffold => Some(1.0 / (eps * eps) + (m / s).powf(2.0 / 3.0) / eps),
        Method::FedPd => {
            if p.active_clients < p.num_clients {
                None
            } else {
                Some(1.0 / eps)
            }
        }
        Method::FedAdmm => Some((m / s) / eps),
    }
}

/// Regenerates Table I: one `(method, rounds)` row per method, `None` where
/// the method's assumptions fail under `p`.
pub fn table1(p: &ComplexityParams) -> Vec<(Method, Option<f64>)> {
    Method::all()
        .iter()
        .map(|&m| (m, round_complexity(m, p)))
        .collect()
}

/// The constants of Theorem 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TheoremConstants {
    /// `c1 = p_min (½(ρ − 2L) − 2L²/ρ)` — the per-round decrement factor.
    pub c1: f64,
    /// `c2 = 3(L² + ρ²) + 2(1 + 2L²/ρ²)` — relates `V_t` to the iterate
    /// movement.
    pub c2: f64,
    /// `c3 = 3 + 16/ρ² + (c2/c1)·(ρ + 16L)/(2Lρ)` — the inexactness floor.
    pub c3: f64,
}

/// The smallest admissible proximal coefficient: Theorem 1 requires
/// `ρ > (1 + √5)·L` so that `c1 > 0`.
pub fn min_rho(lipschitz: f64) -> f64 {
    assert!(
        lipschitz > 0.0,
        "the smoothness constant L must be positive"
    );
    (1.0 + 5.0f64.sqrt()) * lipschitz
}

/// Computes the Theorem 1 constants for a given `(ρ, L, p_min)`.
///
/// Returns `None` when the admissibility condition `ρ > (1 + √5)L` fails or
/// `p_min` is not a valid probability, because `c1 ≤ 0` makes the bound
/// vacuous.
pub fn theorem1_constants(rho: f64, lipschitz: f64, p_min: f64) -> Option<TheoremConstants> {
    assert!(
        lipschitz > 0.0,
        "the smoothness constant L must be positive"
    );
    if !(0.0..=1.0).contains(&p_min) || p_min == 0.0 {
        return None;
    }
    if rho <= min_rho(lipschitz) {
        return None;
    }
    let l = lipschitz;
    let c1 = p_min * ((rho - 2.0 * l) / 2.0 - 2.0 * l * l / rho);
    if c1 <= 0.0 {
        return None;
    }
    let c2 = 3.0 * (l * l + rho * rho) + 2.0 * (1.0 + 2.0 * l * l / (rho * rho));
    let c3 = 3.0 + 16.0 / (rho * rho) + (c2 / c1) * (rho + 16.0 * l) / (2.0 * l * rho);
    Some(TheoremConstants { c1, c2, c3 })
}

/// Evaluates the right-hand side of equation (8): the bound on the running
/// average `(1/mT) Σ_{t<T} E[V_t]`.
///
/// * `initial_gap` is `L⁰ − f*` (the initial aggregated-Lagrangian value
///   minus the lower bound of assumption 2),
/// * `eps_max` is `max_i ε_i`,
/// * `num_clients` is `m` and `rounds` is `T`.
pub fn theorem1_bound(
    constants: &TheoremConstants,
    initial_gap: f64,
    eps_max: f64,
    lipschitz: f64,
    num_clients: usize,
    rounds: usize,
) -> f64 {
    assert!(rounds > 0, "the bound is over T ≥ 1 rounds");
    let m = num_clients as f64;
    let t = rounds as f64;
    (constants.c2 / constants.c1) * (initial_gap + m / (2.0 * lipschitz) * eps_max) / (m * t)
        + constants.c3 * eps_max
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_rho_is_golden_ratio_like_multiple_of_l() {
        assert!((min_rho(1.0) - 3.2360679).abs() < 1e-6);
        assert!((min_rho(2.5) - 2.5 * 3.2360679).abs() < 1e-5);
    }

    #[test]
    fn constants_exist_exactly_above_the_threshold() {
        let l = 1.0;
        assert!(theorem1_constants(min_rho(l) * 0.999, l, 0.1).is_none());
        let c = theorem1_constants(min_rho(l) * 1.001, l, 0.1).unwrap();
        assert!(c.c1 > 0.0 && c.c2 > 0.0 && c.c3 > 0.0);
    }

    #[test]
    fn constants_reject_invalid_participation_probability() {
        assert!(theorem1_constants(10.0, 1.0, 0.0).is_none());
        assert!(theorem1_constants(10.0, 1.0, 1.5).is_none());
        assert!(theorem1_constants(10.0, 1.0, 1.0).is_some());
    }

    #[test]
    fn larger_participation_probability_improves_c1_only() {
        let a = theorem1_constants(10.0, 1.0, 0.1).unwrap();
        let b = theorem1_constants(10.0, 1.0, 0.5).unwrap();
        assert!(b.c1 > a.c1);
        assert_eq!(a.c2, b.c2);
        assert!(b.c3 < a.c3, "a larger c1 shrinks the c2/c1 term inside c3");
    }

    #[test]
    fn bound_decays_like_one_over_t_plus_floor() {
        let c = theorem1_constants(10.0, 1.0, 0.1).unwrap();
        let eps = 1e-3;
        let b10 = theorem1_bound(&c, 50.0, eps, 1.0, 100, 10);
        let b100 = theorem1_bound(&c, 50.0, eps, 1.0, 100, 100);
        let b_inf_floor = c.c3 * eps;
        assert!(b100 < b10);
        assert!(b100 > b_inf_floor, "the ε_max floor is never crossed");
        // With exact local solves (ε = 0) the bound vanishes as T → ∞.
        let exact = theorem1_bound(&c, 50.0, 0.0, 1.0, 100, 1_000_000);
        assert!(exact < 1e-3);
    }

    #[test]
    fn table1_fedadmm_beats_fedavg_and_scaffold_at_high_accuracy() {
        // As ε → 0 the 1/ε² terms of FedAvg and SCAFFOLD dominate FedADMM's
        // (m/S)/ε, which is the paper's headline theoretical comparison.
        let p = ComplexityParams::paper_scale(1e-4);
        let admm = round_complexity(Method::FedAdmm, &p).unwrap();
        let avg = round_complexity(Method::FedAvg, &p).unwrap();
        let scaffold = round_complexity(Method::Scaffold, &p).unwrap();
        assert!(admm < avg);
        assert!(admm < scaffold);
    }

    #[test]
    fn fedprox_requires_enough_active_clients() {
        let mut p = ComplexityParams::paper_scale(1e-2);
        p.dissimilarity = 50.0; // B² = 2500 > S = 100.
        assert_eq!(round_complexity(Method::FedProx, &p), None);
        p.dissimilarity = 5.0; // B² = 25 < 100.
        assert!(round_complexity(Method::FedProx, &p).is_some());
    }

    #[test]
    fn fedpd_requires_full_participation() {
        let p = ComplexityParams::paper_scale(1e-2);
        assert_eq!(round_complexity(Method::FedPd, &p), None);
        let full = ComplexityParams {
            active_clients: 1000,
            ..p
        };
        assert_eq!(round_complexity(Method::FedPd, &full), Some(100.0));
    }

    #[test]
    fn fedadmm_complexity_is_independent_of_dissimilarity() {
        let mut p = ComplexityParams::paper_scale(1e-2);
        let base = round_complexity(Method::FedAdmm, &p).unwrap();
        p.dissimilarity = f64::INFINITY;
        p.gradient_bound = f64::INFINITY;
        assert_eq!(round_complexity(Method::FedAdmm, &p), Some(base));
        // FedAvg's bound blows up instead.
        assert!(round_complexity(Method::FedAvg, &p).unwrap().is_infinite());
    }

    #[test]
    fn table1_has_one_row_per_method() {
        let rows = table1(&ComplexityParams::paper_scale(1e-2));
        assert_eq!(rows.len(), 5);
        let names: Vec<&str> = rows.iter().map(|(m, _)| m.name()).collect();
        assert_eq!(names, ["FedAvg", "FedProx", "SCAFFOLD", "FedPD", "FedADMM"]);
    }

    #[test]
    fn fedadmm_advantage_grows_with_accuracy() {
        // The ratio rounds(FedAvg)/rounds(FedADMM) must grow as ε shrinks.
        let loose = ComplexityParams::paper_scale(1e-1);
        let tight = ComplexityParams::paper_scale(1e-3);
        let ratio = |p: &ComplexityParams| {
            round_complexity(Method::FedAvg, p).unwrap()
                / round_complexity(Method::FedAdmm, p).unwrap()
        };
        assert!(ratio(&tight) > ratio(&loose));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_epsilon_is_rejected() {
        round_complexity(Method::FedAdmm, &ComplexityParams::paper_scale(0.0));
    }
}
