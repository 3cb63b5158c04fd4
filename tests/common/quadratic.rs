//! A quadratic consensus substrate for verifying the paper's analysis.
//!
//! The convergence proof (Section VII) is stated for general smooth losses,
//! but its quantities — the aggregated augmented Lagrangian `L`, the
//! optimality gap `V_t` of equation (7), the lower bound of Lemma 3, and the
//! Theorem 1 constants — are hard to check numerically against a neural
//! network because `f*` and the smoothness constant `L` are unknown. This
//! module instantiates problem (2) with *quadratic* local losses
//!
//! ```text
//! f_i(w) = ½ wᵀ A_i w − b_iᵀ w,     A_i ≻ 0,
//! ```
//!
//! for which everything is available in closed form:
//!
//! * the smoothness constant is `L = max_i λ_max(A_i)`;
//! * the global optimum solves `(Σ A_i) w* = Σ b_i`;
//! * the augmented-Lagrangian subproblem (3) has the exact minimiser
//!   `(A_i + ρI) w = b_i − y_i + ρθ`, so the "exact local solve" regime of
//!   randomized ADMM (and the `ε_i → 0` limit of FedADMM) can be simulated
//!   without any optimisation error.
//!
//! [`QuadraticFedAdmm`] runs Algorithm 1 on such a problem with arbitrary
//! participation and server rule, records `V_t`, the Lagrangian and the KKT
//! residual `‖Σ_i y_i‖`, and is the independent f64 oracle against which
//! `tests/theory_verification.rs`, the one test binary that includes this
//! file, verifies Lemma 3, Theorem 1 and the stationarity conditions of
//! Section III-A. It shares no code with the f32 engine.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// Small dense f64 linear algebra (row-major), local to this module.
// ---------------------------------------------------------------------------

fn matvec(a: &[f64], x: &[f64], d: usize) -> Vec<f64> {
    let mut y = vec![0.0; d];
    for (i, yi) in y.iter_mut().enumerate() {
        let row = &a[i * d..(i + 1) * d];
        *yi = row.iter().zip(x.iter()).map(|(aij, xj)| aij * xj).sum();
    }
    y
}

/// Solves `A x = rhs` by Gaussian elimination with partial pivoting.
/// Panics if the system is numerically singular (never the case for the SPD
/// matrices generated here).
fn solve(a: &[f64], rhs: &[f64], d: usize) -> Vec<f64> {
    let mut m = a.to_vec();
    let mut x = rhs.to_vec();
    for col in 0..d {
        // Pivot.
        let mut pivot = col;
        for row in (col + 1)..d {
            if m[row * d + col].abs() > m[pivot * d + col].abs() {
                pivot = row;
            }
        }
        assert!(
            m[pivot * d + col].abs() > 1e-12,
            "singular matrix in quadratic substrate"
        );
        if pivot != col {
            for k in 0..d {
                m.swap(col * d + k, pivot * d + k);
            }
            x.swap(col, pivot);
        }
        // Eliminate.
        let diag = m[col * d + col];
        for row in (col + 1)..d {
            let factor = m[row * d + col] / diag;
            if factor == 0.0 {
                continue;
            }
            for k in col..d {
                m[row * d + k] -= factor * m[col * d + k];
            }
            x[row] -= factor * x[col];
        }
    }
    // Back substitution.
    for col in (0..d).rev() {
        let mut sum = x[col];
        for k in (col + 1)..d {
            sum -= m[col * d + k] * x[k];
        }
        x[col] = sum / m[col * d + col];
    }
    x
}

fn norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

fn norm_sq(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum()
}

fn dot(x: &[f64], y: &[f64]) -> f64 {
    x.iter().zip(y.iter()).map(|(a, b)| a * b).sum()
}

/// Builds a random `d × d` orthogonal matrix by modified Gram–Schmidt on a
/// random Gaussian matrix.
pub fn random_orthogonal(d: usize, rng: &mut SmallRng) -> Vec<f64> {
    let mut q: Vec<Vec<f64>> = Vec::with_capacity(d);
    for _ in 0..d {
        let mut v: Vec<f64> = (0..d).map(|_| standard_normal(rng)).collect();
        for prev in &q {
            let proj = dot(&v, prev);
            for (vi, pi) in v.iter_mut().zip(prev.iter()) {
                *vi -= proj * pi;
            }
        }
        let n = norm(&v);
        // A random Gaussian vector is almost surely not in the span of the
        // previous ones; renormalise (fall back to a canonical basis vector
        // in the measure-zero degenerate case).
        if n < 1e-9 {
            v = vec![0.0; d];
            v[q.len()] = 1.0;
        } else {
            for vi in v.iter_mut() {
                *vi /= n;
            }
        }
        q.push(v);
    }
    let mut flat = vec![0.0; d * d];
    for (i, row) in q.iter().enumerate() {
        flat[i * d..(i + 1) * d].copy_from_slice(row);
    }
    flat
}

/// One standard normal draw.
pub fn standard_normal(rng: &mut SmallRng) -> f64 {
    // Box–Muller; good enough for generating test problems.
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

// ---------------------------------------------------------------------------
// Problem definition.
// ---------------------------------------------------------------------------

/// One client's quadratic loss `f_i(w) = ½ wᵀ A_i w − b_iᵀ w`.
#[derive(Debug, Clone)]
pub struct QuadraticClientLoss {
    a: Vec<f64>,
    b: Vec<f64>,
    dim: usize,
    eig_max: f64,
}

impl QuadraticClientLoss {
    /// Builds the loss from an explicit SPD matrix (row-major, `dim × dim`)
    /// and linear term.
    pub fn new(a: Vec<f64>, b: Vec<f64>, eig_max: f64) -> Self {
        let dim = b.len();
        assert_eq!(a.len(), dim * dim, "A must be dim × dim");
        assert!(eig_max > 0.0);
        QuadraticClientLoss { a, b, dim, eig_max }
    }

    /// `f_i(w)`.
    pub fn value(&self, w: &[f64]) -> f64 {
        let aw = matvec(&self.a, w, self.dim);
        0.5 * dot(w, &aw) - dot(&self.b, w)
    }

    /// `∇f_i(w) = A_i w − b_i`.
    pub fn grad(&self, w: &[f64]) -> Vec<f64> {
        let mut g = matvec(&self.a, w, self.dim);
        for (gi, bi) in g.iter_mut().zip(self.b.iter()) {
            *gi -= bi;
        }
        g
    }

    /// The exact minimiser of the augmented Lagrangian subproblem (3):
    /// `argmin_w f_i(w) + yᵀ(w − θ) + (ρ/2)‖w − θ‖²`, i.e. the solution of
    /// `(A_i + ρ I) w = b_i − y + ρ θ`.
    pub fn admm_minimizer(&self, dual: &[f64], theta: &[f64], rho: f64) -> Vec<f64> {
        let d = self.dim;
        let mut m = self.a.clone();
        for i in 0..d {
            m[i * d + i] += rho;
        }
        let rhs: Vec<f64> = (0..d)
            .map(|j| self.b[j] - dual[j] + rho * theta[j])
            .collect();
        solve(&m, &rhs, d)
    }

    /// Smoothness constant of this client: `λ_max(A_i)`.
    pub fn lipschitz(&self) -> f64 {
        self.eig_max
    }
}

/// A federated quadratic consensus problem: `m` clients, each with its own
/// SPD quadratic.
#[derive(Debug, Clone)]
pub struct QuadraticProblem {
    clients: Vec<QuadraticClientLoss>,
    dim: usize,
}

/// Configuration for [`QuadraticProblem::random`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadraticConfig {
    /// Number of clients `m`.
    pub num_clients: usize,
    /// Problem dimension `d`.
    pub dim: usize,
    /// Smallest eigenvalue of every `A_i`.
    pub eig_min: f64,
    /// Largest eigenvalue of every `A_i` (the smoothness constant `L`).
    pub eig_max: f64,
    /// Scale of the spread of the clients' linear terms `b_i`; larger values
    /// put the local optima further apart (statistical heterogeneity).
    pub heterogeneity: f64,
}

impl QuadraticProblem {
    /// Builds a problem from explicit client losses.
    pub fn new(clients: Vec<QuadraticClientLoss>) -> Self {
        assert!(
            !clients.is_empty(),
            "a federated problem needs at least one client"
        );
        let dim = clients[0].dim;
        assert!(
            clients.iter().all(|c| c.dim == dim),
            "all clients must share the dimension"
        );
        QuadraticProblem { clients, dim }
    }

    /// Generates a random problem: each `A_i = Qᵢ diag(λ) Qᵢᵀ` with
    /// eigenvalues spread uniformly in `[eig_min, eig_max]`, and each
    /// `b_i` Gaussian with standard deviation `heterogeneity`.
    pub fn random(config: QuadraticConfig, seed: u64) -> Self {
        assert!(config.eig_min > 0.0 && config.eig_max >= config.eig_min);
        assert!(config.num_clients >= 1 && config.dim >= 1);
        let mut rng = SmallRng::seed_from_u64(seed);
        let d = config.dim;
        let clients = (0..config.num_clients)
            .map(|_| {
                let q = random_orthogonal(d, &mut rng);
                // Eigenvalues spread across the full [eig_min, eig_max]
                // range, with the endpoints always present so that L is
                // exactly eig_max.
                let eigs: Vec<f64> = (0..d)
                    .map(|j| {
                        if d == 1 {
                            config.eig_max
                        } else {
                            config.eig_min
                                + (config.eig_max - config.eig_min) * j as f64 / (d - 1) as f64
                        }
                    })
                    .collect();
                // A = Qᵀ diag(eigs) Q  (rows of `q` are the eigenvectors).
                let mut a = vec![0.0; d * d];
                for (k, &lambda) in eigs.iter().enumerate() {
                    let row = &q[k * d..(k + 1) * d];
                    for i in 0..d {
                        for j in 0..d {
                            a[i * d + j] += lambda * row[i] * row[j];
                        }
                    }
                }
                let b: Vec<f64> = (0..d)
                    .map(|_| config.heterogeneity * standard_normal(&mut rng))
                    .collect();
                QuadraticClientLoss::new(a, b, config.eig_max)
            })
            .collect();
        QuadraticProblem { clients, dim: d }
    }

    /// Number of clients `m`.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// Problem dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Access to the per-client losses.
    pub fn clients(&self) -> &[QuadraticClientLoss] {
        &self.clients
    }

    /// The smoothness constant `L = max_i λ_max(A_i)` of assumption 1.
    pub fn lipschitz(&self) -> f64 {
        self.clients
            .iter()
            .map(|c| c.lipschitz())
            .fold(0.0, f64::max)
    }

    /// The global objective `Σ_i f_i(w)`.
    pub fn objective(&self, w: &[f64]) -> f64 {
        self.clients.iter().map(|c| c.value(w)).sum()
    }

    /// `‖Σ_i ∇f_i(w)‖` — the stationarity residual of problem (1).
    pub fn stationarity_residual(&self, w: &[f64]) -> f64 {
        let mut g = vec![0.0; self.dim];
        for c in &self.clients {
            for (gi, ci) in g.iter_mut().zip(c.grad(w).iter()) {
                *gi += ci;
            }
        }
        norm(&g)
    }

    /// The unique global optimum `w* = (Σ A_i)^{-1} Σ b_i`.
    pub fn global_optimum(&self) -> Vec<f64> {
        let d = self.dim;
        let mut a_sum = vec![0.0; d * d];
        let mut b_sum = vec![0.0; d];
        for c in &self.clients {
            for (s, v) in a_sum.iter_mut().zip(c.a.iter()) {
                *s += v;
            }
            for (s, v) in b_sum.iter_mut().zip(c.b.iter()) {
                *s += v;
            }
        }
        solve(&a_sum, &b_sum, d)
    }

    /// The lower bound `f* = Σ_i f_i(w*)` of assumption 2 (tight for
    /// quadratics).
    pub fn f_star(&self) -> f64 {
        self.objective(&self.global_optimum())
    }
}

// ---------------------------------------------------------------------------
// FedADMM on the quadratic problem.
// ---------------------------------------------------------------------------

/// Per-round diagnostics of a quadratic FedADMM run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadraticRoundRecord {
    /// Round index `t`.
    pub round: usize,
    /// The optimality gap `V_t` of equation (7).
    pub optimality_gap: f64,
    /// The aggregated augmented Lagrangian `L(w^t, y^t, θ^t)`.
    pub lagrangian: f64,
    /// ‖Σ_i y_i‖ — the KKT residual (zero at a stationary point of (2)).
    pub dual_sum_norm: f64,
    /// ‖θ − w*‖ — distance of the global model to the true optimum.
    pub dist_to_optimum: f64,
}

/// How the server moves θ once the round's cohort has solved and updated
/// its duals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServerRule {
    /// Equation (5) with η = |S_t|/m, the step Theorem 1 analyses.
    ParticipationRatio,
    /// Equation (5) with a constant server step η.
    Constant(f64),
    /// FedDyn's server rule (Acar et al., ICLR 2021), the cohort-primal
    /// rule: θ ← mean_{i∈S} w_i + ȳ/ρ, with ȳ = (1/m)·Σ_{i=1..m} y_i taken
    /// after the round's dual updates.
    CohortPrimal,
}

/// FedADMM (Algorithm 1) specialised to the quadratic substrate, with exact
/// or inexact local solves.
#[derive(Debug, Clone)]
pub struct QuadraticFedAdmm {
    problem: QuadraticProblem,
    /// Proximal coefficient ρ.
    rho: f64,
    server_rule: ServerRule,
    /// Per-client inexactness `ε_i`: when positive, the exact minimiser is
    /// perturbed so that `‖∇L_i‖² ≈ ε_i` (used to probe the ε_max floor of
    /// Theorem 1). Zero gives exact solves.
    epsilon: f64,
    locals: Vec<Vec<f64>>,
    duals: Vec<Vec<f64>>,
    theta: Vec<f64>,
    round: usize,
}

impl QuadraticFedAdmm {
    /// Initialises Algorithm 1 on `problem` with `w_i^0 = θ^0 = 0` and
    /// `y_i^0 = 0` (the paper's initialisation), under η = |S_t|/m.
    pub fn new(problem: QuadraticProblem, rho: f64) -> Self {
        assert!(
            rho > 0.0,
            "FedADMM requires a positive proximal coefficient ρ"
        );
        let d = problem.dim();
        let m = problem.num_clients();
        QuadraticFedAdmm {
            problem,
            rho,
            server_rule: ServerRule::ParticipationRatio,
            epsilon: 0.0,
            locals: vec![vec![0.0; d]; m],
            duals: vec![vec![0.0; d]; m],
            theta: vec![0.0; d],
            round: 0,
        }
    }

    /// Replaces the server rule.
    pub fn with_server_rule(mut self, rule: ServerRule) -> Self {
        if let ServerRule::Constant(eta) = rule {
            assert!(eta > 0.0);
        }
        self.server_rule = rule;
        self
    }

    /// Sets the local inexactness level `ε_i ≡ ε`.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        assert!(epsilon >= 0.0);
        self.epsilon = epsilon;
        self
    }

    /// The underlying problem.
    pub fn problem(&self) -> &QuadraticProblem {
        &self.problem
    }

    /// The current global model θ.
    pub fn theta(&self) -> &[f64] {
        &self.theta
    }

    /// The current dual variables.
    pub fn duals(&self) -> &[Vec<f64>] {
        &self.duals
    }

    /// The current local models.
    pub fn locals(&self) -> &[Vec<f64>] {
        &self.locals
    }

    /// The aggregated augmented Lagrangian `L(w, y, θ) = Σ_i L_i`.
    pub fn lagrangian(&self) -> f64 {
        let mut total = 0.0;
        for i in 0..self.problem.num_clients() {
            let w = &self.locals[i];
            let diff: Vec<f64> = w
                .iter()
                .zip(self.theta.iter())
                .map(|(a, b)| a - b)
                .collect();
            total += self.problem.clients()[i].value(w)
                + dot(&self.duals[i], &diff)
                + 0.5 * self.rho * norm_sq(&diff);
        }
        total
    }

    /// The optimality gap `V_t` of equation (7).
    pub fn optimality_gap(&self) -> f64 {
        let d = self.problem.dim();
        // ∇_θ L = Σ_i (−y_i − ρ(w_i − θ)).
        let mut grad_theta = vec![0.0; d];
        let mut sum_grad_w = 0.0;
        let mut consensus = 0.0;
        for i in 0..self.problem.num_clients() {
            let w = &self.locals[i];
            let y = &self.duals[i];
            let mut grad_w = self.problem.clients()[i].grad(w);
            for j in 0..d {
                let diff = w[j] - self.theta[j];
                grad_w[j] += y[j] + self.rho * diff;
                grad_theta[j] += -y[j] - self.rho * diff;
                consensus += diff * diff;
            }
            sum_grad_w += norm_sq(&grad_w);
        }
        norm_sq(&grad_theta) + sum_grad_w + consensus
    }

    /// Runs one round with the given set of selected clients and returns the
    /// diagnostics *after* the server update.
    pub fn run_round_with(&mut self, selected: &[usize]) -> QuadraticRoundRecord {
        assert!(
            !selected.is_empty(),
            "a round needs at least one selected client"
        );
        let d = self.problem.dim();
        let m = self.problem.num_clients();
        let mut delta_sum = vec![0.0; d];
        for &i in selected {
            assert!(i < m, "selected client {i} out of range");
            let old_aug: Vec<f64> = (0..d)
                .map(|j| self.locals[i][j] + self.duals[i][j] / self.rho)
                .collect();
            // Exact subproblem solve, optionally perturbed to inexactness ε.
            let mut w_new =
                self.problem.clients()[i].admm_minimizer(&self.duals[i], &self.theta, self.rho);
            if self.epsilon > 0.0 {
                // ∇L_i is (A_i + ρI)(w − w_exact); perturbing along e_0 by
                // δ gives ‖∇L_i‖ ≤ (L + ρ)δ, so δ = √ε / (L + ρ) keeps
                // ‖∇L_i‖² ≤ ε.
                let delta =
                    self.epsilon.sqrt() / (self.problem.clients()[i].lipschitz() + self.rho);
                w_new[0] += delta;
            }
            // Dual update (line 20).
            for ((dual, &w), &t) in self.duals[i]
                .iter_mut()
                .zip(w_new.iter())
                .zip(self.theta.iter())
            {
                *dual += self.rho * (w - t);
            }
            self.locals[i] = w_new;
            // Update message (equation 4).
            for (((acc, &w), &y), &old) in delta_sum
                .iter_mut()
                .zip(self.locals[i].iter())
                .zip(self.duals[i].iter())
                .zip(old_aug.iter())
            {
                *acc += (w + y / self.rho) - old;
            }
        }
        let eta = match self.server_rule {
            ServerRule::ParticipationRatio => Some(selected.len() as f64 / m as f64),
            ServerRule::Constant(eta) => Some(eta),
            ServerRule::CohortPrimal => None,
        };
        if let Some(eta) = eta {
            // Server tracking update (equation 5).
            let scale = eta / selected.len() as f64;
            for (t, &acc) in self.theta.iter_mut().zip(delta_sum.iter()) {
                *t += scale * acc;
            }
        } else {
            // θ ← mean_{i∈S} w_i + ȳ/ρ.
            let (k, scale) = (selected.len() as f64, 1.0 / (m as f64 * self.rho));
            self.theta = vec![0.0; d];
            for &i in selected {
                for (t, &w) in self.theta.iter_mut().zip(self.locals[i].iter()) {
                    *t += w / k;
                }
            }
            for y in &self.duals {
                for (t, &v) in self.theta.iter_mut().zip(y.iter()) {
                    *t += scale * v;
                }
            }
        }

        let record = self.record();
        self.round += 1;
        record
    }

    /// Runs one round with `num_selected` clients chosen uniformly at random.
    pub fn run_round(&mut self, num_selected: usize, rng: &mut SmallRng) -> QuadraticRoundRecord {
        let m = self.problem.num_clients();
        let k = num_selected.clamp(1, m);
        let mut ids: Vec<usize> = (0..m).collect();
        ids.shuffle(rng);
        ids.truncate(k);
        self.run_round_with(&ids)
    }

    /// Runs `rounds` rounds with uniform-random participation of
    /// `num_selected` clients per round.
    pub fn run(
        &mut self,
        rounds: usize,
        num_selected: usize,
        seed: u64,
    ) -> Vec<QuadraticRoundRecord> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..rounds)
            .map(|_| self.run_round(num_selected, &mut rng))
            .collect()
    }

    fn record(&self) -> QuadraticRoundRecord {
        let w_star = self.problem.global_optimum();
        let dist: f64 = self
            .theta
            .iter()
            .zip(w_star.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let mut dual_sum = vec![0.0; self.problem.dim()];
        for y in &self.duals {
            for (acc, &v) in dual_sum.iter_mut().zip(y.iter()) {
                *acc += v;
            }
        }
        QuadraticRoundRecord {
            round: self.round,
            optimality_gap: self.optimality_gap(),
            lagrangian: self.lagrangian(),
            dual_sum_norm: norm(&dual_sum),
            dist_to_optimum: dist,
        }
    }
}
