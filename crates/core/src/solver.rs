//! Alternative local solvers for the augmented-Lagrangian subproblem.
//!
//! Algorithm 1 of the paper runs `E_i` epochs of mini-batch SGD "for the
//! sake of simplicity and comparison with baseline methods", but the method
//! itself only requires the *inexactness criterion* of equation (6),
//!
//! ```text
//! ‖∇_w L_i(w_i^{t+1}, y_i^t, θ^t)‖² ≤ ε_i,
//! ```
//!
//! and Section III-A notes that "other updating schemes are also feasible
//! such as gradient descent and quasi-Newton updates like L-BFGS". This
//! module provides those alternatives:
//!
//! * [`AugmentedObjective`] — the local augmented Lagrangian
//!   `L_i(w) = f_i(w) + yᵀ(w − θ) + (ρ/2)‖w − θ‖²` of equation (3) as a
//!   value-and-gradient oracle (set `rho = 0` and `dual = None` to recover
//!   the plain local loss `f_i`);
//! * [`gradient_descent`] — full-batch gradient descent for a fixed number
//!   of steps;
//! * [`solve_to_tolerance`] — gradient descent run *until* criterion (6)
//!   holds (or a step budget is exhausted), returning the achieved
//!   `‖∇L_i‖²`;
//! * [`lbfgs`] — limited-memory BFGS with Armijo backtracking line search.
//!
//! [`LocalSolver`] names the choices, Algorithm 1's SGD epochs among them;
//! it is the [`crate::algorithms::FedAdmm::solver`] field, set with
//! [`crate::algorithms::FedAdmm::with_solver`], and every client of a run
//! uses the one solver it names.

use crate::algorithms::UpdateScratch;
use crate::trainer::{full_gradient, LocalEnv};
use fedadmm_tensor::{vecops, TensorResult};

/// The local augmented Lagrangian `L_i(w, y_i, θ)` of equation (3) as a
/// value-and-gradient oracle over the flattened parameter vector. It
/// borrows the job's [`UpdateScratch`]: every gradient runs on the worker's
/// cached network and buffers, where the SGD solver's do.
pub struct AugmentedObjective<'a> {
    env: &'a LocalEnv<'a>,
    theta: &'a [f32],
    dual: Option<&'a [f32]>,
    rho: f32,
    scratch: &'a mut UpdateScratch,
}

impl<'a> AugmentedObjective<'a> {
    /// Builds the oracle. `dual = None` together with `rho > 0` gives the
    /// FedProx local objective; `dual = None, rho = 0` gives the plain local
    /// loss `f_i` (FedAvg's local objective).
    pub fn new(
        env: &'a LocalEnv<'a>,
        theta: &'a [f32],
        dual: Option<&'a [f32]>,
        rho: f32,
        scratch: &'a mut UpdateScratch,
    ) -> Self {
        assert!(rho >= 0.0, "the proximal coefficient ρ cannot be negative");
        if let Some(y) = dual {
            assert_eq!(
                y.len(),
                theta.len(),
                "dual variable and θ must have the same dimension"
            );
        }
        AugmentedObjective {
            env,
            theta,
            dual,
            rho,
            scratch,
        }
    }

    /// Evaluates `L_i(w)`, returned, and `∇L_i(w)`, written into `grad`.
    ///
    /// The value is `f_i(w) + yᵀ(w − θ) + (ρ/2)‖w − θ‖²` and the gradient is
    /// `∇f_i(w) + y + ρ(w − θ)` — exactly the terms of Algorithm 1, line 17.
    ///
    /// # Panics
    /// Panics if `grad` and `w` differ in length.
    pub fn value_and_grad(&mut self, w: &[f32], grad: &mut [f32]) -> TensorResult<f32> {
        let scratch = &mut *self.scratch;
        let loss = full_gradient(self.env, w, &mut scratch.net, &mut scratch.train, grad)?;
        let mut value = loss;
        if self.rho > 0.0 || self.dual.is_some() {
            let mut quad = 0.0f32;
            let mut lin = 0.0f32;
            for (j, (gj, (&wj, &tj))) in grad
                .iter_mut()
                .zip(w.iter().zip(self.theta.iter()))
                .enumerate()
            {
                let diff = wj - tj;
                if let Some(y) = self.dual {
                    *gj += y[j];
                    lin += y[j] * diff;
                }
                *gj += self.rho * diff;
                quad += diff * diff;
            }
            value += lin + 0.5 * self.rho * quad;
        }
        Ok(value)
    }
}

/// Result of an alternative local solve.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// Final iterate `w_i^{t+1}`.
    pub params: Vec<f32>,
    /// Full-gradient evaluations performed (each touches the whole local
    /// dataset once — the computation-accounting analogue of an epoch).
    pub gradient_evals: usize,
    /// `‖∇L_i‖²` at the final iterate — the achieved inexactness of (6).
    pub final_grad_norm_sq: f32,
    /// `L_i` at the final iterate.
    pub final_value: f32,
}

/// Runs `steps` iterations of full-batch gradient descent
/// `w ← w − lr · ∇L_i(w)` starting from `init`.
pub fn gradient_descent(
    objective: &mut AugmentedObjective<'_>,
    init: &[f32],
    learning_rate: f32,
    steps: usize,
) -> TensorResult<SolveResult> {
    let mut w = init.to_vec();
    let mut grad = vec![0.0f32; w.len()];
    let mut evals = 0usize;
    for _ in 0..steps.max(1) {
        objective.value_and_grad(&w, &mut grad)?;
        evals += 1;
        vecops::axpy(-learning_rate, &grad, &mut w);
    }
    // Report the gradient norm at the *returned* iterate, one extra oracle
    // call, so the caller sees the actual achieved inexactness.
    let value = objective.value_and_grad(&w, &mut grad)?;
    evals += 1;
    Ok(SolveResult {
        params: w,
        gradient_evals: evals,
        final_grad_norm_sq: vecops::norm_sq(&grad),
        final_value: value,
    })
}

/// Gradient descent with Armijo backtracking, run until the paper's
/// inexactness criterion (6) holds: `‖∇L_i(w)‖² ≤ epsilon`, or until
/// `max_steps` full-gradient evaluations have been spent.
///
/// Because the augmented Lagrangian is strongly convex in `w` whenever
/// `ρ > L` (Section III-A), backtracking gradient descent reaches any
/// `ε_i > 0`; `learning_rate` is only the *initial* trial step of each
/// iteration, so a generous value is safe — the line search shrinks it until
/// the Armijo sufficient-decrease condition holds. The step budget guards
/// against pathological objectives. A solve allocates its iterate, its
/// gradient and one line-search candidate with its gradient, whatever the
/// number of candidates.
pub fn solve_to_tolerance(
    objective: &mut AugmentedObjective<'_>,
    init: &[f32],
    learning_rate: f32,
    epsilon: f32,
    max_steps: usize,
) -> TensorResult<SolveResult> {
    assert!(
        epsilon >= 0.0,
        "the inexactness level ε_i cannot be negative"
    );
    assert!(learning_rate > 0.0, "the trial step size must be positive");
    let armijo = 1e-4f32;
    let mut w = init.to_vec();
    let mut grad = vec![0.0f32; w.len()];
    let mut value = objective.value_and_grad(&w, &mut grad)?;
    let (mut candidate, mut cand_grad) = (vec![0.0f32; w.len()], vec![0.0f32; w.len()]);
    let mut evals = 1usize;
    let mut trial_step = learning_rate;
    loop {
        let gns = vecops::norm_sq(&grad);
        if gns <= epsilon || evals >= max_steps {
            return Ok(SolveResult {
                params: w,
                gradient_evals: evals,
                final_grad_norm_sq: gns,
                final_value: value,
            });
        }
        // Backtracking line search along the steepest-descent direction,
        // starting from the most recent accepted step (doubled) so the
        // search does not re-shrink from scratch every iteration.
        let mut step = learning_rate.min(trial_step);
        let mut advanced = false;
        for _ in 0..30 {
            candidate.copy_from_slice(&w);
            vecops::axpy(-step, &grad, &mut candidate);
            let cand_value = objective.value_and_grad(&candidate, &mut cand_grad)?;
            evals += 1;
            if cand_value <= value - armijo * step * gns {
                std::mem::swap(&mut w, &mut candidate);
                std::mem::swap(&mut grad, &mut cand_grad);
                value = cand_value;
                trial_step = step * 2.0;
                advanced = true;
                break;
            }
            step *= 0.5;
            if evals >= max_steps {
                break;
            }
        }
        if !advanced {
            // Numerically flat (or budget exhausted mid-search): stop and
            // report what was achieved.
            return Ok(SolveResult {
                params: w,
                gradient_evals: evals,
                final_grad_norm_sq: vecops::norm_sq(&grad),
                final_value: value,
            });
        }
    }
}

/// Limited-memory BFGS with Armijo backtracking.
///
/// Stops when `‖∇L_i(w)‖² ≤ epsilon` or after `max_iters` iterations.
/// `memory` is the number of curvature pairs kept for the two-loop
/// recursion (10 is a standard choice). A solve allocates its iterate, its
/// gradient, one line-search candidate with its gradient, the search
/// direction and at most `memory + 1` curvature pairs, whatever the number
/// of iterations and candidates.
pub fn lbfgs(
    objective: &mut AugmentedObjective<'_>,
    init: &[f32],
    memory: usize,
    max_iters: usize,
    epsilon: f32,
) -> TensorResult<SolveResult> {
    let m = memory.max(1);
    let d = init.len();
    let mut w = init.to_vec();
    let mut grad = vec![0.0f32; d];
    let mut value = objective.value_and_grad(&w, &mut grad)?;
    let (mut candidate, mut cand_grad) = (vec![0.0f32; d], vec![0.0f32; d]);
    let mut evals = 1usize;
    // Curvature pairs (s_k, y_k), oldest first, and their ρ_k = 1 / (y_kᵀ s_k);
    // `s` and `y` are the next pair's buffers.
    let mut s_hist: Vec<Vec<f32>> = Vec::with_capacity(m);
    let mut y_hist: Vec<Vec<f32>> = Vec::with_capacity(m);
    let mut rho_hist: Vec<f32> = Vec::with_capacity(m);
    let (mut s, mut y) = (vec![0.0f32; d], vec![0.0f32; d]);
    let mut q = vec![0.0f32; d];
    let mut alphas = Vec::with_capacity(m);

    for _ in 0..max_iters {
        let gns = vecops::norm_sq(&grad);
        if gns <= epsilon {
            break;
        }

        // Two-loop recursion: direction = -H_k ∇L.
        q.copy_from_slice(&grad);
        alphas.clear();
        for i in (0..s_hist.len()).rev() {
            let alpha = rho_hist[i] * vecops::dot(&s_hist[i], &q);
            vecops::axpy(-alpha, &y_hist[i], &mut q);
            alphas.push(alpha);
        }
        alphas.reverse();
        // Initial Hessian scaling γ = sᵀy / yᵀy from the most recent pair.
        if let (Some(s_last), Some(y_last)) = (s_hist.last(), y_hist.last()) {
            let ys = vecops::dot(s_last, y_last);
            let yy = vecops::norm_sq(y_last);
            if yy > 0.0 && ys > 0.0 {
                vecops::scale(ys / yy, &mut q);
            }
        }
        for i in 0..s_hist.len() {
            let beta = rho_hist[i] * vecops::dot(&y_hist[i], &q);
            vecops::axpy(alphas[i] - beta, &s_hist[i], &mut q);
        }
        // q now approximates H∇L; the step direction is -q.
        let direction = &mut q;
        vecops::scale(-1.0, direction);

        // Armijo backtracking along the direction; fall back to steepest
        // descent if the L-BFGS direction is not a descent direction.
        let mut dir_dot_grad = vecops::dot(direction, &grad);
        if dir_dot_grad >= 0.0 {
            direction.copy_from_slice(&grad);
            vecops::scale(-1.0, direction);
            dir_dot_grad = -vecops::norm_sq(&grad);
        }
        let mut step = 1.0f32;
        let c1 = 1e-4f32;
        let mut accepted = None;
        for _ in 0..30 {
            candidate.copy_from_slice(&w);
            vecops::axpy(step, direction, &mut candidate);
            let cand_value = objective.value_and_grad(&candidate, &mut cand_grad)?;
            evals += 1;
            if cand_value <= value + c1 * step * dir_dot_grad {
                accepted = Some(cand_value);
                break;
            }
            step *= 0.5;
        }
        let Some(new_value) = accepted else {
            // Line search failed (e.g. at a numerically flat point): stop.
            break;
        };

        // Update curvature history; an evicted pair's buffers hold the
        // next pair.
        vecops::sub_into(&candidate, &w, &mut s);
        vecops::sub_into(&cand_grad, &grad, &mut y);
        let ys = vecops::dot(&y, &s);
        if ys > 1e-10 {
            let (next_s, next_y) = if s_hist.len() == m {
                rho_hist.remove(0);
                (s_hist.remove(0), y_hist.remove(0))
            } else {
                (vec![0.0f32; d], vec![0.0f32; d])
            };
            rho_hist.push(1.0 / ys);
            s_hist.push(std::mem::replace(&mut s, next_s));
            y_hist.push(std::mem::replace(&mut y, next_y));
        }
        std::mem::swap(&mut w, &mut candidate);
        std::mem::swap(&mut grad, &mut cand_grad);
        value = new_value;
    }

    Ok(SolveResult {
        params: w,
        gradient_evals: evals,
        final_grad_norm_sq: vecops::norm_sq(&grad),
        final_value: value,
    })
}

/// A local solver for the augmented-Lagrangian subproblem (3).
///
/// Only [`LocalSolver::Sgd`] reads the job's `E_i`. The other three run to
/// their own step count or tolerance whatever `E_i` the work schedule drew,
/// although [`FedAdmm`](crate::algorithms::FedAdmm) still reports
/// `supports_variable_work()`; each reports its full-gradient evaluations
/// as `epochs_run`, so the virtual clock charges every evaluation as one
/// epoch. ROADMAP item 6 step 3 (fitting ε_i to the device) is what would
/// give them a per-client amount of work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LocalSolver {
    /// Algorithm 1: `E_i` epochs of mini-batch SGD with the run's batch size
    /// and learning rate, on the worker's cached network.
    Sgd,
    /// Full-batch gradient descent for a fixed number of steps. Ignores
    /// `E_i`; each step is charged as one epoch.
    GradientDescent {
        /// Number of gradient steps.
        steps: usize,
        /// Step size.
        learning_rate: f32,
    },
    /// Gradient descent until the inexactness criterion (6) holds:
    /// `‖∇L_i‖² ≤ epsilon`. Ignores `E_i`; each gradient evaluation is
    /// charged as one epoch.
    ToTolerance {
        /// Target inexactness `ε_i`.
        epsilon: f32,
        /// Step size.
        learning_rate: f32,
        /// Safety cap on the number of gradient evaluations.
        max_steps: usize,
    },
    /// Limited-memory BFGS (quasi-Newton) with Armijo backtracking.
    /// Ignores `E_i`; each gradient evaluation, line-search ones included,
    /// is charged as one epoch.
    Lbfgs {
        /// Number of curvature pairs to keep.
        memory: usize,
        /// Maximum number of iterations.
        max_iters: usize,
        /// Stop once `‖∇L_i‖² ≤ epsilon`.
        epsilon: f32,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedadmm_data::batching::BatchSize;
    use fedadmm_data::synthetic::SyntheticDataset;
    use fedadmm_data::Dataset;
    use fedadmm_nn::models::ModelSpec;

    fn fixture() -> (Dataset, Vec<usize>) {
        let (train, _) = SyntheticDataset::Mnist.generate(80, 10, 11);
        let indices: Vec<usize> = (0..80).collect();
        (train, indices)
    }

    fn env<'a>(train: &'a Dataset, indices: &'a [usize]) -> LocalEnv<'a> {
        LocalEnv {
            dataset: train,
            indices,
            model: ModelSpec::Logistic {
                input_dim: 784,
                num_classes: 10,
            },
            epochs: 1,
            batch_size: BatchSize::Full,
            learning_rate: 0.1,
            seed: 3,
        }
    }

    #[test]
    fn objective_reduces_to_plain_loss_without_prox_terms() {
        let (train, indices) = fixture();
        let e = env(&train, &indices);
        let d = e.model.num_params();
        let theta = vec![0.0f32; d];
        let mut scratch = UpdateScratch::default();
        let mut obj = AugmentedObjective::new(&e, &theta, None, 0.0, &mut scratch);
        let w = vec![0.01f32; d];
        let mut grad = vec![0.0f32; d];
        let value = obj.value_and_grad(&w, &mut grad).unwrap();
        let mut plain_grad = vec![0.0f32; d];
        let plain_loss = full_gradient(
            &e,
            &w,
            &mut scratch.net,
            &mut scratch.train,
            &mut plain_grad,
        )
        .unwrap();
        assert!((value - plain_loss).abs() < 1e-6);
        assert_eq!(grad, plain_grad);
    }

    #[test]
    fn objective_adds_dual_and_proximal_terms() {
        let (train, indices) = fixture();
        let e = env(&train, &indices);
        let d = e.model.num_params();
        let theta = vec![0.1f32; d];
        let dual = vec![0.05f32; d];
        let rho = 2.0f32;
        let mut scratch = UpdateScratch::default();
        let mut obj = AugmentedObjective::new(&e, &theta, Some(&dual), rho, &mut scratch);
        let w = vec![0.3f32; d];
        let mut grad = vec![0.0f32; d];
        let value = obj.value_and_grad(&w, &mut grad).unwrap();
        let mut plain_grad = vec![0.0f32; d];
        let plain_loss = full_gradient(
            &e,
            &w,
            &mut scratch.net,
            &mut scratch.train,
            &mut plain_grad,
        )
        .unwrap();
        // value = f + yᵀ(w−θ) + ρ/2‖w−θ‖²  with w−θ = 0.2 everywhere.
        let diff = 0.2f32;
        let expected = plain_loss + (0.05 * diff) * d as f32 + 0.5 * rho * diff * diff * d as f32;
        assert!((value - expected).abs() / expected.abs().max(1.0) < 1e-4);
        for (g, pg) in grad.iter().zip(plain_grad.iter()) {
            assert!((g - (pg + 0.05 + rho * diff)).abs() < 1e-5);
        }
    }

    #[test]
    fn gradient_descent_decreases_objective() {
        let (train, indices) = fixture();
        let e = env(&train, &indices);
        let d = e.model.num_params();
        let theta = vec![0.0f32; d];
        let mut scratch = UpdateScratch::default();
        let mut obj = AugmentedObjective::new(&e, &theta, None, 0.5, &mut scratch);
        let init = vec![0.0f32; d];
        let v0 = obj.value_and_grad(&init, &mut vec![0.0f32; d]).unwrap();
        let result = gradient_descent(&mut obj, &init, 0.5, 10).unwrap();
        assert!(result.final_value < v0);
        assert_eq!(result.gradient_evals, 11);
    }

    #[test]
    fn solve_to_tolerance_meets_criterion_6() {
        let (train, indices) = fixture();
        let e = env(&train, &indices);
        let d = e.model.num_params();
        let theta = vec![0.0f32; d];
        // ρ large → strongly convex local problem → GD converges fast.
        let mut scratch = UpdateScratch::default();
        let mut obj = AugmentedObjective::new(&e, &theta, None, 10.0, &mut scratch);
        let init = vec![0.0f32; d];
        let epsilon = 1e-2f32;
        let result = solve_to_tolerance(&mut obj, &init, 0.5, epsilon, 2000).unwrap();
        assert!(
            result.final_grad_norm_sq <= epsilon,
            "criterion (6) not met: {} > {}",
            result.final_grad_norm_sq,
            epsilon
        );
        assert!(result.gradient_evals <= 2000);
    }

    #[test]
    fn tighter_epsilon_needs_more_work() {
        let (train, indices) = fixture();
        let e = env(&train, &indices);
        let d = e.model.num_params();
        let theta = vec![0.0f32; d];
        let mut scratch = UpdateScratch::default();
        let mut obj = AugmentedObjective::new(&e, &theta, None, 10.0, &mut scratch);
        let init = vec![0.0f32; d];
        let loose = solve_to_tolerance(&mut obj, &init, 0.5, 1e-1, 2000).unwrap();
        let tight = solve_to_tolerance(&mut obj, &init, 0.5, 1e-3, 2000).unwrap();
        assert!(tight.gradient_evals >= loose.gradient_evals);
        assert!(tight.final_grad_norm_sq <= loose.final_grad_norm_sq);
    }

    #[test]
    fn lbfgs_is_a_competitive_alternative_to_gd() {
        let (train, indices) = fixture();
        let e = env(&train, &indices);
        let d = e.model.num_params();
        let theta = vec![0.0f32; d];
        let mut scratch = UpdateScratch::default();
        let mut obj = AugmentedObjective::new(&e, &theta, None, 1.0, &mut scratch);
        let init = vec![0.0f32; d];
        // A tight tolerance, where curvature information starts to matter.
        let epsilon = 1e-5f32;
        let quasi = lbfgs(&mut obj, &init, 10, 500, epsilon).unwrap();
        assert!(
            quasi.final_grad_norm_sq <= epsilon,
            "{}",
            quasi.final_grad_norm_sq
        );
        let gd = solve_to_tolerance(&mut obj, &init, 0.3, epsilon, 5000).unwrap();
        assert!(
            gd.final_grad_norm_sq <= epsilon,
            "{}",
            gd.final_grad_norm_sq
        );
        // Both are valid local solvers for criterion (6); L-BFGS must at
        // least stay within a small constant factor of GD's oracle cost
        // (on well-conditioned problems the two are comparable, on
        // ill-conditioned ones L-BFGS wins by a large margin).
        assert!(
            quasi.gradient_evals <= 2 * gd.gradient_evals + 10,
            "L-BFGS used {} evals, GD used {}",
            quasi.gradient_evals,
            gd.gradient_evals
        );
    }

    #[test]
    fn local_solver_dispatch_matches_direct_calls() {
        use crate::algorithms::{Algorithm, FedAdmm, ServerStepSize};
        use crate::client::ClientState;
        use crate::param::ParamVector;

        let (train, indices) = fixture();
        let e = env(&train, &indices);
        let d = e.model.num_params();
        let (theta, dual) = (vec![0.0f32; d], vec![0.0f32; d]);
        let rho = 1.0f32;
        let mut scratch = UpdateScratch::default();
        let mut obj = AugmentedObjective::new(&e, &theta, Some(&dual), rho, &mut scratch);
        let cases = [
            (
                LocalSolver::GradientDescent {
                    steps: 5,
                    learning_rate: 0.2,
                },
                gradient_descent(&mut obj, &theta, 0.2, 5).unwrap(),
            ),
            (
                LocalSolver::ToTolerance {
                    epsilon: 1e-3,
                    learning_rate: 0.1,
                    max_steps: 10,
                },
                solve_to_tolerance(&mut obj, &theta, 0.1, 1e-3, 10).unwrap(),
            ),
            (
                LocalSolver::Lbfgs {
                    memory: 5,
                    max_iters: 10,
                    epsilon: 1e-3,
                },
                lbfgs(&mut obj, &theta, 5, 10, 1e-3).unwrap(),
            ),
        ];
        for (solver, direct) in cases {
            // A fresh client (w_i = θ, y_i = 0) solves exactly `obj`.
            let global = ParamVector::from_vec(theta.clone());
            let mut client = ClientState::new(0, indices.clone(), &global);
            let alg = FedAdmm::new(rho, ServerStepSize::Constant(1.0)).with_solver(solver);
            let msg = alg.client_update(&mut client, &global, &e).unwrap();
            assert_eq!(
                client.local_model.as_slice(),
                &direct.params[..],
                "{solver:?}"
            );
            assert_eq!(msg.epochs_run, direct.gradient_evals, "{solver:?}");
            assert_eq!(
                msg.samples_processed,
                direct.gradient_evals * indices.len(),
                "{solver:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "cannot be negative")]
    fn negative_rho_is_rejected() {
        let (train, indices) = fixture();
        let e = env(&train, &indices);
        let theta = vec![0.0f32; e.model.num_params()];
        AugmentedObjective::new(&e, &theta, None, -1.0, &mut UpdateScratch::default());
    }
}
