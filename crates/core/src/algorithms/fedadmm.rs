//! FedADMM — Algorithm 1 of the paper.
//!
//! Each client `i` keeps a primal–dual pair `(w_i, y_i)`. When selected at
//! round `t` it:
//!
//! 1. downloads θ^t,
//! 2. approximately minimises the local augmented Lagrangian
//!    `L_i(w, y_i^t, θ^t) = f_i(w) + (y_i^t)ᵀ(w − θ^t) + (ρ/2)‖w − θ^t‖²`
//!    **warm-started from its stored local model `w_i^t`** (the paper's
//!    Figure 8 shows that warm start is decisively better than re-starting
//!    from θ^t; both options are exposed through [`LocalInit`]). The method
//!    only asks for criterion (6), `‖∇_w L_i(w_i^{t+1}, y_i^t, θ^t)‖² ≤ ε_i`;
//!    how a client gets there is the [`FedAdmm::solver`] field. Its default,
//!    [`LocalSolver::Sgd`], is Algorithm 1's `E_i` epochs of mini-batch SGD;
//!    full-batch gradient descent, gradient descent to a given `ε_i` and
//!    L-BFGS are the alternatives Section III-A names,
//! 3. updates its dual variable `y_i^{t+1} = y_i^t + ρ(w_i^{t+1} − θ^t)`
//!    (Algorithm 1, line 20),
//! 4. uploads the *augmented-model difference*
//!    `Δ_i^t = (w_i^{t+1} + y_i^{t+1}/ρ) − (w_i^t + y_i^t/ρ)` (equation 4),
//!    which is a single vector in ℝ^d — the same upload size as
//!    FedAvg/FedProx.
//!
//! The server then applies the tracking update (equation 5)
//! `θ^{t+1} = θ^t + (η/|S_t|) Σ_{i∈S_t} Δ_i^t`, where the gathering step
//! size η is either a constant (η = 1 gives the fastest training) or the
//! participation ratio `|S_t|/m` (the theoretically analysed choice that
//! damps oscillations under strong heterogeneity) — see [`ServerStepSize`].
//!
//! Table I: FedADMM needs `O(1/ε · m/S)` rounds with **no** data-dissimilarity
//! or bounded-gradient assumptions, and its ρ can be a constant independent
//! of the system size (Theorem 1 / Remark 1).

use super::{Algorithm, ClientMessage, FoldPlan, UpdateScratch};
use crate::client::ClientState;
use crate::param::ParamVector;
use crate::solver::{
    gradient_descent, lbfgs, solve_to_tolerance, AugmentedObjective, LocalSolver, SolveResult,
};
use crate::trainer::{local_sgd_with_step, LocalEnv};
use fedadmm_tensor::{TensorError, TensorResult};

/// The server gathering step size η of equation (5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServerStepSize {
    /// A fixed η. The paper observes η = 1 gives fast training and explores
    /// η ∈ {0.5, 1.0, 1.5} in Figure 6.
    Constant(f32),
    /// η = |S_t|/m — "helps to eliminate oscillatory behaviors when
    /// significant heterogeneity is detected" and is the choice analysed in
    /// Theorem 1.
    ParticipationRatio,
}

impl ServerStepSize {
    /// Resolves the step size for a round with `selected` active clients out
    /// of `total` clients.
    pub fn resolve(&self, selected: usize, total: usize) -> f32 {
        match *self {
            ServerStepSize::Constant(eta) => eta,
            ServerStepSize::ParticipationRatio => {
                if total == 0 {
                    0.0
                } else {
                    selected as f32 / total as f32
                }
            }
        }
    }
}

/// How a selected client initialises its local training (Figure 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalInit {
    /// Warm-start from the stored local model `w_i^t` (option I in the
    /// paper; "yields superior results in all cases" and is the default).
    LocalModel,
    /// Restart from the downloaded global model θ^t (option II).
    GlobalModel,
}

/// The FedADMM algorithm (Algorithm 1).
#[derive(Debug, Clone, Copy)]
pub struct FedAdmm {
    /// Proximal coefficient ρ of the augmented Lagrangian. The paper fixes
    /// ρ = 0.01 across *all* experiments — no per-setting tuning.
    pub rho: f32,
    /// Server gathering step size η.
    pub server_step: ServerStepSize,
    /// Local-training initialisation (warm start by default).
    pub local_init: LocalInit,
    /// How every client solves its subproblem (Algorithm 1's SGD epochs by
    /// default).
    pub solver: LocalSolver,
}

impl FedAdmm {
    /// Creates FedADMM with the given ρ and server step size, using the
    /// paper's default warm-start initialisation and SGD local solver.
    pub fn new(rho: f32, server_step: ServerStepSize) -> Self {
        assert!(
            rho > 0.0,
            "FedADMM requires a positive proximal coefficient ρ"
        );
        FedAdmm {
            rho,
            server_step,
            local_init: LocalInit::LocalModel,
            solver: LocalSolver::Sgd,
        }
    }

    /// The paper's default configuration: ρ = 0.01, η = 1, warm start.
    pub fn paper_default() -> Self {
        FedAdmm::new(0.01, ServerStepSize::Constant(1.0))
    }

    /// Sets the local initialisation strategy (Figure 8 ablation).
    pub fn with_local_init(mut self, init: LocalInit) -> Self {
        self.local_init = init;
        self
    }

    /// Sets the local solver (criterion (6) in place of `E_i` SGD epochs).
    ///
    /// Every solver but [`LocalSolver::Sgd`] ignores the job's `E_i` while
    /// [`Algorithm::supports_variable_work`] stays true, and its gradient
    /// evaluations are charged to the virtual clock as epochs (see
    /// [`LocalSolver`]); ROADMAP item 6 step 3 is the fix.
    pub fn with_solver(mut self, solver: LocalSolver) -> Self {
        self.solver = solver;
        self
    }

    /// Adjusts ρ mid-run (the dynamic-ρ schedule of Figure 9).
    ///
    /// # Panics
    /// Panics if `rho <= 0`.
    pub fn set_rho(&mut self, rho: f32) {
        assert!(
            rho > 0.0,
            "FedADMM requires a positive proximal coefficient ρ"
        );
        self.rho = rho;
    }

    /// Adjusts the server step size mid-run (the η schedule of Figure 6).
    pub fn set_server_step(&mut self, step: ServerStepSize) {
        self.server_step = step;
    }
}

/// The primal–dual bookkeeping FedADMM wraps around every local solver —
/// Algorithm 1 line 20 and equation (4), and their only implementation.
///
/// `solve(init, y_i)` minimises the augmented Lagrangian from `init`
/// (`w_i^t` or θ^t, per `local_init`) and returns `w_i^{t+1}` in a buffer
/// of its own, with whatever accounting the caller wants back. Both
/// arguments are borrowed straight from the client's state, which is only
/// read until `solve` returns; when it returns `Err` the state is
/// untouched. Then one pass over `(w_i, y_i, w_i^{t+1}, θ)` computes, per
/// coordinate and in this order,
///
/// ```text
/// u   = w_i^t + (1/ρ)·y_i
/// y_i ← (y_i + ρ·w_i^{t+1}) + (−ρ)·θ            (line 20)
/// Δ_i = (w_i^{t+1} + (1/ρ)·y_i) − u             (eq. 4)
/// w_i ← w_i^{t+1}
/// ```
///
/// — the multiply/add/subtract sequence of
/// [`ClientState::augmented_model`], two [`ParamVector::axpy`] calls and
/// [`ParamVector::sub`], so the result carries their bits (pinned by the
/// engine-parity golden digests). Client buffers never change hands: `w_i`
/// and `y_i` are written in place, in the allocations they already had, and
/// Δ is written over `w_i^{t+1}` in the solver's buffer, which is returned
/// as the upload. No d-sized temporary.
///
/// # Errors
/// [`TensorError::InvalidArgument`] naming the three lengths when `w_i`,
/// `y_i` and θ differ in length, and whatever `solve` returns; nothing is
/// modified in either case.
pub(super) fn primal_dual_step<T>(
    client: &mut ClientState,
    global: &ParamVector,
    rho: f32,
    local_init: LocalInit,
    solve: impl FnOnce(&[f32], &[f32]) -> TensorResult<(Vec<f32>, T)>,
) -> TensorResult<(ParamVector, T)> {
    let theta = global.as_slice();
    let d = client.local_model.len();
    if client.dual.len() != d || theta.len() != d {
        return Err(TensorError::InvalidArgument(format!(
            "FedADMM step on client {}: w_i has {d} coordinates, y_i {} and θ {}",
            client.id,
            client.dual.len(),
            theta.len()
        )));
    }
    let init = match local_init {
        LocalInit::LocalModel => client.local_model.as_slice(),
        LocalInit::GlobalModel => theta,
    };
    let (mut upload, extra) = solve(init, client.dual.as_slice())?;
    assert_eq!(upload.len(), d, "the local solve changed the model size");

    let inv_rho = 1.0 / rho;
    let local = client.local_model.as_mut_slice();
    let dual = client.dual.as_mut_slice();
    for (((w_i, y), slot), &t) in local.iter_mut().zip(dual).zip(&mut upload).zip(theta) {
        let w = *slot;
        let old_augmented = *w_i + inv_rho * *y;
        *y = (*y + rho * w) + (-rho) * t;
        *slot = (w + inv_rho * *y) - old_augmented;
        *w_i = w;
    }
    client.times_selected += 1;
    Ok((ParamVector::from_vec(upload), extra))
}

impl Algorithm for FedAdmm {
    fn name(&self) -> &'static str {
        "FedADMM"
    }

    /// Algorithm 1, lines 14–20 and equation (4): the solver's pass over
    /// the augmented Lagrangian inside `primal_dual_step`. Under
    /// [`LocalSolver::Sgd`] that is `E_i` epochs of SGD on the worker's
    /// cached network and per-batch buffers, each step's correction
    /// `y_i + ρ(w − θ)` fused into the SGD update, and a warm job allocates
    /// what a FedAvg job does: the trained parameter vector (the upload's
    /// buffer) and the payload `Vec`.
    /// The other solvers work on [`AugmentedObjective`], on the same network
    /// and buffers, and count each full-gradient evaluation as one epoch
    /// over the client's samples.
    fn client_update_scratch(
        &self,
        client: &mut ClientState,
        global: &ParamVector,
        env: &LocalEnv<'_>,
        scratch: &mut UpdateScratch,
    ) -> TensorResult<ClientMessage> {
        let rho = self.rho;
        let theta = global.as_slice();
        let num_samples = client.num_samples();
        let (delta, (epochs_run, samples_processed)) =
            primal_dual_step(client, global, rho, self.local_init, |init, dual| {
                // A full-gradient evaluation touches every local sample
                // once, so it counts as one epoch.
                let by_evals = |r: SolveResult| {
                    let evals = r.gradient_evals;
                    (r.params, (evals, evals * num_samples))
                };
                // Borrows `scratch` on the arms that read it, not on SGD's.
                let objective = &mut AugmentedObjective::new(env, theta, Some(dual), rho, scratch);
                match self.solver {
                    LocalSolver::Sgd => {
                        // ∇_w L_i(w) = ∇f_i(w, b) + y_i + ρ(w − θ) (Alg. 1 line 17).
                        let UpdateScratch { net, train } = scratch;
                        let result = local_sgd_with_step(env, init, net, train, |neg_lr, w, g| {
                            for (((wi, &gi), &ti), &yi) in
                                w.iter_mut().zip(&*g).zip(theta).zip(dual)
                            {
                                *wi += neg_lr * (gi + (yi + rho * (*wi - ti)));
                            }
                        })?;
                        Ok((result.params, (env.epochs, result.samples_processed)))
                    }
                    LocalSolver::GradientDescent {
                        steps,
                        learning_rate,
                    } => gradient_descent(objective, init, learning_rate, steps).map(by_evals),
                    LocalSolver::ToTolerance {
                        epsilon,
                        learning_rate,
                        max_steps,
                    } => solve_to_tolerance(objective, init, learning_rate, epsilon, max_steps)
                        .map(by_evals),
                    LocalSolver::Lbfgs {
                        memory,
                        max_iters,
                        epsilon,
                    } => lbfgs(objective, init, memory, max_iters, epsilon).map(by_evals),
                }
            })?;
        Ok(ClientMessage {
            client_id: client.id,
            num_samples,
            payload: vec![delta],
            epochs_run,
            samples_processed,
            wire: None,
        })
    }

    fn fold_plan(&self, messages: &[ClientMessage], num_clients: usize) -> Option<FoldPlan> {
        if messages.is_empty() {
            return None;
        }
        // Tracking update (eq. 5): θ ← θ + (η / |S_t|) Σ Δ_i.
        let eta = self.server_step.resolve(messages.len(), num_clients);
        let scale = eta / messages.len() as f32;
        Some(FoldPlan::Accumulate(vec![scale; messages.len()]))
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::Fixture;
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn server_step_size_resolution() {
        assert_eq!(ServerStepSize::Constant(1.5).resolve(10, 100), 1.5);
        assert_eq!(ServerStepSize::ParticipationRatio.resolve(10, 100), 0.1);
        assert_eq!(ServerStepSize::ParticipationRatio.resolve(5, 0), 0.0);
    }

    #[test]
    fn paper_default_configuration() {
        let alg = FedAdmm::paper_default();
        assert_eq!(alg.rho, 0.01);
        assert_eq!(alg.server_step, ServerStepSize::Constant(1.0));
        assert_eq!(alg.local_init, LocalInit::LocalModel);
        assert_eq!(alg.solver, LocalSolver::Sgd);
        assert_eq!(alg.name(), "FedADMM");
        assert!(alg.supports_variable_work());
        assert!(!alg.requires_full_participation());
    }

    #[test]
    #[should_panic(expected = "positive proximal coefficient")]
    fn zero_rho_is_rejected() {
        FedAdmm::new(0.0, ServerStepSize::Constant(1.0));
    }

    #[test]
    #[should_panic(expected = "positive proximal coefficient")]
    fn zero_rho_with_an_inexact_solver_is_rejected() {
        FedAdmm::new(0.0, ServerStepSize::Constant(1.0)).with_solver(
            LocalSolver::GradientDescent {
                steps: 1,
                learning_rate: 0.1,
            },
        );
    }

    /// Backtracking gradient descent until `‖∇L_i‖² ≤ ε`, capped at 2 000
    /// gradient evaluations.
    fn to_tolerance(epsilon: f32, learning_rate: f32) -> LocalSolver {
        LocalSolver::ToTolerance {
            epsilon,
            learning_rate,
            max_steps: 2000,
        }
    }

    #[test]
    fn dual_update_follows_line_20() {
        // After a client update, y_i^{t+1} must equal y_i^t + ρ(w_i^{t+1} − θ^t).
        let fixture = Fixture::new(1, 40, 2);
        let theta = ParamVector::zeros(fixture.dim());
        let mut clients = fixture.clients(&theta);
        let alg = FedAdmm::new(0.5, ServerStepSize::Constant(1.0));
        let env = fixture.env(0, 2, 3);
        let old_dual = clients[0].dual.clone();
        alg.client_update(&mut clients[0], &theta, &env).unwrap();
        let mut expected = old_dual;
        expected.axpy(0.5, &clients[0].local_model);
        expected.axpy(-0.5, &theta);
        let err = expected.dist(&clients[0].dual);
        assert!(err < 1e-5, "dual update deviates by {err}");
    }

    #[test]
    fn update_message_is_augmented_model_difference() {
        let fixture = Fixture::new(1, 40, 4);
        let theta = ParamVector::zeros(fixture.dim());
        let mut clients = fixture.clients(&theta);
        let alg = FedAdmm::new(0.1, ServerStepSize::Constant(1.0));
        let env = fixture.env(0, 1, 5);
        let u_before = clients[0].augmented_model(0.1);
        let msg = alg.client_update(&mut clients[0], &theta, &env).unwrap();
        let u_after = clients[0].augmented_model(0.1);
        let expected = u_after.sub(&u_before);
        assert!(msg.payload[0].dist(&expected) < 1e-5);
        // Same upload size as FedAvg/FedProx: exactly one d-vector.
        assert_eq!(msg.upload_floats(), fixture.dim());
    }

    #[test]
    fn first_round_message_equals_fedprox_style_delta() {
        // With zero-initialised duals and w_i^0 = θ^0, the first-round
        // message is (w^1 + y^1/ρ) − θ^0 = 2 w^1 − 2θ... verified here via
        // the closed form: u^1 − u^0 = (w^1 − w^0) + (y^1 − y^0)/ρ
        //                            = (w^1 − θ) + (w^1 − θ) = 2(w^1 − θ).
        let fixture = Fixture::new(1, 30, 6);
        let theta = ParamVector::zeros(fixture.dim());
        let mut clients = fixture.clients(&theta);
        let alg = FedAdmm::new(0.01, ServerStepSize::Constant(1.0));
        let env = fixture.env(0, 1, 9);
        let msg = alg.client_update(&mut clients[0], &theta, &env).unwrap();
        let mut expected = clients[0].local_model.sub(&theta);
        expected.scale(2.0);
        assert!(msg.payload[0].dist(&expected) < 1e-4);
    }

    #[test]
    fn fedadmm_with_zero_dual_matches_fedprox_local_step() {
        // Section III-B: with y ≡ 0 FedADMM's local problem *is* FedProx's.
        // A freshly initialised client has zero dual, so the first local
        // model (not the message) must coincide with FedProx's for the same
        // seed, ρ, and global-model initialisation.
        let fixture = Fixture::new(1, 40, 7);
        let theta = ParamVector::zeros(fixture.dim());
        let env = fixture.env(0, 2, 13);
        let rho = 0.3;

        let admm = FedAdmm::new(rho, ServerStepSize::Constant(1.0))
            .with_local_init(LocalInit::GlobalModel);
        let mut c_admm = fixture.clients(&theta);
        admm.client_update(&mut c_admm[0], &theta, &env).unwrap();

        let prox = super::super::FedProx::new(rho);
        let mut c_prox = fixture.clients(&theta);
        let m_prox = prox.client_update(&mut c_prox[0], &theta, &env).unwrap();

        assert!(c_admm[0].local_model.dist(&m_prox.payload[0]) < 1e-5);
    }

    #[test]
    fn server_tracking_update() {
        let mut rng = SmallRng::seed_from_u64(0);
        let messages = vec![
            ClientMessage {
                client_id: 0,
                num_samples: 1,
                payload: vec![ParamVector::from_vec(vec![2.0, 0.0])],
                epochs_run: 1,
                samples_processed: 1,
                wire: None,
            },
            ClientMessage {
                client_id: 1,
                num_samples: 1,
                payload: vec![ParamVector::from_vec(vec![0.0, -2.0])],
                epochs_run: 1,
                samples_processed: 1,
                wire: None,
            },
        ];
        // The server step does not depend on the local solver.
        for solver in [LocalSolver::Sgd, to_tolerance(1e-2, 0.1)] {
            let mut alg = FedAdmm::new(0.01, ServerStepSize::Constant(1.0)).with_solver(solver);
            let mut global = ParamVector::from_vec(vec![1.0, 1.0]);
            alg.server_update(&mut global, &messages, 100, &mut rng);
            // θ ← θ + (1/2)ΣΔ = [1,1] + [1,-1] = [2,0]
            assert_eq!(global.as_slice(), &[2.0, 0.0]);

            // With η = |S|/m the update is scaled down by S/m.
            alg.set_server_step(ServerStepSize::ParticipationRatio);
            let mut global2 = ParamVector::from_vec(vec![1.0, 1.0]);
            alg.server_update(&mut global2, &messages, 100, &mut rng);
            assert!((global2.as_slice()[0] - 1.02).abs() < 1e-6);
            assert!((global2.as_slice()[1] - 0.98).abs() < 1e-6);

            // An empty round uploads nothing and leaves θ alone.
            let empty = alg.server_update(&mut global2, &[], 100, &mut rng);
            assert_eq!(empty.upload_floats, 0);
            assert!((global2.as_slice()[0] - 1.02).abs() < 1e-6);
        }
    }

    #[test]
    fn inexact_server_update_matches_tracking_rule() {
        let mut alg =
            FedAdmm::new(0.1, ServerStepSize::Constant(1.0)).with_solver(to_tolerance(1e-2, 0.1));
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let mut global = ParamVector::from_vec(vec![0.0, 0.0]);
        let messages = vec![ClientMessage {
            client_id: 0,
            num_samples: 1,
            payload: vec![ParamVector::from_vec(vec![1.0, -1.0])],
            epochs_run: 1,
            samples_processed: 1,
            wire: None,
        }];
        alg.server_update(&mut global, &messages, 10, &mut rng);
        assert_eq!(global.as_slice(), &[1.0, -1.0]);
        let empty = alg.server_update(&mut global, &[], 10, &mut rng);
        assert_eq!(empty.upload_floats, 0);
    }

    #[test]
    fn warm_scratch_client_update_is_bit_identical_to_a_cold_one() {
        // Two clients updated over two rounds, once through a fresh scratch
        // per job (`client_update`) and once through one shared scratch —
        // every job after the first runs on dirty buffers.
        let fixture = Fixture::new(2, 30, 11);
        let alg = FedAdmm::new(0.05, ServerStepSize::Constant(1.0));
        let theta0 = ParamVector::zeros(fixture.dim());
        let theta1 = ParamVector::from_vec(vec![0.02; fixture.dim()]);
        let mut plain = fixture.clients(&theta0);
        let mut scratched = fixture.clients(&theta0);
        let mut scratch = UpdateScratch::default();
        for (round, theta) in [&theta0, &theta1].into_iter().enumerate() {
            for c in 0..2 {
                let env = fixture.env(c, 2, (round * 10 + c) as u64);
                let a = alg.client_update(&mut plain[c], theta, &env).unwrap();
                let b = alg
                    .client_update_scratch(&mut scratched[c], theta, &env, &mut scratch)
                    .unwrap();
                assert_eq!(
                    a.payload[0], b.payload[0],
                    "payload round {round} client {c}"
                );
                assert_eq!(a.num_samples, b.num_samples);
                assert_eq!(a.epochs_run, b.epochs_run);
                assert_eq!(a.samples_processed, b.samples_processed);
                assert_eq!(plain[c].local_model, scratched[c].local_model);
                assert_eq!(plain[c].dual, scratched[c].dual);
                assert_eq!(plain[c].times_selected, scratched[c].times_selected);
            }
        }
    }

    /// Deterministic test vector: ordinary values with `NaN`, `±Inf`,
    /// `−0.0` and subnormals sprinkled in, at positions that differ per
    /// `salt` so the four streams meet in many combinations.
    fn awkward_vector(len: usize, salt: u32) -> Vec<f32> {
        let specials = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            f32::MIN_POSITIVE / 4.0,
            -f32::MIN_POSITIVE / 64.0,
            f32::MAX,
        ];
        let mut state = salt.wrapping_mul(0x9E37_79B9) | 1;
        (0..len)
            .map(|k| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                if (k as u32 + salt).is_multiple_of(5) {
                    specials[(state >> 13) as usize % specials.len()]
                } else {
                    (state >> 8) as f32 / (1u32 << 23) as f32 - 1.0
                }
            })
            .collect()
    }

    /// Same bits — or both `NaN`: which payload a `NaN` result carries is
    /// not something Rust specifies, everything else is.
    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}[{k}]: {g:e} ({:#010x}) != {w:e} ({:#010x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    #[test]
    fn fused_step_has_the_bits_of_the_naive_formula() {
        for rho in [0.01f32, 0.3, 1.0, 7.5] {
            for len in [0usize, 1, 7, 8, 9, 1000] {
                for local_init in [LocalInit::LocalModel, LocalInit::GlobalModel] {
                    let theta = ParamVector::from_vec(awkward_vector(len, 1));
                    let mut client = ClientState::new(3, vec![0, 1], &theta);
                    client.local_model = ParamVector::from_vec(awkward_vector(len, 2));
                    client.dual = ParamVector::from_vec(awkward_vector(len, 3));
                    let w_new = awkward_vector(len, 4);

                    // Line 20 and eq. (4) as written: augmented model before
                    // and after, two axpys on a copy of the dual.
                    let u_before = client.augmented_model(rho);
                    let mut naive = client.clone();
                    naive.local_model = ParamVector::from_vec(w_new.clone());
                    naive.dual.axpy(rho, &naive.local_model);
                    naive.dual.axpy(-rho, &theta);
                    let naive_delta = naive.augmented_model(rho).sub(&u_before);

                    let before = client.clone();
                    let (delta, tag) =
                        primal_dual_step(&mut client, &theta, rho, local_init, |init, dual| {
                            let expected_init = match local_init {
                                LocalInit::LocalModel => &before.local_model,
                                LocalInit::GlobalModel => &theta,
                            };
                            assert_same_bits(init, expected_init.as_slice(), "init");
                            assert_same_bits(dual, before.dual.as_slice(), "dual during the solve");
                            Ok((w_new.clone(), 17usize))
                        })
                        .unwrap();
                    let what = format!("ρ {rho}, d {len}, {local_init:?}");
                    assert_eq!(tag, 17);
                    assert_same_bits(
                        client.dual.as_slice(),
                        naive.dual.as_slice(),
                        &format!("y ({what})"),
                    );
                    assert_same_bits(
                        delta.as_slice(),
                        naive_delta.as_slice(),
                        &format!("Δ ({what})"),
                    );
                    assert_same_bits(
                        client.local_model.as_slice(),
                        &w_new,
                        &format!("w ({what})"),
                    );
                    assert_eq!(client.times_selected, before.times_selected + 1);
                }
            }
        }
    }

    #[test]
    fn client_state_stays_in_its_own_allocation() {
        // A job writes w_i and y_i where they lie, with the bits of line 20
        // and eq. (4) written out per element, and uploads Δ in the solver's
        // buffer: neither client buffer changes hands.
        let fixture = Fixture::new(1, 20, 12);
        let theta = ParamVector::from_vec(vec![0.01; fixture.dim()]);
        let rho = 0.3f32;
        let inv_rho = 1.0 / rho;
        let gradient_descent = LocalSolver::GradientDescent {
            steps: 2,
            learning_rate: 0.1,
        };
        for solver in [LocalSolver::Sgd, gradient_descent] {
            for local_init in [LocalInit::LocalModel, LocalInit::GlobalModel] {
                let alg = FedAdmm::new(rho, ServerStepSize::Constant(1.0))
                    .with_solver(solver)
                    .with_local_init(local_init);
                let mut client = fixture.clients(&theta).remove(0);
                for round in 0..2 {
                    let what = format!("{solver:?}, {local_init:?}, round {round}");
                    let before = client.clone();
                    let w_at = client.local_model.as_slice().as_ptr();
                    let y_at = client.dual.as_slice().as_ptr();
                    let msg = alg
                        .client_update(&mut client, &theta, &fixture.env(0, 1, 3 + round))
                        .unwrap();
                    assert_eq!(client.local_model.as_slice().as_ptr(), w_at, "w_i ({what})");
                    assert_eq!(client.dual.as_slice().as_ptr(), y_at, "y_i ({what})");
                    let delta = msg.payload[0].as_slice();
                    assert!(
                        delta.as_ptr() != w_at && delta.as_ptr() != y_at,
                        "Δ ({what})"
                    );

                    let (mut y_next, mut delta_next) = (Vec::new(), Vec::new());
                    for (k, &w) in client.local_model.as_slice().iter().enumerate() {
                        let (w_old, y) =
                            (before.local_model.as_slice()[k], before.dual.as_slice()[k]);
                        let y_new = (y + rho * w) + (-rho) * theta.as_slice()[k];
                        y_next.push(y_new);
                        delta_next.push((w + inv_rho * y_new) - (w_old + inv_rho * y));
                    }
                    assert_same_bits(client.dual.as_slice(), &y_next, &format!("y ({what})"));
                    assert_same_bits(delta, &delta_next, &format!("Δ ({what})"));
                    assert_ne!(before.local_model, client.local_model, "{what}");
                }
            }
        }
    }

    /// `(w_i, y_i, times_selected)` by bit pattern.
    fn state_bits(client: &ClientState) -> (Vec<u32>, Vec<u32>, usize) {
        let bits = |v: &ParamVector| v.as_slice().iter().map(|x| x.to_bits()).collect();
        (
            bits(&client.local_model),
            bits(&client.dual),
            client.times_selected,
        )
    }

    #[test]
    fn length_mismatch_is_an_error_that_names_the_lengths_and_touches_nothing() {
        let fixture = Fixture::new(1, 20, 13);
        let d = fixture.dim();
        let theta = ParamVector::zeros(d);
        let env = fixture.env(0, 1, 3);
        for solver in [LocalSolver::Sgd, to_tolerance(1e-2, 0.2)] {
            let alg = FedAdmm::new(0.3, ServerStepSize::Constant(1.0)).with_solver(solver);
            let mut client = fixture.clients(&theta).remove(0);
            alg.client_update(&mut client, &theta, &env).unwrap();

            // θ one coordinate short.
            let before = state_bits(&client);
            let short_theta = ParamVector::zeros(d - 1);
            let err = alg
                .client_update(&mut client, &short_theta, &env)
                .unwrap_err();
            let text = err.to_string();
            assert!(
                matches!(err, TensorError::InvalidArgument(_))
                    && text.contains(&format!("w_i has {d}"))
                    && text.contains(&format!("y_i {d}"))
                    && text.contains(&format!("θ {}", d - 1)),
                "{solver:?}: {text}"
            );
            assert_eq!(state_bits(&client), before, "{solver:?}");

            // y_i one coordinate long.
            let mut long_dual = client.dual.as_slice().to_vec();
            long_dual.push(0.5);
            client.dual = ParamVector::from_vec(long_dual);
            let before = state_bits(&client);
            let err = alg.client_update(&mut client, &theta, &env).unwrap_err();
            assert!(
                err.to_string().contains(&format!("y_i {}", d + 1)),
                "{solver:?}: {err}"
            );
            assert_eq!(state_bits(&client), before, "{solver:?}");
        }
    }

    #[test]
    fn failed_local_training_leaves_the_client_state_untouched() {
        // A label the model has no class for makes the loss — hence local
        // training, under every solver and under SCAFFOLD — fail on its
        // first batch. The state keeps its bits and its allocations.
        let fixture = Fixture::new(1, 20, 14);
        let (features, mut labels) = fixture.train.gather_all().unwrap();
        labels[5] = 11;
        let poisoned = fedadmm_data::Dataset::new(features.into_vec(), labels, 784, 12).unwrap();
        let theta = ParamVector::from_vec(vec![0.01; fixture.dim()]);
        let every_solver = [
            LocalSolver::Sgd,
            LocalSolver::GradientDescent {
                steps: 3,
                learning_rate: 0.1,
            },
            to_tolerance(1e-2, 0.2),
            LocalSolver::Lbfgs {
                memory: 3,
                max_iters: 5,
                epsilon: 1e-3,
            },
        ];
        let mut algorithms: Vec<(String, Box<dyn Algorithm>)> = every_solver
            .into_iter()
            .map(|solver| {
                let alg = FedAdmm::new(0.3, ServerStepSize::Constant(1.0)).with_solver(solver);
                (format!("{solver:?}"), Box::new(alg) as Box<dyn Algorithm>)
            })
            .collect();
        algorithms.push(("SCAFFOLD".into(), Box::new(super::super::Scaffold::new())));
        for (what, mut alg) in algorithms {
            alg.init(fixture.dim(), 1);
            let mut client = fixture.clients(&theta).remove(0);
            alg.client_update(&mut client, &theta, &fixture.env(0, 1, 3))
                .unwrap();
            let before = state_bits(&client);
            let at = |c: &ClientState| {
                (
                    c.local_model.as_slice().as_ptr(),
                    c.dual.as_slice().as_ptr(),
                )
            };
            let buffers = at(&client);
            let env = LocalEnv {
                dataset: &poisoned,
                ..fixture.env(0, 2, 4)
            };
            let err = alg.client_update(&mut client, &theta, &env).unwrap_err();
            assert!(
                err.to_string().contains("label 11 out of range"),
                "{what}: {err}"
            );
            assert_eq!(state_bits(&client), before, "{what}");
            assert_eq!(at(&client), buffers, "{what}");
        }
    }

    #[test]
    fn setters_adjust_hyperparameters() {
        let mut alg = FedAdmm::paper_default();
        alg.set_rho(0.1);
        assert_eq!(alg.rho, 0.1);
        alg.set_server_step(ServerStepSize::Constant(0.5));
        assert_eq!(alg.server_step, ServerStepSize::Constant(0.5));
    }

    #[test]
    fn warm_start_and_global_init_differ_after_first_round() {
        // After one round the stored local model differs from θ, so the two
        // initialisation strategies produce different second-round results.
        let fixture = Fixture::new(1, 40, 8);
        let theta = ParamVector::zeros(fixture.dim());
        let env = fixture.env(0, 2, 17);

        let warm = FedAdmm::new(0.01, ServerStepSize::Constant(1.0));
        let cold = warm.with_local_init(LocalInit::GlobalModel);

        let mut c_warm = fixture.clients(&theta);
        let mut c_cold = fixture.clients(&theta);
        // Round 1 (identical: both start from w = θ = 0).
        warm.client_update(&mut c_warm[0], &theta, &env).unwrap();
        cold.client_update(&mut c_cold[0], &theta, &env).unwrap();
        // Round 2 from a shifted global model.
        let theta2 = ParamVector::from_vec(vec![0.05; fixture.dim()]);
        let env2 = fixture.env(0, 2, 18);
        warm.client_update(&mut c_warm[0], &theta2, &env2).unwrap();
        cold.client_update(&mut c_cold[0], &theta2, &env2).unwrap();
        assert!(c_warm[0].local_model.dist(&c_cold[0].local_model) > 1e-6);
    }

    /// Runs one client update of `alg` and checks the dual update of line 20
    /// and the update message of equation (4).
    fn assert_algorithm_1(alg: &FedAdmm) {
        let fixture = Fixture::new(1, 40, 21);
        let theta = ParamVector::zeros(fixture.dim());
        let mut clients = fixture.clients(&theta);
        let rho = alg.rho;
        let env = fixture.env(0, 1, 5);
        let u_before = clients[0].augmented_model(rho);
        let old_dual = clients[0].dual.clone();
        let msg = alg.client_update(&mut clients[0], &theta, &env).unwrap();

        // Dual update of line 20.
        let mut expected_dual = old_dual;
        expected_dual.axpy(rho, &clients[0].local_model);
        expected_dual.axpy(-rho, &theta);
        assert!(expected_dual.dist(&clients[0].dual) < 1e-5);

        // Update message of equation (4).
        let expected_delta = clients[0].augmented_model(rho).sub(&u_before);
        assert!(msg.payload[0].dist(&expected_delta) < 1e-5);
        assert_eq!(msg.upload_floats(), fixture.dim());
    }

    #[test]
    fn dual_update_and_message_match_algorithm_1() {
        let alg = FedAdmm::new(0.5, ServerStepSize::Constant(1.0));
        assert_algorithm_1(&alg.with_solver(to_tolerance(1e-2, 0.2)));
    }

    #[test]
    fn inexact_solve_actually_meets_the_requested_tolerance() {
        let fixture = Fixture::new(1, 60, 22);
        let theta = ParamVector::zeros(fixture.dim());
        let mut clients = fixture.clients(&theta);
        let rho = 5.0f32;
        let epsilon = 1e-2f32;
        let alg = FedAdmm::new(rho, ServerStepSize::Constant(1.0))
            .with_solver(to_tolerance(epsilon, 0.5));
        let env = fixture.env(0, 1, 6);
        alg.client_update(&mut clients[0], &theta, &env).unwrap();
        // Recompute ‖∇L_i(w^{t+1}, y^t, θ^t)‖² with the *old* dual (zero
        // here since the client was fresh) and verify criterion (6).
        let zero_dual = vec![0.0f32; fixture.dim()];
        let mut scratch = UpdateScratch::default();
        let mut objective =
            AugmentedObjective::new(&env, theta.as_slice(), Some(&zero_dual), rho, &mut scratch);
        let mut grad = vec![0.0f32; fixture.dim()];
        objective
            .value_and_grad(clients[0].local_model.as_slice(), &mut grad)
            .unwrap();
        let gns = fedadmm_tensor::vecops::norm_sq(&grad);
        assert!(
            gns <= epsilon * 1.01,
            "criterion (6) violated: {gns} > {epsilon}"
        );
    }

    #[test]
    fn lbfgs_solver_variant_runs_and_uploads_one_vector() {
        let fixture = Fixture::new(2, 30, 23);
        let theta = ParamVector::zeros(fixture.dim());
        let mut clients = fixture.clients(&theta);
        let alg =
            FedAdmm::new(0.5, ServerStepSize::Constant(1.0)).with_solver(LocalSolver::Lbfgs {
                memory: 5,
                max_iters: 30,
                epsilon: 1e-3,
            });
        let env = fixture.env(0, 1, 7);
        let msg = alg.client_update(&mut clients[0], &theta, &env).unwrap();
        assert_eq!(msg.payload.len(), 1);
        assert!(msg.epochs_run >= 1);
        assert_eq!(
            msg.samples_processed,
            msg.epochs_run * clients[0].num_samples()
        );
        assert_eq!(alg.name(), "FedADMM");
    }

    #[test]
    fn global_init_and_warm_start_are_both_supported() {
        let alg = FedAdmm::new(0.5, ServerStepSize::Constant(1.0))
            .with_solver(to_tolerance(1e-2, 0.2))
            .with_local_init(LocalInit::GlobalModel);
        assert_eq!(alg.local_init, LocalInit::GlobalModel);
        assert_algorithm_1(&alg);
        assert_algorithm_1(&alg.with_local_init(LocalInit::LocalModel));
    }
}
