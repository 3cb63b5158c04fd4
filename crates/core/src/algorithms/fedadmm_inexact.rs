//! FedADMM with the paper's general inexactness criterion and pluggable
//! local solvers.
//!
//! Algorithm 1 instantiates the local update as `E_i` epochs of SGD, but
//! the analysis (Theorem 1) only requires criterion (6):
//! `‖∇_w L_i(w_i^{t+1}, y_i^t, θ^t)‖² ≤ ε_i`. [`FedAdmmInexact`] implements
//! the general form: each client runs a [`LocalSolver`] (full-batch gradient
//! descent, gradient descent to a prescribed tolerance, or L-BFGS — the
//! quasi-Newton option the paper explicitly mentions) on the augmented
//! Lagrangian, then performs the same dual update and uploads the same
//! augmented-model difference as [`super::FedAdmm`].
//!
//! This is also how the paper's *system heterogeneity* story generalises
//! beyond "variable epoch counts": a slow device can use a loose `ε_i`
//! (cheap, few gradient evaluations) while a fast device solves its
//! subproblem accurately, and the convergence guarantee degrades gracefully
//! with `ε_max = max_i ε_i` (Theorem 1, equation 8).

use super::fedadmm::primal_dual_step;
use super::{Algorithm, ClientMessage, FoldPlan, LocalInit, ServerStepSize, UpdateScratch};
use crate::client::ClientState;
use crate::param::ParamVector;
use crate::solver::{AugmentedObjective, LocalSolver};
use crate::trainer::LocalEnv;
use fedadmm_tensor::TensorResult;

/// FedADMM with inexact local solves (criterion 6) and pluggable solvers.
#[derive(Debug, Clone, Copy)]
pub struct FedAdmmInexact {
    /// Proximal coefficient ρ of the augmented Lagrangian.
    pub rho: f32,
    /// Server gathering step size η (equation 5).
    pub server_step: ServerStepSize,
    /// Local-training initialisation (warm start from `w_i` by default).
    pub local_init: LocalInit,
    /// The local solver every client runs on its subproblem.
    pub solver: LocalSolver,
}

impl FedAdmmInexact {
    /// Creates the algorithm with the given ρ, server step size, and solver.
    pub fn new(rho: f32, server_step: ServerStepSize, solver: LocalSolver) -> Self {
        assert!(
            rho > 0.0,
            "FedADMM requires a positive proximal coefficient ρ"
        );
        FedAdmmInexact {
            rho,
            server_step,
            local_init: LocalInit::LocalModel,
            solver,
        }
    }

    /// A convenient default: backtracking gradient descent until
    /// `‖∇L_i‖² ≤ ε` (capped at 2,000 gradient evaluations).
    pub fn to_tolerance(rho: f32, epsilon: f32, learning_rate: f32) -> Self {
        FedAdmmInexact::new(
            rho,
            ServerStepSize::Constant(1.0),
            LocalSolver::ToTolerance {
                epsilon,
                learning_rate,
                max_steps: 2000,
            },
        )
    }

    /// Sets the local initialisation strategy (Figure 8 ablation).
    pub fn with_local_init(mut self, init: LocalInit) -> Self {
        self.local_init = init;
        self
    }
}

impl Algorithm for FedAdmmInexact {
    fn name(&self) -> &'static str {
        "FedADMM-inexact"
    }

    fn client_update_scratch(
        &self,
        client: &mut ClientState,
        global: &ParamVector,
        env: &LocalEnv<'_>,
        _scratch: &mut UpdateScratch,
    ) -> TensorResult<ClientMessage> {
        let rho = self.rho;
        let (delta, gradient_evals) =
            primal_dual_step(client, global, rho, self.local_init, |init, dual| {
                let objective = AugmentedObjective::new(env, global.as_slice(), Some(dual), rho);
                let result = self.solver.solve(&objective, init)?;
                Ok((result.params, result.gradient_evals))
            })?;
        Ok(ClientMessage {
            client_id: client.id,
            num_samples: client.num_samples(),
            payload: vec![delta],
            // One full-gradient evaluation touches the whole local dataset
            // once, i.e. it costs the same as one epoch.
            epochs_run: gradient_evals,
            samples_processed: gradient_evals * client.num_samples(),
            wire: None,
        })
    }

    fn fold_plan(&self, messages: &[ClientMessage], num_clients: usize) -> Option<FoldPlan> {
        if messages.is_empty() {
            return None;
        }
        // Same eq.-5 tracking update as exact FedADMM: (η / |S_t|) on every Δ_i.
        let eta = self.server_step.resolve(messages.len(), num_clients);
        let scale = eta / messages.len() as f32;
        Some(FoldPlan::Accumulate(vec![scale; messages.len()]))
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::Fixture;
    use super::*;

    #[test]
    fn dual_update_and_message_match_algorithm_1() {
        let fixture = Fixture::new(1, 40, 21);
        let theta = ParamVector::zeros(fixture.dim());
        let mut clients = fixture.clients(&theta);
        let rho = 0.5f32;
        let alg = FedAdmmInexact::to_tolerance(rho, 1e-2, 0.2);
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
    fn inexact_solve_actually_meets_the_requested_tolerance() {
        let fixture = Fixture::new(1, 60, 22);
        let theta = ParamVector::zeros(fixture.dim());
        let mut clients = fixture.clients(&theta);
        let rho = 5.0f32;
        let epsilon = 1e-2f32;
        let alg = FedAdmmInexact::to_tolerance(rho, epsilon, 0.5);
        let env = fixture.env(0, 1, 6);
        alg.client_update(&mut clients[0], &theta, &env).unwrap();
        // Recompute ‖∇L_i(w^{t+1}, y^t, θ^t)‖² with the *old* dual (zero
        // here since the client was fresh) and verify criterion (6).
        let zero_dual = vec![0.0f32; fixture.dim()];
        let objective =
            crate::solver::AugmentedObjective::new(&env, theta.as_slice(), Some(&zero_dual), rho);
        let gns = objective
            .grad_norm_sq(clients[0].local_model.as_slice())
            .unwrap();
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
        let alg = FedAdmmInexact::new(
            0.5,
            ServerStepSize::Constant(1.0),
            LocalSolver::Lbfgs {
                memory: 5,
                max_iters: 30,
                epsilon: 1e-3,
            },
        );
        let env = fixture.env(0, 1, 7);
        let msg = alg.client_update(&mut clients[0], &theta, &env).unwrap();
        assert_eq!(msg.payload.len(), 1);
        assert!(msg.epochs_run >= 1);
        assert_eq!(alg.name(), "FedADMM-inexact");
    }

    #[test]
    fn server_update_matches_tracking_rule() {
        let mut alg = FedAdmmInexact::to_tolerance(0.1, 1e-2, 0.1);
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
    fn global_init_and_warm_start_are_both_supported() {
        let fixture = Fixture::new(1, 30, 24);
        let theta = ParamVector::zeros(fixture.dim());
        let alg =
            FedAdmmInexact::to_tolerance(0.5, 1e-2, 0.2).with_local_init(LocalInit::GlobalModel);
        assert_eq!(alg.local_init, LocalInit::GlobalModel);
        let mut clients = fixture.clients(&theta);
        let env = fixture.env(0, 1, 8);
        alg.client_update(&mut clients[0], &theta, &env).unwrap();
    }

    #[test]
    #[should_panic(expected = "positive proximal coefficient")]
    fn zero_rho_is_rejected() {
        FedAdmmInexact::new(
            0.0,
            ServerStepSize::Constant(1.0),
            LocalSolver::GradientDescent {
                steps: 1,
                learning_rate: 0.1,
            },
        );
    }
}
