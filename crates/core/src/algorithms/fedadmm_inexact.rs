//! Tests of FedADMM run with an inexact local solver: [`FedAdmm`] with
//! `with_solver` set to one of the criterion-(6) solvers on
//! [`AugmentedObjective`] in place of Algorithm 1's `E_i` SGD epochs. The
//! SGD path is tested in `fedadmm.rs`.
//!
//! [`FedAdmm`]: super::FedAdmm
//! [`AugmentedObjective`]: crate::solver::AugmentedObjective

#[cfg(test)]
mod tests {
    use super::super::testutil::Fixture;
    use super::super::{Algorithm, ClientMessage, FedAdmm, LocalInit, ServerStepSize};
    use crate::param::ParamVector;
    use crate::solver::{AugmentedObjective, LocalSolver};

    /// Backtracking gradient descent until `‖∇L_i‖² ≤ ε`, capped at 2 000
    /// gradient evaluations.
    fn to_tolerance(rho: f32, epsilon: f32, learning_rate: f32) -> FedAdmm {
        FedAdmm::new(rho, ServerStepSize::Constant(1.0)).with_solver(LocalSolver::ToTolerance {
            epsilon,
            learning_rate,
            max_steps: 2000,
        })
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
        assert_algorithm_1(&to_tolerance(0.5, 1e-2, 0.2));
    }

    #[test]
    fn inexact_solve_actually_meets_the_requested_tolerance() {
        let fixture = Fixture::new(1, 60, 22);
        let theta = ParamVector::zeros(fixture.dim());
        let mut clients = fixture.clients(&theta);
        let rho = 5.0f32;
        let epsilon = 1e-2f32;
        let alg = to_tolerance(rho, epsilon, 0.5);
        let env = fixture.env(0, 1, 6);
        alg.client_update(&mut clients[0], &theta, &env).unwrap();
        // Recompute ‖∇L_i(w^{t+1}, y^t, θ^t)‖² with the *old* dual (zero
        // here since the client was fresh) and verify criterion (6).
        let zero_dual = vec![0.0f32; fixture.dim()];
        let objective = AugmentedObjective::new(&env, theta.as_slice(), Some(&zero_dual), rho);
        let (_, grad) = objective
            .value_and_grad(clients[0].local_model.as_slice())
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
    fn server_update_matches_tracking_rule() {
        let mut alg = to_tolerance(0.1, 1e-2, 0.1);
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
        let alg = to_tolerance(0.5, 1e-2, 0.2).with_local_init(LocalInit::GlobalModel);
        assert_eq!(alg.local_init, LocalInit::GlobalModel);
        assert_algorithm_1(&alg);
        assert_algorithm_1(&alg.with_local_init(LocalInit::LocalModel));
    }

    #[test]
    #[should_panic(expected = "positive proximal coefficient")]
    fn zero_rho_is_rejected() {
        FedAdmm::new(0.0, ServerStepSize::Constant(1.0)).with_solver(
            LocalSolver::GradientDescent {
                steps: 1,
                learning_rate: 0.1,
            },
        );
    }
}
