//! FedADMM — Algorithm 1 of the paper.
//!
//! Each client `i` keeps a primal–dual pair `(w_i, y_i)`. When selected at
//! round `t` it:
//!
//! 1. downloads θ^t,
//! 2. approximately minimises the local augmented Lagrangian
//!    `L_i(w, y_i^t, θ^t) = f_i(w) + (y_i^t)ᵀ(w − θ^t) + (ρ/2)‖w − θ^t‖²`
//!    by running `E_i` epochs of SGD **warm-started from its stored local
//!    model `w_i^t`** (the paper's Figure 8 shows that warm start is
//!    decisively better than re-starting from θ^t; both options are exposed
//!    through [`LocalInit`]),
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
use crate::trainer::{local_sgd_cached, LocalEnv};
use fedadmm_tensor::{vecops, TensorResult};
use serde::{Deserialize, Serialize};

/// The server gathering step size η of equation (5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
}

impl FedAdmm {
    /// Creates FedADMM with the given ρ and server step size, using the
    /// paper's default warm-start initialisation.
    pub fn new(rho: f32, server_step: ServerStepSize) -> Self {
        assert!(
            rho > 0.0,
            "FedADMM requires a positive proximal coefficient ρ"
        );
        FedAdmm {
            rho,
            server_step,
            local_init: LocalInit::LocalModel,
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

impl Algorithm for FedAdmm {
    fn name(&self) -> &'static str {
        "FedADMM"
    }

    /// Algorithm 1, lines 14–20 and equation (4). The augmented model and
    /// the dual snapshot live in the worker's reusable scratch, the
    /// local-training network is cached across jobs, the dual update runs
    /// in place, and the uploaded Δ is fused into a single pass — the only
    /// per-job allocations are the new local model and the payload. The
    /// kind and order of every elementary f32 operation is pinned by the
    /// engine-parity golden digest.
    fn client_update_scratch(
        &self,
        client: &mut ClientState,
        global: &ParamVector,
        env: &LocalEnv<'_>,
        scratch: &mut UpdateScratch,
    ) -> TensorResult<ClientMessage> {
        let rho = self.rho;
        let theta = global.as_slice();
        let UpdateScratch {
            param: old_augmented,
            dual: dual_snapshot,
            net,
            train,
        } = scratch;

        // u_i^t = w_i^t + y_i^t / ρ, built in the reusable param buffer
        // (same copy-then-axpy as `ClientState::augmented_model`).
        old_augmented.clear();
        old_augmented.extend_from_slice(client.local_model.as_slice());
        vecops::axpy(1.0 / rho, client.dual.as_slice(), old_augmented);

        // Local training on the augmented Lagrangian (Alg. 1 lines 14–19):
        //   ∇_w L_i(w) = ∇f_i(w, b) + y_i + ρ(w − θ).
        let init: &[f32] = match self.local_init {
            LocalInit::LocalModel => client.local_model.as_slice(),
            LocalInit::GlobalModel => theta,
        };
        dual_snapshot.clear();
        dual_snapshot.extend_from_slice(client.dual.as_slice());
        let dual: &[f32] = dual_snapshot;
        let result = local_sgd_cached(env, init, net, train, |w, g| {
            for (((gi, &wi), &ti), &yi) in g
                .iter_mut()
                .zip(w.iter())
                .zip(theta.iter())
                .zip(dual.iter())
            {
                *gi += yi + rho * (wi - ti);
            }
        })?;

        // Dual update in place (Alg. 1 line 20): y_i ← y_i + ρ(w_i^{t+1} − θ^t).
        let new_local = ParamVector::from_vec(result.params);
        client.dual.axpy(rho, &new_local);
        client.dual.axpy(-rho, global);

        client.local_model = new_local;
        client.times_selected += 1;

        // Update message (eq. 4): Δ_i = u_i^{t+1} − u_i^t, with u^{t+1}
        // formed on the fly: each element is w + (1/ρ)·y − old, the same
        // mul/add/sub sequence as `augmented_model` followed by `sub`.
        let inv_rho = 1.0 / rho;
        let delta: Vec<f32> = client
            .local_model
            .as_slice()
            .iter()
            .zip(client.dual.as_slice())
            .zip(old_augmented.iter())
            .map(|((&w, &y), &old)| (w + inv_rho * y) - old)
            .collect();
        Ok(ClientMessage {
            client_id: client.id,
            num_samples: client.num_samples(),
            payload: vec![ParamVector::from_vec(delta)],
            epochs_run: env.epochs,
            samples_processed: result.samples_processed,
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
        let mut alg = FedAdmm::new(0.01, ServerStepSize::Constant(1.0));
        let mut rng = SmallRng::seed_from_u64(0);
        let mut global = ParamVector::from_vec(vec![1.0, 1.0]);
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
        alg.server_update(&mut global, &messages, 100, &mut rng);
        // θ ← θ + (1/2)ΣΔ = [1,1] + [1,-1] = [2,0]
        assert_eq!(global.as_slice(), &[2.0, 0.0]);

        // With η = |S|/m the update is scaled down by S/m.
        let mut alg2 = FedAdmm::new(0.01, ServerStepSize::ParticipationRatio);
        let mut global2 = ParamVector::from_vec(vec![1.0, 1.0]);
        alg2.server_update(&mut global2, &messages, 100, &mut rng);
        assert!((global2.as_slice()[0] - 1.02).abs() < 1e-6);
        assert!((global2.as_slice()[1] - 0.98).abs() < 1e-6);
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
}
