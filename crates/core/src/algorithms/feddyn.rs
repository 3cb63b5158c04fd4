//! FedDyn (Acar et al., ICLR 2021) — dynamic regularization.
//!
//! FedDyn is the closest published relative of FedADMM outside the ADMM
//! lineage: each client augments its loss with a *linear* correction term
//! `−⟨h_i, w⟩` plus the same quadratic proximal term `(α/2)‖w − θ‖²`, and
//! updates the correction as `h_i ← h_i − α(w_i − θ)` after local training.
//! Up to the sign convention, `h_i` plays the role of FedADMM's dual
//! variable `y_i` (indeed `h_i = −y_i` when `α = ρ`); the difference is in
//! the *server* update:
//!
//! * FedADMM tracks augmented-model differences (equation 5 of the paper);
//! * FedDyn keeps a server state `h = (α/m)·Σ_i h_i`-style running average
//!   of the corrections and sets `θ ← w̄ + (1/α)·h_server`, where `w̄` is the
//!   average of the received client models.
//!
//! Implementing FedDyn alongside FedADMM lets an experiment ask whether the
//! paper's gains come from the dual mechanism itself or from its particular
//! (tracking) server rule. Communication cost per round is
//! identical to FedAvg/Prox/ADMM: one `d`-vector per selected client.
//!
//! The client correction state is stored in [`ClientState::dual`] (it has
//! exactly the dual-variable role); FedDyn must therefore not share client
//! state with FedADMM within one simulation, which the [`crate::simulation`]
//! engine never does.

use super::{total_upload, Algorithm, ClientMessage, ServerOutcome, UpdateScratch};
use crate::client::ClientState;
use crate::param::ParamVector;
use crate::trainer::{local_sgd_with_step, LocalEnv};
use fedadmm_tensor::TensorResult;

/// The FedDyn algorithm.
#[derive(Debug, Clone)]
pub struct FedDyn {
    /// Regularization coefficient α (the analogue of FedADMM's ρ).
    pub alpha: f32,
    /// Server running correction `h` (dimension `d`, zero-initialised).
    server_h: ParamVector,
    /// Client population size `m`, fixed at [`Algorithm::init`].
    num_clients: usize,
}

impl FedDyn {
    /// Creates FedDyn with regularization coefficient `alpha`.
    ///
    /// # Panics
    /// Panics if `alpha <= 0`.
    pub fn new(alpha: f32) -> Self {
        assert!(
            alpha > 0.0,
            "FedDyn requires a positive regularization coefficient α"
        );
        FedDyn {
            alpha,
            server_h: ParamVector::zeros(0),
            num_clients: 0,
        }
    }

    /// The server correction state `h` (for tests and diagnostics).
    pub fn server_correction(&self) -> &ParamVector {
        &self.server_h
    }
}

impl Algorithm for FedDyn {
    fn name(&self) -> &'static str {
        "FedDyn"
    }

    fn init(&mut self, dim: usize, num_clients: usize) {
        self.server_h = ParamVector::zeros(dim);
        self.num_clients = num_clients.max(1);
    }

    fn client_update_scratch(
        &self,
        client: &mut ClientState,
        global: &ParamVector,
        env: &LocalEnv<'_>,
        scratch: &mut UpdateScratch,
    ) -> TensorResult<ClientMessage> {
        let alpha = self.alpha;
        let theta = global.as_slice();
        // h_i is stored in the dual slot; the FedDyn gradient correction is
        //   ∇R_i(w) = ∇f_i(w, b) − h_i + α(w − θ).
        let h = client.dual.as_slice();
        let UpdateScratch { net, train } = scratch;
        let result = local_sgd_with_step(env, theta, net, train, |neg_lr, w, g| {
            for (((wi, &gi), &ti), &hi) in w.iter_mut().zip(&*g).zip(theta).zip(h) {
                *wi += neg_lr * (gi + (alpha * (*wi - ti) - hi));
            }
        })?;
        let new_local = result.params;
        assert!(
            client.dual.len() == new_local.len() && client.local_model.len() == new_local.len(),
            "FedDyn on client {}: h_i and w_i must have the model's {} coordinates",
            client.id,
            new_local.len()
        );

        // One pass: the correction update h_i ← (h_i − α·w_i^{t+1}) + α·θ^t
        // in place, and w_i^{t+1} copied into the client's local model.
        let slots = client.dual.as_mut_slice().iter_mut();
        let local = client.local_model.as_mut_slice().iter_mut();
        for (((hi, slot), &w), &t) in slots.zip(local).zip(&new_local).zip(theta) {
            *hi = (*hi + (-alpha) * w) + alpha * t;
            *slot = w;
        }
        client.times_selected += 1;

        Ok(ClientMessage {
            client_id: client.id,
            num_samples: client.num_samples(),
            payload: vec![ParamVector::from_vec(new_local)],
            epochs_run: env.epochs,
            samples_processed: result.samples_processed,
            wire: None,
        })
    }

    fn server_update(
        &mut self,
        global: &mut ParamVector,
        messages: &[ClientMessage],
        num_clients: usize,
        _rng: &mut dyn rand::RngCore,
    ) -> ServerOutcome {
        if messages.is_empty() {
            return ServerOutcome { upload_floats: 0 };
        }
        let m = if self.num_clients > 0 {
            self.num_clients
        } else {
            num_clients.max(1)
        };
        if self.server_h.len() != global.len() {
            self.server_h = ParamVector::zeros(global.len());
        }
        // Average of the received client models.
        let mut w_bar = ParamVector::zeros(global.len());
        let w = 1.0 / messages.len() as f32;
        for msg in messages {
            w_bar.axpy(w, &msg.payload[0]);
        }
        // Server correction: h ← h − (α/m) Σ_{i∈S_t} (w_i − θ).
        let scale = self.alpha / m as f32;
        for msg in messages {
            self.server_h.axpy(-scale, &msg.payload[0]);
            self.server_h.axpy(scale, global);
        }
        // θ ← w̄ − (1/α) h.
        global.copy_from(&w_bar);
        global.axpy(-1.0 / self.alpha, &self.server_h);
        ServerOutcome {
            upload_floats: total_upload(messages),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::Fixture;
    use super::super::FedAvg;
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn message(id: usize, values: Vec<f32>) -> ClientMessage {
        ClientMessage {
            client_id: id,
            num_samples: 1,
            payload: vec![ParamVector::from_vec(values)],
            epochs_run: 1,
            samples_processed: 1,
            wire: None,
        }
    }

    #[test]
    #[should_panic(expected = "positive regularization coefficient")]
    fn non_positive_alpha_is_rejected() {
        FedDyn::new(0.0);
    }

    #[test]
    fn metadata() {
        let alg = FedDyn::new(0.1);
        assert_eq!(alg.name(), "FedDyn");
        assert!(alg.supports_variable_work());
        assert!(!alg.requires_full_participation());
    }

    #[test]
    fn correction_update_follows_the_feddyn_rule() {
        // After a client update, h_i^{t+1} must equal h_i^t − α(w_i^{t+1} − θ).
        let fixture = Fixture::new(1, 40, 31);
        let theta = ParamVector::zeros(fixture.dim());
        let mut clients = fixture.clients(&theta);
        let alg = FedDyn::new(0.4);
        let env = fixture.env(0, 2, 7);
        let old_h = clients[0].dual.clone();
        alg.client_update(&mut clients[0], &theta, &env).unwrap();
        let mut expected = old_h;
        expected.axpy(-0.4, &clients[0].local_model);
        expected.axpy(0.4, &theta);
        assert!(expected.dist(&clients[0].dual) < 1e-5);
    }

    #[test]
    fn correction_is_negative_fedadmm_dual_for_matching_coefficients() {
        // With α = ρ, zero initial state and the same seed, FedDyn's h_i is
        // exactly −y_i of FedADMM after one round (both solve the same local
        // problem on the first round because h_i = y_i = 0 then).
        let fixture = Fixture::new(1, 40, 32);
        let theta = ParamVector::zeros(fixture.dim());
        let rho = 0.3;
        let env = fixture.env(0, 2, 9);

        let dyn_alg = FedDyn::new(rho);
        let mut c_dyn = fixture.clients(&theta);
        dyn_alg.client_update(&mut c_dyn[0], &theta, &env).unwrap();

        let admm = super::super::FedAdmm::new(rho, super::super::ServerStepSize::Constant(1.0))
            .with_local_init(super::super::LocalInit::GlobalModel);
        let mut c_admm = fixture.clients(&theta);
        admm.client_update(&mut c_admm[0], &theta, &env).unwrap();

        assert!(c_dyn[0].local_model.dist(&c_admm[0].local_model) < 1e-5);
        let mut negated = c_admm[0].dual.clone();
        negated.scale(-1.0);
        assert!(c_dyn[0].dual.dist(&negated) < 1e-5);
    }

    #[test]
    fn server_update_with_zero_corrections_matches_fedavg() {
        // On the first round the server correction h is still zero after the
        // update only if the received models equal θ; in general the FedDyn
        // server equals FedAvg's model average *minus* (1/α)·h. Verify the
        // closed form on a tiny example.
        let mut alg = FedDyn::new(0.5);
        alg.init(2, 4);
        let mut rng = SmallRng::seed_from_u64(0);
        let theta0 = ParamVector::from_vec(vec![0.0, 0.0]);
        let mut theta = theta0.clone();
        let msgs = vec![message(0, vec![1.0, 0.0]), message(1, vec![0.0, 1.0])];

        let mut avg = FedAvg::new();
        let mut theta_avg = theta0.clone();
        avg.server_update(&mut theta_avg, &msgs, 4, &mut rng);

        alg.server_update(&mut theta, &msgs, 4, &mut rng);
        // h = -(α/m)·Σ(w_i − θ0) = -(0.5/4)·[1,1] = [-0.125,-0.125]
        // θ = w̄ − h/α = [0.5,0.5] + [0.25,0.25] = [0.75,0.75]
        assert!((theta.as_slice()[0] - 0.75).abs() < 1e-6);
        assert!((theta.as_slice()[1] - 0.75).abs() < 1e-6);
        // FedAvg would give [0.5, 0.5]; the correction pushes further.
        assert!(theta.as_slice()[0] > theta_avg.as_slice()[0]);
        assert_eq!(alg.server_correction().as_slice(), &[-0.125, -0.125]);
    }

    #[test]
    fn empty_round_is_a_noop() {
        let mut alg = FedDyn::new(0.1);
        alg.init(3, 5);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut theta = ParamVector::from_vec(vec![1.0, 2.0, 3.0]);
        let outcome = alg.server_update(&mut theta, &[], 5, &mut rng);
        assert_eq!(outcome.upload_floats, 0);
        assert_eq!(theta.as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn small_run_improves_over_initialization() {
        let fixture = Fixture::new(2, 60, 33);
        let mut theta = ParamVector::zeros(fixture.dim());
        let mut alg = FedDyn::new(0.3);
        alg.init(fixture.dim(), 2);
        let mut clients = fixture.clients(&theta);
        let mut rng = SmallRng::seed_from_u64(5);
        let before =
            crate::trainer::evaluate(fixture.model, theta.as_slice(), &fixture.train, usize::MAX)
                .unwrap();
        for round in 0..4 {
            let mut messages = Vec::new();
            for (c, client) in clients.iter_mut().enumerate().take(2) {
                let env = fixture.env(c, 2, 200 + round);
                messages.push(alg.client_update(client, &theta, &env).unwrap());
            }
            alg.server_update(&mut theta, &messages, 2, &mut rng);
        }
        let after =
            crate::trainer::evaluate(fixture.model, theta.as_slice(), &fixture.train, usize::MAX)
                .unwrap();
        assert!(after.1 > before.1, "accuracy {} !> {}", after.1, before.1);
    }
}
