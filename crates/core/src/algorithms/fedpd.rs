//! FedPD (Zhang et al., IEEE TSP 2021) — the closest prior primal-dual
//! method.
//!
//! FedPD also equips every client with a dual variable and an augmented
//! Lagrangian, but differs from FedADMM in the two ways the paper's Related
//! Work section calls out:
//!
//! 1. **Full participation** — *all* clients update their local models and
//!    dual variables at every round (`requires_full_participation` is true),
//!    which is exactly the property the paper argues is unrealistic at scale;
//! 2. **Probabilistic communication** — with probability `p` the round ends
//!    with every client uploading its augmented model and the server
//!    averaging them; otherwise there is no communication at all, so the
//!    global model update frequency is limited by `p`.
//!
//! It is included as an optional extension (the paper excludes it from the
//! experimental comparison because of the full-participation requirement).

use super::{Algorithm, ClientMessage, ServerOutcome, UpdateScratch};
use crate::client::ClientState;
use crate::param::ParamVector;
use crate::trainer::{local_sgd_cached, LocalEnv};
use fedadmm_tensor::TensorResult;
use rand::Rng;

/// The FedPD algorithm.
#[derive(Debug, Clone, Copy)]
pub struct FedPd {
    /// Proximal coefficient ρ of the augmented Lagrangian.
    pub rho: f32,
    /// Probability that a round ends with server communication.
    pub communication_probability: f64,
}

impl FedPd {
    /// Creates FedPD.
    ///
    /// # Panics
    /// Panics if `rho <= 0` or the probability is outside `(0, 1]`.
    pub fn new(rho: f32, communication_probability: f64) -> Self {
        assert!(
            rho > 0.0,
            "FedPD requires a positive proximal coefficient ρ"
        );
        assert!(
            communication_probability > 0.0 && communication_probability <= 1.0,
            "communication probability must lie in (0, 1]"
        );
        FedPd {
            rho,
            communication_probability,
        }
    }
}

impl Algorithm for FedPd {
    fn name(&self) -> &'static str {
        "FedPD"
    }

    fn requires_full_participation(&self) -> bool {
        true
    }

    fn client_update_scratch(
        &self,
        client: &mut ClientState,
        global: &ParamVector,
        env: &LocalEnv<'_>,
        scratch: &mut UpdateScratch,
    ) -> TensorResult<ClientMessage> {
        let rho = self.rho;
        let theta = global.as_slice();
        let dual = client.dual.as_slice().to_vec();
        // Same local problem as FedADMM: minimise the augmented Lagrangian,
        // warm-started from the stored local model.
        let result = local_sgd_cached(
            env,
            client.local_model.as_slice(),
            &mut scratch.net,
            &mut scratch.train,
            |w, g| {
                for (((gi, &wi), &ti), &yi) in g
                    .iter_mut()
                    .zip(w.iter())
                    .zip(theta.iter())
                    .zip(dual.iter())
                {
                    *gi += yi + rho * (wi - ti);
                }
            },
        )?;
        let new_local = ParamVector::from_vec(result.params);
        let mut new_dual = client.dual.clone();
        new_dual.axpy(rho, &new_local);
        new_dual.axpy(-rho, global);
        client.local_model = new_local;
        client.dual = new_dual;
        client.times_selected += 1;

        // FedPD clients report their augmented model x_i = w_i + y_i/ρ; the
        // server averages these when a communication round fires.
        let augmented = client.augmented_model(rho);
        Ok(ClientMessage {
            client_id: client.id,
            num_samples: client.num_samples(),
            payload: vec![augmented],
            epochs_run: env.epochs,
            samples_processed: result.samples_processed,
            wire: None,
        })
    }

    fn server_update(
        &mut self,
        global: &mut ParamVector,
        messages: &[ClientMessage],
        _num_clients: usize,
        rng: &mut dyn rand::RngCore,
    ) -> ServerOutcome {
        if messages.is_empty() {
            return ServerOutcome { upload_floats: 0 };
        }
        // With probability p the clients communicate and the server averages
        // the augmented models; otherwise the round involves no uploads and
        // the global model is left unchanged.
        if !rng.gen_bool(self.communication_probability) {
            return ServerOutcome { upload_floats: 0 };
        }
        // θ is replaced by the uniform average of the uploaded models —
        // one fused pass, no zeroing sweep.
        let w = 1.0 / messages.len() as f32;
        let terms: Vec<(f32, &ParamVector)> =
            messages.iter().map(|msg| (w, &msg.payload[0])).collect();
        global.assign_weighted_sum(&terms);
        ServerOutcome {
            upload_floats: messages.iter().map(|m| m.upload_floats()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::Fixture;
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn constructor_validation() {
        assert!(std::panic::catch_unwind(|| FedPd::new(0.0, 0.5)).is_err());
        assert!(std::panic::catch_unwind(|| FedPd::new(0.1, 0.0)).is_err());
        assert!(std::panic::catch_unwind(|| FedPd::new(0.1, 1.5)).is_err());
        let alg = FedPd::new(0.1, 0.5);
        assert_eq!(alg.name(), "FedPD");
        assert!(alg.requires_full_participation());
    }

    #[test]
    fn communication_probability_gates_uploads() {
        let mut alg = FedPd::new(0.1, 0.5);
        let mut rng = SmallRng::seed_from_u64(7);
        let message = ClientMessage {
            client_id: 0,
            num_samples: 1,
            payload: vec![ParamVector::from_vec(vec![2.0, 4.0])],
            epochs_run: 1,
            samples_processed: 1,
            wire: None,
        };
        let mut communicated = 0usize;
        let mut silent = 0usize;
        for _ in 0..200 {
            let mut global = ParamVector::zeros(2);
            let outcome =
                alg.server_update(&mut global, std::slice::from_ref(&message), 1, &mut rng);
            if outcome.upload_floats > 0 {
                communicated += 1;
                assert_eq!(global.as_slice(), &[2.0, 4.0]);
            } else {
                silent += 1;
                assert_eq!(global.as_slice(), &[0.0, 0.0]);
            }
        }
        // Both branches must occur with p = 0.5 over 200 trials.
        assert!(
            communicated > 50 && silent > 50,
            "{communicated} vs {silent}"
        );
    }

    #[test]
    fn always_communicating_fedpd_averages_augmented_models() {
        let mut alg = FedPd::new(0.1, 1.0);
        let mut rng = SmallRng::seed_from_u64(0);
        let messages = vec![
            ClientMessage {
                client_id: 0,
                num_samples: 1,
                payload: vec![ParamVector::from_vec(vec![2.0])],
                epochs_run: 1,
                samples_processed: 1,
                wire: None,
            },
            ClientMessage {
                client_id: 1,
                num_samples: 1,
                payload: vec![ParamVector::from_vec(vec![4.0])],
                epochs_run: 1,
                samples_processed: 1,
                wire: None,
            },
        ];
        let mut global = ParamVector::zeros(1);
        let outcome = alg.server_update(&mut global, &messages, 2, &mut rng);
        assert_eq!(global.as_slice(), &[3.0]);
        assert_eq!(outcome.upload_floats, 2);
    }

    #[test]
    fn client_update_maintains_dual_like_fedadmm() {
        let fixture = Fixture::new(1, 30, 9);
        let theta = ParamVector::zeros(fixture.dim());
        let mut clients = fixture.clients(&theta);
        let alg = FedPd::new(0.2, 1.0);
        let env = fixture.env(0, 1, 10);
        alg.client_update(&mut clients[0], &theta, &env).unwrap();
        // y = ρ(w − θ) after the first update from zero dual.
        let mut expected = clients[0].local_model.sub(&theta);
        expected.scale(0.2);
        assert!(clients[0].dual.dist(&expected) < 1e-5);
    }
}
