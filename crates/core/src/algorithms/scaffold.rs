//! SCAFFOLD (Karimireddy et al., ICML 2020).
//!
//! SCAFFOLD corrects client drift with *control variates*: the server keeps
//! a global control variate `c`, every client keeps `c_i`, and the local
//! SGD direction is `∇f_i(w, b) − c_i + c`. After local training the client
//! refreshes its control variate (option II of the SCAFFOLD paper,
//! `c_i⁺ = c_i − c + (θ − w)/(K·η_l)`) and uploads **both** `Δw` and `Δc`,
//! which is why its per-round upload cost is `2d` — double that of
//! FedAvg/FedProx/FedADMM (a point the paper emphasises repeatedly).

use super::{total_upload, Algorithm, ClientMessage, ServerOutcome, UpdateScratch};
use crate::client::ClientState;
use crate::param::ParamVector;
use crate::trainer::{local_sgd_cached, LocalEnv};
use fedadmm_tensor::TensorResult;

/// The SCAFFOLD algorithm.
#[derive(Debug)]
pub struct Scaffold {
    /// Server step size for the model update (1.0 in the paper's setup).
    pub server_learning_rate: f32,
    /// Global control variate `c`, zero-initialised (as recommended and as
    /// stated in Section V-A of the paper). Concurrent `client_update`s only
    /// read it; `init` and `server_update` write it through `&mut self`.
    control: ParamVector,
    /// Client population size `m` (needed for the `c` update).
    num_clients: usize,
}

impl Scaffold {
    /// Creates SCAFFOLD with server step size 1.0.
    pub fn new() -> Self {
        Scaffold {
            server_learning_rate: 1.0,
            control: ParamVector::zeros(0),
            num_clients: 0,
        }
    }

    /// Returns a copy of the current global control variate (for tests and
    /// diagnostics).
    pub fn global_control(&self) -> ParamVector {
        self.control.clone()
    }
}

impl Default for Scaffold {
    fn default() -> Self {
        Scaffold::new()
    }
}

impl Algorithm for Scaffold {
    fn name(&self) -> &'static str {
        "SCAFFOLD"
    }

    fn init(&mut self, dim: usize, num_clients: usize) {
        self.control = ParamVector::zeros(dim);
        self.num_clients = num_clients;
    }

    fn supports_variable_work(&self) -> bool {
        // Fixed E in the paper's protocol, like FedAvg.
        false
    }

    fn client_update_scratch(
        &self,
        client: &mut ClientState,
        global: &ParamVector,
        env: &LocalEnv<'_>,
        scratch: &mut UpdateScratch,
    ) -> TensorResult<ClientMessage> {
        let c_global = &self.control;
        let c_local = client.control.clone();
        let theta = global.as_slice();

        // Local steps use the drift-corrected gradient g − c_i + c.
        let result =
            local_sgd_cached(env, theta, &mut scratch.net, &mut scratch.train, |_w, g| {
                for ((gi, &cg), &cl) in g
                    .iter_mut()
                    .zip(c_global.as_slice().iter())
                    .zip(c_local.as_slice().iter())
                {
                    *gi += cg - cl;
                }
            })?;
        let steps = result.steps.max(1);
        let new_local = ParamVector::from_vec(result.params);

        // Option II control-variate update: c_i⁺ = c_i − c + (θ − w)/(K·η_l).
        let mut new_control = client.control.clone();
        new_control.axpy(-1.0, c_global);
        let inv = 1.0 / (steps as f32 * env.learning_rate);
        for ((nc, &t), &w) in new_control
            .as_mut_slice()
            .iter_mut()
            .zip(theta.iter())
            .zip(new_local.as_slice().iter())
        {
            *nc += (t - w) * inv;
        }

        let delta_w = new_local.sub(global);
        let delta_c = new_control.sub(&client.control);
        client.control = new_control;
        client.local_model = new_local;
        client.times_selected += 1;

        Ok(ClientMessage {
            client_id: client.id,
            num_samples: client.num_samples(),
            payload: vec![delta_w, delta_c],
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
        let s = messages.len() as f32;
        // θ ← θ + (η_g/|S|) Σ Δw — one fused pass over ℝ^d.
        let model_scale = self.server_learning_rate / s;
        let model_terms: Vec<(f32, &ParamVector)> = messages
            .iter()
            .map(|msg| (model_scale, &msg.payload[0]))
            .collect();
        global.accumulate(&model_terms);
        // c ← c + (1/m) Σ Δc — likewise fused.
        let m = num_clients.max(self.num_clients).max(1) as f32;
        if self.control.len() != global.len() {
            self.control = ParamVector::zeros(global.len());
        }
        let control_terms: Vec<(f32, &ParamVector)> = messages
            .iter()
            .map(|msg| (1.0 / m, &msg.payload[1]))
            .collect();
        self.control.accumulate(&control_terms);
        ServerOutcome {
            upload_floats: total_upload(messages),
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
    fn upload_cost_is_doubled() {
        let fixture = Fixture::new(1, 30, 0);
        let theta = ParamVector::zeros(fixture.dim());
        let mut clients = fixture.clients(&theta);
        let mut alg = Scaffold::new();
        alg.init(fixture.dim(), 1);
        let env = fixture.env(0, 1, 1);
        let msg = alg.client_update(&mut clients[0], &theta, &env).unwrap();
        assert_eq!(msg.payload.len(), 2);
        assert_eq!(msg.upload_floats(), 2 * fixture.dim());
    }

    #[test]
    fn control_variates_start_at_zero_and_get_updated() {
        let fixture = Fixture::new(2, 30, 1);
        let theta = ParamVector::zeros(fixture.dim());
        let mut clients = fixture.clients(&theta);
        let mut alg = Scaffold::new();
        alg.init(fixture.dim(), 2);
        assert_eq!(alg.global_control().norm(), 0.0);
        assert_eq!(clients[0].control.norm(), 0.0);

        let env = fixture.env(0, 2, 2);
        let msg = alg.client_update(&mut clients[0], &theta, &env).unwrap();
        // After real training the client's control variate is non-zero.
        assert!(clients[0].control.norm() > 0.0);

        let mut rng = SmallRng::seed_from_u64(0);
        let mut global = theta.clone();
        alg.server_update(&mut global, &[msg], 2, &mut rng);
        assert!(alg.global_control().norm() > 0.0);
        assert!(global.dist(&theta) > 0.0);
    }

    #[test]
    fn option_ii_control_update_formula() {
        // With zero initial control variates, c_i⁺ = (θ − w)/(K·η_l).
        let fixture = Fixture::new(1, 32, 3);
        let theta = ParamVector::zeros(fixture.dim());
        let mut clients = fixture.clients(&theta);
        let mut alg = Scaffold::new();
        alg.init(fixture.dim(), 1);
        let env = fixture.env(0, 1, 4);
        let msg = alg.client_update(&mut clients[0], &theta, &env).unwrap();
        let steps = 32usize.div_ceil(16); // one epoch of batches of 16
        let mut expected = theta.sub(&clients[0].local_model);
        expected.scale(1.0 / (steps as f32 * env.learning_rate));
        assert!(clients[0].control.dist(&expected) < 1e-4);
        // Δc equals the new control variate since the old one was zero.
        assert!(msg.payload[1].dist(&expected) < 1e-4);
    }

    #[test]
    fn first_round_matches_fedavg_trajectory() {
        // With all control variates zero the corrected gradient equals the
        // plain gradient, so SCAFFOLD's first local model must coincide with
        // FedAvg's for the same seed.
        let fixture = Fixture::new(1, 40, 5);
        let theta = ParamVector::zeros(fixture.dim());
        let env = fixture.env(0, 2, 6);
        let mut scaffold = Scaffold::new();
        scaffold.init(fixture.dim(), 1);
        let mut c_scaffold = fixture.clients(&theta);
        let m_scaffold = scaffold
            .client_update(&mut c_scaffold[0], &theta, &env)
            .unwrap();
        let avg = super::super::FedAvg::new();
        let mut c_avg = fixture.clients(&theta);
        let m_avg = avg.client_update(&mut c_avg[0], &theta, &env).unwrap();
        // SCAFFOLD uploads Δw = w − θ with θ = 0, so payload[0] == FedAvg's w.
        assert!(m_scaffold.payload[0].dist(&m_avg.payload[0]) < 1e-5);
    }

    #[test]
    fn empty_round_is_noop() {
        let mut alg = Scaffold::new();
        alg.init(4, 10);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut global = ParamVector::from_vec(vec![1.0; 4]);
        let outcome = alg.server_update(&mut global, &[], 10, &mut rng);
        assert_eq!(outcome.upload_floats, 0);
        assert_eq!(global.as_slice(), &[1.0; 4]);
    }
}
