//! SCAFFOLD (Karimireddy et al., ICML 2020).
//!
//! SCAFFOLD corrects client drift with *control variates*: the server keeps
//! a global control variate `c`, every client keeps `c_i` in its correction
//! slot ([`ClientState::dual`]), and the local SGD direction is
//! `∇f_i(w, b) − c_i + c`. After local training the client
//! refreshes its control variate (option II of the SCAFFOLD paper,
//! `c_i⁺ = c_i − c + (θ − w)/(K·η_l)`) and uploads **both** `Δw` and `Δc`,
//! which is why its per-round upload cost is `2d` — double that of
//! FedAvg/FedProx/FedADMM (a point the paper emphasises repeatedly).

use super::{total_upload, Algorithm, ClientMessage, ServerOutcome, UpdateScratch};
use crate::client::ClientState;
use crate::param::ParamVector;
use crate::trainer::{local_sgd_with_step, LocalEnv};
use fedadmm_tensor::TensorResult;

/// The SCAFFOLD algorithm.
#[derive(Debug)]
pub struct Scaffold {
    /// Server step size for the model update (1.0 in the paper's setup).
    pub server_learning_rate: f32,
    /// Global control variate `c`, zero-initialised (as recommended and as
    /// stated in Section V-A of the paper). Concurrent `client_update`s only
    /// read it; `init` and `server_update` write it through `&mut self`.
    server_c: ParamVector,
    /// Client population size `m` (needed for the `c` update).
    num_clients: usize,
}

impl Scaffold {
    /// Creates SCAFFOLD with server step size 1.0.
    pub fn new() -> Self {
        Scaffold {
            server_learning_rate: 1.0,
            server_c: ParamVector::zeros(0),
            num_clients: 0,
        }
    }

    /// Returns a copy of the current global control variate (for tests and
    /// diagnostics).
    pub fn global_control(&self) -> ParamVector {
        self.server_c.clone()
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
        self.server_c = ParamVector::zeros(dim);
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
        let theta = global.as_slice();
        let d = theta.len();
        let c_global = self.server_c.as_slice();
        assert!(
            c_global.len() == d && client.dual.len() == d && client.local_model.len() == d,
            "SCAFFOLD on client {}: c, c_i and w_i must have θ's {d} coordinates",
            client.id
        );
        let c_local = client.dual.as_slice();

        // Local steps use the drift-corrected gradient g − c_i + c.
        let UpdateScratch { net, train } = scratch;
        let result = local_sgd_with_step(env, theta, net, train, |neg_lr, w, g| {
            for (((wi, &gi), &cg), &cl) in w.iter_mut().zip(&*g).zip(c_global).zip(c_local) {
                *wi += neg_lr * (gi + (cg - cl));
            }
        })?;
        let inv = 1.0 / (result.steps.max(1) as f32 * env.learning_rate);
        let mut delta_w = result.params;

        // One pass: the option II control-variate update
        // c_i⁺ = (c_i − c) + (θ − w)/(K·η_l) and w_i ← w, both in place in
        // the client's own buffers; Δc = c_i⁺ − c_i; and Δw = w − θ written
        // over the trained vector, whose buffer is uploaded.
        let slots = client.dual.as_mut_slice().iter_mut();
        let local = client.local_model.as_mut_slice().iter_mut();
        let delta_c: Vec<f32> = slots
            .zip(local)
            .zip(c_global)
            .zip(theta)
            .zip(&mut delta_w)
            .map(|((((ci, w_i), &c), &t), slot)| {
                let w = *slot;
                let nc = (*ci - c) + (t - w) * inv;
                let dc = nc - *ci;
                *ci = nc;
                *w_i = w;
                *slot = w - t;
                dc
            })
            .collect();
        client.times_selected += 1;

        Ok(ClientMessage {
            client_id: client.id,
            num_samples: client.num_samples(),
            payload: vec![
                ParamVector::from_vec(delta_w),
                ParamVector::from_vec(delta_c),
            ],
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
        if self.server_c.len() != global.len() {
            self.server_c = ParamVector::zeros(global.len());
        }
        let control_terms: Vec<(f32, &ParamVector)> = messages
            .iter()
            .map(|msg| (1.0 / m, &msg.payload[1]))
            .collect();
        self.server_c.accumulate(&control_terms);
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
        assert_eq!(clients[0].dual.norm(), 0.0);

        let env = fixture.env(0, 2, 2);
        let msg = alg.client_update(&mut clients[0], &theta, &env).unwrap();
        // After real training the client's control variate is non-zero.
        assert!(clients[0].dual.norm() > 0.0);

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
        assert!(clients[0].dual.dist(&expected) < 1e-4);
        // Δc equals the new control variate since the old one was zero.
        assert!(msg.payload[1].dist(&expected) < 1e-4);
    }

    #[test]
    fn client_state_stays_in_its_own_allocation() {
        // A job writes w_i and c_i where they lie, with the bits of the
        // option II update written out per element, and uploads Δw in the
        // trainer's buffer: neither client buffer changes hands.
        let fixture = Fixture::new(2, 32, 7);
        let theta = ParamVector::from_vec(vec![0.01; fixture.dim()]);
        let mut clients = fixture.clients(&theta);
        let mut alg = Scaffold::new();
        alg.init(fixture.dim(), 2);
        // Client 1's round gives the server a non-zero c.
        let msg = alg
            .client_update(&mut clients[1], &theta, &fixture.env(1, 1, 5))
            .unwrap();
        alg.server_update(
            &mut theta.clone(),
            &[msg],
            2,
            &mut SmallRng::seed_from_u64(0),
        );
        let c = alg.global_control();
        assert!(c.norm() > 0.0);
        // One epoch of two batches of 16: K = 2 steps of η_l = 0.1.
        let inv = 1.0 / (2.0 * 0.1f32);
        let client = &mut clients[0];
        for round in 0..2 {
            let before = client.clone();
            let w_at = client.local_model.as_slice().as_ptr();
            let c_at = client.dual.as_slice().as_ptr();
            let msg = alg
                .client_update(client, &theta, &fixture.env(0, 1, round))
                .unwrap();
            assert_eq!(
                client.local_model.as_slice().as_ptr(),
                w_at,
                "w_i, round {round}"
            );
            assert_eq!(client.dual.as_slice().as_ptr(), c_at, "c_i, round {round}");
            let (delta_w, delta_c) = (msg.payload[0].as_slice(), msg.payload[1].as_slice());
            assert!(delta_w.as_ptr() != w_at && delta_w.as_ptr() != c_at);

            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let (mut c_next, mut dw, mut dc) = (Vec::new(), Vec::new(), Vec::new());
            for (k, &w) in client.local_model.as_slice().iter().enumerate() {
                let (c_i, t) = (before.dual.as_slice()[k], theta.as_slice()[k]);
                let c_new = (c_i - c.as_slice()[k]) + (t - w) * inv;
                c_next.push(c_new);
                dc.push(c_new - c_i);
                dw.push(w - t);
            }
            assert_eq!(
                bits(client.dual.as_slice()),
                bits(&c_next),
                "c_i, round {round}"
            );
            assert_eq!(bits(delta_c), bits(&dc), "Δc, round {round}");
            assert_eq!(bits(delta_w), bits(&dw), "Δw, round {round}");
            assert_ne!(before.local_model, client.local_model);
        }
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
