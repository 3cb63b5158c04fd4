//! FedProx (Li et al., MLSys 2020).
//!
//! FedProx augments FedAvg's local problem with a proximal term: each
//! selected client approximately minimises `f_i(w) + (ρ/2)‖w − θ‖²`,
//! starting from θ. It tolerates variable local work (system
//! heterogeneity), but — as the paper demonstrates in Table V — its
//! performance is sensitive to the choice of ρ, which must be tuned per
//! dataset / system size. It is exactly FedADMM's local problem with the
//! dual variable pinned to zero (Section III-B), which the
//! `fedadmm_with_zero_dual_matches_fedprox_local_step` test exercises.

use super::{Algorithm, ClientMessage, FoldPlan, UpdateScratch};
use crate::client::ClientState;
use crate::param::ParamVector;
use crate::trainer::{local_sgd_with_step, LocalEnv};
use fedadmm_tensor::TensorResult;

/// The FedProx algorithm.
#[derive(Debug, Clone, Copy)]
pub struct FedProx {
    /// Proximal coefficient ρ (the paper tunes it over
    /// `{0.001, 0.01, 0.1, 1}` for FedProx).
    pub rho: f32,
}

impl FedProx {
    /// Creates FedProx with proximal coefficient `rho`.
    pub fn new(rho: f32) -> Self {
        FedProx { rho }
    }

    /// Updates the proximal coefficient (used by the ρ-sensitivity sweeps).
    pub fn set_rho(&mut self, rho: f32) {
        self.rho = rho;
    }
}

impl Algorithm for FedProx {
    fn name(&self) -> &'static str {
        "FedProx"
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
        let UpdateScratch { net, train } = scratch;
        let result = local_sgd_with_step(env, theta, net, train, |neg_lr, w, g| {
            // ∇ of the proximal term (ρ/2)‖w − θ‖² is ρ(w − θ).
            for ((wi, &gi), &ti) in w.iter_mut().zip(&*g).zip(theta) {
                *wi += neg_lr * (gi + rho * (*wi - ti));
            }
        })?;
        client.times_selected += 1;
        Ok(ClientMessage {
            client_id: client.id,
            num_samples: client.num_samples(),
            payload: vec![ParamVector::from_vec(result.params)],
            epochs_run: env.epochs,
            samples_processed: result.samples_processed,
            wire: None,
        })
    }

    fn fold_plan(&self, messages: &[ClientMessage], _num_clients: usize) -> Option<FoldPlan> {
        if messages.is_empty() {
            return None;
        }
        // θ ← (1/|S|) Σ w_i — a uniform model average.
        Some(FoldPlan::Assign(vec![
            1.0 / messages.len() as f32;
            messages.len()
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::Fixture;
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn stronger_rho_keeps_clients_closer_to_global() {
        let fixture = Fixture::new(1, 60, 3);
        let theta = ParamVector::zeros(fixture.dim());
        let env = fixture.env(0, 3, 7);

        let weak = FedProx::new(0.001);
        let strong = FedProx::new(10.0);
        let mut c1 = fixture.clients(&theta);
        let mut c2 = fixture.clients(&theta);
        let m_weak = weak.client_update(&mut c1[0], &theta, &env).unwrap();
        let m_strong = strong.client_update(&mut c2[0], &theta, &env).unwrap();
        let d_weak = m_weak.payload[0].dist(&theta);
        let d_strong = m_strong.payload[0].dist(&theta);
        assert!(d_strong < d_weak, "{d_strong} !< {d_weak}");
    }

    #[test]
    fn rho_zero_recovers_fedavg_local_problem() {
        // Section III-B: setting y ≡ 0 and ρ = 0 recovers FedAvg's local
        // training problem. With identical seeds the trajectories coincide.
        let fixture = Fixture::new(1, 40, 5);
        let theta = ParamVector::zeros(fixture.dim());
        let env = fixture.env(0, 2, 11);
        let prox = FedProx::new(0.0);
        let avg = super::super::FedAvg::new();
        let mut c1 = fixture.clients(&theta);
        let mut c2 = fixture.clients(&theta);
        let m_prox = prox.client_update(&mut c1[0], &theta, &env).unwrap();
        let m_avg = avg.client_update(&mut c2[0], &theta, &env).unwrap();
        assert_eq!(m_prox.payload[0], m_avg.payload[0]);
    }

    #[test]
    fn server_averages_models() {
        let mut alg = FedProx::new(0.1);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut global = ParamVector::from_vec(vec![9.0, 9.0]);
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
                payload: vec![ParamVector::from_vec(vec![0.0, 4.0])],
                epochs_run: 1,
                samples_processed: 1,
                wire: None,
            },
        ];
        alg.server_update(&mut global, &messages, 10, &mut rng);
        assert_eq!(global.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn set_rho_updates_coefficient() {
        let mut alg = FedProx::new(0.1);
        alg.set_rho(1.0);
        assert_eq!(alg.rho, 1.0);
        assert_eq!(alg.name(), "FedProx");
        assert!(alg.supports_variable_work());
    }
}
