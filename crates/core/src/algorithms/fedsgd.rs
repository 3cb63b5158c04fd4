//! FedSGD — distributed synchronous SGD over the selected clients.
//!
//! Each selected client computes its exact local gradient at the current
//! global model and uploads it; the server takes one gradient-descent step
//! with the averaged gradient. FedSGD makes minimal progress per round
//! (one step), which is why the paper uses it as the unit of the "speedup"
//! column in Table III: every other method is measured by how many times
//! fewer rounds it needs than FedSGD.

use super::{Algorithm, ClientMessage, FoldPlan, UpdateScratch};
use crate::client::ClientState;
use crate::param::ParamVector;
use crate::trainer::{full_gradient, LocalEnv};
use fedadmm_tensor::TensorResult;

/// The FedSGD algorithm.
#[derive(Debug, Clone, Copy)]
pub struct FedSgd {
    /// Server gradient-descent step size applied to the averaged gradient.
    pub server_learning_rate: f32,
}

impl FedSgd {
    /// Creates FedSGD with the given server step size (the experiments use
    /// the same value as the clients' local SGD learning rate).
    pub fn new(server_learning_rate: f32) -> Self {
        FedSgd {
            server_learning_rate,
        }
    }
}

impl Algorithm for FedSgd {
    fn name(&self) -> &'static str {
        "FedSGD"
    }

    fn supports_variable_work(&self) -> bool {
        // FedSGD performs exactly one full-gradient evaluation per round;
        // there is no local-epoch knob to randomise.
        false
    }

    fn client_update_scratch(
        &self,
        client: &mut ClientState,
        global: &ParamVector,
        env: &LocalEnv<'_>,
        scratch: &mut UpdateScratch,
    ) -> TensorResult<ClientMessage> {
        let mut grad = vec![0.0f32; global.len()];
        full_gradient(
            env,
            global.as_slice(),
            &mut scratch.net,
            &mut scratch.train,
            &mut grad,
        )?;
        client.times_selected += 1;
        let samples = client.num_samples();
        Ok(ClientMessage {
            client_id: client.id,
            num_samples: samples,
            payload: vec![ParamVector::from_vec(grad)],
            epochs_run: 1,
            samples_processed: samples,
            wire: None,
        })
    }

    fn fold_plan(&self, messages: &[ClientMessage], _num_clients: usize) -> Option<FoldPlan> {
        if messages.is_empty() {
            return None;
        }
        // One server GD step on the mean gradient: θ += Σ (−α/|S|)·g_i.
        let step = -self.server_learning_rate / messages.len() as f32;
        Some(FoldPlan::Accumulate(vec![step; messages.len()]))
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::Fixture;
    use super::*;
    use crate::trainer::evaluate;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn one_round_reduces_global_loss() {
        let fixture = Fixture::new(4, 30, 1);
        let theta = ParamVector::zeros(fixture.dim());
        let mut clients = fixture.clients(&theta);
        let mut alg = FedSgd::new(0.5);
        let mut global = theta.clone();
        let (loss_before, _) =
            evaluate(fixture.model, global.as_slice(), &fixture.test, usize::MAX).unwrap();

        let mut messages = Vec::new();
        for (i, client) in clients.iter_mut().enumerate().take(4) {
            let env = fixture.env(i, 1, 100 + i as u64);
            messages.push(alg.client_update(client, &global, &env).unwrap());
        }
        let mut rng = SmallRng::seed_from_u64(0);
        alg.server_update(&mut global, &messages, 4, &mut rng);
        let (loss_after, _) =
            evaluate(fixture.model, global.as_slice(), &fixture.test, usize::MAX).unwrap();
        assert!(loss_after < loss_before, "{loss_after} !< {loss_before}");
    }

    #[test]
    fn server_step_is_average_of_gradients() {
        let mut alg = FedSgd::new(1.0);
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
                payload: vec![ParamVector::from_vec(vec![0.0, 4.0])],
                epochs_run: 1,
                samples_processed: 1,
                wire: None,
            },
        ];
        alg.server_update(&mut global, &messages, 2, &mut rng);
        // θ ← θ − 1.0 · mean(g) = [1,1] − [1,2] = [0,−1]
        assert_eq!(global.as_slice(), &[0.0, -1.0]);
    }

    #[test]
    fn metadata_and_costs() {
        let alg = FedSgd::new(0.1);
        assert_eq!(alg.name(), "FedSGD");
        assert!(!alg.supports_variable_work());
    }
}
