//! FedAvg (McMahan et al., AISTATS 2017) — the de-facto standard FL
//! baseline.
//!
//! Each selected client initialises its model at the current global model
//! θ, runs `E` epochs of local SGD on its own data, and uploads the
//! resulting model; the server averages the uploaded models. The paper's
//! Table I quotes its round complexity as
//! `O(1/ε² · (m−S)/(mS) + G/ε^{3/2} + B²/ε)`, which depends on the data
//! dissimilarity bound `B` and gradient bound `G` — the dependence FedADMM
//! removes.

use super::{Algorithm, ClientMessage, FoldPlan, UpdateScratch};
use crate::client::ClientState;
use crate::param::ParamVector;
use crate::trainer::{local_sgd_cached, LocalEnv};
use fedadmm_tensor::TensorResult;

/// The FedAvg algorithm, with uniform client weights (`α_i = 1`, the
/// paper's choice in its experiments).
#[derive(Debug, Clone, Copy, Default)]
pub struct FedAvg;

impl FedAvg {
    /// Creates FedAvg.
    pub fn new() -> Self {
        FedAvg
    }
}

impl Algorithm for FedAvg {
    fn name(&self) -> &'static str {
        "FedAvg"
    }

    fn supports_variable_work(&self) -> bool {
        // The paper fixes FedAvg's local epochs to E ("in order to compare
        // against baselines in their principal description").
        false
    }

    fn client_update_scratch(
        &self,
        client: &mut ClientState,
        global: &ParamVector,
        env: &LocalEnv<'_>,
        scratch: &mut UpdateScratch,
    ) -> TensorResult<ClientMessage> {
        // Local training always starts from the downloaded global model.
        let result = local_sgd_cached(
            env,
            global.as_slice(),
            &mut scratch.net,
            &mut scratch.train,
            |_, _| {},
        )?;
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
        // θ is *replaced* by the uniform average of the uploaded models.
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
    fn server_averages_models_uniformly() {
        let mut alg = FedAvg::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut global = ParamVector::zeros(3);
        let messages = vec![
            ClientMessage {
                client_id: 0,
                num_samples: 1,
                payload: vec![ParamVector::from_vec(vec![1.0, 2.0, 3.0])],
                epochs_run: 1,
                samples_processed: 1,
                wire: None,
            },
            ClientMessage {
                client_id: 1,
                num_samples: 99,
                payload: vec![ParamVector::from_vec(vec![3.0, 4.0, 5.0])],
                epochs_run: 1,
                samples_processed: 99,
                wire: None,
            },
        ];
        let outcome = alg.server_update(&mut global, &messages, 10, &mut rng);
        assert_eq!(global.as_slice(), &[2.0, 3.0, 4.0]);
        assert_eq!(outcome.upload_floats, 6);
    }

    #[test]
    fn empty_round_leaves_global_unchanged() {
        let mut alg = FedAvg::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut global = ParamVector::from_vec(vec![1.0, 2.0]);
        let outcome = alg.server_update(&mut global, &[], 10, &mut rng);
        assert_eq!(global.as_slice(), &[1.0, 2.0]);
        assert_eq!(outcome.upload_floats, 0);
    }

    #[test]
    fn client_update_trains_and_uploads_model() {
        let fixture = Fixture::new(2, 40, 0);
        let theta = ParamVector::zeros(fixture.dim());
        let mut clients = fixture.clients(&theta);
        let alg = FedAvg::new();
        let env = fixture.env(0, 2, 1);
        let msg = alg.client_update(&mut clients[0], &theta, &env).unwrap();
        assert_eq!(msg.payload.len(), 1);
        assert_eq!(msg.payload[0].len(), fixture.dim());
        // Training must move the model away from the all-zero initialisation.
        assert!(msg.payload[0].norm() > 0.0);
        assert_eq!(clients[0].times_selected, 1);
        assert_eq!(msg.upload_floats(), fixture.dim());
    }

    #[test]
    fn metadata() {
        let alg = FedAvg::new();
        assert_eq!(alg.name(), "FedAvg");
        assert!(!alg.supports_variable_work());
        assert!(!alg.requires_full_participation());
    }
}
