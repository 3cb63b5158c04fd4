//! Convergence diagnostics: the optimality-gap function V_t of the paper.
//!
//! Equation (7) of the paper defines
//!
//! ```text
//! V_t = ‖∇_θ L‖² + Σ_i ( ‖∇_{w_i} L_i‖² + ‖w_i − θ‖² )
//! ```
//!
//! where `L = Σ_i L_i` is the aggregated augmented Lagrangian. `V_t = 0`
//! exactly at stationary points of the consensus problem (2), and Theorem 1
//! bounds its running average. This module computes `V_t` for a simulation
//! state so that experiments can monitor convergence the same way the
//! analysis does — useful both as a debugging aid and for comparing how
//! quickly different configurations drive `V_t` down.

use crate::algorithms::UpdateScratch;
use crate::client::ClientState;
use crate::param::ParamVector;
use crate::trainer::{full_gradient, LocalEnv};
use fedadmm_data::batching::BatchSize;
use fedadmm_data::Dataset;
use fedadmm_nn::models::ModelSpec;
use fedadmm_tensor::{vecops, TensorResult};

/// The decomposition of the optimality gap V_t (equation 7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimalityGap {
    /// ‖∇_θ L‖² — how far the global model is from being stationary for the
    /// aggregated augmented Lagrangian. Zero whenever θ equals the mean of
    /// the clients' augmented models (equation 20 of the proof).
    pub grad_theta_sq: f32,
    /// Σ_i ‖∇_{w_i} L_i‖² — how inexactly the local subproblems are solved
    /// (the ε_i of equation 6, summed).
    pub sum_grad_w_sq: f32,
    /// Σ_i ‖w_i − θ‖² — the consensus violation.
    pub sum_consensus_sq: f32,
    /// Number of clients included in the sums.
    pub num_clients: usize,
}

impl OptimalityGap {
    /// The total gap `V_t`.
    pub fn total(&self) -> f32 {
        self.grad_theta_sq + self.sum_grad_w_sq + self.sum_consensus_sq
    }
}

/// Computes the optimality gap V_t for the current primal–dual state.
///
/// `model` and `dataset` are needed because `∇_{w_i} L_i` contains the exact
/// local data gradient `∇f_i(w_i)`; each client's gradient is evaluated over
/// its own index set, on `scratch`'s cached network and buffers. Each
/// client's correction slot ([`ClientState::dual`]) is read as FedADMM's
/// `y_i`. This is an O(total samples) computation — intended for
/// diagnostics and ablations, not for the per-round hot path.
pub fn optimality_gap(
    clients: &[ClientState],
    global: &ParamVector,
    rho: f32,
    model: ModelSpec,
    dataset: &Dataset,
    scratch: &mut UpdateScratch,
) -> TensorResult<OptimalityGap> {
    let stream = |visit: &mut dyn FnMut(&ClientState) -> _| clients.iter().try_for_each(visit);
    streamed_optimality_gap(stream, global, rho, model, dataset, scratch)
}

/// [`optimality_gap`] over the states `stream` passes to its visitor, in
/// order — how the engine reads them straight from its client store
/// ([`ClientStateStore::for_each_state`](fedadmm_clientstore::ClientStateStore::for_each_state))
/// without holding all `m` at once.
pub(crate) fn streamed_optimality_gap(
    stream: impl FnOnce(&mut dyn FnMut(&ClientState) -> TensorResult<()>) -> TensorResult<()>,
    global: &ParamVector,
    rho: f32,
    model: ModelSpec,
    dataset: &Dataset,
    scratch: &mut UpdateScratch,
) -> TensorResult<OptimalityGap> {
    let d = global.len();
    let theta = global.as_slice();
    let mut grad_theta = vec![0.0f32; d];
    let mut grad_f = vec![0.0f32; d];
    let mut sum_grad_w_sq = 0.0f32;
    let mut sum_consensus_sq = 0.0f32;
    let mut num_clients = 0usize;

    stream(&mut |client| {
        let w = client.local_model.as_slice();
        let y = client.dual.as_slice();
        // ∇f_i(w_i): exact local gradient at the client's current model.
        let env = LocalEnv {
            dataset,
            indices: &client.indices,
            model,
            epochs: 1,
            batch_size: BatchSize::Full,
            learning_rate: 0.0,
            seed: 0,
        };
        full_gradient(&env, w, &mut scratch.net, &mut scratch.train, &mut grad_f)?;

        let mut grad_w_sq = 0.0f32;
        let mut consensus_sq = 0.0f32;
        for i in 0..d {
            let diff = w[i] - theta[i];
            // ∇_{w_i} L_i = ∇f_i(w_i) + y_i + ρ(w_i − θ)
            let gw = grad_f[i] + y[i] + rho * diff;
            grad_w_sq += gw * gw;
            consensus_sq += diff * diff;
            // ∂L_i/∂θ = −y_i − ρ(w_i − θ)
            grad_theta[i] += -y[i] - rho * diff;
        }
        sum_grad_w_sq += grad_w_sq;
        sum_consensus_sq += consensus_sq;
        num_clients += 1;
        Ok(())
    })?;

    Ok(OptimalityGap {
        grad_theta_sq: vecops::norm_sq(&grad_theta),
        sum_grad_w_sq,
        sum_consensus_sq,
        num_clients,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Algorithm, FedAdmm, ServerStepSize};
    use fedadmm_data::synthetic::SyntheticDataset;
    use rand::rngs::mock::StepRng;

    fn fixture(clients: usize, per_client: usize) -> (Dataset, ModelSpec, Vec<Vec<usize>>) {
        let (train, _) = SyntheticDataset::Mnist.generate(clients * per_client, 10, 3);
        let model = ModelSpec::Logistic {
            input_dim: 784,
            num_classes: 10,
        };
        let indices = (0..clients)
            .map(|c| (c * per_client..(c + 1) * per_client).collect())
            .collect();
        (train, model, indices)
    }

    #[test]
    fn initial_state_has_zero_theta_gradient_and_consensus_terms() {
        // At initialisation every client holds w_i = θ and y_i = 0, so both
        // the consensus violation and ∇_θ L vanish; only the local data
        // gradients contribute.
        let (train, model, indices) = fixture(3, 30);
        let theta = ParamVector::zeros(model.num_params());
        let clients: Vec<ClientState> = indices
            .iter()
            .enumerate()
            .map(|(i, idx)| ClientState::new(i, idx.clone(), &theta))
            .collect();
        let gap = optimality_gap(
            &clients,
            &theta,
            0.3,
            model,
            &train,
            &mut UpdateScratch::default(),
        )
        .unwrap();
        assert_eq!(gap.num_clients, 3);
        assert!(gap.grad_theta_sq < 1e-10);
        assert!(gap.sum_consensus_sq < 1e-10);
        assert!(gap.sum_grad_w_sq > 0.0);
        assert!((gap.total() - gap.sum_grad_w_sq).abs() < 1e-6);
    }

    #[test]
    fn gap_components_are_nonnegative_after_updates() {
        let (train, model, indices) = fixture(3, 30);
        let theta = ParamVector::zeros(model.num_params());
        let mut clients: Vec<ClientState> = indices
            .iter()
            .enumerate()
            .map(|(i, idx)| ClientState::new(i, idx.clone(), &theta))
            .collect();
        let rho = 0.3;
        let algorithm = FedAdmm::new(rho, ServerStepSize::Constant(1.0));
        for (i, client) in clients.iter_mut().enumerate() {
            let env = LocalEnv {
                dataset: &train,
                indices: &indices[i],
                model,
                epochs: 1,
                batch_size: BatchSize::Size(16),
                learning_rate: 0.1,
                seed: i as u64,
            };
            algorithm.client_update(client, &theta, &env).unwrap();
        }
        let gap = optimality_gap(
            &clients,
            &theta,
            rho,
            model,
            &train,
            &mut UpdateScratch::default(),
        )
        .unwrap();
        assert!(gap.grad_theta_sq >= 0.0);
        assert!(gap.sum_grad_w_sq >= 0.0);
        assert!(gap.sum_consensus_sq > 0.0, "clients moved away from θ");
        assert!(gap.total().is_finite());
    }

    #[test]
    fn full_participation_fedadmm_reduces_the_gap() {
        // Theorem 1 bounds the running average of V_t; a coarse but
        // mechanically checkable consequence is that after several
        // full-participation rounds on an IID task the gap is far below its
        // value at the (untrained, far-from-stationary) initial point.
        let (train, model, indices) = fixture(4, 40);
        let d = model.num_params();
        let theta0 = ParamVector::zeros(d);
        let mut clients: Vec<ClientState> = indices
            .iter()
            .enumerate()
            .map(|(i, idx)| ClientState::new(i, idx.clone(), &theta0))
            .collect();
        let rho = 0.3;
        let mut algorithm = FedAdmm::new(rho, ServerStepSize::Constant(1.0));
        let initial = optimality_gap(
            &clients,
            &theta0,
            rho,
            model,
            &train,
            &mut UpdateScratch::default(),
        )
        .unwrap();

        let mut theta = theta0.clone();
        let mut rng = StepRng::new(0, 1);
        for round in 0..8 {
            let mut messages = Vec::new();
            for (i, client) in clients.iter_mut().enumerate() {
                let env = LocalEnv {
                    dataset: &train,
                    indices: &indices[i],
                    model,
                    epochs: 2,
                    batch_size: BatchSize::Size(16),
                    learning_rate: 0.1,
                    seed: (round * 10 + i) as u64,
                };
                messages.push(algorithm.client_update(client, &theta, &env).unwrap());
            }
            algorithm.server_update(&mut theta, &messages, clients.len(), &mut rng);
        }
        let final_gap = optimality_gap(
            &clients,
            &theta,
            rho,
            model,
            &train,
            &mut UpdateScratch::default(),
        )
        .unwrap();
        assert!(
            final_gap.total() < initial.total(),
            "V_t did not decrease: {} -> {}",
            initial.total(),
            final_gap.total()
        );
    }
}
