//! Per-client state.

use crate::param::ParamVector;

/// The state a simulated client carries across rounds.
///
/// The paper's Algorithm 1 requires each FedADMM client to *store* its local
/// model `w_i` and dual variable `y_i` between the rounds in which it is
/// selected ("ClientUpdate(i, θ): // Store wi and yi"). Every other
/// stateful method needs the same two vectors: a model and one correction.
/// Primal-only methods (FedSGD, FedAvg, FedProx) ignore the correction.
#[derive(Debug, Clone)]
pub struct ClientState {
    /// Client identifier in `0..m`.
    pub id: usize,
    /// Indices into the shared training set owned by this client.
    pub indices: Vec<usize>,
    /// Local primal model `w_i` (initialised to the initial global model).
    pub local_model: ParamVector,
    /// The algorithm's per-client correction: `y_i` (FedADMM), `h_i`
    /// (FedDyn), `c_i` (SCAFFOLD). Zero-initialised, per the paper and as
    /// its Section V-A states for SCAFFOLD's control variate.
    pub dual: ParamVector,
    /// How many times this client has been selected so far.
    pub times_selected: usize,
}

impl ClientState {
    /// Creates the initial state of client `id` owning `indices`, with all
    /// vectors of dimension `d`. The local model starts at `initial_model`
    /// and the correction starts at zero.
    pub fn new(id: usize, indices: Vec<usize>, initial_model: &ParamVector) -> Self {
        let d = initial_model.len();
        ClientState {
            id,
            indices,
            local_model: initial_model.clone(),
            dual: ParamVector::zeros(d),
            times_selected: 0,
        }
    }

    /// Number of local samples `n_i`.
    pub fn num_samples(&self) -> usize {
        self.indices.len()
    }

    /// The augmented model `u_i = w_i + y_i / ρ` of equation (4).
    pub fn augmented_model(&self, rho: f32) -> ParamVector {
        let mut u = self.local_model.clone();
        u.axpy(1.0 / rho, &self.dual);
        u
    }

    /// Whether this state is still the initial (never-trained) state for
    /// `initial_model`: local model at the initial θ, zero correction,
    /// never selected. Sharded stores drop such states back to their
    /// implicit representation instead of keeping them resident.
    pub fn is_pristine(&self, initial_model: &ParamVector) -> bool {
        self.times_selected == 0
            && self.local_model == *initial_model
            && self.dual.as_slice().iter().all(|&x| x == 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_client_starts_at_global_model_with_zero_dual() {
        let theta = ParamVector::from_vec(vec![1.0, -2.0, 3.0]);
        let c = ClientState::new(4, vec![1, 2, 3, 5], &theta);
        assert_eq!(c.id, 4);
        assert_eq!(c.num_samples(), 4);
        assert_eq!(c.local_model, theta);
        assert_eq!(c.dual, ParamVector::zeros(3));
        assert_eq!(c.times_selected, 0);
        assert!(c.is_pristine(&theta));
    }

    #[test]
    fn augmented_model_formula() {
        let theta = ParamVector::from_vec(vec![1.0, 2.0]);
        let mut c = ClientState::new(0, vec![], &theta);
        c.dual = ParamVector::from_vec(vec![0.5, -1.0]);
        let u = c.augmented_model(0.5);
        // u = w + y/ρ = [1, 2] + [0.5, -1]/0.5 = [2, 0]
        assert_eq!(u.as_slice(), &[2.0, 0.0]);
        assert!(!c.is_pristine(&theta));
    }

    #[test]
    fn augmented_model_with_zero_dual_is_local_model() {
        let theta = ParamVector::from_vec(vec![3.0, 4.0]);
        let c = ClientState::new(0, vec![0], &theta);
        assert_eq!(c.augmented_model(0.01), theta);
    }
}
