//! [`PrivateAlgorithm`]: differential privacy as an algorithm adapter.
//!
//! Wrapping keeps the underlying algorithm untouched: `PrivateAlgorithm`
//! forwards [`Algorithm::client_update_scratch`] — worker scratch included
//! — to the inner method and then clips and noises every vector of the
//! returned payload, exactly as a real client would before uploading. Because the FedADMM/FedAvg/FedProx server
//! updates only consume averages of the payloads, the added noise averages
//! down with `|S_t|` while each individual upload enjoys the Gaussian
//! mechanism's guarantee.
//!
//! The per-client noise seed is derived from the local-training seed the
//! simulation already assigns per `(round, client)`, so private runs remain
//! exactly reproducible.

use crate::dp::GaussianMechanism;
use fedadmm_core::algorithms::{Algorithm, ClientMessage, ServerOutcome, UpdateScratch};
use fedadmm_core::client::ClientState;
use fedadmm_core::param::ParamVector;
use fedadmm_core::trainer::LocalEnv;
use fedadmm_tensor::TensorResult;

/// Wraps any federated algorithm and privatizes its uploads.
#[derive(Debug, Clone)]
pub struct PrivateAlgorithm<A> {
    inner: A,
    mechanism: GaussianMechanism,
}

impl<A: Algorithm> PrivateAlgorithm<A> {
    /// Wraps `inner` so that every uploaded vector is clipped to
    /// `mechanism.clip_norm` and perturbed with Gaussian noise of multiplier
    /// `mechanism.noise_multiplier`.
    pub fn new(inner: A, mechanism: GaussianMechanism) -> Self {
        PrivateAlgorithm { inner, mechanism }
    }

    /// The wrapped algorithm.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// The privacy mechanism in use.
    pub fn mechanism(&self) -> GaussianMechanism {
        self.mechanism
    }
}

impl<A: Algorithm> Algorithm for PrivateAlgorithm<A> {
    fn name(&self) -> &'static str {
        // A static name is required by the trait; the wrapped algorithm's
        // name remains available through `inner().name()`.
        "DP-wrapped"
    }

    fn init(&mut self, dim: usize, num_clients: usize) {
        self.inner.init(dim, num_clients);
    }

    fn requires_full_participation(&self) -> bool {
        self.inner.requires_full_participation()
    }

    fn supports_variable_work(&self) -> bool {
        self.inner.supports_variable_work()
    }

    fn upload_floats_per_client(&self, dim: usize) -> usize {
        self.inner.upload_floats_per_client(dim)
    }

    fn client_update_scratch(
        &self,
        client: &mut ClientState,
        global: &ParamVector,
        env: &LocalEnv<'_>,
        scratch: &mut UpdateScratch,
    ) -> TensorResult<ClientMessage> {
        let mut message = self
            .inner
            .client_update_scratch(client, global, env, scratch)?;
        for (k, payload) in message.payload.iter_mut().enumerate() {
            let mut raw = std::mem::replace(payload, ParamVector::zeros(0)).into_vec();
            // One noise stream per (round, client, payload index); env.seed
            // is already unique per (round, client).
            let seed = env.seed ^ 0xD1FF_BEEF_u64.rotate_left(k as u32);
            self.mechanism.privatize(&mut raw, seed);
            *payload = ParamVector::from_vec(raw);
        }
        Ok(message)
    }

    fn server_update(
        &mut self,
        global: &mut ParamVector,
        messages: &[ClientMessage],
        num_clients: usize,
        rng: &mut dyn rand::RngCore,
    ) -> ServerOutcome {
        self.inner.server_update(global, messages, num_clients, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedadmm_core::algorithms::{FedAdmm, FedAvg, ServerStepSize};
    use fedadmm_core::config::{DataDistribution, FedConfig, Participation};
    use fedadmm_core::engine::{RoundEngine, SyncRounds};
    use fedadmm_data::batching::BatchSize;
    use fedadmm_data::synthetic::SyntheticDataset;
    use fedadmm_nn::models::ModelSpec;

    fn config(num_clients: usize, seed: u64) -> FedConfig {
        FedConfig {
            num_clients,
            participation: Participation::Fraction(0.5),
            local_epochs: 2,
            system_heterogeneity: false,
            batch_size: BatchSize::Size(16),
            local_learning_rate: 0.1,
            model: ModelSpec::Logistic {
                input_dim: 784,
                num_classes: 10,
            },
            seed,
            eval_subset: usize::MAX,
        }
    }

    #[test]
    fn wrapper_preserves_the_inner_algorithm_metadata() {
        let alg = PrivateAlgorithm::new(
            FedAdmm::new(0.3, ServerStepSize::Constant(1.0)),
            GaussianMechanism::new(1.0, 0.1),
        );
        assert_eq!(alg.inner().name(), "FedADMM");
        assert_eq!(alg.name(), "DP-wrapped");
        assert!(!alg.requires_full_participation());
        assert!(alg.supports_variable_work());
        assert_eq!(alg.upload_floats_per_client(100), 100);
        assert_eq!(alg.mechanism().clip_norm, 1.0);
    }

    #[test]
    fn clipping_bounds_every_uploaded_vector() {
        // With noise disabled, every uploaded payload must have norm ≤ C.
        let clip = 0.5f32;
        let alg = PrivateAlgorithm::new(FedAvg::new(), GaussianMechanism::new(clip, 0.0));
        let cfg = config(6, 3);
        let (train, test) = SyntheticDataset::Mnist.generate(120, 30, 3);
        let partition = DataDistribution::Iid.partition(&train, 6, 3);
        let mut sim = RoundEngine::new(cfg, train, test, partition, alg, SyncRounds).unwrap();
        sim.run_round().unwrap();
        // FedAvg uploads the full model; after one round the (averaged)
        // global model is an average of clipped vectors, hence also ≤ C.
        assert!(sim.global_model().norm() <= clip + 1e-5);
    }

    #[test]
    fn noiseless_wrapper_with_huge_clip_is_equivalent_to_the_inner_algorithm() {
        let cfg = config(6, 5);
        let (train, test) = SyntheticDataset::Mnist.generate(120, 30, 5);
        let partition = DataDistribution::Iid.partition(&train, 6, 5);

        let mut plain = RoundEngine::new(
            cfg,
            train.clone(),
            test.clone(),
            partition.clone(),
            FedAdmm::new(0.3, ServerStepSize::Constant(1.0)),
            SyncRounds,
        )
        .unwrap();
        let mut wrapped = RoundEngine::new(
            cfg,
            train,
            test,
            partition,
            PrivateAlgorithm::new(
                FedAdmm::new(0.3, ServerStepSize::Constant(1.0)),
                GaussianMechanism::new(1e6, 0.0),
            ),
            SyncRounds,
        )
        .unwrap();
        plain.run_rounds(3).unwrap();
        wrapped.run_rounds(3).unwrap();
        assert!(
            plain.global_model().dist(wrapped.global_model()) < 1e-5,
            "a no-op mechanism must not change the trajectory"
        );
    }

    #[test]
    fn noise_changes_the_trajectory_but_small_noise_still_learns() {
        let cfg = config(8, 7);
        let (train, test) = SyntheticDataset::Mnist.generate(400, 100, 7);
        let partition = DataDistribution::Iid.partition(&train, 8, 7);

        let mut noisy = RoundEngine::new(
            cfg,
            train.clone(),
            test.clone(),
            partition.clone(),
            PrivateAlgorithm::new(
                FedAdmm::new(0.3, ServerStepSize::Constant(1.0)),
                GaussianMechanism::new(20.0, 1e-3),
            ),
            SyncRounds,
        )
        .unwrap();
        let mut plain = RoundEngine::new(
            cfg,
            train,
            test,
            partition,
            FedAdmm::new(0.3, ServerStepSize::Constant(1.0)),
            SyncRounds,
        )
        .unwrap();
        let (_, acc0) = noisy.evaluate_global().unwrap();
        noisy.run_rounds(8).unwrap();
        plain.run_rounds(8).unwrap();
        assert!(plain.global_model().dist(noisy.global_model()) > 1e-6);
        let best = noisy.history().best_accuracy();
        assert!(
            best > acc0 + 0.15,
            "private run failed to learn: {acc0} → {best}"
        );
    }

    #[test]
    fn private_runs_are_deterministic_in_the_seed() {
        let cfg = config(6, 11);
        let make = || {
            let (train, test) = SyntheticDataset::Mnist.generate(120, 30, 11);
            let partition = DataDistribution::Iid.partition(&train, 6, 11);
            RoundEngine::new(
                cfg,
                train,
                test,
                partition,
                PrivateAlgorithm::new(FedAvg::new(), GaussianMechanism::new(1.0, 0.05)),
                SyncRounds,
            )
            .unwrap()
        };
        let mut a = make();
        let mut b = make();
        a.run_rounds(2).unwrap();
        b.run_rounds(2).unwrap();
        assert_eq!(a.global_model(), b.global_model());
    }
}
