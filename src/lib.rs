//! # fedadmm
//!
//! A from-scratch Rust reproduction of **FedADMM: A Robust Federated Deep
//! Learning Framework with Adaptivity to System Heterogeneity** (Gong, Li,
//! Freris — ICDE 2022), including the FedADMM algorithm itself, the
//! baselines it is evaluated against (FedSGD, FedAvg, FedProx, SCAFFOLD),
//! and every substrate the evaluation needs: a dense-tensor /
//! neural-network training stack, synthetic federated datasets with the
//! paper's partitioning schemes, a round-based simulation engine, and an
//! experiment harness regenerating each table and figure.
//!
//! This crate is a façade that re-exports the workspace members:
//!
//! * [`tensor`] — dense f32 tensors, matmul, conv2d, pooling
//!   (`fedadmm-tensor`);
//! * [`nn`] — layers, the paper's CNN 1 / CNN 2, losses, SGD (`fedadmm-nn`);
//! * [`data`] — synthetic MNIST/FMNIST/CIFAR-10 stand-ins and federated
//!   partitioners (`fedadmm-data`);
//! * [`clientstore`] — sharded / spill-to-disk client-state storage and
//!   hierarchical aggregation for million-client rounds
//!   (`fedadmm-clientstore`);
//! * [`core`] — the algorithms, the federated simulation engine and its
//!   device model, which times every scheduler on one virtual clock, and
//!   the upload transforms of its wire path: quantization and differential
//!   privacy (update clipping, Gaussian noise and a zCDP accountant)
//!   (`fedadmm-core`);
//! * [`telemetry`] — structured tracing, a metrics registry and the event
//!   hook the engine reports through (`fedadmm-telemetry`).
//!
//! ## Quickstart
//!
//! ```
//! use fedadmm::prelude::*;
//!
//! // Ten clients, non-IID data, the paper's FedADMM with ρ = 0.01 and η = 1.
//! let config = FedConfig {
//!     num_clients: 10,
//!     participation: Participation::Fraction(0.2),
//!     local_epochs: 2,
//!     system_heterogeneity: true,
//!     batch_size: BatchSize::Size(16),
//!     local_learning_rate: 0.1,
//!     model: ModelSpec::Logistic { input_dim: 784, num_classes: 10 },
//!     seed: 1,
//!     eval_subset: usize::MAX,
//! };
//! let (train, test) = SyntheticDataset::Mnist.generate(300, 100, 1);
//! let partition = DataDistribution::NonIidShards.partition(&train, config.num_clients, 1);
//! let mut sim = RoundEngine::new(config, train, test, partition, FedAdmm::paper_default(), SyncRounds).unwrap();
//! sim.run_rounds(3).unwrap();
//! assert_eq!(sim.history().len(), 3);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use fedadmm_clientstore as clientstore;
pub use fedadmm_core as core;
pub use fedadmm_data as data;
pub use fedadmm_nn as nn;
pub use fedadmm_telemetry as telemetry;
pub use fedadmm_tensor as tensor;

/// One-stop imports for applications built on the reproduction.
pub mod prelude {
    pub use fedadmm_core::prelude::*;
    pub use fedadmm_data::synthetic::{SyntheticConfig, SyntheticDataset};
    pub use fedadmm_data::Dataset;
    pub use fedadmm_nn::models::ModelSpec;
    pub use fedadmm_tensor::Tensor;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_are_usable() {
        let spec = ModelSpec::Logistic {
            input_dim: 4,
            num_classes: 2,
        };
        assert_eq!(spec.num_params(), 10);
        let t = Tensor::zeros(&[2, 2]);
        assert_eq!(t.len(), 4);
        assert_eq!(SyntheticDataset::Mnist.num_classes(), 10);
        // The benchmark reaches the DP mechanism through this prelude.
        let mechanism = GaussianMechanism::new(1.0, 0.0);
        let mut update = [3.0f32, 4.0];
        mechanism.privatize(&mut update, 0);
        assert_eq!(update, [0.6, 0.8]);
        let mut accountant = PrivacyAccountant::new(1.0, 1.0, 1e-5);
        accountant.step(2);
        assert_eq!(accountant.spent().rounds, 2);
        assert_eq!(accountant.spent().rho_zcdp, 1.0);
    }
}
