//! # fedadmm-core
//!
//! The federated-learning framework reproducing *FedADMM: A Robust
//! Federated Deep Learning Framework with Adaptivity to System
//! Heterogeneity* (Gong, Li, Freris — ICDE 2022).
//!
//! The crate provides:
//!
//! * [`algorithms`] — the paper's contribution, [`algorithms::FedAdmm`]
//!   (Algorithm 1), and every baseline it is evaluated against:
//!   [`algorithms::FedSgd`], [`algorithms::FedAvg`], [`algorithms::FedProx`],
//!   [`algorithms::Scaffold`];
//! * [`client`] — per-client state (local model `w_i`, one correction slot
//!   holding FedADMM's `y_i`, FedDyn's `h_i` or SCAFFOLD's `c_i`, local
//!   data view);
//! * [`selection`] — client-selection schemes (uniform-random fraction `C`,
//!   fixed per-client probabilities, bursty Markov availability, full
//!   participation);
//! * [`heterogeneity`] — system-heterogeneity models: how much work each
//!   client does (the paper draws each client's local epoch count uniformly
//!   from `{1..E}`) and how fast its device does it (the device model
//!   behind the engine's virtual clock);
//! * [`trainer`] — the shared local SGD solver with pluggable gradient
//!   corrections (proximal term, dual variable, control variates) and the
//!   exact local gradient, both running on a cached network and reusable
//!   buffers — the one path every gradient takes;
//! * [`engine`] — the unified simulation engine: one [`engine::RoundEngine`]
//!   drives rounds through a pluggable [`engine::Scheduler`]
//!   ([`engine::SyncRounds`], [`engine::BufferedAsync`],
//!   [`engine::SemiAsync`]);
//! * [`compression`] and [`privacy`] — the upload transforms of the
//!   engine's wire path: stochastic quantization, and update clipping +
//!   Gaussian noise with a zCDP accountant;
//! * [`metrics`] — per-round records, communication accounting and
//!   rounds-to-target-accuracy summaries;
//! * [`diagnostics`] — the V_t optimality-gap function of equation (7),
//!   used to monitor convergence the same way the paper's analysis does.
//!
//! ## Quickstart
//!
//! ```
//! use fedadmm_core::engine::{RoundEngine, SyncRounds};
//! use fedadmm_core::prelude::*;
//! use fedadmm_data::synthetic::SyntheticDataset;
//! use fedadmm_nn::models::ModelSpec;
//!
//! // A deliberately tiny configuration so the doctest runs in milliseconds;
//! // the examples/ use paper-scale settings.
//! let config = FedConfig {
//!     num_clients: 10,
//!     participation: Participation::Fraction(0.3),
//!     local_epochs: 2,
//!     batch_size: BatchSize::Size(16),
//!     local_learning_rate: 0.1,
//!     model: ModelSpec::Logistic { input_dim: 784, num_classes: 10 },
//!     seed: 7,
//!     ..FedConfig::default()
//! };
//! let (train, test) = SyntheticDataset::Mnist.generate(200, 50, 7);
//! let partition = DataDistribution::Iid.partition(&train, config.num_clients, 7);
//! let algorithm = FedAdmm::new(0.01, ServerStepSize::Constant(1.0));
//! let mut engine =
//!     RoundEngine::new(config, train, test, partition, algorithm, SyncRounds).unwrap();
//! let history = engine.run_rounds(3).unwrap();
//! assert_eq!(history.len(), 3);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod algorithms;
pub mod client;
pub mod compression;
pub mod config;
pub mod diagnostics;
pub mod drift;
pub mod engine;
pub mod heterogeneity;
pub mod metrics;
pub mod param;
pub mod privacy;
pub mod selection;
pub mod solver;
pub mod theory;
pub mod trainer;

/// Convenient re-exports of the types most experiments need.
pub mod prelude {
    pub use crate::algorithms::{
        Algorithm, FedAdmm, FedAvg, FedDyn, FedProx, FedSgd, FoldPlan, LocalInit, Scaffold,
        ServerStepSize,
    };
    pub use crate::client::ClientState;
    pub use crate::compression::Quantizer;
    pub use crate::config::{DataDistribution, FedConfig, Participation};
    pub use crate::drift::DriftReport;
    pub use crate::engine::{
        AggregationMode, AsyncConfig, AsyncRecord, BufferedAsync, DispatchConfig, RoundEngine,
        Scheduler, SemiAsync, SemiAsyncConfig, StalenessWeight, SyncEngine, SyncRounds, WirePath,
        WirePathConfig,
    };
    pub use crate::heterogeneity::{Device, DeviceModel, Link, LocalWorkSchedule};
    pub use crate::metrics::{RoundRecord, RunHistory};
    pub use crate::param::ParamVector;
    pub use crate::privacy::{GaussianMechanism, PrivacyAccountant, PrivacySpent};
    pub use crate::selection::ClientSelector;
    pub use crate::solver::LocalSolver;
    pub use fedadmm_clientstore::{
        ClientStateStore, ShardMap, ShardedStore, StoreConfig, StoreStats,
    };
    pub use fedadmm_data::batching::BatchSize;
    pub use fedadmm_telemetry::{Event, NoTelemetry, Recorder, RoundSummary, Telemetry};
}
