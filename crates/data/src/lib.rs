//! # fedadmm-data
//!
//! Datasets and federated partitioning for the FedADMM reproduction.
//!
//! The paper evaluates on MNIST, Fashion-MNIST and CIFAR-10. Those datasets
//! cannot be downloaded in this offline environment, so this crate provides
//! deterministic **synthetic class-conditional image generators** with the
//! same tensor shapes (1×28×28 flattened to 784, and 3×32×32 flattened to
//! 3,072), ten classes, and tunable difficulty (see
//! [`synthetic::SyntheticDataset`]). The phenomena the paper studies —
//! client drift under label-skewed partitions, sensitivity to ρ/η/E,
//! scaling with the client population — are driven by **how labels are
//! partitioned across clients**, which this crate reproduces exactly:
//!
//! * [`partition::iid`] — data shuffled and split evenly (the paper's IID
//!   setting),
//! * [`partition::shards_non_iid`] — data sorted by label, split into
//!   `2·m` shards, two shards per client (the paper's non-IID setting),
//! * [`partition::imbalanced_groups`] — the Table VI imbalanced-volume
//!   setting (10,000 shards, clients grouped, shard count = group index).
//!
//! [`batching::BatchIterator`] reproduces the paper's local batching
//! (`B = 10 / 50 / 200 / ∞`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batching;
pub mod dataset;
pub mod partition;
pub mod synthetic;

pub use dataset::Dataset;
pub use partition::Partition;
pub use synthetic::{SyntheticConfig, SyntheticDataset};
