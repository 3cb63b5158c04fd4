//! Experiment configuration shared by every algorithm.

use fedadmm_data::batching::BatchSize;
use fedadmm_data::partition::{self, Partition};
use fedadmm_data::Dataset;
use fedadmm_nn::models::ModelSpec;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// How many clients participate in a round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Participation {
    /// A fraction `C` of the population is selected uniformly at random
    /// each round (the paper uses `C = 0.1` everywhere).
    Fraction(f64),
    /// A fixed number of clients selected uniformly at random each round.
    Count(usize),
    /// Every client participates every round (needed by FedPD).
    Full,
}

impl Participation {
    /// Resolves to a concrete number of clients for a population of `m`.
    pub fn num_selected(&self, m: usize) -> usize {
        match *self {
            Participation::Fraction(c) => ((m as f64 * c).round() as usize).clamp(1, m),
            Participation::Count(k) => k.clamp(1, m),
            Participation::Full => m,
        }
    }
}

/// How the training data is distributed across clients (Section V-A of the
/// paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataDistribution {
    /// Evenly distributed, shuffled (the paper's IID setting).
    Iid,
    /// Label-sorted, split into `2m` shards, two shards per client (the
    /// paper's non-IID setting).
    NonIidShards,
    /// The Table VI imbalanced-volume setting: label-sorted shards, clients
    /// grouped, shard count equal to the group index.
    ImbalancedGroups {
        /// Number of client groups (paper: 100 groups of 200 clients).
        num_groups: usize,
        /// Total number of shards (paper: 10,000).
        num_shards: usize,
    },
}

impl DataDistribution {
    /// Builds the partition of `dataset` across `num_clients` clients.
    pub fn partition(&self, dataset: &Dataset, num_clients: usize, seed: u64) -> Partition {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5151_5151);
        match *self {
            DataDistribution::Iid => partition::iid(dataset, num_clients, &mut rng),
            DataDistribution::NonIidShards => {
                partition::shards_non_iid(dataset, num_clients, 2, &mut rng)
            }
            DataDistribution::ImbalancedGroups {
                num_groups,
                num_shards,
            } => {
                partition::imbalanced_groups(dataset, num_clients, num_groups, num_shards, &mut rng)
            }
        }
    }

    /// Short label used in reports ("IID" / "non-IID" / "imbalanced").
    pub fn label(&self) -> &'static str {
        match self {
            DataDistribution::Iid => "IID",
            DataDistribution::NonIidShards => "non-IID",
            DataDistribution::ImbalancedGroups { .. } => "imbalanced",
        }
    }
}

/// Configuration of a federated training run.
///
/// Field names follow the paper's notation: `E` (local epochs), `B` (local
/// batch size), `C` (participation fraction), `η_i` (client learning rate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedConfig {
    /// Total number of clients `m`.
    pub num_clients: usize,
    /// How many clients are selected per round.
    pub participation: Participation,
    /// Maximum number of local epochs `E`.
    pub local_epochs: usize,
    /// Whether clients draw their epoch count uniformly from `{1..E}`
    /// (system heterogeneity, applied to FedADMM and FedProx in the paper)
    /// or always run exactly `E` epochs.
    pub system_heterogeneity: bool,
    /// Local mini-batch size `B`.
    pub batch_size: BatchSize,
    /// Client SGD learning rate `η_i`.
    pub local_learning_rate: f32,
    /// Model architecture trained by every client.
    pub model: ModelSpec,
    /// Base RNG seed; every round/client derives its own stream from it.
    pub seed: u64,
    /// Number of test samples used for the per-round evaluation
    /// (`usize::MAX` = use the full test set).
    pub eval_subset: usize,
}

impl Default for FedConfig {
    fn default() -> Self {
        FedConfig {
            num_clients: 100,
            participation: Participation::Fraction(0.1),
            local_epochs: 5,
            system_heterogeneity: false,
            batch_size: BatchSize::Size(200),
            local_learning_rate: 0.1,
            model: ModelSpec::Mlp {
                input_dim: 784,
                hidden_dim: 64,
                num_classes: 10,
            },
            seed: 0,
            eval_subset: usize::MAX,
        }
    }
}

impl FedConfig {
    /// Number of clients selected each round under this configuration.
    pub fn clients_per_round(&self) -> usize {
        self.participation.num_selected(self.num_clients)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedadmm_data::synthetic::SyntheticDataset;

    #[test]
    fn participation_resolution() {
        assert_eq!(Participation::Fraction(0.1).num_selected(100), 10);
        assert_eq!(Participation::Fraction(0.1).num_selected(5), 1);
        assert_eq!(Participation::Fraction(2.0).num_selected(10), 10);
        assert_eq!(Participation::Count(7).num_selected(100), 7);
        assert_eq!(Participation::Count(700).num_selected(100), 100);
        assert_eq!(Participation::Full.num_selected(42), 42);
    }

    #[test]
    fn default_matches_paper_mnist_100_setting() {
        let c = FedConfig::default();
        assert_eq!(c.num_clients, 100);
        assert_eq!(c.clients_per_round(), 10);
        assert_eq!(c.local_epochs, 5);
        assert_eq!(c.batch_size, BatchSize::Size(200));
    }

    #[test]
    fn distribution_partitioning() {
        let (train, _) = SyntheticDataset::Mnist.generate(200, 10, 0);
        let iid = DataDistribution::Iid.partition(&train, 10, 1);
        assert_eq!(iid.num_clients(), 10);
        assert_eq!(iid.validate(train.len()).unwrap(), 200);
        let noniid = DataDistribution::NonIidShards.partition(&train, 10, 1);
        assert!(noniid.mean_distinct_labels(&train) < iid.mean_distinct_labels(&train));
        assert_eq!(DataDistribution::Iid.label(), "IID");
        assert_eq!(DataDistribution::NonIidShards.label(), "non-IID");
    }

    #[test]
    fn partition_is_deterministic_in_seed() {
        let (train, _) = SyntheticDataset::Mnist.generate(100, 10, 0);
        let a = DataDistribution::NonIidShards.partition(&train, 5, 3);
        let b = DataDistribution::NonIidShards.partition(&train, 5, 3);
        assert_eq!(a, b);
        let c = DataDistribution::NonIidShards.partition(&train, 5, 4);
        assert_ne!(a, c);
    }
}
