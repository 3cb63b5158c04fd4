//! Federated partitioning of a dataset across clients.
//!
//! The paper studies three data distributions across clients:
//!
//! 1. **IID** — "data are evenly distributed to clients" ([`iid`]);
//! 2. **non-IID** — "we first arrange the training data by label and then
//!    distribute them evenly into shards: each client is assigned two
//!    shards uniformly at random" ([`shards_non_iid`]);
//! 3. **imbalanced volumes** (Table VI) — data sorted by label, split into
//!    10,000 shards, 200 clients divided into 100 groups, each member of a
//!    group gets as many shards as its group index ([`imbalanced_groups`]).

use crate::dataset::Dataset;
use rand::seq::SliceRandom;
use rand::Rng;

/// A partition of a dataset across `m` clients: client `i` owns the sample
/// indices in `clients[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    clients: Vec<Vec<usize>>,
}

impl Partition {
    /// Creates a partition from explicit per-client index lists.
    pub fn new(clients: Vec<Vec<usize>>) -> Self {
        Partition { clients }
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// Index list of client `i`.
    pub fn client(&self, i: usize) -> &[usize] {
        &self.clients[i]
    }

    /// Iterates over all per-client index lists.
    pub fn iter(&self) -> impl Iterator<Item = &Vec<usize>> {
        self.clients.iter()
    }

    /// Consumes the partition into its per-client index lists (how client
    /// stores are seeded — avoids cloning every list at million-client
    /// scale).
    pub fn into_client_indices(self) -> Vec<Vec<usize>> {
        self.clients
    }

    /// Per-client sample counts.
    pub fn sizes(&self) -> Vec<usize> {
        self.clients.iter().map(|c| c.len()).collect()
    }

    /// Mean and (population) standard deviation of client sizes — the
    /// statistics the paper reports in Table VI.
    pub fn size_stats(&self) -> (f64, f64) {
        if self.clients.is_empty() {
            return (0.0, 0.0);
        }
        let sizes = self.sizes();
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        let var = sizes
            .iter()
            .map(|&s| {
                let d = s as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / sizes.len() as f64;
        (mean, var.sqrt())
    }

    /// Number of distinct labels held by client `i`.
    pub fn distinct_labels(&self, i: usize, dataset: &Dataset) -> usize {
        let mut seen = vec![false; dataset.num_classes()];
        for &idx in &self.clients[i] {
            seen[dataset.label(idx)] = true;
        }
        seen.iter().filter(|&&s| s).count()
    }

    /// Average number of distinct labels per client — a simple measure of
    /// label skew (10 in the IID setting, ≈2 in the paper's non-IID setting).
    pub fn mean_distinct_labels(&self, dataset: &Dataset) -> f64 {
        if self.clients.is_empty() {
            return 0.0;
        }
        let total: usize = (0..self.num_clients())
            .map(|i| self.distinct_labels(i, dataset))
            .sum();
        total as f64 / self.num_clients() as f64
    }

    /// Verifies that no sample index is assigned to more than one client and
    /// all indices are in bounds. Returns the number of assigned samples.
    pub fn validate(&self, dataset_len: usize) -> Result<usize, String> {
        let mut seen = vec![false; dataset_len];
        let mut count = 0usize;
        for (client, indices) in self.clients.iter().enumerate() {
            for &idx in indices {
                if idx >= dataset_len {
                    return Err(format!("client {client} holds out-of-bounds index {idx}"));
                }
                if seen[idx] {
                    return Err(format!("sample {idx} assigned to more than one client"));
                }
                seen[idx] = true;
                count += 1;
            }
        }
        Ok(count)
    }

    /// The label histogram of client `i` (length = `dataset.num_classes()`).
    pub fn label_histogram(&self, i: usize, dataset: &Dataset) -> Vec<usize> {
        let mut hist = vec![0usize; dataset.num_classes()];
        for &idx in &self.clients[i] {
            hist[dataset.label(idx)] += 1;
        }
        hist
    }

    /// Mean total-variation distance between each client's label
    /// distribution and the global label distribution, a scalar measure of
    /// statistical heterogeneity in `[0, 1]`.
    ///
    /// An IID partition scores close to 0; the paper's two-shards-per-client
    /// partition of a balanced 10-class dataset scores close to 0.8 (each
    /// client holds 2 of the 10 classes). Empty clients are skipped.
    pub fn label_skew(&self, dataset: &Dataset) -> f64 {
        let classes = dataset.num_classes();
        if classes == 0 || self.clients.is_empty() {
            return 0.0;
        }
        let global_hist = dataset.class_histogram();
        let total: usize = global_hist.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let global: Vec<f64> = global_hist
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect();
        let mut sum = 0.0;
        let mut counted = 0usize;
        for i in 0..self.clients.len() {
            let n = self.clients[i].len();
            if n == 0 {
                continue;
            }
            let hist = self.label_histogram(i, dataset);
            let tv: f64 = hist
                .iter()
                .zip(global.iter())
                .map(|(&c, &g)| (c as f64 / n as f64 - g).abs())
                .sum::<f64>()
                / 2.0;
            sum += tv;
            counted += 1;
        }
        if counted == 0 {
            0.0
        } else {
            sum / counted as f64
        }
    }

    /// Ratio of the largest to the smallest (non-zero) client volume — a
    /// scalar measure of *quantity* skew. Returns 1.0 for a perfectly
    /// balanced partition and grows with imbalance.
    pub fn volume_imbalance(&self) -> f64 {
        let sizes: Vec<usize> = self.sizes().into_iter().filter(|&s| s > 0).collect();
        match (sizes.iter().max(), sizes.iter().min()) {
            (Some(&max), Some(&min)) if min > 0 => max as f64 / min as f64,
            _ => 1.0,
        }
    }
}

/// IID partition: shuffle all indices and split them evenly across
/// `num_clients` (the first `len % num_clients` clients get one extra
/// sample).
///
/// # Panics
/// Panics if `num_clients == 0`.
pub fn iid(dataset: &Dataset, num_clients: usize, rng: &mut impl Rng) -> Partition {
    assert!(num_clients > 0, "num_clients must be positive");
    let mut indices: Vec<usize> = (0..dataset.len()).collect();
    indices.shuffle(rng);
    let base = dataset.len() / num_clients;
    let extra = dataset.len() % num_clients;
    let mut clients = Vec::with_capacity(num_clients);
    let mut cursor = 0usize;
    for i in 0..num_clients {
        let size = base + usize::from(i < extra);
        clients.push(indices[cursor..cursor + size].to_vec());
        cursor += size;
    }
    Partition::new(clients)
}

/// The paper's non-IID partition: sort indices by label, split into
/// `shards_per_client * num_clients` equal shards, and hand each client
/// `shards_per_client` shards uniformly at random (the paper uses two).
///
/// # Panics
/// Panics if `num_clients == 0` or `shards_per_client == 0`.
pub fn shards_non_iid(
    dataset: &Dataset,
    num_clients: usize,
    shards_per_client: usize,
    rng: &mut impl Rng,
) -> Partition {
    assert!(num_clients > 0, "num_clients must be positive");
    assert!(shards_per_client > 0, "shards_per_client must be positive");
    let mut indices: Vec<usize> = (0..dataset.len()).collect();
    indices.sort_by_key(|&i| dataset.label(i));

    let num_shards = num_clients * shards_per_client;
    let shard_size = dataset.len() / num_shards;
    // Shard order is randomised, then dealt round-robin so every client gets
    // exactly `shards_per_client` shards.
    let mut shard_ids: Vec<usize> = (0..num_shards).collect();
    shard_ids.shuffle(rng);

    let mut clients = vec![Vec::with_capacity(shards_per_client * shard_size); num_clients];
    for (pos, &shard) in shard_ids.iter().enumerate() {
        let client = pos % num_clients;
        let start = shard * shard_size;
        let end = if shard == num_shards - 1 {
            dataset.len()
        } else {
            start + shard_size
        };
        clients[client].extend_from_slice(&indices[start..end]);
    }
    Partition::new(clients)
}

/// The Table VI imbalanced-volume partition.
///
/// Data are sorted by label and divided into `num_shards` equally sized
/// shards. Clients are divided evenly into `num_groups` groups; every member
/// of group `g` (1-based) receives `g` shards, except that the last group
/// collects all remaining shards. With the paper's numbers (200 clients, 100
/// groups, 10,000 shards) this produces client volumes from 5 samples up to
/// thousands, with the mean/stdev reported in Table VI.
///
/// # Panics
/// Panics if any of the counts is zero or `num_clients % num_groups != 0`.
pub fn imbalanced_groups(
    dataset: &Dataset,
    num_clients: usize,
    num_groups: usize,
    num_shards: usize,
    rng: &mut impl Rng,
) -> Partition {
    assert!(num_clients > 0 && num_groups > 0 && num_shards > 0);
    assert!(
        num_clients.is_multiple_of(num_groups),
        "clients must divide evenly into groups (paper: 200 clients, 100 groups)"
    );
    let mut indices: Vec<usize> = (0..dataset.len()).collect();
    indices.sort_by_key(|&i| dataset.label(i));

    let shard_size = (dataset.len() / num_shards).max(1);
    let mut shard_ids: Vec<usize> = (0..num_shards).collect();
    shard_ids.shuffle(rng);

    let group_size = num_clients / num_groups;
    let mut clients: Vec<Vec<usize>> = vec![Vec::new(); num_clients];
    let mut cursor = 0usize;
    'outer: for group in 1..=num_groups {
        for member in 0..group_size {
            let client = (group - 1) * group_size + member;
            for _ in 0..group {
                if cursor >= shard_ids.len() {
                    break 'outer;
                }
                let shard = shard_ids[cursor];
                cursor += 1;
                let start = shard * shard_size;
                let end = ((shard + 1) * shard_size).min(dataset.len());
                clients[client].extend_from_slice(&indices[start..end]);
            }
        }
    }
    // The last client collects the remaining shards (the paper: "except for
    // the last group that collects the remaining data").
    if cursor < shard_ids.len() {
        let last = num_clients - 1;
        for &shard in &shard_ids[cursor..] {
            let start = shard * shard_size;
            let end = ((shard + 1) * shard_size).min(dataset.len());
            clients[last].extend_from_slice(&indices[start..end]);
        }
    }
    Partition::new(clients)
}

/// Quantity-skew partition: IID label composition but power-law client
/// volumes (extension).
///
/// Client `i` receives a share of the data proportional to
/// `(i + 1)^{-gamma}` (after shuffling client order), so `gamma = 0`
/// recovers the balanced IID partition while larger `gamma` concentrates
/// data on a few clients — the "imbalanced data volumes" axis of the paper's
/// Table VI isolated from its label skew. Every client receives at least one
/// sample as long as the dataset is large enough.
///
/// # Panics
/// Panics if `num_clients == 0` or `gamma < 0`.
pub fn quantity_skew(
    dataset: &Dataset,
    num_clients: usize,
    gamma: f64,
    rng: &mut impl Rng,
) -> Partition {
    assert!(num_clients > 0, "num_clients must be positive");
    assert!(gamma >= 0.0, "the power-law exponent must be non-negative");
    let n = dataset.len();
    let mut indices: Vec<usize> = (0..n).collect();
    indices.shuffle(rng);

    // Power-law weights over a shuffled client order (so that client id does
    // not correlate with volume).
    let mut order: Vec<usize> = (0..num_clients).collect();
    order.shuffle(rng);
    let weights: Vec<f64> = (0..num_clients)
        .map(|rank| ((rank + 1) as f64).powf(-gamma))
        .collect();
    let total_weight: f64 = weights.iter().sum();

    // Give every client one guaranteed sample (when possible), then split the
    // remainder proportionally to the weights.
    let guaranteed = num_clients.min(n);
    let remaining = n - guaranteed;
    let mut counts = vec![0usize; num_clients];
    for c in counts.iter_mut().take(guaranteed) {
        *c = 1;
    }
    let mut assigned = 0usize;
    for (rank, &w) in weights.iter().enumerate() {
        let extra = if rank + 1 == num_clients {
            remaining - assigned
        } else {
            (((w / total_weight) * remaining as f64).floor() as usize).min(remaining - assigned)
        };
        counts[rank] += extra;
        assigned += extra;
    }

    let mut clients = vec![Vec::new(); num_clients];
    let mut cursor = 0usize;
    for (rank, &client) in order.iter().enumerate() {
        let take = counts[rank].min(n - cursor);
        clients[client] = indices[cursor..cursor + take].to_vec();
        cursor += take;
    }
    Partition::new(clients)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticDataset;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn toy_dataset(n: usize) -> Dataset {
        // n samples, 1 feature, 10 classes, labels round-robin.
        let features: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let labels: Vec<usize> = (0..n).map(|i| i % 10).collect();
        Dataset::new(features, labels, 1, 10).unwrap()
    }

    #[test]
    fn iid_covers_all_samples_evenly() {
        let d = toy_dataset(103);
        let mut rng = SmallRng::seed_from_u64(0);
        let p = iid(&d, 10, &mut rng);
        assert_eq!(p.num_clients(), 10);
        assert_eq!(p.validate(d.len()).unwrap(), 103);
        let sizes = p.sizes();
        assert_eq!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap(), 1);
    }

    #[test]
    fn iid_clients_see_most_classes() {
        let d = toy_dataset(1000);
        let mut rng = SmallRng::seed_from_u64(1);
        let p = iid(&d, 10, &mut rng);
        assert!(p.mean_distinct_labels(&d) > 9.0);
    }

    #[test]
    fn shards_non_iid_two_labels_per_client() {
        // 1000 samples, 10 classes sorted by label, 50 clients × 2 shards:
        // each shard holds a single label, so clients see at most 2 labels.
        let d = toy_dataset(1000);
        let mut rng = SmallRng::seed_from_u64(2);
        let p = shards_non_iid(&d, 50, 2, &mut rng);
        assert_eq!(p.num_clients(), 50);
        assert_eq!(p.validate(d.len()).unwrap(), 1000);
        for i in 0..p.num_clients() {
            assert!(
                p.distinct_labels(i, &d) <= 2,
                "client {i} sees too many labels"
            );
        }
        assert!(p.mean_distinct_labels(&d) <= 2.0);
    }

    #[test]
    fn shards_non_iid_is_much_more_skewed_than_iid() {
        let (train, _) = SyntheticDataset::Mnist.generate(500, 10, 0);
        let mut rng = SmallRng::seed_from_u64(3);
        let p_iid = iid(&train, 20, &mut rng);
        let p_noniid = shards_non_iid(&train, 20, 2, &mut rng);
        assert!(p_iid.mean_distinct_labels(&train) > p_noniid.mean_distinct_labels(&train) + 3.0);
    }

    #[test]
    fn imbalanced_groups_match_paper_statistics() {
        // Paper Table VI (FMNIST): 200 clients, 60,000 samples, mean 300.
        // We use a scaled-down version with the same construction: the mean
        // must equal total/clients and the standard deviation must be large
        // (heavily imbalanced).
        let d = toy_dataset(10_000);
        let mut rng = SmallRng::seed_from_u64(4);
        let p = imbalanced_groups(&d, 200, 100, 10_000 / 5, &mut rng);
        assert_eq!(p.validate(d.len()).unwrap(), 10_000);
        let (mean, stdev) = p.size_stats();
        assert!((mean - 50.0).abs() < 1e-9, "mean {mean}");
        // The paper's ratio stdev/mean ≈ 0.57; the group construction gives a
        // similar strongly imbalanced spread.
        assert!(
            stdev > 0.4 * mean,
            "stdev {stdev} too small for mean {mean}"
        );
    }

    #[test]
    fn imbalanced_groups_last_client_collects_remainder() {
        let d = toy_dataset(1000);
        let mut rng = SmallRng::seed_from_u64(5);
        let p = imbalanced_groups(&d, 10, 5, 100, &mut rng);
        assert_eq!(p.validate(d.len()).unwrap(), 1000);
        // Group sizes 1..=5 over 10 clients consume 2*(1+2+3+4+5)=30 shards;
        // the remaining 70 shards all land on the last client.
        let sizes = p.sizes();
        assert!(sizes[9] > sizes[0] * 10);
    }

    #[test]
    fn validate_detects_duplicates_and_oob() {
        let p = Partition::new(vec![vec![0, 1], vec![1]]);
        assert!(p.validate(3).unwrap_err().contains("more than one"));
        let p = Partition::new(vec![vec![5]]);
        assert!(p.validate(3).unwrap_err().contains("out-of-bounds"));
    }

    #[test]
    fn size_stats_simple() {
        let p = Partition::new(vec![vec![0, 1, 2], vec![3]]);
        let (mean, stdev) = p.size_stats();
        assert_eq!(mean, 2.0);
        assert_eq!(stdev, 1.0);
    }

    #[test]
    fn label_histogram_counts_per_class() {
        let d = toy_dataset(100);
        let p = Partition::new(vec![(0..20).collect(), (20..100).collect()]);
        let hist = p.label_histogram(0, &d);
        assert_eq!(hist.len(), 10);
        assert_eq!(hist.iter().sum::<usize>(), 20);
        // Labels are round-robin, so the first 20 samples hold 2 per class.
        assert!(hist.iter().all(|&c| c == 2));
    }

    #[test]
    fn label_skew_separates_iid_from_shard_partitions() {
        let d = toy_dataset(1000);
        let mut rng = SmallRng::seed_from_u64(9);
        let p_iid = iid(&d, 20, &mut rng);
        let p_shards = shards_non_iid(&d, 20, 2, &mut rng);
        let skew_iid = p_iid.label_skew(&d);
        let skew_shards = p_shards.label_skew(&d);
        // 50 samples per client leave some sampling noise; IID skew stays low
        // but not exactly zero.
        assert!(skew_iid < 0.3, "IID skew should be small, got {skew_iid}");
        // Two of ten classes per client → TV distance 1 − 2/10 = 0.8.
        assert!(
            (skew_shards - 0.8).abs() < 0.1,
            "shard skew was {skew_shards}"
        );
        assert!(skew_shards > skew_iid + 0.3);
    }

    #[test]
    fn label_skew_handles_empty_partitions() {
        let d = toy_dataset(50);
        let p = Partition::new(vec![Vec::new(), Vec::new()]);
        assert_eq!(p.label_skew(&d), 0.0);
    }

    #[test]
    fn volume_imbalance_measures_quantity_skew() {
        let balanced = Partition::new(vec![vec![0, 1], vec![2, 3]]);
        assert_eq!(balanced.volume_imbalance(), 1.0);
        let skewed = Partition::new(vec![vec![0, 1, 2, 3, 4, 5], vec![6], Vec::new()]);
        assert_eq!(skewed.volume_imbalance(), 6.0);
    }

    #[test]
    fn quantity_skew_zero_gamma_is_balanced() {
        let d = toy_dataset(200);
        let mut rng = SmallRng::seed_from_u64(10);
        let p = quantity_skew(&d, 10, 0.0, &mut rng);
        assert_eq!(p.validate(200).unwrap(), 200);
        assert!(p.volume_imbalance() < 1.3);
        // Label composition stays (roughly) IID — well below the 0.8 of the
        // shard partition (20 samples per client leave sampling noise).
        assert!(p.label_skew(&d) < 0.4);
    }

    #[test]
    fn quantity_skew_concentrates_data_with_large_gamma() {
        let d = toy_dataset(500);
        let mut rng = SmallRng::seed_from_u64(11);
        let p = quantity_skew(&d, 10, 1.5, &mut rng);
        assert_eq!(p.validate(500).unwrap(), 500);
        assert!(
            p.volume_imbalance() > 10.0,
            "imbalance was {}",
            p.volume_imbalance()
        );
        // Every client still owns at least one sample.
        assert!(p.sizes().iter().all(|&s| s > 0));
    }

    #[test]
    fn quantity_skew_is_deterministic_in_seed() {
        let d = toy_dataset(300);
        let a = quantity_skew(&d, 8, 1.0, &mut SmallRng::seed_from_u64(3));
        let b = quantity_skew(&d, 8, 1.0, &mut SmallRng::seed_from_u64(3));
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The quantity-skew partition is an exact partition for any gamma:
        /// all samples assigned, no duplicates, no empty clients when
        /// n ≥ num_clients.
        #[test]
        fn prop_quantity_skew_is_exact_partition(
            n in 100usize..400,
            clients in 2usize..20,
            gamma in 0.0f64..2.5,
            seed in 0u64..1000,
        ) {
            let d = toy_dataset(n);
            let mut rng = SmallRng::seed_from_u64(seed);
            let p = quantity_skew(&d, clients, gamma, &mut rng);
            prop_assert_eq!(p.validate(n).unwrap(), n);
            prop_assert!(p.sizes().iter().all(|&s| s > 0));
        }

        /// Label skew is always a value in [0, 1].
        #[test]
        fn prop_label_skew_is_bounded(
            n in 50usize..300,
            clients in 2usize..10,
            seed in 0u64..1000,
        ) {
            let d = toy_dataset(n);
            let mut rng = SmallRng::seed_from_u64(seed);
            for p in [iid(&d, clients, &mut rng), shards_non_iid(&d, clients, 2, &mut rng)] {
                let skew = p.label_skew(&d);
                prop_assert!((0.0..=1.0).contains(&skew));
            }
        }

        /// Both IID and shard partitions are exact partitions: every sample
        /// is assigned to exactly one client.
        #[test]
        fn prop_partitions_are_disjoint_and_near_complete(
            n in 100usize..400,
            clients in 2usize..20,
            seed in 0u64..1000,
        ) {
            let d = toy_dataset(n);
            let mut rng = SmallRng::seed_from_u64(seed);
            let p1 = iid(&d, clients, &mut rng);
            prop_assert_eq!(p1.validate(n).unwrap(), n);
            let p2 = shards_non_iid(&d, clients, 2, &mut rng);
            let assigned = p2.validate(n).unwrap();
            // Shard partitions may drop at most (num_shards - 1) remainder
            // samples when n is not divisible by the shard count — never more.
            prop_assert!(assigned >= n - 2 * clients);
        }

        /// The shard partition never gives a client more labels than shards.
        #[test]
        fn prop_shard_partition_label_bound(
            clients in 2usize..15,
            shards_per_client in 1usize..4,
            seed in 0u64..1000,
        ) {
            let d = toy_dataset(600);
            let mut rng = SmallRng::seed_from_u64(seed);
            let p = shards_non_iid(&d, clients, shards_per_client, &mut rng);
            // Each label owns 60 consecutive sorted samples; a shard of size s
            // can straddle at most s/60 + 1 labels, so a client holding
            // `shards_per_client` shards sees at most that many per shard.
            let shard_size = 600 / (clients * shards_per_client);
            let labels_per_shard = shard_size / 60 + 2;
            for i in 0..p.num_clients() {
                prop_assert!(p.distinct_labels(i, &d) <= labels_per_shard * shards_per_client);
            }
        }
    }
}
