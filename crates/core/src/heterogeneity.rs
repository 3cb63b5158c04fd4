//! System-heterogeneity models.
//!
//! The paper captures variable computational capability across clients by
//! "letting each client select the local epoch number uniformly between 1
//! and E in FedADMM as well as in FedProx. The number of local epochs for
//! FedAvg and SCAFFOLD are fixed to be E" (Section V-A). This module
//! expresses exactly that choice and also provides a deterministic
//! per-client schedule for persistent stragglers.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// How many local epochs a selected client runs in a given round.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LocalWorkSchedule {
    /// Every client always runs exactly `E` epochs (FedAvg / SCAFFOLD in the
    /// paper's protocol).
    Fixed(usize),
    /// Each selected client independently draws its epoch count uniformly
    /// from `{1, ..., E}` each round (system heterogeneity; FedADMM and
    /// FedProx in the paper's protocol).
    UniformRandom(usize),
    /// A fixed per-client epoch count (client `i` always runs
    /// `epochs[i % epochs.len()]` epochs) — models persistent speed
    /// differences between devices.
    PerClient(Vec<usize>),
}

impl LocalWorkSchedule {
    /// Builds the schedule the paper uses for a given algorithm:
    /// heterogeneous work when `system_heterogeneity` is on, otherwise the
    /// fixed maximum.
    pub fn from_config(max_epochs: usize, system_heterogeneity: bool) -> Self {
        if system_heterogeneity {
            LocalWorkSchedule::UniformRandom(max_epochs.max(1))
        } else {
            LocalWorkSchedule::Fixed(max_epochs.max(1))
        }
    }

    /// The epoch count for `client` in this round.
    pub fn epochs_for(&self, client: usize, rng: &mut impl Rng) -> usize {
        match self {
            LocalWorkSchedule::Fixed(e) => (*e).max(1),
            LocalWorkSchedule::UniformRandom(e) => rng.gen_range(1..=(*e).max(1)),
            LocalWorkSchedule::PerClient(epochs) => {
                if epochs.is_empty() {
                    1
                } else {
                    epochs[client % epochs.len()].max(1)
                }
            }
        }
    }

    /// The maximum number of epochs this schedule can produce.
    pub fn max_epochs(&self) -> usize {
        match self {
            LocalWorkSchedule::Fixed(e) | LocalWorkSchedule::UniformRandom(e) => (*e).max(1),
            LocalWorkSchedule::PerClient(epochs) => {
                epochs.iter().copied().max().unwrap_or(1).max(1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn fixed_always_returns_e() {
        let s = LocalWorkSchedule::Fixed(5);
        let mut rng = SmallRng::seed_from_u64(0);
        for c in 0..20 {
            assert_eq!(s.epochs_for(c, &mut rng), 5);
        }
        assert_eq!(s.max_epochs(), 5);
    }

    #[test]
    fn uniform_random_stays_in_range_and_varies() {
        let s = LocalWorkSchedule::UniformRandom(20);
        let mut rng = SmallRng::seed_from_u64(1);
        let draws: Vec<usize> = (0..200).map(|c| s.epochs_for(c, &mut rng)).collect();
        assert!(draws.iter().all(|&e| (1..=20).contains(&e)));
        assert!(draws.iter().collect::<std::collections::HashSet<_>>().len() > 10);
        let mean = draws.iter().sum::<usize>() as f64 / draws.len() as f64;
        assert!((mean - 10.5).abs() < 1.5, "mean {mean}");
    }

    #[test]
    fn per_client_schedule_is_deterministic() {
        let s = LocalWorkSchedule::PerClient(vec![1, 2, 3]);
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(s.epochs_for(0, &mut rng), 1);
        assert_eq!(s.epochs_for(1, &mut rng), 2);
        assert_eq!(s.epochs_for(2, &mut rng), 3);
        assert_eq!(s.epochs_for(3, &mut rng), 1);
        assert_eq!(s.max_epochs(), 3);
    }

    #[test]
    fn degenerate_inputs_clamp_to_one_epoch() {
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(LocalWorkSchedule::Fixed(0).epochs_for(0, &mut rng), 1);
        assert_eq!(
            LocalWorkSchedule::UniformRandom(0).epochs_for(0, &mut rng),
            1
        );
        assert_eq!(
            LocalWorkSchedule::PerClient(vec![]).epochs_for(0, &mut rng),
            1
        );
        assert_eq!(LocalWorkSchedule::PerClient(vec![]).max_epochs(), 1);
    }

    #[test]
    fn from_config_matches_paper_protocol() {
        assert_eq!(
            LocalWorkSchedule::from_config(20, true),
            LocalWorkSchedule::UniformRandom(20)
        );
        assert_eq!(
            LocalWorkSchedule::from_config(20, false),
            LocalWorkSchedule::Fixed(20)
        );
    }
}
