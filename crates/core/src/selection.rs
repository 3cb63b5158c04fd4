//! Client-selection schemes.
//!
//! The paper emphasises that FedADMM converges under *any* activation
//! scheme that selects every client with non-zero probability (Theorem 1 /
//! Remark 2). The experiments select a uniform-random 10% of clients each
//! round ([`UniformFraction`]); [`FixedProbabilities`] models the more
//! general per-client-probability scheme used in the analysis,
//! [`MarkovAvailability`] bursty device availability, and
//! [`FullParticipation`] is what FedPD requires.
//!
//! Every selector returns its cohort sorted ascending, which is what the
//! engine's client-state store needs to materialize shards in O(selected):
//! `ShardMap::group` converts a cohort into shard-local index runs without
//! touching the `m − |S_t|` inactive clients.

use rand::seq::SliceRandom;
use rand::Rng;

/// A client-selection scheme: given the population size and a round RNG,
/// produces the set `S_t ⊆ [m]` of active clients.
pub trait ClientSelector: Send + Sync {
    /// Selects the active clients for one round. The returned indices are
    /// distinct and in `0..num_clients`.
    fn select(&self, num_clients: usize, rng: &mut dyn rand::RngCore) -> Vec<usize>;

    /// Short human-readable description used in logs.
    fn describe(&self) -> String;
}

/// Selects a fixed number of clients uniformly at random without
/// replacement (the paper's `C·m` clients per round).
#[derive(Debug, Clone, Copy)]
pub struct UniformFraction {
    /// Number of clients to select each round.
    pub count: usize,
}

impl UniformFraction {
    /// Creates a selector that picks `count` clients per round.
    pub fn new(count: usize) -> Self {
        UniformFraction { count }
    }
}

impl ClientSelector for UniformFraction {
    fn select(&self, num_clients: usize, rng: &mut dyn rand::RngCore) -> Vec<usize> {
        let count = self.count.clamp(1, num_clients.max(1));
        let mut ids: Vec<usize> = (0..num_clients).collect();
        ids.shuffle(rng);
        ids.truncate(count);
        ids.sort_unstable();
        ids
    }

    fn describe(&self) -> String {
        format!("uniform-random {} clients/round", self.count)
    }
}

/// Every client participates in every round (required by FedPD; also used
/// to stress-test the aggregation rules).
#[derive(Debug, Clone, Copy, Default)]
pub struct FullParticipation;

impl ClientSelector for FullParticipation {
    fn select(&self, num_clients: usize, _rng: &mut dyn rand::RngCore) -> Vec<usize> {
        (0..num_clients).collect()
    }

    fn describe(&self) -> String {
        "full participation".to_string()
    }
}

/// Each client participates independently with its own probability `p_i`
/// (the general activation scheme of Theorem 1). If no client is sampled,
/// the highest-probability client is activated so that a round is never
/// empty.
#[derive(Debug, Clone)]
pub struct FixedProbabilities {
    probabilities: Vec<f64>,
}

impl FixedProbabilities {
    /// Creates a selector with one participation probability per client.
    ///
    /// # Panics
    /// Panics if any probability is outside `[0, 1]` or all are zero.
    pub fn new(probabilities: Vec<f64>) -> Self {
        assert!(
            probabilities.iter().all(|&p| (0.0..=1.0).contains(&p)),
            "probabilities must lie in [0, 1]"
        );
        assert!(
            probabilities.iter().any(|&p| p > 0.0),
            "at least one client must have non-zero participation probability \
             (infinitely-often participation is required for convergence)"
        );
        FixedProbabilities { probabilities }
    }
}

impl ClientSelector for FixedProbabilities {
    fn select(&self, num_clients: usize, rng: &mut dyn rand::RngCore) -> Vec<usize> {
        let n = num_clients.min(self.probabilities.len());
        let mut selected: Vec<usize> = (0..n)
            .filter(|&i| rng.gen_bool(self.probabilities[i]))
            .collect();
        if selected.is_empty() {
            // Guarantee progress: activate the most available client.
            let best = (0..n)
                .max_by(|&a, &b| {
                    self.probabilities[a]
                        .partial_cmp(&self.probabilities[b])
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .unwrap_or(0);
            selected.push(best);
        }
        selected
    }

    fn describe(&self) -> String {
        format!(
            "per-client probabilities ({} clients)",
            self.probabilities.len()
        )
    }
}

/// Deterministic round-robin selection: round `t` activates clients
/// `{(t·k) mod m, …, (t·k + k − 1) mod m}`.
///
/// This is the simplest scheme that satisfies the *infinitely often*
/// participation requirement of Remark 2 without any randomness — every
/// client is selected exactly once every `⌈m/k⌉` rounds. It is used by the
/// failure-injection tests to show FedADMM makes progress under fully
/// deterministic, adversarially ordered activation.
#[derive(Debug, Default)]
pub struct RoundRobin {
    /// Number of clients activated per round.
    pub per_round: usize,
    cursor: std::sync::atomic::AtomicUsize,
}

impl RoundRobin {
    /// Creates a round-robin selector that activates `per_round` clients per
    /// round.
    pub fn new(per_round: usize) -> Self {
        RoundRobin {
            per_round,
            cursor: std::sync::atomic::AtomicUsize::new(0),
        }
    }
}

impl ClientSelector for RoundRobin {
    fn select(&self, num_clients: usize, _rng: &mut dyn rand::RngCore) -> Vec<usize> {
        let k = self.per_round.clamp(1, num_clients.max(1));
        let start = self
            .cursor
            .fetch_add(k, std::sync::atomic::Ordering::Relaxed);
        let mut ids: Vec<usize> = (0..k).map(|j| (start + j) % num_clients.max(1)).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    fn describe(&self) -> String {
        format!("round-robin {} clients/round", self.per_round)
    }
}

/// Time-varying participation probabilities `p_i^t = p_i / (1 + t/τ)`.
///
/// Remark 2 of the paper: convergence only needs `Σ_t p_i^t = ∞` (clients
/// participate infinitely often). A harmonic decay satisfies that condition
/// while modelling networks whose availability degrades over time — the
/// integration tests use it to exercise the weakest participation regime the
/// analysis covers.
#[derive(Debug)]
pub struct DecayingProbabilities {
    base: Vec<f64>,
    tau: f64,
    round: std::sync::atomic::AtomicUsize,
}

impl DecayingProbabilities {
    /// Creates the selector with per-client base probabilities and decay
    /// time-constant `tau` (in rounds).
    ///
    /// # Panics
    /// Panics if any base probability is outside `(0, 1]` or `tau <= 0`.
    pub fn new(base: Vec<f64>, tau: f64) -> Self {
        assert!(
            base.iter().all(|&p| p > 0.0 && p <= 1.0),
            "base probabilities must lie in (0, 1] so that participation is infinitely often"
        );
        assert!(tau > 0.0, "the decay time constant must be positive");
        DecayingProbabilities {
            base,
            tau,
            round: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// The probability client `i` participates at round `t`.
    pub fn probability_at(&self, client: usize, round: usize) -> f64 {
        self.base[client % self.base.len()] / (1.0 + round as f64 / self.tau)
    }
}

impl ClientSelector for DecayingProbabilities {
    fn select(&self, num_clients: usize, rng: &mut dyn rand::RngCore) -> Vec<usize> {
        let t = self
            .round
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let n = num_clients.min(self.base.len());
        let mut selected: Vec<usize> = (0..n)
            .filter(|&i| rng.gen_bool(self.probability_at(i, t)))
            .collect();
        if selected.is_empty() {
            // Never return an empty round: fall back to the client with the
            // highest current probability (same guarantee as
            // `FixedProbabilities`).
            let best = (0..n)
                .max_by(|&a, &b| {
                    self.probability_at(a, t)
                        .partial_cmp(&self.probability_at(b, t))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .unwrap_or(0);
            selected.push(best);
        }
        selected
    }

    fn describe(&self) -> String {
        format!(
            "decaying probabilities (τ = {} rounds, {} clients)",
            self.tau,
            self.base.len()
        )
    }
}

/// Bursty availability: every client is a two-state Markov chain, stepped
/// once per round, and every client that is online participates.
///
/// An online client goes offline with probability `p_fail`, an offline one
/// comes back with probability `p_recover`, so unavailability is correlated
/// over time — a device that lost connectivity stays away for a while —
/// unlike the memoryless [`FixedProbabilities`]. `p_recover > 0` brings
/// every client back infinitely often (Remark 2). All clients start online;
/// a round in which none is online activates one drawn uniformly, so a
/// round is never empty.
#[derive(Debug)]
pub struct MarkovAvailability {
    p_fail: f64,
    p_recover: f64,
    online: std::sync::Mutex<Vec<bool>>,
}

impl MarkovAvailability {
    /// Creates the availability process.
    ///
    /// # Panics
    /// Panics if a probability is outside `[0, 1]` or `p_recover == 0`.
    pub fn new(p_fail: f64, p_recover: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_fail) && (0.0..=1.0).contains(&p_recover),
            "p_fail and p_recover must lie in [0, 1]"
        );
        assert!(
            p_recover > 0.0,
            "p_recover = 0 would let clients go offline forever, violating the \
             infinitely-often participation requirement"
        );
        MarkovAvailability {
            p_fail,
            p_recover,
            online: std::sync::Mutex::new(Vec::new()),
        }
    }
}

impl ClientSelector for MarkovAvailability {
    fn select(&self, num_clients: usize, rng: &mut dyn rand::RngCore) -> Vec<usize> {
        let mut online = self.online.lock().expect("availability lock");
        online.resize(num_clients, true);
        for state in online.iter_mut() {
            *state = if *state {
                !rng.gen_bool(self.p_fail)
            } else {
                rng.gen_bool(self.p_recover)
            };
        }
        let selected: Vec<usize> = (0..num_clients).filter(|&i| online[i]).collect();
        if selected.is_empty() && num_clients > 0 {
            return vec![rng.gen_range(0..num_clients)];
        }
        selected
    }

    fn describe(&self) -> String {
        format!(
            "Markov availability (p_fail {}, p_recover {})",
            self.p_fail, self.p_recover
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedadmm_clientstore::ShardMap;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn uniform_fraction_selects_exact_count() {
        let sel = UniformFraction::new(10);
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..20 {
            let s = sel.select(100, &mut rng);
            assert_eq!(s.len(), 10);
            let unique: HashSet<_> = s.iter().collect();
            assert_eq!(unique.len(), 10);
            assert!(s.iter().all(|&i| i < 100));
        }
    }

    #[test]
    fn uniform_fraction_clamps_to_population() {
        let sel = UniformFraction::new(50);
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(sel.select(5, &mut rng).len(), 5);
        let sel0 = UniformFraction::new(0);
        assert_eq!(sel0.select(5, &mut rng).len(), 1);
    }

    #[test]
    fn uniform_fraction_covers_all_clients_eventually() {
        // Every client must have non-zero selection probability — the
        // infinitely-often participation requirement of Theorem 1.
        let sel = UniformFraction::new(3);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seen = HashSet::new();
        for _ in 0..300 {
            seen.extend(sel.select(10, &mut rng));
        }
        assert_eq!(seen.len(), 10);
    }

    #[test]
    fn full_participation_selects_everyone() {
        let sel = FullParticipation;
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(sel.select(7, &mut rng), vec![0, 1, 2, 3, 4, 5, 6]);
        assert!(sel.describe().contains("full"));
    }

    #[test]
    fn fixed_probabilities_respects_zero_probability() {
        let sel = FixedProbabilities::new(vec![0.0, 1.0, 0.5]);
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..50 {
            let s = sel.select(3, &mut rng);
            assert!(!s.contains(&0));
            assert!(s.contains(&1));
        }
    }

    #[test]
    fn fixed_probabilities_never_returns_empty() {
        let sel = FixedProbabilities::new(vec![0.001, 0.002]);
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..100 {
            assert!(!sel.select(2, &mut rng).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "non-zero participation")]
    fn fixed_probabilities_rejects_all_zero() {
        FixedProbabilities::new(vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "must lie in")]
    fn fixed_probabilities_rejects_out_of_range() {
        FixedProbabilities::new(vec![1.5]);
    }

    #[test]
    fn round_robin_covers_every_client_in_order() {
        let sel = RoundRobin::new(3);
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(sel.select(10, &mut rng), vec![0, 1, 2]);
        assert_eq!(sel.select(10, &mut rng), vec![3, 4, 5]);
        assert_eq!(sel.select(10, &mut rng), vec![6, 7, 8]);
        // Wraps around and keeps covering everyone (infinitely often).
        let fourth = sel.select(10, &mut rng);
        assert!(fourth.contains(&9));
        let mut seen: HashSet<usize> = HashSet::new();
        for _ in 0..10 {
            seen.extend(sel.select(10, &mut rng));
        }
        assert_eq!(seen.len(), 10);
        assert!(sel.describe().contains("round-robin"));
    }

    #[test]
    fn round_robin_clamps_per_round_to_population() {
        let sel = RoundRobin::new(100);
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(sel.select(4, &mut rng), vec![0, 1, 2, 3]);
    }

    #[test]
    fn decaying_probabilities_decay_but_never_reach_zero() {
        let sel = DecayingProbabilities::new(vec![0.8; 4], 10.0);
        assert!((sel.probability_at(0, 0) - 0.8).abs() < 1e-12);
        assert!((sel.probability_at(0, 10) - 0.4).abs() < 1e-12);
        assert!(sel.probability_at(0, 10_000) > 0.0);
        // Selection still always returns at least one client even deep into
        // the decay.
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..200 {
            assert!(!sel.select(4, &mut rng).is_empty());
        }
        assert!(sel.describe().contains("decaying"));
    }

    #[test]
    fn decaying_probabilities_participation_thins_over_time() {
        let sel = DecayingProbabilities::new(vec![1.0; 10], 5.0);
        let mut rng = SmallRng::seed_from_u64(6);
        let early: usize = (0..5).map(|_| sel.select(10, &mut rng).len()).sum();
        // Skip ahead.
        for _ in 0..100 {
            sel.select(10, &mut rng);
        }
        let late: usize = (0..5).map(|_| sel.select(10, &mut rng).len()).sum();
        assert!(late < early, "late {late} !< early {early}");
    }

    #[test]
    #[should_panic(expected = "infinitely often")]
    fn decaying_probabilities_reject_zero_base() {
        DecayingProbabilities::new(vec![0.0, 0.5], 10.0);
    }

    #[test]
    fn markov_availability_is_bursty_but_recovers() {
        // Steady state p_recover / (p_fail + p_recover) = 0.75.
        let sel = MarkovAvailability::new(0.1, 0.3);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut ever_available: HashSet<usize> = HashSet::new();
        let mut total = 0usize;
        let rounds = 400;
        for _ in 0..rounds {
            let online = sel.select(50, &mut rng);
            total += online.len();
            ever_available.extend(online);
        }
        // Every client comes back eventually (infinitely-often participation).
        assert_eq!(ever_available.len(), 50);
        let rate = total as f64 / (rounds * 50) as f64;
        assert!((rate - 0.75).abs() < 0.05, "empirical availability {rate}");
        // A chain that always fails still runs one client a round.
        let flaky = MarkovAvailability::new(1.0, 1e-9);
        flaky.select(5, &mut rng);
        assert_eq!(flaky.select(5, &mut rng).len(), 1);
    }

    #[test]
    #[should_panic(expected = "infinitely-often")]
    fn markov_without_recovery_is_rejected() {
        MarkovAvailability::new(0.5, 0.0);
    }

    #[test]
    fn cohorts_group_into_shard_local_runs() {
        // 100 clients over 10 shards of 10: the grouped runs partition the
        // cohort, stay within shard bounds, and name only touched shards.
        let map = ShardMap::new(100, 10);
        let sel = UniformFraction::new(12);
        let mut rng = SmallRng::seed_from_u64(7);
        let cohort = sel.select(100, &mut rng);
        let runs = map.group(&cohort).unwrap();
        let mut covered = 0;
        for (shard, range) in &runs {
            assert!(!range.is_empty());
            for &id in &cohort[range.clone()] {
                assert_eq!(map.shard_of(id), *shard);
            }
            covered += range.len();
        }
        assert_eq!(covered, cohort.len());
        assert!(runs.len() <= cohort.len());
    }

    #[test]
    fn all_selectors_emit_ascending_cohorts() {
        // The store's with_states contract requires strictly-ascending ids;
        // every selector must uphold it.
        let mut rng = SmallRng::seed_from_u64(8);
        let selectors: Vec<Box<dyn ClientSelector>> = vec![
            Box::new(UniformFraction::new(5)),
            Box::new(FullParticipation),
            Box::new(FixedProbabilities::new(vec![0.5; 20])),
            Box::new(RoundRobin::new(4)),
            Box::new(DecayingProbabilities::new(vec![0.6; 20], 50.0)),
            Box::new(MarkovAvailability::new(0.3, 0.4)),
        ];
        for sel in &selectors {
            for _ in 0..20 {
                let cohort = sel.select(20, &mut rng);
                assert!(
                    cohort.windows(2).all(|w| w[0] < w[1]),
                    "{} emitted a non-ascending cohort {cohort:?}",
                    sel.describe()
                );
            }
        }
    }

    #[test]
    fn uniform_selection_is_reasonably_uniform() {
        let sel = UniformFraction::new(1);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut counts = vec![0usize; 5];
        for _ in 0..5000 {
            counts[sel.select(5, &mut rng)[0]] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "counts {counts:?}");
        }
    }
}
