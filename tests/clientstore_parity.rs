//! Client-state store behaviour.
//!
//! The store must be invisible to the simulation semantics: a seeded run is
//! *bit-exact* across the three `StoreConfig` spellings of the one lazily
//! sharded store — `InMemory` (⌈√m⌉ shards), `Sharded` at any shard count,
//! and `Spill` (even with a budget tiny enough to force evictions every
//! round). The parity table in `tests/engine_parity.rs` pins that on the
//! golden scenario, client state included; the proptest here widens it to
//! arbitrary seeds, shard counts and budgets. The focused tests check what
//! the store does on the way: it materializes only selected clients, spills
//! and reloads under pressure, and keeps its budget.
//!
//! Hierarchical aggregation is the one deliberate departure from
//! bit-exactness (float addition is not associative), so it is compared
//! with the single pass under a tolerance.

mod common;

use common::{run_digest, state_digest, Scenario};
use fedadmm::prelude::*;
use proptest::prelude::*;

/// This file's setting: a quarter of the clients per round, variable local
/// work, 24 label-skewed training samples per client and 90 test samples.
const fn scenario(clients: usize, seed: u64) -> Scenario {
    Scenario {
        participation: 0.25,
        heterogeneity: true,
        train: clients * 24,
        test: 90,
        distribution: DataDistribution::NonIidShards,
        ..Scenario::new(clients, seed)
    }
}

/// Runs `rounds` FedADMM rounds of `scenario` on `store`: the history
/// (timing zeroed), the run digest, every client's state and the store's
/// counters.
fn run_on(
    store: &StoreConfig,
    scenario: Scenario,
    rounds: usize,
) -> (RunHistory, u64, Vec<ClientState>, StoreStats) {
    let mut engine = scenario.engine_with(FedAdmm::paper_default(), SyncRounds, store);
    engine.run_rounds(rounds).unwrap();
    let digest = run_digest(engine.history(), engine.global_model());
    let states = engine.clients().unwrap();
    let stats = engine.store().stats();
    let mut history = engine.into_history();
    for record in history.records.iter_mut() {
        record.elapsed_ms = 0;
    }
    (history, digest, states, stats)
}

#[test]
fn sharded_store_materializes_only_the_selected_clients() {
    // The never-selected clients are never materialized, yet `clients()`
    // returns all of them, in id order, at θ⁰ with a zero dual.
    let sharded = StoreConfig::Sharded { num_shards: 5 };
    let (_, _, states, stats) = run_on(&sharded, scenario(16, 11), 4);
    let theta0 = scenario(16, 11)
        .engine(FedAdmm::paper_default())
        .global_model()
        .clone();
    let ids: Vec<usize> = states.iter().map(|s| s.id).collect();
    assert_eq!(ids, (0..16).collect::<Vec<_>>());
    let untouched: Vec<&ClientState> = states.iter().filter(|s| s.times_selected == 0).collect();
    assert!(!untouched.is_empty(), "4 rounds of 4 leave someone out");
    assert_eq!(stats.materializations as usize, 16 - untouched.len());
    for state in untouched {
        assert_eq!(state.local_model, theta0);
        assert!(state.dual.as_slice().iter().all(|v| v.to_bits() == 0));
    }
}

#[test]
fn spill_store_round_trips_state_through_disk_under_pressure() {
    // A ~100 KB budget holds ~3 clients of a 7850-parameter model: every
    // round must evict, spill and reload shards.
    let spill = StoreConfig::Spill {
        num_shards: 8,
        budget_bytes: 100 * 1024,
        dir: None,
    };
    let (_, _, _, stats) = run_on(&spill, scenario(16, 12), 4);
    assert!(stats.evictions > 0, "the tiny budget must force evictions");
    assert!(
        stats.spill_writes > 0 && stats.spill_loads > 0,
        "trained state must round-trip through disk: {stats:?}"
    );
}

#[test]
fn a_materialized_client_holds_two_vectors() {
    // After one FedADMM round the store holds the CSR index (m + 1 offsets
    // and every sample index) and, for each client the round materialized,
    // `w_i` and its correction slot, its owned index list and the struct.
    let mut engine = scenario(16, 15).engine(FedAdmm::paper_default());
    engine.run_round().unwrap();
    let d = engine.global_model().len();
    let states = engine.clients().unwrap();
    let word = std::mem::size_of::<usize>();
    let samples: usize = states.iter().map(ClientState::num_samples).sum();
    let index_bytes = (states.len() + 1 + samples) * word;
    let selected: Vec<&ClientState> = states.iter().filter(|s| s.times_selected > 0).collect();
    let client_bytes: usize = selected
        .iter()
        .map(|s| 2 * d * 4 + s.num_samples() * word + std::mem::size_of::<ClientState>())
        .sum();
    assert_eq!(
        engine.store().stats().materializations as usize,
        selected.len()
    );
    assert_eq!(
        engine.store().resident_bytes(),
        (index_bytes + client_bytes) as u64
    );
}

#[test]
fn spill_store_respects_budget_between_rounds() {
    let budget = 100 * 1024;
    let spill = StoreConfig::Spill {
        num_shards: 8,
        budget_bytes: budget,
        dir: None,
    };
    let mut engine = scenario(16, 13).engine_with(FedAdmm::paper_default(), SyncRounds, &spill);
    for _ in 0..3 {
        engine.run_round().unwrap();
        // The budget is enforced between borrows; one shard of slack covers
        // the shard that must stay resident for the cohort in flight.
        let resident = engine.store().resident_bytes();
        let per_shard_slack = 3 * budget;
        assert!(
            resident <= per_shard_slack,
            "resident {resident} bytes far exceeds budget {budget}"
        );
    }
}

#[test]
fn hierarchical_aggregation_tracks_single_pass_within_tolerance() {
    // Three FedADMM rounds over four shards under each fold.
    let run = |mode: AggregationMode| {
        let store = StoreConfig::Sharded { num_shards: 4 };
        let mut engine = scenario(16, 14)
            .engine_with(FedAdmm::paper_default(), SyncRounds, &store)
            .with_aggregation(mode);
        engine.run_rounds(3).unwrap();
        engine.global_model().clone()
    };
    let single = run(AggregationMode::SinglePass);
    let tree = run(AggregationMode::Hierarchical);
    // Same mathematical sum, different association: last-ulp differences
    // only.
    let rel = single.dist(&tree) / single.norm().max(1e-12);
    assert!(rel < 1e-4, "relative deviation {rel}");
    // And not trivially equal-because-unused: the runs trained.
    assert!(single.norm() > 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Same seed ⇒ identical `RunHistory` and bit-identical client state,
    /// for arbitrary shard counts and (small) spill budgets.
    #[test]
    fn any_backend_round_trips_client_state_bit_exactly(
        seed in 0u64..64,
        num_shards in 1usize..9,
        budget_kb in 60u64..400,
    ) {
        let run = |store: &StoreConfig| {
            let (history, digest, states, _) = run_on(store, scenario(12, seed), 2);
            (history, digest, state_digest(&states))
        };
        let in_memory = run(&StoreConfig::InMemory);
        prop_assert_eq!(&in_memory, &run(&StoreConfig::Sharded { num_shards }));
        let spill = StoreConfig::Spill {
            num_shards,
            budget_bytes: budget_kb * 1024,
            dir: None,
        };
        prop_assert_eq!(&in_memory, &run(&spill));
    }
}
