//! Client-state store parity.
//!
//! The store must be invisible to the simulation semantics: under the
//! default single-pass aggregation, a seeded run is *bit-exact* across the
//! three `StoreConfig` spellings of the one lazily sharded store — `InMemory`
//! (⌈√m⌉ shards), `Sharded` at any shard count, and `Spill` (even with a
//! budget tiny enough to force evictions every round). Per-client state —
//! dual variables, local models, selection counters — must survive spill
//! round trips unchanged.
//!
//! Hierarchical aggregation is the one deliberate departure from
//! bit-exactness (float addition is not associative), so it is compared
//! under a tolerance instead — against the single pass, that is: across
//! dispatch worker counts the tree fold itself is bit-exact.

use fedadmm::prelude::*;
use fedadmm_core::engine::{RoundEngine, WirePathConfig};
use proptest::prelude::*;

fn config(num_clients: usize, seed: u64) -> FedConfig {
    FedConfig {
        num_clients,
        participation: Participation::Fraction(0.25),
        local_epochs: 2,
        system_heterogeneity: true,
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

/// One client's persistent state reduced to raw bit patterns, so equality
/// means bit-exact round trips (not merely approximate ones).
type StateBits = (usize, usize, Vec<u32>, Vec<u32>, Vec<u32>);

fn state_bits(state: &ClientState) -> StateBits {
    let bits = |p: &ParamVector| -> Vec<u32> { p.as_slice().iter().map(|v| v.to_bits()).collect() };
    (
        state.id,
        state.times_selected,
        bits(&state.local_model),
        bits(&state.dual),
        bits(&state.control),
    )
}

/// Runs `rounds` FedADMM rounds over a non-IID split with the given store
/// backend, returning the history (timing zeroed), the global model bits
/// and every client's state bits.
fn run_with_store(
    store: &StoreConfig,
    seed: u64,
    num_clients: usize,
    rounds: usize,
) -> (RunHistory, Vec<u32>, Vec<StateBits>, StoreStats) {
    let cfg = config(num_clients, seed);
    let (train, test) = SyntheticDataset::Mnist.generate(num_clients * 24, 90, seed);
    let partition = DataDistribution::NonIidShards.partition(&train, num_clients, seed);
    let mut engine = RoundEngine::new_with_store(
        cfg,
        train,
        test,
        partition,
        FedAdmm::paper_default(),
        SyncRounds,
        store,
    )
    .unwrap();
    engine.run_rounds(rounds).unwrap();
    let global: Vec<u32> = engine
        .global_model()
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let states = engine.clients().unwrap().iter().map(state_bits).collect();
    let stats = engine.store().stats();
    let mut history = engine.into_history();
    for record in history.records.iter_mut() {
        record.elapsed_ms = 0;
    }
    (history, global, states, stats)
}

#[test]
fn sharded_store_is_bit_exact_across_shard_counts() {
    // `InMemory` is ⌈√16⌉ = 4 shards; the other run uses 5.
    let (h_mem, g_mem, s_mem, _) = run_with_store(&StoreConfig::InMemory, 11, 16, 4);
    let (h_sh, g_sh, s_sh, stats) =
        run_with_store(&StoreConfig::Sharded { num_shards: 5 }, 11, 16, 4);
    assert_eq!(h_mem, h_sh);
    assert_eq!(g_mem, g_sh);
    assert_eq!(s_mem, s_sh);
    // The store worked lazily: the never-selected clients were never
    // materialized, yet `clients()` returns all of them, in id order, at θ⁰
    // with a zero dual.
    let (_, theta0, _, _) = run_with_store(&StoreConfig::Sharded { num_shards: 5 }, 11, 16, 0);
    let ids: Vec<usize> = s_sh.iter().map(|s| s.0).collect();
    assert_eq!(ids, (0..16).collect::<Vec<_>>());
    let untouched: Vec<&StateBits> = s_sh.iter().filter(|s| s.1 == 0).collect();
    assert!(!untouched.is_empty(), "4 rounds of 4 leave someone out");
    assert_eq!(stats.materializations as usize, 16 - untouched.len());
    for (_, _, local_model, dual, _) in untouched {
        assert_eq!(local_model, &theta0);
        assert!(dual.iter().all(|&bits| bits == 0));
    }
}

#[test]
fn spill_store_matches_in_memory_bit_exactly_even_under_pressure() {
    let (h_mem, g_mem, s_mem, _) = run_with_store(&StoreConfig::InMemory, 12, 16, 4);
    // A ~100 KB budget holds ~3 clients of a 7850-parameter model: every
    // round must evict, spill and reload shards.
    let spill = StoreConfig::Spill {
        num_shards: 8,
        budget_bytes: 100 * 1024,
        dir: None,
    };
    let (h_sp, g_sp, s_sp, stats) = run_with_store(&spill, 12, 16, 4);
    assert_eq!(h_mem, h_sp);
    assert_eq!(g_mem, g_sp);
    assert_eq!(s_mem, s_sp);
    assert!(stats.evictions > 0, "the tiny budget must force evictions");
    assert!(
        stats.spill_writes > 0 && stats.spill_loads > 0,
        "trained state must round-trip through disk: {stats:?}"
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
    let cfg = config(16, 13);
    let (train, test) = SyntheticDataset::Mnist.generate(16 * 24, 90, 13);
    let partition = DataDistribution::NonIidShards.partition(&train, 16, 13);
    let mut engine = RoundEngine::new_with_store(
        cfg,
        train,
        test,
        partition,
        FedAdmm::paper_default(),
        SyncRounds,
        &spill,
    )
    .unwrap();
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

/// Three FedADMM rounds over four shards under `mode`, dense or through the
/// 8-bit wire path, on the default pool or one pinned to `workers`.
fn sharded_run(
    mode: AggregationMode,
    wire: bool,
    workers: Option<usize>,
) -> (RunHistory, ParamVector) {
    let cfg = config(16, 14);
    let (train, test) = SyntheticDataset::Mnist.generate(16 * 24, 90, 14);
    let partition = DataDistribution::NonIidShards.partition(&train, 16, 14);
    let mut engine = RoundEngine::new_with_store(
        cfg,
        train,
        test,
        partition,
        FedAdmm::paper_default(),
        SyncRounds,
        &StoreConfig::Sharded { num_shards: 4 },
    )
    .unwrap()
    .with_aggregation(mode)
    .with_wire_path(if wire {
        WirePathConfig::enabled(Quantizer::new(8, true))
    } else {
        WirePathConfig::disabled()
    });
    if let Some(workers) = workers {
        engine = engine.with_dispatch_workers(workers);
    }
    engine.run_rounds(3).unwrap();
    let mut history = engine.history().clone();
    for record in history.records.iter_mut() {
        record.elapsed_ms = 0;
    }
    (history, engine.global_model().clone())
}

#[test]
fn hierarchical_aggregation_tracks_single_pass_within_tolerance() {
    let (_, single) = sharded_run(AggregationMode::SinglePass, false, None);
    let (_, tree) = sharded_run(AggregationMode::Hierarchical, false, None);
    // Same mathematical sum, different association: last-ulp differences
    // only.
    let rel = single.dist(&tree) / single.norm().max(1e-12);
    assert!(rel < 1e-4, "relative deviation {rel}");
    // And not trivially equal-because-unused: the runs trained.
    assert!(single.norm() > 0.0);
}

#[test]
fn hierarchical_runs_are_bit_identical_across_worker_counts() {
    // Shard folds are pool jobs, each writing its own slot, and the combine
    // walks the slots in shard order: which worker folded which shard (or
    // the caller inline, with one worker) must not reach the result.
    let bits = |p: &ParamVector| -> Vec<u32> { p.as_slice().iter().map(|v| v.to_bits()).collect() };
    for wire in [false, true] {
        let (history, model) = sharded_run(AggregationMode::Hierarchical, wire, Some(1));
        for workers in [2usize, 3] {
            let (h, m) = sharded_run(AggregationMode::Hierarchical, wire, Some(workers));
            let case = format!("{workers} workers, wire {wire}");
            assert_eq!(h, history, "history moved: {case}");
            assert_eq!(bits(&m), bits(&model), "θ moved: {case}");
        }
    }
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
        let (h_mem, g_mem, s_mem, _) = run_with_store(&StoreConfig::InMemory, seed, 12, 2);
        let sharded = StoreConfig::Sharded { num_shards };
        let (h_sh, g_sh, s_sh, _) = run_with_store(&sharded, seed, 12, 2);
        prop_assert_eq!(&h_mem, &h_sh);
        prop_assert_eq!(&g_mem, &g_sh);
        prop_assert_eq!(&s_mem, &s_sh);
        let spill = StoreConfig::Spill {
            num_shards,
            budget_bytes: budget_kb * 1024,
            dir: None,
        };
        let (h_sp, g_sp, s_sp, _) = run_with_store(&spill, seed, 12, 2);
        prop_assert_eq!(&h_mem, &h_sp);
        prop_assert_eq!(&g_mem, &g_sp);
        prop_assert_eq!(&s_mem, &s_sp);
    }
}
