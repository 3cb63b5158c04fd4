//! The [`ClientStateStore`] abstraction and its dense in-memory backend.
//!
//! The engine used to own a dense `Vec<ClientState>` — `m` clients × three
//! ℝ^d vectors, which makes client *count* (not compute) the memory wall.
//! The store trait inverts the relationship: the engine asks to *borrow*
//! the states of the selected cohort for the duration of one dispatch, and
//! the backend decides how the other `m − |S_t|` clients are represented.
//!
//! Two backends sit behind the three [`StoreConfig`] spellings:
//!
//! | `StoreConfig` | Backend | Representation | Memory |
//! |---------------|---------|----------------|--------|
//! | `InMemory` | [`InMemoryStore`] | dense `Vec<ClientState>` (the legacy layout, byte-identical) | O(m·d) |
//! | `Sharded` | [`ShardedStore`](crate::ShardedStore) | lazy per-shard slots; never-selected clients stay implicit | O(touched·d) |
//! | `Spill` | the same, with a spill part | LRU-resident shards, spill-to-disk beyond a byte budget | O(budget) |

use crate::param::ParamVector;
use crate::shard::{lend_ascending, ShardMap};
use crate::state::ClientState;
use fedadmm_tensor::TensorResult;
use std::path::PathBuf;

/// Rough heap footprint of one materialized [`ClientState`]: three dense
/// ℝ^d vectors, the owned index list, and struct overhead.
pub(crate) fn state_bytes(d: usize, num_indices: usize) -> u64 {
    (3 * d * std::mem::size_of::<f32>()
        + num_indices * std::mem::size_of::<usize>()
        + std::mem::size_of::<ClientState>()) as u64
}

/// Cumulative lifecycle counters a store exposes for telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Client states materialized from their implicit initial form.
    pub materializations: u64,
    /// Shards written to disk by an eviction.
    pub spill_writes: u64,
    /// Shards loaded back from disk.
    pub spill_loads: u64,
    /// Shards evicted from residency (spilled or dropped as pristine).
    pub evictions: u64,
}

/// Storage backend for per-client persistent state.
///
/// The contract every backend upholds:
///
/// * `with_states(ids, f)` lends `f` one `&mut ClientState` per requested
///   id, **aligned with `ids`** (which must be strictly ascending and within
///   `0..num_clients`). A client that has never been touched is
///   materialized on demand in its initial form — local model at the
///   initial θ, zero dual/control — so borrowing is indistinguishable from
///   the dense layout.
/// * Mutations persist across calls: the engine's dual variables and
///   `times_selected` counters survive eviction and spill round trips
///   bit-exactly.
/// * `for_each_state` visits every client in id order (materialized or
///   not), for diagnostics and tests.
pub trait ClientStateStore: Send {
    /// Short backend label (`"in-memory"`, `"sharded"`, `"spill"`).
    fn backend(&self) -> &'static str;

    /// Total number of clients the store covers.
    fn num_clients(&self) -> usize;

    /// The shard geometry (a single shard for the dense backend).
    fn shard_map(&self) -> &ShardMap;

    /// The dense client slice, if this backend keeps one (the in-memory
    /// backend only). Diagnostics that need all `m` states at once use this.
    fn dense(&self) -> Option<&[ClientState]>;

    /// Lends the states of the strictly-ascending cohort `ids` to `f`,
    /// materializing missing states on demand. The slice passed to `f` is
    /// aligned with `ids`.
    fn with_states(
        &mut self,
        ids: &[usize],
        f: &mut dyn FnMut(&mut [&mut ClientState]) -> TensorResult<()>,
    ) -> TensorResult<()>;

    /// Streams every client's state (id order 0..m) through `visit`,
    /// synthesizing the implicit initial state for never-touched clients
    /// without keeping it resident.
    fn for_each_state(
        &mut self,
        visit: &mut dyn FnMut(&ClientState) -> TensorResult<()>,
    ) -> TensorResult<()>;

    /// Bytes of client state currently resident in memory.
    fn resident_bytes(&self) -> u64;

    /// Lifecycle counters since construction.
    fn stats(&self) -> StoreStats;
}

/// Which backend an engine should construct, plus its tuning knobs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum StoreConfig {
    /// Dense `Vec<ClientState>` — the legacy layout, byte-identical to the
    /// pre-store engine.
    #[default]
    InMemory,
    /// Lazily materialized shards; never-selected clients stay implicit.
    Sharded {
        /// Number of contiguous shards `S` (clamped to `1..=m`).
        num_shards: usize,
    },
    /// Sharded with LRU spill-to-disk once resident state exceeds a budget.
    Spill {
        /// Number of contiguous shards `S` (clamped to `1..=m`).
        num_shards: usize,
        /// Soft ceiling on resident client-state bytes; enforced between
        /// borrows (a single cohort may transiently overshoot).
        budget_bytes: u64,
        /// Spill directory; `None` creates (and later removes) a unique
        /// directory under the system temp dir.
        dir: Option<PathBuf>,
    },
}

impl StoreConfig {
    /// Builds the configured backend from per-client sample-index lists and
    /// the initial global model.
    pub fn build(
        &self,
        indices: Vec<Vec<usize>>,
        initial: &ParamVector,
    ) -> TensorResult<Box<dyn ClientStateStore>> {
        Ok(match self {
            StoreConfig::InMemory => Box::new(InMemoryStore::new(indices, initial)),
            StoreConfig::Sharded { num_shards } => {
                Box::new(crate::ShardedStore::new(indices, initial, *num_shards))
            }
            StoreConfig::Spill {
                num_shards,
                budget_bytes,
                dir,
            } => Box::new(crate::ShardedStore::with_spill(
                indices,
                initial,
                *num_shards,
                *budget_bytes,
                dir.clone(),
            )?),
        })
    }
}

/// The dense backend: every client state lives in one `Vec`, exactly as the
/// engine stored it before the store abstraction existed. Construction,
/// iteration order and float-op order are byte-identical to the legacy
/// layout, which `tests/engine_parity.rs` pins against a golden digest.
#[derive(Debug, Clone)]
pub struct InMemoryStore {
    states: Vec<ClientState>,
    map: ShardMap,
    resident_bytes: u64,
}

impl InMemoryStore {
    /// Materializes every client eagerly, mirroring the legacy engine:
    /// client `i` owns `indices[i]`, starts at `initial` with zero
    /// dual/control.
    pub fn new(indices: Vec<Vec<usize>>, initial: &ParamVector) -> Self {
        let d = initial.len();
        let num_clients = indices.len();
        let mut resident_bytes = 0;
        let states: Vec<ClientState> = indices
            .into_iter()
            .enumerate()
            .map(|(i, idx)| {
                resident_bytes += state_bytes(d, idx.len());
                ClientState::new(i, idx, initial)
            })
            .collect();
        // One shard per ~√m keeps hierarchical aggregation meaningful on
        // the dense backend too.
        let shards = (num_clients as f64).sqrt().ceil() as usize;
        InMemoryStore {
            states,
            map: ShardMap::new(num_clients, shards.max(1)),
            resident_bytes,
        }
    }
}

impl ClientStateStore for InMemoryStore {
    fn backend(&self) -> &'static str {
        "in-memory"
    }

    fn num_clients(&self) -> usize {
        self.states.len()
    }

    fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    fn dense(&self) -> Option<&[ClientState]> {
        Some(&self.states)
    }

    fn with_states(
        &mut self,
        ids: &[usize],
        f: &mut dyn FnMut(&mut [&mut ClientState]) -> TensorResult<()>,
    ) -> TensorResult<()> {
        self.map.validate(ids)?;
        let mut refs: Vec<&mut ClientState> =
            lend_ascending(&mut self.states, 0, ids.iter().copied()).collect();
        f(&mut refs)
    }

    fn for_each_state(
        &mut self,
        visit: &mut dyn FnMut(&ClientState) -> TensorResult<()>,
    ) -> TensorResult<()> {
        for state in &self.states {
            visit(state)?;
        }
        Ok(())
    }

    fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    fn stats(&self) -> StoreStats {
        StoreStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(m: usize, d: usize) -> InMemoryStore {
        let initial = ParamVector::from_vec((0..d).map(|i| i as f32).collect());
        InMemoryStore::new((0..m).map(|i| vec![i, i + 1]).collect(), &initial)
    }

    #[test]
    fn construction_matches_legacy_layout() {
        let s = store(5, 3);
        let dense = s.dense().unwrap();
        assert_eq!(dense.len(), 5);
        for (i, c) in dense.iter().enumerate() {
            assert_eq!(c.id, i);
            assert_eq!(c.indices, vec![i, i + 1]);
            assert_eq!(c.local_model.as_slice(), &[0.0, 1.0, 2.0]);
        }
        assert!(s.resident_bytes() > 0);
    }

    #[test]
    fn with_states_aligns_borrows_with_ids() {
        let mut s = store(6, 2);
        s.with_states(&[1, 3, 5], &mut |states| {
            assert_eq!(states.len(), 3);
            assert_eq!(states[0].id, 1);
            assert_eq!(states[1].id, 3);
            assert_eq!(states[2].id, 5);
            states[1].times_selected += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(s.dense().unwrap()[3].times_selected, 1);
    }

    #[test]
    fn with_states_rejects_bad_cohorts() {
        let mut s = store(4, 2);
        let noop = &mut |_: &mut [&mut ClientState]| Ok(());
        assert!(s.with_states(&[2, 1], noop).is_err());
        assert!(s.with_states(&[1, 1], noop).is_err());
        assert!(s.with_states(&[4], noop).is_err());
        assert!(s.with_states(&[], noop).is_ok());
    }

    #[test]
    fn for_each_visits_in_id_order() {
        let mut s = store(4, 2);
        let mut seen = Vec::new();
        s.for_each_state(&mut |c| {
            seen.push(c.id);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }
}
