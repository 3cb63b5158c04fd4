//! The [`ClientStateStore`] abstraction and the [`StoreConfig`] that builds
//! it.
//!
//! The engine used to own a dense `Vec<ClientState>` — `m` clients × two
//! ℝ^d vectors, which makes client *count* (not compute) the memory wall.
//! The store trait inverts the relationship: the engine asks to *borrow*
//! the states of the selected cohort for the duration of one dispatch, and
//! the backend decides how the other `m − |S_t|` clients are represented.
//!
//! One backend, [`ShardedStore`], sits behind the three [`StoreConfig`]
//! spellings:
//!
//! | `StoreConfig` | Shards | Representation | Memory |
//! |---------------|--------|----------------|--------|
//! | `InMemory` | ⌈√m⌉ | lazy per-shard slots; never-selected clients stay implicit | O(touched·d) |
//! | `Sharded` | `num_shards` | the same | O(touched·d) |
//! | `Spill` | `num_shards` | the same, with LRU spill-to-disk beyond a byte budget | O(budget) |

use crate::param::ParamVector;
use crate::shard::ShardMap;
use crate::spill::ShardedStore;
use crate::state::ClientState;
use fedadmm_tensor::TensorResult;
use std::path::PathBuf;

/// Rough heap footprint of one materialized [`ClientState`]: two dense
/// ℝ^d vectors (`w_i` and the correction slot), the owned index list, and
/// struct overhead.
pub(crate) fn state_bytes(d: usize, num_indices: usize) -> u64 {
    (2 * d * std::mem::size_of::<f32>()
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
///   initial θ, zero correction — so borrowing is indistinguishable from
///   the dense layout.
/// * Mutations persist across calls: the engine's dual variables and
///   `times_selected` counters survive eviction and spill round trips
///   bit-exactly.
/// * `for_each_state` visits every client in id order (materialized or
///   not), for diagnostics and tests.
pub trait ClientStateStore: Send {
    /// Total number of clients the store covers.
    fn num_clients(&self) -> usize;

    /// The shard geometry.
    fn shard_map(&self) -> &ShardMap;

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

/// How to build an engine's [`ShardedStore`]: its shard count and, for
/// `Spill`, its byte budget and directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum StoreConfig {
    /// Lazily materialized shards, ⌈√m⌉ of them, with no budget: the
    /// default, and bit-identical to the other two spellings.
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
    /// Builds the configured store from per-client sample-index lists and
    /// the initial global model, which the store copies as every untouched
    /// client's local model.
    pub fn build(
        &self,
        indices: Vec<Vec<usize>>,
        initial: &ParamVector,
    ) -> TensorResult<Box<dyn ClientStateStore>> {
        Ok(match self {
            StoreConfig::InMemory => {
                // One shard per ~√m clients keeps hierarchical aggregation
                // meaningful without a configured shard count.
                let shards = (indices.len() as f64).sqrt().ceil() as usize;
                Box::new(ShardedStore::new(indices, initial, shards.max(1)))
            }
            StoreConfig::Sharded { num_shards } => {
                Box::new(ShardedStore::new(indices, initial, *num_shards))
            }
            StoreConfig::Spill {
                num_shards,
                budget_bytes,
                dir,
            } => Box::new(ShardedStore::with_spill(
                indices,
                initial,
                *num_shards,
                *budget_bytes,
                dir.clone(),
            )?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_memory_builds_root_m_lazy_shards_of_initial_states() {
        let initial = ParamVector::from_vec(vec![0.0, 1.0, 2.0]);
        let indices = (0..10).map(|i| vec![i, i + 1]).collect();
        let mut store = StoreConfig::InMemory.build(indices, &initial).unwrap();
        assert_eq!(store.num_clients(), 10);
        assert_eq!(store.shard_map().num_shards(), 4, "⌈√10⌉ shards");
        assert_eq!(store.stats().materializations, 0);
        let mut seen = Vec::new();
        store
            .for_each_state(&mut |c| {
                assert_eq!(c.indices, vec![c.id, c.id + 1]);
                assert_eq!(c.local_model, initial);
                seen.push(c.id);
                Ok(())
            })
            .unwrap();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert_eq!(store.stats().materializations, 0);
    }
}
