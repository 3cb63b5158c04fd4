//! # fedadmm-clientstore
//!
//! Client-state storage for million-client federated rounds.
//!
//! FedADMM keeps a dense dual variable `y_i` plus a local model `w_i` per
//! client (Algorithm 1: "Store wi and yi"), so with a dense layout client
//! *count* — not compute — is the memory wall. This crate makes the layout
//! pluggable behind [`ClientStateStore`], with one backend:
//! [`ShardedStore`] keeps `S` contiguous shards materialized lazily on
//! selection; the never-selected tail is stored implicitly (local model =
//! initial θ, correction = 0) at zero bytes per client. Given a budget
//! it is also an LRU spill-to-disk cache: resident state stays under
//! `budget_bytes`, with evicted shards written through a bit-exact binary
//! codec and reloaded transparently.
//!
//! [`StoreConfig`] spells it three ways: `InMemory` (⌈√m⌉ shards, no
//! budget), `Sharded` (a given shard count, no budget) and `Spill` (budget
//! and directory).
//!
//! The crate also owns the shared value types ([`ParamVector`],
//! [`ClientState`] — re-exported by `fedadmm-core` at their historical
//! paths), the shard geometry ([`ShardMap`], whose [`ShardMap::group`]
//! turns a sorted cohort into shard-local index lists in O(selected)), and
//! the opt-in [hierarchical tree aggregation](hierarchical_weighted_sum)
//! used by the engine's `AggregationMode::Hierarchical`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod agg;
pub(crate) mod codec;
pub mod param;
pub mod shard;
pub mod spill;
pub mod state;
pub mod store;

pub use agg::{
    hierarchical_dequant_sum, hierarchical_fold, hierarchical_weighted_sum, ShardFoldStat,
};
pub use param::ParamVector;
pub use shard::{ClientIndices, ShardMap};
pub use spill::ShardedStore;
pub use state::ClientState;
pub use store::{ClientStateStore, StoreConfig, StoreStats};
