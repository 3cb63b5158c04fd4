//! Shard geometry: how `m` client ids map onto `S` contiguous shards, and
//! how a selected cohort is regrouped into shard-local index lists.
//!
//! Shards are contiguous id ranges (`shard = id / ⌈m/S⌉`), so a *sorted*
//! cohort decomposes into per-shard sub-slices with one linear scan —
//! [`ShardMap::group`] is O(selected), never O(m) or O(S). That is the
//! property that keeps shard materialization proportional to the number of
//! selected clients per round.

use fedadmm_tensor::{TensorError, TensorResult};
use std::ops::Range;

/// The mapping of client ids `0..m` onto `S` contiguous shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    num_clients: usize,
    num_shards: usize,
    shard_size: usize,
}

impl ShardMap {
    /// Creates a map of `num_clients` ids onto at most `num_shards`
    /// contiguous shards (the shard count is clamped to `1..=m` and may be
    /// reduced so that every shard is non-empty).
    pub fn new(num_clients: usize, num_shards: usize) -> Self {
        let m = num_clients.max(1);
        let shards = num_shards.clamp(1, m);
        let shard_size = m.div_ceil(shards);
        ShardMap {
            num_clients,
            num_shards: m.div_ceil(shard_size),
            shard_size,
        }
    }

    /// The number of client ids covered by the map.
    pub fn num_clients(&self) -> usize {
        self.num_clients
    }

    /// The number of shards.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The number of ids per shard (the last shard may be smaller).
    pub fn shard_size(&self) -> usize {
        self.shard_size
    }

    /// The shard holding client `id`.
    pub fn shard_of(&self, id: usize) -> usize {
        id / self.shard_size
    }

    /// The id range of shard `s`.
    pub fn shard_range(&self, s: usize) -> Range<usize> {
        let start = s * self.shard_size;
        start..((start + self.shard_size).min(self.num_clients))
    }

    /// Checks that `cohort` is strictly ascending and within
    /// `0..num_clients` — what every store requires of a borrow.
    pub(crate) fn validate(&self, cohort: &[usize]) -> TensorResult<()> {
        for (k, &id) in cohort.iter().enumerate() {
            if id >= self.num_clients {
                return Err(TensorError::InvalidArgument(format!(
                    "cohort contains client {id} but the store holds {} clients",
                    self.num_clients
                )));
            }
            if k > 0 && cohort[k - 1] >= id {
                return Err(TensorError::InvalidArgument(format!(
                    "cohort must be strictly ascending (saw {} then {id})",
                    cohort[k - 1]
                )));
            }
        }
        Ok(())
    }

    /// Splits a **sorted** cohort of client ids into shard-local runs: each
    /// `(shard, range)` pair identifies the sub-slice `cohort[range]` whose
    /// ids live in `shard`. Linear in the cohort — O(selected).
    ///
    /// Returns an error if the cohort is not strictly ascending or contains
    /// an id outside `0..num_clients`.
    pub fn group(&self, cohort: &[usize]) -> TensorResult<Vec<(usize, Range<usize>)>> {
        self.validate(cohort)?;
        let mut runs: Vec<(usize, Range<usize>)> = Vec::new();
        for (k, &id) in cohort.iter().enumerate() {
            let s = self.shard_of(id);
            match runs.last_mut() {
                Some((shard, range)) if *shard == s => range.end = k + 1,
                _ => runs.push((s, k..k + 1)),
            }
        }
        Ok(runs)
    }
}

/// Lends `slice[id - base]` mutably for each of the strictly ascending
/// `ids`: one forward split walk, O(ids), whatever the slice length. Every
/// store's cohort borrow is this walk.
///
/// # Panics
/// The returned iterator panics on an id that is not above its predecessor
/// or falls outside the slice; callers validate cohorts first.
pub(crate) fn lend_ascending<'a, T>(
    slice: &'a mut [T],
    base: usize,
    ids: impl Iterator<Item = usize> + 'a,
) -> impl Iterator<Item = &'a mut T> + 'a {
    let (mut tail, mut offset) = (slice, base);
    ids.map(move |id| {
        let (lent, rest) = std::mem::take(&mut tail)[id - offset..]
            .split_first_mut()
            .expect("validated cohort id");
        (tail, offset) = (rest, id + 1);
        lent
    })
}

/// Per-client sample indices in CSR form: one flat array plus offsets, so a
/// million clients cost two allocations instead of a million `Vec`s. Sharded
/// stores rebuild a client's owned index list from this on materialization.
#[derive(Debug, Clone)]
pub struct ClientIndices {
    offsets: Vec<usize>,
    data: Vec<usize>,
}

impl ClientIndices {
    /// Flattens per-client index lists into CSR form.
    pub fn from_lists(lists: Vec<Vec<usize>>) -> Self {
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        offsets.push(0);
        let total: usize = lists.iter().map(Vec::len).sum();
        let mut data = Vec::with_capacity(total);
        for list in lists {
            data.extend_from_slice(&list);
            offsets.push(data.len());
        }
        ClientIndices { offsets, data }
    }

    /// Number of clients covered.
    pub fn num_clients(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The sample indices of client `id`.
    pub fn get(&self, id: usize) -> &[usize] {
        &self.data[self.offsets[id]..self.offsets[id + 1]]
    }

    /// Heap bytes held by the CSR arrays themselves.
    pub fn heap_bytes(&self) -> u64 {
        ((self.offsets.len() + self.data.len()) * std::mem::size_of::<usize>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_map_covers_all_ids_contiguously() {
        let map = ShardMap::new(10, 3);
        assert_eq!(map.shard_size(), 4);
        assert_eq!(map.num_shards(), 3);
        let mut seen = 0;
        for s in 0..map.num_shards() {
            let range = map.shard_range(s);
            for id in range.clone() {
                assert_eq!(map.shard_of(id), s);
            }
            seen += range.len();
        }
        assert_eq!(seen, 10);
    }

    #[test]
    fn shard_map_clamps_degenerate_requests() {
        assert_eq!(ShardMap::new(5, 0).num_shards(), 1);
        assert_eq!(ShardMap::new(5, 99).num_shards(), 5);
        assert_eq!(ShardMap::new(0, 4).num_shards(), 1);
    }

    #[test]
    fn group_splits_a_sorted_cohort_into_shard_runs() {
        let map = ShardMap::new(12, 4); // shards of 3
        let cohort = [0, 2, 3, 7, 9, 10, 11];
        let runs = map.group(&cohort).unwrap();
        assert_eq!(runs, vec![(0, 0..2), (1, 2..3), (2, 3..4), (3, 4..7)]);
        // Each run's slice really is shard-local.
        for (shard, range) in runs {
            for &id in &cohort[range] {
                assert_eq!(map.shard_of(id), shard);
            }
        }
    }

    #[test]
    fn group_rejects_unsorted_and_out_of_range_cohorts() {
        let map = ShardMap::new(8, 2);
        assert!(map.group(&[3, 2]).is_err());
        assert!(map.group(&[1, 1]).is_err());
        assert!(map.group(&[7, 8]).is_err());
        assert!(map.group(&[]).unwrap().is_empty());
    }

    #[test]
    fn csr_round_trips_index_lists() {
        let idx = ClientIndices::from_lists(vec![vec![5, 1], vec![], vec![9]]);
        assert_eq!(idx.num_clients(), 3);
        assert_eq!(idx.get(0), &[5, 1]);
        assert_eq!(idx.get(1), &[] as &[usize]);
        assert_eq!(idx.get(2), &[9]);
        assert!(idx.heap_bytes() > 0);
    }
}
