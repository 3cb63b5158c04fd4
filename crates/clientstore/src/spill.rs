//! Lazily-materialized sharded client state, optionally bounded by an LRU
//! spill-to-disk budget.
//!
//! Client ids are split into `S` contiguous shards. A shard allocates
//! nothing until one of its clients is borrowed; a client allocates nothing
//! until it is borrowed. The inactive tail — clients never selected so far
//! — is therefore stored *implicitly*: its local model is "the initial θ"
//! and its correction slot is "zero", a delta/sparse representation
//! that costs 0 bytes per client instead of `2·d·4`. Under the paper's
//! partial-participation regime (`C·m` clients per round, arbitrary
//! participation is provably sound per arXiv:2203.15104) this makes
//! resident memory proportional to the number of clients *ever touched*,
//! not to `m`.
//!
//! Built [with a spill budget](ShardedStore::with_spill), the store also
//! bounds *resident* state: once materialized client bytes exceed
//! `budget_bytes`, least-recently-borrowed shards are encoded (the crate's
//! bit-exact binary `codec`, checksummed) and written to disk — to a
//! `.tmp` file renamed into place — then reloaded transparently the next
//! time one of their clients is selected. A shard file that is missing,
//! truncated or altered fails its load with an error naming the file. The
//! budget is a soft ceiling enforced **between** borrows — the cohort
//! currently lent out can transiently overshoot it, which is the working-set
//! minimum anyway. Shards whose every resident client is untouched are dropped
//! without a write (the implicit representation is free), so a workload
//! that merely *reads* a pristine population never touches the disk. A
//! store built without a budget creates no directory and touches no file.
//!
//! Sample-index lists are kept in CSR form ([`ClientIndices`]) — two flat
//! arrays for the whole population — and an owned copy is handed to a
//! client only on materialization.

use crate::codec::{decode_shard, encode_shard};
use crate::param::ParamVector;
use crate::shard::{lend_ascending, ClientIndices, ShardMap};
use crate::state::ClientState;
use crate::store::{state_bytes, ClientStateStore, StoreStats};
use fedadmm_tensor::{TensorError, TensorResult};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes spill directories across stores within one process.
static SPILL_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

enum Slot {
    /// Never materialized (or evicted while fully pristine): every client
    /// is implicit.
    Cold,
    /// Materialized slots in memory.
    Resident {
        entries: Vec<Option<Box<ClientState>>>,
        bytes: u64,
    },
    /// Trained state written to disk.
    Spilled { path: PathBuf, bytes: u64 },
}

/// The optional spill part: where evicted shards go and when.
struct Spill {
    budget_bytes: u64,
    dir: PathBuf,
    owns_dir: bool,
}

/// Sharded, lazily-materialized client-state backend; with a spill part,
/// resident state is additionally held under an LRU spill-to-disk budget.
pub struct ShardedStore {
    map: ShardMap,
    index: ClientIndices,
    initial: ParamVector,
    slots: Vec<Slot>,
    /// Borrow tick at which each shard was last used (LRU clock).
    last_used: Vec<u64>,
    tick: u64,
    resident_bytes: u64,
    spill: Option<Spill>,
    stats: StoreStats,
}

fn io_err(op: &str, path: &Path, err: std::io::Error) -> TensorError {
    TensorError::InvalidArgument(format!("spill {op} {} failed: {err}", path.display()))
}

impl ShardedStore {
    /// Creates a store of `indices.len()` implicit clients split into
    /// `num_shards` contiguous shards, each starting (on materialization)
    /// from `initial` with a zero correction. Nothing is ever evicted.
    pub fn new(indices: Vec<Vec<usize>>, initial: &ParamVector, num_shards: usize) -> Self {
        let map = ShardMap::new(indices.len(), num_shards);
        let index = ClientIndices::from_lists(indices);
        ShardedStore {
            last_used: vec![0; map.num_shards()],
            tick: 0,
            resident_bytes: index.heap_bytes(),
            index,
            initial: initial.clone(),
            slots: (0..map.num_shards()).map(|_| Slot::Cold).collect(),
            map,
            spill: None,
            stats: StoreStats::default(),
        }
    }

    /// Like [`new`](Self::new), but spilling LRU shards to `dir` (or a
    /// unique temp directory, removed on drop) whenever resident state
    /// exceeds `budget_bytes`.
    pub fn with_spill(
        indices: Vec<Vec<usize>>,
        initial: &ParamVector,
        num_shards: usize,
        budget_bytes: u64,
        dir: Option<PathBuf>,
    ) -> TensorResult<Self> {
        let (dir, owns_dir) = match dir {
            Some(d) => (d, false),
            None => {
                let seq = SPILL_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
                let d = std::env::temp_dir()
                    .join(format!("fedadmm-spill-{}-{seq}", std::process::id()));
                (d, true)
            }
        };
        std::fs::create_dir_all(&dir).map_err(|e| io_err("dir create", &dir, e))?;
        let mut store = Self::new(indices, initial, num_shards);
        store.spill = Some(Spill {
            budget_bytes,
            dir,
            owns_dir,
        });
        Ok(store)
    }

    /// Brings `shard` into memory (loading a spilled file if needed).
    fn ensure_resident(&mut self, shard: usize) -> TensorResult<()> {
        let shard_len = self.map.shard_range(shard).len();
        match &self.slots[shard] {
            Slot::Resident { .. } => {}
            Slot::Cold => {
                let entries = (0..shard_len).map(|_| None).collect();
                self.slots[shard] = Slot::Resident { entries, bytes: 0 };
            }
            Slot::Spilled { path, bytes } => {
                let (path, bytes) = (path.clone(), *bytes);
                // A failed load leaves the slot spilled: the shard keeps
                // failing the same way and every other shard is unaffected.
                let raw = std::fs::read(&path).map_err(|e| io_err("read", &path, e))?;
                let entries = decode_shard(
                    &raw,
                    self.map.shard_range(shard).start,
                    shard_len,
                    self.initial.len(),
                    &self.index,
                )
                .map_err(|e| {
                    TensorError::InvalidArgument(format!("spill load {}: {e}", path.display()))
                })?;
                let _ = std::fs::remove_file(&path);
                self.slots[shard] = Slot::Resident { entries, bytes };
                self.resident_bytes += bytes;
                self.stats.spill_loads += 1;
            }
        }
        Ok(())
    }

    /// Evicts least-recently-borrowed shards until resident state fits the
    /// budget (or nothing evictable remains). Fully pristine shards are
    /// dropped without a write. Without a spill part there is no budget.
    fn enforce_budget(&mut self) -> TensorResult<()> {
        let Some(budget_bytes) = self.spill.as_ref().map(|s| s.budget_bytes) else {
            return Ok(());
        };
        while self.resident_bytes > budget_bytes {
            let victim = self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| matches!(s, Slot::Resident { .. }))
                .min_by_key(|(shard, _)| self.last_used[*shard])
                .map(|(shard, _)| shard);
            let Some(shard) = victim else { break };
            self.evict(shard)?;
            self.stats.evictions += 1;
        }
        Ok(())
    }

    /// Moves the resident `shard` out of memory. If the write fails the
    /// shard stays resident, so the error costs no trained state.
    fn evict(&mut self, shard: usize) -> TensorResult<()> {
        let Slot::Resident { entries, bytes } =
            std::mem::replace(&mut self.slots[shard], Slot::Cold)
        else {
            unreachable!("only resident shards are picked for eviction")
        };
        self.resident_bytes = self.resident_bytes.saturating_sub(bytes);
        // A shard whose every materialized client is still pristine can go
        // back to the implicit representation for free.
        let trained: Vec<Option<Box<ClientState>>> = entries
            .into_iter()
            .map(|e| e.filter(|s| !s.is_pristine(&self.initial)))
            .collect();
        if trained.iter().all(Option::is_none) {
            return Ok(()); // already Slot::Cold
        }
        // Bytes of the entries that actually leave, so a later load (or the
        // failure path below) re-accounts exactly what it holds.
        let kept: u64 = trained
            .iter()
            .flatten()
            .map(|s| state_bytes(self.initial.len(), s.indices.len()))
            .sum();
        let spill = self.spill.as_ref().expect("eviction needs a spill part");
        let path = spill.dir.join(format!("shard-{shard}.bin"));
        let tmp = spill.dir.join(format!("shard-{shard}.bin.tmp"));
        let encoded = encode_shard(&trained, self.initial.len());
        // Written aside and renamed into place, so `path` is only ever a
        // complete file.
        let written = std::fs::write(&tmp, &encoded).and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = written {
            let _ = std::fs::remove_file(&tmp);
            self.slots[shard] = Slot::Resident {
                entries: trained,
                bytes: kept,
            };
            self.resident_bytes += kept;
            return Err(io_err("write", &path, e));
        }
        self.slots[shard] = Slot::Spilled { path, bytes: kept };
        self.stats.spill_writes += 1;
        Ok(())
    }
}

impl Drop for ShardedStore {
    fn drop(&mut self) {
        for slot in &self.slots {
            if let Slot::Spilled { path, .. } = slot {
                let _ = std::fs::remove_file(path);
            }
        }
        if let Some(spill) = self.spill.as_ref().filter(|spill| spill.owns_dir) {
            let _ = std::fs::remove_dir_all(&spill.dir);
        }
    }
}

impl ClientStateStore for ShardedStore {
    fn num_clients(&self) -> usize {
        self.map.num_clients()
    }

    fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    fn with_states(
        &mut self,
        ids: &[usize],
        f: &mut dyn FnMut(&mut [&mut ClientState]) -> TensorResult<()>,
    ) -> TensorResult<()> {
        let runs = self.map.group(ids)?;
        self.tick += 1;
        for (shard, _) in &runs {
            self.ensure_resident(*shard)?;
            self.last_used[*shard] = self.tick;
        }
        // All touched shards are now Resident. Shards, and ids within a
        // shard, are strictly ascending: walk the shards, and inside each
        // its entries, lending each state mutably in O(selected).
        let mut refs: Vec<&mut ClientState> = Vec::with_capacity(ids.len());
        let shards = runs.iter().map(|(shard, _)| *shard);
        for (slot, (shard, range)) in lend_ascending(&mut self.slots, 0, shards).zip(&runs) {
            let Slot::Resident { entries, bytes } = slot else {
                unreachable!("shard made resident above")
            };
            let shard_start = self.map.shard_range(*shard).start;
            let cohort = &ids[range.clone()];
            let lent = lend_ascending(entries, shard_start, cohort.iter().copied());
            for (entry, &id) in lent.zip(cohort) {
                if entry.is_none() {
                    let indices = self.index.get(id).to_vec();
                    let cost = state_bytes(self.initial.len(), indices.len());
                    *bytes += cost;
                    self.resident_bytes += cost;
                    self.stats.materializations += 1;
                    *entry = Some(Box::new(ClientState::new(id, indices, &self.initial)));
                }
                refs.push(entry.as_deref_mut().expect("just materialized"));
            }
        }
        let result = f(&mut refs);
        drop(refs);
        // The budget is enforced between borrows, never while lent out.
        self.enforce_budget()?;
        result
    }

    fn for_each_state(
        &mut self,
        visit: &mut dyn FnMut(&ClientState) -> TensorResult<()>,
    ) -> TensorResult<()> {
        for shard in 0..self.map.num_shards() {
            self.ensure_resident(shard)?;
            let Slot::Resident { entries, .. } = &self.slots[shard] else {
                unreachable!("shard made resident above")
            };
            for (entry, id) in entries.iter().zip(self.map.shard_range(shard)) {
                match entry.as_deref() {
                    Some(state) => visit(state)?,
                    None => {
                        let state =
                            ClientState::new(id, self.index.get(id).to_vec(), &self.initial);
                        visit(&state)?;
                    }
                }
            }
            // Stream within the budget: drop or spill as we go.
            self.enforce_budget()?;
        }
        Ok(())
    }

    fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    fn stats(&self) -> StoreStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `m` one-sample clients of dimension 16; `budget: None` builds the
    /// store without a spill part.
    fn store(m: usize, shards: usize, budget: Option<u64>) -> ShardedStore {
        let initial = ParamVector::from_vec(vec![1.0; 16]);
        let indices = (0..m).map(|i| vec![i]).collect();
        match budget {
            None => ShardedStore::new(indices, &initial, shards),
            Some(b) => ShardedStore::with_spill(indices, &initial, shards, b, None).unwrap(),
        }
    }

    /// With and without a spill part that never has to evict.
    const ROOMY: [Option<u64>; 2] = [None, Some(u64::MAX)];

    fn materialized_clients(s: &ShardedStore) -> usize {
        s.slots
            .iter()
            .map(|slot| match slot {
                Slot::Resident { entries, .. } => entries.iter().flatten().count(),
                _ => 0,
            })
            .sum()
    }

    fn resident_shards(s: &ShardedStore) -> usize {
        let resident = |slot: &&Slot| matches!(slot, Slot::Resident { .. });
        s.slots.iter().filter(resident).count()
    }

    fn spilled_shards(s: &ShardedStore) -> usize {
        let spilled = |slot: &&Slot| matches!(slot, Slot::Spilled { .. });
        s.slots.iter().filter(spilled).count()
    }

    #[test]
    fn materializes_only_the_selected_cohort() {
        for budget in ROOMY {
            let mut s = store(100, 8, budget);
            assert_eq!(materialized_clients(&s), 0);
            let base = s.resident_bytes();
            s.with_states(&[3, 40, 41, 99], &mut |states| {
                assert_eq!(
                    states.iter().map(|c| c.id).collect::<Vec<_>>(),
                    vec![3, 40, 41, 99]
                );
                Ok(())
            })
            .unwrap();
            assert_eq!(materialized_clients(&s), 4);
            assert_eq!(s.stats().materializations, 4);
            assert!(s.resident_bytes() > base);
            // Re-borrowing the same clients materializes nothing new.
            s.with_states(&[3, 99], &mut |_| Ok(())).unwrap();
            assert_eq!(s.stats().materializations, 4);
        }
    }

    #[test]
    fn mutations_persist_across_borrows() {
        for budget in ROOMY {
            let mut s = store(20, 4, budget);
            s.with_states(&[7], &mut |states| {
                states[0].times_selected = 5;
                states[0].dual = ParamVector::from_vec(vec![0.5; 16]);
                Ok(())
            })
            .unwrap();
            s.with_states(&[6, 7, 8], &mut |states| {
                assert_eq!(states[1].times_selected, 5);
                assert_eq!(states[1].dual.as_slice(), &[0.5; 16]);
                assert_eq!(states[0].times_selected, 0);
                Ok(())
            })
            .unwrap();
        }
    }

    #[test]
    fn for_each_synthesizes_implicit_states() {
        for budget in ROOMY {
            let mut s = store(10, 3, budget);
            s.with_states(&[4], &mut |states| {
                states[0].times_selected = 1;
                Ok(())
            })
            .unwrap();
            let mut ids = Vec::new();
            let mut selected = 0;
            s.for_each_state(&mut |c| {
                ids.push(c.id);
                selected += c.times_selected;
                assert_eq!(c.indices, vec![c.id]);
                Ok(())
            })
            .unwrap();
            assert_eq!(ids, (0..10).collect::<Vec<_>>());
            assert_eq!(selected, 1);
            // Streaming did not materialize anything new.
            assert_eq!(materialized_clients(&s), 1);
            // Nothing was evicted, and without a budget there is no
            // directory that anything could have been evicted to.
            let stats = s.stats();
            assert_eq!(
                (stats.spill_writes, stats.spill_loads, stats.evictions),
                (0, 0, 0)
            );
            assert_eq!(s.spill.is_none(), budget.is_none());
        }
    }

    #[test]
    fn rejects_bad_cohorts() {
        for budget in ROOMY {
            let mut s = store(10, 2, budget);
            let noop = &mut |_: &mut [&mut ClientState]| Ok(());
            assert!(s.with_states(&[5, 2], noop).is_err());
            assert!(s.with_states(&[2, 2], noop).is_err());
            assert!(s.with_states(&[10], noop).is_err());
            assert!(s.with_states(&[], noop).is_ok());
        }
    }

    #[test]
    fn stays_resident_under_a_large_budget() {
        let mut s = store(32, 4, Some(u64::MAX));
        s.with_states(&[0, 9, 31], &mut |states| {
            for state in states.iter_mut() {
                state.times_selected += 1;
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(spilled_shards(&s), 0);
        assert_eq!(s.stats().spill_writes, 0);
        assert_eq!(s.stats().materializations, 3);
    }

    #[test]
    fn spills_trained_shards_and_reloads_them_bit_exactly() {
        // Budget of 0 forces every trained shard out after each borrow.
        let mut s = store(32, 8, Some(0));
        s.with_states(&[1, 2], &mut |states| {
            states[0].dual = ParamVector::from_vec(vec![0.25; 16]);
            states[0].times_selected = 3;
            states[1].times_selected = 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(resident_shards(&s), 0);
        assert_eq!(spilled_shards(&s), 1);
        assert!(s.stats().spill_writes >= 1);
        // Touch a different shard, then come back.
        s.with_states(&[20], &mut |states| {
            states[0].times_selected = 7;
            Ok(())
        })
        .unwrap();
        s.with_states(&[1, 2, 20], &mut |states| {
            assert_eq!(states[0].dual.as_slice(), &[0.25; 16]);
            assert_eq!(states[0].times_selected, 3);
            assert_eq!(states[1].times_selected, 1);
            assert_eq!(states[2].times_selected, 7);
            Ok(())
        })
        .unwrap();
        assert!(s.stats().spill_loads >= 2);
    }

    #[test]
    fn a_failed_eviction_write_keeps_the_trained_state() {
        let mut s = store(32, 8, Some(0));
        // The spill directory vanishes after construction: every eviction
        // write now fails with ENOENT.
        std::fs::remove_dir_all(&s.spill.as_ref().unwrap().dir).unwrap();
        let result = s.with_states(&[1], &mut |states| {
            states[0].dual = ParamVector::from_vec(vec![0.25; 16]);
            states[0].times_selected = 3;
            Ok(())
        });
        assert!(result.is_err(), "the failed write must surface");
        assert_eq!(s.stats().spill_writes, 0);
        let mut seen = None;
        let _ = s.with_states(&[1], &mut |states| {
            seen = Some((states[0].dual.clone(), states[0].times_selected));
            Ok(())
        });
        let (dual, times_selected) = seen.expect("the borrow itself still works");
        assert_eq!(dual.as_slice(), &[0.25; 16]);
        assert_eq!(times_selected, 3);
    }

    /// A spilled shard that was truncated, had one payload byte flipped or
    /// went missing fails its load with a `TensorError` naming its file. The
    /// store keeps serving (and spilling) every other shard, and the damaged
    /// one keeps failing instead of coming back as fresh clients.
    #[test]
    fn a_damaged_or_missing_shard_fails_its_load_by_path_and_the_store_stays_usable() {
        for damage in ["truncated", "flipped", "missing"] {
            let mut s = store(32, 8, Some(0));
            s.with_states(&[1], &mut |states| {
                states[0].dual = ParamVector::from_vec(vec![0.25; 16]);
                Ok(())
            })
            .unwrap();
            let Slot::Spilled { path, .. } = &s.slots[0] else {
                panic!("shard 0 was not spilled")
            };
            let path = path.clone();
            assert!(!path.with_extension("bin.tmp").exists());
            let raw = std::fs::read(&path).unwrap();
            match damage {
                "truncated" => std::fs::write(&path, &raw[..raw.len() - 5]).unwrap(),
                // The last byte of the last correction coordinate: without the
                // checksum this decodes to a different float.
                "flipped" => {
                    let mut raw = raw;
                    *raw.last_mut().unwrap() ^= 0x40;
                    std::fs::write(&path, raw).unwrap();
                }
                _ => std::fs::remove_file(&path).unwrap(),
            }
            for _ in 0..2 {
                let err = s.with_states(&[1], &mut |_| Ok(())).unwrap_err();
                let named = err.to_string().contains(&path.display().to_string());
                assert!(named, "{damage}: {err} does not name {}", path.display());
            }
            s.with_states(&[20], &mut |states| {
                states[0].times_selected = 7;
                Ok(())
            })
            .unwrap();
            s.with_states(&[20, 30], &mut |states| {
                assert_eq!(states[0].times_selected, 7);
                Ok(())
            })
            .unwrap();
            assert!(s.stats().spill_loads >= 1, "{damage}");
        }
    }

    #[test]
    fn pristine_shards_are_dropped_without_a_write() {
        let mut s = store(32, 8, Some(0));
        // Borrow without mutating: the shard is evicted but nothing needs
        // to survive, so no file is written.
        s.with_states(&[5], &mut |_| Ok(())).unwrap();
        assert_eq!(spilled_shards(&s), 0);
        assert_eq!(s.stats().spill_writes, 0);
        assert!(s.stats().evictions >= 1);
    }

    #[test]
    fn for_each_streams_every_client_within_budget() {
        let mut s = store(24, 6, Some(0));
        s.with_states(&[3], &mut |states| {
            states[0].times_selected = 9;
            Ok(())
        })
        .unwrap();
        let mut total = 0usize;
        let mut count = 0usize;
        s.for_each_state(&mut |c| {
            total += c.times_selected;
            count += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(count, 24);
        assert_eq!(total, 9);
        assert_eq!(resident_shards(&s), 0, "streaming respects the budget");
    }

    #[test]
    fn spill_files_are_cleaned_up_on_drop() {
        let mut s = store(16, 4, Some(0));
        s.with_states(&[0], &mut |states| {
            states[0].times_selected = 1;
            Ok(())
        })
        .unwrap();
        let dir = s.spill.as_ref().unwrap().dir.clone();
        assert!(dir.exists());
        drop(s);
        assert!(!dir.exists(), "owned spill dir must be removed on drop");
    }
}
