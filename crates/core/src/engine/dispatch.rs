//! The engine's dispatch pool: the workspace's one worker pool
//! ([`fedadmm_tensor::dispatch`]) with [`DispatchScratch`] as every
//! worker's arena, behind [`EngineCore::dispatch`](super::EngineCore::dispatch).
//!
//! The pool owns the cores for a run: it runs client updates during a
//! dispatch and, between dispatches, everything else that is parallel —
//! evaluation jobs (one contiguous span of test samples per worker) and the
//! server fold (one coordinate range of θ per worker under single-pass
//! aggregation, one shard per job under hierarchical aggregation) — all
//! submitted from the tick thread while the pool is idle.
//!
//! Determinism: job results depend only on `(seed, round, client)`-derived
//! RNG streams and jobs are collected in ascending client-id order, so the
//! outcome is byte-identical for every worker count and chunk size — pinned
//! by the golden-digest parity tests.

use crate::algorithms::UpdateScratch;

pub use fedadmm_tensor::dispatch::{DispatchBatchStats, DispatchConfig};

/// The persistent work-stealing pool the engine runs on, one
/// [`DispatchScratch`] per worker.
pub type DispatchPool = fedadmm_tensor::dispatch::DispatchPool<DispatchScratch>;

/// Per-worker reusable buffers, one arena per pool worker (plus one for the
/// serial path). Sized once on first use and recycled for every later job.
#[derive(Debug, Default)]
pub struct DispatchScratch {
    /// Reusable copy of the client's sample indices.
    pub indices: Vec<usize>,
    /// The algorithm's cached network and per-batch training buffers.
    pub update: UpdateScratch,
    /// Staging buffer for wire-path quantization codes
    /// ([`Quantizer::quantize_into`](crate::compression::Quantizer::quantize_into)):
    /// sized on the worker's first encoded job and reused for every later
    /// one.
    pub wire_codes: Vec<u16>,
}

/// The engine's pool as the engine drives it: [`DispatchScratch`] reuse,
/// steal accounting, the inline one-job batch and panic propagation, all
/// through the public API. The pool's internals (chunk formula, worker
/// resolution, thread count, concurrent callers) are tested where it lives.
#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn config(workers: usize) -> DispatchConfig {
        DispatchConfig {
            workers: Some(workers),
        }
    }

    #[test]
    fn pool_survives_many_batches_and_reuses_scratch_capacity() {
        let workers = 3;
        let pool = DispatchPool::new(config(workers));
        let cold = AtomicU64::new(0);
        for _ in 0..20 {
            pool.run(11, false, &|_, _, scratch| {
                if scratch.indices.capacity() < 64 {
                    cold.fetch_add(1, Ordering::SeqCst);
                }
                scratch.indices.clear();
                scratch.indices.extend(0..64usize);
            });
        }
        // 20 × 11 jobs, but each worker's arena allocates at most once —
        // every later job it claims reuses the grown capacity.
        assert!(
            cold.load(Ordering::SeqCst) <= workers as u64,
            "at most one cold arena per worker, saw {}",
            cold.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn steals_are_counted_when_a_worker_drains_anothers_share() {
        let pool = DispatchPool::new(config(2));
        // Job 0 is a straggler; the other worker must steal the rest.
        let stats = pool.run(12, true, &|_, job, _| {
            if job == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
        });
        assert_eq!(stats.jobs, 12);
        assert_eq!(stats.chunks, 12);
        assert!(
            stats.steals >= 9,
            "expected the fast worker to claim most chunks, steals = {}",
            stats.steals
        );
        assert_eq!(stats.busy_seconds.len(), 2);
        assert!(stats.busy_seconds.iter().any(|&b| b >= 0.03));
    }

    #[test]
    fn one_job_batch_runs_inline_without_waking_the_workers() {
        let pool = DispatchPool::new(config(3));
        let main_thread = std::thread::current().id();
        let stats = pool.run(1, true, &|worker, job, _| {
            assert_eq!((worker, job), (0, 0));
            assert_eq!(std::thread::current().id(), main_thread);
        });
        assert_eq!((stats.workers, stats.jobs, stats.chunks), (1, 1, 1));
        assert_eq!(stats.busy_seconds.len(), 1);
        // Two jobs are a real batch again.
        assert_eq!(pool.run(2, false, &|_, _, _| {}).workers, 3);
    }

    #[test]
    #[should_panic(expected = "dispatch worker panicked")]
    fn worker_panic_propagates_to_the_caller() {
        let pool = DispatchPool::new(config(2));
        pool.run(4, false, &|_, job, _| {
            assert!(job != 2, "boom");
        });
    }

    #[test]
    fn pool_stays_usable_after_a_panicked_batch() {
        let pool = DispatchPool::new(config(2));
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(4, false, &|_, _, _| panic!("boom"));
        }));
        assert!(caught.is_err());
        let hits = AtomicU64::new(0);
        pool.run(6, false, &|_, _, _| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 6);
    }
}
