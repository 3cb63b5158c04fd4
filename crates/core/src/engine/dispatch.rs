//! The work-stealing dispatch pool behind
//! [`EngineCore::dispatch`](super::EngineCore::dispatch).
//!
//! Under FedADMM's heterogeneous-epochs workloads (the paper's system-
//! heterogeneity protocol) a static partition of the cohort lets a single
//! 16×-epoch straggler serialize its whole share while other cores idle.
//! [`DispatchPool`] is the one place in the workspace that creates threads
//! and reads the host's core count — the engine's one way to go parallel —
//! with self-scheduling workers:
//!
//! * a **persistent** set of parked worker threads (spawned once per
//!   engine, not once per round);
//! * jobs are claimed from a shared atomic **chunk cursor** — a worker that
//!   finishes early simply claims the next chunk instead of idling behind a
//!   straggler. The chunk size adapts to the cohort
//!   (`clamp(jobs / (4·workers), 1, 8)`) unless pinned by configuration;
//! * each worker owns a reusable [`DispatchScratch`] arena (the per-job
//!   `indices` copy plus the algorithm's
//!   [`UpdateScratch`](crate::algorithms::UpdateScratch) buffers), so the
//!   steady-state dispatch path performs no per-job allocations.
//!
//! The pool owns the cores: it runs client updates during a dispatch and,
//! between dispatches, everything else that is parallel — evaluation jobs
//! (one contiguous span of test samples per worker) and the server fold
//! (one coordinate range of θ per worker under single-pass aggregation, one
//! shard per job under hierarchical aggregation) — all submitted from the
//! tick thread while the pool is idle. A job body is a serial loop (tensor
//! kernels never fork), so the worker count is the single parallelism
//! control and a one-worker pool makes the whole run single-threaded.
//!
//! Determinism: job results depend only on `(seed, round, client)`-derived
//! RNG streams and jobs are collected in ascending client-id order, so the
//! outcome is byte-identical for every worker count and chunk size — pinned
//! by the golden-digest parity tests.
//!
//! Configuration resolves from [`DispatchConfig`] builders first; the worker
//! count then falls back to `FEDADMM_DISPATCH_WORKERS` — the one environment
//! variable the workspace reads (a value that is not a positive integer
//! panics) — then to the hardware default.

use crate::algorithms::UpdateScratch;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Dispatch-pool configuration. Unset fields fall back to defaults.
#[derive(Debug, Clone, Copy, Default)]
pub struct DispatchConfig {
    /// Worker-thread count (default: `FEDADMM_DISPATCH_WORKERS`, else
    /// [`std::thread::available_parallelism`]). `1` selects the serial
    /// inline path — no threads are spawned at all.
    pub workers: Option<usize>,
    /// Jobs claimed per cursor fetch (default: adaptive in the batch size).
    pub chunk_size: Option<usize>,
}

const WORKERS_VAR: &str = "FEDADMM_DISPATCH_WORKERS";

/// Parses the worker-count override: `None` when unset; panics, naming the
/// variable and the value, on anything but a positive integer — the worker
/// count is the only parallelism control, so a typo must not silently
/// become the default.
fn parse_workers(raw: Option<&str>) -> Option<usize> {
    let raw = raw?;
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => panic!("{WORKERS_VAR}={raw:?} is not a positive integer"),
    }
}

impl DispatchConfig {
    /// The effective worker count: builder, then environment, then
    /// available parallelism.
    pub fn resolved_workers(&self) -> usize {
        self.workers
            .or_else(|| parse_workers(std::env::var(WORKERS_VAR).ok().as_deref()))
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .max(1)
    }

    /// The chunk size for a batch of `num_jobs` over `workers` workers:
    /// builder, then `clamp(jobs / (4·workers), 1, 8)` — about four claims
    /// per worker on balanced loads, small enough to rebalance behind a
    /// straggler.
    pub fn resolved_chunk(&self, num_jobs: usize, workers: usize) -> usize {
        self.chunk_size
            .unwrap_or_else(|| (num_jobs / (workers.max(1) * 4)).clamp(1, 8))
    }
}

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

/// What one pool batch did, for telemetry.
#[derive(Debug, Clone, Default)]
pub struct DispatchBatchStats {
    /// Workers the batch ran on (1 = serial inline path).
    pub workers: usize,
    /// Chunk size jobs were claimed in.
    pub chunk_size: usize,
    /// Jobs executed.
    pub jobs: u64,
    /// Cursor claims across all workers.
    pub chunks: u64,
    /// Claims beyond each worker's first — work a static partition would
    /// have left queued behind that worker's stragglers.
    pub steals: u64,
    /// Per-worker busy seconds (empty when timing was off).
    pub busy_seconds: Vec<f64>,
}

/// A batch job: `(worker index, job index, worker scratch)`.
type DispatchTask<'a> = &'a (dyn Fn(usize, usize, &mut DispatchScratch) + Sync);

/// One batch, as published to the workers. The task reference is
/// lifetime-erased; [`DispatchPool::run`] blocks until every worker is done
/// with the batch, so the borrow outlives all uses.
#[derive(Clone, Copy)]
struct BatchDesc {
    task: &'static (dyn Fn(usize, usize, &mut DispatchScratch) + Sync),
    num_jobs: usize,
    chunk: usize,
    timed: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct WorkerStats {
    jobs: u64,
    chunks: u64,
    busy: f64,
}

struct PoolState {
    /// Batch sequence number; workers run each sequence exactly once.
    seq: u64,
    batch: Option<BatchDesc>,
    /// Workers still running the current batch.
    remaining: usize,
    shutdown: bool,
    worker_stats: Vec<WorkerStats>,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers park here between batches.
    work_cv: Condvar,
    /// The caller parks here until `remaining` drops to zero.
    done_cv: Condvar,
    /// The batch's shared job cursor.
    cursor: AtomicUsize,
    panicked: AtomicBool,
}

/// A persistent self-scheduling worker pool (see [module docs](self)).
pub struct DispatchPool {
    config: DispatchConfig,
    workers: usize,
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Scratch arena for the serial inline path (one-job batches, every
    /// batch of a one-worker pool) and [`DispatchPool::with_scratch`].
    serial_scratch: Mutex<DispatchScratch>,
}

impl DispatchPool {
    /// Builds the pool, spawning `workers − 1 > 0 ? workers : 0` persistent
    /// threads (a single-worker pool spawns none and runs inline).
    pub fn new(config: DispatchConfig) -> Self {
        let workers = config.resolved_workers();
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                seq: 0,
                batch: None,
                remaining: 0,
                shutdown: false,
                worker_stats: vec![WorkerStats::default(); workers],
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            cursor: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
        });
        let handles = if workers > 1 {
            (0..workers)
                .map(|w| {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("fedadmm-dispatch-{w}"))
                        .spawn(move || worker_loop(shared, w))
                        .expect("spawn dispatch worker")
                })
                .collect()
        } else {
            Vec::new()
        };
        DispatchPool {
            config,
            workers,
            shared,
            handles,
            serial_scratch: Mutex::new(DispatchScratch::default()),
        }
    }

    /// The configuration the pool was built from.
    pub fn config(&self) -> DispatchConfig {
        self.config
    }

    /// The resolved worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f` on the serial scratch arena, on the calling thread.
    pub fn with_scratch<R>(&self, f: impl FnOnce(&mut DispatchScratch) -> R) -> R {
        let mut scratch = self.serial_scratch.lock().expect("serial scratch lock");
        f(&mut scratch)
    }

    /// Runs a batch of `num_jobs` jobs to completion and returns the batch
    /// stats. `task(worker, job, scratch)` must tolerate any assignment of
    /// jobs to workers; each job index in `0..num_jobs` runs exactly once.
    /// A one-job batch runs inline on the serial scratch, like every batch
    /// of a one-worker pool: waking the workers costs more than it can win.
    ///
    /// Not re-entrant: a job that calls `run` or `with_scratch` on its own
    /// pool waits on the batch it is part of. Concurrent callers are served
    /// one batch at a time.
    ///
    /// # Panics
    /// Panics with `"dispatch worker panicked"` if any job panicked (all
    /// workers still drain the batch first, so the pool stays usable).
    pub fn run(&self, num_jobs: usize, timed: bool, task: DispatchTask<'_>) -> DispatchBatchStats {
        if num_jobs == 0 {
            return DispatchBatchStats::default();
        }
        if self.handles.is_empty() || num_jobs == 1 {
            return self.run_serial(num_jobs, timed, task);
        }
        let chunk = self.config.resolved_chunk(num_jobs, self.workers);
        // SAFETY: the borrow is erased to 'static so it can sit in the
        // shared state, but `run` does not return until every worker has
        // finished the batch (`remaining == 0`), and workers never touch a
        // batch after decrementing `remaining` — the reference outlives
        // every dereference.
        let task: &'static (dyn Fn(usize, usize, &mut DispatchScratch) + Sync) =
            unsafe { std::mem::transmute(task) };
        let mut st = self.shared.state.lock().expect("dispatch pool lock");
        // One batch at a time: publishing over a batch still in flight would
        // reset `remaining` under its workers and let either caller return
        // (and free its task) early.
        while st.batch.is_some() {
            st = self.shared.done_cv.wait(st).expect("dispatch pool wait");
        }
        self.shared.cursor.store(0, Ordering::SeqCst);
        self.shared.panicked.store(false, Ordering::SeqCst);
        st.seq = st.seq.wrapping_add(1);
        st.batch = Some(BatchDesc {
            task,
            num_jobs,
            chunk,
            timed,
        });
        st.remaining = self.handles.len();
        for s in st.worker_stats.iter_mut() {
            *s = WorkerStats::default();
        }
        self.shared.work_cv.notify_all();
        while st.remaining > 0 {
            st = self.shared.done_cv.wait(st).expect("dispatch pool wait");
        }
        st.batch = None;
        self.shared.done_cv.notify_all();
        let panicked = self.shared.panicked.load(Ordering::SeqCst);
        let mut stats = DispatchBatchStats {
            workers: self.handles.len(),
            chunk_size: chunk,
            jobs: 0,
            chunks: 0,
            steals: 0,
            busy_seconds: Vec::new(),
        };
        if timed {
            stats.busy_seconds.reserve(st.worker_stats.len());
        }
        for ws in &st.worker_stats {
            stats.jobs += ws.jobs;
            stats.chunks += ws.chunks;
            stats.steals += ws.chunks.saturating_sub(1);
            if timed {
                stats.busy_seconds.push(ws.busy);
            }
        }
        drop(st);
        if panicked {
            panic!("dispatch worker panicked");
        }
        stats
    }

    fn run_serial(
        &self,
        num_jobs: usize,
        timed: bool,
        task: DispatchTask<'_>,
    ) -> DispatchBatchStats {
        let mut scratch = self.serial_scratch.lock().expect("serial scratch lock");
        let start = timed.then(Instant::now);
        for job in 0..num_jobs {
            task(0, job, &mut scratch);
        }
        DispatchBatchStats {
            workers: 1,
            chunk_size: num_jobs,
            jobs: num_jobs as u64,
            chunks: 1,
            steals: 0,
            busy_seconds: start
                .map(|s| vec![s.elapsed().as_secs_f64()])
                .unwrap_or_default(),
        }
    }
}

impl Drop for DispatchPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("dispatch pool lock");
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, worker: usize) {
    let mut scratch = DispatchScratch::default();
    let mut last_seq = 0u64;
    loop {
        let desc = {
            let mut st = shared.state.lock().expect("dispatch worker lock");
            loop {
                if st.shutdown {
                    return;
                }
                if st.seq != last_seq {
                    if let Some(desc) = st.batch {
                        last_seq = st.seq;
                        break desc;
                    }
                }
                st = shared.work_cv.wait(st).expect("dispatch worker wait");
            }
        };
        let mut stats = WorkerStats::default();
        let start = desc.timed.then(Instant::now);
        let outcome = catch_unwind(AssertUnwindSafe(|| loop {
            let begin = shared.cursor.fetch_add(desc.chunk, Ordering::Relaxed);
            if begin >= desc.num_jobs {
                break;
            }
            stats.chunks += 1;
            let end = (begin + desc.chunk).min(desc.num_jobs);
            for job in begin..end {
                (desc.task)(worker, job, &mut scratch);
                stats.jobs += 1;
            }
        }));
        if outcome.is_err() {
            shared.panicked.store(true, Ordering::SeqCst);
        }
        if let Some(s) = start {
            stats.busy = s.elapsed().as_secs_f64();
        }
        let mut st = shared.state.lock().expect("dispatch worker lock");
        st.worker_stats[worker] = stats;
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn config(workers: usize, chunk: Option<usize>) -> DispatchConfig {
        DispatchConfig {
            workers: Some(workers),
            chunk_size: chunk,
        }
    }

    #[test]
    fn every_job_runs_exactly_once_across_worker_and_chunk_counts() {
        for workers in [1usize, 2, 3, 8] {
            for chunk in [None, Some(1), Some(3), Some(64)] {
                let pool = DispatchPool::new(config(workers, chunk));
                let jobs = 37;
                let counts: Vec<AtomicU64> = (0..jobs).map(|_| AtomicU64::new(0)).collect();
                let stats = pool.run(jobs, false, &|_, job, _| {
                    counts[job].fetch_add(1, Ordering::SeqCst);
                });
                for (j, c) in counts.iter().enumerate() {
                    assert_eq!(
                        c.load(Ordering::SeqCst),
                        1,
                        "job {j} with {workers} workers chunk {chunk:?}"
                    );
                }
                assert_eq!(stats.jobs, jobs as u64);
                assert_eq!(stats.workers, if workers > 1 { workers } else { 1 });
            }
        }
    }

    #[test]
    fn pool_survives_many_batches_and_reuses_scratch_capacity() {
        let workers = 3;
        let pool = DispatchPool::new(config(workers, Some(2)));
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
    fn adaptive_chunk_tracks_cohort_size() {
        let cfg = DispatchConfig::default();
        assert_eq!(cfg.resolved_chunk(4, 8), 1); // tiny cohort → chunk 1
        assert_eq!(cfg.resolved_chunk(64, 4), 4);
        assert_eq!(cfg.resolved_chunk(10_000, 8), 8); // capped at 8
        let pinned = DispatchConfig {
            chunk_size: Some(5),
            ..DispatchConfig::default()
        };
        assert_eq!(pinned.resolved_chunk(10_000, 8), 5);
    }

    #[test]
    fn steals_are_counted_when_a_worker_drains_anothers_share() {
        let pool = DispatchPool::new(config(2, Some(1)));
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
    fn serial_pool_spawns_no_threads_and_runs_inline() {
        let pool = DispatchPool::new(config(1, None));
        assert!(pool.handles.is_empty());
        let hits = AtomicU64::new(0);
        let main_thread = std::thread::current().id();
        let stats = pool.run(5, false, &|worker, _, _| {
            assert_eq!(worker, 0);
            assert_eq!(std::thread::current().id(), main_thread);
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 5);
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn one_job_batch_runs_inline_without_waking_the_workers() {
        let pool = DispatchPool::new(config(3, None));
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
    fn concurrent_callers_are_served_one_batch_at_a_time() {
        let pool = Arc::new(DispatchPool::new(config(3, Some(1))));
        let callers: Vec<JoinHandle<()>> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let caller = move || {
                    for _ in 0..50 {
                        let counts: Vec<AtomicU64> = (0..9).map(|_| AtomicU64::new(0)).collect();
                        let stats = pool.run(counts.len(), false, &|_, job, _| {
                            counts[job].fetch_add(1, Ordering::SeqCst);
                        });
                        assert_eq!(stats.jobs, 9);
                        assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
                    }
                };
                std::thread::Builder::new()
                    .spawn(caller)
                    .expect("spawn caller")
            })
            .collect();
        for caller in callers {
            caller.join().expect("caller saw every job exactly once");
        }
    }

    #[test]
    fn worker_override_parses_or_panics_naming_the_variable() {
        assert_eq!(parse_workers(None), None);
        assert_eq!(parse_workers(Some("3")), Some(3));
        assert_eq!(parse_workers(Some(" 16 ")), Some(16));
        for bad in ["", "0", "-1", "two", "2.5", "4 workers"] {
            let err = catch_unwind(|| parse_workers(Some(bad))).expect_err(bad);
            let text = err.downcast_ref::<String>().expect("formatted panic");
            assert!(
                text.contains(WORKERS_VAR) && text.contains(&format!("{bad:?}")),
                "{text}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "dispatch worker panicked")]
    fn worker_panic_propagates_to_the_caller() {
        let pool = DispatchPool::new(config(2, Some(1)));
        pool.run(4, false, &|_, job, _| {
            assert!(job != 2, "boom");
        });
    }

    #[test]
    fn pool_stays_usable_after_a_panicked_batch() {
        let pool = DispatchPool::new(config(2, Some(1)));
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
