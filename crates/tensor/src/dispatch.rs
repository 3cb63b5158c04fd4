//! The workspace's one worker pool: a persistent, work-stealing
//! [`DispatchPool`].
//!
//! It is the one place in the workspace that creates threads and reads the
//! host's core count. Under FedADMM's heterogeneous-epochs workloads (the
//! paper's system-heterogeneity protocol) a static partition of the jobs
//! lets a single 16×-epoch straggler serialize its whole share while other
//! cores idle, so the workers self-schedule:
//!
//! * a **persistent** set of parked worker threads (spawned once per pool,
//!   not once per batch);
//! * jobs are claimed from a shared atomic **chunk cursor** — a worker that
//!   finishes early simply claims the next chunk instead of idling behind a
//!   straggler. The chunk size adapts to the batch:
//!   `clamp(jobs / (4·workers), 1, 8)`;
//! * each worker owns one reusable scratch arena of the pool's type `S`
//!   (the round engine's per-job training buffers; `()` when jobs need
//!   none), so a steady-state batch performs no per-job allocations.
//!
//! The round engine runs its client updates, evaluation and server fold on
//! one pool (`fedadmm_core::engine::DispatchPool`); the synthetic dataset
//! generator (`fedadmm_data::synthetic`) runs its sample chunks on a
//! short-lived one. A job body is a serial loop (tensor kernels never
//! fork), so the worker count is the single parallelism control and a
//! one-worker pool makes the whole run single-threaded.
//!
//! Determinism is the caller's half of the contract: a job's result must
//! depend only on its index, never on the worker or the order jobs ran in.
//! Every caller in the workspace keeps it, so their outcomes are
//! byte-identical for every worker count and chunk size.
//!
//! The worker count resolves from [`DispatchConfig`] first, then falls back
//! to `FEDADMM_DISPATCH_WORKERS` — the one environment variable the
//! workspace reads (a value that is not a positive integer panics) — then
//! to the hardware default.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Dispatch-pool configuration. An unset worker count falls back to the
/// default.
#[derive(Debug, Clone, Copy, Default)]
pub struct DispatchConfig {
    /// Worker-thread count (default: `FEDADMM_DISPATCH_WORKERS`, else
    /// [`std::thread::available_parallelism`]). `1` selects the serial
    /// inline path — no threads are spawned at all.
    pub workers: Option<usize>,
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
}

/// The chunk size for a batch of `num_jobs` over `workers` workers:
/// `clamp(jobs / (4·workers), 1, 8)` — about four claims per worker on
/// balanced loads, small enough to rebalance behind a straggler.
fn chunk_size(num_jobs: usize, workers: usize) -> usize {
    (num_jobs / (workers.max(1) * 4)).clamp(1, 8)
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
type DispatchTask<'a, S> = &'a (dyn Fn(usize, usize, &mut S) + Sync);

/// One batch, as published to the workers. The task reference is
/// lifetime-erased; [`DispatchPool::run`] blocks until every worker is done
/// with the batch, so the borrow outlives all uses.
struct BatchDesc<S: 'static> {
    task: &'static (dyn Fn(usize, usize, &mut S) + Sync),
    num_jobs: usize,
    chunk: usize,
    timed: bool,
}

// Not derived: a derive would demand `S: Copy`, and only the reference is
// copied.
impl<S> Clone for BatchDesc<S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S> Copy for BatchDesc<S> {}

#[derive(Debug, Clone, Copy, Default)]
struct WorkerStats {
    jobs: u64,
    chunks: u64,
    busy: f64,
}

struct PoolState<S: 'static> {
    /// Batch sequence number; workers run each sequence exactly once.
    seq: u64,
    batch: Option<BatchDesc<S>>,
    /// Workers still running the current batch.
    remaining: usize,
    shutdown: bool,
    worker_stats: Vec<WorkerStats>,
}

struct Shared<S: 'static> {
    state: Mutex<PoolState<S>>,
    /// Workers park here between batches.
    work_cv: Condvar,
    /// The caller parks here until `remaining` drops to zero.
    done_cv: Condvar,
    /// The batch's shared job cursor.
    cursor: AtomicUsize,
    panicked: AtomicBool,
}

/// A persistent self-scheduling worker pool (see [module docs](self)),
/// generic over its per-worker scratch arena `S`.
pub struct DispatchPool<S: Default + Send + 'static> {
    workers: usize,
    shared: Arc<Shared<S>>,
    handles: Vec<JoinHandle<()>>,
    /// Scratch arena for the serial inline path (one-job batches, every
    /// batch of a one-worker pool) and [`DispatchPool::with_scratch`].
    serial_scratch: Mutex<S>,
}

impl<S: Default + Send + 'static> DispatchPool<S> {
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
            workers,
            shared,
            handles,
            serial_scratch: Mutex::new(S::default()),
        }
    }

    /// The resolved worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f` on the serial scratch arena, on the calling thread.
    pub fn with_scratch<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
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
    pub fn run(
        &self,
        num_jobs: usize,
        timed: bool,
        task: DispatchTask<'_, S>,
    ) -> DispatchBatchStats {
        if num_jobs == 0 {
            return DispatchBatchStats::default();
        }
        if self.handles.is_empty() || num_jobs == 1 {
            return self.run_serial(num_jobs, timed, task);
        }
        let chunk = chunk_size(num_jobs, self.workers);
        // SAFETY: the borrow is erased to 'static so it can sit in the
        // shared state, but `run` does not return until every worker has
        // finished the batch (`remaining == 0`), and workers never touch a
        // batch after decrementing `remaining` — the reference outlives
        // every dereference.
        let task: &'static (dyn Fn(usize, usize, &mut S) + Sync) =
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
        task: DispatchTask<'_, S>,
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

impl<S: Default + Send + 'static> Drop for DispatchPool<S> {
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

fn worker_loop<S: Default + 'static>(shared: Arc<Shared<S>>, worker: usize) {
    let mut scratch = S::default();
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

    fn config(workers: usize) -> DispatchConfig {
        DispatchConfig {
            workers: Some(workers),
        }
    }

    #[test]
    fn every_job_runs_exactly_once_across_worker_and_chunk_counts() {
        // The job counts take the derived chunk from 1 to 8 at every pooled
        // worker count.
        for workers in [1usize, 2, 3, 8] {
            let pool = DispatchPool::<()>::new(config(workers));
            for jobs in [5usize, 37, 150, 400] {
                let counts: Vec<AtomicU64> = (0..jobs).map(|_| AtomicU64::new(0)).collect();
                let stats = pool.run(jobs, false, &|_, job, _| {
                    counts[job].fetch_add(1, Ordering::SeqCst);
                });
                let chunk = stats.chunk_size;
                for (j, c) in counts.iter().enumerate() {
                    assert_eq!(
                        c.load(Ordering::SeqCst),
                        1,
                        "job {j} of {jobs} with {workers} workers chunk {chunk}"
                    );
                }
                assert_eq!(stats.jobs, jobs as u64);
                assert_eq!(stats.workers, workers);
                if workers > 1 {
                    assert_eq!(chunk, chunk_size(jobs, workers));
                }
            }
        }
    }

    #[test]
    fn adaptive_chunk_tracks_cohort_size() {
        assert_eq!(chunk_size(4, 8), 1); // tiny cohort → chunk 1
        assert_eq!(chunk_size(64, 4), 4);
        assert_eq!(chunk_size(10_000, 8), 8); // capped at 8
    }

    #[test]
    fn serial_pool_spawns_no_threads_and_runs_inline() {
        let pool = DispatchPool::<()>::new(config(1));
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
    fn concurrent_callers_are_served_one_batch_at_a_time() {
        let pool = Arc::new(DispatchPool::<()>::new(config(3)));
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
}
