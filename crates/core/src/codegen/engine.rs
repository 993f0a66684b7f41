//! Persistent execution engine: a reusable worker pool plus pinned
//! scratch arenas.
//!
//! Spawning a fresh `std::thread::scope` of workers per kernel and
//! throwing their [`ScratchPool`]s away afterwards lets thread creation
//! and cold scratch pools dominate small kernels. The [`ExecEngine`]
//! keeps both alive across calls:
//!
//! * a [`WorkerPool`] of lazily spawned, long-lived worker threads that
//!   pick up one *job* (a type-erased block-draining closure) at a time
//!   and go back to sleep;
//! * one [`ScratchPool`] pinned to each worker thread (plus one for the
//!   serial path), so intermediate buffers recycle *across*
//!   `execute_kernel` calls — the cross-call reuse measured by
//!   [`sf_tensor::alloc_stats::pool_reuse_ratio`], into which every
//!   arena's hit and miss counts are flushed once per kernel;
//! * a serial cutoff ([`serial_cutoff`]) so kernels whose total work
//!   cannot amortize a pool dispatch run inline on the caller's thread.
//!
//! Jobs run one at a time: a submitter installs the job, wakes the
//! workers, and blocks until every participating worker has finished.
//! That hand-shake is what makes the type-erased borrow in [`RawTask`]
//! sound — the closure's stack frame outlives every worker's use of it.
//! Workers run the job behind `catch_unwind`, so a panic that escapes
//! the per-block isolation in `exec` marks the job as panicked instead
//! of killing the thread: the pool survives and stays usable for the
//! next call (the resilience layer's interpreter fallback depends on
//! this).
//!
//! The condvar/epoch protocol of [`WorkerPool::run`] / `worker_loop` is
//! model-checked exhaustively in `crates/core/tests/pool_protocol.rs`:
//! every interleaving of 2 workers × 2 jobs over the slot-claim state
//! machine is enumerated, asserting no lost wakeups, no epoch reuse,
//! and drain-before-return. **Any change to the claim or completion
//! logic here must be mirrored in that model.**

use sf_tensor::ScratchPool;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError, TryLockError};

/// Minimum total output elements for which a multi-block kernel is
/// worth dispatching to the pool; below this, pool wake-up and
/// completion hand-shake cost more than the arithmetic they spread
/// (e.g. single-row attention decode). Measured on the exec benchmark:
/// dispatch overhead is ~2–5 µs, and kernels under ~16 Ki output
/// elements finish serially in that budget.
pub const MIN_PARALLEL_WORK: usize = 16 * 1024;

/// Whether a kernel should run serially on the caller's thread instead
/// of being dispatched to the worker pool.
///
/// `n_blocks` is the spatial block count (one block cannot be split),
/// `total_work` the summed output volume in elements.
pub fn serial_cutoff(n_blocks: usize, total_work: usize) -> bool {
    n_blocks < 2 || total_work < MIN_PARALLEL_WORK
}

/// A type-erased, lifetime-erased job closure.
///
/// Soundness: [`WorkerPool::run`] blocks until every worker that
/// claimed a slot of the job has finished executing it, so the borrow
/// behind the pointer strictly outlives every dereference.
type RawTask = *const (dyn Fn(&mut ScratchPool) + Sync);

/// One in-flight job: `slots` workers each claim the task once.
struct Job {
    task: RawTask,
    /// Worker slots this job wants filled.
    slots: usize,
    /// Slots claimed so far.
    taken: usize,
    /// Claimed slots still executing.
    active: usize,
    /// Whether any worker panicked out of the task.
    panicked: bool,
    /// Submission epoch (guards a worker from claiming two slots of
    /// the same job).
    epoch: u64,
}

// SAFETY: the raw task pointer crosses threads only inside the pool
// mutex, and the blocking-submit drain (`WorkerPool::run` waits for
// `taken == slots && active == 0`) guarantees the pointee outlives every
// worker's use; the pointee itself is `Sync`, so shared calls from
// several workers are fine.
unsafe impl Send for Job {}

struct PoolState {
    job: Option<Job>,
    epoch: u64,
    shutdown: bool,
    spawned: usize,
    handles: Vec<std::thread::JoinHandle<()>>,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Wakes workers: new job or shutdown.
    work: Condvar,
    /// Wakes submitters: job finished or job slot freed.
    done: Condvar,
}

/// A persistent pool of worker threads executing one job at a time.
///
/// Threads are spawned lazily on first use, grow to the largest worker
/// count ever requested, and live until [`shutdown`](WorkerPool::shutdown)
/// (or drop). Each worker owns a [`ScratchPool`] that persists across
/// jobs.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::new()
    }
}

impl WorkerPool {
    /// Creates an empty pool; threads spawn on the first `run`.
    pub fn new() -> Self {
        WorkerPool {
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    job: None,
                    epoch: 0,
                    shutdown: false,
                    spawned: 0,
                    handles: Vec::new(),
                }),
                work: Condvar::new(),
                done: Condvar::new(),
            }),
        }
    }

    /// Number of worker threads currently spawned.
    pub fn spawned(&self) -> usize {
        self.shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .spawned
    }

    /// Runs `task` on `workers` pool threads, blocking until every one
    /// of them has finished. Returns `true` if any worker panicked out
    /// of the task (the pool itself survives).
    ///
    /// The task is invoked once per worker with that worker's pinned
    /// scratch pool; it is expected to drain a shared work queue (an
    /// atomic index over blocks/items) until empty.
    pub fn run(&self, workers: usize, task: &(dyn Fn(&mut ScratchPool) + Sync)) -> bool {
        let workers = workers.max(1);
        // SAFETY: the transmute only erases the closure's borrow
        // lifetime (`'_` → `'static`); no other part of the type
        // changes. The erased pointer is dereferenced exclusively by
        // workers that claimed a slot of this job, and this function
        // does not return before every claimed slot has drained
        // (`taken == slots && active == 0` below), so `task`'s stack
        // frame strictly outlives every dereference. The pool-protocol
        // model check (tests/pool_protocol.rs) verifies the drain holds
        // under every 2-worker × 2-job interleaving.
        let raw: RawTask = unsafe {
            std::mem::transmute::<
                *const (dyn Fn(&mut ScratchPool) + Sync + '_),
                *const (dyn Fn(&mut ScratchPool) + Sync + 'static),
            >(task as *const _)
        };
        let mut st = self
            .shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // One job at a time: queue behind any in-flight submission.
        while st.job.is_some() {
            st = self
                .shared
                .done
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        while st.spawned < workers {
            let shared = Arc::clone(&self.shared);
            st.handles
                .push(std::thread::spawn(move || worker_loop(&shared)));
            st.spawned += 1;
        }
        st.epoch += 1;
        let epoch = st.epoch;
        st.job = Some(Job {
            task: raw,
            slots: workers,
            taken: 0,
            active: 0,
            panicked: false,
            epoch,
        });
        self.shared.work.notify_all();
        let panicked = loop {
            if let Some(job) = st.job.as_ref() {
                if job.epoch == epoch && job.taken == job.slots && job.active == 0 {
                    break job.panicked;
                }
            }
            st = self
                .shared
                .done
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        };
        st.job = None;
        drop(st);
        // Wake any submitter queued on the job slot.
        self.shared.done.notify_all();
        panicked
    }

    /// Stops and joins every worker thread. The pool stays usable;
    /// a later `run` re-spawns workers.
    pub fn shutdown(&self) {
        let handles = {
            let mut st = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            st.shutdown = true;
            st.spawned = 0;
            std::mem::take(&mut st.handles)
        };
        self.shared.work.notify_all();
        for h in handles {
            let _ = h.join();
        }
        self.shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .shutdown = false;
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Body of one worker thread: wait for a job slot, run the task with
/// the thread-pinned scratch pool, report completion.
fn worker_loop(shared: &PoolShared) {
    // The pinned arena: lives as long as the thread, so recycled
    // buffers carry over from one execute call to the next.
    let mut scratch = ScratchPool::new();
    let mut last_epoch = 0u64;
    loop {
        let task = {
            let mut st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(job) = st.job.as_mut() {
                    if job.epoch > last_epoch && job.taken < job.slots {
                        job.taken += 1;
                        job.active += 1;
                        last_epoch = job.epoch;
                        break job.task;
                    }
                }
                st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // SAFETY: the submitter in `WorkerPool::run` blocks until
            // this worker reports completion, so the closure behind
            // `task` is alive for the whole call.
            let f = unsafe { &*task };
            f(&mut scratch);
        }));
        // Once per job, not per take: the submitter reads the
        // process-wide pool counters only after this job has drained.
        scratch.flush_stats();
        let mut st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(job) = st.job.as_mut() {
            job.active -= 1;
            if result.is_err() {
                job.panicked = true;
            }
            if job.taken == job.slots && job.active == 0 {
                shared.done.notify_all();
            }
        }
    }
}

/// The long-lived execution engine shared by the compile session, the
/// CLI driver and the fuzzing oracle.
///
/// Owns the persistent [`WorkerPool`], the serial-path scratch arena,
/// and observability counters. Cheap to share behind an `Arc`; most
/// callers use the process-wide [`ExecEngine::shared`] instance so
/// every execution in the process reuses one set of warm threads and
/// pools.
pub struct ExecEngine {
    pool: WorkerPool,
    /// Scratch arena for kernels that run serially on the caller's
    /// thread (cutoff hits or `threads == 1`).
    serial_scratch: Mutex<ScratchPool>,
    dispatches: AtomicU64,
    serial_runs: AtomicU64,
    batches: AtomicU64,
    /// Kernels denied the lock-free path because their disjointness
    /// proof failed (`RACE505` or worse); they ran serially instead.
    race_fallbacks: AtomicU64,
}

impl Default for ExecEngine {
    fn default() -> Self {
        ExecEngine::new()
    }
}

impl std::fmt::Debug for ExecEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecEngine")
            .field("workers", &self.pool.spawned())
            .field("dispatches", &self.dispatches())
            .field("serial_runs", &self.serial_runs())
            .field("batches", &self.batches())
            .field("race_fallbacks", &self.race_fallbacks())
            .finish()
    }
}

impl ExecEngine {
    /// Creates a fresh engine with its own (empty) worker pool.
    pub fn new() -> Self {
        ExecEngine {
            pool: WorkerPool::new(),
            serial_scratch: Mutex::new(ScratchPool::new()),
            dispatches: AtomicU64::new(0),
            serial_runs: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            race_fallbacks: AtomicU64::new(0),
        }
    }

    /// The process-wide shared engine. Every default-configured
    /// [`crate::pipeline::CompileSession`] executes through this
    /// instance, so warm worker threads and scratch arenas are reused
    /// across the whole process.
    pub fn shared() -> Arc<ExecEngine> {
        static SHARED: OnceLock<Arc<ExecEngine>> = OnceLock::new();
        Arc::clone(SHARED.get_or_init(|| Arc::new(ExecEngine::new())))
    }

    /// Kernels dispatched to the worker pool.
    pub fn dispatches(&self) -> u64 {
        self.dispatches.load(Ordering::Relaxed)
    }

    /// Kernels run serially (single worker or under the cutoff).
    pub fn serial_runs(&self) -> u64 {
        self.serial_runs.load(Ordering::Relaxed)
    }

    /// `execute_many` batches dispatched to the pool.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Kernels forced onto the serial path by a failed disjointness
    /// proof (see [`crate::verify::races::DisjointProof`]).
    pub fn race_fallbacks(&self) -> u64 {
        self.race_fallbacks.load(Ordering::Relaxed)
    }

    /// Records one prover-gated serial fallback.
    pub(crate) fn note_race_fallback(&self) {
        self.race_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Worker threads currently alive in the pool.
    pub fn pool_workers(&self) -> usize {
        self.pool.spawned()
    }

    /// Runs a job on the pool, counting it as a kernel dispatch.
    /// Returns `true` if a worker panicked out of the task.
    pub(crate) fn run_dispatch(
        &self,
        workers: usize,
        task: &(dyn Fn(&mut ScratchPool) + Sync),
    ) -> bool {
        self.dispatches.fetch_add(1, Ordering::Relaxed);
        self.pool.run(workers, task)
    }

    /// Runs a job on the pool, counting it as a batch dispatch.
    /// Returns `true` if a worker panicked out of the task.
    pub(crate) fn run_batch(
        &self,
        workers: usize,
        task: &(dyn Fn(&mut ScratchPool) + Sync),
    ) -> bool {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.pool.run(workers, task)
    }

    /// Runs `f` with the engine's serial scratch arena, counting a
    /// serial run. Falls back to a throwaway pool if the arena is held
    /// by a concurrent serial execution.
    pub(crate) fn with_serial_scratch<R>(&self, f: impl FnOnce(&mut ScratchPool) -> R) -> R {
        self.serial_runs.fetch_add(1, Ordering::Relaxed);
        let run = |pool: &mut ScratchPool| {
            let result = f(pool);
            pool.flush_stats();
            result
        };
        match self.serial_scratch.try_lock() {
            Ok(mut pool) => run(&mut pool),
            Err(TryLockError::Poisoned(p)) => run(&mut p.into_inner()),
            Err(TryLockError::WouldBlock) => run(&mut ScratchPool::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn cutoff_pins_small_and_single_block_kernels_to_serial() {
        // One block can never be split, no matter how much work.
        assert!(serial_cutoff(1, usize::MAX));
        // Tiny total work (attention decode: one row) stays serial.
        assert!(serial_cutoff(64, 64));
        assert!(serial_cutoff(8, MIN_PARALLEL_WORK - 1));
        // At or above the threshold with 2+ blocks, dispatch.
        assert!(!serial_cutoff(2, MIN_PARALLEL_WORK));
        assert!(!serial_cutoff(1024, 1 << 24));
    }

    #[test]
    fn pool_reuses_threads_across_jobs() {
        let pool = WorkerPool::new();
        let counter = AtomicUsize::new(0);
        for _ in 0..10 {
            let panicked = pool.run(3, &|_scratch| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
            assert!(!panicked);
        }
        assert_eq!(counter.load(Ordering::Relaxed), 30);
        // Threads were spawned once, not per job.
        assert_eq!(pool.spawned(), 3);
    }

    #[test]
    fn pool_grows_to_largest_request() {
        let pool = WorkerPool::new();
        pool.run(2, &|_| {});
        assert_eq!(pool.spawned(), 2);
        pool.run(5, &|_| {});
        assert_eq!(pool.spawned(), 5);
        pool.run(1, &|_| {});
        assert_eq!(pool.spawned(), 5);
    }

    #[test]
    fn pool_survives_a_panicking_job() {
        let pool = WorkerPool::new();
        let hit = AtomicUsize::new(0);
        let panicked = pool.run(2, &|_| {
            if hit.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("injected");
            }
        });
        assert!(panicked);
        // The pool is still fully usable afterwards.
        let ok = AtomicUsize::new(0);
        let panicked = pool.run(2, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert!(!panicked);
        assert_eq!(ok.load(Ordering::Relaxed), 2);
        assert_eq!(pool.spawned(), 2);
    }

    #[test]
    fn worker_scratch_persists_across_jobs() {
        let pool = WorkerPool::new();
        pool.run(1, &|scratch| {
            let buf = scratch.take(256);
            scratch.recycle(buf);
        });
        let hits = AtomicUsize::new(0);
        pool.run(1, &|scratch| {
            let before = scratch.hits();
            let buf = scratch.take(128);
            scratch.recycle(buf);
            hits.fetch_add((scratch.hits() - before) as usize, Ordering::Relaxed);
        });
        // The second job's take was served by the first job's buffer.
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn shutdown_joins_and_pool_respawns() {
        let pool = WorkerPool::new();
        pool.run(2, &|_| {});
        assert_eq!(pool.spawned(), 2);
        pool.shutdown();
        assert_eq!(pool.spawned(), 0);
        let n = AtomicUsize::new(0);
        pool.run(2, &|_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn engine_counts_serial_and_dispatch_runs() {
        let engine = ExecEngine::new();
        engine.with_serial_scratch(|_| {});
        engine.with_serial_scratch(|_| {});
        assert_eq!(engine.serial_runs(), 2);
        assert_eq!(engine.dispatches(), 0);
        engine.run_dispatch(2, &|_| {});
        assert_eq!(engine.dispatches(), 1);
        assert_eq!(engine.batches(), 0);
    }
}
