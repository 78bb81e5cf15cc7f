//! Deterministic multi-threaded execution primitives for trial campaigns.
//!
//! Fault campaigns and bench sweeps run thousands of *independent* trials:
//! each is a pure function of `(instance, config, seed)`. That makes them
//! embarrassingly parallel — but the surrounding machinery (journals,
//! aggregate reports, quarantine bookkeeping) is specified in **canonical
//! trial order**, and the repo's reproducibility guarantees are byte-level.
//! This crate provides the building blocks that let callers fan trials out
//! across a thread pool while keeping every observable artifact identical
//! to serial execution:
//!
//! - [`ordered_map`] — a work-stealing fan-out over an indexed work list
//!   whose output vector is always in input order, regardless of which
//!   worker finished first.
//! - [`ReorderBuffer`] — the streaming flavor of the same guarantee, for
//!   coordinators (the campaign journal writer) that must consume results
//!   in canonical order *while* workers are still producing.
//! - [`WatchdogPool`] — reusable watchdog threads, so running 10 000
//!   supervised trials with a wall-clock limit does not spawn 10 000
//!   short-lived OS threads.
//! - [`ScratchPool`] — a lock-protected free list of reusable scratch
//!   buffers (e.g. simulation-engine state vectors) checked out by whichever
//!   worker needs one next.
//! - [`resolve_jobs`] / [`default_jobs`] — the `--jobs` policy shared by
//!   the CLI and library entry points.
//!
//! Everything here is built on `std` primitives only (`std::thread::scope`,
//! `mpsc`, atomics); there is no dependency on an external work-stealing
//! runtime. The "injector queue" is an atomic cursor over the descriptor
//! list: workers claim the next unclaimed index, which is exactly the
//! work-stealing discipline needed when all items are known up front.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::Duration;

/// Number of worker threads to use when the caller did not say: the OS
/// view of available parallelism, or 1 if that cannot be determined.
#[must_use]
pub fn default_jobs() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Resolve an optional `--jobs` request to a concrete worker count.
///
/// `None` means "use [`default_jobs`]"; an explicit request is clamped to
/// at least 1.
#[must_use]
pub fn resolve_jobs(requested: Option<usize>) -> usize {
    match requested {
        Some(n) => n.max(1),
        None => default_jobs(),
    }
}

/// Run `f` over every item of `items` on up to `jobs` worker threads and
/// return the results **in input order**.
///
/// Workers pull the next unclaimed index from a shared atomic cursor
/// (work stealing over a fixed work list), so a slow item never idles the
/// other workers. Results are reassembled by index; the returned vector is
/// indistinguishable from `items.into_iter().enumerate().map(f)`.
///
/// With `jobs <= 1` (or a single item) the items are mapped inline on the
/// calling thread — the exact serial path, with no threads or channels.
///
/// `f` receives `(index, item)` so callers can recover per-item context
/// (scenario names, seeds) without threading it through the result type.
///
/// # Panics
///
/// A panic in `f` is propagated to the caller once in-flight items finish;
/// remaining unclaimed items are not started. Callers that need per-item
/// panic isolation should catch inside `f` (the campaign runners do).
pub fn ordered_map<I, T, F>(items: Vec<I>, jobs: usize, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let total = items.len();
    if jobs <= 1 || total <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = channel::<(usize, T)>();
    let slots = &slots;
    let cursor = &cursor;
    let f = &f;
    thread::scope(|scope| {
        for _ in 0..jobs.min(total) {
            let tx = tx.clone();
            scope.spawn(move || loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                if idx >= total {
                    break;
                }
                let item = slots[idx]
                    .lock()
                    .expect("work slot lock poisoned")
                    .take()
                    .expect("work item claimed twice");
                if tx.send((idx, f(idx, item))).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);
    let mut out: Vec<Option<T>> = Vec::with_capacity(total);
    out.resize_with(total, || None);
    for (idx, value) in rx {
        out[idx] = Some(value);
    }
    out.into_iter()
        .map(|slot| slot.expect("worker completed without storing a result"))
        .collect()
}

/// A boxed watchdog job.
type Job = Box<dyn FnOnce() + Send>;

/// An idle worker thread, addressed by its private job channel. The
/// `id` lets a worker find (and remove) its own free-list entry when it
/// reaps itself after sitting idle.
struct Worker {
    id: u64,
    jobs: Sender<Job>,
}

/// Outcome of running a closure under a [`WatchdogPool`] wall-clock limit.
pub enum WatchdogOutcome<T> {
    /// The closure finished in time and returned normally.
    Completed(T),
    /// The closure finished in time but panicked; the payload is returned
    /// so the caller can extract the panic message.
    Panicked(Box<dyn std::any::Any + Send>),
    /// The closure did not finish within the limit. The worker thread keeps
    /// running the stale job to completion and then returns to the pool; it
    /// is not killed.
    TimedOut,
}

/// A pool of reusable watchdog threads for wall-clock-limited trial attempts.
///
/// The previous supervisor spawned one detached OS thread per watchdog
/// attempt, so a 10k-trial campaign with `--watchdog-ms` spawned 10k
/// threads. This pool parks finished workers on a free list and spawns a
/// new thread only when the list is empty (every existing worker is busy —
/// running a live attempt or finishing a stale, timed-out one). Steady-state
/// thread count is therefore the peak number of *concurrent* attempts plus
/// the number of currently-hung attempts, not the trial count.
///
/// Each worker owns a private job channel, so claiming a worker from the
/// free list reserves it exclusively — a submitted job can never sit behind
/// another caller's job in a shared queue and time out spuriously.
///
/// Jobs are `'static` because a timed-out job outlives the `run` call that
/// submitted it — the same reason the old detached-thread scheme required
/// `'static` closures.
///
/// Workers that sit on the free list longer than the pool's idle timeout
/// reap themselves (remove their own free-list entry and exit), so a
/// burst of slow jobs no longer pins peak thread count forever — what a
/// long-running daemon needs. Claiming and reaping are serialized by the
/// free-list lock: a worker only exits after removing its own entry, so
/// a caller can never claim a worker that has decided to die.
pub struct WatchdogPool {
    idle: Arc<Mutex<Vec<Worker>>>,
    /// Currently live worker threads (observability for tests).
    live: Arc<AtomicUsize>,
    /// Monotonic worker-id source.
    next_id: AtomicU64,
    /// How long a worker may sit idle before reaping itself.
    idle_timeout: Duration,
}

/// Default idle time before a pooled watchdog thread reaps itself.
pub const WATCHDOG_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

impl WatchdogPool {
    /// Create an empty pool. Threads are spawned lazily on first use and
    /// live until they sit idle for [`WATCHDOG_IDLE_TIMEOUT`] (then they
    /// reap themselves).
    #[must_use]
    pub fn new() -> Self {
        WatchdogPool::with_idle_timeout(WATCHDOG_IDLE_TIMEOUT)
    }

    /// Create an empty pool whose idle workers exit after `idle_timeout`
    /// without a job (tests use short timeouts to observe the shrink).
    #[must_use]
    pub fn with_idle_timeout(idle_timeout: Duration) -> Self {
        WatchdogPool {
            idle: Arc::new(Mutex::new(Vec::new())),
            live: Arc::new(AtomicUsize::new(0)),
            next_id: AtomicU64::new(0),
            idle_timeout,
        }
    }

    /// The process-wide pool shared by all supervised campaigns.
    pub fn global() -> &'static WatchdogPool {
        static GLOBAL: OnceLock<WatchdogPool> = OnceLock::new();
        GLOBAL.get_or_init(WatchdogPool::new)
    }

    /// Worker threads currently alive in this pool (busy or idle).
    ///
    /// After N sequential watchdog attempts the count stays at 1, plus one
    /// per attempt that timed out while a stale job still occupied its
    /// worker; once the burst passes and workers sit idle past the pool's
    /// idle timeout, the count drops back as they reap themselves.
    #[must_use]
    pub fn spawned_threads(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    /// Run `job` on a pooled worker thread, waiting at most `limit` for it
    /// to finish. Panics inside `job` are caught and surfaced as
    /// [`WatchdogOutcome::Panicked`].
    pub fn run<T, A>(&self, job: A, limit: Duration) -> WatchdogOutcome<T>
    where
        T: Send + 'static,
        A: FnOnce() -> T + Send + 'static,
    {
        let worker = self
            .idle
            .lock()
            .expect("watchdog pool lock poisoned")
            .pop()
            .unwrap_or_else(|| self.spawn_worker());
        let (done_tx, done_rx) = channel();
        let idle = Arc::clone(&self.idle);
        let id = worker.id;
        let handle = worker.jobs.clone();
        let wrapped: Job = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(job));
            // Re-register the worker *before* reporting the result: a caller
            // that sees the result must be able to reuse this worker for its
            // next submit without racing the registration.
            idle.lock()
                .expect("watchdog pool lock poisoned")
                .push(Worker { id, jobs: handle });
            // The supervisor may have stopped waiting (timeout); a closed
            // channel is expected then.
            let _ = done_tx.send(result);
        });
        worker
            .jobs
            .send(wrapped)
            .expect("watchdog worker job channel closed");
        match done_rx.recv_timeout(limit) {
            Ok(Ok(value)) => WatchdogOutcome::Completed(value),
            Ok(Err(payload)) => WatchdogOutcome::Panicked(payload),
            Err(_) => WatchdogOutcome::TimedOut,
        }
    }

    /// Spawn a fresh worker. Re-registration on the free list is done by
    /// the job wrapper itself (see [`WatchdogPool::run`]) so it is ordered
    /// before the result is reported; the bare loop just executes jobs —
    /// including stale ones whose submitter timed out long ago — and exits
    /// once the worker has sat idle past the pool's idle timeout.
    fn spawn_worker(&self) -> Worker {
        self.live.fetch_add(1, Ordering::SeqCst);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel::<Job>();
        let idle = Arc::clone(&self.idle);
        let live = Arc::clone(&self.live);
        let idle_timeout = self.idle_timeout;
        thread::Builder::new()
            .name("catbatch-watchdog".into())
            .spawn(move || {
                loop {
                    match rx.recv_timeout(idle_timeout) {
                        Ok(job) => job(),
                        Err(RecvTimeoutError::Timeout) => {
                            let mut list = idle.lock().expect("watchdog pool lock poisoned");
                            if let Some(pos) = list.iter().position(|w| w.id == id) {
                                // Still on the free list: nobody can claim
                                // this worker once its entry is gone, so it
                                // is safe to exit (the removed entry drops
                                // the last long-lived Sender).
                                list.remove(pos);
                                break;
                            }
                            drop(list);
                            // A caller popped this worker between the
                            // timeout and the lock; its job is in flight on
                            // the private channel — take it and keep going.
                            match rx.recv() {
                                Ok(job) => job(),
                                Err(_) => break,
                            }
                        }
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
                live.fetch_sub(1, Ordering::SeqCst);
            })
            .expect("failed to spawn watchdog worker thread");
        Worker { id, jobs: tx }
    }
}

impl Default for WatchdogPool {
    fn default() -> Self {
        WatchdogPool::new()
    }
}

/// A free list of reusable scratch buffers shared across worker threads.
///
/// Workers check a buffer out with [`ScratchPool::with`], which falls back
/// to `make` when the pool is empty (first use per worker, or when a
/// previous holder panicked and the buffer was dropped with its stack).
/// The lock is held only for the O(1) take/put, never while the buffer is
/// in use.
pub struct ScratchPool<T> {
    free: Mutex<Vec<T>>,
}

impl<T> ScratchPool<T> {
    /// Create an empty pool.
    #[must_use]
    pub fn new() -> Self {
        ScratchPool {
            free: Mutex::new(Vec::new()),
        }
    }

    /// Check out a buffer (creating one with `make` if none is free), run
    /// `f` with it, and return it to the pool. If `f` panics the buffer is
    /// dropped rather than returned — a buffer abandoned mid-update must
    /// not be trusted, and every consumer clears scratch on entry anyway.
    pub fn with<R>(&self, make: impl FnOnce() -> T, f: impl FnOnce(&mut T) -> R) -> R {
        let mut scratch = self
            .free
            .lock()
            .expect("scratch pool lock poisoned")
            .pop()
            .unwrap_or_else(make);
        let result = f(&mut scratch);
        self.free
            .lock()
            .expect("scratch pool lock poisoned")
            .push(scratch);
        result
    }

    /// Number of buffers currently parked in the pool (observability for
    /// tests: after a serial campaign this is exactly 1).
    #[must_use]
    pub fn idle_buffers(&self) -> usize {
        self.free.lock().expect("scratch pool lock poisoned").len()
    }
}

impl<T> Default for ScratchPool<T> {
    fn default() -> Self {
        ScratchPool::new()
    }
}

/// Reorders streamed `(index, value)` results into index order.
///
/// `run_campaign`'s writer loop needs "block until result `i` is
/// available, but wake up periodically to honor the group-commit flush
/// deadline"; this small buffer factors that out so it can be unit-tested
/// away from the journal.
pub struct ReorderBuffer<T> {
    pending: BTreeMap<usize, T>,
    receiver: Receiver<(usize, T)>,
}

/// Why [`ReorderBuffer::recv_index`] returned without a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReorderWait {
    /// The poll interval elapsed; the caller should run periodic work
    /// (e.g. a flush-deadline check) and call again.
    Tick,
    /// All producers hung up before the requested index arrived.
    Disconnected,
}

impl<T> ReorderBuffer<T> {
    /// Wrap a receiver of `(index, value)` pairs.
    #[must_use]
    pub fn new(receiver: Receiver<(usize, T)>) -> Self {
        ReorderBuffer {
            pending: BTreeMap::new(),
            receiver,
        }
    }

    /// Wait up to `poll` for result `index`. Results for other indices are
    /// buffered; `Err(Tick)` means "nothing yet, poll interval elapsed".
    /// `Err(Disconnected)` is terminal for `index`: every producer is gone
    /// and the result was never sent (it may still be returned for *other*
    /// indices that arrived earlier and sit in the buffer).
    pub fn recv_index(&mut self, index: usize, poll: Duration) -> Result<T, ReorderWait> {
        loop {
            if let Some(value) = self.pending.remove(&index) {
                return Ok(value);
            }
            match self.receiver.recv_timeout(poll) {
                Ok((i, value)) => {
                    self.pending.insert(i, value);
                }
                Err(RecvTimeoutError::Timeout) => return Err(ReorderWait::Tick),
                Err(RecvTimeoutError::Disconnected) => return Err(ReorderWait::Disconnected),
            }
        }
    }

    /// Result `index` if it has arrived, without waiting.
    pub fn try_index(&mut self, index: usize) -> Option<T> {
        self.pending.extend(self.receiver.try_iter());
        self.pending.remove(&index)
    }

    /// Buffers a result the consumer produced itself, as if a producer
    /// had sent it.
    pub fn insert(&mut self, index: usize, value: T) {
        self.pending.insert(index, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn ordered_map_preserves_input_order_for_any_jobs() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 3, 8] {
            let got = ordered_map(items.clone(), jobs, |_, x| x * x);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn ordered_map_passes_the_item_index() {
        let got = ordered_map(vec!['a', 'b', 'c'], 2, |i, c| format!("{i}{c}"));
        assert_eq!(got, vec!["0a", "1b", "2c"]);
    }

    #[test]
    fn ordered_map_runs_every_item_exactly_once() {
        let hits = AtomicUsize::new(0);
        let out = ordered_map((0..500).collect::<Vec<u32>>(), 8, |_, x| {
            hits.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 500);
        assert_eq!(hits.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn ordered_map_propagates_worker_panics() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            ordered_map(vec![1, 2, 3, 4], 2, |_, x| {
                if x == 3 {
                    panic!("boom on {x}");
                }
                x
            })
        }));
        assert!(result.is_err(), "panic in f must reach the caller");
    }

    #[test]
    fn resolve_jobs_clamps_and_defaults() {
        assert_eq!(resolve_jobs(Some(0)), 1);
        assert_eq!(resolve_jobs(Some(7)), 7);
        assert!(resolve_jobs(None) >= 1);
    }

    #[test]
    fn watchdog_pool_reuses_threads_across_sequential_runs() {
        let pool = WatchdogPool::new();
        for i in 0..50u32 {
            match pool.run(move || i * 2, Duration::from_secs(5)) {
                WatchdogOutcome::Completed(v) => assert_eq!(v, i * 2),
                _ => panic!("trivial job must complete"),
            }
        }
        assert_eq!(
            pool.spawned_threads(),
            1,
            "sequential watchdog attempts must share one worker thread"
        );
    }

    #[test]
    fn watchdog_pool_times_out_hung_jobs_and_recovers_the_worker() {
        let pool = WatchdogPool::new();
        let (release_tx, release_rx) = channel::<()>();
        let outcome = pool.run(
            move || {
                let _ = release_rx.recv_timeout(Duration::from_secs(10));
                1u32
            },
            Duration::from_millis(20),
        );
        assert!(matches!(outcome, WatchdogOutcome::TimedOut));
        // A fresh job while the first worker is hung needs a second thread.
        match pool.run(|| 7u32, Duration::from_secs(5)) {
            WatchdogOutcome::Completed(v) => assert_eq!(v, 7),
            _ => panic!("fresh job must complete on a new worker"),
        }
        assert_eq!(pool.spawned_threads(), 2);
        // Release the hung job; its worker returns to the pool and gets
        // reused, so further runs spawn nothing new.
        release_tx.send(()).expect("hung job receiver alive");
        // Give the stale job a moment to finish and re-register.
        for _ in 0..200 {
            if pool.idle.lock().expect("pool lock").len() == 2 {
                break;
            }
            thread::sleep(Duration::from_millis(2));
        }
        for _ in 0..10 {
            match pool.run(|| 0u32, Duration::from_secs(5)) {
                WatchdogOutcome::Completed(_) => {}
                _ => panic!("job must complete"),
            }
        }
        assert_eq!(
            pool.spawned_threads(),
            2,
            "recovered workers must be reused"
        );
    }

    /// Daemon regression: a burst of overlapping jobs grows the pool,
    /// and once the burst passes the idle workers reap themselves — the
    /// thread count must drop back instead of pinning the peak forever.
    #[test]
    fn watchdog_pool_reaps_idle_threads_after_a_burst() {
        let pool = WatchdogPool::with_idle_timeout(Duration::from_millis(50));
        // Burst: four jobs that all block until released, forcing four
        // concurrent workers.
        let (release_tx, release_rx) = channel::<()>();
        let release_rx = Arc::new(Mutex::new(release_rx));
        let mut results = Vec::new();
        for _ in 0..4 {
            let rx = Arc::clone(&release_rx);
            let (done_tx, done_rx) = channel::<()>();
            let outcome = pool.run(
                move || {
                    let _ = rx
                        .lock()
                        .expect("release lock")
                        .recv_timeout(Duration::from_secs(10));
                    drop(done_tx);
                },
                Duration::from_millis(10),
            );
            assert!(matches!(outcome, WatchdogOutcome::TimedOut));
            results.push(done_rx);
        }
        assert_eq!(pool.spawned_threads(), 4, "burst must grow the pool");
        // Release the burst; all four workers finish and go idle.
        for _ in 0..4 {
            release_tx.send(()).expect("burst job receiver alive");
        }
        for done in &results {
            let _ = done.recv_timeout(Duration::from_secs(10));
        }
        // Past the idle timeout, the pool sheds threads.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while pool.spawned_threads() > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "idle watchdog workers were never reaped (still {})",
                pool.spawned_threads()
            );
            thread::sleep(Duration::from_millis(10));
        }
        // Reaping keeps pooled-reuse semantics: the next run simply
        // spawns a fresh worker and completes.
        match pool.run(|| 11u32, Duration::from_secs(5)) {
            WatchdogOutcome::Completed(v) => assert_eq!(v, 11),
            _ => panic!("post-reap job must complete"),
        }
        assert_eq!(pool.spawned_threads(), 1);
    }

    #[test]
    fn watchdog_pool_reports_panics_with_payload() {
        let pool = WatchdogPool::new();
        match pool.run(|| -> u32 { panic!("kaboom 42") }, Duration::from_secs(5)) {
            WatchdogOutcome::Panicked(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                assert!(msg.contains("kaboom 42"), "payload carries the message");
            }
            _ => panic!("panicking job must report Panicked"),
        }
    }

    #[test]
    fn scratch_pool_reuses_buffers() {
        let pool: ScratchPool<Vec<u8>> = ScratchPool::new();
        let makes = AtomicUsize::new(0);
        for _ in 0..20 {
            pool.with(
                || {
                    makes.fetch_add(1, Ordering::Relaxed);
                    Vec::new()
                },
                |buf| buf.push(1),
            );
        }
        assert_eq!(
            makes.load(Ordering::Relaxed),
            1,
            "serial use needs one buffer"
        );
        assert_eq!(pool.idle_buffers(), 1);
    }

    #[test]
    fn scratch_pool_drops_buffers_abandoned_by_panic() {
        let pool: ScratchPool<Vec<u8>> = ScratchPool::new();
        let _ = catch_unwind(AssertUnwindSafe(|| {
            pool.with(Vec::new, |_| panic!("die mid-update"))
        }));
        assert_eq!(pool.idle_buffers(), 0, "panicked checkout must not return");
        pool.with(Vec::new, |buf| buf.push(1));
        assert_eq!(pool.idle_buffers(), 1);
    }

    #[test]
    fn reorder_buffer_hands_out_results_in_requested_order() {
        let (tx, rx) = channel();
        tx.send((2usize, "c")).unwrap();
        tx.send((0usize, "a")).unwrap();
        tx.send((1usize, "b")).unwrap();
        drop(tx);
        let mut buf = ReorderBuffer::new(rx);
        let poll = Duration::from_millis(10);
        assert_eq!(buf.recv_index(0, poll).unwrap(), "a");
        assert_eq!(buf.try_index(1), Some("b"));
        // A result the consumer produced itself is handed out like a sent one.
        buf.insert(3, "d");
        assert_eq!(buf.try_index(3), Some("d"));
        assert_eq!(buf.try_index(4), None);
        assert_eq!(buf.recv_index(2, poll).unwrap(), "c");
    }

    #[test]
    fn reorder_buffer_reports_ticks_then_disconnect() {
        let (tx, rx) = channel::<(usize, u32)>();
        let mut buf = ReorderBuffer::new(rx);
        assert_eq!(
            buf.recv_index(0, Duration::from_millis(5)).unwrap_err(),
            ReorderWait::Tick
        );
        drop(tx);
        assert_eq!(
            buf.recv_index(0, Duration::from_millis(5)).unwrap_err(),
            ReorderWait::Disconnected
        );
    }
}
