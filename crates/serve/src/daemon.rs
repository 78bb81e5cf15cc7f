//! The daemon: sessions, shards, workers, and supervised execution.
//!
//! ## Thread model
//!
//! One **accept loop** polls a non-blocking listener. Each connection
//! becomes a **session**: a reader thread (this thread) plus a writer
//! thread. The reader assigns every inbound request a per-session
//! sequence number and guarantees *exactly one* response per request;
//! the writer holds out-of-order completions in a reorder buffer and
//! releases them strictly by sequence number — so a session transcript
//! is a pure function of what the client sent, regardless of how jobs
//! interleave on the worker pool.
//!
//! **Workers** (one shard queue each) pop their own queue first and
//! steal from the others when idle. All workers share one
//! [`Supervisor`]: jobs run under `catch_unwind`, a pooled watchdog,
//! bounded retries, and quarantine, so a panicking or hanging
//! scheduler costs one job, never the daemon, and a job quarantined on
//! one worker is refused on every other. Engine scratch is recycled
//! through a shared [`ScratchPool`].
//!
//! ## Backpressure
//!
//! Each session may have at most `queue_depth` jobs in flight; the
//! excess submission is answered immediately with a retryable
//! `overloaded` error (still delivered in order). Malformed or
//! oversized frames get typed errors and the session keeps going.
//!
//! ## Crash recovery
//!
//! With `--journal`, accepted jobs are journaled before execution and
//! their outcomes after (see [`crate::journal`]). On restart the
//! backlog — accepted jobs with no outcome — is re-executed *before*
//! the listener binds, so a resumed journal's terminal set converges
//! to exactly what an uninterrupted daemon would have produced.
//!
//! ## Exactly-once over an at-least-once wire
//!
//! A submission may carry an idempotency key ([`JobSpec::idem`]). The
//! daemon keeps a dedup table keyed by it: the first submission
//! executes; a duplicate that arrives while the original is in flight
//! *waits* for that execution (no second run) and gets the same
//! terminal response; a duplicate after completion gets the memoized
//! response. Only terminal outcomes (a result, or a non-retryable
//! error) are memoized — a retryable `overloaded`/`shutting-down`
//! bounce clears the key so the eventual resubmission really runs.
//! With a journal, the table is additionally seeded at startup from
//! journaled terminal records, so resubmission works across daemon
//! restarts; journal-reconstructed responses carry the full result
//! summary but empty `gantt`/`trace` attachments.
//!
//! ## Wire hardening
//!
//! Per-request deadlines ([`JobSpec::deadline_ms`]) are mapped onto
//! the engine's wall-clock [`RunBudget`] and surface as typed
//! `deadline_exceeded` errors, counted in `Pong` stats. Session reply
//! queues are bounded: a client that stops reading while jobs keep
//! completing overflows its queue and is *evicted* — the writer sends
//! a best-effort typed `evicted-slow-reader` notice (under a write
//! timeout) and tears the connection down, so slow readers cost one
//! session, never a wedged worker. Connection admission is capped at
//! [`ServeOptions::max_sessions`]; excess connections are answered
//! with a retryable `overloaded` error and closed.

use crate::journal::{JobRecord, JournalTx, ServeJournal};
use crate::net::{Bind, Conn, Listener};
use crate::protocol::{
    kind, read_frame, write_frame, FrameError, JobError, JobResult, JobSpec, Request, Response,
};
use catbatch::{CatBatch, CatBatchBackfill, CatPrio};
use rigid_baselines::{ListScheduler, Priority};
use rigid_dag::{analysis, format, Instance, StableHasher, StaticSource};
use rigid_exec::ScratchPool;
use rigid_faults::TrialError;
use rigid_sim::engine::{EngineConfig, EngineScratch, RunBudget, RunResult};
use rigid_sim::gantt::{render, GanttOptions};
use rigid_sim::trace::Trace;
use rigid_sim::{BudgetKind, OnlineScheduler, RunError};
use rigid_strip::CatBatchStrip;
use rigid_supervise::interrupt::InterruptToken;
use rigid_supervise::{Supervisor, SupervisorPolicy};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How the daemon is configured.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Listen address.
    pub bind: Bind,
    /// Worker (= shard) count.
    pub workers: usize,
    /// Per-session in-flight job cap; the excess gets `overloaded`.
    pub queue_depth: usize,
    /// Frame-size cap in bytes.
    pub max_frame: u32,
    /// Journal path; `None` disables crash recovery.
    pub journal: Option<PathBuf>,
    /// Per-attempt wall-clock watchdog for jobs.
    pub watchdog: Option<Duration>,
    /// Per-job engine event budget.
    pub max_events: Option<u64>,
    /// Supervised retries per job after a panic/timeout.
    pub retries: u32,
    /// Concurrent session cap. A connection accepted beyond this is
    /// answered with a retryable `overloaded` error and closed.
    pub max_sessions: usize,
    /// Per-session reply-queue bound. When a session has this many
    /// unsent responses (a client that submits but never reads), the
    /// session is evicted with a typed `evicted-slow-reader` notice.
    pub writer_queue: usize,
    /// Socket write timeout for response frames; a peer whose receive
    /// window is full fails the write instead of wedging the writer.
    pub write_timeout: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            bind: Bind::Unix(PathBuf::from("catbatch.sock")),
            workers: 4,
            queue_depth: 64,
            max_frame: crate::protocol::MAX_FRAME,
            journal: None,
            watchdog: None,
            max_events: None,
            retries: 1,
            max_sessions: 256,
            writer_queue: 1024,
            write_timeout: Duration::from_secs(2),
        }
    }
}

/// What a finished daemon reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeReport {
    /// Jobs that completed with a schedule (including resumed ones).
    pub jobs_completed: u64,
    /// Jobs that terminated with a typed failure.
    pub jobs_failed: u64,
    /// Backlog jobs re-executed from the journal at startup.
    pub jobs_resumed: u64,
    /// Sessions accepted.
    pub sessions: u64,
    /// True when shutdown was an orderly drain (always true today;
    /// reserved for abort paths).
    pub clean_shutdown: bool,
}

/// One queued unit of work.
struct WorkItem {
    seq: u64,
    spec: JobSpec,
    /// [`text_fingerprint`] of `spec.instance`, computed once at enqueue.
    fingerprint: u64,
    reply: SyncSender<(u64, Response)>,
    pending: Arc<AtomicUsize>,
    gate: Arc<SessionGate>,
}

/// Shared per-session eviction state: the flag a producer raises when
/// the bounded reply queue overflows, plus a socket handle the writer
/// uses to tear the connection down (shutdown acts on the socket, so
/// any clone reaches the reader's and writer's halves too).
struct SessionGate {
    evicted: AtomicBool,
    conn: Conn,
}

/// Queues a response without ever blocking the caller. A full reply
/// queue marks the session evicted; the session writer notices, sends
/// the typed notice, and closes the connection.
fn deliver(reply: &SyncSender<(u64, Response)>, gate: &SessionGate, seq: u64, resp: Response) {
    match reply.try_send((seq, resp)) {
        Ok(()) => {}
        Err(TrySendError::Full(_)) => {
            gate.evicted.store(true, Ordering::SeqCst);
        }
        Err(TrySendError::Disconnected(_)) => {} // session already gone
    }
}

/// State of one idempotency key in the dedup table.
enum IdemState {
    /// The first submission is executing; duplicates park here and are
    /// answered when it completes.
    InFlight(Vec<Waiter>),
    /// The key reached a terminal outcome; duplicates get this.
    Done(Response),
}

/// A parked duplicate submission.
struct Waiter {
    seq: u64,
    reply: SyncSender<(u64, Response)>,
    gate: Arc<SessionGate>,
}

/// State shared by the accept loop, sessions, and workers.
struct Shared {
    stop: AtomicBool,
    /// Set by the accept loop once every session thread is joined: no
    /// producer can touch the queues anymore, so workers may exit the
    /// moment they find them empty. Without this, a submission that
    /// races the stop flag could be queued after the workers already
    /// observed empty queues and left — and its session writer would
    /// wait forever for the item's reply sender to drop.
    producers_done: AtomicBool,
    token: InterruptToken,
    /// One queue per worker (shard), all under one lock, so that a
    /// worker's check of every queue and its wait are one atomic step.
    queues: Mutex<Vec<VecDeque<WorkItem>>>,
    /// Signalled once per queued item, and at `producers_done`.
    work: Condvar,
    completed: AtomicU64,
    failed: AtomicU64,
    deadline_exceeded: AtomicU64,
    sessions_active: AtomicUsize,
    /// Idempotency-key dedup table. Grows with distinct keys (like the
    /// journal grows with jobs); keys are client-scoped hashes, so the
    /// table stays proportional to actual submissions.
    dedup: Mutex<HashMap<u64, IdemState>>,
    /// The one supervisor, and so the one quarantine, of the backlog
    /// replay and every worker.
    supervisor: Supervisor,
    options: ServeOptions,
    journal: Mutex<Option<JournalTx>>,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || self.token.interrupted()
    }

    fn journal_tx(&self) -> Option<JournalTx> {
        self.journal.lock().expect("journal lock poisoned").clone()
    }

    /// Settles an idempotency key after its execution finished:
    /// memoizes terminal outcomes, clears retryable ones, and answers
    /// every parked duplicate either way.
    fn resolve_idem(&self, idem: Option<u64>, response: &Response) {
        let Some(key) = idem else { return };
        let terminal = match response {
            Response::Result(_) => true,
            Response::Error(e) => !e.retryable,
            _ => false,
        };
        let waiters = {
            let mut map = self.dedup.lock().expect("dedup lock poisoned");
            let waiters = match map.remove(&key) {
                Some(IdemState::InFlight(w)) => w,
                Some(done @ IdemState::Done(_)) => {
                    map.insert(key, done); // first terminal outcome wins
                    Vec::new()
                }
                None => Vec::new(),
            };
            if terminal && !matches!(map.get(&key), Some(IdemState::Done(_))) {
                map.insert(key, IdemState::Done(response.clone()));
            }
            waiters
        };
        for w in waiters {
            deliver(&w.reply, &w.gate, w.seq, response.clone());
        }
    }
}

/// A running daemon. Dropping it without calling [`Daemon::wait`]
/// triggers shutdown and joins everything.
pub struct Daemon {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<ServeReport>>,
}

impl Daemon {
    /// Resumes the journal backlog (if any), binds the listener, and
    /// starts accepting. Returns once the daemon is reachable.
    pub fn start(options: ServeOptions) -> Result<Daemon, String> {
        assert!(options.workers >= 1, "at least one worker");
        // SIGTERM/SIGINT drain the daemon like a Shutdown request; the
        // epoch token means a signal handled by a *previous* daemon in
        // this process does not phantom-stop this one.
        rigid_supervise::interrupt::install();
        let token = InterruptToken::current();

        // Open the journal and replay the backlog before going live:
        // resumed jobs must not race fresh submissions for quarantine
        // state or journal ordering.
        let mut jobs_resumed = 0u64;
        let mut resumed_completed = 0u64;
        let mut resumed_failed = 0u64;
        let mut dedup: HashMap<u64, IdemState> = HashMap::new();
        let supervisor = supervisor(&options);
        let scratch = Arc::new(ScratchPool::new());
        let journal = match &options.journal {
            Some(path) => {
                let (journal, state) = ServeJournal::open(path)?;
                // Seed the dedup table from journaled terminal records:
                // a client resubmitting across our restart gets the
                // journaled outcome, not a re-execution.
                for rec in &state.terminal {
                    if let Some(&key) = state.idem_by_id.get(&record_id(rec)) {
                        dedup
                            .entry(key)
                            .or_insert_with(|| IdemState::Done(response_from_record(rec)));
                    }
                }
                if !state.pending.is_empty() {
                    let tx = journal.sender();
                    for spec in &state.pending {
                        jobs_resumed += 1;
                        let response = run_job(
                            spec,
                            text_fingerprint(&spec.instance),
                            &supervisor,
                            &scratch,
                            Some(&tx),
                            &options,
                        );
                        match &response {
                            Response::Result(_) => resumed_completed += 1,
                            _ => resumed_failed += 1,
                        }
                        // Resumed outcomes are terminal by construction
                        // (replays run without deadlines or drains).
                        if let Some(key) = spec.idem {
                            dedup.insert(key, IdemState::Done(response));
                        }
                    }
                    tx.flush();
                }
                Some(journal)
            }
            None => None,
        };

        let listener = Listener::bind(&options.bind)
            .map_err(|e| format!("cannot bind {}: {e}", options.bind))?;

        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            producers_done: AtomicBool::new(false),
            token,
            queues: Mutex::new((0..options.workers).map(|_| VecDeque::new()).collect()),
            work: Condvar::new(),
            completed: AtomicU64::new(resumed_completed),
            failed: AtomicU64::new(resumed_failed),
            deadline_exceeded: AtomicU64::new(0),
            sessions_active: AtomicUsize::new(0),
            dedup: Mutex::new(dedup),
            supervisor,
            journal: Mutex::new(journal.as_ref().map(ServeJournal::sender)),
            options,
        });

        let workers: Vec<JoinHandle<()>> = (0..shared.options.workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let scratch = Arc::clone(&scratch);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || worker_loop(w, &shared, &scratch))
                    .expect("spawn worker")
            })
            .collect();

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(listener, &shared, workers, journal, jobs_resumed))
                .expect("spawn accept loop")
        };

        Ok(Daemon {
            shared,
            accept: Some(accept),
        })
    }

    /// Asks the daemon to shut down: stop accepting, fail queued jobs
    /// with retryable errors, finish running jobs, flush the journal.
    pub fn trigger_shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }

    /// Blocks until the daemon has fully drained and returns its
    /// report. (Call [`Daemon::trigger_shutdown`] first, send a
    /// `Shutdown` request, or deliver SIGTERM — `wait` alone does not
    /// stop a healthy daemon.)
    pub fn wait(mut self) -> ServeReport {
        self.accept
            .take()
            .expect("wait called once")
            .join()
            .expect("accept loop panicked")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(h) = self.accept.take() {
            self.shared.stop.store(true, Ordering::SeqCst);
            let _ = h.join();
        }
    }
}

fn supervisor(options: &ServeOptions) -> Supervisor {
    Supervisor::new(SupervisorPolicy {
        watchdog: options.watchdog,
        max_retries: options.retries,
        backoff_base: Duration::ZERO,
    })
}

fn accept_loop(
    listener: Listener,
    shared: &Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    journal: Option<ServeJournal>,
    jobs_resumed: u64,
) -> ServeReport {
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    let mut session_count = 0u64;
    while !shared.stopping() {
        match listener.accept() {
            Ok(Some(conn)) => {
                // Admission control: beyond the session cap, answer
                // with a retryable `overloaded` and close — a bounded,
                // typed refusal instead of an unbounded thread pile.
                if shared.sessions_active.load(Ordering::SeqCst) >= shared.options.max_sessions {
                    refuse_connection(conn, shared.options.max_sessions);
                    continue;
                }
                session_count += 1;
                shared.sessions_active.fetch_add(1, Ordering::SeqCst);
                let id = session_count;
                let shared = Arc::clone(shared);
                sessions.push(
                    std::thread::Builder::new()
                        .name(format!("serve-session-{id}"))
                        .spawn(move || {
                            session(id, conn, &shared);
                            shared.sessions_active.fetch_sub(1, Ordering::SeqCst);
                        })
                        .expect("spawn session"),
                );
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => {
                eprintln!("accept failed: {e}");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        // Opportunistically reap finished sessions so a long-lived
        // daemon's handle list doesn't grow without bound.
        sessions.retain(|h| !h.is_finished());
    }
    drop(listener); // close + unlink the socket before draining

    // Sessions first (they feed the queues), then workers (they drain
    // them), then the journal (workers append to it).
    for h in sessions {
        let _ = h.join();
    }
    // Set under the queue lock: a worker that read `false` there is
    // already waiting when the notification goes out.
    {
        let _queues = shared.queues.lock().expect("shard queues poisoned");
        shared.producers_done.store(true, Ordering::SeqCst);
    }
    shared.work.notify_all();
    for h in workers {
        let _ = h.join();
    }
    *shared.journal.lock().expect("journal lock poisoned") = None;
    if let Some(j) = journal {
        j.close();
    }
    ServeReport {
        jobs_completed: shared.completed.load(Ordering::SeqCst),
        jobs_failed: shared.failed.load(Ordering::SeqCst),
        jobs_resumed,
        sessions: session_count,
        clean_shutdown: true,
    }
}

/// Answers an over-cap connection with a retryable `overloaded` error
/// (best effort, under a short write timeout) and closes it.
fn refuse_connection(mut conn: Conn, max_sessions: usize) {
    let _ = conn.set_write_timeout(Some(Duration::from_millis(250)));
    let refusal = Response::Error(JobError {
        id: 0,
        kind: kind::OVERLOADED.into(),
        retryable: true,
        message: format!("daemon is at its {max_sessions}-session cap; reconnect after backoff"),
    });
    let _ = write_frame(&mut conn, &refusal);
    conn.shutdown();
}

/// The session reader: frames in, exactly one queued response per
/// frame, strict sequence numbering. Runs on the session thread; the
/// paired writer is joined before returning.
fn session(id: u64, conn: Conn, shared: &Arc<Shared>) {
    let Ok(write_half) = conn.try_clone() else {
        return;
    };
    let Ok(gate_conn) = conn.try_clone() else {
        return;
    };
    if conn
        .set_read_timeout(Some(Duration::from_millis(50)))
        .is_err()
    {
        return;
    }
    let gate = Arc::new(SessionGate {
        evicted: AtomicBool::new(false),
        conn: gate_conn,
    });
    let (reply_tx, reply_rx) = mpsc::sync_channel::<(u64, Response)>(shared.options.writer_queue);
    let writer = {
        let gate = Arc::clone(&gate);
        let write_timeout = shared.options.write_timeout;
        std::thread::Builder::new()
            .name(format!("serve-writer-{id}"))
            .spawn(move || session_writer(write_half, reply_rx, gate, write_timeout))
            .expect("spawn session writer")
    };

    let pending = Arc::new(AtomicUsize::new(0));
    let mut conn = conn;
    let mut next_seq = 0u64;
    let stop = || shared.stopping() || gate.evicted.load(Ordering::SeqCst);
    loop {
        let outcome = read_frame(&mut conn, shared.options.max_frame, &stop);
        let seq = next_seq;
        next_seq += 1;
        let response = match outcome {
            Ok(body) => match serde_json::from_str::<Request>(
                std::str::from_utf8(&body).unwrap_or("\u{fffd}"),
            ) {
                Ok(Request::Submit(spec)) => {
                    match enqueue(shared, seq, spec, &reply_tx, &pending, &gate) {
                        None => continue, // the worker will reply
                        Some(resp) => resp,
                    }
                }
                Ok(Request::Ping { payload }) => Response::Pong {
                    payload,
                    completed: shared.completed.load(Ordering::SeqCst),
                    deadline_exceeded: shared.deadline_exceeded.load(Ordering::SeqCst),
                },
                Ok(Request::Shutdown { flush }) => {
                    let has_journal = shared.journal_tx().is_some();
                    shared.stop.store(true, Ordering::SeqCst);
                    Response::ShuttingDown {
                        flushed: flush && has_journal,
                    }
                }
                Err(e) => Response::Error(JobError {
                    id: 0,
                    kind: kind::PROTOCOL.into(),
                    retryable: false,
                    message: format!("unparseable frame: {e}"),
                }),
            },
            Err(FrameError::Oversized { len, max }) => Response::Error(JobError {
                id: 0,
                kind: kind::OVERSIZED.into(),
                retryable: false,
                message: format!("frame of {len} bytes exceeds the {max}-byte cap"),
            }),
            Err(
                FrameError::Closed
                | FrameError::Stopped
                | FrameError::Io(_)
                | FrameError::TimedOut { .. },
            ) => break,
        };
        deliver(&reply_tx, &gate, seq, response);
    }
    drop(reply_tx);
    let _ = writer.join();
}

/// Validates queue capacity, consults the idempotency dedup table, and
/// shard-routes a submission. Returns the immediate response (error,
/// or a memoized result for a resubmitted key), or `None` when the job
/// was queued or parked behind an in-flight duplicate — in both of
/// those cases a worker will reply later.
fn enqueue(
    shared: &Arc<Shared>,
    seq: u64,
    spec: JobSpec,
    reply: &SyncSender<(u64, Response)>,
    pending: &Arc<AtomicUsize>,
    gate: &Arc<SessionGate>,
) -> Option<Response> {
    let id = spec.id;
    if shared.stopping() {
        return Some(Response::Error(shutdown_error(id)));
    }
    // Dedup before capacity: answering a memoized key costs no worker,
    // so a full session can still recover outcomes it already paid for.
    if let Some(key) = spec.idem {
        let mut map = shared.dedup.lock().expect("dedup lock poisoned");
        match map.get_mut(&key) {
            Some(IdemState::Done(resp)) => return Some(resp.clone()),
            Some(IdemState::InFlight(waiters)) => {
                // The original is executing right now (maybe on another
                // session). Park; resolve_idem answers us — a second
                // execution never starts.
                waiters.push(Waiter {
                    seq,
                    reply: reply.clone(),
                    gate: Arc::clone(gate),
                });
                return None;
            }
            None => {
                if pending.load(Ordering::SeqCst) >= shared.options.queue_depth {
                    return Some(Response::Error(overloaded_error(shared, id)));
                }
                map.insert(key, IdemState::InFlight(Vec::new()));
            }
        }
    } else if pending.load(Ordering::SeqCst) >= shared.options.queue_depth {
        return Some(Response::Error(overloaded_error(shared, id)));
    }
    pending.fetch_add(1, Ordering::SeqCst);
    // The job's one hash of its text: the journal's fingerprint and the
    // worker's quarantine key.
    let fingerprint = text_fingerprint(&spec.instance);
    // Journal acceptance *here*, not at execution: a job that is
    // queued when the daemon dies must be recoverable, and the drain
    // path deliberately leaves queued jobs terminal-record-free so a
    // restart resumes exactly them.
    if let Some(tx) = shared.journal_tx() {
        tx.record(JobRecord::Submitted {
            id: spec.id,
            scheduler: spec.scheduler.clone(),
            fingerprint,
            instance: spec.instance.clone(),
            idem: spec.idem,
        });
    }
    // Route by job id, not session id: one session's burst spreads
    // across all shards instead of serializing on one worker.
    let shard = (spec.id as usize) % shared.options.workers;
    shared.queues.lock().expect("shard queues poisoned")[shard].push_back(WorkItem {
        seq,
        spec,
        fingerprint,
        reply: reply.clone(),
        pending: Arc::clone(pending),
        gate: Arc::clone(gate),
    });
    // One wake-up per item. Whichever worker it wakes takes the item
    // from its own shard or steals it, so an idle worker never leaves a
    // job queued behind a busy one.
    shared.work.notify_one();
    None
}

fn overloaded_error(shared: &Shared, id: u64) -> JobError {
    JobError {
        id,
        kind: kind::OVERLOADED.into(),
        retryable: true,
        message: format!(
            "session already has {} jobs in flight",
            shared.options.queue_depth
        ),
    }
}

fn shutdown_error(id: u64) -> JobError {
    JobError {
        id,
        kind: kind::SHUTDOWN.into(),
        retryable: true,
        message: "daemon is shutting down; resubmit after restart".into(),
    }
}

/// The session writer: releases responses in sequence order. Exits
/// when every reply sender (reader + queued jobs) is gone, or when the
/// session is evicted — then it sends a best-effort typed notice and
/// tears the connection down. All writes run under the configured
/// write timeout, so a peer with a full receive window fails the write
/// instead of parking this thread (and the worker behind it) forever.
fn session_writer(
    mut conn: Conn,
    rx: mpsc::Receiver<(u64, Response)>,
    gate: Arc<SessionGate>,
    write_timeout: Duration,
) {
    let _ = conn.set_write_timeout(Some(write_timeout));
    let mut next = 0u64;
    let mut held: BTreeMap<u64, Response> = BTreeMap::new();
    loop {
        if gate.evicted.load(Ordering::SeqCst) {
            let notice = Response::Error(JobError {
                id: 0,
                kind: kind::EVICTED.into(),
                retryable: true,
                message: "session evicted: responses were not read fast enough; \
                          reconnect and resubmit (idempotency keys recover outcomes)"
                    .into(),
            });
            let _ = write_frame(&mut conn, &notice);
            gate.conn.shutdown();
            return;
        }
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok((seq, resp)) => {
                held.insert(seq, resp);
                while let Some(resp) = held.remove(&next) {
                    if write_frame(&mut conn, &resp).is_err() {
                        // Timed-out write or dead client: evict so the
                        // reader stops too, then close.
                        gate.evicted.store(true, Ordering::SeqCst);
                        gate.conn.shutdown();
                        return;
                    }
                    next += 1;
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// The worker loop: pop the own shard, steal from the others, wait
/// when everything is empty. On shutdown, drains every queue with
/// retryable `shutting-down` errors before exiting.
fn worker_loop(index: usize, shared: &Arc<Shared>, scratch: &Arc<ScratchPool<EngineScratch>>) {
    while let Some(item) = next_item(index, shared) {
        let journal = shared.journal_tx();
        let response = if shared.stopping() {
            Response::Error(shutdown_error(item.spec.id))
        } else {
            run_job(
                &item.spec,
                item.fingerprint,
                &shared.supervisor,
                scratch,
                journal.as_ref(),
                &shared.options,
            )
        };
        match &response {
            Response::Result(_) => {
                shared.completed.fetch_add(1, Ordering::SeqCst);
            }
            Response::Error(e) => {
                shared.failed.fetch_add(1, Ordering::SeqCst);
                if e.kind == kind::DEADLINE_EXCEEDED {
                    shared.deadline_exceeded.fetch_add(1, Ordering::SeqCst);
                }
            }
            _ => {
                shared.failed.fetch_add(1, Ordering::SeqCst);
            }
        }
        // Settle the idempotency key *before* replying: once the
        // submitting client sees the outcome, a duplicate from any
        // session must already find it memoized.
        shared.resolve_idem(item.spec.idem, &response);
        item.pending.fetch_sub(1, Ordering::SeqCst);
        deliver(&item.reply, &item.gate, item.seq, response);
    }
}

/// Blocks until there is an item for worker `index`, or returns `None`
/// once the producers are done and every queue is empty.
///
/// No wake-up is lost: the scan of every queue, the `producers_done`
/// check and the wait all happen under the one queue lock, and
/// `enqueue` pushes (and the accept loop sets `producers_done`) under
/// that lock before notifying. So a push lands either before a
/// worker's scan, which finds it, or after the worker is waiting, and
/// then the push's notification wakes a waiting worker, which takes the
/// item from its own shard or steals it.
fn next_item(index: usize, shared: &Shared) -> Option<WorkItem> {
    let mut queues = shared.queues.lock().expect("shard queues poisoned");
    loop {
        if let Some(item) = take_item(index, &mut queues) {
            return Some(item);
        }
        if shared.producers_done.load(Ordering::SeqCst) {
            return None;
        }
        queues = shared.work.wait(queues).expect("shard queues poisoned");
    }
}

/// Pops from the worker's own shard, else steals the oldest item of the
/// next non-empty shard after it.
fn take_item(index: usize, queues: &mut [VecDeque<WorkItem>]) -> Option<WorkItem> {
    let n = queues.len();
    (0..n).find_map(|off| queues[(index + off) % n].pop_front())
}

/// The name of every scheduler [`scheduler_by_name`] builds.
pub const SCHEDULERS: [&str; 6] = [
    "catbatch",
    "backfill",
    "catprio",
    "strip",
    "list-fifo",
    "list-longest",
];

/// Builds the scheduler a job names, for a platform of `procs`
/// processors; `None` for a name not in [`SCHEDULERS`].
pub fn scheduler_by_name(name: &str, procs: u32) -> Option<Box<dyn OnlineScheduler>> {
    Some(match name {
        "catbatch" => Box::new(CatBatch::new()),
        "backfill" => Box::new(CatBatchBackfill::new()),
        "catprio" => Box::new(CatPrio::new()),
        "strip" => Box::new(CatBatchStrip::new(procs)),
        "list-fifo" => Box::new(ListScheduler::new(Priority::Fifo)),
        "list-longest" => Box::new(ListScheduler::new(Priority::LongestFirst)),
        _ => return None,
    })
}

fn scheduler_hash(name: &str) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(name);
    h.finish()
}

/// Stable hash of the raw instance text (cheap enough for the session
/// reader; parsing waits until a worker picks the job up).
fn text_fingerprint(text: &str) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(text);
    h.finish()
}

/// Validates and executes one job under full supervision, appending
/// its terminal record (acceptance was journaled at enqueue).
/// `fingerprint` is the [`text_fingerprint`] of `spec.instance`: with
/// the scheduler's name it keys the quarantine.
///
/// The instance is parsed once and shared by every attempt. A job that
/// asks for neither a Gantt chart nor a trace runs stats-only: its
/// answer needs only the makespan, the lower bound and the counters.
fn run_job(
    spec: &JobSpec,
    fingerprint: u64,
    sup: &Supervisor,
    scratch: &Arc<ScratchPool<EngineScratch>>,
    journal: Option<&JournalTx>,
    options: &ServeOptions,
) -> Response {
    // Deterministic validation failures are terminal: record them, or
    // a journaled-but-unparseable job would replay at every restart.
    let fail = |kind_str: &str, message: String| {
        if let Some(tx) = journal {
            tx.record(JobRecord::Failed {
                id: spec.id,
                scheduler: spec.scheduler.clone(),
                kind: kind_str.into(),
            });
        }
        Response::Error(JobError {
            id: spec.id,
            kind: kind_str.into(),
            retryable: false,
            message,
        })
    };
    let inst = match format::parse(&spec.instance) {
        Ok(inst) => Arc::new(inst),
        Err(e) => return fail(kind::PARSE, format!("instance does not parse: {e}")),
    };
    let Some(&name) = SCHEDULERS.iter().find(|&&name| name == spec.scheduler) else {
        return fail(
            kind::UNKNOWN_SCHEDULER,
            format!("unknown scheduler {:?}", spec.scheduler),
        );
    };
    let stats_only = !spec.gantt && !spec.trace;
    let outcome = {
        let max_events = options.max_events;
        let deadline_ms = spec.deadline_ms;
        sup.run_trial(fingerprint, scheduler_hash(name), || {
            let inst = Arc::clone(&inst);
            let scratch = Arc::clone(scratch);
            move || {
                let mut sched =
                    scheduler_by_name(name, inst.procs()).expect("a name from SCHEDULERS");
                scratch.with(EngineScratch::new, |s| {
                    let mut config = EngineConfig::new().scratch(s);
                    if stats_only {
                        config = config.stats_only();
                    }
                    // The per-request deadline rides the engine's wall
                    // budget, composed with the daemon-wide event cap;
                    // either trip surfaces as a typed RunError below.
                    let mut budget = max_events.map(RunBudget::max_events);
                    if let Some(ms) = deadline_ms {
                        let limit = Duration::from_millis(ms);
                        budget = Some(match budget {
                            Some(b) => b.with_wall_deadline(limit),
                            None => RunBudget::wall_deadline(limit),
                        });
                    }
                    if let Some(b) = budget {
                        config = config.budget(b);
                    }
                    config.try_run(&mut StaticSource::new(inst), sched.as_mut())
                })
            }
        })
    };

    let (kind_str, message) = match outcome {
        Ok(Ok(run)) => {
            let result = summarize(spec, &inst, &run);
            if let Some(tx) = journal {
                tx.record(JobRecord::Completed {
                    id: spec.id,
                    scheduler: spec.scheduler.clone(),
                    makespan: result.makespan.clone(),
                    events: result.events,
                    ratio_to_lb: result.ratio_to_lb,
                    tasks: Some(result.tasks as u64),
                    procs: Some(result.procs),
                    lower_bound: Some(result.lower_bound.clone()),
                    peak_ready: Some(result.peak_ready),
                });
            }
            return Response::Result(result);
        }
        Ok(Err(run_err)) => (run_error_kind(&run_err, spec), format!("{run_err}")),
        Err(TrialError::Panicked { message }) => (kind::PANICKED, message),
        Err(TrialError::TimedOut { limit_ms }) => (
            kind::TIMED_OUT,
            format!("exceeded the {limit_ms} ms watchdog"),
        ),
        Err(TrialError::Quarantined { attempts }) => (
            kind::QUARANTINED,
            format!("quarantined after {attempts} failed attempt(s)"),
        ),
        Err(TrialError::Run(e)) => (run_error_kind(&e, spec), format!("{e}")),
    };
    if let Some(tx) = journal {
        tx.record(JobRecord::Failed {
            id: spec.id,
            scheduler: spec.scheduler.clone(),
            kind: kind_str.into(),
        });
    }
    Response::Error(JobError {
        id: spec.id,
        kind: kind_str.into(),
        retryable: false,
        message,
    })
}

/// Classifies a typed engine error: a wall-clock budget trip on a job
/// that carried `deadline_ms` is the job's own deadline expiring, not a
/// generic run error.
fn run_error_kind(err: &RunError, spec: &JobSpec) -> &'static str {
    match err {
        RunError::BudgetExceeded {
            exceeded: BudgetKind::WallClock { .. },
            ..
        } if spec.deadline_ms.is_some() => kind::DEADLINE_EXCEEDED,
        _ => kind::RUN,
    }
}

/// Reconstructs the response a journaled terminal record stands for,
/// used to answer resubmitted idempotency keys across restarts. The
/// result summary is faithful; `gantt`/`trace` attachments are not
/// journaled and come back empty (documented in `docs/serve.md`).
fn response_from_record(rec: &JobRecord) -> Response {
    match rec {
        JobRecord::Completed {
            id,
            scheduler,
            makespan,
            events,
            ratio_to_lb,
            tasks,
            procs,
            lower_bound,
            peak_ready,
        } => Response::Result(JobResult {
            id: *id,
            scheduler: scheduler.clone(),
            tasks: tasks.unwrap_or(0) as usize,
            procs: procs.unwrap_or(0),
            makespan: makespan.clone(),
            lower_bound: lower_bound.clone().unwrap_or_default(),
            ratio_to_lb: *ratio_to_lb,
            events: *events,
            peak_ready: peak_ready.unwrap_or(0),
            gantt: Vec::new(),
            trace: String::new(),
        }),
        JobRecord::Failed {
            id,
            scheduler: _,
            kind: kind_str,
        } => Response::Error(JobError {
            id: *id,
            kind: kind_str.clone(),
            retryable: false,
            message: "journaled terminal failure, replayed for a resubmitted \
                          idempotency key"
                .into(),
        }),
        JobRecord::Submitted { .. } => unreachable!("terminal records only"),
    }
}

fn record_id(rec: &JobRecord) -> u64 {
    match rec {
        JobRecord::Submitted { id, .. }
        | JobRecord::Completed { id, .. }
        | JobRecord::Failed { id, .. } => *id,
    }
}

/// The job's answer: the makespan and counters from the run, the bound
/// from the instance. Only the chart and the trace read the schedule,
/// and a job that asks for neither runs stats-only.
fn summarize(spec: &JobSpec, inst: &Instance, run: &RunResult) -> JobResult {
    let makespan = run.makespan();
    let lower_bound = analysis::lower_bound(inst);
    JobResult {
        id: spec.id,
        scheduler: spec.scheduler.clone(),
        tasks: inst.graph().len(),
        procs: inst.procs(),
        makespan: makespan.to_string(),
        lower_bound: lower_bound.to_string(),
        ratio_to_lb: makespan.ratio(lower_bound).to_f64(),
        events: run.stats.events,
        peak_ready: run.stats.peak_ready,
        gantt: if spec.gantt {
            render(&run.schedule, inst.graph(), &GanttOptions::default())
                .lines()
                .map(str::to_string)
                .collect()
        } else {
            Vec::new()
        },
        trace: if spec.trace {
            Trace::from_run(run).to_json()
        } else {
            String::new()
        },
    }
}

/// Runs a single job spec in-process with the same validation and
/// supervision as a daemon worker, without any socket. The execution
/// path the daemon journal replays — exposed for tests and the bench
/// harness.
pub fn run_one(spec: &JobSpec, options: &ServeOptions) -> Response {
    run_job(
        spec,
        text_fingerprint(&spec.instance),
        &supervisor(options),
        &Arc::new(ScratchPool::new()),
        None,
        options,
    )
}
