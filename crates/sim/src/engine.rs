//! The discrete-event online scheduling engine.
//!
//! The engine is the "platform" of the paper's model: it owns the clock
//! and the processor pool, reveals tasks through an
//! [`rigid_dag::InstanceSource`], asks an
//! [`OnlineScheduler`] what to start at every decision point, and records
//! the resulting [`Schedule`]. It enforces the model's rules as **typed
//! errors** ([`RunError`]): a source cannot release duplicates,
//! premature, dangling, or impossible tasks; a scheduler cannot start
//! unknown, already-started, or oversubscribing tasks; and a task
//! completes exactly `t` after it started — unless an explicit
//! [`FaultModel`] says otherwise (fail-stop, stragglers, capacity dips).
//!
//! # Event-driven, cache-dense hot path
//!
//! The simulation loop is event-driven (see `docs/performance.md` for
//! the full design):
//!
//! * a dyadic radix **calendar queue** ([`crate::calendar`]) of attempt
//!   completion/failure events, keyed on the exact `rigid-time` instant
//!   with a `(start_seq, TaskId)` tie-break — `start_seq` preserves the
//!   legacy processing order for simultaneous events (start order), and
//!   since the key is unique the pop order is fully determined: runs
//!   stay bit-for-bit deterministic. Events sharing an instant are
//!   drained together as one cohort;
//! * **struct-of-arrays** per-task state indexed by the source's task
//!   ids (the source contract allocates dense ids) — each loop phase
//!   touches only the columns it needs, instead of striding over a wide
//!   per-task struct;
//! * incremental free-capacity and ready-set accounting, and **one**
//!   [`OnlineScheduler::decide_into`] call per decision instant (time
//!   zero and each release/completion/failure/capacity instant), which
//!   appends every task to start then; duplicate-start detection stamps
//!   each started task with the decision's number instead of allocating
//!   a set.
//!
//! The pre-refactor stepping engine is preserved in [`crate::reference`];
//! differential tests assert both produce identical [`RunResult`]s.
//!
//! # Entry point
//!
//! One builder, [`EngineConfig`], is the only way to run the engine:
//!
//! ```ignore
//! let result = EngineConfig::new()
//!     .faults(&mut faults)       // optional FaultModel
//!     .budget(RunBudget::max_events(1_000_000)) // optional RunBudget
//!     .scratch(&mut scratch)     // optional reusable EngineScratch
//!     .try_run(&mut source, &mut scheduler)?;
//! ```
//!
//! [`EngineConfig::run`] is the panicking variant for tests and callers
//! that treat violations as bugs.

use crate::calendar::{CalendarQueue, Event};
use crate::error::{BudgetKind, RunError, SchedulerViolation, SourceViolation};
use crate::fault::{Attempt, AttemptOutcome, AttemptRecord, FaultLog, FaultModel, NoFaults};
use crate::schedule::Schedule;
use crate::scheduler::{FailureResponse, OnlineScheduler};
use rigid_dag::{InstanceSource, TaskId};
use rigid_time::Time;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Counters the event-driven engine maintains while it runs, reported
/// in [`RunResult::stats`] and consumed by the `rigid-bench` perf
/// pipeline (`BENCH_engine.json`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Simulation events processed: task releases plus attempt
    /// completions and failures. (Pure capacity-change wake-ups are not
    /// counted; they carry no task state.)
    pub events: u64,
    /// Peak size of the ready set — tasks released but neither running
    /// nor complete — observed at any decision point.
    pub peak_ready: u64,
    /// Events pushed into the calendar queue (attempt starts).
    pub queue_pushes: u64,
    /// Events popped from the calendar queue (attempt completions and
    /// failures; equals `queue_pushes` for a run that finishes).
    pub queue_pops: u64,
    /// Queue pushes that missed the radix fast path and took the exact
    /// `Rational` overflow heap: off-grid timestamps, out-of-coverage
    /// dyadics, behind-the-frontier keys. 0 on a pure-dyadic run — the
    /// `bench --profile` smoke asserts exactly that.
    pub rational_fallbacks: u64,
    /// `decide_into` consultations, one per decision instant (equals
    /// [`RunResult::decisions`]; mirrored here so profile output needs
    /// only the stats block). A static, fault-free run makes exactly
    /// `batches + 1`: one at time zero and one per cohort.
    pub decide_calls: u64,
    /// Completion/failure cohorts drained: queue pops grouped by
    /// identical timestamp, each answered by one decision.
    pub batches: u64,
    /// Largest single cohort (events sharing one timestamp).
    pub max_batch: u64,
    /// Task releases that landed beyond the pre-sized per-task columns
    /// and forced mid-run growth. 0 whenever the source's
    /// `task_count_hint()` covered the run.
    pub hint_misses: u64,
}

/// Hard resource limits on a single engine run.
///
/// An unbudgeted run of an adversarial instance (or a buggy scheduler
/// whose retries never converge) can spin forever; a budget turns that
/// into a typed [`RunError::BudgetExceeded`] instead. The default is
/// unlimited — budgets are opt-in through [`EngineConfig::budget`].
///
/// * `max_events` is **deterministic**: the same run under the same
///   ceiling always trips at the same point (events are releases plus
///   attempt completions/failures, exactly [`EngineStats::events`]).
///   A run fails once it has processed *more than* `max_events` events.
/// * `wall_deadline` is a wall-clock safety net, checked once per
///   decision instant — inherently nondeterministic, so keep it out of
///   reproducible experiment configs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunBudget {
    /// Fail the run after processing more than this many events.
    pub max_events: Option<u64>,
    /// Fail the run once this much wall-clock time has elapsed.
    pub wall_deadline: Option<Duration>,
}

impl RunBudget {
    /// No limits — the budget every non-budgeted entry point uses.
    pub const UNLIMITED: RunBudget = RunBudget {
        max_events: None,
        wall_deadline: None,
    };

    /// A budget bounding only the event count.
    pub fn max_events(limit: u64) -> Self {
        RunBudget {
            max_events: Some(limit),
            wall_deadline: None,
        }
    }

    /// A budget bounding only wall-clock time.
    pub fn wall_deadline(limit: Duration) -> Self {
        RunBudget {
            max_events: None,
            wall_deadline: Some(limit),
        }
    }

    /// Adds a wall-clock deadline to this budget.
    pub fn with_wall_deadline(mut self, limit: Duration) -> Self {
        self.wall_deadline = Some(limit);
        self
    }
}

/// The armed form of a [`RunBudget`]: the wall deadline resolved to an
/// [`Instant`] when the run started.
#[derive(Clone, Copy)]
struct ArmedBudget {
    max_events: Option<u64>,
    deadline: Option<(Instant, u64)>,
}

impl ArmedBudget {
    fn arm(budget: RunBudget) -> Self {
        ArmedBudget {
            max_events: budget.max_events,
            deadline: budget
                .wall_deadline
                .map(|d| (Instant::now() + d, d.as_millis() as u64)),
        }
    }

    fn check(&self, events: u64, now: Time) -> Result<(), RunError> {
        if let Some(limit) = self.max_events {
            if events > limit {
                return Err(RunError::BudgetExceeded {
                    exceeded: BudgetKind::Events { limit },
                    events,
                    at: now,
                });
            }
        }
        if let Some((deadline, limit_ms)) = self.deadline {
            if Instant::now() >= deadline {
                return Err(RunError::BudgetExceeded {
                    exceeded: BudgetKind::WallClock { limit_ms },
                    events,
                    at: now,
                });
            }
        }
        Ok(())
    }
}

/// The outcome of a run: the schedule, per-task release instants, and
/// the fault log.
///
/// The result holds nothing the caller already has. In particular it
/// does not rebuild the graph the source revealed: the schedule and the
/// release times use the source's own task ids, so the graph to read
/// them against is the instance a [`rigid_dag::StaticSource`] was built
/// from (or its `instance()`), or the instance an adaptive adversary
/// committed to.
///
/// Under [`EngineConfig::stats_only`] the artifact fields — `schedule`
/// and `release_times` — come back empty; [`makespan`](Self::makespan),
/// `stats`, `decisions` and `faults` are produced exactly as in a full
/// run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The recorded schedule (already capacity-checked by construction;
    /// validate against an instance for precedence checks). Under an
    /// active fault model, straggler placements carry their *actual*
    /// durations, so strict validation reports `SpecMismatch` — that is
    /// the intended signal that the fixed-`t` assumption was violated.
    pub schedule: Schedule,
    /// Platform size.
    pub procs: u32,
    /// When each task was released (became ready), indexed by task id:
    /// `release_times[i]` is `Some(at)` iff `TaskId(i)` was released, and
    /// the vector ends at the last released task.
    pub release_times: Vec<Option<Time>>,
    /// Number of decision points the scheduler was consulted at.
    pub decisions: u64,
    /// What the fault model did (empty and clean for fault-free runs).
    pub faults: FaultLog,
    /// Engine counters (events processed, peak ready-set size). The
    /// [`crate::reference`] engine leaves this at its default; every
    /// other `RunResult` field is engine-independent.
    pub stats: EngineStats,
    /// The latest finish of a placed attempt: the schedule's makespan,
    /// tracked by the engine as attempts complete, so a stats-only run
    /// has it too.
    pub(crate) makespan: Time,
}

impl RunResult {
    /// Makespan of the run: the latest finish of any completed (or
    /// inflated) attempt, [`Time::ZERO`] for a run that placed nothing.
    /// It equals `schedule.makespan()` for a full run and is exact under
    /// [`EngineConfig::stats_only`] too.
    pub fn makespan(&self) -> Time {
        self.makespan
    }
}

/// Flag bit in [`EngineScratch::flags`]: the task has been released.
const RELEASED: u8 = 1;
/// Flag bit: the task is (or was) running. Cleared again on failure.
const STARTED: u8 = 1 << 1;
/// Flag bit: the task completed.
const COMPLETED: u8 = 1 << 2;
/// Transient flag bit: the task already appeared in the `preds` list
/// being validated. Set and cleared within one release.
const LISTED: u8 = 1 << 3;

/// Reusable engine working memory: the per-task state columns and the
/// completion-event calendar queue.
///
/// Per-task state is a structure-of-arrays indexed by the source's dense
/// task ids, one column per field, each as narrow as its value demands.
/// Narrow dedicated columns beat a packed per-task record here because
/// the hot paths touch *different* fields: a completion reads only the
/// one-byte `flags` entry, a decide reads `procs` — and at n = 10⁶ the
/// whole flags column is 1 MB and the procs column 4 MB, so those
/// accesses keep hitting cache long after a 24-byte-per-task record
/// array would have blown it. (Measured on the 10⁶-task chain scenario:
/// the packed-record layout is ~20% slower end to end.) The
/// release-instant column is the result's
/// [`release_times`](RunResult::release_times): a full run moves it out
/// when it ends, and a stats-only run never sizes or writes it.
///
/// Campaign runners execute thousands of engine runs back to back; with
/// fresh buffers every trial reallocates and regrows from zero. Passing
/// the same `EngineScratch` via [`EngineConfig::scratch`] keeps the
/// allocations warm across trials (each run clears the *contents* on
/// entry but keeps the capacity). The release-instant column is the one
/// exception: it leaves with each full run's result and regrows in the
/// next.
///
/// The type is deliberately opaque — its fields are engine internals —
/// and a scratch buffer carries **no state between runs**: a run that
/// reuses scratch is bit-for-bit identical to one that does not.
#[derive(Default)]
pub struct EngineScratch {
    /// `RELEASED | STARTED | COMPLETED` bits (0 = unreleased), plus the
    /// transient `LISTED` bit while a release's `preds` are validated.
    flags: Vec<u8>,
    /// Per-task processor requirement `p`.
    procs: Vec<u32>,
    /// Per-task number of the decision that last started the task, for
    /// duplicate-start detection (0 = unseen; decisions count from 1).
    seen: Vec<u64>,
    /// Per-task execution attempts started so far.
    attempts: Vec<u32>,
    spec_time: Vec<Time>,
    /// Per-task release instant (`None` = unreleased); full runs only.
    release_time: Vec<Option<Time>>,
    events: CalendarQueue,
    /// Batch buffer for [`CalendarQueue::pop_cohort_into`]: all events
    /// sharing the current instant, drained together.
    cohort: Vec<Event>,
    /// Release and decision buffers, kept here so their capacity also
    /// survives across runs.
    pending_releases: Vec<rigid_dag::ReleasedTask>,
    to_start: Vec<TaskId>,
}

impl EngineScratch {
    /// A fresh, empty scratch buffer.
    #[must_use]
    pub fn new() -> Self {
        EngineScratch::default()
    }

    /// Reset contents (keeping capacity) so the next run starts clean.
    fn reset(&mut self) {
        self.flags.clear();
        self.procs.clear();
        self.seen.clear();
        self.attempts.clear();
        self.spec_time.clear();
        self.release_time.clear();
        self.events.clear();
        self.cohort.clear();
        self.pending_releases.clear();
        self.to_start.clear();
    }
}

/// Configuration builder for an engine run — the single entry point.
///
/// Defaults are fault-free ([`NoFaults`]), unlimited ([`RunBudget::UNLIMITED`]),
/// and self-allocating (a private [`EngineScratch`] per run). Each aspect
/// is opted into independently:
///
/// ```ignore
/// let result = EngineConfig::new()
///     .faults(&mut faults)
///     .budget(RunBudget::max_events(1_000_000))
///     .scratch(&mut scratch)
///     .try_run(&mut source, &mut scheduler)?;
/// ```
#[derive(Default)]
pub struct EngineConfig<'a> {
    faults: Option<&'a mut dyn FaultModel>,
    budget: RunBudget,
    scratch: Option<&'a mut EngineScratch>,
    stats_only: bool,
}

impl<'a> EngineConfig<'a> {
    /// A fault-free, unbudgeted, self-allocating configuration.
    #[must_use]
    pub fn new() -> Self {
        EngineConfig::default()
    }

    /// Runs under a [`FaultModel`]: task attempts may fail-stop
    /// (requiring re-execution), run long (stragglers), and the platform
    /// may refuse new starts during capacity dips. Everything the model
    /// does is recorded in the returned [`FaultLog`] (`result.faults`).
    #[must_use]
    pub fn faults(mut self, faults: &'a mut dyn FaultModel) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Enforces a hard [`RunBudget`]: the run additionally fails with
    /// [`RunError::BudgetExceeded`] once it processes more than
    /// `budget.max_events` events or outlives `budget.wall_deadline`.
    /// [`RunBudget::UNLIMITED`] is equivalent to not setting a budget.
    #[must_use]
    pub fn budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Runs on caller-owned [`EngineScratch`]: the engine's per-task
    /// state columns and event heap come from (and return to) `scratch`,
    /// so back-to-back runs stop paying per-run allocation and regrowth.
    /// The result is bit-for-bit identical to a self-allocating run for
    /// any scratch history.
    #[must_use]
    pub fn scratch(mut self, scratch: &'a mut EngineScratch) -> Self {
        self.scratch = Some(scratch);
        self
    }

    /// Skips recording the per-run result artifacts — the [`Schedule`]
    /// and the release times come back empty; the makespan
    /// ([`RunResult::makespan`]), [`EngineStats`], decision counts, the
    /// [`FaultLog`] and every typed error are produced exactly as in a
    /// full run (the simulation itself is identical — only the recording
    /// differs).
    ///
    /// Use this for throughput measurement, bulk campaigns and any run
    /// that reads only the makespan and statistics: the run then neither
    /// places tasks nor keeps a release-instant column, so it holds only
    /// the engine's working state.
    #[must_use]
    pub fn stats_only(mut self) -> Self {
        self.stats_only = true;
        self
    }

    /// Runs `scheduler` against `source` until every revealed task
    /// completes, returning contract violations as typed [`RunError`]s
    /// instead of panicking.
    ///
    /// Under an active fault model, failed tasks are offered back to the
    /// scheduler through [`OnlineScheduler::on_failure`]; a scheduler
    /// that declines ([`FailureResponse::Abandon`], the default) aborts
    /// the run with [`RunError::TaskAbandoned`].
    /// The source and scheduler parameters are generic (`?Sized`, so
    /// `&mut dyn` callers work unchanged): a concrete source type
    /// monomorphizes the hot loop, letting its release callbacks inline
    /// instead of going through a vtable on every event.
    pub fn try_run<S, C>(self, source: &mut S, scheduler: &mut C) -> Result<RunResult, RunError>
    where
        S: InstanceSource + ?Sized,
        C: OnlineScheduler + ?Sized,
    {
        let mut fresh;
        let scratch = match self.scratch {
            Some(scratch) => scratch,
            None => {
                fresh = EngineScratch::new();
                &mut fresh
            }
        };
        match self.faults {
            Some(faults) => run_core(
                source,
                scheduler,
                faults,
                self.budget,
                scratch,
                self.stats_only,
            ),
            // A concrete `NoFaults` here (not `&mut dyn`) folds the three
            // per-event fault hooks away entirely in the fault-free path.
            None => run_core(
                source,
                scheduler,
                &mut NoFaults,
                self.budget,
                scratch,
                self.stats_only,
            ),
        }
    }

    /// [`try_run`](Self::try_run), treating every violation as a bug.
    ///
    /// # Panics
    /// Panics if the scheduler deadlocks (tasks are ready but it never
    /// starts them while the machine is otherwise idle), starts an
    /// unknown or already-started task, or oversubscribes the
    /// processors, or if the source breaks the revelation contract.
    pub fn run<S, C>(self, source: &mut S, scheduler: &mut C) -> RunResult
    where
        S: InstanceSource + ?Sized,
        C: OnlineScheduler + ?Sized,
    {
        match self.try_run(source, scheduler) {
            Ok(result) => result,
            Err(err) => panic!("{err}"),
        }
    }
}

/// The engine loop proper. All entry points funnel here.
fn run_core<S, C, F>(
    source: &mut S,
    scheduler: &mut C,
    faults: &mut F,
    budget: RunBudget,
    scratch: &mut EngineScratch,
    stats_only: bool,
) -> Result<RunResult, RunError>
where
    S: InstanceSource + ?Sized,
    C: OnlineScheduler + ?Sized,
    F: FaultModel + ?Sized,
{
    let budget = ArmedBudget::arm(budget);
    let procs = source.procs();
    assert!(procs >= 1);
    let hint = source.task_count_hint();

    // Reserve every slot the run will place at once: grown on demand,
    // the slot vector doubles past n and briefly holds both copies.
    let mut schedule = match hint {
        Some(n) if !stats_only => Schedule::with_capacity(procs, n),
        _ => Schedule::new(procs),
    };

    scratch.reset();
    let EngineScratch {
        flags,
        procs: procs_of,
        seen,
        attempts,
        spec_time: time_of,
        release_time: released_at,
        events,
        cohort,
        pending_releases,
        to_start,
    } = scratch;
    let mut start_seq: u64 = 0;
    let mut completion_index: u64 = 0;
    let mut used: u32 = 0;
    let mut ready: u64 = 0;
    let mut decisions: u64 = 0;
    let mut stats = EngineStats::default();
    let mut log = FaultLog::new(procs);
    // The instant of the latest completion, kept in both modes. Events
    // drain in time order and every placed attempt completes at its
    // finish, so once the run ends this is the schedule's makespan.
    let mut makespan = Time::ZERO;

    let mut now = Time::ZERO;

    // Pre-size every per-task column from the source's task-count hint
    // so a hinted run (every static instance) grows nothing mid-run;
    // releases beyond the hint still work and are counted in
    // `stats.hint_misses`. At most `procs` attempts are ever in flight
    // (each holds ≥ 1 processor), which bounds the queue and cohort.
    if let Some(hint) = hint {
        flags.resize(hint, 0);
        procs_of.resize(hint, 0);
        seen.resize(hint, 0);
        attempts.resize(hint, 0);
        time_of.resize(hint, Time::ZERO);
        if !stats_only {
            released_at.resize(hint, None);
        }
    }
    events.reserve(procs as usize);
    cohort.reserve((procs as usize).saturating_sub(cohort.capacity()));

    // One release buffer and one decision buffer for the whole run:
    // sources and schedulers append into them (`*_into`), the loop
    // drains them, capacity is never given up.
    source.initial_into(pending_releases);

    loop {
        // Ingest releases, validating the source contract first.
        for rel in pending_releases.drain(..) {
            let idx = rel.id.index();
            if flags.get(idx).is_some_and(|&f| f & RELEASED != 0) {
                return Err(SourceViolation::DuplicateRelease { task: rel.id }.into());
            }
            if rel.spec.procs > procs {
                return Err(SourceViolation::Oversubscription {
                    task: rel.id,
                    needed: rel.spec.procs,
                    platform: procs,
                }
                .into());
            }
            // A repeated predecessor is caught by marking each one as it
            // passes; the marks come off in a second pass over the same
            // slice. An early return may leave marks behind: the run is
            // over, and `EngineScratch::reset` clears the column.
            for &p in &rel.preds {
                match flags.get_mut(p.index()) {
                    Some(f) if *f & RELEASED != 0 => {
                        if *f & COMPLETED == 0 {
                            return Err(SourceViolation::PrematureRelease {
                                task: rel.id,
                                pred: p,
                            }
                            .into());
                        }
                        if *f & LISTED != 0 {
                            return Err(SourceViolation::DuplicatePredecessor {
                                task: rel.id,
                                pred: p,
                            }
                            .into());
                        }
                        *f |= LISTED;
                    }
                    _ => {
                        return Err(SourceViolation::UnknownPredecessor {
                            task: rel.id,
                            pred: p,
                        }
                        .into())
                    }
                }
            }
            for &p in &rel.preds {
                flags[p.index()] &= !LISTED;
            }
            scheduler.on_release(&rel, now);
            if idx >= flags.len() {
                // Beyond the pre-sized region (or no hint at all): grow
                // on demand and record the miss.
                stats.hint_misses += 1;
                let n = idx + 1;
                flags.resize(n, 0);
                procs_of.resize(n, 0);
                seen.resize(n, 0);
                attempts.resize(n, 0);
                time_of.resize(n, Time::ZERO);
                if !stats_only {
                    released_at.resize(n, None);
                }
            }
            flags[idx] = RELEASED;
            procs_of[idx] = rel.spec.procs;
            seen[idx] = 0;
            attempts[idx] = 0;
            time_of[idx] = rel.spec.time;
            if !stats_only {
                released_at[idx] = Some(now);
            }
            ready += 1;
            stats.events += 1;
        }
        stats.peak_ready = stats.peak_ready.max(ready);
        budget.check(stats.events, now)?;

        // Ask the scheduler, once, for every task to start now. Capacity
        // dips restrict *new* starts only; running tasks keep their
        // processors.
        let capacity = faults.capacity(now, procs).min(procs);
        log.min_capacity = log.min_capacity.min(capacity);
        let mut avail = capacity.saturating_sub(used);
        decisions += 1;
        to_start.clear();
        scheduler.decide_into(now, avail, to_start);
        for &id in to_start.iter() {
            let idx = id.index();
            // The legacy engine rejects an unknown id before its
            // duplicate check can ever re-encounter it, so
            // UnknownTask takes precedence here too.
            if flags.get(idx).is_none_or(|&f| f & RELEASED == 0) {
                return Err(SchedulerViolation::UnknownTask { task: id }.into());
            }
            if seen[idx] == decisions {
                return Err(SchedulerViolation::DuplicateDecision { task: id }.into());
            }
            seen[idx] = decisions;
            if flags[idx] & (STARTED | COMPLETED) != 0 {
                return Err(SchedulerViolation::DoubleStart { task: id }.into());
            }
            let spec_procs = procs_of[idx];
            if spec_procs > avail {
                return Err(SchedulerViolation::Oversubscribed {
                    task: id,
                    needed: spec_procs,
                    free: avail,
                }
                .into());
            }
            flags[idx] |= STARTED;
            let attempt = attempts[idx];
            attempts[idx] += 1;
            let spec_time = time_of[idx];
            avail -= spec_procs;
            used += spec_procs;
            ready -= 1;

            let fate = faults.on_start(id, attempt, now, spec_time, spec_procs);
            let (leaves_at, fails) = match fate {
                Attempt::Complete => {
                    let finish = now + spec_time;
                    if !stats_only {
                        schedule.place(id, now, finish, spec_procs);
                    }
                    if attempt > 0 {
                        log.attempts.push(AttemptRecord {
                            task: id,
                            attempt,
                            start: now,
                            end: finish,
                            procs: spec_procs,
                            outcome: AttemptOutcome::Completed,
                        });
                    }
                    (finish, false)
                }
                Attempt::Inflated { actual } => {
                    assert!(
                        actual >= spec_time,
                        "fault model shrank task {id}: {actual} < nominal {spec_time}"
                    );
                    let finish = now + actual;
                    if !stats_only {
                        schedule.place(id, now, finish, spec_procs);
                    }
                    log.inflated_area += (actual - spec_time).mul_int(spec_procs as i64);
                    log.attempts.push(AttemptRecord {
                        task: id,
                        attempt,
                        start: now,
                        end: finish,
                        procs: spec_procs,
                        outcome: AttemptOutcome::Inflated {
                            nominal: spec_time,
                            actual,
                        },
                    });
                    (finish, false)
                }
                Attempt::Fail { after } => {
                    assert!(
                        after.is_positive() && after <= spec_time,
                        "fault model failed task {id} outside (0, t]: {after}"
                    );
                    let dies_at = now + after;
                    log.failures += 1;
                    log.wasted_area += after.mul_int(spec_procs as i64);
                    log.attempts.push(AttemptRecord {
                        task: id,
                        attempt,
                        start: now,
                        end: dies_at,
                        procs: spec_procs,
                        outcome: AttemptOutcome::Failed {
                            nominal: spec_time,
                            ran: after,
                        },
                    });
                    (dies_at, true)
                }
            };
            events.push(Event {
                at: leaves_at,
                seq: start_seq,
                id,
                procs: spec_procs,
                fails,
            });
            start_seq += 1;
        }

        let next_event = events.peek().map(|e| e.at);
        let next_arrival = source.next_timed_release(now);
        let next_capacity = faults.next_capacity_event(now);

        // The clock advances to the earliest of the three.
        let tick = [next_event, next_arrival, next_capacity]
            .into_iter()
            .flatten()
            .min();

        let Some(tick) = tick else {
            // Nothing runs, nothing will arrive, capacity never changes
            // again. If tasks remain unstarted the scheduler is stuck; if
            // the source still holds completion-driven tasks it will
            // never release them.
            let unstarted: Vec<TaskId> = flags
                .iter()
                .enumerate()
                .filter(|(_, &f)| f & (RELEASED | STARTED) == RELEASED)
                .map(|(i, _)| TaskId(i as u32))
                .collect();
            if !unstarted.is_empty() {
                return Err(SchedulerViolation::Deadlock {
                    unstarted,
                    capacity,
                }
                .into());
            }
            if source.expects_more() {
                return Err(SourceViolation::WithheldTasks.into());
            }
            break;
        };

        now = tick;
        if next_event == Some(tick) {
            // Drain the whole cohort of completions/failures at this
            // instant — in (instant, start_seq) order — apply every
            // capacity return and notification, then decide once for
            // the batch on the next loop iteration. Handlers never push
            // queue events (completions append to `pending_releases`),
            // so the cohort is fixed at drain time.
            events
                .pop_cohort_into(cohort)
                .expect("next_event implies a queued event");
            stats.batches += 1;
            stats.max_batch = stats.max_batch.max(cohort.len() as u64);
            for e in cohort.drain(..) {
                used -= e.procs;
                stats.events += 1;
                if e.fails {
                    let idx = e.id.index();
                    flags[idx] &= !STARTED;
                    ready += 1;
                    stats.peak_ready = stats.peak_ready.max(ready);
                    let attempts = attempts[idx];
                    match scheduler.on_failure(e.id, now) {
                        FailureResponse::Retry => {}
                        FailureResponse::Abandon => {
                            return Err(RunError::TaskAbandoned {
                                task: e.id,
                                attempts,
                                at: now,
                            });
                        }
                    }
                } else {
                    makespan = now;
                    flags[e.id.index()] |= COMPLETED;
                    scheduler.on_complete(e.id, now);
                    source.on_complete_into(e.id, completion_index, pending_releases);
                    completion_index += 1;
                }
            }
            budget.check(stats.events, now)?;
            // Clock arrivals landing exactly at this instant join the
            // same decision.
            source.timed_releases_into(now, pending_releases);
        } else if next_arrival == Some(tick) {
            source.timed_releases_into(now, pending_releases);
        }
        // A pure capacity event needs no bookkeeping: the next loop
        // iteration re-reads the capacity and re-consults the scheduler.
    }

    stats.queue_pushes = events.pushes();
    stats.queue_pops = events.pops();
    stats.rational_fallbacks = events.fallbacks();
    stats.decide_calls = decisions;

    // The release-instant column becomes the result. A hint may
    // overstate the task count, so cut it after the last release.
    let mut release_times = std::mem::take(released_at);
    let released = release_times
        .iter()
        .rposition(Option::is_some)
        .map_or(0, |i| i + 1);
    release_times.truncate(released);

    Ok(RunResult {
        schedule,
        procs,
        release_times,
        decisions,
        faults: log,
        stats,
        makespan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rigid_dag::{DagBuilder, Instance, ReleasedTask, StaticSource, TaskSpec};
    use std::collections::HashMap;

    /// A trivial greedy scheduler: start any ready task that fits, FIFO.
    struct Greedy {
        queue: Vec<(TaskId, u32)>,
    }

    impl Greedy {
        fn new() -> Self {
            Greedy { queue: Vec::new() }
        }
    }

    impl OnlineScheduler for Greedy {
        fn name(&self) -> &'static str {
            "test-greedy"
        }
        fn on_release(&mut self, task: &ReleasedTask, _now: Time) {
            self.queue.push((task.id, task.spec.procs));
        }
        fn on_complete(&mut self, _task: TaskId, _now: Time) {}
        fn decide_into(&mut self, _now: Time, mut free: u32, out: &mut Vec<TaskId>) {
            self.queue.retain(|&(id, p)| {
                if p <= free {
                    free -= p;
                    out.push(id);
                    false
                } else {
                    true
                }
            });
        }
    }

    fn chain() -> Instance {
        DagBuilder::new()
            .task("a", Time::from_int(2), 2)
            .task("b", Time::from_int(1), 4)
            .task("c", Time::from_int(3), 1)
            .edge("a", "b")
            .build(4)
    }

    #[test]
    fn greedy_runs_chain() {
        let inst = chain();
        let mut src = StaticSource::new(inst.clone());
        let mut sched = Greedy::new();
        let result = EngineConfig::new().run(&mut src, &mut sched);
        result.schedule.assert_valid(&inst);
        // a:[0,2] c:[0,3] b:[2? no — b needs 4 procs, c holds 1 until 3] ⇒
        // b:[3,4]. Makespan 4.
        assert_eq!(result.makespan(), Time::from_int(4));
        // Every task of the instance was released, each under its own id.
        assert_eq!(result.release_times.len(), inst.graph().len());
        assert!(result.release_times.iter().all(Option::is_some));
        let b = inst.graph().find_by_label("b").unwrap();
        assert_eq!(result.release_times[b.index()], Some(Time::from_int(2)));
        assert!(result.faults.is_clean(4));
    }

    #[test]
    fn stats_count_events_and_peak_ready() {
        let inst = chain();
        let result = EngineConfig::new().run(&mut StaticSource::new(inst), &mut Greedy::new());
        // 3 releases + 3 completions.
        assert_eq!(result.stats.events, 6);
        // a and c are ready together at t=0 before either starts.
        assert_eq!(result.stats.peak_ready, 2);
    }

    #[test]
    fn stats_only_matches_full_run_counters() {
        let inst = chain();
        let full =
            EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut Greedy::new());
        let lean = EngineConfig::new()
            .stats_only()
            .run(&mut StaticSource::new(inst), &mut Greedy::new());
        // The simulation is identical; only the recording differs.
        assert_eq!(lean.stats, full.stats);
        assert_eq!(lean.decisions, full.decisions);
        assert_eq!(lean.faults, full.faults);
        assert_eq!(lean.procs, full.procs);
        // Artifacts are skipped entirely; the makespan is still exact.
        assert!(lean.release_times.is_empty());
        assert!(lean.schedule.is_empty());
        assert_eq!(lean.makespan(), full.makespan());
    }

    #[test]
    fn stats_only_matches_full_run_under_faults() {
        let inst = chain();
        let mut f1 = FailPlan {
            fail: vec![(TaskId(0), 0), (TaskId(2), 0)],
        };
        let mut f2 = FailPlan {
            fail: vec![(TaskId(0), 0), (TaskId(2), 0)],
        };
        let full = EngineConfig::new()
            .faults(&mut f1)
            .try_run(
                &mut StaticSource::new(inst.clone()),
                &mut RetryGreedy::new(),
            )
            .unwrap();
        let lean = EngineConfig::new()
            .faults(&mut f2)
            .stats_only()
            .try_run(&mut StaticSource::new(inst), &mut RetryGreedy::new())
            .unwrap();
        assert_eq!(lean.stats, full.stats);
        assert_eq!(lean.decisions, full.decisions);
        // The fault log — attempt records included — is byte-identical.
        assert_eq!(lean.faults, full.faults);
        assert_eq!(lean.makespan(), full.makespan());
        assert!(lean.release_times.is_empty());
    }

    /// A scheduler that refuses to schedule anything: must be detected as
    /// a deadlock rather than looping forever.
    struct Lazy;
    impl OnlineScheduler for Lazy {
        fn name(&self) -> &'static str {
            "lazy"
        }
        fn on_release(&mut self, _t: &ReleasedTask, _now: Time) {}
        fn on_complete(&mut self, _t: TaskId, _now: Time) {}
        fn decide_into(&mut self, _now: Time, _free: u32, _out: &mut Vec<TaskId>) {}
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn lazy_scheduler_detected() {
        let inst = chain();
        let mut src = StaticSource::new(inst);
        let mut sched = Lazy;
        let _ = EngineConfig::new().run(&mut src, &mut sched);
    }

    #[test]
    fn lazy_scheduler_is_typed_deadlock() {
        let inst = chain();
        let mut src = StaticSource::new(inst);
        let err = EngineConfig::new()
            .try_run(&mut src, &mut Lazy)
            .unwrap_err();
        match err {
            RunError::SchedulerViolation(SchedulerViolation::Deadlock {
                unstarted,
                capacity,
            }) => {
                assert_eq!(unstarted.len(), 2); // a and c released, neither started
                assert_eq!(capacity, 4);
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }

    /// A scheduler that oversubscribes.
    struct Hog {
        pending: Vec<TaskId>,
    }
    impl OnlineScheduler for Hog {
        fn name(&self) -> &'static str {
            "hog"
        }
        fn on_release(&mut self, t: &ReleasedTask, _now: Time) {
            self.pending.push(t.id);
        }
        fn on_complete(&mut self, _t: TaskId, _now: Time) {}
        fn decide_into(&mut self, _now: Time, _free: u32, out: &mut Vec<TaskId>) {
            out.append(&mut self.pending);
        }
    }

    #[test]
    #[should_panic(expected = "oversubscribed")]
    fn oversubscription_detected() {
        // Two tasks of 3 procs on P=4, no deps: Hog starts both at once.
        let inst = DagBuilder::new()
            .task("x", Time::from_int(1), 3)
            .task("y", Time::from_int(1), 3)
            .build(4);
        let mut src = StaticSource::new(inst);
        let mut sched = Hog {
            pending: Vec::new(),
        };
        let _ = EngineConfig::new().run(&mut src, &mut sched);
    }

    #[test]
    fn oversubscription_is_typed_error() {
        let inst = DagBuilder::new()
            .task("x", Time::from_int(1), 3)
            .task("y", Time::from_int(1), 3)
            .build(4);
        let mut src = StaticSource::new(inst);
        let mut sched = Hog {
            pending: Vec::new(),
        };
        let err = EngineConfig::new()
            .try_run(&mut src, &mut sched)
            .unwrap_err();
        assert!(matches!(
            err,
            RunError::SchedulerViolation(SchedulerViolation::Oversubscribed {
                needed: 3,
                free: 1,
                ..
            })
        ));
    }

    /// Lists the same id twice in one decision: `DuplicateDecision`.
    #[test]
    fn duplicate_decision_same_round_detected() {
        struct Dup {
            ids: Vec<TaskId>,
        }
        impl OnlineScheduler for Dup {
            fn name(&self) -> &'static str {
                "dup"
            }
            fn on_release(&mut self, t: &ReleasedTask, _now: Time) {
                self.ids.push(t.id);
            }
            fn on_complete(&mut self, _t: TaskId, _now: Time) {}
            fn decide_into(&mut self, _now: Time, _free: u32, out: &mut Vec<TaskId>) {
                // Return the first released id twice in ONE decision.
                if let Some(&id) = self.ids.first() {
                    out.extend([id, id]);
                }
            }
        }
        let inst = DagBuilder::new().task("a", Time::ONE, 1).build(2);
        let err = EngineConfig::new()
            .try_run(&mut StaticSource::new(inst), &mut Dup { ids: vec![] })
            .unwrap_err();
        assert_eq!(
            err,
            RunError::SchedulerViolation(SchedulerViolation::DuplicateDecision { task: TaskId(0) })
        );
    }

    /// Starts every released task at the first decision, then repeats
    /// the first one at the second: the engine flags the repeat as
    /// `DoubleStart` whether that task has already completed (a alone)
    /// or is still running (a beside a shorter b, whose completion
    /// triggers the second decision).
    #[test]
    fn double_start_across_rounds_detected() {
        struct Again {
            ids: Vec<TaskId>,
            rounds: u32,
            repeated_at: Option<Time>,
        }
        impl OnlineScheduler for Again {
            fn name(&self) -> &'static str {
                "again"
            }
            fn on_release(&mut self, t: &ReleasedTask, _now: Time) {
                self.ids.push(t.id);
            }
            fn on_complete(&mut self, _t: TaskId, _now: Time) {}
            fn decide_into(&mut self, now: Time, _free: u32, out: &mut Vec<TaskId>) {
                self.rounds += 1;
                match self.rounds {
                    1 => out.extend_from_slice(&self.ids),
                    2 => {
                        self.repeated_at = Some(now);
                        out.push(self.ids[0]);
                    }
                    _ => {}
                }
            }
        }
        let completed = DagBuilder::new().task("a", Time::from_int(5), 1).build(2);
        let running = DagBuilder::new()
            .task("a", Time::from_int(5), 1)
            .task("b", Time::ONE, 1)
            .build(2);
        for (inst, repeat_at) in [(completed, Time::from_int(5)), (running, Time::ONE)] {
            let mut sched = Again {
                ids: vec![],
                rounds: 0,
                repeated_at: None,
            };
            let err = EngineConfig::new()
                .try_run(&mut StaticSource::new(inst), &mut sched)
                .unwrap_err();
            assert_eq!(
                err,
                RunError::SchedulerViolation(SchedulerViolation::DoubleStart { task: TaskId(0) })
            );
            assert_eq!(sched.repeated_at, Some(repeat_at));
        }
    }

    #[test]
    fn timed_releases_respected() {
        use rigid_dag::source::TimedSource;
        // Two unit tasks arriving at t=0 and t=5 on one processor: the
        // second cannot start before 5 even though the machine idles
        // from 1 to 5.
        let mut src = TimedSource::new(
            vec![
                (Time::ZERO, TaskSpec::new(Time::ONE, 1)),
                (Time::from_int(5), TaskSpec::new(Time::ONE, 1)),
            ],
            1,
        );
        let result = EngineConfig::new().run(&mut src, &mut Greedy::new());
        assert_eq!(result.makespan(), Time::from_int(6));
        assert_eq!(result.release_times[1], Some(Time::from_int(5)));
        assert_eq!(
            result.schedule.placement(TaskId(1)).unwrap().start,
            Time::from_int(5)
        );
    }

    #[test]
    fn timed_arrival_during_execution() {
        use rigid_dag::source::TimedSource;
        // Arrival at t=1 while a long task runs: it queues and starts on
        // the other processor immediately at its release.
        let mut src = TimedSource::new(
            vec![
                (Time::ZERO, TaskSpec::new(Time::from_int(4), 1)),
                (Time::ONE, TaskSpec::new(Time::from_int(2), 1)),
            ],
            2,
        );
        let result = EngineConfig::new().run(&mut src, &mut Greedy::new());
        assert_eq!(
            result.schedule.placement(TaskId(1)).unwrap().start,
            Time::ONE
        );
        assert_eq!(result.makespan(), Time::from_int(4));
    }

    #[test]
    fn empty_instance_runs() {
        let inst = Instance::new(rigid_dag::TaskGraph::new(), 2);
        let mut src = StaticSource::new(inst);
        let mut sched = Greedy::new();
        let result = EngineConfig::new().run(&mut src, &mut sched);
        assert_eq!(result.makespan(), Time::ZERO);
        assert!(result.schedule.is_empty());
        // Even an empty run consults the scheduler once; every other
        // counter stays at zero.
        assert_eq!(
            result.stats,
            EngineStats {
                decide_calls: 1,
                ..EngineStats::default()
            }
        );
        assert_eq!(result.decisions, 1);
    }

    #[test]
    fn simultaneous_completions_processed_together() {
        // Two equal tasks finish at the same instant; their joint
        // successor must be released exactly once at that instant.
        let inst = DagBuilder::new()
            .task("u", Time::from_int(2), 1)
            .task("v", Time::from_int(2), 1)
            .task("w", Time::from_int(1), 2)
            .edge("u", "w")
            .edge("v", "w")
            .build(2);
        let mut src = StaticSource::new(inst.clone());
        let mut sched = Greedy::new();
        let result = EngineConfig::new().run(&mut src, &mut sched);
        result.schedule.assert_valid(&inst);
        assert_eq!(result.makespan(), Time::from_int(3));
    }

    // ---- source-contract violations (one test per variant) ----

    /// A source that misbehaves in a configurable way.
    struct RogueSource {
        procs: u32,
        /// Releases handed out by `initial`.
        initial: Vec<ReleasedTask>,
        /// Releases handed out on the first completion.
        after_first: Vec<ReleasedTask>,
    }

    impl InstanceSource for RogueSource {
        fn procs(&self) -> u32 {
            self.procs
        }
        fn initial_into(&mut self, out: &mut Vec<ReleasedTask>) {
            out.append(&mut self.initial);
        }
        fn on_complete_into(&mut self, _task: TaskId, _ci: u64, out: &mut Vec<ReleasedTask>) {
            out.append(&mut self.after_first);
        }
        fn expects_more(&self) -> bool {
            false
        }
    }

    fn rel(id: u32, t: i64, p: u32, preds: Vec<TaskId>) -> ReleasedTask {
        ReleasedTask {
            id: TaskId(id),
            spec: TaskSpec::new(Time::from_int(t), p),
            preds,
        }
    }

    #[test]
    fn duplicate_release_is_source_violation() {
        let mut src = RogueSource {
            procs: 2,
            initial: vec![rel(0, 1, 1, vec![]), rel(0, 1, 1, vec![])],
            after_first: vec![],
        };
        let err = EngineConfig::new()
            .try_run(&mut src, &mut Greedy::new())
            .unwrap_err();
        assert_eq!(
            err,
            RunError::SourceViolation(SourceViolation::DuplicateRelease { task: TaskId(0) })
        );
    }

    #[test]
    fn premature_release_is_source_violation() {
        // Task 1 names task 0 as predecessor while 0 is still running.
        let mut src = RogueSource {
            procs: 2,
            initial: vec![rel(0, 2, 1, vec![]), rel(1, 1, 1, vec![TaskId(0)])],
            after_first: vec![],
        };
        let err = EngineConfig::new()
            .try_run(&mut src, &mut Greedy::new())
            .unwrap_err();
        assert_eq!(
            err,
            RunError::SourceViolation(SourceViolation::PrematureRelease {
                task: TaskId(1),
                pred: TaskId(0),
            })
        );
    }

    #[test]
    fn unknown_predecessor_is_source_violation() {
        let mut src = RogueSource {
            procs: 2,
            initial: vec![rel(0, 1, 1, vec![TaskId(7)])],
            after_first: vec![],
        };
        let err = EngineConfig::new()
            .try_run(&mut src, &mut Greedy::new())
            .unwrap_err();
        assert_eq!(
            err,
            RunError::SourceViolation(SourceViolation::UnknownPredecessor {
                task: TaskId(0),
                pred: TaskId(7),
            })
        );
    }

    #[test]
    fn repeated_predecessor_is_source_violation_in_both_modes() {
        // T1 lists T0 twice. A full-recording run used to panic in the
        // revealed-graph rebuild, and a stats-only run accepted it.
        for stats_only in [false, true] {
            let mut src = RogueSource {
                procs: 2,
                initial: vec![rel(0, 1, 1, vec![])],
                after_first: vec![rel(1, 1, 1, vec![TaskId(0), TaskId(0)])],
            };
            let config = EngineConfig::new();
            let config = if stats_only {
                config.stats_only()
            } else {
                config
            };
            let err = config.try_run(&mut src, &mut Greedy::new()).unwrap_err();
            assert_eq!(
                err,
                RunError::SourceViolation(SourceViolation::DuplicatePredecessor {
                    task: TaskId(1),
                    pred: TaskId(0),
                }),
                "stats_only = {stats_only}"
            );
        }
    }

    #[test]
    fn oversubscribing_release_is_source_violation() {
        let mut src = RogueSource {
            procs: 2,
            initial: vec![rel(0, 1, 3, vec![])],
            after_first: vec![],
        };
        let err = EngineConfig::new()
            .try_run(&mut src, &mut Greedy::new())
            .unwrap_err();
        assert_eq!(
            err,
            RunError::SourceViolation(SourceViolation::Oversubscription {
                task: TaskId(0),
                needed: 3,
                platform: 2,
            })
        );
    }

    #[test]
    fn withheld_tasks_is_source_violation() {
        /// Claims more tasks are coming but never releases them.
        struct Withholder {
            released: bool,
        }
        impl InstanceSource for Withholder {
            fn procs(&self) -> u32 {
                1
            }
            fn initial_into(&mut self, out: &mut Vec<ReleasedTask>) {
                self.released = true;
                out.push(rel(0, 1, 1, vec![]));
            }
            fn on_complete_into(&mut self, _task: TaskId, _ci: u64, _out: &mut Vec<ReleasedTask>) {}
            fn expects_more(&self) -> bool {
                true
            }
        }
        let mut src = Withholder { released: false };
        let err = EngineConfig::new()
            .try_run(&mut src, &mut Greedy::new())
            .unwrap_err();
        assert_eq!(
            err,
            RunError::SourceViolation(SourceViolation::WithheldTasks)
        );
    }

    #[test]
    fn legal_release_at_completion_still_works() {
        // Sanity: the RogueSource scaffolding itself passes when used
        // legally (release after the predecessor completes).
        let mut src = RogueSource {
            procs: 2,
            initial: vec![rel(0, 2, 1, vec![])],
            after_first: vec![rel(1, 1, 1, vec![TaskId(0)])],
        };
        let result = EngineConfig::new()
            .try_run(&mut src, &mut Greedy::new())
            .unwrap();
        assert_eq!(result.makespan(), Time::from_int(3));
    }

    // ---- fault-model behavior ----

    use crate::fault::Attempt as FateAttempt;

    /// Fails configured (task, attempt) pairs at half their nominal
    /// time; everything else completes.
    struct FailPlan {
        fail: Vec<(TaskId, u32)>,
    }
    impl FaultModel for FailPlan {
        fn on_start(
            &mut self,
            task: TaskId,
            attempt: u32,
            _now: Time,
            nominal: Time,
            _procs: u32,
        ) -> FateAttempt {
            if self.fail.contains(&(task, attempt)) {
                FateAttempt::Fail {
                    after: nominal.div_int(2),
                }
            } else {
                FateAttempt::Complete
            }
        }
    }

    /// A greedy scheduler that retries failed tasks.
    struct RetryGreedy {
        inner: Greedy,
        widths: HashMap<TaskId, u32>,
    }
    impl RetryGreedy {
        fn new() -> Self {
            RetryGreedy {
                inner: Greedy::new(),
                widths: HashMap::new(),
            }
        }
    }
    impl OnlineScheduler for RetryGreedy {
        fn name(&self) -> &'static str {
            "retry-greedy"
        }
        fn on_release(&mut self, t: &ReleasedTask, now: Time) {
            self.widths.insert(t.id, t.spec.procs);
            self.inner.on_release(t, now);
        }
        fn on_complete(&mut self, t: TaskId, now: Time) {
            self.inner.on_complete(t, now);
        }
        fn on_failure(&mut self, t: TaskId, _now: Time) -> FailureResponse {
            self.inner.queue.push((t, self.widths[&t]));
            FailureResponse::Retry
        }
        fn decide_into(&mut self, now: Time, free: u32, out: &mut Vec<TaskId>) {
            self.inner.decide_into(now, free, out)
        }
    }

    #[test]
    fn failed_task_reruns_in_full() {
        // One task t=2 failing once at t=1: re-execution starts at 1,
        // completes at 3. The placement records the successful attempt.
        let inst = DagBuilder::new().task("a", Time::from_int(2), 1).build(1);
        let mut src = StaticSource::new(inst);
        let mut faults = FailPlan {
            fail: vec![(TaskId(0), 0)],
        };
        let result = EngineConfig::new()
            .faults(&mut faults)
            .try_run(&mut src, &mut RetryGreedy::new())
            .unwrap();
        assert_eq!(result.makespan(), Time::from_int(3));
        let p = result.schedule.placement(TaskId(0)).unwrap();
        assert_eq!(p.start, Time::ONE);
        assert_eq!(p.finish, Time::from_int(3));
        assert_eq!(result.faults.failures, 1);
        assert_eq!(result.faults.wasted_area, Time::ONE);
        assert_eq!(result.faults.attempts.len(), 2); // the failure + the retry
    }

    #[test]
    fn failure_without_retry_support_is_abandonment() {
        let inst = DagBuilder::new().task("a", Time::from_int(2), 1).build(1);
        let mut src = StaticSource::new(inst);
        let mut faults = FailPlan {
            fail: vec![(TaskId(0), 0)],
        };
        let err = EngineConfig::new()
            .faults(&mut faults)
            .try_run(&mut src, &mut Greedy::new())
            .unwrap_err();
        assert_eq!(
            err,
            RunError::TaskAbandoned {
                task: TaskId(0),
                attempts: 1,
                at: Time::ONE
            }
        );
    }

    #[test]
    fn straggler_inflates_placement_and_log() {
        struct Straggle;
        impl FaultModel for Straggle {
            fn on_start(
                &mut self,
                _task: TaskId,
                _attempt: u32,
                _now: Time,
                nominal: Time,
                _procs: u32,
            ) -> FateAttempt {
                FateAttempt::Inflated {
                    actual: nominal.mul_int(2),
                }
            }
        }
        let inst = DagBuilder::new().task("a", Time::from_int(2), 2).build(2);
        let mut src = StaticSource::new(inst);
        let result = EngineConfig::new()
            .faults(&mut Straggle)
            .try_run(&mut src, &mut Greedy::new())
            .unwrap();
        assert_eq!(result.makespan(), Time::from_int(4));
        assert_eq!(result.faults.inflated_area, Time::from_int(4)); // 2 extra × 2 procs
        assert!(!result.faults.is_clean(2));
    }

    /// Capacity dips to `cap` during `[from, until)`.
    struct Dip {
        from: Time,
        until: Time,
        cap: u32,
    }
    impl FaultModel for Dip {
        fn on_start(
            &mut self,
            _task: TaskId,
            _attempt: u32,
            _now: Time,
            _nominal: Time,
            _procs: u32,
        ) -> FateAttempt {
            FateAttempt::Complete
        }
        fn capacity(&mut self, now: Time, platform: u32) -> u32 {
            if self.from <= now && now < self.until {
                self.cap
            } else {
                platform
            }
        }
        fn next_capacity_event(&self, now: Time) -> Option<Time> {
            [self.from, self.until].into_iter().find(|&t| t > now)
        }
    }

    #[test]
    fn capacity_dip_delays_starts_and_recovers() {
        // Two 2-wide unit tasks on P=2; capacity dips to 0 over [0, 3).
        // Nothing can start until 3; both run back to back after.
        let inst = DagBuilder::new()
            .task("x", Time::ONE, 2)
            .task("y", Time::ONE, 2)
            .build(2);
        let mut src = StaticSource::new(inst);
        let mut dip = Dip {
            from: Time::ZERO,
            until: Time::from_int(3),
            cap: 0,
        };
        let result = EngineConfig::new()
            .faults(&mut dip)
            .try_run(&mut src, &mut Greedy::new())
            .unwrap();
        assert_eq!(result.makespan(), Time::from_int(5));
        assert_eq!(result.faults.min_capacity, 0);
    }

    #[test]
    fn permanent_capacity_loss_is_deadlock_with_capacity() {
        // Capacity 0 forever: the scheduler can never start anything and
        // no recovery event exists — a typed deadlock naming capacity 0.
        struct Dead;
        impl FaultModel for Dead {
            fn on_start(
                &mut self,
                _t: TaskId,
                _a: u32,
                _n: Time,
                _nom: Time,
                _p: u32,
            ) -> FateAttempt {
                FateAttempt::Complete
            }
            fn capacity(&mut self, _now: Time, _platform: u32) -> u32 {
                0
            }
        }
        let inst = DagBuilder::new().task("a", Time::ONE, 1).build(1);
        let mut src = StaticSource::new(inst);
        let err = EngineConfig::new()
            .faults(&mut Dead)
            .try_run(&mut src, &mut Greedy::new())
            .unwrap_err();
        assert!(matches!(
            err,
            RunError::SchedulerViolation(SchedulerViolation::Deadlock { capacity: 0, .. })
        ));
    }

    // ---- run budgets ----

    #[test]
    fn ample_budget_matches_unbudgeted_run() {
        let inst = chain();
        let budgeted = EngineConfig::new()
            .budget(RunBudget::max_events(1_000).with_wall_deadline(Duration::from_secs(3600)))
            .try_run(&mut StaticSource::new(inst.clone()), &mut Greedy::new())
            .unwrap();
        let plain = EngineConfig::new()
            .try_run(&mut StaticSource::new(inst), &mut Greedy::new())
            .unwrap();
        assert_eq!(budgeted.schedule, plain.schedule);
        assert_eq!(budgeted.stats, plain.stats);
    }

    #[test]
    fn exact_event_budget_still_completes() {
        // The chain processes exactly 6 events; a ceiling of 6 is enough.
        let inst = chain();
        let result = EngineConfig::new()
            .budget(RunBudget::max_events(6))
            .try_run(&mut StaticSource::new(inst), &mut Greedy::new())
            .unwrap();
        assert_eq!(result.stats.events, 6);
    }

    #[test]
    fn event_budget_trips_deterministically() {
        let inst = chain();
        let run = |limit: u64| {
            EngineConfig::new()
                .budget(RunBudget::max_events(limit))
                .try_run(&mut StaticSource::new(inst.clone()), &mut Greedy::new())
        };
        for limit in 0..6 {
            let err = run(limit).unwrap_err();
            let again = run(limit).unwrap_err();
            assert_eq!(err, again, "budget cutoff must be deterministic");
            match err {
                RunError::BudgetExceeded {
                    exceeded, events, ..
                } => {
                    assert_eq!(exceeded, BudgetKind::Events { limit });
                    assert!(events > limit);
                }
                other => panic!("expected BudgetExceeded, got {other:?}"),
            }
        }
    }

    #[test]
    fn zero_wall_deadline_trips_immediately() {
        let inst = chain();
        let err = EngineConfig::new()
            .budget(RunBudget::wall_deadline(Duration::ZERO))
            .try_run(&mut StaticSource::new(inst), &mut Greedy::new())
            .unwrap_err();
        assert!(matches!(
            err,
            RunError::BudgetExceeded {
                exceeded: BudgetKind::WallClock { limit_ms: 0 },
                ..
            }
        ));
    }

    #[test]
    fn empty_instance_survives_zero_event_budget() {
        // No events are processed, so `events > 0` never holds.
        let inst = Instance::new(rigid_dag::TaskGraph::new(), 2);
        let result = EngineConfig::new()
            .budget(RunBudget::max_events(0))
            .try_run(&mut StaticSource::new(inst), &mut Greedy::new())
            .unwrap();
        assert_eq!(result.stats.events, 0);
    }

    #[test]
    fn budget_error_roundtrips_through_json() {
        let err = RunError::BudgetExceeded {
            exceeded: BudgetKind::Events { limit: 7 },
            events: 8,
            at: Time::from_int(3),
        };
        let json = serde_json::to_string(&Err::<Time, RunError>(err.clone())).unwrap();
        let back: Result<Time, RunError> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, Err(err));
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        // One scratch buffer across heterogeneous runs (fault-free, then
        // faulty with retries, then a smaller instance) must reproduce the
        // fresh-scratch results exactly — scratch carries capacity, never
        // state.
        let mut scratch = EngineScratch::new();
        for _ in 0..3 {
            let fresh = EngineConfig::new()
                .try_run(&mut StaticSource::new(chain()), &mut Greedy::new())
                .unwrap();
            let reused = EngineConfig::new()
                .scratch(&mut scratch)
                .try_run(&mut StaticSource::new(chain()), &mut Greedy::new())
                .unwrap();
            assert_eq!(fresh.schedule, reused.schedule);
            assert_eq!(fresh.stats, reused.stats);
            assert_eq!(fresh.release_times, reused.release_times);
            assert_eq!(fresh.decisions, reused.decisions);

            let inst = DagBuilder::new().task("a", Time::from_int(2), 1).build(1);
            let fresh = EngineConfig::new()
                .faults(&mut FailPlan {
                    fail: vec![(TaskId(0), 0)],
                })
                .try_run(
                    &mut StaticSource::new(inst.clone()),
                    &mut RetryGreedy::new(),
                )
                .unwrap();
            let reused = EngineConfig::new()
                .faults(&mut FailPlan {
                    fail: vec![(TaskId(0), 0)],
                })
                .scratch(&mut scratch)
                .try_run(&mut StaticSource::new(inst), &mut RetryGreedy::new())
                .unwrap();
            assert_eq!(fresh.schedule, reused.schedule);
            assert_eq!(fresh.faults.failures, reused.faults.failures);
            assert_eq!(fresh.faults.wasted_area, reused.faults.wasted_area);
        }
    }

    #[test]
    fn retry_preserves_spec() {
        // Across a failure and retry, the re-execution uses the same
        // (t, p): the final placement spans exactly t with p procs.
        let inst = DagBuilder::new().task("a", Time::from_int(3), 2).build(4);
        let mut src = StaticSource::new(inst.clone());
        let mut faults = FailPlan {
            fail: vec![(TaskId(0), 0)],
        };
        let result = EngineConfig::new()
            .faults(&mut faults)
            .try_run(&mut src, &mut RetryGreedy::new())
            .unwrap();
        let p = result.schedule.placement(TaskId(0)).unwrap();
        assert_eq!(p.finish - p.start, Time::from_int(3));
        assert_eq!(p.procs, 2);
    }
}
