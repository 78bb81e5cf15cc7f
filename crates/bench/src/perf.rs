//! Engine performance pipeline: the scenario matrix behind
//! `catbatch bench --json`.
//!
//! Runs a fixed, seeded matrix — the paper's figure instances plus large
//! random DAGs at n ∈ {10³, 10⁴, 10⁵, 10⁶, 10⁷} — and reports per
//! scenario the wall-clock time, engine event throughput, peak ready-set
//! size and the makespan / lower-bound ratio. The quick tier (CI smoke)
//! stops at n = 10⁶; the full tier adds the 10⁴-, 10⁵- and 10⁷-task
//! DAGs. The full tier also times the 10⁵-task scenario on the frozen
//! pre-refactor engine ([`rigid_sim::reference`]) so the event-driven
//! speedup is recorded in every report (the reference engine is far too
//! slow to compare at 10⁷).
//!
//! Timing discipline: every scenario first does one **full-recording**
//! run, untimed — it validates the schedule against the instance and
//! supplies the makespan / lower-bound fields, and doubles as cache
//! warmup. The `reps` timed repetitions then run the engine in
//! [`rigid_sim::EngineConfig::stats_only`] mode with a shared
//! [`rigid_sim::EngineScratch`], so the measured number is the hot loop
//! itself rather than result-map and graph construction; the timed
//! runs' event counters are asserted identical to the validated run's.
//! The **median** wall time is reported (it is stable under scheduling
//! noise without being as optimistic as the minimum), and the repetition
//! count is recorded per scenario so a report is self-describing.
//!
//! The JSON shape (`BENCH_engine.json`, schema
//! `catbatch-bench-engine/v1.4`) is documented in `docs/performance.md`;
//! [`check_regression`] is the guard CI's `bench-smoke` job runs against
//! the committed snapshot in `results/bench_baseline.json`: exact
//! deterministic counters, and events/sec within a loose factor.
//!
//! Besides the engine matrix, every report carries a [`ServeBench`]
//! section: an in-process `catbatch serve` daemon driven by the load
//! generator, so the end-to-end service path (frame codec, session
//! ordering, shard queues, supervision) has a tracked number too.

use crate::harness::Sched;
use rigid_baselines::Priority;
use rigid_dag::gen::{self, LengthDist, ProcDist, TaskSampler};
use rigid_dag::{analysis, paper, Instance, ReleasedTask, StaticSource, TaskId};
use rigid_sim::{engine, reference, OnlineScheduler, RunResult};
use rigid_supervise::journal::{self, Journal, JournalError, JournalWriter};
use rigid_time::Time;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Verbatim pre-refactor ASAP FIFO ready-list code, frozen for the
/// hot-path comparison: a forward `position` scan per insert and a full
/// `retain` rescan per decision, with no saturation early-outs — exactly
/// what `rigid_baselines::ListScheduler` did before this ready-list was
/// made incremental (deque + early-break decide). Starts the same tasks
/// in the same order as the current FIFO scheduler (the comparison
/// asserts identical schedules); only the per-event cost differs.
struct PreRefactorFifo {
    ready: Vec<(TaskId, u32)>,
    keys: std::collections::HashMap<TaskId, u32>,
}

impl PreRefactorFifo {
    fn new() -> Self {
        PreRefactorFifo {
            ready: Vec::new(),
            keys: std::collections::HashMap::new(),
        }
    }
}

impl OnlineScheduler for PreRefactorFifo {
    fn name(&self) -> &'static str {
        "pre-refactor-list-fifo"
    }
    fn on_release(&mut self, task: &ReleasedTask, _now: Time) {
        self.keys.insert(task.id, task.spec.procs);
        // FIFO keys are all equal, so nothing is strictly worse and the
        // scan always walks the whole list — the pre-refactor cost.
        let pos = self
            .ready
            .iter()
            .position(|_| false)
            .unwrap_or(self.ready.len());
        self.ready.insert(pos, (task.id, task.spec.procs));
    }
    fn on_complete(&mut self, _task: TaskId, _now: Time) {}
    fn decide_into(&mut self, _now: Time, mut free: u32, out: &mut Vec<TaskId>) {
        self.ready.retain(|&(id, p)| {
            if p <= free {
                free -= p;
                out.push(id);
                false
            } else {
                true
            }
        });
    }
    fn on_failure(&mut self, task: TaskId, _now: Time) -> rigid_sim::FailureResponse {
        let p = *self.keys.get(&task).expect("failed task was released");
        let pos = self
            .ready
            .iter()
            .position(|_| false)
            .unwrap_or(self.ready.len());
        self.ready.insert(pos, (task, p));
        rigid_sim::FailureResponse::Retry
    }
}

/// Schema identifier written into every report, and the only one
/// [`check_regression`] accepts as a baseline.
pub const SCHEMA: &str = "catbatch-bench-engine/v1.4";

/// Schema identifier of the resumable scenario journal
/// (`catbatch bench --journal`).
pub const JOURNAL_SCHEMA: &str = "catbatch-bench-journal/v1";

/// The scenario name whose reference-engine comparison gates the
/// event-driven speedup claim (the 10⁵-task random DAG).
pub const REFERENCE_SCENARIO: &str = "rand-chains-n100000";

/// One entry of the scenario matrix: a seeded instance plus the
/// scheduler to drive it with.
pub struct Scenario {
    /// Stable name, used to match scenarios across reports.
    pub name: &'static str,
    /// Generator family (or `paper-*` for figure instances).
    pub family: &'static str,
    /// Scheduler to run.
    pub sched: Sched,
    /// How many timed repetitions (the median wall time is kept; one
    /// extra untimed warmup run precedes them).
    pub reps: u32,
    build: fn() -> Instance,
}

impl Scenario {
    /// Builds the (deterministic) instance.
    pub fn instance(&self) -> Instance {
        (self.build)()
    }
}

fn fig1() -> Instance {
    paper::intro_example(64, Time::from_ratio(1, 1000))
}

fn fig3() -> Instance {
    paper::figure3()
}

fn rand_n1000() -> Instance {
    gen::layered(101, 40, 25, &TaskSampler::default_mix(), 64)
}

fn rand_n10000() -> Instance {
    gen::chains(107, 100, 100, &TaskSampler::default_mix(), 64)
}

fn rand_n100000() -> Instance {
    // 25 000 width-1 chains of 4 on P = 1000: graph width ≫ P, so the
    // ready set holds ~24 000 blocked tasks for the whole run — the
    // regime where the pre-refactor per-event linear rescans are
    // quadratic and the incremental hot path is not.
    let sampler = TaskSampler {
        length: LengthDist::Uniform { min: 0.5, max: 4.0 },
        procs: ProcDist::Uniform { min: 1, max: 1 },
    };
    gen::chains(113, 25_000, 4, &sampler, 1000)
}

fn rand_n1000000() -> Instance {
    // The same width ≫ P regime as `rand_n100000`, ×10: 250 000 chains
    // of 4 on P = 1000. Small enough to keep the quick tier (and the
    // bench crate's own tests) fast, large enough that cache density in
    // the engine's task-state columns dominates the wall time.
    let sampler = TaskSampler {
        length: LengthDist::Uniform { min: 0.5, max: 4.0 },
        procs: ProcDist::Uniform { min: 1, max: 1 },
    };
    gen::chains(127, 250_000, 4, &sampler, 1000)
}

fn rand_n10000000() -> Instance {
    // The headline 10⁷-task scenario: 2.5 million chains of 4 on
    // P = 1000 (20 million engine events). Full tier only.
    let sampler = TaskSampler {
        length: LengthDist::Uniform { min: 0.5, max: 4.0 },
        procs: ProcDist::Uniform { min: 1, max: 1 },
    };
    gen::chains(131, 2_500_000, 4, &sampler, 1000)
}

/// The fixed scenario matrix. The `quick` tier (CI smoke) stops at
/// n = 10⁶; the full tier adds the 10⁴-, 10⁵- and 10⁷-task DAGs.
pub fn scenarios(quick: bool) -> Vec<Scenario> {
    let mut m = vec![
        Scenario {
            name: "fig3-catbatch",
            family: "paper-figure3",
            sched: Sched::CatBatch,
            reps: 20,
            build: fig3,
        },
        Scenario {
            name: "fig3-strip",
            family: "paper-figure3",
            sched: Sched::CatBatchStrip,
            reps: 20,
            build: fig3,
        },
        Scenario {
            name: "fig1-asap-trap",
            family: "paper-figure1",
            sched: Sched::List(Priority::Fifo),
            reps: 10,
            build: fig1,
        },
        Scenario {
            name: "rand-layered-n1000",
            family: "layered",
            sched: Sched::CatBatch,
            reps: 5,
            build: rand_n1000,
        },
        Scenario {
            name: "rand-chains-n1000000",
            family: "chains",
            sched: Sched::List(Priority::Fifo),
            reps: 2,
            build: rand_n1000000,
        },
    ];
    if !quick {
        m.push(Scenario {
            name: "rand-chains-n10000",
            family: "chains",
            sched: Sched::List(Priority::Fifo),
            reps: 3,
            build: rand_n10000,
        });
        m.push(Scenario {
            name: REFERENCE_SCENARIO,
            family: "chains",
            sched: Sched::List(Priority::Fifo),
            reps: 3,
            build: rand_n100000,
        });
        m.push(Scenario {
            name: "rand-chains-n10000000",
            family: "chains",
            sched: Sched::List(Priority::Fifo),
            reps: 2,
            build: rand_n10000000,
        });
    }
    m
}

/// Measured numbers for one scenario.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// Scenario name (matches across reports).
    pub name: String,
    /// Generator family.
    pub family: String,
    /// Task count.
    pub n: usize,
    /// Platform size.
    pub procs: u32,
    /// Scheduler name.
    pub scheduler: String,
    /// Median wall-clock time over the timed repetitions, milliseconds.
    /// The timed repetitions run the engine in stats-only mode (hot loop
    /// only, no result artifacts).
    pub wall_ms: f64,
    /// Engine events (releases + completions + failures).
    pub events: u64,
    /// `events / wall` — the headline throughput number.
    pub events_per_sec: f64,
    /// Largest ready set the engine ever held.
    pub peak_ready: u64,
    /// Achieved makespan.
    pub makespan: f64,
    /// `max(area/P, critical path)` lower bound.
    pub lower_bound: f64,
    /// `makespan / lower_bound`.
    pub makespan_ratio: f64,
    /// Instance max/min task length ratio (`None` for degenerate
    /// instances — serialized as `null`).
    pub length_ratio: Option<f64>,
    /// Timed repetitions behind `wall_ms`.
    pub repeats: u32,
    /// Engine loop breakdown from the validated run. The `catbatch bench
    /// --profile` flag renders these in the table view.
    pub profile: EngineProfile,
}

/// The per-scenario engine-loop breakdown: the calendar queue's
/// operation counters plus the batching and pre-sizing telemetry, copied
/// verbatim from [`rigid_sim::EngineStats`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EngineProfile {
    /// Events pushed into the calendar queue (attempt starts).
    pub queue_pushes: u64,
    /// Events popped from the calendar queue.
    pub queue_pops: u64,
    /// Queue pushes that fell back to the exact-`Rational` overflow
    /// heap. 0 on every pure-dyadic scenario (the `rand-*` matrix);
    /// nonzero only on the paper-figure instances, whose decimal task
    /// lengths (2.8, 0.6, …) are off the dyadic grid by construction.
    pub rational_fallbacks: u64,
    /// `decide_into` consultations.
    pub decide_calls: u64,
    /// Same-timestamp completion cohorts drained (one decision round
    /// each).
    pub batches: u64,
    /// Largest single cohort.
    pub max_batch: u64,
    /// Task releases that overran the pre-sized scratch columns. Always
    /// 0 in this matrix (static sources give exact hints) — asserted,
    /// not just reported.
    pub hint_misses: u64,
}

impl EngineProfile {
    fn from_stats(stats: &rigid_sim::EngineStats) -> Self {
        EngineProfile {
            queue_pushes: stats.queue_pushes,
            queue_pops: stats.queue_pops,
            rational_fallbacks: stats.rational_fallbacks,
            decide_calls: stats.decide_calls,
            batches: stats.batches,
            max_batch: stats.max_batch,
            hint_misses: stats.hint_misses,
        }
    }

    /// Every counter with its member name, in declaration order.
    fn counters(&self) -> [(&'static str, u64); 7] {
        [
            ("queue_pushes", self.queue_pushes),
            ("queue_pops", self.queue_pops),
            ("rational_fallbacks", self.rational_fallbacks),
            ("decide_calls", self.decide_calls),
            ("batches", self.batches),
            ("max_batch", self.max_batch),
            ("hint_misses", self.hint_misses),
        ]
    }
}

/// The event-driven vs pre-refactor hot-path comparison (full tier
/// only). "Hot path" is what the tentpole rewrote end to end: the
/// engine loop *and* the per-event ready-list maintenance. The
/// reference run therefore pairs the frozen stepping engine
/// ([`rigid_sim::reference`]) with the frozen pre-refactor ready-list
/// code; `engine_only_ms` isolates the engine swap alone (reference
/// engine, current scheduler) so both effects are visible.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RefComparison {
    /// Which scenario was compared.
    pub scenario: String,
    /// Event-driven hot path wall time, milliseconds. Timed in
    /// full-recording mode (the reference engine has no stats-only
    /// mode), so this is like-for-like with `reference_ms` — and larger
    /// than the same scenario's stats-only `wall_ms`.
    pub event_driven_ms: f64,
    /// Pre-refactor hot path (stepping engine + rescanning ready list)
    /// wall time, milliseconds.
    pub reference_ms: f64,
    /// `reference_ms / event_driven_ms` — the headline speedup.
    pub speedup: f64,
    /// Stepping engine with the *current* scheduler, milliseconds —
    /// isolates the engine rewrite from the ready-list rewrite.
    pub engine_only_ms: f64,
    /// `engine_only_ms / event_driven_ms`.
    pub engine_only_speedup: f64,
}

/// Daemon round-trip throughput: an in-process `catbatch serve` daemon
/// on a throwaway Unix socket, hammered by the load generator. Unlike
/// the engine scenarios this measures the whole service path — frame
/// codec, session reorder buffer, shard queues, supervised execution —
/// not just the simulation hot loop.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServeBench {
    /// Daemon worker (= shard) count.
    pub workers: usize,
    /// Concurrent loadgen clients.
    pub clients: usize,
    /// Total jobs submitted across all clients.
    pub jobs: u64,
    /// Approximate task count per submitted DAG.
    pub n: usize,
    /// Jobs answered with a schedule.
    pub ok: u64,
    /// Jobs answered with a typed error.
    pub errors: u64,
    /// End-to-end completed jobs per second.
    pub jobs_per_sec: f64,
    /// Median per-job latency (send → in-order response), milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-job latency, milliseconds.
    pub p99_ms: f64,
}

/// A complete `BENCH_engine.json` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchReport {
    /// Always [`SCHEMA`].
    pub schema: String,
    /// Whether this is the quick (CI smoke) tier.
    pub quick: bool,
    /// One entry per scenario, matrix order.
    pub scenarios: Vec<ScenarioResult>,
    /// Present on the full tier: the 10⁵-task engine comparison.
    pub reference: Option<RefComparison>,
    /// The daemon throughput section (`None` if the socket could not be
    /// bound).
    pub serve: Option<ServeBench>,
}

/// A timed region must span at least this long, or its measurement is
/// noise: sub-10µs scenarios (fig3 is 11 tasks) otherwise report
/// events/sec dominated by `Instant::now` overhead, and a sub-millisecond
/// one (`rand-layered-n1000`) by a single preemption on a loaded box.
const MIN_TIMED_REGION_SECS: f64 = 20e-3;

/// Times `reps` runs of `engine_fn` against fresh source/scheduler
/// pairs (instance cloning and scheduler construction stay outside the
/// timed region) and returns the **median** wall time with the last
/// result. One extra untimed warmup run precedes the timed ones, so
/// cold caches, lazy page faults and allocator growth land outside the
/// measurement; the median (upper median for even `reps`) keeps a
/// single preempted repetition from skewing the number either way.
///
/// A scenario whose warmup finishes well under [`MIN_TIMED_REGION_SECS`]
/// is batched: each repetition times a back-to-back block of runs (over
/// pre-built source/scheduler pairs, so construction still stays outside
/// the clock) and divides by the block size. Tiny-scenario numbers then
/// measure the engine, not per-rep timer overhead.
fn time_median(
    inst: &Instance,
    reps: u32,
    mut build_sched: impl FnMut() -> Box<dyn OnlineScheduler>,
    mut engine_fn: impl FnMut(&mut StaticSource, &mut dyn OnlineScheduler) -> RunResult,
) -> (f64, RunResult) {
    let warm_secs = {
        let mut source = StaticSource::new(inst.clone());
        let mut sched = build_sched();
        let t0 = Instant::now();
        engine_fn(&mut source, sched.as_mut());
        t0.elapsed().as_secs_f64()
    };
    let batch = if warm_secs < MIN_TIMED_REGION_SECS / 4.0 {
        ((MIN_TIMED_REGION_SECS / warm_secs.max(1e-9)).ceil() as usize).clamp(2, 4096)
    } else {
        1
    };
    let mut times = Vec::with_capacity(reps.max(1) as usize);
    let mut out = None;
    for _ in 0..reps.max(1) {
        let mut runs: Vec<(StaticSource, Box<dyn OnlineScheduler>)> = (0..batch)
            .map(|_| (StaticSource::new(inst.clone()), build_sched()))
            .collect();
        let t0 = Instant::now();
        for (source, sched) in &mut runs {
            out = Some(engine_fn(source, sched.as_mut()));
        }
        times.push(t0.elapsed().as_secs_f64() * 1e3 / batch as f64);
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
    (times[times.len() / 2], out.expect("reps >= 1"))
}

fn run_scenario(sc: &Scenario) -> ScenarioResult {
    let inst = sc.instance();
    let stats = analysis::stats(&inst);
    let lb = analysis::lower_bound(&inst);
    // One scratch across every run: after the first, the hot loop
    // allocates nothing, which is exactly how a repeated-simulation
    // caller would drive the engine.
    let mut scratch = rigid_sim::EngineScratch::new();
    // One full-recording run, untimed. It validates the schedule and
    // supplies the makespan fields; the timed repetitions below then
    // run stats-only, so they measure the simulation itself rather than
    // the recording of placements and release instants.
    let full = {
        let mut source = StaticSource::new(inst.clone());
        let mut sched = sc.sched.build(inst.procs());
        engine::EngineConfig::new()
            .scratch(&mut scratch)
            .run(&mut source, sched.as_mut())
    };
    full.schedule.assert_valid(&inst);
    let (wall_ms, timed) = time_median(
        &inst,
        sc.reps,
        || sc.sched.build(inst.procs()),
        |src, sched| {
            engine::EngineConfig::new()
                .stats_only()
                .scratch(&mut scratch)
                .run(src, sched)
        },
    );
    // The stats-only runs must be the same simulation as the validated
    // full run — identical counters, decision for decision.
    assert_eq!(
        timed.stats, full.stats,
        "{}: stats-only run diverged",
        sc.name
    );
    assert_eq!(
        timed.decisions, full.decisions,
        "{}: stats-only run diverged",
        sc.name
    );
    // Static sources hint their exact task count, so the pre-sized
    // scratch must never grow mid-run; and a finished run has returned
    // every queued event.
    assert_eq!(
        full.stats.hint_misses, 0,
        "{}: scratch grew mid-run",
        sc.name
    );
    assert_eq!(
        full.stats.queue_pushes, full.stats.queue_pops,
        "{}: events left in the queue",
        sc.name
    );
    ScenarioResult {
        name: sc.name.to_string(),
        family: sc.family.to_string(),
        n: inst.len(),
        procs: inst.procs(),
        scheduler: sc.sched.name(),
        wall_ms,
        events: full.stats.events,
        events_per_sec: full.stats.events as f64 / (wall_ms / 1e3),
        peak_ready: full.stats.peak_ready,
        makespan: full.makespan().to_f64(),
        lower_bound: lb.to_f64(),
        makespan_ratio: full.makespan().ratio(lb).to_f64(),
        length_ratio: stats.length_ratio(),
        repeats: sc.reps,
        profile: EngineProfile::from_stats(&full.stats),
    }
}

fn run_reference_comparison(sc: &Scenario) -> RefComparison {
    let inst = sc.instance();
    let (reference_ms, old_result) = time_median(
        &inst,
        sc.reps,
        || Box::new(PreRefactorFifo::new()),
        |src, sched| reference::run(src, sched),
    );
    let (engine_only_ms, _) = time_median(
        &inst,
        sc.reps,
        || sc.sched.build(inst.procs()),
        |src, sched| reference::run(src, sched),
    );
    // The event-driven side is timed in full-recording mode here — the
    // reference engine has no stats-only mode, so the speedup compares
    // like with like (both sides build their complete RunResult).
    let (event_driven_ms, new) = time_median(
        &inst,
        sc.reps,
        || sc.sched.build(inst.procs()),
        |src, sched| engine::EngineConfig::new().run(src, sched),
    );
    // Both hot paths must agree before a speedup is worth reporting.
    assert_eq!(
        new.schedule, old_result.schedule,
        "hot paths diverge on {}",
        sc.name
    );
    RefComparison {
        scenario: sc.name.to_string(),
        event_driven_ms,
        reference_ms,
        speedup: reference_ms / event_driven_ms,
        engine_only_ms,
        engine_only_speedup: engine_only_ms / event_driven_ms,
    }
}

/// Times the daemon round trip: boots an in-process daemon (4 workers)
/// on a throwaway Unix socket, drives it with 4 concurrent clients
/// submitting ~100-task layered DAGs, and reports throughput and
/// latency quantiles. Deterministic DAGs, but wall-clock timing — like
/// every other number in the report.
pub fn run_serve_bench() -> Result<ServeBench, String> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SOCKET_SERIAL: AtomicU64 = AtomicU64::new(0);
    let sock = std::env::temp_dir().join(format!(
        "catbatch-bench-serve-{}-{}.sock",
        std::process::id(),
        SOCKET_SERIAL.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&sock);
    let serve = rigid_serve::ServeOptions {
        bind: rigid_serve::Bind::Unix(sock.clone()),
        workers: 4,
        ..rigid_serve::ServeOptions::default()
    };
    let workers = serve.workers;
    let daemon = rigid_serve::Daemon::start(serve)?;
    let load = rigid_serve::LoadgenOptions {
        bind: rigid_serve::Bind::Unix(sock),
        clients: 4,
        jobs: 100,
        n: 100,
        ..rigid_serve::LoadgenOptions::default()
    };
    let outcome = rigid_serve::loadgen::run(&load);
    daemon.trigger_shutdown();
    daemon.wait();
    let report = outcome?;
    Ok(ServeBench {
        workers,
        clients: load.clients,
        jobs: report.jobs,
        n: load.n,
        ok: report.ok,
        errors: report.errors,
        jobs_per_sec: report.jobs_per_sec,
        p50_ms: report.p50_ms,
        p99_ms: report.p99_ms,
    })
}

/// The header line of a bench scenario journal.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct BenchJournalHeader {
    schema: String,
    quick: bool,
}

/// One journaled line after the header.
#[derive(Clone, Debug, Serialize, Deserialize)]
enum BenchRecord {
    /// A finished, timed scenario.
    Scenario {
        /// The measurement, verbatim.
        result: ScenarioResult,
    },
    /// The full-tier reference-engine comparison.
    Reference {
        /// The comparison, verbatim.
        comparison: RefComparison,
    },
}

/// What [`run_journaled`] measured and replayed.
#[derive(Clone, Debug)]
pub struct JournaledRun {
    /// The assembled report (replayed + freshly timed scenarios, matrix
    /// order).
    pub report: BenchReport,
    /// Scenarios timed by this invocation.
    pub executed: usize,
    /// Scenarios replayed from the journal.
    pub replayed: usize,
}

/// Runs the matrix and assembles the report. The full tier
/// (`quick = false`) also times [`REFERENCE_SCENARIO`] on the frozen
/// pre-refactor engine and records the speedup.
///
/// With a journal `path`, every finished scenario is checkpointed to a
/// JSONL journal, and with `resume` journaled scenarios are replayed
/// instead of re-timed — a killed bench run picks up where it stopped,
/// and re-running a finished journal times nothing. A torn trailing
/// line (crash artifact) is tolerated; a journal written for a
/// different tier or schema is rejected with a clear message.
///
/// `jobs >= 2` times the pending scenarios on a worker pool and then
/// journals them in matrix order (a crash mid-sweep loses the whole
/// in-flight batch, which resume simply re-times); the report lists
/// them in matrix order regardless. Per-scenario wall times measured
/// under a concurrent sweep include cross-scenario contention — use
/// `jobs = 1` when the absolute numbers matter, `jobs > 1` when sweep
/// latency does (e.g. the CI smoke tier). `jobs <= 1` keeps the serial
/// per-scenario checkpoint discipline. The reference-engine comparison
/// is always timed serially, after the sweep.
pub fn run_journaled(
    quick: bool,
    path: Option<&Path>,
    resume: bool,
    jobs: usize,
) -> Result<JournaledRun, String> {
    let mut done: BTreeMap<String, ScenarioResult> = BTreeMap::new();
    let mut journaled_reference: Option<RefComparison> = None;
    let mut writer = match path {
        Some(path) if resume && path.exists() => {
            let journal = read_journal(path, quick)?;
            let writer = JournalWriter::append_validated(path, &journal)
                .map_err(|e| format!("bench {e}"))?;
            for rec in journal.records {
                match rec {
                    BenchRecord::Scenario { result } => {
                        done.entry(result.name.clone()).or_insert(result);
                    }
                    BenchRecord::Reference { comparison } => {
                        journaled_reference = Some(comparison);
                    }
                }
            }
            Some(writer)
        }
        Some(path) => {
            let header = BenchJournalHeader {
                schema: JOURNAL_SCHEMA.to_string(),
                quick,
            };
            Some(JournalWriter::create(path, &header).map_err(|e| format!("bench {e}"))?)
        }
        None => None,
    };
    let mut record = |rec: BenchRecord| match writer.as_mut() {
        // `JournalError::Io` reads "journal <path>: <OS message>".
        Some(w) => w.record(&rec).map_err(|e| format!("bench {e}")),
        None => Ok(()),
    };

    let matrix = scenarios(quick);
    // A pool times every pending scenario up front; serially each one is
    // timed and checkpointed before the next starts.
    let mut fresh: BTreeMap<usize, ScenarioResult> = BTreeMap::new();
    if jobs > 1 {
        let pending: Vec<usize> = (0..matrix.len())
            .filter(|&i| !done.contains_key(matrix[i].name))
            .collect();
        let timed = rigid_exec::ordered_map(pending.clone(), jobs, |_, i| run_scenario(&matrix[i]));
        fresh = pending.into_iter().zip(timed).collect();
    }
    let mut results = Vec::with_capacity(matrix.len());
    let mut executed = 0;
    let mut replayed = 0;
    for (i, sc) in matrix.iter().enumerate() {
        if let Some(r) = done.get(sc.name) {
            results.push(r.clone());
            replayed += 1;
            continue;
        }
        let r = fresh.remove(&i).unwrap_or_else(|| run_scenario(sc));
        record(BenchRecord::Scenario { result: r.clone() })?;
        executed += 1;
        results.push(r);
    }

    let reference = if quick {
        None
    } else if journaled_reference.is_some() {
        journaled_reference
    } else {
        let rc = matrix
            .iter()
            .find(|sc| sc.name == REFERENCE_SCENARIO)
            .map(run_reference_comparison);
        if let Some(rc) = &rc {
            record(BenchRecord::Reference {
                comparison: rc.clone(),
            })?;
        }
        rc
    };

    Ok(JournaledRun {
        report: BenchReport {
            schema: SCHEMA.to_string(),
            quick,
            scenarios: results,
            reference,
            // Always timed fresh: the serve bench takes well under a
            // second, so checkpointing it buys nothing.
            serve: run_serve_bench().ok(),
        },
        executed,
        replayed,
    })
}

/// Reads a bench journal back for resume: the header must be a
/// [`JOURNAL_SCHEMA`] one for the same tier.
fn read_journal(
    path: &Path,
    quick: bool,
) -> Result<Journal<BenchJournalHeader, BenchRecord>, String> {
    let p = path.display();
    journal::read(
        path,
        |line| {
            let header: BenchJournalHeader = serde_json::from_str(line)
                .map_err(|_| format!("bench journal {p} has no header line"))?;
            if header.schema != JOURNAL_SCHEMA {
                return Err(format!(
                    "bench journal {p} has schema {:?}, expected {JOURNAL_SCHEMA:?}",
                    header.schema
                ));
            }
            if header.quick != quick {
                return Err(format!(
                    "bench journal {p} was written for the {} tier; rerun with the same tier or \
                     a fresh journal",
                    if header.quick { "--quick" } else { "full" }
                ));
            }
            Ok(header)
        },
        |e| match e {
            JournalError::MissingHeader => {
                format!("bench journal {p} has no header line — not a {JOURNAL_SCHEMA} file")
            }
            JournalError::Corrupt { line, message } => {
                format!("bench journal {p} line {line} is corrupt: {message}")
            }
            other => format!("bench {other}"),
        },
    )
}

/// Renders the report as an aligned text table (the non-`--json` view).
pub fn render_table(report: &BenchReport) -> String {
    let mut t = crate::harness::Table::new(&[
        "scenario",
        "n",
        "sched",
        "wall_ms",
        "events/s",
        "peak_ready",
        "ratio",
    ]);
    for r in &report.scenarios {
        t.row(vec![
            r.name.clone(),
            r.n.to_string(),
            r.scheduler.clone(),
            format!("{:.3}", r.wall_ms),
            format!("{:.0}", r.events_per_sec),
            r.peak_ready.to_string(),
            format!("{:.3}", r.makespan_ratio),
        ]);
    }
    let mut out = t.render();
    if let Some(rc) = &report.reference {
        out.push_str(&format!(
            "\npre-refactor hot path on {}: {:.0} ms vs {:.0} ms \
             event-driven ({:.1}x speedup; engine swap alone {:.1}x)\n",
            rc.scenario, rc.reference_ms, rc.event_driven_ms, rc.speedup, rc.engine_only_speedup
        ));
    }
    if let Some(sv) = &report.serve {
        out.push_str(&format!(
            "\nserve round trip ({} workers, {} clients x n~{} DAGs): \
             {:.0} jobs/sec, p50 {:.2} ms, p99 {:.2} ms ({} ok / {} errors)\n",
            sv.workers, sv.clients, sv.n, sv.jobs_per_sec, sv.p50_ms, sv.p99_ms, sv.ok, sv.errors
        ));
    }
    out
}

/// Renders the per-scenario engine-loop breakdown (the `--profile`
/// view): calendar-queue operation counts, rational fallbacks, decision
/// rounds, cohort batching, and scratch pre-sizing overruns.
pub fn render_profile(report: &BenchReport) -> String {
    let mut t = crate::harness::Table::new(&[
        "scenario",
        "q_push",
        "q_pop",
        "rat_fb",
        "decides",
        "batches",
        "max_batch",
        "hint_miss",
    ]);
    for r in &report.scenarios {
        let p = &r.profile;
        t.row(vec![
            r.name.clone(),
            p.queue_pushes.to_string(),
            p.queue_pops.to_string(),
            p.rational_fallbacks.to_string(),
            p.decide_calls.to_string(),
            p.batches.to_string(),
            p.max_batch.to_string(),
            p.hint_misses.to_string(),
        ]);
    }
    t.render()
}

/// Compares a fresh report against a committed baseline. It fails if any
/// shared scenario's `events` or [`EngineProfile`] counter differs from
/// the baseline's (they are deterministic, so any difference is a change
/// in the simulation), or if its event throughput dropped by more than
/// `factor` (CI uses 2.0: the loose factor absorbs machine-to-machine
/// noise).
pub fn check_regression(
    current: &BenchReport,
    baseline: &BenchReport,
    factor: f64,
) -> Result<(), String> {
    assert!(factor >= 1.0, "regression factor must be >= 1");
    if baseline.schema != SCHEMA {
        return Err(format!(
            "baseline schema {:?} does not match {SCHEMA:?}",
            baseline.schema
        ));
    }
    let counters =
        |r: &ScenarioResult| std::iter::once(("events", r.events)).chain(r.profile.counters());
    let mut compared = 0usize;
    for cur in &current.scenarios {
        let Some(base) = baseline.scenarios.iter().find(|b| b.name == cur.name) else {
            continue;
        };
        compared += 1;
        for ((counter, want), (_, got)) in counters(base).zip(counters(cur)) {
            if got != want {
                return Err(format!(
                    "{}: {counter} is {got}, baseline {want} \
                     (the counters are deterministic; the simulation changed)",
                    cur.name
                ));
            }
        }
        if cur.events_per_sec * factor < base.events_per_sec {
            return Err(format!(
                "{}: events/sec regressed more than {factor}x \
                 (baseline {:.0}, current {:.0})",
                cur.name, base.events_per_sec, cur.events_per_sec
            ));
        }
    }
    if compared == 0 {
        return Err("no scenario in common with the baseline".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The report of a run without a journal.
    fn run(quick: bool, jobs: usize) -> BenchReport {
        super::run_journaled(quick, None, false, jobs)
            .expect("no journal to fail")
            .report
    }

    /// [`super::run_journaled`] with a journal file.
    fn run_journaled(
        quick: bool,
        path: &Path,
        resume: bool,
        jobs: usize,
    ) -> Result<JournaledRun, String> {
        super::run_journaled(quick, Some(path), resume, jobs)
    }

    #[test]
    fn quick_tier_runs_and_reports() {
        let report = run(true, 1);
        assert_eq!(report.schema, SCHEMA);
        assert!(report.quick);
        assert!(report.reference.is_none());
        assert_eq!(report.scenarios.len(), scenarios(true).len());
        for r in &report.scenarios {
            assert!(r.events > 0, "{}: no events", r.name);
            assert!(r.events_per_sec > 0.0, "{}: zero throughput", r.name);
            assert!(r.peak_ready >= 1, "{}: empty ready set", r.name);
            assert!(
                r.makespan_ratio >= 1.0 - 1e-9,
                "{}: beat the lower bound ({})",
                r.name,
                r.makespan_ratio
            );
            assert!(r.length_ratio.is_some(), "{}: degenerate stats", r.name);
            assert!(r.repeats >= 1, "{}: no repeat count", r.name);
            let p = &r.profile;
            assert_eq!(p.queue_pushes, p.queue_pops, "{}: unbalanced queue", r.name);
            assert_eq!(p.hint_misses, 0, "{}: scratch grew mid-run", r.name);
            // Static, fault-free scenarios: one decision at time zero and
            // one per completion cohort.
            assert_eq!(
                p.decide_calls,
                p.batches + 1,
                "{}: not one decide per instant",
                r.name
            );
            if r.name.starts_with("rand-") {
                // The generators snap every task length onto the 2^-20
                // dyadic grid, so no event timestamp ever leaves the
                // radix fast path.
                assert_eq!(p.rational_fallbacks, 0, "{}: off-grid event", r.name);
            }
        }
        // The paper's Figure 3 uses decimal task lengths (2.8, 0.6, …)
        // that are off the dyadic grid by construction — its events
        // exercise the exact-`Rational` overflow path.
        let fig3 = report
            .scenarios
            .iter()
            .find(|r| r.name == "fig3-catbatch")
            .unwrap();
        assert!(
            fig3.profile.rational_fallbacks > 0,
            "fig3 must hit the rational overflow heap"
        );
        let serve = report.serve.expect("serve section present");
        assert_eq!(serve.ok, serve.jobs, "every loadgen job completes");
        assert_eq!(serve.errors, 0);
        assert!(serve.jobs_per_sec > 0.0);
        assert!(serve.p99_ms >= serve.p50_ms && serve.p50_ms > 0.0);
    }

    #[test]
    fn parallel_sweep_keeps_matrix_order_and_measurements_sane() {
        let report = run(true, 4);
        let serial_names: Vec<&str> = scenarios(true).iter().map(|s| s.name).collect();
        let swept: Vec<String> = report.scenarios.iter().map(|r| r.name.clone()).collect();
        assert_eq!(swept, serial_names, "parallel sweep must keep matrix order");
        for r in &report.scenarios {
            assert!(
                r.events > 0 && r.wall_ms > 0.0,
                "{}: bad measurement",
                r.name
            );
        }
    }

    #[test]
    fn report_roundtrips_through_json() {
        let report = run(true, 1);
        let text = serde_json::to_string_pretty(&report).unwrap();
        let back: BenchReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.schema, report.schema);
        assert_eq!(back.scenarios.len(), report.scenarios.len());
        assert_eq!(back.scenarios[0].events, report.scenarios[0].events);
        assert_eq!(back.scenarios[0].repeats, report.scenarios[0].repeats);
        assert_eq!(back.scenarios[0].profile, report.scenarios[0].profile);
    }

    #[test]
    fn regression_check_accepts_self_and_rejects_collapse() {
        let report = run(true, 1);
        check_regression(&report, &report, 2.0).expect("self-comparison passes");
        let mut slow = report.clone();
        for r in &mut slow.scenarios {
            r.events_per_sec /= 10.0;
        }
        assert!(check_regression(&slow, &report, 2.0).is_err());
        // A baseline with disjoint scenarios is an error, not a pass.
        let mut foreign = report.clone();
        for r in &mut foreign.scenarios {
            r.name = format!("other-{}", r.name);
        }
        assert!(check_regression(&report, &foreign, 2.0).is_err());
        // Unknown schemas are rejected.
        let mut alien = report.clone();
        alien.schema = "catbatch-bench-engine/v99".into();
        assert!(check_regression(&report, &alien, 2.0).is_err());
        // The deterministic counters must match exactly, whatever the
        // throughput.
        let mut changed = report.clone();
        changed.scenarios[0].profile.decide_calls += 1;
        let err = check_regression(&changed, &report, 2.0).unwrap_err();
        assert!(err.starts_with("fig3-catbatch: decide_calls is "), "{err}");
        let mut changed = report.clone();
        changed.scenarios[3].events -= 1;
        let err = check_regression(&changed, &report, 2.0).unwrap_err();
        assert!(err.starts_with("rand-layered-n1000: events is "), "{err}");
    }

    #[test]
    fn profile_table_lists_every_scenario() {
        let report = run(true, 1);
        let table = render_profile(&report);
        for r in &report.scenarios {
            assert!(table.contains(&r.name), "profile table misses {}", r.name);
        }
        assert!(table.contains("rat_fb") && table.contains("hint_miss"));
    }

    #[test]
    fn journal_resume_skips_completed_scenarios() {
        let path = std::env::temp_dir().join(format!(
            "catbatch-bench-journal-test-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);

        let first = run_journaled(true, &path, false, 1).expect("fresh journaled run");
        assert_eq!(first.executed, scenarios(true).len());
        assert_eq!(first.replayed, 0);

        // A complete journal resumes without timing anything, and the
        // replayed measurements are the journaled ones verbatim — on any
        // worker count.
        for jobs in [1, 4] {
            let second = run_journaled(true, &path, true, jobs).expect("no-op resume");
            assert_eq!(second.executed, 0, "jobs={jobs}");
            assert_eq!(second.replayed, scenarios(true).len(), "jobs={jobs}");
            assert_eq!(
                serde_json::to_string(&second.report.scenarios).unwrap(),
                serde_json::to_string(&first.report.scenarios).unwrap(),
            );
        }

        // Truncate to the header plus two records — a crash mid-run —
        // and resume on a worker pool: only the lost scenarios re-run,
        // and the journal order matches the matrix.
        let text = std::fs::read_to_string(&path).unwrap();
        let kept: String = text.split_inclusive('\n').take(3).collect();
        std::fs::write(&path, kept).unwrap();
        let third = run_journaled(true, &path, true, 4).expect("resume after crash");
        assert_eq!(third.replayed, 2);
        assert_eq!(third.executed, scenarios(true).len() - 2);
        let matrix_names: Vec<&str> = scenarios(true).iter().map(|s| s.name).collect();
        let reported: Vec<String> = third
            .report
            .scenarios
            .iter()
            .map(|r| r.name.clone())
            .collect();
        assert_eq!(reported, matrix_names);

        // The quick-tier journal must not be mixed into a full-tier run.
        let err = run_journaled(false, &path, true, 1).unwrap_err();
        assert!(err.contains("tier"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_resume_truncates_torn_tail_before_appending() {
        let path = std::env::temp_dir().join(format!(
            "catbatch-bench-journal-torn-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);

        run_journaled(true, &path, false, 1).expect("fresh journaled run");
        let clean = std::fs::read_to_string(&path).unwrap();

        // Tear the final record mid-line, as a crash during write would,
        // and resume: the torn bytes must be cut before the re-run's
        // record is appended — not merged into them.
        let trimmed = clean.trim_end_matches('\n');
        std::fs::write(&path, &trimmed[..trimmed.len() - 20]).unwrap();
        let resumed = run_journaled(true, &path, true, 1).expect("resume over torn tail");
        assert_eq!(resumed.executed, 1, "only the torn scenario re-runs");
        let repaired = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            repaired.lines().count(),
            clean.lines().count(),
            "the torn fragment is gone, replaced by one whole record"
        );
        for line in repaired.lines().skip(1) {
            serde_json::from_str::<BenchRecord>(line).expect("every journal line parses");
        }

        // Same discipline for a garbled-but-terminated final line.
        let mut lines: Vec<&str> = clean.lines().collect();
        lines.pop();
        let mut garbled: String = lines.join("\n");
        garbled.push_str("\n{\"Scenario\":{\"result\":GARBLED}}\n");
        std::fs::write(&path, &garbled).unwrap();
        let resumed = run_journaled(true, &path, true, 1).expect("resume over garbled line");
        assert_eq!(resumed.executed, 1);
        let repaired = std::fs::read_to_string(&path).unwrap();
        assert!(
            !repaired.contains("GARBLED"),
            "the garbled line is truncated away"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn matrix_covers_required_sizes() {
        let names: Vec<&str> = scenarios(false).iter().map(|s| s.name).collect();
        assert!(names.contains(&"rand-layered-n1000"));
        assert!(names.contains(&"rand-chains-n10000"));
        assert!(names.contains(&REFERENCE_SCENARIO));
        assert!(names.contains(&"rand-chains-n1000000"));
        assert!(names.contains(&"rand-chains-n10000000"));
        let big = scenarios(false)
            .into_iter()
            .find(|s| s.name == REFERENCE_SCENARIO)
            .unwrap();
        assert_eq!(big.instance().len(), 100_000);
        // The 10⁶ scenario rides in the quick (CI smoke) tier; the 10⁷
        // headline stays full-tier only.
        let quick_names: Vec<&str> = scenarios(true).iter().map(|s| s.name).collect();
        assert!(quick_names.contains(&"rand-chains-n1000000"));
        assert!(!quick_names.contains(&"rand-chains-n10000000"));
    }
}
