//! The simulation phase: schedule the workload's 10⁶-task instance the
//! way `catbatch schedule` does once the instance is in memory —
//! `StaticSource::new` plus a full-recording `EngineConfig::run` — and
//! check every result.

use crate::report::{median, Report};
use crate::trace::{Leaf, LeafTotals, Recorder, TracedScheduler, TracedSource};
use crate::workload::Workload;
use rigid_dag::{analysis, Instance, StaticSource};
use rigid_sim::{EngineConfig, EngineStats, RunError, RunResult};
use rigid_time::Time;
use std::time::Instant;

/// One timed run: only `StaticSource::new` and the engine are inside
/// the clock; cloning the instance and dropping the result are not.
fn timed_run<S: Workload>(
    inst: &Instance,
    sched: &mut S,
    stats_only: bool,
) -> (f64, Result<RunResult, RunError>) {
    let copy = inst.clone();
    let t = Instant::now();
    let mut source = StaticSource::new(copy);
    let config = if stats_only {
        EngineConfig::new().stats_only()
    } else {
        EngineConfig::new()
    };
    let run = config.try_run(&mut source, sched);
    let wall = t.elapsed().as_secs_f64();
    drop(source);
    (wall, run)
}

/// Full-recording runs of one instance, timed one per round. The first
/// run is validated in full; every later run must reproduce it exactly.
pub struct Sim<'a> {
    inst: &'a Instance,
    lb: Time,
    /// Wall time of each run, seconds.
    pub walls: Vec<f64>,
    /// Makespan, decisions and counters of the first run.
    first: Option<(String, u64, EngineStats)>,
    /// Makespan over the Graham lower bound.
    pub ratio: f64,
}

impl<'a> Sim<'a> {
    /// Runs on `inst`.
    pub fn new(inst: &'a Instance) -> Self {
        Sim {
            inst,
            lb: analysis::lower_bound(inst),
            walls: Vec::new(),
            first: None,
            ratio: 0.0,
        }
    }

    /// One timed, checked run.
    pub fn round<S: Workload>(&mut self, report: &mut Report) {
        let inst = self.inst;
        let mut sched = S::fresh();
        let (wall, run) = timed_run(inst, &mut sched, false);
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                report.check(false, || format!("simulation run failed: {e}"));
                return;
            }
        };
        self.walls.push(wall);
        let fingerprint = (run.makespan().to_string(), run.decisions, run.stats);
        match &self.first {
            None => {
                let violations = run.schedule.validate(inst);
                report.check(violations.is_empty(), || {
                    format!(
                        "schedule has {} violations, first {:?}",
                        violations.len(),
                        violations.first()
                    )
                });
                report.check(run.schedule.len() == inst.len(), || {
                    format!("{} of {} tasks placed", run.schedule.len(), inst.len())
                });
                sched.check(inst, &run, report);
                self.ratio = run.makespan().ratio(self.lb).to_f64();
                self.first = Some(fingerprint);
            }
            Some(f) => {
                report.check(*f == fingerprint, || {
                    "a repeated run diverged from the first".into()
                });
            }
        }
    }

    /// Engine counters of the (deterministic) run.
    pub fn stats(&self) -> EngineStats {
        self.first.as_ref().map(|f| f.2).unwrap_or_default()
    }

    /// Engine events per second of the median run.
    pub fn events_per_s(&self) -> f64 {
        if self.walls.is_empty() {
            0.0
        } else {
            self.stats().events as f64 / median(&self.walls)
        }
    }

    /// What the rate is a median of.
    pub fn basis(&self) -> String {
        format!(
            "{} events, median of {} full-recording runs {:.3?} s",
            self.stats().events,
            self.walls.len(),
            self.walls
        )
    }
}

/// Per-layer numbers of the traced simulation runs.
pub struct SimTrace {
    /// Untraced full-recording minus stats-only wall, seconds.
    pub record_s: f64,
    /// Traced wall over untraced wall, minus 1.
    pub overhead_frac: f64,
    /// Engine self time (its span minus every callback span), seconds.
    pub self_s: f64,
    /// `StaticSource::new` plus the source's callbacks, seconds.
    pub source_s: f64,
    /// Scheduler callback totals: release, decide, complete (seconds)
    /// and calls of release and decide.
    pub release_s: f64,
    pub decide_s: f64,
    pub complete_s: f64,
    pub releases: u64,
    pub decides: u64,
    /// Decide rounds that start a task, over all rounds.
    pub useful_decide_frac: f64,
    /// `(batches, task ids held)` in the batch history.
    pub history: (u64, u64),
}

/// Rounds of untraced full-recording, stats-only and traced runs,
/// interleaved so the three medians see the same machine state. Traced
/// runs go through the generic timing shims; their spans land in `rec`.
pub fn trace<S: Workload>(inst: &Instance, rec: &Recorder, report: &mut Report) -> SimTrace {
    const REPS: usize = 3;
    let mut full = Vec::new();
    let mut stats_only = Vec::new();
    let mut traced_walls = Vec::new();
    let mut acc = SimTrace {
        record_s: 0.0,
        overhead_frac: 0.0,
        self_s: 0.0,
        source_s: 0.0,
        release_s: 0.0,
        decide_s: 0.0,
        complete_s: 0.0,
        releases: 0,
        decides: 0,
        useful_decide_frac: 0.0,
        history: (0, 0),
    };
    for _ in 0..REPS {
        for (walls, stats_only_mode) in [(&mut full, false), (&mut stats_only, true)] {
            let (wall, run) = timed_run(inst, &mut S::fresh(), stats_only_mode);
            if report.check(run.is_ok(), || "untraced run failed".into()) {
                walls.push(wall);
            }
        }
        let leaves = LeafTotals::new(S::LAYER);
        let copy = inst.clone();
        let root = rec.open("sim.run", None);
        let source = rec.span("dag.source.new", Some(root), |_| StaticSource::new(copy));
        let engine = rec.open("sim.engine", Some(root));
        let mut src = TracedSource::new(source, &leaves);
        let mut sched = TracedScheduler::new(S::fresh(), &leaves);
        let run = EngineConfig::new().try_run(&mut src, &mut sched);
        rec.close(engine);
        rec.close(root);
        rec.fold(engine, &leaves);
        if !report.check(run.is_ok(), || "traced run failed".into()) {
            continue;
        }
        drop(run);
        drop(src);
        traced_walls.push(rec.duration_s(root));
        let new_s = rec.duration_s(root) - rec.duration_s(engine);
        acc.self_s += rec.self_s(engine);
        acc.source_s +=
            new_s + leaves.seconds(Leaf::SourceInitial) + leaves.seconds(Leaf::SourceComplete);
        acc.release_s += leaves.seconds(Leaf::Release);
        acc.decide_s += leaves.seconds(Leaf::Decide);
        acc.complete_s += leaves.seconds(Leaf::Complete);
        acc.releases = leaves.calls(Leaf::Release);
        acc.decides = leaves.calls(Leaf::Decide);
        acc.useful_decide_frac = leaves.useful_decide_frac();
        acc.history = sched.inner.history();
    }
    let n = traced_walls.len().max(1) as f64;
    for v in [
        &mut acc.self_s,
        &mut acc.source_s,
        &mut acc.release_s,
        &mut acc.decide_s,
        &mut acc.complete_s,
    ] {
        *v /= n;
    }
    if !full.is_empty() && !stats_only.is_empty() && !traced_walls.is_empty() {
        let untraced = median(&full);
        acc.record_s = untraced - median(&stats_only);
        acc.overhead_frac = median(&traced_walls) / untraced - 1.0;
    }
    acc
}
