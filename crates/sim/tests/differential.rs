//! Differential tests: the event-driven engine ([`rigid_sim::engine`])
//! and the frozen pre-refactor stepping engine ([`rigid_sim::reference`])
//! must produce **identical** `RunResult`s — schedules, release times,
//! decision counts, and fault logs — and report the same releases to
//! the scheduler in the same order, on random DAGs with random fault
//! schedules.
//!
//! The schedulers are defined locally (a FIFO greedy and a
//! priority-sensitive longest-first) so this test does not depend on the
//! `rigid-baselines` crate; the priority scheduler makes the comparison
//! sensitive to event *ordering*, not just event *sets*, because a
//! permuted completion order would reorder releases and flip its picks.

use proptest::prelude::*;
use rigid_dag::gen::{self, LengthDist, ProcDist, TaskSampler};
use rigid_dag::{Instance, InstanceSource, ReleasedTask, StaticSource, TaskId, TaskSpec};
use rigid_sim::fault::{Attempt, FaultModel};
use rigid_sim::{
    reference, EngineConfig, FailureResponse, OnlineScheduler, RunBudget, RunError, RunResult,
    SourceViolation,
};
use rigid_time::Time;

/// FIFO greedy: start anything that fits, in release order; retries
/// failed tasks at the back of the queue.
struct Fifo {
    queue: Vec<(TaskId, u32)>,
    widths: Vec<(TaskId, u32)>,
}

impl Fifo {
    fn new() -> Self {
        Fifo {
            queue: Vec::new(),
            widths: Vec::new(),
        }
    }
}

impl OnlineScheduler for Fifo {
    fn name(&self) -> &'static str {
        "diff-fifo"
    }
    fn on_release(&mut self, t: &ReleasedTask, _now: Time) {
        self.queue.push((t.id, t.spec.procs));
        self.widths.push((t.id, t.spec.procs));
    }
    fn on_complete(&mut self, _t: TaskId, _now: Time) {}
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
    fn on_failure(&mut self, t: TaskId, _now: Time) -> FailureResponse {
        let w = self
            .widths
            .iter()
            .find(|(id, _)| *id == t)
            .expect("failed task was released")
            .1;
        self.queue.push((t, w));
        FailureResponse::Retry
    }
}

/// Longest-first greedy: keeps the ready list sorted by descending
/// duration (ties by id). Its picks depend on the *order* releases
/// arrive within an instant, so it detects event-ordering divergence
/// between the engines.
struct LongestFirst {
    ready: Vec<(Time, TaskId, u32)>,
}

impl LongestFirst {
    fn new() -> Self {
        LongestFirst { ready: Vec::new() }
    }
    fn insert(&mut self, t: Time, id: TaskId, p: u32) {
        let pos = self
            .ready
            .iter()
            .position(|&(ot, oid, _)| (ot, std::cmp::Reverse(oid)) < (t, std::cmp::Reverse(id)))
            .unwrap_or(self.ready.len());
        self.ready.insert(pos, (t, id, p));
    }
}

impl OnlineScheduler for LongestFirst {
    fn name(&self) -> &'static str {
        "diff-longest"
    }
    fn on_release(&mut self, task: &ReleasedTask, _now: Time) {
        self.insert(task.spec.time, task.id, task.spec.procs);
    }
    fn on_complete(&mut self, _t: TaskId, _now: Time) {}
    fn decide_into(&mut self, _now: Time, mut free: u32, out: &mut Vec<TaskId>) {
        self.ready.retain(|&(_, id, p)| {
            if p <= free {
                free -= p;
                out.push(id);
                false
            } else {
                true
            }
        });
    }
    fn on_failure(&mut self, _t: TaskId, _now: Time) -> FailureResponse {
        // Longest-first abandons on failure; the differential check then
        // compares the typed errors instead of the results.
        FailureResponse::Abandon
    }
}

/// Wraps a scheduler and logs every release the engine reports to it,
/// as `(task, now)` in call order. Two engines that release different
/// tasks, at different instants or in a different order leave different
/// logs.
struct Recording {
    inner: Box<dyn OnlineScheduler>,
    releases: Vec<(TaskId, Time)>,
}

impl Recording {
    /// Fifo for `kind` 0, longest-first otherwise.
    fn new(kind: u8) -> Self {
        let inner: Box<dyn OnlineScheduler> = if kind == 0 {
            Box::new(Fifo::new())
        } else {
            Box::new(LongestFirst::new())
        };
        Recording {
            inner,
            releases: Vec::new(),
        }
    }
}

impl OnlineScheduler for Recording {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn on_release(&mut self, task: &ReleasedTask, now: Time) {
        self.releases.push((task.id, now));
        self.inner.on_release(task, now);
    }
    fn on_complete(&mut self, task: TaskId, now: Time) {
        self.inner.on_complete(task, now);
    }
    fn decide_into(&mut self, now: Time, free_procs: u32, out: &mut Vec<TaskId>) {
        self.inner.decide_into(now, free_procs, out);
    }
    fn on_failure(&mut self, task: TaskId, now: Time) -> FailureResponse {
        self.inner.on_failure(task, now)
    }
}

/// A deterministic pseudo-random fault schedule: a splitmix64 hash of
/// `(seed, task, attempt)` decides each attempt's fate. First attempts
/// may fail (at half nominal) or straggle (×2); retries always complete
/// so runs terminate.
struct HashFaults {
    seed: u64,
    fail_mod: u64,
    inflate_mod: u64,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl FaultModel for HashFaults {
    fn on_start(
        &mut self,
        task: TaskId,
        attempt: u32,
        _now: Time,
        nominal: Time,
        _procs: u32,
    ) -> Attempt {
        if attempt > 0 {
            return Attempt::Complete;
        }
        let h = splitmix64(self.seed ^ ((task.0 as u64) << 32) ^ attempt as u64);
        if self.fail_mod > 0 && h.is_multiple_of(self.fail_mod) {
            Attempt::Fail {
                after: nominal.div_int(2),
            }
        } else if self.inflate_mod > 0 && (h >> 8).is_multiple_of(self.inflate_mod) {
            Attempt::Inflated {
                actual: nominal.mul_int(2),
            }
        } else {
            Attempt::Complete
        }
    }
}

fn assert_identical(new: &RunResult, old: &RunResult) {
    assert_eq!(new.schedule, old.schedule, "schedules diverge");
    assert_eq!(new.procs, old.procs);
    assert_eq!(
        new.release_times, old.release_times,
        "release times diverge"
    );
    assert_eq!(new.decisions, old.decisions, "decision counts diverge");
    assert_eq!(new.faults, old.faults, "fault logs diverge");
    assert_eq!(new.makespan(), old.makespan(), "makespans diverge");
}

/// What a stats-only run shares with the reference: everything but the
/// schedule and the release times, which it leaves empty.
fn assert_stats_identical(lean: &RunResult, old: &RunResult) {
    assert!(lean.schedule.is_empty() && lean.release_times.is_empty());
    assert_eq!(lean.procs, old.procs);
    assert_eq!(
        lean.decisions, old.decisions,
        "stats-only decisions diverge"
    );
    assert_eq!(lean.faults, old.faults, "stats-only fault log diverges");
    assert_eq!(
        lean.makespan(),
        old.makespan(),
        "stats-only makespan diverges"
    );
}

/// Runs both engines on fresh copies of the same instance + scheduler +
/// fault schedule and asserts bit-identical outcomes (or identical
/// typed errors) and identical release logs. A stats-only run of the
/// main engine must agree on everything it reports.
fn check_instance(inst: &Instance, fault_seed: u64, fail_mod: u64, inflate_mod: u64) {
    for sched_kind in 0..2 {
        let mut new_sched = Recording::new(sched_kind);
        let mut old_sched = Recording::new(sched_kind);
        let mut budget_sched = Recording::new(sched_kind);
        let mut lean_sched = Recording::new(sched_kind);
        let mut new_faults = HashFaults {
            seed: fault_seed,
            fail_mod,
            inflate_mod,
        };
        let mut old_faults = HashFaults {
            seed: fault_seed,
            fail_mod,
            inflate_mod,
        };
        let mut budget_faults = HashFaults {
            seed: fault_seed,
            fail_mod,
            inflate_mod,
        };
        let mut lean_faults = HashFaults {
            seed: fault_seed,
            fail_mod,
            inflate_mod,
        };
        let new = EngineConfig::new()
            .faults(&mut new_faults)
            .try_run(&mut StaticSource::new(inst.clone()), &mut new_sched);
        let old = reference::try_run_faulty(
            &mut StaticSource::new(inst.clone()),
            &mut old_sched,
            &mut old_faults,
        );
        // Below an ample budget a budgeted run must agree with the frozen
        // reference engine bit for bit as well.
        let budgeted = EngineConfig::new()
            .faults(&mut budget_faults)
            .budget(RunBudget::max_events(u64::MAX))
            .try_run(&mut StaticSource::new(inst.clone()), &mut budget_sched);
        let lean = EngineConfig::new()
            .faults(&mut lean_faults)
            .stats_only()
            .try_run(&mut StaticSource::new(inst.clone()), &mut lean_sched);
        assert_eq!(
            new_sched.releases, old_sched.releases,
            "release logs diverge"
        );
        assert_eq!(
            budget_sched.releases, old_sched.releases,
            "budgeted release log diverges"
        );
        assert_eq!(
            lean_sched.releases, old_sched.releases,
            "stats-only release log diverges"
        );
        match (new, old, budgeted, lean) {
            (Ok(new), Ok(old), Ok(budgeted), Ok(lean)) => {
                assert_identical(&new, &old);
                assert_identical(&budgeted, &old);
                assert_stats_identical(&lean, &old);
            }
            (Err(new), Err(old), Err(budgeted), Err(lean)) => {
                assert_eq!(new, old, "engines disagree on the typed error");
                assert_eq!(
                    budgeted, old,
                    "budgeted engine disagrees on the typed error"
                );
                assert_eq!(lean, old, "stats-only engine disagrees on the typed error");
            }
            (new, old, budgeted, lean) => panic!(
                "engines disagree on success: new = {:?}, old = {:?}, budgeted = {:?}, \
                 stats-only = {:?}",
                new.map(|r| r.makespan()),
                old.map(|r| r.makespan()),
                budgeted.map(|r| r.makespan()),
                lean.map(|r| r.makespan()),
            ),
        }
    }
}

fn sampler(kind: u8) -> TaskSampler {
    match kind % 4 {
        0 => TaskSampler::default_mix(),
        1 => TaskSampler {
            length: LengthDist::Uniform { min: 0.5, max: 4.0 },
            procs: ProcDist::PowersOfTwo,
        },
        2 => TaskSampler {
            length: LengthDist::LogUniform {
                min: 0.1,
                max: 10.0,
            },
            procs: ProcDist::FractionCap { q: 0.5 },
        },
        // Mixed representations: the snapped distributions above only
        // ever produce dyadic times, so this branch deliberately mixes
        // non-dyadic rationals (1/3, 5/7) with on-grid values to drive
        // the engines through `Time`'s rational fallback and the
        // dyadic/rational comparison boundary.
        _ => TaskSampler {
            length: LengthDist::Choice(vec![
                Time::from_ratio(1, 3),
                Time::from_ratio(5, 7),
                Time::from_ratio(3, 4),
                Time::from_int(2),
            ]),
            procs: ProcDist::PowersOfTwo,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fault-free equivalence across every generator family.
    #[test]
    fn engines_agree_fault_free(
        seed in 0u64..u64::MAX,
        n in 5usize..60,
        procs in 2u32..24,
        kind in 0u8..=255,
    ) {
        let s = sampler(kind);
        for (_, inst) in gen::family(seed, n, &s, procs) {
            check_instance(&inst, 0, 0, 0);
        }
    }

    /// Equivalence under pseudo-random fail-stop + straggler schedules.
    #[test]
    fn engines_agree_under_faults(
        seed in 0u64..u64::MAX,
        fault_seed in 0u64..u64::MAX,
        n in 5usize..40,
        procs in 2u32..16,
        fail_mod in 2u64..6,
        inflate_mod in 2u64..6,
        kind in 0u8..=255,
    ) {
        let s = sampler(kind);
        let inst = gen::layered(seed, n.div_ceil(6).max(1), 6, &s, procs);
        check_instance(&inst, fault_seed, fail_mod, inflate_mod);
        let inst = gen::erdos_dag(seed, n, 0.15, &s, procs);
        check_instance(&inst, fault_seed, fail_mod, inflate_mod);
    }
}

/// A fixed large-ish case so equivalence is also witnessed outside the
/// proptest shrink universe (and on every `cargo test` without flags).
#[test]
fn engines_agree_on_large_fixed_instance() {
    let s = TaskSampler::default_mix();
    let inst = gen::chains(7, 16, 60, &s, 48);
    check_instance(&inst, 0xfeed, 5, 4);
    let inst = gen::layered(11, 30, 25, &s, 64);
    check_instance(&inst, 0xbeef, 7, 3);
}

/// The paper's Figure 3 instance, with the real CatBatch semantics
/// stand-in (longest-first is enough to exercise ordering); the engines
/// must agree on the exact makespan and every placement.
#[test]
fn engines_agree_on_paper_example() {
    let inst = rigid_dag::paper::figure3();
    check_instance(&inst, 0, 0, 0);
}

/// A source that lists a predecessor twice: both engines reject it with
/// the same typed error.
#[test]
fn engines_agree_on_a_repeated_predecessor() {
    struct Repeats;
    impl InstanceSource for Repeats {
        fn procs(&self) -> u32 {
            1
        }
        fn initial_into(&mut self, out: &mut Vec<ReleasedTask>) {
            let spec = TaskSpec::new(Time::ONE, 1);
            out.push(ReleasedTask {
                id: TaskId(0),
                spec,
                preds: vec![],
            });
        }
        fn on_complete_into(&mut self, _task: TaskId, _ci: u64, out: &mut Vec<ReleasedTask>) {
            let spec = TaskSpec::new(Time::ONE, 1);
            out.push(ReleasedTask {
                id: TaskId(1),
                spec,
                preds: vec![TaskId(0), TaskId(0)],
            });
        }
        fn expects_more(&self) -> bool {
            false
        }
    }
    let new = EngineConfig::new()
        .try_run(&mut Repeats, &mut Fifo::new())
        .unwrap_err();
    let old = reference::try_run(&mut Repeats, &mut Fifo::new()).unwrap_err();
    assert_eq!(new, old);
    assert_eq!(
        new,
        RunError::SourceViolation(SourceViolation::DuplicatePredecessor {
            task: TaskId(1),
            pred: TaskId(0),
        })
    );
}

/// A budget tight enough to trip cuts the run off with a typed
/// `BudgetExceeded` where the unbudgeted reference engine completes —
/// the budget changes the outcome, never the semantics below it.
#[test]
fn tight_budget_trips_where_reference_completes() {
    let inst = rigid_dag::paper::figure3();
    let reference = reference::try_run_faulty(
        &mut StaticSource::new(inst.clone()),
        &mut Fifo::new(),
        &mut HashFaults {
            seed: 0,
            fail_mod: 0,
            inflate_mod: 0,
        },
    )
    .expect("reference run completes");
    let total_events = inst.graph().len() as u64 * 2; // releases + completions
    let err = EngineConfig::new()
        .faults(&mut HashFaults {
            seed: 0,
            fail_mod: 0,
            inflate_mod: 0,
        })
        .budget(RunBudget::max_events(total_events / 2))
        .try_run(&mut StaticSource::new(inst.clone()), &mut Fifo::new())
        .expect_err("halved event budget must trip");
    match err {
        RunError::BudgetExceeded { events, .. } => {
            assert!(events <= total_events);
            assert!(events > total_events / 2);
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    // And at exactly the full event count the budgeted run matches the
    // reference bit for bit.
    let at_limit = EngineConfig::new()
        .faults(&mut HashFaults {
            seed: 0,
            fail_mod: 0,
            inflate_mod: 0,
        })
        .budget(RunBudget::max_events(total_events))
        .try_run(&mut StaticSource::new(inst), &mut Fifo::new())
        .expect("budget equal to the event count must not trip");
    assert_identical(&at_limit, &reference);
}
