//! The CatBatch online scheduler (the paper's Algorithms 1–3).
//!
//! CatBatch groups revealed tasks into batches by category and processes
//! batches in strictly increasing category value. Inside a batch — whose
//! tasks are guaranteed independent and fully discovered (Corollary 2) —
//! it runs the greedy `ScheduleIndep` routine: at the start of the batch
//! and at every completion, start any remaining batch task that fits in
//! the free processors. A batch must **finish entirely** before the next
//! batch starts; tasks discovered meanwhile wait in their own category's
//! batch. This deliberate idling is what defeats the `Ω(P)` trap of ASAP
//! heuristics (paper Figure 1) and yields the `log₂(n) + 3` competitive
//! ratio (Theorem 1).

use crate::attributes::CriticalityTracker;
use crate::category::{compute_category, Category};
use rigid_dag::{ReleasedTask, TaskId};
use rigid_sim::{FailureResponse, OnlineScheduler};
use rigid_time::Time;
use std::collections::BTreeMap;

/// A completed batch, for reporting and bound-checking (Figure 6 shows
/// these intervals; Lemma 6 bounds each batch's span).
#[derive(Clone, Debug)]
pub struct BatchRecord {
    /// The batch's category.
    pub category: Category,
    /// Tasks processed in this batch.
    pub tasks: Vec<TaskId>,
    /// Instant the batch became current (= previous batch's finish).
    pub started_at: Time,
    /// Instant the last task of the batch completed.
    pub finished_at: Time,
    /// Total area `Σ t·p` of the batch's tasks.
    pub area: Time,
}

impl BatchRecord {
    /// The batch's execution span `T(B_ζ)`.
    pub fn span(&self) -> Time {
        self.finished_at - self.started_at
    }
}

struct CurrentBatch {
    category: Category,
    /// Number of batch tasks currently running.
    running: usize,
    /// All tasks of the batch, in release order (for the record).
    all: Vec<TaskId>,
    started_at: Time,
    area: Time,
}

/// A batch still waiting for its turn: its tasks in release order and
/// their total area `Σ t·p`, accumulated at release.
#[derive(Default)]
struct PendingBatch {
    tasks: Vec<TaskId>,
    area: Time,
}

/// The CatBatch online scheduler.
///
/// Construct per run with [`CatBatch::new`]; inspect
/// [`batch_history`](CatBatch::batch_history) afterwards for the batch
/// decomposition the run produced.
pub struct CatBatch {
    tracker: CriticalityTracker,
    /// Pending batches by category (tasks not yet in the current batch).
    batches: BTreeMap<Category, PendingBatch>,
    current: Option<CurrentBatch>,
    /// Current-batch tasks not yet started, in release order, with their
    /// processor needs. Reused across batches.
    pool: Vec<(TaskId, u32)>,
    history: Vec<BatchRecord>,
    /// Processor widths of all revealed tasks, indexed by
    /// [`TaskId::index`] (0 = not revealed).
    widths: Vec<u32>,
    /// Failed attempts per task so far.
    failures: BTreeMap<TaskId, u32>,
    /// How many failures per task CatBatch tolerates before abandoning.
    retry_budget: u32,
}

impl CatBatch {
    /// Creates a fresh CatBatch scheduler that abandons on the first
    /// task failure (faithful to the paper's fault-free model).
    pub fn new() -> Self {
        CatBatch {
            tracker: CriticalityTracker::new(),
            batches: BTreeMap::new(),
            current: None,
            pool: Vec::new(),
            history: Vec::new(),
            widths: Vec::new(),
            failures: BTreeMap::new(),
            retry_budget: 0,
        }
    }

    /// Tolerate up to `budget` failed attempts per task: a failed task
    /// re-enters its batch's pool and is re-executed in full. The batch
    /// barrier is preserved — the batch simply does not close until the
    /// retry completes, so Lemma 5's release invariant still holds
    /// (releases during the batch keep strictly larger categories).
    pub fn with_retry_budget(mut self, budget: u32) -> Self {
        self.retry_budget = budget;
        self
    }

    /// Total failed attempts observed across all tasks.
    pub fn failures_observed(&self) -> u32 {
        self.failures.values().sum()
    }

    /// The completed batches in processing order.
    pub fn batch_history(&self) -> &[BatchRecord] {
        &self.history
    }

    /// The category a given released task was assigned (via its tracked
    /// criticality); `None` if unknown.
    pub fn category_of_task(&self, task: TaskId) -> Option<Category> {
        // Reconstruct from history / current; primarily a test helper.
        for rec in &self.history {
            if rec.tasks.contains(&task) {
                return Some(rec.category);
            }
        }
        if let Some(cur) = &self.current {
            if cur.all.contains(&task) {
                return Some(cur.category);
            }
        }
        for (cat, pending) in &self.batches {
            if pending.tasks.contains(&task) {
                return Some(*cat);
            }
        }
        None
    }
}

impl Default for CatBatch {
    fn default() -> Self {
        CatBatch::new()
    }
}

impl OnlineScheduler for CatBatch {
    fn name(&self) -> &'static str {
        "catbatch"
    }

    fn on_release(&mut self, task: &ReleasedTask, _now: Time) {
        let crit = self.tracker.on_release(task);
        let cat = compute_category(crit.start, crit.finish);
        if let Some(cur) = &self.current {
            // Lemma 5 / Corollary 2: tasks discovered while batch ζ runs
            // have category strictly greater than ζ.
            assert!(
                cat > cur.category,
                "release of {} with category {cat} ≤ current batch {}",
                task.id,
                cur.category
            );
        }
        let pending = self.batches.entry(cat).or_default();
        pending.tasks.push(task.id);
        pending.area += task.spec.area();
        let i = task.id.index();
        if i >= self.widths.len() {
            self.widths.resize(i + 1, 0);
        }
        self.widths[i] = task.spec.procs;
    }

    fn on_complete(&mut self, task: TaskId, now: Time) {
        let cur = self.current.as_mut().expect("completion outside any batch");
        debug_assert!(cur.all.contains(&task), "completed {task} not in batch");
        assert!(cur.running > 0, "completion underflow");
        cur.running -= 1;
        if cur.running == 0 && self.pool.is_empty() {
            // Batch finished (Algorithm 2, line 17: wait until all tasks
            // in B complete).
            let cur = self.current.take().expect("checked above");
            self.history.push(BatchRecord {
                category: cur.category,
                tasks: cur.all,
                started_at: cur.started_at,
                finished_at: now,
                area: cur.area,
            });
        }
    }

    fn decide_into(&mut self, now: Time, mut free: u32, out: &mut Vec<TaskId>) {
        // With an active batch, a saturated machine or a drained pool can
        // never yield a start (every task needs ≥ 1 processor) — skip the
        // pool scan. Batch *selection* must not be skipped: it has to
        // happen at the instant the previous batch closed so the record's
        // `started_at` is right.
        if self.current.is_some() {
            if free == 0 || self.pool.is_empty() {
                return;
            }
        } else {
            // Select a batch (Algorithm 3, line 10: find B_ζmin containing
            // the tasks of smallest category).
            let Some((category, pending)) = self.batches.pop_first() else {
                return;
            };
            let widths = &self.widths;
            self.pool
                .extend(pending.tasks.iter().map(|&id| (id, widths[id.index()])));
            self.current = Some(CurrentBatch {
                category,
                all: pending.tasks,
                running: 0,
                started_at: now,
                area: pending.area,
            });
        }

        // Greedy ScheduleIndep step (Algorithm 2, lines 9–15): start every
        // remaining batch task that fits, scanning in release order.
        let before = out.len();
        self.pool.retain(|&(id, p)| {
            if p <= free {
                free -= p;
                out.push(id);
                false
            } else {
                true
            }
        });
        let cur = self.current.as_mut().expect("just ensured");
        cur.running += out.len() - before;
    }

    fn on_failure(&mut self, task: TaskId, _now: Time) -> FailureResponse {
        let count = self.failures.entry(task).or_insert(0);
        *count += 1;
        if *count > self.retry_budget {
            return FailureResponse::Abandon;
        }
        // Re-pool inside the current batch: the failed task belongs to
        // the batch that started it, which cannot have closed while the
        // attempt ran. It will be restarted by a later decision, and the
        // batch barrier holds until it finally completes.
        let cur = self.current.as_mut().expect("failure outside any batch");
        debug_assert!(cur.all.contains(&task), "failed {task} not in batch");
        assert!(cur.running > 0, "failure underflow");
        cur.running -= 1;
        let width = self
            .widths
            .get(task.index())
            .copied()
            .filter(|&w| w > 0)
            .expect("failed task was released");
        self.pool.push((task, width));
        FailureResponse::Retry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rigid_dag::paper::figure3;
    use rigid_dag::StaticSource;
    use rigid_sim::engine;

    /// Figure 6: CatBatch on the Figure 3 example with P = 4 finishes at
    /// 15.2 with batches in category order 1, 2, 3.5, 4, 5, 6.5.
    #[test]
    fn figure6_schedule() {
        let inst = figure3();
        let mut src = StaticSource::new(inst.clone());
        let mut cb = CatBatch::new();
        let result = engine::EngineConfig::new().run(&mut src, &mut cb);
        result.schedule.assert_valid(&inst);
        assert_eq!(result.makespan(), Time::from_millis(15, 200));

        let cats: Vec<Time> = cb
            .batch_history()
            .iter()
            .map(|b| b.category.value())
            .collect();
        assert_eq!(
            cats,
            vec![
                Time::from_int(1),
                Time::from_int(2),
                Time::from_ratio(7, 2),
                Time::from_int(4),
                Time::from_int(5),
                Time::from_ratio(13, 2),
            ]
        );

        // Batch membership: {B}, {C,D}, {F,G}, {A,E,I}, {H,K}, {J}.
        let g = inst.graph();
        let label_sets: Vec<Vec<&str>> = cb
            .batch_history()
            .iter()
            .map(|b| {
                let mut v: Vec<&str> = b.tasks.iter().map(|&id| g.spec(id).label_str()).collect();
                v.sort();
                v
            })
            .collect();
        assert_eq!(
            label_sets,
            vec![
                vec!["B"],
                vec!["C", "D"],
                vec!["F", "G"],
                vec!["A", "E", "I"],
                vec!["H", "K"],
                vec!["J"],
            ]
        );

        // Batch boundaries: ζ=1 ends at 2; ζ=2 ends at 5; ζ=3.5 at 5.8;
        // ζ=4 at 11.8; ζ=5 at 14.4; ζ=6.5 at 15.2.
        let ends: Vec<Time> = cb.batch_history().iter().map(|b| b.finished_at).collect();
        assert_eq!(
            ends,
            vec![
                Time::from_int(2),
                Time::from_int(5),
                Time::from_millis(5, 800),
                Time::from_millis(11, 800),
                Time::from_millis(14, 400),
                Time::from_millis(15, 200),
            ]
        );
    }

    /// Batches never overlap in time and appear in strictly increasing
    /// category order.
    #[test]
    fn batches_are_sequential() {
        let inst = figure3();
        let mut src = StaticSource::new(inst);
        let mut cb = CatBatch::new();
        let _ = engine::EngineConfig::new().run(&mut src, &mut cb);
        let h = cb.batch_history();
        for w in h.windows(2) {
            assert!(w[0].finished_at <= w[1].started_at);
            assert!(w[0].category < w[1].category);
        }
    }

    /// Lemma 6 per batch: span ≤ 2·area/P + L_ζ.
    #[test]
    fn lemma6_per_batch() {
        use crate::lmatrix::category_length;
        let inst = figure3();
        let c = rigid_dag::analysis::critical_path(inst.graph());
        let p = inst.procs();
        let mut src = StaticSource::new(inst);
        let mut cb = CatBatch::new();
        let _ = engine::EngineConfig::new().run(&mut src, &mut cb);
        for b in cb.batch_history() {
            let bound = b.area.mul_int(2).div_int(p as i64) + category_length(b.category, c);
            assert!(
                b.span() <= bound,
                "batch {} span {} exceeds Lemma 6 bound {bound}",
                b.category,
                b.span()
            );
        }
    }

    /// A single task is trivially scheduled.
    #[test]
    fn single_task() {
        let inst = rigid_dag::DagBuilder::new()
            .task("only", Time::from_millis(2, 500), 3)
            .build(4);
        let mut src = StaticSource::new(inst.clone());
        let mut cb = CatBatch::new();
        let result = engine::EngineConfig::new().run(&mut src, &mut cb);
        result.schedule.assert_valid(&inst);
        assert_eq!(result.makespan(), Time::from_millis(2, 500));
        assert_eq!(cb.batch_history().len(), 1);
    }

    /// Tasks needing all P processors serialize correctly.
    #[test]
    fn full_width_tasks() {
        let inst = rigid_dag::DagBuilder::new()
            .task("x", Time::ONE, 4)
            .task("y", Time::ONE, 4)
            .build(4);
        let mut src = StaticSource::new(inst.clone());
        let mut cb = CatBatch::new();
        let result = engine::EngineConfig::new().run(&mut src, &mut cb);
        result.schedule.assert_valid(&inst);
        // Same category (both (0,1)); batch runs them one after another.
        assert_eq!(result.makespan(), Time::from_int(2));
        assert_eq!(cb.batch_history().len(), 1);
    }

    /// A failing task retries inside its batch; batch order, membership,
    /// and the barrier are all preserved.
    #[test]
    fn retry_keeps_batch_structure() {
        use rigid_sim::fault::{Attempt, FaultModel};
        use rigid_sim::EngineConfig;

        /// Fails the first attempt of every task at half its duration.
        struct FirstAttemptFails;
        impl FaultModel for FirstAttemptFails {
            fn on_start(
                &mut self,
                _task: TaskId,
                attempt: u32,
                _now: Time,
                nominal: Time,
                _procs: u32,
            ) -> Attempt {
                if attempt == 0 {
                    Attempt::Fail {
                        after: nominal.div_int(2),
                    }
                } else {
                    Attempt::Complete
                }
            }
        }

        let inst = figure3();
        let mut src = StaticSource::new(inst.clone());
        let mut cb = CatBatch::new().with_retry_budget(1);
        let result = EngineConfig::new()
            .faults(&mut FirstAttemptFails)
            .try_run(&mut src, &mut cb)
            .expect("retries within budget must succeed");

        // Every task still ran with its spec (t, p) on the successful
        // attempt; precedence and capacity hold.
        result.schedule.assert_valid(&inst);
        assert_eq!(result.faults.failures, inst.graph().len() as u64);
        assert_eq!(cb.failures_observed(), inst.graph().len() as u32);

        // Batch decomposition is unchanged in category order and
        // membership; only the spans stretch.
        let cats: Vec<Time> = cb
            .batch_history()
            .iter()
            .map(|b| b.category.value())
            .collect();
        assert_eq!(
            cats,
            vec![
                Time::from_int(1),
                Time::from_int(2),
                Time::from_ratio(7, 2),
                Time::from_int(4),
                Time::from_int(5),
                Time::from_ratio(13, 2),
            ]
        );
        for w in cb.batch_history().windows(2) {
            assert!(w[0].finished_at <= w[1].started_at, "batch barrier broken");
        }
        // Failures waste real time: the run is strictly longer than the
        // fault-free 15.2.
        assert!(result.makespan() > Time::from_millis(15, 200));
    }

    /// Exhausting the retry budget aborts the run with a typed
    /// abandonment error.
    #[test]
    fn budget_exhaustion_abandons() {
        use rigid_sim::fault::{Attempt, FaultModel};
        use rigid_sim::{EngineConfig, RunError};

        struct AlwaysFails;
        impl FaultModel for AlwaysFails {
            fn on_start(
                &mut self,
                _task: TaskId,
                _attempt: u32,
                _now: Time,
                nominal: Time,
                _procs: u32,
            ) -> Attempt {
                Attempt::Fail {
                    after: nominal.div_int(2),
                }
            }
        }

        let inst = rigid_dag::DagBuilder::new()
            .task("doomed", Time::from_int(2), 1)
            .build(2);
        let mut src = StaticSource::new(inst);
        let mut cb = CatBatch::new().with_retry_budget(2);
        let err = EngineConfig::new()
            .faults(&mut AlwaysFails)
            .try_run(&mut src, &mut cb)
            .unwrap_err();
        match err {
            RunError::TaskAbandoned { attempts, .. } => assert_eq!(attempts, 3),
            other => panic!("expected TaskAbandoned, got {other:?}"),
        }
    }

    /// With the default budget (0) CatBatch abandons on the first
    /// failure, matching the paper's fault-free model.
    #[test]
    fn default_budget_abandons_immediately() {
        use rigid_sim::fault::{Attempt, FaultModel};
        use rigid_sim::{EngineConfig, RunError};

        struct FailOnce;
        impl FaultModel for FailOnce {
            fn on_start(
                &mut self,
                _task: TaskId,
                attempt: u32,
                _now: Time,
                nominal: Time,
                _procs: u32,
            ) -> Attempt {
                if attempt == 0 {
                    Attempt::Fail {
                        after: nominal.div_int(2),
                    }
                } else {
                    Attempt::Complete
                }
            }
        }

        let inst = rigid_dag::DagBuilder::new()
            .task("t", Time::ONE, 1)
            .build(1);
        let mut src = StaticSource::new(inst);
        let mut cb = CatBatch::new();
        let err = EngineConfig::new()
            .faults(&mut FailOnce)
            .try_run(&mut src, &mut cb)
            .unwrap_err();
        assert!(matches!(err, RunError::TaskAbandoned { attempts: 1, .. }));
    }

    /// category_of_task is consistent with direct computation.
    #[test]
    fn category_lookup() {
        let inst = figure3();
        let g = inst.graph();
        let mut src = StaticSource::new(inst.clone());
        let mut cb = CatBatch::new();
        let _ = engine::EngineConfig::new().run(&mut src, &mut cb);
        let b = g.find_by_label("B").unwrap();
        assert_eq!(cb.category_of_task(b).unwrap().value(), Time::from_int(1));
        let j = g.find_by_label("J").unwrap();
        assert_eq!(
            cb.category_of_task(j).unwrap().value(),
            Time::from_ratio(13, 2)
        );
    }
}
