//! Practical category-based heuristics (the paper's Section 7 future
//! work, realized).
//!
//! The paper concedes that plain CatBatch — which refuses to start a new
//! category until the previous one fully drains — "is probably a slow
//! approach for real-case scenarios" and announces work on heuristics
//! "again based on task categories" that keep theoretical guarantees
//! while being practically efficient. This module provides two such
//! schedulers plus a robustness wrapper for noisy execution-time
//! estimates:
//!
//! * [`CatPrio`] — ASAP list scheduling with *category priority*: never
//!   idles, always prefers the smallest category. Work-conserving, so it
//!   inherits list scheduling's `P`-competitiveness in the worst case,
//!   but the category order repairs most of the benign-workload damage.
//! * [`CatBatchBackfill`] — CatBatch with **guarantee-preserving
//!   backfilling**: once every member of the current batch is running
//!   (the pool is empty — by Corollary 2 no new members can appear
//!   mid-batch), a ready task of a *later* category may start on idle
//!   processors iff it provably finishes no later than the batch's last
//!   running completion (`now + t ≤ max running member finish`).
//!   Admitted intruders can neither block a member (all members are
//!   already running) nor outlive the barrier, so the current batch's
//!   member schedule is *identical* to plain CatBatch's; and since
//!   Lemma 6 bounds every batch subset by `2·area/P + L_ζ`, the Lemma 7
//!   bound and the Theorem 1/2 competitive ratios carry over verbatim.
//!   (Backfilling is not *instance-wise* dominant: removing a
//!   pulled-forward task from its later batch can change that batch's
//!   greedy packing — a Graham anomaly — but it wins or ties on the
//!   large majority of instances and is never outside the guarantee.)
//! * [`EstimatedCatBatch`] — a [`CatBatch`] fed *perturbed* execution
//!   times (deterministic multiplicative noise): it computes
//!   criticalities and categories from estimates while the platform runs
//!   true times, quantifying the sensitivity the paper's first future-
//!   work question asks about.

use crate::attributes::CriticalityTracker;
use crate::category::{compute_category, Category};
use crate::CatBatch;
use rigid_dag::{ReleasedTask, TaskId};
use rigid_sim::OnlineScheduler;
use rigid_time::{Rational, Time};
use std::collections::{BTreeMap, HashMap};

/// ASAP list scheduling with category priority (work-conserving).
pub struct CatPrio {
    tracker: CriticalityTracker,
    /// Ready tasks ordered by (category, release order).
    ready: BTreeMap<(Category, u64), (TaskId, u32)>,
    next_seq: u64,
}

impl CatPrio {
    /// Creates a fresh scheduler.
    pub fn new() -> Self {
        CatPrio {
            tracker: CriticalityTracker::new(),
            ready: BTreeMap::new(),
            next_seq: 0,
        }
    }
}

impl Default for CatPrio {
    fn default() -> Self {
        CatPrio::new()
    }
}

impl OnlineScheduler for CatPrio {
    fn name(&self) -> &'static str {
        "catprio"
    }

    fn on_release(&mut self, task: &ReleasedTask, _now: Time) {
        let crit = self.tracker.on_release(task);
        let cat = compute_category(crit.start, crit.finish);
        self.ready
            .insert((cat, self.next_seq), (task.id, task.spec.procs));
        self.next_seq += 1;
    }

    fn on_complete(&mut self, _task: TaskId, _now: Time) {}

    fn decide_into(&mut self, _now: Time, mut free: u32, out: &mut Vec<TaskId>) {
        self.ready.retain(|_, &mut (id, procs)| {
            if procs <= free {
                free -= procs;
                out.push(id);
                false
            } else {
                true
            }
        });
    }
}

/// CatBatch with guarantee-preserving backfilling.
pub struct CatBatchBackfill {
    tracker: CriticalityTracker,
    batches: BTreeMap<Category, Vec<(TaskId, u32, Time)>>,
    current: Option<Current>,
    /// Completed batch boundary instants, for invariant checks.
    batch_ends: Vec<(Category, Time)>,
    /// Number of tasks that were backfilled across the run.
    backfilled: usize,
}

struct Current {
    category: Category,
    pool: Vec<(TaskId, u32, Time)>,
    /// Running batch members: finish instants.
    running: HashMap<TaskId, Time>,
    /// Running backfilled intruders: finish instants.
    intruders: HashMap<TaskId, Time>,
}

impl CatBatchBackfill {
    /// Creates a fresh scheduler.
    pub fn new() -> Self {
        CatBatchBackfill {
            tracker: CriticalityTracker::new(),
            batches: BTreeMap::new(),
            current: None,
            batch_ends: Vec::new(),
            backfilled: 0,
        }
    }

    /// Number of backfilled task starts in this run.
    pub fn backfill_count(&self) -> usize {
        self.backfilled
    }

    /// Batch end instants in processing order.
    pub fn batch_ends(&self) -> &[(Category, Time)] {
        &self.batch_ends
    }
}

impl Default for CatBatchBackfill {
    fn default() -> Self {
        CatBatchBackfill::new()
    }
}

impl OnlineScheduler for CatBatchBackfill {
    fn name(&self) -> &'static str {
        "catbatch-backfill"
    }

    fn on_release(&mut self, task: &ReleasedTask, _now: Time) {
        let crit = self.tracker.on_release(task);
        let cat = compute_category(crit.start, crit.finish);
        self.batches
            .entry(cat)
            .or_default()
            .push((task.id, task.spec.procs, task.spec.time));
    }

    fn on_complete(&mut self, task: TaskId, now: Time) {
        let cur = self.current.as_mut().expect("completion outside batch");
        if cur.running.remove(&task).is_none() {
            let was = cur.intruders.remove(&task);
            assert!(was.is_some(), "unknown completion {task}");
        }
        if cur.running.is_empty() && cur.pool.is_empty() {
            // All members done. Any remaining intruders finish at this
            // very instant (their admission guaranteed f ≤ the barrier,
            // which just fell); the engine delivers those completions
            // before the next decide, after which the batch closes.
            debug_assert!(
                cur.intruders.values().all(|&f| f == now),
                "backfill invariant violated: intruder outlives batch"
            );
            if cur.intruders.is_empty() {
                let cur = self.current.take().expect("checked");
                self.batch_ends.push((cur.category, now));
            }
        }
    }

    fn decide_into(&mut self, now: Time, mut free: u32, out: &mut Vec<TaskId>) {
        if self.current.is_none() {
            match self.batches.pop_first() {
                Some((category, pool)) => {
                    self.current = Some(Current {
                        category,
                        pool,
                        running: HashMap::new(),
                        intruders: HashMap::new(),
                    });
                }
                None => return,
            }
        }
        let cur = self.current.as_mut().expect("just ensured");

        // 1. Batch members first (plain ScheduleIndep greed).
        cur.pool.retain(|&(id, p, t)| {
            if p <= free {
                free -= p;
                cur.running.insert(id, now + t);
                out.push(id);
                false
            } else {
                true
            }
        });

        // 2. Backfill: only once the pool is empty (every member is
        // running — Corollary 2 guarantees no member arrives later), so
        // intruders can never block a member. Admit later-category tasks
        // that provably finish by the last running member completion.
        if cur.pool.is_empty() {
            let barrier = match cur.running.values().max() {
                Some(&b) => b,
                None => return, // barrier falling; next batch takes over
            };
            let mut backfills = Vec::new();
            for (cat, pool) in self.batches.iter_mut() {
                debug_assert!(*cat > cur.category);
                pool.retain(|&(id, p, t)| {
                    if p <= free && now + t <= barrier {
                        free -= p;
                        backfills.push((id, now + t));
                        false
                    } else {
                        true
                    }
                });
                if free == 0 {
                    break;
                }
            }
            self.batches.retain(|_, pool| !pool.is_empty());
            self.backfilled += backfills.len();
            for (id, fin) in backfills {
                cur.intruders.insert(id, fin);
                out.push(id);
            }
        }
    }
}

/// CatBatch fed noisy execution-time estimates: the inner [`CatBatch`]
/// sees each task with length `t̂ = t · (1 + noise(id))`, `noise(id)` a
/// deterministic pseudo-random value in `[−amp, +amp]`, while the
/// platform runs true times. Any positive lengths keep believed
/// categories strictly rising along edges, so CatBatch's Lemma 5 check
/// holds on a static source; a timed source that releases a root while
/// a batch runs trips it, as it does for plain CatBatch.
pub struct EstimatedCatBatch {
    inner: CatBatch,
    inner_noise_num: i64,
    seed: u64,
}

impl EstimatedCatBatch {
    /// Creates the scheduler with relative noise amplitude
    /// `amp = noise_percent / 100` (e.g. 20 → ±20 %).
    pub fn new(noise_percent: u32, seed: u64) -> Self {
        assert!(noise_percent < 100, "amplitude must stay below 100 %");
        EstimatedCatBatch {
            inner: CatBatch::new(),
            inner_noise_num: noise_percent as i64,
            seed,
        }
    }

    /// Deterministic per-task multiplicative factor in
    /// `[1 − amp, 1 + amp]`, as an exact rational.
    fn factor(&self, id: TaskId) -> Rational {
        // SplitMix64-style hash of (seed, id).
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(id.0 as u64);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let span = 2 * self.inner_noise_num * 1000 + 1;
        let offset = (z % span as u64) as i64 - self.inner_noise_num * 1000;
        Rational::new(100_000 + offset as i128, 100_000)
    }
}

impl OnlineScheduler for EstimatedCatBatch {
    fn name(&self) -> &'static str {
        "catbatch-estimated"
    }

    fn on_release(&mut self, task: &ReleasedTask, now: Time) {
        let mut estimated = task.clone();
        estimated.spec.time = task.spec.time * self.factor(task.id);
        self.inner.on_release(&estimated, now);
    }

    fn on_complete(&mut self, task: TaskId, now: Time) {
        self.inner.on_complete(task, now);
    }

    fn decide_into(&mut self, now: Time, free: u32, out: &mut Vec<TaskId>) {
        self.inner.decide_into(now, free, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rigid_dag::gen::{erdos_dag, family, TaskSampler};
    use rigid_dag::paper::{figure3, intro_example};
    use rigid_dag::{analysis, StaticSource};
    use rigid_sim::engine;

    #[test]
    fn catprio_feasible_and_competitive_on_random() {
        for seed in 0..8u64 {
            let inst = erdos_dag(seed, 30, 0.2, &TaskSampler::default_mix(), 8);
            let r = engine::EngineConfig::new()
                .run(&mut StaticSource::new(inst.clone()), &mut CatPrio::new());
            r.schedule.assert_valid(&inst);
            assert!(r.makespan() >= analysis::lower_bound(&inst));
        }
    }

    #[test]
    fn catprio_still_falls_into_figure1_trap() {
        // CatPrio is work-conserving, so the Figure 1 adversary still
        // catches it — demonstrating why the barrier is needed for the
        // worst-case guarantee.
        let p = 8u32;
        let inst = intro_example(p, Time::from_ratio(1, 100));
        let r = engine::EngineConfig::new()
            .run(&mut StaticSource::new(inst.clone()), &mut CatPrio::new());
        assert!(r.makespan() >= Time::from_int(p as i64));
    }

    #[test]
    fn backfill_preserves_batch_boundaries() {
        // On the Figure 3 example, backfill must not delay any batch:
        // every batch of CatBatchBackfill ends no later than plain
        // CatBatch's corresponding batch.
        let inst = figure3();
        let mut plain = CatBatch::new();
        let r_plain =
            engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut plain);
        let mut bf = CatBatchBackfill::new();
        let r_bf = engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut bf);
        r_bf.schedule.assert_valid(&inst);
        // Batches present in both runs (a fully backfilled batch can
        // vanish from the backfill run) end no later under backfilling.
        for (cat_bf, end_bf) in bf.batch_ends() {
            if let Some(rec) = plain.batch_history().iter().find(|r| r.category == *cat_bf) {
                assert!(
                    *end_bf <= rec.finished_at,
                    "backfill delayed batch {cat_bf}: {end_bf} > {}",
                    rec.finished_at
                );
            }
        }
        assert!(r_bf.makespan() <= r_plain.makespan());
        // On this example backfilling strictly helps: K ([8.6, 10]) and
        // H ([10, 11.2]) both slot into the ζ=4 batch tail while A
        // drains, so only J remains after the barrier: 12.6 < 15.2.
        assert_eq!(r_bf.makespan(), Time::from_millis(12, 600));
    }

    #[test]
    fn backfill_respects_lemma7_everywhere() {
        for seed in 0..10u64 {
            let inst = erdos_dag(seed, 35, 0.15, &TaskSampler::default_mix(), 8);
            let bound = crate::analysis::lemma7_bound(&inst);
            let mut bf = CatBatchBackfill::new();
            let r = engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut bf);
            r.schedule.assert_valid(&inst);
            assert!(r.makespan() <= bound, "seed {seed}");
        }
    }

    #[test]
    fn backfill_actually_backfills() {
        // Batch ζ=4 holds `long` (t=8) and `a` (t=4.5); when `a`
        // finishes it releases `b` (category 4.75 > 4), which fits the
        // idle processors and finishes by the barrier — so it must be
        // backfilled into the ζ=4 batch tail instead of waiting.
        let inst = rigid_dag::DagBuilder::new()
            .task("long", Time::from_int(8), 3)
            .task("a", Time::from_millis(4, 500), 1)
            .task("b", Time::from_millis(0, 500), 1)
            .edge("a", "b")
            .build(4);
        let mut bf = CatBatchBackfill::new();
        let r = engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut bf);
        r.schedule.assert_valid(&inst);
        assert_eq!(bf.backfill_count(), 1, "expected exactly one backfill");
        // b runs [4.5, 5] inside the batch instead of after 8.
        let b = inst.graph().find_by_label("b").unwrap();
        assert_eq!(
            r.schedule.placement(b).unwrap().start,
            Time::from_millis(4, 500)
        );
        assert_eq!(r.makespan(), Time::from_int(8));

        // Plain CatBatch waits: b runs after the barrier at 8.
        let r_plain = engine::EngineConfig::new()
            .run(&mut StaticSource::new(inst.clone()), &mut CatBatch::new());
        assert_eq!(r_plain.makespan(), Time::from_millis(8, 500));
    }

    #[test]
    fn estimated_catbatch_feasible_under_noise() {
        for noise in [0u32, 10, 30, 60] {
            for seed in 0..4u64 {
                let inst = erdos_dag(seed, 25, 0.2, &TaskSampler::default_mix(), 8);
                let mut est = EstimatedCatBatch::new(noise, 42);
                let r =
                    engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut est);
                r.schedule.assert_valid(&inst);
            }
        }
    }

    #[test]
    fn estimated_with_zero_noise_matches_catbatch() {
        let inst = figure3();
        let mut est = EstimatedCatBatch::new(0, 7);
        let r_est = engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut est);
        let r_cb = engine::EngineConfig::new()
            .run(&mut StaticSource::new(inst.clone()), &mut CatBatch::new());
        assert_eq!(r_est.makespan(), r_cb.makespan());
    }

    #[test]
    fn zero_noise_is_catbatch_on_every_family() {
        for seed in 0..4u64 {
            for procs in [1u32, 3, 16] {
                for n in [7usize, 40] {
                    for (family, inst) in family(seed, n, &TaskSampler::default_mix(), procs) {
                        let run = |s: &mut dyn OnlineScheduler| {
                            engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), s)
                        };
                        let est = run(&mut EstimatedCatBatch::new(0, seed));
                        let plain = run(&mut CatBatch::new());
                        let case = format!("{family}, seed {seed}, n = {n}, P = {procs}");
                        assert_eq!(est.schedule, plain.schedule, "{case}");
                        assert_eq!(est.decisions, plain.decisions, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn noise_factor_is_bounded_and_deterministic() {
        let est = EstimatedCatBatch::new(20, 99);
        for i in 0..200u32 {
            let f = est.factor(TaskId(i));
            assert!(f >= Rational::new(80, 100) && f <= Rational::new(120, 100));
            assert_eq!(f, est.factor(TaskId(i)));
        }
    }
}
