//! CatBatch-Strip: the online strip-packing variant of CatBatch
//! (the paper's Remark 1).
//!
//! Identical category batching, but inside each batch the greedy
//! `ScheduleIndep` is replaced by NFDH (`rigid_baselines::shelf::pack`)
//! so every task receives a **contiguous** processor interval `[x, x+w)`.
//! Shelves of a batch run one after another (shelf `k+1` starts when
//! shelf `k`'s tallest — and therefore last — task completes), which
//! realizes the NFDH geometry in time. Remark 1's analysis carries over:
//! per batch the height is at most `2·area/P + L_ζ`, so the Theorem 1/2
//! competitive ratios hold for online strip packing with precedence
//! constraints too.

use crate::packing::{PlacedRect, StripPacking};
use catbatch::category::{compute_category, Category};
use catbatch::CriticalityTracker;
use rigid_baselines::shelf::{self, Rect, ShelfRule, Shelved};
use rigid_dag::{ReleasedTask, TaskId};
use rigid_sim::OnlineScheduler;
use rigid_time::Time;
use std::collections::BTreeMap;

struct CurrentBatch {
    /// The batch's NFDH packing: items in shelf order, with x-positions.
    shelved: Vec<Shelved>,
    /// Index into `shelved` of the first item of the next shelf to run.
    next: usize,
    running: usize,
}

/// The online CatBatch-Strip scheduler.
///
/// After a run, [`packing`](CatBatchStrip::packing) returns the committed
/// contiguous packing (y-coordinates are the actual start instants).
pub struct CatBatchStrip {
    procs: u32,
    tracker: CriticalityTracker,
    batches: BTreeMap<Category, Vec<Rect>>,
    current: Option<CurrentBatch>,
    packing: StripPacking,
}

impl CatBatchStrip {
    /// Creates a CatBatch-Strip scheduler for a strip of width `procs`.
    pub fn new(procs: u32) -> Self {
        CatBatchStrip {
            procs,
            tracker: CriticalityTracker::new(),
            batches: BTreeMap::new(),
            current: None,
            packing: StripPacking::new(procs),
        }
    }

    /// The contiguous packing committed so far (complete after the run).
    pub fn packing(&self) -> &StripPacking {
        &self.packing
    }
}

impl OnlineScheduler for CatBatchStrip {
    fn name(&self) -> &'static str {
        "catbatch-strip"
    }

    fn on_release(&mut self, task: &ReleasedTask, _now: Time) {
        let crit = self.tracker.on_release(task);
        let cat = compute_category(crit.start, crit.finish);
        self.batches
            .entry(cat)
            .or_default()
            .push(Rect::of(task.id, &task.spec));
    }

    fn on_complete(&mut self, _task: TaskId, _now: Time) {
        let cur = self.current.as_mut().expect("completion outside batch");
        assert!(cur.running > 0);
        cur.running -= 1;
        if cur.running == 0 && cur.next >= cur.shelved.len() {
            self.current = None;
        }
    }

    fn decide_into(&mut self, now: Time, free: u32, out: &mut Vec<TaskId>) {
        if self.current.is_none() {
            match self.batches.pop_first() {
                Some((_cat, rects)) => {
                    self.current = Some(CurrentBatch {
                        shelved: shelf::pack(ShelfRule::NextFit, rects, self.procs).0,
                        next: 0,
                        running: 0,
                    });
                }
                None => return,
            }
        }
        let cur = self.current.as_mut().expect("just ensured");
        // A shelf starts only on an empty machine (shelf barrier). With
        // the machine idle, `free < P` can still happen under an engine
        // capacity dip — wait for recovery instead of asserting.
        if cur.running > 0 || cur.next >= cur.shelved.len() || free < self.procs {
            return;
        }
        let first = cur.next;
        let shelf = cur.shelved[first].shelf;
        cur.running = cur.shelved[first..]
            .iter()
            .take_while(|s| s.shelf == shelf)
            .count();
        cur.next += cur.running;
        for s in &cur.shelved[first..cur.next] {
            self.packing.place(PlacedRect {
                id: s.rect.id,
                x: s.x,
                width: s.rect.width,
                y: now,
                height: s.rect.height,
            });
            out.push(s.rect.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rigid_dag::gen::{erdos_dag, TaskSampler};
    use rigid_dag::paper::figure3;
    use rigid_dag::{analysis, StaticSource};
    use rigid_sim::engine;

    #[test]
    fn figure3_strip_run_is_contiguous_and_feasible() {
        let inst = figure3();
        let mut cbs = CatBatchStrip::new(inst.procs());
        let result =
            engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut cbs);
        result.schedule.assert_valid(&inst);
        cbs.packing().assert_valid();
        assert_eq!(cbs.packing().len(), inst.len());
        // The strip height equals the schedule makespan.
        assert_eq!(cbs.packing().height(), result.makespan());
    }

    #[test]
    fn strip_respects_lemma7_with_nfdh_constant() {
        // Remark 1: NFDH per batch gives height ≤ 2·area + max height per
        // batch, so the total is ≤ 2A/P + Σ L_ζ, same as Lemma 7.
        let inst = figure3();
        let bound = catbatch::analysis::lemma7_bound(&inst);
        let mut cbs = CatBatchStrip::new(inst.procs());
        let result =
            engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut cbs);
        assert!(result.makespan() <= bound);
    }

    #[test]
    fn random_dags_strip_valid() {
        for seed in 0..10u64 {
            let inst = erdos_dag(seed, 25, 0.15, &TaskSampler::default_mix(), 8);
            let mut cbs = CatBatchStrip::new(8);
            let result =
                engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut cbs);
            result.schedule.assert_valid(&inst);
            cbs.packing().assert_valid();
            // Theorem 1 ratio bound holds for the strip variant too.
            let ratio = result
                .makespan()
                .ratio(analysis::lower_bound(&inst))
                .to_f64();
            assert!(ratio <= (25f64).log2() + 3.0 + 1e-9, "seed {seed}: {ratio}");
        }
    }

    #[test]
    fn single_wide_task() {
        let inst = rigid_dag::DagBuilder::new()
            .task("w", Time::from_int(2), 4)
            .build(4);
        let mut cbs = CatBatchStrip::new(4);
        let result =
            engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut cbs);
        assert_eq!(result.makespan(), Time::from_int(2));
        let r = &cbs.packing().rects()[0];
        assert_eq!((r.x, r.width), (0, 4));
    }
}
