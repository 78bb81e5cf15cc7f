//! Offline category-batch scheduling — the offline comparator that
//! CatBatch "almost matches".
//!
//! Augustine, Banerjee and Irani \[1\] gave a `log₂(n+1) + 2` approximation
//! for strip packing with precedence constraints by a level-based
//! divide-and-conquer. The same guarantee is obtained by the *offline*
//! analog of CatBatch: with the whole instance in hand, compute every
//! task's category, then process batches in increasing category value —
//! either with the greedy `ScheduleIndep` step (free processor choice) or
//! with NFDH (contiguous/strip variant). Knowing the batches in advance
//! removes the online algorithm's discovery constraint; the batch
//! structure is otherwise identical, which is precisely the paper's point
//! that CatBatch "almost matches the best offline algorithm".
//!
//! The greedy variant runs on the simulation engine, as the online
//! schedulers do; the NFDH variant stacks each batch's [`shelf::pack`]
//! shelves on top of the previous batch.

use crate::shelf::{self, Rect, ShelfRule};
use catbatch::analysis::decompose;
use catbatch::Category;
use rigid_dag::{Instance, ReleasedTask, StaticSource, TaskGraph, TaskId};
use rigid_sim::{EngineConfig, OfflineScheduler, OnlineScheduler, Schedule};
use rigid_time::Time;
use std::collections::btree_map::IntoValues;

/// How each batch of independent tasks is packed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchPacking {
    /// Greedy list start (free processor choice) — matches Lemma 6.
    Greedy,
    /// NFDH shelves — the strip-packing-compatible variant (Remark 1).
    Nfdh,
}

/// The offline batch scheduler.
pub struct OfflineBatch {
    packing: BatchPacking,
}

impl OfflineBatch {
    /// Greedy per-batch packing.
    pub fn greedy() -> Self {
        OfflineBatch {
            packing: BatchPacking::Greedy,
        }
    }

    /// NFDH per-batch packing.
    pub fn nfdh() -> Self {
        OfflineBatch {
            packing: BatchPacking::Nfdh,
        }
    }
}

/// `ScheduleIndep` (Algorithm 2 of the paper) over precomputed batches,
/// driven by the engine: at each decision, start every unstarted task of
/// the current batch that fits, in order; the next batch opens once the
/// current one has fully completed.
struct BatchGreedy<'a> {
    graph: &'a TaskGraph,
    /// Batches not opened yet, in category order.
    batches: IntoValues<Category, Vec<TaskId>>,
    /// The current batch's unstarted tasks.
    pending: Vec<TaskId>,
    running: usize,
}

impl OnlineScheduler for BatchGreedy<'_> {
    fn name(&self) -> &'static str {
        "offline-batch-greedy"
    }

    fn on_release(&mut self, _task: &ReleasedTask, _now: Time) {}

    fn on_complete(&mut self, _task: TaskId, _now: Time) {
        self.running -= 1;
    }

    fn decide_into(&mut self, _now: Time, mut free: u32, out: &mut Vec<TaskId>) {
        if self.running == 0 && self.pending.is_empty() {
            // A batch's predecessors all sit in earlier batches (Lemma
            // 5), so every task of the next batch is released by now.
            match self.batches.next() {
                Some(batch) => self.pending = batch,
                None => return,
            }
        }
        let before = out.len();
        let graph = self.graph;
        self.pending.retain(|&id| {
            let p = graph.spec(id).procs;
            if p <= free {
                free -= p;
                out.push(id);
                false
            } else {
                true
            }
        });
        self.running += out.len() - before;
    }
}

impl OfflineScheduler for OfflineBatch {
    fn name(&self) -> &'static str {
        match self.packing {
            BatchPacking::Greedy => "offline-batch-greedy",
            BatchPacking::Nfdh => "offline-batch-nfdh",
        }
    }

    fn schedule(&mut self, instance: &Instance) -> Schedule {
        let batches = decompose(instance).categories.into_values();
        let g = instance.graph();
        match self.packing {
            BatchPacking::Greedy => {
                let mut greedy = BatchGreedy {
                    graph: g,
                    batches,
                    pending: Vec::new(),
                    running: 0,
                };
                let mut source = StaticSource::new(instance.clone());
                EngineConfig::new().run(&mut source, &mut greedy).schedule
            }
            BatchPacking::Nfdh => {
                let mut out = Schedule::new(instance.procs());
                let mut start = Time::ZERO;
                for batch in batches {
                    let rects = batch.iter().map(|&id| Rect::of(id, g.spec(id)));
                    let (placed, height) = shelf::pack(ShelfRule::NextFit, rects, instance.procs());
                    for s in placed {
                        let at = start + s.y;
                        out.place(s.rect.id, at, at + s.rect.height, s.rect.width);
                    }
                    start += height;
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rigid_dag::analysis;
    use rigid_dag::gen::{erdos_dag, TaskSampler};
    use rigid_dag::paper::figure3;
    use rigid_sim::offline::run_offline;

    #[test]
    fn matches_online_catbatch_on_figure3() {
        // The offline greedy-batch schedule of the Figure 3 example uses
        // the same batches as online CatBatch; both finish at 15.2 (the
        // offline variant may reorder inside batches, but batch barriers
        // pin the boundaries here).
        let inst = figure3();
        let s = run_offline(&mut OfflineBatch::greedy(), &inst);
        assert_eq!(s.makespan(), Time::from_millis(15, 200));
    }

    #[test]
    fn nfdh_variant_feasible_and_batch_ordered() {
        let inst = figure3();
        let s = run_offline(&mut OfflineBatch::nfdh(), &inst);
        // Feasibility is asserted by run_offline; also check it respects
        // the Lemma 7-style bound with the NFDH constant.
        let bound = catbatch::analysis::lemma7_bound(&inst);
        assert!(s.makespan() <= bound);
    }

    #[test]
    fn offline_batch_on_random_dags() {
        for seed in 0..15u64 {
            let inst = erdos_dag(seed, 30, 0.15, &TaskSampler::default_mix(), 8);
            let s = run_offline(&mut OfflineBatch::greedy(), &inst);
            let lb = analysis::lower_bound(&inst);
            let ratio = s.makespan().ratio(lb).to_f64();
            // log2(30+1) + 2 ≈ 6.95; use the paper's offline bound.
            assert!(
                ratio <= (31f64).log2() + 2.0 + 1e-9,
                "seed {seed}: offline batch ratio {ratio}"
            );
        }
    }
}
