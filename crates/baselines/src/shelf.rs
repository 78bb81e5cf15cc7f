//! Shelf packing for *independent* rigid tasks: Next-Fit Decreasing
//! Height (NFDH) and First-Fit Decreasing Height (FFDH), after Coffman,
//! Garey, Johnson and Tarjan \[8\].
//!
//! Tasks are sorted by decreasing execution time ("height") and packed
//! onto shelves: a shelf is a time slab whose height equals its first
//! (tallest) task; a task joins a shelf if the processor widths still fit.
//! NFDH only ever tries the current shelf (3-approximation); FFDH tries
//! every open shelf (2.7-approximation). Shelves are stacked in time.
//!
//! [`pack`] is the workspace's one shelf packer. [`ShelfScheduler`] runs
//! it over a whole precedence-free instance (Section 2.3 of the paper),
//! [`OfflineBatch::nfdh`](crate::OfflineBatch::nfdh) over each offline
//! category batch, and `rigid-strip` over explicit rectangles and over
//! each CatBatch-Strip batch (the paper's Remark 1).

use rigid_dag::{Instance, TaskId, TaskSpec};
use rigid_sim::{OfflineScheduler, Schedule};
use rigid_time::Time;

/// Which shelf-selection rule to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShelfRule {
    /// Next-fit: only the most recent shelf stays open.
    NextFit,
    /// First-fit: all shelves stay open; use the lowest one that fits.
    FirstFit,
}

/// An item to pack: a task `width` processors wide and `height` long.
#[derive(Clone, Copy, Debug)]
pub struct Rect {
    /// Identifier.
    pub id: TaskId,
    /// Width (processors).
    pub width: u32,
    /// Height (time).
    pub height: Time,
}

impl Rect {
    /// The rectangle of task `id`: its processors wide, its length tall.
    pub fn of(id: TaskId, spec: &TaskSpec) -> Rect {
        let (width, height) = (spec.procs, spec.time);
        Rect { id, width, height }
    }
}

/// Where [`pack`] put one item.
#[derive(Clone, Copy, Debug)]
pub struct Shelved {
    /// The item.
    pub rect: Rect,
    /// Its shelf, numbered from 0 in stacking order.
    pub shelf: usize,
    /// Its offset across the width of the shelf.
    pub x: u32,
    /// The shelf's bottom: the total height of the shelves below it.
    pub y: Time,
}

/// Packs `rects` onto shelves of width `width` under `rule`. Returns
/// every item in packing order (decreasing height, stable on input
/// order) with its place, and the total height of the shelves.
///
/// # Panics
/// Panics if an item is wider than `width`.
pub fn pack(
    rule: ShelfRule,
    rects: impl IntoIterator<Item = Rect>,
    width: u32,
) -> (Vec<Shelved>, Time) {
    let mut items: Vec<Rect> = rects.into_iter().collect();
    items.sort_by_key(|r| std::cmp::Reverse(r.height));
    // Per shelf: its bottom and the width used so far.
    let mut shelves: Vec<(Time, u32)> = Vec::new();
    let mut top = Time::ZERO;
    let mut out = Vec::with_capacity(items.len());
    for rect in items {
        assert!(
            rect.width <= width,
            "rectangle {} wider than the strip",
            rect.id
        );
        let fits = |&(_, used): &(Time, u32)| used + rect.width <= width;
        let open = match rule {
            ShelfRule::NextFit => shelves.len().checked_sub(1).filter(|&i| fits(&shelves[i])),
            ShelfRule::FirstFit => shelves.iter().position(fits),
        };
        let shelf = open.unwrap_or_else(|| {
            shelves.push((top, 0));
            top += rect.height;
            shelves.len() - 1
        });
        let (y, x) = shelves[shelf];
        shelves[shelf].1 += rect.width;
        out.push(Shelved { rect, shelf, x, y });
    }
    (out, top)
}

/// A shelf-based scheduler for independent rigid tasks.
///
/// # Panics
/// `schedule` panics if the instance has any precedence edge — shelf
/// algorithms are only defined for independent tasks.
pub struct ShelfScheduler {
    rule: ShelfRule,
}

impl ShelfScheduler {
    /// NFDH (3-approximation).
    pub fn nfdh() -> Self {
        ShelfScheduler {
            rule: ShelfRule::NextFit,
        }
    }

    /// FFDH (2.7-approximation).
    pub fn ffdh() -> Self {
        ShelfScheduler {
            rule: ShelfRule::FirstFit,
        }
    }
}

impl OfflineScheduler for ShelfScheduler {
    fn name(&self) -> &'static str {
        match self.rule {
            ShelfRule::NextFit => "nfdh",
            ShelfRule::FirstFit => "ffdh",
        }
    }

    fn schedule(&mut self, instance: &Instance) -> Schedule {
        assert_eq!(
            instance.graph().edge_count(),
            0,
            "shelf algorithms require independent tasks"
        );
        let rects = instance.graph().tasks().map(|(id, s)| Rect::of(id, s));
        let mut sched = Schedule::new(instance.procs());
        for s in pack(self.rule, rects, instance.procs()).0 {
            sched.place(s.rect.id, s.y, s.y + s.rect.height, s.rect.width);
        }
        sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rigid_dag::analysis;
    use rigid_dag::gen::{independent, TaskSampler};
    use rigid_sim::offline::run_offline;

    #[test]
    fn nfdh_packs_identical_tasks_tightly() {
        // 8 tasks of (t=1, p=2) on P=8: one shelf of 4 + one shelf of 4.
        let mut g = rigid_dag::TaskGraph::new();
        for _ in 0..8 {
            g.add_task(rigid_dag::TaskSpec::new(Time::ONE, 2));
        }
        let inst = Instance::new(g, 8);
        let s = run_offline(&mut ShelfScheduler::nfdh(), &inst);
        assert_eq!(s.makespan(), Time::from_int(2));
    }

    #[test]
    fn ffdh_no_worse_than_nfdh_here() {
        let inst = independent(11, 40, &TaskSampler::default_mix(), 16);
        let n = run_offline(&mut ShelfScheduler::nfdh(), &inst).makespan();
        let f = run_offline(&mut ShelfScheduler::ffdh(), &inst).makespan();
        assert!(f <= n, "FFDH {f} worse than NFDH {n}");
    }

    #[test]
    fn shelf_bounds_hold_on_random_instances() {
        // NFDH ≤ 2·A/P + max height (the bound used in Remark 1 / Lemma 6
        // analog); check across seeds.
        for seed in 0..20u64 {
            let inst = independent(seed, 30, &TaskSampler::default_mix(), 8);
            let s = run_offline(&mut ShelfScheduler::nfdh(), &inst);
            let st = analysis::stats(&inst);
            let bound = st.area.mul_int(2).div_int(8) + st.max_len;
            assert!(
                s.makespan() <= bound,
                "seed {seed}: NFDH {} > bound {bound}",
                s.makespan()
            );
        }
    }

    #[test]
    #[should_panic(expected = "independent")]
    fn rejects_precedence() {
        let inst = rigid_dag::DagBuilder::new()
            .task("a", Time::ONE, 1)
            .task("b", Time::ONE, 1)
            .edge("a", "b")
            .build(2);
        let _ = ShelfScheduler::nfdh().schedule(&inst);
    }

    #[test]
    fn pack_reports_height() {
        let rects = [(0, 2), (1, 3), (2, 1)].map(|(id, h)| Rect {
            id: TaskId(id),
            width: 2,
            height: Time::from_int(h),
        });
        let (placed, height) = pack(ShelfRule::NextFit, rects, 4);
        // Shelf 0: tasks 1 and 0 (height 3); shelf 1: task 2 (height 1).
        assert_eq!(height, Time::from_int(4));
        let places: Vec<_> = placed
            .iter()
            .map(|s| (s.rect.id.0, s.shelf, s.x, s.y))
            .collect();
        assert_eq!(
            places,
            vec![
                (1, 0, 0, Time::ZERO),
                (0, 0, 2, Time::ZERO),
                (2, 1, 0, Time::from_int(3))
            ]
        );
    }
}
