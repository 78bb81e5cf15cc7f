//! Category-based online scheduling of moldable task graphs — the
//! direction the paper's Section 7 proposes ("it would be worth
//! exploring these ideas in similar settings, such as the online
//! scheduling of moldable task graphs").
//!
//! The two-step recipe: a **local allocation rule** fixes each task's
//! processor count the moment it is revealed (using only the task's own
//! speedup model — the "local decisions" regime of Perotin–Sun \[28\]),
//! turning the moldable task rigid; the rigid task then flows through an
//! inner online scheduler (CatBatch or a baseline). Because allocation
//! is local and online, the combined scheduler is a legitimate online
//! moldable scheduler.

use crate::instance::MoldableInstance;
use crate::model::SpeedupModel;
use rigid_dag::StaticSource;
use rigid_sim::{engine, RunResult};
use rigid_time::Rational;

/// A local processor-allocation rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocRule {
    /// Minimize the task's execution time.
    MinTime,
    /// Largest allocation with efficiency at least 1/2 — the classic
    /// area/time balance.
    HalfEfficient,
    /// Everything sequential (`p = 1`).
    Sequential,
}

impl AllocRule {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            AllocRule::MinTime => "min-time",
            AllocRule::HalfEfficient => "half-efficient",
            AllocRule::Sequential => "sequential",
        }
    }

    /// Applies the rule to one task.
    pub fn allocate(&self, model: &SpeedupModel, procs: u32) -> u32 {
        match self {
            AllocRule::MinTime => model.min_time_alloc(procs),
            AllocRule::HalfEfficient => model.efficient_alloc(procs, Rational::new(1, 2)),
            AllocRule::Sequential => 1,
        }
    }

    /// Applies the rule to a whole instance.
    pub fn allocate_all(&self, instance: &MoldableInstance) -> Vec<u32> {
        (0..instance.len())
            .map(|i| self.allocate(instance.model(i), instance.procs()))
            .collect()
    }
}

/// Which inner (rigid) scheduler runs the allocated tasks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InnerSched {
    /// CatBatch — category batches with barriers.
    CatBatch,
    /// Guarantee-preserving backfilling.
    Backfill,
    /// ASAP greedy (FIFO).
    Asap,
}

impl InnerSched {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            InnerSched::CatBatch => "catbatch",
            InnerSched::Backfill => "backfill",
            InnerSched::Asap => "asap",
        }
    }
}

/// The result of a moldable run: the rigid run plus the allocation used.
pub struct MoldableRun {
    /// The underlying rigid run (schedule, trace inputs, makespan).
    pub run: RunResult,
    /// Chosen per-task allocations.
    pub alloc: Vec<u32>,
    /// Exact ratio to the moldable lower bound.
    pub ratio_to_moldable_lb: f64,
}

/// Schedules a moldable instance online: local allocation + inner rigid
/// scheduler. The resulting schedule is validated against the allocated
/// rigid instance.
pub fn schedule_online(
    instance: &MoldableInstance,
    rule: AllocRule,
    inner: InnerSched,
) -> MoldableRun {
    let alloc = rule.allocate_all(instance);
    let rigid = instance.to_rigid(&alloc);
    let mut source = StaticSource::new(rigid.clone());
    let run = match inner {
        InnerSched::CatBatch => {
            let mut s = catbatch::CatBatch::new();
            engine::EngineConfig::new().run(&mut source, &mut s)
        }
        InnerSched::Backfill => {
            let mut s = catbatch::CatBatchBackfill::new();
            engine::EngineConfig::new().run(&mut source, &mut s)
        }
        InnerSched::Asap => {
            let mut s = rigid_baselines::asap();
            engine::EngineConfig::new().run(&mut source, &mut s)
        }
    };
    run.schedule.assert_valid(&rigid);
    let lb = instance.lower_bound();
    let ratio = run.makespan().ratio(lb).to_f64();
    MoldableRun {
        run,
        alloc,
        ratio_to_moldable_lb: ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::MoldableBuilder;
    use rigid_time::Time;

    /// A fork of moldable solvers behind a sequential prep task.
    fn pipeline(procs: u32) -> MoldableInstance {
        let mut b = MoldableBuilder::new();
        let prep = b.task(SpeedupModel::Amdahl {
            work: Time::from_int(2),
            seq_fraction: Rational::ONE,
        });
        for k in 0..4 {
            let solve = b.task(SpeedupModel::Roofline {
                work: Time::from_int(8 + k),
                max_par: 4,
            });
            b.edge(prep, solve);
            let post = b.task(SpeedupModel::Communication {
                work: Time::from_int(4),
                overhead: Time::from_ratio(1, 8),
            });
            b.edge(solve, post);
        }
        b.build(procs)
    }

    #[test]
    fn all_rules_and_inners_feasible() {
        let inst = pipeline(8);
        for rule in [
            AllocRule::MinTime,
            AllocRule::HalfEfficient,
            AllocRule::Sequential,
        ] {
            for inner in [InnerSched::CatBatch, InnerSched::Backfill, InnerSched::Asap] {
                let r = schedule_online(&inst, rule, inner);
                assert!(r.ratio_to_moldable_lb >= 1.0 - 1e-9);
                assert_eq!(r.alloc.len(), inst.len());
            }
        }
    }

    #[test]
    fn min_time_beats_sequential_on_parallel_work() {
        let inst = pipeline(8);
        let fast = schedule_online(&inst, AllocRule::MinTime, InnerSched::CatBatch);
        let slow = schedule_online(&inst, AllocRule::Sequential, InnerSched::CatBatch);
        assert!(
            fast.run.makespan() < slow.run.makespan(),
            "parallel allocation should win: {} vs {}",
            fast.run.makespan(),
            slow.run.makespan()
        );
    }

    #[test]
    fn category_guarantee_transfers() {
        // With any fixed allocation the rigid Theorem 1 bound applies to
        // the allocated instance; the moldable ratio additionally pays
        // the allocation inflation. Check the rigid-side bound holds.
        let inst = pipeline(8);
        let r = schedule_online(&inst, AllocRule::HalfEfficient, InnerSched::CatBatch);
        let rigid = inst.to_rigid(&r.alloc);
        let rigid_lb = rigid_dag::analysis::lower_bound(&rigid);
        let rigid_ratio = r.run.makespan().ratio(rigid_lb).to_f64();
        assert!(rigid_ratio <= (inst.len() as f64).log2() + 3.0 + 1e-9);
    }

    #[test]
    fn half_efficient_never_wastes_area() {
        // Half-efficient allocations keep p·t(p) ≤ 2·t(1) per task.
        let inst = pipeline(16);
        let alloc = AllocRule::HalfEfficient.allocate_all(&inst);
        for (i, &p) in alloc.iter().enumerate() {
            let m = inst.model(i);
            assert!(
                m.area(p).rational() <= m.work().rational() * Rational::from_int(2),
                "task {i} over-inflated"
            );
        }
    }
}
