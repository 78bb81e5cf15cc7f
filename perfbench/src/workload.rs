//! The two workloads, one per scheduler. Each runs the same three
//! phases (direct simulation, the daemon, a fault campaign); what
//! differs is the scheduler every phase asks for and the shape of the
//! simulation instance.

use crate::report::Report;
use catbatch::CatBatch;
use rigid_baselines::{ListScheduler, Priority};
use rigid_dag::gen::{self, LengthDist, ProcDist, TaskSampler};
use rigid_dag::{Instance, StableHasher, TaskGraph, TaskId};
use rigid_sim::{OnlineScheduler, RunResult};

/// A seed for one input of a run, derived from the run's `--seed`.
pub fn derive(seed: u64, tag: &str) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(seed);
    h.write_str(tag);
    h.finish()
}

/// A layered DAG on P = 16 with `layers` layers of 1–19 tasks whose
/// size lands within `tolerance` of `target`. Sub-seeds are tried in
/// order, so the choice is a function of `seed` and `tag`, and instance
/// sizes (which the daemon's parse cost and the campaign's trial cost
/// follow) do not drift from seed to seed.
pub fn layered_near(
    seed: u64,
    tag: &str,
    layers: usize,
    target: usize,
    tolerance: usize,
) -> Instance {
    let mix = TaskSampler::default_mix();
    (0u64..)
        .map(|k| gen::layered(derive(seed, &format!("{tag}-{k}")), layers, 19, &mix, 16))
        .find(|inst| inst.len().abs_diff(target) <= tolerance)
        .expect("some sub-seed lands near the target size")
}

/// What a workload's phases need from its scheduler.
pub trait Workload: OnlineScheduler + Sized + Send + 'static {
    /// The scheduler's name on the daemon's wire protocol.
    const SERVE_NAME: &'static str;
    /// Layer the scheduler belongs to in per-layer metric names.
    const LAYER: &'static str;

    /// A fresh scheduler for a fault-free run.
    fn fresh() -> Self;

    /// A fresh scheduler for a fault campaign.
    fn fault_tolerant() -> Self;

    /// The simulation-phase instance for `seed`.
    fn sim_instance(seed: u64) -> Instance;

    /// Scheduler-specific checks of one validated full run.
    fn check(&self, inst: &Instance, run: &RunResult, report: &mut Report);

    /// `(batches, task ids held)` in the scheduler's batch history.
    fn history(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl Workload for CatBatch {
    const SERVE_NAME: &'static str = "catbatch";
    const LAYER: &'static str = "core";

    fn fresh() -> Self {
        CatBatch::new()
    }

    fn fault_tolerant() -> Self {
        CatBatch::new().with_retry_budget(3)
    }

    /// A layered DAG plus a fork–join DAG of ~5×10⁵ tasks each on P = 64,
    /// widths powers of two in [1, P] and lengths in [0.5, 4].
    fn sim_instance(seed: u64) -> Instance {
        let mix = TaskSampler::default_mix();
        let layered = gen::layered(derive(seed, "sim-layered"), 5000, 200, &mix, 64);
        let fork_join = gen::fork_join(derive(seed, "sim-fork-join"), 2500, 400, &mix, 64);
        disjoint_union(&[layered, fork_join])
    }

    /// Lemma 7 (`T ≤ 2A/P + Σ L_ζ`), Theorem 1 (`T/Lb ≤ log₂ n + 3`) and
    /// the Lemma 5 batch order: categories strictly increase, batches do
    /// not overlap, and every task ran in exactly one batch.
    fn check(&self, inst: &Instance, run: &RunResult, report: &mut Report) {
        let makespan = run.makespan();
        let lemma7 = catbatch::analysis::lemma7_bound(inst);
        report.check(makespan <= lemma7, || {
            format!("Lemma 7: makespan {makespan} > bound {lemma7}")
        });
        let ratio = makespan.ratio(rigid_dag::analysis::lower_bound(inst));
        let bound = catbatch::lmatrix::theorem1_ratio_bound(inst.len());
        report.check(catbatch::lmatrix::ratio_within(ratio, bound), || {
            format!("Theorem 1: ratio {} > bound {bound}", ratio.to_f64())
        });
        let history = self.batch_history();
        let ordered = history
            .windows(2)
            .all(|w| w[0].category < w[1].category && w[0].finished_at <= w[1].started_at);
        let covered: usize = history.iter().map(|b| b.tasks.len()).sum();
        report.check(ordered && covered == inst.len(), || {
            format!(
                "Lemma 5: batch order {ordered}, {covered} of {} tasks batched",
                inst.len()
            )
        });
    }

    fn history(&self) -> (u64, u64) {
        let h = self.batch_history();
        (h.len() as u64, h.iter().map(|b| b.tasks.len() as u64).sum())
    }
}

impl Workload for ListScheduler {
    const SERVE_NAME: &'static str = "list-fifo";
    const LAYER: &'static str = "baselines";

    fn fresh() -> Self {
        ListScheduler::new(Priority::Fifo)
    }

    fn fault_tolerant() -> Self {
        ListScheduler::new(Priority::Fifo)
    }

    /// 250 000 width-1 chains of 4 tasks on P = 1000 (the shape of the
    /// `rand-chains-n1000000` engine scenario): the ready set holds
    /// ~250 000 tasks against 1000 processors.
    fn sim_instance(seed: u64) -> Instance {
        let sampler = TaskSampler {
            length: LengthDist::Uniform { min: 0.5, max: 4.0 },
            procs: ProcDist::Uniform { min: 1, max: 1 },
        };
        gen::chains(derive(seed, "sim-chains"), 250_000, 4, &sampler, 1000)
    }

    /// ASAP list scheduling makes no promise beyond a valid schedule,
    /// which the caller already checked.
    fn check(&self, _inst: &Instance, _run: &RunResult, _report: &mut Report) {}
}

/// The disjoint union of instances on one platform (the first's `P`).
fn disjoint_union(parts: &[Instance]) -> Instance {
    let mut g = TaskGraph::new();
    for part in parts {
        let src = part.graph();
        let base = g.len() as u32;
        for (_, spec) in src.tasks() {
            g.add_task(spec.clone());
        }
        for id in src.task_ids() {
            for &s in src.succs(id) {
                g.add_edge(TaskId(base + id.0), TaskId(base + s.0));
            }
        }
    }
    Instance::new(g, parts[0].procs())
}
