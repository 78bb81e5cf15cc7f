//! Random workload generators for rigid task DAGs.
//!
//! No public trace of rigid task graphs with explicit processor
//! requirements exists, so the competitive-ratio experiments run over
//! synthetic ensembles spanning the structural regimes that matter for the
//! bounds: wide shallow graphs (area-dominated), deep narrow graphs
//! (critical-path-dominated), fork–join phases, series–parallel programs,
//! trees and independent bags. All generators are deterministic given a
//! seed (ChaCha8).

mod params;
mod stencil;

pub use params::{LengthDist, ProcDist, TaskSampler};
pub use stencil::{wavefront_2d, wavefront_triangular};

use crate::graph::{Instance, TaskGraph};
use crate::task::TaskId;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Creates the deterministic RNG used by all generators.
pub fn seeded_rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// A layered DAG: `layers` layers of about `width` tasks; each task in
/// layer `k > 0` gets 1–3 predecessors in layer `k−1`.
///
/// This is the classic synthetic model of scientific workflows (stages of
/// bulk work with stage-to-stage dependencies).
pub fn layered(
    seed: u64,
    layers: usize,
    width: usize,
    sampler: &TaskSampler,
    procs: u32,
) -> Instance {
    assert!(layers >= 1 && width >= 1);
    let mut rng = seeded_rng(seed);
    let mut g = TaskGraph::new();
    let mut prev: Vec<TaskId> = Vec::new();
    for _layer in 0..layers {
        let w = rng.random_range(1..=width);
        let cur: Vec<TaskId> = (0..w)
            .map(|_| g.add_task(sampler.sample(&mut rng, procs)))
            .collect();
        if !prev.is_empty() {
            for &t in &cur {
                let k = rng.random_range(1..=3usize.min(prev.len()));
                let mut choices = prev.clone();
                choices.shuffle(&mut rng);
                for &p in choices.iter().take(k) {
                    g.add_edge(p, t);
                }
            }
        }
        prev = cur;
    }
    Instance::new(g, procs)
}

/// An Erdős–Rényi-style random DAG on `n` tasks: tasks are ordered
/// `0..n`, and each forward pair `(i, j)`, `i < j`, carries an edge with
/// probability `edge_prob`.
pub fn erdos_dag(
    seed: u64,
    n: usize,
    edge_prob: f64,
    sampler: &TaskSampler,
    procs: u32,
) -> Instance {
    assert!((0.0..=1.0).contains(&edge_prob));
    let mut rng = seeded_rng(seed);
    let mut g = TaskGraph::new();
    let ids: Vec<TaskId> = (0..n)
        .map(|_| g.add_task(sampler.sample(&mut rng, procs)))
        .collect();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.random_bool(edge_prob) {
                g.add_edge(ids[i], ids[j]);
            }
        }
    }
    Instance::new(g, procs)
}

/// A fork–join DAG: `phases` phases, each a fork of about `width` parallel
/// tasks between two sequential barrier tasks.
pub fn fork_join(
    seed: u64,
    phases: usize,
    width: usize,
    sampler: &TaskSampler,
    procs: u32,
) -> Instance {
    assert!(phases >= 1 && width >= 1);
    let mut rng = seeded_rng(seed);
    let mut g = TaskGraph::new();
    let mut barrier: Option<TaskId> = None;
    for _ in 0..phases {
        let fork = g.add_task(sampler.sample(&mut rng, procs));
        if let Some(b) = barrier {
            g.add_edge(b, fork);
        }
        let w = rng.random_range(1..=width);
        let join = {
            let mids: Vec<TaskId> = (0..w)
                .map(|_| {
                    let t = g.add_task(sampler.sample(&mut rng, procs));
                    g.add_edge(fork, t);
                    t
                })
                .collect();
            let join = g.add_task(sampler.sample(&mut rng, procs));
            for m in mids {
                g.add_edge(m, join);
            }
            join
        };
        barrier = Some(join);
    }
    Instance::new(g, procs)
}

/// A series–parallel DAG built by recursive composition: starting from a
/// single edge, repeatedly replace a random task by a series or parallel
/// composition until about `n_target` tasks exist.
pub fn series_parallel(seed: u64, n_target: usize, sampler: &TaskSampler, procs: u32) -> Instance {
    assert!(n_target >= 1);
    let mut rng = seeded_rng(seed);
    // Build as a recursive structure of task slots, then materialize.
    // Each leaf is a task; internal nodes are Series(children) (chained)
    // or Parallel(children) (share entry/exit context).
    enum Node {
        Leaf,
        Series(Vec<Node>),
        Parallel(Vec<Node>),
    }
    fn leaves(n: &Node) -> usize {
        match n {
            Node::Leaf => 1,
            Node::Series(c) | Node::Parallel(c) => c.iter().map(leaves).sum(),
        }
    }
    fn expand<R: Rng>(n: &mut Node, rng: &mut R) {
        match n {
            Node::Leaf => {
                let k = rng.random_range(2..=3);
                let children = (0..k).map(|_| Node::Leaf).collect();
                *n = if rng.random_bool(0.5) {
                    Node::Series(children)
                } else {
                    Node::Parallel(children)
                };
            }
            Node::Series(c) | Node::Parallel(c) => {
                let i = rng.random_range(0..c.len());
                expand(&mut c[i], rng);
            }
        }
    }
    let mut root = Node::Leaf;
    while leaves(&root) < n_target {
        expand(&mut root, &mut rng);
    }
    // Materialize: returns (entries, exits) of the sub-DAG.
    fn build<R: Rng>(
        n: &Node,
        g: &mut TaskGraph,
        rng: &mut R,
        sampler: &TaskSampler,
        procs: u32,
    ) -> (Vec<TaskId>, Vec<TaskId>) {
        match n {
            Node::Leaf => {
                let id = g.add_task(sampler.sample(rng, procs));
                (vec![id], vec![id])
            }
            Node::Series(c) => {
                let mut first_entries = Vec::new();
                let mut prev_exits: Vec<TaskId> = Vec::new();
                for (i, child) in c.iter().enumerate() {
                    let (entries, exits) = build(child, g, rng, sampler, procs);
                    if i == 0 {
                        first_entries = entries;
                    } else {
                        for &p in &prev_exits {
                            for &e in &entries {
                                g.add_edge(p, e);
                            }
                        }
                    }
                    prev_exits = exits;
                }
                (first_entries, prev_exits)
            }
            Node::Parallel(c) => {
                let mut entries = Vec::new();
                let mut exits = Vec::new();
                for child in c {
                    let (e, x) = build(child, g, rng, sampler, procs);
                    entries.extend(e);
                    exits.extend(x);
                }
                (entries, exits)
            }
        }
    }
    let mut g = TaskGraph::new();
    let _ = build(&root, &mut g, &mut rng, sampler, procs);
    Instance::new(g, procs)
}

/// An out-tree: every task except the root has exactly one predecessor;
/// each task spawns up to `branching` children until `n` tasks exist.
pub fn out_tree(
    seed: u64,
    n: usize,
    branching: usize,
    sampler: &TaskSampler,
    procs: u32,
) -> Instance {
    assert!(n >= 1 && branching >= 1);
    let mut rng = seeded_rng(seed);
    let mut g = TaskGraph::new();
    let root = g.add_task(sampler.sample(&mut rng, procs));
    let mut frontier = vec![root];
    while g.len() < n {
        let parent = frontier[rng.random_range(0..frontier.len())];
        let kids = rng.random_range(1..=branching).min(n - g.len());
        for _ in 0..kids {
            let c = g.add_task(sampler.sample(&mut rng, procs));
            g.add_edge(parent, c);
            frontier.push(c);
        }
    }
    Instance::new(g, procs)
}

/// An in-tree (reduction tree): the reverse of [`out_tree`] — many leaves
/// funnel into one final task.
pub fn in_tree(
    seed: u64,
    n: usize,
    branching: usize,
    sampler: &TaskSampler,
    procs: u32,
) -> Instance {
    let out = out_tree(seed, n, branching, sampler, procs);
    // Reverse all edges.
    let g_out = out.graph();
    let mut g = TaskGraph::new();
    for (_, spec) in g_out.tasks() {
        g.add_task(spec.clone());
    }
    for id in g_out.task_ids() {
        for &s in g_out.succs(id) {
            g.add_edge(s, id);
        }
    }
    Instance::new(g, out.procs())
}

/// `n_chains` independent linear chains of `chain_len` tasks each.
pub fn chains(
    seed: u64,
    n_chains: usize,
    chain_len: usize,
    sampler: &TaskSampler,
    procs: u32,
) -> Instance {
    assert!(n_chains >= 1 && chain_len >= 1);
    let mut rng = seeded_rng(seed);
    let mut g = TaskGraph::new();
    for _ in 0..n_chains {
        let mut prev: Option<TaskId> = None;
        for _ in 0..chain_len {
            let t = g.add_task(sampler.sample(&mut rng, procs));
            if let Some(p) = prev {
                g.add_edge(p, t);
            }
            prev = Some(t);
        }
    }
    Instance::new(g, procs)
}

/// `n` independent tasks (no edges) — the relaxed problem of Section 2.3.
pub fn independent(seed: u64, n: usize, sampler: &TaskSampler, procs: u32) -> Instance {
    let mut rng = seeded_rng(seed);
    let mut g = TaskGraph::new();
    for _ in 0..n {
        g.add_task(sampler.sample(&mut rng, procs));
    }
    Instance::new(g, procs)
}

/// Names and constructors of the whole generator family, for sweep
/// harnesses that want "one of each shape".
pub fn family(
    seed: u64,
    n: usize,
    sampler: &TaskSampler,
    procs: u32,
) -> Vec<(&'static str, Instance)> {
    fn side(n: usize) -> usize {
        ((n as f64).sqrt().round() as usize).max(1)
    }
    let width = (n as f64).sqrt().ceil() as usize;
    vec![
        (
            "layered",
            layered(seed, n.div_ceil(width).max(1), width, sampler, procs),
        ),
        (
            "erdos_sparse",
            erdos_dag(seed, n, (2.0 / n as f64).min(1.0), sampler, procs),
        ),
        (
            "erdos_dense",
            erdos_dag(seed, n, (8.0 / n as f64).min(1.0), sampler, procs),
        ),
        (
            "fork_join",
            fork_join(seed, n.div_ceil(width + 2).max(1), width, sampler, procs),
        ),
        ("series_parallel", series_parallel(seed, n, sampler, procs)),
        ("out_tree", out_tree(seed, n, 3, sampler, procs)),
        ("in_tree", in_tree(seed, n, 3, sampler, procs)),
        (
            "chains",
            chains(seed, width.max(1), n.div_ceil(width).max(1), sampler, procs),
        ),
        ("independent", independent(seed, n, sampler, procs)),
        (
            "wavefront",
            wavefront_2d(seed, side(n), side(n), sampler, procs),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::depth;

    fn sampler() -> TaskSampler {
        TaskSampler::default_mix()
    }

    #[test]
    fn generators_produce_valid_instances() {
        for (name, inst) in family(7, 40, &sampler(), 8) {
            assert!(inst.graph().is_acyclic(), "{name} produced a cycle");
            assert!(!inst.is_empty(), "{name} produced an empty instance");
            for (_, s) in inst.graph().tasks() {
                assert!(s.time.is_positive() && s.procs >= 1 && s.procs <= 8);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = erdos_dag(123, 30, 0.1, &sampler(), 8);
        let b = erdos_dag(123, 30, 0.1, &sampler(), 8);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.graph().edge_count(), b.graph().edge_count());
        for (ia, ib) in a.graph().tasks().zip(b.graph().tasks()) {
            assert_eq!(ia.1.time, ib.1.time);
            assert_eq!(ia.1.procs, ib.1.procs);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = erdos_dag(1, 30, 0.2, &sampler(), 8);
        let b = erdos_dag(2, 30, 0.2, &sampler(), 8);
        // Edge counts coinciding is possible but specs all matching is
        // astronomically unlikely.
        let same = a
            .graph()
            .tasks()
            .zip(b.graph().tasks())
            .all(|(x, y)| x.1.time == y.1.time && x.1.procs == y.1.procs);
        assert!(!same);
    }

    #[test]
    fn chains_shape() {
        let inst = chains(5, 3, 10, &sampler(), 4);
        assert_eq!(inst.len(), 30);
        assert_eq!(inst.graph().edge_count(), 27);
        assert_eq!(inst.graph().sources().len(), 3);
        assert_eq!(depth(inst.graph()), 10);
    }

    #[test]
    fn out_tree_single_root() {
        let inst = out_tree(5, 25, 3, &sampler(), 4);
        assert_eq!(inst.len(), 25);
        assert_eq!(inst.graph().sources().len(), 1);
        // Every non-root has exactly one predecessor.
        for id in inst.graph().task_ids() {
            assert!(inst.graph().preds(id).len() <= 1);
        }
    }

    #[test]
    fn in_tree_single_sink() {
        let inst = in_tree(5, 25, 3, &sampler(), 4);
        assert_eq!(inst.graph().sinks().len(), 1);
        for id in inst.graph().task_ids() {
            assert!(inst.graph().succs(id).len() <= 1);
        }
    }

    #[test]
    fn fork_join_depth() {
        let inst = fork_join(5, 4, 6, &sampler(), 8);
        // Each phase contributes at least 3 to the depth (fork, mid, join).
        assert!(depth(inst.graph()) >= 3);
        assert!(inst.graph().is_acyclic());
    }

    #[test]
    fn independent_has_no_edges() {
        let inst = independent(5, 20, &sampler(), 4);
        assert_eq!(inst.graph().edge_count(), 0);
    }

    #[test]
    fn series_parallel_reaches_target() {
        let inst = series_parallel(5, 30, &sampler(), 4);
        assert!(inst.len() >= 30);
        assert!(inst.graph().is_acyclic());
    }
}
