//! The gadget `Y^i_P(K)` (Definition 8, Figure 9) and its exact optimal
//! makespan (Lemma 9), realized by an explicit constructive schedule.
//!
//! `Y^i_P(K)` is `P` identical copies of the chain `L^i_P(K)`. Unlike
//! `X_P(K)`, it schedules perfectly: run the `P` blue tasks of round `r`
//! in parallel (using all `P` processors), then the `P` red tasks
//! sequentially (each uses all `P`), and repeat. Every processor is busy
//! at every instant, so the makespan `K^(P−1) + P·K^(P−i−1)·ε` is optimal.

use crate::chains::{append_chain, GadgetParams};
use rigid_dag::{Instance, TaskGraph, TaskId};
use rigid_sim::{OfflineScheduler, Schedule};
use rigid_time::Time;

/// Builds `Y^i_P(K)` and returns the instance plus per-copy chain ids.
pub fn y_graph_with_chains(params: &GadgetParams, i: u32) -> (Instance, Vec<Vec<TaskId>>) {
    assert!(i < params.p, "chain index i must be in [0, P-1]");
    let mut g = TaskGraph::new();
    let chains: Vec<Vec<TaskId>> = (0..params.p)
        .map(|_| append_chain(&mut g, params, i))
        .collect();
    (Instance::new(g, params.p), chains)
}

/// Builds `Y^i_P(K)`.
pub fn y_graph(params: &GadgetParams, i: u32) -> Instance {
    y_graph_with_chains(params, i).0
}

/// Lemma 9: the exact optimal makespan of `Y^i_P(K)`,
/// `K^(P−1) + P·K^(P−i−1)·ε`.
pub fn lemma9_optimal(params: &GadgetParams, i: u32) -> Time {
    assert!(i < params.p);
    let rounds = (params.k as i64).pow(params.p - i - 1);
    params.k_pow(params.p - 1) + params.eps.mul_int(params.p as i64 * rounds)
}

/// The constructive optimal scheduler for `Y^i_P(K)` described in the
/// proof of Lemma 9 (blue round in parallel, red round sequential).
///
/// Only valid on instances produced by [`y_graph`]; it re-derives the
/// chain structure from the graph (P disjoint alternating chains).
pub struct YOptimal;

impl OfflineScheduler for YOptimal {
    fn name(&self) -> &'static str {
        "y-optimal"
    }

    fn schedule(&mut self, instance: &Instance) -> Schedule {
        let g = instance.graph();
        let p = instance.procs();
        // Recover the chains: sources are the chain heads.
        let heads = g.sources();
        assert_eq!(heads.len() as u32, p, "not a Y graph: wrong chain count");
        let mut chains: Vec<Vec<TaskId>> = Vec::with_capacity(heads.len());
        for h in heads {
            let mut chain = vec![h];
            let mut cur = h;
            while let Some(&next) = g.succs(cur).first() {
                assert_eq!(g.succs(cur).len(), 1, "not a chain");
                chain.push(next);
                cur = next;
            }
            chains.push(chain);
        }
        let rounds = chains[0].len() / 2;
        assert!(
            chains.iter().all(|c| c.len() == 2 * rounds),
            "chains of unequal length"
        );

        let mut sched = Schedule::new(p);
        let mut now = Time::ZERO;
        for r in 0..rounds {
            // Blue round: position 2r of every chain, in parallel.
            let blue_len = g.spec(chains[0][2 * r]).time;
            for chain in &chains {
                let id = chain[2 * r];
                let spec = g.spec(id);
                assert_eq!(spec.procs, 1, "blue task must use one processor");
                sched.place(id, now, now + spec.time, 1);
            }
            now += blue_len;
            // Red round: position 2r+1 of every chain, sequentially.
            for chain in &chains {
                let id = chain[2 * r + 1];
                let spec = g.spec(id);
                assert_eq!(spec.procs, p, "red task must use all processors");
                sched.place(id, now, now + spec.time, p);
                now += spec.time;
            }
        }
        sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rigid_baselines::Optimal;
    use rigid_sim::offline::run_offline;

    #[test]
    fn figure9_structure() {
        // Y^1_4(2): 4 chains of 2·2^(4−1−1) = 8 tasks.
        let params = GadgetParams::new(4, 2, Time::from_ratio(1, 100));
        let (inst, chains) = y_graph_with_chains(&params, 1);
        assert_eq!(chains.len(), 4);
        assert!(chains.iter().all(|c| c.len() == 8));
        assert_eq!(inst.len(), 32);
    }

    #[test]
    fn lemma9_constructive_schedule_achieves_formula() {
        for (p, k, i) in [
            (3u32, 2u32, 0u32),
            (3, 2, 1),
            (3, 2, 2),
            (4, 2, 1),
            (2, 3, 0),
        ] {
            let params = GadgetParams::new(p, k, Time::from_ratio(1, 64));
            let inst = y_graph(&params, i);
            let s = run_offline(&mut YOptimal, &inst);
            assert_eq!(s.makespan(), lemma9_optimal(&params, i), "Y^{i}_{p}({k})");
        }
    }

    #[test]
    fn lemma9_schedule_has_full_utilization() {
        let params = GadgetParams::new(3, 2, Time::from_ratio(1, 64));
        let inst = y_graph(&params, 1);
        let s = run_offline(&mut YOptimal, &inst);
        // Every instant in [0, makespan) uses all P processors.
        for (t, used) in s.usage_profile() {
            if t < s.makespan() {
                assert_eq!(used, 3, "under-utilization at {t}");
            }
        }
    }

    #[test]
    fn lemma9_matches_exact_optimum_small() {
        // P=2, K=2, i=0: Y has 2 chains of 4 tasks; brute-force agrees.
        let params = GadgetParams::new(2, 2, Time::from_ratio(1, 16));
        let inst = y_graph(&params, 0);
        let bb = Optimal::default().makespan(&inst);
        assert_eq!(bb, lemma9_optimal(&params, 0));
    }
}
