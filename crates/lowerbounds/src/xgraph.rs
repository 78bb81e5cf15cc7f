//! The gadget `X_P(K)` (Definition 7, Figure 8) and the Lemma 8 lower
//! bound on its optimal makespan.
//!
//! `X_P(K)` contains one chain `L^i_P(K)` for each `i ∈ [0, P−1]`. The
//! red all-processor separators force any schedule to interleave blue
//! segments with full-machine red pulses, so the optimal makespan exceeds
//! `P·K^(P−1) − (P−1)·K^(P−2)` — roughly `P` times the Graham bound.

use crate::chains::{append_chain, GadgetParams};
use rigid_dag::{Instance, TaskGraph, TaskId};
use rigid_time::Time;

/// Builds `X_P(K)` and returns the instance plus the per-chain task ids.
pub fn x_graph_with_chains(params: &GadgetParams) -> (Instance, Vec<Vec<TaskId>>) {
    let mut g = TaskGraph::new();
    let chains: Vec<Vec<TaskId>> = (0..params.p)
        .map(|i| append_chain(&mut g, params, i))
        .collect();
    (Instance::new(g, params.p), chains)
}

/// Builds `X_P(K)`.
pub fn x_graph(params: &GadgetParams) -> Instance {
    x_graph_with_chains(params).0
}

/// Number of tasks in `X_P(K)`: `2·(K^P − 1)/(K − 1)`.
pub fn x_task_count(params: &GadgetParams) -> usize {
    (0..params.p).map(|i| params.chain_len(i)).sum()
}

/// The Lemma 8 lower bound: `T_opt(X_P(K)) > P·K^(P−1) − (P−1)·K^(P−2)`.
pub fn lemma8_bound(params: &GadgetParams) -> Time {
    let (p, k) = (params.p as i64, params.k as i64);
    if params.p == 1 {
        // Degenerate: a single chain; bound reduces to K^0 = 1 minus
        // nothing — use the general formula with K^(P-2) absent.
        return Time::from_int(1);
    }
    Time::from_int(p * k.pow(params.p - 1) - (p - 1) * k.pow(params.p - 2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rigid_baselines::Optimal;
    use rigid_dag::analysis;

    #[test]
    fn figure8_structure() {
        // X_3(3): 18 + 6 + 2 = 26 tasks.
        let params = GadgetParams::new(3, 3, Time::from_ratio(1, 100));
        let (inst, chains) = x_graph_with_chains(&params);
        assert_eq!(inst.len(), 26);
        assert_eq!(x_task_count(&params), 26);
        assert_eq!(chains[0].len(), 18);
        assert_eq!(chains[1].len(), 6);
        assert_eq!(chains[2].len(), 2);
        // Chains are disconnected from each other.
        assert!(!inst.graph().has_path(chains[0][0], chains[1][0]));
    }

    #[test]
    fn lemma8_exact_small() {
        // P=2, K=2: X_2(2) has chains L^0 (4 tasks: 1,ε,1,ε) and L^1
        // (2 tasks: 2,ε). Lemma 8: T_opt > 2·2 − 1·1 = 3.
        let params = GadgetParams::new(2, 2, Time::from_ratio(1, 100));
        let inst = x_graph(&params);
        assert_eq!(inst.len(), 6);
        let opt = Optimal::default().makespan(&inst);
        assert!(
            opt > lemma8_bound(&params),
            "OPT {opt} ≤ Lemma 8 bound {}",
            lemma8_bound(&params)
        );
        // And the Graham bound is much smaller (≈ K^(P−1) = 2): the gap
        // Remark 2 talks about.
        let lb = analysis::lower_bound(&inst);
        assert!(lb < Time::from_int(3));
    }

    #[test]
    fn lemma8_exact_p3_k2() {
        // P=3, K=2: n = 2·7 = 14 tasks; Lemma 8: T_opt > 3·4 − 2·2 = 8.
        let params = GadgetParams::new(3, 2, Time::from_ratio(1, 1000));
        let inst = x_graph(&params);
        assert_eq!(inst.len(), 14);
        let opt = Optimal {
            node_limit: 200_000_000,
        }
        .makespan(&inst);
        assert!(opt > lemma8_bound(&params));
    }

    #[test]
    fn x_critical_path_small_relative_to_lemma8() {
        // Lb(X_P(K)) ≈ K^(P−1) while Lemma 8 gives ≈ P·K^(P−1).
        let params = GadgetParams::new(4, 2, Time::from_ratio(1, 1000));
        let inst = x_graph(&params);
        let lb = analysis::lower_bound(&inst);
        let l8 = lemma8_bound(&params);
        assert!(l8.ratio(lb).to_f64() > params.p as f64 / 2.0);
    }
}
