//! The alternating chains `L^i_P(K)` (the paper's Definition 6).
//!
//! `L^i_P(K)` is a linear chain of `2·K^(P−i−1)` tasks alternating a
//! **blue** task (length `K^i`, 1 processor) and a **red** task (length
//! `ε`, all `P` processors). Blue first, red last. These chains are the
//! building blocks of every lower-bound gadget in Section 6.

use rigid_dag::{TaskGraph, TaskId, TaskSpec};
use rigid_time::Time;

/// Parameters shared by all Section 6 gadgets.
#[derive(Clone, Copy, Debug)]
pub struct GadgetParams {
    /// Platform size `P ≥ 1`.
    pub p: u32,
    /// Base `K ≥ 2`.
    pub k: u32,
    /// Length `ε > 0` of the all-processor separator tasks.
    pub eps: Time,
}

impl GadgetParams {
    /// Creates and validates gadget parameters.
    ///
    /// # Panics
    /// Panics if `p == 0`, `k < 2`, `eps ≤ 0`, or `K^(P−1)` overflows the
    /// supported range.
    pub fn new(p: u32, k: u32, eps: Time) -> Self {
        assert!(p >= 1, "P must be at least 1");
        assert!(k >= 2, "K must be at least 2 (Section 6 uses K ≥ 2)");
        assert!(eps.is_positive(), "ε must be positive");
        assert!(
            (k as i64).checked_pow(p - 1).is_some(),
            "K^(P-1) overflows i64; choose smaller P or K"
        );
        GadgetParams { p, k, eps }
    }

    /// `K^e` as an exact integer time.
    pub fn k_pow(&self, e: u32) -> Time {
        Time::from_int((self.k as i64).pow(e))
    }

    /// Number of tasks in chain `L^i_P(K)`: `2·K^(P−i−1)`.
    pub fn chain_len(&self, i: u32) -> usize {
        assert!(i < self.p, "chain index i must be in [0, P-1]");
        2 * (self.k as usize).pow(self.p - i - 1)
    }

    /// Blue task spec of chain `i`: length `K^i`, one processor.
    pub fn blue(&self, i: u32) -> TaskSpec {
        TaskSpec::new(self.k_pow(i), 1)
    }

    /// Red task spec: length `ε`, all `P` processors.
    pub fn red(&self) -> TaskSpec {
        TaskSpec::new(self.eps, self.p)
    }
}

/// Appends the chain `L^i_P(K)` to `graph` and returns its task ids in
/// chain order (blue, red, blue, red, …).
pub fn append_chain(graph: &mut TaskGraph, params: &GadgetParams, i: u32) -> Vec<TaskId> {
    let pairs = (params.k as usize).pow(params.p - i - 1);
    let mut ids = Vec::with_capacity(2 * pairs);
    let mut prev: Option<TaskId> = None;
    for pair in 0..pairs {
        let blue = graph.add_task(params.blue(i).with_label(format!("L{i}b{pair}")));
        if let Some(pv) = prev {
            graph.add_edge(pv, blue);
        }
        let red = graph.add_task(params.red().with_label(format!("L{i}r{pair}")));
        graph.add_edge(blue, red);
        ids.push(blue);
        ids.push(red);
        prev = Some(red);
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> GadgetParams {
        GadgetParams::new(3, 3, Time::from_ratio(1, 100))
    }

    #[test]
    fn chain_lengths_match_definition6() {
        let p = params();
        // Figure 8 (X_3(3)): chain 0 has 18 tasks, chain 1 has 6, chain 2
        // has 2.
        assert_eq!(p.chain_len(0), 18);
        assert_eq!(p.chain_len(1), 6);
        assert_eq!(p.chain_len(2), 2);
    }

    #[test]
    fn chain_structure() {
        let p = params();
        let mut g = TaskGraph::new();
        let ids = append_chain(&mut g, &p, 1);
        assert_eq!(ids.len(), 6);
        // Alternating specs.
        for (idx, &id) in ids.iter().enumerate() {
            let spec = g.spec(id);
            if idx % 2 == 0 {
                assert_eq!(spec.time, Time::from_int(3)); // K^1
                assert_eq!(spec.procs, 1);
            } else {
                assert_eq!(spec.time, Time::from_ratio(1, 100));
                assert_eq!(spec.procs, 3);
            }
        }
        // Strict chain: each task precedes the next.
        for w in ids.windows(2) {
            assert!(g.succs(w[0]).contains(&w[1]));
        }
        assert!(g.preds(ids[0]).is_empty());
        assert!(g.succs(*ids.last().unwrap()).is_empty());
    }

    #[test]
    #[should_panic(expected = "K must be at least 2")]
    fn k1_rejected() {
        let _ = GadgetParams::new(3, 1, Time::ONE);
    }

    #[test]
    fn k_pow_values() {
        let p = params();
        assert_eq!(p.k_pow(0), Time::ONE);
        assert_eq!(p.k_pow(2), Time::from_int(9));
    }
}
