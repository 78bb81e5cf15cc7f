//! The adaptive adversary `Z^Alg_P(K)` (Definition 9, Figure 10) and the
//! Lemma 10 / Lemma 11 bounds.
//!
//! `Z^Alg_P(K)` is `P` layers, each an `X_P(K)`, where layer `ℓ+1` hangs
//! off whichever task of layer `ℓ` the *scheduler under attack* completed
//! last. The construction therefore cannot be written down in advance —
//! it is an [`InstanceSource`] that watches the run and commits the graph
//! as it goes. This is exactly the adversary of the paper's lower-bound
//! proofs: any online algorithm is forced to pay `≈ P·T_opt(X_P(K))`
//! (Lemma 10) while an offline scheduler, knowing the pivots, finishes in
//! `< 2P(K^(P−1) + P·K^P·ε)` (Lemma 11) — the **witness schedule** built
//! here makes that offline bound concrete and machine-checkable.

use crate::chains::GadgetParams;
use rigid_dag::{Instance, InstanceSource, ReleasedTask, TaskGraph, TaskId};
use rigid_sim::Schedule;
use rigid_time::Time;
use std::collections::HashMap;

/// The adaptive adversary source.
pub struct ZAdversary {
    params: GadgetParams,
    /// Number of layers (`P` in Definition 9; configurable for scaled-down
    /// experiments).
    layers: u32,
    graph: TaskGraph,
    /// Successor within the chain, if any.
    next_in_chain: HashMap<TaskId, TaskId>,
    /// `(layer, chain index i)` of each task.
    locus: HashMap<TaskId, (u32, u32)>,
    /// Uncompleted task count per materialized layer.
    remaining: Vec<usize>,
    /// Last-completed task of each fully completed layer (the pivots).
    pivots: Vec<TaskId>,
    /// Chain task ids: `chains[layer][i]` in chain order.
    chains: Vec<Vec<Vec<TaskId>>>,
    released: usize,
    total: usize,
}

impl ZAdversary {
    /// Creates the adversary with the canonical `P` layers.
    pub fn new(params: GadgetParams) -> Self {
        Self::with_layers(params, params.p)
    }

    /// Creates the adversary with an explicit layer count (Definition 9
    /// uses `layers = P`; smaller values scale experiments down).
    pub fn with_layers(params: GadgetParams, layers: u32) -> Self {
        assert!(layers >= 1);
        let per_layer: usize = (0..params.p).map(|i| params.chain_len(i)).sum();
        ZAdversary {
            params,
            layers,
            graph: TaskGraph::new(),
            next_in_chain: HashMap::new(),
            locus: HashMap::new(),
            remaining: Vec::new(),
            pivots: Vec::new(),
            chains: Vec::new(),
            released: 0,
            total: per_layer * layers as usize,
        }
    }

    /// Total number of tasks the adversary will commit:
    /// `layers · 2(K^P − 1)/(K − 1)`.
    pub fn task_count(&self) -> usize {
        self.total
    }

    /// Materializes one layer (all chains), wiring heads to `gate` if
    /// given; returns the released head tasks.
    fn materialize_layer(&mut self, gate: Option<TaskId>) -> Vec<ReleasedTask> {
        let layer = self.chains.len() as u32;
        let mut layer_chains = Vec::with_capacity(self.params.p as usize);
        let mut heads = Vec::with_capacity(self.params.p as usize);
        let mut count = 0usize;
        for i in 0..self.params.p {
            let pairs = (self.params.k as usize).pow(self.params.p - i - 1);
            let mut chain = Vec::with_capacity(2 * pairs);
            let mut prev: Option<TaskId> = None;
            for pair in 0..pairs {
                let blue = self.graph.add_task(
                    self.params
                        .blue(i)
                        .with_label(format!("Z{layer}.L{i}b{pair}")),
                );
                let red = self.graph.add_task(
                    self.params
                        .red()
                        .with_label(format!("Z{layer}.L{i}r{pair}")),
                );
                if let Some(pv) = prev {
                    self.graph.add_edge(pv, blue);
                    self.next_in_chain.insert(pv, blue);
                }
                self.graph.add_edge(blue, red);
                self.next_in_chain.insert(blue, red);
                self.locus.insert(blue, (layer, i));
                self.locus.insert(red, (layer, i));
                chain.push(blue);
                chain.push(red);
                prev = Some(red);
                count += 2;
            }
            let head = chain[0];
            if let Some(g) = gate {
                self.graph.add_edge(g, head);
            }
            heads.push(ReleasedTask {
                id: head,
                spec: self.graph.spec(head).clone(),
                preds: gate.into_iter().collect(),
            });
            layer_chains.push(chain);
        }
        self.chains.push(layer_chains);
        self.remaining.push(count);
        self.released += heads.len();
        heads
    }

    /// The committed instance (valid once the run finishes; partially
    /// committed before that).
    pub fn committed_instance(&self) -> Instance {
        Instance::new(self.graph.clone(), self.params.p)
    }

    /// The pivot tasks (last-completed per layer), in layer order.
    pub fn pivots(&self) -> &[TaskId] {
        &self.pivots
    }

    /// Builds the Lemma 11 two-phase offline witness schedule for the
    /// committed instance: first the pivot chains (sequentially, layer by
    /// layer), then the remaining chains grouped by chain index `i` and
    /// processed like `Y^i_P(K)` (blue rounds in parallel, red rounds
    /// sequential).
    ///
    /// # Panics
    /// Panics if the run has not completed (pivots missing).
    pub fn witness_schedule(&self) -> Schedule {
        assert_eq!(
            self.pivots.len() as u32,
            self.layers,
            "witness requires a completed run"
        );
        let g = &self.graph;
        let p = self.params.p;
        let mut sched = Schedule::new(p);
        let mut now = Time::ZERO;

        // Identify each layer's pivot chain.
        let pivot_chain_of_layer: Vec<u32> = self.pivots.iter().map(|t| self.locus[t].1).collect();

        // Phase 1: pivot chains of layers 0..layers−2, sequential.
        for layer in 0..self.layers.saturating_sub(1) {
            let i = pivot_chain_of_layer[layer as usize];
            for &id in &self.chains[layer as usize][i as usize] {
                let spec = g.spec(id);
                sched.place(id, now, now + spec.time, spec.procs);
                now += spec.time;
            }
        }

        // Phase 2: remaining chains grouped by chain index.
        for i in 0..p {
            let group: Vec<&Vec<TaskId>> = (0..self.layers)
                .filter(|&l| !(l + 1 < self.layers && pivot_chain_of_layer[l as usize] == i))
                .map(|l| &self.chains[l as usize][i as usize])
                .collect();
            if group.is_empty() {
                continue;
            }
            let rounds = group[0].len() / 2;
            for r in 0..rounds {
                let blue_len = g.spec(group[0][2 * r]).time;
                for chain in &group {
                    let id = chain[2 * r];
                    sched.place(id, now, now + blue_len, 1);
                }
                now += blue_len;
                for chain in &group {
                    let id = chain[2 * r + 1];
                    sched.place(id, now, now + self.params.eps, p);
                    now += self.params.eps;
                }
            }
        }
        sched
    }
}

impl InstanceSource for ZAdversary {
    fn procs(&self) -> u32 {
        self.params.p
    }

    fn initial_into(&mut self, out: &mut Vec<ReleasedTask>) {
        assert!(self.chains.is_empty(), "initial called twice");
        let layer = self.materialize_layer(None);
        out.extend(layer);
    }

    fn on_complete_into(
        &mut self,
        task: TaskId,
        _completion_index: u64,
        out: &mut Vec<ReleasedTask>,
    ) {
        let (layer, _) = *self
            .locus
            .get(&task)
            .unwrap_or_else(|| panic!("completion of unknown task {task}"));
        let rem = &mut self.remaining[layer as usize];
        assert!(*rem > 0, "layer {layer} over-completed");
        *rem -= 1;

        let mut in_chain = false;
        if let Some(&next) = self.next_in_chain.get(&task) {
            self.released += 1;
            in_chain = true;
            out.push(ReleasedTask {
                id: next,
                spec: self.graph.spec(next).clone(),
                preds: vec![task],
            });
        }
        if self.remaining[layer as usize] == 0 {
            // `task` is the layer's last completion: the pivot. The
            // in-chain release above is empty here (a layer finishes with
            // a chain tail).
            assert!(!in_chain, "pivot had an in-chain successor");
            self.pivots.push(task);
            if (self.chains.len() as u32) < self.layers {
                let layer = self.materialize_layer(Some(task));
                out.extend(layer);
            }
        }
    }

    fn expects_more(&self) -> bool {
        self.released < self.total
    }
}

/// Lemma 10: any online algorithm takes at least
/// `P²·K^(P−1) − P(P−1)·K^(P−2)` on `Z^Alg_P(K)` (with the canonical `P`
/// layers).
pub fn lemma10_bound(params: &GadgetParams) -> Time {
    let (p, k) = (params.p as i64, params.k as i64);
    if params.p == 1 {
        return Time::from_int(1);
    }
    Time::from_int(p * p * k.pow(params.p - 1) - p * (p - 1) * k.pow(params.p - 2))
}

/// Lemma 11: an offline scheduler finishes `Z^Alg_P(K)` in strictly less
/// than `2P(K^(P−1) + P·K^P·ε)`.
pub fn lemma11_bound(params: &GadgetParams) -> Time {
    let (p, k) = (params.p as i64, params.k as i64);
    let base = Time::from_int(k.pow(params.p - 1));
    let eps_term = params.eps.mul_int(p * k.pow(params.p));
    (base + eps_term).mul_int(2 * p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use catbatch::CatBatch;
    use rigid_baselines::asap;
    use rigid_sim::engine;

    fn params() -> GadgetParams {
        GadgetParams::new(3, 2, Time::from_ratio(1, 48)) // ε = 1/(16P)
    }

    #[test]
    fn task_count_formula() {
        // P=3, K=2: per layer 2(2^3−1) = 14; three layers = 42.
        let adv = ZAdversary::new(params());
        assert_eq!(adv.task_count(), 42);
    }

    #[test]
    fn adversary_drives_asap_run() {
        let mut adv = ZAdversary::new(params());
        let mut sched = asap();
        let result = engine::EngineConfig::new().run(&mut adv, &mut sched);
        assert_eq!(result.schedule.len(), 42);
        let inst = adv.committed_instance();
        result.schedule.assert_valid(&inst);
        // Lemma 10 bound holds for ASAP (it holds for any algorithm).
        assert!(
            result.makespan() >= lemma10_bound(&params()),
            "ASAP {} below Lemma 10 {}",
            result.makespan(),
            lemma10_bound(&params())
        );
    }

    #[test]
    fn adversary_drives_catbatch_run() {
        let mut adv = ZAdversary::new(params());
        let mut cb = CatBatch::new();
        let result = engine::EngineConfig::new().run(&mut adv, &mut cb);
        let inst = adv.committed_instance();
        result.schedule.assert_valid(&inst);
        assert!(result.makespan() >= lemma10_bound(&params()));
    }

    #[test]
    fn witness_schedule_feasible_and_below_lemma11() {
        let mut adv = ZAdversary::new(params());
        let mut sched = asap();
        let _ = engine::EngineConfig::new().run(&mut adv, &mut sched);
        let witness = adv.witness_schedule();
        let inst = adv.committed_instance();
        witness.assert_valid(&inst);
        assert!(
            witness.makespan() < lemma11_bound(&params()),
            "witness {} not below Lemma 11 bound {}",
            witness.makespan(),
            lemma11_bound(&params())
        );
    }

    #[test]
    fn online_vs_offline_gap_grows_with_p() {
        // The ratio T_Alg / T_witness must scale like P/2 (Theorem 4's
        // engine): check it exceeds P/4 already at small sizes.
        for p in [2u32, 3, 4] {
            let params = GadgetParams::new(p, 4, Time::from_ratio(1, (16 * p) as i64));
            let mut adv = ZAdversary::new(params);
            let mut sched = asap();
            let result = engine::EngineConfig::new().run(&mut adv, &mut sched);
            let witness = adv.witness_schedule();
            witness.assert_valid(&adv.committed_instance());
            let ratio = result.makespan().ratio(witness.makespan()).to_f64();
            assert!(ratio > p as f64 / 4.0, "P={p}: ratio {ratio} too small");
        }
    }

    #[test]
    fn pivots_are_chain_tails() {
        let mut adv = ZAdversary::new(params());
        let mut sched = asap();
        let _ = engine::EngineConfig::new().run(&mut adv, &mut sched);
        assert_eq!(adv.pivots().len(), 3);
        for &piv in adv.pivots() {
            // A pivot is the final red task of some chain: no in-chain
            // successor.
            assert!(!adv.next_in_chain.contains_key(&piv));
        }
    }
}
