//! Gadget edge cases and structural invariants.

use rigid_baselines::asap;
use rigid_dag::analysis;
use rigid_lowerbounds::chains::{append_chain, GadgetParams};
use rigid_lowerbounds::xgraph::{lemma8_bound, x_graph, x_task_count};
use rigid_lowerbounds::ygraph::{lemma9_optimal, y_graph, YOptimal};
use rigid_lowerbounds::zgraph::{lemma10_bound, lemma11_bound, ZAdversary};
use rigid_sim::engine;
use rigid_sim::offline::run_offline;
use rigid_time::Time;

#[test]
fn p1_gadgets_degenerate() {
    // P = 1: a single chain of one blue + one red task.
    let params = GadgetParams::new(1, 2, Time::from_ratio(1, 16));
    assert_eq!(params.chain_len(0), 2);
    let x = x_graph(&params);
    assert_eq!(x.len(), 2);
    assert_eq!(lemma8_bound(&params), Time::from_int(1));
    let y = y_graph(&params, 0);
    assert_eq!(y.len(), 2);
    assert_eq!(
        lemma9_optimal(&params, 0),
        Time::ONE + Time::from_ratio(1, 16)
    );
    let s = run_offline(&mut YOptimal, &y);
    assert_eq!(s.makespan(), lemma9_optimal(&params, 0));
}

#[test]
fn one_layer_adversary_is_just_x() {
    let params = GadgetParams::new(3, 2, Time::from_ratio(1, 48));
    let mut adv = ZAdversary::with_layers(params, 1);
    assert_eq!(adv.task_count(), x_task_count(&params));
    let result = engine::EngineConfig::new().run(&mut adv, &mut asap());
    let inst = adv.committed_instance();
    result.schedule.assert_valid(&inst);
    assert_eq!(inst.len(), x_task_count(&params));
    // One layer: the makespan must already exceed Lemma 8.
    assert!(result.makespan() > lemma8_bound(&params));
}

#[test]
fn chain_ids_are_contiguous_alternation() {
    let params = GadgetParams::new(4, 2, Time::from_ratio(1, 64));
    let mut g = rigid_dag::TaskGraph::new();
    let ids = append_chain(&mut g, &params, 2);
    assert_eq!(ids.len(), params.chain_len(2));
    // Red tasks use all P, blue tasks one processor, strictly
    // alternating.
    for (i, &id) in ids.iter().enumerate() {
        let p = g.spec(id).procs;
        assert_eq!(p, if i % 2 == 0 { 1 } else { 4 }, "position {i}");
    }
}

#[test]
fn z_lower_bounds_are_consistent() {
    // Lemma 10 over Lemma 11 gives the Theorem floor; both positive and
    // ordered for a spread of parameters.
    for (p, k) in [(2u32, 2u32), (3, 2), (4, 3), (5, 2)] {
        let params = GadgetParams::new(p, k, Time::from_ratio(1, 16 * p as i64));
        let l10 = lemma10_bound(&params);
        let l11 = lemma11_bound(&params);
        assert!(l10.is_positive() && l11.is_positive());
        // The ratio floor (P−(P−1)/K)/(2(1+PKε)) is under P/2 and over
        // P/4 for these parameters.
        let floor = l10.ratio(l11).to_f64();
        assert!(floor < p as f64 / 2.0 + 1e-9);
        assert!(
            floor > p as f64 / 4.0 - 1e-9,
            "floor {floor} for P={p},K={k}"
        );
    }
}

#[test]
fn x_graph_lb_matches_closed_form() {
    // Lb(X_P(K)) = max over chains of chain length (critical path) vs
    // area/P; for small ε the critical path of chain P−1 dominates:
    // K^(P−1) + ε.
    let params = GadgetParams::new(4, 2, Time::from_ratio(1, 1024));
    let inst = x_graph(&params);
    let lb = analysis::lower_bound(&inst);
    let expected_cp = Time::from_int(8) + Time::from_ratio(1, 1024);
    assert!(lb >= expected_cp);
    // And it is within 2× of that (area term small).
    assert!(lb <= expected_cp.mul_int(2));
}

#[test]
fn adversary_graph_grows_layer_by_layer() {
    let params = GadgetParams::new(2, 2, Time::from_ratio(1, 32));
    let mut adv = ZAdversary::new(params);
    // Before running: nothing committed yet (initial not called).
    assert_eq!(adv.committed_instance().len(), 0);
    let _ = engine::EngineConfig::new().run(&mut adv, &mut asap());
    assert_eq!(adv.committed_instance().len(), 2 * x_task_count(&params));
    assert_eq!(adv.pivots().len(), 2);
}

#[test]
#[should_panic(expected = "witness requires a completed run")]
fn witness_before_run_panics() {
    let params = GadgetParams::new(2, 2, Time::from_ratio(1, 32));
    let adv = ZAdversary::new(params);
    let _ = adv.witness_schedule();
}

#[test]
#[should_panic(expected = "overflows")]
fn gadget_params_overflow_guard() {
    let _ = GadgetParams::new(64, 3, Time::ONE);
}
