//! Regenerators for the lower-bound gadget figures (Figures 8–10) and
//! the associated Lemmas 8–11.

use crate::harness::{f3, ft, Sched, Table};
use rigid_baselines::{Optimal, Priority};
use rigid_dag::analysis;
use rigid_lowerbounds::chains::GadgetParams;
use rigid_lowerbounds::xgraph::{lemma8_bound, x_graph, x_task_count};
use rigid_lowerbounds::ygraph::{lemma9_optimal, y_graph, YOptimal};
use rigid_lowerbounds::zgraph::{lemma10_bound, lemma11_bound, ZAdversary};
use rigid_sim::engine;
use rigid_sim::offline::run_offline;
use rigid_time::Time;

/// E08 — Figure 8 / Lemma 8: the `X_P(K)` gadget. Structure counts, the
/// Lemma 8 lower bound, and (for small sizes) the exact optimum.
pub fn fig08_xgraph() -> String {
    let mut out = String::from("== E08 / Figure 8: X_P(K) and Lemma 8 ==\n");
    // Structure of the paper's drawing X_3(3).
    let params = GadgetParams::new(3, 3, Time::from_ratio(1, 100));
    out.push_str(&format!(
        "X_3(3): chains of 18, 6, 2 tasks; n = {} (paper Figure 8)\n",
        x_task_count(&params)
    ));
    assert_eq!(x_task_count(&params), 26);

    let mut table = Table::new(&["P", "K", "n", "Lb", "Lemma8", "T_opt (B&B)", "opt>L8?"]);
    for (p, k) in [(2u32, 2u32), (2, 3), (3, 2)] {
        let params = GadgetParams::new(p, k, Time::from_ratio(1, 16 * p as i64));
        let inst = x_graph(&params);
        let lb = analysis::lower_bound(&inst);
        let l8 = lemma8_bound(&params);
        let opt = Optimal {
            node_limit: 500_000_000,
        }
        .makespan(&inst);
        assert!(opt > l8, "Lemma 8 violated for P={p}, K={k}");
        table.row(vec![
            p.to_string(),
            k.to_string(),
            inst.len().to_string(),
            ft(lb),
            ft(l8),
            ft(opt),
            "yes".into(),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "Lb sees only ≈ K^(P−1); the true optimum exceeds P·K^(P−1) − (P−1)K^(P−2)\n(Remark 2: the Θ(log n) gap between Lb and OPT).\n",
    );
    out
}

/// E09 — Figure 9 / Lemma 9: the `Y^i_P(K)` gadget and its exact optimal
/// schedule with full utilization.
pub fn fig09_ygraph() -> String {
    let mut out = String::from("== E09 / Figure 9: Y^i_P(K) and Lemma 9 ==\n");
    let mut table = Table::new(&[
        "P",
        "K",
        "i",
        "n",
        "Lemma9 formula",
        "constructive",
        "full util?",
    ]);
    for (p, k, i) in [(4u32, 2u32, 1u32), (3, 2, 0), (3, 3, 1), (5, 2, 2)] {
        let params = GadgetParams::new(p, k, Time::from_ratio(1, 16 * p as i64));
        let inst = y_graph(&params, i);
        let s = run_offline(&mut YOptimal, &inst);
        let formula = lemma9_optimal(&params, i);
        assert_eq!(s.makespan(), formula, "Lemma 9 formula mismatch");
        let full = s
            .usage_profile()
            .iter()
            .all(|&(t, used)| t >= s.makespan() || used == p as u64);
        assert!(full, "Y schedule must use all processors at all times");
        table.row(vec![
            p.to_string(),
            k.to_string(),
            i.to_string(),
            inst.len().to_string(),
            ft(formula),
            ft(s.makespan()),
            "yes".into(),
        ]);
    }
    out.push_str(&table.render());
    out.push_str("Y^1_4(2) (Figure 9): 4 identical chains of 8 tasks, n = 32.\n");
    out
}

/// E10 — Figure 10 / Lemmas 10–11: the adaptive adversary `Z^Alg_P(K)`.
/// Runs real schedulers against it and compares with the offline witness.
pub fn fig10_zgraph() -> String {
    let mut out = String::from("== E10 / Figure 10: the adaptive adversary Z^Alg_P(K) ==\n");
    let mut table = Table::new(&[
        "P",
        "K",
        "n",
        "alg",
        "T_alg",
        "Lemma10",
        "witness",
        "Lemma11",
        "T_alg/witness",
    ]);
    let schedulers = [
        Sched::List(Priority::Fifo),
        Sched::List(Priority::LongestFirst),
        Sched::CatBatch,
    ];
    for (p, k) in [(3u32, 2u32), (4, 2), (5, 2)] {
        let params = GadgetParams::new(p, k, Time::from_ratio(1, 16 * p as i64));
        for sched in schedulers {
            let mut adv = ZAdversary::new(params);
            let mut s = sched.build(p);
            let result = engine::EngineConfig::new().run(&mut adv, s.as_mut());
            let inst = adv.committed_instance();
            result.schedule.assert_valid(&inst);
            assert!(
                result.makespan() >= lemma10_bound(&params),
                "Lemma 10 violated by {}",
                sched.name()
            );
            let witness = adv.witness_schedule();
            witness.assert_valid(&inst);
            assert!(witness.makespan() < lemma11_bound(&params));
            table.row(vec![
                p.to_string(),
                k.to_string(),
                inst.len().to_string(),
                sched.name(),
                ft(result.makespan()),
                ft(lemma10_bound(&params)),
                ft(witness.makespan()),
                ft(lemma11_bound(&params)),
                f3(result.makespan().ratio(witness.makespan()).to_f64()),
            ]);
        }
    }
    out.push_str(&table.render());
    out.push_str(
        "Every online algorithm (CatBatch included) pays ≥ Lemma 10 against its\nown adversary; the offline witness stays under Lemma 11. The gap grows as P/2.\n",
    );
    out
}
