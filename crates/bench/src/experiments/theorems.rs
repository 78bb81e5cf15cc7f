//! Regenerators for the theorem-level experiments: the competitive-ratio
//! upper bounds (Theorems 1–2) over random ensembles and the lower-bound
//! scaling (Theorems 3–4) against the adaptive adversary.

use crate::harness::{f3, Sched, Table};
use catbatch::lmatrix::{theorem1_ratio_bound, theorem2_ratio_bound};
use rigid_baselines::Priority;
use rigid_dag::gen::{family, LengthDist, ProcDist, TaskSampler};
use rigid_exec::{default_jobs, ordered_map};
use rigid_lowerbounds::theorems::{
    theorem3_length_ratio, theorem3_params, theorem3_ratio_floor, theorem3_task_count,
    theorem4_params, theorem4_ratio_floor,
};
use rigid_lowerbounds::zgraph::ZAdversary;
use rigid_sim::engine;
use rigid_time::Time;

/// E11 — Theorem 1: worst observed `T_CatBatch/Lb` over random DAG
/// families, swept over the task count `n`, against `log₂(n) + 3`.
pub fn thm1_ratio_n() -> String {
    let mut out = String::from(
        "== E11 / Theorem 1: CatBatch ratio vs log2(n)+3 over random ensembles ==\n",
    );
    let mut table = Table::new(&[
        "n", "bound", "worst cb", "mean cb", "worst list-fifo", "families×seeds",
    ]);
    let seeds: Vec<u64> = (0..6).collect();
    for n in [8usize, 32, 128, 512, 2048] {
        let results = ordered_map(seeds.clone(), default_jobs(), |_, seed| {
            let sampler = TaskSampler::default_mix();
            let mut worst_cb = 1.0f64;
            let mut sum_cb = 0.0f64;
            let mut count = 0usize;
            let mut worst_list = 1.0f64;
            for (_, inst) in family(seed, n, &sampler, 16) {
                let r = Sched::CatBatch.ratio(&inst);
                worst_cb = worst_cb.max(r);
                sum_cb += r;
                count += 1;
                worst_list = worst_list.max(Sched::List(Priority::Fifo).ratio(&inst));
            }
            (worst_cb, sum_cb, count, worst_list)
        });
        let worst_cb = results.iter().map(|r| r.0).fold(1.0, f64::max);
        let total: f64 = results.iter().map(|r| r.1).sum();
        let count: usize = results.iter().map(|r| r.2).sum();
        let worst_list = results.iter().map(|r| r.3).fold(1.0, f64::max);
        let bound = theorem1_ratio_bound(n);
        assert!(
            worst_cb <= bound + 1e-9,
            "Theorem 1 violated at n={n}: {worst_cb} > {bound}"
        );
        table.row(vec![
            n.to_string(),
            f3(bound),
            f3(worst_cb),
            f3(total / count as f64),
            f3(worst_list),
            format!("{}×{}", count / seeds.len(), seeds.len()),
        ]);
    }
    out.push_str(&table.render());
    out.push_str("CatBatch never crosses the Theorem 1 bound; in the mean it sits far below.\n");
    out
}

/// E12 — Theorem 2: worst observed ratio against `log₂(M/m) + 6`,
/// sweeping the length spread `M/m` with log-uniform lengths.
pub fn thm2_ratio_mm() -> String {
    let mut out = String::from(
        "== E12 / Theorem 2: CatBatch ratio vs log2(M/m)+6, sweeping M/m ==\n",
    );
    let mut table = Table::new(&["M/m", "bound", "worst cb", "mean cb", "runs"]);
    for spread_log2 in [0u32, 2, 4, 6, 8, 10] {
        let m_len = 1.0f64;
        let big_m = (1u64 << spread_log2) as f64;
        let results = ordered_map((0..8u64).collect(), default_jobs(), |_, seed| {
            let sampler = TaskSampler {
                length: if spread_log2 == 0 {
                    LengthDist::Constant(Time::ONE)
                } else {
                    LengthDist::LogUniform {
                        min: m_len,
                        max: big_m,
                    }
                },
                procs: ProcDist::PowersOfTwo,
            };
            let mut worst = 1.0f64;
            let mut sum = 0.0;
            let mut count = 0usize;
            for (_, inst) in family(seed, 120, &sampler, 16) {
                let stats = rigid_dag::analysis::stats(&inst);
                let r = Sched::CatBatch.ratio(&inst);
                // Check against the instance's own actual M/m.
                let bound = theorem2_ratio_bound(stats.min_len, stats.max_len);
                assert!(r <= bound + 1e-9, "Theorem 2 violated: ratio {r} > {bound}");
                worst = worst.max(r);
                sum += r;
                count += 1;
            }
            (worst, sum, count)
        });
        let worst = results.iter().map(|r| r.0).fold(1.0, f64::max);
        let total: f64 = results.iter().map(|r| r.1).sum();
        let count: usize = results.iter().map(|r| r.2).sum();
        let nominal_bound = (big_m / m_len).log2() + 6.0;
        table.row(vec![
            format!("2^{spread_log2}"),
            f3(nominal_bound),
            f3(worst),
            f3(total / count as f64),
            count.to_string(),
        ]);
    }
    out.push_str(&table.render());
    out.push_str("Equal lengths (M/m = 1) keep CatBatch within the constant 6 of the paper.\n");
    out
}

/// E13 — Theorem 3: the adaptive adversary forces every online algorithm
/// to a ratio scaling like `Θ(log n)`; the measured ratio divided by the
/// witness tracks `(P+1)/4.5` and exceeds `log₂(n)/5`.
pub fn thm3_lower_bound() -> String {
    let mut out = String::from(
        "== E13 / Theorem 3: lower-bound scaling on Z^Alg_P(2) (vs offline witness) ==\n",
    );
    let mut table = Table::new(&[
        "P",
        "n",
        "M/m",
        "alg",
        "ratio",
        "floor (P+1)/4.5",
        "log2(n)/5",
        "log2(M/m)/5",
    ]);
    for p in [3u32, 4, 5, 6, 7] {
        let params = theorem3_params(p);
        for sched in [Sched::List(Priority::Fifo), Sched::CatBatch] {
            let mut adv = ZAdversary::new(params);
            let mut s = sched.build(p);
            let result = engine::EngineConfig::new().run(&mut adv, s.as_mut());
            let witness = adv.witness_schedule();
            witness.assert_valid(&adv.committed_instance());
            let ratio = result.makespan().ratio(witness.makespan()).to_f64();
            let n = theorem3_task_count(p);
            let mm = theorem3_length_ratio(p);
            // The adversary's guarantee: ratio above both log-terms/5 once
            // P is past the small constants (check for ASAP, which the
            // derivation targets; CatBatch obeys the same Lemma 10 floor).
            table.row(vec![
                p.to_string(),
                n.to_string(),
                format!("{mm:.0}"),
                sched.name(),
                f3(ratio),
                f3(theorem3_ratio_floor(p)),
                f3((n as f64).log2() / 5.0),
                f3(mm.log2() / 5.0),
            ]);
            // The rigorous per-instance floor: T_alg ≥ Lemma 10 while the
            // witness < Lemma 11, so the measured ratio must exceed their
            // quotient (= (P+1)/4.5 for K=2, ε=1/(16P)). The log(n)/5
            // columns are the asymptotic targets the floor overtakes.
            let rigorous = rigid_lowerbounds::zgraph::lemma10_bound(&params)
                .ratio(rigid_lowerbounds::zgraph::lemma11_bound(&params))
                .to_f64();
            assert!(
                ratio > rigorous,
                "P={p} {}: ratio {ratio} below the Lemma 10/11 floor {rigorous}",
                sched.name()
            );
        }
    }
    out.push_str(&table.render());
    out.push_str(
        "The measured ratio grows linearly in P ≈ log2(n), while log2(n)/5 grows\nslower — no online algorithm can be (log2(n)/5 + C)-competitive.\n",
    );
    out
}

/// E14 — Theorem 4: with `K > (P−1)/μ` and tiny `ε`, the adversary forces
/// ratio `> P/2 − μ`.
pub fn thm4_p_over_2() -> String {
    let mut out = String::from("== E14 / Theorem 4: forcing ratio P/2 − μ on Z^Alg_P(K) ==\n");
    let mu = 0.5f64;
    let mut table = Table::new(&["P", "K", "ε", "n", "ratio(asap)", "P/2 − μ", "floor"]);
    for p in [2u32, 3, 4] {
        let params = theorem4_params(p, mu);
        let mut adv = ZAdversary::new(params);
        let mut s = Sched::List(Priority::Fifo).build(p);
        let result = engine::EngineConfig::new().run(&mut adv, s.as_mut());
        let witness = adv.witness_schedule();
        witness.assert_valid(&adv.committed_instance());
        let ratio = result.makespan().ratio(witness.makespan()).to_f64();
        let target = p as f64 / 2.0 - mu;
        assert!(
            ratio > target,
            "P={p}: measured ratio {ratio} ≤ P/2 − μ = {target}"
        );
        table.row(vec![
            p.to_string(),
            params.k.to_string(),
            format!("{}", params.eps),
            adv.task_count().to_string(),
            f3(ratio),
            f3(target),
            f3(theorem4_ratio_floor(&params)),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "The measured online/offline gap exceeds P/2 − μ, so the trivial P-\ncompetitiveness of busy schedulers is tight up to a factor 2.\n",
    );
    out
}
