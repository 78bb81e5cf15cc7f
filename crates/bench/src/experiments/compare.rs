//! Cross-scheduler comparison (E15) and the strip-packing experiment
//! (E16).

use crate::harness::{f3, Sched, Table};
use rigid_baselines::{OfflineBatch, OfflineList, Priority, ShelfScheduler};
use rigid_dag::gen::{family, independent, TaskSampler};
use rigid_dag::{analysis, StaticSource};
use rigid_exec::{default_jobs, ordered_map};
use rigid_sim::engine;
use rigid_sim::offline::run_offline;

/// E15 — the head-to-head table: CatBatch vs online list policies vs the
/// offline batch comparator, mean and worst ratio to `Lb` per DAG family.
pub fn compare_schedulers() -> String {
    let mut out = String::from(
        "== E15: scheduler comparison (ratio to Lb; mean over seeds, worst in parens) ==\n",
    );
    let online: Vec<Sched> = vec![
        Sched::CatBatch,
        Sched::CatBatchBackfill,
        Sched::CatPrio,
        Sched::CatBatchStrip,
        Sched::List(Priority::Fifo),
        Sched::List(Priority::LongestFirst),
        Sched::List(Priority::MostProcsFirst),
    ];
    let seeds: Vec<u64> = (100..108).collect();
    let n = 150usize;
    let procs = 16u32;

    // family name -> per-scheduler (sum, worst, count); offline batch last.
    let family_names: Vec<&'static str> = family(0, n, &TaskSampler::default_mix(), procs)
        .into_iter()
        .map(|(name, _)| name)
        .collect();

    let all_rows = ordered_map(seeds.clone(), default_jobs(), |_, seed| {
        let sampler = TaskSampler::default_mix();
        let mut rows = Vec::new();
        for (name, inst) in family(seed, n, &sampler, procs) {
            let mut ratios = Vec::new();
            for s in &online {
                ratios.push(s.ratio(&inst));
            }
            // Offline comparators.
            let lb = analysis::lower_bound(&inst);
            let ob = run_offline(&mut OfflineBatch::greedy(), &inst);
            ratios.push(ob.makespan().ratio(lb).to_f64());
            let hlf = run_offline(&mut OfflineList::hlf(), &inst);
            ratios.push(hlf.makespan().ratio(lb).to_f64());
            rows.push((name, ratios));
        }
        rows
    });

    let mut header: Vec<String> = vec!["family".into()];
    header.extend(online.iter().map(|s| s.name()));
    header.push("offline-batch".into());
    header.push("offline-hlf".into());
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&header_refs);

    for fam in &family_names {
        let mut sums = vec![0.0f64; online.len() + 2];
        let mut worst = vec![1.0f64; online.len() + 2];
        let mut count = 0usize;
        for rows in &all_rows {
            for (name, ratios) in rows {
                if name == fam {
                    count += 1;
                    for (i, r) in ratios.iter().enumerate() {
                        sums[i] += r;
                        worst[i] = worst[i].max(*r);
                    }
                }
            }
        }
        let mut cells = vec![fam.to_string()];
        for i in 0..sums.len() {
            cells.push(format!("{} ({})", f3(sums[i] / count as f64), f3(worst[i])));
        }
        table.row(cells);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "n = {n}, P = {procs}, {} seeds. CatBatch's worst never exceeds log2(n)+3 ≈ {:.2};\nthe offline comparator's bound is log2(n+1)+2 ≈ {:.2}.\n",
        seeds.len(),
        (n as f64).log2() + 3.0,
        ((n + 1) as f64).log2() + 2.0,
    ));
    out
}

/// E16 — Remark 1: CatBatch-Strip produces valid contiguous packings; the
/// shelf baselines (NFDH/FFDH) cover the precedence-free case.
pub fn strip_packing() -> String {
    let mut out = String::from("== E16 / Remark 1: online strip packing with precedence ==\n");
    let mut table = Table::new(&[
        "workload", "n", "height(cb-strip)", "height(cb)", "Lb", "strip/cb", "valid?",
    ]);
    let sampler = TaskSampler::default_mix();
    for (name, inst) in family(777, 120, &sampler, 16) {
        let mut strip = rigid_strip::CatBatchStrip::new(inst.procs());
        let result = engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut strip);
        result.schedule.assert_valid(&inst);
        strip.packing().assert_valid();
        let cb = Sched::CatBatch.run(&inst).makespan();
        let lb = analysis::lower_bound(&inst);
        table.row(vec![
            name.to_string(),
            inst.len().to_string(),
            crate::harness::ft(result.makespan()),
            crate::harness::ft(cb),
            crate::harness::ft(lb),
            f3(result.makespan().ratio(cb).to_f64()),
            "yes".into(),
        ]);
    }
    out.push_str(&table.render());

    // Precedence-free shelf baselines (Section 2.3 context).
    out.push_str("\nIndependent rectangles (precedence-free relaxation):\n");
    let mut t2 = Table::new(&["algorithm", "height", "ratio to Lb"]);
    let inst = independent(42, 200, &sampler, 16);
    let lb = analysis::lower_bound(&inst);
    for (name, mut alg) in [
        ("nfdh", ShelfScheduler::nfdh()),
        ("ffdh", ShelfScheduler::ffdh()),
    ] {
        let s = run_offline(&mut alg, &inst);
        t2.row(vec![
            name.into(),
            crate::harness::ft(s.makespan()),
            f3(s.makespan().ratio(lb).to_f64()),
        ]);
    }
    let cb = Sched::CatBatch.run(&inst).makespan();
    t2.row(vec![
        "catbatch (online)".into(),
        crate::harness::ft(cb),
        f3(cb.ratio(lb).to_f64()),
    ]);
    out.push_str(&t2.render());
    out.push_str(
        "Contiguity costs CatBatch-Strip only the NFDH constant per batch; the\ncompetitive-ratio shape of Theorems 1–2 is preserved (strip/cb stays O(1)).\n",
    );
    // Geometric SVG of the paper example's contiguous packing.
    let fig3 = rigid_dag::paper::figure3();
    let mut strip3 = rigid_strip::CatBatchStrip::new(fig3.procs());
    let _ = engine::EngineConfig::new().run(&mut StaticSource::new(fig3.clone()), &mut strip3);
    let svg = rigid_strip::svg::render_packing_svg(
        strip3.packing(),
        fig3.graph(),
        &rigid_strip::svg::StripSvgOptions::default(),
    );
    if std::fs::create_dir_all("results").is_ok()
        && std::fs::write("results/fig_strip_figure3.svg", &svg).is_ok()
    {
        out.push_str("SVG written to results/fig_strip_figure3.svg\n");
    }
    out
}
