//! Ablation experiments for the design decisions called out in
//! DESIGN.md and the paper's Section 7 heuristics.
//!
//! * E17 — the **batch barrier** ablation: plain CatBatch vs
//!   guarantee-preserving backfilling vs fully work-conserving category
//!   priority vs plain ASAP, on benign ensembles *and* on the
//!   adversarial gadgets. The punchline mirrors the paper: dropping the
//!   barrier helps on benign inputs but re-opens the `Θ(P)` trap;
//!   backfilling keeps the guarantee and recovers most of the benign
//!   loss.
//! * E18 — **estimate robustness**: CatBatch under multiplicative
//!   execution-time noise (the first future-work question of Section 7).

use crate::harness::{f3, Sched, Table};
use rigid_baselines::Priority;
use rigid_dag::analysis;
use rigid_dag::gen::{family, TaskSampler};
use rigid_dag::paper::intro_example;
use rigid_exec::{default_jobs, ordered_map};
use rigid_time::Time;

/// E17 — batch-barrier ablation.
pub fn ablation_barrier() -> String {
    let mut out =
        String::from("== E17: barrier ablation — CatBatch vs backfill vs work-conserving ==\n");
    let contenders = [
        Sched::CatBatch,
        Sched::CatBatchBackfill,
        Sched::CatPrio,
        Sched::List(Priority::Fifo),
    ];

    // Benign side: mean ratio over the random ensemble.
    let seeds: Vec<u64> = (300..308).collect();
    let results = ordered_map(seeds, default_jobs(), |_, seed| {
        let sampler = TaskSampler::default_mix();
        let mut sums = [0.0f64; 4];
        let mut count = 0usize;
        for (_, inst) in family(seed, 120, &sampler, 16) {
            for (i, s) in contenders.iter().enumerate() {
                sums[i] += s.ratio(&inst);
            }
            count += 1;
        }
        (sums, count)
    });
    let mut sums = [0.0f64; 4];
    let mut count = 0usize;
    for (s, c) in results {
        for i in 0..4 {
            sums[i] += s[i];
        }
        count += c;
    }

    // Adversarial side: the Figure 1 trap at P = 16.
    let trap = intro_example(16, Time::from_ratio(1, 100));
    let trap_lb = analysis::lower_bound(&trap);

    let mut table = Table::new(&[
        "scheduler",
        "mean ratio (benign)",
        "ratio (Figure 1 trap, P=16)",
        "worst-case guarantee",
    ]);
    for (i, s) in contenders.iter().enumerate() {
        let trap_ratio = s.run(&trap).makespan().ratio(trap_lb).to_f64();
        let guarantee = match s {
            Sched::CatBatch | Sched::CatBatchBackfill => "log2(n)+3",
            _ => "P (trivial only)",
        };
        table.row(vec![
            s.name(),
            f3(sums[i] / count as f64),
            f3(trap_ratio),
            guarantee.into(),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "Work-conserving variants win slightly on benign inputs but fall back into\n\
         the Θ(P) trap; backfilling keeps the log-competitive guarantee and closes\n\
         most of the benign-input gap to plain CatBatch.\n",
    );
    out
}

/// E18 — robustness of CatBatch to execution-time estimation error.
pub fn ablation_estimates() -> String {
    let mut out =
        String::from("== E18: estimate robustness — CatBatch with ±noise% length estimates ==\n");
    let mut table = Table::new(&["noise", "mean ratio", "worst ratio", "runs"]);
    for pct in [0u32, 5, 10, 20, 40, 80] {
        let results = ordered_map((400..408u64).collect(), default_jobs(), |_, seed| {
            let sampler = TaskSampler::default_mix();
            let mut sum = 0.0;
            let mut worst = 1.0f64;
            let mut count = 0usize;
            for (_, inst) in family(seed, 100, &sampler, 16) {
                let r = Sched::Estimated(pct).ratio(&inst);
                sum += r;
                worst = worst.max(r);
                count += 1;
            }
            (sum, worst, count)
        });
        let sum: f64 = results.iter().map(|r| r.0).sum();
        let worst = results.iter().map(|r| r.1).fold(1.0, f64::max);
        let count: usize = results.iter().map(|r| r.2).sum();
        table.row(vec![
            format!("±{pct}%"),
            f3(sum / count as f64),
            f3(worst),
            count.to_string(),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "Category structure degrades gracefully: moderate estimation error shifts\n\
         a few tasks across category boundaries without destroying the batching.\n",
    );
    out
}
