//! An HPC campaign scenario: a batch of heterogeneous simulation
//! pipelines lands on a 64-processor partition, and the scheduler only
//! learns about each stage when its inputs are ready.
//!
//! The workload mirrors the structure the paper's introduction motivates:
//! mixed rigid jobs (wide solvers, narrow pre/post steps) under
//! precedence, with task lengths spread across two orders of magnitude —
//! the regime where the `log(M/m)` guarantee matters.
//!
//! ```text
//! cargo run -p catbatch-examples --release --bin hpc_campaign
//! ```

use catbatch::CatBatch;
use rigid_baselines::{ListScheduler, Priority};
use rigid_dag::gen::{fork_join, layered, LengthDist, ProcDist, TaskSampler};
use rigid_dag::{analysis, Instance, StaticSource};
use rigid_sim::{engine, metrics, OnlineScheduler};
use std::fmt::{self, Write};
use std::process::ExitCode;

const PROCS: u32 = 64;

fn run(instance: &Instance, scheduler: &mut dyn OnlineScheduler) -> (String, f64, f64) {
    let name = scheduler.name().to_string();
    let result =
        engine::EngineConfig::new().run(&mut StaticSource::new(instance.clone()), scheduler);
    result.schedule.assert_valid(instance);
    let m = metrics::metrics(&result.schedule, instance);
    (name, m.ratio_to_lb.to_f64(), m.avg_utilization)
}

fn main() -> ExitCode {
    rigid_sim::write_stdout([report().expect("formatting into a String cannot fail")])
}

fn report() -> Result<String, fmt::Error> {
    let mut out = String::new();
    // Campaign A: deep layered workflow (simulation stages, stage-to-
    // stage dependencies), log-uniform lengths in [0.1, 20].
    let stages = TaskSampler {
        length: LengthDist::LogUniform {
            min: 0.1,
            max: 20.0,
        },
        procs: ProcDist::PowersOfTwo,
    };
    let campaign_a = layered(2024, 24, 18, &stages, PROCS);

    // Campaign B: ensemble of fork–join pipelines (uncertainty
    // quantification sweeps) with a cap of a quarter of the machine per
    // member.
    let members = TaskSampler {
        length: LengthDist::Uniform { min: 0.5, max: 6.0 },
        procs: ProcDist::FractionCap { q: 0.25 },
    };
    let campaign_b = fork_join(2025, 20, 24, &members, PROCS);

    for (title, instance) in [
        ("Campaign A (layered)", campaign_a),
        ("Campaign B (fork-join)", campaign_b),
    ] {
        let stats = analysis::stats(&instance);
        let mm = stats
            .length_ratio()
            .expect("campaign instances are non-empty with positive lengths");
        writeln!(out, "== {title} ==")?;
        writeln!(
            out,
            "n = {}, P = {}, M/m = {:.1}, Lb = {:.2}",
            stats.n,
            stats.procs,
            mm,
            stats.lower_bound.to_f64()
        )?;
        writeln!(
            out,
            "Theorem 1 bound: {:.2}; Theorem 2 bound: {:.2}",
            (stats.n as f64).log2() + 3.0,
            mm.log2() + 6.0
        )?;
        writeln!(
            out,
            "{:<22} {:>8} {:>12}",
            "scheduler", "ratio", "utilization"
        )?;
        let (name, ratio, util) = run(&instance, &mut CatBatch::new());
        writeln!(out, "{name:<22} {ratio:>8.3} {:>11.1}%", util * 100.0)?;
        for priority in [
            Priority::Fifo,
            Priority::LongestFirst,
            Priority::MostProcsFirst,
        ] {
            let (name, ratio, util) = run(&instance, &mut ListScheduler::new(priority));
            writeln!(out, "{name:<22} {ratio:>8.3} {:>11.1}%", util * 100.0)?;
        }
        writeln!(out)?;
    }

    writeln!(
        out,
        "CatBatch's ratios sit far below its worst-case guarantee on benign\n\
         workloads, while staying immune to the adversarial collapses that hit\n\
         ASAP list scheduling (see the `adversarial` example)."
    )?;
    Ok(out)
}
