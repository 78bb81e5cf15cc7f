//! Quickstart: build a task graph, schedule it online with CatBatch, and
//! inspect the result.
//!
//! ```text
//! cargo run -p catbatch-examples --bin quickstart
//! ```

use catbatch::CatBatch;
use rigid_dag::{DagBuilder, StaticSource};
use rigid_sim::gantt::{render, GanttOptions};
use rigid_sim::{engine, metrics};
use rigid_time::Time;
use std::fmt::{self, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    rigid_sim::write_stdout([report().expect("formatting into a String cannot fail")])
}

fn report() -> Result<String, fmt::Error> {
    let mut out = String::new();
    // A small scientific workflow: preprocessing fans out into three
    // solvers of different widths, which join into a postprocessing step.
    // Times are exact rationals — from_millis(2, 500) is exactly 2.5.
    let instance = DagBuilder::new()
        .task("ingest", Time::from_millis(1, 0), 2)
        .task("mesh", Time::from_millis(2, 500), 4)
        .task("solve-a", Time::from_millis(4, 0), 4)
        .task("solve-b", Time::from_millis(3, 0), 2)
        .task("solve-c", Time::from_millis(5, 0), 1)
        .task("reduce", Time::from_millis(1, 500), 8)
        .task("render", Time::from_millis(2, 0), 1)
        .edge("ingest", "mesh")
        .edge("mesh", "solve-a")
        .edge("mesh", "solve-b")
        .edge("mesh", "solve-c")
        .edge("solve-a", "reduce")
        .edge("solve-b", "reduce")
        .edge("solve-c", "reduce")
        .edge("reduce", "render")
        .build(8); // 8 identical processors

    // The engine reveals tasks online (a task is invisible until all its
    // predecessors complete); CatBatch schedules them in category batches.
    let mut scheduler = CatBatch::new();
    let result =
        engine::EngineConfig::new().run(&mut StaticSource::new(instance.clone()), &mut scheduler);
    result.schedule.assert_valid(&instance);

    writeln!(out, "Schedule (CatBatch, P = {}):", instance.procs())?;
    writeln!(
        out,
        "{}",
        render(
            &result.schedule,
            instance.graph(),
            &GanttOptions {
                width: 72,
                labels: true
            }
        )
    )?;

    // The batches CatBatch formed, in category order.
    writeln!(out, "Batches (category ζ → tasks):")?;
    for batch in scheduler.batch_history() {
        let labels: Vec<&str> = batch
            .tasks
            .iter()
            .map(|&id| instance.graph().spec(id).label_str())
            .collect();
        writeln!(
            out,
            "  ζ = {:<5} [{} → {}]  {}",
            format!("{}", batch.category.value()),
            batch.started_at,
            batch.finished_at,
            labels.join(", ")
        )?;
    }

    // Quality: compare against the Graham lower bound and the Theorem 1
    // guarantee.
    let m = metrics::metrics(&result.schedule, &instance);
    let bound = (instance.len() as f64).log2() + 3.0;
    writeln!(out)?;
    writeln!(out, "makespan       : {}", m.makespan)?;
    writeln!(out, "lower bound Lb : {}", m.lower_bound)?;
    writeln!(
        out,
        "ratio          : {:.3} (Theorem 1 guarantees ≤ log2(n)+3 = {:.3})",
        m.ratio_to_lb.to_f64(),
        bound
    )?;
    writeln!(out, "avg utilization: {:.1}%", m.avg_utilization * 100.0)?;
    assert!(m.ratio_to_lb.to_f64() <= bound);
    Ok(out)
}
