//! Operating CatBatch in production: live guarantee monitoring, event
//! traces, and concrete processor assignment.
//!
//! The online model means nobody knows the final instance mid-run — but
//! the theory still certifies bounds over the *revealed* prefix. This
//! example wires a [`GuaranteeMonitor`] into a CatBatch run, prints the
//! evolving certified bound, then exports the run as a JSON trace and
//! maps every task to concrete processor indices.
//!
//! ```text
//! cargo run -p catbatch-examples --bin monitoring
//! ```

use catbatch::{CatBatch, GuaranteeMonitor};
use rigid_dag::gen::{layered, TaskSampler};
use rigid_dag::{ReleasedTask, StaticSource, TaskId};
use rigid_sim::trace::Trace;
use rigid_sim::{assign, engine, OnlineScheduler};
use rigid_time::Time;
use std::fmt::{self, Write};
use std::process::ExitCode;

/// CatBatch with a monitor attached; snapshots the certified bound at
/// every release.
struct MonitoredCatBatch {
    inner: CatBatch,
    monitor: GuaranteeMonitor,
    snapshots: Vec<(usize, Time, f64)>, // (revealed n, conditional bound, ratio guarantee)
}

impl OnlineScheduler for MonitoredCatBatch {
    fn name(&self) -> &'static str {
        "monitored-catbatch"
    }
    fn on_release(&mut self, task: &ReleasedTask, now: Time) {
        self.monitor.on_release(task);
        self.snapshots.push((
            self.monitor.revealed_tasks(),
            self.monitor.conditional_makespan_bound().expect("released"),
            self.monitor.ratio_guarantee(),
        ));
        self.inner.on_release(task, now);
    }
    fn on_complete(&mut self, task: TaskId, now: Time) {
        self.inner.on_complete(task, now);
    }
    fn decide_into(&mut self, now: Time, free: u32, out: &mut Vec<TaskId>) {
        self.inner.decide_into(now, free, out)
    }
}

fn main() -> ExitCode {
    rigid_sim::write_stdout([report().expect("formatting into a String cannot fail")])
}

fn report() -> Result<String, fmt::Error> {
    let mut out = String::new();
    let instance = layered(99, 8, 6, &TaskSampler::default_mix(), 8);
    let mut sched = MonitoredCatBatch {
        inner: CatBatch::new(),
        monitor: GuaranteeMonitor::new(instance.procs()),
        snapshots: Vec::new(),
    };
    let result =
        engine::EngineConfig::new().run(&mut StaticSource::new(instance.clone()), &mut sched);
    result.schedule.assert_valid(&instance);

    writeln!(out, "Certified bound as the instance reveals itself:")?;
    writeln!(
        out,
        "{:>10} {:>22} {:>18}",
        "revealed n", "conditional makespan ≤", "ratio ≤ log2(n)+3"
    )?;
    // Print every few snapshots to keep the output short.
    let step = (sched.snapshots.len() / 8).max(1);
    for snap in sched.snapshots.iter().step_by(step) {
        writeln!(
            out,
            "{:>10} {:>22.3} {:>18.3}",
            snap.0,
            snap.1.to_f64(),
            snap.2
        )?;
    }
    let final_bound = sched.monitor.conditional_makespan_bound().unwrap();
    writeln!(
        out,
        "\nfinal certified bound : {final_bound} (actual makespan {} — bound holds: {})",
        result.makespan(),
        result.makespan() <= final_bound,
    )?;
    assert!(result.makespan() <= final_bound);

    // The certified bound is monotone-usable at any prefix: it never
    // undershoots what the revealed work alone would require.
    writeln!(
        out,
        "batches formed        : {}",
        sched.monitor.revealed_categories()
    )?;

    // Export the run as a JSON event trace (for plotting/replay).
    let trace = Trace::from_run(&result);
    assert!(trace.is_causal());
    writeln!(
        out,
        "trace                 : {} events; first = {:?}",
        trace.len(),
        trace.events().first().unwrap()
    )?;

    // Map counts to concrete processor indices (deployment view).
    let assignment = assign::assign(&result.schedule);
    assert!(assignment.validate(&result.schedule));
    let sample = result.schedule.placements().next().unwrap();
    writeln!(
        out,
        "assignment            : task {} runs on processors {:?}",
        sample.task,
        assignment.processors(sample.task).unwrap()
    )?;
    Ok(out)
}
