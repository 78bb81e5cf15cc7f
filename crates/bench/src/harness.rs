//! Shared experiment harness: scheduler registry, ratio runs and text
//! tables.

use catbatch::{CatBatch, CatBatchBackfill, CatPrio, EstimatedCatBatch};
use rigid_baselines::{ListScheduler, Priority};
use rigid_dag::{analysis, Instance, StaticSource};
use rigid_sim::{engine, OnlineScheduler, RunResult};
use rigid_strip::CatBatchStrip;
use rigid_time::Time;

/// Every online scheduler the experiments compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sched {
    /// The paper's algorithm.
    CatBatch,
    /// The contiguous strip variant (Remark 1).
    CatBatchStrip,
    /// Guarantee-preserving backfilling (Section 7 heuristic).
    CatBatchBackfill,
    /// Work-conserving category-priority list scheduling (Section 7).
    CatPrio,
    /// CatBatch under noisy length estimates (± percent).
    Estimated(u32),
    /// ASAP list scheduling under a priority policy.
    List(Priority),
}

impl Sched {
    /// Name for tables.
    pub fn name(&self) -> String {
        match self {
            Sched::CatBatch => "catbatch".into(),
            Sched::CatBatchStrip => "catbatch-strip".into(),
            Sched::CatBatchBackfill => "catbatch-backfill".into(),
            Sched::CatPrio => "catprio".into(),
            Sched::Estimated(pct) => format!("catbatch-est±{pct}%"),
            Sched::List(p) => format!("list-{}", p.name()),
        }
    }

    /// The default comparison set: CatBatch, the strip variant, and two
    /// representative list policies.
    pub fn default_set() -> Vec<Sched> {
        vec![
            Sched::CatBatch,
            Sched::CatBatchStrip,
            Sched::List(Priority::Fifo),
            Sched::List(Priority::LongestFirst),
        ]
    }

    /// Instantiates the scheduler for a platform of `procs` processors.
    pub fn build(&self, procs: u32) -> Box<dyn OnlineScheduler> {
        match self {
            Sched::CatBatch => Box::new(CatBatch::new()),
            Sched::CatBatchStrip => Box::new(CatBatchStrip::new(procs)),
            Sched::CatBatchBackfill => Box::new(CatBatchBackfill::new()),
            Sched::CatPrio => Box::new(CatPrio::new()),
            Sched::Estimated(pct) => Box::new(EstimatedCatBatch::new(*pct, 0xCA7)),
            Sched::List(p) => Box::new(ListScheduler::new(*p)),
        }
    }

    /// Runs on a static instance, validates, and returns the result.
    pub fn run(&self, instance: &Instance) -> RunResult {
        let mut source = StaticSource::new(instance.clone());
        let mut scheduler = self.build(instance.procs());
        let result = engine::EngineConfig::new().run(&mut source, scheduler.as_mut());
        result.schedule.assert_valid(instance);
        result
    }

    /// Runs and returns the exact makespan/Lb ratio as `f64`.
    pub fn ratio(&self, instance: &Instance) -> f64 {
        let result = self.run(instance);
        result
            .makespan()
            .ratio(analysis::lower_bound(instance))
            .to_f64()
    }
}

/// A plain-text table builder for experiment reports.
#[derive(Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                line.push_str(cell);
                for _ in cell.chars().count()..widths[i] {
                    line.push(' ');
                }
            }
            line.trim_end().to_string()
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats an `f64` with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a `Time` compactly: exact when short, rounded to 3 decimals
/// when the exact rendering is long.
pub fn ft(t: Time) -> String {
    let s = format!("{t}");
    if s.len() <= 10 {
        s
    } else {
        format!("{:.3}", t.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rigid_dag::gen::{erdos_dag, TaskSampler};

    #[test]
    fn sched_registry_runs_everything() {
        let inst = erdos_dag(5, 15, 0.2, &TaskSampler::default_mix(), 4);
        for s in Sched::default_set() {
            let ratio = s.ratio(&inst);
            assert!(ratio >= 1.0 - 1e-9, "{}: ratio {ratio} < 1", s.name());
        }
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["catbatch".into(), "1.5".into()]);
        t.row(vec!["x".into(), "100".into()]);
        let s = t.render();
        assert!(s.contains("catbatch  1.5"));
        assert!(s.lines().count() == 4);
    }
}
