//! Offline category analysis of instances: the attribute table, the
//! category decomposition, and the Lemma 7 makespan bound.
//!
//! Everything here has full knowledge of the instance; it is used by
//! tests, figures and experiment harnesses — never by the online
//! algorithm itself.

use crate::category::{category_of, Category};
use crate::lmatrix::category_length;
use rigid_dag::analysis::{criticalities, Criticality};
use rigid_dag::{Instance, TaskId};
use rigid_time::Time;
use std::collections::{BTreeMap, BTreeSet};

/// The full attribute row of one task (the table in the paper's Figure 3).
#[derive(Clone, Debug)]
pub struct TaskAttributes {
    /// Task id.
    pub id: TaskId,
    /// Label, if any.
    pub label: String,
    /// Execution time `t`.
    pub time: Time,
    /// Processor requirement `p`.
    pub procs: u32,
    /// Criticality `(s∞, f∞)`.
    pub criticality: Criticality,
    /// Category (with `λ` and `χ` inside).
    pub category: Category,
}

/// Computes the attribute table for all tasks of an instance.
pub fn attribute_table(instance: &Instance) -> Vec<TaskAttributes> {
    let g = instance.graph();
    let crit = criticalities(g);
    g.tasks()
        .map(|(id, spec)| TaskAttributes {
            id,
            label: spec.label_str().to_string(),
            time: spec.time,
            procs: spec.procs,
            criticality: crit[id.index()],
            category: category_of(&crit[id.index()]),
        })
        .collect()
}

/// The category decomposition of an instance: which tasks fall in which
/// batch, plus the critical-path length.
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// Tasks grouped by category, in increasing category order.
    pub categories: BTreeMap<Category, Vec<TaskId>>,
    /// Critical-path length `C(I)`.
    pub critical_path: Time,
}

impl Decomposition {
    /// Number of non-empty categories.
    pub fn batch_count(&self) -> usize {
        self.categories.len()
    }

    /// `Σ L_ζ` over the non-empty categories.
    pub fn total_category_length(&self) -> Time {
        self.categories
            .keys()
            .map(|&cat| category_length(cat, self.critical_path))
            .sum()
    }
}

/// Decomposes an instance into category batches (what CatBatch will do
/// online, computed offline).
pub fn decompose(instance: &Instance) -> Decomposition {
    let g = instance.graph();
    let crit = criticalities(g);
    let mut categories: BTreeMap<Category, Vec<TaskId>> = BTreeMap::new();
    for id in g.task_ids() {
        categories
            .entry(category_of(&crit[id.index()]))
            .or_default()
            .push(id);
    }
    let critical_path = crit.iter().map(|c| c.finish).max().unwrap_or(Time::ZERO);
    Decomposition {
        categories,
        critical_path,
    }
}

/// The Lemma 7 makespan bound for CatBatch:
/// `T ≤ 2·A(I)/P + Σ_ζ L_ζ` over non-empty categories. It needs only
/// the set of categories, not the tasks in each.
pub fn lemma7_bound(instance: &Instance) -> Time {
    let crit = criticalities(instance.graph());
    let critical_path = crit.iter().map(|c| c.finish).max().unwrap_or(Time::ZERO);
    let categories: BTreeSet<Category> = crit.iter().map(category_of).collect();
    let area = rigid_dag::analysis::area(instance.graph());
    let lengths = categories
        .into_iter()
        .map(|cat| category_length(cat, critical_path));
    area.mul_int(2).div_int(instance.procs() as i64) + lengths.sum::<Time>()
}

/// Renders the attribute table as aligned text (Figure 3's table).
pub fn render_attribute_table(rows: &[TaskAttributes]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<6} {:>8} {:>4} {:>8} {:>8} {:>5} {:>4} {:>8}\n",
        "Task", "t", "p", "s∞", "f∞", "λ", "χ", "ζ"
    ));
    for r in rows {
        let name = if r.label.is_empty() {
            format!("{}", r.id)
        } else {
            r.label.clone()
        };
        out.push_str(&format!(
            "{:<6} {:>8} {:>4} {:>8} {:>8} {:>5} {:>4} {:>8}\n",
            name,
            format!("{}", r.time),
            r.procs,
            format!("{}", r.criticality.start),
            format!("{}", r.criticality.finish),
            r.category.lambda,
            r.category.chi,
            format!("{}", r.category.value()),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rigid_dag::paper::figure3;

    #[test]
    fn figure3_attribute_table_full() {
        let inst = figure3();
        let attrs = attribute_table(&inst);
        let find = |l: &str| attrs.iter().find(|a| a.label == l).unwrap();
        // Spot-check the distinctive rows; categories were fully verified
        // in category.rs.
        let j = find("J");
        assert_eq!(j.category.lambda, 13);
        assert_eq!(j.category.chi, -1);
        assert_eq!(j.category.value(), Time::from_ratio(13, 2));
        let h = find("H");
        assert_eq!(h.category.value(), Time::from_int(5));
        let table = render_attribute_table(&attrs);
        assert!(table.contains("6.5"));
        assert!(table.contains('J'));
    }

    #[test]
    fn figure3_decomposition() {
        let inst = figure3();
        let d = decompose(&inst);
        assert_eq!(d.batch_count(), 6);
        assert_eq!(d.critical_path, Time::from_millis(6, 800));
        // Σ L_ζ = 6.8 + 4 + 2 + 2 + 1 + 0.8 = 16.6 (Figure 4 values).
        assert_eq!(d.total_category_length(), Time::from_millis(16, 600));
    }

    #[test]
    fn lemma7_bound_dominates_catbatch_run() {
        use crate::catbatch::CatBatch;
        use rigid_dag::StaticSource;
        let inst = figure3();
        let bound = lemma7_bound(&inst);
        let mut src = StaticSource::new(inst.clone());
        let mut cb = CatBatch::new();
        let result = rigid_sim::engine::EngineConfig::new().run(&mut src, &mut cb);
        assert!(
            result.makespan() <= bound,
            "makespan {} exceeds Lemma 7 bound {bound}",
            result.makespan()
        );
    }
}
