//! ASCII Gantt chart rendering.
//!
//! Draws each placement on the processor rows [`assign`] gives it
//! (first fit at its start instant; the rows of one task may be split),
//! then rasterizes onto a character grid. Used by the examples and
//! the figure regenerators to draw schedules like the paper's Figures 1
//! and 6.

use crate::assign::assign;
use crate::schedule::Schedule;
use rigid_dag::TaskGraph;
use rigid_time::Time;

/// Options for [`render`].
#[derive(Clone, Debug)]
pub struct GanttOptions {
    /// Total character width of the time axis.
    pub width: usize,
    /// Draw task labels inside their boxes when they fit.
    pub labels: bool,
}

impl Default for GanttOptions {
    fn default() -> Self {
        GanttOptions {
            width: 100,
            labels: true,
        }
    }
}

/// Renders a schedule as an ASCII Gantt chart: one line per processor,
/// time flowing left to right. `graph` supplies task labels.
pub fn render(schedule: &Schedule, graph: &TaskGraph, opts: &GanttOptions) -> String {
    let makespan = schedule.makespan();
    if makespan.is_zero() || schedule.is_empty() {
        return String::from("(empty schedule)\n");
    }
    let procs = schedule.procs() as usize;
    let width = opts.width.max(10);
    let scale = |t: Time| -> usize {
        // Column of instant t, clamped into [0, width].
        let frac = t.ratio(makespan).to_f64();
        ((frac * width as f64).round() as usize).min(width)
    };

    // Draw in (start, id) order on the rows `assign` gives: where rounding
    // puts two bars in one cell, the later one wins.
    let rows = assign(schedule);
    let mut placements: Vec<_> = schedule.placements().collect();
    placements.sort_by_key(|p| (p.start, p.task));
    let mut grid = vec![vec![' '; width + 1]; procs];

    for p in placements {
        let (c0, c1) = (scale(p.start), scale(p.finish).max(scale(p.start) + 1));
        let name = graph.display_name(p.task).to_string();
        let task_rows = rows
            .processors(p.task)
            .expect("every placement is assigned");
        for (k, &r) in task_rows.iter().enumerate() {
            let r = r as usize;
            for cell in grid[r][c0..c1.min(width + 1)].iter_mut() {
                *cell = '#';
            }
            grid[r][c0] = '|';
            // Put the label on the first row of the task if it fits.
            if opts.labels && k == 0 {
                let space = c1.saturating_sub(c0 + 1);
                for (i, ch) in name.chars().take(space).enumerate() {
                    grid[r][c0 + 1 + i] = ch;
                }
            }
        }
    }

    let mut out = String::new();
    for (r, row) in grid.iter().enumerate().rev() {
        out.push_str(&format!("p{r:>3} "));
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!(
        "     0{}{makespan}\n",
        "-".repeat(width.saturating_sub(format!("{makespan}").len()))
    ));
    out
}

/// Renders the *criticality chart* of a graph: the ASAP schedule with an
/// unbounded number of processors, one row per task, bars spanning
/// `[s∞, f∞]` (the paper's Figure 3, bottom left).
pub fn render_criticalities(graph: &TaskGraph, opts: &GanttOptions) -> String {
    use rigid_dag::analysis::criticalities;
    if graph.is_empty() {
        return String::from("(empty graph)\n");
    }
    let crit = criticalities(graph);
    let horizon = crit
        .iter()
        .map(|c| c.finish)
        .max()
        .expect("non-empty graph");
    let width = opts.width.max(10);
    let scale = |t: Time| -> usize {
        let frac = t.ratio(horizon).to_f64();
        ((frac * width as f64).round() as usize).min(width)
    };
    let mut out = String::new();
    // Sort rows by (s∞, id) for a readable staircase.
    let mut order: Vec<_> = graph.task_ids().collect();
    order.sort_by_key(|id| (crit[id.index()].start, *id));
    for id in order {
        let c = &crit[id.index()];
        let (c0, c1) = (scale(c.start), scale(c.finish).max(scale(c.start) + 1));
        let name = graph.display_name(id).to_string();
        let mut line = vec![' '; width + 1];
        for cell in line[c0..c1.min(width + 1)].iter_mut() {
            *cell = '=';
        }
        line[c0] = '|';
        if opts.labels {
            for (i, ch) in name.chars().take(c1.saturating_sub(c0 + 1)).enumerate() {
                line[c0 + 1 + i] = ch;
            }
        }
        out.push_str(&format!("{name:>4} "));
        out.extend(line.iter());
        out.push('\n');
    }
    out.push_str(&format!(
        "     0{}{horizon}\n",
        "-".repeat(width.saturating_sub(format!("{horizon}").len()))
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rigid_dag::{TaskGraph, TaskSpec};

    #[test]
    fn renders_nonempty() {
        let mut g = TaskGraph::new();
        let a = g.add_task(TaskSpec::new(Time::from_int(2), 2).with_label("A"));
        let b = g.add_task(TaskSpec::new(Time::from_int(1), 1).with_label("B"));
        let mut s = Schedule::new(3);
        s.place(a, Time::ZERO, Time::from_int(2), 2);
        s.place(b, Time::ZERO, Time::from_int(1), 1);
        let out = render(&s, &g, &GanttOptions::default());
        assert!(out.contains('A'));
        assert!(out.contains('B'));
        assert_eq!(out.lines().count(), 4); // 3 rows + axis
    }

    #[test]
    fn empty_schedule_renders_placeholder() {
        let s = Schedule::new(2);
        let g = TaskGraph::new();
        assert!(render(&s, &g, &GanttOptions::default()).contains("empty"));
    }

    #[test]
    fn criticality_chart_renders_staircase() {
        let mut g = TaskGraph::new();
        let a = g.add_task(TaskSpec::new(Time::from_int(2), 1).with_label("a"));
        let b = g.add_task(TaskSpec::new(Time::from_int(3), 1).with_label("b"));
        g.add_edge(a, b);
        let out = render_criticalities(&g, &GanttOptions::default());
        // Two rows plus axis; b's bar starts after a's.
        assert_eq!(out.lines().count(), 3);
        let a_line = out.lines().next().unwrap();
        let b_line = out.lines().nth(1).unwrap();
        assert!(a_line.contains('a'));
        assert!(b_line.find('|').unwrap() > a_line.find('|').unwrap());
    }

    #[test]
    fn criticality_chart_empty_graph() {
        let out = render_criticalities(&TaskGraph::new(), &GanttOptions::default());
        assert!(out.contains("empty"));
    }

    #[test]
    fn rows_never_overlap() {
        // Stack several tasks; the renderer must not put two concurrent
        // tasks on the same row.
        let mut g = TaskGraph::new();
        let ids: Vec<_> = (0..4)
            .map(|i| g.add_task(TaskSpec::new(Time::from_int(2), 1).with_label(format!("t{i}"))))
            .collect();
        let mut s = Schedule::new(4);
        for (i, id) in ids.iter().enumerate() {
            let st = Time::from_int(i as i64 % 2);
            s.place(*id, st, st + Time::from_int(2), 1);
        }
        let _ = render(&s, &g, &GanttOptions::default());
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn over_capacity_panics() {
        let mut g = TaskGraph::new();
        let mut s = Schedule::new(2);
        for _ in 0..2 {
            let id = g.add_task(TaskSpec::new(Time::ONE, 2));
            s.place(id, Time::ZERO, Time::ONE, 2);
        }
        let _ = render(&s, &g, &GanttOptions::default());
    }
}
