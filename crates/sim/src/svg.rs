//! SVG rendering of schedules — publication-quality counterparts of the
//! ASCII Gantt charts (the paper's Figures 1 and 6 are exactly this kind
//! of drawing).
//!
//! The output is a self-contained SVG document: one horizontal lane per
//! processor, one rectangle per task placement (on the processor rows
//! [`assign`] gives it), labels where they fit, and a time axis. Colors
//! rotate through a small palette keyed by the task id so related runs
//! stay comparable.

use crate::assign::assign;
use crate::schedule::Schedule;
use rigid_dag::TaskGraph;
use rigid_time::Time;
use std::fmt::Write as _;

/// Options for [`render_svg`].
#[derive(Clone, Debug)]
pub struct SvgOptions {
    /// Total drawing width in pixels (time axis).
    pub width: u32,
    /// Height of one processor lane in pixels.
    pub lane_height: u32,
    /// Draw task labels.
    pub labels: bool,
}

impl Default for SvgOptions {
    fn default() -> Self {
        SvgOptions {
            width: 900,
            lane_height: 28,
            labels: true,
        }
    }
}

const PALETTE: [&str; 8] = [
    "#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#76b7b2", "#edc948", "#b07aa1", "#9c755f",
];

/// Renders a schedule as an SVG document string.
pub fn render_svg(schedule: &Schedule, graph: &TaskGraph, opts: &SvgOptions) -> String {
    let makespan = schedule.makespan();
    let procs = schedule.procs() as usize;
    let margin_left = 46u32;
    let margin_top = 18u32;
    let axis_height = 26u32;
    let width = opts.width.max(100);
    let height = margin_top + opts.lane_height * procs as u32 + axis_height;

    let mut out = String::new();
    let _ = writeln!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}" font-family="sans-serif" font-size="11">"#,
        w = width + margin_left + 10,
        h = height
    );
    let _ = writeln!(
        out,
        r#"<rect x="0" y="0" width="{}" height="{height}" fill="white"/>"#,
        width + margin_left + 10
    );

    if schedule.is_empty() || makespan.is_zero() {
        let _ = writeln!(out, r#"<text x="10" y="20">(empty schedule)</text>"#);
        out.push_str("</svg>\n");
        return out;
    }

    let x_of = |t: Time| -> f64 { margin_left as f64 + t.ratio(makespan).to_f64() * width as f64 };

    // Lane separators and processor labels.
    for r in 0..=procs {
        let y = margin_top + opts.lane_height * r as u32;
        let _ = writeln!(
            out,
            r##"<line x1="{margin_left}" y1="{y}" x2="{}" y2="{y}" stroke="#ddd"/>"##,
            margin_left + width
        );
        if r < procs {
            let _ = writeln!(
                out,
                r##"<text x="6" y="{}" fill="#555">p{}</text>"##,
                y + opts.lane_height / 2 + 4,
                procs - 1 - r
            );
        }
    }

    // Draw in (start, id) order on the rows `assign` gives; later shapes
    // paint over earlier ones.
    let rows = assign(schedule);
    let mut placements: Vec<_> = schedule.placements().collect();
    placements.sort_by_key(|p| (p.start, p.task));
    for p in placements {
        let task_rows = rows
            .processors(p.task)
            .expect("every placement is assigned");
        let color = PALETTE[p.task.0 as usize % PALETTE.len()];
        let x = x_of(p.start);
        let w = (x_of(p.finish) - x).max(1.0);
        for &r in task_rows {
            // Row 0 is drawn at the bottom (processor 0 lowest).
            let y = margin_top + opts.lane_height * (procs - 1 - r as usize) as u32;
            let _ = writeln!(
                out,
                r##"<rect x="{x:.1}" y="{}" width="{w:.1}" height="{}" fill="{color}" stroke="#333" stroke-width="0.5" opacity="0.9"/>"##,
                y + 1,
                opts.lane_height - 2
            );
        }
        if opts.labels && w > 18.0 {
            let name = graph.display_name(p.task).to_string();
            let top_row = *task_rows.iter().max().expect("non-empty") as usize;
            let y = margin_top + opts.lane_height * (procs - 1 - top_row) as u32;
            let _ = writeln!(
                out,
                r#"<text x="{:.1}" y="{}" fill="white">{}</text>"#,
                x + 3.0,
                y + opts.lane_height / 2 + 4,
                xml_escape(&name)
            );
        }
    }

    // Time axis: 0 and the makespan.
    let axis_y = margin_top + opts.lane_height * procs as u32 + 14;
    let _ = writeln!(
        out,
        r##"<text x="{margin_left}" y="{axis_y}" fill="#333">0</text>"##
    );
    let _ = writeln!(
        out,
        r##"<text x="{}" y="{axis_y}" fill="#333" text-anchor="end">{}</text>"##,
        margin_left + width,
        xml_escape(&format!("{makespan}"))
    );
    out.push_str("</svg>\n");
    out
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rigid_dag::{TaskGraph, TaskSpec};

    fn sample() -> (Schedule, TaskGraph) {
        let mut g = TaskGraph::new();
        let a = g.add_task(TaskSpec::new(Time::from_int(2), 2).with_label("A"));
        let b = g.add_task(TaskSpec::new(Time::from_int(1), 1).with_label("B"));
        let mut s = Schedule::new(3);
        s.place(a, Time::ZERO, Time::from_int(2), 2);
        s.place(b, Time::ZERO, Time::from_int(1), 1);
        (s, g)
    }

    #[test]
    fn svg_is_well_formed_and_complete() {
        let (s, g) = sample();
        let svg = render_svg(&s, &g, &SvgOptions::default());
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        // One rect per (task, row) plus background: A uses 2 rows, B 1.
        let rects = svg.matches("<rect").count();
        assert_eq!(rects, 1 + 3);
        assert!(svg.contains(">A<"));
        assert!(svg.contains(">B<"));
        // Balanced tags.
        assert_eq!(svg.matches("<text").count(), svg.matches("</text>").count());
    }

    #[test]
    fn empty_schedule_svg() {
        let svg = render_svg(&Schedule::new(2), &TaskGraph::new(), &SvgOptions::default());
        assert!(svg.contains("empty schedule"));
        assert!(svg.trim_end().ends_with("</svg>"));
    }

    #[test]
    fn labels_escaped() {
        let mut g = TaskGraph::new();
        let a = g.add_task(TaskSpec::new(Time::from_int(5), 1).with_label("a<b&c>"));
        let mut s = Schedule::new(1);
        s.place(a, Time::ZERO, Time::from_int(5), 1);
        let svg = render_svg(&s, &g, &SvgOptions::default());
        assert!(svg.contains("a&lt;b&amp;c&gt;"));
        assert!(!svg.contains("a<b"));
    }

    #[test]
    fn real_run_renders() {
        use rigid_dag::gen::{erdos_dag, TaskSampler};
        let inst = erdos_dag(3, 20, 0.2, &TaskSampler::default_mix(), 4);
        let mut src = rigid_dag::StaticSource::new(inst.clone());
        // Trivial greedy.
        struct G(Vec<(rigid_dag::TaskId, u32)>);
        impl crate::OnlineScheduler for G {
            fn name(&self) -> &'static str {
                "g"
            }
            fn on_release(&mut self, t: &rigid_dag::ReleasedTask, _: Time) {
                self.0.push((t.id, t.spec.procs));
            }
            fn on_complete(&mut self, _: rigid_dag::TaskId, _: Time) {}
            fn decide_into(&mut self, _: Time, mut free: u32, out: &mut Vec<rigid_dag::TaskId>) {
                self.0.retain(|&(id, p)| {
                    if p <= free {
                        free -= p;
                        out.push(id);
                        false
                    } else {
                        true
                    }
                });
            }
        }
        let r = crate::engine::EngineConfig::new().run(&mut src, &mut G(Vec::new()));
        let svg = render_svg(&r.schedule, inst.graph(), &SvgOptions::default());
        assert!(svg.matches("<rect").count() > 20);
    }
}
