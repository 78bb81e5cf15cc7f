//! SVG rendering of strip packings — the true geometry (x = processors,
//! y = time flowing upward), matching how strip-packing papers draw
//! their figures.

use crate::packing::StripPacking;
use rigid_dag::TaskGraph;
use std::fmt::Write as _;

/// Options for [`render_packing_svg`].
#[derive(Clone, Debug)]
pub struct StripSvgOptions {
    /// Pixels per processor column.
    pub col_width: u32,
    /// Total drawing height in pixels (time axis).
    pub height: u32,
    /// Draw task labels where they fit.
    pub labels: bool,
}

impl Default for StripSvgOptions {
    fn default() -> Self {
        StripSvgOptions {
            col_width: 60,
            height: 640,
            labels: true,
        }
    }
}

const PALETTE: [&str; 8] = [
    "#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#76b7b2", "#edc948", "#b07aa1", "#9c755f",
];

/// Renders a strip packing as an SVG document. `graph` supplies labels
/// (pass an empty graph for anonymous rectangles).
pub fn render_packing_svg(
    packing: &StripPacking,
    graph: &TaskGraph,
    opts: &StripSvgOptions,
) -> String {
    let strip_w = packing.strip_width();
    let margin = 34u32;
    let draw_w = opts.col_width * strip_w;
    let draw_h = opts.height.max(80);
    let total_w = draw_w + margin + 12;
    let total_h = draw_h + margin + 12;

    let mut out = String::new();
    let _ = writeln!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" height="{total_h}" viewBox="0 0 {total_w} {total_h}" font-family="sans-serif" font-size="11">"#
    );
    let _ = writeln!(
        out,
        r#"<rect x="0" y="0" width="{total_w}" height="{total_h}" fill="white"/>"#
    );
    if packing.is_empty() {
        let _ = writeln!(out, r#"<text x="10" y="20">(empty packing)</text>"#);
        out.push_str("</svg>\n");
        return out;
    }
    let height_t = packing.height();
    // y grows upward: time 0 at the bottom of the drawing.
    let y_of =
        |t: rigid_time::Time| -> f64 { 12.0 + draw_h as f64 * (1.0 - t.ratio(height_t).to_f64()) };
    let x_of = |col: u32| -> f64 { margin as f64 + col as f64 * opts.col_width as f64 };

    // Strip border.
    let _ = writeln!(
        out,
        r##"<rect x="{:.1}" y="12" width="{draw_w}" height="{draw_h}" fill="none" stroke="#999"/>"##,
        x_of(0)
    );

    for r in packing.rects() {
        let x = x_of(r.x);
        let w = (r.width * opts.col_width) as f64;
        let y_top = y_of(r.y_end());
        let h = y_of(r.y) - y_top;
        let color = PALETTE[r.id.0 as usize % PALETTE.len()];
        let _ = writeln!(
            out,
            r##"<rect x="{x:.1}" y="{y_top:.1}" width="{w:.1}" height="{:.1}" fill="{color}" stroke="#333" stroke-width="0.5" opacity="0.9"/>"##,
            h.max(1.0)
        );
        if opts.labels && h > 12.0 {
            let name = if r.id.index() < graph.len() {
                graph.display_name(r.id).to_string()
            } else {
                r.id.to_string()
            };
            let _ = writeln!(
                out,
                r#"<text x="{:.1}" y="{:.1}" fill="white">{}</text>"#,
                x + 3.0,
                y_top + 12.0,
                name.replace('&', "&amp;").replace('<', "&lt;")
            );
        }
    }
    // Axis labels: strip height and width.
    let _ = writeln!(
        out,
        r##"<text x="4" y="20" fill="#333">{}</text>"##,
        packing.height()
    );
    let _ = writeln!(
        out,
        r##"<text x="4" y="{}" fill="#333">0</text>"##,
        12 + draw_h
    );
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packing::PlacedRect;
    use rigid_dag::{TaskGraph, TaskId};
    use rigid_time::Time;

    #[test]
    fn packing_svg_well_formed() {
        let mut p = StripPacking::new(4);
        p.place(PlacedRect {
            id: TaskId(0),
            x: 0,
            width: 2,
            y: Time::ZERO,
            height: Time::from_int(3),
        });
        p.place(PlacedRect {
            id: TaskId(1),
            x: 2,
            width: 2,
            y: Time::ZERO,
            height: Time::from_int(2),
        });
        let svg = render_packing_svg(&p, &TaskGraph::new(), &StripSvgOptions::default());
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<rect").count(), 2 + 2); // bg + border + 2 rects
    }

    #[test]
    fn empty_packing_svg() {
        let svg = render_packing_svg(
            &StripPacking::new(3),
            &TaskGraph::new(),
            &StripSvgOptions::default(),
        );
        assert!(svg.contains("empty packing"));
    }

    #[test]
    fn end_to_end_strip_svg() {
        use rigid_dag::{paper, StaticSource};
        let inst = paper::figure3();
        let mut cbs = crate::CatBatchStrip::new(inst.procs());
        let _ = rigid_sim::engine::EngineConfig::new()
            .run(&mut StaticSource::new(inst.clone()), &mut cbs);
        let svg = render_packing_svg(cbs.packing(), inst.graph(), &StripSvgOptions::default());
        // 11 task rects + background + border.
        assert_eq!(svg.matches("<rect").count(), 13);
        assert!(svg.contains(">A<") || svg.contains(">B<"));
    }
}
