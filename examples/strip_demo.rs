//! Online strip packing with precedence constraints (the paper's
//! Remark 1): CatBatch-Strip commits every task to a **contiguous**
//! processor interval `[x, x+w)` while keeping the category-batch
//! structure and its competitive guarantee.
//!
//! ```text
//! cargo run -p catbatch-examples --bin strip_demo
//! ```

use rigid_dag::{analysis, paper, StaticSource};
use rigid_sim::engine;
use rigid_strip::CatBatchStrip;
use std::fmt::{self, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    rigid_sim::write_stdout([report().expect("formatting into a String cannot fail")])
}

fn report() -> Result<String, fmt::Error> {
    let mut out = String::new();
    // The paper's Figure 3 example on P = 4 processors.
    let instance = paper::figure3();
    let mut strip = CatBatchStrip::new(instance.procs());
    let result =
        engine::EngineConfig::new().run(&mut StaticSource::new(instance.clone()), &mut strip);

    // Both views must be feasible: the schedule (capacity + precedence)
    // and the packing (geometric non-overlap + contiguity).
    result.schedule.assert_valid(&instance);
    strip.packing().assert_valid();

    writeln!(
        out,
        "CatBatch-Strip on the paper's 11-task example (strip width P = 4):"
    )?;
    writeln!(
        out,
        "{:<6} {:>10} {:>8} {:>10} {:>8}",
        "task", "x..x+w", "width", "y (start)", "height"
    )?;
    let mut rects: Vec<_> = strip.packing().rects().to_vec();
    rects.sort_by_key(|r| (r.y, r.x));
    for r in &rects {
        writeln!(
            out,
            "{:<6} {:>10} {:>8} {:>10} {:>8}",
            instance.graph().spec(r.id).label_str(),
            format!("{}..{}", r.x, r.x_end()),
            r.width,
            format!("{}", r.y),
            format!("{}", r.height),
        )?;
    }

    let lb = analysis::lower_bound(&instance);
    writeln!(out)?;
    writeln!(out, "strip height : {}", strip.packing().height())?;
    writeln!(out, "lower bound  : {lb}")?;
    writeln!(
        out,
        "ratio        : {:.3} (contiguity costs only the NFDH constant per batch)",
        strip.packing().height().ratio(lb).to_f64()
    )?;
    Ok(out)
}
