//! The Section 7 moldable extension in action: an uncertainty-
//! quantification pipeline whose solver tasks can run on any number of
//! processors, scheduled online with local allocation + CatBatch.
//!
//! ```text
//! cargo run -p catbatch-examples --bin moldable_pipeline
//! ```

use rigid_moldable::{schedule_online, AllocRule, InnerSched, MoldableBuilder, SpeedupModel};
use rigid_time::{Rational, Time};
use std::fmt::{self, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    rigid_sim::write_stdout([report().expect("formatting into a String cannot fail")])
}

fn report() -> Result<String, fmt::Error> {
    let mut out = String::new();
    // Build a three-stage ensemble pipeline on 16 processors:
    // ingest → {8 ensemble members: solver → reduce} → publish.
    let mut b = MoldableBuilder::new();
    let ingest = b.task(SpeedupModel::Amdahl {
        work: Time::from_int(4),
        seq_fraction: Rational::new(3, 4), // mostly sequential I/O
    });
    let publish = b.task(SpeedupModel::Amdahl {
        work: Time::from_int(2),
        seq_fraction: Rational::ONE,
    });
    for k in 0..8u32 {
        let solver = b.task(SpeedupModel::Roofline {
            work: Time::from_int(24 + k as i64),
            max_par: 8, // stops scaling at 8 processors
        });
        let reduce = b.task(SpeedupModel::Communication {
            work: Time::from_int(6),
            overhead: Time::from_ratio(1, 4), // all-to-all cost per rank
        });
        b.edge(ingest, solver);
        b.edge(solver, reduce);
        b.edge(reduce, publish);
    }
    let instance = b.build(16);

    writeln!(
        out,
        "Moldable pipeline: {} tasks on P = {}; moldable lower bound = {}",
        instance.len(),
        instance.procs(),
        instance.lower_bound()
    )?;
    writeln!(out)?;
    writeln!(
        out,
        "{:<16} {:<10} {:>10} {:>22}",
        "allocation", "inner", "makespan", "ratio to moldable LB"
    )?;
    for rule in [
        AllocRule::MinTime,
        AllocRule::HalfEfficient,
        AllocRule::Sequential,
    ] {
        for inner in [InnerSched::CatBatch, InnerSched::Backfill, InnerSched::Asap] {
            let run = schedule_online(&instance, rule, inner);
            writeln!(
                out,
                "{:<16} {:<10} {:>10} {:>22.3}",
                rule.name(),
                inner.name(),
                format!("{}", run.run.makespan()),
                run.ratio_to_moldable_lb
            )?;
        }
    }
    writeln!(out)?;

    // Show what the allocator chose for one solver under each rule.
    let min_time = AllocRule::MinTime.allocate_all(&instance);
    let efficient = AllocRule::HalfEfficient.allocate_all(&instance);
    writeln!(
        out,
        "Allocation choices for solver #2 (roofline, max_par = 8):"
    )?;
    writeln!(out, "  min-time       → {} processors", min_time[2])?;
    writeln!(out, "  half-efficient → {} processors", efficient[2])?;
    writeln!(
        out,
        "\nThe allocation decision is local (each task's own speedup curve) and\n\
         online; the category machinery then schedules the resulting rigid\n\
         tasks exactly as in the paper — §7's proposed direction, running."
    )?;
    Ok(out)
}
