//! The adversarial story of the paper, end to end.
//!
//! Act 1 (Figure 1): ASAP heuristics collapse to Θ(P) on a trivial
//! released-on-the-fly gadget, while CatBatch's strategic waiting keeps
//! it near the optimum.
//!
//! Act 2 (Section 6): the adaptive adversary `Z^Alg_P(K)` stalks *any*
//! online scheduler — including CatBatch — and forces the Ω(log n) /
//! Ω(P) gaps of Theorems 3–4, certified against the offline witness
//! schedule of Lemma 11.
//!
//! ```text
//! cargo run -p catbatch-examples --release --bin adversarial
//! ```

use catbatch::CatBatch;
use rigid_baselines::asap;
use rigid_dag::paper::intro_example;
use rigid_dag::{analysis, StaticSource};
use rigid_lowerbounds::chains::GadgetParams;
use rigid_lowerbounds::zgraph::{lemma10_bound, lemma11_bound, ZAdversary};
use rigid_sim::engine;
use rigid_time::Time;
use std::fmt::{self, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    rigid_sim::write_stdout([report().expect("formatting into a String cannot fail")])
}

fn report() -> Result<String, fmt::Error> {
    let mut out = String::new();
    writeln!(out, "== Act 1: the ASAP trap (paper Figure 1) ==")?;
    let p = 16u32;
    let eps = Time::from_ratio(1, 100);
    let instance = intro_example(p, eps);
    let lb = analysis::lower_bound(&instance);

    let asap_run =
        engine::EngineConfig::new().run(&mut StaticSource::new(instance.clone()), &mut asap());
    let cb_run = engine::EngineConfig::new().run(
        &mut StaticSource::new(instance.clone()),
        &mut CatBatch::new(),
    );
    asap_run.schedule.assert_valid(&instance);
    cb_run.schedule.assert_valid(&instance);

    writeln!(out, "P = {p}, n = {}, Lb = {lb}", instance.len())?;
    writeln!(
        out,
        "ASAP list scheduling : makespan {} (ratio {:.2} — grows with P!)",
        asap_run.makespan(),
        asap_run.makespan().ratio(lb).to_f64()
    )?;
    writeln!(
        out,
        "CatBatch             : makespan {} (ratio {:.2})",
        cb_run.makespan(),
        cb_run.makespan().ratio(lb).to_f64()
    )?;
    writeln!(
        out,
        "CatBatch holds the long unit tasks back until the ε-ladder drains —\n\
         the deliberate idling that ASAP rules out.\n"
    )?;

    writeln!(
        out,
        "== Act 2: the adaptive adversary Z^Alg_P(K) (paper Section 6) =="
    )?;
    let params = GadgetParams::new(5, 2, Time::from_ratio(1, 80));
    for (name, mut sched) in [
        (
            "asap",
            Box::new(asap()) as Box<dyn rigid_sim::OnlineScheduler>,
        ),
        ("catbatch", Box::new(CatBatch::new())),
    ] {
        let mut adversary = ZAdversary::new(params);
        let result = engine::EngineConfig::new().run(&mut adversary, sched.as_mut());
        let committed = adversary.committed_instance();
        result.schedule.assert_valid(&committed);
        let witness = adversary.witness_schedule();
        witness.assert_valid(&committed);
        writeln!(
            out,
            "{name:<9}: T = {} (≥ Lemma 10 bound {}), offline witness = {} (< Lemma 11 bound {}), gap ×{:.2}",
            result.makespan(),
            lemma10_bound(&params),
            witness.makespan(),
            lemma11_bound(&params),
            result.makespan().ratio(witness.makespan()).to_f64()
        )?;
    }
    writeln!(
        out,
        "\nThe adversary only decides the graph as it watches the run: whichever\n\
         task an algorithm finishes last becomes the gate to the next layer. No\n\
         online algorithm escapes — that is the Θ(log n) lower bound, and it is\n\
         why CatBatch's log2(n)+3 guarantee is near-optimal."
    )?;
    Ok(out)
}
