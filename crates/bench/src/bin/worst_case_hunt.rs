//! Regenerates one paper artifact; see DESIGN.md experiment index.
//!
//! With no arguments this prints the legacy E21 report, byte-for-byte
//! as before. With flags it runs a **supervised hunt campaign** on the
//! full resilience stack: every restart is journaled and fsynced, a
//! killed run resumes with `--resume`, the restart space fans out over
//! processes with `--shard i/N`, and the shard journals merge back with
//! `catbatch merge` into the byte-identical single-process journal.

use rigid_bench::experiments::hunt::{hunt_campaign, HuntConfig};
use rigid_supervise::{interrupt, ShardSpec};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: worst_case_hunt [OPTIONS]

With no options, prints the E21 worst-case-hunt report.

Campaign mode (journaled, resumable, shardable):
  --n N            tasks per genome (default 8)
  --procs P        machine size (default 4)
  --steps S        hill-climbing steps per restart (default 400)
  --restarts R     restart count, one journal record each (default 16)
  --seed BASE      first restart seed (default 100)
  --journal PATH   journal file (required in campaign mode)
  --resume         replay journaled restarts, run only the missing ones
  --shard I/N      run shard I of an N-process fan-out; merge the shard
                   journals with `catbatch merge` afterwards
";

struct Args {
    config: HuntConfig,
    journal: PathBuf,
    resume: bool,
    shard: Option<ShardSpec>,
}

fn parse(argv: &[String]) -> Result<Option<Args>, String> {
    if argv.is_empty() {
        return Ok(None);
    }
    let mut config = HuntConfig {
        n: 8,
        procs: 4,
        steps: 400,
        restarts: 16,
        seed_base: 100,
    };
    let mut journal = None;
    let mut resume = false;
    let mut shard = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--n" => config.n = value("--n")?.parse().map_err(|_| "bad --n value")?,
            "--procs" => {
                config.procs = value("--procs")?.parse().map_err(|_| "bad --procs value")?
            }
            "--steps" => {
                config.steps = value("--steps")?.parse().map_err(|_| "bad --steps value")?
            }
            "--restarts" => {
                config.restarts = value("--restarts")?
                    .parse()
                    .map_err(|_| "bad --restarts value")?
            }
            "--seed" => {
                config.seed_base = value("--seed")?.parse().map_err(|_| "bad --seed value")?
            }
            "--journal" => journal = Some(PathBuf::from(value("--journal")?)),
            "--resume" => resume = true,
            "--shard" => {
                shard = Some(
                    ShardSpec::parse(&value("--shard")?).map_err(|e| format!("--shard: {e}"))?,
                )
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown option {other:?}\n\n{USAGE}")),
        }
    }
    if config.n < 2 {
        return Err("--n must be at least 2".into());
    }
    if config.procs == 0 {
        return Err("--procs must be at least 1".into());
    }
    if config.restarts == 0 {
        return Err("--restarts must be at least 1".into());
    }
    let Some(journal) = journal else {
        return Err("campaign mode needs --journal PATH (each shard writes its own file)".into());
    };
    Ok(Some(Args {
        config,
        journal,
        resume,
        shard,
    }))
}

fn campaign(args: &Args) -> Result<String, String> {
    interrupt::install();
    let token = interrupt::InterruptToken::current();
    let outcome = hunt_campaign(
        &args.config,
        Some(&args.journal),
        args.resume,
        args.shard,
        move || token.interrupted(),
    )?;
    let c = &args.config;
    let mut out = String::from("== worst-case hunt campaign ==\n");
    out.push_str(&format!(
        "scenario       : {:016x} (n={}, P={}, steps={})\n",
        c.fingerprint(),
        c.n,
        c.procs,
        c.steps
    ));
    out.push_str(&format!(
        "restarts       : {} (seeds {}..={})\n",
        c.restarts,
        c.seed_base,
        c.seed_base + c.restarts - 1
    ));
    let assigned = match args.shard {
        Some(spec) => {
            let assigned = spec.plan(&c.seeds()).len();
            out.push_str(&format!(
                "shard          : {spec} ({assigned} of {} seed(s) assigned to this process)\n",
                c.restarts
            ));
            assigned
        }
        None => c.seeds().len(),
    };
    out.push_str(&format!("executed       : {}\n", outcome.executed));
    out.push_str(&format!("replayed       : {}\n", outcome.replayed));
    for t in &outcome.trials {
        match t.inflation(rigid_time::Time::ONE) {
            Some(r) => out.push_str(&format!(
                "seed {:>6}: ratio {} ({:.4})\n",
                t.seed,
                r,
                r.to_f64()
            )),
            None => out.push_str(&format!("seed {:>6}: FAILED\n", t.seed)),
        }
    }
    match outcome.best {
        Some(r) => out.push_str(&format!("best ratio     : {} ({:.4})\n", r, r.to_f64())),
        None => out.push_str("best ratio     : none (no restart finished)\n"),
    }
    if outcome.trials.len() < assigned {
        out.push_str("INTERRUPTED — rerun with --resume to finish\n");
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv) {
        Ok(None) => rigid_sim::write_stdout([rigid_bench::experiments::hunt::worst_case_hunt()]),
        Ok(Some(args)) => match campaign(&args) {
            Ok(report) => rigid_sim::write_stdout([report]),
            Err(e) => {
                eprintln!("worst_case_hunt: {e}");
                ExitCode::FAILURE
            }
        },
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
