//! Hand-rolled argument parsing (no external dependencies).

use rigid_serve::SCHEDULERS;
use rigid_supervise::ShardSpec;

/// A parsed CLI invocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// `schedule <file> [--scheduler S] [--gantt] [--trace]`
    Schedule {
        /// Instance file path.
        file: String,
        /// Scheduler to run, one of [`SCHEDULERS`].
        scheduler: String,
        /// Print an ASCII Gantt chart.
        gantt: bool,
        /// Print the JSON event trace.
        trace: bool,
        /// Emit an SVG Gantt chart instead of the text report.
        svg: bool,
    },
    /// `analyze <file>` — stats, attribute table, category decomposition.
    Analyze {
        /// Instance file path.
        file: String,
    },
    /// `generate --family F --n N --procs P [--seed S]` — emit `.rigid`.
    Generate {
        /// Workload family name.
        family: String,
        /// Approximate task count.
        n: usize,
        /// Platform size.
        procs: u32,
        /// RNG seed.
        seed: u64,
    },
    /// `convert <file> --dot` — emit Graphviz DOT.
    Convert {
        /// Instance file path.
        file: String,
    },
    /// `faults <file> [--scheduler S] [--seed N] [--trials K] [--fail F]
    /// [--straggle G] [--retries R] [--journal PATH [--resume]]
    /// [--watchdog-ms N] [--max-events N] [--jobs N]` — seeded fault
    /// campaign, optionally supervised, journaled, and parallel.
    Faults {
        /// Instance file path.
        file: String,
        /// Scheduler to run, one of [`SCHEDULERS`].
        scheduler: String,
        /// Base injector seed (trial `i` uses `seed + i`).
        seed: u64,
        /// Number of seeded trials.
        trials: usize,
        /// Fail-stop probability per attempt, in permille.
        fail: u32,
        /// Straggler probability per attempt, in permille.
        straggle: u32,
        /// Retry budget per task (failures tolerated before abandoning).
        retries: u32,
        /// Checkpoint journal path (one fsynced JSONL record per trial).
        journal: Option<String>,
        /// Replay journaled trials instead of truncating the journal.
        resume: bool,
        /// Per-trial wall-clock watchdog, milliseconds.
        watchdog_ms: Option<u64>,
        /// Per-trial engine event budget.
        max_events: Option<u64>,
        /// Worker threads for trial execution (`None` = all cores).
        /// Results are byte-identical for every value.
        jobs: Option<usize>,
        /// Run only shard `i/N` of the campaign's seed space, writing a
        /// shard journal that `catbatch merge` later reconstitutes.
        shard: Option<ShardSpec>,
        /// Hidden chaos hook: abort the process (as `kill -9` would)
        /// after this many stop-condition polls. Used by the crash-chaos
        /// tests and the CI `chaos-smoke` job; deliberately not in
        /// `USAGE`.
        chaos_exit_after: Option<u64>,
    },
    /// `merge <shard.jsonl>... --out PATH` — validate a full set of
    /// shard journals and write the merged single-process journal.
    Merge {
        /// The shard journal files, in any order.
        inputs: Vec<String>,
        /// Output path for the merged v1 journal.
        out: String,
    },
    /// `bench [--json] [--quick] [--profile] [--out PATH]
    /// [--check BASELINE]` — run the fixed perf scenario matrix.
    Bench {
        /// Write the machine-readable report (`BENCH_engine.json` by
        /// default) instead of only printing the table.
        json: bool,
        /// Run only the small scenario tier (CI smoke).
        quick: bool,
        /// Output path for the JSON report (implies `--json` semantics
        /// for where the file goes; default `BENCH_engine.json`).
        out: String,
        /// Baseline report to compare against; the command fails when a
        /// shared scenario's engine counters differ or its events/sec
        /// regressed >2x.
        check: Option<String>,
        /// Scenario journal path (one record per finished scenario).
        journal: Option<String>,
        /// Replay journaled scenarios instead of re-timing them.
        resume: bool,
        /// Worker threads for the scenario sweep (`None` = all cores).
        jobs: Option<usize>,
        /// Also print the engine-loop counter breakdown per scenario
        /// (queue ops, rational fallbacks, decision rounds, batching).
        profile: bool,
    },
    /// `serve [--bind PATH | --tcp ADDR] [--workers N] [--queue-depth N]
    /// [--journal PATH] [--watchdog-ms N] [--max-events N] [--retries R]
    /// [--max-sessions N]` — run the scheduling daemon until
    /// SIGINT/SIGTERM or a client's `shutdown` request.
    Serve {
        /// Unix socket path to listen on.
        bind: String,
        /// TCP address to listen on instead of the Unix socket.
        tcp: Option<String>,
        /// Worker (= shard) count.
        workers: usize,
        /// Per-session in-flight job cap; the excess gets `overloaded`.
        queue_depth: usize,
        /// Journal path enabling crash recovery.
        journal: Option<String>,
        /// Per-attempt wall-clock watchdog for jobs, milliseconds.
        watchdog_ms: Option<u64>,
        /// Per-job engine event budget.
        max_events: Option<u64>,
        /// Supervised retries per job after a panic/timeout.
        retries: u32,
        /// Concurrent session cap; excess connections get a retryable
        /// `overloaded` refusal.
        max_sessions: usize,
    },
    /// `loadgen [--bind PATH | --tcp ADDR] [--clients N] [--jobs N]
    /// [--n N] [--procs P] [--scheduler S] [--seed S] [--window W]
    /// [--shutdown] [--read-timeout-ms N] [--max-attempts K]` — hammer
    /// a running daemon and report throughput.
    Loadgen {
        /// Unix socket path of the daemon.
        bind: String,
        /// TCP address of the daemon instead of the Unix socket.
        tcp: Option<String>,
        /// Concurrent client connections.
        clients: usize,
        /// Jobs submitted per client.
        jobs: usize,
        /// Approximate task count per generated instance.
        n: usize,
        /// Platform size of generated instances.
        procs: u32,
        /// Scheduler to request, one of [`SCHEDULERS`] (validated
        /// locally before submitting).
        scheduler: String,
        /// Base seed; client `i` generates its DAG from `seed + i`.
        seed: u64,
        /// In-flight jobs per client connection.
        window: usize,
        /// Send a `shutdown` request once the load is done.
        shutdown: bool,
        /// Per-`recv` read timeout, milliseconds; a stalled read
        /// becomes a reconnect + resubmit instead of a hang.
        read_timeout_ms: u64,
        /// Total attempts per job before the client gives up on it.
        max_attempts: u32,
    },
    /// `chaos-proxy --listen PATH --upstream PATH [--listen-tcp ADDR]
    /// [--upstream-tcp ADDR] [--seed N] [--plan SPEC]` — relay
    /// client↔daemon byte streams while injecting seeded network
    /// faults (delays, torn writes, trickle, resets, corruption).
    ChaosProxy {
        /// Unix socket path to listen on.
        listen: String,
        /// TCP address to listen on instead of the Unix socket.
        listen_tcp: Option<String>,
        /// Unix socket path of the upstream daemon.
        upstream: String,
        /// TCP address of the upstream daemon instead.
        upstream_tcp: Option<String>,
        /// Fault-stream seed (per-connection/direction substreams are
        /// derived from it).
        seed: u64,
        /// Fault plan spec, e.g. `tear=16,reset=2048..8192,delay=1..5ms`
        /// (empty = transparent relay). Validated at parse time.
        plan: String,
    },
    /// `verify <file> <schedule.json>` — validate an externally produced
    /// schedule against an instance.
    Verify {
        /// Instance file path.
        file: String,
        /// Schedule JSON path (as emitted by `--trace`-style tooling or
        /// serde-serialized `rigid_sim::Schedule`).
        schedule: String,
    },
    /// `help`
    Help,
}

/// Usage text.
pub const USAGE: &str = "\
catbatch — online scheduling of rigid task graphs (SPAA'25 CatBatch)

USAGE:
  catbatch schedule <file.rigid> [--scheduler S] [--gantt] [--trace] [--svg]
      run an online scheduler on an instance file
      schedulers: catbatch (default), backfill, catprio, strip,
                  list-fifo, list-longest
  catbatch analyze <file.rigid>
      instance statistics, attribute table and category decomposition
  catbatch generate --family F --n N --procs P [--seed S]
      emit a random instance in .rigid format to stdout
      families: layered, erdos, fork_join, series_parallel, out_tree,
                in_tree, chains, independent
  catbatch faults <file.rigid> [--scheduler S] [--seed N] [--trials K]
                  [--fail F] [--straggle G] [--retries R]
                  [--journal PATH [--resume]] [--watchdog-ms N]
                  [--max-events N] [--jobs N] [--shard I/N]
      run a seeded fault campaign: K trials with fail-stop probability
      F permille and straggler probability G permille per attempt,
      retrying each task up to R times; reports retries, wasted area
      and makespan inflation vs the fault-free run
      defaults: --seed 42 --trials 5 --fail 200 --straggle 0 --retries 3
      --journal checkpoints every finished trial (fsynced JSONL);
      --resume replays journaled trials instead of re-running them, so
      a killed campaign picks up where it stopped; --watchdog-ms cuts
      off hung trials; --max-events bounds each trial's engine events;
      panics, timeouts and blown budgets are recorded per trial while
      the rest of the campaign keeps running (see docs/resilience.md);
      --jobs fans trials out over N worker threads (default: all
      cores) — reports and journals are byte-identical for every N;
      --shard I/N runs only the I-th of N balanced slices of the seed
      space (requires --journal) so a campaign spreads over processes
      or machines; `catbatch merge` rejoins the shard journals
  catbatch merge <shard.jsonl>... --out PATH
      validate a full set of --shard journal files (same scenario
      fingerprint and shard count, all indices present exactly once,
      every shard complete, no seed recorded twice) and write the
      merged journal — byte-identical to the journal one unsharded
      process would have written, so `faults --journal PATH --resume`
      replays it into the single-process report
  catbatch bench [--json] [--quick] [--profile] [--out PATH]
                 [--check BASELINE] [--journal PATH [--resume]]
                 [--jobs N]
      run the fixed perf scenario matrix (paper figures + random DAGs
      up to n = 1e7; the quick tier stops at 1e6) and print the
      throughput table; --json also
      writes BENCH_engine.json (or PATH); --quick runs the small tier;
      --profile also prints the engine-loop counter breakdown (calendar
      queue pushes/pops, rational fallbacks, decision rounds, cohort
      batch sizes, scratch pre-sizing overruns) per scenario;
      --check fails when a scenario's engine counters differ from a
      baseline report's or its events/sec regressed >2x;
      --journal/--resume checkpoint finished scenarios so a killed
      bench run resumes without re-timing them; --jobs runs the sweep
      on N worker threads (scenario order in the report is unchanged)
  catbatch serve [--bind PATH | --tcp ADDR] [--workers N]
                 [--queue-depth N] [--journal PATH] [--watchdog-ms N]
                 [--max-events N] [--retries R] [--max-sessions N]
      run the scheduling daemon: clients submit instances over
      length-prefixed JSON frames (see docs/serve.md) and stream back
      schedule summaries; runs until SIGINT/SIGTERM or a client's
      shutdown request, then drains in order
      defaults: --bind catbatch.sock --workers 4 --queue-depth 64
      --retries 1 --max-sessions 256; --journal makes accepted jobs
      crash-recoverable — a restarted daemon replays the backlog
      before going live; connections past --max-sessions are refused
      with a retryable `overloaded` error
  catbatch loadgen [--bind PATH | --tcp ADDR] [--clients N] [--jobs N]
                   [--n N] [--procs P] [--scheduler S] [--seed S]
                   [--window W] [--shutdown] [--read-timeout-ms MS]
                   [--max-attempts N]
      drive a running daemon with N concurrent clients, each
      submitting a deterministic generated DAG --jobs times with a
      bounded pipeline window; prints throughput and latency
      quantiles plus retry/reconnect counts; --shutdown stops the
      daemon afterwards; every submit carries an idempotency key, so
      retries after resets or evictions are exactly-once
      defaults: --clients 4 --jobs 25 --n 100 --procs 16
      --scheduler catbatch --seed 42 --window 32
      --read-timeout-ms 30000 --max-attempts 8
  catbatch chaos-proxy [--listen PATH | --listen-tcp ADDR]
                       [--upstream PATH | --upstream-tcp ADDR]
                       [--seed S] [--plan SPEC]
      run a deterministic fault-injecting relay in front of a daemon:
      clients connect to --listen, bytes are forwarded to --upstream
      with faults drawn from a ChaCha8 stream keyed by --seed; the
      plan grammar is `delay=LO[..HI]ms, tear=MAX, trickle=BYTES/MSms,
      reset=LO[..HI], corrupt=PPM` (empty plan = transparent relay);
      runs until SIGINT/SIGTERM, then prints a relay report
      defaults: --listen catbatch-chaos.sock --upstream catbatch.sock
      --seed 42 --plan \"\"
  catbatch convert <file.rigid> --dot
      emit Graphviz DOT to stdout
  catbatch verify <file.rigid> <schedule.json>
      validate a schedule (serde JSON of rigid_sim::Schedule) against an
      instance: capacity, precedence, completeness
  catbatch help
";

fn take_value<'a>(flag: &str, it: &mut impl Iterator<Item = &'a str>) -> Result<String, String> {
    it.next()
        .map(str::to_string)
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// The next argument parsed as the value of `flag`.
fn take_parsed<'a, T: std::str::FromStr>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a str>,
) -> Result<T, String> {
    take_value(flag, it)?
        .parse()
        .map_err(|_| format!("bad {flag} value"))
}

/// The next argument as a worker count of at least 1.
fn take_jobs<'a>(it: &mut impl Iterator<Item = &'a str>) -> Result<usize, String> {
    match take_parsed("--jobs", it)? {
        0 => Err("--jobs must be at least 1".into()),
        n => Ok(n),
    }
}

/// The next argument as a scheduler name the daemon knows.
fn take_scheduler<'a>(it: &mut impl Iterator<Item = &'a str>) -> Result<String, String> {
    let name = take_value("--scheduler", it)?;
    if SCHEDULERS.contains(&name.as_str()) {
        Ok(name)
    } else {
        Err(format!(
            "unknown scheduler {name:?} (try: {})",
            SCHEDULERS.join(", ")
        ))
    }
}

/// Parses command-line arguments (without the program name).
pub fn parse_args<S: AsRef<str>>(args: &[S]) -> Result<Command, String> {
    let strs: Vec<&str> = args.iter().map(|s| s.as_ref()).collect();
    let mut it = strs.iter().copied();
    match it.next() {
        None | Some("help") | Some("--help") | Some("-h") => Ok(Command::Help),
        Some("schedule") => {
            let mut file = None;
            let mut scheduler = "catbatch".to_string();
            let mut gantt = false;
            let mut trace = false;
            let mut svg = false;
            while let Some(a) = it.next() {
                match a {
                    "--scheduler" => scheduler = take_scheduler(&mut it)?,
                    "--gantt" => gantt = true,
                    "--trace" => trace = true,
                    "--svg" => svg = true,
                    f if !f.starts_with('-') && file.is_none() => file = Some(f.to_string()),
                    other => return Err(format!("unexpected argument {other:?}")),
                }
            }
            Ok(Command::Schedule {
                file: file.ok_or("schedule needs an instance file")?,
                scheduler,
                gantt,
                trace,
                svg,
            })
        }
        Some("analyze") => {
            let file = it.next().ok_or("analyze needs an instance file")?;
            Ok(Command::Analyze {
                file: file.to_string(),
            })
        }
        Some("generate") => {
            let mut family = None;
            let mut n = None;
            let mut procs = None;
            let mut seed = 0u64;
            while let Some(a) = it.next() {
                match a {
                    "--family" => family = Some(take_value(a, &mut it)?),
                    "--n" => n = Some(take_parsed(a, &mut it)?),
                    "--procs" => procs = Some(take_parsed(a, &mut it)?),
                    "--seed" => seed = take_parsed(a, &mut it)?,
                    other => return Err(format!("unexpected argument {other:?}")),
                }
            }
            Ok(Command::Generate {
                family: family.ok_or("generate needs --family")?,
                n: n.ok_or("generate needs --n")?,
                procs: procs.ok_or("generate needs --procs")?,
                seed,
            })
        }
        Some("faults") => {
            let mut file = None;
            let mut scheduler = "catbatch".to_string();
            let mut seed = 42u64;
            let mut trials = 5usize;
            let mut fail = 200u32;
            let mut straggle = 0u32;
            let mut retries = 3u32;
            let mut journal = None;
            let mut resume = false;
            let mut watchdog_ms = None;
            let mut max_events = None;
            let mut jobs = None;
            let mut shard = None;
            let mut chaos_exit_after = None;
            while let Some(a) = it.next() {
                match a {
                    "--scheduler" => scheduler = take_scheduler(&mut it)?,
                    "--seed" => seed = take_parsed(a, &mut it)?,
                    "--trials" => trials = take_parsed(a, &mut it)?,
                    "--fail" => fail = take_parsed(a, &mut it)?,
                    "--straggle" => straggle = take_parsed(a, &mut it)?,
                    "--retries" => retries = take_parsed(a, &mut it)?,
                    "--journal" => journal = Some(take_value(a, &mut it)?),
                    "--resume" => resume = true,
                    "--watchdog-ms" => watchdog_ms = Some(take_parsed(a, &mut it)?),
                    "--max-events" => max_events = Some(take_parsed(a, &mut it)?),
                    "--jobs" => jobs = Some(take_jobs(&mut it)?),
                    "--shard" => {
                        shard = Some(
                            ShardSpec::parse(&take_value(a, &mut it)?)
                                .map_err(|e| format!("--shard: {e}"))?,
                        )
                    }
                    "--chaos-exit-after" => chaos_exit_after = Some(take_parsed(a, &mut it)?),
                    f if !f.starts_with('-') && file.is_none() => file = Some(f.to_string()),
                    other => return Err(format!("unexpected argument {other:?}")),
                }
            }
            if fail > 1000 || straggle > 1000 {
                return Err("--fail/--straggle are permille (0..=1000)".into());
            }
            if trials == 0 {
                return Err("--trials must be at least 1".into());
            }
            if resume && journal.is_none() {
                return Err("--resume needs --journal".into());
            }
            if shard.is_some() && journal.is_none() {
                return Err(
                    "--shard needs --journal (each shard writes its own journal file)".into(),
                );
            }
            Ok(Command::Faults {
                file: file.ok_or("faults needs an instance file")?,
                scheduler,
                seed,
                trials,
                fail,
                straggle,
                retries,
                journal,
                resume,
                watchdog_ms,
                max_events,
                jobs,
                shard,
                chaos_exit_after,
            })
        }
        Some("merge") => {
            let mut inputs = Vec::new();
            let mut out = None;
            while let Some(a) = it.next() {
                match a {
                    "--out" => out = Some(take_value(a, &mut it)?),
                    f if !f.starts_with('-') => inputs.push(f.to_string()),
                    other => return Err(format!("unexpected argument {other:?}")),
                }
            }
            if inputs.is_empty() {
                return Err("merge needs at least one shard journal file".into());
            }
            Ok(Command::Merge {
                inputs,
                out: out.ok_or("merge needs --out PATH for the merged journal")?,
            })
        }
        Some("bench") => {
            let mut json = false;
            let mut quick = false;
            let mut out = "BENCH_engine.json".to_string();
            let mut check = None;
            let mut journal = None;
            let mut resume = false;
            let mut jobs = None;
            let mut profile = false;
            while let Some(a) = it.next() {
                match a {
                    "--json" => json = true,
                    "--quick" => quick = true,
                    "--profile" => profile = true,
                    "--out" => out = take_value(a, &mut it)?,
                    "--check" => check = Some(take_value(a, &mut it)?),
                    "--journal" => journal = Some(take_value(a, &mut it)?),
                    "--resume" => resume = true,
                    "--jobs" => jobs = Some(take_jobs(&mut it)?),
                    other => return Err(format!("unexpected argument {other:?}")),
                }
            }
            if resume && journal.is_none() {
                return Err("--resume needs --journal".into());
            }
            Ok(Command::Bench {
                json,
                quick,
                out,
                check,
                journal,
                resume,
                jobs,
                profile,
            })
        }
        Some("serve") => {
            let mut bind = "catbatch.sock".to_string();
            let mut tcp = None;
            let mut workers = 4usize;
            let mut queue_depth = 64usize;
            let mut journal = None;
            let mut watchdog_ms = None;
            let mut max_events = None;
            let mut retries = 1u32;
            let mut max_sessions = 256usize;
            while let Some(a) = it.next() {
                match a {
                    "--bind" => bind = take_value(a, &mut it)?,
                    "--tcp" => tcp = Some(take_value(a, &mut it)?),
                    "--max-sessions" => max_sessions = take_parsed(a, &mut it)?,
                    "--workers" => workers = take_parsed(a, &mut it)?,
                    "--queue-depth" => queue_depth = take_parsed(a, &mut it)?,
                    "--journal" => journal = Some(take_value(a, &mut it)?),
                    "--watchdog-ms" => watchdog_ms = Some(take_parsed(a, &mut it)?),
                    "--max-events" => max_events = Some(take_parsed(a, &mut it)?),
                    "--retries" => retries = take_parsed(a, &mut it)?,
                    other => return Err(format!("unexpected argument {other:?}")),
                }
            }
            if workers == 0 {
                return Err("--workers must be at least 1".into());
            }
            if queue_depth == 0 {
                return Err("--queue-depth must be at least 1".into());
            }
            if max_sessions == 0 {
                return Err("--max-sessions must be at least 1".into());
            }
            Ok(Command::Serve {
                bind,
                tcp,
                workers,
                queue_depth,
                journal,
                watchdog_ms,
                max_events,
                retries,
                max_sessions,
            })
        }
        Some("loadgen") => {
            let mut bind = "catbatch.sock".to_string();
            let mut tcp = None;
            let mut clients = 4usize;
            let mut jobs = 25usize;
            let mut n = 100usize;
            let mut procs = 16u32;
            let mut scheduler = "catbatch".to_string();
            let mut seed = 42u64;
            let mut window = 32usize;
            let mut shutdown = false;
            let mut read_timeout_ms = 30_000u64;
            let mut max_attempts = 8u32;
            while let Some(a) = it.next() {
                match a {
                    "--bind" => bind = take_value(a, &mut it)?,
                    "--tcp" => tcp = Some(take_value(a, &mut it)?),
                    "--read-timeout-ms" => read_timeout_ms = take_parsed(a, &mut it)?,
                    "--max-attempts" => max_attempts = take_parsed(a, &mut it)?,
                    "--clients" => clients = take_parsed(a, &mut it)?,
                    "--jobs" => jobs = take_parsed(a, &mut it)?,
                    "--n" => n = take_parsed(a, &mut it)?,
                    "--procs" => procs = take_parsed(a, &mut it)?,
                    "--scheduler" => scheduler = take_scheduler(&mut it)?,
                    "--seed" => seed = take_parsed(a, &mut it)?,
                    "--window" => window = take_parsed(a, &mut it)?,
                    "--shutdown" => shutdown = true,
                    other => return Err(format!("unexpected argument {other:?}")),
                }
            }
            if clients == 0 || jobs == 0 {
                return Err("--clients/--jobs must be at least 1".into());
            }
            if window == 0 {
                return Err("--window must be at least 1".into());
            }
            if read_timeout_ms == 0 || max_attempts == 0 {
                return Err("--read-timeout-ms/--max-attempts must be at least 1".into());
            }
            Ok(Command::Loadgen {
                bind,
                tcp,
                clients,
                jobs,
                n,
                procs,
                scheduler,
                seed,
                window,
                shutdown,
                read_timeout_ms,
                max_attempts,
            })
        }
        Some("chaos-proxy") => {
            let mut listen = "catbatch-chaos.sock".to_string();
            let mut listen_tcp = None;
            let mut upstream = "catbatch.sock".to_string();
            let mut upstream_tcp = None;
            let mut seed = 42u64;
            let mut plan = String::new();
            while let Some(a) = it.next() {
                match a {
                    "--listen" => listen = take_value(a, &mut it)?,
                    "--listen-tcp" => listen_tcp = Some(take_value(a, &mut it)?),
                    "--upstream" => upstream = take_value(a, &mut it)?,
                    "--upstream-tcp" => upstream_tcp = Some(take_value(a, &mut it)?),
                    "--seed" => seed = take_parsed(a, &mut it)?,
                    "--plan" => plan = take_value(a, &mut it)?,
                    other => return Err(format!("unexpected argument {other:?}")),
                }
            }
            // Fail on a bad plan here, not after the listener binds.
            rigid_serve::ChaosPlan::parse(&plan).map_err(|e| e.to_string())?;
            Ok(Command::ChaosProxy {
                listen,
                listen_tcp,
                upstream,
                upstream_tcp,
                seed,
                plan,
            })
        }
        Some("verify") => {
            let file = it.next().ok_or("verify needs an instance file")?;
            let schedule = it.next().ok_or("verify needs a schedule JSON file")?;
            Ok(Command::Verify {
                file: file.to_string(),
                schedule: schedule.to_string(),
            })
        }
        Some("convert") => {
            let mut file = None;
            let mut dot = false;
            for a in it {
                match a {
                    "--dot" => dot = true,
                    f if !f.starts_with('-') && file.is_none() => file = Some(f.to_string()),
                    other => return Err(format!("unexpected argument {other:?}")),
                }
            }
            if !dot {
                return Err("convert currently requires --dot".into());
            }
            Ok(Command::Convert {
                file: file.ok_or("convert needs an instance file")?,
            })
        }
        Some(other) => Err(format!("unknown command {other:?}; try `catbatch help`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_schedule() {
        let c = parse_args(&["schedule", "w.rigid", "--scheduler", "backfill", "--gantt"]).unwrap();
        assert_eq!(
            c,
            Command::Schedule {
                file: "w.rigid".into(),
                scheduler: "backfill".into(),
                gantt: true,
                trace: false,
                svg: false,
            }
        );
    }

    #[test]
    fn parses_generate() {
        let c = parse_args(&[
            "generate", "--family", "layered", "--n", "50", "--procs", "8", "--seed", "3",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Generate {
                family: "layered".into(),
                n: 50,
                procs: 8,
                seed: 3,
            }
        );
    }

    #[test]
    fn help_default() {
        assert_eq!(parse_args::<&str>(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&["--help"]).unwrap(), Command::Help);
    }

    #[test]
    fn parses_bench() {
        assert_eq!(
            parse_args(&["bench"]).unwrap(),
            Command::Bench {
                json: false,
                quick: false,
                out: "BENCH_engine.json".into(),
                check: None,
                journal: None,
                resume: false,
                jobs: None,
                profile: false,
            }
        );
        assert_eq!(
            parse_args(&[
                "bench",
                "--json",
                "--quick",
                "--out",
                "b.json",
                "--check",
                "base.json",
                "--journal",
                "j.jsonl",
                "--resume",
                "--jobs",
                "4",
                "--profile",
            ])
            .unwrap(),
            Command::Bench {
                json: true,
                quick: true,
                out: "b.json".into(),
                check: Some("base.json".into()),
                journal: Some("j.jsonl".into()),
                resume: true,
                jobs: Some(4),
                profile: true,
            }
        );
        assert!(parse_args(&["bench", "--out"]).is_err());
        assert!(parse_args(&["bench", "extra"]).is_err());
        assert!(parse_args(&["bench", "--resume"]).is_err());
    }

    #[test]
    fn parses_and_validates_jobs() {
        match parse_args(&["faults", "w.rigid", "--jobs", "8"]).unwrap() {
            Command::Faults { jobs, .. } => assert_eq!(jobs, Some(8)),
            other => panic!("expected Faults, got {other:?}"),
        }
        match parse_args(&["faults", "w.rigid"]).unwrap() {
            Command::Faults { jobs, .. } => assert_eq!(jobs, None),
            other => panic!("expected Faults, got {other:?}"),
        }
        assert!(parse_args(&["faults", "w.rigid", "--jobs", "0"]).is_err());
        assert!(parse_args(&["faults", "w.rigid", "--jobs", "lots"]).is_err());
        assert!(parse_args(&["bench", "--jobs", "0"]).is_err());
    }

    #[test]
    fn parses_faults_supervision_flags() {
        let c = parse_args(&[
            "faults",
            "w.rigid",
            "--journal",
            "j.jsonl",
            "--resume",
            "--watchdog-ms",
            "5000",
            "--max-events",
            "1000000",
        ])
        .unwrap();
        match c {
            Command::Faults {
                journal,
                resume,
                watchdog_ms,
                max_events,
                ..
            } => {
                assert_eq!(journal.as_deref(), Some("j.jsonl"));
                assert!(resume);
                assert_eq!(watchdog_ms, Some(5_000));
                assert_eq!(max_events, Some(1_000_000));
            }
            other => panic!("expected Faults, got {other:?}"),
        }
        assert!(parse_args(&["faults", "w.rigid", "--resume"]).is_err());
        assert!(parse_args(&["faults", "w.rigid", "--watchdog-ms", "abc"]).is_err());
    }

    #[test]
    fn parses_and_validates_shard() {
        match parse_args(&[
            "faults",
            "w.rigid",
            "--journal",
            "j.jsonl",
            "--shard",
            "2/8",
        ])
        .unwrap()
        {
            Command::Faults { shard, .. } => {
                assert_eq!(shard, Some(ShardSpec { index: 2, count: 8 }))
            }
            other => panic!("expected Faults, got {other:?}"),
        }
        // The full rejection matrix, each with an actionable message.
        for bad in ["0/4", "5/4", "1/0", "2", "a/b", ""] {
            let err = parse_args(&["faults", "w.rigid", "--journal", "j", "--shard", bad])
                .expect_err(bad);
            assert!(err.starts_with("--shard:"), "{bad}: {err}");
        }
        assert!(
            parse_args(&["faults", "w.rigid", "--shard", "1/2"])
                .unwrap_err()
                .contains("--journal"),
            "--shard without --journal must say what is missing"
        );
    }

    #[test]
    fn parses_chaos_hook_but_keeps_it_out_of_usage() {
        match parse_args(&[
            "faults",
            "w.rigid",
            "--journal",
            "j",
            "--chaos-exit-after",
            "7",
        ])
        .unwrap()
        {
            Command::Faults {
                chaos_exit_after, ..
            } => assert_eq!(chaos_exit_after, Some(7)),
            other => panic!("expected Faults, got {other:?}"),
        }
        assert!(parse_args(&["faults", "w.rigid", "--chaos-exit-after", "x"]).is_err());
        assert!(
            !USAGE.contains("chaos-exit-after"),
            "the crash-chaos hook is a hidden test surface"
        );
    }

    #[test]
    fn parses_merge() {
        assert_eq!(
            parse_args(&["merge", "a.jsonl", "b.jsonl", "--out", "m.jsonl"]).unwrap(),
            Command::Merge {
                inputs: vec!["a.jsonl".into(), "b.jsonl".into()],
                out: "m.jsonl".into(),
            }
        );
        assert!(
            parse_args(&["merge", "--out", "m.jsonl"]).is_err(),
            "no inputs"
        );
        assert!(parse_args(&["merge", "a.jsonl"]).is_err(), "no --out");
        assert!(parse_args(&["merge", "a.jsonl", "--frob"]).is_err());
    }

    #[test]
    fn parses_serve() {
        assert_eq!(
            parse_args(&["serve"]).unwrap(),
            Command::Serve {
                bind: "catbatch.sock".into(),
                tcp: None,
                workers: 4,
                queue_depth: 64,
                journal: None,
                watchdog_ms: None,
                max_events: None,
                retries: 1,
                max_sessions: 256,
            }
        );
        match parse_args(&[
            "serve",
            "--bind",
            "/tmp/s.sock",
            "--workers",
            "8",
            "--queue-depth",
            "16",
            "--journal",
            "j.jsonl",
            "--watchdog-ms",
            "2000",
            "--max-events",
            "500000",
            "--retries",
            "2",
        ])
        .unwrap()
        {
            Command::Serve {
                bind,
                workers,
                queue_depth,
                journal,
                watchdog_ms,
                max_events,
                retries,
                ..
            } => {
                assert_eq!(bind, "/tmp/s.sock");
                assert_eq!(workers, 8);
                assert_eq!(queue_depth, 16);
                assert_eq!(journal.as_deref(), Some("j.jsonl"));
                assert_eq!(watchdog_ms, Some(2_000));
                assert_eq!(max_events, Some(500_000));
                assert_eq!(retries, 2);
            }
            other => panic!("expected Serve, got {other:?}"),
        }
        match parse_args(&["serve", "--tcp", "127.0.0.1:7070"]).unwrap() {
            Command::Serve { tcp, .. } => assert_eq!(tcp.as_deref(), Some("127.0.0.1:7070")),
            other => panic!("expected Serve, got {other:?}"),
        }
        assert!(parse_args(&["serve", "--workers", "0"]).is_err());
        assert!(parse_args(&["serve", "--queue-depth", "0"]).is_err());
        assert!(parse_args(&["serve", "--max-sessions", "0"]).is_err());
        assert!(parse_args(&["serve", "extra"]).is_err());
    }

    #[test]
    fn parses_loadgen() {
        match parse_args(&["loadgen"]).unwrap() {
            Command::Loadgen {
                bind,
                clients,
                jobs,
                n,
                procs,
                scheduler,
                seed,
                window,
                shutdown,
                read_timeout_ms,
                max_attempts,
                ..
            } => {
                assert_eq!(bind, "catbatch.sock");
                assert_eq!((clients, jobs, n, procs), (4, 25, 100, 16));
                assert_eq!(scheduler, "catbatch");
                assert_eq!(seed, 42);
                assert_eq!(window, 32);
                assert!(!shutdown);
                assert_eq!(read_timeout_ms, 30_000);
                assert_eq!(max_attempts, 8);
            }
            other => panic!("expected Loadgen, got {other:?}"),
        }
        match parse_args(&[
            "loadgen",
            "--clients",
            "2",
            "--jobs",
            "50",
            "--scheduler",
            "backfill",
            "--window",
            "8",
            "--shutdown",
            "--read-timeout-ms",
            "500",
            "--max-attempts",
            "3",
        ])
        .unwrap()
        {
            Command::Loadgen {
                clients,
                jobs,
                scheduler,
                window,
                shutdown,
                read_timeout_ms,
                max_attempts,
                ..
            } => {
                assert_eq!((clients, jobs, window), (2, 50, 8));
                assert_eq!(scheduler, "backfill");
                assert!(shutdown);
                assert_eq!(read_timeout_ms, 500);
                assert_eq!(max_attempts, 3);
            }
            other => panic!("expected Loadgen, got {other:?}"),
        }
        assert!(parse_args(&["loadgen", "--scheduler", "zzz"]).is_err());
        assert!(parse_args(&["loadgen", "--clients", "0"]).is_err());
        assert!(parse_args(&["loadgen", "--window", "0"]).is_err());
        assert!(parse_args(&["loadgen", "--max-attempts", "0"]).is_err());
    }

    #[test]
    fn parses_chaos_proxy() {
        match parse_args(&["chaos-proxy"]).unwrap() {
            Command::ChaosProxy {
                listen,
                listen_tcp,
                upstream,
                upstream_tcp,
                seed,
                plan,
            } => {
                assert_eq!(listen, "catbatch-chaos.sock");
                assert_eq!(listen_tcp, None);
                assert_eq!(upstream, "catbatch.sock");
                assert_eq!(upstream_tcp, None);
                assert_eq!(seed, 42);
                assert!(plan.is_empty());
            }
            other => panic!("expected ChaosProxy, got {other:?}"),
        }
        match parse_args(&[
            "chaos-proxy",
            "--listen",
            "c.sock",
            "--upstream-tcp",
            "127.0.0.1:7070",
            "--seed",
            "7",
            "--plan",
            "delay=1..5ms, reset=200..400",
        ])
        .unwrap()
        {
            Command::ChaosProxy {
                listen,
                upstream_tcp,
                seed,
                plan,
                ..
            } => {
                assert_eq!(listen, "c.sock");
                assert_eq!(upstream_tcp.as_deref(), Some("127.0.0.1:7070"));
                assert_eq!(seed, 7);
                assert_eq!(plan, "delay=1..5ms, reset=200..400");
            }
            other => panic!("expected ChaosProxy, got {other:?}"),
        }
        // Malformed plans are rejected at parse time, before any socket binds.
        assert!(parse_args(&["chaos-proxy", "--plan", "frobnicate=1"]).is_err());
        assert!(parse_args(&["chaos-proxy", "--seed", "x"]).is_err());
        assert!(USAGE.contains("chaos-proxy"));
    }

    #[test]
    fn parses_verify() {
        let c = parse_args(&["verify", "w.rigid", "s.json"]).unwrap();
        assert_eq!(
            c,
            Command::Verify {
                file: "w.rigid".into(),
                schedule: "s.json".into()
            }
        );
        assert!(parse_args(&["verify", "w.rigid"]).is_err());
    }

    #[test]
    fn every_numeric_flag_names_itself_when_its_value_is_not_a_number() {
        let numeric: [(&str, &[&str]); 6] = [
            ("generate", &["--n", "--procs", "--seed"]),
            (
                "faults",
                &[
                    "--seed",
                    "--trials",
                    "--fail",
                    "--straggle",
                    "--retries",
                    "--watchdog-ms",
                    "--max-events",
                    "--jobs",
                    "--chaos-exit-after",
                ],
            ),
            ("bench", &["--jobs"]),
            (
                "serve",
                &[
                    "--max-sessions",
                    "--workers",
                    "--queue-depth",
                    "--watchdog-ms",
                    "--max-events",
                    "--retries",
                ],
            ),
            (
                "loadgen",
                &[
                    "--read-timeout-ms",
                    "--max-attempts",
                    "--clients",
                    "--jobs",
                    "--n",
                    "--procs",
                    "--seed",
                    "--window",
                ],
            ),
            ("chaos-proxy", &["--seed"]),
        ];
        for (command, flags) in numeric {
            for &flag in flags {
                let err = parse_args(&[command, flag, "x1"]).expect_err(flag);
                assert_eq!(err, format!("bad {flag} value"), "{command} {flag}");
            }
        }
    }

    #[test]
    fn rejects_unknown() {
        assert!(parse_args(&["frobnicate"]).is_err());
        assert_eq!(
            parse_args(&["schedule", "f", "--scheduler", "zzz"]).unwrap_err(),
            "unknown scheduler \"zzz\" \
             (try: catbatch, backfill, catprio, strip, list-fifo, list-longest)"
        );
        assert!(parse_args(&["generate", "--n", "10"]).is_err());
        assert!(parse_args(&["convert", "f"]).is_err());
    }
}
