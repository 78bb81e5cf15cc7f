//! Command implementations. Each takes parsed inputs and returns the
//! text to print, so everything is unit-testable without touching the
//! file system.

use crate::args::{Command, USAGE};
use catbatch::analysis::{attribute_table, decompose, render_attribute_table};
use catbatch::{category_length, CatBatch};
use rigid_dag::gen::TaskSampler;
use rigid_dag::{analysis, format, gen, Instance, StaticSource};
use rigid_sim::gantt::{render, GanttOptions};
use rigid_sim::trace::Trace;
use rigid_sim::{engine, metrics, OnlineScheduler};

/// Runs a parsed command against already-loaded file contents.
/// `read_file` resolves a path to its text (injected for testability).
pub fn run_command(
    cmd: &Command,
    read_file: &dyn Fn(&str) -> Result<String, String>,
) -> Result<String, String> {
    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::Schedule {
            file,
            scheduler,
            gantt,
            trace,
            svg,
        } => {
            let inst = load(file, read_file)?;
            schedule_cmd(&inst, scheduler, *gantt, *trace, *svg)
        }
        Command::Analyze { file } => {
            let inst = load(file, read_file)?;
            Ok(analyze_cmd(&inst))
        }
        Command::Generate {
            family,
            n,
            procs,
            seed,
        } => generate_cmd(family, *n, *procs, *seed),
        Command::Convert { file } => {
            let inst = load(file, read_file)?;
            Ok(rigid_dag::io::to_dot(&inst))
        }
        Command::Faults {
            file,
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
        } => {
            let inst = load(file, read_file)?;
            faults_cmd(
                &inst,
                scheduler,
                *seed,
                *trials,
                *fail,
                *straggle,
                *retries,
                journal.as_deref(),
                *resume,
                *watchdog_ms,
                *max_events,
                *jobs,
                *shard,
                *chaos_exit_after,
            )
        }
        Command::Merge { inputs, out } => merge_cmd(inputs, out),
        Command::Bench {
            json,
            quick,
            out,
            check,
            journal,
            resume,
            jobs,
            profile,
        } => bench_cmd(
            *json,
            *quick,
            out,
            check.as_deref(),
            journal.as_deref(),
            *resume,
            *jobs,
            *profile,
            read_file,
        ),
        Command::Serve {
            bind,
            tcp,
            workers,
            queue_depth,
            journal,
            watchdog_ms,
            max_events,
            retries,
            max_sessions,
        } => serve_cmd(
            bind,
            tcp.as_deref(),
            *workers,
            *queue_depth,
            journal.as_deref(),
            *watchdog_ms,
            *max_events,
            *retries,
            *max_sessions,
        ),
        Command::Loadgen {
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
        } => loadgen_cmd(
            bind,
            tcp.as_deref(),
            *clients,
            *jobs,
            *n,
            *procs,
            scheduler,
            *seed,
            *window,
            *shutdown,
            *read_timeout_ms,
            *max_attempts,
        ),
        Command::ChaosProxy {
            listen,
            listen_tcp,
            upstream,
            upstream_tcp,
            seed,
            plan,
        } => chaos_proxy_cmd(
            listen,
            listen_tcp.as_deref(),
            upstream,
            upstream_tcp.as_deref(),
            *seed,
            plan,
        ),
        Command::Verify { file, schedule } => {
            let inst = load(file, read_file)?;
            let text = read_file(schedule)?;
            let sched: rigid_sim::Schedule = serde_json::from_str(&text)
                .map_err(|e| format!("{schedule}: invalid schedule JSON: {e}"))?;
            let violations = sched.validate(&inst);
            if violations.is_empty() {
                Ok(format!(
                    "OK: feasible schedule, makespan {}, ratio to Lb {:.4}\n",
                    sched.makespan(),
                    sched
                        .makespan()
                        .ratio(analysis::lower_bound(&inst))
                        .to_f64()
                ))
            } else {
                let mut out = String::from("INVALID schedule:\n");
                for v in violations {
                    out.push_str(&format!("  - {v:?}\n"));
                }
                Err(out)
            }
        }
    }
}

fn load(path: &str, read_file: &dyn Fn(&str) -> Result<String, String>) -> Result<Instance, String> {
    let text = read_file(path)?;
    format::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Why a scheduler name from a parsed [`Command`] always builds.
const NAME_VALIDATED: &str = "parse_args accepts only names in rigid_serve::SCHEDULERS";

fn schedule_cmd(
    inst: &Instance,
    scheduler: &str,
    gantt: bool,
    trace: bool,
    svg: bool,
) -> Result<String, String> {
    let mut sched = rigid_serve::scheduler_by_name(scheduler, inst.procs()).expect(NAME_VALIDATED);
    let name = sched.name();
    let result = engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), sched.as_mut());
    let violations = result.schedule.validate(inst);
    if !violations.is_empty() {
        return Err(format!("internal error: invalid schedule {violations:?}"));
    }
    if svg {
        return Ok(rigid_sim::svg::render_svg(
            &result.schedule,
            inst.graph(),
            &rigid_sim::svg::SvgOptions::default(),
        ));
    }
    let m = metrics::metrics(&result.schedule, inst);
    let mut out = String::new();
    out.push_str(&format!(
        "scheduler    : {name}\nn            : {}\nP            : {}\nmakespan     : {}\nlower bound  : {}\nratio        : {:.4}\nutilization  : {:.1}%\ntheorem 1    : ratio ≤ log2(n)+3 = {:.3}\n",
        inst.len(),
        inst.procs(),
        m.makespan,
        m.lower_bound,
        m.ratio_to_lb.to_f64(),
        m.avg_utilization * 100.0,
        (inst.len() as f64).log2() + 3.0,
    ));
    if gantt {
        out.push('\n');
        out.push_str(&render(
            &result.schedule,
            inst.graph(),
            &GanttOptions {
                width: 90,
                labels: true,
            },
        ));
    }
    if trace {
        out.push('\n');
        out.push_str(&Trace::from_run(&result).to_json());
        out.push('\n');
    }
    Ok(out)
}

/// The named scheduler, configured for fault campaigns: CatBatch gets
/// the retry budget; the list schedulers retry inherently; the remaining
/// heuristics are fault-oblivious and abandon on the first failure
/// (which the report then shows).
fn build_fault_scheduler(name: &str, procs: u32, retries: u32) -> Box<dyn OnlineScheduler> {
    match name {
        "catbatch" => Box::new(CatBatch::new().with_retry_budget(retries)),
        other => rigid_serve::scheduler_by_name(other, procs).expect(NAME_VALIDATED),
    }
}

#[allow(clippy::too_many_arguments)]
fn faults_cmd(
    inst: &Instance,
    scheduler: &str,
    seed: u64,
    trials: usize,
    fail: u32,
    straggle: u32,
    retries: u32,
    journal: Option<&str>,
    resume: bool,
    watchdog_ms: Option<u64>,
    max_events: Option<u64>,
    jobs: Option<usize>,
    shard: Option<rigid_supervise::ShardSpec>,
    chaos_exit_after: Option<u64>,
) -> Result<String, String> {
    use rigid_faults::{run_trials_jobs, FaultConfig};

    let config = FaultConfig {
        fail_permille: fail,
        max_failures_per_task: retries.max(1),
        straggle_permille: straggle,
        straggle_factor_permille: (1250, 2000),
        dips: Vec::new(),
    };
    let seeds: Vec<u64> = (0..trials as u64).map(|i| seed + i).collect();
    let name = build_fault_scheduler(scheduler, inst.procs(), retries).name();
    let jobs = rigid_exec::resolve_jobs(jobs);
    let started = std::time::Instant::now();

    let supervised = journal.is_some()
        || resume
        || watchdog_ms.is_some()
        || max_events.is_some()
        || shard.is_some()
        || chaos_exit_after.is_some();
    if !supervised {
        // Same campaign semantics as before supervision existed; the
        // report is byte-for-byte identical for every worker count.
        let stats = run_trials_jobs(
            inst,
            &config,
            &seeds,
            rigid_sim::RunBudget::UNLIMITED,
            jobs,
            || build_fault_scheduler(scheduler, inst.procs(), retries),
        );
        report_throughput(trials, jobs, started.elapsed());
        return Ok(render_campaign(
            name, inst, &config, seed, trials, fail, straggle, retries, &stats,
        ));
    }

    use rigid_supervise::{run_campaign, CampaignOptions, SupervisorPolicy};
    let procs = inst.procs();
    let scheduler = scheduler.to_string();
    let options = CampaignOptions {
        policy: SupervisorPolicy {
            watchdog: watchdog_ms.map(std::time::Duration::from_millis),
            ..SupervisorPolicy::default()
        },
        budget: max_events
            .map_or(rigid_sim::RunBudget::UNLIMITED, rigid_sim::RunBudget::max_events),
        journal: journal.map(std::path::PathBuf::from),
        resume,
        jobs,
        shard,
    };
    rigid_supervise::interrupt::install();
    // The hidden chaos hook: after `chaos_exit_after` stop polls, die
    // the way `kill -9` would — no unwinding, no flush, no destructors.
    // With `--jobs 1` the stop condition is polled once per seed, so the
    // abort lands at a deterministic trial count (what the chaos tests
    // and the CI chaos-smoke job rely on).
    let chaos_polls = std::sync::atomic::AtomicU64::new(0);
    let token = rigid_supervise::interrupt::InterruptToken::current();
    let stop = move || {
        if let Some(k) = chaos_exit_after {
            if chaos_polls.fetch_add(1, std::sync::atomic::Ordering::Relaxed) >= k {
                std::process::abort();
            }
        }
        token.interrupted()
    };
    let outcome = run_campaign(
        inst,
        &config,
        &seeds,
        &options,
        stop,
        move || build_fault_scheduler(&scheduler, procs, retries),
    )
    .map_err(|e| e.to_string())?;
    report_throughput(outcome.executed, jobs, started.elapsed());

    let mut out = render_campaign(
        name, inst, &config, seed, trials, fail, straggle, retries, &outcome.stats,
    );
    out.push_str(&format!(
        "executed       : {}\nreplayed       : {}\n",
        outcome.executed, outcome.replayed
    ));
    if let Some(spec) = shard {
        out.push_str(&format!(
            "shard          : {spec} ({} of {trials} seed(s) assigned to this process)\n",
            spec.plan(&seeds).len()
        ));
    }
    if outcome.torn_tail {
        out.push_str("journal        : torn trailing record discarded (crash artifact)\n");
    }
    if outcome.interrupted {
        out.push_str(
            "INTERRUPTED    : campaign stopped early; partial results above — \
             rerun with --journal and --resume to finish\n",
        );
    }
    Ok(out)
}

/// Validates and merges a set of `--shard` journal files into the
/// single-process journal (see `rigid_supervise::merge`). The merged
/// file replays through `faults ... --journal PATH --resume` into the
/// byte-identical single-process report.
fn merge_cmd(inputs: &[String], out: &str) -> Result<String, String> {
    let paths: Vec<std::path::PathBuf> =
        inputs.iter().map(std::path::PathBuf::from).collect();
    let report = rigid_supervise::merge_shards(&paths, std::path::Path::new(out))
        .map_err(|e| e.to_string())?;
    let mut text = format!(
        "merged journal : {out}\nshards         : {}\ntrials         : {}\nscenario       : {} ({})\nfault-free     : {}\n",
        report.shards,
        report.trials,
        report.header.fingerprint,
        report.header.scheduler,
        report.header.fault_free_makespan,
    );
    for index in &report.torn_tails {
        text.push_str(&format!(
            "torn tail      : shard {index} had a torn trailing record (crash artifact, discarded)\n"
        ));
    }
    Ok(text)
}

/// Prints the campaign throughput line to **stderr**: stdout is the
/// byte-reproducible report (CI diffs it across runs and worker
/// counts), while throughput is wall-clock-dependent telemetry.
fn report_throughput(executed: usize, jobs: usize, elapsed: std::time::Duration) {
    let secs = elapsed.as_secs_f64();
    if executed > 0 && secs > 0.0 {
        eprintln!(
            "campaign throughput: {:.0} trials/sec ({executed} trials, --jobs {jobs})",
            executed as f64 / secs
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn render_campaign(
    name: &str,
    inst: &Instance,
    config: &rigid_faults::FaultConfig,
    seed: u64,
    trials: usize,
    fail: u32,
    straggle: u32,
    retries: u32,
    stats: &rigid_faults::CampaignStats,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "fault campaign : {name}\nn              : {}\nP              : {}\nconfig         : fail {fail}‰ (max {}/task), straggle {straggle}‰ (1.25x-2x), retries {retries}\ntrials         : {trials} (seeds {seed}..{})\nfault-free     : {}\n\n",
        inst.len(),
        inst.procs(),
        config.max_failures_per_task,
        seed + trials as u64 - 1,
        stats.fault_free_makespan,
    ));
    for t in &stats.trials {
        match &t.outcome {
            Ok(m) => {
                let inflation = t
                    .inflation(stats.fault_free_makespan)
                    .map(|r| r.to_f64())
                    .unwrap_or(1.0);
                out.push_str(&format!(
                    "seed {:<6}: makespan {} (x{:.4}), failures {}, wasted {}, inflated {}\n",
                    t.seed, m, inflation, t.failures, t.wasted_area, t.inflated_area,
                ));
            }
            Err(e) => {
                out.push_str(&format!("seed {:<6}: ABORTED — {e}\n", t.seed));
            }
        }
    }
    out.push_str(&format!(
        "\ncompleted      : {}/{}\ntotal failures : {}\ntotal wasted   : {}\n",
        stats.completed(),
        trials,
        stats.total_failures(),
        stats.total_wasted_area(),
    ));
    match (stats.max_inflation(), stats.mean_inflation()) {
        (Some(max), Some(mean)) => {
            out.push_str(&format!(
                "max inflation  : {:.4}\nmean inflation : {:.4}\n",
                max.to_f64(),
                mean.to_f64()
            ));
        }
        _ => out.push_str("max inflation  : n/a (no trial completed)\n"),
    }
    out
}

fn analyze_cmd(inst: &Instance) -> String {
    let stats = analysis::stats(inst);
    let mut out = String::new();
    let ratio = match stats.length_ratio() {
        Some(r) => format!("{r:.3}"),
        None => "n/a".to_string(),
    };
    out.push_str(&format!(
        "n              : {}\nP              : {}\nedges          : {}\narea A         : {}\ncritical path C: {}\nlower bound Lb : {}\nM/m            : {}\n\n",
        stats.n,
        stats.procs,
        inst.graph().edge_count(),
        stats.area,
        stats.critical_path,
        stats.lower_bound,
        ratio,
    ));
    out.push_str("attribute table (paper Definitions 1-3):\n");
    out.push_str(&render_attribute_table(&attribute_table(inst)));
    let d = decompose(inst);
    out.push_str(&format!(
        "\ncategory batches ({}):\n",
        d.batch_count()
    ));
    for (cat, tasks) in &d.categories {
        out.push_str(&format!(
            "  ζ = {:<8} L_ζ = {:<8} {} task(s)\n",
            format!("{}", cat.value()),
            format!("{}", category_length(*cat, d.critical_path)),
            tasks.len()
        ));
    }
    out
}

fn generate_cmd(family: &str, n: usize, procs: u32, seed: u64) -> Result<String, String> {
    let sampler = TaskSampler::default_mix();
    let width = (n as f64).sqrt().ceil() as usize;
    let inst = match family {
        "layered" => gen::layered(seed, n.div_ceil(width).max(1), width, &sampler, procs),
        "erdos" => gen::erdos_dag(seed, n, (4.0 / n as f64).min(1.0), &sampler, procs),
        "fork_join" => gen::fork_join(seed, n.div_ceil(width + 2).max(1), width, &sampler, procs),
        "series_parallel" => gen::series_parallel(seed, n, &sampler, procs),
        "out_tree" => gen::out_tree(seed, n, 3, &sampler, procs),
        "in_tree" => gen::in_tree(seed, n, 3, &sampler, procs),
        "chains" => gen::chains(seed, width.max(1), n.div_ceil(width).max(1), &sampler, procs),
        "independent" => gen::independent(seed, n, &sampler, procs),
        other => return Err(format!("unknown family {other:?}")),
    };
    Ok(format::write(&inst))
}

/// Runs the perf scenario matrix. The report is always printed as a
/// table; `--json` additionally writes the machine-readable document to
/// `out` (the trajectory file `BENCH_engine.json` by default — the one
/// place this CLI writes a file, since the trajectory is the product).
/// With `--check`, the run fails if any shared scenario's engine
/// counters differ from the given baseline report's, or its events/sec
/// regressed more than 2x.
#[allow(clippy::too_many_arguments)]
fn bench_cmd(
    json: bool,
    quick: bool,
    out: &str,
    check: Option<&str>,
    journal: Option<&str>,
    resume: bool,
    jobs: Option<usize>,
    profile: bool,
    read_file: &dyn Fn(&str) -> Result<String, String>,
) -> Result<String, String> {
    let jobs = rigid_exec::resolve_jobs(jobs);
    let run =
        rigid_bench::perf::run_journaled(quick, journal.map(std::path::Path::new), resume, jobs)?;
    let report = run.report;
    let mut text = rigid_bench::perf::render_table(&report);
    if profile {
        text.push('\n');
        text.push_str(&rigid_bench::perf::render_profile(&report));
    }
    if journal.is_some() {
        text.push_str(&format!(
            "\nscenarios executed : {}\nscenarios replayed : {}\n",
            run.executed, run.replayed
        ));
    }
    if json {
        let doc = serde_json::to_string_pretty(&report)
            .map_err(|e| format!("cannot serialize report: {e}"))?;
        std::fs::write(out, format!("{doc}\n"))
            .map_err(|e| format!("cannot write {out:?}: {e}"))?;
        text.push_str(&format!("\nwrote {out}\n"));
    }
    if let Some(base_path) = check {
        let base_text = read_file(base_path).map_err(|e| {
            format!(
                "--check baseline unavailable: {e}\n\
                 create one with `catbatch bench --json --out {base_path}` \
                 (or point --check at an existing report)"
            )
        })?;
        let baseline: rigid_bench::perf::BenchReport = serde_json::from_str(&base_text)
            .map_err(|e| {
                format!(
                    "{base_path}: not a {} report: {e}\n\
                     regenerate it with `catbatch bench --json --out {base_path}`",
                    rigid_bench::perf::SCHEMA
                )
            })?;
        rigid_bench::perf::check_regression(&report, &baseline, 2.0)?;
        text.push_str(&format!(
            "regression check vs {base_path}: OK (threshold 2x)\n"
        ));
    }
    Ok(text)
}

fn resolve_bind(bind: &str, tcp: Option<&str>) -> rigid_serve::Bind {
    match tcp {
        Some(addr) => rigid_serve::Bind::Tcp(addr.to_string()),
        None => rigid_serve::Bind::Unix(std::path::PathBuf::from(bind)),
    }
}

/// Runs the daemon until SIGINT/SIGTERM or a client's shutdown request.
/// Unlike its siblings this blocks on real network I/O by nature; the
/// liveness line goes to stderr immediately, the drain report is the
/// returned text.
#[allow(clippy::too_many_arguments)]
fn serve_cmd(
    bind: &str,
    tcp: Option<&str>,
    workers: usize,
    queue_depth: usize,
    journal: Option<&str>,
    watchdog_ms: Option<u64>,
    max_events: Option<u64>,
    retries: u32,
    max_sessions: usize,
) -> Result<String, String> {
    let options = rigid_serve::ServeOptions {
        bind: resolve_bind(bind, tcp),
        workers,
        queue_depth,
        journal: journal.map(std::path::PathBuf::from),
        watchdog: watchdog_ms.map(std::time::Duration::from_millis),
        max_events,
        retries,
        max_sessions,
        ..rigid_serve::ServeOptions::default()
    };
    let bind_display = options.bind.clone();
    let daemon = rigid_serve::Daemon::start(options)?;
    eprintln!(
        "catbatch serve: listening on {bind_display} ({workers} worker{})",
        if workers == 1 { "" } else { "s" }
    );
    let report = daemon.wait();
    Ok(format!(
        "serve: drained\n\
         sessions       : {}\n\
         jobs completed : {}\n\
         jobs failed    : {}\n\
         jobs resumed   : {}\n",
        report.sessions, report.jobs_completed, report.jobs_failed, report.jobs_resumed
    ))
}

#[allow(clippy::too_many_arguments)]
fn loadgen_cmd(
    bind: &str,
    tcp: Option<&str>,
    clients: usize,
    jobs: usize,
    n: usize,
    procs: u32,
    scheduler: &str,
    seed: u64,
    window: usize,
    shutdown: bool,
    read_timeout_ms: u64,
    max_attempts: u32,
) -> Result<String, String> {
    let options = rigid_serve::LoadgenOptions {
        bind: resolve_bind(bind, tcp),
        clients,
        jobs,
        n,
        procs,
        scheduler: scheduler.to_string(),
        seed,
        window,
        shutdown,
        read_timeout: std::time::Duration::from_millis(read_timeout_ms),
        max_attempts,
        ..rigid_serve::LoadgenOptions::default()
    };
    let report = rigid_serve::loadgen::run(&options)?;
    Ok(format!(
        "loadgen: {} clients x {} jobs (n~{}, procs {}, scheduler {})\n\
         ok / errors  : {} / {}\n\
         retries      : {} ({} reconnects, {} gave up)\n\
         elapsed      : {:.1} ms\n\
         throughput   : {:.1} jobs/sec\n\
         latency p50  : {:.2} ms\n\
         latency p99  : {:.2} ms\n",
        clients,
        jobs,
        n,
        procs,
        scheduler,
        report.ok,
        report.errors,
        report.retries,
        report.reconnects,
        report.gave_up,
        report.elapsed_ms,
        report.jobs_per_sec,
        report.p50_ms,
        report.p99_ms,
    ))
}

/// Runs the chaos proxy until SIGINT/SIGTERM, then reports what it did
/// to the traffic. Like `serve_cmd`, this blocks on real network I/O;
/// the liveness line goes to stderr, the relay report is the returned
/// text.
fn chaos_proxy_cmd(
    listen: &str,
    listen_tcp: Option<&str>,
    upstream: &str,
    upstream_tcp: Option<&str>,
    seed: u64,
    plan: &str,
) -> Result<String, String> {
    let plan = rigid_serve::ChaosPlan::parse(plan).map_err(|e| e.to_string())?;
    let listen_bind = resolve_bind(listen, listen_tcp);
    let upstream_bind = resolve_bind(upstream, upstream_tcp);
    rigid_supervise::interrupt::install();
    let token = rigid_supervise::interrupt::InterruptToken::current();
    let proxy = rigid_serve::ChaosProxy::spawn(&listen_bind, upstream_bind.clone(), seed, plan)
        .map_err(|e| format!("chaos-proxy: bind {listen_bind}: {e}"))?;
    eprintln!("catbatch chaos-proxy: {listen_bind} -> {upstream_bind} (seed {seed})");
    while !token.interrupted() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let report = proxy.stop();
    Ok(format!(
        "chaos-proxy: stopped\n\
         connections       : {}\n\
         resets injected   : {}\n\
         bytes relayed     : {} up / {} down\n\
         bytes corrupted   : {}\n\
         upstream failures : {}\n",
        report.connections,
        report.resets,
        report.bytes_up,
        report.bytes_down,
        report.corrupted,
        report.upstream_failures,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;

    const SAMPLE: &str = "procs 4\ntask A 2 2\ntask B 1.5 3\nedge A B\n";

    fn fs(path: &str) -> Result<String, String> {
        match path {
            "sample.rigid" => Ok(SAMPLE.to_string()),
            _ => Err(format!("no such file {path:?}")),
        }
    }

    #[test]
    fn loadgen_command_against_a_live_daemon() {
        let sock = std::env::temp_dir()
            .join(format!("catbatch-cli-loadgen-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&sock);
        let daemon = rigid_serve::Daemon::start(rigid_serve::ServeOptions {
            bind: rigid_serve::Bind::Unix(sock.clone()),
            workers: 2,
            ..rigid_serve::ServeOptions::default()
        })
        .expect("daemon starts");
        let cmd = parse_args(&[
            "loadgen", "--bind", sock.to_str().unwrap(), "--clients", "2", "--jobs", "3",
            "--n", "30", "--scheduler", "list-fifo", "--shutdown",
        ])
        .unwrap();
        let out = run_command(&cmd, &fs).unwrap();
        assert!(out.contains("ok / errors  : 6 / 0"), "{out}");
        assert!(out.contains("scheduler list-fifo"), "{out}");
        let report = daemon.wait();
        assert_eq!(report.jobs_completed, 6);
    }

    #[test]
    fn schedule_command_end_to_end() {
        let cmd = parse_args(&["schedule", "sample.rigid", "--gantt"]).unwrap();
        let out = run_command(&cmd, &fs).unwrap();
        assert!(out.contains("makespan     : 3.5"));
        assert!(out.contains("scheduler    : catbatch"));
        assert!(out.contains('A')); // gantt label
    }

    #[test]
    fn schedule_with_every_scheduler() {
        for s in rigid_serve::SCHEDULERS {
            let cmd = parse_args(&["schedule", "sample.rigid", "--scheduler", s]).unwrap();
            let out = run_command(&cmd, &fs).unwrap();
            assert!(out.contains("makespan"), "{s}");
        }
    }

    #[test]
    fn schedule_trace_is_json() {
        let cmd = parse_args(&["schedule", "sample.rigid", "--trace"]).unwrap();
        let out = run_command(&cmd, &fs).unwrap();
        assert!(out.contains("\"Released\""));
        assert!(out.contains("\"Completed\""));
    }

    #[test]
    fn bench_quick_prints_table_without_touching_disk() {
        let cmd = parse_args(&["bench", "--quick"]).unwrap();
        let out = run_command(&cmd, &fs).unwrap();
        assert!(out.contains("fig3-catbatch"));
        assert!(out.contains("rand-layered-n1000"));
        assert!(out.contains("events/s"));
        assert!(!out.contains("wrote"));
    }

    #[test]
    fn bench_quick_profile_prints_counter_table() {
        let cmd = parse_args(&["bench", "--quick", "--profile"]).unwrap();
        let out = run_command(&cmd, &fs).unwrap();
        assert!(out.contains("rat_fb"), "{out}");
        assert!(out.contains("hint_miss"), "{out}");
        // Pure-dyadic generated scenarios never touch the exact-rational
        // overflow path; the profile row must show that. The row lives
        // in the second (profile) table: scenario q_push q_pop rat_fb ...
        let rand_row = out
            .lines()
            .rfind(|l| l.starts_with("rand-layered-n1000"))
            .expect("profile row for rand-layered-n1000");
        let cols: Vec<&str> = rand_row.split_whitespace().collect();
        assert_eq!(cols[3], "0", "rational fallbacks on a pure-dyadic scenario: {rand_row}");
        // Without --profile the counter table is absent.
        let plain = run_command(&parse_args(&["bench", "--quick"]).unwrap(), &fs).unwrap();
        assert!(!plain.contains("rat_fb"), "{plain}");
    }

    #[test]
    fn bench_check_rejects_bad_baseline() {
        let cmd =
            parse_args(&["bench", "--quick", "--check", "sample.rigid"]).unwrap();
        let err = run_command(&cmd, &fs).unwrap_err();
        assert!(err.contains("not a catbatch-bench-engine/v1.4 report"), "{err}");
        assert!(err.contains("catbatch bench --json --out"), "{err}");
    }

    #[test]
    fn bench_check_missing_baseline_says_how_to_create_one() {
        let cmd =
            parse_args(&["bench", "--quick", "--check", "results/bench_baseline.json"]).unwrap();
        let err = run_command(&cmd, &fs).unwrap_err();
        assert!(err.contains("--check baseline unavailable"), "{err}");
        assert!(
            err.contains("catbatch bench --json --out results/bench_baseline.json"),
            "{err}"
        );
    }

    #[test]
    fn analyze_command() {
        let cmd = parse_args(&["analyze", "sample.rigid"]).unwrap();
        let out = run_command(&cmd, &fs).unwrap();
        assert!(out.contains("critical path C: 3.5"));
        assert!(out.contains("attribute table"));
        assert!(out.contains("category batches"));
    }

    #[test]
    fn generate_parses_back() {
        let cmd = parse_args(&[
            "generate", "--family", "erdos", "--n", "20", "--procs", "4", "--seed", "9",
        ])
        .unwrap();
        let out = run_command(&cmd, &fs).unwrap();
        let inst = rigid_dag::format::parse(&out).unwrap();
        assert_eq!(inst.len(), 20);
        assert_eq!(inst.procs(), 4);
    }

    #[test]
    fn generate_every_family() {
        for family in [
            "layered",
            "erdos",
            "fork_join",
            "series_parallel",
            "out_tree",
            "in_tree",
            "chains",
            "independent",
        ] {
            let cmd = parse_args(&[
                "generate", "--family", family, "--n", "15", "--procs", "4",
            ])
            .unwrap();
            let out = run_command(&cmd, &fs).unwrap();
            assert!(
                rigid_dag::format::parse(&out).is_ok(),
                "family {family} emitted unparseable output"
            );
        }
    }

    #[test]
    fn faults_command_reports_campaign() {
        let cmd = parse_args(&["faults", "sample.rigid", "--seed", "7", "--trials", "4", "--fail", "500"])
            .unwrap();
        let out = run_command(&cmd, &fs).unwrap();
        assert!(out.contains("fault campaign : catbatch"));
        assert!(out.contains("trials         : 4 (seeds 7..10)"));
        assert!(out.contains("fault-free     : 3.5"));
        assert!(out.contains("seed 7"));
        assert!(out.contains("completed      :"));
    }

    #[test]
    fn faults_seed_42_is_reproducible() {
        // Acceptance criterion: two identical invocations produce
        // byte-for-byte identical reports.
        let cmd = parse_args(&["faults", "sample.rigid", "--seed", "42"]).unwrap();
        let a = run_command(&cmd, &fs).unwrap();
        let b = run_command(&cmd, &fs).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("seeds 42..46"));
    }

    #[test]
    fn faults_different_seeds_differ() {
        // High fault rate on a list scheduler (retries forever) so the
        // reports carry real fault text that depends on the seed.
        let base = |seed: &str| {
            let cmd = parse_args(&[
                "faults", "sample.rigid", "--scheduler", "list-fifo", "--seed", seed,
                "--fail", "800", "--trials", "3",
            ])
            .unwrap();
            run_command(&cmd, &fs).unwrap()
        };
        assert_ne!(base("1"), base("100"));
    }

    #[test]
    fn faults_zero_rate_matches_fault_free() {
        let cmd = parse_args(&["faults", "sample.rigid", "--fail", "0"]).unwrap();
        let out = run_command(&cmd, &fs).unwrap();
        assert!(out.contains("completed      : 5/5"));
        assert!(out.contains("total failures : 0"));
        assert!(out.contains("max inflation  : 1.0000"));
    }

    #[test]
    fn faults_journal_resume_skips_completed_trials() {
        let path = std::env::temp_dir().join(format!(
            "catbatch-cli-journal-test-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let p = path.to_string_lossy().to_string();

        let first = run_command(
            &parse_args(&["faults", "sample.rigid", "--trials", "4", "--journal", &p]).unwrap(),
            &fs,
        )
        .unwrap();
        assert!(first.contains("executed       : 4"), "{first}");
        assert!(first.contains("replayed       : 0"), "{first}");

        let second = run_command(
            &parse_args(&[
                "faults", "sample.rigid", "--trials", "4", "--journal", &p, "--resume",
            ])
            .unwrap(),
            &fs,
        )
        .unwrap();
        assert!(second.contains("executed       : 0"), "{second}");
        assert!(second.contains("replayed       : 4"), "{second}");

        // The replayed per-seed lines are byte-identical to the run that
        // produced them.
        let seed_lines = |s: &str| -> Vec<String> {
            s.lines().filter(|l| l.starts_with("seed ")).map(String::from).collect()
        };
        assert_eq!(seed_lines(&first), seed_lines(&second));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn faults_supervised_path_matches_plain_report() {
        // A never-tripping event budget routes through the supervised
        // campaign; the per-seed results must match the plain path.
        let plain = run_command(&parse_args(&["faults", "sample.rigid"]).unwrap(), &fs).unwrap();
        let supervised = run_command(
            &parse_args(&["faults", "sample.rigid", "--max-events", "18446744073709551615"])
                .unwrap(),
            &fs,
        )
        .unwrap();
        let seed_lines = |s: &str| -> Vec<String> {
            s.lines().filter(|l| l.starts_with("seed ")).map(String::from).collect()
        };
        assert_eq!(seed_lines(&plain), seed_lines(&supervised));
        assert!(supervised.contains("executed       : 5"), "{supervised}");
    }

    #[test]
    fn faults_event_budget_records_typed_trial_errors() {
        let out = run_command(
            &parse_args(&["faults", "sample.rigid", "--max-events", "1", "--trials", "3"])
                .unwrap(),
            &fs,
        )
        .unwrap();
        // Every trial blows the 1-event budget, is recorded as a typed
        // error, and the campaign still completes and reports.
        assert!(out.contains("ABORTED"), "{out}");
        assert!(out.contains("event budget of 1"), "{out}");
        assert!(out.contains("completed      : 0/3"), "{out}");
        assert!(out.contains("executed       : 3"), "{out}");
    }

    #[test]
    fn faults_flag_validation() {
        assert!(parse_args(&["faults", "f", "--fail", "1001"]).is_err());
        assert!(parse_args(&["faults", "f", "--trials", "0"]).is_err());
        assert!(parse_args(&["faults"]).is_err());
    }

    #[test]
    fn convert_emits_dot() {
        let cmd = parse_args(&["convert", "sample.rigid", "--dot"]).unwrap();
        let out = run_command(&cmd, &fs).unwrap();
        assert!(out.starts_with("digraph"));
    }

    #[test]
    fn verify_accepts_valid_and_rejects_invalid() {
        use rigid_sim::Schedule;
        use rigid_time::Time;
        let inst = rigid_dag::format::parse(SAMPLE).unwrap();
        let g = inst.graph();
        let a = g.find_by_label("A").unwrap();
        let b = g.find_by_label("B").unwrap();
        let mut good = Schedule::new(4);
        good.place(a, Time::ZERO, Time::from_int(2), 2);
        good.place(b, Time::from_int(2), Time::from_millis(3, 500), 3);
        let mut bad = Schedule::new(4);
        bad.place(a, Time::ZERO, Time::from_int(2), 2);
        bad.place(b, Time::ZERO, Time::from_millis(1, 500), 3); // precedence!
        let good_json = serde_json::to_string(&good).unwrap();
        let bad_json = serde_json::to_string(&bad).unwrap();
        let fs2 = move |path: &str| -> Result<String, String> {
            match path {
                "sample.rigid" => Ok(SAMPLE.to_string()),
                "good.json" => Ok(good_json.clone()),
                "bad.json" => Ok(bad_json.clone()),
                _ => Err("no such file".into()),
            }
        };
        let ok = run_command(
            &parse_args(&["verify", "sample.rigid", "good.json"]).unwrap(),
            &fs2,
        )
        .unwrap();
        assert!(ok.starts_with("OK"));
        let err = run_command(
            &parse_args(&["verify", "sample.rigid", "bad.json"]).unwrap(),
            &fs2,
        )
        .unwrap_err();
        assert!(err.contains("PrecedenceViolated"));
    }

    #[test]
    fn missing_file_is_reported() {
        let cmd = parse_args(&["analyze", "nope.rigid"]).unwrap();
        assert!(run_command(&cmd, &fs).is_err());
    }

    #[test]
    fn help_prints_usage() {
        let out = run_command(&Command::Help, &fs).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn sharded_campaign_merges_to_single_process_journal() {
        let dir = std::env::temp_dir();
        let tag = std::process::id();
        let canon = dir.join(format!("catbatch-cli-merge-canon-{tag}.jsonl"));
        let merged = dir.join(format!("catbatch-cli-merge-out-{tag}.jsonl"));
        let shards: Vec<std::path::PathBuf> = (1..=3)
            .map(|i| dir.join(format!("catbatch-cli-merge-shard-{tag}-{i}.jsonl")))
            .collect();
        for p in shards.iter().chain([&canon, &merged]) {
            let _ = std::fs::remove_file(p);
        }

        // Single-process reference journal.
        let canon_s = canon.to_string_lossy().to_string();
        let canonical = run_command(
            &parse_args(&[
                "faults", "sample.rigid", "--trials", "7", "--journal", &canon_s,
            ])
            .unwrap(),
            &fs,
        )
        .unwrap();

        // The same campaign split over three shard processes.
        for (i, path) in shards.iter().enumerate() {
            let p = path.to_string_lossy().to_string();
            let spec = format!("{}/3", i + 1);
            let out = run_command(
                &parse_args(&[
                    "faults", "sample.rigid", "--trials", "7", "--journal", &p,
                    "--shard", &spec,
                ])
                .unwrap(),
                &fs,
            )
            .unwrap();
            assert!(out.contains("shard          :"), "{out}");
        }

        let shard_args: Vec<String> =
            shards.iter().map(|p| p.to_string_lossy().to_string()).collect();
        let merged_s = merged.to_string_lossy().to_string();
        let mut argv = vec!["merge".to_string()];
        argv.extend(shard_args);
        argv.push("--out".to_string());
        argv.push(merged_s.clone());
        let argv_refs: Vec<&str> = argv.iter().map(String::as_str).collect();
        let report = run_command(&parse_args(&argv_refs).unwrap(), &fs).unwrap();
        assert!(report.contains("shards         : 3"), "{report}");
        assert!(report.contains("trials         : 7"), "{report}");

        // Byte-identical to the single-process journal, and replaying it
        // reproduces the canonical per-seed report without executing.
        assert_eq!(
            std::fs::read(&canon).unwrap(),
            std::fs::read(&merged).unwrap()
        );
        let replay = run_command(
            &parse_args(&[
                "faults", "sample.rigid", "--trials", "7", "--journal", &merged_s,
                "--resume",
            ])
            .unwrap(),
            &fs,
        )
        .unwrap();
        assert!(replay.contains("executed       : 0"), "{replay}");
        assert!(replay.contains("replayed       : 7"), "{replay}");
        let seed_lines = |s: &str| -> Vec<String> {
            s.lines().filter(|l| l.starts_with("seed ")).map(String::from).collect()
        };
        assert_eq!(seed_lines(&canonical), seed_lines(&replay));

        for p in shards.iter().chain([&canon, &merged]) {
            let _ = std::fs::remove_file(p);
        }
    }
}
