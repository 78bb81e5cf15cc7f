//! The repository benchmark (described by `BENCHMARK.json`).
//!
//! ```text
//! perfbench --workload <catbatch|list-fifo> --seed N --seconds S --trace <0|1>
//! ```
//!
//! A workload names the scheduler every phase runs. One run sets its
//! inputs up three times (reporting the median set-up time), then runs
//! rounds on the last set-up until `--seconds` is spent. A round runs
//! one 10⁶-task simulation, a closed-loop and an open-loop burst against
//! the daemon, and a burst of journaled fault campaigns: interleaving
//! lets every metric sample the whole run, on a machine whose speed
//! drifts from one ten-second stretch to the next. All outputs are
//! checked. With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` it also runs the timing shims and the per-layer probes,
//! prints the per-layer metrics and writes its spans to `.bench_out/`.
//! The last line of standard output is the JSON result.

mod campaign;
mod report;
mod serve;
mod sim;
mod trace;
mod workload;

use catbatch::CatBatch;
use report::{median, peak_rss_mb, Report};
use rigid_baselines::ListScheduler;
use rigid_dag::Instance;
use rigid_serve::{Bind, Daemon};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Recorder;
use workload::Workload;

/// Set-ups per run; the median is reported.
const SETUPS: usize = 3;

/// Rounds per run, at the least. A round runs one simulation, then a
/// burst of each other phase; rounds repeat until `--seconds` is spent.
const MIN_ROUNDS: u32 = 3;
const CLOSED_BURST: Duration = Duration::from_millis(1000);
const OPEN_BURST: Duration = Duration::from_millis(2500);
const CAMPAIGN_BURST: Duration = Duration::from_millis(750);

/// Open-loop arrival rate, jobs per second: about 20% of the closed-loop
/// saturation throughput (~500 jobs/s) on the commit that introduced
/// this benchmark, the same for both workloads so their latencies
/// compare. Nearer saturation, jobs queue behind large jobs often
/// enough that the median and the tail swing from run to run with the
/// machine's speed.
const OPEN_RATE: f64 = 100.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 30.0,
        trace: false,
    };
    let mut seed = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| bad("expected an unsigned integer"))?,
                )
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| bad("expected a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.seed = seed.ok_or("--seed is required")?;
    Ok(args)
}

/// A per-run scratch directory under `.bench_tmp/` in the working
/// directory (sockets and journals), removed when dropped. Paths stay
/// relative so the daemon's socket path is short.
struct TempDir(PathBuf);

impl TempDir {
    fn create(workload: &str) -> std::io::Result<TempDir> {
        let dir = Path::new(".bench_tmp").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `.bench_tmp` itself only if another run still uses it.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// Everything the phases run on.
struct Setup {
    sim: Instance,
    pool: serve::Pool,
    campaign: campaign::CampaignInput,
    daemon: Daemon,
    bind: Bind,
    /// Seconds spent in the DAG generators.
    gen_s: f64,
}

/// Generates the inputs (and the answers serve results are checked
/// against), then boots the daemon with its journal.
fn set_up<S: Workload>(
    seed: u64,
    dir: &Path,
    k: usize,
    report: &mut Report,
) -> Result<Setup, String> {
    let t = Instant::now();
    let sim = S::sim_instance(seed);
    let sim_gen = t.elapsed().as_secs_f64();
    let (pool, pool_gen) = serve::Pool::build::<S>(seed, report);
    let t = Instant::now();
    let campaign = campaign::CampaignInput::build(seed);
    let campaign_gen = t.elapsed().as_secs_f64();
    let tag = format!("serve-{k}");
    let daemon = serve::boot(dir, &tag)?;
    Ok(Setup {
        sim,
        pool,
        campaign,
        daemon,
        bind: Bind::Unix(dir.join(format!("{tag}.sock"))),
        gen_s: sim_gen + pool_gen + campaign_gen,
    })
}

/// Stops the daemon; its report must account for exactly `answered` jobs.
fn shut_down(daemon: Daemon, answered: u64, report: &mut Report) {
    daemon.trigger_shutdown();
    let done = daemon.wait();
    report.check(
        done.jobs_completed == answered && done.jobs_failed == 0,
        || {
            format!(
                "daemon completed {} and failed {} jobs, clients saw {answered} answers",
                done.jobs_completed, done.jobs_failed
            )
        },
    );
}

fn run<S: Workload>(args: &Args) -> Report {
    let mut report = Report::default();
    let dir = match TempDir::create(&args.workload) {
        Ok(d) => d,
        Err(e) => {
            report.check(false, || {
                format!("cannot create the scratch directory: {e}")
            });
            return report;
        }
    };
    let rec = args.trace.then(Recorder::new);
    let rec = rec.as_ref();

    let mut setup_walls = Vec::new();
    let mut gen_walls = Vec::new();
    let mut kept: Option<Setup> = None;
    for k in 0..SETUPS {
        if let Some(old) = kept.take() {
            shut_down(old.daemon, 0, &mut report);
        }
        let t = Instant::now();
        match set_up::<S>(args.seed, &dir.0, k, &mut report) {
            Ok(s) => {
                setup_walls.push(t.elapsed().as_secs_f64());
                gen_walls.push(s.gen_s);
                kept = Some(s);
            }
            Err(e) => {
                report.check(false, || format!("set-up failed: {e}"));
            }
        }
    }
    let Some(setup) = kept else { return report };

    // Every round runs each phase once, so each metric samples the
    // whole run rather than one stretch of it.
    let mut sim = sim::Sim::new(&setup.sim);
    let mut load = serve::ServeLoad::connect(&setup.bind, &setup.pool, args.seed, OPEN_RATE);
    let mut camp = campaign::Campaign::new(&setup.campaign, &dir.0);
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut rounds = 0;
    loop {
        let round_start = Instant::now();
        let round = rec.map(|r| r.open("round", None));
        let span = |name| {
            rec.zip(round)
                .map(|(r, parent)| (r, r.open(name, Some(parent))))
        };
        let close = |s: Option<(&Recorder, usize)>| s.map(|(r, id)| r.close(id));
        let s = span("phase.sim");
        sim.round::<S>(&mut report);
        close(s);
        let s = span("phase.serve.closed");
        load.closed(CLOSED_BURST);
        close(s);
        let s = span("phase.serve.open");
        load.open(OPEN_BURST, s);
        close(s);
        let s = span("phase.campaign");
        camp.round::<S>(CAMPAIGN_BURST, &mut report);
        close(s);
        close(rec.zip(round));
        rounds += 1;
        // Stop before a round that would run past the budget.
        if rounds >= MIN_ROUNDS && start.elapsed() + round_start.elapsed() > budget {
            break;
        }
    }
    let served = load.finish(&mut report);
    shut_down(setup.daemon, served.answered, &mut report);
    camp.finish::<S>(&mut report);
    report.note(format!(
        "{rounds} rounds in {:.1} s",
        start.elapsed().as_secs_f64()
    ));

    let med = |w: &[f64]| if w.is_empty() { 0.0 } else { median(w) };
    if let Some(rec) = rec {
        let probes = rec.open("phase.probes", None);
        let traced = sim::trace::<S>(&setup.sim, rec, &mut report);
        let sp = serve::probes(&setup.pool, args.seed, &dir.0, &mut report);
        let cp = campaign::probes::<S>(&setup.campaign, &camp, &dir.0, &mut report);
        rec.close(probes);
        per_layer::<S>(
            &mut report,
            &sim.stats(),
            &traced,
            &sp,
            &served,
            &cp,
            &camp,
            med(&gen_walls),
        );
        let out = Path::new(".bench_out");
        let path = out.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        let dumped = std::fs::create_dir_all(out).and_then(|()| rec.dump(&path));
        report.check(dumped.is_ok(), || {
            format!("cannot write {}: {dumped:?}", path.display())
        });
        report.note(format!("spans written to {}", path.display()));
    } else {
        report.measured(
            "setup_s",
            med(&setup_walls),
            "s",
            format!("median of {} set-ups", setup_walls.len()),
        );
        report.measured(
            "sim_events_per_s",
            sim.events_per_s(),
            "events/s",
            sim.basis(),
        );
        report.measured(
            "makespan_ratio",
            sim.ratio,
            "ratio",
            "exact, one schedule".into(),
        );
        report.measured(
            "serve_jobs_per_s",
            served.jobs_per_s,
            "jobs/s",
            format!(
                "{} closed-loop jobs answered within {rounds} bursts",
                served.closed_jobs
            ),
        );
        let open = format!(
            "{} open-loop jobs at {OPEN_RATE} jobs/s",
            served.open_samples
        );
        report.measured("serve_p50_ms", served.p50_ms, "ms", open.clone());
        // The tail is reported per layer: it follows the machine's speed
        // drift through queueing and spread too far between runs.
        report.note(format!("serve p99 {:.3} ms ({open})", served.p99_ms));
        // Campaign throughput is a per-layer metric: with `jobs = 2` on
        // two shared vCPUs it swings up to 2x between runs, more than
        // any end-to-end bound allows.
        report.note(format!(
            "campaign throughput {:.1} trials/s ({})",
            camp.trials_per_s(),
            camp.basis()
        ));
        report.measured(
            "peak_rss_mb",
            peak_rss_mb(),
            "MB",
            "VmHWM of this process".into(),
        );
        report.check_finite();
        let ok = report.ok_frac();
        report.measured(
            "ok_frac",
            ok,
            "ratio",
            "operations and checks that succeeded".into(),
        );
    }
    report
}

/// The per-layer metrics of a traced run. Layers a workload does not
/// run (the other scheduler's crate) report 0.
#[allow(clippy::too_many_arguments)]
fn per_layer<S: Workload>(
    r: &mut Report,
    stats: &rigid_sim::EngineStats,
    t: &sim::SimTrace,
    sp: &serve::ServeProbes,
    served: &serve::ServeOutcome,
    cp: &campaign::CampaignProbes,
    camp: &campaign::Campaign<'_>,
    gen_s: f64,
) {
    r.metric("dag.gen_s", gen_s, "s");
    r.metric("dag.source_s", t.source_s, "s");
    r.metric("dag.parse_small_us", sp.parse_small_us, "us");
    r.metric("dag.parse_large_us", sp.parse_large_us, "us");
    r.metric("sim.self_s", t.self_s, "s");
    r.metric("sim.useful_decide_frac", t.useful_decide_frac, "ratio");
    r.metric("sim.record_s", t.record_s, "s");
    r.metric("sim.events", stats.events as f64, "count");
    r.metric("sim.decide_calls", stats.decide_calls as f64, "count");
    r.metric("sim.batches", stats.batches as f64, "count");
    r.metric("sim.peak_ready", stats.peak_ready as f64, "count");
    r.metric(
        "sim.rational_fallbacks",
        stats.rational_fallbacks as f64,
        "count",
    );
    r.metric("sim.hint_misses", stats.hint_misses as f64, "count");
    let per_call_ns = |s: f64, calls: u64| {
        if calls == 0 {
            0.0
        } else {
            s * 1e9 / calls as f64
        }
    };
    let core = S::LAYER == "core";
    let pick = |on: bool, v: f64| if on { v } else { 0.0 };
    r.metric("core.release_s", pick(core, t.release_s), "s");
    r.metric("core.decide_s", pick(core, t.decide_s), "s");
    r.metric("core.complete_s", pick(core, t.complete_s), "s");
    r.metric(
        "core.release_ns",
        pick(core, per_call_ns(t.release_s, t.releases)),
        "ns",
    );
    r.metric(
        "core.decide_ns",
        pick(core, per_call_ns(t.decide_s, t.decides)),
        "ns",
    );
    r.metric("core.batches", t.history.0 as f64, "count");
    r.metric("core.history_tasks", t.history.1 as f64, "count");
    r.metric("baselines.release_s", pick(!core, t.release_s), "s");
    r.metric("baselines.decide_s", pick(!core, t.decide_s), "s");
    let codec_ms = (sp.encode_us + sp.decode_us) / 1e3;
    r.metric("serve.encode_us", sp.encode_us, "us");
    r.metric("serve.decode_us", sp.decode_us, "us");
    r.metric(
        "serve.daemon_overhead_ms",
        served.p50_ms - sp.run_one_mix_ms - codec_ms,
        "ms",
    );
    r.metric("serve.p99_ms", served.p99_ms, "ms");
    r.metric("serve.run_one_small_us", sp.run_one_small_us, "us");
    r.metric("serve.run_one_large_us", sp.run_one_large_us, "us");
    r.metric("serve.journal_record_us", sp.journal_record_us, "us");
    r.metric("serve.overloaded", served.overloaded as f64, "count");
    r.metric("serve.retries", served.retryable as f64, "count");
    r.metric("serve.gen_late_p99_ms", served.late_p99_ms, "ms");
    r.metric("serve.inflight_max", served.inflight_max as f64, "count");
    r.metric("supervise.envelope_us", cp.envelope_us, "us");
    r.metric("supervise.journal_append_us", cp.append_us, "us");
    r.metric("supervise.journal_sync_ms", cp.sync_ms, "ms");
    r.metric("supervise.journal_cost_frac", cp.journal_cost_frac, "ratio");
    r.metric(
        "supervise.resume_executed",
        camp.resume_executed as f64,
        "count",
    );
    r.metric(
        "supervise.campaign_trials_per_s",
        camp.trials_per_s(),
        "trials/s",
    );
    r.metric("faults.trial_us", cp.trial_us, "us");
    let (failures, aborted) = camp
        .stats
        .as_ref()
        .map_or((0, 0), |s| (s.total_failures(), s.aborted() as u64));
    r.metric("faults.failures", failures as f64, "count");
    r.metric("faults.aborted", aborted as f64, "count");
    r.metric("exec.speedup_2", cp.speedup_2, "ratio");
    r.metric("trace.overhead_frac", t.overhead_frac, "ratio");
    r.check_finite();
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <catbatch|list-fifo> --seed N --seconds S --trace <0|1>");
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let report = match args.workload.as_str() {
        "catbatch" => run::<CatBatch>(&args),
        "list-fifo" => run::<ListScheduler>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (expected catbatch or list-fifo)");
            std::process::exit(2);
        }
    };
    let line = report.finish();
    println!("{line}");
}
