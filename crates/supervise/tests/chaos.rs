//! Crash-chaos harness: real shard subprocesses are killed — by the
//! deterministic abort hook (SIGKILL-equivalent: no destructors, no
//! flush) and by an external `SIGKILL` — at arbitrary points, resumed,
//! and merged; the merged journal must be byte-identical to the journal
//! of an unkilled single-process run. A separate test delivers a real
//! `SIGTERM` inside the parallel group-commit dirty window and checks
//! the journal survives as a clean prefix.
//!
//! Subprocesses are re-executions of this test binary: the parent
//! spawns `current_exe() chaos_child_main --exact` with a role string
//! in `RIGID_CHAOS_ROLE`; [`chaos_child_main`] is a no-op without the
//! variable, so a plain `cargo test` never forks.

#![cfg(unix)]

use catbatch::CatBatch;
use rigid_dag::gen::{layered, TaskSampler};
use rigid_dag::paper::figure3;
use rigid_dag::Instance;
use rigid_faults::FaultConfig;
use rigid_sim::RunBudget;
use rigid_supervise::{
    interrupt, merge_shards, read_journal, run_campaign, CampaignOptions, ShardSpec,
};
use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const ROLE_VAR: &str = "RIGID_CHAOS_ROLE";
const SEEDS: [u64; 12] = [5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60];

fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!(
        "rigid-chaos-{}-{}-{tag}.jsonl",
        std::process::id(),
        n
    ))
}

struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
    }
}

fn config() -> FaultConfig {
    FaultConfig::fail_stop(250, 2)
}

/// The scenario for the SIGTERM dirty-window test.
fn big_instance() -> Instance {
    layered(42, 10, 10, &TaskSampler::default_mix(), 8)
}

fn big_seeds() -> Vec<u64> {
    (1..=1200).collect()
}

/// Stop polls the SIGTERM child lets pass before it asks for the signal:
/// well inside the 1,200-seed campaign.
const SIGTERM_AFTER_POLLS: u64 = 300;

fn options(journal: PathBuf, resume: bool, shard: Option<ShardSpec>) -> CampaignOptions {
    CampaignOptions {
        journal: Some(journal),
        resume,
        budget: RunBudget::UNLIMITED,
        shard,
        ..CampaignOptions::default()
    }
}

fn spec(index: usize, count: usize) -> ShardSpec {
    ShardSpec::parse(&format!("{index}/{count}")).expect("valid spec")
}

/// Spawns a re-execution of this test binary with the given role.
fn child(role: String) -> Command {
    let mut cmd = Command::new(std::env::current_exe().expect("own test binary"));
    cmd.arg("chaos_child_main")
        .arg("--exact")
        .arg("--nocapture")
        .env(ROLE_VAR, role)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    cmd
}

/// The child entry point: a no-op unless [`ROLE_VAR`] is set, in which
/// case the role string selects and parameterizes the scenario.
///
/// * `shard:<journal>:<i>:<n>:<abort_after>:<jobs>` — runs shard `i/n`
///   of the standard campaign on `jobs` workers, calling
///   `std::process::abort()` (no flush, no destructors — the userspace
///   effect of `kill -9`) after `abort_after` stop-closure polls. The
///   campaign polls the stop closure exactly once per seed, in seed
///   order, at any `jobs`, so `abort_after = k` journals exactly `k`
///   records and then dies.
/// * `sigterm:<journal>` — installs the interrupt handler and runs the
///   big campaign with `--jobs 2` (the group-commit path). After
///   [`SIGTERM_AFTER_POLLS`] stop polls it prints `CHAOS-START` and
///   holds the campaign in that poll until the real signal the parent
///   sends arrives, so the signal lands mid-campaign by order, not by
///   timing; prints a `CHAOS-RESULT` line.
#[test]
fn chaos_child_main() {
    let Ok(role) = std::env::var(ROLE_VAR) else {
        return;
    };
    let parts: Vec<&str> = role.split(':').collect();
    match parts[0] {
        "shard" => {
            let journal = PathBuf::from(parts[1]);
            let index: usize = parts[2].parse().unwrap();
            let count: usize = parts[3].parse().unwrap();
            let abort_after: u64 = parts[4].parse().unwrap();
            let jobs: usize = parts[5].parse().unwrap();
            let polls = AtomicU64::new(0);
            run_campaign(
                &figure3(),
                &config(),
                &SEEDS,
                &CampaignOptions {
                    jobs,
                    ..options(journal, false, Some(spec(index, count)))
                },
                move || {
                    if polls.fetch_add(1, Ordering::Relaxed) >= abort_after {
                        std::process::abort();
                    }
                    false
                },
                CatBatch::new,
            )
            .expect("shard campaign");
        }
        "sigterm" => {
            let journal = PathBuf::from(parts[1]);
            interrupt::install();
            interrupt::reset();
            let polls = AtomicU64::new(0);
            let outcome = run_campaign(
                &big_instance(),
                &config(),
                &big_seeds(),
                &CampaignOptions {
                    jobs: 2,
                    ..options(journal, false, None)
                },
                move || {
                    if polls.fetch_add(1, Ordering::Relaxed) == SIGTERM_AFTER_POLLS {
                        // Handshake: the parent signals when it reads
                        // this line, and the campaign goes no further
                        // until the signal is in.
                        println!("CHAOS-START");
                        std::io::stdout().flush().expect("flush handshake");
                        let deadline = Instant::now() + Duration::from_secs(60);
                        while !interrupt::interrupted() {
                            assert!(Instant::now() < deadline, "no SIGTERM within 60 s");
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                    interrupt::interrupted()
                },
                CatBatch::new,
            )
            .expect("sigterm campaign");
            println!(
                "CHAOS-RESULT interrupted={} executed={}",
                outcome.interrupted, outcome.executed
            );
        }
        other => panic!("unknown chaos role {other:?}"),
    }
}

/// The tentpole acceptance test: a 3-shard campaign where shard 2 is
/// killed by the deterministic abort hook, shard 3 by an external
/// `SIGKILL`, both are resumed, and the merge reproduces the unkilled
/// single-process journal byte-for-byte.
#[test]
fn killed_shards_resume_and_merge_to_canonical_bytes() {
    // Ground truth: the unkilled single-process journal.
    let canon = TempFile(temp_path("canon"));
    let serial = run_campaign(
        &figure3(),
        &config(),
        &SEEDS,
        &options(canon.0.clone(), false, None),
        || false,
        CatBatch::new,
    )
    .expect("serial campaign");

    let shards: Vec<TempFile> = (1..=3)
        .map(|i| TempFile(temp_path(&format!("s{i}"))))
        .collect();

    // Shard 1 runs to completion in a real subprocess.
    let status = child(format!(
        "shard:{}:1:3:{}:1",
        shards[0].0.display(),
        u64::MAX
    ))
    .status()
    .expect("spawn shard 1");
    assert!(status.success(), "shard 1 completes");

    // Shard 2 aborts deterministically after journaling 2 records.
    let status = child(format!("shard:{}:2:3:2:1", shards[1].0.display()))
        .status()
        .expect("spawn shard 2");
    assert!(!status.success(), "shard 2 dies mid-campaign");
    let damaged = read_journal(&shards[1].0).expect("read aborted shard 2");
    assert_eq!(
        damaged.trials.len(),
        2,
        "exactly 2 records survive the abort"
    );
    assert!(!damaged.torn_tail, "per-record fsync leaves no torn tail");

    // Shard 3 is SIGKILLed externally at an arbitrary point.
    let mut proc3 = child(format!(
        "shard:{}:3:3:{}:1",
        shards[2].0.display(),
        u64::MAX
    ))
    .spawn()
    .expect("spawn shard 3");
    std::thread::sleep(Duration::from_millis(30));
    let _ = proc3.kill();
    let _ = proc3.wait();

    // An incomplete shard set must be rejected, not silently merged.
    let out = TempFile(temp_path("merged"));
    let input_paths: Vec<PathBuf> = shards.iter().map(|f| f.0.clone()).collect();
    if read_journal(&shards[2].0).map_or(true, |c| c.trials.len() < serial.stats.trials.len()) {
        merge_shards(&input_paths, &out.0).expect_err("killed shards cannot merge yet");
        assert!(!out.0.exists());
    }

    // Resume both killed shards in-process (the resume path is
    // identical in and out of process) and merge.
    for i in [2usize, 3] {
        run_campaign(
            &figure3(),
            &config(),
            &SEEDS,
            &options(shards[i - 1].0.clone(), true, Some(spec(i, 3))),
            || false,
            CatBatch::new,
        )
        .expect("resume killed shard");
    }
    let report = merge_shards(&input_paths, &out.0).expect("merge after resume");
    assert_eq!(report.shards, 3);
    assert_eq!(report.trials, SEEDS.len());

    assert_eq!(
        fs::read(&canon.0).expect("canonical bytes"),
        fs::read(&out.0).expect("merged bytes"),
        "kill + resume + merge must reproduce the unkilled journal byte-for-byte"
    );

    // And the merged journal replays to the canonical aggregates.
    let replayed = run_campaign(
        &figure3(),
        &config(),
        &SEEDS,
        &options(out.0.clone(), true, None),
        || false,
        CatBatch::new,
    )
    .expect("replay merged journal");
    assert_eq!(replayed.executed, 0);
    assert_eq!(replayed.stats, serial.stats);
}

/// Randomized kill points: every shard of a 2-shard campaign is aborted
/// at a different deterministic-but-arbitrary record count, at 1, 2 and
/// 4 workers; the aborted journal must hold exactly that many records,
/// and resumed and merged, the shards must equal the canonical bytes.
#[test]
fn every_abort_point_merges_to_canonical_bytes() {
    let canon = TempFile(temp_path("sweep-canon"));
    run_campaign(
        &figure3(),
        &config(),
        &SEEDS,
        &options(canon.0.clone(), false, None),
        || false,
        CatBatch::new,
    )
    .expect("serial campaign");
    let canon_bytes = fs::read(&canon.0).expect("canonical bytes");

    // SEEDS splits 6 + 6 over two shards; abort each shard after k
    // records for a spread of crash points (0 = killed before any
    // record).
    for (jobs, (k1, k2)) in [1, 2, 4]
        .into_iter()
        .flat_map(|jobs| [(0u64, 4u64), (3, 0), (5, 1)].map(|ks| (jobs, ks)))
    {
        let shards: Vec<TempFile> = (1..=2)
            .map(|i| TempFile(temp_path(&format!("sweep-{jobs}-{k1}-{k2}-{i}"))))
            .collect();
        for (i, k) in [(1usize, k1), (2, k2)] {
            let status = child(format!(
                "shard:{}:{i}:2:{k}:{jobs}",
                shards[i - 1].0.display()
            ))
            .status()
            .expect("spawn shard");
            assert!(!status.success(), "shard {i} dies after {k} record(s)");
            let aborted = read_journal(&shards[i - 1].0).expect("read aborted shard");
            assert_eq!(
                aborted.trials.len() as u64,
                k,
                "jobs {jobs}: shard {i} aborted after {k} polls holds {k} records"
            );
            run_campaign(
                &figure3(),
                &config(),
                &SEEDS,
                &options(shards[i - 1].0.clone(), true, Some(spec(i, 2))),
                || false,
                CatBatch::new,
            )
            .expect("resume shard");
        }
        let out = TempFile(temp_path(&format!("sweep-{jobs}-{k1}-{k2}-merged")));
        let input_paths: Vec<PathBuf> = shards.iter().map(|f| f.0.clone()).collect();
        merge_shards(&input_paths, &out.0).expect("merge resumed shards");
        assert_eq!(
            fs::read(&out.0).expect("merged bytes"),
            canon_bytes,
            "jobs {jobs}: abort points ({k1}, {k2}) must still merge to canonical bytes"
        );
    }
}

/// SIGTERM inside the parallel group-commit dirty window: buffered
/// records are flushed on the way out, the journal is a clean prefix of
/// the canonical serial journal, and a resume completes the campaign to
/// the canonical aggregates.
#[test]
fn sigterm_in_group_commit_window_leaves_clean_prefix() {
    // Canonical serial run of the big scenario (also the resume target).
    let canon = TempFile(temp_path("term-canon"));
    let serial = run_campaign(
        &big_instance(),
        &config(),
        &big_seeds(),
        &options(canon.0.clone(), false, None),
        || false,
        CatBatch::new,
    )
    .expect("serial big campaign");
    let canon_bytes = fs::read(&canon.0).expect("canonical bytes");

    // The child prints CHAOS-START from inside its campaign, a few
    // hundred seeds in, and waits there for the signal, so it lands
    // mid-campaign on the first attempt. The retries stay as a guard.
    let mut landed = None;
    for attempt in 0..4 {
        let journal = TempFile(temp_path(&format!("term-{attempt}")));
        let mut proc = child(format!("sigterm:{}", journal.0.display()))
            .spawn()
            .expect("spawn sigterm child");
        let stdout = proc.stdout.take().expect("piped child stdout");
        let mut reader = BufReader::new(stdout);
        let mut result = None;
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line).expect("read child stdout") == 0 {
                break;
            }
            if line.contains("CHAOS-START") {
                let _ = Command::new("kill")
                    .arg("-TERM")
                    .arg(proc.id().to_string())
                    .status()
                    .expect("send SIGTERM");
            }
            if let Some(rest) = line.split("CHAOS-RESULT").nth(1) {
                result = Some(rest.trim().to_string());
            }
        }
        let status = proc.wait().expect("child exit");
        assert!(status.success(), "SIGTERM is handled, not fatal");
        let result = result.expect("child prints a CHAOS-RESULT line");
        if result.contains("interrupted=true") {
            landed = Some((journal, result));
            break;
        }
        // Too late — the campaign had already finished. Try again.
    }
    let (journal, result) = landed.expect("SIGTERM landed mid-campaign within 4 attempts");
    let executed: usize = result
        .split("executed=")
        .nth(1)
        .and_then(|s| s.trim().parse().ok())
        .expect("executed count in CHAOS-RESULT");

    // Every executed trial was flushed before exit; nothing is torn.
    let contents = read_journal(&journal.0).expect("read interrupted journal");
    assert!(!contents.torn_tail, "graceful SIGTERM leaves no torn tail");
    assert_eq!(
        contents.trials.len(),
        executed,
        "the group-commit buffer is flushed on interrupt"
    );

    // The interrupted parallel journal is a clean byte prefix of the
    // canonical serial journal.
    let bytes = fs::read(&journal.0).expect("interrupted bytes");
    assert!(
        canon_bytes.starts_with(&bytes),
        "interrupted journal must be a clean prefix of the canonical journal \
         ({} vs {} bytes)",
        bytes.len(),
        canon_bytes.len()
    );

    // Resuming completes the campaign to the canonical aggregates and
    // the canonical bytes.
    let resumed = run_campaign(
        &big_instance(),
        &config(),
        &big_seeds(),
        &options(journal.0.clone(), true, None),
        || false,
        CatBatch::new,
    )
    .expect("resume after SIGTERM");
    assert_eq!(resumed.replayed, executed);
    assert_eq!(resumed.stats, serial.stats);
    assert_eq!(fs::read(&journal.0).unwrap(), canon_bytes);
}
