//! Parallel-execution determinism tests: for any `--jobs` value, a
//! campaign must produce `TrialStats`, aggregates, and **journal bytes**
//! identical to serial execution — including campaigns with panicking
//! schedulers (quarantine order) and campaigns interrupted mid-flight
//! (the group-committed journal must still be a resumable, contiguous
//! prefix of the serial journal).

use catbatch::CatBatch;
use rigid_dag::gen::{self, TaskSampler};
use rigid_dag::{Instance, ReleasedTask, TaskId};
use rigid_faults::FaultConfig;
use rigid_sim::{FailureResponse, OnlineScheduler, RunBudget};
use rigid_supervise::{run_campaign, CampaignOptions, CampaignOutcome};
use rigid_time::Time;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!(
        "rigid-parallel-{}-{}-{tag}.jsonl",
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

fn options(journal: Option<PathBuf>, resume: bool, jobs: usize) -> CampaignOptions {
    CampaignOptions {
        journal,
        resume,
        jobs,
        budget: RunBudget::UNLIMITED,
        ..CampaignOptions::default()
    }
}

fn journaled(
    instance: &Instance,
    config: &FaultConfig,
    seeds: &[u64],
    path: &Path,
    jobs: usize,
) -> CampaignOutcome {
    run_campaign(
        instance,
        config,
        seeds,
        &options(Some(path.to_path_buf()), false, jobs),
        || false,
        CatBatch::new,
    )
    .expect("journaled campaign")
}

/// A randomized mini-matrix standing in for a property test: several
/// generated instances × fault configs, each checked for byte-level
/// serial/parallel equivalence across worker counts.
#[test]
fn random_campaigns_are_byte_identical_for_jobs_1_2_8() {
    let sampler = TaskSampler::default_mix();
    let cases: Vec<(Instance, FaultConfig)> = vec![
        (
            gen::layered(31, 6, 8, &sampler, 16),
            FaultConfig::fail_stop(350, 3),
        ),
        (
            gen::erdos_dag(37, 50, 0.08, &sampler, 8),
            FaultConfig {
                fail_permille: 200,
                max_failures_per_task: 2,
                straggle_permille: 300,
                straggle_factor_permille: (1250, 2000),
                dips: Vec::new(),
            },
        ),
        (
            gen::chains(41, 10, 5, &sampler, 12),
            FaultConfig::fail_stop(600, 2),
        ),
    ];
    // Duplicate seeds on purpose: the parallel planner dedupes them into
    // replays and must still match the serial loop's accounting.
    let seeds: Vec<u64> = (100..130).chain([105, 100, 117]).collect();

    for (case, (instance, config)) in cases.iter().enumerate() {
        let serial_journal = TempFile(temp_path(&format!("serial-{case}")));
        let serial = journaled(instance, config, &seeds, &serial_journal.0, 1);
        let serial_bytes = fs::read(&serial_journal.0).expect("serial journal");
        assert_eq!(serial.executed, 30, "case {case}: 30 distinct seeds");
        assert_eq!(serial.replayed, 3, "case {case}: 3 duplicate seeds");

        for jobs in [2, 8] {
            let journal = TempFile(temp_path(&format!("jobs{jobs}-{case}")));
            let parallel = journaled(instance, config, &seeds, &journal.0, jobs);
            assert_eq!(
                parallel.stats, serial.stats,
                "case {case}, jobs {jobs}: TrialStats diverged from serial"
            );
            assert_eq!(
                parallel.executed, serial.executed,
                "case {case}, jobs {jobs}"
            );
            assert_eq!(
                parallel.replayed, serial.replayed,
                "case {case}, jobs {jobs}"
            );
            let bytes = fs::read(&journal.0).expect("parallel journal");
            assert_eq!(
                bytes, serial_bytes,
                "case {case}, jobs {jobs}: journal bytes diverged from serial"
            );
        }
    }
}

/// Wraps CatBatch and pulls the pin on the second fault of a trial.
/// Whether a trial panics depends only on the injector's seeded fault
/// schedule, so the set of quarantined seeds is a deterministic function
/// of the campaign — which the parallel path must reproduce exactly.
struct Grenade {
    inner: CatBatch,
    failures: u32,
}

impl Grenade {
    fn new() -> Self {
        Grenade {
            inner: CatBatch::new().with_retry_budget(5),
            failures: 0,
        }
    }
}

impl OnlineScheduler for Grenade {
    fn name(&self) -> &'static str {
        "grenade"
    }
    fn on_release(&mut self, task: &ReleasedTask, now: Time) {
        self.inner.on_release(task, now);
    }
    fn on_complete(&mut self, task: TaskId, now: Time) {
        self.inner.on_complete(task, now);
    }
    fn decide_into(&mut self, now: Time, free_procs: u32, out: &mut Vec<TaskId>) {
        self.inner.decide_into(now, free_procs, out)
    }
    fn on_failure(&mut self, task: TaskId, now: Time) -> FailureResponse {
        self.failures += 1;
        if self.failures >= 8 {
            panic!("grenade: too many faults");
        }
        self.inner.on_failure(task, now)
    }
}

#[test]
fn panicking_scheduler_quarantines_identically_under_parallelism() {
    let sampler = TaskSampler::default_mix();
    let instance = gen::layered(53, 5, 6, &sampler, 8);
    let config = FaultConfig::fail_stop(200, 9);
    let seeds: Vec<u64> = (500..540).collect();

    let serial_journal = TempFile(temp_path("grenade-serial"));
    let serial = run_campaign(
        &instance,
        &config,
        &seeds,
        &options(Some(serial_journal.0.clone()), false, 1),
        || false,
        Grenade::new,
    )
    .expect("serial grenade campaign");
    let serial_bytes = fs::read(&serial_journal.0).expect("serial journal");

    let panicked: Vec<u64> = serial
        .stats
        .trials
        .iter()
        .filter(|t| t.outcome.is_err())
        .map(|t| t.seed)
        .collect();
    let completed = serial.stats.trials.len() - panicked.len();
    assert!(
        !panicked.is_empty() && completed > 0,
        "the grenade campaign must mix panicked ({}) and completed ({}) trials \
         for the quarantine comparison to mean anything",
        panicked.len(),
        completed
    );

    for jobs in [2, 8] {
        let journal = TempFile(temp_path(&format!("grenade-jobs{jobs}")));
        let parallel = run_campaign(
            &instance,
            &config,
            &seeds,
            &options(Some(journal.0.clone()), false, jobs),
            || false,
            Grenade::new,
        )
        .expect("parallel grenade campaign");
        assert_eq!(
            parallel.stats, serial.stats,
            "jobs {jobs}: panicked-trial stats diverged from serial"
        );
        let bytes = fs::read(&journal.0).expect("parallel journal");
        assert_eq!(bytes, serial_bytes, "jobs {jobs}: journal bytes diverged");
    }
}

#[test]
fn interrupted_parallel_campaign_flushes_a_resumable_prefix() {
    let sampler = TaskSampler::default_mix();
    let instance = gen::layered(61, 5, 6, &sampler, 8);
    let config = FaultConfig::fail_stop(300, 3);
    let seeds: Vec<u64> = (900..940).collect();

    // Ground truth: complete serial journaled run.
    let full_journal = TempFile(temp_path("interrupt-full"));
    let full = journaled(&instance, &config, &seeds, &full_journal.0, 1);
    let full_bytes = fs::read(&full_journal.0).expect("full journal");

    // Interrupt a 4-way parallel run early, as SIGINT would.
    let journal = TempFile(temp_path("interrupt-partial"));
    let polls = AtomicUsize::new(0);
    let partial = run_campaign(
        &instance,
        &config,
        &seeds,
        &options(Some(journal.0.clone()), false, 4),
        || polls.fetch_add(1, Ordering::SeqCst) >= 12,
        CatBatch::new,
    )
    .expect("interrupted parallel campaign");
    assert!(
        partial.interrupted,
        "the stop closure must interrupt the fan-out"
    );
    assert!(
        partial.executed < seeds.len(),
        "an interrupted campaign must not have finished everything"
    );

    // Flush-on-interrupt: the journal is a contiguous, in-order prefix
    // of the serial journal — every record the outcome counted, durable,
    // nothing torn, nothing out of order.
    let partial_bytes = fs::read(&journal.0).expect("partial journal");
    let prefix: Vec<u8> = full_bytes
        .split_inclusive(|&b| b == b'\n')
        .take(1 + partial.executed)
        .flatten()
        .copied()
        .collect();
    assert_eq!(
        partial_bytes, prefix,
        "interrupted parallel journal must be the serial journal's prefix"
    );

    // And it resumes to the exact uninterrupted result, bytes included.
    let resumed = run_campaign(
        &instance,
        &config,
        &seeds,
        &options(Some(journal.0.clone()), true, 4),
        || false,
        CatBatch::new,
    )
    .expect("resume after parallel interrupt");
    assert!(!resumed.interrupted);
    assert_eq!(resumed.replayed, partial.executed);
    assert_eq!(resumed.executed, seeds.len() - partial.executed);
    assert_eq!(resumed.stats, full.stats);
    let resumed_bytes = fs::read(&journal.0).expect("resumed journal");
    assert_eq!(
        resumed_bytes, full_bytes,
        "resumed journal must match serial bytes"
    );
}
