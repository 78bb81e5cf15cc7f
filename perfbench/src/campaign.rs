//! The campaign phase: `rigid_supervise::run_campaign` on a ~170-task
//! layered DAG with P = 16 under fail-stop and straggler faults, with
//! `jobs = 2` and the journal on — the `catbatch faults --journal
//! --jobs 2` path.

use crate::report::{median, Report};
use crate::workload::{derive, layered_near, Workload};
use rigid_dag::Instance;
use rigid_faults::{run_trial_reusing, CampaignStats, FaultConfig};
use rigid_sim::{EngineScratch, RunBudget};
use rigid_supervise::{
    run_campaign, CampaignOptions, JournalHeader, JournalWriter, Supervisor, SupervisorPolicy,
    JOURNAL_SCHEMA,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Trials per campaign.
const TRIALS: u64 = 1000;

/// The campaign's instance and trial seeds.
pub struct CampaignInput {
    pub instance: Instance,
    seeds: Vec<u64>,
}

impl CampaignInput {
    /// A layered DAG of 170 ± 3 tasks and the trial seeds.
    pub fn build(seed: u64) -> CampaignInput {
        let instance = layered_near(seed, "campaign", 17, 170, 3);
        let base = derive(seed, "campaign-trials");
        CampaignInput {
            instance,
            seeds: (0..TRIALS).map(|i| base.wrapping_add(i)).collect(),
        }
    }
}

/// 5% fail-stop (at most 3 failures per task) and 10% stragglers
/// running 1.25–2× long, as `catbatch faults --fail 50 --straggle 100
/// --retries 3` configures them.
fn config() -> FaultConfig {
    FaultConfig {
        fail_permille: 50,
        max_failures_per_task: 3,
        straggle_permille: 100,
        straggle_factor_permille: (1250, 2000),
        dips: Vec::new(),
    }
}

fn options(journal: Option<PathBuf>, resume: bool, jobs: usize) -> CampaignOptions {
    CampaignOptions {
        journal,
        resume,
        jobs,
        ..CampaignOptions::default()
    }
}

/// One timed campaign; `None` if it could not run.
fn timed<S: Workload>(
    input: &CampaignInput,
    opts: &CampaignOptions,
    report: &mut Report,
) -> Option<(f64, CampaignStats, usize)> {
    let t = Instant::now();
    let outcome = run_campaign(
        &input.instance,
        &config(),
        &input.seeds,
        opts,
        || false,
        S::fault_tolerant,
    );
    let wall = t.elapsed().as_secs_f64();
    match outcome {
        Ok(o) => Some((wall, o.stats, o.executed)),
        Err(e) => {
            report.check(false, || format!("campaign failed: {e}"));
            None
        }
    }
}

/// Journaled `jobs = 2` campaigns over the same seeds, timed in
/// rounds interleaved with the other phases.
pub struct Campaign<'a> {
    input: &'a CampaignInput,
    journal: PathBuf,
    /// Wall time of each campaign, seconds.
    pub walls: Vec<f64>,
    /// The first campaign's results; every later run must match them.
    pub stats: Option<CampaignStats>,
    /// Trials a resume of the finished journal executed (0 expected).
    pub resume_executed: usize,
}

impl<'a> Campaign<'a> {
    /// Campaigns on `input`, journaling under `dir`.
    pub fn new(input: &'a CampaignInput, dir: &Path) -> Self {
        Campaign {
            input,
            journal: dir.join("campaign.journal"),
            walls: Vec::new(),
            stats: None,
            resume_executed: 0,
        }
    }

    /// Runs campaigns for `burst` (at least one).
    pub fn round<S: Workload>(&mut self, burst: Duration, report: &mut Report) {
        let start = Instant::now();
        loop {
            let opts = options(Some(self.journal.clone()), false, 2);
            if let Some((wall, stats, executed)) = timed::<S>(self.input, &opts, report) {
                self.walls.push(wall);
                report.check(executed as u64 == TRIALS, || {
                    format!("campaign executed {executed} of {TRIALS} trials")
                });
                report.ops(TRIALS, stats.aborted() as u64, "campaign trials");
                match &self.stats {
                    None => self.stats = Some(stats),
                    Some(first) => {
                        report.check(*first == stats, || {
                            "a repeated campaign diverged from the first".into()
                        });
                    }
                }
            }
            if start.elapsed() >= burst {
                break;
            }
        }
    }

    /// Resumes the last journal: a finished journal executes nothing
    /// and reproduces the campaign exactly.
    pub fn finish<S: Workload>(&mut self, report: &mut Report) {
        if let Some((_, stats, executed)) = timed::<S>(
            self.input,
            &options(Some(self.journal.clone()), true, 2),
            report,
        ) {
            self.resume_executed = executed;
            report.check(executed == 0 && self.stats.as_ref() == Some(&stats), || {
                format!("resuming the finished journal executed {executed} trials")
            });
        }
    }

    /// Trials per second over the median campaign.
    pub fn trials_per_s(&self) -> f64 {
        if self.walls.is_empty() {
            0.0
        } else {
            TRIALS as f64 / median(&self.walls)
        }
    }

    /// How many campaigns the rate is a median of.
    pub fn basis(&self) -> String {
        format!(
            "{TRIALS} trials per campaign, median of {} campaigns",
            self.walls.len()
        )
    }
}

/// Per-layer numbers of the campaign's building blocks.
pub struct CampaignProbes {
    /// Serial `run_trial_reusing`, microseconds per trial.
    pub trial_us: f64,
    /// `Supervisor::run_trial` around a no-op, microseconds.
    pub envelope_us: f64,
    /// `JournalWriter::record_buffered` (µs) and `sync` (ms).
    pub append_us: f64,
    pub sync_ms: f64,
    /// Journaled minus unjournaled `jobs = 2` wall, over journaled.
    pub journal_cost_frac: f64,
    /// Unjournaled trials/s at `jobs = 2` over `jobs = 1`.
    pub speedup_2: f64,
}

/// Times the layers under the campaign: rounds of journaled `jobs = 2`,
/// unjournaled `jobs = 2` and unjournaled `jobs = 1` campaigns,
/// interleaved so their medians compare (all must reproduce the
/// measured campaign), then serial trials, the supervision envelope
/// and the journal writer.
pub fn probes<S: Workload>(
    input: &CampaignInput,
    measured: &Campaign<'_>,
    dir: &Path,
    report: &mut Report,
) -> CampaignProbes {
    let expected = measured.stats.clone();
    let journal = dir.join("probe-campaign-run.journal");
    let variants = [(Some(journal), 2), (None, 2), (None, 1)];
    let mut walls: [Vec<f64>; 3] = Default::default();
    for _ in 0..5 {
        for (i, (journal, jobs)) in variants.iter().enumerate() {
            if let Some((wall, stats, _)) =
                timed::<S>(input, &options(journal.clone(), false, *jobs), report)
            {
                report.check(Some(&stats) == expected.as_ref(), || {
                    format!(
                        "a jobs={jobs} campaign (journal {}) diverged",
                        journal.is_some()
                    )
                });
                walls[i].push(wall);
            }
        }
    }
    let med = |w: &[f64]| if w.is_empty() { 0.0 } else { median(w) };
    let [journaled_wall, parallel, serial] = [med(&walls[0]), med(&walls[1]), med(&walls[2])];

    let mut scratch = EngineScratch::new();
    let mut trial_us = Vec::new();
    let mut mismatched = 0;
    for (i, &seed) in input.seeds.iter().take(300).enumerate() {
        let mut sched = S::fault_tolerant();
        let t = Instant::now();
        let trial = run_trial_reusing(
            &input.instance,
            &config(),
            seed,
            RunBudget::UNLIMITED,
            &mut sched,
            &mut scratch,
        );
        trial_us.push(t.elapsed().as_secs_f64() * 1e6);
        mismatched += u64::from(expected.as_ref().is_some_and(|s| s.trials[i] != trial));
    }
    report.ops(
        trial_us.len() as u64,
        mismatched,
        "serial trials matching the campaign's",
    );

    let mut sup = Supervisor::new(SupervisorPolicy::default());
    let envelope: Vec<f64> = (0..50)
        .map(|rep| {
            let t = Instant::now();
            for k in 0..100u64 {
                let out = sup.run_trial(rep * 100 + k, 0, || || std::hint::black_box(7u32));
                assert_eq!(out, Ok(7), "a no-op trial succeeds");
            }
            t.elapsed().as_secs_f64() * 1e6 / 100.0
        })
        .collect();

    let (mut append, mut sync) = (Vec::new(), Vec::new());
    let header = JournalHeader {
        schema: JOURNAL_SCHEMA.to_string(),
        fingerprint: "probe".into(),
        scheduler: S::SERVE_NAME.into(),
        fault_free_makespan: rigid_time::Time::ONE,
    };
    match (
        JournalWriter::create(&dir.join("probe-campaign.journal"), &header),
        &expected,
    ) {
        (Ok(mut writer), Some(stats)) => {
            for trial in stats.trials.iter().take(100) {
                let t = Instant::now();
                let appended = writer.record_buffered(trial);
                let t2 = Instant::now();
                let synced = writer.sync();
                append.push(t2.duration_since(t).as_secs_f64() * 1e6);
                sync.push(t2.elapsed().as_secs_f64() * 1e3);
                report.check(appended.is_ok() && synced.is_ok(), || {
                    "probe journal write failed".into()
                });
            }
        }
        (Err(e), _) => {
            report.check(false, || {
                format!("cannot create a probe campaign journal: {e}")
            });
        }
        (Ok(_), None) => {}
    }

    CampaignProbes {
        trial_us: med(&trial_us),
        envelope_us: median(&envelope),
        append_us: med(&append),
        sync_ms: med(&sync),
        journal_cost_frac: if journaled_wall > 0.0 {
            (journaled_wall - parallel) / journaled_wall
        } else {
            0.0
        },
        speedup_2: if parallel > 0.0 {
            serial / parallel
        } else {
            0.0
        },
    }
}
