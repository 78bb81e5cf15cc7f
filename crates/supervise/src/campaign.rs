//! The resumable campaign loop: supervised trials + journaled
//! checkpoints + graceful interrupt points.

use crate::journal::{
    resume_or_create, CampaignJournal, GroupCommit, JournalError, JournalHeader, ShardInfo,
    JOURNAL_SCHEMA,
};
use crate::shard::ShardSpec;
use crate::supervisor::{Supervisor, SupervisorPolicy};
use rigid_dag::{instance_fingerprint, Instance, StableHasher, StaticSource};
use rigid_exec::{ReorderBuffer, ReorderWait, ScratchPool};
use rigid_faults::{run_trial_reusing, CampaignStats, FaultConfig, TrialStats};
use rigid_sim::{EngineConfig, EngineScratch, OnlineScheduler, RunBudget, RunError};
use rigid_time::Time;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

/// How a campaign should be supervised, journaled, and budgeted.
#[derive(Clone, Debug, Default)]
pub struct CampaignOptions {
    /// Watchdog / retry / quarantine policy for each trial.
    pub policy: SupervisorPolicy,
    /// Hard per-trial engine budget (events, wall clock).
    pub budget: RunBudget,
    /// Journal path. `None` runs without checkpoints.
    pub journal: Option<PathBuf>,
    /// With a journal: replay existing records instead of truncating.
    /// A missing journal file resumes into a fresh one.
    pub resume: bool,
    /// Worker threads for trial execution. `0` and `1` both run each
    /// trial inline (with per-trial fsync durability); `>= 2` fans
    /// trials out over a work-stealing pool whose results are journaled
    /// in canonical seed order with group commit — journals and
    /// aggregates stay **byte-identical** to serial execution for any
    /// value (see [`run_seeds`]).
    pub jobs: usize,
    /// Run only shard `i/N` of the deduplicated seed space (see
    /// [`ShardSpec::plan`]). The journal (required for sharding to be
    /// useful, though not enforced here) gets a
    /// [`SHARD_SCHEMA`](crate::journal::SHARD_SCHEMA) header pinning the
    /// shard coordinates; `merge` later reconstitutes the single-process
    /// journal byte-for-byte from a full set of shard files.
    pub shard: Option<ShardSpec>,
}

/// What a campaign invocation did, beyond the aggregate stats.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignOutcome {
    /// The aggregate stats — byte-identical between an uninterrupted
    /// run and any interrupted-then-resumed sequence over the same
    /// seeds.
    pub stats: CampaignStats,
    /// Trials actually executed by this invocation.
    pub executed: usize,
    /// Trials replayed from the journal without re-execution.
    pub replayed: usize,
    /// Whether the stop condition (e.g. SIGINT) ended the run early;
    /// `stats` then covers only the seeds processed so far.
    pub interrupted: bool,
    /// Whether the journal had a torn trailing line (crash artifact,
    /// discarded; that trial re-executes).
    pub torn_tail: bool,
}

/// Why a campaign could not run at all (per-trial failures never land
/// here — they are recorded in the trial stats).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CampaignError {
    /// The journal could not be written, read, or matched.
    Journal(JournalError),
    /// The fault-free baseline run failed — the scheduler cannot even
    /// schedule the unperturbed instance.
    Baseline(RunError),
    /// The fault-free baseline run panicked.
    BaselinePanicked {
        /// The panic payload, stringified.
        message: String,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Journal(e) => e.fmt(f),
            CampaignError::Baseline(e) => write!(f, "fault-free baseline failed: {e}"),
            CampaignError::BaselinePanicked { message } => {
                write!(f, "fault-free baseline panicked: {message}")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<JournalError> for CampaignError {
    fn from(e: JournalError) -> Self {
        CampaignError::Journal(e)
    }
}

/// The stable scenario fingerprint a journal is keyed on: instance,
/// fault config, scheduler name, and the deterministic part of the
/// budget (`max_events`). The wall-clock deadline is deliberately
/// excluded — it cannot be reproduced anyway.
pub fn campaign_fingerprint(
    instance: &Instance,
    config: &FaultConfig,
    scheduler: &str,
    budget: RunBudget,
) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(instance_fingerprint(instance));
    h.write_u32(config.fail_permille);
    h.write_u32(config.max_failures_per_task);
    h.write_u32(config.straggle_permille);
    h.write_u32(config.straggle_factor_permille.0);
    h.write_u32(config.straggle_factor_permille.1);
    h.write_u64(config.dips.len() as u64);
    for dip in &config.dips {
        h.write_str(&dip.from.to_string());
        h.write_str(&dip.until.to_string());
        h.write_u32(dip.capacity);
    }
    h.write_str(scheduler);
    h.write_u64(budget.max_events.map_or(u64::MAX, |e| e));
    h.finish()
}

/// How often a parallel [`run_seeds`] wakes while it waits for a
/// worker's result, to honor the group-commit deadline.
const COORDINATOR_POLL: Duration = Duration::from_millis(5);

/// What one [`run_seeds`] pass did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeedRun {
    /// One record per seed run or replayed, in seed order.
    pub trials: Vec<TrialStats>,
    /// Trials run by this pass.
    pub executed: usize,
    /// Trials replayed from the journal or from an earlier occurrence of
    /// the same seed.
    pub replayed: usize,
    /// Whether `stop` ended the pass early; `trials` then covers only
    /// the seeds before that point.
    pub interrupted: bool,
}

/// The one seed loop behind fault campaigns ([`run_campaign`]) and E21's
/// worst-case hunt.
///
/// Walks `seeds` in order and, per seed: polls `stop` (once, here
/// only — a stop ends the pass with every journaled record durable);
/// replays the seed's record if the journal holds one or the seed came
/// up earlier in the list; otherwise takes `trial(seed)` and appends it
/// to the journal. Callers run `trial` under one [`Supervisor`], so a
/// trial never takes the pass down.
///
/// With `jobs <= 1` each trial runs inline and each record is fsynced
/// before the next is written. With `jobs >= 2`, `jobs - 1` workers and
/// this thread claim the seeds still missing in seed order from a
/// shared cursor: whenever the result this thread needs next has not
/// arrived, it runs the next unclaimed seed itself instead of waiting.
/// It journals every result in seed order through [`GroupCommit`].
/// Records, journal bytes and the abort point of a `stop` that never
/// returns are the same for every `jobs`: after `k` polls the journal
/// holds exactly the first `k` fresh records.
pub fn run_seeds(
    seeds: &[u64],
    journal: Option<&mut CampaignJournal>,
    jobs: usize,
    stop: impl Fn() -> bool,
    trial: impl Fn(u64) -> TrialStats + Sync,
) -> Result<SeedRun, JournalError> {
    let (writer, replay) = match journal {
        Some(j) => (Some(&mut j.writer), std::mem::take(&mut j.replay)),
        None => (None, BTreeMap::new()),
    };
    if jobs <= 1 {
        let mut writer = writer;
        return walk(seeds, replay, stop, |seed| {
            let t = trial(seed);
            writer.as_mut().map_or(Ok(()), |w| w.record(&t))?;
            Ok(Some(t))
        });
    }

    // The seeds to claim: the first occurrence of each seed the journal
    // does not hold. Replays and duplicates stay with `walk`.
    let mut index: BTreeMap<u64, usize> = BTreeMap::new();
    let mut fresh: Vec<u64> = Vec::new();
    for &seed in seeds {
        if !replay.contains_key(&seed) && !index.contains_key(&seed) {
            index.insert(seed, fresh.len());
            fresh.push(seed);
        }
    }
    let cursor = AtomicUsize::new(0);
    // The next fresh seed nobody has claimed yet.
    let claim = || {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        (i < fresh.len()).then_some(i)
    };
    let (tx, rx) = mpsc::channel::<(usize, TrialStats)>();
    let mut group = writer.map(GroupCommit::new);
    let (fresh, claim, trial) = (&fresh, &claim, &trial);
    thread::scope(|scope| {
        for _ in 1..jobs.min(fresh.len()) {
            let tx = tx.clone();
            scope.spawn(move || {
                while let Some(i) = claim() {
                    if tx.send((i, trial(fresh[i]))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        let mut reorder = ReorderBuffer::new(rx);
        let run = walk(seeds, replay, stop, |seed| {
            let want = index[&seed];
            let t = loop {
                if let Some(t) = reorder.try_index(want) {
                    break t;
                }
                // Rather than wait for a worker, run the next unclaimed
                // seed here.
                if let Some(i) = claim() {
                    reorder.insert(i, trial(fresh[i]));
                    continue;
                }
                match reorder.recv_index(want, COORDINATOR_POLL) {
                    Ok(t) => break t,
                    Err(ReorderWait::Tick) => {
                        group.as_mut().map_or(Ok(()), GroupCommit::flush_if_due)?;
                    }
                    // Every worker is gone without this result: one
                    // panicked outside the supervisor, and the scope
                    // re-raises that panic.
                    Err(ReorderWait::Disconnected) => return Ok(None),
                }
            };
            if let Some(g) = group.as_mut() {
                g.record(&t)?;
                g.flush_if_due()?;
            }
            Ok(Some(t))
        });
        // Closes the result channel, so the workers stop at their next
        // send instead of claiming more seeds.
        drop(reorder);
        // Flush on interrupt, error and completion alike: every
        // journaled record is durable before the pass returns.
        let flushed = group.as_mut().map_or(Ok(()), GroupCommit::flush);
        let run = run?;
        flushed?;
        Ok(run)
    })
}

/// The walk [`run_seeds`] makes in either mode; `fresh(seed)` runs or
/// receives a seed's trial and journals it, and `None` from it ends the
/// pass.
fn walk(
    seeds: &[u64],
    mut replay: BTreeMap<u64, TrialStats>,
    stop: impl Fn() -> bool,
    mut fresh: impl FnMut(u64) -> Result<Option<TrialStats>, JournalError>,
) -> Result<SeedRun, JournalError> {
    let mut run = SeedRun {
        trials: Vec::with_capacity(seeds.len()),
        executed: 0,
        replayed: 0,
        interrupted: false,
    };
    for &seed in seeds {
        if stop() {
            run.interrupted = true;
            break;
        }
        if let Some(t) = replay.get(&seed) {
            run.trials.push(t.clone());
            run.replayed += 1;
            continue;
        }
        let Some(t) = fresh(seed)? else {
            run.interrupted = true;
            break;
        };
        run.executed += 1;
        // Duplicate seeds later in the list replay this result instead
        // of re-running.
        replay.insert(seed, t.clone());
        run.trials.push(t);
    }
    Ok(run)
}

/// Runs a supervised, journaled, resumable fault campaign.
///
/// Per seed, in order (see [`run_seeds`]): if `stop()` returns true the
/// campaign winds down (journal flushed — every recorded trial is
/// fsynced); if the journal holds the seed's record it is replayed
/// **byte-for-byte**; otherwise the trial runs under the supervision
/// envelope (panic capture, watchdog, retries, quarantine) and its
/// record is appended in canonical seed order. Trials reuse pooled
/// [`EngineScratch`], and one [`Supervisor`] serves every worker.
///
/// With `options.jobs >= 2`, trials fan out over a work-stealing worker
/// pool and their records are group-committed. Journals, aggregates,
/// and `TrialStats` are byte-identical to serial execution for any
/// thread count, and kill-and-resume replays exactly the same records.
///
/// Resuming a journal written for a different scenario (instance,
/// config, scheduler, or event budget) fails with
/// [`JournalError::FingerprintMismatch`]; resuming a *complete* journal
/// executes zero trials and reproduces the aggregates exactly.
pub fn run_campaign<S, F>(
    instance: &Instance,
    config: &FaultConfig,
    seeds: &[u64],
    options: &CampaignOptions,
    stop: impl Fn() -> bool,
    make_scheduler: F,
) -> Result<CampaignOutcome, CampaignError>
where
    S: OnlineScheduler + 'static,
    F: Fn() -> S + Send + Sync + 'static,
{
    let scheduler_name = make_scheduler().name().to_string();
    let fingerprint = campaign_fingerprint(instance, config, &scheduler_name, options.budget);
    let fingerprint_hex = format!("{fingerprint:016x}");

    // Sharding: restrict the run to this process's slice of the
    // deduplicated seed space. The plan is a pure function of the full
    // seed list, so every `--shard i/N` process computes the same
    // partition independently.
    let assigned: Vec<u64>;
    let seeds: &[u64] = match &options.shard {
        Some(spec) => {
            assigned = spec.plan(seeds);
            &assigned
        }
        None => seeds,
    };
    let shard_info: Option<ShardInfo> = options.shard.map(|spec| spec.info(seeds));

    // The baseline: reused from the journal header on resume, computed
    // (with panic capture — nothing may kill the campaign) otherwise.
    let baseline = || -> Result<Time, CampaignError> {
        let run = catch_unwind(AssertUnwindSafe(|| {
            let mut sched = make_scheduler();
            EngineConfig::new()
                .stats_only()
                .try_run(&mut StaticSource::new(instance.clone()), &mut sched)
        }))
        .map_err(|p| CampaignError::BaselinePanicked {
            message: rigid_faults::panic_message(p),
        })?;
        Ok(run.map_err(CampaignError::Baseline)?.makespan())
    };
    let mut journal = match &options.journal {
        Some(path) => Some(resume_or_create(
            path,
            options.resume,
            &fingerprint_hex,
            shard_info.as_ref(),
            || {
                Ok::<_, CampaignError>(JournalHeader {
                    schema: JOURNAL_SCHEMA.to_string(),
                    fingerprint: fingerprint_hex.clone(),
                    scheduler: scheduler_name,
                    fault_free_makespan: baseline()?,
                })
            },
        )?),
        None => None,
    };
    let fault_free_makespan = match &journal {
        Some(j) => j.header.fault_free_makespan,
        None => baseline()?,
    };
    let torn_tail = journal.as_ref().is_some_and(|j| j.torn_tail);

    // What every attempt shares. Owned, because a watchdogged attempt
    // runs on a pool thread that may outlive this call.
    let (inst, cfg, budget, procs) = (
        instance.clone(),
        config.clone(),
        options.budget,
        instance.procs(),
    );
    let scratch: ScratchPool<EngineScratch> = ScratchPool::new();
    let attempt = Arc::new(move |seed| {
        scratch.with(EngineScratch::new, |s| {
            let mut sched = make_scheduler();
            run_trial_reusing(&inst, &cfg, seed, budget, &mut sched, s)
        })
    });
    let supervisor = Supervisor::new(options.policy);
    let run = run_seeds(seeds, journal.as_mut(), options.jobs, stop, |seed| {
        supervisor
            .run_trial(seed, fingerprint, || {
                let attempt = Arc::clone(&attempt);
                move || attempt(seed)
            })
            .unwrap_or_else(|err| TrialStats::without_faults(seed, procs, Err(err)))
    })?;

    Ok(CampaignOutcome {
        stats: CampaignStats {
            fault_free_makespan,
            trials: run.trials,
        },
        executed: run.executed,
        replayed: run.replayed,
        interrupted: run.interrupted,
        torn_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use catbatch::CatBatch;
    use rigid_dag::paper::figure3;
    use rigid_faults::TrialError;

    fn unjournaled(jobs: usize) -> CampaignOptions {
        CampaignOptions {
            jobs,
            ..CampaignOptions::default()
        }
    }

    /// Regression: a scheduler that panics on one seed used to take the
    /// whole campaign down; now the panic is captured as a typed
    /// [`TrialError::Panicked`] and the remaining seeds still run.
    #[test]
    fn panicking_scheduler_poisons_one_trial_not_the_campaign() {
        use rigid_dag::{ReleasedTask, TaskId};
        use rigid_sim::FailureResponse;

        /// Delegates to CatBatch but panics on the first injected
        /// failure — so it panics exactly on seeds where the injector
        /// fires, and behaves on the rest.
        struct Grenade {
            inner: CatBatch,
        }
        impl OnlineScheduler for Grenade {
            fn name(&self) -> &'static str {
                "grenade"
            }
            fn on_release(&mut self, t: &ReleasedTask, now: Time) {
                self.inner.on_release(t, now);
            }
            fn on_complete(&mut self, t: TaskId, now: Time) {
                self.inner.on_complete(t, now);
            }
            fn decide_into(&mut self, now: Time, free: u32, out: &mut Vec<TaskId>) {
                self.inner.decide_into(now, free, out)
            }
            fn on_failure(&mut self, t: TaskId, now: Time) -> FailureResponse {
                panic!("grenade scheduler exploded on failure of {t} at t={now}");
            }
        }
        let campaign = |config: FaultConfig, seeds: &[u64]| {
            run_campaign(
                &figure3(),
                &config,
                seeds,
                &unjournaled(1),
                || false,
                || Grenade {
                    inner: CatBatch::new(),
                },
            )
            .expect("the campaign survives its panics")
            .stats
        };

        // 100% failure probability: every seed injects a failure on the
        // very first attempt, so every trial panics...
        let all_bad = campaign(FaultConfig::fail_stop(1000, 1), &[1, 2, 3]);
        assert_eq!(all_bad.trials.len(), 3, "campaign must survive every panic");
        for t in &all_bad.trials {
            match &t.outcome {
                Err(TrialError::Panicked { message }) => {
                    assert!(message.contains("grenade scheduler exploded"));
                }
                other => panic!("expected Panicked, got {other:?}"),
            }
        }

        // A moderate probability leaves some seeds clean: those trials
        // complete normally alongside the poisoned ones.
        let mixed = campaign(FaultConfig::fail_stop(150, 1), &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(mixed.trials.len(), 8);
        assert!(mixed.completed() > 0, "some seeds stay clean at 15%");
        assert!(
            mixed
                .trials
                .iter()
                .any(|t| matches!(t.outcome, Err(TrialError::Panicked { .. }))),
            "some seeds inject a failure and trip the grenade"
        );
    }

    #[test]
    fn parallel_trials_match_serial_for_any_jobs() {
        let inst = figure3();
        let cfg = FaultConfig::fail_stop(400, 2);
        let seeds: Vec<u64> = (100..140).collect();
        let campaign = |jobs| {
            run_campaign(
                &inst,
                &cfg,
                &seeds,
                &unjournaled(jobs),
                || false,
                || CatBatch::new().with_retry_budget(2),
            )
            .expect("unjournaled campaign")
        };
        let serial = campaign(1);
        for jobs in [2, 8] {
            assert_eq!(
                campaign(jobs),
                serial,
                "jobs={jobs} must be trial-for-trial identical"
            );
        }
    }

    #[test]
    fn fingerprint_distinguishes_scenarios() {
        let inst = rigid_dag::paper::figure3();
        let cfg = FaultConfig::fail_stop(300, 2);
        let base = campaign_fingerprint(&inst, &cfg, "catbatch", RunBudget::UNLIMITED);
        assert_eq!(
            base,
            campaign_fingerprint(&inst, &cfg, "catbatch", RunBudget::UNLIMITED),
            "fingerprint must be stable"
        );
        assert_ne!(
            base,
            campaign_fingerprint(
                &inst,
                &FaultConfig::fail_stop(301, 2),
                "catbatch",
                RunBudget::UNLIMITED
            )
        );
        assert_ne!(
            base,
            campaign_fingerprint(&inst, &cfg, "list", RunBudget::UNLIMITED)
        );
        assert_ne!(
            base,
            campaign_fingerprint(&inst, &cfg, "catbatch", RunBudget::max_events(10_000))
        );
        let other = rigid_dag::paper::intro_example(8, rigid_time::Time::from_ratio(1, 100));
        assert_ne!(
            base,
            campaign_fingerprint(&other, &cfg, "catbatch", RunBudget::UNLIMITED)
        );
    }
}
