//! Seeded fault campaigns: run a scheduler over an instance under many
//! fault schedules and quantify the damage against the fault-free run.

use crate::injector::{FaultConfig, FaultInjector};
use rigid_dag::{Instance, StaticSource};
use rigid_exec::{ordered_map, ScratchPool};
use rigid_sim::{EngineConfig, EngineScratch, OnlineScheduler, RunBudget, RunError};
use rigid_time::{Rational, Time};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Why a trial failed without producing a makespan. Everything a trial
/// can do wrong — including panicking or hanging — lands here as data,
/// so one poisoned seed can never take down a campaign.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrialError {
    /// The engine returned a typed error (abandonment, a contract
    /// violation, or a blown [`RunBudget`]).
    Run(RunError),
    /// The scheduler or injector panicked; the payload message is
    /// preserved for the report.
    Panicked {
        /// The panic payload, stringified.
        message: String,
    },
    /// The trial outlived its supervisor's wall-clock watchdog.
    TimedOut {
        /// The watchdog limit, in milliseconds.
        limit_ms: u64,
    },
    /// The `(seed, scenario)` pair was quarantined: every supervised
    /// attempt panicked or timed out.
    Quarantined {
        /// Attempts made before giving up.
        attempts: u32,
    },
}

impl fmt::Display for TrialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrialError::Run(e) => e.fmt(f),
            TrialError::Panicked { message } => write!(f, "trial panicked: {message}"),
            TrialError::TimedOut { limit_ms } => {
                write!(f, "trial exceeded its {limit_ms} ms watchdog")
            }
            TrialError::Quarantined { attempts } => {
                write!(f, "quarantined after {attempts} failed attempt(s)")
            }
        }
    }
}

impl std::error::Error for TrialError {}

impl From<RunError> for TrialError {
    fn from(e: RunError) -> Self {
        TrialError::Run(e)
    }
}

/// The outcome of one seeded trial.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrialStats {
    /// The injector seed this trial ran under.
    pub seed: u64,
    /// `Ok(makespan)` if the run completed; the typed error otherwise
    /// (typically [`TrialError::Run`] wrapping
    /// [`RunError::TaskAbandoned`] when the scheduler's retry budget
    /// ran out).
    pub outcome: Result<Time, TrialError>,
    /// Failed attempts injected.
    pub failures: u64,
    /// Area consumed by failed attempts.
    pub wasted_area: Time,
    /// Extra area consumed by stragglers.
    pub inflated_area: Time,
    /// Worst capacity observed.
    pub min_capacity: u32,
}

impl TrialStats {
    /// Makespan inflation over the fault-free makespan, as an exact
    /// ratio (`None` if the trial failed or the baseline is zero).
    pub fn inflation(&self, fault_free: Time) -> Option<Rational> {
        let m = self.outcome.as_ref().ok()?;
        fault_free.is_positive().then(|| m.ratio(fault_free))
    }
}

/// Aggregated results of a campaign over one instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignStats {
    /// Makespan of the fault-free run (the baseline).
    pub fault_free_makespan: Time,
    /// Per-seed trials, in input seed order.
    pub trials: Vec<TrialStats>,
}

impl CampaignStats {
    /// Trials that ran to completion.
    pub fn completed(&self) -> usize {
        self.trials.iter().filter(|t| t.outcome.is_ok()).count()
    }

    /// Trials aborted (task abandoned, or another typed error).
    pub fn aborted(&self) -> usize {
        self.trials.len() - self.completed()
    }

    /// Total failed attempts injected across all trials.
    pub fn total_failures(&self) -> u64 {
        self.trials.iter().map(|t| t.failures).sum()
    }

    /// Total area wasted by failed attempts across all trials.
    pub fn total_wasted_area(&self) -> Time {
        self.trials
            .iter()
            .fold(Time::ZERO, |acc, t| acc + t.wasted_area)
    }

    /// The worst makespan inflation over the baseline among completed
    /// trials (`None` if no trial completed).
    pub fn max_inflation(&self) -> Option<Rational> {
        self.trials
            .iter()
            .filter_map(|t| t.inflation(self.fault_free_makespan))
            .max()
    }

    /// Mean makespan inflation among completed trials (`None` if no
    /// trial completed). Exact rational arithmetic.
    pub fn mean_inflation(&self) -> Option<Rational> {
        let ratios: Vec<Rational> = self
            .trials
            .iter()
            .filter_map(|t| t.inflation(self.fault_free_makespan))
            .collect();
        if ratios.is_empty() {
            return None;
        }
        let sum = ratios
            .iter()
            .fold(Rational::ZERO, |acc, r| acc.checked_add(r).expect("sum fits"));
        sum.checked_div(&Rational::from_int(ratios.len() as i64))
    }
}

/// Runs the single trial for `seed`: a fresh [`FaultInjector`] over the
/// instance under `budget`. This is the primitive the supervision layer
/// (`rigid-supervise`) isolates in a worker — it performs **no** panic
/// capture itself; a panicking scheduler propagates to the caller.
pub fn run_trial(
    instance: &Instance,
    config: &FaultConfig,
    seed: u64,
    budget: RunBudget,
    scheduler: &mut dyn OnlineScheduler,
) -> TrialStats {
    run_trial_reusing(instance, config, seed, budget, scheduler, &mut EngineScratch::new())
}

/// [`run_trial`] with caller-owned [`EngineScratch`] so campaign runners
/// can keep the engine's allocations warm across trials. Identical
/// results for any scratch history (see
/// [`rigid_sim::EngineConfig::scratch`]).
pub fn run_trial_reusing(
    instance: &Instance,
    config: &FaultConfig,
    seed: u64,
    budget: RunBudget,
    scheduler: &mut dyn OnlineScheduler,
    scratch: &mut EngineScratch,
) -> TrialStats {
    let mut injector = FaultInjector::new(seed, config.clone());
    let run = EngineConfig::new()
        .faults(&mut injector)
        .budget(budget)
        .scratch(scratch)
        .try_run(&mut StaticSource::new(instance.clone()), scheduler);
    match run {
        Ok(result) => TrialStats {
            seed,
            outcome: Ok(result.makespan()),
            failures: result.faults.failures,
            wasted_area: result.faults.wasted_area,
            inflated_area: result.faults.inflated_area,
            min_capacity: result.faults.min_capacity,
        },
        Err(err) => TrialStats {
            seed,
            failures: injector.injected_failures(),
            wasted_area: Time::ZERO,
            inflated_area: Time::ZERO,
            min_capacity: instance.procs(),
            outcome: Err(err.into()),
        },
    }
}

/// Runs a fault-free baseline plus one faulty trial per seed, each with
/// a fresh scheduler from `make_scheduler`, and aggregates the results.
///
/// Everything is deterministic: the same `(instance, config, seeds)`
/// triple produces identical [`CampaignStats`] on every call.
///
/// A trial that **panics** is captured (`catch_unwind`) and recorded as
/// [`TrialError::Panicked`]; the remaining trials still run. For
/// watchdog timeouts and journaled resume, use the `rigid-supervise`
/// crate, which builds on [`run_trial`].
///
/// # Panics
/// Panics if the *fault-free* run fails — a scheduler that cannot even
/// schedule the unperturbed instance is a bug, not a fault-tolerance
/// result.
pub fn run_trials<S, F>(
    instance: &Instance,
    config: &FaultConfig,
    seeds: &[u64],
    make_scheduler: F,
) -> CampaignStats
where
    S: OnlineScheduler,
    F: FnMut() -> S,
{
    run_trials_budgeted(instance, config, seeds, RunBudget::UNLIMITED, make_scheduler)
}

/// [`run_trials`] under a hard per-trial [`RunBudget`]: a trial that
/// processes too many events or outlives the wall deadline is recorded
/// as [`TrialError::Run`] wrapping [`RunError::BudgetExceeded`].
///
/// # Panics
/// Panics if the fault-free baseline run fails (see [`run_trials`]).
pub fn run_trials_budgeted<S, F>(
    instance: &Instance,
    config: &FaultConfig,
    seeds: &[u64],
    budget: RunBudget,
    mut make_scheduler: F,
) -> CampaignStats
where
    S: OnlineScheduler,
    F: FnMut() -> S,
{
    let mut baseline_sched = make_scheduler();
    let baseline = EngineConfig::new()
        .try_run(&mut StaticSource::new(instance.clone()), &mut baseline_sched)
        .expect("fault-free baseline run must succeed");

    let mut scratch = EngineScratch::new();
    let trials = seeds
        .iter()
        .map(|&seed| {
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                let mut sched = make_scheduler();
                run_trial_reusing(instance, config, seed, budget, &mut sched, &mut scratch)
            }));
            attempt.unwrap_or_else(|payload| panicked_trial(instance, seed, payload))
        })
        .collect();

    CampaignStats {
        fault_free_makespan: baseline.makespan(),
        trials,
    }
}

/// The parallel form of [`run_trials_budgeted`]: trials fan out over up
/// to `jobs` worker threads (work-stealing over the seed list), each
/// reusing pooled [`EngineScratch`], and the aggregated result is
/// **identical** to the serial runners — trials stay in input seed order
/// and every per-trial value is a pure function of
/// `(instance, config, seed, budget)`.
///
/// `make_scheduler` is `Fn + Sync` (not `FnMut`) because workers call it
/// concurrently; scheduler construction must not carry mutable state
/// across trials (the serial runners' `FnMut` callers almost never do,
/// and a campaign whose trials depend on construction order would not be
/// reproducible anyway).
///
/// # Panics
/// Panics if the fault-free baseline run fails (see [`run_trials`]).
pub fn run_trials_jobs<S, F>(
    instance: &Instance,
    config: &FaultConfig,
    seeds: &[u64],
    budget: RunBudget,
    jobs: usize,
    make_scheduler: F,
) -> CampaignStats
where
    S: OnlineScheduler,
    F: Fn() -> S + Sync,
{
    let mut baseline_sched = make_scheduler();
    let baseline = EngineConfig::new()
        .try_run(&mut StaticSource::new(instance.clone()), &mut baseline_sched)
        .expect("fault-free baseline run must succeed");

    let scratch: ScratchPool<EngineScratch> = ScratchPool::new();
    let trials = ordered_map(seeds.to_vec(), jobs, |_, seed| {
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            scratch.with(EngineScratch::new, |scratch| {
                let mut sched = make_scheduler();
                run_trial_reusing(instance, config, seed, budget, &mut sched, scratch)
            })
        }));
        attempt.unwrap_or_else(|payload| panicked_trial(instance, seed, payload))
    });

    CampaignStats {
        fault_free_makespan: baseline.makespan(),
        trials,
    }
}

/// The `TrialStats` recorded for a trial whose scheduler (or injector)
/// panicked — shared by the serial and parallel runners so both record
/// byte-identical outcomes.
fn panicked_trial(
    instance: &Instance,
    seed: u64,
    payload: Box<dyn std::any::Any + Send>,
) -> TrialStats {
    TrialStats {
        seed,
        outcome: Err(TrialError::Panicked { message: panic_message(payload) }),
        failures: 0,
        wasted_area: Time::ZERO,
        inflated_area: Time::ZERO,
        min_capacity: instance.procs(),
    }
}

/// Stringifies a panic payload (the two shapes `panic!` produces, plus
/// a fallback for exotic payloads).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catbatch::CatBatch;
    use rigid_dag::paper::figure3;

    fn fig3_campaign(budget: u32) -> CampaignStats {
        run_trials(
            &figure3(),
            &FaultConfig::fail_stop(400, 2),
            &[1, 2, 3, 4, 5],
            || CatBatch::new().with_retry_budget(budget),
        )
    }

    #[test]
    fn campaign_is_reproducible() {
        let a = fig3_campaign(2);
        let b = fig3_campaign(2);
        assert_eq!(a.fault_free_makespan, b.fault_free_makespan);
        assert_eq!(a.trials.len(), b.trials.len());
        for (x, y) in a.trials.iter().zip(&b.trials) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.outcome.clone().ok(), y.outcome.clone().ok());
            assert_eq!(x.failures, y.failures);
            assert_eq!(x.wasted_area, y.wasted_area);
        }
    }

    #[test]
    fn faults_never_beat_the_baseline() {
        let stats = fig3_campaign(2);
        assert_eq!(stats.fault_free_makespan, Time::from_millis(15, 200));
        for t in &stats.trials {
            if let Ok(m) = &t.outcome {
                assert!(*m >= stats.fault_free_makespan, "seed {}", t.seed);
            }
        }
        // Fail probability 40‰ per attempt over 11 tasks × 5 trials:
        // the campaign certainly injected something.
        assert!(stats.total_failures() > 0);
        assert!(stats.total_wasted_area().is_positive());
        if stats.completed() > 0 {
            assert!(stats.max_inflation().unwrap() >= Rational::ONE);
            assert!(stats.mean_inflation().unwrap() >= Rational::ONE);
        }
    }

    #[test]
    fn zero_budget_campaign_reports_abandonment() {
        // With retry budget 0 any injected failure aborts its trial;
        // high fail probability makes that certain across 5 seeds.
        let stats = run_trials(
            &figure3(),
            &FaultConfig::fail_stop(1000, 1),
            &[1, 2, 3],
            CatBatch::new,
        );
        assert_eq!(stats.aborted(), 3);
        assert_eq!(stats.completed(), 0);
        assert!(stats.max_inflation().is_none());
        for t in &stats.trials {
            assert!(matches!(
                t.outcome,
                Err(TrialError::Run(RunError::TaskAbandoned { .. }))
            ));
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
            inner: catbatch::CatBatch,
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

        // 100% failure probability: every seed injects a failure on the
        // very first attempt, so every trial panics...
        let all_bad = run_trials(
            &figure3(),
            &FaultConfig::fail_stop(1000, 1),
            &[1, 2, 3],
            || Grenade { inner: catbatch::CatBatch::new() },
        );
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
        let mixed = run_trials(
            &figure3(),
            &FaultConfig::fail_stop(150, 1),
            &[1, 2, 3, 4, 5, 6, 7, 8],
            || Grenade { inner: catbatch::CatBatch::new() },
        );
        assert_eq!(mixed.trials.len(), 8);
        assert!(mixed.completed() > 0, "some seeds stay clean at 15%");
        assert!(
            mixed.trials.iter().any(|t| matches!(t.outcome, Err(TrialError::Panicked { .. }))),
            "some seeds inject a failure and trip the grenade"
        );
    }

    #[test]
    fn parallel_trials_match_serial_for_any_jobs() {
        let inst = figure3();
        let cfg = FaultConfig::fail_stop(400, 2);
        let seeds: Vec<u64> = (100..140).collect();
        let serial = run_trials(&inst, &cfg, &seeds, || {
            CatBatch::new().with_retry_budget(2)
        });
        for jobs in [1, 2, 8] {
            let parallel = run_trials_jobs(&inst, &cfg, &seeds, RunBudget::UNLIMITED, jobs, || {
                CatBatch::new().with_retry_budget(2)
            });
            assert_eq!(parallel, serial, "jobs={jobs} must be trial-for-trial identical");
        }
    }

    #[test]
    fn trial_stats_roundtrip_through_json() {
        let stats = fig3_campaign(2);
        for t in &stats.trials {
            let json = serde_json::to_string(t).unwrap();
            let back: TrialStats = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, t);
        }
        let poisoned = TrialStats {
            seed: 9,
            outcome: Err(TrialError::Panicked { message: "boom".into() }),
            failures: 0,
            wasted_area: Time::ZERO,
            inflated_area: Time::ZERO,
            min_capacity: 8,
        };
        let json = serde_json::to_string(&poisoned).unwrap();
        assert_eq!(serde_json::from_str::<TrialStats>(&json).unwrap(), poisoned);
    }

    #[test]
    fn dip_campaign_records_min_capacity() {
        let cfg = FaultConfig::none().with_dip(Time::ZERO, Time::from_int(3), 2);
        let stats = run_trials(&figure3(), &cfg, &[9], || {
            CatBatch::new().with_retry_budget(0)
        });
        assert_eq!(stats.trials[0].min_capacity, 2);
        // Restricting starts can only delay the schedule.
        assert!(*stats.trials[0].outcome.as_ref().unwrap() >= stats.fault_free_makespan);
    }
}
