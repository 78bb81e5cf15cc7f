//! Seeded fault campaigns: run a scheduler over an instance under many
//! fault schedules and quantify the damage against the fault-free run.

use crate::injector::{FaultConfig, FaultInjector};
use rigid_dag::{Instance, StaticSource};
use rigid_sim::{EngineConfig, EngineScratch, OnlineScheduler, RunBudget, RunError};
use rigid_time::{Rational, Time};
use serde::{Deserialize, Serialize};
use std::fmt;

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
    /// The record of a trial that injected no fault: `outcome`, no
    /// failures, no wasted or inflated area, and all `procs` processors
    /// up. A trial the supervision envelope rejected (panicked, timed
    /// out, quarantined) records this, and so does each restart of E21's
    /// worst-case hunt, whose outcome is a competitive ratio.
    pub fn without_faults(seed: u64, procs: u32, outcome: Result<Time, TrialError>) -> Self {
        TrialStats {
            seed,
            outcome,
            failures: 0,
            wasted_area: Time::ZERO,
            inflated_area: Time::ZERO,
            min_capacity: procs,
        }
    }

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
        let sum = ratios.iter().fold(Rational::ZERO, |acc, r| {
            acc.checked_add(r).expect("sum fits")
        });
        sum.checked_div(&Rational::from_int(ratios.len() as i64))
    }
}

/// Runs the single trial for `seed`: a fresh [`FaultInjector`] over the
/// instance under `budget`. This is the primitive the supervision layer
/// (`rigid-supervise`) isolates in a worker — it performs **no** panic
/// capture itself; a panicking scheduler propagates to the caller.
///
/// Everything is deterministic: the same
/// `(instance, config, seed, budget)` gives the identical
/// [`TrialStats`] on every call.
pub fn run_trial(
    instance: &Instance,
    config: &FaultConfig,
    seed: u64,
    budget: RunBudget,
    scheduler: &mut dyn OnlineScheduler,
) -> TrialStats {
    run_trial_reusing(
        instance,
        config,
        seed,
        budget,
        scheduler,
        &mut EngineScratch::new(),
    )
}

/// [`run_trial`] with caller-owned [`EngineScratch`] so campaigns
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
    // A trial reads only the makespan and the fault log, which a
    // stats-only run reports exactly.
    let run = EngineConfig::new()
        .faults(&mut injector)
        .budget(budget)
        .scratch(scratch)
        .stats_only()
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

    /// One `run_trial` per seed on figure 3, each with a fresh scheduler
    /// from `make`, aggregated over the fault-free baseline.
    fn fig3_trials(
        config: &FaultConfig,
        seeds: &[u64],
        make: impl Fn() -> CatBatch,
    ) -> CampaignStats {
        let inst = figure3();
        let fault_free_makespan = EngineConfig::new()
            .run(&mut StaticSource::new(inst.clone()), &mut make())
            .makespan();
        let trials = seeds
            .iter()
            .map(|&seed| run_trial(&inst, config, seed, RunBudget::UNLIMITED, &mut make()))
            .collect();
        CampaignStats {
            fault_free_makespan,
            trials,
        }
    }

    fn fig3_campaign(budget: u32) -> CampaignStats {
        fig3_trials(&FaultConfig::fail_stop(400, 2), &[1, 2, 3, 4, 5], || {
            CatBatch::new().with_retry_budget(budget)
        })
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
        let stats = fig3_trials(&FaultConfig::fail_stop(1000, 1), &[1, 2, 3], CatBatch::new);
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

    #[test]
    fn trial_stats_roundtrip_through_json() {
        let stats = fig3_campaign(2);
        for t in &stats.trials {
            let json = serde_json::to_string(t).unwrap();
            let back: TrialStats = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, t);
        }
        let poisoned = TrialStats::without_faults(
            9,
            8,
            Err(TrialError::Panicked {
                message: "boom".into(),
            }),
        );
        let json = serde_json::to_string(&poisoned).unwrap();
        assert_eq!(serde_json::from_str::<TrialStats>(&json).unwrap(), poisoned);
    }

    #[test]
    fn dip_campaign_records_min_capacity() {
        let cfg = FaultConfig::none().with_dip(Time::ZERO, Time::from_int(3), 2);
        let stats = fig3_trials(&cfg, &[9], || CatBatch::new().with_retry_budget(0));
        assert_eq!(stats.trials[0].min_capacity, 2);
        // Restricting starts can only delay the schedule.
        assert!(*stats.trials[0].outcome.as_ref().unwrap() >= stats.fault_free_makespan);
    }
}
