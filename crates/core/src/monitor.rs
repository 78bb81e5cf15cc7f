//! Live guarantee monitoring for online runs.
//!
//! Operators of an online scheduler cannot know the final instance, but
//! they can know what the theory promises *conditioned on what has been
//! revealed so far*. [`GuaranteeMonitor`] ingests the release stream and
//! maintains:
//!
//! * the revealed task count `n`, area `A`, and critical path `C`;
//! * the revealed Graham bound `Lb = max(A/P, C)`;
//! * the **conditional Lemma 7 bound**: if no further task is revealed,
//!   CatBatch finishes by `2A/P + Σ_ζ L_ζ(C)` over the revealed
//!   categories;
//! * the Theorem 1 ratio guarantee `log₂(n) + 3`.
//!
//! All quantities are monotone under new revelations except the L-matrix
//! terms, which are recomputed against the current revealed `C` (category
//! lengths grow as `C` grows, so the conditional bound stays valid).

use crate::attributes::CriticalityTracker;
use crate::category::{compute_category, Category};
use crate::lmatrix::category_length;
use rigid_dag::ReleasedTask;
use rigid_sim::FaultLog;
use rigid_time::Time;
use std::collections::BTreeSet;
use std::fmt;

/// Tracks the revealed portion of an instance and the bounds it implies.
#[derive(Debug)]
pub struct GuaranteeMonitor {
    procs: u32,
    tracker: CriticalityTracker,
    categories: BTreeSet<Category>,
    area: Time,
    n: usize,
}

impl GuaranteeMonitor {
    /// Creates a monitor for a platform of `procs` processors.
    pub fn new(procs: u32) -> Self {
        assert!(procs >= 1);
        GuaranteeMonitor {
            procs,
            tracker: CriticalityTracker::new(),
            categories: BTreeSet::new(),
            area: Time::ZERO,
            n: 0,
        }
    }

    /// Ingests one released task (call alongside the scheduler's
    /// `on_release`).
    pub fn on_release(&mut self, task: &ReleasedTask) {
        let crit = self.tracker.on_release(task);
        self.categories
            .insert(compute_category(crit.start, crit.finish));
        self.area += task.spec.area();
        self.n += 1;
    }

    /// Revealed task count.
    pub fn revealed_tasks(&self) -> usize {
        self.n
    }

    /// Revealed area `A`.
    pub fn revealed_area(&self) -> Time {
        self.area
    }

    /// Revealed critical-path length `C` (max `f∞` so far).
    pub fn revealed_critical_path(&self) -> Time {
        self.tracker.revealed_critical_path()
    }

    /// Revealed Graham bound `max(A/P, C)`.
    pub fn revealed_lower_bound(&self) -> Time {
        self.area
            .div_int(self.procs as i64)
            .max(self.revealed_critical_path())
    }

    /// Number of distinct revealed categories (the number of batches
    /// CatBatch will have formed so far).
    pub fn revealed_categories(&self) -> usize {
        self.categories.len()
    }

    /// The conditional Lemma 7 completion bound: if nothing further is
    /// revealed, CatBatch finishes by `2A/P + Σ L_ζ(C)`.
    ///
    /// Returns `None` before the first release.
    pub fn conditional_makespan_bound(&self) -> Option<Time> {
        if self.n == 0 {
            return None;
        }
        let c = self.revealed_critical_path();
        let lengths: Time = self
            .categories
            .iter()
            .map(|&cat| category_length(cat, c))
            .sum();
        Some(self.area.mul_int(2).div_int(self.procs as i64) + lengths)
    }

    /// The Theorem 1 guarantee for the revealed task count:
    /// `log₂(n) + 3`.
    pub fn ratio_guarantee(&self) -> f64 {
        assert!(self.n >= 1, "no tasks revealed yet");
        (self.n as f64).log2() + 3.0
    }

    /// Non-panicking variant of [`ratio_guarantee`](Self::ratio_guarantee):
    /// `None` before the first release.
    pub fn try_ratio_guarantee(&self) -> Option<f64> {
        (self.n >= 1).then(|| (self.n as f64).log2() + 3.0)
    }

    /// Audits a run's [`FaultLog`] against the theory's standing
    /// assumptions and reports, instead of asserting, **which**
    /// assumptions were violated and **how much** the conditional
    /// Lemma 7 bound inflates once the violations are priced in.
    ///
    /// The theory assumes fixed execution times `t_i` (violated by
    /// stragglers and by re-executed failures) and a fixed platform `P`
    /// (violated by capacity dips). Under violations the adjusted bound
    /// charges all extra area (wasted + inflated) and the worst observed
    /// capacity:
    ///
    /// `2·(A + extra) / max(1, P_min) + Σ_ζ L_ζ(C)`
    ///
    /// This is a *diagnostic* — a Lemma 7 analogue that degrades
    /// gracefully — not a proven competitive-ratio theorem: the L-matrix
    /// terms still use nominal criticalities, so a sufficiently
    /// adversarial fault model can exceed it.
    pub fn assumption_report(&self, log: &FaultLog) -> AssumptionReport {
        let nominal = self.conditional_makespan_bound();
        let inflated = if self.n == 0 {
            None
        } else {
            let c = self.revealed_critical_path();
            let lengths: Time = self
                .categories
                .iter()
                .map(|&cat| category_length(cat, c))
                .sum();
            let effective = log.min_capacity.clamp(1, self.procs);
            let charged = self.area + log.extra_area();
            Some(charged.mul_int(2).div_int(effective as i64) + lengths)
        };
        AssumptionReport {
            fixed_times_violated: log.failures > 0 || !log.inflated_area.is_zero(),
            fixed_procs_violated: log.min_capacity < self.procs,
            failures: log.failures,
            wasted_area: log.wasted_area,
            inflated_area: log.inflated_area,
            min_capacity: log.min_capacity,
            platform: self.procs,
            nominal_bound: nominal,
            inflated_bound: inflated,
        }
    }
}

/// The monitor's audit of a run against the paper's model assumptions.
///
/// Produced by [`GuaranteeMonitor::assumption_report`]; designed for
/// operators: it names the violated assumptions and quantifies the
/// damage rather than asserting.
#[derive(Clone, Debug, PartialEq)]
pub struct AssumptionReport {
    /// The fixed-`t_i` assumption was violated (failures re-executed
    /// work and/or stragglers ran long).
    pub fixed_times_violated: bool,
    /// The fixed-`P` assumption was violated (capacity dipped below the
    /// platform size at some decision point).
    pub fixed_procs_violated: bool,
    /// Failed attempts across the run.
    pub failures: u64,
    /// Area consumed by failed attempts.
    pub wasted_area: Time,
    /// Extra area consumed by stragglers beyond nominal.
    pub inflated_area: Time,
    /// Worst capacity observed at any decision point.
    pub min_capacity: u32,
    /// Platform size `P`.
    pub platform: u32,
    /// The unconditional Lemma 7 bound `2A/P + Σ L_ζ(C)` (assumptions
    /// intact); `None` before the first release.
    pub nominal_bound: Option<Time>,
    /// The fault-adjusted bound `2(A+extra)/max(1, P_min) + Σ L_ζ(C)`;
    /// `None` before the first release.
    pub inflated_bound: Option<Time>,
}

impl AssumptionReport {
    /// `true` if every model assumption held (the nominal Lemma 7 bound
    /// applies unconditionally).
    pub fn clean(&self) -> bool {
        !self.fixed_times_violated && !self.fixed_procs_violated
    }

    /// How much the bound inflated: `inflated_bound − nominal_bound`
    /// (zero for a clean run, `None` before the first release).
    pub fn bound_inflation(&self) -> Option<Time> {
        Some(self.inflated_bound? - self.nominal_bound?)
    }
}

impl fmt::Display for AssumptionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.clean() {
            write!(f, "all model assumptions held")?;
        } else {
            write!(f, "violated:")?;
            if self.fixed_times_violated {
                write!(
                    f,
                    " fixed-t ({} failure(s) wasting {}, straggler area {})",
                    self.failures, self.wasted_area, self.inflated_area
                )?;
            }
            if self.fixed_procs_violated {
                write!(
                    f,
                    " fixed-P (capacity dipped to {} of {})",
                    self.min_capacity, self.platform
                )?;
            }
        }
        match (self.nominal_bound, self.inflated_bound) {
            (Some(nom), Some(inf)) => {
                write!(f, "; bound {nom} -> {inf}")
            }
            _ => write!(f, "; no tasks revealed"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CatBatch;
    use rigid_dag::gen::{erdos_dag, TaskSampler};
    use rigid_dag::paper::figure3;
    use rigid_dag::{InstanceSource, StaticSource, TaskId};
    use rigid_sim::{engine, OnlineScheduler};
    use rigid_time::Time;

    /// A scheduler wrapper that feeds the monitor from the release
    /// stream while delegating to CatBatch.
    struct Monitored {
        inner: CatBatch,
        monitor: GuaranteeMonitor,
    }

    impl OnlineScheduler for Monitored {
        fn name(&self) -> &'static str {
            "monitored-catbatch"
        }
        fn on_release(&mut self, t: &ReleasedTask, now: Time) {
            self.monitor.on_release(t);
            self.inner.on_release(t, now);
        }
        fn on_complete(&mut self, t: TaskId, now: Time) {
            self.inner.on_complete(t, now);
        }
        fn decide_into(&mut self, now: Time, free: u32, out: &mut Vec<TaskId>) {
            self.inner.decide_into(now, free, out)
        }
        fn on_failure(&mut self, t: TaskId, now: Time) -> rigid_sim::FailureResponse {
            self.inner.on_failure(t, now)
        }
    }

    #[test]
    fn final_bound_dominates_actual_makespan() {
        let inst = figure3();
        let mut sched = Monitored {
            inner: CatBatch::new(),
            monitor: GuaranteeMonitor::new(inst.procs()),
        };
        let result =
            engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut sched);
        let bound = sched.monitor.conditional_makespan_bound().unwrap();
        assert!(result.makespan() <= bound);
        // After full revelation the monitor agrees with the offline view.
        assert_eq!(sched.monitor.revealed_tasks(), 11);
        assert_eq!(sched.monitor.revealed_categories(), 6);
        assert_eq!(
            sched.monitor.revealed_critical_path(),
            Time::from_millis(6, 800)
        );
        assert_eq!(bound, crate::analysis::lemma7_bound(&inst));
    }

    #[test]
    fn monitor_tracks_partial_revelation() {
        let inst = figure3();
        let mut src = StaticSource::new(inst);
        let mut monitor = GuaranteeMonitor::new(4);
        assert!(monitor.conditional_makespan_bound().is_none());
        let initial = src.initial();
        for rel in &initial {
            monitor.on_release(rel);
        }
        // Roots A-D revealed: n = 4.
        assert_eq!(monitor.revealed_tasks(), 4);
        assert!(monitor.revealed_lower_bound() > Time::ZERO);
        let early = monitor.conditional_makespan_bound().unwrap();
        assert!(early.is_positive());
        assert!((monitor.ratio_guarantee() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn clean_run_yields_clean_report() {
        let inst = figure3();
        let mut sched = Monitored {
            inner: CatBatch::new(),
            monitor: GuaranteeMonitor::new(inst.procs()),
        };
        let result = engine::EngineConfig::new().run(&mut StaticSource::new(inst), &mut sched);
        let report = sched.monitor.assumption_report(&result.faults);
        assert!(report.clean());
        assert!(!report.fixed_times_violated);
        assert!(!report.fixed_procs_violated);
        assert_eq!(report.bound_inflation(), Some(Time::ZERO));
        assert_eq!(report.nominal_bound, report.inflated_bound);
        assert!(format!("{report}").starts_with("all model assumptions held"));
    }

    #[test]
    fn faulty_run_report_names_violations_and_inflates_bound() {
        use rigid_sim::fault::{Attempt, FaultModel};
        use rigid_sim::EngineConfig;

        /// Fails the first attempt of every task halfway through.
        struct FirstAttemptFails;
        impl FaultModel for FirstAttemptFails {
            fn on_start(
                &mut self,
                _task: TaskId,
                attempt: u32,
                _now: Time,
                nominal: Time,
                _procs: u32,
            ) -> Attempt {
                if attempt == 0 {
                    Attempt::Fail {
                        after: nominal.div_int(2),
                    }
                } else {
                    Attempt::Complete
                }
            }
        }

        let inst = figure3();
        let mut sched = Monitored {
            inner: CatBatch::new().with_retry_budget(1),
            monitor: GuaranteeMonitor::new(inst.procs()),
        };
        let result = EngineConfig::new()
            .faults(&mut FirstAttemptFails)
            .try_run(&mut StaticSource::new(inst), &mut sched)
            .unwrap();
        let report = sched.monitor.assumption_report(&result.faults);
        assert!(!report.clean());
        assert!(report.fixed_times_violated);
        assert!(!report.fixed_procs_violated);
        assert_eq!(report.failures, 11);
        // Every first attempt wasted half its area: extra = A/2, so the
        // adjusted bound adds exactly 2·(A/2)/P = A/P.
        let area = sched.monitor.revealed_area();
        assert_eq!(report.wasted_area, area.div_int(2));
        assert_eq!(report.bound_inflation(), Some(area.div_int(4 /* P */)));
        // The adjusted bound still dominates the degraded run here.
        assert!(result.makespan() <= report.inflated_bound.unwrap());
        let text = format!("{report}");
        assert!(text.contains("fixed-t"), "got: {text}");
    }

    #[test]
    fn capacity_dip_reports_fixed_procs_violation() {
        let mut monitor = GuaranteeMonitor::new(4);
        let inst = figure3();
        let mut src = StaticSource::new(inst);
        for rel in src.initial() {
            monitor.on_release(&rel);
        }
        let mut log = rigid_sim::FaultLog::new(4);
        log.min_capacity = 2;
        let report = monitor.assumption_report(&log);
        assert!(report.fixed_procs_violated);
        assert!(!report.fixed_times_violated);
        // Charging min capacity 2 instead of 4 doubles the area term.
        let c = monitor.revealed_critical_path();
        let nominal = report.nominal_bound.unwrap();
        let inflated = report.inflated_bound.unwrap();
        let area_term = monitor.revealed_area().mul_int(2).div_int(4);
        assert_eq!(inflated - nominal, area_term); // 2A/2 − 2A/4 = 2A/4
        assert!(c.is_positive());
        assert!(format!("{report}").contains("fixed-P"));
    }

    #[test]
    fn empty_monitor_report_has_no_bounds() {
        let monitor = GuaranteeMonitor::new(2);
        assert!(monitor.try_ratio_guarantee().is_none());
        let report = monitor.assumption_report(&rigid_sim::FaultLog::new(2));
        assert!(report.nominal_bound.is_none());
        assert!(report.inflated_bound.is_none());
        assert!(report.bound_inflation().is_none());
    }

    #[test]
    fn bound_holds_across_random_runs() {
        for seed in 0..8u64 {
            let inst = erdos_dag(seed, 30, 0.2, &TaskSampler::default_mix(), 8);
            let mut sched = Monitored {
                inner: CatBatch::new(),
                monitor: GuaranteeMonitor::new(8),
            };
            let result =
                engine::EngineConfig::new().run(&mut StaticSource::new(inst.clone()), &mut sched);
            let bound = sched.monitor.conditional_makespan_bound().unwrap();
            assert!(result.makespan() <= bound, "seed {seed}");
            let ratio = result
                .makespan()
                .ratio(rigid_dag::analysis::lower_bound(&inst))
                .to_f64();
            assert!(ratio <= sched.monitor.ratio_guarantee() + 1e-9);
        }
    }
}
