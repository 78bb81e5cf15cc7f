//! The seeded fault injector: a deterministic [`FaultModel`].

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rigid_dag::TaskId;
use rigid_sim::{Attempt, FaultModel};
use rigid_time::Time;

/// A finite window during which the platform accepts new starts on at
/// most `capacity` processors (a processor-drop / recovery interval).
///
/// Running tasks are unaffected — the model is "no new allocations",
/// not preemption. Overlapping dips compose by taking the minimum.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CapacityDip {
    /// Start of the dip (inclusive).
    pub from: Time,
    /// End of the dip (exclusive); capacity recovers here.
    pub until: Time,
    /// Processors accepting new starts during the window.
    pub capacity: u32,
}

/// Configuration of a [`FaultInjector`].
///
/// Probabilities are **per-attempt** and expressed in permille (‰,
/// thousandths) so the whole configuration stays in exact integer /
/// rational arithmetic. A task draw can both fail and straggle in
/// principle; failure is checked first, so the straggle draw applies
/// only to surviving attempts (the draws are sequential on one stream).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultConfig {
    /// Chance (‰) that an attempt fail-stops.
    pub fail_permille: u32,
    /// Attempts per task after which the injector stops failing it (a
    /// termination guarantee: with a retrying scheduler every task
    /// eventually completes). `0` disables the cap — only safe with
    /// `fail_permille < 1000` and a probabilistic termination argument.
    pub max_failures_per_task: u32,
    /// Chance (‰) that a surviving attempt straggles.
    pub straggle_permille: u32,
    /// Inflation factor range for stragglers, in permille of the
    /// nominal duration: `(min, max)` with `1000 < min ≤ max`. E.g.
    /// `(1100, 2000)` inflates by 1.1×–2×.
    pub straggle_factor_permille: (u32, u32),
    /// Capacity-dip windows (finitely many; may overlap).
    pub dips: Vec<CapacityDip>,
}

impl FaultConfig {
    /// A configuration that injects nothing (useful as a base to build
    /// on).
    pub fn none() -> Self {
        FaultConfig {
            fail_permille: 0,
            max_failures_per_task: 3,
            straggle_permille: 0,
            straggle_factor_permille: (1500, 1500),
            dips: Vec::new(),
        }
    }

    /// Fail-stop only: each attempt dies with probability `permille`‰,
    /// at most `max_failures_per_task` times per task.
    pub fn fail_stop(permille: u32, max_failures_per_task: u32) -> Self {
        FaultConfig {
            fail_permille: permille,
            max_failures_per_task,
            ..FaultConfig::none()
        }
    }

    /// Stragglers only: each attempt runs `min..=max` permille of its
    /// nominal duration with probability `permille`‰.
    pub fn stragglers(permille: u32, min_factor: u32, max_factor: u32) -> Self {
        FaultConfig {
            straggle_permille: permille,
            straggle_factor_permille: (min_factor, max_factor),
            ..FaultConfig::none()
        }
    }

    /// Adds a capacity dip window.
    pub fn with_dip(mut self, from: Time, until: Time, capacity: u32) -> Self {
        assert!(from < until, "empty dip window");
        self.dips.push(CapacityDip {
            from,
            until,
            capacity,
        });
        self
    }

    fn validate(&self) {
        assert!(self.fail_permille <= 1000, "fail_permille > 1000");
        assert!(self.straggle_permille <= 1000, "straggle_permille > 1000");
        let (lo, hi) = self.straggle_factor_permille;
        assert!(
            1000 < lo && lo <= hi,
            "straggle factor range ({lo}, {hi}) must satisfy 1000 < min <= max"
        );
        for d in &self.dips {
            assert!(d.from < d.until, "empty dip window");
        }
    }
}

/// A deterministic, seed-driven fault model.
///
/// Draws are consumed in attempt-start order from one ChaCha8 stream,
/// and the engine itself is deterministic, so a `(config, seed)` pair
/// reproduces the exact same run every time.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    config: FaultConfig,
    rng: ChaCha8Rng,
    /// Failures injected so far, per task (enforces the per-task cap).
    failed: std::collections::BTreeMap<TaskId, u32>,
    injected_failures: u64,
    injected_stragglers: u64,
}

impl FaultInjector {
    /// Creates an injector replaying the fault schedule of `seed`.
    pub fn new(seed: u64, config: FaultConfig) -> Self {
        config.validate();
        FaultInjector {
            config,
            rng: ChaCha8Rng::seed_from_u64(seed),
            failed: std::collections::BTreeMap::new(),
            injected_failures: 0,
            injected_stragglers: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Failures injected so far.
    pub fn injected_failures(&self) -> u64 {
        self.injected_failures
    }

    /// Stragglers injected so far.
    pub fn injected_stragglers(&self) -> u64 {
        self.injected_stragglers
    }
}

impl FaultModel for FaultInjector {
    fn on_start(
        &mut self,
        task: TaskId,
        _attempt: u32,
        _now: Time,
        nominal: Time,
        _procs: u32,
    ) -> Attempt {
        // Failure draw first. Every start consumes the same number of
        // draws on each branch, keeping schedules aligned across
        // configs that differ only in probabilities.
        let fail_draw = self.rng.random_range(0..1000u32);
        let fail_frac = self.rng.random_range(100..=900u32);
        let prior = self.failed.get(&task).copied().unwrap_or(0);
        let may_fail =
            self.config.max_failures_per_task == 0 || prior < self.config.max_failures_per_task;
        if may_fail && fail_draw < self.config.fail_permille {
            *self.failed.entry(task).or_insert(0) += 1;
            self.injected_failures += 1;
            // Die uniformly within [10%, 90%] of the nominal duration,
            // in exact thousandths.
            return Attempt::Fail {
                after: nominal.mul_int(fail_frac as i64).div_int(1000),
            };
        }

        let straggle_draw = self.rng.random_range(0..1000u32);
        let (lo, hi) = self.config.straggle_factor_permille;
        let factor = self.rng.random_range(lo..=hi);
        if straggle_draw < self.config.straggle_permille {
            self.injected_stragglers += 1;
            return Attempt::Inflated {
                actual: nominal.mul_int(factor as i64).div_int(1000),
            };
        }
        Attempt::Complete
    }

    fn capacity(&mut self, now: Time, platform: u32) -> u32 {
        self.config
            .dips
            .iter()
            .filter(|d| d.from <= now && now < d.until)
            .map(|d| d.capacity)
            .fold(platform, u32::min)
    }

    fn next_capacity_event(&self, now: Time) -> Option<Time> {
        self.config
            .dips
            .iter()
            .flat_map(|d| [d.from, d.until])
            .filter(|&t| t > now)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draw_sequence(seed: u64, config: FaultConfig, n: usize) -> Vec<Attempt> {
        let mut inj = FaultInjector::new(seed, config);
        (0..n)
            .map(|i| inj.on_start(TaskId(i as u32), 0, Time::ZERO, Time::from_int(10), 1))
            .collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = FaultConfig {
            fail_permille: 300,
            max_failures_per_task: 2,
            straggle_permille: 300,
            straggle_factor_permille: (1100, 3000),
            dips: Vec::new(),
        };
        let a = draw_sequence(42, cfg.clone(), 200);
        let b = draw_sequence(42, cfg, 200);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = FaultConfig::fail_stop(500, 0);
        let a = draw_sequence(1, cfg.clone(), 100);
        let b = draw_sequence(2, cfg, 100);
        assert_ne!(a, b);
    }

    #[test]
    fn failure_fraction_bounds() {
        let cfg = FaultConfig::fail_stop(1000, 0);
        for att in draw_sequence(7, cfg, 100) {
            match att {
                Attempt::Fail { after } => {
                    assert!(after >= Time::ONE); // 10% of 10
                    assert!(after <= Time::from_int(9)); // 90% of 10
                }
                other => panic!("expected failure, got {other:?}"),
            }
        }
    }

    #[test]
    fn straggler_factor_bounds() {
        let cfg = FaultConfig::stragglers(1000, 1100, 2000);
        for att in draw_sequence(7, cfg, 100) {
            match att {
                Attempt::Inflated { actual } => {
                    assert!(actual >= Time::from_int(11)); // 1.1 × 10
                    assert!(actual <= Time::from_int(20)); // 2.0 × 10
                }
                other => panic!("expected straggler, got {other:?}"),
            }
        }
    }

    #[test]
    fn per_task_failure_cap_enforced() {
        let mut inj = FaultInjector::new(3, FaultConfig::fail_stop(1000, 2));
        let t = TaskId(0);
        let outcomes: Vec<Attempt> = (0..5)
            .map(|a| inj.on_start(t, a, Time::ZERO, Time::ONE, 1))
            .collect();
        let failures = outcomes
            .iter()
            .filter(|a| matches!(a, Attempt::Fail { .. }))
            .count();
        assert_eq!(failures, 2);
        // Once capped, the task always completes cleanly.
        assert!(matches!(outcomes[2], Attempt::Complete));
    }

    #[test]
    fn overlapping_dips_take_minimum() {
        let mut inj = FaultInjector::new(
            0,
            FaultConfig::none()
                .with_dip(Time::from_int(1), Time::from_int(5), 3)
                .with_dip(Time::from_int(2), Time::from_int(4), 1),
        );
        assert_eq!(inj.capacity(Time::ZERO, 8), 8);
        assert_eq!(inj.capacity(Time::from_int(1), 8), 3);
        assert_eq!(inj.capacity(Time::from_int(3), 8), 1);
        assert_eq!(inj.capacity(Time::from_int(4), 8), 3);
        assert_eq!(inj.capacity(Time::from_int(5), 8), 8);
    }

    #[test]
    fn capacity_events_walk_every_boundary() {
        let inj = FaultInjector::new(
            0,
            FaultConfig::none()
                .with_dip(Time::from_int(1), Time::from_int(5), 3)
                .with_dip(Time::from_int(2), Time::from_int(4), 1),
        );
        let mut now = Time::ZERO;
        let mut boundaries = Vec::new();
        while let Some(t) = inj.next_capacity_event(now) {
            boundaries.push(t);
            now = t;
        }
        assert_eq!(
            boundaries,
            vec![
                Time::from_int(1),
                Time::from_int(2),
                Time::from_int(4),
                Time::from_int(5),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "straggle factor range")]
    fn deflating_straggler_rejected() {
        let _ = FaultInjector::new(0, FaultConfig::stragglers(100, 900, 1100));
    }
}
