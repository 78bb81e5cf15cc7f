//! Trial supervision: isolated execution with panic capture, watchdog
//! timeouts, bounded retries, and quarantine.
//!
//! A [`Supervisor`] never lets a trial take the process down. Panics
//! are captured with `catch_unwind`; hangs are cut off by running the
//! attempt on a pooled watchdog thread ([`rigid_exec::WatchdogPool`])
//! and waiting with a timeout — the hung worker cannot be killed, but it
//! is *pooled*, not leaked: it finishes its stale job eventually and
//! returns to the pool, and a campaign of 10 000 watchdogged trials
//! shares a handful of threads instead of spawning one each. Repeated
//! offenders are quarantined so a poison `(seed, scenario)` pair is
//! attempted at most once per supervisor, whichever thread asks.

use rigid_exec::{WatchdogOutcome, WatchdogPool};
use rigid_faults::{panic_message, TrialError};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

/// Retry and watchdog policy for supervised trials.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SupervisorPolicy {
    /// Per-attempt wall-clock limit. `None` runs attempts inline with
    /// panic capture only (no worker thread, nothing can hang over).
    pub watchdog: Option<Duration>,
    /// Extra attempts after the first one panics or times out. Typed
    /// trial errors (engine violations, blown budgets) are
    /// deterministic and are **not** retried.
    pub max_retries: u32,
    /// Backoff before retry `k` (1-based): `backoff_base * 2^(k-1)`.
    /// The schedule is deterministic — no jitter — so supervised
    /// campaigns stay reproducible.
    pub backoff_base: Duration,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            watchdog: None,
            max_retries: 1,
            backoff_base: Duration::ZERO,
        }
    }
}

/// Runs one attempt under `policy`: inline when no watchdog is
/// configured, otherwise on a pooled watchdog thread with a receive
/// timeout. A timed-out job keeps running on its pool thread until it
/// finishes — it cannot corrupt campaign state (its result channel is
/// already closed) and its thread rejoins the pool afterwards.
fn run_attempt<T, A>(policy: &SupervisorPolicy, job: A) -> Result<T, TrialError>
where
    T: Send + 'static,
    A: FnOnce() -> T + Send + 'static,
{
    let Some(limit) = policy.watchdog else {
        return catch_unwind(AssertUnwindSafe(job)).map_err(|p| TrialError::Panicked {
            message: panic_message(p),
        });
    };
    match WatchdogPool::global().run(job, limit) {
        WatchdogOutcome::Completed(value) => Ok(value),
        WatchdogOutcome::Panicked(p) => Err(TrialError::Panicked {
            message: panic_message(p),
        }),
        WatchdogOutcome::TimedOut => Err(TrialError::TimedOut {
            limit_ms: limit.as_millis() as u64,
        }),
    }
}

/// Runs trials in isolation and tracks poison `(seed, scenario)` pairs.
///
/// The scenario is a caller-chosen stable fingerprint (see
/// [`campaign_fingerprint`](crate::campaign_fingerprint)); quarantine
/// keys on `(seed, scenario)` so the same seed under a different config
/// is still attempted.
///
/// One supervisor serves many threads: the quarantine sits behind a
/// lock, so the workers of a parallel campaign, or of the daemon, share
/// it and a pair poisoned on one thread is refused on every other.
#[derive(Debug)]
pub struct Supervisor {
    policy: SupervisorPolicy,
    quarantined: Mutex<BTreeMap<(u64, u64), u32>>,
}

impl Supervisor {
    /// A supervisor with the given policy and an empty quarantine.
    pub fn new(policy: SupervisorPolicy) -> Self {
        Supervisor {
            policy,
            quarantined: Mutex::new(BTreeMap::new()),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> &SupervisorPolicy {
        &self.policy
    }

    fn quarantine(&self) -> MutexGuard<'_, BTreeMap<(u64, u64), u32>> {
        // Only map lookups and inserts run under the lock; none panics.
        self.quarantined.lock().expect("quarantine lock poisoned")
    }

    /// Whether `(seed, scenario)` has been quarantined.
    pub fn is_quarantined(&self, seed: u64, scenario: u64) -> bool {
        self.quarantine().contains_key(&(seed, scenario))
    }

    /// The quarantined `(seed, scenario)` pairs with the attempts each
    /// consumed, in key order.
    pub fn quarantined(&self) -> Vec<((u64, u64), u32)> {
        self.quarantine().iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// Runs one trial under supervision. `make_attempt` is called once
    /// per attempt and must hand back a self-contained job (retries
    /// need a fresh one because a panicked job is consumed). Attempts
    /// run until one succeeds or `1 + max_retries` have panicked or
    /// timed out, with the policy's deterministic backoff between them.
    ///
    /// Returns the job's value, or a typed [`TrialError`]:
    /// [`Panicked`](TrialError::Panicked) /
    /// [`TimedOut`](TrialError::TimedOut) from the final attempt, or
    /// [`Quarantined`](TrialError::Quarantined) if the pair was already
    /// poisoned by an earlier call.
    pub fn run_trial<T, A, F>(
        &self,
        seed: u64,
        scenario: u64,
        mut make_attempt: F,
    ) -> Result<T, TrialError>
    where
        T: Send + 'static,
        A: FnOnce() -> T + Send + 'static,
        F: FnMut() -> A,
    {
        let poisoned = self.quarantine().get(&(seed, scenario)).copied();
        if let Some(attempts) = poisoned {
            return Err(TrialError::Quarantined { attempts });
        }
        let attempts = 1 + self.policy.max_retries;
        let mut last = TrialError::Quarantined { attempts: 0 };
        for attempt in 0..attempts {
            if attempt > 0 {
                let shift = (attempt - 1).min(16);
                let backoff = self.policy.backoff_base.saturating_mul(1u32 << shift);
                if !backoff.is_zero() {
                    thread::sleep(backoff);
                }
            }
            match run_attempt(&self.policy, make_attempt()) {
                Ok(value) => return Ok(value),
                Err(err) => last = err,
            }
        }
        self.quarantine().insert((seed, scenario), attempts);
        Err(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

    /// Serializes the watchdog tests: they share the process-wide
    /// `WatchdogPool`, whose thread count
    /// `watchdog_attempts_share_pooled_threads` asserts on.
    fn watchdog_pool_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        // The guarded value is `()`, so a test that panicked holding the
        // lock left nothing inconsistent behind.
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn policy(watchdog_ms: Option<u64>, retries: u32) -> SupervisorPolicy {
        SupervisorPolicy {
            watchdog: watchdog_ms.map(Duration::from_millis),
            max_retries: retries,
            backoff_base: Duration::ZERO,
        }
    }

    #[test]
    fn success_passes_through() {
        let sup = Supervisor::new(policy(None, 0));
        assert_eq!(sup.run_trial(1, 7, || || 42), Ok(42));
        assert!(!sup.is_quarantined(1, 7));
    }

    #[test]
    fn panic_is_captured_retried_and_quarantined() {
        let calls = Arc::new(AtomicU32::new(0));
        let sup = Supervisor::new(policy(None, 2));
        let c = calls.clone();
        let result: Result<u32, _> = sup.run_trial(5, 9, move || {
            let c = c.clone();
            move || {
                c.fetch_add(1, Ordering::SeqCst);
                panic!("kaboom {}", c.load(Ordering::SeqCst));
            }
        });
        match result {
            Err(TrialError::Panicked { message }) => assert!(message.contains("kaboom")),
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(calls.load(Ordering::SeqCst), 3, "1 attempt + 2 retries");
        assert!(sup.is_quarantined(5, 9));
        assert_eq!(sup.quarantined(), vec![((5, 9), 3)]);

        // A second call does not re-run the poison pair.
        let again: Result<u32, _> = sup.run_trial(5, 9, || || unreachable!("quarantined"));
        assert_eq!(again, Err(TrialError::Quarantined { attempts: 3 }));
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn recovery_on_retry_is_a_success() {
        let calls = Arc::new(AtomicU32::new(0));
        let sup = Supervisor::new(policy(None, 3));
        let c = calls.clone();
        let result = sup.run_trial(2, 2, move || {
            let c = c.clone();
            move || {
                if c.fetch_add(1, Ordering::SeqCst) < 2 {
                    panic!("flaky");
                }
                "ok"
            }
        });
        assert_eq!(result, Ok("ok"));
        assert!(!sup.is_quarantined(2, 2));
    }

    #[test]
    fn watchdog_cuts_off_a_hang() {
        let _pool = watchdog_pool_lock();
        let sup = Supervisor::new(policy(Some(40), 0));
        let result: Result<u32, _> = sup.run_trial(3, 3, || {
            || {
                // Far beyond the watchdog; the pool worker stays busy
                // with this stale job until it finishes.
                thread::sleep(Duration::from_secs(2));
                0
            }
        });
        assert_eq!(result, Err(TrialError::TimedOut { limit_ms: 40 }));
        assert!(sup.is_quarantined(3, 3));
    }

    #[test]
    fn watchdog_lets_fast_trials_through() {
        let _pool = watchdog_pool_lock();
        let sup = Supervisor::new(policy(Some(5_000), 0));
        assert_eq!(sup.run_trial(4, 4, || || 7), Ok(7));
    }

    #[test]
    fn watchdog_attempts_share_pooled_threads() {
        let _pool = watchdog_pool_lock();
        // Many sequential watchdogged trials must not spawn a thread
        // each: the global pool grows only when attempts overlap (e.g. a
        // stale hung job from another test still occupies a worker), so
        // it stays far below the trial count.
        let before = WatchdogPool::global().spawned_threads();
        let sup = Supervisor::new(policy(Some(5_000), 0));
        for seed in 0..100 {
            assert_eq!(sup.run_trial(seed, 1, || move || seed), Ok(seed));
        }
        // `spawned_threads` counts *live* workers since idle reaping
        // landed, so another test's worker exiting mid-run could make
        // the count shrink — saturate instead of underflowing.
        let grown = WatchdogPool::global()
            .spawned_threads()
            .saturating_sub(before);
        assert!(
            grown <= 1,
            "100 sequential watchdog trials grew the pool by {grown} threads"
        );
    }

    #[test]
    fn quarantine_is_scenario_scoped() {
        let sup = Supervisor::new(policy(None, 0));
        let _: Result<(), _> = sup.run_trial(1, 100, || || panic!("bad config"));
        assert!(sup.is_quarantined(1, 100));
        // Same seed, different scenario: runs fine.
        assert_eq!(sup.run_trial(1, 200, || || 1), Ok(1));
    }

    #[test]
    fn one_supervisor_shared_by_threads_quarantines_once() {
        // Two threads share one supervisor. The first poisons the pair;
        // the barrier holds the second back until it has, and the second
        // is then refused without running anything.
        let sup = Supervisor::new(policy(None, 1));
        let calls = AtomicU32::new(0);
        let poisoned = std::sync::Barrier::new(2);
        thread::scope(|scope| {
            scope.spawn(|| {
                let r: Result<u32, _> = sup.run_trial(7, 70, || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    || panic!("always")
                });
                assert!(matches!(r, Err(TrialError::Panicked { .. })));
                poisoned.wait();
            });
            scope.spawn(|| {
                poisoned.wait();
                let again: Result<u32, _> = sup.run_trial(7, 70, || || unreachable!("quarantined"));
                assert_eq!(again, Err(TrialError::Quarantined { attempts: 2 }));
                // A different scenario is unaffected.
                assert_eq!(sup.run_trial(7, 71, || || 1), Ok(1));
            });
        });
        assert_eq!(
            calls.load(Ordering::SeqCst),
            2,
            "1 attempt + 1 retry, on one thread only"
        );
        assert_eq!(sup.quarantined(), vec![((7, 70), 2)]);
    }
}
