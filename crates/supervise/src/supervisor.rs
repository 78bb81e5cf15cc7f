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
//! attempted at most once per campaign.

use rigid_exec::{WatchdogOutcome, WatchdogPool};
use rigid_faults::{panic_message, TrialError};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
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
        return catch_unwind(AssertUnwindSafe(job))
            .map_err(|p| TrialError::Panicked { message: panic_message(p) });
    };
    match WatchdogPool::global().run(job, limit) {
        WatchdogOutcome::Completed(value) => Ok(value),
        WatchdogOutcome::Panicked(p) => Err(TrialError::Panicked { message: panic_message(p) }),
        WatchdogOutcome::TimedOut => {
            Err(TrialError::TimedOut { limit_ms: limit.as_millis() as u64 })
        }
    }
}

/// The retry loop shared by [`Supervisor::run_trial`] and the parallel
/// campaign workers: run attempts (with deterministic backoff) until one
/// succeeds or the budget is spent. On exhaustion returns the final
/// error plus the attempt count for the quarantine record.
fn attempt_loop<T, A, F>(policy: &SupervisorPolicy, mut make_attempt: F) -> Result<T, (TrialError, u32)>
where
    T: Send + 'static,
    A: FnOnce() -> T + Send + 'static,
    F: FnMut() -> A,
{
    let attempts = 1 + policy.max_retries;
    let mut last = TrialError::Quarantined { attempts: 0 };
    for attempt in 0..attempts {
        if attempt > 0 {
            let shift = (attempt - 1).min(16);
            let backoff = policy.backoff_base.saturating_mul(1u32 << shift);
            if !backoff.is_zero() {
                thread::sleep(backoff);
            }
        }
        match run_attempt(policy, make_attempt()) {
            Ok(value) => return Ok(value),
            Err(err) => last = err,
        }
    }
    Err((last, attempts))
}

/// A quarantine shared by concurrent campaign workers: the same
/// `(seed, scenario)` poison tracking as [`Supervisor`], behind a lock.
///
/// Campaign workers operate on *distinct* seeds (duplicates are deduped
/// into replays before dispatch), so entries never race for the same key
/// and the map's contents — like everything else in a campaign — are
/// independent of worker interleaving.
#[derive(Debug, Default)]
pub(crate) struct SharedQuarantine {
    map: Mutex<BTreeMap<(u64, u64), u32>>,
}

impl SharedQuarantine {
    pub(crate) fn new() -> Self {
        SharedQuarantine::default()
    }

    fn check(&self, seed: u64, scenario: u64) -> Option<u32> {
        self.map
            .lock()
            .expect("quarantine lock poisoned")
            .get(&(seed, scenario))
            .copied()
    }

    fn poison(&self, seed: u64, scenario: u64, attempts: u32) {
        self.map
            .lock()
            .expect("quarantine lock poisoned")
            .insert((seed, scenario), attempts);
    }
}

/// The supervision envelope used by parallel campaign workers: identical
/// semantics to [`Supervisor::run_trial`], with the quarantine shared
/// across threads.
pub(crate) fn run_supervised<T, A, F>(
    policy: &SupervisorPolicy,
    quarantine: &SharedQuarantine,
    seed: u64,
    scenario: u64,
    make_attempt: F,
) -> Result<T, TrialError>
where
    T: Send + 'static,
    A: FnOnce() -> T + Send + 'static,
    F: FnMut() -> A,
{
    if let Some(attempts) = quarantine.check(seed, scenario) {
        return Err(TrialError::Quarantined { attempts });
    }
    attempt_loop(policy, make_attempt).map_err(|(last, attempts)| {
        quarantine.poison(seed, scenario, attempts);
        last
    })
}

/// Runs trials in isolation and tracks poison `(seed, scenario)` pairs.
///
/// The scenario is a caller-chosen stable fingerprint (see
/// [`campaign_fingerprint`](crate::campaign_fingerprint)); quarantine
/// keys on `(seed, scenario)` so the same seed under a different config
/// is still attempted.
#[derive(Debug)]
pub struct Supervisor {
    policy: SupervisorPolicy,
    quarantined: BTreeMap<(u64, u64), u32>,
}

impl Supervisor {
    /// A supervisor with the given policy and an empty quarantine.
    pub fn new(policy: SupervisorPolicy) -> Self {
        Supervisor { policy, quarantined: BTreeMap::new() }
    }

    /// The active policy.
    pub fn policy(&self) -> &SupervisorPolicy {
        &self.policy
    }

    /// Whether `(seed, scenario)` has been quarantined.
    pub fn is_quarantined(&self, seed: u64, scenario: u64) -> bool {
        self.quarantined.contains_key(&(seed, scenario))
    }

    /// The quarantined `(seed, scenario)` pairs with the attempts each
    /// consumed, in key order.
    pub fn quarantined(&self) -> Vec<((u64, u64), u32)> {
        self.quarantined.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// Runs one trial under supervision. `make_attempt` is called once
    /// per attempt and must hand back a self-contained job (retries
    /// need a fresh one because a panicked job is consumed).
    ///
    /// Returns the job's value, or a typed [`TrialError`]:
    /// [`Panicked`](TrialError::Panicked) /
    /// [`TimedOut`](TrialError::TimedOut) from the final attempt, or
    /// [`Quarantined`](TrialError::Quarantined) if the pair was already
    /// poisoned by an earlier call.
    pub fn run_trial<T, A, F>(
        &mut self,
        seed: u64,
        scenario: u64,
        make_attempt: F,
    ) -> Result<T, TrialError>
    where
        T: Send + 'static,
        A: FnOnce() -> T + Send + 'static,
        F: FnMut() -> A,
    {
        if let Some(&attempts) = self.quarantined.get(&(seed, scenario)) {
            return Err(TrialError::Quarantined { attempts });
        }
        attempt_loop(&self.policy, make_attempt).map_err(|(last, attempts)| {
            self.quarantined.insert((seed, scenario), attempts);
            last
        })
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
        let mut sup = Supervisor::new(policy(None, 0));
        assert_eq!(sup.run_trial(1, 7, || || 42), Ok(42));
        assert!(!sup.is_quarantined(1, 7));
    }

    #[test]
    fn panic_is_captured_retried_and_quarantined() {
        let calls = Arc::new(AtomicU32::new(0));
        let mut sup = Supervisor::new(policy(None, 2));
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
        let mut sup = Supervisor::new(policy(None, 3));
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
        let mut sup = Supervisor::new(policy(Some(40), 0));
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
        let mut sup = Supervisor::new(policy(Some(5_000), 0));
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
        let mut sup = Supervisor::new(policy(Some(5_000), 0));
        for seed in 0..100 {
            assert_eq!(sup.run_trial(seed, 1, || move || seed), Ok(seed));
        }
        // `spawned_threads` counts *live* workers since idle reaping
        // landed, so another test's worker exiting mid-run could make
        // the count shrink — saturate instead of underflowing.
        let grown = WatchdogPool::global().spawned_threads().saturating_sub(before);
        assert!(
            grown <= 1,
            "100 sequential watchdog trials grew the pool by {grown} threads"
        );
    }

    #[test]
    fn quarantine_is_scenario_scoped() {
        let mut sup = Supervisor::new(policy(None, 0));
        let _: Result<(), _> = sup.run_trial(1, 100, || || panic!("bad config"));
        assert!(sup.is_quarantined(1, 100));
        // Same seed, different scenario: runs fine.
        assert_eq!(sup.run_trial(1, 200, || || 1), Ok(1));
    }

    #[test]
    fn shared_quarantine_matches_supervisor_semantics() {
        let q = SharedQuarantine::new();
        let p = policy(None, 1);
        let r: Result<u32, _> = run_supervised(&p, &q, 7, 70, || || panic!("always"));
        assert!(matches!(r, Err(TrialError::Panicked { .. })));
        let again: Result<u32, _> = run_supervised(&p, &q, 7, 70, || || 1);
        assert_eq!(again, Err(TrialError::Quarantined { attempts: 2 }));
        // Different scenario is unaffected.
        assert_eq!(run_supervised(&p, &q, 7, 71, || || 1), Ok(1));
    }
}
