//! Graceful SIGINT/SIGTERM handling.
//!
//! [`install`] registers a minimal, async-signal-safe handler that only
//! bumps a process-global epoch counter; campaign loops capture an
//! [`InterruptToken`] when they start and poll [`InterruptToken::interrupted`]
//! between trials, winding down cleanly — the journal is already
//! fsynced per record, so `^C` costs nothing that was finished.
//!
//! The epoch design matters in long-lived processes (the `catbatch
//! serve` daemon, test binaries running many campaigns): a single
//! process-global boolean, once set, would poison every *subsequent*
//! campaign in the same process. With epochs, a signal only interrupts
//! work whose token predates it; work started afterwards observes a
//! fresh epoch and runs normally. The legacy free functions
//! ([`interrupted`], [`reset`]) remain as thin wrappers over one
//! process-global token for existing single-campaign callers.
//!
//! The registration itself is the single unsafe corner of this
//! workspace: a direct declaration of POSIX `signal(2)` (no external
//! crates are available offline). It is confined to this module behind
//! the crate-level `#![deny(unsafe_code)]`; everything observable from
//! outside is safe.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;

/// Bumped once per delivered SIGINT/SIGTERM. Never decremented.
static EPOCH: AtomicU64 = AtomicU64::new(0);
/// Baseline for the legacy [`interrupted`]/[`reset`] wrappers: signals
/// at or below this epoch count as "handled".
static BASELINE: AtomicU64 = AtomicU64::new(0);
static INSTALL: Once = Once::new();

#[cfg(unix)]
#[allow(unsafe_code)]
mod sys {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        /// POSIX `signal(2)`. Returns the previous handler (ignored).
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// The handler: a single lock-free atomic increment, which is
    /// async-signal-safe.
    extern "C" fn on_signal(_signum: i32) {
        super::EPOCH.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    }

    pub(super) fn install_handlers() {
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod sys {
    pub(super) fn install_handlers() {}
}

/// Installs the SIGINT/SIGTERM handlers (idempotent; a no-op on
/// non-Unix platforms).
pub fn install() {
    INSTALL.call_once(sys::install_handlers);
}

/// The current interrupt epoch: the number of SIGINT/SIGTERM signals
/// delivered to this process since [`install`].
pub fn epoch() -> u64 {
    EPOCH.load(Ordering::SeqCst)
}

/// A point-in-time capture of the interrupt epoch.
///
/// Campaign loops (and daemon sessions) capture a token when they
/// start and poll [`interrupted`](InterruptToken::interrupted); only
/// signals delivered *after* the capture register, so one interrupt
/// cannot leak into work started later in the same process.
#[derive(Clone, Copy, Debug)]
pub struct InterruptToken {
    start: u64,
}

impl InterruptToken {
    /// Captures the current epoch; signals delivered after this call
    /// make [`interrupted`](InterruptToken::interrupted) return true.
    pub fn current() -> Self {
        InterruptToken { start: epoch() }
    }

    /// Whether a SIGINT/SIGTERM arrived since this token was captured.
    pub fn interrupted(&self) -> bool {
        epoch() > self.start
    }
}

impl Default for InterruptToken {
    fn default() -> Self {
        Self::current()
    }
}

/// Whether an interrupt signal has arrived since the last [`reset`].
///
/// Thin wrapper over one process-global [`InterruptToken`] baseline,
/// kept for single-campaign callers; new multi-campaign code should
/// capture its own token via [`InterruptToken::current`].
pub fn interrupted() -> bool {
    epoch() > BASELINE.load(Ordering::SeqCst)
}

/// Acknowledges all signals delivered so far (for callers that handle
/// one interrupt and keep running, and for tests). Unlike the old
/// boolean clear, this moves the shared baseline forward and cannot
/// un-interrupt a token captured by concurrent work.
pub fn reset() {
    BASELINE.store(epoch(), Ordering::SeqCst);
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};
    use std::time::{Duration, Instant};

    /// Serializes the tests that raise SIGTERM: they share the
    /// process-wide signal epoch, so one test's signal would land in
    /// another's "no interrupt yet" window.
    fn signal_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        // The guarded value is `()`, so a test that panicked holding the
        // lock left nothing inconsistent behind.
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn raise_sigterm() {
        let status = std::process::Command::new("kill")
            .args(["-TERM", &std::process::id().to_string()])
            .status()
            .expect("spawn kill");
        assert!(status.success());
    }

    fn wait_for(pred: impl Fn() -> bool, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !pred() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Installs the handler, sends this process a real SIGTERM, and
    /// waits for the flag. (Campaign tests never read this global —
    /// they pass their own stop closures — so flipping it here cannot
    /// interfere with them.)
    #[test]
    fn real_signal_sets_the_flag() {
        let _signal = signal_lock();
        install();
        reset();
        assert!(!interrupted());
        raise_sigterm();
        wait_for(interrupted, "signal never delivered");
        reset();
    }

    /// The daemon regression: an interrupt delivered during a first
    /// campaign must not poison a second campaign started afterwards
    /// in the same process. Two sequential "campaigns" each capture a
    /// token; the signal lands during the first.
    #[test]
    fn sequential_campaigns_survive_an_interrupt_during_the_first() {
        let _signal = signal_lock();
        install();
        let first = InterruptToken::current();
        assert!(!first.interrupted());
        raise_sigterm();
        wait_for(|| first.interrupted(), "signal never delivered");
        // First campaign observed the interrupt and wound down. A
        // second campaign starting now captures a fresh token and must
        // NOT see the stale interrupt.
        let second = InterruptToken::current();
        assert!(
            !second.interrupted(),
            "interrupt from the first campaign leaked into the second"
        );
        // And a genuine new signal still interrupts the second.
        raise_sigterm();
        wait_for(|| second.interrupted(), "second signal never delivered");
        reset();
    }
}
