//! Kill-and-resume integration tests: a campaign interrupted (by a stop
//! closure or by truncating its journal mid-flight, simulating a crash)
//! and then resumed must reproduce the uninterrupted aggregates
//! byte-for-byte, and a complete journal must resume as a no-op.

use catbatch::CatBatch;
use rigid_dag::paper::figure3;
use rigid_faults::FaultConfig;
use rigid_sim::RunBudget;
use rigid_supervise::{run_campaign, CampaignError, CampaignOptions, JournalError};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const SEEDS: [u64; 6] = [11, 22, 33, 44, 55, 66];

fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!(
        "rigid-resume-{}-{}-{tag}.jsonl",
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

fn config() -> FaultConfig {
    FaultConfig::fail_stop(250, 2)
}

fn options(journal: Option<PathBuf>, resume: bool) -> CampaignOptions {
    CampaignOptions {
        journal,
        resume,
        budget: RunBudget::UNLIMITED,
        ..CampaignOptions::default()
    }
}

/// The ground truth: one uninterrupted, unjournaled run.
fn uninterrupted() -> rigid_faults::CampaignStats {
    run_campaign(
        &figure3(),
        &config(),
        &SEEDS,
        &options(None, false),
        || false,
        CatBatch::new,
    )
    .expect("uninterrupted campaign")
    .stats
}

#[test]
fn journal_crash_mid_campaign_resumes_to_identical_aggregates() {
    let baseline = uninterrupted();
    let journal = TempFile(temp_path("crash"));

    // Full journaled run, then "crash" it by truncating the journal to
    // the header plus the first three trial records.
    let full = run_campaign(
        &figure3(),
        &config(),
        &SEEDS,
        &options(Some(journal.0.clone()), false),
        || false,
        CatBatch::new,
    )
    .expect("journaled campaign");
    assert_eq!(full.stats, baseline, "journaling must not change results");
    assert_eq!(full.executed, SEEDS.len());
    assert_eq!(full.replayed, 0);

    let text = fs::read_to_string(&journal.0).expect("read journal");
    let kept: String = text.split_inclusive('\n').take(1 + 3).collect();
    fs::write(&journal.0, &kept).expect("truncate journal");

    let resumed = run_campaign(
        &figure3(),
        &config(),
        &SEEDS,
        &options(Some(journal.0.clone()), true),
        || false,
        CatBatch::new,
    )
    .expect("resumed campaign");
    assert_eq!(resumed.replayed, 3, "3 journaled trials replay");
    assert_eq!(resumed.executed, 3, "3 lost trials re-execute");
    assert!(!resumed.interrupted);
    assert_eq!(
        resumed.stats, baseline,
        "kill-and-resume must reproduce the uninterrupted aggregates"
    );
}

#[test]
fn complete_journal_resume_is_a_no_op() {
    let baseline = uninterrupted();
    let journal = TempFile(temp_path("noop"));

    run_campaign(
        &figure3(),
        &config(),
        &SEEDS,
        &options(Some(journal.0.clone()), false),
        || false,
        CatBatch::new,
    )
    .expect("journaled campaign");
    let before = fs::read_to_string(&journal.0).expect("read journal");

    let resumed = run_campaign(
        &figure3(),
        &config(),
        &SEEDS,
        &options(Some(journal.0.clone()), true),
        || false,
        CatBatch::new,
    )
    .expect("no-op resume");
    assert_eq!(
        resumed.executed, 0,
        "a finished journal re-executes nothing"
    );
    assert_eq!(resumed.replayed, SEEDS.len());
    assert_eq!(resumed.stats, baseline);
    let after = fs::read_to_string(&journal.0).expect("read journal");
    assert_eq!(before, after, "a no-op resume appends nothing");
}

#[test]
fn torn_trailing_line_is_discarded_and_reexecuted() {
    let baseline = uninterrupted();
    let journal = TempFile(temp_path("torn"));

    run_campaign(
        &figure3(),
        &config(),
        &SEEDS,
        &options(Some(journal.0.clone()), false),
        || false,
        CatBatch::new,
    )
    .expect("journaled campaign");

    // Tear the final record mid-line, as a crash during write would.
    let text = fs::read_to_string(&journal.0).expect("read journal");
    let trimmed = text.trim_end_matches('\n');
    let torn = &trimmed[..trimmed.len() - trimmed.len().min(17)];
    fs::write(&journal.0, torn).expect("tear journal");

    let resumed = run_campaign(
        &figure3(),
        &config(),
        &SEEDS,
        &options(Some(journal.0.clone()), true),
        || false,
        CatBatch::new,
    )
    .expect("resume over torn tail");
    assert!(resumed.torn_tail, "the torn line must be reported");
    assert_eq!(resumed.replayed, SEEDS.len() - 1);
    assert_eq!(resumed.executed, 1, "only the torn trial re-executes");
    assert_eq!(resumed.stats, baseline);
}

#[test]
fn stop_closure_interrupts_and_resume_completes() {
    let baseline = uninterrupted();
    let journal = TempFile(temp_path("stop"));

    // Stop after four trials, as a SIGINT between trials would.
    let polls = AtomicUsize::new(0);
    let partial = run_campaign(
        &figure3(),
        &config(),
        &SEEDS,
        &options(Some(journal.0.clone()), false),
        || polls.fetch_add(1, Ordering::SeqCst) >= 4,
        CatBatch::new,
    )
    .expect("interrupted campaign");
    assert!(partial.interrupted);
    assert_eq!(partial.executed, 4);
    assert_eq!(partial.stats.trials.len(), 4, "partial stats cover 4 seeds");
    assert_eq!(
        partial.stats.trials[..],
        baseline.trials[..4],
        "partial aggregates match the uninterrupted prefix"
    );

    let resumed = run_campaign(
        &figure3(),
        &config(),
        &SEEDS,
        &options(Some(journal.0.clone()), true),
        || false,
        CatBatch::new,
    )
    .expect("resume after interrupt");
    assert!(!resumed.interrupted);
    assert_eq!(resumed.replayed, 4);
    assert_eq!(resumed.executed, 2);
    assert_eq!(resumed.stats, baseline);
}

#[test]
fn resume_rejects_a_journal_for_a_different_scenario() {
    let journal = TempFile(temp_path("mismatch"));
    run_campaign(
        &figure3(),
        &config(),
        &SEEDS,
        &options(Some(journal.0.clone()), false),
        || false,
        CatBatch::new,
    )
    .expect("journaled campaign");

    // Same journal, different fault config: must refuse, not mix.
    let err = run_campaign(
        &figure3(),
        &FaultConfig::fail_stop(900, 5),
        &SEEDS,
        &options(Some(journal.0.clone()), true),
        || false,
        CatBatch::new,
    )
    .expect_err("fingerprint mismatch must be rejected");
    assert!(matches!(
        err,
        CampaignError::Journal(JournalError::FingerprintMismatch { .. })
    ));
}

#[test]
fn resume_into_a_missing_journal_starts_fresh() {
    let baseline = uninterrupted();
    let journal = TempFile(temp_path("fresh"));
    let outcome = run_campaign(
        &figure3(),
        &config(),
        &SEEDS,
        &options(Some(journal.0.clone()), true),
        || false,
        CatBatch::new,
    )
    .expect("resume with no journal yet");
    assert_eq!(outcome.executed, SEEDS.len());
    assert_eq!(outcome.replayed, 0);
    assert_eq!(outcome.stats, baseline);
    assert!(journal.0.exists(), "the journal is created for next time");
}
