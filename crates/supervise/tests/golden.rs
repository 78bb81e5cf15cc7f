//! Golden journals: files written by an earlier build of the workspace,
//! checked in under `tests/fixtures/`, must keep resuming, merging and
//! round-tripping byte for byte — the on-disk format is frozen.
//!
//! The fixtures are the journals of
//! `catbatch faults assets/figure3.rigid --seed 42 --trials 6 --fail 300
//! --retries 3 --journal PATH`: `campaign-v1.jsonl` from a plain run,
//! and the `catbatch-journal/v2` pair from the same campaign run as
//! `--shard 1/2` and `--shard 2/2`.

use catbatch::CatBatch;
use rigid_faults::FaultConfig;
use rigid_sim::RunBudget;
use rigid_supervise::journal::resume_or_create;
use rigid_supervise::{
    merge_shards, read_journal, run_campaign, CampaignOptions, JournalError, JournalWriter,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const V1: &str = "campaign-v1.jsonl";
const SHARDS: [&str; 2] = ["campaign-v2-shard1of2.jsonl", "campaign-v2-shard2of2.jsonl"];

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// A unique temp path, removed on drop.
struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str) -> Self {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::SeqCst);
        TempFile(std::env::temp_dir().join(format!(
            "rigid-golden-{}-{n}-{tag}.jsonl",
            std::process::id()
        )))
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
    }
}

#[test]
fn resuming_the_v1_fixture_executes_nothing_and_keeps_its_bytes() {
    let text = fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../assets/figure3.rigid"),
    )
    .expect("figure 3 asset");
    let instance = rigid_dag::format::parse(&text).expect("figure 3 parses");
    // `catbatch faults --fail 300 --retries 3`, as the CLI builds it.
    let config = FaultConfig {
        straggle_factor_permille: (1250, 2000),
        ..FaultConfig::fail_stop(300, 3)
    };
    let seeds: Vec<u64> = (42..48).collect();
    let golden = fs::read(fixture(V1)).unwrap();
    for jobs in [1, 4] {
        let copy = TempFile::new("resume");
        fs::write(&copy.0, &golden).unwrap();
        let options = CampaignOptions {
            budget: RunBudget::UNLIMITED,
            journal: Some(copy.0.clone()),
            resume: true,
            jobs,
            ..CampaignOptions::default()
        };
        let outcome = run_campaign(
            &instance,
            &config,
            &seeds,
            &options,
            || false,
            || CatBatch::new().with_retry_budget(3),
        )
        .expect("the golden journal resumes");
        assert_eq!((outcome.executed, outcome.replayed), (0, 6), "jobs={jobs}");
        assert!(!outcome.torn_tail);
        assert_eq!(
            fs::read(&copy.0).unwrap(),
            golden,
            "jobs={jobs}: resume changed the file"
        );
    }
}

#[test]
fn merging_the_v2_fixture_pair_reproduces_the_v1_fixture() {
    let merged = TempFile::new("merged");
    let shards: Vec<PathBuf> = SHARDS.iter().map(|s| fixture(s)).collect();
    let report = merge_shards(&shards, &merged.0).expect("the golden shards merge");
    assert_eq!(report.trials, 6);
    assert!(report.torn_tails.is_empty());
    assert_eq!(fs::read(&merged.0).unwrap(), fs::read(fixture(V1)).unwrap());
}

#[test]
fn rewriting_the_fixtures_through_the_writer_reproduces_them() {
    let v1 = read_journal(&fixture(V1)).expect("v1 fixture reads");
    assert_eq!(v1.shard, None);
    let out = TempFile::new("rewrite-v1");
    let mut w = JournalWriter::create(&out.0, &v1.header).unwrap();
    for trial in &v1.trials {
        w.record(trial).unwrap();
    }
    drop(w);
    assert_eq!(fs::read(&out.0).unwrap(), fs::read(fixture(V1)).unwrap());

    for name in SHARDS {
        let shard = read_journal(&fixture(name)).expect("v2 fixture reads");
        let info = shard
            .shard
            .clone()
            .expect("a v2 header carries shard coordinates");
        let out = TempFile::new("rewrite-v2");
        let mut journal = resume_or_create(
            &out.0,
            false,
            &shard.header.fingerprint,
            Some(&info),
            || Ok::<_, JournalError>(shard.header.clone()),
        )
        .unwrap();
        for trial in &shard.trials {
            journal.writer.record(trial).unwrap();
        }
        drop(journal);
        assert_eq!(
            fs::read(&out.0).unwrap(),
            fs::read(fixture(name)).unwrap(),
            "{name}"
        );
    }
}
