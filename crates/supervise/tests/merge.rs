//! Shard-merge integration tests: shard journals written by real
//! campaigns merge into a journal byte-identical to the single-process
//! run, and every way a shard set can be inconsistent is rejected with
//! its specific typed error — without leaving an output file behind.

use catbatch::CatBatch;
use rigid_dag::paper::figure3;
use rigid_faults::FaultConfig;
use rigid_sim::RunBudget;
use rigid_supervise::{merge_shards, run_campaign, CampaignOptions, MergeError, ShardSpec};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const SEEDS: [u64; 7] = [11, 22, 33, 44, 55, 66, 77];

fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!(
        "rigid-merge-{}-{}-{tag}.jsonl",
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

fn options(journal: PathBuf, shard: Option<ShardSpec>) -> CampaignOptions {
    CampaignOptions {
        journal: Some(journal),
        resume: false,
        budget: RunBudget::UNLIMITED,
        shard,
        ..CampaignOptions::default()
    }
}

fn spec(index: usize, count: usize) -> ShardSpec {
    ShardSpec::parse(&format!("{index}/{count}")).expect("valid spec")
}

/// Runs one shard of the standard campaign into `path`.
fn run_shard(path: &std::path::Path, shard: ShardSpec, seeds: &[u64], config: &FaultConfig) {
    run_campaign(
        &figure3(),
        config,
        seeds,
        &options(path.to_path_buf(), Some(shard)),
        || false,
        CatBatch::new,
    )
    .expect("shard campaign");
}

/// Writes all `count` shards of the standard campaign, returning the
/// guard-wrapped paths in shard order.
fn run_all_shards(count: usize, tag: &str) -> Vec<TempFile> {
    (1..=count)
        .map(|i| {
            let f = TempFile(temp_path(&format!("{tag}-{i}")));
            run_shard(&f.0, spec(i, count), &SEEDS, &config());
            f
        })
        .collect()
}

fn paths(files: &[TempFile]) -> Vec<PathBuf> {
    files.iter().map(|f| f.0.clone()).collect()
}

#[test]
fn merged_journal_is_byte_identical_to_single_process_run() {
    let canon = TempFile(temp_path("canon"));
    let serial = run_campaign(
        &figure3(),
        &config(),
        &SEEDS,
        &options(canon.0.clone(), None),
        || false,
        CatBatch::new,
    )
    .expect("serial campaign");

    let shards = run_all_shards(3, "ok");
    let out = TempFile(temp_path("merged"));
    let report = merge_shards(&paths(&shards), &out.0).expect("merge");
    assert_eq!(report.shards, 3);
    assert_eq!(report.trials, SEEDS.len());
    assert!(report.torn_tails.is_empty());

    assert_eq!(
        fs::read(&canon.0).expect("canon bytes"),
        fs::read(&out.0).expect("merged bytes"),
        "merged journal must equal the single-process journal byte-for-byte"
    );

    // The merged journal replays like the serial one: nothing executes,
    // aggregates come out identical.
    let replayed = run_campaign(
        &figure3(),
        &config(),
        &SEEDS,
        &CampaignOptions {
            journal: Some(out.0.clone()),
            resume: true,
            budget: RunBudget::UNLIMITED,
            ..CampaignOptions::default()
        },
        || false,
        CatBatch::new,
    )
    .expect("replay merged journal");
    assert_eq!(replayed.executed, 0);
    assert_eq!(replayed.replayed, SEEDS.len());
    assert_eq!(replayed.stats, serial.stats);
}

#[test]
fn merge_accepts_inputs_in_any_order() {
    let shards = run_all_shards(3, "order");
    let mut shuffled = paths(&shards);
    shuffled.swap(0, 2);
    let out = TempFile(temp_path("order-merged"));
    let report = merge_shards(&shuffled, &out.0).expect("merge out of order");
    assert_eq!(report.trials, SEEDS.len());

    let canonical = run_all_shards(3, "order-ref");
    let out2 = TempFile(temp_path("order-ref-merged"));
    merge_shards(&paths(&canonical), &out2.0).expect("merge in order");
    assert_eq!(
        fs::read(&out.0).unwrap(),
        fs::read(&out2.0).unwrap(),
        "input order must not change the merged bytes"
    );
}

#[test]
fn merge_rejects_empty_input_set() {
    let out = temp_path("empty-merged");
    assert_eq!(merge_shards(&[], &out), Err(MergeError::NoInputs));
    assert!(!out.exists());
}

#[test]
fn merge_rejects_a_plain_unsharded_journal() {
    let plain = TempFile(temp_path("plain"));
    run_campaign(
        &figure3(),
        &config(),
        &SEEDS,
        &options(plain.0.clone(), None),
        || false,
        CatBatch::new,
    )
    .expect("plain campaign");
    let out = temp_path("plain-merged");
    let err = merge_shards(std::slice::from_ref(&plain.0), &out).expect_err("plain journal");
    assert!(matches!(err, MergeError::NotSharded { .. }), "{err}");
    assert!(
        !out.exists(),
        "a rejected merge must not leave an output file"
    );
}

#[test]
fn merge_rejects_shards_of_different_scenarios() {
    let a = TempFile(temp_path("fp-a"));
    run_shard(&a.0, spec(1, 2), &SEEDS, &config());
    let b = TempFile(temp_path("fp-b"));
    run_shard(&b.0, spec(2, 2), &SEEDS, &FaultConfig::fail_stop(900, 5));
    let out = temp_path("fp-merged");
    let err = merge_shards(&[a.0.clone(), b.0.clone()], &out).expect_err("fingerprints differ");
    assert!(
        matches!(err, MergeError::FingerprintMismatch { .. }),
        "{err}"
    );
    assert!(!out.exists());
}

#[test]
fn merge_rejects_a_duplicated_shard_index() {
    let a = TempFile(temp_path("dup-a"));
    run_shard(&a.0, spec(1, 2), &SEEDS, &config());
    let b = TempFile(temp_path("dup-b"));
    run_shard(&b.0, spec(1, 2), &SEEDS, &config());
    let out = temp_path("dup-merged");
    let err = merge_shards(&[a.0.clone(), b.0.clone()], &out).expect_err("same index twice");
    assert!(
        matches!(err, MergeError::DuplicateShardIndex { index: 1, .. }),
        "{err}"
    );
    assert!(!out.exists());
}

#[test]
fn merge_rejects_mixed_shard_counts() {
    let a = TempFile(temp_path("count-a"));
    run_shard(&a.0, spec(1, 2), &SEEDS, &config());
    let b = TempFile(temp_path("count-b"));
    run_shard(&b.0, spec(2, 3), &SEEDS, &config());
    let out = temp_path("count-merged");
    let err = merge_shards(&[a.0.clone(), b.0.clone()], &out).expect_err("mixed plans");
    assert!(
        matches!(
            err,
            MergeError::ShardCountMismatch {
                expected: 2,
                found: 3,
                ..
            }
        ),
        "{err}"
    );
    assert!(!out.exists());
}

#[test]
fn merge_rejects_an_incomplete_shard_set() {
    let shards = run_all_shards(3, "missing");
    let subset = vec![shards[0].0.clone(), shards[2].0.clone()];
    let out = temp_path("missing-merged");
    let err = merge_shards(&subset, &out).expect_err("shard 2 absent");
    match err {
        MergeError::MissingShards { missing, count } => {
            assert_eq!(missing, vec![2]);
            assert_eq!(count, 3);
        }
        other => panic!("expected MissingShards, got {other}"),
    }
    assert!(!out.exists());
}

#[test]
fn merge_rejects_overlapping_seed_slices() {
    // Two "shards" planned over *different* seed lists that share seed
    // 11: each header is self-consistent, but the set is not disjoint.
    let a = TempFile(temp_path("overlap-a"));
    run_shard(&a.0, spec(1, 2), &[11, 22, 33, 44], &config());
    let b = TempFile(temp_path("overlap-b"));
    run_shard(&b.0, spec(2, 2), &[55, 66, 11, 77], &config());
    let out = temp_path("overlap-merged");
    let err = merge_shards(&[a.0.clone(), b.0.clone()], &out).expect_err("seed 11 twice");
    assert!(
        matches!(
            err,
            MergeError::SeedOverlap {
                seed: 11,
                first: 1,
                second: 2
            }
        ),
        "{err}"
    );
    assert!(!out.exists());
}

#[test]
fn merge_rejects_a_killed_shard_and_names_the_resume_command() {
    let a = TempFile(temp_path("killed-a"));
    run_shard(&a.0, spec(1, 2), &SEEDS, &config());
    // Shard 2 is stopped after one trial, as a kill between trials
    // would leave it.
    let b = TempFile(temp_path("killed-b"));
    let polls = AtomicUsize::new(0);
    let partial = run_campaign(
        &figure3(),
        &config(),
        &SEEDS,
        &options(b.0.clone(), Some(spec(2, 2))),
        || polls.fetch_add(1, Ordering::SeqCst) >= 1,
        CatBatch::new,
    )
    .expect("interrupted shard");
    assert!(partial.interrupted);

    let out = temp_path("killed-merged");
    let err = merge_shards(&[a.0.clone(), b.0.clone()], &out).expect_err("shard 2 incomplete");
    match &err {
        MergeError::ShardIncomplete {
            index,
            count,
            recorded,
            expected,
            ..
        } => {
            assert_eq!(*index, 2);
            assert_eq!(*count, 2);
            assert!(recorded < expected, "{recorded} vs {expected}");
        }
        other => panic!("expected ShardIncomplete, got {other}"),
    }
    // The error names the exact command that repairs the shard.
    let text = err.to_string();
    assert!(text.contains("--shard 2/2"), "{text}");
    assert!(text.contains("--resume"), "{text}");
    assert!(!out.exists());

    // Resume the killed shard, then the merge goes through.
    run_campaign(
        &figure3(),
        &config(),
        &SEEDS,
        &CampaignOptions {
            journal: Some(b.0.clone()),
            resume: true,
            budget: RunBudget::UNLIMITED,
            shard: Some(spec(2, 2)),
            ..CampaignOptions::default()
        },
        || false,
        CatBatch::new,
    )
    .expect("resume killed shard");
    let out = TempFile(temp_path("repaired-merged"));
    let report = merge_shards(&[a.0.clone(), b.0.clone()], &out.0).expect("merge after resume");
    assert_eq!(report.trials, SEEDS.len());
}

#[test]
fn merge_tolerates_and_reports_a_torn_shard_tail() {
    // A torn trailing *duplicate* of the final record: the shard is
    // still complete after truncation, so the merge succeeds and the
    // damage is reported, never silently dropped.
    let shards = run_all_shards(2, "torn");
    let text = fs::read_to_string(&shards[1].0).expect("shard 2 text");
    let last = text.lines().last().expect("has records").to_string();
    let torn = format!("{text}{}", &last[..last.len() / 2]);
    fs::write(&shards[1].0, torn).expect("tear shard 2");

    let out = TempFile(temp_path("torn-merged"));
    let report = merge_shards(&paths(&shards), &out.0).expect("merge over torn tail");
    assert_eq!(report.torn_tails, vec![2], "the torn shard is reported");
    assert_eq!(report.trials, SEEDS.len());

    // The merged bytes still match an undamaged merge.
    let clean = run_all_shards(2, "torn-ref");
    let out2 = TempFile(temp_path("torn-ref-merged"));
    merge_shards(&paths(&clean), &out2.0).expect("clean merge");
    assert_eq!(fs::read(&out.0).unwrap(), fs::read(&out2.0).unwrap());
}

#[test]
fn shard_resume_rejects_a_journal_from_a_different_shard() {
    let a = TempFile(temp_path("cross-a"));
    run_shard(&a.0, spec(1, 2), &SEEDS, &config());
    // Resuming shard 2 against shard 1's journal must refuse.
    let err = run_campaign(
        &figure3(),
        &config(),
        &SEEDS,
        &CampaignOptions {
            journal: Some(a.0.clone()),
            resume: true,
            budget: RunBudget::UNLIMITED,
            shard: Some(spec(2, 2)),
            ..CampaignOptions::default()
        },
        || false,
        CatBatch::new,
    )
    .expect_err("wrong shard must be rejected");
    let text = err.to_string();
    assert!(text.contains("shard"), "{text}");
}
