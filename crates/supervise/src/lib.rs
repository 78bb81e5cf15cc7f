//! # rigid-supervise — crash-safe campaign orchestration
//!
//! The paper's hardest experiments (the adaptive `Z^Alg_P(K)` gadget of
//! Section 6, large seeded fault sweeps) run thousands of trials; this
//! crate makes a campaign survive anything a trial can throw at it:
//!
//! * [`Supervisor`] — runs each trial in an isolated worker with
//!   `catch_unwind` panic capture, a per-trial wall-clock watchdog,
//!   bounded retries with deterministic exponential backoff, and
//!   quarantine of poison `(seed, scenario)` pairs. Every failure mode
//!   becomes a typed [`TrialError`](rigid_faults::TrialError) instead
//!   of process death. One supervisor serves many threads: its
//!   quarantine sits behind a lock, so a parallel campaign's workers,
//!   or the daemon's, share one.
//! * [`journal`] — the workspace's one append-only JSONL journal
//!   writer and reader, with per-record fsync or group commit, tolerant
//!   of a torn trailing line after a crash. It carries all four
//!   schemas: `catbatch-journal/v1` (campaigns and hunts), its `/v2`
//!   shard header, `catbatch-serve-journal/v1` (the daemon) and
//!   `catbatch-bench-journal/v1` (the bench).
//! * [`run_seeds`] — the one seed loop of fault campaigns and E21's
//!   worst-case hunt: walks the seeds in order, polls the stop
//!   condition once per seed, replays journaled and duplicate seeds
//!   byte-for-byte (the seed's record *is* the result), and runs only
//!   what is missing, inline or on worker threads, journaling in seed
//!   order either way. [`run_campaign`] runs a fault campaign through
//!   it.
//! * [`shard`] — the deterministic planner behind `--shard i/N`: each
//!   process runs one balanced contiguous slice of the deduplicated
//!   seed space and writes its own journal shard.
//! * [`merge`] — fingerprint-validated shard merge: proves a set of
//!   shard journals belongs together and reconstitutes the
//!   single-process v1 journal byte-for-byte.
//! * [`interrupt`] — SIGINT/SIGTERM → an atomic flag the seed loop
//!   polls once per seed, so `^C` flushes the journal and reports
//!   partial stats instead of killing the process mid-write.
//!
//! See `docs/resilience.md` for the journal schema, resume semantics,
//! and the sharded-campaign workflow.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod interrupt;
pub mod journal;
pub mod merge;
pub mod shard;
pub mod supervisor;

pub use campaign::{
    campaign_fingerprint, run_campaign, run_seeds, CampaignError, CampaignOptions, CampaignOutcome,
    SeedRun,
};
pub use interrupt::InterruptToken;
pub use journal::{
    read_journal, JournalContents, JournalError, JournalHeader, JournalWriter, ShardInfo,
    JOURNAL_SCHEMA, SHARD_SCHEMA,
};
pub use merge::{merge_shards, MergeError, MergeReport};
pub use shard::ShardSpec;
pub use supervisor::{Supervisor, SupervisorPolicy};
