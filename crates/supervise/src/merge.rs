//! Fingerprint-validated merge of shard journals.
//!
//! `merge_shards` takes the journal files written by `--shard i/N`
//! processes, proves they belong together (same scenario fingerprint,
//! same shard count, a full set of distinct indices, each shard
//! complete against the seed slice its header pins, no seed recorded
//! twice), and reconstitutes a **plain v1 journal byte-identical to
//! what a single-process run over the full seed list would have
//! written** — the merged file replays through `--resume` exactly like
//! a serial journal, so aggregates and reports come out byte-identical
//! too.
//!
//! Every rejection is a typed [`MergeError`]; a validation failure
//! never writes (or leaves behind) an output file, so a bad merge can
//! not produce a corrupt aggregate. Torn shard tails are handled the
//! way every journal reader handles them — truncated at the valid
//! prefix and **reported**, never silently dropped: a shard whose tail
//! loss makes it incomplete is a [`MergeError::ShardIncomplete`] naming
//! the resume command that repairs it.
//!
//! Shard files are parsed on one thread each and consumed in shard
//! order through [`rigid_exec::ReorderBuffer`], the same primitive the
//! parallel campaign coordinator uses.

use crate::journal::{
    read_journal, JournalContents, JournalError, JournalHeader, JournalWriter, JOURNAL_SCHEMA,
};
use crate::shard::seeds_fingerprint;
use rigid_exec::{ReorderBuffer, ReorderWait};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// How often the merge coordinator wakes while waiting for an
/// out-of-order parse result.
const MERGE_POLL: Duration = Duration::from_millis(5);

/// Why a set of shard journals could not be merged. Every variant is a
/// validation failure detected **before** the output file is written.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MergeError {
    /// A shard file could not be read or parsed as a journal.
    Journal {
        /// The offending file.
        path: String,
        /// The underlying journal error.
        error: JournalError,
    },
    /// `merge_shards` was called with no input files.
    NoInputs,
    /// An input is a plain (unsharded) v1 journal — there is nothing to
    /// merge it with.
    NotSharded {
        /// The offending file.
        path: String,
    },
    /// Two shards were written for different scenarios.
    FingerprintMismatch {
        /// Fingerprint of the first shard (the reference).
        reference: String,
        /// The disagreeing file.
        path: String,
        /// Its fingerprint.
        found: String,
    },
    /// Shards agree on the fingerprint but not on the scheduler name or
    /// baseline makespan — header damage, not a mergeable set.
    ScenarioMismatch {
        /// The disagreeing file.
        path: String,
        /// What differed.
        message: String,
    },
    /// A shard was planned against a different total shard count.
    ShardCountMismatch {
        /// The disagreeing file.
        path: String,
        /// Shard count of the first input.
        expected: usize,
        /// Shard count found in this file.
        found: usize,
    },
    /// Two inputs carry the same shard index.
    DuplicateShardIndex {
        /// The duplicated 1-based index.
        index: usize,
        /// The first file claiming it.
        first: String,
        /// The second file claiming it.
        second: String,
    },
    /// Not every shard of the plan is present.
    MissingShards {
        /// The absent 1-based indices.
        missing: Vec<usize>,
        /// The plan's shard count.
        count: usize,
    },
    /// The same seed is recorded by two shards — the inputs were not
    /// produced by one consistent plan.
    SeedOverlap {
        /// The seed recorded twice.
        seed: u64,
        /// 1-based index of the shard that recorded it first.
        first: usize,
        /// 1-based index of the shard that recorded it again.
        second: usize,
    },
    /// A shard's records do not match the seed slice its header pins
    /// (wrong seeds, wrong order, or extra records).
    SeedSetMismatch {
        /// The offending file.
        path: String,
        /// Its 1-based shard index.
        index: usize,
    },
    /// A shard holds fewer records than its header pins — it was killed
    /// before finishing and must be resumed before merging.
    ShardIncomplete {
        /// The offending file.
        path: String,
        /// Its 1-based shard index.
        index: usize,
        /// The plan's shard count.
        count: usize,
        /// Records actually present.
        recorded: usize,
        /// Records the header pins.
        expected: usize,
        /// Whether a torn trailing record was discarded on read.
        torn_tail: bool,
    },
    /// The merged output could not be written (the partial file is
    /// removed).
    Write {
        /// The output path.
        path: String,
        /// The underlying journal error.
        message: String,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Journal { path, error } => write!(f, "shard {path}: {error}"),
            MergeError::NoInputs => write!(f, "merge needs at least one shard journal"),
            MergeError::NotSharded { path } => write!(
                f,
                "{path} is a plain (unsharded) journal — only `--shard i/N` journals merge"
            ),
            MergeError::FingerprintMismatch {
                reference,
                path,
                found,
            } => write!(
                f,
                "{path} was written for scenario {found} but the first shard is scenario \
                 {reference} — shards of different campaigns cannot merge"
            ),
            MergeError::ScenarioMismatch { path, message } => {
                write!(f, "{path} disagrees with the first shard: {message}")
            }
            MergeError::ShardCountMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "{path} was planned as one of {found} shard(s) but the first input says \
                 {expected} — mixed plans cannot merge"
            ),
            MergeError::DuplicateShardIndex {
                index,
                first,
                second,
            } => write!(f, "shard index {index} appears twice: {first} and {second}"),
            MergeError::MissingShards { missing, count } => {
                let list: Vec<String> = missing.iter().map(|i| format!("{i}/{count}")).collect();
                write!(
                    f,
                    "missing shard(s) {} — merge needs all {count}",
                    list.join(", ")
                )
            }
            MergeError::SeedOverlap {
                seed,
                first,
                second,
            } => write!(
                f,
                "seed {seed} is recorded by both shard {first} and shard {second} — \
                 the inputs were not produced by one consistent plan"
            ),
            MergeError::SeedSetMismatch { path, index } => write!(
                f,
                "{path} (shard {index}) records different seeds than its header pins — \
                 the file does not match its own plan"
            ),
            MergeError::ShardIncomplete {
                path,
                index,
                count,
                recorded,
                expected,
                torn_tail,
            } => write!(
                f,
                "{path} holds {recorded} of {expected} record(s){} — resume it with \
                 `--shard {index}/{count} --journal {path} --resume`, then merge again",
                if *torn_tail {
                    " (plus a torn trailing record, discarded)"
                } else {
                    ""
                }
            ),
            MergeError::Write { path, message } => {
                write!(f, "cannot write merged journal {path}: {message}")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// What a successful merge produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergeReport {
    /// The reconstructed plain v1 header written to the output.
    pub header: JournalHeader,
    /// How many shard files merged.
    pub shards: usize,
    /// Total trial records in the merged journal.
    pub trials: usize,
    /// Shards whose journals carried torn trailing damage (discarded on
    /// read and reported here — the shards were still complete).
    pub torn_tails: Vec<usize>,
}

fn display(path: &Path) -> String {
    path.display().to_string()
}

/// Parses every shard file on its own thread, yielding results in input
/// order through a [`ReorderBuffer`].
fn parse_all(inputs: &[PathBuf]) -> Vec<Result<JournalContents, MergeError>> {
    let (tx, rx) = mpsc::channel();
    let mut parsed = Vec::with_capacity(inputs.len());
    thread::scope(|scope| {
        for (i, path) in inputs.iter().enumerate() {
            let tx = tx.clone();
            scope.spawn(move || {
                let result = read_journal(path).map_err(|error| MergeError::Journal {
                    path: display(path),
                    error,
                });
                let _ = tx.send((i, result));
            });
        }
        drop(tx);
        let mut reorder = ReorderBuffer::new(rx);
        for (i, path) in inputs.iter().enumerate() {
            let result = loop {
                match reorder.recv_index(i, MERGE_POLL) {
                    Ok(r) => break r,
                    Err(ReorderWait::Tick) => continue,
                    Err(ReorderWait::Disconnected) => {
                        break Err(MergeError::Journal {
                            path: display(path),
                            error: JournalError::Io {
                                path: display(path),
                                message: "shard parser thread died".to_string(),
                            },
                        })
                    }
                }
            };
            parsed.push(result);
        }
    });
    parsed
}

/// Validates a set of shard journals and writes the merged plain v1
/// journal to `out`. See the module docs for the validation rules; on
/// any [`MergeError`] the output file is not left behind.
pub fn merge_shards(inputs: &[PathBuf], out: &Path) -> Result<MergeReport, MergeError> {
    if inputs.is_empty() {
        return Err(MergeError::NoInputs);
    }
    let mut shards: Vec<(usize, JournalContents)> = Vec::with_capacity(inputs.len());
    for (i, result) in parse_all(inputs).into_iter().enumerate() {
        shards.push((i, result?));
    }

    // Cross-shard header validation, against the first input.
    let reference = shards[0]
        .1
        .shard
        .clone()
        .ok_or_else(|| MergeError::NotSharded {
            path: display(&inputs[0]),
        })?;
    let ref_header = shards[0].1.header.clone();
    let mut by_index: BTreeMap<usize, usize> = BTreeMap::new();
    for &(i, ref contents) in &shards {
        let path = display(&inputs[i]);
        let info = contents
            .shard
            .as_ref()
            .ok_or_else(|| MergeError::NotSharded { path: path.clone() })?;
        if contents.header.fingerprint != ref_header.fingerprint {
            return Err(MergeError::FingerprintMismatch {
                reference: ref_header.fingerprint.clone(),
                path,
                found: contents.header.fingerprint.clone(),
            });
        }
        if contents.header.scheduler != ref_header.scheduler {
            return Err(MergeError::ScenarioMismatch {
                path,
                message: format!(
                    "scheduler {:?} vs {:?}",
                    contents.header.scheduler, ref_header.scheduler
                ),
            });
        }
        if contents.header.fault_free_makespan != ref_header.fault_free_makespan {
            return Err(MergeError::ScenarioMismatch {
                path,
                message: format!(
                    "fault-free baseline {} vs {}",
                    contents.header.fault_free_makespan, ref_header.fault_free_makespan
                ),
            });
        }
        if info.count != reference.count {
            return Err(MergeError::ShardCountMismatch {
                path,
                expected: reference.count,
                found: info.count,
            });
        }
        if let Some(&prev) = by_index.get(&info.index) {
            return Err(MergeError::DuplicateShardIndex {
                index: info.index,
                first: display(&inputs[prev]),
                second: path,
            });
        }
        by_index.insert(info.index, i);
    }
    let missing: Vec<usize> = (1..=reference.count)
        .filter(|i| !by_index.contains_key(i))
        .collect();
    if !missing.is_empty() {
        return Err(MergeError::MissingShards {
            missing,
            count: reference.count,
        });
    }

    // Per-shard completeness (against the seed slice the header pins)
    // and cross-shard seed disjointness.
    let mut seed_owner: BTreeMap<u64, usize> = BTreeMap::new();
    let mut torn_tails = Vec::new();
    for (&index, &i) in &by_index {
        let contents = &shards[i].1;
        let info = contents.shard.as_ref().expect("validated above");
        let path = display(&inputs[i]);
        if contents.trials.len() < info.seed_count {
            return Err(MergeError::ShardIncomplete {
                path,
                index,
                count: info.count,
                recorded: contents.trials.len(),
                expected: info.seed_count,
                torn_tail: contents.torn_tail,
            });
        }
        let recorded: Vec<u64> = contents.trials.iter().map(|t| t.seed).collect();
        if seeds_fingerprint(&recorded) != info.seeds_fp {
            return Err(MergeError::SeedSetMismatch { path, index });
        }
        for seed in recorded {
            if let Some(&owner) = seed_owner.get(&seed) {
                return Err(MergeError::SeedOverlap {
                    seed,
                    first: owner,
                    second: index,
                });
            }
            seed_owner.insert(seed, index);
        }
        if contents.torn_tail {
            torn_tails.push(index);
        }
    }

    // All validation passed: reconstitute the plain v1 journal, shard
    // records concatenated in shard-index order — exactly the byte
    // sequence a single-process run writes.
    let header = JournalHeader {
        schema: JOURNAL_SCHEMA.to_string(),
        fingerprint: ref_header.fingerprint,
        scheduler: ref_header.scheduler,
        fault_free_makespan: ref_header.fault_free_makespan,
    };
    let write = || -> Result<usize, JournalError> {
        let mut w = JournalWriter::create(out, &header)?;
        let mut trials = 0;
        for &i in by_index.values() {
            for t in &shards[i].1.trials {
                w.record_buffered(t)?;
                trials += 1;
            }
        }
        w.sync()?;
        Ok(trials)
    };
    match write() {
        Ok(trials) => Ok(MergeReport {
            header,
            shards: shards.len(),
            trials,
            torn_tails,
        }),
        Err(e) => {
            let _ = std::fs::remove_file(out);
            Err(MergeError::Write {
                path: display(out),
                message: e.to_string(),
            })
        }
    }
}
