//! The one journal implementation of the workspace: append-only JSONL
//! files that survive a crash and resume where they stopped.
//!
//! Four schemas share it: fault campaigns and E21 hunts
//! (`catbatch-journal/v1`, and `catbatch-journal/v2` for shard files),
//! the scheduling daemon (`catbatch-serve-journal/v1`) and the bench
//! (`catbatch-bench-journal/v1`). Each user brings only its header
//! type, its record type and its checks; this module creates, reads
//! back, appends to, group-commits and fsyncs every one of them.
//!
//! A journal is one header line, then one record per line. There are
//! two durability windows:
//!
//! * [`JournalWriter::record`] fsyncs each record before returning —
//!   serial campaigns, hunts and the bench. After a crash the journal
//!   holds every record that was written.
//! * [`GroupCommit`] writes each record to the file as it arrives and
//!   fsyncs once per [`GROUP_COMMIT_RECORDS`] records or
//!   [`GROUP_COMMIT_DEADLINE`], whichever comes first — parallel
//!   campaigns and the daemon. A process kill loses nothing written; a
//!   power loss costs at most the unsynced group, which resume
//!   re-executes.
//!
//! [`read`] tolerates exactly the damage a kill can cause (a final line
//! without its newline, or a final line that does not parse) and
//! rejects everything else as a typed [`JournalError`]. Appends never
//! leave damage behind: reopening a torn journal truncates the torn
//! tail first, and a failed append truncates its partial bytes, so a
//! fragment can never become a garbled line in the middle of the file.
//!
//! The campaign schema lives here too. Records are [`TrialStats`]
//! serialized verbatim, so replaying a record *is* re-obtaining the
//! trial's result, which is what makes resumed aggregates
//! byte-identical. The header pins the schema version and a stable
//! fingerprint of `(instance, fault config, scheduler, budget)`:
//! resuming against a journal written for a different scenario is a
//! typed error, not a silently mixed data set.

use rigid_faults::TrialStats;
use rigid_time::Time;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The journal schema this crate writes and reads.
pub const JOURNAL_SCHEMA: &str = "catbatch-journal/v1";

/// The schema of a **shard** journal: a v1 header plus the shard
/// coordinates (`shard_index`/`shard_count`/seed range) pinned so
/// `merge` can validate that a set of shard files belongs together.
/// Plain (unsharded) journals keep the v1 schema byte-for-byte.
pub const SHARD_SCHEMA: &str = "catbatch-journal/v2";

/// Group commit: fsync once this many records are pending…
pub const GROUP_COMMIT_RECORDS: usize = 64;

/// …or once the oldest pending record has waited this long, whichever
/// comes first.
pub const GROUP_COMMIT_DEADLINE: Duration = Duration::from_millis(25);

/// Why a journal could not be written or read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalError {
    /// An I/O failure (path and OS message).
    Io {
        /// The offending path.
        path: String,
        /// The OS error message.
        message: String,
    },
    /// The file has no header line.
    MissingHeader,
    /// The header names a schema this crate does not speak.
    SchemaMismatch {
        /// The schema string found in the file.
        found: String,
    },
    /// The journal was written for a different scenario.
    FingerprintMismatch {
        /// Fingerprint in the journal header.
        journal: String,
        /// Fingerprint of the campaign trying to resume.
        campaign: String,
    },
    /// A non-final line failed to parse — the file is damaged beyond
    /// the torn-tail tolerance.
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// The parse error.
        message: String,
    },
    /// The journal's shard header does not match the shard this
    /// campaign was asked to run (or one side is sharded and the other
    /// is not).
    ShardMismatch {
        /// Shard coordinates pinned in the journal ("unsharded" if none).
        journal: String,
        /// Shard coordinates of the resuming campaign.
        campaign: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, message } => write!(f, "journal {path}: {message}"),
            JournalError::MissingHeader => write!(f, "journal has no header line"),
            JournalError::SchemaMismatch { found } => write!(
                f,
                "journal schema {found:?} is neither {JOURNAL_SCHEMA:?} nor {SHARD_SCHEMA:?} — \
                 written by an incompatible version"
            ),
            JournalError::FingerprintMismatch { journal, campaign } => write!(
                f,
                "journal was written for scenario {journal} but this campaign is {campaign} \
                 (instance, fault config, scheduler, or budget differ)"
            ),
            JournalError::Corrupt { line, message } => {
                write!(f, "journal line {line} is corrupt: {message}")
            }
            JournalError::ShardMismatch { journal, campaign } => write!(
                f,
                "journal was written as {journal} but this campaign runs {campaign} — \
                 each shard must resume its own journal file"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

fn io_err(path: &Path, e: impl fmt::Display) -> JournalError {
    JournalError::Io { path: path.display().to_string(), message: e.to_string() }
}

/// Appends records to a journal of any schema.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    path: PathBuf,
    /// File length after the last complete record: where a torn tail or
    /// a failed append is cut back to.
    len: u64,
}

impl JournalWriter {
    /// Creates (truncating) a fresh journal, writes and fsyncs its header
    /// line, then fsyncs the parent directory, so the file's directory
    /// entry survives a crash too.
    pub fn create<H: Serialize>(path: &Path, header: &H) -> Result<Self, JournalError> {
        let file = File::create(path).map_err(|e| io_err(path, e))?;
        let mut w = JournalWriter { file, path: path.to_path_buf(), len: 0 };
        w.record(header)?;
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        File::open(dir).and_then(|d| d.sync_all()).map_err(|e| io_err(dir, e))?;
        Ok(w)
    }

    /// Opens a journal that [`read`] (or [`read_journal`]) validated for
    /// appending, first truncating the torn trailing damage the read
    /// found — so the next record starts on its own line instead of
    /// merging into the damaged bytes.
    pub fn append_validated(
        path: &Path,
        read: impl Into<ValidPrefix>,
    ) -> Result<Self, JournalError> {
        let ValidPrefix { torn_tail, valid_len } = read.into();
        let file = OpenOptions::new().append(true).open(path).map_err(|e| io_err(path, e))?;
        let len = if torn_tail {
            valid_len
        } else {
            file.metadata().map_err(|e| io_err(path, e))?.len()
        };
        let mut w = JournalWriter { file, path: path.to_path_buf(), len };
        if torn_tail {
            w.truncate().map_err(|e| io_err(path, e))?;
        }
        Ok(w)
    }

    /// Appends one record and fsyncs it before returning — after this
    /// call the record survives a crash.
    pub fn record<R: Serialize>(&mut self, record: &R) -> Result<(), JournalError> {
        self.record_buffered(record)?;
        self.sync()
    }

    /// Appends one record **without** fsyncing: the group-commit half of
    /// [`record`](Self::record). The bytes reach the kernel (surviving a
    /// process kill) but not necessarily the disk; callers batch several
    /// records and then [`sync`](Self::sync) once, turning N fsync
    /// stalls into one. A power loss before the sync costs at most the
    /// unsynced suffix, which resume re-executes — and a torn write
    /// inside that suffix is exactly the trailing damage [`read`]
    /// tolerates.
    ///
    /// A failed write (a full disk, say) truncates whatever part of the
    /// line reached the file before the error is returned, so the
    /// journal stays readable and later appends stay on their own
    /// lines.
    pub fn record_buffered<R: Serialize>(&mut self, record: &R) -> Result<(), JournalError> {
        let mut line = serde_json::to_string(record).map_err(|e| io_err(&self.path, e))?;
        line.push('\n');
        if let Err(e) = self.file.write_all(line.as_bytes()) {
            // Best effort: if even the truncate fails, the fragment is
            // still the final line, which `read` tolerates.
            let _ = self.truncate();
            return Err(io_err(&self.path, e));
        }
        self.len += line.len() as u64;
        Ok(())
    }

    /// Fsyncs everything appended so far (the commit of a group-commit
    /// batch). Cheap when nothing is pending.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.file.sync_data().map_err(|e| io_err(&self.path, e))
    }

    /// Cuts the file back to its last complete record and makes the cut
    /// durable.
    fn truncate(&mut self) -> std::io::Result<()> {
        self.file.set_len(self.len)?;
        // A created journal is not in append mode: move its cursor back
        // too, or the next write would leave a hole.
        self.file.seek(SeekFrom::Start(self.len))?;
        self.file.sync_data()
    }
}

/// Deadline-or-count group commit over a [`JournalWriter`]: each record
/// is written as it arrives, and the records are fsynced together once
/// [`GROUP_COMMIT_RECORDS`] are pending or the oldest has waited
/// [`GROUP_COMMIT_DEADLINE`] — one disk stall per group instead of one
/// per record. Owners call [`flush`](GroupCommit::flush) on interrupt
/// and at the end, so a graceful stop loses nothing.
#[derive(Debug)]
pub struct GroupCommit<'a> {
    writer: &'a mut JournalWriter,
    pending: usize,
    oldest: Option<Instant>,
}

impl<'a> GroupCommit<'a> {
    /// Starts group-committing appends to `writer`.
    pub fn new(writer: &'a mut JournalWriter) -> Self {
        GroupCommit { writer, pending: 0, oldest: None }
    }

    /// Writes one record, committing the group if it is now full.
    pub fn record<R: Serialize>(&mut self, record: &R) -> Result<(), JournalError> {
        self.writer.record_buffered(record)?;
        self.pending += 1;
        self.oldest.get_or_insert_with(Instant::now);
        if self.pending >= GROUP_COMMIT_RECORDS {
            self.flush()?;
        }
        Ok(())
    }

    /// When the oldest pending record is due for its fsync; `None` when
    /// nothing is pending.
    pub fn deadline(&self) -> Option<Instant> {
        self.oldest.map(|t| t + GROUP_COMMIT_DEADLINE)
    }

    /// Commits the group if its deadline has passed.
    pub fn flush_if_due(&mut self) -> Result<(), JournalError> {
        if self.deadline().is_some_and(|due| Instant::now() >= due) {
            self.flush()?;
        }
        Ok(())
    }

    /// Fsyncs every pending record.
    pub fn flush(&mut self) -> Result<(), JournalError> {
        if self.pending > 0 {
            self.writer.sync()?;
        }
        self.pending = 0;
        self.oldest = None;
        Ok(())
    }
}

/// A journal read back by [`read`]: its header, every intact record in
/// file order, and where the intact part ends.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Journal<H, R> {
    /// The header, as the caller's check accepted it.
    pub header: H,
    /// Every record that parsed, in file order.
    pub records: Vec<R>,
    /// Whether trailing crash damage (an unterminated fragment or a
    /// garbled final line) was tolerated and excluded.
    pub torn_tail: bool,
    /// Length in bytes of the valid prefix (header + intact records).
    /// Everything past this offset is crash damage to truncate before
    /// appending.
    pub valid_len: u64,
}

/// Where a journal's intact prefix ends: what
/// [`JournalWriter::append_validated`] needs from a read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ValidPrefix {
    /// Whether crash damage follows the prefix.
    pub torn_tail: bool,
    /// Length of the prefix in bytes.
    pub valid_len: u64,
}

impl<H, R> From<&Journal<H, R>> for ValidPrefix {
    fn from(j: &Journal<H, R>) -> Self {
        ValidPrefix { torn_tail: j.torn_tail, valid_len: j.valid_len }
    }
}

impl From<&JournalContents> for ValidPrefix {
    fn from(j: &JournalContents) -> Self {
        ValidPrefix { torn_tail: j.torn_tail, valid_len: j.valid_len }
    }
}

/// Reads a journal of any schema.
///
/// `header` receives the first non-blank line and accepts or rejects it
/// before any record is parsed, so a file of the wrong schema fails on
/// its header rather than on its first foreign record. Records must
/// each parse as `R`: a record that does not is a tolerated crash
/// artifact **iff** it is the final complete line (a torn write that
/// happened to end in `'\n'`), and [`JournalError::Corrupt`] anywhere
/// earlier. An unterminated trailing fragment is never parsed.
/// `error` words this function's own failures ([`JournalError::Io`],
/// [`JournalError::MissingHeader`], [`JournalError::Corrupt`]) in the
/// caller's error type.
pub fn read<H, R, E>(
    path: &Path,
    header: impl FnOnce(&str) -> Result<H, E>,
    error: impl Fn(JournalError) -> E,
) -> Result<Journal<H, R>, E>
where
    R: Deserialize,
{
    let text = std::fs::read_to_string(path).map_err(|e| error(io_err(path, e)))?;
    // Complete (newline-terminated, non-blank) lines: 1-based line
    // number, trimmed text, and the offset just past the newline.
    let mut offset = 0;
    let mut lines = text.split_inclusive('\n').enumerate().filter_map(|(i, l)| {
        offset += l.len();
        (l.ends_with('\n') && !l.trim().is_empty()).then_some((i + 1, l.trim(), offset))
    });
    let Some((_, header_line, header_end)) = lines.next() else {
        return Err(error(JournalError::MissingHeader));
    };
    let header = header(header_line)?;
    let mut journal = Journal {
        header,
        records: Vec::new(),
        torn_tail: !text.ends_with('\n'),
        valid_len: header_end as u64,
    };
    let mut lines = lines.peekable();
    while let Some((lineno, line, end)) = lines.next() {
        match serde_json::from_str::<R>(line) {
            Ok(record) => {
                journal.records.push(record);
                journal.valid_len = end as u64;
            }
            Err(_) if lines.peek().is_none() => journal.torn_tail = true,
            Err(e) => {
                return Err(error(JournalError::Corrupt { line: lineno, message: e.to_string() }))
            }
        }
    }
    Ok(journal)
}

/// The first line of every campaign journal.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// [`JOURNAL_SCHEMA`] for plain journals, [`SHARD_SCHEMA`] for
    /// shard journals.
    pub schema: String,
    /// Stable hex fingerprint of the campaign scenario (see
    /// [`campaign_fingerprint`](crate::campaign_fingerprint)).
    pub fingerprint: String,
    /// Name of the scheduler under test.
    pub scheduler: String,
    /// Makespan of the fault-free baseline run, stored so a resumed
    /// campaign does not recompute it.
    pub fault_free_makespan: Time,
}

/// The shard coordinates a [`SHARD_SCHEMA`] header pins: which slice of
/// the deduplicated seed space this file covers, out of how many.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardInfo {
    /// 1-based shard index.
    pub index: usize,
    /// Total number of shards in the plan.
    pub count: usize,
    /// First seed assigned to this shard (`0` when the slice is empty).
    pub seed_first: u64,
    /// Last seed assigned to this shard (`0` when the slice is empty).
    pub seed_last: u64,
    /// How many seeds the shard covers.
    pub seed_count: usize,
    /// Stable hex fingerprint of the assigned seed sequence — pins the
    /// exact slice without storing every seed in the header.
    pub seeds_fp: String,
}

impl fmt::Display for ShardInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard {}/{} ({} seed(s), fp {})",
            self.index, self.count, self.seed_count, self.seeds_fp
        )
    }
}

/// The on-disk shape of a [`SHARD_SCHEMA`] header line: every v1 field
/// followed by the shard coordinates, as one flat object. Kept separate
/// from [`JournalHeader`] so plain v1 headers serialize without any
/// shard fields (the vendored serde stub cannot skip `None`s).
#[derive(Serialize, Deserialize)]
struct ShardHeaderLine {
    schema: String,
    fingerprint: String,
    scheduler: String,
    fault_free_makespan: Time,
    shard_index: usize,
    shard_count: usize,
    seed_first: u64,
    seed_last: u64,
    seed_count: usize,
    seeds_fp: String,
}

impl ShardHeaderLine {
    /// The shard header for `header`'s scenario; `header.schema` is
    /// ignored — shard files always get [`SHARD_SCHEMA`].
    fn new(header: &JournalHeader, shard: &ShardInfo) -> Self {
        ShardHeaderLine {
            schema: SHARD_SCHEMA.to_string(),
            fingerprint: header.fingerprint.clone(),
            scheduler: header.scheduler.clone(),
            fault_free_makespan: header.fault_free_makespan,
            shard_index: shard.index,
            shard_count: shard.count,
            seed_first: shard.seed_first,
            seed_last: shard.seed_last,
            seed_count: shard.seed_count,
            seeds_fp: shard.seeds_fp.clone(),
        }
    }
}

/// A parsed campaign journal: the header, every intact trial record in
/// file order, and whether a torn trailing line was discarded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalContents {
    /// The header line.
    pub header: JournalHeader,
    /// Shard coordinates when the header is a [`SHARD_SCHEMA`] one;
    /// `None` for plain v1 journals.
    pub shard: Option<ShardInfo>,
    /// Trial records, in the order they were written (duplicate seeds
    /// possible if a campaign was resumed with overlapping seed lists;
    /// the campaign layer keeps the first).
    pub trials: Vec<TrialStats>,
    /// Whether a torn trailing line (crash artifact) was discarded.
    pub torn_tail: bool,
    /// Length in bytes of the valid prefix (header + intact records).
    /// When `torn_tail` is set, everything past this offset is crash
    /// damage; [`JournalWriter::append_validated`] truncates to it.
    pub valid_len: u64,
}

/// Reads and validates a campaign journal (plain v1 or shard v2).
///
/// Tolerates exactly the damage a kill can cause — a final line without
/// its newline, or a final line that does not parse — and rejects
/// everything else as typed [`JournalError`]s.
pub fn read_journal(path: &Path) -> Result<JournalContents, JournalError> {
    let journal = read(path, campaign_header, |e| e)?;
    let (header, shard) = journal.header;
    Ok(JournalContents {
        header,
        shard,
        trials: journal.records,
        torn_tail: journal.torn_tail,
        valid_len: journal.valid_len,
    })
}

/// Parses a v1 or v2 campaign header line.
fn campaign_header(line: &str) -> Result<(JournalHeader, Option<ShardInfo>), JournalError> {
    let header: JournalHeader =
        serde_json::from_str(line).map_err(|_| JournalError::MissingHeader)?;
    let shard = match header.schema.as_str() {
        s if s == JOURNAL_SCHEMA => None,
        s if s == SHARD_SCHEMA => {
            let line: ShardHeaderLine =
                serde_json::from_str(line).map_err(|e| JournalError::Corrupt {
                    line: 1,
                    message: format!("shard header is incomplete: {e}"),
                })?;
            Some(ShardInfo {
                index: line.shard_index,
                count: line.shard_count,
                seed_first: line.seed_first,
                seed_last: line.seed_last,
                seed_count: line.seed_count,
                seeds_fp: line.seeds_fp,
            })
        }
        _ => return Err(JournalError::SchemaMismatch { found: header.schema }),
    };
    Ok((header, shard))
}

/// A campaign journal opened for appending by [`resume_or_create`].
#[derive(Debug)]
pub struct CampaignJournal {
    /// Appends to the journal.
    pub writer: JournalWriter,
    /// The resumed journal's header, or the one `fresh` built.
    pub header: JournalHeader,
    /// The resumed journal's records by seed; the first record of a
    /// seed wins. Empty for a fresh journal.
    pub replay: BTreeMap<u64, TrialStats>,
    /// Whether torn trailing damage was discarded and truncated.
    pub torn_tail: bool,
}

/// Opens the campaign journal at `path` for appending.
///
/// With `resume` and an existing file, reads it back, checks that it
/// was written for scenario `fingerprint` and for `shard`
/// ([`JournalError::FingerprintMismatch`],
/// [`JournalError::ShardMismatch`]), and appends after its intact
/// records. Otherwise creates it with the header `fresh` builds, which
/// is called only then: with `shard` the file gets a [`SHARD_SCHEMA`]
/// header carrying the shard coordinates, whatever `fresh` put in
/// `schema`.
pub fn resume_or_create<E: From<JournalError>>(
    path: &Path,
    resume: bool,
    fingerprint: &str,
    shard: Option<&ShardInfo>,
    fresh: impl FnOnce() -> Result<JournalHeader, E>,
) -> Result<CampaignJournal, E> {
    if resume && path.exists() {
        let contents = read_journal(path)?;
        if contents.header.fingerprint != fingerprint {
            return Err(JournalError::FingerprintMismatch {
                journal: contents.header.fingerprint,
                campaign: fingerprint.to_string(),
            }
            .into());
        }
        if contents.shard.as_ref() != shard {
            let describe = |s: Option<&ShardInfo>| {
                s.map_or_else(|| "unsharded".to_string(), |i| i.to_string())
            };
            return Err(JournalError::ShardMismatch {
                journal: describe(contents.shard.as_ref()),
                campaign: describe(shard),
            }
            .into());
        }
        let writer = JournalWriter::append_validated(path, &contents)?;
        let mut replay = BTreeMap::new();
        for t in contents.trials {
            replay.entry(t.seed).or_insert(t);
        }
        return Ok(CampaignJournal {
            writer,
            header: contents.header,
            replay,
            torn_tail: contents.torn_tail,
        });
    }
    let header = fresh()?;
    let writer = match shard {
        Some(info) => JournalWriter::create(path, &ShardHeaderLine::new(&header, info)),
        None => JournalWriter::create(path, &header),
    }?;
    Ok(CampaignJournal { writer, header, replay: BTreeMap::new(), torn_tail: false })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rigid_faults::TrialError;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique temp path per call; removed by [`TempFile::drop`].
    pub(crate) struct TempFile(pub PathBuf);

    impl TempFile {
        pub(crate) fn new(tag: &str) -> Self {
            static N: AtomicU64 = AtomicU64::new(0);
            let n = N.fetch_add(1, Ordering::SeqCst);
            let path = std::env::temp_dir().join(format!(
                "catbatch-journal-test-{}-{tag}-{n}.jsonl",
                std::process::id()
            ));
            TempFile(path)
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn header() -> JournalHeader {
        JournalHeader {
            schema: JOURNAL_SCHEMA.to_string(),
            fingerprint: "deadbeefdeadbeef".to_string(),
            scheduler: "catbatch".to_string(),
            fault_free_makespan: Time::from_int(15),
        }
    }

    fn trial(seed: u64) -> TrialStats {
        TrialStats {
            seed,
            outcome: if seed.is_multiple_of(2) {
                Ok(Time::from_int(seed as i64 + 20))
            } else {
                Err(TrialError::Panicked { message: format!("boom {seed}") })
            },
            failures: seed,
            wasted_area: Time::from_int(seed as i64),
            inflated_area: Time::ZERO,
            min_capacity: 8,
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let tmp = TempFile::new("roundtrip");
        let mut w = JournalWriter::create(&tmp.0, &header()).unwrap();
        for seed in 0..5 {
            w.record(&trial(seed)).unwrap();
        }
        let j = read_journal(&tmp.0).unwrap();
        assert_eq!(j.header, header());
        assert_eq!(j.shard, None, "a plain journal carries no shard info");
        assert_eq!(j.trials, (0..5).map(trial).collect::<Vec<_>>());
        assert!(!j.torn_tail);
    }

    #[test]
    fn create_accepts_a_bare_file_name() {
        // A bare name's parent is the empty path; the directory synced
        // after creation must then be the working directory.
        let tmp = TempFile(PathBuf::from(format!(
            "catbatch-journal-test-{}-bare.jsonl",
            std::process::id()
        )));
        assert_eq!(tmp.0.parent(), Some(Path::new("")));
        let mut w = JournalWriter::create(&tmp.0, &header()).unwrap();
        w.record(&trial(0)).unwrap();
        assert_eq!(read_journal(&tmp.0).unwrap().trials, vec![trial(0)]);
    }

    fn shard_info() -> ShardInfo {
        ShardInfo {
            index: 2,
            count: 3,
            seed_first: 10,
            seed_last: 12,
            seed_count: 3,
            seeds_fp: "00ffee1122334455".to_string(),
        }
    }

    #[test]
    fn shard_header_roundtrips() {
        let tmp = TempFile::new("shard");
        let shard_header = ShardHeaderLine::new(&header(), &shard_info());
        let mut w = JournalWriter::create(&tmp.0, &shard_header).unwrap();
        w.record(&trial(10)).unwrap();
        let j = read_journal(&tmp.0).unwrap();
        assert_eq!(j.header.schema, SHARD_SCHEMA);
        assert_eq!(j.header.fingerprint, header().fingerprint);
        assert_eq!(j.header.fault_free_makespan, header().fault_free_makespan);
        assert_eq!(j.shard, Some(shard_info()));
        assert_eq!(j.trials, vec![trial(10)]);
    }

    #[test]
    fn shard_header_without_shard_fields_is_corrupt() {
        // A v2 schema string on a line with no shard coordinates is
        // damage, not a tolerable variant.
        let tmp = TempFile::new("shard-incomplete");
        JournalWriter::create(&tmp.0, &header()).unwrap();
        let text = std::fs::read_to_string(&tmp.0)
            .unwrap()
            .replace(JOURNAL_SCHEMA, SHARD_SCHEMA);
        std::fs::write(&tmp.0, text).unwrap();
        assert!(matches!(
            read_journal(&tmp.0),
            Err(JournalError::Corrupt { line: 1, .. })
        ));
    }

    #[test]
    fn shard_journal_tolerates_torn_tail_like_v1() {
        let tmp = TempFile::new("shard-torn");
        let shard_header = ShardHeaderLine::new(&header(), &shard_info());
        let mut w = JournalWriter::create(&tmp.0, &shard_header).unwrap();
        w.record(&trial(10)).unwrap();
        drop(w);
        let mut text = std::fs::read_to_string(&tmp.0).unwrap();
        text.push_str("{\"seed\":11,\"outco");
        std::fs::write(&tmp.0, text).unwrap();
        let j = read_journal(&tmp.0).unwrap();
        assert_eq!(j.trials.len(), 1);
        assert!(j.torn_tail);
        assert_eq!(j.shard, Some(shard_info()));
    }

    #[test]
    fn append_resumes_the_same_file() {
        let tmp = TempFile::new("append");
        let mut w = JournalWriter::create(&tmp.0, &header()).unwrap();
        w.record(&trial(1)).unwrap();
        drop(w);
        let j = read_journal(&tmp.0).unwrap();
        let mut w = JournalWriter::append_validated(&tmp.0, &j).unwrap();
        w.record(&trial(2)).unwrap();
        let j = read_journal(&tmp.0).unwrap();
        assert_eq!(j.trials.len(), 2);
    }

    #[test]
    fn buffered_batch_plus_sync_equals_per_record_fsync_bytes() {
        // Group commit changes durability timing, never file contents.
        let synced = TempFile::new("gc-synced");
        let mut w = JournalWriter::create(&synced.0, &header()).unwrap();
        for seed in 0..10 {
            w.record(&trial(seed)).unwrap();
        }
        drop(w);

        let batched = TempFile::new("gc-batched");
        let mut w = JournalWriter::create(&batched.0, &header()).unwrap();
        for seed in 0..10 {
            w.record_buffered(&trial(seed)).unwrap();
            if seed % 4 == 3 {
                w.sync().unwrap();
            }
        }
        w.sync().unwrap();
        drop(w);

        assert_eq!(
            std::fs::read(&synced.0).unwrap(),
            std::fs::read(&batched.0).unwrap(),
            "group-committed journal must be byte-identical"
        );
    }

    #[test]
    fn torn_batch_tail_discards_only_the_torn_suffix() {
        // A crash mid-batch: some buffered records made it to disk whole,
        // the last one only partially. Reading back keeps every intact
        // record — including unsynced-but-complete ones — and discards
        // exactly the torn suffix, so resume re-executes only that trial.
        let tmp = TempFile::new("gc-torn-batch");
        let mut w = JournalWriter::create(&tmp.0, &header()).unwrap();
        w.record_buffered(&trial(1)).unwrap();
        w.sync().unwrap();
        // An unsynced batch of two whole records...
        w.record_buffered(&trial(2)).unwrap();
        w.record_buffered(&trial(3)).unwrap();
        drop(w);
        // ...followed by a torn half-record from the crash instant.
        let mut text = std::fs::read_to_string(&tmp.0).unwrap();
        text.push_str("{\"seed\":4,\"outcome\":{\"O");
        std::fs::write(&tmp.0, text).unwrap();

        let j = read_journal(&tmp.0).unwrap();
        assert_eq!(j.trials, vec![trial(1), trial(2), trial(3)]);
        assert!(j.torn_tail, "the torn suffix is a tolerated crash artifact");

        // The journal is resumable: append_validated truncates the torn
        // fragment, so the re-executed trial's record starts on its own
        // line and the next read sees a fully intact journal.
        let mut w = JournalWriter::append_validated(&tmp.0, &j).unwrap();
        w.record(&trial(4)).unwrap();
        drop(w);
        let j = read_journal(&tmp.0).unwrap();
        assert_eq!(j.trials, vec![trial(1), trial(2), trial(3), trial(4)]);
        assert!(!j.torn_tail, "truncation removed the crash artifact");
    }

    #[test]
    fn failed_append_is_cut_before_the_next_record() {
        // A write that fails part-way (a full disk, say) leaves a
        // fragment after the last complete record. The writer cuts it
        // back before returning the error; without that, the next record
        // would extend the fragment into a garbled line, and the record
        // after it would make that line non-final: `Corrupt`.
        for reopen in [false, true] {
            let tmp = TempFile::new("failed-append");
            let mut w = JournalWriter::create(&tmp.0, &header()).unwrap();
            w.record(&trial(1)).unwrap();
            if reopen {
                drop(w);
                let j = read_journal(&tmp.0).unwrap();
                w = JournalWriter::append_validated(&tmp.0, &j).unwrap();
            }
            w.file.write_all(b"{\"seed\":2,\"outco").unwrap();
            w.truncate().unwrap();
            w.record(&trial(2)).unwrap();
            w.record(&trial(3)).unwrap();
            let j = read_journal(&tmp.0).unwrap();
            assert_eq!(j.trials, vec![trial(1), trial(2), trial(3)], "reopen={reopen}");
            assert!(!j.torn_tail, "reopen={reopen}");
        }
    }

    #[test]
    fn group_commit_writes_on_arrival_and_commits_full_groups() {
        let tmp = TempFile::new("group-commit");
        let mut w = JournalWriter::create(&tmp.0, &header()).unwrap();
        let mut group = GroupCommit::new(&mut w);
        assert_eq!(group.deadline(), None, "nothing pending, nothing due");
        let full = GROUP_COMMIT_RECORDS as u64;
        for seed in 0..full - 1 {
            group.record(&trial(seed)).unwrap();
        }
        assert!(group.deadline().is_some(), "a partial group waits for its deadline");
        assert_eq!(read_journal(&tmp.0).unwrap().trials.len() as u64, full - 1);
        group.record(&trial(full - 1)).unwrap();
        assert_eq!(group.deadline(), None, "a full group commits at once");
        group.record(&trial(full)).unwrap();
        group.flush().unwrap();
        assert_eq!(group.deadline(), None);
        assert_eq!(read_journal(&tmp.0).unwrap().trials, (0..=full).map(trial).collect::<Vec<_>>());
    }

    #[test]
    fn torn_tail_without_newline_is_discarded() {
        let tmp = TempFile::new("torn");
        let mut w = JournalWriter::create(&tmp.0, &header()).unwrap();
        w.record(&trial(1)).unwrap();
        drop(w);
        // Simulate a crash mid-write: half a record, no newline.
        let mut text = std::fs::read_to_string(&tmp.0).unwrap();
        text.push_str("{\"seed\":2,\"outco");
        std::fs::write(&tmp.0, text).unwrap();
        let j = read_journal(&tmp.0).unwrap();
        assert_eq!(j.trials.len(), 1);
        assert!(j.torn_tail);
    }

    #[test]
    fn garbled_final_line_is_torn_not_corrupt() {
        let tmp = TempFile::new("garbled");
        let mut w = JournalWriter::create(&tmp.0, &header()).unwrap();
        w.record(&trial(1)).unwrap();
        drop(w);
        let mut text = std::fs::read_to_string(&tmp.0).unwrap();
        text.push_str("{\"seed\":2}\n");
        std::fs::write(&tmp.0, text).unwrap();
        let j = read_journal(&tmp.0).unwrap();
        assert_eq!(j.trials.len(), 1);
        assert!(j.torn_tail);
    }

    #[test]
    fn garbled_middle_line_is_corrupt() {
        let tmp = TempFile::new("corrupt");
        let mut w = JournalWriter::create(&tmp.0, &header()).unwrap();
        w.record(&trial(1)).unwrap();
        drop(w);
        let mut text = std::fs::read_to_string(&tmp.0).unwrap();
        text.push_str("not json at all\n");
        text.push_str(&serde_json::to_string(&trial(3)).unwrap());
        text.push('\n');
        std::fs::write(&tmp.0, text).unwrap();
        assert!(matches!(
            read_journal(&tmp.0),
            Err(JournalError::Corrupt { line: 3, .. })
        ));
    }

    #[test]
    fn wrong_schema_is_typed() {
        let tmp = TempFile::new("schema");
        let mut h = header();
        h.schema = "catbatch-journal/v999".to_string();
        JournalWriter::create(&tmp.0, &h).unwrap();
        assert_eq!(
            read_journal(&tmp.0),
            Err(JournalError::SchemaMismatch { found: "catbatch-journal/v999".to_string() })
        );
    }

    #[test]
    fn empty_file_is_missing_header() {
        let tmp = TempFile::new("empty");
        std::fs::write(&tmp.0, "").unwrap();
        assert_eq!(read_journal(&tmp.0), Err(JournalError::MissingHeader));
    }

    #[test]
    fn missing_file_is_io_error() {
        let tmp = TempFile::new("missing");
        assert!(matches!(read_journal(&tmp.0), Err(JournalError::Io { .. })));
    }
}
