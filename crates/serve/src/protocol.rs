//! The wire protocol: length-prefixed JSONL frames.
//!
//! Every message is one JSON document preceded by a 4-byte big-endian
//! length. JSON keeps the payloads debuggable (`xxd` a capture and the
//! bodies read as journal-style JSONL); the length prefix gives exact
//! framing so a reader never scans for newlines inside string escapes
//! and can reject oversized frames *before* buffering them.
//!
//! Responses are delivered strictly in submission order per session —
//! one response per request. That makes per-session transcripts
//! byte-stable regardless of how jobs interleave on the shard pool,
//! and gives `Ping` barrier semantics (its `Pong` proves everything
//! submitted before it has been answered).

use serde::{Deserialize, Serialize};
use std::io::{ErrorKind, Read, Write};

/// Default cap on a frame body, in bytes. A 100k-task `.rigid` instance
/// is ~2 MiB, so the default admits every benchmark instance while
/// bounding per-session buffering; `--max-frame` raises it.
pub const MAX_FRAME: u32 = 8 << 20;

/// A scheduling job submission.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Client-chosen job id, echoed on every response for this job.
    /// Ids should be unique for the daemon's lifetime when journaling:
    /// the journal dedupes resumed jobs by id.
    pub id: u64,
    /// Scheduler name: `catbatch`, `backfill`, `catprio`, `strip`,
    /// `list-fifo` or `list-longest` (the CLI's `--sched` names).
    pub scheduler: String,
    /// The instance, in `.rigid` text format.
    pub instance: String,
    /// Include an ASCII Gantt chart in the result payload.
    pub gantt: bool,
    /// Include the event trace (JSON) in the result payload.
    pub trace: bool,
    /// Client-generated idempotency key. When present, the daemon
    /// dedupes: a resubmission carrying a key it has already accepted
    /// returns the first submission's terminal outcome instead of
    /// executing again — exactly-once results over an at-least-once
    /// wire. Keys must be unique per *logical* job for the daemon's
    /// journal lifetime; reuse a key only to retry the same job.
    pub idem: Option<u64>,
    /// Per-request deadline, milliseconds of wall clock from the moment
    /// a worker starts the job. Mapped onto the engine's `RunBudget`
    /// wall deadline: a job past its budget fails with a typed
    /// [`kind::DEADLINE_EXCEEDED`] error instead of hanging.
    pub deadline_ms: Option<u64>,
}

/// A client-to-daemon message.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Submit a job; exactly one [`Response::Result`] or
    /// [`Response::Error`] comes back (in submission order).
    Submit(JobSpec),
    /// Health check / ordering barrier; `payload` is echoed back.
    Ping {
        /// Opaque value echoed in the `Pong`.
        payload: u64,
    },
    /// Ask the daemon to shut down cleanly (flush journal, stop
    /// accepting, fail queued jobs with a retryable error).
    Shutdown {
        /// Reserved; send `true`.
        flush: bool,
    },
}

/// One scheduled job's summary, streamed back to the submitting client.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    /// Echo of [`JobSpec::id`].
    pub id: u64,
    /// Echo of the scheduler that ran.
    pub scheduler: String,
    /// Task count of the instance.
    pub tasks: usize,
    /// Platform size.
    pub procs: u32,
    /// Exact makespan (display form of the exact `Time`).
    pub makespan: String,
    /// Exact Graham lower bound of the instance.
    pub lower_bound: String,
    /// Makespan / lower bound (correctly rounded `f64`).
    pub ratio_to_lb: f64,
    /// Engine events processed.
    pub events: u64,
    /// Peak ready-set size observed.
    pub peak_ready: u64,
    /// ASCII Gantt chart, line by line (empty unless requested).
    pub gantt: Vec<String>,
    /// Event trace JSON (empty unless requested).
    pub trace: String,
}

/// Machine-readable error classes. Stable strings — clients match on
/// these, not on `message`.
pub mod kind {
    /// The session has more jobs in flight than the daemon's per-session
    /// queue depth. Retryable: back off and resubmit.
    pub const OVERLOADED: &str = "overloaded";
    /// The frame or its JSON body was malformed. The offending frame is
    /// consumed; the session keeps working.
    pub const PROTOCOL: &str = "protocol";
    /// A frame exceeded the daemon's frame cap. The frame is drained and
    /// discarded; the session keeps working.
    pub const OVERSIZED: &str = "oversized-frame";
    /// The instance text failed to parse.
    pub const PARSE: &str = "parse";
    /// Unknown scheduler name.
    pub const UNKNOWN_SCHEDULER: &str = "unknown-scheduler";
    /// The engine reported a typed run error (violation, blown budget).
    pub const RUN: &str = "run";
    /// The job panicked (caught; the worker survives).
    pub const PANICKED: &str = "panicked";
    /// The job exceeded the watchdog wall-clock limit.
    pub const TIMED_OUT: &str = "timed-out";
    /// The job is quarantined after repeated panics/timeouts.
    pub const QUARANTINED: &str = "quarantined";
    /// The daemon is shutting down; the job was not run. Retryable
    /// against the restarted daemon (journaled jobs resume there).
    pub const SHUTDOWN: &str = "shutting-down";
    /// The job's `deadline_ms` wall-clock budget expired before the
    /// engine reached quiescence. Terminal: the same job would blow the
    /// same deadline again (resubmit with a larger one).
    pub const DEADLINE_EXCEEDED: &str = "deadline_exceeded";
    /// The session was evicted because its client read responses too
    /// slowly: the bounded writer queue overflowed or a frame write
    /// timed out. The daemon closes the connection after a best-effort
    /// final error frame; submitted jobs still run (and journal), so a
    /// reconnecting client can recover outcomes via idempotency keys.
    pub const EVICTED: &str = "evicted-slow-reader";
}

/// A typed error response. `retryable` says whether resubmitting the
/// identical request can succeed (backpressure, shutdown) or not
/// (malformed input, deterministic engine errors).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobError {
    /// The job id this error answers, or 0 for non-job frames.
    pub id: u64,
    /// One of the [`kind`] constants.
    pub kind: String,
    /// Whether resubmitting the identical request can succeed.
    pub retryable: bool,
    /// Human-readable detail.
    pub message: String,
}

/// A daemon-to-client message.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Terminal success for one submitted job.
    Result(JobResult),
    /// Terminal typed failure for one request.
    Error(JobError),
    /// Health-check reply; `payload` echoes the ping.
    Pong {
        /// Echo of the ping payload.
        payload: u64,
        /// Jobs completed by this daemon so far.
        completed: u64,
        /// Jobs that failed with [`kind::DEADLINE_EXCEEDED`] so far.
        deadline_exceeded: u64,
    },
    /// Acknowledgement of a shutdown request.
    ShuttingDown {
        /// Whether the journal was (or will be) flushed.
        flushed: bool,
    },
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// Clean EOF on a frame boundary: the peer closed the connection.
    Closed,
    /// The reader was asked to stop (daemon shutdown).
    Stopped,
    /// No complete frame arrived within the configured read timeout.
    /// The stream may be mid-frame: the only safe recovery is to drop
    /// the connection and (for idempotent requests) resubmit.
    TimedOut {
        /// How long the reader waited, milliseconds.
        waited_ms: u64,
    },
    /// A frame length exceeded the cap. The body was drained; the
    /// stream is still framed correctly.
    Oversized {
        /// The declared body length.
        len: u32,
        /// The cap it exceeded.
        max: u32,
    },
    /// The stream died mid-frame or another I/O error occurred.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Stopped => write!(f, "reader stopped"),
            FrameError::TimedOut { waited_ms } => {
                write!(f, "no frame within the {waited_ms} ms read timeout")
            }
            FrameError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

/// Reads exactly `buf.len()` bytes, retrying on read timeouts while
/// polling `stop` and the optional deadline. `clean_eof` is true when
/// EOF before the first byte is a legal end of stream (frame boundary).
fn read_full(
    r: &mut impl Read,
    buf: &mut [u8],
    stop: &dyn Fn() -> bool,
    deadline: Option<(std::time::Instant, u64)>,
    clean_eof: bool,
) -> Result<(), FrameError> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(if got == 0 && clean_eof {
                    FrameError::Closed
                } else {
                    FrameError::Io(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "stream closed mid-frame",
                    ))
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if stop() {
                    return Err(FrameError::Stopped);
                }
                if let Some((at, waited_ms)) = deadline {
                    if std::time::Instant::now() >= at {
                        return Err(FrameError::TimedOut { waited_ms });
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Reads one frame body (raw bytes, not yet parsed). Oversized frames
/// are drained from the stream — framing stays intact — and reported as
/// [`FrameError::Oversized`] so the caller can answer with a typed
/// error instead of killing the session.
pub fn read_frame(
    r: &mut impl Read,
    max_frame: u32,
    stop: &dyn Fn() -> bool,
) -> Result<Vec<u8>, FrameError> {
    read_frame_timeout(r, max_frame, stop, None)
}

/// [`read_frame`] with an overall deadline: if no complete frame has
/// arrived within `timeout`, fails with [`FrameError::TimedOut`]. The
/// underlying stream must have a (shorter) OS-level read timeout set —
/// the deadline is only checked when a read returns `WouldBlock`.
pub fn read_frame_timeout(
    r: &mut impl Read,
    max_frame: u32,
    stop: &dyn Fn() -> bool,
    timeout: Option<std::time::Duration>,
) -> Result<Vec<u8>, FrameError> {
    let deadline = timeout.map(|t| (std::time::Instant::now() + t, t.as_millis() as u64));
    let mut len_bytes = [0u8; 4];
    read_full(r, &mut len_bytes, stop, deadline, true)?;
    let len = u32::from_be_bytes(len_bytes);
    if len > max_frame {
        // Drain the declared body so the next frame starts cleanly.
        let mut sink = [0u8; 8192];
        let mut remaining = len as usize;
        while remaining > 0 {
            let take = remaining.min(sink.len());
            read_full(r, &mut sink[..take], stop, deadline, false)?;
            remaining -= take;
        }
        return Err(FrameError::Oversized {
            len,
            max: max_frame,
        });
    }
    let mut body = vec![0u8; len as usize];
    read_full(r, &mut body, stop, deadline, false)?;
    Ok(body)
}

/// Writes one frame: 4-byte big-endian length, then the JSON body.
pub fn write_frame(w: &mut impl Write, msg: &impl Serialize) -> std::io::Result<()> {
    let body = serde_json::to_string(msg)
        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
    let len = body.len() as u32;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(req: &Request) -> Request {
        let mut buf = Vec::new();
        write_frame(&mut buf, req).expect("write");
        let body = read_frame(&mut buf.as_slice(), MAX_FRAME, &|| false).expect("read");
        serde_json::from_str(std::str::from_utf8(&body).expect("utf8")).expect("parse")
    }

    #[test]
    fn frames_roundtrip() {
        let spec = JobSpec {
            id: 7,
            scheduler: "catbatch".into(),
            instance: "procs 2\ntask a 1 1\n".into(),
            gantt: true,
            trace: false,
            idem: Some(0xfeed),
            deadline_ms: Some(250),
        };
        assert_eq!(
            roundtrip(&Request::Submit(spec.clone())),
            Request::Submit(spec)
        );
        assert_eq!(
            roundtrip(&Request::Ping { payload: 99 }),
            Request::Ping { payload: 99 }
        );
    }

    #[test]
    fn pre_idempotency_submissions_still_parse() {
        // A frame from a client predating `idem`/`deadline_ms`: the
        // optional fields default to None instead of rejecting it.
        let body = r#"{"Submit":{"id":3,"scheduler":"catbatch","instance":"procs 1\n","gantt":false,"trace":false}}"#;
        let req: Request = serde_json::from_str(body).expect("old-format frame parses");
        match req {
            Request::Submit(spec) => {
                assert_eq!(spec.id, 3);
                assert_eq!(spec.idem, None);
                assert_eq!(spec.deadline_ms, None);
            }
            other => panic!("expected Submit, got {other:?}"),
        }
    }

    #[test]
    fn read_timeout_is_typed_not_an_io_error() {
        // A reader whose stream never produces bytes: every read yields
        // WouldBlock, so only the deadline can end the wait.
        struct Stalled;
        impl Read for Stalled {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                std::thread::sleep(std::time::Duration::from_millis(1));
                Err(std::io::Error::new(ErrorKind::WouldBlock, "stalled"))
            }
        }
        match read_frame_timeout(
            &mut Stalled,
            MAX_FRAME,
            &|| false,
            Some(std::time::Duration::from_millis(20)),
        ) {
            Err(FrameError::TimedOut { waited_ms }) => assert_eq!(waited_ms, 20),
            other => panic!("expected TimedOut, got {other:?}"),
        }
    }

    #[test]
    fn oversized_frames_are_drained_not_fatal() {
        let mut buf = Vec::new();
        let big = "x".repeat(1000);
        write_frame(&mut buf, &Request::Ping { payload: 1 }).expect("write small");
        let mid = buf.len();
        // Hand-build an oversized frame followed by a valid one.
        let mut stream = Vec::new();
        stream.extend_from_slice(&(big.len() as u32).to_be_bytes());
        stream.extend_from_slice(big.as_bytes());
        stream.extend_from_slice(&buf[..mid]);
        let mut r = stream.as_slice();
        match read_frame(&mut r, 100, &|| false) {
            Err(FrameError::Oversized { len, max }) => {
                assert_eq!(len, 1000);
                assert_eq!(max, 100);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
        // The stream is still framed: the next read gets the ping.
        let body = read_frame(&mut r, 100, &|| false).expect("follow-up frame");
        let req: Request =
            serde_json::from_str(std::str::from_utf8(&body).expect("utf8")).expect("parse");
        assert_eq!(req, Request::Ping { payload: 1 });
    }

    #[test]
    fn clean_eof_is_closed_mid_frame_is_io() {
        let empty: &[u8] = &[];
        assert!(matches!(
            read_frame(&mut &*empty, 100, &|| false),
            Err(FrameError::Closed)
        ));
        let torn: &[u8] = &[0, 0, 0, 9, b'x'];
        assert!(matches!(
            read_frame(&mut &*torn, 100, &|| false),
            Err(FrameError::Io(_))
        ));
    }
}
