//! # rigid-serve — scheduler-as-a-service daemon
//!
//! A long-running daemon that accepts rigid-DAG scheduling jobs over a
//! length-prefixed JSONL socket protocol and executes them on a
//! work-stealing shard pool with full supervision. The pieces:
//!
//! * [`protocol`] — the wire format: 4-byte big-endian length + JSON
//!   body, typed [`Request`]/[`Response`] messages, stable error
//!   [`kind`](protocol::kind) strings, and frame helpers that survive
//!   oversized and malformed input without dropping the session.
//! * [`daemon`] — sessions (reader + in-order writer per connection),
//!   shard queues with work stealing, per-worker [`Supervisor`]s
//!   (`catch_unwind`, pooled watchdogs, retries, quarantine), and
//!   per-session backpressure with typed `overloaded` errors.
//! * [`journal`] — group-committed crash journal
//!   (`catbatch-serve-journal/v1`): accepted jobs are recorded before
//!   execution, outcomes after; a restarted daemon replays the
//!   unfinished backlog before it binds, so the terminal record set
//!   converges to the uninterrupted run's, byte for byte.
//! * [`client`] / [`loadgen`] — a minimal pipelining client, a
//!   fault-tolerant [`ResilientClient`] (read timeouts, reconnect +
//!   idempotent resubmit under seeded backoff), and the N-client load
//!   generator behind `catbatch loadgen` and the `serve` bench
//!   scenario.
//! * [`chaos`] — a seeded in-process network fault injector
//!   (`catbatch chaos-proxy`): relays client↔daemon byte streams while
//!   injecting delays, torn writes, slowloris trickle, planned
//!   connection resets, and byte corruption, all drawn from ChaCha8
//!   substreams in byte-offset space so fault schedules replay exactly.
//!
//! See `docs/serve.md` for the frame format, the session/shard model,
//! and the crash-recovery walkthrough.
//!
//! [`Supervisor`]: rigid_supervise::Supervisor

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod daemon;
pub mod journal;
pub mod loadgen;
pub mod net;
pub mod protocol;

pub use chaos::{ChaosPlan, ChaosProxy, ChaosProxyHandle, ProxyReport};
pub use client::{Client, ClientConfig, ClientError, ResilientClient, RetryPolicy};
pub use daemon::{run_one, scheduler_by_name, Daemon, ServeOptions, ServeReport, SCHEDULERS};
pub use journal::{aggregate, Aggregates, JobRecord, ServeJournal, SERVE_SCHEMA};
pub use loadgen::{LoadgenOptions, LoadgenReport};
pub use net::{Bind, Conn, Listener};
pub use protocol::{JobError, JobResult, JobSpec, Request, Response, MAX_FRAME};
