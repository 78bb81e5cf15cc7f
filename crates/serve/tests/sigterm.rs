//! A real SIGTERM mid-load: the daemon drains, queued jobs get typed
//! retryable errors, the journal is flushed, and a restarted daemon
//! (same process — the epoch-based interrupt token must not see the
//! old signal) resumes the backlog.
//!
//! This lives in its own integration-test binary because a raw signal
//! is process-global; in `tests/daemon.rs` it would stop every other
//! test's daemon too.

#![cfg(unix)]

use rigid_dag::format;
use rigid_dag::gen::{self, TaskSampler};
use rigid_serve::journal::JobRecord;
use rigid_serve::protocol::{kind, Request, Response};
use rigid_serve::{Bind, Client, Daemon, JobSpec, ServeJournal, ServeOptions};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("catbatch-sigterm-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn raise_sigterm() {
    let status = std::process::Command::new("kill")
        .args(["-TERM", &std::process::id().to_string()])
        .status()
        .expect("spawn kill");
    assert!(status.success());
}

#[test]
fn sigterm_mid_load_flushes_journal_and_the_restarted_daemon_resumes() {
    let journal_path = tmp("journal");
    let socket = tmp("sock");
    // One worker; job 1 is heavy (~4000 tasks, seconds of engine time)
    // and the 15 jobs behind it are light. All 16 are read, enqueued,
    // and journaled while the worker is still grinding on job 1, so
    // the SIGTERM raised at job 1's response is guaranteed to land
    // with most of the tail still queued.
    let heavy = format::write(&gen::layered(3, 200, 40, &TaskSampler::default_mix(), 16));
    let light = format::write(&gen::layered(4, 60, 25, &TaskSampler::default_mix(), 16));
    let jobs: Vec<JobSpec> = (1..=16)
        .map(|id| JobSpec {
            id,
            scheduler: "catbatch".into(),
            instance: if id == 1 {
                heavy.clone()
            } else {
                light.clone()
            },
            gantt: false,
            trace: false,
            idem: None,
            deadline_ms: None,
        })
        .collect();

    let opts = ServeOptions {
        bind: Bind::Unix(socket.clone()),
        workers: 1,
        journal: Some(journal_path.clone()),
        ..ServeOptions::default()
    };
    let daemon = Daemon::start(opts.clone()).expect("daemon starts");
    let mut client = Client::connect(&opts.bind).expect("connect");
    for job in &jobs {
        client.send(&Request::Submit(job.clone())).expect("send");
    }

    // SIGTERM once the first job has certainly been picked up.
    let mut results = 0u64;
    let mut retryable_errors = 0u64;
    for i in 0..jobs.len() {
        match client.recv() {
            Ok(Response::Result(_)) => {
                results += 1;
                if i == 0 {
                    raise_sigterm();
                }
            }
            Ok(Response::Error(e)) => {
                assert_eq!(
                    e.kind,
                    kind::SHUTDOWN,
                    "queued jobs fail with the shutdown kind"
                );
                assert!(e.retryable, "shutdown errors must be retryable");
                retryable_errors += 1;
            }
            Ok(other) => panic!("unexpected {other:?}"),
            Err(_) => break,
        }
    }
    let report = daemon.wait();
    assert!(report.clean_shutdown, "SIGTERM drains, it does not abort");
    assert!(results >= 1);
    assert!(
        retryable_errors >= 1,
        "with 16 jobs and 1 worker, SIGTERM after the first response \
         must leave queued jobs to fail retryably"
    );

    // The journal was flushed on the way down: accepted-but-unfinished
    // jobs are recoverable.
    let (journal, state) = ServeJournal::open(&journal_path).expect("journal is scannable");
    journal.close();
    let pending = state.pending.len() as u64;
    let completed_before = state
        .terminal
        .iter()
        .filter(|r| matches!(r, JobRecord::Completed { .. }))
        .count() as u64;
    assert!(
        pending >= 1,
        "jobs the workers never reached must be waiting in the journal"
    );

    // Restart **in the same process**: the epoch-based token means the
    // already-handled SIGTERM does not phantom-stop the new daemon.
    let opts_b = ServeOptions {
        bind: Bind::Unix(tmp("sock-b")),
        workers: 2,
        journal: Some(journal_path.clone()),
        ..ServeOptions::default()
    };
    let daemon_b = Daemon::start(opts_b.clone()).expect("daemon restarts after SIGTERM");
    // It is actually alive and serving, not just constructed.
    let mut probe = Client::connect(&opts_b.bind).expect("reconnect");
    match probe.call(&Request::Ping { payload: 5 }).expect("ping") {
        Response::Pong {
            payload, completed, ..
        } => {
            assert_eq!(payload, 5);
            assert_eq!(
                completed, pending,
                "the whole backlog replayed before binding"
            );
        }
        other => panic!("expected pong, got {other:?}"),
    }
    daemon_b.trigger_shutdown();
    let report_b = daemon_b.wait();
    assert_eq!(report_b.jobs_resumed, pending);

    // No accepted job was lost: the backlog is empty and exactly the
    // pre-restart completions plus the replayed backlog are terminal.
    let (journal, state) = ServeJournal::open(&journal_path).expect("rescan");
    journal.close();
    assert!(state.pending.is_empty(), "backlog fully drained");
    let completions = state
        .terminal
        .iter()
        .filter(|r| matches!(r, JobRecord::Completed { .. }))
        .count() as u64;
    assert_eq!(completions, completed_before + pending);

    let _ = std::fs::remove_file(&journal_path);
}
