//! End-to-end daemon lifecycle tests: concurrent sessions, typed
//! protocol errors, backpressure, and journal-backed crash recovery.
//!
//! Everything here drives a real daemon over a real Unix socket; only
//! the SIGTERM test lives elsewhere (`tests/sigterm.rs`) because a raw
//! signal is process-global and must not race these tests' daemons.

use catbatch::CatBatch;
use rigid_dag::gen::{self, TaskSampler};
use rigid_dag::{format, StaticSource};
use rigid_serve::journal::JobRecord;
use rigid_serve::protocol::{kind, Request, Response};
use rigid_serve::{
    aggregate, run_one, Bind, Client, Daemon, JobSpec, ServeJournal, ServeOptions, SCHEDULERS,
};
use rigid_sim::gantt::{render, GanttOptions};
use rigid_sim::EngineConfig;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

fn sock(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("catbatch-serve-{}-{name}.sock", std::process::id()))
}

fn tmpfile(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("catbatch-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn instance_text(seed: u64, layers: usize, width: usize) -> String {
    format::write(&gen::layered(
        seed,
        layers,
        width,
        &TaskSampler::default_mix(),
        16,
    ))
}

fn options(name: &str) -> ServeOptions {
    ServeOptions {
        bind: Bind::Unix(sock(name)),
        ..ServeOptions::default()
    }
}

fn spec(id: u64, scheduler: &str, instance: &str) -> JobSpec {
    JobSpec {
        id,
        scheduler: scheduler.into(),
        instance: instance.into(),
        gantt: false,
        trace: false,
        idem: None,
        deadline_ms: None,
    }
}

/// Submits `jobs` pipelined and returns every response, serialized, in
/// arrival order.
fn transcript(bind: &Bind, jobs: &[JobSpec]) -> Vec<String> {
    let mut client = Client::connect(bind).expect("connect");
    for job in jobs {
        client.send(&Request::Submit(job.clone())).expect("send");
    }
    jobs.iter()
        .map(|_| {
            let resp = client.recv().expect("recv");
            serde_json::to_string(&resp).expect("serialize")
        })
        .collect()
}

#[test]
fn concurrent_sessions_get_in_order_byte_stable_transcripts() {
    let instances: Vec<String> = (0..3).map(|c| instance_text(100 + c, 6, 8)).collect();
    let schedulers = ["catbatch", "backfill", "list-fifo"];
    let run = |tag: &str| -> Vec<Vec<String>> {
        let opts = options(tag);
        let daemon = Daemon::start(opts.clone()).expect("daemon starts");
        let transcripts: Vec<Vec<String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|c| {
                    let bind = opts.bind.clone();
                    let inst = &instances[c];
                    let sched = schedulers[c];
                    scope.spawn(move || {
                        let jobs: Vec<JobSpec> = (0..10)
                            .map(|j| spec(c as u64 * 1000 + j + 1, sched, inst))
                            .collect();
                        transcript(&bind, &jobs)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client"))
                .collect()
        });
        daemon.trigger_shutdown();
        let report = daemon.wait();
        assert_eq!(report.jobs_completed, 30, "all jobs succeed");
        assert_eq!(report.sessions, 3);
        assert!(report.clean_shutdown);
        transcripts
    };

    let first = run("stable-a");
    // Every response is a Result whose id matches submission order.
    for (c, t) in first.iter().enumerate() {
        assert_eq!(t.len(), 10);
        for (j, line) in t.iter().enumerate() {
            let resp: Response = serde_json::from_str(line).expect("parse");
            match resp {
                Response::Result(r) => {
                    assert_eq!(r.id, c as u64 * 1000 + j as u64 + 1, "in-order delivery");
                    assert_eq!(r.scheduler, schedulers[c]);
                }
                other => panic!("expected Result, got {other:?}"),
            }
        }
    }
    // A second daemon over the same workload produces byte-identical
    // per-session transcripts, no matter how the shards interleaved.
    let second = run("stable-b");
    assert_eq!(first, second);
}

#[test]
fn malformed_and_oversized_frames_get_typed_errors_and_the_session_survives() {
    let mut opts = options("protocol-errors");
    opts.max_frame = 4096;
    let daemon = Daemon::start(opts.clone()).expect("daemon starts");
    let mut client = Client::connect(&opts.bind).expect("connect");

    // 1. A frame that is not JSON at all.
    client.send(&"this is not a request").expect("send garbage");
    match client.recv().expect("typed error") {
        Response::Error(e) => {
            assert_eq!(e.kind, kind::PROTOCOL);
            assert!(!e.retryable);
        }
        other => panic!("expected protocol error, got {other:?}"),
    }

    // 2. An oversized frame (the string alone exceeds max_frame).
    client.send(&"x".repeat(8192)).expect("send oversized");
    match client.recv().expect("typed error") {
        Response::Error(e) => assert_eq!(e.kind, kind::OVERSIZED),
        other => panic!("expected oversized error, got {other:?}"),
    }

    // 3. A submission that parses as a request but not as an instance.
    client
        .send(&Request::Submit(spec(7, "catbatch", "not an instance")))
        .expect("send bad instance");
    match client.recv().expect("typed error") {
        Response::Error(e) => {
            assert_eq!(e.id, 7);
            assert_eq!(e.kind, kind::PARSE);
        }
        other => panic!("expected parse error, got {other:?}"),
    }

    // 4. An unknown scheduler.
    let inst = instance_text(1, 4, 4);
    client
        .send(&Request::Submit(spec(8, "round-robin", &inst)))
        .expect("send unknown scheduler");
    match client.recv().expect("typed error") {
        Response::Error(e) => assert_eq!(e.kind, kind::UNKNOWN_SCHEDULER),
        other => panic!("expected unknown-scheduler error, got {other:?}"),
    }

    // 5. The same session still schedules real work afterwards.
    match client
        .call(&Request::Submit(spec(9, "catbatch", &inst)))
        .expect("valid job")
    {
        Response::Result(r) => assert_eq!(r.id, 9),
        other => panic!("expected a result, got {other:?}"),
    }
    match client.call(&Request::Ping { payload: 77 }).expect("ping") {
        Response::Pong { payload, .. } => assert_eq!(payload, 77),
        other => panic!("expected pong, got {other:?}"),
    }

    daemon.trigger_shutdown();
    let report = daemon.wait();
    assert_eq!(report.jobs_completed, 1);
    assert_eq!(
        report.jobs_failed, 2,
        "parse + unknown-scheduler count as failed jobs"
    );
}

#[test]
fn overloaded_sessions_get_retryable_backpressure_errors() {
    let mut opts = options("backpressure");
    opts.workers = 1;
    opts.queue_depth = 2;
    let daemon = Daemon::start(opts.clone()).expect("daemon starts");
    let mut client = Client::connect(&opts.bind).expect("connect");

    // One heavy job to occupy the single worker, then a burst that
    // exceeds the in-flight cap.
    let heavy = instance_text(5, 120, 40);
    let light = instance_text(6, 3, 3);
    client
        .send(&Request::Submit(spec(1, "catbatch", &heavy)))
        .expect("send heavy");
    for j in 2..=8 {
        client
            .send(&Request::Submit(spec(j, "list-fifo", &light)))
            .expect("send burst");
    }
    let mut ok = 0;
    let mut overloaded = 0;
    for _ in 0..8 {
        match client.recv().expect("response") {
            Response::Result(_) => ok += 1,
            Response::Error(e) => {
                assert_eq!(e.kind, kind::OVERLOADED);
                assert!(e.retryable, "backpressure must be retryable");
                overloaded += 1;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(overloaded >= 1, "the burst must trip the queue-depth cap");
    assert_eq!(ok + overloaded, 8);

    daemon.trigger_shutdown();
    daemon.wait();
}

/// Builds the terminal-record map of a journal.
fn terminal_by_id(path: &std::path::Path) -> BTreeMap<u64, JobRecord> {
    let (journal, state) = ServeJournal::open(path).expect("scan journal");
    journal.close();
    state
        .terminal
        .iter()
        .map(|r| match r {
            JobRecord::Completed { id, .. } | JobRecord::Failed { id, .. } => (*id, r.clone()),
            JobRecord::Submitted { .. } => unreachable!(),
        })
        .collect()
}

#[test]
fn shutdown_mid_load_loses_no_accepted_job_and_restart_converges() {
    let journal_path = tmpfile("midload.journal");
    let clean_path = tmpfile("clean.journal");
    let inst = instance_text(7, 40, 20);
    let jobs: Vec<JobSpec> = (1..=20)
        .map(|j| spec(j, if j % 2 == 0 { "catbatch" } else { "backfill" }, &inst))
        .collect();

    // Run A: shut down as soon as the first response lands, with most
    // of the load still queued or running.
    let mut opts = options("midload-a");
    opts.workers = 2;
    opts.journal = Some(journal_path.clone());
    let daemon = Daemon::start(opts.clone()).expect("daemon starts");
    let mut client = Client::connect(&opts.bind).expect("connect");
    for job in &jobs {
        client.send(&Request::Submit(job.clone())).expect("send");
    }
    let mut results_a = 0u64;
    for i in 0..jobs.len() {
        match client.recv() {
            Ok(Response::Result(_)) => {
                results_a += 1;
                if i == 0 {
                    daemon.trigger_shutdown();
                }
            }
            Ok(Response::Error(e)) => {
                assert_eq!(e.kind, kind::SHUTDOWN, "only shutdown errors expected");
                assert!(e.retryable);
            }
            Ok(other) => panic!("unexpected {other:?}"),
            Err(_) => break, // daemon closed the connection first
        }
    }
    let report_a = daemon.wait();
    assert!(report_a.clean_shutdown);
    assert_eq!(report_a.jobs_completed, results_a);

    // The journal knows every accepted job; some should be unfinished.
    let (journal, state) = ServeJournal::open(&journal_path).expect("scan");
    journal.close();
    let accepted: Vec<u64> = state
        .pending
        .iter()
        .map(|s| s.id)
        .chain(state.terminal.iter().map(|r| match r {
            JobRecord::Completed { id, .. } | JobRecord::Failed { id, .. } => *id,
            JobRecord::Submitted { .. } => unreachable!(),
        }))
        .collect();
    let pending_before = state.pending.len() as u64;

    // Run B: restart over the same journal; the backlog replays before
    // the daemon goes live.
    let mut opts_b = options("midload-b");
    opts_b.workers = 2;
    opts_b.journal = Some(journal_path.clone());
    let daemon_b = Daemon::start(opts_b).expect("daemon restarts");
    daemon_b.trigger_shutdown();
    let report_b = daemon_b.wait();
    assert_eq!(report_b.jobs_resumed, pending_before);

    // After the restart every accepted job has a terminal record.
    let resumed = terminal_by_id(&journal_path);
    for id in &accepted {
        assert!(
            resumed.contains_key(id),
            "accepted job {id} lost across restart"
        );
    }

    // Reference: the same job set on an uninterrupted daemon. Every
    // record the interrupted+resumed pair produced must match the
    // uninterrupted daemon's, byte for byte, and so must the digest of
    // the common set.
    let mut opts_c = options("midload-c");
    opts_c.workers = 2;
    opts_c.journal = Some(clean_path.clone());
    let daemon_c = Daemon::start(opts_c.clone()).expect("clean daemon");
    let t = transcript(&opts_c.bind, &jobs);
    assert_eq!(t.len(), jobs.len());
    daemon_c.trigger_shutdown();
    daemon_c.wait();
    let clean = terminal_by_id(&clean_path);
    for (id, rec) in &resumed {
        assert_eq!(
            Some(rec),
            clean.get(id),
            "job {id} diverged across crash-resume"
        );
    }
    let common: Vec<JobRecord> = resumed.values().cloned().collect();
    let clean_common: Vec<JobRecord> = clean
        .iter()
        .filter(|(id, _)| resumed.contains_key(id))
        .map(|(_, r)| r.clone())
        .collect();
    assert_eq!(aggregate(&common), aggregate(&clean_common));

    let _ = std::fs::remove_file(&journal_path);
    let _ = std::fs::remove_file(&clean_path);
}

#[test]
fn crafted_backlog_replays_deterministically_on_startup() {
    // A deterministic resume check that does not depend on shutdown
    // timing: write a journal whose backlog is known exactly, then
    // start a daemon over it.
    let journal_path = tmpfile("crafted.journal");
    let inst = instance_text(11, 8, 6);
    {
        let (journal, state) = ServeJournal::open(&journal_path).expect("create");
        assert!(state.pending.is_empty());
        let tx = journal.sender();
        for id in 1..=5u64 {
            tx.record(JobRecord::Submitted {
                id,
                scheduler: "catbatch".into(),
                fingerprint: 0,
                instance: inst.clone(),
                idem: None,
            });
        }
        tx.flush();
        journal.close();
    }

    let mut opts = options("crafted");
    opts.journal = Some(journal_path.clone());
    let daemon = Daemon::start(opts).expect("daemon resumes backlog");
    daemon.trigger_shutdown();
    let report = daemon.wait();
    assert_eq!(report.jobs_resumed, 5);
    assert_eq!(report.jobs_completed, 5);

    let terminal = terminal_by_id(&journal_path);
    assert_eq!(terminal.len(), 5);
    let all_equal: Vec<&JobRecord> = terminal.values().collect();
    for pair in all_equal.windows(2) {
        match (pair[0], pair[1]) {
            (
                JobRecord::Completed {
                    makespan: a,
                    events: ea,
                    ..
                },
                JobRecord::Completed {
                    makespan: b,
                    events: eb,
                    ..
                },
            ) => {
                assert_eq!(a, b, "same instance + scheduler → same makespan");
                assert_eq!(ea, eb);
            }
            other => panic!("expected completions, got {other:?}"),
        }
    }
    let _ = std::fs::remove_file(&journal_path);
}

/// A `gantt: true` job labels every bar with its own task: the chart is
/// the one a direct CatBatch run of the same instance renders.
#[test]
fn gantt_labels_name_the_placed_tasks() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../assets/figure3.rigid");
    let text = std::fs::read_to_string(path).expect("figure 3 asset");
    let inst = format::parse(&text).expect("figure 3 parses");
    let mut source = StaticSource::new(inst.clone());
    let direct = EngineConfig::new().run(&mut source, &mut CatBatch::new());
    let expected: Vec<String> = render(&direct.schedule, inst.graph(), &GanttOptions::default())
        .lines()
        .map(str::to_string)
        .collect();
    let job = JobSpec {
        gantt: true,
        ..spec(1, "catbatch", &text)
    };
    match run_one(&job, &ServeOptions::default()) {
        Response::Result(result) => assert_eq!(result.gantt, expected),
        other => panic!("expected a result, got {other:?}"),
    }
}

/// A job that asks for neither a chart nor a trace runs stats-only. Its
/// answer equals a full-recording job's, chart aside, for every
/// scheduler on figure 3 (non-dyadic times) and on the instances
/// `catbatch generate --family layered --n 300 --procs 8 --seed 3` and
/// `--family independent --n 300 --procs 16 --seed 1` write.
#[test]
fn stats_only_jobs_answer_as_full_recording_jobs_do() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../assets/figure3.rigid");
    let mix = TaskSampler::default_mix();
    let inputs = [
        std::fs::read_to_string(path).expect("figure 3 asset"),
        format::write(&gen::layered(3, 17, 18, &mix, 8)),
        format::write(&gen::independent(1, 300, &mix, 16)),
    ];
    for text in &inputs {
        for name in SCHEDULERS {
            let lean = run_one(&spec(1, name, text), &ServeOptions::default());
            let full = JobSpec {
                gantt: true,
                ..spec(1, name, text)
            };
            match (lean, run_one(&full, &ServeOptions::default())) {
                (Response::Result(lean), Response::Result(mut full)) => {
                    assert!(lean.gantt.is_empty() && !full.gantt.is_empty());
                    full.gantt.clear();
                    assert_eq!(lean, full, "{name}");
                }
                other => panic!("{name}: expected two results, got {other:?}"),
            }
        }
    }
}

/// One quarantine for the whole daemon: a job that times out on every
/// attempt is refused when it comes back under a new id, whichever
/// worker takes the resubmission.
#[test]
fn a_job_quarantined_on_one_worker_is_refused_on_every_worker() {
    let opts = ServeOptions {
        workers: 2,
        watchdog: Some(Duration::from_millis(1)),
        ..options("quarantine")
    };
    let daemon = Daemon::start(opts.clone()).expect("daemon starts");
    let mut client = Client::connect(&opts.bind).expect("connect");
    // Thousands of tasks: far beyond a 1 ms watchdog on every attempt.
    let heavy = instance_text(3, 200, 40);
    let mut answer = |id: u64| match client.call(&Request::Submit(spec(id, "catbatch", &heavy))) {
        Ok(Response::Error(err)) => {
            assert_eq!(err.id, id);
            err.kind
        }
        other => panic!("job {id}: expected a typed error, got {other:?}"),
    };
    assert_eq!(answer(1), kind::TIMED_OUT);
    // Jobs are routed to shard `id % workers`, so the resubmissions land
    // in both workers' queues.
    for id in [2, 3] {
        assert_eq!(answer(id), kind::QUARANTINED, "resubmission {id}");
    }
    daemon.trigger_shutdown();
    daemon.wait();
}
