//! End-to-end chaos suite: loadgen through the fault-injecting proxy.
//!
//! The exactly-once contract under test: for every swept fault plan
//! (delays, torn writes, slowloris trickle, planned resets), each
//! logical job submitted through the chaos proxy yields exactly one
//! terminal outcome at the client, executes exactly once at the daemon
//! (one terminal journal record per id — resubmissions dedupe on their
//! idempotency keys), and the journal's terminal aggregates are
//! byte-identical to a fault-free run of the same workload. Plus: a
//! deadline-carrying job past its budget fails with a typed
//! `deadline_exceeded`, it does not hang.

use rigid_serve::protocol::kind;
use rigid_serve::{
    aggregate, loadgen, Aggregates, Bind, ChaosPlan, ChaosProxy, Client, Daemon, JobRecord,
    JobSpec, LoadgenOptions, ProxyReport, Request, Response, ServeOptions,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("catbatch-chaosnet-{}-{name}", std::process::id()))
}

/// Terminal journal records per job id, read straight off the file so
/// duplicates (a re-executed job would write two) are visible — the
/// scan API dedupes, which is exactly what this check must not do.
fn terminal_counts(path: &std::path::Path) -> BTreeMap<u64, usize> {
    let text = std::fs::read_to_string(path).expect("journal readable");
    let mut counts = BTreeMap::new();
    for line in text.lines().skip(1).filter(|l| !l.is_empty()) {
        let rec: JobRecord = serde_json::from_str(line).expect("journal record parses");
        match rec {
            JobRecord::Completed { id, .. } | JobRecord::Failed { id, .. } => {
                *counts.entry(id).or_insert(0) += 1;
            }
            JobRecord::Submitted { .. } => {}
        }
    }
    counts
}

fn terminal_records(path: &std::path::Path) -> Vec<JobRecord> {
    let text = std::fs::read_to_string(path).expect("journal readable");
    text.lines()
        .skip(1)
        .filter(|l| !l.is_empty())
        .map(|line| serde_json::from_str::<JobRecord>(line).expect("journal record parses"))
        .filter(|r| matches!(r, JobRecord::Completed { .. } | JobRecord::Failed { .. }))
        .collect()
}

const CLIENTS: usize = 2;
const JOBS: usize = 6;

/// Runs the fixed workload against a fresh daemon, optionally through a
/// chaos proxy, and returns (journal aggregates, terminal counts, proxy
/// report when a plan was active).
fn run_workload(
    tag: &str,
    plan: Option<(&str, u64)>,
) -> (Aggregates, BTreeMap<u64, usize>, Option<ProxyReport>) {
    let daemon_sock = tmp(&format!("{tag}-daemon.sock"));
    let journal_path = tmp(&format!("{tag}.journal"));
    let _ = std::fs::remove_file(&daemon_sock);
    let _ = std::fs::remove_file(&journal_path);

    let daemon = Daemon::start(ServeOptions {
        bind: Bind::Unix(daemon_sock.clone()),
        workers: 2,
        journal: Some(journal_path.clone()),
        ..ServeOptions::default()
    })
    .expect("daemon starts");

    let proxy = plan.map(|(spec, seed)| {
        let proxy_sock = tmp(&format!("{tag}-proxy.sock"));
        let _ = std::fs::remove_file(&proxy_sock);
        let plan = ChaosPlan::parse(spec).expect("plan parses");
        let handle = ChaosProxy::spawn(
            &Bind::Unix(proxy_sock.clone()),
            Bind::Unix(daemon_sock.clone()),
            seed,
            plan,
        )
        .expect("proxy spawns");
        (handle, proxy_sock)
    });

    let bind = match &proxy {
        Some((_, sock)) => Bind::Unix(sock.clone()),
        None => Bind::Unix(daemon_sock.clone()),
    };
    let report = loadgen::run(&LoadgenOptions {
        bind,
        clients: CLIENTS,
        jobs: JOBS,
        n: 30,
        procs: 8,
        window: 3,
        seed: 7,
        // Generous attempts, tight timeout: a job may ride out several
        // planned resets, and a torn response must become a reconnect
        // in test time, not 30 s.
        read_timeout: Duration::from_secs(2),
        max_attempts: 25,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(20),
        ..LoadgenOptions::default()
    })
    .expect("loadgen finishes");

    // Every logical job reached a terminal outcome at the client,
    // exactly once: no duplicates (ok + errors + gave_up == jobs) and,
    // for these survivable plans, no losses either.
    assert_eq!(
        report.ok + report.errors + report.gave_up,
        (CLIENTS * JOBS) as u64,
        "[{tag}] each job must resolve exactly once at the client"
    );
    assert_eq!(report.errors, 0, "[{tag}] no typed failures expected");
    assert_eq!(
        report.gave_up, 0,
        "[{tag}] attempt budget must survive this plan"
    );
    let proxy_report = proxy.map(|(handle, sock)| {
        let report = handle.stop();
        let _ = std::fs::remove_file(&sock);
        report
    });
    daemon.trigger_shutdown();
    let report = daemon.wait();
    assert!(report.clean_shutdown);

    let counts = terminal_counts(&journal_path);
    let agg = aggregate(&terminal_records(&journal_path));
    let _ = std::fs::remove_file(&daemon_sock);
    let _ = std::fs::remove_file(&journal_path);
    (agg, counts, proxy_report)
}

#[test]
fn swept_fault_plans_preserve_exactly_once_and_aggregates() {
    let (baseline_agg, baseline_counts, _) = run_workload("baseline", None);
    assert_eq!(
        baseline_counts.len(),
        CLIENTS * JOBS,
        "baseline: one terminal record per logical job"
    );
    assert!(baseline_counts.values().all(|&c| c == 1));
    assert_eq!(baseline_agg.completed, (CLIENTS * JOBS) as u64);
    assert_eq!(baseline_agg.failed, 0);

    // The sweep: each named plan × seed is one deterministic adversary.
    // Reset offsets are planned in byte-offset space and sized to the
    // workload (unbroken, the two clients send 5,660 and 8,084 bytes
    // upstream), low enough that connections actually die mid-run yet
    // far enough that they make progress between deaths; delays and
    // trickle stress the read-timeout path; torn writes stress frame
    // reassembly. A connection's faults are keyed by its first frame,
    // so which plans fire does not depend on which client connects
    // first.
    let sweep: &[(&str, &str, u64)] = &[
        ("delay", "delay=1..5ms", 1),
        ("tear", "tear=7", 2),
        ("slowloris", "trickle=512/2ms", 3),
        ("reset-far", "reset=6000..10000", 4),
        ("reset-near", "reset=2500..5000", 5),
        ("combined", "delay=0..2ms, tear=9, reset=5000..9000", 6),
    ];
    for &(tag, plan, seed) in sweep {
        let (agg, counts, proxy_report) = run_workload(tag, Some((plan, seed)));
        let proxy_report = proxy_report.expect("plan runs behind the proxy");
        if plan.contains("reset=") {
            assert!(
                proxy_report.resets > 0,
                "[{tag}] the reset plan never fired — the sweep is vacuous"
            );
        }
        assert_eq!(
            counts.len(),
            CLIENTS * JOBS,
            "[{tag}] every job present in the journal"
        );
        for (id, count) in &counts {
            assert_eq!(
                *count, 1,
                "[{tag}] job {id} has {count} terminal records — a resubmission re-executed"
            );
        }
        assert_eq!(
            agg, baseline_agg,
            "[{tag}] chaos changed the workload's terminal aggregates"
        );
    }
}

#[test]
fn deadline_past_budget_fails_typed_not_hangs() {
    use rigid_dag::format;
    use rigid_dag::gen::{self, TaskSampler};

    let sock = tmp("deadline-daemon.sock");
    let _ = std::fs::remove_file(&sock);
    let opts = ServeOptions {
        bind: Bind::Unix(sock.clone()),
        workers: 1,
        ..ServeOptions::default()
    };
    let daemon = Daemon::start(opts.clone()).expect("daemon starts");
    let mut client = Client::connect(&opts.bind).expect("connect");

    // A heavy instance (thousands of tasks, far beyond a 1 ms budget)
    // and a light control that finishes comfortably within its own.
    let heavy = format::write(&gen::layered(3, 200, 40, &TaskSampler::default_mix(), 16));
    let light = format::write(&gen::layered(4, 6, 4, &TaskSampler::default_mix(), 8));
    let spec = |id: u64, instance: &str, deadline_ms: Option<u64>| JobSpec {
        id,
        scheduler: "catbatch".into(),
        instance: instance.into(),
        gantt: false,
        trace: false,
        idem: None,
        deadline_ms,
    };

    client
        .send(&Request::Submit(spec(1, &heavy, Some(1))))
        .expect("send heavy");
    client
        .send(&Request::Submit(spec(2, &light, Some(60_000))))
        .expect("send light");
    match client.recv().expect("heavy answered") {
        Response::Error(err) => {
            assert_eq!(err.id, 1);
            assert_eq!(err.kind, kind::DEADLINE_EXCEEDED);
            assert!(
                !err.retryable,
                "the same job would blow the same deadline again"
            );
        }
        other => panic!("expected deadline_exceeded, got {other:?}"),
    }
    match client.recv().expect("light answered") {
        Response::Result(res) => assert_eq!(res.id, 2),
        other => panic!("a comfortable deadline must not fail the job: {other:?}"),
    }

    // The Pong surfaces the count, so operators can see deadline
    // pressure without scraping logs.
    match client.call(&Request::Ping { payload: 9 }).expect("ping") {
        Response::Pong {
            payload,
            completed,
            deadline_exceeded,
        } => {
            assert_eq!(payload, 9);
            assert_eq!(completed, 1);
            assert_eq!(deadline_exceeded, 1);
        }
        other => panic!("expected Pong, got {other:?}"),
    }

    daemon.trigger_shutdown();
    daemon.wait();
    let _ = std::fs::remove_file(&sock);
}
