//! Golden serve journal: a `catbatch-serve-journal/v1` file written by
//! an earlier build of the daemon, checked in as
//! `tests/fixtures/serve-v1.jsonl`, must keep reopening into the same
//! state — the on-disk format is frozen.
//!
//! The fixture holds five jobs: three completed (`catbatch` on the
//! paper's Figure 3, `list-fifo` and `backfill` on a 3-task chain), one
//! failed (an instance that does not parse) and one accepted job with
//! no terminal record, the restart backlog. Every submission but job 4
//! carries an idempotency key.

use rigid_serve::journal::JobRecord;
use rigid_serve::ServeJournal;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

const CHAIN: &str = "procs 2\ntask a 1 1\ntask b 2 2\ntask c 0.5 1\nedge a b\nedge b c\n";

fn completed(id: u64, scheduler: &str, makespan: &str, events: u64, ratio: f64) -> JobRecord {
    let (tasks, procs, lower_bound, peak_ready) = match id {
        1 => (11, 4, "9.375", 4),
        _ => (3, 2, "3.5", 1),
    };
    JobRecord::Completed {
        id,
        scheduler: scheduler.into(),
        makespan: makespan.into(),
        events,
        ratio_to_lb: ratio,
        tasks: Some(tasks),
        procs: Some(procs),
        lower_bound: Some(lower_bound.into()),
        peak_ready: Some(peak_ready),
    }
}

#[test]
fn reopening_the_serve_fixture_recovers_backlog_terminals_and_idem_keys() {
    let golden =
        fs::read(Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/serve-v1.jsonl"))
            .expect("serve fixture");
    let copy = std::env::temp_dir().join(format!("serve-golden-{}.jsonl", std::process::id()));
    fs::write(&copy, &golden).unwrap();

    let (journal, state) = ServeJournal::open(&copy).expect("the golden journal reopens");
    journal.close();

    assert!(!state.torn_tail);
    let backlog: Vec<(u64, &str, &str, Option<u64>)> = state
        .pending
        .iter()
        .map(|s| (s.id, s.scheduler.as_str(), s.instance.as_str(), s.idem))
        .collect();
    assert_eq!(backlog, vec![(5, "catbatch", CHAIN, Some(0xa5))]);
    assert_eq!(
        state.terminal,
        vec![
            completed(1, "catbatch", "15.2", 22, 1.6213333333333333),
            completed(2, "list-fifo", "3.5", 6, 1.0),
            JobRecord::Failed {
                id: 3,
                scheduler: "catbatch".into(),
                kind: "parse".into()
            },
            completed(4, "backfill", "3.5", 6, 1.0),
        ]
    );
    assert_eq!(
        state.idem_by_id,
        BTreeMap::from([(1, 0xa1), (2, 0xa2), (3, 0xa3), (5, 0xa5)])
    );
    assert_eq!(
        fs::read(&copy).unwrap(),
        golden,
        "reopening without records changed the file"
    );
    let _ = fs::remove_file(&copy);
}
