//! Property tests: the `.rigid` text parser and the serde JSON path
//! must *never* panic, whatever bytes they are fed. Malformed edges,
//! `p_i = 0`, `p_i > P`, zero or negative times, self-loops, duplicate
//! edges, and plain garbage must all come back as typed errors.
//!
//! A panic anywhere in `format::parse` or `serde_json::from_str` fails
//! the test directly, so each case simply feeds the parser and, when it
//! accepts, checks the model invariants the parser promises.
//!
//! `format::parse` is also checked against `quadratic_parse`, a copy of
//! the parser before its label and duplicate-edge lookups were hashed:
//! both must build equal instances or report the same first error.

use proptest::prelude::*;
use rigid_dag::format::{self, parse_time, ParseError};
use rigid_dag::{DagBuilder, Instance};

/// Renders one pseudo-random document line from a generated tuple.
/// Labels collide on purpose (only four distinct names) so duplicate
/// tasks, self-loops, duplicate edges, and unknown references all occur
/// with high probability.
fn render_line(kind: u8, a: i64, b: i64, labels: u8) -> String {
    let t1 = format!("T{}", labels % 4);
    let t2 = format!("T{}", (labels >> 2) % 4);
    match kind % 8 {
        0 => format!("procs {a}"),
        1 => format!("task {t1} {a} {b}"),
        2 => format!("task {t1} {a}.{} {b}", b.unsigned_abs() % 1000),
        3 => format!("task {t1} {a}/{b} {b}"),
        4 => format!("edge {t1} {t2}"),
        5 => format!("# comment {a}"),
        6 => format!("bogus {a} {b}"),
        _ => format!("task {t1} {a} {b} extra"),
    }
}

/// When the parser accepts a document it must uphold the model's
/// invariants: a positive platform, `1 <= p_i <= P`, positive times,
/// and an acyclic graph.
fn assert_model_invariants(inst: &Instance) {
    assert!(inst.procs() >= 1);
    for (_, spec) in inst.graph().tasks() {
        assert!(spec.procs >= 1);
        assert!(spec.procs <= inst.procs());
        assert!(spec.time.is_positive());
    }
    assert!(inst.graph().is_acyclic());
}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// The `.rigid` parser as it was before label and duplicate-edge lookups
/// became hash and adjacency lookups: a linear scan over earlier labels
/// per task line and over earlier edges per edge line. It is the oracle
/// for `format::parse`'s results and for the order of its error checks.
fn quadratic_parse(text: &str) -> Result<Instance, ParseError> {
    let mut procs: Option<u32> = None;
    let mut builder = DagBuilder::new();
    let mut edges: Vec<(String, String, usize)> = Vec::new();
    let mut labels: Vec<String> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut words = line.split_whitespace();
        match words.next() {
            Some("procs") => {
                let v = words
                    .next()
                    .ok_or_else(|| err(lineno, "procs needs a value"))?;
                let v: u32 = v
                    .parse()
                    .map_err(|_| err(lineno, format!("bad processor count {v:?}")))?;
                if v == 0 {
                    return Err(err(lineno, "platform needs at least one processor"));
                }
                if procs.replace(v).is_some() {
                    return Err(err(lineno, "duplicate procs line"));
                }
            }
            Some("task") => {
                let label = words
                    .next()
                    .ok_or_else(|| err(lineno, "task needs a label"))?;
                let time = words
                    .next()
                    .ok_or_else(|| err(lineno, "task needs an execution time"))?;
                let p = words
                    .next()
                    .ok_or_else(|| err(lineno, "task needs a processor count"))?;
                let time = parse_time(time).map_err(|m| err(lineno, m))?;
                if !time.is_positive() {
                    return Err(err(lineno, "task time must be positive"));
                }
                let p: u32 = p
                    .parse()
                    .map_err(|_| err(lineno, format!("bad processor count {p:?}")))?;
                if p == 0 {
                    return Err(err(lineno, "task needs at least one processor"));
                }
                if labels.iter().any(|l| l == label) {
                    return Err(err(lineno, format!("duplicate task {label:?}")));
                }
                labels.push(label.to_string());
                builder = builder.task(label, time, p);
            }
            Some("edge") => {
                let from = words
                    .next()
                    .ok_or_else(|| err(lineno, "edge needs a source"))?;
                let to = words
                    .next()
                    .ok_or_else(|| err(lineno, "edge needs a target"))?;
                edges.push((from.to_string(), to.to_string(), lineno));
            }
            Some(other) => {
                return Err(err(lineno, format!("unknown directive {other:?}")));
            }
            None => unreachable!("blank lines filtered"),
        }
        if let Some(extra) = words.next() {
            return Err(err(lineno, format!("trailing junk {extra:?}")));
        }
    }

    let procs = procs.ok_or_else(|| err(0, "missing `procs` line"))?;
    let mut seen_edges: Vec<(String, String)> = Vec::new();
    for (from, to, lineno) in edges {
        if builder.id(&from).is_none() {
            return Err(err(
                lineno,
                format!("edge references unknown task {from:?}"),
            ));
        }
        if builder.id(&to).is_none() {
            return Err(err(lineno, format!("edge references unknown task {to:?}")));
        }
        if from == to {
            return Err(err(
                lineno,
                format!("edge {from:?} -> {to:?} is a self-loop"),
            ));
        }
        if seen_edges.iter().any(|(f, t)| *f == from && *t == to) {
            return Err(err(lineno, format!("duplicate edge {from:?} -> {to:?}")));
        }
        builder = builder.edge(&from, &to);
        seen_edges.push((from, to));
    }
    let graph = builder.build_graph();
    if !graph.is_acyclic() {
        return Err(err(0, "the task graph contains a cycle"));
    }
    for (id, spec) in graph.tasks() {
        if spec.procs > procs {
            return Err(err(
                0,
                format!("task {id} needs {} > P = {procs} processors", spec.procs),
            ));
        }
    }
    Ok(Instance::new(graph, procs))
}

/// Faults [`render_graph_doc`] may plant in a document, one bit each.
const NO_PROCS: u8 = 1;
const LATE_PROCS: u8 = 1 << 1;
const DUPLICATE_PROCS: u8 = 1 << 2;
const DUPLICATE_TASK: u8 = 1 << 3;
const UNKNOWN_ENDPOINT: u8 = 1 << 4;
const SELF_LOOP: u8 = 1 << 5;
const CYCLE: u8 = 1 << 6;
const OVER_WIDE: u8 = 1 << 7;

/// Renders a document from `lines`: two thirds are task lines declaring
/// `L0, L1, …` in turn, the rest edges between declared labels, pointing
/// from the lower label to the higher one. Edge lines before their
/// endpoints' task lines are forward references, and the small label
/// pool repeats some edges. Each bit of `faults` plants one more kind
/// of error: no `procs` line, or a late or second one; a task line that
/// re-declares the previous label; edges to the two never-declared
/// labels after the last; self-loops; reversed copies of the previous
/// edge (cycles); tasks one processor wider than the platform.
fn render_graph_doc(faults: u8, lines: &[(u8, u8, u8, u8)]) -> String {
    const P: u32 = 4;
    let tasks = lines.iter().filter(|l| l.0 % 3 != 0).count();
    let unknown = if faults & UNKNOWN_ENDPOINT != 0 { 2 } else { 0 };
    let pool = (tasks + unknown).max(2);
    let procs_after = if faults & LATE_PROCS != 0 {
        lines.len() / 2
    } else {
        0
    };
    let mut doc = String::new();
    let mut declared = 0;
    let mut last_edge = (0, 1);
    for (i, &(kind, a, b, c)) in lines.iter().enumerate() {
        if i == procs_after && faults & NO_PROCS == 0 {
            doc.push_str("procs 4\n");
        }
        if kind % 3 != 0 {
            if !(faults & DUPLICATE_TASK != 0 && c % 8 == 0 && declared > 0) {
                declared += 1;
            }
            let width = if faults & OVER_WIDE != 0 && c % 8 == 1 {
                P + 1
            } else {
                1 + u32::from(b) % P
            };
            doc.push_str(&format!(
                "task L{} {}/{} {width}\n",
                declared - 1,
                1 + a % 9,
                1 + a % 4
            ));
            continue;
        }
        let (from, to) = match c % 4 {
            0 if faults & CYCLE != 0 => (last_edge.1, last_edge.0),
            1 if faults & SELF_LOOP != 0 => (usize::from(a) % pool, usize::from(a) % pool),
            _ => {
                let (x, y) = (usize::from(a) % pool, usize::from(b) % (pool - 1));
                // `y` skips `x`, so the pair is two distinct labels.
                let y = if y >= x { y + 1 } else { y };
                (x.min(y), x.max(y))
            }
        };
        last_edge = (from, to);
        doc.push_str(&format!("edge L{from} L{to}\n"));
    }
    if faults & DUPLICATE_PROCS != 0 || (lines.is_empty() && faults & NO_PROCS == 0) {
        doc.push_str("procs 4\n");
    }
    doc
}

/// Both parsers reached the same verdict: equal instances, or the same
/// line and message.
fn assert_same_verdict(doc: &str) {
    match (format::parse(doc), quadratic_parse(doc)) {
        (Ok(new), Ok(old)) => {
            assert_eq!(new.procs(), old.procs(), "{doc}");
            assert_eq!(new.graph(), old.graph(), "{doc}");
        }
        (Err(new), Err(old)) => assert_eq!(new, old, "{doc}"),
        (new, old) => panic!(
            "verdicts differ on\n{doc}\nparse: {:?}\nquadratic: {:?}",
            new.map(|i| i.len()),
            old.map(|i| i.len())
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Raw bytes (lossily decoded) never panic the text parser.
    #[test]
    fn rigid_parse_never_panics_on_bytes(bytes in prop::collection::vec(0u8..=255, 0..256usize)) {
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(inst) = format::parse(&text) {
            assert_model_invariants(&inst);
        }
    }

    /// Grammar-shaped hostile documents — valid directives with invalid
    /// numbers, colliding labels, self-loops, duplicate edges — never
    /// panic, and accepted documents satisfy the model invariants.
    #[test]
    fn rigid_parse_never_panics_on_hostile_directives(
        lines in prop::collection::vec(
            (0u8..=255, -20i64..1_000_000_000_000_000_000, -20i64..50, 0u8..=255),
            0..24usize,
        ),
    ) {
        let doc: String = lines
            .iter()
            .map(|&(kind, a, b, labels)| render_line(kind, a, b, labels) + "\n")
            .collect();
        if let Ok(inst) = format::parse(&doc) {
            assert_model_invariants(&inst);
            // Accepted documents reserialize and reparse cleanly.
            let back = format::parse(&format::write(&inst)).expect("reparse of canonical form");
            assert_eq!(back.len(), inst.len());
            assert_eq!(back.graph().edge_count(), inst.graph().edge_count());
        }
    }

    /// Raw bytes never panic the JSON deserializer for `Instance`.
    #[test]
    fn json_parse_never_panics_on_bytes(bytes in prop::collection::vec(0u8..=255, 0..256usize)) {
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(inst) = serde_json::from_str::<Instance>(&text) {
            // The serde path bypasses `Instance::try_new`, so only the
            // structural guarantees of the data model itself hold here;
            // reserialization must still work.
            let _ = serde_json::to_string(&inst);
        }
    }

    /// Valid instance JSON roundtrips exactly, and every truncation of
    /// it is rejected with a typed error rather than a panic.
    #[test]
    fn json_roundtrip_and_truncations(
        lines in prop::collection::vec(
            (0u8..=255, 1i64..100, 1i64..8, 0u8..=255),
            1..16usize,
        ),
        cut in 0usize..4096,
    ) {
        let doc: String = lines
            .iter()
            .map(|&(kind, a, b, labels)| render_line(kind, a, b, labels) + "\n")
            .collect();
        let Ok(inst) = format::parse(&doc) else { return Ok(()) };
        let json = serde_json::to_string(&inst).expect("serialize");
        let back: Instance = serde_json::from_str(&json).expect("roundtrip");
        assert_eq!(serde_json::to_string(&back).expect("reserialize"), json);

        // Truncating at any char boundary must not panic.
        let cut = cut.min(json.len());
        if json.is_char_boundary(cut) {
            let _ = serde_json::from_str::<Instance>(&json[..cut]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// `format::parse` agrees with the quadratic oracle on documents
    /// over a small label pool: the same instance when both accept, the
    /// same first error when both reject.
    #[test]
    fn parse_matches_quadratic_oracle(
        // Each fault bit is set with probability 1/8, so about a third
        // of the documents carry no planted fault.
        masks in (0u8..=255, 0u8..=255, 0u8..=255),
        lines in prop::collection::vec((0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255), 0..40usize),
    ) {
        assert_same_verdict(&render_graph_doc(masks.0 & masks.1 & masks.2, &lines));
    }

    /// The same agreement on `render_line`'s hostile directives: bad
    /// numbers, unknown directives and trailing junk.
    #[test]
    fn parse_matches_quadratic_oracle_on_hostile_directives(
        lines in prop::collection::vec(
            (0u8..=255, -20i64..1_000_000_000_000_000_000, -20i64..50, 0u8..=255),
            0..24usize,
        ),
    ) {
        let doc: String = lines
            .iter()
            .map(|&(kind, a, b, labels)| render_line(kind, a, b, labels) + "\n")
            .collect();
        assert_same_verdict(&doc);
    }
}
