//! A plain-text instance format (`.rigid`), for exchanging task graphs
//! with other tools and for the command-line interface.
//!
//! ```text
//! # comments and blank lines are ignored
//! procs 4
//! task A 6 1        # label, execution time, processors
//! task B 2 2
//! task E 2.8 1
//! edge B E          # E runs after B
//! ```
//!
//! Execution times accept integers (`6`), decimals (`2.8` — parsed
//! exactly, no float rounding), and fractions (`34/5`).
//!
//! ## Cost
//!
//! [`parse`] reads the document once and resolves labels through one
//! hash map of labels borrowed from the input, so a document of length
//! `L` with `n` tasks and `m` edges parses in expected
//! `O(L + Σ min(d⁺(u), d⁻(v)))` time, the sum over the edges `u → v`.
//! That term is the duplicate-edge check, [`TaskGraph::has_edge`], which
//! scans the shorter of `u`'s successor and `v`'s predecessor lists. It
//! is `O(m)` for chains, trees, forks and joins of any fan-out, and for
//! layered graphs whose tasks have bounded in-degree. It never exceeds
//! `O(m^1.5)`, which a dense bipartite layer reaches. The acyclicity and
//! width checks are one `O(n + m)` pass, [`Instance::try_new`].

use crate::graph::{Instance, InstanceError, TaskGraph};
use crate::task::{TaskId, TaskSpec};
use rigid_time::Time;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt::Write as _;

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line where parsing failed.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parses an exact time literal: integer, decimal, or `num/den`
/// (delegates to [`rigid_time`]'s `FromStr` implementation).
pub fn parse_time(s: &str) -> Result<Time, String> {
    s.parse::<Time>().map_err(|e| e.message().to_string())
}

/// Parses a `.rigid` instance document (see the module's cost bound).
///
/// Errors are reported in a fixed order: the first malformed line, a
/// missing `procs` line, then the edges in document order (unknown
/// source, unknown target, self-loop, duplicate edge), then a cycle,
/// then an over-wide task.
pub fn parse(text: &str) -> Result<Instance, ParseError> {
    let mut procs: Option<u32> = None;
    let mut graph = TaskGraph::new();
    let mut ids: HashMap<&str, TaskId> = HashMap::new();
    // Edges may name tasks declared further down, so they are resolved
    // once every line has been read.
    let mut edges: Vec<(&str, &str, usize)> = Vec::new();

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
                match ids.entry(label) {
                    Entry::Occupied(_) => {
                        return Err(err(lineno, format!("duplicate task {label:?}")));
                    }
                    Entry::Vacant(slot) => {
                        slot.insert(graph.add_task(TaskSpec::new(time, p).with_label(label)));
                    }
                }
            }
            Some("edge") => {
                let from = words
                    .next()
                    .ok_or_else(|| err(lineno, "edge needs a source"))?;
                let to = words
                    .next()
                    .ok_or_else(|| err(lineno, "edge needs a target"))?;
                edges.push((from, to, lineno));
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
    for (from, to, lineno) in edges {
        let unknown = |label: &str| err(lineno, format!("edge references unknown task {label:?}"));
        let f = *ids.get(from).ok_or_else(|| unknown(from))?;
        let t = *ids.get(to).ok_or_else(|| unknown(to))?;
        if f == t {
            return Err(err(
                lineno,
                format!("edge {from:?} -> {to:?} is a self-loop"),
            ));
        }
        if graph.has_edge(f, t) {
            return Err(err(lineno, format!("duplicate edge {from:?} -> {to:?}")));
        }
        graph.add_edge(f, t);
    }
    Instance::try_new(graph, procs).map_err(|e| {
        let message = match e {
            InstanceError::Cyclic => "the task graph contains a cycle".to_string(),
            InstanceError::TaskTooWide {
                task,
                demand,
                procs,
            } => format!("task {task} needs {demand} > P = {procs} processors"),
            // `procs == 0` was rejected on its own line above.
            other => other.to_string(),
        };
        err(0, message)
    })
}

/// Serializes an instance to the `.rigid` format. Tasks without labels
/// are named by id.
pub fn write(instance: &Instance) -> String {
    let g = instance.graph();
    let mut out = String::new();
    let _ = writeln!(out, "procs {}", instance.procs());
    for (id, spec) in g.tasks() {
        let name = g.display_name(id);
        let _ = writeln!(out, "task {name} {} {}", spec.time, spec.procs);
    }
    for id in g.task_ids() {
        let from = g.display_name(id);
        for &s in g.succs(id) {
            let _ = writeln!(out, "edge {from} {}", g.display_name(s));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\n# a small instance\nprocs 4\ntask A 6 1\ntask B 2 2\ntask E 2.8 1   # decimal time\ntask F 3/5 1   # fractional time\nedge B E\nedge A F\n";

    #[test]
    fn parse_roundtrip() {
        let inst = parse(SAMPLE).unwrap();
        assert_eq!(inst.procs(), 4);
        assert_eq!(inst.len(), 4);
        let g = inst.graph();
        let e = g.find_by_label("E").unwrap();
        assert_eq!(g.spec(e).time, Time::from_millis(2, 800));
        let f = g.find_by_label("F").unwrap();
        assert_eq!(g.spec(f).time, Time::from_ratio(3, 5));
        assert_eq!(g.preds(e), &[g.find_by_label("B").unwrap()]);

        // Serialize and re-parse: identical structure.
        let text = write(&inst);
        let back = parse(&text).unwrap();
        assert_eq!(back.len(), inst.len());
        assert_eq!(back.graph().edge_count(), inst.graph().edge_count());
        let e2 = back.graph().find_by_label("E").unwrap();
        assert_eq!(back.graph().spec(e2).time, Time::from_millis(2, 800));
    }

    #[test]
    fn parse_time_forms() {
        assert_eq!(parse_time("6").unwrap(), Time::from_int(6));
        assert_eq!(parse_time("2.8").unwrap(), Time::from_millis(2, 800));
        assert_eq!(parse_time("34/5").unwrap(), Time::from_millis(6, 800));
        assert_eq!(parse_time("0.125").unwrap(), Time::from_ratio(1, 8));
        assert_eq!(parse_time("-1.5").unwrap(), Time::from_ratio(-3, 2));
        assert!(parse_time("abc").is_err());
        assert!(parse_time("1/0").is_err());
        assert!(parse_time("1.x").is_err());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "procs 4\ntask A 1 1\nedge A Z\n";
        let e = parse(bad).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("unknown task"));
    }

    #[test]
    fn missing_procs_rejected() {
        assert!(parse("task A 1 1\n").unwrap_err().message.contains("procs"));
    }

    #[test]
    fn duplicate_task_rejected() {
        let bad = "procs 2\ntask A 1 1\ntask A 2 1\n";
        assert!(parse(bad).unwrap_err().message.contains("duplicate"));
    }

    #[test]
    fn cycle_rejected() {
        let bad = "procs 2\ntask A 1 1\ntask B 1 1\nedge A B\nedge B A\n";
        assert!(parse(bad).unwrap_err().message.contains("cycle"));
    }

    #[test]
    fn oversized_task_rejected() {
        let bad = "procs 2\ntask A 1 5\n";
        assert!(parse(bad).unwrap_err().message.contains("processors"));
    }

    #[test]
    fn zero_proc_task_is_typed_error() {
        // Regression: this used to reach `TaskSpec::new`'s assert and
        // panic instead of returning a `ParseError`.
        let bad = "procs 2\ntask A 1 0\n";
        let e = parse(bad).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("at least one processor"));
    }

    #[test]
    fn zero_platform_is_typed_error() {
        let e = parse("procs 0\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("at least one processor"));
    }

    #[test]
    fn self_loop_edge_is_typed_error() {
        // Regression: used to hit `TaskGraph::add_edge`'s self-loop assert.
        let bad = "procs 2\ntask A 1 1\nedge A A\n";
        let e = parse(bad).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("self-loop"));
    }

    #[test]
    fn duplicate_edge_is_typed_error() {
        // Regression: used to hit `TaskGraph::add_edge`'s duplicate assert.
        let bad = "procs 2\ntask A 1 1\ntask B 1 1\nedge A B\nedge A B\n";
        let e = parse(bad).unwrap_err();
        assert_eq!(e.line, 5);
        assert!(e.message.contains("duplicate edge"));
    }

    #[test]
    fn negative_and_zero_times_are_typed_errors() {
        assert!(parse("procs 2\ntask A -1 1\n")
            .unwrap_err()
            .message
            .contains("positive"));
        assert!(parse("procs 2\ntask A 0 1\n")
            .unwrap_err()
            .message
            .contains("positive"));
    }

    #[test]
    fn figure3_through_format() {
        // The paper example survives a write/parse round trip with exact
        // times.
        let inst = crate::paper::figure3();
        let text = write(&inst);
        let back = parse(&text).unwrap();
        assert_eq!(back.len(), 11);
        let j = back.graph().find_by_label("J").unwrap();
        assert_eq!(back.graph().spec(j).time, Time::from_millis(0, 800));
    }
}
