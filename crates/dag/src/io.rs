//! Instance import/export: Graphviz DOT rendering and (via `serde`) JSON.

use crate::graph::Instance;
use std::fmt::Write as _;

/// Escapes a string for use inside a double-quoted DOT string literal:
/// backslashes and quotes are escaped, newlines become `\n` line breaks.
fn dot_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Renders an instance as a Graphviz DOT digraph. Node labels show the
/// task label (or id), execution time and processor requirement.
pub fn to_dot(instance: &Instance) -> String {
    let g = instance.graph();
    let mut out = String::new();
    let _ = writeln!(out, "digraph instance {{");
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(
        out,
        "  label=\"P = {} processors, n = {} tasks\";",
        instance.procs(),
        g.len()
    );
    for (id, spec) in g.tasks() {
        let name = g.display_name(id).to_string();
        let _ = writeln!(
            out,
            "  n{} [label=\"{}\\nt={} p={}\"];",
            id.0,
            dot_escape(&name),
            spec.time,
            spec.procs
        );
    }
    for id in g.task_ids() {
        for &s in g.succs(id) {
            let _ = writeln!(out, "  n{} -> n{};", id.0, s.0);
        }
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DagBuilder;
    use rigid_time::Time;

    fn small() -> Instance {
        DagBuilder::new()
            .task("A", Time::from_int(1), 1)
            .task("B", Time::from_millis(2, 500), 2)
            .edge("A", "B")
            .build(4)
    }

    #[test]
    fn dot_contains_nodes_and_edges() {
        let dot = to_dot(&small());
        assert!(dot.contains("digraph instance"));
        assert!(dot.contains("t=1 p=1"));
        assert!(dot.contains("t=2.5 p=2"));
        assert!(dot.contains("n0 -> n1;"));
    }

    /// Labels containing quotes, backslashes or newlines must not break
    /// the emitted DOT string literals.
    #[test]
    fn dot_escapes_hostile_labels() {
        let inst = DagBuilder::new()
            .task("say \"hi\"", Time::from_int(1), 1)
            .task("back\\slash", Time::from_int(1), 1)
            .task("two\nlines", Time::from_int(1), 1)
            .build(2);
        let dot = to_dot(&inst);
        assert!(dot.contains("say \\\"hi\\\""));
        assert!(dot.contains("back\\\\slash"));
        assert!(dot.contains("two\\nlines"));
        // Every label attribute stays on one physical line with balanced
        // (unescaped) quotes.
        for line in dot.lines().filter(|l| l.contains("[label=")) {
            let unescaped = line.replace("\\\\", "").replace("\\\"", "");
            assert_eq!(
                unescaped.matches('"').count(),
                2,
                "unbalanced quotes in {line:?}"
            );
        }
    }

    #[test]
    fn json_roundtrip() {
        let inst = small();
        let json = serde_json::to_string(&inst).unwrap();
        let back: Instance = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), inst.len());
        assert_eq!(back.procs(), inst.procs());
        assert_eq!(back.graph().edge_count(), inst.graph().edge_count());
        let a = back.graph().find_by_label("A").unwrap();
        assert_eq!(back.graph().spec(a).time, Time::from_int(1));
    }
}
