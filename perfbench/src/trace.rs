//! Traced-run tooling: an in-memory span recorder, self-time
//! computation, and generic timing shims around the engine's callbacks.
//!
//! A span has a name, a start, an end, an optional parent and an
//! optional job id (serve requests). Spans are kept in memory and
//! written out as JSON lines when the run ends. The engine calls its
//! source and scheduler millions of times per run, so those leaf spans
//! are folded into per-name totals under their parent span as they
//! close instead of being stored one by one; everything else is kept
//! whole. A span's self time is its duration minus the part of its
//! interval covered by child spans (folded leaves included).
//!
//! The shims are generic wrappers, so a traced engine run is still
//! monomorphized over the concrete source and scheduler types.

use rigid_dag::{InstanceSource, ReleasedTask, TaskId};
use rigid_sim::{FailureResponse, OnlineScheduler};
use rigid_time::Time;
use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a span within its [`Recorder`].
pub type SpanId = usize;

/// One recorded span; times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    /// `None` while the span is open.
    end_ns: Option<u64>,
    parent: Option<SpanId>,
    job: Option<u64>,
}

/// Leaf spans folded into one total under a parent span.
#[derive(Clone, Debug)]
struct Folded {
    name: &'static str,
    parent: SpanId,
    count: u64,
    total_ns: u64,
}

#[derive(Default)]
struct Spans {
    spans: Vec<Span>,
    folded: Vec<Folded>,
}

/// Thread-safe in-memory span store.
pub struct Recorder {
    epoch: Instant,
    inner: Mutex<Spans>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            inner: Mutex::new(Spans::default()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Spans> {
        self.inner.lock().expect("span recorder lock poisoned")
    }

    /// Opens a span starting now.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.ns(Instant::now());
        let mut s = self.lock();
        s.spans.push(Span {
            name,
            start_ns,
            end_ns: None,
            parent,
            job: None,
        });
        s.spans.len() - 1
    }

    /// Closes an open span now.
    pub fn close(&self, id: SpanId) {
        let end = self.ns(Instant::now());
        self.lock().spans[id].end_ns = Some(end);
    }

    /// Times `f` as a span named `name`.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.open(name, parent);
        let out = f(id);
        self.close(id);
        out
    }

    /// Records an already finished span (serve jobs, timed from their due
    /// time to their response).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        job: Option<u64>,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.lock().spans.push(Span {
            name,
            start_ns,
            end_ns: Some(end_ns),
            parent,
            job,
        });
    }

    /// Folds the shim totals in `leaves` under `parent`.
    pub fn fold(&self, parent: SpanId, leaves: &LeafTotals) {
        let mut s = self.lock();
        for (i, name) in leaves.names.iter().enumerate() {
            let count = leaves.count[i].get();
            if count > 0 {
                s.folded.push(Folded {
                    name,
                    parent,
                    count,
                    total_ns: leaves.ns[i].get(),
                });
            }
        }
    }

    /// Duration of a closed span, in seconds.
    pub fn duration_s(&self, id: SpanId) -> f64 {
        let s = self.lock();
        let span = &s.spans[id];
        span.end_ns
            .expect("span is closed")
            .saturating_sub(span.start_ns) as f64
            / 1e9
    }

    /// Self time of a closed span, in seconds: its duration minus the
    /// union of its children's intervals (clipped to it) and its folded
    /// leaf totals.
    pub fn self_s(&self, id: SpanId) -> f64 {
        let s = self.lock();
        let span = &s.spans[id];
        let (lo, hi) = (span.start_ns, span.end_ns.expect("span is closed"));
        let mut children: Vec<(u64, u64)> = s
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .filter_map(|c| Some((c.start_ns.max(lo), c.end_ns?.min(hi))))
            .filter(|(a, b)| a < b)
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut reach = lo;
        for (a, b) in children {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        covered += s
            .folded
            .iter()
            .filter(|f| f.parent == id)
            .map(|f| f.total_ns)
            .sum::<u64>();
        hi.saturating_sub(lo).saturating_sub(covered) as f64 / 1e9
    }

    /// Writes every span and folded total as JSON lines.
    pub fn dump(&self, path: &std::path::Path) -> std::io::Result<()> {
        let s = self.lock();
        let mut out = String::new();
        for (id, span) in s.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{}",
                span.name, span.start_ns
            );
            if let Some(end) = span.end_ns {
                let _ = write!(out, ",\"end_ns\":{end}");
            }
            if let Some(p) = span.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(job) = span.job {
                let _ = write!(out, ",\"job\":{job}");
            }
            out.push_str("}\n");
        }
        for f in &s.folded {
            let _ = writeln!(
                out,
                "{{\"folded\":\"{}\",\"parent\":{},\"count\":{},\"total_ns\":{}}}",
                f.name, f.parent, f.count, f.total_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// Kinds of engine callback the shims time.
#[derive(Clone, Copy)]
pub enum Leaf {
    /// `InstanceSource::initial_into`.
    SourceInitial = 0,
    /// `InstanceSource::on_complete_into`.
    SourceComplete,
    /// `OnlineScheduler::on_release`.
    Release,
    /// `OnlineScheduler::on_complete`.
    Complete,
    /// `OnlineScheduler::decide` / `decide_into`.
    Decide,
    /// `OnlineScheduler::on_failure`.
    Failure,
}

const LEAVES: usize = 6;

/// Per-callback counts and time, accumulated by the shims of one
/// (single-threaded) engine run and folded into a [`Recorder`] after it.
pub struct LeafTotals {
    names: [&'static str; LEAVES],
    count: [Cell<u64>; LEAVES],
    ns: [Cell<u64>; LEAVES],
    /// Decide rounds that started at least one task.
    useful_decides: Cell<u64>,
}

impl LeafTotals {
    /// Totals whose scheduler leaves are named after `layer` (`core` for
    /// CatBatch, `baselines` for the list scheduler).
    pub fn new(layer: &'static str) -> Self {
        let names = match layer {
            "core" => [
                "dag.source.initial",
                "dag.source.complete",
                "core.release",
                "core.complete",
                "core.decide",
                "core.failure",
            ],
            _ => [
                "dag.source.initial",
                "dag.source.complete",
                "baselines.release",
                "baselines.complete",
                "baselines.decide",
                "baselines.failure",
            ],
        };
        LeafTotals {
            names,
            count: Default::default(),
            ns: Default::default(),
            useful_decides: Cell::new(0),
        }
    }

    fn add(&self, leaf: Leaf, since: Instant) {
        let ns = since.elapsed().as_nanos() as u64;
        let i = leaf as usize;
        self.count[i].set(self.count[i].get() + 1);
        self.ns[i].set(self.ns[i].get() + ns);
    }

    /// Calls of one callback kind.
    pub fn calls(&self, leaf: Leaf) -> u64 {
        self.count[leaf as usize].get()
    }

    /// Total time in one callback kind, seconds.
    pub fn seconds(&self, leaf: Leaf) -> f64 {
        self.ns[leaf as usize].get() as f64 / 1e9
    }

    /// Decide rounds that started at least one task, over all rounds.
    pub fn useful_decide_frac(&self) -> f64 {
        let calls = self.calls(Leaf::Decide);
        if calls == 0 {
            0.0
        } else {
            self.useful_decides.get() as f64 / calls as f64
        }
    }
}

/// Times an [`InstanceSource`]'s release callbacks. Constant-time
/// queries (`procs`, `expects_more`, `next_timed_release`,
/// `timed_releases_into`, `task_count_hint`) are forwarded untimed:
/// timing them would cost more than they do.
pub struct TracedSource<'a, S> {
    /// The wrapped source.
    pub inner: S,
    leaves: &'a LeafTotals,
}

impl<'a, S> TracedSource<'a, S> {
    /// Wraps `inner`, accumulating into `leaves`.
    pub fn new(inner: S, leaves: &'a LeafTotals) -> Self {
        TracedSource { inner, leaves }
    }
}

impl<S: InstanceSource> InstanceSource for TracedSource<'_, S> {
    fn procs(&self) -> u32 {
        self.inner.procs()
    }

    fn initial_into(&mut self, out: &mut Vec<ReleasedTask>) {
        let t = Instant::now();
        self.inner.initial_into(out);
        self.leaves.add(Leaf::SourceInitial, t);
    }

    fn on_complete_into(
        &mut self,
        task: TaskId,
        completion_index: u64,
        out: &mut Vec<ReleasedTask>,
    ) {
        let t = Instant::now();
        self.inner.on_complete_into(task, completion_index, out);
        self.leaves.add(Leaf::SourceComplete, t);
    }

    fn expects_more(&self) -> bool {
        self.inner.expects_more()
    }

    fn next_timed_release(&self, now: Time) -> Option<Time> {
        self.inner.next_timed_release(now)
    }

    fn timed_releases_into(&mut self, now: Time, out: &mut Vec<ReleasedTask>) {
        self.inner.timed_releases_into(now, out);
    }

    fn task_count_hint(&self) -> Option<usize> {
        self.inner.task_count_hint()
    }
}

/// Times every [`OnlineScheduler`] callback and counts the decide rounds
/// that start something.
pub struct TracedScheduler<'a, C> {
    /// The wrapped scheduler.
    pub inner: C,
    leaves: &'a LeafTotals,
}

impl<'a, C> TracedScheduler<'a, C> {
    /// Wraps `inner`, accumulating into `leaves`.
    pub fn new(inner: C, leaves: &'a LeafTotals) -> Self {
        TracedScheduler { inner, leaves }
    }
}

impl<C: OnlineScheduler> OnlineScheduler for TracedScheduler<'_, C> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_release(&mut self, task: &ReleasedTask, now: Time) {
        let t = Instant::now();
        self.inner.on_release(task, now);
        self.leaves.add(Leaf::Release, t);
    }

    fn on_complete(&mut self, task: TaskId, now: Time) {
        let t = Instant::now();
        self.inner.on_complete(task, now);
        self.leaves.add(Leaf::Complete, t);
    }

    fn decide(&mut self, now: Time, free_procs: u32) -> Vec<TaskId> {
        let mut out = Vec::new();
        self.decide_into(now, free_procs, &mut out);
        out
    }

    fn decide_into(&mut self, now: Time, free_procs: u32, out: &mut Vec<TaskId>) {
        let before = out.len();
        let t = Instant::now();
        self.inner.decide_into(now, free_procs, out);
        self.leaves.add(Leaf::Decide, t);
        if out.len() > before {
            self.leaves
                .useful_decides
                .set(self.leaves.useful_decides.get() + 1);
        }
    }

    fn on_failure(&mut self, task: TaskId, now: Time) -> FailureResponse {
        let t = Instant::now();
        let response = self.inner.on_failure(task, now);
        self.leaves.add(Leaf::Failure, t);
        response
    }
}
