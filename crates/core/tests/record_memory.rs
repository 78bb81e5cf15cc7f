//! Peak heap held by a full-recording CatBatch run, per task.
//!
//! This test binary holds one test and a counting global allocator, so
//! the count is deterministic: it sees only this process's allocations,
//! and nothing else runs while the measured region does. `realloc` keeps
//! the default (allocate, copy, free), so a vector that regrows counts
//! both its old and its new buffer at the moment of the copy.

use catbatch::CatBatch;
use rigid_dag::gen::{self, TaskSampler};
use rigid_dag::{Instance, StaticSource, TaskGraph, TaskId};
use rigid_sim::EngineConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Bytes currently allocated, and the most ever allocated at once.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters only observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through as is.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The disjoint union of instances on the first one's platform.
fn disjoint_union(parts: &[Instance]) -> Instance {
    let mut g = TaskGraph::new();
    for part in parts {
        let src = part.graph();
        let base = g.len() as u32;
        for (_, spec) in src.tasks() {
            g.add_task(spec.clone());
        }
        for id in src.task_ids() {
            for &s in src.succs(id) {
                g.add_edge(TaskId(base + id.0), TaskId(base + s.0));
            }
        }
    }
    Instance::new(g, parts[0].procs())
}

/// The repository benchmark's `catbatch` simulation instance at one
/// tenth of its size: a layered DAG (500 layers of up to 200 tasks) and
/// a fork–join DAG (250 phases of up to 400 tasks) on P = 64.
///
/// Counted above the level reached once the instance is cloned, a
/// `StaticSource` over the clone plus a full-recording CatBatch run
/// peaked at 795 bytes per task when the run rebuilt the revealed graph,
/// kept release times in a map, regrew its schedule and prebuilt every
/// release. Without those it peaks at 317.
///
/// Validating the result then peaked at 154 bytes per task above the
/// held result while `Schedule::validate` put every start and finish
/// instant into a map; sorting two vectors of references takes 16.
#[test]
fn full_recording_catbatch_run_peaks_below_450_bytes_per_task() {
    let mix = TaskSampler::default_mix();
    let inst = disjoint_union(&[
        gen::layered(1, 500, 200, &mix, 64),
        gen::fork_join(2, 250, 400, &mix, 64),
    ]);
    let n = inst.len();
    assert!((95_000..110_000).contains(&n), "{n} tasks");

    let copy = inst.clone();
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let mut source = StaticSource::new(copy);
    let run = EngineConfig::new().run(&mut source, &mut CatBatch::new());
    let per_task = (PEAK.load(Relaxed) - base) as f64 / n as f64;

    assert_eq!(run.schedule.len(), n);
    assert!(
        per_task < 450.0,
        "{per_task:.0} B/task at the peak over {n} tasks"
    );

    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let violations = run.schedule.validate(&inst);
    let per_task = (PEAK.load(Relaxed) - base) as f64 / n as f64;
    assert!(violations.is_empty(), "{violations:?}");
    assert!(
        per_task < 40.0,
        "validate peaked {per_task:.1} B/task above the result"
    );
}
