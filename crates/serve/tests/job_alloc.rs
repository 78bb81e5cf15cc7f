//! Heap allocations one daemon job makes, per task.
//!
//! This test binary holds one test and a counting global allocator, so
//! the count is deterministic: it sees only this process's allocations,
//! and nothing else runs while the measured region does. `realloc`
//! keeps the default (allocate, copy, free), so a vector that regrows
//! counts one allocation per regrowth.

use rigid_dag::format;
use rigid_dag::gen::{self, TaskSampler};
use rigid_serve::{run_one, JobSpec, Response, ServeOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Allocation calls so far.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter only observes the calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A CatBatch job of 2,126 tasks on P = 16, the shape of the repository
/// benchmark's large daemon job, asking for neither a chart nor a trace.
///
/// When the job wrote the parsed instance back to text to hash it for
/// the quarantine key, cloned the instance for the attempt and recorded
/// a full schedule to read its makespan, it made 29,558 allocations
/// (13.9 per task). Hashing the request text, sharing the instance and
/// running stats-only, it makes 11,181 (5.3 per task), most of them in
/// parsing.
#[test]
fn a_stats_only_catbatch_job_allocates_below_8_per_task() {
    let inst = gen::layered(1, 200, 19, &TaskSampler::default_mix(), 16);
    let tasks = inst.len();
    let job = JobSpec {
        id: 1,
        scheduler: "catbatch".into(),
        instance: format::write(&inst),
        gantt: false,
        trace: false,
        idem: None,
        deadline_ms: None,
    };
    drop(inst);
    let options = ServeOptions::default();

    let before = ALLOCS.load(Relaxed);
    let response = run_one(&job, &options);
    let allocs = ALLOCS.load(Relaxed) - before;

    assert!(
        matches!(&response, Response::Result(r) if r.tasks == tasks),
        "the job completes: {response:?}"
    );
    let per_task = allocs as f64 / tasks as f64;
    assert!(
        per_task < 8.0,
        "{allocs} allocations for {tasks} tasks: {per_task:.1} per task"
    );
}
