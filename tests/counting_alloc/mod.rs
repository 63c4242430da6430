//! What the allocation budgets share: a global allocator that counts the
//! calls that hand out memory, and the fixed load each budget runs. The
//! count is process-global, so each budget is a test binary of its own,
//! with one test, that includes this module. The simulation runs on one
//! worker, on the test's own thread, so the count is the same on every run
//! of one build.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use rablock::sim::SimDuration;
use rablock::PipelineMode;
use rablock_bench::scenarios::{small_cluster, ConnLoad};

/// Counts the calls that hand out memory (`alloc`, `alloc_zeroed`,
/// `realloc`) made by a thread while it is armed.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls `f` makes on this thread.
fn calls_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.load(Ordering::Relaxed);
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, CALLS.load(Ordering::Relaxed) - before)
}

/// The small cluster's 8 connections, 512 aligned 4 KiB writes each: every
/// write goes to its primary and one replica and reaches the store on both.
const LOAD: ConnLoad = ConnLoad {
    conns: 8,
    writes: 512,
    reads: 0,
    object_bytes: 64 << 10,
};

/// Runs [`LOAD`] on the small cluster in `mode`, prints its allocator calls
/// over the whole run — messages, events, op logs, both stores; set-up
/// excluded — and fails if they exceed `max_calls`.
pub fn assert_within_budget(mode: PipelineMode, max_calls: u64) {
    let mut sim = LOAD.sim(small_cluster(mode));
    let (report, calls) = calls_during(|| sim.run(SimDuration::ZERO, SimDuration::millis(200)));
    let writes = LOAD.conns * LOAD.writes;
    assert_eq!(report.writes_done, writes, "every write completed");
    let per_write = |calls: u64| calls as f64 / writes as f64;
    println!(
        "{calls} allocator calls, {:.2} per client write",
        per_write(calls)
    );
    assert!(
        calls <= max_calls,
        "{calls} allocator calls ({:.2} per client write), budget {max_calls} ({:.2})",
        per_write(calls),
        per_write(max_calls)
    );
}
