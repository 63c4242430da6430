//! Allocations per client write on the DOP write path.
//!
//! A write's transaction is built once on the primary and shared — by the
//! replica's `Repop`, both op logs, both stores and any retransmit — so each
//! write costs a bounded number of heap allocations across the whole
//! cluster. This binary installs a counting global allocator (hence its own
//! test binary, with one test), runs a fixed one-worker DOP cluster for a
//! fixed number of writes and bounds the allocator calls per write. With
//! one worker the simulation runs on the test's own thread and the count is
//! the same on every run of one build.

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

/// The small cluster's 8 connections, 512 aligned 4 KiB writes each, on
/// DOP: every write is logged on its primary and one replica and flushed
/// to COS on both.
const LOAD: ConnLoad = ConnLoad {
    conns: 8,
    writes: 512,
    reads: 0,
    object_bytes: 64 << 10,
};

/// The budget: allocator calls over the whole run — messages, events, both
/// op logs, both stores; set-up excluded — at this build's count, 14.49 per
/// client write. While each of the two stores copied a write's pg-log key
/// onto the heap (2 calls per write; a record now holds a key of up to 22
/// bytes inline) and a `Payload` from a `Vec` copied the bytes into a new
/// buffer (one call more each time, 252 over the run; it now keeps the
/// `Vec`'s buffer), the count was 67 808 (16.55 per write); while each
/// write also built its own pg-log value and each store copied it into a
/// record of its own, 71 901 (17.55); while the NVM ring also copied each
/// record's bytes into extents of its own and an onode write-back
/// collected its spilled extents and xattrs into fresh buffers, 99 904
/// (24.39); when the primary also deep-copied each write's transaction for
/// the replica's message and for its own op log, and a retry rebuilt it,
/// 140 735 (34.36).
const MAX_CALLS: u64 = 59_364;

#[test]
fn a_dop_client_write_stays_within_its_allocation_budget() {
    let mut sim = LOAD.sim(small_cluster(PipelineMode::Dop));
    let (report, calls) = calls_during(|| sim.run(SimDuration::ZERO, SimDuration::millis(200)));
    let writes = LOAD.conns * LOAD.writes;
    assert_eq!(report.writes_done, writes, "every write completed");
    let per_write = |calls: u64| calls as f64 / writes as f64;
    println!(
        "{calls} allocator calls, {:.2} per client write",
        per_write(calls)
    );
    assert!(
        calls <= MAX_CALLS,
        "{calls} allocator calls ({:.2} per client write), budget {MAX_CALLS} ({:.2})",
        per_write(calls),
        per_write(MAX_CALLS)
    );
}
