//! Allocations per client write on the Original write path.
//!
//! An Original write goes through the thread-pool OSD into the LSM backend
//! on its primary and one replica: a WAL record, memtable inserts and
//! write-through block-cache entries for the data block, the object's info
//! record, the `object_info_t` xattr and the pg-log record. This binary
//! bounds the allocator calls per write of a fixed one-worker Original
//! cluster (see `counting_alloc`).

mod counting_alloc;

use rablock::PipelineMode;

/// The budget, at this build's count.
const MAX_CALLS: u64 = 169_520;

#[test]
fn an_original_client_write_stays_within_its_allocation_budget() {
    counting_alloc::assert_within_budget(PipelineMode::Original, MAX_CALLS);
}
