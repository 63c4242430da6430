//! Allocations per client write on the DOP write path.
//!
//! A write's transaction is built once on the primary and shared — by the
//! replica's `Repop`, both op logs, both stores and any retransmit — so each
//! write costs a bounded number of heap allocations across the whole
//! cluster. This binary runs a fixed one-worker DOP cluster for a fixed
//! number of writes and bounds the allocator calls per write (see
//! `counting_alloc`).

mod counting_alloc;

use rablock::PipelineMode;

/// The budget: allocator calls over the whole run — messages, events, both
/// op logs, both stores; set-up excluded — at this build's count, 12.49 per
/// client write. While each write built its `object_info_t` xattr value
/// and its pg-log key on the heap (2 calls per write; the value is now one
/// buffer per process, the key inline), the count was 59 364 (14.49 per
/// write); while each of the two stores also copied the pg-log key onto
/// the heap (2 calls per write; a record now holds a key of up to 22 bytes
/// inline) and a `Payload` from a `Vec` copied the bytes into a new buffer
/// (one call more each time, 252 over the run; it now keeps the `Vec`'s
/// buffer), 67 808 (16.55); while each write also built its own pg-log
/// value and each store copied it into a record of its own, 71 901
/// (17.55); while the NVM ring also copied each record's bytes into extents
/// of its own and an onode write-back collected its spilled extents and
/// xattrs into fresh buffers, 99 904 (24.39); when the primary also
/// deep-copied each write's transaction for the replica's message and for
/// its own op log, and a retry rebuilt it, 140 735 (34.36).
const MAX_CALLS: u64 = 51_174;

#[test]
fn a_dop_client_write_stays_within_its_allocation_budget() {
    counting_alloc::assert_within_budget(PipelineMode::Dop, MAX_CALLS);
}
