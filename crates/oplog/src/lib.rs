//! # rablock-oplog — decoupled operation processing via an NVM operation log
//!
//! The paper's first design ingredient (§IV-A): split I/O into a
//! latency-critical *top half* that logs the operation in NVM, replicates,
//! and acks the client, and a best-effort *bottom half* that batch-flushes
//! logged operations to the backend object store.
//!
//! * [`GroupLog`] — per-logical-group operation log + index cache. Appends
//!   are W1/W2 of the paper's write path; [`GroupLog::read_path`] is the
//!   R1/R2/R3 read decision; [`GroupLog::drain_for_flush`] is the
//!   non-priority thread's batch.
//! * [`NvmRing`] — the persistent ring buffer under each log, with a
//!   CRC-protected header so a crashed node recovers its log from NVM.
//! * [`LogRecord`] — CRC-framed record carrying (group, version, sequence,
//!   transaction).
//!
//! A logged write exists once. Its payload is framed into the ring by
//! reference (the NVM region keeps the writer's buffer as an extent; the
//! byte stream is what [`LogRecord::encode`] gives), the index cache holds a
//! view of the same buffer for reads, and a flush
//! ([`GroupLog::begin_flush`]) hands the store a shared clone of the
//! transaction while the record stays queued, its own clone with it, until
//! the store I/O completes. Every caller is answered from that in-memory
//! mirror; only recovery reads the ring.
//!
//! Strong consistency falls out of the structure: a read either finds a
//! single covering write in the index cache (served straight from NVM), or
//! forces a flush before touching the store — never a stale value.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod entry;
mod group;
mod ring;

pub use entry::LogRecord;
pub use group::{AppendOutcome, GroupLog, IndexEntry, IndexKind, ReadPath};
pub use ring::NvmRing;
