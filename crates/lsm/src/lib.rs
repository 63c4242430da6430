//! # rablock-lsm — the baseline LSM key-value store and BlueStore-like backend
//!
//! Stock Ceph persists through BlueStore, which embeds RocksDB for metadata
//! and small writes. This crate is that baseline, built from scratch:
//!
//! * [`Db`] — a leveled LSM database over a raw block device: CRC-framed
//!   WAL, memtables, sorted-run SSTs on a segment allocator, an atomic
//!   double-slot manifest, and leveled compaction.
//! * [`LsmObjectStore`] — the BlueStore-like [`ObjectStore`] backend used as
//!   *Original* in every experiment: object data chunked into 4 KiB LSM
//!   blocks, object metadata and Ceph's per-request records as LSM keys.
//!
//! The crate exists to reproduce the paper's baseline costs mechanically:
//! host-side write amplification ≈3 (Table I) and the maintenance-task CPU
//! slice (Fig. 1/7) both emerge from this code actually writing WALs,
//! flushing memtables and running compactions.
//!
//! [`ObjectStore`]: rablock_storage::ObjectStore

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod bloom;
mod cache;
mod compaction;
mod db;
mod memtable;
mod options;
mod sst;
mod store;
mod util;
mod wal;

pub use bloom::Bloom;
pub use cache::BlockCache;
pub use db::Db;
pub use options::LsmOptions;
pub use store::{LsmObjectStore, LSM_BLOCK_BYTES};
pub use wal::BatchEntry;
