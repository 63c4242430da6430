//! # rablock-cos — the CPU-efficient object store
//!
//! The paper's backend contribution (§IV-C), built from scratch: an
//! in-place-update object store on a raw device that eliminates the LSM
//! backend's compaction CPU burn and host-side write amplification.
//!
//! * [`CosObjectStore`] — the [`ObjectStore`](rablock_storage::ObjectStore)
//!   backend: sharded partitions (one per non-priority thread), modulo
//!   group→partition distribution.
//! * [`ExtentBTree`] — per-partition free-block B+tree with max-length hints
//!   (XFS-style first-fit in O(log n)).
//! * [`RadixTree`] — onode lookup keyed by object id.
//! * [`Onode`] / [`ExtentMap`] — fixed 512-byte object metadata with an
//!   extent block map and inline xattrs; overflow extents spill to a
//!   metadata block.
//! * [`MetaCache`] — NVM metadata cache that absorbs per-write onode
//!   updates (WAF → ~1.0, Fig. 8-b).
//! * [`CosOptions`] — toggles for the paper's ablations: `pre_allocate`
//!   on/off, `metadata_cache` on/off, partition count (Fig. 11).
//!
//! Crash consistency: the operation log in NVM (crate `rablock-oplog`) is
//! the REDO log; mount rebuilds allocator and index state from the onode
//! table and replays the log above this layer (§IV-C-6).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod btree;
mod layout;
mod meta;
mod metacache;
mod onode;
mod partition;
mod radix;
mod store;

pub use btree::ExtentBTree;
pub use layout::{CosOptions, PartGeometry, BLOCK_BYTES, SUPERBLOCK_BYTES};
pub use metacache::MetaCache;
pub use onode::{Extent, ExtentMap, Onode, INLINE_EXTENTS, ONODE_BYTES};
pub use radix::RadixTree;
pub use store::CosObjectStore;

pub(crate) use rablock_storage::crc::crc32;
