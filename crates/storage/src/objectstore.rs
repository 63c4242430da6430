//! The backend object-store contract shared by all backends.
//!
//! An OSD daemon stores object data through an [`ObjectStore`]: BlueStore in
//! stock Ceph (reproduced by `rablock-lsm`), and the paper's CPU-efficient
//! object store (reproduced by `rablock-cos`). The trait is deliberately
//! transactional — an OSD submits a [`Transaction`] bundling the data write
//! with the metadata writes Ceph issues per request (`object_info_t`,
//! `snapset`, pg log), because that bundling is exactly where the two
//! backends diverge in CPU cost and write amplification.

use std::fmt;
use std::sync::Arc;

use crate::error::StoreError;
use crate::key::Key;
use crate::payload::{Payload, Segments};

/// Identifier of an object within the cluster.
///
/// Layout mirrors the paper (§IV-C-1): the high bits carry the logical-group
/// id (used to pick the sharded partition); the low bits identify the object
/// within the group.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(u64);

impl ObjectId {
    /// Builds an id from a logical-group id (high 16 bits) and an
    /// object index (low 48 bits).
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in 48 bits.
    pub fn new(group: GroupId, index: u64) -> Self {
        assert!(index < (1 << 48), "object index exceeds 48 bits");
        ObjectId(((group.0 as u64) << 48) | index)
    }

    /// The raw 64-bit value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Reconstructs an id from its raw value.
    pub const fn from_raw(raw: u64) -> Self {
        ObjectId(raw)
    }

    /// The logical group this object belongs to (high bits of the id).
    pub const fn group(self) -> GroupId {
        GroupId((self.0 >> 48) as u32)
    }

    /// The object index within its group (low bits of the id).
    pub const fn index(self) -> u64 {
        self.0 & ((1 << 48) - 1)
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ObjectId(g{}:{})", self.group().0, self.index())
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}:{}", self.group().0, self.index())
    }
}

/// A logical group of objects (Ceph's placement group).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct GroupId(pub u32);

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pg{}", self.0)
    }
}

/// Per-object metadata visible through [`ObjectStore::stat`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjectInfo {
    /// Current object size in bytes.
    pub size: u64,
    /// Monotonic version, bumped on every mutating op.
    pub version: u64,
    /// Logical modification "time" (the submitting transaction's sequence).
    pub mtime: u64,
}

/// One mutation inside a [`Transaction`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Pre-allocates an object of fixed `size` (the paper's pre-allocation
    /// technique: RBD images allocate all their objects at creation).
    Create {
        /// Target object.
        oid: ObjectId,
        /// Fixed object size in bytes.
        size: u64,
    },
    /// Overwrites `data.len()` bytes at `offset` within the object.
    Write {
        /// Target object.
        oid: ObjectId,
        /// Byte offset within the object.
        offset: u64,
        /// Payload (refcounted: cloning the op shares the bytes).
        data: Payload,
    },
    /// [`Op::Write`] of bytes that sit in several buffers: an object as a
    /// store read returned it, applied block view by block view (recovery
    /// push, backfill). One write to the store, whatever the segmentation.
    WriteV {
        /// Target object.
        oid: ObjectId,
        /// Byte offset within the object.
        offset: u64,
        /// The bytes, in order.
        data: Segments,
    },
    /// Sets an extended attribute on the object.
    SetXattr {
        /// Target object.
        oid: ObjectId,
        /// Attribute name.
        key: String,
        /// Attribute value (refcounted: a store that keeps it keeps a view).
        value: Payload,
    },
    /// Writes a store-level key/value record (Ceph's `object_info_t`,
    /// `snapset`, pg-log entries ride on this).
    MetaPut {
        /// Record key (inline when short: building one allocates nothing).
        key: Key,
        /// Record value (refcounted: a store keeps a view, not a copy).
        value: Payload,
    },
    /// Deletes a store-level key/value record.
    MetaDelete {
        /// Record key.
        key: Key,
    },
    /// Deletes an object (backends may defer the actual deallocation).
    Delete {
        /// Target object.
        oid: ObjectId,
    },
}

impl Op {
    /// Bytes of user payload carried by this op (data writes only).
    pub fn user_bytes(&self) -> u64 {
        match self {
            Op::Write { data, .. } => data.len() as u64,
            Op::WriteV { data, .. } => data.len() as u64,
            _ => 0,
        }
    }
}

/// An atomic group of mutations within one logical group.
///
/// The ops are one shared, immutable slice: cloning a transaction (for a
/// replica's message, the operation log, a retransmit) bumps a refcount, and
/// every consumer borrows the ops, copying only the bytes it keeps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transaction {
    /// The logical group all ops belong to (backends shard by this).
    pub group: GroupId,
    /// Sequence number assigned by the OSD (drives `mtime`/versioning).
    pub seq: u64,
    /// The mutations, applied in order.
    pub ops: Arc<[Op]>,
}

impl Transaction {
    /// Creates a transaction.
    pub fn new(group: GroupId, seq: u64, ops: Vec<Op>) -> Self {
        Transaction {
            group,
            seq,
            ops: ops.into(),
        }
    }

    /// Total user payload bytes in the transaction.
    pub fn user_bytes(&self) -> u64 {
        self.ops.iter().map(Op::user_bytes).sum()
    }
}

/// Category of a traced device I/O, for write-amplification breakdowns.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash, PartialOrd, Ord)]
pub enum IoCategory {
    /// Write-ahead-log append.
    Wal,
    /// Memtable flush to a sorted run.
    MemtableFlush,
    /// Background compaction traffic.
    Compaction,
    /// Object data blocks.
    Data,
    /// Object/store metadata (onodes, allocator state, manifests).
    Metadata,
    /// Superblock / checkpoint writes.
    Superblock,
}

/// Direction of a traced I/O.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum TraceKind {
    /// Device read.
    Read,
    /// Device write.
    Write,
    /// Flush barrier.
    Flush,
}

/// One device I/O performed by a store, reported through
/// [`ObjectStore::take_trace`] so a simulation driver can replay it against
/// a timed device model.
#[derive(Copy, Clone, Debug)]
pub struct TraceIo {
    /// Direction.
    pub kind: TraceKind,
    /// Transfer size in bytes.
    pub bytes: u64,
    /// What the store was doing.
    pub category: IoCategory,
}

/// Cumulative store-level traffic statistics.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Payload bytes clients asked the store to write.
    pub user_bytes: u64,
    /// Bytes written to the device for WAL appends.
    pub wal_bytes: u64,
    /// Bytes written for memtable flushes.
    pub flush_bytes: u64,
    /// Bytes written (re-written) by compaction.
    pub compaction_bytes: u64,
    /// Bytes written to data blocks.
    pub data_bytes: u64,
    /// Bytes written to metadata structures.
    pub metadata_bytes: u64,
    /// Bytes written to superblocks / checkpoints.
    pub superblock_bytes: u64,
    /// Bytes read back from the device.
    pub read_bytes: u64,
    /// Transactions applied.
    pub transactions: u64,
}

impl StoreStats {
    /// Total bytes written to the device, all categories.
    pub fn total_written(&self) -> u64 {
        self.wal_bytes
            + self.flush_bytes
            + self.compaction_bytes
            + self.data_bytes
            + self.metadata_bytes
            + self.superblock_bytes
    }

    /// Host-side write amplification factor: device bytes per user byte.
    /// Returns 0.0 before any user writes.
    pub fn waf(&self) -> f64 {
        if self.user_bytes == 0 {
            0.0
        } else {
            self.total_written() as f64 / self.user_bytes as f64
        }
    }

    /// Adds a traced I/O into these stats.
    pub fn record(&mut self, io: TraceIo) {
        match io.kind {
            TraceKind::Read => self.read_bytes += io.bytes,
            TraceKind::Flush => {}
            TraceKind::Write => match io.category {
                IoCategory::Wal => self.wal_bytes += io.bytes,
                IoCategory::MemtableFlush => self.flush_bytes += io.bytes,
                IoCategory::Compaction => self.compaction_bytes += io.bytes,
                IoCategory::Data => self.data_bytes += io.bytes,
                IoCategory::Metadata => self.metadata_bytes += io.bytes,
                IoCategory::Superblock => self.superblock_bytes += io.bytes,
            },
        }
    }
}

/// Work performed by one maintenance step (compaction, checkpoint, …).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// Bytes read during the step.
    pub bytes_read: u64,
    /// Bytes written during the step.
    pub bytes_written: u64,
    /// True if any work was done (false means the store was already clean).
    pub did_work: bool,
}

/// A transactional backend object store.
///
/// Implementations must apply a [`Transaction`] atomically with respect to
/// crash recovery: after a crash, either all of its ops are visible or none.
/// Isolation and ordering *between* transactions is the caller's (OSD core's)
/// responsibility, mirroring the paper's layering.
pub trait ObjectStore {
    /// Applies a transaction.
    ///
    /// # Errors
    ///
    /// Fails with [`StoreError::NoSpace`] when an allocation cannot be
    /// satisfied, [`StoreError::NotFound`]/[`StoreError::OutOfBounds`] on
    /// invalid targets. On error the store remains consistent.
    fn submit(&mut self, txn: Transaction) -> Result<(), StoreError>;

    /// Reads `len` bytes at `offset` from an object, as the views the store
    /// itself holds them in (one per block, value or raw run; holes are
    /// views of one shared zero block): nothing is copied into one buffer.
    /// Later writes to the object never change the result.
    ///
    /// # Errors
    ///
    /// Fails with [`StoreError::NotFound`] for missing objects or
    /// [`StoreError::OutOfBounds`] past the object end.
    fn read_segments(
        &mut self,
        oid: ObjectId,
        offset: u64,
        len: u64,
    ) -> Result<Segments, StoreError>;

    /// [`ObjectStore::read_segments`] as one buffer: the store's own for a
    /// read that is one segment (a whole block), one copy otherwise.
    ///
    /// # Errors
    ///
    /// As [`ObjectStore::read_segments`].
    fn read(&mut self, oid: ObjectId, offset: u64, len: u64) -> Result<Payload, StoreError> {
        Ok(self.read_segments(oid, offset, len)?.into_payload())
    }

    /// Metadata of an object, if it exists.
    fn stat(&mut self, oid: ObjectId) -> Option<ObjectInfo>;

    /// Reads a store-level key/value record written via [`Op::MetaPut`].
    fn get_meta(&mut self, key: &[u8]) -> Option<Vec<u8>>;

    /// True if background maintenance (compaction, checkpointing) is due.
    fn needs_maintenance(&self) -> bool;

    /// Performs one bounded unit of background maintenance.
    fn maintenance(&mut self) -> MaintenanceReport;

    /// Drains the device I/Os performed since the previous call (for replay
    /// against a timed device model).
    fn take_trace(&mut self) -> Vec<TraceIo>;

    /// Cumulative traffic statistics.
    fn stats(&self) -> StoreStats;

    /// Resets traffic statistics (e.g. after warm-up).
    fn reset_stats(&mut self);

    /// Number of independent sharded partitions (1 for unsharded stores).
    fn partitions(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_id_round_trips_group_and_index() {
        let oid = ObjectId::new(GroupId(513), 0xABCDEF);
        assert_eq!(oid.group(), GroupId(513));
        assert_eq!(oid.index(), 0xABCDEF);
        assert_eq!(ObjectId::from_raw(oid.raw()), oid);
    }

    #[test]
    #[should_panic(expected = "48 bits")]
    fn oversized_index_rejected() {
        let _ = ObjectId::new(GroupId(0), 1 << 48);
    }

    #[test]
    fn transaction_user_bytes_counts_only_data() {
        let oid = ObjectId::new(GroupId(1), 7);
        let txn = Transaction::new(
            GroupId(1),
            1,
            vec![
                Op::Write {
                    oid,
                    offset: 0,
                    data: vec![0; 4096].into(),
                },
                Op::MetaPut {
                    key: b"pglog".into(),
                    value: vec![0; 200].into(),
                },
                Op::SetXattr {
                    oid,
                    key: "v".into(),
                    value: vec![1].into(),
                },
            ],
        );
        assert_eq!(txn.user_bytes(), 4096);
    }

    #[test]
    fn a_cloned_transaction_shares_its_ops_and_compares_by_value() {
        let oid = ObjectId::new(GroupId(1), 7);
        let ops = |fill| {
            vec![
                Op::Write {
                    oid,
                    offset: 0,
                    data: vec![fill; 4096].into(),
                },
                Op::MetaPut {
                    key: b"pglog.1.1".into(),
                    value: vec![0x5A; 180].into(),
                },
            ]
        };
        let txn = Transaction::new(GroupId(1), 1, ops(3));
        let clone = txn.clone();
        assert!(
            Arc::ptr_eq(&txn.ops, &clone.ops),
            "the clone copied the ops"
        );
        assert_eq!(clone, txn);
        // Equality goes by value, not by the slice's address.
        let rebuilt = Transaction::new(GroupId(1), 1, ops(3));
        assert!(!Arc::ptr_eq(&txn.ops, &rebuilt.ops));
        assert_eq!(rebuilt, txn);
        assert_ne!(Transaction::new(GroupId(1), 1, ops(4)), txn);
        assert_ne!(
            Transaction {
                seq: 2,
                ..txn.clone()
            },
            txn
        );
    }

    #[test]
    fn stats_record_and_waf() {
        let mut s = StoreStats {
            user_bytes: 1000,
            ..StoreStats::default()
        };
        s.record(TraceIo {
            kind: TraceKind::Write,
            bytes: 1000,
            category: IoCategory::Wal,
        });
        s.record(TraceIo {
            kind: TraceKind::Write,
            bytes: 2000,
            category: IoCategory::Compaction,
        });
        s.record(TraceIo {
            kind: TraceKind::Read,
            bytes: 500,
            category: IoCategory::Compaction,
        });
        s.record(TraceIo {
            kind: TraceKind::Flush,
            bytes: 0,
            category: IoCategory::Wal,
        });
        assert_eq!(s.total_written(), 3000);
        assert_eq!(s.read_bytes, 500);
        assert!((s.waf() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn waf_zero_before_user_writes() {
        assert_eq!(StoreStats::default().waf(), 0.0);
    }

    #[test]
    fn display_formats_are_compact() {
        let oid = ObjectId::new(GroupId(3), 42);
        assert_eq!(oid.to_string(), "g3:42");
        assert_eq!(GroupId(3).to_string(), "pg3");
    }
}
