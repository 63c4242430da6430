//! The CPU-efficient object store: sharded partitions behind one device.
//!
//! [`CosObjectStore`] implements the workspace-wide
//! [`ObjectStore`](rablock_storage::ObjectStore) contract over
//! [`Partition`]s. Logical groups map to partitions by simple modulo
//! (§IV-C-2 "I/O Distribution"), so one non-priority thread can own each
//! partition without cross-thread locking. Store-level key/value records
//! (Ceph's `object_info_t`, pg log) are kept in memory and riding the NVM
//! operation log for durability, never costing device I/O — one of the two
//! big CPU/WAF savings over the LSM backend.

use rablock_storage::{
    BlockDevice, FxHashSet, GroupId, MaintenanceReport, ObjectId, ObjectInfo, ObjectStore, Op,
    Segments, StoreError, StoreStats, TraceIo, Transaction,
};

use crate::layout::{CosOptions, PartGeometry, SUPERBLOCK_BYTES};
use crate::meta::MetaRecord;
use crate::partition::Partition;

const SB_MAGIC: u32 = 0x434F_5331; // "COS1"

/// The paper's CPU-efficient object store backend.
///
/// ```
/// use rablock_cos::{CosObjectStore, CosOptions};
/// use rablock_storage::{MemDisk, ObjectStore, ObjectId, GroupId, Op, Transaction};
/// # fn main() -> Result<(), rablock_storage::StoreError> {
/// let mut store = CosObjectStore::format(MemDisk::new(64 << 20), CosOptions::tiny())?;
/// let oid = ObjectId::new(GroupId(0), 1);
/// store.submit(Transaction::new(GroupId(0), 1, vec![
///     Op::Create { oid, size: 4 << 20 },
///     Op::Write { oid, offset: 0, data: b"hello".to_vec().into() },
/// ]))?;
/// assert_eq!(&store.read(oid, 0, 5)?[..], b"hello");
/// # Ok(())
/// # }
/// ```
pub struct CosObjectStore<D: BlockDevice> {
    dev: D,
    opts: CosOptions,
    partitions: Vec<Partition>,
    /// Store-level KV records (pg log, object_info_t), one allocation each,
    /// found by key. Durability comes from the NVM operation log above this
    /// layer, so they cost no device I/O. Never iterated, so hash order
    /// cannot leak into a result.
    meta_kv: FxHashSet<MetaRecord>,
    trace: Vec<TraceIo>,
    stats: StoreStats,
}

impl<D: BlockDevice> CosObjectStore<D> {
    /// Formats a fresh store on `dev`.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidArgument`] if the device cannot hold the
    /// configured partitions.
    pub fn format(mut dev: D, opts: CosOptions) -> Result<Self, StoreError> {
        let mut partitions = Vec::with_capacity(opts.partitions);
        for i in 0..opts.partitions {
            let geom = PartGeometry::compute(dev.capacity(), i, &opts)?;
            partitions.push(Partition::format(geom, &opts));
        }
        let mut sb = vec![0u8; SUPERBLOCK_BYTES as usize];
        sb[..4].copy_from_slice(&SB_MAGIC.to_le_bytes());
        sb[4..8].copy_from_slice(&(opts.partitions as u32).to_le_bytes());
        sb[8..12].copy_from_slice(&opts.onode_slots.to_le_bytes());
        dev.write_at(0, &sb)?;
        dev.flush()?;
        Ok(CosObjectStore {
            dev,
            opts,
            partitions,
            meta_kv: FxHashSet::default(),
            trace: Vec::new(),
            stats: StoreStats::default(),
        })
    }

    /// Mounts an existing store, rebuilding in-memory state from the onode
    /// tables (crash recovery; data REDO is the operation log's job).
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on a bad superblock or onode corruption.
    pub fn mount(mut dev: D, opts: CosOptions) -> Result<Self, StoreError> {
        let mut sb = vec![0u8; SUPERBLOCK_BYTES as usize];
        dev.read_at(0, &mut sb)?;
        if u32::from_le_bytes(sb[..4].try_into().expect("4 bytes")) != SB_MAGIC {
            return Err(StoreError::Corrupt("bad store superblock magic".into()));
        }
        let parts = u32::from_le_bytes(sb[4..8].try_into().expect("4 bytes")) as usize;
        let slots = u32::from_le_bytes(sb[8..12].try_into().expect("4 bytes"));
        if parts != opts.partitions || slots != opts.onode_slots {
            return Err(StoreError::Corrupt(format!(
                "superblock geometry ({parts} partitions, {slots} slots) does not match options"
            )));
        }
        let mut trace = Vec::new();
        let mut partitions = Vec::with_capacity(parts);
        for i in 0..parts {
            let geom = PartGeometry::compute(dev.capacity(), i, &opts)?;
            partitions.push(Partition::mount(&mut dev, geom, &opts, &mut trace)?);
        }
        let mut stats = StoreStats::default();
        for io in &trace {
            stats.record(*io);
        }
        Ok(CosObjectStore {
            dev,
            opts,
            partitions,
            meta_kv: FxHashSet::default(),
            trace,
            stats,
        })
    }

    /// The configured options.
    pub fn options(&self) -> &CosOptions {
        &self.opts
    }

    /// Immutable access to the device.
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// Consumes the store, returning the device.
    pub fn into_device(self) -> D {
        self.dev
    }

    /// Partition index serving `group`.
    pub fn partition_of(&self, group: GroupId) -> usize {
        group.0 as usize % self.partitions.len()
    }

    /// Bytes of onode updates absorbed by the NVM metadata cache, across
    /// all partitions.
    pub fn nvm_meta_bytes(&self) -> u64 {
        self.partitions.iter().map(Partition::nvm_meta_bytes).sum()
    }

    /// Free data blocks per partition (scalability diagnostics).
    pub fn free_blocks_per_partition(&self) -> Vec<u64> {
        self.partitions.iter().map(Partition::free_blocks).collect()
    }

    fn part_for(&mut self, oid: ObjectId) -> &mut Partition {
        let idx = oid.group().0 as usize % self.partitions.len();
        &mut self.partitions[idx]
    }

    /// Light-scrub digest of `oid`: (size, FNV over the per-block checksum
    /// vector), computed without reading any data blocks. `None` when the
    /// object is missing/deleted or checksums are disabled.
    pub fn csum_digest(&self, oid: ObjectId) -> Option<(u64, u64)> {
        let idx = self.partition_of(oid.group());
        self.partitions[idx].csum_digest(oid)
    }

    /// Fault injection: flips one bit of `oid`'s stored data directly on
    /// the device, bypassing checksum bookkeeping (silent bit rot).
    /// Returns `false` when the target block is not mapped.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn corrupt_data_bit(
        &mut self,
        oid: ObjectId,
        block: u64,
        byte: u64,
        bit: u8,
    ) -> Result<bool, StoreError> {
        let idx = self.partition_of(oid.group());
        let (dev, part) = (&mut self.dev, &mut self.partitions[idx]);
        part.corrupt_data_bit(dev, oid, block, byte, bit)
    }

    /// Number of data blocks covered by `oid`'s size (fault-injection
    /// targeting helper).
    pub fn mapped_blocks(&self, oid: ObjectId) -> u64 {
        let idx = self.partition_of(oid.group());
        self.partitions[idx].mapped_blocks(oid)
    }

    /// The one data write of the store: [`Op::Write`] is its one-segment
    /// case.
    fn write(
        &mut self,
        oid: ObjectId,
        offset: u64,
        data: &Segments,
        seq: u64,
        opts: &CosOptions,
        trace: &mut Vec<TraceIo>,
    ) -> Result<(), StoreError> {
        let idx = self.partition_of(oid.group());
        let (dev, part) = (&mut self.dev, &mut self.partitions[idx]);
        part.write(dev, oid, offset, data, seq, opts, trace)?;
        self.stats.user_bytes += data.len() as u64;
        Ok(())
    }

    fn absorb(&mut self, tmp: Vec<TraceIo>) {
        for io in tmp {
            self.stats.record(io);
            self.trace.push(io);
        }
    }
}

impl<D: BlockDevice> ObjectStore for CosObjectStore<D> {
    fn submit(&mut self, txn: Transaction) -> Result<(), StoreError> {
        let mut tmp = Vec::new();
        let seq = txn.seq;
        let opts = self.opts.clone();
        // The ops are borrowed: a write payload is a refcount, and an xattr
        // value or a KV record is copied into the one buffer that keeps it.
        for op in txn.ops.iter() {
            match op {
                Op::Create { oid, size } => {
                    let idx = self.partition_of(oid.group());
                    let (dev, part) = (&mut self.dev, &mut self.partitions[idx]);
                    part.create(dev, *oid, *size, seq, &opts, &mut tmp)?;
                }
                Op::Write { oid, offset, data } => {
                    let data = data.clone().into();
                    self.write(*oid, *offset, &data, seq, &opts, &mut tmp)?;
                }
                Op::WriteV { oid, offset, data } => {
                    self.write(*oid, *offset, data, seq, &opts, &mut tmp)?;
                }
                Op::SetXattr { oid, key, value } => {
                    let idx = self.partition_of(oid.group());
                    let (dev, part) = (&mut self.dev, &mut self.partitions[idx]);
                    part.set_xattr(dev, *oid, key, value, seq, &opts, &mut tmp)?;
                }
                Op::MetaPut { key, value } => {
                    // `insert` would keep the old record, value and all.
                    self.meta_kv
                        .replace(MetaRecord::new(key.clone(), value.clone()));
                }
                Op::MetaDelete { key } => {
                    self.meta_kv.remove(&key[..]);
                }
                Op::Delete { oid } => {
                    let idx = self.partition_of(oid.group());
                    let (dev, part) = (&mut self.dev, &mut self.partitions[idx]);
                    part.delete(dev, *oid, seq, &opts, &mut tmp)?;
                }
            }
        }
        self.stats.transactions += 1;
        self.absorb(tmp);
        Ok(())
    }

    fn read_segments(
        &mut self,
        oid: ObjectId,
        offset: u64,
        len: u64,
    ) -> Result<Segments, StoreError> {
        let idx = self.partition_of(oid.group());
        let mut tmp = Vec::new();
        let (dev, part) = (&mut self.dev, &mut self.partitions[idx]);
        let out = part.read(dev, oid, offset, len, &mut tmp)?;
        self.absorb(tmp);
        Ok(out)
    }

    fn stat(&mut self, oid: ObjectId) -> Option<ObjectInfo> {
        let part = self.part_for(oid);
        part.stat(oid).map(|(size, version, mtime)| ObjectInfo {
            size,
            version,
            mtime,
        })
    }

    fn get_meta(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        self.meta_kv.get(key).map(|r| r.value().to_vec())
    }

    fn needs_maintenance(&self) -> bool {
        self.partitions.iter().any(Partition::needs_maintenance)
    }

    fn maintenance(&mut self) -> MaintenanceReport {
        let mut total = MaintenanceReport::default();
        let mut tmp = Vec::new();
        for part in &mut self.partitions {
            if part.needs_maintenance() {
                if let Ok(r) = part.maintenance(&mut self.dev, &mut tmp) {
                    total.bytes_read += r.bytes_read;
                    total.bytes_written += r.bytes_written;
                    total.did_work |= r.did_work;
                }
            }
        }
        self.absorb(tmp);
        total
    }

    fn take_trace(&mut self) -> Vec<TraceIo> {
        std::mem::take(&mut self.trace)
    }

    fn stats(&self) -> StoreStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = StoreStats::default();
    }

    fn partitions(&self) -> usize {
        self.partitions.len()
    }
}

impl<D: BlockDevice> std::fmt::Debug for CosObjectStore<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CosObjectStore")
            .field("partitions", &self.partitions.len())
            .field(
                "objects",
                &self
                    .partitions
                    .iter()
                    .map(Partition::object_count)
                    .sum::<usize>(),
            )
            .field("transactions", &self.stats.transactions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rablock_storage::{MemDisk, Payload};

    fn oid(group: u32, i: u64) -> ObjectId {
        ObjectId::new(GroupId(group), i)
    }

    fn write_txn(seq: u64, o: ObjectId, offset: u64, data: Vec<u8>) -> Transaction {
        Transaction::new(
            o.group(),
            seq,
            vec![Op::Write {
                oid: o,
                offset,
                data: data.into(),
            }],
        )
    }

    fn fresh(opts: CosOptions) -> CosObjectStore<MemDisk> {
        CosObjectStore::format(MemDisk::new(64 << 20), opts).unwrap()
    }

    #[test]
    fn aligned_write_read_round_trip() {
        let mut s = fresh(CosOptions::tiny());
        let o = oid(0, 1);
        s.submit(Transaction::new(
            o.group(),
            1,
            vec![Op::Create {
                oid: o,
                size: 64 << 10,
            }],
        ))
        .unwrap();
        s.submit(write_txn(2, o, 8192, vec![0xAB; 4096])).unwrap();
        assert_eq!(s.read(o, 8192, 4096).unwrap(), vec![0xAB; 4096]);
        assert_eq!(
            s.read(o, 0, 4096).unwrap(),
            vec![0u8; 4096],
            "untouched blocks read zero"
        );
    }

    #[test]
    fn create_after_sparse_bare_write_fills_holes() {
        // A bare write to a never-created object maps only the written
        // blocks; a later pre-allocating create (the recovery backfill path
        // sends Create+Write unconditionally) must fill the unmapped holes
        // rather than assume the extents form a contiguous prefix.
        let mut s = fresh(CosOptions::tiny());
        let o = oid(0, 40);
        s.submit(write_txn(1, o, 4096, vec![0x7E; 4096])).unwrap();
        s.submit(Transaction::new(
            o.group(),
            2,
            vec![Op::Create {
                oid: o,
                size: 16 << 10,
            }],
        ))
        .unwrap();
        assert_eq!(
            s.read(o, 4096, 4096).unwrap(),
            vec![0x7E; 4096],
            "pre-existing block survives the create"
        );
        s.submit(write_txn(3, o, 0, vec![0x11; 4096])).unwrap();
        s.submit(write_txn(4, o, 12288, vec![0x22; 4096])).unwrap();
        assert_eq!(s.read(o, 0, 4096).unwrap(), vec![0x11; 4096]);
        assert_eq!(s.read(o, 12288, 4096).unwrap(), vec![0x22; 4096]);
    }

    #[test]
    fn unaligned_write_preserves_neighbours() {
        let mut s = fresh(CosOptions::tiny());
        let o = oid(0, 2);
        s.submit(write_txn(1, o, 0, vec![1u8; 8192])).unwrap();
        s.submit(write_txn(2, o, 1000, vec![2u8; 5000])).unwrap();
        let got = s.read(o, 0, 8192).unwrap();
        assert_eq!(&got[..1000], &vec![1u8; 1000][..]);
        assert_eq!(&got[1000..6000], &vec![2u8; 5000][..]);
        assert_eq!(&got[6000..], &vec![1u8; 2192][..]);
    }

    #[test]
    fn preallocated_object_is_single_extent_and_stable_waf() {
        let mut s = fresh(CosOptions {
            metadata_cache: false,
            ..CosOptions::tiny()
        });
        let o = oid(0, 3);
        s.submit(Transaction::new(
            o.group(),
            1,
            vec![Op::Create {
                oid: o,
                size: 1 << 20,
            }],
        ))
        .unwrap();
        s.reset_stats();
        // Overwrite random 4 KiB blocks; with pre-allocation there is no
        // allocator churn, only the data write plus the onode write.
        for seq in 0..200u64 {
            let block = (seq * 37) % 256;
            s.submit(write_txn(seq + 2, o, block * 4096, vec![seq as u8; 4096]))
                .unwrap();
        }
        let st = s.stats();
        assert_eq!(st.user_bytes, 200 * 4096);
        assert_eq!(
            st.data_bytes,
            200 * 4096,
            "in-place: exactly one data write per write"
        );
        let waf = st.waf();
        assert!(waf > 1.0 && waf < 1.5, "pre-alloc no-cache waf = {waf}");
    }

    #[test]
    fn metadata_cache_pushes_waf_to_one() {
        let mut s = fresh(CosOptions {
            metadata_cache: true,
            meta_cache_entries: 4096,
            ..CosOptions::tiny()
        });
        let o = oid(0, 4);
        s.submit(Transaction::new(
            o.group(),
            1,
            vec![Op::Create {
                oid: o,
                size: 1 << 20,
            }],
        ))
        .unwrap();
        s.reset_stats();
        for seq in 0..200u64 {
            let block = (seq * 37) % 256;
            s.submit(write_txn(seq + 2, o, block * 4096, vec![seq as u8; 4096]))
                .unwrap();
        }
        let waf = s.stats().waf();
        assert!((waf - 1.0).abs() < 0.05, "metadata-cache waf = {waf}");
        assert!(s.nvm_meta_bytes() > 0, "onode updates went to NVM");
    }

    #[test]
    fn no_preallocation_costs_extra_metadata_writes() {
        let mut s = fresh(CosOptions {
            pre_allocate: false,
            metadata_cache: false,
            ..CosOptions::tiny()
        });
        let o = oid(0, 5);
        s.reset_stats();
        for seq in 0..50u64 {
            s.submit(write_txn(seq + 1, o, seq * 4096, vec![7u8; 4096]))
                .unwrap();
        }
        let st = s.stats();
        // Every write allocated fresh blocks: onode + free-tree info writes
        // on top of the data (§VI "Metadata Overhead").
        assert!(st.metadata_bytes > 50 * 512, "allocator metadata written");
        assert!(st.waf() > 1.1, "no-prealloc waf = {}", st.waf());
    }

    #[test]
    fn delete_then_maintenance_reclaims_blocks() {
        let mut s = fresh(CosOptions::tiny());
        let o = oid(0, 6);
        let free_before: u64 = s.free_blocks_per_partition().iter().sum();
        s.submit(Transaction::new(
            o.group(),
            1,
            vec![Op::Create {
                oid: o,
                size: 256 << 10,
            }],
        ))
        .unwrap();
        let free_mid: u64 = s.free_blocks_per_partition().iter().sum();
        assert!(free_mid < free_before);
        s.submit(Transaction::new(o.group(), 2, vec![Op::Delete { oid: o }]))
            .unwrap();
        // Delayed deallocation: blocks come back only after maintenance.
        let free_after_delete: u64 = s.free_blocks_per_partition().iter().sum();
        assert_eq!(free_after_delete, free_mid);
        assert!(s.needs_maintenance());
        s.maintenance();
        let free_final: u64 = s.free_blocks_per_partition().iter().sum();
        assert_eq!(free_final, free_before);
        assert_eq!(s.read(o, 0, 1), Err(StoreError::NotFound));
    }

    #[test]
    fn groups_shard_across_partitions() {
        let s = fresh(CosOptions {
            partitions: 2,
            ..CosOptions::tiny()
        });
        assert_eq!(s.partition_of(GroupId(0)), 0);
        assert_eq!(s.partition_of(GroupId(1)), 1);
        assert_eq!(s.partition_of(GroupId(2)), 0);
        assert_eq!(ObjectStore::partitions(&s), 2);
    }

    #[test]
    fn mount_recovers_objects_and_allocator() {
        let opts = CosOptions {
            metadata_cache: false,
            ..CosOptions::tiny()
        };
        let mut s = fresh(opts.clone());
        let a = oid(0, 10);
        let b = oid(1, 11);
        s.submit(Transaction::new(
            a.group(),
            1,
            vec![Op::Create {
                oid: a,
                size: 64 << 10,
            }],
        ))
        .unwrap();
        s.submit(write_txn(2, a, 4096, vec![0x5A; 4096])).unwrap();
        s.submit(write_txn(3, b, 0, vec![0x66; 100])).unwrap();
        s.submit(Transaction::new(
            a.group(),
            4,
            vec![Op::SetXattr {
                oid: a,
                key: "oi".into(),
                value: vec![9, 9].into(),
            }],
        ))
        .unwrap();
        let free_before: Vec<u64> = s.free_blocks_per_partition();
        let dev = s.into_device();
        let mut s2 = CosObjectStore::mount(dev, opts).unwrap();
        assert_eq!(s2.read(a, 4096, 4096).unwrap(), vec![0x5A; 4096]);
        assert_eq!(s2.read(b, 0, 100).unwrap(), vec![0x66; 100]);
        assert_eq!(s2.stat(a).unwrap().size, 64 << 10);
        assert_eq!(
            s2.free_blocks_per_partition(),
            free_before,
            "allocator rebuilt exactly"
        );
    }

    #[test]
    fn mount_rejects_mismatched_geometry() {
        let s = fresh(CosOptions::tiny());
        let dev = s.into_device();
        let wrong = CosOptions {
            partitions: 4,
            ..CosOptions::tiny()
        };
        assert!(matches!(
            CosObjectStore::mount(dev, wrong),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn fragmented_object_survives_mount_via_spill() {
        // Force fragmentation: no pre-allocation, interleaved writes to two
        // objects so neither gets contiguous blocks.
        let opts = CosOptions {
            pre_allocate: false,
            metadata_cache: false,
            ..CosOptions::tiny()
        };
        let mut s = fresh(opts.clone());
        let a = oid(0, 20);
        let b = oid(0, 21);
        for i in 0..40u64 {
            s.submit(write_txn(i * 2 + 1, a, i * 8192, vec![1u8; 100]))
                .unwrap();
            s.submit(write_txn(i * 2 + 2, b, i * 8192, vec![2u8; 100]))
                .unwrap();
        }
        let dev = s.into_device();
        let mut s2 = CosObjectStore::mount(dev, opts).unwrap();
        for i in 0..40u64 {
            assert_eq!(
                s2.read(a, i * 8192, 100).unwrap(),
                vec![1u8; 100],
                "a block {i}"
            );
            assert_eq!(
                s2.read(b, i * 8192, 100).unwrap(),
                vec![2u8; 100],
                "b block {i}"
            );
        }
    }

    fn checked(mut base: CosOptions) -> CosOptions {
        base.checksums = true;
        base
    }

    #[test]
    fn checksummed_read_detects_bit_rot_and_heals_on_overwrite() {
        let mut s = fresh(checked(CosOptions::tiny()));
        let o = oid(0, 50);
        s.submit(write_txn(1, o, 0, vec![0x5A; 8192])).unwrap();
        assert_eq!(s.read(o, 0, 8192).unwrap(), vec![0x5A; 8192]);
        assert!(s.corrupt_data_bit(o, 1, 100, 3).unwrap());
        assert_eq!(s.read(o, 4096, 4096), Err(StoreError::ChecksumMismatch));
        // Sub-block reads of the rotted block fail too (verification is
        // block-granular), while the clean block still reads fine.
        assert_eq!(s.read(o, 5000, 16), Err(StoreError::ChecksumMismatch));
        assert_eq!(s.read(o, 0, 4096).unwrap(), vec![0x5A; 4096]);
        // A full-block overwrite (the repair path) restores integrity.
        s.submit(write_txn(2, o, 4096, vec![0x77; 4096])).unwrap();
        assert_eq!(s.read(o, 4096, 4096).unwrap(), vec![0x77; 4096]);
    }

    #[test]
    fn rmw_edge_read_refuses_to_launder_rot() {
        let mut s = fresh(checked(CosOptions::tiny()));
        let o = oid(0, 51);
        s.submit(write_txn(1, o, 0, vec![0x10; 4096])).unwrap();
        assert!(s.corrupt_data_bit(o, 0, 7, 0).unwrap());
        // An unaligned write must read-modify-write the rotted block; it
        // has to fail rather than fold rotted bytes under a fresh CRC.
        let err = s.submit(write_txn(2, o, 100, vec![0x20; 50]));
        assert_eq!(err, Err(StoreError::ChecksumMismatch));
    }

    #[test]
    fn checksums_persist_across_mount() {
        let opts = checked(CosOptions {
            metadata_cache: false,
            ..CosOptions::tiny()
        });
        let mut s = fresh(opts.clone());
        let o = oid(0, 52);
        s.submit(write_txn(1, o, 0, vec![0xAA; 12288])).unwrap();
        let dev = s.into_device();
        let mut s2 = CosObjectStore::mount(dev, opts.clone()).unwrap();
        assert_eq!(s2.read(o, 0, 12288).unwrap(), vec![0xAA; 12288]);
        assert!(s2.corrupt_data_bit(o, 2, 0, 7).unwrap());
        // Remount again: the checksum run read back from disk still
        // convicts the rotted block.
        let dev = s2.into_device();
        let mut s3 = CosObjectStore::mount(dev, opts).unwrap();
        assert_eq!(s3.read(o, 8192, 4096), Err(StoreError::ChecksumMismatch));
        assert_eq!(s3.read(o, 0, 8192).unwrap(), vec![0xAA; 8192]);
    }

    #[test]
    fn csum_digest_is_content_determined() {
        // Same final bytes via different write histories → same digest.
        let mut a = fresh(checked(CosOptions::tiny()));
        let mut b = fresh(checked(CosOptions::tiny()));
        let o = oid(0, 53);
        for s in [&mut a, &mut b] {
            s.submit(Transaction::new(
                o.group(),
                1,
                vec![Op::Create {
                    oid: o,
                    size: 16 << 10,
                }],
            ))
            .unwrap();
        }
        a.submit(write_txn(2, o, 0, vec![1; 4096])).unwrap();
        a.submit(write_txn(3, o, 8192, vec![2; 4096])).unwrap();
        // b writes in the opposite order, with an intermediate overwrite.
        b.submit(write_txn(2, o, 8192, vec![9; 4096])).unwrap();
        b.submit(write_txn(3, o, 8192, vec![2; 4096])).unwrap();
        b.submit(write_txn(4, o, 0, vec![1; 4096])).unwrap();
        assert_eq!(a.csum_digest(o), b.csum_digest(o));
        assert!(a.csum_digest(o).is_some());
        b.submit(write_txn(5, o, 0, vec![3; 4096])).unwrap();
        assert_ne!(a.csum_digest(o), b.csum_digest(o));
        // Digest never reads data, so rot is invisible to it (that is the
        // deep scrub's job).
        let before = a.csum_digest(o);
        a.corrupt_data_bit(o, 0, 0, 0).unwrap();
        assert_eq!(a.csum_digest(o), before);
    }

    #[test]
    fn stores_sharing_one_payload_rot_independently() {
        let opts = checked(CosOptions {
            metadata_cache: false,
            ..CosOptions::tiny()
        });
        let source: rablock_storage::Payload = (0..8192u32)
            .map(|i| (i % 251) as u8)
            .collect::<Vec<_>>()
            .into();
        let pristine = source.to_vec();
        let o = oid(1, 60);
        let mut a = fresh(opts.clone());
        let mut b = fresh(opts.clone());
        for s in [&mut a, &mut b] {
            let data = source.clone();
            let op = Op::Write {
                oid: o,
                offset: 4096,
                data,
            };
            s.submit(Transaction::new(o.group(), 1, vec![op])).unwrap();
        }
        assert!(a.corrupt_data_bit(o, 2, 17, 5).unwrap());
        assert_eq!(a.read(o, 8192, 4096), Err(StoreError::ChecksumMismatch));
        assert_eq!(a.read(o, 4096, 4096).unwrap()[..], pristine[..4096]);
        assert_eq!(source, pristine, "rot on a device never reaches the buffer");
        assert_eq!(b.read(o, 4096, 8192).unwrap(), pristine);
        // Blocks held by reference are part of the device a mount sees.
        let mut b = CosObjectStore::mount(b.into_device(), opts).unwrap();
        assert_eq!(b.read(o, 4096, 8192).unwrap(), pristine);
    }

    /// What a deep scrub does to one object (read every byte) and what its
    /// repair does (the pushed copy: create + whole-object write).
    fn scrub_then_repair(s: &mut CosObjectStore<MemDisk>, o: ObjectId, good: &[u8]) {
        let size = good.len() as u64;
        assert_eq!(s.read(o, 0, size), Err(StoreError::ChecksumMismatch));
        let repair = vec![
            Op::Create { oid: o, size },
            Op::Write {
                oid: o,
                offset: 0,
                data: good.to_vec().into(),
            },
        ];
        s.submit(Transaction::new(o.group(), 99, repair)).unwrap();
        assert_eq!(s.read(o, 0, size).unwrap(), good.to_vec());
    }

    #[test]
    fn rot_is_caught_after_reads_warmed_the_crc_memo() {
        let mut s = fresh(checked(CosOptions::tiny()));
        let o = oid(0, 62);
        // Two blocks from one 8 KiB buffer; both reads below answer their
        // verification from the memo `Partition::write` filled.
        s.submit(write_txn(1, o, 0, vec![0x5A; 8192])).unwrap();
        for _ in 0..2 {
            assert_eq!(s.read(o, 4096, 4096).unwrap(), vec![0x5A; 4096]);
            assert_eq!(s.read(o, 0, 8192).unwrap(), vec![0x5A; 8192]);
        }
        let served = s.read(o, 4096, 4096).unwrap();
        assert!(s.corrupt_data_bit(o, 1, 9, 2).unwrap());
        assert_eq!(s.read(o, 4096, 4096), Err(StoreError::ChecksumMismatch));
        assert_eq!(s.read(o, 4100, 10), Err(StoreError::ChecksumMismatch));
        assert_eq!(s.read(o, 0, 4096).unwrap(), vec![0x5A; 4096]);
        assert_eq!(served, vec![0x5A; 4096], "a served buffer never rots");
        scrub_then_repair(&mut s, o, &[0x5A; 8192]);
    }

    #[test]
    fn rot_is_caught_in_a_block_written_as_a_slice_of_an_object_sized_buffer() {
        let mut s = fresh(checked(CosOptions::tiny()));
        let o = oid(0, 63);
        let good: Vec<u8> = (0..64u32 << 10).map(|i| (i / 9) as u8).collect();
        // A recovery push: one buffer, sixteen blocks kept as slices of it.
        s.submit(write_txn(1, o, 0, good.clone())).unwrap();
        for block in 0..16u64 {
            let at = (block * 4096) as usize;
            assert_eq!(s.read(o, at as u64, 4096).unwrap()[..], good[at..at + 4096]);
        }
        assert_eq!(s.read(o, 0, 64 << 10).unwrap(), good);
        assert!(s.corrupt_data_bit(o, 5, 4095, 7).unwrap());
        assert_eq!(s.read(o, 5 * 4096, 4096), Err(StoreError::ChecksumMismatch));
        assert_eq!(
            s.read(o, 4 * 4096, 4096).unwrap()[..],
            good[4 * 4096..5 * 4096]
        );
        assert_eq!(
            s.read(o, 6 * 4096, 4096).unwrap()[..],
            good[6 * 4096..7 * 4096]
        );
        scrub_then_repair(&mut s, o, &good);
    }

    #[test]
    fn never_written_blocks_verify_against_zero_and_still_catch_rot() {
        let mut s = fresh(checked(CosOptions::tiny()));
        let o = oid(0, 64);
        s.submit(Transaction::new(
            o.group(),
            1,
            vec![Op::Create {
                oid: o,
                size: 64 << 10,
            }],
        ))
        .unwrap();
        // Block 9 gets a checksum entry; 0..9 get the zero CRC by fill-in,
        // 10.. have no entry at all.
        s.submit(write_txn(2, o, 9 * 4096, vec![3; 4096])).unwrap();
        assert_eq!(s.read(o, 0, 64 << 10).unwrap()[..9 * 4096], [0u8; 9 * 4096]);
        let views = s.read_segments(o, 0, 64 << 10).unwrap();
        let zero_views = views.iter().filter(|v| v.is_zeros()).count();
        assert_eq!(
            zero_views, 15,
            "every block but 9 is the device's zero view"
        );
        for block in [2u64, 12] {
            assert!(s.corrupt_data_bit(o, block, 77, 0).unwrap());
            assert_eq!(
                s.read(o, block * 4096, 4096),
                Err(StoreError::ChecksumMismatch)
            );
            assert_eq!(s.read(o, 0, 64 << 10), Err(StoreError::ChecksumMismatch));
            // An unaligned write must not fold the rotted zeroes in either.
            let rmw = s.submit(write_txn(3, o, block * 4096 + 10, vec![1; 10]));
            assert_eq!(rmw, Err(StoreError::ChecksumMismatch));
            assert!(s.corrupt_data_bit(o, block, 77, 0).unwrap());
            // Zero again, but written: the rot made it an image block.
            let healed = s.read(o, block * 4096, 4096).unwrap();
            assert!(healed == vec![0u8; 4096] && !healed.is_zeros());
        }
        s.submit(write_txn(4, o, 12 * 4096 + 10, vec![1; 10]))
            .unwrap();
        assert_eq!(s.read(o, 12 * 4096 + 8, 4).unwrap(), vec![0, 0, 1, 1]);
    }

    #[test]
    fn mounted_store_verifies_reads_against_the_persisted_checksums() {
        let opts = checked(CosOptions {
            metadata_cache: false,
            ..CosOptions::tiny()
        });
        let mut s = fresh(opts.clone());
        let o = oid(1, 65);
        let good: Vec<u8> = (0..16u32 << 10).map(|i| (i / 5) as u8).collect();
        s.submit(write_txn(1, o, 0, good.clone())).unwrap();
        s.submit(write_txn(2, o, 100, vec![0xEE; 50])).unwrap(); // an image block
        let mut want = good;
        want[100..150].fill(0xEE);
        assert_eq!(s.read(o, 0, 16 << 10).unwrap(), want);
        assert!(s.corrupt_data_bit(o, 0, 120, 1).unwrap());
        assert!(s.corrupt_data_bit(o, 3, 0, 0).unwrap());
        let mut m = CosObjectStore::mount(s.into_device(), opts).unwrap();
        assert_eq!(m.read(o, 0, 4096), Err(StoreError::ChecksumMismatch));
        assert_eq!(m.read(o, 3 * 4096, 4096), Err(StoreError::ChecksumMismatch));
        assert_eq!(m.read(o, 4096, 8192).unwrap()[..], want[4096..3 * 4096]);
        assert!(m.corrupt_data_bit(o, 0, 120, 1).unwrap());
        assert!(m.corrupt_data_bit(o, 3, 0, 0).unwrap());
        assert_eq!(m.read(o, 0, 16 << 10).unwrap(), want);
    }

    #[test]
    fn whole_block_read_returns_the_written_buffer() {
        let mut s = fresh(checked(CosOptions::tiny()));
        let o = oid(0, 66);
        let data: rablock_storage::Payload = vec![0x42; 8192].into();
        let op = Op::Write {
            oid: o,
            offset: 4096,
            data: data.clone(),
        };
        s.submit(Transaction::new(o.group(), 1, vec![op])).unwrap();
        let _ = s.take_trace();
        let got = s.read(o, 8192, 4096).unwrap();
        assert!(std::ptr::eq(got.as_ptr(), data[4096..].as_ptr()), "no copy");
        let hole = s.read(o, 0, 4096).unwrap();
        assert_eq!(hole, vec![0u8; 4096]);
        let reads: Vec<u64> = s.take_trace().iter().map(|t| t.bytes).collect();
        assert_eq!(reads, [4096], "one traced read; the hole costs none");
    }

    /// A recovery push end to end at the store level: the sender's read
    /// hands out its device's buffers, the receiver's apply keeps those very
    /// buffers (and with them their CRC memo — the scan-free half is pinned
    /// in `rablock_storage`'s `chunks_of_block_views_answer_from_the_senders_memo`),
    /// as one device write per contiguous run.
    #[test]
    fn pushed_object_arrives_by_reference_in_one_write_per_run() {
        let opts = checked(CosOptions::tiny());
        let o = oid(0, 67);
        let size = 8 * 4096u64;
        let mut sender = fresh(opts.clone());
        let create = Op::Create { oid: o, size };
        sender
            .submit(Transaction::new(o.group(), 1, vec![create]))
            .unwrap();
        // Blocks 1..=2 by reference, block 4 in the image, the rest never
        // written.
        let client: rablock_storage::Payload = (0..8192u32)
            .map(|i| (i / 7) as u8)
            .collect::<Vec<_>>()
            .into();
        let op = Op::Write {
            oid: o,
            offset: 4096,
            data: client.clone(),
        };
        sender
            .submit(Transaction::new(o.group(), 2, vec![op]))
            .unwrap();
        sender
            .submit(write_txn(3, o, 4 * 4096 + 10, vec![9; 100]))
            .unwrap();
        let object = sender.read_segments(o, 0, size).unwrap();
        assert_eq!(
            object.iter().count(),
            8,
            "one view per block, none assembled"
        );
        assert!(std::ptr::eq(
            object.iter().nth(2).unwrap().as_ptr(),
            client[4096..].as_ptr()
        ));

        let mut receiver = fresh(opts);
        let _ = receiver.take_trace();
        let push = vec![
            Op::Create { oid: o, size },
            Op::WriteV {
                oid: o,
                offset: 0,
                data: object.clone(),
            },
        ];
        receiver
            .submit(Transaction::new(o.group(), 9, push))
            .unwrap();
        let data_writes: Vec<u64> = receiver
            .take_trace()
            .iter()
            .filter(|t| {
                matches!(t.kind, rablock_storage::TraceKind::Write)
                    && t.category == rablock_storage::IoCategory::Data
            })
            .map(|t| t.bytes)
            .collect();
        assert_eq!(data_writes, [size], "eight views, one device write");
        assert_eq!(receiver.stats().user_bytes, size);
        assert_eq!(receiver.csum_digest(o), sender.csum_digest(o));
        let held = receiver.read(o, 2 * 4096, 4096).unwrap();
        assert!(
            std::ptr::eq(held.as_ptr(), client[4096..].as_ptr()),
            "the client's buffer, never copied on the way"
        );
        assert!(receiver.read_segments(o, 0, size).unwrap() == object);
        // Rot under a pushed block is the receiver's alone, and is caught.
        assert!(receiver.corrupt_data_bit(o, 2, 5, 1).unwrap());
        assert_eq!(
            receiver.read(o, 2 * 4096, 4096),
            Err(StoreError::ChecksumMismatch)
        );
        assert!(sender.read_segments(o, 0, size).unwrap() == object);
        // An empty vectored write is refused like an empty write.
        let empty = Op::WriteV {
            oid: o,
            offset: 0,
            data: Segments::new(),
        };
        assert!(matches!(
            receiver.submit(Transaction::new(o.group(), 10, vec![empty])),
            Err(StoreError::InvalidArgument(_))
        ));
    }

    #[test]
    fn unaligned_overwrite_of_a_shared_block_merges() {
        let mut s = fresh(checked(CosOptions::tiny()));
        let o = oid(0, 61);
        s.submit(write_txn(1, o, 0, vec![0x33; 8192])).unwrap();
        s.submit(write_txn(2, o, 4000, vec![0x44; 200])).unwrap();
        let mut want = vec![0x33; 8192];
        want[4000..4200].fill(0x44);
        assert_eq!(s.read(o, 0, 8192).unwrap(), want, "merged, CRCs valid");
    }

    #[test]
    fn meta_kv_lives_in_memory_not_on_device() {
        let mut s = fresh(CosOptions::tiny());
        let written_before = s.device().counters().bytes_written;
        s.submit(Transaction::new(
            GroupId(0),
            1,
            vec![Op::MetaPut {
                key: b"pglog.1".into(),
                value: vec![3; 100].into(),
            }],
        ))
        .unwrap();
        assert_eq!(s.get_meta(b"pglog.1"), Some(vec![3; 100]));
        assert_eq!(
            s.device().counters().bytes_written,
            written_before,
            "pg log rides the NVM op log, not the device"
        );
    }

    /// The store borrows a transaction's ops: the op log or a replica's
    /// message that still holds them finds them intact, the store keeps no
    /// share of the slice, and what it reads back is what was submitted.
    #[test]
    fn a_submitted_transaction_held_elsewhere_keeps_its_ops() {
        let mut s = fresh(CosOptions::tiny());
        let o = oid(0, 1);
        let create = Op::Create {
            oid: o,
            size: 64 << 10,
        };
        s.submit(Transaction::new(o.group(), 1, vec![create]))
            .unwrap();
        let xattr = |fill| Op::SetXattr {
            oid: o,
            key: "oi".into(),
            value: vec![fill; 64].into(),
        };
        let ops = vec![
            Op::Write {
                oid: o,
                offset: 4096,
                data: vec![0xC3; 4096].into(),
            },
            xattr(0xA5),
            meta_put(b"pglog.0.2", &[0x5A; 180]),
        ];
        let txn = Transaction::new(o.group(), 2, ops.clone());
        let held = txn.clone();
        s.submit(txn).unwrap();
        assert_eq!(&held.ops[..], &ops[..]);
        assert_eq!(
            std::sync::Arc::strong_count(&held.ops),
            1,
            "the store kept a share"
        );
        assert_eq!(s.read(o, 4096, 4096).unwrap(), vec![0xC3; 4096]);
        assert_eq!(s.get_meta(b"pglog.0.2"), Some(vec![0x5A; 180]));
        let idx = s.partition_of(o.group());
        assert_eq!(s.partitions[idx].xattr(o, "oi"), Some(&[0xA5; 64][..]));
        // Rewriting the xattr reuses the store's own buffer, not the op's.
        let next = Transaction::new(o.group(), 3, vec![xattr(0x11)]);
        s.submit(next).unwrap();
        assert_eq!(s.partitions[idx].xattr(o, "oi"), Some(&[0x11; 64][..]));
        assert_eq!(&held.ops[..], &ops[..]);
    }

    fn meta_put(key: &[u8], value: &[u8]) -> Op {
        Op::MetaPut {
            key: key.into(),
            value: value.into(),
        }
    }

    fn meta_delete(key: &[u8]) -> Op {
        Op::MetaDelete { key: key.into() }
    }

    fn submit_meta(s: &mut CosObjectStore<MemDisk>, seq: u64, ops: Vec<Op>) {
        s.submit(Transaction::new(GroupId(0), seq, ops)).unwrap();
    }

    /// The store keeps the submitted value by reference: its record is a
    /// view of the op's buffer, and `get_meta` answers that buffer's bytes.
    #[test]
    fn a_stored_meta_value_is_the_submitted_payload() {
        let mut s = fresh(CosOptions::tiny());
        let value: Payload = vec![0x5A; 180].into();
        let put = Op::MetaPut {
            key: b"pglog.0.1".into(),
            value: value.clone(),
        };
        submit_meta(&mut s, 1, vec![put]);
        let record = s.meta_kv.get(&b"pglog.0.1"[..]).expect("stored");
        assert!(
            std::ptr::eq(record.value().as_ptr(), value.as_ptr()),
            "the store copied the value"
        );
        assert_eq!(s.get_meta(b"pglog.0.1"), Some(vec![0x5A; 180]));
    }

    /// An overwrite leaves no view of the first value in the store.
    #[test]
    fn a_meta_overwrite_drops_the_old_view() {
        let mut s = fresh(CosOptions::tiny());
        let (first, second): (Payload, Payload) = (vec![1; 180].into(), vec![2; 90].into());
        for (seq, value) in [(1, &first), (2, &second)] {
            let put = Op::MetaPut {
                key: b"pglog.0.1".into(),
                value: value.clone(),
            };
            submit_meta(&mut s, seq, vec![put]);
        }
        assert_eq!(s.meta_kv.len(), 1);
        let record = s.meta_kv.get(&b"pglog.0.1"[..]).expect("stored");
        assert!(
            std::ptr::eq(record.value().as_ptr(), second.as_ptr()),
            "the store kept the first value"
        );
        assert_eq!(s.get_meta(b"pglog.0.1"), Some(vec![2; 90]));
    }

    #[test]
    fn meta_overwrite_returns_the_second_value() {
        let mut s = fresh(CosOptions::tiny());
        submit_meta(&mut s, 1, vec![meta_put(b"pglog.1", b"first")]);
        submit_meta(&mut s, 2, vec![meta_put(b"pglog.1", b"second, longer")]);
        assert_eq!(s.get_meta(b"pglog.1"), Some(b"second, longer".to_vec()));
        assert_eq!(s.meta_kv.len(), 1);
    }

    #[test]
    fn meta_delete_of_a_present_and_an_absent_key() {
        let mut s = fresh(CosOptions::tiny());
        submit_meta(&mut s, 1, vec![meta_put(b"pglog.1", b"v")]);
        submit_meta(&mut s, 2, vec![meta_delete(b"pglog.2")]);
        assert_eq!(s.get_meta(b"pglog.1"), Some(b"v".to_vec()), "absent: no-op");
        submit_meta(&mut s, 3, vec![meta_delete(b"pglog.1")]);
        assert_eq!(s.get_meta(b"pglog.1"), None);
        assert!(s.meta_kv.is_empty());
    }

    #[test]
    fn meta_keys_that_prefix_each_other_stay_apart() {
        let mut s = fresh(CosOptions::tiny());
        submit_meta(
            &mut s,
            1,
            vec![
                meta_put(b"pglog.1", b"one"),
                meta_put(b"pglog.11", b"eleven"),
            ],
        );
        assert_eq!(s.get_meta(b"pglog.1"), Some(b"one".to_vec()));
        assert_eq!(s.get_meta(b"pglog.11"), Some(b"eleven".to_vec()));
        assert_eq!(s.get_meta(b"pglog."), None);
        assert_eq!(s.get_meta(b"pglog.111"), None);
        submit_meta(&mut s, 2, vec![meta_delete(b"pglog.1")]);
        assert_eq!(s.get_meta(b"pglog.1"), None);
        assert_eq!(s.get_meta(b"pglog.11"), Some(b"eleven".to_vec()));
    }

    #[test]
    fn meta_empty_value_is_present() {
        let mut s = fresh(CosOptions::tiny());
        submit_meta(&mut s, 1, vec![meta_put(b"pglog.1", b"")]);
        assert_eq!(s.get_meta(b"pglog.1"), Some(Vec::new()));
        assert_eq!(s.get_meta(b"pglog.2"), None);
    }

    #[test]
    fn large_write_coalesces_into_few_device_ios() {
        let mut s = fresh(CosOptions::tiny());
        let o = oid(0, 30);
        s.submit(Transaction::new(
            o.group(),
            1,
            vec![Op::Create {
                oid: o,
                size: 1 << 20,
            }],
        ))
        .unwrap();
        s.take_trace();
        s.submit(write_txn(2, o, 0, vec![9u8; 128 << 10])).unwrap();
        let trace = s.take_trace();
        let data_writes: Vec<_> = trace
            .iter()
            .filter(|t| {
                matches!(t.kind, rablock_storage::TraceKind::Write)
                    && t.category == rablock_storage::IoCategory::Data
            })
            .collect();
        assert_eq!(
            data_writes.len(),
            1,
            "contiguous pre-allocated run = one 128 KiB write"
        );
        assert_eq!(data_writes[0].bytes, 128 << 10);
    }
}
