//! BlueStore-like object store backend over the LSM database.
//!
//! Stock Ceph's BlueStore routes small writes and all metadata through
//! RocksDB. Under the paper's 4 KiB random-write regime, effectively every
//! byte of a request rides the LSM — which is why the baseline burns CPU on
//! compaction and shows ~3× host-side write amplification. This backend
//! reproduces that architecture: object data is chunked into 4 KiB blocks
//! stored as LSM values, object metadata and the per-request Ceph records
//! (`object_info_t`, pg log) are LSM keys too.

use std::mem::take;

use rablock_storage::{
    BlockDevice, FxHashMap, Key, MaintenanceReport, ObjectId, ObjectInfo, ObjectStore, Op, Payload,
    Segments, SmallVec, StoreError, StoreStats, TraceIo, Transaction,
};

use crate::cache::BlockCache;
use crate::db::Db;
use crate::options::LsmOptions;
use crate::util::{put_u64, Cursor};
use crate::wal::BatchEntry;

/// Data is chunked into blocks of this size inside the LSM.
pub const LSM_BLOCK_BYTES: u64 = 4096;

// The store's keys, each written straight into a [`Key`]: every one but a
// long xattr name or meta key is held inline. The object id is
// little-endian, the generation and block or chunk big-endian.

fn info_key(oid: ObjectId) -> Key {
    Key::concat(&[b"M", &oid.raw().to_le_bytes()])
}

fn data_key(oid: ObjectId, generation: u32, block: u64) -> Key {
    let (oid, generation) = (oid.raw().to_le_bytes(), generation.to_be_bytes());
    Key::concat(&[b"D", &oid, &generation, &block.to_be_bytes()])
}

fn xattr_key(oid: ObjectId, name: &str) -> Key {
    Key::concat(&[b"X", &oid.raw().to_le_bytes(), name.as_bytes()])
}

fn raw_key(oid: ObjectId, generation: u32, chunk: u64) -> Key {
    let (oid, generation) = (oid.raw().to_le_bytes(), generation.to_be_bytes());
    Key::concat(&[b"R", &oid, &generation, &chunk.to_be_bytes()])
}

fn meta_key(user_key: &[u8]) -> Key {
    Key::concat(&[b"K", user_key])
}

#[derive(Debug, Clone, Copy)]
struct StoredInfo {
    size: u64,
    version: u64,
    mtime: u64,
    /// Part of every data and raw key. Data blocks are not tombstoned on
    /// delete, so each incarnation of an object must use a new one.
    generation: u32,
    /// The object is gone; the record stays only to remember `generation`.
    deleted: bool,
}

impl StoredInfo {
    /// The first info of an object created at `generation`.
    fn fresh(generation: u32) -> Self {
        StoredInfo {
            size: 0,
            version: 0,
            mtime: 0,
            generation,
            deleted: false,
        }
    }

    fn encode(&self) -> Payload {
        let mut v = Vec::with_capacity(29);
        put_u64(&mut v, self.size);
        put_u64(&mut v, self.version);
        put_u64(&mut v, self.mtime);
        v.extend_from_slice(&self.generation.to_le_bytes());
        if self.deleted {
            // Live records keep their 28 bytes.
            v.push(1);
        }
        v.into()
    }

    fn decode(raw: &[u8]) -> Result<Self, StoreError> {
        let mut c = Cursor::new(raw);
        let size = c.get_u64().ok_or_else(bad_info)?;
        let version = c.get_u64().ok_or_else(bad_info)?;
        let mtime = c.get_u64().ok_or_else(bad_info)?;
        let generation = u32::from_le_bytes(
            c.get_bytes_raw(4)
                .ok_or_else(bad_info)?
                .try_into()
                .expect("4 bytes"),
        );
        Ok(StoredInfo {
            size,
            version,
            mtime,
            generation,
            deleted: c.get_bytes_raw(1).is_some(),
        })
    }
}

fn bad_info() -> StoreError {
    StoreError::Corrupt("truncated object info record".into())
}

/// The BlueStore-like [`ObjectStore`] backend (the paper's *Original*).
///
/// ```
/// use rablock_lsm::{LsmObjectStore, LsmOptions};
/// use rablock_storage::{MemDisk, ObjectStore, ObjectId, GroupId, Op, Transaction};
/// # fn main() -> Result<(), rablock_storage::StoreError> {
/// let mut store = LsmObjectStore::open(MemDisk::new(16 << 20), LsmOptions::tiny())?;
/// let oid = ObjectId::new(GroupId(0), 1);
/// store.submit(Transaction::new(GroupId(0), 1, vec![
///     Op::Write { oid, offset: 0, data: b"hello".to_vec().into() },
/// ]))?;
/// assert_eq!(&store.read(oid, 0, 5)?[..], b"hello");
/// # Ok(())
/// # }
/// ```
/// Writes covering at least this fraction of a chunk take the raw path.
const RAW_PROMOTE_NUM: u64 = 1;
const RAW_PROMOTE_DEN: u64 = 2;

/// The BlueStore-like object store over the LSM (`Original`'s backend).
pub struct LsmObjectStore<D: BlockDevice> {
    db: Db<D>,
    /// BlueStore-style large-write map: `(oid, generation, chunk) → raw
    /// segment`. Chunks on this map hold the authoritative bytes; the LSM
    /// only stores their location record.
    raw_chunks: FxHashMap<(u64, u32, u64), u32>,
    /// BlueStore-style object-data cache (write-through), paper SV-E.
    cache: BlockCache,
    /// The last maintenance step failed (device full or faulty) and nothing
    /// was submitted since. The step left the database as it was, so it
    /// would fail again: maintenance reports "not due" until a transaction
    /// changes the picture, instead of spinning callers that loop on
    /// [`ObjectStore::needs_maintenance`].
    maintenance_failed: bool,
    /// One transaction's batch and per-object infos, kept so `submit`
    /// allocates neither; both are empty between transactions, so they pin
    /// no value.
    batch: Vec<BatchEntry>,
    infos: Vec<(ObjectId, StoredInfo)>,
    user_bytes: u64,
    transactions: u64,
}

impl<D: BlockDevice> LsmObjectStore<D> {
    /// Opens (or formats) a store on `dev`.
    ///
    /// # Errors
    ///
    /// See [`Db::open`].
    pub fn open(dev: D, opts: LsmOptions) -> Result<Self, StoreError> {
        let mut db = Db::open(dev, opts)?;
        // Rebuild the large-write map from its LSM records.
        let mut raw_chunks = FxHashMap::default();
        for (k, v) in db.scan_prefix(b"R")? {
            if k.len() != 1 + 8 + 4 + 8 || v.len() != 4 {
                continue;
            }
            let oid = u64::from_le_bytes(k[1..9].try_into().expect("8 bytes"));
            let generation = u32::from_be_bytes(k[9..13].try_into().expect("4 bytes"));
            let chunk = u64::from_be_bytes(k[13..21].try_into().expect("8 bytes"));
            let seg = u32::from_le_bytes(v[..4].try_into().expect("4 bytes"));
            raw_chunks.insert((oid, generation, chunk), seg);
        }
        let cache = BlockCache::new(db.options().block_cache_bytes);
        Ok(LsmObjectStore {
            db,
            raw_chunks,
            cache,
            maintenance_failed: false,
            batch: Vec::new(),
            infos: Vec::new(),
            user_bytes: 0,
            transactions: 0,
        })
    }

    /// The embedded LSM database (diagnostics).
    pub fn db(&self) -> &Db<D> {
        &self.db
    }

    /// Consumes the store, returning the device (crash-injection tests).
    pub fn into_device(self) -> D {
        self.db.into_device()
    }

    /// The info of a live object.
    fn load_info(&mut self, oid: ObjectId) -> Result<Option<StoredInfo>, StoreError> {
        Ok(self.load_info_record(oid)?.filter(|info| !info.deleted))
    }

    /// The info record of `oid`, which outlives the object as a marker.
    fn load_info_record(&mut self, oid: ObjectId) -> Result<Option<StoredInfo>, StoreError> {
        let key = info_key(oid);
        if let Some(raw) = self.cache.get(&key) {
            return Ok(Some(StoredInfo::decode(&raw)?));
        }
        match self.db.get(&key)? {
            Some(raw) => {
                // BlueStore caches onodes; so do we.
                self.cache.put(&key, raw.clone());
                Ok(Some(StoredInfo::decode(&raw)?))
            }
            None => Ok(None),
        }
    }

    fn apply_write(
        &mut self,
        batch: &mut Vec<BatchEntry>,
        info: &mut StoredInfo,
        oid: ObjectId,
        offset: u64,
        data: &Segments,
    ) -> Result<(), StoreError> {
        let end = offset + data.len() as u64;
        // Large-write path (BlueStore: big writes bypass RocksDB and land
        // on the raw device; small writes to raw chunks overwrite in place).
        let chunk_bytes = self.db.segment_bytes();
        let first_chunk = offset / chunk_bytes;
        let last_chunk = (end - 1) / chunk_bytes;
        // A client write spans one chunk, two where it straddles a
        // boundary; a longer write spills to the heap.
        let mut kv_ranges: SmallVec<(u64, u64), 2> = SmallVec::new();
        for chunk in first_chunk..=last_chunk {
            let c_start = chunk * chunk_bytes;
            let c_end = c_start + chunk_bytes;
            let p_start = offset.max(c_start);
            let p_end = end.min(c_end);
            let key = (oid.raw(), info.generation, chunk);
            let part = || data.slice((p_start - offset) as usize, (p_end - p_start) as usize);
            if let Some(&seg) = self.raw_chunks.get(&key) {
                self.db
                    .raw_write(seg, p_start - c_start, &part().into_payload())?;
            } else if (p_end - p_start) * RAW_PROMOTE_DEN >= chunk_bytes * RAW_PROMOTE_NUM {
                // Promote: merge any existing KV blocks of this chunk, then
                // write the whole chunk raw.
                let mut merged = vec![0u8; chunk_bytes as usize];
                if info.size > c_start {
                    let have = (info.size - c_start).min(chunk_bytes);
                    let mut old = Segments::new();
                    self.read_kv(oid, info, c_start, have, &mut old)?;
                    old.copy_to_slice(&mut merged[..have as usize]);
                }
                part().copy_to_slice(
                    &mut merged[(p_start - c_start) as usize..(p_end - c_start) as usize],
                );
                let seg = self.db.alloc_segments(1)?[0];
                self.db.raw_write(seg, 0, &merged)?;
                self.raw_chunks.insert(key, seg);
                batch.push((
                    raw_key(oid, info.generation, chunk),
                    Some(seg.to_le_bytes().as_slice().into()),
                ));
            } else {
                kv_ranges.push((p_start, p_end));
            }
        }
        for (r_start, r_end) in kv_ranges {
            self.apply_kv_write(batch, info, oid, offset, data, r_start, r_end)?;
        }
        info.size = info.size.max(end);
        Ok(())
    }

    /// The small-write path: 4 KiB blocks as LSM values. A block the write
    /// covers whole is a window into the client's buffer; cache, WAL frame
    /// and memtable then share it.
    #[allow(clippy::too_many_arguments)]
    fn apply_kv_write(
        &mut self,
        batch: &mut Vec<BatchEntry>,
        info: &mut StoredInfo,
        oid: ObjectId,
        offset: u64,
        data: &Segments,
        r_start: u64,
        r_end: u64,
    ) -> Result<(), StoreError> {
        let end = r_end;
        let first_block = r_start / LSM_BLOCK_BYTES;
        let last_block = (end - 1) / LSM_BLOCK_BYTES;
        for block in first_block..=last_block {
            let block_start = block * LSM_BLOCK_BYTES;
            let block_end = block_start + LSM_BLOCK_BYTES;
            let copy_start = r_start.max(block_start);
            let copy_end = end.min(block_end);
            let key = data_key(oid, info.generation, block);
            let part = data.slice(
                (copy_start - offset) as usize,
                (copy_end - copy_start) as usize,
            );
            let value = if copy_start == block_start && copy_end == block_end {
                part.into_payload()
            } else {
                // Unaligned: read-modify-write the block (the paper calls
                // this out in the YCSB analysis, §V-E).
                let mut block = self.db.get(&key)?.map_or_else(Vec::new, |p| p.to_vec());
                block.resize(LSM_BLOCK_BYTES as usize, 0);
                part.copy_to_slice(
                    &mut block
                        [(copy_start - block_start) as usize..(copy_end - block_start) as usize],
                );
                block.into()
            };
            self.cache.put(&key, value.clone());
            batch.push((key, Some(value)));
        }
        info.size = info.size.max(end);
        Ok(())
    }

    /// One KV block of the object, through the write-through cache.
    fn kv_block(
        &mut self,
        oid: ObjectId,
        info: &StoredInfo,
        block: u64,
    ) -> Result<Option<Payload>, StoreError> {
        let key = data_key(oid, info.generation, block);
        if let Some(v) = self.cache.get(&key) {
            return Ok(Some(v));
        }
        let fetched = self.db.get(&key)?;
        if let Some(v) = &fetched {
            self.cache.put(&key, v.clone());
        }
        Ok(fetched)
    }

    /// Appends the object's bytes `[offset, offset + len)` to `out` from KV
    /// blocks only: each value as the buffer the cache or memtable holds,
    /// zeroes where a block is absent or short (sparse object).
    fn read_kv(
        &mut self,
        oid: ObjectId,
        info: &StoredInfo,
        offset: u64,
        len: u64,
        out: &mut Segments,
    ) -> Result<(), StoreError> {
        if len == 0 {
            return Ok(());
        }
        let end = offset + len;
        for block in offset / LSM_BLOCK_BYTES..=(end - 1) / LSM_BLOCK_BYTES {
            let block_start = block * LSM_BLOCK_BYTES;
            // The wanted range within the block, and where the value ends.
            let lo = (offset.max(block_start) - block_start) as usize;
            let hi = (end.min(block_start + LSM_BLOCK_BYTES) - block_start) as usize;
            let mut have = lo;
            if let Some(value) = self.kv_block(oid, info, block)? {
                have = value.len().clamp(lo, hi);
                out.push(if (lo, have) == (0, value.len()) {
                    value
                } else {
                    value.slice(lo, have - lo)
                });
            }
            out.push_zeros(hi - have);
        }
        Ok(())
    }

    /// Builds `txn`'s batch into `batch`, coalescing info updates per
    /// object in `infos`, and applies it as one atomic write.
    fn apply_txn(
        &mut self,
        txn: &Transaction,
        batch: &mut Vec<BatchEntry>,
        infos: &mut Vec<(ObjectId, StoredInfo)>,
    ) -> Result<(), StoreError> {
        let seq = txn.seq;
        let info_of = |store: &mut Self,
                       infos: &mut Vec<(ObjectId, StoredInfo)>,
                       oid: ObjectId,
                       create: bool|
         -> Result<Option<usize>, StoreError> {
            let pos = match infos.iter().position(|(o, _)| *o == oid) {
                Some(pos) => pos,
                None => {
                    let info = match store.load_info_record(oid)? {
                        Some(info) => info,
                        None if create => StoredInfo::fresh(0),
                        None => return Ok(None),
                    };
                    infos.push((oid, info));
                    infos.len() - 1
                }
            };
            let info = &mut infos[pos].1;
            if info.deleted {
                if !create {
                    return Ok(None);
                }
                // A new incarnation must not see the old one's data blocks.
                *info = StoredInfo::fresh(info.generation + 1);
            }
            Ok(Some(pos))
        };

        let write = |store: &mut Self,
                     infos: &mut Vec<(ObjectId, StoredInfo)>,
                     batch: &mut Vec<BatchEntry>,
                     oid: ObjectId,
                     offset: u64,
                     data: &Segments|
         -> Result<(), StoreError> {
            if data.is_empty() {
                return Err(StoreError::InvalidArgument("zero-length write".into()));
            }
            let idx = info_of(store, infos, oid, true)?.expect("write creates info");
            let mut info = infos[idx].1;
            store.apply_write(batch, &mut info, oid, offset, data)?;
            info.version += 1;
            info.mtime = seq;
            infos[idx].1 = info;
            store.user_bytes += data.len() as u64;
            Ok(())
        };

        // The ops are borrowed: a key the memtable keeps is copied into its
        // batch entry (inline when short), a write payload, xattr value or
        // meta value is a refcount.
        for op in txn.ops.iter() {
            match op {
                Op::Create { oid, size } => {
                    let idx = info_of(self, infos, *oid, true)?.expect("create always yields info");
                    let info = &mut infos[idx].1;
                    info.size = info.size.max(*size);
                    info.version += 1;
                    info.mtime = seq;
                }
                Op::Write { oid, offset, data } => {
                    let data = data.clone().into();
                    write(self, infos, batch, *oid, *offset, &data)?;
                }
                Op::WriteV { oid, offset, data } => {
                    write(self, infos, batch, *oid, *offset, data)?;
                }
                Op::SetXattr { oid, key, value } => {
                    let idx = info_of(self, infos, *oid, true)?.expect("xattr creates info");
                    infos[idx].1.version += 1;
                    batch.push((xattr_key(*oid, key), Some(value.clone())));
                }
                Op::MetaPut { key, value } => {
                    batch.push((meta_key(key), Some(value.clone())));
                }
                Op::MetaDelete { key } => {
                    batch.push((meta_key(key), None));
                }
                &Op::Delete { oid } => {
                    let Some(idx) = info_of(self, infos, oid, false)? else {
                        return Err(StoreError::NotFound);
                    };
                    let generation = infos[idx].1.generation;
                    infos[idx].1 = StoredInfo {
                        deleted: true,
                        ..StoredInfo::fresh(generation)
                    };
                    // Release the large-write chunks of this generation.
                    let mut doomed: Vec<(u64, u32, u64)> = self
                        .raw_chunks
                        .keys()
                        .filter(|(o, g, _)| *o == oid.raw() && *g == generation)
                        .copied()
                        .collect();
                    // Map order is per-process; the device image must not be.
                    doomed.sort_unstable();
                    for key in doomed {
                        let seg = self.raw_chunks.remove(&key).expect("just listed");
                        self.db.free_segment(seg)?;
                        batch.push((raw_key(oid, generation, key.2), None));
                    }
                }
            }
        }
        for &(oid, info) in infos.iter() {
            let key = info_key(oid);
            let encoded = info.encode();
            self.cache.put(&key, encoded.clone());
            batch.push((key, Some(encoded)));
        }
        self.maintenance_failed = false;
        self.db.apply(batch)?;
        self.transactions += 1;
        Ok(())
    }
}

impl<D: BlockDevice> ObjectStore for LsmObjectStore<D> {
    fn submit(&mut self, txn: Transaction) -> Result<(), StoreError> {
        let (mut batch, mut infos) = (take(&mut self.batch), take(&mut self.infos));
        let applied = self.apply_txn(&txn, &mut batch, &mut infos);
        batch.clear();
        infos.clear();
        (self.batch, self.infos) = (batch, infos);
        applied
    }

    fn read_segments(
        &mut self,
        oid: ObjectId,
        offset: u64,
        len: u64,
    ) -> Result<Segments, StoreError> {
        let info = self.load_info(oid)?.ok_or(StoreError::NotFound)?;
        if offset + len > info.size {
            return Err(StoreError::OutOfBounds {
                offset,
                len,
                capacity: info.size,
            });
        }
        // One whole KV block comes back as the memtable's or the cache's
        // own buffer: one segment, nothing allocated.
        let mut out = Segments::new();
        if len == 0 {
            return Ok(out);
        }
        let end = offset + len;
        let chunk_bytes = self.db.segment_bytes();
        for chunk in offset / chunk_bytes..=(end - 1) / chunk_bytes {
            let c_start = chunk * chunk_bytes;
            let p_start = offset.max(c_start);
            let p_end = end.min(c_start + chunk_bytes);
            if let Some(&seg) = self.raw_chunks.get(&(oid.raw(), info.generation, chunk)) {
                out.push(self.db.raw_read(seg, p_start - c_start, p_end - p_start)?);
            } else {
                self.read_kv(oid, &info, p_start, p_end - p_start, &mut out)?;
            }
        }
        Ok(out)
    }

    fn stat(&mut self, oid: ObjectId) -> Option<ObjectInfo> {
        self.load_info(oid).ok().flatten().map(|i| ObjectInfo {
            size: i.size,
            version: i.version,
            mtime: i.mtime,
        })
    }

    fn get_meta(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        let value = self.db.get(&meta_key(key)).ok().flatten()?;
        Some(value.to_vec())
    }

    fn needs_maintenance(&self) -> bool {
        !self.maintenance_failed && self.db.needs_maintenance()
    }

    fn maintenance(&mut self) -> MaintenanceReport {
        self.db.maintenance().unwrap_or_else(|_| {
            self.maintenance_failed = true;
            MaintenanceReport::default()
        })
    }

    fn take_trace(&mut self) -> Vec<TraceIo> {
        self.db.take_trace()
    }

    fn stats(&self) -> StoreStats {
        let mut s = self.db.stats();
        s.user_bytes = self.user_bytes;
        s.transactions = self.transactions;
        s
    }

    fn reset_stats(&mut self) {
        self.db.reset_stats();
        self.user_bytes = 0;
        self.transactions = 0;
    }
}

impl<D: BlockDevice> std::fmt::Debug for LsmObjectStore<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LsmObjectStore")
            .field("db", &self.db)
            .field("transactions", &self.transactions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rablock_storage::{GroupId, MemDisk};

    fn store() -> LsmObjectStore<MemDisk> {
        LsmObjectStore::open(MemDisk::new(32 << 20), LsmOptions::tiny()).unwrap()
    }

    fn oid(i: u64) -> ObjectId {
        ObjectId::new(GroupId(0), i)
    }

    fn write_txn(seq: u64, o: ObjectId, offset: u64, data: Vec<u8>) -> Transaction {
        Transaction::new(
            GroupId(0),
            seq,
            vec![Op::Write {
                oid: o,
                offset,
                data: data.into(),
            }],
        )
    }

    /// The store borrows a transaction's ops: the op log or a replica's
    /// message that still holds them finds them intact, the store keeps no
    /// share of the slice, and what it reads back is what was submitted.
    #[test]
    fn a_submitted_transaction_held_elsewhere_keeps_its_ops() {
        let mut s = store();
        let o = oid(1);
        let ops = vec![
            Op::Write {
                oid: o,
                offset: 4096,
                data: vec![0xC3; 4096].into(),
            },
            Op::SetXattr {
                oid: o,
                key: "oi".into(),
                value: vec![0xA5; 64].into(),
            },
            Op::MetaPut {
                key: b"pglog.0.1".into(),
                value: vec![0x5A; 180].into(),
            },
        ];
        let txn = Transaction::new(GroupId(0), 1, ops.clone());
        let held = txn.clone();
        s.submit(txn).unwrap();
        assert_eq!(&held.ops[..], &ops[..]);
        assert_eq!(
            std::sync::Arc::strong_count(&held.ops),
            1,
            "the store kept a share"
        );
        assert_eq!(s.read(o, 4096, 4096).unwrap(), vec![0xC3; 4096]);
        assert_eq!(s.get_meta(b"pglog.0.1"), Some(vec![0x5A; 180]));
        let value = s.db.get(&xattr_key(o, "oi")).unwrap().expect("xattr");
        assert_eq!(value, vec![0xA5; 64]);
    }

    #[test]
    fn write_read_aligned() {
        let mut s = store();
        s.submit(write_txn(1, oid(1), 0, vec![7u8; 4096])).unwrap();
        assert_eq!(s.read(oid(1), 0, 4096).unwrap(), vec![7u8; 4096]);
    }

    #[test]
    fn unaligned_write_does_read_modify_write() {
        let mut s = store();
        s.submit(write_txn(1, oid(1), 0, vec![1u8; 4096])).unwrap();
        s.submit(write_txn(2, oid(1), 100, vec![2u8; 50])).unwrap();
        let got = s.read(oid(1), 0, 4096).unwrap();
        assert_eq!(&got[..100], &[1u8; 100][..]);
        assert_eq!(&got[100..150], &[2u8; 50][..]);
        assert_eq!(&got[150..], &[1u8; 3946][..]);
    }

    #[test]
    fn write_spanning_blocks() {
        let mut s = store();
        s.submit(write_txn(1, oid(1), 4000, vec![9u8; 200]))
            .unwrap();
        let got = s.read(oid(1), 4000, 200).unwrap();
        assert_eq!(got, vec![9u8; 200]);
        // Sparse prefix reads as zeroes.
        assert_eq!(s.read(oid(1), 0, 10).unwrap(), vec![0u8; 10]);
    }

    #[test]
    fn version_and_mtime_advance() {
        let mut s = store();
        s.submit(write_txn(5, oid(1), 0, vec![1u8; 16])).unwrap();
        let v1 = s.stat(oid(1)).unwrap();
        s.submit(write_txn(9, oid(1), 0, vec![2u8; 16])).unwrap();
        let v2 = s.stat(oid(1)).unwrap();
        assert!(v2.version > v1.version);
        assert_eq!(v2.mtime, 9);
    }

    #[test]
    fn create_preallocates_size() {
        let mut s = store();
        s.submit(Transaction::new(
            GroupId(0),
            1,
            vec![Op::Create {
                oid: oid(2),
                size: 1 << 16,
            }],
        ))
        .unwrap();
        assert_eq!(s.stat(oid(2)).unwrap().size, 1 << 16);
        assert_eq!(s.read(oid(2), 65_000, 100).unwrap(), vec![0u8; 100]);
    }

    #[test]
    fn delete_removes_object_and_read_fails() {
        let mut s = store();
        s.submit(write_txn(1, oid(3), 0, vec![1u8; 128])).unwrap();
        s.submit(Transaction::new(
            GroupId(0),
            2,
            vec![Op::Delete { oid: oid(3) }],
        ))
        .unwrap();
        assert_eq!(s.read(oid(3), 0, 1), Err(StoreError::NotFound));
        assert!(s.stat(oid(3)).is_none());
        // Deleting again reports NotFound.
        let err = s.submit(Transaction::new(
            GroupId(0),
            3,
            vec![Op::Delete { oid: oid(3) }],
        ));
        assert_eq!(err, Err(StoreError::NotFound));
    }

    #[test]
    fn meta_records_round_trip() {
        let mut s = store();
        s.submit(Transaction::new(
            GroupId(0),
            1,
            vec![
                Op::MetaPut {
                    key: b"pglog.0.42".into(),
                    value: vec![1, 2, 3].into(),
                },
                Op::Write {
                    oid: oid(1),
                    offset: 0,
                    data: vec![0u8; 64].into(),
                },
            ],
        ))
        .unwrap();
        assert_eq!(s.get_meta(b"pglog.0.42"), Some(vec![1, 2, 3]));
        s.submit(Transaction::new(
            GroupId(0),
            2,
            vec![Op::MetaDelete {
                key: b"pglog.0.42".into(),
            }],
        ))
        .unwrap();
        assert_eq!(s.get_meta(b"pglog.0.42"), None);
    }

    #[test]
    fn random_write_workload_amplifies_writes() {
        let mut s = store();
        let mut x = 0x12345u64;
        for seq in 0..4_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let o = oid(x % 16);
            let block = (x >> 16) % 64;
            s.submit(write_txn(
                seq,
                o,
                block * 4096,
                vec![(seq % 251) as u8; 4096],
            ))
            .unwrap();
            while s.needs_maintenance() {
                s.maintenance();
            }
        }
        let stats = s.stats();
        assert_eq!(stats.user_bytes, 4_000 * 4096);
        // The LSM path writes every byte at least twice (WAL + flush) and
        // compaction pushes total WAF toward the paper's ~3.
        assert!(stats.waf() > 2.0, "waf = {}", stats.waf());
    }

    #[test]
    fn full_device_neither_spins_maintenance_nor_loses_acked_writes() {
        // 1 MiB device, more distinct blocks than it can hold.
        let mut s = LsmObjectStore::open(MemDisk::new(1 << 20), LsmOptions::tiny()).unwrap();
        let mut acked: std::collections::HashMap<(u64, u64), u8> = Default::default();
        let mut refused = 0;
        for seq in 0..600u64 {
            let (o, block, fill) = (seq % 7, seq * 13 % 64, (seq % 251) as u8);
            let txn = write_txn(seq + 1, oid(o), block * 4096, vec![fill; 4096]);
            if s.submit(txn).is_err() {
                break; // stalled on a flush the device has no room for
            }
            acked.insert((o, block), fill);
            let mut steps = 0;
            while s.needs_maintenance() {
                s.maintenance();
                steps += 1;
                assert!(
                    steps < 1_000,
                    "maintenance spins on a step that cannot succeed"
                );
            }
            refused += s.maintenance_failed as u32;
        }
        assert!(refused > 0, "the device never filled up");
        for ((o, block), fill) in acked {
            assert_eq!(
                s.read(oid(o), block * 4096, 4096).unwrap(),
                vec![fill; 4096],
                "object {o} block {block}"
            );
        }
    }

    #[test]
    fn out_of_bounds_read_rejected() {
        let mut s = store();
        s.submit(write_txn(1, oid(1), 0, vec![1u8; 100])).unwrap();
        assert!(matches!(
            s.read(oid(1), 50, 100),
            Err(StoreError::OutOfBounds { .. })
        ));
    }
}

#[cfg(test)]
mod raw_path_tests {
    use super::*;
    use rablock_storage::{GroupId, MemDisk};

    fn store() -> LsmObjectStore<MemDisk> {
        // tiny(): 16 KiB segments, so a 16 KiB write takes the raw path.
        LsmObjectStore::open(MemDisk::new(32 << 20), LsmOptions::tiny()).unwrap()
    }

    fn oid(i: u64) -> ObjectId {
        ObjectId::new(GroupId(0), i)
    }

    fn write_txn(seq: u64, o: ObjectId, offset: u64, data: Vec<u8>) -> Transaction {
        Transaction::new(
            GroupId(0),
            seq,
            vec![Op::Write {
                oid: o,
                offset,
                data: data.into(),
            }],
        )
    }

    #[test]
    fn large_write_takes_raw_path_and_reads_back() {
        let mut s = store();
        let chunk = s.db().segment_bytes();
        s.submit(write_txn(1, oid(1), 0, vec![0x7E; (chunk * 2) as usize]))
            .unwrap();
        assert_eq!(s.raw_chunks.len(), 2, "two chunks promoted");
        assert_eq!(
            s.read(oid(1), 0, chunk * 2).unwrap(),
            vec![0x7E; (chunk * 2) as usize]
        );
        // Raw-path writes must not ride the WAL (that is the whole point).
        let stats = s.stats();
        assert!(
            stats.wal_bytes < chunk,
            "wal bytes {} stay small",
            stats.wal_bytes
        );
        assert!(stats.data_bytes >= chunk * 2, "data written raw");
    }

    #[test]
    fn small_write_onto_raw_chunk_overwrites_in_place() {
        let mut s = store();
        let chunk = s.db().segment_bytes();
        s.submit(write_txn(1, oid(1), 0, vec![0x11; chunk as usize]))
            .unwrap();
        s.submit(write_txn(2, oid(1), 100, vec![0x22; 50])).unwrap();
        let got = s.read(oid(1), 0, chunk).unwrap();
        assert_eq!(&got[..100], &vec![0x11; 100][..]);
        assert_eq!(&got[100..150], &vec![0x22; 50][..]);
        assert_eq!(&got[150..], &vec![0x11; chunk as usize - 150][..]);
        assert_eq!(s.raw_chunks.len(), 1, "no extra chunk, in-place overwrite");
    }

    #[test]
    fn promotion_merges_existing_kv_blocks() {
        let mut s = store();
        let chunk = s.db().segment_bytes();
        // Small write first (KV path), then a big write over the same chunk.
        s.submit(write_txn(1, oid(1), 0, vec![0x33; 4096])).unwrap();
        s.submit(write_txn(
            2,
            oid(1),
            4096,
            vec![0x44; (chunk - 4096) as usize],
        ))
        .unwrap();
        let got = s.read(oid(1), 0, chunk).unwrap();
        assert_eq!(
            &got[..4096],
            &vec![0x33; 4096][..],
            "old KV data survives promotion"
        );
        assert_eq!(&got[4096..], &vec![0x44; (chunk - 4096) as usize][..]);
    }

    #[test]
    fn raw_chunks_survive_reopen() {
        let mut s = store();
        let chunk = s.db().segment_bytes();
        s.submit(write_txn(1, oid(1), 0, vec![0x55; chunk as usize]))
            .unwrap();
        s.submit(write_txn(2, oid(2), 0, vec![0x66; 1000])).unwrap();
        let dev = s.into_device();
        let mut s2 = LsmObjectStore::open(dev, LsmOptions::tiny()).unwrap();
        assert_eq!(s2.raw_chunks.len(), 1, "raw map rebuilt from LSM records");
        assert_eq!(
            s2.read(oid(1), 0, chunk).unwrap(),
            vec![0x55; chunk as usize]
        );
        assert_eq!(s2.read(oid(2), 0, 1000).unwrap(), vec![0x66; 1000]);
        // New allocations must not collide with the recovered raw segment.
        s2.submit(write_txn(3, oid(3), 0, vec![0x77; chunk as usize]))
            .unwrap();
        assert_eq!(
            s2.read(oid(1), 0, chunk).unwrap(),
            vec![0x55; chunk as usize]
        );
    }

    #[test]
    fn delete_frees_raw_segments() {
        let mut s = store();
        let chunk = s.db().segment_bytes();
        s.submit(write_txn(1, oid(1), 0, vec![0x88; (chunk * 3) as usize]))
            .unwrap();
        assert_eq!(s.raw_chunks.len(), 3);
        s.submit(Transaction::new(
            GroupId(0),
            2,
            vec![Op::Delete { oid: oid(1) }],
        ))
        .unwrap();
        assert!(s.raw_chunks.is_empty());
        assert_eq!(s.read(oid(1), 0, 1), Err(StoreError::NotFound));
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;
    use rablock_storage::{GroupId, MemDisk, TraceKind};

    #[test]
    fn repeated_reads_hit_the_cache_and_skip_the_device() {
        let mut s = LsmObjectStore::open(MemDisk::new(32 << 20), LsmOptions::tiny()).unwrap();
        let oid = ObjectId::new(GroupId(0), 1);
        s.submit(Transaction::new(
            GroupId(0),
            1,
            vec![Op::Write {
                oid,
                offset: 0,
                data: vec![9u8; 4096].into(),
            }],
        ))
        .unwrap();
        // Force the block out of the memtable onto the device, then drop
        // the write-through cache entry to start cold.
        s.db.flush_all().unwrap();
        s.cache.invalidate(&data_key(oid, 0, 0));
        let _ = s.take_trace();

        // Cold read: hits the device.
        assert_eq!(s.read(oid, 0, 4096).unwrap(), vec![9u8; 4096]);
        let cold: u64 = s
            .take_trace()
            .iter()
            .filter(|t| matches!(t.kind, TraceKind::Read))
            .map(|t| t.bytes)
            .sum();
        assert!(cold > 0, "cold read touched the device");

        // Warm read: served from the cache, no device I/O.
        assert_eq!(s.read(oid, 0, 4096).unwrap(), vec![9u8; 4096]);
        let warm: u64 = s
            .take_trace()
            .iter()
            .filter(|t| matches!(t.kind, TraceKind::Read))
            .map(|t| t.bytes)
            .sum();
        assert_eq!(warm, 0, "warm read skipped the device");
        let (hits, _) = s.cache.stats();
        assert!(hits >= 1);
    }

    #[test]
    fn cache_never_serves_stale_data_after_overwrite() {
        let mut s = LsmObjectStore::open(MemDisk::new(32 << 20), LsmOptions::tiny()).unwrap();
        let oid = ObjectId::new(GroupId(0), 2);
        for round in 0..20u8 {
            s.submit(Transaction::new(
                GroupId(0),
                round as u64 + 1,
                vec![Op::Write {
                    oid,
                    offset: 0,
                    data: vec![round; 4096].into(),
                }],
            ))
            .unwrap();
            assert_eq!(
                s.read(oid, 0, 4096).unwrap(),
                vec![round; 4096],
                "round {round}"
            );
        }
    }
}
