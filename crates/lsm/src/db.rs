//! The log-structured merge database: WAL + memtables + leveled SSTs.
//!
//! This is the RocksDB stand-in inside the BlueStore-like backend: writes
//! land in the WAL and the memtable; sealed memtables flush to L0 sorted
//! runs; background compaction merges runs down the level hierarchy. Every
//! device byte is traced by category, which is what makes the paper's
//! write-amplification measurements (Table I, Fig. 8) fall out of real
//! mechanics instead of constants.

use std::collections::{BTreeMap, VecDeque};

use rablock_storage::crc::crc32;
use rablock_storage::{
    BlockDevice, Frame, IoCategory, MaintenanceReport, NvmPiece, Payload, StoreError, StoreStats,
    TraceIo, TraceKind,
};

use crate::alloc::SegAlloc;
use crate::memtable::Memtable;
use crate::options::LsmOptions;
use crate::sst::{load_index, read_data, sst_get, Records, SegGeometry, Sst, SstWriter, Value};
use crate::util::{put_bytes, put_u32, put_u64, Cursor};
use crate::wal::{decode_batch, BatchEntry, Wal};

const MANIFEST_MAGIC: u32 = 0x4D41_4E46; // "MANF"

/// An LSM key-value database over a raw block device.
///
/// ```
/// use rablock_lsm::{Db, LsmOptions};
/// use rablock_storage::MemDisk;
/// # fn main() -> Result<(), rablock_storage::StoreError> {
/// let mut db = Db::open(MemDisk::new(8 << 20), LsmOptions::tiny())?;
/// db.apply(&[(b"k".into(), Some(b"v".to_vec().into()))])?;
/// assert_eq!(db.get(b"k")?.as_deref(), Some(&b"v"[..]));
/// # Ok(())
/// # }
/// ```
pub struct Db<D: BlockDevice> {
    dev: D,
    pub(crate) opts: LsmOptions,
    geom: SegGeometry,
    wal: Wal,
    alloc: SegAlloc,
    mem: Memtable,
    mem_epoch: u64,
    immutables: VecDeque<(u64, Memtable)>,
    /// `levels[0]` is newest-first; deeper levels are sorted by `min_key`
    /// and non-overlapping.
    pub(crate) levels: Vec<Vec<Sst>>,
    pub(crate) next_sst_id: u64,
    manifest_version: u64,
    replay_from: u64,
    pub(crate) compact_cursor: Vec<usize>,
    /// Segments holding raw (non-LSM) data, persisted in the manifest so
    /// recovery never re-allocates them.
    raw_segments: std::collections::BTreeSet<u32>,
    /// The one SST builder of flush and compaction; its file-image buffer
    /// is reused, so building a file touches no fresh memory.
    pub(crate) sst_writer: SstWriter,
    /// The framed manifest being written, kept so checkpoints (one per
    /// flush and per raw-segment change) do not allocate.
    manifest: Vec<u8>,
    trace: Vec<TraceIo>,
    stats: StoreStats,
    /// Times a writer had to wait for a synchronous flush (stall).
    pub stalls: u64,
}

impl<D: BlockDevice> Db<D> {
    /// Opens (or formats) a database on `dev`.
    ///
    /// If a valid manifest is present, state is recovered: SST indexes are
    /// reloaded and the WAL is replayed into a fresh memtable.
    ///
    /// # Errors
    ///
    /// Fails if the device is too small for the configured regions, or on
    /// unreadable/corrupt persistent state.
    pub fn open(dev: D, opts: LsmOptions) -> Result<Self, StoreError> {
        let fixed = opts.manifest_slot_bytes * 2 + opts.wal_bytes;
        if dev.capacity() < fixed + opts.segment_bytes * 4 {
            return Err(StoreError::InvalidArgument(format!(
                "device of {} bytes too small for LSM regions of {} bytes",
                dev.capacity(),
                fixed
            )));
        }
        let seg_region_off = fixed;
        let seg_count = ((dev.capacity() - seg_region_off) / opts.segment_bytes) as usize;
        let geom = SegGeometry {
            region_off: seg_region_off,
            segment_bytes: opts.segment_bytes,
        };
        let mut db = Db {
            dev,
            geom,
            wal: Wal::new(opts.manifest_slot_bytes * 2, opts.wal_bytes, 1),
            alloc: SegAlloc::new(seg_count),
            mem: Memtable::new(),
            mem_epoch: 1,
            immutables: VecDeque::new(),
            levels: vec![Vec::new(); opts.levels],
            next_sst_id: 1,
            manifest_version: 0,
            replay_from: 1,
            compact_cursor: vec![0; opts.levels],
            raw_segments: std::collections::BTreeSet::new(),
            sst_writer: SstWriter::new(opts.block_bytes),
            manifest: Vec::new(),
            trace: Vec::new(),
            stats: StoreStats::default(),
            stalls: 0,
            opts,
        };
        db.recover()?;
        Ok(db)
    }

    /// The configured options.
    pub fn options(&self) -> &LsmOptions {
        &self.opts
    }

    /// Immutable access to the device (counters, snapshots in tests).
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// Consumes the database, returning the device (crash-injection tests).
    pub fn into_device(self) -> D {
        self.dev
    }

    fn record(&mut self, io: TraceIo) {
        self.stats.record(io);
        self.trace.push(io);
    }

    /// Applies an atomic batch: one WAL record, then memtable inserts. The
    /// memtable shares each value with the caller (a refcount, not a copy).
    ///
    /// # Errors
    ///
    /// Propagates device errors; allocation exhaustion surfaces as
    /// [`StoreError::NoSpace`].
    pub fn apply(&mut self, batch: &[BatchEntry]) -> Result<(), StoreError> {
        let written = match self.wal.append(&mut self.dev, batch) {
            Ok(n) => n,
            Err(StoreError::NoSpace) => {
                // WAL exhausted: flush everything and reset (write stall).
                self.stalls += 1;
                self.flush_all()?;
                self.wal.append(&mut self.dev, batch)?
            }
            Err(e) => return Err(e),
        };
        self.record(TraceIo {
            kind: TraceKind::Write,
            bytes: written,
            category: IoCategory::Wal,
        });
        self.record(TraceIo {
            kind: TraceKind::Flush,
            bytes: 0,
            category: IoCategory::Wal,
        });
        for (k, v) in batch {
            self.mem.insert(k.clone(), v.clone());
        }
        self.maybe_seal()?;
        Ok(())
    }

    fn maybe_seal(&mut self) -> Result<(), StoreError> {
        if self.mem.approx_bytes() < self.opts.memtable_bytes {
            return Ok(());
        }
        let sealed = std::mem::take(&mut self.mem);
        let epoch = self.mem_epoch;
        self.immutables.push_back((epoch, sealed));
        self.wal.advance_epoch();
        self.mem_epoch = self.wal.current_epoch;
        if self.immutables.len() > self.opts.max_immutables {
            // Writers outran maintenance: stall on a synchronous flush.
            self.stalls += 1;
            self.flush_oldest()?;
        }
        Ok(())
    }

    /// Point lookup.
    ///
    /// # Errors
    ///
    /// Propagates device errors and corruption.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Payload>, StoreError> {
        if let Some(hit) = self.mem.get(key) {
            return Ok(hit.cloned());
        }
        for (_, imm) in self.immutables.iter().rev() {
            if let Some(hit) = imm.get(key) {
                return Ok(hit.cloned());
            }
        }
        let geom = self.geom;
        let mut tmp = Vec::new();
        let mut hit_result = None;
        {
            let dev = &mut self.dev;
            // L0: newest first, ranges overlap.
            for sst in &self.levels[0] {
                if let Some(hit) = sst_get(dev, geom, sst, key, &mut tmp)? {
                    hit_result = Some(hit);
                    break;
                }
            }
            if hit_result.is_none() {
                // Deeper levels: non-overlapping, binary search by range.
                for level in &self.levels[1..] {
                    let idx = level.partition_point(|s| *s.max_key < *key);
                    if idx < level.len() && level[idx].covers(key) {
                        if let Some(hit) = sst_get(dev, geom, &level[idx], key, &mut tmp)? {
                            hit_result = Some(hit);
                            break;
                        }
                    }
                }
            }
        }
        for io in tmp {
            self.record(io);
        }
        // A tombstone hit (`Some(None)`) and a miss both read as absent.
        Ok(hit_result.flatten())
    }

    /// True if sealed memtables await flushing or a compaction is due.
    pub fn needs_maintenance(&self) -> bool {
        !self.immutables.is_empty() || self.needs_compaction()
    }

    /// Performs one bounded maintenance step: flush one memtable if any is
    /// sealed, otherwise one compaction.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn maintenance(&mut self) -> Result<MaintenanceReport, StoreError> {
        if !self.immutables.is_empty() {
            let before = self.stats;
            self.flush_oldest()?;
            let after = self.stats;
            return Ok(MaintenanceReport {
                bytes_read: after.read_bytes - before.read_bytes,
                bytes_written: after.total_written() - before.total_written(),
                did_work: true,
            });
        }
        if self.needs_compaction() {
            return self.compact_once();
        }
        Ok(MaintenanceReport::default())
    }

    /// Seals and flushes everything buffered in memory.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn flush_all(&mut self) -> Result<(), StoreError> {
        if !self.mem.is_empty() {
            let sealed = std::mem::take(&mut self.mem);
            self.immutables.push_back((self.mem_epoch, sealed));
            self.wal.advance_epoch();
            self.mem_epoch = self.wal.current_epoch;
        }
        while !self.immutables.is_empty() {
            self.flush_oldest()?;
        }
        Ok(())
    }

    fn flush_oldest(&mut self) -> Result<(), StoreError> {
        let Some((epoch, imm)) = self.immutables.pop_front() else {
            return Ok(());
        };
        if !imm.is_empty() {
            // The file holds the memtable's values by reference.
            for (key, value) in imm.iter() {
                self.sst_writer.add(key, value.as_ref().map(NvmPiece::Held));
            }
            match self.finish_sst(IoCategory::MemtableFlush) {
                Ok(sst) => self.levels[0].insert(0, sst),
                Err(e) => {
                    // Acknowledged writes must stay readable.
                    self.immutables.push_front((epoch, imm));
                    return Err(e);
                }
            }
        }
        self.replay_from = epoch + 1;
        if self.immutables.is_empty() && self.mem.is_empty() {
            self.wal.reset();
            self.mem_epoch = self.wal.current_epoch;
            self.replay_from = self.wal.base_epoch;
        }
        self.write_manifest()?;
        Ok(())
    }

    pub(crate) fn level_bytes(&self, level: usize) -> u64 {
        self.levels[level].iter().map(|s| s.len).sum()
    }

    /// Persists what `sst_writer` holds as the next SST, recording its I/Os.
    pub(crate) fn finish_sst(&mut self, category: IoCategory) -> Result<Sst, StoreError> {
        let id = self.next_sst_id;
        self.next_sst_id += 1;
        let mut trace = Vec::new();
        let sst = self.sst_writer.finish(
            &mut self.dev,
            &mut self.alloc,
            self.geom,
            id,
            category,
            &mut trace,
        )?;
        for io in trace {
            self.record(io);
        }
        Ok(sst)
    }

    /// Reads the data region of `sst` (see [`Records`]) into `out`,
    /// recording compaction-read trace I/Os.
    pub(crate) fn read_sst_data(&mut self, sst: &Sst, out: &mut Frame) -> Result<(), StoreError> {
        let mut tmp = Vec::new();
        read_data(&mut self.dev, self.geom, sst, &mut tmp, out)?;
        for io in tmp {
            self.record(io);
        }
        Ok(())
    }

    /// Unallocated segments (tests: no failure path may leak one).
    #[cfg(test)]
    pub(crate) fn free_segments(&self) -> usize {
        self.alloc.free_segments()
    }

    pub(crate) fn free_sst(&mut self, sst: &Sst) {
        for &seg in &sst.segments {
            self.alloc.free(seg);
        }
    }

    /// Serializes and checkpoints the manifest into the alternate slot.
    pub(crate) fn write_manifest(&mut self) -> Result<(), StoreError> {
        self.manifest_version += 1;
        let framed = &mut self.manifest;
        framed.clear();
        // Length and CRC, backpatched once the body is known.
        framed.extend_from_slice(&[0; 8]);
        put_u32(framed, MANIFEST_MAGIC);
        put_u64(framed, self.manifest_version);
        put_u64(framed, self.next_sst_id);
        put_u64(framed, self.wal.base_epoch);
        put_u64(framed, self.wal.current_epoch);
        put_u64(framed, self.replay_from);
        put_u32(framed, self.levels.len() as u32);
        for level in &self.levels {
            put_u32(framed, level.len() as u32);
            for sst in level {
                put_u64(framed, sst.id);
                put_u64(framed, sst.len);
                put_u64(framed, sst.entries);
                put_u32(framed, sst.segments.len() as u32);
                for &seg in &sst.segments {
                    put_u32(framed, seg);
                }
                put_bytes(framed, &sst.min_key);
                put_bytes(framed, &sst.max_key);
            }
        }
        put_u32(framed, self.raw_segments.len() as u32);
        for &seg in &self.raw_segments {
            put_u32(framed, seg);
        }
        let body_len = (framed.len() - 8) as u32;
        let crc = crc32(&framed[8..]);
        framed[..4].copy_from_slice(&body_len.to_le_bytes());
        framed[4..8].copy_from_slice(&crc.to_le_bytes());
        let len = framed.len() as u64;
        if len > self.opts.manifest_slot_bytes {
            return Err(StoreError::Corrupt(format!(
                "manifest of {len} bytes exceeds slot of {}",
                self.opts.manifest_slot_bytes
            )));
        }
        let slot = (self.manifest_version % 2) * self.opts.manifest_slot_bytes;
        self.dev.write_at(slot, &self.manifest)?;
        self.dev.flush()?;
        self.record(TraceIo {
            kind: TraceKind::Write,
            bytes: len,
            category: IoCategory::Superblock,
        });
        self.record(TraceIo {
            kind: TraceKind::Flush,
            bytes: 0,
            category: IoCategory::Superblock,
        });
        Ok(())
    }

    fn read_manifest_slot(&mut self, slot: u64) -> Option<Vec<u8>> {
        let mut framed = vec![0u8; self.opts.manifest_slot_bytes as usize];
        self.dev
            .read_at(slot * self.opts.manifest_slot_bytes, &mut framed)
            .ok()?;
        let mut cur = Cursor::new(&framed);
        let len = cur.get_u32()? as usize;
        let stored_crc = cur.get_u32()?;
        if len + 8 > framed.len() {
            return None;
        }
        let body = &framed[8..8 + len];
        if crc32(body) != stored_crc {
            return None;
        }
        let mut check = Cursor::new(body);
        if check.get_u32()? != MANIFEST_MAGIC {
            return None;
        }
        Some(body.to_vec())
    }

    fn recover(&mut self) -> Result<(), StoreError> {
        let a = self.read_manifest_slot(0);
        let b = self.read_manifest_slot(1);
        let version_of = |body: &Vec<u8>| {
            let mut c = Cursor::new(body);
            c.get_u32();
            c.get_u64().unwrap_or(0)
        };
        let chosen = match (a, b) {
            (Some(x), Some(y)) => Some(if version_of(&x) >= version_of(&y) {
                x
            } else {
                y
            }),
            (Some(x), None) => Some(x),
            (None, Some(y)) => Some(y),
            (None, None) => None,
        };
        let Some(body) = chosen else {
            // Fresh device: persist an initial manifest so reopen sees one.
            return self.write_manifest();
        };
        let mut cur = Cursor::new(&body);
        cur.get_u32(); // magic, verified
        self.manifest_version = cur.get_u64().ok_or_else(trunc)?;
        self.next_sst_id = cur.get_u64().ok_or_else(trunc)?;
        let base_epoch = cur.get_u64().ok_or_else(trunc)?;
        let current_epoch = cur.get_u64().ok_or_else(trunc)?;
        self.replay_from = cur.get_u64().ok_or_else(trunc)?;
        self.wal = Wal::new(
            self.opts.manifest_slot_bytes * 2,
            self.opts.wal_bytes,
            base_epoch,
        );
        let levels = cur.get_u32().ok_or_else(trunc)? as usize;
        if levels != self.opts.levels {
            return Err(StoreError::Corrupt(format!(
                "manifest has {levels} levels, options expect {}",
                self.opts.levels
            )));
        }
        for level in 0..levels {
            let n = cur.get_u32().ok_or_else(trunc)? as usize;
            for _ in 0..n {
                let id = cur.get_u64().ok_or_else(trunc)?;
                let len = cur.get_u64().ok_or_else(trunc)?;
                let entries = cur.get_u64().ok_or_else(trunc)?;
                let nseg = cur.get_u32().ok_or_else(trunc)? as usize;
                let mut segments = Vec::with_capacity(nseg);
                for _ in 0..nseg {
                    segments.push(cur.get_u32().ok_or_else(trunc)?);
                }
                let min_key = cur.get_bytes().ok_or_else(trunc)?.into();
                let max_key = cur.get_bytes().ok_or_else(trunc)?.into();
                let mut sst = Sst {
                    id,
                    segments,
                    len,
                    min_key,
                    max_key,
                    entries,
                    index: Vec::new(),
                    bloom: crate::bloom::Bloom::build(std::iter::empty(), 0, 10),
                };
                for &seg in &sst.segments {
                    self.alloc.mark_used(seg);
                }
                load_index(&mut self.dev, self.geom, &mut sst)?;
                self.levels[level].push(sst);
            }
        }
        let raw_count = cur.get_u32().ok_or_else(trunc)? as usize;
        for _ in 0..raw_count {
            let seg = cur.get_u32().ok_or_else(trunc)?;
            self.alloc.mark_used(seg);
            self.raw_segments.insert(seg);
        }
        // Replay the WAL into a fresh memtable. Records are (epoch, batch).
        let records = self.wal.scan(&mut self.dev)?;
        let mut max_epoch = current_epoch;
        for (epoch, payload) in records {
            max_epoch = max_epoch.max(epoch);
            if epoch < self.replay_from {
                continue; // already flushed to an SST
            }
            for (key, value) in decode_batch(&payload).ok_or_else(trunc)? {
                self.mem.insert(key, value);
            }
        }
        self.record(TraceIo {
            kind: TraceKind::Read,
            bytes: self.opts.wal_bytes,
            category: IoCategory::Wal,
        });
        // Recovery policy: flush the replayed data straight to an SST and
        // restart the WAL from a clean slate. Recovery is rare, so trading a
        // small flush for a much simpler "resume appending mid-region"
        // protocol is the right call.
        self.wal.current_epoch = max_epoch;
        self.mem_epoch = max_epoch;
        if !self.mem.is_empty() {
            self.immutables
                .push_back((self.mem_epoch, std::mem::take(&mut self.mem)));
            self.wal.advance_epoch();
            self.mem_epoch = self.wal.current_epoch;
            self.flush_oldest()?;
        }
        self.wal.reset();
        self.mem_epoch = self.wal.current_epoch;
        self.replay_from = self.wal.base_epoch;
        self.write_manifest()?;
        Ok(())
    }

    /// Allocates `n` raw segments for data stored outside the LSM (the
    /// BlueStore-style large-write path).
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSpace`] when the segment area is exhausted.
    pub fn alloc_segments(&mut self, n: usize) -> Result<Vec<u32>, StoreError> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            match self.alloc.alloc() {
                Ok(s) => out.push(s),
                Err(e) => {
                    for s in out {
                        self.alloc.free(s);
                    }
                    return Err(e);
                }
            }
        }
        self.raw_segments.extend(out.iter().copied());
        self.write_manifest()?;
        Ok(out)
    }

    /// Frees a raw segment back to the allocator.
    ///
    /// # Errors
    ///
    /// Propagates manifest-write errors.
    ///
    /// # Panics
    ///
    /// Panics on double free.
    pub fn free_segment(&mut self, seg: u32) -> Result<(), StoreError> {
        assert!(
            self.raw_segments.remove(&seg),
            "freeing a non-raw segment {seg}"
        );
        self.alloc.free(seg);
        self.write_manifest()
    }

    /// Segment size in bytes (raw-path granularity).
    pub fn segment_bytes(&self) -> u64 {
        self.opts.segment_bytes
    }

    /// Writes `data` into raw segment `seg` at `offset` (in place, traced
    /// as a data write).
    ///
    /// # Errors
    ///
    /// Propagates device errors; the range must fit in the segment.
    pub fn raw_write(&mut self, seg: u32, offset: u64, data: &[u8]) -> Result<(), StoreError> {
        if offset + data.len() as u64 > self.opts.segment_bytes {
            return Err(StoreError::OutOfBounds {
                offset,
                len: data.len() as u64,
                capacity: self.opts.segment_bytes,
            });
        }
        let dev_off = self.geom.region_off + seg as u64 * self.opts.segment_bytes + offset;
        self.dev.write_at(dev_off, data)?;
        self.dev.flush()?;
        self.record(TraceIo {
            kind: TraceKind::Write,
            bytes: data.len() as u64,
            category: IoCategory::Data,
        });
        self.record(TraceIo {
            kind: TraceKind::Flush,
            bytes: 0,
            category: IoCategory::Data,
        });
        Ok(())
    }

    /// Reads from raw segment `seg` (traced as a data read); the result is
    /// the device's own buffer where it holds the range as one.
    ///
    /// # Errors
    ///
    /// Propagates device errors; the range must fit in the segment.
    pub fn raw_read(&mut self, seg: u32, offset: u64, len: u64) -> Result<Payload, StoreError> {
        if offset + len > self.opts.segment_bytes {
            return Err(StoreError::OutOfBounds {
                offset,
                len,
                capacity: self.opts.segment_bytes,
            });
        }
        let dev_off = self.geom.region_off + seg as u64 * self.opts.segment_bytes + offset;
        let out = self.dev.read_payload_at(dev_off, len as usize)?;
        self.record(TraceIo {
            kind: TraceKind::Read,
            bytes: len,
            category: IoCategory::Data,
        });
        Ok(out)
    }

    /// Collects every live `(key, value)` whose key starts with `prefix`,
    /// newest version wins (used at open to rebuild in-memory indexes).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn scan_prefix(&mut self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Payload)>, StoreError> {
        let mut merged: BTreeMap<Vec<u8>, Option<Payload>> = BTreeMap::new();
        // Oldest to newest: deep levels, then L1.., then L0 back-to-front,
        // then immutables, then the memtable.
        let ssts: Vec<Sst> = (self.levels[1..].iter().rev().flatten())
            .chain(self.levels[0].iter().rev())
            .cloned()
            .collect();
        let mut data = Frame::new();
        for sst in &ssts {
            self.read_sst_data(sst, &mut data)?;
            for (k, v) in Records::new(&data) {
                if k.starts_with(prefix) {
                    merged.insert(k.to_vec(), v.map(Value::into_payload));
                }
            }
        }
        let memtables = self.immutables.iter().map(|(_, imm)| imm);
        for (k, v) in memtables.chain([&self.mem]).flat_map(Memtable::iter) {
            if k.starts_with(prefix) {
                merged.insert(k.to_vec(), v.clone());
            }
        }
        Ok(merged
            .into_iter()
            .filter_map(|(k, v)| v.map(|v| (k, v)))
            .collect())
    }

    /// Drains traced device I/Os since the previous call.
    pub fn take_trace(&mut self) -> Vec<TraceIo> {
        std::mem::take(&mut self.trace)
    }

    /// Cumulative traffic statistics.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Resets traffic statistics (keeps state).
    pub fn reset_stats(&mut self) {
        self.stats = StoreStats::default();
    }

    /// Number of SSTs per level (diagnostics).
    pub fn level_file_counts(&self) -> Vec<usize> {
        self.levels.iter().map(Vec::len).collect()
    }
}

fn trunc() -> StoreError {
    StoreError::Corrupt("truncated manifest or wal record".into())
}

impl<D: BlockDevice> std::fmt::Debug for Db<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Db")
            .field("levels", &self.level_file_counts())
            .field("mem_bytes", &self.mem.approx_bytes())
            .field("immutables", &self.immutables.len())
            .field("stalls", &self.stalls)
            .finish()
    }
}
