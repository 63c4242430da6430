//! One sharded partition: onodes, free tree, data blocks.
//!
//! Each partition is an independent in-place-update object store owned by a
//! single non-priority thread (§IV-C): no cross-partition locks, no
//! compaction, no host-side garbage collection. Writes overwrite data blocks
//! in place; metadata updates either hit the onode slot directly or park in
//! the NVM metadata cache; deletes are deferred ("delayed deallocation") to
//! the maintenance path.

use rablock_storage::{
    BlockDevice, FxHashMap, IoCategory, MaintenanceReport, ObjectId, Payload, Segments, StoreError,
    TraceIo, TraceKind,
};

use crate::btree::ExtentBTree;
use crate::layout::{CosOptions, PartGeometry, BLOCK_BYTES};
use crate::metacache::MetaCache;
use crate::onode::{Extent, Onode, ONODE_BYTES};
use crate::radix::RadixTree;

/// Radix key: group in the high 16 bits, object index in the low 32.
///
/// # Panics
///
/// Panics if the object index exceeds 32 bits (a block image would need
/// billions of objects to get there).
pub(crate) fn radix_key(oid: ObjectId) -> u64 {
    let index = oid.index();
    assert!(index < (1 << 32), "object index exceeds 32 bits");
    ((oid.group().0 as u64) << 32) | index
}

/// A single sharded partition of the CPU-efficient object store.
#[derive(Debug)]
pub struct Partition {
    geom: PartGeometry,
    radix: RadixTree,
    onodes: FxHashMap<u32, Onode>,
    /// Spill run (first physical block, block count) per slot, when the
    /// extent map overflows the onode's inline area.
    spills: FxHashMap<u32, (u64, u64)>,
    /// Per-logical-block CRC32 per slot (checksum option only). Blocks a
    /// write never touched carry the all-zeroes CRC, so the map is fully
    /// content-determined: two replicas holding identical bytes always
    /// hold identical checksum vectors regardless of write history.
    csums: FxHashMap<u32, Vec<u32>>,
    /// Checksum run (first physical block, block count) per slot, holding
    /// the persisted form of `csums` (same allocation scheme as spills).
    csum_runs: FxHashMap<u32, (u64, u64)>,
    /// Verify data reads against `csums` and fail with `ChecksumMismatch`.
    checksums: bool,
    slot_used: Vec<bool>,
    slot_cursor: u32,
    free: ExtentBTree,
    cache: MetaCache,
    /// Onode slots marked deleted and awaiting deallocation.
    pending_dealloc: Vec<u32>,
    /// Allocator state changed since the last checkpoint.
    freetree_dirty: bool,
    /// Rotating slot for fixed-size allocator-delta journal records.
    alloc_journal_cursor: u64,
}

impl Partition {
    /// A freshly formatted partition (everything free, no objects).
    pub fn format(geom: PartGeometry, opts: &CosOptions) -> Self {
        Partition {
            radix: RadixTree::new(),
            onodes: FxHashMap::default(),
            spills: FxHashMap::default(),
            csums: FxHashMap::default(),
            csum_runs: FxHashMap::default(),
            checksums: opts.checksums,
            slot_used: vec![false; geom.onode_slots as usize],
            slot_cursor: 0,
            free: ExtentBTree::new_free(0, geom.data_blocks),
            cache: MetaCache::new(opts.meta_cache_entries),
            pending_dealloc: Vec::new(),
            freetree_dirty: false,
            alloc_journal_cursor: 0,
            geom,
        }
    }

    /// Mounts a partition by scanning its onode table and rebuilding the
    /// radix tree and free tree (crash recovery never trusts the free-tree
    /// checkpoint; the onodes are the ground truth, and REDO of data comes
    /// from the operation log one layer up).
    ///
    /// # Errors
    ///
    /// Propagates device errors and onode corruption.
    pub fn mount<D: BlockDevice>(
        dev: &mut D,
        geom: PartGeometry,
        opts: &CosOptions,
        trace: &mut Vec<TraceIo>,
    ) -> Result<Self, StoreError> {
        let mut p = Partition::format(geom, opts);
        p.free = ExtentBTree::new_free(0, geom.data_blocks);
        let table_bytes = geom.onode_slots as u64 * ONODE_BYTES as u64;
        let mut table = vec![0u8; table_bytes as usize];
        dev.read_at(geom.onode_off(0), &mut table)?;
        trace.push(TraceIo {
            kind: TraceKind::Read,
            bytes: table_bytes,
            category: IoCategory::Metadata,
        });
        for slot in 0..geom.onode_slots {
            let rec = &table[slot as usize * ONODE_BYTES..(slot as usize + 1) * ONODE_BYTES];
            let Some((mut onode, spill, total_extents)) = Onode::decode(rec)? else {
                continue;
            };
            if spill != 0 {
                let spill_count = total_extents as usize - crate::onode::INLINE_EXTENTS;
                let nblocks = spill_blocks_for(spill_count);
                let mut raw = vec![0u8; (nblocks * BLOCK_BYTES) as usize];
                dev.read_at(geom.block_off(spill), &mut raw)?;
                trace.push(TraceIo {
                    kind: TraceKind::Read,
                    bytes: nblocks * BLOCK_BYTES,
                    category: IoCategory::Metadata,
                });
                let spilled = decode_spill(&raw, total_extents as usize)?;
                for e in spilled {
                    onode.extents.insert(e);
                }
                p.free.alloc_specific(spill, nblocks)?;
                p.spills.insert(slot, (spill, nblocks));
            }
            if onode.csum_count > 0 {
                let nblocks = csum_blocks_for(onode.csum_count as usize);
                let mut raw = vec![0u8; (nblocks * BLOCK_BYTES) as usize];
                dev.read_at(geom.block_off(onode.csum_block), &mut raw)?;
                trace.push(TraceIo {
                    kind: TraceKind::Read,
                    bytes: nblocks * BLOCK_BYTES,
                    category: IoCategory::Metadata,
                });
                let list = decode_csums(&raw, onode.csum_count as usize)?;
                p.free.alloc_specific(onode.csum_block, nblocks)?;
                p.csum_runs.insert(slot, (onode.csum_block, nblocks));
                p.csums.insert(slot, list);
            }
            for e in onode.extents.entries() {
                p.free.alloc_specific(e.phys, e.count as u64)?;
            }
            p.slot_used[slot as usize] = true;
            let oid = ObjectId::from_raw(onode.oid_raw);
            p.radix.insert(radix_key(oid), slot);
            if onode.deleted {
                p.pending_dealloc.push(slot);
            }
            p.onodes.insert(slot, onode);
        }
        Ok(p)
    }

    /// Objects currently live in this partition.
    pub fn object_count(&self) -> usize {
        self.onodes.len() - self.pending_dealloc.len()
    }

    /// Free data blocks.
    pub fn free_blocks(&self) -> u64 {
        self.free.free_blocks()
    }

    /// Bytes of onode updates absorbed by the NVM metadata cache.
    pub fn nvm_meta_bytes(&self) -> u64 {
        self.cache.nvm_bytes_written()
    }

    fn alloc_slot(&mut self) -> Result<u32, StoreError> {
        let n = self.slot_used.len();
        for probe in 0..n {
            let slot = (self.slot_cursor as usize + probe) % n;
            if !self.slot_used[slot] {
                self.slot_used[slot] = true;
                self.slot_cursor = (slot as u32 + 1) % n as u32;
                return Ok(slot as u32);
            }
        }
        Err(StoreError::NoSpace)
    }

    fn slot_of(&self, oid: ObjectId) -> Option<u32> {
        self.radix.get(radix_key(oid))
    }

    /// Allocates `blocks` data blocks as few extents as possible.
    fn alloc_blocks(&mut self, mut blocks: u64) -> Result<Vec<(u64, u64)>, StoreError> {
        let mut runs = Vec::new();
        while blocks > 0 {
            let chunk = blocks.min(self.free.largest_extent());
            if chunk == 0 {
                // Roll back partial allocation.
                for &(s, l) in &runs {
                    self.free.free(s, l).expect("just allocated");
                }
                return Err(StoreError::NoSpace);
            }
            let start = self.free.alloc(chunk)?;
            runs.push((start, chunk));
            blocks -= chunk;
        }
        self.freetree_dirty = true;
        Ok(runs)
    }

    fn persist_onode<D: BlockDevice>(
        &mut self,
        dev: &mut D,
        slot: u32,
        opts: &CosOptions,
        alloc_changed: bool,
        trace: &mut Vec<TraceIo>,
    ) -> Result<(), StoreError> {
        if opts.metadata_cache {
            // The update lands in NVM; the device sees nothing unless the
            // cache is over capacity.
            for victim in self.cache.touch(slot) {
                self.write_onode_slot(dev, victim, trace)?;
            }
            return Ok(());
        }
        self.write_onode_slot(dev, slot, trace)?;
        if alloc_changed {
            // Without the NVM cache, an allocator change costs one extra
            // free-tree info write (§VI "Metadata Overhead": up to two
            // extra writes per object write without pre-allocation). Real
            // allocators journal a fixed-size delta, not the whole tree;
            // the full tree is checkpointed by maintenance.
            self.journal_alloc_delta(dev, trace)?;
        }
        Ok(())
    }

    fn write_onode_slot<D: BlockDevice>(
        &mut self,
        dev: &mut D,
        slot: u32,
        trace: &mut Vec<TraceIo>,
    ) -> Result<(), StoreError> {
        let onode = self.onodes.get(&slot).expect("persisting a live onode");
        let spill_count = onode
            .extents
            .len()
            .saturating_sub(crate::onode::INLINE_EXTENTS);
        let spill_block = if spill_count > 0 {
            let need = spill_blocks_for(spill_count);
            match self.spills.get(&slot).copied() {
                Some((b, have)) if have >= need => b,
                prev => {
                    // Grow the spill run: release the old one, take a new
                    // contiguous run with headroom.
                    if let Some((old, old_n)) = prev {
                        self.free.free(old, old_n)?;
                    }
                    let take = need.next_power_of_two();
                    let b = self.free.alloc(take)?;
                    self.freetree_dirty = true;
                    self.spills.insert(slot, (b, take));
                    b
                }
            }
        } else {
            0
        };
        let csum_count = self.csums.get(&slot).map_or(0, Vec::len);
        let csum_block = if csum_count > 0 {
            let need = csum_blocks_for(csum_count);
            match self.csum_runs.get(&slot).copied() {
                Some((b, have)) if have >= need => b,
                prev => {
                    if let Some((old, old_n)) = prev {
                        self.free.free(old, old_n)?;
                    }
                    let take = need.next_power_of_two();
                    let b = self.free.alloc(take)?;
                    self.freetree_dirty = true;
                    self.csum_runs.insert(slot, (b, take));
                    b
                }
            }
        } else {
            0
        };
        {
            let onode = self.onodes.get_mut(&slot).expect("still live");
            onode.csum_block = csum_block;
            onode.csum_count = csum_count as u32;
        }
        if csum_count > 0 {
            let raw = encode_csums(&self.csums[&slot]);
            dev.write_at(self.geom.block_off(csum_block), &raw)?;
            trace.push(TraceIo {
                kind: TraceKind::Write,
                bytes: raw.len() as u64,
                category: IoCategory::Metadata,
            });
        }
        let onode = self.onodes.get(&slot).expect("still live");
        let (rec, spilled) = onode.encode(spill_block)?;
        if !spilled.is_empty() {
            let raw = encode_spill(spilled);
            dev.write_at(self.geom.block_off(spill_block), &raw)?;
            trace.push(TraceIo {
                kind: TraceKind::Write,
                bytes: raw.len() as u64,
                category: IoCategory::Metadata,
            });
        }
        dev.write_at(self.geom.onode_off(slot), &rec)?;
        dev.flush()?;
        trace.push(TraceIo {
            kind: TraceKind::Write,
            bytes: ONODE_BYTES as u64,
            category: IoCategory::Metadata,
        });
        Ok(())
    }

    /// Appends a fixed-size allocator-delta record to the free-tree area
    /// (rotating slot; mount rebuilds from onodes, so only the write cost
    /// matters for fidelity).
    fn journal_alloc_delta<D: BlockDevice>(
        &mut self,
        dev: &mut D,
        trace: &mut Vec<TraceIo>,
    ) -> Result<(), StoreError> {
        let slots = (self.geom.freetree_bytes / BLOCK_BYTES).max(1);
        let slot = self.alloc_journal_cursor % slots;
        self.alloc_journal_cursor += 1;
        let record = vec![0u8; BLOCK_BYTES as usize];
        dev.write_at(self.geom.freetree_off() + slot * BLOCK_BYTES, &record)?;
        dev.flush()?;
        trace.push(TraceIo {
            kind: TraceKind::Write,
            bytes: BLOCK_BYTES,
            category: IoCategory::Metadata,
        });
        Ok(())
    }

    fn checkpoint_freetree<D: BlockDevice>(
        &mut self,
        dev: &mut D,
        trace: &mut Vec<TraceIo>,
    ) -> Result<(), StoreError> {
        // Serialize as many extents as fit; mount rebuilds from onodes, so a
        // truncated checkpoint only costs recovery time, never correctness.
        let extents = self.free.iter();
        let max = ((self.geom.freetree_bytes - 8) / 16) as usize;
        let mut raw = Vec::with_capacity(self.geom.freetree_bytes as usize);
        raw.extend_from_slice(&(extents.len().min(max) as u32).to_le_bytes());
        raw.extend_from_slice(&(self.free.free_blocks()).to_le_bytes()[..4]);
        for (s, l) in extents.into_iter().take(max) {
            raw.extend_from_slice(&s.to_le_bytes());
            raw.extend_from_slice(&l.to_le_bytes());
        }
        dev.write_at(self.geom.freetree_off(), &raw)?;
        dev.flush()?;
        trace.push(TraceIo {
            kind: TraceKind::Write,
            bytes: raw.len() as u64,
            category: IoCategory::Metadata,
        });
        self.freetree_dirty = false;
        Ok(())
    }

    /// Pre-creates an object of `size` bytes, allocating its data blocks
    /// up front when pre-allocation is enabled. Idempotent for existing
    /// objects (size may only grow).
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSpace`] when slots or blocks run out.
    pub fn create<D: BlockDevice>(
        &mut self,
        dev: &mut D,
        oid: ObjectId,
        size: u64,
        seq: u64,
        opts: &CosOptions,
        trace: &mut Vec<TraceIo>,
    ) -> Result<(), StoreError> {
        let slot = match self.slot_of(oid) {
            Some(slot) => slot,
            None => {
                let slot = self.alloc_slot()?;
                self.radix.insert(radix_key(oid), slot);
                self.onodes.insert(slot, Onode::new(oid.raw()));
                slot
            }
        };
        let mut alloc_changed = false;
        {
            let onode = self.onodes.get_mut(&slot).expect("just ensured");
            onode.size = onode.size.max(size);
            onode.version += 1;
            onode.mtime = seq;
        }
        if opts.pre_allocate {
            let want_blocks = size.div_ceil(BLOCK_BYTES);
            // The existing map can be a sparse subset, not a contiguous
            // prefix: bare writes to a never-created object map only the
            // written blocks, and a later create (recovery backfill) must
            // fill the holes without touching what is already mapped.
            let holes: Vec<u64> = {
                let onode = &self.onodes[&slot];
                (0..want_blocks)
                    .filter(|&b| onode.extents.map(b).is_none())
                    .collect()
            };
            if !holes.is_empty() {
                let runs = self.alloc_blocks(holes.len() as u64)?;
                let onode = self.onodes.get_mut(&slot).expect("live");
                let mut next_hole = holes.into_iter();
                for (start, len) in runs {
                    for i in 0..len {
                        let logical = next_hole.next().expect("one block per hole");
                        onode.extents.insert(Extent {
                            logical,
                            phys: start + i,
                            count: 1,
                        });
                    }
                }
                alloc_changed = true;
            }
        }
        self.persist_onode(dev, slot, opts, alloc_changed, trace)
    }

    /// Writes `data` at byte `offset` of the object, in place.
    ///
    /// Block-aligned runs reach the device by reference, one
    /// [`BlockDevice::write_segments_at`] per physically contiguous run
    /// however many views make it up, and a block that lies in one view
    /// takes its checksum from that view's memo. Unaligned edges are
    /// read-modified-written at block granularity, as the paper observes
    /// for its YCSB runs (§V-E).
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSpace`] if block allocation fails (non-pre-allocated
    /// objects only).
    #[allow(clippy::too_many_arguments)]
    pub fn write<D: BlockDevice>(
        &mut self,
        dev: &mut D,
        oid: ObjectId,
        offset: u64,
        data: &Segments,
        seq: u64,
        opts: &CosOptions,
        trace: &mut Vec<TraceIo>,
    ) -> Result<(), StoreError> {
        if data.is_empty() {
            return Err(StoreError::InvalidArgument("zero-length write".into()));
        }
        let slot = match self.slot_of(oid) {
            Some(s) => s,
            None => {
                // Implicit create (objects are normally pre-created by the
                // block layer; bare object writes still work).
                self.create(
                    dev,
                    oid,
                    0,
                    seq,
                    &CosOptions {
                        pre_allocate: false,
                        ..opts.clone()
                    },
                    trace,
                )?;
                self.slot_of(oid).expect("created above")
            }
        };
        if self.onodes[&slot].deleted {
            // Reuse after delete: finish the deferred deallocation for this
            // object now and start clean.
            self.dealloc_slot(dev, slot, trace)?;
            self.create(
                dev,
                oid,
                0,
                seq,
                &CosOptions {
                    pre_allocate: false,
                    ..opts.clone()
                },
                trace,
            )?;
        }
        let slot = self.slot_of(oid).expect("live object");
        let end = offset + data.len() as u64;
        let first_block = offset / BLOCK_BYTES;
        let last_block = (end - 1) / BLOCK_BYTES;

        // Ensure every covered block is mapped; remember which are fresh.
        let mut fresh = Vec::new();
        let mut alloc_changed = false;
        for block in first_block..=last_block {
            if self.onodes[&slot].extents.map(block).is_none() {
                let runs = self.alloc_blocks(1)?;
                let onode = self.onodes.get_mut(&slot).expect("live");
                onode.extents.insert(Extent {
                    logical: block,
                    phys: runs[0].0,
                    count: 1,
                });
                fresh.push(block);
                alloc_changed = true;
            }
        }

        // Issue device writes per physically contiguous run, with RMW at
        // unaligned edges of pre-existing blocks.
        let mut new_crcs: Vec<(u64, u32)> = Vec::new();
        let mut block = first_block;
        while block <= last_block {
            let phys = self.onodes[&slot].extents.map(block).expect("mapped above");
            // Extend the run while physically contiguous.
            let mut run_len = 1u64;
            while block + run_len <= last_block
                && self.onodes[&slot].extents.map(block + run_len) == Some(phys + run_len)
            {
                run_len += 1;
            }
            let run_start_byte = (block * BLOCK_BYTES).max(offset);
            let run_end_byte = ((block + run_len) * BLOCK_BYTES).min(end);
            let last_run_block = block + run_len - 1;
            let head_partial = !run_start_byte.is_multiple_of(BLOCK_BYTES);
            let tail_partial = !run_end_byte.is_multiple_of(BLOCK_BYTES);
            let src_from = (run_start_byte - offset) as usize;
            let src_to = (run_end_byte - offset) as usize;
            if !head_partial && !tail_partial {
                // Fully block-aligned run: the caller's bytes cover every
                // touched block, so hand the device the buffer itself — no
                // staging, and a device that shares payloads copies nothing.
                // (Which is the whole write more often than not: nothing to
                // cut out then.)
                let cut;
                let run = if src_to - src_from == data.len() {
                    data
                } else {
                    cut = data.slice(src_from, src_to - src_from);
                    &cut
                };
                dev.write_segments_at(self.geom.block_off(phys), run)?;
                trace.push(TraceIo {
                    kind: TraceKind::Write,
                    bytes: run_len * BLOCK_BYTES,
                    category: IoCategory::Data,
                });
                if self.checksums {
                    // A block hits the CRC memo its view already carries:
                    // the oplog encoder filled it for a client write, the
                    // sender's verifying read for a pushed object.
                    let crcs = run.chunks(BLOCK_BYTES as usize).map(|blk| blk.crc32());
                    new_crcs.extend((block..).zip(crcs));
                }
                block += run_len;
                continue;
            }
            let mut buf = vec![0u8; (run_len * BLOCK_BYTES) as usize];
            // RMW at partial edges of blocks that existed before this write
            // (fresh blocks read as zeroes by definition).
            let read_block = |b: u64,
                              buf: &mut [u8],
                              dev: &mut D,
                              trace: &mut Vec<TraceIo>|
             -> Result<(), StoreError> {
                let old = dev.read_payload_at(
                    self.geom.block_off(phys + (b - block)),
                    BLOCK_BYTES as usize,
                )?;
                trace.push(TraceIo {
                    kind: TraceKind::Read,
                    bytes: BLOCK_BYTES,
                    category: IoCategory::Data,
                });
                // An RMW edge folds old bytes into the new block; never
                // launder rotted bytes into a freshly valid checksum.
                self.verify_block(slot, b, &old)?;
                let off_in_buf = ((b - block) * BLOCK_BYTES) as usize;
                buf[off_in_buf..off_in_buf + BLOCK_BYTES as usize].copy_from_slice(&old);
                Ok(())
            };
            if head_partial && !fresh.contains(&block) {
                read_block(block, &mut buf, dev, trace)?;
            }
            if tail_partial
                && !fresh.contains(&last_run_block)
                && !(last_run_block == block && head_partial)
            {
                read_block(last_run_block, &mut buf, dev, trace)?;
            }
            let dst_from = (run_start_byte - block * BLOCK_BYTES) as usize;
            data.slice(src_from, src_to - src_from)
                .copy_to_slice(&mut buf[dst_from..dst_from + (src_to - src_from)]);
            // In-place overwrite of the whole touched block range.
            dev.write_at(self.geom.block_off(phys), &buf)?;
            trace.push(TraceIo {
                kind: TraceKind::Write,
                bytes: run_len * BLOCK_BYTES,
                category: IoCategory::Data,
            });
            if self.checksums {
                for i in 0..run_len {
                    let s = (i * BLOCK_BYTES) as usize;
                    new_crcs.push((block + i, crate::crc32(&buf[s..s + BLOCK_BYTES as usize])));
                }
            }
            block += run_len;
        }
        dev.flush()?;
        if self.checksums {
            let v = self.csums.entry(slot).or_default();
            for &(b, c) in &new_crcs {
                if v.len() <= b as usize {
                    v.resize(b as usize + 1, zero_block_crc());
                }
                v[b as usize] = c;
            }
        }

        let onode = self.onodes.get_mut(&slot).expect("live");
        onode.size = onode.size.max(end);
        onode.version += 1;
        onode.mtime = seq;
        self.persist_onode(dev, slot, opts, alloc_changed, trace)
    }

    /// Checks `blk`, logical block `block` of the object in `slot`, against
    /// its recorded checksum (checksum option only). A block the device
    /// still holds by reference answers from its CRC memo, and the device's
    /// zero view of a block no write touched says it is zero without being
    /// read. Any other block recorded as zero is compared with zero, a
    /// stronger and cheaper test than its CRC.
    fn verify_block(&self, slot: u32, block: u64, blk: &Payload) -> Result<(), StoreError> {
        if !self.checksums {
            return Ok(());
        }
        let want = self
            .csums
            .get(&slot)
            .and_then(|v| v.get(block as usize).copied())
            .unwrap_or_else(zero_block_crc);
        let good = if blk.is_zeros() {
            want == zero_block_crc()
        } else {
            (want == zero_block_crc() && **blk == ZERO_BLOCK) || blk.crc32() == want
        };
        if good {
            Ok(())
        } else {
            Err(StoreError::ChecksumMismatch)
        }
    }

    /// Reads `len` bytes at `offset` as the views the device returns: one per
    /// verified block (checksum option) or one per physically contiguous run,
    /// and views of the shared zero block for unmapped holes. A read of
    /// exactly one block is the device's buffer, uncopied and unallocated.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] for missing/deleted objects,
    /// [`StoreError::OutOfBounds`] past the object size,
    /// [`StoreError::ChecksumMismatch`] for a rotted block (checksum option).
    pub fn read<D: BlockDevice>(
        &mut self,
        dev: &mut D,
        oid: ObjectId,
        offset: u64,
        len: u64,
        trace: &mut Vec<TraceIo>,
    ) -> Result<Segments, StoreError> {
        let slot = self.slot_of(oid).ok_or(StoreError::NotFound)?;
        let onode = self.onodes.get(&slot).expect("radix maps to live slot");
        if onode.deleted {
            return Err(StoreError::NotFound);
        }
        if offset + len > onode.size {
            return Err(StoreError::OutOfBounds {
                offset,
                len,
                capacity: onode.size,
            });
        }
        let mut out = Segments::new();
        if len == 0 {
            return Ok(out);
        }
        let end = offset + len;
        let last_block = (end - 1) / BLOCK_BYTES;
        let mut block = offset / BLOCK_BYTES;
        while block <= last_block {
            let Some(phys) = onode.extents.map(block) else {
                let base = block * BLOCK_BYTES;
                let hole = end.min(base + BLOCK_BYTES) - offset.max(base);
                out.push_zeros(hole as usize);
                block += 1;
                continue;
            };
            let mut run_len = 1u64;
            while block + run_len <= last_block
                && onode.extents.map(block + run_len) == Some(phys + run_len)
            {
                run_len += 1;
            }
            let from = (block * BLOCK_BYTES).max(offset);
            let to = ((block + run_len) * BLOCK_BYTES).min(end);
            let traced = if self.checksums {
                // Verification is block-granular: fetch whole blocks, check
                // each, hand out the requested part of it.
                for b in block..block + run_len {
                    let blk = dev.read_payload_at(
                        self.geom.block_off(phys + (b - block)),
                        BLOCK_BYTES as usize,
                    )?;
                    self.verify_block(slot, b, &blk)?;
                    let base = b * BLOCK_BYTES;
                    let (lo, hi) = (from.max(base), to.min(base + BLOCK_BYTES));
                    out.push(if hi - lo == BLOCK_BYTES {
                        blk
                    } else {
                        blk.slice((lo - base) as usize, (hi - lo) as usize)
                    });
                }
                run_len * BLOCK_BYTES
            } else {
                let dev_off = self.geom.block_off(phys) + (from - block * BLOCK_BYTES);
                out.push(dev.read_payload_at(dev_off, (to - from) as usize)?);
                to - from
            };
            trace.push(TraceIo {
                kind: TraceKind::Read,
                bytes: traced,
                category: IoCategory::Data,
            });
            block += run_len;
        }
        Ok(out)
    }

    /// Sets an xattr; persists through the metadata path.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] for missing objects; oversized xattrs are
    /// [`StoreError::InvalidArgument`].
    #[allow(clippy::too_many_arguments)]
    pub fn set_xattr<D: BlockDevice>(
        &mut self,
        dev: &mut D,
        oid: ObjectId,
        key: &str,
        value: &[u8],
        seq: u64,
        opts: &CosOptions,
        trace: &mut Vec<TraceIo>,
    ) -> Result<(), StoreError> {
        let slot = self.slot_of(oid).ok_or(StoreError::NotFound)?;
        let onode = self.onodes.get_mut(&slot).expect("live");
        onode.set_xattr(key, value);
        onode.version += 1;
        onode.mtime = seq;
        self.persist_onode(dev, slot, opts, false, trace)
    }

    /// An xattr of an object, if both exist.
    #[cfg(test)]
    pub(crate) fn xattr(&self, oid: ObjectId, key: &str) -> Option<&[u8]> {
        self.onodes.get(&self.slot_of(oid)?)?.xattr(key)
    }

    /// Stat (size/version/mtime) of a live object.
    pub fn stat(&self, oid: ObjectId) -> Option<(u64, u64, u64)> {
        let slot = self.slot_of(oid)?;
        let o = self.onodes.get(&slot)?;
        (!o.deleted).then_some((o.size, o.version, o.mtime))
    }

    /// Marks the object deleted; blocks are deallocated later by
    /// [`Partition::maintenance`] (delayed deallocation, §IV-C-5).
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] if the object does not exist.
    pub fn delete<D: BlockDevice>(
        &mut self,
        dev: &mut D,
        oid: ObjectId,
        seq: u64,
        opts: &CosOptions,
        trace: &mut Vec<TraceIo>,
    ) -> Result<(), StoreError> {
        let slot = self.slot_of(oid).ok_or(StoreError::NotFound)?;
        let onode = self.onodes.get_mut(&slot).expect("live");
        if onode.deleted {
            return Err(StoreError::NotFound);
        }
        onode.deleted = true;
        onode.version += 1;
        onode.mtime = seq;
        self.pending_dealloc.push(slot);
        self.persist_onode(dev, slot, opts, false, trace)
    }

    fn dealloc_slot<D: BlockDevice>(
        &mut self,
        dev: &mut D,
        slot: u32,
        trace: &mut Vec<TraceIo>,
    ) -> Result<(), StoreError> {
        let Some(mut onode) = self.onodes.remove(&slot) else {
            return Ok(());
        };
        for e in onode.extents.take_all() {
            self.free.free(e.phys, e.count as u64)?;
        }
        if let Some((spill, nblocks)) = self.spills.remove(&slot) {
            self.free.free(spill, nblocks)?;
        }
        if let Some((run, nblocks)) = self.csum_runs.remove(&slot) {
            self.free.free(run, nblocks)?;
        }
        self.csums.remove(&slot);
        self.freetree_dirty = true;
        self.radix
            .remove(radix_key(ObjectId::from_raw(onode.oid_raw)));
        self.cache.forget(slot);
        self.slot_used[slot as usize] = false;
        self.pending_dealloc.retain(|&s| s != slot);
        // Zero the slot on disk so mount does not resurrect it.
        dev.write_at(self.geom.onode_off(slot), &[0u8; ONODE_BYTES])?;
        dev.flush()?;
        trace.push(TraceIo {
            kind: TraceKind::Write,
            bytes: ONODE_BYTES as u64,
            category: IoCategory::Metadata,
        });
        Ok(())
    }

    /// True if deferred work is queued (deallocations, dirty metadata, or a
    /// stale free-tree checkpoint).
    pub fn needs_maintenance(&self) -> bool {
        !self.pending_dealloc.is_empty()
            || self.cache.dirty_count() > self.cache_high_water()
            || self.freetree_dirty
    }

    fn cache_high_water(&self) -> usize {
        // Flush when more than half the cache capacity is dirty.
        usize::max(1, self.cache.capacity() / 2)
    }

    /// One bounded maintenance step.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn maintenance<D: BlockDevice>(
        &mut self,
        dev: &mut D,
        trace: &mut Vec<TraceIo>,
    ) -> Result<MaintenanceReport, StoreError> {
        let before = trace.len();
        let mut did_work = false;
        while let Some(slot) = self.pending_dealloc.pop() {
            self.dealloc_slot(dev, slot, trace)?;
            did_work = true;
        }
        if self.cache.dirty_count() > self.cache_high_water() {
            for slot in self.cache.drain_oldest(self.cache_high_water()) {
                if self.onodes.contains_key(&slot) {
                    self.write_onode_slot(dev, slot, trace)?;
                }
            }
            did_work = true;
        }
        if self.freetree_dirty {
            self.checkpoint_freetree(dev, trace)?;
            did_work = true;
        }
        let (mut br, mut bw) = (0, 0);
        for io in &trace[before..] {
            match io.kind {
                TraceKind::Read => br += io.bytes,
                TraceKind::Write => bw += io.bytes,
                TraceKind::Flush => {}
            }
        }
        Ok(MaintenanceReport {
            bytes_read: br,
            bytes_written: bw,
            did_work,
        })
    }

    /// Light-scrub digest: (size, FNV over the per-block checksum vector),
    /// computed from metadata alone — no data blocks are read. Two replicas
    /// holding identical bytes produce identical digests regardless of the
    /// write history that got them there. `None` for missing/deleted
    /// objects or when checksums are disabled.
    pub fn csum_digest(&self, oid: ObjectId) -> Option<(u64, u64)> {
        if !self.checksums {
            return None;
        }
        let slot = self.slot_of(oid)?;
        let o = self.onodes.get(&slot)?;
        if o.deleted {
            return None;
        }
        fn fnv(h: u64, x: u64) -> u64 {
            (h ^ x).wrapping_mul(0x100_0000_01b3)
        }
        let v = self.csums.get(&slot);
        let mut h = fnv(0xcbf2_9ce4_8422_2325, o.size);
        for b in 0..o.size.div_ceil(BLOCK_BYTES) {
            let c = v
                .and_then(|v| v.get(b as usize).copied())
                .unwrap_or_else(zero_block_crc);
            h = fnv(h, c as u64);
        }
        Some((o.size, h))
    }

    /// Fault injection: flips one bit of the stored data of `oid` directly
    /// on the device, bypassing the checksum bookkeeping — exactly what
    /// silent media corruption does. Returns `false` when the target block
    /// is not mapped (nothing to rot).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn corrupt_data_bit<D: BlockDevice>(
        &mut self,
        dev: &mut D,
        oid: ObjectId,
        block: u64,
        byte: u64,
        bit: u8,
    ) -> Result<bool, StoreError> {
        let Some(slot) = self.slot_of(oid) else {
            return Ok(false);
        };
        let onode = &self.onodes[&slot];
        if onode.deleted {
            return Ok(false);
        }
        let Some(phys) = onode.extents.map(block) else {
            return Ok(false);
        };
        let off = self.geom.block_off(phys) + (byte % BLOCK_BYTES);
        let mut b = [0u8; 1];
        dev.read_at(off, &mut b)?;
        b[0] ^= 1 << (bit % 8);
        dev.write_at(off, &b)?;
        Ok(true)
    }

    /// Number of data blocks currently mapped for `oid` (fault-injection
    /// targeting helper).
    pub fn mapped_blocks(&self, oid: ObjectId) -> u64 {
        let Some(slot) = self.slot_of(oid) else {
            return 0;
        };
        let o = &self.onodes[&slot];
        if o.deleted {
            return 0;
        }
        o.size.div_ceil(BLOCK_BYTES)
    }
}

static ZERO_BLOCK: [u8; BLOCK_BYTES as usize] = [0; BLOCK_BYTES as usize];

/// CRC32 of an all-zeroes 4 KiB block: the checksum of every block a write
/// never touched (holes read as zeroes).
fn zero_block_crc() -> u32 {
    static Z: std::sync::OnceLock<u32> = std::sync::OnceLock::new();
    *Z.get_or_init(|| crate::crc32(&ZERO_BLOCK))
}

/// Blocks needed to hold `n` per-block checksums (4 bytes each + header).
fn csum_blocks_for(n: usize) -> u64 {
    ((4 + n * 4) as u64).div_ceil(BLOCK_BYTES)
}

fn encode_csums(list: &[u32]) -> Vec<u8> {
    let nblocks = csum_blocks_for(list.len());
    let mut raw = vec![0u8; (nblocks * BLOCK_BYTES) as usize];
    raw[..4].copy_from_slice(&(list.len() as u32).to_le_bytes());
    for (i, c) in list.iter().enumerate() {
        raw[4 + i * 4..8 + i * 4].copy_from_slice(&c.to_le_bytes());
    }
    raw
}

fn decode_csums(raw: &[u8], expected: usize) -> Result<Vec<u32>, StoreError> {
    let count = u32::from_le_bytes(raw[..4].try_into().expect("4 bytes")) as usize;
    if count != expected {
        return Err(StoreError::Corrupt(format!(
            "checksum run holds {count} entries, onode expects {expected}"
        )));
    }
    Ok((0..count)
        .map(|i| u32::from_le_bytes(raw[4 + i * 4..8 + i * 4].try_into().expect("4 bytes")))
        .collect())
}

/// Blocks needed to hold `n` spilled extents (20 bytes each + header).
fn spill_blocks_for(n: usize) -> u64 {
    ((4 + n * 20) as u64).div_ceil(BLOCK_BYTES)
}

fn encode_spill(extents: &[Extent]) -> Vec<u8> {
    let nblocks = spill_blocks_for(extents.len());
    let mut raw = vec![0u8; (nblocks * BLOCK_BYTES) as usize];
    raw[..4].copy_from_slice(&(extents.len() as u32).to_le_bytes());
    let mut w = 4;
    for e in extents {
        raw[w..w + 8].copy_from_slice(&e.logical.to_le_bytes());
        raw[w + 8..w + 16].copy_from_slice(&e.phys.to_le_bytes());
        raw[w + 16..w + 20].copy_from_slice(&e.count.to_le_bytes());
        w += 20;
    }
    raw
}

fn decode_spill(raw: &[u8], total_extents: usize) -> Result<Vec<Extent>, StoreError> {
    let count = u32::from_le_bytes(raw[..4].try_into().expect("4 bytes")) as usize;
    let expected = total_extents.saturating_sub(crate::onode::INLINE_EXTENTS);
    if count != expected {
        return Err(StoreError::Corrupt(format!(
            "spill block holds {count} extents, onode expects {expected}"
        )));
    }
    let mut out = Vec::with_capacity(count);
    let mut r = 4;
    for _ in 0..count {
        out.push(Extent {
            logical: u64::from_le_bytes(raw[r..r + 8].try_into().expect("8 bytes")),
            phys: u64::from_le_bytes(raw[r + 8..r + 16].try_into().expect("8 bytes")),
            count: u32::from_le_bytes(raw[r + 16..r + 20].try_into().expect("4 bytes")),
        });
        r += 20;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rablock_storage::{DevCounters, GroupId, MemDisk};

    impl Partition {
        /// The copying read path — device reads into a staging vector (one
        /// per block under checksums, one per physically contiguous run
        /// without), every block CRC-scanned, the range copied out — kept as
        /// the reference the segmented [`Partition::read`] must agree with:
        /// byte for byte, device counter for device counter, traced I/O for
        /// traced I/O.
        fn read_reference<D: BlockDevice>(
            &self,
            dev: &mut D,
            oid: ObjectId,
            offset: u64,
            len: u64,
            trace: &mut Vec<TraceIo>,
        ) -> Result<Vec<u8>, StoreError> {
            let slot = self.slot_of(oid).ok_or(StoreError::NotFound)?;
            let onode = self.onodes.get(&slot).expect("radix maps to live slot");
            if onode.deleted {
                return Err(StoreError::NotFound);
            }
            if offset + len > onode.size {
                return Err(StoreError::OutOfBounds {
                    offset,
                    len,
                    capacity: onode.size,
                });
            }
            let mut out = vec![0u8; len as usize];
            if len == 0 {
                return Ok(out);
            }
            let end = offset + len;
            let last_block = (end - 1) / BLOCK_BYTES;
            let mut block = offset / BLOCK_BYTES;
            while block <= last_block {
                let Some(phys) = onode.extents.map(block) else {
                    block += 1;
                    continue;
                };
                let mut run_len = 1u64;
                while block + run_len <= last_block
                    && onode.extents.map(block + run_len) == Some(phys + run_len)
                {
                    run_len += 1;
                }
                let from = (block * BLOCK_BYTES).max(offset);
                let to = ((block + run_len) * BLOCK_BYTES).min(end);
                if self.checksums {
                    let mut blk = vec![0u8; (run_len * BLOCK_BYTES) as usize];
                    for i in 0..run_len {
                        let s = (i * BLOCK_BYTES) as usize;
                        dev.read_at(
                            self.geom.block_off(phys + i),
                            &mut blk[s..s + BLOCK_BYTES as usize],
                        )?;
                        let got = crate::crc32(&blk[s..s + BLOCK_BYTES as usize]);
                        let want = self
                            .csums
                            .get(&slot)
                            .and_then(|v| v.get((block + i) as usize).copied())
                            .unwrap_or_else(zero_block_crc);
                        if got != want {
                            return Err(StoreError::ChecksumMismatch);
                        }
                    }
                    trace.push(TraceIo {
                        kind: TraceKind::Read,
                        bytes: run_len * BLOCK_BYTES,
                        category: IoCategory::Data,
                    });
                    let b0 = (from - block * BLOCK_BYTES) as usize;
                    out[(from - offset) as usize..(to - offset) as usize]
                        .copy_from_slice(&blk[b0..b0 + (to - from) as usize]);
                } else {
                    let dev_off = self.geom.block_off(phys) + (from - block * BLOCK_BYTES);
                    dev.read_at(
                        dev_off,
                        &mut out[(from - offset) as usize..(to - offset) as usize],
                    )?;
                    trace.push(TraceIo {
                        kind: TraceKind::Read,
                        bytes: to - from,
                        category: IoCategory::Data,
                    });
                }
                block += run_len;
            }
            Ok(out)
        }
    }

    const OBJ_BLOCKS: u64 = 12;
    const OBJ_BYTES: u64 = OBJ_BLOCKS * BLOCK_BYTES;
    const OBJECTS: u64 = 4;

    #[derive(Debug, Clone)]
    enum Step {
        /// Pre-allocates the object: every block mapped, none written.
        Create {
            obj: u64,
        },
        /// `lead` bytes of the client's buffer precede the written view, so
        /// aligned blocks reach the device as slices of a larger buffer.
        Write {
            obj: u64,
            offset: u64,
            len: u64,
            lead: usize,
            fill: u8,
        },
        Read {
            obj: u64,
            offset: u64,
            len: u64,
        },
        /// Flips a bit, checks that it is caught, flips it back.
        Rot {
            obj: u64,
            block: u64,
            byte: u64,
            bit: u8,
        },
    }

    fn write(obj: u64, offset: u64, len: u64, lead: usize, fill: u8) -> Step {
        Step::Write {
            obj,
            offset,
            len: len.min(OBJ_BYTES - offset),
            lead,
            fill,
        }
    }

    fn steps() -> impl Strategy<Value = Vec<Step>> {
        let obj = || 0..OBJECTS;
        let lead = || {
            prop_oneof![
                Just(0usize),
                (1..4usize).prop_map(|b| b * 4096),
                1..5000usize
            ]
        };
        proptest::collection::vec(
            prop_oneof![
                1 => obj().prop_map(|obj| Step::Create { obj }),
                // Whole blocks: kept by reference, full views or slices.
                4 => (obj(), 0..OBJ_BLOCKS, 1..5u64, lead(), any::<u8>()).prop_map(
                    |(o, b, n, lead, fill)| write(o, b * BLOCK_BYTES, n * BLOCK_BYTES, lead, fill)
                ),
                // Unaligned: RMW materialises the edge blocks in the image.
                3 => (obj(), 0..OBJ_BYTES - 1, 1..10_000u64, lead(), any::<u8>())
                    .prop_map(|(o, at, len, lead, fill)| write(o, at, len, lead, fill)),
                // One whole block, a sub-block range, several runs.
                3 => (obj(), 0..OBJ_BLOCKS)
                    .prop_map(|(obj, b)| Step::Read { obj, offset: b * BLOCK_BYTES, len: BLOCK_BYTES }),
                4 => (obj(), 0..OBJ_BYTES, 0..OBJ_BYTES)
                    .prop_map(|(obj, offset, len)| Step::Read { obj, offset, len }),
                2 => (obj(), 0..OBJ_BLOCKS, 0..BLOCK_BYTES, 0..8u8)
                    .prop_map(|(obj, block, byte, bit)| Step::Rot { obj, block, byte, bit }),
            ],
            1..70,
        )
    }

    fn oid(obj: u64) -> ObjectId {
        ObjectId::new(GroupId(0), obj)
    }

    struct Harness {
        part: Partition,
        dev: MemDisk,
        opts: CosOptions,
        /// `(size, bytes)` of every object that exists.
        model: Vec<Option<(u64, Vec<u8>)>>,
        seq: u64,
    }

    impl Harness {
        fn new(checksums: bool) -> Self {
            let opts = CosOptions {
                partitions: 1,
                checksums,
                ..CosOptions::tiny()
            };
            let dev = MemDisk::new(16 << 20);
            let geom = PartGeometry::compute(dev.capacity(), 0, &opts).unwrap();
            Harness {
                part: Partition::format(geom, &opts),
                dev,
                opts,
                model: vec![None; OBJECTS as usize],
                seq: 0,
            }
        }

        /// Both read paths on the same state: same bytes or same error, the
        /// same device counters and the same traced I/Os — and segments of
        /// the promised shape.
        fn read_both(&mut self, obj: u64, offset: u64, len: u64) -> Result<Segments, StoreError> {
            let (mut new_trace, mut old_trace) = (Vec::new(), Vec::new());
            let seen = |dev: &mut MemDisk, since: DevCounters| {
                let now = dev.counters();
                dev.reset_counters();
                assert_eq!((now.writes, now.flushes), (since.writes, since.flushes));
                (now.reads - since.reads, now.bytes_read - since.bytes_read)
            };
            let before = self.dev.counters();
            let new = self
                .part
                .read(&mut self.dev, oid(obj), offset, len, &mut new_trace);
            let new_seen = seen(&mut self.dev, before);
            let old =
                self.part
                    .read_reference(&mut self.dev, oid(obj), offset, len, &mut old_trace);
            let old_seen = seen(&mut self.dev, DevCounters::default());
            assert_eq!(
                new.clone().map(|segs| segs.into_payload().to_vec()),
                old,
                "object {obj} [{offset}, +{len})"
            );
            // (A failed read stops at the rotted block on either path, but
            // the reference has then fetched the rest of its run.)
            if let Ok(segs) = &new {
                assert_eq!(new_seen, old_seen, "device reads and bytes read");
                let key = |t: &TraceIo| (t.kind, t.bytes, t.category);
                assert_eq!(
                    new_trace.iter().map(key).collect::<Vec<_>>(),
                    old_trace.iter().map(key).collect::<Vec<_>>()
                );
                let traced: u64 = new_trace.iter().map(|t| t.bytes).sum();
                assert_eq!(new_seen.1, traced, "the device saw what was traced");
                assert_eq!(segs.len() as u64, len);
                assert!(segs.iter().all(|part| !part.is_empty()));
                if self.opts.checksums {
                    // One view per block touched: nothing was assembled.
                    let blocks = (offset + len).div_ceil(BLOCK_BYTES) - offset / BLOCK_BYTES;
                    assert_eq!(segs.iter().count() as u64, blocks.min(len));
                }
            }
            new
        }

        fn apply(&mut self, step: &Step) {
            self.seq += 1;
            let mut trace = Vec::new();
            match *step {
                Step::Create { obj } => {
                    self.part
                        .create(
                            &mut self.dev,
                            oid(obj),
                            OBJ_BYTES,
                            self.seq,
                            &self.opts,
                            &mut trace,
                        )
                        .unwrap();
                    self.model[obj as usize]
                        .get_or_insert((0, vec![0; OBJ_BYTES as usize]))
                        .0 = OBJ_BYTES;
                }
                Step::Write {
                    obj,
                    offset,
                    len,
                    lead,
                    fill,
                } => {
                    let backing: Payload = (0..lead + len as usize + 5)
                        .map(|i| (i as u8).wrapping_mul(29).wrapping_add(fill))
                        .collect::<Vec<_>>()
                        .into();
                    let data = backing.slice(lead, len as usize);
                    self.part
                        .write(
                            &mut self.dev,
                            oid(obj),
                            offset,
                            &data.clone().into(),
                            self.seq,
                            &self.opts,
                            &mut trace,
                        )
                        .unwrap();
                    let m =
                        self.model[obj as usize].get_or_insert((0, vec![0; OBJ_BYTES as usize]));
                    m.0 = m.0.max(offset + len);
                    m.1[offset as usize..(offset + len) as usize].copy_from_slice(&data);
                }
                Step::Read { obj, offset, len } => {
                    let got = self.read_both(obj, offset, len);
                    match &self.model[obj as usize] {
                        None => assert_eq!(got, Err(StoreError::NotFound)),
                        Some((size, _)) if offset + len > *size => {
                            assert!(matches!(got, Err(StoreError::OutOfBounds { .. })))
                        }
                        Some((_, bytes)) => assert_eq!(
                            got.unwrap(),
                            bytes[offset as usize..(offset + len) as usize].to_vec()
                        ),
                    }
                }
                Step::Rot {
                    obj,
                    block,
                    byte,
                    bit,
                } => {
                    let at = block * BLOCK_BYTES;
                    let in_range = self.model[obj as usize]
                        .as_ref()
                        .is_some_and(|(size, _)| at + BLOCK_BYTES <= *size);
                    if !in_range {
                        return;
                    }
                    // Warm whatever memo the block has, then rot it.
                    self.read_both(obj, at, BLOCK_BYTES).unwrap();
                    let flip = |h: &mut Harness| {
                        h.part
                            .corrupt_data_bit(&mut h.dev, oid(obj), block, byte, bit)
                            .unwrap()
                    };
                    if !flip(self) {
                        return; // a hole: nothing stored, nothing to rot
                    }
                    let whole = self.model[obj as usize].as_ref().unwrap().0;
                    for (offset, len) in [(at, BLOCK_BYTES), (at + byte, 1), (0, whole)] {
                        let got = self.read_both(obj, offset, len);
                        if self.opts.checksums {
                            assert_eq!(got, Err(StoreError::ChecksumMismatch));
                        }
                    }
                    assert!(flip(self));
                    self.read_both(obj, at, BLOCK_BYTES).unwrap();
                }
            }
        }
    }

    proptest! {
        /// The segmented `Partition::read` against the copying read path it
        /// replaced and against a byte model — over holes, never-written
        /// pre-allocated blocks, blocks held by reference (whole buffers and
        /// slices), RMW-materialised image blocks, unaligned offsets and
        /// lengths over several runs, checksums on and off, and rot that
        /// lands on a block whose CRC memo is warm — with equal bytes, equal
        /// device counters and equal traces.
        #[test]
        fn read_matches_reference_and_model(script in steps(), checksums in any::<bool>()) {
            let mut h = Harness::new(checksums);
            for step in &script {
                h.apply(step);
            }
            for obj in 0..OBJECTS {
                if let Some((size, bytes)) = h.model[obj as usize].clone() {
                    let got = h.read_both(obj, 0, size).unwrap();
                    prop_assert!(got == bytes[..size as usize].to_vec());
                }
            }
        }
    }
}
