//! On-disk geometry of the CPU-efficient object store.
//!
//! The device is statically divided into equal partitions (§IV-C Disk
//! Layout), each owned by exactly one non-priority thread so I/O proceeds in
//! parallel without lock contention. Every partition holds a header, an
//! onode table, a free-tree checkpoint area, and the data-block area.

use rablock_storage::StoreError;

use crate::onode::ONODE_BYTES;

/// Store-wide superblock size.
pub const SUPERBLOCK_BYTES: u64 = 4096;
/// Per-partition header size.
pub const PART_HEADER_BYTES: u64 = 4096;
/// Data block size: Ceph-style 4 KiB.
pub const BLOCK_BYTES: u64 = 4096;

/// Tuning and feature toggles for [`CosObjectStore`](crate::CosObjectStore).
#[derive(Debug, Clone)]
pub struct CosOptions {
    /// Number of sharded partitions.
    pub partitions: usize,
    /// Onode slots per partition (max objects per partition).
    pub onode_slots: u32,
    /// Pre-allocate object data at `Create` time (paper §IV-C: avoids all
    /// further allocator/metadata updates for fixed-size objects).
    pub pre_allocate: bool,
    /// Keep onode updates in the NVM metadata cache instead of writing the
    /// onode slot on every transaction (paper Fig. 8 "metadata cache").
    pub metadata_cache: bool,
    /// Dirty onodes held in NVM before maintenance must write them back.
    pub meta_cache_entries: usize,
    /// Bytes reserved per partition for free-tree checkpoints.
    pub freetree_bytes: u64,
    /// Keep a CRC32 per written data block and verify it on every read
    /// path, so silent media corruption surfaces as
    /// [`StoreError::ChecksumMismatch`](rablock_storage::StoreError)
    /// instead of wrong bytes. Off by default: the WAF experiments model
    /// the paper's store, which does not checksum data.
    pub checksums: bool,
}

impl Default for CosOptions {
    fn default() -> Self {
        CosOptions {
            partitions: 4,
            onode_slots: 4096,
            pre_allocate: true,
            metadata_cache: true,
            meta_cache_entries: 1024,
            freetree_bytes: 64 << 10,
            checksums: false,
        }
    }
}

impl CosOptions {
    /// A configuration small enough for unit tests.
    pub fn tiny() -> Self {
        CosOptions {
            partitions: 2,
            onode_slots: 128,
            pre_allocate: true,
            metadata_cache: true,
            meta_cache_entries: 16,
            freetree_bytes: 16 << 10,
            checksums: false,
        }
    }
}

/// Resolved geometry of one partition within the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartGeometry {
    /// Device offset of the partition header.
    pub region_off: u64,
    /// Total bytes of the partition region.
    pub region_len: u64,
    /// Onode slots.
    pub onode_slots: u32,
    /// Bytes reserved for free-tree checkpoints (the configured size plus
    /// the padding that aligns the data area).
    pub freetree_bytes: u64,
    /// Number of data blocks.
    pub data_blocks: u64,
}

impl PartGeometry {
    /// Computes geometry for partition `idx` of `count` on a device of
    /// `capacity` bytes.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidArgument`] if the device is too small to hold
    /// the metadata areas plus at least one data block per partition.
    pub fn compute(
        capacity: u64,
        idx: usize,
        opts: &CosOptions,
    ) -> Result<PartGeometry, StoreError> {
        let count = opts.partitions as u64;
        let usable = capacity
            .checked_sub(SUPERBLOCK_BYTES)
            .ok_or_else(|| StoreError::InvalidArgument("device smaller than superblock".into()))?;
        // Regions and data areas start on block boundaries, so a data block
        // never straddles two device blocks: regions are whole blocks, and
        // the free-tree area takes the padding behind the onode table.
        let region_len = usable / count / BLOCK_BYTES * BLOCK_BYTES;
        let table = PART_HEADER_BYTES + opts.onode_slots as u64 * ONODE_BYTES as u64;
        let freetree_bytes = (table + opts.freetree_bytes).next_multiple_of(BLOCK_BYTES) - table;
        let meta = table + freetree_bytes;
        if region_len < meta + BLOCK_BYTES {
            return Err(StoreError::InvalidArgument(format!(
                "partition of {region_len} bytes cannot hold {meta} metadata bytes plus data"
            )));
        }
        let data_blocks = (region_len - meta) / BLOCK_BYTES;
        Ok(PartGeometry {
            region_off: SUPERBLOCK_BYTES + idx as u64 * region_len,
            region_len,
            onode_slots: opts.onode_slots,
            freetree_bytes,
            data_blocks,
        })
    }

    /// Device offset of onode slot `slot`.
    pub fn onode_off(&self, slot: u32) -> u64 {
        debug_assert!(slot < self.onode_slots);
        self.region_off + PART_HEADER_BYTES + slot as u64 * ONODE_BYTES as u64
    }

    /// Device offset of the free-tree checkpoint area.
    pub fn freetree_off(&self) -> u64 {
        self.region_off + PART_HEADER_BYTES + self.onode_slots as u64 * ONODE_BYTES as u64
    }

    /// Device offset of data block `block`.
    pub fn block_off(&self, block: u64) -> u64 {
        debug_assert!(
            block < self.data_blocks,
            "block {block} >= {}",
            self.data_blocks
        );
        let off = self.freetree_off() + self.freetree_bytes + block * BLOCK_BYTES;
        debug_assert!(off.is_multiple_of(BLOCK_BYTES), "unaligned data block");
        off
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_partitions_are_disjoint_and_in_bounds() {
        let opts = CosOptions {
            partitions: 4,
            ..CosOptions::tiny()
        };
        let cap = 64 << 20;
        let mut prev_end = SUPERBLOCK_BYTES;
        for i in 0..4 {
            let g = PartGeometry::compute(cap, i, &opts).unwrap();
            assert_eq!(g.region_off, prev_end);
            prev_end = g.region_off + g.region_len;
            assert!(g.block_off(g.data_blocks - 1) + BLOCK_BYTES <= prev_end);
        }
        assert!(prev_end <= cap);
    }

    #[test]
    fn onode_and_freetree_offsets_do_not_overlap_data() {
        let g = PartGeometry::compute(32 << 20, 0, &CosOptions::tiny()).unwrap();
        assert!(g.onode_off(g.onode_slots - 1) + ONODE_BYTES as u64 <= g.freetree_off());
        assert!(g.freetree_off() + g.freetree_bytes <= g.block_off(0));
    }

    #[test]
    fn data_blocks_are_device_block_aligned_for_any_geometry() {
        for capacity in [192 << 20, (64 << 20) + 12_345, (48 << 20) - 1, 33_333_333] {
            for partitions in [1, 2, 3, 4, 5, 7] {
                for (onode_slots, freetree_bytes) in [(128, 16 << 10), (129, 1000), (7, 4097)] {
                    let opts = CosOptions {
                        partitions,
                        onode_slots,
                        freetree_bytes,
                        ..CosOptions::tiny()
                    };
                    let mut prev_end = SUPERBLOCK_BYTES;
                    for idx in 0..partitions {
                        let g = PartGeometry::compute(capacity, idx, &opts).unwrap();
                        assert_eq!(g.region_off, prev_end);
                        assert_eq!(g.region_off % BLOCK_BYTES, 0);
                        assert_eq!(g.block_off(0) % BLOCK_BYTES, 0);
                        assert!(g.freetree_bytes >= freetree_bytes);
                        assert!(g.freetree_bytes < freetree_bytes + BLOCK_BYTES);
                        prev_end = g.region_off + g.region_len;
                        assert!(g.block_off(g.data_blocks - 1) + BLOCK_BYTES <= prev_end);
                        assert!(g.block_off(g.data_blocks - 1) + 2 * BLOCK_BYTES > prev_end);
                    }
                    assert!(prev_end <= capacity);
                    assert!(prev_end + partitions as u64 * BLOCK_BYTES > capacity);
                }
            }
        }
    }

    #[test]
    fn too_small_device_rejected() {
        let err = PartGeometry::compute(1 << 20, 0, &CosOptions::default());
        assert!(matches!(err, Err(StoreError::InvalidArgument(_))));
    }
}
