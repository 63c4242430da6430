//! Onodes: fixed-size object metadata records.
//!
//! Each object has one 512-byte onode (§IV-C "Onode Tree Info Area"): id,
//! size/version/mtime, an extent-based `block_map` from logical to physical
//! blocks, and a small extended-attribute map. Up to [`INLINE_EXTENTS`]
//! extents embed directly; pathological fragmentation spills the remainder
//! to a metadata block referenced by the onode (pre-allocated objects always
//! fit inline — that is the point of pre-allocation).

use rablock_storage::StoreError;

/// Fixed on-disk size of one onode.
pub const ONODE_BYTES: usize = 512;
/// Extents that fit inline in the onode.
pub const INLINE_EXTENTS: usize = 16;
/// Bytes reserved for the inline xattr map.
const XATTR_AREA: usize = ONODE_BYTES - HEADER_BYTES - INLINE_EXTENTS * EXTENT_BYTES - 4;
// magic, oid, size, version, mtime, generation, flags, extent count,
// spill block, csum block, csum count.
const HEADER_BYTES: usize = 4 + 8 + 8 + 8 + 8 + 4 + 4 + 4 + 8 + 8 + 4;
const EXTENT_BYTES: usize = 8 + 8 + 4;
const MAGIC: u32 = 0x4F4E_4F44; // "ONOD"

/// One run of the logical→physical block map.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Extent {
    /// First logical block within the object.
    pub logical: u64,
    /// First physical block within the partition's data area.
    pub phys: u64,
    /// Run length in blocks.
    pub count: u32,
}

/// A sorted, merged logical→physical block map.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExtentMap {
    entries: Vec<Extent>,
}

impl ExtentMap {
    /// An empty map (nothing allocated).
    pub fn new() -> Self {
        ExtentMap::default()
    }

    /// The extents, sorted by logical block.
    pub fn entries(&self) -> &[Extent] {
        &self.entries
    }

    /// Number of extents.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is mapped.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Physical block backing `logical`, if mapped.
    pub fn map(&self, logical: u64) -> Option<u64> {
        let idx = self.entries.partition_point(|e| e.logical <= logical);
        if idx == 0 {
            return None;
        }
        let e = &self.entries[idx - 1];
        let off = logical - e.logical;
        (off < e.count as u64).then(|| e.phys + off)
    }

    /// Adds a mapping, merging with adjacent runs when contiguous on both
    /// sides.
    ///
    /// # Panics
    ///
    /// Panics if the logical range is already mapped (allocator bug).
    pub fn insert(&mut self, ext: Extent) {
        assert!(ext.count > 0, "empty extent");
        for b in [ext.logical, ext.logical + ext.count as u64 - 1] {
            assert!(self.map(b).is_none(), "logical block {b} double-mapped");
        }
        let idx = self.entries.partition_point(|e| e.logical < ext.logical);
        self.entries.insert(idx, ext);
        // Merge with the successor, then the predecessor.
        if idx + 1 < self.entries.len() {
            let (a, b) = (self.entries[idx], self.entries[idx + 1]);
            if a.logical + a.count as u64 == b.logical && a.phys + a.count as u64 == b.phys {
                self.entries[idx].count += b.count;
                self.entries.remove(idx + 1);
            }
        }
        if idx > 0 {
            let (a, b) = (self.entries[idx - 1], self.entries[idx]);
            if a.logical + a.count as u64 == b.logical && a.phys + a.count as u64 == b.phys {
                self.entries[idx - 1].count += b.count;
                self.entries.remove(idx);
            }
        }
    }

    /// Removes every mapping (delete path); returns the freed extents.
    pub fn take_all(&mut self) -> Vec<Extent> {
        std::mem::take(&mut self.entries)
    }
}

impl FromIterator<Extent> for ExtentMap {
    fn from_iter<I: IntoIterator<Item = Extent>>(iter: I) -> Self {
        let mut m = ExtentMap::new();
        for e in iter {
            m.insert(e);
        }
        m
    }
}

/// In-memory form of one object's metadata record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Onode {
    /// Raw object id this onode describes.
    pub oid_raw: u64,
    /// Object size in bytes.
    pub size: u64,
    /// Monotonic version.
    pub version: u64,
    /// Logical mtime (sequence of the last mutating transaction).
    pub mtime: u64,
    /// Generation, bumped by delete+recreate.
    pub generation: u32,
    /// Delayed-deallocation flag (§IV-C-5): the object is dead but its
    /// blocks have not been returned to the free tree yet.
    pub deleted: bool,
    /// Logical→physical block map.
    pub extents: ExtentMap,
    /// Extended attributes (small, inline).
    pub xattrs: Vec<(String, Vec<u8>)>,
    /// First block of the per-block checksum run (0 = none persisted).
    pub csum_block: u64,
    /// Number of per-block checksums persisted in the run.
    pub csum_count: u32,
}

impl Onode {
    /// A fresh onode for `oid_raw`.
    pub fn new(oid_raw: u64) -> Self {
        Onode {
            oid_raw,
            size: 0,
            version: 0,
            mtime: 0,
            generation: 0,
            deleted: false,
            extents: ExtentMap::new(),
            xattrs: Vec::new(),
            csum_block: 0,
            csum_count: 0,
        }
    }

    /// Sets or replaces an xattr. A replaced value is copied into the old
    /// one's buffer, so rewriting an attribute of the same size allocates
    /// nothing; a new one grows the list by exactly one entry (an object
    /// has one or two, and a pushed `Vec` would reserve room for four).
    pub fn set_xattr(&mut self, key: &str, value: &[u8]) {
        if let Some(slot) = self.xattrs.iter_mut().find(|(k, _)| k == key) {
            slot.1.clear();
            slot.1.extend_from_slice(value);
        } else {
            self.xattrs.reserve_exact(1);
            self.xattrs.push((key.to_string(), value.to_vec()));
        }
    }

    /// Reads an xattr.
    pub fn xattr(&self, key: &str) -> Option<&[u8]> {
        self.xattrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_slice())
    }

    /// Encodes into the fixed 512-byte record, allocating nothing.
    ///
    /// The first [`INLINE_EXTENTS`] extents embed inline; the rest are
    /// returned, a slice of the extent map, for the caller to persist in the
    /// spill block referenced by `spill_block` (pass 0 when everything
    /// fits).
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidArgument`] if the xattr map exceeds its inline
    /// area, or if extents spill but `spill_block` is 0.
    pub fn encode(&self, spill_block: u64) -> Result<([u8; ONODE_BYTES], &[Extent]), StoreError> {
        let mut buf = [0u8; ONODE_BYTES];
        let entries = self.extents.entries();
        let spilled = &entries[INLINE_EXTENTS.min(entries.len())..];
        if !spilled.is_empty() && spill_block == 0 {
            return Err(StoreError::InvalidArgument(
                "extent map spills but no spill block provided".into(),
            ));
        }
        let mut w = 0usize;
        let put = |buf: &mut [u8; ONODE_BYTES], bytes: &[u8], w: &mut usize| {
            buf[*w..*w + bytes.len()].copy_from_slice(bytes);
            *w += bytes.len();
        };
        put(&mut buf, &MAGIC.to_le_bytes(), &mut w);
        put(&mut buf, &self.oid_raw.to_le_bytes(), &mut w);
        put(&mut buf, &self.size.to_le_bytes(), &mut w);
        put(&mut buf, &self.version.to_le_bytes(), &mut w);
        put(&mut buf, &self.mtime.to_le_bytes(), &mut w);
        put(&mut buf, &self.generation.to_le_bytes(), &mut w);
        let flags: u32 = if self.deleted { 1 } else { 0 };
        put(&mut buf, &flags.to_le_bytes(), &mut w);
        put(&mut buf, &(self.extents.len() as u32).to_le_bytes(), &mut w);
        put(&mut buf, &spill_block.to_le_bytes(), &mut w);
        put(&mut buf, &self.csum_block.to_le_bytes(), &mut w);
        put(&mut buf, &self.csum_count.to_le_bytes(), &mut w);
        for e in self.extents.entries().iter().take(INLINE_EXTENTS) {
            put(&mut buf, &e.logical.to_le_bytes(), &mut w);
            put(&mut buf, &e.phys.to_le_bytes(), &mut w);
            put(&mut buf, &e.count.to_le_bytes(), &mut w);
        }
        w = HEADER_BYTES + INLINE_EXTENTS * EXTENT_BYTES;
        // Xattrs: u16 count, then (u8 klen, key, u16 vlen, value)*, sized
        // before any of it is written.
        let mut xattr_bytes = 2;
        for (k, v) in &self.xattrs {
            if k.len() > u8::MAX as usize || v.len() > u16::MAX as usize {
                return Err(StoreError::InvalidArgument("oversized xattr".into()));
            }
            xattr_bytes += 1 + k.len() + 2 + v.len();
        }
        if xattr_bytes > XATTR_AREA {
            return Err(StoreError::InvalidArgument(format!(
                "xattr map of {xattr_bytes} bytes exceeds inline area of {XATTR_AREA}"
            )));
        }
        put(&mut buf, &(self.xattrs.len() as u16).to_le_bytes(), &mut w);
        for (k, v) in &self.xattrs {
            put(&mut buf, &[k.len() as u8], &mut w);
            put(&mut buf, k.as_bytes(), &mut w);
            put(&mut buf, &(v.len() as u16).to_le_bytes(), &mut w);
            put(&mut buf, v, &mut w);
        }
        let crc = crate::crc32(&buf[..ONODE_BYTES - 4]);
        buf[ONODE_BYTES - 4..].copy_from_slice(&crc.to_le_bytes());
        Ok((buf, spilled))
    }

    /// Decodes a 512-byte record. Returns the onode (inline extents only)
    /// and the spill block (0 if none); the caller appends spilled extents.
    ///
    /// Returns `Ok(None)` for an all-zero (never written) slot.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on bad magic or CRC.
    pub fn decode(buf: &[u8]) -> Result<Option<(Onode, u64, u32)>, StoreError> {
        assert_eq!(buf.len(), ONODE_BYTES, "onode records are fixed-size");
        if buf.iter().all(|&b| b == 0) {
            return Ok(None);
        }
        let crc_stored = u32::from_le_bytes(buf[ONODE_BYTES - 4..].try_into().expect("4 bytes"));
        if crate::crc32(&buf[..ONODE_BYTES - 4]) != crc_stored {
            return Err(StoreError::Corrupt("onode crc mismatch".into()));
        }
        let rd_u32 = |o: usize| u32::from_le_bytes(buf[o..o + 4].try_into().expect("4 bytes"));
        let rd_u64 = |o: usize| u64::from_le_bytes(buf[o..o + 8].try_into().expect("8 bytes"));
        if rd_u32(0) != MAGIC {
            return Err(StoreError::Corrupt("onode bad magic".into()));
        }
        let oid_raw = rd_u64(4);
        let size = rd_u64(12);
        let version = rd_u64(20);
        let mtime = rd_u64(28);
        let generation = rd_u32(36);
        let flags = rd_u32(40);
        let total_extents = rd_u32(44);
        let spill_block = rd_u64(48);
        let csum_block = rd_u64(56);
        let csum_count = rd_u32(64);
        let mut extents = ExtentMap::new();
        let inline = (total_extents as usize).min(INLINE_EXTENTS);
        for i in 0..inline {
            let o = HEADER_BYTES + i * EXTENT_BYTES;
            extents.insert(Extent {
                logical: rd_u64(o),
                phys: rd_u64(o + 8),
                count: rd_u32(o + 16),
            });
        }
        let xa_off = HEADER_BYTES + INLINE_EXTENTS * EXTENT_BYTES;
        let count = u16::from_le_bytes(buf[xa_off..xa_off + 2].try_into().expect("2 bytes"));
        let mut pos = xa_off + 2;
        let mut xattrs = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let klen = buf[pos] as usize;
            pos += 1;
            let key = String::from_utf8(buf[pos..pos + klen].to_vec())
                .map_err(|_| StoreError::Corrupt("non-utf8 xattr key".into()))?;
            pos += klen;
            let vlen = u16::from_le_bytes(buf[pos..pos + 2].try_into().expect("2 bytes")) as usize;
            pos += 2;
            let value = buf[pos..pos + vlen].to_vec();
            pos += vlen;
            xattrs.push((key, value));
        }
        Ok(Some((
            Onode {
                oid_raw,
                size,
                version,
                mtime,
                generation,
                deleted: flags & 1 != 0,
                extents,
                xattrs,
                csum_block,
                csum_count,
            },
            spill_block,
            total_extents,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extent_map_maps_and_merges() {
        let mut m = ExtentMap::new();
        m.insert(Extent {
            logical: 0,
            phys: 100,
            count: 4,
        });
        m.insert(Extent {
            logical: 4,
            phys: 104,
            count: 4,
        }); // contiguous both sides
        assert_eq!(m.len(), 1, "merged into one run");
        assert_eq!(m.map(0), Some(100));
        assert_eq!(m.map(7), Some(107));
        assert_eq!(m.map(8), None);
        m.insert(Extent {
            logical: 10,
            phys: 500,
            count: 2,
        });
        assert_eq!(m.len(), 2);
        assert_eq!(m.map(11), Some(501));
        assert_eq!(m.map(9), None);
    }

    #[test]
    #[should_panic(expected = "double-mapped")]
    fn extent_double_map_panics() {
        let mut m = ExtentMap::new();
        m.insert(Extent {
            logical: 0,
            phys: 0,
            count: 4,
        });
        m.insert(Extent {
            logical: 2,
            phys: 50,
            count: 1,
        });
    }

    #[test]
    fn onode_encode_decode_round_trip() {
        let mut o = Onode::new(0xDEAD_BEEF);
        o.size = 4 << 20;
        o.version = 17;
        o.mtime = 99;
        o.generation = 2;
        o.extents.insert(Extent {
            logical: 0,
            phys: 4096,
            count: 1024,
        });
        o.set_xattr("snapset", &[1, 2, 3]);
        o.set_xattr("oi", &[9; 40]);
        let (buf, spilled) = o.encode(0).unwrap();
        assert!(spilled.is_empty());
        let (decoded, spill, total) = Onode::decode(&buf).unwrap().unwrap();
        assert_eq!(decoded, o);
        assert_eq!(spill, 0);
        assert_eq!(total, 1);
    }

    #[test]
    fn zero_slot_decodes_as_absent() {
        assert_eq!(Onode::decode(&[0u8; ONODE_BYTES]).unwrap(), None);
    }

    #[test]
    fn corruption_detected() {
        let (mut buf, _) = Onode::new(5).encode(0).unwrap();
        buf[10] ^= 0xFF;
        assert!(matches!(Onode::decode(&buf), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn fragmented_map_spills_beyond_inline() {
        let mut o = Onode::new(1);
        // 20 non-mergeable extents.
        for i in 0..20u64 {
            o.extents.insert(Extent {
                logical: i * 2,
                phys: 1000 + i * 10,
                count: 1,
            });
        }
        assert!(o.encode(0).is_err(), "spill requires a spill block");
        let (buf, spilled) = o.encode(777).unwrap();
        assert_eq!(spilled.len(), 4);
        let (decoded, spill, total) = Onode::decode(&buf).unwrap().unwrap();
        assert_eq!(spill, 777);
        assert_eq!(total, 20);
        assert_eq!(decoded.extents.len(), INLINE_EXTENTS);
    }

    #[test]
    fn oversized_xattrs_rejected() {
        let mut o = Onode::new(1);
        o.set_xattr("big", &[0u8; 300]);
        assert!(matches!(o.encode(0), Err(StoreError::InvalidArgument(_))));
    }

    #[test]
    fn xattr_overwrite_replaces() {
        let mut o = Onode::new(1);
        o.set_xattr("k", &[1; 64]);
        o.set_xattr("k", &[2]);
        assert_eq!(o.xattr("k"), Some(&[2u8][..]));
        assert_eq!(o.xattrs.len(), 1);
        assert_eq!(o.xattrs.capacity(), 1, "one attribute, one slot");
        assert_eq!(o.xattrs[0].1.capacity(), 64, "the value was reallocated");
    }

    #[test]
    fn csum_run_pointer_round_trips() {
        let mut o = Onode::new(7);
        o.csum_block = 1234;
        o.csum_count = 256;
        let (buf, _) = o.encode(0).unwrap();
        let (d, _, _) = Onode::decode(&buf).unwrap().unwrap();
        assert_eq!(d.csum_block, 1234);
        assert_eq!(d.csum_count, 256);
        assert_eq!(d, o);
    }

    #[test]
    fn deleted_flag_round_trips() {
        let mut o = Onode::new(3);
        o.deleted = true;
        let (buf, _) = o.encode(0).unwrap();
        let (d, _, _) = Onode::decode(&buf).unwrap().unwrap();
        assert!(d.deleted);
    }
}
