//! Sorted-string-table files over the segment area.
//!
//! An SST is an immutable sorted run: data blocks of whole records, a block
//! index, and a CRC-protected footer. Files live on an ordered list of
//! fixed-size segments; logical file offsets are translated per segment, so
//! a file never needs contiguous device space.
//!
//! Format (logical offsets):
//!
//! ```text
//! [block 0][block 1]…[index block][footer]
//! block:   repeated records: u8 flag (0=put,1=del), key bytes, value bytes
//! index:   u32 count, then per block: first_key bytes, u64 offset, u32 len
//! footer:  u64 index_off, u32 index_len, u64 entries, u32 index_crc, u32 magic
//! ```

use rablock_storage::crc::crc32;
use rablock_storage::{
    BlockDevice, Frame, FrameReader, IoCategory, Key, NvmPiece, Payload, StoreError, TraceIo,
    TraceKind,
};

use crate::alloc::SegAlloc;
use crate::bloom::Bloom;
use crate::util::{put_bytes, put_u32, put_u64, Cursor};

const MAGIC: u32 = 0x5353_5442; // "SSTB"
/// index_off u64, index_len u32, bloom_len u32, entries u64, crc u32, magic u32.
const FOOTER_BYTES: u64 = 8 + 4 + 4 + 8 + 4 + 4;

/// One sparse-index entry: the first key of a data block and its extent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEntry {
    /// First key stored in the block.
    pub first_key: Key,
    /// Logical file offset of the block.
    pub offset: u64,
    /// Block length in bytes.
    pub len: u32,
}

/// Metadata of one SST, including its in-memory block index.
#[derive(Debug, Clone)]
pub struct Sst {
    /// Unique, monotonically assigned id (larger = newer).
    pub id: u64,
    /// Segments holding the file, in file order.
    pub segments: Vec<u32>,
    /// Logical file length in bytes.
    pub len: u64,
    /// Smallest key in the file.
    pub min_key: Key,
    /// Largest key in the file.
    pub max_key: Key,
    /// Number of records (tombstones included).
    pub entries: u64,
    /// Block index (always resident; reloaded from the footer on open).
    pub index: Vec<IndexEntry>,
    /// Per-file Bloom filter (reloaded from the footer on open).
    pub bloom: Bloom,
}

impl Sst {
    /// True if `key` could be inside this file's key range.
    pub fn covers(&self, key: &[u8]) -> bool {
        *self.min_key <= *key && *key <= *self.max_key
    }

    /// True if this file's range overlaps `[min, max]`.
    pub fn overlaps(&self, min: &[u8], max: &[u8]) -> bool {
        !(*self.max_key < *min || *max < *self.min_key)
    }
}

/// Geometry needed to translate logical file offsets to device offsets.
#[derive(Debug, Clone, Copy)]
pub struct SegGeometry {
    /// Device offset where segment 0 starts.
    pub region_off: u64,
    /// Bytes per segment.
    pub segment_bytes: u64,
}

impl SegGeometry {
    fn device_offset(&self, segments: &[u32], logical: u64) -> u64 {
        let seg_idx = (logical / self.segment_bytes) as usize;
        let within = logical % self.segment_bytes;
        self.region_off + segments[seg_idx] as u64 * self.segment_bytes + within
    }

    /// The logical range `[logical, logical + len)` cut at segment bounds,
    /// as `(device offset, length)` in order.
    fn spans<'a>(
        &'a self,
        segments: &'a [u32],
        logical: u64,
        len: u64,
    ) -> impl Iterator<Item = (u64, u64)> + 'a {
        let mut done = 0;
        std::iter::from_fn(move || {
            (done < len).then(|| {
                let pos = logical + done;
                let chunk = (self.segment_bytes - pos % self.segment_bytes).min(len - done);
                done += chunk;
                (self.device_offset(segments, pos), chunk)
            })
        })
    }

    /// Reads `len` logical bytes at `logical` into a fresh buffer.
    fn read_range<D: BlockDevice>(
        &self,
        dev: &mut D,
        segments: &[u32],
        logical: u64,
        len: u64,
    ) -> Result<Vec<u8>, StoreError> {
        let mut out = vec![0u8; len as usize];
        let mut done = 0;
        for (at, chunk) in self.spans(segments, logical, len) {
            dev.read_at(at, &mut out[done..done + chunk as usize])?;
            done += chunk as usize;
        }
        Ok(out)
    }

    /// Appends the logical bytes at `logical` to `out`, one device read per
    /// segment: what the device holds by reference comes back as views
    /// (and a value that two segments hold in two parts of one buffer, as
    /// one view).
    fn read_frame<D: BlockDevice>(
        &self,
        dev: &mut D,
        segments: &[u32],
        logical: u64,
        len: u64,
        out: &mut Frame,
    ) -> Result<(), StoreError> {
        for (at, chunk) in self.spans(segments, logical, len) {
            dev.read_frame(at, chunk as usize, out)?;
        }
        Ok(())
    }

    /// Writes `file` at logical offset 0, one device write per segment; its
    /// held values stay by reference.
    fn write_file<D: BlockDevice>(
        &self,
        dev: &mut D,
        segments: &[u32],
        file: &Frame,
    ) -> Result<(), StoreError> {
        let spans = self.spans(segments, 0, file.len());
        file.split(spans, |at, part| dev.write_frame(at, part))
    }
}

/// A record's value as a data region holds it.
#[derive(Debug, Clone)]
pub enum Value<'a> {
    /// Bytes of the region (a short value, or one a device handed back as
    /// bytes).
    Inline(&'a [u8]),
    /// A held buffer: the one the value was written from, or a copy where
    /// the device holds it in pieces of several.
    Held(Payload),
}

impl Value<'_> {
    /// Length of the value.
    pub fn len(&self) -> usize {
        self.as_piece().as_bytes().len()
    }

    /// The value as a piece of a stream, for [`SstWriter::add`].
    pub fn as_piece(&self) -> NvmPiece<'_> {
        match self {
            Value::Inline(bytes) => NvmPiece::Bytes(bytes),
            Value::Held(payload) => NvmPiece::Held(payload),
        }
    }

    /// The value as a payload: the held buffer itself, or a copy of inline
    /// bytes.
    pub fn into_payload(self) -> Payload {
        match self {
            Value::Inline(bytes) => Payload::from(bytes),
            Value::Held(payload) => payload,
        }
    }
}

/// In-place iterator over the records of a data region — one block, or all
/// blocks of a file, which are laid out back to back. Keys and inline
/// values are windows into the region's bytes and held values are the
/// region's views; nothing is copied unless a device handed a value back in
/// pieces. A truncated record ends the iteration.
#[derive(Debug)]
pub struct Records<'a> {
    reader: FrameReader<'a>,
}

impl<'a> Records<'a> {
    /// Iterates the records encoded in `data`.
    pub fn new(data: &'a Frame) -> Self {
        Records {
            reader: data.reader(),
        }
    }

    fn len_prefix(&mut self) -> Option<usize> {
        let raw = self.reader.take(4)?;
        Some(u32::from_le_bytes(raw.try_into().expect("4 bytes")) as usize)
    }
}

impl<'a> Iterator for Records<'a> {
    type Item = (&'a [u8], Option<Value<'a>>);

    fn next(&mut self) -> Option<Self::Item> {
        let flag = self.reader.take(1)?[0];
        let key_len = self.len_prefix()?;
        let key = self.reader.take(key_len)?;
        if flag != 0 {
            return Some((key, None));
        }
        let len = self.len_prefix()?;
        let value = match self.reader.take(len) {
            Some(bytes) => Value::Inline(bytes),
            None => Value::Held(self.reader.payload(len)?),
        };
        Some((key, Some(value)))
    }
}

/// Builds SSTs from records added in strictly ascending key order.
///
/// Records are encoded straight into the file's frame: keys and short
/// values as bytes, large values held by reference, so a flush or a
/// compaction copies no value, and on a device that keeps frames by
/// reference neither does the write. The frame's byte buffer is kept
/// across [`SstWriter::finish`] calls: after the first few files it
/// neither grows nor touches fresh memory.
#[derive(Debug)]
pub struct SstWriter {
    block_bytes: usize,
    file: Frame,
    /// Where each key sits in the file's bytes, in order: the Bloom
    /// filter's input.
    keys: Vec<std::ops::Range<usize>>,
    index: Vec<IndexEntry>,
    /// Logical start of the block being filled; its index entry is the
    /// last one.
    open_block: Option<u64>,
}

impl SstWriter {
    /// A writer closing data blocks at `block_bytes`.
    pub fn new(block_bytes: usize) -> Self {
        SstWriter {
            block_bytes,
            file: Frame::new(),
            keys: Vec::new(),
            index: Vec::new(),
            open_block: None,
        }
    }

    /// True if no record has been added since the last `finish`.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Appends one record; `None` is a tombstone.
    pub fn add(&mut self, key: &[u8], value: Option<NvmPiece<'_>>) {
        debug_assert!(
            self.keys
                .last()
                .is_none_or(|last| &self.file.bytes()[last.clone()] < key),
            "records must be strictly sorted"
        );
        let logical = self.file.len();
        let block_start = *self.open_block.get_or_insert_with(|| {
            self.index.push(IndexEntry {
                first_key: key.into(),
                offset: logical,
                len: 0, // set when the block closes
            });
            logical
        });
        let bytes = self.file.bytes_mut();
        bytes.push(value.is_none() as u8);
        put_u32(bytes, key.len() as u32);
        self.keys.push(bytes.len()..bytes.len() + key.len());
        bytes.extend_from_slice(key);
        match value {
            Some(NvmPiece::Bytes(value)) => put_bytes(bytes, value),
            Some(NvmPiece::Held(value)) => {
                put_u32(bytes, value.len() as u32);
                self.file.append_payload(value);
            }
            None => {}
        }
        if self.file.len() - block_start >= self.block_bytes as u64 {
            self.close_block();
        }
    }

    fn close_block(&mut self) {
        if let Some(start) = self.open_block.take() {
            let entry = self.index.last_mut().expect("open block is indexed");
            entry.len = (self.file.len() - start) as u32;
        }
    }

    /// Completes the file (index, Bloom filter, footer), persists it on
    /// freshly allocated segments and flushes. The trace receives one write
    /// per segment-sized chunk (category `category`). The writer is empty
    /// afterwards, whatever the outcome, and holds no value.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSpace`] if the segment area cannot hold the file; no
    /// segment stays allocated then.
    ///
    /// # Panics
    ///
    /// Panics if no record was added (caller bug).
    pub fn finish<D: BlockDevice>(
        &mut self,
        dev: &mut D,
        alloc: &mut SegAlloc,
        geom: SegGeometry,
        id: u64,
        category: IoCategory,
        trace: &mut Vec<TraceIo>,
    ) -> Result<Sst, StoreError> {
        assert!(!self.is_empty(), "building an empty SST");
        self.close_block();
        let result = self.persist(dev, alloc, geom, id, category, trace);
        self.file.clear();
        self.keys.clear();
        self.index.clear();
        result
    }

    fn persist<D: BlockDevice>(
        &mut self,
        dev: &mut D,
        alloc: &mut SegAlloc,
        geom: SegGeometry,
        id: u64,
        category: IoCategory,
        trace: &mut Vec<TraceIo>,
    ) -> Result<Sst, StoreError> {
        let entries = self.keys.len() as u64;
        let index_off = self.file.len();
        let file = self.file.bytes_mut();
        let bloom = Bloom::build(
            self.keys.iter().map(|key| &file[key.clone()]),
            entries as usize,
            10,
        );
        // The metadata follows every held value: it is all bytes.
        let meta_at = file.len();
        put_u32(file, self.index.len() as u32);
        for e in &self.index {
            put_bytes(file, &e.first_key);
            put_u64(file, e.offset);
            put_u32(file, e.len);
        }
        let index_len = file.len() - meta_at;
        let bloom_block = bloom.encode();
        file.extend_from_slice(&bloom_block);
        let meta_crc = crc32(&file[meta_at..]);
        put_u64(file, index_off);
        put_u32(file, index_len as u32);
        put_u32(file, bloom_block.len() as u32);
        put_u64(file, entries);
        put_u32(file, meta_crc);
        put_u32(file, MAGIC);

        let len = self.file.len();
        let nsegs = len.div_ceil(geom.segment_bytes);
        let mut segments = Vec::with_capacity(nsegs as usize);
        for _ in 0..nsegs {
            match alloc.alloc() {
                Ok(s) => segments.push(s),
                Err(e) => {
                    for s in segments {
                        alloc.free(s);
                    }
                    return Err(e);
                }
            }
        }
        let written = geom
            .write_file(dev, &segments, &self.file)
            .and_then(|()| dev.flush());
        if let Err(e) = written {
            for s in segments {
                alloc.free(s);
            }
            return Err(e);
        }
        // Trace per segment-sized chunk so the device model sees realistic I/Os.
        let mut remaining = len;
        while remaining > 0 {
            let chunk = remaining.min(geom.segment_bytes);
            trace.push(TraceIo {
                kind: TraceKind::Write,
                bytes: chunk,
                category,
            });
            remaining -= chunk;
        }
        trace.push(TraceIo {
            kind: TraceKind::Flush,
            bytes: 0,
            category,
        });

        let last_key = self.keys.last().expect("not empty").clone();
        Ok(Sst {
            id,
            segments,
            len,
            min_key: self.index[0].first_key.clone(),
            max_key: self.file.bytes()[last_key].into(),
            entries,
            index: std::mem::take(&mut self.index),
            bloom,
        })
    }
}

/// Point lookup in one SST. `Ok(None)` means "key not in this file";
/// `Ok(Some(None))` means "deleted here".
///
/// # Errors
///
/// Propagates device errors.
pub fn sst_get<D: BlockDevice>(
    dev: &mut D,
    geom: SegGeometry,
    sst: &Sst,
    key: &[u8],
    trace: &mut Vec<TraceIo>,
) -> Result<Option<Option<Payload>>, StoreError> {
    if !sst.covers(key) || !sst.bloom.may_contain(key) {
        return Ok(None);
    }
    // Last block whose first key <= key.
    let block_idx = match sst.index.partition_point(|e| *e.first_key <= *key) {
        0 => return Ok(None),
        n => n - 1,
    };
    let entry = &sst.index[block_idx];
    let mut block = Frame::new();
    geom.read_frame(
        dev,
        &sst.segments,
        entry.offset,
        entry.len as u64,
        &mut block,
    )?;
    trace.push(TraceIo {
        kind: TraceKind::Read,
        bytes: entry.len as u64,
        category: IoCategory::Data,
    });
    // Scan the block in place; the value asked for comes back as the
    // device's view where it holds one, copied out of the block otherwise.
    Ok(Records::new(&block)
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.map(Value::into_payload)))
}

/// Reads the data region of an SST — all its blocks, which
/// [`Records`] iterates in key order — into `out` (compaction input),
/// replacing what it held: values the device holds by reference come back
/// as views, not copies. The frame's byte buffer may be reused.
///
/// # Errors
///
/// Propagates device errors.
pub fn read_data<D: BlockDevice>(
    dev: &mut D,
    geom: SegGeometry,
    sst: &Sst,
    trace: &mut Vec<TraceIo>,
    out: &mut Frame,
) -> Result<(), StoreError> {
    let data_len: u64 = sst.index.iter().map(|e| e.len as u64).sum();
    out.clear();
    geom.read_frame(dev, &sst.segments, 0, data_len, out)?;
    let mut remaining = data_len;
    while remaining > 0 {
        let chunk = remaining.min(geom.segment_bytes);
        trace.push(TraceIo {
            kind: TraceKind::Read,
            bytes: chunk,
            category: IoCategory::Compaction,
        });
        remaining -= chunk;
    }
    Ok(())
}

/// Reloads the block index of an SST whose footer is on disk (recovery).
///
/// # Errors
///
/// [`StoreError::Corrupt`] on bad magic or CRC mismatch.
pub fn load_index<D: BlockDevice>(
    dev: &mut D,
    geom: SegGeometry,
    sst: &mut Sst,
) -> Result<(), StoreError> {
    if sst.len < FOOTER_BYTES {
        return Err(StoreError::Corrupt(format!(
            "sst {} shorter than footer",
            sst.id
        )));
    }
    let footer = geom.read_range(dev, &sst.segments, sst.len - FOOTER_BYTES, FOOTER_BYTES)?;
    let mut cur = Cursor::new(&footer);
    let index_off = cur.get_u64().expect("footer sized");
    let index_len = cur.get_u32().expect("footer sized");
    let bloom_len = cur.get_u32().expect("footer sized");
    let entries = cur.get_u64().expect("footer sized");
    let stored_crc = cur.get_u32().expect("footer sized");
    let magic = cur.get_u32().expect("footer sized");
    if magic != MAGIC {
        return Err(StoreError::Corrupt(format!(
            "sst {} bad magic {magic:#x}",
            sst.id
        )));
    }
    let meta = geom.read_range(
        dev,
        &sst.segments,
        index_off,
        (index_len + bloom_len) as u64,
    )?;
    if crc32(&meta) != stored_crc {
        return Err(StoreError::Corrupt(format!(
            "sst {} metadata crc mismatch",
            sst.id
        )));
    }
    let index_block = &meta[..index_len as usize];
    sst.bloom = Bloom::decode(&meta[index_len as usize..])
        .ok_or_else(|| StoreError::Corrupt(format!("sst {} malformed bloom filter", sst.id)))?;
    let mut cur = Cursor::new(index_block);
    let count = cur
        .get_u32()
        .ok_or_else(|| StoreError::Corrupt("truncated index".into()))?;
    let mut index = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let first_key = cur
            .get_bytes()
            .ok_or_else(|| StoreError::Corrupt("truncated index entry".into()))?
            .into();
        let offset = cur
            .get_u64()
            .ok_or_else(|| StoreError::Corrupt("truncated index entry".into()))?;
        let len = cur
            .get_u32()
            .ok_or_else(|| StoreError::Corrupt("truncated index entry".into()))?;
        index.push(IndexEntry {
            first_key,
            offset,
            len,
        });
    }
    sst.entries = entries;
    sst.index = index;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rablock_storage::MemDisk;

    fn geom() -> SegGeometry {
        SegGeometry {
            region_off: 0,
            segment_bytes: 4096,
        }
    }

    fn records(n: u64) -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
        (0..n)
            .map(|i| {
                let k = format!("key{i:06}").into_bytes();
                if i % 7 == 3 {
                    (k, None)
                } else {
                    (k, Some(format!("value-{i}").repeat(4).into_bytes()))
                }
            })
            .collect()
    }

    fn writer(n: u64) -> SstWriter {
        let mut w = SstWriter::new(512);
        for (k, v) in records(n) {
            w.add(&k, v.as_deref().map(NvmPiece::Bytes));
        }
        w
    }

    fn build(n: u64) -> (MemDisk, SegAlloc, Sst, Vec<TraceIo>) {
        let mut dev = MemDisk::new(1 << 22);
        let mut alloc = SegAlloc::new(1 << 10);
        let mut trace = Vec::new();
        let sst = writer(n)
            .finish(
                &mut dev,
                &mut alloc,
                geom(),
                1,
                IoCategory::MemtableFlush,
                &mut trace,
            )
            .unwrap();
        (dev, alloc, sst, trace)
    }

    #[test]
    fn build_then_get_every_key() {
        let (mut dev, _a, sst, _t) = build(200);
        let mut trace = Vec::new();
        for (k, v) in records(200) {
            let got = sst_get(&mut dev, geom(), &sst, &k, &mut trace).unwrap();
            let got = got.map(|v| v.map(|p| p.to_vec()));
            assert_eq!(got, Some(v), "key {}", String::from_utf8_lossy(&k));
        }
    }

    #[test]
    fn absent_keys_return_none() {
        let (mut dev, _a, sst, _t) = build(50);
        let mut trace = Vec::new();
        assert_eq!(
            sst_get(&mut dev, geom(), &sst, b"aaa", &mut trace).unwrap(),
            None
        );
        assert_eq!(
            sst_get(&mut dev, geom(), &sst, b"zzz", &mut trace).unwrap(),
            None
        );
        assert_eq!(
            sst_get(&mut dev, geom(), &sst, b"key000000x", &mut trace).unwrap(),
            None
        );
    }

    #[test]
    fn scan_returns_all_in_order() {
        let (mut dev, _a, sst, _t) = build(300);
        let mut trace = Vec::new();
        let mut data = Frame::new();
        read_data(&mut dev, geom(), &sst, &mut trace, &mut data).unwrap();
        let all: Vec<_> = Records::new(&data)
            .map(|(k, v)| (k.to_vec(), v.map(|v| v.as_piece().as_bytes().to_vec())))
            .collect();
        assert_eq!(all, records(300));
    }

    #[test]
    fn a_reused_buffer_holds_exactly_the_last_file_read() {
        let mut dev = MemDisk::new(1 << 22);
        let mut alloc = SegAlloc::new(1 << 10);
        let mut trace = Vec::new();
        let mut file = |n: u64, id| {
            writer(n)
                .finish(
                    &mut dev,
                    &mut alloc,
                    geom(),
                    id,
                    IoCategory::Compaction,
                    &mut trace,
                )
                .unwrap()
        };
        let (long, short) = (file(300, 1), file(20, 2));
        let mut buf = Frame::new();
        for (sst, n) in [(&long, 300), (&short, 20), (&long, 300)] {
            read_data(&mut dev, geom(), sst, &mut trace, &mut buf).unwrap();
            let all: Vec<_> = Records::new(&buf)
                .map(|(k, v)| (k.to_vec(), v.map(|v| v.as_piece().as_bytes().to_vec())))
                .collect();
            assert_eq!(all, records(n), "file {}", sst.id);
        }
    }

    #[test]
    fn writer_is_reusable_and_builds_identical_files() {
        let mut dev = MemDisk::new(1 << 22);
        let mut alloc = SegAlloc::new(1 << 10);
        let mut trace = Vec::new();
        let mut w = writer(150);
        let mut build = |w: &mut SstWriter, id| {
            w.finish(
                &mut dev,
                &mut alloc,
                geom(),
                id,
                IoCategory::Compaction,
                &mut trace,
            )
            .unwrap()
        };
        let first = build(&mut w, 1);
        assert!(w.is_empty());
        for (k, v) in records(150) {
            w.add(&k, v.as_deref().map(NvmPiece::Bytes));
        }
        let second = build(&mut w, 2);
        assert_eq!(first.len, second.len);
        assert_eq!(first.index, second.index);
        assert_eq!(first.bloom, second.bloom);
        assert_eq!(
            (first.min_key, first.max_key),
            (second.min_key, second.max_key)
        );
    }

    #[test]
    fn index_reload_matches_built_index() {
        let (mut dev, _a, sst, _t) = build(120);
        let mut reloaded = Sst {
            index: Vec::new(),
            entries: 0,
            ..sst.clone()
        };
        load_index(&mut dev, geom(), &mut reloaded).unwrap();
        assert_eq!(reloaded.index, sst.index);
        assert_eq!(reloaded.entries, sst.entries);
    }

    #[test]
    fn corrupt_footer_detected() {
        let (mut dev, _a, sst, _t) = build(10);
        // Smash the last byte (magic).
        let geom = geom();
        let dev_off = geom.device_offset(&sst.segments, sst.len - 1);
        dev.write_at(dev_off, &[0x00]).unwrap();
        let mut reloaded = Sst {
            index: Vec::new(),
            ..sst
        };
        assert!(matches!(
            load_index(&mut dev, geom, &mut reloaded),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn trace_reports_segment_sized_writes() {
        let (_dev, _a, sst, trace) = build(400);
        let written: u64 = trace
            .iter()
            .filter(|t| matches!(t.kind, TraceKind::Write))
            .map(|t| t.bytes)
            .sum();
        assert_eq!(written, sst.len);
        assert!(trace.iter().all(|t| t.bytes <= 4096));
    }

    #[test]
    fn allocation_failure_releases_segments() {
        let mut dev = MemDisk::new(1 << 20);
        let mut alloc = SegAlloc::new(2); // deliberately too small
        let mut trace = Vec::new();
        let mut w = writer(2000);
        let err = w.finish(
            &mut dev,
            &mut alloc,
            geom(),
            1,
            IoCategory::MemtableFlush,
            &mut trace,
        );
        assert_eq!(err.err(), Some(StoreError::NoSpace));
        assert!(w.is_empty(), "a failed finish still resets the writer");
        assert_eq!(
            alloc.free_segments(),
            2,
            "partial allocation must roll back"
        );
    }

    #[test]
    fn overlap_predicates() {
        let (_d, _a, sst, _t) = build(10);
        assert!(sst.overlaps(b"key000003", b"key000005"));
        assert!(sst.overlaps(b"a", b"z"));
        assert!(!sst.overlaps(b"z", b"zz"));
        assert!(sst.covers(b"key000000"));
        assert!(!sst.covers(b"zzz"));
    }
}
