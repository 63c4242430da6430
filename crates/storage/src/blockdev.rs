//! Byte-addressable block devices with traffic accounting.
//!
//! Object stores in this workspace run on raw devices (no local file system),
//! exactly as the paper's CPU-efficient object store and BlueStore do. The
//! [`BlockDevice`] trait is the minimal raw-device contract; [`MemDisk`] is
//! the standard in-memory implementation whose byte counters feed the
//! host-side write-amplification measurements (Table I / Fig. 8).

use crate::error::StoreError;
use crate::fxhash::FxHashMap;
use crate::payload::{Payload, Segments};

/// Granularity at which [`MemDisk`] keeps payload writes by reference.
const SHARE_BYTES: u64 = 4096;

/// Counters of traffic through a device since the last reset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DevCounters {
    /// Number of read calls.
    pub reads: u64,
    /// Number of write calls.
    pub writes: u64,
    /// Number of flush calls.
    pub flushes: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
}

/// A raw, byte-addressable storage device.
///
/// Offsets and lengths are bytes; implementations may internally align to
/// sectors but the contract is byte-granular for simplicity.
pub trait BlockDevice {
    /// Total capacity in bytes.
    fn capacity(&self) -> u64;

    /// Reads `buf.len()` bytes starting at `offset` into `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::OutOfBounds`] if the range exceeds capacity.
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), StoreError>;

    /// Reads `len` bytes starting at `offset`: the same bytes and the same
    /// [`DevCounters`] as [`BlockDevice::read_at`] into a fresh buffer. A
    /// device that holds the range as an (immutable, refcounted) buffer may
    /// return that buffer instead of a copy; later writes never change it.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::OutOfBounds`] if the range exceeds capacity.
    fn read_payload_at(&mut self, offset: u64, len: usize) -> Result<Payload, StoreError> {
        Payload::build(len, |buf| self.read_at(offset, buf))
    }

    /// Writes `data` starting at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::OutOfBounds`] if the range exceeds capacity.
    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<(), StoreError>;

    /// Writes the bytes of `data`, which may sit in several buffers,
    /// starting at `offset`, as *one* write: the same result and the same
    /// [`DevCounters`] as [`BlockDevice::write_at`] of their concatenation.
    /// A device may keep the (immutable, refcounted) buffers instead of
    /// copying them.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::OutOfBounds`] if the range exceeds capacity.
    fn write_segments_at(&mut self, offset: u64, data: &Segments) -> Result<(), StoreError> {
        self.write_at(offset, &data.clone().into_payload())
    }

    /// Durably persists all completed writes.
    ///
    /// # Errors
    ///
    /// Implementations that can fail mid-flush report [`StoreError::Corrupt`].
    fn flush(&mut self) -> Result<(), StoreError>;

    /// Traffic counters since the last [`BlockDevice::reset_counters`].
    fn counters(&self) -> DevCounters;

    /// Zeroes the traffic counters (e.g. after workload warm-up).
    fn reset_counters(&mut self);
}

/// An in-memory block device.
///
/// Bytes live in a flat image, except that whole 4 KiB-aligned blocks
/// written through [`BlockDevice::write_segments_at`] are kept as [`Payload`]
/// slices in a sparse overlay that shadows the image: the client's buffer is
/// neither copied nor are the image's (lazily zeroed) pages touched. A byte
/// write that overlaps a shared block takes it back first (copy-on-write), so
/// a reader cannot tell which side holds a block. A shared block keeps its
/// whole backing buffer alive until it is overwritten.
///
/// The device also knows which blocks no write has ever touched. A fresh
/// image is mostly such blocks, and they are read without touching the
/// image's pages: a byte read fills zeros, and a payload read of one whole
/// block returns the device's one [`Payload::zeros`] block, which says it is
/// zero to everyone who holds it.
///
/// ```
/// use rablock_storage::{BlockDevice, MemDisk};
/// # fn main() -> Result<(), rablock_storage::StoreError> {
/// let mut disk = MemDisk::new(1 << 20);
/// disk.write_at(4096, b"hello")?;
/// let mut buf = [0u8; 5];
/// disk.read_at(4096, &mut buf)?;
/// assert_eq!(&buf, b"hello");
/// assert_eq!(disk.counters().bytes_written, 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MemDisk {
    data: Vec<u8>,
    /// Blocks held by reference, keyed by block number; each value is
    /// exactly [`SHARE_BYTES`] long and shadows `data` over its block.
    shared: FxHashMap<u64, Payload>,
    /// One bit per [`SHARE_BYTES`] block, set by the first write that
    /// touches the block and never cleared: a clear bit means the block is
    /// in neither `shared` nor a page of `data` anyone wrote, so it is zero.
    written: Vec<u64>,
    /// What a payload read of a never-written block returns, made by the
    /// first such read.
    zero: Option<Payload>,
    counters: DevCounters,
}

impl MemDisk {
    /// Creates a zero-filled device of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        MemDisk {
            data: vec![0; capacity as usize],
            shared: FxHashMap::default(),
            written: vec![0; capacity.div_ceil(SHARE_BYTES).div_ceil(64) as usize],
            zero: None,
            counters: DevCounters::default(),
        }
    }

    fn is_written(&self, block: u64) -> bool {
        self.written[(block / 64) as usize] >> (block % 64) & 1 == 1
    }

    /// Marks every block `[offset, offset + len)` overlaps as written.
    fn mark_written(&mut self, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        for block in offset / SHARE_BYTES..(offset + len).div_ceil(SHARE_BYTES) {
            self.written[(block / 64) as usize] |= 1 << (block % 64);
        }
    }

    /// Block `block` as a buffer the device already holds, if it does: the
    /// view a by-reference write left there, or the zero block for a block
    /// no write has touched.
    fn held_block(&mut self, block: u64) -> Option<Payload> {
        if let Some(held) = self.shared.get(&block) {
            return Some(held.clone());
        }
        if self.is_written(block) {
            return None;
        }
        let zero = self
            .zero
            .get_or_insert_with(|| Payload::zeros(SHARE_BYTES as usize));
        Some(zero.clone())
    }

    fn check(&self, offset: u64, len: u64) -> Result<(), StoreError> {
        if offset
            .checked_add(len)
            .is_none_or(|end| end > self.data.len() as u64)
        {
            return Err(StoreError::OutOfBounds {
                offset,
                len,
                capacity: self.data.len() as u64,
            });
        }
        Ok(())
    }

    /// Copies the (bounds-checked) range at `offset` into `buf` from
    /// whichever side holds each block; a never-written block is zeros
    /// without a look at its pages.
    fn copy_out(&self, offset: u64, buf: &mut [u8]) {
        let start = offset as usize;
        let mut blocks = offset / SHARE_BYTES..(offset + buf.len() as u64).div_ceil(SHARE_BYTES);
        if self.shared.is_empty() && blocks.all(|block| self.is_written(block)) {
            buf.copy_from_slice(&self.data[start..start + buf.len()]);
            return;
        }
        let mut done = 0;
        for (block, within) in block_spans(offset, buf.len()) {
            let dst = &mut buf[done..done + within.len()];
            done += within.len();
            if !self.is_written(block) {
                dst.fill(0);
            } else if let Some(held) = self.shared.get(&block) {
                dst.copy_from_slice(&held[within]);
            } else {
                let at = (block * SHARE_BYTES) as usize;
                dst.copy_from_slice(&self.data[at + within.start..at + within.end]);
            }
        }
    }
}

/// Splits `[offset, offset + len)` at block boundaries into
/// `(block number, byte range within that block)`.
fn block_spans(offset: u64, len: usize) -> impl Iterator<Item = (u64, std::ops::Range<usize>)> {
    let end = offset + len as u64;
    (offset / SHARE_BYTES..end.div_ceil(SHARE_BYTES)).map(move |block| {
        let base = block * SHARE_BYTES;
        let from = offset.max(base) - base;
        let to = end.min(base + SHARE_BYTES) - base;
        (block, from as usize..to as usize)
    })
}

impl BlockDevice for MemDisk {
    fn capacity(&self) -> u64 {
        self.data.len() as u64
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), StoreError> {
        self.check(offset, buf.len() as u64)?;
        self.copy_out(offset, buf);
        self.counters.reads += 1;
        self.counters.bytes_read += buf.len() as u64;
        Ok(())
    }

    fn read_payload_at(&mut self, offset: u64, len: usize) -> Result<Payload, StoreError> {
        self.check(offset, len as u64)?;
        let one_block = len as u64 == SHARE_BYTES && offset.is_multiple_of(SHARE_BYTES);
        let held = one_block
            .then(|| self.held_block(offset / SHARE_BYTES))
            .flatten();
        let out = match held {
            Some(held) => held,
            None => Payload::build(len, |buf| {
                self.copy_out(offset, buf);
                Ok::<_, StoreError>(())
            })?,
        };
        self.counters.reads += 1;
        self.counters.bytes_read += len as u64;
        Ok(out)
    }
    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<(), StoreError> {
        self.check(offset, data.len() as u64)?;
        self.mark_written(offset, data.len() as u64);
        if !self.shared.is_empty() {
            // Copy-on-write: the image takes back every shared block this
            // write overlaps; one it covers only partly brings its bytes.
            for (block, within) in block_spans(offset, data.len()) {
                if let Some(held) = self.shared.remove(&block) {
                    if within.len() < SHARE_BYTES as usize {
                        let at = (block * SHARE_BYTES) as usize;
                        self.data[at..at + SHARE_BYTES as usize].copy_from_slice(&held);
                    }
                }
            }
        }
        let start = offset as usize;
        self.data[start..start + data.len()].copy_from_slice(data);
        self.counters.writes += 1;
        self.counters.bytes_written += data.len() as u64;
        Ok(())
    }

    fn write_segments_at(&mut self, offset: u64, data: &Segments) -> Result<(), StoreError> {
        let len = data.len() as u64;
        if !offset.is_multiple_of(SHARE_BYTES) || !len.is_multiple_of(SHARE_BYTES) {
            return self.write_at(offset, &data.clone().into_payload());
        }
        self.check(offset, len)?;
        self.mark_written(offset, len);
        // A chunk that lies in one view is kept as that view; one that
        // straddles two is the one copy an odd segmentation costs.
        for (number, block) in (offset / SHARE_BYTES..).zip(data.chunks(SHARE_BYTES as usize)) {
            self.shared.insert(number, block);
        }
        self.counters.writes += 1;
        self.counters.bytes_written += len;
        Ok(())
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        self.counters.flushes += 1;
        Ok(())
    }

    fn counters(&self) -> DevCounters {
        self.counters
    }

    fn reset_counters(&mut self) {
        self.counters = DevCounters::default();
    }
}

impl<D: BlockDevice + ?Sized> BlockDevice for Box<D> {
    fn capacity(&self) -> u64 {
        (**self).capacity()
    }
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), StoreError> {
        (**self).read_at(offset, buf)
    }
    fn read_payload_at(&mut self, offset: u64, len: usize) -> Result<Payload, StoreError> {
        (**self).read_payload_at(offset, len)
    }
    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<(), StoreError> {
        (**self).write_at(offset, data)
    }
    fn write_segments_at(&mut self, offset: u64, data: &Segments) -> Result<(), StoreError> {
        (**self).write_segments_at(offset, data)
    }
    fn flush(&mut self) -> Result<(), StoreError> {
        (**self).flush()
    }
    fn counters(&self) -> DevCounters {
        (**self).counters()
    }
    fn reset_counters(&mut self) {
        (**self).reset_counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trips_at_boundaries() {
        let mut d = MemDisk::new(100);
        d.write_at(95, b"12345").unwrap();
        let mut buf = [0u8; 5];
        d.read_at(95, &mut buf).unwrap();
        assert_eq!(&buf, b"12345");
    }

    #[test]
    fn rejects_out_of_bounds() {
        let mut d = MemDisk::new(100);
        assert!(matches!(
            d.write_at(96, b"12345"),
            Err(StoreError::OutOfBounds { .. })
        ));
        let mut buf = [0u8; 5];
        assert!(d.read_at(u64::MAX, &mut buf).is_err());
    }

    #[test]
    fn counters_track_traffic_and_reset() {
        let mut d = MemDisk::new(100);
        d.write_at(0, &[1, 2, 3]).unwrap();
        let mut buf = [0u8; 2];
        d.read_at(0, &mut buf).unwrap();
        d.flush().unwrap();
        assert_eq!(
            d.counters(),
            DevCounters {
                reads: 1,
                writes: 1,
                flushes: 1,
                bytes_read: 2,
                bytes_written: 3
            }
        );
        d.reset_counters();
        assert_eq!(d.counters(), DevCounters::default());
    }

    #[test]
    fn fresh_device_reads_zeroes() {
        let mut d = MemDisk::new(16);
        let mut buf = [0xFFu8; 16];
        d.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn boxed_device_delegates() {
        let mut d: Box<dyn BlockDevice> = Box::new(MemDisk::new(32));
        d.write_at(0, b"x").unwrap();
        assert_eq!(d.counters().writes, 1);
        assert_eq!(d.capacity(), 32);
    }

    #[test]
    fn aligned_payload_write_is_kept_by_reference() {
        let mut d: Box<MemDisk> = Box::new(MemDisk::new(64 << 10));
        let backing: Payload = (0..3 * 4096)
            .map(|i| (i / 7) as u8)
            .collect::<Vec<_>>()
            .into();
        d.write_segments_at(8192, &backing.slice(4096, 8192).into())
            .unwrap();
        assert_eq!(
            d.shared.len(),
            2,
            "through the Box, not the copying default"
        );
        assert!(std::ptr::eq(
            d.shared[&2].as_slice().as_ptr(),
            backing[4096..].as_ptr()
        ));
        let mut buf = vec![0u8; 8192 + 200];
        d.read_at(8192 - 100, &mut buf).unwrap();
        assert_eq!(&buf[..100], &[0u8; 100]);
        assert_eq!(&buf[100..8292], &backing[4096..]);
        assert_eq!(d.counters().bytes_written, 8192);
        // A byte write into a shared block takes the block back, merged.
        d.write_at(8192 + 10, b"xyz").unwrap();
        assert_eq!(d.shared.len(), 1);
        d.read_at(8192, &mut buf[..4096]).unwrap();
        assert_eq!(&buf[..10], &backing[4096..4106]);
        assert_eq!(&buf[10..13], b"xyz");
        assert_eq!(&buf[13..4096], &backing[4109..8192]);
        // Unaligned payload writes are plain byte writes.
        d.write_segments_at(100, &backing.slice(0, 4096).into())
            .unwrap();
        assert_eq!(d.shared.len(), 1);
    }

    #[test]
    fn vectored_write_is_one_write_and_keeps_every_view() {
        let mut d: Box<MemDisk> = Box::new(MemDisk::new(64 << 10));
        let block = |fill: u8| Payload::from(vec![fill; 3 * 4096]).slice(4096, 4096);
        let (a, b) = (block(1), block(2));
        let mut object = Segments::from(a.clone());
        object.push(b.clone());
        object.push_zeros(4096);
        d.write_segments_at(8192, &object).unwrap();
        assert_eq!(d.shared.len(), 3, "through the Box, not the default");
        assert!(std::ptr::eq(d.shared[&2].as_ptr(), a.as_ptr()));
        assert!(std::ptr::eq(d.shared[&3].as_ptr(), b.as_ptr()));
        assert_eq!(
            (d.counters().writes, d.counters().bytes_written),
            (1, 12288)
        );
        let back = d.read_payload_at(8192, 12288).unwrap();
        assert!(object == back);
        // Views that do not line up with blocks are cut (one copy per block
        // that straddles two); an unaligned target is one byte write.
        d.write_segments_at(4096, &object.slice(100, 8192)).unwrap();
        assert_eq!(d.shared.len(), 4);
        d.write_segments_at(100, &object).unwrap();
        assert_eq!(
            d.shared.len(),
            1,
            "blocks 1..=3 taken back by the byte write"
        );
        assert_eq!(d.counters().writes, 3);
        let mut image = vec![0u8; 100 + 12288];
        d.read_at(0, &mut image).unwrap();
        assert!(object == image[100..]);
        assert!(matches!(
            d.write_segments_at(60 << 10, &object),
            Err(StoreError::OutOfBounds { .. })
        ));
        // A device without an override sees one write of the same bytes.
        struct Plain(MemDisk);
        impl BlockDevice for Plain {
            fn capacity(&self) -> u64 {
                self.0.capacity()
            }
            fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), StoreError> {
                self.0.read_at(offset, buf)
            }
            fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<(), StoreError> {
                self.0.write_at(offset, data)
            }
            fn flush(&mut self) -> Result<(), StoreError> {
                self.0.flush()
            }
            fn counters(&self) -> DevCounters {
                self.0.counters()
            }
            fn reset_counters(&mut self) {
                self.0.reset_counters()
            }
        }
        let mut plain = Plain(MemDisk::new(64 << 10));
        plain.write_segments_at(8192, &object).unwrap();
        assert_eq!(plain.counters().writes, 1);
        assert!(object == plain.read_payload_at(8192, 12288).unwrap());
    }

    #[test]
    fn payload_read_returns_the_held_block_and_never_sees_later_writes() {
        let mut d: Box<MemDisk> = Box::new(MemDisk::new(64 << 10));
        let backing: Payload = (0..2 * 4096)
            .map(|i| (i / 5) as u8)
            .collect::<Vec<_>>()
            .into();
        d.write_segments_at(4096, &backing.clone().into()).unwrap();
        let before = d.counters();
        let held = d.read_payload_at(8192, 4096).unwrap();
        assert!(
            std::ptr::eq(held.as_ptr(), backing[4096..].as_ptr()),
            "through the Box, the client's own buffer"
        );
        let image = d.read_payload_at(0, 4096).unwrap();
        assert!(image.is_zeros(), "a never-written block is the zero view");
        let mixed = d.read_payload_at(4000, 5000).unwrap();
        assert_eq!(&mixed[..96], &[0u8; 96]);
        assert_eq!(&mixed[96..4192], &backing[..4096]);
        assert_eq!(&mixed[4192..], &backing[4096..4096 + 808]);
        assert!(d.read_payload_at(8192, 0).unwrap().is_empty());
        assert!(matches!(
            d.read_payload_at((64 << 10) - 10, 11),
            Err(StoreError::OutOfBounds { .. })
        ));
        let after = d.counters();
        assert_eq!(after.reads, before.reads + 4);
        assert_eq!(after.bytes_read, before.bytes_read + 4096 + 4096 + 5000);
        // Rot (a byte write), an overwrite and a diverging clone.
        let mut fork = d.clone();
        d.write_at(8192 + 7, &[0xFF]).unwrap();
        d.write_at(0, &[1; 4096]).unwrap();
        fork.write_segments_at(8192, &Payload::from(vec![9u8; 4096]).into())
            .unwrap();
        assert_eq!(held, backing[4096..].to_vec());
        assert_eq!(image, vec![0u8; 4096]);
        assert!(!d.read_payload_at(0, 4096).unwrap().is_zeros());
        assert!(fork.read_payload_at(0, 4096).unwrap().is_zeros());
        assert_eq!(d.read_payload_at(8192, 4096).unwrap()[7], 0xFF);
        assert_eq!(fork.read_payload_at(8192, 4096).unwrap(), vec![9u8; 4096]);
        assert_eq!(held.crc32(), crate::crc::crc32(&backing[4096..]));
    }

    const MODEL_BYTES: usize = 8 * 4096 + 100;

    #[derive(Debug, Clone)]
    struct Step {
        /// Which of the two copies (after the fork) the step acts on.
        on_fork: bool,
        shared: bool,
        offset: u64,
        len: usize,
        /// Bytes of the backing buffer before the written view.
        lead: usize,
        fill: u8,
        read: (u64, usize),
    }

    fn a_range() -> impl Strategy<Value = (u64, usize)> {
        (
            prop_oneof![
                (0..10u64).prop_map(|b| b * 4096),
                0..MODEL_BYTES as u64 + 50
            ],
            prop_oneof![(0..4usize).prop_map(|b| b * 4096), 0..10_000usize],
        )
    }

    fn steps() -> impl Strategy<Value = Vec<Step>> {
        let step = (
            any::<bool>(),
            any::<bool>(),
            a_range(),
            prop_oneof![Just(0), 1..5000usize],
            any::<u8>(),
            a_range(),
        )
            .prop_map(|(on_fork, shared, (offset, len), lead, fill, read)| Step {
                on_fork,
                shared,
                offset,
                len,
                lead,
                fill,
                read,
            });
        proptest::collection::vec(step, 1..60)
    }

    struct Pair {
        disk: MemDisk,
        model: Vec<u8>,
        /// Per block: has a write ever touched it?
        written: Vec<bool>,
        counters: DevCounters,
        /// Every payload a read returned, with its bytes at that time.
        handed_out: Vec<(Payload, Vec<u8>)>,
    }

    impl Pair {
        fn in_bounds(offset: u64, len: usize) -> bool {
            offset + len as u64 <= MODEL_BYTES as u64
        }

        fn apply(&mut self, step: &Step) {
            let backing: Payload = (0..step.lead + step.len + 3)
                .map(|i| (i as u8).wrapping_mul(31).wrapping_add(step.fill))
                .collect::<Vec<_>>()
                .into();
            let view = backing.slice(step.lead, step.len);
            let got = if step.shared {
                // In pieces: whole blocks, odd sizes, or (`cut` past the
                // end) the one-view case.
                let cut = [4096, 1 + step.lead % 3000, 8192, usize::MAX][step.fill as usize % 4];
                let mut pieces = Segments::new();
                for at in (0..step.len).step_by(cut.min(step.len.max(1))) {
                    pieces.push(view.slice(at, cut.min(step.len - at)));
                }
                self.disk.write_segments_at(step.offset, &pieces)
            } else {
                self.disk.write_at(step.offset, &view)
            };
            assert_eq!(got.is_ok(), Self::in_bounds(step.offset, step.len));
            if got.is_ok() {
                let at = step.offset as usize;
                self.model[at..at + step.len].copy_from_slice(&view);
                if step.len > 0 {
                    self.written[at / 4096..(at + step.len).div_ceil(4096)].fill(true);
                }
                self.counters.writes += 1;
                self.counters.bytes_written += step.len as u64;
            }
            let (offset, len) = step.read;
            let mut buf = vec![0xEE; len];
            let got = self.disk.read_at(offset, &mut buf);
            assert_eq!(got.is_ok(), Self::in_bounds(offset, len));
            if got.is_ok() {
                assert_eq!(buf, self.model[offset as usize..offset as usize + len]);
                self.counters.reads += 1;
                self.counters.bytes_read += len as u64;
            }
            // The same range again, as a payload.
            let one_block = len == 4096 && offset % 4096 == 0;
            let held = one_block
                .then(|| self.disk.shared.get(&(offset / 4096)).cloned())
                .flatten();
            let got = self.disk.read_payload_at(offset, len);
            assert_eq!(got.is_ok(), Self::in_bounds(offset, len));
            if let Ok(got) = got {
                assert_eq!(
                    got,
                    self.model[offset as usize..offset as usize + len].to_vec()
                );
                if let Some(held) = held {
                    assert!(std::ptr::eq(got.as_ptr(), held.as_ptr()), "the held block");
                }
                let never_written = one_block && !self.written[offset as usize / 4096];
                assert_eq!(got.is_zeros(), never_written);
                if never_written {
                    let zero = self.disk.zero.as_ref().expect("made by this read");
                    assert!(std::ptr::eq(got.as_ptr(), zero.as_ptr()), "the zero view");
                }
                self.counters.reads += 1;
                self.counters.bytes_read += len as u64;
                self.handed_out.push((got.clone(), got.to_vec()));
            }
            assert_eq!(self.disk.counters(), self.counters);
        }

        fn check_image(&mut self) {
            let mut image = vec![0u8; MODEL_BYTES];
            self.disk.read_at(0, &mut image).unwrap();
            assert!(image == self.model, "device image differs from the model");
            let whole = self.disk.read_payload_at(0, MODEL_BYTES).unwrap();
            assert!(
                whole == self.model,
                "assembled image differs from the model"
            );
            // What a read handed out is a snapshot: overwrites, byte writes
            // into a shared block and a diverging clone never reach it.
            for (payload, then) in &self.handed_out {
                assert!(
                    payload == then,
                    "a returned payload changed under its reader"
                );
            }
        }
    }

    proptest! {
        /// Byte writes and by-reference writes (of one view or of several),
        /// aligned or not, leave a device no reader — by bytes or by payload
        /// — can tell from a flat byte array, with one counted write each —
        /// also after `clone()`, when the two copies share blocks and then
        /// diverge. A whole never-written block, and only that, reads as the
        /// device's zero view; each copy keeps its own record of what was
        /// written.
        #[test]
        fn matches_flat_byte_array(before in steps(), after in steps()) {
            let mut a = Pair {
                disk: MemDisk::new(MODEL_BYTES as u64),
                model: vec![0; MODEL_BYTES],
                written: vec![false; MODEL_BYTES.div_ceil(4096)],
                counters: DevCounters::default(),
                handed_out: Vec::new(),
            };
            for step in &before {
                a.apply(step);
            }
            let mut b = Pair {
                disk: a.disk.clone(),
                model: a.model.clone(),
                written: a.written.clone(),
                counters: a.counters,
                handed_out: a.handed_out.clone(),
            };
            for step in &after {
                if step.on_fork { b.apply(step) } else { a.apply(step) }
            }
            a.check_image();
            b.check_image();
        }
    }
}
