//! Byte-addressable block devices with traffic accounting.
//!
//! Object stores in this workspace run on raw devices (no local file system),
//! exactly as the paper's CPU-efficient object store and BlueStore do. The
//! [`BlockDevice`] trait is the minimal raw-device contract; [`MemDisk`] is
//! the standard in-memory implementation whose byte counters feed the
//! host-side write-amplification measurements (Table I / Fig. 8).

use crate::error::StoreError;
use crate::frame::{Frame, NvmPiece};
use crate::medium::{Medium, Whole};
use crate::payload::{zero_block, Payload, Segments};

/// The block a payload read of never-written bytes answers with the shared
/// zero view, and the granularity [`MemDisk::write_segments_at`] keeps
/// aligned views at.
const BLOCK_BYTES: u64 = 4096;

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

    /// Writes the stream of `frame` starting at `offset`, as *one* write:
    /// the same result and the same [`DevCounters`] as
    /// [`BlockDevice::write_at`] of [`Frame::to_vec`]. A device may keep the
    /// frame's held payloads by reference instead of copying them; this
    /// default flattens the frame.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::OutOfBounds`] if the range exceeds capacity.
    fn write_frame(&mut self, offset: u64, frame: &Frame) -> Result<(), StoreError> {
        self.write_at(offset, &frame.to_vec())
    }

    /// Reads `len` bytes starting at `offset` and appends them to `out`: the
    /// same bytes and the same [`DevCounters`] as [`BlockDevice::read_at`].
    /// A device that holds parts of the range as (immutable, refcounted)
    /// buffers may append those as held views instead of copying them;
    /// this default copies everything.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::OutOfBounds`] if the range exceeds capacity.
    fn read_frame(&mut self, offset: u64, len: usize, out: &mut Frame) -> Result<(), StoreError> {
        let bytes = out.bytes_mut();
        let at = bytes.len();
        bytes.resize(at + len, 0);
        let got = self.read_at(offset, &mut bytes[at..]);
        if got.is_err() {
            bytes.truncate(at);
        }
        got
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
/// A face of the same sparse medium as [`NvmRegion`](crate::NvmRegion),
/// with [`DevCounters`] and no flat image: a device nobody wrote costs no
/// memory, whatever its capacity. A byte write keeps its bytes; a
/// [`write_segments_at`](BlockDevice::write_segments_at) or a
/// [`write_frame`](BlockDevice::write_frame) keeps the writer's
/// (immutable, refcounted) buffers by reference, at any offset, and a later
/// write over part of one leaves the rest of it held. A reader cannot tell
/// which side holds a byte, except that a payload read of exactly what one
/// buffer holds returns that buffer, and a frame read hands held views back
/// as views. A held buffer stays alive until all of it is overwritten.
///
/// A payload read of one whole 4 KiB block no write ever touched returns a
/// view of the one process-wide [`Payload::zeros`] block, which says it is
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
    medium: Medium,
    counters: DevCounters,
}

impl MemDisk {
    /// Creates a zero-filled device of `capacity` bytes. Nothing is
    /// allocated until something is written.
    pub fn new(capacity: u64) -> Self {
        MemDisk {
            medium: Medium::new(capacity),
            counters: DevCounters::default(),
        }
    }

    /// Bytes in buffers the device owns: what byte writes stored and still
    /// stands, not the buffers it holds by reference. (For tests of what is
    /// built on the device.)
    #[doc(hidden)]
    pub fn resident_bytes(&self) -> u64 {
        self.medium.resident_bytes()
    }

    /// Makes the contents those of `other`, keeping the counters (a crash
    /// restores the media, not the traffic statistics).
    pub(crate) fn restore_from(&mut self, other: &MemDisk) {
        self.medium = other.medium.clone();
    }

    fn check(&self, offset: u64, len: u64) -> Result<(), StoreError> {
        if !self.medium.fits(offset, len) {
            return Err(StoreError::OutOfBounds {
                offset,
                len,
                capacity: self.medium.capacity(),
            });
        }
        Ok(())
    }

    fn count_write(&mut self, len: u64) {
        self.counters.writes += 1;
        self.counters.bytes_written += len;
    }

    fn count_read(&mut self, len: u64) {
        self.counters.reads += 1;
        self.counters.bytes_read += len;
    }
}

impl BlockDevice for MemDisk {
    fn capacity(&self) -> u64 {
        self.medium.capacity()
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), StoreError> {
        self.check(offset, buf.len() as u64)?;
        self.medium.read_into(offset, buf);
        self.count_read(buf.len() as u64);
        Ok(())
    }

    fn read_payload_at(&mut self, offset: u64, len: usize) -> Result<Payload, StoreError> {
        self.check(offset, len as u64)?;
        self.count_read(len as u64);
        if len == 0 {
            return Ok(Payload::empty());
        }
        match self.medium.whole(offset, len as u64) {
            Whole::Held(view) => Ok(view),
            Whole::Nothing if len as u64 == BLOCK_BYTES && offset.is_multiple_of(BLOCK_BYTES) => {
                Ok(zero_block().clone())
            }
            Whole::Nothing | Whole::Mixed => Payload::build(len, |buf| {
                self.medium.read_into(offset, buf);
                Ok(())
            }),
        }
    }

    fn read_frame(&mut self, offset: u64, len: usize, out: &mut Frame) -> Result<(), StoreError> {
        self.check(offset, len as u64)?;
        self.count_read(len as u64);
        self.medium.read_frame(offset, len as u64, out);
        Ok(())
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<(), StoreError> {
        self.check(offset, data.len() as u64)?;
        self.medium.write_bytes(offset, data);
        self.count_write(data.len() as u64);
        Ok(())
    }

    fn write_segments_at(&mut self, offset: u64, data: &Segments) -> Result<(), StoreError> {
        let len = data.len() as u64;
        self.check(offset, len)?;
        if offset.is_multiple_of(BLOCK_BYTES) && len.is_multiple_of(BLOCK_BYTES) {
            // Block by block: a block that lies in one view is kept as that
            // view; one that straddles two is the one copy an odd
            // segmentation costs, so that a block read is one buffer.
            for (at, block) in (offset..)
                .step_by(BLOCK_BYTES as usize)
                .zip(data.chunks(BLOCK_BYTES as usize))
            {
                self.medium.write_held(at, block);
            }
        } else {
            let views = data.iter().map(NvmPiece::Held);
            self.medium.write(offset, len, views);
        }
        self.count_write(len);
        Ok(())
    }

    fn write_frame(&mut self, offset: u64, frame: &Frame) -> Result<(), StoreError> {
        self.check(offset, frame.len())?;
        self.medium.write(offset, frame.len(), frame.pieces());
        self.count_write(frame.len());
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
    fn write_frame(&mut self, offset: u64, frame: &Frame) -> Result<(), StoreError> {
        (**self).write_frame(offset, frame)
    }
    fn read_frame(&mut self, offset: u64, len: usize, out: &mut Frame) -> Result<(), StoreError> {
        (**self).read_frame(offset, len, out)
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
impl MemDisk {
    pub(crate) fn medium(&self) -> &Medium {
        &self.medium
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

    /// A payload read of one block, and the address of its first byte.
    fn block_at(d: &mut MemDisk, offset: u64) -> (Payload, *const u8) {
        let block = d.read_payload_at(offset, 4096).unwrap();
        let at = block.as_ptr();
        (block, at)
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
            d.medium.extents(),
            [(8192, 4096, true), (12288, 4096, true)],
            "through the Box, not the copying default"
        );
        assert!(std::ptr::eq(
            block_at(&mut d, 8192).1,
            backing[4096..].as_ptr()
        ));
        let mut buf = vec![0u8; 8192 + 200];
        d.read_at(8192 - 100, &mut buf).unwrap();
        assert_eq!(&buf[..100], &[0u8; 100]);
        assert_eq!(&buf[100..8292], &backing[4096..]);
        assert_eq!(d.counters().bytes_written, 8192);
        // A byte write into a held block keeps the rest of it held.
        d.write_at(8192 + 10, b"xyz").unwrap();
        assert_eq!(
            d.medium.extents(),
            [
                (8192, 10, true),
                (8202, 3, false),
                (8205, 4083, true),
                (12288, 4096, true)
            ]
        );
        assert_eq!(d.resident_bytes(), 3);
        d.read_at(8192, &mut buf[..4096]).unwrap();
        assert_eq!(&buf[..10], &backing[4096..4106]);
        assert_eq!(&buf[10..13], b"xyz");
        assert_eq!(&buf[13..4096], &backing[4109..8192]);
        // Unaligned payload writes are kept by reference too.
        d.write_segments_at(100, &backing.slice(0, 4096).into())
            .unwrap();
        assert_eq!(d.resident_bytes(), 3);
        let back = d.read_payload_at(100, 4096).unwrap();
        assert!(std::ptr::eq(back.as_ptr(), backing.as_ptr()));
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
        assert_eq!(
            d.medium.extents().len(),
            3,
            "through the Box, not the default"
        );
        assert_eq!(d.resident_bytes(), 0);
        assert!(std::ptr::eq(block_at(&mut d, 8192).1, a.as_ptr()));
        assert!(std::ptr::eq(block_at(&mut d, 12288).1, b.as_ptr()));
        assert!(block_at(&mut d, 16384).0.is_zeros(), "the hole, held");
        assert_eq!(
            (d.counters().writes, d.counters().bytes_written),
            (1, 12288)
        );
        let back = d.read_payload_at(8192, 12288).unwrap();
        assert!(object == back);
        // Views that do not line up with blocks are cut (one copy per block
        // that straddles two); at an unaligned target every view is kept.
        d.write_segments_at(4096, &object.slice(100, 8192)).unwrap();
        assert_eq!(d.medium.extents().len(), 4);
        assert!(
            !std::ptr::eq(block_at(&mut d, 4096).1, a[100..].as_ptr()),
            "a copy"
        );
        assert!(
            !std::ptr::eq(block_at(&mut d, 8192).1, b[100..].as_ptr()),
            "a copy"
        );
        assert!(std::ptr::eq(block_at(&mut d, 12288).1, b.as_ptr()));
        d.write_segments_at(100, &object).unwrap();
        let views = d.medium.extents();
        assert!(views.iter().all(|&(_, _, held)| held));
        assert_eq!(d.counters().writes, 3);
        let mut image = vec![0u8; 100 + 12288];
        d.read_at(0, &mut image).unwrap();
        assert!(object == image[100..]);
        assert!(std::ptr::eq(
            d.read_payload_at(100, 4096).unwrap().as_ptr(),
            a.as_ptr()
        ));
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

    proptest! {
        /// The medium's one spec ([`crate::medium::spec`]), read through
        /// this face: byte reads, frame reads and payload reads, with
        /// [`DevCounters`].
        #[test]
        fn matches_flat_byte_array(
            before in crate::medium::spec::steps(),
            after in crate::medium::spec::steps(),
        ) {
            crate::medium::spec::run(MemDisk::new(crate::medium::spec::MODEL_BYTES as u64), &before, &after);
        }
    }
}
