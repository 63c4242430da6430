//! Byte-addressable non-volatile memory region.
//!
//! The paper logs incoming operations in NVM (Intel Optane or battery-backed
//! DRAM; the authors emulate it with an 8 GB ramdisk per node). [`NvmRegion`]
//! is that emulation one level down: a fixed-size, byte-addressable region
//! whose writes are durable the moment they complete (battery-backed
//! semantics), with traffic counters so NVM consumption can be reported. It
//! holds only what was written: a region nobody wrote costs no memory.

use crate::error::StoreError;
use crate::frame::Frame;
use crate::medium::Medium;

/// A byte-addressable persistent memory region.
///
/// Unlike a [`BlockDevice`](crate::BlockDevice), an `NvmRegion` has no flush
/// barrier: a completed store is durable (the paper's NVM is battery-backed
/// or Optane behind `clwb`; its ramdisk emulation makes the same assumption).
///
/// The region is a face of the same sparse medium as
/// [`MemDisk`](crate::MemDisk) and allocates nothing up front. A byte
/// [`write`](NvmRegion::write) is kept as bytes the region owns (rewriting
/// part of them, as a log rewrites its header, copies in place); a
/// [`write_frame`](NvmRegion::write_frame) keeps the frame's bytes the
/// same way and its held payloads as the (immutable, refcounted) buffers
/// themselves, uncopied. A range nobody wrote, or one
/// [released](NvmRegion::release), reads as zeros. A reader gets back the
/// kind of piece the writer handed in: a write over part of a held payload
/// leaves the rest of it held, and nothing written here ever reaches a
/// buffer the writer still holds. A held payload keeps its whole backing
/// buffer alive until all of it is overwritten or released.
///
/// ```
/// use rablock_storage::NvmRegion;
/// # fn main() -> Result<(), rablock_storage::StoreError> {
/// let mut nvm = NvmRegion::new(8 << 10);
/// nvm.write(128, b"op-log entry")?;
/// assert_eq!(nvm.read(128, 12)?, b"op-log entry");
/// assert_eq!(nvm.read(0, 4)?, [0; 4], "never written");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NvmRegion {
    medium: Medium,
    bytes_written: u64,
    bytes_read: u64,
}

impl NvmRegion {
    /// Creates a region of `capacity` bytes that reads as zeros. Nothing is
    /// allocated until something is written.
    pub fn new(capacity: u64) -> Self {
        NvmRegion {
            medium: Medium::new(capacity),
            bytes_written: 0,
            bytes_read: 0,
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.medium.capacity()
    }

    /// Bytes the region keeps, whether in buffers it owns or in payloads it
    /// holds by reference: what was written and still stands. Zero for a
    /// fresh region, whatever its capacity. (For tests of what is built on
    /// the region.)
    #[doc(hidden)]
    pub fn resident_bytes(&self) -> u64 {
        self.medium.stored_bytes()
    }

    fn check(&self, offset: u64, len: u64) -> Result<(), StoreError> {
        if !self.medium.fits(offset, len) {
            return Err(StoreError::OutOfBounds {
                offset,
                len,
                capacity: self.capacity(),
            });
        }
        Ok(())
    }

    /// Reads `len` bytes at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::OutOfBounds`] if the range exceeds capacity.
    pub fn read(&mut self, offset: u64, len: u64) -> Result<Vec<u8>, StoreError> {
        self.check(offset, len)?; // before sizing a buffer by `len`
        let mut out = vec![0; len as usize];
        self.read_into(offset, &mut out)?;
        Ok(out)
    }

    /// Reads into a caller-provided buffer (no allocation).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::OutOfBounds`] if the range exceeds capacity.
    pub fn read_into(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), StoreError> {
        self.check(offset, buf.len() as u64)?;
        self.bytes_read += buf.len() as u64;
        self.medium.read_into(offset, buf);
        Ok(())
    }

    /// Reads `len` bytes at `offset` and appends them to `out`: what byte
    /// writes stored, and zeros where nothing is, as bytes; what payloads
    /// a frame write stored as held views of the writer's buffers (uncopied
    /// — a reader that keeps one keeps that buffer, checksum memo
    /// included).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::OutOfBounds`] if the range exceeds capacity.
    pub fn read_frame(&mut self, offset: u64, len: u64, out: &mut Frame) -> Result<(), StoreError> {
        self.check(offset, len)?;
        self.bytes_read += len;
        self.medium.read_frame(offset, len, out);
        Ok(())
    }

    /// Durably writes `data` at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::OutOfBounds`] if the range exceeds capacity.
    pub fn write(&mut self, offset: u64, data: &[u8]) -> Result<(), StoreError> {
        self.check(offset, data.len() as u64)?;
        self.bytes_written += data.len() as u64;
        self.medium.write_bytes(offset, data);
        Ok(())
    }

    /// Durably writes the stream of `frame` at `offset`, as one write: the
    /// same result and the same counters as [`NvmRegion::write`] of
    /// [`Frame::to_vec`], but the frame's held payloads are kept by
    /// reference.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::OutOfBounds`] if the range exceeds capacity.
    pub fn write_frame(&mut self, offset: u64, frame: &Frame) -> Result<(), StoreError> {
        self.check(offset, frame.len())?;
        self.bytes_written += frame.len();
        self.medium.write(offset, frame.len(), frame.pieces());
        Ok(())
    }

    /// Declares `[offset, offset + len)` dead: it reads as zeros until
    /// written again, and what the region held for it is let go (its own
    /// buffers freed, the writers' unpinned); bytes outside the range are
    /// unaffected.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::OutOfBounds`] if the range exceeds capacity.
    pub fn release(&mut self, offset: u64, len: u64) -> Result<(), StoreError> {
        self.check(offset, len)?;
        if len > 0 {
            self.medium.release(offset, offset + len);
        }
        Ok(())
    }

    /// Total bytes written since creation.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Total bytes read since creation.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Simulates a node reboot: contents survive (non-volatile), counters
    /// reset.
    pub fn reboot(&mut self) {
        self.bytes_written = 0;
        self.bytes_read = 0;
    }
}

#[cfg(test)]
impl NvmRegion {
    pub(crate) fn medium(&self) -> &Medium {
        &self.medium
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::Run;
    use crate::payload::Payload;
    use proptest::prelude::*;

    /// A frame of one view, held: what a by-reference write of `payload`
    /// writes.
    fn one_view(payload: &Payload) -> Frame {
        let mut frame = Frame::new();
        frame.hold(payload.clone());
        frame
    }

    #[test]
    fn writes_are_immediately_readable() {
        let mut nvm = NvmRegion::new(1024);
        nvm.write(100, b"hello").unwrap();
        assert_eq!(nvm.read(100, 5).unwrap(), b"hello");
    }

    #[test]
    fn contents_survive_reboot_counters_do_not() {
        let mut nvm = NvmRegion::new(1024);
        nvm.write(0, b"persist").unwrap();
        nvm.write_frame(7, &one_view(&b"ed by reference".as_slice().into()))
            .unwrap();
        nvm.reboot();
        assert_eq!(nvm.read(0, 22).unwrap(), b"persisted by reference");
        assert_eq!(nvm.bytes_written(), 0);
        assert_eq!(nvm.bytes_read(), 22);
    }

    #[test]
    fn bounds_checked() {
        let mut nvm = NvmRegion::new(10);
        assert!(nvm.write(8, b"toolong").is_err());
        assert!(nvm
            .write_frame(8, &one_view(&b"toolong".as_slice().into()))
            .is_err());
        assert!(nvm.read(9, 2).is_err());
        assert!(nvm.read(u64::MAX, 1).is_err());
        assert!(nvm.read(0, u64::MAX).is_err(), "no buffer of that size");
        assert!(nvm.release(9, 2).is_err());
    }

    #[test]
    fn a_fresh_region_holds_nothing_and_reads_as_zeros() {
        let mut nvm = NvmRegion::new(64 << 20);
        assert_eq!(nvm.resident_bytes(), 0);
        assert_eq!(nvm.read((64 << 20) - 5000, 5000).unwrap(), vec![0; 5000]);
        nvm.write(1 << 20, b"12345678").unwrap();
        nvm.write_frame(2 << 20, &one_view(&vec![9; 4096].into()))
            .unwrap();
        assert_eq!(nvm.resident_bytes(), 8 + 4096);
        assert_eq!(nvm.medium.extents().len(), 2);
        nvm.release(1 << 20, 1 << 20).unwrap();
        nvm.release(2 << 20, 4096).unwrap();
        assert_eq!(nvm.resident_bytes(), 0);
        assert_eq!(nvm.medium.extents(), []);
        assert_eq!(nvm.read(1 << 20, 8).unwrap(), [0; 8], "released");
    }

    /// Where the first stored piece of `[offset, offset + len)` lies in
    /// memory: the region's own buffer, or the writer's.
    fn first_piece(nvm: &mut NvmRegion, offset: u64, len: u64) -> *const u8 {
        let mut first = None;
        nvm.medium.runs(offset, len, |run| {
            let at = match run {
                Run::Bytes(bytes) => bytes.as_ptr(),
                Run::Held(payload) => payload.as_ptr(),
                Run::Zeros(_) => std::ptr::null(),
            };
            first.get_or_insert(at);
        });
        first.expect("a non-empty range")
    }

    #[test]
    fn rewriting_part_of_a_byte_extent_is_in_place() {
        let mut nvm = NvmRegion::new(1 << 20);
        nvm.write(4096, &[1; 48]).unwrap();
        let buffer = first_piece(&mut nvm, 4096, 48);
        for (at, bytes) in [(4096, &[2; 48][..]), (4100, &[3; 4]), (4140, &[4; 4])] {
            nvm.write(at, bytes).unwrap();
            assert_eq!(nvm.medium.extents(), [(4096, 48, false)]);
            let now = first_piece(&mut nvm, 4096, 48);
            assert!(std::ptr::eq(now, buffer), "a new buffer at {at}");
        }
        assert_eq!(nvm.read(4096, 10).unwrap(), [2, 2, 2, 2, 3, 3, 3, 3, 2, 2]);
        assert_eq!(nvm.read(4138, 6).unwrap(), [2, 2, 4, 4, 4, 4]);
    }

    #[test]
    fn read_into_avoids_allocation() {
        let mut nvm = NvmRegion::new(64);
        nvm.write(10, &[7; 8]).unwrap();
        let mut buf = [0u8; 8];
        nvm.read_into(10, &mut buf).unwrap();
        assert_eq!(buf, [7; 8]);
    }

    #[test]
    fn payload_write_is_kept_by_reference_until_taken_back_or_released() {
        let mut nvm = NvmRegion::new(64 << 10);
        let backing: Payload = (0..3 * 4096)
            .map(|i| (i / 7) as u8)
            .collect::<Vec<_>>()
            .into();
        let view = backing.slice(100, 8000);
        nvm.write_frame(20_000, &one_view(&view)).unwrap();
        assert_eq!(nvm.medium.extents(), [(20_000, 8000, true)]);
        let held = first_piece(&mut nvm, 20_000, 8000);
        assert!(std::ptr::eq(held, backing[100..].as_ptr()));
        assert_eq!(nvm.bytes_written(), 8000);
        assert_eq!(
            nvm.read(19_990, 8020).unwrap()[10..8010],
            backing[100..8100]
        );
        // A byte write into the extent takes back what it covers and leaves
        // the rest held; the writer's buffer is untouched.
        nvm.write(20_010, b"xyz").unwrap();
        assert_eq!(
            nvm.medium.extents(),
            [(20_000, 10, true), (20_010, 3, false), (20_013, 7987, true)]
        );
        assert!(std::ptr::eq(
            first_piece(&mut nvm, 20_013, 10),
            backing[113..].as_ptr()
        ));
        let got = nvm.read(20_000, 8000).unwrap();
        assert_eq!(got[..10], backing[100..110]);
        assert_eq!(&got[10..13], b"xyz");
        assert_eq!(got[13..], backing[113..8100]);
        assert_eq!(view, backing[100..8100].to_vec());
        // Release drops exactly the range.
        nvm.write_frame(0, &one_view(&view)).unwrap();
        nvm.write_frame(8000, &one_view(&view)).unwrap();
        nvm.release(0, 15_999).unwrap();
        let rest = nvm.read(8000, 8000).unwrap();
        assert_eq!((&rest[..7999], rest[7999]), (&[0; 7999][..], view[7999]));
        nvm.release(8000, 8000).unwrap();
        assert_eq!(nvm.medium.extents().len(), 3, "the extents at 20 000");
    }

    proptest! {
        /// The medium's one spec ([`crate::medium::spec`]), read through
        /// this face: byte reads and frame reads, with the region's byte
        /// counters, and releases.
        #[test]
        fn matches_flat_byte_array(
            before in crate::medium::spec::steps(),
            after in crate::medium::spec::steps(),
        ) {
            crate::medium::spec::run(NvmRegion::new(crate::medium::spec::MODEL_BYTES as u64), &before, &after);
        }
    }
}
