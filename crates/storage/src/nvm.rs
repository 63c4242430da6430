//! Byte-addressable non-volatile memory region.
//!
//! The paper logs incoming operations in NVM (Intel Optane or battery-backed
//! DRAM; the authors emulate it with an 8 GB ramdisk per node). [`NvmRegion`]
//! is that emulation one level down: a fixed-size, byte-addressable region
//! whose writes are durable the moment they complete (battery-backed
//! semantics), with traffic counters so NVM consumption can be reported. It
//! holds only what was written: a region nobody wrote costs no memory.
//!
//! Of the medium's three kinds of extent, a region writes two: bytes it
//! owns (a [`write`](NvmRegion::write)) and records it holds by reference
//! and encodes only when read (a [`write_record`](NvmRegion::write_record),
//! an operation log's append). Held payloads, the third kind, are what a
//! [`MemDisk`](crate::MemDisk) keeps for by-reference block writes.

use crate::error::StoreError;
use crate::medium::Medium;
use crate::record::Record;

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
/// [`write_record`](NvmRegion::write_record) keeps the [`Record`] itself,
/// unencoded, until a read needs its bytes. A range nobody wrote, or one
/// [released](NvmRegion::release), reads as zeros. A write over part of a
/// record leaves the rest of it a view of the same record, sharing one
/// encoding, and nothing written here ever reaches a value or encoding the
/// writer still holds. A record view keeps its whole value alive until all
/// of it is overwritten or released.
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

    /// Durably writes `record` at `offset`: the same result and the same
    /// counters as [`NvmRegion::write`] of [`Record::bytes`], but the
    /// record is kept by reference and encoded only when a read needs it.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::OutOfBounds`] if the range exceeds capacity.
    pub fn write_record(&mut self, offset: u64, record: Record) -> Result<(), StoreError> {
        self.check(offset, record.len())?;
        self.bytes_written += record.len();
        self.medium.write_record(offset, record);
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
    use crate::record::Counted;
    use proptest::prelude::*;

    /// `bytes` as a record.
    fn record(bytes: &[u8]) -> Record {
        Counted::record(bytes.to_vec()).1
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
        nvm.write_record(7, record(b"ed by reference")).unwrap();
        nvm.reboot();
        assert_eq!(nvm.read(0, 22).unwrap(), b"persisted by reference");
        assert_eq!(nvm.bytes_written(), 0);
        assert_eq!(nvm.bytes_read(), 22);
    }

    #[test]
    fn bounds_checked() {
        let mut nvm = NvmRegion::new(10);
        assert!(nvm.write(8, b"toolong").is_err());
        assert!(nvm.write_record(8, record(b"toolong")).is_err());
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
        nvm.write_record(2 << 20, record(&[9; 4096])).unwrap();
        assert_eq!(nvm.resident_bytes(), 8 + 4096);
        assert_eq!(nvm.medium.extents().len(), 2);
        nvm.release(1 << 20, 1 << 20).unwrap();
        nvm.release(2 << 20, 4096).unwrap();
        assert_eq!(nvm.resident_bytes(), 0);
        assert_eq!(nvm.medium.extents(), []);
        assert_eq!(nvm.read(1 << 20, 8).unwrap(), [0; 8], "released");
    }

    /// Where the first stored piece of `[offset, offset + len)` lies in
    /// memory: the region's own buffer, or a record's encoding.
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
    fn a_record_is_kept_by_reference_and_encoded_once_when_read() {
        let mut nvm = NvmRegion::new(64 << 10);
        let backing: Vec<u8> = (0..3 * 4096).map(|i| (i / 7) as u8).collect();
        let (shared, whole) = Counted::record(backing.clone());
        let view = whole.slice(100, 8000);
        nvm.write_record(20_000, view.clone()).unwrap();
        assert_eq!(nvm.medium.extents(), [(20_000, 8000, true)]);
        assert_eq!(nvm.bytes_written(), 8000);
        assert_eq!(shared.encodes(), 0, "a write does not encode");
        assert_eq!(
            nvm.read(19_990, 8020).unwrap()[10..8010],
            backing[100..8100]
        );
        assert_eq!(shared.encodes(), 1, "a read does");
        let held = first_piece(&mut nvm, 20_000, 8000);
        assert!(std::ptr::eq(held, shared.bytes()[100..].as_ptr()));
        // A byte write into the extent takes back what it covers and leaves
        // the rest views of the same record, reading the same encoding; the
        // writer's value is untouched.
        nvm.write(20_010, b"xyz").unwrap();
        assert_eq!(
            nvm.medium.extents(),
            [(20_000, 10, true), (20_010, 3, false), (20_013, 7987, true)]
        );
        assert!(std::ptr::eq(
            first_piece(&mut nvm, 20_013, 10),
            shared.bytes()[113..].as_ptr()
        ));
        let got = nvm.read(20_000, 8000).unwrap();
        assert_eq!(got[..10], backing[100..110]);
        assert_eq!(&got[10..13], b"xyz");
        assert_eq!(got[13..], backing[113..8100]);
        assert_eq!(view.bytes(), &backing[100..8100]);
        assert_eq!(shared.original(), &backing[..]);
        // A clone shares the record and its encoding.
        let mut clone = nvm.clone();
        clone.write(20_000, &[0; 8000]).unwrap();
        assert_eq!(nvm.read(20_013, 10).unwrap(), backing[113..123]);
        assert_eq!(shared.encodes(), 1, "one encoding for every view");
        // Release drops exactly the range.
        nvm.write_record(0, view.clone()).unwrap();
        nvm.write_record(8000, view.clone()).unwrap();
        nvm.release(0, 15_999).unwrap();
        let rest = nvm.read(8000, 8000).unwrap();
        assert_eq!((&rest[..7999], rest[7999]), (&[0; 7999][..], backing[8099]));
        nvm.release(8000, 8000).unwrap();
        assert_eq!(nvm.medium.extents().len(), 3, "the extents at 20 000");
    }

    proptest! {
        /// The medium's one spec ([`crate::medium::spec`]) through this
        /// face: byte writes, record writes, releases and byte reads, with
        /// the region's byte counters.
        #[test]
        fn matches_flat_byte_array(
            before in crate::medium::spec::steps(),
            after in crate::medium::spec::steps(),
        ) {
            crate::medium::spec::run(NvmRegion::new(crate::medium::spec::MODEL_BYTES as u64), &before, &after);
        }
    }
}
