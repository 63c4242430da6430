//! Byte-addressable non-volatile memory region.
//!
//! The paper logs incoming operations in NVM (Intel Optane or battery-backed
//! DRAM; the authors emulate it with an 8 GB ramdisk per node). [`NvmRegion`]
//! is that emulation one level down: a fixed-size, byte-addressable region
//! whose writes are durable the moment they complete (battery-backed
//! semantics), with traffic counters so NVM consumption can be reported. It
//! holds only what was written: a region nobody wrote costs no memory.

use std::ops::Deref;

use crate::error::StoreError;
use crate::payload::Payload;

/// Granularity of the extent map: extents are bucketed by the zone their
/// first byte lies in, so the neighbours of an offset are found in one or two
/// short vectors instead of a tree descent (an append asks four times).
const ZONE_BYTES: u64 = 16 << 10;

/// At most this many buffers of dropped byte extents wait for reuse.
const SPARE_BUFFERS: usize = 256;

/// What a byte nobody wrote reads as, handed out in runs of at most this.
static ZEROS: [u8; 4096] = [0; 4096];

fn zone_of(offset: u64) -> usize {
    (offset / ZONE_BYTES) as usize
}

/// One piece of a byte stream that is partly held by reference: what
/// [`NvmRegion::read_pieces`] hands out, and what a writer that keeps large
/// payloads out of its frames writes.
#[derive(Debug, Clone, Copy)]
pub enum NvmPiece<'a> {
    /// Plain bytes (of a byte write, of a range nobody wrote, or of a
    /// frame).
    Bytes(&'a [u8]),
    /// (Part of) a payload held by reference.
    Held(&'a Payload),
}

impl<'a> NvmPiece<'a> {
    /// The bytes of the piece, whichever side holds them.
    pub fn as_bytes(&self) -> &'a [u8] {
        match *self {
            NvmPiece::Bytes(run) => run,
            NvmPiece::Held(payload) => payload.as_slice(),
        }
    }
}

/// What the region keeps of one written range.
#[derive(Debug, Clone)]
enum Extent {
    /// The bytes of a [`NvmRegion::write`], in a buffer the region owns.
    Owned(Vec<u8>),
    /// The buffer of a [`NvmRegion::write_payload`], kept by reference.
    Held(Payload),
}

impl Deref for Extent {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Extent::Owned(bytes) => bytes,
            Extent::Held(payload) => payload,
        }
    }
}

/// Buffers of dropped byte extents, kept for the next byte writes: framing
/// an append then allocates nothing, and a buffer is not freed by whichever
/// thread happens to drop it.
#[derive(Debug, Clone, Default)]
struct Spare(Vec<Vec<u8>>);

impl Spare {
    /// An empty buffer, a reused one when there is one.
    fn take(&mut self) -> Vec<u8> {
        self.0.pop().unwrap_or_default()
    }

    fn put(&mut self, mut buf: Vec<u8>) {
        if self.0.len() < SPARE_BUFFERS {
            buf.clear();
            self.0.push(buf);
        }
    }
}

/// A byte-addressable persistent memory region.
///
/// Unlike a [`BlockDevice`](crate::BlockDevice), an `NvmRegion` has no flush
/// barrier: a completed store is durable (the paper's NVM is battery-backed
/// or Optane behind `clwb`; its ramdisk emulation makes the same assumption).
///
/// The region is a map of extents and allocates nothing up front. A byte
/// [`write`](NvmRegion::write) is kept as bytes the region owns (rewriting
/// part of one, as a log rewrites its header, copies in place); a
/// [`write_payload`](NvmRegion::write_payload) keeps the (immutable,
/// refcounted) buffer itself, uncopied, the way [`MemDisk`](crate::MemDisk)
/// keeps blocks. A range nobody wrote, or one [released](NvmRegion::release),
/// reads as zeros. A reader gets back the kind of piece the writer handed in,
/// except that a byte write that overlaps a held payload first takes the
/// whole of it back as owned bytes (copy-on-write): nothing written here ever
/// reaches a buffer the writer still holds. A held payload keeps its whole
/// backing buffer alive until it is overwritten or released.
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
    capacity: u64,
    /// The extent map: what was written and not released, as
    /// `(start, extent)`, never empty, disjoint. `zones[z]` holds the ones
    /// that start in zone `z`, sorted by start (the table grows to the
    /// highest zone one ever started in), so the whole is ordered.
    zones: Vec<Vec<(u64, Extent)>>,
    /// How many of the extents hold a payload by reference.
    held: usize,
    /// Length of the longest extent ever held: one that starts more than
    /// this before an offset cannot reach it.
    longest: u64,
    spare: Spare,
    bytes_written: u64,
    bytes_read: u64,
}

impl NvmRegion {
    /// Creates a region of `capacity` bytes that reads as zeros. Nothing is
    /// allocated until something is written.
    pub fn new(capacity: u64) -> Self {
        NvmRegion {
            capacity,
            zones: Vec::new(),
            held: 0,
            longest: 0,
            spare: Spare::default(),
            bytes_written: 0,
            bytes_read: 0,
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes the region holds: the lengths of its extents, whoever owns
    /// their buffers. Zero for a fresh region, whatever its capacity. (For
    /// tests of what is built on the region.)
    #[doc(hidden)]
    pub fn resident_bytes(&self) -> u64 {
        let extents = self.zones.iter().flatten();
        extents.map(|(_, extent)| extent.len() as u64).sum()
    }

    fn check(&self, offset: u64, len: u64) -> Result<(), StoreError> {
        if offset
            .checked_add(len)
            .is_none_or(|end| end > self.capacity)
        {
            return Err(StoreError::OutOfBounds {
                offset,
                len,
                capacity: self.capacity,
            });
        }
        Ok(())
    }

    /// The zones in which an extent overlapping the non-empty range
    /// `[start, end)` can start: from as far back as the longest extent
    /// reaches, clipped to the table.
    fn zones_reaching(&self, start: u64, end: u64) -> std::ops::Range<usize> {
        let to = (zone_of(end - 1) + 1).min(self.zones.len());
        zone_of(start.saturating_sub(self.longest)).min(to)..to
    }

    /// Walks the (bounds-checked) range `[offset, offset + len)` in order,
    /// piece by piece: each extent as the kind it is, zeros between them.
    fn pieces(&self, offset: u64, len: u64, mut piece: impl FnMut(NvmPiece<'_>)) {
        let end = offset + len;
        let mut pos = offset;
        if pos < end {
            let reaching = self.zones_reaching(offset, end);
            for (at, extent) in self.zones[reaching].iter().flatten() {
                let extent_end = at + extent.len() as u64;
                if extent_end <= pos || *at >= end {
                    continue;
                }
                if *at > pos {
                    zeros(*at - pos, &mut piece);
                    pos = *at;
                }
                let to = extent_end.min(end);
                let (from, until) = ((pos - at) as usize, (to - at) as usize);
                match extent {
                    Extent::Owned(bytes) => piece(NvmPiece::Bytes(&bytes[from..until])),
                    Extent::Held(payload) if until - from == payload.len() => {
                        piece(NvmPiece::Held(payload));
                    }
                    Extent::Held(payload) => {
                        piece(NvmPiece::Held(&payload.slice(from, until - from)));
                    }
                }
                pos = to;
            }
        }
        zeros(end - pos, &mut piece);
    }

    /// The extent that covers all of the non-empty range `[start, end)`, if
    /// one does, with its start.
    fn covering(&mut self, start: u64, end: u64) -> Option<(u64, &mut Extent)> {
        // Only the last extent starting at or before `start` can.
        let last = zone_of(start).min(self.zones.len().checked_sub(1)?);
        let first = zone_of(start.saturating_sub(self.longest)).min(last);
        let zone = self.zones[first..=last]
            .iter_mut()
            .rev()
            .find(|zone| zone.first().is_some_and(|(at, _)| *at <= start))?;
        let slot = zone.partition_point(|(at, _)| *at <= start);
        let (at, extent) = &mut zone[slot - 1];
        (*at + extent.len() as u64 >= end).then_some((*at, extent))
    }

    /// Takes every extent that overlaps the non-empty range `[start, end)`
    /// out of the map. Returns `None` when none does, and otherwise their
    /// bytes in one owned buffer together with where it starts: the range
    /// widened to the extents it cuts. (Disjoint extents that overlap one
    /// range leave no gap in it, so every byte of the buffer is theirs or
    /// the range's.)
    fn take_out(&mut self, start: u64, end: u64) -> Option<(u64, Vec<u8>)> {
        let reaching = self.zones_reaching(start, end);
        let overlapping = |at: u64, extent: &Extent| at < end && at + extent.len() as u64 > start;
        let (mut lo, mut hi) = (u64::MAX, 0);
        for (at, extent) in self.zones[reaching.clone()].iter().flatten() {
            if overlapping(*at, extent) {
                lo = lo.min(*at);
                hi = hi.max(at + extent.len() as u64);
            }
        }
        if lo == u64::MAX {
            return None;
        }
        let (lo, hi) = (lo.min(start), hi.max(end));
        let mut buf = self.spare.take();
        buf.resize((hi - lo) as usize, 0);
        for zone in &mut self.zones[reaching] {
            zone.retain_mut(|(at, extent)| {
                if !overlapping(*at, extent) {
                    return true;
                }
                let from = (*at - lo) as usize;
                buf[from..from + extent.len()].copy_from_slice(extent);
                match extent {
                    Extent::Owned(bytes) => self.spare.put(std::mem::take(bytes)),
                    Extent::Held(_) => self.held -= 1,
                }
                false
            });
        }
        Some((lo, buf))
    }

    /// Puts an extent that overlaps none into the map.
    fn insert(&mut self, at: u64, extent: Extent) {
        let zone = zone_of(at);
        if self.zones.len() <= zone {
            self.zones.resize_with(zone + 1, Vec::new);
        }
        self.longest = self.longest.max(extent.len() as u64);
        self.held += usize::from(matches!(extent, Extent::Held(_)));
        let zone = &mut self.zones[zone];
        let slot = zone.partition_point(|(start, _)| *start < at);
        zone.insert(slot, (at, extent));
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
        let mut done = 0;
        self.read_pieces(offset, buf.len() as u64, |piece| {
            let bytes = piece.as_bytes();
            buf[done..done + bytes.len()].copy_from_slice(bytes);
            done += bytes.len();
        })
    }

    /// Reads `[offset, offset + len)` as the pieces that make it up, in
    /// order: what byte writes stored, and zeros where nothing is, as
    /// [`NvmPiece::Bytes`]; what [`NvmRegion::write_payload`] stored as
    /// [`NvmPiece::Held`] views of the writer's buffer (uncopied — a reader
    /// that keeps one keeps that buffer, checksum memo included) until a
    /// byte write overlaps it.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::OutOfBounds`] if the range exceeds capacity.
    pub fn read_pieces(
        &mut self,
        offset: u64,
        len: u64,
        piece: impl FnMut(NvmPiece<'_>),
    ) -> Result<(), StoreError> {
        self.check(offset, len)?;
        self.bytes_read += len;
        self.pieces(offset, len, piece);
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
        if data.is_empty() {
            return Ok(());
        }
        let end = offset + data.len() as u64;
        if let Some((at, Extent::Owned(bytes))) = self.covering(offset, end) {
            let from = (offset - at) as usize;
            bytes[from..from + data.len()].copy_from_slice(data);
            return Ok(());
        }
        // Whatever the write overlaps becomes part of one byte extent with it.
        let (at, buf) = match self.take_out(offset, end) {
            Some((at, mut buf)) => {
                let from = (offset - at) as usize;
                buf[from..from + data.len()].copy_from_slice(data);
                (at, buf)
            }
            None => {
                let mut buf = self.spare.take();
                buf.extend_from_slice(data);
                (offset, buf)
            }
        };
        self.insert(at, Extent::Owned(buf));
        Ok(())
    }

    /// Durably writes the bytes of `data` at `offset`: the same result and
    /// the same counters as [`NvmRegion::write`] of its slice, but the
    /// buffer is kept by reference instead of copied.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::OutOfBounds`] if the range exceeds capacity.
    pub fn write_payload(&mut self, offset: u64, data: &Payload) -> Result<(), StoreError> {
        let len = data.len() as u64;
        self.check(offset, len)?;
        if len == 0 {
            return Ok(());
        }
        let end = offset + len;
        if let Some((at, mut buf)) = self.take_out(offset, end) {
            // What the extents it overlaps have outside the range stays, as
            // bytes.
            let after = (end - at) as usize;
            if buf.len() > after {
                let mut rest = self.spare.take();
                rest.extend_from_slice(&buf[after..]);
                self.insert(end, Extent::Owned(rest));
            }
            buf.truncate((offset - at) as usize);
            if buf.is_empty() {
                self.spare.put(buf);
            } else {
                self.insert(at, Extent::Owned(buf));
            }
        }
        self.insert(offset, Extent::Held(data.clone()));
        self.bytes_written += len;
        Ok(())
    }

    /// Declares `[offset, offset + len)` dead: its contents are unspecified
    /// until written again. Every extent lying wholly inside the range is
    /// dropped, so it reads as zeros again, and its buffer is unpinned (or
    /// kept for reuse); bytes outside the range are unaffected.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::OutOfBounds`] if the range exceeds capacity.
    pub fn release(&mut self, offset: u64, len: u64) -> Result<(), StoreError> {
        self.check(offset, len)?;
        if len == 0 {
            return Ok(());
        }
        // An extent wholly inside the range starts in one of these too.
        let end = offset + len;
        let reaching = self.zones_reaching(offset, end);
        for zone in &mut self.zones[reaching] {
            zone.retain_mut(|(at, extent)| {
                if *at < offset || *at + extent.len() as u64 > end {
                    return true;
                }
                match extent {
                    Extent::Owned(bytes) => self.spare.put(std::mem::take(bytes)),
                    Extent::Held(_) => self.held -= 1,
                }
                false
            });
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

/// Hands `len` zero bytes to `piece`, in runs of [`ZEROS`].
fn zeros(mut len: u64, piece: &mut impl FnMut(NvmPiece<'_>)) {
    while len > 0 {
        let run = len.min(ZEROS.len() as u64);
        piece(NvmPiece::Bytes(&ZEROS[..run as usize]));
        len -= run;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        nvm.write_payload(7, &b"ed by reference".as_slice().into())
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
        assert!(nvm.write_payload(8, &b"toolong".as_slice().into()).is_err());
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
        nvm.write_payload(2 << 20, &vec![9; 4096].into()).unwrap();
        assert_eq!(nvm.resident_bytes(), 8 + 4096);
        nvm.release(1 << 20, 1 << 20).unwrap();
        nvm.release(2 << 20, 4096).unwrap();
        assert_eq!(nvm.resident_bytes(), 0);
        assert_eq!(nvm.read(1 << 20, 8).unwrap(), [0; 8], "released");
    }

    #[test]
    fn rewriting_part_of_a_byte_extent_is_in_place() {
        let mut nvm = NvmRegion::new(1 << 20);
        nvm.write(4096, &[1; 48]).unwrap();
        let buffer = nvm.zones[0][0].1.as_ptr();
        for (at, bytes) in [(4096, &[2; 48][..]), (4100, &[3; 4]), (4140, &[4; 4])] {
            nvm.write(at, bytes).unwrap();
            assert_eq!(nvm.zones[0].len(), 1);
            let now = nvm.zones[0][0].1.as_ptr();
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
        nvm.write_payload(20_000, &view).unwrap();
        assert_eq!(nvm.held, 1);
        let (at, held) = &nvm.zones[zone_of(20_000)][0];
        assert_eq!(*at, 20_000);
        assert!(std::ptr::eq(held.as_ptr(), backing[100..].as_ptr()));
        assert_eq!(nvm.bytes_written(), 8000);
        assert_eq!(
            nvm.read(19_990, 8020).unwrap()[10..8010],
            backing[100..8100]
        );
        // A byte write into the extent takes it back, merged; the writer's
        // buffer is untouched.
        nvm.write(20_010, b"xyz").unwrap();
        assert_eq!(nvm.held, 0);
        let got = nvm.read(20_000, 8000).unwrap();
        assert_eq!(got[..10], backing[100..110]);
        assert_eq!(&got[10..13], b"xyz");
        assert_eq!(got[13..], backing[113..8100]);
        assert_eq!(view, backing[100..8100].to_vec());
        // Release drops what lies wholly inside, and only that.
        nvm.write_payload(0, &view).unwrap();
        nvm.write_payload(8000, &view).unwrap();
        nvm.release(0, 15_999).unwrap();
        assert_eq!(nvm.held, 1);
        assert_eq!(nvm.read(8000, 8000).unwrap(), view);
        nvm.release(8000, 8000).unwrap();
        assert_eq!(nvm.held, 0);
    }

    const MODEL_BYTES: usize = 5 * ZONE_BYTES as usize + 100;

    #[derive(Debug, Clone)]
    enum Act {
        Bytes,
        Payload,
        Release,
    }

    #[derive(Debug, Clone)]
    struct Step {
        /// Which of the two copies (after the fork) the step acts on.
        on_fork: bool,
        act: Act,
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
                (0..6u64).prop_map(|z| z * ZONE_BYTES),
                0..MODEL_BYTES as u64 + 50
            ],
            // Short runs, 4 KiB-ish payloads, and ones longer than a zone.
            prop_oneof![0..600usize, 4000..4200usize, 0..40_000usize],
        )
    }

    fn steps() -> impl Strategy<Value = Vec<Step>> {
        let act = prop_oneof![
            3 => Just(Act::Bytes),
            4 => Just(Act::Payload),
            2 => Just(Act::Release)
        ];
        let step = (
            any::<bool>(),
            act,
            a_range(),
            prop_oneof![Just(0), 1..5000usize],
            any::<u8>(),
            a_range(),
        )
            .prop_map(|(on_fork, act, (offset, len), lead, fill, read)| Step {
                on_fork,
                act,
                offset,
                len,
                lead,
                fill,
                read,
            });
        proptest::collection::vec(step, 1..60)
    }

    /// Which extent holds a byte, numbered as the model makes them, and
    /// the address of the writer's byte while the extent holds a payload by
    /// reference.
    #[derive(Debug, Clone, Copy)]
    struct Owner {
        extent: usize,
        lent: Option<usize>,
    }

    /// A region beside a flat byte array. A released byte is dead (`None`)
    /// until written again: its content is unspecified, but must not change.
    /// Beside each byte, the extent that holds it: a byte no extent holds
    /// reads as zero, a lent byte comes back as a view of the writer's very
    /// byte, and every other byte comes back as bytes.
    struct Pair {
        nvm: NvmRegion,
        model: Vec<Option<u8>>,
        owner: Vec<Option<Owner>>,
        extents_made: usize,
        written: u64,
        read: u64,
        /// Every payload handed to the region, with its bytes at that time.
        handed_in: Vec<(Payload, Vec<u8>)>,
    }

    impl Pair {
        fn new(nvm: NvmRegion) -> Pair {
            Pair {
                nvm,
                model: vec![Some(0); MODEL_BYTES],
                owner: vec![None; MODEL_BYTES],
                extents_made: 0,
                written: 0,
                read: 0,
                handed_in: Vec::new(),
            }
        }

        fn in_bounds(offset: u64, len: usize) -> bool {
            offset + len as u64 <= MODEL_BYTES as u64
        }

        /// The extents that hold a byte of `[at, at + len)`.
        fn overlapped(&self, at: usize, len: usize) -> Vec<usize> {
            let mut extents: Vec<usize> = self.owner[at..at + len]
                .iter()
                .flatten()
                .map(|owner| owner.extent)
                .collect();
            extents.sort_unstable();
            extents.dedup();
            extents
        }

        fn new_extent(&mut self) -> usize {
            self.extents_made += 1;
            self.extents_made
        }

        /// A byte write merges every extent it overlaps into one byte
        /// extent with itself. A payload write leaves what those extents
        /// have before and after it as two byte extents, and lends its own.
        fn stamp(&mut self, at: usize, view: &Payload, by_reference: bool) {
            let cut = self.overlapped(at, view.len());
            let (before, after, own) = (self.new_extent(), self.new_extent(), self.new_extent());
            for (i, cell) in self.owner.iter_mut().enumerate() {
                if let Some(owner) = cell.as_mut().filter(|o| cut.contains(&o.extent)) {
                    owner.lent = None;
                    owner.extent = match (by_reference, i < at) {
                        (false, _) => own,
                        (true, true) => before,
                        (true, false) => after,
                    };
                }
            }
            for (i, cell) in self.owner[at..at + view.len()].iter_mut().enumerate() {
                let lent = by_reference.then(|| view.as_ptr() as usize + i);
                *cell = Some(Owner { extent: own, lent });
            }
        }

        /// A release drops the extents that lie wholly inside it: their
        /// bytes, and any other byte no extent holds, read as zeros again.
        fn drop_inside(&mut self, at: usize, len: usize) {
            for extent in self.overlapped(at, len) {
                let inside = self.owner.iter().enumerate().all(|(i, cell)| {
                    (at..at + len).contains(&i) || cell.is_none_or(|o| o.extent != extent)
                });
                if inside {
                    for cell in &mut self.owner[at..at + len] {
                        *cell = cell.filter(|o| o.extent != extent);
                    }
                }
            }
            for (byte, cell) in self.model[at..at + len].iter_mut().zip(&self.owner[at..]) {
                if cell.is_none() {
                    *byte = Some(0);
                }
            }
        }

        /// Compares `got`, read at `offset`, with the model; dead bytes are
        /// adopted, so a later read must see them unchanged.
        fn check_read(&mut self, offset: u64, got: &[u8]) {
            for (cell, byte) in self.model[offset as usize..].iter_mut().zip(got) {
                assert_eq!(*cell.get_or_insert(*byte), *byte, "at or after {offset}");
            }
            self.read += got.len() as u64;
        }

        fn apply(&mut self, step: &Step) {
            let ok = Self::in_bounds(step.offset, step.len);
            let at = step.offset as usize;
            if let Act::Release = step.act {
                let got = self.nvm.release(step.offset, step.len as u64);
                assert_eq!(got.is_ok(), ok);
                if ok {
                    self.model[at..at + step.len].fill(None);
                    self.drop_inside(at, step.len);
                }
            } else {
                let backing: Payload = (0..step.lead + step.len + 3)
                    .map(|i| (i as u8).wrapping_mul(31).wrapping_add(step.fill))
                    .collect::<Vec<_>>()
                    .into();
                let view = backing.slice(step.lead, step.len);
                let got = match step.act {
                    Act::Payload => self.nvm.write_payload(step.offset, &view),
                    _ => self.nvm.write(step.offset, &view),
                };
                assert_eq!(got.is_ok(), ok);
                if ok {
                    for (cell, byte) in self.model[at..].iter_mut().zip(view.iter()) {
                        *cell = Some(*byte);
                    }
                    self.stamp(at, &view, matches!(step.act, Act::Payload));
                    self.written += step.len as u64;
                    self.handed_in.push((view.clone(), view.to_vec()));
                }
            }
            let (offset, len) = step.read;
            let got = self.nvm.read(offset, len as u64);
            assert_eq!(got.is_ok(), Self::in_bounds(offset, len));
            if let Ok(got) = got {
                self.check_read(offset, &got);
            }
            // The same range again, into a buffer, and piece by piece.
            let mut buf = vec![0xEE; len];
            let got = self.nvm.read_into(offset, &mut buf);
            assert_eq!(got.is_ok(), Self::in_bounds(offset, len));
            if got.is_ok() {
                self.check_read(offset, &buf);
            }
            // Each piece is of the kind the writer handed in.
            let mut pieces = Vec::new();
            let got = self.nvm.read_pieces(offset, len as u64, |piece| {
                let owners = &self.owner[offset as usize + pieces.len()..];
                match piece {
                    NvmPiece::Bytes(run) => {
                        let bytes = owners[..run.len()].iter();
                        assert!(bytes.flatten().all(|o| o.lent.is_none()), "a lent byte");
                        pieces.extend_from_slice(run);
                    }
                    NvmPiece::Held(payload) => {
                        let lent =
                            |(p, _): &(Payload, _)| p.as_ptr_range().contains(&payload.as_ptr());
                        assert!(self.handed_in.iter().any(lent), "a view, not a copy");
                        for (i, owner) in owners[..payload.len()].iter().enumerate() {
                            let at = payload.as_ptr() as usize + i;
                            assert_eq!(owner.and_then(|o| o.lent), Some(at), "not lent");
                        }
                        pieces.extend_from_slice(payload);
                    }
                }
            });
            assert_eq!(got.is_ok(), Self::in_bounds(offset, len));
            if got.is_ok() {
                self.check_read(offset, &pieces);
            }
            assert_eq!(self.nvm.bytes_written(), self.written);
            assert_eq!(self.nvm.bytes_read(), self.read);
        }

        fn check_image(&mut self) {
            let image = self.nvm.read(0, MODEL_BYTES as u64).unwrap();
            self.check_read(0, &image);
            let extents: Vec<&(u64, Extent)> = self.nvm.zones.iter().flatten().collect();
            let held = extents.iter().filter(|(_, e)| matches!(e, Extent::Held(_)));
            assert_eq!(held.count(), self.nvm.held);
            // The region keeps what the model says and nothing else: one
            // extent per extent of the model, and the bytes they hold.
            assert_eq!(extents.len(), self.overlapped(0, MODEL_BYTES).len());
            let holding = self.owner.iter().flatten().count();
            assert_eq!(self.nvm.resident_bytes(), holding as u64);
            for pair in extents.windows(2) {
                let (at, held) = pair[0];
                assert!(!held.is_empty() && at + held.len() as u64 <= pair[1].0);
            }
            // What the region was handed is a loan: byte writes into an
            // extent and a diverging clone never reach the writer's buffer.
            for (payload, then) in &self.handed_in {
                assert!(payload == then, "a writer's buffer changed under it");
            }
        }
    }

    proptest! {
        /// Byte writes, by-reference writes and releases leave a region no
        /// reader can tell from a flat byte array (dead bytes aside), whose
        /// pieces are of the kind the writer handed in, and which holds
        /// exactly the extents still written — also after `clone()`, when
        /// the two copies share held buffers and diverge.
        #[test]
        fn matches_flat_byte_array(before in steps(), after in steps()) {
            let mut a = Pair::new(NvmRegion::new(MODEL_BYTES as u64));
            for step in &before {
                a.apply(step);
            }
            let mut b = Pair {
                nvm: a.nvm.clone(),
                model: a.model.clone(),
                owner: a.owner.clone(),
                extents_made: a.extents_made,
                written: a.written,
                read: a.read,
                handed_in: a.handed_in.clone(),
            };
            for step in &after {
                if step.on_fork { b.apply(step) } else { a.apply(step) }
            }
            a.check_image();
            b.check_image();
        }
    }
}
