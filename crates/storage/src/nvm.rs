//! Byte-addressable non-volatile memory region.
//!
//! The paper logs incoming operations in NVM (Intel Optane or battery-backed
//! DRAM; the authors emulate it with an 8 GB ramdisk per node). [`NvmRegion`]
//! is that emulation one level down: a fixed-size, byte-addressable buffer
//! whose writes are durable the moment they complete (battery-backed
//! semantics), with traffic counters so NVM consumption can be reported.

use crate::error::StoreError;
use crate::payload::Payload;

/// Granularity of the extent map: extents are bucketed by the zone their
/// first byte lies in, so the neighbours of an offset are found in one or two
/// short vectors instead of a tree descent (an append asks four times).
const ZONE_BYTES: u64 = 16 << 10;

fn zone_of(offset: u64) -> usize {
    (offset / ZONE_BYTES) as usize
}

/// One piece of a byte stream that is partly held by reference: what
/// [`NvmRegion::read_pieces`] hands out, and what a writer that keeps large
/// payloads out of its frames writes.
#[derive(Debug, Clone, Copy)]
pub enum NvmPiece<'a> {
    /// Plain bytes (of the flat image, or of a frame).
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

/// A byte-addressable persistent memory region.
///
/// Unlike a [`BlockDevice`](crate::BlockDevice), an `NvmRegion` has no flush
/// barrier: a completed store is durable (the paper's NVM is battery-backed
/// or Optane behind `clwb`; its ramdisk emulation makes the same assumption).
///
/// Bytes live in a flat image, except that a [`NvmRegion::write_payload`]
/// keeps the (immutable, refcounted) buffer itself as an extent that shadows
/// the image, the way [`MemDisk`](crate::MemDisk) keeps blocks: the writer's
/// buffer is not copied and the image's lazily zeroed pages are not touched.
/// A byte write that overlaps an extent takes it back first (copy-on-write),
/// so a reader cannot tell which side holds a byte and nothing written here
/// ever reaches a buffer the writer still holds. An extent keeps its whole
/// backing buffer alive until it is overwritten or
/// [released](NvmRegion::release).
///
/// ```
/// use rablock_storage::NvmRegion;
/// # fn main() -> Result<(), rablock_storage::StoreError> {
/// let mut nvm = NvmRegion::new(8 << 10);
/// nvm.write(128, b"op-log entry")?;
/// assert_eq!(nvm.read(128, 12)?, b"op-log entry");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NvmRegion {
    data: Vec<u8>,
    /// The extent map: payloads held by reference as `(start, payload)`,
    /// never empty, disjoint, each shadowing `data` over its range.
    /// `zones[z]` holds the ones that start in zone `z`, sorted by start (the
    /// table grows to the highest zone one ever started in), so
    /// the whole is ordered.
    zones: Vec<Vec<(u64, Payload)>>,
    /// How many extents `zones` hold.
    held: usize,
    /// Length of the longest extent ever held: one that starts more than
    /// this before an offset cannot reach it.
    longest: u64,
    bytes_written: u64,
    bytes_read: u64,
}

impl NvmRegion {
    /// Creates a zero-filled region of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        NvmRegion {
            data: vec![0; capacity as usize],
            zones: Vec::new(),
            held: 0,
            longest: 0,
            bytes_written: 0,
            bytes_read: 0,
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.data.len() as u64
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

    /// The zones in which an extent overlapping the non-empty range
    /// `[start, end)` can start: from as far back as the longest extent
    /// reaches, clipped to the table.
    fn zones_reaching(&self, start: u64, end: u64) -> std::ops::Range<usize> {
        let to = (zone_of(end - 1) + 1).min(self.zones.len());
        zone_of(start.saturating_sub(self.longest)).min(to)..to
    }

    /// Walks the (bounds-checked) range `[offset, offset + len)` in order,
    /// piece by piece, from whichever side holds each byte.
    fn pieces(&self, offset: u64, len: u64, mut piece: impl FnMut(NvmPiece<'_>)) {
        let end = offset + len;
        let mut pos = offset;
        if self.held > 0 && pos < end {
            let reaching = self.zones_reaching(offset, end);
            for (at, held) in self.zones[reaching].iter().flatten() {
                let held_end = at + held.len() as u64;
                if held_end <= pos || *at >= end {
                    continue;
                }
                if *at > pos {
                    piece(NvmPiece::Bytes(&self.data[pos as usize..*at as usize]));
                    pos = *at;
                }
                let to = held_end.min(end);
                piece(NvmPiece::Held(
                    &held.slice((pos - at) as usize, (to - pos) as usize),
                ));
                pos = to;
            }
        }
        if pos < end {
            piece(NvmPiece::Bytes(&self.data[pos as usize..end as usize]));
        }
    }

    /// Copy-on-write: the image takes back every extent that overlaps the
    /// non-empty range `[start, end)`; one the range covers only partly
    /// brings its bytes.
    fn take_back(&mut self, start: u64, end: u64) {
        let reaching = self.zones_reaching(start, end);
        for zone in &mut self.zones[reaching] {
            zone.retain(|(at, held)| {
                let held_end = at + held.len() as u64;
                if held_end <= start || *at >= end {
                    return true;
                }
                if *at < start || held_end > end {
                    self.data[*at as usize..held_end as usize].copy_from_slice(held);
                }
                self.held -= 1;
                false
            });
        }
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
    /// order: runs of image bytes, and views of the payloads held by
    /// reference (uncopied — a reader that keeps one keeps the writer's
    /// buffer, checksum memo included).
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
        if self.held > 0 && !data.is_empty() {
            self.take_back(offset, offset + data.len() as u64);
        }
        let start = offset as usize;
        self.data[start..start + data.len()].copy_from_slice(data);
        self.bytes_written += data.len() as u64;
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
        if self.held > 0 {
            self.take_back(offset, offset + len);
        }
        if self.zones.len() <= zone_of(offset) {
            self.zones.resize_with(zone_of(offset) + 1, Vec::new);
        }
        let zone = &mut self.zones[zone_of(offset)];
        let slot = zone.partition_point(|(at, _)| *at < offset);
        zone.insert(slot, (offset, data.clone()));
        self.held += 1;
        self.longest = self.longest.max(len);
        self.bytes_written += len;
        Ok(())
    }

    /// Declares `[offset, offset + len)` dead: its contents are unspecified
    /// until written again. Every by-reference extent lying wholly inside
    /// the range is dropped, which unpins its buffer; bytes outside the
    /// range are unaffected.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::OutOfBounds`] if the range exceeds capacity.
    pub fn release(&mut self, offset: u64, len: u64) -> Result<(), StoreError> {
        self.check(offset, len)?;
        if self.held == 0 || len == 0 {
            return Ok(());
        }
        // An extent wholly inside the range starts in one of these too.
        let end = offset + len;
        let reaching = self.zones_reaching(offset, end);
        for zone in &mut self.zones[reaching] {
            let before = zone.len();
            zone.retain(|(at, held)| *at < offset || at + held.len() as u64 > end);
            self.held -= before - zone.len();
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
    /// reset. Returns the preserved image for recovery-path tests.
    pub fn reboot(&mut self) {
        self.bytes_written = 0;
        self.bytes_read = 0;
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

    /// A region beside a flat byte array. A released byte is dead (`None`)
    /// until written again: its content is unspecified, but must not change.
    struct Pair {
        nvm: NvmRegion,
        model: Vec<Option<u8>>,
        written: u64,
        read: u64,
        /// Every payload handed to the region, with its bytes at that time.
        handed_in: Vec<(Payload, Vec<u8>)>,
    }

    impl Pair {
        fn in_bounds(offset: u64, len: usize) -> bool {
            offset + len as u64 <= MODEL_BYTES as u64
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
            let mut pieces = Vec::new();
            let got = self
                .nvm
                .read_pieces(offset, len as u64, |piece| match piece {
                    NvmPiece::Bytes(run) => pieces.extend_from_slice(run),
                    NvmPiece::Held(payload) => {
                        let lent =
                            |(p, _): &(Payload, _)| p.as_ptr_range().contains(&payload.as_ptr());
                        assert!(self.handed_in.iter().any(lent), "a view, not a copy");
                        pieces.extend_from_slice(payload);
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
            let extents: Vec<&(u64, Payload)> = self.nvm.zones.iter().flatten().collect();
            assert_eq!(extents.len(), self.nvm.held);
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
        /// reader can tell from a flat byte array (dead bytes aside) — also
        /// after `clone()`, when the two copies share extents and diverge.
        #[test]
        fn matches_flat_byte_array(before in steps(), after in steps()) {
            let mut a = Pair {
                nvm: NvmRegion::new(MODEL_BYTES as u64),
                model: vec![Some(0); MODEL_BYTES],
                written: 0,
                read: 0,
                handed_in: Vec::new(),
            };
            for step in &before {
                a.apply(step);
            }
            let mut b = Pair {
                nvm: a.nvm.clone(),
                model: a.model.clone(),
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
