//! The one in-memory medium under every simulated device.
//!
//! A [`Medium`] is a sparse map of what was written, at any offset, as
//! three kinds of extent: byte writes as bytes it owns, payload writes as
//! the writer's (immutable, refcounted) buffers held by reference, and
//! record writes as views of a shared [`Record`] it encodes only when a
//! read needs the bytes. A range nobody wrote, or one cut out, reads as
//! zeros and costs nothing, so a medium of any capacity is free until
//! written. [`NvmRegion`](crate::NvmRegion) and [`MemDisk`](crate::MemDisk)
//! are faces over it that keep their own counters.

use crate::frame::{Frame, NvmPiece};
use crate::payload::Payload;
use crate::record::Record;

/// Granularity of the extent map. Extents are bucketed by zone and never
/// cross a zone boundary, so the extents of a range are found in the zones
/// it overlaps and nowhere else.
pub(crate) const ZONE_BYTES: u64 = 16 << 10;

/// Owned byte extents never cross a page boundary: a large byte write is
/// many short extents, so a later write into part of it cuts at most one
/// page's worth of bytes.
const PAGE_BYTES: u64 = 4 << 10;

/// Zones per chunk of the zone table. Chunks are allocated on first use,
/// so a medium written at one offset pays for one chunk, not for a table
/// as long as its capacity.
const CHUNK_ZONES: usize = 64;

fn zone_of(offset: u64) -> usize {
    (offset / ZONE_BYTES) as usize
}

/// What the medium keeps of one written range: one of three kinds, nested
/// in two, the kinds that read as bytes in memory and held payloads. An
/// extent is 32 bytes, a record view (24) and a tag.
#[derive(Debug, Clone)]
enum Extent {
    /// A range that reads as bytes in memory.
    Flat(Flat),
    /// (A view of) a payload of a by-reference write.
    Held(Payload),
}

/// The extents that read as bytes in memory.
#[derive(Debug, Clone)]
enum Flat {
    /// Bytes of a byte write, in a buffer the medium owns.
    Owned(Vec<u8>),
    /// (A view of) a record, encoded when something reads it.
    Record(Record),
}

impl Flat {
    /// The bytes, encoding a record if nothing has yet.
    fn bytes(&self) -> &[u8] {
        match self {
            Flat::Owned(bytes) => bytes,
            Flat::Record(record) => record.bytes(),
        }
    }
}

impl Extent {
    fn len(&self) -> u64 {
        match self {
            Extent::Flat(Flat::Owned(bytes)) => bytes.len() as u64,
            Extent::Flat(Flat::Record(record)) => record.len(),
            Extent::Held(payload) => payload.len() as u64,
        }
    }

    /// The `len` bytes from `from` on: owned bytes copied, views re-sliced.
    fn slice(&self, from: u64, len: u64) -> Extent {
        match self {
            Extent::Flat(Flat::Owned(bytes)) => {
                Extent::Flat(Flat::Owned(bytes[from as usize..][..len as usize].to_vec()))
            }
            Extent::Flat(Flat::Record(record)) => {
                Extent::Flat(Flat::Record(record.slice(from, len)))
            }
            Extent::Held(payload) => Extent::Held(payload.slice(from as usize, len as usize)),
        }
    }
}

/// The extents that start in one zone, sorted by start, disjoint, none
/// empty and none reaching past the zone's end.
type Zone = Vec<(u64, Extent)>;

/// The zone table: `CHUNK_ZONES` zones per chunk, a chunk allocated by the
/// first extent put into it.
#[derive(Debug, Clone, Default)]
struct Zones(Vec<Option<Box<[Zone; CHUNK_ZONES]>>>);

impl Zones {
    fn get(&self, zone: usize) -> Option<&Zone> {
        let chunk = self.0.get(zone / CHUNK_ZONES)?.as_ref()?;
        Some(&chunk[zone % CHUNK_ZONES])
    }

    fn get_mut(&mut self, zone: usize) -> Option<&mut Zone> {
        let chunk = self.0.get_mut(zone / CHUNK_ZONES)?.as_mut()?;
        Some(&mut chunk[zone % CHUNK_ZONES])
    }

    /// The zone, allocating its chunk if need be.
    fn make(&mut self, zone: usize) -> &mut Zone {
        let at = zone / CHUNK_ZONES;
        if self.0.len() <= at {
            self.0.resize_with(at + 1, || None);
        }
        let chunk = self.0[at].get_or_insert_with(|| Box::new(std::array::from_fn(|_| Vec::new())));
        &mut chunk[zone % CHUNK_ZONES]
    }

    /// Every extent, in order.
    fn extents(&self) -> impl Iterator<Item = &(u64, Extent)> {
        self.0
            .iter()
            .flatten()
            .flat_map(|chunk| chunk.iter().flatten())
    }
}

/// One run of a range as the medium reads it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Run<'a> {
    /// Bytes nobody wrote (or that were cut out): zeros.
    Zeros(u64),
    /// Bytes the medium owns, or a record's encoding.
    Bytes(&'a [u8]),
    /// (Part of) a payload held by reference.
    Held(&'a Payload),
}

/// What a range holds as a whole.
#[derive(Debug)]
pub(crate) enum Whole {
    /// Nothing: every byte reads as zero.
    Nothing,
    /// One held view (parts of one buffer that continue one another count
    /// as one).
    Held(Payload),
    /// Anything else.
    Mixed,
}

/// A sparse, byte-addressable medium. See the module documentation.
#[derive(Clone)]
pub(crate) struct Medium {
    capacity: u64,
    zones: Zones,
}

impl std::fmt::Debug for Medium {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Medium")
            .field("capacity", &self.capacity)
            .field("extents", &self.zones.extents().count())
            .field("resident_bytes", &self.resident_bytes())
            .finish()
    }
}

impl Medium {
    /// A medium of `capacity` bytes that reads as zeros; nothing is
    /// allocated.
    pub(crate) fn new(capacity: u64) -> Medium {
        Medium {
            capacity,
            zones: Zones::default(),
        }
    }

    pub(crate) fn capacity(&self) -> u64 {
        self.capacity
    }

    /// True when `[offset, offset + len)` lies inside the medium.
    pub(crate) fn fits(&self, offset: u64, len: u64) -> bool {
        offset
            .checked_add(len)
            .is_some_and(|end| end <= self.capacity)
    }

    /// Bytes in buffers the medium owns: the lengths of its byte extents
    /// (held payloads are the writers' buffers, records the writers'
    /// values).
    pub(crate) fn resident_bytes(&self) -> u64 {
        let extents = self.zones.extents();
        extents
            .map(|(_, extent)| match extent {
                Extent::Flat(Flat::Owned(bytes)) => bytes.len() as u64,
                Extent::Flat(Flat::Record(_)) | Extent::Held(_) => 0,
            })
            .sum()
    }

    /// Bytes the medium stores, owned, held or recorded: the lengths of all
    /// its extents.
    pub(crate) fn stored_bytes(&self) -> u64 {
        let extents = self.zones.extents();
        extents.map(|(_, extent)| extent.len()).sum()
    }

    /// Walks the (bounds-checked) range `[offset, offset + len)` in order:
    /// each extent as the kind it is (a record as the bytes of its
    /// encoding), maximal runs of zeros between them.
    pub(crate) fn runs(&self, offset: u64, len: u64, mut run: impl FnMut(Run<'_>)) {
        let end = offset + len;
        let (mut pos, mut zeros) = (offset, 0);
        while pos < end {
            let zone_end = ((pos / ZONE_BYTES + 1) * ZONE_BYTES).min(end);
            let extents = self.zones.get(zone_of(pos)).map_or(&[][..], Vec::as_slice);
            let first = extents.partition_point(|(at, extent)| at + extent.len() <= pos);
            for (at, extent) in &extents[first..] {
                if *at >= zone_end {
                    break;
                }
                zeros += at.saturating_sub(pos);
                pos = pos.max(*at);
                if zeros > 0 {
                    run(Run::Zeros(zeros));
                    zeros = 0;
                }
                let to = (at + extent.len()).min(zone_end);
                let (from, until) = ((pos - at) as usize, (to - at) as usize);
                match extent {
                    Extent::Flat(flat) => run(Run::Bytes(&flat.bytes()[from..until])),
                    Extent::Held(payload) if until - from == payload.len() => {
                        run(Run::Held(payload))
                    }
                    Extent::Held(payload) => run(Run::Held(&payload.slice(from, until - from))),
                }
                pos = to;
            }
            zeros += zone_end - pos;
            pos = zone_end;
        }
        if zeros > 0 {
            run(Run::Zeros(zeros));
        }
    }

    /// Copies the (bounds-checked) range at `offset` into `buf`.
    pub(crate) fn read_into(&self, offset: u64, buf: &mut [u8]) {
        let mut done = 0;
        self.runs(offset, buf.len() as u64, |run| {
            let (len, src) = match run {
                Run::Zeros(len) => (len as usize, None),
                Run::Bytes(bytes) => (bytes.len(), Some(bytes)),
                Run::Held(payload) => (payload.len(), Some(payload.as_slice())),
            };
            let dst = &mut buf[done..done + len];
            match src {
                Some(src) => dst.copy_from_slice(src),
                None => dst.fill(0),
            }
            done += len;
        });
    }

    /// Appends the (bounds-checked) range at `offset` to `out`: owned bytes
    /// and zeros copied, held views as views.
    pub(crate) fn read_frame(&self, offset: u64, len: u64, out: &mut Frame) {
        self.runs(offset, len, |run| match run {
            Run::Zeros(zeros) => {
                let bytes = out.bytes_mut();
                bytes.resize(bytes.len() + zeros as usize, 0);
            }
            Run::Bytes(bytes) => out.bytes_mut().extend_from_slice(bytes),
            Run::Held(payload) => out.hold(payload.clone()),
        });
    }

    /// The extent that covers all of the non-empty range `[start, end)`, if
    /// one does, with its start.
    fn covering(&self, start: u64, end: u64) -> Option<(u64, &Extent)> {
        let zone = self.zones.get(zone_of(start))?;
        let slot = zone.partition_point(|(at, _)| *at <= start);
        let (at, extent) = zone.get(slot.checked_sub(1)?)?;
        (at + extent.len() >= end).then_some((*at, extent))
    }

    /// What the (bounds-checked, non-empty) range holds as a whole.
    pub(crate) fn whole(&self, offset: u64, len: u64) -> Whole {
        match self.covering(offset, offset + len) {
            Some((_, Extent::Held(payload))) if payload.len() as u64 == len => {
                return Whole::Held(payload.clone())
            }
            Some((at, Extent::Held(payload))) => {
                return Whole::Held(payload.slice((offset - at) as usize, len as usize))
            }
            Some((_, Extent::Flat(_))) => return Whole::Mixed,
            None => {}
        }
        let mut whole = Whole::Nothing;
        let mut zeros = false;
        self.runs(offset, len, |run| {
            whole = match (std::mem::replace(&mut whole, Whole::Mixed), run) {
                (Whole::Nothing, Run::Zeros(_)) => {
                    zeros = true;
                    Whole::Nothing
                }
                (Whole::Nothing, Run::Held(payload)) if !zeros => Whole::Held(payload.clone()),
                (Whole::Held(view), Run::Held(next)) => {
                    view.joined(next).map_or(Whole::Mixed, Whole::Held)
                }
                _ => Whole::Mixed,
            }
        });
        whole
    }

    /// Writes the (bounds-checked) bytes `data` at `offset`: in place when
    /// one byte extent already holds the whole range, as new byte extents
    /// otherwise.
    pub(crate) fn write_bytes(&mut self, offset: u64, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let end = offset + data.len() as u64;
        if let Some(zone) = self.zones.get_mut(zone_of(offset)) {
            let slot = zone.partition_point(|(at, _)| *at <= offset);
            let last = slot.checked_sub(1).map(|s| &mut zone[s]);
            if let Some((at, Extent::Flat(Flat::Owned(bytes)))) = last {
                if *at + bytes.len() as u64 >= end {
                    let from = (offset - *at) as usize;
                    bytes[from..from + data.len()].copy_from_slice(data);
                    return;
                }
            }
        }
        self.write(offset, data.len() as u64, [NvmPiece::Bytes(data)]);
    }

    /// Writes the (bounds-checked) `payload` at `offset`, held: the
    /// one-piece case of [`Medium::write`], which a store writing a block
    /// by reference takes for every block.
    pub(crate) fn write_held(&mut self, offset: u64, payload: Payload) {
        self.write_view(offset, Extent::Held(payload));
    }

    /// Writes the (bounds-checked) `record` at `offset`, held by reference
    /// and not encoded: the record's length is known without its bytes.
    pub(crate) fn write_record(&mut self, offset: u64, record: Record) {
        self.write_view(offset, Extent::Flat(Flat::Record(record)));
    }

    /// Writes the view `extent` at `offset`. It touches one zone when the
    /// view lies in one, and replaces an extent of exactly its range in
    /// place.
    fn write_view(&mut self, offset: u64, extent: Extent) {
        let len = extent.len();
        if len == 0 {
            return;
        }
        let end = offset + len;
        if zone_of(offset) != zone_of(end - 1) {
            self.cut(offset, end);
            return self.insert_zoned(offset, extent);
        }
        let zone = self.zones.make(zone_of(offset));
        let first = zone.partition_point(|(at, extent)| at + extent.len() <= offset);
        match zone.get_mut(first) {
            Some((at, old)) if *at == offset && old.len() == len => *old = extent,
            _ => {
                cut_zone(zone, offset, end);
                let slot = zone.partition_point(|(at, _)| *at < offset);
                insert_into(zone, slot, (offset, extent));
            }
        }
    }

    /// Writes the (bounds-checked) range `[offset, offset + len)` as the
    /// `pieces`, which are exactly `len` bytes long: what the range held
    /// before is cut out (the parts of extents outside it stay as they
    /// were, held views re-sliced, never copied), bytes become byte
    /// extents, payloads are held.
    pub(crate) fn write<'a>(
        &mut self,
        offset: u64,
        len: u64,
        pieces: impl IntoIterator<Item = NvmPiece<'a>>,
    ) {
        if len == 0 {
            return;
        }
        self.cut(offset, offset + len);
        let mut at = offset;
        for piece in pieces {
            match piece {
                NvmPiece::Bytes(mut bytes) => {
                    while !bytes.is_empty() {
                        let room = (PAGE_BYTES - at % PAGE_BYTES) as usize;
                        let (run, rest) = bytes.split_at(room.min(bytes.len()));
                        self.insert(at, Extent::Flat(Flat::Owned(run.to_vec())));
                        at += run.len() as u64;
                        bytes = rest;
                    }
                }
                NvmPiece::Held(payload) => {
                    self.insert_zoned(at, Extent::Held(payload.clone()));
                    at += payload.len() as u64;
                }
            }
        }
        debug_assert_eq!(at, offset + len, "pieces of the stated length");
    }

    /// Cuts the (bounds-checked) range `[start, end)` out: it reads as
    /// zeros afterwards, and what extents it cuts keep outside it stays as
    /// it was.
    pub(crate) fn cut(&mut self, start: u64, end: u64) {
        let mut pos = start;
        while pos < end {
            let zone_end = ((pos / ZONE_BYTES + 1) * ZONE_BYTES).min(end);
            if let Some(zone) = self.zones.get_mut(zone_of(pos)) {
                cut_zone(zone, pos, zone_end);
            }
            pos = zone_end;
        }
    }

    /// [`Medium::cut`] of the non-empty range, and every zone it leaves
    /// empty lets go of its memory: an operation log's ring passes over its
    /// zones and leaves them so.
    pub(crate) fn release(&mut self, start: u64, end: u64) {
        self.cut(start, end);
        for zone in zone_of(start)..=zone_of(end - 1) {
            if let Some(zone) = self.zones.get_mut(zone).filter(|zone| zone.is_empty()) {
                *zone = Vec::new();
            }
        }
    }

    /// Puts a view that overlaps no extent into the zones it lies in, one
    /// slice of it per zone.
    fn insert_zoned(&mut self, mut at: u64, extent: Extent) {
        let len = extent.len();
        if len <= ZONE_BYTES - at % ZONE_BYTES {
            if len > 0 {
                self.insert(at, extent);
            }
            return;
        }
        let mut done = 0;
        while done < len {
            let take = (ZONE_BYTES - at % ZONE_BYTES).min(len - done);
            self.insert(at, extent.slice(done, take));
            at += take;
            done += take;
        }
    }

    /// Puts an extent that overlaps none into its zone.
    fn insert(&mut self, at: u64, extent: Extent) {
        let zone = self.zones.make(zone_of(at));
        let slot = zone.partition_point(|(start, _)| *start < at);
        insert_into(zone, slot, (at, extent));
    }

    /// Heap bytes of the zone table itself: its index and the chunks it
    /// allocated, not the extents in them.
    #[cfg(test)]
    pub(crate) fn table_bytes(&self) -> usize {
        let chunks = self.zones.0.iter().flatten().count();
        self.zones.0.capacity() * std::mem::size_of::<Option<Box<[Zone; CHUNK_ZONES]>>>()
            + chunks * std::mem::size_of::<[Zone; CHUNK_ZONES]>()
    }

    /// Every extent as `(start, length, held)`, in order: `held` for a
    /// view, of a payload or of a record.
    #[cfg(test)]
    pub(crate) fn extents(&self) -> Vec<(u64, u64, bool)> {
        let extents = self.zones.extents();
        extents
            .map(|(at, extent)| {
                let owned = matches!(extent, Extent::Flat(Flat::Owned(_)));
                (*at, extent.len(), !owned)
            })
            .collect()
    }
}

/// Inserts an extent into a zone whose capacity grows from one by doubling
/// (a `Vec` starts at four): most zones of a device hold one or two.
fn insert_into(zone: &mut Zone, slot: usize, extent: (u64, Extent)) {
    if zone.len() == zone.capacity() {
        zone.reserve_exact(zone.len().max(1));
    }
    zone.insert(slot, extent);
}

/// Cuts `[start, end)`, which lies inside one zone, out of that zone.
fn cut_zone(zone: &mut Zone, start: u64, end: u64) {
    let first = zone.partition_point(|(at, extent)| at + extent.len() <= start);
    let last = first + zone[first..].partition_point(|(at, _)| *at < end);
    if first == last {
        return;
    }
    // What the last one it overlaps has past the range stays.
    let (at, extent) = &zone[last - 1];
    let after = (at + extent.len() > end).then(|| {
        let from = end - at;
        (end, extent.slice(from, extent.len() - from))
    });
    // So does what the first has before it.
    let mut keep = first;
    let (at, extent) = &mut zone[first];
    if *at < start {
        let before = start - *at;
        match extent {
            Extent::Flat(Flat::Owned(bytes)) => bytes.truncate(before as usize),
            view => *view = view.slice(0, before),
        }
        keep += 1;
    }
    zone.drain(keep..last);
    if let Some(after) = after {
        insert_into(zone, keep, after);
    }
}

#[cfg(test)]
pub(crate) mod spec;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_extent_is_a_record_view_and_a_tag() {
        assert_eq!(std::mem::size_of::<Record>(), 24);
        assert_eq!(
            std::mem::size_of::<Extent>(),
            std::mem::size_of::<Record>() + 8
        );
    }

    #[test]
    fn a_write_at_the_top_of_a_large_medium_allocates_one_chunk() {
        let capacity = 512 << 20;
        let mut medium = Medium::new(capacity);
        assert_eq!(medium.table_bytes(), 0, "a fresh medium allocates nothing");
        medium.write_bytes(capacity - 100, &[1; 100]);
        medium.write_held(capacity - 8192, vec![2; 4096].into());
        let chunk = std::mem::size_of::<[Zone; CHUNK_ZONES]>();
        // One chunk, and an index of 8 bytes per chunk of capacity: a flat
        // table of zones would cost 24 bytes per 16 KiB, 768 KiB here.
        assert_eq!(medium.zones.0.iter().flatten().count(), 1);
        assert!(
            medium.table_bytes() <= chunk + 8 * 512,
            "{} bytes of zone table",
            medium.table_bytes()
        );
        let mut buf = vec![0; 8192];
        medium.read_into(capacity - 8192, &mut buf);
        assert_eq!((buf[0], buf[4095], buf[4096], buf[8191]), (2, 2, 0, 1));
    }

    #[test]
    fn extents_stay_inside_a_zone_and_byte_extents_inside_a_page() {
        let mut medium = Medium::new(1 << 20);
        medium.write_bytes(1000, &vec![3; 40_000]);
        medium.write(60_000, 70_000, [NvmPiece::Held(&vec![4; 70_000].into())]);
        let extents = medium.extents();
        for &(at, len, held) in &extents {
            let limit = if held { ZONE_BYTES } else { PAGE_BYTES };
            assert_eq!(at / limit, (at + len - 1) / limit, "{at}+{len}");
        }
        let bytes: u64 = extents.iter().map(|&(_, len, _)| len).sum();
        assert_eq!(bytes, 110_000);
        assert_eq!(medium.resident_bytes(), 40_000);
    }

    #[test]
    fn a_cut_keeps_the_rest_of_a_held_view_by_reference() {
        let mut medium = Medium::new(1 << 20);
        let value: Payload = (0..4096u32).map(|i| i as u8).collect::<Vec<_>>().into();
        medium.write_held(5000, value.clone());
        medium.write_bytes(6000, b"rot");
        assert_eq!(
            medium.resident_bytes(),
            3,
            "the bytes written, not the view"
        );
        let mut runs = Vec::new();
        medium.runs(5000, 4096, |run| {
            runs.push(match run {
                Run::Held(view) => (
                    view.as_ptr() as usize - value.as_ptr() as usize,
                    view.len(),
                    true,
                ),
                Run::Bytes(bytes) => (0, bytes.len(), false),
                Run::Zeros(len) => (0, len as usize, false),
            })
        });
        assert_eq!(runs, [(0, 1000, true), (0, 3, false), (1003, 3093, true)]);
    }
}
