//! Reference-counted immutable payload buffers.
//!
//! Every client write's data travels a long way: client → primary OSD →
//! per-replica fan-out → operation-log staging → backend submit, plus the
//! retry and dedup-re-ack side paths. With `Vec<u8>` payloads each hop
//! deep-copies the bytes; [`Payload`] makes the clone at every hop a
//! refcount bump on one shared allocation instead. Payloads are immutable
//! by construction — there is no `&mut [u8]` access — so sharing across
//! the replication fan-out and the pending-op retry table is safe.
//!
//! [`Payload::slice`] gives a zero-copy sub-range view (the operation log
//! serves reads of a suffix of a logged write this way).

use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::crc::crc32;
use crate::digest::digest_bytes;

/// Granularity of the per-block CRC memo: the block size of both stores.
const CRC_BLOCK: usize = 4096;

/// Tag bit of a filled [`CrcMemo::blocks`] cell (a CRC may itself be 0).
const CRC_KNOWN: u64 = 1 << 32;

/// Lazily computed CRC-32s and content digest of one backing buffer, shared
/// by every clone and slice of it. A hit is a proof, not a guess: the buffer
/// is immutable.
#[derive(Default)]
struct CrcMemo {
    /// Of the whole buffer.
    full: OnceLock<u32>,
    /// [`digest_bytes`] of the whole buffer.
    digest: OnceLock<u64>,
    /// Of each [`CRC_BLOCK`]-aligned block of the buffer, `CRC_KNOWN | crc`
    /// once computed. Allocated by the first block-sized aligned view that
    /// asks, so buffers that are never read by block pay nothing.
    blocks: OnceLock<Box<[AtomicU64]>>,
    /// Every byte of the buffer is zero: set only by [`Payload::zeros`],
    /// which made it so, never by looking.
    zeros: bool,
}

/// What every clone and view of one buffer shares, under one refcount: the
/// bytes and their memo.
struct Shared {
    bytes: Box<[u8]>,
    /// Lets hot paths that checksum the same (interned, refcounted) buffer
    /// over and over pay the scan once. See [`Payload::crc32`].
    memo: CrcMemo,
}

/// An immutable, cheaply-cloneable, slice-able byte buffer.
///
/// Cloning bumps one refcount; slicing shares the same allocation. The
/// handle is two words: the shared buffer and a `u32` window into it, so a
/// buffer is under 4 GiB. Equality and hashing are by byte content, so
/// types embedding a `Payload` can keep their derived `PartialEq`/`Eq`
/// semantics.
#[derive(Clone)]
pub struct Payload {
    shared: Arc<Shared>,
    off: u32,
    len: u32,
}

impl Payload {
    /// A view of all of `bytes`, with `memo` as what is known of them.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is 4 GiB or longer.
    fn whole(bytes: Box<[u8]>, memo: CrcMemo) -> Payload {
        let len = u32::try_from(bytes.len()).expect("a payload buffer is under 4 GiB");
        Payload {
            shared: Arc::new(Shared { bytes, memo }),
            off: 0,
            len,
        }
    }

    /// An empty payload: one allocation, the shared handle (an empty buffer
    /// allocates nothing).
    pub fn empty() -> Payload {
        Payload::whole(Box::default(), CrcMemo::default())
    }

    /// `len` zero bytes that say so: every clone and slice answers
    /// [`Payload::is_zeros`], and the CRC of the whole buffer is known from
    /// the start. For the places zeros are created — a device's never-written
    /// blocks, the holes of a [`Segments`] — so their consumers need not read
    /// them.
    pub fn zeros(len: usize) -> Payload {
        let bytes = vec![0u8; len].into_boxed_slice();
        let memo = CrcMemo {
            full: OnceLock::from(crc32(&bytes)),
            zeros: true,
            ..CrcMemo::default()
        };
        Payload::whole(bytes, memo)
    }

    /// True when this is a view of a [`Payload::zeros`] buffer, so every byte
    /// is zero. False says nothing: other buffers may hold zeros too.
    #[inline]
    pub fn is_zeros(&self) -> bool {
        self.shared.memo.zeros
    }

    /// Number of bytes in this view.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the view holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bytes of this view.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        let off = self.off as usize;
        &self.shared.bytes[off..off + self.len()]
    }

    /// True when this view covers its whole backing buffer.
    #[inline]
    fn is_whole(&self) -> bool {
        self.off == 0 && self.len() == self.shared.bytes.len()
    }

    /// A zero-copy sub-range view sharing the same allocation.
    ///
    /// # Panics
    ///
    /// Panics if `offset + len` exceeds this view's length.
    pub fn slice(&self, offset: usize, len: usize) -> Payload {
        assert!(
            offset + len <= self.len(),
            "slice [{offset}, +{len}) out of payload of {} bytes",
            self.len
        );
        // Both fit: the window lies in a buffer of under 4 GiB.
        Payload {
            shared: Arc::clone(&self.shared),
            off: self.off + offset as u32,
            len: len as u32,
        }
    }

    /// This view and `next` as one view, when `next` continues this one in
    /// the same buffer (as the two halves of a view a store cut in two do).
    pub(crate) fn joined(&self, next: &Payload) -> Option<Payload> {
        (Arc::ptr_eq(&self.shared, &next.shared) && self.off + self.len == next.off).then(|| {
            Payload {
                shared: Arc::clone(&self.shared),
                off: self.off,
                len: self.len + next.len,
            }
        })
    }

    /// A payload of `len` bytes written in place: `fill` gets the zeroed
    /// buffer before anyone else can see it. For results assembled from
    /// several sources, and for fills that can fail.
    ///
    /// # Errors
    ///
    /// Whatever `fill` returns; the buffer is dropped.
    pub fn build<E>(
        len: usize,
        fill: impl FnOnce(&mut [u8]) -> Result<(), E>,
    ) -> Result<Payload, E> {
        let mut bytes = vec![0u8; len].into_boxed_slice();
        fill(&mut bytes)?;
        Ok(Payload::whole(bytes, CrcMemo::default()))
    }

    /// The CRC-32 ([`crate::crc::crc32`]) of this view, memoized when the
    /// view covers its whole backing buffer (replication fans the same
    /// full-buffer payload to every replica, and workload generators intern
    /// their fill patterns) or exactly one 4 KiB-aligned block of it (the
    /// stores checksum, keep and re-verify an object-sized buffer block by
    /// block). Any other view is computed directly.
    pub fn crc32(&self) -> u32 {
        let Shared { bytes, memo } = &*self.shared;
        if self.is_whole() {
            return *memo.full.get_or_init(|| crc32(bytes));
        }
        let off = self.off as usize;
        if self.len() != CRC_BLOCK || !off.is_multiple_of(CRC_BLOCK) {
            return crc32(self.as_slice());
        }
        let cells = memo.blocks.get_or_init(|| {
            (0..bytes.len() / CRC_BLOCK)
                .map(|_| AtomicU64::new(0))
                .collect()
        });
        // Relaxed: a cell publishes nothing but its own value, and a reader
        // that misses a concurrent fill only repeats the scan.
        let cell = &cells[off / CRC_BLOCK];
        let known = cell.load(Ordering::Relaxed);
        if known != 0 {
            return known as u32;
        }
        let crc = crc32(self.as_slice());
        cell.store(CRC_KNOWN | crc as u64, Ordering::Relaxed);
        crc
    }

    /// The content digest ([`digest_bytes`]) of this view, memoized when the
    /// view covers its whole backing buffer, as [`Payload::crc32`] memoizes
    /// its CRC: the primary and every replica digest the same (interned)
    /// write buffer for their pg_log entries. Any other view is computed
    /// directly.
    pub fn digest(&self) -> u64 {
        if self.is_whole() {
            let Shared { bytes, memo } = &*self.shared;
            return *memo.digest.get_or_init(|| digest_bytes(bytes));
        }
        digest_bytes(self.as_slice())
    }

    /// Copies the view out into an owned `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for Payload {
    fn default() -> Payload {
        Payload::empty()
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Payload {
    /// Keeps the `Vec`'s buffer (shrunk to its length if it has spare
    /// capacity): the bytes are not copied.
    fn from(v: Vec<u8>) -> Payload {
        Payload::whole(v.into_boxed_slice(), CrcMemo::default())
    }
}

impl From<&[u8]> for Payload {
    fn from(s: &[u8]) -> Payload {
        Payload::whole(s.into(), CrcMemo::default())
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Payload> for Vec<u8> {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::hash::Hash for Payload {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({} bytes", self.len)?;
        if let Some(&b) = self.as_slice().first() {
            if self.as_slice().iter().all(|&x| x == b) {
                write!(f, ", fill {b:#04x}")?;
            }
        }
        write!(f, ")")
    }
}

/// The one all-zeroes block every hole of every [`Segments`], and every
/// never-written block a device hands out, is a view of.
pub(crate) fn zero_block() -> &'static Payload {
    static ZERO: OnceLock<Payload> = OnceLock::new();
    ZERO.get_or_init(|| Payload::zeros(CRC_BLOCK))
}

/// An ordered run of [`Payload`] views that read as one byte string: what a
/// store read *is* when the bytes sit in several buffers (one per block the
/// device holds by reference, one per LSM value, one shared zero block for
/// every hole). Nothing is assembled until someone asks for
/// [`Segments::into_payload`]; a digest, a message or a block-wise apply
/// walks the views instead, and every view keeps its buffer's CRC memo.
///
/// There is no `Deref<[u8]>`: the bytes are not contiguous. Equality is by
/// content, whatever the segmentation. A value of zero or one segment
/// allocates nothing.
#[derive(Clone, Default)]
pub struct Segments(Repr);

#[derive(Clone)]
enum Repr {
    /// Exactly one view, never empty.
    One(Payload),
    /// No view, or several; none of them empty. `len` is their total.
    Many { parts: Vec<Payload>, len: usize },
}

impl Default for Repr {
    fn default() -> Repr {
        Repr::Many {
            parts: Vec::new(),
            len: 0,
        }
    }
}

impl Segments {
    /// No bytes (and no allocation).
    pub fn new() -> Segments {
        Segments::default()
    }

    /// Total number of bytes.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::One(part) => part.len(),
            Repr::Many { len, .. } => *len,
        }
    }

    /// True when there are no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn parts(&self) -> &[Payload] {
        match &self.0 {
            Repr::One(part) => std::slice::from_ref(part),
            Repr::Many { parts, .. } => parts,
        }
    }

    /// The views in order; none is empty.
    pub fn iter(&self) -> std::slice::Iter<'_, Payload> {
        self.parts().iter()
    }

    /// Appends a view (an empty one adds nothing).
    #[inline]
    pub fn push(&mut self, part: Payload) {
        if part.is_empty() {
            return;
        }
        match &mut self.0 {
            Repr::Many { parts, .. } if parts.is_empty() => self.0 = Repr::One(part),
            Repr::Many { parts, len } => {
                *len += part.len();
                parts.push(part);
            }
            Repr::One(_) => {
                let Repr::One(first) = std::mem::take(&mut self.0) else {
                    unreachable!("matched above")
                };
                self.0 = Repr::Many {
                    len: first.len() + part.len(),
                    parts: vec![first, part],
                };
            }
        }
    }

    /// Appends `len` zero bytes as views of one shared [`Payload::zeros`]
    /// block: a hole costs no memory, however long, and nobody has to read
    /// it to know it is zero.
    pub fn push_zeros(&mut self, mut len: usize) {
        while len > 0 {
            let take = len.min(CRC_BLOCK);
            self.push(zero_block().slice(0, take));
            len -= take;
        }
    }

    /// The sub-range `[offset, offset + len)` as views of the same buffers.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds [`Segments::len`].
    pub fn slice(&self, offset: usize, len: usize) -> Segments {
        if let Repr::One(part) = &self.0 {
            return part.slice(offset, len).into();
        }
        assert!(
            offset + len <= self.len(),
            "slice [{offset}, +{len}) out of segments of {} bytes",
            self.len()
        );
        let (mut skip, mut want) = (offset, len);
        let mut out = Segments::new();
        for part in self.parts() {
            if want == 0 {
                break;
            }
            if skip >= part.len() {
                skip -= part.len();
                continue;
            }
            let take = (part.len() - skip).min(want);
            out.push(part.slice(skip, take));
            skip = 0;
            want -= take;
        }
        out
    }

    /// The bytes cut into consecutive chunks of `size` (the last may be
    /// shorter). A chunk that lies in one view is a view of the same buffer,
    /// with that buffer's CRC memo; one that straddles views is a copy.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    #[inline]
    pub fn chunks(&self, size: usize) -> impl Iterator<Item = Payload> + '_ {
        assert!(size > 0, "chunk size must be positive");
        let mut walk = Walk {
            parts: self.parts(),
            at: 0,
        };
        let mut left = self.len();
        std::iter::from_fn(move || {
            let want = size.min(left);
            left -= want;
            (want > 0).then(|| walk.take(want))
        })
    }

    /// Copies the bytes into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from [`Segments::len`].
    pub fn copy_to_slice(&self, out: &mut [u8]) {
        assert_eq!(out.len(), self.len(), "destination length");
        let mut done = 0;
        for part in self.parts() {
            out[done..done + part.len()].copy_from_slice(part);
            done += part.len();
        }
    }

    /// The bytes as one payload: the view itself for one segment, one copy
    /// for several.
    #[inline]
    pub fn into_payload(self) -> Payload {
        match self.0 {
            Repr::One(part) => part,
            Repr::Many { len: 0, .. } => Payload::empty(),
            Repr::Many { len, .. } => assemble(len, |buf| self.copy_to_slice(buf)),
        }
    }

    fn eq_bytes(&self, mut other: &[u8]) -> bool {
        self.len() == other.len()
            && self.parts().iter().all(|part| {
                let (head, tail) = other.split_at(part.len());
                other = tail;
                part.as_slice() == head
            })
    }
}

/// A payload of `len` bytes that `fill` cannot fail to write.
fn assemble(len: usize, fill: impl FnOnce(&mut [u8])) -> Payload {
    Payload::build(len, |buf| {
        fill(buf);
        Ok::<_, std::convert::Infallible>(())
    })
    .unwrap_or_else(|never| match never {})
}

/// A position in a run of views, for consuming it front to back.
struct Walk<'a> {
    /// The views not yet used up; the first is used up to `at`.
    parts: &'a [Payload],
    at: usize,
}

impl<'a> Walk<'a> {
    /// The rest of the current view, at most `max` bytes of it.
    #[inline]
    fn run(&mut self, max: usize) -> &'a [u8] {
        let (first, rest) = self.parts.split_first().expect("bytes left");
        let take = (first.len() - self.at).min(max);
        let run = &first.as_slice()[self.at..self.at + take];
        self.at += take;
        if self.at == first.len() {
            (self.parts, self.at) = (rest, 0);
        }
        run
    }

    /// The next `len` bytes, which the caller knows exist: a view when one
    /// part holds them all, a copy otherwise.
    #[inline]
    fn take(&mut self, len: usize) -> Payload {
        let (first, at) = (&self.parts[0], self.at);
        if first.len() - at >= len {
            self.run(len);
            return first.slice(at, len);
        }
        assemble(len, |buf| {
            let mut done = 0;
            while done < len {
                let run = self.run(len - done);
                buf[done..done + run.len()].copy_from_slice(run);
                done += run.len();
            }
        })
    }
}

impl From<Payload> for Segments {
    #[inline]
    fn from(part: Payload) -> Segments {
        if part.is_empty() {
            Segments::new()
        } else {
            Segments(Repr::One(part))
        }
    }
}

impl PartialEq for Segments {
    fn eq(&self, other: &Segments) -> bool {
        let mut theirs = Walk {
            parts: other.parts(),
            at: 0,
        };
        self.len() == other.len()
            && self.iter().all(|part| {
                let mut mine = part.as_slice();
                while !mine.is_empty() {
                    let run = theirs.run(mine.len());
                    if mine[..run.len()] != *run {
                        return false;
                    }
                    mine = &mine[run.len()..];
                }
                true
            })
    }
}

impl Eq for Segments {}

impl PartialEq<[u8]> for Segments {
    fn eq(&self, other: &[u8]) -> bool {
        self.eq_bytes(other)
    }
}

impl PartialEq<Vec<u8>> for Segments {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.eq_bytes(other)
    }
}

impl PartialEq<Payload> for Segments {
    fn eq(&self, other: &Payload) -> bool {
        self.eq_bytes(other)
    }
}

impl fmt::Debug for Segments {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Segments({} bytes in {} views)",
            self.len(),
            self.parts().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_the_allocation() {
        let p: Payload = vec![7u8; 4096].into();
        let q = p.clone();
        assert_eq!(p, q);
        assert!(std::ptr::eq(p.as_slice().as_ptr(), q.as_slice().as_ptr()));
    }

    #[test]
    fn a_payload_is_two_words() {
        assert_eq!(std::mem::size_of::<Payload>(), 16);
        let p: Payload = vec![7u8; 100].into();
        assert_eq!(Arc::strong_count(&p.shared), 1);
        let q = p.clone();
        let s = q.slice(10, 20);
        assert_eq!(Arc::strong_count(&p.shared), 3, "one count per handle");
        drop((q, s));
        assert_eq!(Arc::strong_count(&p.shared), 1);
    }

    #[test]
    fn a_payload_from_a_vec_keeps_its_buffer() {
        let v: Vec<u8> = (0u8..200).collect();
        assert_eq!(v.capacity(), v.len());
        let at = v.as_ptr();
        let p = Payload::from(v);
        assert!(std::ptr::eq(p.as_ptr(), at), "the bytes were copied");
        assert_eq!(p.len(), 200);
        assert_eq!(p[199], 199);
    }

    #[test]
    fn slice_is_zero_copy_and_bounded() {
        let p: Payload = (0u8..100).collect::<Vec<u8>>().into();
        let s = p.slice(10, 20);
        assert_eq!(s.len(), 20);
        assert_eq!(s.as_slice(), &p.as_slice()[10..30]);
        assert!(std::ptr::eq(
            s.as_slice().as_ptr(),
            p.as_slice()[10..].as_ptr()
        ));
        let nested = s.slice(5, 5);
        assert_eq!(nested.as_slice(), &p.as_slice()[15..20]);
    }

    #[test]
    #[should_panic(expected = "out of payload")]
    fn slice_out_of_range_panics() {
        let p: Payload = vec![0u8; 8].into();
        let _ = p.slice(4, 8);
    }

    #[test]
    fn equality_is_by_content() {
        let a: Payload = vec![1, 2, 3].into();
        let b = Payload::from(vec![0, 1, 2, 3]).slice(1, 3);
        assert_eq!(a, b);
        assert_eq!(a, vec![1, 2, 3]);
    }

    #[test]
    fn crc32_is_memoized_for_full_views_and_exact_for_slices() {
        let p: Payload = (0u8..=255).cycle().take(4096).collect::<Vec<u8>>().into();
        assert_eq!(p.crc32(), crc32(&p));
        assert_eq!(p.clone().crc32(), crc32(&p), "memo shared by clones");
        let s = p.slice(100, 1000);
        assert_eq!(s.crc32(), crc32(&s), "a partial view never reads the memo");
        assert_eq!(p.slice(0, 4096).crc32(), crc32(&p));
    }

    #[test]
    fn digest_is_memoized_for_full_views_and_exact_for_slices() {
        let p: Payload = (0u8..=255).cycle().take(5000).collect::<Vec<u8>>().into();
        assert!(p.shared.memo.digest.get().is_none(), "computed when asked");
        assert_eq!(p.digest(), digest_bytes(&p));
        assert_eq!(p.shared.memo.digest.get(), Some(&digest_bytes(&p)));
        // Poisoned: the whole buffer, through any view of all of it, answers
        // from the memo; a partial view never reads it.
        let q: Payload = p.to_vec().into();
        q.shared.memo.digest.set(0xBAD).unwrap();
        assert_eq!(q.clone().digest(), 0xBAD);
        assert_eq!(q.slice(0, q.len()).digest(), 0xBAD);
        for (at, len) in [(0, 4999), (1, 4999), (100, 1000), (7, 0)] {
            let s = q.slice(at, len);
            assert_eq!(s.digest(), digest_bytes(&s), "[{at}, +{len})");
        }
    }

    fn ramp(blocks: usize, extra: usize) -> Payload {
        (0..blocks * CRC_BLOCK + extra)
            .map(|i| (i / 3) as u8 ^ (i >> 11) as u8)
            .collect::<Vec<u8>>()
            .into()
    }

    fn filled_cells(p: &Payload) -> Option<usize> {
        let cells = p.shared.memo.blocks.get()?;
        Some(
            cells
                .iter()
                .filter(|c| c.load(Ordering::Relaxed) != 0)
                .count(),
        )
    }

    #[test]
    fn block_memo_matches_a_scan_for_every_aligned_block() {
        // (A buffer of exactly one block is its own full view: see below.)
        for (blocks, extra) in [(1, 100), (3, 0), (3, 4095), (1024, 0)] {
            let p = ramp(blocks, extra);
            for round in 0..2 {
                for i in 0..blocks {
                    let view = p.slice(i * CRC_BLOCK, CRC_BLOCK);
                    assert_eq!(view.crc32(), crc32(&view), "block {i}, round {round}");
                }
                assert_eq!(filled_cells(&p), Some(blocks));
            }
            assert!(
                p.shared.memo.full.get().is_none(),
                "block views leave it alone"
            );
        }
    }

    #[test]
    fn block_memo_is_shared_by_clones_and_by_independent_slices() {
        let p = ramp(3, 0);
        let q = p.clone();
        let whole_then_block = p.slice(0, 3 * CRC_BLOCK).slice(CRC_BLOCK, CRC_BLOCK);
        let tail_then_block = q.slice(CRC_BLOCK, 2 * CRC_BLOCK).slice(0, CRC_BLOCK);
        assert!(
            p.shared.memo.blocks.get().is_none(),
            "slicing allocates nothing"
        );
        assert_eq!(
            whole_then_block.crc32(),
            crc32(&p[CRC_BLOCK..2 * CRC_BLOCK])
        );
        assert_eq!(filled_cells(&q), Some(1), "the clone sees the filled cell");
        // Poison the cell: a second, independently made view of the same
        // block must answer from the memo, not from a new scan.
        let cell = &p.shared.memo.blocks.get().unwrap()[1];
        cell.store(CRC_KNOWN | 0xDEAD_BEEF, Ordering::Relaxed);
        assert_eq!(tail_then_block.crc32(), 0xDEAD_BEEF);
        assert_eq!(q.slice(0, CRC_BLOCK).crc32(), crc32(&p[..CRC_BLOCK]));
    }

    #[test]
    fn block_memo_is_only_for_aligned_block_sized_views() {
        let p = ramp(3, 0);
        let views = [
            p.slice(1, CRC_BLOCK),
            p.slice(CRC_BLOCK - 1, CRC_BLOCK),
            p.slice(0, CRC_BLOCK - 1),
            p.slice(CRC_BLOCK, CRC_BLOCK + 1),
            p.slice(0, 2 * CRC_BLOCK),
            p.slice(CRC_BLOCK, 0),
        ];
        for view in &views {
            assert_eq!(view.crc32(), crc32(view));
        }
        assert!(p.shared.memo.blocks.get().is_none(), "no table was made");
        assert!(p.shared.memo.full.get().is_none());
        // A full view uses the full memo even when it is one aligned block.
        let one = ramp(1, 0);
        assert_eq!(one.slice(0, CRC_BLOCK).crc32(), crc32(&one));
        assert!(one.shared.memo.full.get().is_some());
        assert!(one.shared.memo.blocks.get().is_none());
        assert_eq!(p.crc32(), crc32(&p));
        assert!(p.shared.memo.full.get().is_some());
        assert!(p.shared.memo.blocks.get().is_none());
    }

    #[test]
    fn build_fills_in_place_and_propagates_errors() {
        let p = Payload::build(5000, |buf| {
            assert!(buf.iter().all(|&b| b == 0), "starts zeroed");
            buf[4096..].fill(7);
            Ok::<_, ()>(())
        })
        .unwrap();
        assert_eq!(p.len(), 5000);
        assert_eq!(&p[4090..4100], &[0, 0, 0, 0, 0, 0, 7, 7, 7, 7]);
        assert_eq!(p.crc32(), crc32(&p));
        assert_eq!(Payload::build(8, |_| Err("nope")), Err("nope"));
        assert!(Payload::build(0, |_| Ok::<_, ()>(())).unwrap().is_empty());
    }

    #[test]
    fn empty_and_default() {
        assert!(Payload::empty().is_empty());
        assert_eq!(Payload::default().len(), 0);
        assert_eq!(Payload::default().to_vec(), Vec::<u8>::new());
    }

    #[test]
    fn one_segment_is_the_payload_itself() {
        // Four words at most in every message that carries it (the list of
        // several views and their total), and a round trip through it is
        // the same view of the same buffer.
        assert!(std::mem::size_of::<Segments>() <= 32);
        let p = ramp(2, 0).slice(CRC_BLOCK, CRC_BLOCK);
        let segs = Segments::from(p.clone());
        assert!(matches!(segs.0, Repr::One(_)), "nothing allocated");
        assert_eq!(segs.iter().count(), 1);
        let sliced = segs.slice(0, CRC_BLOCK);
        assert!(matches!(sliced.0, Repr::One(_)));
        let back = sliced.into_payload();
        assert!(std::ptr::eq(back.as_ptr(), p.as_ptr()));
        // Empty parts vanish; an empty value is no view at all.
        let mut none = Segments::from(Payload::empty());
        none.push(p.slice(7, 0));
        assert!(none.is_empty() && none.iter().next().is_none());
        assert_eq!(none, Segments::new());
        assert!(none.into_payload().is_empty());
    }

    #[test]
    fn zeros_are_views_of_one_shared_block() {
        let mut segs = Segments::new();
        segs.push_zeros(3 * CRC_BLOCK + 5);
        assert_eq!(segs.len(), 3 * CRC_BLOCK + 5);
        assert_eq!(segs, vec![0u8; 3 * CRC_BLOCK + 5]);
        let base = zero_block().as_ptr();
        assert!(segs
            .iter()
            .all(|part| std::ptr::eq(part.as_ptr(), base) && part.is_zeros()));
    }

    #[test]
    fn zeros_say_so_in_every_view_and_know_their_crc() {
        for n in [0, 1, 100, CRC_BLOCK, 3 * CRC_BLOCK + 5] {
            let flat = vec![0u8; n];
            let z = Payload::zeros(n);
            assert!(z.is_zeros() && z == flat);
            assert_eq!(
                z.shared.memo.full.get(),
                Some(&crc32(&flat)),
                "from the start"
            );
            assert_eq!(z.crc32(), crc32(&flat));
            let s = z.slice(n / 3, n / 2);
            assert!(s.is_zeros() && s.clone().is_zeros());
            assert_eq!(s.crc32(), crc32(&flat[..n / 2]));
        }
        let block = Payload::zeros(2 * CRC_BLOCK).slice(CRC_BLOCK, CRC_BLOCK);
        assert_eq!(block.crc32(), crc32(&[0u8; CRC_BLOCK]));
        // The flag is set where zeros are made, never by looking.
        assert!(!Payload::from(vec![0u8; CRC_BLOCK]).is_zeros());
        assert!(!Payload::from(&[0u8; 8][..]).is_zeros());
        assert!(!Payload::build(8, |_| Ok::<_, ()>(())).unwrap().is_zeros());
        assert!(!Payload::empty().is_zeros());
    }

    /// What a receiver does with a pushed object: the sender's store read
    /// it as one view per block (each verified there, so each memo cell is
    /// warm), and the apply cuts the run it writes into blocks and asks each
    /// for its CRC. Poisoned cells prove the answers come from the memo.
    #[test]
    fn chunks_of_block_views_answer_from_the_senders_memo() {
        let backing = ramp(4, 0);
        // Independent views, as four device reads return them.
        let object: Segments = {
            let mut segs = Segments::new();
            for i in 0..4 {
                segs.push(backing.clone().slice(i * CRC_BLOCK, CRC_BLOCK));
            }
            segs
        };
        for part in object.iter() {
            part.crc32(); // the sender's verify_block
        }
        for (i, cell) in backing.shared.memo.blocks.get().unwrap().iter().enumerate() {
            cell.store(CRC_KNOWN | (0xBAD0 + i as u64), Ordering::Relaxed);
        }
        let sent = object.clone(); // the message
        let run = sent.slice(CRC_BLOCK, 3 * CRC_BLOCK);
        let crcs: Vec<u32> = run.chunks(CRC_BLOCK).map(|blk| blk.crc32()).collect();
        assert_eq!(crcs, [0xBAD1, 0xBAD2, 0xBAD3], "no block was scanned");
        // A chunk that straddles two views is a fresh copy and does scan.
        let skewed = sent.slice(100, 2 * CRC_BLOCK);
        for (i, blk) in skewed.chunks(CRC_BLOCK).enumerate() {
            let at = 100 + i * CRC_BLOCK;
            assert_eq!(blk.crc32(), crc32(&backing[at..at + CRC_BLOCK]));
        }
    }

    mod model {
        use super::*;
        use proptest::prelude::*;

        /// Parts of a value under test: a buffer, and the view of it used.
        fn parts() -> impl Strategy<Value = Vec<(usize, usize, usize, u8)>> {
            let len = || {
                prop_oneof![
                    Just(0usize),
                    1..40usize,
                    (1..4usize).prop_map(|b| b * CRC_BLOCK),
                    1..10_000usize
                ]
            };
            proptest::collection::vec((0..5000usize, len(), 0..50usize, any::<u8>()), 0..8)
        }

        fn build(parts: &[(usize, usize, usize, u8)]) -> (Segments, Vec<u8>) {
            let (mut segs, mut flat) = (Segments::new(), Vec::new());
            for &(lead, len, trail, salt) in parts {
                let backing: Payload = (0..lead + len + trail)
                    .map(|i| (i as u8).wrapping_mul(37).wrapping_add(salt))
                    .collect::<Vec<_>>()
                    .into();
                let view = backing.slice(lead, len);
                flat.extend_from_slice(&view);
                segs.push(view);
            }
            (segs, flat)
        }

        proptest! {
            /// `Segments` against the flat `Vec<u8>` it stands for: length,
            /// equality in every direction, `slice`, `chunks`,
            /// `copy_to_slice`, `into_payload`, `From<Payload>` — for
            /// empty, single and many views, aligned or not.
            #[test]
            fn segments_match_a_flat_byte_vector(
                a in parts(),
                b in parts(),
                cut in (0..20_000usize, 0..20_000usize),
                chunk in prop_oneof![Just(CRC_BLOCK), 1..6000usize],
            ) {
                let (segs, flat) = build(&a);
                prop_assert_eq!(segs.len(), flat.len());
                prop_assert_eq!(segs.is_empty(), flat.is_empty());
                prop_assert!(segs.iter().all(|part| !part.is_empty()));
                let (as_payload, as_one) = (Payload::from(flat.clone()), Segments::from(Payload::from(flat.clone())));
                prop_assert!(segs == flat && segs == flat[..] && segs == as_payload && segs == as_one);
                prop_assert!(segs.clone().into_payload() == flat);
                let mut copy = vec![0xEE; flat.len()];
                segs.copy_to_slice(&mut copy);
                prop_assert!(copy == flat);

                // Another value: equal exactly when the bytes are.
                let (other, other_flat) = build(&b);
                prop_assert_eq!(segs == other, flat == other_flat);
                prop_assert_eq!(segs == other_flat, flat == other_flat);
                if !flat.is_empty() {
                    let mut off_by_one = flat.clone();
                    *off_by_one.last_mut().unwrap() ^= 1;
                    prop_assert!(segs != off_by_one);
                    let off_by_one = Segments::from(Payload::from(off_by_one));
                    prop_assert!(segs != off_by_one);
                }

                let from = cut.0 % (flat.len() + 1);
                let len = cut.1 % (flat.len() - from + 1);
                let sub = segs.slice(from, len);
                prop_assert!(sub == flat[from..from + len]);
                prop_assert!(sub.iter().count() <= segs.iter().count());
                prop_assert!(sub.slice(0, len) == sub);

                let chunks: Vec<Payload> = segs.chunks(chunk).collect();
                prop_assert_eq!(chunks.len(), flat.len().div_ceil(chunk));
                for (got, want) in chunks.iter().zip(flat.chunks(chunk)) {
                    prop_assert!(got == &want.to_vec());
                    prop_assert_eq!(got.crc32(), crc32(want));
                }
            }
        }
    }
}
