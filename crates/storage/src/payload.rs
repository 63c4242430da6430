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

/// Granularity of the per-block CRC memo: the block size of both stores.
const CRC_BLOCK: usize = 4096;

/// Tag bit of a filled [`CrcMemo::blocks`] cell (a CRC may itself be 0).
const CRC_KNOWN: u64 = 1 << 32;

/// Lazily computed CRC-32s of one backing buffer, shared by every clone and
/// slice of it. A hit is a proof, not a guess: the buffer is immutable.
#[derive(Default)]
struct CrcMemo {
    /// Of the whole buffer.
    full: OnceLock<u32>,
    /// Of each [`CRC_BLOCK`]-aligned block of the buffer, `CRC_KNOWN | crc`
    /// once computed. Allocated by the first block-sized aligned view that
    /// asks, so buffers that are never read by block pay nothing.
    blocks: OnceLock<Box<[AtomicU64]>>,
}

/// An immutable, cheaply-cloneable, slice-able byte buffer.
///
/// Cloning bumps a refcount; slicing shares the same allocation. Equality
/// and hashing are by byte content, so types embedding a `Payload` can keep
/// their derived `PartialEq`/`Eq` semantics.
#[derive(Clone)]
pub struct Payload {
    buf: Arc<[u8]>,
    off: usize,
    len: usize,
    /// Lets hot paths that checksum the same (interned, refcounted) buffer
    /// over and over pay the scan once. See [`Payload::crc32`].
    checksum: Arc<CrcMemo>,
}

impl Payload {
    /// An empty payload (no allocation is shared, but none is needed).
    pub fn empty() -> Payload {
        Payload {
            buf: Arc::from([] as [u8; 0]),
            off: 0,
            len: 0,
            checksum: Arc::default(),
        }
    }

    /// Number of bytes in this view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bytes of this view.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.off..self.off + self.len]
    }

    /// A zero-copy sub-range view sharing the same allocation.
    ///
    /// # Panics
    ///
    /// Panics if `offset + len` exceeds this view's length.
    pub fn slice(&self, offset: usize, len: usize) -> Payload {
        assert!(
            offset + len <= self.len,
            "slice [{offset}, +{len}) out of payload of {} bytes",
            self.len
        );
        Payload {
            buf: Arc::clone(&self.buf),
            off: self.off + offset,
            len,
            checksum: Arc::clone(&self.checksum),
        }
    }

    /// A payload of `len` bytes written in place: `fill` gets the zeroed
    /// buffer before anyone else can see it. For results assembled from
    /// several sources, which would otherwise be staged in a `Vec` and
    /// copied once more into the shared allocation.
    ///
    /// # Errors
    ///
    /// Whatever `fill` returns; the buffer is dropped.
    pub fn build<E>(
        len: usize,
        fill: impl FnOnce(&mut [u8]) -> Result<(), E>,
    ) -> Result<Payload, E> {
        let mut buf: Arc<[u8]> = std::iter::repeat_n(0u8, len).collect();
        fill(Arc::get_mut(&mut buf).expect("not shared yet"))?;
        Ok(Payload {
            buf,
            off: 0,
            len,
            checksum: Arc::default(),
        })
    }

    /// The CRC-32 ([`crate::crc::crc32`]) of this view, memoized when the
    /// view covers its whole backing buffer (replication fans the same
    /// full-buffer payload to every replica, and workload generators intern
    /// their fill patterns) or exactly one 4 KiB-aligned block of it (the
    /// stores checksum, keep and re-verify an object-sized buffer block by
    /// block). Any other view is computed directly.
    pub fn crc32(&self) -> u32 {
        if self.off == 0 && self.len == self.buf.len() {
            return *self.checksum.full.get_or_init(|| crc32(&self.buf));
        }
        if self.len != CRC_BLOCK || !self.off.is_multiple_of(CRC_BLOCK) {
            return crc32(self.as_slice());
        }
        let cells = self.checksum.blocks.get_or_init(|| {
            (0..self.buf.len() / CRC_BLOCK)
                .map(|_| AtomicU64::new(0))
                .collect()
        });
        // Relaxed: a cell publishes nothing but its own value, and a reader
        // that misses a concurrent fill only repeats the scan.
        let cell = &cells[self.off / CRC_BLOCK];
        let known = cell.load(Ordering::Relaxed);
        if known != 0 {
            return known as u32;
        }
        let crc = crc32(self.as_slice());
        cell.store(CRC_KNOWN | crc as u64, Ordering::Relaxed);
        crc
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
    fn from(v: Vec<u8>) -> Payload {
        let len = v.len();
        Payload {
            buf: Arc::from(v),
            off: 0,
            len,
            checksum: Arc::default(),
        }
    }
}

impl From<&[u8]> for Payload {
    fn from(s: &[u8]) -> Payload {
        Payload {
            buf: Arc::from(s),
            off: 0,
            len: s.len(),
            checksum: Arc::default(),
        }
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

    fn ramp(blocks: usize, extra: usize) -> Payload {
        (0..blocks * CRC_BLOCK + extra)
            .map(|i| (i / 3) as u8 ^ (i >> 11) as u8)
            .collect::<Vec<u8>>()
            .into()
    }

    fn filled_cells(p: &Payload) -> Option<usize> {
        let cells = p.checksum.blocks.get()?;
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
                p.checksum.full.get().is_none(),
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
            p.checksum.blocks.get().is_none(),
            "slicing allocates nothing"
        );
        assert_eq!(
            whole_then_block.crc32(),
            crc32(&p[CRC_BLOCK..2 * CRC_BLOCK])
        );
        assert_eq!(filled_cells(&q), Some(1), "the clone sees the filled cell");
        // Poison the cell: a second, independently made view of the same
        // block must answer from the memo, not from a new scan.
        let cell = &p.checksum.blocks.get().unwrap()[1];
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
        assert!(p.checksum.blocks.get().is_none(), "no table was made");
        assert!(p.checksum.full.get().is_none());
        // A full view uses the full memo even when it is one aligned block.
        let one = ramp(1, 0);
        assert_eq!(one.slice(0, CRC_BLOCK).crc32(), crc32(&one));
        assert!(one.checksum.full.get().is_some());
        assert!(one.checksum.blocks.get().is_none());
        assert_eq!(p.crc32(), crc32(&p));
        assert!(p.checksum.full.get().is_some());
        assert!(p.checksum.blocks.get().is_none());
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
}
