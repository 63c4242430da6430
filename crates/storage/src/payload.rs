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
use std::sync::{Arc, OnceLock};

use crate::crc::crc32;

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
    /// Lazily computed CRC-32 of the *full* backing buffer, shared by all
    /// clones. Lets hot paths that checksum the same (interned, refcounted)
    /// buffer over and over pay the scan once. See [`Payload::crc32`].
    checksum: Arc<OnceLock<u32>>,
}

impl Payload {
    /// An empty payload (no allocation is shared, but none is needed).
    pub fn empty() -> Payload {
        Payload {
            buf: Arc::from([] as [u8; 0]),
            off: 0,
            len: 0,
            checksum: Arc::new(OnceLock::new()),
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

    /// The CRC-32 ([`crate::crc::crc32`]) of this view, memoized when the
    /// view covers its whole backing buffer (the hot case: replication fans
    /// the same full-buffer payload to every replica, and workload
    /// generators intern their fill patterns). Partial views are computed
    /// directly — the memo slot belongs to the full buffer's bytes.
    pub fn crc32(&self) -> u32 {
        if self.off == 0 && self.len == self.buf.len() {
            *self.checksum.get_or_init(|| crc32(&self.buf))
        } else {
            crc32(self.as_slice())
        }
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
            checksum: Arc::new(OnceLock::new()),
        }
    }
}

impl From<&[u8]> for Payload {
    fn from(s: &[u8]) -> Payload {
        Payload {
            buf: Arc::from(s),
            off: 0,
            len: s.len(),
            checksum: Arc::new(OnceLock::new()),
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

    #[test]
    fn empty_and_default() {
        assert!(Payload::empty().is_empty());
        assert_eq!(Payload::default().len(), 0);
        assert_eq!(Payload::default().to_vec(), Vec::<u8>::new());
    }
}
