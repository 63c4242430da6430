//! Store-level key/value records, each value kept by reference.
//!
//! [`CosObjectStore`](crate::CosObjectStore) keeps its pg log and
//! `object_info_t` records in memory (§IV-C). A record copies its key, which
//! the set hashes and compares, into itself when it is short (every
//! `pglog.G.SEQ` key is), and keeps the [`Payload`] the `MetaPut` carried as
//! it came: the value is one buffer however many replicas, op logs and
//! messages hold it, and the store never copies it. A record with a short
//! key allocates nothing.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};

use rablock_storage::Payload;

/// Longest key a record holds inline: a [`Key`] is three words, less its
/// tag and length bytes.
const INLINE_KEY: usize = 22;

/// A record's copy of its key: in the record itself when it fits, on the
/// heap otherwise.
enum Key {
    Inline { len: u8, bytes: [u8; INLINE_KEY] },
    Heap(Box<[u8]>),
}

impl Key {
    fn new(key: &[u8]) -> Key {
        if key.len() <= INLINE_KEY {
            let mut bytes = [0; INLINE_KEY];
            bytes[..key.len()].copy_from_slice(key);
            Key::Inline {
                len: key.len() as u8,
                bytes,
            }
        } else {
            Key::Heap(key.into())
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match self {
            Key::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Key::Heap(bytes) => bytes,
        }
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_bytes().fmt(f)
    }
}

/// One key/value record: a copy of the key and a view of the value.
///
/// Hashing, equality and `Borrow<[u8]>` go by the key bytes only, so a hash
/// set of records is a map from key to value that a bare `&[u8]` key looks
/// up, and `HashSet::replace` overwrites a record's value.
#[derive(Debug)]
pub(crate) struct MetaRecord {
    key: Key,
    value: Payload,
}

impl MetaRecord {
    /// Copies `key` (inline if it is at most 22 bytes) and keeps `value` by
    /// reference.
    pub(crate) fn new(key: &[u8], value: Payload) -> Self {
        MetaRecord {
            key: Key::new(key),
            value,
        }
    }

    /// The key bytes.
    pub(crate) fn key(&self) -> &[u8] {
        self.key.as_bytes()
    }

    /// The value, a view of the buffer the `MetaPut` carried.
    pub(crate) fn value(&self) -> &Payload {
        &self.value
    }
}

impl Hash for MetaRecord {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Must equal `<[u8] as Hash>`, which lookups through `Borrow` use.
        self.key().hash(state);
    }
}

impl PartialEq for MetaRecord {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for MetaRecord {}

impl Borrow<[u8]> for MetaRecord {
    fn borrow(&self) -> &[u8] {
        self.key()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rablock_storage::FxBuildHasher;
    use std::hash::BuildHasher;

    #[test]
    fn a_record_copies_its_key_and_keeps_its_value() {
        let key = b"pglog.3.7".to_vec();
        let value: Payload = (0..180).collect::<Vec<u8>>().into();
        let r = MetaRecord::new(&key, value.clone());
        assert_eq!(r.key(), b"pglog.3.7");
        assert!(!std::ptr::eq(r.key().as_ptr(), key.as_ptr()), "key shared");
        assert!(
            std::ptr::eq(r.value().as_ptr(), value.as_ptr()),
            "value copied"
        );
        let empty = MetaRecord::new(b"", Payload::empty());
        assert_eq!((empty.key(), &empty.value()[..]), (&b""[..], &b""[..]));
    }

    /// True when `inner` lies within the bytes of `outer` itself.
    fn lies_within<T>(inner: &[u8], outer: &T) -> bool {
        let at = outer as *const T as usize;
        let range = at..at + std::mem::size_of::<T>();
        range.contains(&(inner.as_ptr() as usize)) && inner.len() <= range.len()
    }

    #[test]
    fn a_record_is_five_words_and_holds_a_short_key_inline() {
        assert_eq!(std::mem::size_of::<Key>(), 24);
        assert_eq!(std::mem::size_of::<MetaRecord>(), 40);
        for key in [&b""[..], b"pglog.3.7", b"pglog.4095.99999999999"] {
            assert!(key.len() <= INLINE_KEY);
            let r = MetaRecord::new(key, Payload::empty());
            assert_eq!(r.key(), key);
            assert!(matches!(r.key, Key::Inline { .. }));
            assert!(lies_within(r.key(), &r), "{key:?} was not inline");
        }
    }

    #[test]
    fn a_long_key_round_trips_through_the_heap() {
        let hash = |r: &MetaRecord| FxBuildHasher::default().hash_one(r);
        let key: Vec<u8> = (b'a'..).take(INLINE_KEY + 1).collect();
        let r = MetaRecord::new(&key, b"v"[..].into());
        assert!(matches!(r.key, Key::Heap(_)));
        assert!(!lies_within(r.key(), &r));
        assert_eq!(r.key(), &key[..]);
        assert_eq!(hash(&r), FxBuildHasher::default().hash_one(&key[..]));
        let borrowed: &[u8] = r.borrow();
        assert_eq!(borrowed, &key[..]);
        // One byte shorter is inline, and a different key.
        let short = MetaRecord::new(&key[..INLINE_KEY], b"v"[..].into());
        assert!(matches!(short.key, Key::Inline { .. }));
        assert_ne!(r, short);
        assert_eq!(r, MetaRecord::new(&key, Payload::empty()));
    }

    #[test]
    fn records_compare_and_hash_by_key_alone() {
        let hash = |r: &MetaRecord| FxBuildHasher::default().hash_one(r);
        let record = |key: &[u8], value: &[u8]| MetaRecord::new(key, value.into());
        let (a, b) = (record(b"k", b"one"), record(b"k", b"two"));
        assert_eq!(a, b);
        assert_eq!(hash(&a), hash(&b));
        let key: &[u8] = b"k";
        assert_eq!(
            hash(&a),
            FxBuildHasher::default().hash_one(key),
            "a borrowed key hashes like its record"
        );
        assert_ne!(a, record(b"k1", b"one"));
    }
}
