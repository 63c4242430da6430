//! Store-level key/value records, each value kept by reference.
//!
//! [`CosObjectStore`](crate::CosObjectStore) keeps its pg log and
//! `object_info_t` records in memory (§IV-C). A record keeps the `MetaPut`'s
//! [`Key`], which the set hashes and compares and which holds a short key
//! (every `pglog.G.SEQ` key is one) in itself, and the [`Payload`] it carried
//! as it came: the value is one buffer however many replicas, op logs and
//! messages hold it, and the store never copies it. A record with a short
//! key allocates nothing.

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};

use rablock_storage::{Key, Payload};

/// One key/value record: its key and a view of the value.
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
    /// A record of `key` and of `value`, by reference.
    pub(crate) fn new(key: Key, value: Payload) -> Self {
        MetaRecord { key, value }
    }

    /// The key bytes.
    pub(crate) fn key(&self) -> &[u8] {
        &self.key
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
        let r = MetaRecord::new(key[..].into(), value.clone());
        assert_eq!(r.key(), b"pglog.3.7");
        assert!(!std::ptr::eq(r.key().as_ptr(), key.as_ptr()), "key shared");
        assert!(
            std::ptr::eq(r.value().as_ptr(), value.as_ptr()),
            "value copied"
        );
        let empty = MetaRecord::new(b"".into(), Payload::empty());
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
        assert_eq!(std::mem::size_of::<MetaRecord>(), 40);
        for key in [&b""[..], b"pglog.3.7", b"pglog.4095.99999999999"] {
            assert!(key.len() <= Key::INLINE);
            let r = MetaRecord::new(key.into(), Payload::empty());
            assert_eq!(r.key(), key);
            assert!(r.key.is_inline());
            assert!(lies_within(r.key(), &r), "{key:?} was not inline");
        }
    }

    #[test]
    fn a_long_key_round_trips_through_the_heap() {
        let hash = |r: &MetaRecord| FxBuildHasher::default().hash_one(r);
        let key: Vec<u8> = (b'a'..).take(Key::INLINE + 1).collect();
        let r = MetaRecord::new(key[..].into(), b"v"[..].into());
        assert!(!r.key.is_inline());
        assert!(!lies_within(r.key(), &r));
        assert_eq!(r.key(), &key[..]);
        assert_eq!(hash(&r), FxBuildHasher::default().hash_one(&key[..]));
        let borrowed: &[u8] = r.borrow();
        assert_eq!(borrowed, &key[..]);
        // One byte shorter is inline, and a different key.
        let short = MetaRecord::new(key[..Key::INLINE].into(), b"v"[..].into());
        assert!(short.key.is_inline());
        assert_ne!(r, short);
        assert_eq!(r, MetaRecord::new(key[..].into(), Payload::empty()));
    }

    #[test]
    fn records_compare_and_hash_by_key_alone() {
        let hash = |r: &MetaRecord| FxBuildHasher::default().hash_one(r);
        let record = |key: &[u8], value: &[u8]| MetaRecord::new(key.into(), value.into());
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
