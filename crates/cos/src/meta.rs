//! Store-level key/value records, each value kept by reference.
//!
//! [`CosObjectStore`](crate::CosObjectStore) keeps its pg log and
//! `object_info_t` records in memory (§IV-C). A record copies its key, which
//! the set hashes and compares, and keeps the [`Payload`] the `MetaPut`
//! carried as it came: the value is one buffer however many replicas, op
//! logs and messages hold it, and the store never copies it.

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};

use rablock_storage::Payload;

/// One key/value record: a copy of the key and a view of the value.
///
/// Hashing, equality and `Borrow<[u8]>` go by the key bytes only, so a hash
/// set of records is a map from key to value that a bare `&[u8]` key looks
/// up, and `HashSet::replace` overwrites a record's value.
#[derive(Debug)]
pub(crate) struct MetaRecord {
    key: Box<[u8]>,
    value: Payload,
}

impl MetaRecord {
    /// Copies `key` and keeps `value` by reference.
    pub(crate) fn new(key: &[u8], value: Payload) -> Self {
        MetaRecord {
            key: key.into(),
            value,
        }
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
