//! Store-level key/value records, one allocation each.
//!
//! [`CosObjectStore`](crate::CosObjectStore) keeps its pg log and
//! `object_info_t` records in memory (§IV-C). A map of separately allocated
//! key and value `Vec`s pays two allocations and a 48-byte bucket per record;
//! a set of [`MetaRecord`]s pays one allocation and a two-word bucket.

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};

/// Bytes of the little-endian key length that opens every record.
const LEN_BYTES: usize = 4;

/// One key/value record in one allocation, laid out as
/// `[key length (u32 LE) | key | value]`.
///
/// Hashing, equality and `Borrow<[u8]>` go by the key bytes only, so a hash
/// set of records is a map from key to value that a bare `&[u8]` key looks
/// up, and `HashSet::replace` overwrites a record's value.
#[derive(Debug)]
pub(crate) struct MetaRecord(Box<[u8]>);

impl MetaRecord {
    /// Copies `key` and `value` into one exactly sized allocation.
    ///
    /// # Panics
    ///
    /// If the key is 4 GiB or longer.
    pub(crate) fn new(key: &[u8], value: &[u8]) -> Self {
        let key_len = u32::try_from(key.len()).expect("a meta key is shorter than 4 GiB");
        let mut bytes = Vec::with_capacity(LEN_BYTES + key.len() + value.len());
        bytes.extend_from_slice(&key_len.to_le_bytes());
        bytes.extend_from_slice(key);
        bytes.extend_from_slice(value);
        MetaRecord(bytes.into_boxed_slice())
    }

    /// The record's key and value.
    fn split(&self) -> (&[u8], &[u8]) {
        let (len, rest) = self.0.split_at(LEN_BYTES);
        let key_len = u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize;
        rest.split_at(key_len)
    }

    /// The key bytes.
    pub(crate) fn key(&self) -> &[u8] {
        self.split().0
    }

    /// The value bytes.
    pub(crate) fn value(&self) -> &[u8] {
        self.split().1
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
    fn a_record_is_two_words() {
        assert_eq!(
            std::mem::size_of::<MetaRecord>(),
            2 * std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn key_and_value_round_trip_in_one_exact_allocation() {
        let value: Vec<u8> = (0..180).collect();
        let r = MetaRecord::new(b"pglog.3.7", &value);
        assert_eq!(r.key(), b"pglog.3.7");
        assert_eq!(r.value(), &value[..]);
        assert_eq!(r.0.len(), LEN_BYTES + 9 + 180);
        let empty = MetaRecord::new(b"", b"");
        assert_eq!((empty.key(), empty.value()), (&b""[..], &b""[..]));
    }

    #[test]
    fn records_compare_and_hash_by_key_alone() {
        let hash = |r: &MetaRecord| FxBuildHasher::default().hash_one(r);
        let (a, b) = (MetaRecord::new(b"k", b"one"), MetaRecord::new(b"k", b"two"));
        assert_eq!(a, b);
        assert_eq!(hash(&a), hash(&b));
        let key: &[u8] = b"k";
        assert_eq!(
            hash(&a),
            FxBuildHasher::default().hash_one(key),
            "a borrowed key hashes like its record"
        );
        assert_ne!(a, MetaRecord::new(b"k1", b"one"));
    }
}
