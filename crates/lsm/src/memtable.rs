//! In-memory sorted write buffer.

use std::collections::BTreeMap;

use rablock_storage::{Key, Payload};

/// A sorted in-memory buffer of recent writes. `None` values are tombstones.
/// Values are shared with whoever wrote them (a refcount, not a copy); keys
/// are [`Key`]s, so a short one sits in its node and an insert's compares
/// read no other memory.
#[derive(Debug, Default, Clone)]
pub struct Memtable {
    entries: BTreeMap<Key, Option<Payload>>,
    /// Drives the seal decision, and through it every flush, compaction and
    /// traced device I/O: the arithmetic in [`Memtable::insert`] is
    /// load-bearing for the simulated-result fingerprints, including its
    /// quirk that an overwrite counts the key again (only the old *value*
    /// is subtracted), so a memtable of hot keys seals earlier than its
    /// resident bytes say. Do not "fix" it without re-recording them.
    approx_bytes: usize,
}

impl Memtable {
    /// Creates an empty memtable.
    pub fn new() -> Self {
        Memtable::default()
    }

    /// Inserts or overwrites `key`. A `None` value records a deletion.
    pub fn insert(&mut self, key: Key, value: Option<Payload>) {
        let add = key.len() + value.as_ref().map_or(0, Payload::len) + 24;
        if let Some(old) = self.entries.insert(key, value) {
            self.approx_bytes = self.approx_bytes.saturating_sub(old.map_or(0, |v| v.len()));
            self.approx_bytes += add - 24; // key re-counted above; drop the fixed part once
        } else {
            self.approx_bytes += add;
        }
    }

    /// Looks up `key`. `Some(None)` means "deleted here"; `None` means
    /// "not present in this memtable, look further down".
    pub fn get(&self, key: &[u8]) -> Option<Option<&Payload>> {
        self.entries.get(key).map(Option::as_ref)
    }

    /// Approximate resident bytes (keys + values + per-entry overhead).
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// Number of entries (tombstones included).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &Option<Payload>)> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_get_overwrite() {
        let mut m = Memtable::new();
        m.insert(b"a".into(), Some(b"1".to_vec().into()));
        assert_eq!(m.get(b"a"), Some(Some(&b"1".to_vec().into())));
        m.insert(b"a".into(), Some(b"2".to_vec().into()));
        assert_eq!(m.get(b"a"), Some(Some(&b"2".to_vec().into())));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn tombstone_is_distinguishable_from_absent() {
        let mut m = Memtable::new();
        m.insert(b"gone".into(), None);
        assert_eq!(m.get(b"gone"), Some(None));
        assert_eq!(m.get(b"never"), None);
    }

    #[test]
    fn size_tracks_growth() {
        let mut m = Memtable::new();
        assert_eq!(m.approx_bytes(), 0);
        m.insert(vec![0; 10].into(), Some(vec![0; 100].into()));
        let after_one = m.approx_bytes();
        assert!(after_one >= 110);
        m.insert(vec![1; 10].into(), Some(vec![0; 100].into()));
        assert!(m.approx_bytes() > after_one);
    }

    #[test]
    fn overwrite_counts_the_key_again() {
        // Pinned on purpose: see the field comment on `approx_bytes`.
        let mut m = Memtable::new();
        m.insert(vec![0; 10].into(), Some(vec![0; 100].into()));
        assert_eq!(m.approx_bytes(), 10 + 100 + 24);
        m.insert(vec![0; 10].into(), Some(vec![0; 40].into()));
        assert_eq!(m.approx_bytes(), (10 + 24) + (10 + 40));
        m.insert(vec![0; 10].into(), None);
        assert_eq!(m.approx_bytes(), (10 + 24) + 10 + 10);
    }

    #[test]
    fn iter_is_key_ordered() {
        let mut m = Memtable::new();
        for k in [b"c", b"a", b"b"] {
            m.insert(k.into(), Some(Payload::empty()));
        }
        let keys: Vec<&[u8]> = m.iter().map(|(k, _)| &k[..]).collect();
        assert_eq!(keys, [b"a", b"b", b"c"]);
    }

    /// Keys of 0 to 64 bytes, on both sides of the 22-byte inline limit,
    /// prefixes of each other, some ending in 0x00: the memtable must agree
    /// with a map of plain byte strings on every lookup and on key order.
    fn drawn_key(len: u8, edit: u8) -> Vec<u8> {
        let mut key: Vec<u8> = (0..len % 65)
            .map(|i| if i % 4 == 0 { 0 } else { i })
            .collect();
        if let Some(last) = key.last_mut() {
            *last = last.wrapping_add(edit % 3);
        }
        key
    }

    proptest! {
        #[test]
        fn agrees_with_a_map_of_byte_strings(
            ops in proptest::collection::vec((0u8..65, 0u8..6, any::<bool>()), 1..200),
        ) {
            let mut m = Memtable::new();
            let mut model: BTreeMap<Vec<u8>, Option<u8>> = BTreeMap::new();
            for (len, edit, tombstone) in ops {
                let key = drawn_key(len, edit);
                let value = (!tombstone).then_some(len);
                m.insert(key[..].into(), value.map(|v| vec![v].into()));
                model.insert(key, value);
            }
            let got: Vec<(&[u8], Option<u8>)> =
                m.iter().map(|(k, v)| (&k[..], v.as_ref().map(|v| v[0]))).collect();
            let want: Vec<(&[u8], Option<u8>)> =
                model.iter().map(|(k, v)| (&k[..], *v)).collect();
            prop_assert_eq!(got, want);
            for len in 0..65 {
                for edit in 0..3 {
                    let key = drawn_key(len, edit);
                    let got = m.get(&key).map(|v| v.map(|v| v[0]));
                    prop_assert_eq!(got, model.get(&key).copied(), "{:?}", key);
                }
            }
        }
    }
}
