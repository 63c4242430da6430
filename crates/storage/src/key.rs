//! Short byte-string keys kept inline.
//!
//! Every key both object stores write on the hot path is short: the LSM
//! backend's data, info and xattr keys are 9 to 21 bytes, a pg-log key
//! `pglog.G.SEQ` is under 22. A `Vec<u8>` per key costs an allocation to
//! build, another to copy, and a pointer chase on every compare. [`Key`]
//! holds up to [`Key::INLINE`] bytes in itself (three words, nothing on the
//! heap) and a boxed slice past that, and orders, compares and hashes
//! exactly as the `[u8]` it holds, so it stands in for `Vec<u8>` as the key
//! of a `BTreeMap` or hash map that a bare `&[u8]` still looks up.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// A byte-string key: inline up to 22 bytes, on the heap past that.
///
/// `Ord`, `Eq`, `Hash` and `Borrow<[u8]>` all agree with `[u8]`'s.
#[derive(Clone, PartialEq, Eq)]
pub struct Key(Repr);

/// Which arm holds a key is a function of its length alone (a key of at
/// most [`Key::INLINE`] bytes is always inline), so the derived equality,
/// which calls two arms unequal, is byte equality. Unused inline bytes are
/// zero, which [`Key::cmp`] relies on.
#[derive(Clone, PartialEq, Eq)]
enum Repr {
    Inline { len: u8, bytes: [u8; Key::INLINE] },
    Heap(Box<[u8]>),
}

impl Key {
    /// Longest key held inline: three words, less the tag and length bytes.
    pub const INLINE: usize = 22;

    /// A copy of `bytes`.
    pub fn new(bytes: &[u8]) -> Key {
        Key::concat(&[bytes])
    }

    /// The concatenation of `parts`, written straight into the key: no
    /// buffer is built on the way, and none at all for a short key.
    pub fn concat(parts: &[&[u8]]) -> Key {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        if len > Key::INLINE {
            return Key(Repr::Heap(parts.concat().into_boxed_slice()));
        }
        let mut bytes = [0; Key::INLINE];
        let mut at = 0;
        for part in parts {
            bytes[at..at + part.len()].copy_from_slice(part);
            at += part.len();
        }
        Key(Repr::Inline {
            len: len as u8,
            bytes,
        })
    }

    /// The key bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Heap(bytes) => bytes,
        }
    }

    /// True if the bytes lie in the key itself rather than on the heap.
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }
}

/// The inline bytes as three big-endian words: compared in order, they
/// compare as the bytes do.
fn words(b: &[u8; Key::INLINE]) -> (u64, u64, u64) {
    let word = |at: usize| u64::from_be_bytes(b[at..at + 8].try_into().expect("8 bytes"));
    let mut tail = [0; 8];
    tail[..6].copy_from_slice(&b[16..]);
    (word(0), word(8), u64::from_be_bytes(tail))
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.0, &other.0) {
            // Unused bytes are zero, so two inline keys that agree on all
            // 22 bytes differ at most by trailing zeros: the shorter one,
            // a prefix of the other, comes first, as in `[u8]`'s order.
            (Repr::Inline { len: a, bytes: x }, Repr::Inline { len: b, bytes: y }) => {
                words(x).cmp(&words(y)).then(a.cmp(b))
            }
            _ => self.as_bytes().cmp(other.as_bytes()),
        }
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Must equal `<[u8] as Hash>`, which lookups through `Borrow` use.
        self.as_bytes().hash(state);
    }
}

impl Borrow<[u8]> for Key {
    fn borrow(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl Deref for Key {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl From<&[u8]> for Key {
    fn from(bytes: &[u8]) -> Key {
        Key::new(bytes)
    }
}

impl<const N: usize> From<&[u8; N]> for Key {
    fn from(bytes: &[u8; N]) -> Key {
        Key::new(bytes)
    }
}

impl From<Vec<u8>> for Key {
    fn from(bytes: Vec<u8>) -> Key {
        Key::new(&bytes)
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_bytes().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FxBuildHasher;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};
    use std::hash::BuildHasher;
    use std::ops::Bound;

    /// True when `inner` lies within the bytes of `outer` itself.
    fn lies_within<T>(inner: &[u8], outer: &T) -> bool {
        let at = outer as *const T as usize;
        let range = at..at + std::mem::size_of::<T>();
        range.contains(&(inner.as_ptr() as usize)) && inner.len() <= range.len()
    }

    #[test]
    fn a_key_is_three_words_and_holds_a_short_key_inline() {
        assert_eq!(std::mem::size_of::<Key>(), 24);
        for len in 0..=Key::INLINE {
            let bytes: Vec<u8> = (1..=len as u8).collect();
            let key = Key::new(&bytes);
            assert!(key.is_inline());
            assert!(lies_within(&key, &key), "{len} bytes were not inline");
            assert_eq!(key.as_bytes(), &bytes[..]);
        }
        let long: Vec<u8> = (0..=Key::INLINE as u8).collect();
        let key = Key::new(&long);
        assert!(!key.is_inline());
        assert!(!lies_within(&key, &key));
        assert_eq!(key.as_bytes(), &long[..]);
    }

    #[test]
    fn concat_writes_the_parts_in_order_on_both_sides_of_the_limit() {
        let key = Key::concat(&[b"D", &7u64.to_le_bytes(), &[0, 1], b""]);
        assert!(key.is_inline());
        assert_eq!(&key[..], &[b'D', 7, 0, 0, 0, 0, 0, 0, 0, 0, 1]);
        let long = Key::concat(&[b"K", &[9; 22]]);
        assert!(!long.is_inline());
        assert_eq!(long.len(), 23);
        assert_eq!((long[0], long[22]), (b'K', 9));
        assert_eq!(Key::concat(&[]), Key::new(b""));
    }

    /// The base every drawn key is a prefix of: zeros at several places,
    /// the inline limit among them, so drawn keys are prefixes of each
    /// other and some end in 0x00.
    fn base() -> Vec<u8> {
        (0..64u8)
            .map(|i| if i % 3 == 0 || i == 21 { 0 } else { i })
            .collect()
    }

    /// A key of 0 to 64 bytes: a prefix of [`base`], with one byte changed
    /// or not.
    fn keys() -> impl Strategy<Value = Vec<u8>> {
        (0usize..65, 0usize..64, any::<u8>(), any::<bool>()).prop_map(|(len, at, byte, edit)| {
            let mut key = base()[..len].to_vec();
            if edit && at < len {
                key[at] = byte;
            }
            key
        })
    }

    /// Up to three keys of `map` after `probe`, as byte strings.
    fn after<'a, K: Borrow<[u8]> + Ord>(map: &'a BTreeMap<K, u8>, probe: &[u8]) -> Vec<&'a [u8]> {
        let range = (Bound::Excluded(probe), Bound::Unbounded);
        map.range::<[u8], _>(range)
            .map(|(k, _)| k.borrow())
            .take(3)
            .collect()
    }

    proptest! {
        #[test]
        fn keys_order_compare_and_hash_as_their_bytes(
            pairs in proptest::collection::vec((keys(), keys()), 1..64),
        ) {
            let hash = FxBuildHasher::default();
            for (a, b) in pairs {
                let (x, y) = (Key::new(&a), Key::new(&b));
                prop_assert_eq!(x.cmp(&y), a.cmp(&b), "{:?} vs {:?}", a, b);
                prop_assert_eq!(x.partial_cmp(&y), a.partial_cmp(&b));
                prop_assert_eq!(x == y, a == b, "{:?} vs {:?}", a, b);
                prop_assert_eq!(&x[..], &a[..]);
                prop_assert_eq!(x.is_inline(), a.len() <= Key::INLINE);
                prop_assert_eq!(hash.hash_one(&x), hash.hash_one(&a[..]), "{:?}", a);
                prop_assert_eq!(x.clone(), x);
            }
        }

        #[test]
        fn maps_keyed_by_keys_answer_slice_lookups_as_vec_keyed_ones(
            ops in proptest::collection::vec((keys(), any::<u8>()), 1..96),
        ) {
            let mut tree: BTreeMap<Key, u8> = BTreeMap::new();
            let mut model: BTreeMap<Vec<u8>, u8> = BTreeMap::new();
            let mut hash: HashMap<Key, u8, FxBuildHasher> = HashMap::default();
            for (key, value) in &ops {
                prop_assert_eq!(tree.insert(Key::new(key), *value), model.insert(key.clone(), *value));
                hash.insert(Key::new(key), *value);
            }
            prop_assert!(tree.keys().map(|k| &k[..]).eq(model.keys().map(|k| &k[..])));
            // Every drawn key and every prefix of the base, present or not.
            let base = base();
            let probes = ops.iter().map(|(k, _)| &k[..]).chain((0..=64).map(|n| &base[..n]));
            for probe in probes {
                let want = model.get(probe);
                prop_assert_eq!(tree.get(probe), want, "{:?}", probe);
                prop_assert_eq!(hash.get(probe), want, "{:?}", probe);
                prop_assert_eq!(after(&tree, probe), after(&model, probe), "after {:?}", probe);
            }
        }
    }
}
