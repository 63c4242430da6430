//! Radix tree for onode lookup.
//!
//! The paper's object store locates onodes with a radix tree keyed by the
//! object id (§IV-C-1): a few leftmost bits pick the sharded partition, the
//! rest index within it. This is a 16-way (nibble-at-a-time) radix tree over
//! the 48-bit object index, mapping to the onode's slot number in the
//! partition's onode table. Lookup cost is bounded by key width, not
//! population — no rebalancing, no comparisons, cheap CPU.
//!
//! The tree is path-compressed: a node exists only where keys branch (or
//! as a key's leaf), and a branch stores only the children it has, so n
//! keys take at most 2n − 1 nodes however long their shared prefixes are.
//! A lookup still descends one nibble level at a time, at most one branch
//! per nibble of the key, and compares the full key once at the leaf.

/// Nibbles in a 48-bit object index.
const DEPTH: u8 = 12;

/// One node: a key's leaf (`level == DEPTH`), or a branch on nibble
/// `level` whose keys all share `key`'s nibbles above it.
#[derive(Debug, Clone)]
struct Node {
    /// A leaf's full key; a branch's shared prefix (nibbles from `level`
    /// down are zero).
    key: u64,
    /// A leaf's onode slot (unused in a branch).
    slot: u32,
    /// The nibble this branch splits on, 0 the most significant; `DEPTH`
    /// for a leaf.
    level: u8,
    /// Bit `i` set: a child for nibble value `i`.
    bitmap: u16,
    /// Nibble `i`: the position in `children` of the child for nibble
    /// value `i`, where bit `i` of `bitmap` is set. A lookup reads it with
    /// a shift; ranking the bitmap would take a population count, a dozen
    /// dependent instructions per level on a target without one.
    positions: u64,
    /// The children, in nibble order, one per set bit of `bitmap`: at
    /// least two in every branch, none in a leaf.
    children: Vec<Node>,
}

/// The value of `key`'s nibble `level`.
fn nibble(key: u64, level: u8) -> u32 {
    ((key >> ((DEPTH - 1 - level) * 4)) & 0xF) as u32
}

/// The first nibble at which `a` and `b` differ, `DEPTH` if none does.
fn split_level(a: u64, b: u64) -> u8 {
    let diff = a ^ b;
    if diff == 0 {
        return DEPTH;
    }
    ((diff.leading_zeros() - (64 - 4 * DEPTH as u32)) / 4) as u8
}

impl Node {
    fn leaf(key: u64, slot: u32) -> Node {
        Node {
            key,
            slot,
            level: DEPTH,
            bitmap: 0,
            positions: 0,
            children: Vec::new(),
        }
    }

    fn is_leaf(&self) -> bool {
        self.level == DEPTH
    }

    /// The position of the child for nibble value `nib`, if present.
    fn child(&self, nib: u32) -> Option<usize> {
        let at = (self.positions >> (4 * nib)) as usize & 0xF;
        (self.bitmap & (1 << nib) != 0).then_some(at)
    }

    /// Sets `bitmap` and renumbers `positions` to match it.
    fn set_bitmap(&mut self, bitmap: u16) {
        self.bitmap = bitmap;
        self.positions = 0;
        let present = (0..16).filter(|nib| bitmap & (1 << nib) != 0);
        for (at, nib) in present.enumerate() {
            self.positions |= (at as u64) << (4 * nib);
        }
    }

    /// Inserts or replaces `key`'s slot in this subtree; returns the
    /// previous slot.
    fn insert(&mut self, key: u64, slot: u32) -> Option<u32> {
        let split = split_level(self.key, key);
        if split < self.level {
            // `key` leaves this subtree's shared prefix above it: a new
            // branch at the first differing nibble takes both.
            let old = std::mem::replace(self, Node::leaf(0, 0));
            let (old_nib, new_nib) = (nibble(old.key, split), nibble(key, split));
            let new = Node::leaf(key, slot);
            *self = Node {
                key: key & !(u64::MAX >> (64 - 4 * (DEPTH - split) as u32)),
                slot: 0,
                level: split,
                bitmap: 0,
                positions: 0,
                children: if new_nib < old_nib {
                    vec![new, old]
                } else {
                    vec![old, new]
                },
            };
            self.set_bitmap((1 << old_nib) | (1 << new_nib));
            return None;
        }
        if self.is_leaf() {
            return Some(std::mem::replace(&mut self.slot, slot));
        }
        let nib = nibble(key, self.level);
        match self.child(nib) {
            Some(at) => self.children[at].insert(key, slot),
            None => {
                let at = (self.bitmap & ((1 << nib) - 1)).count_ones() as usize;
                self.children.insert(at, Node::leaf(key, slot));
                self.set_bitmap(self.bitmap | 1 << nib);
                None
            }
        }
    }

    /// Removes `key` from below this branch; returns its slot. A branch
    /// left with one child is replaced by that child.
    fn remove_below(&mut self, key: u64) -> Option<u32> {
        let nib = nibble(key, self.level);
        let at = self.child(nib)?;
        let child = &mut self.children[at];
        let slot = if child.is_leaf() {
            if child.key != key {
                return None;
            }
            self.set_bitmap(self.bitmap & !(1 << nib));
            self.children.remove(at).slot
        } else {
            let slot = child.remove_below(key)?;
            child.collapse();
            slot
        };
        Some(slot)
    }

    /// Replaces a branch left with a single child by that child, keeping
    /// nodes only where keys branch.
    fn collapse(&mut self) {
        if self.children.len() == 1 {
            let only = self.children.pop().expect("one child");
            *self = only;
        }
    }

    fn visit(&self, out: &mut Vec<(u64, u32)>) {
        if self.is_leaf() {
            out.push((self.key, self.slot));
        }
        for child in &self.children {
            child.visit(out);
        }
    }

    /// Nodes in this subtree, itself included.
    #[cfg(test)]
    fn count(&self) -> usize {
        1 + self.children.iter().map(Node::count).sum::<usize>()
    }
}

/// A radix tree from 48-bit object indexes to onode slot ids.
///
/// ```
/// use rablock_cos::RadixTree;
/// let mut t = RadixTree::new();
/// t.insert(42, 7);
/// assert_eq!(t.get(42), Some(7));
/// assert_eq!(t.get(43), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RadixTree {
    root: Option<Node>,
    len: usize,
}

impl RadixTree {
    /// An empty tree.
    pub fn new() -> Self {
        RadixTree::default()
    }

    /// Number of mappings.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no mappings exist.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts or replaces the slot for `key`; returns the previous slot.
    ///
    /// # Panics
    ///
    /// Panics if `key` exceeds 48 bits (object indexes never do).
    pub fn insert(&mut self, key: u64, slot: u32) -> Option<u32> {
        assert!(key < (1 << 48), "key exceeds 48 bits");
        let prev = match &mut self.root {
            Some(root) => root.insert(key, slot),
            None => {
                self.root = Some(Node::leaf(key, slot));
                None
            }
        };
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Looks up the slot for `key`.
    pub fn get(&self, key: u64) -> Option<u32> {
        let mut node = self.root.as_ref()?;
        while !node.is_leaf() {
            node = &node.children[node.child(nibble(key, node.level))?];
        }
        (node.key == key).then_some(node.slot)
    }

    /// Removes the mapping for `key`; returns the removed slot.
    pub fn remove(&mut self, key: u64) -> Option<u32> {
        let root = self.root.as_mut()?;
        let removed = if root.is_leaf() {
            if root.key != key {
                return None;
            }
            self.root.take().map(|leaf| leaf.slot)
        } else {
            let slot = root.remove_below(key);
            root.collapse();
            slot
        };
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// Iterates `(key, slot)` pairs in key order.
    pub fn iter(&self) -> Vec<(u64, u32)> {
        let mut out = Vec::with_capacity(self.len);
        if let Some(root) = &self.root {
            root.visit(&mut out);
        }
        out
    }

    /// Nodes in the tree, leaves included.
    #[cfg(test)]
    fn node_count(&self) -> usize {
        self.root.as_ref().map_or(0, Node::count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_get_remove() {
        let mut t = RadixTree::new();
        assert_eq!(t.insert(100, 1), None);
        assert_eq!(t.insert(100, 2), Some(1));
        assert_eq!(t.get(100), Some(2));
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(100), Some(2));
        assert_eq!(t.get(100), None);
        assert!(t.is_empty());
    }

    #[test]
    fn near_miss_keys_do_not_collide() {
        let mut t = RadixTree::new();
        t.insert(0xABCDEF, 1);
        assert_eq!(t.get(0xABCDEE), None);
        assert_eq!(t.get(0xABCDE), None);
        assert_eq!(t.get(0xABCDEF0), None);
    }

    #[test]
    fn removal_prunes_empty_paths() {
        let mut t = RadixTree::new();
        t.insert(1, 1);
        t.insert((1 << 47) | 1, 2);
        assert_eq!(
            t.node_count(),
            3,
            "one branch at the top nibble, two leaves"
        );
        t.remove(1);
        assert_eq!(t.get((1 << 47) | 1), Some(2));
        assert_eq!(t.node_count(), 1, "the branch collapsed into the leaf");
        t.remove((1 << 47) | 1);
        assert!(t.root.is_none(), "tree fully pruned");
    }

    /// Every branch has at least two children, so n keys need at most
    /// n − 1 branches beside their n leaves, and nothing outlives them.
    fn assert_compact(keys: &[u64]) {
        let mut t = RadixTree::new();
        for (i, &k) in keys.iter().enumerate() {
            t.insert(k, i as u32);
            assert!(
                t.node_count() < 2 * t.len(),
                "{} nodes for {} keys",
                t.node_count(),
                t.len()
            );
        }
        for &k in keys {
            t.remove(k);
            assert!(t.is_empty() || t.node_count() < 2 * t.len());
        }
        assert!(t.is_empty());
        assert_eq!(t.node_count(), 0);
    }

    #[test]
    fn nodes_grow_with_keys_not_key_width() {
        // Dense, sparse, the benchmark's `(image << 12) | idx` under a
        // group in the high 16 bits, and keys that split at the lowest
        // nibble only.
        let dense: Vec<u64> = (0..300).collect();
        let sparse: Vec<u64> = (0..300).map(|i| i * 0x0000_9E37_79B9 % (1 << 48)).collect();
        let bench: Vec<u64> = (0..300)
            .map(|i| ((i % 7) << 32) | ((i % 5) << 12) | (i * 37 % 4096))
            .collect();
        let low = [0xABC_DEF0_1230, 0xABC_DEF0_1231, 0xABC_DEF0_123F];
        for keys in [&dense[..], &sparse, &bench, &low] {
            assert_compact(keys);
        }
    }

    #[test]
    fn iteration_is_key_ordered() {
        let mut t = RadixTree::new();
        for (i, k) in [500u64, 3, 0xFFFF_FFFF, 42, 0].iter().enumerate() {
            t.insert(*k, i as u32);
        }
        let keys: Vec<u64> = t.iter().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![0, 3, 42, 500, 0xFFFF_FFFF]);
    }

    #[test]
    #[should_panic(expected = "48 bits")]
    fn oversized_key_rejected() {
        RadixTree::new().insert(1 << 48, 0);
    }

    proptest! {
        /// Arm 0 draws keys across the full 48 bits; arm 1 in the shape the
        /// benchmark's images give (`(image << 12) | idx` under a group),
        /// few enough that inserts, removes and lookups collide.
        #[test]
        fn matches_btreemap_model(ops in proptest::collection::vec(
            (0u8..3, 0u64..(1 << 48), 0u32..1000), 1..300), shape in 0u8..2) {
            let mut tree = RadixTree::new();
            let mut model = std::collections::BTreeMap::new();
            for (kind, key, slot) in ops {
                let key = if shape == 0 {
                    key
                } else {
                    let (group, image, idx) = (key >> 40 & 3, key >> 20 & 7, key & 0x3F);
                    (group << 32) | (image << 12) | idx
                };
                match kind {
                    0 => {
                        prop_assert_eq!(tree.insert(key, slot), model.insert(key, slot));
                    }
                    1 => {
                        prop_assert_eq!(tree.remove(key), model.remove(&key));
                    }
                    _ => {
                        prop_assert_eq!(tree.get(key), model.get(&key).copied());
                    }
                }
                prop_assert_eq!(tree.len(), model.len());
            }
            let entries: Vec<(u64, u32)> = model.into_iter().collect();
            prop_assert_eq!(tree.iter(), entries);
        }
    }
}
