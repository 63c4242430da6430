//! Free-extent B+tree, the allocator behind each sharded partition.
//!
//! The paper's CPU-efficient object store tracks free data blocks with a
//! B+tree per partition, like XFS (§IV-C "Freeblock Tree Info Area"). This
//! is that tree: keys are extent start blocks, values are extent lengths.
//! Internal nodes carry a *max-free-length* hint per child, so a first-fit
//! allocation descends directly to a leaf that can satisfy it in O(log n).
//!
//! Frees coalesce with both neighbours, and overlapping frees (double-free,
//! allocator corruption) are detected and rejected.

use rablock_storage::StoreError;

/// Maximum keys per node. Small enough to exercise splits in tests, large
/// enough that depth stays shallow for realistic partition sizes.
const ORDER: usize = 32;

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        starts: Vec<u64>,
        lens: Vec<u64>,
    },
    Internal {
        /// `seps[i]` separates `children[i]` (keys < sep) from `children[i+1]`.
        seps: Vec<u64>,
        children: Vec<Node>,
        /// Largest free-extent length within each child's subtree.
        maxs: Vec<u64>,
    },
}

impl Node {
    fn max_len(&self) -> u64 {
        match self {
            Node::Leaf { lens, .. } => lens.iter().copied().max().unwrap_or(0),
            Node::Internal { maxs, .. } => maxs.iter().copied().max().unwrap_or(0),
        }
    }

    fn len(&self) -> usize {
        match self {
            Node::Leaf { starts, .. } => starts.len(),
            Node::Internal { children, .. } => children.len(),
        }
    }
}

/// A B+tree of free extents `(start_block, length_in_blocks)`.
///
/// ```
/// use rablock_cos::ExtentBTree;
/// # fn main() -> Result<(), rablock_storage::StoreError> {
/// let mut tree = ExtentBTree::new_free(0, 1000); // blocks 0..1000 free
/// let a = tree.alloc(10)?;
/// let b = tree.alloc(10)?;
/// assert_ne!(a, b);
/// tree.free(a, 10)?;
/// assert_eq!(tree.free_blocks(), 990);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ExtentBTree {
    root: Node,
    free_blocks: u64,
    extents: usize,
}

impl Default for ExtentBTree {
    fn default() -> Self {
        ExtentBTree::new()
    }
}

impl ExtentBTree {
    /// An empty tree (no free space).
    pub fn new() -> Self {
        ExtentBTree {
            root: Node::Leaf {
                starts: Vec::new(),
                lens: Vec::new(),
            },
            free_blocks: 0,
            extents: 0,
        }
    }

    /// A tree with one free extent `[start, start+len)`.
    pub fn new_free(start: u64, len: u64) -> Self {
        let mut t = ExtentBTree::new();
        if len > 0 {
            t.insert(start, len).expect("fresh tree cannot collide");
        }
        t
    }

    /// Total free blocks.
    pub fn free_blocks(&self) -> u64 {
        self.free_blocks
    }

    /// Number of distinct free extents (fragmentation indicator).
    pub fn extent_count(&self) -> usize {
        self.extents
    }

    /// Largest allocatable contiguous run.
    pub fn largest_extent(&self) -> u64 {
        self.root.max_len()
    }

    /// Allocates `len` contiguous blocks, first-fit; returns the start block.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSpace`] if no single extent is large enough.
    pub fn alloc(&mut self, len: u64) -> Result<u64, StoreError> {
        if len == 0 {
            return Err(StoreError::InvalidArgument("zero-length allocation".into()));
        }
        if self.root.max_len() < len {
            return Err(StoreError::NoSpace);
        }
        // The rest of the extent is re-inserted under its new start, not
        // shrunk in place: separators outlive the keys they were made from,
        // so a start that grows inside its leaf can cross into the key range
        // of the leaf to the right, where no descent finds it again.
        let start = Self::first_fit(&self.root, len);
        let had = self.remove(start).expect("first fit names a free extent");
        if had > len {
            self.insert(start + len, had - len)?;
        }
        Ok(start)
    }

    /// Start of the lowest extent of at least `want` blocks; the max hints
    /// lead straight to its leaf.
    fn first_fit(mut node: &Node, want: u64) -> u64 {
        loop {
            match node {
                Node::Leaf { starts, lens } => {
                    let j = lens.iter().position(|&l| l >= want);
                    return starts[j.expect("max hint guaranteed a fit")];
                }
                Node::Internal { children, maxs, .. } => {
                    let i = maxs.iter().position(|&m| m >= want);
                    node = &children[i.expect("max hint guaranteed a fit")];
                }
            }
        }
    }

    /// Claims the specific range `[start, start+len)` from the free pool
    /// (mount-time rebuild: carving out extents named by live onodes).
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] if any part of the range is not free — two
    /// onodes claiming the same blocks is allocator corruption.
    pub fn alloc_specific(&mut self, start: u64, len: u64) -> Result<(), StoreError> {
        if len == 0 {
            return Err(StoreError::InvalidArgument("zero-length allocation".into()));
        }
        let (es, el) = self.floor(start).ok_or_else(|| overlap_err(start, len))?;
        if es > start || es + el < start + len {
            return Err(overlap_err(start, len));
        }
        self.remove(es).expect("floor extent exists");
        if es < start {
            self.insert(es, start - es)?;
        }
        if es + el > start + len {
            self.insert(start + len, es + el - (start + len))?;
        }
        Ok(())
    }

    /// Returns `[start, start+len)` to the free pool, coalescing neighbours.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] if the range overlaps an already-free extent
    /// (double free).
    pub fn free(&mut self, mut start: u64, mut len: u64) -> Result<(), StoreError> {
        if len == 0 {
            return Err(StoreError::InvalidArgument("zero-length free".into()));
        }
        let prev = self.floor(start);
        let next = self.ceiling(start + 1);
        // Refuse before touching the tree: a rejected free leaves it whole.
        for (s, l) in prev.into_iter().chain(next) {
            if s < start + len && start < s + l {
                return Err(StoreError::Corrupt(format!(
                    "double free: [{start},{}) overlaps free extent [{s},{})",
                    start + len,
                    s + l
                )));
            }
        }
        if let Some((ps, pl)) = prev.filter(|&(ps, pl)| ps + pl == start) {
            self.remove(ps).expect("floor extent exists");
            start = ps;
            len += pl;
        }
        if let Some((ns, nl)) = next.filter(|&(ns, _)| ns == start + len) {
            self.remove(ns).expect("ceiling extent exists");
            len += nl;
        }
        self.insert(start, len)
    }

    /// Iterates free extents in start order.
    pub fn iter(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.extents);
        Self::collect(&self.root, &mut out);
        out
    }

    /// Rebuilds a tree from `(start, len)` extents (checkpoint load).
    ///
    /// # Errors
    ///
    /// Propagates overlap errors from malformed checkpoints.
    pub fn from_extents(extents: impl IntoIterator<Item = (u64, u64)>) -> Result<Self, StoreError> {
        let mut t = ExtentBTree::new();
        for (s, l) in extents {
            t.insert(s, l)?;
        }
        Ok(t)
    }

    fn collect(node: &Node, out: &mut Vec<(u64, u64)>) {
        match node {
            Node::Leaf { starts, lens } => {
                out.extend(starts.iter().copied().zip(lens.iter().copied()));
            }
            Node::Internal { children, .. } => {
                for c in children {
                    Self::collect(c, out);
                }
            }
        }
    }

    /// Test-only probe of [`ExtentBTree::floor`].
    #[doc(hidden)]
    pub fn debug_floor(&self, key: u64) -> Option<(u64, u64)> {
        self.floor(key)
    }

    /// Greatest `(start, len)` with `start <= key`.
    fn floor(&self, key: u64) -> Option<(u64, u64)> {
        let mut node = &self.root;
        let mut best: Option<(u64, u64)> = None;
        loop {
            match node {
                Node::Leaf { starts, lens } => {
                    let idx = starts.partition_point(|&s| s <= key);
                    if idx > 0 {
                        best = Some((starts[idx - 1], lens[idx - 1]));
                    }
                    return best;
                }
                Node::Internal { seps, children, .. } => {
                    let i = seps.partition_point(|&s| s <= key);
                    // A smaller-keyed sibling may hold the floor; remember
                    // the rightmost extent of the child to the left.
                    if i > 0 {
                        if let Some(e) = Self::rightmost(&children[i - 1]) {
                            if e.0 <= key {
                                best = Some(e);
                            }
                        }
                    }
                    node = &children[i];
                }
            }
        }
    }

    /// Smallest `(start, len)` with `start >= key`.
    fn ceiling(&self, key: u64) -> Option<(u64, u64)> {
        let mut node = &self.root;
        let mut best: Option<(u64, u64)> = None;
        loop {
            match node {
                Node::Leaf { starts, lens } => {
                    let idx = starts.partition_point(|&s| s < key);
                    if idx < starts.len() {
                        best = Some((starts[idx], lens[idx]));
                    }
                    return best;
                }
                Node::Internal { seps, children, .. } => {
                    let i = seps.partition_point(|&s| s <= key);
                    if i + 1 < children.len() {
                        if let Some(e) = Self::leftmost(&children[i + 1]) {
                            best = Some(e);
                        }
                    }
                    node = &children[i];
                }
            }
        }
    }

    fn leftmost(node: &Node) -> Option<(u64, u64)> {
        match node {
            Node::Leaf { starts, lens } => starts.first().map(|&s| (s, lens[0])),
            Node::Internal { children, .. } => children.iter().find_map(Self::leftmost),
        }
    }

    fn rightmost(node: &Node) -> Option<(u64, u64)> {
        match node {
            Node::Leaf { starts, lens } => starts.last().map(|&s| (s, *lens.last().unwrap())),
            Node::Internal { children, .. } => children.iter().rev().find_map(Self::rightmost),
        }
    }

    fn insert(&mut self, start: u64, len: u64) -> Result<(), StoreError> {
        if let Some(split) = Self::insert_in(&mut self.root, start, len)? {
            let (sep, right) = split;
            let left = std::mem::replace(
                &mut self.root,
                Node::Leaf {
                    starts: vec![],
                    lens: vec![],
                },
            );
            let maxs = vec![left.max_len(), right.max_len()];
            self.root = Node::Internal {
                seps: vec![sep],
                children: vec![left, right],
                maxs,
            };
        }
        self.free_blocks += len;
        self.extents += 1;
        Ok(())
    }

    fn insert_in(node: &mut Node, start: u64, len: u64) -> Result<Option<(u64, Node)>, StoreError> {
        match node {
            Node::Leaf { starts, lens } => {
                let idx = starts.partition_point(|&s| s < start);
                if starts.get(idx) == Some(&start) {
                    return Err(StoreError::Corrupt(format!(
                        "duplicate free extent at {start}"
                    )));
                }
                starts.insert(idx, start);
                lens.insert(idx, len);
                if starts.len() <= ORDER {
                    return Ok(None);
                }
                let mid = starts.len() / 2;
                let right_starts = starts.split_off(mid);
                let right_lens = lens.split_off(mid);
                let sep = right_starts[0];
                Ok(Some((
                    sep,
                    Node::Leaf {
                        starts: right_starts,
                        lens: right_lens,
                    },
                )))
            }
            Node::Internal {
                seps,
                children,
                maxs,
            } => {
                let i = seps.partition_point(|&s| s <= start);
                let split = Self::insert_in(&mut children[i], start, len)?;
                maxs[i] = children[i].max_len();
                if let Some((sep, right)) = split {
                    let rmax = right.max_len();
                    seps.insert(i, sep);
                    children.insert(i + 1, right);
                    maxs.insert(i + 1, rmax);
                    maxs[i] = children[i].max_len();
                    if children.len() > ORDER {
                        let mid = children.len() / 2;
                        let right_children = children.split_off(mid);
                        let right_seps = seps.split_off(mid);
                        let right_maxs = maxs.split_off(mid);
                        // seps now has one extra separator at the end that
                        // becomes the promoted key.
                        let promoted = seps.pop().expect("separator to promote");
                        let right_node = Node::Internal {
                            seps: right_seps,
                            children: right_children,
                            maxs: right_maxs,
                        };
                        return Ok(Some((promoted, right_node)));
                    }
                }
                Ok(None)
            }
        }
    }

    /// Removes the extent starting exactly at `start`; returns its length.
    fn remove(&mut self, start: u64) -> Option<u64> {
        let removed = Self::remove_in(&mut self.root, start)?;
        self.free_blocks -= removed;
        self.extents -= 1;
        // Shrink a trivial root chain (no rebalancing below the root; the
        // tree tolerates underfull nodes, like many production allocators).
        while let Node::Internal { children, .. } = &mut self.root {
            match children.len() {
                0 => {
                    self.root = Node::Leaf {
                        starts: Vec::new(),
                        lens: Vec::new(),
                    };
                }
                1 => {
                    let only = children.pop().expect("one child");
                    self.root = only;
                }
                _ => break,
            }
        }
        Some(removed)
    }

    fn remove_in(node: &mut Node, start: u64) -> Option<u64> {
        match node {
            Node::Leaf { starts, lens } => {
                let idx = starts.binary_search(&start).ok()?;
                starts.remove(idx);
                Some(lens.remove(idx))
            }
            Node::Internal {
                seps,
                children,
                maxs,
            } => {
                let i = seps.partition_point(|&s| s <= start);
                let removed = Self::remove_in(&mut children[i], start)?;
                maxs[i] = children[i].max_len();
                // Drop empty children so queries never dead-end in an empty
                // subtree; an internal node emptied this way is pruned by
                // its own parent on the way back up.
                if children[i].len() == 0 {
                    children.remove(i);
                    maxs.remove(i);
                    if !seps.is_empty() {
                        if i < seps.len() {
                            seps.remove(i);
                        } else {
                            seps.pop();
                        }
                    }
                }
                Some(removed)
            }
        }
    }

    /// Internal invariant check used by tests: keys sorted, extents disjoint,
    /// max hints correct, counters accurate.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let extents = self.iter();
        assert!(
            extents.windows(2).all(|w| w[0].0 + w[0].1 <= w[1].0),
            "extents out of order or overlapping: {extents:?}"
        );
        // Adjacent extents must have been coalesced by free().
        let total: u64 = extents.iter().map(|e| e.1).sum();
        assert_eq!(total, self.free_blocks, "free-block counter drift");
        assert_eq!(extents.len(), self.extents, "extent counter drift");
        Self::check_node(&self.root);
    }

    fn check_node(node: &Node) {
        if let Node::Internal {
            seps,
            children,
            maxs,
        } = node
        {
            assert_eq!(children.len(), seps.len() + 1);
            assert_eq!(children.len(), maxs.len());
            for (i, c) in children.iter().enumerate() {
                assert_eq!(maxs[i], c.max_len(), "stale max hint");
                Self::check_node(c);
            }
        }
    }
}

fn overlap_err(start: u64, len: u64) -> StoreError {
    StoreError::Corrupt(format!(
        "range [{start},{}) is not entirely free",
        start + len
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn alloc_free_round_trip() {
        let mut t = ExtentBTree::new_free(0, 100);
        let a = t.alloc(30).unwrap();
        assert_eq!(a, 0);
        assert_eq!(t.free_blocks(), 70);
        t.free(a, 30).unwrap();
        assert_eq!(t.free_blocks(), 100);
        assert_eq!(t.extent_count(), 1, "coalesced back to one extent");
    }

    #[test]
    fn exhaustion_is_no_space() {
        let mut t = ExtentBTree::new_free(0, 10);
        assert!(t.alloc(11).is_err());
        t.alloc(10).unwrap();
        assert_eq!(t.alloc(1), Err(StoreError::NoSpace));
    }

    #[test]
    fn fragmentation_respects_first_fit() {
        let mut t = ExtentBTree::new_free(0, 100);
        let a = t.alloc(10).unwrap(); // [0,10)
        let _b = t.alloc(10).unwrap(); // [10,20)
        let c = t.alloc(10).unwrap(); // [20,30)
        t.free(a, 10).unwrap();
        t.free(c, 10).unwrap();
        // First fit picks the lowest suitable hole.
        assert_eq!(t.alloc(10).unwrap(), 0);
        assert_eq!(t.alloc(10).unwrap(), 20);
    }

    #[test]
    fn coalescing_merges_both_sides() {
        let mut t = ExtentBTree::new_free(0, 100);
        let a = t.alloc(30).unwrap();
        let b = t.alloc(30).unwrap();
        let c = t.alloc(30).unwrap();
        t.free(a, 30).unwrap(); // free: [0,30) and the tail [90,100)
        t.free(c, 30).unwrap(); // c merges with the tail: [60,100)
        assert_eq!(t.extent_count(), 2);
        t.free(b, 30).unwrap();
        assert_eq!(t.extent_count(), 1);
        assert_eq!(t.free_blocks(), 100);
        t.check_invariants();
    }

    #[test]
    fn double_free_detected() {
        let mut t = ExtentBTree::new_free(0, 100);
        let a = t.alloc(10).unwrap();
        t.free(a, 10).unwrap();
        assert!(matches!(t.free(a, 10), Err(StoreError::Corrupt(_))));
        assert!(matches!(t.free(50, 10), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn deep_tree_from_many_fragments() {
        // Insert thousands of disjoint single-block extents with gaps so no
        // coalescing happens: forces multiple levels of splits.
        let mut t = ExtentBTree::new();
        for i in 0..5_000u64 {
            t.free(i * 2, 1).unwrap();
        }
        t.check_invariants();
        assert_eq!(t.free_blocks(), 5_000);
        assert_eq!(t.extent_count(), 5_000);
        assert_eq!(t.largest_extent(), 1);
        // Filling the gaps collapses everything into one run.
        for i in 0..4_999u64 {
            t.free(i * 2 + 1, 1).unwrap();
        }
        assert_eq!(t.extent_count(), 1);
        t.check_invariants();
    }

    #[test]
    fn serialize_round_trip() {
        let mut t = ExtentBTree::new_free(0, 1000);
        for want in [7u64, 13, 100, 1, 64] {
            t.alloc(want).unwrap();
        }
        t.free(7, 3).unwrap();
        let extents = t.iter();
        let t2 = ExtentBTree::from_extents(extents.clone()).unwrap();
        assert_eq!(t2.iter(), extents);
        assert_eq!(t2.free_blocks(), t.free_blocks());
        t2.check_invariants();
    }

    /// 33 one-block extents split the root at key 32; coalescing 30..33
    /// removes that key but leaves it as the separator; `alloc(2)` then used
    /// to move the merged extent's start from 30 to 32 *in place*, into the
    /// key range of the right leaf, where no descent could find it again.
    fn tree_with_an_extent_at_its_right_separator() -> ExtentBTree {
        let mut t = ExtentBTree::new();
        for i in 0..=32 {
            t.free(i * 2, 1).unwrap();
        }
        t.free(31, 1).unwrap();
        assert_eq!(t.alloc(2).unwrap(), 30);
        t
    }

    #[test]
    fn regression_free_finds_ceiling_extent_after_front_alloc() {
        let mut t = tree_with_an_extent_at_its_right_separator();
        t.free(30, 2).unwrap(); // panicked: "ceiling extent exists"
        assert_eq!(t.debug_floor(31), Some((30, 3)));
        t.check_invariants();
    }

    #[test]
    fn regression_free_finds_floor_extent_after_front_alloc() {
        let mut t = tree_with_an_extent_at_its_right_separator();
        t.free(33, 1).unwrap(); // panicked: "floor extent exists"
        assert_eq!(t.debug_floor(35), Some((32, 3)));
        t.check_invariants();
    }

    #[test]
    fn regression_rejected_free_leaves_the_tree_whole() {
        let mut t = ExtentBTree::new_free(0, 10);
        t.alloc_specific(4, 2).unwrap();
        // Touches [0,4) exactly but runs into [6,10): the old code had
        // already removed [0,4) when it found the overlap.
        assert!(matches!(t.free(4, 3), Err(StoreError::Corrupt(_))));
        assert_eq!(t.iter(), vec![(0, 4), (6, 4)]);
        assert_eq!(t.free_blocks(), 8);
    }

    #[derive(Debug, Clone)]
    enum TreeOp {
        Alloc(u64),
        AllocSpecific(u64, u64),
        /// Frees the held extent at this index (modulo the held count).
        FreeHeld(usize),
        /// Frees an arbitrary range: usually a double free.
        FreeAny(u64, u64),
    }

    const MODEL_BLOCKS: u64 = 1 << 12;

    fn tree_ops() -> impl Strategy<Value = Vec<TreeOp>> {
        proptest::collection::vec(
            prop_oneof![
                6 => (1u64..40).prop_map(TreeOp::Alloc),
                1 => (0..MODEL_BLOCKS, 1u64..40).prop_map(|(s, l)| TreeOp::AllocSpecific(s, l)),
                5 => any::<usize>().prop_map(TreeOp::FreeHeld),
                1 => (0..MODEL_BLOCKS, 1u64..40).prop_map(|(s, l)| TreeOp::FreeAny(s, l)),
            ],
            1..1500,
        )
    }

    /// The free list as a `BTreeMap` of `start -> len`, coalesced.
    #[derive(Default)]
    struct FreeModel(std::collections::BTreeMap<u64, u64>);

    impl FreeModel {
        fn alloc(&mut self, want: u64) -> Option<u64> {
            let (&s, &l) = self.0.iter().find(|(_, &l)| l >= want)?;
            self.take(s, l, s, want);
            Some(s)
        }

        /// Carves `[start, start+len)` out of the free extent `[s, s+l)`.
        fn take(&mut self, s: u64, l: u64, start: u64, len: u64) {
            self.0.remove(&s);
            if s < start {
                self.0.insert(s, start - s);
            }
            if start + len < s + l {
                self.0.insert(start + len, s + l - (start + len));
            }
        }

        fn alloc_specific(&mut self, start: u64, len: u64) -> bool {
            match self.0.range(..=start).next_back() {
                Some((&s, &l)) if s + l >= start + len => {
                    self.take(s, l, start, len);
                    true
                }
                _ => false,
            }
        }

        fn free(&mut self, mut start: u64, mut len: u64) -> bool {
            let prev = self.0.range(..=start).next_back().map(|(&s, &l)| (s, l));
            let next = self.0.range(start + 1..).next().map(|(&s, &l)| (s, l));
            if prev.is_some_and(|(s, l)| s + l > start)
                || next.is_some_and(|(s, _)| s < start + len)
            {
                return false;
            }
            if let Some((s, l)) = prev.filter(|(s, l)| s + l == start) {
                self.0.remove(&s);
                start = s;
                len += l;
            }
            if let Some((s, l)) = next.filter(|(s, _)| *s == start + len) {
                self.0.remove(&s);
                len += l;
            }
            self.0.insert(start, len);
            true
        }
    }

    fn run_against_model(ops: &[TreeOp]) {
        let mut tree = ExtentBTree::new_free(0, MODEL_BLOCKS);
        let mut model = FreeModel::default();
        model.0.insert(0, MODEL_BLOCKS);
        let mut held: Vec<(u64, u64)> = Vec::new();
        for op in ops {
            match *op {
                TreeOp::Alloc(len) => {
                    let want = model.alloc(len);
                    assert_eq!(tree.alloc(len).ok(), want, "{op:?}");
                    held.extend(want.map(|s| (s, len)));
                }
                TreeOp::AllocSpecific(start, len) => {
                    let ok = model.alloc_specific(start, len);
                    assert_eq!(tree.alloc_specific(start, len).is_ok(), ok, "{op:?}");
                    if ok {
                        held.push((start, len));
                    }
                }
                // Freeing a held extent succeeds unless a `FreeAny` already
                // returned part of it; either way the two must agree.
                TreeOp::FreeHeld(_) if held.is_empty() => {}
                TreeOp::FreeHeld(i) => {
                    let (start, len) = held.swap_remove(i % held.len());
                    assert_eq!(tree.free(start, len).is_ok(), model.free(start, len));
                }
                TreeOp::FreeAny(start, len) => {
                    assert_eq!(tree.free(start, len).is_ok(), model.free(start, len));
                }
            }
            let want: Vec<_> = model.0.iter().map(|(&s, &l)| (s, l)).collect();
            assert_eq!(tree.iter(), want, "after {op:?}");
        }
        tree.check_invariants();
    }

    proptest! {
        /// `alloc` / `alloc_specific` / `free` against a `BTreeMap` free
        /// list: same extents after every step, first fit, coalescing, a
        /// double free is an `Err` and nothing ever panics.
        #[test]
        fn matches_free_list_model(ops in tree_ops()) {
            run_against_model(&ops);
        }
    }
}
