//! An inline-first vector for small hot-path collections.
//!
//! Replica target lists, ack ledgers, and per-op effect batches are almost
//! always a handful of elements (replication factor ≤ 4 in every paper
//! configuration), yet `Vec` pays a heap allocation for each. [`SmallVec`]
//! stores up to `N` elements inline on the stack and spills to a `Vec` only
//! beyond that, so the common case allocates nothing while odd configs
//! (wide fan-out experiments) still work.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A vector holding up to `N` elements inline, spilling to the heap beyond.
///
/// Every user stores plain ids (`OsdId`, `NodeId`, `u64`), so the inline
/// buffer is an ordinary `[T; N]` padded with `T::default()` — no
/// uninitialized memory and nothing to drop.
#[derive(Clone)]
pub struct SmallVec<T, const N: usize> {
    /// Number of live inline elements; ignored once spilled.
    len: usize,
    data: Data<T, N>,
}

#[derive(Clone)]
enum Data<T, const N: usize> {
    Inline([T; N]),
    Heap(Vec<T>),
}

impl<T: Copy + Default, const N: usize> SmallVec<T, N> {
    /// An empty vector (no allocation).
    pub fn new() -> Self {
        SmallVec {
            len: 0,
            data: Data::Inline([T::default(); N]),
        }
    }

    /// Appends an element, spilling to the heap at the `N+1`-th push.
    pub fn push(&mut self, value: T) {
        match &mut self.data {
            Data::Inline(buf) => {
                if self.len < N {
                    buf[self.len] = value;
                    self.len += 1;
                } else {
                    let mut v = Vec::with_capacity(N * 2);
                    v.extend_from_slice(buf);
                    v.push(value);
                    self.data = Data::Heap(v);
                }
            }
            Data::Heap(v) => v.push(value),
        }
    }

    /// Converts into a plain `Vec`, allocating only if still inline.
    pub fn into_vec(self) -> Vec<T> {
        match self.data {
            Data::Inline(buf) => buf[..self.len].to_vec(),
            Data::Heap(v) => v,
        }
    }

    /// Keeps only the elements `f` accepts, preserving order.
    pub fn retain(&mut self, mut f: impl FnMut(&T) -> bool) {
        match &mut self.data {
            Data::Heap(v) => v.retain(|t| f(t)),
            Data::Inline(buf) => {
                let mut kept = 0;
                for i in 0..self.len {
                    let item = buf[i];
                    if f(&item) {
                        buf[kept] = item;
                        kept += 1;
                    }
                }
                self.len = kept;
            }
        }
    }
}

impl<T, const N: usize> SmallVec<T, N> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes all elements, keeping heap capacity if spilled.
    pub fn clear(&mut self) {
        match &mut self.data {
            Data::Inline(_) => self.len = 0,
            Data::Heap(v) => v.clear(),
        }
    }

    /// The elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        match &self.data {
            Data::Inline(buf) => &buf[..self.len],
            Data::Heap(v) => v,
        }
    }

    /// The elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.data {
            Data::Inline(buf) => &mut buf[..self.len],
            Data::Heap(v) => v,
        }
    }

    /// Iterates the elements.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default, const N: usize> Default for SmallVec<T, N> {
    fn default() -> Self {
        SmallVec::new()
    }
}

impl<T, const N: usize> Deref for SmallVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T, const N: usize> DerefMut for SmallVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + Default, const N: usize> Extend<T> for SmallVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for SmallVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = SmallVec::new();
        out.extend(iter);
        out
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a SmallVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Copy + Default, const N: usize> IntoIterator for SmallVec<T, N> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;
    /// By-value iteration goes through a `Vec` (allocates when inline);
    /// hot paths should iterate by reference instead.
    fn into_iter(self) -> Self::IntoIter {
        self.into_vec().into_iter()
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for SmallVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl<T: PartialEq, const N: usize> PartialEq for SmallVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq, const N: usize> Eq for SmallVec<T, N> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn inline_until_capacity_then_spills() {
        let mut v: SmallVec<u32, 4> = SmallVec::new();
        for i in 0..4 {
            v.push(i);
        }
        assert!(matches!(v.data, Data::Inline(_)));
        v.push(4);
        assert!(matches!(v.data, Data::Heap(_)));
        assert_eq!(v.as_slice(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn clear_keeps_reuse_working() {
        let mut v: SmallVec<u32, 2> = SmallVec::new();
        v.push(1);
        v.push(2);
        v.push(3);
        v.clear();
        assert!(v.is_empty());
        v.push(4);
        assert_eq!(v.as_slice(), &[4]);
    }

    #[test]
    fn clone_and_eq_match_contents() {
        let v: SmallVec<u8, 2> = [1u8, 2, 3].into_iter().collect();
        let w = v.clone();
        assert_eq!(v, w);
        assert_eq!(w.len(), 3);
    }

    #[derive(Debug, Clone)]
    enum Step {
        Push(u32),
        /// Keep the elements not divisible by this.
        Retain(u32),
        Clear,
        /// Carry on with a clone, checking the original stays as it was.
        Clone,
    }

    fn steps() -> impl Strategy<Value = Vec<Step>> {
        let step = prop_oneof![
            6 => any::<u32>().prop_map(Step::Push),
            2 => (2..5u32).prop_map(Step::Retain),
            1 => Just(Step::Clear),
            1 => Just(Step::Clone)
        ];
        proptest::collection::vec(step, 0..40)
    }

    proptest! {
        /// `SmallVec<_, 4>` beside a `Vec` through pushes past the spill
        /// boundary, retains that shrink it back under, clears and clones.
        #[test]
        fn matches_vec_across_the_spill_boundary(steps in steps()) {
            let mut small: SmallVec<u32, 4> = SmallVec::new();
            let mut model: Vec<u32> = Vec::new();
            for step in steps {
                match step {
                    Step::Push(x) => {
                        small.push(x);
                        model.push(x);
                    }
                    Step::Retain(d) => {
                        small.retain(|x| x % d != 0);
                        model.retain(|x| x % d != 0);
                    }
                    Step::Clear => {
                        small.clear();
                        model.clear();
                    }
                    Step::Clone => {
                        let copy = small.clone();
                        let original = std::mem::replace(&mut small, copy);
                        prop_assert_eq!(original.into_vec(), model.clone());
                    }
                }
                prop_assert_eq!(small.as_slice(), model.as_slice());
                prop_assert_eq!(small.len(), model.len());
            }
            prop_assert_eq!(small.into_vec(), model);
        }
    }
}
