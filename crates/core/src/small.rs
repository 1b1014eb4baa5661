//! A safe inline small-vector for `Copy` element types.
//!
//! Composite and interval states hold at most `2 × |valid states| + 1`
//! classes — at most eleven for the richest shipped protocol (MOESI) —
//! yet the pre-refactor representation stored them in a heap `Vec`,
//! making every state clone an allocation. [`InlineVec`] keeps up to
//! `N` elements inline (on the stack or inside the owning struct) and
//! spills to a heap `Vec` only beyond that, so cloning a typical state
//! is a fixed-size `memcpy` and the symbolic hot loop runs
//! allocation-free once its scratch buffers are warm.
//!
//! The crate forbids `unsafe`, so the inline buffer is a plain
//! `[T; N]` of `Default` values with an explicit length — no
//! `MaybeUninit` tricks. Equality and hashing go through the active
//! slice, so a spilled vector compares equal to an inline one with the
//! same contents.

use core::fmt;
use core::hash::{Hash, Hasher};
use core::ops::{Deref, DerefMut};

#[derive(Clone)]
enum Repr<T, const N: usize> {
    Inline { buf: [T; N], len: u8 },
    Heap(Vec<T>),
}

/// A vector storing up to `N` elements inline, spilling to the heap
/// past that. See the module docs for the rationale.
#[derive(Clone)]
pub struct InlineVec<T, const N: usize> {
    repr: Repr<T, N>,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty vector (inline, no allocation).
    pub fn new() -> InlineVec<T, N> {
        InlineVec {
            repr: Repr::Inline {
                buf: [T::default(); N],
                len: 0,
            },
        }
    }

    /// An inline copy of `slice` (spilled if it exceeds `N`).
    pub fn from_slice(slice: &[T]) -> InlineVec<T, N> {
        let mut v = InlineVec::new();
        for &x in slice {
            v.push(x);
        }
        v
    }

    /// The active elements.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Inline { buf, len } => &buf[..*len as usize],
            Repr::Heap(v) => v.as_slice(),
        }
    }

    /// The active elements, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.repr {
            Repr::Inline { buf, len } => &mut buf[..*len as usize],
            Repr::Heap(v) => v.as_mut_slice(),
        }
    }

    /// Appends an element, spilling to the heap when the inline buffer
    /// is full.
    pub fn push(&mut self, value: T) {
        match &mut self.repr {
            Repr::Inline { buf, len } => {
                if (*len as usize) < N {
                    buf[*len as usize] = value;
                    *len += 1;
                } else {
                    let mut heap = Vec::with_capacity(N * 2);
                    heap.extend_from_slice(&buf[..]);
                    heap.push(value);
                    self.repr = Repr::Heap(heap);
                }
            }
            Repr::Heap(v) => v.push(value),
        }
    }

    /// Inserts `value` at `index`, shifting later elements right.
    ///
    /// # Panics
    /// Panics if `index > len()`.
    #[inline]
    pub fn insert(&mut self, index: usize, value: T) {
        match &mut self.repr {
            Repr::Inline { buf, len } => {
                let n = *len as usize;
                assert!(index <= n, "insert index {index} out of bounds ({n})");
                if n < N {
                    buf.copy_within(index..n, index + 1);
                    buf[index] = value;
                    *len += 1;
                } else {
                    let mut heap = Vec::with_capacity(N * 2);
                    heap.extend_from_slice(&buf[..]);
                    heap.insert(index, value);
                    self.repr = Repr::Heap(heap);
                }
            }
            Repr::Heap(v) => v.insert(index, value),
        }
    }

    /// Removes and returns the element at `index`, shifting later
    /// elements left.
    ///
    /// # Panics
    /// Panics if `index >= len()`.
    #[inline]
    pub fn remove(&mut self, index: usize) -> T {
        match &mut self.repr {
            Repr::Inline { buf, len } => {
                let n = *len as usize;
                assert!(index < n, "remove index {index} out of bounds ({n})");
                let value = buf[index];
                buf.copy_within(index + 1..n, index);
                *len -= 1;
                value
            }
            Repr::Heap(v) => v.remove(index),
        }
    }

    /// Keeps only the elements for which `keep` returns true.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        match &mut self.repr {
            Repr::Inline { buf, len } => {
                let n = *len as usize;
                let mut write = 0usize;
                for read in 0..n {
                    if keep(&buf[read]) {
                        buf[write] = buf[read];
                        write += 1;
                    }
                }
                *len = write as u8;
            }
            Repr::Heap(v) => v.retain(keep),
        }
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Inline { len, .. } => *len = 0,
            Repr::Heap(v) => v.clear(),
        }
    }

    /// Number of active elements.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(v) => v.len(),
        }
    }

    /// True iff no element is stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap capacity in elements (`0` while the vector is inline) —
    /// lets owners estimate their true memory footprint.
    pub fn heap_capacity(&self) -> usize {
        match &self.repr {
            Repr::Inline { .. } => 0,
            Repr::Heap(v) => v.capacity(),
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> InlineVec<T, N> {
        InlineVec::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for InlineVec<T, N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &InlineVec<T, N>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + Default + Hash, const N: usize> Hash for InlineVec<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> InlineVec<T, N> {
        let mut v = InlineVec::new();
        for x in iter {
            v.push(x);
        }
        v
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = core::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type V = InlineVec<u32, 4>;

    #[test]
    fn push_and_read_inline() {
        let mut v = V::new();
        assert!(v.is_empty());
        v.push(7);
        v.push(9);
        assert_eq!(v.len(), 2);
        assert_eq!(v.as_slice(), &[7, 9]);
        assert_eq!(v.heap_capacity(), 0);
    }

    #[test]
    fn spills_past_capacity_and_keeps_contents() {
        let mut v = V::new();
        for i in 0..10 {
            v.push(i);
        }
        assert_eq!(v.len(), 10);
        assert_eq!(v.as_slice(), &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert!(v.heap_capacity() >= 10);
    }

    #[test]
    fn spilled_equals_inline_with_same_contents() {
        let mut a = V::new();
        for i in 0..10 {
            a.push(i);
        }
        a.retain(|&x| x < 3);
        let b = V::from_slice(&[0, 1, 2]);
        assert_eq!(a.as_slice(), b.as_slice());
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::Hasher as _;
        let hash = |v: &V| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
    }

    #[test]
    fn insert_and_remove_inline_and_spilled() {
        let mut v = V::from_slice(&[1, 3]);
        v.insert(1, 2);
        assert_eq!(v.as_slice(), &[1, 2, 3]);
        assert_eq!(v.remove(0), 1);
        assert_eq!(v.as_slice(), &[2, 3]);

        // Insert at the boundary forces a spill.
        let mut w = V::from_slice(&[1, 2, 3, 4]);
        w.insert(2, 9);
        assert_eq!(w.as_slice(), &[1, 2, 9, 3, 4]);
        assert_eq!(w.remove(2), 9);
        assert_eq!(w.as_slice(), &[1, 2, 3, 4]);
    }

    #[test]
    fn retain_compacts_in_place() {
        let mut v = V::from_slice(&[1, 2, 3, 4]);
        v.retain(|&x| x % 2 == 0);
        assert_eq!(v.as_slice(), &[2, 4]);
        v.clear();
        assert!(v.is_empty());
    }

    #[test]
    fn slice_methods_work_through_deref() {
        let mut v = V::from_slice(&[3, 1, 2]);
        v.sort_unstable();
        assert_eq!(v.as_slice(), &[1, 2, 3]);
        assert_eq!(v.iter().sum::<u32>(), 6);
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }
}
