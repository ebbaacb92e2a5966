//! A bounded small list: the backing store for the capability and request
//! lists of the shim header.
//!
//! The paper bounds the capability list by the path length (§4.1: one entry
//! per capability router, and the TTL bounds the path), so the header never
//! needs a growable vector. The first [`INLINE`] entries live in the list
//! itself; a longer list moves into one heap block sized for the full bound
//! `N`. Every path this repository simulates or benchmarks crosses at most
//! four capability routers, so packet construction, cloning and dropping
//! stay allocation-free on the forwarding fast path — the property the §4.3
//! "bounded state" argument rests on — while a `Packet` stays small enough
//! to move cheaply. Only a list of five or more entries (an adversarially
//! long request, a deep path) pays one allocation.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// Entries stored in the list itself before it spills to the heap: the
/// deepest capability-router path in the repository (`tests/long_paths.rs`).
pub(crate) const INLINE: usize = 4;

/// A list of at most `N` elements: up to [`INLINE`] stored inline, a longer
/// one in a single heap block of `N` slots (which then holds *all* entries,
/// so the live prefix is always one contiguous slice).
///
/// Dereferences to a slice of the live prefix, so iteration, indexing and
/// slice methods work exactly as they did on the `Vec` it replaces.
/// Equality, hashing and debug formatting all see only the live prefix.
#[derive(Clone)]
pub struct InlineList<T, const N: usize> {
    len: u8,
    head: [T; INLINE],
    /// `Some` exactly when `len > INLINE`.
    spill: Option<Box<[T; N]>>,
}

impl<T: Copy + Default, const N: usize> InlineList<T, N> {
    /// An empty list.
    #[inline]
    pub fn new() -> Self {
        InlineList { len: 0, head: [T::default(); INLINE], spill: None }
    }

    /// Appends an element.
    ///
    /// # Panics
    ///
    /// Panics if the list is full. Callers on the router path check
    /// remaining capacity first (as the wire format's count bound demands);
    /// the codec rejects oversized counts before ever pushing.
    #[inline]
    pub fn push(&mut self, item: T) {
        let len = self.len as usize;
        assert!(len < N, "InlineList capacity ({N}) exceeded");
        if len < INLINE {
            self.head[len] = item;
        } else {
            let head = &self.head;
            self.spill.get_or_insert_with(|| Self::spill_block(head))[len] = item;
        }
        self.len += 1;
    }

    /// A fresh heap block seeded with the inline entries. Built on the heap
    /// directly: a block is `N` entries, too large to stage on the stack.
    #[cold]
    fn spill_block(head: &[T; INLINE]) -> Box<[T; N]> {
        let mut block = vec![T::default(); N].into_boxed_slice();
        block[..INLINE].copy_from_slice(head);
        block.try_into().unwrap_or_else(|_| unreachable!("the block was built with N slots"))
    }

    /// Removes all elements (and frees the heap block, if any).
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
        self.spill = None;
    }
}

impl<T, const N: usize> InlineList<T, N> {
    /// Whether the entries live in the heap block (the list is longer than
    /// [`INLINE`]).
    #[inline]
    pub fn spilled(&self) -> bool {
        self.spill.is_some()
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineList<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> Deref for InlineList<T, N> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        let len = self.len as usize;
        match &self.spill {
            None => &self.head[..len],
            Some(block) => &block[..len],
        }
    }
}

impl<T, const N: usize> DerefMut for InlineList<T, N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        let len = self.len as usize;
        match &mut self.spill {
            None => &mut self.head[..len],
            Some(block) => &mut block[..len],
        }
    }
}

impl<T: Copy + Default, const N: usize> Extend<T> for InlineList<T, N> {
    #[inline]
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

impl<T: Copy + Default, const N: usize> From<&[T]> for InlineList<T, N> {
    fn from(slice: &[T]) -> Self {
        slice.iter().copied().collect()
    }
}

impl<T: Copy + Default, const N: usize> From<Vec<T>> for InlineList<T, N> {
    fn from(v: Vec<T>) -> Self {
        Self::from(v.as_slice())
    }
}

impl<T: Copy + Default, const N: usize, const M: usize> From<[T; M]> for InlineList<T, N> {
    fn from(arr: [T; M]) -> Self {
        Self::from(arr.as_slice())
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineList<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut list = Self::new();
        list.extend(iter);
        list
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineList<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineList<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl<T: PartialEq, const N: usize> PartialEq<Vec<T>> for InlineList<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self[..] == other[..]
    }
}

impl<T: Eq, const N: usize> Eq for InlineList<T, N> {}

impl<T: Hash, const N: usize> Hash for InlineList<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        Hash::hash(&self[..], state)
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineList<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self[..], f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    type L = InlineList<u32, 4>;
    type Long = InlineList<u32, 32>;

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn starts_empty_and_grows() {
        let mut l = L::new();
        assert!(l.is_empty());
        l.push(1);
        l.push(2);
        assert_eq!(l.len(), 2);
        assert_eq!(&l[..], &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn push_past_capacity_panics() {
        let mut l = L::new();
        for i in 0..5 {
            l.push(i);
        }
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn push_past_spilled_capacity_panics() {
        let mut l = Long::new();
        for i in 0..33 {
            l.push(i);
        }
    }

    #[test]
    fn equality_ignores_dead_slots() {
        let mut a = L::new();
        a.push(7);
        a.push(8);
        a.push(9);
        // Shrink: the dead third slot still holds 9 internally.
        let trimmed: L = a[..2].into();
        let mut b = L::new();
        b.push(7);
        b.push(8);
        assert_eq!(trimmed, b);
    }

    #[test]
    fn conversions_roundtrip() {
        let v = vec![1u32, 2, 3];
        let l: L = v.clone().into();
        assert_eq!(l, v);
        let back: Vec<u32> = l.iter().copied().collect();
        assert_eq!(back, v);
        let from_arr: L = [4u32, 5].into();
        assert_eq!(&from_arr[..], &[4, 5]);
    }

    #[test]
    fn clear_resets_len() {
        let mut l = L::new();
        l.push(1);
        l.clear();
        assert!(l.is_empty());
        assert_eq!(l, L::new());
    }

    #[test]
    fn slice_mutation_via_deref_mut() {
        let mut l = L::new();
        l.push(1);
        l.push(2);
        l[0] = 10;
        assert_eq!(&l[..], &[10, 2]);
        let mut long: Long = (0..9).collect();
        long[8] = 80;
        long[1] = 10;
        assert_eq!(&long[..], &[0, 10, 2, 3, 4, 5, 6, 7, 80]);
    }

    #[test]
    fn up_to_four_entries_never_spill() {
        let mut l = Long::new();
        assert!(!l.spilled());
        for i in 0..INLINE as u32 {
            l.push(i);
            assert!(!l.spilled(), "{} entries must stay inline", i + 1);
        }
        for n in 0..=INLINE {
            let from_slice = Long::from(&[9u32; INLINE][..n]);
            assert!(!from_slice.spilled());
            assert!(!from_slice.clone().spilled());
        }
    }

    #[test]
    fn fifth_push_spills_and_preserves_the_first_four() {
        let mut l: Long = [10u32, 11, 12, 13].into();
        l.push(14);
        assert!(l.spilled());
        assert_eq!(&l[..], &[10, 11, 12, 13, 14]);
        for i in 15..42 {
            l.push(i);
        }
        assert_eq!(l.len(), 32);
        assert_eq!(l.iter().copied().collect::<Vec<_>>(), (10..42).collect::<Vec<u32>>());
        assert_eq!(l.clone(), l);
    }

    #[test]
    fn clear_then_repush_starts_inline_again() {
        let mut l: Long = (0..20).collect();
        assert!(l.spilled());
        l.clear();
        assert!(l.is_empty());
        assert!(!l.spilled(), "clear frees the heap block");
        l.push(7);
        assert_eq!(&l[..], &[7]);
        assert!(!l.spilled());
        l.extend(8..14);
        assert!(l.spilled());
        assert_eq!(&l[..], &[7, 8, 9, 10, 11, 12, 13]);
    }

    #[test]
    fn equality_and_hash_see_entries_not_storage() {
        let inline: Long = [1u32, 2, 3, 4].into();
        let spilled: Long = [1u32, 2, 3, 4, 5].into();
        assert_ne!(inline, spilled);
        assert_ne!(hash_of(&inline), hash_of(&spilled));
        // Same four-entry prefix, one side read out of a heap block.
        let prefix: Long = spilled[..4].into();
        assert_eq!(prefix, inline);
        assert_eq!(hash_of(&prefix), hash_of(&inline));
        assert_eq!(hash_of(&inline), hash_of(&vec![1u32, 2, 3, 4][..]));
        let again: Long = (1..=5).collect();
        assert_eq!(again, spilled);
        assert_eq!(hash_of(&again), hash_of(&spilled));
    }
}
