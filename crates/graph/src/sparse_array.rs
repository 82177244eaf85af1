//! An array with O(1) initialization ("sparse array").
//!
//! Theorem 3.1 needs, for each vertex `v`, a positions array `pos_v` that is
//! (conceptually) initialized to a default value in O(1) time — otherwise
//! initializing `n` arrays of total length `Σ deg(v) = 2m` would already
//! cost linear time in the input, defeating sublinearity. The classic
//! solution (Aho–Hopcroft–Ullman, *The Design and Analysis of Computer
//! Algorithms*, Exercise 2.12) keeps a stack of initialized slots and a
//! back-pointer certificate per slot: a slot's value is valid iff its
//! back-pointer indexes a stack entry that points back at the slot.
//!
//! This implementation deliberately avoids `unsafe`: the backing stores
//! are eagerly filled with `vec![default; len]` / `vec![0; len]` at
//! construction, a one-time `O(len)` fill. (For zeroed patterns the
//! allocator typically serves this from fresh zero pages anyway.) That
//! eager fill does not undermine the complexity claims, for two reasons:
//! the sampler's *measured* complexity counts probes to the read-only
//! input graph, not private-buffer writes; and one array of length
//! `max_degree` is allocated once and shared across all vertices (see
//! `PosArraySampler`), so the fill is paid once, not per vertex. After
//! construction, the AHU back-pointer certificate keeps the *algorithmic*
//! cost honest: touching `k` slots performs exactly `k` certified writes,
//! [`SparseArray::clear`] is O(1) regardless of how many slots were
//! written, and [`SparseArray::writes`] exposes the touched-slot count so
//! tests can assert the O(k) bound.

/// An array of `len` slots, conceptually all equal to a default value, with
/// O(1) logical initialization and O(1) get/set.
///
/// ```
/// use sparsimatch_graph::sparse_array::SparseArray;
///
/// let mut a = SparseArray::new(1_000_000, 0u32);
/// a.set(123_456, 7);
/// assert_eq!(*a.get(123_456), 7);
/// assert_eq!(*a.get(0), 0);
/// a.clear(); // O(1), regardless of how many slots were written
/// assert_eq!(*a.get(123_456), 0);
/// ```
#[derive(Clone, Debug)]
pub struct SparseArray<T> {
    default: T,
    /// `data[i]` is meaningful iff `certify(i)`.
    data: Vec<T>,
    /// Back-pointer of slot `i` into `touched`.
    back: Vec<usize>,
    /// Stack of touched slot indices.
    touched: Vec<usize>,
}

impl<T: Clone> SparseArray<T> {
    /// A sparse array of `len` slots, all logically `default`.
    pub fn new(len: usize, default: T) -> Self {
        SparseArray {
            data: vec![default.clone(); len],
            back: vec![0; len],
            touched: Vec::new(),
            default,
        }
    }

    /// Number of slots.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the array has zero slots.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// How many distinct slots have been written since the last
    /// (re-)initialization. This is the algorithmic cost certificate.
    #[inline(always)]
    pub fn writes(&self) -> usize {
        self.touched.len()
    }

    #[inline(always)]
    fn certified(&self, i: usize) -> bool {
        let b = self.back[i];
        b < self.touched.len() && self.touched[b] == i
    }

    /// Read slot `i` (the default if never written).
    #[inline(always)]
    pub fn get(&self, i: usize) -> &T {
        if self.certified(i) {
            &self.data[i]
        } else {
            &self.default
        }
    }

    /// Write slot `i`.
    #[inline(always)]
    pub fn set(&mut self, i: usize, value: T) {
        if !self.certified(i) {
            self.back[i] = self.touched.len();
            self.touched.push(i);
        }
        self.data[i] = value;
    }

    /// Logically reset every slot to the default in O(1).
    #[inline(always)]
    pub fn clear(&mut self) {
        self.touched.clear();
    }

    /// Grow to at least `len` slots; no-op when already large enough.
    /// Logical contents are preserved: a fresh slot `i ≥ old_len` starts
    /// with `back[i] == 0`, and every live `touched` entry indexes a slot
    /// below `old_len`, so `i` can never be falsely certified.
    pub fn ensure_len(&mut self, len: usize) {
        if len > self.data.len() {
            self.data.resize(len, self.default.clone());
            self.back.resize(len, 0);
        }
    }

    /// Heap bytes of backing capacity currently held (an estimate —
    /// element sizes, not allocator overhead).
    pub fn capacity_bytes(&self) -> usize {
        use std::mem::size_of;
        self.data.capacity() * size_of::<T>()
            + (self.back.capacity() + self.touched.capacity()) * size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_everywhere_initially() {
        let a: SparseArray<u32> = SparseArray::new(10, 7);
        for i in 0..10 {
            assert_eq!(*a.get(i), 7);
        }
        assert_eq!(a.writes(), 0);
    }

    #[test]
    fn set_then_get() {
        let mut a = SparseArray::new(5, 0usize);
        a.set(3, 42);
        assert_eq!(*a.get(3), 42);
        assert_eq!(*a.get(2), 0);
        assert_eq!(a.writes(), 1);
        a.set(3, 43);
        assert_eq!(*a.get(3), 43);
        assert_eq!(a.writes(), 1, "rewrite of same slot is not a new touch");
    }

    #[test]
    fn clear_is_logical_reinit() {
        let mut a = SparseArray::new(4, -1i64);
        a.set(0, 5);
        a.set(2, 9);
        a.clear();
        assert_eq!(a.writes(), 0);
        for i in 0..4 {
            assert_eq!(*a.get(i), -1);
        }
        // Stale certificates must not resurrect: write one slot, others stay default.
        a.set(2, 11);
        assert_eq!(*a.get(2), 11);
        assert_eq!(*a.get(0), -1);
    }

    #[test]
    fn ensure_len_grows_without_resurrecting_state() {
        let mut a = SparseArray::new(3, 9u32);
        a.set(0, 1);
        a.set(2, 2);
        a.ensure_len(8);
        assert_eq!(a.len(), 8);
        assert_eq!(*a.get(0), 1);
        assert_eq!(*a.get(2), 2);
        for i in 3..8 {
            assert_eq!(*a.get(i), 9, "new slot {i} must read as default");
        }
        a.ensure_len(4); // shrink request is a no-op
        assert_eq!(a.len(), 8);
        a.clear();
        for i in 0..8 {
            assert_eq!(*a.get(i), 9);
        }
        a.set(7, 5);
        assert_eq!(*a.get(7), 5);
        assert_eq!(a.writes(), 1);
    }

    #[test]
    fn behaves_like_plain_array_under_random_ops() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xA11CE);
        let n = 64;
        let mut sparse = SparseArray::new(n, 0u64);
        let mut dense = vec![0u64; n];
        for step in 0..10_000 {
            if step % 500 == 499 {
                sparse.clear();
                dense.iter_mut().for_each(|x| *x = 0);
            } else if rng.random_bool(0.5) {
                let i = rng.random_range(0..n);
                let v = rng.random::<u64>();
                sparse.set(i, v);
                dense[i] = v;
            } else {
                let i = rng.random_range(0..n);
                assert_eq!(*sparse.get(i), dense[i]);
            }
        }
        for (i, &d) in dense.iter().enumerate().take(n) {
            assert_eq!(*sparse.get(i), d);
        }
    }
}
