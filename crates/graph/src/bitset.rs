//! A plain bit-packed vertex set.
//!
//! The matching searchers keep several per-vertex boolean overlays
//! (even-level marks, blossom membership, LCA marks) that were stored as
//! `Vec<bool>` — one byte per vertex, and a full byte-wise sweep to
//! clear. [`BitSet`] packs them 64 per word, cutting the overlay
//! footprint 8× and turning whole-set clears into word fills, while
//! keeping `clear`-not-drop reuse semantics so warm scratch paths stay
//! allocation-free.

/// A fixed-universe set of `usize` keys packed 64 per `u64` word.
#[derive(Clone, Debug, Default)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set over the empty universe.
    pub fn new() -> Self {
        BitSet::default()
    }

    /// Number of keys in the universe (not the number of set bits).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resize the universe to `n` keys with every bit false, reusing the
    /// backing words (allocation-free once grown to the high-water `n`).
    pub fn clear_and_resize(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), 0);
        self.len = n;
    }

    /// Set every bit false, keeping the universe size.
    pub fn clear_all(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Whether `i` is in the set.
    #[inline(always)]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i >> 6] & (1u64 << (i & 63)) != 0
    }

    /// Insert `i`.
    #[inline(always)]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    /// Remove `i`.
    #[inline(always)]
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i >> 6] &= !(1u64 << (i & 63));
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Bytes of backing capacity held (for scratch accounting).
    pub fn capacity_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_roundtrip() {
        let mut s = BitSet::new();
        s.clear_and_resize(130);
        assert_eq!(s.len(), 130);
        for i in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!s.get(i));
            s.set(i);
            assert!(s.get(i));
        }
        assert_eq!(s.count_ones(), 8);
        s.remove(64);
        assert!(!s.get(64) && s.get(63) && s.get(65));
        assert_eq!(s.count_ones(), 7);
        s.clear_all();
        assert_eq!(s.count_ones(), 0);
        assert_eq!(s.len(), 130);
    }

    #[test]
    fn resize_is_allocation_free_when_warm() {
        let mut s = BitSet::new();
        s.clear_and_resize(1000);
        s.set(999);
        let cap = s.capacity_bytes();
        s.clear_and_resize(500);
        assert_eq!(s.capacity_bytes(), cap);
        assert_eq!(s.count_ones(), 0);
        s.clear_and_resize(1000);
        assert_eq!(s.capacity_bytes(), cap);
        assert!(!s.get(999), "bits must come back false after regrow");
    }

    #[test]
    fn packs_eight_keys_per_byte() {
        let mut s = BitSet::new();
        s.clear_and_resize(64 * 100);
        assert_eq!(s.capacity_bytes(), 800);
    }
}
