//! The matching representation shared by every algorithm in the workspace.

use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::ids::VertexId;

const UNMATCHED: u32 = u32::MAX;

/// A matching over a fixed vertex set, stored as a mate array.
///
/// ```
/// use sparsimatch_matching::Matching;
/// use sparsimatch_graph::ids::VertexId;
///
/// let mut m = Matching::new(4);
/// assert!(m.add_pair(VertexId(0), VertexId(2)));
/// assert!(!m.add_pair(VertexId(2), VertexId(3)), "vertex 2 is taken");
/// assert_eq!(m.mate(VertexId(0)), Some(VertexId(2)));
/// assert_eq!(m.len(), 1);
/// ```
///
/// The invariant `mate[mate[v]] == v` is maintained by construction; all
/// mutating operations keep it. A `Matching` does not hold a reference to
/// its graph — audits like [`Matching::is_valid_for`] take the graph
/// explicitly, which lets one matching be checked against several graphs
/// (e.g. a matching computed on a sparsifier audited against the original
/// graph, the central move of the whole paper).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Matching {
    mate: Vec<u32>,
    size: usize,
}

impl Matching {
    /// The empty matching on `n` vertices.
    pub fn new(n: usize) -> Self {
        Matching {
            mate: vec![UNMATCHED; n],
            size: 0,
        }
    }

    /// Reset to the empty matching on `n` vertices, keeping the mate
    /// array's capacity. The scratch-reuse equivalent of
    /// [`Matching::new`]: no allocation when `n` fits the existing
    /// capacity.
    pub fn reset(&mut self, n: usize) {
        self.mate.clear();
        self.mate.resize(n, UNMATCHED);
        self.size = 0;
    }

    /// Build from explicit pairs; panics if any vertex repeats.
    pub fn from_pairs(n: usize, pairs: impl IntoIterator<Item = (VertexId, VertexId)>) -> Self {
        let mut m = Matching::new(n);
        for (u, v) in pairs {
            assert!(m.add_pair(u, v), "vertex reused in from_pairs");
        }
        m
    }

    /// Heap bytes of mate-array capacity held (an estimate — element
    /// sizes, not allocator overhead).
    pub fn capacity_bytes(&self) -> usize {
        self.mate.capacity() * std::mem::size_of::<u32>()
    }

    /// Number of vertices the matching is defined over.
    pub fn num_vertices(&self) -> usize {
        self.mate.len()
    }

    /// Number of matched pairs `|M|`.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.size
    }

    /// True if no vertex is matched.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Whether `v` is matched.
    #[inline(always)]
    pub fn is_matched(&self, v: VertexId) -> bool {
        self.mate[v.index()] != UNMATCHED
    }

    /// The mate of `v`, if any.
    #[inline(always)]
    pub fn mate(&self, v: VertexId) -> Option<VertexId> {
        let m = self.mate[v.index()];
        (m != UNMATCHED).then_some(VertexId(m))
    }

    /// Match `u` with `v`. Returns `false` (and changes nothing) if either
    /// endpoint is already matched or `u == v`.
    pub fn add_pair(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v || self.is_matched(u) || self.is_matched(v) {
            return false;
        }
        self.mate[u.index()] = v.0;
        self.mate[v.index()] = u.0;
        self.size += 1;
        true
    }

    /// Unmatch the pair containing `v`. Returns the former mate, if any.
    pub fn remove_pair(&mut self, v: VertexId) -> Option<VertexId> {
        let m = self.mate(v)?;
        self.mate[v.index()] = UNMATCHED;
        self.mate[m.index()] = UNMATCHED;
        self.size -= 1;
        Some(m)
    }

    /// Forcibly set `mate(u) = v` and `mate(v) = u`, unmatching any previous
    /// partners. Used by augmenting-path flips.
    pub fn rematch(&mut self, u: VertexId, v: VertexId) {
        if let Some(old) = self.mate(u) {
            if old == v {
                return;
            }
            self.remove_pair(u);
        }
        if self.is_matched(v) {
            self.remove_pair(v);
        }
        let added = self.add_pair(u, v);
        debug_assert!(added);
    }

    /// The matched pairs `(u, v)` with `u < v`.
    pub fn pairs(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.mate
            .iter()
            .enumerate()
            .filter(|&(u, &m)| m != UNMATCHED && (u as u32) < m)
            .map(|(u, &m)| (VertexId::new(u), VertexId(m)))
    }

    /// The matched vertices (the paper's `V_M`).
    pub fn matched_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.mate
            .iter()
            .enumerate()
            .filter(|&(_v, &m)| m != UNMATCHED)
            .map(|(v, &_m)| VertexId::new(v))
    }

    /// The free vertices (the paper's `V_F`).
    pub fn free_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.mate
            .iter()
            .enumerate()
            .filter(|&(_v, &m)| m == UNMATCHED)
            .map(|(v, &_m)| VertexId::new(v))
    }

    /// Is every matched pair an edge of `g` (and the mate array coherent)?
    pub fn is_valid_for(&self, g: &CsrGraph) -> bool {
        if self.mate.len() != g.num_vertices() {
            return false;
        }
        let mut count = 0usize;
        for (u, &m) in self.mate.iter().enumerate() {
            if m == UNMATCHED {
                continue;
            }
            let u = VertexId::new(u);
            let v = VertexId(m);
            if self.mate[v.index()] != u.0 {
                return false;
            }
            if !g.has_edge(u, v) {
                return false;
            }
            count += 1;
        }
        count == 2 * self.size
    }

    /// Is the matching maximal in `g` (no edge with both endpoints free)?
    pub fn is_maximal_in(&self, g: &CsrGraph) -> bool {
        g.edges()
            .all(|(_, u, v)| self.is_matched(u) || self.is_matched(v))
    }

    /// Drop any pairs that are not edges of `g` (used when edges are
    /// deleted under a dynamic matching). Returns how many pairs were
    /// dropped.
    pub fn prune_to(&mut self, g: &CsrGraph) -> usize {
        let pairs: Vec<(VertexId, VertexId)> = self.pairs().collect();
        let mut dropped = 0;
        for (u, v) in pairs {
            if !g.has_edge(u, v) {
                self.remove_pair(u);
                dropped += 1;
            }
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsimatch_graph::csr::from_edges;

    #[test]
    fn add_remove_roundtrip() {
        let mut m = Matching::new(4);
        assert!(m.add_pair(VertexId(0), VertexId(1)));
        assert!(!m.add_pair(VertexId(1), VertexId(2)), "1 already matched");
        assert!(!m.add_pair(VertexId(2), VertexId(2)), "self pair");
        assert_eq!(m.len(), 1);
        assert_eq!(m.mate(VertexId(0)), Some(VertexId(1)));
        assert_eq!(m.remove_pair(VertexId(1)), Some(VertexId(0)));
        assert_eq!(m.len(), 0);
        assert!(!m.is_matched(VertexId(0)));
    }

    #[test]
    fn rematch_flips() {
        let mut m =
            Matching::from_pairs(6, [(VertexId(0), VertexId(1)), (VertexId(2), VertexId(3))]);
        // Augment 4 - (1,0 flip) style: rematch 1 with 2.
        m.rematch(VertexId(1), VertexId(2));
        assert_eq!(m.mate(VertexId(1)), Some(VertexId(2)));
        assert!(!m.is_matched(VertexId(0)));
        assert!(!m.is_matched(VertexId(3)));
        assert_eq!(m.len(), 1);
        // Rematch to current mate is a no-op.
        m.rematch(VertexId(1), VertexId(2));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn validity_against_graph() {
        let g = from_edges(4, [(0, 1), (2, 3)]);
        let good = Matching::from_pairs(4, [(VertexId(0), VertexId(1))]);
        assert!(good.is_valid_for(&g));
        let bad = Matching::from_pairs(4, [(VertexId(0), VertexId(2))]);
        assert!(!bad.is_valid_for(&g), "(0,2) is not an edge");
        let wrong_size = Matching::new(3);
        assert!(!wrong_size.is_valid_for(&g));
    }

    #[test]
    fn maximality_check() {
        let g = from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let mid = Matching::from_pairs(4, [(VertexId(1), VertexId(2))]);
        assert!(mid.is_maximal_in(&g));
        let end = Matching::from_pairs(4, [(VertexId(0), VertexId(1))]);
        assert!(!end.is_maximal_in(&g), "edge (2,3) is free-free");
    }

    #[test]
    fn prune_after_deletions() {
        let g_before = from_edges(4, [(0, 1), (2, 3)]);
        let g_after = from_edges(4, [(0, 1)]);
        let mut m =
            Matching::from_pairs(4, [(VertexId(0), VertexId(1)), (VertexId(2), VertexId(3))]);
        assert!(m.is_valid_for(&g_before));
        assert_eq!(m.prune_to(&g_after), 1);
        assert!(m.is_valid_for(&g_after));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn vertex_partitions() {
        let m = Matching::from_pairs(5, [(VertexId(1), VertexId(3))]);
        let matched: Vec<u32> = m.matched_vertices().map(|v| v.0).collect();
        let free: Vec<u32> = m.free_vertices().map(|v| v.0).collect();
        assert_eq!(matched, vec![1, 3]);
        assert_eq!(free, vec![0, 2, 4]);
    }
}
