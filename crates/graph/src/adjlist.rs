//! A mutable adjacency-list graph for the fully dynamic setting.
//!
//! The dynamic model of Section 3.3 fixes the vertex set and applies a
//! sequence of single-edge insertions and deletions. [`AdjListGraph`]
//! supports both in O(1) expected time (hash-indexed positions +
//! `swap_remove`), exposes the same adjacency-array queries as
//! [`csr::CsrGraph`](crate::csr::CsrGraph) (so the sparsifier sampler runs on it
//! unchanged), loads from a CSR graph in one pass, and snapshots back to
//! CSR for solves and exact audits.

use crate::adjacency::AdjacencyOracle;
use crate::csr::{from_sorted_edges, CsrGraph};
use crate::ids::VertexId;
use std::collections::HashMap;

/// A mutable undirected graph over a fixed vertex set.
#[derive(Clone, Debug, Default)]
pub struct AdjListGraph {
    adj: Vec<Vec<u32>>,
    /// For edge key `(min, max)`: positions of the other endpoint in each
    /// endpoint's adjacency vector — `(index of max in adj[min], index of
    /// min in adj[max])`.
    positions: HashMap<(u32, u32), (u32, u32)>,
}

impl AdjListGraph {
    /// An empty graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        AdjListGraph {
            adj: vec![Vec::new(); n],
            positions: HashMap::new(),
        }
    }

    /// Start from an existing static graph, in one pass: each vertex's
    /// list copies its CSR neighbour window, and the position map is
    /// sized for every edge up front. Inserting `g.edges()` one at a time
    /// gives the same lists, because the edges arrive lex-sorted: a
    /// vertex's lower neighbours precede its higher ones, each group in
    /// ascending order, as in the window. So an edge's position in each
    /// endpoint's list is the number of that endpoint's edges seen before
    /// it.
    pub fn from_csr(g: &CsrGraph) -> Self {
        let n = g.num_vertices();
        let adj = (0..n)
            .map(|v| g.neighbors(VertexId::new(v)).map(|w| w.0).collect())
            .collect();
        let mut positions = HashMap::with_capacity(g.num_edges());
        let mut seen = vec![0u32; n];
        for (_, u, v) in g.edges() {
            positions.insert((u.0, v.0), (seen[u.index()], seen[v.index()]));
            seen[u.index()] += 1;
            seen[v.index()] += 1;
        }
        AdjListGraph { adj, positions }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.positions.len()
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj[v.index()].len()
    }

    /// Whether `{u, v}` is currently an edge.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.positions.contains_key(&Self::key(u, v))
    }

    /// Neighbors of `v` in arbitrary (insertion-perturbed) order.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.adj[v.index()].iter().map(|&t| VertexId(t))
    }

    /// Resident heap footprint of the graph, in bytes, as a function of
    /// the inserts and deletes applied to it.
    ///
    /// The adjacency lists count allocated capacity, like
    /// [`CsrGraph::memory_bytes`]. The position index counts one entry
    /// plus one control byte per live edge, not its table's capacity:
    /// that capacity depends on where deletes left tombstones, and so on
    /// the map's random hash keys, and would make two graphs given the
    /// same updates report different figures. The index term is
    /// therefore a lower bound.
    pub fn memory_bytes(&self) -> usize {
        let spine = self.adj.capacity() * std::mem::size_of::<Vec<u32>>();
        let lists: usize = self
            .adj
            .iter()
            .map(|l| l.capacity() * std::mem::size_of::<u32>())
            .sum();
        let entry = std::mem::size_of::<((u32, u32), (u32, u32))>() + 1;
        spine + lists + self.positions.len() * entry
    }

    #[inline]
    fn key(u: VertexId, v: VertexId) -> (u32, u32) {
        if u.0 < v.0 {
            (u.0, v.0)
        } else {
            (v.0, u.0)
        }
    }

    /// Insert edge `{u, v}`. Returns `false` if it was already present or
    /// is a self-loop.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return false;
        }
        let key = Self::key(u, v);
        if self.positions.contains_key(&key) {
            return false;
        }
        let (a, b) = (VertexId(key.0), VertexId(key.1));
        let pos_in_a = self.adj[a.index()].len() as u32;
        let pos_in_b = self.adj[b.index()].len() as u32;
        self.adj[a.index()].push(b.0);
        self.adj[b.index()].push(a.0);
        self.positions.insert(key, (pos_in_a, pos_in_b));
        true
    }

    /// Delete edge `{u, v}`. Returns `false` if it was not present.
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        let key = Self::key(u, v);
        let Some((pos_in_a, pos_in_b)) = self.positions.remove(&key) else {
            return false;
        };
        let (a, b) = (VertexId(key.0), VertexId(key.1));
        self.remove_half_edge(a, pos_in_a as usize);
        self.remove_half_edge(b, pos_in_b as usize);
        true
    }

    /// Remove the half-edge at `pos` in `v`'s adjacency vector via
    /// `swap_remove`, repairing the position index of the entry that moved.
    fn remove_half_edge(&mut self, v: VertexId, pos: usize) {
        let list = &mut self.adj[v.index()];
        list.swap_remove(pos);
        if pos < list.len() {
            // The former last element (call it w) now sits at `pos`: update
            // the stored position of v within the edge {v, w}.
            let w = VertexId(list[pos]);
            let key = Self::key(v, w);
            // Safety: w is still in v's list, so the edge {v, w} was inserted
            // and not yet removed — its position entry must exist.
            let entry = self
                .positions
                .get_mut(&key)
                .expect("moved half-edge must have a live position entry");
            if key.0 == v.0 {
                entry.0 = pos as u32;
            } else {
                entry.1 = pos as u32;
            }
        }
    }

    /// Snapshot into an immutable CSR graph, byte-identical to a
    /// [`GraphBuilder`](crate::csr::GraphBuilder) build of the same edges:
    /// each vertex's higher-id neighbours, sorted, vertex by vertex, are
    /// the edges in lex order.
    pub fn to_csr(&self) -> CsrGraph {
        let mut edges = Vec::with_capacity(self.num_edges());
        for (u, list) in (0u32..).zip(&self.adj) {
            let start = edges.len();
            edges.extend(list.iter().filter(|&&w| w > u).map(|&w| (u, w)));
            edges[start..].sort_unstable_by_key(|&(_, w)| w);
        }
        from_sorted_edges(self.num_vertices(), edges)
    }
}

impl AdjacencyOracle for AdjListGraph {
    #[inline(always)]
    fn num_vertices(&self) -> usize {
        AdjListGraph::num_vertices(self)
    }

    #[inline(always)]
    fn degree(&self, v: VertexId) -> usize {
        AdjListGraph::degree(self, v)
    }

    #[inline(always)]
    fn neighbor(&self, v: VertexId, i: usize) -> VertexId {
        VertexId(self.adj[v.index()][i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_delete() {
        let mut g = AdjListGraph::new(4);
        assert!(g.insert_edge(VertexId(0), VertexId(1)));
        assert!(!g.insert_edge(VertexId(1), VertexId(0)), "duplicate");
        assert!(!g.insert_edge(VertexId(2), VertexId(2)), "self-loop");
        assert!(g.insert_edge(VertexId(1), VertexId(2)));
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(VertexId(1)), 2);
        assert!(g.delete_edge(VertexId(0), VertexId(1)));
        assert!(!g.delete_edge(VertexId(0), VertexId(1)), "already gone");
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(VertexId(1), VertexId(2)));
        assert!(!g.has_edge(VertexId(0), VertexId(1)));
    }

    #[test]
    fn swap_remove_position_repair() {
        // Force the swap_remove repair path: vertex 0 has several neighbors,
        // delete the first-inserted edge, then verify the rest still delete
        // cleanly.
        let mut g = AdjListGraph::new(5);
        for v in 1..5 {
            g.insert_edge(VertexId(0), VertexId(v));
        }
        assert!(g.delete_edge(VertexId(0), VertexId(1)));
        for v in 2..5 {
            assert!(g.has_edge(VertexId(0), VertexId(v)));
            assert!(g.delete_edge(VertexId(0), VertexId(v)));
        }
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(VertexId(0)), 0);
    }

    #[test]
    fn csr_roundtrip() {
        let mut g = AdjListGraph::new(4);
        g.insert_edge(VertexId(0), VertexId(1));
        g.insert_edge(VertexId(2), VertexId(3));
        g.insert_edge(VertexId(1), VertexId(2));
        g.delete_edge(VertexId(0), VertexId(1));
        let csr = g.to_csr();
        assert_eq!(csr.num_edges(), 2);
        assert!(csr.has_edge(VertexId(2), VertexId(3)));
        assert!(!csr.has_edge(VertexId(0), VertexId(1)));

        let back = AdjListGraph::from_csr(&csr);
        assert_eq!(back.num_edges(), 2);
    }

    #[test]
    fn oracle_view_consistent() {
        let mut g = AdjListGraph::new(3);
        g.insert_edge(VertexId(0), VertexId(1));
        g.insert_edge(VertexId(0), VertexId(2));
        let o: &dyn AdjacencyOracle = &g;
        assert_eq!(o.degree(VertexId(0)), 2);
        let mut seen: Vec<u32> = (0..2).map(|i| o.neighbor(VertexId(0), i).0).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn memory_gauge_is_a_function_of_the_ops() {
        // Each map draws its own hash keys, so two graphs fed one script
        // of inserts and deletes leave tombstones in different slots and
        // may grow their tables at different times. The gauge must not
        // see that.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(27);
        let n = 200;
        let (mut g, mut h) = (AdjListGraph::new(n), AdjListGraph::new(n));
        let mut live: Vec<(VertexId, VertexId)> = Vec::new();
        for op in 0..3000 {
            if live.is_empty() || rng.random_bool(0.55) {
                let u = VertexId(rng.random_range(0..n as u32));
                let v = VertexId(rng.random_range(0..n as u32));
                if g.insert_edge(u, v) {
                    live.push((u, v));
                }
                h.insert_edge(u, v);
            } else {
                let (u, v) = live.swap_remove(rng.random_range(0..live.len()));
                assert!(g.delete_edge(u, v) && h.delete_edge(u, v));
            }
            assert_eq!(g.memory_bytes(), h.memory_bytes(), "after op {op}");
        }
    }

    #[test]
    fn randomized_against_reference() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::collections::HashSet;
        let mut rng = StdRng::seed_from_u64(99);
        let n = 20;
        let mut g = AdjListGraph::new(n);
        let mut reference: HashSet<(u32, u32)> = HashSet::new();
        for _ in 0..5000 {
            let u = rng.random_range(0..n as u32);
            let v = rng.random_range(0..n as u32);
            if u == v {
                continue;
            }
            let key = if u < v { (u, v) } else { (v, u) };
            if rng.random_bool(0.5) {
                assert_eq!(
                    g.insert_edge(VertexId(u), VertexId(v)),
                    reference.insert(key)
                );
            } else {
                assert_eq!(
                    g.delete_edge(VertexId(u), VertexId(v)),
                    reference.remove(&key)
                );
            }
            assert_eq!(g.num_edges(), reference.len());
        }
        // Degrees must sum to 2m.
        let degsum: usize = (0..n).map(|v| g.degree(VertexId::new(v))).sum();
        assert_eq!(degsum, 2 * reference.len());
    }
}
