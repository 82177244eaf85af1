//! `G_Δ` maintained under edge updates: the *oblivious-adversary* dynamic
//! sparsifier of Section 3.3's opening paragraph, and the per-update
//! protocol of the Section 3 intro's dynamic distributed model.
//!
//! Against an adversary that cannot see the algorithm's coins, the
//! sparsifier itself can be maintained directly: after each update
//! `(u, v)`, discard the marks of `u` and of `v` and draw fresh ones —
//! `O(Δ)` worst-case work. Every vertex's marks are always a uniform
//! sample of its *current* neighborhood (any change to a vertex's
//! incident edges makes it an update endpoint, hence redrawn), so at
//! every time step the maintained edge set is exactly `G_Δ`-distributed
//! and Theorem 2.1 applies verbatim — provided the update sequence was
//! fixed in advance. An adaptive adversary breaks this (it can observe
//! the output and steer; that is why Theorem 3.5's windowed scheme in
//! `sparsimatch-dynamic` exists), which the test
//! `adaptive_adversary_breaks_naive_maintenance_assumption` demonstrates
//! is not merely hypothetical bookkeeping.
//!
//! The `k`-th update call, counting phantom ones (a present edge
//! inserted, an absent one deleted, a self-loop), draws endpoint `v`'s
//! marks from [`vertex_rng`]`(seed ^ k·0xD1B54A32D192ED03, v)`. A vertex
//! keeps its marks sorted in a flat slot of `mark_cap` words, so an
//! update allocates nothing once the adjacency lists and the sampler have
//! grown to the stream's degrees.

use crate::params::SparsifierParams;
use crate::sampler::{mark_indices_for_vertex, vertex_rng, PosArraySampler};
use sparsimatch_graph::adjacency::AdjacencyOracle;
use sparsimatch_graph::adjlist::AdjListGraph;
use sparsimatch_graph::csr::{from_sorted_edges, CsrGraph};
use sparsimatch_graph::ids::VertexId;

/// What one effective update's redraw of its two endpoints did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Redraw {
    /// Marks the endpoints dropped plus marks they drew: the update's
    /// work, at most `4·mark_cap`.
    pub work: u64,
    /// Marks in exactly one of an endpoint's old and new sets
    /// (`|old △ new|`), summed over both endpoints.
    pub changed: u64,
}

/// Maintains `G_Δ` under edge updates with `O(Δ)` worst-case work per
/// update (oblivious adversary model).
///
/// ```
/// use sparsimatch_core::maintained::MaintainedSparsifier;
/// use sparsimatch_core::params::SparsifierParams;
/// use sparsimatch_graph::ids::VertexId;
///
/// let mut s = MaintainedSparsifier::new(4, SparsifierParams::practical(1, 0.5), 1);
/// s.insert_edge(VertexId(0), VertexId(1));
/// s.insert_edge(VertexId(2), VertexId(3));
/// assert_eq!(s.sparsifier().num_edges(), 2); // low degrees keep everything
/// assert!(s.insert_edge(VertexId(2), VertexId(3)).is_none()); // phantom
/// s.delete_edge(VertexId(0), VertexId(1));
/// assert_eq!(s.sparsifier().num_edges(), 1);
/// assert_eq!(s.marks(VertexId(3)), &[2]);
/// ```
pub struct MaintainedSparsifier {
    graph: AdjListGraph,
    params: SparsifierParams,
    seed: u64,
    /// Update calls so far, phantom ones included.
    calls: u64,
    /// Vertex `v`'s marks (neighbor ids), ascending, fill
    /// `slots[v·mark_cap..]`'s first `counts[v]` words.
    slots: Vec<u32>,
    counts: Vec<u32>,
    /// The `pos_v` sampler every redraw reuses, and its output buffer:
    /// adjacency indices, then the neighbors they name.
    sampler: PosArraySampler,
    fresh: Vec<u32>,
}

impl MaintainedSparsifier {
    /// An edgeless graph on `n` vertices whose marks draw from `seed`.
    pub fn new(n: usize, params: SparsifierParams, seed: u64) -> Self {
        let cap = params.mark_cap();
        MaintainedSparsifier {
            graph: AdjListGraph::new(n),
            params,
            seed,
            calls: 0,
            slots: vec![0; n * cap],
            counts: vec![0; n],
            sampler: PosArraySampler::new(0),
            fresh: Vec::with_capacity(cap),
        }
    }

    /// The current graph.
    pub fn graph(&self) -> &AdjListGraph {
        &self.graph
    }

    /// `v`'s current marks (neighbor ids), ascending.
    pub fn marks(&self, v: VertexId) -> &[u32] {
        let start = v.index() * self.params.mark_cap();
        &self.slots[start..start + self.counts[v.index()] as usize]
    }

    /// Insert `{u, v}` and redraw both endpoints' marks; `None`, with
    /// nothing redrawn, when the edge is present or a self-loop.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> Option<Redraw> {
        self.calls += 1;
        let effective = self.graph.insert_edge(u, v);
        effective.then(|| self.redraw_endpoints(u, v))
    }

    /// Delete `{u, v}` and redraw both endpoints' marks; `None`, with
    /// nothing redrawn, when the edge is absent.
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId) -> Option<Redraw> {
        self.calls += 1;
        let effective = self.graph.delete_edge(u, v);
        effective.then(|| self.redraw_endpoints(u, v))
    }

    fn redraw_endpoints(&mut self, u: VertexId, v: VertexId) -> Redraw {
        let seed = self.seed ^ self.calls.wrapping_mul(0xD1B54A32D192ED03);
        let (a, b) = (self.redraw(u, seed), self.redraw(v, seed));
        Redraw {
            work: a.work + b.work,
            changed: a.changed + b.changed,
        }
    }

    /// Discard `v`'s marks and draw fresh ones from its current
    /// neighborhood: O(mark_cap) work.
    fn redraw(&mut self, v: VertexId, seed: u64) -> Redraw {
        let (g, fresh) = (&self.graph, &mut self.fresh);
        let (delta, cap) = (self.params.delta, self.params.mark_cap());
        self.sampler.ensure_capacity(g.degree(v));
        let mut rng = vertex_rng(seed, v.index());
        mark_indices_for_vertex(g, v, delta, cap, &mut self.sampler, &mut rng, fresh);
        for w in fresh.iter_mut() {
            *w = g.neighbor(v, *w as usize).0;
        }
        fresh.sort_unstable();
        let slot = &mut self.slots[v.index() * cap..][..cap];
        let old = &slot[..self.counts[v.index()] as usize];
        let kept = old
            .iter()
            .filter(|w| fresh.binary_search(w).is_ok())
            .count();
        let (dropped, drawn) = (old.len() as u64, fresh.len() as u64);
        slot[..fresh.len()].copy_from_slice(fresh);
        self.counts[v.index()] = fresh.len() as u32;
        Redraw {
            work: dropped + drawn,
            changed: dropped + drawn - 2 * kept as u64,
        }
    }

    /// The maintained `G_Δ`: the union of every vertex's marked edges.
    pub fn sparsifier(&self) -> CsrGraph {
        let n = self.graph.num_vertices();
        let mut edges: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|v| {
                let marks = self.marks(VertexId(v)).iter();
                marks.map(move |&w| (v.min(w), v.max(w)))
            })
            .collect();
        edges.sort_unstable();
        edges.dedup();
        from_sorted_edges(n, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use sparsimatch_graph::generators::{clique, clique_union, CliqueUnionConfig};
    use sparsimatch_matching::blossom::maximum_matching;

    fn params() -> SparsifierParams {
        SparsifierParams::practical(2, 0.4)
    }

    /// Every vertex holds `min(deg, cap or Δ)` distinct marks, all of
    /// current neighbors.
    fn assert_marks_sound(s: &MaintainedSparsifier, p: &SparsifierParams, at: usize) {
        let g = s.graph();
        for v in (0..g.num_vertices()).map(VertexId::new) {
            let deg = g.degree(v);
            let expected = if deg <= p.mark_cap() { deg } else { p.delta };
            let marks = s.marks(v);
            assert_eq!(marks.len(), expected, "step {at}, vertex {}", v.0);
            assert!(marks.windows(2).all(|w| w[0] < w[1]), "step {at}");
            assert!(
                marks.iter().all(|&w| g.has_edge(v, VertexId(w))),
                "step {at}"
            );
        }
    }

    fn in_sparsifier(s: &MaintainedSparsifier, a: VertexId, b: VertexId) -> bool {
        s.marks(a).binary_search(&b.0).is_ok() || s.marks(b).binary_search(&a.0).is_ok()
    }

    #[test]
    fn invariants_hold_along_random_streams() {
        let mut rng = StdRng::seed_from_u64(1);
        let host = clique_union(
            CliqueUnionConfig {
                n: 60,
                diversity: 2,
                clique_size: 12,
            },
            &mut rng,
        );
        let mut s = MaintainedSparsifier::new(60, params(), 1);
        let edges: Vec<(u32, u32)> = host.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        let mut present: Vec<(u32, u32)> = Vec::new();
        for (i, &(u, v)) in edges.iter().enumerate() {
            s.insert_edge(VertexId(u), VertexId(v));
            present.push((u, v));
            if i % 5 == 4 {
                let k = rng.random_range(0..present.len());
                let (a, b) = present.swap_remove(k);
                s.delete_edge(VertexId(a), VertexId(b));
            }
            if i % 40 == 39 {
                assert_marks_sound(&s, &params(), i);
            }
        }
        assert_marks_sound(&s, &params(), edges.len());
    }

    #[test]
    fn sparsifier_preserves_matching_under_oblivious_stream() {
        let host = clique(100);
        let mut s = MaintainedSparsifier::new(100, SparsifierParams::practical(1, 0.4), 2);
        for (_, u, v) in host.edges() {
            s.insert_edge(u, v);
        }
        let sparse = s.sparsifier();
        let mcm = maximum_matching(&sparse).len();
        assert!(
            mcm as f64 * 1.4 >= 50.0,
            "maintained sparsifier lost the matching: {mcm}"
        );
        // And it is a subgraph of the current graph.
        let snapshot = s.graph().to_csr();
        for (_, u, v) in sparse.edges() {
            assert!(snapshot.has_edge(u, v));
        }
    }

    #[test]
    fn update_work_is_bounded_by_cap() {
        let host = clique(200);
        let p = SparsifierParams::practical(1, 0.4);
        let mut s = MaintainedSparsifier::new(200, p, 3);
        let mut max_work = 0u64;
        for (_, u, v) in host.edges() {
            max_work = max_work.max(s.insert_edge(u, v).expect("a new edge").work);
        }
        // Each update redraws two vertices: <= 2·(old + fresh) <= 4·cap.
        assert!(
            max_work <= 4 * p.mark_cap() as u64,
            "work {max_work} above O(Δ) bound"
        );
    }

    #[test]
    fn deletions_remove_stale_marks() {
        let mut s = MaintainedSparsifier::new(4, params(), 4);
        s.insert_edge(VertexId(0), VertexId(1));
        s.insert_edge(VertexId(1), VertexId(2));
        assert_eq!(s.sparsifier().num_edges(), 2, "low degree keeps everything");
        s.delete_edge(VertexId(0), VertexId(1));
        assert_eq!(s.sparsifier().num_edges(), 1);
        assert_marks_sound(&s, &params(), 3);
        assert!(!s.sparsifier().has_edge(VertexId(0), VertexId(1)));
    }

    #[test]
    fn duplicate_operations_are_cheap_noops() {
        let mut s = MaintainedSparsifier::new(3, params(), 5);
        assert!(s.insert_edge(VertexId(0), VertexId(1)).is_some());
        assert_eq!(s.insert_edge(VertexId(0), VertexId(1)), None);
        assert_eq!(s.delete_edge(VertexId(1), VertexId(2)), None);
        assert_eq!(s.insert_edge(VertexId(2), VertexId(2)), None);
    }

    /// The reason Theorem 3.5 does NOT rely on this maintainer: an
    /// adaptive adversary that observes the coins can *steer the mark
    /// distribution*. Concretely, by deleting-and-reinserting one fixed
    /// edge whenever it is currently unmarked (an adaptive choice — an
    /// oblivious sequence cannot condition on the marks), the adversary
    /// drives `P[e ∈ G_Δ]` from its stationary `≈ 2Δ/deg` to essentially
    /// 1, violating the uniform-marking premise of Theorem 2.1's proof.
    #[test]
    fn adaptive_adversary_breaks_naive_maintenance_assumption() {
        let host = clique(40);
        let p = SparsifierParams::with_delta(1, 0.5, 2); // cap 4 << deg 39
        let (a, b) = (VertexId(0), VertexId(1));

        // Stationary (oblivious) marking rate of the fixed edge.
        let trials = 400;
        let mut marked = 0usize;
        for seed in 0..trials {
            let mut s = MaintainedSparsifier::new(40, p, seed);
            for (_, u, v) in host.edges() {
                s.insert_edge(u, v);
            }
            marked += in_sparsifier(&s, a, b) as usize;
        }
        let oblivious_rate = marked as f64 / trials as f64;
        assert!(
            oblivious_rate < 0.5,
            "stationary rate should be ~2Δ/deg ≈ 0.1, got {oblivious_rate}"
        );

        // Adaptive steering: churn e whenever it is unmarked.
        let mut s = MaintainedSparsifier::new(40, p, 6);
        for (_, u, v) in host.edges() {
            s.insert_edge(u, v);
        }
        for _ in 0..200 {
            if in_sparsifier(&s, a, b) {
                break;
            }
            s.delete_edge(a, b);
            s.insert_edge(a, b);
        }
        assert!(
            in_sparsifier(&s, a, b),
            "the adaptive strategy pins the edge into the sparsifier"
        );
        assert_marks_sound(&s, &p, 0);
    }
}
