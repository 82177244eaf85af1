//! The two one-pass streaming matchers.

use crate::reservoir::EdgeReservoir;
use rand::Rng;
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_core::pipeline::{approx_mcm_on_sparsifier, stage_eps};
use sparsimatch_graph::csr::{CsrGraph, GraphBuilder};
use sparsimatch_graph::ids::VertexId;
use sparsimatch_matching::Matching;
use sparsimatch_obs::{keys, WorkMeter};

/// Memory and stream accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamStats {
    /// Edges that arrived on the stream.
    pub edges_seen: u64,
    /// Distinct edges retained at end of stream (the memory footprint).
    pub edges_retained: usize,
}

impl StreamStats {
    /// Mirror into the unified [`WorkMeter`] accounting.
    pub fn mirror_into(&self, meter: &mut WorkMeter) {
        meter.add(keys::EDGES_SEEN, self.edges_seen);
        meter.add(keys::EDGES_RETAINED, self.edges_retained as u64);
    }
}

/// One-pass `(1+ε)`-style matcher: per-vertex reservoirs of Δ incident
/// edges (= the sparsifier's marking distribution), offline matching at
/// the end. Insertion-only streams.
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use sparsimatch_core::params::SparsifierParams;
/// use sparsimatch_graph::ids::VertexId;
/// use sparsimatch_stream::StreamingSparsifierMatcher;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let params = SparsifierParams::practical(1, 0.5);
/// let mut sm = StreamingSparsifierMatcher::new(4, params);
/// for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (3, 0)] {
///     sm.push_edge(VertexId(u), VertexId(v), &mut rng);
/// }
/// let (matching, stats) = sm.finish();
/// assert_eq!(matching.len(), 2, "C4 has a perfect matching");
/// assert_eq!(stats.edges_seen, 4);
/// ```
pub struct StreamingSparsifierMatcher {
    reservoirs: Vec<EdgeReservoir>,
    params: SparsifierParams,
    edges_seen: u64,
}

impl StreamingSparsifierMatcher {
    /// A matcher over `n` vertices for streams whose graph has
    /// neighborhood independence ≤ `params.beta`.
    ///
    /// Reservoir capacity is the construction's low-degree threshold
    /// `mark_cap = 2Δ` so the streamed subgraph matches the Section 3.1
    /// variant of `G_Δ` (degree ≤ 2Δ ⇒ keep everything).
    pub fn new(n: usize, params: SparsifierParams) -> Self {
        let cap = params.mark_cap();
        StreamingSparsifierMatcher {
            reservoirs: (0..n).map(|_| EdgeReservoir::new(cap)).collect(),
            params,
            edges_seen: 0,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.reservoirs.len()
    }

    /// Process one streamed edge.
    pub fn push_edge(&mut self, u: VertexId, v: VertexId, rng: &mut impl Rng) {
        assert!(u != v, "self loop on the stream");
        self.edges_seen += 1;
        self.reservoirs[u.index()].offer(v.0, rng);
        self.reservoirs[v.index()].offer(u.0, rng);
    }

    /// Current retained-edge upper bound (before deduplication).
    pub fn memory_edges(&self) -> usize {
        self.reservoirs.iter().map(|r| r.len()).sum()
    }

    /// Materialize the retained sparsifier.
    pub fn retained_graph(&self) -> CsrGraph {
        let n = self.num_vertices();
        let mut b = GraphBuilder::with_capacity(n, self.memory_edges());
        for (v, r) in self.reservoirs.iter().enumerate() {
            for &u in r.items() {
                b.add_edge(VertexId::new(v), VertexId(u));
            }
        }
        b.build()
    }

    /// End of stream: compute the `(1+ε)`-approximate matching offline on
    /// the retained sparsifier.
    pub fn finish(&self) -> (Matching, StreamStats) {
        let sparse = self.retained_graph();
        let stats = StreamStats {
            edges_seen: self.edges_seen,
            edges_retained: sparse.num_edges(),
        };
        let (m, _) = approx_mcm_on_sparsifier(&sparse, stage_eps(self.params.eps));
        (m, stats)
    }
}

/// The folklore one-pass streaming greedy: keep an edge iff both
/// endpoints are currently free. O(n) memory, maximal at end of stream
/// (for insertion-only streams), hence 2-approximate.
pub struct StreamingGreedyMatcher {
    matching: Matching,
    edges_seen: u64,
}

impl StreamingGreedyMatcher {
    /// A greedy matcher over `n` vertices.
    pub fn new(n: usize) -> Self {
        StreamingGreedyMatcher {
            matching: Matching::new(n),
            edges_seen: 0,
        }
    }

    /// Process one streamed edge.
    pub fn push_edge(&mut self, u: VertexId, v: VertexId) {
        self.edges_seen += 1;
        self.matching.add_pair(u, v); // no-op when an endpoint is taken
    }

    /// End of stream.
    pub fn finish(self) -> (Matching, StreamStats) {
        let retained = self.matching.len();
        (
            self.matching,
            StreamStats {
                edges_seen: self.edges_seen,
                edges_retained: retained,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;
    use rand::{rngs::StdRng, SeedableRng};
    use sparsimatch_graph::generators::{clique, clique_union, CliqueUnionConfig};
    use sparsimatch_matching::blossom::maximum_matching;

    fn stream_in_random_order(g: &CsrGraph, rng: &mut StdRng) -> Vec<(VertexId, VertexId)> {
        let mut edges: Vec<(VertexId, VertexId)> = g.edges().map(|(_, u, v)| (u, v)).collect();
        edges.shuffle(rng);
        edges
    }

    #[test]
    fn reservoir_matcher_approximates_on_clique_stream() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = clique(200);
        let params = SparsifierParams::practical(1, 0.3);
        let mut sm = StreamingSparsifierMatcher::new(200, params);
        for (u, v) in stream_in_random_order(&g, &mut rng) {
            sm.push_edge(u, v, &mut rng);
        }
        let (m, stats) = sm.finish();
        assert!(
            m.is_valid_for(&g),
            "retained edges must come from the stream"
        );
        let exact = maximum_matching(&g).len();
        assert!(
            m.len() as f64 * 1.3 >= exact as f64,
            "{} vs {exact}",
            m.len()
        );
        assert_eq!(stats.edges_seen, g.num_edges() as u64);
        assert!(
            stats.edges_retained < g.num_edges() / 2,
            "memory {} not sublinear in stream {}",
            stats.edges_retained,
            g.num_edges()
        );
    }

    #[test]
    fn memory_bounded_by_n_times_cap() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = clique_union(
            CliqueUnionConfig {
                n: 150,
                diversity: 2,
                clique_size: 50,
            },
            &mut rng,
        );
        let params = SparsifierParams::practical(2, 0.5);
        let mut sm = StreamingSparsifierMatcher::new(150, params);
        for (u, v) in stream_in_random_order(&g, &mut rng) {
            sm.push_edge(u, v, &mut rng);
            assert!(sm.memory_edges() <= 150 * params.mark_cap());
        }
    }

    #[test]
    fn greedy_stream_is_maximal() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = clique_union(
            CliqueUnionConfig {
                n: 100,
                diversity: 2,
                clique_size: 20,
            },
            &mut rng,
        );
        let mut gm = StreamingGreedyMatcher::new(100);
        for (u, v) in stream_in_random_order(&g, &mut rng) {
            gm.push_edge(u, v);
        }
        let (m, stats) = gm.finish();
        assert!(m.is_valid_for(&g));
        assert!(m.is_maximal_in(&g));
        assert_eq!(stats.edges_seen, g.num_edges() as u64);
        let exact = maximum_matching(&g).len();
        assert!(2 * m.len() >= exact);
    }

    #[test]
    fn retained_graph_is_subgraph_of_stream() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = clique(60);
        let params = SparsifierParams::with_delta(1, 0.5, 3);
        let mut sm = StreamingSparsifierMatcher::new(60, params);
        for (u, v) in stream_in_random_order(&g, &mut rng) {
            sm.push_edge(u, v, &mut rng);
        }
        let retained = sm.retained_graph();
        for (_, u, v) in retained.edges() {
            assert!(g.has_edge(u, v));
        }
        // High-degree vertices hold exactly mark_cap reservoir slots.
        assert!(retained.num_edges() <= 60 * params.mark_cap());
    }

    #[test]
    fn stats_mirror_into_meter() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = clique(40);
        let params = SparsifierParams::practical(1, 0.5);
        let mut sm = StreamingSparsifierMatcher::new(40, params);
        for (_, u, v) in g.edges() {
            sm.push_edge(u, v, &mut rng);
        }
        let (_, stats) = sm.finish();
        let mut meter = WorkMeter::new();
        stats.mirror_into(&mut meter);
        assert_eq!(meter.get(keys::EDGES_SEEN), g.num_edges() as u64);
        assert_eq!(meter.get(keys::EDGES_RETAINED), stats.edges_retained as u64);
    }

    #[test]
    fn adversarial_stream_order_does_not_matter() {
        // Reservoirs are order-oblivious: sorted order must work as well
        // as random order.
        let mut rng = StdRng::seed_from_u64(5);
        let g = clique(120);
        let params = SparsifierParams::practical(1, 0.4);
        let mut sm = StreamingSparsifierMatcher::new(120, params);
        for (_, u, v) in g.edges() {
            sm.push_edge(u, v, &mut rng); // sorted lexicographic order
        }
        let (m, _) = sm.finish();
        let exact = maximum_matching(&g).len();
        assert!(m.len() as f64 * 1.4 >= exact as f64);
    }
}
