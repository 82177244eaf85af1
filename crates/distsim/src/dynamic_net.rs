//! The dynamic distributed model (the last of the Section 3 intro's
//! "broader applicability" settings): a distributed network whose
//! topology changes by single-edge updates, where some structure must be
//! maintained with low per-update communication and memory.
//!
//! The sparsifier is ideal here because marking is local: when edge
//! `{u, v}` appears or disappears, only `u` and `v` redraw their marks —
//! **one communication round and `O(Δ)` one-bit messages per update**,
//! touching nobody else. Each node stores only its own ≤ `2Δ` marks and
//! the ≤ `deg` marks it has heard (`O(Δ + deg)` words). The maintained
//! edge set is `G_Δ`-distributed at all times against an oblivious
//! update sequence, so a `(1+ε)`-approximate matching can be re-extracted
//! from it at any moment. The maintenance itself is core's
//! [`MaintainedSparsifier`]; this module adds the model's accounting.

use crate::metrics::Metrics;
use sparsimatch_core::maintained::MaintainedSparsifier;
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_graph::adjlist::AdjListGraph;
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::ids::VertexId;

/// A topology update in the dynamic network.
#[derive(Clone, Copy, Debug)]
pub enum TopologyUpdate {
    /// A new link comes up.
    LinkUp(VertexId, VertexId),
    /// A link goes down.
    LinkDown(VertexId, VertexId),
}

/// Maintains the distributed sparsifier across topology updates.
pub struct DynamicNetwork {
    maintained: MaintainedSparsifier,
    metrics: Metrics,
}

impl DynamicNetwork {
    /// An initially link-less network of `n` nodes.
    pub fn new(n: usize, params: SparsifierParams, seed: u64) -> Self {
        DynamicNetwork {
            maintained: MaintainedSparsifier::new(n, params, seed),
            metrics: Metrics::new(),
        }
    }

    /// The current topology.
    pub fn graph(&self) -> &AdjListGraph {
        self.maintained.graph()
    }

    /// Communication spent so far across all updates.
    pub fn metrics(&self) -> Metrics {
        self.metrics
    }

    /// Apply one topology update: the two endpoints redraw their marks
    /// and send one bit to each neighbor they newly mark or no longer
    /// mark — one round, `O(Δ)` messages. A duplicate link-up or a
    /// link-down of an absent link changes nothing and costs nothing.
    pub fn apply(&mut self, update: TopologyUpdate) {
        let redraw = match update {
            TopologyUpdate::LinkUp(u, v) => self.maintained.insert_edge(u, v),
            TopologyUpdate::LinkDown(u, v) => self.maintained.delete_edge(u, v),
        };
        if let Some(r) = redraw {
            self.metrics.rounds += 1; // both endpoints act in the same round
            self.metrics.messages += r.changed;
            self.metrics.bits += r.changed;
            self.metrics.max_message_bits = self.metrics.max_message_bits.max(1);
        }
    }

    /// The currently maintained sparsifier (the union of the nodes'
    /// marks).
    pub fn sparsifier(&self) -> CsrGraph {
        self.maintained.sparsifier()
    }

    /// The largest node memory now, in words (own marks + degree).
    pub fn max_node_memory(&self) -> usize {
        let g = self.maintained.graph();
        (0..g.num_vertices())
            .map(VertexId::new)
            .map(|v| self.maintained.marks(v).len() + g.degree(v))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use sparsimatch_graph::generators::{clique, clique_union, CliqueUnionConfig};
    use sparsimatch_matching::blossom::maximum_matching;

    #[test]
    fn one_round_per_update_and_bounded_messages() {
        let params = SparsifierParams::with_delta(1, 0.5, 3);
        let mut net = DynamicNetwork::new(50, params, 7);
        let host = clique(50);
        let mut last_messages = 0;
        for (_, u, v) in host.edges() {
            net.apply(TopologyUpdate::LinkUp(u, v));
            let m = net.metrics();
            let per_update = m.messages - last_messages;
            last_messages = m.messages;
            // Each endpoint changes at most cap + delta marks.
            assert!(
                per_update <= 2 * (params.mark_cap() + params.delta) as u64,
                "per-update messages {per_update}"
            );
        }
        assert_eq!(
            net.metrics().rounds,
            host.num_edges() as u64,
            "one round per update"
        );
    }

    #[test]
    fn maintained_sparsifier_preserves_matching() {
        let mut rng = StdRng::seed_from_u64(2);
        let host = clique_union(
            CliqueUnionConfig {
                n: 120,
                diversity: 2,
                clique_size: 30,
            },
            &mut rng,
        );
        let params = SparsifierParams::practical(2, 0.4);
        let mut net = DynamicNetwork::new(120, params, 3);
        for (_, u, v) in host.edges() {
            net.apply(TopologyUpdate::LinkUp(u, v));
        }
        let sparse = net.sparsifier();
        let snapshot = net.graph().to_csr();
        for (_, u, v) in sparse.edges() {
            assert!(snapshot.has_edge(u, v));
        }
        let exact = maximum_matching(&snapshot).len();
        let approx = maximum_matching(&sparse).len();
        assert!(approx as f64 * 1.4 >= exact as f64, "{approx} vs {exact}");
    }

    #[test]
    fn link_down_churn_keeps_structure_sound() {
        let mut rng = StdRng::seed_from_u64(3);
        let host = clique(40);
        let params = SparsifierParams::with_delta(1, 0.5, 4);
        let mut net = DynamicNetwork::new(40, params, 5);
        let edges: Vec<(VertexId, VertexId)> = host.edges().map(|(_, u, v)| (u, v)).collect();
        let mut present: Vec<(VertexId, VertexId)> = Vec::new();
        for &(u, v) in &edges {
            net.apply(TopologyUpdate::LinkUp(u, v));
            present.push((u, v));
            if rng.random_bool(0.3) {
                let k = rng.random_range(0..present.len());
                let (a, b) = present.swap_remove(k);
                net.apply(TopologyUpdate::LinkDown(a, b));
            }
        }
        let sparse = net.sparsifier();
        let snapshot = net.graph().to_csr();
        assert_eq!(snapshot.num_edges(), present.len());
        for (_, u, v) in sparse.edges() {
            assert!(snapshot.has_edge(u, v));
        }
        // Node memory stays O(deg + cap).
        assert!(net.max_node_memory() <= 40 + params.mark_cap());
    }

    #[test]
    fn phantom_updates_are_free() {
        let params = SparsifierParams::with_delta(1, 0.5, 2);
        let mut net = DynamicNetwork::new(4, params, 1);
        net.apply(TopologyUpdate::LinkDown(VertexId(0), VertexId(1)));
        assert_eq!(net.metrics().rounds, 0);
        net.apply(TopologyUpdate::LinkUp(VertexId(0), VertexId(1)));
        net.apply(TopologyUpdate::LinkUp(VertexId(0), VertexId(1)));
        assert_eq!(net.metrics().rounds, 1, "duplicate link-up is a no-op");
    }
}
