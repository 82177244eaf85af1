//! The dynamic distributed model (the last of the Section 3 intro's
//! "broader applicability" settings): a distributed network whose
//! topology changes by single-edge updates, where some structure must be
//! maintained with low per-update communication and memory.
//!
//! The sparsifier is ideal here because marking is local: when edge
//! `{u, v}` appears or disappears, only `u` and `v` resample their marks —
//! **one communication round and `O(Δ)` one-bit messages per update**,
//! touching nobody else. Each node stores only its own ≤ `2Δ` marks and
//! the ≤ `deg` marks it has heard (`O(Δ + deg)` words). The maintained
//! edge set is `G_Δ`-distributed at all times against an oblivious
//! update sequence, so a `(1+ε)`-approximate matching can be re-extracted
//! from it at any moment.

use crate::metrics::Metrics;
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_core::sampler::{mark_indices_for_vertex, vertex_rng, PosArraySampler};
use sparsimatch_graph::adjacency::AdjacencyOracle;
use sparsimatch_graph::adjlist::AdjListGraph;
use sparsimatch_graph::csr::{CsrGraph, GraphBuilder};
use sparsimatch_graph::ids::VertexId;
use std::collections::HashSet;

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
    graph: AdjListGraph,
    params: SparsifierParams,
    /// Each node's own current marks (neighbor ids), as it would store
    /// them locally.
    marks: Vec<HashSet<u32>>,
    /// The `pos_v` sampler and index buffer every resample reuses.
    sampler: PosArraySampler,
    indices: Vec<u32>,
    metrics: Metrics,
    update_seed: u64,
    updates_applied: u64,
}

impl DynamicNetwork {
    /// An initially link-less network of `n` nodes.
    pub fn new(n: usize, params: SparsifierParams, seed: u64) -> Self {
        DynamicNetwork {
            graph: AdjListGraph::new(n),
            params,
            marks: vec![HashSet::new(); n],
            sampler: PosArraySampler::new(0),
            indices: Vec::new(),
            metrics: Metrics::new(),
            update_seed: seed,
            updates_applied: 0,
        }
    }

    /// The current topology.
    pub fn graph(&self) -> &AdjListGraph {
        &self.graph
    }

    /// Communication spent so far across all updates.
    pub fn metrics(&self) -> Metrics {
        self.metrics
    }

    /// Apply one topology update: the two endpoints resample and announce
    /// their new marks along marked links — one round, `O(Δ)` messages.
    pub fn apply(&mut self, update: TopologyUpdate) {
        self.updates_applied += 1;
        let (u, v, ok) = match update {
            TopologyUpdate::LinkUp(u, v) => (u, v, self.graph.insert_edge(u, v)),
            TopologyUpdate::LinkDown(u, v) => (u, v, self.graph.delete_edge(u, v)),
        };
        if !ok {
            return; // duplicate/phantom update: nothing changes
        }
        self.metrics.rounds += 1; // both endpoints act in the same round
        self.resample(u);
        self.resample(v);
    }

    fn resample(&mut self, v: VertexId) {
        let mut rng = vertex_rng(
            self.update_seed ^ self.updates_applied.wrapping_mul(0xD1B54A32D192ED03),
            v.index(),
        );
        let (delta, cap) = (self.params.delta, self.params.mark_cap());
        let (g, sampler, indices) = (&self.graph, &mut self.sampler, &mut self.indices);
        sampler.ensure_capacity(g.degree(v));
        mark_indices_for_vertex(g, v, delta, cap, sampler, &mut rng, indices);
        let fresh: HashSet<u32> = indices
            .iter()
            .map(|&i| g.neighbor(v, i as usize).0)
            .collect();
        // Communication: v tells each newly-marked neighbor (1 bit) and
        // each formerly-marked neighbor that the mark is retracted (1 bit).
        let old = std::mem::take(&mut self.marks[v.index()]);
        let changed = old.symmetric_difference(&fresh).count() as u64;
        self.metrics.messages += changed;
        self.metrics.bits += changed;
        self.metrics.max_message_bits = self.metrics.max_message_bits.max(1);
        self.marks[v.index()] = fresh;
    }

    /// The currently maintained sparsifier (union of surviving marks;
    /// marks referring to vanished links are dropped — their retraction
    /// was already accounted when the endpoint resampled).
    pub fn sparsifier(&self) -> CsrGraph {
        let n = self.graph.num_vertices();
        let mut b = GraphBuilder::new(n);
        for (v, marks) in self.marks.iter().enumerate() {
            for &w in marks {
                if self.graph.has_edge(VertexId::new(v), VertexId(w)) {
                    b.add_edge(VertexId::new(v), VertexId(w));
                }
            }
        }
        b.build()
    }

    /// Per-node memory high-water mark, in words (own marks + degree).
    pub fn max_node_memory(&self) -> usize {
        (0..self.graph.num_vertices())
            .map(|v| self.marks[v].len() + self.graph.degree(VertexId::new(v)))
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
