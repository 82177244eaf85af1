//! The one-round distributed sparsifier (Section 3.2, first paragraph).
//!
//! Each node locally marks Δ random ports (all of them if its degree is at
//! most the low-degree threshold) and sends a **1-bit** message along each
//! marked port — the unicast mode that gives Theorem 3.3 its sublinear
//! message complexity. The sparsifier is the set of edges carrying a mark
//! in either direction. No ids are exchanged, so the construction runs in
//! the `KT_0` model.

use crate::network::{Inboxes, Net, Outbox};
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_core::sampler::{mark_indices_for_vertex, vertex_rng, PosArraySampler};
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::ids::VertexId;

/// Run the one-round sparsifier protocol. Returns the sparsified graph
/// (same vertex set). Node `v` marks with core's `pos_v` sampler from
/// [`vertex_rng`]`(seed, v)` (independent across nodes, as the analysis
/// needs), so on a lossless network the result is
/// [`sparsimatch_core::sparsifier::build_sparsifier`]'s `G_Δ` for the same
/// seed, edge for edge.
///
/// On a faulty transport a dropped mark shrinks the sparsifier (the edge
/// survives only if the sender's own mark is kept) and a duplicated mark
/// is harmless — the keep-set is a union, so the result is always a
/// subgraph of `G` and downstream matchings stay valid.
pub fn distributed_sparsifier<'g>(
    net: &mut impl Net<'g>,
    params: &SparsifierParams,
    seed: u64,
) -> CsrGraph {
    let g = net.graph();
    let n = g.num_vertices();
    // An edge is in G_Δ iff marked by either endpoint: each node keeps the
    // ports it marked plus the ports it heard a mark on.
    let mut keep = Vec::new();
    let mut outbox = Outbox::new();
    let (delta, cap) = (params.delta, params.mark_cap());
    let mut sampler = PosArraySampler::new(g.max_degree());
    let mut ports = Vec::new();
    for v in 0..n {
        let vid = VertexId::new(v);
        let mut rng = vertex_rng(seed, v);
        mark_indices_for_vertex(g, vid, delta, cap, &mut sampler, &mut rng, &mut ports);
        for &p in &ports {
            keep.push(g.incident_edge(vid, p as usize));
            outbox.push(v, p as usize, (), 1);
        }
    }
    let mut inboxes = Inboxes::new();
    net.route(&mut outbox, &mut inboxes);
    for v in 0..n {
        for &(p, ()) in inboxes.of(v) {
            keep.push(g.incident_edge(VertexId::new(v), p));
        }
    }
    g.edge_subgraph(keep.into_iter())
}

/// The broadcast-transmission variant (Section 3.2's first paragraph):
/// when a node cannot unicast, it broadcasts the *list of marked port
/// numbers* to all neighbors — one message per half-edge, of
/// `Δ·⌈log₂ deg⌉` bits. Same sparsifier, very different communication
/// profile: `2m` messages instead of `n·Δ`, and `O(Δ·log n)`-bit payloads
/// instead of 1 bit. Experiment E9 contrasts the two.
pub fn distributed_sparsifier_broadcast<'g>(
    net: &mut impl Net<'g>,
    params: &SparsifierParams,
    seed: u64,
) -> CsrGraph {
    let g = net.graph();
    let n = g.num_vertices();
    // Every node's marked-port list, flat: node `v`'s is
    // `marks[starts[v]..starts[v + 1]]`.
    let mut marks: Vec<u32> = Vec::new();
    let mut starts = Vec::with_capacity(n + 1);
    starts.push(0);
    let mut keep = Vec::new();
    let (delta, cap) = (params.delta, params.mark_cap());
    let mut sampler = PosArraySampler::new(g.max_degree());
    let mut ports = Vec::new();
    for v in 0..n {
        let vid = VertexId::new(v);
        let mut rng = vertex_rng(seed, v);
        mark_indices_for_vertex(g, vid, delta, cap, &mut sampler, &mut rng, &mut ports);
        keep.extend(ports.iter().map(|&p| g.incident_edge(vid, p as usize)));
        marks.extend_from_slice(&ports);
        starts.push(marks.len());
    }
    // Broadcast: every node sends its marked-port list on every port.
    let lists = (0..n).map(|v| {
        let list = &marks[starts[v]..starts[v + 1]];
        let deg = g.degree(VertexId::new(v)).max(2) as u64;
        let bits = list.len() as u64 * (64 - (deg - 1).leading_zeros() as u64);
        (list, bits)
    });
    let mut inboxes = Inboxes::new();
    net.broadcast_into(lists, &mut inboxes);

    // A neighbor's broadcast marks this edge iff one of its marked ports
    // leads back here. The list is at most the mark cap long.
    for v in 0..n {
        let vid = VertexId::new(v);
        for &(in_port, their_marks) in inboxes.of(v) {
            let u = g.neighbor(vid, in_port);
            if their_marks
                .iter()
                .any(|&p| g.neighbor(u, p as usize) == vid)
            {
                keep.push(g.incident_edge(vid, in_port));
            }
        }
    }
    g.edge_subgraph(keep.into_iter())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use sparsimatch_graph::generators::{clique, clique_union, power_law, star, CliqueUnionConfig};
    use sparsimatch_matching::blossom::maximum_matching;

    #[test]
    fn single_round_and_message_bound() {
        let g = clique(100);
        let mut net = Network::new(&g);
        let p = SparsifierParams::with_delta(1, 0.5, 4);
        let s = distributed_sparsifier(&mut net, &p, 7);
        let m = net.metrics();
        assert_eq!(m.rounds, 1, "the sparsifier is a one-round protocol");
        assert_eq!(m.messages, 400, "n·Δ one-bit messages");
        assert_eq!(m.bits, 400, "1 bit each");
        assert!(s.num_edges() <= 400);
        assert!(s.num_edges() >= 200);
    }

    #[test]
    fn low_degree_nodes_keep_their_whole_neighborhood() {
        let g = star(40);
        let mut net = Network::new(&g);
        let p = SparsifierParams::with_delta(1, 0.5, 3);
        let s = distributed_sparsifier(&mut net, &p, 1);
        assert_eq!(s.num_edges(), 39, "leaves mark their only edge");
    }

    #[test]
    fn sublinear_messages_on_dense_graph() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2);
        let g = clique_union(
            CliqueUnionConfig {
                n: 300,
                diversity: 2,
                clique_size: 100,
            },
            &mut rng,
        );
        let mut net = Network::new(&g);
        let p = SparsifierParams::with_delta(2, 0.5, 8);
        let _s = distributed_sparsifier(&mut net, &p, 3);
        let m = net.metrics();
        assert!(
            m.messages < g.num_edges() as u64,
            "{} messages vs m = {}",
            m.messages,
            g.num_edges()
        );
    }

    #[test]
    fn preserves_matching_approximately() {
        let g = clique(150);
        let mut net = Network::new(&g);
        let p = SparsifierParams::practical(1, 0.4);
        let s = distributed_sparsifier(&mut net, &p, 11);
        let exact = maximum_matching(&g).len();
        let sparse = maximum_matching(&s).len();
        assert!(sparse as f64 * 1.4 >= exact as f64, "{sparse} vs {exact}");
    }

    #[test]
    fn broadcast_variant_builds_same_sparsifier() {
        // Same seed => same marks => identical edge sets, despite the very
        // different wire format.
        let g = clique(80);
        let p = SparsifierParams::with_delta(1, 0.5, 4);
        let mut net_u = Network::new(&g);
        let uni = distributed_sparsifier(&mut net_u, &p, 99);
        let mut net_b = Network::new(&g);
        let bro = distributed_sparsifier_broadcast(&mut net_b, &p, 99);
        let eu: Vec<_> = uni.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        let eb: Vec<_> = bro.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        assert_eq!(eu, eb);
        // Communication profiles differ exactly as Section 3.2 says:
        // unicast n·Δ one-bit messages vs broadcast 2m fat messages.
        assert_eq!(net_u.metrics().messages, 80 * 4);
        assert_eq!(net_b.metrics().messages, 2 * g.num_edges() as u64);
        assert!(net_b.metrics().bits > net_u.metrics().bits);

        // A power law (hubs above the mark cap beside low-degree vertices
        // that mark everything) and a clique union, three seeds each.
        use rand::{rngs::StdRng, SeedableRng};
        let families = [
            power_law(400, 3, &mut StdRng::seed_from_u64(1)),
            clique_union(
                CliqueUnionConfig {
                    n: 300,
                    diversity: 2,
                    clique_size: 30,
                },
                &mut StdRng::seed_from_u64(2),
            ),
        ];
        for g in &families {
            for seed in [3, 17, 2024] {
                let uni = distributed_sparsifier(&mut Network::new(g), &p, seed);
                let bro = distributed_sparsifier_broadcast(&mut Network::new(g), &p, seed);
                let eu: Vec<_> = uni.edges().map(|(_, u, v)| (u.0, v.0)).collect();
                let eb: Vec<_> = bro.edges().map(|(_, u, v)| (u.0, v.0)).collect();
                assert_eq!(eu, eb, "seed {seed}");
                assert!(eu.len() < g.num_edges(), "seed {seed}: marks must sparsify");
            }
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let g = clique(60);
        let p = SparsifierParams::with_delta(1, 0.5, 3);
        let mut net1 = Network::new(&g);
        let s1 = distributed_sparsifier(&mut net1, &p, 42);
        let mut net2 = Network::new(&g);
        let s2 = distributed_sparsifier(&mut net2, &p, 42);
        let e1: Vec<_> = s1.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        let e2: Vec<_> = s2.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        assert_eq!(e1, e2);
    }
}
