//! The one-round distributed bounded-degree sparsifier (Solomon ITCS'18),
//! used as round 2 of the Section 3.2 composition.
//!
//! Each node marks its first `degree_cap` ports (any deterministic local
//! rule works on bounded-arboricity inputs) and sends a 1-bit message
//! along each; an edge survives iff **both** endpoints marked it, which a
//! node detects locally by intersecting its sent and received marks.

use crate::network::{Inboxes, Net, Outbox};
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::ids::VertexId;

/// Run the one-round mutual-marking protocol. The result has maximum
/// degree at most `degree_cap` — on any transport: faults can only lose
/// marks, and losing marks only removes edges, never adds them.
pub fn distributed_solomon<'g>(net: &mut impl Net<'g>, degree_cap: usize) -> CsrGraph {
    let g = net.graph();
    let n = g.num_vertices();
    let marks = |v: usize| g.degree(VertexId::new(v)).min(degree_cap);
    let mut outbox = Outbox::new();
    for v in 0..n {
        for p in 0..marks(v) {
            outbox.push(v, p, (), 1);
        }
    }
    let mut inboxes = Inboxes::new();
    net.route(&mut outbox, &mut inboxes);

    let mut keep = Vec::new();
    for v in 0..n {
        let vid = VertexId::new(v);
        for &(p, ()) in inboxes.of(v) {
            if p < marks(v) {
                // Marked by both sides; dedupe by taking it from the
                // smaller endpoint only.
                let u = g.neighbor(vid, p);
                if vid.0 < u.0 {
                    keep.push(g.incident_edge(vid, p));
                }
            }
        }
    }
    g.edge_subgraph(keep.into_iter())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use sparsimatch_core::solomon::solomon_sparsifier;
    use sparsimatch_graph::generators::{gnp, path};

    #[test]
    fn agrees_with_sequential_construction() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1);
        for cap in [2usize, 4, 8] {
            let g = gnp(60, 0.2, &mut rng);
            let mut net = Network::new(&g);
            let dist = distributed_solomon(&mut net, cap);
            let seq = solomon_sparsifier(&g, cap);
            let de: Vec<_> = dist.edges().map(|(_, u, v)| (u.0, v.0)).collect();
            let se: Vec<_> = seq.edges().map(|(_, u, v)| (u.0, v.0)).collect();
            assert_eq!(de, se, "cap {cap}");
        }
    }

    #[test]
    fn one_round_one_bit() {
        let g = path(50);
        let mut net = Network::new(&g);
        let s = distributed_solomon(&mut net, 3);
        let m = net.metrics();
        assert_eq!(m.rounds, 1);
        assert_eq!(m.messages, m.bits, "1-bit messages");
        assert_eq!(s.num_edges(), 49, "path survives any cap >= 2");
    }

    #[test]
    fn degree_capped() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2);
        let g = gnp(80, 0.3, &mut rng);
        let mut net = Network::new(&g);
        let s = distributed_solomon(&mut net, 5);
        assert!(s.max_degree() <= 5);
    }
}
