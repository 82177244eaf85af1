//! Greedy maximal matching — the classic linear-time 2-approximation.
//!
//! Scanning every edge once and keeping it whenever both endpoints are
//! free yields a maximal matching, hence `|M| ≥ |MCM|/2`. This is both a
//! baseline (the naive `O(m)` algorithm the paper's sublinear results beat
//! on dense graphs) and the initializer for the bounded-augmentation
//! approximation.

use crate::matching::Matching;
use rand::seq::SliceRandom;
use rand::Rng;
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::ids::EdgeId;

/// Greedy maximal matching in edge-id order. O(m).
pub fn greedy_maximal_matching(g: &CsrGraph) -> Matching {
    let mut m = Matching::new(g.num_vertices());
    greedy_maximal_matching_into(g, &mut m);
    m
}

/// [`greedy_maximal_matching`] into a caller-owned matching: `out` is
/// reset to `g`'s vertex count (reusing its capacity) and filled with the
/// same edge-id-order scan. The scratch-reuse path of the pipeline's
/// match stage — allocation-free once `out` has capacity.
pub fn greedy_maximal_matching_into(g: &CsrGraph, out: &mut Matching) {
    out.reset(g.num_vertices());
    for (_, u, v) in g.edges() {
        out.add_pair(u, v); // no-op when an endpoint is taken
    }
    debug_assert!(out.is_maximal_in(g));
}

/// Greedy maximal matching over a uniformly random edge order. Still a
/// 2-approximation in the worst case, but typically noticeably larger than
/// the deterministic scan; used as a fairer baseline in experiments.
pub fn randomized_greedy_matching(g: &CsrGraph, rng: &mut impl Rng) -> Matching {
    let mut order: Vec<u32> = (0..g.num_edges() as u32).collect();
    order.shuffle(rng);
    let mut m = Matching::new(g.num_vertices());
    for e in order {
        let (u, v) = g.edge_endpoints(EdgeId(e));
        m.add_pair(u, v);
    }
    debug_assert!(m.is_maximal_in(g));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use sparsimatch_graph::generators::{clique, cycle, gnp, path};

    #[test]
    fn path_matching() {
        let m = greedy_maximal_matching(&path(6));
        assert!(m.is_valid_for(&path(6)));
        assert!(m.is_maximal_in(&path(6)));
        assert!(m.len() >= 2); // MCM = 3, maximal >= ceil(3/2)
    }

    #[test]
    fn clique_perfect() {
        let g = clique(8);
        let m = greedy_maximal_matching(&g);
        assert_eq!(m.len(), 4, "greedy on a clique is perfect");
    }

    #[test]
    fn odd_cycle() {
        let g = cycle(7);
        let m = greedy_maximal_matching(&g);
        assert!(m.is_maximal_in(&g));
        assert!(m.len() >= 2 && m.len() <= 3);
    }

    #[test]
    fn randomized_is_valid_and_maximal() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = gnp(100, 0.05, &mut rng);
        let m = randomized_greedy_matching(&g, &mut rng);
        assert!(m.is_valid_for(&g));
        assert!(m.is_maximal_in(&g));
    }

    #[test]
    fn maximal_is_half_approx() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..10 {
            let g = gnp(40, 0.1, &mut rng);
            let greedy = greedy_maximal_matching(&g).len();
            let exact = crate::blossom::maximum_matching(&g).len();
            assert!(2 * greedy >= exact, "greedy {greedy} < half of {exact}");
        }
    }
}
