//! The Section 3.2 two-round composition `G̃_Δ`.
//!
//! Round 1: the random sparsifier `G_Δ` — a `(1+ε)`-matching sparsifier
//! with arboricity ≤ `2·mark_cap` (Observation 2.12), but *unbounded*
//! maximum degree. Round 2: Solomon's deterministic bounded-degree
//! sparsifier on top, sized for that arboricity — a further `(1+ε)` factor
//! and maximum degree `O(Δ/ε)`. The composition is a
//! `(1+ε)² ≤ (1+3ε)`-matching sparsifier of bounded degree, the input the
//! distributed bounded-degree matching algorithm needs.

use crate::params::SparsifierParams;
use crate::solomon::{degree_cap_for, solomon_sparsifier};
use crate::sparsifier::{build_sparsifier, Sparsifier};
use sparsimatch_graph::csr::CsrGraph;

/// Result of the two-round composition.
#[derive(Clone, Debug)]
pub struct ComposedSparsifier {
    /// Round-1 output `G_Δ`.
    pub round1: Sparsifier,
    /// Round-2 output `G̃_Δ` (bounded degree).
    pub graph: CsrGraph,
    /// The degree cap Solomon's round was sized with.
    pub degree_cap: usize,
}

impl ComposedSparsifier {
    /// The guaranteed maximum degree of [`ComposedSparsifier::graph`].
    pub fn degree_bound(&self) -> usize {
        self.degree_cap
    }
}

/// Build `G̃_Δ`: the random sparsifier under `seed`, then Solomon's
/// bounded-degree sparsifier sized for arboricity `2·mark_cap`.
pub fn build_composed_sparsifier(
    g: &CsrGraph,
    params: &SparsifierParams,
    seed: u64,
) -> ComposedSparsifier {
    let round1 = build_sparsifier(g, params, seed, 1, None).expect("1 is a valid thread count");
    let alpha_bound = params.arboricity_bound();
    let degree_cap = degree_cap_for(alpha_bound, params.eps);
    let graph = solomon_sparsifier(&round1.graph, degree_cap);
    ComposedSparsifier {
        round1,
        graph,
        degree_cap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, RngCore, SeedableRng};
    use sparsimatch_graph::generators::{
        clique_union, unit_disk, CliqueUnionConfig, UnitDiskConfig,
    };
    use sparsimatch_matching::blossom::maximum_matching;

    #[test]
    fn degree_is_bounded() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = clique_union(
            CliqueUnionConfig {
                n: 200,
                diversity: 2,
                clique_size: 50,
            },
            &mut rng,
        );
        let p = SparsifierParams::practical(2, 0.4);
        let c = build_composed_sparsifier(&g, &p, rng.next_u64());
        assert!(c.graph.max_degree() <= c.degree_bound());
    }

    #[test]
    fn composition_preserves_matching_within_3eps() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = unit_disk(
            UnitDiskConfig::with_expected_degree(400, 1.0, 25.0),
            &mut rng,
        );
        let eps = 0.4;
        let p = SparsifierParams::practical(5, eps);
        let exact = maximum_matching(&g).len();
        let c = build_composed_sparsifier(&g, &p, rng.next_u64());
        let composed_mcm = maximum_matching(&c.graph).len();
        assert!(
            composed_mcm as f64 * (1.0 + 3.0 * eps) >= exact as f64,
            "composed {composed_mcm} vs exact {exact}"
        );
    }

    #[test]
    fn round1_is_input_of_round2() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = clique_union(
            CliqueUnionConfig {
                n: 100,
                diversity: 2,
                clique_size: 20,
            },
            &mut rng,
        );
        let p = SparsifierParams::practical(2, 0.5);
        let c = build_composed_sparsifier(&g, &p, rng.next_u64());
        for (_, u, v) in c.graph.edges() {
            assert!(c.round1.graph.has_edge(u, v));
        }
    }
}
