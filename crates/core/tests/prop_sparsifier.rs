//! Property-based tests for the sparsifier core.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_core::sampler::PosArraySampler;
use sparsimatch_core::sparsifier::build_sparsifier;
use sparsimatch_graph::analysis::independence::neighborhood_independence_exact;
use sparsimatch_graph::csr::from_edges;
use sparsimatch_matching::blossom::maximum_matching;

const N: usize = 20;

fn arb_edges() -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0..N, 0..N), 0..100)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sampler_draws_distinct_in_range(deg in 1usize..200, k in 0usize..64, seed in any::<u64>()) {
        let mut sampler = PosArraySampler::new(200);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        sampler.sample_indices(deg, k, &mut rng, &mut out);
        prop_assert_eq!(out.len(), k.min(deg));
        let mut sorted = out.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), out.len(), "duplicate indices");
        prop_assert!(out.iter().all(|&i| (i as usize) < deg));
    }

    #[test]
    fn sparsifier_is_subgraph_and_within_bounds(
        edges in arb_edges(),
        delta in 1usize..6,
        seed in any::<u64>(),
    ) {
        let g = from_edges(N, edges);
        let beta = neighborhood_independence_exact(&g).max(1);
        let params = SparsifierParams::with_delta(beta, 0.5, delta);
        let s = build_sparsifier(&g, &params, seed, 1, None).unwrap();
        // Subgraph.
        for (_, u, v) in s.graph.edges() {
            prop_assert!(g.has_edge(u, v));
        }
        // Naive size bound (deterministic).
        prop_assert!(s.stats.edges <= params.naive_size_bound(N));
        // Observation 2.10 with the exact beta (deterministic).
        let mcm = maximum_matching(&g).len();
        if mcm > 0 {
            prop_assert!(
                s.stats.edges <= params.size_bound(mcm),
                "{} > 2*{}*({}+{})", s.stats.edges, mcm, params.mark_cap(), beta
            );
        }
        // Per-vertex mark arithmetic: marks_placed = sum of min(deg, cap)
        // over low-degree vertices + delta over high-degree ones.
        let mut expect = 0usize;
        for v in 0..N {
            let d = g.degree(sparsimatch_graph::ids::VertexId::new(v));
            expect += if d <= params.mark_cap() { d } else { params.delta };
        }
        prop_assert_eq!(s.stats.marks_placed, expect);
    }

    #[test]
    fn matching_on_sparsifier_is_matching_on_graph(
        edges in arb_edges(),
        seed in any::<u64>(),
    ) {
        let g = from_edges(N, edges);
        let params = SparsifierParams::with_delta(2, 0.5, 3);
        let s = build_sparsifier(&g, &params, seed, 1, None).unwrap();
        let m = maximum_matching(&s.graph);
        prop_assert!(m.is_valid_for(&g));
        prop_assert!(m.len() <= maximum_matching(&g).len());
    }

    #[test]
    fn params_monotone(beta in 1usize..20, num in 1u32..9) {
        let eps = num as f64 / 10.0;
        let p = SparsifierParams::paper(beta, eps);
        prop_assert!(p.delta >= SparsifierParams::practical(beta, eps).delta);
        prop_assert!(SparsifierParams::paper(beta + 1, eps).delta > p.delta);
        if eps > 0.15 {
            prop_assert!(SparsifierParams::paper(beta, eps - 0.1).delta > p.delta);
        }
        prop_assert_eq!(p.mark_cap(), 2 * p.delta);
        prop_assert_eq!(p.arboricity_bound(), 4 * p.delta);
    }
}
