//! Property-based tests for the matching substrate.

use proptest::prelude::*;
use sparsimatch_graph::csr::from_edges;
use sparsimatch_matching::blossom::{maximum_matching, maximum_matching_from, BlossomSearcher};
use sparsimatch_matching::bounded_aug::approx_maximum_matching;
use sparsimatch_matching::greedy::greedy_maximal_matching;
use sparsimatch_matching::hopcroft_karp::{bipartition, hopcroft_karp};
use sparsimatch_matching::Matching;

const N: usize = 18;

fn arb_edges() -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0..N, 0..N), 0..80)
}

fn arb_bipartite_edges() -> impl Strategy<Value = Vec<(usize, usize)>> {
    // Left 0..9, right 9..18.
    proptest::collection::vec((0..9usize, 9..N), 0..60)
}

/// Steps coprime to `N`, so `len ≤ N` consecutive multiples of one from a
/// start are distinct vertices.
const STRIDES: [usize; 6] = [1, 5, 7, 11, 13, 17];

/// One to four odd cycles (lengths 3, 5 and 7) on vertices spread by a
/// stride from a start, plus up to twenty random chords: graphs where
/// blossoms nest and cross.
fn arb_odd_cycle_edges() -> impl Strategy<Value = Vec<(usize, usize)>> {
    (
        proptest::collection::vec((0..3usize, 0..N, 0..STRIDES.len()), 1..5),
        proptest::collection::vec((0..N, 0..N), 0..20),
    )
        .prop_map(|(cycles, mut edges)| {
            for (k, start, s) in cycles {
                let len = 2 * k + 3;
                let at = |i: usize| (start + i * STRIDES[s]) % N;
                edges.extend((0..len).map(|i| (at(i), at(i + 1))));
            }
            edges
        })
}

/// Exponential-time exact MCM used as an independent oracle.
fn brute_force_mcm(edges: &[(u32, u32)]) -> usize {
    fn rec(edges: &[(u32, u32)], used: &mut u64, i: usize) -> usize {
        if i == edges.len() {
            return 0;
        }
        let skip = rec(edges, used, i + 1);
        let (u, v) = edges[i];
        let mask = (1u64 << u) | (1u64 << v);
        if *used & mask == 0 {
            *used |= mask;
            let take = 1 + rec(edges, used, i + 1);
            *used &= !mask;
            skip.max(take)
        } else {
            skip
        }
    }
    rec(edges, &mut 0, 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn greedy_is_valid_and_maximal(edges in arb_edges()) {
        let g = from_edges(N, edges);
        let m = greedy_maximal_matching(&g);
        prop_assert!(m.is_valid_for(&g));
        prop_assert!(m.is_maximal_in(&g));
    }

    #[test]
    fn blossom_matches_brute_force(edges in arb_edges()) {
        let g = from_edges(N, edges);
        let edge_list: Vec<(u32, u32)> = g.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        let fast = maximum_matching(&g);
        prop_assert!(fast.is_valid_for(&g));
        prop_assert_eq!(fast.len(), brute_force_mcm(&edge_list));
    }

    #[test]
    fn exact_oracle_from_a_random_matching_is_maximum(
        edges in arb_odd_cycle_edges(),
        pick in proptest::collection::vec(any::<bool>(), 0..48),
    ) {
        let g = from_edges(N, edges);
        let edge_list: Vec<(u32, u32)> = g.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        // A valid, usually not maximal, start: each picked edge whose
        // ends are both still free.
        let mut init = Matching::new(N);
        for (i, (_, u, v)) in g.edges().enumerate() {
            if pick.get(i) == Some(&true) {
                init.add_pair(u, v);
            }
        }
        prop_assert!(init.is_valid_for(&g));
        let m = maximum_matching_from(&g, init);
        prop_assert!(m.is_valid_for(&g));
        prop_assert_eq!(m.len(), brute_force_mcm(&edge_list));
        // The zero-flip phase the oracle ended with, run once more.
        prop_assert_eq!(BlossomSearcher::new(&m).augment_phase(&g, u32::MAX), 0);
    }

    #[test]
    fn hopcroft_karp_agrees_with_blossom_on_bipartite(edges in arb_bipartite_edges()) {
        let g = from_edges(N, edges);
        let side = bipartition(&g).expect("bipartite by construction");
        let hk = hopcroft_karp(&g, &side).matching;
        let bl = maximum_matching(&g);
        prop_assert!(hk.is_valid_for(&g));
        prop_assert_eq!(hk.len(), bl.len());
    }

    #[test]
    fn bounded_aug_guarantee(edges in arb_edges(), k in 1usize..5) {
        let g = from_edges(N, edges);
        let eps = 1.0 / k as f64;
        let approx = approx_maximum_matching(&g, eps);
        let exact = maximum_matching(&g).len();
        prop_assert!(approx.is_valid_for(&g));
        // |M| >= k/(k+1) * MCM.
        prop_assert!(
            approx.len() * (k + 1) >= exact * k,
            "k={} approx={} exact={}", k, approx.len(), exact
        );
    }

    #[test]
    fn matchings_never_exceed_half_the_vertices(edges in arb_edges()) {
        let g = from_edges(N, edges);
        prop_assert!(maximum_matching(&g).len() <= N / 2);
        prop_assert!(greedy_maximal_matching(&g).len() <= N / 2);
    }
}
