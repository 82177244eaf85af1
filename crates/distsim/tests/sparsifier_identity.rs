//! One `G_Δ` across models: on a lossless network the unicast and the
//! broadcast sparsifier protocols place exactly the marks of core's
//! in-memory builder for the same seed, because every node marks with
//! core's `pos_v` sampler from `vertex_rng(seed, v)`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_core::sparsifier::build_sparsifier;
use sparsimatch_distsim::algorithms::sparsify::{
    distributed_sparsifier, distributed_sparsifier_broadcast,
};
use sparsimatch_distsim::Network;
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::generators::{clique, clique_union, gnp, power_law, CliqueUnionConfig};

fn edge_list(g: &CsrGraph) -> Vec<(u32, u32)> {
    g.edges().map(|(_, u, v)| (u.0, v.0)).collect()
}

#[test]
fn both_protocols_build_cores_sparsifier_edge_for_edge() {
    let families = [
        ("clique(60)", clique(60)),
        (
            "power_law(2000, 3)",
            power_law(2_000, 3, &mut StdRng::seed_from_u64(1)),
        ),
        (
            "gnp(500, 0.05)",
            gnp(500, 0.05, &mut StdRng::seed_from_u64(2)),
        ),
        (
            "clique_union(600, 2, 40)",
            clique_union(
                CliqueUnionConfig {
                    n: 600,
                    diversity: 2,
                    clique_size: 40,
                },
                &mut StdRng::seed_from_u64(3),
            ),
        ),
    ];
    for (name, g) in &families {
        for delta in [2, 4, 9] {
            let params = SparsifierParams::with_delta(2, 0.5, delta);
            for seed in [1, 7, 99] {
                let core = edge_list(&build_sparsifier(g, &params, seed, 1, None).unwrap().graph);
                let uni = distributed_sparsifier(&mut Network::new(g), &params, seed);
                let bro = distributed_sparsifier_broadcast(&mut Network::new(g), &params, seed);
                let at = format!("{name}, delta {delta}, seed {seed}");
                assert_eq!(edge_list(&uni), core, "unicast differs from core: {at}");
                assert_eq!(edge_list(&bro), core, "broadcast differs from core: {at}");
            }
        }
    }
}
