//! E3 — Observation 2.12: the sparsifier's arboricity is at most
//! `2·mark_cap`.
//!
//! We compute certified arboricity bounds: the exact maximum subgraph
//! density via Goldberg's flow reduction sandwiches `α(G_Δ)` within a
//! window of 1. The window's upper end must satisfy the observation.

use rand::{rngs::StdRng, RngCore, SeedableRng};
use sparsimatch_bench::table::Table;
use sparsimatch_bench::workloads::standard_families;
use sparsimatch_bench::{scale_from_args, Scale, Violations};
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_core::sparsifier::build_sparsifier;
use sparsimatch_graph::analysis::arboricity::{arboricity_bounds, degeneracy};

fn main() {
    let scale = scale_from_args();
    let (n, trials) = match scale {
        Scale::Quick => (250, 2),
        Scale::Full => (800, 5),
    };
    let mut rng = StdRng::seed_from_u64(0xE3);
    let mut violations = Violations::new();
    let mut table = Table::new(&[
        "family",
        "n",
        "delta",
        "cap",
        "α lower",
        "α upper",
        "degeneracy",
        "obs bound (2·cap)",
    ]);

    println!("E3 / Observation 2.12: arboricity of the sparsifier\n");
    for inst in standard_families(n, &mut rng) {
        let params = SparsifierParams::practical(inst.beta, 0.3);
        for _ in 0..trials {
            let s = build_sparsifier(&inst.graph, &params, rng.next_u64(), 1, None)
                .expect("1 is a valid thread count");
            if s.graph.num_edges() == 0 {
                continue;
            }
            let (lo, hi) = arboricity_bounds(&s.graph);
            let degen = degeneracy(&s.graph);
            let bound = params.arboricity_bound();
            violations.check(hi <= bound, || {
                format!(
                    "{}: arboricity upper bound {hi} exceeds observation bound {bound}",
                    inst.name
                )
            });
            table.row(vec![
                inst.name.into(),
                inst.graph.num_vertices().to_string(),
                params.delta.to_string(),
                params.mark_cap().to_string(),
                lo.to_string(),
                hi.to_string(),
                degen.to_string(),
                bound.to_string(),
            ]);
        }
    }
    table.print();
    violations.finish_json("E3", env!("CARGO_BIN_NAME"), scale, &[&table]);
}
