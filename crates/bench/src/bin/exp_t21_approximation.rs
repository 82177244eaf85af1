//! E1 — Theorem 2.1: `G_Δ` is a `(1+ε)`-matching sparsifier w.h.p.
//!
//! For every bounded-β family and ε, build the sparsifier with the
//! practically-scaled Δ and compare `|MCM(G_Δ)|` against `|MCM(G)|`
//! computed exactly (Edmonds). The theorem demands
//! `|MCM(G)| ≤ (1+ε)·|MCM(G_Δ)|` on every trial, w.h.p.

use rand::{rngs::StdRng, RngCore, SeedableRng};
use sparsimatch_bench::table::{f3, Table};
use sparsimatch_bench::workloads::standard_families;
use sparsimatch_bench::{scale_from_args, Scale, Violations};
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_core::sparsifier::build_sparsifier;
use sparsimatch_matching::blossom::maximum_matching;

fn main() {
    let scale = scale_from_args();
    let (n, trials, epsilons): (usize, usize, &[f64]) = match scale {
        Scale::Quick => (300, 3, &[0.5, 0.3]),
        Scale::Full => (1200, 10, &[0.5, 0.3, 0.15]),
    };
    let mut rng = StdRng::seed_from_u64(0xE1);
    let mut violations = Violations::new();
    let mut table = Table::new(&[
        "family",
        "n",
        "m",
        "beta",
        "eps",
        "delta",
        "|E(GΔ)|",
        "mcm(G)",
        "worst ratio",
        "bound",
    ]);

    println!("E1 / Theorem 2.1: (1+eps)-approximation of the random sparsifier\n");
    for &eps in epsilons {
        for inst in standard_families(n, &mut rng) {
            let params = SparsifierParams::practical(inst.beta, eps);
            let exact = maximum_matching(&inst.graph).len();
            if exact == 0 {
                continue;
            }
            let mut worst = 1.0f64;
            let mut edges = 0usize;
            for _ in 0..trials {
                let s = build_sparsifier(&inst.graph, &params, rng.next_u64(), 1, None)
                    .expect("1 is a valid thread count");
                let sparse_mcm = maximum_matching(&s.graph).len().max(1);
                worst = worst.max(exact as f64 / sparse_mcm as f64);
                edges = edges.max(s.stats.edges);
            }
            violations.check(worst <= 1.0 + eps, || {
                format!(
                    "{} eps={eps}: worst ratio {worst:.4} exceeds {:.2}",
                    inst.name,
                    1.0 + eps
                )
            });
            table.row(vec![
                inst.name.into(),
                inst.graph.num_vertices().to_string(),
                inst.graph.num_edges().to_string(),
                inst.beta.to_string(),
                f3(eps),
                params.delta.to_string(),
                edges.to_string(),
                exact.to_string(),
                f3(worst),
                f3(1.0 + eps),
            ]);
        }
    }
    table.print();
    violations.finish_json("E1", env!("CARGO_BIN_NAME"), scale, &[&table]);
}
