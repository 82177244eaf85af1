//! E11 — ablation: how small can Δ really be?
//!
//! The proof of Theorem 2.1 uses `Δ = 20·(β/ε)·ln(24/ε)`. The union
//! bound is loose; this sweep scales Δ down from the paper constant and
//! reports the realized worst approximation ratio over repeated trials,
//! locating the practical threshold.

use rand::{rngs::StdRng, RngCore, SeedableRng};
use sparsimatch_bench::table::{f3, Table};
use sparsimatch_bench::workloads::{family_clique_union, family_unit_disk};
use sparsimatch_bench::{scale_from_args, Scale, Violations};
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_core::sparsifier::build_sparsifier;
use sparsimatch_matching::blossom::maximum_matching;

fn main() {
    let scale = scale_from_args();
    let (n, trials) = match scale {
        Scale::Quick => (400, 5),
        Scale::Full => (1500, 20),
    };
    let eps = 0.3;
    let scales: &[f64] = &[1.0, 0.25, 0.05, 1.0 / 20.0, 0.02, 0.01];
    let mut rng = StdRng::seed_from_u64(0xE11);
    let mut violations = Violations::new();
    let mut table = Table::new(&[
        "family",
        "scale vs paper",
        "delta",
        "|E(GΔ)|/m",
        "worst ratio",
        "1+eps",
        "holds",
    ]);

    println!("E11 / ablation: scaling Delta below the paper constant (eps = {eps})\n");
    for family in 0..2 {
        let inst = if family == 0 {
            family_clique_union(n, &mut rng)
        } else {
            family_unit_disk(n, &mut rng)
        };
        let exact = maximum_matching(&inst.graph).len();
        for &s in scales {
            let params = SparsifierParams::scaled(inst.beta, eps, s);
            let mut worst = 1.0f64;
            let mut edges = 0usize;
            for _ in 0..trials {
                let sp = build_sparsifier(&inst.graph, &params, rng.next_u64(), 1, None)
                    .expect("1 is a valid thread count");
                let sm = maximum_matching(&sp.graph).len().max(1);
                worst = worst.max(exact as f64 / sm as f64);
                edges = edges.max(sp.stats.edges);
            }
            let holds = worst <= 1.0 + eps;
            // The paper constant itself must always hold.
            if (s - 1.0).abs() < 1e-9 {
                violations.check(holds, || {
                    format!("{}: paper-constant Delta violated the bound", inst.name)
                });
            }
            table.row(vec![
                inst.name.into(),
                f3(s),
                params.delta.to_string(),
                f3(edges as f64 / inst.graph.num_edges() as f64),
                f3(worst),
                f3(1.0 + eps),
                holds.to_string(),
            ]);
        }
    }
    table.print();
    violations.finish_json("E11", env!("CARGO_BIN_NAME"), scale, &[&table]);
}
