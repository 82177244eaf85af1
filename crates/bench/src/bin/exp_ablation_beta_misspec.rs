//! E16 — ablation: what if β is misspecified?
//!
//! The sparsifier is sized from a *bound* on β. This sweep feeds the
//! construction a β parameter that under- or over-states the truth and
//! measures the realized approximation: overstating only wastes edges;
//! understating degrades gracefully (Δ shrinks linearly in the
//! misspecification factor) rather than failing catastrophically —
//! useful guidance for users who can only estimate β.

use rand::{rngs::StdRng, RngCore, SeedableRng};
use sparsimatch_bench::table::{f3, Table};
use sparsimatch_bench::{scale_from_args, Scale, Violations};
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_core::sparsifier::build_sparsifier;
use sparsimatch_graph::generators::{clique_union, CliqueUnionConfig};
use sparsimatch_matching::blossom::maximum_matching;

fn main() {
    let scale = scale_from_args();
    let (n, trials) = match scale {
        Scale::Quick => (300, 5),
        Scale::Full => (1200, 20),
    };
    let true_beta = 4;
    let eps = 0.3;
    let mut rng = StdRng::seed_from_u64(0xE16);
    let mut violations = Violations::new();
    let mut table = Table::new(&[
        "claimed beta",
        "true beta",
        "delta",
        "|E(GΔ)|/m",
        "worst ratio",
        "1+eps",
        "holds",
    ]);

    println!("E16 / ablation: sparsifier under a misspecified beta");
    println!("instance: 4-layer clique union (true beta <= {true_beta}), eps = {eps}\n");
    let g = clique_union(
        CliqueUnionConfig {
            n,
            diversity: true_beta,
            clique_size: n / 8,
        },
        &mut rng,
    );
    let exact = maximum_matching(&g).len();
    for claimed in [1usize, 2, 4, 8, 16] {
        let params = SparsifierParams::practical(claimed, eps);
        let mut worst = 1.0f64;
        let mut edges = 0usize;
        for _ in 0..trials {
            let s = build_sparsifier(&g, &params, rng.next_u64(), 1, None)
                .expect("1 is a valid thread count");
            let sm = maximum_matching(&s.graph).len().max(1);
            worst = worst.max(exact as f64 / sm as f64);
            edges = edges.max(s.stats.edges);
        }
        let holds = worst <= 1.0 + eps;
        // Honest parameters (claimed >= true) must meet the bound.
        if claimed >= true_beta {
            violations.check(holds, || {
                format!("claimed beta {claimed} >= true {true_beta} yet ratio {worst:.3}")
            });
        }
        table.row(vec![
            claimed.to_string(),
            true_beta.to_string(),
            params.delta.to_string(),
            f3(edges as f64 / g.num_edges() as f64),
            f3(worst),
            f3(1.0 + eps),
            holds.to_string(),
        ]);
    }
    table.print();
    violations.finish_json("E16", env!("CARGO_BIN_NAME"), scale, &[&table]);
}
