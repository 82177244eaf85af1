//! E2 — Observation 2.10: sparsifier size bounds.
//!
//! `|E(G_Δ)| ≤ 2·|MCM(G)|·(mark_cap + β)` deterministically, which beats
//! the naive `n·mark_cap` bound whenever the matching is small. Both
//! bounds are verified on every trial; the table reports how much slack
//! each leaves.

use rand::{rngs::StdRng, RngCore, SeedableRng};
use sparsimatch_bench::table::{ratio, Table};
use sparsimatch_bench::workloads::standard_families;
use sparsimatch_bench::{scale_from_args, Scale, Violations};
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_core::sparsifier::build_sparsifier;
use sparsimatch_matching::blossom::maximum_matching;

fn main() {
    let scale = scale_from_args();
    let (n, trials) = match scale {
        Scale::Quick => (300, 3),
        Scale::Full => (1500, 10),
    };
    let mut rng = StdRng::seed_from_u64(0xE2);
    let mut violations = Violations::new();
    let mut table = Table::new(&[
        "family",
        "n",
        "m",
        "beta",
        "delta",
        "|E(GΔ)|",
        "2·MCM·(cap+β)",
        "n·cap",
        "size/obs-bound",
        "size/naive",
    ]);

    println!("E2 / Observation 2.10: size of the sparsifier\n");
    for inst in standard_families(n, &mut rng) {
        let params = SparsifierParams::practical(inst.beta, 0.3);
        let mcm = maximum_matching(&inst.graph).len();
        for _ in 0..trials {
            let s = build_sparsifier(&inst.graph, &params, rng.next_u64(), 1, None)
                .expect("1 is a valid thread count");
            let obs_bound = params.size_bound(mcm);
            let naive = params.naive_size_bound(inst.graph.num_vertices());
            violations.check(s.stats.edges <= obs_bound, || {
                format!(
                    "{}: {} edges exceed Observation 2.10 bound {}",
                    inst.name, s.stats.edges, obs_bound
                )
            });
            violations.check(s.stats.edges <= naive, || {
                format!(
                    "{}: {} edges exceed the naive bound {}",
                    inst.name, s.stats.edges, naive
                )
            });
            table.row(vec![
                inst.name.into(),
                inst.graph.num_vertices().to_string(),
                inst.graph.num_edges().to_string(),
                inst.beta.to_string(),
                params.delta.to_string(),
                s.stats.edges.to_string(),
                obs_bound.to_string(),
                naive.to_string(),
                ratio(s.stats.edges as f64, obs_bound as f64),
                ratio(s.stats.edges as f64, naive as f64),
            ]);
        }
    }
    table.print();
    violations.finish_json("E2", env!("CARGO_BIN_NAME"), scale, &[&table]);
}
