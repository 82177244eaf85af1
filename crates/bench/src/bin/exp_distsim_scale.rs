//! Distsim scaling: the simulated network's round workers at millions of
//! simulated nodes.
//!
//! Runs the randomized distributed pipeline (sparsify → solomon →
//! Israeli–Itai) on the clique-union and power-law families at a fixed
//! node count, three times per thread count in [1, 2, 4, 8]. Two
//! properties are recorded:
//!
//! 1. **Byte identity** (a hard bound): in every run the matching pairs,
//!    rounds, messages, and bits must equal the first `threads = 1` run
//!    exactly — the fingerprint column must be `true` on every row or the
//!    run fails. At quick scale with the default node count, the
//!    `threads = 1` fingerprints must also equal two frozen constants, so
//!    a change to the simulator's behaviour fails here.
//! 2. **Wall time** (measured honestly, not gated): per-row median and
//!    samples of the three runs' wall-clock, and the speedup of the
//!    median vs the `threads = 1` row's, alongside the host's actual
//!    `available_parallelism`. On a single-core host the sharded rows
//!    are expected to show speedup ≤ 1 — the experiment pins the
//!    determinism contract; the parallel win needs real cores.
//!
//! Writes `results/distsim_scale.json` (schema in EXPERIMENTS.md);
//! structurally validated by `crates/bench/tests/results_json.rs`.

use rand::{rngs::StdRng, SeedableRng};
use sparsimatch_bench::table::{f3, Table};
use sparsimatch_bench::{results_dir, scale_from_args, Scale, Violations};
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_distsim::algorithms::pipeline::{
    distributed_randomized_maximal_sharded, DistributedOutcome,
};
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::generators::{clique_union, power_law, CliqueUnionConfig};
use sparsimatch_obs::Json;
use std::time::Instant;

const ALGO_SEED: u64 = 7;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Node count of the quick scale.
const QUICK_NODES: usize = 100_000;
/// `threads = 1` fingerprints of (clique-union, power-law) at quick scale
/// and [`QUICK_NODES`], frozen from the one-worker `Network` when the
/// distributed sparsifier moved to core's `pos_v` sampler.
const QUICK_FROZEN_FINGERPRINTS: [u64; 2] = [0x510d8ab16b164142, 0xb4f1f4e22992e71e];

/// FNV-1a over the full outcome: matching pairs in order plus every
/// accounted metric. Equal fingerprints ⇔ byte-identical runs, without
/// holding two multi-million-pair vectors for the comparison.
fn fingerprint(out: &DistributedOutcome) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for (u, v) in out.matching.pairs() {
        eat(u64::from(u.0));
        eat(u64::from(v.0));
    }
    eat(out.matching.len() as u64);
    eat(out.metrics.rounds);
    eat(out.metrics.messages);
    eat(out.metrics.bits);
    let (a, b, c) = out.phase_rounds;
    eat(a);
    eat(b);
    eat(c);
    h
}

struct Row {
    family: &'static str,
    n: usize,
    m: usize,
    threads: usize,
    rounds: u64,
    messages: u64,
    bits: u64,
    matching: usize,
    wall_ms: f64,
    wall_ms_samples: [f64; 3],
    speedup: f64,
    fingerprint_match: bool,
}

/// `frozen` is the fingerprint the `threads = 1` run must reproduce, if
/// one was frozen for this configuration.
fn run_family(
    family: &'static str,
    g: &CsrGraph,
    params: &SparsifierParams,
    frozen: Option<u64>,
    violations: &mut Violations,
    table: &mut Table,
) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut base_fp = None; // the first threads = 1 run's fingerprint
    let mut base_ms = 0.0; // the threads = 1 row's median wall time
    for threads in THREAD_COUNTS {
        let mut wall_ms_samples = [0.0; 3];
        let mut fingerprint_match = true;
        let mut shape = (0, 0, 0, 0); // rounds, messages, bits, |M|
        for sample in &mut wall_ms_samples {
            let t0 = Instant::now();
            let out = distributed_randomized_maximal_sharded(g, params, ALGO_SEED, None, threads);
            *sample = t0.elapsed().as_secs_f64() * 1e3;
            let fp = fingerprint(&out);
            let (want, reference) = match base_fp {
                None => (frozen, "the frozen one"),
                Some(base) => (Some(base), "the first t=1 run's"),
            };
            let matched = want.is_none_or(|want| fp == want);
            violations.check(matched, || {
                format!("{family}: t={threads} fingerprint {fp:#018x} differs from {reference}")
            });
            fingerprint_match &= matched;
            base_fp.get_or_insert(fp);
            let m = &out.metrics;
            shape = (m.rounds, m.messages, m.bits, out.matching.len());
        }
        let mut sorted = wall_ms_samples;
        sorted.sort_by(f64::total_cmp);
        let wall_ms = sorted[1];
        if threads == 1 {
            base_ms = wall_ms;
        }
        let (rounds, messages, bits, matching) = shape;
        let row = Row {
            family,
            n: g.num_vertices(),
            m: g.num_edges(),
            threads,
            rounds,
            messages,
            bits,
            matching,
            wall_ms,
            wall_ms_samples,
            speedup: base_ms / wall_ms,
            fingerprint_match,
        };
        table.row(vec![
            family.to_string(),
            threads.to_string(),
            row.rounds.to_string(),
            row.messages.to_string(),
            row.matching.to_string(),
            f3(row.wall_ms),
            f3(row.speedup),
            row.fingerprint_match.to_string(),
        ]);
        rows.push(row);
    }
    rows
}

/// `--nodes <N>` overrides the scale-derived node count (the debug-mode
/// conformance test uses it to keep the schema check fast; CI and the
/// committed artifact run the scale defaults).
fn nodes_override() -> Option<usize> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--nodes" {
            return Some(
                args.next()
                    .and_then(|v| v.parse().ok())
                    .expect("--nodes needs an unsigned integer"),
            );
        }
    }
    None
}

fn main() {
    let scale = scale_from_args();
    let n: usize = nodes_override().unwrap_or(match scale {
        Scale::Quick => QUICK_NODES,
        Scale::Full => 1_200_000,
    });
    let frozen =
        (matches!(scale, Scale::Quick) && n == QUICK_NODES).then_some(QUICK_FROZEN_FINGERPRINTS);
    let host_parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    // Small Δ keeps the per-round message volume proportional to m at
    // these sizes; the randomized tail avoids the augmentation phase's
    // ball gathers, which do not pay at millions of nodes.
    let params = SparsifierParams::with_delta(2, 0.5, 4);

    println!("distsim scale: round workers vs one worker");
    println!(
        "n = {n}, thread counts {THREAD_COUNTS:?}, host parallelism = {host_parallelism}, \
         algorithm = randomized maximal (sparsify -> solomon -> israeli-itai)\n"
    );

    let mut violations = Violations::new();
    let mut table = Table::new(&[
        "family",
        "threads",
        "rounds",
        "messages",
        "|M|",
        "wall ms",
        "speedup",
        "identical",
    ]);
    let mut rows = Vec::new();

    let mut rng = StdRng::seed_from_u64(0x5CA1E);
    let cu = clique_union(
        CliqueUnionConfig {
            n,
            diversity: 2,
            clique_size: 8,
        },
        &mut rng,
    );
    rows.extend(run_family(
        "clique-union",
        &cu,
        &params,
        frozen.map(|f| f[0]),
        &mut violations,
        &mut table,
    ));
    drop(cu);

    let pl = power_law(n, 3, &mut rng);
    rows.extend(run_family(
        "power-law",
        &pl,
        &params,
        frozen.map(|f| f[1]),
        &mut violations,
        &mut table,
    ));
    drop(pl);

    table.print();

    let mut doc = Json::object();
    doc.set("experiment", "distsim_scale");
    doc.set("scale", scale.name());
    doc.set("algo_seed", ALGO_SEED);
    doc.set("nodes", n);
    doc.set("host_parallelism", host_parallelism);
    doc.set(
        "thread_counts",
        Json::Array(THREAD_COUNTS.iter().map(|&t| Json::from(t)).collect()),
    );
    let out_rows: Vec<Json> = rows
        .iter()
        .map(|r| {
            let mut row = Json::object();
            row.set("family", r.family);
            row.set("n", r.n);
            row.set("m", r.m);
            row.set("threads", r.threads);
            row.set("rounds", r.rounds);
            row.set("messages", r.messages);
            row.set("bits", r.bits);
            row.set("matching", r.matching);
            row.set("wall_ms", r.wall_ms);
            let samples = r.wall_ms_samples.iter().map(|&ms| Json::from(ms));
            row.set("wall_ms_samples", Json::Array(samples.collect()));
            row.set("speedup", r.speedup);
            row.set("fingerprint_match", r.fingerprint_match);
            row
        })
        .collect();
    doc.set("rows", Json::Array(out_rows));
    doc.set("bounds_ok", violations.is_empty());
    doc.set(
        "violations",
        Json::Array(
            violations
                .items()
                .iter()
                .map(|v| Json::from(v.as_str()))
                .collect(),
        ),
    );

    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("FAILED to create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let path = dir.join("distsim_scale.json");
    if let Err(e) = std::fs::write(&path, doc.to_pretty()) {
        eprintln!("FAILED to write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("\n[distsim_scale] results written to {}", path.display());
    violations.finish("distsim_scale");
}
