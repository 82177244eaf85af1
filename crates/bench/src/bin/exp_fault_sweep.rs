//! Fault-injection sweep: how matching quality degrades as the seeded
//! transport drop rate rises, and how much the ack/retry resilience
//! layer wins back (ISSUE 3 tentpole experiment).
//!
//! Sweeps a grid of per-message drop probabilities over the distributed
//! maximal-matching pipeline. For each rate, several independent fault
//! seeds run the identical workload; the report carries per-rate means.
//! Three properties are enforced as bounds:
//!
//! 1. The `drop = 0` rows are *byte-identical* to the fault-free
//!    pipeline — same pairs, same metrics, zero fault counters. The
//!    fault layer is free when idle.
//! 2. Mean matching size is non-increasing in the drop rate (monotone
//!    degradation in expectation).
//! 3. At every rate, the hardened arm (ack/retry) recovers at least the
//!    fragile arm's mean size.
//!
//! A second arm (ISSUE 8) turns the same chaos discipline on the
//! out-of-core streamed build: seeded [`IoFaultPlan`]s inject transient
//! EIO, short reads, torn lines, and header mutations into the edge
//! stream while [`RetryPolicy`] restarts failed passes. Its bound is
//! *full recovery*: every row — at any injection rate whose horizon the
//! retry budget covers — must be byte-identical to the fault-free
//! streamed run, with the aborted rescans visible only in the report's
//! `io_retries` and half-edge-visit counters.
//!
//! Writes `results/fault_sweep.json` (schema in EXPERIMENTS.md);
//! structurally validated by `crates/bench/tests/results_json.rs`.

use rand::{rngs::StdRng, SeedableRng};
use sparsimatch_bench::table::{f3, Table};
use sparsimatch_bench::{results_dir, scale_from_args, Scale, Violations};
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_core::stream_build::{
    approx_mcm_streamed, approx_mcm_streamed_with_retry, RetryPolicy,
};
use sparsimatch_distsim::algorithms::pipeline::{
    distributed_maximal_baseline, distributed_maximal_baseline_faulty, DistributedOutcome,
};
use sparsimatch_distsim::{FaultPlan, FaultRates, ResilienceParams};
use sparsimatch_graph::edge_stream::{FaultyEdgeSource, IoFaultPlan, IoFaultRates};
use sparsimatch_graph::generators::{clique_union, CliqueUnionConfig};
use sparsimatch_obs::Json;

/// Faults strike only the first two rounds: exactly the two one-round
/// sparsifier phases, the part of the pipeline a drop hurts most.
const HORIZON: u64 = 2;
const ALGO_SEED: u64 = 7;
const RETRIES: u32 = 2;

/// Scan attempts an I/O plan may fault before going clean; a retry
/// budget of `IO_HORIZON + 1` attempts per pass then guarantees the
/// streamed build recovers (attempts burn globally across both passes).
const IO_HORIZON: u64 = 3;

struct RateSummary {
    drop: f64,
    mean_size: f64,
    min_size: u64,
    max_size: u64,
    mean_dropped: f64,
    mean_rounds: f64,
    hardened_mean_size: f64,
    hardened_mean_retries: f64,
}

fn mean(xs: &[u64]) -> f64 {
    xs.iter().sum::<u64>() as f64 / xs.len() as f64
}

fn main() {
    let scale = scale_from_args();
    let (n, seeds_per_rate): (usize, u64) = match scale {
        Scale::Quick => (160, 6),
        Scale::Full => (640, 24),
    };
    let drops: &[f64] = &[0.0, 0.3, 0.6, 0.95];

    let mut rng = StdRng::seed_from_u64(0xFA17);
    let g = clique_union(
        CliqueUnionConfig {
            n,
            diversity: 2,
            clique_size: 24,
        },
        &mut rng,
    );
    let params = SparsifierParams::with_delta(2, 0.5, 8);
    let baseline = distributed_maximal_baseline(&g, &params, ALGO_SEED);

    let mut violations = Violations::new();
    let mut table = Table::new(&[
        "drop",
        "mean |M|",
        "min..max",
        "mean dropped",
        "mean rounds",
        "hardened |M|",
        "mean retries",
    ]);
    let mut rows = Vec::new();

    println!("fault sweep: distributed maximal matching under seeded drops");
    println!(
        "family: clique-union (n = {n}, m = {}), horizon = {HORIZON}, \
         {seeds_per_rate} fault seeds per rate, retries = {RETRIES}\n",
        g.num_edges()
    );

    for &drop in drops {
        let rates = FaultRates {
            drop,
            ..Default::default()
        };
        let mut sizes = Vec::new();
        let mut dropped = Vec::new();
        let mut rounds = Vec::new();
        let mut hardened_sizes = Vec::new();
        let mut hardened_retries = Vec::new();
        for fault_seed in 0..seeds_per_rate {
            let plan = FaultPlan::new(fault_seed, rates).with_horizon(HORIZON);
            let out = distributed_maximal_baseline_faulty(
                &g,
                &params,
                ALGO_SEED,
                &plan,
                ResilienceParams::off(),
            );
            if drop == 0.0 {
                check_zero_fault_row(&mut violations, &baseline, &out, fault_seed);
            }
            let hard = distributed_maximal_baseline_faulty(
                &g,
                &params,
                ALGO_SEED,
                &plan,
                ResilienceParams::retry(RETRIES),
            );
            sizes.push(out.matching.len() as u64);
            dropped.push(out.faults.dropped);
            rounds.push(out.metrics.rounds);
            hardened_sizes.push(hard.matching.len() as u64);
            hardened_retries.push(hard.faults.retries);
        }
        let summary = RateSummary {
            drop,
            mean_size: mean(&sizes),
            min_size: *sizes.iter().min().unwrap(),
            max_size: *sizes.iter().max().unwrap(),
            mean_dropped: mean(&dropped),
            mean_rounds: mean(&rounds),
            hardened_mean_size: mean(&hardened_sizes),
            hardened_mean_retries: mean(&hardened_retries),
        };
        table.row(vec![
            format!("{drop:.2}"),
            f3(summary.mean_size),
            format!("{}..{}", summary.min_size, summary.max_size),
            f3(summary.mean_dropped),
            f3(summary.mean_rounds),
            f3(summary.hardened_mean_size),
            f3(summary.hardened_mean_retries),
        ]);
        rows.push(summary);
    }
    table.print();

    // Bound 2: monotone degradation in expectation.
    for pair in rows.windows(2) {
        violations.check(pair[0].mean_size >= pair[1].mean_size, || {
            format!(
                "mean size rose with the drop rate: {} @ {:.2} -> {} @ {:.2}",
                pair[0].mean_size, pair[0].drop, pair[1].mean_size, pair[1].drop
            )
        });
    }
    // Bound 3: retries never hurt.
    for r in &rows {
        violations.check(r.hardened_mean_size >= r.mean_size, || {
            format!(
                "resilience lost matching size at drop {:.2}: {} < {}",
                r.drop, r.hardened_mean_size, r.mean_size
            )
        });
    }

    let io_rows = io_fault_arm(&g, &params, seeds_per_rate, drops, &mut violations);

    write_sweep_json(
        scale,
        &g,
        seeds_per_rate,
        baseline.matching.len(),
        &rows,
        &io_rows,
        &violations,
    );
    violations.finish("fault_sweep");
}

struct IoRateSummary {
    p: f64,
    matching: u64,
    mean_retries: f64,
    mean_faults: f64,
    identical: bool,
}

/// The I/O arm: the streamed pipeline under seeded edge-stream faults.
/// Unlike the transport arm, degradation is not allowed here — the
/// retry layer must reach the exact fault-free result at every rate, so
/// the only thing the sweep "measures" is how many aborted rescans it
/// took to get there.
fn io_fault_arm(
    g: &sparsimatch_graph::csr::CsrGraph,
    params: &SparsifierParams,
    seeds_per_rate: u64,
    probabilities: &[f64],
    violations: &mut Violations,
) -> Vec<IoRateSummary> {
    let policy = RetryPolicy::attempts(IO_HORIZON as u32 + 1);
    let (clean, clean_report) =
        approx_mcm_streamed(&mut g.clone(), params, ALGO_SEED).expect("fault-free streamed build");
    let clean_pairs: Vec<_> = clean.matching.pairs().collect();

    let mut table = Table::new(&["p", "|M|", "identical", "mean retries", "mean faults"]);
    let mut rows = Vec::new();
    println!("\nI/O arm: streamed sparsifier build under seeded edge-stream faults");
    println!(
        "horizon = {IO_HORIZON}, retry budget = {} attempts per pass, \
         {seeds_per_rate} fault seeds per rate\n",
        IO_HORIZON + 1
    );
    for &p in probabilities {
        let rates = IoFaultRates {
            eio: p,
            short_read: 0.8 * p,
            torn_line: 0.8 * p,
            header_mutation: 0.5 * p,
        };
        let mut retries = Vec::new();
        let mut faults = Vec::new();
        let mut identical = true;
        for fault_seed in 0..seeds_per_rate {
            let plan = IoFaultPlan::new(fault_seed ^ 0x10FA, rates).with_horizon(IO_HORIZON);
            let mut src = FaultyEdgeSource::new(g.clone(), plan);
            let (res, report) =
                match approx_mcm_streamed_with_retry(&mut src, params, ALGO_SEED, &policy) {
                    Ok(r) => r,
                    Err(e) => {
                        violations.check(false, || {
                            format!("recoverable io plan (p {p:.2}, seed {fault_seed}) failed: {e}")
                        });
                        continue;
                    }
                };
            let same = res.matching.pairs().collect::<Vec<_>>() == clean_pairs
                && res.sparsifier == clean.sparsifier
                && res.probes == clean.probes
                && res.aug == clean.aug
                && report.sparsifier_bytes == clean_report.sparsifier_bytes
                && report.peak_resident_bytes == clean_report.peak_resident_bytes;
            identical &= same;
            violations.check(same, || {
                format!("io run (p {p:.2}, seed {fault_seed}) diverged from the fault-free build")
            });
            violations.check(report.io_retries == src.stats().total(), || {
                format!(
                    "io run (p {p:.2}, seed {fault_seed}) retries {} != injected faults {}",
                    report.io_retries,
                    src.stats().total()
                )
            });
            if p == 0.0 {
                // The zero-rate anchor: the fault layer is free when idle,
                // down to the half-edge-visit counter.
                violations.check(
                    report.io_retries == 0 && report.edges_scanned == clean_report.edges_scanned,
                    || {
                        format!(
                            "zero-rate io run (seed {fault_seed}) was not free: {} retries, \
                             {} half-edge visits (clean {})",
                            report.io_retries, report.edges_scanned, clean_report.edges_scanned
                        )
                    },
                );
            }
            retries.push(report.io_retries);
            faults.push(src.stats().total());
        }
        let summary = IoRateSummary {
            p,
            matching: clean_pairs.len() as u64,
            mean_retries: mean(&retries),
            mean_faults: mean(&faults),
            identical,
        };
        table.row(vec![
            format!("{p:.2}"),
            summary.matching.to_string(),
            summary.identical.to_string(),
            f3(summary.mean_retries),
            f3(summary.mean_faults),
        ]);
        rows.push(summary);
    }
    table.print();
    // The arm must actually exercise the retry path: at the top rate
    // nearly every early scan attempt faults.
    violations.check(rows.last().is_some_and(|r| r.mean_retries > 0.0), || {
        "the io arm never injected a fault; the retry path went unexercised".to_string()
    });
    rows
}

/// Bound 1: under a zero-fault plan every run must equal the fault-free
/// pipeline exactly — pairs, metrics, and fault counters.
fn check_zero_fault_row(
    violations: &mut Violations,
    baseline: &DistributedOutcome,
    out: &DistributedOutcome,
    fault_seed: u64,
) {
    let same_pairs =
        baseline.matching.pairs().collect::<Vec<_>>() == out.matching.pairs().collect::<Vec<_>>();
    violations.check(same_pairs, || {
        format!("zero-fault run (seed {fault_seed}) changed the matching")
    });
    violations.check(baseline.metrics == out.metrics, || {
        format!("zero-fault run (seed {fault_seed}) changed the metrics")
    });
    let f = &out.faults;
    violations.check(
        f.dropped == 0 && f.duplicated == 0 && f.retries == 0 && f.crashed_rounds == 0,
        || format!("zero-fault run (seed {fault_seed}) counted faults: {f}"),
    );
}

fn write_sweep_json(
    scale: Scale,
    g: &sparsimatch_graph::csr::CsrGraph,
    seeds_per_rate: u64,
    baseline_matching: usize,
    rows: &[RateSummary],
    io_rows: &[IoRateSummary],
    violations: &Violations,
) {
    let mut doc = Json::object();
    doc.set("experiment", "fault_sweep");
    doc.set("scale", scale.name());
    let mut graph = Json::object();
    graph.set("family", "clique-union");
    graph.set("vertices", g.num_vertices());
    graph.set("edges", g.num_edges());
    doc.set("graph", graph);
    doc.set("algo_seed", ALGO_SEED);
    doc.set("horizon", HORIZON);
    doc.set("retries", u64::from(RETRIES));
    doc.set("seeds_per_rate", seeds_per_rate);
    doc.set("baseline_matching", baseline_matching);
    let out_rows: Vec<Json> = rows
        .iter()
        .map(|r| {
            let mut row = Json::object();
            row.set("drop", r.drop);
            row.set("mean_size", r.mean_size);
            row.set("min_size", r.min_size);
            row.set("max_size", r.max_size);
            row.set("mean_dropped", r.mean_dropped);
            row.set("mean_rounds", r.mean_rounds);
            row.set("hardened_mean_size", r.hardened_mean_size);
            row.set("hardened_mean_retries", r.hardened_mean_retries);
            row
        })
        .collect();
    doc.set("rows", Json::Array(out_rows));
    let mut io = Json::object();
    io.set("horizon", IO_HORIZON);
    io.set("attempts", IO_HORIZON + 1);
    let io_out: Vec<Json> = io_rows
        .iter()
        .map(|r| {
            let mut row = Json::object();
            row.set("p", r.p);
            row.set("matching", r.matching);
            row.set("mean_retries", r.mean_retries);
            row.set("mean_faults", r.mean_faults);
            row.set("identical", r.identical);
            row
        })
        .collect();
    io.set("rows", Json::Array(io_out));
    doc.set("io", io);
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
    let path = dir.join("fault_sweep.json");
    if let Err(e) = std::fs::write(&path, doc.to_pretty()) {
        eprintln!("FAILED to write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("\n[fault_sweep] results written to {}", path.display());
}
