//! Pipeline throughput baseline: the end-to-end sparsify-and-match hot
//! path across `{clique, bounded-β clique-union, bipartite} × {1,2,4,8}`
//! threads, written as `BENCH_pipeline.json` so future changes have a
//! recorded trajectory to beat.
//!
//! Unlike the `exp_*` binaries this measures *wall-clock*, not unit
//! counts, so the output varies by host; the `host_parallelism` field
//! records how many hardware threads were available (speedups are only
//! meaningful when it exceeds the thread count). Output correctness is
//! still asserted: the matching and sparsifier must be identical for
//! every thread count, and any mismatch exits nonzero.
//!
//! Every `(family, threads)` cell holds one [`PipelineScratch`] arena
//! across its repetitions, so the recorded numbers reflect the steady
//! state long-lived callers run at. A separate `steady_state` section
//! quantifies that effect directly: per family at one thread, it times
//! cold-start solves (fresh arena per call, heap trimmed back to the OS
//! between solves so each pays real first-touch page faults) against
//! warm solves through a reused arena and records the `warm_speedup`
//! ratio. The steady-state
//! rows use fixed repeat-solve shapes (identical at both scales, with
//! `vertices`/`edges` recorded per row) rather than the throughput
//! instances: arena reuse saves a fixed per-solve setup cost, and the
//! callers that repeat solves — dynamic rebuilds, oracle sweeps — run
//! on small-to-medium instances where that cost is a real fraction of
//! the solve, not on multi-second headline graphs that would bury it. When built with
//! `--features alloc-count` the binary installs the counting global
//! allocator and adds per-run `alloc_bytes`/`alloc_count` columns
//! (main-thread deltas; the `alloc_counting` flag says whether the
//! columns are live or zero-filled).
//!
//! A final `huge` tier exercises the out-of-core path at the scales the
//! in-memory tiers cannot: each family is generated, spilled to an
//! edge-list file, dropped, and solved through
//! [`approx_mcm_streamed`] — ≥ 20M edges per family at `--full`, a ~2M
//! `huge-smoke` shape at `--quick`. Its rows record the analytic
//! resident-memory high water (`peak_resident_bytes`), what
//! materializing the parent would cost (`graph_bytes`), the sparsifier
//! footprint, and the probe counts; the headline gate
//! `peak_resident_bytes < graph_bytes` is asserted here and re-checked
//! against the committed baseline by `tests/results_json.rs`.
//!
//! A `backends` section races the two sparsifier backends (`delta` vs
//! `edcs` at β = 16, λ = 1/8) through the `MatchingSparsifier` trait:
//! conformance first — valid matchings, each backend under its own
//! claimed size bound, the two matching sizes mutually consistent under
//! the claimed ratios — then best-of-reps wall-clock per family at one
//! thread, plus a streamed rematch over the spilled `huge` files
//! (the EDCS fixpoint re-scans the file until convergence, so its
//! `edges_scanned` is `passes × 2m` against the delta build's fixed
//! `4m`). The in-memory EDCS rows also record the fixpoint's `passes`
//! and `edge_evaluations`, the edges it evaluated: at most
//! `passes × m`, and far fewer on the dense quick `clique` row, where
//! the fixpoint skips the edges it proves cannot change.
//! `results/RESULTS.md` renders the head-to-head table from this
//! section.
//!
//! Usage: `bench_baseline [--full]`; the output path defaults to
//! `BENCH_pipeline.json` in the current directory and can be overridden
//! with the `SPARSIMATCH_BENCH_OUT` environment variable. The schema is
//! documented in EXPERIMENTS.md ("Benchmark baseline").

use rand::{rngs::StdRng, SeedableRng};
use sparsimatch_bench::{scale_from_args, Scale, Violations};
use sparsimatch_core::backend::{DeltaBackend, EdcsBackend, MatchingSparsifier};
use sparsimatch_core::edcs::EdcsParams;
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_core::pipeline::{
    approx_mcm_via_sparsifier, approx_mcm_via_sparsifier_with_scratch,
    approx_mcm_via_sparsifier_with_scratch_metered,
};
use sparsimatch_core::scratch::PipelineScratch;
use sparsimatch_core::stream_build::{approx_mcm_streamed, StreamBuildReport};
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::edge_stream::{EdgeStreamSource, FileEdgeSource};
use sparsimatch_graph::generators::{
    bipartite_gnp, clique, clique_union, power_law, CliqueUnionConfig,
};
use sparsimatch_graph::io::write_edge_list_file;
use sparsimatch_obs::{keys, Json, WorkMeter};
use std::time::Instant;

#[cfg(feature = "alloc-count")]
#[global_allocator]
static ALLOC: sparsimatch_obs::alloc::CountingAllocator = sparsimatch_obs::alloc::CountingAllocator;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// The EDCS arm of the backend race runs at β = 16 with the β-derived
/// default λ = 2/β — the same operating point the CLI's
/// `--backend edcs` defaults to, so the committed numbers describe what
/// a user who just flips the flag gets.
const EDCS_BETA: usize = 16;
const EDCS_LAMBDA: f64 = 0.125;

/// Slack for cross-backend conformance: each backend's claimed ratio
/// bounds the *optimum*, so two certified backends can disagree by at
/// most the product of their ratios — plus a couple of edges of
/// integer-rounding room on small instances.
const BACKEND_ABS_SLACK: f64 = 2.0;

#[cfg(target_env = "gnu")]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Return freed heap memory to the OS, so the next solve pays the page
/// faults a genuinely cold caller (a fresh process, a dropped arena)
/// pays. Without this, glibc retains the previous cold solve's arena
/// pages and the "cold" loop silently measures a half-warm heap. No-op
/// off glibc — cold numbers are then an underestimate.
fn trim_heap() {
    #[cfg(target_env = "gnu")]
    unsafe {
        malloc_trim(0);
    }
}

/// Current-thread allocation counters `(bytes, count)`; zeros when the
/// binary was built without `alloc-count`.
fn alloc_totals() -> (u64, u64) {
    #[cfg(feature = "alloc-count")]
    {
        let t = sparsimatch_obs::alloc::thread_totals();
        (t.bytes, t.count)
    }
    #[cfg(not(feature = "alloc-count"))]
    {
        (0, 0)
    }
}

struct Family {
    name: &'static str,
    graph: CsrGraph,
    beta: usize,
    eps: f64,
}

fn families(scale: Scale) -> Vec<Family> {
    let mut rng = StdRng::seed_from_u64(0xBE);
    let (clique_n, union_n, union_size, bip_side, bip_deg) = match scale {
        Scale::Quick => (300usize, 5_000usize, 50usize, 2_000usize, 10.0f64),
        // The union instance is the headline: 1e5 vertices, ~6M edges,
        // β ≤ 2 — the regime the paper targets.
        Scale::Full => (2_000, 100_000, 64, 50_000, 20.0),
    };
    vec![
        Family {
            name: "clique",
            graph: clique(clique_n),
            beta: 1,
            eps: 0.3,
        },
        Family {
            name: "clique-union",
            graph: clique_union(
                CliqueUnionConfig {
                    n: union_n,
                    diversity: 2,
                    clique_size: union_size,
                },
                &mut rng,
            ),
            beta: 2,
            eps: 0.3,
        },
        Family {
            name: "bipartite",
            graph: bipartite_gnp(bip_side, bip_side, bip_deg / bip_side as f64, &mut rng),
            beta: 4,
            eps: 0.3,
        },
    ]
}

/// Fixed repeat-solve shapes for the steady-state comparison: the sizes
/// long-lived repeat callers (dynamic rebuilds, check sweeps) operate
/// on, identical at both scales so the committed gate and a quick CI run
/// measure the same thing.
fn steady_families() -> Vec<Family> {
    let mut rng = StdRng::seed_from_u64(0xBE);
    vec![
        Family {
            name: "clique",
            graph: clique(100),
            beta: 1,
            eps: 0.3,
        },
        Family {
            name: "clique-union",
            graph: clique_union(
                CliqueUnionConfig {
                    n: 2_000,
                    diversity: 2,
                    clique_size: 40,
                },
                &mut rng,
            ),
            beta: 2,
            eps: 0.3,
        },
        Family {
            name: "bipartite",
            graph: bipartite_gnp(1_000, 1_000, 8.0 / 1_000.0, &mut rng),
            beta: 4,
            eps: 0.3,
        },
    ]
}

/// A `huge`-tier instance: generated, spilled to an edge-list file,
/// dropped from memory, then solved entirely through the out-of-core
/// streaming build ([`approx_mcm_streamed`]). The tier's claim is
/// Theorem 3.1's space story — `peak_resident_bytes < graph_bytes`, with
/// a probe budget sublinear in `m` — so it reports bytes and probe
/// counts, not thread scaling (this is also why the tier is benched at
/// the stream build's single natural thread).
struct HugeSpec {
    name: &'static str,
    params: SparsifierParams,
    generate: Box<dyn FnOnce(&mut StdRng) -> CsrGraph>,
}

/// The `huge` streamed families. Sizes put every sampled vertex class
/// well above the stage mark cap, so the sparsifier genuinely shrinks
/// and the committed `peak_resident_bytes < graph_bytes` gate has teeth:
/// at `--full` every family exceeds 20M edges, at `--quick` each is the
/// ~2M-edge `huge-smoke` shape CI runs per PR.
fn huge_families(scale: Scale) -> Vec<HugeSpec> {
    let (cu_n, cu_size, bip_side, bip_deg, pl_n, pl_attach) = match scale {
        Scale::Quick => (
            10_000usize,
            200usize,
            2_600usize,
            800.0f64,
            52_000usize,
            40usize,
        ),
        Scale::Full => (62_000, 360, 26_000, 800.0, 560_000, 40),
    };
    vec![
        HugeSpec {
            name: "clique-union",
            params: SparsifierParams::practical(2, 0.3),
            generate: Box::new(move |rng| {
                clique_union(
                    CliqueUnionConfig {
                        n: cu_n,
                        diversity: 2,
                        clique_size: cu_size,
                    },
                    rng,
                )
            }),
        },
        HugeSpec {
            name: "bipartite",
            params: SparsifierParams::practical(4, 0.3),
            generate: Box::new(move |rng| {
                bipartite_gnp(bip_side, bip_side, bip_deg / bip_side as f64, rng)
            }),
        },
        HugeSpec {
            // Preferential-attachment degrees hug the 2·attach mean, so
            // an explicit Δ pin keeps the stage mark cap below the bulk
            // degree (practical Δ for β = 2 would keep the whole graph).
            name: "power-law",
            params: SparsifierParams::with_delta(2, 0.3, 4),
            generate: Box::new(move |rng| power_law(pl_n, pl_attach, rng)),
        },
    ]
}

struct HugeRun {
    name: &'static str,
    vertices: usize,
    edges: usize,
    params: SparsifierParams,
    report: StreamBuildReport,
    matching_size: usize,
    sparsifier_edges: usize,
    solve_nanos: u64,
    /// One no-op scan of the spill file: the read-and-parse cost that
    /// every pass of both streamed builds pays.
    scan_nanos: u64,
}

fn bench_huge(
    spec: HugeSpec,
    dir: &std::path::Path,
    seed_index: u64,
    violations: &mut Violations,
) -> (HugeRun, [StreamedRow; 2]) {
    let name = spec.name;
    let mut rng = StdRng::seed_from_u64(0xB16 ^ seed_index);
    let g = (spec.generate)(&mut rng);
    let (vertices, edges) = (g.num_vertices(), g.num_edges());
    let path = dir.join(format!("{name}.el"));
    write_edge_list_file(&g, &path).expect("spill huge instance to disk");
    // From here on the parent graph exists only as a file: the build's
    // resident set is what the report accounts for.
    drop(g);
    let mut src = FileEdgeSource::open(&path).expect("huge edge list re-opens");
    let t0 = Instant::now();
    let (result, report) =
        approx_mcm_streamed(&mut src, &spec.params, 7).expect("streamed pipeline runs");
    let solve_nanos = t0.elapsed().as_nanos() as u64;

    // The EDCS arm of the streamed backend race reuses the spilled file:
    // its fixpoint re-scans until convergence, so `edges_scanned` is
    // `passes × 2m` rather than the delta build's fixed `4m`.
    let edcs_backend = EdcsBackend {
        params: EdcsParams::new(EDCS_BETA, EDCS_LAMBDA).expect("bench EDCS point is valid"),
        eps: spec.params.eps,
    };
    let mut src = FileEdgeSource::open(&path).expect("huge edge list re-opens for the EDCS arm");
    let t0 = Instant::now();
    let (edcs_result, edcs_report) = edcs_backend
        .solve_streamed(&mut src, 7)
        .expect("streamed EDCS runs");
    let edcs_nanos = t0.elapsed().as_nanos() as u64;
    let t0 = Instant::now();
    src.scan(&mut |_, _| {}).expect("huge edge list scans");
    let scan_nanos = t0.elapsed().as_nanos() as u64;
    std::fs::remove_file(&path).ok();

    violations.check(
        edcs_report.peak_resident_bytes < edcs_report.graph_bytes,
        || {
            format!(
                "{name}: streamed EDCS peak {} B >= materialized parent {} B",
                edcs_report.peak_resident_bytes, edcs_report.graph_bytes
            )
        },
    );
    violations.check(
        edcs_result.sparsifier.edges <= edcs_backend.claimed_size_bound(vertices),
        || {
            format!(
                "{name}: streamed EDCS kept {} edges, over its claimed bound {}",
                edcs_result.sparsifier.edges,
                edcs_backend.claimed_size_bound(vertices)
            )
        },
    );
    let delta_backend = DeltaBackend {
        params: spec.params,
    };
    let streamed = [
        StreamedRow {
            backend: delta_backend.name(),
            params: delta_backend.params_summary(),
            solve_nanos,
            peak_resident_bytes: report.peak_resident_bytes,
            graph_bytes: report.graph_bytes,
            sparsifier_edges: result.sparsifier.edges,
            matching_size: result.matching.len(),
            edges_scanned: report.edges_scanned,
            passes: report.edges_scanned / (2 * edges as u64),
        },
        StreamedRow {
            backend: edcs_backend.name(),
            params: edcs_backend.params_summary(),
            solve_nanos: edcs_nanos,
            peak_resident_bytes: edcs_report.peak_resident_bytes,
            graph_bytes: edcs_report.graph_bytes,
            sparsifier_edges: edcs_result.sparsifier.edges,
            matching_size: edcs_result.matching.len(),
            edges_scanned: edcs_report.edges_scanned,
            passes: edcs_report.edges_scanned / (2 * edges as u64),
        },
    ];

    violations.check(report.peak_resident_bytes < report.graph_bytes, || {
        format!(
            "{name}: streamed build peak {} B >= materialized parent {} B",
            report.peak_resident_bytes, report.graph_bytes
        )
    });
    violations.check(result.sparsifier.edges < edges, || {
        format!(
            "{name}: sparsifier kept all {} edges — no shrink at this scale",
            edges
        )
    });
    violations.check(report.probes.total() < edges as u64, || {
        format!(
            "{name}: probe budget {} >= m = {} (sublinearity lost)",
            report.probes.total(),
            edges
        )
    });
    let huge = HugeRun {
        name,
        vertices,
        edges,
        params: spec.params,
        report,
        matching_size: result.matching.len(),
        sparsifier_edges: result.sparsifier.edges,
        solve_nanos,
        scan_nanos,
    };
    (huge, streamed)
}

struct Run {
    threads: usize,
    total_nanos: u64,
    mark_nanos: u64,
    extract_nanos: u64,
    match_nanos: u64,
    matching_size: usize,
    sparsifier_edges: usize,
    alloc_bytes: u64,
    alloc_count: u64,
}

/// Steady-state repeat-solve comparison for one family at one thread:
/// cold constructs a fresh arena per solve, warm reuses one arena.
struct Steady {
    family: &'static str,
    vertices: usize,
    edges: usize,
    reps: usize,
    cold_nanos_per_solve: u64,
    warm_nanos_per_solve: u64,
    warm_speedup: f64,
    cold_alloc_bytes: u64,
    warm_alloc_bytes: u64,
}

/// Fastest repetition of a `(family, threads)` cell:
/// `(total_nanos, meter, matching_size, sparsifier_edges, (alloc_bytes, alloc_count))`.
type BestRep = (u64, WorkMeter, usize, usize, (u64, u64));

fn bench_family(f: &Family, reps: usize, violations: &mut Violations) -> Vec<Run> {
    let params = SparsifierParams::practical(f.beta, f.eps);
    let mut runs = Vec::new();
    let mut reference: Option<Vec<(u32, u32)>> = None;
    for &threads in &THREADS {
        // One arena per (family, threads) cell: the first repetition
        // warms it and the rest measure the steady state, exactly how
        // long-lived callers (DynamicMatcher, the check sweep) run.
        let mut scratch = PipelineScratch::new();
        let mut best: Option<BestRep> = None;
        for _ in 0..reps {
            let mut meter = WorkMeter::new();
            let alloc_before = alloc_totals();
            let r = approx_mcm_via_sparsifier_with_scratch_metered(
                &f.graph,
                &params,
                7,
                threads,
                &mut meter,
                &mut scratch,
            )
            .expect("thread counts 1..=8 are always accepted");
            let alloc_after = alloc_totals();
            let total = meter.span_stats(keys::PIPELINE_TOTAL).total_nanos as u64;
            let pairs: Vec<(u32, u32)> = r.matching.pairs().map(|(u, v)| (u.0, v.0)).collect();
            let stats = (r.matching.len(), r.sparsifier.edges);
            match &reference {
                None => reference = Some(pairs),
                Some(expect) => violations.check(*expect == pairs, || {
                    format!(
                        "{}: matching differs at {} threads (thread-count invariance broken)",
                        f.name, threads
                    )
                }),
            }
            if best.as_ref().is_none_or(|(t, ..)| total < *t) {
                let delta = (
                    alloc_after.0 - alloc_before.0,
                    alloc_after.1 - alloc_before.1,
                );
                best = Some((total, meter, stats.0, stats.1, delta));
            }
        }
        let (total, meter, matching_size, sparsifier_edges, (alloc_bytes, alloc_count)) =
            best.unwrap();
        let span = |key: &str| meter.span_stats(key).total_nanos as u64;
        runs.push(Run {
            threads,
            total_nanos: total,
            mark_nanos: span(keys::STAGE_MARK),
            extract_nanos: span(keys::STAGE_EXTRACT),
            match_nanos: span(keys::STAGE_MATCH),
            matching_size,
            sparsifier_edges,
            alloc_bytes,
            alloc_count,
        });
    }
    runs
}

/// One backend's row in the in-memory race: best-of-reps through the
/// [`MatchingSparsifier`] trait at one thread, with the backend's own
/// claims recorded next to what it measured so the conformance gate is
/// checkable from the JSON alone.
struct BackendRun {
    backend: &'static str,
    params: String,
    claimed_ratio: f64,
    claimed_size_bound: usize,
    total_nanos: u64,
    mark_nanos: u64,
    extract_nanos: u64,
    match_nanos: u64,
    matching_size: usize,
    sparsifier_edges: usize,
    probes_total: u64,
    /// EDCS only: the fixpoint's passes and the edges it evaluated,
    /// which the skip keeps at or below `passes × m`.
    fixpoint: Option<(u64, u64)>,
}

/// Race both backends on one family (1 thread, best of `reps`, one warm
/// arena per backend). Conformance before speed: every rep's matching
/// must be valid on the parent, every sparsifier must sit under the
/// backend's own claimed size bound, and the two matchings must agree
/// within the product each backend's claimed ratio allows — a certified
/// backend pair cannot disagree more, so a larger gap means one of the
/// claims is wrong.
fn bench_backends(f: &Family, reps: usize, violations: &mut Violations) -> Vec<BackendRun> {
    let delta = DeltaBackend {
        params: SparsifierParams::practical(f.beta, f.eps),
    };
    let edcs = EdcsBackend {
        params: EdcsParams::new(EDCS_BETA, EDCS_LAMBDA).expect("bench EDCS point is valid"),
        eps: f.eps,
    };
    let backends: [&dyn MatchingSparsifier; 2] = [&delta, &edcs];
    let n = f.graph.num_vertices();
    let mut rows = Vec::new();
    for b in backends {
        let mut scratch = PipelineScratch::new();
        let mut best: Option<BestRep> = None;
        for _ in 0..reps {
            let mut meter = WorkMeter::new();
            let r = b
                .solve_metered(&f.graph, 7, 1, &mut meter, &mut scratch)
                .expect("one thread is always accepted");
            violations.check(r.matching.is_valid_for(&f.graph), || {
                format!("{}/{}: invalid matching on the parent", f.name, b.name())
            });
            violations.check(r.sparsifier.edges <= b.claimed_size_bound(n), || {
                format!(
                    "{}/{}: sparsifier {} edges exceeds its claimed bound {}",
                    f.name,
                    b.name(),
                    r.sparsifier.edges,
                    b.claimed_size_bound(n)
                )
            });
            let total = meter.span_stats(keys::PIPELINE_TOTAL).total_nanos as u64;
            let stats = (r.matching.len(), r.sparsifier.edges);
            let probes = r.probes.total();
            if best.as_ref().is_none_or(|(t, ..)| total < *t) {
                best = Some((total, meter, stats.0, stats.1, (probes, 0)));
            }
        }
        let (total, meter, matching_size, sparsifier_edges, (probes_total, _)) = best.unwrap();
        let span = |key: &str| meter.span_stats(key).total_nanos as u64;
        rows.push(BackendRun {
            backend: b.name(),
            params: b.params_summary(),
            claimed_ratio: b.claimed_ratio(),
            claimed_size_bound: b.claimed_size_bound(n),
            total_nanos: total,
            mark_nanos: span(keys::STAGE_MARK),
            extract_nanos: span(keys::STAGE_EXTRACT),
            match_nanos: span(keys::STAGE_MATCH),
            matching_size,
            sparsifier_edges,
            probes_total,
            fixpoint: (b.name() == edcs.name()).then(|| {
                (
                    meter.get(keys::EDCS_PASSES),
                    meter.get(keys::EDCS_EDGE_EVALUATIONS),
                )
            }),
        });
    }
    // Cross-backend conformance: each matching lower-bounds the optimum
    // the *other* backend's ratio claim upper-bounds.
    let [d, e] = &rows[..] else { unreachable!() };
    violations.check(
        d.matching_size as f64 <= e.claimed_ratio * e.matching_size as f64 + BACKEND_ABS_SLACK,
        || {
            format!(
                "{}: edcs matching {} too small vs delta {} for its claimed ratio {:.3}",
                f.name, e.matching_size, d.matching_size, e.claimed_ratio
            )
        },
    );
    violations.check(
        e.matching_size as f64 <= d.claimed_ratio * d.matching_size as f64 + BACKEND_ABS_SLACK,
        || {
            format!(
                "{}: delta matching {} too small vs edcs {} for its claimed ratio {:.3}",
                f.name, d.matching_size, e.matching_size, d.claimed_ratio
            )
        },
    );
    rows
}

/// One backend's row in the streamed (out-of-core) race, built from the
/// same spilled edge file as the `huge` tier: the delta row re-reports
/// the huge run itself, so the EDCS arm is the only extra solve paid.
struct StreamedRow {
    backend: &'static str,
    params: String,
    solve_nanos: u64,
    peak_resident_bytes: usize,
    graph_bytes: usize,
    sparsifier_edges: usize,
    matching_size: usize,
    edges_scanned: u64,
    passes: u64,
}

fn bench_steady(f: &Family, reps: usize, violations: &mut Violations) -> Steady {
    let params = SparsifierParams::practical(f.beta, f.eps);
    let seed = 7;

    // Cold: every solve pays for a fresh arena (allocation, first-touch
    // page faults, teardown), with the heap trimmed back to the OS first
    // so the allocator cannot quietly recycle the previous rep's pages.
    // Best-of-reps on both sides so the ratio compares minima, not noise.
    let mut cold_best = u64::MAX;
    let mut cold_alloc = 0u64;
    let mut cold_size = 0usize;
    for _ in 0..reps {
        trim_heap();
        let a0 = alloc_totals();
        let t0 = Instant::now();
        let r = approx_mcm_via_sparsifier(&f.graph, &params, seed, 1)
            .expect("one thread is always accepted");
        let nanos = t0.elapsed().as_nanos() as u64;
        let a1 = alloc_totals();
        if nanos < cold_best {
            cold_best = nanos;
            cold_alloc = a1.0 - a0.0;
        }
        cold_size = r.matching.len();
    }

    // Warm: one arena, warmed by a single untimed solve.
    let mut scratch = PipelineScratch::new();
    approx_mcm_via_sparsifier_with_scratch(&f.graph, &params, seed, 1, &mut scratch)
        .expect("one thread is always accepted");
    let mut warm_best = u64::MAX;
    let mut warm_alloc = 0u64;
    for _ in 0..reps {
        let a0 = alloc_totals();
        let t0 = Instant::now();
        let r = approx_mcm_via_sparsifier_with_scratch(&f.graph, &params, seed, 1, &mut scratch)
            .expect("one thread is always accepted");
        let nanos = t0.elapsed().as_nanos() as u64;
        let a1 = alloc_totals();
        if nanos < warm_best {
            warm_best = nanos;
            warm_alloc = a1.0 - a0.0;
        }
        violations.check(r.matching.len() == cold_size, || {
            format!("{}: warm steady-state solve diverged from cold", f.name)
        });
    }

    Steady {
        family: f.name,
        vertices: f.graph.num_vertices(),
        edges: f.graph.num_edges(),
        reps,
        cold_nanos_per_solve: cold_best,
        warm_nanos_per_solve: warm_best,
        warm_speedup: cold_best as f64 / warm_best.max(1) as f64,
        cold_alloc_bytes: cold_alloc,
        warm_alloc_bytes: warm_alloc,
    }
}

fn family_json(f: &Family, runs: &[Run]) -> Json {
    let t1 = runs
        .iter()
        .find(|r| r.threads == 1)
        .expect("thread count 1 is always benched")
        .total_nanos;
    let mut doc = Json::object();
    doc.set("family", f.name);
    doc.set("vertices", f.graph.num_vertices());
    doc.set("edges", f.graph.num_edges());
    doc.set("beta", f.beta);
    doc.set("eps", f.eps);
    let runs_json: Vec<Json> = runs
        .iter()
        .map(|r| {
            let mut stage = Json::object();
            stage.set("mark", r.mark_nanos);
            stage.set("extract", r.extract_nanos);
            stage.set("match", r.match_nanos);
            let mut run = Json::object();
            run.set("threads", r.threads);
            run.set("total_nanos", r.total_nanos);
            run.set("stage_nanos", stage);
            run.set("matching_size", r.matching_size);
            run.set("sparsifier_edges", r.sparsifier_edges);
            run.set("alloc_bytes", r.alloc_bytes);
            run.set("alloc_count", r.alloc_count);
            run.set("speedup_vs_t1", t1 as f64 / r.total_nanos.max(1) as f64);
            run
        })
        .collect();
    doc.set("runs", Json::Array(runs_json));
    doc
}

fn huge_json(h: &HugeRun) -> Json {
    let mut probes = Json::object();
    probes.set("degree", h.report.probes.degree_probes);
    probes.set("neighbor", h.report.probes.neighbor_probes);
    probes.set("total", h.report.probes.total());
    let mut doc = Json::object();
    doc.set("family", h.name);
    doc.set("vertices", h.vertices);
    doc.set("edges", h.edges);
    doc.set("beta", h.params.beta);
    doc.set("eps", h.params.eps);
    doc.set("delta", h.params.delta);
    doc.set("peak_resident_bytes", h.report.peak_resident_bytes);
    doc.set("graph_bytes", h.report.graph_bytes);
    doc.set("sparsifier_bytes", h.report.sparsifier_bytes);
    doc.set("probes", probes);
    doc.set("edges_scanned", h.report.edges_scanned);
    doc.set("matching_size", h.matching_size);
    doc.set("sparsifier_edges", h.sparsifier_edges);
    doc.set("solve_nanos", h.solve_nanos);
    doc.set("scan_nanos", h.scan_nanos);
    doc.set(
        "resident_shrink",
        h.report.graph_bytes as f64 / h.report.peak_resident_bytes.max(1) as f64,
    );
    doc
}

fn backends_family_json(f: &Family, rows: &[BackendRun]) -> Json {
    let mut doc = Json::object();
    doc.set("family", f.name);
    doc.set("vertices", f.graph.num_vertices());
    doc.set("edges", f.graph.num_edges());
    let runs: Vec<Json> = rows
        .iter()
        .map(|r| {
            let mut stage = Json::object();
            stage.set("mark", r.mark_nanos);
            stage.set("extract", r.extract_nanos);
            stage.set("match", r.match_nanos);
            let mut run = Json::object();
            run.set("backend", r.backend);
            run.set("params", r.params.as_str());
            run.set("claimed_ratio", r.claimed_ratio);
            run.set("claimed_size_bound", r.claimed_size_bound);
            run.set("total_nanos", r.total_nanos);
            run.set("stage_nanos", stage);
            run.set("matching_size", r.matching_size);
            run.set("sparsifier_edges", r.sparsifier_edges);
            run.set("probes_total", r.probes_total);
            if let Some((passes, evaluations)) = r.fixpoint {
                run.set("passes", passes);
                run.set("edge_evaluations", evaluations);
            }
            run
        })
        .collect();
    doc.set("runs", Json::Array(runs));
    // delta-time / edcs-time: > 1 means the EDCS build-and-match was
    // faster end to end on this family.
    doc.set(
        "edcs_speedup_vs_delta",
        rows[0].total_nanos as f64 / rows[1].total_nanos.max(1) as f64,
    );
    doc
}

fn streamed_family_json(name: &str, vertices: usize, edges: usize, rows: &[StreamedRow]) -> Json {
    let mut doc = Json::object();
    doc.set("family", name);
    doc.set("vertices", vertices);
    doc.set("edges", edges);
    let runs: Vec<Json> = rows
        .iter()
        .map(|r| {
            let mut run = Json::object();
            run.set("backend", r.backend);
            run.set("params", r.params.as_str());
            run.set("solve_nanos", r.solve_nanos);
            run.set("peak_resident_bytes", r.peak_resident_bytes);
            run.set("graph_bytes", r.graph_bytes);
            run.set("sparsifier_edges", r.sparsifier_edges);
            run.set("matching_size", r.matching_size);
            run.set("edges_scanned", r.edges_scanned);
            run.set("passes", r.passes);
            run
        })
        .collect();
    doc.set("runs", Json::Array(runs));
    doc
}

fn steady_json(s: &Steady) -> Json {
    let mut doc = Json::object();
    doc.set("family", s.family);
    doc.set("vertices", s.vertices);
    doc.set("edges", s.edges);
    doc.set("threads", 1usize);
    doc.set("reps", s.reps);
    doc.set("cold_nanos_per_solve", s.cold_nanos_per_solve);
    doc.set("warm_nanos_per_solve", s.warm_nanos_per_solve);
    doc.set("warm_speedup", s.warm_speedup);
    doc.set("cold_alloc_bytes", s.cold_alloc_bytes);
    doc.set("warm_alloc_bytes", s.warm_alloc_bytes);
    doc
}

fn main() {
    let scale = scale_from_args();
    let (reps, steady_reps) = match scale {
        Scale::Quick => (1, 5),
        Scale::Full => (3, 11),
    };
    let host_parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut violations = Violations::new();
    let mut family_docs = Vec::new();
    let mut steady_docs = Vec::new();
    let mut backend_docs = Vec::new();
    let mut streamed_docs = Vec::new();

    println!("pipeline throughput baseline ({})", scale.name());
    println!("host parallelism: {host_parallelism} hardware threads\n");
    for f in families(scale) {
        println!(
            "{:>14}: n = {}, m = {}, beta = {}",
            f.name,
            f.graph.num_vertices(),
            f.graph.num_edges(),
            f.beta
        );
        let runs = bench_family(&f, reps, &mut violations);
        let t1 = runs[0].total_nanos;
        for r in &runs {
            println!(
                "      threads {}: {:>10.3} ms  (mark {:.3} / extract {:.3} / match {:.3})  x{:.2}",
                r.threads,
                r.total_nanos as f64 / 1e6,
                r.mark_nanos as f64 / 1e6,
                r.extract_nanos as f64 / 1e6,
                r.match_nanos as f64 / 1e6,
                t1 as f64 / r.total_nanos.max(1) as f64
            );
        }
        family_docs.push(family_json(&f, &runs));

        // The backend race on the same instance: conformance-checked,
        // then timed head to head at one thread.
        let rows = bench_backends(&f, reps, &mut violations);
        println!(
            "      backends: delta {:>10.3} ms / edcs {:>10.3} ms  \
             (edges kept {} vs {}, matching {} vs {})",
            rows[0].total_nanos as f64 / 1e6,
            rows[1].total_nanos as f64 / 1e6,
            rows[0].sparsifier_edges,
            rows[1].sparsifier_edges,
            rows[0].matching_size,
            rows[1].matching_size,
        );
        backend_docs.push(backends_family_json(&f, &rows));
    }

    println!("\nsteady-state repeat-solve comparison (1 thread, fixed shapes):");
    for f in steady_families() {
        let steady = bench_steady(&f, steady_reps, &mut violations);
        println!(
            "{:>14}: cold {:>8.3} ms / warm {:>8.3} ms per solve  x{:.2}",
            f.name,
            steady.cold_nanos_per_solve as f64 / 1e6,
            steady.warm_nanos_per_solve as f64 / 1e6,
            steady.warm_speedup
        );
        steady_docs.push(steady_json(&steady));
    }

    println!("\nhuge tier (out-of-core streamed build, bytes resident vs materialized):");
    let tmp = std::env::temp_dir().join(format!("sparsimatch-huge-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create huge-tier spill dir");
    let mut huge_docs = Vec::new();
    for (i, spec) in huge_families(scale).into_iter().enumerate() {
        let (h, streamed) = bench_huge(spec, &tmp, i as u64, &mut violations);
        println!(
            "{:>14}: n = {}, m = {}  peak {:>7.1} MiB < graph {:>7.1} MiB  \
             (sparsifier {:.1} MiB, {} probes, {:>8.3} s)",
            h.name,
            h.vertices,
            h.edges,
            h.report.peak_resident_bytes as f64 / (1 << 20) as f64,
            h.report.graph_bytes as f64 / (1 << 20) as f64,
            h.report.sparsifier_bytes as f64 / (1 << 20) as f64,
            h.report.probes.total(),
            h.solve_nanos as f64 / 1e9
        );
        println!(
            "                streamed race: delta {:>8.3} s ({} passes) / edcs {:>8.3} s ({} passes); \
             one scan {:.1} ns/edge",
            streamed[0].solve_nanos as f64 / 1e9,
            streamed[0].passes,
            streamed[1].solve_nanos as f64 / 1e9,
            streamed[1].passes,
            h.scan_nanos as f64 / h.edges as f64,
        );
        huge_docs.push(huge_json(&h));
        streamed_docs.push(streamed_family_json(h.name, h.vertices, h.edges, &streamed));
    }
    std::fs::remove_dir_all(&tmp).ok();

    let mut doc = Json::object();
    doc.set("benchmark", "bench_pipeline");
    doc.set("scale", scale.name());
    doc.set("host_parallelism", host_parallelism);
    doc.set("alloc_counting", cfg!(feature = "alloc-count"));
    doc.set(
        "threads",
        Json::Array(THREADS.iter().map(|&t| Json::from(t)).collect()),
    );
    doc.set("families", Json::Array(family_docs));
    doc.set("steady_state", Json::Array(steady_docs));
    doc.set("huge", Json::Array(huge_docs));
    let mut edcs_point = Json::object();
    edcs_point.set("beta", EDCS_BETA);
    edcs_point.set("lambda", EDCS_LAMBDA);
    let mut backends = Json::object();
    backends.set("threads", 1usize);
    backends.set("edcs", edcs_point);
    backends.set("families", Json::Array(backend_docs));
    backends.set("streamed", Json::Array(streamed_docs));
    doc.set("backends", backends);

    let out = std::env::var_os("SPARSIMATCH_BENCH_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("BENCH_pipeline.json"));
    if let Err(e) = std::fs::write(&out, doc.to_pretty()) {
        eprintln!("FAILED to write {}: {e}", out.display());
        std::process::exit(1);
    }
    println!("\nbaseline written to {}", out.display());
    violations.finish("bench_baseline");
}
