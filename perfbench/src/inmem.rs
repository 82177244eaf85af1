//! `inmem`: warm-scratch solves on a resident clique-union graph (β = 2)
//! at two threads, alternating the delta and EDCS backends.
//!
//! Vertex degrees sit far above the delta mark cap 2Δ, so `G_Δ` keeps a
//! minority of the edges — the regime the paper is about. Mark, extract,
//! greedy and augmentation do almost all the work, and this is the only
//! workload on the parallel stage paths.

use crate::common::{self, Calibration, Config, Report, SameOutput};
use crate::trace::Recorder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparsimatch_core::backend::{DeltaBackend, EdcsBackend, MatchingSparsifier};
use sparsimatch_core::edcs::{
    approx_mcm_via_edcs_with_scratch, approx_mcm_via_edcs_with_scratch_metered, EdcsParams,
};
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_core::pipeline::{
    approx_mcm_via_sparsifier_with_scratch, approx_mcm_via_sparsifier_with_scratch_metered,
    stage_params, PipelineResult,
};
use sparsimatch_core::scratch::PipelineScratch;
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::generators::{clique_union, CliqueUnionConfig};
use sparsimatch_obs::{keys, WorkMeter};
use std::time::{Duration, Instant};

/// Clique layers of the input, which bound its neighborhood independence.
pub const BETA: usize = 2;
pub const EPS: f64 = 0.5;
const EDCS_BETA: usize = 16;
const THREADS: usize = 2;
pub const DELTA: usize = 0;
pub const EDCS: usize = 1;
pub const KINDS: [&str; 2] = ["delta", "edcs"];
/// Root span of a traced solve per backend.
const OPS: [&str; 2] = ["op.delta", "op.edcs"];
/// Layer spans of a traced solve per backend, for the metered stages
/// mark (EDCS: the fixpoint), extract (the CSR layout) and match.
const STAGES: [[&str; 3]; 2] = [
    ["sparsifier.mark", "sparsifier.extract", "matching.delta"],
    ["edcs.fixpoint", "edcs.layout", "matching.edcs"],
];

/// A clique-union input: `n` vertices in [`BETA`] layers of cliques of
/// `clique` vertices. Both sizes are even, so the first layer alone is a
/// perfect matching and `|M*| = n / 2`.
#[derive(Clone, Copy)]
pub struct Shape {
    pub n: usize,
    pub clique: usize,
}

pub fn clique_union_graph(seed: u64, shape: Shape) -> CsrGraph {
    assert!(
        shape.n.is_multiple_of(2) && shape.clique.is_multiple_of(2),
        "|M*| = n / 2 needs even sizes"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = CliqueUnionConfig {
        n: shape.n,
        diversity: BETA,
        clique_size: shape.clique,
    };
    clique_union(cfg, &mut rng)
}

pub fn delta_backend() -> DeltaBackend {
    DeltaBackend {
        params: SparsifierParams::practical(BETA, EPS),
    }
}

pub fn edcs_backend() -> EdcsBackend {
    let params = EdcsParams::new(EDCS_BETA, EdcsParams::default_lambda(EDCS_BETA))
        .expect("valid EDCS parameters");
    EdcsBackend { params, eps: EPS }
}

/// Fingerprint of a solve: the matching, the sparsifier size, the probes
/// and the augmentation work.
pub fn result_fingerprint(r: &PipelineResult) -> u64 {
    common::fnv(common::matching_words(&r.matching).chain([
        r.sparsifier.edges as u64,
        r.probes.total(),
        r.aug.augmentations as u64,
        r.aug.edge_visits,
    ]))
}

/// A clique-union solve must be a valid matching of `g` whose size meets
/// `|M*| = n / 2` divided by the backend's claimed ratio.
pub fn check_solution(g: &CsrGraph, ratio: f64, r: &PipelineResult) -> Result<(), String> {
    if !r.matching.is_valid_for(g) {
        return Err("the matching is not valid for its input graph".into());
    }
    let optimum = g.num_vertices() / 2;
    if (r.matching.len() as f64) * ratio < optimum as f64 {
        return Err(format!(
            "|M| = {} misses |M*| / ratio = {optimum} / {ratio:.4}",
            r.matching.len()
        ));
    }
    Ok(())
}

struct Resident {
    g: CsrGraph,
    scratch: PipelineScratch,
    delta: DeltaBackend,
    edcs: EdcsBackend,
    seed: u64,
    same: [SameOutput; 2],
}

impl Resident {
    /// One warm solve of `kind`, timed around the library call alone, then
    /// checked. With a meter, the metered entry point runs instead.
    fn solve(
        &mut self,
        kind: usize,
        meter: Option<&mut WorkMeter>,
    ) -> (Instant, Instant, Result<(), String>) {
        let Resident {
            g,
            scratch,
            delta,
            edcs,
            seed,
            same,
        } = self;
        let start = Instant::now();
        let r = match (kind, meter) {
            (DELTA, None) => {
                approx_mcm_via_sparsifier_with_scratch(g, &delta.params, *seed, THREADS, scratch)
            }
            (DELTA, Some(m)) => approx_mcm_via_sparsifier_with_scratch_metered(
                g,
                &delta.params,
                *seed,
                THREADS,
                m,
                scratch,
            ),
            (_, None) => approx_mcm_via_edcs_with_scratch(g, &edcs.params, EPS, THREADS, scratch),
            (_, Some(m)) => {
                approx_mcm_via_edcs_with_scratch_metered(g, &edcs.params, EPS, THREADS, m, scratch)
            }
        }
        .expect("two threads is a valid count");
        let end = Instant::now();
        let ratio = if kind == DELTA {
            delta.claimed_ratio()
        } else {
            edcs.claimed_ratio()
        };
        let verdict =
            check_solution(g, ratio, r).and_then(|()| same[kind].verdict(result_fingerprint(r)));
        (start, end, verdict)
    }
}

fn setup(cfg: &Config, shape: Shape, report: &mut Report) -> Resident {
    let mut res = Resident {
        g: clique_union_graph(cfg.seed, shape),
        scratch: PipelineScratch::new(),
        delta: delta_backend(),
        edcs: edcs_backend(),
        seed: cfg.seed,
        same: [SameOutput::new(cfg.corrupt), SameOutput::new(cfg.corrupt)],
    };
    // One discarded warm-up per kind; it also records the kind's
    // reference fingerprint.
    for kind in [DELTA, EDCS] {
        let (_, _, verdict) = res.solve(kind, None);
        report.verdict(KINDS[kind], verdict);
    }
    res
}

pub fn run(cfg: &Config, report: &mut Report, cal: &mut Calibration) {
    let shape = if cfg.quick {
        Shape { n: 200, clique: 50 }
    } else {
        Shape {
            n: 5000,
            clique: 1000,
        }
    };
    let (mut res, setup_times) = common::repeat_setup(cal, || setup(cfg, shape, report));
    report.set_setup(setup_times);
    report.note(format!(
        "inmem: clique-union n={} m={} (beta {BETA}), delta mark cap 2Δ = {}, EDCS beta {EDCS_BETA}, {THREADS} threads",
        shape.n,
        res.g.num_edges(),
        stage_params(&res.delta.params).mark_cap()
    ));
    if cfg.trace {
        trace(cfg, &mut res, report, cal);
        return;
    }
    let pid = std::process::id();
    report.start_rss_window(pid);
    let timed = common::interleave(2, cfg.seconds, cal, |kind| {
        let (start, end, verdict) = res.solve(kind, None);
        report.verdict(KINDS[kind], verdict);
        common::ms_between(start, end)
    });
    report.end_rss_window(pid, cal.resident_mib());
    report.set_kind_metrics(&timed);
}

/// The traced run: untraced solves (kinds 0, 1) interleaved with metered
/// ones (kinds 2, 3). A metered solve's layer spans are the stage spans
/// its entry point returns, laid end to end from the op's start.
fn trace(cfg: &Config, res: &mut Resident, report: &mut Report, cal: &mut Calibration) {
    let mut rec = Recorder::default();
    let mut meters = [WorkMeter::new(), WorkMeter::new()];
    let mut op = 0u64;
    let samples = common::interleave(4, cfg.seconds, cal, |k| {
        let kind = k % 2;
        if k < 2 {
            let (start, end, verdict) = res.solve(kind, None);
            report.verdict(KINDS[kind], verdict);
            return common::ms_between(start, end);
        }
        let mut meter = WorkMeter::new();
        let (start, end, verdict) = res.solve(kind, Some(&mut meter));
        report.verdict(KINDS[kind], verdict);
        op += 1;
        let root = rec.add(OPS[kind], start, end, None, op);
        let mut at = start;
        let stages = [keys::STAGE_MARK, keys::STAGE_EXTRACT, keys::STAGE_MATCH];
        for (stage, name) in stages.into_iter().zip(STAGES[kind]) {
            let nanos = u64::try_from(meter.span_stats(stage).total_nanos).unwrap_or(u64::MAX);
            let stage_end = at + Duration::from_nanos(nanos);
            rec.add(name, at, stage_end, Some(root), op);
            at = stage_end;
        }
        meters[kind] = meter;
        common::ms_between(start, end)
    })
    .raw;
    let m = res.g.num_edges() as f64;
    let (d, e) = (&meters[DELTA], &meters[EDCS]);
    let traced = samples[2].len();
    report.set(
        "sparsifier.mark_ms",
        rec.median_ms(&[STAGES[DELTA][0]]),
        traced,
    );
    report.set(
        "sparsifier.extract_ms",
        rec.median_ms(&[STAGES[DELTA][1]]),
        traced,
    );
    report.set(
        "sparsifier.neighbor_probes",
        d.get(keys::NEIGHBOR_PROBES) as f64,
        1,
    );
    report.set(
        "sparsifier.keep_ratio",
        d.get(keys::SPARSIFIER_EDGES) as f64 / m,
        1,
    );
    report.set("edcs.build_ms", rec.median_ms(&STAGES[EDCS][..2]), traced);
    report.set("edcs.probes", e.get(keys::NEIGHBOR_PROBES) as f64, 1);
    report.set(
        "edcs.keep_ratio",
        e.get(keys::SPARSIFIER_EDGES) as f64 / m,
        1,
    );
    set_matching_layer(
        report,
        [
            rec.median_ms(&[STAGES[DELTA][2]]),
            rec.median_ms(&[STAGES[EDCS][2]]),
        ],
        d.get(keys::EDGE_VISITS) + e.get(keys::EDGE_VISITS),
        d.get(keys::AUGMENTATIONS) + e.get(keys::AUGMENTATIONS),
        traced,
    );
    set_edges_per_s(report, m, &samples[..2]);
    rec.set_trace_metrics(report, &samples, 2);
    rec.save(cfg, report);
}

/// The matching layer: match-stage time per backend, and the augmentation
/// work of one solve of each backend with the time it costs per edge visit.
pub fn set_matching_layer(
    report: &mut Report,
    match_ms: [f64; 2],
    edge_visits: u64,
    augmentations: u64,
    ops: usize,
) {
    report.set("matching.match_ms.delta", match_ms[0], ops);
    report.set("matching.match_ms.edcs", match_ms[1], ops);
    report.set("matching.edge_visits", edge_visits as f64, 1);
    report.set("matching.augmentations", augmentations as f64, 1);
    let ns = (match_ms[0] + match_ms[1]) * 1e6 / edge_visits.max(1) as f64;
    report.set("matching.ns_per_edge_visit", ns, ops);
}

/// Input edges solved per second over the untraced solves of a traced run.
pub fn set_edges_per_s(report: &mut Report, m: f64, untraced_ms: &[Vec<f64>]) {
    let ops: usize = untraced_ms.iter().map(Vec::len).sum();
    let secs = untraced_ms.iter().flatten().sum::<f64>() / 1e3;
    report.set("pipeline.edges_per_s", m * ops as f64 / secs, ops);
}
