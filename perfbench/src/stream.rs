//! `stream`: the clique-union family written to an edge-list file during
//! setup, then solved out of core at one thread, alternating the delta
//! build (two passes) and the EDCS build (a multi-pass fixpoint). The file
//! is written, flushed and read back once inside setup, then synced before
//! the timed phase, so every timed pass hits the page cache and no
//! writeback lands in a timed op: disk latency is deliberately not
//! measured.

use crate::common::{self, Calibration, Config, Report, SameOutput, TempFile};
use crate::inmem::{self, Shape, DELTA, EDCS, EPS, KINDS};
use crate::trace::Recorder;
use sparsimatch_core::backend::{DeltaBackend, EdcsBackend, MatchingSparsifier};
use sparsimatch_core::edcs::{approx_mcm_edcs_streamed, approx_mcm_via_edcs, build_edcs_streamed};
use sparsimatch_core::pipeline::{
    approx_mcm_on_sparsifier, approx_mcm_via_sparsifier, stage_eps, stage_params,
};
use sparsimatch_core::stream_build::{
    approx_mcm_streamed, build_sparsifier_streamed, StreamBuildReport,
};
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::edge_stream::{EdgeStreamSource, FileEdgeSource};
use sparsimatch_graph::io::{write_edge_list, ReadError};
use sparsimatch_matching::bounded_aug::AugStats;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const OPS: [&str; 2] = ["op.delta", "op.edcs"];
const BUILDS: [&str; 2] = ["stream_build.delta", "stream_build.edcs"];
const MATCHES: [&str; 2] = ["matching.delta", "matching.edcs"];
const NOOP_SCAN: &str = "probe.noop_scan";
const PASSES: [&str; 2] = ["stream_build.passes.delta", "stream_build.passes.edcs"];
const BUILD_MS: [&str; 2] = ["stream_build.build_ms.delta", "stream_build.build_ms.edcs"];
const VISIT_NS: [&str; 2] = [
    "stream_build.visit_ns_per_edge.delta",
    "stream_build.visit_ns_per_edge.edcs",
];
const PEAK_MIB: [&str; 2] = [
    "stream_build.peak_resident_mib.delta",
    "stream_build.peak_resident_mib.edcs",
];

struct Resident {
    src: FileEdgeSource,
    m: usize,
    bytes: u64,
    seed: u64,
    delta: DeltaBackend,
    edcs: EdcsBackend,
    same: [SameOutput; 2],
    file: TempFile,
}

/// A delegating source that times every scan.
struct TimedSource<'a> {
    inner: &'a mut FileEdgeSource,
    scans: Vec<(Instant, Instant)>,
}

impl EdgeStreamSource for TimedSource<'_> {
    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.inner.num_edges()
    }

    fn scan(&mut self, visit: &mut dyn FnMut(u32, u32)) -> Result<(), ReadError> {
        let start = Instant::now();
        let result = self.inner.scan(visit);
        self.scans.push((start, Instant::now()));
        result
    }
}

impl Resident {
    fn solve(&mut self, kind: usize) -> (f64, Result<(), String>) {
        let start = Instant::now();
        let out = match kind {
            DELTA => approx_mcm_streamed(&mut self.src, &self.delta.params, self.seed),
            _ => approx_mcm_edcs_streamed(&mut self.src, &self.edcs.params, EPS),
        };
        let ms = common::ms_between(start, Instant::now());
        // Validity and the ratio claim are checked once, on the in-memory
        // twin of this instance in setup; every streamed solve must then
        // reproduce the first one.
        let verdict = match out {
            Ok((r, _)) => self.same[kind].verdict(inmem::result_fingerprint(&r)),
            Err(e) => Err(format!("the stream read failed: {e}")),
        };
        (ms, verdict)
    }

    /// A traced solve composed from the public build and match functions,
    /// every scan timed through [`TimedSource`]. Its fingerprint must equal
    /// the untraced solve's.
    fn traced_solve(
        &mut self,
        kind: usize,
        op: u64,
        rec: &mut Recorder,
    ) -> (f64, Result<(StreamBuildReport, AugStats), String>) {
        let start = Instant::now();
        let mut src = TimedSource {
            inner: &mut self.src,
            scans: Vec::new(),
        };
        let built = match kind {
            DELTA => {
                build_sparsifier_streamed(&mut src, &stage_params(&self.delta.params), self.seed)
                    .map(|(s, report)| (s.graph, s.stats.edges, report))
            }
            _ => build_edcs_streamed(&mut src, &self.edcs.params)
                .map(|(h, stats, report)| (h, stats.edges, report)),
        };
        let built_at = Instant::now();
        let (h, edges, build_report) = match built {
            Ok(b) => b,
            Err(e) => {
                let ms = common::ms_between(start, built_at);
                return (ms, Err(format!("the stream read failed: {e}")));
            }
        };
        let eps = if kind == DELTA { stage_eps(EPS) } else { EPS };
        let (matching, aug) = approx_mcm_on_sparsifier(&h, eps);
        let end = Instant::now();
        let root = rec.add(OPS[kind], start, end, None, op);
        let build = rec.add(BUILDS[kind], start, built_at, Some(root), op);
        for (a, b) in src.scans {
            rec.add("edge_stream.scan", a, b, Some(build), op);
        }
        rec.add(MATCHES[kind], built_at, end, Some(root), op);
        let fp = common::fnv(common::matching_words(&matching).chain([
            edges as u64,
            build_report.probes.total(),
            aug.augmentations as u64,
            aug.edge_visits,
        ]));
        let verdict = if self.same[kind].reference() == Some(fp) {
            Ok((build_report, aug))
        } else {
            Err("the traced composition's fingerprint differs from the untraced solve".into())
        };
        (common::ms_between(start, end), verdict)
    }
}

/// Write the edge list and flush it. The kept setup's file is synced to
/// disk after `setup_s` is taken, so that neither setup's timing nor a timed
/// op pays for writeback.
fn write_flushed(g: &CsrGraph, path: &Path) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_edge_list(g, &mut w)?;
    w.flush()
}

fn setup(cfg: &Config, shape: Shape, report: &mut Report) -> Result<Resident, String> {
    let g = inmem::clique_union_graph(cfg.seed, shape);
    let file = TempFile(common::scratch_dir().join(format!("stream-{}.el", std::process::id())));
    write_flushed(&g, &file.0).map_err(|e| format!("writing {}: {e}", file.0.display()))?;
    let mut src = FileEdgeSource::open(&file.0).map_err(|e| e.to_string())?;
    // Read the file back once, so that timed passes hit the page cache.
    src.scan(&mut |_, _| {}).map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(&file.0).map_err(|e| e.to_string())?.len();
    let (delta, edcs) = (inmem::delta_backend(), inmem::edcs_backend());
    // The in-memory solves of the same instance: checked for validity and
    // the ratio claim here, and the reference every streamed solve equals.
    let twins = [
        approx_mcm_via_sparsifier(&g, &delta.params, cfg.seed, 1).expect("one thread is valid"),
        approx_mcm_via_edcs(&g, &edcs.params, EPS, 1).expect("one thread is valid"),
    ];
    let ratios = [delta.claimed_ratio(), edcs.claimed_ratio()];
    let mut res = Resident {
        src,
        m: g.num_edges(),
        bytes,
        seed: cfg.seed,
        delta,
        edcs,
        same: [SameOutput::new(cfg.corrupt), SameOutput::new(cfg.corrupt)],
        file,
    };
    for kind in [DELTA, EDCS] {
        let label = format!("in-memory {}", KINDS[kind]);
        report.verdict(
            &label,
            inmem::check_solution(&g, ratios[kind], &twins[kind]),
        );
        // One discarded warm-up per kind; it records the reference
        // fingerprint, which must be the in-memory twin's.
        let (_, verdict) = res.solve(kind);
        report.verdict(KINDS[kind], verdict);
        let same = res.same[kind].reference() == Some(inmem::result_fingerprint(&twins[kind]));
        report.check(same, || {
            format!(
                "the streamed {} solve differs from the in-memory solve of the same instance",
                KINDS[kind]
            )
        });
    }
    Ok(res)
}

pub fn run(cfg: &Config, report: &mut Report, cal: &mut Calibration) {
    let shape = if cfg.quick {
        Shape { n: 200, clique: 50 }
    } else {
        Shape {
            n: 900,
            clique: 300,
        }
    };
    let (setup_result, setup_times) = common::repeat_setup(cal, || setup(cfg, shape, report));
    report.set_setup(setup_times);
    let synced = setup_result.and_then(|res| {
        let file = std::fs::File::open(&res.file.0).and_then(|f| f.sync_all());
        file.map(|()| res)
            .map_err(|e| format!("syncing the edge file: {e}"))
    });
    let mut res = match synced {
        Ok(res) => res,
        Err(e) => {
            report.check(false, || e);
            return;
        }
    };
    report.note(format!(
        "stream: clique-union n={} m={} in a {}-byte edge-list file, one thread; the file is read back during setup, so passes hit the page cache and disk latency is not measured",
        shape.n, res.m, res.bytes
    ));
    if cfg.trace {
        trace(cfg, &mut res, report, cal);
        return;
    }
    let pid = std::process::id();
    report.start_rss_window(pid);
    let timed = common::interleave(2, cfg.seconds, cal, |kind| {
        let (ms, verdict) = res.solve(kind);
        report.verdict(KINDS[kind], verdict);
        ms
    });
    report.end_rss_window(pid, cal.resident_mib());
    report.set_kind_metrics(&timed);
}

/// The traced run: untraced solves (kinds 0, 1), traced ones (2, 3), and a
/// full scan with a no-op visitor (4), which costs read and parse alone.
fn trace(cfg: &Config, res: &mut Resident, report: &mut Report, cal: &mut Calibration) {
    let mut rec = Recorder::default();
    let mut built: [Option<(StreamBuildReport, AugStats)>; 2] = [None, None];
    let mut op = 0u64;
    let samples = common::interleave(5, cfg.seconds, cal, |k| {
        op += 1;
        match k {
            0 | 1 => {
                let (ms, verdict) = res.solve(k);
                report.verdict(KINDS[k], verdict);
                ms
            }
            2 | 3 => {
                let (ms, verdict) = res.traced_solve(k - 2, op, &mut rec);
                let verdict = verdict.map(|b| built[k - 2] = Some(b));
                report.verdict(KINDS[k - 2], verdict);
                ms
            }
            _ => {
                let start = Instant::now();
                let scanned = res.src.scan(&mut |_, _| {});
                let end = Instant::now();
                rec.add(NOOP_SCAN, start, end, None, op);
                report.verdict("no-op scan", scanned.map_err(|e| e.to_string()));
                common::ms_between(start, end)
            }
        }
    })
    .raw;
    let m = res.m as f64;
    let noop_ms = rec.median_ms(&[NOOP_SCAN]);
    let (probes, traced) = (samples[4].len(), samples[2].len());
    report.set("edge_stream.scan_ns_per_edge", noop_ms * 1e6 / m, probes);
    let mb_per_s = res.bytes as f64 / 1e6 / (noop_ms / 1e3);
    report.set("edge_stream.read_mb_per_s", mb_per_s, probes);
    let [Some((dr, da)), Some((er, ea))] = built else {
        return;
    };
    let passes = [dr, er].map(|r| r.edges_scanned as f64 / (2.0 * m));
    report.set(
        "edge_stream.bytes_read",
        res.bytes as f64 * (passes[0] + passes[1]),
        1,
    );
    for (kind, build_report) in [(DELTA, dr), (EDCS, er)] {
        let build_ms = rec.median_ms(&[BUILDS[kind]]);
        let visit_ns = (build_ms - passes[kind] * noop_ms) * 1e6 / (passes[kind] * m);
        let peak_mib = build_report.peak_resident_bytes as f64 / f64::from(1u32 << 20);
        report.set(PASSES[kind], passes[kind], 1);
        report.set(BUILD_MS[kind], build_ms, traced);
        report.set(VISIT_NS[kind], visit_ns, traced);
        report.set(PEAK_MIB[kind], peak_mib, 1);
    }
    inmem::set_matching_layer(
        report,
        [
            rec.median_ms(&[MATCHES[DELTA]]),
            rec.median_ms(&[MATCHES[EDCS]]),
        ],
        da.edge_visits + ea.edge_visits,
        (da.augmentations + ea.augmentations) as u64,
        traced,
    );
    inmem::set_edges_per_s(report, m, &samples[..2]);
    rec.set_trace_metrics(report, &samples[..4], 2);
    rec.save(cfg, report);
}
