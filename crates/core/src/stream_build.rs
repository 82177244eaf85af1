//! Out-of-core sparsifier construction: build `G_Δ` from an edge stream
//! in O(n + |E(G_Δ)|) resident memory, byte-identical to the in-memory
//! build.
//!
//! Theorem 3.1 promises the sparsifier in time linear in the *output*;
//! this module delivers the matching *space* bound. The parent graph is
//! never materialized — only a [`EdgeStreamSource`] is needed, and the
//! whole construction keeps O(n) per-vertex state plus the kept edges.
//!
//! The trick is that the marking scheme is replayable from degrees
//! alone. Each vertex `v` samples from [`vertex_rng`]`(seed, v)` —
//! exactly the per-vertex streams of the in-memory build
//! ([`crate::sparsifier::build_sparsifier`]) — and
//! [`PosArraySampler::sample_indices`] consumes randomness as a function
//! of `deg(v)` only. So:
//!
//! 1. **Pass 1** counts degrees (8 bytes → 4 bytes per vertex of state).
//! 2. Between passes, every vertex's marked *adjacency positions* are
//!    sampled from its degree and sorted — low-degree vertices
//!    (`deg ≤ 2Δ`) just set a keep-all bit. Total position storage is
//!    O(marks placed) = O(|E(G_Δ)|).
//! 3. **Pass 2** replays the stream with per-vertex arrival counters.
//!    In a lex-sorted stream the half-edges incident to `w` arrive in
//!    `w`'s sorted-adjacency order, so the arrival counter *is* the
//!    adjacency index — an edge is kept iff either endpoint's sorted
//!    position set contains its arrival position (two cursor probes).
//! 4. Kept edges arrive lex-sorted and feed
//!    [`sparsimatch_graph::csr::from_sorted_edges`] directly, which is
//!    the same layout the in-memory path runs — the resulting CSR is
//!    byte-identical to `parent.edge_subgraph(ids)` (pinned by
//!    differential test and a check-harness oracle).
//!
//! Resident-memory accounting is analytic — the maximum over the phase
//! working sets of the buffers this module owns (constant-size I/O
//! buffers excluded) — so reports are machine- and allocator-independent.

use crate::params::SparsifierParams;
use crate::pipeline::{approx_mcm_on_sparsifier, stage_eps, PipelineResult};
use crate::sampler::{vertex_rng, PosArraySampler};
use crate::sparsifier::{Sparsifier, SparsifierStats};
use sparsimatch_graph::adjacency::ProbeCounts;
use sparsimatch_graph::bitset::BitSet;
use sparsimatch_graph::csr::{from_sorted_edges, CsrGraph};
use sparsimatch_graph::edge_stream::EdgeStreamSource;
use sparsimatch_graph::io::ReadError;

/// How often a failed stream pass may be re-run from scratch. A restart
/// follows the failure immediately.
///
/// Restarting a pass is safe because the build keeps no state a restart
/// cannot reset: pass 1 is a pure degree count, and pass 2's sampling
/// decisions replay bit-for-bit from the per-vertex seeded `pos_v`
/// samplers. A build that succeeds after any number of restarts is
/// therefore byte-identical to a fault-free build (pinned by proptest
/// and the `chaos-stream` check oracle).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts allowed per pass, counting the first (≥ 1).
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// No retries: the first failure of either pass is final.
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_attempts: 1 }
    }

    /// Up to `max_attempts` attempts per pass.
    pub fn attempts(max_attempts: u32) -> RetryPolicy {
        assert!(max_attempts >= 1, "a pass always gets one attempt");
        RetryPolicy { max_attempts }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// Typed failure of the retrying streamed build: the error is only
/// surfaced after the [`RetryPolicy`] budget is spent, so a caller
/// seeing this knows every allowed attempt of the failing pass was made.
#[derive(Debug)]
pub enum StreamBuildError {
    /// One pass failed on every allowed attempt.
    RetriesExhausted {
        /// Which pass (1 = degree count, 2 = arrival filter).
        pass: u8,
        /// Attempts made (equals the policy's `max_attempts`).
        attempts: u32,
        /// The error the final attempt died with.
        last: ReadError,
    },
}

impl std::fmt::Display for StreamBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamBuildError::RetriesExhausted {
                pass,
                attempts,
                last,
            } => write!(
                f,
                "stream pass {pass} failed after {attempts} attempt(s): {last}"
            ),
        }
    }
}

impl std::error::Error for StreamBuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamBuildError::RetriesExhausted { last, .. } => Some(last),
        }
    }
}

/// Run one pass body under the retry budget. The body resets whatever
/// per-pass state it owns, runs one full scan, and reports the
/// half-edges it visited (charged to `edges_scanned` even when the scan
/// aborts — the work was done, so the accounting keeps it).
fn run_pass<S, F>(
    src: &mut S,
    pass: u8,
    policy: &RetryPolicy,
    edges_scanned: &mut u64,
    retries: &mut u64,
    mut body: F,
) -> Result<(), StreamBuildError>
where
    S: EdgeStreamSource,
    F: FnMut(&mut S) -> (u64, Result<(), ReadError>),
{
    let mut attempt = 0u32;
    loop {
        let (half_edges, result) = body(src);
        *edges_scanned += half_edges;
        match result {
            Ok(()) => return Ok(()),
            Err(e) => {
                attempt += 1;
                if attempt >= policy.max_attempts {
                    return Err(StreamBuildError::RetriesExhausted {
                        pass,
                        attempts: attempt,
                        last: e,
                    });
                }
                *retries += 1;
            }
        }
    }
}

/// What the out-of-core build measured, reported in the units the huge
/// bench tier commits to `BENCH_pipeline.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamBuildReport {
    /// High-water bytes of build state resident at any phase (degree and
    /// cursor arrays, sampler overlay, position sets, kept-edge buffer,
    /// CSR layout) — analytic, excluding constant-size I/O buffers. The
    /// headline claim is `peak_resident_bytes < graph_bytes`.
    pub peak_resident_bytes: usize,
    /// What materializing the parent graph would cost
    /// ([`CsrGraph::projected_memory_bytes`]) — the resident memory this
    /// build avoids.
    pub graph_bytes: usize,
    /// [`CsrGraph::memory_bytes`] of the built sparsifier.
    pub sparsifier_bytes: usize,
    /// Analytic probe counts, same convention as the in-memory pipeline:
    /// two degree probes per vertex, one neighbor probe per mark placed.
    pub probes: ProbeCounts,
    /// Half-edge visits counted across every scan attempt, aborted
    /// passes included: exactly `4m` on the fault-free path (two passes,
    /// two half-edges per edge), strictly more when faults forced
    /// partial rescans.
    pub edges_scanned: u64,
    /// Pass restarts performed by the [`RetryPolicy`] — 0 on the
    /// fault-free path, so fault-free reports stay comparable across
    /// sources.
    pub io_retries: u64,
}

/// Build `G_Δ` from a lex-sorted edge stream without materializing the
/// parent graph. For the same `(n, edges, params, seed)` the sparsifier
/// CSR is byte-identical to the in-memory
/// [`crate::sparsifier::build_sparsifier`] at any thread count,
/// and the stats agree field for field.
pub fn build_sparsifier_streamed(
    src: &mut impl EdgeStreamSource,
    params: &SparsifierParams,
    seed: u64,
) -> Result<(Sparsifier, StreamBuildReport), ReadError> {
    build_sparsifier_streamed_with_retry(src, params, seed, &RetryPolicy::none()).map_err(|e| {
        match e {
            StreamBuildError::RetriesExhausted { last, .. } => last,
        }
    })
}

/// [`build_sparsifier_streamed`] under a [`RetryPolicy`]: a pass that
/// fails is re-run from scratch (its state fully reset) up to
/// `max_attempts` times. Because pass state replays deterministically
/// from `(degrees, seed)`, a recovered build is byte-identical to a
/// fault-free one; the report records the extra scan work
/// (`edges_scanned`) and the restarts (`io_retries`).
pub fn build_sparsifier_streamed_with_retry(
    src: &mut impl EdgeStreamSource,
    params: &SparsifierParams,
    seed: u64,
    policy: &RetryPolicy,
) -> Result<(Sparsifier, StreamBuildReport), StreamBuildError> {
    let n = src.num_vertices();
    let m = src.num_edges();
    let mark_cap = params.mark_cap();
    let mut peak = 0usize;
    let mut edges_scanned = 0u64;
    let mut io_retries = 0u64;

    // Pass 1: degree counting — 4 bytes per vertex of resident state.
    // A retried attempt starts from zeroed counts, so only a *complete*
    // scan ever feeds the sampling stage.
    let mut degree = vec![0u32; n];
    run_pass(src, 1, policy, &mut edges_scanned, &mut io_retries, |src| {
        for d in degree.iter_mut() {
            *d = 0;
        }
        let mut half = 0u64;
        let result = src.scan(&mut |u, v| {
            half += 2;
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        });
        (half, result)
    })?;

    // Between passes: replay every vertex's sampling from its degree.
    // High-degree vertices contribute exactly Δ sorted positions each;
    // low-degree vertices need only a keep-all bit, so the position pool
    // is sized exactly once, up front.
    let mut max_deg = 0usize;
    let mut high_degree = 0usize;
    for &d in &degree {
        let d = d as usize;
        max_deg = max_deg.max(d);
        if d > mark_cap {
            high_degree += 1;
        }
    }
    let mut sampler = PosArraySampler::new(max_deg.max(1));
    let mut keep_all = BitSet::new();
    keep_all.clear_and_resize(n);
    let mut mark_off: Vec<u32> = Vec::with_capacity(n + 1);
    let mut mark_pos: Vec<u32> = Vec::with_capacity(high_degree * params.delta);
    let mut indices: Vec<u32> = Vec::with_capacity(mark_cap.max(1));
    let mut stats = SparsifierStats {
        delta: params.delta,
        mark_cap,
        ..Default::default()
    };
    mark_off.push(0);
    for (v, &d) in degree.iter().enumerate() {
        let deg = d as usize;
        if deg <= mark_cap {
            stats.low_degree_vertices += 1;
            stats.marks_placed += deg;
            if deg > 0 {
                keep_all.set(v);
            }
        } else {
            // The in-memory build's per-vertex stream; `sample_indices`
            // draws as a function of `deg` alone, so these are the marks
            // the in-memory build would place.
            sampler.sample_indices(deg, params.delta, &mut vertex_rng(seed, v), &mut indices);
            stats.marks_placed += indices.len();
            // Only membership matters downstream, so sorting per vertex
            // is safe and makes pass 2 a cursor walk.
            indices.sort_unstable();
            mark_pos.extend_from_slice(&indices);
        }
        mark_off.push(mark_pos.len() as u32);
    }
    let sample_resident = degree.capacity() * 4
        + sampler.capacity_bytes()
        + keep_all.capacity_bytes()
        + mark_off.capacity() * 4
        + mark_pos.capacity() * 4
        + indices.capacity() * 4;
    peak = peak.max(sample_resident);
    drop(sampler);
    drop(indices);

    // Pass 2: arrival-position filtering. The degree array is reused as
    // the arrival counters; `cursor[v]` walks v's sorted position set.
    // Every retry resets counters, cursors, and the kept buffer — the
    // filtering decisions are pure functions of arrival position, so a
    // restarted attempt re-derives the identical kept prefix. An aborted
    // attempt can never over-fill `kept` (it keeps a prefix of the full
    // pass's edges), so the buffer never reallocates across retries and
    // the resident-memory accounting is retry-invariant.
    let mut cursor: Vec<u32> = mark_off[..n].to_vec();
    let mut kept: Vec<(u32, u32)> = Vec::with_capacity(m.min(stats.marks_placed));
    run_pass(src, 2, policy, &mut edges_scanned, &mut io_retries, |src| {
        cursor.copy_from_slice(&mark_off[..n]);
        for counter in degree.iter_mut() {
            *counter = 0;
        }
        kept.clear();
        let mut half = 0u64;
        let result = src.scan(&mut |u, v| {
            half += 2;
            let (ui, vi) = (u as usize, v as usize);
            let pu = degree[ui];
            degree[ui] += 1;
            let pv = degree[vi];
            degree[vi] += 1;
            // Both cursors advance independently: an edge marked from
            // both sides must consume both positions, exactly like the
            // in-memory path placing two marks that dedup to one edge.
            let take_u = keep_all.get(ui) || {
                let c = cursor[ui];
                c < mark_off[ui + 1] && mark_pos[c as usize] == pu && {
                    cursor[ui] = c + 1;
                    true
                }
            };
            let take_v = keep_all.get(vi) || {
                let c = cursor[vi];
                c < mark_off[vi + 1] && mark_pos[c as usize] == pv && {
                    cursor[vi] = c + 1;
                    true
                }
            };
            if take_u || take_v {
                kept.push((u, v));
            }
        });
        (half, result)
    })?;
    let filter_resident = degree.capacity() * 4
        + keep_all.capacity_bytes()
        + mark_off.capacity() * 4
        + mark_pos.capacity() * 4
        + cursor.capacity() * 4
        + kept.capacity() * 8;
    peak = peak.max(filter_resident);
    drop(degree);
    drop(cursor);
    drop(mark_off);
    drop(mark_pos);
    drop(keep_all);

    // Layout: kept edges are a lex-sorted subsequence of the stream, so
    // they feed the sorted layout directly — the same code path
    // `CsrGraph::edge_subgraph` and the in-memory pipeline bottom out
    // in, hence the byte identity. The layout holds the kept buffer (becomes the
    // endpoint array), a 4n-byte degree/cursor array, and the finished
    // offset/target/half-edge arrays.
    let m_sparse = kept.len();
    let kept_capacity = kept.capacity();
    let graph = from_sorted_edges(n, kept);
    stats.edges = graph.num_edges();
    let sparsifier_bytes = graph.memory_bytes();
    let layout_resident = sparsifier_bytes + (kept_capacity - m_sparse) * 8 + n * 4;
    peak = peak.max(layout_resident);

    let report = StreamBuildReport {
        peak_resident_bytes: peak,
        graph_bytes: CsrGraph::projected_memory_bytes(n, m),
        sparsifier_bytes,
        probes: ProbeCounts {
            degree_probes: 2 * n as u64,
            neighbor_probes: stats.marks_placed as u64,
        },
        edges_scanned,
        io_retries,
    };
    Ok((Sparsifier { graph, stats }, report))
}

/// Theorem 3.1 end-to-end, out of core: stream-build the sparsifier,
/// then run the pipeline's sequential match stage (greedy + bounded
/// augmentation at [`stage_eps`]) on it. For a stream of graph `g`, the
/// returned [`PipelineResult`] — matching pairs, sparsifier stats,
/// probes, augmentation stats — is identical to
/// `approx_mcm_via_sparsifier(&g, params, seed, 1)`; only the resident
/// memory differs, and the report quantifies by how much.
pub fn approx_mcm_streamed(
    src: &mut impl EdgeStreamSource,
    params: &SparsifierParams,
    seed: u64,
) -> Result<(PipelineResult, StreamBuildReport), ReadError> {
    approx_mcm_streamed_with_retry(src, params, seed, &RetryPolicy::none()).map_err(|e| match e {
        StreamBuildError::RetriesExhausted { last, .. } => last,
    })
}

/// [`approx_mcm_streamed`] under a [`RetryPolicy`]: the build stage
/// retries failed passes; the match stage runs on the recovered
/// sparsifier exactly as on a fault-free one. Under any recoverable
/// fault plan the [`PipelineResult`] is identical to the fault-free
/// streamed (and in-memory) pipeline — the `chaos-stream` check oracle
/// fingerprints exactly this claim.
pub fn approx_mcm_streamed_with_retry(
    src: &mut impl EdgeStreamSource,
    params: &SparsifierParams,
    seed: u64,
    policy: &RetryPolicy,
) -> Result<(PipelineResult, StreamBuildReport), StreamBuildError> {
    let eps_stage = stage_eps(params.eps);
    // The same Δ-rescaling the in-memory pipeline applies.
    let stage_params = crate::pipeline::stage_params(params);
    let (sparsifier, report) =
        build_sparsifier_streamed_with_retry(src, &stage_params, seed, policy)?;
    let (matching, aug) = approx_mcm_on_sparsifier(&sparsifier.graph, eps_stage);
    Ok((
        PipelineResult {
            matching,
            sparsifier: sparsifier.stats,
            probes: report.probes,
            aug,
        },
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::approx_mcm_via_sparsifier;
    use crate::sparsifier::build_sparsifier;
    use rand::{rngs::StdRng, SeedableRng};
    use sparsimatch_graph::edge_stream::FileEdgeSource;
    use sparsimatch_graph::generators::{
        bipartite_gnp, clique, clique_union, gnp, star, CliqueUnionConfig,
    };
    use sparsimatch_graph::io::write_edge_list_file;

    fn family_zoo() -> Vec<(String, CsrGraph)> {
        let mut rng = StdRng::seed_from_u64(77);
        vec![
            ("clique".into(), clique(90)),
            ("star".into(), star(300)),
            ("gnp".into(), gnp(200, 0.08, &mut rng)),
            ("bipartite".into(), bipartite_gnp(120, 90, 0.1, &mut rng)),
            (
                "clique-union".into(),
                clique_union(
                    CliqueUnionConfig {
                        n: 240,
                        diversity: 3,
                        clique_size: 30,
                    },
                    &mut rng,
                ),
            ),
            ("empty".into(), sparsimatch_graph::csr::from_edges(0, [])),
            ("isolated".into(), sparsimatch_graph::csr::from_edges(7, [])),
        ]
    }

    fn assert_stats_eq(a: &SparsifierStats, b: &SparsifierStats, label: &str) {
        assert_eq!(a.delta, b.delta, "{label}: delta");
        assert_eq!(a.mark_cap, b.mark_cap, "{label}: mark_cap");
        assert_eq!(
            a.low_degree_vertices, b.low_degree_vertices,
            "{label}: low_degree_vertices"
        );
        assert_eq!(a.marks_placed, b.marks_placed, "{label}: marks_placed");
        assert_eq!(a.edges, b.edges, "{label}: edges");
    }

    #[test]
    fn streamed_build_is_byte_identical_to_in_memory() {
        let p = SparsifierParams::practical(2, 0.4);
        for (name, mut g) in family_zoo() {
            for seed in [0u64, 7, 41] {
                let reference = build_sparsifier(&g, &p, seed, 1, None).unwrap();
                let (streamed, report) = build_sparsifier_streamed(&mut g, &p, seed).unwrap();
                assert_eq!(
                    streamed.graph, reference.graph,
                    "{name} seed {seed}: sparsifier CSR diverged"
                );
                assert_stats_eq(&streamed.stats, &reference.stats, &name);
                assert_eq!(report.sparsifier_bytes, reference.graph.memory_bytes());
                assert_eq!(
                    report.graph_bytes,
                    CsrGraph::projected_memory_bytes(g.num_vertices(), g.num_edges())
                );
                assert_eq!(report.probes.degree_probes, 2 * g.num_vertices() as u64);
                assert_eq!(
                    report.probes.neighbor_probes,
                    streamed.stats.marks_placed as u64
                );
            }
        }
    }

    #[test]
    fn file_stream_matches_in_memory_stream() {
        let dir = std::env::temp_dir().join("sparsimatch-stream-build-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = SparsifierParams::practical(1, 0.4);
        let mut rng = StdRng::seed_from_u64(5);
        let mut g = gnp(150, 0.2, &mut rng);
        let path = dir.join("gnp.el");
        write_edge_list_file(&g, &path).unwrap();
        let mut file_src = FileEdgeSource::open(&path).unwrap();
        for seed in [3u64, 19] {
            let (from_mem, mem_report) = build_sparsifier_streamed(&mut g, &p, seed).unwrap();
            let (from_file, file_report) =
                build_sparsifier_streamed(&mut file_src, &p, seed).unwrap();
            assert_eq!(from_file.graph, from_mem.graph, "seed {seed}");
            assert_stats_eq(&from_file.stats, &from_mem.stats, "file-vs-mem");
            assert_eq!(file_report, mem_report, "seed {seed}: reports diverged");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streamed_pipeline_matches_in_memory_pipeline() {
        let p = SparsifierParams::practical(2, 0.4);
        for (name, mut g) in family_zoo() {
            for seed in [2u64, 23] {
                let reference = approx_mcm_via_sparsifier(&g, &p, seed, 1).unwrap();
                let (streamed, _) = approx_mcm_streamed(&mut g, &p, seed).unwrap();
                assert_eq!(
                    streamed.matching, reference.matching,
                    "{name} seed {seed}: matching diverged"
                );
                assert_eq!(streamed.probes, reference.probes, "{name} seed {seed}");
                assert_stats_eq(&streamed.sparsifier, &reference.sparsifier, &name);
                let a = &streamed.aug;
                let b = &reference.aug;
                assert_eq!(
                    (a.augmentations, a.searches, a.edge_visits),
                    (b.augmentations, b.searches, b.edge_visits),
                    "{name} seed {seed}: aug stats diverged"
                );
            }
        }
    }

    #[test]
    fn peak_resident_stays_below_materializing_the_parent() {
        // A dense graph whose degrees all exceed the mark cap: the
        // sparsifier genuinely shrinks, and the whole point of the
        // streaming build — O(n + |E_Δ|) resident versus O(n + m) — must
        // show up in the report.
        let mut g = clique(600); // m ≈ 180k, every degree 599
        let p = SparsifierParams::practical(1, 0.3);
        let (s, report) = build_sparsifier_streamed(&mut g, &p, 11).unwrap();
        assert!(s.stats.edges < g.num_edges() / 4);
        assert!(
            report.peak_resident_bytes < report.graph_bytes,
            "peak {} >= graph {}",
            report.peak_resident_bytes,
            report.graph_bytes
        );
        assert!(report.sparsifier_bytes <= report.peak_resident_bytes);
        assert_eq!(report.edges_scanned, 4 * g.num_edges() as u64);
        assert_eq!(report.io_retries, 0);
    }

    #[test]
    fn retry_recovers_byte_identically_under_recoverable_faults() {
        use sparsimatch_graph::edge_stream::{FaultyEdgeSource, IoFaultPlan, IoFaultRates};
        let p = SparsifierParams::practical(2, 0.4);
        let rates = IoFaultRates {
            eio: 0.5,
            short_read: 0.4,
            torn_line: 0.4,
            header_mutation: 0.3,
        };
        for (name, mut g) in family_zoo() {
            for plan_seed in 0u64..4 {
                let (clean, clean_report) = build_sparsifier_streamed(&mut g, &p, 7).unwrap();
                // Horizon 3 with 4 attempts per pass: recovery guaranteed.
                let plan = IoFaultPlan::new(plan_seed, rates).with_horizon(3);
                let mut faulty = FaultyEdgeSource::new(g.clone(), plan);
                let (recovered, report) = build_sparsifier_streamed_with_retry(
                    &mut faulty,
                    &p,
                    7,
                    &RetryPolicy::attempts(4),
                )
                .unwrap();
                assert_eq!(
                    recovered.graph, clean.graph,
                    "{name} plan {plan_seed}: recovered build diverged"
                );
                assert_stats_eq(&recovered.stats, &clean.stats, &name);
                assert_eq!(report.io_retries, faulty.stats().total());
                // Aborted attempts are charged: total scan work is the
                // fault-free 4m plus whatever the failed prefixes read.
                assert!(report.edges_scanned >= clean_report.edges_scanned);
                if report.io_retries == 0 {
                    assert_eq!(report.edges_scanned, clean_report.edges_scanned);
                }
            }
        }
    }

    #[test]
    fn unrecoverable_plan_returns_typed_error_after_the_budget() {
        use sparsimatch_graph::edge_stream::{FaultyEdgeSource, IoFaultPlan, IoFaultRates};
        let p = SparsifierParams::practical(2, 0.4);
        let g = clique(40);
        let plan = IoFaultPlan::new(
            5,
            IoFaultRates {
                eio: 1.0,
                ..Default::default()
            },
        );
        let mut faulty = FaultyEdgeSource::new(g, plan);
        let err =
            build_sparsifier_streamed_with_retry(&mut faulty, &p, 7, &RetryPolicy::attempts(3))
                .unwrap_err();
        match err {
            StreamBuildError::RetriesExhausted {
                pass,
                attempts,
                last,
            } => {
                assert_eq!(pass, 1, "every attempt dies in pass 1");
                assert_eq!(attempts, 3);
                assert!(matches!(last, ReadError::Io(_)));
            }
        }
        assert_eq!(faulty.attempts(), 3);
    }
}
