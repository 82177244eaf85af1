//! Theorem 3.1 end-to-end: the `(1+ε)`-approximate maximum matching in
//! time sublinear in `|E(G)|`.
//!
//! Pipeline: (1) **mark** — every vertex marks Δ uniform incident edges
//! with the deterministic-time sampler, `O(n·Δ)` probes; (2) **extract** —
//! lay out the marked edges as the sparsifier CSR `G_Δ`; (3) **match** —
//! run greedy initialization plus the `(1+ε')`-approximate matching of
//! [`sparsimatch_matching::bounded_aug`] on the sparsifier, linear in
//! `|E(G_Δ)| = O(n·Δ)` per phase. The accuracy budget is split between the
//! two `(1+·)` factors so the end-to-end guarantee is `1 + ε`:
//! `(1 + ε/2.5)² ≤ 1 + ε` for `ε ≤ 1`.
//!
//! Marking fans out over the requested thread count; extraction and
//! matching run on the calling thread, over an `O(n·Δ)`-sized
//! sparsifier. The output is deterministic for a fixed seed and
//! byte-identical for any accepted thread count: every vertex marks from
//! its own seeded RNG stream, and the workers' sorted marks merge into
//! one sorted edge list.

use crate::params::SparsifierParams;
use crate::scratch::PipelineScratch;
use crate::sparsifier::{SparsifierStats, ThreadCountError, MAX_THREADS};
use sparsimatch_graph::adjacency::ProbeCounts;
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_matching::bounded_aug::{
    approx_maximum_matching_from, eliminate_augmenting_paths_up_to_with, max_path_len_for_eps,
    AugStats,
};
use sparsimatch_matching::greedy::{greedy_maximal_matching, greedy_maximal_matching_into};
use sparsimatch_matching::Matching;
use sparsimatch_obs::{keys, WorkMeter};
use std::sync::OnceLock;
use std::time::Instant;

/// Below this many *input* edges the mark stage ignores the requested
/// thread count and runs one worker: thread spawns and the merge cost
/// more than the marking work itself.
const MARK_PARALLEL_CUTOFF: usize = 1 << 17;

/// Whether this host can run more than one worker at once (cached). On a
/// single-core host marking runs one worker regardless of the requested
/// thread count — the output is byte-identical either way, so this is
/// purely a latency decision.
fn host_has_parallelism() -> bool {
    static CACHE: OnceLock<bool> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get() > 1)
            .unwrap_or(false)
    })
}

/// The worker count the mark stage uses on `input_edges` edges when the
/// caller asked for `requested` threads. Marking is worker-count
/// invariant, so falling back to one worker never changes the output —
/// only the wall clock.
fn mark_threads(requested: usize, input_edges: usize) -> usize {
    if input_edges < MARK_PARALLEL_CUTOFF || !host_has_parallelism() {
        1
    } else {
        requested
    }
}

/// Everything the pipeline measured while running.
#[derive(Clone, Debug)]
pub struct PipelineResult {
    /// The `(1+ε)`-approximate matching — valid for the *original* graph.
    pub matching: Matching,
    /// Sparsifier construction statistics.
    pub sparsifier: SparsifierStats,
    /// Adjacency-array probes spent building the sparsifier (the
    /// sublinearity certificate: compare with `m`).
    pub probes: ProbeCounts,
    /// Augmentation statistics on the sparsifier.
    pub aug: AugStats,
}

/// Split a target ε into the per-stage ε' so that `(1+ε')² ≤ 1+ε`.
pub fn stage_eps(eps: f64) -> f64 {
    eps / 2.5
}

/// The per-stage [`SparsifierParams`] the pipeline actually marks with:
/// Δ re-aimed at [`stage_eps`] while keeping the caller's scaling choice
/// relative to the paper constant. Shared by the in-memory pipeline, the
/// out-of-core build, and the `delta` backend's size-bound claim, so all
/// three agree on the sparsifier they describe.
pub fn stage_params(params: &SparsifierParams) -> SparsifierParams {
    let eps_stage = stage_eps(params.eps);
    let scale = params.delta as f64
        / (20.0 * (params.beta as f64 / params.eps) * (24.0 / params.eps).ln()).ceil();
    SparsifierParams::scaled(params.beta, eps_stage, scale.max(1e-9))
}

/// Theorem 3.1: compute a `(1+ε)`-approximate MCM of `g` by sparsifying
/// and matching on the sparsifier. `params.eps` is the *end-to-end* target;
/// both stages run at [`stage_eps`].
///
/// Marking draws from deterministically seeded per-vertex RNG streams, so
/// the result depends only on `seed` — never on `threads`, which sets the
/// mark stage's worker count (extraction and matching run on the calling
/// thread). Rejects `threads` outside
/// `1..=`[`crate::sparsifier::MAX_THREADS`] with a [`ThreadCountError`].
///
/// # Examples
///
/// A clique has neighborhood independence β = 1 and a perfect matching;
/// the pipeline returns a valid matching of the *original* graph within
/// the end-to-end `(1+ε)` target:
///
/// ```
/// use sparsimatch_core::params::SparsifierParams;
/// use sparsimatch_core::pipeline::approx_mcm_via_sparsifier;
/// use sparsimatch_graph::generators::clique;
///
/// let g = clique(40); // exact MCM = 20
/// let params = SparsifierParams::practical(1, 0.5);
/// let result = approx_mcm_via_sparsifier(&g, &params, 7, 1).unwrap();
/// assert!(result.matching.is_valid_for(&g));
/// assert!(20.0 <= (1.0 + params.eps) * result.matching.len() as f64);
/// ```
pub fn approx_mcm_via_sparsifier(
    g: &CsrGraph,
    params: &SparsifierParams,
    seed: u64,
    threads: usize,
) -> Result<PipelineResult, ThreadCountError> {
    let mut scratch = PipelineScratch::new();
    approx_mcm_via_sparsifier_impl(g, params, seed, threads, None, &mut scratch)?;
    Ok(scratch.into_result())
}

/// [`approx_mcm_via_sparsifier`] writing through a caller-owned
/// [`PipelineScratch`]: identical output (the one-shot entry point is a
/// thin wrapper over this very path with a fresh arena), but every
/// buffer the run needs is reused from `scratch`. After a warm-up call on
/// a given input size, repeat calls perform zero heap allocations with
/// one mark worker, and only the thread spawns allocate with more. The
/// returned reference points at
/// [`PipelineScratch::result`], which stays valid until the next run
/// through the same arena.
pub fn approx_mcm_via_sparsifier_with_scratch<'s>(
    g: &CsrGraph,
    params: &SparsifierParams,
    seed: u64,
    threads: usize,
    scratch: &'s mut PipelineScratch,
) -> Result<&'s PipelineResult, ThreadCountError> {
    approx_mcm_via_sparsifier_impl(g, params, seed, threads, None, scratch)?;
    Ok(scratch.result())
}

/// [`approx_mcm_via_sparsifier_with_scratch`] with unified work
/// accounting: adjacency probes, sampler RNG draws and overlay writes,
/// sparsifier size, keep-all vertex count ([`keys::KEEP_ALL_VERTICES`])
/// and augmentation work are added to `meter` under the
/// shared [`sparsimatch_obs::keys`] names, and per-stage wall-clock spans
/// are recorded under [`keys::STAGE_MARK`], [`keys::STAGE_EXTRACT`],
/// [`keys::STAGE_MATCH`], and [`keys::PIPELINE_TOTAL`]. The result is
/// identical to the unmetered pipeline for the same seed and any thread
/// count. (Metering itself allocates inside the meter, so the
/// zero-allocation guarantee applies to the unmetered scratch path.)
pub fn approx_mcm_via_sparsifier_with_scratch_metered<'s>(
    g: &CsrGraph,
    params: &SparsifierParams,
    seed: u64,
    threads: usize,
    meter: &mut WorkMeter,
    scratch: &'s mut PipelineScratch,
) -> Result<&'s PipelineResult, ThreadCountError> {
    approx_mcm_via_sparsifier_impl(g, params, seed, threads, Some(meter), scratch)?;
    Ok(scratch.result())
}

/// The single pipeline body behind every entry point: runs the three
/// stages through `scratch` and leaves the result in
/// [`PipelineScratch::result`]. Warm-vs-cold byte identity is structural —
/// there is no second implementation to diverge.
fn approx_mcm_via_sparsifier_impl(
    g: &CsrGraph,
    params: &SparsifierParams,
    seed: u64,
    threads: usize,
    meter: Option<&mut WorkMeter>,
    scratch: &mut PipelineScratch,
) -> Result<(), ThreadCountError> {
    if threads == 0 || threads > MAX_THREADS {
        return Err(ThreadCountError { requested: threads });
    }
    let total_start = Instant::now();
    let eps_stage = stage_eps(params.eps);
    let stage_params = stage_params(params);

    let PipelineScratch {
        marks,
        csr,
        searcher,
        result,
        ..
    } = scratch;

    // Stage 1: each worker marks its vertex range and sorts the keys of
    // the marks the merge cannot copy (see `MarkWorker::keys`), then one
    // merge writes the sorted endpoint pairs straight into the
    // sparsifier's edge list, copying the edges of each run of keep-all
    // lower endpoints from the parent's sorted endpoint list.
    // Stage 2 lays that list out as the CSR.
    let mark_start = Instant::now();
    let summary = marks.mark(g, &stage_params, seed, mark_threads(threads, g.num_edges()));
    let mut extract_start = mark_start;
    let sparse: &CsrGraph = csr.rebuild_with(g.num_vertices(), |edges| {
        marks.merge_into(g, edges);
        extract_start = Instant::now();
    });
    let mark_nanos = (extract_start - mark_start).as_nanos();
    let extract_nanos = extract_start.elapsed().as_nanos();

    result.sparsifier = summary.stats;
    result.sparsifier.edges = sparse.num_edges();
    // The CSR fast path reads the graph directly, so probes are accounted
    // analytically: two degree reads per vertex (the low-degree check and
    // the one inside the sampler) and one adjacency-entry read per mark.
    result.probes = ProbeCounts {
        degree_probes: 2 * g.num_vertices() as u64,
        neighbor_probes: result.sparsifier.marks_placed as u64,
    };

    // Stage 3: greedy init + bounded augmentation on the sparsifier.
    let match_start = Instant::now();
    greedy_maximal_matching_into(sparse, &mut result.matching);
    result.aug = eliminate_augmenting_paths_up_to_with(
        sparse,
        &mut result.matching,
        max_path_len_for_eps(eps_stage),
        searcher,
    );
    let match_nanos = match_start.elapsed().as_nanos();
    debug_assert!(
        result.matching.is_valid_for(g),
        "sparsifier must be a subgraph"
    );

    if let Some(meter) = meter {
        meter.add(keys::DEGREE_PROBES, result.probes.degree_probes);
        meter.add(keys::NEIGHBOR_PROBES, result.probes.neighbor_probes);
        meter.add(keys::SPARSIFIER_EDGES, result.sparsifier.edges as u64);
        meter.add(
            keys::KEEP_ALL_VERTICES,
            result.sparsifier.low_degree_vertices as u64,
        );
        meter.add(keys::RNG_DRAWS, summary.rng_draws);
        meter.add(keys::OVERLAY_WRITES, summary.overlay_writes);
        meter.add(keys::EDGE_VISITS, result.aug.edge_visits);
        meter.add(keys::AUG_SEARCHES, result.aug.searches as u64);
        meter.add(keys::AUGMENTATIONS, result.aug.augmentations as u64);
        meter.add_span(keys::STAGE_MARK, 1, mark_nanos);
        meter.add_span(keys::STAGE_EXTRACT, 1, extract_nanos);
        meter.add_span(keys::STAGE_MATCH, 1, match_nanos);
        meter.add_span(keys::PIPELINE_TOTAL, 1, total_start.elapsed().as_nanos());
    }

    scratch.note_high_water();
    Ok(())
}

/// The match stage alone on a sparsifier built elsewhere: greedy
/// initialization plus bounded augmentation at `eps`. Used where the
/// subgraph does not come from the in-memory mark and extract stages:
/// MPC's coordinator, the streamed build, the EDCS backend and the
/// one-pass streaming matcher.
pub fn approx_mcm_on_sparsifier(sparse: &CsrGraph, eps: f64) -> (Matching, AugStats) {
    let init = greedy_maximal_matching(sparse);
    approx_maximum_matching_from(sparse, init, eps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use sparsimatch_graph::generators::{
        clique, clique_union, line_graph, unit_disk, CliqueUnionConfig, UnitDiskConfig,
    };
    use sparsimatch_matching::blossom::maximum_matching;

    /// A metered one-shot run through a fresh arena.
    fn metered(
        g: &CsrGraph,
        p: &SparsifierParams,
        seed: u64,
        threads: usize,
        meter: &mut WorkMeter,
    ) -> PipelineResult {
        let mut scratch = PipelineScratch::new();
        approx_mcm_via_sparsifier_with_scratch_metered(g, p, seed, threads, meter, &mut scratch)
            .unwrap()
            .clone()
    }

    #[test]
    fn stage_eps_composes() {
        for &eps in &[0.1f64, 0.3, 0.5, 0.9] {
            let s = stage_eps(eps);
            assert!((1.0 + s) * (1.0 + s) <= 1.0 + eps + 1e-12);
        }
    }

    #[test]
    fn end_to_end_accuracy_on_clique() {
        let g = clique(200);
        let p = SparsifierParams::practical(1, 0.3);
        let exact = maximum_matching(&g).len(); // 100
        for seed in [1u64, 2, 3] {
            let r = approx_mcm_via_sparsifier(&g, &p, seed, 1).unwrap();
            assert!(r.matching.is_valid_for(&g));
            assert!(
                r.matching.len() as f64 * 1.3 >= exact as f64,
                "{} vs {exact}",
                r.matching.len()
            );
        }
    }

    #[test]
    fn end_to_end_accuracy_on_clique_union() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = clique_union(
            CliqueUnionConfig {
                n: 300,
                diversity: 3,
                clique_size: 60,
            },
            &mut rng,
        );
        let p = SparsifierParams::practical(3, 0.4);
        let exact = maximum_matching(&g).len();
        let r = approx_mcm_via_sparsifier(&g, &p, 2, 2).unwrap();
        assert!(r.matching.len() as f64 * 1.4 >= exact as f64);
    }

    #[test]
    fn probes_sublinear_on_dense_graph() {
        let g = clique(500); // m ≈ 125k
        let p = SparsifierParams::practical(1, 0.5);
        let r = approx_mcm_via_sparsifier(&g, &p, 3, 2).unwrap();
        let m = g.num_edges() as u64;
        assert!(
            r.probes.total() < m / 2,
            "probes {} not sublinear in m {m}",
            r.probes.total()
        );
    }

    #[test]
    fn line_graph_pipeline() {
        let mut rng = StdRng::seed_from_u64(4);
        let base = sparsimatch_graph::generators::gnp(60, 0.25, &mut rng);
        let g = line_graph(&base); // beta <= 2
        if g.num_edges() == 0 {
            return;
        }
        let p = SparsifierParams::practical(2, 0.4);
        let exact = maximum_matching(&g).len();
        let r = approx_mcm_via_sparsifier(&g, &p, 4, 1).unwrap();
        assert!(r.matching.len() as f64 * 1.4 >= exact as f64);
    }

    #[test]
    fn unit_disk_pipeline() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = unit_disk(
            UnitDiskConfig::with_expected_degree(500, 1.0, 30.0),
            &mut rng,
        );
        let p = SparsifierParams::practical(5, 0.4);
        let exact = maximum_matching(&g).len();
        let r = approx_mcm_via_sparsifier(&g, &p, 5, 4).unwrap();
        assert!(r.matching.len() as f64 * 1.4 >= exact as f64);
    }

    #[test]
    fn metered_pipeline_matches_unmetered() {
        let g = clique(120);
        let p = SparsifierParams::practical(1, 0.4);
        let mut meter = WorkMeter::new();
        let plain = approx_mcm_via_sparsifier(&g, &p, 7, 2).unwrap();
        let metered = metered(&g, &p, 7, 2, &mut meter);
        let e1: Vec<_> = plain.matching.pairs().collect();
        let e2: Vec<_> = metered.matching.pairs().collect();
        assert_eq!(e1, e2, "metering must not perturb the pipeline");
        assert_eq!(plain.probes, metered.probes);
        assert_eq!(meter.get(keys::DEGREE_PROBES), metered.probes.degree_probes);
        assert_eq!(
            meter.get(keys::NEIGHBOR_PROBES),
            metered.probes.neighbor_probes
        );
        assert_eq!(
            meter.get(keys::SPARSIFIER_EDGES),
            metered.sparsifier.edges as u64
        );
        assert_eq!(meter.get(keys::EDGE_VISITS), metered.aug.edge_visits);
        assert!(meter.get(keys::RNG_DRAWS) > 0);
        assert_eq!(
            meter.get(keys::KEEP_ALL_VERTICES),
            metered.sparsifier.low_degree_vertices as u64
        );
        // Per-stage spans recorded exactly once each.
        for key in [
            keys::STAGE_MARK,
            keys::STAGE_EXTRACT,
            keys::STAGE_MATCH,
            keys::PIPELINE_TOTAL,
        ] {
            assert_eq!(meter.span_stats(key).count, 1, "span {key}");
        }
        let stage_sum = meter.span_stats(keys::STAGE_MARK).total_nanos
            + meter.span_stats(keys::STAGE_EXTRACT).total_nanos
            + meter.span_stats(keys::STAGE_MATCH).total_nanos;
        assert!(stage_sum <= meter.span_stats(keys::PIPELINE_TOTAL).total_nanos);
    }

    #[test]
    fn pipeline_is_thread_count_invariant() {
        // clique(520) is above MARK_PARALLEL_CUTOFF, so on a multi-core
        // host its marking fans out and the workers' pairs are merged.
        let big = clique(520);
        assert!(big.num_edges() >= MARK_PARALLEL_CUTOFF);
        let p = SparsifierParams::practical(1, 0.4);
        for g in [clique(150), big] {
            let reference = approx_mcm_via_sparsifier(&g, &p, 13, 1).unwrap();
            let e1: Vec<_> = reference.matching.pairs().collect();
            let mut m1 = WorkMeter::new();
            metered(&g, &p, 13, 1, &mut m1);
            let c1: Vec<_> = m1.counters().map(|(k, v)| (k.to_string(), v)).collect();
            for threads in [2usize, 4, 8] {
                let mut m = WorkMeter::new();
                let r = metered(&g, &p, 13, threads, &mut m);
                let e: Vec<_> = r.matching.pairs().collect();
                assert_eq!(e1, e, "threads = {threads}");
                assert_eq!(reference.probes, r.probes);
                let c: Vec<_> = m.counters().map(|(k, v)| (k.to_string(), v)).collect();
                assert_eq!(c1, c, "metered totals, threads = {threads}");
            }
            assert!(reference.matching.is_valid_for(&g));
            assert!(approx_mcm_via_sparsifier(&g, &p, 13, 0).is_err());
            assert!(approx_mcm_via_sparsifier(&g, &p, 13, 65).is_err());
        }
    }

    #[test]
    fn scratch_reuse_is_byte_identical_to_fresh() {
        // One arena dragged across families, sizes, seeds, and thread
        // counts must reproduce the one-shot wrapper exactly: matching
        // pairs, sparsifier stats, probes, and augmentation stats.
        let mut rng = StdRng::seed_from_u64(8);
        let graphs = [
            clique(150),
            clique_union(
                CliqueUnionConfig {
                    n: 200,
                    diversity: 3,
                    clique_size: 40,
                },
                &mut rng,
            ),
            sparsimatch_graph::generators::gnp(120, 0.1, &mut rng),
            sparsimatch_graph::csr::from_edges(0, []),
        ];
        let p = SparsifierParams::practical(2, 0.4);
        let mut scratch = crate::scratch::PipelineScratch::new();
        for (i, g) in graphs.iter().enumerate() {
            for seed in [3u64, 21] {
                for threads in [1usize, 2, 4, 8] {
                    let cold = approx_mcm_via_sparsifier(g, &p, seed, threads).unwrap();
                    let warm =
                        approx_mcm_via_sparsifier_with_scratch(g, &p, seed, threads, &mut scratch)
                            .unwrap();
                    assert_eq!(
                        cold.matching, warm.matching,
                        "graph {i} seed {seed} threads {threads}"
                    );
                    assert_eq!(cold.probes, warm.probes);
                    let s = (
                        cold.sparsifier.marks_placed,
                        cold.sparsifier.low_degree_vertices,
                        cold.sparsifier.edges,
                    );
                    let w = (
                        warm.sparsifier.marks_placed,
                        warm.sparsifier.low_degree_vertices,
                        warm.sparsifier.edges,
                    );
                    assert_eq!(s, w, "graph {i} seed {seed} threads {threads}");
                    let a = (
                        cold.aug.augmentations,
                        cold.aug.searches,
                        cold.aug.edge_visits,
                    );
                    let b = (
                        warm.aug.augmentations,
                        warm.aug.searches,
                        warm.aug.edge_visits,
                    );
                    assert_eq!(a, b, "graph {i} seed {seed} threads {threads}");
                }
            }
        }
        assert!(scratch.high_water_bytes() > 0);
        assert!(scratch.capacity_bytes() <= scratch.high_water_bytes());
    }

    #[test]
    fn scratch_metered_matches_one_shot_metered() {
        let g = clique(120);
        let p = SparsifierParams::practical(1, 0.4);
        let mut scratch = crate::scratch::PipelineScratch::new();
        let mut m_fresh = WorkMeter::new();
        let mut m_warm = WorkMeter::new();
        let fresh = metered(&g, &p, 11, 1, &mut m_fresh);
        // Warm the arena first so the metered run below is a steady-state
        // repeat, then compare counters (spans are wall clock — skipped).
        approx_mcm_via_sparsifier_with_scratch(&g, &p, 11, 1, &mut scratch).unwrap();
        let warm = approx_mcm_via_sparsifier_with_scratch_metered(
            &g,
            &p,
            11,
            1,
            &mut m_warm,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(fresh.matching, warm.matching);
        let fresh_counters: Vec<_> = m_fresh
            .counters()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        let warm_counters: Vec<_> = m_warm.counters().map(|(k, v)| (k.to_string(), v)).collect();
        assert_eq!(fresh_counters, warm_counters);
    }

    #[test]
    fn scratch_rejects_bad_thread_counts() {
        let g = clique(30);
        let p = SparsifierParams::practical(1, 0.5);
        let mut scratch = crate::scratch::PipelineScratch::new();
        assert!(approx_mcm_via_sparsifier_with_scratch(&g, &p, 1, 0, &mut scratch).is_err());
        assert!(approx_mcm_via_sparsifier_with_scratch(&g, &p, 1, 65, &mut scratch).is_err());
        // And the arena still works after a rejected call.
        assert!(approx_mcm_via_sparsifier_with_scratch(&g, &p, 1, 1, &mut scratch).is_ok());
    }
}
