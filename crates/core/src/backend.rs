//! The backend family: a common contract over interchangeable matching
//! sparsifiers.
//!
//! A *backend* packages one sparsification scheme — how to build the
//! sparse subgraph `H ⊆ G`, in memory or from an edge stream — together
//! with the two quantitative **claims** its theory makes: a worst-case
//! size bound on `|E(H)|` and an end-to-end approximation ratio for the
//! matching computed through it. The claims are load-bearing, not
//! documentation: the `backend` check oracle certifies both against the
//! exact blossom solver per sweep seed, so a backend that violates its
//! own claim is a shrinkable counterexample, and `results/RESULTS.md`
//! only races backends that passed that conformance gate first.
//!
//! Two backends ship:
//!
//! - [`DeltaBackend`] (`delta`): the paper's `G_Δ` pipeline, verbatim —
//!   every solve delegates to the exact same entry points the
//!   un-traited API exposes, so results are byte-identical to
//!   [`approx_mcm_via_sparsifier`](crate::pipeline::approx_mcm_via_sparsifier)
//!   (pinned by fingerprint test across thread counts). Claims: `1+ε`
//!   ratio (Theorem 3.1), size `n · 2Δ_stage` where `Δ_stage` comes from
//!   [`stage_params`] — the Δ the pipeline *actually* marks with.
//! - [`EdcsBackend`] (`edcs`): the Assadi–Bernstein edge-degree
//!   constrained subgraph (arXiv:1811.02009). Claims: `(3/2)(1+λ)(1+ε)`
//!   ratio (the `3/2` is tight even for bipartite graphs,
//!   arXiv:2406.07630), size `n(β−1)/2`. Deterministic and
//!   randomness-free, but construction reads every edge — the opposite
//!   trade-off from `G_Δ`'s sublinear randomized marking.

use crate::edcs::{
    approx_mcm_edcs_streamed, approx_mcm_via_edcs_with_scratch,
    approx_mcm_via_edcs_with_scratch_metered, build_edcs, EdcsParams,
};
use crate::params::SparsifierParams;
use crate::pipeline::{
    approx_mcm_via_sparsifier_with_scratch, approx_mcm_via_sparsifier_with_scratch_metered,
    stage_params, PipelineResult,
};
use crate::scratch::PipelineScratch;
use crate::sparsifier::{build_sparsifier, ThreadCountError};
use crate::stream_build::{approx_mcm_streamed, StreamBuildReport};
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::edge_stream::EdgeStreamSource;
use sparsimatch_graph::io::ReadError;
use sparsimatch_obs::WorkMeter;

/// Which backend to run — the value the CLI's `--backend` flag, the
/// serve wire protocol's `backend` field, and the check harness's
/// `--backend` filter all parse into.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The paper's `G_Δ` sparsifier pipeline.
    Delta,
    /// The Assadi–Bernstein edge-degree constrained subgraph.
    Edcs,
}

impl BackendKind {
    /// Every backend, in report order.
    pub const ALL: [BackendKind; 2] = [BackendKind::Delta, BackendKind::Edcs];

    /// The stable wire/CLI name (`"delta"` / `"edcs"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            BackendKind::Delta => "delta",
            BackendKind::Edcs => "edcs",
        }
    }

    /// Parse a wire/CLI name. Returns `None` for anything but the exact
    /// lowercase names, so callers produce their own typed errors.
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s {
            "delta" => Some(BackendKind::Delta),
            "edcs" => Some(BackendKind::Edcs),
            _ => None,
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A matching sparsifier backend: build `H ⊆ G`, solve through it, and
/// state the claims the check oracle certifies. See the
/// [module docs](self) for the contract's role.
///
/// Object-safe: the CLI, serve engine, and benchmark all hold
/// `&dyn MatchingSparsifier` and dispatch per run.
pub trait MatchingSparsifier {
    /// The backend's stable name, as reported in benchmark JSON and
    /// counterexample documents (`"delta"` / `"edcs"`).
    fn name(&self) -> &'static str;

    /// A one-line human-readable parameter summary for reports, e.g.
    /// `"beta=2 eps=0.5 delta=1188"`.
    fn params_summary(&self) -> String;

    /// The claimed end-to-end approximation ratio `r ≥ 1`: the backend
    /// asserts `|M*| ≤ r · |M|` for the matching `M` it returns. The
    /// check oracle tests this against exact blossom per sweep seed.
    fn claimed_ratio(&self) -> f64;

    /// The claimed worst-case sparsifier size: the backend asserts
    /// `|E(H)| ≤` this for any `n`-vertex input. Certified per sweep.
    fn claimed_size_bound(&self, n: usize) -> usize;

    /// Build the sparsifier `H` alone (same vertex set as `g`). `seed`
    /// feeds randomized backends; deterministic ones ignore it.
    fn build(&self, g: &CsrGraph, seed: u64) -> CsrGraph;

    /// Build-and-match through a caller-owned arena: the zero-alloc warm
    /// path. Result semantics per backend — for `delta`, byte-identical
    /// to the un-traited pipeline entry points.
    fn solve<'s>(
        &self,
        g: &CsrGraph,
        seed: u64,
        threads: usize,
        scratch: &'s mut PipelineScratch,
    ) -> Result<&'s PipelineResult, ThreadCountError>;

    /// [`solve`](MatchingSparsifier::solve) with unified work accounting
    /// on the shared meter keys.
    fn solve_metered<'s>(
        &self,
        g: &CsrGraph,
        seed: u64,
        threads: usize,
        meter: &mut WorkMeter,
        scratch: &'s mut PipelineScratch,
    ) -> Result<&'s PipelineResult, ThreadCountError>;

    /// Build-and-match from a rescannable edge stream without
    /// materializing the parent graph, reporting resident-memory and
    /// scan accounting.
    fn solve_streamed(
        &self,
        src: &mut dyn EdgeStreamSource,
        seed: u64,
    ) -> Result<(PipelineResult, StreamBuildReport), ReadError>;
}

/// The `delta` backend: the paper's `G_Δ` pipeline behind the trait,
/// with zero behavior change. Every solve path delegates to the
/// pre-existing entry point with the caller's exact parameters, so the
/// fingerprint (matching pairs, sparsifier stats, probe counts) is
/// byte-identical to calling
/// [`approx_mcm_via_sparsifier`](crate::pipeline::approx_mcm_via_sparsifier)
/// directly — a conformance test pins this across `t ∈ {1, 2, 4}`.
///
/// The size claim is stated for the sparsifier the pipeline *actually*
/// builds: the pipeline re-aims Δ at the stage ε (see [`stage_params`]),
/// which is larger than the Δ of the caller's params — claiming the
/// caller-params bound would be claiming a bound on a different graph.
#[derive(Clone, Copy, Debug)]
pub struct DeltaBackend {
    /// The pipeline parameters (pre-stage-split, as callers supply them).
    pub params: SparsifierParams,
}

impl MatchingSparsifier for DeltaBackend {
    fn name(&self) -> &'static str {
        BackendKind::Delta.as_str()
    }

    fn params_summary(&self) -> String {
        format!(
            "beta={} eps={} delta={}",
            self.params.beta, self.params.eps, self.params.delta
        )
    }

    fn claimed_ratio(&self) -> f64 {
        // Theorem 3.1: a (1+ε)-approximate MCM through G_Δ.
        1.0 + self.params.eps
    }

    fn claimed_size_bound(&self, n: usize) -> usize {
        stage_params(&self.params).naive_size_bound(n)
    }

    fn build(&self, g: &CsrGraph, seed: u64) -> CsrGraph {
        build_sparsifier(g, &stage_params(&self.params), seed, 1, None)
            .expect("1 is a valid thread count")
            .graph
    }

    fn solve<'s>(
        &self,
        g: &CsrGraph,
        seed: u64,
        threads: usize,
        scratch: &'s mut PipelineScratch,
    ) -> Result<&'s PipelineResult, ThreadCountError> {
        approx_mcm_via_sparsifier_with_scratch(g, &self.params, seed, threads, scratch)
    }

    fn solve_metered<'s>(
        &self,
        g: &CsrGraph,
        seed: u64,
        threads: usize,
        meter: &mut WorkMeter,
        scratch: &'s mut PipelineScratch,
    ) -> Result<&'s PipelineResult, ThreadCountError> {
        approx_mcm_via_sparsifier_with_scratch_metered(
            g,
            &self.params,
            seed,
            threads,
            meter,
            scratch,
        )
    }

    fn solve_streamed(
        &self,
        src: &mut dyn EdgeStreamSource,
        seed: u64,
    ) -> Result<(PipelineResult, StreamBuildReport), ReadError> {
        approx_mcm_streamed(&mut &mut *src, &self.params, seed)
    }
}

/// The `edcs` backend: solve through an `(β, β⁻)`-EDCS (see
/// [`crate::edcs`]). Deterministic — the seed is ignored — with the
/// matching stage run at the full `eps` (no stage split; the EDCS's
/// ratio floor is structural, not an ε budget).
#[derive(Clone, Copy, Debug)]
pub struct EdcsBackend {
    /// Validated EDCS parameters (β, λ).
    pub params: EdcsParams,
    /// Bounded-augmentation budget for the match stage, in `(0, 1)`.
    pub eps: f64,
}

impl MatchingSparsifier for EdcsBackend {
    fn name(&self) -> &'static str {
        BackendKind::Edcs.as_str()
    }

    fn params_summary(&self) -> String {
        format!(
            "beta={} lambda={} eps={}",
            self.params.beta(),
            self.params.lambda(),
            self.eps
        )
    }

    fn claimed_ratio(&self) -> f64 {
        // EDCS contains a (3/2)(1+λ)-approximate matching
        // (arXiv:1811.02009); bounded augmentation at ε on top multiplies
        // in the remaining (1+ε).
        1.5 * (1.0 + self.params.lambda()) * (1.0 + self.eps)
    }

    fn claimed_size_bound(&self, n: usize) -> usize {
        self.params.size_bound(n)
    }

    fn build(&self, g: &CsrGraph, _seed: u64) -> CsrGraph {
        build_edcs(g, &self.params).0
    }

    fn solve<'s>(
        &self,
        g: &CsrGraph,
        _seed: u64,
        threads: usize,
        scratch: &'s mut PipelineScratch,
    ) -> Result<&'s PipelineResult, ThreadCountError> {
        approx_mcm_via_edcs_with_scratch(g, &self.params, self.eps, threads, scratch)
    }

    fn solve_metered<'s>(
        &self,
        g: &CsrGraph,
        _seed: u64,
        threads: usize,
        meter: &mut WorkMeter,
        scratch: &'s mut PipelineScratch,
    ) -> Result<&'s PipelineResult, ThreadCountError> {
        approx_mcm_via_edcs_with_scratch_metered(g, &self.params, self.eps, threads, meter, scratch)
    }

    fn solve_streamed(
        &self,
        src: &mut dyn EdgeStreamSource,
        _seed: u64,
    ) -> Result<(PipelineResult, StreamBuildReport), ReadError> {
        approx_mcm_edcs_streamed(src, &self.params, self.eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::approx_mcm_via_sparsifier;
    use rand::{rngs::StdRng, SeedableRng};
    use sparsimatch_graph::generators::{clique, gnp};

    #[test]
    fn kind_names_roundtrip() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(BackendKind::parse("EDCS"), None);
        assert_eq!(BackendKind::parse(""), None);
    }

    /// The tentpole's conformance pin: the `delta` backend behind the
    /// trait is byte-identical to the pre-refactor pipeline across
    /// thread counts.
    #[test]
    fn delta_backend_is_byte_identical_to_pipeline() {
        let mut rng = StdRng::seed_from_u64(42);
        let graphs = [clique(80), gnp(300, 0.05, &mut rng)];
        let params = SparsifierParams::practical(2, 0.4);
        let backend = DeltaBackend { params };
        let mut scratch = PipelineScratch::new();
        for (i, g) in graphs.iter().enumerate() {
            for seed in [0u64, 7] {
                for threads in [1usize, 2, 4] {
                    let direct = approx_mcm_via_sparsifier(g, &params, seed, threads).unwrap();
                    let traited = backend.solve(g, seed, threads, &mut scratch).unwrap();
                    assert_eq!(direct.matching, traited.matching, "graph {i} t={threads}");
                    assert_eq!(
                        direct.sparsifier, traited.sparsifier,
                        "graph {i} t={threads}"
                    );
                    assert_eq!(direct.probes, traited.probes, "graph {i} t={threads}");
                    assert_eq!(
                        direct.aug.augmentations, traited.aug.augmentations,
                        "graph {i} t={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn delta_backend_build_matches_pipeline_sparsifier_size() {
        let g = clique(60);
        let params = SparsifierParams::practical(1, 0.5);
        let backend = DeltaBackend { params };
        let h = backend.build(&g, 3);
        let r = approx_mcm_via_sparsifier(&g, &params, 3, 1).unwrap();
        assert_eq!(h.num_edges(), r.sparsifier.edges);
        assert!(h.num_edges() <= backend.claimed_size_bound(g.num_vertices()));
    }

    #[test]
    fn both_backends_honor_claims_on_a_smoke_instance() {
        use sparsimatch_matching::blossom::maximum_matching;
        let mut rng = StdRng::seed_from_u64(5);
        let g = gnp(200, 0.08, &mut rng);
        let exact = maximum_matching(&g).len() as f64;
        let backends: [&dyn MatchingSparsifier; 2] = [
            &DeltaBackend {
                params: SparsifierParams::practical(2, 0.4),
            },
            &EdcsBackend {
                params: EdcsParams::new(16, 0.125).unwrap(),
                eps: 0.4,
            },
        ];
        let mut scratch = PipelineScratch::new();
        for b in backends {
            let h = b.build(&g, 1);
            assert!(
                h.num_edges() <= b.claimed_size_bound(g.num_vertices()),
                "{}: size claim",
                b.name()
            );
            let r = b.solve(&g, 1, 1, &mut scratch).unwrap();
            assert!(r.matching.is_valid_for(&g), "{}", b.name());
            assert!(
                exact <= b.claimed_ratio() * r.matching.len() as f64 + 1e-9,
                "{}: ratio claim ({} vs {} at r={})",
                b.name(),
                exact,
                r.matching.len(),
                b.claimed_ratio()
            );
            assert!(!b.params_summary().is_empty());
        }
    }

    #[test]
    fn streamed_solve_through_trait_object() {
        let g = clique(50);
        let backends: [Box<dyn MatchingSparsifier>; 2] = [
            Box::new(DeltaBackend {
                params: SparsifierParams::practical(1, 0.5),
            }),
            Box::new(EdcsBackend {
                params: EdcsParams::new(8, 0.25).unwrap(),
                eps: 0.5,
            }),
        ];
        for b in backends {
            let mut src = g.clone();
            let mut scratch = PipelineScratch::new();
            let (streamed, report) = b.solve_streamed(&mut src, 9).unwrap();
            let in_mem = b.solve(&g, 9, 1, &mut scratch).unwrap();
            assert_eq!(streamed.matching, in_mem.matching, "{}", b.name());
            assert!(report.edges_scanned > 0, "{}", b.name());
        }
    }
}
