//! Reusable scratch arenas for the repeat-solve hot paths.
//!
//! Every buffer the pipeline touches per run — each mark worker's sampler
//! overlay, index and mark-key buffers, the sparsifier CSR arrays, the
//! blossom searcher, and the result matching itself — lives here with
//! *clear-not-drop* semantics: a buffer is logically emptied between runs
//! but its heap capacity is retained. Callers that solve repeatedly (the
//! serve daemon's sessions, the check harness's seed sweeps, the benchmark
//! loops) hold one arena and hand it to
//! [`crate::pipeline::approx_mcm_via_sparsifier_with_scratch`]; after the
//! first (cold) call on a given input size, subsequent warm calls perform
//! **zero** heap allocations with one mark worker, and with more only the
//! thread spawns allocate (pinned by the `alloc-count`-gated test suite).
//!
//! The one-shot entry points are thin wrappers that build a fresh arena
//! per call, so warm and cold runs execute the *same* code path and are
//! byte-identical by construction.

use crate::edcs::FixpointScratch;
use crate::pipeline::PipelineResult;
use crate::sparsifier::MarkScratch;
use sparsimatch_graph::adjacency::ProbeCounts;
use sparsimatch_graph::csr::CsrScratch;
use sparsimatch_graph::ids::EdgeId;
use sparsimatch_matching::blossom::BlossomSearcher;
use sparsimatch_matching::bounded_aug::AugStats;
use sparsimatch_matching::Matching;

/// The pipeline's reusable buffer bundle. See the [module docs](self).
///
/// ```
/// use sparsimatch_core::params::SparsifierParams;
/// use sparsimatch_core::pipeline::approx_mcm_via_sparsifier_with_scratch;
/// use sparsimatch_core::scratch::PipelineScratch;
/// use sparsimatch_graph::generators::clique;
///
/// let g = clique(40);
/// let params = SparsifierParams::practical(1, 0.5);
/// let mut scratch = PipelineScratch::new();
/// let warm_up = approx_mcm_via_sparsifier_with_scratch(&g, &params, 7, 1, &mut scratch)
///     .unwrap()
///     .matching
///     .len();
/// // Warm repeat: same output, no allocations on the sequential path.
/// let warm = approx_mcm_via_sparsifier_with_scratch(&g, &params, 7, 1, &mut scratch).unwrap();
/// assert_eq!(warm.matching.len(), warm_up);
/// assert!(scratch.high_water_bytes() > 0);
/// ```
pub struct PipelineScratch {
    /// Mark stage: one sampler overlay, index buffer and sorted mark-key
    /// buffer per worker.
    pub(crate) marks: MarkScratch,
    /// EDCS backend: sorted, deduplicated member edge ids.
    pub(crate) ids: Vec<EdgeId>,
    /// Extract stage: sparsifier CSR arrays plus degree-count and
    /// scatter-cursor buffers.
    pub(crate) csr: CsrScratch,
    /// Match stage: blossom searcher (frontier queue, parent/base/root
    /// forests).
    pub(crate) searcher: BlossomSearcher,
    /// EDCS backend: the fixpoint's H-membership bitset, H-degrees and
    /// open-vertex tree.
    pub(crate) edcs: FixpointScratch,
    /// The result slot, including the reusable output matching.
    pub(crate) result: PipelineResult,
    /// Largest capacity footprint observed at the end of any run.
    pub(crate) high_water: usize,
}

impl PipelineScratch {
    /// An empty arena. All buffers start empty and grow on first use;
    /// construction allocates nothing beyond the CSR scratch's
    /// one-element offsets array.
    pub fn new() -> Self {
        PipelineScratch {
            marks: MarkScratch::new(),
            ids: Vec::new(),
            csr: CsrScratch::new(),
            searcher: BlossomSearcher::new(&Matching::new(0)),
            edcs: FixpointScratch::default(),
            result: PipelineResult {
                matching: Matching::new(0),
                sparsifier: Default::default(),
                probes: ProbeCounts::default(),
                aug: AugStats::default(),
            },
            high_water: 0,
        }
    }

    /// Logically empty every buffer, keeping capacities (and the
    /// high-water statistic). Runs never require this — each stage resets
    /// the state it reads — but it lets a long-lived holder drop stale
    /// *contents* (e.g. the previous result) without giving up warmth.
    pub fn clear(&mut self) {
        self.marks.clear();
        self.ids.clear();
        self.csr.clear();
        self.edcs.clear();
        self.result.matching.reset(0);
        self.result.sparsifier = Default::default();
        self.result.probes = ProbeCounts::default();
        self.result.aug = AugStats::default();
    }

    /// The result of the most recent pipeline run through this arena.
    pub fn result(&self) -> &PipelineResult {
        &self.result
    }

    /// Consume the arena, keeping only the last result (the one-shot
    /// wrapper path).
    pub fn into_result(self) -> PipelineResult {
        self.result
    }

    /// Heap bytes of buffer capacity currently held across all components
    /// (an estimate — element sizes, not allocator overhead).
    pub fn capacity_bytes(&self) -> usize {
        use std::mem::size_of;
        self.marks.capacity_bytes()
            + self.ids.capacity() * size_of::<EdgeId>()
            + self.csr.capacity_bytes()
            + self.searcher.capacity_bytes()
            + self.edcs.capacity_bytes()
            + self.result.matching.capacity_bytes()
    }

    /// Largest [`PipelineScratch::capacity_bytes`] observed at the end of
    /// any run — the arena's steady-state memory footprint.
    pub fn high_water_bytes(&self) -> usize {
        self.high_water
    }

    /// Record the current capacity footprint into the high-water mark.
    /// Called by the pipeline at the end of every run.
    pub(crate) fn note_high_water(&mut self) {
        self.high_water = self.high_water.max(self.capacity_bytes());
    }
}

impl Default for PipelineScratch {
    fn default() -> Self {
        PipelineScratch::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_arena_reports_empty_footprint() {
        let s = PipelineScratch::new();
        // A fresh CsrScratch holds the one-element offsets vector; every
        // other component starts at zero capacity.
        assert!(s.capacity_bytes() <= 64);
        assert_eq!(s.high_water_bytes(), 0);
        assert_eq!(s.result().matching.len(), 0);
    }

    #[test]
    fn footprint_counts_the_result_matching() {
        use crate::params::SparsifierParams;
        use crate::pipeline::approx_mcm_via_sparsifier_with_scratch;
        // Mostly isolated vertices: the mate array (4 bytes per vertex)
        // is a large share of what a solve on `n` vertices keeps.
        let n = 10_000;
        let g = sparsimatch_graph::csr::from_edges(n, (0..20).map(|v| (v, v + 1)));
        let p = SparsifierParams::practical(1, 0.5);
        let mut s = PipelineScratch::new();
        approx_mcm_via_sparsifier_with_scratch(&g, &p, 3, 1, &mut s).unwrap();
        let mate = s.result.matching.capacity_bytes();
        assert!(mate >= 4 * n, "mate array holds {mate} bytes for n = {n}");
        let footprint = s.capacity_bytes();
        s.result.matching = Matching::new(0);
        assert_eq!(footprint - s.capacity_bytes(), mate);
    }

    #[test]
    fn clear_keeps_high_water() {
        let mut s = PipelineScratch::new();
        s.ids.extend((0..100).map(EdgeId));
        s.note_high_water();
        let hw = s.high_water_bytes();
        assert!(hw >= 400);
        s.clear();
        assert!(s.ids.is_empty());
        assert_eq!(s.high_water_bytes(), hw, "clear drops contents, not stats");
    }
}
