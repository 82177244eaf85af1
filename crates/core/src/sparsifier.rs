//! The random matching sparsifier `G_Δ` (Section 2 of the paper).
//!
//! Every vertex marks Δ uniform incident edges without replacement —
//! all of them if its degree is at most the low-degree threshold `2Δ`
//! (the Section 3.1 tweak that enables deterministic-time sampling). The
//! sparsifier is the subgraph of all marked edges, over the *same* vertex
//! set, so a matching in `G_Δ` is a matching in `G` verbatim.

use crate::params::SparsifierParams;
use crate::sampler::{mark_indices_for_vertex, PosArraySampler};
use rand::Rng;
use sparsimatch_graph::adjacency::AdjacencyOracle;
use sparsimatch_graph::csr::{from_marked_edges, from_sorted_edges, CsrGraph};
use sparsimatch_graph::ids::{EdgeId, VertexId};
use sparsimatch_obs::{keys, WorkMeter};

/// Maximum accepted thread count for [`build_sparsifier_parallel`].
///
/// The cap is a sanity bound, not a memory-safety requirement: each worker
/// allocates only a sampler overlay sized to the largest degree in its own
/// vertex range plus a mark buffer proportional to the marks it places, so
/// oversubscribing the host merely wastes scheduling — it cannot blow up
/// memory. Requests outside `1..=MAX_THREADS` are still rejected with
/// [`ThreadCountError`] rather than silently clamped, because a wildly
/// out-of-range request is almost certainly a caller bug.
pub const MAX_THREADS: usize = 64;

/// An out-of-range thread count passed to [`build_sparsifier_parallel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThreadCountError {
    /// The rejected request.
    pub requested: usize,
}

impl std::fmt::Display for ThreadCountError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "thread count must be between 1 and {MAX_THREADS}, got {}",
            self.requested
        )
    }
}

impl std::error::Error for ThreadCountError {}

/// Construction statistics, all deterministic consequences of the marking
/// scheme (only *which* edges get marked is random).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SparsifierStats {
    /// Δ used.
    pub delta: usize,
    /// Low-degree threshold (`2Δ`).
    pub mark_cap: usize,
    /// Vertices that marked their full neighborhood.
    pub low_degree_vertices: usize,
    /// Total marks placed (with multiplicity: an edge marked by both
    /// endpoints counts twice).
    pub marks_placed: usize,
    /// Distinct marked edges = `|E(G_Δ)|`.
    pub edges: usize,
}

/// The sparsifier `G_Δ` of a CSR graph.
#[derive(Clone, Debug)]
pub struct Sparsifier {
    /// The sparsified graph (same vertex ids as the input).
    pub graph: CsrGraph,
    /// Construction statistics.
    pub stats: SparsifierStats,
}

/// Build `G_Δ` from a CSR graph. Runs in time `O(n + |E(G_Δ)|)` —
/// deterministically linear in the *output*, not the input (Theorem 3.1's
/// construction bound), modulo the final CSR layout.
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use sparsimatch_core::params::SparsifierParams;
/// use sparsimatch_core::sparsifier::build_sparsifier;
/// use sparsimatch_graph::generators::clique;
///
/// let g = clique(200); // β = 1, ~20k edges
/// let params = SparsifierParams::practical(1, 0.3);
/// let mut rng = StdRng::seed_from_u64(7);
/// let s = build_sparsifier(&g, &params, &mut rng);
/// assert!(s.stats.edges <= params.naive_size_bound(200));
/// assert!(s.stats.edges < g.num_edges() / 2, "much sparser than the input");
/// ```
pub fn build_sparsifier(g: &CsrGraph, params: &SparsifierParams, rng: &mut impl Rng) -> Sparsifier {
    build_sparsifier_impl(g, params, rng, None)
}

/// [`build_sparsifier`] with unified work accounting: sampler RNG draws
/// and overlay writes, adjacency probes, and the sparsifier size are
/// mirrored into `meter` (see [`sparsimatch_obs::keys`]). The output is
/// identical to the unmetered build for the same RNG state.
pub fn build_sparsifier_metered(
    g: &CsrGraph,
    params: &SparsifierParams,
    rng: &mut impl Rng,
    meter: &mut WorkMeter,
) -> Sparsifier {
    build_sparsifier_impl(g, params, rng, Some(meter))
}

fn build_sparsifier_impl(
    g: &CsrGraph,
    params: &SparsifierParams,
    rng: &mut impl Rng,
    meter: Option<&mut WorkMeter>,
) -> Sparsifier {
    let n = g.num_vertices();
    let mut keep: Vec<EdgeId> = Vec::new();
    let mut sampler = PosArraySampler::new(g.max_degree());
    let mut indices: Vec<u32> = Vec::with_capacity(params.mark_cap());
    let mut stats = SparsifierStats {
        delta: params.delta,
        mark_cap: params.mark_cap(),
        ..Default::default()
    };
    for v in 0..n {
        let v = VertexId::new(v);
        let deg = g.degree(v);
        if deg <= params.mark_cap() {
            stats.low_degree_vertices += 1;
        }
        mark_indices_for_vertex(
            g,
            v,
            params.delta,
            params.mark_cap(),
            &mut sampler,
            rng,
            &mut indices,
        );
        stats.marks_placed += indices.len();
        for &i in &indices {
            keep.push(g.incident_edge(v, i as usize));
        }
    }
    // The mark buffer holds O(marks_placed) ids, never O(|E(G)|) — keeping
    // construction linear in the *output* as Theorem 3.1 promises.
    keep.sort_unstable();
    keep.dedup();
    let graph = from_marked_edges(g, &keep);
    stats.edges = graph.num_edges();
    if let Some(meter) = meter {
        // The CSR fast path reads the graph directly, so probes are
        // accounted analytically: two degree reads per vertex (the
        // low-degree check and the one inside `mark_indices_for_vertex`)
        // and one adjacency-entry read per mark placed.
        meter.add(keys::DEGREE_PROBES, 2 * n as u64);
        meter.add(keys::NEIGHBOR_PROBES, stats.marks_placed as u64);
        meter.add(keys::SPARSIFIER_EDGES, stats.edges as u64);
        sampler.mirror_into(meter);
    }
    Sparsifier { graph, stats }
}

/// Parallel `G_Δ` construction: per-vertex marking is embarrassingly
/// parallel once each vertex draws from its own deterministically seeded
/// RNG (exactly the independence the analysis requires anyway, and the
/// same seeding the distributed protocol uses). The output is identical
/// for any thread count.
///
/// Rejects `threads` outside `1..=`[`MAX_THREADS`] with a
/// [`ThreadCountError`] (no silent clamping).
pub fn build_sparsifier_parallel(
    g: &CsrGraph,
    params: &SparsifierParams,
    seed: u64,
    threads: usize,
) -> Result<Sparsifier, ThreadCountError> {
    build_sparsifier_parallel_impl(g, params, seed, threads, None)
}

/// [`build_sparsifier_parallel`] with unified work accounting. Per-worker
/// counters are summed before mirroring, so the metered totals are also
/// thread-count invariant.
pub fn build_sparsifier_parallel_metered(
    g: &CsrGraph,
    params: &SparsifierParams,
    seed: u64,
    threads: usize,
    meter: &mut WorkMeter,
) -> Result<Sparsifier, ThreadCountError> {
    build_sparsifier_parallel_impl(g, params, seed, threads, Some(meter))
}

/// The lexicographic key of edge `{v, x}`: `(min << 32) | max`, so keys
/// sort exactly as `(u, v)` pairs with `u < v` do.
#[inline(always)]
fn edge_key(v: u32, x: u32) -> u64 {
    let (a, b) = if v < x { (v, x) } else { (x, v) };
    (u64::from(a) << 32) | u64::from(b)
}

/// The `(u, v)` pair with `u < v` of an [`edge_key`].
#[inline(always)]
fn key_edge(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// Work counters of a marking run, summed over its workers, so they do
/// not depend on the worker count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct MarkSummary {
    /// Marking-stage statistics; `edges` is left 0 for the caller, who
    /// counts the merged pairs.
    pub stats: SparsifierStats,
    /// RNG draws taken during this run.
    pub rng_draws: u64,
    /// Sampler-overlay writes during this run.
    pub overlay_writes: u64,
}

/// One marking worker's reusable buffers and the counters of its last
/// run.
struct MarkWorker {
    sampler: PosArraySampler,
    indices: Vec<u32>,
    /// Sorted, distinct [`edge_key`]s of the edges this worker's vertex
    /// range marked.
    keys: Vec<u64>,
    summary: MarkSummary,
}

impl MarkWorker {
    fn new() -> Self {
        MarkWorker {
            sampler: PosArraySampler::new(0),
            indices: Vec::new(),
            keys: Vec::new(),
            summary: MarkSummary::default(),
        }
    }

    /// Mark the edges of the vertices in `range`: each vertex reads every
    /// marked neighbour from the adjacency array and pushes the edge's
    /// key, then the keys are sorted and deduplicated. Allocation-free
    /// once the buffers have capacity.
    fn mark_range(
        &mut self,
        g: &CsrGraph,
        params: &SparsifierParams,
        seed: u64,
        range: std::ops::Range<usize>,
    ) {
        use rand::SeedableRng;
        let cap = params.mark_cap();
        // Size the overlay to this range's own largest degree (a star hub
        // inflates one worker's overlay, not all of them), and count the
        // marks exactly so `keys` is reserved once.
        let mut max_deg = 0usize;
        let mut marks = 0usize;
        for v in range.clone() {
            let deg = g.degree(VertexId::new(v));
            max_deg = max_deg.max(deg);
            marks += if deg <= cap { deg } else { params.delta };
        }
        self.sampler.ensure_capacity(max_deg.max(1));
        self.keys.clear();
        self.keys.reserve(marks);
        let draws_before = self.sampler.rng_draws();
        let writes_before = self.sampler.overlay_writes();
        let mut stats = SparsifierStats {
            delta: params.delta,
            mark_cap: cap,
            ..Default::default()
        };
        for v in range {
            let vid = VertexId::new(v);
            if g.degree(vid) <= cap {
                stats.low_degree_vertices += 1;
            }
            // Every vertex samples from its own stream, so the marks do
            // not depend on which worker (or which build: distributed,
            // out-of-core) draws them.
            let mut rng = rand::rngs::StdRng::seed_from_u64(
                seed ^ (v as u64).wrapping_mul(0x9E3779B97F4A7C15),
            );
            mark_indices_for_vertex(
                g,
                vid,
                params.delta,
                cap,
                &mut self.sampler,
                &mut rng,
                &mut self.indices,
            );
            stats.marks_placed += self.indices.len();
            for &i in &self.indices {
                self.keys
                    .push(edge_key(vid.0, g.neighbor(vid, i as usize).0));
            }
        }
        self.keys.sort_unstable();
        self.keys.dedup();
        self.summary = MarkSummary {
            stats,
            rng_draws: self.sampler.rng_draws() - draws_before,
            overlay_writes: self.sampler.overlay_writes() - writes_before,
        };
    }

    fn capacity_bytes(&self) -> usize {
        use std::mem::size_of;
        self.sampler.capacity_bytes()
            + self.indices.capacity() * size_of::<u32>()
            + self.keys.capacity() * size_of::<u64>()
    }
}

/// The marking stage's reusable state: one worker per thread, kept
/// across runs so a warm run allocates nothing but the thread spawns.
pub(crate) struct MarkScratch {
    workers: Vec<MarkWorker>,
    /// How many workers the last run used (a prefix of `workers`).
    active: usize,
}

impl MarkScratch {
    /// No workers yet; they are created on first use.
    pub(crate) fn new() -> Self {
        MarkScratch {
            workers: Vec::new(),
            active: 0,
        }
    }

    /// Mark `G_Δ`'s edges with up to `threads` workers over contiguous,
    /// non-empty vertex ranges. The first worker runs on the calling
    /// thread, so one worker never enters `thread::scope`. Per-vertex
    /// seeding makes the marks, and the summed counters, independent of
    /// the worker count; [`MarkScratch::merge_into`] writes out the marked
    /// edges.
    pub(crate) fn mark(
        &mut self,
        g: &CsrGraph,
        params: &SparsifierParams,
        seed: u64,
        threads: usize,
    ) -> MarkSummary {
        let n = g.num_vertices();
        let t = threads.clamp(1, n.max(1));
        if self.workers.len() < t {
            self.workers.resize_with(t, MarkWorker::new);
        }
        self.active = t;
        let bound = |i: usize| i * n / t;
        match &mut self.workers[..t] {
            [only] => only.mark_range(g, params, seed, 0..n),
            [first, rest @ ..] => std::thread::scope(|s| {
                for (i, worker) in rest.iter_mut().enumerate() {
                    let range = bound(i + 1)..bound(i + 2);
                    s.spawn(move || worker.mark_range(g, params, seed, range));
                }
                first.mark_range(g, params, seed, 0..bound(1));
            }),
            [] => unreachable!("at least one worker"),
        }
        let mut total = MarkSummary {
            stats: SparsifierStats {
                delta: params.delta,
                mark_cap: params.mark_cap(),
                ..Default::default()
            },
            ..Default::default()
        };
        for w in &self.workers[..t] {
            total.stats.marks_placed += w.summary.stats.marks_placed;
            total.stats.low_degree_vertices += w.summary.stats.low_degree_vertices;
            total.rng_draws += w.summary.rng_draws;
            total.overlay_writes += w.summary.overlay_writes;
        }
        total
    }

    /// Append the edges the last [`MarkScratch::mark`] marked to `out`,
    /// as strictly lex-sorted `(u, v)` pairs with `u < v` — exactly the
    /// sorted, distinct marked edge ids mapped to their endpoints. One
    /// linear merge of the workers' sorted keys; an edge marked from two
    /// ranges comes out once.
    pub(crate) fn merge_into(&self, out: &mut Vec<(u32, u32)>) {
        let workers = &self.workers[..self.active];
        if let [only] = workers {
            // A lone worker's keys are already sorted and distinct.
            out.extend(only.keys.iter().map(|&key| key_edge(key)));
            return;
        }
        let mut rest: [&[u64]; MAX_THREADS] = [&[]; MAX_THREADS];
        for (keys, w) in rest.iter_mut().zip(workers) {
            *keys = &w.keys;
        }
        let rest = &mut rest[..workers.len()];
        out.reserve(rest.iter().map(|keys| keys.len()).sum());
        // `u64::MAX` stands for an exhausted worker: no edge key reaches
        // it, because `u < v`.
        let head = |keys: &[u64]| keys.first().copied().unwrap_or(u64::MAX);
        loop {
            let min = rest.iter().map(|keys| head(keys)).min().unwrap_or(u64::MAX);
            if min == u64::MAX {
                return;
            }
            // Advance every worker holding the minimum without branching
            // on the comparison, which a merge of interleaved keys
            // mispredicts.
            for keys in rest.iter_mut() {
                *keys = &keys[usize::from(head(keys) == min)..];
            }
            out.push(key_edge(min));
        }
    }

    /// Heap bytes of buffer capacity held across all workers.
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.workers
            .iter()
            .map(MarkWorker::capacity_bytes)
            .sum::<usize>()
            + self.workers.capacity() * std::mem::size_of::<MarkWorker>()
    }

    /// Forget the last run's marks, keeping every buffer's capacity.
    pub(crate) fn clear(&mut self) {
        for w in &mut self.workers {
            w.indices.clear();
            w.keys.clear();
        }
        self.active = 0;
    }
}

fn build_sparsifier_parallel_impl(
    g: &CsrGraph,
    params: &SparsifierParams,
    seed: u64,
    threads: usize,
    meter: Option<&mut WorkMeter>,
) -> Result<Sparsifier, ThreadCountError> {
    if threads == 0 || threads > MAX_THREADS {
        return Err(ThreadCountError { requested: threads });
    }
    let mut marks = MarkScratch::new();
    let summary = marks.mark(g, params, seed, threads);
    let mut edges = Vec::new();
    marks.merge_into(&mut edges);
    let graph = from_sorted_edges(g.num_vertices(), edges);
    let mut stats = summary.stats;
    stats.edges = graph.num_edges();
    if let Some(meter) = meter {
        // Same analytic probe accounting as the sequential CSR path:
        // two degree reads per vertex, one adjacency-entry read per mark.
        meter.add(keys::DEGREE_PROBES, 2 * g.num_vertices() as u64);
        meter.add(keys::NEIGHBOR_PROBES, stats.marks_placed as u64);
        meter.add(keys::SPARSIFIER_EDGES, stats.edges as u64);
        meter.add(keys::RNG_DRAWS, summary.rng_draws);
        meter.add(keys::OVERLAY_WRITES, summary.overlay_writes);
    }
    Ok(Sparsifier { graph, stats })
}

/// Build the marked edge *list* from any adjacency oracle (no edge ids
/// needed). This is the form used when the input is not materialized as a
/// CSR graph — e.g. the probe-counting experiments and the dynamic setting.
/// Returns endpoint pairs with possible duplicates (an edge can be marked
/// from both sides); deduplication happens wherever a graph is built.
pub fn mark_edges_oracle(
    g: &impl AdjacencyOracle,
    params: &SparsifierParams,
    rng: &mut impl Rng,
) -> Vec<(VertexId, VertexId)> {
    mark_edges_oracle_impl(g, params, rng, None)
}

/// [`mark_edges_oracle`] with unified work accounting: sampler RNG draws
/// and overlay writes are mirrored into `meter`. (Probe counts are the
/// caller's business — wrap the oracle in a
/// [`sparsimatch_graph::adjacency::CountingOracle`].)
pub fn mark_edges_oracle_metered(
    g: &impl AdjacencyOracle,
    params: &SparsifierParams,
    rng: &mut impl Rng,
    meter: &mut WorkMeter,
) -> Vec<(VertexId, VertexId)> {
    mark_edges_oracle_impl(g, params, rng, Some(meter))
}

fn mark_edges_oracle_impl(
    g: &impl AdjacencyOracle,
    params: &SparsifierParams,
    rng: &mut impl Rng,
    meter: Option<&mut WorkMeter>,
) -> Vec<(VertexId, VertexId)> {
    let n = g.num_vertices();
    // One degree pass sizes both the sampler overlay and the output
    // buffer (each vertex marks ≤ min(deg, mark_cap) edges), so neither
    // grows inside the marking loop.
    let mut max_deg = 0usize;
    let mut mark_bound = 0usize;
    for v in 0..n {
        let deg = g.degree(VertexId::new(v));
        max_deg = max_deg.max(deg);
        mark_bound += deg.min(params.mark_cap());
    }
    let mut sampler = PosArraySampler::new(max_deg);
    let mut indices: Vec<u32> = Vec::with_capacity(params.mark_cap().max(1));
    let mut out = Vec::with_capacity(mark_bound);
    for v in 0..n {
        let v = VertexId::new(v);
        mark_indices_for_vertex(
            g,
            v,
            params.delta,
            params.mark_cap(),
            &mut sampler,
            rng,
            &mut indices,
        );
        for &i in &indices {
            out.push((v, g.neighbor(v, i as usize)));
        }
    }
    if let Some(meter) = meter {
        sampler.mirror_into(meter);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use sparsimatch_graph::analysis::arboricity::arboricity_bounds;
    use sparsimatch_graph::generators::{
        clique, clique_union, gnp, star, unit_disk, CliqueUnionConfig, UnitDiskConfig,
    };
    use sparsimatch_matching::blossom::maximum_matching;

    fn params(beta: usize, eps: f64, delta: usize) -> SparsifierParams {
        SparsifierParams::with_delta(beta, eps, delta)
    }

    /// The edge-id form of the marking: every vertex's marked incident
    /// edge ids from its own seeded stream, sorted and deduplicated, then
    /// mapped to their endpoints.
    fn marked_by_id(g: &CsrGraph, p: &SparsifierParams, seed: u64) -> Vec<(u32, u32)> {
        let mut sampler = PosArraySampler::new(g.max_degree());
        let mut indices = Vec::new();
        let mut ids = Vec::new();
        for v in 0..g.num_vertices() {
            let vid = VertexId::new(v);
            let mut rng = StdRng::seed_from_u64(seed ^ (v as u64).wrapping_mul(0x9E3779B97F4A7C15));
            let (delta, cap) = (p.delta, p.mark_cap());
            mark_indices_for_vertex(g, vid, delta, cap, &mut sampler, &mut rng, &mut indices);
            ids.extend(indices.iter().map(|&i| g.incident_edge(vid, i as usize)));
        }
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter()
            .map(|e| {
                let (u, v) = g.edge_endpoints(e);
                (u.0, v.0)
            })
            .collect()
    }

    /// One marking run: the merged pairs and the summed counters.
    fn marked(
        marks: &mut MarkScratch,
        g: &CsrGraph,
        p: &SparsifierParams,
        seed: u64,
        threads: usize,
    ) -> (Vec<(u32, u32)>, MarkSummary) {
        let summary = marks.mark(g, p, seed, threads);
        let mut pairs = Vec::new();
        marks.merge_into(&mut pairs);
        (pairs, summary)
    }

    #[test]
    fn marking_is_worker_count_invariant_on_reused_scratch() {
        // One scratch dragged across graphs, seeds and worker counts —
        // including more workers than vertices — must reproduce a fresh
        // one-worker run exactly: pairs and every counter. The pairs are
        // the sorted, distinct marked edge ids mapped to their endpoints.
        let mut rng = StdRng::seed_from_u64(40);
        let graphs = [
            clique(90),
            star(200),
            gnp(150, 0.08, &mut rng),
            sparsimatch_graph::csr::from_edges(0, []),
            sparsimatch_graph::csr::from_edges(5, []),
        ];
        let p = params(2, 0.4, 3);
        let mut reused = MarkScratch::new();
        for (i, g) in graphs.iter().enumerate() {
            for seed in [0u64, 17, 99] {
                let (pairs, summary) = marked(&mut MarkScratch::new(), g, &p, seed, 1);
                assert_eq!(pairs, marked_by_id(g, &p, seed), "graph {i} seed {seed}");
                for threads in [1usize, 2, 3, 8, MAX_THREADS] {
                    let got = marked(&mut reused, g, &p, seed, threads);
                    assert_eq!(
                        got,
                        (pairs.clone(), summary),
                        "graph {i} seed {seed} t {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn sparsifier_is_subgraph() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = gnp(60, 0.3, &mut rng);
        let s = build_sparsifier(&g, &params(3, 0.5, 4), &mut rng);
        assert_eq!(s.graph.num_vertices(), g.num_vertices());
        for (_, u, v) in s.graph.edges() {
            assert!(g.has_edge(u, v), "sparsifier edge not in input");
        }
    }

    #[test]
    fn low_degree_vertices_keep_everything() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = star(50); // center degree 49, leaves degree 1
        let p = params(1, 0.5, 3); // mark_cap = 6 < 49
        let s = build_sparsifier(&g, &p, &mut rng);
        // All leaves are low degree and mark their only edge, so G_Δ = G.
        assert_eq!(s.graph.num_edges(), 49);
        assert_eq!(s.stats.low_degree_vertices, 49);
    }

    #[test]
    fn high_degree_vertices_mark_exactly_delta() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = clique(100);
        let p = params(1, 0.5, 5);
        let s = build_sparsifier(&g, &p, &mut rng);
        // Every vertex has degree 99 > cap 10, so marks 5: total 500 marks,
        // edges <= 500 (collisions dedupe).
        assert_eq!(s.stats.marks_placed, 500);
        assert!(s.stats.edges <= 500);
        assert!(s.stats.edges >= 250, "at least marks/2 distinct edges");
        assert_eq!(s.stats.low_degree_vertices, 0);
    }

    #[test]
    fn naive_size_bound_holds_always() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..5 {
            let g = gnp(80, 0.4, &mut rng);
            let p = params(2, 0.5, 3);
            let s = build_sparsifier(&g, &p, &mut rng);
            assert!(s.stats.edges <= p.naive_size_bound(g.num_vertices()));
        }
    }

    #[test]
    fn observation_2_10_size_bound() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = clique_union(
            CliqueUnionConfig {
                n: 100,
                diversity: 2,
                clique_size: 25,
            },
            &mut rng,
        );
        let p = params(2, 0.5, 4);
        let mcm = maximum_matching(&g).len();
        for _ in 0..5 {
            let s = build_sparsifier(&g, &p, &mut rng);
            assert!(
                s.stats.edges <= p.size_bound(mcm),
                "{} > bound {}",
                s.stats.edges,
                p.size_bound(mcm)
            );
        }
    }

    #[test]
    fn observation_2_12_arboricity_bound() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = clique(120);
        let p = params(1, 0.5, 4);
        let s = build_sparsifier(&g, &p, &mut rng);
        let (_, hi) = arboricity_bounds(&s.graph);
        assert!(
            hi <= p.arboricity_bound(),
            "arboricity upper bound {hi} exceeds {}",
            p.arboricity_bound()
        );
    }

    #[test]
    fn preserves_matching_on_unit_disk() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = unit_disk(
            UnitDiskConfig::with_expected_degree(300, 1.0, 20.0),
            &mut rng,
        );
        let p = SparsifierParams::practical(5, 0.5);
        let exact = maximum_matching(&g).len();
        let s = build_sparsifier(&g, &p, &mut rng);
        let sparse_mcm = maximum_matching(&s.graph).len();
        assert!(
            (sparse_mcm as f64) * 1.5 >= exact as f64,
            "sparse {sparse_mcm} vs exact {exact}"
        );
    }

    #[test]
    fn oracle_marks_match_graph_structure() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = gnp(40, 0.3, &mut rng);
        let p = params(2, 0.5, 3);
        let marks = mark_edges_oracle(&g, &p, &mut rng);
        for &(u, v) in &marks {
            assert!(g.has_edge(u, v));
        }
        // Each vertex contributes min(deg, cap or delta) marks.
        let mut per_vertex = vec![0usize; g.num_vertices()];
        for &(u, _) in &marks {
            per_vertex[u.index()] += 1;
        }
        for (v, &count) in per_vertex.iter().enumerate() {
            let deg = g.degree(VertexId::new(v));
            let expect = if deg <= p.mark_cap() { deg } else { p.delta };
            assert_eq!(count, expect);
        }
    }

    #[test]
    fn parallel_build_is_thread_count_invariant() {
        let mut rng = StdRng::seed_from_u64(10);
        let g = clique_union(
            CliqueUnionConfig {
                n: 200,
                diversity: 2,
                clique_size: 40,
            },
            &mut rng,
        );
        let p = params(2, 0.4, 6);
        let reference = build_sparsifier_parallel(&g, &p, 42, 1).unwrap();
        for threads in [2usize, 4, 7] {
            let s = build_sparsifier_parallel(&g, &p, 42, threads).unwrap();
            let e1: Vec<_> = reference
                .graph
                .edges()
                .map(|(_, u, v)| (u.0, v.0))
                .collect();
            let e2: Vec<_> = s.graph.edges().map(|(_, u, v)| (u.0, v.0)).collect();
            assert_eq!(e1, e2, "threads = {threads}");
            assert_eq!(s.stats.marks_placed, reference.stats.marks_placed);
            assert_eq!(
                s.stats.low_degree_vertices,
                reference.stats.low_degree_vertices
            );
        }
    }

    #[test]
    fn parallel_build_meets_same_bounds() {
        let g = clique(150);
        let p = params(1, 0.5, 5);
        let s = build_sparsifier_parallel(&g, &p, 7, 4).unwrap();
        assert!(s.stats.edges <= p.naive_size_bound(150));
        for (_, u, v) in s.graph.edges() {
            assert!(g.has_edge(u, v));
        }
        let mcm = maximum_matching(&s.graph).len();
        assert!(mcm * 2 >= 75, "sparse mcm {mcm}");
    }

    #[test]
    fn parallel_build_rejects_bad_thread_counts() {
        let g = clique(10);
        let p = params(1, 0.5, 2);
        assert_eq!(
            build_sparsifier_parallel(&g, &p, 1, 0).unwrap_err(),
            ThreadCountError { requested: 0 }
        );
        let err = build_sparsifier_parallel(&g, &p, 1, MAX_THREADS + 1).unwrap_err();
        assert_eq!(err.requested, MAX_THREADS + 1);
        assert!(err.to_string().contains("between 1 and 64"));
        assert!(build_sparsifier_parallel(&g, &p, 1, MAX_THREADS).is_ok());
    }

    #[test]
    fn metered_build_matches_unmetered_and_counts_work() {
        let g = clique(80);
        let p = params(1, 0.5, 4);
        let mut rng1 = StdRng::seed_from_u64(11);
        let mut rng2 = StdRng::seed_from_u64(11);
        let mut meter = sparsimatch_obs::WorkMeter::new();
        let plain = build_sparsifier(&g, &p, &mut rng1);
        let metered = build_sparsifier_metered(&g, &p, &mut rng2, &mut meter);
        let e1: Vec<_> = plain.graph.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        let e2: Vec<_> = metered.graph.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        assert_eq!(e1, e2, "metering must not perturb the build");
        use sparsimatch_obs::keys;
        assert_eq!(meter.get(keys::DEGREE_PROBES), 2 * 80);
        assert_eq!(
            meter.get(keys::NEIGHBOR_PROBES),
            metered.stats.marks_placed as u64
        );
        assert_eq!(
            meter.get(keys::SPARSIFIER_EDGES),
            metered.stats.edges as u64
        );
        // Every vertex is high degree (79 > cap), so each samples delta
        // indices: one RNG draw and one overlay write apiece.
        assert_eq!(meter.get(keys::RNG_DRAWS), 80 * p.delta as u64);
        assert_eq!(meter.get(keys::OVERLAY_WRITES), 80 * p.delta as u64);
    }

    #[test]
    fn metered_parallel_totals_are_thread_count_invariant() {
        let g = clique(60);
        let p = params(1, 0.5, 3);
        let mut m1 = sparsimatch_obs::WorkMeter::new();
        let mut m4 = sparsimatch_obs::WorkMeter::new();
        let s1 = build_sparsifier_parallel_metered(&g, &p, 9, 1, &mut m1).unwrap();
        let s4 = build_sparsifier_parallel_metered(&g, &p, 9, 4, &mut m4).unwrap();
        assert_eq!(s1.stats.edges, s4.stats.edges);
        let c1: Vec<_> = m1.counters().map(|(k, v)| (k.to_string(), v)).collect();
        let c4: Vec<_> = m4.counters().map(|(k, v)| (k.to_string(), v)).collect();
        assert_eq!(c1, c4);
    }

    #[test]
    fn empty_graph_sparsifies_to_empty() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = sparsimatch_graph::csr::from_edges(10, []);
        let s = build_sparsifier(&g, &params(1, 0.5, 2), &mut rng);
        assert_eq!(s.graph.num_edges(), 0);
        assert_eq!(s.stats.marks_placed, 0);
    }

    fn assert_thread_count_invariant(g: &CsrGraph, p: &SparsifierParams, label: &str) {
        let reference = build_sparsifier_parallel(g, p, 42, 1).unwrap();
        let e1: Vec<_> = reference
            .graph
            .edges()
            .map(|(_, u, v)| (u.0, v.0))
            .collect();
        for threads in [2usize, 4, 8] {
            let s = build_sparsifier_parallel(g, p, 42, threads).unwrap();
            let e2: Vec<_> = s.graph.edges().map(|(_, u, v)| (u.0, v.0)).collect();
            assert_eq!(e1, e2, "{label}: threads = {threads}");
            assert_eq!(
                s.stats.marks_placed, reference.stats.marks_placed,
                "{label}"
            );
            assert_eq!(s.stats.edges, reference.stats.edges, "{label}");
        }
    }

    #[test]
    fn parallel_build_invariant_on_adversarial_families() {
        use sparsimatch_graph::generators::clique_minus_edge;
        // Star: one hub whose degree dwarfs every per-worker range — the
        // worker holding the hub sizes its overlay up, the rest stay tiny.
        assert_thread_count_invariant(&star(5_000), &params(1, 0.5, 3), "star");
        // Lemma 2.13's clique-minus-edge instance.
        assert_thread_count_invariant(
            &clique_minus_edge(120, (0, 119)),
            &params(1, 0.5, 4),
            "clique-minus-edge",
        );
    }

    #[test]
    fn parallel_build_invariant_on_degenerate_graphs() {
        let empty = sparsimatch_graph::csr::from_edges(0, []);
        assert_thread_count_invariant(&empty, &params(1, 0.5, 2), "empty");
        let singleton = sparsimatch_graph::csr::from_edges(1, []);
        assert_thread_count_invariant(&singleton, &params(1, 0.5, 2), "singleton");
        let one_edge = sparsimatch_graph::csr::from_edges(2, [(0, 1)]);
        assert_thread_count_invariant(&one_edge, &params(1, 0.5, 2), "one-edge");
    }

    #[test]
    fn sequential_and_parallel_agree_on_marked_edge_sets_shape() {
        // The sequential RNG-stream build and the seeded parallel build use
        // different randomness, but both must respect the per-vertex mark
        // budget; compare the deterministic consequences.
        let g = clique(90);
        let p = params(1, 0.5, 4);
        let mut rng = StdRng::seed_from_u64(13);
        let seq = build_sparsifier(&g, &p, &mut rng);
        let par = build_sparsifier_parallel(&g, &p, 13, 4).unwrap();
        assert_eq!(seq.stats.marks_placed, par.stats.marks_placed);
        assert_eq!(seq.stats.low_degree_vertices, par.stats.low_degree_vertices);
        assert!(par.stats.edges <= p.naive_size_bound(90));
    }
}
