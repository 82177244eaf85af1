//! The random matching sparsifier `G_Δ` (Section 2 of the paper).
//!
//! Every vertex marks Δ uniform incident edges without replacement —
//! all of them if its degree is at most the low-degree threshold `2Δ`
//! (the Section 3.1 tweak that enables deterministic-time sampling). The
//! sparsifier is the subgraph of all marked edges, over the *same* vertex
//! set, so a matching in `G_Δ` is a matching in `G` verbatim.

use crate::params::SparsifierParams;
use crate::sampler::{mark_indices_for_vertex, vertex_rng, PosArraySampler};
use sparsimatch_graph::bitset::BitSet;
use sparsimatch_graph::csr::{from_sorted_edges, CsrGraph};
use sparsimatch_graph::ids::VertexId;
use sparsimatch_obs::{keys, WorkMeter};

/// Maximum accepted thread count for [`build_sparsifier`].
///
/// The cap is a sanity bound, not a memory-safety requirement: each worker
/// allocates only a sampler overlay sized to the largest degree in its own
/// vertex range plus a mark buffer proportional to the marks it places, so
/// oversubscribing the host merely wastes scheduling — it cannot blow up
/// memory. Requests outside `1..=MAX_THREADS` are still rejected with
/// [`ThreadCountError`] rather than silently clamped, because a wildly
/// out-of-range request is almost certainly a caller bug.
pub const MAX_THREADS: usize = 64;

/// An out-of-range thread count passed to [`build_sparsifier`].
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

/// Build `G_Δ` from a CSR graph with `threads` marking workers. Runs in
/// time `O(n + |E(G_Δ)|)` up to sorting the sampled vertices' marks and
/// the keep-all vertices' edges to sampled lower neighbours, and one
/// binary search per run of consecutive keep-all vertices, whose edges
/// are copied from the sorted input: linear in the *output*, not the
/// input (Theorem 3.1's construction bound).
///
/// Every vertex `v` marks from its own stream
/// [`vertex_rng`]`(seed, v)`, so the output depends only on `seed`, never
/// on `threads`, and matches the out-of-core build
/// ([`crate::stream_build::build_sparsifier_streamed`]) edge for edge.
/// With a `meter`, adjacency probes, sampler RNG draws and overlay writes,
/// the sparsifier size and the keep-all vertex count are added to it (see
/// [`sparsimatch_obs::keys`]);
/// per-worker counters are summed first, so the totals are thread-count
/// invariant too. Rejects `threads` outside `1..=`[`MAX_THREADS`] with a
/// [`ThreadCountError`] (no silent clamping).
///
/// ```
/// use sparsimatch_core::params::SparsifierParams;
/// use sparsimatch_core::sparsifier::build_sparsifier;
/// use sparsimatch_graph::generators::clique;
///
/// let g = clique(200); // β = 1, ~20k edges
/// let params = SparsifierParams::practical(1, 0.3);
/// let s = build_sparsifier(&g, &params, 7, 1, None).unwrap();
/// assert!(s.stats.edges <= params.naive_size_bound(200));
/// assert!(s.stats.edges < g.num_edges() / 2, "much sparser than the input");
/// ```
pub fn build_sparsifier(
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
    marks.merge_into(g, &mut edges);
    let graph = from_sorted_edges(g.num_vertices(), edges);
    let mut stats = summary.stats;
    stats.edges = graph.num_edges();
    if let Some(meter) = meter {
        // The CSR fast path reads the graph directly, so probes are
        // accounted analytically: two degree reads per vertex (the
        // low-degree check and the one inside `mark_indices_for_vertex`)
        // and one adjacency-entry read per mark placed.
        meter.add(keys::DEGREE_PROBES, 2 * g.num_vertices() as u64);
        meter.add(keys::NEIGHBOR_PROBES, stats.marks_placed as u64);
        meter.add(keys::SPARSIFIER_EDGES, stats.edges as u64);
        meter.add(keys::KEEP_ALL_VERTICES, stats.low_degree_vertices as u64);
        meter.add(keys::RNG_DRAWS, summary.rng_draws);
        meter.add(keys::OVERLAY_WRITES, summary.overlay_writes);
    }
    Ok(Sparsifier { graph, stats })
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
    /// Sorted, distinct [`edge_key`]s pushed by this worker's vertex
    /// range: every mark of a sampled vertex, and each edge from a
    /// keep-all vertex to a sampled lower neighbour. The merge copies
    /// every other marked edge from the CSR.
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

    /// Mark the edges of the vertices in `range`, then sort and
    /// deduplicate the keys pushed. A keep-all vertex marks every edge
    /// without drawing, and of those only an edge to a sampled lower
    /// neighbour needs a key: the merge copies every edge whose lower
    /// endpoint keeps all from the CSR. A sampled vertex keys every
    /// mark, so on a graph where every vertex samples this is the plain
    /// every-mark loop, and where every vertex keeps all no key is
    /// pushed. Allocation-free once the buffers have capacity.
    fn mark_range(
        &mut self,
        g: &CsrGraph,
        params: &SparsifierParams,
        seed: u64,
        range: std::ops::Range<usize>,
        keep_all: &KeepAll,
    ) {
        let draws_before = self.sampler.rng_draws();
        let writes_before = self.sampler.overlay_writes();
        self.keys.clear();
        let mut marks = 0;
        let mut sampled = 0;
        let mut max_deg = 0;
        // The keep-all vertices' keys are the same in every run on one
        // graph, so pushing them before the reserve below keeps a warm
        // run allocation-free.
        for v in range.clone() {
            let vid = VertexId::new(v);
            let deg = g.degree(vid);
            if !keep_all.contains(v) {
                sampled += 1;
                max_deg = max_deg.max(deg);
                continue;
            }
            marks += deg;
            if v > keep_all.first_sampled {
                for x in g.neighbors(vid).take_while(|x| x.0 < vid.0) {
                    if !keep_all.contains(x.index()) {
                        self.keys.push(edge_key(x.0, vid.0));
                    }
                }
            }
        }
        // Size the overlay to this range's own largest sampled degree (a
        // star hub inflates one worker's overlay, not all of them). Every
        // sampled vertex places Δ marks.
        self.sampler.ensure_capacity(max_deg.max(1));
        self.keys.reserve(sampled * params.delta);
        for v in range.filter(|&v| !keep_all.contains(v)) {
            let vid = VertexId::new(v);
            self.sample(g, params, seed, vid);
            marks += self.indices.len();
            for &i in &self.indices {
                self.keys
                    .push(edge_key(vid.0, g.neighbor(vid, i as usize).0));
            }
        }
        self.keys.sort_unstable();
        self.keys.dedup();
        self.summary = MarkSummary {
            stats: SparsifierStats {
                marks_placed: marks,
                ..Default::default()
            },
            rng_draws: self.sampler.rng_draws() - draws_before,
            overlay_writes: self.sampler.overlay_writes() - writes_before,
        };
    }

    /// Draw `v`'s mark indices into `indices`.
    #[inline(always)]
    fn sample(&mut self, g: &CsrGraph, params: &SparsifierParams, seed: u64, v: VertexId) {
        // Every vertex samples from its own stream, so the marks do not
        // depend on which worker draws them, and the out-of-core build
        // and distsim's protocols, which run the same sampler, place the
        // same ones.
        let mut rng = vertex_rng(seed, v.index());
        mark_indices_for_vertex(
            g,
            v,
            params.delta,
            params.mark_cap(),
            &mut self.sampler,
            &mut rng,
            &mut self.indices,
        );
    }

    fn capacity_bytes(&self) -> usize {
        use std::mem::size_of;
        self.sampler.capacity_bytes()
            + self.indices.capacity() * size_of::<u32>()
            + self.keys.capacity() * size_of::<u64>()
    }
}

/// The vertices of a marking run that keep all their edges
/// (deg ≤ `mark_cap`), recorded once per run before any worker starts.
struct KeepAll {
    set: BitSet,
    /// How many vertices are in `set`.
    count: usize,
    /// The least vertex not in `set`, or `n`: a keep-all vertex at or
    /// below it has no sampled lower neighbour.
    first_sampled: usize,
}

impl KeepAll {
    fn new() -> Self {
        KeepAll {
            set: BitSet::new(),
            count: 0,
            first_sampled: 0,
        }
    }

    /// Record which vertices of `g` have degree at most `cap`.
    fn record(&mut self, g: &CsrGraph, cap: usize) {
        let n = g.num_vertices();
        self.set.clear_and_resize(n);
        self.count = 0;
        self.first_sampled = n;
        for v in 0..n {
            if g.degree(VertexId::new(v)) <= cap {
                self.set.set(v);
                self.count += 1;
            } else {
                self.first_sampled = self.first_sampled.min(v);
            }
        }
    }

    #[inline(always)]
    fn contains(&self, v: usize) -> bool {
        self.set.get(v)
    }

    /// Each maximal run of consecutive keep-all vertices, in order, with
    /// the range of `edges`, the graph's lex-sorted endpoint pairs, whose
    /// lower endpoint lies in the run. A binary search finds each range,
    /// so a run costs its length plus `O(log m)`, whatever the sampled
    /// vertices between runs hold.
    fn runs<'a>(
        &'a self,
        edges: &'a [(u32, u32)],
    ) -> impl Iterator<Item = (std::ops::Range<usize>, std::ops::Range<usize>)> + 'a {
        let n = self.set.len();
        let (mut v, mut at) = (0, 0);
        std::iter::from_fn(move || {
            while v < n && !self.contains(v) {
                v += 1;
            }
            if v == n {
                return None;
            }
            let start = v;
            while v < n && self.contains(v) {
                v += 1;
            }
            let from = at + edges[at..].partition_point(|&(a, _)| (a as usize) < start);
            at = from + edges[from..].partition_point(|&(a, _)| (a as usize) < v);
            Some((start..v, from..at))
        })
    }
}

/// The marking stage's reusable state: one worker per thread and the
/// keep-all set, kept across runs so a warm run allocates nothing but
/// the thread spawns.
pub(crate) struct MarkScratch {
    workers: Vec<MarkWorker>,
    /// How many workers the last run used (a prefix of `workers`).
    active: usize,
    /// The last run's keep-all vertices.
    keep_all: KeepAll,
}

impl MarkScratch {
    /// No workers yet; they are created on first use.
    pub(crate) fn new() -> Self {
        MarkScratch {
            workers: Vec::new(),
            active: 0,
            keep_all: KeepAll::new(),
        }
    }

    /// Mark `G_Δ`'s edges with up to `threads` workers over contiguous,
    /// non-empty vertex ranges, after recording which vertices keep all
    /// their edges. The first worker runs on the calling thread, so one
    /// worker never enters `thread::scope`. Per-vertex seeding makes the
    /// marks, and the summed counters, independent of the worker count;
    /// [`MarkScratch::merge_into`] writes out the marked edges.
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
        self.keep_all.record(g, params.mark_cap());
        let MarkScratch {
            workers, keep_all, ..
        } = self;
        let keep_all = &*keep_all;
        let bound = |i: usize| i * n / t;
        match &mut workers[..t] {
            [only] => only.mark_range(g, params, seed, 0..n, keep_all),
            [first, rest @ ..] => std::thread::scope(|s| {
                for (i, worker) in rest.iter_mut().enumerate() {
                    let range = bound(i + 1)..bound(i + 2);
                    s.spawn(move || worker.mark_range(g, params, seed, range, keep_all));
                }
                first.mark_range(g, params, seed, 0..bound(1), keep_all);
            }),
            [] => unreachable!("at least one worker"),
        }
        let mut total = MarkSummary {
            stats: SparsifierStats {
                delta: params.delta,
                mark_cap: params.mark_cap(),
                low_degree_vertices: self.keep_all.count,
                ..Default::default()
            },
            ..Default::default()
        };
        for w in &self.workers[..t] {
            total.stats.marks_placed += w.summary.stats.marks_placed;
            total.rng_draws += w.summary.rng_draws;
            total.overlay_writes += w.summary.overlay_writes;
        }
        total
    }

    /// Append the edges the last [`MarkScratch::mark`] on `g` marked to
    /// `out`, as strictly lex-sorted `(u, v)` pairs with `u < v` — exactly
    /// the sorted, distinct marked edge ids mapped to their endpoints.
    /// Lower endpoints are walked in order: a run of keep-all vertices
    /// copies its edges straight from `g`'s sorted endpoint list, and the
    /// workers' sorted keys, merged linearly, fill in every sampled lower
    /// endpoint; an edge marked from two ranges comes out once.
    pub(crate) fn merge_into(&self, g: &CsrGraph, out: &mut Vec<(u32, u32)>) {
        debug_assert_eq!(
            self.keep_all.set.len(),
            g.num_vertices(),
            "not the marked graph"
        );
        let workers = &self.workers[..self.active];
        let mut heads: [&[u64]; MAX_THREADS] = [&[]; MAX_THREADS];
        for (keys, w) in heads.iter_mut().zip(workers) {
            *keys = &w.keys;
        }
        let heads = &mut heads[..workers.len()];
        let edges = g.endpoint_pairs();
        let keys: usize = heads.iter().map(|keys| keys.len()).sum();
        let copied: usize = self.keep_all.runs(edges).map(|(_, run)| run.len()).sum();
        out.reserve(keys + copied);
        for (vertices, run) in self.keep_all.runs(edges) {
            merge_keys_below(heads, (vertices.start as u64) << 32, out);
            out.extend_from_slice(&edges[run]);
            // A sampled vertex's mark to a lower neighbour in the run
            // repeats a copied edge.
            let past = (vertices.end as u64) << 32;
            for keys in heads.iter_mut() {
                *keys = &keys[keys.partition_point(|&key| key < past)..];
            }
        }
        merge_keys_below(heads, u64::MAX, out);
    }

    /// Heap bytes of buffer capacity held across all workers and the
    /// keep-all set.
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.workers
            .iter()
            .map(MarkWorker::capacity_bytes)
            .sum::<usize>()
            + self.workers.capacity() * std::mem::size_of::<MarkWorker>()
            + self.keep_all.set.capacity_bytes()
    }
}

/// Append every key below `limit` at the front of the workers' sorted,
/// distinct key slices `heads` to `out`, in order and once each, and
/// advance the slices past them.
fn merge_keys_below(heads: &mut [&[u64]], limit: u64, out: &mut Vec<(u32, u32)>) {
    if let [only] = heads {
        // A lone worker's keys are already sorted and distinct.
        let below = only.partition_point(|&key| key < limit);
        out.extend(only[..below].iter().map(|&key| key_edge(key)));
        *only = &only[below..];
        return;
    }
    // `u64::MAX` stands for an exhausted worker: no edge key reaches it,
    // because `u < v`.
    let head = |keys: &[u64]| keys.first().copied().unwrap_or(u64::MAX);
    loop {
        let min = heads
            .iter()
            .map(|keys| head(keys))
            .min()
            .unwrap_or(u64::MAX);
        if min >= limit {
            return;
        }
        // Advance every worker holding the minimum without branching on
        // the comparison, which a merge of interleaved keys mispredicts.
        for keys in heads.iter_mut() {
            *keys = &keys[usize::from(head(keys) == min)..];
        }
        out.push(key_edge(min));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, RngCore, SeedableRng};
    use sparsimatch_graph::analysis::arboricity::arboricity_bounds;
    use sparsimatch_graph::generators::{
        clique, clique_union, cycle, gnp, path, power_law, star, unit_disk, CliqueUnionConfig,
        UnitDiskConfig,
    };
    use sparsimatch_matching::blossom::maximum_matching;

    fn params(beta: usize, eps: f64, delta: usize) -> SparsifierParams {
        SparsifierParams::with_delta(beta, eps, delta)
    }

    /// One-worker build, unmetered.
    fn build(g: &CsrGraph, p: &SparsifierParams, seed: u64) -> Sparsifier {
        build_sparsifier(g, p, seed, 1, None).unwrap()
    }

    fn edge_pairs(g: &CsrGraph) -> Vec<(u32, u32)> {
        g.edges().map(|(_, u, v)| (u.0, v.0)).collect()
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
            let mut rng = vertex_rng(seed, v);
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
        marks.merge_into(g, &mut pairs);
        (pairs, summary)
    }

    #[test]
    fn marking_is_worker_count_invariant_on_reused_scratch() {
        // One scratch dragged across graphs, seeds and worker counts —
        // including more workers than vertices — must reproduce a fresh
        // one-worker run exactly: pairs and every counter. The pairs are
        // the sorted, distinct marked edge ids mapped to their endpoints.
        // The cap is 6: the clique samples at every vertex, the cycle
        // keeps all at every vertex, and the star, G(n, p) and power law
        // mix keep-all vertices with sampled ones (the power law's hubs).
        let mut rng = StdRng::seed_from_u64(40);
        let graphs = [
            clique(90),
            star(200),
            gnp(150, 0.08, &mut rng),
            sparsimatch_graph::csr::from_edges(0, []),
            sparsimatch_graph::csr::from_edges(5, []),
            cycle(120),
            power_law(400, 2, &mut rng),
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
    fn keep_all_vertices_push_no_key() {
        // Every vertex of a cycle or path keeps all its edges (degree
        // 2 <= cap 6), so G_Δ = G comes out of the CSR without a single
        // key to sort, at any worker count.
        let p = params(2, 0.4, 3);
        for g in [cycle(300), path(257)] {
            let mut marks = MarkScratch::new();
            for threads in [1usize, 2, 3, 8] {
                let (pairs, summary) = marked(&mut marks, &g, &p, 5, threads);
                assert!(marks.workers[..marks.active]
                    .iter()
                    .all(|w| w.keys.is_empty()));
                assert_eq!(pairs, edge_pairs(&g), "t {threads}");
                assert_eq!(summary.stats.low_degree_vertices, g.num_vertices());
                assert_eq!(summary.stats.marks_placed, 2 * g.num_edges());
            }
        }
        // A star's hub (vertex 0) samples, so each leaf keys its edge to
        // the hub, and the hub's own marks add nothing new.
        let g = star(40);
        let mut marks = MarkScratch::new();
        let (pairs, _) = marked(&mut marks, &g, &p, 5, 1);
        assert_eq!(pairs, edge_pairs(&g));
        assert_eq!(marks.workers[0].keys.len(), 39);
        // With the hub last, every leaf lies below it: the leaves push
        // nothing, and the hub's Δ keys repeat edges the merge copies from
        // the leaves' run, so each comes out once.
        let g = sparsimatch_graph::csr::from_edges(40, (0..39).map(|leaf| (leaf, 39)));
        for threads in [1usize, 2, 8] {
            let (pairs, summary) = marked(&mut marks, &g, &p, 5, threads);
            let keys: usize = marks.workers[..threads].iter().map(|w| w.keys.len()).sum();
            assert_eq!(keys, p.delta, "t {threads}");
            assert_eq!(pairs, edge_pairs(&g), "t {threads}");
            assert_eq!(summary.stats.low_degree_vertices, 39);
        }
    }

    #[test]
    fn sparsifier_is_subgraph() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = gnp(60, 0.3, &mut rng);
        let s = build(&g, &params(3, 0.5, 4), rng.next_u64());
        assert_eq!(s.graph.num_vertices(), g.num_vertices());
        for (_, u, v) in s.graph.edges() {
            assert!(g.has_edge(u, v), "sparsifier edge not in input");
        }
    }

    #[test]
    fn low_degree_vertices_keep_everything() {
        let g = star(50); // center degree 49, leaves degree 1
        let p = params(1, 0.5, 3); // mark_cap = 6 < 49
        let s = build(&g, &p, 2);
        // All leaves are low degree and mark their only edge, so G_Δ = G.
        assert_eq!(s.graph.num_edges(), 49);
        assert_eq!(s.stats.low_degree_vertices, 49);
    }

    #[test]
    fn high_degree_vertices_mark_exactly_delta() {
        let g = clique(100);
        let p = params(1, 0.5, 5);
        let s = build(&g, &p, 3);
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
            let s = build(&g, &p, rng.next_u64());
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
            let s = build(&g, &p, rng.next_u64());
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
        let g = clique(120);
        let p = params(1, 0.5, 4);
        let s = build(&g, &p, 6);
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
        let s = build(&g, &p, rng.next_u64());
        let sparse_mcm = maximum_matching(&s.graph).len();
        assert!(
            (sparse_mcm as f64) * 1.5 >= exact as f64,
            "sparse {sparse_mcm} vs exact {exact}"
        );
    }

    #[test]
    fn build_is_thread_count_invariant() {
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
        let reference = build(&g, &p, 42);
        for threads in [2usize, 4, 7] {
            let s = build_sparsifier(&g, &p, 42, threads, None).unwrap();
            assert_eq!(
                edge_pairs(&reference.graph),
                edge_pairs(&s.graph),
                "threads = {threads}"
            );
            assert_eq!(s.stats.marks_placed, reference.stats.marks_placed);
            assert_eq!(
                s.stats.low_degree_vertices,
                reference.stats.low_degree_vertices
            );
        }
    }

    #[test]
    fn multi_worker_build_meets_same_bounds() {
        let g = clique(150);
        let p = params(1, 0.5, 5);
        let s = build_sparsifier(&g, &p, 7, 4, None).unwrap();
        assert!(s.stats.edges <= p.naive_size_bound(150));
        for (_, u, v) in s.graph.edges() {
            assert!(g.has_edge(u, v));
        }
        let mcm = maximum_matching(&s.graph).len();
        assert!(mcm * 2 >= 75, "sparse mcm {mcm}");
    }

    #[test]
    fn build_rejects_bad_thread_counts() {
        let g = clique(10);
        let p = params(1, 0.5, 2);
        assert_eq!(
            build_sparsifier(&g, &p, 1, 0, None).unwrap_err(),
            ThreadCountError { requested: 0 }
        );
        let err = build_sparsifier(&g, &p, 1, MAX_THREADS + 1, None).unwrap_err();
        assert_eq!(err.requested, MAX_THREADS + 1);
        assert!(err.to_string().contains("between 1 and 64"));
        assert!(build_sparsifier(&g, &p, 1, MAX_THREADS, None).is_ok());
    }

    #[test]
    fn metered_build_matches_unmetered_and_counts_work() {
        let g = clique(80);
        let p = params(1, 0.5, 4);
        let mut meter = sparsimatch_obs::WorkMeter::new();
        let plain = build(&g, &p, 11);
        let metered = build_sparsifier(&g, &p, 11, 1, Some(&mut meter)).unwrap();
        assert_eq!(
            edge_pairs(&plain.graph),
            edge_pairs(&metered.graph),
            "metering must not perturb the build"
        );
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
        assert_eq!(meter.get(keys::KEEP_ALL_VERTICES), 0);
        // A star's leaves keep all; its hub samples.
        let mut meter = sparsimatch_obs::WorkMeter::new();
        build_sparsifier(&star(30), &p, 11, 1, Some(&mut meter)).unwrap();
        assert_eq!(meter.get(keys::KEEP_ALL_VERTICES), 29);
    }

    #[test]
    fn metered_totals_are_thread_count_invariant() {
        let g = clique(60);
        let p = params(1, 0.5, 3);
        let mut m1 = sparsimatch_obs::WorkMeter::new();
        let mut m4 = sparsimatch_obs::WorkMeter::new();
        let s1 = build_sparsifier(&g, &p, 9, 1, Some(&mut m1)).unwrap();
        let s4 = build_sparsifier(&g, &p, 9, 4, Some(&mut m4)).unwrap();
        assert_eq!(s1.stats.edges, s4.stats.edges);
        let c1: Vec<_> = m1.counters().map(|(k, v)| (k.to_string(), v)).collect();
        let c4: Vec<_> = m4.counters().map(|(k, v)| (k.to_string(), v)).collect();
        assert_eq!(c1, c4);
    }

    #[test]
    fn empty_graph_sparsifies_to_empty() {
        let g = sparsimatch_graph::csr::from_edges(10, []);
        let s = build(&g, &params(1, 0.5, 2), 9);
        assert_eq!(s.graph.num_edges(), 0);
        assert_eq!(s.stats.marks_placed, 0);
    }

    fn assert_thread_count_invariant(g: &CsrGraph, p: &SparsifierParams, label: &str) {
        let reference = build(g, p, 42);
        for threads in [2usize, 4, 8] {
            let s = build_sparsifier(g, p, 42, threads, None).unwrap();
            assert_eq!(
                edge_pairs(&reference.graph),
                edge_pairs(&s.graph),
                "{label}: threads = {threads}"
            );
            assert_eq!(
                s.stats.marks_placed, reference.stats.marks_placed,
                "{label}"
            );
            assert_eq!(s.stats.edges, reference.stats.edges, "{label}");
        }
    }

    #[test]
    fn build_invariant_on_adversarial_families() {
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
    fn build_invariant_on_degenerate_graphs() {
        let empty = sparsimatch_graph::csr::from_edges(0, []);
        assert_thread_count_invariant(&empty, &params(1, 0.5, 2), "empty");
        let singleton = sparsimatch_graph::csr::from_edges(1, []);
        assert_thread_count_invariant(&singleton, &params(1, 0.5, 2), "singleton");
        let one_edge = sparsimatch_graph::csr::from_edges(2, [(0, 1)]);
        assert_thread_count_invariant(&one_edge, &params(1, 0.5, 2), "one-edge");
    }
}
