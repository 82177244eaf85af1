//! Immutable compressed-sparse-row (CSR) graphs.
//!
//! [`CsrGraph`] is the in-memory realization of the paper's *adjacency-array
//! representation* (Section 3.1): for every vertex `v` we can read `deg(v)`
//! and the `i`-th neighbor of `v` in O(1), and the arrays are read-only.
//! Every half-edge also records the id of its undirected parent edge, which
//! lets sparsifier constructions collect "marked" edges without hashing.

use crate::ids::{EdgeId, VertexId};

/// An immutable undirected graph in CSR form.
///
/// ```
/// use sparsimatch_graph::csr::from_edges;
/// use sparsimatch_graph::ids::VertexId;
///
/// let g = from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]);
/// assert_eq!(g.num_edges(), 4);
/// assert_eq!(g.degree(VertexId(2)), 3);
/// assert_eq!(g.neighbor(VertexId(2), 0), VertexId(0)); // sorted adjacency
/// assert!(g.has_edge(VertexId(3), VertexId(2)));
/// ```
///
/// Invariants (enforced by [`GraphBuilder`]):
/// * no self-loops and no parallel edges;
/// * each undirected edge `{u, v}` appears as two half-edges, one in each
///   endpoint's adjacency array, both carrying the same [`EdgeId`];
/// * adjacency arrays are sorted by neighbor id (enables O(log deg)
///   adjacency queries).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` indexes `v`'s half-edges; `n + 1`
    /// entries ending at `2m`, which the layout keeps below `2^32`.
    offsets: Vec<u32>,
    /// Neighbor endpoint of each half-edge.
    targets: Vec<u32>,
    /// Undirected parent edge of each half-edge.
    half_edge_ids: Vec<u32>,
    /// Endpoints `(u, v)` with `u < v` of each undirected edge.
    endpoints: Vec<(u32, u32)>,
}

impl CsrGraph {
    /// The number of vertices `n`.
    #[inline(always)]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The number of undirected edges `m`.
    #[inline(always)]
    pub fn num_edges(&self) -> usize {
        self.endpoints.len()
    }

    /// The adjacency offsets: `n + 1` nondecreasing entries from 0 to
    /// `2m`, where `offsets()[v]..offsets()[v + 1]` is the global
    /// half-edge range of `v`'s adjacency window, so `v`'s `i`-th
    /// half-edge has index `offsets()[v] + i`.
    #[inline(always)]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The half-edge index range of `v`'s adjacency window.
    #[inline(always)]
    fn adj_range(&self, v: VertexId) -> std::ops::Range<usize> {
        self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize
    }

    /// The degree of `v`.
    #[inline(always)]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// The maximum degree over all vertices.
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.degree(VertexId::new(v)))
            .max()
            .unwrap_or(0)
    }

    /// The number of vertices with at least one incident edge (the paper's
    /// `n'`; success probabilities depend on `n'` rather than `n`).
    pub fn num_non_isolated(&self) -> usize {
        (0..self.num_vertices())
            .filter(|&v| self.degree(VertexId::new(v)) > 0)
            .count()
    }

    /// The `i`-th neighbor of `v` (O(1), as the adjacency-array model
    /// requires). Panics if `i >= degree(v)`.
    #[inline(always)]
    pub fn neighbor(&self, v: VertexId, i: usize) -> VertexId {
        debug_assert!(i < self.degree(v));
        VertexId(self.targets[self.offsets[v.index()] as usize + i])
    }

    /// The undirected edge id of `v`'s `i`-th half-edge.
    #[inline(always)]
    pub fn incident_edge(&self, v: VertexId, i: usize) -> EdgeId {
        debug_assert!(i < self.degree(v));
        EdgeId(self.half_edge_ids[self.offsets[v.index()] as usize + i])
    }

    /// All neighbors of `v`, sorted by id.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.targets[self.adj_range(v)].iter().map(|&t| VertexId(t))
    }

    /// All `(neighbor, edge_id)` pairs incident on `v`.
    #[inline]
    pub fn incident(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        let range = self.adj_range(v);
        self.targets[range.clone()]
            .iter()
            .zip(&self.half_edge_ids[range])
            .map(|(&t, &e)| (VertexId(t), EdgeId(e)))
    }

    /// The endpoints `(u, v)` with `u < v` of undirected edge `e`.
    #[inline(always)]
    pub fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        let (u, v) = self.endpoints[e.index()];
        (VertexId(u), VertexId(v))
    }

    /// All undirected edges as `(EdgeId, u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, VertexId, VertexId)> + '_ {
        self.endpoints
            .iter()
            .enumerate()
            .map(|(i, &(u, v))| (EdgeId::new(i), VertexId(u), VertexId(v)))
    }

    /// The endpoints `(u, v)` with `u < v` of every undirected edge, in
    /// edge-id order, which is lexicographic: the edges whose lower
    /// endpoint lies in a vertex range are one contiguous run of it.
    #[inline]
    pub fn endpoint_pairs(&self) -> &[(u32, u32)] {
        &self.endpoints
    }

    /// Whether `{u, v}` is an edge (O(log min-degree) via binary search).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.find_edge(u, v).is_some()
    }

    /// The edge id of `{u, v}` if present (O(log min-degree)).
    pub fn find_edge(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        if u == v {
            return None;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        let range = self.adj_range(a);
        let lo = range.start;
        let slice = &self.targets[range];
        slice
            .binary_search(&b.0)
            .ok()
            .map(|i| EdgeId(self.half_edge_ids[lo + i]))
    }

    /// The subgraph consisting of the given undirected edges, in any order
    /// and with repeats (vertex set is preserved). Edge ids are renumbered
    /// densely in the result. The ids set bits over this graph's `m` edge
    /// ids, read back in id order, which is lex order, so the kept edges
    /// go straight into the layout: O(m/64 + k) for `k` ids, with no sort,
    /// byte-identical to a [`GraphBuilder`] build of the same edges.
    ///
    /// # Panics
    /// Panics if an id is not below [`CsrGraph::num_edges`].
    pub fn edge_subgraph(&self, keep: impl Iterator<Item = EdgeId>) -> CsrGraph {
        let m = self.num_edges();
        let mut marked = vec![0u64; m.div_ceil(64)];
        for e in keep {
            let i = e.index();
            assert!(i < m, "edge id {i} out of range for {m} edges");
            marked[i / 64] |= 1 << (i % 64);
        }
        let kept = marked.iter().map(|w| w.count_ones() as usize).sum();
        let mut edges = Vec::with_capacity(kept);
        for (w, mut bits) in marked.into_iter().enumerate() {
            while bits != 0 {
                edges.push(self.endpoints[64 * w + bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
        }
        from_sorted_edges(self.num_vertices(), edges)
    }

    /// Total memory held by the four internal arrays, in bytes, audited
    /// against every field: the offsets, the two half-edge arrays, and
    /// the undirected endpoint list. Useful for documenting that
    /// sparsifiers are small and for the serve daemon's
    /// resident-footprint metric.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.targets.len() * std::mem::size_of::<u32>()
            + self.half_edge_ids.len() * std::mem::size_of::<u32>()
            + self.endpoints.len() * std::mem::size_of::<(u32, u32)>()
    }

    /// What [`CsrGraph::memory_bytes`] would report for a graph on `n`
    /// vertices and `m` edges, without building it. This is the resident
    /// cost the out-of-core build avoids for the parent graph, so the
    /// huge-tier bench reports it as `graph_bytes`.
    pub fn projected_memory_bytes(n: usize, m: usize) -> usize {
        (n + 1) * std::mem::size_of::<u32>()
            + 2 * m * std::mem::size_of::<u32>() * 2
            + m * std::mem::size_of::<(u32, u32)>()
    }
}

/// Builder for [`CsrGraph`]: accumulates undirected edges, deduplicates,
/// drops self-loops, then lays out sorted CSR arrays.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// A builder for a graph on `n` vertices and no edges yet.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            num_vertices: n,
            edges: Vec::new(),
        }
    }

    /// A builder pre-sized for roughly `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            num_vertices: n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Number of vertices the built graph will have.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Add the undirected edge `{u, v}`. Self-loops are ignored; duplicates
    /// are deduplicated at `build` time.
    #[inline]
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        assert!(
            u.index() < self.num_vertices && v.index() < self.num_vertices,
            "edge endpoint out of range"
        );
        if u == v {
            return;
        }
        let (a, b) = if u.0 < v.0 { (u.0, v.0) } else { (v.0, u.0) };
        self.edges.push((a, b));
    }

    /// Bulk-add edges from `(u, v)` index pairs.
    pub fn extend_edges(&mut self, it: impl IntoIterator<Item = (usize, usize)>) {
        for (u, v) in it {
            self.add_edge(VertexId::new(u), VertexId::new(v));
        }
    }

    /// Finalize into a [`CsrGraph`].
    pub fn build(mut self) -> CsrGraph {
        self.edges.sort_unstable();
        self.edges.dedup();
        from_sorted_edges(self.num_vertices, self.edges)
    }
}

impl CsrGraph {
    /// Lay out the offset and half-edge arrays on `n` vertices from
    /// `endpoints`, which must be lex-sorted and distinct with `u < v`.
    /// Because the list is globally sorted, scattering the half-edges in
    /// edge order leaves every adjacency window already sorted by
    /// neighbor id: for a vertex `v`, all edges `(a, v)` with `a < v`
    /// precede all edges `(v, b)` with `b > v`, each group in ascending
    /// order. Every array is refilled in place, so a warm graph lays out
    /// allocation-free; `degree` is working space kept by the caller for
    /// the same reason, and serves as the scatter's cursors.
    ///
    /// # Panics
    /// Panics if the graph has `2^32` or more half-edges, which no input
    /// under the `MAX_EDGES` cap of [`crate::io`] reaches. Below that
    /// bound every offset and edge id fits a `u32`.
    fn layout(&mut self, n: usize, degree: &mut Vec<u32>) {
        let CsrGraph {
            offsets,
            targets,
            half_edge_ids,
            endpoints,
        } = self;
        let two_m = u32::try_from(2 * endpoints.len())
            .expect("a CSR graph holds fewer than 2^32 half-edges");
        debug_assert!(
            endpoints.windows(2).all(|w| w[0] < w[1]),
            "edges not sorted"
        );

        degree.clear();
        degree.resize(n, 0);
        for &(u, v) in endpoints.iter() {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        offsets.clear();
        offsets.reserve(n + 1);
        offsets.push(0);
        let mut running = 0u32;
        for &d in degree.iter() {
            running += d;
            offsets.push(running);
        }
        debug_assert_eq!(running, two_m);

        scatter_target(targets, two_m as usize);
        scatter_target(half_edge_ids, two_m as usize);
        degree.copy_from_slice(&offsets[..n]);
        for (eid, &(u, v)) in endpoints.iter().enumerate() {
            let eid = eid as u32;
            targets[degree[u as usize] as usize] = v;
            half_edge_ids[degree[u as usize] as usize] = eid;
            degree[u as usize] += 1;
            targets[degree[v as usize] as usize] = u;
            half_edge_ids[degree[v as usize] as usize] = eid;
            degree[v as usize] += 1;
        }
    }
}

/// Size a half-edge array to `len` slots for the scatter, which writes
/// every slot: a buffer with room keeps its stale contents, and one
/// without is replaced by fresh zeroed memory rather than grown, so
/// stale contents are never copied. A buffer in use at least doubles, as
/// a `Vec` grows, so a scratch rebuilt over a slowly growing graph (a
/// dynamic matcher's window solve under churn) reallocates a logarithmic
/// number of times rather than at every new maximum.
fn scatter_target(buf: &mut Vec<u32>, len: usize) {
    if buf.capacity() < len {
        *buf = vec![0; len.max(2 * buf.capacity())];
        buf.truncate(len);
    } else {
        buf.truncate(len);
        buf.resize(len, 0);
    }
}

/// An edge update replayed by [`CsrScratch::rebuild_edited`], with its
/// endpoints in either order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeEdit {
    /// Make `{u, v}` an edge; a no-op when it already is one.
    Insert(u32, u32),
    /// Make `{u, v}` a non-edge; a no-op when it already is one.
    Delete(u32, u32),
}

/// Reusable buffers for rebuilding marked-edge subgraphs in place.
///
/// Repeated pipeline runs extract a fresh sparsifier CSR every time; with
/// a scratch the four graph arrays plus the layout's degree buffer
/// are allocated once and reused with `clear()`-not-drop semantics, so a
/// warm rebuild performs zero heap allocations when capacities suffice.
/// The fresh entry points fill the endpoint array and share one in-place
/// layout, which is the one [`from_sorted_edges`] runs;
/// [`CsrScratch::rebuild_edited`] patches the held layout instead. Either
/// way a rebuilt graph is byte-identical to a freshly built one (pinned
/// by test).
#[derive(Clone, Debug)]
pub struct CsrScratch {
    graph: CsrGraph,
    degree: Vec<u32>,
    /// [`CsrScratch::rebuild_edited`]'s edits as `(edge key, position)`,
    /// sorted so the last edit of each edge ends its group.
    edits: Vec<(u64, u32)>,
    /// The net changes of an edit batch, one entry per half-edge:
    /// `(x << 32 | y, id)` puts `y` into `x`'s row with the new edge id
    /// `id`, or takes it out when `id` is [`GONE`]. Sorted, so each
    /// changed row's entries are contiguous and in neighbour order.
    changed: Vec<(u64, u32)>,
    /// The new id of each held edge, [`GONE`] for a deleted one.
    new_ids: Vec<u32>,
    /// The patched graph, written here and swapped in for the held one.
    patched: CsrGraph,
}

/// The new id [`CsrScratch::rebuild_edited`] gives a deleted edge.
const GONE: u32 = u32::MAX;

impl Default for CsrScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// A scratch holding `graph`, to patch with
/// [`CsrScratch::rebuild_edited`] or to rebuild over.
impl From<CsrGraph> for CsrScratch {
    fn from(graph: CsrGraph) -> Self {
        CsrScratch {
            graph,
            ..CsrScratch::new()
        }
    }
}

impl CsrScratch {
    /// An empty scratch holding a zero-vertex graph.
    pub fn new() -> Self {
        let empty = CsrGraph {
            offsets: vec![0],
            targets: Vec::new(),
            half_edge_ids: Vec::new(),
            endpoints: Vec::new(),
        };
        CsrScratch {
            graph: empty.clone(),
            degree: Vec::new(),
            edits: Vec::new(),
            changed: Vec::new(),
            new_ids: Vec::new(),
            patched: empty,
        }
    }

    /// The most recently rebuilt graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Bytes of capacity currently held across all reusable buffers (the
    /// scratch's high-water memory footprint).
    pub fn capacity_bytes(&self) -> usize {
        fn bytes<T>(buf: &Vec<T>) -> usize {
            buf.capacity() * std::mem::size_of::<T>()
        }
        let graph_bytes = |g: &CsrGraph| {
            bytes(&g.offsets) + bytes(&g.targets) + bytes(&g.half_edge_ids) + bytes(&g.endpoints)
        };
        graph_bytes(&self.graph)
            + graph_bytes(&self.patched)
            + bytes(&self.degree)
            + bytes(&self.edits)
            + bytes(&self.changed)
            + bytes(&self.new_ids)
    }

    /// In-place equivalent of [`CsrGraph::edge_subgraph`] for strictly
    /// increasing `sorted_ids`, which need no bitset: rebuild the subgraph
    /// of `parent` into this scratch's buffers, reusing their capacity.
    pub fn rebuild_from_marked(&mut self, parent: &CsrGraph, sorted_ids: &[EdgeId]) -> &CsrGraph {
        debug_assert!(
            sorted_ids.windows(2).all(|w| w[0].index() < w[1].index()),
            "marked edge ids must be sorted and distinct"
        );
        self.rebuild_with(parent.num_vertices(), |edges| {
            edges.extend(sorted_ids.iter().map(|&e| parent.endpoints[e.index()]));
        })
    }

    /// In-place equivalent of [`from_sorted_edges`]: `fill` pushes the
    /// edges, strictly lex-sorted with `u < v`, into the graph's cleared
    /// endpoint list, and the graph on `n` vertices is laid out from it,
    /// reusing every buffer's capacity. Filling in place spares a
    /// producer that writes the edges anyway a copy of them.
    pub fn rebuild_with(&mut self, n: usize, fill: impl FnOnce(&mut Vec<(u32, u32)>)) -> &CsrGraph {
        let endpoints = &mut self.graph.endpoints;
        endpoints.clear();
        fill(endpoints);
        debug_assert!(
            endpoints.iter().all(|&(u, v)| u < v && (v as usize) < n),
            "edges must satisfy u < v with endpoints below n"
        );
        self.graph.layout(n, &mut self.degree);
        &self.graph
    }

    /// Apply `edits`, in order, to the held graph's edge set on the same
    /// vertices, and return the number of net changes: the edges inserted
    /// plus the edges deleted. The last edit of an edge decides whether
    /// it is present, so repeated edits, inserts of present edges and
    /// deletes of absent ones behave as on an
    /// [`AdjListGraph`](crate::adjlist::AdjListGraph). With no net change
    /// the held graph stays as it is. Otherwise one sweep patches it: the
    /// changes merge into the sorted edge list, every surviving edge's
    /// new id is recorded, and the rows are rewritten in order. A run of
    /// unchanged rows copies its targets and maps its edge ids to the new
    /// ones; a changed row splices its new neighbours in at their sorted
    /// positions and drops its deleted ones; the offsets shift by the
    /// degree change of the rows before. The result is byte-identical to
    /// a fresh build of the edited edge set, and a warm patch is
    /// allocation-free.
    pub fn rebuild_edited(&mut self, edits: &[EdgeEdit]) -> usize {
        let n = self.graph.num_vertices();
        self.edits.clear();
        self.edits.extend((0u32..).zip(edits).map(|(at, edit)| {
            let (EdgeEdit::Insert(u, v) | EdgeEdit::Delete(u, v)) = *edit;
            debug_assert!(u != v && (u.max(v) as usize) < n, "bad edit {edit:?}");
            ((u64::from(u.min(v)) << 32) | u64::from(u.max(v)), at)
        }));
        self.edits.sort_unstable();
        let held = &self.graph;
        let (patched, new_ids, changed) = (&mut self.patched, &mut self.new_ids, &mut self.changed);
        let merged = &mut patched.endpoints;
        merged.clear();
        new_ids.clear();
        changed.clear();
        let mut copied = 0;
        for (i, &(key, at)) in self.edits.iter().enumerate() {
            if self.edits.get(i + 1).is_some_and(|next| next.0 == key) {
                continue;
            }
            let (u, v) = ((key >> 32) as u32, key as u32);
            let below = copied + held.endpoints[copied..].partition_point(|&e| e < (u, v));
            let insert = matches!(edits[at as usize], EdgeEdit::Insert(..));
            if insert == (held.endpoints.get(below) == Some(&(u, v))) {
                continue;
            }
            copy_edges(&held.endpoints, copied..below, merged, new_ids);
            let id = if insert {
                merged.push((u, v));
                merged.len() as u32 - 1
            } else {
                new_ids.push(GONE);
                GONE
            };
            copied = below + usize::from(!insert);
            changed.push((key, id));
            changed.push(((u64::from(v) << 32) | u64::from(u), id));
        }
        if changed.is_empty() {
            return 0;
        }
        let m = held.endpoints.len();
        copy_edges(&held.endpoints, copied..m, merged, new_ids);
        changed.sort_unstable();

        let CsrGraph {
            offsets,
            targets,
            half_edge_ids,
            ..
        } = patched;
        offsets.clear();
        offsets.reserve(n + 1);
        offsets.push(0);
        targets.clear();
        targets.reserve(2 * merged.len());
        half_edge_ids.clear();
        half_edge_ids.reserve(2 * merged.len());
        // Rows `row..x` are unchanged, then row `x` takes `changed[at..end]`.
        let mut row = 0;
        let mut at = 0;
        loop {
            let x = changed.get(at).map_or(n, |&(key, _)| (key >> 32) as usize);
            let (lo, hi) = (held.offsets[row] as usize, held.offsets[x] as usize);
            let shift = (targets.len() as u32).wrapping_sub(lo as u32);
            offsets.extend(
                held.offsets[row + 1..=x]
                    .iter()
                    .map(|&o| o.wrapping_add(shift)),
            );
            targets.extend_from_slice(&held.targets[lo..hi]);
            half_edge_ids.extend(
                held.half_edge_ids[lo..hi]
                    .iter()
                    .map(|&e| new_ids[e as usize]),
            );
            if x == n {
                break;
            }
            let end = at + changed[at..].partition_point(|&(key, _)| key >> 32 == x as u64);
            let mut splice = changed[at..end].iter().peekable();
            let row_x = held.offsets[x] as usize..held.offsets[x + 1] as usize;
            for (&t, &e) in held.targets[row_x.clone()]
                .iter()
                .zip(&held.half_edge_ids[row_x])
            {
                while let Some(&(key, id)) = splice.next_if(|&&(key, _)| (key as u32) < t) {
                    if id != GONE {
                        targets.push(key as u32);
                        half_edge_ids.push(id);
                    }
                }
                let id = new_ids[e as usize];
                if id != GONE {
                    targets.push(t);
                    half_edge_ids.push(id);
                }
            }
            for &(key, id) in splice.filter(|&&(_, id)| id != GONE) {
                targets.push(key as u32);
                half_edge_ids.push(id);
            }
            offsets.push(targets.len() as u32);
            (row, at) = (x + 1, end);
        }
        debug_assert_eq!(targets.len(), 2 * merged.len());
        std::mem::swap(&mut self.graph, &mut self.patched);
        self.changed.len() / 2
    }
}

/// Append the held edges `held[run]` to `merged`, recording each one's
/// new id, its position there.
fn copy_edges(
    held: &[(u32, u32)],
    run: std::ops::Range<usize>,
    merged: &mut Vec<(u32, u32)>,
    new_ids: &mut Vec<u32>,
) {
    let base = merged.len() as u32;
    new_ids.extend(base..base + run.len() as u32);
    merged.extend_from_slice(&held[run]);
}

/// Build a graph from an edge list that is already strictly
/// lexicographically sorted with `u < v` per edge — the order
/// [`CsrGraph::edges`] iterates and [`crate::io::write_edge_list`] emits.
/// Skips the sort/dedup of [`GraphBuilder::build`] entirely, so this is
/// the entry point for streaming constructions that validate order as
/// edges arrive. The result is byte-identical to feeding the same edges
/// through [`GraphBuilder`].
///
/// # Panics
/// Debug builds assert the order and endpoint-range invariants; release
/// builds trust the caller (a violated invariant produces a graph with
/// unsorted adjacency windows, never memory unsafety). Like every build,
/// it panics on `2^32` or more half-edges.
pub fn from_sorted_edges(n: usize, edges: Vec<(u32, u32)>) -> CsrGraph {
    debug_assert!(
        edges.iter().all(|&(u, v)| u < v && (v as usize) < n),
        "edges must satisfy u < v with endpoints below n"
    );
    let mut graph = CsrGraph {
        offsets: Vec::new(),
        targets: Vec::new(),
        half_edge_ids: Vec::new(),
        endpoints: edges,
    };
    graph.layout(n, &mut Vec::new());
    graph
}

/// Build a graph directly from an iterator of `(u, v)` index pairs.
pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> CsrGraph {
    let mut b = GraphBuilder::new(n);
    b.extend_edges(edges);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_pendant() -> CsrGraph {
        // 0-1, 1-2, 2-0, 2-3
        from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    }

    #[test]
    fn basic_counts() {
        let g = triangle_plus_pendant();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(VertexId(0)), 2);
        assert_eq!(g.degree(VertexId(2)), 3);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.num_non_isolated(), 4);
    }

    #[test]
    fn isolated_vertices_counted() {
        let g = from_edges(5, [(0, 1)]);
        assert_eq!(g.num_non_isolated(), 2);
        assert_eq!(g.degree(VertexId(4)), 0);
    }

    #[test]
    fn neighbors_sorted_and_complete() {
        let g = triangle_plus_pendant();
        let nbrs: Vec<u32> = g.neighbors(VertexId(2)).map(|v| v.0).collect();
        assert_eq!(nbrs, vec![0, 1, 3]);
    }

    #[test]
    fn self_loops_and_duplicates_dropped() {
        let g = from_edges(3, [(0, 0), (0, 1), (1, 0), (0, 1)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(VertexId(0)), 1);
    }

    #[test]
    fn half_edges_share_edge_id() {
        let g = triangle_plus_pendant();
        for (e, u, v) in g.edges() {
            let from_u = g
                .incident(u)
                .find(|&(t, _)| t == v)
                .map(|(_, id)| id)
                .unwrap();
            let from_v = g
                .incident(v)
                .find(|&(t, _)| t == u)
                .map(|(_, id)| id)
                .unwrap();
            assert_eq!(from_u, e);
            assert_eq!(from_v, e);
        }
    }

    #[test]
    fn find_edge_works_both_ways() {
        let g = triangle_plus_pendant();
        assert!(g.has_edge(VertexId(0), VertexId(1)));
        assert!(g.has_edge(VertexId(1), VertexId(0)));
        assert!(!g.has_edge(VertexId(0), VertexId(3)));
        assert!(!g.has_edge(VertexId(1), VertexId(1)));
        let e = g.find_edge(VertexId(2), VertexId(3)).unwrap();
        let (a, b) = g.edge_endpoints(e);
        assert_eq!((a.0, b.0), (2, 3));
    }

    #[test]
    fn edge_subgraph_keeps_vertex_set() {
        let g = triangle_plus_pendant();
        let keep: Vec<EdgeId> = g
            .edges()
            .filter(|&(_, u, v)| u.0 == 0 || v.0 == 0)
            .map(|(e, _, _)| e)
            .collect();
        let h = g.edge_subgraph(keep.into_iter());
        assert_eq!(h.num_vertices(), 4);
        assert_eq!(h.num_edges(), 2); // 0-1 and 0-2
        assert_eq!(h.degree(VertexId(3)), 0);
    }

    #[test]
    fn neighbor_ith_matches_iterator() {
        let g = triangle_plus_pendant();
        for v in 0..4 {
            let v = VertexId::new(v);
            let via_iter: Vec<VertexId> = g.neighbors(v).collect();
            for (i, &u) in via_iter.iter().enumerate() {
                assert_eq!(g.neighbor(v, i), u);
            }
        }
    }

    fn assert_byte_identical(a: &CsrGraph, b: &CsrGraph) {
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.targets, b.targets);
        assert_eq!(a.half_edge_ids, b.half_edge_ids);
        assert_eq!(a.endpoints, b.endpoints);
    }

    /// `offsets()` has `n + 1` entries, starts at 0, steps by each
    /// vertex's degree and ends at `2m`.
    fn assert_offsets_contract(g: &CsrGraph) {
        let offs = g.offsets();
        assert_eq!(offs.len(), g.num_vertices() + 1);
        assert_eq!(offs[0], 0);
        for v in 0..g.num_vertices() {
            let step = (offs[v + 1] - offs[v]) as usize;
            assert_eq!(step, g.degree(VertexId::new(v)), "vertex {v}");
        }
        assert_eq!(offs[g.num_vertices()] as usize, 2 * g.num_edges());
    }

    /// All-pairs edge list on `n` vertices.
    fn dense_edges(n: usize) -> Vec<(usize, usize)> {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                edges.push((u, v));
            }
        }
        edges
    }

    /// The dense graph on 220 vertices and a deterministic pseudo-random
    /// sorted subset of its edge ids.
    fn dense_graph_and_marks() -> (CsrGraph, Vec<EdgeId>) {
        let n = 220;
        let mut b = GraphBuilder::new(n);
        b.extend_edges(dense_edges(n));
        let g = b.build();
        let keep: Vec<EdgeId> = (0..g.num_edges())
            .filter(|e| (e * 2_654_435_761) % 7 < 5)
            .map(EdgeId::new)
            .collect();
        (g, keep)
    }

    #[test]
    fn edge_subgraph_ignores_id_order_and_repeats() {
        let (g, keep) = dense_graph_and_marks();
        let mut b = GraphBuilder::new(g.num_vertices());
        for &e in &keep {
            let (u, v) = g.edge_endpoints(e);
            b.add_edge(v, u);
        }
        let reference = b.build();
        assert_byte_identical(&reference, &g.edge_subgraph(keep.iter().copied()));
        let reversed_twice = keep.iter().rev().flat_map(|&e| [e, e]);
        assert_byte_identical(&reference, &g.edge_subgraph(reversed_twice));
    }

    #[test]
    fn edge_subgraph_empty_and_full() {
        let g = triangle_plus_pendant();
        let none = g.edge_subgraph(std::iter::empty());
        assert_eq!(none.num_edges(), 0);
        assert_eq!(none.num_vertices(), 4);
        assert_byte_identical(&g, &g.edge_subgraph(g.edges().map(|(e, _, _)| e)));
    }

    #[test]
    fn scratch_rebuild_matches_edge_subgraph() {
        let (g, keep) = dense_graph_and_marks();
        let reference = g.edge_subgraph(keep.iter().copied());
        let mut scratch = CsrScratch::new();
        // Warm reuse: rebuild repeatedly (and on different subsets) into
        // the same scratch; every rebuild must match the fresh build.
        for _ in 0..2 {
            assert_byte_identical(&reference, scratch.rebuild_from_marked(&g, &keep));
        }
        let smaller: Vec<EdgeId> = keep.iter().copied().step_by(3).collect();
        assert_byte_identical(
            &g.edge_subgraph(smaller.iter().copied()),
            scratch.rebuild_from_marked(&g, &smaller),
        );
        // And back up to the larger subset after the smaller one.
        assert_byte_identical(&reference, scratch.rebuild_from_marked(&g, &keep));
        assert!(scratch.capacity_bytes() > 0);
    }

    #[test]
    fn scratch_rebuild_with_matches_fresh_builds() {
        // The fill entry point shares the marked-id one's layout: either
        // may follow the other in one scratch, at any size, and leave
        // exactly the freshly built graph (stale half-edge slots from a
        // larger predecessor must all be overwritten).
        let (g, keep) = dense_graph_and_marks();
        let pairs = |ids: &[EdgeId]| -> Vec<(u32, u32)> {
            ids.iter()
                .map(|&e| {
                    let (u, v) = g.edge_endpoints(e);
                    (u.0, v.0)
                })
                .collect()
        };
        let smaller: Vec<EdgeId> = keep.iter().copied().step_by(5).collect();
        let mut scratch = CsrScratch::new();
        for ids in [&keep, &smaller, &keep, &smaller] {
            let fresh = from_sorted_edges(g.num_vertices(), pairs(ids));
            assert_offsets_contract(&fresh);
            let rebuilt = scratch.rebuild_with(g.num_vertices(), |e| e.extend(pairs(ids)));
            assert_offsets_contract(rebuilt);
            assert_byte_identical(&fresh, rebuilt);
            let rebuilt = scratch.rebuild_from_marked(&g, ids);
            assert_offsets_contract(rebuilt);
            assert_byte_identical(&fresh, rebuilt);
        }
        // A smaller vertex set after a larger one.
        let tri = triangle_plus_pendant();
        let tri_pairs = tri.edges().map(|(_, u, v)| (u.0, v.0));
        let rebuilt = scratch.rebuild_with(4, |e| e.extend(tri_pairs));
        assert_offsets_contract(rebuilt);
        assert_byte_identical(&tri, rebuilt);
        let empty = scratch.rebuild_with(3, |_| {});
        assert_offsets_contract(empty);
        assert_eq!(empty.num_vertices(), 3);
    }

    #[test]
    fn rebuild_edited_lets_the_last_edit_of_an_edge_decide() {
        use EdgeEdit::{Delete, Insert};
        let mut scratch = CsrScratch::new();
        let tri = triangle_plus_pendant();
        let tri_pairs = tri.edges().map(|(_, u, v)| (u.0, v.0));
        scratch.rebuild_with(4, |e| e.extend(tri_pairs));
        let edits = [
            Insert(3, 0), // new, reversed endpoints
            Delete(1, 0), // present
            Insert(0, 1), // ... and back: the last edit wins
            Delete(1, 3), // absent
            Insert(2, 1), // present
            Delete(3, 2),
            Insert(3, 2),
            Delete(2, 3), // twice toggled, ends absent
        ];
        let want = from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)]);
        assert_eq!(scratch.rebuild_edited(&edits), 2);
        assert_byte_identical(&want, scratch.graph());
        // Toggles, re-asserts of present edges and deletes of absent ones
        // change nothing, and the held graph stays as it is.
        let unchanged = [
            Delete(0, 1),
            Insert(1, 0),
            Insert(3, 0),
            Insert(2, 1),
            Delete(1, 3),
            Insert(3, 1),
            Delete(3, 1),
        ];
        let held = scratch.graph().targets.as_ptr();
        assert_eq!(scratch.rebuild_edited(&unchanged), 0);
        assert_eq!(scratch.graph().targets.as_ptr(), held);
        assert_byte_identical(&want, scratch.graph());
        // More edits than edges, down to nothing and up again.
        let clear: Vec<EdgeEdit> = (0..3)
            .flat_map(|u| (u + 1..4).map(move |v| Delete(v, u)))
            .chain([Delete(0, 1)])
            .collect();
        assert_eq!(scratch.rebuild_edited(&clear), 4);
        assert_byte_identical(&from_edges(4, []), scratch.graph());
        assert_eq!(scratch.rebuild_edited(&[]), 0);
        assert_byte_identical(&from_edges(4, []), scratch.graph());
        let edits = [Insert(2, 3), Delete(2, 3), Insert(0, 3), Insert(2, 3)];
        let want = from_edges(4, [(0, 3), (2, 3)]);
        assert_eq!(scratch.rebuild_edited(&edits), 2);
        assert_byte_identical(&want, scratch.graph());
    }

    #[test]
    fn scratch_handles_empty_and_tiny_graphs() {
        let mut scratch = CsrScratch::new();
        let g = triangle_plus_pendant();
        let rebuilt = scratch.rebuild_from_marked(&g, &[]);
        assert_eq!(rebuilt.num_vertices(), 4);
        assert_eq!(rebuilt.num_edges(), 0);
        let all: Vec<EdgeId> = g.edges().map(|(e, _, _)| e).collect();
        assert_byte_identical(&g, scratch.rebuild_from_marked(&g, &all));
    }

    #[test]
    fn from_sorted_edges_matches_builder() {
        let n = 60;
        let edges: Vec<(u32, u32)> = dense_edges(n)
            .into_iter()
            .map(|(u, v)| (u as u32, v as u32))
            .collect();
        let mut b = GraphBuilder::new(n);
        b.extend_edges(dense_edges(n));
        assert_byte_identical(&b.build(), &from_sorted_edges(n, edges));
        assert_eq!(from_sorted_edges(5, Vec::new()).num_vertices(), 5);
    }

    #[test]
    fn memory_bytes_audits_every_field() {
        // 4-byte offsets (n+1), two 4-byte half-edge arrays (2m each),
        // and 8-byte endpoint pairs (m).
        let g = triangle_plus_pendant();
        let (n, m) = (g.num_vertices(), g.num_edges());
        assert_eq!(g.memory_bytes(), 4 * (n + 1) + 4 * 2 * m * 2 + 8 * m);
        assert_eq!(g.memory_bytes(), CsrGraph::projected_memory_bytes(n, m));
    }

    #[test]
    fn capacity_bytes_audits_every_buffer() {
        // Both graphs' 4-byte offsets and half-edge arrays and 8-byte
        // endpoint pairs, the 4-byte degree buffer, the 16-byte edit and
        // change entries and the 4-byte id map, each by its capacity.
        // The destructuring names every field, so a new buffer does not
        // compile here until it is audited.
        use EdgeEdit::{Delete, Insert};
        let (g, keep) = dense_graph_and_marks();
        let mut scratch = CsrScratch::new();
        scratch.rebuild_from_marked(&g, &keep);
        let (u, v) = g.edge_endpoints(keep[0]);
        assert_eq!(
            scratch.rebuild_edited(&[Insert(u.0, v.0), Delete(v.0, u.0)]),
            1
        );
        let CsrScratch {
            graph,
            degree,
            edits,
            changed,
            new_ids,
            patched,
        } = &scratch;
        let graph_bytes = |g: &CsrGraph| {
            let CsrGraph {
                offsets,
                targets,
                half_edge_ids,
                endpoints,
            } = g;
            4 * offsets.capacity()
                + 4 * targets.capacity()
                + 4 * half_edge_ids.capacity()
                + 8 * endpoints.capacity()
        };
        let want = graph_bytes(graph)
            + graph_bytes(patched)
            + 4 * degree.capacity()
            + 16 * edits.capacity()
            + 16 * changed.capacity()
            + 4 * new_ids.capacity();
        for g in [graph, patched] {
            assert!(g.targets.capacity() >= 2 * (keep.len() - 1));
        }
        assert!(degree.capacity() * edits.capacity() * changed.capacity() > 0);
        assert!(new_ids.capacity() >= keep.len());
        assert_eq!(scratch.capacity_bytes(), want);
    }

    #[test]
    fn projected_memory_bytes_matches_built_graphs() {
        let n = 220;
        let mut b = GraphBuilder::new(n);
        b.extend_edges(dense_edges(n));
        let g = b.build();
        assert_eq!(
            g.memory_bytes(),
            CsrGraph::projected_memory_bytes(g.num_vertices(), g.num_edges())
        );
    }
}
