//! The EDCS matching sparsifier: an *edge-degree constrained subgraph*
//! backend with trade-offs complementary to the paper's `G_Δ`.
//!
//! An `(β, β⁻)`-EDCS of `G` is a subgraph `H ⊆ G` satisfying two local
//! invariants (Assadi–Bernstein, arXiv:1811.02009):
//!
//! - **Property A** (degree bound): every edge `(u,v) ∈ H` has
//!   `deg_H(u) + deg_H(v) ≤ β`;
//! - **Property B** (saturation): every edge `(u,v) ∈ G ∖ H` has
//!   `deg_H(u) + deg_H(v) ≥ β⁻`.
//!
//! With `β⁻ = ⌈(1−λ)·β⌉` the subgraph has at most `n·(β−1)/2` edges
//! (Property A caps every H-degree at `β−1`) yet still contains a
//! `3/2 + O(λ)`-approximate maximum matching; arXiv:2406.07630 shows the
//! `3/2` factor is tight for bipartite graphs. Contrast with `G_Δ`:
//! the EDCS keeps *fewer* edges for comparable β and needs no
//! randomness, but its construction reads every edge of `G` (it is not
//! sublinear) and its ratio floor is `3/2`, not `1+ε`.
//!
//! Construction here is the sequential fixpoint: repeat passes over the
//! edges in storage order, removing an H-edge that violates Property A
//! and inserting a non-H edge that violates Property B, until a full
//! pass changes nothing. Termination is guaranteed by the potential
//! `Φ(H) = (β − 1/2)·Σ_u deg_H(u) − Σ_{(u,v) ∈ H} (deg_H(u)+deg_H(v))`:
//! every fix raises `Φ` by at least `1/2` and `Φ = O(n·β²)`, so the
//! build is infallible — there is no error path.
//!
//! On dense inputs the in-memory build evaluates only the edges a pass
//! could change. Storage order is lexicographic, so a pass walks rows:
//! the edges `(u, v > u)` of each `u` in id order, with `deg_H(u)` in a
//! register and H-membership in a bitset. A non-H edge `(u, v)` can be
//! inserted only if `v` is *open* — some G-edge at `v` lies outside H,
//! as `(u, v)` itself does — and `deg_H(v) < β⁻ − deg_H(u)`. A min-tree
//! over vertex ids of the open vertices' H-degrees yields `z`, the last
//! open vertex below that threshold; past `z` only H-edges can change,
//! so the walk jumps between them through the bitset, and it redoes the
//! descent after every fix. Each fix therefore lands at the same point
//! of the same pass as in a scan of every edge, which
//! [`build_edcs_streamed`] still runs: `H`, [`EdcsStats`] and the
//! notional probe count `passes × 2m` are unchanged, and the identity
//! tests compare both. The tree costs `O(log n)` per fix and the walk a
//! little per row, which only dense inputs repay: the tree is kept when
//! the average degree `2m/n` is at least `2·β·⌈log₂ n⌉`, and otherwise
//! each pass evaluates every edge in id order, 64 edges per bitset word.

use crate::pipeline::PipelineResult;
use crate::scratch::PipelineScratch;
use crate::sparsifier::{SparsifierStats, ThreadCountError, MAX_THREADS};
use crate::stream_build::StreamBuildReport;
use sparsimatch_graph::adjacency::ProbeCounts;
use sparsimatch_graph::csr::{from_sorted_edges, CsrGraph};
use sparsimatch_graph::edge_stream::EdgeStreamSource;
use sparsimatch_graph::ids::{EdgeId, VertexId};
use sparsimatch_graph::io::ReadError;
use sparsimatch_matching::bounded_aug::{
    eliminate_augmenting_paths_up_to_with, max_path_len_for_eps,
};
use sparsimatch_matching::greedy::greedy_maximal_matching_into;
use sparsimatch_obs::{keys, WorkMeter};
use std::time::Instant;

/// Validated EDCS parameters. Construct via [`EdcsParams::new`], which
/// enforces the bounds the invariants need; the fields are read-only so
/// an `EdcsParams` value is valid by construction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdcsParams {
    beta: usize,
    lambda: f64,
}

/// Why an `(β, λ)` pair was rejected by [`EdcsParams::new`]. The CLI
/// maps these to exit code 7 and the serve wire path to `bad_request`,
/// the same typed treatment the delta backend's bounds get.
#[derive(Clone, Debug, PartialEq)]
pub enum EdcsParamsError {
    /// `β < 2`: Property A would forbid every edge (an edge's two
    /// endpoints each contribute at least degree 1, so `β ≥ 2`).
    BetaTooSmall {
        /// The rejected value.
        beta: usize,
    },
    /// `λ` is not a finite number in `(0, 1)`.
    LambdaOutOfRange {
        /// The rejected value.
        lambda: f64,
    },
    /// `λ·β < 1`, which would put `β⁻ = ⌈(1−λ)β⌉` at `β` itself: then
    /// Properties A and B contradict on any edge with degree sum
    /// exactly `β`, and the fixpoint need not terminate.
    LambdaBetaTooSmall {
        /// The rejected β.
        beta: usize,
        /// The rejected λ.
        lambda: f64,
    },
}

impl std::fmt::Display for EdcsParamsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdcsParamsError::BetaTooSmall { beta } => {
                write!(f, "EDCS beta must be at least 2, got {beta}")
            }
            EdcsParamsError::LambdaOutOfRange { lambda } => {
                write!(f, "EDCS lambda must be in (0, 1), got {lambda}")
            }
            EdcsParamsError::LambdaBetaTooSmall { beta, lambda } => write!(
                f,
                "EDCS needs lambda * beta >= 1 so that beta- <= beta - 1, \
                 got lambda = {lambda}, beta = {beta}"
            ),
        }
    }
}

impl std::error::Error for EdcsParamsError {}

impl EdcsParams {
    /// Validate and construct. Requires `β ≥ 2`, `λ` finite in `(0, 1)`,
    /// and `λ·β ≥ 1` (equivalently `β⁻ ≤ β − 1`, the slack the fixpoint's
    /// termination argument and Property A/B compatibility both need).
    ///
    /// # Examples
    ///
    /// ```
    /// use sparsimatch_core::edcs::EdcsParams;
    ///
    /// let p = EdcsParams::new(16, 0.125).unwrap();
    /// assert_eq!(p.beta_minus(), 14);
    /// assert!(EdcsParams::new(1, 0.5).is_err());   // beta too small
    /// assert!(EdcsParams::new(16, 0.01).is_err()); // lambda * beta < 1
    /// ```
    pub fn new(beta: usize, lambda: f64) -> Result<EdcsParams, EdcsParamsError> {
        if beta < 2 {
            return Err(EdcsParamsError::BetaTooSmall { beta });
        }
        if !(lambda.is_finite() && 0.0 < lambda && lambda < 1.0) {
            return Err(EdcsParamsError::LambdaOutOfRange { lambda });
        }
        if lambda * (beta as f64) < 1.0 {
            return Err(EdcsParamsError::LambdaBetaTooSmall { beta, lambda });
        }
        Ok(EdcsParams { beta, lambda })
    }

    /// The default λ for a given β: `min(2/β, 1/2)` — `2/β` puts `β⁻` at
    /// `β − 2`, comfortable slack over the `λ·β ≥ 1` floor, and the cap
    /// keeps the value valid down to `β = 2` (where `λ = 1/2` is the
    /// floor itself). Used by the CLI and serve defaults.
    pub fn default_lambda(beta: usize) -> f64 {
        (2.0 / beta.max(1) as f64).min(0.5)
    }

    /// The degree-sum ceiling β (Property A).
    pub fn beta(&self) -> usize {
        self.beta
    }

    /// The slack parameter λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The degree-sum floor `β⁻ = ⌈(1−λ)·β⌉` (Property B). Always in
    /// `1..=β−1` for validated parameters.
    pub fn beta_minus(&self) -> usize {
        ((1.0 - self.lambda) * self.beta as f64).ceil() as usize
    }

    /// The worst-case size of any `(β, β⁻)`-EDCS on `n` vertices:
    /// `⌊n·(β−1)/2⌋`. Property A caps every H-degree at `β − 1`, so the
    /// degree sum — twice the edge count — is at most `n·(β−1)`.
    pub fn size_bound(&self, n: usize) -> usize {
        n * (self.beta - 1) / 2
    }
}

/// What the EDCS fixpoint did, reported alongside the subgraph.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdcsStats {
    /// Full passes over the edge set, including the final no-op pass
    /// that certified the fixpoint.
    pub passes: usize,
    /// Insertions plus removals performed across all passes.
    pub ops: u64,
    /// Edges in the finished subgraph `H`.
    pub edges: usize,
}

/// The open-vertex tree pays for its `O(log n)` upkeep per fix only on
/// dense inputs: the in-memory fixpoint keeps it when the average degree
/// `2m/n` is at least `OPEN_TREE_DEGREE_FACTOR · β · ⌈log₂ n⌉`, and
/// otherwise runs plain passes. Release timings of both on 76 (graph, β)
/// pairs — clique unions, cliques, G(n, p), bipartite and power-law
/// graphs at β from 4 to 32 — put the break-even near a factor of 1:
/// the tree never lost at 2 or more (at most 0.80× the plain time),
/// took 0.31–1.23× of it between 1 and 2 (faster in 9 of 10), and up
/// to 15× below 1. On `perfbench`'s inmem graph (`2m/n` = 1 798 against
/// 416 at β = 16) it cuts the fixpoint about fivefold; serve's n = 300
/// graph (37 against 288) keeps the plain passes.
const OPEN_TREE_DEGREE_FACTOR: usize = 2;

/// Whether the fixpoint on `g` keeps the open-vertex tree
/// ([`OPEN_TREE_DEGREE_FACTOR`]).
fn uses_open_tree(g: &CsrGraph, beta: usize) -> bool {
    let n = g.num_vertices();
    // ⌈log₂ n⌉ for n ≥ 1, and 0 for the empty graph.
    let log_n = (usize::BITS - n.saturating_sub(1).leading_zeros()) as usize;
    2 * g.num_edges()
        >= OPEN_TREE_DEGREE_FACTOR
            .saturating_mul(beta)
            .saturating_mul(log_n)
            .saturating_mul(n)
}

/// A min-tree over vertex ids: leaf `v` holds `deg_H(v)` while `v` is
/// open (`deg_H(v) < deg_G(v)`) and `u32::MAX` once every edge at `v`
/// is in H. Node `i` is the minimum of nodes `2i` and `2i + 1`; the
/// leaves sit at `size..2·size`, padded with `u32::MAX`.
#[derive(Default)]
struct OpenTree {
    nodes: Vec<u32>,
    size: usize,
}

impl OpenTree {
    /// Refill for `g` with H empty: every vertex with an edge is open at
    /// H-degree 0.
    fn reset(&mut self, g: &CsrGraph) {
        let n = g.num_vertices();
        self.size = n.next_power_of_two();
        self.nodes.clear();
        self.nodes.resize(2 * self.size, u32::MAX);
        for v in 0..n {
            if g.degree(VertexId::new(v)) > 0 {
                self.nodes[self.size + v] = 0;
            }
        }
        for i in (1..self.size).rev() {
            self.nodes[i] = self.nodes[2 * i].min(self.nodes[2 * i + 1]);
        }
    }

    /// Record that `v` now has H-degree `deg` of its `deg_g` G-edges.
    fn set(&mut self, v: usize, deg: u32, deg_g: usize) {
        let mut i = self.size + v;
        self.nodes[i] = if (deg as usize) < deg_g {
            deg
        } else {
            u32::MAX
        };
        while i > 1 {
            i /= 2;
            let min = self.nodes[2 * i].min(self.nodes[2 * i + 1]);
            if self.nodes[i] == min {
                break;
            }
            self.nodes[i] = min;
        }
    }

    /// The last open vertex whose H-degree is below `threshold`, or 0
    /// when there is none (no row's `v > u ≥ 0` lies at or before 0).
    fn last_below(&self, threshold: u32) -> usize {
        if self.nodes[1] >= threshold {
            return 0;
        }
        let mut i = 1;
        while i < self.size {
            i = 2 * i + 1;
            if self.nodes[i] >= threshold {
                i -= 1;
            }
        }
        i - self.size
    }

    fn capacity_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<u32>()
    }
}

/// The in-memory fixpoint's buffers, held by [`PipelineScratch`]:
/// cleared and regrown per run, never dropped, so a warm arena
/// allocates nothing.
#[derive(Default)]
pub(crate) struct FixpointScratch {
    /// H-membership bits, EdgeId-indexed, 64 edges per word.
    in_h: Vec<u64>,
    /// H-degree per vertex.
    deg: Vec<u32>,
    /// One past the last edge id of each vertex's row.
    row_end: Vec<u32>,
    /// The open-vertex tree, refilled only when the run keeps it.
    tree: OpenTree,
}

impl FixpointScratch {
    pub(crate) fn clear(&mut self) {
        self.in_h.clear();
        self.deg.clear();
        self.row_end.clear();
        self.tree.nodes.clear();
    }

    pub(crate) fn capacity_bytes(&self) -> usize {
        self.in_h.capacity() * std::mem::size_of::<u64>()
            + (self.deg.capacity() + self.row_end.capacity()) * std::mem::size_of::<u32>()
            + self.tree.capacity_bytes()
    }
}

/// What one in-memory fixpoint run did: the public stats plus the edges
/// it actually evaluated, which the skip keeps below `passes × m`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FixpointRun {
    pub(crate) stats: EdcsStats,
    pub(crate) edge_evaluations: u64,
}

/// One fixpoint run over `g`'s edges in storage order (see the
/// [module docs](self)), leaving H-membership and H-degrees in `fx` and
/// the kept edge ids, sorted, in `ids`. Keeps the open-vertex tree when
/// [`uses_open_tree`] says it pays.
pub(crate) fn mark_edcs_into(
    g: &CsrGraph,
    params: &EdcsParams,
    fx: &mut FixpointScratch,
    ids: &mut Vec<EdgeId>,
) -> FixpointRun {
    let bound = uses_open_tree(g, params.beta());
    fixpoint(g, params, bound, fx, ids)
}

/// [`mark_edcs_into`] with the tree kept (`bound`) or not: the same
/// fixes either way, only the evaluated edges differ.
fn fixpoint(
    g: &CsrGraph,
    params: &EdcsParams,
    bound: bool,
    fx: &mut FixpointScratch,
    ids: &mut Vec<EdgeId>,
) -> FixpointRun {
    let (n, m) = (g.num_vertices(), g.num_edges());
    let FixpointScratch {
        in_h,
        deg,
        row_end,
        tree,
    } = fx;
    in_h.clear();
    in_h.resize(m.div_ceil(64), 0);
    deg.clear();
    deg.resize(n, 0);
    row_end.clear();
    if bound {
        // Row u is the run of edges (u, v > u), which ends after the edge
        // to u's last neighbour when that neighbour lies above u.
        let mut end = 0;
        row_end.extend((0..n).map(|u| {
            let u_id = VertexId::new(u);
            let d = g.degree(u_id);
            if d > 0 && g.neighbor(u_id, d - 1).index() > u {
                end = g.incident_edge(u_id, d - 1).index() + 1;
            }
            end as u32
        }));
        tree.reset(g);
    }
    let mut stats = EdcsStats::default();
    let mut skipped = 0u64;
    loop {
        stats.passes += 1;
        let ops = if bound {
            let (ops, pass_skipped) = row_pass(g, params, row_end, deg, in_h, tree);
            skipped += pass_skipped;
            ops
        } else {
            plain_pass(g.endpoint_pairs(), params, deg, in_h)
        };
        stats.ops += ops;
        if ops == 0 {
            break;
        }
    }
    ids.clear();
    for (w, &word) in in_h.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            ids.push(EdgeId::new(w << 6 | bits.trailing_zeros() as usize));
            bits &= bits - 1;
        }
    }
    stats.edges = ids.len();
    FixpointRun {
        stats,
        edge_evaluations: stats.passes as u64 * m as u64 - skipped,
    }
}

/// One pass that evaluates every edge in id order: the full scan, on
/// 64 edges per membership word.
fn plain_pass(pairs: &[(u32, u32)], params: &EdcsParams, deg: &mut [u32], in_h: &mut [u64]) -> u64 {
    let (beta, beta_minus) = (params.beta() as u32, params.beta_minus() as u32);
    let mut ops = 0;
    for (word, chunk) in in_h.iter_mut().zip(pairs.chunks(64)) {
        let mut flips = 0u64;
        for (i, &(u, v)) in chunk.iter().enumerate() {
            let (u, v) = (u as usize, v as usize);
            let sum = deg[u] + deg[v];
            if *word >> i & 1 != 0 {
                if sum > beta {
                    deg[u] -= 1;
                    deg[v] -= 1;
                    flips |= 1 << i;
                }
            } else if sum < beta_minus {
                // Post-insert the edge's degree sum is at most β⁻ + 1 ≤ β,
                // so an insertion never violates Property A.
                deg[u] += 1;
                deg[v] += 1;
                flips |= 1 << i;
            }
        }
        *word ^= flips;
        ops += flips.count_ones() as u64;
    }
    ops
}

/// One pass of the fixpoint row by row, skipping past `z` to the
/// H-edges (see the [module docs](self)); returns the fixes it made and
/// the edges it skipped. It takes slices rather than the scratch's
/// vectors so the hot loop holds their bounds in registers.
fn row_pass(
    g: &CsrGraph,
    params: &EdcsParams,
    row_end: &[u32],
    deg: &mut [u32],
    in_h: &mut [u64],
    tree: &mut OpenTree,
) -> (u64, u64) {
    let (beta, beta_minus) = (params.beta() as u32, params.beta_minus() as u32);
    let pairs = g.endpoint_pairs();
    let (mut ops, mut skipped) = (0u64, 0u64);
    let mut e = 0;
    for (u, &end) in row_end.iter().enumerate() {
        // Row u: the edges e..end, which are (u, v) for ascending v > u.
        let end = end as usize;
        if e == end {
            continue;
        }
        let du_before = deg[u];
        let mut du = du_before;
        // Past z no non-H edge can be inserted.
        let mut z = tree.last_below(beta_minus.saturating_sub(du));
        while e < end {
            let mut v = pairs[e].1 as usize;
            if v > z {
                let next = next_member(in_h, e, end);
                skipped += (next - e) as u64;
                e = next;
                if e == end {
                    break;
                }
                v = pairs[e].1 as usize;
            }
            let dv = deg[v];
            let member = is_member(in_h, e);
            let fixed = if member {
                du + dv > beta
            } else {
                du + dv < beta_minus
            };
            if fixed {
                let dv = if member {
                    du -= 1;
                    dv - 1
                } else {
                    du += 1;
                    dv + 1
                };
                in_h[e >> 6] ^= 1 << (e & 63);
                deg[v] = dv;
                ops += 1;
                tree.set(v, dv, g.degree(VertexId::new(v)));
                z = tree.last_below(beta_minus.saturating_sub(du));
            }
            e += 1;
        }
        deg[u] = du;
        // u's own leaf can lag during its row: only vertices past u are
        // compared with z there.
        if du != du_before {
            tree.set(u, du, g.degree(VertexId::new(u)));
        }
    }
    (ops, skipped)
}

/// Whether edge `e` is in H.
#[inline(always)]
fn is_member(in_h: &[u64], e: usize) -> bool {
    in_h[e >> 6] >> (e & 63) & 1 != 0
}

/// The least H-edge in `from..end`, or `end` when there is none: one
/// word per 64 edges passed over.
#[inline]
fn next_member(in_h: &[u64], from: usize, end: usize) -> usize {
    if from >= end {
        return end;
    }
    let mut w = from >> 6;
    let mut bits = in_h[w] & (u64::MAX << (from & 63));
    loop {
        if bits != 0 {
            return ((w << 6) | bits.trailing_zeros() as usize).min(end);
        }
        w += 1;
        if w << 6 >= end {
            return end;
        }
        bits = in_h[w];
    }
}

/// Build a `(β, β⁻)`-EDCS of `g` with fresh buffers. The result is a
/// subgraph CSR over `g`'s vertex set satisfying Properties A and B
/// ([`edcs_violation`] certifies both), with at most
/// [`EdcsParams::size_bound`] edges. Deterministic: no randomness is
/// involved, so equal inputs give byte-equal subgraphs.
///
/// # Examples
///
/// ```
/// use sparsimatch_core::edcs::{build_edcs, edcs_violation, EdcsParams};
/// use sparsimatch_graph::generators::clique;
///
/// let g = clique(40);
/// let p = EdcsParams::new(8, 0.25).unwrap();
/// let (h, stats) = build_edcs(&g, &p);
/// assert_eq!(edcs_violation(&g, &h, &p), None);
/// assert!(stats.edges <= p.size_bound(40));
/// ```
pub fn build_edcs(g: &CsrGraph, params: &EdcsParams) -> (CsrGraph, EdcsStats) {
    let mut ids = Vec::new();
    let run = mark_edcs_into(g, params, &mut FixpointScratch::default(), &mut ids);
    let h = g.edge_subgraph(ids.into_iter());
    (h, run.stats)
}

/// Check the EDCS invariants of `h` against its parent `g`: returns
/// `None` when `h ⊆ g`, every `h`-edge satisfies Property A, and every
/// `g ∖ h` edge satisfies Property B; otherwise a one-line description
/// of the first violation. This is the certificate the `backend` check
/// oracle runs per sweep seed.
pub fn edcs_violation(g: &CsrGraph, h: &CsrGraph, params: &EdcsParams) -> Option<String> {
    if h.num_vertices() != g.num_vertices() {
        return Some(format!(
            "vertex set mismatch: H has {} vertices, G has {}",
            h.num_vertices(),
            g.num_vertices()
        ));
    }
    let (beta, beta_minus) = (params.beta(), params.beta_minus());
    for (_, u, v) in h.edges() {
        if !g.has_edge(u, v) {
            return Some(format!("H edge ({}, {}) is not an edge of G", u.0, v.0));
        }
        let sum = h.degree(u) + h.degree(v);
        if sum > beta {
            return Some(format!(
                "Property A violated at H edge ({}, {}): degree sum {sum} > beta {beta}",
                u.0, v.0
            ));
        }
    }
    for (_, u, v) in g.edges() {
        if h.has_edge(u, v) {
            continue;
        }
        let sum = h.degree(u) + h.degree(v);
        if sum < beta_minus {
            return Some(format!(
                "Property B violated at non-H edge ({}, {}): degree sum {sum} < beta- {beta_minus}",
                u.0, v.0
            ));
        }
    }
    None
}

/// Approximate the MCM of `g` through an EDCS: build the `(β, β⁻)`
/// subgraph, then run greedy initialization plus bounded augmentation at
/// the *full* `eps` on it. Unlike the `G_Δ` pipeline there is no stage
/// split — the sparsifier's approximation factor is the fixed
/// `3/2 + O(λ)` of the EDCS theorems, so the whole ε budget goes to the
/// match stage and the end-to-end claim is `(3/2)·(1+λ)·(1+ε)`.
///
/// `seed` is accepted for signature parity with the seeded `delta`
/// pipeline and ignored: the EDCS build is deterministic. `threads` is
/// validated against the same `1..=`[`MAX_THREADS`] range as every
/// pipeline entry point; construction itself is sequential (the
/// fixpoint's pass order is the determinism contract).
pub fn approx_mcm_via_edcs(
    g: &CsrGraph,
    params: &EdcsParams,
    eps: f64,
    threads: usize,
) -> Result<PipelineResult, ThreadCountError> {
    let mut scratch = PipelineScratch::new();
    approx_mcm_via_edcs_impl(g, params, eps, threads, None, &mut scratch)?;
    Ok(scratch.into_result())
}

/// [`approx_mcm_via_edcs`] writing through a caller-owned
/// [`PipelineScratch`]: identical output, but the membership bitset,
/// degree counters, open-vertex tree, CSR arrays, searcher, and result
/// matching are all
/// reused — after a warm-up call on a given input size, repeat calls
/// perform zero heap allocations, same as the delta pipeline's warm
/// path.
pub fn approx_mcm_via_edcs_with_scratch<'s>(
    g: &CsrGraph,
    params: &EdcsParams,
    eps: f64,
    threads: usize,
    scratch: &'s mut PipelineScratch,
) -> Result<&'s PipelineResult, ThreadCountError> {
    approx_mcm_via_edcs_impl(g, params, eps, threads, None, scratch)?;
    Ok(scratch.result())
}

/// [`approx_mcm_via_edcs_with_scratch`] with unified work accounting:
/// stage spans land on the same keys as the delta pipeline
/// ([`keys::STAGE_MARK`] covers the fixpoint, [`keys::STAGE_EXTRACT`]
/// the CSR layout, [`keys::STAGE_MATCH`] the matching), and
/// [`keys::NEIGHBOR_PROBES`] records the notional half-edge scan cost
/// `passes × 2m` — the linear cost of a pass that evaluates every edge,
/// as the streamed build does, which separates this backend from the
/// sublinear delta path. [`keys::EDCS_PASSES`] counts the fixpoint's
/// passes and [`keys::EDCS_EDGE_EVALUATIONS`] the edges it actually
/// evaluated: at most `passes × m`, and far fewer on dense inputs,
/// where the walk skips the edges it proves cannot change (see the
/// [module docs](self)).
pub fn approx_mcm_via_edcs_with_scratch_metered<'s>(
    g: &CsrGraph,
    params: &EdcsParams,
    eps: f64,
    threads: usize,
    meter: &mut WorkMeter,
    scratch: &'s mut PipelineScratch,
) -> Result<&'s PipelineResult, ThreadCountError> {
    approx_mcm_via_edcs_impl(g, params, eps, threads, Some(meter), scratch)?;
    Ok(scratch.result())
}

fn approx_mcm_via_edcs_impl(
    g: &CsrGraph,
    params: &EdcsParams,
    eps: f64,
    threads: usize,
    meter: Option<&mut WorkMeter>,
    scratch: &mut PipelineScratch,
) -> Result<(), ThreadCountError> {
    if threads == 0 || threads > MAX_THREADS {
        return Err(ThreadCountError { requested: threads });
    }
    let total_start = Instant::now();
    let PipelineScratch {
        ids,
        csr,
        searcher,
        edcs,
        result,
        ..
    } = scratch;

    let mark_start = Instant::now();
    let run = mark_edcs_into(g, params, edcs, ids);
    let stats = run.stats;
    let mark_nanos = mark_start.elapsed().as_nanos();

    let extract_start = Instant::now();
    let sparse: &CsrGraph = csr.rebuild_from_marked(g, ids);
    let extract_nanos = extract_start.elapsed().as_nanos();

    // Map the fixpoint's counters onto the shared stats/probe slots:
    // `mark_cap` carries β, `marks_placed` the fix operations, and the
    // probe count is the notional half-edge scan cost `passes × 2m` of
    // evaluating every edge — no sublinearity claim is made for this
    // backend, and the probes stay equal to the streamed build's.
    result.sparsifier = SparsifierStats {
        delta: 0,
        mark_cap: params.beta(),
        low_degree_vertices: 0,
        marks_placed: stats.ops as usize,
        edges: sparse.num_edges(),
    };
    result.probes = ProbeCounts {
        degree_probes: 0,
        neighbor_probes: stats.passes as u64 * 2 * g.num_edges() as u64,
    };

    let match_start = Instant::now();
    greedy_maximal_matching_into(sparse, &mut result.matching);
    result.aug = eliminate_augmenting_paths_up_to_with(
        sparse,
        &mut result.matching,
        max_path_len_for_eps(eps),
        searcher,
    );
    let match_nanos = match_start.elapsed().as_nanos();
    debug_assert!(result.matching.is_valid_for(g), "EDCS must be a subgraph");

    if let Some(meter) = meter {
        meter.add(keys::NEIGHBOR_PROBES, result.probes.neighbor_probes);
        meter.add(keys::EDCS_PASSES, stats.passes as u64);
        meter.add(keys::EDCS_EDGE_EVALUATIONS, run.edge_evaluations);
        meter.add(keys::SPARSIFIER_EDGES, result.sparsifier.edges as u64);
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

/// Build the EDCS from a rescannable lex-sorted edge stream without
/// materializing the parent graph. Each fixpoint pass is one full scan;
/// H-membership is carried between passes as a sorted edge list walked
/// by a cursor (the stream is lex-sorted, so membership of the edge
/// *currently* visited — the only query a pass makes — is a cursor
/// comparison). The result is identical to [`build_edcs`] on the
/// materialized graph, because both visit edges in the same order with
/// the same immediate degree updates; a test pins this equivalence.
///
/// The report reuses the delta path's [`StreamBuildReport`] layout:
/// `edges_scanned` is `passes × 2m` half-edge visits (strictly more
/// than the delta build's fixed `4m` — the price of determinism without
/// a degree oracle), and `peak_resident_bytes` counts the degree array
/// plus the double-buffered membership lists, still far below
/// materializing the parent.
pub fn build_edcs_streamed(
    src: &mut dyn EdgeStreamSource,
    params: &EdcsParams,
) -> Result<(CsrGraph, EdcsStats, StreamBuildReport), ReadError> {
    let n = src.num_vertices();
    let m = src.num_edges();
    let (beta, beta_minus) = (params.beta() as u32, params.beta_minus() as u32);
    let mut deg = vec![0u32; n];
    let mut old_h: Vec<(u32, u32)> = Vec::new();
    let mut new_h: Vec<(u32, u32)> = Vec::with_capacity(params.size_bound(n).min(m));
    let mut stats = EdcsStats::default();
    let mut edges_scanned = 0u64;
    let mut peak = 0usize;
    loop {
        stats.passes += 1;
        let mut changed = false;
        let mut cursor = 0usize;
        let mut ops = 0u64;
        new_h.clear();
        src.scan(&mut |u, v| {
            edges_scanned += 2;
            let (ui, vi) = (u as usize, v as usize);
            let in_h = cursor < old_h.len() && old_h[cursor] == (u, v);
            if in_h {
                cursor += 1;
                if deg[ui] + deg[vi] > beta {
                    deg[ui] -= 1;
                    deg[vi] -= 1;
                    ops += 1;
                    changed = true;
                } else {
                    new_h.push((u, v));
                }
            } else if deg[ui] + deg[vi] < beta_minus {
                deg[ui] += 1;
                deg[vi] += 1;
                new_h.push((u, v));
                ops += 1;
                changed = true;
            }
        })?;
        stats.ops += ops;
        peak = peak.max(deg.capacity() * 4 + (old_h.capacity() + new_h.capacity()) * 8);
        std::mem::swap(&mut old_h, &mut new_h);
        if !changed {
            break;
        }
    }
    stats.edges = old_h.len();
    drop(new_h);
    drop(deg);
    let h = from_sorted_edges(n, old_h);
    let sparsifier_bytes = h.memory_bytes();
    peak = peak.max(sparsifier_bytes + n * 4);
    let report = StreamBuildReport {
        peak_resident_bytes: peak,
        graph_bytes: CsrGraph::projected_memory_bytes(n, m),
        sparsifier_bytes,
        probes: ProbeCounts {
            degree_probes: 0,
            neighbor_probes: edges_scanned,
        },
        edges_scanned,
        io_retries: 0,
    };
    Ok((h, stats, report))
}

/// End-to-end out-of-core EDCS solve: stream-build the subgraph, then
/// greedy plus bounded augmentation at the full `eps` on it, mirroring
/// [`approx_mcm_via_edcs`]'s accounting (same stats/probe conventions).
pub fn approx_mcm_edcs_streamed(
    src: &mut dyn EdgeStreamSource,
    params: &EdcsParams,
    eps: f64,
) -> Result<(PipelineResult, StreamBuildReport), ReadError> {
    let (h, stats, report) = build_edcs_streamed(src, params)?;
    let (matching, aug) = crate::pipeline::approx_mcm_on_sparsifier(&h, eps);
    Ok((
        PipelineResult {
            matching,
            sparsifier: SparsifierStats {
                delta: 0,
                mark_cap: params.beta(),
                low_degree_vertices: 0,
                marks_placed: stats.ops as usize,
                edges: stats.edges,
            },
            probes: report.probes,
            aug,
        },
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use sparsimatch_graph::csr::from_edges;
    use sparsimatch_graph::generators::{
        bipartite_gnp, clique, clique_union, gnp, star, CliqueUnionConfig,
    };
    use sparsimatch_matching::blossom::maximum_matching;

    fn test_graphs() -> Vec<CsrGraph> {
        let mut rng = StdRng::seed_from_u64(11);
        vec![
            clique(60),
            clique_union(
                CliqueUnionConfig {
                    n: 200,
                    diversity: 3,
                    clique_size: 40,
                },
                &mut rng,
            ),
            gnp(120, 0.1, &mut rng),
            bipartite_gnp(80, 80, 0.1, &mut rng),
            from_sorted_edges(0, Vec::new()),
        ]
    }

    #[test]
    fn params_validation() {
        assert!(EdcsParams::new(2, 0.5).is_ok());
        assert_eq!(
            EdcsParams::new(1, 0.5),
            Err(EdcsParamsError::BetaTooSmall { beta: 1 })
        );
        assert_eq!(
            EdcsParams::new(0, 0.5),
            Err(EdcsParamsError::BetaTooSmall { beta: 0 })
        );
        for bad in [0.0, 1.0, -0.1, f64::NAN, f64::INFINITY] {
            assert!(EdcsParams::new(8, bad).is_err(), "lambda = {bad}");
        }
        assert_eq!(
            EdcsParams::new(8, 0.1),
            Err(EdcsParamsError::LambdaBetaTooSmall {
                beta: 8,
                lambda: 0.1
            })
        );
        // beta- is always within 1..=beta-1 for accepted params.
        for beta in 2..40 {
            let p = EdcsParams::new(beta, EdcsParams::default_lambda(beta)).unwrap();
            assert!((1..=beta - 1).contains(&p.beta_minus()), "beta = {beta}");
        }
    }

    #[test]
    fn invariants_hold_on_every_family() {
        for (i, g) in test_graphs().iter().enumerate() {
            for (beta, lambda) in [(4, 0.5), (8, 0.25), (16, 0.125)] {
                let p = EdcsParams::new(beta, lambda).unwrap();
                let (h, stats) = build_edcs(g, &p);
                assert_eq!(edcs_violation(g, &h, &p), None, "graph {i}, beta {beta}");
                assert!(
                    stats.edges <= p.size_bound(g.num_vertices()),
                    "graph {i}: {} > bound {}",
                    stats.edges,
                    p.size_bound(g.num_vertices())
                );
                assert_eq!(stats.edges, h.num_edges());
            }
        }
    }

    #[test]
    fn matching_quality_within_claim() {
        // The backend's claimed ratio: (3/2)(1+lambda)(1+eps). Certified
        // here on dense and sparse instances against exact blossom.
        let p = EdcsParams::new(16, 0.125).unwrap();
        let eps = 0.3;
        let claim = 1.5 * (1.0 + p.lambda()) * (1.0 + eps);
        for (i, g) in test_graphs().iter().enumerate() {
            let exact = maximum_matching(g).len();
            let r = approx_mcm_via_edcs(g, &p, eps, 1).unwrap();
            assert!(r.matching.is_valid_for(g), "graph {i}");
            assert!(
                exact as f64 <= claim * r.matching.len() as f64 + 1e-9,
                "graph {i}: exact {exact} vs {} * {claim}",
                r.matching.len()
            );
        }
    }

    #[test]
    fn deterministic_and_seed_independent() {
        let g = clique(80);
        let p = EdcsParams::new(8, 0.25).unwrap();
        let a = approx_mcm_via_edcs(&g, &p, 0.4, 1).unwrap();
        let b = approx_mcm_via_edcs(&g, &p, 0.4, 1).unwrap();
        assert_eq!(a.matching, b.matching);
        assert_eq!(a.sparsifier.edges, b.sparsifier.edges);
    }

    #[test]
    fn scratch_reuse_is_identical_to_fresh() {
        let p = EdcsParams::new(8, 0.25).unwrap();
        let mut scratch = PipelineScratch::new();
        for (i, g) in test_graphs().iter().enumerate() {
            let cold = approx_mcm_via_edcs(g, &p, 0.4, 1).unwrap();
            let warm = approx_mcm_via_edcs_with_scratch(g, &p, 0.4, 1, &mut scratch).unwrap();
            assert_eq!(cold.matching, warm.matching, "graph {i}");
            assert_eq!(cold.sparsifier, warm.sparsifier, "graph {i}");
            assert_eq!(cold.probes, warm.probes, "graph {i}");
        }
        assert!(scratch.high_water_bytes() > 0);
    }

    #[test]
    fn rejects_bad_thread_counts() {
        let g = clique(20);
        let p = EdcsParams::new(4, 0.5).unwrap();
        assert!(approx_mcm_via_edcs(&g, &p, 0.5, 0).is_err());
        assert!(approx_mcm_via_edcs(&g, &p, 0.5, 65).is_err());
        assert!(approx_mcm_via_edcs(&g, &p, 0.5, 64).is_ok());
    }

    #[test]
    fn streamed_build_matches_in_memory() {
        let mut rng = StdRng::seed_from_u64(3);
        let graphs = [
            clique(50),
            gnp(150, 0.08, &mut rng),
            bipartite_gnp(60, 60, 0.15, &mut rng),
        ];
        let p = EdcsParams::new(8, 0.25).unwrap();
        for (i, g) in graphs.iter().enumerate() {
            let (h_mem, stats_mem) = build_edcs(g, &p);
            // CsrGraph implements EdgeStreamSource scanning lex order,
            // the same order `edges()` iterates for graphs built from
            // sorted input — so the fixpoints coincide pass for pass.
            let mut src = g.clone();
            let (h_str, stats_str, report) = build_edcs_streamed(&mut src, &p).unwrap();
            assert_eq!(stats_mem, stats_str, "graph {i}");
            let mem_edges: Vec<_> = h_mem.edges().map(|(_, u, v)| (u.0, v.0)).collect();
            let str_edges: Vec<_> = h_str.edges().map(|(_, u, v)| (u.0, v.0)).collect();
            assert_eq!(mem_edges, str_edges, "graph {i}");
            assert_eq!(
                report.edges_scanned,
                stats_str.passes as u64 * 2 * g.num_edges() as u64
            );
            assert!(report.peak_resident_bytes > 0);
        }
    }

    /// One generated fixpoint input: a graph from G(n, p) (sparse to
    /// complete), stars, graphs with isolated vertices, clique unions and
    /// bipartite graphs, with β in 2..=32 (half the draws in 2..=3, where
    /// dense graphs reach the tree's side of the rule) and λ at the
    /// default or at the λβ = 1 floor.
    fn identity_instance(seed: u64) -> (&'static str, CsrGraph, EdcsParams) {
        let mut rng = StdRng::seed_from_u64(seed);
        let beta = if rng.random_bool(0.5) {
            rng.random_range(2..=32usize)
        } else {
            rng.random_range(2..=3usize)
        };
        let lambda = if rng.random_bool(0.5) {
            EdcsParams::default_lambda(beta)
        } else {
            1.0 / beta as f64
        };
        let params = EdcsParams::new(beta, lambda).expect("valid EDCS parameters");
        let n = rng.random_range(1..=150usize);
        let p = [0.02, 0.1, 0.3, 0.7, 1.0][rng.random_range(0..5usize)];
        let (family, g) = match seed % 5 {
            0 => ("gnp", gnp(n, p, &mut rng)),
            1 => ("star", star(n)),
            2 => {
                // G(k, p) relabelled into n ≥ k ids; the rest are isolated.
                let k = rng.random_range(1..=n);
                let inner = gnp(k, p, &mut rng);
                let mut ids: Vec<usize> = (0..n).collect();
                for i in 0..k {
                    let j = rng.random_range(i..n);
                    ids.swap(i, j);
                }
                let edges = inner
                    .edges()
                    .map(|(_, u, v)| (ids[u.index()], ids[v.index()]));
                ("isolated", from_edges(n, edges))
            }
            3 => {
                let cfg = CliqueUnionConfig {
                    n,
                    diversity: rng.random_range(1..=3usize),
                    clique_size: rng.random_range(2..=n.max(2)),
                };
                ("clique-union", clique_union(cfg, &mut rng))
            }
            _ => {
                let a = rng.random_range(1..=n);
                ("bipartite", bipartite_gnp(a, n + 1 - a, p, &mut rng))
            }
        };
        (family, g, params)
    }

    /// The in-memory fixpoint, run with the open-vertex tree and without
    /// it, equals the streamed build over the same CSR — the fixpoint
    /// that evaluates every edge — in kept edges, passes and fixes; the
    /// plain run evaluates every edge and the tree run no more. The
    /// generated set has instances on both sides of the density rule.
    #[test]
    fn fixpoint_with_and_without_the_tree_equals_the_full_scan() {
        let mut sides = [0usize; 2];
        let mut fx = FixpointScratch::default();
        let mut ids = Vec::new();
        for seed in 0..400u64 {
            let (family, g, params) = identity_instance(seed);
            let m = g.num_edges() as u64;
            let (h, stats, _) = build_edcs_streamed(&mut g.clone(), &params).unwrap();
            let want: Vec<(u32, u32)> = h.edges().map(|(_, u, v)| (u.0, v.0)).collect();
            let case = format!(
                "seed {seed}: {family}, n = {}, m = {m}, beta = {}, beta- = {}",
                g.num_vertices(),
                params.beta(),
                params.beta_minus()
            );
            for bound in [false, true] {
                let run = fixpoint(&g, &params, bound, &mut fx, &mut ids);
                let kept: Vec<(u32, u32)> = ids
                    .iter()
                    .map(|&e| {
                        let (u, v) = g.edge_endpoints(e);
                        (u.0, v.0)
                    })
                    .collect();
                assert_eq!(kept, want, "{case}, tree {bound}");
                assert_eq!(run.stats, stats, "{case}, tree {bound}");
                let scan = stats.passes as u64 * m;
                if bound {
                    assert!(run.edge_evaluations <= scan, "{case}");
                } else {
                    assert_eq!(run.edge_evaluations, scan, "{case}");
                }
            }
            sides[uses_open_tree(&g, params.beta()) as usize] += 1;
        }
        assert!(
            sides[0] >= 40 && sides[1] >= 40,
            "instances per side of the density rule (plain, tree): {sides:?}"
        );
    }

    /// The density rule on the benchmark's shapes: `perfbench`'s inmem
    /// graph keeps the tree at β = 16 and serve's graph does not, and on
    /// the tree's side the fixpoint evaluates a small share of the edges.
    #[test]
    fn density_rule_splits_the_benchmark_shapes() {
        let p = EdcsParams::new(16, EdcsParams::default_lambda(16)).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut union = |n, clique_size| {
            clique_union(
                CliqueUnionConfig {
                    n,
                    diversity: 2,
                    clique_size,
                },
                &mut rng,
            )
        };
        let serve = union(300, 20);
        assert!(!uses_open_tree(&serve, p.beta()));
        let dense = clique(300);
        assert!(uses_open_tree(&dense, p.beta()));
        let run = mark_edcs_into(&dense, &p, &mut FixpointScratch::default(), &mut Vec::new());
        let scan = run.stats.passes as u64 * dense.num_edges() as u64;
        assert!(
            run.edge_evaluations * 4 < scan,
            "{} of {scan} evaluated",
            run.edge_evaluations
        );
    }

    #[test]
    fn streamed_solve_matches_in_memory_solve() {
        let g = clique(60);
        let p = EdcsParams::new(8, 0.25).unwrap();
        let mem = approx_mcm_via_edcs(&g, &p, 0.4, 1).unwrap();
        let mut src = g.clone();
        let (streamed, report) = approx_mcm_edcs_streamed(&mut src, &p, 0.4).unwrap();
        assert_eq!(mem.matching, streamed.matching);
        assert_eq!(mem.sparsifier.edges, streamed.sparsifier.edges);
        assert!(report.sparsifier_bytes > 0);
    }

    #[test]
    fn metered_matches_unmetered() {
        let g = clique(50);
        let p = EdcsParams::new(8, 0.25).unwrap();
        let mut scratch = PipelineScratch::new();
        let mut meter = WorkMeter::new();
        let plain = approx_mcm_via_edcs(&g, &p, 0.4, 1).unwrap();
        let metered =
            approx_mcm_via_edcs_with_scratch_metered(&g, &p, 0.4, 1, &mut meter, &mut scratch)
                .unwrap();
        assert_eq!(plain.matching, metered.matching);
        assert_eq!(
            meter.get(keys::SPARSIFIER_EDGES),
            metered.sparsifier.edges as u64
        );
        assert_eq!(
            meter.get(keys::NEIGHBOR_PROBES),
            metered.probes.neighbor_probes
        );
        assert_eq!(meter.span_stats(keys::PIPELINE_TOTAL).count, 1);
    }
}
