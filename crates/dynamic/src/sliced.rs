//! The one static `(1+ε/4)` window solve of Theorem 3.5, as a resumable
//! state machine, and the worst-case matcher that interleaves it with
//! updates.
//!
//! Every Gupta–Peng window (Lemma 3.4) runs one static computation on the
//! graph as it stood when the window opened: mark the sparsifier, lay it
//! out, greedy, bounded augmentation. [`SlicedComputation`] is that
//! computation, advanced by [`SlicedComputation::step`] with a work
//! budget over any [`AdjacencyOracle`]; its sampler, index and mark
//! buffers, CSR scratch, matching and blossom searcher persist from one
//! window to the next. Three matchers run it:
//!
//! * [`crate::scheme::DynamicMatcher`] runs it to completion at each
//!   window boundary over its live adjacency list and *attributes* the
//!   work evenly over the next window;
//! * [`WorstCaseDynamicMatcher`] steps it once per update over the
//!   window's snapshot, so the computation itself is interleaved with the
//!   updates;
//! * [`crate::baselines::NaiveRecompute`] runs it to completion after
//!   every update.
//!
//! Work units: `min(deg, cap) + 1` per marking vertex (its adjacency
//! probes), `|E(G_Δ)|` for the layout, `|E(G_Δ)|` for greedy, and one per
//! half-edge the augmentation visits. A step overshoots its budget by at
//! most one atomic quantum — the layout, greedy, one forest phase or one
//! single-root search, each `O(|E(G_Δ)|)`; the instruction-level slicing
//! of the theory paper would cut those too, at no asymptotic gain.

use crate::adversary::Update;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_core::sampler::{mark_indices_for_vertex, PosArraySampler};
use sparsimatch_graph::adjacency::AdjacencyOracle;
use sparsimatch_graph::adjlist::AdjListGraph;
use sparsimatch_graph::csr::{CsrGraph, CsrScratch};
use sparsimatch_graph::ids::VertexId;
use sparsimatch_matching::blossom::BlossomSearcher;
use sparsimatch_matching::bounded_aug::{max_path_len_for_eps, AugSchedule};
use sparsimatch_matching::greedy::greedy_maximal_matching_into;
use sparsimatch_matching::Matching;

/// A resumable static `(1+ε/4)`-matching computation. See the
/// [module docs](self).
pub struct SlicedComputation {
    params: SparsifierParams,
    phase: Phase,
    rng: StdRng,
    sampler: PosArraySampler,
    indices: Vec<u32>,
    /// Marked edges as `(min << 32) | max` keys, so that sorting them
    /// sorts the edges.
    marks: Vec<u64>,
    csr: CsrScratch,
    matching: Matching,
    searcher: BlossomSearcher,
}

enum Phase {
    /// Never started.
    Idle,
    /// Marking; the next vertex to visit.
    Mark(usize),
    Layout,
    Greedy,
    Augment(AugSchedule),
    Done,
}

impl SlicedComputation {
    /// An idle solve for `params`: it marks with `params.delta` and
    /// `params.mark_cap()` and augments to `(1+ε/4)`.
    pub fn new(params: SparsifierParams) -> Self {
        SlicedComputation {
            params,
            phase: Phase::Idle,
            rng: StdRng::seed_from_u64(0),
            sampler: PosArraySampler::new(0),
            indices: Vec::new(),
            marks: Vec::new(),
            csr: CsrScratch::new(),
            matching: Matching::new(0),
            searcher: BlossomSearcher::new(&Matching::new(0)),
        }
    }

    /// Start window `window` afresh. Marking draws from one stream seeded
    /// `base_seed ^ window·0x9E3779B97F4A7C15`, visiting the non-isolated
    /// vertices in ascending order.
    pub fn start(&mut self, base_seed: u64, window: u64) {
        self.rng = StdRng::seed_from_u64(base_seed ^ window.wrapping_mul(0x9E3779B97F4A7C15));
        self.marks.clear();
        self.phase = Phase::Mark(0);
    }

    /// Whether a started solve has yet to finish.
    pub fn is_running(&self) -> bool {
        !matches!(self.phase, Phase::Idle | Phase::Done)
    }

    /// Whether the result is ready.
    pub fn is_done(&self) -> bool {
        matches!(self.phase, Phase::Done)
    }

    /// Swap the finished matching into `out`, handing `out`'s buffer to
    /// the next window (panics if not done).
    pub fn swap_result(&mut self, out: &mut Matching) {
        assert!(self.is_done(), "the window solve has not finished");
        std::mem::swap(&mut self.matching, out);
    }

    /// Advance over `g` by about `budget` work units and return the units
    /// spent, which exceed the budget by at most one atomic quantum. Every
    /// step of one solve must see the same graph. `u64::MAX` runs the
    /// solve to completion, and the total is the same at any budget.
    pub fn step(&mut self, g: &impl AdjacencyOracle, budget: u64) -> u64 {
        let mut spent = 0u64;
        while spent < budget {
            match &mut self.phase {
                Phase::Idle | Phase::Done => break,
                Phase::Mark(next) => {
                    let v = *next;
                    if v == g.num_vertices() {
                        self.phase = Phase::Layout;
                        continue;
                    }
                    *next += 1;
                    let vid = VertexId::new(v);
                    let deg = g.degree(vid);
                    if deg == 0 {
                        continue;
                    }
                    let cap = self.params.mark_cap();
                    self.sampler.ensure_capacity(deg);
                    mark_indices_for_vertex(
                        g,
                        vid,
                        self.params.delta,
                        cap,
                        &mut self.sampler,
                        &mut self.rng,
                        &mut self.indices,
                    );
                    for &i in &self.indices {
                        let w = u64::from(g.neighbor(vid, i as usize).0);
                        let v = v as u64;
                        self.marks.push((v.min(w) << 32) | v.max(w));
                    }
                    spent += deg.min(cap) as u64 + 1;
                }
                Phase::Layout => {
                    self.marks.sort_unstable();
                    self.marks.dedup();
                    let marks = &self.marks;
                    let sparse = self.csr.rebuild_with(g.num_vertices(), |edges| {
                        edges.extend(marks.iter().map(|&k| ((k >> 32) as u32, k as u32)));
                    });
                    spent += sparse.num_edges() as u64;
                    self.phase = Phase::Greedy;
                }
                Phase::Greedy => {
                    let sparse = self.csr.graph();
                    greedy_maximal_matching_into(sparse, &mut self.matching);
                    spent += sparse.num_edges() as u64;
                    self.searcher.reset_from(&self.matching);
                    let max_len = max_path_len_for_eps(self.params.eps / 4.0);
                    self.phase = Phase::Augment(AugSchedule::new(max_len));
                }
                Phase::Augment(schedule) => {
                    let before = self.searcher.work();
                    if !schedule.step(self.csr.graph(), &mut self.searcher) {
                        self.searcher.write_matching_into(&mut self.matching);
                        self.phase = Phase::Done;
                    }
                    spent += self.searcher.work() - before;
                }
            }
        }
        spent
    }
}

/// The worst-case dynamic matcher: identical guarantees to
/// [`crate::scheme::DynamicMatcher`], but the window solve runs a budget
/// of work inside every update instead of all at the window boundary.
pub struct WorstCaseDynamicMatcher {
    graph: AdjListGraph,
    params: SparsifierParams,
    output: Matching,
    /// The graph as it stood when the running solve's window opened.
    snapshot: CsrGraph,
    solve: SlicedComputation,
    /// Deletions recorded during the current window (pruned from the
    /// pending result at publish time, O(1) each).
    window_deletions: Vec<(VertexId, VertexId)>,
    window_left: usize,
    budget: u64,
    seed_counter: u64,
    base_seed: u64,
}

impl WorstCaseDynamicMatcher {
    /// A matcher over `n` vertices, initially edgeless.
    pub fn new(n: usize, params: SparsifierParams, seed: u64) -> Self {
        let graph = AdjListGraph::new(n);
        WorstCaseDynamicMatcher {
            snapshot: graph.to_csr(),
            graph,
            params,
            output: Matching::new(n),
            solve: SlicedComputation::new(params),
            window_deletions: Vec::new(),
            window_left: 1,
            budget: 1,
            seed_counter: 0,
            base_seed: seed,
        }
    }

    /// The served matching.
    pub fn matching(&self) -> &Matching {
        &self.output
    }

    /// The current graph.
    pub fn graph(&self) -> &AdjListGraph {
        &self.graph
    }

    /// The per-update quantum budget currently in force.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Apply one update; returns the work units charged to it.
    pub fn apply(&mut self, update: Update) -> u64 {
        let mut work = 1u64;
        match update {
            Update::Insert(u, v) => {
                self.graph.insert_edge(u, v);
            }
            Update::Delete(u, v) => {
                self.graph.delete_edge(u, v);
                if self.output.mate(u) == Some(v) {
                    self.output.remove_pair(u);
                    work += 1;
                }
                self.window_deletions.push((u, v));
            }
        }
        // Advance the window solve by one quantum budget.
        work += self.solve.step(&self.snapshot, self.budget);
        self.window_left = self.window_left.saturating_sub(1);
        // A solve still running at the window's end keeps serving the
        // stale matching for another beat (Lemma 3.4 absorbs the slack;
        // with the theory budget this does not happen asymptotically).
        if self.window_left == 0 && !self.solve.is_running() {
            // Publish (if there is something to publish) and restart.
            if self.solve.is_done() {
                self.solve.swap_result(&mut self.output);
                for &(u, v) in &self.window_deletions {
                    if self.output.mate(u) == Some(v) {
                        self.output.remove_pair(u);
                        work += 1;
                    }
                }
            }
            self.window_deletions.clear();
            self.start_window();
        }
        work
    }

    fn start_window(&mut self) {
        self.seed_counter += 1;
        self.snapshot = self.graph.to_csr();
        // Estimated static work: marking + sparsifier + augmentation,
        // all O(|E(G_Δ)|/ε) with |E(G_Δ)| ≤ naive n'·cap; window is the
        // Gupta–Peng ε/4·|M| length. The ratio is the Theorem 3.5 budget.
        let window =
            (((self.params.eps / 4.0) * self.output.len().max(1) as f64).floor() as usize).max(1);
        let non_isolated = self.snapshot.num_non_isolated().max(1);
        let est_sparse = (non_isolated * self.params.mark_cap()).max(1) as u64;
        let est_work = est_sparse * (2 + (8.0 / self.params.eps) as u64);
        self.budget = est_work.div_ceil(window as u64).max(1);
        self.solve.start(self.base_seed, self.seed_counter);
        self.window_left = window;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use sparsimatch_graph::generators::{clique_union, CliqueUnionConfig};
    use sparsimatch_matching::blossom::maximum_matching;

    fn insert(u: usize, v: usize) -> Update {
        Update::Insert(VertexId::new(u), VertexId::new(v))
    }

    #[test]
    fn sliced_computation_matches_unsliced_result_quality() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = clique_union(
            CliqueUnionConfig {
                n: 120,
                diversity: 2,
                clique_size: 24,
            },
            &mut rng,
        );
        let params = SparsifierParams::practical(2, 0.4);
        let mut c = SlicedComputation::new(params);
        c.start(5, 1);
        // Drive with a small budget so every phase gets sliced repeatedly.
        let mut steps = 0;
        while !c.is_done() {
            c.step(&g, 50);
            steps += 1;
            assert!(steps < 1_000_000, "computation must terminate");
        }
        let mut m = Matching::new(0);
        c.swap_result(&mut m);
        assert!(m.is_valid_for(&g));
        let exact = maximum_matching(&g).len();
        assert!(
            m.len() as f64 * 1.4 >= exact as f64,
            "{} vs {exact}",
            m.len()
        );
        assert!(steps > 10, "budget 50 must actually slice the work");
    }

    #[test]
    fn step_respects_budget_modulo_one_quantum() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = clique_union(
            CliqueUnionConfig {
                n: 100,
                diversity: 2,
                clique_size: 25,
            },
            &mut rng,
        );
        let params = SparsifierParams::practical(2, 0.5);
        let mut c = SlicedComputation::new(params);
        c.start(7, 1);
        let sparse_bound = (g.num_non_isolated() * params.mark_cap()) as u64;
        while !c.is_done() {
            let spent = c.step(&g, 100);
            // One atomic quantum is at most ~the sparsifier size.
            assert!(
                spent <= 100 + 2 * sparse_bound,
                "quantum overdraft too large: {spent}"
            );
        }
    }

    #[test]
    fn worst_case_matcher_serves_valid_accurate_matchings() {
        let mut rng = StdRng::seed_from_u64(3);
        let host = clique_union(
            CliqueUnionConfig {
                n: 80,
                diversity: 2,
                clique_size: 16,
            },
            &mut rng,
        );
        let params = SparsifierParams::practical(2, 0.5);
        let mut dm = WorstCaseDynamicMatcher::new(80, params, 9);
        let edges: Vec<(u32, u32)> = host.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        // Insert everything, with interleaved deletes of random present
        // edges.
        let mut present = Vec::new();
        for (i, &(u, v)) in edges.iter().enumerate() {
            dm.apply(insert(u as usize, v as usize));
            present.push((u, v));
            if i % 7 == 6 {
                let k = rng.random_range(0..present.len());
                let (a, b) = present.swap_remove(k);
                dm.apply(Update::Delete(VertexId(a), VertexId(b)));
            }
            if i % 50 == 49 {
                let snap = dm.graph().to_csr();
                assert!(dm.matching().is_valid_for(&snap), "step {i}");
            }
        }
        let snap = dm.graph().to_csr();
        assert!(dm.matching().is_valid_for(&snap));
        let exact = maximum_matching(&snap).len();
        assert!(
            dm.matching().len() as f64 * 2.0 >= exact as f64,
            "served {} vs exact {exact}",
            dm.matching().len()
        );
    }

    #[test]
    fn per_update_work_stays_near_budget() {
        let mut rng = StdRng::seed_from_u64(4);
        let host = clique_union(
            CliqueUnionConfig {
                n: 150,
                diversity: 2,
                clique_size: 30,
            },
            &mut rng,
        );
        let params = SparsifierParams::practical(2, 0.5);
        let mut dm = WorstCaseDynamicMatcher::new(150, params, 11);
        let mut max_work = 0u64;
        let mut max_budget = 0u64;
        for (_, u, v) in host.edges() {
            let w = dm.apply(insert(u.index(), v.index()));
            max_work = max_work.max(w);
            max_budget = max_budget.max(dm.budget());
        }
        // Realized per-update work is the budget plus at most one atomic
        // quantum (bounded by the sparsifier size).
        let sparse_bound = (150 * params.mark_cap()) as u64;
        assert!(
            max_work <= max_budget + 3 * sparse_bound,
            "max work {max_work} vs budget {max_budget} + quantum {sparse_bound}"
        );
    }
}
