//! The Theorem 3.5 dynamic matcher.
//!
//! Implementation of the window scheme with explicit work accounting:
//!
//! * every update applies its graph mutation and (for deletions of
//!   currently-output pairs) prunes the output matching — O(1) work;
//! * when the window closes, the pending fresh matching (computed on the
//!   graph as the window opened, minus edges deleted during the window)
//!   becomes the output, the window solve of [`crate::sliced`] runs to
//!   completion on the current graph, and a new window of length
//!   `max(1, ⌊ε/4·|M|⌋)` opens;
//! * the static computation's work — adjacency probes for the sparsifier,
//!   sparsifier edges for greedy, and blossom edge-visits for the bounded
//!   augmentation, all machine-independent unit counts — runs at the
//!   boundary and is *attributed* evenly over the next window's updates.
//!   [`UpdateReport::work`] is therefore the per-update share the
//!   theorem bounds by `O((β/ε³)·log(1/ε))`; the wall-clock cost of the
//!   solve lands on the boundary update. The worst-case variant of
//!   [Gupta–Peng], which interleaves the solve itself with the window's
//!   updates, is [`crate::sliced::WorstCaseDynamicMatcher`].
//!
//! The model starts from an empty graph ([`DynamicMatcher::new`]), but
//! Lemma 3.4 needs only a `(1+ε/4)`-approximate matching when a window
//! opens, so [`DynamicMatcher::from_graph`] stands the scheme up on a
//! loaded graph with one window solve instead of one insert per edge.

use crate::adversary::Update;
use crate::sliced::SlicedComputation;
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_graph::adjlist::AdjListGraph;
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_matching::Matching;
use sparsimatch_obs::{keys, WorkMeter};

/// Per-update accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct UpdateReport {
    /// Work units charged to this update: O(1) bookkeeping plus this
    /// update's even share of the static computation run when its window
    /// opened (attributed, not run, here).
    pub work: u64,
    /// Whether the output matching was swapped at this update (window
    /// boundary).
    pub swapped: bool,
}

impl UpdateReport {
    /// Mirror into the unified [`WorkMeter`] accounting: one update, its
    /// work units, and the worst single-update work as a high-water mark
    /// (the quantity Theorem 3.5 bounds).
    pub fn mirror_into(&self, meter: &mut WorkMeter) {
        meter.incr(keys::UPDATES);
        meter.add(keys::UPDATE_WORK, self.work);
        meter.record_max(keys::MAX_UPDATE_WORK, self.work);
    }
}

/// Fully dynamic `(1+ε)`-approximate maximum matching over a fixed vertex
/// set.
///
/// ```
/// use sparsimatch_core::params::SparsifierParams;
/// use sparsimatch_dynamic::adversary::Update;
/// use sparsimatch_dynamic::scheme::DynamicMatcher;
/// use sparsimatch_graph::ids::VertexId;
///
/// let params = SparsifierParams::practical(1, 0.5);
/// let mut dm = DynamicMatcher::new(4, params, 42);
/// dm.apply(Update::Insert(VertexId(0), VertexId(1)));
/// dm.apply(Update::Insert(VertexId(2), VertexId(3)));
/// // The served matching is always a valid matching of the current graph.
/// let snapshot = dm.graph().to_csr();
/// assert!(dm.matching().is_valid_for(&snapshot));
/// ```
pub struct DynamicMatcher {
    graph: AdjListGraph,
    params: SparsifierParams,
    output: Matching,
    /// Fresh matching awaiting the end of the current window.
    pending: Matching,
    /// Updates remaining in the current window.
    window_left: usize,
    /// Work share charged to each update of the current window.
    share: u64,
    seed_counter: u64,
    base_seed: u64,
    /// The window solve. Its buffers persist across windows and the
    /// published and pending matchings trade buffers with it, so a warm
    /// window boundary allocates nothing.
    solve: SlicedComputation,
}

impl DynamicMatcher {
    /// A matcher over `n` vertices, initially edgeless (the standard
    /// dynamic-model assumption; [`DynamicMatcher::from_graph`] starts
    /// from a loaded graph instead). `params.eps` is the end-to-end
    /// target ε.
    pub fn new(n: usize, params: SparsifierParams, seed: u64) -> Self {
        DynamicMatcher {
            graph: AdjListGraph::new(n),
            params,
            output: Matching::new(n),
            pending: Matching::new(n),
            window_left: 1,
            share: 0,
            seed_counter: 0,
            base_seed: seed,
            solve: SlicedComputation::new(params),
        }
    }

    /// A matcher stood up on `g` in one window solve: the adjacency list
    /// is loaded in one pass, the solve runs to completion and its
    /// matching is published, and the first window of
    /// `max(1, ⌊ε/4·|M|⌋)` updates opens with the next solve pending
    /// until the window's end, where [`apply`](Self::apply) runs it.
    /// Lemma 3.4 asks only for a `(1+ε/4)`-approximate matching when a
    /// window opens, which the solve provides, so no edge has to be
    /// replayed through `apply`. The first window's updates pay for the
    /// solve, as every window pays for the one run when it opened.
    ///
    /// ```
    /// use sparsimatch_core::params::SparsifierParams;
    /// use sparsimatch_dynamic::adversary::Update;
    /// use sparsimatch_dynamic::scheme::DynamicMatcher;
    /// use sparsimatch_graph::csr::from_edges;
    /// use sparsimatch_graph::ids::VertexId;
    ///
    /// let g = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
    /// let mut dm = DynamicMatcher::from_graph(&g, SparsifierParams::practical(2, 0.5), 3);
    /// assert_eq!(dm.graph().num_edges(), 5);
    /// assert!(dm.matching().is_valid_for(&g));
    /// assert!(!dm.matching().is_empty());
    /// dm.apply(Update::Delete(VertexId(2), VertexId(3)));
    /// assert!(dm.matching().is_valid_for(&dm.graph().to_csr()));
    /// ```
    pub fn from_graph(g: &CsrGraph, params: SparsifierParams, seed: u64) -> Self {
        let mut dm = DynamicMatcher::new(g.num_vertices(), params, seed);
        dm.graph = AdjListGraph::from_csr(g);
        let static_work = dm.solve_window();
        // Publish the solve and keep a copy pending: the two lose the same
        // deletions, so the first boundary publishes what is served and
        // runs the next solve.
        std::mem::swap(&mut dm.output, &mut dm.pending);
        dm.pending.clone_from(&dm.output);
        dm.open_window(static_work);
        dm
    }

    /// The served matching (always a valid matching of the current graph).
    pub fn matching(&self) -> &Matching {
        &self.output
    }

    /// The current graph.
    pub fn graph(&self) -> &AdjListGraph {
        &self.graph
    }

    /// Apply one update.
    ///
    /// The returned [`UpdateReport`] charges this update its O(1)
    /// mutation cost plus its share of the static recompute run when its
    /// window opened; Theorem 3.5 bounds that charge by
    /// [`work_bound`](Self::work_bound) up to this implementation's
    /// constants, and the served matching stays valid throughout:
    ///
    /// ```
    /// use sparsimatch_core::params::SparsifierParams;
    /// use sparsimatch_dynamic::adversary::Update;
    /// use sparsimatch_dynamic::scheme::DynamicMatcher;
    /// use sparsimatch_graph::ids::VertexId;
    ///
    /// let mut dm = DynamicMatcher::new(8, SparsifierParams::practical(1, 0.5), 7);
    /// for i in 0..4 {
    ///     let report = dm.apply(Update::Insert(VertexId(2 * i), VertexId(2 * i + 1)));
    ///     assert!(report.work <= 4 * dm.work_bound());
    ///     assert!(dm.matching().is_valid_for(&dm.graph().to_csr()));
    /// }
    /// ```
    pub fn apply(&mut self, update: Update) -> UpdateReport {
        let mut work = 1u64; // the O(1) mutation + bookkeeping
        match update {
            Update::Insert(u, v) => {
                self.graph.insert_edge(u, v);
            }
            Update::Delete(u, v) => {
                self.graph.delete_edge(u, v);
                // Prune the output and the pending matching in O(1).
                for m in [&mut self.output, &mut self.pending] {
                    if m.mate(u) == Some(v) {
                        m.remove_pair(u);
                        work += 1;
                    }
                }
            }
        }
        work += self.share;
        self.window_left = self.window_left.saturating_sub(1);
        let swapped = self.window_left == 0;
        if swapped {
            // Window boundary: publish the pending matching (already
            // pruned of in-window deletions) and solve afresh on the
            // current graph.
            std::mem::swap(&mut self.output, &mut self.pending);
            let static_work = self.solve_window();
            self.open_window(static_work);
        }
        UpdateReport { work, swapped }
    }

    /// Open a window of `max(1, ⌊ε/4·|M|⌋)` updates, sized by the served
    /// matching, whose shares pay for the `static_work` of the solve run
    /// as it opened. Every window opens here, at a boundary of
    /// [`apply`](Self::apply) or at [`from_graph`](Self::from_graph).
    fn open_window(&mut self, static_work: u64) {
        let window = ((self.params.eps / 4.0) * self.output.len().max(1) as f64).floor() as usize;
        let window = window.max(1);
        self.window_left = window;
        self.share = static_work.div_ceil(window as u64);
    }

    /// [`DynamicMatcher::apply`] that also mirrors the report into a
    /// [`WorkMeter`].
    pub fn apply_metered(&mut self, update: Update, meter: &mut WorkMeter) -> UpdateReport {
        let report = self.apply(update);
        report.mirror_into(meter);
        report
    }

    /// Run the window solve to completion on the current graph, straight
    /// off the dynamic adjacency (it implements the oracle), and store the
    /// result as pending; return its work units. Marking visits only the
    /// non-isolated vertices — the dynamic structure knows them for free,
    /// and skipping the rest is what turns the naive O(n·Δ) construction
    /// cost into the refined O(|MCM|·β·Δ) of Observation 2.10 + Lemma 2.2
    /// (n' ≤ (β+2)·|MCM|).
    fn solve_window(&mut self) -> u64 {
        self.seed_counter += 1;
        self.solve.start(self.base_seed, self.seed_counter);
        let work = self.solve.step(&self.graph, u64::MAX);
        self.solve.swap_result(&mut self.pending);
        work
    }

    /// Theory bound on the worst-case per-update work: `O(Δ/ε³)` units.
    /// The constants reflect this implementation's splitting: the static
    /// stage runs at ε/4, its augmentation visits `O(m_Δ/(ε/4))` edges
    /// with `m_Δ ≤ 4·|MCM|·Δ`, and the window has `⌊ε/4·|M|⌋` updates —
    /// so the per-update share is about `Δ·(4/ε)²·4/ε = 64·Δ/ε³`.
    pub fn work_bound(&self) -> u64 {
        let eps = self.params.eps;
        (64.0 * self.params.mark_cap() as f64 / (eps * eps * eps)) as u64 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::Update;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use sparsimatch_graph::generators::{clique_union, gnp, path, CliqueUnionConfig};
    use sparsimatch_graph::ids::VertexId;
    use sparsimatch_matching::blossom::maximum_matching;

    fn insert(u: usize, v: usize) -> Update {
        Update::Insert(VertexId::new(u), VertexId::new(v))
    }
    fn delete(u: usize, v: usize) -> Update {
        Update::Delete(VertexId::new(u), VertexId::new(v))
    }

    #[test]
    fn output_always_valid() {
        let mut rng = StdRng::seed_from_u64(1);
        let params = SparsifierParams::practical(2, 0.5);
        let mut dm = DynamicMatcher::new(40, params, 7);
        let mut reference = AdjListGraph::new(40);
        for step in 0..1500 {
            let u = rng.random_range(0..40);
            let v = rng.random_range(0..40);
            if u == v {
                continue;
            }
            let upd = if rng.random_bool(0.6) {
                reference.insert_edge(VertexId::new(u), VertexId::new(v));
                insert(u, v)
            } else {
                reference.delete_edge(VertexId::new(u), VertexId::new(v));
                delete(u, v)
            };
            dm.apply(upd);
            // Validity: every output pair is a current edge (checked on a
            // sample of steps plus the first 50, where churn is highest).
            if step < 50 || step % 25 == 0 {
                let snapshot = dm.graph().to_csr();
                assert!(dm.matching().is_valid_for(&snapshot));
            }
        }
    }

    #[test]
    fn insert_only_stream_tracks_mcm() {
        let params = SparsifierParams::practical(1, 0.4);
        let mut dm = DynamicMatcher::new(100, params, 3);
        // Build a clique incrementally.
        for u in 0..100 {
            for v in (u + 1)..100 {
                dm.apply(insert(u, v));
            }
        }
        let snapshot = dm.graph().to_csr();
        let exact = maximum_matching(&snapshot).len();
        assert_eq!(exact, 50);
        // After ~5000 inserts the window machinery has cycled many times;
        // the served matching must be within (1+eps) of 50 (whp), plus the
        // stability slack of one window (<= eps/4 * |M|).
        assert!(
            dm.matching().len() as f64 * 1.55 >= exact as f64,
            "served {} vs exact {exact}",
            dm.matching().len()
        );
    }

    #[test]
    fn deletion_of_matched_edge_prunes_output() {
        let params = SparsifierParams::practical(1, 0.5);
        let mut dm = DynamicMatcher::new(4, params, 5);
        dm.apply(insert(0, 1));
        // Force window turnover so (0,1) can enter the output.
        for _ in 0..50 {
            dm.apply(insert(2, 3));
            dm.apply(delete(2, 3));
        }
        if dm.matching().mate(VertexId(0)) == Some(VertexId(1)) {
            dm.apply(delete(0, 1));
            assert!(!dm.matching().is_matched(VertexId(0)));
        }
    }

    #[test]
    fn work_per_update_is_bounded_by_theory_shape() {
        // On a growing clique stream (random insertion order, so the
        // intermediate graphs keep small neighborhood independence — a
        // row-major order would pass through star-like, huge-β states the
        // theorem does not cover), per-update work must stay within a
        // constant factor of the O(Δ/ε³) bound — in particular it must
        // not grow with n.
        use rand::seq::SliceRandom;
        let params = SparsifierParams::practical(3, 0.5);
        let mut dm = DynamicMatcher::new(120, params, 11);
        let mut edges: Vec<(usize, usize)> = (0..120)
            .flat_map(|u| ((u + 1)..120).map(move |v| (u, v)))
            .collect();
        let mut rng = StdRng::seed_from_u64(99);
        edges.shuffle(&mut rng);
        let mut max_work = 0u64;
        for (u, v) in edges {
            let r = dm.apply(insert(u, v));
            max_work = max_work.max(r.work);
        }
        let bound = dm.work_bound();
        assert!(
            max_work <= 4 * bound,
            "max work {max_work} vs theory shape {bound}"
        );
    }

    #[test]
    fn metered_updates_mirror_work() {
        let params = SparsifierParams::practical(1, 0.5);
        let mut dm = DynamicMatcher::new(10, params, 17);
        let mut meter = WorkMeter::new();
        let mut total = 0u64;
        let mut worst = 0u64;
        for i in 0..60 {
            let r = dm.apply_metered(insert(i % 9, (i + 1) % 9), &mut meter);
            total += r.work;
            worst = worst.max(r.work);
        }
        assert_eq!(meter.get(keys::UPDATES), 60);
        assert_eq!(meter.get(keys::UPDATE_WORK), total);
        assert_eq!(meter.get_max(keys::MAX_UPDATE_WORK), worst);
    }

    #[test]
    fn swap_reports_at_window_boundaries() {
        let params = SparsifierParams::practical(1, 0.5);
        let mut dm = DynamicMatcher::new(10, params, 13);
        let mut swaps = 0;
        for i in 0..100 {
            let r = dm.apply(insert(i % 9, (i + 1) % 9));
            swaps += r.swapped as u64;
        }
        assert!(swaps > 0, "windows must turn over");
    }

    #[test]
    fn from_graph_publishes_one_solve_and_runs_the_next_at_the_window_end() {
        let mut rng = StdRng::seed_from_u64(41);
        let g = clique_union(
            CliqueUnionConfig {
                n: 200,
                diversity: 2,
                clique_size: 20,
            },
            &mut rng,
        );
        let params = SparsifierParams::practical(2, 0.5);
        let mut dm = DynamicMatcher::from_graph(&g, params, 5);
        assert_eq!(dm.graph().to_csr(), g);
        // One solve, window 1's, is published and pending.
        let mut solve = SlicedComputation::new(params);
        solve.start(5, 1);
        let work = solve.step(&g, u64::MAX);
        let mut published = Matching::new(0);
        solve.swap_result(&mut published);
        assert_eq!(dm.output, published);
        assert_eq!(dm.pending, published);
        let exact = maximum_matching(&g).len();
        assert!(published.len() as f64 * 1.125 >= exact as f64);
        let window = (params.eps / 4.0 * published.len() as f64).floor() as usize;
        let share = work.div_ceil(window as u64);
        assert_eq!((dm.window_left, dm.share), (window, share));
        // The window's updates pay for the solve; its last update
        // publishes the served matching again and runs window 2's solve.
        let (u, v) = (0, dm.output.mate(VertexId(0)).unwrap().index());
        for i in 0..window {
            let update = if i % 2 == 0 {
                delete(u, v)
            } else {
                insert(u, v)
            };
            let report = dm.apply(update);
            assert_eq!(report.swapped, i + 1 == window);
            assert!(report.work > share);
        }
        let mut pruned = published;
        pruned.remove_pair(VertexId(0));
        assert_eq!(dm.output, pruned);
        assert_eq!(dm.seed_counter, 2);
    }

    #[test]
    fn stepped_solve_equals_the_eager_window() {
        // The window solve stepped at any budget gives the matching and
        // the total work of the matcher's eager window on the same graph.
        let mut rng = StdRng::seed_from_u64(31);
        let graphs = [
            (
                "clique-union",
                clique_union(
                    CliqueUnionConfig {
                        n: 120,
                        diversity: 2,
                        clique_size: 24,
                    },
                    &mut rng,
                ),
            ),
            ("gnp", gnp(150, 0.06, &mut rng)),
            ("path", path(90)),
            ("empty", AdjListGraph::new(40).to_csr()),
        ];
        let params = SparsifierParams::practical(2, 0.5);
        for (name, g) in &graphs {
            for seed in [1u64, 7, 99] {
                let mut dm = DynamicMatcher::new(g.num_vertices(), params, seed);
                dm.graph = AdjListGraph::from_csr(g);
                let eager_work = dm.solve_window();
                for budget in [1, 7, 100, u64::MAX] {
                    let mut solve = SlicedComputation::new(params);
                    solve.start(seed, 1);
                    let mut work = 0;
                    while !solve.is_done() {
                        work += solve.step(&dm.graph, budget);
                    }
                    let mut stepped = Matching::new(0);
                    solve.swap_result(&mut stepped);
                    assert_eq!(stepped, dm.pending, "{name} seed {seed} budget {budget}");
                    assert_eq!(work, eager_work, "{name} seed {seed} budget {budget}");
                }
            }
        }
    }
}
