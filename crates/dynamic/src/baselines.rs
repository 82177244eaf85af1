//! Dynamic baselines for experiment E10.
//!
//! * [`NaiveRecompute`] — rerun the window scheme's static `(1+ε/4)`
//!   solve after every update: per-update work `Θ(|MCM|·Δ)`, the quantity
//!   the window scheme amortizes away.
//! * [`ThresholdMaximalMatching`] — a Barenboim–Maimon-style deterministic
//!   dynamic *maximal* matching (2-approximation) with repair scans capped
//!   at `T = ⌈√(βn)⌉`: insertions match free endpoints in O(1); deleting a
//!   matched edge triggers a bounded scan of each endpoint's neighborhood
//!   for a free partner, falling back to a full scan only when the bounded
//!   scan is inconclusive (work counted honestly either way). On the
//!   bounded-β hosts of the experiments the bounded scan almost always
//!   suffices, so measured update work tracks `√(βn)` — the growth the
//!   paper's comparison quotes — while maximality is preserved exactly
//!   (audited in tests). See DESIGN.md §4.4 for the substitution note.

use crate::adversary::Update;
use crate::sliced::SlicedComputation;
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_graph::adjacency::AdjacencyOracle;
use sparsimatch_graph::adjlist::AdjListGraph;
use sparsimatch_graph::ids::VertexId;
use sparsimatch_matching::Matching;

/// Full static recompute after every update: the window solve run to
/// completion on every update's graph, as if every window lasted one
/// update.
pub struct NaiveRecompute {
    graph: AdjListGraph,
    output: Matching,
    solve: SlicedComputation,
    seed: u64,
    counter: u64,
}

impl NaiveRecompute {
    /// A naive recomputing matcher on `n` vertices.
    pub fn new(n: usize, params: SparsifierParams, seed: u64) -> Self {
        NaiveRecompute {
            graph: AdjListGraph::new(n),
            output: Matching::new(n),
            solve: SlicedComputation::new(params),
            seed,
            counter: 0,
        }
    }

    /// The served matching.
    pub fn matching(&self) -> &Matching {
        &self.output
    }

    /// Snapshot of the current graph (for exact audits).
    pub fn graph_snapshot(&self) -> sparsimatch_graph::csr::CsrGraph {
        self.graph.to_csr()
    }

    /// Apply one update; returns the work units spent.
    pub fn apply(&mut self, update: Update) -> u64 {
        match update {
            Update::Insert(u, v) => {
                self.graph.insert_edge(u, v);
            }
            Update::Delete(u, v) => {
                self.graph.delete_edge(u, v);
            }
        }
        self.counter += 1;
        self.solve.start(self.seed, self.counter);
        let work = 1 + self.solve.step(&self.graph, u64::MAX);
        self.solve.swap_result(&mut self.output);
        work
    }
}

/// Deterministic dynamic maximal matching with `√(βn)`-bounded repair.
pub struct ThresholdMaximalMatching {
    graph: AdjListGraph,
    output: Matching,
    /// Repair scan budget `T = ⌈√(βn)⌉`.
    threshold: usize,
}

impl ThresholdMaximalMatching {
    /// A threshold matcher on `n` vertices for graphs of neighborhood
    /// independence ≤ `beta`.
    pub fn new(n: usize, beta: usize) -> Self {
        ThresholdMaximalMatching {
            graph: AdjListGraph::new(n),
            output: Matching::new(n),
            threshold: ((beta * n) as f64).sqrt().ceil() as usize + 1,
        }
    }

    /// The served (maximal) matching.
    pub fn matching(&self) -> &Matching {
        &self.output
    }

    /// The repair budget `T`.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Snapshot of the current graph (for exact audits).
    pub fn graph_snapshot(&self) -> sparsimatch_graph::csr::CsrGraph {
        self.graph.to_csr()
    }

    /// Apply one update; returns work units (adjacency probes + O(1)).
    pub fn apply(&mut self, update: Update) -> u64 {
        match update {
            Update::Insert(u, v) => {
                self.graph.insert_edge(u, v);
                if !self.output.is_matched(u) && !self.output.is_matched(v) {
                    self.output.add_pair(u, v);
                }
                1
            }
            Update::Delete(u, v) => {
                self.graph.delete_edge(u, v);
                let mut work = 1u64;
                if self.output.mate(u) == Some(v) {
                    self.output.remove_pair(u);
                    work += self.repair(u);
                    work += self.repair(v);
                }
                work
            }
        }
    }

    /// Find a free neighbor for the newly freed `v`: scan up to `T`
    /// adjacency slots; if all scanned slots are matched and degree
    /// exceeds `T`, fall back to the full scan (counted).
    fn repair(&mut self, v: VertexId) -> u64 {
        if self.output.is_matched(v) {
            return 0;
        }
        let deg = self.graph.degree(v);
        let bounded = deg.min(self.threshold);
        let mut work = 0u64;
        for i in 0..bounded {
            work += 1;
            let u = self.graph.neighbor(v, i);
            if !self.output.is_matched(u) {
                self.output.add_pair(v, u);
                return work;
            }
        }
        // Inconclusive bounded scan on a high-degree vertex: full scan.
        for i in bounded..deg {
            work += 1;
            let u = self.graph.neighbor(v, i);
            if !self.output.is_matched(u) {
                self.output.add_pair(v, u);
                return work;
            }
        }
        work
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{Adversary, Policy, StreamAdversary};
    use crate::scheme::DynamicMatcher;
    use rand::{rngs::StdRng, SeedableRng};
    use sparsimatch_graph::generators::{clique, clique_union, CliqueUnionConfig};
    use sparsimatch_matching::blossom::maximum_matching;

    #[test]
    fn threshold_matcher_stays_maximal() {
        let mut rng = StdRng::seed_from_u64(5);
        let host = clique_union(
            CliqueUnionConfig {
                n: 60,
                diversity: 2,
                clique_size: 12,
            },
            &mut rng,
        );
        let mut adv = StreamAdversary::new(&host, Policy::Oblivious { p_insert: 0.65 });
        let mut tm = ThresholdMaximalMatching::new(60, 2);
        for step in 0..3000 {
            let upd = adv.next(&Matching::new(60), &mut rng);
            tm.apply(upd);
            if step % 100 == 99 {
                let snapshot = tm.graph.to_csr();
                assert!(tm.matching().is_valid_for(&snapshot), "step {step}");
                assert!(tm.matching().is_maximal_in(&snapshot), "step {step}");
            }
        }
    }

    #[test]
    fn threshold_matcher_is_2_approx() {
        let mut rng = StdRng::seed_from_u64(6);
        let host = clique(30);
        let mut adv = StreamAdversary::new(&host, Policy::Oblivious { p_insert: 0.8 });
        let mut tm = ThresholdMaximalMatching::new(30, 1);
        for _ in 0..1500 {
            tm.apply(adv.next(&Matching::new(30), &mut rng));
        }
        let snapshot = tm.graph.to_csr();
        let exact = maximum_matching(&snapshot).len();
        assert!(2 * tm.matching().len() >= exact);
    }

    #[test]
    fn windowed_full_recompute_pays_for_skipping_the_sparsifier() {
        let mut rng = StdRng::seed_from_u64(8);
        let n = 400;
        let host = clique_union(
            CliqueUnionConfig {
                n,
                diversity: 2,
                clique_size: n / 2,
            },
            &mut rng,
        );
        // Drive both windowed matchers over the same insert stream. With
        // Δ ≥ the maximum degree every vertex keeps all its edges, so the
        // second matcher's window solve runs on the full graph.
        let mut with_sparsifier = DynamicMatcher::new(n, SparsifierParams::practical(2, 0.5), 7);
        let mut no_sparsifier = DynamicMatcher::new(
            n,
            SparsifierParams::with_delta(2, 0.5, host.max_degree()),
            7,
        );
        let mut full_total = 0u64;
        let mut sparse_total = 0u64;
        // Random insertion order keeps the intermediate graphs β-bounded
        // (sorted order passes through star-like huge-β states).
        use rand::seq::SliceRandom;
        let mut stream: Vec<(VertexId, VertexId)> = host.edges().map(|(_, u, v)| (u, v)).collect();
        stream.shuffle(&mut rng);
        for (u, v) in stream {
            full_total += no_sparsifier.apply(Update::Insert(u, v)).work;
            sparse_total += with_sparsifier.apply(Update::Insert(u, v)).work;
        }
        let snapshot = no_sparsifier.graph().to_csr();
        assert!(no_sparsifier.matching().is_valid_for(&snapshot));
        // Identical scheme, identical accuracy target — the sparsifier is
        // the only difference, and it must pay off on dense hosts.
        assert!(
            2 * sparse_total < full_total,
            "with sparsifier {sparse_total} vs without {full_total}"
        );
    }

    #[test]
    fn naive_recompute_accurate_but_expensive() {
        let mut rng = StdRng::seed_from_u64(7);
        let host = clique(40);
        let mut adv = StreamAdversary::new(&host, Policy::Oblivious { p_insert: 1.0 });
        let params = SparsifierParams::practical(1, 0.5);
        let mut nm = NaiveRecompute::new(40, params, 9);
        let mut total_work = 0u64;
        for _ in 0..host.num_edges() {
            total_work += nm.apply(adv.next(&Matching::new(40), &mut rng));
        }
        let snapshot = nm.graph.to_csr();
        let exact = maximum_matching(&snapshot).len();
        assert!(nm.matching().len() as f64 * 1.5 >= exact as f64);
        assert!(
            total_work as f64 / host.num_edges() as f64 > 40.0,
            "naive recompute should be far above O(1) per update"
        );
    }
}
