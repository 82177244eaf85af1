//! `(1 + 1/k)`-approximate maximum matching on general graphs via
//! bounded-length augmentation.
//!
//! The classical fact behind Hopcroft–Karp (and behind the `O(m/ε)`
//! approximation the paper invokes on its sparsifier): if a matching `M`
//! admits no augmenting path of length ≤ 2k−1, then
//! `|M| ≥ k/(k+1) · |MCM|`, i.e. `M` is a `(1 + 1/k)`-approximate MCM.
//!
//! We reach that state by repeatedly running the depth-capped blossom
//! search of [`crate::blossom::BlossomSearcher`] from every free vertex,
//! in phases of increasing cap 1, 3, …, 2k−1, starting from a greedy
//! maximal matching. Each successful search augments (so there are at most
//! `|MCM|` successes overall) and each failed search at cap `2k−1`
//! certifies no short path starts at that root. A final full sweep at the
//! target cap with no successes certifies the guarantee. [`AugSchedule`]
//! is that schedule one search at a time.

use crate::blossom::BlossomSearcher;
use crate::greedy::greedy_maximal_matching;
use crate::matching::Matching;
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::ids::VertexId;

/// Statistics from a bounded-augmentation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AugStats {
    /// Total augmenting paths flipped across all cap values.
    pub augmentations: usize,
    /// Total capped searches performed (successful or not).
    pub searches: usize,
    /// Half-edges examined across all searches (machine-independent work).
    pub edge_visits: u64,
}

/// The path-length bound achieving a `(1+ε)`-approximation:
/// `k = ⌈1/ε⌉`, paths of length ≤ `2k − 1`.
pub fn max_path_len_for_eps(eps: f64) -> usize {
    assert!(eps > 0.0, "eps must be positive");
    let k = (1.0 / eps).ceil() as usize;
    2 * k.max(1) - 1
}

/// Compute a `(1+ε)`-approximate maximum matching.
///
/// ```
/// use sparsimatch_graph::generators::path;
/// use sparsimatch_matching::bounded_aug::approx_maximum_matching;
///
/// let g = path(101); // MCM = 50
/// let m = approx_maximum_matching(&g, 0.25); // guarantee ≥ 4/5 · 50 = 40
/// assert!(m.len() >= 40);
/// assert!(m.is_valid_for(&g));
/// ```
pub fn approx_maximum_matching(g: &CsrGraph, eps: f64) -> Matching {
    let init = greedy_maximal_matching(g);
    approx_maximum_matching_from(g, init, eps).0
}

/// Grow `init` into a `(1+ε)`-approximate MCM; returns stats as well.
pub fn approx_maximum_matching_from(
    g: &CsrGraph,
    init: Matching,
    eps: f64,
) -> (Matching, AugStats) {
    let max_len = max_path_len_for_eps(eps);
    let mut m = init;
    let stats = eliminate_augmenting_paths_up_to(g, &mut m, max_len);
    (m, stats)
}

/// Augment `m` until it admits no augmenting path of length ≤ `max_len`
/// (odd). On return `|m| ≥ k/(k+1)·|MCM(g)|` for `k = (max_len+1)/2`.
pub fn eliminate_augmenting_paths_up_to(
    g: &CsrGraph,
    m: &mut Matching,
    max_len: usize,
) -> AugStats {
    let mut searcher = BlossomSearcher::new(m);
    eliminate_augmenting_paths_up_to_with(g, m, max_len, &mut searcher)
}

/// [`eliminate_augmenting_paths_up_to`] with a caller-owned searcher: the
/// searcher is re-initialized from `m` (so any prior state is irrelevant)
/// and its buffers are reused instead of reallocated. Output and stats
/// are identical to the fresh-searcher path — `reset_from` zeroes the
/// work counter, so `edge_visits` match too.
pub fn eliminate_augmenting_paths_up_to_with(
    g: &CsrGraph,
    m: &mut Matching,
    max_len: usize,
    searcher: &mut BlossomSearcher,
) -> AugStats {
    searcher.reset_from(m);
    let mut schedule = AugSchedule::new(max_len);
    while schedule.step(g, searcher) {}
    searcher.write_matching_into(m);
    schedule.stats()
}

/// The phase schedule of [`eliminate_augmenting_paths_up_to_with`], one
/// search at a time, for callers that spread the augmentation over a
/// work budget.
///
/// Bulk phase: multi-source forest phases, shortest caps first (the
/// Hopcroft–Karp schedule). Each phase costs O(m) and flips a set of
/// vertex-disjoint augmenting paths at once, so the bulk cost is
/// O(phases·m) rather than one full forest search per augmentation —
/// the difference between milliseconds and seconds on families where
/// the sparsifier stays dense and greedy leaves many free vertices
/// (e.g. clique-union). A cap advances once a phase at it flips nothing.
///
/// Certification sweep: the capped forest search can, in rare blossom
/// configurations, miss a short path blocked by another tree's odd
/// claim. Every free vertex is re-checked with a dedicated single-root
/// search, and the sweep repeats until a full pass is clean.
#[derive(Debug)]
pub struct AugSchedule {
    max_cap: u32,
    stage: Stage,
    stats: AugStats,
}

#[derive(Clone, Copy, Debug)]
enum Stage {
    /// The next forest phase runs at this cap.
    Bulk(u32),
    /// The sweep's next root candidate, and whether this pass augmented.
    Certify {
        next: u32,
        progressed: bool,
    },
    Done,
}

/// A certification pass from the first vertex.
const SWEEP: Stage = Stage::Certify {
    next: 0,
    progressed: false,
};

impl AugSchedule {
    /// A schedule ending with no augmenting path of length ≤ `max_len`
    /// (odd), to run on a searcher just reset from the starting matching.
    pub fn new(max_len: usize) -> Self {
        assert!(max_len % 2 == 1, "augmenting paths have odd length");
        AugSchedule {
            max_cap: max_len as u32,
            stage: Stage::Bulk(1),
            stats: AugStats::default(),
        }
    }

    /// Run the schedule's next search on `searcher` over `g`. Returns
    /// `false`, running nothing, once the schedule is complete; the
    /// searcher then holds the result.
    pub fn step(&mut self, g: &CsrGraph, searcher: &mut BlossomSearcher) -> bool {
        loop {
            match self.stage {
                Stage::Bulk(cap) => {
                    let flips = searcher.augment_phase(g, cap);
                    self.stats.augmentations += flips;
                    if flips == 0 {
                        self.stage = if cap >= self.max_cap {
                            SWEEP
                        } else {
                            Stage::Bulk(cap + 2)
                        };
                    }
                }
                Stage::Certify { next, progressed } => {
                    let root = (next..g.num_vertices() as u32)
                        .map(VertexId)
                        .find(|&v| g.degree(v) > 0 && searcher.is_free_vertex(v));
                    let Some(root) = root else {
                        self.stage = if progressed { SWEEP } else { Stage::Done };
                        continue;
                    };
                    let found = searcher.try_augment(g, root, self.max_cap);
                    self.stats.augmentations += usize::from(found);
                    self.stage = Stage::Certify {
                        next: root.0 + 1,
                        progressed: progressed || found,
                    };
                }
                Stage::Done => return false,
            }
            self.stats.searches += 1;
            self.stats.edge_visits = searcher.work();
            return true;
        }
    }

    /// Searches, augmentations and edge visits so far.
    pub fn stats(&self) -> AugStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blossom::maximum_matching;
    use rand::{rngs::StdRng, SeedableRng};
    use sparsimatch_graph::csr::from_edges;
    use sparsimatch_graph::generators::{
        clique_union, cycle, gnp, path, two_cliques_bridge, CliqueUnionConfig,
    };

    #[test]
    fn k_from_eps() {
        assert_eq!(max_path_len_for_eps(1.0), 1);
        assert_eq!(max_path_len_for_eps(0.5), 3);
        assert_eq!(max_path_len_for_eps(0.34), 5);
        assert_eq!(max_path_len_for_eps(0.25), 7);
        assert_eq!(max_path_len_for_eps(0.1), 19);
    }

    #[test]
    fn exactness_at_small_eps_on_paths() {
        // A path's longest augmenting need is bounded; eps small enough
        // gives the exact answer.
        let g = path(20);
        let m = approx_maximum_matching(&g, 0.05);
        assert_eq!(m.len(), maximum_matching(&g).len());
        assert!(m.is_valid_for(&g));
    }

    #[test]
    fn guarantee_holds_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(21);
        for trial in 0..30 {
            let g = gnp(60, 0.06, &mut rng);
            let exact = maximum_matching(&g).len();
            for &eps in &[1.0f64, 0.5, 0.34, 0.2] {
                let k = (1.0 / eps).ceil() as usize;
                let m = approx_maximum_matching(&g, eps);
                assert!(m.is_valid_for(&g));
                assert!(
                    m.len() * (k + 1) >= exact * k,
                    "trial {trial} eps {eps}: {} vs exact {exact}",
                    m.len()
                );
            }
        }
    }

    #[test]
    fn guarantee_holds_on_bounded_beta_graphs() {
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..10 {
            let g = clique_union(
                CliqueUnionConfig {
                    n: 60,
                    diversity: 3,
                    clique_size: 10,
                },
                &mut rng,
            );
            let exact = maximum_matching(&g).len();
            let m = approx_maximum_matching(&g, 0.25);
            assert!(m.len() * 5 >= exact * 4, "{} vs {exact}", m.len());
        }
    }

    #[test]
    fn blossom_heavy_instance() {
        // Odd cycles chained: flowers everywhere.
        let mut edges = Vec::new();
        let mut n = 0;
        for _ in 0..8 {
            // 5-cycle
            for i in 0..5 {
                edges.push((n + i, n + (i + 1) % 5));
            }
            if n > 0 {
                edges.push((n - 5, n)); // link to previous flower
            }
            n += 5;
        }
        let g = from_edges(n, edges);
        let exact = maximum_matching(&g).len();
        let m = approx_maximum_matching(&g, 0.2);
        assert!(m.len() * 6 >= exact * 5);
    }

    #[test]
    fn exact_on_bridge_instance_with_small_eps() {
        let (g, _) = two_cliques_bridge(9);
        let exact = maximum_matching(&g).len();
        let m = approx_maximum_matching(&g, 0.05);
        assert_eq!(m.len(), exact);
    }

    #[test]
    fn odd_cycle_already_optimal() {
        let g = cycle(9);
        let m = approx_maximum_matching(&g, 0.3);
        // MCM(C9) = 4; greedy gets >= 3; with cap >= 3 it must reach 4 or
        // already be there; guarantee: >= 4 * (4/5) = 3.2 => >= 4 with
        // integer... actually >= ceil(3.2) is not implied; check guarantee.
        assert!(m.len() * 5 >= 4 * 4);
    }

    #[test]
    fn stats_are_recorded() {
        let g = path(30);
        let init = Matching::new(30);
        let (m, stats) = approx_maximum_matching_from(&g, init, 0.5);
        assert!(stats.searches > 0);
        assert!(stats.augmentations >= m.len());
    }

    #[test]
    fn recycled_searcher_matches_fresh_exactly() {
        use crate::blossom::BlossomSearcher;
        use crate::greedy::greedy_maximal_matching;
        let mut rng = StdRng::seed_from_u64(23);
        // One searcher dragged across graphs of different sizes must give
        // the same matching AND the same stats as a fresh searcher every
        // time (reset_from re-zeroes the work counter).
        let mut recycled = BlossomSearcher::new(&Matching::new(0));
        let graphs = [gnp(70, 0.08, &mut rng), path(45), cycle(33), {
            let mut rng2 = StdRng::seed_from_u64(24);
            gnp(20, 0.3, &mut rng2)
        }];
        for (i, g) in graphs.iter().enumerate() {
            for max_len in [1usize, 3, 7] {
                let mut fresh_m = greedy_maximal_matching(g);
                let mut warm_m = fresh_m.clone();
                let fresh_stats = eliminate_augmenting_paths_up_to(g, &mut fresh_m, max_len);
                let warm_stats =
                    eliminate_augmenting_paths_up_to_with(g, &mut warm_m, max_len, &mut recycled);
                assert_eq!(fresh_m, warm_m, "graph {i} max_len {max_len}");
                assert_eq!(
                    (
                        fresh_stats.augmentations,
                        fresh_stats.searches,
                        fresh_stats.edge_visits
                    ),
                    (
                        warm_stats.augmentations,
                        warm_stats.searches,
                        warm_stats.edge_visits
                    ),
                    "graph {i} max_len {max_len}"
                );
            }
        }
    }
}
