//! Distributed matching on bounded-degree graphs: color-scheduled greedy
//! maximal matching, then bounded-length augmentation — the
//! Even–Medina–Ron substitute (DESIGN.md §4.2).
//!
//! **Maximal matching.** Given a proper `(D+1)`-coloring, sweep the color
//! classes: in class `c`'s turn, every free vertex of color `c` proposes
//! (1 bit) to its lowest-port free neighbor; a proposee accepts exactly
//! one proposal. Each sweep retires, for every still-free vertex, at least
//! one of its free neighbors, so `≤ D+1` sweeps reach maximality —
//! `O(D²)` rounds total, independent of `n` beyond the coloring's
//! `O(log* n)`.
//!
//! **Bounded augmentation.** To reach `(1+ε)` the matching must admit no
//! augmenting path of length ≤ `2⌈1/ε⌉−1`. Each block, every free vertex
//! gathers its radius-`(L+1)` ball (a LOCAL gather, `O(L)` rounds),
//! locally computes a capped blossom augmentation, and candidates are
//! conflict-resolved by smallest leader id among intersecting candidates —
//! winners are pairwise disjoint and at least the globally smallest
//! candidate always wins, so blocks terminate. (The paper's citation \[34\]
//! schedules by a `D^{O(1/ε)}`-coloring of the power graph instead; the
//! id-priority schedule preserves the `f(D, ε) + O(log* n)` round shape
//! while keeping simulated round counts readable — see DESIGN.md §4.2.)

use crate::algorithms::coloring::Coloring;
use crate::network::{Inboxes, Net, Outbox};
use sparsimatch_graph::csr::GraphBuilder;
use sparsimatch_graph::ids::VertexId;
use sparsimatch_matching::blossom::BlossomSearcher;
use sparsimatch_matching::bounded_aug::max_path_len_for_eps;
use sparsimatch_matching::Matching;

/// Greedy maximal matching scheduled by a proper coloring. Every round of
/// communication goes through the network (status broadcast, proposal,
/// accept: 3 rounds per color class per sweep).
///
/// On a faulty transport (possibly with an improper coloring from a faulty
/// [`linial_coloring`](crate::algorithms::coloring::linial_coloring) run)
/// the result is still a valid matching — `add_pair` refuses conflicting
/// commits — but maximality requires lossless delivery.
pub fn color_scheduled_mm<'g>(net: &mut impl Net<'g>, coloring: &Coloring) -> Matching {
    let g = net.graph();
    let n = g.num_vertices();
    let mut matching = Matching::new(n);
    let max_sweeps = g.max_degree() + 2;
    let mut statuses = Inboxes::new();
    let mut outbox = Outbox::new();
    let mut inboxes = Inboxes::new();
    for _sweep in 0..max_sweeps {
        let mut matched_this_sweep = false;
        for c in 0..coloring.num_colors {
            // (a) status broadcast: 1-bit matched flags.
            let flags = (0..n).map(|v| (matching.is_matched(VertexId::new(v)), 1u64));
            net.broadcast_into(flags, &mut statuses);

            // (b) proposals: free class-c vertices propose to the lowest
            // free port. `statuses.of(v)` lists (port, matched?) for every
            // neighbor heard from, in delivery order.
            for v in 0..n {
                if coloring.colors[v] != c || matching.is_matched(VertexId::new(v)) {
                    continue;
                }
                let free_port = statuses
                    .of(v)
                    .iter()
                    .filter(|&&(_, matched)| !matched)
                    .map(|&(p, _)| p)
                    .min();
                if let Some(p) = free_port {
                    outbox.push(v, p, (), 1);
                }
            }
            net.route(&mut outbox, &mut inboxes);

            // (c) accepts: a free proposee accepts its lowest-port
            // proposal.
            for v in 0..n {
                if matching.is_matched(VertexId::new(v)) {
                    continue;
                }
                if let Some(p) = inboxes.of(v).iter().map(|&(p, ())| p).min() {
                    outbox.push(v, p, (), 1);
                }
            }
            net.route(&mut outbox, &mut inboxes);

            // Proposers that hear an accept are matched; the accept came
            // back on the proposal port, identifying the pair for both
            // sides.
            for v in 0..n {
                let vid = VertexId::new(v);
                for &(p, ()) in inboxes.of(v) {
                    let u = net.peer(vid, p);
                    if matching.add_pair(vid, u) {
                        matched_this_sweep = true;
                    }
                }
            }
        }
        if !matched_this_sweep {
            break;
        }
    }
    debug_assert!(matching.is_valid_for(net.graph()));
    debug_assert!(!net.lossless() || matching.is_maximal_in(net.graph()));
    matching
}

/// Statistics from the distributed augmentation phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct AugmentationStats {
    /// Gather-compute-flip blocks executed.
    pub blocks: u64,
    /// Augmenting paths flipped in total.
    pub flips: u64,
}

/// Eliminate augmenting paths of length ≤ `2⌈1/ε⌉−1` from `matching`
/// using local ball computations with id-priority conflict resolution.
pub fn distributed_augmentation<'g>(
    net: &mut impl Net<'g>,
    matching: &mut Matching,
    eps: f64,
) -> AugmentationStats {
    let max_len = max_path_len_for_eps(eps);
    let radius = max_len + 1;
    let g = net.graph();
    let n = g.num_vertices();
    let mut stats = AugmentationStats::default();

    loop {
        stats.blocks += 1;
        // One LOCAL gather: every vertex learns its radius-(L+1) ball with
        // matching state. Ball payloads are edge lists: charge ~64 bits
        // per edge entry per hop.
        net.charge_gather(radius, 64);

        // Candidates: each free vertex searches its ball for a capped
        // augmenting path. The searches are independent (they read the
        // shared matching snapshot and their own ball), so fan them out
        // over threads — in the simulated world each node computes its
        // candidate locally anyway, so parallelism here mirrors the model.
        let free: Vec<u32> = (0..n as u32)
            .filter(|&v| {
                let vid = VertexId(v);
                !matching.is_matched(vid) && g.degree(vid) > 0
            })
            .collect();
        let threads = std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1)
            .clamp(1, 8);
        let chunk = free.len().div_ceil(threads).max(1);
        let candidates: Vec<Candidate> = if free.len() < 64 {
            // Not worth the spawn overhead.
            free.iter()
                .filter_map(|&v| local_augment(net, matching, VertexId(v), max_len as u32, radius))
                .collect()
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = free
                    .chunks(chunk)
                    .map(|ch| {
                        let matching = &*matching;
                        let net = &*net;
                        s.spawn(move || {
                            ch.iter()
                                .filter_map(|&v| {
                                    local_augment(
                                        net,
                                        matching,
                                        VertexId(v),
                                        max_len as u32,
                                        radius,
                                    )
                                })
                                .collect::<Vec<Candidate>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("augmentation worker panicked"))
                    .collect()
            })
        };
        if candidates.is_empty() {
            break;
        }
        // Conflict resolution: a candidate wins iff its leader id is the
        // smallest among all candidates it shares a vertex with. Winners
        // are pairwise disjoint and the globally smallest candidate always
        // wins, so progress is guaranteed. (Locally checkable: conflicting
        // leaders lie within distance 2(L+1), inside the gathered ball.)
        let winners = resolve_conflicts(&candidates, n);
        // Flip winners and notify their path vertices: one more bounded-
        // radius communication block.
        net.charge_gather(radius, 64);
        for idx in winners {
            let cand = &candidates[idx];
            for &(u, w) in &cand.removed {
                let got = matching.remove_pair(u);
                debug_assert_eq!(got, Some(w));
            }
            for &(u, w) in &cand.added {
                let ok = matching.add_pair(u, w);
                debug_assert!(ok, "winner paths must be disjoint");
            }
            stats.flips += 1;
        }
        debug_assert!(matching.is_valid_for(net.graph()));
    }
    stats
}

/// Full distributed `(1+ε)`-approximate matching on a bounded-degree
/// graph: coloring + color-scheduled MM + bounded augmentation.
pub fn bounded_degree_matching<'g>(
    net: &mut impl Net<'g>,
    eps: f64,
) -> (Matching, AugmentationStats) {
    let target = net.graph().max_degree() as u64 + 1;
    let coloring = crate::algorithms::coloring::linial_coloring(net, target.max(2));
    let mut m = color_scheduled_mm(net, &coloring);
    let stats = distributed_augmentation(net, &mut m, eps);
    (m, stats)
}

struct Candidate {
    leader: u32,
    touched: Vec<u32>,
    removed: Vec<(VertexId, VertexId)>,
    added: Vec<(VertexId, VertexId)>,
}

/// Search `leader`'s radius ball for an augmenting path of length ≤ cap;
/// return the flip as add/remove pair lists without applying it.
fn local_augment<'g>(
    net: &impl Net<'g>,
    matching: &Matching,
    leader: VertexId,
    cap: u32,
    radius: usize,
) -> Option<Candidate> {
    let g = net.graph();
    let ball = net.ball(leader, radius);
    // Local subgraph with dense ids. Ball-boundary vertices whose mate
    // lies outside the ball must NOT look free locally (a fake augmenting
    // path ending there would corrupt the global matching), so each gets
    // an edgeless dummy mate appended after the real ball vertices.
    let mut local_of = std::collections::HashMap::with_capacity(ball.len());
    for (i, &v) in ball.iter().enumerate() {
        local_of.insert(v, i);
    }
    let mut boundary_mated: Vec<usize> = Vec::new();
    for (i, &v) in ball.iter().enumerate() {
        if let Some(u) = matching.mate(v) {
            if !local_of.contains_key(&u) {
                boundary_mated.push(i);
            }
        }
    }
    let total = ball.len() + boundary_mated.len();
    let mut b = GraphBuilder::new(total);
    for (i, &v) in ball.iter().enumerate() {
        for u in g.neighbors(v) {
            if let Some(&j) = local_of.get(&u) {
                if i < j {
                    b.add_edge(VertexId::new(i), VertexId::new(j));
                }
            }
        }
    }
    let local_g = b.build();
    let mut local_m = Matching::new(total);
    for (i, &v) in ball.iter().enumerate() {
        if let Some(u) = matching.mate(v) {
            if let Some(&j) = local_of.get(&u) {
                if i < j {
                    local_m.add_pair(VertexId::new(i), VertexId::new(j));
                }
            }
        }
    }
    for (d, &i) in boundary_mated.iter().enumerate() {
        let ok = local_m.add_pair(VertexId::new(i), VertexId::new(ball.len() + d));
        debug_assert!(ok);
    }
    let before = local_m.clone();
    let mut searcher = BlossomSearcher::new(&local_m);
    let leader_local = VertexId::new(local_of[&leader]);
    if !searcher.try_augment(&local_g, leader_local, cap) {
        return None;
    }
    let after = searcher.into_matching();
    // Diff local matchings to obtain the flip.
    let mut removed = Vec::new();
    let mut added = Vec::new();
    let mut touched = Vec::new();
    for (u, v) in before.pairs() {
        if v.index() >= ball.len() {
            continue; // dummy pair: invariant under augmentation
        }
        if after.mate(u) != Some(v) {
            removed.push((ball[u.index()], ball[v.index()]));
        }
    }
    for (u, v) in after.pairs() {
        if v.index() >= ball.len() {
            continue;
        }
        if before.mate(u) != Some(v) {
            added.push((ball[u.index()], ball[v.index()]));
            touched.push(ball[u.index()].0);
            touched.push(ball[v.index()].0);
        }
    }
    for &(u, v) in &removed {
        touched.push(u.0);
        touched.push(v.0);
    }
    touched.sort_unstable();
    touched.dedup();
    Some(Candidate {
        leader: leader.0,
        touched,
        removed,
        added,
    })
}

/// Winners = candidates whose leader id is minimal among every candidate
/// sharing a touched vertex.
fn resolve_conflicts(candidates: &[Candidate], n: usize) -> Vec<usize> {
    // min leader id touching each vertex.
    let mut min_leader = vec![u32::MAX; n];
    for cand in candidates {
        for &v in &cand.touched {
            min_leader[v as usize] = min_leader[v as usize].min(cand.leader);
        }
    }
    candidates
        .iter()
        .enumerate()
        .filter(|(_, cand)| {
            cand.touched
                .iter()
                .all(|&v| min_leader[v as usize] == cand.leader)
        })
        .map(|(i, _)| i)
        .collect()
}

/// Convenience: run MM only (the `(2+ε)`-style baseline of [Barenboim–
/// Oren]: same sparsifier rounds, no augmentation).
pub fn maximal_matching_only<'g>(net: &mut impl Net<'g>) -> Matching {
    let target = net.graph().max_degree() as u64 + 1;
    let coloring = crate::algorithms::coloring::linial_coloring(net, target.max(2));
    color_scheduled_mm(net, &coloring)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::coloring::linial_coloring;
    use crate::network::Network;
    use sparsimatch_graph::csr::CsrGraph;
    use sparsimatch_graph::generators::{cycle, gnp, path};
    use sparsimatch_matching::blossom::maximum_matching;

    fn mm_on(g: &CsrGraph) -> Matching {
        let mut net = Network::new(g);
        let target = g.max_degree() as u64 + 1;
        let coloring = linial_coloring(&mut net, target.max(2));
        color_scheduled_mm(&mut net, &coloring)
    }

    #[test]
    fn mm_is_maximal_on_path() {
        let g = path(50);
        let m = mm_on(&g);
        assert!(m.is_valid_for(&g));
        assert!(m.is_maximal_in(&g));
    }

    #[test]
    fn mm_is_maximal_on_random_bounded_degree() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..5 {
            let g = gnp(150, 0.03, &mut rng);
            let m = mm_on(&g);
            assert!(m.is_valid_for(&g));
            assert!(m.is_maximal_in(&g));
        }
    }

    #[test]
    fn augmentation_reaches_exact_on_paths() {
        // On a path, MM can be a factor-2 off; augmentation with small eps
        // must close the gap entirely.
        let g = path(41);
        let mut net = Network::new(&g);
        let coloring = linial_coloring(&mut net, 3);
        let mut m = color_scheduled_mm(&mut net, &coloring);
        let stats = distributed_augmentation(&mut net, &mut m, 0.05);
        assert_eq!(m.len(), maximum_matching(&g).len());
        assert!(stats.blocks >= 1);
    }

    #[test]
    fn full_bounded_degree_matching_guarantee() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..5 {
            let g = gnp(120, 0.04, &mut rng);
            let mut net = Network::new(&g);
            let (m, _) = bounded_degree_matching(&mut net, 0.34);
            let exact = maximum_matching(&g).len();
            // eps = 0.34 => k = 3 => guarantee 3/4.
            assert!(m.len() * 4 >= exact * 3, "{} vs {exact}", m.len());
            assert!(m.is_valid_for(&g));
        }
    }

    #[test]
    fn augmentation_on_even_cycle() {
        let g = cycle(30);
        let mut net = Network::new(&g);
        let (m, _) = bounded_degree_matching(&mut net, 0.1);
        assert_eq!(m.len(), 15, "C30 has a perfect matching");
    }

    #[test]
    fn conflict_resolution_disjoint_winners() {
        let candidates = vec![
            Candidate {
                leader: 5,
                touched: vec![1, 2],
                removed: vec![],
                added: vec![],
            },
            Candidate {
                leader: 3,
                touched: vec![2, 4],
                removed: vec![],
                added: vec![],
            },
            Candidate {
                leader: 9,
                touched: vec![7, 8],
                removed: vec![],
                added: vec![],
            },
        ];
        let winners = resolve_conflicts(&candidates, 10);
        // Candidate with leader 3 beats leader 5 (share vertex 2); leader 9
        // is untouched.
        assert_eq!(winners, vec![1, 2]);
    }

    #[test]
    fn rounds_independent_of_n_for_fixed_degree() {
        let mut rounds = Vec::new();
        for n in [64usize, 512, 4096] {
            let g = cycle(n);
            let mut net = Network::new(&g);
            let _ = bounded_degree_matching(&mut net, 0.5);
            rounds.push(net.metrics().rounds);
        }
        // log* growth only: tiny additive difference allowed.
        assert!(
            rounds[2] <= rounds[0] * 3 + 30,
            "rounds {rounds:?} grow too fast"
        );
    }
}
