//! Israeli–Itai-style randomized distributed maximal matching.
//!
//! The classic O(log n)-round randomized baseline: in each iteration every
//! free vertex proposes to a uniformly random free neighbor (1-bit
//! message), every free vertex accepts one incoming proposal uniformly at
//! random, and accepted pairs match. A constant fraction of the "live"
//! edges disappears per iteration in expectation, giving O(log n) rounds
//! w.h.p. — contrast with the deterministic color-scheduled matcher of
//! [`crate::algorithms::matching`], whose round count is `f(Δ) + log* n`.

use crate::network::{Inboxes, Net, Outbox};
use rand::rngs::StdRng;
use rand::Rng;
use sparsimatch_core::sampler::vertex_rng;
use sparsimatch_graph::ids::VertexId;
use sparsimatch_matching::Matching;

/// Run randomized maximal matching; returns the matching and the number
/// of proposal iterations (3 communication rounds each).
///
/// Generic over the transport: on a faulty network the result is still a
/// valid matching (pairs commit only when an accept is delivered), but
/// maximality holds only under lossless delivery.
pub fn israeli_itai_matching<'g>(net: &mut impl Net<'g>, seed: u64) -> (Matching, u64) {
    let g = net.graph();
    let n = g.num_vertices();
    let mut matching = Matching::new(n);
    let mut rngs: Vec<StdRng> = (0..n).map(|v| vertex_rng(seed, v)).collect();
    let mut statuses = Inboxes::new();
    let mut outbox = Outbox::new();
    let mut inboxes = Inboxes::new();
    let mut iterations = 0u64;
    loop {
        iterations += 1;
        // (a) status broadcast.
        let flags = (0..n).map(|v| (matching.is_matched(VertexId::new(v)), 1u64));
        net.broadcast_into(flags, &mut statuses);

        // (b) proposals to a random free neighbor.
        for (v, rng) in rngs.iter_mut().enumerate() {
            if matching.is_matched(VertexId::new(v)) {
                continue;
            }
            let mut free_ports = statuses
                .of(v)
                .iter()
                .filter(|&&(_, matched)| !matched)
                .map(|&(p, _)| p);
            let free = free_ports.clone().count();
            if free == 0 {
                continue;
            }
            let p = free_ports
                .nth(rng.random_range(0..free))
                .expect("index below the free count");
            outbox.push(v, p, (), 1);
        }
        if outbox.is_empty() {
            iterations -= 1; // the last iteration did no work
                             // One status round was still spent discovering quiescence.
            break;
        }
        net.route(&mut outbox, &mut inboxes);

        // (c) accepts: a free proposee accepts one proposal at random.
        for (v, rng) in rngs.iter_mut().enumerate() {
            let proposals = inboxes.of(v);
            if matching.is_matched(VertexId::new(v)) || proposals.is_empty() {
                continue;
            }
            let (p, ()) = proposals[rng.random_range(0..proposals.len())];
            outbox.push(v, p, (), 1);
        }
        net.route(&mut outbox, &mut inboxes);
        // A vertex can simultaneously accept one proposal and have its own
        // proposal accepted; ties resolve in favor of whichever pairing is
        // committed first (add_pair refuses the second). The losing side
        // simply retries next iteration — maximality is unaffected.
        for v in 0..n {
            let vid = VertexId::new(v);
            for &(p, ()) in inboxes.of(v) {
                let u = net.peer(vid, p);
                matching.add_pair(vid, u);
            }
        }
    }
    debug_assert!(matching.is_valid_for(net.graph()));
    debug_assert!(!net.lossless() || matching.is_maximal_in(net.graph()));
    (matching, iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use sparsimatch_graph::generators::{clique, cycle, gnp, path};
    use sparsimatch_matching::blossom::maximum_matching;

    #[test]
    fn maximal_on_paths_and_cycles() {
        for g in [path(41), cycle(40)] {
            let mut net = Network::new(&g);
            let (m, iters) = israeli_itai_matching(&mut net, 7);
            assert!(m.is_valid_for(&g));
            assert!(m.is_maximal_in(&g));
            assert!(iters >= 1);
        }
    }

    #[test]
    fn maximal_on_random_graphs() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(8);
        for seed in 0..5 {
            let g = gnp(120, 0.05, &mut rng);
            let mut net = Network::new(&g);
            let (m, _) = israeli_itai_matching(&mut net, seed);
            assert!(m.is_maximal_in(&g));
            let exact = maximum_matching(&g).len();
            assert!(2 * m.len() >= exact);
        }
    }

    #[test]
    fn iterations_logarithmic_on_clique() {
        // On K_n a constant fraction of vertices matches per iteration:
        // iterations should be ~log n, far below n.
        let g = clique(256);
        let mut net = Network::new(&g);
        let (m, iters) = israeli_itai_matching(&mut net, 3);
        assert_eq!(m.len(), 128);
        assert!(iters <= 40, "iterations {iters} not logarithmic-ish");
    }

    #[test]
    fn empty_graph_terminates_immediately() {
        let g = sparsimatch_graph::csr::from_edges(5, []);
        let mut net = Network::new(&g);
        let (m, iters) = israeli_itai_matching(&mut net, 1);
        assert_eq!(m.len(), 0);
        assert_eq!(iters, 0);
    }
}
