//! Property-based tests for the distributed simulator and algorithms.

use proptest::prelude::*;
use sparsimatch_distsim::algorithms::coloring::{linial_coloring, validate_coloring};
use sparsimatch_distsim::algorithms::israeli_itai::israeli_itai_matching;
use sparsimatch_distsim::algorithms::matching::bounded_degree_matching;
use sparsimatch_distsim::network::Inboxes;
use sparsimatch_distsim::{FaultPlan, FaultRates, FaultStats, Net, Network, ResilienceParams};
use sparsimatch_graph::csr::from_edges;
use sparsimatch_matching::blossom::maximum_matching;

const N: usize = 20;

fn arb_edges() -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0..N, 0..N), 0..70)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn coloring_is_always_proper(edges in arb_edges()) {
        let g = from_edges(N, edges);
        let mut net = Network::new(&g);
        let target = g.max_degree() as u64 + 1;
        let c = linial_coloring(&mut net, target.max(2));
        prop_assert!(validate_coloring(&net, &c));
        prop_assert!(c.num_colors <= target.max(2));
    }

    #[test]
    fn israeli_itai_is_always_maximal(edges in arb_edges(), seed in any::<u64>()) {
        let g = from_edges(N, edges);
        let mut net = Network::new(&g);
        let (m, _) = israeli_itai_matching(&mut net, seed);
        prop_assert!(m.is_valid_for(&g));
        prop_assert!(m.is_maximal_in(&g));
    }

    #[test]
    fn bounded_degree_matching_meets_guarantee(edges in arb_edges(), k in 1usize..4) {
        let g = from_edges(N, edges);
        let mut net = Network::new(&g);
        let eps = 1.0 / k as f64;
        let (m, _) = bounded_degree_matching(&mut net, eps);
        prop_assert!(m.is_valid_for(&g));
        let exact = maximum_matching(&g).len();
        prop_assert!(
            m.len() * (k + 1) >= exact * k,
            "k={} got {} vs exact {}", k, m.len(), exact
        );
    }

    /// The shard count is an execution detail: any thread count, on any
    /// graph, fault-free or under a random fault plan, yields the exact
    /// one-worker fingerprint (matching, rounds, messages, bits, fault
    /// counters). A plan whose faults never fire runs the faulty loop and
    /// must reproduce the perfect loop's fingerprint.
    #[test]
    fn shard_count_never_changes_the_fingerprint(
        edges in arb_edges(),
        seed in any::<u64>(),
        threads in 1usize..12,
        drop_pct in 0u32..40,
        reorder_pct in 0u32..50,
    ) {
        let (drop, reorder) = (f64::from(drop_pct) / 100.0, f64::from(reorder_pct) / 100.0);
        let g = from_edges(N, edges);
        let faulty = |plan: &FaultPlan| {
            Network::with_resilience(&g, plan.clone(), ResilienceParams::off())
        };

        let mut seq = Network::new(&g);
        let (m_seq, it_seq) = israeli_itai_matching(&mut seq, seed);
        let silent_plan = FaultPlan::new(seed, FaultRates {
            drop: 0.5,
            duplicate: 0.5,
            reorder: 0.5,
            crash: 0.5,
        }).with_horizon(0);
        for mut net in [Network::new(&g).with_threads(threads), faulty(&silent_plan).with_threads(threads)] {
            let (m, it) = israeli_itai_matching(&mut net, seed);
            prop_assert_eq!(
                m.pairs().collect::<Vec<_>>(),
                m_seq.pairs().collect::<Vec<_>>()
            );
            prop_assert_eq!(it, it_seq);
            prop_assert_eq!(net.metrics(), seq.metrics());
            prop_assert_eq!(net.fault_stats(), FaultStats::default());
        }

        let plan = FaultPlan::new(seed ^ 0xFA17, FaultRates {
            drop,
            reorder,
            ..Default::default()
        }).with_horizon(30);
        let mut seq_f = faulty(&plan);
        let (mf_seq, itf_seq) = israeli_itai_matching(&mut seq_f, seed);
        let mut sharded_f = faulty(&plan).with_threads(threads);
        let (mf_sh, itf_sh) = israeli_itai_matching(&mut sharded_f, seed);
        prop_assert_eq!(
            mf_sh.pairs().collect::<Vec<_>>(),
            mf_seq.pairs().collect::<Vec<_>>()
        );
        prop_assert_eq!(itf_sh, itf_seq);
        prop_assert_eq!(sharded_f.metrics(), seq_f.metrics());
        prop_assert_eq!(sharded_f.fault_stats(), seq_f.fault_stats());
    }

    #[test]
    fn exchange_is_lossless_and_counted(edges in arb_edges(), payloads in proptest::collection::vec(any::<u32>(), N)) {
        let g = from_edges(N, edges);
        let mut net = Network::new(&g);
        // Every node broadcasts its payload; every half-edge must deliver
        // exactly once with the right value.
        let outs = payloads.iter().map(|&p| (p, 32u64));
        let mut inboxes = Inboxes::new();
        net.broadcast_into(outs, &mut inboxes);
        let mut delivered = 0u64;
        for v in 0..N {
            for &(port, value) in inboxes.of(v) {
                let sender = net.peer(sparsimatch_graph::ids::VertexId::new(v), port);
                prop_assert_eq!(value, payloads[sender.index()]);
                delivered += 1;
            }
        }
        prop_assert_eq!(delivered, 2 * g.num_edges() as u64);
        prop_assert_eq!(net.metrics().messages, delivered);
        prop_assert_eq!(net.metrics().bits, 32 * delivered);
    }
}
