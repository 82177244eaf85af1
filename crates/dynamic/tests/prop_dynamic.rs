//! Property-based tests for the dynamic matchers.

use proptest::prelude::*;
use sparsimatch_core::maintained::MaintainedSparsifier;
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_core::sampler::{mark_indices_for_vertex, vertex_rng, PosArraySampler};
use sparsimatch_dynamic::adversary::Update;
use sparsimatch_dynamic::scheme::DynamicMatcher;
use sparsimatch_graph::adjacency::AdjacencyOracle;
use sparsimatch_graph::ids::VertexId;

const N: usize = 14;

#[derive(Clone, Debug)]
enum Op {
    Insert(usize, usize),
    Delete(usize, usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0..N, 0..N).prop_map(|(u, v)| Op::Insert(u, v)),
            (0..N, 0..N).prop_map(|(u, v)| Op::Delete(u, v)),
        ],
        0..120,
    )
}

fn to_update(op: &Op) -> Option<Update> {
    match *op {
        Op::Insert(u, v) if u != v => Some(Update::Insert(VertexId::new(u), VertexId::new(v))),
        Op::Delete(u, v) if u != v => Some(Update::Delete(VertexId::new(u), VertexId::new(v))),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn served_matching_is_always_valid(ops in arb_ops(), seed in any::<u64>()) {
        let params = SparsifierParams::practical(2, 0.5);
        let mut dm = DynamicMatcher::new(N, params, seed);
        for op in &ops {
            if let Some(u) = to_update(op) {
                dm.apply(u);
                let snapshot = dm.graph().to_csr();
                prop_assert!(dm.matching().is_valid_for(&snapshot));
            }
        }
    }

    /// Every call, phantom or not, advances the call index; an effective
    /// one redraws both endpoints. So each vertex's marks must be a fresh
    /// draw, at the index of the call that last redrew it, over its
    /// current neighbours, which have not changed since.
    #[test]
    fn maintained_marks_are_a_fresh_draw_at_the_last_redraw(ops in arb_ops(), seed in any::<u64>()) {
        let params = SparsifierParams::with_delta(2, 0.5, 2);
        let mut s = MaintainedSparsifier::new(N, params, seed);
        let mut last_redraw = [0u64; N];
        for (k, op) in (1u64..).zip(&ops) {
            let (u, v, redraw) = match *op {
                Op::Insert(u, v) => (u, v, s.insert_edge(VertexId::new(u), VertexId::new(v))),
                Op::Delete(u, v) => (u, v, s.delete_edge(VertexId::new(u), VertexId::new(v))),
            };
            if redraw.is_some() {
                last_redraw[u] = k;
                last_redraw[v] = k;
            }
        }
        let g = s.graph();
        let mut sampler = PosArraySampler::new(N);
        let mut indices = Vec::new();
        let (delta, cap) = (params.delta, params.mark_cap());
        for (v, &k) in last_redraw.iter().enumerate() {
            let vid = VertexId::new(v);
            let mut rng = vertex_rng(seed ^ k.wrapping_mul(0xD1B54A32D192ED03), v);
            mark_indices_for_vertex(g, vid, delta, cap, &mut sampler, &mut rng, &mut indices);
            let mut fresh: Vec<u32> = indices.iter().map(|&i| g.neighbor(vid, i as usize).0).collect();
            fresh.sort_unstable();
            prop_assert_eq!(s.marks(vid), &fresh[..]);
        }
        // Sparsifier ⊆ current graph.
        let snapshot = g.to_csr();
        for (_, u, v) in s.sparsifier().edges() {
            prop_assert!(snapshot.has_edge(u, v));
        }
    }

    #[test]
    fn work_reports_are_positive_and_bounded(ops in arb_ops(), seed in any::<u64>()) {
        let params = SparsifierParams::with_delta(2, 0.5, 3);
        let mut dm = DynamicMatcher::new(N, params, seed);
        for op in &ops {
            if let Some(u) = to_update(op) {
                let r = dm.apply(u);
                prop_assert!(r.work >= 1);
                // On 14 vertices nothing can legitimately cost more than a
                // generous constant.
                prop_assert!(r.work < 100_000);
            }
        }
    }
}
