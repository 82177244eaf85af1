//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use sparsimatch_graph::adjlist::AdjListGraph;
use sparsimatch_graph::analysis::arboricity::{arboricity_bounds, degeneracy, max_density};
use sparsimatch_graph::csr::{from_edges, CsrScratch, EdgeEdit, GraphBuilder};
use sparsimatch_graph::ids::VertexId;
use sparsimatch_graph::sparse_array::SparseArray;
use std::collections::HashSet;

const N: usize = 24;

fn arb_edges() -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0..N, 0..N), 0..120)
}

/// Churn: `(insert?, u, v)` updates.
fn arb_churn() -> impl Strategy<Value = Vec<(bool, usize, usize)>> {
    proptest::collection::vec((any::<bool>(), 0..N, 0..N), 0..160)
}

fn adj_lists(g: &AdjListGraph) -> Vec<Vec<u32>> {
    (0..g.num_vertices())
        .map(|v| g.neighbors(VertexId::new(v)).map(|w| w.0).collect())
        .collect()
}

#[derive(Clone, Debug)]
enum ArrayOp {
    Set(usize, u32),
    Clear,
}

fn arb_ops() -> impl Strategy<Value = Vec<ArrayOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0..32usize, any::<u32>()).prop_map(|(i, v)| ArrayOp::Set(i, v)),
            Just(ArrayOp::Clear),
        ],
        0..200,
    )
}

proptest! {
    #[test]
    fn sparse_array_matches_dense_model(ops in arb_ops()) {
        let mut sparse = SparseArray::new(32, 0u32);
        let mut dense = [0u32; 32];
        for op in ops {
            match op {
                ArrayOp::Set(i, v) => {
                    sparse.set(i, v);
                    dense[i] = v;
                }
                ArrayOp::Clear => {
                    sparse.clear();
                    dense.iter_mut().for_each(|x| *x = 0);
                }
            }
        }
        for (i, &d) in dense.iter().enumerate().take(32) {
            prop_assert_eq!(*sparse.get(i), d);
        }
    }

    #[test]
    fn csr_degree_sum_is_twice_edges(edges in arb_edges()) {
        let g = from_edges(N, edges);
        let degsum: usize = (0..N).map(|v| g.degree(VertexId::new(v))).sum();
        prop_assert_eq!(degsum, 2 * g.num_edges());
    }

    #[test]
    fn csr_has_edge_agrees_with_edge_list(edges in arb_edges()) {
        let g = from_edges(N, edges);
        let set: HashSet<(u32, u32)> = g.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        for u in 0..N as u32 {
            for v in 0..N as u32 {
                let expected = u != v && (set.contains(&(u.min(v), u.max(v))));
                prop_assert_eq!(g.has_edge(VertexId(u), VertexId(v)), expected);
            }
        }
    }

    #[test]
    fn full_edge_subgraph_is_identity(edges in arb_edges()) {
        let g = from_edges(N, edges);
        let ids: Vec<_> = g.edges().map(|(e, _, _)| e).collect();
        let h = g.edge_subgraph(ids.into_iter());
        prop_assert_eq!(h.num_edges(), g.num_edges());
        for (_, u, v) in g.edges() {
            prop_assert!(h.has_edge(u, v));
        }
    }

    #[test]
    fn adjlist_tracks_reference_model(edges in arb_edges(), deletions in arb_edges()) {
        let mut g = AdjListGraph::new(N);
        let mut model: HashSet<(u32, u32)> = HashSet::new();
        for (u, v) in edges {
            if u == v { continue; }
            let key = ((u.min(v)) as u32, (u.max(v)) as u32);
            prop_assert_eq!(
                g.insert_edge(VertexId::new(u), VertexId::new(v)),
                model.insert(key)
            );
        }
        for (u, v) in deletions {
            if u == v { continue; }
            let key = ((u.min(v)) as u32, (u.max(v)) as u32);
            prop_assert_eq!(
                g.delete_edge(VertexId::new(u), VertexId::new(v)),
                model.remove(&key)
            );
        }
        prop_assert_eq!(g.num_edges(), model.len());
        let csr = g.to_csr();
        prop_assert_eq!(csr.num_edges(), model.len());
    }

    #[test]
    fn adjlist_loader_and_snapshot_match_the_insert_path(
        edges in arb_edges(),
        churn in arb_churn(),
        deletions in arb_edges(),
    ) {
        // A random graph, then random insert/delete churn.
        let mut g = AdjListGraph::new(N);
        let mut model: HashSet<(u32, u32)> = HashSet::new();
        let updates = edges.into_iter().map(|(u, v)| (true, u, v)).chain(churn);
        for (insert, u, v) in updates {
            let (u, v) = (VertexId::new(u), VertexId::new(v));
            let key = (u.0.min(v.0), u.0.max(v.0));
            if insert {
                prop_assert_eq!(g.insert_edge(u, v), u != v && model.insert(key));
            } else {
                prop_assert_eq!(g.delete_edge(u, v), model.remove(&key));
            }
        }
        // The snapshot equals a builder build of the same edges, array for
        // array.
        let mut b = GraphBuilder::new(N);
        for &(u, v) in &model {
            b.add_edge(VertexId(u), VertexId(v));
        }
        let csr = g.to_csr();
        prop_assert_eq!(&csr, &b.build());
        // Loading the snapshot gives the lists that inserting its edges
        // one at a time gives ...
        let mut loaded = AdjListGraph::from_csr(&csr);
        let mut inserted = AdjListGraph::new(N);
        for (_, u, v) in csr.edges() {
            inserted.insert_edge(u, v);
        }
        prop_assert_eq!(adj_lists(&loaded), adj_lists(&inserted));
        prop_assert_eq!(loaded.num_edges(), inserted.num_edges());
        // ... and every query and deletion answers alike afterwards.
        for u in 0..N as u32 {
            for v in 0..N as u32 {
                let (u, v) = (VertexId(u), VertexId(v));
                prop_assert_eq!(loaded.has_edge(u, v), inserted.has_edge(u, v));
            }
        }
        for (u, v) in deletions {
            let (u, v) = (VertexId::new(u), VertexId::new(v));
            prop_assert_eq!(loaded.delete_edge(u, v), inserted.delete_edge(u, v));
            prop_assert_eq!(adj_lists(&loaded), adj_lists(&inserted));
        }
        prop_assert_eq!(loaded.to_csr(), inserted.to_csr());
    }

    #[test]
    fn csr_scratch_edited_batch_by_batch_matches_the_snapshot(
        edges in arb_edges(),
        churn in arb_churn(),
        cuts in proptest::collection::vec(0..200usize, 0..6),
    ) {
        // A random graph laid out once, then the churn replayed on the
        // laid-out edge list one batch at a time. On 24 vertices the churn
        // repeats edges, inserts present ones and deletes absent ones, and
        // a batch may hold more edits than the graph has edges.
        let mut g = AdjListGraph::new(N);
        for (u, v) in edges {
            g.insert_edge(VertexId::new(u), VertexId::new(v));
        }
        let mut scratch = CsrScratch::new();
        g.to_csr_in(&mut scratch);
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(churn.len())).collect();
        cuts.push(churn.len());
        cuts.sort_unstable();
        let mut start = 0;
        for end in cuts {
            let mut batch = Vec::new();
            for &(insert, u, v) in churn[start..end].iter().filter(|(_, u, v)| u != v) {
                let (a, b) = (VertexId::new(u), VertexId::new(v));
                batch.push(if insert {
                    g.insert_edge(a, b);
                    EdgeEdit::Insert(a.0, b.0)
                } else {
                    g.delete_edge(a, b);
                    EdgeEdit::Delete(a.0, b.0)
                });
            }
            prop_assert_eq!(scratch.rebuild_edited(&batch), &g.to_csr());
            start = end;
        }
    }

    #[test]
    fn degeneracy_below_max_degree(edges in arb_edges()) {
        let g = from_edges(N, edges);
        prop_assert!(degeneracy(&g) <= g.max_degree());
    }

    #[test]
    fn arboricity_window_is_sound(edges in arb_edges()) {
        let g = from_edges(N, edges);
        if g.num_edges() == 0 { return Ok(()); }
        let (lo, hi) = arboricity_bounds(&g);
        prop_assert!(lo <= hi);
        prop_assert!(hi - lo <= 1, "window ({lo},{hi}) wider than 1");
        // Nash–Williams global lower bound: ceil(m / (n'-1)) <= alpha <= hi.
        let n_prime = g.num_non_isolated();
        if n_prime >= 2 {
            let global = g.num_edges().div_ceil(n_prime - 1);
            prop_assert!(hi >= global);
        }
    }

    #[test]
    fn edge_list_io_roundtrip(edges in arb_edges()) {
        let g = from_edges(N, edges);
        let mut buf = Vec::new();
        sparsimatch_graph::io::write_edge_list(&g, &mut buf).unwrap();
        let h = sparsimatch_graph::io::read_edge_list(std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(h.num_vertices(), g.num_vertices());
        prop_assert_eq!(h.num_edges(), g.num_edges());
        for (_, u, v) in g.edges() {
            prop_assert!(h.has_edge(u, v));
        }
    }

    #[test]
    fn diversity_dominates_beta(edges in arb_edges()) {
        let g = from_edges(N, edges);
        let beta = sparsimatch_graph::analysis::independence::neighborhood_independence_exact(&g);
        if let Some(div) = sparsimatch_graph::analysis::diversity::diversity(&g, 500_000) {
            prop_assert!(beta <= div, "beta {} > diversity {}", beta, div);
        }
    }

    #[test]
    fn max_density_at_least_global_density(edges in arb_edges()) {
        let g = from_edges(N, edges);
        if g.num_edges() == 0 { return Ok(()); }
        let (num, den) = max_density(&g);
        // rho* >= m / n.
        prop_assert!(num as u128 * g.num_vertices() as u128 >= g.num_edges() as u128 * den as u128);
        prop_assert!(den >= 1 && den <= g.num_vertices() as u64);
    }
}
