//! A warm window swap allocates nothing.
//!
//! Installs the counting global allocator and stands [`DynamicMatcher`]
//! up on the serve daemon's graph (`clique-union:2:20` on 300 vertices),
//! by inserting every edge or by [`DynamicMatcher::from_graph`], then
//! churns it the way the daemon's clients do: insert a random absent
//! pair, or delete one of the pairs inserted so far. At every window
//! boundary the matcher publishes the pending matching and runs the next
//! window solve; the solve's sampler, index and mark buffers, CSR arrays,
//! matching and blossom searcher persist from one window to the next, and
//! the published and pending matchings trade buffers with it, so a warm
//! boundary update makes no allocator call of its own (measured: none in
//! 222 swaps on this stream after either stand-up). The bound of one call
//! leaves room for the update's own adjacency-list growth.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_dynamic::adversary::Update;
use sparsimatch_dynamic::scheme::DynamicMatcher;
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::generators::family_from_spec;
use sparsimatch_graph::ids::VertexId;
use sparsimatch_obs::alloc::{self, CountingAllocator};
use std::collections::HashSet;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const N: usize = 300;

fn serve_graph() -> CsrGraph {
    family_from_spec("clique-union:2:20", N, &mut StdRng::seed_from_u64(1)).unwrap()
}

#[test]
fn warm_window_swaps_allocate_at_most_once() {
    let g = serve_graph();
    let mut dm = DynamicMatcher::new(N, SparsifierParams::practical(2, 0.5), 1);
    for (_, u, v) in g.edges() {
        dm.apply(Update::Insert(u, v));
    }
    churn_and_bound_swaps(dm, &g);
}

#[test]
fn warm_window_swaps_after_from_graph_allocate_at_most_once() {
    let g = serve_graph();
    let dm = DynamicMatcher::from_graph(&g, SparsifierParams::practical(2, 0.5), 1);
    churn_and_bound_swaps(dm, &g);
}

/// Churn `dm`, stood up on `g`, and assert that no warm window swap makes
/// more than one allocator call.
fn churn_and_bound_swaps(mut dm: DynamicMatcher, g: &CsrGraph) {
    let n = g.num_vertices() as u32;
    let mut rng = StdRng::seed_from_u64(0x5e7e);
    let mut chords: Vec<(u32, u32)> = Vec::new();
    let mut present: HashSet<(u32, u32)> = g.edges().map(|(_, u, v)| (u.0, v.0)).collect();
    let mut swaps = Vec::new();
    for step in 0..6_000 {
        let update = if !chords.is_empty() && rng.random_bool(0.4) {
            let (u, v) = chords.swap_remove(rng.random_range(0..chords.len()));
            present.remove(&(u, v));
            Update::Delete(VertexId(u), VertexId(v))
        } else {
            let (u, v) = loop {
                let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
                let pair = (a.min(b), a.max(b));
                if a != b && present.insert(pair) {
                    break pair;
                }
            };
            chords.push((u, v));
            Update::Insert(VertexId(u), VertexId(v))
        };
        let before = alloc::thread_totals();
        let report = dm.apply(update);
        let after = alloc::thread_totals();
        // The first 2 000 updates warm the buffers up.
        if report.swapped && step >= 2_000 {
            swaps.push((after.count - before.count, after.bytes - before.bytes));
        }
    }
    let calls: u64 = swaps.iter().map(|s| s.0).sum();
    let bytes: u64 = swaps.iter().map(|s| s.1).sum();
    eprintln!(
        "{} swaps: {calls} allocator calls, {bytes} bytes",
        swaps.len()
    );
    assert!(swaps.len() > 100, "only {} window swaps", swaps.len());
    let worst = swaps.iter().map(|s| s.0).max().unwrap();
    assert!(
        worst <= 1,
        "a warm window swap made {worst} allocator calls"
    );
}
