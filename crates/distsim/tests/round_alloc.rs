//! Rounds allocate per round, not per vertex or per message.
//!
//! Installs the counting global allocator and runs the unicast and
//! broadcast `G_Δ` protocols, Solomon's one-round sparsifier and
//! Israeli–Itai maximal matching on a [`Network`], fault-free and under
//! two fault plans with retries. The `G_Δ` protocols mark with one
//! `pos_v` sampler and one index buffer per run, not a buffer per vertex.
//! An algorithm keeps one [`Outbox`](sparsimatch_distsim::network::Outbox)
//! and one set of [`Inboxes`](sparsimatch_distsim::network::Inboxes) per
//! phase, and the faulty loop keeps its per-message columns in the
//! network, so the allocator calls a run makes stay under a constant per
//! round plus a constant per run, neither of which grows with the graph,
//! and the bytes it allocates stay under a constant per half-edge however
//! many rounds it takes. A per-vertex buffer per round would cost at
//! least `n` calls a round; a per-round record of every message would cost
//! bytes in proportion to messages times rounds.
//!
//! The dynamic distributed model's updates allocate nothing once the
//! network is stood up: each node's marks live in a fixed slot and every
//! redraw reuses one sampler and one buffer, so churn over links the
//! network has already carried makes no allocator call.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_distsim::algorithms::israeli_itai::israeli_itai_matching;
use sparsimatch_distsim::algorithms::solomon::distributed_solomon;
use sparsimatch_distsim::algorithms::sparsify::{
    distributed_sparsifier, distributed_sparsifier_broadcast,
};
use sparsimatch_distsim::dynamic_net::{DynamicNetwork, TopologyUpdate};
use sparsimatch_distsim::{FaultPlan, FaultRates, Network, ResilienceParams};
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::generators::{clique_union, power_law, CliqueUnionConfig};
use sparsimatch_graph::ids::VertexId;
use sparsimatch_obs::alloc::{self, CountingAllocator};
use std::sync::Mutex;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Serializes the tests in this file: the two-worker runs read the
/// process-wide counters, which a concurrently running test would move.
static SERIAL: Mutex<()> = Mutex::new(());

/// Allocator calls allowed per round: the shard cut lists of a round and,
/// at two workers, the scoped spawn of the second worker (measured: under
/// 7 calls a round at one worker and under 13 at two).
const CALLS_PER_ROUND: u64 = 16;

/// Allocator calls allowed once per run, whatever its round count: the
/// phase's flat buffers, which grow by doubling, the per-node random
/// streams and matching, the `G_Δ` protocols' sampler, and the result
/// graphs (measured on these graphs: 56 to 80 calls for Solomon's whole
/// run, 53 to 91 for either `G_Δ` protocol's).
const CALLS_PER_RUN: u64 = 96;

/// Heap bytes allowed per run per half-edge of the graph, whatever its
/// round count: the algorithm's flat buffers and result graph and the
/// faulty loop's per-message columns, each grown once (measured on these
/// graphs: at most 148 B fault-free and 178 B under faults, both for the
/// unicast `G_Δ` protocol at n = 2 000). A 48-byte record of every
/// message, built afresh each logical round, costs Israeli–Itai 388 to
/// 573 B under these plans.
const BYTES_PER_HALF_EDGE: u64 = 256;

/// The graphs: power-law graphs at two sizes, so a per-vertex cost shows.
fn graphs() -> Vec<CsrGraph> {
    [2_000, 20_000]
        .into_iter()
        .map(|n| power_law(n, 3, &mut StdRng::seed_from_u64(n as u64)))
        .collect()
}

/// Fault-free delivery, the benchmark's mixed plan (drops, duplicates and
/// reorders in the first 60 rounds) and a crash plan, the faulty two with
/// three retries.
fn settings() -> [(&'static str, FaultPlan, ResilienceParams); 3] {
    let mixed = FaultRates {
        drop: 0.25,
        duplicate: 0.25,
        reorder: 0.5,
        ..Default::default()
    };
    let crash = FaultRates {
        crash: 0.15,
        ..Default::default()
    };
    [
        ("fault-free", FaultPlan::none(), ResilienceParams::off()),
        (
            "mixed",
            FaultPlan::new(5, mixed).with_horizon(60),
            ResilienceParams::retry(3),
        ),
        (
            "crash",
            FaultPlan::new(6, crash)
                .with_crash_period(4)
                .with_horizon(48),
            ResilienceParams::retry(3),
        ),
    ]
}

/// Run `run` on a fresh network over every graph, in every setting, at one
/// and two workers, and hold its allocator calls and bytes to the bounds.
/// The network is built before counting.
fn assert_flat(name: &str, run: impl Fn(&mut Network<'_>)) {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    for g in graphs() {
        let n = g.num_vertices();
        for (setting, plan, res) in settings() {
            for threads in [1, 2] {
                let mut net = Network::with_resilience(&g, plan.clone(), res).with_threads(threads);
                let before = alloc::totals();
                run(&mut net);
                let after = alloc::totals();
                let (calls, bytes) = (after.count - before.count, after.bytes - before.bytes);
                let rounds = net.metrics().rounds;
                assert!(rounds > 0, "{name} ran no round");
                assert!(
                    calls <= CALLS_PER_RUN + CALLS_PER_ROUND * rounds,
                    "{name} {setting} on n = {n} at t = {threads}: {calls} allocator calls over {rounds} rounds"
                );
                let half_edges = 2 * g.num_edges() as u64;
                assert!(
                    bytes <= BYTES_PER_HALF_EDGE * half_edges,
                    "{name} {setting} on n = {n} at t = {threads}: {bytes} bytes over {half_edges} half-edges"
                );
            }
        }
    }
}

#[test]
fn solomon_allocates_per_round_not_per_vertex() {
    assert_flat("distributed_solomon", |net| {
        std::hint::black_box(distributed_solomon(net, 5));
    });
}

#[test]
fn israeli_itai_allocates_per_round_not_per_vertex() {
    assert_flat("israeli_itai_matching", |net| {
        std::hint::black_box(israeli_itai_matching(net, 7));
    });
}

#[test]
fn sparsifiers_allocate_per_round_not_per_vertex() {
    let params = SparsifierParams::with_delta(1, 0.5, 4);
    assert_flat("distributed_sparsifier", |net| {
        std::hint::black_box(distributed_sparsifier(net, &params, 9));
    });
    assert_flat("distributed_sparsifier_broadcast", |net| {
        std::hint::black_box(distributed_sparsifier_broadcast(net, &params, 9));
    });
}

/// Allocator calls allowed per 1 000 dynamic-network updates once the
/// network is stood up (measured: none).
const CALLS_PER_1000_UPDATES: u64 = 1;

#[test]
fn dynamic_network_churn_allocates_nothing_per_update() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let host = clique_union(
        CliqueUnionConfig {
            n: 400,
            diversity: 2,
            clique_size: 100,
        },
        &mut StdRng::seed_from_u64(400),
    );
    let mut net = DynamicNetwork::new(400, SparsifierParams::practical(2, 0.4), 11);
    for (_, u, v) in host.edges() {
        net.apply(TopologyUpdate::LinkUp(u, v));
    }
    let mut rng = StdRng::seed_from_u64(12);
    let picks: Vec<usize> = (0..10_000)
        .map(|_| rng.random_range(0..host.num_edges()))
        .collect();
    let before = alloc::thread_totals().count;
    for &e in &picks {
        let (u, v) = host.endpoint_pairs()[e];
        let (u, v) = (VertexId(u), VertexId(v));
        net.apply(TopologyUpdate::LinkDown(u, v));
        net.apply(TopologyUpdate::LinkUp(u, v));
    }
    let calls = alloc::thread_totals().count - before;
    let updates = 2 * picks.len() as u64;
    assert_eq!(
        net.metrics().rounds,
        host.num_edges() as u64 + updates,
        "every churn update is effective"
    );
    assert!(
        calls <= CALLS_PER_1000_UPDATES * updates / 1_000,
        "{calls} allocator calls over {updates} churn updates"
    );
}
