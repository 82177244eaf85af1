//! Steady-state allocation proof for the scratch pipeline.
//!
//! Installs the `alloc-count` counting global allocator and asserts that
//! once a [`PipelineScratch`] has been warmed by one call on a given
//! input, every subsequent one-thread call on that input performs
//! **zero** heap allocations, and a call at `t ≥ 2` allocates only the
//! bookkeeping of the `t − 1` mark workers it spawns — for each certified
//! benchmark family at its default parameters. The EDCS backend's warm
//! solves allocate nothing either, with the fixpoint's open-vertex tree
//! and without it. Compile and run with
//! `cargo test -p sparsimatch-core --features alloc-count`.
#![cfg(feature = "alloc-count")]

use rand::{rngs::StdRng, SeedableRng};
use sparsimatch_core::edcs::{
    approx_mcm_via_edcs, approx_mcm_via_edcs_with_scratch,
    approx_mcm_via_edcs_with_scratch_metered, EdcsParams,
};
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_core::pipeline::{
    approx_mcm_via_sparsifier, approx_mcm_via_sparsifier_with_scratch,
};
use sparsimatch_core::scratch::PipelineScratch;
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::generators::{bipartite_gnp, clique, clique_union, CliqueUnionConfig};
use sparsimatch_obs::alloc::{self, CountingAllocator};
use sparsimatch_obs::{keys, WorkMeter};
use std::sync::Mutex;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Serializes the tests in this file: the multi-thread test reads the
/// process-wide counters, which a concurrently running test would move.
static SERIAL: Mutex<()> = Mutex::new(());

/// Allocator bytes per spawned mark worker at `t ≥ 2`: the scope record
/// and each spawn's thread handle, result packet and boxed closure, which
/// measured 200 B at `t = 2` and 520 B at `t = 4`, whatever the input
/// size. The bound leaves headroom for the standard library's own
/// bookkeeping to change.
const SPAWN_BYTES: u64 = 512;

/// Allocator calls per spawned mark worker, as for [`SPAWN_BYTES`]
/// (measured: 4 calls at `t = 2`, 10 at `t = 4`).
const SPAWN_CALLS: u64 = 6;

/// The certified benchmark families (quick-scale sizes) at their default
/// parameters — the same shapes `bench_baseline` measures.
fn families() -> Vec<(&'static str, CsrGraph, SparsifierParams)> {
    let mut rng = StdRng::seed_from_u64(0xBE);
    vec![
        ("clique", clique(300), SparsifierParams::practical(1, 0.3)),
        (
            "clique-union",
            clique_union(
                CliqueUnionConfig {
                    n: 5_000,
                    diversity: 2,
                    clique_size: 50,
                },
                &mut rng,
            ),
            SparsifierParams::practical(2, 0.3),
        ),
        (
            "bipartite",
            bipartite_gnp(2_000, 2_000, 10.0 / 2_000.0, &mut rng),
            SparsifierParams::practical(4, 0.3),
        ),
    ]
}

/// The families plus an `inmem`-shaped clique union: degrees far above
/// the mark cap 2Δ, and enough edges that marking fans out.
fn families_and_inmem_shape() -> Vec<(&'static str, CsrGraph, SparsifierParams)> {
    let mut all = families();
    let mut rng = StdRng::seed_from_u64(0x1A);
    all.push((
        "inmem-shape",
        clique_union(
            CliqueUnionConfig {
                n: 4_000,
                diversity: 2,
                clique_size: 200,
            },
            &mut rng,
        ),
        SparsifierParams::practical(2, 0.5),
    ));
    all
}

#[test]
fn warm_scratch_repeat_solves_allocate_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for (name, g, params) in families() {
        let mut scratch = PipelineScratch::new();
        for seed in [7u64, 8] {
            let cold = approx_mcm_via_sparsifier(&g, &params, seed, 1).unwrap();
            // Warm-up: the first call on this (input, seed) may grow
            // buffers; everything after it must not.
            approx_mcm_via_sparsifier_with_scratch(&g, &params, seed, 1, &mut scratch).unwrap();
            for rep in 0..3 {
                let before = alloc::thread_totals();
                let warm =
                    approx_mcm_via_sparsifier_with_scratch(&g, &params, seed, 1, &mut scratch)
                        .unwrap();
                let after = alloc::thread_totals();
                let identical = warm.matching == cold.matching;
                assert_eq!(
                    after.count,
                    before.count,
                    "{name} seed {seed} rep {rep}: warm scratch call allocated \
                     ({} bytes in {} calls)",
                    after.bytes - before.bytes,
                    after.count - before.count,
                );
                assert_eq!(after.bytes, before.bytes, "{name} seed {seed} rep {rep}");
                assert!(
                    identical,
                    "{name} seed {seed} rep {rep}: warm output diverged from cold"
                );
            }
        }
        assert!(
            scratch.high_water_bytes() > 0,
            "{name}: no footprint recorded"
        );
    }
}

#[test]
fn warm_multi_thread_solves_allocate_only_spawn_bookkeeping() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for (name, g, params) in families_and_inmem_shape() {
        let seed = 7u64;
        let cold = approx_mcm_via_sparsifier(&g, &params, seed, 1).unwrap();
        let mut scratch = PipelineScratch::new();
        for threads in [2usize, 4] {
            // Warm-up: the first call at this thread count may add and
            // grow workers; everything after it must not.
            approx_mcm_via_sparsifier_with_scratch(&g, &params, seed, threads, &mut scratch)
                .unwrap();
            // Workers allocate on their own threads, so read the
            // process-wide totals; the least of three repeats filters out
            // any stray allocation of the test harness in between.
            let mut least = alloc::AllocTotals {
                bytes: u64::MAX,
                count: u64::MAX,
            };
            for rep in 0..3 {
                let before = alloc::totals();
                let warm = approx_mcm_via_sparsifier_with_scratch(
                    &g,
                    &params,
                    seed,
                    threads,
                    &mut scratch,
                )
                .unwrap();
                let after = alloc::totals();
                assert!(
                    warm.matching == cold.matching,
                    "{name} t {threads} rep {rep}: warm output diverged from cold"
                );
                least.bytes = least.bytes.min(after.bytes - before.bytes);
                least.count = least.count.min(after.count - before.count);
            }
            let spawned = threads as u64 - 1;
            assert!(
                least.bytes <= spawned * SPAWN_BYTES && least.count <= spawned * SPAWN_CALLS,
                "{name} (m = {}) t {threads}: warm solve allocated {} bytes in {} calls, \
                 over the bound for {spawned} spawned workers",
                g.num_edges(),
                least.bytes,
                least.count,
            );
        }
    }
}

/// Warm repeats of the EDCS solve allocate nothing on both sides of the
/// fixpoint's density rule: an inmem-shaped clique union, where it keeps
/// the open-vertex tree, and the bipartite family, where it runs plain
/// passes. A metered solve first tells the sides apart: only the tree
/// evaluates fewer than `passes × m` edges.
#[test]
fn warm_edcs_repeat_solves_allocate_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let params = EdcsParams::new(16, EdcsParams::default_lambda(16)).unwrap();
    let mut rng = StdRng::seed_from_u64(0x1A);
    let inmem_shape = clique_union(
        CliqueUnionConfig {
            n: 2_000,
            diversity: 2,
            clique_size: 400,
        },
        &mut rng,
    );
    let bipartite = bipartite_gnp(2_000, 2_000, 10.0 / 2_000.0, &mut rng);
    for (name, g, tree) in [
        ("inmem-shape", inmem_shape, true),
        ("bipartite", bipartite, false),
    ] {
        let mut scratch = PipelineScratch::new();
        let mut meter = WorkMeter::new();
        approx_mcm_via_edcs_with_scratch_metered(&g, &params, 0.5, 1, &mut meter, &mut scratch)
            .unwrap();
        let scan = meter.get(keys::EDCS_PASSES) * g.num_edges() as u64;
        let evaluated = meter.get(keys::EDCS_EDGE_EVALUATIONS);
        assert_eq!(
            evaluated < scan,
            tree,
            "{name}: {evaluated} of {scan} edge evaluations"
        );
        let cold = approx_mcm_via_edcs(&g, &params, 0.5, 1).unwrap();
        for rep in 0..3 {
            let before = alloc::thread_totals();
            let warm = approx_mcm_via_edcs_with_scratch(&g, &params, 0.5, 1, &mut scratch).unwrap();
            let after = alloc::thread_totals();
            let identical = warm.matching == cold.matching && warm.sparsifier == cold.sparsifier;
            assert_eq!(
                after.count,
                before.count,
                "{name} rep {rep}: warm EDCS solve allocated ({} bytes in {} calls)",
                after.bytes - before.bytes,
                after.count - before.count,
            );
            assert_eq!(after.bytes, before.bytes, "{name} rep {rep}");
            assert!(
                identical,
                "{name} rep {rep}: warm output diverged from cold"
            );
        }
    }
}

#[test]
fn allocator_counters_are_live() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Guard against a silently uninstalled allocator: an explicit boxed
    // allocation must move both counters.
    let before = alloc::thread_totals();
    let v: Vec<u64> = Vec::with_capacity(1024);
    let after = alloc::thread_totals();
    drop(v);
    assert!(after.count > before.count, "allocation calls not counted");
    assert!(
        after.bytes >= before.bytes + 8 * 1024,
        "allocation bytes not counted"
    );
}
