//! Theorems 3.2 and 3.3 end to end.
//!
//! The protocol stack: (round 1) random sparsifier `G_Δ` on the physical
//! network; (round 2) Solomon's bounded-degree sparsifier on `G_Δ`; then
//! the bounded-degree `(1+ε)` matching (coloring + MM + augmentation) on
//! the composed sparsifier `G̃_Δ`. Later phases run over sparsifier edges
//! only — each sparsifier edge is a physical edge, so their rounds and
//! messages are physical rounds and messages, and the totals below are the
//! Theorem 3.3 quantities.

use crate::algorithms::israeli_itai::israeli_itai_matching;
use crate::algorithms::matching::{bounded_degree_matching, maximal_matching_only};
use crate::algorithms::solomon::distributed_solomon;
use crate::algorithms::sparsify::distributed_sparsifier;
use crate::faults::{FaultPlan, FaultStats, ResilienceParams};
use crate::metrics::Metrics;
use crate::network::Network;
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_core::solomon::degree_cap_for;
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_matching::Matching;

/// Outcome of the full distributed pipeline.
#[derive(Clone, Debug)]
pub struct DistributedOutcome {
    /// The matching (valid for the original graph).
    pub matching: Matching,
    /// Communication totals across all phases.
    pub metrics: Metrics,
    /// Per-phase round counts: (sparsify, solomon, matching).
    pub phase_rounds: (u64, u64, u64),
    /// Maximum degree of the composed sparsifier the matcher ran on.
    pub composed_max_degree: usize,
    /// Fault counters across all phases (all zero on a perfect network).
    pub faults: FaultStats,
}

/// Fault configuration threaded through a pipeline run: the plan is
/// re-instantiated for each phase network (each phase restarts its round
/// counter, so one plan describes each phase's disruption window).
pub type FaultCfg<'a> = Option<(&'a FaultPlan, ResilienceParams)>;

/// The matcher run on the composed sparsifier in phase 3.
#[derive(Clone, Copy)]
enum Matcher {
    /// Coloring, maximal matching and bounded augmentation.
    Augmenting,
    /// Coloring and maximal matching only.
    Maximal,
    /// Israeli–Itai randomized maximal matching.
    Randomized,
}

/// Theorem 3.2/3.3: distributed `(1+ε)`-approximate MCM on a graph of
/// neighborhood independence `params.beta`.
pub fn distributed_approx_mcm(
    g: &CsrGraph,
    params: &SparsifierParams,
    seed: u64,
) -> DistributedOutcome {
    distributed_approx_mcm_sharded(g, params, seed, None, 1)
}

/// [`distributed_approx_mcm`] with a fault configuration and `threads`
/// round workers on every phase network. Outcomes are the same at every
/// thread count, fault configuration included.
pub fn distributed_approx_mcm_sharded(
    g: &CsrGraph,
    params: &SparsifierParams,
    seed: u64,
    cfg: FaultCfg<'_>,
    threads: usize,
) -> DistributedOutcome {
    run_pipeline(g, params, seed, Matcher::Augmenting, cfg, threads)
}

/// [`distributed_approx_mcm`] under fault injection: every phase network
/// runs under `plan` and `resilience`. The returned matching is valid for
/// `g` under *any* plan; its size degrades gracefully with the fault
/// rates (experiment `exp_fault_sweep`). With
/// [`FaultPlan::none`] and [`ResilienceParams::off`] the outcome is
/// identical to the perfect-network pipeline, fault counters included.
pub fn distributed_approx_mcm_faulty(
    g: &CsrGraph,
    params: &SparsifierParams,
    seed: u64,
    plan: &FaultPlan,
    resilience: ResilienceParams,
) -> DistributedOutcome {
    distributed_approx_mcm_sharded(g, params, seed, Some((plan, resilience)), 1)
}

/// The `(2+ε)`-style comparator (Barenboim–Oren shape): identical
/// sparsification and maximal matching, no augmentation phase.
pub fn distributed_maximal_baseline(
    g: &CsrGraph,
    params: &SparsifierParams,
    seed: u64,
) -> DistributedOutcome {
    distributed_maximal_baseline_sharded(g, params, seed, None, 1)
}

/// [`distributed_maximal_baseline`] with a fault configuration and
/// `threads` round workers (see [`distributed_approx_mcm_sharded`]).
pub fn distributed_maximal_baseline_sharded(
    g: &CsrGraph,
    params: &SparsifierParams,
    seed: u64,
    cfg: FaultCfg<'_>,
    threads: usize,
) -> DistributedOutcome {
    run_pipeline(g, params, seed, Matcher::Maximal, cfg, threads)
}

/// [`distributed_maximal_baseline`] under fault injection (see
/// [`distributed_approx_mcm_faulty`] for the guarantees).
pub fn distributed_maximal_baseline_faulty(
    g: &CsrGraph,
    params: &SparsifierParams,
    seed: u64,
    plan: &FaultPlan,
    resilience: ResilienceParams,
) -> DistributedOutcome {
    distributed_maximal_baseline_sharded(g, params, seed, Some((plan, resilience)), 1)
}

/// Randomized variant: sparsifiers as usual, then Israeli–Itai randomized
/// maximal matching on the composed sparsifier (O(log n) rounds, no
/// coloring) — trades the deterministic `f(Δ) + log* n` round bound for
/// simplicity; 2-approximate modulo sparsification loss.
pub fn distributed_randomized_maximal(
    g: &CsrGraph,
    params: &SparsifierParams,
    seed: u64,
) -> DistributedOutcome {
    distributed_randomized_maximal_sharded(g, params, seed, None, 1)
}

/// [`distributed_randomized_maximal`] with a fault configuration and
/// `threads` round workers (see [`distributed_approx_mcm_sharded`]).
pub fn distributed_randomized_maximal_sharded(
    g: &CsrGraph,
    params: &SparsifierParams,
    seed: u64,
    cfg: FaultCfg<'_>,
    threads: usize,
) -> DistributedOutcome {
    run_pipeline(g, params, seed, Matcher::Randomized, cfg, threads)
}

/// [`distributed_randomized_maximal`] under fault injection (see
/// [`distributed_approx_mcm_faulty`] for the guarantees).
pub fn distributed_randomized_maximal_faulty(
    g: &CsrGraph,
    params: &SparsifierParams,
    seed: u64,
    plan: &FaultPlan,
    resilience: ResilienceParams,
) -> DistributedOutcome {
    distributed_randomized_maximal_sharded(g, params, seed, Some((plan, resilience)), 1)
}

/// One phase's network: `cfg`'s plan, restarted with the phase's round
/// counter, on `threads` workers.
fn phase_net<'g>(g: &'g CsrGraph, cfg: FaultCfg<'_>, threads: usize) -> Network<'g> {
    match cfg {
        None => Network::new(g),
        Some((plan, resilience)) => Network::with_resilience(g, plan.clone(), resilience),
    }
    .with_threads(threads)
}

fn run_pipeline(
    g: &CsrGraph,
    params: &SparsifierParams,
    seed: u64,
    matcher: Matcher,
    cfg: FaultCfg<'_>,
    threads: usize,
) -> DistributedOutcome {
    let mut totals = Metrics::new();
    let mut faults = FaultStats::default();
    // Fold a finished phase's counters into the totals; returns its rounds.
    let mut close = |net: Network<'_>| {
        totals.absorb(net.metrics());
        faults.absorb(net.fault_stats());
        net.metrics().rounds
    };

    // Phase 1: one-round random sparsifier on the physical network.
    let mut net = phase_net(g, cfg, threads);
    let g_delta = distributed_sparsifier(&mut net, params, seed);
    let sparsify_rounds = close(net);

    // Phase 2: one-round bounded-degree sparsifier on G_Δ.
    let mut net = phase_net(&g_delta, cfg, threads);
    let cap = degree_cap_for(params.arboricity_bound(), params.eps);
    let composed = distributed_solomon(&mut net, cap);
    let solomon_rounds = close(net);

    // Phase 3: bounded-degree matching on the composed sparsifier.
    let mut net = phase_net(&composed, cfg, threads);
    let matching = match matcher {
        Matcher::Augmenting => bounded_degree_matching(&mut net, params.eps).0,
        Matcher::Maximal => maximal_matching_only(&mut net),
        Matcher::Randomized => israeli_itai_matching(&mut net, seed).0,
    };
    let matching_rounds = close(net);

    debug_assert!(matching.is_valid_for(g), "composed sparsifier ⊆ G");
    DistributedOutcome {
        matching,
        metrics: totals,
        phase_rounds: (sparsify_rounds, solomon_rounds, matching_rounds),
        composed_max_degree: composed.max_degree(),
        faults,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use sparsimatch_graph::generators::{
        clique_union, unit_disk, CliqueUnionConfig, UnitDiskConfig,
    };
    use sparsimatch_matching::blossom::maximum_matching;

    #[test]
    fn pipeline_accuracy_on_clique_union() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = clique_union(
            CliqueUnionConfig {
                n: 200,
                diversity: 2,
                clique_size: 40,
            },
            &mut rng,
        );
        // Small explicit delta keeps the composed degree low so the test
        // runs fast; accuracy is audited against exact.
        let p = SparsifierParams::with_delta(2, 0.5, 8);
        let out = distributed_approx_mcm(&g, &p, 77);
        let exact = maximum_matching(&g).len();
        assert!(
            out.matching.len() as f64 * 1.6 >= exact as f64,
            "{} vs {exact}",
            out.matching.len()
        );
        assert!(out.matching.is_valid_for(&g));
        assert_eq!(out.phase_rounds.0, 1);
        assert_eq!(out.phase_rounds.1, 1);
    }

    #[test]
    fn sublinear_messages_on_dense_input() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = clique_union(
            CliqueUnionConfig {
                n: 300,
                diversity: 1,
                clique_size: 150,
            },
            &mut rng,
        );
        let p = SparsifierParams::with_delta(1, 0.5, 4);
        let out = distributed_approx_mcm(&g, &p, 5);
        // Dense input: m ≈ 150·149 ≈ 22k edges; phase-1 messages = n·Δ.
        // The later phases run on the tiny sparsifier, so totals stay well
        // below m (the Theorem 3.3 story). Round-heavy phases dominate, so
        // compare against a generous multiple.
        let m = g.num_edges() as u64;
        assert!(
            out.metrics.messages < 40 * m,
            "messages {} vs m {m}",
            out.metrics.messages
        );
    }

    #[test]
    fn randomized_variant_is_congest_compliant_and_maximalish() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = clique_union(
            CliqueUnionConfig {
                n: 150,
                diversity: 2,
                clique_size: 30,
            },
            &mut rng,
        );
        let p = SparsifierParams::with_delta(2, 0.5, 6);
        let out = distributed_randomized_maximal(&g, &p, 21);
        assert!(out.matching.is_valid_for(&g));
        // Every message in this variant is 1 bit: far inside CONGEST.
        assert!(out.metrics.congest_compliant(g.num_vertices(), 1));
        assert_eq!(out.metrics.max_message_bits, 1);
        let exact = maximum_matching(&g).len();
        assert!(
            out.matching.len() * 3 >= exact,
            "{} vs {exact}",
            out.matching.len()
        );
    }

    #[test]
    fn deterministic_pipeline_messages_fit_congest_outside_gathers() {
        // The sparsify + solomon + coloring phases use ≤ O(log n)-bit
        // messages; only the augmentation's LOCAL ball gathers exceed
        // CONGEST. The maximal-only pipeline must therefore be compliant.
        let mut rng = StdRng::seed_from_u64(6);
        let g = unit_disk(
            UnitDiskConfig::with_expected_degree(200, 1.0, 10.0),
            &mut rng,
        );
        let p = SparsifierParams::with_delta(5, 0.5, 5);
        let out = distributed_maximal_baseline(&g, &p, 4);
        assert!(
            out.metrics.congest_compliant(g.num_vertices(), 8),
            "max message bits = {}",
            out.metrics.max_message_bits
        );
        // The augmented pipeline gathers balls: LOCAL-sized messages.
        let full = distributed_approx_mcm(&g, &p, 4);
        assert!(full.metrics.max_message_bits >= out.metrics.max_message_bits);
    }

    #[test]
    fn baseline_is_weaker_but_valid() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = unit_disk(
            UnitDiskConfig::with_expected_degree(300, 1.0, 15.0),
            &mut rng,
        );
        let p = SparsifierParams::with_delta(5, 0.5, 10);
        let base = distributed_maximal_baseline(&g, &p, 9);
        let full = distributed_approx_mcm(&g, &p, 9);
        let exact = maximum_matching(&g).len();
        assert!(base.matching.is_valid_for(&g));
        // Maximal matching: at least half of optimum (of the sparsifier,
        // roughly half of exact modulo sparsification loss).
        assert!(base.matching.len() * 2 + 5 >= exact / 2);
        assert!(full.matching.len() >= base.matching.len());
    }
}
