//! Oracle comparators: run an algorithm on an instance and judge the
//! output against ground truth computed the slow, trustworthy way.
//!
//! Every check here is a paper claim made executable at small `n`:
//!
//! * **static** — the Theorem 3.1 pipeline vs exact blossom MCM
//!   (`|MCM(G)| ≤ (1+ε)·|pipeline(G)|`), the β certificate audited by
//!   exact branch and bound, and the sparsifier invariants: subgraph-ness,
//!   the Observation 2.10 size bound, the Observation 2.12 arboricity
//!   bound, the Theorem 2.1 sparsification ratio itself, and the same
//!   `G_Δ` and stats from two and four mark workers as from one.
//! * **dynamic** — the Theorem 3.5 window scheme replayed against a full
//!   recompute (exact blossom on a reference graph) at periodic audits,
//!   plus validity of the served matching at every audit and the
//!   per-update work cap; the same stream replayed through the
//!   worst-case matcher, whose window solve runs a budget per update,
//!   must serve a valid matching at the same audits; and the stream split
//!   at a seeded prefix, the scheme stood up on the prefix's graph in one
//!   window solve and the rest replayed, must serve a valid matching
//!   within the same ratio bound right after the stand-up and at every
//!   later audit.
//! * **distsim** — the Theorem 3.2/3.3 distributed pipeline vs the
//!   sequential pipeline on the same seed, zero-fault transparency (the
//!   faulty exchange loop under a plan that never fires reproduces the
//!   perfect loop's outcome byte for byte), identical outcomes at two and
//!   four round workers, validity under a seeded fault plan, and one
//!   `G_Δ` across models (both sparsifier protocols equal core's builder
//!   edge for edge).
//! * **scratch** — the warm-scratch pipeline
//!   ([`approx_mcm_via_sparsifier_with_scratch`]) vs the one-shot
//!   cold path, byte-for-byte across matching pairs, sparsifier stats,
//!   probes, and augmentation stats, at several thread counts and on a
//!   deliberately dirty reused arena.
//! * **stream** — the out-of-core streamed pipeline
//!   ([`approx_mcm_streamed`]) vs the in-memory one, byte-for-byte on
//!   the same fingerprint, plus the streaming report's own invariants
//!   (`sparsifier_bytes ≤ peak_resident_bytes`, two passes = `4m`
//!   half-edge visits). The graph streams from its own CSR — the
//!   file-backed source is pinned separately by proptest — so the sweep
//!   stays hermetic.
//! * **chaos-stream** — the streamed pipeline under a seeded
//!   [`IoFaultPlan`] (the I/O twin of distsim's `FaultPlan`): a
//!   recoverable plan plus a matching [`RetryPolicy`] must reproduce the
//!   fault-free run byte-for-byte with every aborted rescan charged to
//!   the work accounting, and an unrecoverable plan must surface a typed
//!   [`StreamBuildError`] — never a panic, never a silently wrong
//!   sparsifier.
//! * **backend** — the [`MatchingSparsifier`] contract: the `delta`
//!   backend behind the trait is byte-identical to the direct pipeline
//!   at `t ∈ {1, 2, 4}` (the tentpole's zero-behavior-change pin), and
//!   *every* backend's self-declared claims hold — the built subgraph
//!   respects its claimed size bound and local invariants (for EDCS,
//!   Properties A and B plus in-memory/streamed build identity), and the
//!   solved matching is within the claimed ratio of exact blossom. The
//!   EDCS invariants and build identity are also checked on a dense
//!   clique union drawn from the trial's seed, where the in-memory
//!   fixpoint keeps its open-vertex tree; a violation there names that
//!   graph, as an instance of family `dense clique-union`, as its
//!   witness, and on such an instance the oracle runs those checks
//!   alone, on its own edges.
//!
//! A whole seed sweep shares one [`PipelineScratch`] (see
//! [`OracleKind::check_with_scratch`]), so every oracle's sequential
//! pipeline runs exercise the steady-state reuse path the scratch oracle
//! certifies.
//!
//! Oracles return the *first* violation they find; messages embed the
//! concrete numbers so a reproducer file doubles as a witness. An oracle
//! that panics returns a [`PANIC_CHECK`] violation instead of ending the
//! sweep.

use crate::instance::{CheckConfig, CheckInstance, DYNAMIC_MIN_STEPS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparsimatch_core::backend::{BackendKind, DeltaBackend, EdcsBackend, MatchingSparsifier};
use sparsimatch_core::edcs::{build_edcs, build_edcs_streamed, edcs_violation, EdcsParams};
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_core::pipeline::{
    approx_mcm_via_sparsifier, approx_mcm_via_sparsifier_with_scratch,
};
use sparsimatch_core::scratch::PipelineScratch;
use sparsimatch_core::sparsifier::build_sparsifier;
use sparsimatch_core::stream_build::{
    approx_mcm_streamed, approx_mcm_streamed_with_retry, RetryPolicy, StreamBuildError,
};
use sparsimatch_distsim::algorithms::pipeline::{
    distributed_approx_mcm, distributed_approx_mcm_faulty, distributed_approx_mcm_sharded,
    DistributedOutcome,
};
use sparsimatch_distsim::algorithms::sparsify::{
    distributed_sparsifier, distributed_sparsifier_broadcast,
};
use sparsimatch_distsim::{FaultPlan, FaultRates, Network, ResilienceParams};
use sparsimatch_dynamic::adversary::Update;
use sparsimatch_dynamic::scheme::DynamicMatcher;
use sparsimatch_dynamic::sliced::WorstCaseDynamicMatcher;
use sparsimatch_graph::adjlist::AdjListGraph;
use sparsimatch_graph::analysis::arboricity::arboricity_bounds;
use sparsimatch_graph::analysis::independence::neighborhood_independence_at_most;
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::edge_stream::{FaultyEdgeSource, IoFaultPlan, IoFaultRates};
use sparsimatch_graph::generators::{clique_union, CliqueUnionConfig};
use sparsimatch_graph::ids::VertexId;
use sparsimatch_matching::blossom::maximum_matching;
use sparsimatch_matching::Matching;

/// Additive slack on the dynamic ratio check: the served matching may be
/// one window stale (Gupta–Peng stability) and pruned by in-window
/// deletions, which at these instance sizes is worth a couple of edges on
/// top of the `(1+ε)` factor.
pub const DYNAMIC_ABS_SLACK: f64 = 2.0;

/// Additive slack on the distributed ratio checks: the whp guarantee is
/// asymptotic, and a single unlucky vertex at `n ≤ 34` is one matched
/// edge of noise.
pub const DISTSIM_ABS_SLACK: f64 = 2.0;

/// How often the dynamic oracle stops the stream and compares against a
/// full recompute (every update would be O(steps · blossom); every 25th
/// plus the final state keeps the sweep fast without losing the bug the
/// audit exists to catch).
const DYNAMIC_AUDIT_PERIOD: usize = 25;

/// Additive slack on the backend ratio checks: the claims are worst-case
/// asymptotic statements, and at `n ≤ 40` a single unlucky vertex is one
/// matched edge of noise — the same allowance the dynamic and distsim
/// oracles get.
pub const BACKEND_ABS_SLACK: f64 = 2.0;

/// Tiny epsilon absorbing float rounding in ratio comparisons.
const FLOAT_FUDGE: f64 = 1e-9;

/// A failed check: which invariant broke, with a concrete witness.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Stable slug naming the invariant (e.g. `thm3.1-ratio`).
    pub check: String,
    /// Human-readable witness with the measured numbers.
    pub message: String,
    /// The instance the check failed on when the oracle derived it from
    /// the checked one (the backend oracle's dense clique union), so a
    /// sweep shrinks and writes that instance instead; `None` when the
    /// checked instance is the witness.
    pub witness: Option<CheckInstance>,
}

impl Violation {
    fn new(check: &str, message: String) -> Self {
        Violation {
            check: check.to_string(),
            message,
            witness: None,
        }
    }
}

/// Which oracle judges a scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OracleKind {
    /// Sequential pipeline + sparsifier invariants + β audit.
    Static,
    /// Dynamic scheme vs full recompute under the recorded stream.
    Dynamic,
    /// Distributed pipeline (perfect + faulty) vs the sequential one.
    Distsim,
    /// Warm-scratch pipeline vs the cold one-shot path, byte-for-byte.
    Scratch,
    /// Out-of-core streamed pipeline vs the in-memory one, byte-for-byte.
    Stream,
    /// Streamed pipeline under seeded I/O faults: recoverable plans must
    /// retry to byte identity, unrecoverable ones must fail typed.
    ChaosStream,
    /// The backend trait contract: delta-behind-trait byte identity plus
    /// each backend's claimed size bound, local invariants, and claimed
    /// ratio vs exact blossom.
    Backend,
}

impl OracleKind {
    /// Stable name used in reproducer files.
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::Static => "static",
            OracleKind::Dynamic => "dynamic",
            OracleKind::Distsim => "distsim",
            OracleKind::Scratch => "scratch",
            OracleKind::Stream => "stream",
            OracleKind::ChaosStream => "chaos-stream",
            OracleKind::Backend => "backend",
        }
    }

    /// Parse a reproducer's oracle name.
    pub fn from_name(name: &str) -> Result<OracleKind, String> {
        match name {
            "static" => Ok(OracleKind::Static),
            "dynamic" => Ok(OracleKind::Dynamic),
            "distsim" => Ok(OracleKind::Distsim),
            "scratch" => Ok(OracleKind::Scratch),
            "stream" => Ok(OracleKind::Stream),
            "chaos-stream" => Ok(OracleKind::ChaosStream),
            "backend" => Ok(OracleKind::Backend),
            other => Err(format!("unknown oracle {other:?}")),
        }
    }

    /// Run this oracle on `inst`, returning the first violated invariant.
    /// Builds a fresh pipeline arena per call; sweeps should prefer
    /// [`OracleKind::check_with_scratch`] to reuse one across seeds.
    pub fn check(self, inst: &CheckInstance, cfg: &CheckConfig) -> Option<Violation> {
        self.check_with_scratch(inst, cfg, &mut PipelineScratch::new())
    }

    /// [`OracleKind::check`] running every sequential-pipeline invocation
    /// through a caller-owned [`PipelineScratch`]. Identical verdicts —
    /// warm-vs-cold byte identity is exactly what the scratch oracle
    /// proves — but a seed sweep stops paying per-seed buffer churn.
    ///
    /// A panic inside the oracle is caught and returned as a
    /// [`PANIC_CHECK`] violation carrying the panic message, so a sweep
    /// can shrink and persist it like any other. The unwind may leave
    /// `scratch` half-written; the caller should replace it.
    pub fn check_with_scratch(
        self,
        inst: &CheckInstance,
        cfg: &CheckConfig,
        scratch: &mut PipelineScratch,
    ) -> Option<Violation> {
        catch_panic(|| match self {
            OracleKind::Static => check_static(inst, cfg, scratch),
            OracleKind::Dynamic => check_dynamic(inst, cfg),
            OracleKind::Distsim => check_distsim(inst, cfg, scratch),
            OracleKind::Scratch => check_scratch(inst, cfg, scratch),
            OracleKind::Stream => check_stream(inst, cfg, scratch),
            OracleKind::ChaosStream => check_chaos_stream(inst, cfg),
            OracleKind::Backend => check_backend(inst, cfg, scratch),
        })
    }
}

/// The check slug of a violation that is an oracle's panic.
pub const PANIC_CHECK: &str = "panic";

/// Run an oracle body, turning a panic into a [`PANIC_CHECK`] violation
/// whose message is the panic's payload (its location is left out, so a
/// replay on a rebuilt binary still matches byte for byte).
fn catch_panic(body: impl FnOnce() -> Option<Violation>) -> Option<Violation> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with a non-string payload".to_string());
        Some(Violation::new(PANIC_CHECK, message))
    })
}

fn ratio_exceeded(exact: usize, approx: usize, bound: f64) -> bool {
    exact as f64 > bound * approx as f64 + FLOAT_FUDGE
}

fn check_static(
    inst: &CheckInstance,
    cfg: &CheckConfig,
    scratch: &mut PipelineScratch,
) -> Option<Violation> {
    let g = inst.graph();
    let params = inst.params();
    // The product's seeded builder at the caller's Δ, and the same build
    // from two and four mark workers. The builder has no parallel cutoff,
    // so this is where the merge of several mark workers' keys and
    // keep-all runs meets an oracle: the pipeline runs one worker at
    // these sizes. Worker-count invariance does not rest on β, so it is
    // checked before the β audit, and the shrinker can remove edges from
    // a witness without tripping the certificate first; so are the other
    // checks that hold on any graph.
    let s =
        build_sparsifier(&g, &params, inst.algo_seed, 1, None).expect("1 is a valid thread count");
    for threads in [2usize, 4] {
        let t = build_sparsifier(&g, &params, inst.algo_seed, threads, None)
            .expect("2 and 4 are valid thread counts");
        if t.stats != s.stats || edge_pairs(&t.graph) != edge_pairs(&s.graph) {
            return Some(Violation::new(
                "sparsifier-threads",
                format!(
                    "{threads}-worker build differs from the 1-worker build: {} vs {} edges, \
                     stats {:?} vs {:?}",
                    t.stats.edges, s.stats.edges, t.stats, s.stats
                ),
            ));
        }
    }
    // The pipeline's output is a matching of the input, and the seeded
    // build above is a subgraph within the naive size and arboricity
    // bounds, on any graph: these too run before the β audit.
    let r = match approx_mcm_via_sparsifier_with_scratch(&g, &params, inst.algo_seed, 1, scratch) {
        Ok(r) => r,
        Err(e) => {
            return Some(Violation::new(
                "pipeline-error",
                format!("single-threaded pipeline rejected: {e}"),
            ))
        }
    };
    if !r.matching.is_valid_for(&g) {
        return Some(Violation::new(
            "pipeline-validity",
            "pipeline output is not a valid matching of the input graph".to_string(),
        ));
    }
    for (_, u, v) in s.graph.edges() {
        if !g.has_edge(u, v) {
            return Some(Violation::new(
                "sparsifier-subgraph",
                format!(
                    "sparsifier contains ({}, {}) which is not an input edge",
                    u.0, v.0
                ),
            ));
        }
    }
    if s.stats.edges > params.naive_size_bound(g.num_vertices()) {
        return Some(Violation::new(
            "naive-size",
            format!(
                "sparsifier has {} edges > n·cap = {}",
                s.stats.edges,
                params.naive_size_bound(g.num_vertices())
            ),
        ));
    }
    if s.graph.num_edges() > 0 {
        let (arb_lo, _) = arboricity_bounds(&s.graph);
        if arb_lo > params.arboricity_bound() {
            return Some(Violation::new(
                "obs2.12-arboricity",
                format!(
                    "sparsifier arboricity >= {arb_lo} > 2·cap = {}",
                    params.arboricity_bound()
                ),
            ));
        }
    }
    // β audit: the certificate every Δ sizing rests on, verified by exact
    // branch and bound (cheap at these n). The ratio and size bounds
    // below rest on it.
    if !neighborhood_independence_at_most(&g, inst.beta) {
        return Some(Violation::new(
            "beta-certificate",
            format!(
                "family {} certifies beta <= {} but a larger independent neighborhood set exists",
                inst.family, inst.beta
            ),
        ));
    }
    if g.num_edges() == 0 {
        return None;
    }
    let bound = inst.ratio_bound(cfg);
    let exact = maximum_matching(&g);

    // Theorem 3.1: the end-to-end pipeline is a (1+ε)-approximation.
    if ratio_exceeded(exact.len(), r.matching.len(), bound) {
        return Some(Violation::new(
            "thm3.1-ratio",
            format!(
                "exact MCM {} > {bound:.4} x pipeline matching {} (delta = {})",
                exact.len(),
                r.matching.len(),
                params.delta
            ),
        ));
    }
    // Observation 2.10, on the seeded build at the caller's Δ (the
    // pipeline marks at the stage Δ).
    if s.stats.edges > params.size_bound(exact.len()) {
        return Some(Violation::new(
            "obs2.10-size",
            format!(
                "sparsifier has {} edges > 2·MCM·(cap+beta) = {}",
                s.stats.edges,
                params.size_bound(exact.len())
            ),
        ));
    }
    // Theorem 2.1 proper: the sparsifier alone preserves the MCM.
    let exact_sparse = maximum_matching(&s.graph).len();
    if ratio_exceeded(exact.len(), exact_sparse, bound) {
        return Some(Violation::new(
            "thm2.1-ratio",
            format!(
                "exact MCM {} > {bound:.4} x sparsifier MCM {exact_sparse} (delta = {})",
                exact.len(),
                params.delta
            ),
        ));
    }
    None
}

fn check_dynamic(inst: &CheckInstance, cfg: &CheckConfig) -> Option<Violation> {
    check_window_scheme(inst, cfg)
        .or_else(|| check_sliced(inst))
        .or_else(|| check_stand_up(inst, cfg))
}

/// Whether update `i` of `inst`'s stream is followed by an audit.
fn is_audit_point(inst: &CheckInstance, i: usize) -> bool {
    i + 1 == inst.updates.len() || (i + 1).is_multiple_of(DYNAMIC_AUDIT_PERIOD)
}

/// Apply `update` to the reference graph, maintained the boring way.
fn apply_to_reference(reference: &mut AdjListGraph, update: Update) {
    match update {
        Update::Insert(u, v) => reference.insert_edge(u, v),
        Update::Delete(u, v) => reference.delete_edge(u, v),
    };
}

fn check_window_scheme(inst: &CheckInstance, cfg: &CheckConfig) -> Option<Violation> {
    let params = inst.params();
    let bound = inst.ratio_bound(cfg);
    let mut matcher = DynamicMatcher::new(inst.n, params, inst.algo_seed);
    let work_cap = 4 * matcher.work_bound();
    // `maximum_matching` on the reference graph's snapshots is the
    // full-recompute oracle.
    let mut reference = AdjListGraph::new(inst.n);
    for (i, &update) in inst.updates.iter().enumerate() {
        apply_to_reference(&mut reference, update);
        let report = matcher.apply(update);
        if report.work > work_cap {
            return Some(Violation::new(
                "thm3.5-work",
                format!(
                    "update {i} charged {} work units > 4 x bound {} (O(Delta/eps^3))",
                    report.work,
                    matcher.work_bound()
                ),
            ));
        }
        if is_audit_point(inst, i) {
            let checks = ["dynamic-validity", "thm3.5-ratio"];
            let after = format!("update {i}");
            let served = matcher.matching();
            if let Some(violation) =
                audit_served(served, &reference, bound, &params, checks, &after)
            {
                return Some(violation);
            }
        }
    }
    None
}

/// The window scheme's audit of a served matching against the reference
/// graph: it must be a matching of the graph (else the first of `checks`
/// fails), and exact MCM must not exceed `bound` times its size plus
/// [`DYNAMIC_ABS_SLACK`] (else the second fails). `after` names the
/// audit point.
fn audit_served(
    served: &Matching,
    reference: &AdjListGraph,
    bound: f64,
    params: &SparsifierParams,
    [validity, ratio]: [&str; 2],
    after: &str,
) -> Option<Violation> {
    let snapshot = reference.to_csr();
    if !served.is_valid_for(&snapshot) {
        return Some(Violation::new(
            validity,
            format!("served matching invalid after {after}"),
        ));
    }
    let exact = maximum_matching(&snapshot).len();
    let served = served.len();
    if exact as f64 > bound * served as f64 + DYNAMIC_ABS_SLACK + FLOAT_FUDGE {
        return Some(Violation::new(
            ratio,
            format!(
                "after {after}: exact MCM {exact} > {bound:.4} x served {served} + {DYNAMIC_ABS_SLACK} (delta = {})",
                params.delta
            ),
        ));
    }
    None
}

/// The recorded stream replayed through the worst-case matcher: the
/// served matching must be a matching of the current graph at every audit
/// point of [`check_window_scheme`].
fn check_sliced(inst: &CheckInstance) -> Option<Violation> {
    let mut matcher = WorstCaseDynamicMatcher::new(inst.n, inst.params(), inst.algo_seed);
    let mut reference = AdjListGraph::new(inst.n);
    for (i, &update) in inst.updates.iter().enumerate() {
        apply_to_reference(&mut reference, update);
        matcher.apply(update);
        if is_audit_point(inst, i) && !matcher.matching().is_valid_for(&reference.to_csr()) {
            return Some(Violation::new(
                "sliced-validity",
                format!("worst-case matcher's served matching invalid after update {i}"),
            ));
        }
    }
    None
}

/// The recorded stream split at a seeded prefix: the scheme is stood up
/// on the prefix's graph by [`DynamicMatcher::from_graph`] and the rest
/// replays. The served matching must pass [`check_window_scheme`]'s
/// audit right after the stand-up and at every later audit point.
fn check_stand_up(inst: &CheckInstance, cfg: &CheckConfig) -> Option<Violation> {
    let params = inst.params();
    let bound = inst.ratio_bound(cfg);
    let checks = ["stand-up-validity", "stand-up-ratio"];
    // The split comes from the instance's own seed, so a reproducer
    // replays it, and lies below the shortest recorded stream, so a
    // generated instance replays a suffix. It does not scale with the
    // stream's length, so shrinking, which drops updates, keeps it.
    let split = inst.algo_seed % DYNAMIC_MIN_STEPS as u64;
    let split = (split as usize).min(inst.updates.len());
    let mut reference = AdjListGraph::new(inst.n);
    for &update in &inst.updates[..split] {
        apply_to_reference(&mut reference, update);
    }
    let audit = |matcher: &DynamicMatcher, reference: &AdjListGraph, after: String| {
        audit_served(
            matcher.matching(),
            reference,
            bound,
            &params,
            checks,
            &after,
        )
    };
    let mut matcher = DynamicMatcher::from_graph(&reference.to_csr(), params, inst.algo_seed);
    let stand_up = format!("the stand-up on the first {split} updates");
    if let Some(violation) = audit(&matcher, &reference, stand_up) {
        return Some(violation);
    }
    for (i, &update) in inst.updates.iter().enumerate().skip(split) {
        apply_to_reference(&mut reference, update);
        matcher.apply(update);
        if is_audit_point(inst, i) {
            if let Some(violation) = audit(&matcher, &reference, format!("update {i}")) {
                return Some(violation);
            }
        }
    }
    None
}

/// The seeded fault plan the distsim oracle stresses every instance with.
fn stress_plan(inst: &CheckInstance) -> FaultPlan {
    FaultPlan::new(
        inst.algo_seed ^ 0xFA17_5EED,
        FaultRates {
            drop: 0.15,
            duplicate: 0.08,
            reorder: 0.2,
            crash: 0.04,
        },
    )
    .with_crash_period(4)
}

/// A plan that could fault at any rate but never does (zero horizon):
/// it sends every exchange through the faulty loop with nothing to inject.
fn silent_plan(inst: &CheckInstance) -> FaultPlan {
    FaultPlan::new(
        inst.algo_seed ^ 0x51_1E47,
        FaultRates {
            drop: 0.5,
            duplicate: 0.5,
            reorder: 0.5,
            crash: 0.5,
        },
    )
    .with_horizon(0)
}

/// Everything a distsim run must keep bit-identical across replays:
/// matching pairs, round/message/bit totals, and per-phase round counts.
type OutcomeFingerprint = (Vec<(u32, u32)>, u64, u64, u64, (u64, u64, u64));

fn outcome_fingerprint(o: &DistributedOutcome) -> OutcomeFingerprint {
    (
        matching_pairs(&o.matching),
        o.metrics.rounds,
        o.metrics.messages,
        o.metrics.bits,
        o.phase_rounds,
    )
}

fn matching_pairs(m: &Matching) -> Vec<(u32, u32)> {
    m.pairs()
        .map(|(u, v): (VertexId, VertexId)| (u.0, v.0))
        .collect()
}

fn edge_pairs(g: &CsrGraph) -> Vec<(u32, u32)> {
    g.edges().map(|(_, u, v)| (u.0, v.0)).collect()
}

fn check_distsim(
    inst: &CheckInstance,
    cfg: &CheckConfig,
    scratch: &mut PipelineScratch,
) -> Option<Violation> {
    let g: CsrGraph = inst.graph();
    if g.num_edges() == 0 {
        return None;
    }
    let params = inst.params();
    let bound = inst.ratio_bound(cfg);
    let exact = maximum_matching(&g).len();

    // Sequential pipeline on the same seed — the comparison baseline.
    let seq = match approx_mcm_via_sparsifier_with_scratch(&g, &params, inst.algo_seed, 1, scratch)
    {
        Ok(r) => r.matching.clone(),
        Err(e) => {
            return Some(Violation::new(
                "pipeline-error",
                format!("single-threaded pipeline rejected: {e}"),
            ))
        }
    };

    let perfect = distributed_approx_mcm(&g, &params, inst.algo_seed);
    if !perfect.matching.is_valid_for(&g) {
        return Some(Violation::new(
            "distsim-validity",
            "perfect-network distributed matching invalid for the input".to_string(),
        ));
    }

    // One G_Δ across models: on a lossless network both sparsifier
    // protocols mark with core's sampler, so they build exactly core's
    // sparsifier. Δ = 2 (cap 4) sends most vertices of every family
    // through the sampler, which the instance's Δ often does not.
    let seed = inst.algo_seed;
    let delta_two = SparsifierParams::with_delta(params.beta, params.eps, 2);
    for p in [params, delta_two] {
        let core = build_sparsifier(&g, &p, seed, 1, None).expect("1 is a valid thread count");
        let core = edge_pairs(&core.graph);
        let uni = distributed_sparsifier(&mut Network::new(&g), &p, seed);
        let bro = distributed_sparsifier_broadcast(&mut Network::new(&g), &p, seed);
        for (protocol, got) in [("unicast", uni), ("broadcast", bro)] {
            let got = edge_pairs(&got);
            if got != core {
                return Some(Violation::new(
                    "sparsifier-identity",
                    format!(
                        "{protocol} G_Δ at delta {} differs from core's: {} vs {} edges",
                        p.delta,
                        got.len(),
                        core.len()
                    ),
                ));
            }
        }
    }

    // Zero-fault transparency: the faulty exchange loop under a plan that
    // never fires must be indistinguishable from the perfect loop,
    // metrics included.
    let zero = distributed_approx_mcm_faulty(
        &g,
        &params,
        inst.algo_seed,
        &silent_plan(inst),
        ResilienceParams::off(),
    );
    if outcome_fingerprint(&zero) != outcome_fingerprint(&perfect)
        || zero.metrics != perfect.metrics
        || zero.faults != Default::default()
    {
        return Some(Violation::new(
            "zero-fault-transparency",
            format!(
                "never-firing plan diverged from the perfect loop: {} vs {} matched, {}/{} rounds",
                zero.matching.len(),
                perfect.matching.len(),
                zero.metrics.rounds,
                perfect.metrics.rounds
            ),
        ));
    }

    // A genuinely faulty network may lose matching size but never validity.
    let faulty = distributed_approx_mcm_faulty(
        &g,
        &params,
        inst.algo_seed,
        &stress_plan(inst),
        ResilienceParams::retry(1),
    );
    if !faulty.matching.is_valid_for(&g) {
        return Some(Violation::new(
            "faulty-validity",
            "distributed matching under faults is invalid for the input".to_string(),
        ));
    }

    // Worker count: at t ∈ {2, 4} every run must be byte-identical to the
    // one-worker run — perfect and faulty (stress plan + retry) alike,
    // fault counters included.
    let plan = stress_plan(inst);
    for threads in [2usize, 4] {
        let sharded = distributed_approx_mcm_sharded(&g, &params, inst.algo_seed, None, threads);
        if outcome_fingerprint(&sharded) != outcome_fingerprint(&perfect) {
            return Some(Violation::new(
                "sharded-identity",
                format!(
                    "t={threads} run diverged from the one-worker perfect run: \
                     {} vs {} matched, {}/{} rounds",
                    sharded.matching.len(),
                    perfect.matching.len(),
                    sharded.metrics.rounds,
                    perfect.metrics.rounds
                ),
            ));
        }
        let sharded_faulty = distributed_approx_mcm_sharded(
            &g,
            &params,
            inst.algo_seed,
            Some((&plan, ResilienceParams::retry(1))),
            threads,
        );
        if outcome_fingerprint(&sharded_faulty) != outcome_fingerprint(&faulty)
            || sharded_faulty.faults != faulty.faults
        {
            return Some(Violation::new(
                "sharded-faulty-identity",
                format!(
                    "t={threads} faulty run diverged from the one-worker faulty run: \
                     {} vs {} matched, {}/{} rounds, faults {} vs {}",
                    sharded_faulty.matching.len(),
                    faulty.matching.len(),
                    sharded_faulty.metrics.rounds,
                    faulty.metrics.rounds,
                    sharded_faulty.faults,
                    faulty.faults
                ),
            ));
        }
    }

    // Theorem 3.2/3.3 ratio, and agreement with the sequential pipeline.
    let slack = DISTSIM_ABS_SLACK + FLOAT_FUDGE;
    if exact as f64 > bound * perfect.matching.len() as f64 + slack {
        return Some(Violation::new(
            "thm3.2-ratio",
            format!(
                "exact MCM {exact} > {bound:.4} x distributed matching {} + {DISTSIM_ABS_SLACK}",
                perfect.matching.len()
            ),
        ));
    }
    if exact as f64 > bound * seq.len() as f64 + slack {
        return Some(Violation::new(
            "thm3.1-ratio",
            format!(
                "exact MCM {exact} > {bound:.4} x sequential pipeline {} + {DISTSIM_ABS_SLACK}",
                seq.len()
            ),
        ));
    }
    let (lo, hi) = if seq.len() <= perfect.matching.len() {
        (seq.len(), perfect.matching.len())
    } else {
        (perfect.matching.len(), seq.len())
    };
    if hi as f64 > bound * lo as f64 + slack {
        return Some(Violation::new(
            "seq-dist-agreement",
            format!(
                "sequential ({}) and distributed ({}) matchings diverge beyond {bound:.4}x + {DISTSIM_ABS_SLACK}",
                seq.len(),
                perfect.matching.len()
            ),
        ));
    }
    None
}

/// Fingerprint of everything a pipeline run reports: matching pairs plus
/// every scalar in the sparsifier, probe, and augmentation stats. Two runs
/// with equal fingerprints are byte-for-byte the same result.
type PipelineFingerprint = (
    Vec<(u32, u32)>,
    (usize, usize, usize, usize, usize),
    (u64, u64),
    (usize, usize, u64),
);

fn pipeline_fingerprint(r: &sparsimatch_core::pipeline::PipelineResult) -> PipelineFingerprint {
    (
        matching_pairs(&r.matching),
        (
            r.sparsifier.delta,
            r.sparsifier.mark_cap,
            r.sparsifier.low_degree_vertices,
            r.sparsifier.marks_placed,
            r.sparsifier.edges,
        ),
        (r.probes.degree_probes, r.probes.neighbor_probes),
        (r.aug.augmentations, r.aug.searches, r.aug.edge_visits),
    )
}

/// Thread counts the scratch oracle replays every instance at.
const SCRATCH_THREADS: [usize; 3] = [1, 2, 4];

fn check_scratch(
    inst: &CheckInstance,
    cfg: &CheckConfig,
    scratch: &mut PipelineScratch,
) -> Option<Violation> {
    let _ = cfg; // the identity invariant has no tunable bound
    let g: CsrGraph = inst.graph();
    let params = inst.params();
    for threads in SCRATCH_THREADS {
        let cold = match approx_mcm_via_sparsifier(&g, &params, inst.algo_seed, threads) {
            Ok(r) => pipeline_fingerprint(&r),
            Err(e) => {
                return Some(Violation::new(
                    "pipeline-error",
                    format!("cold pipeline rejected {threads} threads: {e}"),
                ))
            }
        };
        // Two warm runs through the (already dirty) shared arena: the
        // first may still grow buffers, the second is pure steady state.
        for pass in ["warm", "steady"] {
            let warm = match approx_mcm_via_sparsifier_with_scratch(
                &g,
                &params,
                inst.algo_seed,
                threads,
                scratch,
            ) {
                Ok(r) => pipeline_fingerprint(r),
                Err(e) => {
                    return Some(Violation::new(
                        "pipeline-error",
                        format!("scratch pipeline rejected {threads} threads: {e}"),
                    ))
                }
            };
            if warm != cold {
                return Some(Violation::new(
                    "scratch-identity",
                    format!(
                        "{pass} scratch run diverged from the cold pipeline at {threads} \
                         threads: {} vs {} matched pairs (family {}, n = {})",
                        warm.0.len(),
                        cold.0.len(),
                        inst.family,
                        inst.n
                    ),
                ));
            }
        }
    }
    None
}

fn check_stream(
    inst: &CheckInstance,
    cfg: &CheckConfig,
    scratch: &mut PipelineScratch,
) -> Option<Violation> {
    let _ = cfg; // byte identity has no tunable bound
    let mut g: CsrGraph = inst.graph();
    let params = inst.params();
    // In-memory reference through the shared warm arena — the scratch
    // oracle already certifies this equals the cold path.
    let reference =
        match approx_mcm_via_sparsifier_with_scratch(&g, &params, inst.algo_seed, 1, scratch) {
            Ok(r) => pipeline_fingerprint(r),
            Err(e) => {
                return Some(Violation::new(
                    "pipeline-error",
                    format!("in-memory pipeline rejected: {e}"),
                ))
            }
        };
    let (n, m) = (g.num_vertices(), g.num_edges());
    let (streamed, report) = match approx_mcm_streamed(&mut g, &params, inst.algo_seed) {
        Ok(r) => r,
        Err(e) => {
            return Some(Violation::new(
                "stream-error",
                format!("streamed pipeline rejected its own CSR stream: {e}"),
            ))
        }
    };
    if pipeline_fingerprint(&streamed) != reference {
        return Some(Violation::new(
            "stream-identity",
            format!(
                "streamed pipeline diverged from the in-memory one: {} vs {} matched pairs \
                 (family {}, n = {})",
                streamed.matching.len(),
                reference.0.len(),
                inst.family,
                inst.n
            ),
        ));
    }
    // The report's own invariants: the sparsifier fits inside the peak,
    // and the stream side did exactly two passes.
    if report.sparsifier_bytes > report.peak_resident_bytes {
        return Some(Violation::new(
            "stream-accounting",
            format!(
                "sparsifier {} B exceeds the reported resident peak {} B",
                report.sparsifier_bytes, report.peak_resident_bytes
            ),
        ));
    }
    if report.edges_scanned != 4 * m as u64 || report.probes.degree_probes != 2 * n as u64 {
        return Some(Violation::new(
            "stream-accounting",
            format!(
                "stream-side work off contract: {} half-edge visits (want {}), {} degree \
                 probes (want {})",
                report.edges_scanned,
                4 * m,
                report.probes.degree_probes,
                2 * n
            ),
        ));
    }
    None
}

/// Scan attempts the chaos plan may fault before going clean; the retry
/// budget of `horizon + 1` attempts per pass then guarantees recovery
/// (attempts are burned globally and monotonically across both passes).
const CHAOS_HORIZON: u64 = 3;

/// The seeded I/O fault plan the chaos oracle stresses every instance
/// with — the streaming twin of the distsim oracle's `stress_plan`.
fn io_stress_plan(inst: &CheckInstance) -> IoFaultPlan {
    IoFaultPlan::new(
        inst.algo_seed ^ 0x10FA_175E,
        IoFaultRates {
            eio: 0.5,
            short_read: 0.4,
            torn_line: 0.4,
            header_mutation: 0.3,
        },
    )
    .with_horizon(CHAOS_HORIZON)
}

fn check_chaos_stream(inst: &CheckInstance, cfg: &CheckConfig) -> Option<Violation> {
    let _ = cfg; // byte identity has no tunable bound
    let params = inst.params();
    // Fault-free streamed baseline, from the instance's own CSR.
    let mut clean_src = inst.graph();
    let (clean, clean_report) = match approx_mcm_streamed(&mut clean_src, &params, inst.algo_seed) {
        Ok(r) => r,
        Err(e) => {
            return Some(Violation::new(
                "stream-error",
                format!("fault-free streamed pipeline rejected its own CSR stream: {e}"),
            ))
        }
    };

    // Recoverable chaos: a seeded plan bounded by CHAOS_HORIZON plus a
    // retry budget that covers it must converge to the identical result.
    let mut faulty = FaultyEdgeSource::new(inst.graph(), io_stress_plan(inst));
    let policy = RetryPolicy::attempts(CHAOS_HORIZON as u32 + 1);
    let (recovered, report) =
        match approx_mcm_streamed_with_retry(&mut faulty, &params, inst.algo_seed, &policy) {
            Ok(r) => r,
            Err(e) => {
                return Some(Violation::new(
                    "chaos-recovery",
                    format!("recoverable fault plan exhausted the retry budget: {e}"),
                ))
            }
        };
    if pipeline_fingerprint(&recovered) != pipeline_fingerprint(&clean) {
        return Some(Violation::new(
            "chaos-identity",
            format!(
                "retried streamed pipeline diverged from the fault-free run: {} vs {} matched \
                 pairs (family {}, n = {})",
                recovered.matching.len(),
                clean.matching.len(),
                inst.family,
                inst.n
            ),
        ));
    }
    // Every injected fault is one aborted rescan, and aborted scans only
    // ever add half-edge visits on top of the clean 4m.
    if report.io_retries != faulty.stats().total() {
        return Some(Violation::new(
            "chaos-accounting",
            format!(
                "io_retries {} != injected faults {}",
                report.io_retries,
                faulty.stats().total()
            ),
        ));
    }
    if report.edges_scanned < clean_report.edges_scanned {
        return Some(Violation::new(
            "chaos-accounting",
            format!(
                "retried run reports {} half-edge visits < fault-free {}",
                report.edges_scanned, clean_report.edges_scanned
            ),
        ));
    }

    // Unrecoverable chaos: every scan attempt faults, so the budget must
    // run out with a typed error — the failure mode is a report, not a
    // panic and not a quietly corrupted sparsifier.
    let hard = IoFaultPlan::new(
        inst.algo_seed ^ 0x00DE_AD10,
        IoFaultRates {
            eio: 1.0,
            ..IoFaultRates::default()
        },
    );
    let mut doomed = FaultyEdgeSource::new(inst.graph(), hard);
    match approx_mcm_streamed_with_retry(&mut doomed, &params, inst.algo_seed, &policy) {
        Err(StreamBuildError::RetriesExhausted { pass: 1, .. }) => None,
        Err(e) => Some(Violation::new(
            "chaos-typed-failure",
            format!("unrecoverable plan failed in the wrong place: {e}"),
        )),
        Ok(_) => Some(Violation::new(
            "chaos-typed-failure",
            "unrecoverable fault plan produced a result instead of a typed error".to_string(),
        )),
    }
}

/// The seed-derived EDCS parameters the backend oracle stresses: β swept
/// over `4..=32` and `λ = 2/β`, so `λβ = 2` keeps every draw inside
/// [`EdcsParams::new`]'s validity window while `β⁻ = β − 2` varies the
/// saturation floor across the sweep.
fn edcs_oracle_params(inst: &CheckInstance) -> EdcsParams {
    let beta = 4 + (inst.algo_seed % 29) as usize;
    EdcsParams::new(beta, 2.0 / beta as f64).expect("lambda * beta = 2 is always valid")
}

/// Does the config select this backend's sub-checks? `None` certifies
/// every backend; a filter runs only its own.
fn backend_selected(cfg: &CheckConfig, kind: BackendKind) -> bool {
    cfg.backend.is_none() || cfg.backend == Some(kind)
}

fn check_backend(
    inst: &CheckInstance,
    cfg: &CheckConfig,
    scratch: &mut PipelineScratch,
) -> Option<Violation> {
    if inst.family == DENSE_EDCS_FAMILY {
        // A dense clique union an earlier trial wrote out: its own edges
        // take the dense fixpoint checks alone, so a shrink can cut them.
        return backend_selected(cfg, BackendKind::Edcs)
            .then(|| check_dense_edcs(inst))
            .flatten();
    }
    let g: CsrGraph = inst.graph();
    let n = g.num_vertices();
    let exact = maximum_matching(&g).len();

    // Sub-check order is fixed — delta first, then EDCS — in both the
    // full rotation and filtered (`--backend`) modes, so a violation
    // found in a filtered sweep replays identically without the filter.
    if backend_selected(cfg, BackendKind::Delta) {
        let backend = DeltaBackend {
            params: inst.params(),
        };
        // The tentpole pin: the trait is a zero-behavior-change seam.
        for threads in SCRATCH_THREADS {
            let direct =
                match approx_mcm_via_sparsifier(&g, &backend.params, inst.algo_seed, threads) {
                    Ok(r) => pipeline_fingerprint(&r),
                    Err(e) => {
                        return Some(Violation::new(
                            "pipeline-error",
                            format!("direct pipeline rejected {threads} threads: {e}"),
                        ))
                    }
                };
            let traited = match backend.solve(&g, inst.algo_seed, threads, scratch) {
                Ok(r) => pipeline_fingerprint(r),
                Err(e) => {
                    return Some(Violation::new(
                        "pipeline-error",
                        format!("delta backend rejected {threads} threads: {e}"),
                    ))
                }
            };
            if traited != direct {
                return Some(Violation::new(
                    "backend-delta-fingerprint",
                    format!(
                        "delta backend diverged from the direct pipeline at {threads} threads: \
                         {} vs {} matched pairs (family {}, n = {n})",
                        traited.0.len(),
                        direct.0.len(),
                        inst.family
                    ),
                ));
            }
        }
        if let Some(v) = certify_claims(&backend, &g, inst, exact) {
            return Some(v);
        }
    }

    if backend_selected(cfg, BackendKind::Edcs) {
        let backend = EdcsBackend {
            params: edcs_oracle_params(inst),
            eps: inst.eps,
        };
        if let Some(v) = check_edcs_fixpoint(&g, &backend, &inst.family) {
            return Some(v);
        }
        if let Some(v) = certify_claims(&backend, &g, inst, exact) {
            return Some(v);
        }
        // The drawn instances are too small and their β too large for the
        // fixpoint's open-vertex tree, so each seed also checks the
        // fixpoint on a dense graph that takes it, and names that graph
        // as the witness of a violation there.
        let dense = dense_edcs_instance(inst);
        if let Some(v) = check_dense_edcs(&dense) {
            return Some(Violation {
                witness: Some(dense),
                ..v
            });
        }
    }
    None
}

/// The family name of the backend oracle's dense clique unions, which
/// the seeded generator never draws.
const DENSE_EDCS_FAMILY: &str = "dense clique-union";

/// The EDCS fixpoint's checks at [`dense_edcs_params`] on `inst`'s own
/// graph.
fn check_dense_edcs(inst: &CheckInstance) -> Option<Violation> {
    let dense = EdcsBackend {
        params: dense_edcs_params(),
        eps: inst.eps,
    };
    check_edcs_fixpoint(&inst.graph(), &dense, &inst.family)
}

/// The EDCS fixpoint's own sub-checks on `g`: the in-memory build's
/// local invariants, H ⊆ G and Properties A and B, checked directly
/// rather than trusted from stats, and its identity with the out-of-core
/// build.
fn check_edcs_fixpoint(g: &CsrGraph, backend: &EdcsBackend, family: &str) -> Option<Violation> {
    let n = g.num_vertices();
    let (h, _) = build_edcs(g, &backend.params);
    if let Some(msg) = edcs_violation(g, &h, &backend.params) {
        return Some(Violation::new(
            "edcs-invariant",
            format!(
                "{msg} (family {family}, n = {n}, {})",
                backend.params_summary()
            ),
        ));
    }
    let mut src = g.clone();
    match build_edcs_streamed(&mut src, &backend.params) {
        Ok((h_streamed, ..)) => {
            let (mem, streamed) = (h.endpoint_pairs(), h_streamed.endpoint_pairs());
            let ((u, v), in_mem) = first_unshared_edge(mem, streamed)?;
            Some(Violation::new(
                "edcs-stream-identity",
                format!(
                    "streamed EDCS build diverged from in-memory: edge ({u}, {v}) is only \
                     in the {} build; {} vs {} edges (family {family}, n = {n})",
                    if in_mem { "in-memory" } else { "streamed" },
                    streamed.len(),
                    mem.len(),
                ),
            ))
        }
        Err(e) => Some(Violation::new(
            "stream-error",
            format!("streamed EDCS build rejected its own CSR stream: {e}"),
        )),
    }
}

/// The first edge, in lex order, that exactly one of the lex-sorted,
/// distinct edge lists `a` and `b` holds, and whether `a` is the one.
/// Past their common prefix, the smaller of the two next edges is in its
/// own list only: the other list's remaining edges are all larger.
fn first_unshared_edge(a: &[(u32, u32)], b: &[(u32, u32)]) -> Option<((u32, u32), bool)> {
    let common = a.iter().zip(b).take_while(|(x, y)| x == y).count();
    match (a.get(common), b.get(common)) {
        (Some(&x), Some(&y)) => Some(if x < y { (x, true) } else { (y, false) }),
        (Some(&x), None) => Some((x, true)),
        (None, Some(&y)) => Some((y, false)),
        (None, None) => None,
    }
}

/// The EDCS parameters of the backend oracle's dense graph: β = 3 and
/// λ = 1/2, so β⁻ = 2, the lowest floor at which the fixpoint both
/// inserts and removes edges.
fn dense_edcs_params() -> EdcsParams {
    EdcsParams::new(3, 0.5).expect("lambda * beta = 1.5 is valid")
}

/// A dense clique union drawn from `inst`'s algorithm seed, on which the
/// in-memory EDCS fixpoint at [`dense_edcs_params`] keeps its open-vertex
/// tree: n in 120..=150 and two layers of cliques of n/4 vertices give an
/// average degree near 7n/16, above the `2·β·⌈log₂ n⌉ ≤ 48` the tree
/// needs. (Against a fixpoint that skips past a stale `z`, cliques of n/2
/// vertices failed on 3 of 400 seeds and these on 10.) The seed's own
/// draw is unchanged. It is an instance of its own, with explicit edges,
/// family [`DENSE_EDCS_FAMILY`], β = 2 (two clique layers), and `inst`'s
/// ε, Δ and algorithm seed, so a violation on it shrinks and replays.
fn dense_edcs_instance(inst: &CheckInstance) -> CheckInstance {
    let mut rng = StdRng::seed_from_u64(inst.algo_seed ^ 0xDE5E_EDC5);
    let n = rng.random_range(120..=150);
    let g = clique_union(
        CliqueUnionConfig {
            n,
            diversity: 2,
            clique_size: n / 4,
        },
        &mut rng,
    );
    CheckInstance {
        family: DENSE_EDCS_FAMILY.to_string(),
        n: g.num_vertices(),
        beta: 2,
        eps: inst.eps,
        delta: inst.delta,
        algo_seed: inst.algo_seed,
        edges: g.endpoint_pairs().to_vec(),
        updates: Vec::new(),
    }
}

/// The backend-generic half of the oracle: whatever a backend *claims*
/// (size bound, approximation ratio), certify against ground truth. A
/// backend overstating its own theory is a shrinkable counterexample.
fn certify_claims(
    backend: &dyn MatchingSparsifier,
    g: &CsrGraph,
    inst: &CheckInstance,
    exact: usize,
) -> Option<Violation> {
    let n = g.num_vertices();
    let h = backend.build(g, inst.algo_seed);
    if h.num_edges() > backend.claimed_size_bound(n) {
        return Some(Violation::new(
            "backend-size",
            format!(
                "{} backend built {} edges > its claimed bound {} (family {}, n = {n}, {})",
                backend.name(),
                h.num_edges(),
                backend.claimed_size_bound(n),
                inst.family,
                backend.params_summary()
            ),
        ));
    }
    let mut fresh = PipelineScratch::new();
    let r = match backend.solve(g, inst.algo_seed, 1, &mut fresh) {
        Ok(r) => r,
        Err(e) => {
            return Some(Violation::new(
                "pipeline-error",
                format!("{} backend rejected 1 thread: {e}", backend.name()),
            ))
        }
    };
    if !r.matching.is_valid_for(g) {
        return Some(Violation::new(
            "backend-validity",
            format!(
                "{} backend output is not a valid matching of the input graph",
                backend.name()
            ),
        ));
    }
    let ratio = backend.claimed_ratio();
    if exact as f64 > ratio * r.matching.len() as f64 + BACKEND_ABS_SLACK + FLOAT_FUDGE {
        return Some(Violation::new(
            "backend-ratio",
            format!(
                "exact MCM {exact} > claimed {ratio:.4} x {} backend matching {} + \
                 {BACKEND_ABS_SLACK} (family {}, n = {n}, {})",
                backend.name(),
                r.matching.len(),
                inst.family,
                backend.params_summary()
            ),
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Scenario;

    #[test]
    fn default_params_pass_a_seed_sample() {
        let cfg = CheckConfig::default();
        for seed in 0..9 {
            let s = Scenario::generate(seed, &cfg);
            assert_eq!(
                s.oracle.check(&s.instance, &cfg),
                None,
                "seed {seed} ({})",
                s.instance.family
            );
        }
    }

    #[test]
    fn checks_are_deterministic() {
        let cfg = CheckConfig {
            bound_eps: Some(0.05),
            delta: Some(1),
            backend: None,
            oracle: None,
        };
        for seed in 0..6 {
            let s = Scenario::generate(seed, &cfg);
            let a = s.oracle.check(&s.instance, &cfg);
            let b = s.oracle.check(&s.instance, &cfg);
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn oracle_names_roundtrip() {
        for kind in [
            OracleKind::Static,
            OracleKind::Dynamic,
            OracleKind::Distsim,
            OracleKind::Scratch,
            OracleKind::Stream,
            OracleKind::ChaosStream,
            OracleKind::Backend,
        ] {
            assert_eq!(OracleKind::from_name(kind.name()).unwrap(), kind);
        }
        assert!(OracleKind::from_name("quantum").is_err());
    }

    #[test]
    fn backend_oracle_passes_default_params_and_filters_agree() {
        // The full backend oracle passes on a seed sample, and a
        // violation-free verdict is unchanged by per-backend filters
        // (delta sub-checks run before EDCS sub-checks in both modes).
        let full = CheckConfig::default();
        let mut scratch = PipelineScratch::new();
        for seed in [6u64, 13, 20, 27] {
            let s = Scenario::generate(seed, &full);
            assert_eq!(s.oracle, OracleKind::Backend, "seed {seed}");
            assert_eq!(
                s.oracle
                    .check_with_scratch(&s.instance, &full, &mut scratch),
                None,
                "seed {seed} ({})",
                s.instance.family
            );
            for kind in sparsimatch_core::backend::BackendKind::ALL {
                let filtered = CheckConfig {
                    backend: Some(kind),
                    ..full
                };
                assert_eq!(
                    OracleKind::Backend.check_with_scratch(&s.instance, &filtered, &mut scratch),
                    None,
                    "seed {seed} filtered to {kind}"
                );
            }
        }
    }

    #[test]
    fn dense_edcs_graph_reaches_the_open_vertex_tree() {
        // The metered solve evaluates fewer than `passes × m` edges only
        // when the fixpoint keeps the tree and skips past `z`.
        let cfg = CheckConfig::default();
        let mut scratch = PipelineScratch::new();
        for seed in (6u64..300).step_by(7) {
            let s = Scenario::generate(seed, &cfg);
            assert_eq!(s.oracle, OracleKind::Backend, "seed {seed}");
            let g = dense_edcs_instance(&s.instance).graph();
            let (n, m) = (g.num_vertices(), g.num_edges() as u64);
            assert!((120..=150).contains(&n), "seed {seed}: n = {n}");
            let backend = EdcsBackend {
                params: dense_edcs_params(),
                eps: s.instance.eps,
            };
            let mut meter = sparsimatch_obs::WorkMeter::new();
            backend
                .solve_metered(&g, s.instance.algo_seed, 1, &mut meter, &mut scratch)
                .expect("one thread is valid");
            let passes = meter.get(sparsimatch_obs::keys::EDCS_PASSES);
            let evaluated = meter.get(sparsimatch_obs::keys::EDCS_EDGE_EVALUATIONS);
            assert!(passes >= 2, "seed {seed}: {passes} passes");
            assert!(
                evaluated < passes * m,
                "seed {seed}: n = {n}, m = {m}: {evaluated} of {passes} x {m} edges evaluated"
            );
            assert_eq!(
                check_edcs_fixpoint(&g, &backend, "dense"),
                None,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn backend_checks_run_on_each_familys_own_graph() {
        // A drawn instance's checks run on its own graph, then on the
        // dense clique union drawn from its seed, which is an instance of
        // its own; a dense instance's checks run on its edges alone.
        let cfg = CheckConfig::default();
        let mut scratch = PipelineScratch::new();
        let mut families = std::collections::BTreeSet::new();
        for seed in (6u64..400).step_by(7) {
            let s = Scenario::generate(seed, &cfg);
            let family = s.instance.family.split(':').next().unwrap().to_string();
            if !families.insert(family) {
                continue;
            }
            let dense = dense_edcs_instance(&s.instance);
            assert_eq!(dense.family, DENSE_EDCS_FAMILY, "seed {seed}");
            assert_eq!(dense.algo_seed, s.instance.algo_seed, "seed {seed}");
            assert_eq!(dense.eps, s.instance.eps, "seed {seed}");
            assert!(dense.updates.is_empty(), "seed {seed}");
            // The union the seed draws, written out edge for edge.
            let mut rng = StdRng::seed_from_u64(s.instance.algo_seed ^ 0xDE5E_EDC5);
            let n = rng.random_range(120..=150);
            let config = CliqueUnionConfig {
                n,
                diversity: 2,
                clique_size: n / 4,
            };
            assert_eq!(dense.graph(), clique_union(config, &mut rng), "seed {seed}");
            // Only its own edges: a cut instance keeps its cut, and one
            // whose edge leaves its vertex set fails to build its graph.
            let cut = CheckInstance {
                edges: dense.edges[..dense.edges.len() / 3].to_vec(),
                ..dense.clone()
            };
            assert_eq!(
                OracleKind::Backend.check_with_scratch(&cut, &cfg, &mut scratch),
                None
            );
            let outside = CheckInstance {
                edges: vec![(0, dense.n as u32)],
                ..dense
            };
            let v = OracleKind::Backend.check_with_scratch(&outside, &cfg, &mut scratch);
            assert_eq!(
                v.map(|v| v.check),
                Some(PANIC_CHECK.to_string()),
                "seed {seed}"
            );
        }
        assert!(families.len() >= 7, "families drawn: {families:?}");
    }

    #[test]
    fn first_unshared_edge_names_the_lex_first_difference_and_its_side() {
        let a = [(0, 1), (0, 3), (2, 3)];
        assert_eq!(first_unshared_edge(&a, &a), None);
        // Equal edge counts, as in a "65 vs 65 edges" divergence.
        let b = [(0, 1), (1, 2), (2, 3)];
        assert_eq!(first_unshared_edge(&a, &b), Some(((0, 3), true)));
        assert_eq!(first_unshared_edge(&b, &a), Some(((0, 3), false)));
        let c = [(0, 1), (0, 2), (0, 3), (2, 3)];
        assert_eq!(first_unshared_edge(&a, &c), Some(((0, 2), false)));
        assert_eq!(first_unshared_edge(&a[..2], &a), Some(((2, 3), false)));
        assert_eq!(first_unshared_edge(&a, &[]), Some(((0, 1), true)));
    }

    #[test]
    fn panicking_oracle_body_becomes_a_panic_violation() {
        assert_eq!(catch_panic(|| None), None);
        let verdict = Some(Violation::new("stub", "kept".to_string()));
        assert_eq!(catch_panic(|| verdict.clone()), verdict);
        let caught = catch_panic(|| panic!("static payload"));
        assert_eq!(
            caught,
            Some(Violation::new(PANIC_CHECK, "static payload".to_string()))
        );
        let index = 7;
        let caught = catch_panic(|| panic!("formatted payload {index}"));
        assert_eq!(caught.unwrap().message, "formatted payload 7");
        let caught = catch_panic(|| std::panic::panic_any(42u8));
        assert_eq!(caught.unwrap().check, PANIC_CHECK);
    }

    #[test]
    fn an_oracle_that_panics_returns_a_violation() {
        // An endpoint past `n` panics in the graph builder; the guard
        // turns it into a verdict, the same on every call.
        let inst = crate::instance::CheckInstance {
            family: "clique".to_string(),
            n: 4,
            beta: 1,
            eps: 0.4,
            delta: None,
            algo_seed: 1,
            edges: vec![(0, 1), (0, 9)],
            updates: Vec::new(),
        };
        let cfg = CheckConfig::default();
        let v = OracleKind::Static.check(&inst, &cfg).expect("panic caught");
        assert_eq!(v.check, PANIC_CHECK);
        assert!(v.message.contains("out of range"), "{}", v.message);
        assert_eq!(OracleKind::Static.check(&inst, &cfg), Some(v));
    }

    #[test]
    fn shared_scratch_sweep_matches_fresh_checks() {
        // A sweep through one shared arena must reach the same verdicts
        // as fresh-arena checks seed by seed (the replay/shrink path uses
        // the latter, so they must agree for reproducers to be sound).
        let cfg = CheckConfig::default();
        let mut scratch = PipelineScratch::new();
        for seed in 0..8 {
            let s = Scenario::generate(seed, &cfg);
            let fresh = s.oracle.check(&s.instance, &cfg);
            let shared = s.oracle.check_with_scratch(&s.instance, &cfg, &mut scratch);
            assert_eq!(fresh, shared, "seed {seed} ({})", s.instance.family);
        }
    }
}
