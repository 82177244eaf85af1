//! Chaos suite: every distributed algorithm under adversarial fault plans.
//!
//! The contract being pinned (ISSUE 3 / DESIGN.md §7): under *any* fault
//! schedule the algorithms terminate and return structurally sound objects
//! — matchings valid for the input graph, colorings inside their declared
//! palette — with identical results for identical `(seed, plan)` pairs, at
//! every worker count. Under a plan whose faults never fire, the faulty
//! exchange loop is byte-identical to the perfect one. Under a
//! permanent-crash plan (live↔live delivery is perfect), the stronger
//! promises return on the surviving subgraph: proper colorings and
//! maximal matchings among live nodes.
//!
//! Three standing plan shapes, as the acceptance criteria require:
//! drop-only, drop+dup+reorder, and a crash schedule.

use sparsimatch_core::params::SparsifierParams;
use sparsimatch_distsim::algorithms::coloring::{linial_coloring, validate_coloring, Coloring};
use sparsimatch_distsim::algorithms::israeli_itai::israeli_itai_matching;
use sparsimatch_distsim::algorithms::matching::{bounded_degree_matching, color_scheduled_mm};
use sparsimatch_distsim::algorithms::solomon::distributed_solomon;
use sparsimatch_distsim::algorithms::sparsify::distributed_sparsifier;
use sparsimatch_distsim::{FaultPlan, FaultRates, FaultStats, Network, ResilienceParams};
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::generators::{clique, cycle, gnp, path};
use sparsimatch_graph::ids::VertexId;
use sparsimatch_matching::Matching;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Drop-only: 30% of messages vanish during the first 40 rounds.
fn drop_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(
        seed,
        FaultRates {
            drop: 0.3,
            ..Default::default()
        },
    )
    .with_horizon(40)
}

/// The kitchen sink: drops, duplicates, and reorders together.
fn mixed_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(
        seed,
        FaultRates {
            drop: 0.25,
            duplicate: 0.25,
            reorder: 0.5,
            ..Default::default()
        },
    )
    .with_horizon(60)
}

/// Crash schedule: nodes flap in 4-round windows for the first 48 rounds.
fn crash_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(
        seed,
        FaultRates {
            crash: 0.15,
            ..Default::default()
        },
    )
    .with_crash_period(4)
    .with_horizon(48)
}

/// Every rate positive, so exchanges take the faulty loop, but a zero
/// horizon: no fault ever fires.
fn silent_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(
        seed,
        FaultRates {
            drop: 0.5,
            duplicate: 0.5,
            reorder: 0.5,
            crash: 0.5,
        },
    )
    .with_horizon(0)
}

fn standing_plans(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("drop", drop_plan(seed)),
        ("mixed", mixed_plan(seed)),
        ("crash", crash_plan(seed)),
    ]
}

/// A network under `plan` with resilience off.
fn faulty(g: &CsrGraph, plan: FaultPlan) -> Network<'_> {
    Network::with_resilience(g, plan, ResilienceParams::off())
}

fn pairs_of(m: &Matching) -> Vec<(u32, u32)> {
    m.pairs().map(|(u, v)| (u.0, v.0)).collect()
}

fn edge_list(g: &CsrGraph) -> Vec<(u32, u32)> {
    g.edges().map(|(_, u, v)| (u.0, v.0)).collect()
}

fn test_graph(seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    gnp(90, 0.06, &mut rng)
}

#[test]
fn israeli_itai_stays_valid_and_deterministic_under_every_plan() {
    let g = test_graph(1);
    for (name, plan) in standing_plans(17) {
        let run = |alg_seed: u64| {
            let mut net = faulty(&g, plan.clone());
            let (m, iters) = israeli_itai_matching(&mut net, alg_seed);
            (pairs_of(&m), iters, net.metrics(), net.fault_stats())
        };
        let (p1, it1, me1, f1) = run(5);
        let (p2, it2, me2, f2) = run(5);
        assert_eq!(p1, p2, "{name}: same (seed, plan) must replay exactly");
        assert_eq!((it1, me1, f1), (it2, me2, f2), "{name}: metrics replay");
        // Validity re-checked from the raw pairs against the graph.
        let mut m = Matching::new(g.num_vertices());
        for &(u, v) in &p1 {
            assert!(
                m.add_pair(VertexId(u), VertexId(v)),
                "{name}: pair ({u},{v}) conflicts — matching invalid"
            );
        }
        assert!(m.is_valid_for(&g), "{name}");
        // A different algorithm seed under the same plan should not crash
        // either (smoke the decision-space a little wider).
        let (p3, ..) = run(6);
        let mut m3 = Matching::new(g.num_vertices());
        for &(u, v) in &p3 {
            assert!(m3.add_pair(VertexId(u), VertexId(v)), "{name}");
        }
        assert!(m3.is_valid_for(&g), "{name}");
    }
}

#[test]
fn coloring_stays_in_palette_and_deterministic_under_every_plan() {
    let g = test_graph(2);
    let target = g.max_degree() as u64 + 1;
    for (name, plan) in standing_plans(23) {
        let run = || {
            let mut net = faulty(&g, plan.clone());
            let c = linial_coloring(&mut net, target.max(2));
            (c, net.metrics())
        };
        let (c1, me1) = run();
        let (c2, me2) = run();
        assert_eq!(c1.colors, c2.colors, "{name}: coloring must replay");
        assert_eq!(me1, me2, "{name}");
        // Palette discipline survives arbitrary faults (properness does
        // not — it needs lossless or live↔live-perfect delivery).
        assert!(
            c1.colors.iter().all(|&x| x < c1.num_colors),
            "{name}: color outside declared palette"
        );
        assert_eq!(c1.colors.len(), g.num_vertices(), "{name}");
    }
}

#[test]
fn color_scheduled_mm_stays_valid_under_every_plan() {
    let g = test_graph(3);
    let target = (g.max_degree() as u64 + 1).max(2);
    for (name, plan) in standing_plans(29) {
        let run = || {
            let mut net = faulty(&g, plan.clone());
            let coloring = linial_coloring(&mut net, target);
            let m = color_scheduled_mm(&mut net, &coloring);
            (pairs_of(&m), net.metrics(), net.fault_stats())
        };
        let (p1, me1, f1) = run();
        let (p2, me2, f2) = run();
        assert_eq!(p1, p2, "{name}");
        assert_eq!((me1, f1), (me2, f2), "{name}");
        let mut m = Matching::new(g.num_vertices());
        for &(u, v) in &p1 {
            assert!(m.add_pair(VertexId(u), VertexId(v)), "{name}");
        }
        assert!(m.is_valid_for(&g), "{name}");
    }
}

#[test]
fn sparsifiers_shrink_but_never_invent_edges_under_faults() {
    let g = clique(60);
    let params = SparsifierParams::with_delta(1, 0.5, 4);
    // Fault-free reference runs.
    let mut net0 = Network::new(&g);
    let full_sparsifier = edge_list(&distributed_sparsifier(&mut net0, &params, 9));
    let mut net0b = Network::new(&g);
    let full_solomon = edge_list(&distributed_solomon(&mut net0b, 5));

    for (name, plan) in standing_plans(31) {
        let mut net = faulty(&g, plan.clone());
        let s = distributed_sparsifier(&mut net, &params, 9);
        // Dropped marks only remove edges; duplicated marks are idempotent
        // in the keep-set union. So faulty ⊆ fault-free, always.
        for e in edge_list(&s) {
            assert!(
                full_sparsifier.contains(&e),
                "{name}: sparsifier invented edge {e:?}"
            );
        }
        // Determinism.
        let mut net2 = faulty(&g, plan.clone());
        let s2 = distributed_sparsifier(&mut net2, &params, 9);
        assert_eq!(edge_list(&s), edge_list(&s2), "{name}");

        let mut net3 = faulty(&g, plan.clone());
        let sol = distributed_solomon(&mut net3, 5);
        assert!(sol.max_degree() <= 5, "{name}: degree cap must hold");
        for e in edge_list(&sol) {
            assert!(
                full_solomon.contains(&e),
                "{name}: solomon invented edge {e:?}"
            );
        }
    }
}

#[test]
fn bounded_degree_matching_stays_valid_under_every_plan() {
    // Low-degree input keeps the augmentation balls (and the runtime)
    // small while still exercising gather + conflict resolution.
    let g = cycle(48);
    for (name, plan) in standing_plans(37) {
        let run = || {
            let mut net = faulty(&g, plan.clone());
            let (m, _) = bounded_degree_matching(&mut net, 0.34);
            (pairs_of(&m), net.metrics(), net.fault_stats())
        };
        let (p1, me1, f1) = run();
        let (p2, me2, f2) = run();
        assert_eq!(p1, p2, "{name}");
        assert_eq!((me1, f1), (me2, f2), "{name}");
        let mut m = Matching::new(g.num_vertices());
        for &(u, v) in &p1 {
            assert!(m.add_pair(VertexId(u), VertexId(v)), "{name}");
        }
        assert!(m.is_valid_for(&g), "{name}");
    }
}

#[test]
fn permanent_crashes_preserve_guarantees_on_survivors() {
    // Under a permanent-crash-only plan, live↔live delivery is perfect, so
    // the strong promises hold restricted to survivors: the coloring is
    // proper on live-live edges and the matchings are maximal in the
    // live-induced subgraph.
    let g = test_graph(4);
    let dead: Vec<u32> = vec![3, 11, 26, 40, 77];
    let plan = FaultPlan::none().with_crashed_nodes(dead.iter().copied());
    let is_dead = |v: u32| dead.binary_search(&v).is_ok();

    let mut net = faulty(&g, plan.clone());
    let (m, _) = israeli_itai_matching(&mut net, 13);
    assert!(m.is_valid_for(&g));
    for &d in &dead {
        assert!(!m.is_matched(VertexId(d)), "crashed node {d} matched");
    }
    for (_, u, v) in g.edges() {
        if is_dead(u.0) || is_dead(v.0) {
            continue;
        }
        assert!(
            m.is_matched(u) || m.is_matched(v),
            "live-live edge ({},{}) unmatched on both ends",
            u.0,
            v.0
        );
    }

    // Deterministic schedule: coloring proper on survivors, then the
    // color-scheduled matcher maximal on survivors.
    let mut net2 = faulty(&g, plan.clone());
    let target = (g.max_degree() as u64 + 1).max(2);
    let coloring: Coloring = linial_coloring(&mut net2, target);
    for (_, u, v) in g.edges() {
        if is_dead(u.0) || is_dead(v.0) {
            continue;
        }
        assert_ne!(
            coloring.colors[u.index()],
            coloring.colors[v.index()],
            "live-live edge ({},{}) monochromatic",
            u.0,
            v.0
        );
    }
    let mm = color_scheduled_mm(&mut net2, &coloring);
    assert!(mm.is_valid_for(&g));
    for (_, u, v) in g.edges() {
        if is_dead(u.0) || is_dead(v.0) {
            continue;
        }
        assert!(mm.is_matched(u) || mm.is_matched(v));
    }
    // Crash accounting saw every dead node in every physical round.
    let rounds = net2.metrics().rounds;
    assert_eq!(
        net2.fault_stats().crashed_rounds,
        rounds * dead.len() as u64
    );
}

#[test]
fn zero_fault_transport_is_byte_identical_on_full_algorithms() {
    // The whole deterministic stack — coloring, MM, augmentation — run on
    // the perfect loop and on the faulty loop under a plan that never
    // fires must agree in outputs AND in every accounted quantity
    // (congest accounting unchanged), at every worker count.
    let g = test_graph(5);
    let g2 = path(33);
    for threads in [1usize, 2, 4] {
        let mut perfect = Network::new(&g).with_threads(threads);
        let (m_p, stats_p) = bounded_degree_matching(&mut perfect, 0.34);

        let mut silent = faulty(&g, silent_plan(3)).with_threads(threads);
        let (m_f, stats_f) = bounded_degree_matching(&mut silent, 0.34);

        assert_eq!(pairs_of(&m_p), pairs_of(&m_f), "t = {threads}");
        assert_eq!(
            (stats_p.blocks, stats_p.flips),
            (stats_f.blocks, stats_f.flips),
            "t = {threads}"
        );
        assert_eq!(perfect.metrics(), silent.metrics(), "t = {threads}");
        assert_eq!(silent.fault_stats(), FaultStats::default(), "t = {threads}");
        for c in [1u64, 8, 64] {
            assert_eq!(
                perfect.metrics().congest_compliant(g.num_vertices(), c),
                silent.metrics().congest_compliant(g.num_vertices(), c),
                "congest verdict must not depend on the exchange loop (c = {c})"
            );
        }

        // Randomized algorithm too: per-node RNG streams are independent
        // of the loop, so the runs coincide exactly.
        let mut perfect2 = Network::new(&g2).with_threads(threads);
        let (m_p2, it_p) = israeli_itai_matching(&mut perfect2, 99);
        let mut silent2 = faulty(&g2, silent_plan(4)).with_threads(threads);
        let (m_f2, it_f) = israeli_itai_matching(&mut silent2, 99);
        assert_eq!(pairs_of(&m_p2), pairs_of(&m_f2), "t = {threads}");
        assert_eq!(it_p, it_f, "t = {threads}");
        assert_eq!(perfect2.metrics(), silent2.metrics(), "t = {threads}");
        assert_eq!(
            silent2.fault_stats(),
            FaultStats::default(),
            "t = {threads}"
        );
    }
}

type Algo = Box<dyn Fn(&mut Network<'_>) -> Vec<(u32, u32)>>;

/// Every algorithm, under every standing fault plan, at t ∈ {2, 4}: the
/// replay fingerprint — outputs, metrics, and fault counters — must equal
/// the one-worker run.
#[test]
fn sharded_engine_replays_every_algorithm_under_every_standing_plan() {
    let g = test_graph(6);
    let target = (g.max_degree() as u64 + 1).max(2);
    let params = SparsifierParams::with_delta(1, 0.5, 4);

    for (name, plan) in standing_plans(41) {
        let run = |threads: usize, f: &dyn Fn(&mut Network<'_>) -> Vec<(u32, u32)>| {
            let mut net = faulty(&g, plan.clone()).with_threads(threads);
            let out = f(&mut net);
            (out, net.metrics(), net.fault_stats())
        };

        let algorithms: Vec<(&str, Algo)> = vec![
            (
                "israeli-itai",
                Box::new(|net| pairs_of(&israeli_itai_matching(net, 7).0)),
            ),
            (
                "linial-coloring",
                Box::new(move |net| {
                    let c = linial_coloring(net, target);
                    c.colors.iter().map(|&x| (x as u32, 0)).collect()
                }),
            ),
            (
                "color-scheduled-mm",
                Box::new(move |net| {
                    let c = linial_coloring(net, target);
                    pairs_of(&color_scheduled_mm(net, &c))
                }),
            ),
            (
                "sparsifier+solomon",
                Box::new(move |net| {
                    let mut out = edge_list(&distributed_sparsifier(net, &params, 9));
                    out.extend(edge_list(&distributed_solomon(net, 5)));
                    out
                }),
            ),
            (
                "bounded-degree-matching",
                Box::new(|net| pairs_of(&bounded_degree_matching(net, 0.34).0)),
            ),
        ];

        for (alg, f) in &algorithms {
            let reference = run(1, f.as_ref());
            for threads in [2usize, 4] {
                let got = run(threads, f.as_ref());
                assert_eq!(
                    got, reference,
                    "{name}/{alg}: t={threads} fingerprint diverged from one worker"
                );
            }
        }
    }
}

#[test]
fn validate_coloring_accepts_faulty_net_reference() {
    // A network whose plan never fires validates the same coloring the
    // perfect network produced.
    let g = cycle(30);
    let mut perfect = Network::new(&g);
    let c = linial_coloring(&mut perfect, 3);
    let silent = faulty(&g, silent_plan(5));
    assert!(validate_coloring(&silent, &c));
}
