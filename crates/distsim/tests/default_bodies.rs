//! `Net`'s provided flat-round methods against `Network`'s engine.
//!
//! `Net::route` and `Net::broadcast_into` have provided bodies that go
//! through `Net::exchange`; `Network` overrides both. A wrapper that
//! delegates to a `Network` and implements only the required methods
//! (plus `lossless`, as a timing wrapper does) therefore runs every
//! algorithm through the provided bodies. Its runs must equal the bare
//! network's: output, every `Metrics` field and every `FaultStats` field.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_distsim::algorithms::coloring::linial_coloring;
use sparsimatch_distsim::algorithms::israeli_itai::israeli_itai_matching;
use sparsimatch_distsim::algorithms::matching::{bounded_degree_matching, color_scheduled_mm};
use sparsimatch_distsim::algorithms::solomon::distributed_solomon;
use sparsimatch_distsim::algorithms::sparsify::{
    distributed_sparsifier, distributed_sparsifier_broadcast,
};
use sparsimatch_distsim::network::{Incoming, Outgoing};
use sparsimatch_distsim::{
    FaultPlan, FaultRates, FaultStats, Metrics, Net, Network, ResilienceParams,
};
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::generators::{clique_union, power_law, CliqueUnionConfig};
use sparsimatch_graph::ids::VertexId;
use sparsimatch_matching::Matching;

/// Delegates the required methods (and `lossless`) to a [`Network`], so
/// rounds run through `Net`'s provided `route` and `broadcast_into`.
struct Delegating<'g>(Network<'g>);

impl<'g> Net<'g> for Delegating<'g> {
    fn graph(&self) -> &'g CsrGraph {
        Net::graph(&self.0)
    }

    fn metrics(&self) -> Metrics {
        Net::metrics(&self.0)
    }

    fn exchange<M: Clone + Send>(
        &mut self,
        outboxes: Vec<Vec<Outgoing<M>>>,
    ) -> Vec<Vec<Incoming<M>>> {
        self.0.exchange(outboxes)
    }

    fn charge_gather(&mut self, radius: usize, bits_per_message: u64) {
        self.0.charge_gather(radius, bits_per_message)
    }

    fn record_clones(&mut self, count: u64) {
        self.0.record_clones(count)
    }

    fn ball(&self, v: VertexId, radius: usize) -> Vec<VertexId> {
        self.0.ball(v, radius)
    }

    fn lossless(&self) -> bool {
        self.0.lossless()
    }
}

fn pair_words(m: &Matching) -> Vec<u64> {
    m.pairs()
        .flat_map(|(u, v)| [u.0, v.0].map(u64::from))
        .collect()
}

fn edge_words(g: &CsrGraph) -> Vec<u64> {
    g.edges()
        .flat_map(|(_, u, v)| [u.0, v.0].map(u64::from))
        .collect()
}

/// The five algorithms of the chaos suite, plus the broadcast sparsifier,
/// whose payloads are borrowed slices rather than `Copy` values.
const ALGOS: [&str; 6] = [
    "israeli-itai",
    "linial-coloring",
    "color-scheduled-mm",
    "sparsifier+solomon",
    "bounded-degree-mm",
    "broadcast-sparsifier",
];

/// Run the named algorithm on `net` and flatten its output into words.
fn run_algo<'g>(algo: &str, net: &mut impl Net<'g>) -> Vec<u64> {
    let target = (net.graph().max_degree() as u64 + 1).max(2);
    let params = SparsifierParams::with_delta(1, 0.5, 4);
    match algo {
        "israeli-itai" => {
            let (m, iterations) = israeli_itai_matching(net, 7);
            let mut out = pair_words(&m);
            out.push(iterations);
            out
        }
        "linial-coloring" => {
            let c = linial_coloring(net, target);
            let mut out = c.colors;
            out.push(c.num_colors);
            out
        }
        "color-scheduled-mm" => {
            let c = linial_coloring(net, target);
            pair_words(&color_scheduled_mm(net, &c))
        }
        "sparsifier+solomon" => {
            let mut out = edge_words(&distributed_sparsifier(net, &params, 9));
            out.extend(edge_words(&distributed_solomon(net, 5)));
            out
        }
        "bounded-degree-mm" => {
            let (m, stats) = bounded_degree_matching(net, 0.34);
            let mut out = pair_words(&m);
            out.extend([stats.blocks, stats.flips]);
            out
        }
        "broadcast-sparsifier" => edge_words(&distributed_sparsifier_broadcast(net, &params, 9)),
        _ => unreachable!("unknown algorithm {algo}"),
    }
}

/// No plan, the `mixed` plan with `retry(2)`, and the `crash` plan.
fn settings() -> Vec<(&'static str, Option<(FaultPlan, ResilienceParams)>)> {
    let rates = |drop, duplicate, reorder, crash| FaultRates {
        drop,
        duplicate,
        reorder,
        crash,
    };
    vec![
        ("none", None),
        (
            "mixed/retry2",
            Some((
                FaultPlan::new(17, rates(0.25, 0.25, 0.5, 0.0)).with_horizon(60),
                ResilienceParams::retry(2),
            )),
        ),
        (
            "crash",
            Some((
                FaultPlan::new(17, rates(0.0, 0.0, 0.0, 0.15))
                    .with_crash_period(4)
                    .with_horizon(48),
                ResilienceParams::off(),
            )),
        ),
    ]
}

fn graphs() -> Vec<(&'static str, CsrGraph)> {
    vec![
        (
            "power-law",
            power_law(150, 3, &mut StdRng::seed_from_u64(4)),
        ),
        (
            "clique-union",
            clique_union(
                CliqueUnionConfig {
                    n: 120,
                    diversity: 2,
                    clique_size: 8,
                },
                &mut StdRng::seed_from_u64(5),
            ),
        ),
    ]
}

#[test]
fn provided_bodies_match_the_engine() {
    for (family, g) in graphs() {
        for (setting, cfg) in settings() {
            for threads in [1, 2] {
                let network = || {
                    match &cfg {
                        None => Network::new(&g),
                        Some((plan, res)) => Network::with_resilience(&g, plan.clone(), *res),
                    }
                    .with_threads(threads)
                };
                for algo in ALGOS {
                    let mut bare = network();
                    let mut wrapped = Delegating(network());
                    let expected = run_algo(algo, &mut bare);
                    let got = run_algo(algo, &mut wrapped);
                    let at = format!("{family} {setting} t={threads} {algo}");
                    assert_eq!(got, expected, "{at}: output");
                    assert_eq!(wrapped.metrics(), bare.metrics(), "{at}: metrics");
                    let faults: FaultStats = wrapped.0.fault_stats();
                    assert_eq!(faults, bare.fault_stats(), "{at}: fault stats");
                }
            }
        }
    }
}
