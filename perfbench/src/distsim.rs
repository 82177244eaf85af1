//! `distsim`: the randomized distributed pipeline (sparsify → Solomon →
//! Israeli–Itai) on a seeded power-law graph at one thread, alternating
//! fault-free runs with runs under the chaos suite's standing `mixed`
//! plan (drop, duplicate, reorder) with ack/retry resilience.
//!
//! One thread is the path of the sequential transports, and it keeps two
//! workers from fighting over a shared scheduler on two cores.

use crate::common::{self, Calibration, Config, Report, SameOutput};
use crate::trace::Recorder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_core::solomon::degree_cap_for;
use sparsimatch_distsim::algorithms::israeli_itai::israeli_itai_matching;
use sparsimatch_distsim::algorithms::pipeline::{
    distributed_randomized_maximal, distributed_randomized_maximal_faulty, DistributedOutcome,
};
use sparsimatch_distsim::algorithms::solomon::distributed_solomon;
use sparsimatch_distsim::algorithms::sparsify::distributed_sparsifier;
use sparsimatch_distsim::network::{Incoming, Outgoing};
use sparsimatch_distsim::{
    FaultPlan, FaultRates, FaultStats, FaultyNetwork, Metrics, Net, Network, ResilienceParams,
};
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::generators::power_law;
use sparsimatch_graph::ids::VertexId;
use sparsimatch_matching::Matching;
use std::time::Instant;

/// Edges each arriving vertex attaches.
const ATTACH: usize = 3;
/// Retransmissions the resilience layer may spend per message.
const RETRIES: u32 = 3;
const FAULT_FREE: usize = 0;
const FAULTY: usize = 1;
const KINDS: [&str; 2] = ["fault-free", "faulty"];
/// Span names per kind: the op, its three phases, and an exchange.
const SPANS: [[&str; 5]; 2] = [
    [
        "op.fault_free",
        "distsim.phase.sparsify",
        "distsim.phase.solomon",
        "distsim.phase.matching",
        "distsim.exchange",
    ],
    [
        "op.faulty",
        "faults.phase.sparsify",
        "faults.phase.solomon",
        "faults.phase.matching",
        "faults.exchange",
    ],
];

/// The small Δ of the distsim scale experiment: per-round message volume
/// stays proportional to the edge count.
fn params() -> SparsifierParams {
    SparsifierParams::with_delta(2, 0.5, 4)
}

/// The chaos suite's standing `mixed` plan: drops, duplicates and reorders
/// in the first 60 rounds.
fn mixed_plan(seed: u64) -> FaultPlan {
    let rates = FaultRates {
        drop: 0.25,
        duplicate: 0.25,
        reorder: 0.5,
        ..Default::default()
    };
    FaultPlan::new(seed, rates).with_horizon(60)
}

fn fingerprint(
    matching: &Matching,
    metrics: &Metrics,
    phase_rounds: [u64; 3],
    max_degree: usize,
    faults: &FaultStats,
) -> u64 {
    common::fnv(
        common::matching_words(matching)
            .chain([
                metrics.rounds,
                metrics.messages,
                metrics.bits,
                metrics.max_message_bits,
                metrics.messages_cloned,
            ])
            .chain(phase_rounds)
            .chain([
                max_degree as u64,
                faults.dropped,
                faults.duplicated,
                faults.retries,
                faults.crashed_rounds,
            ]),
    )
}

fn outcome_fingerprint(o: &DistributedOutcome) -> u64 {
    let (a, b, c) = o.phase_rounds;
    fingerprint(
        &o.matching,
        &o.metrics,
        [a, b, c],
        o.composed_max_degree,
        &o.faults,
    )
}

/// The perfect or the fault-injecting transport, behind one type so that
/// the traced composition is written once. One lives per phase, so boxing
/// the larger variant would buy nothing.
#[allow(clippy::large_enum_variant)]
enum Transport<'g> {
    Perfect(Network<'g>),
    Faulty(FaultyNetwork<'g>),
}

/// Run `$body` on whichever transport `$t` holds, bound to `$n`.
macro_rules! on_transport {
    ($t:expr, $n:ident => $body:expr) => {
        match $t {
            Transport::Perfect($n) => $body,
            Transport::Faulty($n) => $body,
        }
    };
}

/// A delegating [`Net`] that times every exchange.
struct TimedNet<'g> {
    inner: Transport<'g>,
    exchanges: Vec<(Instant, Instant)>,
}

impl<'g> TimedNet<'g> {
    fn new(g: &'g CsrGraph, plan: Option<&FaultPlan>) -> Self {
        let inner = match plan {
            None => Transport::Perfect(Network::new(g)),
            Some(plan) => Transport::Faulty(FaultyNetwork::with_resilience(
                g,
                plan.clone(),
                ResilienceParams::retry(RETRIES),
            )),
        };
        TimedNet {
            inner,
            exchanges: Vec::new(),
        }
    }

    fn fault_stats(&self) -> FaultStats {
        match &self.inner {
            Transport::Perfect(_) => FaultStats::default(),
            Transport::Faulty(n) => n.fault_stats(),
        }
    }
}

impl<'g> Net<'g> for TimedNet<'g> {
    fn graph(&self) -> &'g CsrGraph {
        on_transport!(&self.inner, n => Net::graph(n))
    }

    fn metrics(&self) -> Metrics {
        on_transport!(&self.inner, n => Net::metrics(n))
    }

    fn exchange<M: Clone + Send>(
        &mut self,
        outboxes: Vec<Vec<Outgoing<M>>>,
    ) -> Vec<Vec<Incoming<M>>> {
        let start = Instant::now();
        let inboxes = on_transport!(&mut self.inner, n => Net::exchange(n, outboxes));
        self.exchanges.push((start, Instant::now()));
        inboxes
    }

    fn charge_gather(&mut self, radius: usize, bits_per_message: u64) {
        on_transport!(&mut self.inner, n => Net::charge_gather(n, radius, bits_per_message))
    }

    fn record_clones(&mut self, count: u64) {
        on_transport!(&mut self.inner, n => Net::record_clones(n, count))
    }

    fn ball(&self, v: VertexId, radius: usize) -> Vec<VertexId> {
        on_transport!(&self.inner, n => Net::ball(n, v, radius))
    }

    fn lossless(&self) -> bool {
        on_transport!(&self.inner, n => Net::lossless(n))
    }
}

/// End a phase: close its span, hang its exchanges below it, and fold its
/// accounting into the run's totals. Returns the phase's rounds.
fn close_phase(
    net: TimedNet<'_>,
    rec: &mut Recorder,
    phase: usize,
    exchange: &'static str,
    op: u64,
    totals: &mut (Metrics, FaultStats),
) -> u64 {
    rec.end(phase);
    for &(start, end) in &net.exchanges {
        rec.add(exchange, start, end, Some(phase), op);
    }
    let metrics = net.metrics();
    totals.0.absorb(metrics);
    totals.1.absorb(net.fault_stats());
    metrics.rounds
}

struct Resident {
    g: CsrGraph,
    plan: FaultPlan,
    seed: u64,
    same: [SameOutput; 2],
    /// Communication and fault counts of each kind's latest run.
    last: [(Metrics, FaultStats); 2],
}

impl Resident {
    fn run_op(&mut self, kind: usize) -> (f64, Result<(), String>) {
        let params = params();
        let start = Instant::now();
        let out = match kind {
            FAULT_FREE => distributed_randomized_maximal(&self.g, &params, self.seed),
            _ => distributed_randomized_maximal_faulty(
                &self.g,
                &params,
                self.seed,
                &self.plan,
                ResilienceParams::retry(RETRIES),
            ),
        };
        let ms = common::ms_between(start, Instant::now());
        self.last[kind] = (out.metrics, out.faults);
        let verdict = if out.matching.is_valid_for(&self.g) {
            self.same[kind].verdict(outcome_fingerprint(&out))
        } else {
            Err("the matching is not valid for the input graph".into())
        };
        (ms, verdict)
    }

    /// The same pipeline composed from the public phase functions over
    /// [`TimedNet`]s. Its fingerprint must equal the untraced run's.
    fn traced_op(&self, kind: usize, op: u64, rec: &mut Recorder) -> (f64, Result<(), String>) {
        let names = &SPANS[kind];
        let params = params();
        let plan = (kind == FAULTY).then_some(&self.plan);
        let mut totals = (Metrics::new(), FaultStats::default());
        let root = rec.begin(names[0], None, op);

        let phase = rec.begin(names[1], Some(root), op);
        let mut net = TimedNet::new(&self.g, plan);
        let g_delta = distributed_sparsifier(&mut net, &params, self.seed);
        let sparsify_rounds = close_phase(net, rec, phase, names[4], op, &mut totals);

        let phase = rec.begin(names[2], Some(root), op);
        let mut net = TimedNet::new(&g_delta, plan);
        let cap = degree_cap_for(params.arboricity_bound(), params.eps);
        let composed = distributed_solomon(&mut net, cap);
        let solomon_rounds = close_phase(net, rec, phase, names[4], op, &mut totals);

        let phase = rec.begin(names[3], Some(root), op);
        let mut net = TimedNet::new(&composed, plan);
        let (matching, _) = israeli_itai_matching(&mut net, self.seed);
        let matching_rounds = close_phase(net, rec, phase, names[4], op, &mut totals);
        rec.end(root);

        let rounds = [sparsify_rounds, solomon_rounds, matching_rounds];
        let fp = fingerprint(
            &matching,
            &totals.0,
            rounds,
            composed.max_degree(),
            &totals.1,
        );
        let verdict = if self.same[kind].reference() == Some(fp) {
            Ok(())
        } else {
            Err(
                "the traced composition's fingerprint differs from distributed_randomized_maximal*"
                    .into(),
            )
        };
        (rec.ms(root), verdict)
    }
}

fn setup(cfg: &Config, n: usize, report: &mut Report) -> Resident {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut res = Resident {
        g: power_law(n, ATTACH, &mut rng),
        plan: mixed_plan(cfg.seed),
        seed: cfg.seed,
        same: [SameOutput::new(cfg.corrupt), SameOutput::new(cfg.corrupt)],
        last: Default::default(),
    };
    // One discarded warm-up per kind; it also records the kind's
    // reference fingerprint.
    for kind in [FAULT_FREE, FAULTY] {
        let (_, verdict) = res.run_op(kind);
        report.verdict(KINDS[kind], verdict);
    }
    res
}

pub fn run(cfg: &Config, report: &mut Report, cal: &mut Calibration) {
    let n = if cfg.quick { 300 } else { 10_000 };
    let (mut res, setup_times) = common::repeat_setup(cal, || setup(cfg, n, report));
    report.set_setup(setup_times);
    report.note(format!(
        "distsim: power-law n={n} m={} ({ATTACH} edges per arrival), one thread; faulty runs use the mixed plan with {RETRIES} retries",
        res.g.num_edges()
    ));
    if cfg.trace {
        trace(cfg, &mut res, report, cal);
        return;
    }
    let pid = std::process::id();
    report.start_rss_window(pid);
    let timed = common::interleave(2, cfg.seconds, cal, |kind| {
        let (ms, verdict) = res.run_op(kind);
        report.verdict(KINDS[kind], verdict);
        ms
    });
    report.end_rss_window(pid, cal.resident_mib());
    report.set_kind_metrics(&timed);
}

/// The traced run: untraced runs (kinds 0, 1) interleaved with traced
/// compositions (kinds 2, 3).
fn trace(cfg: &Config, res: &mut Resident, report: &mut Report, cal: &mut Calibration) {
    let mut rec = Recorder::default();
    let mut op = 0u64;
    let samples = common::interleave(4, cfg.seconds, cal, |k| {
        let kind = k % 2;
        let (ms, verdict) = if k < 2 {
            res.run_op(kind)
        } else {
            op += 1;
            res.traced_op(kind, op, &mut rec)
        };
        report.verdict(KINDS[kind], verdict);
        ms
    })
    .raw;
    let [free, faulty] = SPANS;
    let traced = samples[2].len();
    let phases = rec.per_op_ms(&free[1..4]);
    let exchanges = rec.per_op_ms(&[free[4]]);
    let local: Vec<f64> = phases.iter().zip(&exchanges).map(|(p, x)| p - x).collect();
    let exchange_ms = common::median(&exchanges);
    let [(free_metrics, _), (faulty_metrics, faults)] = res.last;
    report.set("distsim.exchange_ms", exchange_ms, traced);
    let ns_per_message = exchange_ms * 1e6 / free_metrics.messages.max(1) as f64;
    report.set("distsim.ns_per_message", ns_per_message, traced);
    report.set("distsim.messages", free_metrics.messages as f64, 1);
    report.set(
        "distsim.messages_cloned",
        free_metrics.messages_cloned as f64,
        1,
    );
    report.set("distsim.rounds", free_metrics.rounds as f64, 1);
    report.set("distsim.local_ms", common::median(&local), traced);
    for (metric, span) in [
        ("distsim.phase_ms.sparsify", free[1]),
        ("distsim.phase_ms.solomon", free[2]),
        ("distsim.phase_ms.matching", free[3]),
    ] {
        report.set(metric, rec.median_ms(&[span]), traced);
    }
    let untraced_s = samples[..2].iter().flatten().sum::<f64>() / 1e3;
    let messages = free_metrics.messages as f64 * samples[0].len() as f64
        + faulty_metrics.messages as f64 * samples[1].len() as f64;
    let untraced_ops = samples[0].len() + samples[1].len();
    report.set(
        "distsim.messages_per_s",
        messages / untraced_s,
        untraced_ops,
    );
    report.set(
        "faults.exchange_ms",
        rec.median_ms(&[faulty[4]]),
        samples[3].len(),
    );
    report.set("faults.dropped", faults.dropped as f64, 1);
    report.set("faults.duplicated", faults.duplicated as f64, 1);
    report.set("faults.retries", faults.retries as f64, 1);
    rec.set_trace_metrics(report, &samples, 2);
    rec.save(cfg, report);
}
