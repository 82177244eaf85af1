//! Golden fingerprints of the simulated network. Each row records what one
//! algorithm or pipeline produced on one graph under one fault setting:
//! a hash and length of its output, every [`Metrics`] field and every
//! [`FaultStats`] field. The table was frozen from the one-worker
//! transport; every worker count must reproduce it byte for byte, so a
//! change to delivery order, accounting, fault evaluation or the
//! resilience layer shows up here as a changed row.
//!
//! The table covers the five algorithms of `chaos.rs` under five fault
//! settings (no plan, the three standing plans, and a permanent-crash
//! survivor plan), each with resilience off and with `retry(2)`, on three
//! graph families — one of them a power law, whose hubs make the shard
//! bounds uneven — plus the three pipelines through their `_sharded`
//! entry points, fault-free and under `mixed` with `retry(2)`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_distsim::algorithms::coloring::linial_coloring;
use sparsimatch_distsim::algorithms::israeli_itai::israeli_itai_matching;
use sparsimatch_distsim::algorithms::matching::{bounded_degree_matching, color_scheduled_mm};
use sparsimatch_distsim::algorithms::pipeline::{
    distributed_approx_mcm_sharded, distributed_maximal_baseline_sharded,
    distributed_randomized_maximal_sharded, DistributedOutcome,
};
use sparsimatch_distsim::algorithms::solomon::distributed_solomon;
use sparsimatch_distsim::algorithms::sparsify::distributed_sparsifier;
use sparsimatch_distsim::{
    FaultPlan, FaultRates, FaultStats, Metrics, Net, Network, ResilienceParams,
};
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::generators::{clique_union, gnp, power_law, CliqueUnionConfig};
use sparsimatch_matching::Matching;

const PLAN_SEED: u64 = 17;

/// A fault setting: the plan and resilience a transport is built with,
/// or `None` for no plan at all.
type Setting = Option<(FaultPlan, ResilienceParams)>;

#[derive(Clone, Copy)]
enum Algo {
    IsraeliItai,
    LinialColoring,
    ColorScheduledMm,
    SparsifierSolomon,
    BoundedDegreeMatching,
}

const ALGOS: [(&str, Algo); 5] = [
    ("israeli-itai", Algo::IsraeliItai),
    ("linial-coloring", Algo::LinialColoring),
    ("color-scheduled-mm", Algo::ColorScheduledMm),
    ("sparsifier+solomon", Algo::SparsifierSolomon),
    ("bounded-degree-mm", Algo::BoundedDegreeMatching),
];

fn families() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("gnp", gnp(90, 0.06, &mut StdRng::seed_from_u64(1))),
        ("power-law", power_law(90, 2, &mut StdRng::seed_from_u64(2))),
        (
            "clique-union",
            clique_union(
                CliqueUnionConfig {
                    n: 90,
                    diversity: 2,
                    clique_size: 6,
                },
                &mut StdRng::seed_from_u64(3),
            ),
        ),
    ]
}

/// The chaos suite's standing plans plus the permanent-crash survivor plan.
fn plans() -> Vec<(&'static str, FaultPlan)> {
    let rates = |drop, duplicate, reorder, crash| FaultRates {
        drop,
        duplicate,
        reorder,
        crash,
    };
    vec![
        ("none", FaultPlan::none()),
        (
            "drop",
            FaultPlan::new(PLAN_SEED, rates(0.3, 0.0, 0.0, 0.0)).with_horizon(40),
        ),
        (
            "mixed",
            FaultPlan::new(PLAN_SEED, rates(0.25, 0.25, 0.5, 0.0)).with_horizon(60),
        ),
        (
            "crash",
            FaultPlan::new(PLAN_SEED, rates(0.0, 0.0, 0.0, 0.15))
                .with_crash_period(4)
                .with_horizon(48),
        ),
        (
            "survivors",
            FaultPlan::none().with_crashed_nodes([3, 11, 26, 40, 77]),
        ),
    ]
}

/// Every plan with resilience off and with `retry(2)`. "none/off" builds
/// the transport without a plan.
fn settings() -> Vec<(String, Setting)> {
    let mut out = Vec::new();
    for (name, plan) in plans() {
        for (res_name, res) in [
            ("off", ResilienceParams::off()),
            ("retry2", ResilienceParams::retry(2)),
        ] {
            let setting = if name == "none" && !res.enabled() {
                None
            } else {
                Some((plan.clone(), res))
            };
            out.push((format!("{name}/{res_name}"), setting));
        }
    }
    out
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

/// Run `algo` on `net` and flatten its output into words.
fn run_algo<'g>(algo: Algo, net: &mut impl Net<'g>) -> Vec<u64> {
    let target = (net.graph().max_degree() as u64 + 1).max(2);
    match algo {
        Algo::IsraeliItai => {
            let (m, iterations) = israeli_itai_matching(net, 7);
            let mut out = pair_words(&m);
            out.push(iterations);
            out
        }
        Algo::LinialColoring => {
            let c = linial_coloring(net, target);
            let mut out = c.colors;
            out.push(c.num_colors);
            out
        }
        Algo::ColorScheduledMm => {
            let c = linial_coloring(net, target);
            pair_words(&color_scheduled_mm(net, &c))
        }
        Algo::SparsifierSolomon => {
            let params = SparsifierParams::with_delta(1, 0.5, 4);
            let mut out = edge_words(&distributed_sparsifier(net, &params, 9));
            out.extend(edge_words(&distributed_solomon(net, 5)));
            out
        }
        Algo::BoundedDegreeMatching => {
            let (m, stats) = bounded_degree_matching(net, 0.34);
            let mut out = pair_words(&m);
            out.extend([stats.blocks, stats.flips]);
            out
        }
    }
}

/// Build the transport for `setting` with `threads` workers, run `algo`
/// on it, and return its output with the transport's counters.
fn on_transport(
    g: &CsrGraph,
    setting: &Setting,
    threads: usize,
    algo: Algo,
) -> (Vec<u64>, Metrics, FaultStats) {
    let mut net = match setting {
        None => Network::new(g),
        Some((plan, res)) => Network::with_resilience(g, plan.clone(), *res),
    }
    .with_threads(threads);
    let out = run_algo(algo, &mut net);
    (out, net.metrics(), net.fault_stats())
}

/// FNV-1a over the output words, with their count.
fn digest(words: &[u64]) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    format!("{h:016x}/{}", words.len())
}

fn counters(m: &Metrics, f: &FaultStats) -> String {
    format!(
        "rounds={} messages={} bits={} max_bits={} cloned={} dropped={} duplicated={} retries={} crashed={}",
        m.rounds,
        m.messages,
        m.bits,
        m.max_message_bits,
        m.messages_cloned,
        f.dropped,
        f.duplicated,
        f.retries,
        f.crashed_rounds
    )
}

fn pipeline_row(o: &DistributedOutcome) -> String {
    let (a, b, c) = o.phase_rounds;
    format!(
        "out={} phases={a}/{b}/{c} composed_max_degree={} {}",
        digest(&pair_words(&o.matching)),
        o.composed_max_degree,
        counters(&o.metrics, &o.faults)
    )
}

/// The whole table, computed at `threads` workers.
fn table(threads: usize) -> Vec<String> {
    let mut rows = Vec::new();
    let families = families();
    for (family, g) in &families {
        for (setting_name, setting) in settings() {
            for (algo_name, algo) in ALGOS {
                let (out, metrics, faults) = on_transport(g, &setting, threads, algo);
                rows.push(format!(
                    "{family} {setting_name} {algo_name}: out={} {}",
                    digest(&out),
                    counters(&metrics, &faults)
                ));
            }
        }
    }
    let params = SparsifierParams::with_delta(2, 0.5, 4);
    let mixed = plans().swap_remove(2).1;
    for (family, g) in &families {
        for (setting_name, cfg) in [
            ("none/off", None),
            ("mixed/retry2", Some((&mixed, ResilienceParams::retry(2)))),
        ] {
            for (pipeline, out) in [
                (
                    "approx",
                    distributed_approx_mcm_sharded(g, &params, 5, cfg, threads),
                ),
                (
                    "baseline",
                    distributed_maximal_baseline_sharded(g, &params, 5, cfg, threads),
                ),
                (
                    "randomized",
                    distributed_randomized_maximal_sharded(g, &params, 5, cfg, threads),
                ),
            ] {
                rows.push(format!(
                    "{family} {setting_name} pipeline-{pipeline}: {}",
                    pipeline_row(&out)
                ));
            }
        }
    }
    rows
}

fn assert_table(threads: usize) {
    let got = table(threads);
    let diverged: Vec<String> = GOLDENS
        .iter()
        .zip(&got)
        .filter(|(want, got)| **want != got.as_str())
        .map(|(want, got)| format!("  want {want}\n  got  {got}"))
        .collect();
    assert!(
        diverged.is_empty() && got.len() == GOLDENS.len(),
        "t = {threads}: {} of {} rows diverged ({} computed):\n{}\n\ncomputed table:\n{}",
        diverged.len(),
        GOLDENS.len(),
        got.len(),
        diverged.join("\n"),
        got.iter()
            .map(|r| format!("    {r:?},"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn goldens_hold_at_one_worker() {
    assert_table(1);
}

#[test]
fn goldens_hold_at_two_workers() {
    assert_table(2);
}

#[test]
fn goldens_hold_at_four_workers() {
    assert_table(4);
}

#[test]
fn goldens_hold_at_eight_workers() {
    assert_table(8);
}

const GOLDENS: &[&str] = &[
    "gnp none/off israeli-itai: out=4c9d920e5132113b/81 rounds=7 messages=1616 bits=1616 max_bits=1 cloned=1170 dropped=0 duplicated=0 retries=0 crashed=0",
    "gnp none/off linial-coloring: out=794440a5618910c3/91 rounds=39 messages=18720 bits=112320 max_bits=7 cloned=15210 dropped=0 duplicated=0 retries=0 crashed=0",
    "gnp none/off color-scheduled-mm: out=d384ced369226813/78 rounds=156 messages=37534 bits=131134 max_bits=7 cloned=30420 dropped=0 duplicated=0 retries=0 crashed=0",
    "gnp none/off sparsifier+solomon: out=86150568088d7f38/800 rounds=2 messages=842 bits=842 max_bits=1 cloned=0 dropped=0 duplicated=0 retries=0 crashed=0",
    "gnp none/off bounded-degree-mm: out=5719654ec7bbdb07/92 rounds=210 messages=63454 bits=1790014 max_bits=64 cloned=30420 dropped=0 duplicated=0 retries=0 crashed=0",
    "gnp none/retry2 israeli-itai: out=4c9d920e5132113b/81 rounds=14 messages=3232 bits=3232 max_bits=1 cloned=2786 dropped=0 duplicated=0 retries=0 crashed=0",
    "gnp none/retry2 linial-coloring: out=794440a5618910c3/91 rounds=78 messages=37440 bits=131040 max_bits=7 cloned=33930 dropped=0 duplicated=0 retries=0 crashed=0",
    "gnp none/retry2 color-scheduled-mm: out=d384ced369226813/78 rounds=312 messages=75068 bits=168668 max_bits=7 cloned=67954 dropped=0 duplicated=0 retries=0 crashed=0",
    "gnp none/retry2 sparsifier+solomon: out=86150568088d7f38/800 rounds=4 messages=1684 bits=1684 max_bits=1 cloned=842 dropped=0 duplicated=0 retries=0 crashed=0",
    "gnp none/retry2 bounded-degree-mm: out=5719654ec7bbdb07/92 rounds=366 messages=100988 bits=1827548 max_bits=64 cloned=67954 dropped=0 duplicated=0 retries=0 crashed=0",
    "gnp drop/off israeli-itai: out=607e74690003d421/81 rounds=16 messages=3134 bits=3134 max_bits=1 cloned=2340 dropped=928 duplicated=0 retries=0 crashed=0",
    "gnp drop/off linial-coloring: out=1053a915eece7d60/91 rounds=39 messages=18720 bits=112320 max_bits=7 cloned=15210 dropped=5627 duplicated=0 retries=0 crashed=0",
    "gnp drop/off color-scheduled-mm: out=7b8ef210a1f76e5b/82 rounds=156 messages=37557 bits=131157 max_bits=7 cloned=30420 dropped=5765 duplicated=0 retries=0 crashed=0",
    "gnp drop/off sparsifier+solomon: out=da72bab08adf3848/722 rounds=2 messages=842 bits=842 max_bits=1 cloned=0 dropped=231 duplicated=0 retries=0 crashed=0",
    "gnp drop/off bounded-degree-mm: out=60c6916bd4a0a9a4/92 rounds=198 messages=57717 bits=1421397 max_bits=64 cloned=30420 dropped=5765 duplicated=0 retries=0 crashed=0",
    "gnp drop/retry2 israeli-itai: out=a20d7dcf0979e7e4/83 rounds=42 messages=4969 bits=4969 max_bits=1 cloned=3221 dropped=1443 duplicated=457 retries=1289 crashed=0",
    "gnp drop/retry2 linial-coloring: out=794440a5618910c3/91 rounds=106 messages=40893 bits=150141 max_bits=7 cloned=34775 dropped=3000 duplicated=924 retries=2608 crashed=0",
    "gnp drop/retry2 color-scheduled-mm: out=d384ced369226813/78 rounds=340 messages=78521 bits=187769 max_bits=7 cloned=68799 dropped=3000 duplicated=924 retries=2608 crashed=0",
    "gnp drop/retry2 sparsifier+solomon: out=03e93d6344a56622/794 rounds=12 messages=2462 bits=2462 max_bits=1 cloned=1010 dropped=722 duplicated=193 retries=610 crashed=0",
    "gnp drop/retry2 bounded-degree-mm: out=5719654ec7bbdb07/92 rounds=394 messages=104441 bits=1846649 max_bits=64 cloned=68799 dropped=3000 duplicated=924 retries=2608 crashed=0",
    "gnp mixed/off israeli-itai: out=7d2d6ab387ab5d41/77 rounds=10 messages=2134 bits=2134 max_bits=1 cloned=1966 dropped=519 duplicated=406 retries=0 crashed=0",
    "gnp mixed/off linial-coloring: out=d630395edcce7ec1/91 rounds=39 messages=18720 bits=112320 max_bits=7 cloned=18729 dropped=4725 duplicated=3519 retries=0 crashed=0",
    "gnp mixed/off color-scheduled-mm: out=91b99669c2a7e2d8/80 rounds=156 messages=37580 bits=131180 max_bits=7 cloned=34579 dropped=5573 duplicated=4159 retries=0 crashed=0",
    "gnp mixed/off sparsifier+solomon: out=fc711806a5e4011a/746 rounds=2 messages=842 bits=842 max_bits=1 cloned=176 dropped=189 duplicated=176 retries=0 crashed=0",
    "gnp mixed/off bounded-degree-mm: out=0f055015fef0cca5/92 rounds=198 messages=57740 bits=1421420 max_bits=64 cloned=34579 dropped=5573 duplicated=4159 retries=0 crashed=0",
    "gnp mixed/retry2 israeli-itai: out=8a630008f06eea8b/83 rounds=42 messages=4636 bits=4636 max_bits=1 cloned=3646 dropped=1193 duplicated=891 retries=1046 crashed=0",
    "gnp mixed/retry2 linial-coloring: out=794440a5618910c3/91 rounds=118 messages=41626 bits=153646 max_bits=7 cloned=36573 dropped=3501 duplicated=2720 retries=3070 crashed=0",
    "gnp mixed/retry2 color-scheduled-mm: out=d384ced369226813/78 rounds=352 messages=79254 bits=191274 max_bits=7 cloned=70597 dropped=3501 duplicated=2720 retries=3070 crashed=0",
    "gnp mixed/retry2 sparsifier+solomon: out=86150568088d7f38/800 rounds=12 messages=2333 bits=2333 max_bits=1 cloned=1244 dropped=557 duplicated=415 retries=490 crashed=0",
    "gnp mixed/retry2 bounded-degree-mm: out=5719654ec7bbdb07/92 rounds=406 messages=105174 bits=1850154 max_bits=64 cloned=70597 dropped=3501 duplicated=2720 retries=3070 crashed=0",
    "gnp crash/off israeli-itai: out=caa94b3ced94992f/81 rounds=13 messages=2264 bits=2264 max_bits=1 cloned=1950 dropped=598 duplicated=0 retries=0 crashed=145",
    "gnp crash/off linial-coloring: out=9ea7ef34819ccee7/91 rounds=39 messages=15958 bits=95968 max_bits=7 cloned=15210 dropped=5100 duplicated=0 retries=0 crashed=516",
    "gnp crash/off color-scheduled-mm: out=baab8f5d8067952b/76 rounds=156 messages=34583 bits=114593 max_bits=7 cloned=30420 dropped=5506 duplicated=0 retries=0 crashed=644",
    "gnp crash/off sparsifier+solomon: out=dee551ba3a2030e4/714 rounds=2 messages=727 bits=727 max_bits=1 cloned=0 dropped=226 duplicated=0 retries=0 crashed=24",
    "gnp crash/off bounded-degree-mm: out=cfb38a6e31c86807/92 rounds=198 messages=54743 bits=1404833 max_bits=64 cloned=30420 dropped=5506 duplicated=0 retries=0 crashed=644",
    "gnp crash/retry2 israeli-itai: out=b19ba6edd3f54f91/81 rounds=50 messages=4311 bits=4311 max_bits=1 cloned=3480 dropped=1020 duplicated=0 retries=828 crashed=644",
    "gnp crash/retry2 linial-coloring: out=794440a5618910c3/91 rounds=110 messages=37680 bits=134904 max_bits=7 cloned=33566 dropped=2096 duplicated=0 retries=1732 crashed=644",
    "gnp crash/retry2 color-scheduled-mm: out=d384ced369226813/78 rounds=344 messages=75308 bits=172532 max_bits=7 cloned=67590 dropped=2096 duplicated=0 retries=1732 crashed=644",
    "gnp crash/retry2 sparsifier+solomon: out=778153b7e91895cb/780 rounds=12 messages=1743 bits=1743 max_bits=1 cloned=765 dropped=429 duplicated=0 retries=352 crashed=132",
    "gnp crash/retry2 bounded-degree-mm: out=5719654ec7bbdb07/92 rounds=398 messages=101228 bits=1831412 max_bits=64 cloned=67590 dropped=2096 duplicated=0 retries=1732 crashed=644",
    "gnp survivors/off israeli-itai: out=7b138998072a8261/73 rounds=7 messages=1530 bits=1530 max_bits=1 cloned=1170 dropped=138 duplicated=0 retries=0 crashed=35",
    "gnp survivors/off linial-coloring: out=b41e895b5f693842/91 rounds=39 messages=17823 bits=106938 max_bits=7 cloned=15210 dropped=1794 duplicated=0 retries=0 crashed=195",
    "gnp survivors/off color-scheduled-mm: out=8e486741fc6db338/72 rounds=117 messages=29790 bits=118905 max_bits=7 cloned=25350 dropped=2990 duplicated=0 retries=0 crashed=585",
    "gnp survivors/off sparsifier+solomon: out=300276a18cebe830/760 rounds=2 messages=798 bits=798 max_bits=1 cloned=0 dropped=88 duplicated=0 retries=0 crashed=10",
    "gnp survivors/off bounded-degree-mm: out=d893164dc69d3774/86 rounds=147 messages=44190 bits=1040505 max_bits=64 cloned=25350 dropped=2990 duplicated=0 retries=0 crashed=735",
    "gnp survivors/retry2 israeli-itai: out=7b138998072a8261/73 rounds=26 messages=3129 bits=3129 max_bits=1 cloned=2631 dropped=414 duplicated=0 retries=276 crashed=130",
    "gnp survivors/retry2 linial-coloring: out=b41e895b5f693842/91 rounds=234 messages=36543 bits=134628 max_bits=7 cloned=32136 dropped=5382 duplicated=0 retries=3588 crashed=1170",
    "gnp survivors/retry2 color-scheduled-mm: out=8e486741fc6db338/72 rounds=494 messages=61075 bits=159160 max_bits=7 cloned=53645 dropped=8970 duplicated=0 retries=5980 crashed=2470",
    "gnp survivors/retry2 sparsifier+solomon: out=300276a18cebe830/760 rounds=12 messages=1640 bits=1640 max_bits=1 cloned=754 dropped=264 duplicated=0 retries=176 crashed=60",
    "gnp survivors/retry2 bounded-degree-mm: out=d893164dc69d3774/86 rounds=524 messages=75475 bits=1080760 max_bits=64 cloned=53645 dropped=8970 duplicated=0 retries=5980 crashed=2620",
    "power-law none/off israeli-itai: out=61ba62ff8131df25/61 rounds=7 messages=1212 bits=1212 max_bits=1 cloned=786 dropped=0 duplicated=0 retries=0 crashed=0",
    "power-law none/off linial-coloring: out=f9a4e3d3c401cb47/91 rounds=58 messages=20416 bits=132704 max_bits=7 cloned=15196 dropped=0 duplicated=0 retries=0 crashed=0",
    "power-law none/off color-scheduled-mm: out=1373dfdbbb0b2189/58 rounds=319 messages=51128 bits=163416 max_bits=7 cloned=37990 dropped=0 duplicated=0 retries=0 crashed=0",
    "power-law none/off sparsifier+solomon: out=ccced4d7fc12fe9d/538 rounds=2 messages=548 bits=548 max_bits=1 cloned=0 dropped=0 duplicated=0 retries=0 crashed=0",
    "power-law none/off bounded-degree-mm: out=fc0094e5ced1372d/82 rounds=349 messages=61688 bits=839256 max_bits=64 cloned=37990 dropped=0 duplicated=0 retries=0 crashed=0",
    "power-law none/retry2 israeli-itai: out=61ba62ff8131df25/61 rounds=14 messages=2424 bits=2424 max_bits=1 cloned=1998 dropped=0 duplicated=0 retries=0 crashed=0",
    "power-law none/retry2 linial-coloring: out=f9a4e3d3c401cb47/91 rounds=116 messages=40832 bits=153120 max_bits=7 cloned=35612 dropped=0 duplicated=0 retries=0 crashed=0",
    "power-law none/retry2 color-scheduled-mm: out=1373dfdbbb0b2189/58 rounds=638 messages=102256 bits=214544 max_bits=7 cloned=89118 dropped=0 duplicated=0 retries=0 crashed=0",
    "power-law none/retry2 sparsifier+solomon: out=ccced4d7fc12fe9d/538 rounds=4 messages=1096 bits=1096 max_bits=1 cloned=548 dropped=0 duplicated=0 retries=0 crashed=0",
    "power-law none/retry2 bounded-degree-mm: out=fc0094e5ced1372d/82 rounds=668 messages=112816 bits=890384 max_bits=64 cloned=89118 dropped=0 duplicated=0 retries=0 crashed=0",
    "power-law drop/off israeli-itai: out=41787b76218cf63d/67 rounds=13 messages=1960 bits=1960 max_bits=1 cloned=1310 dropped=550 duplicated=0 retries=0 crashed=0",
    "power-law drop/off linial-coloring: out=6889c3b6a277d806/91 rounds=58 messages=20416 bits=132704 max_bits=7 cloned=15196 dropped=4192 duplicated=0 retries=0 crashed=0",
    "power-law drop/off color-scheduled-mm: out=f66035a99b3f0101/54 rounds=232 messages=40918 bits=153206 max_bits=7 cloned=30392 dropped=4192 duplicated=0 retries=0 crashed=0",
    "power-law drop/off sparsifier+solomon: out=adf3a2cf1f4ffb7d/486 rounds=2 messages=548 bits=548 max_bits=1 cloned=0 dropped=147 duplicated=0 retries=0 crashed=0",
    "power-law drop/off bounded-degree-mm: out=1b03bb7210fab727/82 rounds=286 messages=59926 bits=1369718 max_bits=64 cloned=30392 dropped=4192 duplicated=0 retries=0 crashed=0",
    "power-law drop/retry2 israeli-itai: out=0c5259d6088ddf5a/67 rounds=42 messages=3644 bits=3644 max_bits=1 cloned=2288 dropped=1042 duplicated=314 retries=925 crashed=0",
    "power-law drop/retry2 linial-coloring: out=f9a4e3d3c401cb47/91 rounds=144 messages=43297 bits=166763 max_bits=7 cloned=36214 dropped=2126 duplicated=656 retries=1863 crashed=0",
    "power-law drop/retry2 color-scheduled-mm: out=1373dfdbbb0b2189/58 rounds=666 messages=104721 bits=228187 max_bits=7 cloned=89720 dropped=2126 duplicated=656 retries=1863 crashed=0",
    "power-law drop/retry2 sparsifier+solomon: out=657af80982b35dbf/532 rounds=12 messages=1591 bits=1591 max_bits=1 cloned=658 dropped=453 duplicated=125 retries=385 crashed=0",
    "power-law drop/retry2 bounded-degree-mm: out=fc0094e5ced1372d/82 rounds=696 messages=115281 bits=904027 max_bits=64 cloned=89720 dropped=2126 duplicated=656 retries=1863 crashed=0",
    "power-law mixed/off israeli-itai: out=dfe46809c7002049/59 rounds=16 messages=2283 bits=2283 max_bits=1 cloned=2020 dropped=539 duplicated=448 retries=0 crashed=0",
    "power-law mixed/off linial-coloring: out=7894be1552d8e4e6/91 rounds=58 messages=20416 bits=132704 max_bits=7 cloned=19014 dropped=5136 duplicated=3818 retries=0 crashed=0",
    "power-law mixed/off color-scheduled-mm: out=cc771282bb5f00cf/60 rounds=319 messages=51131 bits=163419 max_bits=7 cloned=41881 dropped=5246 duplicated=3891 retries=0 crashed=0",
    "power-law mixed/off sparsifier+solomon: out=3d91a29548b8d036/492 rounds=2 messages=548 bits=548 max_bits=1 cloned=114 dropped=123 duplicated=114 retries=0 crashed=0",
    "power-law mixed/off bounded-degree-mm: out=fd18c497eb75f3d7/82 rounds=361 messages=65915 bits=1109595 max_bits=64 cloned=41881 dropped=5246 duplicated=3891 retries=0 crashed=0",
    "power-law mixed/retry2 israeli-itai: out=0947ec230fc42554/67 rounds=42 messages=3402 bits=3402 max_bits=1 cloned=2618 dropped=857 duplicated=647 retries=749 crashed=0",
    "power-law mixed/retry2 linial-coloring: out=f9a4e3d3c401cb47/91 rounds=156 messages=43850 bits=169536 max_bits=7 cloned=37509 dropped=2536 duplicated=1950 retries=2233 crashed=0",
    "power-law mixed/retry2 color-scheduled-mm: out=1373dfdbbb0b2189/58 rounds=678 messages=105274 bits=230960 max_bits=7 cloned=91015 dropped=2536 duplicated=1950 retries=2233 crashed=0",
    "power-law mixed/retry2 sparsifier+solomon: out=ccced4d7fc12fe9d/538 rounds=12 messages=1501 bits=1501 max_bits=1 cloned=810 dropped=340 duplicated=268 retries=304 crashed=0",
    "power-law mixed/retry2 bounded-degree-mm: out=fc0094e5ced1372d/82 rounds=708 messages=115834 bits=906800 max_bits=64 cloned=91015 dropped=2536 duplicated=1950 retries=2233 crashed=0",
    "power-law crash/off israeli-itai: out=282c2a88fb3cd1d6/63 rounds=16 messages=1994 bits=1994 max_bits=1 cloned=1572 dropped=515 duplicated=0 retries=0 crashed=184",
    "power-law crash/off linial-coloring: out=2e3ada8940ad0784/91 rounds=58 messages=17916 bits=116369 max_bits=7 cloned=15196 dropped=4648 duplicated=0 retries=0 crashed=644",
    "power-law crash/off color-scheduled-mm: out=2d3e9a5c44a6774f/56 rounds=319 messages=48630 bits=147083 max_bits=7 cloned=37990 dropped=4648 duplicated=0 retries=0 crashed=644",
    "power-law crash/off sparsifier+solomon: out=ab0ae04ca986f053/502 rounds=2 messages=484 bits=484 max_bits=1 cloned=0 dropped=102 duplicated=0 retries=0 crashed=24",
    "power-law crash/off bounded-degree-mm: out=9f103fcaae0358ca/82 rounds=349 messages=59190 bits=822923 max_bits=64 cloned=37990 dropped=4648 duplicated=0 retries=0 crashed=644",
    "power-law crash/retry2 israeli-itai: out=9515319ab9c39a1e/65 rounds=52 messages=3225 bits=3225 max_bits=1 cloned=2527 dropped=595 duplicated=0 retries=500 crashed=644",
    "power-law crash/retry2 linial-coloring: out=f9a4e3d3c401cb47/91 rounds=148 messages=41067 bits=156085 max_bits=7 cloned=35392 dropped=1452 duplicated=0 retries=1232 crashed=644",
    "power-law crash/retry2 color-scheduled-mm: out=1373dfdbbb0b2189/58 rounds=670 messages=102491 bits=217509 max_bits=7 cloned=88898 dropped=1452 duplicated=0 retries=1232 crashed=644",
    "power-law crash/retry2 sparsifier+solomon: out=ca84deebe8cae37c/526 rounds=12 messages=1114 bits=1114 max_bits=1 cloned=515 dropped=212 duplicated=0 retries=179 crashed=132",
    "power-law crash/retry2 bounded-degree-mm: out=fc0094e5ced1372d/82 rounds=700 messages=113051 bits=893349 max_bits=64 cloned=88898 dropped=1452 duplicated=0 retries=1232 crashed=644",
    "power-law survivors/off israeli-itai: out=0893bb39dfb9cc1d/59 rounds=7 messages=1101 bits=1101 max_bits=1 cloned=786 dropped=186 duplicated=0 retries=0 crashed=35",
    "power-law survivors/off linial-coloring: out=bea55d117fffa4e7/91 rounds=58 messages=18560 bits=120640 max_bits=7 cloned=15196 dropped=3596 duplicated=0 retries=0 crashed=290",
    "power-law survivors/off color-scheduled-mm: out=37697b66064e89be/56 rounds=319 messages=46485 bits=148565 max_bits=7 cloned=37990 dropped=8990 duplicated=0 retries=0 crashed=1595",
    "power-law survivors/off sparsifier+solomon: out=bc631934528d3bb9/508 rounds=2 messages=509 bits=509 max_bits=1 cloned=0 dropped=89 duplicated=0 retries=0 crashed=10",
    "power-law survivors/off bounded-degree-mm: out=5efaa4e5c58df97c/74 rounds=349 messages=57045 bits=824405 max_bits=64 cloned=37990 dropped=8990 duplicated=0 retries=0 crashed=1745",
    "power-law survivors/retry2 israeli-itai: out=0893bb39dfb9cc1d/59 rounds=26 messages=2292 bits=2292 max_bits=1 cloned=1797 dropped=558 duplicated=0 retries=372 crashed=130",
    "power-law survivors/retry2 linial-coloring: out=bea55d117fffa4e7/91 rounds=348 messages=38860 bits=160080 max_bits=7 cloned=32016 dropped=10788 duplicated=0 retries=7192 crashed=1740",
    "power-law survivors/retry2 color-scheduled-mm: out=37697b66064e89be/56 rounds=1218 messages=97320 bits=218540 max_bits=7 cloned=80125 dropped=26970 duplicated=0 retries=17980 crashed=6090",
    "power-law survivors/retry2 sparsifier+solomon: out=bc631934528d3bb9/508 rounds=12 messages=1068 bits=1068 max_bits=1 cloned=459 dropped=267 duplicated=0 retries=178 crashed=60",
    "power-law survivors/retry2 bounded-degree-mm: out=5efaa4e5c58df97c/74 rounds=1248 messages=107880 bits=894380 max_bits=64 cloned=80125 dropped=26970 duplicated=0 retries=17980 crashed=6240",
    "clique-union none/off israeli-itai: out=3dea8785b46c0cbb/87 rounds=7 messages=2805 bits=2805 max_bits=1 cloned=2352 dropped=0 duplicated=0 retries=0 crashed=0",
    "clique-union none/off linial-coloring: out=c573d089f2bdc3c2/91 rounds=44 messages=38456 bits=230736 max_bits=7 cloned=34496 dropped=0 duplicated=0 retries=0 crashed=0",
    "clique-union none/off color-scheduled-mm: out=addf3a4a3a1fdd9e/84 rounds=110 messages=57775 bits=250055 max_bits=7 cloned=51744 dropped=0 duplicated=0 retries=0 crashed=0",
    "clique-union none/off sparsifier+solomon: out=93f0845c649ea411/836 rounds=2 messages=822 bits=822 max_bits=1 cloned=0 dropped=0 duplicated=0 retries=0 crashed=0",
    "clique-union none/off bounded-degree-mm: out=9537c430c147b785/92 rounds=128 messages=73507 bits=1256903 max_bits=64 cloned=51744 dropped=0 duplicated=0 retries=0 crashed=0",
    "clique-union none/retry2 israeli-itai: out=3dea8785b46c0cbb/87 rounds=14 messages=5610 bits=5610 max_bits=1 cloned=5157 dropped=0 duplicated=0 retries=0 crashed=0",
    "clique-union none/retry2 linial-coloring: out=c573d089f2bdc3c2/91 rounds=88 messages=76912 bits=269192 max_bits=7 cloned=72952 dropped=0 duplicated=0 retries=0 crashed=0",
    "clique-union none/retry2 color-scheduled-mm: out=addf3a4a3a1fdd9e/84 rounds=220 messages=115550 bits=307830 max_bits=7 cloned=109519 dropped=0 duplicated=0 retries=0 crashed=0",
    "clique-union none/retry2 sparsifier+solomon: out=93f0845c649ea411/836 rounds=4 messages=1644 bits=1644 max_bits=1 cloned=822 dropped=0 duplicated=0 retries=0 crashed=0",
    "clique-union none/retry2 bounded-degree-mm: out=9537c430c147b785/92 rounds=238 messages=131282 bits=1314678 max_bits=64 cloned=109519 dropped=0 duplicated=0 retries=0 crashed=0",
    "clique-union drop/off israeli-itai: out=a337807ff349a21c/83 rounds=10 messages=3705 bits=3705 max_bits=1 cloned=3136 dropped=1085 duplicated=0 retries=0 crashed=0",
    "clique-union drop/off linial-coloring: out=92d80350fe5ffc22/91 rounds=44 messages=38456 bits=230736 max_bits=7 cloned=34496 dropped=10551 duplicated=0 retries=0 crashed=0",
    "clique-union drop/off color-scheduled-mm: out=356cc698ceadf7a0/84 rounds=143 messages=67417 bits=259697 max_bits=7 cloned=60368 dropped=10551 duplicated=0 retries=0 crashed=0",
    "clique-union drop/off sparsifier+solomon: out=d19e6b3a55884305/754 rounds=2 messages=822 bits=822 max_bits=1 cloned=0 dropped=231 duplicated=0 retries=0 crashed=0",
    "clique-union drop/off bounded-degree-mm: out=e06db88929ff3ac4/92 rounds=173 messages=93637 bits=1937777 max_bits=64 cloned=60368 dropped=10551 duplicated=0 retries=0 crashed=0",
    "clique-union drop/retry2 israeli-itai: out=34add1fbf56df7b6/85 rounds=48 messages=10313 bits=10313 max_bits=1 cloned=7542 dropped=2486 duplicated=776 retries=2222 crashed=0",
    "clique-union drop/retry2 linial-coloring: out=c573d089f2bdc3c2/91 rounds=116 messages=83287 bits=304451 max_bits=7 cloned=74513 dropped=5543 duplicated=1689 retries=4814 crashed=0",
    "clique-union drop/retry2 color-scheduled-mm: out=addf3a4a3a1fdd9e/84 rounds=248 messages=121925 bits=343089 max_bits=7 cloned=111080 dropped=5543 duplicated=1689 retries=4814 crashed=0",
    "clique-union drop/retry2 sparsifier+solomon: out=8f2e296291a80acb/830 rounds=12 messages=2424 bits=2424 max_bits=1 cloned=998 dropped=712 duplicated=199 retries=604 crashed=0",
    "clique-union drop/retry2 bounded-degree-mm: out=9537c430c147b785/92 rounds=266 messages=137657 bits=1349937 max_bits=64 cloned=111080 dropped=5543 duplicated=1689 retries=4814 crashed=0",
    "clique-union mixed/off israeli-itai: out=ed794393fe8646cb/87 rounds=13 messages=4600 bits=4600 max_bits=1 cloned=4783 dropped=1136 duplicated=863 retries=0 crashed=0",
    "clique-union mixed/off linial-coloring: out=b5fdcf470679aae5/91 rounds=44 messages=38456 bits=230736 max_bits=7 cloned=41721 dropped=9704 duplicated=7225 retries=0 crashed=0",
    "clique-union mixed/off color-scheduled-mm: out=61c6632f649753c0/82 rounds=143 messages=67421 bits=259701 max_bits=7 cloned=68620 dropped=11039 duplicated=8252 retries=0 crashed=0",
    "clique-union mixed/off sparsifier+solomon: out=128e6fa0b61b758e/774 rounds=2 messages=822 bits=822 max_bits=1 cloned=172 dropped=198 duplicated=172 retries=0 crashed=0",
    "clique-union mixed/off bounded-degree-mm: out=a562ce30e5bb3a43/92 rounds=173 messages=93641 bits=1937781 max_bits=64 cloned=68620 dropped=11039 duplicated=8252 retries=0 crashed=0",
    "clique-union mixed/retry2 israeli-itai: out=cb417c3855b465a4/85 rounds=58 messages=10556 bits=10556 max_bits=1 cloned=8735 dropped=2741 duplicated=1983 retries=2403 crashed=0",
    "clique-union mixed/retry2 linial-coloring: out=c573d089f2bdc3c2/91 rounds=128 messages=84604 bits=310982 max_bits=7 cloned=77703 dropped=6454 duplicated=4885 retries=5683 crashed=0",
    "clique-union mixed/retry2 color-scheduled-mm: out=addf3a4a3a1fdd9e/84 rounds=260 messages=123242 bits=349620 max_bits=7 cloned=114270 dropped=6454 duplicated=4885 retries=5683 crashed=0",
    "clique-union mixed/retry2 sparsifier+solomon: out=601f7190a1e2b6f7/832 rounds=12 messages=2278 bits=2278 max_bits=1 cloned=1223 dropped=543 duplicated=414 retries=477 crashed=0",
    "clique-union mixed/retry2 bounded-degree-mm: out=9537c430c147b785/92 rounds=278 messages=138974 bits=1356468 max_bits=64 cloned=114270 dropped=6454 duplicated=4885 retries=5683 crashed=0",
    "clique-union crash/off israeli-itai: out=ac45bcb667d36b91/87 rounds=16 messages=4757 bits=4757 max_bits=1 cloned=4704 dropped=1289 duplicated=0 retries=0 crashed=184",
    "clique-union crash/off linial-coloring: out=3942d67b40aaaca5/91 rounds=44 messages=32776 bits=196998 max_bits=7 cloned=34496 dropped=10568 duplicated=0 retries=0 crashed=584",
    "clique-union crash/off color-scheduled-mm: out=1bae645288f77ca6/86 rounds=143 messages=61437 bits=225659 max_bits=7 cloned=60368 dropped=11100 duplicated=0 retries=0 crashed=644",
    "clique-union crash/off sparsifier+solomon: out=a482ba3934e015e9/782 rounds=2 messages=714 bits=714 max_bits=1 cloned=0 dropped=204 duplicated=0 retries=0 crashed=24",
    "clique-union crash/off bounded-degree-mm: out=6100fcb5be3db425/92 rounds=173 messages=87657 bits=1903739 max_bits=64 cloned=60368 dropped=11100 duplicated=0 retries=0 crashed=644",
    "clique-union crash/retry2 israeli-itai: out=d9b638780b8bcb7c/83 rounds=52 messages=7580 bits=7580 max_bits=1 cloned=6539 dropped=1690 duplicated=0 retries=1380 crashed=644",
    "clique-union crash/retry2 linial-coloring: out=c573d089f2bdc3c2/91 rounds=120 messages=77340 bits=276028 max_bits=7 cloned=72312 dropped=3718 duplicated=0 retries=3078 crashed=644",
    "clique-union crash/retry2 color-scheduled-mm: out=addf3a4a3a1fdd9e/84 rounds=252 messages=115978 bits=314666 max_bits=7 cloned=108879 dropped=3718 duplicated=0 retries=3078 crashed=644",
    "clique-union crash/retry2 sparsifier+solomon: out=dbc70e37ed92e17d/824 rounds=12 messages=1719 bits=1719 max_bits=1 cloned=768 dropped=375 duplicated=0 retries=321 crashed=132",
    "clique-union crash/retry2 bounded-degree-mm: out=9537c430c147b785/92 rounds=270 messages=131710 bits=1321514 max_bits=64 cloned=108879 dropped=3718 duplicated=0 retries=3078 crashed=644",
    "clique-union survivors/off israeli-itai: out=2142088825a9ba7d/83 rounds=10 messages=3479 bits=3479 max_bits=1 cloned=3136 dropped=376 duplicated=0 retries=0 crashed=50",
    "clique-union survivors/off linial-coloring: out=eb87e0d203926ec7/91 rounds=44 messages=36256 bits=217536 max_bits=7 cloned=34496 dropped=4136 duplicated=0 retries=0 crashed=220",
    "clique-union survivors/off color-scheduled-mm: out=fd28337a847dd62d/78 rounds=110 messages=54468 bits=235748 max_bits=7 cloned=51744 dropped=6204 duplicated=0 retries=0 crashed=550",
    "clique-union survivors/off sparsifier+solomon: out=5699005adffe2e96/800 rounds=2 messages=777 bits=777 max_bits=1 cloned=0 dropped=92 duplicated=0 retries=0 crashed=10",
    "clique-union survivors/off bounded-degree-mm: out=c734993a4a665ee2/86 rounds=140 messages=80688 bits=1913828 max_bits=64 cloned=51744 dropped=6204 duplicated=0 retries=0 crashed=700",
    "clique-union survivors/retry2 israeli-itai: out=2142088825a9ba7d/83 rounds=36 messages=7134 bits=7134 max_bits=1 cloned=6439 dropped=1128 duplicated=0 retries=752 crashed=180",
    "clique-union survivors/retry2 linial-coloring: out=eb87e0d203926ec7/91 rounds=264 messages=74448 bits=275088 max_bits=7 cloned=68816 dropped=12408 duplicated=0 retries=8272 crashed=1320",
    "clique-union survivors/retry2 color-scheduled-mm: out=fd28337a847dd62d/78 rounds=484 messages=111840 bits=312480 max_bits=7 cloned=103308 dropped=18612 duplicated=0 retries=12408 crashed=2420",
    "clique-union survivors/retry2 sparsifier+solomon: out=5699005adffe2e96/800 rounds=12 messages=1601 bits=1601 max_bits=1 cloned=730 dropped=276 duplicated=0 retries=184 crashed=60",
    "clique-union survivors/retry2 bounded-degree-mm: out=c734993a4a665ee2/86 rounds=514 messages=138060 bits=1990560 max_bits=64 cloned=103308 dropped=18612 duplicated=0 retries=12408 crashed=2570",
    "gnp none/off pipeline-approx: out=9a98584cc573e19a/88 phases=1/1/176 composed_max_degree=12 rounds=178 messages=48064 bits=746464 max_bits=64 cloned=30420 dropped=0 duplicated=0 retries=0 crashed=0",
    "gnp none/off pipeline-baseline: out=d384ced369226813/78 phases=1/1/156 composed_max_degree=12 rounds=158 messages=38464 bits=132064 max_bits=7 cloned=30420 dropped=0 duplicated=0 retries=0 crashed=0",
    "gnp none/off pipeline-randomized: out=058484f4e50149ab/78 phases=1/1/7 composed_max_degree=12 rounds=9 messages=2547 bits=2547 max_bits=1 cloned=1170 dropped=0 duplicated=0 retries=0 crashed=0",
    "gnp mixed/retry2 pipeline-approx: out=1cf9954da3f0c13f/88 phases=6/6/372 composed_max_degree=12 rounds=384 messages=88431 bits=781221 max_bits=64 cloned=69314 dropped=3957 duplicated=3015 retries=3495 crashed=0",
    "gnp mixed/retry2 pipeline-baseline: out=d950f23b3260fa43/78 phases=6/6/352 composed_max_degree=12 rounds=364 messages=79151 bits=187301 max_bits=7 cloned=69314 dropped=3957 duplicated=3015 retries=3495 crashed=0",
    "gnp mixed/retry2 pipeline-randomized: out=1376dd6ac99f2160/78 phases=6/6/52 composed_max_degree=12 rounds=64 messages=8355 bits=8355 max_bits=1 cloned=5959 dropped=2062 duplicated=1565 retries=1828 crashed=0",
    "power-law none/off pipeline-approx: out=e22681b263e08f0f/78 phases=1/1/317 composed_max_degree=26 rounds=319 messages=53717 bits=586211 max_bits=64 cloned=34020 dropped=0 duplicated=0 retries=0 crashed=0",
    "power-law none/off pipeline-baseline: out=dd37100c422c6695/58 phases=1/1/297 composed_max_degree=26 rounds=299 messages=46877 bits=148451 max_bits=7 cloned=34020 dropped=0 duplicated=0 retries=0 crashed=0",
    "power-law none/off pipeline-randomized: out=b0057bdcc634aca8/66 phases=1/1/7 composed_max_degree=26 rounds=9 messages=1809 bits=1809 max_bits=1 cloned=756 dropped=0 duplicated=0 retries=0 crashed=0",
    "power-law mixed/retry2 pipeline-approx: out=e7c016ec68a8553a/76 phases=6/6/654 composed_max_degree=26 rounds=666 messages=102771 bits=641817 max_bits=64 cloned=81915 dropped=2833 duplicated=2160 retries=2485 crashed=0",
    "power-law mixed/retry2 pipeline-baseline: out=dd37100c422c6695/58 phases=6/6/634 composed_max_degree=26 rounds=646 messages=96011 bits=209177 max_bits=7 cloned=81915 dropped=2833 duplicated=2160 retries=2485 crashed=0",
    "power-law mixed/retry2 pipeline-randomized: out=eef57896ca4a97b0/64 phases=6/6/42 composed_max_degree=26 rounds=54 messages=5067 bits=5067 max_bits=1 cloned=3453 dropped=1268 duplicated=937 retries=1113 crashed=0",
    "clique-union none/off pipeline-approx: out=d805c3d5a7d2efa4/90 phases=1/1/163 composed_max_degree=10 rounds=165 messages=57896 bits=925176 max_bits=64 cloned=38192 dropped=0 duplicated=0 retries=0 crashed=0",
    "clique-union none/off pipeline-baseline: out=cf588b91c1c661e3/84 phases=1/1/143 composed_max_degree=10 rounds=145 messages=46176 bits=175096 max_bits=7 cloned=38192 dropped=0 duplicated=0 retries=0 crashed=0",
    "clique-union none/off pipeline-randomized: out=c6f3c376a5fbd14b/80 phases=1/1/7 composed_max_degree=10 rounds=9 messages=2897 bits=2897 max_bits=1 cloned=1488 dropped=0 duplicated=0 retries=0 crashed=0",
    "clique-union mixed/retry2 pipeline-approx: out=b89fb82b7d912f04/90 phases=6/6/288 composed_max_degree=10 rounds=300 messages=99014 bits=1251872 max_bits=64 cloned=73886 dropped=4855 duplicated=3645 retries=4250 crashed=0",
    "clique-union mixed/retry2 pipeline-baseline: out=12c770073382e3a6/78 phases=6/6/260 composed_max_degree=10 rounds=272 messages=83054 bits=230432 max_bits=7 cloned=73886 dropped=4855 duplicated=3645 retries=4250 crashed=0",
    "clique-union mixed/retry2 pipeline-randomized: out=efbcc11c633a0cf1/82 phases=6/6/42 composed_max_degree=10 rounds=54 messages=8142 bits=8142 max_bits=1 cloned=5769 dropped=2099 duplicated=1531 retries=1843 crashed=0",
];
