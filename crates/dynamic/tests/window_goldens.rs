//! Golden outputs of the Theorem 3.5 window scheme. Each row records, at a
//! checkpoint of one update stream replayed through [`DynamicMatcher`],
//! an FNV-1a hash of every `(work, swapped)` report so far, their total
//! work and swap count, and the size and an FNV-1a hash of the served
//! matching's pairs. A change to the window's marking, sparsifier layout,
//! greedy, augmentation schedule or work accounting shows up here as a
//! changed row.
//!
//! The streams: the serve daemon's shape (`clique-union:2:20` on 300
//! vertices, stood up by inserting every edge, then 2 000 deletes and
//! inserts), the same shape stood up by [`DynamicMatcher::from_graph`]
//! followed by the same 2 000 updates, E10's oblivious and adaptive
//! adversaries on its n = 100 host, and an oblivious stream over a
//! G(n, p) host.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_dynamic::adversary::{Adversary, Policy, StreamAdversary, Update};
use sparsimatch_dynamic::scheme::DynamicMatcher;
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::generators::{clique_union, family_from_spec, gnp, CliqueUnionConfig};
use sparsimatch_graph::ids::VertexId;
use std::collections::HashSet;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100000001b3);
    }
}

/// The running record of one replay.
struct Replay {
    matcher: DynamicMatcher,
    updates: usize,
    reports: u64,
    work: u64,
    swaps: u64,
    rows: Vec<String>,
}

impl Replay {
    fn new(matcher: DynamicMatcher) -> Self {
        Replay {
            matcher,
            updates: 0,
            reports: FNV_OFFSET,
            work: 0,
            swaps: 0,
            rows: Vec::new(),
        }
    }

    fn apply(&mut self, update: Update) {
        let r = self.matcher.apply(update);
        fnv(&mut self.reports, r.work);
        fnv(&mut self.reports, u64::from(r.swapped));
        self.updates += 1;
        self.work += r.work;
        self.swaps += u64::from(r.swapped);
    }

    fn checkpoint(&mut self, stream: &str) {
        let m = self.matcher.matching();
        let mut pairs = FNV_OFFSET;
        for (u, v) in m.pairs() {
            fnv(&mut pairs, (u64::from(u.0) << 32) | u64::from(v.0));
        }
        self.rows.push(format!(
            "{stream} @{}: reports={:016x} work={} swaps={} size={} pairs={pairs:016x}",
            self.updates,
            self.reports,
            self.work,
            self.swaps,
            m.len()
        ));
    }
}

/// The serve daemon's graph, stood up edge by edge ("serve") or by
/// [`DynamicMatcher::from_graph`] ("serve-from-graph"), then 2 000
/// updates that delete a random live edge or insert a random absent pair.
fn serve_rows(from_graph: bool) -> Vec<String> {
    let stream = if from_graph {
        "serve-from-graph"
    } else {
        "serve"
    };
    let n = 300;
    let g = family_from_spec("clique-union:2:20", n, &mut StdRng::seed_from_u64(1)).unwrap();
    let params = SparsifierParams::practical(2, 0.5);
    let edges = g.edges().map(|(_, u, v)| (u.0, v.0));
    let mut live: Vec<(u32, u32)> = edges.collect();
    let mut present: HashSet<(u32, u32)> = live.iter().copied().collect();
    let mut replay = if from_graph {
        Replay::new(DynamicMatcher::from_graph(&g, params, 1))
    } else {
        let mut replay = Replay::new(DynamicMatcher::new(n, params, 1));
        for &(u, v) in &live {
            replay.apply(Update::Insert(VertexId(u), VertexId(v)));
        }
        replay
    };
    replay.checkpoint(stream);
    let mut rng = StdRng::seed_from_u64(0x5e7e);
    for step in 1..=2_000 {
        if rng.random_bool(0.5) {
            let (u, v) = live.swap_remove(rng.random_range(0..live.len()));
            present.remove(&(u, v));
            replay.apply(Update::Delete(VertexId(u), VertexId(v)));
        } else {
            let (u, v) = loop {
                let (a, b) = (rng.random_range(0..n as u32), rng.random_range(0..n as u32));
                let pair = (a.min(b), a.max(b));
                if a != b && present.insert(pair) {
                    break pair;
                }
            };
            live.push((u, v));
            replay.apply(Update::Insert(VertexId(u), VertexId(v)));
        }
        if step % 500 == 0 {
            replay.checkpoint(stream);
        }
    }
    replay.rows
}

/// `steps` updates of `policy` over `host`, checkpointed every 1 000.
fn adversary_rows(
    stream: &str,
    host: &CsrGraph,
    policy: Policy,
    params: SparsifierParams,
    seed: u64,
    steps: usize,
    rng: &mut StdRng,
) -> Vec<String> {
    let mut replay = Replay::new(DynamicMatcher::new(host.num_vertices(), params, seed));
    let mut adversary = StreamAdversary::new(host, policy);
    for step in 1..=steps {
        let update = adversary.next(replay.matcher.matching(), rng);
        replay.apply(update);
        if step % 1_000 == 0 {
            replay.checkpoint(stream);
        }
    }
    replay.rows
}

/// E10's host and parameters at n = 100: both adversaries, one after the
/// other on one random stream.
fn e10_rows() -> Vec<String> {
    let n = 100;
    let mut rng = StdRng::seed_from_u64(0xE10 + n as u64);
    let host = clique_union(
        CliqueUnionConfig {
            n,
            diversity: 2,
            clique_size: n / 4,
        },
        &mut rng,
    );
    let params = SparsifierParams::practical(2, 0.5);
    let mut rows = Vec::new();
    for (stream, policy) in [
        ("e10-oblivious", Policy::Oblivious { p_insert: 0.7 }),
        (
            "e10-adaptive",
            Policy::AdaptiveDeleteMatched { p_insert: 0.7 },
        ),
    ] {
        rows.extend(adversary_rows(
            stream,
            &host,
            policy,
            params,
            0xD + n as u64,
            4_000,
            &mut rng,
        ));
    }
    rows
}

fn gnp_rows() -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(0x6E9);
    let host = gnp(200, 0.08, &mut rng);
    adversary_rows(
        "gnp",
        &host,
        Policy::Oblivious { p_insert: 0.6 },
        SparsifierParams::practical(3, 0.4),
        5,
        3_000,
        &mut rng,
    )
}

fn assert_rows(got: Vec<String>, want: &[&str]) {
    let diverged: Vec<String> = want
        .iter()
        .zip(&got)
        .filter(|(want, got)| **want != got.as_str())
        .map(|(want, got)| format!("  want {want}\n  got  {got}"))
        .collect();
    assert!(
        diverged.is_empty() && got.len() == want.len(),
        "{} of {} rows diverged ({} computed):\n{}\n\ncomputed rows:\n{}",
        diverged.len(),
        want.len(),
        got.len(),
        diverged.join("\n"),
        got.iter()
            .map(|r| format!("    {r:?},"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn serve_stand_up_and_churn_hold() {
    assert_rows(serve_rows(false), SERVE);
}

#[test]
fn serve_from_graph_and_churn_hold() {
    assert_rows(serve_rows(true), SERVE_FROM_GRAPH);
}

#[test]
fn e10_streams_hold() {
    assert_rows(e10_rows(), E10);
}

#[test]
fn gnp_stream_holds() {
    assert_rows(gnp_rows(), GNP);
}

const SERVE: &[&str] = &[
    "serve @5529: reports=03fc984b4eacd7c0 work=50757545 swaps=1217 size=150 pairs=38ffac3b01a0237d",
    "serve @6029: reports=bc05216e6b4b528b work=51247536 swaps=1245 size=150 pairs=651396568f8b72a1",
    "serve @6529: reports=c7a0d1d2031bbc59 work=51742603 swaps=1272 size=150 pairs=f981a1ebdfca8f79",
    "serve @7029: reports=49b396ae52c07fee work=52239068 swaps=1300 size=149 pairs=56c29c03b06c4844",
    "serve @7529: reports=61db2123fa48f7e9 work=52736949 swaps=1328 size=149 pairs=747167f68b90ca6d",
];

const SERVE_FROM_GRAPH: &[&str] = &[
    "serve-from-graph @0: reports=cbf29ce484222325 work=0 swaps=0 size=150 pairs=56ea33b8e0f7ee41",
    "serve-from-graph @500: reports=44b7182c6c717695 work=489655 swaps=27 size=150 pairs=7c60b7167fc8a7c5",
    "serve-from-graph @1000: reports=19877cf2afd7de1f work=984197 swaps=55 size=150 pairs=78df95495195dd7d",
    "serve-from-graph @1500: reports=34b32fc85f06c0b7 work=1481053 swaps=83 size=150 pairs=e8954bb1a379d7f9",
    "serve-from-graph @2000: reports=e57332b1dd0faa91 work=1978009 swaps=111 size=148 pairs=9e756c63eae782ef",
];

const E10: &[&str] = &[
    "e10-oblivious @1000: reports=df3f2e6e4bc57fbb work=330037 swaps=239 size=50 pairs=8debddc87632dc15",
    "e10-oblivious @2000: reports=12663d774e05ca34 work=792100 swaps=405 size=50 pairs=f2a28b0943dd0d05",
    "e10-oblivious @3000: reports=9321907dea47cc40 work=1517467 swaps=572 size=50 pairs=1e66d818b5330c75",
    "e10-oblivious @4000: reports=00d6b9756e8b9afa work=2495566 swaps=739 size=50 pairs=7fb56a6bcd081775",
    "e10-adaptive @1000: reports=19b47294398fbdab work=312281 swaps=268 size=49 pairs=1442f66996e159cb",
    "e10-adaptive @2000: reports=7002dcd2307a1ff2 work=761375 swaps=438 size=48 pairs=e2176252b5c6c511",
    "e10-adaptive @3000: reports=a1bfc471be759835 work=1480288 swaps=608 size=48 pairs=d883deb63add95ce",
    "e10-adaptive @4000: reports=e69c0c315f4bbb67 work=2434986 swaps=778 size=49 pairs=03e383c6ca7c351e",
];

const GNP: &[&str] = &[
    "gnp @1000: reports=c6bc9d587a966fab work=188142 swaps=402 size=71 pairs=cdd7643241e2f65d",
    "gnp @2000: reports=9821b73396dd6f85 work=517569 swaps=523 size=95 pairs=0b20fd6f5ecfa458",
    "gnp @3000: reports=d6b798f9ae239748 work=1042261 swaps=633 size=99 pairs=23707a80978597e4",
];
