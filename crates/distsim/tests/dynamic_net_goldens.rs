//! Golden outputs of the dynamic distributed model. Each row records, at a
//! checkpoint of one topology-update stream replayed through
//! [`DynamicNetwork`], an FNV-1a hash of `(rounds, messages)` after every
//! update so far, the final counters, the live link count, the size and an
//! FNV-1a edge hash of the maintained `G_Δ`, and the largest node memory.
//! A change to the marks' seeding, the redraw, phantom-update handling or
//! the message accounting shows up here as a changed row.
//!
//! The streams: three random-pair churn streams, whose link-ups often
//! repeat a live link and whose link-downs often name an absent one
//! (phantom updates, which cost no round but still advance the update
//! count the marks are seeded from), and an insert-heavy clique-union
//! stream shaped like E18's.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_distsim::dynamic_net::{DynamicNetwork, TopologyUpdate};
use sparsimatch_graph::generators::{clique_union, CliqueUnionConfig};
use sparsimatch_graph::ids::VertexId;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100000001b3);
    }
}

/// The running record of one replay.
struct Replay {
    net: DynamicNetwork,
    updates: usize,
    steps: u64,
    rows: Vec<String>,
}

impl Replay {
    fn new(net: DynamicNetwork) -> Self {
        Replay {
            net,
            updates: 0,
            steps: FNV_OFFSET,
            rows: Vec::new(),
        }
    }

    fn apply(&mut self, update: TopologyUpdate) {
        self.net.apply(update);
        let m = self.net.metrics();
        fnv(&mut self.steps, m.rounds);
        fnv(&mut self.steps, m.messages);
        self.updates += 1;
    }

    fn checkpoint(&mut self, stream: &str) {
        let m = self.net.metrics();
        let sparse = self.net.sparsifier();
        let mut edges = FNV_OFFSET;
        for (_, u, v) in sparse.edges() {
            fnv(&mut edges, (u64::from(u.0) << 32) | u64::from(v.0));
        }
        self.rows.push(format!(
            "{stream} @{}: steps={:016x} rounds={} messages={} bits={} max_bits={} live={} gdelta={}/{edges:016x} mem={}",
            self.updates,
            self.steps,
            m.rounds,
            m.messages,
            m.bits,
            m.max_message_bits,
            self.net.graph().num_edges(),
            sparse.num_edges(),
            self.net.max_node_memory()
        ));
    }
}

/// `updates` uniformly random pairs on `n` nodes, each a link-up with
/// probability 0.6 and a link-down otherwise, checkpointed three times.
fn churn_rows(stream: &str, n: usize, delta: usize, updates: usize, seed: u64) -> Vec<String> {
    let params = SparsifierParams::with_delta(2, 0.5, delta);
    let mut replay = Replay::new(DynamicNetwork::new(n, params, seed));
    let mut rng = StdRng::seed_from_u64(seed);
    for step in 1..=updates {
        let a = rng.random_range(0..n as u32);
        let b = loop {
            let b = rng.random_range(0..n as u32);
            if b != a {
                break b;
            }
        };
        let (u, v) = (VertexId(a), VertexId(b));
        replay.apply(if rng.random_bool(0.6) {
            TopologyUpdate::LinkUp(u, v)
        } else {
            TopologyUpdate::LinkDown(u, v)
        });
        if step % (updates / 3) == 0 {
            replay.checkpoint(stream);
        }
    }
    replay.rows
}

/// Every edge of a 2-layer clique union brought up in order, each
/// followed with probability 0.25 by the loss of a random live link, as
/// in E18; checkpointed at each quarter of the edges.
fn clique_union_rows() -> Vec<String> {
    let n = 160;
    let mut rng = StdRng::seed_from_u64(0xC1);
    let host = clique_union(
        CliqueUnionConfig {
            n,
            diversity: 2,
            clique_size: 40,
        },
        &mut rng,
    );
    let params = SparsifierParams::practical(2, 0.4);
    let mut replay = Replay::new(DynamicNetwork::new(n, params, 0xC1));
    let edges: Vec<(u32, u32)> = host.edges().map(|(_, u, v)| (u.0, v.0)).collect();
    let quarter = edges.len() / 4;
    let mut live: Vec<(u32, u32)> = Vec::new();
    for (i, &(u, v)) in edges.iter().enumerate() {
        replay.apply(TopologyUpdate::LinkUp(VertexId(u), VertexId(v)));
        live.push((u, v));
        if rng.random_bool(0.25) && live.len() > 1 {
            let (a, b) = live.swap_remove(rng.random_range(0..live.len()));
            replay.apply(TopologyUpdate::LinkDown(VertexId(a), VertexId(b)));
        }
        if (i + 1) % quarter == 0 {
            replay.checkpoint("clique-union");
        }
    }
    replay.rows
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
fn churn_streams_hold() {
    let mut rows = churn_rows("churn-60", 60, 2, 3_000, 60);
    rows.extend(churn_rows("churn-120", 120, 4, 4_500, 120));
    rows.extend(churn_rows("churn-300", 300, 3, 6_000, 300));
    assert_rows(rows, CHURN);
}

#[test]
fn clique_union_stream_holds() {
    assert_rows(clique_union_rows(), CLIQUE_UNION);
}

const CHURN: &[&str] = &[
    "churn-60 @1000: steps=022e93a9ccdaee92 rounds=604 messages=3254 bits=3254 max_bits=1 live=458 gdelta=115/b87eb53cbefe01f4 mem=27",
    "churn-60 @2000: steps=7b78cb710f78b8c0 rounds=1131 messages=7072 bits=7072 max_bits=1 live=691 gdelta=114/05156b5a2930e67d mem=35",
    "churn-60 @3000: steps=2214db6121e077c4 rounds=1654 messages=10950 bits=10950 max_bits=1 live=888 gdelta=116/22505c7a6d3de896 mem=38",
    "churn-120 @1500: steps=2d76b8fb5415dfff rounds=878 messages=5010 bits=5010 max_bits=1 live=802 gdelta=418/5e4cc5794e0549a5 mem=25",
    "churn-120 @3000: steps=792c4d3a595c6576 rounds=1722 messages=15514 bits=15514 max_bits=1 live=1466 gdelta=446/aa9b87708aa577ac mem=41",
    "churn-120 @4500: steps=834945ccd843c11e rounds=2557 messages=27050 bits=27050 max_bits=1 live=2019 gdelta=446/6158cc3481873bf1 mem=50",
    "churn-300 @2000: steps=485c3ab3ac6e9e4e rounds=1180 messages=4356 bits=4356 max_bits=1 live=1162 gdelta=835/05badb29bfc96661 mem=19",
    "churn-300 @4000: steps=4aaba06e49283381 rounds=2350 messages=14415 bits=14415 max_bits=1 live=2278 gdelta=815/eb22a8b0bbd5b4d3 mem=27",
    "churn-300 @6000: steps=c83de24e8e8b5428 rounds=3480 messages=25664 bits=25664 max_bits=1 live=3284 gdelta=836/06a60af07abf85f2 mem=36",
];

const CLIQUE_UNION: &[&str] = &[
    "clique-union @1679: steps=c83e47505dc7b6a3 rounds=1679 messages=22367 bits=22367 max_bits=1 live=1047 gdelta=1027/4b057020e9e6f494 mem=87",
    "clique-union @3390: steps=55ea462e22380bbb rounds=3390 messages=47988 bits=47988 max_bits=1 live=2062 gdelta=1984/21f6b536d64b4065 mem=87",
    "clique-union @5081: steps=2dd2043ceabea935 rounds=5081 messages=77073 bits=77073 max_bits=1 live=3097 gdelta=2856/2adb197e519d3906 mem=89",
    "clique-union @6782: steps=d4b9101e9abd22f6 rounds=6782 messages=124333 bits=124333 max_bits=1 live=4122 gdelta=2849/d8e96a425d490c9e mem=87",
];
