//! Golden outputs of the blossom searcher, on the named graphs of
//! [`named_graphs`] and on a seeded sweep of generated graphs.
//!
//! A named row records, for one graph, one start (the greedy maximal
//! matching or the empty one) and one path-length bound, the matching
//! that `eliminate_augmenting_paths_up_to_with` leaves (its size and an
//! FNV-1a hash of its pairs) and every [`AugStats`] field; a `maximum`
//! row records `maximum_matching`'s size and pair hash. A sweep row folds
//! the elimination records over every generated graph of one family into
//! one hash, and `maximum_matching`'s into a size sum and a pair hash of
//! their own, so a change to the exact oracle's pairs alone leaves the
//! elimination hash standing. A change to the forest phase, the
//! single-root search, blossom contraction, the search order or the work
//! accounting shows up here as a changed row.
//!
//! One searcher is also carried across the graphs in several orders,
//! mixing vertex counts, and must reproduce the rows of a fresh one.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sparsimatch_graph::csr::{from_edges, CsrGraph};
use sparsimatch_graph::generators::{
    bipartite_gnp, clique_union, cycle, family_from_spec, gnp, path, power_law, star,
    two_cliques_bridge, CliqueUnionConfig,
};
use sparsimatch_graph::ids::VertexId;
use sparsimatch_matching::blossom::{maximum_matching, BlossomSearcher};
use sparsimatch_matching::bounded_aug::{eliminate_augmenting_paths_up_to_with, AugStats};
use sparsimatch_matching::greedy::greedy_maximal_matching;
use sparsimatch_matching::Matching;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100000001b3);
    }
}

fn pair_hash(m: &Matching) -> u64 {
    let mut h = FNV_OFFSET;
    for (u, v) in m.pairs() {
        fnv(&mut h, (u64::from(u.0) << 32) | u64::from(v.0));
    }
    h
}

/// Path-length bounds of the named rows.
const CAPS: [usize; 4] = [1, 3, 7, 41];
/// Path-length bounds of the sweep.
const SWEEP_CAPS: [usize; 3] = [1, 3, 9];
const STARTS: [&str; 2] = ["greedy", "empty"];

fn start(g: &CsrGraph, which: &str) -> Matching {
    match which {
        "greedy" => greedy_maximal_matching(g),
        _ => Matching::new(g.num_vertices()),
    }
}

/// The elimination from `start` at `max_len` on `searcher`.
fn eliminate(
    g: &CsrGraph,
    start_with: &str,
    max_len: usize,
    searcher: &mut BlossomSearcher,
) -> (Matching, AugStats) {
    let mut m = start(g, start_with);
    let stats = eliminate_augmenting_paths_up_to_with(g, &mut m, max_len, searcher);
    assert!(m.is_valid_for(g));
    (m, stats)
}

/// `k` odd cycles of length `len`, consecutive cycles joined by a stem of
/// `stem` edges between their first vertices.
fn flower_chain(k: usize, len: usize, stem: usize) -> CsrGraph {
    let mut edges = Vec::new();
    let mut next = 0usize;
    let mut prev_head: Option<usize> = None;
    for _ in 0..k {
        if let Some(head) = prev_head {
            let mut at = head;
            for _ in 0..stem {
                edges.push((at, next));
                at = next;
                next += 1;
            }
            edges.push((at, next));
        }
        let head = next;
        for i in 0..len {
            edges.push((head + i, head + (i + 1) % len));
        }
        next += len;
        prev_head = Some(head);
    }
    from_edges(next, edges)
}

/// The graph keeping, for every vertex, `keep` incident edges drawn
/// uniformly (with repetition), the shape of a delta sparsifier of `g`.
fn sampled(g: &CsrGraph, keep: usize, rng: &mut StdRng) -> CsrGraph {
    let mut edges = Vec::new();
    for v in 0..g.num_vertices() {
        let deg = g.degree(VertexId::new(v));
        for _ in 0..keep.min(deg) {
            let w = g
                .neighbor(VertexId::new(v), rng.random_range(0..deg))
                .index();
            edges.push((v, w));
        }
    }
    from_edges(g.num_vertices(), edges)
}

fn cu(n: usize, diversity: usize, clique_size: usize, rng: &mut StdRng) -> CsrGraph {
    clique_union(
        CliqueUnionConfig {
            n,
            diversity,
            clique_size,
        },
        rng,
    )
}

fn named_graphs() -> Vec<(&'static str, CsrGraph)> {
    let serve = |seed| {
        family_from_spec("clique-union:2:20", 300, &mut StdRng::seed_from_u64(seed)).unwrap()
    };
    let mut rng = StdRng::seed_from_u64(0xB10);
    let inmem = cu(1000, 2, 200, &mut rng);
    vec![
        ("serve-seed1", serve(1)),
        ("serve-seed2", serve(2)),
        ("inmem-sampled", sampled(&inmem, 6, &mut rng)),
        ("inmem-small", cu(500, 2, 100, &mut rng)),
        ("flowers-5", flower_chain(40, 5, 0)),
        ("flowers-9-stem2", flower_chain(25, 9, 2)),
        ("bridge-9", two_cliques_bridge(9).0),
        ("bridge-25", two_cliques_bridge(25).0),
        ("bipartite-300x200", bipartite_gnp(300, 200, 0.01, &mut rng)),
        ("power-law-1000x3", power_law(1000, 3, &mut rng)),
        ("power-law-1000x1", power_law(1000, 1, &mut rng)),
        ("gnp-400", gnp(400, 2.5 / 400.0, &mut rng)),
        ("path-101", path(101)),
        ("cycle-101", cycle(101)),
        ("cycle-100", cycle(100)),
        ("star-40", star(40)),
        ("empty-0", from_edges(0, [])),
        ("isolated-7", from_edges(7, [])),
    ]
}

/// The rows of one named graph, every elimination on `searcher`.
fn rows_of(name: &str, g: &CsrGraph, searcher: &mut BlossomSearcher) -> Vec<String> {
    let mut rows = Vec::new();
    for which in STARTS {
        for max_len in CAPS {
            let (m, s) = eliminate(g, which, max_len, searcher);
            rows.push(format!(
                "{name} {which} max_len={max_len}: size={} pairs={:016x} aug={} searches={} visits={}",
                m.len(),
                pair_hash(&m),
                s.augmentations,
                s.searches,
                s.edge_visits
            ));
        }
    }
    let m = maximum_matching(g);
    rows.push(format!(
        "{name} maximum: size={} pairs={:016x}",
        m.len(),
        pair_hash(&m)
    ));
    rows
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
fn named_rows_hold() {
    let mut rows = Vec::new();
    for (name, g) in named_graphs() {
        rows.extend(rows_of(
            name,
            &g,
            &mut BlossomSearcher::new(&Matching::new(0)),
        ));
    }
    assert_rows(rows, NAMED);
}

#[test]
fn one_searcher_in_any_order_holds() {
    let graphs = named_graphs();
    let by_n = |descending: bool| {
        let mut order: Vec<usize> = (0..graphs.len()).collect();
        order.sort_by_key(|&i| graphs[i].1.num_vertices());
        if descending {
            order.reverse();
        }
        order
    };
    let mut shuffled: Vec<usize> = (0..graphs.len()).collect();
    shuffled.shuffle(&mut StdRng::seed_from_u64(0x0DE5));
    for order in [by_n(false), by_n(true), shuffled] {
        let mut searcher = BlossomSearcher::new(&Matching::new(0));
        let mut per_graph: Vec<Vec<String>> = vec![Vec::new(); graphs.len()];
        for &i in &order {
            let (name, g) = &graphs[i];
            per_graph[i] = rows_of(name, g, &mut searcher);
        }
        assert_rows(per_graph.concat(), NAMED);
    }
}

/// Generated graphs per sweep family.
const SEEDS: u64 = 12;

/// The `seed`-th graph of `family`.
fn generated(family: &str, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(0x5EE9 ^ (seed << 8) ^ family.len() as u64);
    match family {
        "serve-shape" => {
            let n = 20 * rng.random_range(3..=15usize);
            family_from_spec("clique-union:2:20", n, &mut rng).unwrap()
        }
        "inmem-shape" => {
            let clique = 2 * rng.random_range(5..=20usize);
            let g = cu(5 * clique, 2, clique, &mut rng);
            let keep = rng.random_range(2..=8usize);
            sampled(&g, keep, &mut rng)
        }
        "clique-union" => {
            let n = rng.random_range(10..=160usize);
            let diversity = rng.random_range(1..=3usize);
            let clique_size = rng.random_range(2..=24usize);
            cu(n, diversity, clique_size, &mut rng)
        }
        "flower-chain" => {
            let k = rng.random_range(1..=30usize);
            let len = 2 * rng.random_range(1..=5usize) + 1;
            let stem = rng.random_range(0..=3usize);
            flower_chain(k, len, stem)
        }
        "bridge" => two_cliques_bridge(2 * rng.random_range(1..=12usize) + 1).0,
        "bipartite" => {
            let b = rng.random_range(5..=120usize);
            let a = b + b / 2 + rng.random_range(0..=b);
            let p = rng.random_range(0.5..4.0) / b as f64;
            bipartite_gnp(a, b, p.min(1.0), &mut rng)
        }
        "power-law" => {
            let n = rng.random_range(2..=400usize);
            let attach = rng.random_range(1..=3usize);
            power_law(n, attach, &mut rng)
        }
        "gnp" => {
            let n = rng.random_range(1..=200usize);
            let p = rng.random_range(0.2..5.0) / n as f64;
            gnp(n, p.min(1.0), &mut rng)
        }
        "path" => path(rng.random_range(0..=80usize)),
        "cycle" => cycle(rng.random_range(3..=80usize)),
        "star" => star(rng.random_range(1..=60usize)),
        "empty" => from_edges(rng.random_range(0..=30usize), []),
        _ => unreachable!("unknown family {family}"),
    }
}

const FAMILIES: [&str; 12] = [
    "serve-shape",
    "inmem-shape",
    "clique-union",
    "flower-chain",
    "bridge",
    "bipartite",
    "power-law",
    "gnp",
    "path",
    "cycle",
    "star",
    "empty",
];

#[test]
fn generated_sweep_holds() {
    // One searcher carried through the whole sweep, across every
    // family's vertex counts, beside a fresh searcher per elimination.
    let mut carried = BlossomSearcher::new(&Matching::new(0));
    let mut rows = Vec::new();
    for family in FAMILIES {
        let (mut edges, mut size, mut aug, mut searches, mut visits) = (0, 0, 0, 0, 0);
        let mut h = FNV_OFFSET;
        let (mut max_size, mut max_h) = (0, FNV_OFFSET);
        for seed in 0..SEEDS {
            let g = generated(family, seed);
            edges += g.num_edges();
            for which in STARTS {
                for max_len in SWEEP_CAPS {
                    let fresh = eliminate(
                        &g,
                        which,
                        max_len,
                        &mut BlossomSearcher::new(&Matching::new(0)),
                    );
                    let warm = eliminate(&g, which, max_len, &mut carried);
                    assert_eq!(
                        fresh, warm,
                        "{family} seed {seed} {which} max_len {max_len}"
                    );
                    let (m, s) = fresh;
                    size += m.len();
                    aug += s.augmentations;
                    searches += s.searches;
                    visits += s.edge_visits;
                    for word in [
                        m.len() as u64,
                        pair_hash(&m),
                        s.augmentations as u64,
                        s.searches as u64,
                        s.edge_visits,
                    ] {
                        fnv(&mut h, word);
                    }
                }
            }
            let m = maximum_matching(&g);
            max_size += m.len();
            fnv(&mut max_h, pair_hash(&m));
        }
        rows.push(format!(
            "{family}: graphs={SEEDS} edges={edges} size={size} aug={aug} searches={searches} visits={visits} hash={h:016x} maximum size={max_size} pairs={max_h:016x}"
        ));
    }
    assert_rows(rows, SWEEP);
}

const NAMED: &[&str] = &[
    "serve-seed1 greedy max_len=1: size=150 pairs=99fcf497d9f4f7cd aug=2 searches=2 visits=148",
    "serve-seed1 greedy max_len=3: size=150 pairs=99fcf497d9f4f7cd aug=2 searches=3 visits=148",
    "serve-seed1 greedy max_len=7: size=150 pairs=99fcf497d9f4f7cd aug=2 searches=5 visits=148",
    "serve-seed1 greedy max_len=41: size=150 pairs=99fcf497d9f4f7cd aug=2 searches=22 visits=148",
    "serve-seed1 empty max_len=1: size=150 pairs=99fcf497d9f4f7cd aug=150 searches=3 visits=5737",
    "serve-seed1 empty max_len=3: size=150 pairs=99fcf497d9f4f7cd aug=150 searches=4 visits=5737",
    "serve-seed1 empty max_len=7: size=150 pairs=99fcf497d9f4f7cd aug=150 searches=6 visits=5737",
    "serve-seed1 empty max_len=41: size=150 pairs=99fcf497d9f4f7cd aug=150 searches=23 visits=5737",
    "serve-seed1 maximum: size=150 pairs=99fcf497d9f4f7cd",
    "serve-seed2 greedy max_len=1: size=150 pairs=c9fd3c71e8d7c88d aug=2 searches=2 visits=148",
    "serve-seed2 greedy max_len=3: size=150 pairs=c9fd3c71e8d7c88d aug=2 searches=3 visits=148",
    "serve-seed2 greedy max_len=7: size=150 pairs=c9fd3c71e8d7c88d aug=2 searches=5 visits=148",
    "serve-seed2 greedy max_len=41: size=150 pairs=c9fd3c71e8d7c88d aug=2 searches=22 visits=148",
    "serve-seed2 empty max_len=1: size=150 pairs=c9fd3c71e8d7c88d aug=150 searches=3 visits=5715",
    "serve-seed2 empty max_len=3: size=150 pairs=c9fd3c71e8d7c88d aug=150 searches=4 visits=5715",
    "serve-seed2 empty max_len=7: size=150 pairs=c9fd3c71e8d7c88d aug=150 searches=6 visits=5715",
    "serve-seed2 empty max_len=41: size=150 pairs=c9fd3c71e8d7c88d aug=150 searches=23 visits=5715",
    "serve-seed2 maximum: size=150 pairs=c9fd3c71e8d7c88d",
    "inmem-sampled greedy max_len=1: size=497 pairs=572ffae76585898c aug=23 searches=9 visits=788",
    "inmem-sampled greedy max_len=3: size=500 pairs=febbd91a89be69fd aug=26 searches=5 visits=894",
    "inmem-sampled greedy max_len=7: size=500 pairs=febbd91a89be69fd aug=26 searches=7 visits=894",
    "inmem-sampled greedy max_len=41: size=500 pairs=febbd91a89be69fd aug=26 searches=24 visits=894",
    "inmem-sampled empty max_len=1: size=497 pairs=572ffae76585898c aug=497 searches=10 visits=6798",
    "inmem-sampled empty max_len=3: size=500 pairs=febbd91a89be69fd aug=500 searches=6 visits=6904",
    "inmem-sampled empty max_len=7: size=500 pairs=febbd91a89be69fd aug=500 searches=8 visits=6904",
    "inmem-sampled empty max_len=41: size=500 pairs=febbd91a89be69fd aug=500 searches=25 visits=6904",
    "inmem-sampled maximum: size=500 pairs=ccbb71333b9b6c19",
    "inmem-small greedy max_len=1: size=250 pairs=e640245bbfc80261 aug=1 searches=2 visits=352",
    "inmem-small greedy max_len=3: size=250 pairs=e640245bbfc80261 aug=1 searches=3 visits=352",
    "inmem-small greedy max_len=7: size=250 pairs=e640245bbfc80261 aug=1 searches=5 visits=352",
    "inmem-small greedy max_len=41: size=250 pairs=e640245bbfc80261 aug=1 searches=22 visits=352",
    "inmem-small empty max_len=1: size=250 pairs=e640245bbfc80261 aug=250 searches=3 visits=45136",
    "inmem-small empty max_len=3: size=250 pairs=e640245bbfc80261 aug=250 searches=4 visits=45136",
    "inmem-small empty max_len=7: size=250 pairs=e640245bbfc80261 aug=250 searches=6 visits=45136",
    "inmem-small empty max_len=41: size=250 pairs=e640245bbfc80261 aug=250 searches=23 visits=45136",
    "inmem-small maximum: size=250 pairs=e640245bbfc80261",
    "flowers-5 greedy max_len=1: size=80 pairs=1070051f2e1a5435 aug=0 searches=41 visits=160",
    "flowers-5 greedy max_len=3: size=100 pairs=cae89970fb00de85 aug=20 searches=3 visits=399",
    "flowers-5 greedy max_len=7: size=100 pairs=cae89970fb00de85 aug=20 searches=5 visits=399",
    "flowers-5 greedy max_len=41: size=100 pairs=cae89970fb00de85 aug=20 searches=22 visits=399",
    "flowers-5 empty max_len=1: size=80 pairs=1070051f2e1a5435 aug=80 searches=42 visits=478",
    "flowers-5 empty max_len=3: size=100 pairs=cae89970fb00de85 aug=100 searches=4 visits=717",
    "flowers-5 empty max_len=7: size=100 pairs=cae89970fb00de85 aug=100 searches=6 visits=717",
    "flowers-5 empty max_len=41: size=100 pairs=cae89970fb00de85 aug=100 searches=23 visits=717",
    "flowers-5 maximum: size=100 pairs=cae89970fb00de85",
    "flowers-9-stem2 greedy max_len=1: size=124 pairs=996a7fadf2decd5e aug=0 searches=26 visits=100",
    "flowers-9-stem2 greedy max_len=3: size=124 pairs=996a7fadf2decd5e aug=0 searches=27 visits=350",
    "flowers-9-stem2 greedy max_len=7: size=136 pairs=830c5dd966caa4d5 aug=12 searches=6 visits=705",
    "flowers-9-stem2 greedy max_len=41: size=136 pairs=830c5dd966caa4d5 aug=12 searches=23 visits=2540",
    "flowers-9-stem2 empty max_len=1: size=124 pairs=996a7fadf2decd5e aug=124 searches=27 visits=446",
    "flowers-9-stem2 empty max_len=3: size=124 pairs=996a7fadf2decd5e aug=124 searches=28 visits=696",
    "flowers-9-stem2 empty max_len=7: size=136 pairs=830c5dd966caa4d5 aug=136 searches=7 visits=1051",
    "flowers-9-stem2 empty max_len=41: size=136 pairs=830c5dd966caa4d5 aug=136 searches=24 visits=2886",
    "flowers-9-stem2 maximum: size=136 pairs=830c5dd966caa4d5",
    "bridge-9 greedy max_len=1: size=9 pairs=2bc90d3ed5a42584 aug=1 searches=2 visits=25",
    "bridge-9 greedy max_len=3: size=9 pairs=2bc90d3ed5a42584 aug=1 searches=3 visits=25",
    "bridge-9 greedy max_len=7: size=9 pairs=2bc90d3ed5a42584 aug=1 searches=5 visits=25",
    "bridge-9 greedy max_len=41: size=9 pairs=2bc90d3ed5a42584 aug=1 searches=22 visits=25",
    "bridge-9 empty max_len=1: size=9 pairs=2bc90d3ed5a42584 aug=9 searches=3 visits=107",
    "bridge-9 empty max_len=3: size=9 pairs=2bc90d3ed5a42584 aug=9 searches=4 visits=107",
    "bridge-9 empty max_len=7: size=9 pairs=2bc90d3ed5a42584 aug=9 searches=6 visits=107",
    "bridge-9 empty max_len=41: size=9 pairs=2bc90d3ed5a42584 aug=9 searches=23 visits=107",
    "bridge-9 maximum: size=9 pairs=2bc90d3ed5a42584",
    "bridge-25 greedy max_len=1: size=25 pairs=03176c3411111c64 aug=1 searches=2 visits=73",
    "bridge-25 greedy max_len=3: size=25 pairs=03176c3411111c64 aug=1 searches=3 visits=73",
    "bridge-25 greedy max_len=7: size=25 pairs=03176c3411111c64 aug=1 searches=5 visits=73",
    "bridge-25 greedy max_len=41: size=25 pairs=03176c3411111c64 aug=1 searches=22 visits=73",
    "bridge-25 empty max_len=1: size=25 pairs=03176c3411111c64 aug=25 searches=3 visits=699",
    "bridge-25 empty max_len=3: size=25 pairs=03176c3411111c64 aug=25 searches=4 visits=699",
    "bridge-25 empty max_len=7: size=25 pairs=03176c3411111c64 aug=25 searches=6 visits=699",
    "bridge-25 empty max_len=41: size=25 pairs=03176c3411111c64 aug=25 searches=23 visits=699",
    "bridge-25 maximum: size=25 pairs=03176c3411111c64",
    "bipartite-300x200 greedy max_len=1: size=186 pairs=64dcefe010a87cdc aug=17 searches=74 visits=440",
    "bipartite-300x200 greedy max_len=3: size=190 pairs=902ba56da6bba809 aug=21 searches=68 visits=1281",
    "bipartite-300x200 greedy max_len=7: size=190 pairs=902ba56da6bba809 aug=21 searches=70 visits=2954",
    "bipartite-300x200 greedy max_len=41: size=190 pairs=902ba56da6bba809 aug=21 searches=87 visits=17729",
    "bipartite-300x200 empty max_len=1: size=186 pairs=64dcefe010a87cdc aug=186 searches=75 visits=1062",
    "bipartite-300x200 empty max_len=3: size=190 pairs=902ba56da6bba809 aug=190 searches=69 visits=1903",
    "bipartite-300x200 empty max_len=7: size=190 pairs=902ba56da6bba809 aug=190 searches=71 visits=3576",
    "bipartite-300x200 empty max_len=41: size=190 pairs=902ba56da6bba809 aug=190 searches=88 visits=18351",
    "bipartite-300x200 maximum: size=190 pairs=902ba56da6bba809",
    "power-law-1000x3 greedy max_len=1: size=445 pairs=0efd8e314e4561b6 aug=92 searches=114 visits=2418",
    "power-law-1000x3 greedy max_len=3: size=470 pairs=339259850e2996f0 aug=117 searches=68 visits=5594",
    "power-law-1000x3 greedy max_len=7: size=484 pairs=c87f1dcee620ba2b aug=131 searches=45 visits=11193",
    "power-law-1000x3 greedy max_len=41: size=488 pairs=3fe1665d1ee44a7e aug=135 searches=58 visits=52767",
    "power-law-1000x3 empty max_len=1: size=445 pairs=0efd8e314e4561b6 aug=445 searches=115 visits=6163",
    "power-law-1000x3 empty max_len=3: size=470 pairs=339259850e2996f0 aug=470 searches=69 visits=9339",
    "power-law-1000x3 empty max_len=7: size=484 pairs=c87f1dcee620ba2b aug=484 searches=46 visits=14938",
    "power-law-1000x3 empty max_len=41: size=488 pairs=3fe1665d1ee44a7e aug=488 searches=59 visits=56512",
    "power-law-1000x3 maximum: size=488 pairs=136413250f06ad44",
    "power-law-1000x1 greedy max_len=1: size=279 pairs=69ac53b99130f182 aug=45 searches=444 visits=1416",
    "power-law-1000x1 greedy max_len=3: size=281 pairs=400587aa26f1770b aug=47 searches=442 visits=3148",
    "power-law-1000x1 greedy max_len=7: size=281 pairs=400587aa26f1770b aug=47 searches=444 visits=4453",
    "power-law-1000x1 greedy max_len=41: size=281 pairs=400587aa26f1770b aug=47 searches=461 visits=14925",
    "power-law-1000x1 empty max_len=1: size=279 pairs=69ac53b99130f182 aug=279 searches=445 visits=2993",
    "power-law-1000x1 empty max_len=3: size=281 pairs=400587aa26f1770b aug=281 searches=443 visits=4725",
    "power-law-1000x1 empty max_len=7: size=281 pairs=400587aa26f1770b aug=281 searches=445 visits=6030",
    "power-law-1000x1 empty max_len=41: size=281 pairs=400587aa26f1770b aug=281 searches=462 visits=16502",
    "power-law-1000x1 maximum: size=281 pairs=400587aa26f1770b",
    "gnp-400 greedy max_len=1: size=162 pairs=a64cf692139376ad aug=17 searches=40 visits=328",
    "gnp-400 greedy max_len=3: size=167 pairs=eb5ae2827734b194 aug=22 searches=32 visits=668",
    "gnp-400 greedy max_len=7: size=171 pairs=63bcf8696f5e411c aug=26 searches=27 visits=1229",
    "gnp-400 greedy max_len=41: size=173 pairs=9b841ce9d57c49aa aug=28 searches=42 visits=4503",
    "gnp-400 empty max_len=1: size=162 pairs=a64cf692139376ad aug=162 searches=41 visits=871",
    "gnp-400 empty max_len=3: size=167 pairs=eb5ae2827734b194 aug=167 searches=33 visits=1211",
    "gnp-400 empty max_len=7: size=171 pairs=63bcf8696f5e411c aug=171 searches=28 visits=1772",
    "gnp-400 empty max_len=41: size=173 pairs=9b841ce9d57c49aa aug=173 searches=43 visits=5046",
    "gnp-400 maximum: size=173 pairs=006980be692ee4f1",
    "path-101 greedy max_len=1: size=50 pairs=cc1c0bce4d26d0a5 aug=0 searches=2 visits=2",
    "path-101 greedy max_len=3: size=50 pairs=cc1c0bce4d26d0a5 aug=0 searches=3 visits=7",
    "path-101 greedy max_len=7: size=50 pairs=cc1c0bce4d26d0a5 aug=0 searches=5 visits=23",
    "path-101 greedy max_len=41: size=50 pairs=cc1c0bce4d26d0a5 aug=0 searches=22 visits=482",
    "path-101 empty max_len=1: size=50 pairs=cc1c0bce4d26d0a5 aug=50 searches=3 visits=102",
    "path-101 empty max_len=3: size=50 pairs=cc1c0bce4d26d0a5 aug=50 searches=4 visits=107",
    "path-101 empty max_len=7: size=50 pairs=cc1c0bce4d26d0a5 aug=50 searches=6 visits=123",
    "path-101 empty max_len=41: size=50 pairs=cc1c0bce4d26d0a5 aug=50 searches=23 visits=582",
    "path-101 maximum: size=50 pairs=cc1c0bce4d26d0a5",
    "cycle-101 greedy max_len=1: size=50 pairs=cc1c0bce4d26d0a5 aug=0 searches=2 visits=4",
    "cycle-101 greedy max_len=3: size=50 pairs=cc1c0bce4d26d0a5 aug=0 searches=3 visits=14",
    "cycle-101 greedy max_len=7: size=50 pairs=cc1c0bce4d26d0a5 aug=0 searches=5 visits=46",
    "cycle-101 greedy max_len=41: size=50 pairs=cc1c0bce4d26d0a5 aug=0 searches=22 visits=964",
    "cycle-101 empty max_len=1: size=50 pairs=cc1c0bce4d26d0a5 aug=50 searches=3 visits=106",
    "cycle-101 empty max_len=3: size=50 pairs=cc1c0bce4d26d0a5 aug=50 searches=4 visits=116",
    "cycle-101 empty max_len=7: size=50 pairs=cc1c0bce4d26d0a5 aug=50 searches=6 visits=148",
    "cycle-101 empty max_len=41: size=50 pairs=cc1c0bce4d26d0a5 aug=50 searches=23 visits=1066",
    "cycle-101 maximum: size=50 pairs=cc1c0bce4d26d0a5",
    "cycle-100 greedy max_len=1: size=50 pairs=cc1c0bce4d26d0a5 aug=0 searches=1 visits=0",
    "cycle-100 greedy max_len=3: size=50 pairs=cc1c0bce4d26d0a5 aug=0 searches=2 visits=0",
    "cycle-100 greedy max_len=7: size=50 pairs=cc1c0bce4d26d0a5 aug=0 searches=4 visits=0",
    "cycle-100 greedy max_len=41: size=50 pairs=cc1c0bce4d26d0a5 aug=0 searches=21 visits=0",
    "cycle-100 empty max_len=1: size=50 pairs=cc1c0bce4d26d0a5 aug=50 searches=2 visits=100",
    "cycle-100 empty max_len=3: size=50 pairs=cc1c0bce4d26d0a5 aug=50 searches=3 visits=100",
    "cycle-100 empty max_len=7: size=50 pairs=cc1c0bce4d26d0a5 aug=50 searches=5 visits=100",
    "cycle-100 empty max_len=41: size=50 pairs=cc1c0bce4d26d0a5 aug=50 searches=22 visits=100",
    "cycle-100 maximum: size=50 pairs=cc1c0bce4d26d0a5",
    "star-40 greedy max_len=1: size=1 pairs=89cd31291d2aefa4 aug=0 searches=39 visits=76",
    "star-40 greedy max_len=3: size=1 pairs=89cd31291d2aefa4 aug=0 searches=40 visits=153",
    "star-40 greedy max_len=7: size=1 pairs=89cd31291d2aefa4 aug=0 searches=42 visits=231",
    "star-40 greedy max_len=41: size=1 pairs=89cd31291d2aefa4 aug=0 searches=59 visits=894",
    "star-40 empty max_len=1: size=1 pairs=89cd31291d2aefa4 aug=1 searches=40 visits=153",
    "star-40 empty max_len=3: size=1 pairs=89cd31291d2aefa4 aug=1 searches=41 visits=230",
    "star-40 empty max_len=7: size=1 pairs=89cd31291d2aefa4 aug=1 searches=43 visits=308",
    "star-40 empty max_len=41: size=1 pairs=89cd31291d2aefa4 aug=1 searches=60 visits=971",
    "star-40 maximum: size=1 pairs=89cd31291d2aefa4",
    "empty-0 greedy max_len=1: size=0 pairs=cbf29ce484222325 aug=0 searches=1 visits=0",
    "empty-0 greedy max_len=3: size=0 pairs=cbf29ce484222325 aug=0 searches=2 visits=0",
    "empty-0 greedy max_len=7: size=0 pairs=cbf29ce484222325 aug=0 searches=4 visits=0",
    "empty-0 greedy max_len=41: size=0 pairs=cbf29ce484222325 aug=0 searches=21 visits=0",
    "empty-0 empty max_len=1: size=0 pairs=cbf29ce484222325 aug=0 searches=1 visits=0",
    "empty-0 empty max_len=3: size=0 pairs=cbf29ce484222325 aug=0 searches=2 visits=0",
    "empty-0 empty max_len=7: size=0 pairs=cbf29ce484222325 aug=0 searches=4 visits=0",
    "empty-0 empty max_len=41: size=0 pairs=cbf29ce484222325 aug=0 searches=21 visits=0",
    "empty-0 maximum: size=0 pairs=cbf29ce484222325",
    "isolated-7 greedy max_len=1: size=0 pairs=cbf29ce484222325 aug=0 searches=1 visits=0",
    "isolated-7 greedy max_len=3: size=0 pairs=cbf29ce484222325 aug=0 searches=2 visits=0",
    "isolated-7 greedy max_len=7: size=0 pairs=cbf29ce484222325 aug=0 searches=4 visits=0",
    "isolated-7 greedy max_len=41: size=0 pairs=cbf29ce484222325 aug=0 searches=21 visits=0",
    "isolated-7 empty max_len=1: size=0 pairs=cbf29ce484222325 aug=0 searches=1 visits=0",
    "isolated-7 empty max_len=3: size=0 pairs=cbf29ce484222325 aug=0 searches=2 visits=0",
    "isolated-7 empty max_len=7: size=0 pairs=cbf29ce484222325 aug=0 searches=4 visits=0",
    "isolated-7 empty max_len=41: size=0 pairs=cbf29ce484222325 aug=0 searches=21 visits=0",
    "isolated-7 maximum: size=0 pairs=cbf29ce484222325",
];

const SWEEP: &[&str] = &[
    "serve-shape: graphs=12 edges=36976 size=6180 aug=3138 searches=288 visits=119544 hash=cd3926659e342146 maximum size=1030 pairs=0f46e063ae289e69",
    "inmem-shape: graphs=12 edges=5950 size=4188 aug=2244 searches=356 visits=25933 hash=b4c7194ed02fddac maximum size=700 pairs=6eb0997952335d91",
    "clique-union: graphs=12 edges=6994 size=2592 aug=1302 searches=366 visits=105055 hash=7f00c156634b8114 maximum size=432 pairs=5b682df9f1740fb9",
    "flower-chain: graphs=12 edges=1318 size=3414 aug=1743 searches=444 visits=11190 hash=82b29f4bafd0ed08 maximum size=581 pairs=133e5655c6850d37",
    "bridge: graphs=12 edges=2754 size=1044 aug=558 searches=300 visits=11772 hash=99368ba110d67591 maximum size=174 pairs=c2c4f64dcc43e125",
    "bipartite: graphs=12 edges=3303 size=4692 aug=2427 searches=3418 visits=156016 hash=2f5269c529f34db0 maximum size=784 pairs=5cc34b8892b559c6",
    "power-law: graphs=12 edges=4641 size=6268 aug=3772 searches=4766 visits=87554 hash=ce4e9a3917dd263a maximum size=1058 pairs=acfdbbcc89b35c21",
    "gnp: graphs=12 edges=1297 size=2718 aug=1482 searches=908 visits=18304 hash=1e9f398f68f098b9 maximum size=460 pairs=e9e585a0ef287592",
    "path: graphs=12 edges=489 size=1482 aug=741 searches=261 visits=1933 hash=1dbfa754e78c1dfc maximum size=247 pairs=9f8510c96ec8fed4",
    "cycle: graphs=12 edges=528 size=1572 aug=786 searches=252 visits=2344 hash=7f3904400acf8a29 maximum size=262 pairs=7df0e7875553f9da",
    "star: graphs=12 edges=368 size=72 aug=36 searches=2364 visits=11538 hash=3553304cd37eab3b maximum size=12 pairs=1e6a916f341d3785",
    "empty: graphs=12 edges=0 size=0 aug=0 searches=192 visits=0 hash=918174c5fb110205 maximum size=0 pairs=14d6c02c8d5f3425",
];
