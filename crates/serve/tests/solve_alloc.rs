//! A dynamic session's warm `solve` allocates what a static session's
//! does: its response, nothing more.
//!
//! Installs the counting global allocator and solves serve's graph
//! (`clique-union:2:20` on 300 vertices) with both backends, in a static
//! session and, between single-edge updates, in a dynamic one. The
//! dynamic session patches each update into the last solve's snapshot,
//! writing the patched arrays into second buffers it keeps and swapping
//! them in, or reuses the snapshot when a solve follows a solve; on
//! this graph every vertex keeps all its edges, so the delta pipeline
//! matches on the snapshot itself. Once both sets of buffers have grown,
//! each dynamic solve makes exactly the allocator calls of a warm static
//! solve, which builds the same response.

use sparsimatch_obs::alloc::{self, CountingAllocator};
use sparsimatch_serve::protocol::parse_request;
use sparsimatch_serve::{EngineConfig, SessionEngine};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const LOAD: &str = r#"{"id":0,"cmd":"load_graph","n":300,"family":"clique-union:2:20","seed":1}"#;

const SOLVES: [&str; 2] = [
    r#"{"id":1,"cmd":"solve","backend":"delta","beta":2,"eps":0.5,"seed":9}"#,
    r#"{"id":2,"cmd":"solve","backend":"edcs","edcs_beta":16,"eps":0.5}"#,
];

/// Allocator calls `engine` makes handling `line`.
fn calls(engine: &mut SessionEngine, line: &str) -> u64 {
    let request = parse_request(line).expect("a valid request").request;
    let before = alloc::thread_totals().count;
    engine.handle(&request).expect("the request succeeds");
    alloc::thread_totals().count - before
}

#[test]
fn warm_dynamic_solves_allocate_what_static_solves_do() {
    let mut fixed = SessionEngine::new(EngineConfig::default());
    calls(&mut fixed, LOAD);
    let warm: Vec<u64> = SOLVES
        .iter()
        .map(|solve| {
            calls(&mut fixed, solve);
            calls(&mut fixed, solve)
        })
        .collect();
    let mut dynamic = SessionEngine::new(EngineConfig::default());
    calls(&mut dynamic, LOAD);
    // Each round inserts a pair and deletes it again, solving after each
    // update, so the graph never outgrows its load by more than an edge;
    // the pairs repeat every 150 rounds. The snapshot's buffers have
    // grown after a few rounds. The EDCS backend's own buffers grow with
    // its member set, which differs from graph to graph, so its solves
    // are held to the static count on the churn's second pass.
    for round in 0..300u32 {
        let (u, v) = (round % 150, 150 + round * 7 % 150);
        for op in ["insert", "delete"] {
            let update =
                format!(r#"{{"id":3,"cmd":"update","ops":[["{op}",{u},{v}]],"beta":2,"eps":0.5}}"#);
            calls(&mut dynamic, &update);
            for ((solve, &want), warm_from) in SOLVES.iter().zip(&warm).zip([4, 150]) {
                let got = calls(&mut dynamic, solve);
                if round >= warm_from {
                    assert_eq!(got, want, "round {round} {op}: {solve}");
                }
            }
        }
    }
}
