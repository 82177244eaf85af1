//! The per-session engine: resident graph, resident scratch, optional
//! dynamic matcher, unified work accounting.
//!
//! One [`SessionEngine`] lives behind each connection's worker. Its
//! [`PipelineScratch`] survives across requests, so the session's second
//! and later `solve`s hit the zero-allocation steady state the scratch
//! arena exists for — and because every pipeline entry point runs the
//! same implementation, a warm in-daemon solve is byte-identical to a
//! one-shot CLI solve for the same graph and seed.

use crate::protocol::{ErrorCode, QueryWhat, Request, UpdateOp, WireError, PROTOCOL_VERSION};
use rand::{rngs::StdRng, SeedableRng};
use sparsimatch_core::backend::BackendKind;
use sparsimatch_core::edcs::{approx_mcm_via_edcs_with_scratch_metered, EdcsParams};
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_core::pipeline::approx_mcm_via_sparsifier_with_scratch_metered;
use sparsimatch_core::scratch::PipelineScratch;
use sparsimatch_dynamic::adversary::Update;
use sparsimatch_dynamic::scheme::DynamicMatcher;
use sparsimatch_graph::csr::{CsrGraph, CsrScratch, GraphBuilder};
use sparsimatch_graph::generators::{family_from_spec, family_size_estimate};
use sparsimatch_graph::ids::VertexId;
use sparsimatch_graph::io::{MAX_EDGES, MAX_VERTICES};
use sparsimatch_obs::{keys, Json, WorkMeter};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters shared between a session's engine and the I/O layer around
/// it (the reader thread rejects overloads without ever reaching the
/// engine, but `metrics` must still report them).
#[derive(Debug, Default)]
pub struct SharedStats {
    /// Requests dropped by admission control.
    pub overloaded: AtomicU64,
    /// Lines rejected before reaching the engine (parse/too-deep/too-large).
    pub wire_errors: AtomicU64,
    /// Requests answered `timeout`: shed unexecuted past their deadline,
    /// or executed but finished after it (late result discarded).
    pub timed_out: AtomicU64,
}

/// Daemon-wide gauges shared by every session of a unix-socket daemon,
/// so any session's `metrics` can report the lifecycle state of the
/// whole process. Stdio sessions have no daemon; their `metrics` report
/// the single-session equivalents.
#[derive(Debug, Default)]
pub struct DaemonStats {
    /// Sessions currently holding a slot.
    pub sessions_active: AtomicU64,
    /// Sessions evicted by the idle/LRU policy since the daemon started.
    pub sessions_evicted: AtomicU64,
}

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Worker threads for each pipeline solve (1..=64).
    pub threads: usize,
    /// Backend a `solve` uses when the request names none
    /// (`serve --backend`).
    pub backend: BackendKind,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 1,
            backend: BackendKind::Delta,
        }
    }
}

const COMMANDS: [&str; 6] = [
    "load_graph",
    "solve",
    "update",
    "query",
    "metrics",
    "shutdown",
];

/// A session's resident state. See the module docs.
pub struct SessionEngine {
    threads: usize,
    default_backend: BackendKind,
    graph: Option<CsrGraph>,
    scratch: PipelineScratch,
    dynamic: Option<DynamicMatcher>,
    /// The CSR snapshot a dynamic session's `solve` runs on: the last
    /// solve's graph, which `edits` bring up to the matcher's, or, when
    /// `snapshot_held` is false, a stale graph to lay out afresh from the
    /// matcher's adjacency list.
    snapshot: CsrScratch,
    snapshot_held: bool,
    /// The update ops applied since the snapshot was laid out. The log
    /// holds at most as many ops as the snapshot has edges: past that it
    /// is dropped with the snapshot, and the next solve lays the graph
    /// out afresh.
    edits: Vec<UpdateOp>,
    meter: WorkMeter,
    stats: Arc<SharedStats>,
    /// Pairs of the last static solve, kept in a reusable buffer so
    /// `query what=pairs` does not re-run anything (and so the steady
    /// state stays allocation-free once the buffer has grown).
    last_pairs: Vec<(u32, u32)>,
    last_solve_size: Option<u64>,
    solves: u64,
    command_counts: [u64; COMMANDS.len()],
    daemon: Option<Arc<DaemonStats>>,
}

impl SessionEngine {
    /// A fresh session with no resident graph.
    pub fn new(cfg: EngineConfig) -> Self {
        SessionEngine {
            threads: cfg.threads,
            default_backend: cfg.backend,
            graph: None,
            scratch: PipelineScratch::new(),
            dynamic: None,
            snapshot: CsrScratch::new(),
            snapshot_held: false,
            edits: Vec::new(),
            meter: WorkMeter::new(),
            stats: Arc::new(SharedStats::default()),
            last_pairs: Vec::new(),
            last_solve_size: None,
            solves: 0,
            command_counts: [0; COMMANDS.len()],
            daemon: None,
        }
    }

    /// The stats block the surrounding I/O layer should increment.
    pub fn shared_stats(&self) -> Arc<SharedStats> {
        Arc::clone(&self.stats)
    }

    /// Attach the daemon-wide gauges this session's `metrics` should
    /// mirror (unix-socket mode; stdio sessions report defaults).
    pub fn set_daemon_stats(&mut self, daemon: Arc<DaemonStats>) {
        self.daemon = Some(daemon);
    }

    /// Total solves this session has run (used by tests to assert the
    /// warm path was exercised).
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// Handle one request, returning the `result` body on success.
    pub fn handle(&mut self, request: &Request) -> Result<Json, WireError> {
        let slot = COMMANDS
            .iter()
            .position(|c| *c == request.command_name())
            .expect("every request maps to a command slot");
        self.command_counts[slot] += 1;
        match request {
            Request::LoadGraph {
                n,
                edges,
                family,
                seed,
            } => self.load_graph(*n, edges, family.as_deref(), *seed),
            Request::Solve {
                beta,
                eps,
                seed,
                pairs,
                backend,
                edcs,
            } => self.solve(*beta, *eps, *seed, *pairs, *backend, edcs),
            Request::Update {
                ops,
                beta,
                eps,
                seed,
            } => self.update(ops, *beta, *eps, *seed),
            Request::Query { what } => self.query(*what),
            Request::Metrics => Ok(self.metrics()),
            Request::Shutdown { daemon } => {
                let mut body = Json::object();
                body.set("stopping", if *daemon { "daemon" } else { "session" });
                Ok(body)
            }
        }
    }

    fn load_graph(
        &mut self,
        n: usize,
        edges: &[(u32, u32)],
        family: Option<&str>,
        seed: u64,
    ) -> Result<Json, WireError> {
        let g = match family {
            Some(spec) => {
                // The parse layer caps only the explicit-edges path; a
                // family spec can describe a graph astronomically larger
                // than its request (`clique` on 10^6 vertices is ~5·10^11
                // edges), so check the analytic size estimate against the
                // same input caps *before* generating anything.
                let est = family_size_estimate(spec, n)
                    .map_err(|e| WireError::new(ErrorCode::BadRequest, e.to_string()))?;
                if est.vertices > MAX_VERTICES as u128 || est.edges > MAX_EDGES as u128 {
                    return Err(WireError::new(
                        ErrorCode::TooLarge,
                        format!(
                            "family {spec:?} on {n} vertices generates ~{} vertices and \
                             ~{} edges, over the caps of {MAX_VERTICES} / {MAX_EDGES}",
                            est.vertices, est.edges
                        ),
                    ));
                }
                let mut rng = StdRng::seed_from_u64(seed);
                let g = family_from_spec(spec, n, &mut rng)
                    .map_err(|e| WireError::new(ErrorCode::BadRequest, e.to_string()))?;
                // Randomized estimates are expectations; catch the
                // (concentration-defying) tail after the fact too.
                if g.num_vertices() > MAX_VERTICES || g.num_edges() > MAX_EDGES {
                    return Err(WireError::new(
                        ErrorCode::TooLarge,
                        format!(
                            "family {spec:?} generated {} vertices / {} edges, over the \
                             caps of {MAX_VERTICES} / {MAX_EDGES}",
                            g.num_vertices(),
                            g.num_edges()
                        ),
                    ));
                }
                g
            }
            None => {
                // Duplicate edges make the request ambiguous (was the
                // repetition intended?) — reject, mirroring the edge-list
                // file reader's contract.
                let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(edges.len());
                let mut b = GraphBuilder::with_capacity(n, edges.len());
                for (i, &(u, v)) in edges.iter().enumerate() {
                    let key = if u < v { (u, v) } else { (v, u) };
                    if !seen.insert(key) {
                        return Err(WireError::new(
                            ErrorCode::BadRequest,
                            format!("edges[{i}]: duplicate edge ({u}, {v})"),
                        ));
                    }
                    b.add_edge(VertexId(u), VertexId(v));
                }
                b.build()
            }
        };
        // A new graph invalidates everything derived from the old one.
        self.dynamic = None;
        self.snapshot_held = false;
        self.edits.clear();
        self.last_pairs.clear();
        self.last_solve_size = None;
        let mut body = Json::object();
        body.set("n", g.num_vertices());
        body.set("m", g.num_edges());
        self.graph = Some(g);
        Ok(body)
    }

    fn solve(
        &mut self,
        beta: usize,
        eps: f64,
        seed: u64,
        pairs: bool,
        backend: Option<BackendKind>,
        edcs: &EdcsParams,
    ) -> Result<Json, WireError> {
        // Solve reflects dynamic updates: snapshot the matcher's current
        // graph if one exists, else use the resident static graph. The
        // snapshot is the last one with the updates since merged in, or,
        // when none is held, laid out from the adjacency list.
        let g: &CsrGraph = match (&self.dynamic, &self.graph) {
            (Some(dm), _) => {
                let snapshot = if self.snapshot_held {
                    self.snapshot.rebuild_edited(&self.edits)
                } else {
                    dm.graph().to_csr_in(&mut self.snapshot)
                };
                self.snapshot_held = true;
                self.edits.clear();
                snapshot
            }
            (None, Some(g)) => g,
            (None, None) => {
                return Err(WireError::new(
                    ErrorCode::NoGraph,
                    "solve before load_graph",
                ))
            }
        };
        let backend = backend.unwrap_or(self.default_backend);
        let warm = self.solves > 0;
        let result = match backend {
            BackendKind::Delta => {
                let params = SparsifierParams::practical(beta, eps);
                approx_mcm_via_sparsifier_with_scratch_metered(
                    g,
                    &params,
                    seed,
                    self.threads,
                    &mut self.meter,
                    &mut self.scratch,
                )
            }
            // EDCS construction is deterministic; `seed` is ignored by
            // design (the CLI documents the same contract).
            BackendKind::Edcs => approx_mcm_via_edcs_with_scratch_metered(
                g,
                edcs,
                eps,
                self.threads,
                &mut self.meter,
                &mut self.scratch,
            ),
        }
        .map_err(|e| WireError::new(ErrorCode::Internal, e.to_string()))?;
        self.solves += 1;
        self.last_pairs.clear();
        self.last_pairs
            .extend(result.matching.pairs().map(|(u, v)| (u.0, v.0)));
        self.last_solve_size = Some(result.matching.len() as u64);
        let mut body = Json::object();
        body.set("backend", backend.as_str());
        body.set("matching_size", result.matching.len());
        body.set("sparsifier_edges", result.sparsifier.edges);
        body.set("probes", result.probes.total());
        body.set("warm", warm);
        if pairs {
            body.set("pairs", pairs_json(&self.last_pairs));
        }
        Ok(body)
    }

    fn update(
        &mut self,
        ops: &[UpdateOp],
        beta: usize,
        eps: f64,
        seed: u64,
    ) -> Result<Json, WireError> {
        let Some(graph) = &self.graph else {
            return Err(WireError::new(
                ErrorCode::NoGraph,
                "update before load_graph",
            ));
        };
        let n = graph.num_vertices();
        for (i, op) in ops.iter().enumerate() {
            let (UpdateOp::Insert(u, v) | UpdateOp::Delete(u, v)) = *op;
            if u as usize >= n || v as usize >= n {
                return Err(WireError::new(
                    ErrorCode::BadRequest,
                    format!("ops[{i}]: endpoint out of range for n = {n}"),
                ));
            }
            if u == v {
                return Err(WireError::new(
                    ErrorCode::BadRequest,
                    format!("ops[{i}]: self-loop at {u}"),
                ));
            }
        }
        let dm = match &mut self.dynamic {
            Some(dm) => dm,
            None => {
                // First update: stand the Thm 3.5 scheme up on the resident
                // graph in one window solve (unmetered — the work counters
                // track only client-requested updates).
                let params = SparsifierParams::practical(beta, eps);
                self.dynamic
                    .insert(DynamicMatcher::from_graph(graph, params, seed))
            }
        };
        if self.snapshot_held {
            if self.edits.len() + ops.len() > self.snapshot.graph().num_edges() {
                self.snapshot_held = false;
                self.edits.clear();
            } else {
                self.edits.extend_from_slice(ops);
            }
        }
        let mut work = 0u64;
        let mut swapped = 0u64;
        for op in ops {
            let update = match *op {
                UpdateOp::Insert(u, v) => Update::Insert(VertexId(u), VertexId(v)),
                UpdateOp::Delete(u, v) => Update::Delete(VertexId(u), VertexId(v)),
            };
            let report = dm.apply_metered(update, &mut self.meter);
            work += report.work;
            swapped += u64::from(report.swapped);
        }
        let mut body = Json::object();
        body.set("applied", ops.len());
        body.set("matching_size", dm.matching().len());
        body.set("work", work);
        body.set("window_swaps", swapped);
        Ok(body)
    }

    fn query(&self, what: QueryWhat) -> Result<Json, WireError> {
        match what {
            QueryWhat::Status => {
                let mut body = Json::object();
                let (n, m) = match (&self.dynamic, &self.graph) {
                    (Some(dm), _) => (dm.graph().num_vertices(), dm.graph().num_edges()),
                    (None, Some(g)) => (g.num_vertices(), g.num_edges()),
                    (None, None) => {
                        body.set("loaded", false);
                        return Ok(body);
                    }
                };
                body.set("loaded", true);
                body.set("n", n);
                body.set("m", m);
                match (&self.dynamic, self.last_solve_size) {
                    (Some(dm), _) => body.set("matching_size", dm.matching().len()),
                    (None, Some(size)) => body.set("matching_size", size),
                    (None, None) => body.set("matching_size", Json::Null),
                };
                body.set("solves", self.solves);
                body.set("dynamic", self.dynamic.is_some());
                Ok(body)
            }
            QueryWhat::Pairs => {
                if self.graph.is_none() && self.dynamic.is_none() {
                    return Err(WireError::new(
                        ErrorCode::NoGraph,
                        "query pairs before load_graph",
                    ));
                }
                let mut body = Json::object();
                match &self.dynamic {
                    Some(dm) => {
                        let pairs: Vec<(u32, u32)> =
                            dm.matching().pairs().map(|(u, v)| (u.0, v.0)).collect();
                        body.set("pairs", pairs_json(&pairs));
                    }
                    None => {
                        body.set("pairs", pairs_json(&self.last_pairs));
                    }
                };
                Ok(body)
            }
        }
    }

    fn metrics(&self) -> Json {
        let mut commands = Json::object();
        for (name, count) in COMMANDS.iter().zip(self.command_counts) {
            commands.set(name, count);
        }
        let mut body = Json::object();
        body.set("protocol", PROTOCOL_VERSION);
        body.set("commands", commands);
        body.set("overloaded", self.stats.overloaded.load(Ordering::Relaxed));
        body.set(
            "wire_errors",
            self.stats.wire_errors.load(Ordering::Relaxed),
        );
        body.set(
            "requests_timed_out",
            self.stats.timed_out.load(Ordering::Relaxed),
        );
        // Lifecycle gauges: daemon-wide in unix mode, the single-session
        // equivalents (1 active, 0 evicted) over stdio.
        body.set(
            "sessions_active",
            self.daemon
                .as_ref()
                .map_or(1, |d| d.sessions_active.load(Ordering::Relaxed)),
        );
        body.set(
            "sessions_evicted",
            self.daemon
                .as_ref()
                .map_or(0, |d| d.sessions_evicted.load(Ordering::Relaxed)),
        );
        // Cumulative stream-scan retries recorded by any streamed build
        // metered into this session (0 until one runs).
        body.set("io_retries", self.meter.get(keys::IO_RETRIES));
        body.set(
            "scratch_capacity_bytes",
            self.scratch.capacity_bytes() + self.snapshot.capacity_bytes(),
        );
        // Resident footprint of the loaded graph: the dynamic adjacency
        // list when updates have been applied, the static CSR otherwise,
        // null before any load_graph.
        body.set(
            "graph_memory_bytes",
            match (&self.dynamic, &self.graph) {
                (Some(dm), _) => Json::from(dm.graph().memory_bytes() as u64),
                (None, Some(g)) => Json::from(g.memory_bytes() as u64),
                (None, None) => Json::Null,
            },
        );
        body.set("meter", self.meter.snapshot_counters());
        body
    }
}

fn pairs_json(pairs: &[(u32, u32)]) -> Json {
    Json::Array(
        pairs
            .iter()
            .map(|&(u, v)| Json::Array(vec![Json::from(u64::from(u)), Json::from(u64::from(v))]))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_request;

    fn handle(engine: &mut SessionEngine, line: &str) -> Result<Json, WireError> {
        let env = parse_request(line).expect("test request parses");
        engine.handle(&env.request)
    }

    #[test]
    fn warm_solves_are_byte_identical_to_one_shot() {
        let mut engine = SessionEngine::new(EngineConfig::default());
        handle(
            &mut engine,
            r#"{"id":1,"cmd":"load_graph","n":40,"family":"clique"}"#,
        )
        .unwrap();
        let solve = r#"{"id":2,"cmd":"solve","beta":1,"eps":0.5,"seed":7,"pairs":true}"#;
        let cold = handle(&mut engine, solve).unwrap();
        let warm = handle(&mut engine, solve).unwrap();
        assert_eq!(cold.get("warm").unwrap().as_bool(), Some(false));
        assert_eq!(warm.get("warm").unwrap().as_bool(), Some(true));
        // Warm equals cold field-for-field (besides the warm flag).
        assert_eq!(cold.get("pairs"), warm.get("pairs"));
        assert_eq!(cold.get("matching_size"), warm.get("matching_size"));
        assert_eq!(cold.get("probes"), warm.get("probes"));
        // And both equal the one-shot library pipeline for the same seed.
        let g = sparsimatch_graph::generators::clique(40);
        let params = SparsifierParams::practical(1, 0.5);
        let one_shot =
            sparsimatch_core::pipeline::approx_mcm_via_sparsifier(&g, &params, 7, 1).unwrap();
        let expected: Vec<Json> = one_shot
            .matching
            .pairs()
            .map(|(u, v)| Json::Array(vec![Json::from(u64::from(u.0)), Json::from(u64::from(v.0))]))
            .collect();
        assert_eq!(warm.get("pairs").unwrap().as_array().unwrap(), expected);
    }

    #[test]
    fn edcs_solves_dispatch_by_request_and_session_default() {
        // Explicit backend on the request.
        let mut engine = SessionEngine::new(EngineConfig::default());
        handle(
            &mut engine,
            r#"{"id":1,"cmd":"load_graph","n":40,"family":"clique"}"#,
        )
        .unwrap();
        let solve =
            r#"{"id":2,"cmd":"solve","backend":"edcs","edcs_beta":8,"eps":0.3,"pairs":true}"#;
        let cold = handle(&mut engine, solve).unwrap();
        assert_eq!(cold.get("backend").unwrap().as_str(), Some("edcs"));
        // A 40-clique has a perfect matching and EDCS keeps enough of it.
        assert_eq!(cold.get("matching_size").unwrap().as_u64(), Some(20));
        // Warm solve through the shared scratch arena is identical.
        let warm = handle(&mut engine, solve).unwrap();
        assert_eq!(warm.get("warm").unwrap().as_bool(), Some(true));
        assert_eq!(cold.get("pairs"), warm.get("pairs"));
        // And matches the library entry point.
        let g = sparsimatch_graph::generators::clique(40);
        let params = EdcsParams::new(8, EdcsParams::default_lambda(8)).unwrap();
        let lib = sparsimatch_core::edcs::approx_mcm_via_edcs(&g, &params, 0.3, 1).unwrap();
        assert_eq!(
            cold.get("matching_size").unwrap().as_u64(),
            Some(lib.matching.len() as u64)
        );

        // Session default: a backend-free solve on an edcs-default engine.
        let mut engine = SessionEngine::new(EngineConfig {
            threads: 1,
            backend: BackendKind::Edcs,
        });
        handle(
            &mut engine,
            r#"{"id":1,"cmd":"load_graph","n":40,"family":"clique"}"#,
        )
        .unwrap();
        let body = handle(&mut engine, r#"{"id":2,"cmd":"solve","eps":0.3}"#).unwrap();
        assert_eq!(body.get("backend").unwrap().as_str(), Some("edcs"));
        // ... and an explicit delta request overrides the session default.
        let body = handle(
            &mut engine,
            r#"{"id":3,"cmd":"solve","backend":"delta","beta":1,"eps":0.5}"#,
        )
        .unwrap();
        assert_eq!(body.get("backend").unwrap().as_str(), Some("delta"));
        assert_eq!(body.get("matching_size").unwrap().as_u64(), Some(20));
    }

    #[test]
    fn update_then_solve_reflects_the_mutated_graph() {
        let mut engine = SessionEngine::new(EngineConfig::default());
        handle(
            &mut engine,
            r#"{"id":1,"cmd":"load_graph","n":6,"edges":[[0,1],[2,3]]}"#,
        )
        .unwrap();
        let body = handle(
            &mut engine,
            r#"{"id":2,"cmd":"update","ops":[["insert",4,5]],"beta":1,"eps":0.5}"#,
        )
        .unwrap();
        assert_eq!(body.get("applied").unwrap().as_u64(), Some(1));
        // The window scheme publishes lazily, so the served matching may
        // lag the latest insert; it still meets the (1+ε) guarantee.
        let size = body.get("matching_size").unwrap().as_u64().unwrap();
        assert!((2..=3).contains(&size), "served size {size}");
        let status = handle(&mut engine, r#"{"id":3,"cmd":"query"}"#).unwrap();
        assert_eq!(status.get("m").unwrap().as_u64(), Some(3));
        assert_eq!(status.get("dynamic").unwrap().as_bool(), Some(true));
        let solve = handle(&mut engine, r#"{"id":4,"cmd":"solve","beta":1,"eps":0.5}"#).unwrap();
        assert_eq!(solve.get("matching_size").unwrap().as_u64(), Some(3));
    }

    /// The fields of a `solve` response that depend on the graph solved
    /// (all but `warm`).
    fn solved(body: &Json) -> Vec<Option<Json>> {
        [
            "backend",
            "matching_size",
            "sparsifier_edges",
            "probes",
            "pairs",
        ]
        .map(|key| body.get(key).cloned())
        .to_vec()
    }

    /// A `load_graph` request for `edges` on `n` vertices, inline.
    fn load_line(n: usize, edges: &std::collections::BTreeSet<(u32, u32)>) -> String {
        let pairs: Vec<String> = edges.iter().map(|(u, v)| format!("[{u},{v}]")).collect();
        format!(
            r#"{{"id":0,"cmd":"load_graph","n":{n},"edges":[{}]}}"#,
            pairs.join(",")
        )
    }

    #[test]
    fn dynamic_solves_equal_a_fresh_load_of_the_same_edges() {
        use rand::Rng;
        use sparsimatch_graph::generators::family_from_spec;
        let solves = [
            r#"{"id":1,"cmd":"solve","backend":"delta","beta":2,"eps":0.5,"seed":9,"pairs":true}"#,
            r#"{"id":2,"cmd":"solve","backend":"edcs","edcs_beta":16,"eps":0.5,"pairs":true}"#,
        ];
        let mut rng = StdRng::seed_from_u64(31);
        // Serve's graph, whose snapshot is edited from solve to solve,
        // and a path, whose every third batch outnumbers its edges and so
        // drops the snapshot for a fresh layout.
        for (spec, n) in [("clique-union:2:20", 300), ("path", 40)] {
            let g = family_from_spec(spec, n, &mut rng).unwrap();
            let mut model: std::collections::BTreeSet<(u32, u32)> =
                g.edges().map(|(_, u, v)| (u.0, v.0)).collect();
            let mut engine = SessionEngine::new(EngineConfig::default());
            handle(&mut engine, &load_line(n, &model)).unwrap();
            for batch in 0..9 {
                let size = match (n, batch % 3) {
                    (40, 2) => model.len() + 2,
                    _ => rng.random_range(1..=6),
                };
                // Deletes of present edges, inserts of absent ones, the
                // reverse of both, and ops repeating their predecessor's
                // edge.
                let mut ops = Vec::new();
                let mut last = (0, 1);
                for _ in 0..size {
                    let (u, v) = if rng.random_bool(0.2) {
                        last
                    } else if rng.random_bool(0.4) && !model.is_empty() {
                        *model.iter().nth(rng.random_range(0..model.len())).unwrap()
                    } else {
                        let u = rng.random_range(0..n as u32 - 1);
                        (u, rng.random_range(u + 1..n as u32))
                    };
                    let insert = rng.random_bool(0.5);
                    if insert {
                        model.insert((u, v));
                    } else {
                        model.remove(&(u, v));
                    }
                    let kind = if insert { "insert" } else { "delete" };
                    ops.push(format!(r#"["{kind}",{v},{u}]"#));
                    last = (u, v);
                }
                let update = format!(
                    r#"{{"id":3,"cmd":"update","ops":[{}],"beta":2,"eps":0.5}}"#,
                    ops.join(",")
                );
                handle(&mut engine, &update).unwrap();
                // A batch past the log's bound drops the held snapshot.
                assert_eq!(
                    engine.snapshot_held,
                    batch > 0 && size <= 6,
                    "{spec} {batch}"
                );
                let mut fresh = SessionEngine::new(EngineConfig::default());
                handle(&mut fresh, &load_line(n, &model)).unwrap();
                for solve in solves {
                    let got = handle(&mut engine, solve).unwrap();
                    let want = handle(&mut fresh, solve).unwrap();
                    assert_eq!(solved(&got), solved(&want), "{spec} batch {batch}: {solve}");
                }
                // A second solve replays an empty log.
                let delta = handle(&mut engine, solves[0]).unwrap();
                let edges = delta.get("sparsifier_edges").unwrap().as_u64();
                assert_eq!(edges, Some(model.len() as u64), "{spec}: G_Δ = G");
            }
        }
    }

    #[test]
    fn no_graph_paths_and_duplicate_edges() {
        let mut engine = SessionEngine::new(EngineConfig::default());
        for line in [
            r#"{"id":1,"cmd":"solve"}"#,
            r#"{"id":2,"cmd":"update","ops":[]}"#,
            r#"{"id":3,"cmd":"query","what":"pairs"}"#,
        ] {
            let err = handle(&mut engine, line).unwrap_err();
            assert_eq!(err.code, ErrorCode::NoGraph, "{line}");
        }
        let status = handle(&mut engine, r#"{"id":4,"cmd":"query"}"#).unwrap();
        assert_eq!(status.get("loaded").unwrap().as_bool(), Some(false));
        let err = handle(
            &mut engine,
            r#"{"id":5,"cmd":"load_graph","n":3,"edges":[[0,1],[1,0]]}"#,
        )
        .unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("duplicate edge"), "{}", err.message);
    }

    #[test]
    fn oversized_family_requests_are_rejected_before_generation() {
        let mut engine = SessionEngine::new(EngineConfig::default());
        // The review's memory-DoS probe: a million-vertex clique is
        // ~5*10^11 edges. This must come back too_large (fast), not OOM.
        for line in [
            r#"{"id":1,"cmd":"load_graph","n":1000000,"family":"clique"}"#,
            r#"{"id":2,"cmd":"load_graph","n":1000000,"family":"gnp:0.9"}"#,
            r#"{"id":3,"cmd":"load_graph","n":1000000,"family":"unit-disk:10000000"}"#,
            r#"{"id":4,"cmd":"load_graph","n":100000,"family":"line-gnp:0.5"}"#,
            r#"{"id":5,"cmd":"load_graph","n":1000000,"family":"clique-union:1000:100000"}"#,
        ] {
            let err = handle(&mut engine, line).unwrap_err();
            assert_eq!(err.code, ErrorCode::TooLarge, "{line}");
        }
        // Family params that used to hit generator asserts are clean
        // bad_request errors now.
        for line in [
            r#"{"id":6,"cmd":"load_graph","n":10,"family":"clique-union:0:5"}"#,
            r#"{"id":7,"cmd":"load_graph","n":2,"family":"cycle"}"#,
        ] {
            let err = handle(&mut engine, line).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{line}");
        }
        // In-cap requests still work, including the n = 0 corner.
        handle(
            &mut engine,
            r#"{"id":8,"cmd":"load_graph","n":0,"family":"clique"}"#,
        )
        .unwrap();
        let body = handle(
            &mut engine,
            r#"{"id":9,"cmd":"load_graph","n":1000000,"family":"path"}"#,
        )
        .unwrap();
        assert_eq!(body.get("m").unwrap().as_u64(), Some(999999));
    }

    #[test]
    fn metrics_counts_commands() {
        let mut engine = SessionEngine::new(EngineConfig::default());
        handle(
            &mut engine,
            r#"{"id":1,"cmd":"load_graph","n":10,"family":"path"}"#,
        )
        .unwrap();
        handle(&mut engine, r#"{"id":2,"cmd":"solve","beta":1,"eps":0.5}"#).unwrap();
        engine
            .shared_stats()
            .overloaded
            .fetch_add(3, Ordering::Relaxed);
        let m = handle(&mut engine, r#"{"id":3,"cmd":"metrics"}"#).unwrap();
        assert_eq!(m.get("protocol").unwrap().as_u64(), Some(PROTOCOL_VERSION));
        let commands = m.get("commands").unwrap();
        assert_eq!(commands.get("load_graph").unwrap().as_u64(), Some(1));
        assert_eq!(commands.get("solve").unwrap().as_u64(), Some(1));
        assert_eq!(commands.get("metrics").unwrap().as_u64(), Some(1));
        assert_eq!(m.get("overloaded").unwrap().as_u64(), Some(3));
        assert!(m.get("scratch_capacity_bytes").unwrap().as_u64().unwrap() > 0);
        assert!(m
            .get("meter")
            .unwrap()
            .get("counters")
            .unwrap()
            .get(sparsimatch_obs::keys::DEGREE_PROBES)
            .is_some());
    }

    #[test]
    fn metrics_reports_graph_memory_across_session_states() {
        let mut engine = SessionEngine::new(EngineConfig::default());
        // Before any load_graph there is no graph to measure.
        let m = handle(&mut engine, r#"{"id":1,"cmd":"metrics"}"#).unwrap();
        assert!(matches!(m.get("graph_memory_bytes"), Some(Json::Null)));
        // Static session: the CSR footprint.
        handle(
            &mut engine,
            r#"{"id":2,"cmd":"load_graph","n":100,"family":"path"}"#,
        )
        .unwrap();
        let m = handle(&mut engine, r#"{"id":3,"cmd":"metrics"}"#).unwrap();
        let csr_bytes = m.get("graph_memory_bytes").unwrap().as_u64().unwrap();
        assert!(csr_bytes > 0);
        // Dynamic session: the adjacency-list footprint, which carries
        // per-vertex vectors and the position index and so exceeds the
        // packed CSR for the same edges.
        handle(
            &mut engine,
            r#"{"id":4,"cmd":"update","ops":[["insert",0,2]],"beta":1,"eps":0.5}"#,
        )
        .unwrap();
        let m = handle(&mut engine, r#"{"id":5,"cmd":"metrics"}"#).unwrap();
        let dyn_bytes = m.get("graph_memory_bytes").unwrap().as_u64().unwrap();
        assert!(dyn_bytes > csr_bytes);
    }
}
