//! The serve wire protocol: newline-delimited JSON requests and
//! responses.
//!
//! Every request is one line of JSON — an object carrying an `id` (an
//! unsigned integer the client picks; it is echoed verbatim on the
//! response so clients may pipeline) and a `cmd` naming one of the six
//! commands. Every response is one line of JSON with the echoed `id`,
//! an `ok` flag, and either a `result` object or an `error` object with
//! a stable machine-readable `code` plus a human-readable `message`.
//!
//! The parser behind this module is the hardened [`Json::parse`]: depth
//! is capped at [`MAX_PARSE_DEPTH`](sparsimatch_obs::MAX_PARSE_DEPTH),
//! raw control characters and duplicate object keys are rejected, so a
//! hostile client cannot crash the daemon or smuggle an ambiguous
//! request past it. On top of that, requests are schema-checked with
//! [`sparsimatch_obs::wire`]: unknown fields are errors, and a present
//! field of the wrong type never silently falls back to a default.

use sparsimatch_core::backend::BackendKind;
use sparsimatch_core::edcs::EdcsParams;
use sparsimatch_core::params::{check_eps, SparsifierParams};
use sparsimatch_graph::io::{MAX_EDGES, MAX_VERTICES};
use sparsimatch_obs::{wire, Json, ParseErrorKind};

/// Wire-protocol version, reported by the `metrics` command.
pub const PROTOCOL_VERSION: u64 = 1;

/// Hard cap on one request line, in bytes. Longer lines are answered
/// with a `too_large` error and skipped without buffering them whole.
pub const MAX_REQUEST_BYTES: usize = 8 << 20;

/// Machine-readable error codes (the `error.code` response field).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line is not valid JSON.
    Parse,
    /// The line nests deeper than the parser's depth cap.
    TooDeep,
    /// The line exceeds [`MAX_REQUEST_BYTES`], or a graph payload
    /// exceeds the input caps.
    TooLarge,
    /// Valid JSON, but not a valid request (schema violation, unknown
    /// command, semantically invalid parameter).
    BadRequest,
    /// `solve` / `update` / `query` before any `load_graph`.
    NoGraph,
    /// The session's request queue is full; the request was dropped.
    Overloaded,
    /// The daemon failed internally (e.g. an I/O error mid-response).
    Internal,
    /// The request's deadline passed before a reply could be produced;
    /// it was shed (or its late result discarded) without side effects
    /// on the reply stream beyond this error.
    Timeout,
    /// This session was evicted: it had been idle longest while the
    /// session limit was saturated and a new client was waiting.
    SessionEvicted,
    /// The session or daemon is draining after `shutdown`; the queued
    /// request was shed without being executed.
    ShuttingDown,
}

impl ErrorCode {
    /// The stable string form used on the wire.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Parse => "parse",
            ErrorCode::TooDeep => "too_deep",
            ErrorCode::TooLarge => "too_large",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::NoGraph => "no_graph",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Internal => "internal",
            ErrorCode::Timeout => "timeout",
            ErrorCode::SessionEvicted => "session_evicted",
            ErrorCode::ShuttingDown => "shutting_down",
        }
    }
}

/// A request that was rejected, with the code to put on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Machine-readable class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Construct from a code and message.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
        }
    }

    fn bad(message: impl Into<String>) -> Self {
        WireError::new(ErrorCode::BadRequest, message)
    }
}

/// One edge-mutation operation inside an `update` request: the edit a
/// dynamic session patches into its graph by its next `solve`.
pub use sparsimatch_graph::csr::EdgeEdit as UpdateOp;

/// What a `query` request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryWhat {
    /// Session status: graph shape, current matching size, solve count.
    Status,
    /// The matched pairs of the current matching.
    Pairs,
}

/// A parsed, schema-checked request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Make a graph resident: either an explicit edge list or a family
    /// spec (`family_from_spec` grammar) drawn with `seed`.
    LoadGraph {
        /// Number of vertices.
        n: usize,
        /// Explicit edges (empty when `family` is given).
        edges: Vec<(u32, u32)>,
        /// Family spec, e.g. `"clique-union:2:100"`.
        family: Option<String>,
        /// RNG seed for randomized families.
        seed: u64,
    },
    /// Run the sparsify-and-match pipeline on the resident graph.
    Solve {
        /// Neighborhood-independence bound β (delta backend).
        beta: usize,
        /// Target approximation slack ε.
        eps: f64,
        /// Pipeline RNG seed.
        seed: u64,
        /// Also return the matched pairs, not just the size.
        pairs: bool,
        /// Explicit backend choice; `None` defers to the session default
        /// (`serve --backend`, delta unless overridden).
        backend: Option<BackendKind>,
        /// EDCS parameters, validated at parse time (defaults apply when
        /// the `edcs_beta`/`lambda` fields are absent).
        edcs: EdcsParams,
    },
    /// Apply edge insertions/deletions through the Thm 3.5 dynamic
    /// scheme. `beta`/`eps`/`seed` configure the dynamic matcher when
    /// this session's first `update` stands it up on the resident graph;
    /// later updates ignore them.
    Update {
        /// The operations, applied in order.
        ops: Vec<UpdateOp>,
        /// β for the dynamic matcher (first `update` only).
        beta: usize,
        /// ε for the dynamic matcher (first `update` only).
        eps: f64,
        /// Seed for the dynamic matcher (first `update` only).
        seed: u64,
    },
    /// Read session state without mutating it.
    Query {
        /// Which view.
        what: QueryWhat,
    },
    /// Work-counter snapshot plus per-command totals.
    Metrics,
    /// Stop this session (`scope: "session"`, the default) or the whole
    /// daemon (`scope: "daemon"`, unix-socket mode only).
    Shutdown {
        /// True when the whole daemon should stop accepting connections.
        daemon: bool,
    },
}

impl Request {
    /// The command name, as spelled on the wire (used for per-command
    /// accounting).
    pub fn command_name(&self) -> &'static str {
        match self {
            Request::LoadGraph { .. } => "load_graph",
            Request::Solve { .. } => "solve",
            Request::Update { .. } => "update",
            Request::Query { .. } => "query",
            Request::Metrics => "metrics",
            Request::Shutdown { .. } => "shutdown",
        }
    }
}

/// An `id`-carrying request envelope.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// Client-chosen request id, echoed on the response.
    pub id: u64,
    /// The request itself.
    pub request: Request,
}

fn field_err(e: wire::FieldError) -> WireError {
    WireError::bad(e.to_string())
}

/// Parse one request line. On failure the error carries whatever `id`
/// could still be recovered (so the error response can be correlated);
/// `None` when the line is not even an object with an integer `id`.
pub fn parse_request(line: &str) -> Result<Envelope, (Option<u64>, WireError)> {
    let doc = Json::parse(line).map_err(|e| {
        let code = if e.kind == ParseErrorKind::TooDeep {
            ErrorCode::TooDeep
        } else {
            ErrorCode::Parse
        };
        (None, WireError::new(code, e.to_string()))
    })?;
    wire::as_object(&doc).map_err(|e| (None, field_err(e)))?;
    let id = wire::req_u64(&doc, "id").map_err(|e| (None, field_err(e)))?;
    let request = parse_command(&doc).map_err(|e| (Some(id), e))?;
    Ok(Envelope { id, request })
}

fn parse_command(doc: &Json) -> Result<Request, WireError> {
    let cmd = wire::req_str(doc, "cmd").map_err(field_err)?;
    match cmd {
        "load_graph" => parse_load_graph(doc),
        "solve" => parse_solve(doc),
        "update" => parse_update(doc),
        "query" => parse_query(doc),
        "metrics" => {
            wire::expect_known_fields(doc, &["id", "cmd"]).map_err(field_err)?;
            Ok(Request::Metrics)
        }
        "shutdown" => {
            wire::expect_known_fields(doc, &["id", "cmd", "scope"]).map_err(field_err)?;
            let daemon = match wire::opt_str(doc, "scope").map_err(field_err)? {
                None | Some("session") => false,
                Some("daemon") => true,
                Some(other) => {
                    return Err(WireError::bad(format!(
                        "scope must be \"session\" or \"daemon\", got {other:?}"
                    )))
                }
            };
            Ok(Request::Shutdown { daemon })
        }
        other => Err(WireError::bad(format!("unknown cmd {other:?}"))),
    }
}

fn parse_load_graph(doc: &Json) -> Result<Request, WireError> {
    wire::expect_known_fields(doc, &["id", "cmd", "n", "edges", "family", "seed"])
        .map_err(field_err)?;
    let n64 = wire::req_u64(doc, "n").map_err(field_err)?;
    if n64 > MAX_VERTICES as u64 {
        return Err(WireError::new(
            ErrorCode::TooLarge,
            format!("n = {n64} exceeds the cap of {MAX_VERTICES} vertices"),
        ));
    }
    let n = n64 as usize;
    let seed = wire::opt_u64(doc, "seed", 0).map_err(field_err)?;
    let family = wire::opt_str(doc, "family")
        .map_err(field_err)?
        .map(str::to_string);
    let has_edges = doc.get("edges").is_some();
    if family.is_some() && has_edges {
        return Err(WireError::bad(
            "give either \"edges\" or \"family\", not both",
        ));
    }
    let mut edges = Vec::new();
    if let Some(raw) = doc.get("edges") {
        let raw = raw
            .as_array()
            .ok_or_else(|| WireError::bad("field \"edges\": expected an array"))?;
        if raw.len() > MAX_EDGES {
            return Err(WireError::new(
                ErrorCode::TooLarge,
                format!("{} edges exceeds the cap of {MAX_EDGES}", raw.len()),
            ));
        }
        edges.reserve(raw.len());
        for (i, pair) in raw.iter().enumerate() {
            let err = || WireError::bad(format!("edges[{i}]: expected [u, v] vertex ids below n"));
            let pair = pair.as_array().ok_or_else(err)?;
            if pair.len() != 2 {
                return Err(err());
            }
            let u = pair[0].as_u64().ok_or_else(err)?;
            let v = pair[1].as_u64().ok_or_else(err)?;
            if u >= n as u64 || v >= n as u64 {
                return Err(WireError::bad(format!(
                    "edges[{i}]: endpoint out of range for n = {n}"
                )));
            }
            if u == v {
                return Err(WireError::bad(format!("edges[{i}]: self-loop at {u}")));
            }
            edges.push((u as u32, v as u32));
        }
    } else if family.is_none() {
        return Err(WireError::bad("load_graph needs \"edges\" or \"family\""));
    }
    Ok(Request::LoadGraph {
        n,
        edges,
        family,
        seed,
    })
}

fn parse_solve(doc: &Json) -> Result<Request, WireError> {
    wire::expect_known_fields(
        doc,
        &[
            "id",
            "cmd",
            "beta",
            "eps",
            "seed",
            "pairs",
            "backend",
            "edcs_beta",
            "lambda",
        ],
    )
    .map_err(field_err)?;
    let backend = match wire::opt_str(doc, "backend").map_err(field_err)? {
        None => None,
        Some(name) => Some(BackendKind::parse(name).ok_or_else(|| {
            WireError::bad(format!(
                "backend must be \"delta\" or \"edcs\", got {name:?}"
            ))
        })?),
    };
    let beta = wire::opt_u64(doc, "beta", 2).map_err(field_err)? as usize;
    let eps = wire::opt_f64(doc, "eps", 0.5).map_err(field_err)?;
    // Backend-specific knobs on the wrong backend are schema errors, not
    // silently ignored fields.
    if backend == Some(BackendKind::Delta)
        && (doc.get("edcs_beta").is_some() || doc.get("lambda").is_some())
    {
        return Err(WireError::bad("edcs_beta/lambda require backend \"edcs\""));
    }
    if backend == Some(BackendKind::Edcs) && doc.get("beta").is_some() {
        return Err(WireError::bad(
            "beta is the delta backend's bound; with backend \"edcs\" use edcs_beta",
        ));
    }
    // Validate for whichever backend can run: an explicit edcs choice
    // needs only the shared eps window; otherwise the session default
    // may be delta, so the delta derivation must stay in bounds too.
    if backend == Some(BackendKind::Edcs) {
        check_eps(eps).map_err(|e| WireError::bad(e.to_string()))?;
    } else {
        SparsifierParams::try_practical(beta, eps).map_err(|e| WireError::bad(e.to_string()))?;
    }
    let edcs_beta = wire::opt_u64(doc, "edcs_beta", 16).map_err(field_err)? as usize;
    let lambda = match doc.get("lambda") {
        None => EdcsParams::default_lambda(edcs_beta),
        Some(_) => wire::opt_f64(doc, "lambda", 0.0).map_err(field_err)?,
    };
    let edcs = EdcsParams::new(edcs_beta, lambda).map_err(|e| WireError::bad(e.to_string()))?;
    Ok(Request::Solve {
        beta,
        eps,
        seed: wire::opt_u64(doc, "seed", 0).map_err(field_err)?,
        pairs: wire::opt_bool(doc, "pairs", false).map_err(field_err)?,
        backend,
        edcs,
    })
}

fn parse_update(doc: &Json) -> Result<Request, WireError> {
    wire::expect_known_fields(doc, &["id", "cmd", "ops", "beta", "eps", "seed"])
        .map_err(field_err)?;
    let beta = wire::opt_u64(doc, "beta", 2).map_err(field_err)? as usize;
    let eps = wire::opt_f64(doc, "eps", 0.5).map_err(field_err)?;
    SparsifierParams::try_practical(beta, eps).map_err(|e| WireError::bad(e.to_string()))?;
    let raw = wire::req_array(doc, "ops").map_err(field_err)?;
    let mut ops = Vec::with_capacity(raw.len());
    for (i, op) in raw.iter().enumerate() {
        let err = || WireError::bad(format!("ops[{i}]: expected [\"insert\"|\"delete\", u, v]"));
        let op = op.as_array().ok_or_else(err)?;
        if op.len() != 3 {
            return Err(err());
        }
        let kind = op[0].as_str().ok_or_else(err)?;
        let u = op[1].as_u64().ok_or_else(err)?;
        let v = op[2].as_u64().ok_or_else(err)?;
        if u > u32::MAX as u64 || v > u32::MAX as u64 {
            return Err(WireError::bad(format!("ops[{i}]: vertex id out of range")));
        }
        ops.push(match kind {
            "insert" => UpdateOp::Insert(u as u32, v as u32),
            "delete" => UpdateOp::Delete(u as u32, v as u32),
            _ => return Err(err()),
        });
    }
    Ok(Request::Update {
        ops,
        beta,
        eps,
        seed: wire::opt_u64(doc, "seed", 0).map_err(field_err)?,
    })
}

fn parse_query(doc: &Json) -> Result<Request, WireError> {
    wire::expect_known_fields(doc, &["id", "cmd", "what"]).map_err(field_err)?;
    let what = match wire::opt_str(doc, "what").map_err(field_err)? {
        None | Some("status") => QueryWhat::Status,
        Some("pairs") => QueryWhat::Pairs,
        Some(other) => {
            return Err(WireError::bad(format!(
                "what must be \"status\" or \"pairs\", got {other:?}"
            )))
        }
    };
    Ok(Request::Query { what })
}

/// Render a success response line (no trailing newline).
pub fn ok_response(id: u64, result: Json) -> String {
    let mut doc = Json::object();
    doc.set("id", id);
    doc.set("ok", true);
    doc.set("result", result);
    doc.to_compact()
}

/// Render an error response line (no trailing newline). `id` is `null`
/// when it could not be recovered from the request.
pub fn error_response(id: Option<u64>, code: ErrorCode, message: &str) -> String {
    let mut err = Json::object();
    err.set("code", code.as_str());
    err.set("message", message);
    let mut doc = Json::object();
    match id {
        Some(id) => doc.set("id", id),
        None => doc.set("id", Json::Null),
    };
    doc.set("ok", false);
    doc.set("error", err);
    doc.to_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_command() {
        let cases: Vec<(&str, Request)> = vec![
            (
                r#"{"id":1,"cmd":"load_graph","n":4,"edges":[[0,1],[2,3]]}"#,
                Request::LoadGraph {
                    n: 4,
                    edges: vec![(0, 1), (2, 3)],
                    family: None,
                    seed: 0,
                },
            ),
            (
                r#"{"id":2,"cmd":"load_graph","n":40,"family":"clique","seed":7}"#,
                Request::LoadGraph {
                    n: 40,
                    edges: vec![],
                    family: Some("clique".into()),
                    seed: 7,
                },
            ),
            (
                r#"{"id":3,"cmd":"solve","beta":1,"eps":0.5,"seed":9,"pairs":true}"#,
                Request::Solve {
                    beta: 1,
                    eps: 0.5,
                    seed: 9,
                    pairs: true,
                    backend: None,
                    edcs: EdcsParams::new(16, 0.125).unwrap(),
                },
            ),
            (
                r#"{"id":9,"cmd":"solve","backend":"edcs","edcs_beta":8,"lambda":0.25,"eps":0.3}"#,
                Request::Solve {
                    beta: 2,
                    eps: 0.3,
                    seed: 0,
                    pairs: false,
                    backend: Some(BackendKind::Edcs),
                    edcs: EdcsParams::new(8, 0.25).unwrap(),
                },
            ),
            (
                r#"{"id":10,"cmd":"solve","backend":"delta","beta":1,"eps":0.5}"#,
                Request::Solve {
                    beta: 1,
                    eps: 0.5,
                    seed: 0,
                    pairs: false,
                    backend: Some(BackendKind::Delta),
                    edcs: EdcsParams::new(16, 0.125).unwrap(),
                },
            ),
            (
                r#"{"id":4,"cmd":"update","ops":[["insert",0,1],["delete",0,1]]}"#,
                Request::Update {
                    ops: vec![UpdateOp::Insert(0, 1), UpdateOp::Delete(0, 1)],
                    beta: 2,
                    eps: 0.5,
                    seed: 0,
                },
            ),
            (
                r#"{"id":5,"cmd":"query","what":"pairs"}"#,
                Request::Query {
                    what: QueryWhat::Pairs,
                },
            ),
            (r#"{"id":6,"cmd":"metrics"}"#, Request::Metrics),
            (
                r#"{"id":7,"cmd":"shutdown"}"#,
                Request::Shutdown { daemon: false },
            ),
            (
                r#"{"id":8,"cmd":"shutdown","scope":"daemon"}"#,
                Request::Shutdown { daemon: true },
            ),
        ];
        for (line, want) in cases {
            let env = parse_request(line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
            assert_eq!(env.request, want, "{line}");
        }
    }

    #[test]
    fn error_classification() {
        let code = |line: &str| parse_request(line).unwrap_err().1.code;
        assert_eq!(code("not json"), ErrorCode::Parse);
        assert_eq!(code(&"[".repeat(4096)), ErrorCode::TooDeep);
        assert_eq!(code("[1,2]"), ErrorCode::BadRequest); // not an object
        assert_eq!(code(r#"{"cmd":"metrics"}"#), ErrorCode::BadRequest); // no id
        assert_eq!(
            code(r#"{"id":1,"cmd":"frobnicate"}"#),
            ErrorCode::BadRequest
        );
        assert_eq!(
            code(r#"{"id":1,"cmd":"metrics","extra":1}"#),
            ErrorCode::BadRequest
        );
        assert_eq!(
            code(r#"{"id":1,"cmd":"solve","eps":-1}"#),
            ErrorCode::BadRequest
        );
        assert_eq!(
            code(r#"{"id":1,"cmd":"load_graph","n":268435456}"#),
            ErrorCode::TooLarge
        );
    }

    #[test]
    fn solver_param_bounds() {
        let code = |line: &str| parse_request(line).unwrap_err().1.code;
        // eps = 1 violates SparsifierParams' 0 < eps < 1 precondition:
        // it must die here as bad_request, never reach the assert.
        assert_eq!(
            code(r#"{"id":1,"cmd":"solve","eps":1}"#),
            ErrorCode::BadRequest
        );
        assert_eq!(
            code(r#"{"id":1,"cmd":"update","ops":[],"eps":1}"#),
            ErrorCode::BadRequest
        );
        assert_eq!(
            code(r#"{"id":1,"cmd":"solve","eps":1.5}"#),
            ErrorCode::BadRequest
        );
        // Below the wire floor.
        assert_eq!(
            code(r#"{"id":1,"cmd":"solve","eps":1e-300}"#),
            ErrorCode::BadRequest
        );
        // The review's resource-exhaustion probe: huge beta + tiny eps.
        assert_eq!(
            code(r#"{"id":1,"cmd":"solve","beta":4000000000,"eps":1e-300}"#),
            ErrorCode::BadRequest
        );
        // beta over the vertex cap.
        assert_eq!(
            code(r#"{"id":1,"cmd":"solve","beta":268435456}"#),
            ErrorCode::BadRequest
        );
        // In-cap beta, in-range eps, but the derived delta explodes.
        assert_eq!(
            code(r#"{"id":1,"cmd":"solve","beta":100000000,"eps":0.000001}"#),
            ErrorCode::BadRequest
        );
        // The boundaries themselves are accepted.
        for line in [
            r#"{"id":1,"cmd":"solve","eps":0.000001}"#,
            r#"{"id":1,"cmd":"solve","eps":0.999999}"#,
            r#"{"id":1,"cmd":"update","ops":[],"eps":0.999999}"#,
        ] {
            parse_request(line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
        }
    }

    #[test]
    fn edcs_solver_param_bounds() {
        let err = |line: &str| parse_request(line).unwrap_err().1;
        let code = |line: &str| err(line).code;
        // Unknown backend names are typed errors.
        assert_eq!(
            code(r#"{"id":1,"cmd":"solve","backend":"warp","eps":0.3}"#),
            ErrorCode::BadRequest
        );
        // EDCS invariant violations die at the parse layer: β < 2, λ out
        // of (0, 1), λβ < 1.
        for line in [
            r#"{"id":1,"cmd":"solve","backend":"edcs","edcs_beta":1,"eps":0.3}"#,
            r#"{"id":1,"cmd":"solve","backend":"edcs","edcs_beta":8,"lambda":1.5,"eps":0.3}"#,
            r#"{"id":1,"cmd":"solve","backend":"edcs","edcs_beta":8,"lambda":-0.1,"eps":0.3}"#,
            r#"{"id":1,"cmd":"solve","backend":"edcs","edcs_beta":100,"lambda":0.001,"eps":0.3}"#,
            r#"{"id":1,"cmd":"solve","backend":"edcs","edcs_beta":268435457,"eps":0.3}"#,
        ] {
            assert_eq!(code(line), ErrorCode::BadRequest, "{line}");
        }
        // The eps window applies to the edcs backend too.
        assert_eq!(
            code(r#"{"id":1,"cmd":"solve","backend":"edcs","eps":1}"#),
            ErrorCode::BadRequest
        );
        // Cross-backend knobs are schema errors, not silently ignored.
        assert!(
            err(r#"{"id":1,"cmd":"solve","backend":"delta","edcs_beta":8,"eps":0.3}"#)
                .message
                .contains("require backend")
        );
        assert!(
            err(r#"{"id":1,"cmd":"solve","backend":"edcs","beta":2,"eps":0.3}"#)
                .message
                .contains("use edcs_beta")
        );
        // An explicit edcs backend skips the delta Δ derivation, so a
        // beta-free request with tiny eps is fine where delta's is not.
        parse_request(r#"{"id":1,"cmd":"solve","backend":"edcs","eps":0.000001}"#).unwrap();
        // Valid explicit EDCS knobs round-trip.
        parse_request(
            r#"{"id":1,"cmd":"solve","backend":"edcs","edcs_beta":4,"lambda":0.5,"eps":0.3}"#,
        )
        .unwrap();
    }

    #[test]
    fn id_is_recovered_when_the_command_is_bad() {
        let (id, err) = parse_request(r#"{"id":41,"cmd":"nope"}"#).unwrap_err();
        assert_eq!(id, Some(41));
        assert_eq!(err.code, ErrorCode::BadRequest);
        // ... but not when the document itself is unusable.
        let (id, _) = parse_request("][").unwrap_err();
        assert_eq!(id, None);
    }

    #[test]
    fn load_graph_edge_validation() {
        let err = |line: &str| parse_request(line).unwrap_err().1;
        assert!(err(r#"{"id":1,"cmd":"load_graph","n":2,"edges":[[0,2]]}"#)
            .message
            .contains("out of range"));
        assert!(err(r#"{"id":1,"cmd":"load_graph","n":2,"edges":[[1,1]]}"#)
            .message
            .contains("self-loop"));
        assert!(err(r#"{"id":1,"cmd":"load_graph","n":2}"#)
            .message
            .contains("\"edges\" or \"family\""));
        assert!(
            err(r#"{"id":1,"cmd":"load_graph","n":2,"edges":[[0,1]],"family":"clique"}"#)
                .message
                .contains("not both")
        );
    }

    #[test]
    fn responses_render_compactly() {
        let mut body = Json::object();
        body.set("n", 4u64);
        assert_eq!(
            ok_response(3, body),
            r#"{"id":3,"ok":true,"result":{"n":4}}"#
        );
        assert_eq!(
            error_response(None, ErrorCode::Parse, "bad"),
            r#"{"id":null,"ok":false,"error":{"code":"parse","message":"bad"}}"#
        );
        assert_eq!(
            error_response(Some(9), ErrorCode::Overloaded, "queue full"),
            r#"{"id":9,"ok":false,"error":{"code":"overloaded","message":"queue full"}}"#
        );
    }
}
