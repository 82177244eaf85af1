#![deny(missing_docs)]

//! The resident serve engine behind `sparsimatch serve`.
//!
//! The paper's sparsifier pays off most when the process *stays
//! resident*: the Thm 3.5 dynamic scheme amortizes static recomputation
//! across updates, and the scratch-arena pipeline reaches its
//! zero-allocation steady state only on the second and later solves.
//! Both only exist for a long-running engine, which this crate provides
//! as three layers:
//!
//! * [`protocol`] — the wire format: newline-delimited JSON requests
//!   (`load_graph` / `solve` / `update` / `query` / `metrics` /
//!   `shutdown`) with echoed ids, typed error codes, and strict
//!   schema checking over the hardened [`sparsimatch_obs::Json`]
//!   parser.
//! * [`engine`] — per-session state: the resident graph, the resident
//!   [`PipelineScratch`](sparsimatch_core::scratch::PipelineScratch),
//!   a lazily created
//!   [`DynamicMatcher`](sparsimatch_dynamic::scheme::DynamicMatcher),
//!   and unified work accounting.
//! * [`server`] — the request loop: a reader thread with bounded-queue
//!   admission control (on a unix socket excess load is answered
//!   `overloaded`, never buffered unboundedly; over stdin/stdout the
//!   reader waits for a slot) feeding one worker per session.

pub mod engine;
pub mod protocol;
pub mod server;

pub use engine::{DaemonStats, EngineConfig, SessionEngine};
pub use protocol::{ErrorCode, Request, WireError, MAX_REQUEST_BYTES, PROTOCOL_VERSION};
pub use server::{
    run_session, run_session_ctl, run_stdio_session, serve_stdio, serve_unix, ServeConfig,
    SessionCtl, SessionSummary,
};
