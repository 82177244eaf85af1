#![warn(missing_docs)]

//! Differential-testing and invariant-checking harness for the
//! `sparsimatch` workspace.
//!
//! The paper's evaluation *is* its theorems — Theorem 2.1's `(1+ε)`
//! sparsification ratio, Observations 2.10/2.12 size and arboricity
//! bounds, Theorem 3.1's end-to-end pipeline ratio, Theorem 3.5's flat
//! per-update work — so this crate exercises those invariants far beyond
//! the fixed experiment grids, with a fully seeded (hence reproducible)
//! random-instance fuzzer and oracle comparison at small `n`, where exact
//! answers are computable:
//!
//! * [`instance`] — the serializable test instance (graph, β certificate,
//!   parameters, optional update stream) and the seeded generator over all
//!   certified workload families plus arbitrary `G(n,p)` with exact
//!   branch-and-bound β audit.
//! * [`oracles`] — the comparators: sequential pipeline vs exact blossom
//!   MCM, sparsifier invariants (subgraph, Obs 2.10 size, Obs 2.12
//!   arboricity, Thm 2.1 ratio), dynamic scheme vs full recompute per
//!   audit under both adversaries, and distsim (perfect + faulty network)
//!   vs the sequential pipeline on the same seed.
//! * [`shrink`] — ddmin-style automatic shrinking: drop edges / updates /
//!   trailing vertices while the violation persists.
//! * [`report`] — byte-stable JSON reproducer files
//!   (`results/check/counterexample-<seed>.json`, schema documented in
//!   EXPERIMENTS.md) and their replay, re-executed by
//!   `sparsimatch check --replay <FILE>`.
//!
//! The binary (`cargo run -p sparsimatch-check`) sweeps a seed budget
//! (default 1000) and exits nonzero if any violation is found, writing a
//! shrunk reproducer per failure. With default parameters the sweep is
//! expected to be clean; tightening the ratio bound below theory (e.g.
//! `--bound-eps 0.05 --delta 1`) demonstrates the full
//! find → shrink → reproduce loop.

pub mod instance;
pub mod oracles;
pub mod report;
pub mod shrink;

pub use instance::{CheckConfig, CheckInstance, Scenario};
pub use oracles::{OracleKind, Violation};
pub use report::{counterexample_doc, replay_str, ReplayReport};
pub use shrink::{shrink_instance, shrink_violation, ShrinkStats};
