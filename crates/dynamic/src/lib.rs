#![warn(missing_docs)]

//! Fully dynamic `(1+ε)`-approximate maximum matching (Theorem 3.5).
//!
//! The scheme combines the random sparsifier with the Gupta–Peng stability
//! window (Lemma 3.4): a `(1+ε/4)`-approximate matching computed at update
//! step `t` stays `(1+ε)`-approximate for the next `⌊ε/4·|M_t|⌋` steps,
//! provided edges deleted from the graph are pruned from it (an O(1)
//! operation per deletion). The static `(1+ε/4)` computation over the
//! sparsifier costs `O(|MCM|·(β/ε²)·log(1/ε))` work (Theorem 3.1), which
//! amortizes — and, time-sliced across the window, *worst-cases* — to
//! `O((β/ε³)·log(1/ε))` per update. Crucially the approximation guarantee
//! survives an **adaptive** adversary: each static computation uses fresh
//! randomness on a snapshot the adversary had already committed to, and the
//! window re-use argument (Lemma 3.4) is deterministic.
//!
//! Modules:
//! * [`scheme`] — the Theorem 3.5 matcher with explicit work accounting,
//!   started edgeless or stood up on a loaded graph in one window solve;
//! * [`sliced`] — the one static window solve, resumable under a work
//!   budget, and the worst-case matcher that steps it once per update;
//! * [`adversary`] — oblivious and adaptive update streams over a β-bounded
//!   host graph;
//! * [`baselines`] — naive full recompute and a Barenboim–Maimon-style
//!   `O(√(βn))` dynamic maximal matching comparator;
//! * [`harness`] — drives streams, records per-update work, audits the
//!   approximation ratio against exact recomputation.
//!
//! Against an *oblivious* adversary no window is needed: redrawing the
//! two endpoints' marks at each update keeps `G_Δ` itself, in `O(Δ)`
//! worst-case work. That maintainer is core's
//! [`sparsimatch_core::maintained::MaintainedSparsifier`], shared with the
//! dynamic distributed model.

pub mod adversary;
pub mod baselines;
pub mod harness;
pub mod scheme;
pub mod sliced;

pub use adversary::{Adversary, StreamAdversary, Update};
pub use scheme::{DynamicMatcher, UpdateReport};
pub use sliced::{SlicedComputation, WorstCaseDynamicMatcher};
