#![deny(missing_docs)]

//! The SPAA'20 matching sparsifier `G_Δ` and its applications.
//!
//! Given a graph `G` of neighborhood independence number β and a target
//! accuracy ε, every vertex marks `Δ = Θ((β/ε)·log(1/ε))` uniformly random
//! incident edges (all of them if its degree is below the threshold); the
//! marked subgraph `G_Δ` is, with high probability, a `(1+ε)`-matching
//! sparsifier: `|MCM(G)| ≤ (1+ε)·|MCM(G_Δ)|` (Theorem 2.1).
//!
//! Modules:
//!
//! * [`params`] — Δ from (β, ε): the paper's proof constant and practical
//!   scalings.
//! * [`sampler`] — Δ-out-of-deg sampling without replacement over
//!   *read-only* adjacency arrays in deterministic O(Δ) time per vertex,
//!   via the `pos_v` sparse-array emulation of Section 3.1.
//! * [`sparsifier`] — the `G_Δ` construction with size/arboricity
//!   accounting (Observations 2.10 and 2.12).
//! * [`solomon`] — Solomon's ITCS'18 bounded-degree sparsifier for
//!   bounded-arboricity graphs (deterministic, mutual marking).
//! * [`maintained`] — `G_Δ` kept under single-edge updates by redrawing
//!   the two endpoints' marks: the oblivious-adversary dynamic sparsifier
//!   of Section 3.3 and the dynamic distributed model's protocol.
//! * [`pipeline`] — Theorem 3.1 end-to-end: sparsify then run a `(1+ε)`
//!   matching algorithm, in time sublinear in `|E(G)|`.
//! * [`stream_build`] — the same construction out of core: two passes
//!   over a lex-sorted edge stream build a byte-identical `G_Δ` in
//!   `O(n + |E(G_Δ)|)` resident memory, never materializing `G`.
//! * [`scratch`] — reusable scratch arenas giving the repeat-solve paths
//!   (dynamic rebuilds, check sweeps, benchmark loops) a zero-allocation
//!   steady state.
//! * [`lower_bounds`] — the paper's negative results as executable
//!   instances: deterministic marking fails (Lemma 2.13) and exact
//!   preservation fails (Observation 2.14).
//! * [`backend`] — the [`backend::MatchingSparsifier`] contract over
//!   interchangeable sparsifier backends, with the `G_Δ` pipeline as the
//!   `delta` backend (byte-identical to the direct entry points).
//! * [`edcs`] — the Assadi–Bernstein edge-degree constrained subgraph
//!   (arXiv:1811.02009), the second backend: deterministic, smaller for
//!   comparable degree budgets, `3/2 + O(λ)` ratio floor.

pub mod backend;
pub mod edcs;
pub mod lower_bounds;
pub mod maintained;
pub mod params;
pub mod pipeline;
pub mod sampler;
pub mod scratch;
pub mod solomon;
pub mod sparsifier;
pub mod stream_build;

pub use backend::{BackendKind, DeltaBackend, EdcsBackend, MatchingSparsifier};
pub use edcs::{build_edcs, EdcsParams, EdcsParamsError, EdcsStats};
pub use params::SparsifierParams;
pub use pipeline::{
    approx_mcm_via_sparsifier, approx_mcm_via_sparsifier_with_scratch,
    approx_mcm_via_sparsifier_with_scratch_metered, PipelineResult,
};
pub use scratch::PipelineScratch;
pub use sparsifier::{
    build_sparsifier, Sparsifier, SparsifierStats, ThreadCountError, MAX_THREADS,
};
pub use stream_build::{approx_mcm_streamed, build_sparsifier_streamed, StreamBuildReport};
