#![warn(missing_docs)]

//! # sparsimatch — matching sparsifiers for bounded neighborhood independence
//!
//! A Rust reproduction of *“A Unified Sparsification Approach for Matching
//! Problems in Graphs of Bounded Neighborhood Independence”* (Milenković &
//! Solomon, SPAA 2020).
//!
//! The headline object is the random matching sparsifier `G_Δ`: every vertex
//! marks `Δ = Θ((β/ε)·log(1/ε))` random incident edges, and w.h.p. the marked
//! subgraph preserves the maximum matching size within `1 + ε`. Because the
//! construction is purely local, it yields:
//!
//! * a **sequential** `(1+ε)`-approximate maximum matching in time *sublinear
//!   in the number of edges* ([`core::pipeline`]),
//! * a **distributed** `(1+ε)`-approximate matching in
//!   `(β/ε)^O(1/ε) + O(1/ε²)·log* n` rounds with sublinear message complexity
//!   ([`distsim`]),
//! * a **fully dynamic** `(1+ε)`-approximate matching with worst-case update
//!   time `O((β/ε³)·log(1/ε))` against adaptive adversaries ([`dynamic`]).
//!
//! This facade crate re-exports the whole workspace; see each sub-crate for
//! details, `DESIGN.md` for the architecture, and `EXPERIMENTS.md` for the
//! reproduced claims.
//!
//! ## Quick start
//!
//! ```
//! use sparsimatch::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! // A dense bounded-β graph: union of 2 clique layers => β ≤ 2.
//! let g = clique_union(CliqueUnionConfig { n: 400, diversity: 2, clique_size: 100 }, &mut rng);
//!
//! // Build the sparsifier and a (1+eps)-approximate matching on it.
//! // Seed 1, four worker threads — the result depends only on the seed.
//! let params = SparsifierParams::practical(2, 0.2);
//! let result = approx_mcm_via_sparsifier(&g, &params, 1, 4).unwrap();
//!
//! let exact = maximum_matching(&g).len();
//! assert!(result.matching.len() as f64 >= exact as f64 / 1.2);
//!
//! // Or build G_Δ alone: vertex v marks from its own stream seeded by
//! // (seed, v), so any thread count gives the same sparsifier.
//! let s = build_sparsifier(&g, &params, 1, 2, None).unwrap();
//! assert!(s.stats.edges < g.num_edges());
//! ```

pub use sparsimatch_core as core;
pub use sparsimatch_distsim as distsim;
pub use sparsimatch_dynamic as dynamic;
pub use sparsimatch_graph as graph;
pub use sparsimatch_matching as matching;
pub use sparsimatch_stream as stream;

/// One-stop imports for applications.
pub mod prelude {
    pub use sparsimatch_core::params::SparsifierParams;
    pub use sparsimatch_core::pipeline::{approx_mcm_via_sparsifier, PipelineResult};
    pub use sparsimatch_core::sparsifier::{build_sparsifier, Sparsifier};
    pub use sparsimatch_graph::generators::{
        bipartite_gnp, clique, clique_minus_edge, clique_union, complete_bipartite, cycle, gnp,
        line_graph, path, star, two_cliques_bridge, unit_disk, CliqueUnionConfig, UnitDiskConfig,
    };
    pub use sparsimatch_graph::{AdjacencyOracle, CsrGraph, GraphBuilder, VertexId};
    pub use sparsimatch_matching::blossom::maximum_matching;
    pub use sparsimatch_matching::bounded_aug::approx_maximum_matching;
    pub use sparsimatch_matching::greedy::greedy_maximal_matching;
    pub use sparsimatch_matching::Matching;
}
