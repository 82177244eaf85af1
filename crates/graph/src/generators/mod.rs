//! Graph families for the experiments.
//!
//! The paper's theorems are parameterized by the neighborhood independence
//! number β, so the generators here come with *certified* β bounds:
//!
//! * [`line_graph`] — β ≤ 2 (the canonical example in the paper);
//! * [`unit_disk`] — β ≤ 5 (geometric packing bound; bounded growth family);
//! * [`clique_union`] — β ≤ k for graphs of diversity k (each vertex in at
//!   most k maximal cliques);
//! * [`clique`] — β = 1, the densest possible instance;
//! * [`clique_minus_edge`] — β = 2, the Lemma 2.13 lower-bound family;
//! * [`two_cliques_bridge`] — the Observation 2.14 instance whose unique
//!   MCM must use a single bridge edge;
//! * [`gnp`], [`bipartite_gnp`] — unstructured random graphs for general
//!   matching tests (β unbounded);
//! * [`power_law`] — preferential-attachment scale-free graphs (β
//!   unbounded), the degree-skew family of the `huge` bench tier;
//! * plus small deterministic shapes ([`path`], [`cycle`], [`star`],
//!   [`complete_bipartite`]) used throughout the test suites.

mod cliques;
mod geometric;
mod interval;
mod line_graph;
mod random;
mod shapes;
mod spec;

pub use cliques::{clique, clique_minus_edge, clique_union, two_cliques_bridge, CliqueUnionConfig};
pub use geometric::{
    build_disk_graph, build_disk_intersection_graph, disk_graph, unit_disk, DiskConfig,
    UnitDiskConfig,
};
pub use interval::{build_unit_interval_graph, proper_interval, proper_interval_with_degree};
pub use line_graph::line_graph;
pub use random::{bipartite_gnp, gnp, power_law, random_matching_instance};
pub use shapes::{complete_bipartite, cycle, path, star};
pub use spec::{check_family_size, family_from_spec, FamilySpecError};
