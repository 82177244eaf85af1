#![warn(missing_docs)]

//! Matching algorithms for the `sparsimatch` workspace.
//!
//! * [`matching::Matching`] — the shared matching representation (mate
//!   array) with validity / maximality / approximation audits.
//! * [`greedy`] — greedy *maximal* matching (the classic
//!   2-approximation).
//! * [`hopcroft_karp`] — exact maximum matching on bipartite graphs.
//! * [`blossom`] — Edmonds' blossom algorithm: exact maximum matching on
//!   general graphs; the ground truth for every experiment.
//! * [`bounded_aug`] — `(1 + 1/k)`-approximate maximum matching on general
//!   graphs by eliminating augmenting paths of length ≤ 2k−1: the
//!   "standard (1+ε)-approximate MCM algorithm" the paper runs on its
//!   sparsifier (substituted for Micali–Vazirani; see DESIGN.md §4).
//! * [`assadi_solomon`] — the ICALP'19 sublinear-probe maximal matching,
//!   the baseline Theorem 3.1 improves upon.

pub mod assadi_solomon;
pub mod blossom;
pub mod bounded_aug;
pub mod greedy;
pub mod hopcroft_karp;
pub mod karp_sipser;
pub mod matching;
pub mod verify;

pub use matching::Matching;
