#![warn(missing_docs)]

//! Synchronous distributed network simulator (LOCAL / CONGEST) with round,
//! message, and bit accounting — plus the distributed algorithms of the
//! SPAA'20 sparsifier paper.
//!
//! The LOCAL and CONGEST models are *defined* as synchronous round/message
//! abstractions, so a round-faithful simulator measures exactly the
//! quantities Theorems 3.2 and 3.3 bound: the number of communication
//! rounds, the number of (unicast) messages, and the bits on the wire.
//!
//! Design: algorithms are written as straight-line Rust against the
//! [`Net`] trait; **all** inter-vertex information flow goes through
//! [`Net::route`] or [`Net::broadcast_into`] (one synchronous round over
//! flat, reused buffers, fully accounted) or through
//! [`Net::charge_gather`] (the standard "collect your radius-r ball" LOCAL
//! primitive, charged r rounds and r·2m messages; the ball content is then
//! read off the master graph — an accounting-faithful simulation shortcut,
//! see DESIGN.md §4.5). One transport implements the trait: [`Network`],
//! which runs each round on one worker by default or on `t`
//! ([`Network::with_threads`]), and injects the faults of a [`FaultPlan`]
//! with optional ack/retry resilience ([`Network::with_resilience`]).
//! Outputs and accounting are the same at every worker count.
//!
//! Algorithms:
//!
//! * [`algorithms::sparsify`] — the one-round random sparsifier `G_Δ` with
//!   1-bit unicast messages (Section 3.2 / Theorem 3.3's message bound);
//! * [`algorithms::solomon`] — the one-round bounded-degree sparsifier;
//! * [`algorithms::coloring`] — Linial-style iterated color reduction:
//!   `O(log* n)` rounds to `O(D²·polylog D)` colors, then one class per
//!   round down to `D+1`;
//! * [`algorithms::matching`] — color-scheduled greedy maximal matching
//!   and bounded-length augmentation on bounded-degree graphs (the
//!   Even–Medina–Ron substitute), with power-graph coloring schedules;
//! * [`algorithms::pipeline`] — Theorem 3.2/3.3 end to end.

pub mod algorithms;
pub mod dynamic_net;
pub mod faults;
pub mod metrics;
pub mod mpc;
pub mod network;
pub mod shard;

pub use faults::{FaultPlan, FaultRates, FaultStats, FaultyNetwork, ResilienceParams};
pub use metrics::Metrics;
pub use network::{Net, Network};
