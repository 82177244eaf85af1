//! Retry-path parity property: for *arbitrary* graphs and *arbitrary*
//! recoverable I/O fault plans, the streamed build under retries is
//! byte-identical to the fault-free streamed build and the in-memory
//! build — chaos cannot change the sparsifier, only the work accounting.
//!
//! The accounting itself is pinned exactly: `edges_scanned` must equal
//! the fault-free `4m` plus two half-edges for every edge an *aborted*
//! attempt delivered before dying, and `io_retries` must equal the
//! number of aborted attempts — both derived independently here by
//! replaying the pure fault schedule, not read back from the build.

use proptest::prelude::*;
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_core::sparsifier::build_sparsifier;
use sparsimatch_core::stream_build::{
    build_sparsifier_streamed, build_sparsifier_streamed_with_retry, RetryPolicy,
};
use sparsimatch_graph::csr::from_edges;
use sparsimatch_graph::edge_stream::{
    FaultyEdgeSource, InjectedIoFault, IoFaultPlan, IoFaultRates,
};

const N: usize = 24;

fn arb_edges() -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0..N, 0..N), 0..120)
}

fn arb_rates() -> impl Strategy<Value = IoFaultRates> {
    // Percent-valued rates: the local proptest shim has no f64 ranges.
    (0u32..90, 0u32..90, 0u32..90, 0u32..90).prop_map(
        |(eio, short_read, torn_line, header_mutation)| IoFaultRates {
            eio: eio as f64 / 100.0,
            short_read: short_read as f64 / 100.0,
            torn_line: torn_line as f64 / 100.0,
            header_mutation: header_mutation as f64 / 100.0,
        },
    )
}

/// Replay the pure fault schedule the way the two-pass build consumes
/// it: attempts burn off the shared counter until a pass sees a clean
/// one. Returns `(io_retries, edges_scanned)` the build must report.
fn expected_accounting(plan: &IoFaultPlan, m: usize) -> (u64, u64) {
    let mut retries = 0u64;
    let mut half_edges = 0u64;
    let mut attempt = 0u64;
    for _pass in 0..2 {
        loop {
            let fault = plan.fault_for_attempt(attempt, m);
            attempt += 1;
            match fault {
                None => {
                    half_edges += 2 * m as u64;
                    break;
                }
                Some(f) => {
                    retries += 1;
                    let delivered = match f {
                        InjectedIoFault::Eio { after }
                        | InjectedIoFault::ShortRead { after }
                        | InjectedIoFault::TornLine { after } => after,
                        InjectedIoFault::HeaderMutation => 0,
                    };
                    half_edges += 2 * delivered as u64;
                }
            }
        }
    }
    (retries, half_edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn recoverable_faults_cannot_change_the_build(
        edges in arb_edges(),
        rates in arb_rates(),
        plan_seed in any::<u64>(),
        horizon in 1u64..4,
        delta in 1usize..4,
        seed in any::<u64>(),
    ) {
        let g = from_edges(N, edges);
        let p = SparsifierParams::with_delta(2, 0.5, delta);
        // `horizon` faulted attempts at most, `horizon + 1` attempts per
        // pass: a clean attempt is guaranteed inside the budget, so the
        // plan is recoverable by construction.
        let plan = IoFaultPlan::new(plan_seed, rates).with_horizon(horizon);
        let policy = RetryPolicy::attempts(horizon as u32 + 1);

        let (clean, clean_report) =
            build_sparsifier_streamed(&mut g.clone(), &p, seed).unwrap();
        let mut faulty = FaultyEdgeSource::new(g.clone(), plan);
        let (recovered, report) =
            build_sparsifier_streamed_with_retry(&mut faulty, &p, seed, &policy).unwrap();
        let mem = build_sparsifier(&g, &p, seed, 1, None).unwrap();

        prop_assert_eq!(&recovered.graph, &clean.graph, "recovered vs fault-free streamed");
        prop_assert_eq!(&recovered.graph, &mem.graph, "recovered vs in-memory");
        prop_assert_eq!(recovered.stats.marks_placed, clean.stats.marks_placed);
        prop_assert_eq!(recovered.stats.edges, clean.stats.edges);

        // Fault-free accounting is exactly 4m; the faulted run is that
        // plus the aborted prefixes, both derived from the pure schedule.
        let m = g.num_edges();
        prop_assert_eq!(clean_report.edges_scanned, 4 * m as u64);
        prop_assert_eq!(clean_report.io_retries, 0);
        let (want_retries, want_scanned) = expected_accounting(&plan, m);
        prop_assert_eq!(report.io_retries, want_retries);
        prop_assert_eq!(report.edges_scanned, want_scanned);
        prop_assert_eq!(faulty.stats().total(), want_retries);

        // Everything the reports share besides work accounting agrees.
        prop_assert_eq!(report.peak_resident_bytes, clean_report.peak_resident_bytes);
        prop_assert_eq!(report.sparsifier_bytes, clean_report.sparsifier_bytes);
        prop_assert_eq!(report.probes, clean_report.probes);
    }
}
