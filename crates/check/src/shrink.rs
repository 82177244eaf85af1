//! Automatic counterexample shrinking (ddmin-style).
//!
//! Given a violating instance and a predicate "does the oracle still
//! reject this?", repeatedly drop chunks of edges and updates — halving
//! the chunk size on every pass, delta-debugging style — and finally trim
//! trailing unreferenced vertices, keeping any candidate that still
//! violates. The result is a (locally) minimal instance: removing any
//! single remaining edge or update makes the violation disappear, which
//! is what makes reproducer files readable.
//!
//! The shrinker is generic over the predicate so its own contract —
//! *whatever it returns still violates* — is property-testable against a
//! stub oracle (see `tests/shrink_property.rs`). [`shrink_violation`] is
//! the sweep's predicate around it: the same oracle must still fail the
//! same check.

use crate::instance::CheckInstance;
use crate::oracles::{OracleKind, Violation};
use sparsimatch_graph::analysis::independence::neighborhood_independence_exact;

/// Default cap on predicate evaluations during one shrink.
pub const DEFAULT_CALL_BUDGET: usize = 2000;

/// What the shrinker did, recorded into the reproducer file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShrinkStats {
    /// Oracle (predicate) evaluations spent.
    pub oracle_calls: u64,
    /// Edge count before shrinking.
    pub edges_before: u64,
    /// Edge count after shrinking.
    pub edges_after: u64,
    /// Update count before shrinking.
    pub updates_before: u64,
    /// Update count after shrinking.
    pub updates_after: u64,
}

/// The static oracle's checks whose bounds rest on the β certificate.
const BETA_BOUND_CHECKS: [&str; 3] = ["thm3.1-ratio", "obs2.10-size", "thm2.1-ratio"];

/// Shrink `witness`, on which `oracle` fails check `slug`, keeping a
/// candidate only while the oracle still fails that check; `run` runs the
/// oracle on a candidate. Pinning the check keeps the shrink from
/// wandering into another check's failure instead of a smaller witness
/// of this one.
///
/// For the static checks whose bounds rest on β (`thm3.1-ratio`,
/// `obs2.10-size` and `thm2.1-ratio`), each candidate runs with β raised
/// to its own graph's exact neighborhood independence where that is
/// larger, and with its recorded Δ override. Without that, a clique's
/// smaller subgraphs, whose β exceeds the family's 1, fail the β
/// certificate before they reach the pinned check. The returned instance
/// carries the β it was checked with, so its reproducer replays. Every
/// other check, `beta-certificate` included, shrinks against the recorded
/// β.
pub fn shrink_violation(
    oracle: OracleKind,
    slug: &str,
    witness: &CheckInstance,
    mut run: impl FnMut(&CheckInstance) -> Option<Violation>,
) -> (CheckInstance, ShrinkStats) {
    let recertify = oracle == OracleKind::Static && BETA_BOUND_CHECKS.contains(&slug);
    let as_checked = |c: &CheckInstance| {
        let mut c = c.clone();
        if recertify {
            c.beta = c.beta.max(neighborhood_independence_exact(&c.graph()));
        }
        c
    };
    let (small, stats) = shrink_instance(
        witness,
        |c| run(&as_checked(c)).is_some_and(|v| v.check == slug),
        DEFAULT_CALL_BUDGET,
    );
    (as_checked(&small), stats)
}

/// Shrink `inst` — which must already violate, i.e.
/// `still_violating(inst)` is `true` — while preserving the violation.
/// Returns the smaller instance and the work done. Deterministic: same
/// instance + same predicate behavior, same result.
pub fn shrink_instance(
    inst: &CheckInstance,
    mut still_violating: impl FnMut(&CheckInstance) -> bool,
    call_budget: usize,
) -> (CheckInstance, ShrinkStats) {
    let mut stats = ShrinkStats {
        edges_before: inst.edges.len() as u64,
        updates_before: inst.updates.len() as u64,
        ..ShrinkStats::default()
    };
    let mut calls = 0usize;
    let mut current = inst.clone();

    // Alternate edge and update passes to a fixpoint: removing updates
    // can unlock edge removals and vice versa (not for today's oracles,
    // which use one list each, but the loop is cheap once stable).
    loop {
        let mut progressed = false;
        let (edges, p) = ddmin(
            current.edges.clone(),
            |edges| CheckInstance {
                edges,
                ..current.clone()
            },
            &mut still_violating,
            &mut calls,
            call_budget,
        );
        current.edges = edges;
        progressed |= p;
        let (updates, p) = ddmin(
            current.updates.clone(),
            |updates| CheckInstance {
                updates,
                ..current.clone()
            },
            &mut still_violating,
            &mut calls,
            call_budget,
        );
        current.updates = updates;
        progressed |= p;
        if !progressed || calls >= call_budget {
            break;
        }
    }

    // Trim trailing vertices no surviving edge or update references.
    if let Some(n) = referenced_vertex_bound(&current) {
        if n < current.n && calls < call_budget {
            let candidate = CheckInstance {
                n,
                ..current.clone()
            };
            calls += 1;
            if still_violating(&candidate) {
                current = candidate;
            }
        }
    }

    stats.oracle_calls = calls as u64;
    stats.edges_after = current.edges.len() as u64;
    stats.updates_after = current.updates.len() as u64;
    (current, stats)
}

/// Smallest vertex count covering every referenced id, or `None` when
/// nothing is referenced (an empty instance is not worth re-testing: no
/// oracle rejects an edgeless, update-less graph).
fn referenced_vertex_bound(inst: &CheckInstance) -> Option<usize> {
    use sparsimatch_dynamic::adversary::Update;
    let mut max_id: Option<u32> = None;
    for &(u, v) in &inst.edges {
        max_id = Some(max_id.unwrap_or(0).max(u).max(v));
    }
    for u in &inst.updates {
        let (a, b) = match *u {
            Update::Insert(a, b) | Update::Delete(a, b) => (a.0, b.0),
        };
        max_id = Some(max_id.unwrap_or(0).max(a).max(b));
    }
    max_id.map(|m| m as usize + 1)
}

/// One ddmin sweep over a single list-valued field. `rebuild` produces a
/// candidate instance with the reduced list spliced in; returns the
/// minimized list and whether anything was removed.
fn ddmin<T: Clone>(
    mut items: Vec<T>,
    mut rebuild: impl FnMut(Vec<T>) -> CheckInstance,
    still_violating: &mut impl FnMut(&CheckInstance) -> bool,
    calls: &mut usize,
    call_budget: usize,
) -> (Vec<T>, bool) {
    let mut progressed = false;
    if items.is_empty() {
        return (items, progressed);
    }
    let mut chunk = items.len().div_ceil(2);
    loop {
        let mut removed_at_this_granularity = false;
        let mut i = 0;
        while i < items.len() {
            if *calls >= call_budget {
                return (items, progressed);
            }
            let end = (i + chunk).min(items.len());
            let mut candidate = Vec::with_capacity(items.len() - (end - i));
            candidate.extend_from_slice(&items[..i]);
            candidate.extend_from_slice(&items[end..]);
            *calls += 1;
            if still_violating(&rebuild(candidate.clone())) {
                items = candidate;
                removed_at_this_granularity = true;
                progressed = true;
                // Keep `i`: the next chunk has shifted into this position.
            } else {
                i = end;
            }
        }
        if chunk == 1 {
            if !removed_at_this_granularity {
                break;
            }
        } else {
            chunk = (chunk / 2).max(1);
        }
    }
    (items, progressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{CheckConfig, Scenario};
    use sparsimatch_graph::analysis::independence::neighborhood_independence_at_most;

    fn instance_with_edges(n: usize, edges: Vec<(u32, u32)>) -> CheckInstance {
        CheckInstance {
            family: "stub".to_string(),
            n,
            beta: 1,
            eps: 0.5,
            delta: None,
            algo_seed: 0,
            edges,
            updates: Vec::new(),
        }
    }

    #[test]
    fn shrinks_to_the_single_guilty_edge() {
        let edges: Vec<(u32, u32)> = (0..20u32).map(|i| (i, i + 20)).collect();
        let inst = instance_with_edges(40, edges);
        // The "bug" is triggered by one specific edge.
        let guilty = (7u32, 27u32);
        let pred = |c: &CheckInstance| c.edges.contains(&guilty);
        assert!(pred(&inst));
        let (small, stats) = shrink_instance(&inst, pred, DEFAULT_CALL_BUDGET);
        assert_eq!(small.edges, vec![guilty]);
        assert_eq!(stats.edges_before, 20);
        assert_eq!(stats.edges_after, 1);
        assert!(stats.oracle_calls > 0);
        // Vertex trim: ids above 27 are gone.
        assert_eq!(small.n, 28);
    }

    #[test]
    fn respects_the_call_budget() {
        let edges: Vec<(u32, u32)> = (0..64u32).map(|i| (i, i + 64)).collect();
        let inst = instance_with_edges(128, edges.clone());
        let mut seen = 0usize;
        let (out, stats) = shrink_instance(
            &inst,
            |c| {
                seen += 1;
                c.edges.contains(&(0, 64))
            },
            5,
        );
        assert!(stats.oracle_calls <= 6, "{}", stats.oracle_calls);
        assert_eq!(seen as u64, stats.oracle_calls);
        assert!(out.edges.contains(&(0, 64)), "must still violate");
    }

    #[test]
    fn conjunction_of_two_edges_survives() {
        let edges: Vec<(u32, u32)> = (0..16u32).map(|i| (i, i + 16)).collect();
        let inst = instance_with_edges(32, edges);
        let pred = |c: &CheckInstance| c.edges.contains(&(2, 18)) && c.edges.contains(&(13, 29));
        let (small, _) = shrink_instance(&inst, pred, DEFAULT_CALL_BUDGET);
        assert_eq!(small.edges.len(), 2);
        assert!(pred(&small));
    }

    #[test]
    fn clique_ratio_witness_shrinks_below_its_family_certificate() {
        // `--oracle static --delta 1 --bound-eps 0.05`, seed 8: a 210-edge
        // clique that every edge removal takes past the family's β = 1.
        let cfg = CheckConfig {
            bound_eps: Some(0.05),
            delta: Some(1),
            backend: None,
            oracle: Some(OracleKind::Static),
        };
        let scenario = Scenario::generate(8, &cfg);
        let check = |c: &CheckInstance| OracleKind::Static.check(c, &cfg);
        let violation = check(&scenario.instance).expect("seed 8 violates");
        assert_eq!(violation.check, "thm2.1-ratio");
        assert_eq!(
            (scenario.instance.family.as_str(), scenario.instance.beta),
            ("clique", 1)
        );
        let (small, stats) = shrink_violation(
            OracleKind::Static,
            &violation.check,
            &scenario.instance,
            check,
        );
        assert_eq!(stats.edges_before, 210);
        assert!(stats.edges_after <= 20, "{stats:?}");
        assert_eq!(small.delta, Some(1), "the Δ override is kept");
        assert!(neighborhood_independence_at_most(
            &small.graph(),
            small.beta
        ));
        let again = check(&small).expect("the shrunk instance still violates");
        assert_eq!(again.check, "thm2.1-ratio");
    }
}
