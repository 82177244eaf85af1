//! Experiment harness: drive an update stream through a dynamic matcher,
//! record per-update work, and audit the approximation ratio against
//! exact recomputation.

use crate::adversary::Adversary;
use crate::scheme::DynamicMatcher;
use rand::RngCore;
use sparsimatch_matching::blossom::maximum_matching;

/// Summary of a dynamic run.
#[derive(Clone, Debug, Default)]
pub struct RunSummary {
    /// Updates applied.
    pub updates: usize,
    /// Maximum work charged to a single update.
    pub max_work: u64,
    /// Mean work per update.
    pub avg_work: f64,
    /// 99th-percentile work: the sorted sample at rank
    /// `round(0.99·(updates − 1))`, the experiment tables' quantile rule.
    pub p99_work: u64,
    /// Worst audited ratio `|MCM(G_t)| / |M_t|` across audit points
    /// (1.0 when the graph was empty at every audit).
    pub worst_ratio: f64,
    /// Number of audit points.
    pub audits: usize,
}

/// Drive `steps` updates from `adversary` through `matcher`, auditing the
/// ratio every `audit_every` updates (0 = never).
pub fn run_dynamic(
    matcher: &mut DynamicMatcher,
    adversary: &mut dyn Adversary,
    steps: usize,
    audit_every: usize,
    rng: &mut dyn RngCore,
) -> RunSummary {
    let mut works: Vec<u64> = Vec::with_capacity(steps);
    let mut worst_ratio = 1.0f64;
    let mut audits = 0usize;
    for step in 0..steps {
        let update = adversary.next(matcher.matching(), rng);
        let report = matcher.apply(update);
        works.push(report.work);
        if audit_every > 0 && step % audit_every == audit_every - 1 {
            let snapshot = matcher.graph().to_csr();
            let exact = maximum_matching(&snapshot).len();
            audits += 1;
            if exact > 0 {
                let served = matcher.matching().len().max(1);
                worst_ratio = worst_ratio.max(exact as f64 / served as f64);
            }
            assert!(
                matcher.matching().is_valid_for(&snapshot),
                "served matching invalid at step {step}"
            );
        }
    }
    summarize(works, worst_ratio, audits)
}

fn summarize(mut works: Vec<u64>, worst_ratio: f64, audits: usize) -> RunSummary {
    let updates = works.len();
    if updates == 0 {
        return RunSummary::default();
    }
    let total: u64 = works.iter().sum();
    works.sort_unstable();
    RunSummary {
        updates,
        max_work: *works.last().unwrap(),
        avg_work: total as f64 / updates as f64,
        p99_work: works[((updates - 1) as f64 * 0.99).round() as usize],
        worst_ratio,
        audits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{Policy, StreamAdversary};
    use rand::{rngs::StdRng, SeedableRng};
    use sparsimatch_core::params::SparsifierParams;
    use sparsimatch_graph::generators::{clique_union, CliqueUnionConfig};

    fn host(n: usize, rng: &mut StdRng) -> sparsimatch_graph::csr::CsrGraph {
        clique_union(
            CliqueUnionConfig {
                n,
                diversity: 2,
                clique_size: n / 5,
            },
            rng,
        )
    }

    #[test]
    fn oblivious_run_keeps_ratio() {
        let mut rng = StdRng::seed_from_u64(21);
        let h = host(60, &mut rng);
        let mut adv = StreamAdversary::new(&h, Policy::Oblivious { p_insert: 0.7 });
        let params = SparsifierParams::practical(2, 0.5);
        let mut dm = DynamicMatcher::new(60, params, 1);
        let s = run_dynamic(&mut dm, &mut adv, 3000, 250, &mut rng);
        assert_eq!(s.updates, 3000);
        assert!(s.audits >= 10);
        assert!(
            s.worst_ratio < 1.8,
            "ratio {} should stay near 1+eps (greedy floor is 2)",
            s.worst_ratio
        );
    }

    #[test]
    fn adaptive_adversary_does_not_break_ratio() {
        let mut rng = StdRng::seed_from_u64(22);
        let h = host(60, &mut rng);
        let mut adv = StreamAdversary::new(&h, Policy::AdaptiveDeleteMatched { p_insert: 0.65 });
        let params = SparsifierParams::practical(2, 0.4);
        let mut dm = DynamicMatcher::new(60, params, 2);
        let s = run_dynamic(&mut dm, &mut adv, 3000, 250, &mut rng);
        assert!(
            s.worst_ratio < 2.0,
            "adaptive ratio {} blew up",
            s.worst_ratio
        );
    }

    #[test]
    fn summaries_are_coherent() {
        let s = summarize(vec![1, 5, 3, 2, 100], 1.25, 2);
        assert_eq!(s.max_work, 100);
        assert_eq!(s.p99_work, 100);
        assert!((s.avg_work - 22.2).abs() < 1e-9);
        assert_eq!(s.updates, 5);
        assert_eq!(s.worst_ratio, 1.25);
    }

    #[test]
    fn p99_is_not_the_maximum_of_a_hundred() {
        let s = summarize((1..=100).rev().collect(), 1.0, 0);
        assert_eq!(s.max_work, 100);
        assert_eq!(s.p99_work, 99);
    }

    #[test]
    fn empty_run() {
        let s = summarize(vec![], 1.0, 0);
        assert_eq!(s.updates, 0);
        assert_eq!(s.max_work, 0);
    }
}
