//! Sparsifier parameters: from `(β, ε)` to the per-vertex mark count Δ.
//!
//! The proof of Theorem 2.1 (Claim 2.7) fixes `Δ = 20·(β/ε)·ln(24/ε)`.
//! That constant is what makes the union bound close with probability
//! `1 − 1/poly(n)`; in practice far smaller values already sparsify well
//! (experiment E11 quantifies this), so [`SparsifierParams`] carries an
//! explicit scale factor with the paper's value as `scale = 1`.

/// Parameters of the random sparsifier `G_Δ`.
///
/// ```
/// use sparsimatch_core::params::SparsifierParams;
///
/// // Line graphs have β ≤ 2; target a (1+0.25)-approximation.
/// let p = SparsifierParams::practical(2, 0.25);
/// assert!(p.delta >= 1);
/// assert_eq!(p.mark_cap(), 2 * p.delta);
/// // The proof constant is 20x larger:
/// assert!(SparsifierParams::paper(2, 0.25).delta >= 19 * p.delta);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SparsifierParams {
    /// The (bound on the) neighborhood independence number of the input.
    pub beta: usize,
    /// Target approximation slack: the sparsifier preserves the MCM within
    /// `1 + eps` w.h.p.
    pub eps: f64,
    /// Per-vertex number of randomly marked incident edges.
    pub delta: usize,
}

impl SparsifierParams {
    /// The paper's proof constant: `Δ = ⌈20·(β/ε)·ln(24/ε)⌉`.
    pub fn paper(beta: usize, eps: f64) -> Self {
        Self::scaled(beta, eps, 1.0)
    }

    /// A practically sized Δ (scale 1/20 of the proof constant, i.e.
    /// `Δ = ⌈(β/ε)·ln(24/ε)⌉`): experiment E11 shows this already achieves
    /// the `(1+ε)` guarantee on every benchmark family, because the proof's
    /// union bound is loose.
    pub fn practical(beta: usize, eps: f64) -> Self {
        Self::scaled(beta, eps, 1.0 / 20.0)
    }

    /// `Δ = ⌈scale · 20 · (β/ε) · ln(24/ε)⌉`, clamped to ≥ 1.
    pub fn scaled(beta: usize, eps: f64, scale: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "theorem requires 0 < eps < 1");
        assert!(beta >= 1, "beta is at least 1 for any graph with an edge");
        assert!(scale > 0.0);
        let delta = (scale * 20.0 * (beta as f64 / eps) * (24.0 / eps).ln()).ceil() as usize;
        SparsifierParams {
            beta,
            eps,
            delta: delta.max(1),
        }
    }

    /// Explicit Δ (for ablations).
    pub fn with_delta(beta: usize, eps: f64, delta: usize) -> Self {
        assert!(delta >= 1);
        SparsifierParams { beta, eps, delta }
    }

    /// The low-degree threshold of the Section 3.1 construction: vertices
    /// of degree at most `2Δ` mark *all* their incident edges (this is the
    /// tweak that makes deterministic-time sampling work; it at most
    /// doubles the size and arboricity bounds).
    pub fn mark_cap(&self) -> usize {
        2 * self.delta
    }

    /// Observation 2.10 size bound for this construction:
    /// `|E(G_Δ)| ≤ 2·|MCM|·(mark_cap + β)`.
    pub fn size_bound(&self, mcm: usize) -> usize {
        2 * mcm * (self.mark_cap() + self.beta)
    }

    /// The naive size bound `n · mark_cap`.
    pub fn naive_size_bound(&self, n: usize) -> usize {
        n * self.mark_cap()
    }

    /// Observation 2.12 arboricity bound for this construction: every edge
    /// of `G_Δ[U]` is marked by an endpoint in `U` and each vertex marks at
    /// most `mark_cap` edges, so `α(G_Δ) ≤ 2·mark_cap`.
    pub fn arboricity_bound(&self) -> usize {
        2 * self.mark_cap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constant() {
        let p = SparsifierParams::paper(1, 0.5);
        // 20 * (1/0.5) * ln(48) ≈ 40 * 3.871 ≈ 154.9 -> 155.
        assert_eq!(p.delta, 155);
        assert_eq!(p.mark_cap(), 310);
    }

    #[test]
    fn practical_is_twentieth() {
        let paper = SparsifierParams::paper(3, 0.2);
        let prac = SparsifierParams::practical(3, 0.2);
        // Up to rounding: prac ≈ paper / 20.
        assert!(prac.delta >= paper.delta / 20);
        assert!(prac.delta <= paper.delta / 20 + 1);
    }

    #[test]
    fn delta_monotone_in_beta_and_eps() {
        let base = SparsifierParams::paper(2, 0.3).delta;
        assert!(SparsifierParams::paper(4, 0.3).delta > base);
        assert!(SparsifierParams::paper(2, 0.1).delta > base);
    }

    #[test]
    fn bounds_formulae() {
        let p = SparsifierParams::with_delta(3, 0.5, 7);
        assert_eq!(p.mark_cap(), 14);
        assert_eq!(p.size_bound(10), 2 * 10 * (14 + 3));
        assert_eq!(p.naive_size_bound(100), 1400);
        assert_eq!(p.arboricity_bound(), 28);
    }

    #[test]
    #[should_panic]
    fn rejects_eps_one() {
        SparsifierParams::paper(1, 1.0);
    }

    #[test]
    fn delta_never_zero() {
        let p = SparsifierParams::scaled(1, 0.9, 1e-6);
        assert!(p.delta >= 1);
    }
}
