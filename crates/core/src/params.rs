//! Sparsifier parameters: from `(β, ε)` to the per-vertex mark count Δ.
//!
//! The proof of Theorem 2.1 (Claim 2.7) fixes `Δ = 20·(β/ε)·ln(24/ε)`.
//! That constant is what makes the union bound close with probability
//! `1 − 1/poly(n)`; in practice far smaller values already sparsify well
//! (experiment E11 quantifies this), so [`SparsifierParams`] carries an
//! explicit scale factor with the paper's value as `scale = 1`.

use sparsimatch_graph::io::MAX_VERTICES;
use std::fmt;

/// Floor on ε. The theorem needs `0 < ε < 1`, and the floor also refuses
/// subnormal-tiny values: Δ grows as `(β/ε)·ln(24/ε)` and the
/// augmentation runs a phase per odd path length up to about `2/ε`, so an
/// un-floored ε lets one request demand unbounded allocation and compute.
pub const MIN_EPS: f64 = 1e-6;

/// Cap on β. A neighborhood-independence bound above the vertex cap
/// cannot describe any admissible graph.
pub const MAX_BETA: usize = MAX_VERTICES;

/// Cap on the derived per-vertex mark count Δ. At `Δ ≥ MAX_VERTICES` the
/// mark cap exceeds any admissible degree, so every edge is kept and a
/// larger Δ only inflates buffers (and `2Δ` may wrap).
pub const MAX_DELTA: usize = MAX_VERTICES;

/// A parameter refused by [`SparsifierParams::try_scaled`] or
/// [`check_eps`]; the message names it and the bound it broke.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParamsError(String);

impl fmt::Display for ParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParamsError {}

/// Displays an `f64` as `{}` does, or as `{:e}` does when the plain form
/// would take more than 24 characters (no `{:e}` form does), so a
/// parameter error stays one short line whatever the input: `1e-300`
/// reads `1e-300`, not a 302-character decimal.
pub(crate) struct Compact(pub(crate) f64);

impl fmt::Display for Compact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let plain = self.0.to_string();
        if plain.len() <= 24 {
            f.write_str(&plain)
        } else {
            write!(f, "{:e}", self.0)
        }
    }
}

/// Check ε against the window `[MIN_EPS, 1)` (NaN fails it too).
pub fn check_eps(eps: f64) -> Result<(), ParamsError> {
    if (MIN_EPS..1.0).contains(&eps) {
        Ok(())
    } else {
        Err(ParamsError(format!(
            "eps must be in [{MIN_EPS}, 1), got {}",
            Compact(eps)
        )))
    }
}

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

    /// [`SparsifierParams::practical`], or why `(β, ε)` is out of bounds
    /// (see [`SparsifierParams::try_scaled`]).
    pub fn try_practical(beta: usize, eps: f64) -> Result<Self, ParamsError> {
        Self::try_scaled(beta, eps, 1.0 / 20.0)
    }

    /// [`SparsifierParams::scaled`] for parameters from a wire request or
    /// a command line: when `1 ≤ β ≤ MAX_BETA`, ε passes [`check_eps`],
    /// the scale is finite and positive and the derived Δ is at most
    /// [`MAX_DELTA`]; otherwise the first bound broken, instead of a
    /// panic or unbounded memory and compute.
    pub fn try_scaled(beta: usize, eps: f64, scale: f64) -> Result<Self, ParamsError> {
        if beta == 0 {
            return Err(ParamsError("beta must be at least 1".into()));
        }
        if beta > MAX_BETA {
            return Err(ParamsError(format!(
                "beta = {beta} exceeds the cap of {MAX_BETA}"
            )));
        }
        check_eps(eps)?;
        if !(scale.is_finite() && scale > 0.0) {
            return Err(ParamsError(format!(
                "scale must be a finite positive number, got {}",
                Compact(scale)
            )));
        }
        let delta = scale * 20.0 * (beta as f64 / eps) * (24.0 / eps).ln();
        if delta > MAX_DELTA as f64 {
            return Err(ParamsError(format!(
                "beta = {beta}, eps = {} derive a per-vertex mark count of \
                 {}, over the cap of {MAX_DELTA}",
                Compact(eps),
                Compact(delta.round())
            )));
        }
        Ok(Self::scaled(beta, eps, scale))
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
    fn checked_params_refuse_what_would_panic_or_wrap() {
        for (beta, eps, scale) in [
            (0, 0.5, 0.05),
            (usize::MAX, 0.5, 0.05),
            (MAX_BETA + 1, 0.5, 0.05),
            (1, 1.0, 0.05),
            (1, 1e-300, 0.05),
            (1, f64::NAN, 0.05),
            (1, 0.5, 0.0),
            (1, 0.5, f64::INFINITY),
            (1, 0.5, 1e300),
            (100_000_000, MIN_EPS, 0.05),
        ] {
            assert!(
                SparsifierParams::try_scaled(beta, eps, scale).is_err(),
                "({beta}, {eps}, {scale})"
            );
        }
        assert_eq!(
            SparsifierParams::try_practical(3, 0.2),
            Ok(SparsifierParams::practical(3, 0.2))
        );
        assert_eq!(
            SparsifierParams::try_scaled(MAX_BETA, 0.999, 1e-6).map(|p| p.beta),
            Ok(MAX_BETA)
        );
        assert!(SparsifierParams::try_practical(1, MIN_EPS).is_ok());
        assert!(check_eps(0.999_999).is_ok() && check_eps(1.0).is_err());
    }

    #[test]
    fn errors_render_extreme_values_in_short_form() {
        let eps_error = |eps: f64| check_eps(eps).unwrap_err().to_string();
        assert_eq!(
            eps_error(1e-300),
            "eps must be in [0.000001, 1), got 1e-300"
        );
        assert_eq!(
            eps_error(1e-7),
            "eps must be in [0.000001, 1), got 0.0000001"
        );
        assert_eq!(eps_error(f64::NAN), "eps must be in [0.000001, 1), got NaN");
        assert_eq!(eps_error(1e300), "eps must be in [0.000001, 1), got 1e300");
        let scaled_error = |eps, scale| {
            SparsifierParams::try_scaled(1, eps, scale)
                .unwrap_err()
                .to_string()
        };
        assert_eq!(
            scaled_error(0.5, -1e300),
            "scale must be a finite positive number, got -1e300"
        );
        let delta = scaled_error(0.5, 1e300);
        assert!(
            delta.ends_with(" of 1.5484804043631565e302, over the cap of 134217728"),
            "{delta}"
        );
        assert!(scaled_error(0.5, 1e6).contains(" of 154848040, over"));
        for eps in [1e-300, f64::MIN_POSITIVE, -f64::MAX, 5e-324] {
            assert!(eps_error(eps).len() <= 60, "{}", eps_error(eps));
        }
        assert!(delta.len() <= 120, "{delta}");
    }

    #[test]
    fn delta_never_zero() {
        let p = SparsifierParams::scaled(1, 0.9, 1e-6);
        assert!(p.delta >= 1);
    }
}
