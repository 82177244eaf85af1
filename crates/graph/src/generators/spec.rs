//! Textual family specs, e.g. `clique-union:2:100` or `gnp:0.05`.
//!
//! One parser shared by every frontend that accepts a family by name —
//! the `sparsimatch generate` subcommand and the serve daemon's
//! `load_graph` request — so the spec grammar cannot drift between them,
//! and one size check ([`check_family_size`]) that both run before
//! generating, so neither can be asked for a graph past the input caps.

use super::{
    clique, clique_union, cycle, gnp, line_graph, path, unit_disk, CliqueUnionConfig,
    UnitDiskConfig,
};
use crate::csr::CsrGraph;
use crate::io::{MAX_EDGES, MAX_VERTICES};
use rand::Rng;

/// Why a family spec was rejected.
///
/// The variants matter to frontends: an [`UnknownFamily`] is a usage
/// error (the user asked for something that does not exist), a
/// [`BadValue`] names a family we know but with an unusable parameter,
/// and a [`TooLarge`] one whose graph would pass the input caps.
///
/// [`UnknownFamily`]: FamilySpecError::UnknownFamily
/// [`BadValue`]: FamilySpecError::BadValue
/// [`TooLarge`]: FamilySpecError::TooLarge
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FamilySpecError {
    /// The leading family name (or its arity) is not one we generate.
    UnknownFamily(String),
    /// A parameter failed to parse or is semantically invalid
    /// (non-finite, out-of-range probability, non-positive degree).
    BadValue(String),
    /// The estimated graph exceeds [`MAX_VERTICES`] or [`MAX_EDGES`]
    /// (only [`check_family_size`] returns it).
    TooLarge(String),
}

impl std::fmt::Display for FamilySpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FamilySpecError::UnknownFamily(m)
            | FamilySpecError::BadValue(m)
            | FamilySpecError::TooLarge(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for FamilySpecError {}

fn require_probability(name: &str, p: f64) -> Result<(), FamilySpecError> {
    if p.is_finite() && (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        Err(FamilySpecError::BadValue(format!(
            "{name} must be a probability in [0, 1], got {p}"
        )))
    }
}

fn require_positive(name: &str, x: f64) -> Result<(), FamilySpecError> {
    if x.is_finite() && x > 0.0 {
        Ok(())
    } else {
        Err(FamilySpecError::BadValue(format!(
            "{name} must be a finite positive number, got {x}"
        )))
    }
}

fn require_at_least(name: &str, x: usize, min: usize) -> Result<(), FamilySpecError> {
    if x >= min {
        Ok(())
    } else {
        Err(FamilySpecError::BadValue(format!(
            "{name} must be at least {min}, got {x}"
        )))
    }
}

/// Build a graph on `n` vertices from a family spec.
///
/// Recognized specs (`:`-separated):
///
/// * `clique`
/// * `clique-union:<layers>:<clique_size>`
/// * `unit-disk:<avg_degree>`
/// * `gnp:<p>`
/// * `line-gnp:<p>`
/// * `path`
/// * `cycle`
///
/// Randomized families draw from `rng`; deterministic shapes ignore it.
pub fn family_from_spec(
    spec: &str,
    n: usize,
    rng: &mut impl Rng,
) -> Result<CsrGraph, FamilySpecError> {
    let bad =
        |e: std::num::ParseIntError| FamilySpecError::BadValue(format!("family {spec:?}: {e}"));
    let bad_f =
        |e: std::num::ParseFloatError| FamilySpecError::BadValue(format!("family {spec:?}: {e}"));
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        ["clique"] => Ok(clique(n)),
        ["clique-union", layers, size] => {
            let diversity: usize = layers.parse().map_err(bad)?;
            let clique_size: usize = size.parse().map_err(bad)?;
            require_at_least("clique-union layers", diversity, 1)?;
            require_at_least("clique-union clique size", clique_size, 2)?;
            Ok(clique_union(
                CliqueUnionConfig {
                    n,
                    diversity,
                    clique_size,
                },
                rng,
            ))
        }
        ["unit-disk", deg] => {
            let avg: f64 = deg.parse().map_err(bad_f)?;
            require_positive("unit-disk average degree", avg)?;
            Ok(unit_disk(
                UnitDiskConfig::with_expected_degree(n, 1.0, avg),
                rng,
            ))
        }
        ["gnp", p] => {
            let p: f64 = p.parse().map_err(bad_f)?;
            require_probability("gnp edge probability", p)?;
            Ok(gnp(n, p, rng))
        }
        ["line-gnp", p] => {
            let p: f64 = p.parse().map_err(bad_f)?;
            require_probability("line-gnp edge probability", p)?;
            Ok(line_graph(&gnp(n, p, rng)))
        }
        ["path"] => Ok(path(n)),
        ["cycle"] => {
            require_at_least("cycle length", n, 3)?;
            Ok(cycle(n))
        }
        _ => Err(FamilySpecError::UnknownFamily(format!(
            "unknown family {spec:?}"
        ))),
    }
}

/// Size estimate for the graph [`family_from_spec`] would build.
///
/// The counts are exact for deterministic shapes and *expectations* for
/// randomized families (`clique-union` gets an exact upper bound).
/// `vertices` differs from `n` only for `line-gnp`, whose vertex count
/// is the base graph's edge count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct FamilySizeEstimate {
    /// Vertices of the generated graph.
    vertices: u128,
    /// Edges: exact or expected, per the family.
    edges: u128,
}

/// Estimate the size of [`family_from_spec`]'s output without building
/// anything.
///
/// [`check_family_size`] holds this against the input caps. Accepts and
/// rejects exactly the specs [`family_from_spec`] does (same grammar,
/// same parameter validation), which a test in this module pins.
fn family_size_estimate(spec: &str, n: usize) -> Result<FamilySizeEstimate, FamilySpecError> {
    let bad =
        |e: std::num::ParseIntError| FamilySpecError::BadValue(format!("family {spec:?}: {e}"));
    let bad_f =
        |e: std::num::ParseFloatError| FamilySpecError::BadValue(format!("family {spec:?}: {e}"));
    // Expectations are computed in f64 and converted with the saturating
    // float-to-int cast, so absurd parameters overflow toward u128::MAX
    // (and get rejected by the caller's cap) instead of wrapping.
    let sat = |x: f64| x.ceil().max(0.0) as u128;
    let n128 = n as u128;
    let nf = n as f64;
    let all_pairs = n128 * n128.saturating_sub(1) / 2;
    let parts: Vec<&str> = spec.split(':').collect();
    let (vertices, edges) = match parts.as_slice() {
        ["clique"] => (n128, all_pairs),
        ["clique-union", layers, size] => {
            let diversity: usize = layers.parse().map_err(bad)?;
            let clique_size: usize = size.parse().map_err(bad)?;
            require_at_least("clique-union layers", diversity, 1)?;
            require_at_least("clique-union clique size", clique_size, 2)?;
            // Per layer each vertex gains at most clique_size - 1
            // neighbors; layers may overlap, so this is an upper bound.
            (
                n128,
                (diversity as u128) * n128 * (clique_size as u128 - 1) / 2,
            )
        }
        ["unit-disk", deg] => {
            let avg: f64 = deg.parse().map_err(bad_f)?;
            require_positive("unit-disk average degree", avg)?;
            (n128, sat(nf * avg / 2.0))
        }
        ["gnp", p] => {
            let p: f64 = p.parse().map_err(bad_f)?;
            require_probability("gnp edge probability", p)?;
            (n128, sat(all_pairs as f64 * p))
        }
        ["line-gnp", p] => {
            let p: f64 = p.parse().map_err(bad_f)?;
            require_probability("line-gnp edge probability", p)?;
            // L(G) has one vertex per base edge and one edge per path of
            // length 2 in the base: E[Σ_v C(deg v, 2)] = n·C(n-1, 2)·p².
            let m0 = sat(all_pairs as f64 * p);
            let wedges = nf * (nf - 1.0).max(0.0) * (nf - 2.0).max(0.0) / 2.0 * p * p;
            (m0, sat(wedges))
        }
        ["path"] => (n128, n128.saturating_sub(1)),
        ["cycle"] => {
            require_at_least("cycle length", n, 3)?;
            (n128, n128)
        }
        _ => {
            return Err(FamilySpecError::UnknownFamily(format!(
                "unknown family {spec:?}"
            )))
        }
    };
    Ok(FamilySizeEstimate { vertices, edges })
}

/// Refuse a spec whose analytic size estimate (exact for deterministic
/// shapes, an expectation for randomized ones) exceeds the input caps
/// ([`MAX_VERTICES`], [`MAX_EDGES`]), or that [`family_from_spec`] would
/// reject, without generating anything.
///
/// Every frontend that generates a family on a caller's `n` runs this
/// first, so a `clique` on 10⁶ vertices is refused up front instead of
/// materializing ~5·10¹¹ edges. Randomized estimates are expectations:
/// a frontend that must hold the caps exactly checks the generated graph
/// as well.
pub fn check_family_size(spec: &str, n: usize) -> Result<(), FamilySpecError> {
    let est = family_size_estimate(spec, n)?;
    if est.vertices > MAX_VERTICES as u128 || est.edges > MAX_EDGES as u128 {
        return Err(FamilySpecError::TooLarge(format!(
            "family {spec:?} on {n} vertices generates ~{} vertices and ~{} edges, \
             over the caps of {MAX_VERTICES} / {MAX_EDGES}",
            est.vertices, est.edges
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn error_classification() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            family_from_spec("nonsense", 5, &mut rng),
            Err(FamilySpecError::UnknownFamily(_))
        ));
        // Known family, wrong arity: also unknown (the spec as a whole).
        assert!(matches!(
            family_from_spec("clique:3", 5, &mut rng),
            Err(FamilySpecError::UnknownFamily(_))
        ));
        assert!(matches!(
            family_from_spec("clique-union:x:3", 5, &mut rng),
            Err(FamilySpecError::BadValue(_))
        ));
        for spec in [
            "gnp:NaN",
            "gnp:1.5",
            "gnp:-0.1",
            "unit-disk:0",
            "clique-union:0:5",
            "clique-union:2:1",
        ] {
            assert!(
                matches!(
                    family_from_spec(spec, 5, &mut rng),
                    Err(FamilySpecError::BadValue(_))
                ),
                "{spec}"
            );
        }
        // A 2-cycle is rejected, not an assert failure.
        assert!(matches!(
            family_from_spec("cycle", 2, &mut rng),
            Err(FamilySpecError::BadValue(_))
        ));
    }

    #[test]
    fn estimate_matches_grammar_and_bounds_actual_sizes() {
        let mut rng = StdRng::seed_from_u64(3);
        // Same accept/reject decisions as family_from_spec, and for
        // accepted specs the estimate is exact (deterministic families)
        // or an upper bound within small-sample noise (randomized ones,
        // checked with 4x slack on the expectation).
        let specs = [
            "clique",
            "clique-union:2:10",
            "unit-disk:4",
            "gnp:0.2",
            "line-gnp:0.15",
            "path",
            "cycle",
            "nonsense",
            "clique:3",
            "clique-union:x:3",
            "clique-union:0:5",
            "gnp:1.5",
            "unit-disk:0",
        ];
        for spec in specs {
            for n in [0usize, 1, 2, 3, 40] {
                let est = family_size_estimate(spec, n);
                let got = family_from_spec(spec, n, &mut rng);
                match (&est, &got) {
                    (Ok(est), Ok(g)) => {
                        if !spec.starts_with("line-gnp") {
                            assert_eq!(est.vertices, g.num_vertices() as u128, "{spec} n={n}");
                        }
                        let slack = if spec.contains(':') && !spec.starts_with("clique-union") {
                            4
                        } else {
                            1
                        };
                        assert!(
                            g.num_edges() as u128 <= slack * est.edges.max(8),
                            "{spec} n={n}: {} edges vs estimate {}",
                            g.num_edges(),
                            est.edges
                        );
                    }
                    (Err(ea), Err(eb)) => assert_eq!(
                        std::mem::discriminant(ea),
                        std::mem::discriminant(eb),
                        "{spec} n={n}"
                    ),
                    _ => panic!("{spec} n={n}: estimate {est:?} vs generate {got:?}"),
                }
            }
        }
    }

    #[test]
    fn size_check_refuses_specs_over_the_caps() {
        assert_eq!(check_family_size("clique", 1000), Ok(()));
        for (spec, n) in [("clique", 100_000), ("path", MAX_VERTICES + 1)] {
            let err = check_family_size(spec, n);
            assert!(matches!(err, Err(FamilySpecError::TooLarge(_))), "{spec}");
        }
        let err = check_family_size("gnp:2", 5);
        assert!(matches!(err, Err(FamilySpecError::BadValue(_))));
    }

    #[test]
    fn deterministic_estimates_are_exact() {
        let mut rng = StdRng::seed_from_u64(4);
        for (spec, n) in [("clique", 13usize), ("path", 9), ("cycle", 9)] {
            let est = family_size_estimate(spec, n).unwrap();
            let g = family_from_spec(spec, n, &mut rng).unwrap();
            assert_eq!(est.vertices, g.num_vertices() as u128, "{spec}");
            assert_eq!(est.edges, g.num_edges() as u128, "{spec}");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let build = |spec: &str| {
            let mut rng = StdRng::seed_from_u64(9);
            family_from_spec(spec, 40, &mut rng).unwrap()
        };
        for spec in ["clique-union:2:10", "gnp:0.2", "unit-disk:4"] {
            let (a, b) = (build(spec), build(spec));
            assert_eq!(a.num_edges(), b.num_edges(), "{spec}");
        }
    }
}
