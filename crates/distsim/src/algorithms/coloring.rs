//! Deterministic distributed vertex coloring in `O(log* n)` rounds.
//!
//! Linial's iterated color reduction: vertices start with their ids as
//! colors (`n` colors) and repeatedly map color `c` — read as a degree-`d`
//! polynomial over `F_q`, with `q > d·Δ` prime and `q^{d+1} ≥ k` — to a
//! point `(x, p_c(x))` that no neighbor's polynomial passes through. Two
//! distinct degree-`d` polynomials agree on at most `d` points, so the at
//! most `Δ` neighbors rule out at most `d·Δ < q` of the `q` candidate
//! points, and a free point always exists; properness is preserved because
//! the new color of `v` is explicitly avoided by construction in each
//! neighbor's point set. Each step takes one round and squashes `k` colors
//! to `q² = O((dΔ)²)`; iterating is the classic `log* n`-round schedule.
//! A final greedy phase retires one color class per round down to `Δ+1`.

use crate::network::{Inboxes, Incoming, Net};

/// A proper vertex coloring computed by the protocol.
#[derive(Clone, Debug)]
pub struct Coloring {
    /// Color of each vertex, in `0..num_colors`.
    pub colors: Vec<u64>,
    /// Number of colors.
    pub num_colors: u64,
}

/// Smallest prime ≥ `x` (trial division; inputs are small).
fn next_prime(x: u64) -> u64 {
    let mut c = x.max(2);
    'outer: loop {
        let mut d = 2;
        while d * d <= c {
            if c.is_multiple_of(d) {
                c += 1;
                continue 'outer;
            }
            d += 1;
        }
        return c;
    }
}

/// Pick the polynomial parameters for one Linial step: smallest degree `d`
/// with `q = next_prime(d·Δ + 2)` satisfying `q^{d+1} ≥ k`.
fn step_params(k: u64, max_deg: u64) -> Option<(u32, u64)> {
    for d in 1u32..=64 {
        let q = next_prime(d as u64 * max_deg + 2);
        if (q as u128).checked_pow(d + 1)? >= k as u128 {
            return Some((d, q));
        }
    }
    None
}

/// Evaluate color `c`'s polynomial (base-`q` digits as coefficients) at `x`.
fn poly_eval(c: u64, d: u32, q: u64, x: u64) -> u64 {
    let mut c = c;
    let mut val = 0u64;
    let mut xp = 1u64;
    for _ in 0..=d {
        val = (val + (c % q) * xp) % q;
        c /= q;
        xp = (xp * x) % q;
    }
    val
}

/// The iterated logarithm `log* n` (number of `log2` applications until
/// ≤ 1) — reported alongside round counts in experiment E8.
pub fn log_star(n: usize) -> u32 {
    let mut x = n as f64;
    let mut it = 0;
    while x > 1.0 {
        x = x.log2();
        it += 1;
        if it > 64 {
            break;
        }
    }
    it
}

/// The smallest color in `palette` that no message in `inbox` carries;
/// `used` is working space.
fn first_free(
    inbox: &[Incoming<u64>],
    mut palette: std::ops::Range<u64>,
    used: &mut Vec<u64>,
) -> Option<u64> {
    used.clear();
    used.extend(inbox.iter().map(|&(_, c)| c));
    used.sort_unstable();
    palette.find(|c| used.binary_search(c).is_err())
}

/// Compute a proper coloring with at most `target` colors, where
/// `target ≥ max_degree + 1`. Returns the coloring; rounds/messages are
/// charged to `net`.
///
/// On a faulty transport the round budget is unchanged (every loop is
/// bounded by palette arithmetic, not by convergence), the palette bound
/// `num_colors ≤ max(target, n)` still holds, but properness can be lost:
/// a dropped color broadcast removes a constraint, so two neighbors may
/// pick the same color. Properness is guaranteed only when
/// [`Net::lossless`] holds; validate with [`validate_coloring`].
pub fn linial_coloring<'g>(net: &mut impl Net<'g>, target: u64) -> Coloring {
    let g = net.graph();
    let n = g.num_vertices();
    let max_deg = g.max_degree() as u64;
    assert!(
        target > max_deg,
        "target {target} below max degree + 1 = {}",
        max_deg + 1
    );
    let mut colors: Vec<u64> = (0..n as u64).collect();
    let mut k = n as u64;
    let mut inboxes = Inboxes::new();
    let mut used = Vec::new();

    // Phase 1: Linial squashing, one round per step, O(log* n) steps.
    while k > target {
        let Some((d, q)) = step_params(k, max_deg) else {
            break;
        };
        if q * q >= k {
            break; // no further progress from this step
        }
        let bits = 64 - k.leading_zeros() as u64; // ⌈log k⌉-bit color messages
        net.broadcast_into(colors.iter().map(|&c| (c, bits)), &mut inboxes);
        let mut new_colors = vec![0u64; n];
        for v in 0..n {
            let c = colors[v];
            // Find x with (x, p_c(x)) missed by every neighbor polynomial.
            let mut chosen = None;
            'x: for x in 0..q {
                let val = poly_eval(c, d, q, x);
                for &(_, cu) in inboxes.of(v) {
                    if poly_eval(cu, d, q, x) == val {
                        continue 'x;
                    }
                }
                chosen = Some(x * q + val);
                break;
            }
            new_colors[v] = chosen.expect("q > d·Δ guarantees a free evaluation point");
        }
        colors = new_colors;
        k = q * q;
    }

    // Phase 2: Kuhn–Wattenhofer parallel color-class elimination. Split
    // the palette into groups of 2·target colors; in each round, *every*
    // group simultaneously retires one designated overflow class (a color
    // class is an independent set, and distinct groups recolor into
    // disjoint palettes, so all moves commute). One halving costs `target`
    // rounds, so reaching `target` takes `O(target · log(k/target))`
    // rounds — n-independent beyond the `log* n` of phase 1.
    let t = target;
    while k > t {
        let two_t = 2 * t;
        let bits = 64 - k.leading_zeros() as u64;
        if k <= two_t {
            // Single group: retire the top class, one round each.
            while k > t {
                net.broadcast_into(colors.iter().map(|&c| (c, bits)), &mut inboxes);
                for (v, c) in colors.iter_mut().enumerate() {
                    if *c == k - 1 {
                        *c = first_free(inboxes.of(v), 0..t, &mut used).expect("≤ Δ neighbors");
                    }
                }
                k -= 1;
            }
            break;
        }
        // One halving: rounds step = 0..t retire overflow class
        // `g·2t + t + step` of every group g into the group's low half.
        for step in 0..t {
            net.broadcast_into(colors.iter().map(|&c| (c, bits)), &mut inboxes);
            for (v, c) in colors.iter_mut().enumerate() {
                let g = *c / two_t;
                if *c == g * two_t + t + step {
                    *c = first_free(inboxes.of(v), g * two_t..g * two_t + t, &mut used)
                        .expect("low half has target > Δ slots");
                }
            }
        }
        // Renumber: every color now lies in its group's low half.
        for c in colors.iter_mut().take(n) {
            let g = *c / two_t;
            debug_assert!(*c - g * two_t < t);
            *c = g * t + (*c - g * two_t);
        }
        k = k.div_ceil(two_t) * t;
    }

    debug_assert!(!net.lossless() || is_proper(net, &colors));
    Coloring {
        colors,
        num_colors: k,
    }
}

fn is_proper<'g>(net: &impl Net<'g>, colors: &[u64]) -> bool {
    net.graph()
        .edges()
        .all(|(_, u, v)| colors[u.index()] != colors[v.index()])
}

/// Validate that a coloring is proper and within its declared palette
/// (exposed for tests and experiment audits).
pub fn validate_coloring<'g>(net: &impl Net<'g>, c: &Coloring) -> bool {
    c.colors.len() == net.num_nodes()
        && c.colors.iter().all(|&x| x < c.num_colors)
        && is_proper(net, &c.colors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use sparsimatch_graph::generators::{cycle, gnp, path, star};

    #[test]
    fn primes() {
        assert_eq!(next_prime(2), 2);
        assert_eq!(next_prime(8), 11);
        assert_eq!(next_prime(14), 17);
        assert_eq!(next_prime(1), 2);
    }

    #[test]
    fn log_star_values() {
        assert_eq!(log_star(1), 0);
        assert_eq!(log_star(2), 1);
        assert_eq!(log_star(4), 2);
        assert_eq!(log_star(16), 3);
        assert_eq!(log_star(65536), 4);
        assert_eq!(log_star(100_000), 5);
    }

    #[test]
    fn poly_eval_matches_horner() {
        // c = 2 + 3q + 1q² with q=5, d=2: p(x) = 2 + 3x + x².
        let q = 5;
        let c = 2 + 3 * q + q * q;
        for x in 0..q {
            assert_eq!(poly_eval(c, 2, q, x), (2 + 3 * x + x * x) % q);
        }
    }

    #[test]
    fn colors_path() {
        let g = path(1000);
        let mut net = Network::new(&g);
        let c = linial_coloring(&mut net, 3);
        assert!(validate_coloring(&net, &c));
        assert_eq!(c.num_colors, 3);
    }

    #[test]
    fn colors_cycle() {
        let g = cycle(997);
        let mut net = Network::new(&g);
        let c = linial_coloring(&mut net, 3);
        assert!(validate_coloring(&net, &c));
    }

    #[test]
    fn colors_star() {
        let g = star(200);
        let mut net = Network::new(&g);
        let target = g.max_degree() as u64 + 1;
        let c = linial_coloring(&mut net, target);
        assert!(validate_coloring(&net, &c));
        assert_eq!(c.num_colors, 200, "star needs Δ+1 = 200 target");
    }

    #[test]
    fn colors_random_bounded_degree() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let g = gnp(300, 0.02, &mut rng);
        let mut net = Network::new(&g);
        let target = g.max_degree() as u64 + 1;
        let c = linial_coloring(&mut net, target);
        assert!(validate_coloring(&net, &c));
        assert!(c.num_colors <= target);
    }

    #[test]
    fn rounds_grow_slowly_with_n() {
        // Fixed degree (cycle): rounds should track log* n, i.e. stay tiny
        // while n grows 100x.
        let mut rounds = Vec::new();
        for n in [100usize, 1_000, 10_000] {
            let g = cycle(n);
            let mut net = Network::new(&g);
            let _ = linial_coloring(&mut net, 3);
            rounds.push(net.metrics().rounds);
        }
        assert!(
            rounds[2] <= rounds[0] + 6,
            "rounds {:?} should be log*-flat",
            rounds
        );
    }
}
