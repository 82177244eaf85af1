//! Serializable test instances and the seeded generator.
//!
//! A [`CheckInstance`] is everything an oracle needs to run: the graph
//! (as an explicit edge list), its certified β bound, the sparsifier
//! parameters, the algorithm seed, and — for the dynamic oracle — the
//! recorded update stream. Instances serialize to the byte-stable
//! [`Json`] dialect so a failure can be written to disk and replayed
//! later, byte for byte.

use crate::oracles::OracleKind;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use sparsimatch_core::backend::BackendKind;
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_dynamic::adversary::{Adversary, Policy, StreamAdversary, Update};
use sparsimatch_dynamic::scheme::DynamicMatcher;
use sparsimatch_graph::analysis::independence::neighborhood_independence_exact;
use sparsimatch_graph::csr::{from_edges, CsrGraph};
use sparsimatch_graph::generators::{cycle, gnp, path};
use sparsimatch_graph::ids::VertexId;
use sparsimatch_graph::workloads;
use sparsimatch_obs::Json;

/// Harness-wide knobs, settable from the command line. The defaults
/// encode the theory's own bounds; overriding them (tightening
/// `bound_eps` below ε, or forcing a Δ below the proof constant) is how
/// the find → shrink → reproduce loop is demonstrated on purpose.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CheckConfig {
    /// Override the ratio bound the oracles enforce (default: each
    /// instance's own ε, i.e. exactly the theorem statement).
    pub bound_eps: Option<f64>,
    /// Force an explicit Δ on every generated instance instead of the
    /// `SparsifierParams::practical` sizing (used to demonstrate failures
    /// when Δ is below theory).
    pub delta: Option<usize>,
    /// Focus the sweep on one sparsifier backend: every seed runs the
    /// `backend` oracle, restricted to the named backend's sub-checks
    /// (the CI oracle slice for `--backend edcs`). `None` keeps the
    /// normal rotation, whose `backend` slot certifies both.
    pub backend: Option<BackendKind>,
    /// Pin every seed to one oracle instead of the seed rotation (the CI
    /// oracle slice for `--oracle distsim`). A [`CheckConfig::backend`]
    /// filter takes precedence when both are set.
    pub oracle: Option<OracleKind>,
}

/// A self-contained, serializable test instance.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckInstance {
    /// Generating family name (for reports; not needed to replay).
    pub family: String,
    /// Number of vertices.
    pub n: usize,
    /// Certified β bound (audited by the static oracle via exact
    /// branch-and-bound at these sizes).
    pub beta: usize,
    /// Target approximation slack ε.
    pub eps: f64,
    /// Explicit Δ override, or `None` for the practical sizing.
    pub delta: Option<usize>,
    /// Seed for every algorithm run on this instance.
    pub algo_seed: u64,
    /// Edge list of the static graph (empty for dynamic instances, whose
    /// graph is defined by `updates`).
    pub edges: Vec<(u32, u32)>,
    /// Recorded update stream (empty for static/distsim instances).
    pub updates: Vec<Update>,
}

impl CheckInstance {
    /// Materialize the static graph.
    pub fn graph(&self) -> CsrGraph {
        from_edges(
            self.n,
            self.edges.iter().map(|&(u, v)| (u as usize, v as usize)),
        )
    }

    /// The sparsifier parameters this instance runs with.
    pub fn params(&self) -> SparsifierParams {
        match self.delta {
            Some(d) => SparsifierParams::with_delta(self.beta, self.eps, d),
            None => SparsifierParams::practical(self.beta, self.eps),
        }
    }

    /// The ratio bound oracles enforce for this instance under `cfg`:
    /// the theorem's own `ε` unless tightened via
    /// [`CheckConfig::bound_eps`].
    pub fn ratio_bound(&self, cfg: &CheckConfig) -> f64 {
        1.0 + cfg.bound_eps.unwrap_or(self.eps)
    }

    /// Serialize to the reproducer JSON shape (field order is part of the
    /// byte-stability contract; see EXPERIMENTS.md "Counterexample
    /// reproducers").
    pub fn to_json(&self) -> Json {
        let mut doc = Json::object();
        doc.set("family", self.family.as_str());
        doc.set("n", self.n);
        doc.set("beta", self.beta);
        doc.set("eps", self.eps);
        doc.set(
            "delta",
            match self.delta {
                Some(d) => Json::from(d),
                None => Json::Null,
            },
        );
        doc.set("algo_seed", self.algo_seed);
        doc.set(
            "edges",
            Json::Array(
                self.edges
                    .iter()
                    .map(|&(u, v)| Json::Array(vec![Json::from(u as u64), Json::from(v as u64)]))
                    .collect(),
            ),
        );
        doc.set(
            "updates",
            Json::Array(
                self.updates
                    .iter()
                    .map(|u| {
                        let (op, a, b) = match *u {
                            Update::Insert(a, b) => ("+", a.0, b.0),
                            Update::Delete(a, b) => ("-", a.0, b.0),
                        };
                        Json::Array(vec![
                            Json::from(op),
                            Json::from(a as u64),
                            Json::from(b as u64),
                        ])
                    })
                    .collect(),
            ),
        );
        doc
    }

    /// Parse an instance back from [`CheckInstance::to_json`] output.
    pub fn from_json(doc: &Json) -> Result<CheckInstance, String> {
        let str_field = |k: &str| -> Result<String, String> {
            doc.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("instance.{k}: missing or not a string"))
        };
        let u64_field = |k: &str| -> Result<u64, String> {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("instance.{k}: missing or not an unsigned integer"))
        };
        let eps = doc
            .get("eps")
            .and_then(Json::as_f64)
            .ok_or("instance.eps: missing or not a number")?;
        let delta = match doc.get("delta") {
            None | Some(Json::Null) => None,
            Some(d) => Some(
                d.as_u64()
                    .ok_or("instance.delta: not an unsigned integer")? as usize,
            ),
        };
        let n = u64_field("n")?;
        if n > 1 << 32 {
            return Err(format!("instance.n: {n} exceeds the 32-bit vertex ids"));
        }
        // Every endpoint must name a vertex: `n` bounds it, and so 32 bits
        // hold it.
        let vertex = |field: &str, x: u64| -> Result<u32, String> {
            if x < n {
                Ok(x as u32)
            } else {
                Err(format!(
                    "instance.{field}: endpoint {x} is not below n = {n}"
                ))
            }
        };
        let edges_json = doc
            .get("edges")
            .and_then(Json::as_array)
            .ok_or("instance.edges: missing or not an array")?;
        let mut edges = Vec::with_capacity(edges_json.len());
        for e in edges_json {
            let pair = e.as_array().filter(|a| a.len() == 2);
            let (u, v) = pair
                .and_then(|a| Some((a[0].as_u64()?, a[1].as_u64()?)))
                .ok_or("instance.edges: entries must be [u, v] integer pairs")?;
            edges.push((vertex("edges", u)?, vertex("edges", v)?));
        }
        let updates_json = doc
            .get("updates")
            .and_then(Json::as_array)
            .ok_or("instance.updates: missing or not an array")?;
        let mut updates = Vec::with_capacity(updates_json.len());
        for u in updates_json {
            let triple = u.as_array().filter(|a| a.len() == 3);
            let (op, a, b) = triple
                .and_then(|t| Some((t[0].as_str()?, t[1].as_u64()?, t[2].as_u64()?)))
                .ok_or("instance.updates: entries must be [\"+\"|\"-\", u, v] triples")?;
            let (a, b) = (
                VertexId(vertex("updates", a)?),
                VertexId(vertex("updates", b)?),
            );
            updates.push(match op {
                "+" => Update::Insert(a, b),
                "-" => Update::Delete(a, b),
                other => return Err(format!("instance.updates: unknown op {other:?}")),
            });
        }
        Ok(CheckInstance {
            family: str_field("family")?,
            n: n as usize,
            beta: u64_field("beta")? as usize,
            eps,
            delta,
            algo_seed: u64_field("algo_seed")?,
            edges,
            updates,
        })
    }
}

/// One seeded trial: an instance plus the oracle that judges it.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The generator seed (names the reproducer file).
    pub seed: u64,
    /// Which oracle this trial runs.
    pub oracle: OracleKind,
    /// The instance under test.
    pub instance: CheckInstance,
}

/// The ε grid instances draw from. Values below 0.2 make the practical Δ
/// exceed every degree at these sizes (the sparsifier keeps the whole
/// graph), so the grid starts where sparsification actually bites.
const EPS_GRID: [f64; 4] = [0.2, 0.3, 0.4, 0.5];

/// The shortest update stream a dynamic instance records.
pub(crate) const DYNAMIC_MIN_STEPS: usize = 100;

/// A named graph with a certified (or exactly computed) β bound.
fn pick_graph(rng: &mut StdRng, n: usize) -> (String, CsrGraph, usize) {
    match rng.random_range(0..9u32) {
        0 => named(workloads::family_clique(n)),
        1 => named(workloads::family_clique_union(n, rng)),
        2 => named(workloads::family_clique_union4(n, rng)),
        3 => named(workloads::family_line_graph(n, rng)),
        4 => named(workloads::family_unit_disk(n, rng)),
        5 => named(workloads::family_interval(n, rng)),
        6 => named(workloads::family_disk(n, rng)),
        7 => {
            // Arbitrary G(n,p): no family certificate, so β is computed
            // exactly (branch and bound; n is small) and the static
            // oracle's audit re-verifies it.
            let p = 0.08 + 0.4 * rng.random::<f64>();
            let g = gnp(n, p, rng);
            let beta = neighborhood_independence_exact(&g).max(1);
            (format!("gnp:{p:.3}"), g, beta)
        }
        _ => {
            if rng.random_bool(0.5) {
                ("path".to_string(), path(n), 2)
            } else {
                ("cycle".to_string(), cycle(n), 2)
            }
        }
    }
}

fn named(inst: workloads::Instance) -> (String, CsrGraph, usize) {
    (inst.name.to_string(), inst.graph, inst.beta)
}

impl Scenario {
    /// Deterministically generate the trial for `seed`: the oracle
    /// rotates static → dynamic → distsim → scratch → stream →
    /// chaos-stream → backend with the seed, and the instance is drawn
    /// from a seed-derived RNG, so the same `(seed, cfg)` always
    /// produces the same trial. A [`CheckConfig::backend`] filter
    /// replaces the rotation with the `backend` oracle on every seed.
    pub fn generate(seed: u64, cfg: &CheckConfig) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_C0DE_D1FF_F00D);
        let oracle = if cfg.backend.is_some() {
            OracleKind::Backend
        } else if let Some(pinned) = cfg.oracle {
            pinned
        } else {
            match seed % 7 {
                0 => OracleKind::Static,
                1 => OracleKind::Dynamic,
                2 => OracleKind::Distsim,
                3 => OracleKind::Scratch,
                4 => OracleKind::Stream,
                5 => OracleKind::ChaosStream,
                _ => OracleKind::Backend,
            }
        };
        let instance = match oracle {
            // Backend claims need exact-MCM ground truth too, so they
            // share the static oracle's small shapes.
            OracleKind::Static | OracleKind::Backend => static_instance(&mut rng, cfg, 8, 40),
            OracleKind::Distsim => static_instance(&mut rng, cfg, 10, 34),
            // Scratch, stream, and chaos identities are cheap (no
            // exact-MCM ground truth), so they get the larger static
            // shapes.
            OracleKind::Scratch | OracleKind::Stream | OracleKind::ChaosStream => {
                static_instance(&mut rng, cfg, 12, 44)
            }
            OracleKind::Dynamic => dynamic_instance(&mut rng, cfg),
        };
        Scenario {
            seed,
            oracle,
            instance,
        }
    }
}

fn static_instance(
    rng: &mut StdRng,
    cfg: &CheckConfig,
    n_min: usize,
    n_max: usize,
) -> CheckInstance {
    let n = rng.random_range(n_min..=n_max);
    let (family, g, beta) = pick_graph(rng, n);
    let eps = EPS_GRID[rng.random_range(0..EPS_GRID.len())];
    CheckInstance {
        family,
        n: g.num_vertices(),
        beta,
        eps,
        delta: cfg.delta,
        algo_seed: rng.next_u64(),
        edges: g.edges().map(|(_, u, v)| (u.0, v.0)).collect(),
        updates: Vec::new(),
    }
}

fn dynamic_instance(rng: &mut StdRng, cfg: &CheckConfig) -> CheckInstance {
    let n = rng.random_range(10..=26);
    let (mut family, mut host, mut beta) = pick_graph(rng, n);
    if host.num_edges() == 0 {
        // A G(n,p) draw can come out empty at these sizes; the adversary
        // needs a non-empty host.
        (family, host, beta) = ("path".to_string(), path(n), 2);
    }
    let eps = EPS_GRID[rng.random_range(0..EPS_GRID.len())];
    let steps = rng.random_range(DYNAMIC_MIN_STEPS..=200);
    let (policy, policy_name) = if rng.random_bool(0.5) {
        (Policy::Oblivious { p_insert: 0.7 }, "oblivious")
    } else {
        (
            Policy::AdaptiveDeleteMatched { p_insert: 0.7 },
            "adaptive-delete-matched",
        )
    };
    let algo_seed = rng.next_u64();

    // Record the stream by running the adversary against the live matcher
    // (the adaptive policy reads the served matching). Replaying the
    // recorded updates through a fresh matcher with the same seed follows
    // the exact same trajectory, so the oracle sees what the adversary
    // built.
    let inst = CheckInstance {
        family: format!("dyn-{policy_name}:{family}"),
        n: host.num_vertices(),
        beta,
        eps,
        delta: cfg.delta,
        algo_seed,
        edges: Vec::new(),
        updates: Vec::new(),
    };
    let mut matcher = DynamicMatcher::new(inst.n, inst.params(), algo_seed);
    let mut adversary = StreamAdversary::new(&host, policy);
    let mut updates = Vec::with_capacity(steps);
    for _ in 0..steps {
        let u = adversary.next(matcher.matching(), rng);
        matcher.apply(u);
        updates.push(u);
    }
    CheckInstance { updates, ..inst }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = CheckConfig::default();
        for seed in 0..12 {
            let a = Scenario::generate(seed, &cfg);
            let b = Scenario::generate(seed, &cfg);
            assert_eq!(a.oracle, b.oracle, "seed {seed}");
            assert_eq!(a.instance, b.instance, "seed {seed}");
        }
    }

    #[test]
    fn json_roundtrip_is_lossless_and_byte_stable() {
        let cfg = CheckConfig {
            bound_eps: None,
            delta: Some(3),
            backend: None,
            oracle: None,
        };
        for seed in 0..15 {
            let s = Scenario::generate(seed, &cfg);
            let doc = s.instance.to_json();
            let text = doc.to_pretty();
            let parsed = Json::parse(&text).unwrap();
            let back = CheckInstance::from_json(&parsed).unwrap();
            assert_eq!(back, s.instance, "seed {seed}");
            assert_eq!(back.to_json().to_pretty(), text, "seed {seed}");
        }
    }

    #[test]
    fn json_endpoints_outside_the_vertex_set_are_rejected() {
        let s = Scenario::generate(1, &CheckConfig::default());
        let n = s.instance.n as u64;
        assert!(!s.instance.updates.is_empty(), "a dynamic instance");
        let with = |field: &str, entry: Json| {
            let mut doc = s.instance.to_json();
            let mut list = doc.get(field).and_then(Json::as_array).unwrap().to_vec();
            list.push(entry);
            doc.set(field, Json::Array(list));
            CheckInstance::from_json(&doc)
        };
        let pair = |u: u64, v: u64| Json::Array(vec![Json::from(u), Json::from(v)]);
        let update =
            |u: u64, v: u64| Json::Array(vec![Json::from("+"), Json::from(u), Json::from(v)]);
        assert!(with("edges", pair(0, n - 1)).is_ok());
        for bad in [n, n + 5, 1 << 32, u64::MAX] {
            let err = with("edges", pair(0, bad)).unwrap_err();
            assert!(
                err.contains("instance.edges") && err.contains("not below n"),
                "{err}"
            );
            let err = with("edges", pair(bad, 0)).unwrap_err();
            assert!(err.contains("instance.edges"), "{err}");
            let err = with("updates", update(bad, 0)).unwrap_err();
            assert!(
                err.contains("instance.updates") && err.contains("not below n"),
                "{err}"
            );
        }
        let mut doc = s.instance.to_json();
        doc.set("n", (1u64 << 32) + 1);
        assert!(CheckInstance::from_json(&doc)
            .unwrap_err()
            .contains("32-bit"));
    }

    #[test]
    fn oracle_rotation_covers_all_kinds() {
        let cfg = CheckConfig::default();
        let kinds: Vec<OracleKind> = (0..7).map(|s| Scenario::generate(s, &cfg).oracle).collect();
        assert_eq!(
            kinds,
            vec![
                OracleKind::Static,
                OracleKind::Dynamic,
                OracleKind::Distsim,
                OracleKind::Scratch,
                OracleKind::Stream,
                OracleKind::ChaosStream,
                OracleKind::Backend
            ]
        );
    }

    #[test]
    fn backend_filter_forces_the_backend_oracle() {
        let cfg = CheckConfig {
            backend: Some(BackendKind::Edcs),
            ..CheckConfig::default()
        };
        for seed in 0..7 {
            let s = Scenario::generate(seed, &cfg);
            assert_eq!(s.oracle, OracleKind::Backend, "seed {seed}");
            assert!(s.instance.updates.is_empty());
        }
    }

    #[test]
    fn oracle_pin_replaces_the_rotation() {
        let cfg = CheckConfig {
            oracle: Some(OracleKind::Distsim),
            ..CheckConfig::default()
        };
        for seed in 0..7 {
            let s = Scenario::generate(seed, &cfg);
            assert_eq!(s.oracle, OracleKind::Distsim, "seed {seed}");
            assert!(s.instance.updates.is_empty());
        }
        // The backend filter wins when both are set.
        let both = CheckConfig {
            backend: Some(BackendKind::Delta),
            oracle: Some(OracleKind::Distsim),
            ..CheckConfig::default()
        };
        assert_eq!(Scenario::generate(0, &both).oracle, OracleKind::Backend);
    }

    #[test]
    fn dynamic_instances_record_updates_static_record_edges() {
        let cfg = CheckConfig::default();
        let stat = Scenario::generate(0, &cfg).instance;
        assert!(stat.updates.is_empty());
        let dyn_inst = Scenario::generate(1, &cfg).instance;
        assert!(!dyn_inst.updates.is_empty());
        assert!(dyn_inst.edges.is_empty());
    }
}
