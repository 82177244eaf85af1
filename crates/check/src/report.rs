//! Byte-stable counterexample reproducer files and their replay.
//!
//! A reproducer (`results/check/counterexample-<seed>.json`) is the
//! complete record of a failed trial: the generator seed, the oracle, the
//! (shrunk) instance, the tightened bound the run used (if any), the
//! violation witness, and shrink statistics. The schema is documented in
//! EXPERIMENTS.md ("Counterexample reproducers") and is versioned.
//!
//! **Replay contract.** [`replay_str`] re-runs the named oracle on the
//! stored instance and rebuilds the document from the stored fields plus
//! the freshly computed violation. If the violation reproduces, the
//! rebuilt document is byte-identical to the input — that identity is the
//! strongest possible regression check, and `sparsimatch check --replay`
//! exposes it as an exit code.

use crate::instance::{CheckConfig, CheckInstance};
use crate::oracles::{OracleKind, Violation};
use crate::shrink::ShrinkStats;
use sparsimatch_obs::Json;

/// Version stamp written into every reproducer file.
pub const SCHEMA_VERSION: u64 = 1;

/// Canonical reproducer filename for a generator seed.
pub fn counterexample_filename(seed: u64) -> String {
    format!("counterexample-{seed}.json")
}

/// Build the reproducer document. Field order is fixed — it is part of
/// the byte-stability contract replay relies on.
pub fn counterexample_doc(
    seed: u64,
    oracle: OracleKind,
    inst: &CheckInstance,
    cfg: &CheckConfig,
    violation: &Violation,
    stats: &ShrinkStats,
) -> Json {
    let mut doc = Json::object();
    doc.set("tool", "sparsimatch-check");
    doc.set("schema_version", SCHEMA_VERSION);
    doc.set("seed", seed);
    doc.set("oracle", oracle.name());
    doc.set(
        "bound_eps",
        match cfg.bound_eps {
            Some(e) => Json::from(e),
            None => Json::Null,
        },
    );
    doc.set("instance", inst.to_json());
    let mut v = Json::object();
    v.set("check", violation.check.as_str());
    v.set("message", violation.message.as_str());
    doc.set("violation", v);
    let mut s = Json::object();
    s.set("oracle_calls", stats.oracle_calls);
    s.set("edges_before", stats.edges_before);
    s.set("edges_after", stats.edges_after);
    s.set("updates_before", stats.updates_before);
    s.set("updates_after", stats.updates_after);
    doc.set("shrink", s);
    doc
}

/// Outcome of replaying a reproducer file.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// Generator seed recorded in the file.
    pub seed: u64,
    /// Oracle that judged (and re-judges) the instance.
    pub oracle: OracleKind,
    /// The violation recorded in the file.
    pub recorded: Violation,
    /// The violation the re-run found, if any.
    pub fresh: Option<Violation>,
    /// Whether the re-rendered document matches the input byte for byte
    /// (implies `fresh` reproduces `recorded` exactly).
    pub byte_identical: bool,
}

impl ReplayReport {
    /// Did the violation reproduce at all?
    pub fn reproduced(&self) -> bool {
        self.fresh.is_some()
    }
}

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn u64_field(doc: &Json, key: &str) -> Result<u64, String> {
    field(doc, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} is not an unsigned integer"))
}

fn str_field<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    field(doc, key)?
        .as_str()
        .ok_or_else(|| format!("field {key:?} is not a string"))
}

/// Parse a reproducer and re-execute its oracle. Errors describe schema
/// problems; an oracle that no longer rejects is *not* an error (it is a
/// [`ReplayReport`] with `fresh == None`).
pub fn replay_str(text: &str) -> Result<ReplayReport, String> {
    let doc = Json::parse(text).map_err(|e| format!("reproducer is not valid JSON: {e}"))?;
    if str_field(&doc, "tool")? != "sparsimatch-check" {
        return Err("not a sparsimatch-check reproducer (tool field mismatch)".to_string());
    }
    let version = u64_field(&doc, "schema_version")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "unsupported schema_version {version} (this build reads {SCHEMA_VERSION})"
        ));
    }
    let seed = u64_field(&doc, "seed")?;
    let oracle = OracleKind::from_name(str_field(&doc, "oracle")?)?;
    let bound_eps = match field(&doc, "bound_eps")? {
        Json::Null => None,
        v => Some(
            v.as_f64()
                .ok_or("field \"bound_eps\" is neither null nor a number")?,
        ),
    };
    let inst = CheckInstance::from_json(field(&doc, "instance")?)?;
    let violation_doc = field(&doc, "violation")?;
    let recorded = Violation {
        check: str_field(violation_doc, "check")?.to_string(),
        message: str_field(violation_doc, "message")?.to_string(),
        witness: None,
    };
    let shrink_doc = field(&doc, "shrink")?;
    let stats = ShrinkStats {
        oracle_calls: u64_field(shrink_doc, "oracle_calls")?,
        edges_before: u64_field(shrink_doc, "edges_before")?,
        edges_after: u64_field(shrink_doc, "edges_after")?,
        updates_before: u64_field(shrink_doc, "updates_before")?,
        updates_after: u64_field(shrink_doc, "updates_after")?,
    };

    // The backend filter and oracle pin are deliberately not serialized:
    // both only select *which* oracle runs (the document already names
    // it), never what that oracle checks, so replaying without them
    // re-finds the same first violation while keeping the document schema
    // (and its byte stability) fixed.
    let cfg = CheckConfig {
        bound_eps,
        delta: inst.delta,
        backend: None,
        oracle: None,
    };
    let fresh = oracle.check(&inst, &cfg);
    let byte_identical = match &fresh {
        Some(v) => counterexample_doc(seed, oracle, &inst, &cfg, v, &stats).to_pretty() == text,
        None => false,
    };
    Ok(ReplayReport {
        seed,
        oracle,
        recorded,
        fresh,
        byte_identical,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> (Json, CheckInstance, CheckConfig) {
        let inst = CheckInstance {
            family: "clique".to_string(),
            n: 4,
            beta: 1,
            eps: 0.4,
            delta: Some(1),
            algo_seed: 99,
            edges: vec![(0, 1), (2, 3)],
            updates: Vec::new(),
        };
        let cfg = CheckConfig {
            bound_eps: Some(0.05),
            delta: Some(1),
            backend: None,
            oracle: None,
        };
        let v = Violation {
            check: "stub".to_string(),
            message: "synthetic".to_string(),
            witness: None,
        };
        let doc = counterexample_doc(
            7,
            OracleKind::Static,
            &inst,
            &cfg,
            &v,
            &ShrinkStats::default(),
        );
        (doc, inst, cfg)
    }

    #[test]
    fn doc_has_the_documented_field_order() {
        let (doc, _, _) = sample_doc();
        let text = doc.to_pretty();
        let order = [
            "\"tool\"",
            "\"schema_version\"",
            "\"seed\"",
            "\"oracle\"",
            "\"bound_eps\"",
            "\"instance\"",
            "\"violation\"",
            "\"shrink\"",
        ];
        let mut last = 0;
        for key in order {
            let pos = text.find(key).unwrap_or_else(|| panic!("{key} missing"));
            assert!(pos > last || last == 0, "{key} out of order");
            last = pos;
        }
    }

    #[test]
    fn replay_rejects_foreign_documents() {
        assert!(replay_str("not json").is_err());
        assert!(replay_str("{\"tool\": \"other\"}").is_err());
        let (doc, ..) = sample_doc();
        let mut wrong = doc.clone();
        wrong.set("schema_version", 999u64);
        assert!(replay_str(&wrong.to_pretty())
            .unwrap_err()
            .contains("schema_version"));
    }

    #[test]
    fn replay_parses_and_rejudges() {
        // This synthetic static instance (clique edges, Δ = 1 forced,
        // bound tightened to 1.05) does not actually violate — two
        // disjoint edges are matched perfectly — so replay must report
        // "did not reproduce" rather than erroring out.
        let (doc, ..) = sample_doc();
        let report = replay_str(&doc.to_pretty()).unwrap();
        assert_eq!(report.seed, 7);
        assert_eq!(report.oracle, OracleKind::Static);
        assert_eq!(report.recorded.check, "stub");
        assert!(!report.reproduced());
        assert!(!report.byte_identical);
    }
}
