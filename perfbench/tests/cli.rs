//! Quick-scale tests of the benchmark itself: every workload prints each
//! metric `BENCHMARK.json` declares, with its unit, and a corrupted result
//! trips the correctness gate. Run from the repository root with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use sparsimatch_obs::Json;
use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["inmem", "stream", "serve", "distsim"];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Run the benchmark at quick scale. Returns whether it exited 0, and its
/// last output line parsed.
fn run(args: &[&str]) -> (bool, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_sparsimatch-perfbench"))
        .current_dir(repo_root())
        .args(["--scale", "quick", "--seconds", "0.3"])
        .args(args)
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let doc = Json::parse(last).expect("the last line is JSON");
    (out.status.success(), doc)
}

/// `(name, unit)` of every metric of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let field = |m: &Json, key: &str| m.get(key).and_then(Json::as_str).expect(key).to_string();
    let metrics = doc.get(section).and_then(Json::as_array).expect(section);
    metrics
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// `(name, unit)` of every metric a result line prints, each with a finite
/// value.
fn printed(doc: &Json) -> Vec<(String, String)> {
    let Some(Json::Object(metrics)) = doc.get("metrics") else {
        panic!("no metrics object in {}", doc.to_compact());
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{name}: no finite value");
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default();
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn every_workload_prints_the_declared_metrics_and_passes_its_checks() {
    for workload in WORKLOADS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (ok, doc) = run(&["--workload", workload, "--seed", "3", "--trace", trace]);
            let shown = doc.to_compact();
            assert!(ok, "{workload} --trace {trace} failed: {shown}");
            assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
            assert!(doc.get("attempted").and_then(Json::as_u64) >= Some(1));
            assert_eq!(
                printed(&doc),
                declared(section),
                "{workload} --trace {trace}"
            );
        }
    }
}

#[test]
fn a_corrupted_result_trips_the_correctness_gate() {
    for workload in WORKLOADS {
        let (ok, doc) = run(&["--workload", workload, "--seed", "5", "--corrupt-result"]);
        assert!(!ok, "{workload} exited 0 on a corrupted result");
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(false));
        assert!(doc.get("failed").and_then(Json::as_u64) >= Some(1));
    }
}
