//! End-to-end smoke tests of the actual `sparsimatch` binary.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sparsimatch"))
}

#[test]
fn help_prints_usage() {
    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("USAGE"));
    assert!(text.contains("sparsify"));
}

#[test]
fn bad_subcommand_exits_two() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown subcommand"));
}

#[test]
fn generate_analyze_match_roundtrip() {
    let dir = std::env::temp_dir().join(format!("sparsimatch-bin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("smoke.el");

    let out = bin()
        .args([
            "generate",
            "clique",
            "--n",
            "40",
            "--out",
            file.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{:?}", out);

    let out = bin()
        .args(["analyze", file.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("vertices:      40"), "{text}");
    assert!(text.contains("edges:         780"), "{text}");

    let out = bin()
        .args(["match", file.to_str().unwrap(), "--exact"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("matching size: 20"), "{text}");

    let out = bin()
        .args([
            "match",
            file.to_str().unwrap(),
            "--beta",
            "1",
            "--eps",
            "0.4",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("probes:"), "{text}");

    std::fs::remove_file(&file).ok();
}

#[test]
fn metrics_timings_env_exposes_stage_spans() {
    // Runs the binary in a subprocess so the env var cannot race other
    // in-process tests that rely on timings staying off.
    let dir = std::env::temp_dir().join(format!("sparsimatch-bin-spans-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("spans.el");
    let metrics = dir.join("spans.json");

    let out = bin()
        .args([
            "generate",
            "clique",
            "--n",
            "200",
            "--out",
            file.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    let out = bin()
        .args([
            "match",
            file.to_str().unwrap(),
            "--beta",
            "1",
            "--eps",
            "0.4",
            "--seed",
            "3",
            "--threads",
            "2",
            "--metrics-json",
            metrics.to_str().unwrap(),
        ])
        .env("SPARSIMATCH_METRICS_TIMINGS", "1")
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    let text = std::fs::read_to_string(&metrics).unwrap();
    let doc = sparsimatch_obs::Json::parse(&text).unwrap();
    let spans = doc
        .get("meter")
        .unwrap()
        .get("spans")
        .expect("timings env must add the spans section");
    let nanos = |key: &str| -> u64 {
        spans
            .get(key)
            .unwrap_or_else(|| panic!("span {key} missing"))
            .get("total_nanos")
            .unwrap()
            .as_u64()
            .unwrap()
    };
    let mark = nanos("stage.mark");
    let extract = nanos("stage.extract");
    let matching = nanos("stage.match");
    let total = nanos("pipeline.total");
    assert!(mark > 0 && extract > 0 && matching > 0 && total > 0);
    let stage_sum = mark + extract + matching;
    assert!(stage_sum <= total, "stages {stage_sum} > total {total}");
    assert!(
        stage_sum as f64 >= 0.9 * total as f64,
        "stages {stage_sum} fall short of 90% of total {total}"
    );

    for p in [&file, &metrics] {
        std::fs::remove_file(p).ok();
    }
}

/// One stderr line, the expected class message, and the class's stable
/// exit code (see `crates/cli/src/error.rs` for the table).
fn assert_fails(args: &[&str], code: i32, needle: &str) {
    let out = bin().args(args).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(code),
        "{args:?}: wrong exit code, stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains(needle), "{args:?}: stderr {err:?}");
    assert_eq!(
        err.trim_end().lines().count(),
        1,
        "stderr must be one line: {err:?}"
    );
    assert!(err.starts_with("error: "), "{err:?}");
}

#[test]
fn missing_file_exits_three() {
    assert_fails(
        &["analyze", "/nonexistent/definitely-not-here.el"],
        3,
        "i/o error",
    );
}

#[test]
fn malformed_edge_list_exits_four() {
    let dir = std::env::temp_dir().join(format!("sparsimatch-bin-err-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let junk = dir.join("junk.el");
    std::fs::write(&junk, "3 2\n0 1\nhello world\n").unwrap();
    assert_fails(&["analyze", junk.to_str().unwrap()], 4, "line 3");

    let dup = dir.join("dup.el");
    std::fs::write(&dup, "3 2\n0 1\n1 0\n").unwrap();
    assert_fails(
        &["match", dup.to_str().unwrap(), "--exact"],
        4,
        "duplicate edge",
    );

    let looped = dir.join("loop.el");
    std::fs::write(&looped, "3 1\n2 2\n").unwrap();
    assert_fails(&["analyze", looped.to_str().unwrap()], 4, "self-loop");

    // Bytes that are not UTF-8 are malformed input at their line, not an
    // i/o error.
    let not_utf8 = dir.join("not-utf8.el");
    std::fs::write(&not_utf8, b"3 2\n0 1\n1 \xff2\n").unwrap();
    assert_fails(
        &["match", not_utf8.to_str().unwrap(), "--exact"],
        4,
        "line 3: invalid UTF-8",
    );

    for p in [&junk, &dup, &looped, &not_utf8] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn oversized_header_exits_five() {
    let dir = std::env::temp_dir().join(format!("sparsimatch-bin-big-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let big = dir.join("big.el");
    // A header demanding 2^60 vertices must die fast with "too large",
    // not attempt the allocation.
    std::fs::write(&big, "1152921504606846976 1\n0 1\n").unwrap();
    assert_fails(&["analyze", big.to_str().unwrap()], 5, "too large");
    std::fs::remove_file(&big).ok();
}

#[test]
fn bad_thread_count_exits_six() {
    let dir = std::env::temp_dir().join(format!("sparsimatch-bin-thr-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("thr.el");
    std::fs::write(&file, "4 2\n0 1\n2 3\n").unwrap();
    assert_fails(
        &[
            "sparsify",
            file.to_str().unwrap(),
            "--beta",
            "1",
            "--eps",
            "0.5",
            "--threads",
            "65",
        ],
        6,
        "between 1 and 64",
    );
    std::fs::remove_file(&file).ok();
}

#[test]
fn invalid_parameter_exits_seven() {
    // NaN / out-of-range probabilities are caught by CLI validation
    // before any generator or fault-plan assertion can fire.
    assert_fails(&["generate", "gnp:NaN", "--n", "10"], 7, "probability");
    assert_fails(&["generate", "gnp:1.5", "--n", "10"], 7, "probability");

    let dir = std::env::temp_dir().join(format!("sparsimatch-bin-param-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("param.el");
    std::fs::write(&file, "4 2\n0 1\n2 3\n").unwrap();
    assert_fails(
        &["distsim", file.to_str().unwrap(), "--drop", "2.0"],
        7,
        "--drop must be a probability",
    );
    std::fs::remove_file(&file).ok();
}

#[test]
fn edcs_backend_matches_end_to_end() {
    let dir = std::env::temp_dir().join(format!("sparsimatch-bin-edcs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("edcs.el");

    let out = bin()
        .args([
            "generate",
            "clique",
            "--n",
            "40",
            "--out",
            file.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    let out = bin()
        .args([
            "match",
            file.to_str().unwrap(),
            "--backend",
            "edcs",
            "--eps",
            "0.3",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("algorithm: edcs+match"), "{text}");
    assert!(text.contains("matching size: 20"), "{text}");
    assert!(text.contains("probes:"), "{text}");

    // EDCS construction is deterministic and ignores the seed, so a rerun
    // under a different seed must be byte-identical.
    let rerun = bin()
        .args([
            "match",
            file.to_str().unwrap(),
            "--backend",
            "edcs",
            "--eps",
            "0.3",
            "--seed",
            "99",
        ])
        .output()
        .unwrap();
    assert!(rerun.status.success(), "{rerun:?}");
    assert_eq!(text, String::from_utf8(rerun.stdout).unwrap());

    std::fs::remove_file(&file).ok();
}

#[test]
fn backend_parameter_bounds_exit_seven() {
    let dir = std::env::temp_dir().join(format!("sparsimatch-bin-bparam-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("bparam.el");
    std::fs::write(&file, "4 2\n0 1\n2 3\n").unwrap();
    let f = file.to_str().unwrap();

    // Latent panics in SparsifierParams::scaled are now typed CLI errors.
    assert_fails(
        &["match", f, "--beta", "0", "--eps", "0.4"],
        7,
        "--beta must be at least 1",
    );
    assert_fails(
        &["match", f, "--beta", "2", "--eps", "1"],
        7,
        "open interval (0, 1)",
    );
    assert_fails(
        &["sparsify", f, "--beta", "0", "--eps", "0.4"],
        7,
        "--beta must be at least 1",
    );
    assert_fails(
        &["distsim", f, "--beta", "2", "--eps", "NaN"],
        7,
        "open interval (0, 1)",
    );

    // EDCS-specific bounds surface the library's own invariant messages.
    assert_fails(
        &[
            "match",
            f,
            "--backend",
            "edcs",
            "--edcs-beta",
            "1",
            "--eps",
            "0.3",
        ],
        7,
        "at least 2",
    );
    assert_fails(
        &[
            "match",
            f,
            "--backend",
            "edcs",
            "--lambda",
            "1.5",
            "--eps",
            "0.3",
        ],
        7,
        "in (0, 1)",
    );
    assert_fails(
        &[
            "match",
            f,
            "--backend",
            "edcs",
            "--edcs-beta",
            "100",
            "--lambda",
            "0.001",
            "--eps",
            "0.3",
        ],
        7,
        "lambda * beta >= 1",
    );

    // Cross-backend knobs are usage errors caught at parse time.
    assert_fails(
        &[
            "match",
            f,
            "--backend",
            "edcs",
            "--beta",
            "3",
            "--eps",
            "0.3",
        ],
        2,
        "use --edcs-beta",
    );
    assert_fails(
        &["match", f, "--backend", "magic", "--eps", "0.3"],
        2,
        "must be delta or edcs",
    );

    std::fs::remove_file(&file).ok();
}

#[test]
fn check_replay_reproduces_a_real_counterexample_byte_identically() {
    use sparsimatch_check::shrink::DEFAULT_CALL_BUDGET;
    use sparsimatch_check::{counterexample_doc, shrink_instance, CheckConfig, Scenario};

    // Mis-parameterize exactly like `sparsimatch-check --delta 1
    // --bound-eps 0.05`: a forced-lossy sparsifier judged against a bound
    // tighter than Theorem 2.1 promises. Search a few seeds for the first
    // violation rather than hardcoding one, so generator changes cannot
    // silently turn this test into a no-op.
    let cfg = CheckConfig {
        bound_eps: Some(0.05),
        delta: Some(1),
        backend: None,
        oracle: None,
    };
    let (scenario, violation) = (0u64..64)
        .find_map(|seed| {
            let s = Scenario::generate(seed, &cfg);
            s.oracle.check(&s.instance, &cfg).map(|v| (s, v))
        })
        .expect("the mis-parameterized config must violate within 64 seeds");
    let slug = violation.check.clone();
    let oracle = scenario.oracle;
    let (small, stats) = shrink_instance(
        &scenario.instance,
        |c| oracle.check(c, &cfg).is_some_and(|v| v.check == slug),
        DEFAULT_CALL_BUDGET,
    );
    let fresh = oracle
        .check(&small, &cfg)
        .expect("shrunk instance violates");
    let doc = counterexample_doc(scenario.seed, oracle, &small, &cfg, &fresh, &stats);

    let dir = std::env::temp_dir().join(format!("sparsimatch-bin-check-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join(format!("counterexample-{}.json", scenario.seed));
    std::fs::write(&file, doc.to_pretty()).unwrap();

    let out = bin()
        .args(["check", "--replay", file.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "replay of a just-written reproducer must exit 0: {out:?}"
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains(&format!("[{slug}]")), "{text}");
    assert!(text.contains("byte-identical: yes"), "{text}");

    std::fs::remove_file(&file).ok();
}

#[test]
fn check_replay_of_a_non_reproducing_file_exits_eight() {
    use sparsimatch_check::shrink::ShrinkStats;
    use sparsimatch_check::{
        counterexample_doc, CheckConfig, CheckInstance, OracleKind, Violation,
    };

    // Two disjoint edges are matched perfectly even through a Δ = 1
    // sparsifier, so the recorded "violation" cannot fire on replay.
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
        check: "stale".to_string(),
        message: "recorded against an older build".to_string(),
    };
    let doc = counterexample_doc(
        3,
        OracleKind::Static,
        &inst,
        &cfg,
        &v,
        &ShrinkStats::default(),
    );

    let dir = std::env::temp_dir().join(format!("sparsimatch-bin-check8-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("counterexample-3.json");
    std::fs::write(&file, doc.to_pretty()).unwrap();

    assert_fails(
        &["check", "--replay", file.to_str().unwrap()],
        8,
        "did not reproduce",
    );
    // A syntactically broken reproducer is malformed input (4), not a
    // check failure.
    let junk = dir.join("junk.json");
    std::fs::write(&junk, "{\"tool\": \"other\"}").unwrap();
    assert_fails(
        &["check", "--replay", junk.to_str().unwrap()],
        4,
        "not a sparsimatch-check reproducer",
    );
    // A missing file is I/O (3).
    assert_fails(
        &["check", "--replay", "/nonexistent/counterexample-0.json"],
        3,
        "No such file",
    );

    for p in [&file, &junk] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn distsim_runs_and_reports_faults() {
    let dir = std::env::temp_dir().join(format!("sparsimatch-bin-dist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("dist.el");
    let metrics = dir.join("dist.json");

    let out = bin()
        .args([
            "generate",
            "clique-union:2:20",
            "--n",
            "80",
            "--seed",
            "4",
            "--out",
            file.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    let out = bin()
        .args([
            "distsim",
            file.to_str().unwrap(),
            "--algo",
            "baseline",
            "--drop",
            "0.3",
            "--fault-horizon",
            "40",
            "--retries",
            "1",
            "--metrics-json",
            metrics.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("matching size:"), "{text}");
    assert!(text.contains("faults:"), "{text}");

    let doc = sparsimatch_obs::Json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert_eq!(doc.get("command").unwrap().as_str(), Some("distsim"));
    let counters = doc.get("meter").unwrap().get("counters").unwrap();
    let dropped = counters
        .get(sparsimatch_obs::keys::FAULTS_DROPPED)
        .expect("faults.dropped counter missing")
        .as_u64()
        .unwrap();
    assert!(dropped > 0, "a 30% drop plan must drop something");
    assert!(counters
        .get(sparsimatch_obs::keys::FAULTS_RETRIES)
        .is_some());
    let plan = doc.get("fault_plan").unwrap();
    assert_eq!(plan.get("horizon").unwrap().as_u64(), Some(40));

    for p in [&file, &metrics] {
        std::fs::remove_file(p).ok();
    }
}

/// `--threads 2` runs the sharded engine and must produce byte-identical
/// stdout (matching, rounds, messages, bits, fault counters) to the
/// sequential `--threads 1` run — including under an active fault plan.
#[test]
fn distsim_sharded_output_is_byte_identical() {
    let dir = std::env::temp_dir().join(format!("sparsimatch-bin-shard-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("shard.el");

    let out = bin()
        .args([
            "generate",
            "clique-union:2:20",
            "--n",
            "80",
            "--seed",
            "4",
            "--out",
            file.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    let run = |threads: &str| {
        let out = bin()
            .args([
                "distsim",
                file.to_str().unwrap(),
                "--algo",
                "randomized",
                "--pairs",
                "--drop",
                "0.2",
                "--fault-horizon",
                "30",
                "--retries",
                "1",
                "--threads",
                threads,
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "t={threads}: {out:?}");
        out.stdout
    };
    let sequential = run("1");
    assert_eq!(run("2"), sequential, "t=2 stdout differs from t=1");
    assert_eq!(run("4"), sequential, "t=4 stdout differs from t=1");

    // Out-of-range thread counts die with the stable threads exit code.
    let out = bin()
        .args(["distsim", file.to_str().unwrap(), "--threads", "65"])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(6),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("between 1 and 64"));

    std::fs::remove_file(&file).ok();
}

/// The largest `--retries` runs every attempt a smaller budget would: 15
/// retries already outlast a 30-round fault horizon, so `u32::MAX` must
/// print exactly what 64 prints.
#[test]
fn distsim_max_retries_match_a_sufficient_budget() {
    let dir = std::env::temp_dir().join(format!("sparsimatch-bin-retry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("retry.el");

    let out = bin()
        .args([
            "generate",
            "clique-union:2:20",
            "--n",
            "80",
            "--seed",
            "4",
            "--out",
            file.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    let run = |retries: &str| {
        let out = bin()
            .args([
                "distsim",
                file.to_str().unwrap(),
                "--algo",
                "randomized",
                "--pairs",
                "--drop",
                "0.2",
                "--fault-horizon",
                "30",
                "--retries",
                retries,
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "--retries {retries}: {out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    let sufficient = run("64");
    assert!(!sufficient.contains("matching size: 0\n"), "{sufficient}");
    assert_eq!(run("4294967295"), sufficient);

    std::fs::remove_file(&file).ok();
}

/// Drive `sparsimatch serve` over stdin/stdout with a scripted session
/// covering every command plus a malformed and an over-deep request;
/// the daemon answers typed errors for the bad lines and stays up.
#[test]
fn serve_scripted_stdio_session() {
    use std::io::Write;
    let deep = "[".repeat(300);
    let script = format!(
        concat!(
            r#"{{"id":1,"cmd":"load_graph","n":12,"family":"clique"}}"#,
            "\n",
            r#"{{"id":2,"cmd":"solve","beta":1,"eps":0.5,"seed":7}}"#,
            "\n",
            "not json\n",
            "{deep}\n",
            r#"{{"id":3,"cmd":"solve","beta":1,"eps":0.5,"seed":7}}"#,
            "\n",
            r#"{{"id":4,"cmd":"update","ops":[["insert",0,1]],"beta":1,"eps":0.5}}"#,
            "\n",
            r#"{{"id":5,"cmd":"query","what":"status"}}"#,
            "\n",
            r#"{{"id":6,"cmd":"metrics"}}"#,
            "\n",
            r#"{{"id":7,"cmd":"shutdown"}}"#,
            "\n",
        ),
        deep = deep
    );
    let mut child = bin()
        .arg("serve")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 9, "one response per request: {lines:#?}");
    assert!(lines[0].contains(r#""ok":true"#), "{}", lines[0]);
    assert!(lines[1].contains(r#""warm":false"#), "{}", lines[1]);
    assert!(lines[2].contains(r#""code":"parse""#), "{}", lines[2]);
    assert!(lines[3].contains(r#""code":"too_deep""#), "{}", lines[3]);
    assert!(lines[4].contains(r#""warm":true"#), "{}", lines[4]);
    assert!(lines[5].contains(r#""ok":true"#), "{}", lines[5]);
    assert!(lines[6].contains(r#""dynamic":true"#), "{}", lines[6]);
    assert!(lines[7].contains(r#""wire_errors":2"#), "{}", lines[7]);
    assert_eq!(
        lines[8],
        r#"{"id":7,"ok":true,"result":{"stopping":"session"}}"#
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("session closed"), "{stderr}");
}

/// A warm in-daemon solve returns exactly the pairs the one-shot CLI
/// prints for the same family, seed, and parameters.
#[test]
fn serve_solve_is_byte_identical_to_one_shot_match() {
    use std::io::Write;
    let dir = std::env::temp_dir().join(format!("sparsimatch-serve-bin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("ident.el");
    let out = bin()
        .args([
            "generate",
            "clique-union:2:20",
            "--n",
            "60",
            "--seed",
            "5",
            "--out",
            file.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let out = bin()
        .args([
            "match",
            file.to_str().unwrap(),
            "--beta",
            "2",
            "--eps",
            "0.5",
            "--seed",
            "7",
            "--pairs",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    let cli_pairs: Vec<&str> = text
        .lines()
        .filter(|l| {
            let mut parts = l.split_whitespace();
            matches!(
                (
                    parts.next().map(|p| p.parse::<u32>().is_ok()),
                    parts.next().map(|p| p.parse::<u32>().is_ok()),
                    parts.next(),
                ),
                (Some(true), Some(true), None)
            )
        })
        .collect();
    assert!(!cli_pairs.is_empty(), "no pairs in {text}");
    let expected_pairs_json: String = cli_pairs
        .iter()
        .map(|l| {
            let mut it = l.split_whitespace();
            format!("[{},{}]", it.next().unwrap(), it.next().unwrap())
        })
        .collect::<Vec<_>>()
        .join(",");

    // Same family/seed loaded in-daemon; the second solve is warm and
    // must carry the identical pair list.
    let script = concat!(
        r#"{"id":1,"cmd":"load_graph","n":60,"family":"clique-union:2:20","seed":5}"#,
        "\n",
        r#"{"id":2,"cmd":"solve","beta":2,"eps":0.5,"seed":7,"pairs":true}"#,
        "\n",
        r#"{"id":3,"cmd":"solve","beta":2,"eps":0.5,"seed":7,"pairs":true}"#,
        "\n",
        r#"{"id":4,"cmd":"shutdown"}"#,
        "\n",
    );
    let mut child = bin()
        .arg("serve")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "{lines:#?}");
    let want = format!(r#""pairs":[{expected_pairs_json}]"#);
    assert!(
        lines[1].contains(&want),
        "cold solve: {}\nwant {want}",
        lines[1]
    );
    assert!(
        lines[2].contains(&want),
        "warm solve: {}\nwant {want}",
        lines[2]
    );
    assert!(lines[2].contains(r#""warm":true"#), "{}", lines[2]);
    std::fs::remove_file(&file).ok();
}

/// Daemon runtime failures (unbindable socket path) exit 9; a bad
/// thread count exits 6 before any I/O happens.
#[test]
fn serve_error_exit_codes() {
    let out = bin()
        .args(["serve", "--socket", "/nonexistent-dir/deeper/s.sock"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(9), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("serve:"), "{err}");

    let out = bin().args(["serve", "--threads", "0"]).output().unwrap();
    assert_eq!(out.status.code(), Some(6), "{out:?}");

    let out = bin().args(["serve", "--queue-cap", "0"]).output().unwrap();
    assert_eq!(out.status.code(), Some(7), "{out:?}");
}
