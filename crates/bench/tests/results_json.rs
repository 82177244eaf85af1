//! Runs a real experiment binary on the quick grid and consumes the
//! machine-readable `results/<exp>.json` document it writes, closing the
//! loop on the export path (acceptance: the JSON is valid and is read back
//! by a test, not just written).

use sparsimatch_obs::Json;
use std::process::Command;

#[test]
fn quick_run_writes_valid_results_json() {
    let dir = std::env::temp_dir().join(format!("sparsimatch-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let status = Command::new(env!("CARGO_BIN_EXE_exp_o210_size"))
        .env("SPARSIMATCH_RESULTS_DIR", &dir)
        .status()
        .expect("experiment binary runs");
    assert!(status.success(), "exp_o210_size exited nonzero");

    let path = dir.join("exp_o210_size.json");
    let text = std::fs::read_to_string(&path).expect("results JSON written");
    let doc = Json::parse(&text).expect("results JSON parses");

    assert_eq!(
        doc.get("experiment").unwrap().as_str(),
        Some("exp_o210_size")
    );
    assert_eq!(doc.get("label").unwrap().as_str(), Some("E2"));
    assert_eq!(doc.get("scale").unwrap().as_str(), Some("quick"));
    // A quick run satisfies every bound, so the violation list is empty
    // and the flag is set.
    assert_eq!(doc.get("bounds_ok").unwrap().as_bool(), Some(true));
    assert!(doc
        .get("violations")
        .unwrap()
        .as_array()
        .unwrap()
        .is_empty());

    // The measured-vs-predicted table survives the roundtrip with at least
    // one data row, and its arity matches the headers.
    let tables = doc.get("tables").unwrap().as_array().unwrap();
    assert!(!tables.is_empty());
    let headers = tables[0].get("headers").unwrap().as_array().unwrap();
    let rows = tables[0].get("rows").unwrap().as_array().unwrap();
    assert!(!rows.is_empty());
    for row in rows {
        assert_eq!(row.as_array().unwrap().len(), headers.len());
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fault_sweep_writes_valid_monotone_schema() {
    let dir = std::env::temp_dir().join(format!("sparsimatch-sweep-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let status = Command::new(env!("CARGO_BIN_EXE_exp_fault_sweep"))
        .env("SPARSIMATCH_RESULTS_DIR", &dir)
        .status()
        .expect("sweep binary runs");
    assert!(status.success(), "exp_fault_sweep exited nonzero");

    let path = dir.join("fault_sweep.json");
    let text = std::fs::read_to_string(&path).expect("sweep JSON written");
    let doc = Json::parse(&text).expect("sweep JSON parses");

    assert_eq!(doc.get("experiment").unwrap().as_str(), Some("fault_sweep"));
    assert_eq!(doc.get("scale").unwrap().as_str(), Some("quick"));
    assert_eq!(doc.get("bounds_ok").unwrap().as_bool(), Some(true));
    assert!(doc
        .get("violations")
        .unwrap()
        .as_array()
        .unwrap()
        .is_empty());
    assert!(
        doc.get("graph")
            .unwrap()
            .get("vertices")
            .unwrap()
            .as_u64()
            .unwrap()
            > 0
    );
    assert!(doc.get("seeds_per_rate").unwrap().as_u64().unwrap() >= 2);
    let baseline = doc.get("baseline_matching").unwrap().as_u64().unwrap() as f64;
    assert!(baseline > 0.0);

    let rows = doc.get("rows").unwrap().as_array().unwrap();
    assert!(
        rows.len() >= 3,
        "need a real sweep, got {} rows",
        rows.len()
    );
    let field = |row: &Json, key: &str| -> f64 {
        row.get(key)
            .unwrap_or_else(|| panic!("row missing {key}"))
            .as_f64()
            .unwrap()
    };
    // Rows are sorted by rate; the first is the exact fault-free anchor.
    assert_eq!(field(&rows[0], "drop"), 0.0);
    assert_eq!(
        field(&rows[0], "mean_size"),
        baseline,
        "p = 0 must equal the baseline exactly"
    );
    assert_eq!(field(&rows[0], "mean_dropped"), 0.0);
    let mut prev_drop = -1.0;
    let mut prev_size = f64::INFINITY;
    for row in rows {
        let drop = field(row, "drop");
        let size = field(row, "mean_size");
        assert!((0.0..=1.0).contains(&drop));
        assert!(drop > prev_drop, "rates not strictly increasing");
        assert!(
            size <= prev_size,
            "mean size rose: {size} after {prev_size}"
        );
        assert!(field(row, "min_size") <= field(row, "max_size"));
        // The hardened arm never does worse than the fragile one.
        assert!(field(row, "hardened_mean_size") >= size);
        prev_drop = drop;
        prev_size = size;
    }

    // The I/O arm: streamed builds under injected edge-stream faults
    // must recover byte-identically at every rate, with the zero-rate
    // anchor paying no retries and the top rate actually retrying.
    let io = doc.get("io").expect("io arm present");
    assert!(
        io.get("attempts").unwrap().as_u64().unwrap()
            > io.get("horizon").unwrap().as_u64().unwrap()
    );
    let io_rows = io.get("rows").unwrap().as_array().unwrap();
    assert!(io_rows.len() >= 3, "need a real io sweep");
    let matching = field(&io_rows[0], "matching");
    assert!(matching > 0.0);
    assert_eq!(field(&io_rows[0], "p"), 0.0);
    assert_eq!(field(&io_rows[0], "mean_retries"), 0.0);
    for row in io_rows {
        assert_eq!(row.get("identical").unwrap().as_bool(), Some(true));
        assert_eq!(field(row, "matching"), matching, "recovery must be exact");
        assert!(field(row, "mean_retries") <= field(row, "mean_faults") + 1e-9);
    }
    assert!(
        field(io_rows.last().unwrap(), "mean_retries") > 0.0,
        "the io arm never exercised the retry path"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_baseline_writes_valid_schema() {
    let dir = std::env::temp_dir().join(format!("sparsimatch-bench-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("BENCH_pipeline.json");

    let status = Command::new(env!("CARGO_BIN_EXE_bench_baseline"))
        .env("SPARSIMATCH_BENCH_OUT", &out)
        .env("SPARSIMATCH_METRICS_TIMINGS", "1")
        .status()
        .expect("bench binary runs");
    assert!(status.success(), "bench_baseline exited nonzero");

    let text = std::fs::read_to_string(&out).expect("baseline JSON written");
    let doc = Json::parse(&text).expect("baseline JSON parses");

    assert_eq!(
        doc.get("benchmark").unwrap().as_str(),
        Some("bench_pipeline")
    );
    assert_eq!(doc.get("scale").unwrap().as_str(), Some("quick"));
    assert!(doc.get("host_parallelism").unwrap().as_u64().unwrap() >= 1);

    // The benched thread list is strictly increasing.
    let threads: Vec<u64> = doc
        .get("threads")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|t| t.as_u64().unwrap())
        .collect();
    assert!(
        threads.windows(2).all(|w| w[0] < w[1]),
        "thread list not monotone: {threads:?}"
    );

    // The allocation-observability flag is always present; the per-run
    // columns are zero-filled when it is false.
    let alloc_counting = doc.get("alloc_counting").unwrap().as_bool().unwrap();

    // Every family carries one run per benched thread count, with non-zero
    // stage spans and thread-count-invariant outputs.
    let families = doc.get("families").unwrap().as_array().unwrap();
    let names: Vec<&str> = families
        .iter()
        .map(|f| f.get("family").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(names, ["clique", "clique-union", "bipartite"]);
    for f in families {
        let name = f.get("family").unwrap().as_str().unwrap();
        assert!(f.get("vertices").unwrap().as_u64().unwrap() > 0);
        assert!(f.get("edges").unwrap().as_u64().unwrap() > 0);
        let runs = f.get("runs").unwrap().as_array().unwrap();
        assert_eq!(runs.len(), threads.len(), "{name}");
        let mut sizes = Vec::new();
        for (run, &t) in runs.iter().zip(&threads) {
            assert_eq!(run.get("threads").unwrap().as_u64(), Some(t), "{name}");
            assert!(run.get("total_nanos").unwrap().as_u64().unwrap() > 0);
            let stages = run.get("stage_nanos").unwrap();
            for key in ["mark", "extract", "match"] {
                assert!(
                    stages.get(key).unwrap().as_u64().unwrap() > 0,
                    "{name}: zero {key} span at {t} threads"
                );
            }
            assert!(run.get("speedup_vs_t1").unwrap().as_f64().unwrap() > 0.0);
            let alloc_bytes = run.get("alloc_bytes").unwrap().as_u64().unwrap();
            let alloc_count = run.get("alloc_count").unwrap().as_u64().unwrap();
            if !alloc_counting {
                assert_eq!((alloc_bytes, alloc_count), (0, 0), "{name}: dead columns");
            }
            sizes.push((
                run.get("matching_size").unwrap().as_u64().unwrap(),
                run.get("sparsifier_edges").unwrap().as_u64().unwrap(),
            ));
        }
        assert!(
            sizes.windows(2).all(|w| w[0] == w[1]),
            "{name}: outputs vary with the thread count: {sizes:?}"
        );
    }

    // The huge tier (out-of-core streamed build) carries its full memory
    // schema even at quick scale — this is the `huge-smoke` validation CI
    // runs per PR. The memory claim is analytic, so unlike the wall-clock
    // gates it must hold at every scale.
    assert_huge_tier_schema(&doc, 0);

    // The backend race (delta vs edcs) carries its conformance fields at
    // every scale — the claims are analytic, only the timings vary.
    assert_backends_schema(&doc);
    assert_edcs_evaluations(&doc);

    // One steady-state row per family, with internally consistent fields.
    // The ≥1.3× warm-speedup acceptance bound is asserted on the committed
    // full-scale baseline only — a quick run inside a busy CI worker is
    // too noisy to gate on a wall-clock ratio.
    let steady = doc.get("steady_state").unwrap().as_array().unwrap();
    let steady_names: Vec<&str> = steady
        .iter()
        .map(|s| s.get("family").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(steady_names, names);
    for s in steady {
        let name = s.get("family").unwrap().as_str().unwrap();
        assert_eq!(s.get("threads").unwrap().as_u64(), Some(1), "{name}");
        assert!(s.get("reps").unwrap().as_u64().unwrap() >= 1, "{name}");
        let cold = s.get("cold_nanos_per_solve").unwrap().as_u64().unwrap();
        let warm = s.get("warm_nanos_per_solve").unwrap().as_u64().unwrap();
        assert!(cold > 0 && warm > 0, "{name}: zero-length steady solve");
        let speedup = s.get("warm_speedup").unwrap().as_f64().unwrap();
        assert!(
            (speedup - cold as f64 / warm as f64).abs() < 1e-9,
            "{name}: warm_speedup inconsistent with its numerator/denominator"
        );
        let cold_alloc = s.get("cold_alloc_bytes").unwrap().as_u64().unwrap();
        let warm_alloc = s.get("warm_alloc_bytes").unwrap().as_u64().unwrap();
        if alloc_counting {
            assert!(cold_alloc > 0, "{name}: cold solves must allocate");
            assert_eq!(warm_alloc, 0, "{name}: warm solves must not allocate");
        } else {
            assert_eq!((cold_alloc, warm_alloc), (0, 0), "{name}: dead columns");
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// Shared checks for the `huge` tier section (see EXPERIMENTS.md
/// "Benchmark baseline · huge tier"): every streamed family reports the
/// full memory schema, and the Theorem 3.1 space story holds —
/// `peak_resident_bytes < graph_bytes` with a probe budget sublinear in
/// `m`. `min_edges` lets the committed-baseline gate demand real scale.
fn assert_huge_tier_schema(doc: &Json, min_edges: u64) {
    let huge = doc
        .get("huge")
        .expect("huge tier section missing")
        .as_array()
        .unwrap();
    let names: Vec<&str> = huge
        .iter()
        .map(|h| h.get("family").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(names, ["clique-union", "bipartite", "power-law"]);
    for h in huge {
        let name = h.get("family").unwrap().as_str().unwrap();
        let field = |key: &str| -> u64 {
            h.get(key)
                .unwrap_or_else(|| panic!("{name}: huge row missing {key}"))
                .as_u64()
                .unwrap_or_else(|| panic!("{name}: huge.{key} is not an unsigned integer"))
        };
        let edges = field("edges");
        assert!(field("vertices") > 0, "{name}");
        assert!(
            edges >= min_edges,
            "{name}: huge tier ran at {edges} edges, need >= {min_edges}"
        );
        assert!(field("beta") >= 1 && field("delta") >= 1, "{name}");
        assert!(h.get("eps").unwrap().as_f64().unwrap() > 0.0, "{name}");

        // The headline gate: building out of core must stay strictly
        // cheaper than materializing the parent adjacency.
        let peak = field("peak_resident_bytes");
        let graph_bytes = field("graph_bytes");
        let sparsifier_bytes = field("sparsifier_bytes");
        assert!(
            peak < graph_bytes,
            "{name}: streamed peak {peak} B >= materialized parent {graph_bytes} B"
        );
        assert!(
            sparsifier_bytes <= peak,
            "{name}: sparsifier {sparsifier_bytes} B exceeds the reported peak {peak} B"
        );
        assert!(
            field("sparsifier_edges") < edges,
            "{name}: sparsifier kept every edge — no shrink"
        );
        assert!(field("matching_size") > 0, "{name}");
        assert!(field("solve_nanos") > 0, "{name}");

        // Probe accounting: internally consistent, sublinear in m, and
        // the stream side did exactly two passes (4m half-edge visits).
        let probes = h.get("probes").unwrap();
        let degree = probes.get("degree").unwrap().as_u64().unwrap();
        let neighbor = probes.get("neighbor").unwrap().as_u64().unwrap();
        let total = probes.get("total").unwrap().as_u64().unwrap();
        assert_eq!(degree + neighbor, total, "{name}: probe totals disagree");
        assert!(
            total < edges,
            "{name}: probe budget {total} >= m = {edges} (sublinearity lost)"
        );
        assert_eq!(field("edges_scanned"), 4 * edges, "{name}");
        let shrink = h.get("resident_shrink").unwrap().as_f64().unwrap();
        assert!(
            (shrink - graph_bytes as f64 / peak as f64).abs() < 1e-9,
            "{name}: resident_shrink inconsistent with its numerator/denominator"
        );
    }
}

/// The in-memory race's EDCS rows record the fixpoint's passes and the
/// edges it evaluated: never more than `passes × edges`, and on the
/// quick `clique` row, dense enough for the fixpoint to skip the edges
/// that cannot change, under a quarter of that. The counts are
/// deterministic, so a skip that silently stops working fails here.
/// (The committed full-scale baseline predates these fields.)
fn assert_edcs_evaluations(doc: &Json) {
    let families = doc.get("backends").unwrap().get("families").unwrap();
    for f in families.as_array().unwrap() {
        let name = f.get("family").unwrap().as_str().unwrap();
        let edges = f.get("edges").unwrap().as_u64().unwrap();
        let edcs = &f.get("runs").unwrap().as_array().unwrap()[1];
        let passes = edcs.get("passes").unwrap().as_u64().unwrap();
        let evaluated = edcs.get("edge_evaluations").unwrap().as_u64().unwrap();
        assert!(passes >= 1, "{name}: no fixpoint pass recorded");
        assert!(
            evaluated <= passes * edges,
            "{name}: {evaluated} edge evaluations over {passes} passes of {edges} edges"
        );
        if name == "clique" {
            assert!(
                evaluated * 4 < passes * edges,
                "{name}: the fixpoint evaluated {evaluated} of {} edges",
                passes * edges
            );
        }
    }
}

/// Shared checks for the `backends` section (see EXPERIMENTS.md
/// "Benchmark baseline · backend race"): both backends on every
/// in-memory family and every streamed huge family, with the
/// conformance claims — size bound honored, matching sizes mutually
/// consistent under the claimed ratios — re-checkable from the JSON
/// alone. `results/RESULTS.md` renders its table from this section.
fn assert_backends_schema(doc: &Json) {
    let backends = doc.get("backends").expect("backends section missing");
    assert_eq!(backends.get("threads").unwrap().as_u64(), Some(1));
    let edcs = backends.get("edcs").expect("EDCS operating point missing");
    let beta = edcs.get("beta").unwrap().as_u64().unwrap();
    let lambda = edcs.get("lambda").unwrap().as_f64().unwrap();
    assert!(beta >= 2, "EDCS needs beta >= 2, got {beta}");
    assert!(0.0 < lambda && lambda < 1.0 && lambda * beta as f64 >= 1.0);

    // Cross-backend conformance slack: two certified backends can
    // disagree by at most the other's claimed ratio (each matching
    // lower-bounds the optimum the other's ratio upper-bounds), plus a
    // couple of edges of integer-rounding room.
    const SLACK: f64 = 2.0;

    let families = backends.get("families").unwrap().as_array().unwrap();
    let names: Vec<&str> = families
        .iter()
        .map(|f| f.get("family").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(names, ["clique", "clique-union", "bipartite"]);
    for f in families {
        let name = f.get("family").unwrap().as_str().unwrap();
        let vertices = f.get("vertices").unwrap().as_u64().unwrap();
        let edges = f.get("edges").unwrap().as_u64().unwrap();
        assert!(vertices > 0 && edges > 0, "{name}");
        let runs = f.get("runs").unwrap().as_array().unwrap();
        let kinds: Vec<&str> = runs
            .iter()
            .map(|r| r.get("backend").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(kinds, ["delta", "edcs"], "{name}");
        for r in runs {
            let b = r.get("backend").unwrap().as_str().unwrap();
            assert!(!r.get("params").unwrap().as_str().unwrap().is_empty());
            let ratio = r.get("claimed_ratio").unwrap().as_f64().unwrap();
            assert!(ratio >= 1.0, "{name}/{b}: ratio claim below 1");
            let bound = r.get("claimed_size_bound").unwrap().as_u64().unwrap();
            let kept = r.get("sparsifier_edges").unwrap().as_u64().unwrap();
            assert!(
                kept <= bound,
                "{name}/{b}: kept {kept} edges over the claimed bound {bound}"
            );
            assert!(r.get("total_nanos").unwrap().as_u64().unwrap() > 0);
            assert!(r.get("matching_size").unwrap().as_u64().unwrap() > 0);
            let stages = r.get("stage_nanos").unwrap();
            for key in ["mark", "extract", "match"] {
                assert!(
                    stages.get(key).unwrap().as_u64().unwrap() > 0,
                    "{name}/{b}: zero {key} span"
                );
            }
            let probes = r.get("probes_total").unwrap().as_u64().unwrap();
            // EDCS reads every edge at least once per fixpoint pass
            // (2m half-edge visits). Delta's probe budget is only
            // sublinear at streaming scale, so it gets no bound here —
            // the `huge`/`streamed` sections gate that.
            if b == "edcs" {
                assert!(probes >= 2 * edges, "{name}: edcs probes below one pass");
            } else {
                assert!(probes > 0, "{name}/{b}: no probes recorded");
            }
        }
        let size = |i: usize| runs[i].get("matching_size").unwrap().as_u64().unwrap() as f64;
        let ratio = |i: usize| runs[i].get("claimed_ratio").unwrap().as_f64().unwrap();
        assert!(
            size(0) <= ratio(1) * size(1) + SLACK && size(1) <= ratio(0) * size(0) + SLACK,
            "{name}: backends disagree beyond their claimed ratios \
             ({} vs {})",
            size(0),
            size(1)
        );
        let speedup = f.get("edcs_speedup_vs_delta").unwrap().as_f64().unwrap();
        assert!(speedup > 0.0, "{name}");
    }

    let streamed = backends.get("streamed").unwrap().as_array().unwrap();
    let names: Vec<&str> = streamed
        .iter()
        .map(|f| f.get("family").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(names, ["clique-union", "bipartite", "power-law"]);
    for f in streamed {
        let name = f.get("family").unwrap().as_str().unwrap();
        let edges = f.get("edges").unwrap().as_u64().unwrap();
        let runs = f.get("runs").unwrap().as_array().unwrap();
        let kinds: Vec<&str> = runs
            .iter()
            .map(|r| r.get("backend").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(kinds, ["delta", "edcs"], "{name}");
        for r in runs {
            let b = r.get("backend").unwrap().as_str().unwrap();
            let peak = r.get("peak_resident_bytes").unwrap().as_u64().unwrap();
            let graph_bytes = r.get("graph_bytes").unwrap().as_u64().unwrap();
            assert!(
                peak < graph_bytes,
                "{name}/{b}: streamed peak {peak} B >= parent {graph_bytes} B"
            );
            assert!(r.get("solve_nanos").unwrap().as_u64().unwrap() > 0);
            assert!(r.get("matching_size").unwrap().as_u64().unwrap() > 0);
            assert!(r.get("sparsifier_edges").unwrap().as_u64().unwrap() < edges);
            let scanned = r.get("edges_scanned").unwrap().as_u64().unwrap();
            let passes = r.get("passes").unwrap().as_u64().unwrap();
            match b {
                // The delta stream build does exactly two passes (4m
                // half-edge visits); the EDCS fixpoint re-scans until
                // convergence, which needs at least two passes (the
                // final pass observes no change).
                "delta" => assert_eq!(scanned, 4 * edges, "{name}"),
                _ => {
                    assert!(passes >= 2, "{name}: EDCS converged in < 2 passes?");
                    assert_eq!(scanned, passes * 2 * edges, "{name}");
                }
            }
        }
    }
}

/// Schema + identity gates shared by the quick-run and committed-artifact
/// distsim-scale checks: rows cover every (family, thread count) cell,
/// the sequential anchor is present, and — the tentpole contract — every
/// row's fingerprint matches the sequential run.
fn assert_distsim_scale_schema(doc: &Json, min_nodes: u64) {
    assert_eq!(
        doc.get("experiment").unwrap().as_str(),
        Some("distsim_scale")
    );
    assert_eq!(doc.get("bounds_ok").unwrap().as_bool(), Some(true));
    assert!(doc
        .get("violations")
        .unwrap()
        .as_array()
        .unwrap()
        .is_empty());
    let nodes = doc.get("nodes").unwrap().as_u64().unwrap();
    assert!(nodes >= min_nodes, "need >= {min_nodes} nodes, got {nodes}");
    let host = doc.get("host_parallelism").unwrap().as_u64().unwrap();
    assert!(host >= 1);
    let thread_counts: Vec<u64> = doc
        .get("thread_counts")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|t| t.as_u64().unwrap())
        .collect();
    assert_eq!(thread_counts, vec![1, 2, 4, 8]);

    let rows = doc.get("rows").unwrap().as_array().unwrap();
    let mut families = std::collections::BTreeMap::<String, Vec<u64>>::new();
    for row in rows {
        let family = row.get("family").unwrap().as_str().unwrap().to_string();
        let threads = row.get("threads").unwrap().as_u64().unwrap();
        assert_eq!(row.get("n").unwrap().as_u64(), Some(nodes));
        assert!(row.get("m").unwrap().as_u64().unwrap() > 0);
        assert!(row.get("rounds").unwrap().as_u64().unwrap() > 0);
        assert!(row.get("messages").unwrap().as_u64().unwrap() > 0);
        assert!(row.get("bits").unwrap().as_u64().unwrap() > 0);
        assert!(row.get("matching").unwrap().as_u64().unwrap() > 0);
        assert!(row.get("wall_ms").unwrap().as_f64().unwrap() > 0.0);
        let speedup = row.get("speedup").unwrap().as_f64().unwrap();
        assert!(speedup > 0.0, "speedup must be present and positive");
        if threads == 1 {
            assert_eq!(speedup, 1.0, "t=1 is the speedup anchor");
        }
        assert_eq!(
            row.get("fingerprint_match").unwrap().as_bool(),
            Some(true),
            "{family} t={threads}: sharded run diverged from the sequential fingerprint"
        );
        families.entry(family).or_default().push(threads);
    }
    assert_eq!(families.len(), 2, "two graph families expected");
    for (family, counts) in families {
        assert_eq!(counts, vec![1, 2, 4, 8], "{family}: thread grid incomplete");
    }
}

/// Run the distsim-scale experiment on a tiny node count (debug builds
/// are slow; CI's release quick run covers 100k nodes) and validate the
/// schema + the sharded-vs-sequential identity gate end to end.
#[test]
fn distsim_scale_quick_run_writes_valid_schema() {
    let dir = std::env::temp_dir().join(format!("sparsimatch-dscale-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let status = Command::new(env!("CARGO_BIN_EXE_exp_distsim_scale"))
        .args(["--nodes", "4000"])
        .env("SPARSIMATCH_RESULTS_DIR", &dir)
        .status()
        .expect("distsim scale binary runs");
    assert!(status.success(), "exp_distsim_scale exited nonzero");

    let path = dir.join("distsim_scale.json");
    let text = std::fs::read_to_string(&path).expect("distsim scale JSON written");
    let doc = Json::parse(&text).expect("distsim scale JSON parses");
    assert_eq!(doc.get("scale").unwrap().as_str(), Some("quick"));
    assert_distsim_scale_schema(&doc, 4000);

    std::fs::remove_dir_all(&dir).ok();
}

/// Acceptance gate on the *committed* full-scale scaling run
/// (`results/distsim_scale.json`): at least a million simulated nodes,
/// per-thread-count wall time, and fingerprint identity on every row.
#[test]
fn committed_distsim_scale_is_full_scale_and_byte_identical() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results/distsim_scale.json");
    let text =
        std::fs::read_to_string(&path).expect("committed results/distsim_scale.json present");
    let doc = Json::parse(&text).expect("committed distsim scale parses");
    assert_eq!(doc.get("scale").unwrap().as_str(), Some("full"));
    assert_distsim_scale_schema(&doc, 1_000_000);
}

/// The *committed* baseline (repo-root `BENCH_pipeline.json`) must record
/// the bench host's hardware parallelism — speedup ratios are
/// uninterpretable without it (see EXPERIMENTS.md "Benchmark baseline").
#[test]
fn committed_baseline_records_positive_host_parallelism() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_pipeline.json");
    let text = std::fs::read_to_string(&path).expect("committed BENCH_pipeline.json present");
    let doc = Json::parse(&text).expect("committed baseline parses");
    assert_eq!(
        doc.get("benchmark").unwrap().as_str(),
        Some("bench_pipeline")
    );
    assert_eq!(doc.get("scale").unwrap().as_str(), Some("full"));
    let host = doc
        .get("host_parallelism")
        .expect("host_parallelism field missing from the committed baseline")
        .as_u64()
        .expect("host_parallelism is not an unsigned integer");
    assert!(host >= 1, "host_parallelism must be positive, got {host}");
}

/// Acceptance gates on the *committed* full-scale baseline. These are
/// wall-clock claims, but the file is a committed artifact, so checking
/// it here is deterministic: whoever regenerates the baseline must do so
/// on a host where both bounds hold, or the regression is visible in
/// review.
///
/// 1. Small-input parallel regression: no family may be slower at t ≥ 2
///    than at t = 1 beyond a 25 % noise allowance (adaptive dispatch must
///    fall back to sequential where parallelism cannot pay).
/// 2. Stage shares: no family's `match` stage may silently dominate the
///    pipeline again. The t = 1 clique-union anomaly (match at 90 %+ of
///    total, vs ~4 % on clique) was traced to the bounded-augmentation
///    bulk loop re-scanning retired vertices; the phase rewrite fixed it,
///    and this share cap keeps the regression visible if it returns.
///    (Full-scale clique-union legitimately spends ~55–60 % in `match`
///    — many augmentation rounds on large cliques — so the cap sits at
///    75 %: well above honest shares, well below the 90 %+ anomaly.)
/// 3. Steady state: the warm-scratch repeat-solve path must beat the
///    cold path by ≥ 1.3× on at least one family.
#[test]
fn committed_baseline_meets_dispatch_and_steady_state_gates() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_pipeline.json");
    let text = std::fs::read_to_string(&path).expect("committed BENCH_pipeline.json present");
    let doc = Json::parse(&text).expect("committed baseline parses");

    const MATCH_SHARE_CAP: f64 = 0.75;
    for f in doc.get("families").unwrap().as_array().unwrap() {
        let name = f.get("family").unwrap().as_str().unwrap();
        let runs = f.get("runs").unwrap().as_array().unwrap();
        let t1 = runs
            .iter()
            .find(|r| r.get("threads").unwrap().as_u64() == Some(1))
            .expect("t = 1 run present")
            .get("total_nanos")
            .unwrap()
            .as_u64()
            .unwrap();
        for r in runs {
            let t = r.get("threads").unwrap().as_u64().unwrap();
            let total = r.get("total_nanos").unwrap().as_u64().unwrap();
            assert!(
                total as f64 <= t1 as f64 * 1.25,
                "{name}: t = {t} took {total} ns vs {t1} ns at t = 1 — \
                 parallel dispatch regressed on a small input"
            );
            let matched = r
                .get("stage_nanos")
                .unwrap()
                .get("match")
                .unwrap()
                .as_u64()
                .unwrap();
            assert!(
                (matched as f64) <= MATCH_SHARE_CAP * total as f64,
                "{name}: match stage consumed {matched} of {total} ns at t = {t} \
                 (> {:.0}% share — the bounded-augmentation re-scan \
                 regression is back?)",
                MATCH_SHARE_CAP * 100.0
            );
        }
    }

    let best_speedup = doc
        .get("steady_state")
        .expect("steady_state section missing from the committed baseline")
        .as_array()
        .unwrap()
        .iter()
        .map(|s| s.get("warm_speedup").unwrap().as_f64().unwrap())
        .fold(0.0f64, f64::max);
    assert!(
        best_speedup >= 1.3,
        "no family reaches the 1.3x warm-scratch steady-state speedup \
         (best {best_speedup:.3})"
    );
}

/// Acceptance gate on the *committed* full-scale `huge` tier: the
/// out-of-core streamed build must have completed every family at
/// ≥ 20M edges with `peak_resident_bytes < graph_bytes` — Theorem 3.1's
/// sublinear probe budget paired with a resident set strictly below
/// what materializing the parent adjacency would cost.
#[test]
fn committed_baseline_huge_tier_is_out_of_core_at_scale() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_pipeline.json");
    let text = std::fs::read_to_string(&path).expect("committed BENCH_pipeline.json present");
    let doc = Json::parse(&text).expect("committed baseline parses");
    assert_eq!(doc.get("scale").unwrap().as_str(), Some("full"));
    assert_huge_tier_schema(&doc, 20_000_000);
}

/// Acceptance gate on the *committed* full-scale `backends` section:
/// the race in `results/RESULTS.md` is only publishable because both
/// backends passed conformance first — size bounds honored, matching
/// sizes mutually consistent under the claimed ratios, and the streamed
/// arms out-of-core on every huge family.
#[test]
fn committed_baseline_backends_race_is_conformant() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_pipeline.json");
    let text = std::fs::read_to_string(&path).expect("committed BENCH_pipeline.json present");
    let doc = Json::parse(&text).expect("committed baseline parses");
    assert_eq!(doc.get("scale").unwrap().as_str(), Some("full"));
    assert_backends_schema(&doc);
}

/// Shared structural checks for a `serve_bench.json` document at either
/// scale: every request answered, no unexpected errors, all five
/// command types present with monotone percentiles.
fn assert_serve_bench_schema(doc: &Json) {
    assert_eq!(doc.get("experiment").unwrap().as_str(), Some("serve_bench"));
    assert_eq!(doc.get("bounds_ok").unwrap().as_bool(), Some(true));
    assert!(doc
        .get("violations")
        .unwrap()
        .as_array()
        .unwrap()
        .is_empty());
    let total = doc.get("total_requests").unwrap().as_u64().unwrap();
    let served = doc.get("served").unwrap().as_u64().unwrap();
    let overloaded = doc.get("overloaded").unwrap().as_u64().unwrap();
    assert_eq!(doc.get("errors").unwrap().as_u64(), Some(0));
    assert_eq!(
        served + overloaded,
        total,
        "every request is either served or explicitly shed"
    );
    assert!(doc.get("sessions").unwrap().as_u64().unwrap() >= 2);
    assert!(doc.get("worker_threads").unwrap().as_u64().unwrap() >= 1);
    assert!(doc.get("queue_cap").unwrap().as_u64().unwrap() >= 1);
    assert!(doc.get("rate_per_session").unwrap().as_f64().unwrap() > 0.0);

    let commands = doc.get("commands").unwrap().as_array().unwrap();
    let names: Vec<&str> = commands
        .iter()
        .map(|c| c.get("command").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(
        names,
        ["load_graph", "solve", "update", "query", "metrics"],
        "latency percentiles must cover every command type"
    );
    let mut counted = 0u64;
    for c in commands {
        let name = c.get("command").unwrap().as_str().unwrap();
        let count = c.get("count").unwrap().as_u64().unwrap();
        assert!(count > 0, "{name}: empty latency bucket");
        counted += count;
        let p50 = c.get("p50_us").unwrap().as_u64().unwrap();
        let p99 = c.get("p99_us").unwrap().as_u64().unwrap();
        let p999 = c.get("p999_us").unwrap().as_u64().unwrap();
        let max = c.get("max_us").unwrap().as_u64().unwrap();
        assert!(
            p50 <= p99 && p99 <= p999 && p999 <= max,
            "{name}: percentiles not monotone ({p50}/{p99}/{p999}/{max})"
        );
    }
    assert_eq!(counted, served, "per-command counts must sum to served");
}

#[test]
fn serve_bench_quick_run_writes_valid_schema() {
    let dir = std::env::temp_dir().join(format!("sparsimatch-serve-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let status = Command::new(env!("CARGO_BIN_EXE_exp_serve_bench"))
        .env("SPARSIMATCH_RESULTS_DIR", &dir)
        .status()
        .expect("serve bench binary runs");
    assert!(status.success(), "exp_serve_bench exited nonzero");

    let text =
        std::fs::read_to_string(dir.join("serve_bench.json")).expect("serve bench JSON written");
    let doc = Json::parse(&text).expect("serve bench JSON parses");
    assert_eq!(doc.get("scale").unwrap().as_str(), Some("quick"));
    assert_serve_bench_schema(&doc);

    std::fs::remove_dir_all(&dir).ok();
}

/// Acceptance gate on the *committed* full-scale replay
/// (`results/serve_bench.json`): at least one million requests through
/// the daemon, percentiles per command type, nothing lost.
#[test]
fn committed_serve_bench_is_full_scale_with_a_million_requests() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results/serve_bench.json");
    let text = std::fs::read_to_string(&path).expect("committed results/serve_bench.json present");
    let doc = Json::parse(&text).expect("committed serve bench parses");
    assert_eq!(doc.get("scale").unwrap().as_str(), Some("full"));
    let total = doc.get("total_requests").unwrap().as_u64().unwrap();
    assert!(
        total >= 1_000_000,
        "committed replay must cover at least 1M requests, got {total}"
    );
    assert_serve_bench_schema(&doc);
}
