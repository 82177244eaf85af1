//! Command implementations, parameterized over the output writer for
//! testability.

use crate::args::{
    AnalyzeArgs, CheckArgs, DistAlgo, DistsimArgs, GenerateArgs, MatchAlgo, MatchArgs, ServeArgs,
    SparsifyArgs,
};
use crate::error::CliError;
use rand::{rngs::StdRng, SeedableRng};
use sparsimatch_core::edcs::{approx_mcm_via_edcs_with_scratch_metered, EdcsParams};
use sparsimatch_core::params::{check_eps, SparsifierParams};
use sparsimatch_core::pipeline::approx_mcm_via_sparsifier_with_scratch_metered;
use sparsimatch_core::scratch::PipelineScratch;
use sparsimatch_core::sparsifier::{build_sparsifier, ThreadCountError, MAX_THREADS};
use sparsimatch_distsim::algorithms::pipeline::{
    distributed_approx_mcm_sharded, distributed_maximal_baseline_sharded,
    distributed_randomized_maximal_sharded, FaultCfg,
};
use sparsimatch_distsim::{FaultPlan, FaultRates, ResilienceParams};
use sparsimatch_graph::analysis::arboricity::{arboricity_bounds, degeneracy};
use sparsimatch_graph::analysis::independence::neighborhood_independence_exact;
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::generators::{check_family_size, family_from_spec, FamilySpecError};
use sparsimatch_graph::io::{read_edge_list_file, write_edge_list, write_edge_list_file};
use sparsimatch_matching::blossom::maximum_matching;
use sparsimatch_matching::greedy::greedy_maximal_matching;
use sparsimatch_matching::Matching;
use sparsimatch_obs::{Json, WorkMeter};
use sparsimatch_serve::{serve_stdio, serve_unix, ServeConfig};
use std::io::Write;

type Out<'a> = &'a mut dyn Write;

fn io_err(e: impl std::fmt::Display) -> CliError {
    CliError::Io(e.to_string())
}

/// Reject a flag value that must be a probability. Catches NaN and ±∞
/// before they reach generator/fault-plan assertions deeper down.
fn require_probability(name: &str, p: f64) -> Result<(), CliError> {
    if p.is_finite() && (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        Err(CliError::InvalidParam(format!(
            "{name} must be a probability in [0, 1], got {p}"
        )))
    }
}

/// Start a metrics document: tool/command header plus input shape.
fn metrics_doc(command: &str, g: &CsrGraph) -> Json {
    let mut input = Json::object();
    input.set("vertices", g.num_vertices());
    input.set("edges", g.num_edges());
    let mut doc = Json::object();
    doc.set("tool", "sparsimatch");
    doc.set("command", command);
    doc.set("input", input);
    doc
}

/// Attach the meter snapshot and write the document. Counter values are
/// deterministic for a fixed seed, so the file is byte-stable unless
/// `SPARSIMATCH_METRICS_TIMINGS=1` opts into wall-clock span timings.
/// With `--features alloc-count` the snapshot additionally carries
/// `alloc.bytes` / `alloc.count`: the process-wide allocation totals at
/// write time. The CLI runs one command per process, so those read as
/// per-command totals — but they are cumulative, hence exempt from the
/// byte-stability guarantee when several commands share a process.
fn write_metrics_json(
    path: &std::path::Path,
    mut doc: Json,
    meter: &mut WorkMeter,
) -> Result<(), CliError> {
    #[cfg(feature = "alloc-count")]
    {
        let totals = sparsimatch_obs::alloc::totals();
        meter.add(sparsimatch_obs::keys::ALLOC_BYTES, totals.bytes);
        meter.add(sparsimatch_obs::keys::ALLOC_COUNT, totals.count);
    }
    let with_timings = std::env::var("SPARSIMATCH_METRICS_TIMINGS").is_ok_and(|v| v == "1");
    doc.set(
        "meter",
        if with_timings {
            meter.snapshot_full()
        } else {
            meter.snapshot_counters()
        },
    );
    std::fs::write(path, doc.to_pretty()).map_err(io_err)
}

/// Build a graph from a family spec like `clique-union:2:100`. The spec
/// grammar and the size check it passes first, against the input caps,
/// live in [`sparsimatch_graph::generators`] (shared with the serve
/// daemon's `load_graph` request); this wrapper only classifies their
/// errors onto CLI exit codes.
pub fn build_family(spec: &str, n: usize, rng: &mut StdRng) -> Result<CsrGraph, CliError> {
    let classify = |e: FamilySpecError| match e {
        FamilySpecError::UnknownFamily(m) => CliError::Usage(m),
        FamilySpecError::BadValue(m) => CliError::InvalidParam(m),
        FamilySpecError::TooLarge(m) => CliError::InputTooLarge(m),
    };
    check_family_size(spec, n).map_err(classify)?;
    family_from_spec(spec, n, rng).map_err(classify)
}

/// `sparsimatch generate`.
pub fn generate(args: GenerateArgs, out: Out<'_>) -> Result<(), CliError> {
    let mut rng = StdRng::seed_from_u64(args.seed);
    let g = build_family(&args.family, args.n, &mut rng)?;
    emit_graph(&g, &args.out, out)?;
    writeln!(
        std::io::stderr(),
        "generated {}: n = {}, m = {}",
        args.family,
        g.num_vertices(),
        g.num_edges()
    )
    .ok();
    Ok(())
}

fn emit_graph(
    g: &CsrGraph,
    dest: &Option<std::path::PathBuf>,
    out: Out<'_>,
) -> Result<(), CliError> {
    match dest {
        Some(path) => write_edge_list_file(g, path).map_err(io_err),
        None => write_edge_list(g, out).map_err(io_err),
    }
}

/// `sparsimatch analyze`.
pub fn analyze(args: AnalyzeArgs, out: Out<'_>) -> Result<(), CliError> {
    let g = read_edge_list_file(&args.input)?;
    let mut meter = WorkMeter::new();
    let mut results = Json::object();
    writeln!(out, "vertices:      {}", g.num_vertices()).map_err(io_err)?;
    writeln!(out, "edges:         {}", g.num_edges()).map_err(io_err)?;
    writeln!(out, "non-isolated:  {}", g.num_non_isolated()).map_err(io_err)?;
    writeln!(out, "max degree:    {}", g.max_degree()).map_err(io_err)?;
    let degen = meter.time("degeneracy", |_| degeneracy(&g));
    writeln!(out, "degeneracy:    {degen}").map_err(io_err)?;
    results.set("non_isolated", g.num_non_isolated());
    results.set("max_degree", g.max_degree());
    results.set("degeneracy", degen);
    if g.num_edges() > 0 {
        let (lo, hi) = meter.time("arboricity", |_| arboricity_bounds(&g));
        writeln!(out, "arboricity:    in [{lo}, {hi}]").map_err(io_err)?;
        results.set("arboricity_lo", lo);
        results.set("arboricity_hi", hi);
    }
    let mm = meter.time("greedy_matching", |_| greedy_maximal_matching(&g).len());
    writeln!(
        out,
        "maximal match: {mm} (greedy; MCM is in [{mm}, {}])",
        2 * mm
    )
    .map_err(io_err)?;
    results.set("greedy_matching", mm);
    // A cheap sampled lower bound on beta plus the diversity upper bound
    // (beta <= diversity): together they bracket the parameter users need
    // for SparsifierParams.
    let mut rng = StdRng::seed_from_u64(0);
    let beta_lower =
        sparsimatch_graph::analysis::independence::estimate_beta_sampled(&g, 16, &mut rng);
    writeln!(out, "beta >= {beta_lower} (sampled lower bound)").map_err(io_err)?;
    results.set("beta_lower", beta_lower);
    match sparsimatch_graph::analysis::diversity::diversity(&g, 100_000) {
        Some(d) => {
            writeln!(out, "beta <= {d} (diversity upper bound)").map_err(io_err)?;
            results.set("beta_upper", d);
        }
        None => writeln!(out, "diversity:     > clique budget (skipped)").map_err(io_err)?,
    }
    if args.exact_beta {
        let beta = meter.time("beta_exact", |_| neighborhood_independence_exact(&g));
        writeln!(out, "beta (exact):  {beta}").map_err(io_err)?;
        results.set("beta_exact", beta);
        if beta > 0 {
            let n_prime = g.num_non_isolated();
            writeln!(
                out,
                "Lemma 2.2:     MCM >= n'/(beta+2) = {:.2}",
                n_prime as f64 / (beta as f64 + 2.0)
            )
            .map_err(io_err)?;
        }
    }
    if let Some(path) = &args.metrics_json {
        let mut doc = metrics_doc("analyze", &g);
        doc.set("results", results);
        write_metrics_json(path, doc, &mut meter)?;
    }
    Ok(())
}

/// `sparsimatch sparsify`.
pub fn sparsify(args: SparsifyArgs, out: Out<'_>) -> Result<(), CliError> {
    let g = read_edge_list_file(&args.input)?;
    let params = SparsifierParams::try_scaled(args.beta, args.eps, args.scale)?;
    let mut meter = WorkMeter::new();
    // Every thread count (including 1) takes the seeded per-vertex path,
    // so the output depends only on the seed, never on `--threads`.
    let s = meter
        .time("sparsify", |m| {
            build_sparsifier(&g, &params, args.seed, args.threads, Some(m))
        })
        .map_err(CliError::from)?;
    emit_graph(&s.graph, &args.out, out)?;
    if let Some(path) = &args.metrics_json {
        let mut doc = metrics_doc("sparsify", &g);
        doc.set("seed", args.seed);
        doc.set("threads", args.threads);
        let mut results = Json::object();
        results.set("delta", s.stats.delta);
        results.set("mark_cap", s.stats.mark_cap);
        results.set("sparsifier_edges", s.stats.edges);
        doc.set("results", results);
        write_metrics_json(path, doc, &mut meter)?;
    }
    writeln!(
        std::io::stderr(),
        "sparsified m = {} -> {} edges (delta = {}, cap = {})",
        g.num_edges(),
        s.stats.edges,
        params.delta,
        params.mark_cap()
    )
    .ok();
    Ok(())
}

/// `sparsimatch match`.
pub fn do_match(args: MatchArgs, out: Out<'_>) -> Result<(), CliError> {
    let g = read_edge_list_file(&args.input)?;
    let mut meter = WorkMeter::new();
    let (label, matching): (&str, Matching) = match args.algo {
        MatchAlgo::Exact => (
            "exact (blossom)",
            meter.time("match", |_| maximum_matching(&g)),
        ),
        MatchAlgo::Greedy => (
            "greedy maximal",
            meter.time("match", |_| greedy_maximal_matching(&g)),
        ),
        MatchAlgo::Sparsify { beta, eps } => {
            let params = SparsifierParams::try_practical(beta, eps)?;
            // One seeded pipeline for every thread count: `--threads`
            // accelerates marking, extraction, and matching without
            // changing a single output byte.
            let mut scratch = PipelineScratch::new();
            let r = meter
                .time("match", |m| {
                    approx_mcm_via_sparsifier_with_scratch_metered(
                        &g,
                        &params,
                        args.seed,
                        args.threads,
                        m,
                        &mut scratch,
                    )
                    .cloned()
                })
                .map_err(CliError::from)?;
            writeln!(out, "probes: {} (m = {})", r.probes.total(), g.num_edges())
                .map_err(io_err)?;
            ("sparsify+match", r.matching)
        }
        MatchAlgo::Edcs { beta, lambda, eps } => {
            check_eps(eps)?;
            let lambda = lambda.unwrap_or_else(|| EdcsParams::default_lambda(beta));
            let params =
                EdcsParams::new(beta, lambda).map_err(|e| CliError::InvalidParam(e.to_string()))?;
            // EDCS construction is deterministic (it ignores --seed), so
            // the output — like delta's — is identical for every thread
            // count; --threads only bounds the accepted range here.
            let mut scratch = PipelineScratch::new();
            let r = meter
                .time("match", |m| {
                    approx_mcm_via_edcs_with_scratch_metered(
                        &g,
                        &params,
                        eps,
                        args.threads,
                        m,
                        &mut scratch,
                    )
                    .cloned()
                })
                .map_err(CliError::from)?;
            writeln!(out, "probes: {} (m = {})", r.probes.total(), g.num_edges())
                .map_err(io_err)?;
            ("edcs+match", r.matching)
        }
    };
    writeln!(out, "algorithm: {label}").map_err(io_err)?;
    writeln!(out, "matching size: {}", matching.len()).map_err(io_err)?;
    if args.pairs {
        for (u, v) in matching.pairs() {
            writeln!(out, "{} {}", u.0, v.0).map_err(io_err)?;
        }
    }
    if let Some(path) = &args.metrics_json {
        let mut doc = metrics_doc("match", &g);
        doc.set("algorithm", label);
        doc.set("seed", args.seed);
        doc.set("threads", args.threads);
        let mut results = Json::object();
        results.set("matching_size", matching.len());
        doc.set("results", results);
        write_metrics_json(path, doc, &mut meter)?;
    }
    Ok(())
}

/// `sparsimatch distsim`.
pub fn distsim(args: DistsimArgs, out: Out<'_>) -> Result<(), CliError> {
    // Validate every fault knob before FaultPlan::new, whose own
    // validation is an assert (programming-error contract, not a CLI one).
    require_probability("--drop", args.drop)?;
    require_probability("--duplicate", args.duplicate)?;
    require_probability("--reorder", args.reorder)?;
    require_probability("--crash", args.crash)?;
    let params = SparsifierParams::try_practical(args.beta, args.eps)?;
    if args.crash_period == 0 {
        return Err(CliError::InvalidParam(
            "--crash-period must be at least 1".into(),
        ));
    }
    if !(1..=MAX_THREADS).contains(&args.threads) {
        return Err(CliError::Threads(
            ThreadCountError {
                requested: args.threads,
            }
            .to_string(),
        ));
    }
    let g = read_edge_list_file(&args.input)?;
    let rates = FaultRates {
        drop: args.drop,
        duplicate: args.duplicate,
        reorder: args.reorder,
        crash: args.crash,
    };
    let mut plan = FaultPlan::new(args.fault_seed, rates).with_crash_period(args.crash_period);
    if let Some(h) = args.fault_horizon {
        plan = plan.with_horizon(h);
    }
    let resilience = if args.retries > 0 {
        ResilienceParams::retry(args.retries)
    } else {
        ResilienceParams::off()
    };
    type ShardedRun = fn(
        &CsrGraph,
        &SparsifierParams,
        u64,
        FaultCfg<'_>,
        usize,
    ) -> sparsimatch_distsim::algorithms::pipeline::DistributedOutcome;
    let (label, run): (&str, ShardedRun) = match args.algo {
        DistAlgo::Approx => ("distributed approx-mcm", distributed_approx_mcm_sharded),
        DistAlgo::Baseline => (
            "distributed maximal (color-scheduled)",
            distributed_maximal_baseline_sharded,
        ),
        DistAlgo::Randomized => (
            "distributed maximal (randomized)",
            distributed_randomized_maximal_sharded,
        ),
    };
    let mut meter = WorkMeter::new();
    let outcome = meter.time("distsim", |_| {
        run(
            &g,
            &params,
            args.seed,
            Some((&plan, resilience)),
            args.threads,
        )
    });
    writeln!(out, "algorithm: {label}").map_err(io_err)?;
    writeln!(out, "matching size: {}", outcome.matching.len()).map_err(io_err)?;
    writeln!(
        out,
        "rounds: {}  messages: {}  bits: {}",
        outcome.metrics.rounds, outcome.metrics.messages, outcome.metrics.bits
    )
    .map_err(io_err)?;
    writeln!(out, "faults: {}", outcome.faults).map_err(io_err)?;
    if args.pairs {
        for (u, v) in outcome.matching.pairs() {
            writeln!(out, "{} {}", u.0, v.0).map_err(io_err)?;
        }
    }
    if let Some(path) = &args.metrics_json {
        outcome.faults.mirror_into(&mut meter);
        let mut doc = metrics_doc("distsim", &g);
        doc.set("algorithm", label);
        doc.set("seed", args.seed);
        doc.set("threads", args.threads);
        let mut fault_cfg = Json::object();
        fault_cfg.set("seed", args.fault_seed);
        fault_cfg.set("drop", args.drop);
        fault_cfg.set("duplicate", args.duplicate);
        fault_cfg.set("reorder", args.reorder);
        fault_cfg.set("crash", args.crash);
        fault_cfg.set("crash_period", args.crash_period);
        if let Some(h) = args.fault_horizon {
            fault_cfg.set("horizon", h);
        }
        fault_cfg.set("retries", u64::from(args.retries));
        doc.set("fault_plan", fault_cfg);
        let mut results = Json::object();
        results.set("matching_size", outcome.matching.len());
        results.set("rounds", outcome.metrics.rounds);
        results.set("messages", outcome.metrics.messages);
        results.set("bits", outcome.metrics.bits);
        results.set("composed_max_degree", outcome.composed_max_degree);
        doc.set("results", results);
        write_metrics_json(path, doc, &mut meter)?;
    }
    Ok(())
}

/// `sparsimatch check --replay`: re-execute a counterexample reproducer
/// written by the `sparsimatch-check` differential fuzzer. Success means
/// the recorded violation reproduced *and* the re-rendered document is
/// byte-identical to the file; anything weaker is [`CliError::CheckFailed`]
/// (exit 8), because a drifting reproducer no longer witnesses the bug it
/// was filed for.
pub fn check(args: CheckArgs, out: Out<'_>) -> Result<(), CliError> {
    let text = std::fs::read_to_string(&args.replay)?;
    let report = sparsimatch_check::replay_str(&text).map_err(CliError::MalformedInput)?;
    writeln!(
        out,
        "replaying {} (seed {}, oracle {})",
        args.replay.display(),
        report.seed,
        report.oracle.name()
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "recorded violation: [{}] {}",
        report.recorded.check, report.recorded.message
    )
    .map_err(io_err)?;
    match &report.fresh {
        Some(v) if report.byte_identical => {
            writeln!(out, "reproduced: [{}] {}", v.check, v.message).map_err(io_err)?;
            writeln!(out, "byte-identical: yes").map_err(io_err)?;
            Ok(())
        }
        Some(v) => Err(CliError::CheckFailed(format!(
            "violation reproduced as [{}] but the re-rendered document is not byte-identical to {}",
            v.check,
            args.replay.display()
        ))),
        None => Err(CliError::CheckFailed(format!(
            "recorded violation [{}] did not reproduce on replay of {}",
            report.recorded.check,
            args.replay.display()
        ))),
    }
}

/// `sparsimatch serve`: run the resident request-loop daemon.
///
/// Protocol responses own stdout in stdio mode, so this command writes
/// nothing to `out`; start/stop notices go to stderr. Daemon runtime
/// failures (bind/accept errors) map to [`CliError::Serve`] (exit 9).
pub fn serve(args: ServeArgs, _out: Out<'_>) -> Result<(), CliError> {
    if !(1..=MAX_THREADS).contains(&args.threads) {
        return Err(CliError::Threads(
            ThreadCountError {
                requested: args.threads,
            }
            .to_string(),
        ));
    }
    if args.queue_cap == 0 {
        return Err(CliError::InvalidParam(
            "--queue-cap must be at least 1".into(),
        ));
    }
    if args.max_sessions == 0 {
        return Err(CliError::InvalidParam(
            "--max-sessions must be at least 1".into(),
        ));
    }
    let cfg = ServeConfig {
        threads: args.threads,
        backend: args.backend,
        queue_cap: args.queue_cap,
        max_sessions: args.max_sessions,
        deadline_ms: args.deadline_ms,
        idle_timeout_ms: args.idle_timeout_ms,
        drain_ms: args.drain_ms,
    };
    let serve_err = |e: std::io::Error| CliError::Serve(format!("serve: {e}"));
    match &args.socket {
        Some(path) => {
            eprintln!("serving on unix socket {}", path.display());
            serve_unix(path, &cfg).map_err(serve_err)?;
            eprintln!("daemon stopped");
        }
        None => {
            let summary = serve_stdio(&cfg).map_err(serve_err)?;
            eprintln!(
                "session closed: {} requests, {} overloaded, {} wire errors",
                summary.requests, summary.overloaded, summary.wire_errors
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sparsimatch-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn run_line(line: &str) -> Result<String, String> {
        let argv: Vec<String> = line.split_whitespace().map(|s| s.to_string()).collect();
        let cmd = parse(&argv)?;
        let mut buf = Vec::new();
        crate::run(cmd, &mut buf).map_err(|e| e.to_string())?;
        Ok(String::from_utf8(buf).unwrap())
    }

    /// The `alloc.*` counters are cumulative per process, so tests that
    /// compare metrics documents across several in-process runs must
    /// drop those lines before comparing (see `write_metrics_json`).
    fn stable_metrics_lines(text: &str) -> String {
        text.lines()
            .filter(|l| !l.contains("\"alloc."))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn generate_analyze_match_pipeline() {
        let dir = tmpdir();
        let file = dir.join("g.el");
        let fs = file.to_str().unwrap();
        run_line(&format!(
            "generate clique-union:2:30 --n 120 --seed 5 --out {fs}"
        ))
        .unwrap();
        let analysis = run_line(&format!("analyze {fs} --exact-beta")).unwrap();
        assert!(analysis.contains("vertices:      120"));
        assert!(analysis.contains("beta (exact):  2") || analysis.contains("beta (exact):  1"));

        let exact = run_line(&format!("match {fs} --exact")).unwrap();
        assert!(exact.contains("matching size: 60"), "{exact}");

        let approx = run_line(&format!("match {fs} --beta 2 --eps 0.3 --seed 2")).unwrap();
        assert!(approx.contains("probes:"));
        assert!(approx.contains("matching size:"));
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn sparsify_reduces_edges() {
        let dir = tmpdir();
        let input = dir.join("dense.el");
        let output = dir.join("sparse.el");
        run_line(&format!(
            "generate clique --n 150 --out {}",
            input.display()
        ))
        .unwrap();
        run_line(&format!(
            "sparsify {} --beta 1 --eps 0.4 --seed 1 --out {}",
            input.display(),
            output.display()
        ))
        .unwrap();
        let g = read_edge_list_file(&input).unwrap();
        let s = read_edge_list_file(&output).unwrap();
        assert!(s.num_edges() < g.num_edges() / 2);
        // Sparsifier is a subgraph.
        for (_, u, v) in s.edges() {
            assert!(g.has_edge(u, v));
        }
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&output).ok();
    }

    #[test]
    fn generate_to_stdout() {
        let text = run_line("generate path --n 5").unwrap();
        let first = text.lines().next().unwrap();
        assert_eq!(first, "5 4");
    }

    #[test]
    fn match_pairs_output() {
        let dir = tmpdir();
        let file = dir.join("p.el");
        run_line(&format!("generate path --n 4 --out {}", file.display())).unwrap();
        let out = run_line(&format!("match {} --exact --pairs", file.display())).unwrap();
        assert!(out.contains("matching size: 2"));
        // Two pair lines follow.
        assert_eq!(
            out.lines()
                .filter(|l| l.split_whitespace().count() == 2)
                .count(),
            2
        );
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn metrics_json_is_byte_stable_for_fixed_seed() {
        let dir = tmpdir();
        let file = dir.join("det.el");
        run_line(&format!(
            "generate clique-union:2:25 --n 100 --seed 3 --out {}",
            file.display()
        ))
        .unwrap();
        let m1 = dir.join("det1.json");
        let m2 = dir.join("det2.json");
        for m in [&m1, &m2] {
            run_line(&format!(
                "match {} --beta 2 --eps 0.4 --seed 9 --metrics-json {}",
                file.display(),
                m.display()
            ))
            .unwrap();
        }
        let b1 = std::fs::read(&m1).unwrap();
        let b2 = std::fs::read(&m2).unwrap();
        assert_eq!(
            stable_metrics_lines(std::str::from_utf8(&b1).unwrap()),
            stable_metrics_lines(std::str::from_utf8(&b2).unwrap()),
            "metrics JSON must be byte-stable for a fixed seed"
        );
        // And it is well-formed JSON carrying the unified counters.
        let doc = Json::parse(std::str::from_utf8(&b1).unwrap()).unwrap();
        assert_eq!(doc.get("command").unwrap().as_str(), Some("match"));
        assert_eq!(doc.get("seed").unwrap().as_u64(), Some(9));
        let counters = doc.get("meter").unwrap().get("counters").unwrap();
        assert!(
            counters
                .get(sparsimatch_obs::keys::DEGREE_PROBES)
                .unwrap()
                .as_u64()
                .unwrap()
                > 0
        );
        assert!(counters.get(sparsimatch_obs::keys::RNG_DRAWS).is_some());
        assert!(
            doc.get("meter").unwrap().get("spans").is_none(),
            "timings are opt-in"
        );
        for p in [&file, &m1, &m2] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn sparsify_and_match_are_thread_count_invariant_via_cli() {
        let dir = tmpdir();
        let file = dir.join("par.el");
        run_line(&format!(
            "generate clique --n 120 --seed 1 --out {}",
            file.display()
        ))
        .unwrap();
        // sparsify: byte-identical sparsifier (and metrics) for every
        // thread count, including 1.
        let mut cleanup = vec![file.clone()];
        let mut sparsifier_bytes: Vec<Vec<u8>> = Vec::new();
        let mut metrics_text: Vec<String> = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            let o = dir.join(format!("par{threads}.el"));
            let m = dir.join(format!("par{threads}.json"));
            run_line(&format!(
                "sparsify {} --beta 1 --eps 0.4 --seed 8 --threads {threads} --out {} --metrics-json {}",
                file.display(),
                o.display(),
                m.display()
            ))
            .unwrap();
            sparsifier_bytes.push(std::fs::read(&o).unwrap());
            // The metrics differ only in the recorded thread count (and
            // the cumulative alloc.* counters, which are stripped).
            metrics_text.push(stable_metrics_lines(
                &String::from_utf8(std::fs::read(&m).unwrap())
                    .unwrap()
                    .replace(&format!("\"threads\": {threads}"), "\"threads\": T"),
            ));
            cleanup.push(o);
            cleanup.push(m);
        }
        for (i, b) in sparsifier_bytes.iter().enumerate().skip(1) {
            assert_eq!(
                &sparsifier_bytes[0], b,
                "sparsifier output must not depend on the thread count (run {i})"
            );
            assert_eq!(metrics_text[0], metrics_text[i], "metrics (run {i})");
        }
        // match through the pipeline: same matching for every thread count.
        let reference = run_line(&format!(
            "match {} --beta 1 --eps 0.4 --seed 8 --threads 1 --pairs",
            file.display()
        ))
        .unwrap();
        for threads in [2usize, 4, 8] {
            let t = run_line(&format!(
                "match {} --beta 1 --eps 0.4 --seed 8 --threads {threads} --pairs",
                file.display()
            ))
            .unwrap();
            assert_eq!(reference, t, "threads = {threads}");
        }
        for p in &cleanup {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn out_of_range_thread_count_is_a_clean_error() {
        let dir = tmpdir();
        let file = dir.join("err.el");
        run_line(&format!("generate path --n 6 --out {}", file.display())).unwrap();
        let err = run_line(&format!(
            "sparsify {} --beta 1 --eps 0.5 --threads 65",
            file.display()
        ))
        .unwrap_err();
        assert!(err.contains("between 1 and 64"), "{err}");
        let err = run_line(&format!(
            "match {} --beta 1 --eps 0.5 --threads 0",
            file.display()
        ))
        .unwrap_err();
        assert!(err.contains("between 1 and 64"), "{err}");
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn analyze_metrics_json_has_structure_results() {
        let dir = tmpdir();
        let file = dir.join("an.el");
        let met = dir.join("an.json");
        run_line(&format!("generate clique --n 30 --out {}", file.display())).unwrap();
        run_line(&format!(
            "analyze {} --exact-beta --metrics-json {}",
            file.display(),
            met.display()
        ))
        .unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&met).unwrap()).unwrap();
        assert_eq!(doc.get("command").unwrap().as_str(), Some("analyze"));
        let results = doc.get("results").unwrap();
        assert_eq!(results.get("greedy_matching").unwrap().as_u64(), Some(15));
        assert_eq!(results.get("beta_exact").unwrap().as_u64(), Some(1));
        for p in [&file, &met] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn unknown_family_is_an_error() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(build_family("nonsense", 5, &mut rng).is_err());
        assert!(build_family("clique-union:x:3", 5, &mut rng).is_err());
    }

    #[test]
    fn generate_refuses_families_over_the_caps_before_generating() {
        // ~5·10^9 edges, and 2·10^8 > MAX_VERTICES vertices: generating
        // either would take minutes and gigabytes, so returning at all
        // shows the size check ran first.
        let dir = tmpdir();
        for (i, family) in ["clique --n 100000", "path --n 200000000"]
            .iter()
            .enumerate()
        {
            let file = dir.join(format!("too-large-{i}.el"));
            let line = format!("generate {family} --out {}", file.display());
            let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
            let mut buf = Vec::new();
            let err = crate::run(parse(&argv).unwrap(), &mut buf).unwrap_err();
            assert!(matches!(err, CliError::InputTooLarge(_)), "{family}: {err}");
            assert_eq!(err.exit_code(), 5);
            assert!(buf.is_empty() && !file.exists(), "{family}");
        }
    }

    /// With the counting allocator installed, every metrics document
    /// carries live `alloc.bytes` / `alloc.count` counters.
    #[cfg(feature = "alloc-count")]
    #[test]
    fn metrics_json_surfaces_alloc_counters() {
        let dir = tmpdir();
        let file = dir.join("ac.el");
        let met = dir.join("ac.json");
        run_line(&format!("generate clique --n 60 --out {}", file.display())).unwrap();
        run_line(&format!(
            "match {} --beta 1 --eps 0.4 --seed 3 --metrics-json {}",
            file.display(),
            met.display()
        ))
        .unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&met).unwrap()).unwrap();
        let counters = doc.get("meter").unwrap().get("counters").unwrap();
        for key in [
            sparsimatch_obs::keys::ALLOC_BYTES,
            sparsimatch_obs::keys::ALLOC_COUNT,
        ] {
            assert!(
                counters.get(key).unwrap().as_u64().unwrap() > 0,
                "{key} missing or zero"
            );
        }
        for p in [&file, &met] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn all_families_build() {
        let mut rng = StdRng::seed_from_u64(2);
        for spec in [
            "clique",
            "clique-union:2:8",
            "unit-disk:8",
            "gnp:0.2",
            "line-gnp:0.3",
            "path",
            "cycle",
        ] {
            let g = build_family(spec, 30, &mut rng).unwrap();
            assert!(g.num_vertices() >= 1, "{spec}");
        }
    }
}
