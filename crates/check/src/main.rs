//! `sparsimatch-check`: sweep a seed budget through the differential
//! oracles; shrink and persist any violation as a replayable reproducer.

use sparsimatch_check::oracles::PANIC_CHECK;
use sparsimatch_check::shrink::DEFAULT_CALL_BUDGET;
use sparsimatch_check::{counterexample_doc, report, shrink_instance, CheckConfig, Scenario};
use sparsimatch_core::scratch::PipelineScratch;
use std::sync::atomic::{AtomicBool, Ordering};

const USAGE: &str = "\
sparsimatch-check — differential fuzzing of the sparsimatch oracles

USAGE:
  sparsimatch-check [--seeds <N>] [--start-seed <S>] [--out-dir <DIR>]
                    [--bound-eps <E>] [--delta <D>] [--backend <B>]
                    [--oracle <O>] [--max-counterexamples <K>]

Runs N seeded trials (default 1000) rotating through the static,
dynamic, distsim, scratch, stream, chaos-stream, and backend oracles.
Every trial is deterministic in its seed,
so a failure is reproducible by seed alone; on top of that each failure
is shrunk (ddmin over edges/updates) and written to
<out-dir>/counterexample-<seed>.json (default results/check/), a file
`sparsimatch check --replay` re-executes byte-identically. An oracle
that panics is a violation too (check `panic`, the panic message as
witness), shrunk and written the same way.

--bound-eps tightens the ratio bound below each instance's own epsilon
and --delta forces an explicit per-vertex mark count; both exist to
demonstrate the find -> shrink -> reproduce loop on bounds the theory
does not promise. At default parameters a sweep is expected to be clean.
--backend <delta|edcs> focuses every seed on the backend oracle,
restricted to that backend's claim checks (the CI oracle slice).
--oracle <static|dynamic|distsim|scratch|stream|chaos-stream|backend>
pins every seed to one oracle instead of the rotation — e.g. the CI
distsim slice runs `--oracle distsim`, whose checks include sharded
(multi-thread) vs sequential byte identity. --backend wins over
--oracle when both are given.

Exit codes: 0 clean sweep, 1 violations found, 2 usage error.";

struct Args {
    seeds: u64,
    start_seed: u64,
    out_dir: std::path::PathBuf,
    cfg: CheckConfig,
    max_counterexamples: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seeds: 1000,
        start_seed: 0,
        out_dir: std::path::PathBuf::from("results/check"),
        cfg: CheckConfig::default(),
        max_counterexamples: 8,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--help" || flag == "-h" {
            return Err(String::new());
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag}: {e}");
        match flag {
            "--seeds" => args.seeds = value.parse().map_err(|e| bad(&e))?,
            "--start-seed" => args.start_seed = value.parse().map_err(|e| bad(&e))?,
            "--out-dir" => args.out_dir = std::path::PathBuf::from(value),
            "--bound-eps" => {
                let eps: f64 = value.parse().map_err(|e| bad(&e))?;
                if !(eps.is_finite() && eps > 0.0) {
                    return Err(format!(
                        "--bound-eps must be finite and positive, got {eps}"
                    ));
                }
                args.cfg.bound_eps = Some(eps);
            }
            "--delta" => {
                let delta: usize = value.parse().map_err(|e| bad(&e))?;
                if delta == 0 {
                    return Err("--delta must be at least 1".to_string());
                }
                args.cfg.delta = Some(delta);
            }
            "--backend" => {
                args.cfg.backend = Some(
                    sparsimatch_core::backend::BackendKind::parse(value)
                        .ok_or_else(|| format!("--backend must be delta or edcs, got {value}"))?,
                );
            }
            "--oracle" => {
                args.cfg.oracle =
                    Some(sparsimatch_check::OracleKind::from_name(value).map_err(|e| bad(&e))?);
            }
            "--max-counterexamples" => {
                args.max_counterexamples = value.parse().map_err(|e| bad(&e))?
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    Ok(args)
}

/// Set while [`quietly`] runs an oracle whose panics come back as
/// `panic` verdicts, so the hook need not print each one.
static QUIET_PANICS: AtomicBool = AtomicBool::new(false);

/// Wrap the panic hook so that it stays quiet inside [`quietly`] and
/// reports every other panic as before: the sweep's first run of a
/// panicking oracle, and the shrinker's own code.
fn install_panic_hook() {
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !QUIET_PANICS.load(Ordering::Relaxed) {
            report(info);
        }
    }));
}

/// Run an oracle check, which never unwinds, without printing the panics
/// it catches.
fn quietly<T>(check: impl FnOnce() -> T) -> T {
    QUIET_PANICS.store(true, Ordering::Relaxed);
    let verdict = check();
    QUIET_PANICS.store(false, Ordering::Relaxed);
    verdict
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return;
            }
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };

    let mut trials_by_oracle = [0u64; 7];
    let mut violations = 0usize;
    // One pipeline arena for the whole sweep: every oracle's sequential
    // pipeline runs reuse it (the scratch oracle proves reuse is exact,
    // so sharing cannot change a verdict). Shrinking below deliberately
    // uses fresh-arena checks so reproducer replays stay self-contained.
    let mut scratch = PipelineScratch::new();
    install_panic_hook();
    for seed in args.start_seed..args.start_seed + args.seeds {
        let scenario = Scenario::generate(seed, &args.cfg);
        trials_by_oracle[scenario.oracle as usize] += 1;
        let Some(violation) =
            scenario
                .oracle
                .check_with_scratch(&scenario.instance, &args.cfg, &mut scratch)
        else {
            continue;
        };
        violations += 1;
        eprintln!(
            "seed {seed} [{}] VIOLATION {}: {}",
            scenario.oracle.name(),
            violation.check,
            violation.message
        );
        if violation.check == PANIC_CHECK {
            // The unwind may have left the shared arena mid-run.
            scratch = PipelineScratch::new();
        }

        // Shrink while the oracle still rejects *for the same check*:
        // without pinning the slug, removing edges from a dense family can
        // wander into a stale-β-certificate artifact instead of a smaller
        // witness of the original violation.
        let cfg = args.cfg;
        let oracle = scenario.oracle;
        let slug = violation.check.clone();
        // The hook has reported the first panic with its location;
        // candidates that panic while shrinking stay quiet.
        let (small, stats) = shrink_instance(
            violation.witness.as_ref().unwrap_or(&scenario.instance),
            |candidate| quietly(|| oracle.check(candidate, &cfg)).is_some_and(|v| v.check == slug),
            DEFAULT_CALL_BUDGET,
        );
        let final_violation =
            quietly(|| oracle.check(&small, &cfg)).expect("shrinker must preserve the violation");
        let doc = counterexample_doc(seed, oracle, &small, &cfg, &final_violation, &stats);
        if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
            eprintln!("error: cannot create {}: {e}", args.out_dir.display());
            std::process::exit(1);
        }
        let path = args.out_dir.join(report::counterexample_filename(seed));
        if let Err(e) = std::fs::write(&path, doc.to_pretty()) {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!(
            "  shrunk {} -> {} edges, {} -> {} updates ({} oracle calls); reproducer: {}",
            stats.edges_before,
            stats.edges_after,
            stats.updates_before,
            stats.updates_after,
            stats.oracle_calls,
            path.display()
        );
        if violations >= args.max_counterexamples {
            eprintln!("stopping after {violations} counterexamples (--max-counterexamples)");
            break;
        }
    }

    println!(
        "checked {} seeds (static {}, dynamic {}, distsim {}, scratch {}, stream {}, \
         chaos-stream {}, backend {}): {}",
        trials_by_oracle.iter().sum::<u64>(),
        trials_by_oracle[0],
        trials_by_oracle[1],
        trials_by_oracle[2],
        trials_by_oracle[3],
        trials_by_oracle[4],
        trials_by_oracle[5],
        trials_by_oracle[6],
        if violations == 0 {
            "all oracles green".to_string()
        } else {
            format!(
                "{violations} VIOLATION(S) — reproducers in {}",
                args.out_dir.display()
            )
        }
    );
    std::process::exit(i32::from(violations > 0));
}
