//! Hand-rolled argument parsing (no external dependency needed for four
//! subcommands).

use sparsimatch_core::backend::BackendKind;
use std::path::PathBuf;

/// Top-level usage text.
pub const USAGE: &str = "\
sparsimatch — matching sparsifiers for bounded neighborhood independence

USAGE:
  sparsimatch generate <family> --n <N> [--seed <S>] [--out <FILE>]
      families: clique | clique-union:<layers>:<clique_size> |
                unit-disk:<avg_degree> | gnp:<p> | line-gnp:<p> |
                path | cycle
  sparsimatch analyze <FILE> [--exact-beta] [--metrics-json <FILE>]
  sparsimatch sparsify <FILE> --beta <B> --eps <E> [--scale <S>] [--seed <S>] [--out <FILE>]
                       [--threads <T>] [--metrics-json <FILE>]
  sparsimatch match <FILE> (--eps <E> --beta <B> | --exact | --greedy) [--seed <S>] [--pairs]
                    [--backend delta|edcs] [--edcs-beta <B>] [--lambda <L>]
                    [--threads <T>] [--metrics-json <FILE>]
  sparsimatch distsim <FILE> [--algo approx|baseline|randomized] [--beta <B>] [--eps <E>]
                      [--seed <S>] [--pairs] [--threads <T>] [--metrics-json <FILE>]
                      [--fault-seed <S>] [--drop <P>] [--duplicate <P>] [--reorder <P>]
                      [--crash <P>] [--crash-period <K>] [--fault-horizon <R>] [--retries <K>]
  sparsimatch check --replay <FILE>
  sparsimatch serve [--socket <PATH>] [--backend delta|edcs] [--threads <T>] [--queue-cap <N>]
                    [--max-sessions <C>] [--deadline-ms <D>] [--idle-timeout-ms <I>]
                    [--drain-ms <W>]
  sparsimatch help

Graphs are plain-text edge lists: a `n m` header line followed by one
`u v` line per edge (0-based ids, `#` comments allowed). Omitting --out
writes the graph to stdout.

--threads <T> (1..=64, default 1) sets the worker count of the
marking stage; sparsifier CSR extraction and greedy matching run on
one thread. Marking draws from deterministic per-vertex RNG streams, so
the output depends only on --seed and is byte-identical for every
thread count. --metrics-json writes the unified work counters (probes,
RNG draws, overlay writes, ...) as JSON; the file is byte-stable for a
fixed seed unless the SPARSIMATCH_METRICS_TIMINGS=1 environment
variable adds wall-clock span timings (including per-stage
stage.mark / stage.extract / stage.match spans).

--backend selects the sparsifier family behind `match` (and the default
each serve session applies when a solve request names none). `delta`
(the default) is the paper's G_Delta pipeline and takes --beta/--eps.
`edcs` builds a (beta, (1 - lambda) * beta)-EDCS instead: it takes only
--eps, with --edcs-beta (default 16, must be >= 2) and --lambda
(default min(2/beta, 1/2), must keep lambda * beta >= 1) tuning the
edge-degree bound. EDCS construction is deterministic and ignores
--seed. See results/RESULTS.md for the measured trade-off between the
two backends.

distsim runs the synchronous message-passing pipeline on one machine
and reports rounds/messages/bits. --threads <T> (1..=64, default 1)
selects the execution engine: 1 runs the historical sequential
simulator, 2 and above runs the sharded engine (contiguous vertex
shards, one round worker each, deterministic batched message router);
the matching, round/message/bit counts, and fault counters are
byte-identical at every thread count. The --drop/--duplicate/--reorder/
--crash probabilities (each in [0, 1], default 0) inject seeded,
reproducible transport faults; --retries <K> arms a per-message
ack/retry layer that re-sends up to K times. Fault counters
(faults.dropped, faults.duplicated, faults.retries,
faults.crashed_rounds) appear in --metrics-json.

check --replay re-executes a counterexample reproducer written by the
`sparsimatch-check` differential fuzzer (results/check/
counterexample-<seed>.json; schema in EXPERIMENTS.md). Exit 0 means the
recorded violation reproduced and the re-rendered document is
byte-identical to the file; exit 8 means the violation is gone or the
bytes drifted.

serve runs a resident engine speaking newline-delimited JSON requests
(load_graph / solve / update / query / metrics / shutdown) with echoed
ids and typed error codes; see DESIGN.md for the wire schema. Without
--socket it serves one session over stdin/stdout; with --socket <PATH>
it accepts up to --max-sessions (default 4) concurrent unix-socket
sessions, each with its own resident graph and scratch arenas.
--queue-cap <N> (default 128) bounds the per-session request queue;
excess requests are answered with an `overloaded` error instead of
buffering without bound. Daemon runtime failures (e.g. the socket path
cannot be bound) exit 9.";

/// The `generate` subcommand.
#[derive(Clone, Debug, PartialEq)]
pub struct GenerateArgs {
    /// Family spec, e.g. `clique-union:2:100`.
    pub family: String,
    /// Number of vertices.
    pub n: usize,
    /// RNG seed.
    pub seed: u64,
    /// Output path (stdout if absent).
    pub out: Option<PathBuf>,
}

/// The `analyze` subcommand.
#[derive(Clone, Debug, PartialEq)]
pub struct AnalyzeArgs {
    /// Input graph.
    pub input: PathBuf,
    /// Also compute β exactly (exponential-time per neighborhood; fine on
    /// moderate graphs, omitted by default).
    pub exact_beta: bool,
    /// Write the analysis as JSON metrics to this path.
    pub metrics_json: Option<PathBuf>,
}

/// The `sparsify` subcommand.
#[derive(Clone, Debug, PartialEq)]
pub struct SparsifyArgs {
    /// Input graph.
    pub input: PathBuf,
    /// β bound to size Δ for.
    pub beta: usize,
    /// Target ε.
    pub eps: f64,
    /// Δ scale relative to the paper's proof constant (default 1/20).
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
    /// Output path (stdout if absent).
    pub out: Option<PathBuf>,
    /// Worker threads (1..=64); the sparsifier output is byte-identical
    /// for every accepted value.
    pub threads: usize,
    /// Write work-counter metrics as JSON to this path.
    pub metrics_json: Option<PathBuf>,
}

/// Matching algorithm selector.
#[derive(Clone, Debug, PartialEq)]
pub enum MatchAlgo {
    /// Sparsify-and-match through the `delta` backend (needs β and ε).
    Sparsify {
        /// β bound.
        beta: usize,
        /// Target ε.
        eps: f64,
    },
    /// Sparsify-and-match through the `edcs` backend (needs only ε; the
    /// EDCS parameters have CLI defaults).
    Edcs {
        /// EDCS edge-degree bound β (`--edcs-beta`).
        beta: usize,
        /// Slack λ (`--lambda`; `None` = the β-derived default).
        lambda: Option<f64>,
        /// Target ε for the augmentation stage.
        eps: f64,
    },
    /// Exact blossom.
    Exact,
    /// Greedy maximal.
    Greedy,
}

/// The `match` subcommand.
#[derive(Clone, Debug, PartialEq)]
pub struct MatchArgs {
    /// Input graph.
    pub input: PathBuf,
    /// Which algorithm.
    pub algo: MatchAlgo,
    /// RNG seed.
    pub seed: u64,
    /// Print the matched pairs, not just the size.
    pub pairs: bool,
    /// Worker threads (1..=64) for the marking stage of the
    /// sparsify-and-match pipeline (only meaningful with the sparsify
    /// algo); the matching is identical for every accepted value.
    pub threads: usize,
    /// Write work-counter metrics as JSON to this path.
    pub metrics_json: Option<PathBuf>,
}

/// Which distributed pipeline variant `distsim` runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DistAlgo {
    /// Sparsify → color → match → augment (the paper's pipeline).
    Approx,
    /// Sparsify → deterministic color-scheduled maximal matching.
    Baseline,
    /// Sparsify → randomized (Israeli–Itai) maximal matching.
    Randomized,
}

/// The `distsim` subcommand: run a distributed pipeline on the
/// simulator, optionally under seeded fault injection.
#[derive(Clone, Debug, PartialEq)]
pub struct DistsimArgs {
    /// Input graph.
    pub input: PathBuf,
    /// Pipeline variant.
    pub algo: DistAlgo,
    /// β bound for the sparsifier phase.
    pub beta: usize,
    /// Target ε.
    pub eps: f64,
    /// Algorithm RNG seed.
    pub seed: u64,
    /// Print the matched pairs, not just the size.
    pub pairs: bool,
    /// Seed for the fault plan (independent of the algorithm seed).
    pub fault_seed: u64,
    /// Per-message drop probability.
    pub drop: f64,
    /// Per-message duplication probability.
    pub duplicate: f64,
    /// Per-inbox reorder probability.
    pub reorder: f64,
    /// Per-window crash probability.
    pub crash: f64,
    /// Rounds per crash window.
    pub crash_period: u64,
    /// Faults only strike rounds `1..=horizon` (absent = forever).
    pub fault_horizon: Option<u64>,
    /// Ack/retry resend budget (0 = resilience layer off).
    pub retries: u32,
    /// Round-worker threads (1 = historical sequential simulator,
    /// 2..=64 = sharded execution engine; byte-identical output).
    pub threads: usize,
    /// Write work-counter + fault-counter metrics as JSON to this path.
    pub metrics_json: Option<PathBuf>,
}

/// The `check` subcommand: replay a counterexample reproducer.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckArgs {
    /// Reproducer file written by `sparsimatch-check`.
    pub replay: PathBuf,
}

/// The `serve` subcommand: run the resident request-loop daemon.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeArgs {
    /// Unix socket path (stdin/stdout session if absent).
    pub socket: Option<PathBuf>,
    /// Backend a solve request falls back to when it names none.
    pub backend: BackendKind,
    /// Worker threads (1..=64) per pipeline solve.
    pub threads: usize,
    /// Bounded per-session request queue capacity.
    pub queue_cap: usize,
    /// Concurrent unix-socket sessions accepted.
    pub max_sessions: usize,
    /// Per-request deadline in milliseconds (0 disables).
    pub deadline_ms: u64,
    /// Idle threshold for LRU session eviction at saturation (0 disables).
    pub idle_timeout_ms: u64,
    /// Bound on the graceful-drain window after daemon shutdown.
    pub drain_ms: u64,
}

/// A parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Generate a graph.
    Generate(GenerateArgs),
    /// Analyze a graph file.
    Analyze(AnalyzeArgs),
    /// Sparsify a graph file.
    Sparsify(SparsifyArgs),
    /// Match on a graph file.
    Match(MatchArgs),
    /// Run the distributed simulator (optionally with fault injection).
    Distsim(DistsimArgs),
    /// Replay a differential-fuzz counterexample reproducer.
    Check(CheckArgs),
    /// Run the resident serve daemon.
    Serve(ServeArgs),
    /// Print usage.
    Help,
}

struct Flags<'a> {
    rest: &'a [String],
}

impl<'a> Flags<'a> {
    fn get(&self, name: &str) -> Result<Option<&'a str>, String> {
        let mut found = None;
        let mut i = 0;
        while i < self.rest.len() {
            if self.rest[i] == name {
                let val = self
                    .rest
                    .get(i + 1)
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{name} needs a value"))?;
                if found.is_some() {
                    return Err(format!("{name} given twice"));
                }
                found = Some(val.as_str());
                i += 2;
            } else {
                i += 1;
            }
        }
        Ok(found)
    }

    fn has(&self, name: &str) -> bool {
        self.rest.iter().any(|a| a == name)
    }

    fn parse_opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(name)? {
            None => Ok(None),
            Some(s) => s.parse::<T>().map(Some).map_err(|e| format!("{name}: {e}")),
        }
    }

    fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        self.parse_opt(name)?
            .ok_or_else(|| format!("missing required {name}"))
    }

    fn expect_known(&self, known: &[&str]) -> Result<(), String> {
        for a in self.rest {
            if a.starts_with("--") && !known.contains(&a.as_str()) {
                return Err(format!("unknown flag {a}"));
            }
        }
        Ok(())
    }

    /// `--backend` as a [`BackendKind`], or `None` when absent.
    fn backend(&self) -> Result<Option<BackendKind>, String> {
        match self.get("--backend")? {
            None => Ok(None),
            Some(s) => BackendKind::parse(s)
                .map(Some)
                .ok_or_else(|| format!("--backend must be delta or edcs, got {s:?}")),
        }
    }
}

/// Parse a raw argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some(sub) = args.first() else {
        return Ok(Command::Help);
    };
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "generate" => {
            let family = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or("generate needs a family")?
                .clone();
            let flags = Flags { rest: &args[2..] };
            flags.expect_known(&["--n", "--seed", "--out"])?;
            Ok(Command::Generate(GenerateArgs {
                family,
                n: flags.require("--n")?,
                seed: flags.parse_opt("--seed")?.unwrap_or(0),
                out: flags.get("--out")?.map(PathBuf::from),
            }))
        }
        "analyze" => {
            let input = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or("analyze needs an input file")?;
            let flags = Flags { rest: &args[2..] };
            flags.expect_known(&["--exact-beta", "--metrics-json"])?;
            Ok(Command::Analyze(AnalyzeArgs {
                input: PathBuf::from(input),
                exact_beta: flags.has("--exact-beta"),
                metrics_json: flags.get("--metrics-json")?.map(PathBuf::from),
            }))
        }
        "sparsify" => {
            let input = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or("sparsify needs an input file")?;
            let flags = Flags { rest: &args[2..] };
            flags.expect_known(&[
                "--beta",
                "--eps",
                "--scale",
                "--seed",
                "--out",
                "--threads",
                "--metrics-json",
            ])?;
            Ok(Command::Sparsify(SparsifyArgs {
                input: PathBuf::from(input),
                beta: flags.require("--beta")?,
                eps: flags.require("--eps")?,
                scale: flags.parse_opt("--scale")?.unwrap_or(1.0 / 20.0),
                seed: flags.parse_opt("--seed")?.unwrap_or(0),
                out: flags.get("--out")?.map(PathBuf::from),
                threads: flags.parse_opt("--threads")?.unwrap_or(1),
                metrics_json: flags.get("--metrics-json")?.map(PathBuf::from),
            }))
        }
        "match" => {
            let input = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or("match needs an input file")?;
            let flags = Flags { rest: &args[2..] };
            flags.expect_known(&[
                "--exact",
                "--greedy",
                "--backend",
                "--beta",
                "--eps",
                "--edcs-beta",
                "--lambda",
                "--seed",
                "--pairs",
                "--threads",
                "--metrics-json",
            ])?;
            let backend = flags.backend()?;
            if backend.is_some() && (flags.has("--exact") || flags.has("--greedy")) {
                return Err(
                    "--backend selects a sparsifier; it conflicts with --exact/--greedy".into(),
                );
            }
            let algo = if flags.has("--exact") {
                MatchAlgo::Exact
            } else if flags.has("--greedy") {
                MatchAlgo::Greedy
            } else {
                match backend.unwrap_or(BackendKind::Delta) {
                    BackendKind::Delta => {
                        if flags.has("--edcs-beta") || flags.has("--lambda") {
                            return Err("--edcs-beta/--lambda require --backend edcs".to_string());
                        }
                        MatchAlgo::Sparsify {
                            beta: flags.require("--beta")?,
                            eps: flags.require("--eps")?,
                        }
                    }
                    BackendKind::Edcs => {
                        if flags.has("--beta") {
                            return Err(
                                "--beta is the delta backend's bound; with --backend edcs \
                                 use --edcs-beta"
                                    .to_string(),
                            );
                        }
                        MatchAlgo::Edcs {
                            beta: flags.parse_opt("--edcs-beta")?.unwrap_or(16),
                            lambda: flags.parse_opt("--lambda")?,
                            eps: flags.require("--eps")?,
                        }
                    }
                }
            };
            Ok(Command::Match(MatchArgs {
                input: PathBuf::from(input),
                algo,
                seed: flags.parse_opt("--seed")?.unwrap_or(0),
                pairs: flags.has("--pairs"),
                threads: flags.parse_opt("--threads")?.unwrap_or(1),
                metrics_json: flags.get("--metrics-json")?.map(PathBuf::from),
            }))
        }
        "distsim" => {
            let input = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or("distsim needs an input file")?;
            let flags = Flags { rest: &args[2..] };
            flags.expect_known(&[
                "--algo",
                "--beta",
                "--eps",
                "--seed",
                "--pairs",
                "--fault-seed",
                "--drop",
                "--duplicate",
                "--reorder",
                "--crash",
                "--crash-period",
                "--fault-horizon",
                "--retries",
                "--threads",
                "--metrics-json",
            ])?;
            let algo = match flags.get("--algo")?.unwrap_or("approx") {
                "approx" => DistAlgo::Approx,
                "baseline" => DistAlgo::Baseline,
                "randomized" => DistAlgo::Randomized,
                other => {
                    return Err(format!(
                        "--algo must be approx, baseline, or randomized, got {other:?}"
                    ))
                }
            };
            Ok(Command::Distsim(DistsimArgs {
                input: PathBuf::from(input),
                algo,
                beta: flags.parse_opt("--beta")?.unwrap_or(2),
                eps: flags.parse_opt("--eps")?.unwrap_or(0.5),
                seed: flags.parse_opt("--seed")?.unwrap_or(0),
                pairs: flags.has("--pairs"),
                fault_seed: flags.parse_opt("--fault-seed")?.unwrap_or(0),
                drop: flags.parse_opt("--drop")?.unwrap_or(0.0),
                duplicate: flags.parse_opt("--duplicate")?.unwrap_or(0.0),
                reorder: flags.parse_opt("--reorder")?.unwrap_or(0.0),
                crash: flags.parse_opt("--crash")?.unwrap_or(0.0),
                crash_period: flags.parse_opt("--crash-period")?.unwrap_or(8),
                fault_horizon: flags.parse_opt("--fault-horizon")?,
                retries: flags.parse_opt("--retries")?.unwrap_or(0),
                threads: flags.parse_opt("--threads")?.unwrap_or(1),
                metrics_json: flags.get("--metrics-json")?.map(PathBuf::from),
            }))
        }
        "check" => {
            let flags = Flags { rest: &args[1..] };
            flags.expect_known(&["--replay"])?;
            let replay = flags
                .get("--replay")?
                .ok_or("check needs --replay <FILE>")?;
            Ok(Command::Check(CheckArgs {
                replay: PathBuf::from(replay),
            }))
        }
        "serve" => {
            let flags = Flags { rest: &args[1..] };
            flags.expect_known(&[
                "--socket",
                "--backend",
                "--threads",
                "--queue-cap",
                "--max-sessions",
                "--deadline-ms",
                "--idle-timeout-ms",
                "--drain-ms",
            ])?;
            Ok(Command::Serve(ServeArgs {
                socket: flags.get("--socket")?.map(PathBuf::from),
                backend: flags.backend()?.unwrap_or(BackendKind::Delta),
                threads: flags.parse_opt("--threads")?.unwrap_or(1),
                queue_cap: flags.parse_opt("--queue-cap")?.unwrap_or(128),
                max_sessions: flags.parse_opt("--max-sessions")?.unwrap_or(4),
                deadline_ms: flags.parse_opt("--deadline-ms")?.unwrap_or(0),
                idle_timeout_ms: flags.parse_opt("--idle-timeout-ms")?.unwrap_or(0),
                drain_ms: flags.parse_opt("--drain-ms")?.unwrap_or(2_000),
            }))
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_generate() {
        let cmd = parse(&args(
            "generate clique-union:2:50 --n 200 --seed 7 --out g.el",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Generate(GenerateArgs {
                family: "clique-union:2:50".into(),
                n: 200,
                seed: 7,
                out: Some(PathBuf::from("g.el")),
            })
        );
    }

    #[test]
    fn parses_match_variants() {
        assert!(matches!(
            parse(&args("match g.el --exact")).unwrap(),
            Command::Match(MatchArgs {
                algo: MatchAlgo::Exact,
                ..
            })
        ));
        assert!(matches!(
            parse(&args("match g.el --greedy --pairs")).unwrap(),
            Command::Match(MatchArgs {
                algo: MatchAlgo::Greedy,
                pairs: true,
                ..
            })
        ));
        let sp = parse(&args("match g.el --beta 2 --eps 0.3")).unwrap();
        assert!(matches!(
            sp,
            Command::Match(MatchArgs {
                algo: MatchAlgo::Sparsify { beta: 2, .. },
                ..
            })
        ));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse(&args("generate --n 10")).is_err());
        assert!(parse(&args("generate clique")).is_err());
        assert!(parse(&args("sparsify g.el --beta 2")).is_err());
        assert!(parse(&args("match g.el")).is_err(), "needs algo flags");
        assert!(parse(&args("frobnicate")).is_err());
        assert!(parse(&args("generate clique --n abc")).is_err());
        assert!(parse(&args("generate clique --n 5 --n 6")).is_err());
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&args("help")).unwrap(), Command::Help);
        assert_eq!(parse(&args("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn defaults() {
        let Command::Sparsify(s) = parse(&args("sparsify g.el --beta 3 --eps 0.5")).unwrap() else {
            panic!()
        };
        assert_eq!(s.seed, 0);
        assert!((s.scale - 0.05).abs() < 1e-12);
        assert_eq!(s.out, None);
        assert_eq!(s.threads, 1);
        assert_eq!(s.metrics_json, None);
    }

    #[test]
    fn parses_threads_and_metrics_json() {
        let Command::Sparsify(s) = parse(&args(
            "sparsify g.el --beta 3 --eps 0.5 --threads 4 --metrics-json m.json",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(s.threads, 4);
        assert_eq!(s.metrics_json, Some(PathBuf::from("m.json")));
        let Command::Match(m) = parse(&args(
            "match g.el --exact --threads 2 --metrics-json out.json",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(m.threads, 2);
        assert_eq!(m.metrics_json, Some(PathBuf::from("out.json")));
        let Command::Analyze(a) = parse(&args("analyze g.el --metrics-json a.json")).unwrap()
        else {
            panic!()
        };
        assert_eq!(a.metrics_json, Some(PathBuf::from("a.json")));
        assert!(parse(&args("sparsify g.el --beta 3 --eps 0.5 --threads wat")).is_err());
    }

    #[test]
    fn parses_distsim() {
        let Command::Distsim(d) = parse(&args(
            "distsim g.el --algo baseline --beta 3 --eps 0.4 --seed 5 \
             --fault-seed 9 --drop 0.25 --duplicate 0.1 --reorder 0.5 \
             --crash 0.05 --crash-period 4 --fault-horizon 32 --retries 2 --threads 4",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(d.algo, DistAlgo::Baseline);
        assert_eq!(d.beta, 3);
        assert_eq!(d.fault_seed, 9);
        assert!((d.drop - 0.25).abs() < 1e-12);
        assert_eq!(d.crash_period, 4);
        assert_eq!(d.fault_horizon, Some(32));
        assert_eq!(d.retries, 2);
        assert_eq!(d.threads, 4);

        // Defaults: approx variant, zero-fault plan, resilience off,
        // sequential engine.
        let Command::Distsim(d) = parse(&args("distsim g.el")).unwrap() else {
            panic!()
        };
        assert_eq!(d.algo, DistAlgo::Approx);
        assert_eq!(d.drop, 0.0);
        assert_eq!(d.fault_horizon, None);
        assert_eq!(d.retries, 0);
        assert_eq!(d.threads, 1);

        assert!(parse(&args("distsim g.el --algo quantum")).is_err());
        assert!(parse(&args("distsim")).is_err());
        assert!(parse(&args("distsim g.el --drop zero")).is_err());
    }

    #[test]
    fn parses_check() {
        assert_eq!(
            parse(&args("check --replay results/check/counterexample-7.json")).unwrap(),
            Command::Check(CheckArgs {
                replay: PathBuf::from("results/check/counterexample-7.json"),
            })
        );
        assert!(parse(&args("check")).is_err(), "--replay is required");
        assert!(parse(&args("check --replay")).is_err());
        assert!(parse(&args("check --replay f.json --bogus 1")).is_err());
    }

    #[test]
    fn parses_serve() {
        assert_eq!(
            parse(&args("serve")).unwrap(),
            Command::Serve(ServeArgs {
                socket: None,
                backend: BackendKind::Delta,
                threads: 1,
                queue_cap: 128,
                max_sessions: 4,
                deadline_ms: 0,
                idle_timeout_ms: 0,
                drain_ms: 2_000,
            })
        );
        assert_eq!(
            parse(&args(
                "serve --socket /tmp/s.sock --backend edcs --threads 2 --queue-cap 16 \
                 --max-sessions 8 --deadline-ms 250 --idle-timeout-ms 5000 --drain-ms 750"
            ))
            .unwrap(),
            Command::Serve(ServeArgs {
                socket: Some(PathBuf::from("/tmp/s.sock")),
                backend: BackendKind::Edcs,
                threads: 2,
                queue_cap: 16,
                max_sessions: 8,
                deadline_ms: 250,
                idle_timeout_ms: 5000,
                drain_ms: 750,
            })
        );
        assert!(parse(&args("serve --socket")).is_err());
        assert!(parse(&args("serve --threads wat")).is_err());
        assert!(parse(&args("serve --port 80")).is_err(), "unknown flag");
        assert!(parse(&args("serve --backend magic")).is_err());
    }

    #[test]
    fn parses_match_backend_selection() {
        // EDCS with everything explicit.
        let Command::Match(m) = parse(&args(
            "match g.el --backend edcs --edcs-beta 8 --lambda 0.25 --eps 0.3",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(
            m.algo,
            MatchAlgo::Edcs {
                beta: 8,
                lambda: Some(0.25),
                eps: 0.3,
            }
        );
        // EDCS defaults: beta 16, lambda derived at the command layer.
        let Command::Match(m) = parse(&args("match g.el --backend edcs --eps 0.3")).unwrap() else {
            panic!()
        };
        assert_eq!(
            m.algo,
            MatchAlgo::Edcs {
                beta: 16,
                lambda: None,
                eps: 0.3,
            }
        );
        // An explicit `--backend delta` is the existing sparsify algo.
        let Command::Match(m) =
            parse(&args("match g.el --backend delta --beta 2 --eps 0.3")).unwrap()
        else {
            panic!()
        };
        assert_eq!(m.algo, MatchAlgo::Sparsify { beta: 2, eps: 0.3 });
        // Conflicts and typos are hard errors, not silent fallbacks.
        assert!(parse(&args("match g.el --backend warp --eps 0.3")).is_err());
        assert!(parse(&args("match g.el --backend edcs --beta 2 --eps 0.3")).is_err());
        assert!(parse(&args("match g.el --edcs-beta 8 --beta 2 --eps 0.3")).is_err());
        assert!(parse(&args(
            "match g.el --backend delta --lambda 0.1 --beta 2 --eps 0.3"
        ))
        .is_err());
        assert!(parse(&args("match g.el --backend edcs --exact")).is_err());
    }

    #[test]
    fn rejects_unknown_and_dangling_flags() {
        // A typo'd flag is an error, not silently ignored.
        let e = parse(&args("sparsify g.el --beta 2 --eps 0.3 --thread 2")).unwrap_err();
        assert!(e.contains("unknown flag --thread"), "{e}");
        // A flag cannot swallow the next flag as its value.
        let e = parse(&args("match g.el --exact --metrics-json --pairs")).unwrap_err();
        assert!(e.contains("--metrics-json needs a value"), "{e}");
    }
}
