//! The repository benchmark. One command runs one named workload from a
//! seed, checks every output, and prints the workload's metrics by name,
//! with unit and sample count. The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`, and the
//! command exits nonzero when any check failed. README.md describes the
//! workloads, the metrics, and what each metric should move.

mod common;
mod distsim;
mod inmem;
mod serve;
mod stream;
mod trace;

use common::{Calibration, Config, Report};
use sparsimatch_obs::Json;
use std::process::{Command, Stdio};

/// End-to-end metrics, printed by every untraced run, as `(name, unit)`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("success_rate", "fraction"),
    ("delta_op_ms_p50", "ms"),
    ("variant_op_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics, printed by every traced run, as `(name, unit)`. A
/// layer the workload does not run reads 0 there.
const PER_LAYER: [(&str, &str); 52] = [
    ("edge_stream.scan_ns_per_edge", "ns"),
    ("edge_stream.read_mb_per_s", "MB/s"),
    ("edge_stream.bytes_read", "bytes"),
    ("stream_build.passes.delta", "count"),
    ("stream_build.passes.edcs", "count"),
    ("stream_build.visit_ns_per_edge.delta", "ns"),
    ("stream_build.visit_ns_per_edge.edcs", "ns"),
    ("stream_build.build_ms.delta", "ms"),
    ("stream_build.build_ms.edcs", "ms"),
    ("stream_build.peak_resident_mib.delta", "MiB"),
    ("stream_build.peak_resident_mib.edcs", "MiB"),
    ("sparsifier.mark_ms", "ms"),
    ("sparsifier.extract_ms", "ms"),
    ("sparsifier.neighbor_probes", "count"),
    ("sparsifier.keep_ratio", "fraction"),
    ("edcs.build_ms", "ms"),
    ("edcs.probes", "count"),
    ("edcs.keep_ratio", "fraction"),
    ("matching.match_ms.delta", "ms"),
    ("matching.match_ms.edcs", "ms"),
    ("matching.edge_visits", "count"),
    ("matching.augmentations", "count"),
    ("matching.ns_per_edge_visit", "ns"),
    ("pipeline.edges_per_s", "1/s"),
    ("distsim.exchange_ms", "ms"),
    ("distsim.ns_per_message", "ns"),
    ("distsim.messages", "count"),
    ("distsim.messages_cloned", "count"),
    ("distsim.rounds", "count"),
    ("distsim.local_ms", "ms"),
    ("distsim.phase_ms.sparsify", "ms"),
    ("distsim.phase_ms.solomon", "ms"),
    ("distsim.phase_ms.matching", "ms"),
    ("distsim.messages_per_s", "1/s"),
    ("faults.exchange_ms", "ms"),
    ("faults.dropped", "count"),
    ("faults.duplicated", "count"),
    ("faults.retries", "count"),
    ("serve.parse_us_p50", "us"),
    ("serve.encode_us_p50", "us"),
    ("serve.handle_us_p50.solve", "us"),
    ("serve.handle_us_p50.update", "us"),
    ("serve.handle_us_p50.query", "us"),
    ("serve.handle_us_p50.metrics", "us"),
    ("serve.transport_us_p50", "us"),
    ("serve.latency_ms_p50", "ms"),
    ("serve.generator_lag_ms_max", "ms"),
    ("serve.shed", "count"),
    ("serve.warm_solve_ratio", "fraction"),
    ("host.ref_kernel_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
];

const USAGE: &str = "usage: sparsimatch-perfbench --workload <inmem|stream|serve|distsim> \
[--seed N] [--seconds S] [--trace 0|1] [--repeat N] [--scale full|quick] [--corrupt-result]";

/// A parsed command line: the run's configuration, plus the steadiness
/// report's run count and the arguments each of its runs repeats.
struct Invocation {
    cfg: Config,
    repeat: Option<usize>,
    forwarded: Vec<String>,
}

fn parse(args: &[String]) -> Result<Invocation, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
        corrupt: false,
    };
    let mut repeat = None;
    let mut forwarded = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--corrupt-result" {
            cfg.corrupt = true;
            forwarded.push(flag.clone());
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let secs: f64 = value.parse().map_err(|_| bad())?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err(bad());
                }
                cfg.seconds = secs;
            }
            "--trace" | "--scale" => {
                let on = match (flag.as_str(), value.as_str()) {
                    ("--trace", "1") | ("--scale", "quick") => true,
                    ("--trace", "0") | ("--scale", "full") => false,
                    _ => return Err(bad()),
                };
                if flag == "--trace" {
                    cfg.trace = on;
                } else {
                    cfg.quick = on;
                }
            }
            "--repeat" => {
                let runs: usize = value.parse().map_err(|_| bad())?;
                if runs == 0 {
                    return Err(bad());
                }
                repeat = Some(runs);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
        if flag != "--seed" && flag != "--repeat" {
            forwarded.push(flag.clone());
            forwarded.push(value.clone());
        }
    }
    if !["inmem", "stream", "serve", "distsim"].contains(&cfg.workload.as_str()) {
        return Err(format!(
            "--workload must be inmem, stream, serve or distsim, got {:?}",
            cfg.workload
        ));
    }
    Ok(Invocation {
        cfg,
        repeat,
        forwarded,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--daemon") {
        let Some(sock) = args.get(1) else {
            eprintln!("--daemon needs a socket path");
            std::process::exit(2);
        };
        std::process::exit(serve::daemon(sock));
    }
    let inv = parse(&args).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2)
    });
    if let Some(runs) = inv.repeat {
        std::process::exit(steadiness(&inv, runs));
    }
    let cfg = &inv.cfg;
    let mut report = Report::default();
    let mut cal = Calibration::new();
    match cfg.workload.as_str() {
        "inmem" => inmem::run(cfg, &mut report, &mut cal),
        "stream" => stream::run(cfg, &mut report, &mut cal),
        "serve" => serve::run(cfg, &mut report, &mut cal),
        _ => distsim::run(cfg, &mut report, &mut cal),
    }
    if cfg.trace {
        let (ref_ms, refs) = cal.median_ms();
        report.set("host.ref_kernel_ms", ref_ms, refs);
    } else {
        report.note_calibration(&cal);
    }
    let correct = print_result(cfg, &report);
    std::process::exit(if correct { 0 } else { 1 });
}

/// Print the run — header, host facts, notes, failed checks, one line per
/// metric with unit and sample count — and last the JSON result line.
/// Returns whether every check held.
fn print_result(cfg: &Config, report: &Report) -> bool {
    let correct = report.attempted > 0 && report.failed == 0;
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    println!("host {}", common::host_facts());
    for note in report.notes() {
        println!("note: {note}");
    }
    for problem in report.problems() {
        println!("FAILED CHECK: {problem}");
    }
    println!(
        "checks: {} attempted, {} failed",
        report.attempted, report.failed
    );
    let table: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let (value, samples) = match name {
            "success_rate" => {
                let ok = report.attempted - report.failed;
                let rate = ok as f64 / report.attempted.max(1) as f64;
                (rate, report.attempted as usize)
            }
            _ => report.get(name).unwrap_or((0.0, 0)),
        };
        let value = if value.is_finite() { value } else { 0.0 };
        println!("metric {name:<38} {value:>18.6} {unit:<8} n={samples}");
        metrics.push(format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#));
    }
    println!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        report.attempted,
        report.failed,
        metrics.join(",")
    );
    correct
}

/// The steadiness report: `runs` runs of the workload, each in its own
/// process with the next seed, then every metric's median, quartiles,
/// quartile spread as a share of the median, and max/min ratio.
fn steadiness(inv: &Invocation, runs: usize) -> i32 {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut series: Vec<(String, String, Vec<f64>)> = Vec::new();
    let mut all_ok = true;
    for i in 0..runs {
        let seed = inv.cfg.seed + i as u64;
        let output = Command::new(&exe)
            .args(&inv.forwarded)
            .arg("--seed")
            .arg(seed.to_string())
            .stderr(Stdio::inherit())
            .output();
        let doc = output
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|text| text.lines().last().and_then(|l| Json::parse(l).ok()));
        let Some(Json::Object(metrics)) = doc.as_ref().and_then(|d| d.get("metrics")) else {
            println!("run {i} (seed {seed}): FAILED");
            all_ok = false;
            continue;
        };
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            match series.iter_mut().find(|s| s.0 == *name) {
                Some(s) => s.2.push(value),
                None => {
                    let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
                    series.push((name.clone(), unit.to_string(), vec![value]));
                }
            }
        }
        println!("run {i} (seed {seed}): ok");
    }
    println!(
        "{:<38} {:>16} {:>16} {:>16} {:>9} {:>8} unit",
        "metric", "median", "q1", "q3", "iqr/med", "max/min"
    );
    for (name, unit, values) in &series {
        let [q1, median, q3] = common::quartiles(values);
        let spread = if median == 0.0 {
            0.0
        } else {
            (q3 - q1) / median
        };
        let max = values.iter().copied().fold(f64::MIN, f64::max);
        let min = values.iter().copied().fold(f64::MAX, f64::min);
        println!(
            "{name:<38} {median:>16.6} {q1:>16.6} {q3:>16.6} {spread:>9.4} {:>8.4} {unit}",
            max / min
        );
    }
    i32::from(!all_ok)
}
