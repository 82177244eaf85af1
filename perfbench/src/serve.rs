//! `serve`: the unix-socket daemon with one session holding a resident
//! clique-union graph. The daemon is this binary re-run as a child process
//! in `--daemon` mode, which calls the library's `serve_unix`.
//!
//! The session sends the seeded request mix of `exp_serve_bench` (reads,
//! writes through the dynamic matcher, warm `solve`s on both backends, and
//! an occasional graph reload) open loop at a fixed rate, each request
//! timed from its scheduled send, on one connection with two threads
//! (writer and reader). The session's requests are then replayed in
//! process through `parse_request`, `SessionEngine::handle` and
//! `ok_response` — the calls the daemon's worker makes, without the socket
//! — on a fresh engine per repetition, for as long as the run lasts. The
//! end-to-end metrics are the replay's service times: the socket's
//! wake-ups move with the load of the machine's host far more than any
//! bound could absorb, so the open-loop latencies are per-layer metrics.

use crate::common::{self, Calibration, Config, Report, SameOutput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparsimatch_core::backend::BackendKind;
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::generators::family_from_spec;
use sparsimatch_graph::ids::VertexId;
use sparsimatch_obs::Json;
use sparsimatch_serve::protocol::{error_response, ok_response, parse_request};
use sparsimatch_serve::{serve_unix, EngineConfig, ServeConfig, SessionEngine};
use std::collections::HashSet;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

#[derive(Clone, Copy)]
struct Shape {
    n: usize,
    clique: usize,
    /// Open-loop arrival rate, requests per second.
    rate: f64,
    /// Open-loop requests, the session's script after the warm-ups.
    requests: usize,
}

/// The p99 latency limit the open loop is held to; recorded in the output.
const LATENCY_LIMIT_MS: f64 = 50.0;
/// The tail percentile `latency_ms_tail` reads: the replay times thousands
/// of requests per run, so p99 has far more than ten beyond it.
const TAIL: f64 = 0.99;
/// Commands whose handle time the trace reports, as the wire spells them.
const HANDLED: [(&str, &str); 4] = [
    ("solve", "serve.handle_us_p50.solve"),
    ("update", "serve.handle_us_p50.update"),
    ("query", "serve.handle_us_p50.query"),
    ("metrics", "serve.handle_us_p50.metrics"),
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Cmd {
    Query,
    QueryPairs,
    Metrics,
    Update,
    SolveDelta,
    SolveEdcs,
    Load,
}

/// `--daemon <socket>`: serve one unix socket until a daemon-scope
/// shutdown.
pub fn daemon(sock: &str) -> i32 {
    let cfg = ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    };
    match serve_unix(Path::new(sock), &cfg) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench daemon: {e}");
            1
        }
    }
}

/// The request mix of `exp_serve_bench` (EXPERIMENTS.md, "Serve latency"):
/// 70% `query` (a tenth of them for the pairs), 15% `metrics`, 10%
/// `update` and 4% `solve`, alternating the two backends, in exact
/// proportions and a seeded order. Its 1%
/// `load_graph` is a `query` here: after a reload, the next update stands
/// the dynamic matcher up again by inserting every edge, about 400 ms on
/// this graph, which overflows the daemon's queue at any open-loop rate
/// worth measuring. Updates insert chords absent from the graph and delete
/// live ones, so every update is valid.
struct Mix {
    rng: StdRng,
    graph: CsrGraph,
    spec: String,
    seed: u64,
    chords: Vec<(u32, u32)>,
    live: HashSet<(u32, u32)>,
    next_id: u64,
}

impl Mix {
    fn new(seed: u64, shape: Shape) -> Mix {
        let spec = format!("clique-union:2:{}", shape.clique);
        // The daemon draws the same graph from the same spec and seed.
        let graph = family_from_spec(&spec, shape.n, &mut StdRng::seed_from_u64(seed))
            .expect("a valid family spec");
        Mix {
            rng: StdRng::seed_from_u64(seed ^ 0x5e7e),
            graph,
            spec,
            seed,
            chords: Vec::new(),
            live: HashSet::new(),
            next_id: 0,
        }
    }

    /// `count` commands in exactly the mix's proportions, in a seeded
    /// order, so that every seed's script costs the same to serve.
    fn script(&mut self, count: usize) -> Vec<Cmd> {
        let share = |percent: usize| count * percent / 100;
        let mut deck = Vec::with_capacity(count);
        for (cmd, percent) in [
            (Cmd::QueryPairs, 7),
            (Cmd::Metrics, 15),
            (Cmd::Update, 10),
            (Cmd::SolveDelta, 4),
        ] {
            deck.extend(std::iter::repeat_n(cmd, share(percent)));
        }
        // The rest, 63%, are status queries.
        deck.resize(count, Cmd::Query);
        for i in (1..deck.len()).rev() {
            deck.swap(i, self.rng.random_range(0..=i));
        }
        // Solves alternate the backends in script order.
        let mut solves = 0u64;
        for cmd in &mut deck {
            if *cmd == Cmd::SolveDelta {
                solves += 1;
                if solves.is_multiple_of(2) {
                    *cmd = Cmd::SolveEdcs;
                }
            }
        }
        deck
    }

    fn line(&mut self, cmd: Cmd) -> (u64, String) {
        let id = self.next_id;
        self.next_id += 1;
        let line = match cmd {
            Cmd::Query => format!(r#"{{"id":{id},"cmd":"query","what":"status"}}"#),
            Cmd::QueryPairs => format!(r#"{{"id":{id},"cmd":"query","what":"pairs"}}"#),
            Cmd::Metrics => format!(r#"{{"id":{id},"cmd":"metrics"}}"#),
            Cmd::SolveDelta => format!(
                r#"{{"id":{id},"cmd":"solve","backend":"delta","beta":2,"eps":0.5,"seed":{}}}"#,
                self.seed
            ),
            Cmd::SolveEdcs => {
                format!(r#"{{"id":{id},"cmd":"solve","backend":"edcs","edcs_beta":16,"eps":0.5}}"#)
            }
            Cmd::Update => {
                let (op, (u, v)) = self.chord();
                format!(
                    r#"{{"id":{id},"cmd":"update","ops":[["{op}",{u},{v}]],"beta":2,"eps":0.5}}"#
                )
            }
            Cmd::Load => {
                format!(
                    r#"{{"id":{id},"cmd":"load_graph","n":{},"family":"{}","seed":{}}}"#,
                    self.graph.num_vertices(),
                    self.spec,
                    self.seed
                )
            }
        };
        (id, line)
    }

    fn chord(&mut self) -> (&'static str, (u32, u32)) {
        if !self.chords.is_empty() && self.rng.random_bool(0.4) {
            let at = self.rng.random_range(0..self.chords.len());
            let chord = self.chords.swap_remove(at);
            self.live.remove(&chord);
            return ("delete", chord);
        }
        let n = self.graph.num_vertices() as u32;
        loop {
            let (u, v) = (self.rng.random_range(0..n), self.rng.random_range(0..n));
            let chord = (u.min(v), u.max(v));
            if u != v
                && !self.graph.has_edge(VertexId(chord.0), VertexId(chord.1))
                && self.live.insert(chord)
            {
                self.chords.push(chord);
                return ("insert", chord);
            }
        }
    }
}

/// The daemon child process; killed and reaped on drop if it is still up.
struct Daemon {
    child: Child,
    sock: PathBuf,
}

impl Daemon {
    fn start(sock: &Path) -> io::Result<(Daemon, UnixStream)> {
        let _ = std::fs::remove_file(sock);
        let child = Command::new(std::env::current_exe()?)
            .arg("--daemon")
            .arg(sock)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()?;
        let mut daemon = Daemon {
            child,
            sock: sock.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match UnixStream::connect(sock) {
                Ok(stream) => return Ok((daemon, stream)),
                Err(e) if Instant::now() > deadline || daemon.child.try_wait()?.is_some() => {
                    return Err(e)
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.sock);
    }
}

fn send_line(w: &mut impl Write, line: &str) -> io::Result<()> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    w.write_all(&buf)
}

fn read_line(r: &mut impl BufRead) -> io::Result<String> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "the daemon closed the connection",
        ));
    }
    while line.ends_with(['\n', '\r']) {
        line.pop();
    }
    Ok(line)
}

/// `Ok` when `line` answers request `id` with `"ok": true`. Anything else,
/// `overloaded` and `timeout` included, is a failed request.
fn verdict(line: &str, id: u64) -> Result<(), String> {
    let doc = Json::parse(line).map_err(|e| format!("request {id}: unparseable response: {e}"))?;
    let answered = doc.get("id").and_then(Json::as_u64) == Some(id);
    if answered && doc.get("ok").and_then(Json::as_bool) == Some(true) {
        Ok(())
    } else {
        let shown: String = line.chars().take(160).collect();
        Err(format!("request {id} failed: {shown}"))
    }
}

impl Cmd {
    /// The command as the wire spells it.
    fn wire_name(self) -> &'static str {
        match self {
            Cmd::Query | Cmd::QueryPairs => "query",
            Cmd::Metrics => "metrics",
            Cmd::Update => "update",
            Cmd::SolveDelta | Cmd::SolveEdcs => "solve",
            Cmd::Load => "load_graph",
        }
    }
}

/// One request of the session and the daemon's response to it.
struct Entry {
    cmd: Cmd,
    line: String,
    response: String,
}

/// The session's one connection, with every request and the daemon's
/// response, in the order the daemon executed them.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    log: Vec<Entry>,
}

impl Conn {
    fn call(&mut self, cmd: Cmd, line: String) -> io::Result<String> {
        send_line(&mut self.writer, &line)?;
        let response = read_line(&mut self.reader)?;
        self.log.push(Entry {
            cmd,
            line,
            response: response.clone(),
        });
        Ok(response)
    }
}

struct Session {
    conn: Conn,
    mix: Mix,
    daemon: Daemon,
}

impl Session {
    /// Shut the daemon down over the session's connection and reap it.
    fn stop(mut self) {
        let line = format!(
            r#"{{"id":{},"cmd":"shutdown","scope":"daemon"}}"#,
            self.mix.next_id
        );
        if send_line(&mut self.conn.writer, &line).is_ok()
            && read_line(&mut self.conn.reader).is_ok()
        {
            let _ = self.daemon.child.wait();
        }
    }
}

fn setup(cfg: &Config, shape: Shape, sock: &Path, report: &mut Report) -> Result<Session, String> {
    let (daemon, stream) =
        Daemon::start(sock).map_err(|e| format!("the daemon did not start: {e}"))?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let conn = Conn {
        reader,
        writer: stream,
        log: Vec::new(),
    };
    let mut s = Session {
        conn,
        mix: Mix::new(cfg.seed, shape),
        daemon,
    };
    // The load, then one discarded warm-up per command kind; the first
    // update stands up the dynamic matcher.
    for cmd in [
        Cmd::Load,
        Cmd::SolveDelta,
        Cmd::SolveEdcs,
        Cmd::Update,
        Cmd::Query,
        Cmd::QueryPairs,
        Cmd::Metrics,
    ] {
        let (id, line) = s.mix.line(cmd);
        let response = s.conn.call(cmd, line).map_err(|e| e.to_string())?;
        report.verdict(cmd.wire_name(), verdict(&response, id));
    }
    Ok(s)
}

/// What the open loop measured for its successful requests.
struct OpenLoop {
    latency_ms: Vec<f64>,
    /// Where each request sits in the session log.
    log_index: Vec<usize>,
    lag_ms: f64,
}

/// Send `count` requests of the mix at `rate` per second, each timed from
/// its scheduled send, while a second thread reads the responses.
fn open_loop(
    s: &mut Session,
    rate: f64,
    count: usize,
    report: &mut Report,
) -> Result<OpenLoop, String> {
    let script: Vec<(u64, Cmd, String)> = s
        .mix
        .script(count)
        .into_iter()
        .map(|cmd| {
            let (id, line) = s.mix.line(cmd);
            (id, cmd, line)
        })
        .collect();
    let first_id = script[0].0;
    let start = Instant::now() + Duration::from_millis(5);
    let due = move |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let mut writer = s.conn.writer.try_clone().map_err(|e| e.to_string())?;
    let reader = &mut s.conn.reader;
    let mut received: Vec<Option<(Instant, String)>> = vec![None; count];
    let mut stray = 0usize;
    let script_ref = &script;
    let (sent, read_error) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> io::Result<Duration> {
            let mut lag = Duration::ZERO;
            for (i, (_, _, line)) in script_ref.iter().enumerate() {
                let at = due(i);
                if let Some(wait) = at.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                lag = lag.max(Instant::now().saturating_duration_since(at));
                send_line(&mut writer, line)?;
            }
            Ok(lag)
        });
        let mut read_error = None;
        for _ in 0..count {
            match read_line(reader) {
                Ok(line) => {
                    let at = Instant::now();
                    let slot = Json::parse(&line)
                        .ok()
                        .and_then(|doc| doc.get("id").and_then(Json::as_u64))
                        .and_then(|id| id.checked_sub(first_id))
                        .and_then(|k| usize::try_from(k).ok())
                        .filter(|&k| k < count);
                    match slot {
                        Some(k) => received[k] = Some((at, line)),
                        None => stray += 1,
                    }
                }
                Err(e) => {
                    read_error = Some(e);
                    break;
                }
            }
        }
        let sent = sender.join().expect("the open-loop writer thread");
        (sent, read_error)
    });
    let lag = sent.map_err(|e| format!("open loop send: {e}"))?;
    if let Some(e) = read_error {
        return Err(format!("open loop read: {e}"));
    }
    report.check(stray == 0, || {
        format!("{stray} open-loop responses named no request of the loop")
    });
    let mut out = OpenLoop {
        latency_ms: Vec::with_capacity(count),
        log_index: Vec::with_capacity(count),
        lag_ms: lag.as_secs_f64() * 1e3,
    };
    for (i, ((id, cmd, line), got)) in script.into_iter().zip(received).enumerate() {
        let response = match got {
            Some((at, response)) => {
                if report.verdict("open loop", verdict(&response, id)) {
                    out.latency_ms.push(common::ms_between(due(i), at));
                    out.log_index.push(s.conn.log.len());
                }
                response
            }
            None => {
                report.check(false, || format!("request {id} got no response"));
                String::new()
            }
        };
        s.conn.log.push(Entry {
            cmd,
            line,
            response,
        });
    }
    Ok(out)
}

/// One replay of the session log, in order, on a fresh engine.
struct Replay {
    /// FNV-1a over every response but `metrics`: equal across repetitions.
    fingerprint: u64,
    /// Requests answered with an error.
    failed: usize,
    /// Solve responses that differ from the daemon's, of `solves`.
    mismatched: usize,
    solves: usize,
    wall_ms: f64,
    /// What takes this replay's times to the nominal host speed.
    scale: f64,
    /// Per log entry, ms from the request line to the encoded response.
    service_ms: Vec<f64>,
    /// Per log entry, when staged: µs in parse, handle and encode.
    stages_us: Vec<[f64; 3]>,
}

/// Replay `log` through `parse_request`, `SessionEngine::handle` and
/// `ok_response`: the calls the daemon's worker makes, without the
/// transport. `staged` also times each of the three calls. With a
/// `bracket` `(first, cal)`, kernel passes right before entry `first` and
/// after the last entry give the scale of the entries in between.
fn replay(log: &[Entry], staged: bool, bracket: Option<(usize, &mut Calibration)>) -> Replay {
    let mut engine = SessionEngine::new(EngineConfig {
        threads: 1,
        backend: BackendKind::Delta,
    });
    let mut out = Replay {
        fingerprint: 0,
        failed: 0,
        mismatched: 0,
        solves: 0,
        wall_ms: 0.0,
        scale: 1.0,
        service_ms: Vec::with_capacity(log.len()),
        stages_us: Vec::with_capacity(if staged { log.len() } else { 0 }),
    };
    let us = |a: Instant, b: Instant| common::ms_between(a, b) * 1e3;
    let mut response_fps = Vec::with_capacity(log.len());
    let (first, mut cal) = bracket.map_or((usize::MAX, None), |(i, cal)| (i, Some(cal)));
    let mut pass = None;
    let start = Instant::now();
    for (i, entry) in log.iter().enumerate() {
        if i == first {
            pass = cal.as_mut().map(|cal| cal.sample());
        }
        let t0 = Instant::now();
        let (response, t1, t2) = match parse_request(&entry.line) {
            Ok(env) => {
                let t1 = staged.then(Instant::now);
                let body = engine.handle(&env.request);
                let t2 = staged.then(Instant::now);
                let response = match body {
                    Ok(body) => ok_response(env.id, body),
                    Err(e) => {
                        out.failed += 1;
                        error_response(Some(env.id), e.code, &e.message)
                    }
                };
                (response, t1, t2)
            }
            Err((_, e)) => {
                out.failed += 1;
                (e.message, None, None)
            }
        };
        let t3 = Instant::now();
        out.service_ms.push(common::ms_between(t0, t3));
        if staged {
            let (t1, t2) = (t1.unwrap_or(t3), t2.unwrap_or(t3));
            out.stages_us.push([us(t0, t1), us(t1, t2), us(t2, t3)]);
        }
        if matches!(entry.cmd, Cmd::SolveDelta | Cmd::SolveEdcs) {
            out.solves += 1;
            out.mismatched += usize::from(response != entry.response);
        }
        // A `metrics` response holds the dynamic graph's allocated bytes,
        // which vary from run to run; every other response is exact.
        if entry.cmd != Cmd::Metrics {
            response_fps.push(common::fnv(response.bytes().map(u64::from)));
        }
    }
    out.wall_ms = common::ms_between(start, Instant::now());
    if let (Some(cal), Some(pass)) = (cal, pass) {
        cal.sample();
        out.scale = cal.scale(pass);
    }
    out.fingerprint = common::fnv(response_fps);
    out
}

/// Check one replay: every request succeeded, every solve equals the
/// daemon's response, and the responses equal the first repetition's.
fn check_replay(r: &Replay, same: &mut SameOutput, report: &mut Report) {
    report.check(r.failed == 0, || {
        format!("{} replayed requests failed", r.failed)
    });
    report.check(r.solves > 0 && r.mismatched == 0, || {
        format!(
            "{} of {} solve responses differ from the daemon's",
            r.mismatched, r.solves
        )
    });
    report.verdict("replay", same.verdict(r.fingerprint));
}

pub fn run(cfg: &Config, report: &mut Report, cal: &mut Calibration) {
    let shape = if cfg.quick {
        Shape {
            n: 100,
            clique: 10,
            rate: 200.0,
            requests: 100,
        }
    } else {
        Shape {
            n: 300,
            clique: 20,
            rate: 500.0,
            requests: 1500,
        }
    };
    let sock = common::scratch_dir().join(format!("serve-{}.sock", std::process::id()));
    let (session, setup_times) = common::repeat_setup(cal, || setup(cfg, shape, &sock, report));
    report.set_setup(setup_times);
    let mut s = match session {
        Ok(s) => s,
        Err(e) => {
            report.check(false, || e);
            return;
        }
    };
    let open_s = shape.requests as f64 / shape.rate;
    let pid = s.daemon.child.id();
    // Setup's requests, which the metrics leave out: the load and the
    // warm-ups, among them the update that stands up the dynamic matcher.
    let first = s.conn.log.len();
    report.start_rss_window(pid);
    let open = open_loop(&mut s, shape.rate, shape.requests, report);
    report.end_rss_window(pid, 0.0);
    let log = std::mem::take(&mut s.conn.log);
    let m = s.mix.graph.num_edges();
    s.stop();
    let open = match open {
        Ok(open) => open,
        Err(e) => {
            report.check(false, || e);
            return;
        }
    };
    let tail = common::quantile(&open.latency_ms, TAIL);
    let met = if tail <= LATENCY_LIMIT_MS {
        "met"
    } else {
        "missed"
    };
    report.note(format!(
        "serve: clique-union n={} m={}; {} requests open loop at {} req/s ({open_s:.1} s), one connection, two threads: p99 {tail:.3} ms from the scheduled send, so the {LATENCY_LIMIT_MS} ms limit is {met}; generator lag at most {:.3} ms",
        shape.n,
        m,
        shape.requests,
        shape.rate,
        open.lag_ms
    ));
    // The first replay is the discarded warm-up, and the reference every
    // repetition's responses must equal.
    let mut same = SameOutput::new(cfg.corrupt);
    check_replay(&replay(&log, false, None), &mut same, report);
    let replay_s = (cfg.seconds - open_s).max(cfg.seconds / 2.0);
    report.note(format!(
        "the {} logged requests are replayed in process on a fresh engine per repetition for {replay_s:.1} s; the end-to-end metrics are the service times of the {} open-loop ones",
        log.len(),
        log.len() - first
    ));
    if cfg.trace {
        trace(report, cal, &log, &open, &mut same, replay_s);
        return;
    }
    // Every open-loop request of a repetition, at the nominal speed of
    // the kernel passes around them.
    let mut reps: Vec<Vec<f64>> = Vec::new();
    let start = Instant::now();
    while reps.len() < 2 || start.elapsed().as_secs_f64() < replay_s {
        let r = replay(&log, false, Some((first, &mut *cal)));
        check_replay(&r, &mut same, report);
        reps.push(
            r.service_ms[first..]
                .iter()
                .map(|ms| ms * r.scale)
                .collect(),
        );
    }
    let script = &log[first..];
    let of = |want: Cmd| -> Vec<f64> {
        let per_rep = reps.iter().map(|service_ms| {
            let pairs = script.iter().zip(service_ms);
            pairs.filter(move |(e, _)| e.cmd == want).map(|(_, ms)| *ms)
        });
        per_rep.flatten().collect()
    };
    let all = reps.concat();
    let busy_s = all.iter().sum::<f64>() / 1e3;
    report.set_op_metrics(
        &of(Cmd::SolveDelta),
        &of(Cmd::SolveEdcs),
        &all,
        TAIL,
        all.len() as f64 / busy_s,
        all.len(),
    );
}

/// The traced run: plain replays (kind 0) interleaved with staged ones
/// (kind 1), which time parse, handle and encode. Transport is what the
/// open-loop latency holds beyond them, i.e. queue wait plus the socket.
fn trace(
    report: &mut Report,
    cal: &mut Calibration,
    log: &[Entry],
    open: &OpenLoop,
    same: &mut SameOutput,
    seconds: f64,
) {
    let mut staged: Vec<Replay> = Vec::new();
    let samples = common::interleave(2, seconds, cal, |kind| {
        let r = replay(log, kind == 1, None);
        check_replay(&r, same, report);
        let wall_ms = r.wall_ms;
        if kind == 1 {
            staged.push(r);
        }
        wall_ms
    })
    .raw;
    let column = |stage: usize, cmd: Option<&str>| -> Vec<f64> {
        let rows = staged.iter().flat_map(|r| log.iter().zip(&r.stages_us));
        let rows = rows.filter(|(e, _)| cmd.is_none_or(|want| e.cmd.wire_name() == want));
        rows.map(|(_, us)| us[stage]).collect()
    };
    let n = staged.len() * log.len();
    report.set("serve.parse_us_p50", common::median(&column(0, None)), n);
    report.set("serve.encode_us_p50", common::median(&column(2, None)), n);
    for (cmd, metric) in HANDLED {
        let handle_us = column(1, Some(cmd));
        report.set(metric, common::median(&handle_us), handle_us.len());
    }
    let last = staged.last().expect("the interleave runs every kind twice");
    let transport_us: Vec<f64> = open
        .latency_ms
        .iter()
        .zip(&open.log_index)
        .map(|(ms, &i)| ms * 1e3 - last.stages_us[i].iter().sum::<f64>())
        .collect();
    report.set(
        "serve.transport_us_p50",
        common::median(&transport_us),
        transport_us.len(),
    );
    let requests = open.latency_ms.len();
    report.set(
        "serve.latency_ms_p50",
        common::median(&open.latency_ms),
        requests,
    );
    report.set("serve.generator_lag_ms_max", open.lag_ms, requests);
    let (mut shed, mut solves, mut warm) = (0usize, 0usize, 0usize);
    for entry in log {
        let Ok(doc) = Json::parse(&entry.response) else {
            continue;
        };
        let code = doc
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str);
        if matches!(code, Some("overloaded" | "timeout")) {
            shed += 1;
        }
        let warm_flag = doc
            .get("result")
            .and_then(|r| r.get("warm"))
            .and_then(Json::as_bool);
        if let Some(w) = warm_flag {
            solves += 1;
            warm += usize::from(w);
        }
    }
    report.set("serve.shed", shed as f64, log.len());
    report.set(
        "serve.warm_solve_ratio",
        warm as f64 / solves.max(1) as f64,
        solves,
    );
    let overhead = common::median(&samples[1]) / common::median(&samples[0]) - 1.0;
    report.set("trace.overhead_pct", 100.0 * overhead, staged.len());
    let staged_ms: f64 = staged
        .iter()
        .flat_map(|r| r.stages_us.iter().flatten())
        .sum::<f64>()
        / 1e3;
    let staged_wall_ms: f64 = staged.iter().map(|r| r.wall_ms).sum();
    report.set(
        "trace.coverage_pct",
        100.0 * staged_ms / staged_wall_ms,
        staged.len(),
    );
}
