//! Golden wire-protocol tests: scripted sessions through the real
//! request loop ([`run_session`]) covering every command, the
//! malformed-request paths (bad JSON, over-deep nesting, oversized
//! line), the overload path and the stdio session's waiting admission
//! ([`run_stdio_session`]), plus a unix-socket end-to-end session.

use sparsimatch_obs::Json;
use sparsimatch_serve::{
    run_session, run_stdio_session, serve_unix, ServeConfig, SessionSummary, MAX_REQUEST_BYTES,
};
use std::io::{BufRead, BufReader, Cursor, Write};
use std::os::unix::net::UnixStream;

fn run_script(script: &str, cfg: &ServeConfig) -> (Vec<String>, SessionSummary) {
    let mut out: Vec<u8> = Vec::new();
    let summary =
        run_session(Cursor::new(script.to_string()), &mut out, cfg, None).expect("session runs");
    let lines = String::from_utf8(out)
        .expect("responses are UTF-8")
        .lines()
        .map(str::to_string)
        .collect();
    (lines, summary)
}

/// Every response line must be a parseable single-line JSON object with
/// an `ok` flag.
fn parse_response(line: &str) -> Json {
    let doc = Json::parse(line).unwrap_or_else(|e| panic!("unparseable response {line:?}: {e}"));
    assert!(doc.get("ok").is_some(), "no ok flag in {line:?}");
    doc
}

fn error_code(doc: &Json) -> Option<String> {
    if doc.get("ok").unwrap().as_bool() == Some(true) {
        return None;
    }
    Some(
        doc.get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string(),
    )
}

/// The full scripted session from the serve-smoke CI lane: every
/// command, one malformed and one over-deep request in the middle, and
/// the daemon answering everything in order without dying.
#[test]
fn golden_scripted_session_covers_every_command() {
    let deep = "[".repeat(4096);
    let script = format!(
        concat!(
            r#"{{"id":1,"cmd":"load_graph","n":12,"family":"clique","seed":3}}"#,
            "\n",
            r#"{{"id":2,"cmd":"solve","beta":1,"eps":0.5,"seed":7,"pairs":true}}"#,
            "\n",
            "this is not json\n",
            "{deep}\n",
            r#"{{"id":3,"cmd":"solve","beta":1,"eps":0.5,"seed":7,"pairs":true}}"#,
            "\n",
            r#"{{"id":4,"cmd":"update","ops":[["delete",0,1],["insert",0,1]],"beta":1,"eps":0.5}}"#,
            "\n",
            r#"{{"id":5,"cmd":"query","what":"status"}}"#,
            "\n",
            r#"{{"id":6,"cmd":"query","what":"pairs"}}"#,
            "\n",
            r#"{{"id":7,"cmd":"metrics"}}"#,
            "\n",
            r#"{{"id":8,"cmd":"shutdown"}}"#,
            "\n",
        ),
        deep = deep
    );
    let (lines, summary) = run_script(&script, &ServeConfig::default());
    assert_eq!(lines.len(), 10, "one response per line: {lines:#?}");
    let docs: Vec<Json> = lines.iter().map(|l| parse_response(l)).collect();

    // id 1: load_graph ok with the clique's shape.
    assert_eq!(error_code(&docs[0]), None);
    let r = docs[0].get("result").unwrap();
    assert_eq!(r.get("n").unwrap().as_u64(), Some(12));
    assert_eq!(r.get("m").unwrap().as_u64(), Some(66));

    // id 2: cold solve; a clique always has a perfect matching.
    assert_eq!(error_code(&docs[1]), None);
    let cold = docs[1].get("result").unwrap();
    assert_eq!(cold.get("matching_size").unwrap().as_u64(), Some(6));
    assert_eq!(cold.get("warm").unwrap().as_bool(), Some(false));

    // The malformed line: parse error, null id, daemon stays up.
    assert_eq!(error_code(&docs[2]).as_deref(), Some("parse"));
    assert_eq!(docs[2].get("id"), Some(&Json::Null));

    // The over-deep line: the depth cap fires, not a stack overflow.
    assert_eq!(error_code(&docs[3]).as_deref(), Some("too_deep"));

    // id 3: warm solve, byte-identical result to the cold one.
    assert_eq!(error_code(&docs[4]), None);
    let warm = docs[4].get("result").unwrap();
    assert_eq!(warm.get("warm").unwrap().as_bool(), Some(true));
    assert_eq!(warm.get("pairs"), cold.get("pairs"));
    assert_eq!(warm.get("matching_size"), cold.get("matching_size"));

    // id 4: dynamic update applied both ops.
    assert_eq!(error_code(&docs[5]), None);
    assert_eq!(
        docs[5]
            .get("result")
            .unwrap()
            .get("applied")
            .unwrap()
            .as_u64(),
        Some(2)
    );

    // id 5/6: queries see the dynamic graph (same edge count: one
    // delete + one re-insert).
    assert_eq!(error_code(&docs[6]), None);
    let status = docs[6].get("result").unwrap();
    assert_eq!(status.get("m").unwrap().as_u64(), Some(66));
    assert_eq!(status.get("dynamic").unwrap().as_bool(), Some(true));
    assert_eq!(error_code(&docs[7]), None);
    assert!(docs[7].get("result").unwrap().get("pairs").is_some());

    // id 7: metrics carries per-command counts and the wire errors the
    // two bad lines produced.
    assert_eq!(error_code(&docs[8]), None);
    let metrics = docs[8].get("result").unwrap();
    let commands = metrics.get("commands").unwrap();
    assert_eq!(commands.get("solve").unwrap().as_u64(), Some(2));
    assert_eq!(metrics.get("wire_errors").unwrap().as_u64(), Some(2));

    assert_eq!(summary.requests, 8, "engine-handled requests");
    assert_eq!(summary.wire_errors, 2);
    assert!(!summary.daemon_shutdown);
    // The shutdown ack is the last line.
    assert_eq!(
        lines.last().unwrap(),
        r#"{"id":8,"ok":true,"result":{"stopping":"session"}}"#
    );
}

/// Requests arriving faster than the worker drains them are answered
/// `overloaded` — the engine never sees them, and the session survives.
#[test]
fn overload_answers_excess_requests_and_stays_up() {
    // A deliberately slow first command (a ~350k-edge clique solve)
    // pins the worker while the reader floods a tiny queue.
    let mut script = String::new();
    script.push_str(r#"{"id":1,"cmd":"load_graph","n":840,"family":"clique"}"#);
    script.push('\n');
    script.push_str(r#"{"id":2,"cmd":"solve","beta":1,"eps":0.5}"#);
    script.push('\n');
    let flood = 300u64;
    for i in 0..flood {
        script.push_str(&format!(r#"{{"id":{},"cmd":"query"}}"#, 100 + i));
        script.push('\n');
    }
    let cfg = ServeConfig {
        queue_cap: 4,
        ..ServeConfig::default()
    };
    let (lines, summary) = run_script(&script, &cfg);
    assert_eq!(
        lines.len(),
        2 + flood as usize,
        "every request got a response"
    );
    let mut ok = 0u64;
    let mut overloaded = 0u64;
    for line in &lines {
        let doc = parse_response(line);
        match error_code(&doc).as_deref() {
            None => ok += 1,
            Some("overloaded") => overloaded += 1,
            Some(other) => panic!("unexpected error {other} in {line}"),
        }
    }
    assert!(overloaded > 0, "the flood must trip admission control");
    assert_eq!(ok + overloaded, 2 + flood);
    assert_eq!(summary.overloaded, overloaded);
    // Overloaded responses still echo the request id.
    let dropped = lines
        .iter()
        .map(|l| parse_response(l))
        .find(|d| error_code(d).as_deref() == Some("overloaded"))
        .unwrap();
    assert!(dropped.get("id").unwrap().as_u64().unwrap() >= 100);
}

/// `lines` requests on serve's graph: its load, then one- to three-op
/// updates and solves of both backends, ids counting from 0, with a
/// session-scope `shutdown` as request `shutdown_at` if given.
fn update_and_solve_script(lines: usize, shutdown_at: Option<usize>) -> String {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(lines as u64);
    let mut script = String::new();
    script.push_str(r#"{"id":0,"cmd":"load_graph","n":300,"family":"clique-union:2:20"}"#);
    script.push('\n');
    for id in 1..lines {
        let line = if Some(id) == shutdown_at {
            format!(r#"{{"id":{id},"cmd":"shutdown"}}"#)
        } else if id % 10 == 5 {
            format!(r#"{{"id":{id},"cmd":"solve","backend":"delta","beta":2,"eps":0.5}}"#)
        } else if id % 10 == 0 {
            format!(r#"{{"id":{id},"cmd":"solve","backend":"edcs","edcs_beta":16,"eps":0.5}}"#)
        } else {
            let ops: Vec<String> = (0..rng.random_range(1..=3))
                .map(|_| {
                    let u = rng.random_range(0..299u32);
                    let v = rng.random_range(u + 1..300);
                    let kind = ["insert", "delete"][rng.random_range(0..2usize)];
                    format!(r#"["{kind}",{u},{v}]"#)
                })
                .collect();
            format!(
                r#"{{"id":{id},"cmd":"update","ops":[{}],"beta":2,"eps":0.5}}"#,
                ops.join(",")
            )
        };
        script.push_str(&line);
        script.push('\n');
    }
    script
}

/// Run `script` as a stdio session on a thread of its own, failing
/// instead of hanging if the session does not end within a minute, and
/// check that the session answered exactly the lines its reader took.
fn run_stdio_script(script: impl Into<Vec<u8>>, cfg: ServeConfig) -> (Vec<String>, SessionSummary) {
    let script: Vec<u8> = script.into();
    let (done, wait) = std::sync::mpsc::channel();
    let session = std::thread::spawn(move || {
        let mut out: Vec<u8> = Vec::new();
        let mut input = Cursor::new(script);
        let summary = run_stdio_session(&mut input, &mut out, &cfg).expect("session runs");
        let read = input.get_ref()[..input.position() as usize]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        let _ = done.send((out, summary, read));
    });
    let ended = wait.recv_timeout(std::time::Duration::from_secs(60));
    if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) = ended {
        panic!("the stdio session deadlocked");
    }
    // A session that panicked dropped the sender: re-raise its panic.
    if let Err(panic) = session.join() {
        std::panic::resume_unwind(panic);
    }
    let (out, summary, read) = ended.expect("the session sent its output");
    let lines: Vec<String> = String::from_utf8(out)
        .expect("responses are UTF-8")
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(lines.len(), read, "one answer per line read");
    (lines, summary)
}

/// A stdio session's reader waits for a queue slot rather than shedding:
/// a long script piped in at once through a four-slot queue gets every
/// line answered, in order, where a daemon session sheds some of it.
#[test]
fn stdio_session_waits_for_a_slot_instead_of_shedding() {
    let cfg = ServeConfig {
        queue_cap: 4,
        ..ServeConfig::default()
    };
    let script = update_and_solve_script(300, None);
    let (lines, summary) = run_stdio_script(script.clone(), cfg);
    assert_eq!(lines.len(), 300);
    for (id, line) in lines.iter().enumerate() {
        let doc = parse_response(line);
        assert_eq!(error_code(&doc), None, "{line}");
        assert_eq!(doc.get("id").unwrap().as_u64(), Some(id as u64), "{line}");
    }
    assert_eq!(summary.overloaded, 0);
    assert_eq!(summary.requests, 300);
    // The same script through the shedding admission path overflows.
    let (lines, summary) = run_script(&script, &cfg);
    assert_eq!(lines.len(), 300);
    assert!(summary.overloaded > 0, "the script must outpace the worker");
}

/// A `shutdown` in the middle of a stdio script answers the lines queued
/// behind it, and the line the waiting reader holds, `shutting_down`,
/// and ends the session: every line the reader took is answered, in
/// order, and the rest of the script is never read.
#[test]
fn stdio_shutdown_mid_script_answers_the_queue_and_frees_the_reader() {
    let cfg = ServeConfig {
        queue_cap: 4,
        ..ServeConfig::default()
    };
    let (lines, summary) = run_stdio_script(update_and_solve_script(300, Some(150)), cfg);
    assert!((152..=156).contains(&lines.len()), "{lines:#?}");
    for (id, line) in lines.iter().enumerate() {
        let doc = parse_response(line);
        assert_eq!(doc.get("id").unwrap().as_u64(), Some(id as u64), "{line}");
        let want = (id > 150).then_some("shutting_down");
        assert_eq!(error_code(&doc).as_deref(), want, "{line}");
    }
    assert_eq!(summary.overloaded, 0);
    assert_eq!(summary.requests, 151);
}

/// A stdio session answers lines rejected before parsing in line order
/// too: behind a large `load_graph` and EDCS solves still being worked
/// through, a line over the byte cap and a line that is not UTF-8 get
/// their `too_large` and `parse` replies in their places, before the
/// answer to the `query` after them, not ahead of the queued answers.
#[test]
fn stdio_rejected_lines_are_answered_in_line_order() {
    let mut script = Vec::new();
    script.extend_from_slice(
        br#"{"id":0,"cmd":"load_graph","n":2000,"family":"clique-union:2:200","seed":3}"#,
    );
    script.push(b'\n');
    for id in 1..=3 {
        let solve =
            format!(r#"{{"id":{id},"cmd":"solve","backend":"edcs","edcs_beta":16,"eps":0.5}}"#);
        script.extend_from_slice(solve.as_bytes());
        script.push(b'\n');
    }
    script.extend(std::iter::repeat_n(b'x', MAX_REQUEST_BYTES + 100));
    script.push(b'\n');
    script.extend_from_slice(b"{\"id\":5,\"cmd\":\"query\xff\"}\n");
    script.extend_from_slice(br#"{"id":6,"cmd":"query"}"#);
    script.push(b'\n');
    let (lines, summary) = run_stdio_script(script, ServeConfig::default());
    let docs: Vec<Json> = lines.iter().map(|l| parse_response(l)).collect();
    let answers: Vec<(Option<u64>, Option<String>)> = docs
        .iter()
        .map(|d| (d.get("id").unwrap().as_u64(), error_code(d)))
        .collect();
    let too_large = Some("too_large".to_string());
    let parse = Some("parse".to_string());
    assert_eq!(
        answers,
        [
            (Some(0), None),
            (Some(1), None),
            (Some(2), None),
            (Some(3), None),
            (None, too_large),
            (None, parse),
            (Some(6), None),
        ],
        "{lines:#?}"
    );
    assert_eq!((summary.requests, summary.wire_errors), (5, 2));
}

/// A line over the byte cap is rejected as `too_large` without breaking
/// the framing: the next request still parses and runs.
#[test]
fn oversized_line_is_skipped_cleanly() {
    let mut script = String::new();
    script.push_str(r#"{"id":1,"cmd":"load_graph","n":4,"edges":[[0,1]]}"#);
    script.push('\n');
    script.push_str(&"x".repeat(MAX_REQUEST_BYTES + 100));
    script.push('\n');
    script.push_str(r#"{"id":2,"cmd":"query"}"#);
    script.push('\n');
    let (lines, summary) = run_script(&script, &ServeConfig::default());
    assert_eq!(lines.len(), 3);
    // The `too_large` reply comes from the reader thread and the two ok
    // replies from the worker; their relative order is not guaranteed
    // (responses interleave through the shared writer by design), so
    // match responses by id rather than by position.
    let docs: Vec<Json> = lines.iter().map(|l| parse_response(l)).collect();
    let too_large = docs
        .iter()
        .find(|d| error_code(d).as_deref() == Some("too_large"))
        .expect("the oversized line was rejected");
    assert_eq!(too_large.get("id"), Some(&Json::Null));
    let status = docs
        .iter()
        .find(|d| d.get("id").unwrap().as_u64() == Some(2))
        .expect("the request after the oversized line still ran");
    assert_eq!(error_code(status), None);
    assert_eq!(
        status
            .get("result")
            .unwrap()
            .get("loaded")
            .unwrap()
            .as_bool(),
        Some(true)
    );
    assert_eq!(summary.wire_errors, 1);
}

/// Hostile-but-well-formed parameters: eps outside the theorem's
/// precondition, beta/eps pairs whose derived Δ explodes, and family
/// specs describing astronomically large graphs. Every one must come
/// back as a typed error — never a panic or an allocation storm — and
/// the session must keep answering afterwards.
#[test]
fn hostile_parameters_are_rejected_and_the_session_survives() {
    let script = concat!(
        r#"{"id":1,"cmd":"load_graph","n":8,"family":"clique"}"#,
        "\n",
        // eps = 1 used to reach SparsifierParams' assert and panic the worker.
        r#"{"id":2,"cmd":"solve","eps":1}"#,
        "\n",
        r#"{"id":3,"cmd":"update","ops":[["insert",0,1]],"eps":1}"#,
        "\n",
        // Saturating-delta probe: huge beta, subnormal eps.
        r#"{"id":4,"cmd":"solve","beta":4000000000,"eps":1e-300}"#,
        "\n",
        // Memory-DoS probe: a million-vertex clique is ~5e11 edges.
        r#"{"id":5,"cmd":"load_graph","n":1000000,"family":"clique"}"#,
        "\n",
        // Generator params that used to hit asserts inside family builders.
        r#"{"id":6,"cmd":"load_graph","n":2,"family":"cycle"}"#,
        "\n",
        r#"{"id":7,"cmd":"solve","beta":1,"eps":0.5}"#,
        "\n",
        r#"{"id":8,"cmd":"shutdown"}"#,
        "\n",
    );
    let (lines, summary) = run_script(script, &ServeConfig::default());
    assert_eq!(lines.len(), 8, "every request answered: {lines:#?}");
    let docs: Vec<Json> = lines.iter().map(|l| parse_response(l)).collect();
    assert_eq!(error_code(&docs[0]), None);
    for (i, id) in [(1usize, 2u64), (2, 3), (3, 4)] {
        assert_eq!(
            error_code(&docs[i]).as_deref(),
            Some("bad_request"),
            "id {id}"
        );
        assert_eq!(docs[i].get("id").unwrap().as_u64(), Some(id));
    }
    assert_eq!(error_code(&docs[4]).as_deref(), Some("too_large"));
    assert_eq!(error_code(&docs[5]).as_deref(), Some("bad_request"));
    // The session is still alive and solving on the original graph.
    assert_eq!(error_code(&docs[6]), None);
    assert_eq!(
        docs[6]
            .get("result")
            .unwrap()
            .get("matching_size")
            .unwrap()
            .as_u64(),
        Some(4)
    );
    assert_eq!(error_code(&docs[7]), None);
    // ids 2–4 die at the parse layer (wire errors); 1, 5–8 reach the engine.
    assert_eq!(summary.requests, 5);
    assert_eq!(summary.wire_errors, 3);
}

/// A reader that yields one good request, then fails with a transport
/// error (as a reset connection would) instead of clean EOF.
struct ResettingReader {
    data: Cursor<&'static [u8]>,
}

impl std::io::Read for ResettingReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.data.read(buf)?;
        if n > 0 {
            return Ok(n);
        }
        Err(std::io::Error::from(std::io::ErrorKind::ConnectionReset))
    }
}

/// A mid-session transport error must end the session with that error —
/// not deadlock the reader on a worker that never saw eof (which in
/// unix-socket mode permanently leaked a session slot).
#[test]
fn transport_error_ends_the_session_instead_of_deadlocking() {
    let reader = ResettingReader {
        data: Cursor::new(b"{\"id\":1,\"cmd\":\"query\"}\n"),
    };
    let mut out: Vec<u8> = Vec::new();
    let err = run_session(
        BufReader::new(reader),
        &mut out,
        &ServeConfig::default(),
        None,
    )
    .expect_err("the transport error must surface");
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset);
    // The request that made it through before the reset was answered.
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "{lines:#?}");
    let doc = parse_response(lines[0]);
    assert_eq!(error_code(&doc), None);
    assert_eq!(doc.get("id").unwrap().as_u64(), Some(1));
}

/// Unix-socket mode: two concurrent sessions with independent resident
/// state, then a daemon-scope shutdown that stops the listener.
#[test]
fn unix_socket_sessions_are_isolated_and_daemon_shutdown_stops_the_listener() {
    let dir = std::env::temp_dir().join(format!("sparsimatch-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("serve.sock");
    std::fs::remove_file(&sock).ok();
    let cfg = ServeConfig::default();
    let server = {
        let sock = sock.clone();
        std::thread::spawn(move || serve_unix(&sock, &cfg))
    };
    // Wait for the socket to come up.
    let mut tries = 0;
    let connect = |tries: &mut u32| loop {
        match UnixStream::connect(&sock) {
            Ok(s) => break s,
            Err(e) => {
                *tries += 1;
                assert!(*tries < 500, "socket never came up: {e}");
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        }
    };
    let ask = |stream: &mut UnixStream, reader: &mut BufReader<UnixStream>, line: &str| -> Json {
        writeln!(stream, "{line}").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        parse_response(response.trim_end())
    };

    let mut a = connect(&mut tries);
    let mut a_reader = BufReader::new(a.try_clone().unwrap());
    let mut b = connect(&mut tries);
    let mut b_reader = BufReader::new(b.try_clone().unwrap());

    // Session A loads a path, session B loads nothing: B's status must
    // not see A's graph.
    let r = ask(
        &mut a,
        &mut a_reader,
        r#"{"id":1,"cmd":"load_graph","n":10,"family":"path"}"#,
    );
    assert_eq!(error_code(&r), None);
    let r = ask(&mut b, &mut b_reader, r#"{"id":1,"cmd":"query"}"#);
    assert_eq!(
        r.get("result").unwrap().get("loaded").unwrap().as_bool(),
        Some(false),
        "sessions must not share engine state"
    );
    let r = ask(
        &mut a,
        &mut a_reader,
        r#"{"id":2,"cmd":"solve","beta":1,"eps":0.5}"#,
    );
    assert_eq!(
        r.get("result")
            .unwrap()
            .get("matching_size")
            .unwrap()
            .as_u64(),
        Some(5)
    );

    // Session-scope shutdown ends only session A.
    let r = ask(&mut a, &mut a_reader, r#"{"id":3,"cmd":"shutdown"}"#);
    assert_eq!(error_code(&r), None);
    // Daemon-scope shutdown from B stops the listener.
    let r = ask(
        &mut b,
        &mut b_reader,
        r#"{"id":2,"cmd":"shutdown","scope":"daemon"}"#,
    );
    assert_eq!(error_code(&r), None);
    server.join().unwrap().unwrap();
    assert!(!sock.exists(), "socket file removed on daemon shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

/// Session-scope `shutdown` drains gracefully: the in-flight request
/// completes, the shutdown is acked, and everything still queued behind
/// it is answered with a typed `shutting_down` — never silently dropped
/// and never executed.
#[test]
fn session_shutdown_sheds_queued_requests_with_shutting_down() {
    // The slow clique solve pins the worker while the reader queues the
    // shutdown and a tail of queries behind it.
    let mut script = String::new();
    script.push_str(r#"{"id":1,"cmd":"load_graph","n":840,"family":"clique"}"#);
    script.push('\n');
    script.push_str(r#"{"id":2,"cmd":"solve","beta":1,"eps":0.5}"#);
    script.push('\n');
    script.push_str(r#"{"id":3,"cmd":"shutdown"}"#);
    script.push('\n');
    let tail = 10u64;
    for i in 0..tail {
        script.push_str(&format!(r#"{{"id":{},"cmd":"query"}}"#, 100 + i));
        script.push('\n');
    }
    let cfg = ServeConfig {
        queue_cap: 64,
        ..ServeConfig::default()
    };
    let (lines, summary) = run_script(&script, &cfg);
    assert_eq!(lines.len(), 3 + tail as usize, "{lines:#?}");
    let docs: Vec<Json> = lines.iter().map(|l| parse_response(l)).collect();
    // In-flight work completed normally before the stop.
    assert_eq!(error_code(&docs[0]), None);
    assert_eq!(error_code(&docs[1]), None);
    assert_eq!(
        docs[1]
            .get("result")
            .unwrap()
            .get("matching_size")
            .unwrap()
            .as_u64(),
        Some(420)
    );
    // The shutdown ack, then one typed shed per queued request, each
    // still echoing its id for correlation.
    assert_eq!(error_code(&docs[2]), None);
    for doc in &docs[3..] {
        assert_eq!(error_code(doc).as_deref(), Some("shutting_down"));
        assert!(doc.get("id").unwrap().as_u64().unwrap() >= 100);
    }
    assert_eq!(summary.requests, 3, "shed requests never reach the engine");
    assert!(!summary.daemon_shutdown);
}

/// With a deadline configured, a runaway execution answers `timeout`
/// (result discarded) and the stale backlog behind it is shed as
/// `timeout` at dequeue instead of executing against a client that has
/// already given up.
///
/// Every request is admitted as soon as the script is read, so the solve
/// finishes at least the load's time after its own admission, and the
/// queries wait for the load and the solve. The deadline is the shortest
/// one there is, 1 ms: building the 352 380 edges of `clique(840)` alone
/// takes longer, while load and solve together can finish within 10 ms
/// in a release build.
#[test]
fn deadline_sheds_stale_queue_and_discards_late_results() {
    let mut script = String::new();
    script.push_str(r#"{"id":1,"cmd":"load_graph","n":840,"family":"clique"}"#);
    script.push('\n');
    script.push_str(r#"{"id":2,"cmd":"solve","beta":1,"eps":0.5}"#);
    script.push('\n');
    let tail = 10u64;
    for i in 0..tail {
        script.push_str(&format!(r#"{{"id":{},"cmd":"query"}}"#, 100 + i));
        script.push('\n');
    }
    let cfg = ServeConfig {
        deadline_ms: 1,
        queue_cap: 64,
        ..ServeConfig::default()
    };
    let (lines, _) = run_script(&script, &cfg);
    assert_eq!(lines.len(), 2 + tail as usize, "{lines:#?}");
    let docs: Vec<Json> = lines.iter().map(|l| parse_response(l)).collect();
    // The load may beat the deadline or not depending on the machine;
    // everything after it is pinned behind the big solve and must miss.
    for (i, doc) in docs.iter().enumerate().skip(1) {
        assert_eq!(
            error_code(doc).as_deref(),
            Some("timeout"),
            "line {i}: {:?}",
            lines[i]
        );
    }
    // Shed responses still echo the request id.
    assert!(docs.last().unwrap().get("id").unwrap().as_u64().unwrap() >= 100);
}

/// `metrics` exposes the lifecycle observability fields: timeout and
/// eviction counters, the active-session gauge, and cumulative I/O
/// retries from streamed builds.
#[test]
fn metrics_reports_lifecycle_gauges() {
    let script = concat!(
        r#"{"id":1,"cmd":"metrics"}"#,
        "\n",
        r#"{"id":2,"cmd":"shutdown"}"#,
        "\n",
    );
    let (lines, _) = run_script(script, &ServeConfig::default());
    assert_eq!(lines.len(), 2);
    let doc = parse_response(&lines[0]);
    assert_eq!(error_code(&doc), None);
    let m = doc.get("result").unwrap();
    assert_eq!(m.get("requests_timed_out").unwrap().as_u64(), Some(0));
    assert_eq!(m.get("sessions_active").unwrap().as_u64(), Some(1));
    assert_eq!(m.get("sessions_evicted").unwrap().as_u64(), Some(0));
    assert_eq!(m.get("io_retries").unwrap().as_u64(), Some(0));
}

/// At `max_sessions` saturation, a silent client — connected but never
/// having sent a line, not even `load_graph` — is evicted once it
/// crosses the idle threshold: it receives a typed `session_evicted`
/// notification, its slot admits the new connection, and the daemon's
/// metrics account for the eviction.
#[test]
fn idle_silent_session_is_evicted_to_admit_a_new_connection() {
    let dir = std::env::temp_dir().join(format!("sparsimatch-evict-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("serve.sock");
    std::fs::remove_file(&sock).ok();
    let cfg = ServeConfig {
        max_sessions: 1,
        idle_timeout_ms: 50,
        ..ServeConfig::default()
    };
    let server = {
        let sock = sock.clone();
        std::thread::spawn(move || serve_unix(&sock, &cfg))
    };
    let connect = || {
        let mut tries = 0;
        loop {
            match UnixStream::connect(&sock) {
                Ok(s) => break s,
                Err(e) => {
                    tries += 1;
                    assert!(tries < 500, "socket never came up: {e}");
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
            }
        }
    };

    // The silent client: connects, sends nothing, idles past the
    // threshold while holding the daemon's only session slot.
    let silent = connect();
    let mut silent_reader = BufReader::new(silent.try_clone().unwrap());
    std::thread::sleep(std::time::Duration::from_millis(120));

    // The second connection must be admitted by evicting the idler, not
    // bounced with `overloaded`.
    let mut fresh = connect();
    let mut fresh_reader = BufReader::new(fresh.try_clone().unwrap());
    writeln!(fresh, r#"{{"id":1,"cmd":"query"}}"#).unwrap();
    let mut response = String::new();
    fresh_reader.read_line(&mut response).unwrap();
    let doc = parse_response(response.trim_end());
    assert_eq!(error_code(&doc), None, "new session admitted: {response}");

    // The evictee got the typed notification before its close.
    let mut notice = String::new();
    silent_reader.read_line(&mut notice).unwrap();
    let doc = parse_response(notice.trim_end());
    assert_eq!(error_code(&doc).as_deref(), Some("session_evicted"));

    // The daemon gauges saw it.
    writeln!(fresh, r#"{{"id":2,"cmd":"metrics"}}"#).unwrap();
    let mut response = String::new();
    fresh_reader.read_line(&mut response).unwrap();
    let doc = parse_response(response.trim_end());
    let m = doc.get("result").unwrap();
    assert_eq!(m.get("sessions_active").unwrap().as_u64(), Some(1));
    assert_eq!(m.get("sessions_evicted").unwrap().as_u64(), Some(1));

    writeln!(fresh, r#"{{"id":3,"cmd":"shutdown","scope":"daemon"}}"#).unwrap();
    let mut response = String::new();
    fresh_reader.read_line(&mut response).unwrap();
    assert_eq!(error_code(&parse_response(response.trim_end())), None);
    server.join().unwrap().unwrap();
    assert!(!sock.exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// Daemon-scope shutdown under load drains gracefully: the request
/// already executing in another session completes and is answered, the
/// requests queued behind it are shed with `shutting_down`, and
/// `serve_unix` returns Ok — i.e. the process exits 0 — within the
/// bounded drain window.
#[test]
fn daemon_shutdown_completes_in_flight_and_sheds_queued_across_sessions() {
    let dir = std::env::temp_dir().join(format!("sparsimatch-drain-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("serve.sock");
    std::fs::remove_file(&sock).ok();
    let cfg = ServeConfig {
        queue_cap: 64,
        drain_ms: 60_000,
        ..ServeConfig::default()
    };
    let server = {
        let sock = sock.clone();
        std::thread::spawn(move || serve_unix(&sock, &cfg))
    };
    let connect = || {
        let mut tries = 0;
        loop {
            match UnixStream::connect(&sock) {
                Ok(s) => break s,
                Err(e) => {
                    tries += 1;
                    assert!(tries < 500, "socket never came up: {e}");
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
            }
        }
    };

    // Session A: burst a slow generate-and-load (the request whose cost
    // scales with the input — the sparsified solve itself is near
    // input-size independent) plus a tail of queries, all unread, so
    // the load is in flight and the queries are queued when the
    // shutdown lands.
    let mut a = connect();
    let mut a_reader = BufReader::new(a.try_clone().unwrap());
    writeln!(
        a,
        r#"{{"id":1,"cmd":"load_graph","n":2000,"family":"clique"}}"#
    )
    .unwrap();
    let tail = 5u64;
    for i in 0..tail {
        writeln!(a, r#"{{"id":{},"cmd":"query"}}"#, 100 + i).unwrap();
    }
    // Give A's worker time to dequeue the load before the drain flag
    // goes up (shed decisions happen at dequeue, not admission).
    std::thread::sleep(std::time::Duration::from_millis(30));

    // Session B pulls the plug on the whole daemon.
    let mut b = connect();
    let mut b_reader = BufReader::new(b.try_clone().unwrap());
    writeln!(b, r#"{{"id":1,"cmd":"shutdown","scope":"daemon"}}"#).unwrap();
    let mut response = String::new();
    b_reader.read_line(&mut response).unwrap();
    assert_eq!(error_code(&parse_response(response.trim_end())), None);

    // A's in-flight load completes with a real answer; the queued tail
    // is shed with the typed drain error, ids intact.
    let mut response = String::new();
    a_reader.read_line(&mut response).unwrap();
    let doc = parse_response(response.trim_end());
    assert_eq!(
        error_code(&doc),
        None,
        "in-flight load completed: {response}"
    );
    assert_eq!(
        doc.get("result").unwrap().get("n").unwrap().as_u64(),
        Some(2000)
    );
    for _ in 0..tail {
        let mut response = String::new();
        a_reader.read_line(&mut response).unwrap();
        let doc = parse_response(response.trim_end());
        assert_eq!(error_code(&doc).as_deref(), Some("shutting_down"));
        assert!(doc.get("id").unwrap().as_u64().unwrap() >= 100);
    }

    // Bounded exit: the daemon comes down on its own, socket removed.
    server.join().unwrap().unwrap();
    assert!(!sock.exists());
    std::fs::remove_dir_all(&dir).ok();
}
