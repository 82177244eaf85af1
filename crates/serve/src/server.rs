//! The request loop: newline-delimited JSON over any reader/writer pair,
//! with bounded-queue admission control, plus stdio and unix-socket
//! frontends.
//!
//! Each session runs two threads. The *reader* (the calling thread)
//! pulls lines off the transport, enforces the per-line byte cap, and
//! either enqueues the line or — when the bounded queue is full —
//! answers `overloaded` immediately without touching the engine. The
//! *worker* owns the session's [`SessionEngine`] (and therefore its
//! resident `PipelineScratch`) and drains the queue in order. Responses
//! from both threads interleave safely through a shared locked writer;
//! every response is a single line, so interleaving never tears a
//! message.
//!
//! Admission control is what keeps a flood survivable: a client that
//! outpaces the engine gets explicit `overloaded` errors for the excess
//! instead of unbounded buffering (memory DoS) or transport backpressure
//! deadlock (both sides blocked on full pipes). A stdio session
//! ([`run_stdio_session`]) has one client, a script piped in at once
//! or a person typing, so its reader waits for a queue slot instead:
//! the back-pressure goes into the pipe, and every line is answered,
//! in line order.

use crate::engine::{DaemonStats, EngineConfig, SessionEngine};
use crate::protocol::{self, ErrorCode, Request, MAX_REQUEST_BYTES};
use sparsimatch_obs::{wire, Json};
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Server configuration, shared by every frontend.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Worker threads per pipeline solve (1..=64).
    pub threads: usize,
    /// Backend a `solve` uses when the request names none.
    pub backend: sparsimatch_core::backend::BackendKind,
    /// Bounded request queue per session; requests arriving while the
    /// queue is full are answered `overloaded` and dropped.
    pub queue_cap: usize,
    /// Concurrent sessions accepted in unix-socket mode; further
    /// connections are answered `overloaded` and closed (or, with
    /// `idle_timeout_ms` set, admitted by evicting the idlest session).
    pub max_sessions: usize,
    /// Per-request deadline in milliseconds, measured from admission to
    /// reply. A request that misses it is answered `timeout` — shed
    /// unexecuted when it expires while queued, its result discarded
    /// when a runaway execution finishes late. 0 disables deadlines.
    pub deadline_ms: u64,
    /// Idle threshold for LRU session eviction in unix-socket mode: at
    /// `max_sessions` saturation a new connection evicts the
    /// longest-idle session, provided it has been idle (no lines
    /// received, `load_graph` or not) at least this long. 0 disables
    /// eviction, restoring unconditional `overloaded` at saturation.
    pub idle_timeout_ms: u64,
    /// Bound on the daemon's graceful-drain window after a
    /// `scope: "daemon"` shutdown: live sessions get this long to
    /// finish in-flight work and shed their queues before their sockets
    /// are closed under them.
    pub drain_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 1,
            backend: sparsimatch_core::backend::BackendKind::Delta,
            queue_cap: 128,
            max_sessions: 4,
            deadline_ms: 0,
            idle_timeout_ms: 0,
            drain_ms: 2_000,
        }
    }
}

/// What a finished session did, for logging and tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct SessionSummary {
    /// Requests the engine handled (ok or error responses).
    pub requests: u64,
    /// Requests dropped by admission control.
    pub overloaded: u64,
    /// Lines rejected before the engine (parse / too-deep / too-large).
    pub wire_errors: u64,
    /// True when the session ended on `shutdown` with `scope: "daemon"`.
    pub daemon_shutdown: bool,
}

enum LineIn {
    Eof,
    TooLong,
    BadUtf8,
    Line(String),
}

/// Read one `\n`-terminated line, enforcing [`MAX_REQUEST_BYTES`]. An
/// over-long line is consumed (without ever buffering more than one
/// chunk of it) and reported as [`LineIn::TooLong`], so a hostile or
/// broken client cannot balloon memory or desynchronize the framing.
fn read_capped_line<R: BufRead>(r: &mut R, buf: &mut Vec<u8>) -> io::Result<LineIn> {
    buf.clear();
    let n = r
        .by_ref()
        .take(MAX_REQUEST_BYTES as u64 + 1)
        .read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(LineIn::Eof);
    }
    if buf.last() != Some(&b'\n') && buf.len() > MAX_REQUEST_BYTES {
        loop {
            let chunk = r.fill_buf()?;
            if chunk.is_empty() {
                break;
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    r.consume(pos + 1);
                    break;
                }
                None => {
                    let len = chunk.len();
                    r.consume(len);
                }
            }
        }
        return Ok(LineIn::TooLong);
    }
    while matches!(buf.last(), Some(b'\n' | b'\r')) {
        buf.pop();
    }
    match std::str::from_utf8(buf) {
        Ok(s) => Ok(LineIn::Line(s.to_string())),
        Err(_) => Ok(LineIn::BadUtf8),
    }
}

fn write_line<W: Write>(w: &Mutex<W>, line: &str) -> io::Result<()> {
    let mut w = w.lock().expect("writer lock");
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// Lines longer than this get no id recovery when shed by admission
/// control. Shedding exists to stay cheap under a flood; re-parsing up
/// to [`MAX_REQUEST_BYTES`] of JSON per dropped request would undercut
/// that, so big rejected lines are answered with `id: null`.
const PEEK_ID_MAX_BYTES: usize = 4096;

/// Best-effort id recovery for requests rejected before parsing proper
/// (admission control), so the client can still correlate the error.
/// Bounded: `None` for lines over [`PEEK_ID_MAX_BYTES`].
fn peek_id(line: &str) -> Option<u64> {
    if line.len() > PEEK_ID_MAX_BYTES {
        return None;
    }
    let doc = Json::parse(line).ok()?;
    wire::req_u64(&doc, "id").ok()
}

/// One queued entry: a request line for the engine, or, in a stdio
/// session, the reader's reply to a line rejected before parsing
/// (`too_large`, non-UTF-8), held so that it leaves in line order.
enum Entry {
    Request(String),
    Reply(String),
}

/// What became of an entry offered to the queue.
enum Admission {
    Queued,
    /// The queue was full (a daemon session sheds).
    Full,
    /// The worker has ended the session.
    Stopped,
}

struct Queue {
    /// Admitted entries with their admission timestamps (the deadline
    /// clock starts at admission, not at execution).
    lines: VecDeque<(Entry, Instant)>,
    eof: bool,
}

/// Frontend hooks and daemon context for [`run_session_ctl`]. The
/// plain-transport default (`SessionCtl::default()`) has no hooks and no
/// daemon, as a stdio session has none.
#[derive(Default)]
pub struct SessionCtl<'a> {
    /// Invoked once by the worker right after it decides to end the
    /// session; frontends use it to unblock the reader (e.g.
    /// `UnixStream::shutdown(Read)`).
    pub on_shutdown: Option<&'a (dyn Fn() + Send + Sync)>,
    /// Invoked by the reader for every complete line received — the
    /// idle/LRU bookkeeping signal. Covers the whole session lifetime,
    /// including before any `load_graph`.
    pub on_activity: Option<&'a (dyn Fn() + Send + Sync)>,
    /// Daemon drain flag: once set, already-queued requests are shed
    /// with `shutting_down` instead of executed.
    pub draining: Option<&'a AtomicBool>,
    /// Daemon-wide gauges mirrored into this session's `metrics`.
    pub daemon: Option<Arc<DaemonStats>>,
}

/// Run one session over an arbitrary transport until EOF or `shutdown`.
///
/// `on_shutdown` is invoked (once) by the worker right after the
/// `shutdown` response is written; frontends use it to unblock the
/// reader (e.g. `UnixStream::shutdown(Read)`). Requests still queued
/// when `shutdown` executes are answered `shutting_down`, not dropped;
/// requests queued at plain EOF are completed normally.
pub fn run_session<R, W>(
    reader: R,
    writer: W,
    cfg: &ServeConfig,
    on_shutdown: Option<&(dyn Fn() + Send + Sync)>,
) -> io::Result<SessionSummary>
where
    R: BufRead + Send,
    W: Write + Send,
{
    run_session_ctl(
        reader,
        writer,
        cfg,
        &SessionCtl {
            on_shutdown,
            ..SessionCtl::default()
        },
    )
}

/// [`run_session`] with the full control surface ([`SessionCtl`]): the
/// unix-socket frontend threads activity tracking, the daemon drain
/// flag, and daemon gauges through here.
pub fn run_session_ctl<R, W>(
    reader: R,
    writer: W,
    cfg: &ServeConfig,
    ctl: &SessionCtl<'_>,
) -> io::Result<SessionSummary>
where
    R: BufRead + Send,
    W: Write + Send,
{
    session_loop(reader, writer, cfg, ctl, false)
}

/// The stdio session over an arbitrary transport: [`run_session`], but
/// a line that finds the queue full waits for a slot instead of being
/// answered `overloaded`, so a piped script of any length is answered
/// line for line, in line order: the reply to a line rejected before
/// parsing (over the byte cap, or not UTF-8) queues behind the lines
/// before it. A `shutdown` still answers the queued lines, and the one
/// the reader holds, `shutting_down`.
pub fn run_stdio_session<R, W>(
    reader: R,
    writer: W,
    cfg: &ServeConfig,
) -> io::Result<SessionSummary>
where
    R: BufRead + Send,
    W: Write + Send,
{
    session_loop(reader, writer, cfg, &SessionCtl::default(), true)
}

/// The one request loop behind every session; `wait_for_slot` picks the
/// stdio rules (wait for a slot, queue the replies to rejected lines)
/// over the daemon's (shed, reply at once).
fn session_loop<R, W>(
    mut reader: R,
    writer: W,
    cfg: &ServeConfig,
    ctl: &SessionCtl<'_>,
    wait_for_slot: bool,
) -> io::Result<SessionSummary>
where
    R: BufRead + Send,
    W: Write + Send,
{
    let mut engine = SessionEngine::new(EngineConfig {
        threads: cfg.threads,
        backend: cfg.backend,
    });
    if let Some(daemon) = &ctl.daemon {
        engine.set_daemon_stats(Arc::clone(daemon));
    }
    let on_shutdown = ctl.on_shutdown;
    let deadline = (cfg.deadline_ms > 0).then(|| Duration::from_millis(cfg.deadline_ms));
    let stats = engine.shared_stats();
    let writer = Mutex::new(writer);
    let queue = Mutex::new(Queue {
        lines: VecDeque::new(),
        eof: false,
    });
    let ready = Condvar::new();
    // Signalled when the worker frees a slot or stops; a stdio reader
    // waits on it with a line in hand.
    let space = Condvar::new();
    let stop = AtomicBool::new(false);
    let daemon_shutdown = AtomicBool::new(false);
    let mut summary = SessionSummary::default();
    let requests = AtomicUsize::new(0);

    std::thread::scope(|scope| -> io::Result<()> {
        let worker = scope.spawn(|| {
            loop {
                let (entry, admitted_at) = {
                    let mut q = queue.lock().expect("queue lock");
                    loop {
                        if let Some(entry) = q.lines.pop_front() {
                            space.notify_one();
                            break entry;
                        }
                        if q.eof {
                            return;
                        }
                        q = ready.wait(q).expect("queue wait");
                    }
                };
                let line = match entry {
                    Entry::Request(line) => line,
                    // The reader's answer to a rejected line, written in
                    // its place among the answers.
                    Entry::Reply(reply) => {
                        let _ = write_line(&writer, &reply);
                        continue;
                    }
                };
                // Daemon drain: everything still queued is shed with a
                // typed error, never silently dropped or executed.
                if ctl.draining.is_some_and(|d| d.load(Ordering::SeqCst)) {
                    let _ = write_line(
                        &writer,
                        &protocol::error_response(
                            peek_id(&line),
                            ErrorCode::ShuttingDown,
                            "daemon shutting down; request not executed",
                        ),
                    );
                    continue;
                }
                // Deadline shed: a request that expired while queued is
                // answered `timeout` without ever reaching the engine, so
                // one runaway solve cannot cascade into a stale backlog.
                if let Some(d) = deadline {
                    if admitted_at.elapsed() >= d {
                        stats.timed_out.fetch_add(1, Ordering::Relaxed);
                        let _ = write_line(
                            &writer,
                            &protocol::error_response(
                                peek_id(&line),
                                ErrorCode::Timeout,
                                "deadline exceeded while queued; request shed",
                            ),
                        );
                        continue;
                    }
                }
                let mut response;
                let mut end_session = false;
                match protocol::parse_request(&line) {
                    Err((id, e)) => {
                        stats.wire_errors.fetch_add(1, Ordering::Relaxed);
                        response = protocol::error_response(id, e.code, &e.message);
                    }
                    Ok(env) => {
                        if let Request::Shutdown { daemon } = env.request {
                            end_session = true;
                            if daemon {
                                daemon_shutdown.store(true, Ordering::SeqCst);
                            }
                        }
                        // Defense in depth: the parse layer is supposed to
                        // reject anything that could trip an engine assert,
                        // but a panic that slips through must take down this
                        // session, not the whole daemon (an unwinding worker
                        // would propagate through every thread scope above).
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                engine.handle(&env.request)
                            }));
                        response = match outcome {
                            Ok(Ok(body)) => protocol::ok_response(env.id, body),
                            Ok(Err(e)) => {
                                protocol::error_response(Some(env.id), e.code, &e.message)
                            }
                            Err(_) => {
                                // Engine state is suspect after an unwind;
                                // answer and end the session.
                                end_session = true;
                                protocol::error_response(
                                    Some(env.id),
                                    ErrorCode::Internal,
                                    "request handler panicked; closing session",
                                )
                            }
                        };
                        // A runaway execution that finished past the
                        // deadline answers `timeout` too: the client has
                        // already given up on this id, so a late result
                        // would only desynchronize its correlation.
                        // Shutdown is exempt — its side effect happened.
                        if let (Some(d), false) = (deadline, end_session) {
                            if admitted_at.elapsed() >= d {
                                stats.timed_out.fetch_add(1, Ordering::Relaxed);
                                response = protocol::error_response(
                                    Some(env.id),
                                    ErrorCode::Timeout,
                                    "deadline exceeded during execution; result discarded",
                                );
                            }
                        }
                        requests.fetch_add(1, Ordering::Relaxed);
                    }
                }
                // A failed write means the client is gone; end the
                // session rather than grind through the backlog.
                let write_ok = write_line(&writer, &response).is_ok();
                if end_session || !write_ok {
                    stop.store(true, Ordering::SeqCst);
                    // Graceful drain: whatever was already queued behind
                    // the shutdown gets a typed `shutting_down` answer
                    // (skipped when the client is gone anyway). Taking
                    // the lock also orders the stop before a waiting
                    // reader's next look at it.
                    let mut q = queue.lock().expect("queue lock");
                    if write_ok {
                        while let Some((entry, _)) = q.lines.pop_front() {
                            let reply = match entry {
                                Entry::Request(line) => protocol::error_response(
                                    peek_id(&line),
                                    ErrorCode::ShuttingDown,
                                    "session shutting down; request not executed",
                                ),
                                Entry::Reply(reply) => reply,
                            };
                            let _ = write_line(&writer, &reply);
                        }
                    }
                    drop(q);
                    space.notify_all();
                    if let Some(hook) = on_shutdown {
                        hook();
                    }
                    return;
                }
            }
        });

        // A transport error (ECONNRESET, not just EOF) must not
        // early-return here: the worker is still parked on the condvar,
        // and std::thread::scope would join it — i.e. deadlock — before
        // the error could propagate. Record the error, fall through to
        // the shared eof + notify + join handshake, and surface it after
        // the worker is down.
        let mut read_error: Option<io::Error> = None;
        let mut buf = Vec::new();
        // Offer an entry to the queue; a stdio reader waits for a slot.
        let admit = |entry: Entry| -> Admission {
            let mut q = queue.lock().expect("queue lock");
            while wait_for_slot && q.lines.len() >= cfg.queue_cap && !stop.load(Ordering::SeqCst) {
                q = space.wait(q).expect("queue wait");
            }
            if stop.load(Ordering::SeqCst) {
                Admission::Stopped
            } else if q.lines.len() >= cfg.queue_cap {
                Admission::Full
            } else {
                q.lines.push_back((entry, Instant::now()));
                ready.notify_one();
                Admission::Queued
            }
        };
        // Answer a line rejected before parsing. A stdio session queues
        // the reply behind the lines before it, so answers leave in line
        // order; a daemon session writes it at once. True when the
        // session has ended: the reply, to a line read after the queue
        // was answered, is then written last.
        let reject = |reply: String| -> bool {
            if !wait_for_slot {
                let _ = write_line(&writer, &reply);
                return false;
            }
            let stopped = matches!(admit(Entry::Reply(reply.clone())), Admission::Stopped);
            if stopped {
                let _ = write_line(&writer, &reply);
            }
            stopped
        };
        loop {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            match read_capped_line(&mut reader, &mut buf) {
                Err(e) => {
                    read_error = Some(e);
                    break;
                }
                Ok(LineIn::Eof) => break,
                Ok(LineIn::TooLong) => {
                    stats.wire_errors.fetch_add(1, Ordering::Relaxed);
                    let msg = format!("request line exceeds {MAX_REQUEST_BYTES} bytes");
                    if reject(protocol::error_response(None, ErrorCode::TooLarge, &msg)) {
                        break;
                    }
                }
                Ok(LineIn::BadUtf8) => {
                    stats.wire_errors.fetch_add(1, Ordering::Relaxed);
                    if reject(protocol::error_response(
                        None,
                        ErrorCode::Parse,
                        "request line is not valid UTF-8",
                    )) {
                        break;
                    }
                }
                Ok(LineIn::Line(line)) => {
                    if let Some(touch) = ctl.on_activity {
                        touch();
                    }
                    if line.trim().is_empty() {
                        continue;
                    }
                    match admit(Entry::Request(line.clone())) {
                        Admission::Queued => {}
                        Admission::Stopped => {
                            // The worker has ended the session and
                            // answered the queue: this line, read after
                            // it, is next.
                            let _ = write_line(
                                &writer,
                                &protocol::error_response(
                                    peek_id(&line),
                                    ErrorCode::ShuttingDown,
                                    "session shutting down; request not executed",
                                ),
                            );
                            break;
                        }
                        Admission::Full => {
                            stats.overloaded.fetch_add(1, Ordering::Relaxed);
                            let _ = write_line(
                                &writer,
                                &protocol::error_response(
                                    peek_id(&line),
                                    ErrorCode::Overloaded,
                                    "request queue full; retry later",
                                ),
                            );
                        }
                    }
                }
            }
        }
        queue.lock().expect("queue lock").eof = true;
        ready.notify_one();
        worker.join().expect("worker thread");
        match read_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    })?;

    summary.requests = requests.load(Ordering::Relaxed) as u64;
    summary.overloaded = stats.overloaded.load(Ordering::Relaxed);
    summary.wire_errors = stats.wire_errors.load(Ordering::Relaxed);
    summary.daemon_shutdown = daemon_shutdown.load(Ordering::SeqCst);
    Ok(summary)
}

/// Serve one session over stdin/stdout ([`run_stdio_session`]). Returns
/// after `shutdown` or stdin EOF. (After an interactive `shutdown`, the
/// loop finishes when the terminal sends the next line, answered
/// `shutting_down`, or EOF — piped clients close stdin and are
/// unaffected.)
pub fn serve_stdio(cfg: &ServeConfig) -> io::Result<SessionSummary> {
    run_stdio_session(BufReader::new(io::stdin()), io::stdout(), cfg)
}

/// One live unix session as the accept loop sees it: when it last heard
/// from its client, how to signal eviction, and the socket handle that
/// can unblock (or kill) its reader from outside.
struct SessionSlot {
    last_activity: Instant,
    evicted: Arc<AtomicBool>,
    sock: UnixStream,
}

/// Pick the longest-idle evictable session, mark it evicted, and
/// unblock its reader. Returns whether an eviction was initiated. Idle
/// time counts from the last *line received* (or connect), so a client
/// that connected and never spoke — never even sent `load_graph` — is
/// evictable like any other.
fn evict_lru(
    registry: &Mutex<HashMap<u64, SessionSlot>>,
    daemon: &DaemonStats,
    idle_timeout: Duration,
) -> bool {
    let reg = registry.lock().expect("registry lock");
    let now = Instant::now();
    let candidate = reg
        .iter()
        .filter(|(_, s)| !s.evicted.load(Ordering::SeqCst))
        .filter(|(_, s)| now.duration_since(s.last_activity) >= idle_timeout)
        .min_by_key(|(_, s)| s.last_activity)
        .map(|(id, _)| *id);
    let Some(id) = candidate else {
        return false;
    };
    let slot = &reg[&id];
    slot.evicted.store(true, Ordering::SeqCst);
    daemon.sessions_evicted.fetch_add(1, Ordering::SeqCst);
    let _ = slot.sock.shutdown(std::net::Shutdown::Read);
    true
}

/// How long the accept loop waits for an evicted session to release its
/// slot before giving up and answering `overloaded` after all.
const EVICT_WAIT_MS: u64 = 2_000;

/// Serve sessions over a unix socket until a `shutdown` request with
/// `scope: "daemon"`. Each accepted connection gets its own session
/// thread (and engine). At `max_sessions` saturation a new connection
/// either evicts the longest-idle session (when `idle_timeout_ms` is
/// set and one qualifies — the evictee is notified with a typed
/// `session_evicted` error) or is answered `overloaded` and closed.
///
/// Daemon shutdown drains gracefully: the accept loop stops (new
/// connects are refused), in-flight requests complete, queued requests
/// across every session are shed with `shutting_down`, and sessions get
/// at most `drain_ms` before their sockets are closed under them — the
/// call returns (and the process can exit 0) within a bounded window.
/// The socket file is created on bind and removed on return.
pub fn serve_unix(path: &Path, cfg: &ServeConfig) -> io::Result<()> {
    let listener = UnixListener::bind(path)?;
    let stop = AtomicBool::new(false);
    let draining = AtomicBool::new(false);
    let active = AtomicUsize::new(0);
    let daemon = Arc::new(DaemonStats::default());
    let registry: Mutex<HashMap<u64, SessionSlot>> = Mutex::new(HashMap::new());
    let mut next_id = 0u64;
    std::thread::scope(|scope| {
        for conn in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            if active.load(Ordering::SeqCst) >= cfg.max_sessions {
                let mut admitted = false;
                if cfg.idle_timeout_ms > 0
                    && evict_lru(
                        &registry,
                        &daemon,
                        Duration::from_millis(cfg.idle_timeout_ms),
                    )
                {
                    // The evicted session still has to notice, notify its
                    // client, and release the slot; wait for that, bounded.
                    let wait_until = Instant::now() + Duration::from_millis(EVICT_WAIT_MS);
                    while active.load(Ordering::SeqCst) >= cfg.max_sessions
                        && Instant::now() < wait_until
                    {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    admitted = active.load(Ordering::SeqCst) < cfg.max_sessions;
                }
                if !admitted {
                    let mut w = &stream;
                    let _ = writeln!(
                        w,
                        "{}",
                        protocol::error_response(
                            None,
                            ErrorCode::Overloaded,
                            "session limit reached; retry later",
                        )
                    );
                    continue; // dropping the stream closes it
                }
            }
            let id = next_id;
            next_id += 1;
            active.fetch_add(1, Ordering::SeqCst);
            daemon.sessions_active.fetch_add(1, Ordering::SeqCst);
            let evicted = Arc::new(AtomicBool::new(false));
            if let Ok(sock) = stream.try_clone() {
                registry.lock().expect("registry lock").insert(
                    id,
                    SessionSlot {
                        last_activity: Instant::now(),
                        evicted: Arc::clone(&evicted),
                        sock,
                    },
                );
            }
            let (stop, draining, active, registry) = (&stop, &draining, &active, &registry);
            let daemon = Arc::clone(&daemon);
            scope.spawn(move || {
                let session = (|| -> io::Result<SessionSummary> {
                    let reader = BufReader::new(stream.try_clone()?);
                    let writer = stream.try_clone()?;
                    let unblock = stream.try_clone()?;
                    let hook = move || {
                        let _ = unblock.shutdown(std::net::Shutdown::Read);
                    };
                    let touch = || {
                        if let Some(slot) = registry.lock().expect("registry lock").get_mut(&id) {
                            slot.last_activity = Instant::now();
                        }
                    };
                    let ctl = SessionCtl {
                        on_shutdown: Some(&hook),
                        on_activity: Some(&touch),
                        draining: Some(draining),
                        daemon: Some(Arc::clone(&daemon)),
                    };
                    run_session_ctl(reader, writer, cfg, &ctl)
                })();
                // The typed eviction notification: written after the
                // session drained, right before the close the client is
                // about to observe.
                if evicted.load(Ordering::SeqCst) {
                    let mut w = &stream;
                    let _ = writeln!(
                        w,
                        "{}",
                        protocol::error_response(
                            None,
                            ErrorCode::SessionEvicted,
                            "session evicted: idle longest while the session limit was saturated",
                        )
                    );
                }
                registry.lock().expect("registry lock").remove(&id);
                if let Ok(summary) = session {
                    if summary.daemon_shutdown {
                        stop.store(true, Ordering::SeqCst);
                        draining.store(true, Ordering::SeqCst);
                        // Unblock the accept loop with a throwaway
                        // connection to our own socket.
                        let _ = UnixStream::connect(path);
                    }
                }
                active.fetch_sub(1, Ordering::SeqCst);
                daemon.sessions_active.fetch_sub(1, Ordering::SeqCst);
            });
        }
        // Graceful drain. The accept loop is done (new connects now fail
        // at connect()), so: tell every live session to shed queued work,
        // unblock their readers, and give in-flight requests `drain_ms`
        // to finish before closing the stragglers' sockets outright —
        // the scope join below is then bounded.
        draining.store(true, Ordering::SeqCst);
        for slot in registry.lock().expect("registry lock").values() {
            let _ = slot.sock.shutdown(std::net::Shutdown::Read);
        }
        let drain_until = Instant::now() + Duration::from_millis(cfg.drain_ms.max(1));
        while active.load(Ordering::SeqCst) > 0 && Instant::now() < drain_until {
            std::thread::sleep(Duration::from_millis(2));
        }
        for slot in registry.lock().expect("registry lock").values() {
            let _ = slot.sock.shutdown(std::net::Shutdown::Both);
        }
    });
    std::fs::remove_file(path).ok();
    Ok(())
}
