//! Out-of-core edge streams: the input side of the streaming sparsifier
//! build.
//!
//! A [`EdgeStreamSource`] yields the edges of a graph in strict
//! lexicographic order with `u < v` per edge — exactly the order
//! [`CsrGraph::edges`] iterates and [`crate::io::write_edge_list`]
//! writes — and can be scanned more than once. That contract is what
//! makes a two-pass degree-count → sample → filter construction possible
//! without ever materializing the parent graph's adjacency arrays: in a
//! lex-sorted stream the half-edges incident to any vertex `w` arrive in
//! `w`'s sorted-adjacency order (all `(a, w)` with `a < w` precede all
//! `(w, b)` with `b > w`, each group ascending), so a per-vertex arrival
//! counter reproduces adjacency positions in O(n) resident memory.
//!
//! Two sources are provided: [`FileEdgeSource`] streams a plain-text
//! edge-list file through a fixed-size buffer, validating the full
//! format contract on every pass (the file is untrusted input), and
//! [`CsrGraph`] itself implements the trait so in-memory and out-of-core
//! paths can be differential-tested against each other.

use crate::csr::CsrGraph;
use crate::io::{EdgeLines, ReadError};
use std::path::{Path, PathBuf};

/// A rescannable source of lex-sorted `u < v` edges.
///
/// Contract, checked by [`FileEdgeSource`] and guaranteed by the
/// [`CsrGraph`] impl: `scan` visits exactly [`num_edges`] edges, each
/// with `u < v < num_vertices` (as `u32`s), in strictly increasing
/// lexicographic order, and repeated scans visit the identical sequence.
///
/// [`num_edges`]: EdgeStreamSource::num_edges
pub trait EdgeStreamSource {
    /// Number of vertices `n` of the streamed graph.
    fn num_vertices(&self) -> usize;
    /// Number of undirected edges `m` the stream will yield.
    fn num_edges(&self) -> usize;
    /// Visit every edge in order. May be called repeatedly; each call
    /// re-verifies whatever the source cannot guarantee statically.
    fn scan(&mut self, visit: &mut dyn FnMut(u32, u32)) -> Result<(), ReadError>;
}

/// Stream a plain-text edge-list file (the [`crate::io`] format) without
/// loading it: only the [`std::io::BufReader`] window is resident.
///
/// The file is untrusted. [`FileEdgeSource::open`] validates the header
/// (range caps, `m ≤ n·(n−1)/2`) and every [`scan`] re-validates the
/// body line by line: endpoint bounds, no self-loops, `u < v`, strictly
/// increasing lexicographic order (which subsumes duplicate detection),
/// and an edge count equal to the declared `m`. A file that mutates
/// between passes is therefore caught, not silently mis-sampled.
///
/// [`scan`]: EdgeStreamSource::scan
#[derive(Clone, Debug)]
pub struct FileEdgeSource {
    path: PathBuf,
    n: usize,
    m: usize,
    /// Scans that ran to completion. Once a pass has delivered all `m`
    /// edges, a later short pass is a file truncated *between* passes
    /// ([`ReadError::TruncatedBetweenPasses`]), not a file that was
    /// short all along (a plain parse error).
    completed_scans: u64,
}

impl FileEdgeSource {
    /// Open `path` and validate its header. The body is not read here —
    /// each [`EdgeStreamSource::scan`] streams and validates it.
    pub fn open(path: impl AsRef<Path>) -> Result<FileEdgeSource, ReadError> {
        let path = path.as_ref().to_path_buf();
        let file = std::fs::File::open(&path)?;
        let (_, n, m) = EdgeLines::new(std::io::BufReader::new(file)).read_header()?;
        Ok(FileEdgeSource {
            path,
            n,
            m,
            completed_scans: 0,
        })
    }

    /// The file this source streams from.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl EdgeStreamSource for FileEdgeSource {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn num_edges(&self) -> usize {
        self.m
    }

    fn scan(&mut self, visit: &mut dyn FnMut(u32, u32)) -> Result<(), ReadError> {
        let file = std::fs::File::open(&self.path)?;
        let mut lines = EdgeLines::new(std::io::BufReader::new(file));
        // The header must agree with what `open` recorded, or the file
        // changed underneath us between passes.
        let (lineno, n, m) = lines.read_header()?;
        if (n, m) != (self.n, self.m) {
            return Err(ReadError::Parse {
                line: lineno,
                message: format!(
                    "header changed between scans: expected {} {}, found {n} {m}",
                    self.n, self.m
                ),
            });
        }
        let mut prev: Option<(u32, u32)> = None;
        let mut edges_seen = 0usize;
        for line in lines {
            let (lineno, a, b) = line?;
            if a >= self.n as u64 || b >= self.n as u64 {
                return Err(ReadError::Parse {
                    line: lineno,
                    message: format!("vertex out of range (n = {})", self.n),
                });
            }
            if a == b {
                return Err(ReadError::SelfLoop { line: lineno });
            }
            if a > b {
                return Err(ReadError::Parse {
                    line: lineno,
                    message: "streaming input requires u < v per edge".into(),
                });
            }
            let edge = (a as u32, b as u32);
            if let Some(prev) = prev {
                if edge == prev {
                    return Err(ReadError::DuplicateEdge { line: lineno });
                }
                if edge < prev {
                    return Err(ReadError::Parse {
                        line: lineno,
                        message: "streaming input requires lexicographically sorted edges".into(),
                    });
                }
            }
            prev = Some(edge);
            edges_seen += 1;
            if edges_seen > self.m {
                return Err(ReadError::Parse {
                    line: lineno,
                    message: format!("more than the declared {} edges", self.m),
                });
            }
            visit(edge.0, edge.1);
        }
        if edges_seen != self.m {
            // A short body on the first pass is a malformed file; the
            // same short body after a completed pass means the file lost
            // data while a multi-pass build was running against it.
            if self.completed_scans > 0 {
                return Err(ReadError::TruncatedBetweenPasses {
                    expected: self.m,
                    found: edges_seen,
                });
            }
            return Err(ReadError::Parse {
                line: 0,
                message: format!("declared {} edges but found {edges_seen}", self.m),
            });
        }
        self.completed_scans += 1;
        Ok(())
    }
}

/// An in-memory graph is trivially a stream source: [`CsrGraph::edges`]
/// already iterates in strict lexicographic order with `u < v`. This is
/// the reference the out-of-core build is differential-tested against.
impl EdgeStreamSource for CsrGraph {
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }

    fn num_edges(&self) -> usize {
        CsrGraph::num_edges(self)
    }

    fn scan(&mut self, visit: &mut dyn FnMut(u32, u32)) -> Result<(), ReadError> {
        for (_, u, v) in CsrGraph::edges(self) {
            visit(u.0, v.0);
        }
        Ok(())
    }
}

/// A mutable reference to a source is itself a source, so callers that
/// hold a `&mut dyn EdgeStreamSource` (e.g. a backend trait object) can
/// feed the generic streamed build entry points without knowing the
/// concrete type.
impl<S: EdgeStreamSource + ?Sized> EdgeStreamSource for &mut S {
    fn num_vertices(&self) -> usize {
        (**self).num_vertices()
    }

    fn num_edges(&self) -> usize {
        (**self).num_edges()
    }

    fn scan(&mut self, visit: &mut dyn FnMut(u32, u32)) -> Result<(), ReadError> {
        (**self).scan(visit)
    }
}

/// Per-kind I/O fault probabilities, each in `[0, 1]`, drawn once per
/// scan attempt.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IoFaultRates {
    /// Probability a scan attempt aborts mid-body with a transient `EIO`.
    pub eio: f64,
    /// Probability a scan attempt delivers fewer than `m` edges and then
    /// reports the stream truncated.
    pub short_read: f64,
    /// Probability a scan attempt ends on a torn (half-written) trailing
    /// line, surfacing as a parse error.
    pub torn_line: f64,
    /// Probability a scan attempt opens on a header that mutated since
    /// the previous pass.
    pub header_mutation: f64,
}

impl IoFaultRates {
    fn validate(&self) {
        for (name, r) in [
            ("eio", self.eio),
            ("short_read", self.short_read),
            ("torn_line", self.torn_line),
            ("header_mutation", self.header_mutation),
        ] {
            assert!(
                r.is_finite() && (0.0..=1.0).contains(&r),
                "i/o fault rate {name} = {r} must be a probability in [0, 1]"
            );
        }
    }
}

/// Fault counters accumulated by a [`FaultyEdgeSource`], one per kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoFaultStats {
    /// Transient `EIO` aborts injected.
    pub eio: u64,
    /// Short reads injected.
    pub short_reads: u64,
    /// Torn trailing lines injected.
    pub torn_lines: u64,
    /// Between-pass header mutations injected.
    pub header_mutations: u64,
}

impl IoFaultStats {
    /// Merge another record into this one (all fields add).
    pub fn absorb(&mut self, other: IoFaultStats) {
        self.eio += other.eio;
        self.short_reads += other.short_reads;
        self.torn_lines += other.torn_lines;
        self.header_mutations += other.header_mutations;
    }

    /// Total faults injected across all kinds.
    pub fn total(&self) -> u64 {
        self.eio + self.short_reads + self.torn_lines + self.header_mutations
    }
}

impl std::fmt::Display for IoFaultStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} eio, {} short reads, {} torn lines, {} header mutations",
            self.eio, self.short_reads, self.torn_lines, self.header_mutations
        )
    }
}

// splitmix64 finalizer — the same decision hash the distsim fault layer
// uses, so the two chaos surfaces share one determinism story.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[inline]
fn hash3(seed: u64, salt: u64, a: u64, b: u64) -> u64 {
    mix(mix(mix(seed ^ salt) ^ a) ^ b)
}

/// Convert a probability to a 65-bit threshold so that `hash < threshold`
/// holds with probability exactly 0 at `p = 0` and exactly 1 at `p = 1`.
fn threshold(p: f64) -> u128 {
    if p <= 0.0 {
        0
    } else if p >= 1.0 {
        1u128 << 64
    } else {
        (p * (1u128 << 64) as f64) as u128
    }
}

const EIO_SALT: u64 = 0xE10;
const SHORT_SALT: u64 = 0x5407;
const TORN_SALT: u64 = 0x7042;
const HEADER_SALT: u64 = 0x4EAD;
const POS_SALT: u64 = 0x0515;

/// One injected fault, resolved for a specific scan attempt.
///
/// `after` is the number of edges the attempt delivers before failing
/// (hashed from the plan seed, so it is a pure function of the attempt).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedIoFault {
    /// Deliver `after` edges, then abort with a transient `EIO`.
    Eio {
        /// Edges delivered before the abort.
        after: usize,
    },
    /// Deliver `after < m` edges, then report the stream truncated.
    ShortRead {
        /// Edges delivered before the truncation.
        after: usize,
    },
    /// Deliver `after` edges, then fail parsing a torn trailing line.
    TornLine {
        /// Edges delivered before the torn line.
        after: usize,
    },
    /// Fail immediately: the header changed since the previous pass.
    HeaderMutation,
}

/// A deterministic schedule of I/O faults: a pure function from a `u64`
/// seed and [`IoFaultRates`] to per-scan-attempt decisions, mirroring
/// the distsim `FaultPlan`. Two runs with the same plan inject the
/// identical faults at the identical points, so every chaos test is
/// reproducible by seed alone.
///
/// The `horizon` bounds injection to the first `horizon` scan attempts;
/// later attempts are clean. A fault-free retry is therefore
/// *guaranteed* (not just probable) once a build has burned through the
/// horizon, which is what makes a plan provably recoverable under a
/// bounded retry budget.
#[derive(Clone, Copy, Debug)]
pub struct IoFaultPlan {
    seed: u64,
    eio: u128,
    short_read: u128,
    torn_line: u128,
    header_mutation: u128,
    horizon: u64,
}

impl IoFaultPlan {
    /// A plan that injects nothing: [`FaultyEdgeSource`] under this plan
    /// is byte-transparent (pinned by test).
    pub fn none() -> IoFaultPlan {
        IoFaultPlan::new(0, IoFaultRates::default())
    }

    /// Build a plan from a seed and per-kind rates (must be valid
    /// probabilities). Faults are unbounded in time until
    /// [`with_horizon`](IoFaultPlan::with_horizon) caps them.
    pub fn new(seed: u64, rates: IoFaultRates) -> IoFaultPlan {
        rates.validate();
        IoFaultPlan {
            seed,
            eio: threshold(rates.eio),
            short_read: threshold(rates.short_read),
            torn_line: threshold(rates.torn_line),
            header_mutation: threshold(rates.header_mutation),
            horizon: u64::MAX,
        }
    }

    /// Restrict injection to scan attempts `0..horizon`; later attempts
    /// are clean, guaranteeing recovery under `max_attempts > horizon`.
    pub fn with_horizon(mut self, horizon: u64) -> IoFaultPlan {
        self.horizon = horizon;
        self
    }

    /// The injection horizon in scan attempts (`u64::MAX` = unbounded).
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// The fault (if any) this plan injects into scan attempt `attempt`
    /// of a stream declaring `m` edges. Pure, so tests and experiments
    /// can inspect the schedule without running a build. At most one
    /// fault fires per attempt, resolved in a fixed priority order
    /// (header, eio, short read, torn line).
    pub fn fault_for_attempt(&self, attempt: u64, m: usize) -> Option<InjectedIoFault> {
        if attempt >= self.horizon {
            return None;
        }
        let hits = |salt: u64, thr: u128| (hash3(self.seed, salt, attempt, 0) as u128) < thr;
        let pos = |salt: u64, modulus: usize| {
            hash3(self.seed, POS_SALT, attempt, salt) as usize % modulus
        };
        if hits(HEADER_SALT, self.header_mutation) {
            return Some(InjectedIoFault::HeaderMutation);
        }
        if hits(EIO_SALT, self.eio) {
            return Some(InjectedIoFault::Eio {
                after: pos(EIO_SALT, m + 1),
            });
        }
        // A short read needs at least one edge to withhold.
        if m > 0 && hits(SHORT_SALT, self.short_read) {
            return Some(InjectedIoFault::ShortRead {
                after: pos(SHORT_SALT, m),
            });
        }
        if hits(TORN_SALT, self.torn_line) {
            return Some(InjectedIoFault::TornLine {
                after: pos(TORN_SALT, m + 1),
            });
        }
        None
    }
}

/// Wrap any [`EdgeStreamSource`] with a deterministic [`IoFaultPlan`]:
/// the chaos half of the streaming build's resilience story, mirroring
/// the fault plans of distsim's `Network`.
///
/// Each call to [`scan`](EdgeStreamSource::scan) consumes one attempt
/// index from a monotone counter. A faulted attempt delivers exactly the
/// prefix the plan dictates and then fails through the scan's `Result`
/// with the same typed [`ReadError`]s a real failing device produces —
/// callers cannot tell injected faults from real ones, which is the
/// point. A real error from the wrapped source always wins over an
/// injected one. Under [`IoFaultPlan::none`] the wrapper is
/// byte-transparent and all counters stay zero.
#[derive(Clone, Debug)]
pub struct FaultyEdgeSource<S> {
    inner: S,
    plan: IoFaultPlan,
    attempts: u64,
    stats: IoFaultStats,
}

impl<S: EdgeStreamSource> FaultyEdgeSource<S> {
    /// Wrap `inner` under `plan`, starting at attempt 0.
    pub fn new(inner: S, plan: IoFaultPlan) -> FaultyEdgeSource<S> {
        FaultyEdgeSource {
            inner,
            plan,
            attempts: 0,
            stats: IoFaultStats::default(),
        }
    }

    /// Fault counters accumulated so far.
    pub fn stats(&self) -> IoFaultStats {
        self.stats
    }

    /// Scan attempts consumed so far (clean and faulted alike).
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    /// Unwrap, discarding the plan and counters.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: EdgeStreamSource> EdgeStreamSource for FaultyEdgeSource<S> {
    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.inner.num_edges()
    }

    fn scan(&mut self, visit: &mut dyn FnMut(u32, u32)) -> Result<(), ReadError> {
        let attempt = self.attempts;
        self.attempts += 1;
        let m = self.inner.num_edges();
        let Some(fault) = self.plan.fault_for_attempt(attempt, m) else {
            return self.inner.scan(visit);
        };
        // Deliver the prefix the fault allows. The inner scan still runs
        // to completion (its own validation may fail first and wins),
        // but the caller observes a stream that died after `after` edges.
        let after = match fault {
            InjectedIoFault::Eio { after }
            | InjectedIoFault::ShortRead { after }
            | InjectedIoFault::TornLine { after } => after,
            InjectedIoFault::HeaderMutation => 0,
        };
        let mut delivered = 0usize;
        self.inner.scan(&mut |u, v| {
            if delivered < after {
                delivered += 1;
                visit(u, v);
            }
        })?;
        Err(match fault {
            InjectedIoFault::Eio { .. } => {
                self.stats.eio += 1;
                ReadError::Io(std::io::Error::other(format!(
                    "injected transient EIO on scan attempt {attempt} after {after} edges"
                )))
            }
            InjectedIoFault::ShortRead { .. } => {
                self.stats.short_reads += 1;
                ReadError::TruncatedBetweenPasses {
                    expected: m,
                    found: after,
                }
            }
            InjectedIoFault::TornLine { .. } => {
                self.stats.torn_lines += 1;
                ReadError::Parse {
                    line: after + 2,
                    message: format!("injected torn trailing line after {after} edges"),
                }
            }
            InjectedIoFault::HeaderMutation => {
                self.stats.header_mutations += 1;
                ReadError::Parse {
                    line: 1,
                    message: "injected header mutation between scans".into(),
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::from_edges;
    use crate::io::write_edge_list_file;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("sparsimatch-edge-stream-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn collect(src: &mut impl EdgeStreamSource) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        src.scan(&mut |u, v| out.push((u, v))).unwrap();
        out
    }

    #[test]
    fn file_source_streams_written_graphs_repeatedly() {
        let g = from_edges(6, [(0, 1), (0, 3), (1, 2), (2, 5), (4, 5)]);
        let path = temp_path("ok.el");
        write_edge_list_file(&g, &path).unwrap();
        let mut src = FileEdgeSource::open(&path).unwrap();
        assert_eq!(EdgeStreamSource::num_vertices(&src), 6);
        assert_eq!(EdgeStreamSource::num_edges(&src), 5);
        let want: Vec<(u32, u32)> = g.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        // Two scans — the streaming build's access pattern — agree.
        assert_eq!(collect(&mut src), want);
        assert_eq!(collect(&mut src), want);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csr_graph_is_its_own_stream_source() {
        let mut g = from_edges(5, [(3, 4), (0, 2), (0, 1)]);
        let want: Vec<(u32, u32)> = g.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        assert_eq!(collect(&mut g), want);
        assert_eq!(EdgeStreamSource::num_edges(&g), 3);
    }

    #[test]
    fn file_source_rejects_malformed_streams() {
        let cases = [
            ("unsorted.el", "3 2\n1 2\n0 1\n", "sorted"),
            ("swapped.el", "3 1\n2 1\n", "u < v"),
            ("dup.el", "3 2\n0 1\n0 1\n", "duplicate"),
            ("selfloop.el", "3 1\n1 1\n", "self-loop"),
            ("short.el", "3 2\n0 1\n", "declared 2"),
            ("long.el", "3 1\n0 1\n1 2\n", "more than"),
            ("range.el", "3 1\n0 7\n", "out of range"),
        ];
        for (name, text, needle) in cases {
            let path = temp_path(name);
            std::fs::write(&path, text).unwrap();
            let mut src = FileEdgeSource::open(&path).unwrap();
            let err = src.scan(&mut |_, _| {}).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{name}: expected {needle:?} in {:?}",
                err.to_string()
            );
            std::fs::remove_file(&path).ok();
        }
        // Header problems fail at open, before any scan.
        let path = temp_path("badheader.el");
        std::fs::write(&path, "4 7\n").unwrap();
        assert!(matches!(
            FileEdgeSource::open(&path),
            Err(ReadError::TooLarge { line: 1, .. })
        ));
        std::fs::write(&path, "").unwrap();
        assert!(FileEdgeSource::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_source_detects_header_mutation_between_scans() {
        let path = temp_path("mutated.el");
        std::fs::write(&path, "3 1\n0 1\n").unwrap();
        let mut src = FileEdgeSource::open(&path).unwrap();
        src.scan(&mut |_, _| {}).unwrap();
        std::fs::write(&path, "4 1\n0 1\n").unwrap();
        let err = src.scan(&mut |_, _| {}).unwrap_err();
        assert!(err.to_string().contains("header changed between scans"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_source_types_truncation_after_a_completed_pass() {
        // Regression: a file that loses body lines between passes used
        // to surface as the same generic parse error as a file that was
        // short all along. Pass 1 completes, the file is truncated, and
        // pass 2 must say so with the typed error.
        let path = temp_path("truncated.el");
        std::fs::write(&path, "4 3\n0 1\n1 2\n2 3\n").unwrap();
        let mut src = FileEdgeSource::open(&path).unwrap();
        src.scan(&mut |_, _| {}).unwrap();
        std::fs::write(&path, "4 3\n0 1\n").unwrap();
        match src.scan(&mut |_, _| {}) {
            Err(ReadError::TruncatedBetweenPasses { expected, found }) => {
                assert_eq!((expected, found), (3, 1));
            }
            other => panic!("expected TruncatedBetweenPasses, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    fn sample_graph() -> CsrGraph {
        from_edges(6, [(0, 1), (0, 3), (1, 2), (2, 5), (3, 4), (4, 5)])
    }

    #[test]
    fn zero_fault_plan_is_byte_transparent() {
        let g = sample_graph();
        let want: Vec<(u32, u32)> = g.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        let mut faulty = FaultyEdgeSource::new(sample_graph(), IoFaultPlan::none());
        assert_eq!(EdgeStreamSource::num_vertices(&faulty), 6);
        assert_eq!(EdgeStreamSource::num_edges(&faulty), 6);
        for _ in 0..3 {
            assert_eq!(collect(&mut faulty), want);
        }
        assert_eq!(faulty.stats(), IoFaultStats::default());
        assert_eq!(faulty.attempts(), 3);
    }

    #[test]
    fn every_fault_kind_fires_with_its_typed_error() {
        let all_of =
            |rates: IoFaultRates| FaultyEdgeSource::new(sample_graph(), IoFaultPlan::new(9, rates));
        let mut eio = all_of(IoFaultRates {
            eio: 1.0,
            ..Default::default()
        });
        let err = eio.scan(&mut |_, _| {}).unwrap_err();
        assert!(matches!(err, ReadError::Io(_)), "got {err:?}");
        assert!(err.to_string().contains("injected transient EIO"));
        assert_eq!(eio.stats().eio, 1);

        let mut short = all_of(IoFaultRates {
            short_read: 1.0,
            ..Default::default()
        });
        let mut seen = 0usize;
        let err = short.scan(&mut |_, _| seen += 1).unwrap_err();
        match err {
            ReadError::TruncatedBetweenPasses { expected, found } => {
                assert_eq!(expected, 6);
                assert_eq!(found, seen);
                assert!(found < expected, "short read must withhold an edge");
            }
            other => panic!("expected TruncatedBetweenPasses, got {other:?}"),
        }
        assert_eq!(short.stats().short_reads, 1);

        let mut torn = all_of(IoFaultRates {
            torn_line: 1.0,
            ..Default::default()
        });
        let err = torn.scan(&mut |_, _| {}).unwrap_err();
        assert!(err.to_string().contains("injected torn trailing line"));
        assert_eq!(torn.stats().torn_lines, 1);

        let mut header = all_of(IoFaultRates {
            header_mutation: 1.0,
            ..Default::default()
        });
        let mut delivered = 0usize;
        let err = header.scan(&mut |_, _| delivered += 1).unwrap_err();
        assert!(err.to_string().contains("injected header mutation"));
        assert_eq!(delivered, 0, "a mutated header fails before any edge");
        assert_eq!(header.stats().header_mutations, 1);
    }

    #[test]
    fn horizon_guarantees_a_clean_attempt() {
        let g = sample_graph();
        let want: Vec<(u32, u32)> = g.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        let plan = IoFaultPlan::new(
            3,
            IoFaultRates {
                eio: 1.0,
                ..Default::default()
            },
        )
        .with_horizon(2);
        let mut faulty = FaultyEdgeSource::new(sample_graph(), plan);
        assert!(faulty.scan(&mut |_, _| {}).is_err());
        assert!(faulty.scan(&mut |_, _| {}).is_err());
        assert_eq!(collect(&mut faulty), want);
        assert_eq!(faulty.stats().eio, 2);
    }

    #[test]
    fn fault_schedule_is_a_pure_function_of_the_plan() {
        let rates = IoFaultRates {
            eio: 0.4,
            short_read: 0.3,
            torn_line: 0.3,
            header_mutation: 0.2,
        };
        let plan = IoFaultPlan::new(42, rates).with_horizon(64);
        let schedule: Vec<_> = (0..64).map(|a| plan.fault_for_attempt(a, 6)).collect();
        assert_eq!(
            schedule,
            (0..64)
                .map(|a| IoFaultPlan::new(42, rates)
                    .with_horizon(64)
                    .fault_for_attempt(a, 6))
                .collect::<Vec<_>>()
        );
        assert!(
            schedule.iter().any(|f| f.is_some()),
            "at these rates 64 attempts must hit at least one fault"
        );
        assert!(
            schedule.iter().any(|f| f.is_none()),
            "at these rates 64 attempts must include a clean one"
        );
        // Replaying the wrapper produces the identical error sequence.
        let mut a = FaultyEdgeSource::new(sample_graph(), plan);
        let mut b = FaultyEdgeSource::new(sample_graph(), plan);
        for _ in 0..8 {
            let ra = a.scan(&mut |_, _| {}).map_err(|e| e.to_string());
            let rb = b.scan(&mut |_, _| {}).map_err(|e| e.to_string());
            assert_eq!(ra, rb);
        }
        assert_eq!(a.stats(), b.stats());
    }
}
