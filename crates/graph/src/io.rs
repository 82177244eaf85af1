//! Plain-text edge-list serialization.
//!
//! Format (whitespace-separated, `#` comments):
//!
//! ```text
//! # optional comments
//! <n> <m>
//! <u> <v>      # one line per undirected edge, 0-based vertex ids
//! ...
//! ```
//!
//! The header's `m` is validated against the body. Self-loops and
//! duplicate edges are rejected on read (the in-memory representation
//! does not admit them, so silently dropping would corrupt round-trips).
//! Duplicate detection keeps no side table: while the input stays in
//! lexicographic order (our own writer's output always is) a duplicate is
//! adjacent and reported with its exact line; once order breaks, the
//! post-read sort finds any remaining duplicate and reports it with
//! `line: 0` (position unknown). Peak memory is therefore the 8-byte
//! edge buffer alone — the former `HashSet` shadow copy roughly septupled
//! the per-edge footprint at the worst moment.
//!
//! Input is treated as **untrusted**: header counts are range-checked
//! against [`MAX_VERTICES`] / [`MAX_EDGES`] and against each other
//! (`m ≤ n·(n−1)/2`, computed in 128 bits) *before* any allocation is
//! sized from them, and the edge-buffer preallocation is additionally
//! capped so a lying header cannot reserve gigabytes up front. Every
//! malformed-input path returns a typed [`ReadError`]; none panics.

use crate::csr::{from_sorted_edges, CsrGraph};
use std::io::{BufRead, ErrorKind, Write};

/// Largest accepted vertex count (2²⁷ ≈ 134M: ids stay well inside `u32`
/// and the CSR layout arrays stay addressable).
pub const MAX_VERTICES: usize = 1 << 27;

/// Largest accepted edge count (2²⁸ ≈ 268M half-gigabyte edge list).
pub const MAX_EDGES: usize = 1 << 28;

/// Upper bound on the edge-buffer capacity reserved from the (untrusted)
/// header; the buffer still grows on demand for honest large inputs.
const PREALLOC_EDGES: usize = 1 << 16;

/// Errors from [`read_edge_list`].
#[derive(Debug)]
pub enum ReadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A header count exceeds the hard input limits ([`MAX_VERTICES`],
    /// [`MAX_EDGES`], or `m > n·(n−1)/2`).
    TooLarge {
        /// 1-based line number.
        line: usize,
        /// What was out of bounds and by how much.
        message: String,
    },
    /// An edge line joins a vertex to itself.
    SelfLoop {
        /// 1-based line number.
        line: usize,
    },
    /// An edge line repeats an earlier edge (in either orientation).
    DuplicateEdge {
        /// 1-based line number; `0` when the duplicate was only found by
        /// the post-read sort of out-of-order input (no side table maps
        /// it back to a line).
        line: usize,
    },
    /// Any other structural problem with the file contents.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// A rescannable source that previously delivered all `expected`
    /// edges came up short on a later pass: the file was truncated (or
    /// the device failed) between scans of a multi-pass build. Distinct
    /// from [`ReadError::Parse`] so callers can tell "the input was
    /// always bad" from "the input changed underneath a running build".
    TruncatedBetweenPasses {
        /// The declared (and previously delivered) edge count.
        expected: usize,
        /// Edges the short scan actually delivered.
        found: usize,
    },
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "i/o error: {e}"),
            ReadError::TooLarge { line, message } => {
                write!(f, "line {line}: input too large: {message}")
            }
            ReadError::SelfLoop { line } => write!(f, "line {line}: self-loop"),
            ReadError::DuplicateEdge { line } => write!(f, "line {line}: duplicate edge"),
            ReadError::Parse { line, message } => write!(f, "line {line}: {message}"),
            ReadError::TruncatedBetweenPasses { expected, found } => write!(
                f,
                "stream truncated between passes: {expected} edges previously \
                 delivered, only {found} on rescan"
            ),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

fn parse_error(line: usize, message: impl Into<String>) -> ReadError {
    ReadError::Parse {
        line,
        message: message.into(),
    }
}

/// Range-check untrusted header counts before anything is sized from
/// them: `n ≤ MAX_VERTICES`, `m ≤ MAX_EDGES`, and `m ≤ n·(n−1)/2` in
/// 128-bit arithmetic.
fn validate_header(a: u64, b: u64, lineno: usize) -> Result<(usize, usize), ReadError> {
    if a > MAX_VERTICES as u64 {
        return Err(ReadError::TooLarge {
            line: lineno,
            message: format!("{a} vertices (max {MAX_VERTICES})"),
        });
    }
    if b > MAX_EDGES as u64 {
        return Err(ReadError::TooLarge {
            line: lineno,
            message: format!("{b} edges (max {MAX_EDGES})"),
        });
    }
    // A simple graph on n vertices has at most n(n-1)/2 edges; 128-bit
    // arithmetic so the product cannot overflow.
    let max_m = (a as u128) * (a as u128).saturating_sub(1) / 2;
    if (b as u128) > max_m {
        return Err(ReadError::TooLarge {
            line: lineno,
            message: format!("{b} edges on {a} vertices (max {max_m})"),
        });
    }
    Ok((a as usize, b as usize))
}

/// Split an edge-list line into its two integer fields, stripping `#`
/// comments. Returns `None` for blank/comment-only lines. Parses as
/// `u64` so a 32-bit usize cannot make huge counts wrap into "valid"
/// small ones; callers range-check before narrowing.
fn parse_line_fields(line: &str, lineno: usize) -> Result<Option<(u64, u64)>, ReadError> {
    let content = line.split('#').next().unwrap_or("").trim();
    if content.is_empty() {
        return Ok(None);
    }
    let mut fields = content.split_whitespace();
    let a: u64 = fields
        .next()
        .ok_or_else(|| parse_error(lineno, "missing first field"))?
        .parse()
        .map_err(|e| parse_error(lineno, format!("bad integer: {e}")))?;
    let b: u64 = fields
        .next()
        .ok_or_else(|| parse_error(lineno, "missing second field"))?
        .parse()
        .map_err(|e| parse_error(lineno, format!("bad integer: {e}")))?;
    if fields.next().is_some() {
        return Err(parse_error(lineno, "trailing fields"));
    }
    Ok(Some((a, b)))
}

/// Parse the line that starts at `window[start]` if it has the form
/// `digits [ \t]+ digits [ \t\r]* \n` with at most 19 digits per field,
/// so that neither field can overflow `u64`. Returns both fields and the
/// index just past the line's newline; `None` for any other line and for
/// a line whose newline lies beyond the window. [`parse_line_fields`]
/// gives the same two values for every line this accepts. Always
/// inlined: left alone, the compiler kept it out of line in the window
/// loop and returned each line's fields through memory.
#[inline(always)]
fn parse_plain_line(window: &[u8], start: usize) -> Option<(u64, u64, usize)> {
    let mut i = start;
    let mut a = 0u64;
    while i < window.len() && window[i].is_ascii_digit() {
        // Wraps only past 19 digits, where the field is refused below.
        a = a.wrapping_mul(10).wrapping_add(u64::from(window[i] - b'0'));
        i += 1;
    }
    if !(1..=19).contains(&(i - start)) {
        return None;
    }
    let sep = i;
    while i < window.len() && matches!(window[i], b' ' | b'\t') {
        i += 1;
    }
    let digits = i;
    if digits == sep {
        return None;
    }
    let mut b = 0u64;
    while i < window.len() && window[i].is_ascii_digit() {
        b = b.wrapping_mul(10).wrapping_add(u64::from(window[i] - b'0'));
        i += 1;
    }
    if !(1..=19).contains(&(i - digits)) {
        return None;
    }
    while i < window.len() && matches!(window[i], b' ' | b'\t' | b'\r') {
        i += 1;
    }
    (i < window.len() && window[i] == b'\n').then_some((a, b, i + 1))
}

/// The data lines of edge-list text, each line that is neither blank nor
/// comment-only, numbered from 1 over every line. The one line reader
/// behind [`read_edge_list`] and [`crate::edge_stream::FileEdgeSource`].
///
/// [`EdgeLines::for_each_fields`] parses every plain line (see
/// [`parse_plain_line`]) of the reader's current window in one loop, in
/// place, and consumes the window once. Any other line at the start of a
/// window (a comment, a blank, a sign, a longer field, Unicode
/// whitespace, junk, a line crossing the window's end, a last line
/// without a newline) is copied into one reused buffer and handed to
/// [`parse_line_fields`], so what is accepted and every error returned do
/// not depend on which path a line takes. The header always takes the
/// second path. A line that is not UTF-8 is a [`ReadError::Parse`] with
/// its line number.
pub(crate) struct EdgeLines<R> {
    reader: R,
    lineno: usize,
    line: Vec<u8>,
}

impl<R: BufRead> EdgeLines<R> {
    pub(crate) fn new(reader: R) -> Self {
        EdgeLines {
            reader,
            lineno: 0,
            line: Vec::new(),
        }
    }

    /// Read the header, the first data line, and range-check it. Returns
    /// its line number and the validated `(n, m)`.
    pub(crate) fn read_header(&mut self) -> Result<(usize, usize, usize), ReadError> {
        while self.read_line()? {
            if let Some((a, b)) = self.line_fields()? {
                let (n, m) = validate_header(a, b, self.lineno)?;
                return Ok((self.lineno, n, m));
            }
        }
        Err(parse_error(0, "empty input (missing header)"))
    }

    /// Call `f(lineno, a, b)` for every remaining data line, in order.
    /// Stops at the first error, `f`'s included.
    pub(crate) fn for_each_fields(
        &mut self,
        mut f: impl FnMut(usize, u64, u64) -> Result<(), ReadError>,
    ) -> Result<(), ReadError> {
        loop {
            let window = match self.reader.fill_buf() {
                Ok(window) => window,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            };
            // Counted in a local, which stays in a register across `f`;
            // an error ends the read, so it returns without storing it.
            let (mut pos, mut lineno) = (0, self.lineno);
            while let Some((a, b, end)) = parse_plain_line(window, pos) {
                lineno += 1;
                f(lineno, a, b)?;
                pos = end;
            }
            self.lineno = lineno;
            if pos > 0 {
                self.reader.consume(pos);
            } else if !self.read_line()? {
                return Ok(());
            } else if let Some((a, b)) = self.line_fields()? {
                f(self.lineno, a, b)?;
            }
        }
    }

    /// Copy the next line into the reused buffer and count it. `false` at
    /// the end of the input.
    fn read_line(&mut self) -> Result<bool, ReadError> {
        self.line.clear();
        if self.reader.read_until(b'\n', &mut self.line)? == 0 {
            return Ok(false);
        }
        self.lineno += 1;
        Ok(true)
    }

    /// The fields of the line [`EdgeLines::read_line`] copied, through
    /// the general parser.
    fn line_fields(&self) -> Result<Option<(u64, u64)>, ReadError> {
        let line = std::str::from_utf8(&self.line)
            .map_err(|_| parse_error(self.lineno, "invalid UTF-8"))?;
        parse_line_fields(line, self.lineno)
    }
}

/// Read a graph from edge-list text.
///
/// Safe on untrusted input: header counts are validated against
/// [`MAX_VERTICES`] / [`MAX_EDGES`] / `m ≤ n·(n−1)/2` before they size
/// anything, and every malformed line maps to a typed [`ReadError`].
///
/// Peak memory is one 8-byte entry per edge: duplicates in
/// lexicographically ordered input (including everything
/// [`write_edge_list`] produces) are caught inline with exact line
/// numbers, and out-of-order input is sorted once at the end, where a
/// surviving duplicate is reported as [`ReadError::DuplicateEdge`] with
/// `line: 0` (position unknown).
pub fn read_edge_list(reader: impl BufRead) -> Result<CsrGraph, ReadError> {
    let mut lines = EdgeLines::new(reader);
    let (_, n, m) = lines.read_header()?;
    // Cap the reserve: the header is untrusted, so it may promise far more
    // edges than the file contains.
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(m.min(PREALLOC_EDGES));
    let mut sorted = true;
    lines.for_each_fields(|lineno, a, b| {
        if a >= n as u64 || b >= n as u64 {
            return Err(parse_error(
                lineno,
                format!("vertex out of range (n = {n})"),
            ));
        }
        if a == b {
            return Err(ReadError::SelfLoop { line: lineno });
        }
        // In range => fits u32 (n ≤ MAX_VERTICES < 2^32).
        let edge = (a.min(b) as u32, a.max(b) as u32);
        if sorted {
            if let Some(&prev) = edges.last() {
                if edge == prev {
                    return Err(ReadError::DuplicateEdge { line: lineno });
                }
                if edge < prev {
                    sorted = false;
                }
            }
        }
        if edges.len() == m {
            return Err(parse_error(
                lineno,
                format!("more than the declared {m} edges"),
            ));
        }
        edges.push(edge);
        Ok(())
    })?;
    if edges.len() != m {
        return Err(parse_error(
            0,
            format!("declared {m} edges but found {}", edges.len()),
        ));
    }
    if !sorted {
        edges.sort_unstable();
        if edges.windows(2).any(|w| w[0] == w[1]) {
            return Err(ReadError::DuplicateEdge { line: 0 });
        }
    }
    Ok(from_sorted_edges(n, edges))
}

/// Write a graph as edge-list text.
pub fn write_edge_list(g: &CsrGraph, mut writer: impl Write) -> std::io::Result<()> {
    writeln!(writer, "{} {}", g.num_vertices(), g.num_edges())?;
    for (_, u, v) in g.edges() {
        writeln!(writer, "{} {}", u.0, v.0)?;
    }
    Ok(())
}

/// Convenience: read from a file path.
pub fn read_edge_list_file(path: &std::path::Path) -> Result<CsrGraph, ReadError> {
    let file = std::fs::File::open(path)?;
    read_edge_list(std::io::BufReader::new(file))
}

/// Convenience: write to a file path. A failed write, the final flush
/// included, is returned.
pub fn write_edge_list_file(g: &CsrGraph, path: &std::path::Path) -> std::io::Result<()> {
    let mut writer = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_edge_list(g, &mut writer)?;
    // Dropping a `BufWriter` writes its last bytes but discards the error.
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::from_edges;

    fn roundtrip(g: &CsrGraph) -> CsrGraph {
        let mut buf = Vec::new();
        write_edge_list(g, &mut buf).unwrap();
        read_edge_list(std::io::Cursor::new(buf)).unwrap()
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let g = from_edges(5, [(0, 1), (1, 2), (3, 4), (0, 4)]);
        let h = roundtrip(&g);
        assert_eq!(h.num_vertices(), 5);
        assert_eq!(h.num_edges(), 4);
        for (_, u, v) in g.edges() {
            assert!(h.has_edge(u, v));
        }
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# a graph\n\n3 2   # header\n0 1\n# middle\n1 2\n";
        let g = read_edge_list(std::io::Cursor::new(text)).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn rejects_bad_inputs() {
        let cases = [
            ("", "empty"),
            ("3 1\n0 0\n", "self-loop"),
            ("3 2\n0 1\n0 1\n", "duplicate"),
            ("3 1\n0 5\n", "out of range"),
            ("3 2\n0 1\n", "declared 2"),
            ("3 1\n0 1\n1 2\n", "more than"),
            ("3 1\n0 1 9\n", "trailing"),
            ("3 x\n", "bad integer"),
        ];
        for (text, needle) in cases {
            let err = read_edge_list(std::io::Cursor::new(text)).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains(needle),
                "input {text:?}: expected {needle:?} in {msg:?}"
            );
        }
    }

    #[test]
    fn rejects_oversized_and_lying_headers() {
        // (header, expect-TooLarge). None of these may allocate from the
        // claimed sizes — TooLarge fires before the builder exists.
        let too_large = [
            format!("{} 1\n", MAX_VERTICES + 1),    // n over the cap
            format!("3 {}\n", MAX_EDGES + 1),       // m over the cap
            "18446744073709551615 1\n".to_string(), // u64::MAX vertices
            "4 7\n".to_string(),                    // m > n(n-1)/2 = 6
            "1 1\n".to_string(),                    // no edges fit n = 1
            "0 1\n".to_string(),                    // ... or n = 0
        ];
        for text in &too_large {
            match read_edge_list(std::io::Cursor::new(text.as_str())) {
                Err(ReadError::TooLarge { line: 1, .. }) => {}
                other => panic!("{text:?}: expected TooLarge, got {other:?}"),
            }
        }
        // Beyond-u64 counts are a parse error, not a silent wrap.
        let err = read_edge_list(std::io::Cursor::new("99999999999999999999999 0\n"));
        assert!(
            matches!(err, Err(ReadError::Parse { line: 1, .. })),
            "{err:?}"
        );
        // Boundary acceptance: the largest legal n parses (with m = 0 the
        // capped preallocation keeps this instant).
        let ok = read_edge_list(std::io::Cursor::new(format!("{MAX_VERTICES} 0\n")));
        assert_eq!(ok.unwrap().num_vertices(), MAX_VERTICES);
    }

    #[test]
    fn lying_header_about_m_fails_without_huge_reserve() {
        // The header promises the maximum legal edge count but the body
        // holds two edges. The capped preallocation means the lie cannot
        // reserve gigabytes; the mismatch is still a clean typed error.
        let text = format!("{MAX_VERTICES} {MAX_EDGES}\n0 1\n0 2\n");
        match read_edge_list(std::io::Cursor::new(text)) {
            Err(ReadError::Parse { line: 0, message }) => {
                assert!(message.contains(&format!("declared {MAX_EDGES} edges but found 2")));
            }
            other => panic!("expected count mismatch, got {other:?}"),
        }
        // The opposite lie — more edges than declared — fails at the
        // first excess line, before it is buffered.
        match read_edge_list(std::io::Cursor::new("5 1\n0 1\n2 3\n")) {
            Err(ReadError::Parse { line: 3, message }) => {
                assert!(message.contains("more than the declared 1"));
            }
            other => panic!("expected excess-edge error, got {other:?}"),
        }
    }

    #[test]
    fn unsorted_input_still_parses_and_rejects_duplicates() {
        // Out-of-order (but valid) input round-trips through the final
        // sort to the same graph as sorted input.
        let g = read_edge_list(std::io::Cursor::new("4 3\n2 3\n0 2\n0 1\n")).unwrap();
        let h = from_edges(4, [(0, 1), (0, 2), (2, 3)]);
        assert_eq!(g, h);
        // A duplicate hidden behind the order break is still rejected;
        // its line is unknown (0) because no side table survives.
        match read_edge_list(std::io::Cursor::new("4 3\n2 3\n0 1\n3 2\n")) {
            Err(ReadError::DuplicateEdge { line: 0 }) => {}
            other => panic!("expected DuplicateEdge at line 0, got {other:?}"),
        }
    }

    #[test]
    fn typed_variants_carry_line_numbers() {
        match read_edge_list(std::io::Cursor::new("3 2\n0 1\n2 2\n")) {
            Err(ReadError::SelfLoop { line: 3 }) => {}
            other => panic!("expected SelfLoop at line 3, got {other:?}"),
        }
        match read_edge_list(std::io::Cursor::new("3 2\n0 1\n1 0\n")) {
            Err(ReadError::DuplicateEdge { line: 3 }) => {}
            other => panic!("expected DuplicateEdge at line 3, got {other:?}"),
        }
    }

    #[test]
    fn plain_lines_parse_as_the_general_parser_does() {
        // Every field length up to past the 19-digit cap, odd and even,
        // in both fields, behind each separator and before each tail.
        let digits = |len: usize| -> String {
            (0..len)
                .map(|k| char::from(b"7130924658"[k % 10]))
                .collect()
        };
        for (sep, tail) in [(" ", "\n"), ("\t \t", " \r\n"), ("  ", "\t\n")] {
            for la in 1..=21 {
                for lb in 1..=21 {
                    let line = format!("{}{sep}{}{tail}", digits(la), digits(lb));
                    let window = format!("#{line}");
                    let plain = parse_plain_line(window.as_bytes(), 1);
                    if la <= 19 && lb <= 19 {
                        let (a, b) = parse_line_fields(&line, 1).unwrap().unwrap();
                        assert_eq!(plain, Some((a, b, window.len())), "{line:?}");
                    } else {
                        assert_eq!(plain, None, "{line:?}");
                    }
                    let cut = &window.as_bytes()[..window.len() - 1];
                    assert_eq!(parse_plain_line(cut, 1), None, "{line:?} without newline");
                }
            }
        }
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = from_edges(7, []);
        let h = roundtrip(&g);
        assert_eq!(h.num_vertices(), 7);
        assert_eq!(h.num_edges(), 0);
    }

    #[test]
    fn file_helpers() {
        let g = from_edges(4, [(0, 1), (2, 3)]);
        let dir = std::env::temp_dir().join("sparsimatch-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.el");
        write_edge_list_file(&g, &path).unwrap();
        let h = read_edge_list_file(&path).unwrap();
        assert_eq!(h.num_edges(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_writer_reports_a_failed_final_flush() {
        // A device that is always full, where the system has one. Two
        // edges fit in the write buffer, so the final flush is the only
        // write that reaches it.
        let full = std::path::Path::new("/dev/full");
        if !full.exists() {
            return;
        }
        let g = from_edges(3, [(0, 1), (1, 2)]);
        assert!(write_edge_list_file(&g, full).is_err());
    }
}
