//! Golden outcomes of the edge-list reader. For each input the table
//! records the exact result of [`read_edge_list`] and of a
//! [`FileEdgeSource`] open plus one scan: the edges, or the [`ReadError`]
//! variant with its `Display` (message and line number). A change to what
//! the text format accepts, or to any error it reports, shows up here as
//! a changed row.
//!
//! The read-window tests below place the critical bytes of an input
//! exactly on the boundary of the reader's buffer, both for the file path
//! (std's default 8 KiB `BufReader` window) and for [`read_edge_list`]
//! over windows as small as one byte.

use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::edge_stream::{EdgeStreamSource, FileEdgeSource};
use sparsimatch_graph::io::{read_edge_list, read_edge_list_file, ReadError};
use std::io::{BufReader, Cursor};
use std::path::{Path, PathBuf};

struct Golden {
    name: &'static str,
    input: &'static [u8],
    /// Outcome of `read_edge_list`.
    read: &'static str,
    /// Outcome of `FileEdgeSource::open` and one `scan`.
    stream: &'static str,
}

const GOLDENS: &[Golden] = &[
    Golden {
        name: "tab_separators",
        input: b"3\t2\n0\t1\n1\t2\n",
        read: "ok n=3 [0-1 1-2]",
        stream: "ok n=3 [0-1 1-2]",
    },
    Golden {
        name: "crlf",
        input: b"3 2\r\n0 1\r\n1 2\r\n",
        read: "ok n=3 [0-1 1-2]",
        stream: "ok n=3 [0-1 1-2]",
    },
    Golden {
        name: "leading_and_trailing_blanks",
        input: b"  3 2  \n\t0 1\t\n 1 2 \n",
        read: "ok n=3 [0-1 1-2]",
        stream: "ok n=3 [0-1 1-2]",
    },
    Golden {
        name: "plus_signs",
        input: b"3 2\n+0 1\n1 +2\n",
        read: "ok n=3 [0-1 1-2]",
        stream: "ok n=3 [0-1 1-2]",
    },
    Golden {
        name: "trailing_comments",
        input: b"3 2 # header\n0 1 # first\n1 2#second\n",
        read: "ok n=3 [0-1 1-2]",
        stream: "ok n=3 [0-1 1-2]",
    },
    Golden {
        name: "comments_and_blanks_before_header",
        input: b"# a graph\n\n   \n#\n3 2\n0 1\n1 2\n",
        read: "ok n=3 [0-1 1-2]",
        stream: "ok n=3 [0-1 1-2]",
    },
    Golden {
        name: "nineteen_digit_fields",
        input: b"0000000000000000003 0000000000000000002\n0000000000000000000 0000000000000000001\n1 2\n",
        read: "ok n=3 [0-1 1-2]",
        stream: "ok n=3 [0-1 1-2]",
    },
    Golden {
        name: "twenty_digit_fields",
        input: b"00000000000000000003 00000000000000000002\n0 00000000000000000001\n1 2\n",
        read: "ok n=3 [0-1 1-2]",
        stream: "ok n=3 [0-1 1-2]",
    },
    Golden {
        name: "nineteen_digit_header",
        input: b"9999999999999999999 1\n0 1\n",
        read: "TooLarge: line 1: input too large: 9999999999999999999 vertices (max 134217728)",
        stream: "open TooLarge: line 1: input too large: 9999999999999999999 vertices (max 134217728)",
    },
    Golden {
        name: "u64_max_header",
        input: b"18446744073709551615 1\n0 1\n",
        read: "TooLarge: line 1: input too large: 18446744073709551615 vertices (max 134217728)",
        stream: "open TooLarge: line 1: input too large: 18446744073709551615 vertices (max 134217728)",
    },
    Golden {
        name: "u64_max_vertex",
        input: b"3 1\n0 18446744073709551615\n",
        read: "Parse: line 2: vertex out of range (n = 3)",
        stream: "scan Parse: line 2: vertex out of range (n = 3)",
    },
    Golden {
        name: "beyond_u64_max",
        input: b"3 1\n0 18446744073709551616\n",
        read: "Parse: line 2: bad integer: number too large to fit in target type",
        stream: "scan Parse: line 2: bad integer: number too large to fit in target type",
    },
    Golden {
        name: "no_break_space_separator",
        input: "3 2\n0\u{a0}1\n1\u{a0}2\n".as_bytes(),
        read: "ok n=3 [0-1 1-2]",
        stream: "ok n=3 [0-1 1-2]",
    },
    Golden {
        name: "ideographic_space_separator",
        input: "3 2\n0\u{3000}1\n1 2\n".as_bytes(),
        read: "ok n=3 [0-1 1-2]",
        stream: "ok n=3 [0-1 1-2]",
    },
    Golden {
        name: "lone_cr_separator",
        input: b"3 2\n0\r1\n1 2\n",
        read: "ok n=3 [0-1 1-2]",
        stream: "ok n=3 [0-1 1-2]",
    },
    Golden {
        name: "form_feed_separator",
        input: b"3 2\n0\x0c1\n1 2\n",
        read: "ok n=3 [0-1 1-2]",
        stream: "ok n=3 [0-1 1-2]",
    },
    Golden {
        name: "nul_separator",
        input: b"3 2\n0\x001\n1 2\n",
        read: "Parse: line 2: bad integer: invalid digit found in string",
        stream: "scan Parse: line 2: bad integer: invalid digit found in string",
    },
    Golden {
        name: "cr_line_endings",
        input: b"3 1\r0 1\r",
        read: "Parse: line 1: trailing fields",
        stream: "open Parse: line 1: trailing fields",
    },
    Golden {
        name: "crlf_blank_lines",
        input: b"3 1\r\n\r\n0 1\r\n",
        read: "ok n=3 [0-1]",
        stream: "ok n=3 [0-1]",
    },
    Golden {
        name: "three_fields",
        input: b"3 1\n0 1 2\n",
        read: "Parse: line 2: trailing fields",
        stream: "scan Parse: line 2: trailing fields",
    },
    Golden {
        name: "one_field",
        input: b"3 1\n0\n",
        read: "Parse: line 2: missing second field",
        stream: "scan Parse: line 2: missing second field",
    },
    Golden {
        name: "one_field_header",
        input: b"3\n",
        read: "Parse: line 1: missing second field",
        stream: "open Parse: line 1: missing second field",
    },
    Golden {
        name: "no_final_newline",
        input: b"3 2\n0 1\n1 2",
        read: "ok n=3 [0-1 1-2]",
        stream: "ok n=3 [0-1 1-2]",
    },
    Golden {
        name: "empty_file",
        input: b"",
        read: "Parse: line 0: empty input (missing header)",
        stream: "open Parse: line 0: empty input (missing header)",
    },
    Golden {
        name: "comments_only",
        input: b"# nothing here\n\n",
        read: "Parse: line 0: empty input (missing header)",
        stream: "open Parse: line 0: empty input (missing header)",
    },
    Golden {
        name: "header_only",
        input: b"3 0\n",
        read: "ok n=3 []",
        stream: "ok n=3 []",
    },
    Golden {
        name: "junk_line",
        input: b"3 2\n0 1\nhello world\n",
        read: "Parse: line 3: bad integer: invalid digit found in string",
        stream: "scan Parse: line 3: bad integer: invalid digit found in string",
    },
    Golden {
        name: "negative",
        input: b"3 1\n-0 1\n",
        read: "Parse: line 2: bad integer: invalid digit found in string",
        stream: "scan Parse: line 2: bad integer: invalid digit found in string",
    },
    Golden {
        name: "float",
        input: b"3 1\n0 1.0\n",
        read: "Parse: line 2: bad integer: invalid digit found in string",
        stream: "scan Parse: line 2: bad integer: invalid digit found in string",
    },
    Golden {
        name: "hex",
        input: b"3 1\n0 0x1\n",
        read: "Parse: line 2: bad integer: invalid digit found in string",
        stream: "scan Parse: line 2: bad integer: invalid digit found in string",
    },
    Golden {
        name: "lone_plus",
        input: b"3 1\n0 +\n",
        read: "Parse: line 2: bad integer: invalid digit found in string",
        stream: "scan Parse: line 2: bad integer: invalid digit found in string",
    },
    Golden {
        name: "self_loop",
        input: b"3 1\n2 2\n",
        read: "SelfLoop: line 2: self-loop",
        stream: "scan SelfLoop: line 2: self-loop",
    },
    Golden {
        name: "duplicate",
        input: b"3 2\n0 1\n1 0\n",
        read: "DuplicateEdge: line 3: duplicate edge",
        stream: "scan Parse: line 3: streaming input requires u < v per edge",
    },
    Golden {
        name: "unsorted",
        input: b"4 3\n2 3\n0 2\n0 1\n",
        read: "ok n=4 [0-1 0-2 2-3]",
        stream: "scan Parse: line 3: streaming input requires lexicographically sorted edges",
    },
    Golden {
        name: "unsorted_duplicate",
        input: b"4 3\n2 3\n0 1\n3 2\n",
        read: "DuplicateEdge: line 0: duplicate edge",
        stream: "scan Parse: line 3: streaming input requires lexicographically sorted edges",
    },
    Golden {
        name: "swapped_endpoints",
        input: b"3 1\n2 1\n",
        read: "ok n=3 [1-2]",
        stream: "scan Parse: line 2: streaming input requires u < v per edge",
    },
    Golden {
        name: "out_of_range",
        input: b"3 1\n0 3\n",
        read: "Parse: line 2: vertex out of range (n = 3)",
        stream: "scan Parse: line 2: vertex out of range (n = 3)",
    },
    Golden {
        name: "duplicate_after_comment",
        input: b"4 3\n0 1\n# c\n1 2\n1 2\n",
        read: "DuplicateEdge: line 5: duplicate edge",
        stream: "scan DuplicateEdge: line 5: duplicate edge",
    },
    Golden {
        name: "self_loop_after_blank_and_crlf",
        input: b"4 3\n0 1\n\n1 2\r\n2 2\n",
        read: "SelfLoop: line 5: self-loop",
        stream: "scan SelfLoop: line 5: self-loop",
    },
    Golden {
        name: "out_of_range_after_plus_sign",
        input: b"4 3\n0 1\n+1 2\n2 4\n",
        read: "Parse: line 4: vertex out of range (n = 4)",
        stream: "scan Parse: line 4: vertex out of range (n = 4)",
    },
    Golden {
        name: "swapped_and_out_of_range",
        input: b"3 1\n5 0\n",
        read: "Parse: line 2: vertex out of range (n = 3)",
        stream: "scan Parse: line 2: vertex out of range (n = 3)",
    },
    Golden {
        name: "self_loop_out_of_range",
        input: b"3 1\n7 7\n",
        read: "Parse: line 2: vertex out of range (n = 3)",
        stream: "scan Parse: line 2: vertex out of range (n = 3)",
    },
    Golden {
        name: "duplicate_past_declared",
        input: b"3 1\n0 1\n0 1\n",
        read: "DuplicateEdge: line 3: duplicate edge",
        stream: "scan DuplicateEdge: line 3: duplicate edge",
    },
    Golden {
        name: "unsorted_past_declared",
        input: b"4 1\n1 2\n0 1\n",
        read: "Parse: line 3: more than the declared 1 edges",
        stream: "scan Parse: line 3: streaming input requires lexicographically sorted edges",
    },
    Golden {
        name: "out_of_range_past_declared",
        input: b"3 1\n0 1\n0 5\n",
        read: "Parse: line 3: vertex out of range (n = 3)",
        stream: "scan Parse: line 3: vertex out of range (n = 3)",
    },
    Golden {
        name: "more_than_declared",
        input: b"3 1\n0 1\n1 2\n",
        read: "Parse: line 3: more than the declared 1 edges",
        stream: "scan Parse: line 3: more than the declared 1 edges",
    },
    Golden {
        name: "fewer_than_declared",
        input: b"3 2\n0 1\n",
        read: "Parse: line 0: declared 2 edges but found 1",
        stream: "scan Parse: line 0: declared 2 edges but found 1",
    },
    Golden {
        name: "lying_header",
        input: b"4 7\n",
        read: "TooLarge: line 1: input too large: 7 edges on 4 vertices (max 6)",
        stream: "open TooLarge: line 1: input too large: 7 edges on 4 vertices (max 6)",
    },
    Golden {
        name: "invalid_utf8",
        input: b"3 2\n0 1\n1 \xff2\n",
        read: "Parse: line 3: invalid UTF-8",
        stream: "scan Parse: line 3: invalid UTF-8",
    },
    Golden {
        name: "invalid_utf8_in_comment",
        input: b"3 2\n0 1 # caf\xe9\n1 2\n",
        read: "Parse: line 2: invalid UTF-8",
        stream: "scan Parse: line 2: invalid UTF-8",
    },
];

fn variant(e: &ReadError) -> &'static str {
    match e {
        ReadError::Io(_) => "Io",
        ReadError::TooLarge { .. } => "TooLarge",
        ReadError::SelfLoop { .. } => "SelfLoop",
        ReadError::DuplicateEdge { .. } => "DuplicateEdge",
        ReadError::Parse { .. } => "Parse",
        ReadError::TruncatedBetweenPasses { .. } => "TruncatedBetweenPasses",
    }
}

fn accepted(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> String {
    let edges: Vec<String> = edges.into_iter().map(|(u, v)| format!("{u}-{v}")).collect();
    format!("ok n={n} [{}]", edges.join(" "))
}

fn read_outcome(read: Result<CsrGraph, ReadError>) -> String {
    match read {
        Ok(g) => accepted(g.num_vertices(), g.edges().map(|(_, u, v)| (u.0, v.0))),
        Err(e) => format!("{}: {e}", variant(&e)),
    }
}

fn stream_outcome(path: &Path) -> String {
    let mut src = match FileEdgeSource::open(path) {
        Ok(src) => src,
        Err(e) => return format!("open {}: {e}", variant(&e)),
    };
    let mut edges = Vec::new();
    match src.scan(&mut |u, v| edges.push((u, v))) {
        Ok(()) => accepted(src.num_vertices(), edges),
        Err(e) => format!("scan {}: {e}", variant(&e)),
    }
}

/// A per-test scratch file, so tests running on parallel threads never
/// share one.
fn temp_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sparsimatch-goldens-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the test directory");
    dir.join(name)
}

fn stream_outcome_of(name: &str, input: &[u8]) -> String {
    let path = temp_file(name);
    std::fs::write(&path, input).expect("write the test input");
    let outcome = stream_outcome(&path);
    std::fs::remove_file(&path).ok();
    outcome
}

#[test]
fn every_golden_row_holds() {
    let mut drift = Vec::new();
    for row in GOLDENS {
        let read = read_outcome(read_edge_list(Cursor::new(row.input)));
        let stream = stream_outcome_of(&format!("golden-{}.el", row.name), row.input);
        if (read.as_str(), stream.as_str()) != (row.read, row.stream) {
            drift.push(format!(
                "{}:\n  read:   {read:?}\n  stream: {stream:?}",
                row.name
            ));
        }
    }
    assert!(drift.is_empty(), "rows that drifted:\n{}", drift.join("\n"));
}

#[test]
fn read_window_size_does_not_change_outcomes() {
    for row in GOLDENS {
        for window in [1, 2, 3, 4, 7, 16] {
            let read = read_outcome(read_edge_list(BufReader::with_capacity(
                window,
                Cursor::new(row.input),
            )));
            assert_eq!(
                read, row.read,
                "{} through a {window}-byte window",
                row.name
            );
        }
    }
}

/// std's default `BufReader` capacity, the window `FileEdgeSource` and
/// `read_edge_list_file` read through.
const FILE_WINDOW: usize = 8 * 1024;

/// Append a comment line so that `buf` ends at byte offset `end`.
fn pad_to(buf: &mut Vec<u8>, end: usize) {
    let fill = end - buf.len() - 2;
    buf.push(b'#');
    buf.extend(std::iter::repeat_n(b'.', fill));
    buf.push(b'\n');
    assert_eq!(buf.len(), end);
}

/// Inputs, all describing the path `0-1-2`, whose critical bytes sit on
/// the boundary of a `window`-byte read window (windows start at
/// multiples of `window`).
fn boundary_inputs(window: usize) -> Vec<(&'static str, Vec<u8>)> {
    let mut cases = Vec::new();

    let mut split = b"3 2\n".to_vec();
    pad_to(&mut split, window - 2);
    split.extend_from_slice(b"0 1\n1 2\n");
    cases.push(("edge line split across the window", split));

    let mut digits = b"3 2\n".to_vec();
    pad_to(&mut digits, window - 10);
    digits.extend_from_slice(b"0 0000000000000000001\n1 2\n");
    cases.push(("field split across the window", digits));

    let mut crlf = b"3 2\r\n".to_vec();
    pad_to(&mut crlf, window - 4);
    crlf.extend_from_slice(b"0 1\r\n1 2\r\n");
    cases.push(("CR and LF on either side of the window", crlf));

    let mut comment = b"3 2\n0 1\n#".to_vec();
    comment.extend(std::iter::repeat_n(b'y', 2 * window));
    comment.extend_from_slice(b"\n1 2\n");
    cases.push(("comment longer than the window", comment));

    let mut last = b"3 2\n0 1\n".to_vec();
    pad_to(&mut last, window - 3);
    last.extend_from_slice(b"1 2");
    assert_eq!(last.len(), window);
    cases.push(("final line without newline ends on the window", last));

    let mut ends = b"3 2\n0 1\n".to_vec();
    pad_to(&mut ends, window - 4);
    ends.extend_from_slice(b"1 2\n");
    assert_eq!(ends.len(), window);
    cases.push(("final newline ends on the window", ends));
    cases
}

const PATH_0_1_2: &str = "ok n=3 [0-1 1-2]";

#[test]
fn lines_crossing_the_file_window_read_like_any_other() {
    for (i, (what, input)) in boundary_inputs(FILE_WINDOW).into_iter().enumerate() {
        let path = temp_file(&format!("window-{i}.el"));
        std::fs::write(&path, &input).expect("write the test input");
        assert_eq!(stream_outcome(&path), PATH_0_1_2, "FileEdgeSource: {what}");
        let read = read_outcome(read_edge_list_file(&path));
        assert_eq!(read, PATH_0_1_2, "read_edge_list_file: {what}");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn lines_crossing_small_windows_read_like_any_other() {
    for window in [16, 64, 4096] {
        for (what, input) in boundary_inputs(window) {
            let read = read_outcome(read_edge_list(BufReader::with_capacity(
                window,
                Cursor::new(input),
            )));
            assert_eq!(read, PATH_0_1_2, "{what}, {window}-byte window");
        }
    }
}
