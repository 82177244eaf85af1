//! Property tests for edge-list I/O: write→read round-trips exactly, and
//! reading arbitrary bytes never panics. Every failure on a readable input
//! is a typed [`ReadError`] about its content, never an I/O error, and
//! whatever the streaming [`FileEdgeSource`] accepts, [`read_edge_list`]
//! accepts with the same edges. The size of the reader's window never
//! changes what a read returns.

use proptest::prelude::*;
use sparsimatch_graph::csr::{from_edges, CsrGraph};
use sparsimatch_graph::edge_stream::{EdgeStreamSource, FileEdgeSource};
use sparsimatch_graph::io::{read_edge_list, write_edge_list, ReadError};
use std::io::{BufReader, Cursor};
use std::mem::Discriminant;

const N: usize = 24;

fn arb_edges() -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0..N, 0..N), 0..90)
}

/// Lines assembled from a small adversarial alphabet: numbers around the
/// limits, negatives, floats, junk tokens, comments, blanks.
fn arb_hostile_text() -> impl Strategy<Value = String> {
    let token = proptest::collection::vec(0u8..14, 1..4).prop_map(|picks| {
        picks
            .iter()
            .map(|p| match p {
                0 => "0".to_string(),
                1 => "1".to_string(),
                2 => "7".to_string(),
                3 => "134217728".to_string(), // MAX_VERTICES + 1
                4 => "268435457".to_string(), // MAX_EDGES + 1
                5 => "18446744073709551615".to_string(), // u64::MAX
                6 => "99999999999999999999999".to_string(), // > u64::MAX
                7 => "-3".to_string(),
                8 => "2.5".to_string(),
                9 => "x".to_string(),
                10 => "# c".to_string(),
                11 => String::new(),
                12 => "3 3".to_string(),
                _ => "0 1".to_string(),
            })
            .collect::<Vec<_>>()
            .join(" ")
    });
    proptest::collection::vec(token, 0..12).prop_map(|lines| lines.join("\n"))
}

/// `text` with up to three arbitrary bytes written over it or inserted
/// into it, at arbitrary positions.
fn with_byte_edits(text: impl Strategy<Value = Vec<u8>>) -> impl Strategy<Value = Vec<u8>> {
    let edit = (any::<usize>(), any::<u8>(), any::<bool>());
    (text, proptest::collection::vec(edit, 0..4)).prop_map(|(mut text, edits)| {
        for (at, byte, insert) in edits {
            let at = at % (text.len() + 1);
            if insert || at == text.len() {
                text.insert(at, byte);
            } else {
                text[at] = byte;
            }
        }
        text
    })
}

/// Arbitrary byte strings; the adversarial alphabet and valid edge lists,
/// each with arbitrary bytes edited in. The last two get past the header
/// often, and edited valid lists are sometimes still accepted.
fn arb_hostile_bytes() -> impl Strategy<Value = Vec<u8>> {
    let valid = arb_edges().prop_map(|edges| {
        let mut text = Vec::new();
        write_edge_list(&from_edges(N, edges), &mut text).expect("write to Vec cannot fail");
        text
    });
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..64),
        with_byte_edits(arb_hostile_text().prop_map(String::into_bytes)),
        with_byte_edits(valid),
    ]
}

/// One `FileEdgeSource` open and scan of `bytes`, through a file.
fn stream_file(bytes: &[u8]) -> Result<(usize, Vec<(u32, u32)>), ReadError> {
    let path = std::env::temp_dir().join(format!("sparsimatch-prop-io-{}.el", std::process::id()));
    std::fs::write(&path, bytes).expect("write the test input");
    let scanned = FileEdgeSource::open(&path).and_then(|mut src| {
        let mut edges = Vec::new();
        src.scan(&mut |u, v| edges.push((u, v)))?;
        Ok((src.num_vertices(), edges))
    });
    std::fs::remove_file(&path).ok();
    scanned
}

/// What a read returns, in comparable form: `n` and the edges, or the
/// error's variant and its `Display`, which carries the line.
type Outcome = Result<(usize, Vec<(u32, u32)>), (Discriminant<ReadError>, String)>;

fn outcome(read: Result<CsrGraph, ReadError>) -> Outcome {
    match read {
        Ok(g) => Ok((
            g.num_vertices(),
            g.edges().map(|(_, u, v)| (u.0, v.0)).collect(),
        )),
        Err(e) => Err((std::mem::discriminant(&e), e.to_string())),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn write_read_round_trip_is_exact(edges in arb_edges()) {
        let g = from_edges(N, edges);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).expect("write to Vec cannot fail");
        let h = read_edge_list(std::io::Cursor::new(buf)).expect("own output must parse");
        prop_assert_eq!(h.num_vertices(), g.num_vertices());
        prop_assert_eq!(h.num_edges(), g.num_edges());
        let ge: Vec<_> = g.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        let he: Vec<_> = h.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        prop_assert_eq!(ge, he);
    }

    #[test]
    fn oversized_headers_are_rejected_without_allocation(
        n in 134_217_729u64..u64::MAX / 4,
        m in 268_435_457u64..u64::MAX / 4,
    ) {
        // Giant counts must fail fast with TooLarge — reaching this error
        // at proptest speed is itself evidence nothing was sized from them.
        let text = format!("{n} {m}\n");
        match read_edge_list(std::io::Cursor::new(text)) {
            Err(ReadError::TooLarge { line: 1, .. }) => {}
            other => prop_assert!(false, "expected TooLarge, got {:?}", other.map(|g| g.num_vertices())),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn hostile_input_never_panics(bytes in arb_hostile_bytes()) {
        // The first assertion is the absence of a panic: every outcome is
        // a normal return. Errors must render (Display is part of the CLI
        // contract), and no input of readable bytes is an I/O error.
        let read = read_edge_list(std::io::Cursor::new(&bytes));
        let streamed = stream_file(&bytes);
        for err in [read.as_ref().err(), streamed.as_ref().err()].into_iter().flatten() {
            prop_assert!(!matches!(err, ReadError::Io(_)), "i/o error on readable bytes: {err}");
            prop_assert!(!err.to_string().is_empty());
        }
        if let Ok(g) = &read {
            prop_assert!(g.num_vertices() <= sparsimatch_graph::io::MAX_VERTICES);
        }
        // The stream's contract is the stricter one (sorted, `u < v`), so
        // anything it accepts the in-memory reader accepts as-is.
        if let Ok((n, edges)) = streamed {
            let g = read.map_err(|e| TestCaseError::fail(format!("stream accepted, read_edge_list: {e}")))?;
            prop_assert_eq!(g.num_vertices(), n);
            let read_edges: Vec<_> = g.edges().map(|(_, u, v)| (u.0, v.0)).collect();
            prop_assert_eq!(read_edges, edges);
        }
    }

    #[test]
    fn read_window_size_does_not_change_hostile_outcomes(bytes in arb_hostile_bytes()) {
        // Every line may land anywhere in a window, so each input crosses
        // the plain-line loop, the general path and the handoff between
        // them at different offsets.
        let expected = outcome(read_edge_list(BufReader::new(Cursor::new(&bytes))));
        for window in [1, 3, 8, 64] {
            let read = outcome(read_edge_list(BufReader::with_capacity(window, Cursor::new(&bytes))));
            prop_assert_eq!(&read, &expected, "{}-byte window", window);
        }
    }
}
