//! Typed CLI errors with stable process exit codes.
//!
//! Every failure class maps to a distinct non-zero exit code so scripts
//! can branch on `$?` without parsing stderr:
//!
//! | code | class                                                  |
//! |------|--------------------------------------------------------|
//! | 1    | other / internal                                       |
//! | 2    | usage (bad subcommand, unknown flag, missing value)    |
//! | 3    | I/O (missing file, unreadable path, write failure)     |
//! | 4    | malformed input (bad edge list, self-loop, duplicate)  |
//! | 5    | input too large (header exceeds the hard caps)         |
//! | 6    | thread count out of range                              |
//! | 7    | invalid parameter value (bad probability, rate, ...)   |
//! | 8    | check replay failed (violation gone or bytes drifted)  |
//! | 9    | serve daemon runtime failure (bind/accept error)       |
//!
//! The codes are part of the CLI contract and pinned by
//! `tests/bin_smoke.rs`; change them only with a changelog entry.

use sparsimatch_core::params::ParamsError;
use sparsimatch_core::sparsifier::ThreadCountError;
use sparsimatch_graph::io::ReadError;

/// A CLI failure, classified for exit-code mapping. The payload is the
/// single-line message printed to stderr.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// Command line could not be understood (exit 2).
    Usage(String),
    /// Filesystem / stream failure (exit 3).
    Io(String),
    /// Input file parsed but violates the format contract (exit 4).
    MalformedInput(String),
    /// Input declares sizes beyond the hard caps (exit 5).
    InputTooLarge(String),
    /// Worker thread count outside the accepted range (exit 6).
    Threads(String),
    /// A flag value is syntactically fine but semantically invalid,
    /// e.g. a probability outside `[0, 1]` (exit 7).
    InvalidParam(String),
    /// A counterexample replay did not reproduce: the recorded violation
    /// no longer fires, or the re-rendered reproducer is not
    /// byte-identical to the input file (exit 8).
    CheckFailed(String),
    /// The serve daemon could not start or keep running, e.g. the
    /// socket path cannot be bound (exit 9).
    Serve(String),
    /// Anything else (exit 1).
    Other(String),
}

impl CliError {
    /// The stable process exit code for this error class.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Other(_) => 1,
            CliError::Usage(_) => 2,
            CliError::Io(_) => 3,
            CliError::MalformedInput(_) => 4,
            CliError::InputTooLarge(_) => 5,
            CliError::Threads(_) => 6,
            CliError::InvalidParam(_) => 7,
            CliError::CheckFailed(_) => 8,
            CliError::Serve(_) => 9,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m)
            | CliError::Io(m)
            | CliError::MalformedInput(m)
            | CliError::InputTooLarge(m)
            | CliError::Threads(m)
            | CliError::InvalidParam(m)
            | CliError::CheckFailed(m)
            | CliError::Serve(m)
            | CliError::Other(m) => m,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Stderr contract: exactly one line per failure. Collapse any
        // embedded newlines a wrapped message might carry.
        for (i, part) in self.message().lines().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{part}")?;
        }
        Ok(())
    }
}

impl std::error::Error for CliError {}

impl From<ReadError> for CliError {
    fn from(e: ReadError) -> Self {
        match &e {
            ReadError::Io(_) => CliError::Io(e.to_string()),
            ReadError::TooLarge { .. } => CliError::InputTooLarge(e.to_string()),
            ReadError::SelfLoop { .. }
            | ReadError::DuplicateEdge { .. }
            | ReadError::Parse { .. }
            | ReadError::TruncatedBetweenPasses { .. } => CliError::MalformedInput(e.to_string()),
        }
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e.to_string())
    }
}

impl From<ParamsError> for CliError {
    fn from(e: ParamsError) -> Self {
        CliError::InvalidParam(e.to_string())
    }
}

impl From<ThreadCountError> for CliError {
    fn from(e: ThreadCountError) -> Self {
        CliError::Threads(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_and_stable() {
        let all = [
            CliError::Other("x".into()),
            CliError::Usage("x".into()),
            CliError::Io("x".into()),
            CliError::MalformedInput("x".into()),
            CliError::InputTooLarge("x".into()),
            CliError::Threads("x".into()),
            CliError::InvalidParam("x".into()),
            CliError::CheckFailed("x".into()),
            CliError::Serve("x".into()),
        ];
        let codes: Vec<i32> = all.iter().map(|e| e.exit_code()).collect();
        assert_eq!(codes, vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn read_errors_classify_by_variant() {
        let too_large = ReadError::TooLarge {
            line: 1,
            message: "n".into(),
        };
        assert_eq!(CliError::from(too_large).exit_code(), 5);
        assert_eq!(
            CliError::from(ReadError::SelfLoop { line: 2 }).exit_code(),
            4
        );
        assert_eq!(
            CliError::from(ReadError::DuplicateEdge { line: 2 }).exit_code(),
            4
        );
        let io = ReadError::Io(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert_eq!(CliError::from(io).exit_code(), 3);
    }

    #[test]
    fn display_is_single_line() {
        let e = CliError::Other("first\nsecond".into());
        let rendered = e.to_string();
        assert!(!rendered.contains('\n'), "{rendered:?}");
        assert_eq!(rendered, "first; second");
    }
}
