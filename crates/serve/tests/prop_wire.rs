//! Property tests for the serve line parser: [`parse_request`] never
//! panics, whatever line it is handed, and every error it returns is a
//! typed `(Option<u64>, WireError)` that [`error_response`] encodes to one
//! newline-free line which [`Json::parse`] reads back field for field.

use proptest::prelude::*;
use sparsimatch_obs::Json;
use sparsimatch_serve::protocol::{error_response, parse_request};

/// One valid request line per command shape, including every optional
/// field, so edits land inside each part of the schema.
const VALID: &[&str] = &[
    r#"{"id":1,"cmd":"load_graph","n":4,"edges":[[0,1],[1,2],[2,3]]}"#,
    r#"{"id":2,"cmd":"load_graph","n":60,"family":"clique-union:2:10","seed":3}"#,
    r#"{"id":3,"cmd":"solve","beta":2,"eps":0.5,"seed":7,"pairs":true}"#,
    r#"{"id":4,"cmd":"solve","backend":"edcs","eps":0.3,"edcs_beta":8,"lambda":0.25}"#,
    r#"{"id":5,"cmd":"update","ops":[["insert",0,1],["delete",1,2]],"beta":1,"eps":0.5,"seed":1}"#,
    r#"{"id":6,"cmd":"query","what":"pairs"}"#,
    r#"{"id":7,"cmd":"metrics"}"#,
    r#"{"id":8,"cmd":"shutdown","scope":"daemon"}"#,
];

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

/// Arbitrary byte strings, and valid request lines with arbitrary bytes
/// edited in; the edited lines mostly get past the JSON layer and reach
/// the schema checks.
fn arb_line_bytes() -> impl Strategy<Value = Vec<u8>> {
    let valid = (0..VALID.len()).prop_map(|i| VALID[i].as_bytes().to_vec());
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..96),
        with_byte_edits(valid),
    ]
}

#[test]
fn valid_lines_parse() {
    for (i, line) in VALID.iter().enumerate() {
        let env = parse_request(line).unwrap_or_else(|(_, e)| panic!("VALID[{i}]: {e:?}"));
        assert_eq!(env.id, i as u64 + 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn hostile_lines_get_typed_errors_that_encode(bytes in arb_line_bytes()) {
        let line = String::from_utf8_lossy(&bytes);
        if let Err((id, err)) = parse_request(&line) {
            let response = error_response(id, err.code, &err.message);
            prop_assert!(!response.contains('\n'), "multi-line response {:?}", response);
            let doc = Json::parse(&response);
            prop_assert!(doc.is_ok(), "unparseable response {:?}", response);
            let doc = doc.unwrap();
            prop_assert_eq!(doc.get("id").and_then(Json::as_u64), id);
            prop_assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
            let error = doc.get("error");
            let code = error.and_then(|e| e.get("code")).and_then(Json::as_str);
            prop_assert_eq!(code, Some(err.code.as_str()));
            let message = error.and_then(|e| e.get("message")).and_then(Json::as_str);
            prop_assert_eq!(message, Some(err.message.as_str()));
        }
    }
}
