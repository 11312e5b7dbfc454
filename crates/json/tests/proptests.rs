//! Property tests: arbitrary documents survive a serialize/parse roundtrip.

use std::fmt::Write;

use powerplay_json::Json;
use proptest::prelude::*;

/// One character of the string alphabet: ASCII, 2-, 3- and 4-byte
/// scalars, the characters the writer escapes (`\`, `"`, every C0
/// control) and `/`, which it does not.
const STRING_CHAR: &str = "[a-zA-Z0-9 µ≈⁻😀/_\\\\\"\u{0}-\u{1f}-]";

/// Strings of up to `max_len` characters drawn from [`STRING_CHAR`].
fn arb_string(max_len: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(STRING_CHAR, 0..max_len + 1).prop_map(|chars| chars.concat())
}

/// `s` as a JSON string literal with every scalar written as a `\uXXXX`
/// escape, and a surrogate pair for each scalar above U+FFFF.
fn all_escaped(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        let mut units = [0u16; 2];
        for unit in ch.encode_utf16(&mut units) {
            write!(out, "\\u{unit:04X}").unwrap();
        }
    }
    out.push('"');
    out
}

fn arb_json() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        // Finite numbers only: NaN/inf intentionally serialize to null.
        (-1e15f64..1e15).prop_map(Json::Number),
        arb_string(12).prop_map(Json::from),
    ];
    leaf.prop_recursive(4, 64, 8, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Json::Array),
            prop::collection::vec(("[a-z]{1,6}", inner), 0..6).prop_map(Json::Object),
        ]
    })
}

proptest! {
    #[test]
    fn compact_roundtrip(doc in arb_json()) {
        let text = doc.to_string();
        let reparsed = Json::parse(&text).expect("own output reparses");
        prop_assert_eq!(reparsed, doc);
    }

    #[test]
    fn pretty_roundtrip(doc in arb_json()) {
        let text = doc.to_pretty();
        let reparsed = Json::parse(&text).expect("pretty output reparses");
        prop_assert_eq!(reparsed, doc);
    }

    #[test]
    fn every_scalar_escaped_parses_back(s in arb_string(24)) {
        let reparsed = Json::parse(&all_escaped(&s)).expect("escaped string parses");
        prop_assert_eq!(reparsed, Json::from(s));
    }

    #[test]
    fn parser_never_panics(input in "\\PC{0,64}") {
        let _ = Json::parse(&input);
    }

    #[test]
    fn numbers_roundtrip_exactly(n in -1e15f64..1e15) {
        let text = Json::Number(n).to_string();
        let reparsed = Json::parse(&text).unwrap();
        prop_assert_eq!(reparsed.as_f64(), Some(n));
    }
}

#[test]
fn control_byte_after_a_long_clean_run_is_reported_at_its_offset() {
    let clean = "µW ≈ 10⁻⁶ W 😀 ".repeat(10_000);
    let text = format!("{{\"note\": \"{clean}\u{7}tail\"}}");
    let offset = text.find('\u{7}').unwrap();
    let err = Json::parse(&text).unwrap_err();
    assert_eq!(err.offset(), offset, "{err}");
    assert!(err.to_string().contains("control character"), "{err}");
}
