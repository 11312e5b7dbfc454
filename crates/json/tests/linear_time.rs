//! Parsing is linear in the input size. Documents as large as the web
//! server accepts (4 MiB) parse in well under a second, even in a debug
//! build. A parser that rescans the rest of the input once per character
//! needs minutes for either document, so a wall bound tells the two
//! apart with a wide margin.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use powerplay_json::Json;

/// The web server's request body limit.
const SIZE: usize = 4 << 20;

/// Wall bound per parse. A debug build parses the long string in ~40 ms
/// and the many-member document in ~230 ms on a 2-CPU x86-64 VM, so this
/// leaves ≥ 40× headroom.
const BOUND: Duration = Duration::from_secs(10);

/// 1-, 2-, 3- and 4-byte scalars.
const SCALARS: [char; 6] = ['a', 'Z', 'µ', '≈', '⁻', '😀'];

/// Parses `text` on a helper thread and fails if that takes longer than
/// [`BOUND`]. A parse that overruns is left running; the test binary
/// ends it when it exits.
fn parse_within_bound(text: String) -> Json {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(Json::parse(&text));
    });
    match rx.recv_timeout(BOUND) {
        Ok(parsed) => parsed.expect("document parses"),
        Err(_) => panic!("parse did not finish within {BOUND:?}"),
    }
}

#[test]
fn one_long_string_parses_in_linear_time() {
    let mut expected = String::with_capacity(SIZE);
    let mut i = 0;
    while expected.len() < SIZE - 8 {
        expected.push(SCALARS[i % SCALARS.len()]);
        i += 1;
    }
    let text = format!("\"{expected}\"");
    assert!(text.len() <= SIZE);
    assert_eq!(parse_within_bound(text), Json::String(expected));
}

#[test]
fn many_short_members_parse_in_linear_time() {
    let mut members = Vec::new();
    let mut len = 2;
    let mut i = 0;
    while len < SIZE - 64 {
        let key = format!("k{i}");
        // Short values cycling through the scalar widths, with an escape
        // (`"`, `\`, a control byte) every few members.
        let mut value: String = (0..1 + i % 7)
            .map(|j| SCALARS[(i + j) % SCALARS.len()])
            .collect();
        match i % 5 {
            0 => value.push('"'),
            1 => value.push('\\'),
            2 => value.push('\u{1}'),
            _ => {}
        }
        // `"key":"value",` plus the escapes' extra bytes, on average.
        len += key.len() + value.len() + 8;
        members.push((key, Json::String(value)));
        i += 1;
    }
    let doc = Json::Object(members);
    let text = doc.to_string();
    assert!((SIZE / 2..=SIZE).contains(&text.len()), "{}", text.len());
    assert_eq!(parse_within_bound(text), doc);
}
