//! A hostile request body can neither pin a worker nor crash the
//! server. The largest body the server accepts, sent as one JSON string,
//! is rejected with the v1 `invalid_body` envelope within a fraction of
//! a second while a second connection is served. A small design whose
//! formula nests thousands of levels deep is rejected the same way, and
//! the server keeps answering after it.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use powerplay::ucb_library;
use powerplay_web::app::PowerPlayApp;
use powerplay_web::http::{http_get, http_put, Status};

/// The server's request body limit.
const MAX_BODY: usize = 4 * 1024 * 1024;

/// Wall bound for the rejection. A debug build answers in well under a
/// second; a parser quadratic in the body length needs minutes.
const BOUND: Duration = Duration::from_secs(5);

#[test]
fn body_just_under_the_limit_is_rejected_promptly_while_others_are_served() {
    let dir = std::env::temp_dir().join(format!("powerplay-hostile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let app = PowerPlayApp::new(ucb_library(), dir);
    let server = app.serve("127.0.0.1:0").unwrap();
    let base = format!("http://{}", server.addr());

    // One JSON string, 16 bytes short of the limit: valid JSON, but not a
    // design document.
    let body = format!("\"{}\"", "x".repeat(MAX_BODY - 18));
    assert_eq!(body.len(), MAX_BODY - 16);

    let started = Instant::now();
    let mut hostile = TcpStream::connect(server.addr()).unwrap();
    hostile.set_read_timeout(Some(BOUND)).unwrap();
    let head = format!(
        "PUT /api/v1/designs/mallory/big HTTP/1.1\r\nHost: {}\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n",
        server.addr(),
        body.len()
    );
    hostile.write_all(head.as_bytes()).unwrap();
    hostile.write_all(body.as_bytes()).unwrap();

    // A second connection is answered while the body is with a worker.
    let element = http_get(&format!("{base}/api/v1/elements/ucb/register")).unwrap();
    assert_eq!(element.status(), Status::Ok, "{}", element.body_text());

    let mut response = String::new();
    hostile
        .read_to_string(&mut response)
        .expect("hostile PUT answered within the bound");
    let took = started.elapsed();
    assert!(took < BOUND, "hostile PUT took {took:?}");
    assert!(
        response.starts_with("HTTP/1.1 400"),
        "{:?}",
        response.lines().next()
    );
    assert!(response.contains("\"invalid_body\""), "{response}");
}

#[test]
fn deeply_nested_formula_is_a_400_and_the_server_keeps_serving() {
    let dir = std::env::temp_dir().join(format!("powerplay-deep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let app = PowerPlayApp::new(ucb_library(), dir);
    let server = app.serve("127.0.0.1:0").unwrap();
    let base = format!("http://{}", server.addr());

    // About 10 KB: one global of 5,000 nested parentheses.
    let formula = format!("{}1{}", "(".repeat(5_000), ")".repeat(5_000));
    let body = format!(
        r#"{{"name":"deep","globals":[{{"name":"vdd","formula":"{formula}"}}],"rows":[]}}"#
    );
    assert!(body.len() > 10_000 && body.len() < 11_000);
    let response = http_put(
        &format!("{base}/api/v1/designs/mallory/deep"),
        body.as_bytes(),
        "application/json",
        None,
    )
    .unwrap();
    assert_eq!(
        response.status(),
        Status::BadRequest,
        "{}",
        response.body_text()
    );
    assert!(
        response.body_text().contains("\"invalid_body\""),
        "{}",
        response.body_text()
    );

    // A second connection, opened after the hostile PUT, is answered.
    let element = http_get(&format!("{base}/api/v1/elements/ucb/register")).unwrap();
    assert_eq!(element.status(), Status::Ok, "{}", element.body_text());
}
