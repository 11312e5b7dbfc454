//! Integration tests for live design event streams: behaviors that only
//! show up across real sockets on the reactor — concurrent subscribers
//! fed from a third connection, `Last-Event-ID` resume, slow-consumer
//! backpressure, heartbeats, and the shutdown drain.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use powerplay_json::Json;
use powerplay_library::builtin::ucb_library;
use powerplay_sheet::Sheet;
use powerplay_web::app::PowerPlayApp;
use powerplay_web::events::sse_frame;
use powerplay_web::http::{http_post, http_put, ServerConfig, ServerHandle};

fn serve(tag: &str) -> (Arc<PowerPlayApp>, ServerHandle) {
    serve_with(tag, ServerConfig::default())
}

fn serve_with(tag: &str, config: ServerConfig) -> (Arc<PowerPlayApp>, ServerHandle) {
    let dir = std::env::temp_dir().join(format!("powerplay-events-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let app = PowerPlayApp::new(ucb_library(), dir);
    let server = app.serve_with("127.0.0.1:0", config).unwrap();
    (app, server)
}

fn sheet_json(vdd: &str) -> String {
    let mut sheet = Sheet::new("d");
    sheet.set_global("vdd", vdd).unwrap();
    sheet.set_global("f", "2e6").unwrap();
    sheet
        .add_element_row("R", "ucb/register", [("bits", "16")])
        .unwrap();
    sheet.to_json().to_string()
}

fn put_design(addr: std::net::SocketAddr, vdd: &str, if_match: Option<&str>) -> u64 {
    let response = http_put(
        &format!("http://{addr}/api/v1/designs/alice/d"),
        sheet_json(vdd).as_bytes(),
        "application/json",
        if_match,
    )
    .unwrap();
    assert!(
        response.status().code() < 300,
        "PUT failed: {}",
        response.body_text()
    );
    Json::parse(&response.body_text()).unwrap()["rev"]
        .as_f64()
        .unwrap() as u64
}

/// Opens an SSE stream for `alice/d` and consumes the response head.
fn open_stream(addr: std::net::SocketAddr, last_event_id: Option<u64>) -> BufReader<TcpStream> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let resume = last_event_id.map_or(String::new(), |id| format!("Last-Event-ID: {id}\r\n"));
    stream
        .write_all(
            format!(
                "GET /api/v1/designs/alice/d/events HTTP/1.1\r\n\
                 Accept: text/event-stream\r\n{resume}\r\n"
            )
            .as_bytes(),
        )
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("200"), "stream refused: {line}");
    let mut saw_content_type = false;
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        let lower = line.to_ascii_lowercase();
        saw_content_type |= lower.contains("text/event-stream");
        if line == "\r\n" || line == "\n" {
            break;
        }
    }
    assert!(saw_content_type, "missing text/event-stream content type");
    reader
}

/// Reads one SSE event off the stream: `(event, id, data)`. Comments
/// (heartbeats) and `retry:` hints are skipped.
fn read_event(reader: &mut BufReader<TcpStream>) -> (String, Option<u64>, String) {
    let (mut id, mut event, mut data) = (None, String::new(), String::new());
    let mut line = String::new();
    loop {
        line.clear();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "stream closed mid-event"
        );
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            if event.is_empty() {
                continue; // delimiter after a retry hint or comment
            }
            return (event, id, data);
        } else if let Some(value) = trimmed.strip_prefix("id:") {
            id = value.trim().parse().ok();
        } else if let Some(value) = trimmed.strip_prefix("event:") {
            event = value.trim().to_owned();
        } else if let Some(value) = trimmed.strip_prefix("data:") {
            if !data.is_empty() {
                data.push('\n');
            }
            data.push_str(value.trim_start());
        }
    }
}

/// The acceptance path: two concurrent subscribers on the real reactor
/// both see every revision a third connection commits, in revision
/// order, with the delta-replayed report on board.
#[test]
fn two_subscribers_see_revisions_from_a_third_connection() {
    let (_app, server) = serve("fanout");
    let addr = server.addr();
    assert_eq!(put_design(addr, "1.5", None), 1);

    let mut a = open_stream(addr, None);
    let mut b = open_stream(addr, None);
    for reader in [&mut a, &mut b] {
        let (event, id, data) = read_event(reader);
        assert_eq!(event, "snapshot");
        assert_eq!(id, Some(1));
        let parsed = Json::parse(&data).unwrap();
        assert_eq!(parsed["design"]["name"].as_str(), Some("d"));
    }

    // Two commits from a third connection; both streams must deliver
    // them in revision order.
    assert_eq!(put_design(addr, "3.3", Some("\"1\"")), 2);
    assert_eq!(put_design(addr, "2.5", Some("\"2\"")), 3);
    for (who, reader) in [("a", &mut a), ("b", &mut b)] {
        for expected in [2u64, 3] {
            let (event, id, data) = read_event(reader);
            assert_eq!(event, "revision", "{who} rev {expected}");
            assert_eq!(id, Some(expected), "{who} out of order");
            let parsed = Json::parse(&data).unwrap();
            assert_eq!(parsed["rev"].as_f64(), Some(expected as f64));
            assert_eq!(parsed["etag"].as_str().unwrap(), format!("\"{expected}\""));
            assert_eq!(parsed["author"].as_str(), Some("alice"));
            // The delta-replayed report rides along, ready to render.
            assert!(parsed["report"]["total_w"].as_f64().unwrap() > 0.0);
        }
    }

    // A stale If-Match from yet another connection surfaces as a
    // transient conflict event on the live streams.
    let conflict = http_put(
        &format!("http://{addr}/api/v1/designs/alice/d"),
        sheet_json("9.9").as_bytes(),
        "application/json",
        Some("\"1\""),
    )
    .unwrap();
    assert_eq!(conflict.status().code(), 409);
    for reader in [&mut a, &mut b] {
        let (event, id, data) = read_event(reader);
        assert_eq!(event, "conflict");
        assert_eq!(id, None);
        let parsed = Json::parse(&data).unwrap();
        assert_eq!(parsed["expected"].as_f64(), Some(1.0));
        assert_eq!(parsed["actual"].as_f64(), Some(3.0));
    }
    server.shutdown();
}

#[test]
fn last_event_id_resumes_with_exactly_the_missed_revisions() {
    let (_app, server) = serve("resume");
    let addr = server.addr();
    assert_eq!(put_design(addr, "1.5", None), 1);
    assert_eq!(put_design(addr, "1.6", Some("\"1\"")), 2);
    assert_eq!(put_design(addr, "1.7", Some("\"2\"")), 3);
    assert_eq!(put_design(addr, "1.8", Some("\"3\"")), 4);

    // A reconnect that saw revision 2 gets 3 and 4 — no snapshot, no
    // duplicates — then live events continue seamlessly.
    let mut reader = open_stream(addr, Some(2));
    for expected in [3u64, 4] {
        let (event, id, _) = read_event(&mut reader);
        assert_eq!(event, "revision");
        assert_eq!(id, Some(expected));
    }
    assert_eq!(put_design(addr, "1.9", Some("\"4\"")), 5);
    let (event, id, _) = read_event(&mut reader);
    assert_eq!(event, "revision");
    assert_eq!(id, Some(5));
    server.shutdown();
}

/// A subscriber that stops reading hits the reactor's per-stream buffer
/// cap and is dropped — counted in `powerplay_events_dropped_total` —
/// while a healthy subscriber on the same topic keeps receiving.
#[test]
fn slow_consumer_is_dropped_without_stalling_others() {
    let (app, server) = serve("backpressure");
    let addr = server.addr();
    assert_eq!(put_design(addr, "1.5", None), 1);

    // The slow peer subscribes and then never reads another byte; the
    // fast peer drains its stream on a dedicated thread.
    let slow = open_stream(addr, None);
    let mut fast = open_stream(addr, None);
    assert_eq!(read_event(&mut fast).0, "snapshot");
    let drained = std::thread::spawn(move || {
        let mut blobs = 0usize;
        loop {
            let (event, _, _) = read_event(&mut fast);
            match event.as_str() {
                "blob" => blobs += 1,
                "done" => return blobs,
                other => panic!("unexpected event {other}"),
            }
        }
    });

    let dropped = powerplay_telemetry::global().counter(
        "powerplay_events_dropped_total",
        "Event-stream subscribers dropped for exceeding the write-buffer cap",
    );
    let before = dropped.get();
    // 64 KiB frames pile up behind the unread slow socket and blow
    // through the 256 KiB reactor cap; the pacing keeps the healthy
    // reader comfortably ahead so only the slow peer accumulates. The
    // slow peer must not make publish block: the hub hands frames to
    // the reactor and moves on, so this loop finishing is itself part
    // of the assertion. The drop happens on the reactor thread; wait
    // for the subscriber count to settle at one.
    let blob = sse_frame("blob", None, &"x".repeat(64 * 1024));
    let deadline = Instant::now() + Duration::from_secs(20);
    while app.events().subscriber_count() > 1 {
        assert!(Instant::now() < deadline, "slow subscriber never dropped");
        app.events().publish_transient("alice", "d", blob.clone());
        std::thread::sleep(Duration::from_millis(5));
    }
    app.events()
        .publish_transient("alice", "d", sse_frame("done", None, "{}"));

    let blobs = drained.join().unwrap();
    assert!(blobs > 0, "fast subscriber starved");
    assert!(
        dropped.get() > before,
        "dropped_total must count the evicted slow subscriber"
    );
    drop(slow);
    server.shutdown();
}

#[test]
fn shutdown_drains_streams_with_a_final_bye() {
    let (_app, server) = serve("drain");
    let addr = server.addr();
    put_design(addr, "1.5", None);
    let mut reader = open_stream(addr, None);
    assert_eq!(read_event(&mut reader).0, "snapshot");

    let shutter = std::thread::spawn(move || server.shutdown());
    let (event, _, _) = read_event(&mut reader);
    assert_eq!(event, "bye");
    // After the farewell the server closes; the stream reaches EOF.
    let mut line = String::new();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0);
    shutter.join().unwrap();
}

#[test]
fn idle_streams_get_heartbeat_comments() {
    let (_app, server) = serve_with(
        "heartbeat",
        ServerConfig {
            heartbeat_interval: Duration::from_millis(100),
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();
    put_design(addr, "1.5", None);
    let mut reader = open_stream(addr, None);
    assert_eq!(read_event(&mut reader).0, "snapshot");
    // With no traffic, comment lines must arrive on the interval so
    // proxies hold the connection open.
    let mut line = String::new();
    let started = Instant::now();
    loop {
        line.clear();
        assert!(reader.read_line(&mut line).unwrap() > 0, "stream closed");
        if line.starts_with(':') {
            break;
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "no heartbeat within 5s"
        );
    }
    server.shutdown();
}

/// A registry change between two edits reaches the next revision's
/// event. The design names an element that is not registered yet, so
/// its revision reports are `null`; once a model upload registers the
/// element, a PUT that changes only a global must report the fresh
/// play. Reusing the previous revision's compiled rows across the
/// registry change would keep the row unresolved and report `null`.
#[test]
fn registry_change_between_global_only_edits_reaches_the_report() {
    let (_app, server) = serve("registry-change");
    let addr = server.addr();
    let base = format!("http://{addr}/api/v1/designs/alice/d");
    let design = |vdd: &str| {
        let mut sheet = Sheet::new("d");
        sheet.set_global("vdd", vdd).unwrap();
        sheet.set_global("f", "2e6").unwrap();
        sheet
            .add_element_row("R", "ucb/register", [("bits", "16")])
            .unwrap();
        sheet
            .add_element_row("Probe", "custom/probe", [("bits", "8")])
            .unwrap();
        sheet.to_json().to_string()
    };
    let put = |vdd: &str, if_match: &str| {
        let response = http_put(
            &base,
            design(vdd).as_bytes(),
            "application/json",
            Some(if_match),
        )
        .unwrap();
        assert!(response.status().code() < 300, "{}", response.body_text());
    };
    let next_revision = |reader: &mut BufReader<TcpStream>| loop {
        let (event, id, data) = read_event(reader);
        if event == "revision" {
            return (id, Json::parse(&data).unwrap());
        }
    };

    put("1.5", "*");
    let mut stream = open_stream(addr, None);
    assert_eq!(read_event(&mut stream).0, "snapshot");
    put("2.0", "\"1\"");
    let (id, event) = next_revision(&mut stream);
    assert_eq!(id, Some(2));
    assert!(event["report"].is_null(), "unknown element: no report");

    let model = r#"{
        "name": "custom/probe",
        "class": "computation",
        "params": [{"name": "bits", "default": 16, "doc": "width"}],
        "model": {"cap_full": "bits * 0.5e-12"}
    }"#;
    let created = http_post(
        &format!("http://{addr}/api/v1/models"),
        model.as_bytes(),
        "application/json",
    )
    .unwrap();
    assert_eq!(created.status().code(), 201, "{}", created.body_text());

    put("2.5", "\"2\"");
    let (id, event) = next_revision(&mut stream);
    assert_eq!(id, Some(3));
    let played = http_post(&format!("{base}/play"), b"", "application/json").unwrap();
    assert_eq!(played.status().code(), 200, "{}", played.body_text());
    let played = Json::parse(&played.body_text()).unwrap();
    assert!(event["report"]["total_w"].as_f64().is_some_and(|w| w > 0.0));
    assert_eq!(
        event["report"].to_string(),
        played["report"].to_string(),
        "the event reports what a fresh play computes"
    );
}
