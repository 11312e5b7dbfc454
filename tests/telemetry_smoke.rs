//! Telemetry smoke test: boot the real socket server, play the paper's
//! InfoPad design through `POST /api/v1/designs/{user}/{name}/play`,
//! then scrape `/metrics` and check the exposition reflects the traffic
//! — the same sequence the CI smoke job runs against the release binary
//! with curl.

use std::collections::BTreeSet;
use std::sync::Arc;

use powerplay::{ucb_library, Sheet};
use powerplay_json::Json;
use powerplay_web::app::PowerPlayApp;
use powerplay_web::http::{http_get, http_post, http_put, ServerHandle, Status};

fn serve(tag: &str) -> (Arc<PowerPlayApp>, ServerHandle, String) {
    let dir = std::env::temp_dir().join(format!("powerplay-smoke-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let app = PowerPlayApp::new(ucb_library(), dir);
    let handle = app.serve("127.0.0.1:0").unwrap();
    let base = format!("http://{}", handle.addr());
    (app, handle, base)
}

/// Parses a Prometheus text exposition into `(series, value)` pairs,
/// where a series is the metric name plus its label set. Histogram
/// `_bucket`/`_sum` lines are folded away; `_count` stands for the
/// histogram series.
fn series_of(exposition: &str) -> Vec<(String, f64)> {
    exposition
        .lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .filter_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            Some((name.to_owned(), value.parse().ok()?))
        })
        .filter(|(name, _)| !name.contains("_bucket") && !name.ends_with("_sum"))
        .collect()
}

fn lookup(series: &[(String, f64)], name: &str) -> f64 {
    series
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("series `{name}` missing: {series:?}"))
}

#[test]
fn metrics_reflect_served_traffic() {
    let (app, server, base) = serve("metrics");

    // Seed the InfoPad worked example for user `demo` and play it over
    // the wire.
    let text = std::fs::read_to_string("examples/designs/infopad.json").unwrap();
    let sheet = Sheet::from_json(&Json::parse(&text).unwrap()).unwrap();
    app.store().save("demo", "infopad", &sheet, None).unwrap();

    let played = http_post(
        &format!("{base}/api/v1/designs/demo/infopad/play"),
        b"",
        "application/json",
    )
    .unwrap();
    assert_eq!(played.status(), Status::Ok, "{}", played.body_text());
    let report = Json::parse(&played.body_text()).unwrap();
    assert!(report["report"]["total_w"].as_f64().unwrap() > 0.0);

    // Scrape.
    let scraped = http_get(&format!("{base}/metrics")).unwrap();
    assert_eq!(scraped.status(), Status::Ok);
    assert_eq!(
        scraped.header("content-type"),
        Some("text/plain; version=0.0.4; charset=utf-8")
    );
    let exposition = scraped.body_text();
    let series = series_of(&exposition);

    // The request counter and the replay histogram saw the play.
    assert!(lookup(&series, "powerplay_http_requests_total{class=\"2xx\"}") >= 1.0);
    assert!(lookup(&series, "powerplay_sheet_replay_seconds_count") >= 1.0);
    assert!(lookup(&series, "powerplay_sheet_rows_evaluated_total") >= 1.0);
    assert!(lookup(&series, "powerplay_server_connections_total") >= 1.0);

    // The durable store instrumented the seed commit: WAL bytes on
    // disk, a commit counted, and a nonzero commit-latency histogram.
    assert!(lookup(&series, "powerplay_store_wal_bytes") > 0.0);
    assert!(lookup(&series, "powerplay_store_commits_total") >= 1.0);
    assert!(lookup(&series, "powerplay_store_commit_seconds_count") >= 1.0);

    // The exposition is substantial: at least 12 distinct series, each
    // with a HELP/TYPE header for its family.
    let names: BTreeSet<&String> = series.iter().map(|(n, _)| n).collect();
    assert!(names.len() >= 12, "only {} series: {names:?}", names.len());
    for family in [
        "powerplay_http_requests_total",
        "powerplay_http_request_seconds",
        "powerplay_http_inflight",
        "powerplay_sheet_compile_seconds",
        "powerplay_sheet_replay_seconds",
        "powerplay_server_queue_depth",
    ] {
        assert!(
            exposition.contains(&format!("# TYPE {family} ")),
            "missing TYPE for {family}"
        );
    }

    server.shutdown();
}

/// The CI smoke sequence for the v1 API, over real sockets: create with
/// PUT, collide on a stale If-Match (409), list revisions, roll back.
#[test]
fn v1_api_round_trip_over_sockets() {
    let (_app, server, base) = serve("v1");
    let text = std::fs::read_to_string("examples/designs/infopad.json").unwrap();
    let url = format!("{base}/api/v1/designs/demo/infopad");

    // Create (201, ETag "1"), then update with the right tag (200).
    let created = http_put(&url, text.as_bytes(), "application/json", None).unwrap();
    assert_eq!(created.status(), Status::Created, "{}", created.body_text());
    assert_eq!(created.header("etag"), Some("\"1\""));
    let updated = http_put(&url, text.as_bytes(), "application/json", Some("\"1\"")).unwrap();
    assert_eq!(updated.status(), Status::Ok, "{}", updated.body_text());

    // A stale tag is a structured 409 conflict.
    let stale = http_put(&url, text.as_bytes(), "application/json", Some("\"1\"")).unwrap();
    assert_eq!(stale.status(), Status::Conflict);
    let envelope = Json::parse(&stale.body_text()).unwrap();
    assert_eq!(envelope["error"]["code"].as_str(), Some("conflict"));
    assert_eq!(
        envelope["error"]["diagnostics"]["actual"].as_f64(),
        Some(2.0)
    );

    // History is visible and rollback mints revision 3.
    let listed = http_get(&format!("{url}/revisions")).unwrap();
    assert_eq!(listed.status(), Status::Ok);
    let parsed = Json::parse(&listed.body_text()).unwrap();
    assert_eq!(parsed["current"].as_f64(), Some(2.0));
    let rolled = http_post(
        &format!("{url}/rollback"),
        b"{\"rev\": 1}",
        "application/json",
    )
    .unwrap();
    assert_eq!(rolled.status(), Status::Ok, "{}", rolled.body_text());
    assert_eq!(rolled.header("etag"), Some("\"3\""));

    server.shutdown();
}

#[test]
fn stats_panel_serves_over_sockets() {
    let (_app, server, base) = serve("stats");
    let r = http_get(&format!("{base}/stats")).unwrap();
    assert_eq!(r.status(), Status::Ok);
    assert!(r.body_text().contains("powerplay_http_request_seconds"));
    server.shutdown();
}
