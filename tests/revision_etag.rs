//! Regression test for the revision ETag: a conditional GET of an
//! unchanged stored design must answer `304 Not Modified` without
//! recompiling — and, since the tag comes from the store revision,
//! without serializing or hashing the design at all. The proof is the
//! plan-cache miss counter: it must not move across the conditional
//! requests.
//!
//! This lives alone in its own integration binary because the cache
//! counters are process-global; a single `#[test]` makes the
//! no-growth assertion race-free.

use powerplay::{ucb_library, Sheet};
use powerplay_web::app::PowerPlayApp;
use powerplay_web::http::{Method, Request, Status};

fn prom_value(exposition: &str, series: &str) -> f64 {
    exposition
        .lines()
        .find(|l| l.starts_with(series) && !l.starts_with('#'))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

#[test]
fn conditional_gets_neither_recompile_nor_rehash() {
    let dir = std::env::temp_dir().join(format!("powerplay-revetag-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let app = PowerPlayApp::new(ucb_library(), dir);

    let mut sheet = Sheet::new("d");
    sheet.set_global("vdd", "1.5").unwrap();
    sheet.set_global("f", "2e6").unwrap();
    sheet
        .add_element_row("R", "ucb/register", [("bits", "16")])
        .unwrap();
    app.store().save("a", "d", &sheet, None).unwrap();

    let metrics = |app: &PowerPlayApp| {
        app.handle(&Request::new(Method::Get, "/metrics"))
            .body_text()
    };
    let misses = |exposition: &str| prom_value(exposition, "powerplay_web_plan_cache_misses_total");

    // Playing the design compiles it (at least one miss), and the
    // resource is revision-tagged.
    let played = app.handle(&Request::new(Method::Post, "/api/v1/designs/a/d/play"));
    assert_eq!(played.status(), Status::Ok, "{}", played.body_text());
    let first = app.handle(&Request::new(Method::Get, "/api/v1/designs/a/d"));
    assert_eq!(first.status(), Status::Ok, "{}", first.body_text());
    let tag = first.header("etag").expect("revision ETag").to_owned();
    assert_eq!(tag, "\"1\"");
    let baseline = misses(&metrics(&app));
    assert!(baseline >= 1.0);

    // Conditional GETs revalidate from the store revision: no new
    // misses (no recompile), and in fact no cache traffic at all.
    for _ in 0..3 {
        let mut conditional = Request::new(Method::Get, "/api/v1/designs/a/d");
        conditional.set_header("If-None-Match", &tag);
        let r = app.handle(&conditional);
        assert_eq!(r.status(), Status::NotModified);
        assert!(r.body().is_empty());
        assert_eq!(r.header("etag"), Some(tag.as_str()));
    }
    assert_eq!(
        misses(&metrics(&app)),
        baseline,
        "a 304 must not recompile the design"
    );

    // A new revision invalidates the tag: the stale one refetches.
    app.store().save("a", "d", &sheet, None).unwrap();
    let mut stale = Request::new(Method::Get, "/api/v1/designs/a/d");
    stale.set_header("If-None-Match", &tag);
    let refreshed = app.handle(&stale);
    assert_eq!(refreshed.status(), Status::Ok);
    assert_eq!(refreshed.header("etag"), Some("\"2\""));
}
