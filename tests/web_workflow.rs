//! The full browser workflow over real sockets: identify, browse, fill
//! the element form, compose a design, press Play, author a model, lump
//! a macro — the paper's "whole process … executed through a standard
//! WWW browser … in less than three minutes", here in milliseconds.

use std::sync::Arc;
use std::time::Instant;

use powerplay::ucb_library;
use powerplay_web::app::PowerPlayApp;
use powerplay_web::http::urlencoded::encode_pairs;
use powerplay_web::http::{http_get, http_post, Response, ServerHandle, Status};

fn serve(tag: &str) -> (Arc<PowerPlayApp>, ServerHandle, String) {
    let dir = std::env::temp_dir().join(format!("powerplay-workflow-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let app = PowerPlayApp::new(ucb_library(), dir);
    let handle = app.serve("127.0.0.1:0").unwrap();
    let base = format!("http://{}", handle.addr());
    (app, handle, base)
}

fn post_form(url: &str, fields: &[(&str, &str)]) -> Response {
    http_post(
        url,
        encode_pairs(fields.iter().copied()).as_bytes(),
        "application/x-www-form-urlencoded",
    )
    .unwrap()
}

#[test]
fn three_minute_workflow_end_to_end() {
    let (_app, _handle, base) = serve("e2e");
    let started = Instant::now();

    // 1. Identify (no cookies in 1996; the username rides the URLs).
    let r = post_form(&format!("{base}/login"), &[("user", "lidsky")]);
    assert_eq!(r.status(), Status::Found);

    // 2. Browse the library.
    let lib = http_get(&format!("{base}/library?user=lidsky")).unwrap();
    assert!(lib.body_text().contains("ucb/sram"));

    // 3. The element input form and instant feedback (Figure 4).
    let form = http_get(&format!("{base}/element?name=ucb%2Fmultiplier&user=lidsky")).unwrap();
    assert!(form.body_text().contains("bw_a"));
    let result = post_form(
        &format!("{base}/element/eval"),
        &[
            ("user", "lidsky"),
            ("element", "ucb/multiplier"),
            ("vdd", "1.5"),
            ("f", "2e6"),
            ("p_bw_a", "8"),
            ("p_bw_b", "8"),
        ],
    );
    assert!(result.body_text().contains("72.86 uW"));

    // 4. Compose the Figure 1 design through forms.
    post_form(
        &format!("{base}/design/new"),
        &[("user", "lidsky"), ("name", "lum")],
    );
    for (row, element, extra) in [
        (
            "Read Bank",
            "ucb/sram",
            vec![("p_words", "2048"), ("p_bits", "8"), ("p_f", "f / 16")],
        ),
        (
            "Write Bank",
            "ucb/sram",
            vec![("p_words", "2048"), ("p_bits", "8"), ("p_f", "f / 32")],
        ),
        (
            "Look Up Table",
            "ucb/sram",
            vec![("p_words", "4096"), ("p_bits", "6")],
        ),
        ("Output Register", "ucb/register", vec![("p_bits", "6")]),
    ] {
        let mut fields = vec![
            ("user", "lidsky"),
            ("design", "lum"),
            ("row_name", row),
            ("element", element),
        ];
        fields.extend(extra);
        let r = post_form(&format!("{base}/design/add_row"), &fields);
        assert_eq!(r.status(), Status::Found, "{}", r.body_text());
    }

    // 5. Play: the spreadsheet shows per-row and total power.
    let page = http_get(&format!("{base}/design?user=lidsky&name=lum")).unwrap();
    let body = page.body_text();
    assert!(body.contains("Look Up Table"));
    assert!(body.contains("TOTAL"));
    // The Figure 1 total (~706.8 uW) appears in the rendered table.
    assert!(body.contains("706.8 uW"), "spreadsheet total missing");

    // 6. Vary a parameter dynamically: drop the supply, power quarters.
    post_form(
        &format!("{base}/design/set_global"),
        &[
            ("user", "lidsky"),
            ("design", "lum"),
            ("gname", "vdd"),
            ("gformula", "0.75"),
        ],
    );
    let page = http_get(&format!("{base}/design?user=lidsky&name=lum")).unwrap();
    assert!(
        page.body_text().contains("176.7 uW"),
        "quartered total missing"
    );

    // Whole workflow wall clock: the paper needed < 3 minutes by hand.
    assert!(
        started.elapsed().as_secs() < 30,
        "workflow took {:?}",
        started.elapsed()
    );
}

#[test]
fn authored_model_is_immediately_usable_in_designs() {
    let (_app, _handle, base) = serve("author");
    post_form(&format!("{base}/login"), &[("user", "rabaey")]);
    let r = post_form(
        &format!("{base}/model/new"),
        &[
            ("user", "rabaey"),
            ("name", "fpga_block"),
            ("class", "computation"),
            ("doc", "FPGA macro-model (future-work item in the paper)"),
            ("params", "luts=100, alpha=0.2"),
            ("cap_full", "luts * 120f * alpha"),
            ("area", "luts * 9000e-12"),
        ],
    );
    assert_eq!(r.status(), Status::Found, "{}", r.body_text());

    post_form(
        &format!("{base}/design/new"),
        &[("user", "rabaey"), ("name", "proto")],
    );
    let r = post_form(
        &format!("{base}/design/add_row"),
        &[
            ("user", "rabaey"),
            ("design", "proto"),
            ("row_name", "Prototype FPGA"),
            ("element", "rabaey/fpga_block"),
            ("p_luts", "400"),
        ],
    );
    assert_eq!(r.status(), Status::Found, "{}", r.body_text());
    let page = http_get(&format!("{base}/design?user=rabaey&name=proto")).unwrap();
    assert!(page.body_text().contains("Prototype FPGA"));
    // 400 * 120fF * 0.2 * 1.5^2 * 2e6 = 43.2 uW
    assert!(
        page.body_text().contains("43.20 uW"),
        "{}",
        page.body_text()
    );
}

#[test]
fn lumping_via_the_web_registers_a_reusable_macro() {
    let (app, _handle, base) = serve("lump");
    post_form(
        &format!("{base}/design/new"),
        &[("user", "u"), ("name", "d")],
    );
    post_form(
        &format!("{base}/design/add_row"),
        &[
            ("user", "u"),
            ("design", "d"),
            ("row_name", "M"),
            ("element", "ucb/multiplier"),
        ],
    );
    let r = post_form(
        &format!("{base}/design/lump"),
        &[("user", "u"), ("design", "d"), ("macro_name", "u/d_macro")],
    );
    assert_eq!(r.status(), Status::Found, "{}", r.body_text());
    assert!(app.registry().read().get("u/d_macro").is_some());
    // And it is exposed over the API for remote reuse.
    let api = http_get(&format!("{base}/api/v1/elements/u/d_macro")).unwrap();
    assert_eq!(api.status(), Status::Ok);
}

#[test]
fn designs_persist_across_server_restarts() {
    // Same data directory, new app instance: designs reload from disk —
    // the "user defaults on the server's local file system" behaviour.
    let dir = std::env::temp_dir().join(format!("powerplay-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    {
        let app = PowerPlayApp::new(ucb_library(), dir.clone());
        let handle = app.serve("127.0.0.1:0").unwrap();
        let base = format!("http://{}", handle.addr());
        post_form(
            &format!("{base}/design/new"),
            &[("user", "u"), ("name", "kept")],
        );
        post_form(
            &format!("{base}/design/add_row"),
            &[
                ("user", "u"),
                ("design", "kept"),
                ("row_name", "R"),
                ("element", "ucb/register"),
            ],
        );
        handle.shutdown();
    }

    let app = PowerPlayApp::new(ucb_library(), dir);
    let handle = app.serve("127.0.0.1:0").unwrap();
    let base = format!("http://{}", handle.addr());
    let page = http_get(&format!("{base}/design?user=u&name=kept")).unwrap();
    assert_eq!(page.status(), Status::Ok);
    assert!(page.body_text().contains('R'));
    let menu = http_get(&format!("{base}/menu?user=u")).unwrap();
    assert!(menu.body_text().contains("kept"));
}
