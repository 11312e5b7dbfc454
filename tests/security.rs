//! The paper's protection section: "Proprietary designs can be protected
//! in a number of ways. PowerPlay can provide password-restricted access
//! plus WWW programs enable file access to be restricted to specific
//! machines. For full security, a private version of PowerPlay may be
//! run within a company's firewalls."

use powerplay::ucb_library;
use powerplay_web::app::PowerPlayApp;
use powerplay_web::http::{http_get, http_get_basic_auth, ClientError, Response, Server, Status};
use powerplay_web::remote;

fn data_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("powerplay-sec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn password_protected_instance_rejects_anonymous_requests() {
    let app = PowerPlayApp::with_password_protection(
        ucb_library(),
        data_dir("basic"),
        vec![("lidsky".into(), "infopad".into())],
    );
    let server = app.serve("127.0.0.1:0").unwrap();
    let base = format!("http://{}", server.addr());

    // Anonymous: 401 with the browser challenge header.
    let denied = http_get(&format!("{base}/library?user=x")).unwrap();
    assert_eq!(denied.status(), Status::Unauthorized);
    assert!(denied
        .header("www-authenticate")
        .is_some_and(|h| h.contains("Basic")));

    // Wrong password: still 401.
    let wrong = http_get_basic_auth(&format!("{base}/library?user=x"), "lidsky", "guess").unwrap();
    assert_eq!(wrong.status(), Status::Unauthorized);

    // Correct credentials: full access, including the JSON API.
    let ok = http_get_basic_auth(&format!("{base}/library?user=x"), "lidsky", "infopad").unwrap();
    assert_eq!(ok.status(), Status::Ok);
    assert!(ok.body_text().contains("ucb/multiplier"));
    let api = http_get_basic_auth(&format!("{base}/api/v1/library"), "lidsky", "infopad").unwrap();
    assert_eq!(api.status(), Status::Ok);
}

#[test]
fn protected_library_is_not_remotely_fetchable_without_credentials() {
    // The remote-access path honours the protection: an unauthenticated
    // merge fails with the server's status, leaking nothing.
    let app = PowerPlayApp::with_password_protection(
        ucb_library(),
        data_dir("remote"),
        vec![("corp".into(), "s3cret".into())],
    );
    let server = app.serve("127.0.0.1:0").unwrap();
    let err = remote::fetch_library(&format!("http://{}", server.addr())).unwrap_err();
    assert!(matches!(err, remote::FetchError::Status(401)), "{err}");
}

#[test]
fn open_instances_remain_open() {
    // Regression guard: apps without credentials keep the public-site
    // behaviour.
    let app = PowerPlayApp::new(ucb_library(), data_dir("open"));
    let server = app.serve("127.0.0.1:0").unwrap();
    let base = format!("http://{}", server.addr());
    assert_eq!(
        http_get(&format!("{base}/library?user=anyone"))
            .unwrap()
            .status(),
        Status::Ok
    );
}

#[test]
fn machine_filter_drops_unlisted_clients() {
    // A filter that rejects everyone: connections are closed before any
    // HTTP exchange, so the client sees a transport error, not a page.
    let server =
        Server::bind_filtered("127.0.0.1:0", |_peer| false, |_req| Response::html("never"))
            .unwrap()
            .start();
    let err = http_get(&format!("http://{}/x", server.addr())).unwrap_err();
    assert!(
        matches!(err, ClientError::Io(_) | ClientError::BadResponse(_)),
        "{err}"
    );

    // And one that allows loopback works normally.
    let open = Server::bind_filtered(
        "127.0.0.1:0",
        |peer| peer.ip().is_loopback(),
        |_req| Response::html("served"),
    )
    .unwrap()
    .start();
    let ok = http_get(&format!("http://{}/x", open.addr())).unwrap();
    assert_eq!(ok.body_text(), "served");
}

#[test]
fn help_page_is_served() {
    let app = PowerPlayApp::new(ucb_library(), data_dir("help"));
    let server = app.serve("127.0.0.1:0").unwrap();
    let page = http_get(&format!("http://{}/help", server.addr())).unwrap();
    assert_eq!(page.status(), Status::Ok);
    let body = page.body_text();
    assert!(body.contains("Tutorial"));
    assert!(body.contains("P_other_row"));
    assert!(body.contains("Defining models"));
}
