//! Cross-site model access (paper Figures 6–7).
//!
//! "If a library is characterized and put on the web in Massachusetts, it
//! can be used for estimates in California." Silva's original scheme
//! moved models over SMTP between per-machine hubs; the paper replaces it
//! with HTTP requests against scripts at fixed URLs. Here, any
//! [`PowerPlayApp`](crate::app::PowerPlayApp) exposes its registry at
//! `/api/v1/library` and `/api/v1/elements/{name}`, and these helpers
//! fetch and merge remote models into a local registry.

use std::error::Error;
use std::fmt;

use powerplay_json::Json;
use powerplay_library::{DecodeElementError, LibraryElement, Registry};

use crate::http::{http_get, ClientError, Status};

/// Error produced while fetching remote models.
#[derive(Debug)]
pub enum FetchError {
    /// The HTTP transfer failed.
    Transport(ClientError),
    /// The server answered with a non-200 status.
    Status(u16),
    /// The body was not valid JSON.
    Json(powerplay_json::ParseJsonError),
    /// The JSON did not decode as library elements.
    Decode(DecodeElementError),
}

impl fmt::Display for FetchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FetchError::Transport(e) => write!(f, "transfer failed: {e}"),
            FetchError::Status(code) => write!(f, "server answered {code}"),
            FetchError::Json(e) => write!(f, "response is not JSON: {e}"),
            FetchError::Decode(e) => write!(f, "response is not a model library: {e}"),
        }
    }
}

impl Error for FetchError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FetchError::Transport(e) => Some(e),
            FetchError::Json(e) => Some(e),
            FetchError::Decode(e) => Some(e),
            FetchError::Status(_) => None,
        }
    }
}

/// Fetches a site's entire library.
///
/// `base_url` is the remote PowerPlay server root, e.g.
/// `http://infopad.eecs.berkeley.edu`.
///
/// # Errors
///
/// Returns [`FetchError`] on transport, status, or decode failure.
pub fn fetch_library(base_url: &str) -> Result<Registry, FetchError> {
    let response = http_get(&format!(
        "{}/api/v1/library",
        base_url.trim_end_matches('/')
    ))
    .map_err(FetchError::Transport)?;
    if response.status() != Status::Ok {
        return Err(FetchError::Status(response.status().code()));
    }
    let json = Json::parse(&response.body_text()).map_err(FetchError::Json)?;
    Registry::from_json(&json).map_err(FetchError::Decode)
}

/// Fetches one model by name from a remote site — the Figure 7 flow:
/// "request for model" → "model" over HTTP.
///
/// # Errors
///
/// Returns [`FetchError`] on transport, status, or decode failure.
pub fn fetch_element(base_url: &str, name: &str) -> Result<LibraryElement, FetchError> {
    // The server percent-decodes the path before splitting it, so an
    // encoded `/` inside the name still reaches the element route.
    let url = format!(
        "{}/api/v1/elements/{}",
        base_url.trim_end_matches('/'),
        crate::http::urlencoded::encode(name),
    );
    let response = http_get(&url).map_err(FetchError::Transport)?;
    if response.status() != Status::Ok {
        return Err(FetchError::Status(response.status().code()));
    }
    let json = Json::parse(&response.body_text()).map_err(FetchError::Json)?;
    LibraryElement::from_json(&json).map_err(FetchError::Decode)
}

/// Fetches a remote site's library and merges it into `local`, returning
/// how many elements arrived. Remote elements replace same-named local
/// ones (the remote site is authoritative for its namespace).
///
/// # Errors
///
/// Returns [`FetchError`] on any fetch failure; `local` is unchanged then.
pub fn merge_remote_library(local: &mut Registry, base_url: &str) -> Result<usize, FetchError> {
    let remote = fetch_library(base_url)?;
    let count = remote.len();
    local.merge(remote);
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::PowerPlayApp;
    use powerplay_expr::Scope;
    use powerplay_library::builtin::ucb_library;

    fn serve(tag: &str, registry: Registry) -> crate::http::ServerHandle {
        let dir =
            std::env::temp_dir().join(format!("powerplay-remote-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let app = PowerPlayApp::new(registry, dir);
        app.serve("127.0.0.1:0").unwrap()
    }

    #[test]
    fn fetch_whole_library_across_http() {
        // "Berkeley" serves its library; a "remote user" fetches it.
        let berkeley = serve("lib", ucb_library());
        let base = format!("http://{}", berkeley.addr());
        let fetched = fetch_library(&base).unwrap();
        assert_eq!(fetched.len(), ucb_library().len());
        assert!(fetched.get("ucb/multiplier").is_some());
    }

    #[test]
    fn fetched_models_evaluate_identically() {
        let berkeley = serve("eval", ucb_library());
        let base = format!("http://{}", berkeley.addr());
        let remote_mult = fetch_element(&base, "ucb/multiplier").unwrap();
        let local_mult = ucb_library().get("ucb/multiplier").unwrap().clone();
        let mut scope = Scope::new();
        scope.set("vdd", 1.5);
        scope.set("f", 2e6);
        assert_eq!(
            remote_mult.evaluate_defaults(&scope).unwrap().power,
            local_mult.evaluate_defaults(&scope).unwrap().power,
        );
    }

    #[test]
    fn merge_combines_two_sites() {
        // Figure 6: a user reaches both Berkeley and Motorola libraries.
        let berkeley = serve("b", ucb_library());
        let motorola_registry: Registry = {
            use powerplay_library::{ElementClass, ElementModel, ParamDecl};
            let elem = LibraryElement::new(
                "motorola/dsp56k",
                ElementClass::Processor,
                "data-book DSP model",
                vec![
                    ParamDecl::new("p_avg", 0.12, "average power"),
                    ParamDecl::new("duty", 1.0, "duty cycle"),
                ],
                ElementModel {
                    power_direct: Some(powerplay_expr::Expr::parse("p_avg * duty").unwrap()),
                    ..ElementModel::default()
                },
            );
            [elem].into_iter().collect()
        };
        let motorola = serve("m", motorola_registry);

        let mut local = Registry::new();
        let n1 = merge_remote_library(&mut local, &format!("http://{}", berkeley.addr())).unwrap();
        let n2 = merge_remote_library(&mut local, &format!("http://{}", motorola.addr())).unwrap();
        assert!(n1 > 20);
        assert_eq!(n2, 1);
        assert!(local.get("ucb/sram").is_some());
        assert!(local.get("motorola/dsp56k").is_some());
        let spaces = local.namespaces();
        assert!(spaces.contains(&"ucb".to_owned()));
        assert!(spaces.contains(&"motorola".to_owned()));
    }

    #[test]
    fn missing_element_is_a_status_error() {
        let server = serve("missing", ucb_library());
        let base = format!("http://{}", server.addr());
        let err = fetch_element(&base, "nowhere/nothing").unwrap_err();
        assert!(matches!(err, FetchError::Status(404)));
    }

    #[test]
    fn unreachable_site_is_a_transport_error() {
        let err = fetch_library("http://127.0.0.1:1").unwrap_err();
        assert!(matches!(err, FetchError::Transport(_)));
        assert!(err.to_string().contains("transfer failed"));
    }
}
