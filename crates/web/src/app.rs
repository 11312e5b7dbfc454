//! The PowerPlay web application: menu, library browser, element forms,
//! the design spreadsheet, model authoring, and the JSON API.
//!
//! All state lives server-side (registry + per-user design files), and
//! the user is identified by a `user` parameter threaded through every
//! URL — faithful to the 1996 CGI implementation, which had no cookies.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::{Mutex, RwLock};
use powerplay_expr::Scope;
use powerplay_json::Json;
use powerplay_library::{ElementClass, ElementModel, LibraryElement, ParamDecl, Registry};
use powerplay_sheet::{CompiledSheet, ReplayState, RowModel, Sheet, SheetReport};
use powerplay_store::StoreChange;
use powerplay_telemetry::{profile, Counter, Gauge, Histogram};
use powerplay_units::format;

use crate::cache::PlanCache;
use crate::events::{sse_frame, EventHub};
use crate::html;
use crate::http::urlencoded::{encode, encode_pairs};
use crate::http::{Method, Request, Response, Server, ServerHandle, Status};
use crate::session::UserStore;

/// Request-level metrics, registered once in the process-global
/// telemetry registry (transport-level metrics live in the server).
struct HttpMetrics {
    requests_2xx: Counter,
    requests_3xx: Counter,
    requests_4xx: Counter,
    requests_5xx: Counter,
    request_seconds: Histogram,
    inflight: Gauge,
}

impl HttpMetrics {
    fn class_of(&self, code: u16) -> &Counter {
        match code {
            200..=299 => &self.requests_2xx,
            300..=399 => &self.requests_3xx,
            400..=499 => &self.requests_4xx,
            _ => &self.requests_5xx,
        }
    }
}

fn http_metrics() -> &'static HttpMetrics {
    static METRICS: OnceLock<HttpMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let g = powerplay_telemetry::global();
        let counter = |class: &str| {
            g.counter_with(
                "powerplay_http_requests_total",
                &[("class", class)],
                "Requests handled, by status class",
            )
        };
        HttpMetrics {
            requests_2xx: counter("2xx"),
            requests_3xx: counter("3xx"),
            requests_4xx: counter("4xx"),
            requests_5xx: counter("5xx"),
            request_seconds: g.histogram(
                "powerplay_http_request_seconds",
                "Wall time routing one request to its response",
            ),
            inflight: g.gauge(
                "powerplay_http_inflight",
                "Requests currently being handled",
            ),
        }
    })
}

/// Compiled plans the app keeps warm; a handful of designs per active
/// user, far beyond what one 1996-scale instance needs.
const PLAN_CACHE_CAPACITY: usize = 32;

/// The reserved store shard holding imported Liberty libraries as
/// revisioned JSON documents. The leading underscore keeps it out of
/// the way of real usernames in the UI; it passes the store's name
/// validator like any other shard, so imports share the WAL, snapshot,
/// and crash-recovery machinery with user designs. Public so the CLI
/// inspector can read the same shard.
pub const LIBRARY_SHARD: &str = "_libraries";

/// What the revision-event path keeps per design between commits.
#[derive(Default)]
struct DesignReplay {
    /// The replay baseline. Every revision gets a plan with a fresh id,
    /// so each event replays in full; the state only saves allocations.
    state: ReplayState,
    /// The last committed sheet and its plan: the next revision's plan
    /// is [`CompiledSheet::recompile`]d from them.
    last: Option<(Arc<Sheet>, Arc<CompiledSheet>)>,
}

/// The application: a shared model registry plus the user store.
pub struct PowerPlayApp {
    pub(crate) registry: RwLock<Registry>,
    pub(crate) store: UserStore,
    /// Compiled plans and derived bodies keyed by design revision
    /// (stored designs) or content hash (unsaved posts) and registry
    /// generation (see [`crate::cache`]).
    pub(crate) plan_cache: PlanCache,
    /// Fan-out hub for `GET .../events` SSE streams, fed by the store's
    /// change hook. `Arc` so stream-open callbacks can subscribe after
    /// the handler returned.
    pub(crate) events: Arc<EventHub>,
    /// Per-design state of the revision-event path, one entry per live
    /// design (removed when the design is deleted).
    replay: Mutex<HashMap<(String, String), DesignReplay>>,
    /// HTTP Basic credentials; `None` = open access (the public Berkeley
    /// instance), `Some` = "password-restricted access" per the paper's
    /// protection section.
    credentials: Option<Vec<(String, String)>>,
}

impl PowerPlayApp {
    /// Creates the application with an initial library and a data
    /// directory for user designs.
    ///
    /// # Panics
    ///
    /// Panics if the data directory cannot be created.
    pub fn new(registry: Registry, data_dir: PathBuf) -> Arc<PowerPlayApp> {
        let store = UserStore::open(data_dir).expect("create data directory");
        let registry = Self::with_imported_libraries(registry, &store);
        Self::finish(PowerPlayApp {
            registry: RwLock::new(registry),
            store,
            plan_cache: PlanCache::new(PLAN_CACHE_CAPACITY),
            events: Arc::new(EventHub::new()),
            replay: Mutex::new(HashMap::new()),
            credentials: None,
        })
    }

    /// Wraps the app in its `Arc` and registers the store change hook
    /// feeding the event hub. The hook holds a `Weak` back-reference
    /// (the app owns the store, the store holds the hook — a strong
    /// reference would leak the cycle).
    fn finish(app: PowerPlayApp) -> Arc<PowerPlayApp> {
        let app = Arc::new(app);
        let weak = Arc::downgrade(&app);
        app.store.set_change_hook(Arc::new(move |change| {
            if let Some(app) = weak.upgrade() {
                app.on_store_change(change);
            }
        }));
        app
    }

    /// Merges every element of every persisted Liberty import back into
    /// the registry — `POST /api/v1/libraries` survives a restart the
    /// same way saved designs do. Elements that fail to decode (a store
    /// written by a newer schema) are skipped rather than fatal.
    fn with_imported_libraries(mut registry: Registry, store: &UserStore) -> Registry {
        let Ok(docs) = store.list_docs(LIBRARY_SHARD) else {
            return registry;
        };
        for doc in docs {
            let Ok(Some((_, body))) = store.load_doc(LIBRARY_SHARD, &doc.name) else {
                continue;
            };
            let Some(items) = body["elements"].as_array() else {
                continue;
            };
            for item in items {
                if let Ok(element) = LibraryElement::from_json(item) {
                    registry.insert(element);
                }
            }
        }
        registry
    }

    /// Like [`Self::new`], but every request must carry HTTP Basic
    /// credentials from the given list — the paper's "password-restricted
    /// access" for proprietary designs. (For full isolation, bind the
    /// server to a loopback/firewalled interface or use
    /// [`crate::http::Server::bind_filtered`].)
    ///
    /// # Panics
    ///
    /// Panics if the data directory cannot be created or the credential
    /// list is empty.
    pub fn with_password_protection(
        registry: Registry,
        data_dir: PathBuf,
        credentials: Vec<(String, String)>,
    ) -> Arc<PowerPlayApp> {
        assert!(!credentials.is_empty(), "need at least one credential");
        let store = UserStore::open(data_dir).expect("create data directory");
        let registry = Self::with_imported_libraries(registry, &store);
        Self::finish(PowerPlayApp {
            registry: RwLock::new(registry),
            store,
            plan_cache: PlanCache::new(PLAN_CACHE_CAPACITY),
            events: Arc::new(EventHub::new()),
            replay: Mutex::new(HashMap::new()),
            credentials: Some(credentials),
        })
    }

    fn authorize(&self, req: &Request) -> Result<(), Response> {
        let Some(credentials) = &self.credentials else {
            return Ok(());
        };
        let presented = req
            .header("authorization")
            .and_then(|h| h.strip_prefix("Basic "))
            .and_then(crate::http::base64::decode)
            .map(|bytes| String::from_utf8_lossy(&bytes).into_owned());
        let ok = presented.as_deref().is_some_and(|cred| {
            cred.split_once(':').is_some_and(|(user, password)| {
                credentials.iter().any(|(u, p)| u == user && p == password)
            })
        });
        if ok {
            Ok(())
        } else {
            let mut response =
                Response::error(Status::Unauthorized, "this PowerPlay instance is private");
            response.set_header("WWW-Authenticate", "Basic realm=\"PowerPlay\"");
            Err(response)
        }
    }

    /// Read access to the registry (tests, remote merge).
    pub fn registry(&self) -> &RwLock<Registry> {
        &self.registry
    }

    /// The design store.
    pub fn store(&self) -> &UserStore {
        &self.store
    }

    /// The SSE fan-out hub (tests, the events endpoint).
    pub fn events(&self) -> &Arc<EventHub> {
        &self.events
    }

    /// The store change hook: turns every committed design mutation
    /// into an SSE event on its `(user, design)` topic. Runs inside the
    /// shard's write lock (ordering guarantee), so it must not call
    /// back into the store — everything here works from the committed
    /// sheet it was handed plus the plan cache and registry.
    fn on_store_change(&self, change: &StoreChange<'_>) {
        match change {
            StoreChange::Saved {
                user,
                design,
                rev,
                sheet,
            } => {
                // Library-shard documents are not designs; their
                // "saves" are Liberty imports with no spreadsheet to
                // report on.
                if user.starts_with('_') {
                    return;
                }
                let committed = Instant::now();
                let report = self.revision_report(user, design, *rev, sheet);
                let data = Json::object([
                    ("user", Json::from(*user)),
                    ("name", Json::from(*design)),
                    ("rev", Json::from(*rev as f64)),
                    ("author", Json::from(*user)),
                    ("etag", Json::from(format!("\"{rev}\""))),
                    ("report", report.unwrap_or(Json::Null)),
                ]);
                let frame = sse_frame("revision", Some(*rev), &data.to_string());
                self.events.publish(user, design, *rev, frame, committed);
            }
            StoreChange::Deleted { user, design, rev } => {
                if user.starts_with('_') {
                    return;
                }
                self.replay
                    .lock()
                    .remove(&((*user).to_owned(), (*design).to_owned()));
                // No new revision is minted, so the event carries no id
                // (and is not retained for replay): late joiners see
                // the design's absence in their snapshot instead.
                let data = Json::object([
                    ("user", Json::from(*user)),
                    ("name", Json::from(*design)),
                    ("rev", Json::from(*rev as f64)),
                ]);
                let frame = sse_frame("deleted", None, &data.to_string());
                self.events.publish_transient(user, design, frame);
            }
        }
    }

    /// The report for a freshly committed revision, as the JSON shape
    /// `/api/v1/.../play` answers with. Shares the plan cache with every
    /// other consumer. On a miss the plan is recompiled from the
    /// design's previous revision, so an edit that changes only global
    /// formulas keeps the compiled rows and program. The hook runs one
    /// design's commits in revision order, so the entry holds the
    /// previous revision (and the pair is consistent whichever revision
    /// it holds). An unevaluable design yields `None` — the event still
    /// announces the revision.
    fn revision_report(
        &self,
        user: &str,
        design: &str,
        rev: u64,
        sheet: &Arc<Sheet>,
    ) -> Option<Json> {
        let id = (user.to_owned(), design.to_owned());
        let key = self.stored_key(user, design, rev);
        // Compile outside the app-wide lock, so commits to other designs
        // do not wait behind this one.
        let last = self.replay.lock().get(&id).and_then(|d| d.last.clone());
        let (plan, _hit) = self.plan_cache.plan_for(key, || {
            let registry = self.registry.read();
            match &last {
                Some((prev, prev_plan)) => prev_plan.recompile(prev, sheet, &registry),
                None => CompiledSheet::compile(sheet, &registry),
            }
        });
        let report = {
            let mut states = self.replay.lock();
            let entry = states.entry(id).or_default();
            entry.last = Some((Arc::clone(sheet), Arc::clone(&plan)));
            plan.replay_delta(&mut entry.state, &[]).ok()?
        };
        let rows: Json = report
            .rows()
            .iter()
            .map(|r| {
                Json::object([
                    ("name", Json::from(r.name())),
                    ("power_w", Json::from(r.power().value())),
                ])
            })
            .collect();
        Some(Json::object([
            ("total_w", Json::from(report.total_power().value())),
            ("rows", rows),
        ]))
    }

    /// Binds an HTTP server for this app and starts it.
    ///
    /// # Errors
    ///
    /// Returns the socket-binding error, if any.
    pub fn serve(self: &Arc<Self>, addr: &str) -> std::io::Result<ServerHandle> {
        self.serve_with(addr, crate::http::ServerConfig::default())
    }

    /// Like [`Self::serve`] but with explicit reactor/pool sizing —
    /// worker count, shed thresholds, deadlines — for deployments and
    /// the load bench.
    ///
    /// # Errors
    ///
    /// Returns the socket-binding error, if any.
    pub fn serve_with(
        self: &Arc<Self>,
        addr: &str,
        config: crate::http::ServerConfig,
    ) -> std::io::Result<ServerHandle> {
        let app = Arc::clone(self);
        Ok(Server::bind(addr, move |req| app.handle(req))?
            .with_config(config)
            .start())
    }

    /// Handles one request: the telemetry middleware (in-flight gauge,
    /// latency histogram, status-class counters, a profile span) around
    /// [`Self::route`]. Pure, so tests can drive the app without sockets.
    pub fn handle(&self, req: &Request) -> Response {
        let metrics = http_metrics();
        metrics.inflight.add(1);
        let _span = profile::span_lazy(|| format!("{} {}", req.method(), req.path()));
        let timer = metrics.request_seconds.start_timer();
        let response = self.route(req);
        timer.stop();
        metrics.class_of(response.status().code()).inc();
        metrics.inflight.sub(1);
        response
    }

    /// Routes one request to its page or API handler.
    fn route(&self, req: &Request) -> Response {
        if let Err(denied) = self.authorize(req) {
            return denied;
        }
        // The versioned API namespace has its own resource router.
        if req.path() == "/api/v1" || req.path().starts_with("/api/v1/") {
            return crate::api_v1::respond(self, req);
        }
        let result = match (req.method(), req.path()) {
            (Method::Get, "/") => Ok(self.login_page()),
            (Method::Get, "/help") => Ok(self.help_page()),
            (Method::Post, "/login") => self.login(req),
            (Method::Get, "/menu") => self.menu(req),
            (Method::Get, "/library") => self.library_page(req),
            (Method::Get, "/element") => self.element_form(req),
            (Method::Post, "/element/eval") => self.element_eval(req),
            (Method::Get, "/doc") => self.doc_page(req),
            (Method::Get, "/model/new") => self.model_form(req),
            (Method::Post, "/model/new") => self.model_create(req),
            (Method::Post, "/design/new") => self.design_new(req),
            (Method::Get, "/design") => self.design_page(req),
            (Method::Post, "/design/play") => self.design_play(req),
            (Method::Post, "/design/set_global") => self.design_set_global(req),
            (Method::Post, "/design/add_row") => self.design_add_row(req),
            (Method::Post, "/design/remove_row") => self.design_remove_row(req),
            (Method::Post, "/design/lump") => self.design_lump(req),
            (Method::Get, "/design/sub") => self.design_sub(req),
            (Method::Get, "/agent") => self.agent_page(req),
            (Method::Get, "/metrics") => Ok(Self::metrics_exposition()),
            (Method::Get, "/stats") => Ok(Self::stats_page()),
            (Method::Get, _) => Err(Response::error(Status::NotFound, "no such page")),
            _ => Err(Response::error(Status::NotFound, "no such action")),
        };
        result.unwrap_or_else(|error| error)
    }

    // --- helpers ---------------------------------------------------------

    fn bad(msg: impl std::fmt::Display) -> Response {
        Response::error(Status::BadRequest, &msg.to_string())
    }

    fn user_of(req: &Request) -> Result<String, Response> {
        req.query_param("user")
            .or_else(|| req.form_param("user"))
            .filter(|u| !u.is_empty())
            .ok_or_else(|| Self::bad("identify yourself first (missing `user`)"))
    }

    /// Loads a stored design as `(revision, sheet)`.
    fn load_design(&self, user: &str, design: &str) -> Result<(u64, Sheet), Response> {
        match self.store.load(user, design) {
            Ok(Some((rev, sheet))) => Ok((rev, (*sheet).clone())),
            Ok(None) => Err(Response::error(
                Status::NotFound,
                &format!("no design `{design}` for user `{user}`"),
            )),
            Err(e) => Err(Self::bad(e)),
        }
    }

    /// The plan-cache key for a stored design: `(user, name, rev)` plus
    /// the registry generation — no per-request JSON serialization or
    /// content hashing (the store guarantees revision immutability).
    pub(crate) fn stored_key(&self, user: &str, design: &str, rev: u64) -> u64 {
        PlanCache::rev_key(user, design, rev, self.registry.read().generation())
    }

    fn design_url(user: &str, design: &str) -> String {
        format!(
            "/design?{}",
            encode_pairs([("user", user), ("name", design)])
        )
    }

    // --- pages ------------------------------------------------------------

    fn login_page(&self) -> Response {
        let body = format!(
            "<p>PowerPlay tracks each individual's designs and preferences; \
             please identify yourself.</p>{}",
            html::form("/login", &html::text_input("user", "", "Username"), "Enter"),
        );
        Response::html(html::page("PowerPlay", &body))
    }

    /// The tutorial/help pages the paper hyperlinks from every screen.
    fn help_page(&self) -> Response {
        let body = "\
<h2>Tutorial: the three-minute estimate</h2>\
<ol>\
<li><b>Identify yourself</b> on the front page; PowerPlay keeps your \
designs and defaults on the server.</li>\
<li><b>Browse the library</b> and open an element. Every model is a set \
of formulas over its parameters and the reserved globals <code>vdd</code> \
(supply, volts) and <code>f</code> (access rate, hertz).</li>\
<li><b>Compute</b>: the input form evaluates instantly; adjust \
parameters and recompute as often as you like.</li>\
<li><b>Add to design</b>: results save as a row of your design \
spreadsheet. Row parameters are formulas — <code>f / 16</code> gives a \
row one-sixteenth of the global rate, and <code>P_other_row</code> / \
<code>A_other_row</code> reference another row's computed power (watts) \
or area (square metres), e.g. a DC-DC converter's load.</li>\
<li><b>PLAY</b> recomputes the whole hierarchy. Sub-sheet rows hyperlink \
to their own spreadsheets.</li>\
<li><b>Re-use</b>: lump any design into a single macro; it appears in \
the library and can be fetched by remote sites via \
<code>/api/v1/library</code>.</li>\
</ol>\
<h2>Defining models</h2>\
<p>Use <i>Define a new model</i>: name, class, parameters \
(<code>name=default</code>), and any of: full-rail capacitance [F], \
reduced-swing capacitance [F] + swing [V], static current [A], direct \
power [W], area [m2], delay [s]. Formulas accept SI-scaled literals \
(<code>253f</code>, <code>2MHz</code>), arithmetic, comparisons and \
functions (<code>min, max, sqrt, log2, ceil, if, ...</code>).</p>\
<h2>Accuracy</h2>\
<p>At this abstraction level expect estimates within an octave of the \
eventual implementation; neglecting signal correlations (the default) \
errs conservatively high.</p>";
        Response::html(html::page("PowerPlay Help", body))
    }

    fn login(&self, req: &Request) -> Result<Response, Response> {
        let user = req
            .form_param("user")
            .filter(|u| !u.is_empty())
            .ok_or_else(|| Self::bad("username required"))?;
        Ok(Response::redirect(&format!(
            "/menu?{}",
            encode_pairs([("user", user.as_str())])
        )))
    }

    fn menu(&self, req: &Request) -> Result<Response, Response> {
        let user = Self::user_of(req)?;
        let designs = self.store.list(&user).map_err(Self::bad)?;
        let design_items: String = designs
            .iter()
            .map(|d| {
                format!(
                    "<li>{} <small>(rev {})</small></li>",
                    html::link(&Self::design_url(&user, &d.name), &d.name),
                    d.rev,
                )
            })
            .collect();
        let body = format!(
            "<h2>Main Menu — {user}</h2>\
             <ul>\
             <li>{lib}</li>\
             <li>{model}</li>\
             <li>{api}</li>\
             <li>{help}</li>\
             </ul>\
             <h3>Your designs</h3><ul>{design_items}</ul>\
             {new_design}",
            user = html::escape(&user),
            lib = html::link(
                &format!("/library?user={}", encode(&user)),
                "Browse model library"
            ),
            model = html::link(
                &format!("/model/new?user={}", encode(&user)),
                "Define a new model"
            ),
            api = html::link("/api/v1/library", "Library as JSON (remote access)"),
            help = html::link("/help", "Tutorial and help pages"),
            new_design = html::form(
                "/design/new",
                &format!(
                    "{}{}",
                    html::hidden_input("user", &user),
                    html::text_input("name", "untitled", "New design name")
                ),
                "Create design",
            ),
        );
        Ok(Response::html(html::page("PowerPlay Main Menu", &body)))
    }

    fn library_page(&self, req: &Request) -> Result<Response, Response> {
        let user = Self::user_of(req)?;
        let registry = self.registry.read();
        let mut body = String::new();
        for class in ElementClass::ALL {
            let elements = registry.by_class(class);
            if elements.is_empty() {
                continue;
            }
            body.push_str(&format!("<h2>{}</h2>", html::escape(&class.to_string())));
            let rows: Vec<Vec<String>> = elements
                .iter()
                .map(|e| {
                    vec![
                        html::link(
                            &format!(
                                "/element?{}",
                                encode_pairs([("name", e.name()), ("user", user.as_str())])
                            ),
                            e.name(),
                        ),
                        html::escape(e.doc()),
                        html::link(&format!("/doc?name={}", encode(e.name())), "doc"),
                    ]
                })
                .collect();
            body.push_str(&html::table(&["Element", "Description", ""], &rows));
        }
        Ok(Response::html(html::page("Model Library", &body)))
    }

    fn element_form(&self, req: &Request) -> Result<Response, Response> {
        let user = Self::user_of(req)?;
        let name = req
            .query_param("name")
            .ok_or_else(|| Self::bad("missing `name`"))?;
        let registry = self.registry.read();
        let element = registry
            .get(&name)
            .ok_or_else(|| Response::error(Status::NotFound, "unknown element"))?;

        let mut inputs = String::new();
        inputs.push_str(&html::hidden_input("user", &user));
        inputs.push_str(&html::hidden_input("element", element.name()));
        inputs.push_str(&html::text_input("vdd", "1.5", "Supply voltage vdd [V]"));
        inputs.push_str(&html::text_input("f", "2e6", "Access rate f [Hz]"));
        for p in element.params() {
            inputs.push_str(&html::text_input(
                &format!("p_{}", p.name),
                &p.default.to_string(),
                &format!("{} — {}", p.name, p.doc),
            ));
        }
        let body = format!(
            "<p>{}</p>{}<p>{}</p>",
            html::escape(element.doc()),
            html::form("/element/eval", &inputs, "Compute"),
            html::link(
                &format!("/doc?name={}", encode(element.name())),
                "documentation"
            ),
        );
        Ok(Response::html(html::page(
            &format!("Element: {}", element.name()),
            &body,
        )))
    }

    /// Builds a scope from the form's `vdd`, `f` and `p_*` fields.
    fn scope_from_form(req: &Request) -> Result<(Scope<'static>, Vec<(String, String)>), Response> {
        let mut scope = Scope::new();
        let mut raw = Vec::new();
        for (key, value) in req.form_pairs() {
            let target = if key == "vdd" || key == "f" {
                key.clone()
            } else if let Some(param) = key.strip_prefix("p_") {
                param.to_owned()
            } else {
                continue;
            };
            let expr = powerplay_expr::Expr::parse(&value)
                .map_err(|e| Self::bad(format!("field `{target}`: {e}")))?;
            let v = expr
                .eval(&scope)
                .map_err(|e| Self::bad(format!("field `{target}`: {e}")))?;
            scope.set(target.clone(), v);
            raw.push((target, value));
        }
        Ok((scope, raw))
    }

    fn element_eval(&self, req: &Request) -> Result<Response, Response> {
        let user = Self::user_of(req)?;
        let name = req
            .form_param("element")
            .ok_or_else(|| Self::bad("missing `element`"))?;
        let registry = self.registry.read();
        let element = registry
            .get(&name)
            .ok_or_else(|| Response::error(Status::NotFound, "unknown element"))?;
        let (scope, raw_params) = Self::scope_from_form(req)?;
        let eval = element.evaluate(&scope).map_err(Self::bad)?;

        let mut rows = vec![vec![
            "Power".to_owned(),
            html::escape(&eval.power.to_string()),
        ]];
        if let Some(e) = eval.energy_per_op {
            rows.push(vec!["Energy/op".into(), html::escape(&e.to_string())]);
        }
        if let Some(a) = eval.area {
            rows.push(vec!["Area".into(), format!("{:.4} mm2", a.value() * 1e6)]);
        }
        if let Some(d) = eval.delay {
            rows.push(vec!["Delay".into(), html::escape(&d.to_string())]);
        }

        // "When satisfied, the user saves the results to a design space
        // spreadsheet."
        let mut add_inputs = String::new();
        add_inputs.push_str(&html::hidden_input("user", &user));
        add_inputs.push_str(&html::hidden_input("element", element.name()));
        for (param, value) in &raw_params {
            if param != "vdd" && param != "f" {
                add_inputs.push_str(&html::hidden_input(&format!("p_{param}"), value));
            }
        }
        add_inputs.push_str(&html::text_input("design", "untitled", "Design"));
        add_inputs.push_str(&html::text_input("row_name", element.name(), "Row name"));

        let body = format!(
            "{}<h2>Save to design spreadsheet</h2>{}<p>{}</p>",
            html::table(&["Quantity", "Value"], &rows),
            html::form("/design/add_row", &add_inputs, "Add to design"),
            html::link(
                &format!(
                    "/element?{}",
                    encode_pairs([("name", element.name()), ("user", user.as_str())])
                ),
                "Adjust parameters",
            ),
        );
        Ok(Response::html(html::page(
            &format!("Results: {}", element.name()),
            &body,
        )))
    }

    fn doc_page(&self, req: &Request) -> Result<Response, Response> {
        let name = req
            .query_param("name")
            .ok_or_else(|| Self::bad("missing `name`"))?;
        let registry = self.registry.read();
        let element = registry
            .get(&name)
            .ok_or_else(|| Response::error(Status::NotFound, "unknown element"))?;
        let param_rows: Vec<Vec<String>> = element
            .params()
            .iter()
            .map(|p| {
                vec![
                    html::escape(&p.name),
                    p.default.to_string(),
                    html::escape(&p.doc),
                ]
            })
            .collect();
        let model = element.model();
        let mut formula_rows = Vec::new();
        let mut push_formula = |label: &str, e: &Option<powerplay_expr::Expr>| {
            if let Some(e) = e {
                formula_rows.push(vec![label.to_owned(), html::escape(&e.to_string())]);
            }
        };
        push_formula("C switched (full rail) [F]", &model.cap_full);
        push_formula("Static current [A]", &model.static_current);
        push_formula("Direct power [W]", &model.power_direct);
        push_formula("Area [m2]", &model.area);
        push_formula("Delay [s]", &model.delay);
        if let Some((cap, swing)) = &model.cap_partial {
            formula_rows.push(vec![
                "C switched (reduced swing) [F]".into(),
                html::escape(&cap.to_string()),
            ]);
            formula_rows.push(vec!["Swing [V]".into(), html::escape(&swing.to_string())]);
        }
        let body = format!(
            "<p>{}</p><h2>Parameters</h2>{}<h2>Model</h2>{}",
            html::escape(element.doc()),
            html::table(&["Name", "Default", "Description"], &param_rows),
            html::table(&["Quantity", "Formula"], &formula_rows),
        );
        Ok(Response::html(html::page(
            &format!("Documentation: {}", element.name()),
            &body,
        )))
    }

    fn model_form(&self, req: &Request) -> Result<Response, Response> {
        let user = Self::user_of(req)?;
        let mut inputs = String::new();
        inputs.push_str(&html::hidden_input("user", &user));
        inputs.push_str(&html::text_input("name", "my_block", "Model name"));
        inputs.push_str(&html::text_input(
            "class",
            "computation",
            "Class (computation/storage/controller/interconnect/processor/analog/converter/system)",
        ));
        inputs.push_str(&html::text_input("doc", "", "Documentation"));
        inputs.push_str(&html::text_input(
            "params",
            "bits=8",
            "Parameters (name=default, comma separated)",
        ));
        inputs.push_str(&html::text_input(
            "cap_full",
            "",
            "C switched, full rail [F]",
        ));
        inputs.push_str(&html::text_input(
            "cap_partial",
            "",
            "C switched, reduced swing [F]",
        ));
        inputs.push_str(&html::text_input("swing", "", "Swing [V]"));
        inputs.push_str(&html::text_input(
            "static_current",
            "",
            "Static current [A]",
        ));
        inputs.push_str(&html::text_input("power_direct", "", "Direct power [W]"));
        inputs.push_str(&html::text_input("area", "", "Area [m2]"));
        inputs.push_str(&html::text_input("delay", "", "Delay [s]"));
        let body = format!(
            "<p>Define a model as formulas over its parameters and the \
             reserved globals <code>vdd</code> and <code>f</code>. \
             PowerPlay will accept <b>any</b> model.</p>{}",
            html::form("/model/new", &inputs, "Create model"),
        );
        Ok(Response::html(html::page("New Model", &body)))
    }

    fn model_create(&self, req: &Request) -> Result<Response, Response> {
        let user = Self::user_of(req)?;
        let name = req
            .form_param("name")
            .filter(|n| !n.is_empty() && !n.contains('/'))
            .ok_or_else(|| Self::bad("model name required (no `/`)"))?;
        let class_id = req.form_param("class").unwrap_or_default();
        let class = ElementClass::from_id(&class_id)
            .ok_or_else(|| Self::bad(format!("unknown class `{class_id}`")))?;
        let doc = req.form_param("doc").unwrap_or_default();

        let mut params = Vec::new();
        if let Some(spec) = req.form_param("params") {
            for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                let (pname, default) = item
                    .split_once('=')
                    .ok_or_else(|| Self::bad(format!("parameter `{item}` needs `name=default`")))?;
                let default: f64 = default
                    .trim()
                    .parse()
                    .map_err(|_| Self::bad(format!("bad default in `{item}`")))?;
                params.push(ParamDecl::new(pname.trim(), default, ""));
            }
        }

        let formula = |field: &str| -> Result<Option<powerplay_expr::Expr>, Response> {
            match req.form_param(field).filter(|s| !s.trim().is_empty()) {
                None => Ok(None),
                Some(src) => powerplay_expr::Expr::parse(&src)
                    .map(Some)
                    .map_err(|e| Self::bad(format!("formula `{field}`: {e}"))),
            }
        };
        let cap_partial = match (formula("cap_partial")?, formula("swing")?) {
            (Some(c), Some(s)) => Some((c, s)),
            (None, None) => None,
            _ => return Err(Self::bad("cap_partial and swing must be given together")),
        };
        let model = ElementModel {
            cap_full: formula("cap_full")?,
            cap_partial,
            static_current: formula("static_current")?,
            power_direct: formula("power_direct")?,
            area: formula("area")?,
            delay: formula("delay")?,
        };

        let full_name = format!("{user}/{name}");
        let element = LibraryElement::new(full_name.clone(), class, doc, params, model);
        // Uploads are gated on the linter: Error-severity diagnostics
        // (undeclared variables, unknown functions, constant negative
        // models) reject the model with the full report in the body.
        let report = powerplay_lint::lint_element(&element);
        if report.has_errors() {
            return Err(Response::json_with_status(
                Status::BadRequest,
                report.to_json().to_string(),
            ));
        }
        self.registry.write().insert(element);
        Ok(Response::redirect(&format!(
            "/element?{}",
            encode_pairs([("name", full_name.as_str()), ("user", user.as_str())])
        )))
    }

    // --- designs -----------------------------------------------------------

    fn design_new(&self, req: &Request) -> Result<Response, Response> {
        let user = Self::user_of(req)?;
        let name = req
            .form_param("name")
            .filter(|n| !n.is_empty())
            .ok_or_else(|| Self::bad("design name required"))?;
        let mut sheet = Sheet::new(name.clone());
        sheet.set_global("vdd", "1.5").expect("literal parses");
        sheet.set_global("f", "2e6").expect("literal parses");
        self.store
            .save(&user, &name, &sheet, None)
            .map_err(Self::bad)?;
        Ok(Response::redirect(&Self::design_url(&user, &name)))
    }

    fn render_design(
        &self,
        user: &str,
        design: &str,
        sheet: &Sheet,
        report: Result<SheetReport, String>,
    ) -> Response {
        let mut body = String::new();

        // Globals, editable.
        body.push_str("<h2>Global parameters</h2>");
        for (gname, expr) in sheet.globals() {
            let inner = format!(
                "{}{}{}{}",
                html::hidden_input("user", user),
                html::hidden_input("design", design),
                html::hidden_input("gname", gname),
                html::text_input("gformula", &expr.to_string(), gname),
            );
            body.push_str(&html::form("/design/set_global", &inner, "Set"));
        }
        let new_global = format!(
            "{}{}{}{}",
            html::hidden_input("user", user),
            html::hidden_input("design", design),
            html::text_input("gname", "", "New parameter"),
            html::text_input("gformula", "", "Formula"),
        );
        body.push_str(&html::form(
            "/design/set_global",
            &new_global,
            "Add parameter",
        ));

        // The spreadsheet.
        match report {
            Ok(report) => {
                body.push_str("<h2>Spreadsheet</h2>");
                let mut rows = Vec::new();
                for (row, row_report) in sheet.rows().iter().zip(report.rows()) {
                    let name_cell = match row.model() {
                        RowModel::SubSheet(_) => html::link(
                            &format!(
                                "/design/sub?{}",
                                encode_pairs([
                                    ("user", user),
                                    ("name", design),
                                    ("path", row.name()),
                                ])
                            ),
                            row.name(),
                        ),
                        RowModel::Element(path) => format!(
                            "{} <small>({})</small>",
                            html::escape(row.name()),
                            html::link(&format!("/doc?name={}", encode(path)), path),
                        ),
                        RowModel::Inline(_) => html::escape(row.name()),
                    };
                    let bindings = row
                        .bindings()
                        .iter()
                        .map(|(p, e)| format!("{p}={e}"))
                        .collect::<Vec<_>>()
                        .join(" ");
                    let remove = html::form(
                        "/design/remove_row",
                        &format!(
                            "{}{}{}",
                            html::hidden_input("user", user),
                            html::hidden_input("design", design),
                            html::hidden_input("row", row.name()),
                        ),
                        "Remove",
                    );
                    let total = report.total_power().value();
                    let share = if total > 0.0 {
                        format::percent(row_report.power().value() / total)
                    } else {
                        "-".into()
                    };
                    rows.push(vec![
                        name_cell,
                        html::escape(&bindings),
                        row_report
                            .energy_per_op()
                            .map(|e| html::escape(&e.to_string()))
                            .unwrap_or_else(|| "-".into()),
                        html::escape(&row_report.power().to_string()),
                        share,
                        row_report
                            .area()
                            .map(|a| format!("{:.3} mm2", a.value() * 1e6))
                            .unwrap_or_else(|| "-".into()),
                        row_report
                            .delay()
                            .map(|d| html::escape(&d.to_string()))
                            .unwrap_or_else(|| "-".into()),
                        remove,
                    ]);
                }
                let total_area = report
                    .total_area()
                    .map(|a| format!("{:.3} mm2", a.value() * 1e6))
                    .unwrap_or_else(|| "-".into());
                rows.push(vec![
                    "<b>TOTAL</b>".into(),
                    String::new(),
                    String::new(),
                    format!("<b>{}</b>", html::escape(&report.total_power().to_string())),
                    "100.0%".into(),
                    total_area,
                    String::new(),
                    String::new(),
                ]);
                body.push_str(&html::table(
                    &[
                        "Name",
                        "Parameters",
                        "Energy/op",
                        "Power",
                        "%",
                        "Area",
                        "Delay",
                        "",
                    ],
                    &rows,
                ));
            }
            Err(message) => {
                body.push_str(&format!(
                    "<h2>Spreadsheet</h2><p><b>Evaluation error:</b> {}</p>",
                    html::escape(&message)
                ));
            }
        }

        // Static diagnostics: the linter's findings for this sheet,
        // rendered whether or not evaluation succeeded.
        let lint = powerplay_lint::lint_sheet(sheet, &self.registry.read());
        if !lint.is_empty() {
            body.push_str("<h2>Diagnostics</h2>");
            body.push_str(&format!("<p>{}</p>", html::escape(&lint.summary())));
            body.push_str(&lint.render_html());
        }

        // Play button (recompute + redisplay, post-redirect-get).
        body.push_str(&html::form(
            "/design/play",
            &format!(
                "{}{}",
                html::hidden_input("user", user),
                html::hidden_input("design", design),
            ),
            "PLAY",
        ));

        // Add-row and lump forms.
        let add = format!(
            "{}{}{}{}",
            html::hidden_input("user", user),
            html::hidden_input("design", design),
            html::text_input("row_name", "", "Row name"),
            html::text_input("element", "ucb/sram", "Element path"),
        );
        body.push_str("<h2>Add a component</h2>");
        body.push_str(&html::form("/design/add_row", &add, "Add row"));
        body.push_str(&format!(
            "<p>{}</p>",
            html::link(
                &format!("/library?user={}", encode(user)),
                "browse the library"
            ),
        ));
        let lump = format!(
            "{}{}{}",
            html::hidden_input("user", user),
            html::hidden_input("design", design),
            html::text_input(
                "macro_name",
                &format!("{user}/{design}_macro"),
                "Macro name"
            ),
        );
        body.push_str("<h2>Re-use</h2>");
        body.push_str(&html::form("/design/lump", &lump, "Lump into macro"));
        body.push_str(&format!(
            "<p>{}</p>",
            html::link(&format!("/menu?user={}", encode(user)), "back to menu"),
        ));

        // Live collaboration: an EventSource on the v1 event stream
        // refreshes the page when any other session commits a revision.
        // Design/user names are store-validated `[a-zA-Z0-9_-]`, so they
        // embed safely; the URL is still percent-encoded for form.
        body.push_str(&format!(
            r#"<p id="live">Live updates: connecting&hellip;</p>
<script>
(function () {{
  if (!window.EventSource) {{ return; }}
  var live = document.getElementById("live");
  var es = new EventSource("/api/v1/designs/{user}/{design}/events");
  var seen = null;
  es.addEventListener("snapshot", function (e) {{
    seen = JSON.parse(e.data).rev;
    live.textContent = "Live: watching revision " + seen;
  }});
  es.addEventListener("revision", function (e) {{
    var d = JSON.parse(e.data);
    if (seen !== null && d.rev !== seen) {{ es.close(); location.reload(); return; }}
    seen = d.rev;
    live.textContent = "Live: revision " + d.rev;
  }});
  es.addEventListener("conflict", function () {{
    live.textContent = "Live: a concurrent edit was refused (revision conflict)";
  }});
  es.addEventListener("deleted", function () {{
    es.close();
    live.textContent = "Live: this design was deleted";
  }});
  es.addEventListener("bye", function () {{
    es.close();
    live.textContent = "Live: server shut down";
  }});
}})();
</script>"#,
            user = encode(user),
            design = encode(design),
        ));

        Response::html(html::page(&format!("Design: {design}"), &body))
    }

    fn design_page(&self, req: &Request) -> Result<Response, Response> {
        let user = Self::user_of(req)?;
        let design = req
            .query_param("name")
            .ok_or_else(|| Self::bad("missing `name`"))?;
        let (_, sheet) = self.load_design(&user, &design)?;
        let report = sheet.play(&self.registry.read()).map_err(|e| e.to_string());
        Ok(self.render_design(&user, &design, &sheet, report))
    }

    fn design_play(&self, req: &Request) -> Result<Response, Response> {
        let user = Self::user_of(req)?;
        let design = req
            .form_param("design")
            .ok_or_else(|| Self::bad("missing `design`"))?;
        // Evaluation happens on GET; Play is post-redirect-get.
        self.load_design(&user, &design)?;
        Ok(Response::redirect(&Self::design_url(&user, &design)))
    }

    fn design_set_global(&self, req: &Request) -> Result<Response, Response> {
        let user = Self::user_of(req)?;
        let design = req
            .form_param("design")
            .ok_or_else(|| Self::bad("missing `design`"))?;
        let gname = req
            .form_param("gname")
            .filter(|g| !g.is_empty())
            .ok_or_else(|| Self::bad("missing `gname`"))?;
        let gformula = req
            .form_param("gformula")
            .ok_or_else(|| Self::bad("missing `gformula`"))?;
        let (_, mut sheet) = self.load_design(&user, &design)?;
        sheet.set_global(gname, &gformula).map_err(Self::bad)?;
        self.store
            .save(&user, &design, &sheet, None)
            .map_err(Self::bad)?;
        Ok(Response::redirect(&Self::design_url(&user, &design)))
    }

    fn design_add_row(&self, req: &Request) -> Result<Response, Response> {
        let user = Self::user_of(req)?;
        let design = req
            .form_param("design")
            .ok_or_else(|| Self::bad("missing `design`"))?;
        let element = req
            .form_param("element")
            .filter(|e| !e.is_empty())
            .ok_or_else(|| Self::bad("missing `element`"))?;
        if self.registry.read().get(&element).is_none() {
            return Err(Self::bad(format!("unknown element `{element}`")));
        }
        let row_name = req
            .form_param("row_name")
            .filter(|n| !n.is_empty())
            .unwrap_or_else(|| element.clone());

        let mut sheet = match self.store.load(&user, &design).map_err(Self::bad)? {
            Some((_, sheet)) => (*sheet).clone(),
            None => {
                // The element-results page can save into a fresh design.
                let mut sheet = Sheet::new(design.clone());
                sheet.set_global("vdd", "1.5").expect("literal parses");
                sheet.set_global("f", "2e6").expect("literal parses");
                sheet
            }
        };
        if sheet.row(&row_name).is_some() {
            return Err(Self::bad(format!("row `{row_name}` already exists")));
        }
        let mut row = powerplay_sheet::Row::new(row_name, RowModel::Element(element.clone()));
        for (key, value) in req.form_pairs() {
            if let Some(param) = key.strip_prefix("p_") {
                if !value.trim().is_empty() {
                    row.bind(param, &value)
                        .map_err(|e| Self::bad(format!("binding `{param}`: {e}")))?;
                }
            }
        }
        row.set_doc_link(format!("/doc?name={}", encode(&element)));
        sheet.add_row(row);
        self.store
            .save(&user, &design, &sheet, None)
            .map_err(Self::bad)?;
        Ok(Response::redirect(&Self::design_url(&user, &design)))
    }

    fn design_remove_row(&self, req: &Request) -> Result<Response, Response> {
        let user = Self::user_of(req)?;
        let design = req
            .form_param("design")
            .ok_or_else(|| Self::bad("missing `design`"))?;
        let row = req
            .form_param("row")
            .ok_or_else(|| Self::bad("missing `row`"))?;
        let (_, mut sheet) = self.load_design(&user, &design)?;
        sheet.remove_row(&row);
        self.store
            .save(&user, &design, &sheet, None)
            .map_err(Self::bad)?;
        Ok(Response::redirect(&Self::design_url(&user, &design)))
    }

    fn design_lump(&self, req: &Request) -> Result<Response, Response> {
        let user = Self::user_of(req)?;
        let design = req
            .form_param("design")
            .ok_or_else(|| Self::bad("missing `design`"))?;
        let macro_name = req
            .form_param("macro_name")
            .filter(|n| !n.is_empty())
            .ok_or_else(|| Self::bad("missing `macro_name`"))?;
        let (_, sheet) = self.load_design(&user, &design)?;
        let lumped = {
            let registry = self.registry.read();
            sheet
                .to_macro(macro_name.clone(), &registry)
                .map_err(Self::bad)?
        };
        self.registry.write().insert(lumped);
        Ok(Response::redirect(&format!(
            "/element?{}",
            encode_pairs([("name", macro_name.as_str()), ("user", user.as_str())])
        )))
    }

    fn design_sub(&self, req: &Request) -> Result<Response, Response> {
        let user = Self::user_of(req)?;
        let design = req
            .query_param("name")
            .ok_or_else(|| Self::bad("missing `name`"))?;
        let path = req
            .query_param("path")
            .ok_or_else(|| Self::bad("missing `path`"))?;
        let (_, sheet) = self.load_design(&user, &design)?;

        // Walk the row path ("Custom Hardware/Luminance Chip").
        let mut current = &sheet;
        for segment in path.split('/') {
            let row = current
                .row(segment)
                .ok_or_else(|| Response::error(Status::NotFound, "no such row"))?;
            current = match row.model() {
                RowModel::SubSheet(sub) => sub,
                _ => return Err(Self::bad(format!("row `{segment}` is not a sub-sheet"))),
            };
        }
        let report = sheet.play(&self.registry.read()).map_err(Self::bad)?;
        // Find the nested report along the same path.
        let mut node = &report;
        for segment in path.split('/') {
            node = node
                .row(segment)
                .and_then(|r| r.sub_report())
                .ok_or_else(|| Self::bad("report path mismatch"))?;
        }
        let mut rows = Vec::new();
        for row_report in node.rows() {
            rows.push(vec![
                html::escape(row_report.name()),
                row_report
                    .energy_per_op()
                    .map(|e| html::escape(&e.to_string()))
                    .unwrap_or_else(|| "-".into()),
                html::escape(&row_report.power().to_string()),
            ]);
        }
        let body = format!(
            "<p>Subsystem of {}</p>{}<p>Total: {}</p>",
            html::link(&Self::design_url(&user, &design), &design),
            html::table(&["Name", "Energy/op", "Power"], &rows),
            html::escape(&node.total_power().to_string()),
        );
        Ok(Response::html(html::page(
            &format!("Subsystem: {path}"),
            &body,
        )))
    }

    /// `/agent?item=<data>&<seed>=<value>...` — the Design Agent: plans
    /// and runs the tool flow that produces the requested datum from the
    /// seeded design context (paper: "translates the hyperlink request
    /// for data into a sequence of appropriate tool invocations").
    fn agent_page(&self, req: &Request) -> Result<Response, Response> {
        use crate::agent::{DesignAgent, FnTool};

        let item = req
            .query_param("item")
            .ok_or_else(|| Self::bad("missing `item`"))?;
        let mut agent = DesignAgent::new();
        // Seed the blackboard from every numeric query parameter.
        for (key, value) in req.query_pairs() {
            if key == "item" {
                continue;
            }
            let v: f64 = value
                .parse()
                .map_err(|_| Self::bad(format!("seed `{key}` is not a number")))?;
            agent.seed(key, v);
        }
        // The standard early-estimation flow: block count -> active area
        // -> Rent interconnect capacitance -> interconnect power.
        agent.register(FnTool::new(
            "area_estimator",
            ["block_count"],
            ["active_area_mm2"],
            |b| {
                let blocks = b["block_count"];
                b.insert("active_area_mm2".into(), blocks * 0.0036); // 60 um pitch
                Ok(())
            },
        ));
        agent.register(FnTool::new(
            "rent_wire_estimator",
            ["block_count", "active_area_mm2"],
            ["wire_cap_f"],
            |b| {
                use powerplay_models::interconnect::{
                    InterconnectEstimate, RentParameters, WiringTechnology,
                };
                let est = InterconnectEstimate::new(
                    b["block_count"].max(1.0),
                    RentParameters::RANDOM_LOGIC,
                    WiringTechnology::CMOS_1_2UM,
                );
                b.insert("wire_cap_f".into(), est.switched_cap().value());
                Ok(())
            },
        ));
        agent.register(FnTool::new(
            "power_estimator",
            ["wire_cap_f", "vdd", "f"],
            ["interconnect_power_w"],
            |b| {
                let p = b["wire_cap_f"] * b["vdd"] * b["vdd"] * b["f"];
                b.insert("interconnect_power_w".into(), p);
                Ok(())
            },
        ));

        let plan = agent.plan(&item).map_err(Self::bad)?;
        let value = agent.request(&item).map_err(Self::bad)?;
        let plan_items: String = plan
            .iter()
            .map(|t| format!("<li>{}</li>", html::escape(t)))
            .collect();
        let board_rows: Vec<Vec<String>> = [
            "block_count",
            "active_area_mm2",
            "wire_cap_f",
            "interconnect_power_w",
            "vdd",
            "f",
        ]
        .iter()
        .filter_map(|k| {
            agent
                .value(k)
                .map(|v| vec![k.to_string(), format!("{v:.6e}")])
        })
        .collect();
        let body = format!(
            "<p>Requested datum: <code>{}</code> = <b>{value:.6e}</b></p>\
             <h2>Tool plan</h2><ol>{plan_items}</ol>\
             <h2>Blackboard</h2>{}",
            html::escape(&item),
            html::table(&["Item", "Value"], &board_rows),
        );
        Ok(Response::html(html::page("Design Agent", &body)))
    }

    // --- telemetry ---------------------------------------------------------

    /// `GET /metrics` — the process-global registry in Prometheus text
    /// exposition format 0.0.4, for scrapers.
    fn metrics_exposition() -> Response {
        Response::with_content_type(
            "text/plain; version=0.0.4; charset=utf-8",
            powerplay_telemetry::global().prometheus(),
        )
    }

    /// `GET /stats` — the same registry as a human-readable panel:
    /// counters, gauges, and latency histograms with quantile estimates.
    fn stats_page() -> Response {
        let snap = powerplay_telemetry::global().snapshot();
        let counter_rows: Vec<Vec<String>> = snap
            .counters
            .iter()
            .map(|(name, v)| vec![html::escape(name), v.to_string()])
            .collect();
        let gauge_rows: Vec<Vec<String>> = snap
            .gauges
            .iter()
            .map(|(name, v)| vec![html::escape(name), v.to_string()])
            .collect();
        let quantile = |h: &powerplay_telemetry::HistogramSnapshot, q: f64| {
            h.quantile_seconds(q)
                .filter(|v| v.is_finite())
                .map(|v| format!("{:.3} ms", v * 1e3))
                .unwrap_or_else(|| "-".into())
        };
        let histogram_rows: Vec<Vec<String>> = snap
            .histograms
            .iter()
            .map(|h| {
                vec![
                    html::escape(&h.name),
                    h.count.to_string(),
                    format!("{:.3} s", h.sum_seconds),
                    quantile(h, 0.5),
                    quantile(h, 0.9),
                    quantile(h, 0.99),
                ]
            })
            .collect();
        let body = format!(
            "<p>Live telemetry for this PowerPlay instance. Scrapers \
             should use {metrics}. Latency quantiles are log2-bucket \
             estimates (within 2x).</p>\
             <h2>Counters</h2>{counters}\
             <h2>Gauges</h2>{gauges}\
             <h2>Latency histograms</h2>{histograms}",
            metrics = html::link("/metrics", "/metrics"),
            counters = html::table(&["Series", "Total"], &counter_rows),
            gauges = html::table(&["Series", "Value"], &gauge_rows),
            histograms = html::table(
                &["Series", "Count", "Sum", "p50", "p90", "p99"],
                &histogram_rows,
            ),
        );
        Response::html(html::page("PowerPlay Statistics", &body))
    }

    // --- helpers shared with the v1 API ------------------------------------

    /// A `304 Not Modified` if the request's `If-None-Match` matches the
    /// ETag the response would carry.
    pub(crate) fn not_modified(req: &Request, etag: &str) -> Option<Response> {
        (req.header("if-none-match") == Some(etag)).then(|| {
            let mut response = Response::new(Status::NotModified);
            response.set_header("ETag", etag);
            response
        })
    }

    /// The compiled plan for a design, from the cache when warm.
    /// Compilation holds the registry read lock only while it runs; the
    /// plan owns shared handles to the elements it needs, so later
    /// (parallel) evaluation never blocks library edits.
    pub(crate) fn plan_for(&self, key: u64, sheet: &Sheet) -> Arc<powerplay_sheet::CompiledSheet> {
        let (plan, _hit) = self.plan_cache.plan_for(key, || {
            powerplay_sheet::CompiledSheet::compile(sheet, &self.registry.read())
        });
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerplay_library::builtin::ucb_library;

    fn app(tag: &str) -> Arc<PowerPlayApp> {
        let dir = std::env::temp_dir().join(format!("powerplay-app-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        PowerPlayApp::new(ucb_library(), dir)
    }

    fn get(app: &PowerPlayApp, path: &str) -> Response {
        app.handle(&Request::new(Method::Get, path))
    }

    fn post_json(app: &PowerPlayApp, path: &str, body: &str) -> Response {
        let mut req = Request::new(Method::Post, path);
        req.set_body(body.as_bytes().to_vec(), "application/json");
        app.handle(&req)
    }

    fn post(app: &PowerPlayApp, path: &str, form: &[(&str, &str)]) -> Response {
        let mut req = Request::new(Method::Post, path);
        req.set_body(
            encode_pairs(form.iter().copied()).into_bytes(),
            "application/x-www-form-urlencoded",
        );
        app.handle(&req)
    }

    #[test]
    fn login_flow() {
        let app = app("login");
        let page = get(&app, "/");
        assert_eq!(page.status(), Status::Ok);
        assert!(page.body_text().contains("identify yourself"));

        let redirect = post(&app, "/login", &[("user", "alice")]);
        assert_eq!(redirect.status(), Status::Found);
        assert_eq!(redirect.header("location"), Some("/menu?user=alice"));

        let menu = get(&app, "/menu?user=alice");
        assert!(menu.body_text().contains("Main Menu"));
        assert!(menu.body_text().contains("alice"));
    }

    #[test]
    fn anonymous_access_is_rejected() {
        let app = app("anon");
        assert_eq!(get(&app, "/menu").status(), Status::BadRequest);
        assert_eq!(get(&app, "/library").status(), Status::BadRequest);
    }

    #[test]
    fn library_and_element_form() {
        let app = app("library");
        let lib = get(&app, "/library?user=alice");
        assert!(lib.body_text().contains("ucb/multiplier"));
        assert!(lib.body_text().contains("storage"));

        let form = get(&app, "/element?name=ucb%2Fmultiplier&user=alice");
        assert_eq!(form.status(), Status::Ok);
        assert!(form.body_text().contains("bw_a"));
        assert!(form.body_text().contains("EQ 20"));

        let missing = get(&app, "/element?name=nope&user=alice");
        assert_eq!(missing.status(), Status::NotFound);
    }

    #[test]
    fn element_evaluation_matches_model() {
        let app = app("eval");
        let result = post(
            &app,
            "/element/eval",
            &[
                ("user", "alice"),
                ("element", "ucb/multiplier"),
                ("vdd", "1.5"),
                ("f", "2e6"),
                ("p_bw_a", "8"),
                ("p_bw_b", "8"),
            ],
        );
        assert_eq!(result.status(), Status::Ok);
        // 64 * 253fF * 1.5^2 * 2MHz = 72.86 uW
        assert!(
            result.body_text().contains("72.86 uW"),
            "body: {}",
            result.body_text()
        );
    }

    #[test]
    fn element_eval_rejects_bad_formulas() {
        let app = app("evalbad");
        let result = post(
            &app,
            "/element/eval",
            &[
                ("user", "alice"),
                ("element", "ucb/multiplier"),
                ("vdd", "1.5 +"),
                ("f", "2e6"),
            ],
        );
        assert_eq!(result.status(), Status::BadRequest);
    }

    #[test]
    fn design_lifecycle() {
        let app = app("design");
        // Create.
        let r = post(&app, "/design/new", &[("user", "alice"), ("name", "lum")]);
        assert_eq!(r.status(), Status::Found);
        // Add rows.
        let r = post(
            &app,
            "/design/add_row",
            &[
                ("user", "alice"),
                ("design", "lum"),
                ("row_name", "LUT"),
                ("element", "ucb/sram"),
                ("p_words", "4096"),
                ("p_bits", "6"),
            ],
        );
        assert_eq!(r.status(), Status::Found);
        let r = post(
            &app,
            "/design/add_row",
            &[
                ("user", "alice"),
                ("design", "lum"),
                ("row_name", "Read Bank"),
                ("element", "ucb/sram"),
                ("p_words", "2048"),
                ("p_bits", "8"),
                ("p_f", "f / 16"),
            ],
        );
        assert_eq!(r.status(), Status::Found);

        // View: spreadsheet renders with powers and total.
        let page = get(&app, "/design?user=alice&name=lum");
        let body = page.body_text();
        assert!(body.contains("LUT"));
        assert!(body.contains("Read Bank"));
        assert!(body.contains("TOTAL"));
        assert!(body.contains("PLAY"));

        // Change a global: vdd to 3.0, power must quadruple.
        let r = post(
            &app,
            "/design/set_global",
            &[
                ("user", "alice"),
                ("design", "lum"),
                ("gname", "vdd"),
                ("gformula", "3.0"),
            ],
        );
        assert_eq!(r.status(), Status::Found);
        let page2 = get(&app, "/design?user=alice&name=lum");
        assert!(page2.body_text().contains("vdd"));

        // Remove a row.
        let r = post(
            &app,
            "/design/remove_row",
            &[("user", "alice"), ("design", "lum"), ("row", "Read Bank")],
        );
        assert_eq!(r.status(), Status::Found);
        let page3 = get(&app, "/design?user=alice&name=lum");
        assert!(!page3.body_text().contains("Read Bank"));
    }

    #[test]
    fn design_page_shows_area_delay_and_help_link() {
        let app = app("areacols");
        post(&app, "/design/new", &[("user", "a"), ("name", "d")]);
        post(
            &app,
            "/design/add_row",
            &[
                ("user", "a"),
                ("design", "d"),
                ("row_name", "Mem"),
                ("element", "ucb/sram"),
                ("p_words", "1024"),
            ],
        );
        let page = get(&app, "/design?user=a&name=d");
        let body = page.body_text();
        assert!(body.contains("<th>Area</th>"), "area column missing");
        assert!(body.contains("<th>Delay</th>"), "delay column missing");
        assert!(body.contains("mm2"), "area values missing");
        assert!(body.contains("ns"), "delay values missing");

        let menu = get(&app, "/menu?user=a");
        assert!(menu.body_text().contains("/help"));
    }

    #[test]
    fn duplicate_rows_rejected() {
        let app = app("duprow");
        post(&app, "/design/new", &[("user", "a"), ("name", "d")]);
        let ok = post(
            &app,
            "/design/add_row",
            &[
                ("user", "a"),
                ("design", "d"),
                ("row_name", "X"),
                ("element", "ucb/register"),
            ],
        );
        assert_eq!(ok.status(), Status::Found);
        let dup = post(
            &app,
            "/design/add_row",
            &[
                ("user", "a"),
                ("design", "d"),
                ("row_name", "X"),
                ("element", "ucb/register"),
            ],
        );
        assert_eq!(dup.status(), Status::BadRequest);
    }

    #[test]
    fn model_authoring_flow() {
        let app = app("model");
        let r = post(
            &app,
            "/model/new",
            &[
                ("user", "carol"),
                ("name", "widget"),
                ("class", "computation"),
                ("doc", "a custom widget"),
                ("params", "bits=8, gain=2"),
                ("cap_full", "bits * gain * 10f"),
            ],
        );
        assert_eq!(r.status(), Status::Found, "{}", r.body_text());
        assert!(app.registry().read().get("carol/widget").is_some());

        // The new model evaluates through the normal form.
        let result = post(
            &app,
            "/element/eval",
            &[
                ("user", "carol"),
                ("element", "carol/widget"),
                ("vdd", "1"),
                ("f", "1e6"),
                ("p_bits", "8"),
                ("p_gain", "2"),
            ],
        );
        assert_eq!(result.status(), Status::Ok);
        // 8*2*10fF * 1 V^2 * 1 MHz = 160 nW
        assert!(result.body_text().contains("160.0 nW"));
    }

    #[test]
    fn model_authoring_rejects_undeclared_variables() {
        let app = app("modelbad");
        let r = post(
            &app,
            "/model/new",
            &[
                ("user", "carol"),
                ("name", "broken"),
                ("class", "computation"),
                ("cap_full", "mystery * 10f"),
            ],
        );
        assert_eq!(r.status(), Status::BadRequest);
        assert!(r.body_text().contains("mystery"));
    }

    #[test]
    fn api_endpoints_serve_json() {
        let app = app("api");
        let lib = get(&app, "/api/v1/library");
        assert_eq!(lib.header("content-type"), Some("application/json"));
        let parsed = Json::parse(&lib.body_text()).unwrap();
        assert!(parsed.as_array().unwrap().len() > 20);

        let elem = get(&app, "/api/v1/elements/ucb/sram");
        let parsed = Json::parse(&elem.body_text()).unwrap();
        assert_eq!(parsed["name"].as_str(), Some("ucb/sram"));

        post(&app, "/design/new", &[("user", "a"), ("name", "d")]);
        post(
            &app,
            "/design/add_row",
            &[
                ("user", "a"),
                ("design", "d"),
                ("row_name", "R"),
                ("element", "ucb/register"),
            ],
        );
        let design = post_json(&app, "/api/v1/designs/a/d/play", "");
        let parsed = Json::parse(&design.body_text()).unwrap();
        assert!(parsed["report"]["total_w"].as_f64().unwrap() > 0.0);
        assert_eq!(parsed["report"]["rows"][0]["name"].as_str(), Some("R"));
    }

    #[test]
    fn agent_route_plans_and_executes() {
        let app = app("agent");
        let r = get(
            &app,
            "/agent?item=interconnect_power_w&block_count=400&vdd=1.5&f=2e6",
        );
        assert_eq!(r.status(), Status::Ok, "{}", r.body_text());
        let body = r.body_text();
        assert!(body.contains("area_estimator"));
        assert!(body.contains("rent_wire_estimator"));
        assert!(body.contains("power_estimator"));
        assert!(body.contains("interconnect_power_w"));

        // Seeding an intermediate short-circuits earlier tools.
        let r = get(
            &app,
            "/agent?item=interconnect_power_w&wire_cap_f=1e-10&vdd=1&f=1e6",
        );
        assert!(!r.body_text().contains("area_estimator"));
        assert!(r.body_text().contains("1.000000e-4"));

        // Unknown targets are clean errors.
        let r = get(&app, "/agent?item=tape_out_date");
        assert_eq!(r.status(), Status::BadRequest);
    }

    #[test]
    fn api_sweep_returns_series() {
        let app = app("sweep");
        post(&app, "/design/new", &[("user", "a"), ("name", "d")]);
        post(
            &app,
            "/design/add_row",
            &[
                ("user", "a"),
                ("design", "d"),
                ("row_name", "M"),
                ("element", "ucb/multiplier"),
            ],
        );
        let r = post_json(
            &app,
            "/api/v1/designs/a/d/sweep",
            r#"{"global": "vdd", "values": [1, 2]}"#,
        );
        assert_eq!(r.status(), Status::Ok, "{}", r.body_text());
        let parsed = Json::parse(&r.body_text()).unwrap();
        let series = parsed["series"].as_array().unwrap();
        assert_eq!(series.len(), 2);
        let p1 = series[0]["total_w"].as_f64().unwrap();
        let p2 = series[1]["total_w"].as_f64().unwrap();
        assert!((p2 / p1 - 4.0).abs() < 1e-9, "quadratic in vdd");

        let bad = post_json(
            &app,
            "/api/v1/designs/a/d/sweep",
            r#"{"global": "vdd", "values": ["x"]}"#,
        );
        assert_eq!(bad.status(), Status::BadRequest);
    }

    #[test]
    fn api_sensitivities_ranks_globals() {
        let app = app("sens");
        post(&app, "/design/new", &[("user", "a"), ("name", "d")]);
        post(
            &app,
            "/design/add_row",
            &[
                ("user", "a"),
                ("design", "d"),
                ("row_name", "M"),
                ("element", "ucb/multiplier"),
            ],
        );
        let r = post_json(&app, "/api/v1/designs/a/d/sensitivities", "");
        assert_eq!(r.status(), Status::Ok, "{}", r.body_text());
        let parsed = Json::parse(&r.body_text()).unwrap();
        let ranking = parsed["sensitivities"].as_array().unwrap();
        // Full-rail design: vdd (S=2) outranks f (S=1).
        assert_eq!(ranking[0]["global"].as_str().unwrap(), "vdd");
        assert!((ranking[0]["sensitivity"].as_f64().unwrap() - 2.0).abs() < 1e-3);
    }

    #[test]
    fn lump_flow_registers_macro() {
        let app = app("lump");
        post(&app, "/design/new", &[("user", "a"), ("name", "d")]);
        post(
            &app,
            "/design/add_row",
            &[
                ("user", "a"),
                ("design", "d"),
                ("row_name", "R"),
                ("element", "ucb/register"),
            ],
        );
        let r = post(
            &app,
            "/design/lump",
            &[("user", "a"), ("design", "d"), ("macro_name", "a/d_macro")],
        );
        assert_eq!(r.status(), Status::Found, "{}", r.body_text());
        assert!(app.registry().read().get("a/d_macro").is_some());
    }

    #[test]
    fn api_lint_reports_stored_design_diagnostics() {
        let app = app("lintget");
        post(&app, "/design/new", &[("user", "a"), ("name", "d")]);
        post(
            &app,
            "/design/add_row",
            &[
                ("user", "a"),
                ("design", "d"),
                ("row_name", "DC"),
                ("element", "ucb/dcdc"),
                ("p_p_load", "P_missing_row"),
            ],
        );
        let r = post_json(&app, "/api/v1/designs/a/d/lint", "");
        assert_eq!(r.status(), Status::Ok, "{}", r.body_text());
        assert_eq!(r.header("content-type"), Some("application/json"));
        let parsed = &Json::parse(&r.body_text()).unwrap()["lint"];
        assert!(parsed["errors"].as_f64().unwrap() >= 1.0);
        let diags = parsed["diagnostics"].as_array().unwrap();
        let e008 = diags
            .iter()
            .find(|d| d["code"].as_str() == Some("E008"))
            .expect("E008 in report");
        assert_eq!(e008["path"].as_str(), Some("rows/DC/bindings/p_load"));
    }

    #[test]
    fn api_lint_post_lints_unsaved_sheets() {
        let app = app("lintpost");
        let mut sheet = Sheet::new("scratch");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2e6").unwrap();
        sheet
            .add_element_row("A", "ucb/ripple_adder", [("bits", "nonsense_var")])
            .unwrap();
        let r = post_json(&app, "/api/v1/lint", &sheet.to_json().to_string());
        assert_eq!(r.status(), Status::Ok, "{}", r.body_text());
        let parsed = &Json::parse(&r.body_text()).unwrap()["lint"];
        let diags = parsed["diagnostics"].as_array().unwrap();
        assert!(diags.iter().any(|d| d["code"].as_str() == Some("E001")
            && d["message"].as_str().unwrap_or("").contains("nonsense_var")));

        let bad = post_json(&app, "/api/v1/lint", "not json");
        assert_eq!(bad.status(), Status::BadRequest);
    }

    #[test]
    fn design_page_shows_diagnostics_panel() {
        let app = app("lintpanel");
        post(&app, "/design/new", &[("user", "a"), ("name", "d")]);
        post(
            &app,
            "/design/add_row",
            &[
                ("user", "a"),
                ("design", "d"),
                ("row_name", "DC"),
                ("element", "ucb/dcdc"),
                ("p_p_load", "P_missing_row"),
            ],
        );
        let page = get(&app, "/design?user=a&name=d");
        let body = page.body_text();
        assert!(body.contains("<h2>Diagnostics</h2>"), "panel missing");
        assert!(body.contains("E008"), "code missing from panel");
        assert!(body.contains("lint-error"), "severity class missing");
    }

    #[test]
    fn model_rejection_body_is_a_structured_lint_report() {
        let app = app("modeljson");
        let r = post(
            &app,
            "/model/new",
            &[
                ("user", "carol"),
                ("name", "broken"),
                ("class", "computation"),
                ("cap_full", "mystery * 10f"),
            ],
        );
        assert_eq!(r.status(), Status::BadRequest);
        assert_eq!(r.header("content-type"), Some("application/json"));
        let parsed = Json::parse(&r.body_text()).unwrap();
        let diags = parsed["diagnostics"].as_array().unwrap();
        assert!(diags
            .iter()
            .any(|d| d["code"].as_str() == Some("E013")
                && d["path"].as_str() == Some("model/cap_full")));
    }

    #[test]
    fn api_play_errors_are_structured_diagnostics() {
        let app = app("apidiag");
        post(&app, "/design/new", &[("user", "a"), ("name", "d")]);
        post(
            &app,
            "/design/add_row",
            &[
                ("user", "a"),
                ("design", "d"),
                ("row_name", "G"),
                ("element", "ucb/dcdc"),
                ("p_p_load", "P_missing_row"),
            ],
        );
        let r = post_json(&app, "/api/v1/designs/a/d/play", "");
        assert_eq!(r.status(), Status::BadRequest, "{}", r.body_text());
        assert_eq!(r.header("content-type"), Some("application/json"));
        let parsed = &Json::parse(&r.body_text()).unwrap()["error"];
        assert_eq!(parsed["code"].as_str(), Some("evaluation_failed"));
        let parsed = &parsed["diagnostics"];
        assert_eq!(
            parsed["diagnostics"][0]["code"].as_str(),
            Some("E001"),
            "{}",
            r.body_text()
        );
        assert_eq!(
            parsed["diagnostics"][0]["path"].as_str(),
            Some("rows/G/bindings/p_load")
        );

        // Sweep over the same broken design: also structured.
        let r = post_json(
            &app,
            "/api/v1/designs/a/d/sweep",
            r#"{"global": "vdd", "values": [1, 2]}"#,
        );
        assert_eq!(r.status(), Status::BadRequest);
        let parsed = Json::parse(&r.body_text()).unwrap();
        assert_eq!(
            parsed["error"]["diagnostics"]["diagnostics"][0]["code"].as_str(),
            Some("E001")
        );

        // A malformed body is an envelope without diagnostics.
        let r = post_json(&app, "/api/v1/designs/a/d/sweep", r#"{"global": "vdd"}"#);
        assert_eq!(r.status(), Status::BadRequest);
        let parsed = Json::parse(&r.body_text()).unwrap();
        assert_eq!(parsed["error"]["code"].as_str(), Some("invalid_body"));
        assert!(parsed["error"].get("diagnostics").is_none());
    }

    #[test]
    fn api_design_etag_roundtrip() {
        let app = app("etag");
        post(&app, "/design/new", &[("user", "a"), ("name", "d")]);
        post(
            &app,
            "/design/add_row",
            &[
                ("user", "a"),
                ("design", "d"),
                ("row_name", "R"),
                ("element", "ucb/register"),
            ],
        );
        let first = get(&app, "/api/v1/designs/a/d");
        assert_eq!(first.status(), Status::Ok);
        let etag = first.header("etag").expect("ETag on the design").to_owned();

        // Conditional GET with the matching tag → 304, empty body.
        let mut conditional = Request::new(Method::Get, "/api/v1/designs/a/d");
        conditional.set_header("If-None-Match", &etag);
        let r = app.handle(&conditional);
        assert_eq!(r.status(), Status::NotModified);
        assert!(r.body().is_empty());
        assert_eq!(r.header("etag"), Some(etag.as_str()));

        // Editing the design changes the tag; the stale tag revalidates.
        post(
            &app,
            "/design/set_global",
            &[
                ("user", "a"),
                ("design", "d"),
                ("gname", "vdd"),
                ("gformula", "3.0"),
            ],
        );
        let r = app.handle(&conditional);
        assert_eq!(r.status(), Status::Ok, "stale tag must refetch");
        assert_ne!(r.header("etag"), Some(etag.as_str()));
    }

    #[test]
    fn repeated_play_hits_the_plan_cache() {
        let app = app("plancache");
        post(&app, "/design/new", &[("user", "a"), ("name", "d")]);
        post(
            &app,
            "/design/add_row",
            &[
                ("user", "a"),
                ("design", "d"),
                ("row_name", "R"),
                ("element", "ucb/register"),
            ],
        );
        let first = post_json(&app, "/api/v1/designs/a/d/play", "");
        assert_eq!(first.status(), Status::Ok);
        // Counters are process-global and tests run in parallel, so
        // assert monotonic growth of hits across repeats.
        let metrics_before = get(&app, "/metrics").body_text();
        let hits_before = prom_value(&metrics_before, "powerplay_web_plan_cache_hits_total");
        let second = post_json(&app, "/api/v1/designs/a/d/play", "");
        assert_eq!(second.status(), Status::Ok);
        assert_eq!(second.body_text(), first.body_text());
        let metrics_after = get(&app, "/metrics").body_text();
        let hits_after = prom_value(&metrics_after, "powerplay_web_plan_cache_hits_total");
        assert!(hits_after > hits_before, "{hits_before} -> {hits_after}");
    }

    #[test]
    fn posted_play_evaluates_and_caches_unsaved_sheets() {
        let app = app("postdesign");
        let mut sheet = Sheet::new("scratch");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2e6").unwrap();
        sheet
            .add_element_row("R", "ucb/register", [("bits", "16")])
            .unwrap();
        let body = sheet.to_json().to_string();
        let send = || post_json(&app, "/api/v1/play", &body);
        let first = send();
        assert_eq!(first.status(), Status::Ok, "{}", first.body_text());
        let parsed = Json::parse(&first.body_text()).unwrap();
        assert!(parsed["report"]["total_w"].as_f64().unwrap() > 0.0);

        // A repeat of the identical design answers from the cached plan:
        // byte-identical body, hits counter grows.
        let metrics_before = get(&app, "/metrics").body_text();
        let hits_before = prom_value(&metrics_before, "powerplay_web_plan_cache_hits_total");
        let second = send();
        assert_eq!(second.body_text(), first.body_text());
        let metrics_after = get(&app, "/metrics").body_text();
        let hits_after = prom_value(&metrics_after, "powerplay_web_plan_cache_hits_total");
        assert!(hits_after > hits_before);

        // Formatting does not fragment the cache: the body is
        // canonicalized before hashing.
        let pretty = sheet.to_json().to_pretty();
        assert_ne!(pretty, body);
        let third = post_json(&app, "/api/v1/play", &pretty);
        assert_eq!(third.body_text(), first.body_text());
        let metrics_last = get(&app, "/metrics").body_text();
        let hits_last = prom_value(&metrics_last, "powerplay_web_plan_cache_hits_total");
        assert!(hits_last > hits_after);

        // Malformed bodies are clean 400s.
        let bad = post_json(&app, "/api/v1/play", "not json");
        assert_eq!(bad.status(), Status::BadRequest);
    }

    #[test]
    fn library_edits_invalidate_cached_designs() {
        let app = app("geninval");
        // The design uses a model nobody has defined yet, so it plays to
        // an error and the failing plan is cached.
        let mut sheet = Sheet::new("d");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2e6").unwrap();
        sheet.add_element_row("B", "carol/bump", []).unwrap();
        app.store.save("a", "d", &sheet, None).unwrap();
        let first = post_json(&app, "/api/v1/designs/a/d/play", "");
        assert_eq!(first.status(), Status::BadRequest, "{}", first.body_text());
        // Adding the model bumps the registry generation, so the same
        // revision gets a fresh key and the next play compiles against
        // the new library.
        post(
            &app,
            "/model/new",
            &[
                ("user", "carol"),
                ("name", "bump"),
                ("class", "computation"),
                ("cap_full", "10f"),
            ],
        );
        let second = post_json(&app, "/api/v1/designs/a/d/play", "");
        assert_eq!(second.status(), Status::Ok, "{}", second.body_text());
        let parsed = Json::parse(&second.body_text()).unwrap();
        assert!(parsed["report"]["total_w"].as_f64().unwrap() > 0.0);
    }

    /// The current value of an unlabelled counter in a Prometheus text
    /// exposition.
    fn prom_value(exposition: &str, series: &str) -> f64 {
        exposition
            .lines()
            .find(|l| l.starts_with(series) && !l.starts_with('#'))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    }

    #[test]
    fn metrics_endpoint_speaks_prometheus() {
        let app = app("metrics");
        // Generate some traffic first so the families have data.
        get(&app, "/api/v1/library");
        get(&app, "/nonsense");
        let r = get(&app, "/metrics");
        assert_eq!(r.status(), Status::Ok);
        assert_eq!(
            r.header("content-type"),
            Some("text/plain; version=0.0.4; charset=utf-8")
        );
        let body = r.body_text();
        assert!(
            body.contains("# TYPE powerplay_http_requests_total counter"),
            "{body}"
        );
        assert!(body.contains("powerplay_http_requests_total{class=\"2xx\"}"));
        assert!(body.contains("powerplay_http_requests_total{class=\"4xx\"}"));
        assert!(body.contains("# TYPE powerplay_http_request_seconds histogram"));
        assert!(body.contains("powerplay_http_request_seconds_bucket"));
        assert!(body.contains("# TYPE powerplay_http_inflight gauge"));
    }

    #[test]
    fn request_middleware_counts_by_status_class() {
        let app = app("middleware");
        let before_ok = http_metrics().requests_2xx.get();
        let before_bad = http_metrics().requests_4xx.get();
        get(&app, "/api/v1/library");
        get(&app, "/nonsense");
        // Counters are process-global and other tests run in parallel,
        // so assert monotonic growth rather than exact deltas.
        assert!(http_metrics().requests_2xx.get() > before_ok);
        assert!(http_metrics().requests_4xx.get() > before_bad);
        assert!(http_metrics().request_seconds.count() >= 2);
    }

    #[test]
    fn stats_page_renders_registry_series() {
        let app = app("stats");
        get(&app, "/api/v1/library");
        let r = get(&app, "/stats");
        assert_eq!(r.status(), Status::Ok);
        let body = r.body_text();
        assert!(body.contains("powerplay_http_requests_total"), "{body}");
        assert!(body.contains("powerplay_http_request_seconds"));
        assert!(body.contains("/metrics"));
    }

    #[test]
    fn deleting_a_design_drops_its_replay_entry() {
        let app = app("replay-delete");
        let id = ("alice".to_owned(), "d".to_owned());
        let last_plan = |app: &PowerPlayApp| {
            let replay = app.replay.lock();
            replay
                .get(&id)
                .and_then(|d| d.last.clone())
                .map(|(_, plan)| plan)
        };
        let mut sheet = Sheet::new("d");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet
            .add_element_row("Reg", "ucb/register", [("bits", "16")])
            .unwrap();
        let with_vdd = |vdd: &str| {
            let mut s = sheet.clone();
            s.set_global("vdd", vdd).unwrap();
            s
        };

        let rev = app.store.save("alice", "d", &sheet, None).unwrap();
        let first = last_plan(&app).expect("the commit hook keeps the plan");
        // A global-only edit keeps the compiled body.
        app.store
            .save("alice", "d", &with_vdd("2.5"), Some(rev))
            .unwrap();
        let second = last_plan(&app).unwrap();
        assert!(second.shares_body_with(&first));

        app.store.delete("alice", "d").unwrap();
        assert!(!app.replay.lock().contains_key(&id), "entry removed");

        // Re-created, differing only in a global: compiled fresh.
        app.store
            .save("alice", "d", &with_vdd("3.3"), None)
            .unwrap();
        let third = last_plan(&app).unwrap();
        assert!(!third.shares_body_with(&second));
    }

    #[test]
    fn unknown_routes_404() {
        let app = app("404");
        assert_eq!(get(&app, "/nonsense").status(), Status::NotFound);
        assert_eq!(post(&app, "/also/nonsense", &[]).status(), Status::NotFound);
    }

    #[test]
    fn removed_pre_v1_routes_answer_404() {
        let app = app("pre-v1");
        post(&app, "/design/new", &[("user", "a"), ("name", "d")]);
        for path in [
            "/api/library",
            "/api/element?name=ucb%2Fsram",
            "/api/design?user=a&name=d",
            "/api/lint?user=a&name=d",
            "/api/sweep?user=a&name=d&global=vdd&values=1,2",
            "/api/sensitivities?user=a&name=d",
        ] {
            let r = get(&app, path);
            assert_eq!(r.status(), Status::NotFound, "GET {path}");
            assert!(r.header("deprecation").is_none());
        }
        for path in ["/api/design", "/api/lint"] {
            let r = post_json(&app, path, "{}");
            assert_eq!(r.status(), Status::NotFound, "POST {path}");
        }
    }
}
