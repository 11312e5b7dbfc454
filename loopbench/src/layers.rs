//! The traced run's in-process half: the same generated inputs replayed
//! through each layer's public functions, one span per layer call, so
//! the socket latency can be split into layer self-times.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use powerplay_json::Json;
use powerplay_library::Registry;
use powerplay_sheet::{whatif, CompiledSheet, ReplayState, Sheet, SheetReport};
use powerplay_store::DesignStore;
use powerplay_web::app::PowerPlayApp;
use powerplay_web::http::Request;

use crate::gen::{self, BrowseKind, BrowseOp, Design, Sweep, INFOPAD, USER};
use crate::oracle;
use crate::stats::{median, Percentiles};
use crate::trace::{self_us_per_op, Tracer};

/// What the in-process replay measured, per operation.
pub struct Layers {
    /// Mean self time per operation of each layer span, in µs.
    pub self_us: BTreeMap<&'static str, f64>,
    pub ops: usize,
    pub parsed_bytes: usize,
    pub parse_ns: f64,
    pub sweep_points: usize,
    pub sweep_s: f64,
    pub wal_bytes_per_commit: f64,
    pub dirty_rows: f64,
    /// `PowerPlayApp::handle` on the same requests, without sockets.
    pub handle: Percentiles,
    pub import_us: f64,
    pub cells_mapped: f64,
}

/// The report body the server builds for plays and revision events.
fn report_json(report: &SheetReport) -> Json {
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
    Json::object([
        ("total_w", Json::from(report.total_power().value())),
        ("rows", rows),
    ])
}

fn parse_request(raw: &[u8]) -> Request {
    match Request::parse_prefix(raw) {
        Ok(Some((req, _))) => req,
        _ => panic!("generated requests parse"),
    }
}

/// An in-process app set up like the benchmark's server: the Liberty
/// fixture imported and `designs` stored.
fn app_with(dir: &Path, designs: &[(&str, &str)]) -> std::sync::Arc<PowerPlayApp> {
    let app = PowerPlayApp::new(powerplay_library::builtin::ucb_library(), dir.to_path_buf());
    let import = gen::request(
        "POST",
        "/api/v1/libraries",
        &[],
        gen::LIBERTY_FIXTURE.as_bytes(),
    );
    assert_eq!(app.handle(&parse_request(&import)).status().code(), 201);
    for (name, body) in designs {
        let put = gen::request("PUT", &gen::design_path(name), &[], body.as_bytes());
        assert_eq!(app.handle(&parse_request(&put)).status().code(), 201);
    }
    app
}

fn handle_percentiles(app: &PowerPlayApp, requests: &[Vec<u8>]) -> Percentiles {
    let samples: Vec<f64> = requests
        .iter()
        .map(|raw| {
            let req = parse_request(raw);
            let t = Instant::now();
            std::hint::black_box(app.handle(&req));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    Percentiles::of(&samples)
}

fn liberty_import() -> (f64, f64) {
    let mut times = Vec::new();
    let mut mapped = 0.0;
    for _ in 0..7 {
        let t = Instant::now();
        let import = powerplay_liberty::import_str(gen::LIBERTY_FIXTURE, "api");
        times.push(t.elapsed().as_secs_f64() * 1e6);
        mapped = import.cells_mapped as f64;
    }
    (median(&times), mapped)
}

impl Layers {
    fn finish(tracer: &Tracer, ops: usize, handle: Percentiles) -> Layers {
        let parse_ns = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "json.parse")
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum();
        let (import_us, cells_mapped) = liberty_import();
        Layers {
            self_us: self_us_per_op(tracer.spans(), ops),
            ops,
            parsed_bytes: 0,
            parse_ns,
            sweep_points: 0,
            sweep_s: 0.0,
            wal_bytes_per_commit: 0.0,
            dirty_rows: 0.0,
            handle,
            import_us,
            cells_mapped,
        }
    }

    /// `edit`: http parse → JSON parse → decode → fsync'd save →
    /// compile → delta replay → serialize the event report.
    pub fn edit(dir: &Path, registry: &Registry, bodies: &[String], tracer: &mut Tracer) -> Layers {
        let store = DesignStore::open(dir.join("store")).expect("in-process store opens");
        let base = oracle::decode(gen::INFOPAD_JSON).expect("InfoPad decodes");
        let mut rev = store
            .save(USER, INFOPAD, &base, Some(0))
            .expect("seed save");
        let mut state = ReplayState::new();
        let (mut wal, mut wal_deltas, mut dirty) =
            (store.wal_bytes(USER).unwrap_or(0), Vec::new(), Vec::new());
        let mut parsed_bytes = 0;
        let requests: Vec<Vec<u8>> = bodies
            .iter()
            .enumerate()
            .map(|(i, b)| gen::edit_request(b, i as u64 + 1))
            .collect();
        for (i, raw) in requests.iter().enumerate() {
            let op = i as u64;
            let t0 = Instant::now();
            let root = tracer.span(op, None, "inproc.op", t0, t0);
            let req = tracer.time(op, root, "web.http.parse", || parse_request(raw));
            let text = std::str::from_utf8(req.body()).expect("UTF-8 body");
            parsed_bytes += text.len();
            let json = tracer.time(op, root, "json.parse", || {
                Json::parse(text).expect("body parses")
            });
            let sheet = tracer.time(op, root, "sheet.decode", || {
                Sheet::from_json(&json).expect("body decodes")
            });
            rev = tracer.time(op, root, "store.save", || {
                store
                    .save(USER, INFOPAD, &sheet, Some(rev))
                    .expect("in-process save")
            });
            let plan = tracer.time(op, root, "sheet.compile", || {
                CompiledSheet::compile(&sheet, registry)
            });
            let report = tracer.time(op, root, "sheet.replay_delta", || {
                plan.replay_delta(&mut state, &[]).expect("edit plays")
            });
            tracer.time(op, root, "json.serialize", || {
                std::hint::black_box(report_json(&report).to_string());
            });
            tracer.end(root, Instant::now());
            dirty.extend(state.last_dirty_rows().map(|d| d as f64));
            let now = store.wal_bytes(USER).unwrap_or(wal);
            if now > wal {
                wal_deltas.push((now - wal) as f64);
            }
            wal = now;
        }
        let app = app_with(&dir.join("app"), &[(INFOPAD, gen::INFOPAD_JSON)]);
        let handle = handle_percentiles(&app, &requests);
        let mut layers = Layers::finish(tracer, requests.len(), handle);
        layers.parsed_bytes = parsed_bytes;
        layers.wal_bytes_per_commit = crate::stats::mean(&wal_deltas);
        layers.dirty_rows = crate::stats::mean(&dirty);
        layers
    }

    /// `browse`: http parse → store load → (play) → serialize.
    pub fn browse(
        dir: &Path,
        registry: &Registry,
        designs: &[Design],
        ops: &[BrowseOp],
        tracer: &mut Tracer,
    ) -> Layers {
        let store = DesignStore::open(dir.join("store")).expect("in-process store opens");
        let mut plans = Vec::new();
        for d in designs {
            let sheet = oracle::decode(&d.body).expect("design decodes");
            store
                .save(USER, &d.name, &sheet, Some(0))
                .expect("seed save");
            plans.push(CompiledSheet::compile(&sheet, registry));
        }
        let requests: Vec<Vec<u8>> = ops
            .iter()
            .map(|op| gen::browse_request(op, designs))
            .collect();
        for (i, (op, raw)) in ops.iter().zip(&requests).enumerate() {
            let id = i as u64;
            let t0 = Instant::now();
            let root = tracer.span(id, None, "inproc.op", t0, t0);
            tracer.time(id, root, "web.http.parse", || parse_request(raw));
            let name = &designs[op.design].name;
            let (rev, sheet) = tracer.time(id, root, "store.load", || {
                store.load(USER, name).expect("load").expect("stored")
            });
            match op.kind {
                BrowseKind::Get => tracer.time(id, root, "json.serialize", || {
                    let doc = Json::object([
                        ("user", Json::from(USER)),
                        ("name", Json::from(name.as_str())),
                        ("rev", Json::from(rev as f64)),
                        ("design", sheet.to_json()),
                    ]);
                    std::hint::black_box(doc.to_string());
                }),
                BrowseKind::Conditional => {}
                BrowseKind::Play => {
                    let report = tracer.time(id, root, "sheet.play", || {
                        plans[op.design].play().expect("plays")
                    });
                    tracer.time(id, root, "json.serialize", || {
                        std::hint::black_box(report_json(&report).to_string());
                    });
                }
            }
            tracer.end(root, Instant::now());
        }
        let stored: Vec<(&str, &str)> = designs
            .iter()
            .map(|d| (d.name.as_str(), d.body.as_str()))
            .collect();
        let app = app_with(&dir.join("app"), &stored);
        // Warm the app's plan cache the way set-up warms the server's.
        for d in designs {
            let play = gen::request(
                "POST",
                &format!("{}/play", gen::design_path(&d.name)),
                &[],
                b"",
            );
            app.handle(&parse_request(&play));
        }
        let handle = handle_percentiles(&app, &requests);
        Layers::finish(tracer, requests.len(), handle)
    }

    /// `sweep`: http parse → JSON parse → store load → 64-point sweep →
    /// serialize the series.
    pub fn sweep(dir: &Path, registry: &Registry, sweeps: &[Sweep], tracer: &mut Tracer) -> Layers {
        let store = DesignStore::open(dir.join("store")).expect("in-process store opens");
        let base = oracle::decode(gen::INFOPAD_JSON).expect("InfoPad decodes");
        store
            .save(USER, INFOPAD, &base, Some(0))
            .expect("seed save");
        let plan = CompiledSheet::compile(&base, registry);
        let requests: Vec<Vec<u8>> = sweeps
            .iter()
            .map(|s| gen::sweep_request(&s.body()))
            .collect();
        let (mut parsed_bytes, mut points, mut sweep_ns) = (0, 0, 0u64);
        for (i, raw) in requests.iter().enumerate() {
            let op = i as u64;
            let t0 = Instant::now();
            let root = tracer.span(op, None, "inproc.op", t0, t0);
            let req = tracer.time(op, root, "web.http.parse", || parse_request(raw));
            let text = std::str::from_utf8(req.body()).expect("UTF-8 body");
            parsed_bytes += text.len();
            let json = tracer.time(op, root, "json.parse", || {
                Json::parse(text).expect("body parses")
            });
            let global = json["global"].as_str().expect("global");
            let values: Vec<f64> = json["values"]
                .as_array()
                .expect("values")
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            tracer.time(op, root, "store.load", || {
                std::hint::black_box(store.load(USER, INFOPAD).expect("load"));
            });
            let t = Instant::now();
            let curve = tracer.time(op, root, "sheet.sweep64", || {
                whatif::sweep_compiled(&plan, global, &values).expect("sweep plays")
            });
            sweep_ns += t.elapsed().as_nanos() as u64;
            points += values.len();
            tracer.time(op, root, "json.serialize", || {
                let series: Json = curve
                    .iter()
                    .map(|(v, r)| {
                        Json::object([
                            ("value", Json::from(*v)),
                            ("total_w", Json::from(r.total_power().value())),
                        ])
                    })
                    .collect();
                std::hint::black_box(Json::object([("series", series)]).to_string());
            });
            tracer.end(root, Instant::now());
        }
        let app = app_with(&dir.join("app"), &[(INFOPAD, gen::INFOPAD_JSON)]);
        let handle = handle_percentiles(&app, &requests);
        let mut layers = Layers::finish(tracer, requests.len(), handle);
        layers.parsed_bytes = parsed_bytes;
        layers.sweep_points = points;
        layers.sweep_s = sweep_ns as f64 / 1e9;
        layers
    }
}
