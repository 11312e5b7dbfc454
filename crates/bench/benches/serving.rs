//! Serving-path benchmark: boots the real socket server and hammers
//! `GET /api/v1/designs/demo/infopad` (the paper's InfoPad system, a
//! revision-tagged store read) in two shapes:
//!
//! - `sequential` — one client, a fresh TCP connection per request
//!   (`Connection: close`), matching how this bench measured the old
//!   blocking server, so the number stays comparable across commits.
//! - `concurrent_128` — 128 keep-alive connections, each pipelining
//!   batches of 8 GETs; the readiness reactor's intended load shape.
//!
//! Both sections land in `BENCH_serving.json` together with a full
//! [`powerplay_telemetry::TelemetrySnapshot`], so the serving numbers
//! *and* the telemetry that explains them (latency quantiles, reactor
//! wakeups, shed counts) can be diffed across commits.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use powerplay::Sheet;
use powerplay_bench::banner;
use powerplay_json::Json;
use powerplay_web::app::PowerPlayApp;
use powerplay_web::http::{read_response, ServerConfig, Status};

const CLIENTS: usize = 128;
const PIPELINE_DEPTH: usize = 8;
const CONCURRENT_SECS: f64 = 2.0;
const SEQUENTIAL_SECS: f64 = 1.5;

fn main() {
    banner("serving path (InfoPad via GET /api/v1/designs/demo/infopad)");
    // The bench is closed-loop on one host: clients and server share the
    // same cores, and batch latency floors at in_flight / throughput
    // (Little's law), so the CPU count is part of the result.
    let host_cpus = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    println!("host cpus: {host_cpus}");

    let dir = std::env::temp_dir().join(format!("powerplay-bench-serving-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let app = PowerPlayApp::new(powerplay::ucb_library(), dir);

    let text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../examples/designs/infopad.json"),
    )
    .expect("read InfoPad design");
    let sheet = Sheet::from_json(&Json::parse(&text).expect("parse")).expect("load");
    app.store()
        .save("demo", "infopad", &sheet, None)
        .expect("seed");

    // Shed thresholds sized for the load shape: 128 connections with 8
    // requests in flight each must never see a 503.
    let server = app
        .serve_with(
            "127.0.0.1:0",
            ServerConfig {
                queue_capacity: 2 * CLIENTS * PIPELINE_DEPTH,
                max_connections: 4 * CLIENTS,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
    let addr = server.addr();
    let path = "/api/v1/designs/demo/infopad";

    let sequential = run_sequential(addr, path);
    println!(
        "requests/sec (sequential, fresh connection per request): {:.0}",
        sequential
    );

    let concurrent = run_concurrent(addr, path);
    println!(
        "requests/sec ({CLIENTS} keep-alive clients, pipeline depth {PIPELINE_DEPTH}): {:.0}",
        concurrent.requests_per_sec
    );
    println!(
        "batch latency p50 {:.2} ms, p99 {:.2} ms ({} batches of {PIPELINE_DEPTH}); errors: {}",
        concurrent.batch_p50_ms, concurrent.batch_p99_ms, concurrent.batches, concurrent.errors
    );
    println!(
        "speedup over sequential: {:.1}x",
        concurrent.requests_per_sec / sequential.max(1.0)
    );

    let snapshot = powerplay_telemetry::global().snapshot();
    if let Some(h) = snapshot.histogram("powerplay_http_request_seconds") {
        for (label, q) in [("p50", 0.5), ("p99", 0.99)] {
            if let Some(v) = h.quantile_seconds(q).filter(|v| v.is_finite()) {
                println!(
                    "server-side request {label} <= {:.1} us (log2 bucket bound)",
                    v * 1e6
                );
            }
        }
    }

    let body = Json::object([
        ("host_cpus", Json::from(host_cpus as f64)),
        (
            "sequential",
            Json::object([
                ("requests_per_sec", Json::from(sequential)),
                ("clients", Json::from(1.0)),
            ]),
        ),
        (
            "concurrent_128",
            Json::object([
                ("requests_per_sec", Json::from(concurrent.requests_per_sec)),
                ("clients", Json::from(CLIENTS as f64)),
                ("pipeline_depth", Json::from(PIPELINE_DEPTH as f64)),
                ("requests", Json::from(concurrent.requests as f64)),
                ("errors", Json::from(concurrent.errors as f64)),
                ("batch_p50_ms", Json::from(concurrent.batch_p50_ms)),
                ("batch_p99_ms", Json::from(concurrent.batch_p99_ms)),
            ]),
        ),
        ("telemetry", snapshot.to_json()),
    ]);
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_serving.json");
    match std::fs::write(&out, format!("{}\n", body.to_pretty())) {
        Ok(()) => println!("recorded {}", out.display()),
        Err(e) => eprintln!("could not record {}: {e}", out.display()),
    }

    server.shutdown();
}

/// One client, one request per fresh connection — the pre-reactor
/// measurement shape (and the worst case for the accept path).
fn run_sequential(addr: std::net::SocketAddr, path: &str) -> f64 {
    let request = format!("GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n");
    let one = |_: &mut u64| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request.as_bytes()).expect("send");
        let response = read_response(&mut BufReader::new(stream)).expect("response");
        assert_eq!(response.status(), Status::Ok);
        assert!(response.body_text().contains("InfoPad System"));
    };
    // Brief warmup, then a timed loop.
    let warmup = Instant::now();
    let mut scratch = 0u64;
    while warmup.elapsed() < Duration::from_secs_f64(SEQUENTIAL_SECS / 10.0) {
        one(&mut scratch);
    }
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < Duration::from_secs_f64(SEQUENTIAL_SECS) {
        one(&mut scratch);
        iters += 1;
    }
    iters as f64 / start.elapsed().as_secs_f64()
}

struct ConcurrentResult {
    requests_per_sec: f64,
    requests: u64,
    errors: u64,
    batches: usize,
    batch_p50_ms: f64,
    batch_p99_ms: f64,
}

/// 128 keep-alive connections, each writing batches of 8 pipelined GETs
/// and reading all 8 responses back — every response is awaited, so a
/// lost or out-of-order response shows up as an error, not silence.
fn run_concurrent(addr: std::net::SocketAddr, path: &str) -> ConcurrentResult {
    let stop = Arc::new(AtomicBool::new(false));
    let batch: Vec<u8> = format!("GET {path} HTTP/1.1\r\nConnection: keep-alive\r\n\r\n")
        .into_bytes()
        .repeat(PIPELINE_DEPTH);

    let workers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let batch = batch.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).expect("nodelay");
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = BufReader::new(stream);
                let mut requests = 0u64;
                let mut errors = 0u64;
                let mut latencies_ns: Vec<u64> = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    if writer.write_all(&batch).is_err() {
                        errors += PIPELINE_DEPTH as u64;
                        break;
                    }
                    for _ in 0..PIPELINE_DEPTH {
                        match read_response(&mut reader) {
                            Ok(r)
                                if r.status() == Status::Ok
                                    && r.body_text().contains("InfoPad System") => {}
                            _ => errors += 1,
                        }
                        requests += 1;
                    }
                    latencies_ns.push(t0.elapsed().as_nanos() as u64);
                }
                (requests, errors, latencies_ns)
            })
        })
        .collect();

    let start = Instant::now();
    std::thread::sleep(Duration::from_secs_f64(CONCURRENT_SECS));
    stop.store(true, Ordering::Relaxed);
    let mut requests = 0u64;
    let mut errors = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    for worker in workers {
        let (r, e, l) = worker.join().expect("client thread");
        requests += r;
        errors += e;
        latencies.extend(l);
    }
    let elapsed = start.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let quantile = |q: f64| -> f64 {
        if latencies.is_empty() {
            return f64::NAN;
        }
        let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
        latencies[idx] as f64 / 1e6
    };
    ConcurrentResult {
        requests_per_sec: requests as f64 / elapsed,
        requests,
        errors,
        batches: latencies.len(),
        batch_p50_ms: quantile(0.5),
        batch_p99_ms: quantile(0.99),
    }
}
