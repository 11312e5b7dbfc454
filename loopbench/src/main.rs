//! Loop benchmark for the PowerPlay server over the v1 API.
//!
//! Starts the release `powerplay-cli serve` binary on a fresh data
//! directory, drives one workload over loopback (`edit`, `browse` or
//! `sweep`), checks every answer against in-process reference totals
//! and the server's own counters, and prints the metrics. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! loopbench --server <powerplay-cli> --workload edit|browse|sweep|all
//!           --seed <n> --seconds <s> --trace 0|1 [--out <dir>]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! same loop untraced then traced, replays the inputs in-process layer
//! by layer, and reports the per-layer metrics. `loopbench/run.sh`
//! builds both binaries and runs this one.

mod cpu;
mod gen;
mod http;
mod layers;
mod loops;
mod oracle;
mod server;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use powerplay_json::Json;
use powerplay_library::Registry;

use crate::cpu::Placement;
use crate::gen::{BrowseOp, Design, Sweep, INFOPAD};
use crate::http::Conn;
use crate::layers::Layers;
use crate::loops::Phase;
use crate::server::{Delta, Server};
use crate::stats::{median, Percentiles};
use crate::trace::Tracer;

/// `browse` open-loop arrival rate, requests per second: about a quarter
/// of the saturation rate measured on a 2-CPU host when the rate was
/// frozen, so the open loop stays below saturation when neighbours on a
/// shared host take half the machine.
const BROWSE_RATE: f64 = 4000.0;

/// Requests the `browse` saturation phase keeps in flight.
const BROWSE_WINDOW: usize = 4;

/// Latency limit behind `browse`'s `slo_ok_ratio`, in ms.
const BROWSE_SLO_MS: f64 = 2.0;

/// Set-ups before the measured window, and again after it in an
/// untraced run; `setup_s` is the median of them all.
const SETUPS: usize = 8;

/// Warm-up operations at the end of each set-up.
const WARM_OPS: usize = 8;

const WORKLOADS: [&str; 3] = ["edit", "browse", "sweep"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    out: PathBuf,
    placement: Placement,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        server: PathBuf::from("target/release/powerplay-cli"),
        out: PathBuf::from("target/loopbench"),
        placement: Placement::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("{flag}: cannot parse `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("{flag}: `{value}`"))?
            }
            "--trace" => args.trace = value == "1",
            "--server" => args.server = value.into(),
            "--out" => args.out = value.into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be edit, browse, sweep or all, got `{}`",
            args.workload
        ));
    }
    Ok(args)
}

/// The generated inputs of one run and their reference answers.
struct Inputs {
    registry: Registry,
    designs: Vec<Design>,
    design_totals: Vec<String>,
    edits: Vec<String>,
    edit_totals: Vec<String>,
    sweeps: Vec<Sweep>,
    sweep_requests: Vec<Vec<u8>>,
    sweep_totals: Vec<Vec<String>>,
}

impl Inputs {
    fn generate(workload: &str, seed: u64) -> Result<Inputs, String> {
        let registry = oracle::registry();
        let mut inputs = Inputs {
            registry,
            designs: Vec::new(),
            design_totals: Vec::new(),
            edits: Vec::new(),
            edit_totals: Vec::new(),
            sweeps: Vec::new(),
            sweep_requests: Vec::new(),
            sweep_totals: Vec::new(),
        };
        match workload {
            "edit" => {
                inputs.edits = gen::edit_bodies(seed);
                inputs.edit_totals = oracle::edit_totals(&inputs.registry, &inputs.edits)?;
            }
            "browse" => {
                inputs.designs = gen::browse_designs(seed);
                inputs.design_totals = oracle::design_totals(&inputs.registry, &inputs.designs)?;
            }
            _ => {
                inputs.sweeps = gen::sweeps(seed);
                inputs.sweep_requests = inputs
                    .sweeps
                    .iter()
                    .map(|s| gen::sweep_request(&s.body()))
                    .collect();
                inputs.sweep_totals =
                    oracle::sweep_totals(&inputs.registry, gen::INFOPAD_JSON, &inputs.sweeps)?;
            }
        }
        Ok(inputs)
    }

    /// The designs the server stores at set-up.
    fn stored(&self) -> Vec<(&str, &str)> {
        if self.designs.is_empty() {
            vec![(INFOPAD, gen::INFOPAD_JSON)]
        } else {
            self.designs
                .iter()
                .map(|d| (d.name.as_str(), d.body.as_str()))
                .collect()
        }
    }
}

/// A set-up server with its connections.
struct Live {
    server: Server,
    conn: Conn,
    subscriber: Option<Conn>,
    /// The edited design's current revision.
    rev: u64,
}

fn expect_status(conn: &mut Conn, req: &[u8], status: u16, what: &str) -> Result<(), String> {
    conn.send(req).map_err(|e| format!("{what}: {e}"))?;
    let reply = conn.read_reply().map_err(|e| format!("{what}: {e}"))?;
    if reply.status != status {
        return Err(format!(
            "{what}: status {}, expected {status}: {}",
            reply.status,
            String::from_utf8_lossy(&reply.body)
        ));
    }
    Ok(())
}

/// Boots the server, imports the Liberty fixture over the API and
/// stores the workload's designs. Returns the live server and the
/// set-up time in seconds.
fn setup(args: &Args, inputs: &Inputs, dir: &Path) -> Result<(Live, f64), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let t0 = Instant::now();
    let server = Server::boot(
        &args.server,
        dir.join("data"),
        &dir.join("server.log"),
        args.placement.server_mask(),
    )?;
    let mut conn = Conn::open(server.addr).map_err(|e| format!("connect: {e}"))?;
    let import = gen::request(
        "POST",
        "/api/v1/libraries",
        &[],
        gen::LIBERTY_FIXTURE.as_bytes(),
    );
    expect_status(&mut conn, &import, 201, "library import")?;
    for (name, body) in inputs.stored() {
        let put = gen::request("PUT", &gen::design_path(name), &[], body.as_bytes());
        expect_status(&mut conn, &put, 201, &format!("store {name}"))?;
    }
    let secs = t0.elapsed().as_secs_f64();
    Ok((
        Live {
            server,
            conn,
            subscriber: None,
            rev: 1,
        },
        secs,
    ))
}

/// Subscribes the `edit` event stream and runs the warm-up operations,
/// so the measured window starts on a warm plan cache.
fn warm_up(live: &mut Live, workload: &str, inputs: &Inputs) -> Result<(), String> {
    let mut quiet = Tracer::new(Instant::now(), false);
    match workload {
        "edit" => {
            let mut sub = Conn::open(live.server.addr).map_err(|e| format!("connect: {e}"))?;
            let events = format!("{}/events", gen::design_path(INFOPAD));
            sub.send(&gen::request("GET", &events, &[], b""))
                .map_err(|e| format!("subscribe: {e}"))?;
            if sub
                .read_stream_head()
                .map_err(|e| format!("subscribe: {e}"))?
                != 200
            {
                return Err("event stream refused".into());
            }
            let snapshot = sub.read_event().map_err(|e| format!("snapshot: {e}"))?;
            if snapshot.name != "snapshot" {
                return Err(format!("stream opened with `{}`", snapshot.name));
            }
            let (phase, rev) = loops::edit_loop(
                &mut live.conn,
                &mut sub,
                &inputs.edits,
                &inputs.edit_totals,
                live.rev,
                0,
                WARM_OPS,
                f64::INFINITY,
                &mut quiet,
            );
            check_warm(&phase, "edit")?;
            live.rev = rev;
            live.subscriber = Some(sub);
        }
        "browse" => {
            for d in &inputs.designs {
                let play = gen::request(
                    "POST",
                    &format!("{}/play", gen::design_path(&d.name)),
                    &[],
                    b"",
                );
                expect_status(&mut live.conn, &play, 200, "warm play")?;
                let get = gen::request("GET", &gen::design_path(&d.name), &[], b"");
                expect_status(&mut live.conn, &get, 200, "warm get")?;
            }
        }
        _ => {
            let phase = loops::sweep_loop(
                &mut live.conn,
                &inputs.sweep_requests,
                &inputs.sweep_totals,
                0,
                WARM_OPS,
                f64::INFINITY,
                &mut quiet,
            );
            check_warm(&phase, "sweep")?;
        }
    }
    Ok(())
}

fn check_warm(phase: &Phase, what: &str) -> Result<(), String> {
    if let Some(m) = &phase.first_mismatch {
        return Err(format!("{what} warm-up: oracle mismatch: {m}"));
    }
    if phase.failed() > 0 {
        return Err(format!(
            "{what} warm-up: {} failed operations",
            phase.failed()
        ));
    }
    Ok(())
}

/// Sets up `count` servers one after another on fresh data
/// directories, appending each set-up time to `times`. Returns the last
/// server; every other one is stopped.
fn setups(
    args: &Args,
    inputs: &Inputs,
    run_dir: &Path,
    count: usize,
    times: &mut Vec<f64>,
) -> Result<Option<Live>, String> {
    let mut last = None;
    for _ in 0..count {
        // The previous server stops before the next one boots.
        drop(last.take());
        let dir = run_dir.join(format!("setup{}", times.len()));
        let (live, secs) = setup(args, inputs, &dir)?;
        times.push(secs);
        last = Some(live);
    }
    Ok(last)
}

/// What one measured window produced.
struct Window {
    phases: Vec<Phase>,
    delta: Delta,
    /// Server CPU time per completed operation during the first
    /// (latency) phase: one value per stretch for the closed loops, one
    /// for the whole open loop of `browse`.
    cpu_us_per_op: Vec<f64>,
    loadgen_cpu_us: f64,
    elapsed_s: f64,
}

impl Window {
    fn attempted(&self) -> usize {
        self.phases.iter().map(|p| p.samples.len()).sum()
    }

    fn completed(&self) -> usize {
        self.phases.iter().map(Phase::completed).sum()
    }

    fn mismatches(&self) -> Option<String> {
        self.phases
            .iter()
            .find_map(|p| p.first_mismatch.clone())
            .map(|m| {
                let n: usize = self.phases.iter().map(|p| p.mismatches).sum();
                format!("{n} oracle mismatches; first: {m}")
            })
    }
}

fn self_cpu_us() -> f64 {
    server::proc_cpu_us("/proc/self/stat")
}

/// Runs the workload's loop for `seconds` and collects counters around
/// it. `first` offsets the generated input sequence.
fn measure(
    workload: &str,
    live: &mut Live,
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    first: usize,
    tracer: &mut Tracer,
) -> Result<Window, String> {
    let before = server::scrape(&mut live.conn)?;
    let (cpu0, self0, t0) = (live.server.cpu_us(), self_cpu_us(), Instant::now());
    let mut cpu_us_per_op = Vec::new();
    let phases = match workload {
        "edit" => {
            let sub = live.subscriber.as_mut().expect("edit set-up subscribes");
            let (conn, rev) = (&mut live.conn, &mut live.rev);
            let phase = closed_loop(
                &live.server,
                seconds,
                first,
                &mut cpu_us_per_op,
                |i, secs| {
                    let (phase, next) = loops::edit_loop(
                        conn,
                        sub,
                        &inputs.edits,
                        &inputs.edit_totals,
                        *rev,
                        i,
                        usize::MAX,
                        secs,
                        tracer,
                    );
                    *rev = next;
                    phase
                },
            );
            vec![phase]
        }
        "browse" => {
            let open = browse_schedule(seed, first, inputs, seconds * browse_open_share(tracer));
            let (open_phase, sends) = loops::browse_open(
                &mut live.conn,
                &open,
                &inputs.designs,
                &inputs.design_totals,
                &|_| {},
            )
            .map_err(|e| format!("browse: {e}"))?;
            cpu_us_per_op
                .push((live.server.cpu_us() - cpu0) / open_phase.completed().max(1) as f64);
            record_browse_spans(tracer, &open_phase, &sends);
            let mut phases = vec![open_phase];
            if !tracer.enabled() {
                let mix = gen::browse_mix(seed ^ first as u64, inputs.designs.len(), 1 << 16);
                phases.push(loops::browse_saturate(
                    &mut live.conn,
                    &mix,
                    &inputs.designs,
                    &inputs.design_totals,
                    BROWSE_WINDOW,
                    seconds * (1.0 - browse_open_share(tracer)),
                ));
            }
            phases
        }
        _ => {
            let conn = &mut live.conn;
            vec![closed_loop(
                &live.server,
                seconds,
                first,
                &mut cpu_us_per_op,
                |i, secs| {
                    loops::sweep_loop(
                        conn,
                        &inputs.sweep_requests,
                        &inputs.sweep_totals,
                        i,
                        usize::MAX,
                        secs,
                        tracer,
                    )
                },
            )]
        }
    };
    let elapsed_s = t0.elapsed().as_secs_f64();
    let self1 = self_cpu_us();
    let after = server::scrape(&mut live.conn)?;
    Ok(Window {
        phases,
        delta: Delta::between(&before, &after),
        cpu_us_per_op,
        loadgen_cpu_us: self1 - self0,
        elapsed_s,
    })
}

/// Runs a closed loop for `seconds` as `SEGMENTS` back-to-back stretches,
/// reading the server's CPU time between them into `cpu_us_per_op`.
/// `run` gets the index of the first input and the stretch's length.
fn closed_loop(
    server: &Server,
    seconds: f64,
    first: usize,
    cpu_us_per_op: &mut Vec<f64>,
    mut run: impl FnMut(usize, f64) -> Phase,
) -> Phase {
    let mut phase = Phase::default();
    for _ in 0..loops::SEGMENTS {
        let before = server.cpu_us();
        let stretch = run(
            first + phase.samples.len(),
            seconds / loops::SEGMENTS as f64,
        );
        cpu_us_per_op.push((server.cpu_us() - before) / stretch.completed().max(1) as f64);
        phase.append(stretch);
    }
    phase
}

/// Share of a browse window spent on the open loop; the rest is the
/// saturation phase. A traced window is open loop only.
fn browse_open_share(tracer: &Tracer) -> f64 {
    if tracer.enabled() {
        1.0
    } else {
        0.5
    }
}

fn browse_schedule(seed: u64, first: usize, inputs: &Inputs, seconds: f64) -> Vec<BrowseOp> {
    gen::browse_schedule(
        seed ^ first as u64,
        inputs.designs.len(),
        BROWSE_RATE,
        seconds,
    )
}

fn record_browse_spans(tracer: &mut Tracer, phase: &Phase, sends: &[Instant]) {
    if !tracer.enabled() {
        return;
    }
    for (i, (s, &sent)) in phase.samples.iter().zip(sends).enumerate() {
        let due = sent - Duration::from_secs_f64(s.late_ms / 1e3);
        let done = sent + Duration::from_secs_f64(s.ack_ms / 1e3);
        let root = tracer.span(i as u64, None, "client.op", due, done);
        tracer.span(i as u64, Some(root), "client.queue", due, sent);
        tracer.span(i as u64, Some(root), "client.response", sent, done);
    }
}

/// The validity gates: counters that must move exactly as the workload
/// intends, or the run measured something else.
fn gates(workload: &str, window: &Window) -> Vec<String> {
    let d = &window.delta;
    let ops = window.attempted() as f64;
    let compiles = d.get("powerplay_sheet_compile_seconds_count");
    let misses = d.get("powerplay_web_plan_cache_misses_total");
    let mut failed = Vec::new();
    let mut gate = |ok: bool, what: String| {
        if !ok {
            failed.push(what);
        }
    };
    match workload {
        "edit" => {
            let commits = d.get("powerplay_store_commits_total");
            let published = d.get("powerplay_events_published_total");
            let dropped = d.get("powerplay_events_dropped_total");
            gate(
                commits == ops,
                format!("{commits} store commits for {ops} edits"),
            );
            gate(
                misses == ops,
                format!("{misses} plan-cache misses for {ops} edits"),
            );
            gate(
                published == ops,
                format!("{published} events published for {ops} edits"),
            );
            gate(dropped == 0.0, format!("{dropped} events dropped"));
        }
        "browse" => {
            let shed = d.get("powerplay_server_rejected_total");
            let errors = d.get("powerplay_http_requests_total{class=\"5xx\"}");
            gate(
                misses == 0.0,
                format!("{misses} plan-cache misses after warm-up"),
            );
            gate(
                compiles == 0.0,
                format!("{compiles} compiles after warm-up"),
            );
            gate(
                shed == 0.0 && errors == 0.0,
                format!("{shed} sheds, {errors} 5xx answers"),
            );
        }
        _ => {
            let points = d.get("powerplay_whatif_memo_hits_total")
                + d.get("powerplay_whatif_memo_misses_total");
            let want = ops * gen::SWEEP_POINTS as f64;
            gate(
                points == want,
                format!("{points} what-if points for {ops} sweeps"),
            );
            gate(
                compiles == 0.0,
                format!("{compiles} compiles during sweeps"),
            );
        }
    }
    failed
}

/// One metric: value, unit and the number of samples behind it.
#[derive(Clone)]
struct Metric {
    value: f64,
    unit: &'static str,
    n: usize,
}

type Metrics = BTreeMap<String, Metric>;

fn put(metrics: &mut Metrics, name: &str, value: f64, unit: &'static str, n: usize) {
    metrics.insert(name.to_owned(), Metric { value, unit, n });
}

/// Median over a phase's stretches of a per-stretch statistic.
///
/// The host changes speed from one second to the next as other tenants
/// come and go, and a burst can slow every stretch of a run. The median
/// stretch moved least between runs: over ten seeds of `sweep` during
/// such bursts the lower quartile of stretches spread 0.24 in `p50_ms`
/// and 0.17 in `cpu_us_per_op` (quartile distance ÷ median), because it
/// picked out the few seconds the host ran fast, while the median
/// stretch spread 0.12 and 0.11. A stretch (1.1 s of a 45 s run) is long
/// enough to hold the server's own periodic work, such as a WAL
/// compaction every ~300 commits (about 0.5 s of `edit`).
fn segment_median(phase: &Phase, stat: impl Fn(&Phase) -> f64) -> f64 {
    let values: Vec<f64> = phase
        .segments()
        .iter()
        .filter(|s| !s.samples.is_empty())
        .map(stat)
        .collect();
    median(&values)
}

/// The end-to-end metrics of an untraced window. Latencies, CPU per
/// operation, ratios and throughput are the median over the phase's
/// stretches of each stretch's value.
fn end_to_end(workload: &str, window: &Window, setups: &[f64], rss_mb: f64) -> Metrics {
    let mut m = Metrics::new();
    let latency_phase = &window.phases[0];
    let throughput_phase = window.phases.last().expect("one phase at least");
    let n = latency_phase.completed();
    let completed = window.completed();
    let pct = |f: fn(&loops::Sample) -> f64, q: fn(&Percentiles) -> f64| {
        segment_median(latency_phase, |s| q(&Percentiles::of(&s.ok_samples(f))))
    };
    put(&mut m, "setup_s", median(setups), "s", setups.len());
    put(&mut m, "p50_ms", pct(|s| s.latency_ms, |p| p.p50), "ms", n);
    put(&mut m, "p75_ms", pct(|s| s.latency_ms, |p| p.p75), "ms", n);
    put(&mut m, "p90_ms", pct(|s| s.latency_ms, |p| p.p90), "ms", n);
    // Too few operations lie beyond a stretch's 99th percentile, so the
    // p99 is taken over the whole phase.
    let whole = Percentiles::of(&latency_phase.ok_samples(|s| s.latency_ms));
    put(&mut m, "p99_ms", whole.p99, "ms", n);
    if workload == "edit" {
        put(
            &mut m,
            "commit_p50_ms",
            pct(|s| s.ack_ms, |p| p.p50),
            "ms",
            n,
        );
    }
    put(
        &mut m,
        "throughput_ops",
        segment_median(throughput_phase, |s| s.completed() as f64 / s.elapsed_s),
        "1/s",
        throughput_phase.completed(),
    );
    put(
        &mut m,
        "fail_ratio",
        (window.attempted() - completed) as f64 / window.attempted().max(1) as f64,
        "ratio",
        window.attempted(),
    );
    put(
        &mut m,
        "cpu_us_per_op",
        median(&window.cpu_us_per_op),
        "us",
        n,
    );
    put(&mut m, "rss_mb", rss_mb, "MB", 1);
    if workload == "browse" {
        let slo = segment_median(latency_phase, |s| {
            let within = s
                .samples
                .iter()
                .filter(|x| x.ok && x.latency_ms <= BROWSE_SLO_MS)
                .count();
            within as f64 / s.samples.len() as f64
        });
        put(
            &mut m,
            "slo_ok_ratio",
            slo,
            "ratio",
            latency_phase.samples.len(),
        );
    }
    m
}

/// The per-layer metrics of a traced run.
fn per_layer(workload: &str, untraced: &Window, traced: &Window, layers: &Layers) -> Metrics {
    let mut m = Metrics::new();
    let d = &traced.delta;
    let ops = traced.attempted().max(1) as f64;
    let n = traced.attempted();
    let phase = &traced.phases[0];
    // The socket time of one operation, from the request being sent:
    // until the event for an edit, until the response otherwise.
    let socket = |p: &Phase| {
        if workload == "browse" {
            Percentiles::of(&p.ok_samples(|s| s.ack_ms))
        } else {
            Percentiles::of(&p.ok_samples(|s| s.latency_ms))
        }
    };
    let socket_traced = socket(phase);
    let socket_untraced = socket(&untraced.phases[0]);
    let own = |name: &str| layers.self_us.get(name).copied().unwrap_or(0.0);
    let li = layers.ops;
    let hits = d.get("powerplay_web_plan_cache_hits_total");
    let misses = d.get("powerplay_web_plan_cache_misses_total");
    let layer_names = [
        "web.http.parse",
        "json.parse",
        "json.serialize",
        "sheet.decode",
        "sheet.compile",
        "sheet.play",
        "sheet.replay_delta",
        "sheet.sweep64",
        "store.save",
        "store.load",
    ];
    let attributed: f64 = layer_names.iter().map(|l| own(l)).sum();
    let after_commit = if workload == "edit" {
        Percentiles::of(&phase.ok_samples(|s| (s.latency_ms - s.ack_ms) * 1e3))
    } else {
        Percentiles::of(&[])
    };
    let late = Percentiles::of(&phase.samples.iter().map(|s| s.late_ms).collect::<Vec<_>>());

    put(&mut m, "json.parse_us", own("json.parse"), "us", li);
    let ns_per_byte = if layers.parsed_bytes == 0 {
        0.0
    } else {
        layers.parse_ns / layers.parsed_bytes as f64
    };
    put(&mut m, "json.parse_ns_per_byte", ns_per_byte, "ns/B", li);
    put(&mut m, "json.serialize_us", own("json.serialize"), "us", li);
    put(&mut m, "sheet.decode_us", own("sheet.decode"), "us", li);
    put(&mut m, "sheet.compile_us", own("sheet.compile"), "us", li);
    put(
        &mut m,
        "sheet.compiles_per_op",
        d.get("powerplay_sheet_compile_seconds_count") / ops,
        "count",
        n,
    );
    if workload == "browse" {
        put(&mut m, "sheet.play_us", own("sheet.play"), "us", li);
    }
    put(
        &mut m,
        "sheet.replay_delta_us",
        own("sheet.replay_delta"),
        "us",
        li,
    );
    put(
        &mut m,
        "sheet.delta_dirty_rows",
        layers.dirty_rows,
        "count",
        li,
    );
    put(&mut m, "sheet.sweep64_us", own("sheet.sweep64"), "us", li);
    let points_per_s = if layers.sweep_s > 0.0 {
        layers.sweep_points as f64 / layers.sweep_s
    } else {
        0.0
    };
    put(&mut m, "sheet.sweep_points_per_s", points_per_s, "1/s", li);
    put(
        &mut m,
        "whatif.task_us",
        d.mean("powerplay_whatif_task_seconds") * 1e6,
        "us",
        d.get("powerplay_whatif_task_seconds_count") as usize,
    );
    put(&mut m, "store.save_us", own("store.save"), "us", li);
    put(
        &mut m,
        "store.commit_us_per_op",
        d.get("powerplay_store_commit_seconds_sum") * 1e6 / ops,
        "us",
        n,
    );
    put(
        &mut m,
        "store.wal_bytes_per_commit",
        layers.wal_bytes_per_commit,
        "B",
        li,
    );
    put(
        &mut m,
        "store.compactions",
        d.get("powerplay_store_compactions_total"),
        "count",
        n,
    );
    put(&mut m, "store.load_us", own("store.load"), "us", li);
    let hit_ratio = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    put(
        &mut m,
        "web.plan_cache.hit_ratio",
        hit_ratio,
        "ratio",
        (hits + misses) as usize,
    );
    put(
        &mut m,
        "web.plan_cache.misses_per_op",
        misses / ops,
        "count",
        n,
    );
    put(&mut m, "web.http.parse_us", own("web.http.parse"), "us", li);
    put(
        &mut m,
        "web.app.handle_us",
        layers.handle.p50,
        "us",
        layers.handle.n,
    );
    put(
        &mut m,
        "web.socket_remainder_us",
        socket_traced.p50 * 1e3 - layers.handle.p50,
        "us",
        socket_traced.n,
    );
    put(
        &mut m,
        "web.reactor.wakeups_per_op",
        d.get("powerplay_reactor_wakeups_total") / ops,
        "count",
        n,
    );
    put(
        &mut m,
        "web.http.server_us_per_op",
        d.get("powerplay_http_request_seconds_sum") * 1e6 / ops,
        "us",
        n,
    );
    put(
        &mut m,
        "events.after_commit_us",
        after_commit.p50,
        "us",
        after_commit.n,
    );
    put(
        &mut m,
        "events.published_per_op",
        d.get("powerplay_events_published_total") / ops,
        "count",
        n,
    );
    put(
        &mut m,
        "events.lag_us",
        d.mean("powerplay_events_lag_seconds") * 1e6,
        "us",
        d.get("powerplay_events_lag_seconds_count") as usize,
    );
    put(&mut m, "liberty.import_us", layers.import_us, "us", 7);
    put(
        &mut m,
        "liberty.cells_mapped",
        layers.cells_mapped,
        "count",
        1,
    );
    if workload == "browse" {
        put(&mut m, "loadgen.late_p99_ms", late.p99, "ms", late.n);
    }
    put(
        &mut m,
        "loadgen.cpu_us_per_op",
        traced.loadgen_cpu_us / ops,
        "us",
        n,
    );
    let overhead = if socket_untraced.p50 > 0.0 {
        socket_traced.p50 / socket_untraced.p50
    } else {
        0.0
    };
    put(
        &mut m,
        "trace.overhead_ratio",
        overhead,
        "ratio",
        socket_traced.n,
    );
    put(
        &mut m,
        "unattributed_us",
        socket_traced.p50 * 1e3 - attributed,
        "us",
        socket_traced.n,
    );
    m
}

/// Median time of a 4 KiB write plus `fdatasync` in `dir`, in µs.
fn fsync_probe(dir: &Path) -> f64 {
    use std::io::Write;
    let path = dir.join("fsync-probe");
    let Ok(mut file) = std::fs::File::create(&path) else {
        return 0.0;
    };
    let block = [0x5au8; 4096];
    let times: Vec<f64> = (0..16)
        .filter_map(|_| {
            let t = Instant::now();
            file.write_all(&block).ok()?;
            file.sync_data().ok()?;
            Some(t.elapsed().as_secs_f64() * 1e6)
        })
        .collect();
    let _ = std::fs::remove_file(&path);
    median(&times)
}

/// The commit the checkout was made from, read from `.git` when there
/// is one.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .and_then(|l| l.split(' ').next())
                            .map(str::to_owned)
                    })
            })
            .unwrap_or_default(),
        None => head.to_owned(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev.chars().take(12).collect()
    }
}

/// The run record: the metrics plus what they must be read against.
fn write_record(
    args: &Args,
    workload: &str,
    metrics: &Metrics,
    context: &[(&str, Json)],
) -> PathBuf {
    let pinned = |cpu: fn((usize, usize)) -> usize| {
        args.placement
            .pinned
            .map_or(Json::Null, |p| Json::from(cpu(p)))
    };
    let mut fields: Vec<(&str, Json)> = vec![
        ("workload", Json::from(workload)),
        ("seed", Json::from(args.seed as f64)),
        ("seconds", Json::from(args.seconds)),
        ("trace", Json::from(args.trace)),
        ("host_cpus", Json::from(args.placement.host_cpus)),
        ("loadgen_cpu", pinned(|p| p.0)),
        ("server_cpu", pinned(|p| p.1)),
        ("git_rev", Json::from(git_rev())),
        (
            "build_profile",
            Json::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("server", Json::from(args.server.display().to_string())),
    ];
    fields.extend(context.iter().cloned());
    fields.push((
        "metrics",
        Json::object(metrics.iter().map(|(k, m)| {
            (
                k.as_str(),
                Json::object([
                    ("value", Json::from(m.value)),
                    ("unit", Json::from(m.unit)),
                    ("samples", Json::from(m.n)),
                ]),
            )
        })),
    ));
    let path = args.out.join(format!(
        "record-{workload}-seed{}-trace{}.json",
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::write(&path, Json::object(fields).to_pretty());
    path
}

/// The result of one workload run.
struct Outcome {
    metrics: Metrics,
    attempted: usize,
    failed: usize,
    /// Oracle mismatches and failed validity gates.
    problems: Vec<String>,
}

fn run_workload(args: &Args, workload: &str) -> Result<Outcome, String> {
    let run_dir = args
        .out
        .join(format!("run-{}-{workload}", std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let result = run_in(args, workload, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    result
}

fn run_in(args: &Args, workload: &str, run_dir: &Path) -> Result<Outcome, String> {
    let inputs = Inputs::generate(workload, args.seed)?;
    let mut setup_times = Vec::new();
    let mut live =
        setups(args, &inputs, run_dir, SETUPS, &mut setup_times)?.expect("the kept set-up");
    warm_up(&mut live, workload, &inputs)?;
    let fsync_us = fsync_probe(&live.server.data_dir);
    let origin = Instant::now();
    let mut problems = Vec::new();
    let (metrics, window) = if args.trace {
        let half = args.seconds / 2.0;
        let mut off = Tracer::new(origin, false);
        let untraced = measure(
            workload, &mut live, &inputs, args.seed, half, WARM_OPS, &mut off,
        )?;
        let mut client = Tracer::new(origin, true);
        let first = WARM_OPS + untraced.attempted();
        let traced = measure(
            workload,
            &mut live,
            &inputs,
            args.seed,
            half,
            first,
            &mut client,
        )?;
        drop(live);
        let mut inproc = Tracer::new(Instant::now(), true);
        let dir = run_dir.join("inproc");
        let layers = match workload {
            "edit" => Layers::edit(&dir, &inputs.registry, &inputs.edits, &mut inproc),
            "browse" => {
                let ops = browse_schedule(args.seed, 0, &inputs, 0.5);
                Layers::browse(&dir, &inputs.registry, &inputs.designs, &ops, &mut inproc)
            }
            _ => Layers::sweep(&dir, &inputs.registry, &inputs.sweeps, &mut inproc),
        };
        for (name, tracer) in [("client", &client), ("inproc", &inproc)] {
            let path = args
                .out
                .join(format!("spans-{workload}-seed{}-{name}.jsonl", args.seed));
            tracer
                .write(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        for w in [&untraced, &traced] {
            problems.extend(w.mismatches());
            problems.extend(gates(workload, w));
        }
        (per_layer(workload, &untraced, &traced, &layers), traced)
    } else {
        let mut off = Tracer::new(origin, false);
        let window = measure(
            workload,
            &mut live,
            &inputs,
            args.seed,
            args.seconds,
            WARM_OPS,
            &mut off,
        )?;
        let rss = live.server.peak_rss_mb();
        drop(live);
        drop(setups(args, &inputs, run_dir, SETUPS, &mut setup_times)?);
        problems.extend(window.mismatches());
        problems.extend(gates(workload, &window));
        (end_to_end(workload, &window, &setup_times, rss), window)
    };
    let late = Percentiles::of(
        &window.phases[0]
            .samples
            .iter()
            .map(|s| s.late_ms)
            .collect::<Vec<_>>(),
    );
    let attempted = window.attempted();
    let per_stretch = |q: fn(&Percentiles) -> f64| {
        Json::array(
            window.phases[0]
                .segments()
                .iter()
                .map(|s| Json::from(q(&Percentiles::of(&s.ok_samples(|x| x.latency_ms))))),
        )
    };
    let context = [
        ("host.fsync_us", Json::from(fsync_us)),
        ("loadgen.late_p99_ms", Json::from(late.p99)),
        (
            "loadgen.cpu_us_per_op",
            Json::from(window.loadgen_cpu_us / attempted.max(1) as f64),
        ),
        ("window_s", Json::from(window.elapsed_s)),
        ("browse_rate_per_s", Json::from(BROWSE_RATE)),
        ("browse_window", Json::from(BROWSE_WINDOW)),
        ("browse_slo_ms", Json::from(BROWSE_SLO_MS)),
        ("stretch_p50_ms", per_stretch(|p| p.p50)),
        ("stretch_p75_ms", per_stretch(|p| p.p75)),
        ("stretch_p90_ms", per_stretch(|p| p.p90)),
        (
            "stretch_cpu_us_per_op",
            Json::array(window.cpu_us_per_op.iter().map(|&c| Json::from(c))),
        ),
        (
            "setup_s_samples",
            Json::array(setup_times.iter().map(|&s| Json::from(s))),
        ),
        (
            "problems",
            Json::array(problems.iter().map(|p| Json::from(p.as_str()))),
        ),
    ];
    let record = write_record(args, workload, &metrics, &context);
    eprintln!(
        "loopbench: {workload}: record written to {}",
        record.display()
    );
    Ok(Outcome {
        metrics,
        attempted,
        failed: attempted - window.completed(),
        problems,
    })
}

/// The end-to-end metrics `BENCHMARK.json` lists; every workload
/// reports them. The others are printed and recorded only:
/// `commit_p50_ms` (`edit` only) and `slo_ok_ratio` (`browse` only) are
/// not measured on every workload; `fail_ratio` is normally 0 and
/// travels as `failed`/`attempted`; `p90_ms`, `p99_ms` and
/// `throughput_ops` (the inverse of the mean latency in a closed loop)
/// swing too much between runs on a shared host to carry a bound. Time
/// the host steals from the server's CPU lands on whichever operations
/// are running: a stretch's `p90_ms` followed the stolen time with a
/// correlation above 0.9 on `edit`, so `p75_ms` is the bounded watch
/// above the median.
const END_TO_END: [&str; 5] = ["setup_s", "p50_ms", "p75_ms", "cpu_us_per_op", "rss_mb"];

fn main() {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loopbench: {e}");
            std::process::exit(2);
        }
    };
    args.placement = match Placement::take() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("loopbench: {e}");
            std::process::exit(2);
        }
    };
    if !args.server.is_file() {
        eprintln!("loopbench: no server binary at {}", args.server.display());
        std::process::exit(2);
    }
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("loopbench: {}: {e}", args.out.display());
        std::process::exit(2);
    }
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let (mut attempted, mut failed, mut problems) = (0, 0, Vec::new());
    let mut reported: Vec<(String, Metric)> = Vec::new();
    for workload in &workloads {
        let outcome = match run_workload(&args, workload) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("loopbench: {workload}: {e}");
                std::process::exit(1);
            }
        };
        for (name, m) in &outcome.metrics {
            println!(
                "{workload:<7} {name:<28} {:>14.6} {:<6} (n={})",
                m.value, m.unit, m.n
            );
        }
        attempted += outcome.attempted;
        failed += outcome.failed;
        problems.extend(outcome.problems.iter().map(|p| format!("{workload}: {p}")));
        for (name, m) in outcome.metrics {
            if args.trace || END_TO_END.contains(&name.as_str()) {
                let key = if workloads.len() > 1 {
                    format!("{workload}.{name}")
                } else {
                    name
                };
                reported.push((key, m));
            }
        }
    }
    for p in &problems {
        eprintln!("loopbench: INVALID: {p}");
    }
    let metrics = Json::object(reported.iter().map(|(k, m)| {
        (
            k.as_str(),
            Json::object([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
        )
    }));
    let result = Json::object([
        ("correct", Json::from(problems.is_empty())),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", metrics),
    ]);
    println!("{result}");
    if !problems.is_empty() {
        std::process::exit(1);
    }
}
