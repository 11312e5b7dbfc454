//! The socket loops: what each workload sends, how it is timed and how
//! every answer is checked against the in-process oracle.

use std::collections::VecDeque;
use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::gen::{self, BrowseKind, BrowseOp, Design};
use crate::http::{total_w_tokens, Conn};
use crate::trace::Tracer;

/// Outcome of one operation. Times are milliseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sample {
    /// Completed with the expected status (and event, for edits).
    pub ok: bool,
    /// The operation's latency: edits until the event arrives, open-loop
    /// requests from their due time.
    pub latency_ms: f64,
    /// From the request being sent to its response (the commit
    /// acknowledgement for an edit).
    pub ack_ms: f64,
    /// How late the generator sent an open-loop request.
    pub late_ms: f64,
    /// When the operation ended, in seconds since the phase started.
    pub at_s: f64,
}

/// The samples of one phase plus the oracle's verdict on them.
#[derive(Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    pub mismatches: usize,
    pub first_mismatch: Option<String>,
    pub elapsed_s: f64,
}

impl Phase {
    fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        self.first_mismatch.get_or_insert(what);
    }

    pub fn completed(&self) -> usize {
        self.samples.iter().filter(|s| s.ok).count()
    }

    pub fn failed(&self) -> usize {
        self.samples.len() - self.completed()
    }

    /// Appends a phase that ran right after this one.
    pub fn append(&mut self, next: Phase) {
        let offset = self.elapsed_s;
        self.samples
            .extend(next.samples.into_iter().map(|s| Sample {
                at_s: s.at_s + offset,
                ..s
            }));
        self.mismatches += next.mismatches;
        if let Some(m) = next.first_mismatch {
            self.first_mismatch.get_or_insert(m);
        }
        self.elapsed_s += next.elapsed_s;
    }

    pub fn ok_samples(&self, f: impl Fn(&Sample) -> f64) -> Vec<f64> {
        self.samples.iter().filter(|s| s.ok).map(f).collect()
    }

    /// The phase cut into `SEGMENTS` equal stretches of time by when
    /// each operation ended.
    pub fn segments(&self) -> Vec<Phase> {
        let span = self.elapsed_s.max(1e-9) / SEGMENTS as f64;
        let mut out: Vec<Phase> = (0..SEGMENTS)
            .map(|_| Phase {
                elapsed_s: span,
                ..Phase::default()
            })
            .collect();
        for s in &self.samples {
            let k = ((s.at_s / span) as usize).min(SEGMENTS - 1);
            out[k].samples.push(*s);
        }
        out
    }
}

/// Stretches a phase is cut into. Statistics are taken per stretch and
/// the median stretch reported (see `main.rs`), so interference from
/// outside the benchmark moves a few stretches, not the result.
pub const SEGMENTS: usize = 40;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `edit`: PUT each edited body with `If-Match` of the current revision
/// and wait for the subscriber to read the matching `revision` frame.
/// Runs for `seconds` or `max_ops` edits, whichever ends first, and
/// returns the phase and the revision the design ends at.
#[allow(clippy::too_many_arguments)]
pub fn edit_loop(
    editor: &mut Conn,
    subscriber: &mut Conn,
    bodies: &[String],
    expected: &[String],
    mut rev: u64,
    first: usize,
    max_ops: usize,
    seconds: f64,
    tracer: &mut Tracer,
) -> (Phase, u64) {
    let mut phase = Phase::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds.min(3600.0));
    let mut i = first;
    while Instant::now() < deadline && phase.samples.len() < max_ops {
        let k = i % bodies.len();
        let req = gen::edit_request(&bodies[k], rev);
        let want = rev + 1;
        let t0 = Instant::now();
        if editor.send(&req).is_err() {
            phase.samples.push(Sample::default());
            break;
        }
        let t1 = Instant::now();
        let Ok(reply) = editor.read_reply() else {
            phase.samples.push(Sample::default());
            break;
        };
        let t_ack = Instant::now();
        let mut sample = Sample {
            ack_ms: ms(t_ack - t0),
            at_s: (t_ack - start).as_secs_f64(),
            ..Sample::default()
        };
        if reply.status != 200 {
            phase.samples.push(sample);
            i += 1;
            continue;
        }
        if reply.etag.as_deref() != Some(&format!("\"{want}\"")) {
            phase.mismatch(format!(
                "edit {i}: ETag {:?}, expected \"{want}\"",
                reply.etag
            ));
        }
        rev = want;
        let event = loop {
            match subscriber.read_event() {
                Ok(e) if e.name == "revision" && e.id == Some(want) => break Some(e),
                Ok(_) => continue,
                Err(_) => break None,
            }
        };
        let t_event = Instant::now();
        if let Some(event) = event {
            let got = total_w_tokens(&event.data);
            if got != [expected[k].as_str()] {
                phase.mismatch(format!(
                    "edit {i}: total_w {got:?}, expected {}",
                    expected[k]
                ));
            }
            sample.ok = true;
            sample.latency_ms = ms(t_event - t0);
            sample.at_s = (t_event - start).as_secs_f64();
            if tracer.enabled() {
                let op = i as u64;
                let root = tracer.span(op, None, "client.op", t0, t_event);
                tracer.span(op, Some(root), "client.send", t0, t1);
                tracer.span(op, Some(root), "client.response", t1, t_ack);
                tracer.span(op, Some(root), "client.event", t_ack, t_event);
            }
        }
        phase.samples.push(sample);
        i += 1;
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    (phase, rev)
}

/// `sweep`: one 64-point sweep request at a time on one connection,
/// for `seconds` or `max_ops` requests, whichever ends first.
pub fn sweep_loop(
    conn: &mut Conn,
    requests: &[Vec<u8>],
    expected: &[Vec<String>],
    first: usize,
    max_ops: usize,
    seconds: f64,
    tracer: &mut Tracer,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds.min(3600.0));
    let mut i = first;
    while Instant::now() < deadline && phase.samples.len() < max_ops {
        let k = i % requests.len();
        let t0 = Instant::now();
        if conn.send(&requests[k]).is_err() {
            phase.samples.push(Sample::default());
            break;
        }
        let t1 = Instant::now();
        let Ok(reply) = conn.read_reply() else {
            phase.samples.push(Sample::default());
            break;
        };
        let t2 = Instant::now();
        let ok = reply.status == 200;
        if ok {
            let text = String::from_utf8_lossy(&reply.body);
            let got = total_w_tokens(&text);
            if got.len() != expected[k].len() || got.iter().zip(&expected[k]).any(|(g, e)| g != e) {
                phase.mismatch(format!("sweep {i}: series differs from play_with"));
            }
        }
        if tracer.enabled() {
            let op = i as u64;
            let root = tracer.span(op, None, "client.op", t0, t2);
            tracer.span(op, Some(root), "client.send", t0, t1);
            tracer.span(op, Some(root), "client.response", t1, t2);
        }
        phase.samples.push(Sample {
            ok,
            latency_ms: ms(t2 - t0),
            ack_ms: ms(t2 - t0),
            late_ms: 0.0,
            at_s: (t2 - start).as_secs_f64(),
        });
        i += 1;
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    phase
}

/// Checks one browse answer; returns whether the status was the
/// expected one, and reports content mismatches to `phase`.
fn check_browse(
    phase: &mut Phase,
    i: usize,
    op: &BrowseOp,
    reply: &crate::http::Reply,
    designs: &[Design],
    totals: &[String],
) -> bool {
    let (status, etag) = match op.kind {
        BrowseKind::Get | BrowseKind::Conditional => (
            if op.kind == BrowseKind::Get { 200 } else { 304 },
            Some("\"1\""),
        ),
        BrowseKind::Play => (200, None),
    };
    if reply.status != status {
        return false;
    }
    if etag.is_some() && reply.etag.as_deref() != etag {
        phase.mismatch(format!("browse {i}: ETag {:?}, expected \"1\"", reply.etag));
    }
    match op.kind {
        BrowseKind::Conditional if !reply.body.is_empty() => {
            phase.mismatch(format!(
                "browse {i}: 304 with a {}-byte body",
                reply.body.len()
            ));
        }
        BrowseKind::Get => {
            let name = format!("\"name\":\"{}\"", designs[op.design].name);
            if !String::from_utf8_lossy(&reply.body).contains(&name) {
                phase.mismatch(format!("browse {i}: GET body is not design {name}"));
            }
        }
        BrowseKind::Play => {
            let text = String::from_utf8_lossy(&reply.body);
            let got = total_w_tokens(&text);
            if got.first().copied() != Some(totals[op.design].as_str()) {
                phase.mismatch(format!(
                    "browse {i}: total_w {got:?}, expected {}",
                    totals[op.design]
                ));
            }
        }
        BrowseKind::Conditional => {}
    }
    true
}

/// The browse open loop over one pipelined connection: the calling
/// thread sends each request at its due time, a second thread reads and
/// checks the answers in order. `before_send(i)` runs just before
/// request `i` goes out (tests use it to stall the generator). Returns
/// the phase and the send times.
pub fn browse_open(
    conn: &mut Conn,
    ops: &[BrowseOp],
    designs: &[Design],
    totals: &[String],
    before_send: &dyn Fn(usize),
) -> std::io::Result<(Phase, Vec<Instant>)> {
    let requests: Vec<Vec<u8>> = ops
        .iter()
        .map(|op| gen::browse_request(op, designs))
        .collect();
    let mut writer: TcpStream = conn.writer()?;
    let (sent_tx, sent_rx) = mpsc::channel::<usize>();
    let mut send_times: Vec<Instant> = Vec::with_capacity(ops.len());
    let start = Instant::now();
    let (mut phase, done) = std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut phase = Phase::default();
            let mut done: Vec<Instant> = Vec::with_capacity(ops.len());
            // Each message says how many requests the sender has put on
            // the wire in total; the last one closes the channel.
            while let Ok(sent) = sent_rx.recv() {
                let from = phase.samples.len();
                for (i, op) in ops.iter().enumerate().take(sent).skip(from) {
                    let reply = conn.read_reply();
                    done.push(Instant::now());
                    let ok =
                        reply.is_ok_and(|r| check_browse(&mut phase, i, op, &r, designs, totals));
                    phase.samples.push(Sample {
                        ok,
                        ..Sample::default()
                    });
                }
            }
            (phase, done)
        });
        for (i, (op, req)) in ops.iter().zip(&requests).enumerate() {
            let due = start + Duration::from_secs_f64(op.due_s);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            before_send(i);
            send_times.push(Instant::now());
            if writer.write_all(req).is_err() {
                send_times.pop();
                break;
            }
            let _ = sent_tx.send(send_times.len());
        }
        drop(sent_tx);
        reader.join().expect("browse reader panicked")
    });
    for (i, s) in phase.samples.iter_mut().enumerate() {
        let due = start + Duration::from_secs_f64(ops[i].due_s);
        s.latency_ms = ms(done[i].saturating_duration_since(due));
        s.ack_ms = ms(done[i].saturating_duration_since(send_times[i]));
        s.late_ms = ms(send_times[i].saturating_duration_since(due));
        s.at_s = (done[i] - start).as_secs_f64();
    }
    phase.elapsed_s = done.last().map_or(0.0, |t| (*t - start).as_secs_f64());
    Ok((phase, send_times))
}

/// The browse saturation phase: one thread keeps `window` requests in
/// flight on one pipelined connection, cycling through `ops`, for
/// `seconds`.
pub fn browse_saturate(
    conn: &mut Conn,
    ops: &[BrowseOp],
    designs: &[Design],
    totals: &[String],
    window: usize,
    seconds: f64,
) -> Phase {
    let requests: Vec<Vec<u8>> = ops
        .iter()
        .map(|op| gen::browse_request(op, designs))
        .collect();
    let mut phase = Phase::default();
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let mut in_flight: VecDeque<(usize, Instant)> = VecDeque::with_capacity(window);
    let (mut next, mut broken) = (0, false);
    loop {
        while !broken && in_flight.len() < window && Instant::now() < stop {
            broken = conn.send(&requests[next % requests.len()]).is_err();
            in_flight.push_back((next, Instant::now()));
            next += 1;
        }
        let Some((i, sent)) = in_flight.pop_front() else {
            break;
        };
        let reply = conn.read_reply();
        let done = Instant::now();
        let op = &ops[i % ops.len()];
        let ok = reply.is_ok_and(|r| check_browse(&mut phase, i, op, &r, designs, totals));
        phase.samples.push(Sample {
            ok,
            latency_ms: ms(done - sent),
            ack_ms: ms(done - sent),
            late_ms: 0.0,
            at_s: (done - start).as_secs_f64(),
        });
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    phase
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    /// A fake server answering every request at once with an empty 304.
    fn instant_server() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            loop {
                while let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                    buf.drain(..end + 4);
                    s.write_all(
                        b"HTTP/1.1 304 Not Modified\r\nEtag: \"1\"\r\nContent-Length: 0\r\n\r\n",
                    )
                    .unwrap();
                }
                match s.read(&mut chunk) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn appended_stretches_keep_their_place_in_time() {
        let stretch = |at_s: f64| Phase {
            samples: vec![Sample {
                ok: true,
                at_s,
                ..Sample::default()
            }],
            elapsed_s: 1.0,
            ..Phase::default()
        };
        let mut phase = Phase::default();
        for at_s in [0.5, 0.25, 0.75] {
            phase.append(stretch(at_s));
        }
        let at: Vec<f64> = phase.samples.iter().map(|s| s.at_s).collect();
        assert_eq!((&at, phase.elapsed_s), (&vec![0.5, 1.25, 2.75], 3.0));
        let stretches = phase.segments();
        for t in at {
            let k = (t / 3.0 * SEGMENTS as f64) as usize;
            assert_eq!(stretches[k].samples.len(), 1, "stretch {k}");
        }
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let (addr, server) = instant_server();
        let designs = gen::browse_designs(1);
        let ops: Vec<BrowseOp> = (0..40)
            .map(|i| BrowseOp {
                kind: BrowseKind::Conditional,
                design: 0,
                due_s: i as f64 * 0.002,
            })
            .collect();
        // The generator stalls 60 ms before request 5; requests 5.. are
        // due every 2 ms meanwhile and go out late, all at once.
        let stall = |i: usize| {
            if i == 5 {
                std::thread::sleep(Duration::from_millis(60));
            }
        };
        let mut conn = Conn::open(addr).unwrap();
        let (phase, _) = browse_open(&mut conn, &ops, &designs, &[], &stall).unwrap();
        drop(conn);
        server.join().unwrap();
        assert_eq!((phase.completed(), phase.mismatches), (40, 0));
        for (i, s) in phase.samples.iter().enumerate().skip(5).take(25) {
            // Counted from when it was due, each request carries the
            // part of the stall it waited out, although the server
            // answered it as fast as any other.
            let waited = 60.0 - (i - 5) as f64 * 2.0;
            assert!(
                s.latency_ms >= waited - 1.0,
                "request {i}: {} ms",
                s.latency_ms
            );
            assert!(
                s.late_ms >= waited - 1.0,
                "request {i} late by {} ms",
                s.late_ms
            );
        }
        assert!(phase.samples[0].latency_ms < 30.0);
    }
}
