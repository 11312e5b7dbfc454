//! The server under test: the release `powerplay-cli serve` binary as a
//! child process on a fresh data directory, plus what the benchmark
//! reads about it from outside — `/metrics` and `/proc`.

use std::collections::BTreeMap;
use std::fs::File;
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::cpu::{self, Mask};
use crate::http::Conn;

/// A running server; killed and reaped on drop.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    pub data_dir: PathBuf,
}

impl Server {
    /// Starts `binary serve` on an ephemeral loopback port, on the CPUs
    /// of `mask` when given, and waits for the address it announces on
    /// stdout (captured in `log`).
    pub fn boot(
        binary: &Path,
        data_dir: PathBuf,
        log: &Path,
        mask: Option<Mask>,
    ) -> Result<Server, String> {
        let out = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut command = Command::new(binary);
        command
            .arg("serve")
            .arg("127.0.0.1:0")
            .arg("--data-dir")
            .arg(&data_dir)
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(Stdio::inherit());
        if let Some(mask) = mask {
            // SAFETY: `cpu::set` makes one system call and allocates
            // nothing, as code between fork and exec must.
            unsafe {
                command.pre_exec(move || cpu::set(&mask));
            }
        }
        let child = command
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            data_dir,
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            if let Some(addr) = text
                .lines()
                .find_map(|l| l.split("serving at http://").nth(1))
                .and_then(|a| a.trim().parse().ok())
            {
                server.addr = addr;
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("server exited during boot ({status})"));
            }
            if Instant::now() > deadline {
                return Err("server did not announce its address".into());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User plus system CPU time of the whole process, in microseconds.
    pub fn cpu_us(&self) -> f64 {
        proc_cpu_us(&format!("/proc/{}/stat", self.pid()))
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("VmHWM:"))
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
            .map_or(0.0, |kb| kb / 1024.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `utime + stime` from a `/proc/.../stat` file, in microseconds
/// (clock ticks are 1/100 s on Linux).
pub fn proc_cpu_us(path: &str) -> f64 {
    let Ok(stat) = std::fs::read_to_string(path) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) * 10_000.0
}

/// The Prometheus exposition as `series → value` (labels kept in the
/// series name, histogram buckets dropped).
pub fn scrape(conn: &mut Conn) -> Result<BTreeMap<String, f64>, String> {
    conn.send(b"GET /metrics HTTP/1.1\r\nHost: loopbench\r\n\r\n")
        .map_err(|e| format!("/metrics: {e}"))?;
    let reply = conn.read_reply().map_err(|e| format!("/metrics: {e}"))?;
    if reply.status != 200 {
        return Err(format!("/metrics answered {}", reply.status));
    }
    let text = String::from_utf8_lossy(&reply.body);
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.contains("_bucket"))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_owned(), value.parse().ok()?))
        })
        .collect())
}

/// The change of every series between two scrapes.
pub struct Delta(BTreeMap<String, f64>);

impl Delta {
    pub fn between(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>) -> Delta {
        Delta(
            after
                .iter()
                .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0)))
                .collect(),
        )
    }

    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// Mean of a histogram over the interval (`_sum` / `_count`).
    pub fn mean(&self, histogram: &str) -> f64 {
        let count = self.get(&format!("{histogram}_count"));
        if count == 0.0 {
            0.0
        } else {
            self.get(&format!("{histogram}_sum")) / count
        }
    }
}
