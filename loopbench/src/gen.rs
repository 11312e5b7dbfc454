//! Seeded workload generation: designs, edits, sweeps and the browse
//! schedule. Everything here is a pure function of the seed, so the
//! same seed yields byte-identical request bodies and schedules.

use powerplay_json::Json;

/// The user every generated design belongs to.
pub const USER: &str = "bench";

/// The design the `edit` and `sweep` workloads work on.
pub const INFOPAD: &str = "infopad";

/// Distinct edits generated per run; the closed loop cycles through
/// them, so the in-process oracle can price every one before timing.
pub const EDIT_POOL: usize = 512;

/// Distinct sweep requests generated per run (cycled like the edits).
pub const SWEEP_POOL: usize = 256;

/// Points per sweep request.
pub const SWEEP_POINTS: usize = 64;

pub const INFOPAD_JSON: &str = include_str!("../../examples/designs/infopad.json");
const LUMINANCE_DIRECT_JSON: &str =
    include_str!("../../examples/designs/luminance_direct_lut.json");
const LUMINANCE_GROUPED_JSON: &str =
    include_str!("../../examples/designs/luminance_grouped_lut.json");
pub const LIBERTY_FIXTURE: &str = include_str!("../../tests/fixtures/gscl45nm_mini.lib");

/// SplitMix64: small, fast and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// Rounds to four significant digits, so generated numbers read like
/// values a designer would type.
fn round4(v: f64) -> f64 {
    if v == 0.0 {
        return 0.0;
    }
    let scale = 10f64.powi(3 - v.abs().log10().floor() as i32);
    (v * scale).round() / scale
}

fn num_text(v: f64) -> String {
    Json::from(v).to_string()
}

/// One stored design of the workload: its name and JSON body.
pub struct Design {
    pub name: String,
    pub body: String,
}

/// A generated element row for the browse sheets.
fn generated_row(rng: &mut Rng, index: usize) -> Json {
    let binding = |param: &str, formula: String| {
        Json::object([
            ("param", Json::from(param)),
            ("formula", Json::from(formula)),
        ])
    };
    let int = |rng: &mut Rng, lo: usize, hi: usize| (lo + rng.below(hi - lo + 1)).to_string();
    let (element, bindings): (&str, Vec<Json>) = match rng.below(6) {
        0 => (
            "ucb/sram",
            vec![
                binding("words", int(rng, 64, 4096)),
                binding("bits", int(rng, 4, 32)),
                binding("f", format!("(f / {})", 1 << rng.below(6))),
            ],
        ),
        1 => ("ucb/register", vec![binding("bits", int(rng, 1, 32))]),
        2 => (
            "ucb/mux",
            vec![
                binding("inputs", int(rng, 2, 8)),
                binding("bits", int(rng, 1, 16)),
            ],
        ),
        3 => (
            "ucb/ctrl_rom",
            vec![
                binding("n_i", int(rng, 4, 10)),
                binding("n_o", int(rng, 4, 24)),
            ],
        ),
        4 => (
            "ucb/io_device",
            vec![binding("p_avg", num_text(round4(rng.range(0.01, 1.0))))],
        ),
        _ => {
            let cells = [
                "INVX1", "INVX2", "NAND2X1", "NOR2X1", "AND2X1", "OR2X1", "XOR2X1", "BUFX2",
                "DFFPOSX1", "LATCHX1",
            ];
            let cell = cells[rng.below(cells.len())];
            return Json::object([
                ("name", Json::from(format!("r{index} {cell}"))),
                ("kind", Json::from("element")),
                ("element", Json::from(format!("gscl45nm_mini/{cell}"))),
                (
                    "bindings",
                    Json::array([binding("activity", num_text(round4(rng.range(0.05, 0.5))))]),
                ),
            ]);
        }
    };
    let short = element.trim_start_matches("ucb/");
    Json::object([
        ("name", Json::from(format!("r{index} {short}"))),
        ("kind", Json::from("element")),
        ("element", Json::from(element)),
        ("bindings", Json::array(bindings)),
    ])
}

/// A flat generated sheet of `rows` rows mixing UCB and imported cells.
fn generated_sheet(rng: &mut Rng, name: &str, rows: usize) -> String {
    let global = |name: &str, value: f64| {
        Json::object([
            ("name", Json::from(name)),
            ("formula", Json::from(num_text(value))),
        ])
    };
    Json::object([
        ("name", Json::from(name)),
        (
            "globals",
            Json::array([
                global("vdd", round4(rng.range(1.0, 3.3))),
                global("f", round4(rng.range(1e6, 5e7))),
            ]),
        ),
        (
            "rows",
            Json::array((0..rows).map(|i| generated_row(rng, i))),
        ),
    ])
    .to_pretty()
}

/// Row counts of the generated browse sheets: the same sizes for every
/// seed, so seeds vary content but not the working set.
const GENERATED_ROWS: [usize; 5] = [8, 16, 32, 48, 64];

/// The eight designs the `browse` mix reads: InfoPad, both luminance
/// architectures and five generated sheets of 8–64 rows.
pub fn browse_designs(seed: u64) -> Vec<Design> {
    let mut rng = Rng::new(seed, 1);
    let mut designs = vec![
        Design {
            name: INFOPAD.into(),
            body: INFOPAD_JSON.into(),
        },
        Design {
            name: "luminance-direct".into(),
            body: LUMINANCE_DIRECT_JSON.into(),
        },
        Design {
            name: "luminance-grouped".into(),
            body: LUMINANCE_GROUPED_JSON.into(),
        },
    ];
    for (k, rows) in GENERATED_ROWS.into_iter().enumerate() {
        let name = format!("gen{k}");
        let body = generated_sheet(&mut rng, &name, rows);
        designs.push(Design { name, body });
    }
    designs
}

/// A number-valued leaf the edit generator may change: a global's
/// formula or a row binding whose formula is a plain literal.
#[derive(Clone)]
enum Target {
    Global(usize),
    /// Path of row indices through sub-sheets, then the binding index.
    Binding(Vec<usize>, usize),
}

fn literal_targets(sheet: &Json, path: &mut Vec<usize>, out: &mut Vec<Target>) {
    let Some(rows) = sheet.get("rows").and_then(Json::as_array) else {
        return;
    };
    for (i, row) in rows.iter().enumerate() {
        path.push(i);
        if let Some(sub) = row.get("sheet") {
            literal_targets(sub, path, out);
        }
        let bindings = row.get("bindings").and_then(Json::as_array).unwrap_or(&[]);
        for (b, binding) in bindings.iter().enumerate() {
            let literal = binding["formula"]
                .as_str()
                .is_some_and(|f| f.parse::<f64>().is_ok());
            if literal {
                out.push(Target::Binding(path.clone(), b));
            }
        }
        path.pop();
    }
}

fn member<'a>(json: &'a mut Json, key: &str) -> &'a mut Json {
    match json {
        Json::Object(members) => members
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("generated path has no member `{key}`")),
        _ => panic!("generated path expects an object at `{key}`"),
    }
}

fn item(json: &mut Json, index: usize) -> &mut Json {
    match json {
        Json::Array(items) => &mut items[index],
        _ => panic!("generated path expects an array"),
    }
}

fn formula_at<'a>(doc: &'a mut Json, target: &Target) -> &'a mut Json {
    match target {
        Target::Global(g) => member(item(member(doc, "globals"), *g), "formula"),
        Target::Binding(path, b) => {
            let (last, outer) = path.split_last().expect("binding paths are never empty");
            let mut sheet = doc;
            for &i in outer {
                sheet = member(item(member(sheet, "rows"), i), "sheet");
            }
            let row = item(member(sheet, "rows"), *last);
            member(item(member(row, "bindings"), *b), "formula")
        }
    }
}

/// A new value for a literal: integers stay integral and positive,
/// fractions stay within (0, 1), other magnitudes scale by 0.5–1.5.
fn edited_value(rng: &mut Rng, old: f64) -> f64 {
    if old.fract() == 0.0 && old >= 1.0 {
        let lo = (old / 2.0).max(1.0).round();
        lo + rng.below((old * 2.0 - lo) as usize + 1) as f64
    } else if old < 1.0 {
        round4(rng.range(0.05, 0.95))
    } else {
        round4(old * rng.range(0.5, 1.5))
    }
}

/// The `edit` workload's bodies: InfoPad, each with one seeded value
/// changed (`vdd`, `f`, `radio_duty` or a row parameter), serialized in
/// the pretty form a browser would send (~9 KB).
pub fn edit_bodies(seed: u64) -> Vec<String> {
    let base = Json::parse(INFOPAD_JSON).expect("the InfoPad example parses");
    let mut bindings = Vec::new();
    literal_targets(&base, &mut Vec::new(), &mut bindings);
    let mut rng = Rng::new(seed, 2);
    (0..EDIT_POOL)
        .map(|_| {
            let mut doc = base.clone();
            let (target, value) = match rng.below(4) {
                0 => (Target::Global(0), round4(rng.range(1.0, 3.3))),
                1 => (Target::Global(1), round4(rng.range(1e6, 2e7))),
                2 => (Target::Global(2), round4(rng.range(0.05, 0.95))),
                _ => {
                    let target = bindings[rng.below(bindings.len())].clone();
                    let old: f64 = formula_at(&mut doc, &target)
                        .as_str()
                        .and_then(|f| f.parse().ok())
                        .expect("targets are literals");
                    let value = edited_value(&mut rng, old);
                    (target, value)
                }
            };
            *formula_at(&mut doc, &target) = Json::from(num_text(value));
            doc.to_pretty()
        })
        .collect()
}

/// One sweep request: a global of InfoPad and its 64 distinct values.
pub struct Sweep {
    pub global: &'static str,
    pub values: Vec<f64>,
}

impl Sweep {
    pub fn body(&self) -> String {
        Json::object([
            ("global", Json::from(self.global)),
            (
                "values",
                Json::array(self.values.iter().map(|&v| Json::from(v))),
            ),
        ])
        .to_string()
    }
}

/// The sweep pool. Each global gets an equal share of it, in a seeded
/// order: a `radio_duty` sweep dirties fewer rows than a `vdd` or `f`
/// one and costs less, so a drawn share would make the pool's cost, and
/// the run's latency, depend on the seed.
pub fn sweeps(seed: u64) -> Vec<Sweep> {
    let mut rng = Rng::new(seed, 3);
    let mut kinds: Vec<usize> = (0..SWEEP_POOL).map(|i| i % 3).collect();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.below(i + 1));
    }
    kinds
        .into_iter()
        .map(|kind| {
            let (global, lo, hi) = match kind {
                0 => ("vdd", 0.8, 3.6),
                1 => ("f", 1e5, 5e7),
                _ => ("radio_duty", 0.0, 1.0),
            };
            let mut values: Vec<f64> = Vec::with_capacity(SWEEP_POINTS);
            while values.len() < SWEEP_POINTS {
                let v = round4(rng.range(lo, hi));
                if !values.iter().any(|x| x.to_bits() == v.to_bits()) {
                    values.push(v);
                }
            }
            Sweep { global, values }
        })
        .collect()
}

/// The three read requests of the `browse` mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BrowseKind {
    /// `GET` design, answered 200 with the document.
    Get,
    /// `GET` with `If-None-Match` of the current ETag, answered 304.
    Conditional,
    /// `POST …/play`: cached plan, fresh replay.
    Play,
}

/// One scheduled `browse` request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BrowseOp {
    pub kind: BrowseKind,
    pub design: usize,
    /// Seconds after the phase start this request is due.
    pub due_s: f64,
}

/// Picks the request type: 40% GET, 30% conditional GET, 30% play.
fn browse_kind(rng: &mut Rng) -> BrowseKind {
    match rng.below(10) {
        0..=3 => BrowseKind::Get,
        4..=6 => BrowseKind::Conditional,
        _ => BrowseKind::Play,
    }
}

/// The open-loop schedule: Poisson arrivals at `rate` per second for
/// `seconds`, each a seeded request over `designs` designs.
pub fn browse_schedule(seed: u64, designs: usize, rate: f64, seconds: f64) -> Vec<BrowseOp> {
    let mut rng = Rng::new(seed, 4);
    let mut ops = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            return ops;
        }
        ops.push(BrowseOp {
            kind: browse_kind(&mut rng),
            design: rng.below(designs),
            due_s: t,
        });
    }
}

/// The saturation phase's request sequence: the same mix, no schedule.
pub fn browse_mix(seed: u64, designs: usize, count: usize) -> Vec<BrowseOp> {
    let mut rng = Rng::new(seed, 5);
    (0..count)
        .map(|_| BrowseOp {
            kind: browse_kind(&mut rng),
            design: rng.below(designs),
            due_s: 0.0,
        })
        .collect()
}

/// Route of a design resource under the v1 API.
pub fn design_path(name: &str) -> String {
    format!("/api/v1/designs/{USER}/{name}")
}

/// Serializes one HTTP/1.1 request.
pub fn request(method: &str, path: &str, headers: &[(&str, &str)], body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 160);
    out.extend_from_slice(format!("{method} {path} HTTP/1.1\r\nHost: loopbench\r\n").as_bytes());
    for (name, value) in headers {
        out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    if !body.is_empty() || method != "GET" {
        out.extend_from_slice(
            format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                body.len()
            )
            .as_bytes(),
        );
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out
}

pub fn edit_request(body: &str, current_rev: u64) -> Vec<u8> {
    let tag = format!("\"{current_rev}\"");
    request(
        "PUT",
        &design_path(INFOPAD),
        &[("If-Match", &tag)],
        body.as_bytes(),
    )
}

pub fn sweep_request(body: &str) -> Vec<u8> {
    request(
        "POST",
        &format!("{}/sweep", design_path(INFOPAD)),
        &[],
        body.as_bytes(),
    )
}

/// Every design in the browse set is stored once, so its ETag is `"1"`.
pub fn browse_request(op: &BrowseOp, designs: &[Design]) -> Vec<u8> {
    let path = design_path(&designs[op.design].name);
    match op.kind {
        BrowseKind::Get => request("GET", &path, &[], b""),
        BrowseKind::Conditional => request("GET", &path, &[("If-None-Match", "\"1\"")], b""),
        BrowseKind::Play => request("POST", &format!("{path}/play"), &[], b""),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_requests(seed: u64) -> Vec<Vec<u8>> {
        let designs = browse_designs(seed);
        let mut out: Vec<Vec<u8>> = edit_bodies(seed)
            .iter()
            .enumerate()
            .map(|(i, b)| edit_request(b, i as u64 + 1))
            .collect();
        out.extend(sweeps(seed).iter().map(|s| sweep_request(&s.body())));
        out.extend(
            browse_schedule(seed, designs.len(), 2000.0, 0.5)
                .iter()
                .chain(&browse_mix(seed, designs.len(), 500))
                .map(|op| browse_request(op, &designs)),
        );
        out.extend(
            designs
                .iter()
                .map(|d| request("PUT", &design_path(&d.name), &[], d.body.as_bytes())),
        );
        out
    }

    #[test]
    fn same_seed_gives_identical_bodies_and_schedules() {
        assert_eq!(all_requests(7), all_requests(7));
        let a = browse_schedule(7, 8, 3000.0, 1.0);
        let b = browse_schedule(7, 8, 3000.0, 1.0);
        assert_eq!(a, b);
        assert_ne!(all_requests(7), all_requests(8));
        assert_ne!(a, browse_schedule(8, 8, 3000.0, 1.0));
    }

    #[test]
    fn generated_traffic_uses_only_v1_routes() {
        for req in all_requests(3) {
            let line =
                String::from_utf8_lossy(&req[..req.iter().position(|&b| b == b'\r').unwrap()])
                    .into_owned();
            let path = line.split(' ').nth(1).unwrap();
            assert!(path.starts_with("/api/v1/"), "non-v1 route in `{line}`");
        }
    }

    #[test]
    fn each_edit_changes_exactly_one_value() {
        let base = INFOPAD_JSON.lines().collect::<Vec<_>>();
        let pretty_base = Json::parse(INFOPAD_JSON).unwrap().to_pretty();
        let base_lines: Vec<&str> = pretty_base.lines().collect();
        assert_eq!(base.len(), base_lines.len());
        for body in edit_bodies(11) {
            let changed = body
                .lines()
                .zip(&base_lines)
                .filter(|(a, b)| a != *b)
                .count();
            assert!(changed <= 1, "edit changed {changed} lines");
        }
    }

    #[test]
    fn every_global_gets_an_equal_share_of_the_sweeps() {
        for seed in [1, 2] {
            let pool = sweeps(seed);
            for global in ["vdd", "f", "radio_duty"] {
                let n = pool.iter().filter(|s| s.global == global).count();
                assert!(n.abs_diff(SWEEP_POOL / 3) <= 1, "{global}: {n}");
            }
        }
        let order = |seed| sweeps(seed).iter().map(|s| s.global).collect::<Vec<_>>();
        assert_ne!(order(1), order(2));
    }

    #[test]
    fn schedule_rate_matches_the_request() {
        let ops = browse_schedule(5, 8, 4000.0, 2.0);
        let n = ops.len() as f64;
        assert!((n - 8000.0).abs() < 400.0, "{n} arrivals");
        assert!(ops.windows(2).all(|w| w[0].due_s <= w[1].due_s));
    }
}
