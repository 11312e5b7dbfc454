//! End-to-end tests of the `powerplay-cli` binary.

use std::process::Command;

fn cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_powerplay-cli"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(args: &[&str]) -> String {
    let out = cli(args);
    assert!(
        out.status.success(),
        "`{args:?}` failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Writes the grouped-LUT decoder to a file of its own: tests run in
/// parallel, and a shared path could be truncated by another test's
/// write while the CLI reads it.
fn write_design() -> std::path::PathBuf {
    use powerplay::designs::luminance::{sheet, LuminanceArch};
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("powerplay-cli-{}-{n}.json", std::process::id()));
    std::fs::write(
        &path,
        sheet(LuminanceArch::GroupedLut).to_json().to_pretty(),
    )
    .unwrap();
    path
}

#[test]
fn help_and_unknown_command() {
    assert!(stdout(&["help"]).contains("powerplay-cli"));
    let out = cli(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn library_listing_and_class_filter() {
    let all = stdout(&["library"]);
    assert!(all.contains("ucb/multiplier"));
    assert!(all.contains("ucb/dcdc"));
    let storage = stdout(&["library", "--class", "storage"]);
    assert!(storage.contains("ucb/sram"));
    assert!(!storage.contains("ucb/multiplier"));
    let bad = cli(&["library", "--class", "quantum"]);
    assert!(!bad.status.success());
}

#[test]
fn doc_shows_model_formulas() {
    let doc = stdout(&["doc", "ucb/multiplier"]);
    assert!(doc.contains("EQ 20"));
    assert!(doc.contains("bw_a"));
    assert!(doc.contains("cap_full"));
}

#[test]
fn eval_matches_known_numbers() {
    // 8x8 at the paper's operating point: 72.86 uW.
    let out = stdout(&["eval", "ucb/multiplier", "bw_a=8", "bw_b=8"]);
    assert!(out.contains("72.86 uW"), "{out}");
    // Formulas work on the command line too (16x8 at doubled rate).
    let out = stdout(&["eval", "ucb/multiplier", "bw_a=2*8", "f=4MHz"]);
    assert!(out.contains("291.5 uW"), "{out}");
}

#[test]
fn play_renders_design_files() {
    let path = write_design();
    let out = stdout(&["play", path.to_str().unwrap()]);
    assert!(out.contains("Look Up Table"));
    assert!(out.contains("139.0 uW"));
    assert!(out.contains("critical path"));
}

#[test]
fn sweep_prints_series() {
    let path = write_design();
    let out = stdout(&["sweep", path.to_str().unwrap(), "vdd", "1.0,2.0"]);
    assert!(out.contains("61.79 uW"), "{out}"); // at 1.0 V
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 3); // header + 2 points
}

#[test]
fn lump_emits_a_valid_element() {
    let path = write_design();
    let out = stdout(&["lump", path.to_str().unwrap(), "macros/decoder"]);
    let json = powerplay_json::Json::parse(&out).unwrap();
    let element = powerplay::LibraryElement::from_json(&json).unwrap();
    assert_eq!(element.name(), "macros/decoder");
}

#[test]
fn bad_design_file_is_a_clean_error() {
    let path = std::env::temp_dir().join(format!("powerplay-bad-{}.json", std::process::id()));
    std::fs::write(&path, "{not json").unwrap();
    let out = cli(&["play", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
    let missing = cli(&["play", "/nonexistent/design.json"]);
    assert!(!missing.status.success());
}

#[test]
fn lint_passes_clean_designs() {
    let path = write_design();
    let out = cli(&["lint", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "clean design must exit 0: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0 errors"), "{text}");
}

#[test]
fn lint_flags_dimension_mismatch_and_exits_nonzero() {
    // The acceptance scenario: a binding adds a power to a capacitance.
    use powerplay::Sheet;
    let mut sheet = Sheet::new("broken");
    sheet.set_global("vdd", "1.5").unwrap();
    sheet.set_global("f", "2MHz").unwrap();
    sheet.set_global("c_load", "100f").unwrap();
    sheet
        .add_element_row("Adder", "ucb/ripple_adder", [("bits", "16")])
        .unwrap();
    sheet
        .add_element_row("Pads", "ucb/pads", [("c_pad", "P_adder + c_load")])
        .unwrap();
    let path = std::env::temp_dir().join(format!("pp-lint-dim-{}.json", std::process::id()));
    std::fs::write(&path, sheet.to_json().to_pretty()).unwrap();

    let out = cli(&["lint", path.to_str().unwrap()]);
    assert!(!out.status.success(), "dimension error must exit nonzero");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("E010"), "{text}");
    assert!(text.contains("rows/Pads/bindings/c_pad"), "{text}");

    // --json round-trips through the shared JSON crate.
    let out = cli(&["lint", path.to_str().unwrap(), "--json"]);
    assert!(!out.status.success());
    let json =
        powerplay_json::Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
    let report = powerplay_lint::LintReport::from_json(&json).expect("decodes as a report");
    assert!(report.has_errors());
    assert!(report
        .diagnostics()
        .iter()
        .any(|d| d.code == "E010" && d.path == "rows/Pads/bindings/c_pad"));
}

#[test]
fn lint_allow_suppresses_codes() {
    use powerplay::Sheet;
    let mut sheet = Sheet::new("warny");
    sheet.set_global("vdd", "1.5").unwrap();
    sheet.set_global("f", "2MHz").unwrap();
    sheet.set_global("scratch", "42").unwrap(); // W105 dead global
    sheet
        .add_element_row("Adder", "ucb/ripple_adder", [])
        .unwrap();
    let path = std::env::temp_dir().join(format!("pp-lint-allow-{}.json", std::process::id()));
    std::fs::write(&path, sheet.to_json().to_pretty()).unwrap();

    let out = stdout(&["lint", path.to_str().unwrap()]);
    assert!(out.contains("W105"), "{out}");
    let out = stdout(&["lint", path.to_str().unwrap(), "--allow", "W105"]);
    assert!(!out.contains("W105"), "{out}");
}

#[test]
fn compare_shows_the_architecture_study() {
    use powerplay::designs::luminance::{sheet, LuminanceArch};
    let dir = std::env::temp_dir();
    let a = dir.join(format!("pp-cmp-a-{}.json", std::process::id()));
    let b = dir.join(format!("pp-cmp-b-{}.json", std::process::id()));
    std::fs::write(&a, sheet(LuminanceArch::DirectLut).to_json().to_pretty()).unwrap();
    std::fs::write(&b, sheet(LuminanceArch::GroupedLut).to_json().to_pretty()).unwrap();
    let out = stdout(&["compare", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(out.contains("Look Up Table"));
    assert!(out.contains("TOTAL"));
    assert!(out.contains("improvement"));
    assert!(out.contains("5.0"), "{out}"); // ~5.08x
}

#[test]
fn monte_carlo_summarizes_uncertainty() {
    let path = write_design();
    let out = stdout(&["mc", path.to_str().unwrap(), "0.1", "100", "vdd,f"]);
    assert!(out.contains("p10"));
    assert!(out.contains("p50"));
    assert!(out.contains("p90"));
    assert!(out.contains("spread"));
}

#[test]
fn analyze_proves_bounds_on_clean_designs() {
    let path = write_design();
    let out = cli(&["analyze", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "clean design must exit 0: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("total power"), "{text}");
    assert!(text.contains("monotone in"), "{text}");
}

#[test]
fn analyze_json_carries_intervals_and_diagnostics() {
    let path = write_design();
    let out = cli(&[
        "analyze",
        path.to_str().unwrap(),
        "--json",
        "--range",
        "vdd=1.0:3.3",
    ]);
    assert!(out.status.success());
    let json =
        powerplay_json::Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
    let total = json.get("total_power").expect("total_power present");
    let lo = total
        .get("lo")
        .and_then(powerplay_json::Json::as_f64)
        .unwrap();
    let hi = total
        .get("hi")
        .and_then(powerplay_json::Json::as_f64)
        .unwrap();
    assert!(lo > 0.0 && hi >= lo, "bad interval [{lo}, {hi}]");
    assert!(json.get("diagnostics").is_some());
    let inputs = json
        .get("inputs")
        .and_then(powerplay_json::Json::as_array)
        .unwrap();
    assert!(inputs
        .iter()
        .any(|i| { i.get("name").and_then(powerplay_json::Json::as_str) == Some("vdd") }));
}

#[test]
fn analyze_flags_provable_errors_and_exits_one() {
    // A formula that is provably negative at every operating point:
    // E015, exit code 1 (findings), not 2 (usage).
    use powerplay::Sheet;
    let mut sheet = Sheet::new("negative");
    sheet.set_global("vdd", "1.5").unwrap();
    sheet.set_global("f", "2MHz").unwrap();
    sheet
        .add_element_row("Pads", "ucb/pads", [("c_pad", "0 - 10f")])
        .unwrap();
    let path = std::env::temp_dir().join(format!("pp-analyze-neg-{}.json", std::process::id()));
    std::fs::write(&path, sheet.to_json().to_pretty()).unwrap();

    let out = cli(&["analyze", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "findings must exit 1");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("E015"), "{text}");
}

#[test]
fn lint_and_analyze_share_the_exit_code_contract() {
    let clean = write_design();
    let clean = clean.to_str().unwrap();

    // 0: clean run for both verbs.
    assert_eq!(cli(&["lint", clean]).status.code(), Some(0));
    assert_eq!(cli(&["analyze", clean]).status.code(), Some(0));

    // 1: the command ran but failed (unreadable design).
    assert_eq!(
        cli(&["lint", "/nonexistent/design.json"]).status.code(),
        Some(1)
    );
    assert_eq!(
        cli(&["analyze", "/nonexistent/design.json"]).status.code(),
        Some(1)
    );

    // 2: malformed invocations.
    assert_eq!(cli(&["lint"]).status.code(), Some(2));
    assert_eq!(cli(&["analyze"]).status.code(), Some(2));
    assert_eq!(cli(&["analyze", clean, "--range"]).status.code(), Some(2));
    assert_eq!(
        cli(&["analyze", clean, "--range", "vdd=3:1"]).status.code(),
        Some(2)
    );
    assert_eq!(cli(&["lint", clean, "--bogus"]).status.code(), Some(2));
}

#[test]
fn serve_rejects_unknown_flags_before_binding() {
    let data_dir =
        std::env::temp_dir().join(format!("powerplay-cli-serve-flag-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let mut child = Command::new(env!("CARGO_BIN_EXE_powerplay-cli"))
        .args(["serve", "127.0.0.1:0", "--data-dir"])
        .arg(&data_dir)
        .arg("--bogus")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn powerplay-cli");
    // A server that started would never exit on its own.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while child.try_wait().expect("poll child").is_none() {
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            panic!("`serve --bogus` started a server");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect output");
    assert_eq!(out.status.code(), Some(2), "a bad flag is a usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--bogus"), "{stderr}");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("serving at"));
    assert!(
        !data_dir.exists(),
        "no store may be opened before the flags parse"
    );
}
