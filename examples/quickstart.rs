//! Quickstart: estimate a small datapath in a few lines.
//!
//! Builds a design sheet the way the paper's user would through the
//! browser — pick library elements, set parameters, press *Play* — and
//! prints the Figure 2-style spreadsheet, then turns the vdd knob.
//!
//! Run with: `cargo run --example quickstart`

use powerplay::designs::luminance::{self, LuminanceArch};
use powerplay::{whatif, PowerPlay, Sheet};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pp = PowerPlay::new();

    // A design from scratch: an 8x8 MAC at 1.5 V / 2 MHz.
    let mut mac = Sheet::new("Multiply-Accumulate");
    mac.set_global("vdd", "1.5")?;
    mac.set_global("f", "2MHz")?;
    mac.add_element_row(
        "Multiplier",
        "ucb/multiplier",
        [("bw_a", "8"), ("bw_b", "8")],
    )?;
    mac.add_element_row("Accumulator", "ucb/ripple_adder", [("bits", "16")])?;
    mac.add_element_row("Result Register", "ucb/register", [("bits", "16")])?;
    println!("{}", pp.play(&mac)?);

    // What-if: the supply knob (quadratic) and the rate knob (linear).
    println!("vdd sweep:");
    let plan = pp.compile(&mac);
    for (vdd, report) in whatif::sweep_compiled(&plan, "vdd", &[1.1, 1.5, 2.5, 3.3])? {
        println!("  vdd = {vdd:>4} V -> {}", report.total_power());
    }

    // The paper's own example ships with the crate:
    let decoder = luminance::sheet(LuminanceArch::GroupedLut);
    println!("\n{}", pp.play(&decoder)?);
    Ok(())
}
