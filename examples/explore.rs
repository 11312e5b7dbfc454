//! Design-space exploration: supply sweeps, timing-constrained voltage
//! scaling, macro lumping and re-use — the "spreadsheet playground"
//! workflows of the paper, driven programmatically.
//!
//! Run with: `cargo run --example explore`

use powerplay::designs::luminance::{self, LuminanceArch};
use powerplay::{whatif, PowerPlay, Row, RowModel, Sheet, Voltage};

fn bar(width_units: f64) -> String {
    "#".repeat(width_units.round().max(0.0) as usize)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut pp = PowerPlay::new();
    let decoder = luminance::sheet(LuminanceArch::GroupedLut);
    let plan = pp.compile(&decoder);

    // --- Supply sweep (EQ 1: quadratic for this full-rail design).
    println!("power vs supply for the Figure 3 decoder:");
    let vdds: Vec<f64> = (0..10).map(|i| 1.0 + 0.25 * i as f64).collect();
    let curve = whatif::sweep_compiled(&plan, "vdd", &vdds)?;
    for (vdd, report) in &curve {
        let uw = report.total_power().value() * 1e6;
        println!("  {vdd:>5.2} V | {:<40} {uw:7.1} uW", bar(uw / 15.0));
    }

    // --- Timing-constrained minimum supply (the low-power play).
    match whatif::min_vdd_meeting_timing(&plan, Voltage::new(0.75), Voltage::new(3.3))? {
        Some((vdd, report)) => println!(
            "\nlowest supply meeting 2 MHz timing: {:.2} V -> {}",
            vdd.value(),
            report.total_power(),
        ),
        None => println!("\ntiming unreachable in the allowed supply range"),
    }

    // --- Sensitivities: which knob matters?
    println!("\nsensitivities (relative):");
    for (name, s) in whatif::sensitivities_compiled(&plan)? {
        println!("  {name:<6} {s:+.3}");
    }

    // --- Macro lumping and re-use: four decoder channels in a new system.
    let lumped = pp.lump(&decoder, "macros/luminance_decoder")?.clone();
    println!("\nlumped macro: {}", lumped.doc());
    let mut multi = Sheet::new("Four-channel decoder array");
    multi.set_global("vdd", "1.5")?;
    multi.set_global("f", "2MHz")?;
    for ch in 0..4 {
        multi.add_row(Row::new(
            format!("Channel {ch}"),
            RowModel::Inline(lumped.clone()),
        ));
    }
    let report = pp.play(&multi)?;
    println!("{report}");
    Ok(())
}
