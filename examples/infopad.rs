//! The paper's system-level case study (Figure 5): the InfoPad portable
//! multimedia terminal — digital, analog, RF, display and converters in
//! one hierarchical sheet, with the converter row computed from the other
//! rows' powers (EQ 19 intermodel interaction).
//!
//! Run with: `cargo run --example infopad`

use powerplay::designs::infopad;
use powerplay::{whatif, PowerPlay};
use powerplay_units::format;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pp = PowerPlay::new();
    let system = infopad::sheet();
    let report = pp.play(&system)?;
    println!("{report}");

    // Where does the power go? ("identify the major power consumers")
    println!("power breakdown, largest first:");
    for (name, share) in report.breakdown() {
        println!("  {:<24} {}", name, format::percent(share));
    }

    // Drill into the custom hardware, as the hyperlink would.
    let custom = report
        .row("Custom Hardware")
        .and_then(|r| r.sub_report())
        .expect("custom hardware sub-sheet");
    println!("\n{custom}");

    // Sensitivity of the system to its globals.
    println!("relative sensitivities of total power:");
    for (name, s) in whatif::sensitivities_compiled(&pp.compile(&system))? {
        println!("  d(lnP)/d(ln {name}) = {s:+.3}");
    }
    println!(
        "\nnote: the system is display/radio dominated, so the digital \
         supply knob barely moves the total — the paper's point about \
         optimizing the right component."
    );
    Ok(())
}
