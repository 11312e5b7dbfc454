//! Cross-site model sharing (paper Figures 6–7): run two PowerPlay
//! sites — "Berkeley" with the UCB library, "Motorola" with vendor
//! models — fetch both libraries over HTTP, and estimate a design mixing
//! elements from each. Also demonstrates the password-protected private
//! instance from the paper's security section.
//!
//! Run with: `cargo run --example remote_sites`

use powerplay::{PowerPlay, Registry, Sheet};
use powerplay_expr::Expr;
use powerplay_library::{ElementClass, ElementModel, LibraryElement, ParamDecl};
use powerplay_web::app::PowerPlayApp;
use powerplay_web::http::{http_get, http_get_basic_auth, Status};
use powerplay_web::remote;

fn vendor_library() -> Registry {
    let dsp = LibraryElement::new(
        "motorola/dsp_core",
        ElementClass::Processor,
        "data-book DSP model (EQ 11)",
        vec![
            ParamDecl::new("p_avg", 0.12, "average power in watts"),
            ParamDecl::new("duty", 1.0, "activity factor"),
        ],
        ElementModel {
            power_direct: Some(Expr::parse("p_avg * duty").expect("literal")),
            ..ElementModel::default()
        },
    );
    let codec = LibraryElement::new(
        "motorola/audio_codec",
        ElementClass::Analog,
        "codec bias model (EQ 13)",
        vec![ParamDecl::new("i_bias", 2e-3, "bias current")],
        ElementModel {
            static_current: Some(Expr::parse("i_bias").expect("literal")),
            ..ElementModel::default()
        },
    );
    [dsp, codec].into_iter().collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tmp = std::env::temp_dir();

    // --- Two public sites.
    let berkeley = PowerPlayApp::new(powerplay::ucb_library(), tmp.join("pp-berkeley"));
    let berkeley_srv = berkeley.serve("127.0.0.1:0")?;
    let motorola = PowerPlayApp::new(vendor_library(), tmp.join("pp-motorola"));
    let motorola_srv = motorola.serve("127.0.0.1:0")?;
    println!("berkeley serving at http://{}", berkeley_srv.addr());
    println!("motorola serving at http://{}", motorola_srv.addr());

    // --- A user at a third site merges both libraries.
    let mut local = Registry::new();
    let n1 = remote::merge_remote_library(&mut local, &format!("http://{}", berkeley_srv.addr()))?;
    let n2 = remote::merge_remote_library(&mut local, &format!("http://{}", motorola_srv.addr()))?;
    println!("fetched {n1} models from berkeley, {n2} from motorola");
    println!("namespaces now available: {:?}", local.namespaces());

    // --- Estimate a design mixing both sites' models.
    let pp = PowerPlay::with_registry(local);
    let mut design = Sheet::new("Mixed-site audio pipeline");
    design.set_global("vdd", "3.0")?;
    design.set_global("f", "1MHz")?;
    design.add_element_row("FIR", "ucb/fir_filter", [("taps", "24"), ("bits", "12")])?;
    design.add_element_row("DSP", "motorola/dsp_core", [("duty", "0.4")])?;
    design.add_element_row("Codec", "motorola/audio_codec", [])?;
    println!("\n{}", pp.play(&design)?);

    // --- The private instance: password-restricted corporate PowerPlay.
    let private = PowerPlayApp::with_password_protection(
        powerplay::ucb_library(),
        tmp.join("pp-private"),
        vec![("corp".into(), "s3cret".into())],
    );
    let private_srv = private.serve("127.0.0.1:0")?;
    let base = format!("http://{}", private_srv.addr());
    let denied = http_get(&format!("{base}/api/v1/library"))?;
    println!(
        "\nprivate instance without credentials: HTTP {}",
        denied.status().code()
    );
    let allowed = http_get_basic_auth(&format!("{base}/api/v1/library"), "corp", "s3cret")?;
    assert_eq!(allowed.status(), Status::Ok);
    println!(
        "private instance with credentials:  HTTP {}",
        allowed.status().code()
    );

    berkeley_srv.shutdown();
    motorola_srv.shutdown();
    private_srv.shutdown();
    Ok(())
}
