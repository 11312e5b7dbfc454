//! In-process reference answers, computed from the same generated
//! inputs the server receives, before the timed window. The server's
//! `total_w` must match bit for bit, compared through the shortest
//! round-trip text both sides write.

use powerplay_json::Json;
use powerplay_library::builtin::ucb_library;
use powerplay_library::Registry;
use powerplay_sheet::{CompiledSheet, Sheet};

use crate::gen::{self, Design, Sweep};

/// The server's registry after set-up: the UCB library plus the
/// imported Liberty fixture.
pub fn registry() -> Registry {
    let mut registry = ucb_library();
    for element in powerplay_liberty::import_str(gen::LIBERTY_FIXTURE, "api").elements {
        registry.insert(element);
    }
    registry
}

pub fn decode(body: &str) -> Result<Sheet, String> {
    let json = Json::parse(body).map_err(|e| e.to_string())?;
    Sheet::from_json(&json).map_err(|e| e.to_string())
}

/// The shortest round-trip text of a total in watts.
pub fn total_text(watts: f64) -> String {
    Json::from(watts).to_string()
}

fn play_total(plan: &CompiledSheet, what: &str) -> Result<String, String> {
    plan.play()
        .map(|r| total_text(r.total_power().value()))
        .map_err(|e| format!("{what} does not play: {e}"))
}

/// The expected `total_w` of each edited body (compile and play).
pub fn edit_totals(registry: &Registry, bodies: &[String]) -> Result<Vec<String>, String> {
    bodies
        .iter()
        .enumerate()
        .map(|(i, body)| {
            let plan = CompiledSheet::compile(&decode(body)?, registry);
            play_total(&plan, &format!("edit {i}"))
        })
        .collect()
}

/// The expected `total_w` of each stored browse design.
pub fn design_totals(registry: &Registry, designs: &[Design]) -> Result<Vec<String>, String> {
    designs
        .iter()
        .map(|d| {
            play_total(
                &CompiledSheet::compile(&decode(&d.body)?, registry),
                &d.name,
            )
        })
        .collect()
}

/// The expected series of each sweep (`play_with` at every point).
pub fn sweep_totals(
    registry: &Registry,
    base: &str,
    sweeps: &[Sweep],
) -> Result<Vec<Vec<String>>, String> {
    let plan = CompiledSheet::compile(&decode(base)?, registry);
    sweeps
        .iter()
        .map(|s| {
            s.values
                .iter()
                .map(|&v| {
                    plan.play_with(&[(s.global, v)])
                        .map(|r| total_text(r.total_power().value()))
                        .map_err(|e| format!("sweep {}={v} does not play: {e}", s.global))
                })
                .collect()
        })
        .collect()
}
