//! `CompiledSheet::recompile` is `CompiledSheet::compile`, observably.
//!
//! Random edit sequences over InfoPad, both luminance designs and
//! generated sheets mix global value and formula edits, global add /
//! remove / rename / reorder, literal binding edits, row add / remove /
//! reorder, element-path swaps, sub-sheet edits, signed-zero literals
//! and registry inserts between steps. After every step the plan
//! recompiled from the previous step's plan must match a fresh compile
//! of the new sheet: the same bytecode listing, bit-identical plays
//! (with and without overrides, including an override of a name the
//! lowering left unresolved) and equal errors. The body must be shared
//! exactly when the rows are bit-identical, the global names match in
//! order and the registry is unchanged.

use powerplay_expr::Expr;
use powerplay_library::builtin::ucb_library;
use powerplay_library::{ElementModel, LibraryElement, Registry};
use powerplay_sheet::{CompiledSheet, Row, RowModel, Sheet};
use proptest::prelude::*;

const INFOPAD: &str = include_str!("../../../examples/designs/infopad.json");
const LUMINANCE_DIRECT: &str = include_str!("../../../examples/designs/luminance_direct_lut.json");
const LUMINANCE_GROUPED: &str =
    include_str!("../../../examples/designs/luminance_grouped_lut.json");

fn example(json: &str) -> Sheet {
    Sheet::from_json(&powerplay_json::Json::parse(json).unwrap()).unwrap()
}

/// A small generated design with a nested sub-sheet and a `P_` chain.
fn generated(rows: &[(usize, u32)], vdd: f64) -> Sheet {
    const PATHS: [&str; 4] = ["ucb/register", "ucb/sram", "ucb/ripple_adder", "ucb/mux"];
    let mut sub = Sheet::new("inner");
    sub.set_global_value("k", 4.0);
    sub.add_element_row("Inner", "ucb/register", [("bits", "k * 2")])
        .unwrap();
    let mut sheet = Sheet::new("generated");
    sheet.set_global_value("vdd", vdd);
    sheet.set_global("f", "2MHz").unwrap();
    for (i, &(path, divider)) in rows.iter().enumerate() {
        sheet
            .add_element_row(
                &format!("Row {i}"),
                PATHS[path % PATHS.len()],
                [("bits", "8"), ("f", &format!("f / {divider}"))],
            )
            .unwrap();
    }
    sheet.add_subsheet_row("Sub", sub);
    sheet
        .add_element_row("Conv", "ucb/dcdc", [("p_load", "P_row_0 * 1.25")])
        .unwrap();
    sheet
}

/// Sets a global from an expression, keeping literal bits exactly
/// (printing would fold `-0.0` into `0`).
fn set_expr(sheet: &mut Sheet, name: &str, expr: &Expr) {
    match expr {
        Expr::Number(v) => sheet.set_global_value(name, *v),
        other => sheet.set_global(name, &other.to_string()).unwrap(),
    }
}

/// `sheet` with its globals and rows replaced.
fn rebuild(sheet: &Sheet, globals: &[(String, Expr)], rows: &[Row]) -> Sheet {
    let mut out = Sheet::new(sheet.name());
    for (name, expr) in globals {
        set_expr(&mut out, name, expr);
    }
    for row in rows {
        out.add_row(row.clone());
    }
    out
}

/// The first sub-sheet row's sheet, if any.
fn first_subsheet(sheet: &mut Sheet) -> Option<&mut Sheet> {
    sheet
        .rows_mut()
        .iter_mut()
        .find_map(|row| match row.model_mut() {
            RowModel::SubSheet(sub) => Some(sub),
            _ => None,
        })
}

const FORMULAS: [&str; 5] = ["vdd * 2", "f / 4", "ghost * 2", "1.8", "vdd + f / 1e9"];
const SWAP_PATHS: [&str; 4] = ["ucb/register", "ucb/sram", "custom/probe", "ucb/mux"];

/// Applies one encoded edit. Returns the edited sheet; registry inserts
/// edit `registry` instead and leave the sheet as it was.
fn apply(
    sheet: &Sheet,
    registry: &mut Registry,
    (kind, a, b, v): (u8, usize, usize, f64),
) -> Sheet {
    let mut next = sheet.clone();
    let globals = sheet.globals().to_vec();
    let rows = sheet.rows().to_vec();
    let pick = |n: usize, i: usize| (n > 0).then(|| i % n);
    match kind {
        // Global value edit (the common case: weighted twice).
        0 | 1 => {
            if let Some(i) = pick(globals.len(), a) {
                next.set_global_value(globals[i].0.clone(), v);
            }
        }
        // Global formula edit, possibly unresolvable or circular.
        2 => {
            if let Some(i) = pick(globals.len(), a) {
                next.set_global(globals[i].0.clone(), FORMULAS[b % FORMULAS.len()])
                    .unwrap();
            }
        }
        3 => next.set_global_value(format!("g{b}"), v),
        4 => {
            if let Some(i) = pick(globals.len(), a) {
                let mut kept = globals.clone();
                kept.remove(i);
                next = rebuild(sheet, &kept, &rows);
            }
        }
        5 => {
            if let Some(i) = pick(globals.len(), a) {
                let mut renamed = globals.clone();
                renamed[i].0.push_str("_r");
                next = rebuild(sheet, &renamed, &rows);
            }
        }
        6 => {
            if let (Some(i), Some(j)) = (pick(globals.len(), a), pick(globals.len(), b)) {
                let mut swapped = globals.clone();
                swapped.swap(i, j);
                next = rebuild(sheet, &swapped, &rows);
            }
        }
        // Literal binding edit.
        7 => {
            if let Some(i) = pick(rows.len(), a) {
                let row = &mut next.rows_mut()[i];
                let param = row
                    .bindings()
                    .first()
                    .map_or_else(|| "bits".to_owned(), |(p, _)| p.clone());
                row.bind(param, &format!("{}", (v * 8.0).round())).unwrap();
            }
        }
        8 => {
            next.add_element_row(
                &format!("Added {b}"),
                SWAP_PATHS[b % SWAP_PATHS.len()],
                [("bits", "8")],
            )
            .unwrap();
        }
        9 => {
            if let Some(i) = pick(rows.len(), a) {
                let mut kept = rows.clone();
                kept.remove(i);
                next = rebuild(sheet, &globals, &kept);
            }
        }
        10 => {
            if let (Some(i), Some(j)) = (pick(rows.len(), a), pick(rows.len(), b)) {
                let mut swapped = rows.clone();
                swapped.swap(i, j);
                next = rebuild(sheet, &globals, &swapped);
            }
        }
        // Element-path swap (possibly to a path not registered yet).
        11 => {
            if let Some(i) = pick(rows.len(), a) {
                let row = &mut next.rows_mut()[i];
                if let RowModel::Element(path) = row.model_mut() {
                    *path = SWAP_PATHS[b % SWAP_PATHS.len()].to_owned();
                }
            }
        }
        // Sub-sheet edit: a global value, or a literal binding.
        12 => {
            if let Some(sub) = first_subsheet(&mut next) {
                let name = sub.globals().first().map(|(n, _)| n.clone());
                match (b % 2, name) {
                    (0, Some(name)) => sub.set_global_value(name, v),
                    _ => {
                        if let Some(row) = sub.rows_mut().first_mut() {
                            row.bind("bits", &format!("{}", (v * 4.0).round())).unwrap();
                        }
                    }
                }
            }
        }
        // Registry insert: a new element, or a replaced builtin.
        13 => {
            let base = registry.get("ucb/register").unwrap().clone();
            let name = if b % 2 == 0 {
                "custom/probe"
            } else {
                "ucb/register"
            };
            let model = ElementModel {
                cap_full: Some(Expr::parse(&format!("bits * {v}e-13")).unwrap()),
                ..ElementModel::default()
            };
            registry.insert(LibraryElement::new(
                name,
                base.class(),
                base.doc(),
                base.params().to_vec(),
                model,
            ));
        }
        // Flip the sign of the sub-sheet's zero literal `z` (seeded by
        // `run_sequence`): `Row: PartialEq` cannot tell the two apart,
        // the compiled constant pool can.
        14 => {
            if let Some(sub) = first_subsheet(&mut next) {
                let z = sub.globals().iter().find_map(|(n, e)| match e {
                    Expr::Number(v) if n == "z" => Some(*v),
                    _ => None,
                });
                sub.set_global_value("z", -z.unwrap_or(-0.0));
            }
        }
        // No edit at all.
        _ => {}
    }
    next
}

/// Bit-exact rendering of a play result: `Debug` prints `-0.0` and
/// `NaN` apart from `0.0`, and renders errors in full.
fn bits<T: std::fmt::Debug>(value: &T) -> String {
    format!("{value:?}")
}

fn assert_same(derived: &CompiledSheet, fresh: &CompiledSheet, v: f64) {
    assert_eq!(derived.disassemble(), fresh.disassemble());
    assert_eq!(bits(&derived.play()), bits(&fresh.play()));
    let overrides: [&[(&str, f64)]; 4] = [
        &[("vdd", v)],
        &[("f", v * 1e6), ("vdd", v / 2.0)],
        // `ghost` is unresolved wherever a formula names it, so these
        // plays take the tree walker.
        &[("ghost", v)],
        &[("x_new", v)],
    ];
    for ov in overrides {
        assert_eq!(
            bits(&derived.play_with(ov)),
            bits(&fresh.play_with(ov)),
            "{ov:?}"
        );
    }
}

fn run_sequence(mut base: Sheet, edits: &[(u8, usize, usize, f64)]) {
    let mut registry = ucb_library();
    if let Some(sub) = first_subsheet(&mut base) {
        sub.set_global_value("z", 0.0);
    }
    let mut prev = base;
    let mut plan = CompiledSheet::compile(&prev, &registry);
    for &edit in edits {
        let generation = registry.generation();
        let next = apply(&prev, &mut registry, edit);
        let derived = plan.recompile(&prev, &next, &registry);
        let fresh = CompiledSheet::compile(&next, &registry);
        assert_same(&derived, &fresh, edit.3);

        let names = |s: &Sheet| {
            s.globals()
                .iter()
                .map(|(n, _)| n.clone())
                .collect::<Vec<_>>()
        };
        let expect_shared = bits(&prev.rows()) == bits(&next.rows())
            && names(&prev) == names(&next)
            && registry.generation() == generation;
        assert_eq!(
            derived.shares_body_with(&plan),
            expect_shared,
            "edit {edit:?}"
        );
        prev = next;
        plan = derived;
    }
}

fn arb_edits() -> impl Strategy<Value = Vec<(u8, usize, usize, f64)>> {
    prop::collection::vec((0u8..16, 0usize..16, 0usize..16, 0.5f64..5.0), 1..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn recompile_matches_compile_on_the_example_designs(
        which in 0usize..3,
        edits in arb_edits(),
    ) {
        let json = [INFOPAD, LUMINANCE_DIRECT, LUMINANCE_GROUPED][which];
        run_sequence(example(json), &edits);
    }

    #[test]
    fn recompile_matches_compile_on_generated_designs(
        rows in prop::collection::vec((0usize..4, 1u32..32), 1..6),
        vdd in 1.0f64..4.0,
        edits in arb_edits(),
    ) {
        run_sequence(generated(&rows, vdd), &edits);
    }
}

/// Global-only edits keep one body across a long chain, and every link
/// still plays like a fresh compile.
#[test]
fn global_only_chains_share_one_body() {
    let registry = ucb_library();
    let mut prev = example(INFOPAD);
    let first = CompiledSheet::compile(&prev, &registry);
    let mut plan = first.clone();
    let names: Vec<String> = prev.globals().iter().map(|(n, _)| n.clone()).collect();
    for (step, name) in names.iter().cycle().take(3 * names.len()).enumerate() {
        let mut next = prev.clone();
        next.set_global_value(name.clone(), 1.0 + step as f64 / 10.0);
        let derived = plan.recompile(&prev, &next, &registry);
        assert!(derived.shares_body_with(&first), "step {step}");
        assert_same(&derived, &CompiledSheet::compile(&next, &registry), 1.5);
        prev = next;
        plan = derived;
    }
}
