//! Formula nesting is capped where formulas enter the system, so no
//! formula can overflow the stack of the thread that handles it. Both
//! tests run on a deliberately small 256 KiB stack: every thread that
//! parses or evaluates a formula in the server and the CLI has more.

use powerplay::ucb_library;
use powerplay_expr::{Expr, MAX_DEPTH};
use powerplay_sheet::{CompiledSheet, Sheet};

const SMALL_STACK: usize = 256 * 1024;

fn on_small_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(SMALL_STACK)
        .spawn(f)
        .unwrap()
        .join()
        .expect("no overflow, no panic");
}

#[test]
fn hostile_formulas_are_rejected_on_a_small_stack() {
    on_small_stack(|| {
        let parens = format!("{}1{}", "(".repeat(20_000), ")".repeat(20_000));
        let negations = format!("{}1", "-".repeat(20_000));
        // Left-deep: the parser builds it in a loop, so only a bound on
        // the tree keeps the later recursive passes safe.
        let flat_sum = vec!["1"; 300_000].join("+");
        assert!(flat_sum.len() < 4 * 1024 * 1024, "fits under MAX_BODY");
        for src in [&parens, &negations, &flat_sum] {
            let err = Expr::parse(src).unwrap_err();
            assert!(err.to_string().contains("nested deeper than"), "{err}");
        }
    });
}

/// A formula worth 16 with exactly `MAX_DEPTH` levels, mixing every
/// construct that adds one (calls, binary and unary operators) with
/// parentheses, which do not.
fn formula_at_the_cap() -> String {
    let mut src = "16".to_owned();
    let mut height = 1;
    for step in 0.. {
        // `abs(e)` and `(1*e)` add one level, `(--e)` adds two.
        let levels = if step % 3 == 2 { 2 } else { 1 };
        if height + levels > MAX_DEPTH {
            break;
        }
        src = match step % 3 {
            0 => format!("abs({src})"),
            1 => format!("(1*{src})"),
            _ => format!("(--{src})"),
        };
        height += levels;
    }
    while height < MAX_DEPTH {
        src = format!("abs({src})");
        height += 1;
    }
    src
}

#[test]
fn formula_at_the_cap_parses_compiles_lints_analyzes_and_plays() {
    on_small_stack(|| {
        let deep = formula_at_the_cap();
        assert!(Expr::parse(&deep).is_ok());
        assert!(
            Expr::parse(&format!("abs({deep})")).is_err(),
            "one more level is over the cap"
        );
        let flat_sum = vec!["1"; MAX_DEPTH].join("+");

        // The deep formula as a top-level global (tree-walked), a row
        // binding and a sub-sheet global (both lowered to bytecode).
        let mut sub = Sheet::new("sub");
        sub.set_global("k", &deep).unwrap();
        sub.add_element_row("Inner", "ucb/register", [("bits", "k")])
            .unwrap();
        let mut sheet = Sheet::new("deep");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet.set_global("k", &deep).unwrap();
        sheet
            .add_element_row("Deep", "ucb/register", [("bits", deep.as_str())])
            .unwrap();
        sheet
            .add_element_row("Wide", "ucb/register", [("bits", flat_sum.as_str())])
            .unwrap();
        sheet
            .add_element_row("Global", "ucb/register", [("bits", "k")])
            .unwrap();
        sheet.add_subsheet_row("Sub", sub);

        let lib = ucb_library();
        let plan = CompiledSheet::compile(&sheet, &lib);
        assert!(plan.disassemble().starts_with("program:"));
        let report = plan.play().unwrap();
        assert_eq!(Ok(report.clone()), plan.play_with_tree(&[]));
        assert_eq!(report.rows()[0].power(), report.rows()[2].power());
        assert!(report.total_power().value() > 0.0);

        let lint = powerplay_lint::lint_sheet(&sheet, &lib);
        assert_eq!(lint.count(powerplay_lint::Severity::Error), 0);
        powerplay_analysis::analyze(&plan).unwrap();

        let json = sheet.to_json().to_string();
        let reparsed = Sheet::from_json(&powerplay_json::Json::parse(&json).unwrap()).unwrap();
        assert_eq!(reparsed, sheet);
    });
}
