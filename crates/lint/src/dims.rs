//! Unit-dimension inference over the expression AST.
//!
//! Dimensions propagate bottom-up through a formula without evaluating
//! it: `+`/`-` demand matching dimensions, `*`/`/` compose them, `^`
//! requires a constant integer exponent when the base is dimensional.
//! Number literals and unknown variables are *polymorphic*
//! ([`DimInfo::Any`]) — `vdd - 0.7` is fine, and an unknown factor in a
//! product is assumed dimensionless (`f / 16` is still hertz). That
//! keeps the checker quiet on the paper's idiomatic formulas while
//! still catching `watts + farads` outright.

use powerplay_expr::{BinaryOp, Expr, UnaryOp, BUILTIN_FUNCTIONS};
use powerplay_units::dim::Dim;

use crate::diag::{codes, Diagnostic, LintReport};

/// What the checker knows about a subexpression's dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DimInfo {
    /// Could be anything — a literal, an untyped parameter.
    Any,
    /// A definite dimension (possibly [`Dim::NONE`], i.e. a pure
    /// number).
    Known(Dim),
}

impl DimInfo {
    /// The dimension, when definite.
    pub fn known(self) -> Option<Dim> {
        match self {
            DimInfo::Any => None,
            DimInfo::Known(d) => Some(d),
        }
    }

    /// A definite non-dimensionless dimension.
    fn known_nontrivial(self) -> Option<Dim> {
        self.known().filter(|d| !d.is_none())
    }
}

/// The naming convention mapping sheet-level identifiers to dimensions.
///
/// This is deliberately applied only to *sheet* names — globals and
/// binding targets — never to element parameters, whose authors are
/// free to use `p_low` for a probability. The prefixes follow the
/// paper's own spreadsheet figures (`vdd`, `f`, `C_sw`, `P_total`).
pub fn convention_dim(name: &str) -> Option<Dim> {
    match name {
        "vdd" | "swing" => Some(Dim::VOLT),
        "f" | "fs" | "freq" => Some(Dim::HERTZ),
        "cap" => Some(Dim::FARAD),
        "delay" => Some(Dim::SECOND),
        _ if name.starts_with("v_") => Some(Dim::VOLT),
        _ if name.starts_with("f_") => Some(Dim::HERTZ),
        _ if name.starts_with("c_") => Some(Dim::FARAD),
        _ if name.starts_with("i_") => Some(Dim::AMPERE),
        _ if name.starts_with("p_") => Some(Dim::WATT),
        _ if name.starts_with("t_") => Some(Dim::SECOND),
        _ if name.starts_with("a_") || name.starts_with("area") => Some(Dim::SQ_METRE),
        _ => None,
    }
}

/// Infers the dimension of `expr`, appending dimension diagnostics
/// (all anchored at `path`) to `out`.
///
/// `lookup` supplies the dimension of each variable; unresolvable names
/// must map to [`DimInfo::Any`] — *name* errors are the name-analysis
/// pass's job, and reporting them here would double up.
pub fn infer_dims(
    expr: &Expr,
    path: &str,
    lookup: &dyn Fn(&str) -> DimInfo,
    out: &mut LintReport,
) -> DimInfo {
    // The recursion stays lean (one small frame per level); the
    // diagnostics are built in the non-recursive helpers below.
    match expr {
        Expr::Number(_) => DimInfo::Any,
        Expr::Variable(name) => lookup(name),
        Expr::Unary(UnaryOp::Neg, inner) => infer_dims(inner, path, lookup, out),
        Expr::Binary(op, lhs, rhs) => {
            let l = infer_dims(lhs, path, lookup, out);
            let r = infer_dims(rhs, path, lookup, out);
            binary_dims(*op, (lhs, l), (rhs, r), path, out)
        }
        Expr::Call(name, args) => {
            let mut arg_dims = Vec::with_capacity(args.len());
            for arg in args {
                arg_dims.push(infer_dims(arg, path, lookup, out));
            }
            call_dims(name, args, &arg_dims, path, out)
        }
    }
}

/// The dimension of `lhs op rhs` from its operands' dimensions.
fn binary_dims(
    op: BinaryOp,
    (lhs, l): (&Expr, DimInfo),
    (rhs, r): (&Expr, DimInfo),
    path: &str,
    out: &mut LintReport,
) -> DimInfo {
    match op {
        BinaryOp::Add | BinaryOp::Sub => {
            if let (Some(a), Some(b)) = (l.known(), r.known()) {
                if a != b {
                    let verb = if op == BinaryOp::Add {
                        "add"
                    } else {
                        "subtract"
                    };
                    out.push(Diagnostic::error(
                        codes::DIM_MISMATCH,
                        path,
                        format!(
                            "dimension mismatch: cannot {verb} `{rhs}` ({b}) and `{lhs}` ({a})"
                        ),
                    ));
                }
            }
            // Result follows whichever side is definite.
            match (l, r) {
                (DimInfo::Known(a), _) => DimInfo::Known(a),
                (_, DimInfo::Known(b)) => DimInfo::Known(b),
                _ => DimInfo::Any,
            }
        }
        BinaryOp::Mul => match (l.known(), r.known()) {
            (None, None) => DimInfo::Any,
            // An unknown factor is assumed dimensionless.
            (a, b) => DimInfo::Known(a.unwrap_or(Dim::NONE) * b.unwrap_or(Dim::NONE)),
        },
        BinaryOp::Div => match (l.known(), r.known()) {
            (None, None) => DimInfo::Any,
            (a, b) => DimInfo::Known(a.unwrap_or(Dim::NONE) / b.unwrap_or(Dim::NONE)),
        },
        BinaryOp::Rem => {
            if let (Some(a), Some(b)) = (l.known(), r.known()) {
                if a != b {
                    out.push(Diagnostic::warning(
                        codes::DIM_COMPARISON,
                        path,
                        format!(
                            "operands of `%` have different dimensions: `{lhs}` is {a}, `{rhs}` is {b}"
                        ),
                    ));
                }
            }
            l
        }
        BinaryOp::Pow => infer_pow(lhs, l, rhs, r, path, out),
        BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge | BinaryOp::Eq | BinaryOp::Ne => {
            if let (Some(a), Some(b)) = (l.known(), r.known()) {
                if a != b {
                    out.push(Diagnostic::warning(
                        codes::DIM_COMPARISON,
                        path,
                        format!("suspicious comparison: `{lhs}` is {a} but `{rhs}` is {b}"),
                    ));
                }
            }
            // Comparisons yield 0/1 indicators.
            DimInfo::Known(Dim::NONE)
        }
    }
}

/// The dimension of a call from its arguments' dimensions.
fn call_dims(
    name: &str,
    args: &[Expr],
    arg_dims: &[DimInfo],
    path: &str,
    out: &mut LintReport,
) -> DimInfo {
    let arity_ok = BUILTIN_FUNCTIONS
        .iter()
        .any(|(n, a)| *n == name && *a == args.len());
    if !arity_ok {
        // Unknown function or wrong arity: name analysis reports
        // it; the dimension is unknowable.
        return DimInfo::Any;
    }
    match (name, arg_dims) {
        ("abs" | "floor" | "ceil" | "round", [d]) => *d,
        ("sqrt", [d]) => match d.known() {
            Some(a) => match a.sqrt() {
                Some(r) => DimInfo::Known(r),
                None => {
                    out.push(Diagnostic::warning(
                        codes::DIM_FUNCTION_ARG,
                        path,
                        format!("sqrt of `{}` ({a}) has no well-formed dimension", args[0]),
                    ));
                    DimInfo::Any
                }
            },
            None => DimInfo::Any,
        },
        ("exp" | "ln" | "log10" | "log2", [d]) => {
            if let Some(a) = d.known_nontrivial() {
                out.push(Diagnostic::warning(
                    codes::DIM_FUNCTION_ARG,
                    path,
                    format!(
                        "{name} expects a dimensionless argument, but `{}` is {a}",
                        args[0]
                    ),
                ));
            }
            DimInfo::Known(Dim::NONE)
        }
        ("min" | "max" | "hypot", [a, b]) => unify(*a, *b, path, out, || {
            format!("arguments of {name} have different dimensions")
        }),
        ("pow", [b, e]) => infer_pow(&args[0], *b, &args[1], *e, path, out),
        ("if", [_, t, e]) => unify(*t, *e, path, out, || {
            "the two branches of if(...) have different dimensions".to_owned()
        }),
        _ => DimInfo::Any,
    }
}

/// Merges two dimension facts, warning (via `message`) when both are
/// definite and disagree.
fn unify(
    a: DimInfo,
    b: DimInfo,
    path: &str,
    out: &mut LintReport,
    message: impl FnOnce() -> String,
) -> DimInfo {
    match (a.known(), b.known()) {
        (Some(x), Some(y)) if x != y => {
            out.push(Diagnostic::warning(
                codes::DIM_FUNCTION_ARG,
                path,
                message(),
            ));
            DimInfo::Any
        }
        (Some(x), _) => DimInfo::Known(x),
        (_, Some(y)) => DimInfo::Known(y),
        (None, None) => DimInfo::Any,
    }
}

/// Exponentiation: a dimensional base needs a constant integer
/// exponent; a dimensional exponent never makes sense.
fn infer_pow(
    base_expr: &Expr,
    base: DimInfo,
    exp_expr: &Expr,
    exp: DimInfo,
    path: &str,
    out: &mut LintReport,
) -> DimInfo {
    if let Some(d) = exp.known_nontrivial() {
        out.push(Diagnostic::warning(
            codes::POW_DIMENSIONAL_EXPONENT,
            path,
            format!("exponent `{exp_expr}` has dimension {d}; exponents must be pure numbers"),
        ));
    }
    match base.known() {
        Some(b) if b.is_none() => DimInfo::Known(Dim::NONE),
        Some(b) => match exp_expr.constant_value() {
            Some(n) if n.is_finite() && n.fract() == 0.0 && n.abs() <= 16.0 => {
                DimInfo::Known(b.powi(n as i32))
            }
            _ => {
                out.push(Diagnostic::warning(
                    codes::POW_DIMENSIONAL_EXPONENT,
                    path,
                    format!(
                        "`{base_expr}` ({b}) is raised to a non-integer or non-constant \
                         power; the result's dimension cannot be checked"
                    ),
                ));
                DimInfo::Any
            }
        },
        None => DimInfo::Any,
    }
}

/// Reports `E011` at the *smallest* constant subexpression that folds
/// to a non-finite value — `1/0` inside a larger formula, an overflow
/// literal — anchored at `path`.
pub fn check_constant_folds(expr: &Expr, path: &str, out: &mut LintReport) {
    match expr {
        Expr::Number(_) | Expr::Variable(_) => {}
        Expr::Unary(UnaryOp::Neg, inner) => check_constant_folds(inner, path, out),
        Expr::Binary(_, lhs, rhs) => {
            check_constant_folds(lhs, path, out);
            check_constant_folds(rhs, path, out);
        }
        Expr::Call(_, args) => {
            for arg in args {
                check_constant_folds(arg, path, out);
            }
        }
    }
    report_non_finite_fold(expr, path, out);
}

/// The per-node half of [`check_constant_folds`], kept out of the
/// recursion so each level's frame stays small.
fn report_non_finite_fold(expr: &Expr, path: &str, out: &mut LintReport) {
    let Some(v) = expr.constant_value() else {
        return;
    };
    if v.is_finite() {
        return;
    }
    // Only report where the non-finiteness is introduced: skip nodes
    // whose own operand already folds non-finite.
    let folds_finite = |c: &Expr| c.constant_value().is_none_or(f64::is_finite);
    let introduced_here = match expr {
        Expr::Number(_) | Expr::Variable(_) => true,
        Expr::Unary(UnaryOp::Neg, inner) => folds_finite(inner),
        Expr::Binary(_, lhs, rhs) => folds_finite(lhs) && folds_finite(rhs),
        Expr::Call(_, args) => args.iter().all(folds_finite),
    };
    if introduced_here {
        out.push(Diagnostic::error(
            codes::NON_FINITE_CONSTANT,
            path,
            format!("constant subexpression `{expr}` evaluates to {v}"),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookup(name: &str) -> DimInfo {
        match name {
            "vdd" | "swing" => DimInfo::Known(Dim::VOLT),
            "f" => DimInfo::Known(Dim::HERTZ),
            "c_out" => DimInfo::Known(Dim::FARAD),
            "i_bias" => DimInfo::Known(Dim::AMPERE),
            "P_row" => DimInfo::Known(Dim::WATT),
            "A_row" => DimInfo::Known(Dim::SQ_METRE),
            _ => DimInfo::Any,
        }
    }

    fn infer(src: &str) -> (DimInfo, LintReport) {
        let mut out = LintReport::new();
        let e = Expr::parse(src).unwrap();
        let d = infer_dims(&e, "test", &lookup, &mut out);
        (d, out)
    }

    #[test]
    fn eq1_is_watts() {
        let (d, out) = infer("c_out * swing * vdd * f + i_bias * vdd");
        assert_eq!(d, DimInfo::Known(Dim::WATT));
        assert!(out.is_empty(), "{}", out.render_text());
    }

    #[test]
    fn literals_are_polymorphic() {
        let (d, out) = infer("vdd - 0.7");
        assert_eq!(d, DimInfo::Known(Dim::VOLT));
        assert!(out.is_empty());
        let (d, out) = infer("f / 16");
        assert_eq!(d, DimInfo::Known(Dim::HERTZ));
        assert!(out.is_empty());
    }

    #[test]
    fn adding_watts_to_farads_is_an_error() {
        let (_, out) = infer("P_row + c_out");
        assert!(out.has_errors());
        let d = &out.diagnostics()[0];
        assert_eq!(d.code, codes::DIM_MISMATCH);
        assert!(d.message.contains("W"), "{}", d.message);
        assert!(d.message.contains("F"), "{}", d.message);
    }

    #[test]
    fn matching_add_is_fine() {
        let (d, out) = infer("P_row + i_bias * vdd");
        assert_eq!(d, DimInfo::Known(Dim::WATT));
        assert!(out.is_empty());
    }

    #[test]
    fn comparison_of_mixed_dims_warns_and_is_dimensionless() {
        let (d, out) = infer("vdd < f");
        assert_eq!(d, DimInfo::Known(Dim::NONE));
        assert_eq!(out.count(crate::Severity::Warning), 1);
        assert_eq!(out.diagnostics()[0].code, codes::DIM_COMPARISON);
        // ... and the 0/1 result composes onward without cascades.
        let (d, out) = infer("(vdd < 3) * P_row");
        assert_eq!(d, DimInfo::Known(Dim::WATT));
        assert!(out.is_empty());
    }

    #[test]
    fn pow_integer_constant_composes() {
        let (d, out) = infer("vdd ^ 2");
        assert_eq!(d, DimInfo::Known(Dim::VOLT.powi(2)));
        assert!(out.is_empty());
        let (d, out) = infer("sqrt(vdd ^ 2)");
        assert_eq!(d, DimInfo::Known(Dim::VOLT));
        assert!(out.is_empty());
    }

    #[test]
    fn pow_non_constant_exponent_on_dimensional_base_warns() {
        let (d, out) = infer("vdd ^ bits");
        assert_eq!(d, DimInfo::Any);
        assert_eq!(out.diagnostics()[0].code, codes::POW_DIMENSIONAL_EXPONENT);
        // Dimensionless base with an unknown exponent is idiomatic
        // (`2 ^ n_i` in the control ROM model) and stays quiet.
        let (_, out) = infer("2 ^ bits");
        assert!(out.is_empty());
    }

    #[test]
    fn dimensional_exponent_warns() {
        let (_, out) = infer("2 ^ vdd");
        assert_eq!(out.diagnostics()[0].code, codes::POW_DIMENSIONAL_EXPONENT);
    }

    #[test]
    fn log_of_dimensional_arg_warns() {
        let (d, out) = infer("log2(f)");
        assert_eq!(d, DimInfo::Known(Dim::NONE));
        assert_eq!(out.diagnostics()[0].code, codes::DIM_FUNCTION_ARG);
        let (_, out) = infer("log2(words)");
        assert!(out.is_empty());
    }

    #[test]
    fn min_and_if_unify() {
        let (d, out) = infer("min(P_row, i_bias * vdd)");
        assert_eq!(d, DimInfo::Known(Dim::WATT));
        assert!(out.is_empty());
        let (_, out) = infer("max(P_row, c_out)");
        assert_eq!(out.diagnostics()[0].code, codes::DIM_FUNCTION_ARG);
        let (d, out) = infer("if(duty > 0, P_row, 0)");
        assert_eq!(d, DimInfo::Known(Dim::WATT));
        assert!(out.is_empty());
    }

    #[test]
    fn sqrt_of_odd_dimension_warns() {
        let (_, out) = infer("sqrt(vdd)");
        assert_eq!(out.diagnostics()[0].code, codes::DIM_FUNCTION_ARG);
        let (d, out) = infer("sqrt(A_row)");
        assert_eq!(d, DimInfo::Known(Dim::new(1, 0, 0, 0)));
        assert!(out.is_empty());
    }

    #[test]
    fn constant_fold_reports_smallest_nonfinite() {
        let mut out = LintReport::new();
        let e = Expr::parse("bits * (1 / 0) + 2").unwrap();
        check_constant_folds(&e, "t", &mut out);
        assert_eq!(out.len(), 1);
        let d = &out.diagnostics()[0];
        assert_eq!(d.code, codes::NON_FINITE_CONSTANT);
        assert!(d.message.contains("(1 / 0)"), "{}", d.message);
        let mut out = LintReport::new();
        check_constant_folds(&Expr::parse("vdd / (2 - 2)").unwrap(), "t", &mut out);
        assert!(out.is_empty(), "non-constant division is a runtime concern");
    }

    #[test]
    fn conventions_cover_paper_names() {
        assert_eq!(convention_dim("vdd"), Some(Dim::VOLT));
        assert_eq!(convention_dim("f"), Some(Dim::HERTZ));
        assert_eq!(convention_dim("c_line"), Some(Dim::FARAD));
        assert_eq!(convention_dim("i_rx"), Some(Dim::AMPERE));
        assert_eq!(convention_dim("p_load"), Some(Dim::WATT));
        assert_eq!(convention_dim("t_access"), Some(Dim::SECOND));
        assert_eq!(convention_dim("area_mm2"), Some(Dim::SQ_METRE));
        assert_eq!(convention_dim("bits"), None);
        assert_eq!(convention_dim("eta"), None);
        assert_eq!(convention_dim("duty_tx"), None);
    }
}
