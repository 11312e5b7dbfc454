//! Bit-level equality of sheet rows: the reuse test of
//! [`crate::CompiledSheet::recompile`].
//!
//! `Row: PartialEq` compares numbers as `f64`, so `0.0 == -0.0` and
//! `NaN != NaN`. A compiled body is not that forgiving: the bytecode
//! constant pool is keyed by bit pattern, so a literal `0.0` and `-0.0`
//! lower to different constants (and `1 / x` tells them apart). Every
//! number here is compared by `to_bits`.

use powerplay_expr::Expr;
use powerplay_library::{ElementModel, LibraryElement};

use crate::row::{Row, RowModel};
use crate::sheet::Sheet;

/// True when `a` and `b` are the same rows, every number bit for bit.
pub(crate) fn rows_identical(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| row_identical(x, y))
}

fn row_identical(a: &Row, b: &Row) -> bool {
    a.name() == b.name()
        && a.doc_link() == b.doc_link()
        && bindings_identical(a.bindings(), b.bindings())
        && match (a.model(), b.model()) {
            (RowModel::Element(x), RowModel::Element(y)) => x == y,
            (RowModel::Inline(x), RowModel::Inline(y)) => element_identical(x, y),
            (RowModel::SubSheet(x), RowModel::SubSheet(y)) => sheet_identical(x, y),
            _ => false,
        }
}

fn sheet_identical(a: &Sheet, b: &Sheet) -> bool {
    a.name() == b.name()
        && bindings_identical(a.globals(), b.globals())
        && rows_identical(a.rows(), b.rows())
}

fn bindings_identical(a: &[(String, Expr)], b: &[(String, Expr)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((n, x), (m, y))| n == m && expr_identical(x, y))
}

fn element_identical(a: &LibraryElement, b: &LibraryElement) -> bool {
    a.name() == b.name()
        && a.class() == b.class()
        && a.doc() == b.doc()
        && a.params().len() == b.params().len()
        && a.params().iter().zip(b.params()).all(|(p, q)| {
            p.name == q.name && p.default.to_bits() == q.default.to_bits() && p.doc == q.doc
        })
        && model_identical(a.model(), b.model())
}

fn model_identical(a: &ElementModel, b: &ElementModel) -> bool {
    let opt = |x: &Option<Expr>, y: &Option<Expr>| match (x, y) {
        (Some(x), Some(y)) => expr_identical(x, y),
        (None, None) => true,
        _ => false,
    };
    opt(&a.cap_full, &b.cap_full)
        && opt(&a.static_current, &b.static_current)
        && opt(&a.power_direct, &b.power_direct)
        && opt(&a.area, &b.area)
        && opt(&a.delay, &b.delay)
        && match (&a.cap_partial, &b.cap_partial) {
            (Some((c, s)), Some((d, t))) => expr_identical(c, d) && expr_identical(s, t),
            (None, None) => true,
            _ => false,
        }
}

/// Structural equality with numbers compared by bit pattern. Recursion
/// depth is the tree's depth, which [`Expr::parse`] bounds.
fn expr_identical(a: &Expr, b: &Expr) -> bool {
    match (a, b) {
        (Expr::Number(x), Expr::Number(y)) => x.to_bits() == y.to_bits(),
        (Expr::Variable(x), Expr::Variable(y)) => x == y,
        (Expr::Unary(op, x), Expr::Unary(oq, y)) => op == oq && expr_identical(x, y),
        (Expr::Binary(op, x1, x2), Expr::Binary(oq, y1, y2)) => {
            op == oq && expr_identical(x1, y1) && expr_identical(x2, y2)
        }
        (Expr::Call(f, xs), Expr::Call(g, ys)) => {
            f == g && xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| expr_identical(x, y))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(formula: &str) -> Row {
        Row::new("R", RowModel::Element("ucb/register".into()))
            .with_binding("bits", formula)
            .unwrap()
    }

    #[test]
    fn equal_rows_are_identical() {
        assert!(rows_identical(&[row("16 * x")], &[row("16 * x")]));
        assert!(!rows_identical(&[row("16 * x")], &[row("16 * y")]));
        assert!(!rows_identical(&[row("16")], &[row("16"), row("16")]));
    }

    #[test]
    fn signed_zeros_differ_although_partial_eq_agrees() {
        let mut pos = Sheet::new("s");
        pos.set_global_value("k", 0.0);
        let mut neg = Sheet::new("s");
        neg.set_global_value("k", -0.0);
        assert_eq!(pos, neg, "PartialEq treats 0.0 == -0.0");
        let a = Row::new("S", RowModel::SubSheet(pos));
        let b = Row::new("S", RowModel::SubSheet(neg));
        assert!(!rows_identical(&[a], &[b]));
    }

    #[test]
    fn nan_literals_with_one_bit_pattern_are_identical() {
        let mut a = Sheet::new("s");
        a.set_global_value("k", f64::NAN);
        let b = a.clone();
        assert_ne!(a, b, "PartialEq: NaN != NaN");
        assert!(sheet_identical(&a, &b));
    }
}
