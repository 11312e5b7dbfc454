//! Pratt parser turning token streams into [`Expr`] trees.

use crate::ast::{BinaryOp, Expr, UnaryOp};
use crate::error::ParseExprError;
use crate::lexer::{lex, Spanned, Token};

/// The deepest formula [`Expr::parse`] accepts. Two measures share it:
///
/// * the tree's height — every unary operator, binary operator and
///   function call is one level, a leaf is the last, so `1+1+…+1` with
///   128 terms is exactly at the cap;
/// * parentheses open at once, a call's argument list included.
///
/// The parser itself keeps its work on the heap, but every later pass
/// over a formula (evaluation, lowering, linting, interval analysis,
/// printing, even dropping it) recurses once per level, so an unbounded
/// formula could overflow the stack of whatever thread handles it.
/// Printing a formula opens one parenthesis per node at most, so every
/// accepted formula prints as one that reparses.
pub const MAX_DEPTH: usize = 128;

impl Expr {
    /// Parses a formula.
    ///
    /// Supported grammar: `+ - * / % ^` with conventional precedence
    /// (`^` right-associative, binding tighter than unary minus),
    /// comparisons (`< <= > >= == !=`, lowest precedence, yielding 0/1),
    /// parentheses, function calls, identifiers and SI-scaled literals.
    ///
    /// # Errors
    ///
    /// Returns [`ParseExprError`] with a byte offset on malformed input,
    /// and on a formula nested deeper than [`MAX_DEPTH`] (at the token
    /// that crossed the cap).
    ///
    /// ```
    /// use powerplay_expr::Expr;
    /// # fn main() -> Result<(), powerplay_expr::ParseExprError> {
    /// let e = Expr::parse("c0 + c1*words + c1*bits + c2*words*bits")?;
    /// assert_eq!(e.free_variables().len(), 5);
    /// # Ok(())
    /// # }
    /// ```
    pub fn parse(src: &str) -> Result<Expr, ParseExprError> {
        let tokens = lex(src)?;
        let mut parser = Parser {
            tokens: &tokens,
            pos: 0,
            src_len: src.len(),
        };
        let expr = parser.expression()?;
        if parser.pos != parser.tokens.len() {
            return Err(ParseExprError::new(
                parser.offset(),
                "unexpected trailing tokens",
            ));
        }
        Ok(expr)
    }
}

struct Parser<'a> {
    tokens: &'a [Spanned],
    pos: usize,
    src_len: usize,
}

/// Binding power to the right of unary minus: tighter than `*`, looser
/// than `^`, so `-x^2` parses as `-(x^2)` and `-x*y` as `(-x)*y`.
const UNARY_NEG_BP: u8 = 11;

/// A construct the parser has opened but not yet closed: the explicit
/// stack that stands in for the recursion of a textbook Pratt parser.
enum Open {
    /// A unary minus awaiting its operand.
    Neg,
    /// A binary operator awaiting its right operand, with the left
    /// operand and its height.
    Bin(BinaryOp, Expr, usize),
    /// A parenthesized group awaiting its `)`.
    Paren,
    /// A call awaiting its next argument, with the arguments so far and
    /// the call's height so far.
    Call(String, Vec<Expr>, usize),
}

impl Open {
    /// The binding power an operator must reach to extend the operand
    /// being parsed inside this construct rather than close it.
    fn min_bp(&self) -> u8 {
        match self {
            Open::Neg => UNARY_NEG_BP,
            Open::Bin(op, ..) => op.binding_power().1,
            Open::Paren | Open::Call(..) => 0,
        }
    }
}

fn too_deep(offset: usize, what: &str) -> ParseExprError {
    ParseExprError::new(
        offset,
        format!("{what} nested deeper than {MAX_DEPTH} levels"),
    )
}

impl<'a> Parser<'a> {
    fn offset(&self) -> usize {
        self.tokens.get(self.pos).map_or(self.src_len, |t| t.offset)
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|t| &t.token)
    }

    fn advance(&mut self) -> Option<&'a Token> {
        let token = self.tokens.get(self.pos).map(|t| &t.token);
        self.pos += 1;
        token
    }

    fn expect(&mut self, expected: &Token, what: &str) -> Result<(), ParseExprError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(ParseExprError::new(
                self.offset(),
                format!("expected {what}"),
            ))
        }
    }

    fn binary_op(&self) -> Option<BinaryOp> {
        Some(match self.peek()? {
            Token::Plus => BinaryOp::Add,
            Token::Minus => BinaryOp::Sub,
            Token::Star => BinaryOp::Mul,
            Token::Slash => BinaryOp::Div,
            Token::Percent => BinaryOp::Rem,
            Token::Caret => BinaryOp::Pow,
            Token::Lt => BinaryOp::Lt,
            Token::Le => BinaryOp::Le,
            Token::Gt => BinaryOp::Gt,
            Token::Ge => BinaryOp::Ge,
            Token::EqEq => BinaryOp::Eq,
            Token::Ne => BinaryOp::Ne,
            _ => return None,
        })
    }

    /// One whole expression, as a Pratt parser with an explicit stack:
    /// it alternates between operand position (prefix operators, open
    /// parentheses and calls, then a leaf) and operator position (a
    /// binary operator strong enough for the innermost open construct
    /// extends the operand; otherwise that construct closes around it).
    ///
    /// Depth is checked as constructs open. `nodes` counts the open
    /// operator and call nodes: every one is an ancestor of the operand
    /// being parsed, so `nodes + height` bounds the finished tree.
    fn expression(&mut self) -> Result<Expr, ParseExprError> {
        let mut open: Vec<Open> = Vec::new();
        let mut nodes = 0usize;
        let mut brackets = 0usize;
        loop {
            // Operand position. Unary plus is the identity.
            while self.peek() == Some(&Token::Plus) {
                self.pos += 1;
            }
            let offset = self.offset();
            let (mut operand, mut height) = match self.advance() {
                Some(Token::Number(n)) => (Expr::Number(*n), 1),
                Some(Token::Ident(name)) if self.peek() == Some(&Token::LParen) => {
                    self.pos += 1;
                    if self.peek() == Some(&Token::RParen) {
                        self.pos += 1;
                        (Expr::Call(name.clone(), Vec::new()), 1)
                    } else {
                        if nodes + 2 > MAX_DEPTH {
                            return Err(too_deep(offset, "formula"));
                        }
                        if brackets == MAX_DEPTH {
                            return Err(too_deep(offset, "parentheses"));
                        }
                        open.push(Open::Call(name.clone(), Vec::new(), 1));
                        nodes += 1;
                        brackets += 1;
                        continue;
                    }
                }
                Some(Token::Ident(name)) => (Expr::Variable(name.clone()), 1),
                Some(Token::Minus) => {
                    if nodes + 2 > MAX_DEPTH {
                        return Err(too_deep(offset, "formula"));
                    }
                    open.push(Open::Neg);
                    nodes += 1;
                    continue;
                }
                Some(Token::LParen) => {
                    if brackets == MAX_DEPTH {
                        return Err(too_deep(offset, "parentheses"));
                    }
                    open.push(Open::Paren);
                    brackets += 1;
                    continue;
                }
                Some(_) => return Err(ParseExprError::new(offset, "unexpected token")),
                None => return Err(ParseExprError::new(offset, "unexpected end of formula")),
            };

            // Operator position: close constructs around the operand
            // until a binary operator takes it as its left side.
            loop {
                let min_bp = open.last().map_or(0, Open::min_bp);
                if let Some(op) = self.binary_op().filter(|op| op.binding_power().0 >= min_bp) {
                    if nodes + height + 1 > MAX_DEPTH {
                        return Err(too_deep(self.offset(), "formula"));
                    }
                    self.pos += 1;
                    open.push(Open::Bin(op, operand, height));
                    nodes += 1;
                    break;
                }
                match open.pop() {
                    None => return Ok(operand),
                    Some(Open::Neg) => {
                        operand = Expr::Unary(UnaryOp::Neg, Box::new(operand));
                        height += 1;
                        nodes -= 1;
                    }
                    Some(Open::Bin(op, lhs, lhs_height)) => {
                        operand = Expr::Binary(op, Box::new(lhs), Box::new(operand));
                        height = 1 + lhs_height.max(height);
                        nodes -= 1;
                    }
                    Some(Open::Paren) => {
                        self.expect(&Token::RParen, "`)`")?;
                        brackets -= 1;
                    }
                    Some(Open::Call(name, mut args, call_height)) => {
                        args.push(operand);
                        let call_height = call_height.max(height + 1);
                        match self.peek() {
                            Some(Token::Comma) => {
                                self.pos += 1;
                                open.push(Open::Call(name, args, call_height));
                                break;
                            }
                            Some(Token::RParen) => {
                                self.pos += 1;
                                operand = Expr::Call(name, args);
                                height = call_height;
                                nodes -= 1;
                                brackets -= 1;
                            }
                            _ => {
                                return Err(ParseExprError::new(
                                    self.offset(),
                                    "expected `,` or `)` in argument list",
                                ))
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scope;

    fn eval(src: &str) -> f64 {
        Expr::parse(src).unwrap().eval(&Scope::new()).unwrap()
    }

    #[test]
    fn precedence() {
        assert_eq!(eval("1 + 2 * 3"), 7.0);
        assert_eq!(eval("(1 + 2) * 3"), 9.0);
        assert_eq!(eval("10 - 4 - 3"), 3.0); // left-assoc
        assert_eq!(eval("2 ^ 3 ^ 2"), 512.0); // right-assoc
        assert_eq!(eval("10 / 2 / 5"), 1.0);
        assert_eq!(eval("7 % 4"), 3.0);
    }

    #[test]
    fn unary_minus() {
        assert_eq!(eval("-3 + 5"), 2.0);
        assert_eq!(eval("-2 ^ 2"), -4.0); // -(2^2)
        assert_eq!(eval("(-2) ^ 2"), 4.0);
        assert_eq!(eval("--3"), 3.0);
        assert_eq!(eval("+5"), 5.0);
        assert_eq!(eval("-2 * 3"), -6.0);
    }

    #[test]
    fn comparisons_yield_indicator_values() {
        assert_eq!(eval("3 < 4"), 1.0);
        assert_eq!(eval("3 >= 4"), 0.0);
        assert_eq!(eval("2 + 2 == 4"), 1.0);
        assert_eq!(eval("1 != 1"), 0.0);
        // Comparisons bind loosest.
        assert_eq!(eval("1 + 1 < 1 + 3"), 1.0);
    }

    #[test]
    fn function_calls() {
        assert_eq!(eval("min(3, 2)"), 2.0);
        assert_eq!(eval("max(3, 2 * 2)"), 4.0);
        assert_eq!(eval("sqrt(16)"), 4.0);
        assert_eq!(eval("if(3 > 2, 10, 20)"), 10.0);
    }

    #[test]
    fn si_literals_in_formulas() {
        let v = eval("8 * 8 * 253f");
        assert!((v - 8.0 * 8.0 * 253e-15).abs() < 1e-24);
        assert_eq!(eval("2MHz / 16"), 125e3);
    }

    #[test]
    fn error_positions() {
        assert_eq!(Expr::parse("1 + * 2").unwrap_err().offset(), 4);
        assert_eq!(Expr::parse("1 + 2)").unwrap_err().offset(), 5);
        assert_eq!(Expr::parse("(1 + 2").unwrap_err().offset(), 6);
        assert!(Expr::parse("").is_err());
        assert!(Expr::parse("min(1, 2").is_err());
        assert!(Expr::parse("f(,)").is_err());
    }

    #[test]
    fn deep_nesting_parses() {
        let src = format!("{}1{}", "(".repeat(64), ")".repeat(64));
        assert_eq!(eval(&src), 1.0);
    }

    /// `n` levels by the [`MAX_DEPTH`] measures, for each construct
    /// that adds one.
    fn nested(kind: &str, n: usize) -> String {
        match kind {
            "parens" => format!("{}1{}", "(".repeat(n), ")".repeat(n)),
            "neg" => format!("{}1", "-".repeat(n - 1)),
            "sum" => vec!["1"; n].join("+"),
            "pow" => vec!["1"; n].join("^"),
            "call" => format!("{}1{}", "abs(".repeat(n - 1), ")".repeat(n - 1)),
            "args" => format!("{}1{}", "min(1, ".repeat(n - 1), ")".repeat(n - 1)),
            "mixed" => {
                let mut src = "1".to_owned();
                for i in 1..n {
                    src = match i % 3 {
                        0 => format!("-{src}"),
                        1 => format!("2^({src})"),
                        _ => format!("({src})*3"),
                    };
                }
                src
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn depth_cap_is_exact_for_every_construct() {
        for kind in ["parens", "neg", "sum", "pow", "call", "args", "mixed"] {
            let at_cap = nested(kind, MAX_DEPTH);
            let parsed = Expr::parse(&at_cap).unwrap_or_else(|e| panic!("{kind} at the cap: {e}"));
            // Printing opens a parenthesis per node: still reparses.
            assert_eq!(Expr::parse(&parsed.to_string()), Ok(parsed), "{kind}");
            let over = nested(kind, MAX_DEPTH + 1);
            let err = Expr::parse(&over).unwrap_err();
            assert!(
                err.to_string().contains("nested deeper than 128 levels"),
                "{kind}: {err}"
            );
        }
        // Unary plus adds no level, so it never counts against the cap.
        let pluses = format!("{}1", "+".repeat(10_000));
        assert_eq!(eval(&pluses), 1.0);
    }

    #[test]
    fn depth_error_points_at_the_token_that_crossed_the_cap() {
        let sum = nested("sum", MAX_DEPTH + 1);
        // 128 terms fit; the 128th `+` would make a 129th level.
        assert_eq!(Expr::parse(&sum).unwrap_err().offset(), 2 * MAX_DEPTH - 1);
        // The 129th `(` is at offset 128.
        let parens = nested("parens", MAX_DEPTH + 1);
        assert_eq!(Expr::parse(&parens).unwrap_err().offset(), MAX_DEPTH);
        // The 128th `-` would need a 129th level for its operand.
        let negs = nested("neg", MAX_DEPTH + 1);
        assert_eq!(Expr::parse(&negs).unwrap_err().offset(), MAX_DEPTH - 1);
    }

    #[test]
    fn the_explicit_stack_keeps_precedence_and_associativity() {
        for (src, tree) in [
            ("-x ^ 2 * y", "((-(x ^ 2)) * y)"),
            ("a - b - c", "((a - b) - c)"),
            ("a ^ b ^ c", "(a ^ (b ^ c))"),
            ("a + b * c * d < e", "((a + ((b * c) * d)) < e)"),
            (
                "min(a, -b + c, f(), g(h(1)))",
                "min(a, ((-b) + c), f(), g(h(1)))",
            ),
            ("2 * -3", "(2 * (-3))"),
            ("-(a + b) % +c", "((-(a + b)) % c)"),
        ] {
            assert_eq!(Expr::parse(src).unwrap().to_string(), tree, "{src}");
        }
    }
}
