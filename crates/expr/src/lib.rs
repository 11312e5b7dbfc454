//! The PowerPlay spreadsheet formula language.
//!
//! Every parameter of a sheet row — a bit-width, a supply voltage, an
//! access rate — is an *expression* over other parameters, exactly like a
//! spreadsheet cell. The paper's luminance example sets the read-bank
//! access rate to `f/16` and the write bank to `f/32`, where `f` is a
//! sheet-level global; its DC-DC converter dissipation is a formula over
//! the *power results* of other rows. This crate supplies that language:
//!
//! * a lexer and Pratt [parser](Expr::parse) for arithmetic with SI-scaled
//!   literals (`253f`, `2MHz`, `1.5V`), comparisons and function calls;
//! * an [evaluator](Expr::eval) over lexically-chained [`Scope`]s, which is
//!   how sub-sheets inherit global parameters in the paper's hierarchy;
//! * [free-variable extraction](Expr::free_variables) used by the sheet
//!   engine to order evaluation and detect circular definitions.
//!
//! ```
//! use powerplay_expr::{Expr, Scope};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut globals = Scope::new();
//! globals.set("f", 2e6);
//! let rate = Expr::parse("f / 16")?;
//! assert_eq!(rate.eval(&globals)?, 125e3);
//!
//! // SI-scaled literals: the multiplier model of paper EQ 20.
//! let cap = Expr::parse("8 * 8 * 253f")?;
//! assert!((cap.eval(&Scope::new())? - 8.0 * 8.0 * 253e-15).abs() < 1e-24);
//! # Ok(())
//! # }
//! ```

mod ast;
mod error;
mod eval;
mod lexer;
mod parser;

pub use parser::MAX_DEPTH;

pub use ast::{BinaryOp, Expr, UnaryOp};
pub use error::{EvalError, ParseExprError};
pub use eval::{apply_binary, Builtin, Scope, BUILTIN_FUNCTIONS};
