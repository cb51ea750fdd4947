//! The IR's text form: a small Fortran-flavoured source language that
//! lowers to a [`Program`](crate::Program), so programs are written as
//! plain `.be` files instead of builder calls. This plays the role of
//! the Fortran front end + the parallelizer's output annotations in the
//! SUIF pipeline; [`pretty`](crate::pretty) is the other direction.
//!
//! # Language
//!
//! ```text
//! program jacobi
//! sym n, tmax
//! param h = 4                 ! a named integer literal (see below)
//! array A(n+2) block          ! block | cyclic | cyclic(4) | repl | private
//! array B(n+2) block          !   a dimension may be chosen with @k: block@1
//! scalar s = 0.0              ! scalar s = 0.0 private
//!
//! doall i = 1, n
//!   B(i) = 0.5 * (A(i-1) + A(i+1)) + sin(real(3*i + h))
//! end
//! do t = 0, tmax-1
//!   doall j = 1, n
//!     if j - 1 >= 0 then
//!       A(j) = B(j)
//!     end
//!     s += B(j) * B(j)        ! += / maxreduce / minreduce are reductions
//!   end
//! end
//! ```
//!
//! Subscripts, loop bounds, extents and `if` conditions (`==`, `>=`,
//! `<=`, joined by `and`) must be affine in the loop indices, `sym`
//! constants and `param`s; right-hand sides are general arithmetic over
//! array/scalar reads with `sqrt/abs/exp/sin/cos/min/max`.
//!
//! Two rules decide how an integer reaches a right-hand side:
//!
//! * a loop index or `sym` used as a value is one affine read, and
//!   arithmetic around it is floating point: `sin(i*31 + j)` is
//!   `sin((i · 31.0) + j)`, two reads and two operations;
//! * `real(e)` is the value of the affine expression `e` as one read
//!   (`Expr::Idx`): `sin(real(i*31 + j))` evaluates `31i + j` exactly in
//!   integers first.
//!
//! `param h = 32` declares a named integer literal: `h` stands for the
//! constant wherever an affine expression may appear, so a loop bound
//! `j = h, n-1` and a subscript `B(j - h)` are literal offsets, not
//! symbolic ones. [`parse_with`] replaces a declared default, which is
//! how one source serves several problem sizes.
//!
//! ```
//! let src = "
//! program demo
//! sym n
//! array A(n) block
//! doall i = 0, n-1
//!   A(i) = sin(i)
//! end
//! ";
//! let prog = ir::text::parse(src).unwrap();
//! assert_eq!(prog.name, "demo");
//! assert_eq!(prog.parallel_loops().len(), 1);
//! ```
//!
//! Malformed input is a [`ParseError`] naming the line, never a panic:
//! that covers affine arithmetic that overflows `i64`, a block-cyclic
//! block size below 1 and a distributed dimension past the array's rank.

mod lexer;
mod parser;

pub use lexer::{Lexer, Token, TokenKind};
pub use parser::{parse, parse_with};

use std::fmt;

/// A parse error with its source line.
#[derive(Debug)]
pub struct ParseError {
    /// 1-based source line (0 for whole-program problems).
    pub line: usize,
    /// Description.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}
