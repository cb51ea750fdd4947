//! Affine index expressions and floating-point value expressions.

use crate::decl::{ArrayId, ScalarId, SymId};
use crate::node::LoopId;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An atom an affine expression can mention: a loop index or a symbolic
/// program constant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum AffAtom {
    /// A loop index variable.
    Loop(LoopId),
    /// A symbolic constant (problem size, processor count…).
    Sym(SymId),
}

/// An affine integer expression `constant + Σ coeff·atom` with `i64`
/// coefficients, used for loop bounds, array subscripts, extents, and
/// guard conditions.
///
/// The terms are one vector of `(atom, coeff)` pairs, atoms strictly
/// ascending and no coefficient zero — the iteration order, equality,
/// ordering and hash of the sorted map it stands for, without a tree
/// node per term (an expression mentions a handful of atoms).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Affine {
    terms: Vec<(AffAtom, i64)>,
    constant: i64,
}

impl Affine {
    /// The constant expression `c`.
    pub fn constant(c: i64) -> Self {
        Affine {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// The expression `1·atom`.
    pub fn atom(a: AffAtom) -> Self {
        Affine {
            terms: vec![(a, 1)],
            constant: 0,
        }
    }

    /// The loop-index expression `i`.
    pub fn index(i: LoopId) -> Self {
        Self::atom(AffAtom::Loop(i))
    }

    /// The symbolic-constant expression `s`.
    pub fn sym(s: SymId) -> Self {
        Self::atom(AffAtom::Sym(s))
    }

    /// Where atom `a` sits in the terms, or where it would go.
    fn slot(&self, a: AffAtom) -> Result<usize, usize> {
        self.terms.binary_search_by_key(&a, |&(t, _)| t)
    }

    /// Coefficient of an atom (0 if absent).
    pub fn coeff(&self, a: AffAtom) -> i64 {
        self.slot(a).map_or(0, |k| self.terms[k].1)
    }

    /// The constant term.
    pub fn constant_term(&self) -> i64 {
        self.constant
    }

    /// Iterate `(atom, coeff)` pairs, atoms ascending.
    pub fn terms(&self) -> impl Iterator<Item = (AffAtom, i64)> + '_ {
        self.terms.iter().copied()
    }

    /// True if no atoms appear.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// All loop indices mentioned.
    pub fn loops(&self) -> impl Iterator<Item = LoopId> + '_ {
        self.terms.iter().filter_map(|(a, _)| match a {
            AffAtom::Loop(l) => Some(*l),
            AffAtom::Sym(_) => None,
        })
    }

    /// Set a coefficient (removing zero terms).
    pub fn set_coeff(&mut self, a: AffAtom, c: i64) {
        match (self.slot(a), c) {
            (Ok(k), 0) => {
                self.terms.remove(k);
            }
            (Ok(k), c) => self.terms[k].1 = c,
            (Err(_), 0) => {}
            (Err(k), c) => self.terms.insert(k, (a, c)),
        }
    }

    /// Add `c·a`.
    pub fn add_term(&mut self, a: AffAtom, c: i64) {
        let n = self.coeff(a).checked_add(c).expect("affine overflow");
        self.set_coeff(a, n);
    }

    /// Multiply by an integer.
    pub fn scaled(&self, k: i64) -> Affine {
        self.checked_scaled(k).expect("affine overflow")
    }

    /// `k · self`, or `None` if a coefficient or the constant overflows.
    pub fn checked_scaled(&self, k: i64) -> Option<Affine> {
        if k == 0 {
            return Some(Affine::default());
        }
        Some(Affine {
            terms: self
                .terms()
                .map(|(a, c)| Some((a, c.checked_mul(k)?)))
                .collect::<Option<_>>()?,
            constant: self.constant.checked_mul(k)?,
        })
    }

    /// `self + rhs`, or `None` if a coefficient or the constant overflows.
    pub fn checked_add(mut self, rhs: &Affine) -> Option<Affine> {
        self.constant = self.constant.checked_add(rhs.constant)?;
        for (a, c) in rhs.terms() {
            let n = self.coeff(a).checked_add(c)?;
            self.set_coeff(a, n);
        }
        Some(self)
    }

    /// Evaluate under an atom assignment.
    pub fn eval(&self, assign: &dyn Fn(AffAtom) -> i64) -> i64 {
        let mut acc = self.constant;
        for (a, c) in self.terms() {
            acc = acc
                .checked_add(c.checked_mul(assign(a)).expect("affine eval overflow"))
                .expect("affine eval overflow");
        }
        acc
    }

    /// Substitute an affine expression for a loop index.
    pub fn substituted(&self, l: LoopId, replacement: &Affine) -> Affine {
        let c = self.coeff(AffAtom::Loop(l));
        if c == 0 {
            return self.clone();
        }
        let mut out = self.clone();
        out.set_coeff(AffAtom::Loop(l), 0);
        out + replacement.scaled(c)
    }
}

impl fmt::Debug for Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (a, c) in self.terms() {
            if !first {
                write!(f, "+")?;
            }
            write!(f, "{c}*{a:?}")?;
            first = false;
        }
        if first || self.constant != 0 {
            if !first {
                write!(f, "+")?;
            }
            write!(f, "{}", self.constant)?;
        }
        Ok(())
    }
}

impl From<i64> for Affine {
    fn from(c: i64) -> Self {
        Affine::constant(c)
    }
}

impl Add for Affine {
    type Output = Affine;
    fn add(self, rhs: Affine) -> Affine {
        self.checked_add(&rhs).expect("affine overflow")
    }
}

impl Add<i64> for Affine {
    type Output = Affine;
    fn add(self, rhs: i64) -> Affine {
        self + Affine::constant(rhs)
    }
}

impl Sub for Affine {
    type Output = Affine;
    fn sub(self, rhs: Affine) -> Affine {
        self + rhs.scaled(-1)
    }
}

impl Sub<i64> for Affine {
    type Output = Affine;
    fn sub(self, rhs: i64) -> Affine {
        self + Affine::constant(-rhs)
    }
}

impl Mul<i64> for Affine {
    type Output = Affine;
    fn mul(self, k: i64) -> Affine {
        self.scaled(k)
    }
}

impl Neg for Affine {
    type Output = Affine;
    fn neg(self) -> Affine {
        self.scaled(-1)
    }
}

/// Binary floating-point operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl BinOp {
    /// Apply to two values.
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
        }
    }
}

/// Unary floating-point operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnOp {
    /// Negation.
    Neg,
    /// Square root.
    Sqrt,
    /// Absolute value.
    Abs,
    /// Exponential.
    Exp,
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
}

impl UnOp {
    /// Apply to a value.
    #[inline]
    pub fn apply(self, a: f64) -> f64 {
        match self {
            UnOp::Neg => -a,
            UnOp::Sqrt => a.sqrt(),
            UnOp::Abs => a.abs(),
            UnOp::Exp => a.exp(),
            UnOp::Sin => a.sin(),
            UnOp::Cos => a.cos(),
        }
    }
}

/// A floating-point value expression — the right-hand side of an
/// assignment. Array subscripts inside are [`Affine`].
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// A literal.
    Lit(f64),
    /// The value of an affine integer expression, as `f64`.
    Idx(Affine),
    /// A scalar variable read.
    Scalar(ScalarId),
    /// An array element read.
    Elem(ArrayId, Vec<Affine>),
    /// A binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// A unary operation.
    Un(UnOp, Box<Expr>),
}

impl Expr {
    /// All array reads in the expression, with their subscripts.
    pub fn array_reads(&self) -> Vec<(ArrayId, Vec<Affine>)> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Elem(a, subs) = e {
                out.push((*a, subs.clone()));
            }
        });
        out
    }

    /// All scalar reads in the expression.
    pub fn scalar_reads(&self) -> Vec<ScalarId> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Scalar(s) = e {
                out.push(*s);
            }
        });
        out
    }

    /// Pre-order traversal.
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Bin(_, a, b) => {
                a.walk(f);
                b.walk(f);
            }
            Expr::Un(_, a) => a.walk(f),
            _ => {}
        }
    }

    /// Minimum of two expressions.
    pub fn min(self, other: Expr) -> Expr {
        Expr::Bin(BinOp::Min, Box::new(self), Box::new(other))
    }

    /// Maximum of two expressions.
    pub fn max(self, other: Expr) -> Expr {
        Expr::Bin(BinOp::Max, Box::new(self), Box::new(other))
    }

    /// Square root.
    pub fn sqrt(self) -> Expr {
        Expr::Un(UnOp::Sqrt, Box::new(self))
    }

    /// Absolute value.
    pub fn abs(self) -> Expr {
        Expr::Un(UnOp::Abs, Box::new(self))
    }

    /// Sine.
    pub fn sin(self) -> Expr {
        Expr::Un(UnOp::Sin, Box::new(self))
    }

    /// Cosine.
    pub fn cos(self) -> Expr {
        Expr::Un(UnOp::Cos, Box::new(self))
    }

    /// Exponential.
    pub fn exp(self) -> Expr {
        Expr::Un(UnOp::Exp, Box::new(self))
    }
}

impl From<f64> for Expr {
    fn from(v: f64) -> Self {
        Expr::Lit(v)
    }
}

impl Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Add, Box::new(self), Box::new(rhs))
    }
}

impl Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Sub, Box::new(self), Box::new(rhs))
    }
}

impl Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Mul, Box::new(self), Box::new(rhs))
    }
}

impl Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Div, Box::new(self), Box::new(rhs))
    }
}

impl Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Un(UnOp::Neg, Box::new(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn li(n: u32) -> LoopId {
        LoopId(n)
    }

    #[test]
    fn affine_arithmetic() {
        let i = Affine::index(li(0));
        let e = i.clone() * 2 + 3;
        assert_eq!(e.coeff(AffAtom::Loop(li(0))), 2);
        assert_eq!(e.constant_term(), 3);
        let z = e.clone() - e;
        assert!(z.is_constant());
        assert_eq!(z.constant_term(), 0);
    }

    #[test]
    fn affine_eval_and_subst() {
        let i = Affine::index(li(0));
        let j = Affine::index(li(1));
        let e = i.clone() + j.clone() * 3 - 1;
        let v = e.eval(&|a| match a {
            AffAtom::Loop(LoopId(0)) => 10,
            AffAtom::Loop(LoopId(1)) => 2,
            _ => panic!(),
        });
        assert_eq!(v, 10 + 6 - 1);
        // substitute j := i + 1 → i + 3i + 3 - 1 = 4i + 2
        let s = e.substituted(li(1), &(i.clone() + 1));
        assert_eq!(s.coeff(AffAtom::Loop(li(0))), 4);
        assert_eq!(s.constant_term(), 2);
    }

    #[test]
    fn expr_collects_reads() {
        let a = ArrayId(0);
        let s = ScalarId(0);
        let e = Expr::Elem(a, vec![Affine::constant(1)])
            + Expr::Scalar(s) * Expr::Lit(2.0)
            + Expr::Elem(a, vec![Affine::constant(2)]);
        assert_eq!(e.array_reads().len(), 2);
        assert_eq!(e.scalar_reads(), vec![s]);
    }

    #[test]
    fn ops_apply() {
        assert_eq!(BinOp::Min.apply(2.0, 3.0), 2.0);
        assert_eq!(BinOp::Max.apply(2.0, 3.0), 3.0);
        assert_eq!(UnOp::Abs.apply(-2.0), 2.0);
        assert_eq!(UnOp::Neg.apply(2.0), -2.0);
    }
}
