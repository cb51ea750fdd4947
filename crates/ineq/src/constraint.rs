//! Individual affine constraints (`expr >= 0` / `expr == 0`).

use crate::arith::div_floor;
use crate::linexpr::LinExpr;
use crate::var::VarTable;
use std::fmt;

/// Whether a constraint is an inequality or an equality.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ConstraintKind {
    /// `expr >= 0`.
    GeZero,
    /// `expr == 0`.
    EqZero,
}

/// An affine constraint over the variables of a [`VarTable`].
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Constraint {
    /// The affine expression compared against zero.
    pub expr: LinExpr,
    /// Inequality or equality.
    pub kind: ConstraintKind,
}

impl Constraint {
    /// `expr >= 0`.
    pub fn ge_zero(expr: LinExpr) -> Self {
        Constraint {
            expr,
            kind: ConstraintKind::GeZero,
        }
    }

    /// `expr == 0`.
    pub fn eq_zero(expr: LinExpr) -> Self {
        Constraint {
            expr,
            kind: ConstraintKind::EqZero,
        }
    }

    /// Normalize in place:
    /// * divide all coefficients by their gcd `g`;
    /// * for inequalities, tighten the constant to `floor(c / g)` — valid
    ///   for integer solutions and the source of the "dark shadow"-style
    ///   strengthening over the pure rational relaxation;
    /// * for equalities, if `g` does not divide the constant the
    ///   constraint is unsatisfiable over the integers and this returns
    ///   `false`.
    ///
    /// Returns `true` if the constraint remains (possibly) satisfiable.
    /// Trivially true constraints are left in place (callers dedup).
    pub fn normalize(&mut self) -> bool {
        let g = self.expr.coeff_gcd();
        if g == 0 {
            // Pure constant constraint: check it outright.
            return match self.kind {
                ConstraintKind::GeZero => self.expr.constant_term() >= 0,
                ConstraintKind::EqZero => self.expr.constant_term() == 0,
            };
        }
        if g > 1 {
            let c = self.expr.constant_term();
            match self.kind {
                ConstraintKind::GeZero => {
                    let mut out = LinExpr::constant(div_floor(c, g));
                    for (v, k) in self.expr.terms() {
                        out.set_coeff(v, k / g);
                    }
                    self.expr = out;
                }
                ConstraintKind::EqZero => {
                    if c % g != 0 {
                        return false;
                    }
                    let mut out = LinExpr::constant(c / g);
                    for (v, k) in self.expr.terms() {
                        out.set_coeff(v, k / g);
                    }
                    self.expr = out;
                }
            }
        }
        true
    }

    /// True if this constraint holds for every assignment
    /// (i.e. a constant expression satisfying the comparison).
    pub fn is_trivially_true(&self) -> bool {
        self.expr.is_constant()
            && match self.kind {
                ConstraintKind::GeZero => self.expr.constant_term() >= 0,
                ConstraintKind::EqZero => self.expr.constant_term() == 0,
            }
    }

    /// Check an integer assignment.
    pub fn holds_int(&self, assign: &dyn Fn(crate::VarId) -> i128) -> bool {
        let v = self.expr.eval_int(assign);
        match self.kind {
            ConstraintKind::GeZero => v >= 0,
            ConstraintKind::EqZero => v == 0,
        }
    }

    /// Render with variable names.
    pub fn display<'a>(&'a self, vt: &'a VarTable) -> impl fmt::Display + 'a {
        DisplayConstraint { c: self, vt }
    }
}

struct DisplayConstraint<'a> {
    c: &'a Constraint,
    vt: &'a VarTable,
}

impl fmt::Display for DisplayConstraint<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.c.kind {
            ConstraintKind::GeZero => ">=",
            ConstraintKind::EqZero => "==",
        };
        write!(f, "{} {} 0", self.c.expr.display(self.vt), op)
    }
}

impl fmt::Debug for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.kind {
            ConstraintKind::GeZero => ">=",
            ConstraintKind::EqZero => "==",
        };
        write!(f, "{:?} {} 0", self.expr, op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::{VarKind, VarTable};

    #[test]
    fn normalize_divides_gcd_and_tightens() {
        let mut vt = VarTable::new();
        let i = vt.fresh("i", VarKind::LoopIndex);
        // 2i - 3 >= 0  ->  i + floor(-3/2) >= 0  ->  i - 2 >= 0 (i >= 2,
        // correct for integers since 2i >= 3 means i >= 1.5).
        let mut c = Constraint::ge_zero(LinExpr::term(i, 2) + LinExpr::constant(-3));
        assert!(c.normalize());
        assert_eq!(c.expr.coeff(i), 1);
        assert_eq!(c.expr.constant_term(), -2);
    }

    #[test]
    fn normalize_detects_integer_infeasible_equality() {
        let mut vt = VarTable::new();
        let i = vt.fresh("i", VarKind::LoopIndex);
        // 2i == 5 has no integer solution.
        let mut c = Constraint::eq_zero(LinExpr::term(i, 2) + LinExpr::constant(-5));
        assert!(!c.normalize());
    }

    #[test]
    fn constant_constraints() {
        let mut t = Constraint::ge_zero(LinExpr::constant(3));
        assert!(t.normalize());
        assert!(t.is_trivially_true());
        let mut f = Constraint::ge_zero(LinExpr::constant(-1));
        assert!(!f.normalize());
        let mut e = Constraint::eq_zero(LinExpr::constant(0));
        assert!(e.normalize());
        assert!(e.is_trivially_true());
    }

    #[test]
    fn holds_int_checks_assignment() {
        let mut vt = VarTable::new();
        let i = vt.fresh("i", VarKind::LoopIndex);
        let c = Constraint::ge_zero(LinExpr::var(i) - LinExpr::constant(5));
        assert!(c.holds_int(&|_| 5));
        assert!(!c.holds_int(&|_| 4));
    }
}
