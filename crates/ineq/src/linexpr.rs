//! Affine (linear + constant) integer expressions over [`VarId`]s.

use crate::rational::{gcd, Overflow, Rational};
use crate::var::{VarId, VarTable};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// An affine expression `constant + Σ coeff·var` with `i128` coefficients.
///
/// Zero coefficients are never stored, so structural equality coincides
/// with mathematical equality.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct LinExpr {
    terms: BTreeMap<VarId, i128>,
    constant: i128,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        Self::default()
    }

    /// The constant expression `c`.
    pub fn constant(c: i128) -> Self {
        LinExpr {
            terms: BTreeMap::new(),
            constant: c,
        }
    }

    /// The expression `1·v`.
    pub fn var(v: VarId) -> Self {
        Self::term(v, 1)
    }

    /// The expression `c·v`.
    pub fn term(v: VarId, c: i128) -> Self {
        let mut terms = BTreeMap::new();
        if c != 0 {
            terms.insert(v, c);
        }
        LinExpr { terms, constant: 0 }
    }

    /// Coefficient of `v` (0 if absent).
    pub fn coeff(&self, v: VarId) -> i128 {
        self.terms.get(&v).copied().unwrap_or(0)
    }

    /// The constant term.
    pub fn constant_term(&self) -> i128 {
        self.constant
    }

    /// Iterate `(var, coeff)` pairs with nonzero coefficients.
    pub fn terms(&self) -> impl Iterator<Item = (VarId, i128)> + '_ {
        self.terms.iter().map(|(v, c)| (*v, *c))
    }

    /// True if the expression is a plain constant.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// True if the expression is identically zero.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty() && self.constant == 0
    }

    /// Number of variables with nonzero coefficients.
    pub fn num_vars(&self) -> usize {
        self.terms.len()
    }

    /// Set the coefficient of `v` (removing the term when zero).
    pub fn set_coeff(&mut self, v: VarId, c: i128) {
        if c == 0 {
            self.terms.remove(&v);
        } else {
            self.terms.insert(v, c);
        }
    }

    /// Add `c·v` to the expression.
    pub fn add_term(&mut self, v: VarId, c: i128) {
        let nc = self.coeff(v).checked_add(c).expect("linexpr overflow");
        self.set_coeff(v, nc);
    }

    /// Multiply the whole expression by `k`.
    pub fn scaled(&self, k: i128) -> LinExpr {
        if k == 0 {
            return LinExpr::zero();
        }
        let mut out = LinExpr::constant(self.constant.checked_mul(k).expect("linexpr overflow"));
        for (v, c) in self.terms() {
            out.set_coeff(v, c.checked_mul(k).expect("linexpr overflow"));
        }
        out
    }

    /// Add `c·v`, or `Err(Overflow)`.
    pub fn try_add_term(&mut self, v: VarId, c: i128) -> Result<(), Overflow> {
        let nc = self.coeff(v).checked_add(c).ok_or(Overflow)?;
        self.set_coeff(v, nc);
        Ok(())
    }

    /// `k · self`, or `Err(Overflow)`.
    pub fn try_scaled(&self, k: i128) -> Result<LinExpr, Overflow> {
        if k == 0 {
            return Ok(LinExpr::zero());
        }
        let mut out = LinExpr::constant(self.constant.checked_mul(k).ok_or(Overflow)?);
        for (v, c) in self.terms() {
            out.set_coeff(v, c.checked_mul(k).ok_or(Overflow)?);
        }
        Ok(out)
    }

    /// `self + rhs`, or `Err(Overflow)`.
    pub fn try_add(mut self, rhs: &LinExpr) -> Result<LinExpr, Overflow> {
        self.constant = self.constant.checked_add(rhs.constant).ok_or(Overflow)?;
        for (v, c) in rhs.terms() {
            self.try_add_term(v, c)?;
        }
        Ok(self)
    }

    /// `self` with `v` replaced by `replacement`, or `Err(Overflow)`.
    pub fn try_substituted(&self, v: VarId, replacement: &LinExpr) -> Result<LinExpr, Overflow> {
        debug_assert_eq!(replacement.coeff(v), 0, "substitution must eliminate var");
        let c = self.coeff(v);
        if c == 0 {
            return Ok(self.clone());
        }
        let mut out = self.clone();
        out.set_coeff(v, 0);
        out.try_add(&replacement.try_scaled(c)?)
    }

    /// gcd of all variable coefficients (0 if there are none).
    pub fn coeff_gcd(&self) -> i128 {
        let mut g = 0;
        for (_, c) in self.terms() {
            g = gcd(g, c);
        }
        g
    }

    /// Replace `v` with `replacement` (which must not mention `v`).
    pub fn substituted(&self, v: VarId, replacement: &LinExpr) -> LinExpr {
        debug_assert_eq!(replacement.coeff(v), 0, "substitution must eliminate var");
        let c = self.coeff(v);
        if c == 0 {
            return self.clone();
        }
        let mut out = self.clone();
        out.set_coeff(v, 0);
        out + replacement.scaled(c)
    }

    /// Evaluate with an integer assignment; variables not present in
    /// `assign` are treated as an error (panic) because a silent default
    /// would corrupt feasibility oracles.
    pub fn eval_int(&self, assign: &dyn Fn(VarId) -> i128) -> i128 {
        let mut acc = self.constant;
        for (v, c) in self.terms() {
            acc = acc
                .checked_add(c.checked_mul(assign(v)).expect("eval overflow"))
                .expect("eval overflow");
        }
        acc
    }

    /// Evaluate with a rational assignment, or `Err(Overflow)`.
    pub fn try_eval_rat(&self, assign: &dyn Fn(VarId) -> Rational) -> Result<Rational, Overflow> {
        let mut acc = Rational::int(self.constant);
        for (v, c) in self.terms() {
            acc = acc.checked_add(Rational::int(c).checked_mul(assign(v))?)?;
        }
        Ok(acc)
    }

    /// Evaluate with a rational assignment. Panics on overflow — used
    /// only by test oracles, never on the analysis path.
    pub fn eval_rat(&self, assign: &dyn Fn(VarId) -> Rational) -> Rational {
        self.try_eval_rat(assign).expect("eval overflow")
    }

    /// Render with variable names from `vt`.
    pub fn display<'a>(&'a self, vt: &'a VarTable) -> impl fmt::Display + 'a {
        DisplayLinExpr { e: self, vt }
    }
}

struct DisplayLinExpr<'a> {
    e: &'a LinExpr,
    vt: &'a VarTable,
}

impl fmt::Display for DisplayLinExpr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in self.e.terms() {
            if first {
                if c == 1 {
                    write!(f, "{}", self.vt.name(v))?;
                } else if c == -1 {
                    write!(f, "-{}", self.vt.name(v))?;
                } else {
                    write!(f, "{}{}", c, self.vt.name(v))?;
                }
                first = false;
            } else if c > 0 {
                if c == 1 {
                    write!(f, " + {}", self.vt.name(v))?;
                } else {
                    write!(f, " + {}{}", c, self.vt.name(v))?;
                }
            } else if c == -1 {
                write!(f, " - {}", self.vt.name(v))?;
            } else {
                write!(f, " - {}{}", -c, self.vt.name(v))?;
            }
        }
        let k = self.e.constant_term();
        if first {
            write!(f, "{k}")?;
        } else if k > 0 {
            write!(f, " + {k}")?;
        } else if k < 0 {
            write!(f, " - {}", -k)?;
        }
        Ok(())
    }
}

impl fmt::Debug for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in self.terms() {
            if !first {
                write!(f, " + ")?;
            }
            write!(f, "{c}*{v:?}")?;
            first = false;
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant != 0 {
            write!(f, " + {}", self.constant)?;
        }
        Ok(())
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        self.constant = self
            .constant
            .checked_add(rhs.constant)
            .expect("linexpr overflow");
        for (v, c) in rhs.terms() {
            self.add_term(v, c);
        }
        self
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(self, rhs: LinExpr) -> LinExpr {
        self + (-rhs)
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        self.scaled(-1)
    }
}

impl Mul<i128> for LinExpr {
    type Output = LinExpr;
    fn mul(self, k: i128) -> LinExpr {
        self.scaled(k)
    }
}

impl From<i128> for LinExpr {
    fn from(c: i128) -> Self {
        LinExpr::constant(c)
    }
}

impl From<VarId> for LinExpr {
    fn from(v: VarId) -> Self {
        LinExpr::var(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::{VarKind, VarTable};

    fn vars() -> (VarTable, VarId, VarId) {
        let mut vt = VarTable::new();
        let i = vt.fresh("i", VarKind::LoopIndex);
        let j = vt.fresh("j", VarKind::LoopIndex);
        (vt, i, j)
    }

    #[test]
    fn build_and_query() {
        let (_, i, j) = vars();
        let e = LinExpr::term(i, 2) + LinExpr::term(j, -3) + LinExpr::constant(7);
        assert_eq!(e.coeff(i), 2);
        assert_eq!(e.coeff(j), -3);
        assert_eq!(e.constant_term(), 7);
        assert_eq!(e.num_vars(), 2);
        assert!(!e.is_constant());
    }

    #[test]
    fn zero_coeffs_are_dropped() {
        let (_, i, _) = vars();
        let e = LinExpr::term(i, 2) + LinExpr::term(i, -2);
        assert!(e.is_constant());
        assert_eq!(e, LinExpr::zero());
    }

    #[test]
    fn scaling() {
        let (_, i, _) = vars();
        let e = (LinExpr::var(i) + LinExpr::constant(3)).scaled(-2);
        assert_eq!(e.coeff(i), -2);
        assert_eq!(e.constant_term(), -6);
        assert!(e.scaled(0).is_zero());
    }

    #[test]
    fn substitution() {
        let (_, i, j) = vars();
        // e = 2i + 1, substitute i := j + 5 -> 2j + 11
        let e = LinExpr::term(i, 2) + LinExpr::constant(1);
        let r = LinExpr::var(j) + LinExpr::constant(5);
        let s = e.substituted(i, &r);
        assert_eq!(s.coeff(i), 0);
        assert_eq!(s.coeff(j), 2);
        assert_eq!(s.constant_term(), 11);
    }

    #[test]
    fn evaluation() {
        let (_, i, j) = vars();
        let e = LinExpr::term(i, 2) + LinExpr::term(j, -1) + LinExpr::constant(4);
        let val = e.eval_int(&|v| if v == i { 3 } else { 10 });
        assert_eq!(val, 2 * 3 - 10 + 4);
    }

    #[test]
    fn coeff_gcd() {
        let (_, i, j) = vars();
        let e = LinExpr::term(i, 6) + LinExpr::term(j, -9);
        assert_eq!(e.coeff_gcd(), 3);
        assert_eq!(LinExpr::constant(5).coeff_gcd(), 0);
    }

    #[test]
    fn display_is_readable() {
        let (vt, i, j) = vars();
        let e = LinExpr::term(i, 1) + LinExpr::term(j, -2) + LinExpr::constant(-3);
        assert_eq!(format!("{}", e.display(&vt)), "i - 2j - 3");
    }
}
