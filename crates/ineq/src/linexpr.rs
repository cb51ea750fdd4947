//! Affine (linear + constant) integer expressions over [`VarId`]s.

use crate::arith::{gcd, Overflow};
use crate::var::{VarId, VarTable};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Add, Mul, Neg, Sub};

/// Terms an expression holds without a heap allocation. The analysis
/// writes bounds, subscripts and processor relations of one to three
/// variables; a fifth term moves the array to the heap.
const INLINE: usize = 4;

/// `(var, coeff)` pairs, vars strictly ascending: inline up to
/// [`INLINE`] of them, on the heap beyond.
#[derive(Clone)]
enum Terms {
    Inline(u8, [(VarId, i128); INLINE]),
    Heap(Vec<(VarId, i128)>),
}

impl Default for Terms {
    fn default() -> Self {
        Terms::Inline(0, [(VarId(0), 0); INLINE])
    }
}

impl Terms {
    fn as_slice(&self) -> &[(VarId, i128)] {
        match self {
            Terms::Inline(n, buf) => &buf[..*n as usize],
            Terms::Heap(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [(VarId, i128)] {
        match self {
            Terms::Inline(n, buf) => &mut buf[..*n as usize],
            Terms::Heap(v) => v,
        }
    }

    fn insert(&mut self, at: usize, t: (VarId, i128)) {
        match self {
            Terms::Inline(n, buf) if (*n as usize) < INLINE => {
                buf.copy_within(at..*n as usize, at + 1);
                buf[at] = t;
                *n += 1;
            }
            Terms::Inline(_, buf) => {
                let mut v = Vec::with_capacity(2 * INLINE);
                v.extend_from_slice(buf);
                v.insert(at, t);
                *self = Terms::Heap(v);
            }
            Terms::Heap(v) => v.insert(at, t),
        }
    }

    fn remove(&mut self, at: usize) {
        match self {
            Terms::Inline(n, buf) => {
                buf.copy_within(at + 1..*n as usize, at);
                *n -= 1;
            }
            Terms::Heap(v) => {
                v.remove(at);
            }
        }
    }
}

/// An affine expression `constant + Σ coeff·var` with `i128` coefficients.
///
/// Zero coefficients are never stored, so structural equality coincides
/// with mathematical equality. The terms are one array of `(var, coeff)`
/// pairs, vars strictly ascending — the iteration order, equality and
/// hash of the sorted map it stands for — held inline up to four terms,
/// so building and combining the expressions of a pair system allocates
/// nothing.
#[derive(Clone, Default)]
pub struct LinExpr {
    terms: Terms,
    constant: i128,
}

impl PartialEq for LinExpr {
    fn eq(&self, other: &Self) -> bool {
        self.constant == other.constant && self.terms.as_slice() == other.terms.as_slice()
    }
}

impl Eq for LinExpr {}

impl Hash for LinExpr {
    /// What `#[derive(Hash)]` over a `BTreeMap<VarId, i128>` and the
    /// constant writes: the length, each pair, then the constant.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let terms = self.terms.as_slice();
        state.write_usize(terms.len());
        for (v, c) in terms {
            v.hash(state);
            c.hash(state);
        }
        self.constant.hash(state);
    }
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        Self::default()
    }

    /// The constant expression `c`.
    pub fn constant(c: i128) -> Self {
        LinExpr {
            terms: Terms::default(),
            constant: c,
        }
    }

    /// The expression `1·v`.
    pub fn var(v: VarId) -> Self {
        Self::term(v, 1)
    }

    /// The expression `c·v`.
    pub fn term(v: VarId, c: i128) -> Self {
        let mut out = LinExpr::zero();
        out.set_coeff(v, c);
        out
    }

    /// Where `v` sits in the terms, or where it would go.
    fn slot(&self, v: VarId) -> Result<usize, usize> {
        self.terms.as_slice().binary_search_by_key(&v, |&(x, _)| x)
    }

    /// Coefficient of `v` (0 if absent).
    pub fn coeff(&self, v: VarId) -> i128 {
        self.slot(v).map_or(0, |k| self.terms.as_slice()[k].1)
    }

    /// The constant term.
    pub fn constant_term(&self) -> i128 {
        self.constant
    }

    /// Iterate `(var, coeff)` pairs with nonzero coefficients.
    pub fn terms(&self) -> impl Iterator<Item = (VarId, i128)> + '_ {
        self.terms.as_slice().iter().copied()
    }

    /// True if the expression is a plain constant.
    pub fn is_constant(&self) -> bool {
        self.terms.as_slice().is_empty()
    }

    /// True if the expression is identically zero.
    pub fn is_zero(&self) -> bool {
        self.is_constant() && self.constant == 0
    }

    /// Set the coefficient of `v` (removing the term when zero).
    pub fn set_coeff(&mut self, v: VarId, c: i128) {
        match (self.slot(v), c) {
            (Ok(k), 0) => self.terms.remove(k),
            (Ok(k), c) => self.terms.as_mut_slice()[k].1 = c,
            (Err(_), 0) => {}
            (Err(k), c) => self.terms.insert(k, (v, c)),
        }
    }

    /// Add `c·v` to the expression.
    pub fn add_term(&mut self, v: VarId, c: i128) {
        self.try_add_term(v, c).expect("linexpr overflow")
    }

    /// Multiply the whole expression by `k`.
    pub fn scaled(&self, k: i128) -> LinExpr {
        self.try_scaled(k).expect("linexpr overflow")
    }

    /// Add `c·v`, or `Err(Overflow)`.
    pub fn try_add_term(&mut self, v: VarId, c: i128) -> Result<(), Overflow> {
        match self.slot(v) {
            Ok(k) => match self.terms.as_slice()[k].1.checked_add(c).ok_or(Overflow)? {
                0 => self.terms.remove(k),
                nc => self.terms.as_mut_slice()[k].1 = nc,
            },
            Err(k) if c != 0 => self.terms.insert(k, (v, c)),
            Err(_) => {}
        }
        Ok(())
    }

    /// `k · self`, or `Err(Overflow)`.
    pub fn try_scaled(&self, k: i128) -> Result<LinExpr, Overflow> {
        if k == 0 {
            return Ok(LinExpr::zero());
        }
        let mut out = self.clone();
        out.constant = out.constant.checked_mul(k).ok_or(Overflow)?;
        for (_, c) in out.terms.as_mut_slice() {
            *c = c.checked_mul(k).ok_or(Overflow)?;
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
        self.try_substituted(v, replacement)
            .expect("linexpr overflow")
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
    fn add(self, rhs: LinExpr) -> LinExpr {
        self.try_add(&rhs).expect("linexpr overflow")
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: LinExpr) -> LinExpr {
        let overflow = "linexpr overflow";
        self.constant = self.constant.checked_sub(rhs.constant).expect(overflow);
        for (v, c) in rhs.terms() {
            self.add_term(v, c.checked_neg().expect(overflow));
        }
        self
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
        assert_eq!(e.terms().count(), 2);
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

    /// Past four terms the array moves to the heap: order, lookup,
    /// removal and equality read the same on both sides of the move.
    #[test]
    fn terms_spill_past_the_inline_array_and_stay_sorted() {
        let vs: Vec<VarId> = (0..7).map(VarId).collect();
        let mut e = LinExpr::constant(1);
        for &v in vs.iter().rev() {
            e.add_term(v, i128::from(v.0) + 1);
        }
        let order: Vec<u32> = e.terms().map(|(v, _)| v.0).collect();
        assert_eq!(order, [0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(e.coeff(vs[5]), 6);
        for &v in &vs[2..] {
            e.set_coeff(v, 0);
        }
        let small = LinExpr::term(vs[1], 2) + LinExpr::var(vs[0]) + LinExpr::constant(1);
        assert_eq!(e, small, "a spilled expression equals its inline twin");
        assert_eq!(e.terms().count(), 2);
    }

    /// The hash writes what the derived hash of a sorted map plus the
    /// constant wrote, byte for byte.
    #[test]
    fn hash_stream_is_that_of_the_sorted_map() {
        #[derive(Hash)]
        struct MapExpr {
            terms: std::collections::BTreeMap<VarId, i128>,
            constant: i128,
        }
        #[derive(Default)]
        struct Tape(Vec<u8>);
        impl Hasher for Tape {
            fn finish(&self) -> u64 {
                0
            }
            fn write(&mut self, bytes: &[u8]) {
                self.0.extend_from_slice(bytes);
            }
        }
        let (_, i, j) = vars();
        let e = LinExpr::term(j, -3) + LinExpr::term(i, 2) + LinExpr::constant(7);
        let m = MapExpr {
            terms: [(i, 2), (j, -3)].into_iter().collect(),
            constant: 7,
        };
        let (mut a, mut b) = (Tape::default(), Tape::default());
        e.hash(&mut a);
        m.hash(&mut b);
        assert_eq!(a.0, b.0);
    }

    #[test]
    fn display_is_readable() {
        let (vt, i, j) = vars();
        let e = LinExpr::term(i, 1) + LinExpr::term(j, -2) + LinExpr::constant(-3);
        assert_eq!(format!("{}", e.display(&vt)), "i - 2j - 3");
    }
}
