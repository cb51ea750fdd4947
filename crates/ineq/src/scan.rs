//! Scanning polyhedra with do-loops (Ancourt & Irigoin, PPoPP'91).
//!
//! Given a consistent system and an ordered list of loop variables, this
//! module derives, for each variable, the set of affine lower/upper bound
//! expressions (with divisors) in terms of *outer* variables only — the
//! exact shape a code generator needs to emit a perfectly nested loop that
//! scans the integer points of the polyhedron.

use crate::arith::{div_ceil, div_floor};
use crate::linexpr::LinExpr;
use crate::system::System;
use crate::var::VarId;

/// One bound of a loop variable: `expr / div` with `div > 0`.
///
/// For a lower bound the loop should start at `ceil(expr / div)`, for an
/// upper bound it should stop at `floor(expr / div)`.
#[derive(Clone, Debug)]
pub struct BoundExpr {
    /// Numerator expression over outer variables.
    pub expr: LinExpr,
    /// Positive divisor.
    pub div: i128,
}

impl BoundExpr {
    /// Evaluate as a lower bound (`ceil`).
    pub fn eval_lower(&self, assign: &dyn Fn(VarId) -> i128) -> i128 {
        div_ceil(self.expr.eval_int(assign), self.div)
    }

    /// Evaluate as an upper bound (`floor`).
    pub fn eval_upper(&self, assign: &dyn Fn(VarId) -> i128) -> i128 {
        div_floor(self.expr.eval_int(assign), self.div)
    }
}

/// The complete bound set for one loop variable.
#[derive(Clone, Debug)]
pub struct VarBounds {
    /// The variable being bounded.
    pub var: VarId,
    /// Lower bounds; the loop starts at the max of their ceilings.
    pub lowers: Vec<BoundExpr>,
    /// Upper bounds; the loop stops at the min of their floors.
    pub uppers: Vec<BoundExpr>,
}

impl VarBounds {
    /// The inclusive integer range of `var` under `assign` for the outer
    /// variables; `None` when empty.
    pub fn range(&self, assign: &dyn Fn(VarId) -> i128) -> Option<(i128, i128)> {
        let lo = self
            .lowers
            .iter()
            .map(|b| b.eval_lower(assign))
            .max()
            .unwrap_or(i128::MIN);
        let hi = self
            .uppers
            .iter()
            .map(|b| b.eval_upper(assign))
            .min()
            .unwrap_or(i128::MAX);
        if lo <= hi {
            Some((lo, hi))
        } else {
            None
        }
    }
}

/// Extract the bound expressions of `v` from `sys`. Constraints not
/// involving `v` are ignored; constraints involving `v` must only mention
/// `v` and variables assigned before it (the caller guarantees this by
/// projecting appropriately).
pub fn bounds_of(sys: &System, v: VarId) -> VarBounds {
    let mut lowers = Vec::new();
    let mut uppers = Vec::new();
    for c in sys.constraints() {
        let a = c.expr.coeff(v);
        if a == 0 {
            continue;
        }
        let mut rest = c.expr.clone();
        rest.set_coeff(v, 0);
        use crate::constraint::ConstraintKind::*;
        match (c.kind, a > 0) {
            // a*v + rest >= 0, a > 0  =>  v >= -rest/a
            (GeZero, true) => lowers.push(BoundExpr {
                expr: -rest,
                div: a,
            }),
            // a*v + rest >= 0, a < 0  =>  v <= rest/(-a)
            (GeZero, false) => uppers.push(BoundExpr {
                expr: rest,
                div: -a,
            }),
            (EqZero, up) => {
                let (abs, sign) = (a.abs(), if up { 1 } else { -1 });
                let e = rest.scaled(-sign);
                lowers.push(BoundExpr {
                    expr: e.clone(),
                    div: abs,
                });
                uppers.push(BoundExpr { expr: e, div: abs });
            }
        }
    }
    VarBounds {
        var: v,
        lowers,
        uppers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::{VarKind, VarTable};

    /// Derive nested-loop bounds for `ordered` (outermost first): for the
    /// k-th variable, all variables ordered after it are projected away, so
    /// its bounds mention only earlier variables and the free symbolics.
    /// The tests' scanner: the analysis asks [`bounds_of`] one variable at
    /// a time.
    fn loop_nest_bounds(sys: &System, vt: &VarTable, ordered: &[VarId]) -> Vec<VarBounds> {
        let mut out = Vec::with_capacity(ordered.len());
        for (k, &v) in ordered.iter().enumerate() {
            let mut proj = sys.clone();
            for &inner in &ordered[k + 1..] {
                proj = proj.eliminate(vt, inner);
            }
            // Also drop any stray variables that are neither v, outer loop
            // vars, nor free symbolics mentioned by the original system.
            let keep: Vec<VarId> = ordered[..=k].to_vec();
            let stray: Vec<VarId> = proj
                .vars()
                .into_iter()
                .filter(|x| !keep.contains(x) && ordered.contains(x))
                .collect();
            for s in stray {
                proj = proj.eliminate(vt, s);
            }
            out.push(bounds_of(&proj, v));
        }
        out
    }

    /// Enumerate every integer point of the polyhedron described by `sys`
    /// over `ordered` variables (outermost first), with `outer` providing
    /// values for free symbolics. Exponential: the tests' reference for
    /// what `loop_nest_bounds` scans.
    fn enumerate_points(
        sys: &System,
        vt: &VarTable,
        ordered: &[VarId],
        outer: &dyn Fn(VarId) -> i128,
    ) -> Vec<Vec<i128>> {
        let nests = loop_nest_bounds(sys, vt, ordered);
        let mut out = Vec::new();
        let mut point: Vec<(VarId, i128)> = Vec::new();
        fn rec(
            nests: &[VarBounds],
            depth: usize,
            point: &mut Vec<(VarId, i128)>,
            outer: &dyn Fn(VarId) -> i128,
            sys: &System,
            out: &mut Vec<Vec<i128>>,
        ) {
            let lookup = |point: &Vec<(VarId, i128)>, v: VarId| -> i128 {
                point
                    .iter()
                    .rev()
                    .find(|(pv, _)| *pv == v)
                    .map(|(_, x)| *x)
                    .unwrap_or_else(|| outer(v))
            };
            if depth == nests.len() {
                // Validate against the original system (bounds are an
                // over-approximation when divisors were involved).
                let assign = |v: VarId| lookup(point, v);
                if sys.constraints().iter().all(|c| c.holds_int(&assign)) {
                    out.push(point.iter().map(|(_, x)| *x).collect());
                }
                return;
            }
            let nb = &nests[depth];
            let assign = |v: VarId| lookup(point, v);
            if let Some((lo, hi)) = nb.range(&assign) {
                for x in lo..=hi {
                    point.push((nb.var, x));
                    rec(nests, depth + 1, point, outer, sys, out);
                    point.pop();
                }
            }
        }
        rec(&nests, 0, &mut point, outer, sys, &mut out);
        out
    }

    #[test]
    fn rectangle_bounds() {
        let mut vt = VarTable::new();
        let i = vt.fresh("i", VarKind::LoopIndex);
        let j = vt.fresh("j", VarKind::LoopIndex);
        let mut s = System::new();
        s.add_range(LinExpr::var(i), LinExpr::constant(1), LinExpr::constant(3));
        s.add_range(LinExpr::var(j), LinExpr::constant(0), LinExpr::constant(1));
        let pts = enumerate_points(&s, &vt, &[i, j], &|_| panic!("no outer vars"));
        assert_eq!(pts.len(), 6);
        assert!(pts.contains(&vec![1, 0]));
        assert!(pts.contains(&vec![3, 1]));
    }

    #[test]
    fn triangle_bounds_depend_on_outer() {
        let mut vt = VarTable::new();
        let i = vt.fresh("i", VarKind::LoopIndex);
        let j = vt.fresh("j", VarKind::LoopIndex);
        // 1 <= i <= 3, 1 <= j <= i
        let mut s = System::new();
        s.add_range(LinExpr::var(i), LinExpr::constant(1), LinExpr::constant(3));
        s.add_range(LinExpr::var(j), LinExpr::constant(1), LinExpr::var(i));
        let pts = enumerate_points(&s, &vt, &[i, j], &|_| unreachable!());
        assert_eq!(pts.len(), 1 + 2 + 3);
    }

    #[test]
    fn symbolic_outer_bound() {
        let mut vt = VarTable::new();
        let n = vt.fresh("n", VarKind::Symbolic);
        let i = vt.fresh("i", VarKind::LoopIndex);
        let mut s = System::new();
        s.add_range(LinExpr::var(i), LinExpr::constant(1), LinExpr::var(n));
        let pts = enumerate_points(&s, &vt, &[i], &|v| if v == n { 4 } else { panic!() });
        assert_eq!(pts.len(), 4);
    }

    #[test]
    fn divisor_bounds_round_correctly() {
        let mut vt = VarTable::new();
        let i = vt.fresh("i", VarKind::LoopIndex);
        // 2i >= 3 and 2i <= 9  =>  i in {2,3,4}
        let mut s = System::new();
        s.add_ge(LinExpr::term(i, 2) - LinExpr::constant(3));
        s.add_ge(LinExpr::constant(9) - LinExpr::term(i, 2));
        let b = bounds_of(&s, i);
        let r = b.range(&|_| unreachable!()).unwrap();
        assert_eq!(r, (2, 4));
    }

    #[test]
    fn empty_polyhedron_enumerates_nothing() {
        let mut vt = VarTable::new();
        let i = vt.fresh("i", VarKind::LoopIndex);
        let mut s = System::new();
        s.add_range(LinExpr::var(i), LinExpr::constant(5), LinExpr::constant(2));
        let pts = enumerate_points(&s, &vt, &[i], &|_| unreachable!());
        assert!(pts.is_empty());
    }
}
