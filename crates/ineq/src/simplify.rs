//! System simplification: implication testing, redundancy removal, and
//! rational sample points.
//!
//! Fourier-Motzkin elimination squares the constraint count in the worst
//! case per variable; dropping constraints implied by the rest keeps the
//! communication queries small. Sample points turn "feasible" verdicts
//! into concrete witnesses for diagnostics.

use crate::constraint::{Constraint, ConstraintKind};
use crate::linexpr::LinExpr;
use crate::rational::Rational;
use crate::system::System;
use crate::var::{VarId, VarTable};

impl System {
    /// Does the system imply `c`? (Checked by refutation: the system
    /// plus the negation of `c` must be infeasible. For equalities both
    /// strict sides are refuted.)
    ///
    /// Sound for integer reasoning: a `true` answer means every integer
    /// solution of the system satisfies `c`.
    pub fn implies(&self, vt: &VarTable, c: &Constraint) -> bool {
        match c.kind {
            ConstraintKind::GeZero => {
                // ¬(e >= 0)  ⇔  -e - 1 >= 0 over the integers.
                let mut neg = self.clone();
                neg.add_ge(-c.expr.clone() - LinExpr::constant(1));
                !neg.is_consistent(vt)
            }
            ConstraintKind::EqZero => {
                let mut lt = self.clone();
                lt.add_ge(-c.expr.clone() - LinExpr::constant(1));
                let mut gt = self.clone();
                gt.add_ge(c.expr.clone() - LinExpr::constant(1));
                !lt.is_consistent(vt) && !gt.is_consistent(vt)
            }
        }
    }

    /// Remove constraints implied by the remaining ones (quadratic in the
    /// constraint count; intended for presentation and for keeping
    /// long-lived systems small, not for the inner FME loop).
    pub fn remove_redundant(&self, vt: &VarTable) -> System {
        if self.is_contradictory() {
            return System::contradiction();
        }
        let mut kept: Vec<Constraint> = self.constraints().to_vec();
        let mut k = 0;
        while k < kept.len() {
            let candidate = kept[k].clone();
            let mut rest = System::new();
            for (j, c) in kept.iter().enumerate() {
                if j != k {
                    rest.push(c.clone());
                }
            }
            if rest.implies(vt, &candidate) {
                kept.remove(k);
            } else {
                k += 1;
            }
        }
        let mut out = System::new();
        for c in kept {
            out.push(c);
        }
        out
    }

    /// Find a *rational* point satisfying the system, by eliminating
    /// variables innermost-first and back-substituting midpoints of the
    /// resulting intervals. Returns `None` when the system is
    /// (rationally) infeasible.
    ///
    /// The point is a witness for the rational relaxation — FME's
    /// "feasible" verdicts — and is what diagnostic output shows when a
    /// communication test fires.
    ///
    /// Also returns `None` if exact arithmetic overflows while
    /// back-substituting — no witness rather than a panic.
    pub fn sample_point(&self, vt: &VarTable) -> Option<Vec<(VarId, Rational)>> {
        if self.is_contradictory() {
            return None;
        }
        let order = {
            // Eliminate in elimination order; assign in reverse.
            let vars = self.vars();
            vt.elimination_order()
                .into_iter()
                .filter(|v| vars.contains(v))
                .collect::<Vec<_>>()
        };
        // Chain of projected systems: proj[k] has order[..k] still free.
        let mut chain = Vec::with_capacity(order.len() + 1);
        chain.push(self.clone());
        for &v in &order {
            let next = chain.last().unwrap().eliminate(vt, v);
            if next.is_contradictory() {
                return None;
            }
            chain.push(next);
        }
        if !chain.last().unwrap().is_empty() && !chain.last().unwrap().is_consistent(vt) {
            return None;
        }
        // Back-substitute: assign variables outermost-first.
        let mut assign: Vec<(VarId, Rational)> = Vec::new();
        for (k, &v) in order.iter().enumerate().rev() {
            // chain[k] mentions v plus already-assigned outer variables.
            let sys = &chain[k];
            let lookup = |x: VarId| -> Option<Rational> {
                assign.iter().find(|(a, _)| *a == x).map(|(_, r)| *r)
            };
            let mut lo: Option<Rational> = None;
            let mut hi: Option<Rational> = None;
            for c in sys.constraints() {
                let a = c.expr.coeff(v);
                if a == 0 {
                    continue;
                }
                // a*v + rest ⋈ 0 with rest evaluated at the assignment.
                let mut rest = c.expr.clone();
                rest.set_coeff(v, 0);
                let val = rest
                    .try_eval_rat(&|x| {
                        lookup(x).expect("inner variable leaked into projected system")
                    })
                    .ok()?;
                let bound = val.checked_neg().ok()?.checked_div(Rational::int(a)).ok()?;
                match (c.kind, a > 0) {
                    (ConstraintKind::GeZero, true) => {
                        lo = Some(lo.map_or(bound, |l| if bound > l { bound } else { l }));
                    }
                    (ConstraintKind::GeZero, false) => {
                        hi = Some(hi.map_or(bound, |h| if bound < h { bound } else { h }));
                    }
                    (ConstraintKind::EqZero, _) => {
                        lo = Some(lo.map_or(bound, |l| if bound > l { bound } else { l }));
                        hi = Some(hi.map_or(bound, |h| if bound < h { bound } else { h }));
                    }
                }
            }
            let value = match (lo, hi) {
                (Some(l), Some(h)) => {
                    if l > h {
                        return None; // numeric contradiction
                    }
                    // Prefer an integer point in the interval when one
                    // exists; otherwise the midpoint.
                    let li = l.ceil();
                    if Rational::int(li) <= h {
                        Rational::int(li)
                    } else {
                        l.checked_add(h).ok()?.checked_div(Rational::int(2)).ok()?
                    }
                }
                (Some(l), None) => Rational::int(l.ceil()),
                (None, Some(h)) => Rational::int(h.floor()),
                (None, None) => Rational::zero(),
            };
            assign.push((v, value));
        }
        assign.reverse();
        Some(assign)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::VarKind;

    fn table2() -> (VarTable, VarId, VarId) {
        let mut vt = VarTable::new();
        let i = vt.fresh("i", VarKind::LoopIndex);
        let j = vt.fresh("j", VarKind::LoopIndex);
        (vt, i, j)
    }

    #[test]
    fn implication_basics() {
        let (vt, i, _) = table2();
        let mut s = System::new();
        s.add_ge(LinExpr::var(i) - LinExpr::constant(5)); // i >= 5
                                                          // implies i >= 3
        assert!(s.implies(
            &vt,
            &Constraint::ge_zero(LinExpr::var(i) - LinExpr::constant(3))
        ));
        // does not imply i >= 6
        assert!(!s.implies(
            &vt,
            &Constraint::ge_zero(LinExpr::var(i) - LinExpr::constant(6))
        ));
        // i == 5 not implied (i could be larger)
        assert!(!s.implies(
            &vt,
            &Constraint::eq_zero(LinExpr::var(i) - LinExpr::constant(5))
        ));
    }

    #[test]
    fn equality_implication() {
        let (vt, i, _) = table2();
        let mut s = System::new();
        s.add_ge(LinExpr::var(i) - LinExpr::constant(5));
        s.add_ge(LinExpr::constant(5) - LinExpr::var(i));
        assert!(s.implies(
            &vt,
            &Constraint::eq_zero(LinExpr::var(i) - LinExpr::constant(5))
        ));
    }

    #[test]
    fn redundancy_removal_drops_weaker_bounds() {
        let (vt, i, _) = table2();
        let mut s = System::new();
        s.add_ge(LinExpr::var(i) - LinExpr::constant(5)); // i >= 5
        s.add_ge(LinExpr::var(i) - LinExpr::constant(3)); // i >= 3 (redundant)
        s.add_ge(LinExpr::constant(10) - LinExpr::var(i)); // i <= 10
        let r = s.remove_redundant(&vt);
        assert_eq!(r.len(), 2, "{r:?}");
    }

    #[test]
    fn sample_point_satisfies_system() {
        let (vt, i, j) = table2();
        let mut s = System::new();
        s.add_range(LinExpr::var(i), LinExpr::constant(2), LinExpr::constant(9));
        s.add_ge(LinExpr::var(j) - LinExpr::var(i) - LinExpr::constant(1)); // j >= i+1
        s.add_ge(LinExpr::constant(20) - LinExpr::var(j));
        let pt = s.sample_point(&vt).expect("feasible");
        let get = |v: VarId| pt.iter().find(|(a, _)| *a == v).unwrap().1;
        for c in s.constraints() {
            let val = c.expr.eval_rat(&|v| get(v));
            match c.kind {
                ConstraintKind::GeZero => assert!(val >= Rational::zero(), "{c:?} at {pt:?}"),
                ConstraintKind::EqZero => assert!(val.is_zero(), "{c:?} at {pt:?}"),
            }
        }
    }

    #[test]
    fn sample_point_none_for_infeasible() {
        let (vt, i, _) = table2();
        let mut s = System::new();
        s.add_range(LinExpr::var(i), LinExpr::constant(5), LinExpr::constant(2));
        assert!(s.sample_point(&vt).is_none());
    }

    #[test]
    fn sample_point_prefers_integers() {
        let (vt, i, _) = table2();
        let mut s = System::new();
        s.add_range(LinExpr::var(i), LinExpr::constant(3), LinExpr::constant(7));
        let pt = s.sample_point(&vt).unwrap();
        assert!(pt[0].1.is_integer());
    }
}
