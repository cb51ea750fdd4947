//! Conjunctive systems of affine constraints and Fourier-Motzkin
//! elimination in the paper's scan order.

use crate::arith::{gcd, Overflow};
use crate::constraint::{Constraint, ConstraintKind};
use crate::linexpr::LinExpr;
use crate::rows::Rows;
use crate::var::{VarId, VarTable};
use std::collections::BTreeSet;
use std::fmt;

/// Ceiling on the live constraint count during a guarded feasibility
/// scan; exceeding it yields [`Feasibility::Unknown`] instead of letting
/// FME's quadratic blow-up run away.
pub const MAX_FEAS_CONSTRAINTS: usize = 4096;

/// Default node budget for [`System::find_integer_solution`].
pub const DEFAULT_SEARCH_FUEL: u64 = 1 << 22;

/// Maximum recursion depth for the integer box search; deeper boxes
/// return [`IntSearch::Unknown`] instead of risking the stack.
pub const MAX_SEARCH_DEPTH: usize = 64;

/// Tri-state answer of the guarded feasibility test.
///
/// `Infeasible` is a proof (no integer solution exists); `Feasible`
/// means the FME relaxation admits a solution; `Unknown` means the scan
/// was abandoned (coefficient overflow or budget exhaustion) and the
/// caller must assume communication may exist — i.e. keep the barrier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Feasibility {
    /// The relaxation admits a solution (or the test was conclusive-feasible).
    Feasible,
    /// Proven to have no integer solution.
    Infeasible,
    /// The scan overflowed or exceeded its budget; treat as feasible.
    Unknown,
}

impl Feasibility {
    /// `true` unless the system is *proven* infeasible — the conservative
    /// reading used by communication analysis.
    pub fn may_hold(self) -> bool {
        self != Feasibility::Infeasible
    }
}

/// Outcome of the fueled integer box search.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum IntSearch {
    /// A satisfying assignment.
    Found(Vec<(VarId, i128)>),
    /// The whole box was scanned; no assignment satisfies the system.
    Absent,
    /// Fuel or depth budget ran out before the box was covered.
    Unknown,
}

/// A conjunction of affine constraints.
///
/// The `contradictory` flag records that normalization discovered an
/// outright contradiction (e.g. `-1 >= 0` or `2i == 5`); such a system is
/// inconsistent regardless of its remaining constraints.
#[derive(Clone, Default)]
pub struct System {
    constraints: Vec<Constraint>,
    contradictory: bool,
}

impl System {
    /// The empty (always-true) system.
    pub fn new() -> Self {
        Self::default()
    }

    /// The empty system with room for `n` constraints.
    pub fn with_capacity(n: usize) -> Self {
        System {
            constraints: Vec::with_capacity(n),
            contradictory: false,
        }
    }

    /// A system that is unsatisfiable by construction.
    pub fn contradiction() -> Self {
        System {
            constraints: Vec::new(),
            contradictory: true,
        }
    }

    /// Back to the empty system, keeping the constraint buffer.
    pub(crate) fn clear(&mut self) {
        self.constraints.clear();
        self.contradictory = false;
    }

    fn mark_contradictory(&mut self) {
        self.contradictory = true;
        self.constraints.clear();
    }

    /// Add `expr >= 0`.
    pub fn add_ge(&mut self, expr: LinExpr) {
        self.push(Constraint::ge_zero(expr));
    }

    /// Add `expr == 0`.
    pub fn add_eq(&mut self, expr: LinExpr) {
        self.push(Constraint::eq_zero(expr));
    }

    /// Add a lower and an upper bound: `lo <= e <= hi`.
    pub fn add_range(&mut self, e: LinExpr, lo: LinExpr, hi: LinExpr) {
        self.add_ge(e.clone() - lo);
        self.add_ge(hi - e);
    }

    /// Add a constraint, normalizing it first.
    pub fn push(&mut self, mut c: Constraint) {
        if self.contradictory {
            return;
        }
        if !c.normalize() {
            self.mark_contradictory();
            return;
        }
        if !c.is_trivially_true() {
            self.constraints.push(c);
        }
    }

    /// The constraints currently in the system.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// True if the system has no constraints (and is not contradictory).
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty() && !self.contradictory
    }

    /// True if normalization already discovered a contradiction.
    pub fn is_contradictory(&self) -> bool {
        self.contradictory
    }

    /// All variables mentioned by the system.
    pub fn vars(&self) -> BTreeSet<VarId> {
        let mut s = BTreeSet::new();
        for c in &self.constraints {
            for (v, _) in c.expr.terms() {
                s.insert(v);
            }
        }
        s
    }

    /// Substitute `replacement` for `v` in every constraint.
    pub fn substitute(&mut self, v: VarId, replacement: &LinExpr) {
        self.try_substitute(v, replacement)
            .expect("substitution overflow outside the guarded analysis path")
    }

    /// Substitute, or `Err(Overflow)` with the system left contradictory-free
    /// but unspecified (callers on the guarded path discard it).
    pub fn try_substitute(&mut self, v: VarId, replacement: &LinExpr) -> Result<(), Overflow> {
        if self.contradictory {
            return Ok(());
        }
        let old = std::mem::take(&mut self.constraints);
        for c in old {
            let expr = c.expr.try_substituted(v, replacement)?;
            self.push(Constraint { expr, kind: c.kind });
        }
        Ok(())
    }

    /// Fourier-Motzkin elimination of a single variable
    /// ([`Rows::eliminate`], then [`Rows::normalize`]).
    ///
    /// Panics on coefficient overflow — the guarded analysis path
    /// ([`System::feasibility`], [`System::project_onto`]) reports it
    /// instead.
    pub fn eliminate(&self, vt: &VarTable, v: VarId) -> System {
        let mut rows = Rows::new(self, vt);
        rows.eliminate(v)
            .expect("FME coefficient overflow outside the guarded analysis path");
        rows.normalize();
        rows.to_system()
    }

    /// Guarded feasibility test: eliminate every variable in the paper's
    /// scan order (array indices first, symbolics last) under checked
    /// arithmetic and explicit budgets.
    ///
    /// [`Feasibility::Infeasible`] is definitive; [`Feasibility::Unknown`]
    /// (overflow / budget) must be treated as feasible by callers — for
    /// communication analysis that means *keep the barrier*.
    pub fn feasibility(&self, vt: &VarTable) -> Feasibility {
        self.feasibility_with_peak(vt).0
    }

    /// [`System::feasibility`] plus the peak live constraint count the
    /// scan reached (for cache/bench telemetry).
    pub fn feasibility_with_peak(&self, vt: &VarTable) -> (Feasibility, usize) {
        Rows::new(self, vt).feasibility()
    }

    /// Guarded projection onto `keep`: eliminate every other variable in
    /// the paper's scan order under checked arithmetic and the
    /// [`MAX_FEAS_CONSTRAINTS`] budgets. `None` means the projection was
    /// abandoned (overflow / budget) and proves nothing; a contradictory
    /// result means the system has no integer solution.
    pub fn project_onto(&self, vt: &VarTable, keep: &[VarId]) -> Option<System> {
        let mut rows = Rows::new(self, vt);
        rows.reduce(keep).ok()?;
        rows.project(keep).0.then(|| rows.to_system())
    }

    /// The divisibility conditions the equalities impose on `v`, as a
    /// predicate on candidate values: `a·v + Σ aᵢ·xᵢ + c == 0` admits
    /// `v = x` only if `a·x + c` is a multiple of `gcd(aᵢ)` (is zero when
    /// no other variable occurs). Exact over the integers, and invisible
    /// to the rational bounds a projection onto `v` yields. A product
    /// that overflows is admitted.
    pub fn congruence_filter(&self, v: VarId) -> impl Fn(i128) -> bool {
        let eqs = self
            .constraints
            .iter()
            .filter(|c| c.kind == ConstraintKind::EqZero && c.expr.coeff(v) != 0);
        let rows: Vec<(i128, i128, i128)> = eqs
            .map(|c| {
                let others = c.expr.terms().filter(|&(x, _)| x != v);
                let modulus = others.fold(0, |g, (_, k)| gcd(g, k));
                (c.expr.coeff(v), c.expr.constant_term(), modulus)
            })
            .collect();
        move |x| {
            rows.iter().all(|&(a, c, modulus)| {
                match a.checked_mul(x).and_then(|ax| ax.checked_add(c)) {
                    None => true,
                    Some(r) if modulus == 0 => r == 0,
                    Some(r) => r % modulus == 0,
                }
            })
        }
    }

    /// Feasibility test collapsed to a boolean: `false` only when the
    /// system is *proven* to have no integer solution; `true` otherwise
    /// (including `Unknown` — the conservative answer for communication
    /// analysis).
    pub fn is_consistent(&self, vt: &VarTable) -> bool {
        self.feasibility(vt).may_hold()
    }

    /// Exhaustively search an integer box for a satisfying assignment —
    /// exponential, only for tests and oracles. `bounds` pairs each
    /// variable with an inclusive range; variables outside `bounds` must
    /// not occur in the system. Runs with [`DEFAULT_SEARCH_FUEL`];
    /// `None` means "no assignment found within the budget".
    pub fn find_integer_solution(
        &self,
        bounds: &[(VarId, i128, i128)],
    ) -> Option<Vec<(VarId, i128)>> {
        match self.find_integer_solution_bounded(bounds, DEFAULT_SEARCH_FUEL) {
            IntSearch::Found(a) => Some(a),
            IntSearch::Absent | IntSearch::Unknown => None,
        }
    }

    /// [`System::find_integer_solution`] with an explicit fuel budget:
    /// every partial-assignment node costs one unit of fuel, and boxes
    /// deeper than [`MAX_SEARCH_DEPTH`] variables are rejected outright,
    /// so pathological generated systems return [`IntSearch::Unknown`]
    /// instead of hanging or blowing the stack.
    pub fn find_integer_solution_bounded(
        &self,
        bounds: &[(VarId, i128, i128)],
        fuel: u64,
    ) -> IntSearch {
        if self.contradictory {
            return IntSearch::Absent;
        }
        if bounds.len() > MAX_SEARCH_DEPTH {
            return IntSearch::Unknown;
        }
        fn rec(
            sys: &System,
            bounds: &[(VarId, i128, i128)],
            idx: usize,
            assign: &mut Vec<(VarId, i128)>,
            fuel: &mut u64,
        ) -> Option<bool> {
            if *fuel == 0 {
                return None;
            }
            *fuel -= 1;
            if idx == bounds.len() {
                let lookup = |v: VarId| -> i128 {
                    assign
                        .iter()
                        .find(|(av, _)| *av == v)
                        .map(|(_, x)| *x)
                        .expect("unbound variable in system")
                };
                return Some(sys.constraints.iter().all(|c| c.holds_int(&lookup)));
            }
            let (v, lo, hi) = bounds[idx];
            let mut x = lo;
            while x <= hi {
                assign.push((v, x));
                match rec(sys, bounds, idx + 1, assign, fuel) {
                    Some(true) => return Some(true),
                    Some(false) => {}
                    None => return None,
                }
                assign.pop();
                if x == hi {
                    break;
                }
                x += 1;
            }
            Some(false)
        }
        let mut assign = Vec::new();
        let mut fuel = fuel;
        match rec(self, bounds, 0, &mut assign, &mut fuel) {
            Some(true) => IntSearch::Found(assign),
            Some(false) => IntSearch::Absent,
            None => IntSearch::Unknown,
        }
    }

    /// Render with variable names, one constraint per line.
    pub fn display<'a>(&'a self, vt: &'a VarTable) -> impl fmt::Display + 'a {
        DisplaySystem { s: self, vt }
    }
}

struct DisplaySystem<'a> {
    s: &'a System,
    vt: &'a VarTable,
}

impl fmt::Display for DisplaySystem<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.s.contradictory {
            return writeln!(f, "<contradiction>");
        }
        for c in &self.s.constraints {
            writeln!(f, "{}", c.display(self.vt))?;
        }
        Ok(())
    }
}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.contradictory {
            return write!(f, "System<contradiction>");
        }
        f.debug_list().entries(&self.constraints).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::VarKind;

    fn table() -> (VarTable, VarId, VarId, VarId) {
        let mut vt = VarTable::new();
        let n = vt.fresh("n", VarKind::Symbolic);
        let i = vt.fresh("i", VarKind::LoopIndex);
        let j = vt.fresh("j", VarKind::LoopIndex);
        (vt, n, i, j)
    }

    #[test]
    fn empty_system_is_consistent() {
        let (vt, ..) = table();
        assert!(System::new().is_consistent(&vt));
        assert_eq!(System::new().feasibility(&vt), Feasibility::Feasible);
    }

    #[test]
    fn contradiction_is_inconsistent() {
        let (vt, ..) = table();
        assert!(!System::contradiction().is_consistent(&vt));
        let mut s = System::new();
        s.add_ge(LinExpr::constant(-1));
        assert!(!s.is_consistent(&vt));
        assert_eq!(s.feasibility(&vt), Feasibility::Infeasible);
    }

    #[test]
    fn box_with_point_inside() {
        let (vt, _, i, _) = table();
        let mut s = System::new();
        s.add_range(LinExpr::var(i), LinExpr::constant(1), LinExpr::constant(10));
        s.add_eq(LinExpr::var(i) - LinExpr::constant(7));
        assert!(s.is_consistent(&vt));
    }

    #[test]
    fn box_with_point_outside() {
        let (vt, _, i, _) = table();
        let mut s = System::new();
        s.add_range(LinExpr::var(i), LinExpr::constant(1), LinExpr::constant(10));
        s.add_eq(LinExpr::var(i) - LinExpr::constant(42));
        assert!(!s.is_consistent(&vt));
    }

    #[test]
    fn two_var_chain() {
        let (vt, _, i, j) = table();
        // 0 <= i <= 5, j == i + 10, j <= 12  => i <= 2, feasible
        let mut s = System::new();
        s.add_range(LinExpr::var(i), LinExpr::constant(0), LinExpr::constant(5));
        s.add_eq(LinExpr::var(j) - LinExpr::var(i) - LinExpr::constant(10));
        s.add_ge(LinExpr::constant(12) - LinExpr::var(j));
        assert!(s.is_consistent(&vt));
        // tighten: j <= 9 makes it infeasible (j >= 10 always)
        s.add_ge(LinExpr::constant(9) - LinExpr::var(j));
        assert!(!s.is_consistent(&vt));
    }

    #[test]
    fn symbolic_bound_consistency() {
        let (vt, n, i, _) = table();
        // 1 <= i <= n and n >= 1 is consistent; adding n <= 0 kills it.
        let mut s = System::new();
        s.add_range(LinExpr::var(i), LinExpr::constant(1), LinExpr::var(n));
        s.add_ge(LinExpr::var(n) - LinExpr::constant(1));
        assert!(s.is_consistent(&vt));
        s.add_ge(-LinExpr::var(n));
        assert!(!s.is_consistent(&vt));
    }

    #[test]
    fn integer_tightening_catches_parity_gap() {
        let (vt, _, i, _) = table();
        // 2i == 1 infeasible over the integers (feasible over rationals).
        let mut s = System::new();
        s.add_eq(LinExpr::term(i, 2) - LinExpr::constant(1));
        assert!(!s.is_consistent(&vt));
    }

    #[test]
    fn eliminate_pairs_bounds() {
        let (vt, _, i, j) = table();
        // i <= j and j <= i - 1 => infeasible after eliminating j.
        let mut s = System::new();
        s.add_ge(LinExpr::var(j) - LinExpr::var(i));
        s.add_ge(LinExpr::var(i) - LinExpr::constant(1) - LinExpr::var(j));
        let e = s.eliminate(&vt, j);
        assert!(e.is_contradictory() || !e.is_consistent(&vt));
    }

    #[test]
    fn find_integer_solution_oracle() {
        let (_, _, i, j) = table();
        let mut s = System::new();
        s.add_eq(LinExpr::var(i) + LinExpr::var(j) - LinExpr::constant(5));
        s.add_ge(LinExpr::var(i) - LinExpr::var(j)); // i >= j
        let sol = s
            .find_integer_solution(&[(i, 0, 5), (j, 0, 5)])
            .expect("solution exists");
        let get = |v: VarId| sol.iter().find(|(a, _)| *a == v).unwrap().1;
        assert_eq!(get(i) + get(j), 5);
        assert!(get(i) >= get(j));
    }

    #[test]
    fn integer_search_respects_fuel_and_depth() {
        let (_, _, i, j) = table();
        let mut s = System::new();
        s.add_eq(LinExpr::var(i) - LinExpr::var(j));
        // One unit of fuel cannot even finish the first assignment.
        assert_eq!(
            s.find_integer_solution_bounded(&[(i, 0, 1000), (j, 0, 1000)], 1),
            IntSearch::Unknown
        );
        // A generous budget finds the solution.
        assert!(matches!(
            s.find_integer_solution_bounded(&[(i, 0, 1000), (j, 0, 1000)], 1 << 20),
            IntSearch::Found(_)
        ));
        // An exhaustive scan of an empty region reports Absent.
        let mut none = System::new();
        none.add_ge(LinExpr::var(i) - LinExpr::constant(5));
        none.add_ge(LinExpr::constant(2) - LinExpr::var(i));
        assert_eq!(
            none.find_integer_solution_bounded(&[(i, 0, 10)], 1 << 20),
            IntSearch::Absent
        );
        // Boxes deeper than the recursion cap refuse to run.
        let mut vt = VarTable::new();
        let deep: Vec<_> = (0..MAX_SEARCH_DEPTH + 1)
            .map(|k| (vt.fresh(format!("x{k}"), VarKind::LoopIndex), 0, 1))
            .map(|(v, a, b)| (v, a as i128, b as i128))
            .collect();
        assert_eq!(
            System::new().find_integer_solution_bounded(&deep, u64::MAX),
            IntSearch::Unknown
        );
    }

    #[test]
    fn projection_keeps_only_requested_vars() {
        let (vt, n, i, _) = table();
        let mut s = System::new();
        s.add_range(LinExpr::var(i), LinExpr::constant(1), LinExpr::var(n));
        let p = s.project_onto(&vt, &[n]).expect("no overflow, no blow-up");
        // Projection of 1 <= i <= n onto n is n >= 1.
        assert!(p.constraints().iter().all(|c| c.expr.coeff(i) == 0));
        let mut feas = p.clone();
        feas.add_eq(LinExpr::var(n) - LinExpr::constant(3));
        assert!(feas.is_consistent(&vt));
        let mut infeas = p.clone();
        infeas.add_eq(LinExpr::var(n)); // n == 0 contradicts n >= 1
        assert!(!infeas.is_consistent(&vt));
    }

    /// A cyclic owner equality `i == 64k + p + d` has a unit coefficient
    /// on the kept `d`: propagation must substitute `i` (or nothing), not
    /// `d`, or the projection silently loses the variable it is about.
    #[test]
    fn kept_variable_survives_unit_equality_propagation() {
        let mut vt = VarTable::new();
        let p = vt.fresh("p", VarKind::Processor);
        let d = vt.fresh("d", VarKind::Processor);
        let i = vt.fresh("i", VarKind::LoopIndex);
        let k = vt.fresh("k", VarKind::ArrayIndex);
        let mut s = System::new();
        // -p + i - 64k - d == 0, i == 2 (so only d and p keep unit coefficients)
        s.add_eq(LinExpr::var(i) - LinExpr::var(p) - LinExpr::term(k, 64) - LinExpr::var(d));
        s.add_eq(LinExpr::var(i) - LinExpr::constant(2));
        s.add_range(LinExpr::var(p), LinExpr::constant(0), LinExpr::constant(63));
        let reduced = |keep: &[VarId]| {
            let mut rows = Rows::new(&s, &vt);
            rows.reduce(keep).unwrap();
            rows.to_system()
        };
        let free = reduced(&[]);
        assert!(!free.vars().contains(&d), "unrestricted propagation eats d");
        let mut kept = reduced(&[d, p]);
        assert!(kept.vars().contains(&d) && kept.vars().contains(&p));
        // What is left is -p - d - 64k + 2 == 0: d ≡ 2 - p (mod 64).
        kept.substitute(p, &LinExpr::constant(0));
        let admits = kept.congruence_filter(d);
        assert!(admits(2) && admits(-62) && admits(66));
        assert!(!admits(1) && !admits(-2) && !admits(0));
        // The projection still bounds d: 0 <= p <= 63 is all that binds.
        let proj = s.project_onto(&vt, &[d]).unwrap();
        assert!(proj.vars().iter().all(|v| *v == d));
        assert!(!proj.is_contradictory());
    }

    /// An equality in the kept variable alone pins it (modulus 0).
    #[test]
    fn congruence_filter_without_other_variables_is_an_equation() {
        let (_, _, i, j) = table();
        let mut s = System::new();
        s.add_eq(LinExpr::term(i, 3) - LinExpr::constant(6));
        let admits = s.congruence_filter(i);
        assert!(admits(2) && !admits(3) && !admits(-2));
        // No equality mentions j: everything is admitted.
        assert!(s.congruence_filter(j)(17));
    }

    #[test]
    fn overflowing_chain_reports_unknown_not_panic() {
        // A chain of inequalities with huge mutually-coprime coefficients:
        // each elimination step multiplies them together until they leave
        // i128. The guarded scan must answer Unknown (treated as
        // feasible) instead of panicking.
        let mut vt = VarTable::new();
        let vs: Vec<VarId> = (0..6)
            .map(|k| vt.fresh(format!("x{k}"), VarKind::LoopIndex))
            .collect();
        // Large odd multipliers near 2^64: cross-combining two such
        // coefficients needs ~2^128 intermediate products, past i128.
        let big: Vec<i128> = (0..6).map(|k| (1i128 << 64) + 2 * k + 1).collect();
        let mut s = System::new();
        for w in 0..5 {
            // big[w]*x_w - big[w+1]*x_{w+1} >= 0 and the reverse with an
            // offset, giving both lower and upper occurrences of each var.
            s.add_ge(LinExpr::term(vs[w], big[w]) - LinExpr::term(vs[w + 1], big[w + 1]));
            s.add_ge(
                LinExpr::term(vs[w + 1], big[w + 1] + 2) - LinExpr::term(vs[w], big[w] + 2)
                    + LinExpr::constant(1),
            );
        }
        let (f, peak) = s.feasibility_with_peak(&vt);
        assert_eq!(f, Feasibility::Unknown);
        assert!(peak >= s.len());
        // The boolean view is conservative: Unknown counts as consistent.
        assert!(s.is_consistent(&vt));
        // A projection that keeps a variable runs the same loop: `None`.
        assert!(s.project_onto(&vt, &[vs[0]]).is_none());
    }

    /// Products past `i64` are not overflow: `a²` and `b²` are ≈ 2^80,
    /// their difference is 2^41 + 1, and the scan must carry them exactly
    /// to reach a proof either way.
    #[test]
    fn products_past_i64_still_decide() {
        let mut vt = VarTable::new();
        let x = vt.fresh("x", VarKind::LoopIndex);
        let y = vt.fresh("y", VarKind::LoopIndex);
        let (a, b) = ((1i128 << 40) + 1, 1i128 << 40);
        assert!(a * a > i64::MAX as i128 && b * b > i64::MAX as i128);
        // y <= (a/b)·x and y >= (b·x + 1)/a  =>  (a² − b²)·x >= b  =>  x >= 1.
        let mut s = System::new();
        s.add_ge(LinExpr::term(x, a) - LinExpr::term(y, b));
        s.add_ge(LinExpr::term(y, a) - LinExpr::term(x, b) - LinExpr::constant(1));
        assert_eq!(s.feasibility_with_peak(&vt), (Feasibility::Feasible, 2));
        s.add_ge(-LinExpr::var(x));
        assert_eq!(s.feasibility_with_peak(&vt), (Feasibility::Infeasible, 3));
    }

    /// The two budget exits of the elimination loop, with the peak each
    /// reports: 65 × 64 cross-pairs are refused before the step; 64 × 64
    /// are taken, and the 4096 distinct rows they leave beside the one
    /// that never mentioned `x` are refused after it.
    #[test]
    fn pair_and_length_budgets_answer_unknown_with_their_peak() {
        let mut vt = VarTable::new();
        let y = vt.fresh("y", VarKind::LoopIndex);
        let z = vt.fresh("z", VarKind::LoopIndex);
        let x = vt.fresh("x", VarKind::ArrayIndex);
        // Primes past 64 are coprime to every 1..=64, so no two combined
        // rows `i·y + p·z >= 0` share a term vector after gcd division.
        let primes: Vec<i128> = (65..)
            .filter(|n| (2..*n).all(|d| n % d != 0))
            .take(64)
            .collect();
        let system = |lowers: i128| {
            let mut s = System::new();
            for i in 1..=lowers {
                s.add_ge(LinExpr::var(x) + LinExpr::term(y, i));
            }
            for &p in &primes {
                s.add_ge(LinExpr::term(z, p) - LinExpr::var(x));
            }
            s.add_ge(LinExpr::var(y) + LinExpr::var(z));
            s
        };
        let pairs = system(65);
        assert_eq!(pairs.len(), 130);
        assert_eq!(
            pairs.feasibility_with_peak(&vt),
            (Feasibility::Unknown, 130)
        );
        assert!(pairs.project_onto(&vt, &[y]).is_none());
        let length = system(64);
        assert_eq!(
            length.feasibility_with_peak(&vt),
            (Feasibility::Unknown, MAX_FEAS_CONSTRAINTS + 1)
        );
    }
}
