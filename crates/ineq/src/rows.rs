//! The guarded scan's working form: a system as one dense row matrix.
//!
//! [`System`] stores a constraint as a `BTreeMap` of terms, which is the
//! right vocabulary for building and printing systems and the wrong one
//! for eliminating variables from them: every sort, dedup and dominance
//! pass of every elimination step would rebuild a key per constraint.
//! [`Rows`] holds the same constraints in one contiguous `i128` buffer.
//! Columns are the system's variables in `(scan_rank, id)` order and a
//! row is `[kind, coefficient per column.., constant]`, so a row *is*
//! its own sort key, the innermost variable is the last column, and no
//! step allocates per constraint.
//!
//! The order contract (what makes a verdict a pure function of the
//! canonical form, see [`crate::cache`]):
//!
//! * unit-equality propagation takes the first equality in row order
//!   with a `±1` coefficient outside `keep` and substitutes its
//!   *innermost* such variable away — so inequalities appended after
//!   the equalities never choose a pivot, and may be taken through the
//!   substitutions recorded on the rows before them instead
//!   (`Units`, used by [`crate::probe`]);
//! * every row a step computes is divided by the gcd of its coefficients,
//!   an inequality's constant rounded down ([`Constraint::normalize`]);
//! * the canonical row order is `(kind, sparse term list, constant)`
//!   with terms in column order and a proper prefix first — *not* the
//!   dense lexicographic order of the coefficient vector;
//! * variables leave innermost first; an equality pivot of smallest
//!   `|coefficient|` is preferred, ties to the earliest row, otherwise
//!   every lower bound is combined with every upper bound;
//! * more than [`MAX_FEAS_CONSTRAINTS`] cross-pairs before a step, or
//!   rows after it, abandon the scan, as does any `i128` overflow.

use crate::arith::{div_floor, gcd, Overflow};
use crate::constraint::{Constraint, ConstraintKind};
use crate::linexpr::LinExpr;
use crate::system::{Feasibility, System, MAX_FEAS_CONSTRAINTS};
use crate::var::{VarId, VarTable};
use std::cmp::Ordering;

const GE: i128 = 0;
const EQ: i128 = 1;

/// A conjunction of affine constraints as a dense matrix (see the
/// module documentation for the layout).
///
/// Every buffer a step needs lives in the value, so one `Rows` refilled
/// for query after query (`Rows::refill`) and scanned in place stops
/// allocating once it has grown to the largest system it met.
#[derive(Clone, Debug, Default)]
pub struct Rows {
    /// `(scan_rank, variable)` per column, ascending.
    cols: Vec<(u8, VarId)>,
    /// `len() * width()` words, row after row.
    buf: Vec<i128>,
    /// What a step writes into before it is swapped with `buf`.
    spare: Vec<i128>,
    /// The pivot row of a substitution or an equality elimination.
    pivot: Vec<i128>,
    /// [`Rows::normalize`]'s sort permutation.
    order: Vec<(usize, u32)>,
    contradictory: bool,
}

/// The substitutions one unit-equality propagation made, in order: per
/// step the pivot row it read off, already in the form `v = pivot`, with
/// the column of `v` in the row's kind word (see [`Rows::replay_units`]).
pub(crate) struct Units {
    /// One row of `width` words per step.
    pivots: Vec<i128>,
}

/// What gcd normalization found a computed row to be.
enum Settled {
    Keep,
    /// A constant row that holds: dropped.
    Trivial,
    /// No integer point satisfies it.
    Never,
}

/// Divide a computed row by the gcd of its coefficients, tightening an
/// inequality's constant to the floor ([`Constraint::normalize`] on a
/// row).
fn settle(row: &mut [i128]) -> Settled {
    let n = row.len() - 1;
    let mut g = 0;
    for &c in &row[1..n] {
        if c != 0 {
            g = gcd(g, c);
            if g == 1 {
                return Settled::Keep;
            }
        }
    }
    if g == 0 {
        let holds = if row[0] == EQ {
            row[n] == 0
        } else {
            row[n] >= 0
        };
        return if holds {
            Settled::Trivial
        } else {
            Settled::Never
        };
    }
    if row[0] == EQ {
        if row[n] % g != 0 {
            return Settled::Never;
        }
        row[n] /= g;
    } else {
        row[n] = div_floor(row[n], g);
    }
    row[1..n].iter_mut().for_each(|c| *c /= g);
    Settled::Keep
}

/// `x·k` under the overflow guard (a zero needs no multiplication).
fn mul(x: i128, k: i128) -> Result<i128, Overflow> {
    if x == 0 {
        Ok(0)
    } else {
        x.checked_mul(k).ok_or(Overflow)
    }
}

/// `row` with column `k` replaced by the substitution `pivot` (whose
/// own entry at `k` is zero); reports whether the row mentioned it.
fn substitute(row: &mut [i128], k: usize, pivot: &[i128]) -> Result<bool, Overflow> {
    let a = std::mem::take(&mut row[k]);
    if a != 0 {
        for (x, &p) in row[1..].iter_mut().zip(&pivot[1..]) {
            *x = x.checked_add(mul(p, a)?).ok_or(Overflow)?;
        }
    }
    Ok(a != 0)
}

/// `x·kx + y·ky`, the one place coefficients grow.
fn combine(x: i128, kx: i128, y: i128, ky: i128) -> Result<i128, Overflow> {
    mul(x, kx)?.checked_add(mul(y, ky)?).ok_or(Overflow)
}

/// The canonical order of two coefficient vectors read as sparse
/// `(column, coefficient)` lists: at the first column where they differ,
/// two coefficients compare by value, and a coefficient against a gap
/// sorts first unless the other list has ended (a proper prefix sorts
/// before its extensions).
fn cmp_terms(a: &[i128], b: &[i128]) -> Ordering {
    let Some(k) = a.iter().zip(b).position(|(x, y)| x != y) else {
        return Ordering::Equal;
    };
    let ended = |rest: &[i128]| rest.iter().all(|&c| c == 0);
    match (a[k] != 0, b[k] != 0) {
        (true, false) if ended(&b[k..]) => Ordering::Greater,
        (true, false) => Ordering::Less,
        (false, true) if ended(&a[k..]) => Ordering::Less,
        (false, true) => Ordering::Greater,
        _ => a[k].cmp(&b[k]),
    }
}

/// The canonical row order: kind, then terms, then constant.
fn cmp_rows(a: &[i128], b: &[i128]) -> Ordering {
    let n = a.len() - 1;
    a[0].cmp(&b[0])
        .then_with(|| cmp_terms(&a[1..n], &b[1..n]))
        .then_with(|| a[n].cmp(&b[n]))
}

impl Rows {
    /// `sys` in row form, rows in the order its constraints were added.
    pub fn new(sys: &System, vt: &VarTable) -> Rows {
        let mut rows = Rows::default();
        rows.refill(&Rows::default(), sys, vt);
        rows
    }

    /// Become a copy of `base` with the constraints of `more` appended,
    /// and a zero column opened for every variable only `more` mentions,
    /// keeping this value's buffers.
    pub(crate) fn refill(&mut self, base: &Rows, more: &System, vt: &VarTable) {
        self.cols.clear();
        self.cols.reserve(vt.len().max(base.cols.len()));
        self.cols.extend_from_slice(&base.cols);
        for c in more.constraints() {
            for (v, _) in c.expr.terms() {
                let col = (vt.kind(v).scan_rank(), v);
                if let Err(at) = self.cols.binary_search(&col) {
                    self.cols.insert(at, col);
                }
            }
        }
        self.buf.clear();
        self.contradictory = base.contradictory || more.is_contradictory();
        if self.contradictory {
            return;
        }
        let (w, cols, buf) = (self.width(), &self.cols, &mut self.buf);
        buf.reserve((base.len() + more.len()) * w);
        if w == base.width() {
            buf.extend_from_slice(&base.buf);
        } else {
            let old = |col| base.cols.binary_search(col).ok();
            for row in base.iter() {
                buf.push(row[0]);
                buf.extend(cols.iter().map(|col| old(col).map_or(0, |k| row[1 + k])));
                buf.push(row[row.len() - 1]);
            }
        }
        for c in more.constraints() {
            let at = buf.len();
            buf.resize(at + w, 0);
            buf[at] = match c.kind {
                ConstraintKind::GeZero => GE,
                ConstraintKind::EqZero => EQ,
            };
            for (v, k) in c.expr.terms() {
                let col = cols.iter().position(|col| col.1 == v);
                buf[at + 1 + col.expect("every variable has a column")] = k;
            }
            buf[at + w - 1] = c.expr.constant_term();
        }
    }

    fn width(&self) -> usize {
        self.cols.len() + 2
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.buf.len() / self.width()
    }

    /// True if no row is left (and no contradiction was found).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty() && !self.contradictory
    }

    /// True once some step derived a row no integer point satisfies.
    pub fn is_contradictory(&self) -> bool {
        self.contradictory
    }

    /// `(scan_rank, variable)` of every column, in column order.
    pub(crate) fn cols(&self) -> &[(u8, VarId)] {
        &self.cols
    }

    /// The rows: `[kind (0: >= 0, 1: == 0), coefficients.., constant]`.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[i128]> {
        self.buf.chunks_exact(self.width())
    }

    fn mark_contradictory(&mut self) {
        self.contradictory = true;
        self.buf.clear();
    }

    /// Back to the constraint vocabulary (for printing, bounds and
    /// congruence extraction).
    pub fn to_system(&self) -> System {
        if self.contradictory {
            return System::contradiction();
        }
        let mut sys = System::new();
        for row in self.iter() {
            let mut expr = LinExpr::constant(row[row.len() - 1]);
            for (c, &k) in self.cols.iter().zip(&row[1..]) {
                expr.set_coeff(c.1, k);
            }
            sys.push(if row[0] == EQ {
                Constraint::eq_zero(expr)
            } else {
                Constraint::ge_zero(expr)
            });
        }
        sys
    }

    /// Settle every row from `from` on that `rewrite` reports changed,
    /// dropping the trivial ones in place. Rows after one that can never
    /// hold are still rewritten, so overflow anywhere in the step is
    /// reported.
    fn rewrite_rows(
        &mut self,
        from: usize,
        mut rewrite: impl FnMut(&mut [i128]) -> Result<bool, Overflow>,
    ) -> Result<(), Overflow> {
        let w = self.width();
        let (mut kept, mut never) = (from, false);
        for r in from..self.len() {
            let row = &mut self.buf[r * w..(r + 1) * w];
            if rewrite(row)? {
                match settle(row) {
                    Settled::Keep => {}
                    Settled::Trivial => continue,
                    Settled::Never => never = true,
                }
            }
            self.buf.copy_within(r * w..(r + 1) * w, kept * w);
            kept += 1;
        }
        self.buf.truncate(kept * w);
        if never {
            self.mark_contradictory();
        }
        Ok(())
    }

    /// Substitute variables away through equalities with a `±1`
    /// coefficient — exact over the integers, and far cheaper than
    /// eliminating them. Variables in `keep` are never substituted (a
    /// projection must still mention them afterwards).
    pub fn propagate_units(&mut self, keep: &[VarId]) -> Result<(), Overflow> {
        self.propagate(keep, None)
    }

    /// [`Rows::propagate_units`] with nothing kept, recording each
    /// substitution. `None` unless it ran to the end — no overflow, no
    /// contradiction — which is when the record may be replayed.
    pub(crate) fn record_units(&mut self) -> Option<Units> {
        let eqs = self.iter().filter(|row| row[0] == EQ).count();
        let mut units = Units {
            pivots: Vec::with_capacity(eqs * self.width()),
        };
        self.propagate(&[], Some(&mut units)).ok()?;
        (!self.contradictory).then_some(units)
    }

    fn propagate(&mut self, keep: &[VarId], units: Option<&mut Units>) -> Result<(), Overflow> {
        let w = self.width();
        // Each step's pivot row goes to the end of `pivots`: of the
        // record, which keeps it, or of this value's own buffer, where
        // the next step overwrites it.
        let mut own = std::mem::take(&mut self.pivot);
        own.clear();
        let recording = units.is_some();
        let pivots = units.map_or(&mut own, |units| &mut units.pivots);
        let done = loop {
            if self.contradictory {
                break Ok(());
            }
            // The first equality with a unit coefficient, and in it the
            // innermost such variable: a rule in rank + relative-id
            // terms, so canonically renamed systems choose alike.
            let unit = |row: &[i128]| {
                (1..w - 1)
                    .rev()
                    .find(|&k| matches!(row[k], 1 | -1) && !keep.contains(&self.cols[k - 1].1))
            };
            let found = self
                .iter()
                .enumerate()
                .filter(|(_, row)| row[0] == EQ)
                .find_map(|(r, row)| Some((r, unit(row)?)));
            let Some((r, k)) = found else { break Ok(()) };
            let at = if recording { pivots.len() } else { 0 };
            pivots.truncate(at);
            pivots.extend(self.buf.drain(r * w..(r + 1) * w));
            // coef·v + rest == 0  =>  v = -coef·rest
            let pivot = &mut pivots[at..];
            let coef = std::mem::take(&mut pivot[k]);
            pivot[0] = k as i128;
            let scaled = pivot[1..].iter_mut().try_for_each(|x| {
                *x = mul(*x, -coef)?;
                Ok(())
            });
            let pivot = &pivots[at..];
            if let Err(e) =
                scaled.and_then(|()| self.rewrite_rows(0, |row| substitute(row, k, pivot)))
            {
                break Err(e);
            }
        };
        self.pivot = own;
        done
    }

    /// Take rows `from..` through the substitutions `units` recorded
    /// ([`Rows::record_units`]) on rows that were, before them, exactly
    /// rows `..from`. This is propagation over the whole set when rows
    /// `from..` are inequalities that open no column of their own: the
    /// first equality in row order is then always among the rows before
    /// them, which evolve as they did when recorded, so every step picks
    /// the same pivot, and the propagation ends where the record did —
    /// or earlier, at a contradiction or an overflow in the new rows.
    pub(crate) fn replay_units(&mut self, from: usize, units: &Units) -> Result<(), Overflow> {
        for pivot in units.pivots.chunks_exact(self.width()) {
            if self.contradictory {
                break;
            }
            let k = pivot[0] as usize;
            self.rewrite_rows(from, |row| substitute(row, k, pivot))?;
        }
        Ok(())
    }

    /// Does taking `e` through `units`, recorded on rows with the columns
    /// of `base`, leave nothing of it — do the unit equalities behind
    /// them alone force `e == 0`? Then a probe `e - 1 >= 0` (or
    /// `-e - 1 >= 0`) would end contradictory in its replay, before any
    /// scan. `false` when `e` names a column `base` lacks or a
    /// substitution overflows. The row is built in this value's pivot
    /// buffer.
    pub(crate) fn forces_zero(
        &mut self,
        base: &Rows,
        units: &Units,
        e: &LinExpr,
        vt: &VarTable,
    ) -> bool {
        let row = &mut self.pivot;
        row.clear();
        row.resize(base.width(), 0);
        for (v, k) in e.terms() {
            match base.cols.binary_search(&(vt.kind(v).scan_rank(), v)) {
                Ok(col) => row[1 + col] = k,
                Err(_) => return false,
            }
        }
        *row.last_mut().unwrap() = e.constant_term();
        for pivot in units.pivots.chunks_exact(base.width()) {
            if substitute(row, pivot[0] as usize, pivot).is_err() {
                return false;
            }
        }
        row[1..].iter().all(|&c| c == 0)
    }

    /// Canonical sort, then one pass over adjacent rows: duplicates go,
    /// of several `T + c >= 0` only the smallest `c` binds, two
    /// equalities `T + c == 0` with different `c` contradict, and an
    /// inequality sharing `T` with an equality is implied or
    /// contradictory. Returns the number of *distinct* rows it met —
    /// what a scan's peak counts.
    pub fn normalize(&mut self) -> usize {
        let (w, n) = (self.width(), self.len());
        if n < 2 {
            return n;
        }
        let row = |i: u32| &self.buf[i as usize * w..][..w];
        // Kind and first term's column decide most comparisons: sort on
        // them as one small integer, and on the rows themselves on ties.
        let head = |i: u32| {
            let first = row(i)[1..w - 1].iter().position(|&c| c != 0);
            ((row(i)[0] as usize) << 16 | first.map_or(0, |k| k + 1), i)
        };
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        order.extend((0..n as u32).map(head));
        order.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| cmp_rows(row(a.1), row(b.1))));
        let out = &mut self.spare;
        out.clear();
        let (mut distinct, mut clash) = (0, false);
        let mut prev: &[i128] = &[];
        for &(_, i) in &order {
            if row(i) == prev {
                continue;
            }
            prev = row(i);
            distinct += 1;
            // Same kind and terms as the last row kept: a larger constant.
            let last = out.len().checked_sub(w).map(|s| &out[s..s + w - 1]);
            if last == Some(&prev[..w - 1]) {
                clash |= prev[0] == EQ;
            } else {
                out.extend_from_slice(prev);
            }
        }
        // T + ke == 0 forces T = -ke, so T + kg >= 0 iff kg >= ke.
        let is_eq = |r: &[i128]| r[0] == EQ;
        let mut eqs = out.chunks_exact(w).position(is_eq).unwrap_or(out.len() / w);
        let mut g = 0;
        while g < eqs && eqs < out.len() / w {
            let (ges, tail) = out.split_at(eqs * w);
            let ge = &ges[g * w..(g + 1) * w];
            match tail.chunks_exact(w).find(|eq| eq[1..w - 1] == ge[1..w - 1]) {
                None => g += 1,
                Some(eq) => {
                    clash |= ge[w - 1] < eq[w - 1];
                    out.drain(g * w..(g + 1) * w);
                    eqs -= 1;
                }
            }
        }
        std::mem::swap(&mut self.buf, &mut self.spare);
        self.order = order;
        if clash {
            self.mark_contradictory();
        }
        distinct
    }

    /// The guarded scan's preamble: unit-equality propagation (sparing
    /// `keep`), then [`Rows::normalize`]. The result is the
    /// deterministic reduced form the elimination loop starts from; the
    /// verdict is a pure function of it.
    pub fn reduce(&mut self, keep: &[VarId]) -> Result<(), Overflow> {
        self.propagate_units(keep)?;
        self.normalize();
        Ok(())
    }

    /// Number of lower/upper cross-pairs eliminating column `k` would
    /// create (0 when an exact equality pivot is available).
    fn elimination_pairs(&self, k: usize) -> usize {
        let (mut lo, mut up) = (0usize, 0usize);
        for row in self.iter() {
            match row[k].signum() {
                0 => {}
                _ if row[0] == EQ => return 0,
                1 => lo += 1,
                _ => up += 1,
            }
        }
        lo.saturating_mul(up)
    }

    /// Fourier-Motzkin elimination of one variable (a no-op when it
    /// does not occur), rows left in no particular order.
    ///
    /// If an equality mentions it, the one of smallest `|coefficient|`
    /// (the earliest on ties) is the pivot of an exact integer
    /// combination; otherwise every lower bound is combined with every
    /// upper bound. With gcd + floor normalization the result
    /// over-approximates the integer projection, the safe direction for
    /// communication tests (never misses communication).
    pub fn eliminate(&mut self, v: VarId) -> Result<(), Overflow> {
        match self.cols.iter().position(|c| c.1 == v) {
            Some(col) if !self.contradictory => self.eliminate_col(col + 1),
            _ => Ok(()),
        }
    }

    fn eliminate_col(&mut self, k: usize) -> Result<(), Overflow> {
        let w = self.width();
        let mut pivot: Option<(usize, i128)> = None;
        for (r, row) in self.iter().enumerate() {
            let smaller = |&(_, b): &(usize, i128)| row[k].unsigned_abs() < b.unsigned_abs();
            if row[0] == EQ && row[k] != 0 && pivot.as_ref().is_none_or(smaller) {
                pivot = Some((r, row[k]));
            }
        }
        if let Some((p, b)) = pivot {
            // row·|b| - eq·(a·sign b) cancels the variable exactly and
            // keeps the comparison's direction, since |b| > 0.
            let mut eq = std::mem::take(&mut self.pivot);
            eq.clear();
            eq.extend(self.buf.drain(p * w..(p + 1) * w));
            let (abs_b, sign_b) = (b.checked_abs().ok_or(Overflow)?, b.signum());
            let done = self.rewrite_rows(0, |row| {
                let a = row[k];
                if a != 0 {
                    let ka = mul(a, -sign_b)?;
                    for (x, &e) in row[1..].iter_mut().zip(&eq[1..]) {
                        *x = combine(*x, abs_b, e, ka)?;
                    }
                }
                Ok(a != 0)
            });
            self.pivot = eq;
            return done;
        }
        // No equality pivot: classic lower/upper pairing.
        let out = &mut self.spare;
        out.clear();
        let mut never = false;
        let rows = || self.buf.chunks_exact(w);
        out.extend(rows().filter(|row| row[k] == 0).flatten());
        for lower in rows().filter(|row| row[k] > 0) {
            for upper in rows().filter(|row| row[k] < 0) {
                // a·v + e >= 0 and -b·v + f >= 0  =>  b·e + a·f >= 0
                let (a, b) = (lower[k], upper[k].checked_neg().ok_or(Overflow)?);
                let at = out.len();
                out.push(GE);
                for (&e, &f) in lower[1..].iter().zip(&upper[1..]) {
                    out.push(combine(e, b, f, a)?);
                }
                match settle(&mut out[at..]) {
                    Settled::Keep => {}
                    Settled::Trivial => out.truncate(at),
                    Settled::Never => never = true,
                }
            }
        }
        std::mem::swap(&mut self.buf, &mut self.spare);
        if never {
            self.mark_contradictory();
        }
        Ok(())
    }

    /// The one elimination loop: project rows already reduced with the
    /// same `keep` onto `keep`, innermost variable first, under checked
    /// arithmetic and the [`MAX_FEAS_CONSTRAINTS`] budgets. Returns
    /// whether the projection completed (`false`: abandoned, the rows
    /// prove nothing) and the peak distinct-row count it reached.
    pub fn project(&mut self, keep: &[VarId]) -> (bool, usize) {
        let mut peak = self.len();
        for col in (0..self.cols.len()).rev() {
            if self.contradictory || self.buf.is_empty() {
                break;
            }
            let k = col + 1;
            if keep.contains(&self.cols[col].1) || self.iter().all(|row| row[k] == 0) {
                continue;
            }
            if self.elimination_pairs(k) > MAX_FEAS_CONSTRAINTS || self.eliminate_col(k).is_err() {
                return (false, peak);
            }
            peak = peak.max(self.normalize());
            if self.len() > MAX_FEAS_CONSTRAINTS {
                return (false, peak);
            }
        }
        (true, peak)
    }

    /// The elimination loop on reduced rows, read as a verdict (the rows
    /// are left projected away).
    pub fn scan(&mut self) -> (Feasibility, usize) {
        let (complete, peak) = self.project(&[]);
        let verdict = match complete {
            false => Feasibility::Unknown,
            true if self.is_empty() => Feasibility::Feasible,
            true => Feasibility::Infeasible,
        };
        (verdict, peak)
    }

    /// The guarded feasibility test ([`System::feasibility`]) and the
    /// peak row count it reached, in place.
    pub fn feasibility(&mut self) -> (Feasibility, usize) {
        if self.contradictory {
            return (Feasibility::Infeasible, 0);
        }
        let peak = self.len();
        if self.reduce(&[]).is_err() {
            return (Feasibility::Unknown, peak);
        }
        let (verdict, loop_peak) = self.scan();
        (verdict, peak.max(loop_peak))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::VarKind;

    fn table() -> (VarTable, VarId, VarId) {
        let mut vt = VarTable::new();
        let i = vt.fresh("i", VarKind::LoopIndex);
        let j = vt.fresh("j", VarKind::LoopIndex);
        (vt, i, j)
    }

    fn rendered(rows: &Rows) -> Vec<String> {
        let sys = rows.to_system();
        sys.constraints().iter().map(|c| format!("{c:?}")).collect()
    }

    #[test]
    fn unit_equalities_substitute_the_innermost_variable() {
        let (vt, i, j) = table();
        let mut s = System::new();
        s.add_eq(LinExpr::var(j) - LinExpr::var(i) - LinExpr::constant(1)); // j = i+1
        s.add_range(LinExpr::var(i), LinExpr::constant(0), LinExpr::constant(3));
        s.add_eq(LinExpr::var(j) - LinExpr::constant(10)); // j = 10 -> i = 9, out of range
        let mut rows = Rows::new(&s, &vt);
        rows.propagate_units(&[]).unwrap();
        // j went first (i + 1 - 10 == 0), then i: 9 is not in 0..=3.
        assert!(rows.is_contradictory());
        let mut kept = Rows::new(&s, &vt);
        kept.propagate_units(&[i, j]).unwrap();
        assert_eq!(kept.len(), s.len());
    }

    #[test]
    fn normalize_drops_duplicates_and_dominated_rows() {
        let (vt, i, _) = table();
        let mut s = System::new();
        s.add_ge(LinExpr::var(i) - LinExpr::constant(3)); // i >= 3 (dominated)
        s.add_ge(LinExpr::var(i) - LinExpr::constant(5)); // i >= 5 (binding)
        s.add_ge(LinExpr::var(i) - LinExpr::constant(3));
        let mut rows = Rows::new(&s, &vt);
        assert_eq!(rows.normalize(), 2, "two distinct rows, one of them kept");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows.to_system().constraints()[0].expr.constant_term(), -5);
        // Two equalities over the same terms with different constants.
        let mut c = System::new();
        c.add_eq(LinExpr::var(i) - LinExpr::constant(1));
        c.add_eq(LinExpr::var(i) - LinExpr::constant(2));
        let mut rows = Rows::new(&c, &vt);
        assert_eq!(rows.normalize(), 2);
        assert!(rows.is_contradictory());
        // An equality against an inequality over the same terms: implied
        // (dropped) when it holds there, contradictory when it does not.
        let mut e = System::new();
        e.add_eq(LinExpr::var(i) - LinExpr::constant(2)); // i == 2
        e.add_ge(LinExpr::var(i) - LinExpr::constant(1)); // i >= 1
        let mut rows = Rows::new(&e, &vt);
        rows.normalize();
        assert_eq!(rendered(&rows), ["1*v0 + -2 == 0"]);
        e.add_ge(LinExpr::var(i) - LinExpr::constant(3)); // i >= 3
        let mut rows = Rows::new(&e, &vt);
        rows.normalize();
        assert!(rows.is_contradictory());
    }

    #[test]
    fn canonical_sort_orders_by_content() {
        let (vt, i, j) = table();
        let mut a = System::new();
        a.add_ge(LinExpr::var(j) - LinExpr::constant(2));
        a.add_ge(LinExpr::var(i) - LinExpr::constant(1));
        let mut b = System::new();
        b.add_ge(LinExpr::var(i) - LinExpr::constant(1));
        b.add_ge(LinExpr::var(j) - LinExpr::constant(2));
        let (mut ra, mut rb) = (Rows::new(&a, &vt), Rows::new(&b, &vt));
        ra.normalize();
        rb.normalize();
        assert_eq!(rendered(&ra), rendered(&rb));
    }

    /// The order is that of the sparse term lists, where a proper prefix
    /// sorts first: `x`, `x + y`, `y`. Comparing the dense coefficient
    /// vectors `[1,0]`, `[1,1]`, `[0,1]` would put `y` first and change
    /// which of two equal-coefficient pivots a scan takes.
    #[test]
    fn a_proper_prefix_of_the_term_list_sorts_first() {
        let (x, xy, y) = ([0, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0]);
        for (lo, hi) in [(x, xy), (xy, y), (x, y)] {
            assert_eq!(cmp_rows(&lo, &hi), Ordering::Less);
            assert_eq!(cmp_rows(&hi, &lo), Ordering::Greater);
            assert_eq!(cmp_rows(&lo, &lo), Ordering::Equal);
        }
        // Kind comes before terms, coefficients compare by value, the
        // constant comes last.
        assert_eq!(cmp_rows(&[0, 0, 1, 9], &[1, 1, 0, 0]), Ordering::Less);
        assert_eq!(cmp_rows(&[0, -1, 5, 0], &[0, 1, 0, 0]), Ordering::Less);
        assert_eq!(cmp_rows(&[0, 1, 2, -3], &[0, 1, 2, 4]), Ordering::Less);
        let (vt, i, j) = table();
        let mut s = System::new();
        s.add_ge(LinExpr::var(j));
        s.add_ge(LinExpr::var(i) + LinExpr::var(j));
        s.add_ge(LinExpr::var(i));
        let mut rows = Rows::new(&s, &vt);
        rows.normalize();
        let want = ["1*v0 >= 0", "1*v0 + 1*v1 >= 0", "1*v1 >= 0"];
        assert_eq!(rendered(&rows), want);
    }
}
