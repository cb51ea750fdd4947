//! Many feasibility probes against one base system.
//!
//! The communication analysis asks one pair system a handful of
//! questions — is there a pair with `q > p`, one with `p > q`, one beyond
//! neighbor reach, one at distance `d` — each the same base constraints
//! plus one or two `>=` rows of its own. [`BaseRows`] turns the base into
//! rows and runs its unit-equality propagation once, recording each
//! substitution (`Rows::record_units`). A probe then refills one reused
//! [`ProbeScratch`] with the reduced base and its own rows, takes only
//! its own rows through the recorded substitutions
//! (`Rows::replay_units`), and normalizes and scans in place. That is
//! the propagation the whole system would have run — probe rows are
//! inequalities and never a pivot — so every verdict, every reduced form
//! and, through the memo, every key is what a fresh
//! [`Rows::feasibility`] of base and probe together produces.
//!
//! A probe with an equality of its own, or a variable the base does not
//! mention, could choose a pivot or shift a column: it is reduced from
//! scratch instead. So is every probe of a base whose own propagation
//! overflowed or ended in a contradiction.

use crate::cache::{FmeCache, KeyScratch};
use crate::constraint::ConstraintKind;
use crate::rows::{Rows, Units};
use crate::system::{Feasibility, System};
use crate::var::VarTable;
use std::cell::OnceCell;

/// A base system in row form after unit-equality propagation, and raw
/// once a memo key or a probe that cannot replay asks for it.
pub struct BaseRows {
    raw: OnceCell<Rows>,
    /// The propagated rows and the substitutions that made them; `None`
    /// when the propagation did not run to the end.
    reduced: Option<(Rows, Units)>,
}

/// What one probe writes into: its own constraints, the rows it is
/// scanned in, and the buffers of its memo keys. Reused from probe to
/// probe, it stops allocating once it has met the largest of them.
#[derive(Default)]
pub struct ProbeScratch {
    more: System,
    rows: Rows,
    keys: KeyScratch,
}

impl BaseRows {
    /// `sys` in row form, propagated once.
    pub fn new(sys: &System, vt: &VarTable) -> Self {
        let mut reduced = Rows::new(sys, vt);
        let units = reduced.record_units();
        BaseRows {
            raw: OnceCell::new(),
            reduced: units.map(|units| (reduced, units)),
        }
    }

    /// Feasibility of the base — `sys`, the system it was built from —
    /// with the constraints `extra` installs into an empty probe system:
    /// what `cache` (or, without one, a fresh scan) answers for the two
    /// together, with the scratch's buffers in place of new ones.
    pub fn probe(
        &self,
        sys: &System,
        vt: &VarTable,
        scratch: &mut ProbeScratch,
        cache: Option<&FmeCache>,
        extra: impl FnOnce(&mut System),
    ) -> Feasibility {
        let ProbeScratch { more, rows, keys } = scratch;
        more.clear();
        extra(more);
        let more = &*more;
        let raw = || self.raw.get_or_init(|| Rows::new(sys, vt));
        let replay = self
            .reduced
            .as_ref()
            .filter(|(rows, _)| replayable(rows, more, vt));
        let reduce = |rows: &mut Rows| match replay {
            Some((reduced, units)) => {
                rows.refill(reduced, more, vt);
                rows.replay_units(reduced.len(), units)?;
                rows.normalize();
                Ok(())
            }
            None => {
                rows.refill(raw(), more, vt);
                rows.reduce(&[])
            }
        };
        if let Some(cache) = cache {
            rows.refill(raw(), more, vt);
            return cache.feasibility_in(rows, reduce, keys);
        }
        if sys.is_contradictory() || more.is_contradictory() {
            return Feasibility::Infeasible;
        }
        match reduce(rows) {
            Ok(()) => rows.scan().0,
            Err(_) => Feasibility::Unknown,
        }
    }
}

/// Are `more`'s rows inequalities over the columns of `base` only?
fn replayable(base: &Rows, more: &System, vt: &VarTable) -> bool {
    let cols = base.cols();
    more.constraints().iter().all(|c| {
        c.kind == ConstraintKind::GeZero
            && c.expr
                .terms()
                .all(|(v, _)| cols.binary_search(&(vt.kind(v).scan_rank(), v)).is_ok())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linexpr::LinExpr;
    use crate::var::{VarId, VarKind};

    /// A small deterministic stream of coefficients.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self, span: i128) -> i128 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 33) as i128).rem_euclid(2 * span + 1) - span
        }
    }

    /// Systems with unit equalities chained through their variables, and
    /// probes of one or two inequalities: the probe path answers what a
    /// fresh scan of the combined system answers, and leaves the memo the
    /// same raw and reduced keys.
    #[test]
    fn replayed_probes_match_fresh_scans_and_memo_keys() {
        let mut rng = Lcg(7);
        let (mut replayed, mut decided) = (0, [0usize; 3]);
        for _ in 0..400 {
            let mut vt = VarTable::new();
            let kinds = [VarKind::Processor, VarKind::LoopIndex, VarKind::ArrayIndex];
            let vs: Vec<VarId> = (0..6)
                .map(|k| vt.fresh(format!("x{k}"), kinds[k % 3]))
                .collect();
            let expr = |rng: &mut Lcg, span: i128| {
                let mut e = LinExpr::constant(rng.next(6));
                for &v in &vs {
                    if rng.next(2) != 0 {
                        e.add_term(v, rng.next(span));
                    }
                }
                e
            };
            let mut base = System::new();
            for &v in &vs {
                base.add_range(LinExpr::var(v), LinExpr::constant(0), LinExpr::constant(9));
            }
            for _ in 0..3 {
                let v = vs[rng.next(2).unsigned_abs() as usize + 3];
                base.add_eq(expr(&mut rng, 2) - LinExpr::var(v));
            }
            base.add_ge(expr(&mut rng, 3));
            let rows = BaseRows::new(&base, &vt);
            replayed += usize::from(rows.reduced.is_some());
            let mut scratch = ProbeScratch::default();
            let (cache, fresh_cache) = (FmeCache::new(), FmeCache::new());
            for _ in 0..4 {
                let probe: Vec<LinExpr> = (0..1 + rng.next(1).unsigned_abs())
                    .map(|_| expr(&mut rng, 2))
                    .collect();
                let install = |s: &mut System| probe.iter().for_each(|e| s.add_ge(e.clone()));
                let mut whole = base.clone();
                install(&mut whole);
                let want = whole.feasibility(&vt);
                assert_eq!(rows.probe(&base, &vt, &mut scratch, None, install), want);
                let cached = rows.probe(&base, &vt, &mut scratch, Some(&cache), install);
                assert_eq!(cached, want);
                fresh_cache.feasibility(&whole, &vt);
                decided[want as usize] += 1;
            }
            let keys = |c: &FmeCache| {
                let mut k: Vec<_> = c.export_feas().into_iter().map(|e| (e.0, e.1)).collect();
                k.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
                k
            };
            assert_eq!(keys(&cache), keys(&fresh_cache));
        }
        assert!(replayed > 300, "{replayed} of 400 bases replayed");
        assert!(decided[0] > 0 && decided[1] > 0, "{decided:?}");
    }
}
