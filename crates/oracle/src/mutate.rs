//! Single-sync-op deletion mutants, and the "teeth" driver proving the
//! race validator catches them.
//!
//! A schedule's synchronization lives in four kinds of slot: a phase's
//! `after`, a sequential loop's `bottom` and `after`, and a region's
//! `end`. The mutator enumerates every non-`None` slot in a
//! deterministic walk order and produces, for each, a copy of the plan
//! with exactly that slot erased — and, for a wait set with collectors,
//! a second copy in which nobody gathers. The teeth driver then checks each mutant two ways —
//! statically with the race validator and dynamically with the
//! differential oracle under adversarial interleavings — so tests can
//! assert that the validator is at least as sensitive as observed
//! divergence, and that deleting any interior sync op is flagged.

use crate::diff::plan_diverges;
use crate::validate::validate;
use analysis::Bindings;
use interp::ScheduleOrder;
use ir::Program;
use spmd_opt::{RItem, SpmdProgram, SyncOp, TopItem};

/// One deletable synchronization slot.
#[derive(Clone, Debug)]
pub struct MutationSite {
    /// Position in the deterministic slot walk (stable for a given
    /// plan; feed back to [`delete`]).
    pub index: usize,
    /// True for a region's end barrier — the executors join at region
    /// exit anyway, so deleting the *final* region's end barrier is
    /// not necessarily observable.
    pub region_end: bool,
    /// Human-readable location + op, e.g. `seq(t).bottom: neighbor`.
    pub desc: String,
}

fn op_name(op: &SyncOp) -> &'static str {
    match op {
        SyncOp::None => "none",
        SyncOp::Barrier => "barrier",
        SyncOp::Cells { waits } => waits.label(),
    }
}

fn visit_items(
    items: &mut [RItem],
    k: &mut usize,
    f: &mut impl FnMut(usize, bool, String, &mut SyncOp),
) {
    for it in items.iter_mut() {
        match it {
            RItem::Phase(p) => {
                let d = format!("phase(node {}).after: {}", p.node.0, op_name(&p.after));
                f(*k, false, d, &mut p.after);
                *k += 1;
            }
            RItem::Seq {
                node,
                body,
                bottom,
                after,
                ..
            } => {
                let n = node.0;
                visit_items(body, k, f);
                let d = format!("seq(node {n}).bottom: {}", op_name(bottom));
                f(*k, false, d, bottom);
                *k += 1;
                let d = format!("seq(node {n}).after: {}", op_name(after));
                f(*k, false, d, after);
                *k += 1;
            }
        }
    }
}

fn visit_top(
    items: &mut [TopItem],
    k: &mut usize,
    f: &mut impl FnMut(usize, bool, String, &mut SyncOp),
) {
    for it in items.iter_mut() {
        match it {
            TopItem::SerialStmt(_) => {}
            TopItem::MasterLoop { body, .. } => visit_top(body, k, f),
            TopItem::Region(r) => {
                visit_items(&mut r.items, k, f);
                let d = format!("region.end: {}", op_name(&r.end));
                f(*k, true, d, &mut r.end);
                *k += 1;
            }
        }
    }
}

/// Every non-`None` synchronization slot of a plan, in walk order.
pub fn sites(plan: &SpmdProgram) -> Vec<MutationSite> {
    let mut plan = plan.clone();
    let mut out = Vec::new();
    let mut k = 0usize;
    visit_top(
        &mut plan.items,
        &mut k,
        &mut |index, region_end, desc, op| {
            if op.is_some() {
                out.push(MutationSite {
                    index,
                    region_end,
                    desc,
                });
            }
        },
    );
    out
}

/// A copy of the plan with `change` applied to the sync slot at walk
/// position `index`.
fn mutated(plan: &SpmdProgram, index: usize, mut change: impl FnMut(&mut SyncOp)) -> SpmdProgram {
    let mut mutant = plan.clone();
    let mut k = 0usize;
    visit_top(&mut mutant.items, &mut k, &mut |i, _, _, op| {
        if i == index {
            change(op);
        }
    });
    mutant
}

/// A copy of the plan with the sync slot at walk position `index`
/// erased to [`SyncOp::None`].
pub fn delete(plan: &SpmdProgram, index: usize) -> SpmdProgram {
    mutated(plan, index, |op| *op = SyncOp::None)
}

/// A copy of the plan whose point-to-point sync at walk position
/// `index` has lost its collectors: every distance and producer wait
/// stays, but nobody waits for everyone any more. `None` when the slot
/// holds no collector.
pub fn drop_collectors(plan: &SpmdProgram, index: usize) -> Option<SpmdProgram> {
    let mut dropped = false;
    let mutant = mutated(plan, index, |op| {
        if let SyncOp::Cells { waits } = op {
            dropped = !waits.collectors.is_empty();
            waits.collectors.clear();
        }
    });
    dropped.then_some(mutant)
}

/// The interior syncs of `plan` the placed syncs around them imply:
/// each interior site in walk order is stripped on top of the strips
/// kept so far, and the strip is kept when the validator still finds
/// the plan race-free — so the sites returned can all go *together*.
/// A region end is a join both executors perform anyway and is left
/// alone.
pub fn implied_syncs(prog: &Program, bind: &Bindings, plan: &SpmdProgram) -> Vec<MutationSite> {
    let mut kept = plan.clone();
    let mut implied = Vec::new();
    for site in sites(plan).into_iter().filter(|s| !s.region_end) {
        let stripped = delete(&kept, site.index);
        if validate(prog, bind, &stripped).is_race_free() {
            kept = stripped;
            implied.push(site);
        }
    }
    implied
}

/// How one mutant fared against the validator and the oracle.
#[derive(Debug)]
pub struct TeethSite {
    /// The deleted slot.
    pub site: MutationSite,
    /// Racing pairs the validator found in the mutant (0 = missed).
    pub racing_pairs: usize,
    /// Worst divergence the differential oracle observed, if any.
    pub diverged: Option<f64>,
}

impl TeethSite {
    /// True when the validator flagged the mutant.
    pub fn flagged(&self) -> bool {
        self.racing_pairs > 0
    }
}

/// Outcome of mutating every sync slot of one schedule.
#[derive(Debug)]
pub struct TeethReport {
    /// Per-mutant results, in walk order.
    pub sites: Vec<TeethSite>,
    /// Racing pairs in the *unmutated* plan (must be 0 for a
    /// known-good schedule).
    pub clean_racing_pairs: usize,
}

impl TeethReport {
    /// Mutants the validator flagged.
    pub fn flagged(&self) -> usize {
        self.sites.iter().filter(|s| s.flagged()).count()
    }

    /// Validator soundness relative to observation: every mutant that
    /// diverged dynamically was also flagged statically.
    pub fn validator_covers_divergence(&self) -> bool {
        self.sites
            .iter()
            .all(|s| s.diverged.is_none() || s.flagged())
    }

    /// Every interior (non-region-end) deletion was flagged.
    pub fn all_interior_flagged(&self) -> bool {
        self.sites.iter().all(|s| s.site.region_end || s.flagged())
    }
}

/// Delete each sync op of `plan` in turn, and strip each pairwise
/// sync's collectors; validate and differentially execute every mutant.
pub fn mutation_teeth(
    prog: &Program,
    bind: &Bindings,
    plan: &SpmdProgram,
    tol: f64,
) -> TeethReport {
    let orders = [
        ScheduleOrder::Reverse,
        ScheduleOrder::Random(11),
        ScheduleOrder::Random(0xBAD5EED),
    ];
    let clean = validate(prog, bind, plan);
    let mut out = TeethReport {
        sites: Vec::new(),
        clean_racing_pairs: clean.num_racing_pairs,
    };
    for site in sites(plan) {
        let mut mutants = vec![(site.clone(), delete(plan, site.index))];
        if let Some(uncollected) = drop_collectors(plan, site.index) {
            let desc = format!("{} minus collectors", site.desc);
            mutants.push((MutationSite { desc, ..site }, uncollected));
        }
        for (site, mutant) in mutants {
            let report = validate(prog, bind, &mutant);
            let diverged = plan_diverges(prog, bind, &mutant, &orders, tol);
            out.sites.push(TeethSite {
                site,
                racing_pairs: report.num_racing_pairs,
                diverged,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::build::*;
    use spmd_opt::optimize;

    #[test]
    fn sites_enumerate_and_delete_round_trips() {
        let mut pb = ProgramBuilder::new("s");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let b = pb.array("B", &[sym(n)], dist_block());
        let _t = pb.begin_seq("t", con(0), con(3));
        let i = pb.begin_par("i", con(1), sym(n) - 2);
        pb.assign(
            elem(b, [idx(i)]),
            ex(0.5) * (arr(a, [idx(i) - 1]) + arr(a, [idx(i) + 1])),
        );
        pb.end();
        let j = pb.begin_par("j", con(1), sym(n) - 2);
        pb.assign(elem(a, [idx(j)]), arr(b, [idx(j)]));
        pb.end();
        pb.end();
        let prog = pb.finish();
        let bind = analysis::Bindings::new(4).set(n, 32);
        let plan = optimize(&prog, &bind);
        let ss = sites(&plan);
        assert!(!ss.is_empty());
        for s in &ss {
            let mutant = delete(&plan, s.index);
            assert_eq!(
                sites(&mutant).len(),
                ss.len() - 1,
                "deleting {} should remove exactly one site",
                s.desc
            );
        }
    }
}
