//! Canonical numbering of a schedule's synchronization slots.
//!
//! Every schedule has four kinds of sync slot: a phase's `after`, a
//! sequential loop's `bottom` and `after`, and a region's `end`. This
//! module assigns each slot a stable **site id** by a deterministic
//! pre-order walk (items in order; a `Seq`'s body slots precede its
//! `bottom` and `after`; a region's items precede its `end`). The same
//! numbering is reproduced arithmetically when `interp` lays a plan out
//! as a walk, so per-site runtime telemetry, the optimizer's decision
//! log, and the mutation tester all talk about the same sites.
//!
//! Slots holding [`SyncOp::None`] (eliminated barriers) are numbered
//! too: the explain pass reports *why* they are empty.

use crate::plan::{RItem, SpmdProgram, SyncOp, TopItem};
use ir::{LoopKind, Node, NodeId, Program};

/// Which structural slot a sync site occupies.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SlotKind {
    /// A phase's `after` slot (loop-independent boundary).
    PhaseAfter,
    /// The bottom of a sequential loop inside a region (loop-carried
    /// boundary).
    LoopBottom,
    /// After a sequential loop inside a region.
    LoopAfter,
    /// A region's end (the fork-join join point).
    RegionEnd,
}

impl SlotKind {
    /// Stable lower-case name (used in JSON output).
    pub fn as_str(self) -> &'static str {
        match self {
            SlotKind::PhaseAfter => "phase-after",
            SlotKind::LoopBottom => "loop-bottom",
            SlotKind::LoopAfter => "loop-after",
            SlotKind::RegionEnd => "region-end",
        }
    }
}

/// One synchronization slot of a schedule, with its canonical id.
#[derive(Clone, Debug)]
pub struct SyncSite {
    /// Position in the canonical slot walk.
    pub id: usize,
    /// Structural slot kind.
    pub kind: SlotKind,
    /// Human-readable location, e.g. `after DOALL i [n5]`.
    pub label: String,
    /// The synchronization the plan places there.
    pub op: SyncOp,
    /// For a counter-labelled sync, its number among its region's, in
    /// site order (`counter #k` in reports).
    pub counter: Option<usize>,
}

/// Short human label for a schedule node (`DOALL i`, `DO t`,
/// `statement`, `guarded block`).
pub fn node_label(prog: &Program, node: NodeId) -> String {
    match prog.node(node) {
        Node::Loop(l) => format!(
            "{} {}",
            if l.kind == LoopKind::Par {
                "DOALL"
            } else {
                "DO"
            },
            l.name
        ),
        Node::Assign(_) => "statement".to_string(),
        Node::Guard(_) => "guarded block".to_string(),
    }
}

/// Label of a phase-after slot.
pub(crate) fn phase_after_label(prog: &Program, node: NodeId) -> String {
    format!("after {} [n{}]", node_label(prog, node), node.0)
}

/// Label of a loop-bottom slot.
pub(crate) fn loop_bottom_label(prog: &Program, node: NodeId) -> String {
    format!("bottom of {} [n{}]", node_label(prog, node), node.0)
}

/// Label of a loop-after slot.
pub(crate) fn loop_after_label(prog: &Program, node: NodeId) -> String {
    format!("after {} [n{}]", node_label(prog, node), node.0)
}

/// Label of a region-end slot.
pub(crate) fn region_end_label(region: usize) -> String {
    format!("end of region r{region}")
}

/// Number of sync slots under a list of region items.
pub fn slot_count_items(items: &[RItem]) -> usize {
    items
        .iter()
        .map(|it| match it {
            RItem::Phase(_) => 1,
            RItem::Seq { body, .. } => slot_count_items(body) + 2,
        })
        .sum()
}

/// Number of sync slots under a list of top-level items (a master
/// loop's body is counted once — its slots repeat dynamically but share
/// their static ids).
pub fn slot_count_top(items: &[TopItem]) -> usize {
    items
        .iter()
        .map(|it| match it {
            TopItem::SerialStmt(_) => 0,
            TopItem::MasterLoop { body, .. } => slot_count_top(body),
            TopItem::Region(r) => slot_count_items(&r.items) + 1,
        })
        .sum()
}

fn walk_items(prog: &Program, items: &[RItem], next: &mut usize, out: &mut Vec<SyncSite>) {
    for it in items {
        match it {
            RItem::Phase(p) => {
                out.push(SyncSite {
                    id: *next,
                    kind: SlotKind::PhaseAfter,
                    label: phase_after_label(prog, p.node),
                    op: p.after.clone(),
                    counter: None,
                });
                *next += 1;
            }
            RItem::Seq {
                node,
                body,
                bottom,
                after,
                ..
            } => {
                walk_items(prog, body, next, out);
                out.push(SyncSite {
                    id: *next,
                    kind: SlotKind::LoopBottom,
                    label: loop_bottom_label(prog, *node),
                    op: bottom.clone(),
                    counter: None,
                });
                *next += 1;
                out.push(SyncSite {
                    id: *next,
                    kind: SlotKind::LoopAfter,
                    label: loop_after_label(prog, *node),
                    op: after.clone(),
                    counter: None,
                });
                *next += 1;
            }
        }
    }
}

fn walk_top(
    prog: &Program,
    items: &[TopItem],
    next: &mut usize,
    region: &mut usize,
    out: &mut Vec<SyncSite>,
) {
    for it in items {
        match it {
            TopItem::SerialStmt(_) => {}
            TopItem::MasterLoop { body, .. } => walk_top(prog, body, next, region, out),
            TopItem::Region(r) => {
                walk_items(prog, &r.items, next, out);
                out.push(SyncSite {
                    id: *next,
                    kind: SlotKind::RegionEnd,
                    label: region_end_label(*region),
                    op: r.end.clone(),
                    counter: None,
                });
                *next += 1;
                *region += 1;
            }
        }
    }
}

/// The number of a counter-labelled `op` among those of its region so
/// far (`next`), in site order: the `k` of `counter #k` in reports.
pub(crate) fn counter_number(op: &SyncOp, next: &mut usize) -> Option<usize> {
    op.is_counter().then(|| {
        *next += 1;
        *next - 1
    })
}

/// [`SyncSite::counter`] of every site, by site id, without the rest of
/// the walk.
pub fn counter_numbers(plan: &SpmdProgram) -> Vec<Option<usize>> {
    fn level(items: &[RItem], next: &mut usize, out: &mut Vec<Option<usize>>) {
        for it in items {
            if let RItem::Seq { body, bottom, .. } = it {
                level(body, next, out);
                out.push(counter_number(bottom, next));
            }
            out.push(counter_number(it.after(), next));
        }
    }
    fn top(tops: &[TopItem], out: &mut Vec<Option<usize>>) {
        for it in tops {
            match it {
                TopItem::SerialStmt(_) => {}
                TopItem::MasterLoop { body, .. } => top(body, out),
                TopItem::Region(r) => {
                    let mut next = 0;
                    level(&r.items, &mut next, out);
                    out.push(counter_number(&r.end, &mut next));
                }
            }
        }
    }
    let mut out = Vec::new();
    top(&plan.items, &mut out);
    out
}

/// Enumerate every sync slot of a schedule in canonical walk order.
/// Ids are contiguous from zero; the walk order matches the slot
/// enumeration of the mutation tester and the arithmetic numbering
/// `interp::Schedule::new` computes.
pub fn sync_sites(prog: &Program, plan: &SpmdProgram) -> Vec<SyncSite> {
    let mut out = Vec::new();
    let mut next = 0usize;
    let mut region = 0usize;
    walk_top(prog, &plan.items, &mut next, &mut region, &mut out);
    for (site, counter) in out.iter_mut().zip(counter_numbers(plan)) {
        site.counter = counter;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{fork_join, optimize};
    use analysis::Bindings;
    use ir::build::*;

    fn sweep() -> (Program, Bindings) {
        let mut pb = ProgramBuilder::new("sweep");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let b = pb.array("B", &[sym(n)], dist_block());
        let _t = pb.begin_seq("t", con(0), con(4));
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
        let bind = Bindings::new(4).set(n, 32);
        (prog, bind)
    }

    #[test]
    fn ids_are_contiguous_and_match_slot_counts() {
        let (prog, bind) = sweep();
        for plan in [optimize(&prog, &bind), fork_join(&prog, &bind)] {
            let sites = sync_sites(&prog, &plan);
            assert_eq!(sites.len(), slot_count_top(&plan.items));
            for (k, s) in sites.iter().enumerate() {
                assert_eq!(s.id, k);
                assert!(!s.label.is_empty());
            }
        }
    }

    #[test]
    fn optimized_sweep_sites_name_the_loops() {
        let (prog, bind) = sweep();
        let plan = optimize(&prog, &bind);
        let sites = sync_sites(&prog, &plan);
        let labels: Vec<&str> = sites.iter().map(|s| s.label.as_str()).collect();
        assert!(
            labels.iter().any(|l| l.starts_with("after DOALL i")),
            "{labels:?}"
        );
        assert!(
            labels.iter().any(|l| l.starts_with("bottom of DO t")),
            "{labels:?}"
        );
        assert!(
            labels.iter().any(|l| l.starts_with("end of region r0")),
            "{labels:?}"
        );
    }

    #[test]
    fn demote_site_addresses_the_same_slots_as_the_walk() {
        // For every canonical id, `demote_site` displaces exactly the op
        // the site walk reports there — the two traversals agree.
        let (prog, bind) = sweep();
        for plan in [optimize(&prog, &bind), fork_join(&prog, &bind)] {
            let sites = sync_sites(&prog, &plan);
            for s in &sites {
                let mut p = plan.clone();
                let old = crate::plan::demote_site(&mut p, s.id);
                assert_eq!(old.as_ref(), Some(&s.op), "site {}", s.id);
                let new_sites = sync_sites(&prog, &p);
                assert!(new_sites[s.id].op.is_barrier());
                // Every other slot is untouched.
                for (a, b) in sites.iter().zip(&new_sites) {
                    if a.id != s.id {
                        assert_eq!(a.op, b.op);
                    }
                }
            }
            assert_eq!(
                crate::plan::demote_site(&mut plan.clone(), sites.len()),
                None
            );
        }
    }

    #[test]
    fn site_walk_matches_static_stats_sync_points() {
        // Every non-None slot that static_stats counts appears among the
        // sites with the same op; sites also number the last-slot Nones.
        let (prog, bind) = sweep();
        let plan = optimize(&prog, &bind);
        let st = plan.static_stats();
        let sites = sync_sites(&prog, &plan);
        let barriers = sites.iter().filter(|s| s.op.is_barrier()).count();
        assert_eq!(barriers, st.barriers);
    }
}
