//! Canonical numbering of a schedule's synchronization slots.
//!
//! Every schedule has four kinds of sync slot: a phase's `after`, a
//! sequential loop's `bottom` and `after`, and a region's `end`. Each
//! slot's **site id** is its position in one deterministic pre-order
//! walk, written once here: a level's items in order; a `Seq`'s body
//! slots, then its `bottom`, then its `after`; a region's items, then
//! its `end`; a master loop's body once. [`for_each_slot`] and its
//! `&mut` twin [`for_each_slot_mut`] are generated from that one body,
//! and every site id is read from them — the labelled [`sync_sites`],
//! counter numbers, `set_site_op` and `demote_site(s)`, static counts,
//! the mutation tester's slots and the benchmark's ablation plans. The
//! optimizer and `interp`'s lowering, which lay the tree out anyway,
//! count slots along the same pre-order as they go; so per-site
//! runtime telemetry, the decision log and the mutation tester all
//! talk about the same sites.
//!
//! Slots holding [`SyncOp::None`] (eliminated barriers) are numbered
//! too: the explain pass reports *why* they are empty.

use crate::plan::{Phase, RItem, Region, SpmdProgram, SyncOp, TopItem};
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

/// One sync slot as the canonical walk meets it, with its op (`&` or
/// `&mut`).
#[derive(Debug)]
pub struct Slot<Op> {
    /// Site id: the slot's position in the walk.
    pub id: usize,
    /// Structural slot kind.
    pub kind: SlotKind,
    /// The phase or sequential loop the slot belongs to; `None` for a
    /// region end.
    pub node: Option<NodeId>,
    /// The region the slot is in, counted in walk order.
    pub region: usize,
    /// The `after` slot of its level's last item: the enclosing loop's
    /// bottom or the region's end follows it directly, so it is no sync
    /// point of its own.
    pub tail: bool,
    /// The synchronization the plan places there.
    pub op: Op,
}

impl<Op> Slot<Op> {
    /// Human-readable location, e.g. `after DOALL i [n5]`.
    fn label(&self, prog: &Program) -> String {
        match (self.kind, self.node) {
            (SlotKind::LoopBottom, Some(node)) => loop_bottom_label(prog, node),
            (_, Some(node)) => after_label(prog, node),
            (_, None) => region_end_label(self.region),
        }
    }
}

/// The walk's position: the next site id and the current region.
struct At {
    id: usize,
    region: usize,
}

impl At {
    fn visit<Op>(
        &mut self,
        f: &mut impl FnMut(Slot<Op>),
        kind: SlotKind,
        node: Option<NodeId>,
        tail: bool,
        op: Op,
    ) {
        let (id, region) = (self.id, self.region);
        f(Slot {
            id,
            kind,
            node,
            region,
            tail,
            op,
        });
        self.id += 1;
    }
}

/// The one slot order, as a level walk and a top-level walk over `&`
/// or (given `mut`) `&mut` items.
macro_rules! slot_walk {
    ($level:ident, $top:ident, $($mut:tt)?) => {
        fn $level<'a>(
            items: &'a $($mut)? [RItem],
            at: &mut At,
            f: &mut impl FnMut(Slot<&'a $($mut)? SyncOp>),
        ) {
            let n = items.len();
            for (k, it) in IntoIterator::into_iter(items).enumerate() {
                match it {
                    RItem::Phase(Phase { node, after, .. }) => {
                        at.visit(f, SlotKind::PhaseAfter, Some(*node), k + 1 == n, after);
                    }
                    RItem::Seq {
                        node,
                        body,
                        bottom,
                        after,
                        ..
                    } => {
                        $level(body, at, f);
                        at.visit(f, SlotKind::LoopBottom, Some(*node), false, bottom);
                        at.visit(f, SlotKind::LoopAfter, Some(*node), k + 1 == n, after);
                    }
                }
            }
        }

        fn $top<'a>(
            items: &'a $($mut)? [TopItem],
            at: &mut At,
            f: &mut impl FnMut(Slot<&'a $($mut)? SyncOp>),
        ) {
            for it in items {
                match it {
                    TopItem::SerialStmt(_) => {}
                    TopItem::MasterLoop { body, .. } => $top(body, at, f),
                    TopItem::Region(Region { items, end }) => {
                        $level(items, at, f);
                        at.visit(f, SlotKind::RegionEnd, None, false, end);
                        at.region += 1;
                    }
                }
            }
        }
    };
}

slot_walk!(level, top,);
slot_walk!(level_mut, top_mut, mut);

/// Visit every sync slot of `plan` in canonical walk order; ids are
/// contiguous from zero.
pub fn for_each_slot<'a>(plan: &'a SpmdProgram, mut f: impl FnMut(Slot<&'a SyncOp>)) {
    top(&plan.items, &mut At { id: 0, region: 0 }, &mut f);
}

/// [`for_each_slot`], handing out each slot's op to change.
pub fn for_each_slot_mut<'a>(plan: &'a mut SpmdProgram, mut f: impl FnMut(Slot<&'a mut SyncOp>)) {
    top_mut(&mut plan.items, &mut At { id: 0, region: 0 }, &mut f);
}

/// Visit the slots of one region's items, the first numbered `first`
/// (a level does not know its region: `region` reads 0).
pub(crate) fn for_each_level_slot<'a>(
    items: &'a [RItem],
    first: usize,
    mut f: impl FnMut(Slot<&'a SyncOp>),
) {
    level(
        items,
        &mut At {
            id: first,
            region: 0,
        },
        &mut f,
    );
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

/// Label of a phase-after or loop-after slot.
pub(crate) fn after_label(prog: &Program, node: NodeId) -> String {
    format!("after {} [n{}]", node_label(prog, node), node.0)
}

/// Label of a loop-bottom slot.
pub(crate) fn loop_bottom_label(prog: &Program, node: NodeId) -> String {
    format!("bottom of {} [n{}]", node_label(prog, node), node.0)
}

/// Label of a region-end slot.
pub(crate) fn region_end_label(region: usize) -> String {
    format!("end of region r{region}")
}

/// The number of a counter-labelled `op` among those of its region so
/// far (`next`), in site order: the `k` of `counter #k` in reports.
pub(crate) fn counter_number(op: &SyncOp, next: &mut usize) -> Option<usize> {
    op.is_counter().then(|| {
        *next += 1;
        *next - 1
    })
}

/// [`SyncSite::counter`] of every site, by site id, without the labels.
pub fn counter_numbers(plan: &SpmdProgram) -> Vec<Option<usize>> {
    let (mut out, mut region, mut next) = (Vec::new(), 0, 0);
    for_each_slot(plan, |s| {
        if s.region != region {
            (region, next) = (s.region, 0);
        }
        out.push(counter_number(s.op, &mut next));
    });
    out
}

/// Every sync slot of a schedule, labelled, in canonical walk order.
pub fn sync_sites(prog: &Program, plan: &SpmdProgram) -> Vec<SyncSite> {
    let counters = counter_numbers(plan);
    let mut out = Vec::new();
    for_each_slot(plan, |s| {
        out.push(SyncSite {
            id: s.id,
            kind: s.kind,
            label: s.label(prog),
            op: s.op.clone(),
            counter: counters[s.id],
        })
    });
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
    fn ids_are_contiguous_and_labelled() {
        let (prog, bind) = sweep();
        for plan in [optimize(&prog, &bind), fork_join(&prog, &bind)] {
            let sites = sync_sites(&prog, &plan);
            assert!(!sites.is_empty());
            for (k, s) in sites.iter().enumerate() {
                assert_eq!(s.id, k);
                assert!(!s.label.is_empty());
            }
        }
    }

    #[test]
    fn walk_reports_kind_node_region_and_tail() {
        use crate::plan::{PhaseKind, Region};
        let phase = |n| {
            RItem::Phase(Phase {
                node: NodeId(n),
                kind: PhaseKind::Master,
                after: SyncOp::None,
            })
        };
        let region = |items| {
            TopItem::Region(Region {
                items,
                end: SyncOp::Barrier,
            })
        };
        let seq = RItem::Seq {
            node: NodeId(2),
            body: vec![phase(3)],
            bottom: SyncOp::Barrier,
            merge_last: false,
            after: SyncOp::None,
        };
        // A master loop's body is walked once; its region is the first.
        let plan = SpmdProgram {
            name: "t".into(),
            items: vec![
                TopItem::MasterLoop {
                    node: NodeId(0),
                    body: vec![region(vec![phase(1), seq])],
                },
                TopItem::SerialStmt(NodeId(4)),
                region(vec![phase(5)]),
            ],
        };
        let mut walked = Vec::new();
        for_each_slot(&plan, |s| {
            walked.push((s.id, s.kind, s.node, s.region, s.tail))
        });
        let n = |k| Some(NodeId(k));
        use SlotKind::*;
        assert_eq!(
            walked,
            [
                (0, PhaseAfter, n(1), 0, false),
                (1, PhaseAfter, n(3), 0, true),
                (2, LoopBottom, n(2), 0, false),
                (3, LoopAfter, n(2), 0, true),
                (4, RegionEnd, None, 0, false),
                (5, PhaseAfter, n(5), 1, true),
                (6, RegionEnd, None, 1, false),
            ]
        );
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
