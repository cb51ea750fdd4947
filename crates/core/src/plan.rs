//! The optimized SPMD schedule produced by the optimizer.

use analysis::{Comm, CommPattern, LoopPartition, WaitSet};
use ir::{Affine, LoopId, NodeId};

/// Synchronization placed at one point of the schedule.
#[derive(Clone, PartialEq, Debug, Default)]
pub enum SyncOp {
    /// No synchronization — the barrier was **eliminated**.
    #[default]
    None,
    /// A full team barrier.
    Barrier,
    /// Point-to-point synchronization on per-processor cells: a
    /// processor somebody may wait for posts its own cell, then each
    /// waits only on the processors `waits` names for it — `p - d` for
    /// each distance, every producer, and as a collector on every other
    /// cell. When all the set names is producers, only they post.
    /// Loop-carried placements pipeline into a wavefront (processor `p`
    /// runs iteration `i` while `p - d` runs `i + 1`). The paper's
    /// mechanisms — neighbor flags, a counter, pairwise counters — are
    /// the [class](WaitSet::class) of the set.
    Cells {
        /// Whom every processor waits for.
        waits: WaitSet,
    },
}

impl SyncOp {
    /// True for [`SyncOp::Barrier`].
    pub fn is_barrier(&self) -> bool {
        matches!(self, SyncOp::Barrier)
    }

    /// True for anything other than [`SyncOp::None`].
    pub fn is_some(&self) -> bool {
        !matches!(self, SyncOp::None)
    }

    /// The wait set of a point-to-point sync.
    pub fn waits(&self) -> Option<&WaitSet> {
        match self {
            SyncOp::Cells { waits } => Some(waits),
            _ => None,
        }
    }

    /// The label of a point-to-point sync: neighbor, counter
    /// (`Producer1`) or pairwise.
    pub fn class(&self) -> Option<CommPattern> {
        Some(self.waits()?.class())
    }

    /// True for a counter-labelled sync (numbered `counter #k` in
    /// reports).
    pub fn is_counter(&self) -> bool {
        self.class() == Some(CommPattern::Producer1)
    }

    /// Does the sync order every processor pair `need` asks to be
    /// ordered, at one visit of its site ([`Comm::covers`], with a
    /// barrier as the top of the lattice)?
    pub fn covers(&self, need: &Comm) -> bool {
        match (self, need) {
            (_, Comm::NoComm) | (SyncOp::Barrier, _) => true,
            (SyncOp::Cells { waits }, Comm::Waits(need)) => waits.contains(need),
            _ => false,
        }
    }

    /// The sync as it reads at trip `e` of loop `k`
    /// ([`WaitSet::at_trip`]).
    pub fn at_trip(&self, k: LoopId, e: &Affine) -> SyncOp {
        match self {
            SyncOp::Cells { waits } => SyncOp::Cells {
                waits: waits.clone().at_trip(k, e),
            },
            op => op.clone(),
        }
    }
}

/// How the work of one phase is divided among processors.
#[derive(Clone, PartialEq, Debug)]
pub enum PhaseKind {
    /// A parallel loop whose iterations are distributed by `partition`.
    Par {
        /// The computation partition of the loop.
        partition: LoopPartition,
    },
    /// A serial statement guarded to execute on the master only.
    Master,
    /// A privatizable (replicated) computation executed by every
    /// processor.
    Replicated,
}

/// One phase of an SPMD region: a parallel loop nest or a serial
/// statement, followed by the synchronization guarding the next phase.
#[derive(Clone, Debug)]
pub struct Phase {
    /// The IR node (parallel loop, assignment, or guard subtree).
    pub node: NodeId,
    /// Work division.
    pub kind: PhaseKind,
    /// Synchronization *after* this phase (before the next item).
    pub after: SyncOp,
}

/// An item inside an SPMD region.
#[derive(Clone, Debug)]
pub enum RItem {
    /// A phase.
    Phase(Phase),
    /// A sequential loop executed (redundantly) by every processor, whose
    /// body items run per iteration.
    Seq {
        /// The sequential loop node.
        node: NodeId,
        /// Body items, executed each iteration.
        body: Vec<RItem>,
        /// Per-iteration synchronization at the bottom of the loop
        /// (covers loop-carried communication).
        bottom: SyncOp,
        /// The bottom barrier is left out of the final trip: a barrier
        /// follows the loop with no phase in between (its `after`, else
        /// the enclosing loop's bottom or the region end) and does the
        /// same job. Decided when the plan is built; demoting or
        /// deleting syncs later never sets it.
        merge_last: bool,
        /// Synchronization after the loop completes.
        after: SyncOp,
    },
}

impl RItem {
    /// The sync placed after this item (before the next).
    pub fn after(&self) -> &SyncOp {
        match self {
            RItem::Phase(p) => &p.after,
            RItem::Seq { after, .. } => after,
        }
    }

    /// Set the sync placed after this item.
    pub fn set_after(&mut self, s: SyncOp) {
        match self {
            RItem::Phase(p) => p.after = s,
            RItem::Seq { after, .. } => *after = s,
        }
    }
}

/// An SPMD region: dispatched to the worker team once, then executed by
/// all processors with the placed synchronization.
#[derive(Clone, Debug)]
pub struct Region {
    /// Items in program order.
    pub items: Vec<RItem>,
    /// Synchronization at region exit (the master resumes after it).
    pub end: SyncOp,
}

/// A top-level schedule item.
#[derive(Clone, Debug)]
pub enum TopItem {
    /// A statement subtree executed by the master thread alone (fork-join
    /// serial section).
    SerialStmt(NodeId),
    /// A sequential loop driven by the master whose body re-dispatches
    /// regions every iteration (the fork-join baseline shape).
    MasterLoop {
        /// The loop node.
        node: NodeId,
        /// Items executed per iteration.
        body: Vec<TopItem>,
    },
    /// An SPMD region.
    Region(Region),
}

/// A complete schedule for a program under a fixed processor count.
#[derive(Clone, Debug)]
pub struct SpmdProgram {
    /// Program name (copied for reports).
    pub name: String,
    /// Top-level items in program order.
    pub items: Vec<TopItem>,
}

/// Static synchronization statistics of a schedule.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StaticStats {
    /// SPMD regions (dispatch points).
    pub regions: usize,
    /// Phases (parallel loops + guarded/replicated statements).
    pub phases: usize,
    /// Static barrier sync points.
    pub barriers: usize,
    /// Static neighbor sync points.
    pub neighbor_syncs: usize,
    /// Static counter sync points.
    pub counter_syncs: usize,
    /// Static pairwise (distance-vector) sync points.
    pub pair_syncs: usize,
    /// Sync points eliminated outright.
    pub eliminated: usize,
}

/// Every sync op under `items`, in site order.
pub(crate) fn ops_in_site_order<'a>(items: &'a mut [RItem], out: &mut Vec<&'a mut SyncOp>) {
    for it in items {
        match it {
            RItem::Phase(p) => out.push(&mut p.after),
            RItem::Seq {
                body,
                bottom,
                after,
                ..
            } => {
                ops_in_site_order(body, out);
                out.push(bottom);
                out.push(after);
            }
        }
    }
}

/// Demote the sync op at canonical site `site` to a full
/// [`SyncOp::Barrier`], returning the op it displaced (`None` when the
/// plan has no such site). The walk mirrors
/// [`sync_sites`](crate::sites::sync_sites) exactly — items in order, a
/// `Seq`'s body slots before its `bottom` and `after`, a region's items
/// before its `end` — so the id a runtime failure report attributes a
/// fault to addresses the same slot here.
///
/// Demotion is the recovery layer's conservative fallback: a full
/// barrier orders every processor at the slot, which over-synchronizes
/// relative to any counter/neighbor placement the optimizer chose (and
/// is exactly the fork-join baseline's behaviour at that point), so the
/// demoted plan is correct whenever the original analysis was.
pub fn demote_site(plan: &mut SpmdProgram, site: usize) -> Option<SyncOp> {
    set_site_op(plan, site, SyncOp::Barrier)
}

/// Replace the sync op at canonical site `site` with `op`, returning
/// the op it displaced (`None` when the plan has no such site). The
/// walk is the same canonical numbering as [`demote_site`] — which is
/// this function specialized to [`SyncOp::Barrier`]; the general form
/// also deletes a site (`SyncOp::None`) or puts a displaced op back.
pub fn set_site_op(plan: &mut SpmdProgram, site: usize, op: SyncOp) -> Option<SyncOp> {
    fn ops_of_top<'a>(items: &'a mut [TopItem], out: &mut Vec<&'a mut SyncOp>) {
        for it in items {
            match it {
                TopItem::SerialStmt(_) => {}
                TopItem::MasterLoop { body, .. } => ops_of_top(body, out),
                TopItem::Region(r) => {
                    ops_in_site_order(&mut r.items, out);
                    out.push(&mut r.end);
                }
            }
        }
    }
    let mut ops = Vec::new();
    ops_of_top(&mut plan.items, &mut ops);
    Some(std::mem::replace(&mut **ops.get_mut(site)?, op))
}

/// Demote every listed canonical site to a full barrier, returning the
/// displaced ops in input order (`None` entries for sites the plan does
/// not have). This is how the profiler builds its observed-vs-predicted
/// *baseline*: start from the optimized plan and put a barrier back at
/// exactly the decision-log sites, so both runs share one canonical site
/// walk and every per-site measurement joins cleanly.
pub fn demote_sites(plan: &mut SpmdProgram, sites: &[usize]) -> Vec<Option<SyncOp>> {
    sites.iter().map(|&s| demote_site(plan, s)).collect()
}

impl SpmdProgram {
    /// Count the static synchronization points of the schedule.
    pub fn static_stats(&self) -> StaticStats {
        let mut st = StaticStats::default();
        fn count_sync(s: &SyncOp, st: &mut StaticStats) {
            match s {
                SyncOp::None => st.eliminated += 1,
                SyncOp::Barrier => st.barriers += 1,
                SyncOp::Cells { waits } => match waits.class() {
                    CommPattern::Neighbor { .. } => st.neighbor_syncs += 1,
                    CommPattern::Producer1 => st.counter_syncs += 1,
                    _ => st.pair_syncs += 1,
                },
            }
        }
        fn walk_items(items: &[RItem], st: &mut StaticStats) {
            for (k, it) in items.iter().enumerate() {
                // The slot after the last item of a level is not a sync
                // point (the enclosing bottom/end sync follows directly),
                // so an untouched `None` there is not an elimination.
                let last = k + 1 == items.len();
                match it {
                    RItem::Phase(p) => {
                        st.phases += 1;
                        if !last {
                            count_sync(&p.after, st);
                        }
                    }
                    RItem::Seq {
                        body,
                        bottom,
                        after,
                        ..
                    } => {
                        walk_items(body, st);
                        count_sync(bottom, st);
                        if !last {
                            count_sync(after, st);
                        }
                    }
                }
            }
        }
        fn walk_top(items: &[TopItem], st: &mut StaticStats) {
            for it in items {
                match it {
                    TopItem::SerialStmt(_) => {}
                    TopItem::MasterLoop { body, .. } => walk_top(body, st),
                    TopItem::Region(r) => {
                        st.regions += 1;
                        walk_items(&r.items, st);
                        count_sync(&r.end, st);
                    }
                }
            }
        }
        walk_top(&self.items, &mut st);
        st
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::{DistSet, ProducerSpec};

    fn neighbor_fwd() -> SyncOp {
        SyncOp::Cells {
            waits: WaitSet::at_distances(DistSet::neighbor(true, false)),
        }
    }

    fn master_counter() -> SyncOp {
        SyncOp::Cells {
            waits: WaitSet::producer(ProducerSpec::Master),
        }
    }

    #[test]
    fn static_stats_count_each_kind() {
        let prog = SpmdProgram {
            name: "t".into(),
            items: vec![TopItem::Region(Region {
                items: vec![
                    RItem::Phase(Phase {
                        node: NodeId(0),
                        kind: PhaseKind::Master,
                        after: neighbor_fwd(),
                    }),
                    RItem::Seq {
                        node: NodeId(1),
                        body: vec![RItem::Phase(Phase {
                            node: NodeId(2),
                            kind: PhaseKind::Replicated,
                            after: SyncOp::None,
                        })],
                        bottom: SyncOp::Barrier,
                        merge_last: false,
                        after: SyncOp::None,
                    },
                ],
                end: SyncOp::Barrier,
            })],
        };
        let st = prog.static_stats();
        assert_eq!(st.regions, 1);
        assert_eq!(st.phases, 2);
        // bottom barrier + end barrier; the inner phase and the seq item
        // are last at their levels, so their `after` slots do not count.
        assert_eq!(st.barriers, 2);
        assert_eq!(st.neighbor_syncs, 1);
        assert_eq!(st.eliminated, 0);
    }

    fn nested_plan() -> SpmdProgram {
        // Slot walk: 0 = phase-after (Neighbor), 1 = inner phase-after
        // (None), 2 = seq bottom (Counter), 3 = seq after (None),
        // 4 = region end (Barrier).
        SpmdProgram {
            name: "t".into(),
            items: vec![TopItem::Region(Region {
                items: vec![
                    RItem::Phase(Phase {
                        node: NodeId(0),
                        kind: PhaseKind::Master,
                        after: neighbor_fwd(),
                    }),
                    RItem::Seq {
                        node: NodeId(1),
                        body: vec![RItem::Phase(Phase {
                            node: NodeId(2),
                            kind: PhaseKind::Replicated,
                            after: SyncOp::None,
                        })],
                        bottom: master_counter(),
                        merge_last: false,
                        after: SyncOp::None,
                    },
                ],
                end: SyncOp::Barrier,
            })],
        }
    }

    #[test]
    fn demote_site_hits_every_slot_in_walk_order() {
        // Each id addresses the slot the canonical walk assigns it.
        let mut p = nested_plan();
        assert_eq!(demote_site(&mut p, 0), Some(neighbor_fwd()));
        let mut p = nested_plan();
        assert_eq!(demote_site(&mut p, 1), Some(SyncOp::None));
        let mut p = nested_plan();
        assert_eq!(demote_site(&mut p, 2), Some(master_counter()));
        let mut p = nested_plan();
        assert_eq!(demote_site(&mut p, 3), Some(SyncOp::None));
        let mut p = nested_plan();
        assert_eq!(demote_site(&mut p, 4), Some(SyncOp::Barrier));
        // Past the walk: no slot, plan untouched.
        let mut p = nested_plan();
        assert_eq!(demote_site(&mut p, 5), None);
    }

    #[test]
    fn demoted_slot_becomes_a_barrier() {
        let mut p = nested_plan();
        demote_site(&mut p, 2);
        let st = p.static_stats();
        // The counter bottom turned into a barrier (joining the region
        // end); everything else is untouched.
        assert_eq!(st.counter_syncs, 0);
        assert_eq!(st.barriers, 2);
        assert_eq!(st.neighbor_syncs, 1);
    }

    #[test]
    fn set_site_op_round_trips_a_demotion() {
        // Demote the neighbor slot, then restore the displaced op with
        // `set_site_op`.
        let mut p = nested_plan();
        let displaced = demote_site(&mut p, 0).unwrap();
        assert_eq!(displaced, neighbor_fwd());
        assert_eq!(
            set_site_op(&mut p, 0, displaced),
            Some(SyncOp::Barrier),
            "restore displaces the demotion barrier"
        );
        assert_eq!(p.static_stats().neighbor_syncs, 1);
        // Counter slots round-trip too (producer spec preserved).
        let mut p = nested_plan();
        let displaced = demote_site(&mut p, 2).unwrap();
        set_site_op(&mut p, 2, displaced);
        let st = p.static_stats();
        assert_eq!(st.counter_syncs, 1);
        assert_eq!(st.barriers, 1);
        // Past the walk: no slot, nothing changes.
        let mut p = nested_plan();
        assert_eq!(set_site_op(&mut p, 9, SyncOp::Barrier), None);
    }

    #[test]
    fn demote_sites_restores_barriers_at_each_listed_slot() {
        let mut p = nested_plan();
        let displaced = demote_sites(&mut p, &[0, 2, 9]);
        assert_eq!(displaced.len(), 3);
        assert_eq!(displaced[0], Some(neighbor_fwd()));
        assert_eq!(displaced[1], Some(master_counter()));
        assert_eq!(displaced[2], None, "site past the walk is reported back");
        let st = p.static_stats();
        assert_eq!(st.neighbor_syncs, 0);
        assert_eq!(st.counter_syncs, 0);
        // neighbor slot + counter bottom + untouched region end.
        assert_eq!(st.barriers, 3);
    }
}
