//! Region formation, the greedy barrier-elimination algorithm, and
//! baseline (fork-join) lowering.

use crate::plan::{Phase, PhaseKind, RItem, Region, SpmdProgram, SyncOp, TopItem};
use crate::sites::{
    loop_after_label, loop_bottom_label, phase_after_label, region_end_label, SlotKind,
};
use analysis::{
    loop_is_replicated, loop_partition, AccessPair, AnalysisConfig, AnalysisStats, Anchor,
    Bindings, CommMode, CommOutcome, CommPattern, CommQuery, Pin, ProducerSpec,
};
use ir::{LhsRef, LoopKind, Node, NodeId, Program, StmtPath};

/// Does the subtree contain a parallel loop?
pub fn contains_par(prog: &Program, node: NodeId) -> bool {
    let mut found = false;
    prog.walk(node, &mut |id, _| {
        if let Node::Loop(l) = prog.node(id) {
            if l.kind == LoopKind::Par {
                found = true;
            }
        }
    });
    found
}

/// Can the node live inside an SPMD region?
///
/// Parallel loops can; assignments can (replicated or master-guarded);
/// sequential loops can when all their children can; guards can only
/// when they contain no parallel loop (they are then executed, whole, as
/// a guarded serial computation on the master).
pub fn spmdable(prog: &Program, node: NodeId) -> bool {
    match prog.node(node) {
        Node::Assign(_) => true,
        Node::Loop(l) => match l.kind {
            LoopKind::Par => true,
            LoopKind::Seq => l.body.iter().all(|&c| spmdable(prog, c)),
        },
        Node::Guard(g) => g.body.iter().all(|&c| !contains_par(prog, c)),
    }
}

struct LevelResult {
    items: Vec<RItem>,
    /// Statements not yet ordered with respect to whatever follows
    /// (everything since the last full barrier).
    residual: Vec<StmtPath>,
    saw_barrier: bool,
}

/// Optimizer configuration: which mechanisms are enabled. The default
/// enables everything (the paper's full optimizer); the ablations switch
/// individual mechanisms off.
#[derive(Clone, Copy, Debug)]
pub struct OptimizeOptions {
    /// Eliminate barriers proven communication-free.
    pub eliminate: bool,
    /// Replace neighbor-reach communication with post/wait flags.
    pub use_neighbor: bool,
    /// Replace unique-producer communication with counters.
    pub use_counters: bool,
    /// Replace fixed-distance communication with point-to-point pairwise
    /// counters (wavefront pipelining).
    pub use_pairwise: bool,
    /// Communication-analysis tuning (memoization). Changes analysis
    /// speed only, never the plan or the decision log.
    pub analysis: AnalysisConfig,
}

impl Default for OptimizeOptions {
    fn default() -> Self {
        OptimizeOptions {
            eliminate: true,
            use_neighbor: true,
            use_counters: true,
            use_pairwise: true,
            analysis: AnalysisConfig::default(),
        }
    }
}

/// One decision of the greedy algorithm, for explanation output.
///
/// Every sync slot the optimizer examined gets one record: the
/// canonical site id (matching [`crate::sites::sync_sites`]), the
/// communication classification with its inequality-system evidence,
/// and what synchronization was placed and why.
#[derive(Clone, Debug)]
pub struct Decision {
    /// Canonical slot id in the plan's site walk.
    pub site: usize,
    /// Human-readable slot location (same string as the site walk).
    pub label: String,
    /// Structural slot kind.
    pub kind: SlotKind,
    /// What communication analysis concluded; `None` when no analysis
    /// ran (empty statement group, or the unconditional region end).
    pub outcome: Option<CommPattern>,
    /// Producer identity when the outcome was `Producer1`.
    pub producer: Option<ProducerSpec>,
    /// What pins the barrier when the outcome was `General`.
    pub pin: Option<Pin>,
    /// Same-operator reduction pairs the analysis left out of the
    /// classification because their atomic flushes commute.
    pub commuting: Vec<AccessPair>,
    /// The synchronization placed in the slot.
    pub placed: SyncOp,
    /// For a loop-bottom barrier: left out of the loop's final trip,
    /// where the barrier that follows the loop does the same job.
    pub merged_last_trip: bool,
    /// Statements in the producing (earlier) group fed to the analysis.
    pub src_stmts: usize,
    /// Statements in the consuming (later) group fed to the analysis.
    pub dst_stmts: usize,
    /// Why: the classification evidence plus the mechanism choice.
    pub reason: String,
}

impl Decision {
    /// Short name of the placed synchronization ("eliminated",
    /// "barrier", "neighbor flags", "counter").
    pub fn placed_str(&self) -> &'static str {
        placed_str(&self.placed)
    }
}

/// Short name for a placed sync op.
pub fn placed_str(s: &SyncOp) -> &'static str {
    match s {
        SyncOp::None => "eliminated",
        SyncOp::Barrier => "barrier",
        SyncOp::Neighbor { .. } => "neighbor flags",
        SyncOp::Counter { .. } => "counter",
        SyncOp::PairCounter { .. } => "pairwise counters",
    }
}

/// One line naming the access pair that pins a kept barrier and the
/// rule that failed on it.
fn pin_str(prog: &Program, pin: &Pin) -> String {
    format!(
        "statement n{} -> statement n{}, {} dependence on {}: {}",
        pin.pair.src.0,
        pin.pair.dst.0,
        pin.pair.dep.as_str(),
        pin.pair.storage.name(prog),
        pin.rule
    )
}

/// Compose the human-readable `reason` for a decision from the
/// classification, what was placed, and the enabled mechanisms.
fn reason_for(
    prog: &Program,
    outcome: Option<&CommOutcome>,
    placed: &SyncOp,
    opts: &OptimizeOptions,
) -> String {
    let Some(outcome) = outcome else {
        return "no statements on one side of the boundary — nothing to synchronize".into();
    };
    let pat = outcome.pattern;
    let ev = pat.evidence();
    match (pat, placed) {
        (CommPattern::NoComm, SyncOp::None) => format!("eliminated: {ev}"),
        (CommPattern::NoComm, _) if !opts.eliminate => {
            format!("barrier kept: elimination disabled by ablation options, though {ev}")
        }
        (CommPattern::Neighbor { fwd, bwd }, SyncOp::Neighbor { .. }) => {
            let dir = match (fwd, bwd) {
                (true, true) => "both directions",
                (true, false) => "forward",
                (false, true) => "backward",
                (false, false) => "no direction",
            };
            format!("replaced with neighbor post/wait flags ({dir}): {ev}")
        }
        (CommPattern::Neighbor { .. }, _) if !opts.use_neighbor => {
            format!("barrier kept: neighbor flags disabled by ablation options, though {ev}")
        }
        (CommPattern::Producer1, SyncOp::Counter { id, producer }) => match producer {
            ProducerSpec::Owner {
                anchor: Anchor::Sink,
                ..
            } => format!(
                "replaced with counter #{id}: every owner writes, but all that is read across \
                 processors belongs to the one owner the read subscript names"
            ),
            _ => format!("replaced with counter #{id}: {ev}"),
        },
        (CommPattern::Producer1, _) if !opts.use_counters => {
            format!("barrier kept: counters disabled by ablation options, though {ev}")
        }
        (
            CommPattern::PairWise { dists },
            SyncOp::PairCounter {
                producers,
                collectors,
                ..
            },
        ) => {
            let extra = |n: usize, what| match n {
                0 => String::new(),
                n => format!(" + {n} {what}(s)"),
            };
            let gather = if collectors.is_empty() {
                ""
            } else {
                "; the dependences left run into one processor per visit, the collector, which \
                 alone reads every post — P-1 loads that stay outside the fan-in budget, being \
                 the arrival half of the barrier replaced and no more"
            };
            format!(
                "replaced with pairwise counters (distances {}{}{}): {ev}{gather}",
                dists.render(),
                extra(producers.len(), "producer target"),
                extra(collectors.len(), "collector")
            )
        }
        (CommPattern::PairWise { .. }, _) if !opts.use_pairwise => {
            format!("barrier kept: pairwise counters disabled by ablation options, though {ev}")
        }
        (CommPattern::PairWise { .. }, _) if !opts.use_counters => {
            format!("barrier kept: collectors disabled with the counters they mirror, though {ev}")
        }
        (CommPattern::General, _) => match outcome.pin() {
            Some(pin) => format!("barrier kept, pinned by {}", pin_str(prog, &pin)),
            None => format!("barrier kept: {ev}"),
        },
        (p, s) => format!("{} for {p:?}: {ev}", placed_str(s)),
    }
}

struct Optimizer<'p> {
    prog: &'p Program,
    query: CommQuery<'p>,
    next_counter: usize,
    /// Running canonical slot id, mirroring the site walk of
    /// [`crate::sites::sync_sites`] (construction order == walk order).
    next_slot: usize,
    /// Running region index (for region-end labels).
    next_region: usize,
    log: Vec<Decision>,
    opts: OptimizeOptions,
}

/// A sync slot awaiting its decision (an item's `after`, or a loop's
/// `bottom`): id, label, kind.
struct Slot {
    id: usize,
    label: String,
    kind: SlotKind,
}

impl<'p> Optimizer<'p> {
    fn sync_from(&mut self, outcome: &CommOutcome) -> SyncOp {
        match outcome.pattern {
            CommPattern::NoComm => {
                if self.opts.eliminate {
                    SyncOp::None
                } else {
                    SyncOp::Barrier
                }
            }
            CommPattern::Neighbor { fwd, bwd } => {
                if self.opts.use_neighbor {
                    SyncOp::Neighbor { fwd, bwd }
                } else {
                    SyncOp::Barrier
                }
            }
            CommPattern::Producer1 => {
                if self.opts.use_counters {
                    let id = self.next_counter;
                    self.next_counter += 1;
                    SyncOp::Counter {
                        id,
                        producer: outcome
                            .producer
                            .clone()
                            .expect("Producer1 carries a producer"),
                    }
                } else {
                    SyncOp::Barrier
                }
            }
            CommPattern::PairWise { dists } => {
                // A collector is the counter rule's mirror image on the
                // pairwise bank: it rides both switches.
                if self.opts.use_pairwise
                    && (self.opts.use_counters || outcome.collectors.is_empty())
                {
                    SyncOp::PairCounter {
                        dists,
                        producers: outcome.pair_producers.clone(),
                        collectors: outcome.collectors.clone(),
                    }
                } else {
                    SyncOp::Barrier
                }
            }
            CommPattern::General => SyncOp::Barrier,
        }
    }

    fn phase_kind_for(&self, node: NodeId) -> PhaseKind {
        match self.prog.node(node) {
            Node::Loop(l) if l.kind == LoopKind::Par => {
                // Loops writing only privatizable storage are replicated
                // computations: every processor runs all iterations into
                // its own copies (paper §2.3).
                if loop_is_replicated(self.prog, node) {
                    return PhaseKind::Replicated;
                }
                PhaseKind::Par {
                    partition: loop_partition(self.prog, &self.query.bind, node),
                }
            }
            Node::Assign(a) => match &a.lhs {
                LhsRef::Scalar(s) if self.prog.scalar(*s).privatizable => PhaseKind::Replicated,
                _ => PhaseKind::Master,
            },
            // Guards (serial) and sequential loops reaching here execute
            // on the master.
            _ => PhaseKind::Master,
        }
    }

    /// The greedy elimination algorithm over one level of region items.
    fn schedule_level(&mut self, nodes: &[NodeId], prefix: &[NodeId]) -> LevelResult {
        let mut items: Vec<RItem> = Vec::new();
        let mut group: Vec<StmtPath> = Vec::new();
        let mut saw_barrier = false;
        let mut last_after: Option<Slot> = None;

        for &node in nodes {
            let stmts = self.prog.statements_under(node, prefix);

            // Decide the synchronization between the running group and
            // this item (the paper's step 2-4: test loop-independent
            // communication; eliminate, replace, or keep the barrier).
            if !items.is_empty() {
                let slot = last_after.take().expect("previous item records its slot");
                let outcome = (!group.is_empty() && !stmts.is_empty()).then(|| {
                    self.query
                        .comm_groups_detailed(&group, &stmts, CommMode::LoopIndependent)
                });
                let sync = self.decide(slot, outcome, group.len(), stmts.len());
                if sync.is_barrier() {
                    group.clear();
                    saw_barrier = true;
                }
                items.last_mut().unwrap().set_after(sync);
            }

            match self.prog.node(node) {
                Node::Loop(l) if l.kind == LoopKind::Seq && spmdable(self.prog, node) => {
                    let mut inner_prefix = prefix.to_vec();
                    inner_prefix.push(node);
                    let body_nodes = l.body.clone();
                    let sub = self.schedule_level(&body_nodes, &inner_prefix);
                    // Reserve the loop's bottom and after slots (body
                    // slots were consumed by the recursion).
                    let bottom_id = self.next_slot;
                    self.next_slot += 2;
                    let bottom =
                        self.carried_sync(node, &inner_prefix, &body_nodes, &sub, bottom_id);
                    let bottom_is_barrier = bottom.is_barrier();
                    if bottom_is_barrier || sub.saw_barrier {
                        saw_barrier = true;
                        group.clear();
                        if !bottom_is_barrier {
                            group.extend(sub.residual.iter().cloned());
                        }
                    } else {
                        group.extend(stmts.iter().cloned());
                    }
                    items.push(RItem::Seq {
                        node,
                        body: sub.items,
                        bottom,
                        merge_last: false,
                        after: SyncOp::None,
                    });
                    last_after = Some(Slot {
                        id: bottom_id + 1,
                        label: loop_after_label(self.prog, node),
                        kind: SlotKind::LoopAfter,
                    });
                }
                _ => {
                    let slot_id = self.next_slot;
                    self.next_slot += 1;
                    items.push(RItem::Phase(Phase {
                        node,
                        kind: self.phase_kind_for(node),
                        after: SyncOp::None,
                    }));
                    last_after = Some(Slot {
                        id: slot_id,
                        label: phase_after_label(self.prog, node),
                        kind: SlotKind::PhaseAfter,
                    });
                    group.extend(stmts.iter().cloned());
                }
            }
        }

        LevelResult {
            items,
            residual: group,
            saw_barrier,
        }
    }

    /// Loop-carried communication analysis for the bottom of a
    /// sequential loop inside a region: pairs already covered by an
    /// unconditional intra-body barrier are skipped; the rest are joined
    /// and lowered to the cheapest sufficient synchronization.
    fn carried_sync(
        &mut self,
        loop_node: NodeId,
        inner_prefix: &[NodeId],
        body_nodes: &[NodeId],
        sub: &LevelResult,
        bottom_id: usize,
    ) -> SyncOp {
        let per_item: Vec<Vec<StmtPath>> = body_nodes
            .iter()
            .map(|&n| self.prog.statements_under(n, inner_prefix))
            .collect();
        let total_stmts: usize = per_item.iter().map(Vec::len).sum();
        let crossings: Vec<usize> = sub
            .items
            .iter()
            .enumerate()
            .filter(|(_, it)| it.after().is_barrier())
            .map(|(k, _)| k)
            .collect();
        let mut outcome = CommOutcome::none();
        'fold: for (ia, g1) in per_item.iter().enumerate() {
            for (ib, g2) in per_item.iter().enumerate() {
                // A dependence from item ia at iteration t to item ib at
                // iteration t+d crosses an intra-body barrier when some
                // crossing c satisfies c >= ia (after the source in t) or
                // c + 1 <= ib (before the sink in t+d).
                if crossings.iter().any(|&c| c >= ia || c + 1 <= ib) {
                    continue;
                }
                if g1.is_empty() || g2.is_empty() {
                    continue;
                }
                outcome = outcome.join(self.query.comm_groups_detailed(
                    g1,
                    g2,
                    CommMode::CarriedBy(loop_node),
                ));
                if outcome.pattern == CommPattern::General {
                    break 'fold;
                }
            }
        }
        let slot = Slot {
            id: bottom_id,
            label: loop_bottom_label(self.prog, loop_node),
            kind: SlotKind::LoopBottom,
        };
        self.decide(slot, Some(outcome), total_stmts, total_stmts)
    }

    /// Lower a slot's communication outcome (`None`: nothing on one
    /// side of the boundary) to the sync placed there, and log why.
    fn decide(
        &mut self,
        slot: Slot,
        outcome: Option<CommOutcome>,
        src_stmts: usize,
        dst_stmts: usize,
    ) -> SyncOp {
        let outcome = outcome.as_ref();
        let placed = outcome.map_or(SyncOp::None, |o| self.sync_from(o));
        self.log.push(Decision {
            site: slot.id,
            label: slot.label,
            kind: slot.kind,
            outcome: outcome.map(|o| o.pattern),
            producer: outcome.and_then(|o| o.producer.clone()),
            pin: outcome.and_then(CommOutcome::pin),
            commuting: outcome.map_or(Vec::new(), |o| o.commuting.clone()),
            placed: placed.clone(),
            merged_last_trip: false,
            src_stmts,
            dst_stmts,
            reason: reason_for(self.prog, outcome, &placed, &self.opts),
        });
        placed
    }

    /// Mark the loops whose bottom barrier the next barrier makes
    /// redundant on their final trip: the one in the loop's own `after`
    /// slot, or — when the loop ends its level — the barrier that
    /// `follows` the level (the enclosing loop's bottom, merged or not,
    /// or the region end). Nothing runs between the two, so the plan
    /// never executes more barriers than fork-join, which pays one per
    /// parallel loop. `slot` is the site id of the level's first slot.
    fn merge_last_trips(&mut self, items: &mut [RItem], follows: bool, mut slot: usize) {
        let n = items.len();
        for (k, it) in items.iter_mut().enumerate() {
            let RItem::Seq {
                body,
                bottom,
                merge_last,
                after,
                ..
            } = it
            else {
                slot += 1;
                continue;
            };
            let bottom_site = slot + crate::sites::slot_count_items(body);
            self.merge_last_trips(body, bottom.is_barrier(), slot);
            slot = bottom_site + 2;
            let next_is_barrier = after.is_barrier() || (k + 1 == n && follows);
            if bottom.is_barrier() && next_is_barrier {
                *merge_last = true;
                let d = self
                    .log
                    .iter_mut()
                    .rfind(|d| d.site == bottom_site)
                    .expect("every loop bottom is decided");
                d.merged_last_trip = true;
                d.reason
                    .push_str("; on the last trip merged into the barrier that follows the loop");
            }
        }
    }

    fn build_region(&mut self, nodes: &[NodeId]) -> Region {
        self.next_counter = 0;
        let first_slot = self.next_slot;
        let mut lr = self.schedule_level(nodes, &[]);
        self.merge_last_trips(&mut lr.items, true, first_slot);
        let end_id = self.next_slot;
        self.next_slot += 1;
        let region_ix = self.next_region;
        self.next_region += 1;
        self.log.push(Decision {
            site: end_id,
            label: region_end_label(region_ix),
            kind: SlotKind::RegionEnd,
            outcome: None,
            producer: None,
            pin: None,
            commuting: Vec::new(),
            placed: SyncOp::Barrier,
            merged_last_trip: false,
            src_stmts: lr.residual.len(),
            dst_stmts: 0,
            reason: "barrier kept: region end is the fork-join join point — code after the \
                     region may run serially and must see all region effects"
                .into(),
        });
        Region {
            items: lr.items,
            end: SyncOp::Barrier,
            num_counters: self.next_counter,
        }
    }

    fn lower_top(&mut self, nodes: &[NodeId]) -> Vec<TopItem> {
        let mut out = Vec::new();
        let mut run: Vec<NodeId> = Vec::new();
        let flush = |run: &mut Vec<NodeId>, out: &mut Vec<TopItem>, this: &mut Self| {
            if run.is_empty() {
                return;
            }
            if run.iter().any(|&n| contains_par(this.prog, n)) {
                let region = this.build_region(run);
                out.push(TopItem::Region(region));
            } else {
                for &n in run.iter() {
                    out.push(TopItem::SerialStmt(n));
                }
            }
            run.clear();
        };
        for &node in nodes {
            if spmdable(self.prog, node) {
                run.push(node);
            } else {
                flush(&mut run, &mut out, self);
                match self.prog.node(node) {
                    Node::Loop(l) if contains_par(self.prog, node) => {
                        let body = l.body.clone();
                        out.push(TopItem::MasterLoop {
                            node,
                            body: self.lower_top(&body),
                        });
                    }
                    _ => out.push(TopItem::SerialStmt(node)),
                }
            }
        }
        flush(&mut run, &mut out, self);
        out
    }
}

/// Run the full optimization: region formation + greedy barrier
/// elimination + synchronization replacement.
pub fn optimize(prog: &Program, bind: &Bindings) -> SpmdProgram {
    optimize_logged(prog, bind).0
}

/// As [`optimize`] with explicit mechanism switches (for the ablations).
pub fn optimize_with(prog: &Program, bind: &Bindings, opts: OptimizeOptions) -> SpmdProgram {
    let (plan, _, _) = optimize_impl(prog, bind, opts, None);
    plan
}

/// As [`optimize`] but also returning the greedy algorithm's decision
/// log (one entry per sync slot examined — for reports and debugging).
pub fn optimize_logged(prog: &Program, bind: &Bindings) -> (SpmdProgram, Vec<Decision>) {
    let (plan, log, _) = optimize_impl(prog, bind, OptimizeOptions::default(), None);
    (plan, log)
}

/// The full instrumented entry point: plan, decision log, and the
/// communication-analysis cache statistics.
///
/// The plan and log are deterministic functions of the program and
/// bindings — identical under every [`AnalysisConfig`]. So are the
/// stats' counts, given the configuration (and, for a shared cache, what
/// it held); their `*_ns` timings are not, which keeps the stats out of
/// byte-stable artifacts like the explain JSON.
pub fn optimize_explained(
    prog: &Program,
    bind: &Bindings,
    opts: OptimizeOptions,
) -> (SpmdProgram, Vec<Decision>, AnalysisStats) {
    optimize_impl(prog, bind, opts, None)
}

/// As [`optimize_explained`], but reusing a caller-owned FME memo so a
/// compilation session can share one cache across every program it
/// optimizes. Canonical cache keys are variable-table independent, so
/// cross-program sharing is sound; the plan and log for each program
/// are still identical to an uncached run. The returned stats count
/// the shared cache's cumulative traffic.
pub fn optimize_explained_shared(
    prog: &Program,
    bind: &Bindings,
    opts: OptimizeOptions,
    fme: &std::sync::Arc<ineq::FmeCache>,
) -> (SpmdProgram, Vec<Decision>, AnalysisStats) {
    optimize_impl(prog, bind, opts, Some(fme.clone()))
}

fn optimize_impl(
    prog: &Program,
    bind: &Bindings,
    opts: OptimizeOptions,
    fme: Option<std::sync::Arc<ineq::FmeCache>>,
) -> (SpmdProgram, Vec<Decision>, AnalysisStats) {
    let fme = fme.or_else(|| {
        opts.analysis
            .cache
            .then(|| std::sync::Arc::new(ineq::FmeCache::new()))
    });
    let mut opt = Optimizer {
        prog,
        query: CommQuery::with_fme_cache(prog, bind.clone(), opts.analysis, fme),
        next_counter: 0,
        next_slot: 0,
        next_region: 0,
        log: Vec::new(),
        opts,
    };
    let body = prog.body.clone();
    let plan = SpmdProgram {
        name: prog.name.clone(),
        items: opt.lower_top(&body),
    };
    let stats = opt.query.stats();
    (plan, opt.log, stats)
}

/// Lower to the traditional fork-join schedule: every parallel loop is
/// its own region ending in a barrier; sequential code (including the
/// sequential loops *around* parallel loops) runs on the master, which
/// re-dispatches workers for every parallel loop execution.
pub fn fork_join(prog: &Program, bind: &Bindings) -> SpmdProgram {
    fn lower(prog: &Program, bind: &Bindings, nodes: &[NodeId]) -> Vec<TopItem> {
        let mut out = Vec::new();
        for &node in nodes {
            match prog.node(node) {
                Node::Loop(l) if l.kind == LoopKind::Par => {
                    let kind = if loop_is_replicated(prog, node) {
                        PhaseKind::Replicated
                    } else {
                        PhaseKind::Par {
                            partition: loop_partition(prog, bind, node),
                        }
                    };
                    out.push(TopItem::Region(Region {
                        items: vec![RItem::Phase(Phase {
                            node,
                            kind,
                            after: SyncOp::None,
                        })],
                        end: SyncOp::Barrier,
                        num_counters: 0,
                    }));
                }
                Node::Loop(l) if contains_par(prog, node) => {
                    let body = l.body.clone();
                    out.push(TopItem::MasterLoop {
                        node,
                        body: lower(prog, bind, &body),
                    });
                }
                _ => out.push(TopItem::SerialStmt(node)),
            }
        }
        out
    }
    SpmdProgram {
        name: prog.name.clone(),
        items: lower(prog, bind, &prog.body),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SyncOp;
    use ir::build::*;

    /// jacobi sweep: DO t { DOALL i: B=stencil(A); DOALL j: A=B }.
    fn jacobi_sweep() -> (Program, ir::SymId) {
        let mut pb = ProgramBuilder::new("jacobi");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let b = pb.array("B", &[sym(n)], dist_block());
        let _t = pb.begin_seq("t", con(0), con(9));
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
        (pb.finish(), n)
    }

    #[test]
    fn fork_join_has_barrier_per_parallel_loop() {
        let (prog, n) = jacobi_sweep();
        let bind = Bindings::new(4).set(n, 64);
        let fj = fork_join(&prog, &bind);
        let st = fj.static_stats();
        assert_eq!(st.regions, 2);
        assert_eq!(st.barriers, 2);
        assert_eq!(st.neighbor_syncs, 0);
        // Top level is a master loop wrapping the two regions.
        assert!(matches!(fj.items[0], TopItem::MasterLoop { .. }));
    }

    #[test]
    fn optimize_merges_jacobi_into_one_region_with_neighbor_sync() {
        let (prog, n) = jacobi_sweep();
        let bind = Bindings::new(4).set(n, 64);
        let opt = optimize(&prog, &bind);
        let st = opt.static_stats();
        assert_eq!(st.regions, 1, "the whole sweep becomes one SPMD region");
        // The only barrier left is the region end; intra-loop syncs are
        // neighbor flags.
        assert_eq!(st.barriers, 1, "stats: {st:?}");
        assert!(st.neighbor_syncs >= 1, "stats: {st:?}");
        // Inspect the structure.
        let TopItem::Region(region) = &opt.items[0] else {
            panic!("expected region");
        };
        let RItem::Seq { body, bottom, .. } = &region.items[0] else {
            panic!("expected seq loop inside region");
        };
        assert_eq!(body.len(), 2);
        // After the stencil phase: neighbor sync (B read at ±1 by copy?
        // no — copy is aligned; the carried dep A->stencil is ±1).
        assert!(
            matches!(bottom, SyncOp::Neighbor { .. }),
            "bottom={bottom:?}"
        );
    }

    /// Aligned copy chain: all barriers eliminated except the region end.
    #[test]
    fn optimize_eliminates_all_barriers_in_aligned_chain() {
        let mut pb = ProgramBuilder::new("chain");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let b = pb.array("B", &[sym(n)], dist_block());
        let c = pb.array("C", &[sym(n)], dist_block());
        let i = pb.begin_par("i", con(0), sym(n) - 1);
        pb.assign(elem(b, [idx(i)]), arr(a, [idx(i)]) * ex(2.0));
        pb.end();
        let j = pb.begin_par("j", con(0), sym(n) - 1);
        pb.assign(elem(c, [idx(j)]), arr(b, [idx(j)]) + ex(1.0));
        pb.end();
        let prog = pb.finish();
        let bind = Bindings::new(4).set(n, 64);
        let opt = optimize(&prog, &bind);
        let st = opt.static_stats();
        assert_eq!(st.regions, 1);
        assert_eq!(st.barriers, 1, "only the region end barrier remains");
        assert_eq!(st.eliminated, 1, "the inter-loop barrier is eliminated");
        let fj = fork_join(&prog, &bind).static_stats();
        assert_eq!(fj.barriers, 2);
    }

    /// `DO t { DOALL: B(i) = A(n-1-i); DOALL: A(j) = B(j) }`, then —
    /// or not — one more phase: the reversal pins a barrier at the loop
    /// bottom, whose last episode is the next barrier's job exactly
    /// when one follows with no phase in between.
    #[test]
    fn last_trip_bottom_barrier_merges_into_the_barrier_that_follows() {
        let build = |tail: bool| {
            let mut pb = ProgramBuilder::new("reverse");
            let n = pb.sym("n");
            let a = pb.array("A", &[sym(n)], dist_block());
            let b = pb.array("B", &[sym(n)], dist_block());
            let _t = pb.begin_seq("t", con(0), con(2));
            let i = pb.begin_par("i", con(0), sym(n) - 1);
            pb.assign(elem(b, [idx(i)]), arr(a, [sym(n) - 1 - idx(i)]));
            pb.end();
            let j = pb.begin_par("j", con(0), sym(n) - 1);
            pb.assign(elem(a, [idx(j)]), arr(b, [idx(j)]));
            pb.end();
            pb.end();
            if tail {
                // Aligned with the loop's last phase: no sync after the
                // loop, so its last bottom barrier has work behind it.
                let k = pb.begin_par("k", con(0), sym(n) - 1);
                pb.assign(elem(b, [idx(k)]), arr(a, [idx(k)]) * ex(2.0));
                pb.end();
            }
            (pb.finish(), n)
        };
        for tail in [false, true] {
            let (prog, n) = build(tail);
            let bind = Bindings::new(8).set(n, 64);
            let (plan, log) = optimize_logged(&prog, &bind);
            let TopItem::Region(region) = &plan.items[0] else {
                panic!("expected region");
            };
            let RItem::Seq {
                bottom, merge_last, ..
            } = &region.items[0]
            else {
                panic!("expected seq loop inside region");
            };
            assert!(bottom.is_barrier());
            assert_eq!(*merge_last, !tail);
            let decided = log.iter().find(|d| d.kind == SlotKind::LoopBottom).unwrap();
            assert_eq!(decided.merged_last_trip, !tail);
            assert_eq!(decided.reason.contains("on the last trip merged"), !tail);
            let text = crate::report::render_plan(&prog, &plan);
            assert_eq!(
                text.contains("-- BARRIER -- (merged into the next on the last trip)"),
                !tail,
                "{text}"
            );
        }
    }

    /// A serial statement between parallel loops is absorbed as a guarded
    /// (master) phase.
    #[test]
    fn serial_statement_absorbed_into_region() {
        let mut pb = ProgramBuilder::new("absorb");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let s = pb.scalar("s", 0.0);
        let i = pb.begin_par("i", con(0), sym(n) - 1);
        pb.assign(elem(a, [idx(i)]), ex(1.0));
        pb.end();
        pb.assign(svar(s), ex(2.0)); // serial, master-guarded
        let j = pb.begin_par("j", con(0), sym(n) - 1);
        pb.assign(elem(a, [idx(j)]), sca(s) * arr(a, [idx(j)]));
        pb.end();
        let prog = pb.finish();
        let bind = Bindings::new(4).set(n, 64);
        let opt = optimize(&prog, &bind);
        assert_eq!(opt.static_stats().regions, 1);
        let TopItem::Region(r) = &opt.items[0] else {
            panic!()
        };
        assert_eq!(r.items.len(), 3);
        let RItem::Phase(p) = &r.items[1] else {
            panic!()
        };
        assert_eq!(p.kind, PhaseKind::Master);
        // Master-produced scalar consumed by the distributed loop: the
        // barrier is replaced by a counter.
        assert!(matches!(p.after, SyncOp::Counter { .. }), "{:?}", p.after);
    }
}
