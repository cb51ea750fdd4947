//! Region formation, the greedy barrier-elimination algorithm, and
//! baseline (fork-join) lowering.

use crate::plan::{Phase, PhaseKind, RItem, Region, SpmdProgram, SyncOp, TopItem};
use crate::sites::{
    after_label, counter_number, for_each_level_slot, loop_bottom_label, region_end_label, SlotKind,
};
use analysis::{
    loop_is_replicated, loop_partition, AccessPair, AnalysisConfig, AnalysisStats, Anchor,
    Bindings, Comm, CommMode, CommOutcome, CommPattern, CommQuery, Entry, Pin, ProducerSpec,
};
use ir::{Affine, LhsRef, LoopKind, Node, NodeId, Program, StmtPath};
use std::cell::OnceCell;

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
    /// Communicating pairs left out of the classification because a
    /// sync placed elsewhere already orders them on every path from
    /// their source to their sink: the pair (the last access pair the
    /// statement pair joined) and the site of that sync.
    pub covered: Vec<(AccessPair, usize)>,
    /// The slot is in front of a sequential loop and its sync answers
    /// for the loop's first trip only: at every later trip the loop
    /// bottom has already ordered the same pairs.
    pub first_trip: bool,
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
        SyncOp::Cells { waits } => match waits.class() {
            CommPattern::Neighbor { .. } => "neighbor flags",
            CommPattern::Producer1 => "counter",
            _ => "pairwise counters",
        },
    }
}

/// `statement n2 -> statement n11, true dependence on A`.
pub fn pair_str(prog: &Program, pair: &AccessPair) -> String {
    format!(
        "statement n{} -> statement n{}, {} dependence on {}",
        pair.src.0,
        pair.dst.0,
        pair.dep.as_str(),
        pair.storage.name(prog)
    )
}

/// One line naming the access pair that pins a kept barrier and the
/// rule that failed on it.
fn pin_str(prog: &Program, pin: &Pin) -> String {
    format!("{}: {}", pair_str(prog, &pin.pair), pin.rule)
}

/// `s5 (counter #0)`: a sync site and what the plan places there, a
/// counter with its number.
fn site_str(site: usize, op: &SyncOp, counter: Option<usize>) -> String {
    match counter {
        Some(id) => format!("s{site} (counter #{id})"),
        None => format!("s{site} ({})", placed_str(op)),
    }
}

/// Compose the human-readable `reason` for a decision from the
/// classification, what was placed (a counter under the number `id`),
/// the enabled mechanisms and the syncs placed elsewhere (`at` renders
/// one by site id) that took pairs, or all trips but the first, off
/// this slot.
fn reason_for(
    prog: &Program,
    p: &Pending,
    opts: &OptimizeOptions,
    at: &dyn Fn(usize) -> String,
    id: Option<usize>,
) -> String {
    let Some(outcome) = &p.outcome else {
        return "no statements on one side of the boundary — nothing to synchronize".into();
    };
    let (d, placed) = (&p.decision, &p.decision.placed);
    let mut by: Vec<usize> = d.covered.iter().map(|c| c.1).collect();
    by.sort_unstable();
    by.dedup();
    let by = by.iter().map(|&s| at(s)).collect::<Vec<_>>().join(", ");
    let pat = outcome.pattern();
    let ev = pat.evidence();
    let mut reason = match (pat, placed) {
        (CommPattern::NoComm, SyncOp::None) if !by.is_empty() => {
            return format!("eliminated: every communicating pair is already ordered by {by}");
        }
        (CommPattern::NoComm, SyncOp::None) => format!("eliminated: {ev}"),
        (CommPattern::NoComm, _) if !opts.eliminate => {
            format!("barrier kept: elimination disabled by ablation options, though {ev}")
        }
        (CommPattern::Neighbor { fwd, bwd }, SyncOp::Cells { .. }) => {
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
        (CommPattern::Producer1, SyncOp::Cells { waits }) => {
            let id = id.expect("a counter-labelled sync has its number");
            match waits.producers[0] {
                ProducerSpec::Owner {
                    anchor: Anchor::Sink,
                    ..
                } => format!(
                    "replaced with counter #{id}: every owner writes, but all that is read \
                     across processors belongs to the one owner the read subscript names"
                ),
                _ => format!("replaced with counter #{id}: {ev}"),
            }
        }
        (CommPattern::Producer1, _) if !opts.use_counters => {
            format!("barrier kept: counters disabled by ablation options, though {ev}")
        }
        (CommPattern::PairWise { dists }, SyncOp::Cells { waits }) => {
            let (producers, collectors) = (&waits.producers, &waits.collectors);
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
    };
    if !by.is_empty() {
        let n = d.covered.len();
        reason.push_str(&format!("; left out: {n} pair(s) already ordered by {by}"));
    }
    if d.first_trip {
        let bottoms = p.rides.iter().map(|&s| at(s)).collect::<Vec<_>>();
        reason.push_str(&format!(
            "; owed on the loop's first trip only — later trips ride the loop bottom {}",
            bottoms.join(", ")
        ));
    }
    reason
}

struct Optimizer<'p> {
    prog: &'p Program,
    query: CommQuery<'p>,
    /// Running canonical slot id, mirroring the site walk of
    /// [`crate::sites::sync_sites`] (construction order == walk order).
    next_slot: usize,
    /// Running region index (for region-end labels).
    next_region: usize,
    /// The current region's decisions in the order they were taken —
    /// the slot in front of a loop after the loop's own. Sorted by site,
    /// given their counter ids and reasons and moved to `log` when the
    /// region is complete.
    pending: Vec<Pending>,
    log: Vec<Decision>,
    opts: OptimizeOptions,
}

/// A decision awaiting its counter id and its reason.
struct Pending {
    decision: Decision,
    outcome: Option<CommOutcome>,
    /// For a first-trip sync: the loop bottoms later trips ride.
    rides: Vec<usize>,
}

/// A sync slot awaiting its decision (an item's `after`, or a loop's
/// `bottom`): id, label, kind.
struct Slot {
    id: usize,
    label: String,
    kind: SlotKind,
}

/// What a loop-independent statement pair asks of the slot being
/// decided.
enum Owed {
    /// Nothing: the sync placed at this site orders it on every path
    /// from its source to its sink.
    Covered(AccessPair, usize),
    /// This, to be joined into the slot's outcome; with a site, on the
    /// first trip of the loop behind the slot only — at later trips the
    /// loop bottom at that site has ordered the pair.
    Need(CommOutcome, Option<usize>),
}

/// The phase or sequential loop of an item.
fn item_node(item: &RItem) -> NodeId {
    match item {
        RItem::Phase(p) => p.node,
        RItem::Seq { node, .. } => *node,
    }
}

/// Site id and sync of each item's `after` slot, for a level whose
/// first slot is `first`: in the walk of the level, the `after` slots
/// of its items' own nodes, in order.
fn after_slots(items: &[RItem], first: usize) -> Vec<(usize, &SyncOp)> {
    let mut out = Vec::with_capacity(items.len());
    for_each_level_slot(items, first, |s| {
        let after = matches!(s.kind, SlotKind::PhaseAfter | SlotKind::LoopAfter);
        if after && s.node == items.get(out.len()).map(item_node) {
            out.push((s.id, s.op));
        }
    });
    out
}

/// The first of `slots` whose sync covers `need`.
fn covering(slots: &[(usize, &SyncOp)], need: &CommOutcome) -> Option<usize> {
    let slot = slots.iter().find(|(_, have)| have.covers(&need.comm))?;
    Some(slot.0)
}

impl<'p> Optimizer<'p> {
    /// Lower an outcome to a sync op: its wait set as it stands, when
    /// the switch its label answers to is on.
    fn sync_from(&self, outcome: &CommOutcome) -> SyncOp {
        let opts = &self.opts;
        let waits = match &outcome.comm {
            Comm::NoComm if opts.eliminate => return SyncOp::None,
            Comm::NoComm | Comm::General => return SyncOp::Barrier,
            Comm::Waits(waits) => waits,
        };
        let enabled = match waits.class() {
            CommPattern::Neighbor { .. } => opts.use_neighbor,
            CommPattern::Producer1 => opts.use_counters,
            // A collector is the counter rule's mirror image: it rides
            // both switches.
            _ => opts.use_pairwise && (opts.use_counters || waits.collectors.is_empty()),
        };
        if enabled {
            SyncOp::Cells {
                waits: waits.clone(),
            }
        } else {
            SyncOp::Barrier
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
        let level_first = self.next_slot;
        let mut items: Vec<RItem> = Vec::new();
        // The running group, each statement with the index of the item
        // it came in with.
        let mut group: Vec<(usize, StmtPath)> = Vec::new();
        let mut saw_barrier = false;
        let mut last_after: Option<Slot> = None;

        for (ib, &node) in nodes.iter().enumerate() {
            let stmts = self.prog.statements_under(node, prefix);

            // Build the item first: the slot in front of a sequential
            // loop is decided knowing the syncs inside the loop.
            let item_first = self.next_slot;
            let (item, after, inner) = match self.prog.node(node) {
                Node::Loop(l) if l.kind == LoopKind::Seq && spmdable(self.prog, node) => {
                    let mut inner_prefix = prefix.to_vec();
                    inner_prefix.push(node);
                    let body_nodes = l.body.clone();
                    let sub = self.schedule_level(&body_nodes, &inner_prefix);
                    // Reserve the loop's bottom and after slots (body
                    // slots were consumed by the recursion).
                    let bottom_id = self.next_slot;
                    self.next_slot += 2;
                    let body = (&sub.items[..], item_first);
                    let bottom =
                        self.carried_sync(node, &inner_prefix, &body_nodes, body, bottom_id);
                    let item = RItem::Seq {
                        node,
                        body: sub.items,
                        bottom,
                        merge_last: false,
                        after: SyncOp::None,
                    };
                    let after = Slot {
                        id: bottom_id + 1,
                        label: after_label(self.prog, node),
                        kind: SlotKind::LoopAfter,
                    };
                    (item, after, Some((sub.residual, sub.saw_barrier)))
                }
                _ => {
                    self.next_slot += 1;
                    let item = RItem::Phase(Phase {
                        node,
                        kind: self.phase_kind_for(node),
                        after: SyncOp::None,
                    });
                    let after = Slot {
                        id: item_first,
                        label: after_label(self.prog, node),
                        kind: SlotKind::PhaseAfter,
                    };
                    (item, after, None)
                }
            };

            // Decide the synchronization between the running group and
            // this item (the paper's step 2-4: test loop-independent
            // communication; eliminate, replace, or keep the barrier).
            if let Some(slot) = last_after.replace(after) {
                let before = (&items[..], level_first);
                let sync = self.entry_sync(slot, &group, &stmts, before, (&item, item_first));
                if sync.is_barrier() {
                    group.clear();
                    saw_barrier = true;
                }
                match items.last_mut().unwrap() {
                    RItem::Phase(p) => p.after = sync,
                    RItem::Seq { after, .. } => *after = sync,
                }
            }

            let mut joins = stmts;
            if let (RItem::Seq { bottom, .. }, Some((residual, barrier_inside))) = (&item, inner) {
                if bottom.is_barrier() || barrier_inside {
                    saw_barrier = true;
                    group.clear();
                    joins = if bottom.is_barrier() {
                        Vec::new()
                    } else {
                        residual
                    };
                }
            }
            group.extend(joins.into_iter().map(|s| (ib, s)));
            items.push(item);
        }

        LevelResult {
            items,
            residual: group.into_iter().map(|(_, s)| s).collect(),
            saw_barrier,
        }
    }

    /// The sync between the running group and the item `next` (whose
    /// first slot is the second half of the pair): every pair is asked
    /// what it still [owes](Self::owed) the slot, given the syncs
    /// already placed at this level (`before`: the items so far and the
    /// level's first slot) and inside `next`.
    fn entry_sync(
        &mut self,
        slot: Slot,
        group: &[(usize, StmtPath)],
        stmts: &[StmtPath],
        before: (&[RItem], usize),
        next: (&RItem, usize),
    ) -> SyncOp {
        let sizes = (group.len(), stmts.len());
        if group.is_empty() || stmts.is_empty() {
            return self.decide(slot, None, sizes, Vec::new(), Vec::new());
        }
        // The last item's `after` is the slot being decided.
        let mut here = after_slots(before.0, before.1);
        here.pop();
        let mut need = CommOutcome::none();
        let mut covered = Vec::new();
        let (mut rides, mut every_trip) = (Vec::new(), false);
        // Set once a pair, all trips of the loops behind the slot taken
        // at once, asks for a barrier: whatever the slot gets from then
        // on is no more than it would have had.
        let mut pinned = false;
        'fold: for (ia, s1) in group {
            for s2 in stmts {
                match self.owed(s1, s2, &here[*ia..], next, &mut pinned) {
                    Owed::Covered(pair, site) => covered.push((pair, site)),
                    Owed::Need(o, ride) => {
                        match ride {
                            Some(site) if !rides.contains(&site) => rides.push(site),
                            None if o.comm != Comm::NoComm => every_trip = true,
                            _ => {}
                        }
                        need = need.join(o);
                        if need.comm == Comm::General {
                            break 'fold;
                        }
                    }
                }
            }
        }
        if every_trip || need.comm == Comm::General {
            rides.clear();
        }
        self.decide(slot, Some(need), sizes, covered, rides)
    }

    /// Does `item` hold statement `s`?
    fn holds(&self, item: &RItem, s: &StmtPath) -> bool {
        let node = item_node(item);
        let mut found = node == s.node || s.loops.contains(&node);
        if !found && matches!(self.prog.node(node), Node::Guard(_)) {
            self.prog.walk(node, &mut |id, _| found |= id == s.node);
        }
        found
    }

    /// What the pair `s1 -> s2` asks of the slot in front of the item
    /// `next` that holds `s2`, `s1` being in the running group.
    ///
    /// Nothing, when an `after` slot between the two at this level
    /// (`here`) already orders it. Into a sequential loop, the need is
    /// walked outwards from the sink's own level: stated per trip — the
    /// loop counted among the site loops, so a producer may be named
    /// after its index — it may be covered on every trip by a body slot
    /// in front of the sink's item; otherwise, the top of trip `k > lo`
    /// being the same program point as the bottom of trip `k - 1`, a
    /// bottom sync that covers the need of the trip after it leaves
    /// only the loop's first trip open, and the loop is held there for
    /// the levels further out. What is left when the walk arrives at
    /// the slot is what it owes; with no loop held that is the need of
    /// all trips at once, as if the loop were opaque — which is also
    /// the most the slot is ever given (`pinned`: a barrier, found by
    /// an earlier pair; until then every pair is classified that way
    /// first).
    fn owed(
        &self,
        s1: &StmtPath,
        s2: &StmtPath,
        here: &[(usize, &SyncOp)],
        next: (&RItem, usize),
        pinned: &mut bool,
    ) -> Owed {
        // Restated at one entry after another, the pair is scanned once
        // (the query's facts table keeps what the scans found).
        let into_loop = matches!(next.0, RItem::Seq { .. });
        let entering = |entry: &Entry| self.query.comm_stmts_entering(s1, s2, entry);
        let opaque = OnceCell::new();
        let all_trips = || {
            let whole = || {
                if into_loop {
                    return entering(&Entry::default());
                }
                self.query
                    .comm_stmts_detailed(s1, s2, CommMode::LoopIndependent)
            };
            opaque.get_or_init(whole)
        };
        // Taken whole: covered at this level, or what the slot owes.
        let all_at_once = || {
            let all = all_trips();
            match (all.pair, covering(here, all)) {
                (Some(pair), Some(site)) if all.comm != Comm::NoComm => Owed::Covered(pair, site),
                _ => Owed::Need(all.clone(), None),
            }
        };

        // The need at the innermost entry, no loop held.
        let mut known = if !into_loop || !*pinned {
            let all = all_trips();
            *pinned |= all.comm == Comm::General;
            if !into_loop || all.comm == Comm::NoComm {
                return all_at_once();
            }
            if let Owed::Covered(pair, site) = all_at_once() {
                return Owed::Covered(pair, site);
            }
            // Fixing more indices only ever names a producer or
            // collector that had no name: a need that is all neighbor
            // reach, or one producer, reads the same at every entry.
            let named = matches!(
                all.pattern(),
                CommPattern::Neighbor { .. } | CommPattern::Producer1
            );
            named.then(|| all.clone())
        } else {
            None
        };

        // The loops from the slot down to the sink's item: the `after`
        // slots in front of the sink's item, the bottom's site and sync.
        let mut levels = Vec::new();
        let (mut item, mut first) = next;
        while let RItem::Seq {
            node, body, bottom, ..
        } = item
        {
            let at = body
                .iter()
                .position(|it| self.holds(it, s2))
                .expect("a statement under a loop is in one of its items");
            let mut slots = after_slots(body, first);
            let bottom_site = slots.last().map_or(first, |s| s.0 + 1);
            slots.truncate(at);
            first = slots.last().map_or(first, |s| s.0 + 1);
            levels.push((*node, slots, bottom_site, bottom));
            item = &body[at];
        }
        let mut entry = Entry {
            per_trip: levels.iter().map(|l| l.0).collect(),
            first_trip: Vec::new(),
        };

        // The pair as the first need that communicates names it, and
        // the innermost loop bottom that takes trips off the slot.
        let (mut pair, mut ride) = (None, None);
        // With loops held, no need left means the bottoms ridden order
        // the pair at every trip.
        let served = |need: CommOutcome, pair, ride| match (pair, ride) {
            (Some(pair), Some(site)) => Owed::Covered(pair, site),
            _ => Owed::Need(need, None),
        };
        for (node, slots, bottom_site, bottom) in levels.iter().rev() {
            let need = known.take().unwrap_or_else(|| entering(&entry));
            if need.comm == Comm::NoComm {
                return served(need, pair, ride);
            }
            pair = pair.or(need.pair);
            if let (Some(pair), Some(site)) = (pair, covering(slots, &need)) {
                return Owed::Covered(pair, site);
            }
            entry.per_trip.pop();
            let (k, lo) = {
                let l = self.prog.expect_loop(*node);
                (l.id, &l.lo)
            };
            let next_trip = need.clone().at_trip(k, &(Affine::index(k) + 1));
            let unnamed = next_trip == need;
            if bottom.covers(&next_trip.comm) {
                ride.get_or_insert(*bottom_site);
                if self.query.trip_invariant(s2, *node) {
                    // Trip `lo` reads like every other.
                    known = Some(need);
                    continue;
                }
                entry.first_trip.push(*node);
                if !unnamed && lo.loops().next().is_none() {
                    // Stated for every trip `k` by name, it is stated
                    // for trip `lo`; asking again could only find that
                    // trip quieter than the others.
                    known = Some(need.at_trip(k, lo));
                }
            } else if unnamed {
                // Nothing in it names this loop's index, so one level
                // out, the loop not held, it reads the same.
                known = Some(need);
            }
        }
        let Some(site) = ride else {
            return all_at_once();
        };
        let first_trip = known.unwrap_or_else(|| {
            entry.per_trip.clear();
            entering(&entry)
        });
        if first_trip.comm == Comm::NoComm {
            return served(first_trip, pair, ride);
        }
        // Never a sync the slot would not have had for all trips.
        if !*pinned && !all_trips().covers(&first_trip) {
            return all_at_once();
        }
        match (pair, covering(here, &first_trip)) {
            (Some(pair), Some(site)) => Owed::Covered(pair, site),
            _ => Owed::Need(first_trip, Some(site)),
        }
    }

    /// Loop-carried communication analysis for the bottom of a
    /// sequential loop inside a region (`body`: its items and their
    /// first slot): pairs that an intra-body sync already orders are
    /// left out; the rest are joined and lowered to the cheapest
    /// sufficient synchronization.
    fn carried_sync(
        &mut self,
        loop_node: NodeId,
        inner_prefix: &[NodeId],
        body_nodes: &[NodeId],
        body: (&[RItem], usize),
        bottom_id: usize,
    ) -> SyncOp {
        let per_item: Vec<Vec<StmtPath>> = body_nodes
            .iter()
            .map(|&n| self.prog.statements_under(n, inner_prefix))
            .collect();
        let total_stmts: usize = per_item.iter().map(Vec::len).sum();
        // A dependence from item ia at trip t to item ib at a later trip
        // passes body slot c after its source in t when c >= ia, and —
        // one trip after the bottom visit that would order it — before
        // its sink when c < ib: there the slot's sync counts as what it
        // orders at the next trip.
        let k = self.prog.expect_loop(loop_node).id;
        let next_trip = Affine::index(k) + 1;
        let slots: Vec<(usize, &SyncOp, SyncOp)> = after_slots(body.0, body.1)
            .into_iter()
            .map(|(site, now)| (site, now, now.at_trip(k, &next_trip)))
            .collect();
        let crossing = |ia: usize, ib: usize, need: &CommOutcome| {
            let crosses = |(c, (site, now, then)): (usize, &(usize, &SyncOp, SyncOp))| {
                let need = &need.comm;
                let covers = c >= ia && now.covers(need) || c < ib && then.covers(need);
                covers.then_some(*site)
            };
            slots.iter().enumerate().find_map(crosses)
        };
        // What only an intra-body barrier covers: any pair at all.
        let any_pair = CommOutcome::general();
        let mut outcome = CommOutcome::none();
        let mut covered = Vec::new();
        'fold: for (ia, g1) in per_item.iter().enumerate() {
            for (ib, g2) in per_item.iter().enumerate() {
                if crossing(ia, ib, &any_pair).is_some() {
                    continue;
                }
                let mut pairs = CommOutcome::none();
                'group: for s1 in g1 {
                    for s2 in g2 {
                        let o =
                            self.query
                                .comm_stmts_detailed(s1, s2, CommMode::CarriedBy(loop_node));
                        let pair = o.pair.filter(|_| o.comm != Comm::NoComm);
                        if let Some(site) = pair.and(crossing(ia, ib, &o)) {
                            covered.extend(pair.map(|p| (p, site)));
                            continue;
                        }
                        pairs = pairs.join(o);
                        if pairs.comm == Comm::General {
                            break 'group;
                        }
                    }
                }
                outcome = outcome.join(pairs);
                if outcome.comm == Comm::General {
                    break 'fold;
                }
            }
        }
        let slot = Slot {
            id: bottom_id,
            label: loop_bottom_label(self.prog, loop_node),
            kind: SlotKind::LoopBottom,
        };
        let sizes = (total_stmts, total_stmts);
        self.decide(slot, Some(outcome), sizes, covered, Vec::new())
    }

    /// Lower a slot's communication outcome (`None`: nothing on one
    /// side of the boundary) to the sync placed there, and note the
    /// decision; `sizes` are the statement counts on the two sides.
    fn decide(
        &mut self,
        slot: Slot,
        outcome: Option<CommOutcome>,
        sizes: (usize, usize),
        covered: Vec<(AccessPair, usize)>,
        rides: Vec<usize>,
    ) -> SyncOp {
        let placed = outcome.as_ref().map_or(SyncOp::None, |o| self.sync_from(o));
        let decision = Decision {
            site: slot.id,
            label: slot.label,
            kind: slot.kind,
            outcome: outcome.as_ref().map(CommOutcome::pattern),
            producer: outcome.as_ref().and_then(|o| {
                let waits = o.wait_set()?;
                (waits.class() == CommPattern::Producer1).then(|| waits.producers[0].clone())
            }),
            pin: outcome.as_ref().and_then(CommOutcome::pin),
            commuting: outcome.as_ref().map_or(Vec::new(), |o| o.commuting.clone()),
            covered,
            first_trip: !rides.is_empty(),
            placed: placed.clone(),
            merged_last_trip: false,
            src_stmts: sizes.0,
            dst_stmts: sizes.1,
            reason: String::new(),
        };
        self.pending.push(Pending {
            decision,
            outcome,
            rides,
        });
        placed
    }

    /// Close a region's decisions: move the pending ones to the log,
    /// sorted by site, each with its reason — which names counters by
    /// their number in site order, whatever order the slots were
    /// decided in. `first_slot` is the region's first site id.
    fn close_log(&mut self, items: &[RItem], first_slot: usize) {
        let (mut slots, mut counters) = (Vec::new(), 0);
        for_each_level_slot(items, first_slot, |s| {
            slots.push((s.op, counter_number(s.op, &mut counters)));
        });
        let at = |site: usize| {
            let (op, id) = slots[site - first_slot];
            site_str(site, op, id)
        };
        let mut pending = std::mem::take(&mut self.pending);
        pending.sort_by_key(|p| p.decision.site);
        for mut p in pending {
            let id = slots[p.decision.site - first_slot].1;
            p.decision.reason = reason_for(self.prog, &p, &self.opts, &at, id);
            self.log.push(p.decision);
        }
    }

    /// Mark the loops whose bottom barrier the next barrier makes
    /// redundant on their final trip: the one in the loop's own `after`
    /// slot, or — when the loop ends its level — the barrier that
    /// `follows` the level (the enclosing loop's bottom, merged or not,
    /// or the region end). Nothing runs between the two, so the plan
    /// never executes more barriers than fork-join, which pays one per
    /// parallel loop. `slot` counts site ids along the walk: the
    /// level's first on entry, the one past its last on return.
    fn merge_last_trips(&mut self, items: &mut [RItem], follows: bool, slot: &mut usize) {
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
                *slot += 1;
                continue;
            };
            self.merge_last_trips(body, bottom.is_barrier(), slot);
            let bottom_site = *slot;
            *slot += 2;
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
        let first_slot = self.next_slot;
        let mut lr = self.schedule_level(nodes, &[]);
        self.close_log(&lr.items, first_slot);
        let mut slot = first_slot;
        self.merge_last_trips(&mut lr.items, true, &mut slot);
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
            covered: Vec::new(),
            first_trip: false,
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
        next_slot: 0,
        next_region: 0,
        pending: Vec::new(),
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
    use analysis::{DistSet, WaitSet};
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
            matches!(bottom.class(), Some(CommPattern::Neighbor { .. })),
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

    /// `init; DO k { gather row k (replicated); update rows > k }`: the
    /// loop bottom broadcasts row `k + 1` from its owner, so the slot in
    /// front of the loop owes trip 0 alone — a counter posted by the
    /// owner of row 0. The slot is decided after the loop, yet the log
    /// is in site order and counter ids run in site order too.
    fn gather_update() -> (Program, ir::SymId) {
        let mut pb = ProgramBuilder::new("gather_update");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n), sym(n)], dist_block());
        let d = pb.private_array("D", &[sym(n)]);
        let i0 = pb.begin_par("i0", con(0), sym(n) - 1);
        let j0 = pb.begin_seq("j0", con(0), sym(n) - 1);
        pb.assign(elem(a, [idx(i0), idx(j0)]), ival(idx(i0) + idx(j0)).sin());
        pb.end();
        pb.end();
        let k = pb.begin_seq("k", con(0), sym(n) - 2);
        let j1 = pb.begin_par("j1", con(0), sym(n) - 1);
        pb.assign(elem(d, [idx(j1)]), arr(a, [idx(k), idx(j1)]));
        pb.end();
        let i2 = pb.begin_par("i2", con(0), sym(n) - 1);
        let j2 = pb.begin_seq("j2", con(0), sym(n) - 1);
        pb.begin_guard(vec![ge0(idx(i2) - idx(k) - 1)]);
        pb.assign(
            elem(a, [idx(i2), idx(j2)]),
            arr(a, [idx(i2), idx(j2)]) * ex(0.5) + arr(d, [idx(j2)]),
        );
        pb.end();
        pb.end();
        pb.end();
        pb.end();
        (pb.finish(), n)
    }

    #[test]
    fn slot_in_front_of_a_loop_owes_its_first_trip_only() {
        let (prog, n) = gather_update();
        let bind = Bindings::new(8).set(n, 16);
        let (plan, log) = optimize_logged(&prog, &bind);
        let sites: Vec<usize> = log.iter().map(|d| d.site).collect();
        assert!(sites.windows(2).all(|w| w[0] < w[1]), "{sites:?}");
        let (front, bottom) = (&log[0], &log[2]);
        assert!(front.first_trip && !bottom.first_trip);
        assert_eq!(bottom.kind, SlotKind::LoopBottom);
        assert!(front.placed.is_counter() && bottom.placed.is_counter());
        let producer = &front.placed.waits().unwrap().producers[0];
        let ProducerSpec::Owner { sub, .. } = producer else {
            panic!("{producer:?}");
        };
        assert_eq!(*sub, Affine::constant(0));
        assert!(front.reason.contains("counter #0"), "{}", front.reason);
        let sites = crate::sites::sync_sites(&prog, &plan);
        let numbers = (sites[front.site].counter, sites[bottom.site].counter);
        assert_eq!(numbers, (Some(0), Some(1)));
        let rides = format!(
            "later trips ride the loop bottom s{} (counter #1)",
            bottom.site
        );
        assert!(front.reason.contains(&rides), "{}", front.reason);
        assert_eq!(plan.static_stats().barriers, 1, "only the region end");

        // The rule rides the switches: without counters the bottom is a
        // barrier, which covers more, and trip 0 gets one too.
        let opts = OptimizeOptions {
            use_counters: false,
            ..OptimizeOptions::default()
        };
        let (_, log, _) = optimize_explained(&prog, &bind, opts);
        assert!(log[0].placed.is_barrier() && log[0].first_trip);
        assert!(log[2].placed.is_barrier());
    }

    /// `init; DO t { DO i = 1.. { DOALL j: X(i,j) = .. X(i-1,j) } }`,
    /// rows in blocks: the sweep's bottom hands row `i - 1` on at every
    /// trip but the first, and the first reads row 0 next to row 1 — so
    /// the slot after the initialisation holds nothing, unless blocks
    /// are single rows, where it keeps the forward flag for trip 1.
    #[test]
    fn sweep_bottom_covers_the_slot_in_front_unless_blocks_are_single_rows() {
        let mut pb = ProgramBuilder::new("sweep");
        let n = pb.sym("n");
        let x = pb.array("X", &[sym(n), sym(n)], dist_block());
        let i0 = pb.begin_par("i0", con(0), sym(n) - 1);
        let j0 = pb.begin_seq("j0", con(0), sym(n) - 1);
        pb.assign(
            elem(x, [idx(i0), idx(j0)]),
            ival(idx(i0) * 3 + idx(j0)).sin(),
        );
        pb.end();
        pb.end();
        let _t = pb.begin_seq("t", con(0), con(2));
        let i = pb.begin_seq("i", con(1), sym(n) - 1);
        let j = pb.begin_par("j", con(0), sym(n) - 1);
        pb.assign(
            elem(x, [idx(i), idx(j)]),
            arr(x, [idx(i), idx(j)]) * ex(0.5) + arr(x, [idx(i) - 1, idx(j)]),
        );
        pb.end();
        pb.end();
        pb.end();
        let prog = pb.finish();
        for (nprocs, single_rows) in [(4, false), (8, true)] {
            let (_, log) = optimize_logged(&prog, &Bindings::new(nprocs).set(n, 8));
            let (front, sweep) = (&log[0], &log[1]);
            assert_eq!(sweep.kind, SlotKind::LoopBottom);
            let fwd = SyncOp::Cells {
                waits: WaitSet::at_distances(DistSet::neighbor(true, false)),
            };
            assert_eq!(sweep.placed, fwd);
            if single_rows {
                assert_eq!(front.placed, fwd);
                assert!(front.first_trip && front.covered.is_empty());
            } else {
                assert_eq!(front.placed, SyncOp::None);
                assert_eq!(front.covered.len(), 1);
                assert_eq!(front.covered[0].1, sweep.site);
                assert!(front
                    .reason
                    .starts_with("eliminated: every communicating pair"));
            }
        }
    }

    /// Three phases, the third overwriting what the first read one row
    /// up: the flags between the first two already order that pair, so
    /// the aligned second boundary holds nothing.
    #[test]
    fn a_sync_between_source_and_sink_at_the_same_level_covers_the_pair() {
        let mut pb = ProgramBuilder::new("three");
        let n = pb.sym("n");
        let p = pb.array("P", &[sym(n)], dist_block());
        let h = pb.array("H", &[sym(n)], dist_block());
        let q = pb.array("Q", &[sym(n)], dist_block());
        let i1 = pb.begin_par("i1", con(0), sym(n) - 2);
        pb.assign(
            elem(h, [idx(i1)]),
            arr(p, [idx(i1) + 1]) + arr(p, [idx(i1)]),
        );
        pb.end();
        let i2 = pb.begin_par("i2", con(1), sym(n) - 2);
        pb.assign(
            elem(q, [idx(i2)]),
            arr(h, [idx(i2) - 1]) - arr(h, [idx(i2)]),
        );
        pb.end();
        let i3 = pb.begin_par("i3", con(1), sym(n) - 2);
        pb.assign(elem(p, [idx(i3)]), arr(q, [idx(i3)]));
        pb.end();
        let prog = pb.finish();
        let (_, log) = optimize_logged(&prog, &Bindings::new(4).set(n, 32));
        assert!(matches!(
            log[0].placed.class(),
            Some(CommPattern::Neighbor { fwd: true, .. })
        ));
        assert_eq!(log[1].placed, SyncOp::None);
        assert_eq!(log[1].covered.len(), 1);
        let (pair, site) = log[1].covered[0];
        assert_eq!((pair.dep.as_str(), site), ("anti", log[0].site));
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
        assert!(p.after.is_counter(), "{:?}", p.after);
    }
}
