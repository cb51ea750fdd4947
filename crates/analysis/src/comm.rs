//! Communication tests and classification between statement groups.
//!
//! For every pair of accesses that could form a true, anti, or output
//! dependence between two groups, we build the two-instance inequality
//! system ([`crate::translate`]) and ask, with Fourier-Motzkin scans:
//!
//! 1. *Is there any cross-processor access pair at all?* If not, the
//!    barrier between the groups is unnecessary ([`CommPattern::NoComm`]).
//! 2. *Does every cross-processor pair stay within the reach of neighbor
//!    synchronization?* For loop-independent dependences that means
//!    `|q - p| <= 1`; for dependences carried by an enclosing loop it
//!    means `|q - p| <= i2 - i1` (each per-iteration neighbor sync hop
//!    extends the happens-before chain by one processor). If so, cheap
//!    post/wait flags replace the barrier ([`CommPattern::Neighbor`]).
//! 3. *Is the producer a single processor?* (master statements, or owner
//!    subscripts invariant in the distributed loops — e.g. a pivot row).
//!    Then a counter replaces the barrier ([`CommPattern::Producer1`]).
//!    The producer is named either from the writer's side (one processor
//!    executes the writing statement) or from the reader's: every owner
//!    writes, but all that is *read* across processors is one row or
//!    column whose owner the loops around the sync site fix
//!    ([`Anchor::Sink`]).
//! 4. *Is the consumer a single processor?* The mirror image of 3: a
//!    master-guarded statement, or the one owner about to overwrite
//!    what everybody just read, is the only processor that has to
//!    wait. It becomes a *collector* of a pairwise sync — everyone
//!    posts and runs on, the collector waits for every post
//!    ([`WaitSet::collectors`]).
//! 5. Otherwise the barrier stays ([`CommPattern::General`]), and the
//!    outcome names the access pair that pins it ([`Pin`]).
//!
//! Two distributed reductions into one shared scalar with the same
//! operator are not a dependent pair at all: their per-processor
//! partials are flushed atomically and commute
//! ([`CommOutcome::commuting`]).
//!
//! Steps 2 to 4 all answer in one form, a [`WaitSet`] — whom every
//! processor waits for at the sync point — and access pairs join by
//! union ([`CommOutcome::join`]); neighbor, counter and pairwise are the
//! names of its shapes ([`WaitSet::class`]).

use crate::bindings::Bindings;
use crate::partition::{stmt_partition, LoopPartition, OwnerMap, StmtPartition};
use crate::translate::{build_partitioned, PairSystem, SharedLoopMode, Side};
use ineq::{FmeCache, FmeCacheStats, LinExpr, ProbeScratch, Rows, VarKind};
use ir::{Affine, ArrayId, LhsRef, LoopId, LoopKind, NodeId, Program, RedOp, ScalarId, StmtPath};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// One statement-pair query observation delivered to an analyzer's
/// probe (see [`CommQuery::with_probe`]).
#[derive(Clone, Copy, Debug)]
pub struct PairProbe {
    /// True when the pass's facts table answered every access pair of
    /// the query, so that it built no pair system of its own for them.
    pub memo_hit: bool,
    /// Wall time the query took, in nanoseconds.
    pub elapsed_ns: u64,
}

/// Tuning knob for the communication analysis.
///
/// The default (shared memoization on) changes only how fast the answers
/// arrive — never the answers themselves: verdicts are pure functions of
/// each query's canonical inequality system.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AnalysisConfig {
    /// Memoize FME feasibility verdicts in a cache shared across the
    /// whole pass. (What the scans found per access pair is kept in
    /// every configuration; see [`CommQuery`].)
    pub cache: bool,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig { cache: true }
    }
}

impl AnalysisConfig {
    /// The pre-caching behavior: uncached. This is the reference
    /// configuration differential tests compare against.
    pub fn sequential_uncached() -> Self {
        AnalysisConfig { cache: false }
    }
}

/// Counter snapshot for one analysis pass: facts-table traffic plus the
/// shared FME cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Access pairs whose scans the facts table already held.
    pub pair_hits: u64,
    /// Access pairs that built and scanned a pair system.
    pub pair_misses: u64,
    /// Shared Fourier-Motzkin cache counters.
    pub fme: FmeCacheStats,
}

impl AnalysisStats {
    /// Hit rate over all facts-table lookups, in `[0, 1]`.
    pub fn pair_hit_rate(&self) -> f64 {
        let total = self.pair_hits + self.pair_misses;
        if total == 0 {
            0.0
        } else {
            self.pair_hits as f64 / total as f64
        }
    }
}

/// Largest processor distance a [`DistSet`] can represent. Distances
/// beyond this collapse to [`CommPattern::General`].
pub const MAX_PAIR_DIST: i64 = 64;

/// Most distinct distance/producer wait targets a pairwise sync may
/// carry before a barrier is cheaper than the fan-in of point-to-point
/// waits.
pub const MAX_PAIR_FANIN: usize = 4;

/// A set of dependence distance vectors projected onto the processor
/// dimension: `d` in the set means data flows from processor `p` to
/// processor `p + d` (so a consumer `q` must wait on `q - d`).
/// Bitmask-encoded and `Copy`, so it can ride inside [`CommPattern`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Debug)]
pub struct DistSet {
    /// Bit `k` set: forward distance `k + 1` (toward higher pids).
    fwd: u64,
    /// Bit `k` set: backward distance `-(k + 1)` (toward lower pids).
    bwd: u64,
}

impl DistSet {
    /// The empty set.
    pub fn empty() -> Self {
        DistSet::default()
    }

    /// The neighbor distances `{+1}`/`{-1}` for the given directions.
    pub fn neighbor(fwd: bool, bwd: bool) -> Self {
        let mut s = DistSet::empty();
        if fwd {
            s.insert(1);
        }
        if bwd {
            s.insert(-1);
        }
        s
    }

    /// Insert a distance. Returns `false` (set unchanged) when `d` is
    /// zero (local) or beyond [`MAX_PAIR_DIST`].
    pub fn insert(&mut self, d: i64) -> bool {
        if d == 0 || d.unsigned_abs() > MAX_PAIR_DIST as u64 {
            return false;
        }
        if d > 0 {
            self.fwd |= 1u64 << (d - 1);
        } else {
            self.bwd |= 1u64 << (-d - 1);
        }
        true
    }

    /// Membership test.
    pub fn contains(&self, d: i64) -> bool {
        if d == 0 || d.unsigned_abs() > MAX_PAIR_DIST as u64 {
            return false;
        }
        if d > 0 {
            self.fwd & (1u64 << (d - 1)) != 0
        } else {
            self.bwd & (1u64 << (-d - 1)) != 0
        }
    }

    /// Set union.
    pub fn union(self, other: DistSet) -> DistSet {
        DistSet {
            fwd: self.fwd | other.fwd,
            bwd: self.bwd | other.bwd,
        }
    }

    /// Number of distances in the set.
    pub fn len(&self) -> usize {
        (self.fwd.count_ones() + self.bwd.count_ones()) as usize
    }

    /// True when no distance is present.
    pub fn is_empty(&self) -> bool {
        self.fwd == 0 && self.bwd == 0
    }

    /// Distances in ascending order (negative first).
    pub fn iter(&self) -> impl Iterator<Item = i64> {
        let (mut bwd, mut fwd) = (self.bwd, self.fwd);
        // Set bits only: backward from the highest bit (most negative
        // distance) down, then forward from the lowest bit up.
        std::iter::from_fn(move || {
            if let Some(k) = bwd.checked_ilog2() {
                bwd ^= 1u64 << k;
                return Some(-i64::from(k) - 1);
            }
            let k = fwd.trailing_zeros();
            fwd = fwd.checked_sub(1)? & fwd;
            Some(i64::from(k) + 1)
        })
    }

    /// Render as `{-2,+1,+3}` for reports.
    pub fn render(&self) -> String {
        let parts: Vec<String> = self
            .iter()
            .map(|d| {
                if d > 0 {
                    format!("+{d}")
                } else {
                    format!("{d}")
                }
            })
            .collect();
        format!("{{{}}}", parts.join(","))
    }
}

/// The label of a communication outcome: the two ends of the lattice,
/// and between them the paper's name for the shape of a [`WaitSet`]
/// ([`WaitSet::class`]). The label is what reports, static statistics
/// and the ablation switches read; what is placed and executed is the
/// wait set itself.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CommPattern {
    /// No inter-processor data movement: the barrier can be eliminated.
    NoComm,
    /// All movement is between adjacent processors (within the reach of
    /// per-sync-point neighbor post/wait flags).
    Neighbor {
        /// Data flows to higher-numbered processors.
        fwd: bool,
        /// Data flows to lower-numbered processors.
        bwd: bool,
    },
    /// All movement follows a small set of fixed processor distances
    /// and/or identifiable producers and collectors: point-to-point
    /// pairwise counters — each consumer waits only on the processors
    /// its wait set names, which pipelines loop-carried sweeps into a
    /// wavefront.
    PairWise {
        /// The feasible processor distances.
        dists: DistSet,
    },
    /// A single identifiable processor produces everything consumed:
    /// replace the barrier with a counter.
    Producer1,
    /// Unstructured communication: keep the barrier.
    General,
}

impl CommPattern {
    /// Stable lower-case name (used in JSON output).
    pub fn as_str(self) -> &'static str {
        match self {
            CommPattern::NoComm => "no-comm",
            CommPattern::Neighbor { .. } => "neighbor",
            CommPattern::PairWise { .. } => "pair-wise",
            CommPattern::Producer1 => "producer-1",
            CommPattern::General => "general",
        }
    }

    /// One-line description of the inequality-system evidence behind the
    /// classification (what the Fourier-Motzkin scans proved or failed to
    /// prove — the paper's §4 elimination conditions).
    pub fn evidence(self) -> &'static str {
        match self {
            CommPattern::NoComm => {
                "the inequality system with p != q is infeasible for every dependent access pair \
                 (no inter-processor data movement)"
            }
            CommPattern::Neighbor { .. } => {
                "every cross-processor pair stays within the reach of per-sync-point neighbor \
                 flags (|q - p| bounded by the synchronization chain)"
            }
            CommPattern::PairWise { .. } => {
                "every cross-processor pair follows a fixed dependence distance vector (q - p = d \
                 proved exact by feasibility probes) or an identifiable producer; point-to-point \
                 pairwise counters cover all of them"
            }
            CommPattern::Producer1 => {
                "all consumed values originate from one identifiable processor (owner subscripts \
                 fixed within a sync instance)"
            }
            CommPattern::General => {
                "a dependent pair with |q - p| beyond neighbor reach is feasible, no unique \
                 producer exists, and the distance spectrum is unbounded or wider than the \
                 pairwise fan-in budget"
            }
        }
    }
}

/// Which side of a dependence the subscript naming its one producer or
/// collector was taken from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Anchor {
    /// From the earlier statement. A producer: the writing statement
    /// runs on one processor per sync instance, named by its own owner
    /// subscript. A collector: every processor reads, but whoever
    /// overwrites what was read across processors is the one owner the
    /// *read* subscript names (at a loop bottom, of the iteration that
    /// just ended).
    Source,
    /// From the later statement. A producer: every owner writes, but
    /// everything read across processors has the one owner the *read*
    /// subscript names (for a loop bottom, at the next iteration). A
    /// collector: the later statement runs on one processor per sync
    /// instance, named by its own owner subscript (at a loop bottom,
    /// at the next iteration).
    Sink,
}

/// Identifies the one processor on the narrow side of a dependence —
/// a producer or a collector of a [`WaitSet`] — in a form the runtime
/// can evaluate (all loop indices that appear enclose the sync site, so
/// they are fixed for the duration of the sync instance).
#[derive(Clone, PartialEq, Debug)]
pub enum ProducerSpec {
    /// The master processor (serial statement).
    Master,
    /// Owner of element `sub` of a distributed dimension.
    Owner {
        /// How the dimension deals subscript values to processors.
        map: OwnerMap,
        /// Distributed-dimension subscript (invariant in the sync
        /// instance).
        sub: Affine,
        /// Which access the subscript was taken from.
        anchor: Anchor,
    },
}

impl ProducerSpec {
    /// Do both specs name the same processor at every visit of a sync
    /// site? Decided structurally — the same owner function of the same
    /// subscript — and never by evaluation; the anchor only records
    /// which statement the subscript was read off.
    pub fn same_processor(&self, other: &ProducerSpec) -> bool {
        use ProducerSpec::*;
        match (self, other) {
            (Master, Master) => true,
            (
                Owner { map, sub, .. },
                Owner {
                    map: map2,
                    sub: sub2,
                    ..
                },
            ) => map == map2 && sub == sub2,
            _ => false,
        }
    }

    /// The spec with `e` in place of loop index `k`.
    fn at_trip(&self, k: LoopId, e: &Affine) -> ProducerSpec {
        match self {
            ProducerSpec::Master => ProducerSpec::Master,
            ProducerSpec::Owner { map, sub, anchor } => ProducerSpec::Owner {
                map: *map,
                sub: sub.substituted(k, e),
                anchor: *anchor,
            },
        }
    }
}

/// The kind of a dependence from an earlier access to a later one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DepKind {
    /// Write, then read.
    True,
    /// Read, then write.
    Anti,
    /// Write, then write.
    Output,
}

impl DepKind {
    fn of(first_writes: bool, second_writes: bool) -> DepKind {
        match (first_writes, second_writes) {
            (true, false) => DepKind::True,
            (false, _) => DepKind::Anti,
            (true, true) => DepKind::Output,
        }
    }

    /// Stable lower-case name (used in reports and JSON output).
    pub fn as_str(self) -> &'static str {
        match self {
            DepKind::True => "true",
            DepKind::Anti => "anti",
            DepKind::Output => "output",
        }
    }
}

/// The storage a dependence runs through.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Storage {
    /// A distributed or replicated array.
    Array(ArrayId),
    /// A shared scalar.
    Scalar(ScalarId),
}

impl Storage {
    /// `"array"` or `"scalar"` (the JSON key the name goes under).
    pub fn kind(self) -> &'static str {
        match self {
            Storage::Array(_) => "array",
            Storage::Scalar(_) => "scalar",
        }
    }

    /// The declared name.
    pub fn name(self, prog: &Program) -> &str {
        match self {
            Storage::Array(a) => &prog.array(a).name,
            Storage::Scalar(s) => &prog.scalar(s).name,
        }
    }
}

/// One dependent access pair of two statements.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AccessPair {
    /// The earlier statement.
    pub src: NodeId,
    /// The later statement.
    pub dst: NodeId,
    /// What both access.
    pub storage: Storage,
    /// Which of the two accesses write.
    pub dep: DepKind,
}

/// What pins a kept barrier: the access pair at which the fold over
/// dependent pairs turned [`CommPattern::General`], and the last rule
/// that failed on it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Pin {
    /// The pinning access pair.
    pub pair: AccessPair,
    /// The last replacement rule tried, and why it did not apply.
    pub rule: &'static str,
}

const RULE_SCALAR: &str = "a shared scalar written or overwritten off the master has no \
                           point-to-point form";
const RULE_REPLICATED: &str = "an output or anti dependence on a replicated writer has no \
                               point-to-point form";
const RULE_SYMBOLIC: &str = "block extents are symbolic and the owner inputs differ by more \
                             than the neighbor reach";
const RULE_SPECTRUM: &str = "no single producer on either side, and the processor-distance \
                             spectrum is unbounded or wider than the pairwise fan-in";
const RULE_FANIN: &str = "joined with the pairs before it, the wait set is wider than the \
                          pairwise fan-in";

/// The processors a point-to-point sync makes its waiters wait for, at
/// one visit of one site — the one form every replacement of a barrier
/// takes, from the join of access pairs down to the cells a worker
/// reads: processor `q` waits for `q - d` for every distance `d`, for
/// every producer, and, when it is a collector, for everybody.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct WaitSet {
    /// Processor distances: data flows from `p` to `p + d`.
    pub dists: DistSet,
    /// Identifiable producers: everybody waits for each of them.
    pub producers: Vec<ProducerSpec>,
    /// Collectors: each of these processors waits for *every* other
    /// one, which orders all dependences whose later side runs on it
    /// alone — the arrival half of a barrier with no release half.
    pub collectors: Vec<ProducerSpec>,
}

/// `a` followed by what `b` adds to it, in order.
fn union<T: PartialEq>(mut a: Vec<T>, b: Vec<T>) -> Vec<T> {
    for x in b {
        if !a.contains(&x) {
            a.push(x);
        }
    }
    a
}

impl WaitSet {
    /// Waits along fixed processor distances only.
    pub fn at_distances(dists: DistSet) -> Self {
        WaitSet {
            dists,
            ..WaitSet::default()
        }
    }

    /// Everybody waits for one producer.
    pub fn producer(spec: ProducerSpec) -> Self {
        WaitSet {
            producers: vec![spec],
            ..WaitSet::default()
        }
    }

    /// One processor waits for everybody.
    pub fn collector(spec: ProducerSpec) -> Self {
        WaitSet {
            collectors: vec![spec],
            ..WaitSet::default()
        }
    }

    /// Everything either set waits for (the lattice join).
    pub fn union(self, other: WaitSet) -> WaitSet {
        WaitSet {
            dists: self.dists.union(other.dists),
            producers: union(self.producers, other.producers),
            collectors: union(self.collectors, other.collectors),
        }
    }

    /// Does a sync that waits for `self` order every processor pair a
    /// sync that waits for `need` would? Every distance, producer and
    /// collector of the need must be among its own, producers and
    /// collectors compared by [`ProducerSpec::same_processor`] and never
    /// with each other.
    pub fn contains(&self, need: &WaitSet) -> bool {
        let among = |have: &[ProducerSpec], want: &[ProducerSpec]| {
            want.iter()
                .all(|w| have.iter().any(|h| h.same_processor(w)))
        };
        self.dists.union(need.dists) == self.dists
            && among(&self.producers, &need.producers)
            && among(&self.collectors, &need.collectors)
    }

    /// The wait fan-in held to [`MAX_PAIR_FANIN`]: the distinct
    /// distances, producers and collector specs. The P - 1 cells a
    /// collector reads are not part of it: one processor per sync
    /// instance pays them, which is never more than the arrival half of
    /// the barrier the sync replaces.
    pub fn fanin(&self) -> usize {
        self.dists.len() + self.producers.len() + self.collectors.len()
    }

    /// The set with `e` in place of loop index `k` in every producer
    /// and collector spec: what a sync stated for trip `k` of a loop
    /// waits for at trip `e`.
    pub fn at_trip(mut self, k: LoopId, e: &Affine) -> WaitSet {
        for s in self.producers.iter_mut().chain(&mut self.collectors) {
            *s = s.at_trip(k, e);
        }
        self
    }

    /// The paper's name for the set's shape: neighbor flags when it is
    /// distances within ±1 and nothing else, a counter when it is one
    /// producer and nothing else, pairwise counters otherwise.
    pub fn class(&self) -> CommPattern {
        let near = DistSet::neighbor(true, true);
        let only_dists = self.producers.is_empty() && self.collectors.is_empty();
        if only_dists && !self.dists.is_empty() && near.union(self.dists) == near {
            CommPattern::Neighbor {
                fwd: self.dists.contains(1),
                bwd: self.dists.contains(-1),
            }
        } else if self.dists.is_empty() && self.collectors.is_empty() && self.producers.len() == 1 {
            CommPattern::Producer1
        } else {
            CommPattern::PairWise { dists: self.dists }
        }
    }

    /// The [class](Self::class) as one word: `neighbor`, `counter` or
    /// `pairwise`.
    pub fn label(&self) -> &'static str {
        match self.class() {
            CommPattern::Neighbor { .. } => "neighbor",
            CommPattern::Producer1 => "counter",
            _ => "pairwise",
        }
    }
}

/// The communication lattice: nothing to order, a wait set, or
/// everything (a barrier). The join of two wait sets is their union,
/// unless that is wider than [`MAX_PAIR_FANIN`].
#[derive(Clone, PartialEq, Debug)]
pub enum Comm {
    /// No inter-processor data movement.
    NoComm,
    /// Point-to-point: every processor waits for what the set names.
    Waits(WaitSet),
    /// Unstructured communication: keep the barrier.
    General,
}

impl Comm {
    /// Does a sync that orders `self` order every processor pair `need`
    /// asks to be ordered, at one visit of one site? A barrier covers
    /// everything, nothing needs no cover, and a wait set covers the
    /// wait sets it [contains](WaitSet::contains).
    pub fn covers(&self, need: &Comm) -> bool {
        match (self, need) {
            (_, Comm::NoComm) | (Comm::General, _) => true,
            (Comm::Waits(have), Comm::Waits(need)) => have.contains(need),
            _ => false,
        }
    }
}

/// A communication query result: where the joined access pairs sit in
/// the lattice, plus what names them in reports.
#[derive(Clone, PartialEq, Debug)]
pub struct CommOutcome {
    /// The join over all dependent access pairs.
    pub comm: Comm,
    /// Output pairs left out of the join because both statements
    /// reduce into the scalar atomically with one operator (named in
    /// the explain pass; they place no synchronization).
    pub commuting: Vec<AccessPair>,
    /// The communicating access pair joined in last (`None` only for
    /// `NoComm`); once the outcome is `General`, the pair that made it
    /// so.
    pub pair: Option<AccessPair>,
    /// For `General`: the last rule that failed on `pair`.
    pub failed: Option<&'static str>,
}

impl CommOutcome {
    fn of(comm: Comm) -> Self {
        CommOutcome {
            comm,
            commuting: Vec::new(),
            pair: None,
            failed: None,
        }
    }

    /// The no-communication outcome.
    pub fn none() -> Self {
        CommOutcome::of(Comm::NoComm)
    }

    /// A general (barrier-requiring) outcome.
    pub fn general() -> Self {
        CommOutcome::of(Comm::General)
    }

    /// The outcome that asks for a wait set.
    pub fn waits(waits: WaitSet) -> Self {
        CommOutcome::of(Comm::Waits(waits))
    }

    /// The outcome's label: an end of the lattice, or the
    /// [class](WaitSet::class) of its wait set.
    pub fn pattern(&self) -> CommPattern {
        match &self.comm {
            Comm::NoComm => CommPattern::NoComm,
            Comm::Waits(waits) => waits.class(),
            Comm::General => CommPattern::General,
        }
    }

    /// The wait set, between the ends of the lattice.
    pub fn wait_set(&self) -> Option<&WaitSet> {
        match &self.comm {
            Comm::Waits(waits) => Some(waits),
            _ => None,
        }
    }

    /// What pins the barrier, when the outcome is `General` and came
    /// from a query (a hand-built `general()` names none).
    pub fn pin(&self) -> Option<Pin> {
        Some(Pin {
            pair: self.pair?,
            rule: self.failed?,
        })
    }

    /// [`Comm::covers`] on the two outcomes' lattice elements.
    pub fn covers(&self, need: &CommOutcome) -> bool {
        self.comm.covers(&need.comm)
    }

    /// The outcome at trip `e` of loop `k` ([`WaitSet::at_trip`]).
    pub fn at_trip(mut self, k: LoopId, e: &Affine) -> CommOutcome {
        if let Comm::Waits(waits) = self.comm {
            self.comm = Comm::Waits(waits.at_trip(k, e));
        }
        self
    }

    /// Join two outcomes (`other` is the later one of a fold): the
    /// union of two wait sets — a counter joined with neighbor flags or
    /// another counter is one pairwise sync that waits for both — or
    /// `General` when that is wider than [`MAX_PAIR_FANIN`] (a barrier
    /// is cheaper than a wide point-to-point fan-in), pinned by the
    /// pair `other` brought.
    pub fn join(mut self, mut other: CommOutcome) -> CommOutcome {
        // Commuting reductions place nothing; they only ride along to
        // be named, whichever side survives.
        let commuting = union(
            std::mem::take(&mut self.commuting),
            std::mem::take(&mut other.commuting),
        );
        let joined = match (self.comm, other.comm) {
            (Comm::Waits(a), Comm::Waits(b)) => {
                let waits = a.union(b);
                let too_wide = waits.fanin() > MAX_PAIR_FANIN;
                CommOutcome {
                    comm: if too_wide {
                        Comm::General
                    } else {
                        Comm::Waits(waits)
                    },
                    failed: too_wide.then_some(RULE_FANIN),
                    ..other
                }
            }
            (Comm::NoComm, comm) | (Comm::Waits(_), comm @ Comm::General) => {
                CommOutcome { comm, ..other }
            }
            (comm, _) => CommOutcome { comm, ..self },
        };
        CommOutcome {
            commuting,
            ..joined
        }
    }
}

/// Which loop level a query runs at — see the paper's elimination
/// algorithm: barriers between groups are tested *loop-independent*; the
/// bottom-of-loop barrier of an enclosing sequential loop is tested
/// *loop-carried* at that loop.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CommMode {
    /// Both statement instances in the same iteration of all shared loops.
    LoopIndependent,
    /// Dependence carried by the given shared sequential loop (any
    /// positive distance).
    CarriedBy(NodeId),
    /// Carried with distance exactly one (pipeline-step query).
    CarriedExactlyOne(NodeId),
}

impl CommMode {
    fn shared_mode(self) -> SharedLoopMode {
        match self {
            CommMode::LoopIndependent => SharedLoopMode::SameIteration,
            CommMode::CarriedBy(at) => SharedLoopMode::CarriedBy(at),
            CommMode::CarriedExactlyOne(at) => SharedLoopMode::CarriedExactlyOne(at),
        }
    }
}

/// Where, inside the sequential loops that enclose the later statement
/// alone, a loop-independent pair is classified. The default — neither
/// list holds a loop — is the slot in front of the outermost of them:
/// every trip of every one at once, no index fixed.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Entry {
    /// Loops taken one trip at a time, outermost first: the need is
    /// stated for the top of a trip, where their indices are fixed like
    /// those of the loops around the sync site.
    pub per_trip: Vec<NodeId>,
    /// Loops held at their first trip, innermost first: the index is
    /// bound to the loop's lower bound.
    pub first_trip: Vec<NodeId>,
}

/// The loops whose indices are fixed at the program point a query is
/// stated for, and the loops held at their first trip there.
struct Site {
    /// Outermost first.
    fixed: Vec<LoopId>,
    /// Innermost first, each with its loop's lower bound.
    first: Vec<(LoopId, Affine)>,
}

impl Site {
    /// `sub` as it reads at the site — every first-trip index replaced
    /// by its loop's lower bound, innermost first, since a bound may
    /// name the loops around it — provided only fixed indices are left.
    fn fix(&self, sub: &Affine) -> Option<Affine> {
        let mut sub = sub.clone();
        for (k, lo) in &self.first {
            sub = sub.substituted(*k, lo);
        }
        let fixed = sub.loops().all(|l| self.fixed.contains(&l));
        fixed.then_some(sub)
    }
}

/// What the inequality systems say about one access pair wherever the
/// query is stated — everything in the pair analysis that costs a scan.
struct PairFacts {
    /// The directions in which the pair crosses processors, or the
    /// outcome when the scans alone decide it (local, within neighbor
    /// reach, pinned by symbolic extents), naming no access pair.
    crossing: Result<(bool, bool), CommOutcome>,
    /// The distance spectrum, once a query got as far as asking.
    spectrum: Option<Option<DistSet>>,
}

/// What a pair system is a function of: the two statements, how their
/// shared loops relate, the loops held at their first trip, and the
/// subscripts of the two accesses — named by their subscript class
/// ([`StmtInfo::class`]), since the system never reads which array or
/// which direction of access they belong to.
type FactsKey = (NodeId, NodeId, CommMode, Vec<NodeId>, usize, usize);

/// A statement's accesses and partition, derived once per pass.
struct StmtInfo {
    arrays: Vec<ArrayAccess>,
    scalars: Vec<ScalarAccess>,
    /// Per array access, the first access of the statement with the
    /// same subscripts: accesses of one class build the same system.
    class: Vec<usize>,
    part: StmtPartition,
}

/// One array access of a statement.
#[derive(Clone, Debug)]
pub struct ArrayAccess {
    /// Which array.
    pub array: ArrayId,
    /// Subscripts.
    pub subs: Vec<Affine>,
    /// Write (definition) or read (use).
    pub is_write: bool,
}

/// One scalar access of a statement.
#[derive(Clone, Copy, Debug)]
pub struct ScalarAccess {
    /// Which scalar.
    pub scalar: ScalarId,
    /// Write or read.
    pub is_write: bool,
}

/// Steps 1–2 of the access-pair analysis on the producer's form `x` and
/// the consumer's `y` — the processors `p` and `q`, or step 0a's owner
/// inputs: one crossing probe per direction (`y − x ≥ 1`, `x − y ≥ 1`),
/// then, if either holds, one reach-violation probe per direction, the
/// backward one only when the forward one fails. Loop-independent reach
/// is `|y − x| ≤ 1` (one sync point); carried by a loop with
/// per-iteration sync, `|y − x| ≤ i2 − i1` (the chain). The pair is
/// decided when it does not cross or stays within reach; otherwise the
/// facts name the directions of its crossings.
fn neighbor_reach(ps: &PairSystem, x: &LinExpr, y: &LinExpr) -> PairFacts {
    let beyond = |lo: &LinExpr, hi: &LinExpr, by: LinExpr| {
        ps.feasible_with(|s| s.add_ge(hi.clone() - lo.clone() - by))
    };
    let fwd = beyond(x, y, LinExpr::constant(1));
    let bwd = beyond(y, x, LinExpr::constant(1));
    let by = match ps.carried_vars {
        None => LinExpr::constant(2),
        Some((i1, i2)) => LinExpr::var(i2) - LinExpr::var(i1) + LinExpr::constant(1),
    };
    let crossing = if !fwd && !bwd {
        Err(CommOutcome::none())
    } else if beyond(x, y, by.clone()) || beyond(y, x, by) {
        Ok((fwd, bwd))
    } else {
        let dists = DistSet::neighbor(fwd, bwd);
        Err(CommOutcome::waits(WaitSet::at_distances(dists)))
    };
    PairFacts {
        crossing,
        spectrum: None,
    }
}

/// Step 0 of the access-pair analysis: do the two statements use the
/// *same* owner function, with owner inputs the pair system proves equal?
/// Then the processors are equal too, whatever the function's non-linear
/// internals.
///
/// Inputs the base's unit equalities make equal need no probe. Nor does
/// a block owner probe the others: the pair system bounds each input by
/// its processor's block (`b·p ≤ x ≤ b·p + b − 1`, `b·q ≤ y ≤ b·q + b −
/// 1`), so with the inputs equal `q ≥ p + 1` implies `y − x ≥ 1`: on
/// the exact sets step 1 decides every such pair step 0 would. The scan
/// can fall short of that (gcd tightening may go another way on the
/// step-1 probe's wider system, or the constraint budget may end it
/// `Unknown`); such a pair only keeps its barrier, and the argument does
/// not rule it out — `step_zero_decides_what_its_probes_did_or_step_one_does`
/// checks on the corpus that no pair does. Only a (block-)cyclic owner,
/// whose mod decomposition Fourier-Motzkin cannot see through, asks
/// whether the inputs may differ.
fn owner_inputs_equal(
    ps: &mut PairSystem,
    bind: &Bindings,
    parts: (&StmtPartition, &StmtPartition),
) -> bool {
    let (StmtPartition::Distributed(_, lp1), StmtPartition::Distributed(_, lp2)) = parts else {
        return false;
    };
    let (Some((_, f1, sub1)), Some((_, f2, sub2))) = (lp1.owner_computes(), lp2.owner_computes())
    else {
        return false;
    };
    if f1 != f2 {
        return false;
    }
    let diff = ps.tr(bind, sub1, Side::Producer) - ps.tr(bind, sub2, Side::Consumer);
    let differ = |e: LinExpr| ps.feasible_with(|s| s.add_ge(e - LinExpr::constant(1)));
    ps.forces_zero(&diff)
        || !matches!(f1, OwnerMap::Block(_)) && !differ(diff.clone()) && !differ(-diff)
}

/// Collect a statement's array and scalar accesses (a reduction's LHS
/// counts as both a read and a write).
pub fn stmt_accesses(prog: &Program, stmt: NodeId) -> (Vec<ArrayAccess>, Vec<ScalarAccess>) {
    let a = prog
        .node(stmt)
        .as_assign()
        .expect("statement node must be an assignment");
    let mut arrays = Vec::new();
    let mut scalars = Vec::new();
    match &a.lhs {
        LhsRef::Elem(arr, subs) => {
            arrays.push(ArrayAccess {
                array: *arr,
                subs: subs.clone(),
                is_write: true,
            });
            if a.reduction.is_some() {
                arrays.push(ArrayAccess {
                    array: *arr,
                    subs: subs.clone(),
                    is_write: false,
                });
            }
        }
        LhsRef::Scalar(s) => {
            scalars.push(ScalarAccess {
                scalar: *s,
                is_write: true,
            });
            if a.reduction.is_some() {
                scalars.push(ScalarAccess {
                    scalar: *s,
                    is_write: false,
                });
            }
        }
    }
    for (arr, subs) in a.rhs.array_reads() {
        arrays.push(ArrayAccess {
            array: arr,
            subs,
            is_write: false,
        });
    }
    for s in a.rhs.scalar_reads() {
        scalars.push(ScalarAccess {
            scalar: s,
            is_write: false,
        });
    }
    (arrays, scalars)
}

/// The communication analyzer: a program plus concrete bindings, with
/// optional pass-wide FME memoization. It runs on the calling thread, so
/// its counters are a pure function of program, bindings and the state
/// of the FME cache it was given.
///
/// In every configuration it derives each statement's accesses and
/// partition once, and keeps what the scans found about each access
/// pair in a facts table: a pair asked again — by another query level's
/// slot, at another entry, or as another access of the same subscripts
/// — reads its facts instead of building and scanning its system again.
pub struct CommQuery<'p> {
    /// The program under analysis.
    pub prog: &'p Program,
    /// Symbol values and processor count.
    pub bind: Bindings,
    config: AnalysisConfig,
    fme: Option<Arc<FmeCache>>,
    stmts: RefCell<HashMap<NodeId, Rc<StmtInfo>>>,
    facts: RefCell<HashMap<FactsKey, PairFacts>>,
    /// What every pair system of the pass probes in.
    scratch: Rc<RefCell<ProbeScratch>>,
    pair_hits: Cell<u64>,
    pair_misses: Cell<u64>,
    /// Told of every statement-pair query, when set.
    probe: Option<&'p dyn Fn(PairProbe)>,
}

impl<'p> CommQuery<'p> {
    /// Create an analyzer with the default configuration.
    pub fn new(prog: &'p Program, bind: Bindings) -> Self {
        CommQuery::with_config(prog, bind, AnalysisConfig::default())
    }

    /// Create an analyzer with an explicit cache setting.
    pub fn with_config(prog: &'p Program, bind: Bindings, config: AnalysisConfig) -> Self {
        let fme = config.cache.then(|| Arc::new(FmeCache::new()));
        Self::with_fme_cache(prog, bind, config, fme)
    }

    /// As [`CommQuery::with_config`], but reusing an externally owned
    /// FME memo — e.g. one shared across every procedure of a
    /// compilation session. Canonical keys are variable-table
    /// independent, so sharing is sound across programs. Ignored (no
    /// cache at all) when `config.cache` is false.
    pub fn with_fme_cache(
        prog: &'p Program,
        bind: Bindings,
        config: AnalysisConfig,
        fme: Option<Arc<FmeCache>>,
    ) -> Self {
        CommQuery {
            prog,
            bind,
            config,
            fme: if config.cache { fme } else { None },
            stmts: RefCell::default(),
            facts: RefCell::default(),
            scratch: Rc::default(),
            pair_hits: Cell::new(0),
            pair_misses: Cell::new(0),
            probe: None,
        }
    }

    /// This analyzer, telling `probe` of every statement-pair query it
    /// answers: whether the facts table answered it and how long it
    /// took. This is the profiler's window into the analysis without
    /// `analysis` depending on any runtime crate; the probe runs on the
    /// thread that runs the analysis.
    pub fn with_probe(self, probe: &'p dyn Fn(PairProbe)) -> Self {
        CommQuery {
            probe: Some(probe),
            ..self
        }
    }

    /// The configuration this analyzer runs with.
    pub fn config(&self) -> AnalysisConfig {
        self.config
    }

    /// Counter snapshot (facts table + shared FME cache). The counts
    /// repeat exactly from run to run; the cache's `*_ns` timings do not.
    pub fn stats(&self) -> AnalysisStats {
        AnalysisStats {
            pair_hits: self.pair_hits.get(),
            pair_misses: self.pair_misses.get(),
            fme: self.fme.as_ref().map(|c| c.stats()).unwrap_or_default(),
        }
    }

    /// Communication pattern between two statements (all dependent access
    /// pairs joined).
    pub fn comm_stmts(&self, s1: &StmtPath, s2: &StmtPath, mode: CommMode) -> CommPattern {
        self.comm_stmts_detailed(s1, s2, mode).pattern()
    }

    /// As [`comm_stmts`](Self::comm_stmts) but carrying producer identity.
    pub fn comm_stmts_detailed(&self, s1: &StmtPath, s2: &StmtPath, mode: CommMode) -> CommOutcome {
        self.comm_stmts_at(s1, s2, (mode, &Entry::default()))
    }

    /// The loop-independent need of a pair whose later statement sits
    /// inside sequential loops the earlier one is outside of, stated at
    /// `entry` instead of in front of the outermost such loop: with the
    /// `per_trip` loops counted among the site loops, so that a producer
    /// or collector may be named after their indices, and the
    /// `first_trip` loops held at their lower bound. The default entry
    /// is the need of all trips at once. Restating a pair only renames
    /// what its scans found, and the facts table hands those back.
    pub fn comm_stmts_entering(&self, s1: &StmtPath, s2: &StmtPath, entry: &Entry) -> CommOutcome {
        self.comm_stmts_at(s1, s2, (CommMode::LoopIndependent, entry))
    }

    /// One statement-pair query, reported to the probe if there is one.
    fn comm_stmts_at(&self, s1: &StmtPath, s2: &StmtPath, at: (CommMode, &Entry)) -> CommOutcome {
        let Some(probe) = self.probe else {
            return self.comm_stmts_fresh(s1, s2, at);
        };
        let t0 = Instant::now();
        let misses = self.pair_misses.get();
        let out = self.comm_stmts_fresh(s1, s2, at);
        probe(PairProbe {
            memo_hit: self.pair_misses.get() == misses,
            elapsed_ns: t0.elapsed().as_nanos() as u64,
        });
        out
    }

    /// Statement `s`'s accesses, their subscript classes and its
    /// partition, derived on first use.
    fn info(&self, s: &StmtPath) -> Rc<StmtInfo> {
        if let Some(info) = self.stmts.borrow().get(&s.node) {
            return info.clone();
        }
        let (arrays, scalars) = stmt_accesses(self.prog, s.node);
        let class = (0..arrays.len())
            .map(|k| (0..=k).find(|&j| arrays[j].subs == arrays[k].subs).unwrap())
            .collect();
        let info = Rc::new(StmtInfo {
            arrays,
            scalars,
            class,
            part: stmt_partition(self.prog, &self.bind, s),
        });
        self.stmts.borrow_mut().insert(s.node, info.clone());
        info
    }

    /// Is an instance of `s` the same whichever trip of the sequential
    /// loop `node` around it it belongs to — no loop bound further in, no
    /// guard, no subscript and no owner subscript names the index? Then
    /// a pair into `s` reads the same held at the loop's first trip as
    /// over all its trips.
    pub fn trip_invariant(&self, s: &StmtPath, node: NodeId) -> bool {
        let k = self.prog.expect_loop(node).id;
        let names = |e: &Affine| e.loops().any(|l| l == k);
        let mut loops = s.loops.iter().map(|&n| self.prog.expect_loop(n));
        let info = self.info(s);
        let owner = match &info.part {
            StmtPartition::Distributed(
                _,
                LoopPartition::BlockOwner { sub, .. }
                | LoopPartition::CyclicOwner { sub, .. }
                | LoopPartition::BlockCyclicOwner { sub, .. }
                | LoopPartition::SymbolicBlockOwner { sub, .. },
            ) => names(sub),
            _ => false,
        };
        !(owner
            || loops.any(|l| names(&l.lo) || names(&l.hi))
            || s.guards.iter().any(|g| names(&g.expr))
            || info.arrays.iter().any(|a| a.subs.iter().any(names)))
    }

    /// The statement-pair analysis: every dependent access pair, joined.
    fn comm_stmts_fresh(
        &self,
        s1: &StmtPath,
        s2: &StmtPath,
        at: (CommMode, &Entry),
    ) -> CommOutcome {
        let (i1, i2) = (self.info(s1), self.info(s2));
        let mut out = CommOutcome::none();

        // Scalar dependences first (cheap, and often decisive).
        for a1 in &i1.scalars {
            for a2 in &i2.scalars {
                if a1.scalar != a2.scalar || (!a1.is_write && !a2.is_write) {
                    continue;
                }
                // The same operator on both sides: the flushes commute,
                // in whatever order the processors get to them.
                let op = self.atomic_reduction(s1, &i1.part, a1.scalar);
                if op.is_some() && op == self.atomic_reduction(s2, &i2.part, a1.scalar) {
                    let skipped = AccessPair {
                        src: s1.node,
                        dst: s2.node,
                        storage: Storage::Scalar(a1.scalar),
                        dep: DepKind::Output,
                    };
                    out.commuting = union(std::mem::take(&mut out.commuting), vec![skipped]);
                    continue;
                }
                out = out.join(self.scalar_pair((s1, &i1.part, *a1), (s2, &i2.part, *a2), at));
                if out.comm == Comm::General {
                    return out;
                }
            }
        }

        for (k1, a1) in i1.arrays.iter().enumerate() {
            for (k2, a2) in i2.arrays.iter().enumerate() {
                if a1.array != a2.array || (!a1.is_write && !a2.is_write) {
                    continue;
                }
                let ends = ((s1, &*i1, k1), (s2, &*i2, k2));
                out = out.join(self.array_pair(ends, at));
                if out.comm == Comm::General {
                    return out;
                }
            }
        }
        out
    }

    /// The operator with which statement `s` accumulates into the
    /// shared scalar `x` through per-processor partials that are
    /// flushed atomically: a reduction in a distributed loop whose
    /// right-hand side does not read `x`. A master or replicated
    /// reduction is a plain read-modify-write and has none.
    fn atomic_reduction(&self, s: &StmtPath, part: &StmtPartition, x: ScalarId) -> Option<RedOp> {
        let a = self.prog.node(s.node).as_assign()?;
        let op = a.reduction?;
        let atomic = a.lhs == LhsRef::Scalar(x)
            && !self.prog.scalar(x).privatizable
            && !a.rhs.scalar_reads().contains(&x)
            && matches!(part, StmtPartition::Distributed(..));
        atomic.then_some(op)
    }

    fn scalar_pair(
        &self,
        (s1, p1, a1): (&StmtPath, &StmtPartition, ScalarAccess),
        (s2, p2, a2): (&StmtPath, &StmtPartition, ScalarAccess),
        at: (CommMode, &Entry),
    ) -> CommOutcome {
        if self.prog.scalar(a1.scalar).privatizable {
            return CommOutcome::none();
        }
        let pair = Some(AccessPair {
            src: s1.node,
            dst: s2.node,
            storage: Storage::Scalar(a1.scalar),
            dep: DepKind::of(a1.is_write, a2.is_write),
        });
        use StmtPartition::*;
        match (p1, a1.is_write, p2, a2.is_write) {
            // Producer and consumer both on the master: purely local.
            (Master, _, Master, _) => CommOutcome::none(),
            // A replicated producer leaves a valid copy everywhere.
            (Replicated, true, _, false) => CommOutcome::none(),
            (Replicated, true, Replicated, true) => CommOutcome::none(),
            // Master produces, distributed/replicated statements consume:
            // one producer — a counter satisfies the dependence.
            (Master, true, _, _) => CommOutcome {
                pair,
                ..CommOutcome::waits(WaitSet::producer(ProducerSpec::Master))
            },
            // Everything else (distributed writes to a shared scalar,
            // anti-dependences onto replicated writers, …) keeps the
            // barrier, unless one processor alone runs the later
            // statement and can collect everyone's post.
            _ => {
                let site = self.site_loops(s1, s2, at);
                let out = match self.sink_collector(p2, &site, at.0) {
                    Some(spec) => CommOutcome::waits(WaitSet::collector(spec)),
                    None => CommOutcome {
                        failed: Some(RULE_SCALAR),
                        ..CommOutcome::general()
                    },
                };
                CommOutcome { pair, ..out }
            }
        }
    }

    fn array_pair(
        &self,
        ((s1, i1, k1), (s2, i2, k2)): (
            (&StmtPath, &StmtInfo, usize),
            (&StmtPath, &StmtInfo, usize),
        ),
        at: (CommMode, &Entry),
    ) -> CommOutcome {
        let (mode, entry) = at;
        let (a1, a2) = (&i1.arrays[k1], &i2.arrays[k2]);
        // Privatizable work arrays live in per-processor copies: no
        // access to them ever moves data between processors.
        if self.prog.array(a1.array).privatizable {
            return CommOutcome::none();
        }
        let (part1, part2) = (&i1.part, &i2.part);
        // Every communicating outcome names the pair it came from; a
        // general one also the last rule that failed.
        let found = |out: CommOutcome| CommOutcome {
            pair: Some(AccessPair {
                src: s1.node,
                dst: s2.node,
                storage: Storage::Array(a1.array),
                dep: DepKind::of(a1.is_write, a2.is_write),
            }),
            ..out
        };
        let general = |rule| {
            found(CommOutcome {
                failed: Some(rule),
                ..CommOutcome::general()
            })
        };

        // Replicated producers satisfy true dependences locally.
        if a1.is_write && *part1 == StmtPartition::Replicated {
            if !a2.is_write {
                return CommOutcome::none();
            }
            if *part2 == StmtPartition::Replicated {
                return CommOutcome::none();
            }
            return general(RULE_REPLICATED);
        }
        if !a1.is_write && a2.is_write && *part2 == StmtPartition::Replicated {
            return general(RULE_REPLICATED);
        }

        let system = || {
            let (parts, scratch) = (((s1, part1), (s2, part2)), self.scratch.clone());
            let mut ps =
                build_partitioned(self.prog, &self.bind, parts, mode.shared_mode(), scratch);
            ps.set_cache(self.fme.clone());
            ps.add_elem_equality(&self.bind, &a1.subs, &a2.subs);
            for &node in &entry.first_trip {
                ps.hold_at_first_trip(&self.bind, self.prog.expect_loop(node));
            }
            ps
        };
        // What the scans say does not depend on where the query is
        // stated, nor on which array or direction of access the
        // subscripts belong to: asked again, the pair costs none.
        let key = (
            s1.node,
            s2.node,
            mode,
            entry.first_trip.clone(),
            i1.class[k1],
            i2.class[k2],
        );
        let known = self
            .facts
            .borrow()
            .get(&key)
            .map(|f| (f.crossing.clone(), f.spectrum));
        let counter = if known.is_some() {
            &self.pair_hits
        } else {
            &self.pair_misses
        };
        counter.set(counter.get() + 1);
        let mut ps = None;
        let (crossing, spectrum) = known.unwrap_or_else(|| {
            let facts = self.scan_pair(ps.insert(system()), (part1, part2));
            let crossing = facts.crossing.clone();
            self.facts.borrow_mut().insert(key.clone(), facts);
            (crossing, None)
        });
        let (fwd, bwd) = match crossing {
            Ok(directions) => directions,
            Err(decided) if decided.comm == Comm::NoComm => return decided,
            Err(decided) => return found(decided),
        };

        // 3. Unique producer? Named from the writer's side first, then —
        //    for a true dependence — from the reader's.
        let site = self.site_loops(s1, s2, at);
        let producer = self
            .one_executor(part1, &site, Anchor::Source)
            .or_else(|| self.sink_anchored_producer(a1, part1, a2, &site, mode));
        if let Some(spec) = producer {
            return found(CommOutcome::waits(WaitSet::producer(spec)));
        }

        // 4. Distance vectors: is every feasible processor distance one
        //    of a small fixed set? A direct wait on `q - d` at the sync
        //    point covers a dependence at distance `d` for *any* carried
        //    iteration gap >= 1 (the producer's post at the bottom of its
        //    iteration happens after that iteration's work, and the
        //    consumer passes that bottom sync before any later
        //    iteration), so — unlike the chained neighbor test of step
        //    2 — no reach argument is needed: the distance spectrum
        //    alone decides.
        let spectrum = spectrum.unwrap_or_else(|| {
            let ps = ps.get_or_insert_with(system);
            let spectrum = self.distance_spectrum(ps, fwd, bwd);
            #[cfg(test)]
            assert_eq!(spectrum, tests::enumerated_spectrum(self, ps, fwd, bwd));
            if let Some(facts) = self.facts.borrow_mut().get_mut(&key) {
                facts.spectrum = Some(spectrum);
            }
            spectrum
        });
        if let Some(dists) = spectrum {
            return found(CommOutcome::waits(WaitSet::at_distances(dists)));
        }

        // 5. Unique consumer? The mirror image of step 3, tried last so
        //    that it only ever replaces a barrier: named from the later
        //    statement's side first, then — for an anti dependence —
        //    from the reader's.
        let collector = self
            .sink_collector(part2, &site, mode)
            .or_else(|| self.source_anchored_collector(a1, a2, part2, &site));
        match collector {
            Some(spec) => found(CommOutcome::waits(WaitSet::collector(spec))),
            None => general(RULE_SPECTRUM),
        }
    }

    /// Steps 0 to 2 of the access-pair analysis — every question a
    /// Fourier-Motzkin scan answers before a producer or collector is
    /// looked for: is the pair local, within neighbor reach, pinned by
    /// symbolic extents (`Err`: decided, the outcome naming no pair yet),
    /// or does it cross processors, and in which directions (`Ok`)?
    fn scan_pair(
        &self,
        ps: &mut PairSystem,
        (part1, part2): (&StmtPartition, &StmtPartition),
    ) -> PairFacts {
        let decided = |out| PairFacts {
            crossing: Err(out),
            spectrum: None,
        };
        // 0a. Symbolic block distributions (extents unbound): classify by
        //     the owner-input difference. Equal extents mean equal owner
        //     functions with some block size b >= 1; then
        //     |owner(x) - owner(y)| <= |x - y| for any b, so a difference
        //     forced to 0 is local and a difference within the carried
        //     reach is neighbor-safe — all provable without knowing n.
        if let (
            StmtPartition::Distributed(
                _,
                LoopPartition::SymbolicBlockOwner {
                    extent: e1,
                    sub: sb1,
                    ..
                },
            ),
            StmtPartition::Distributed(
                _,
                LoopPartition::SymbolicBlockOwner {
                    extent: e2,
                    sub: sb2,
                    ..
                },
            ),
        ) = (part1, part2)
        {
            if e1 == e2 {
                let d1 = ps.tr(&self.bind, sb1, Side::Producer);
                let d2 = ps.tr(&self.bind, sb2, Side::Consumer);
                let beyond_reach = CommOutcome {
                    failed: Some(RULE_SYMBOLIC),
                    ..CommOutcome::general()
                };
                let crossing = neighbor_reach(ps, &d1, &d2).crossing;
                return decided(crossing.err().unwrap_or(beyond_reach));
            }
            // Different extents: owner functions differ; fall through to
            // the (conservative) processor tests.
        }

        // 0. Identical owner functions with provably equal owner inputs
        //    force p == q. Fourier-Motzkin over the rationals cannot see
        //    that the (block-)cyclic mod decomposition is unique, so this
        //    structural step supplies the paper's "identity of the
        //    producer and consumer processors" for those distributions.
        if owner_inputs_equal(ps, &self.bind, (part1, part2)) {
            return decided(CommOutcome::none());
        }

        // 1–2. Any cross-processor pair at all, and within neighbor-sync
        //      reach?
        neighbor_reach(ps, &LinExpr::var(ps.p), &LinExpr::var(ps.q))
    }

    /// The exact feasible processor-distance spectrum of a dependent
    /// access pair, or `None` when it cannot be pinned, is wider than
    /// [`MAX_PAIR_FANIN`], or reaches outside [`MAX_PAIR_DIST`].
    ///
    /// Closed form, then confirmation. Substituting `q := p + d` and
    /// projecting the pair system onto `d` once gives an integer window
    /// `[lo, hi]` that contains every feasible distance *by
    /// construction* (FME only over-approximates); the equalities left
    /// after unit propagation add the congruences the rational window
    /// cannot see (a cyclic `x = P·k + p` pins `d` modulo `P`). Only
    /// distances in the window, the congruence classes and a direction
    /// step 1 found feasible are then probed with `q - p == d`: the
    /// probes discard holes gcd tightening finds inside the window, so
    /// the result is what probing every distance would return, at a
    /// cost independent of the machine width. Distances past
    /// `MAX_PAIR_DIST` are not representable, so when the window
    /// reaches there one tail probe per direction decides whether any
    /// may hold; if so the barrier is kept. A projection that overflows,
    /// exhausts its budget or is empty proves nothing: barrier kept.
    /// Likewise a direction step 1 found feasible (possibly via an
    /// `Unknown` verdict) in which no distance is confirmed cannot be
    /// pinned to a spectrum, so the other direction's distances alone
    /// are never returned.
    fn distance_spectrum(&self, ps: &PairSystem, fwd: bool, bwd: bool) -> Option<DistSet> {
        let (p, q) = (ps.p, ps.q);
        let mut vt = ps.vt.clone();
        let d = vt.fresh("d", VarKind::Processor);
        let mut sys = ps.sys.clone();
        sys.try_substitute(q, &(LinExpr::var(p) + LinExpr::var(d)))
            .ok()?;
        let mut rows = Rows::new(&sys, &vt);
        rows.reduce(&[d]).ok()?;
        let in_class = rows.to_system().congruence_filter(d);
        if !rows.project(&[d]).0 || rows.is_contradictory() {
            return None;
        }
        let (lo, hi) = ineq::scan::bounds_of(&rows.to_system(), d).range(&|_| 0)?;

        let max = MAX_PAIR_DIST as i128;
        let tail = |hi: ineq::VarId, lo: ineq::VarId| {
            ps.feasible_with(|s| {
                s.add_ge(LinExpr::var(hi) - LinExpr::var(lo) - LinExpr::constant(max + 1))
            })
        };
        if (fwd && hi > max && tail(q, p)) || (bwd && lo < -max && tail(p, q)) {
            return None;
        }
        let mut dists = DistSet::empty();
        for dist in lo.max(-max)..=hi.min(max) {
            let wanted = if dist > 0 { fwd } else { bwd && dist < 0 };
            if !wanted || !in_class(dist) {
                continue;
            }
            let hit = ps.feasible_with(|s| {
                // q - p == dist, as two inequalities.
                s.add_ge(LinExpr::var(q) - LinExpr::var(p) - LinExpr::constant(dist));
                s.add_ge(LinExpr::constant(dist) - LinExpr::var(q) + LinExpr::var(p));
            });
            if hit {
                dists.insert(dist as i64);
                if dists.len() > MAX_PAIR_FANIN {
                    return None;
                }
            }
        }
        if (fwd && dists.fwd == 0) || (bwd && dists.bwd == 0) {
            return None;
        }
        Some(dists)
    }

    /// The sequential loops whose indices are fixed at the sync site a
    /// `(s1, s2, mode)` query decides, outermost first: the loops around
    /// both statements for a loop-independent slot, the carried loop and
    /// everything around it for that loop's bottom. A loop nested inside
    /// the site's own scope — around only one of the statements, or
    /// inside the carried loop — runs through all its iterations between
    /// two visits of the site, so no producer may be named after it;
    /// unless the query is stated further in, at `entry`: then its
    /// `per_trip` loops are fixed as well and its `first_trip` loops
    /// stand for their lower bounds.
    fn site_loops(&self, s1: &StmtPath, s2: &StmtPath, at: (CommMode, &Entry)) -> Site {
        let (mode, entry) = at;
        let shared = s1.loops.iter().zip(&s2.loops).take_while(|(a, b)| a == b);
        let mut fixed = Vec::new();
        for (&node, _) in shared {
            let l = self.prog.expect_loop(node);
            if l.kind == LoopKind::Par {
                break;
            }
            fixed.push(l.id);
            if matches!(mode, CommMode::CarriedBy(at) | CommMode::CarriedExactlyOne(at) if at == node)
            {
                break;
            }
        }
        let entered = |node: &NodeId| self.prog.expect_loop(*node);
        fixed.extend(entry.per_trip.iter().map(|n| entered(n).id));
        let first = entry.first_trip.iter().map(entered);
        Site {
            fixed,
            first: first.map(|l| (l.id, l.lo.clone())).collect(),
        }
    }

    /// The one processor that executes a statement per sync instance:
    /// the master for serial statements, or the owner of a subscript
    /// that only the loops around the sync site vary. `anchor` says
    /// which side of the dependence the statement is on.
    fn one_executor(
        &self,
        part: &StmtPartition,
        site: &Site,
        anchor: Anchor,
    ) -> Option<ProducerSpec> {
        match part {
            StmtPartition::Master => Some(ProducerSpec::Master),
            StmtPartition::Replicated => None,
            StmtPartition::Distributed(_, lp) => {
                let (_, map, sub) = lp.owner_computes()?;
                let sub = site.fix(sub)?;
                Some(ProducerSpec::Owner { map, sub, anchor })
            }
        }
    }

    /// `sub` as the iteration after the one a loop-bottom sync ends
    /// sees it (unchanged for a loop-independent slot).
    fn at_next_iteration(&self, sub: &Affine, mode: CommMode) -> Affine {
        match mode {
            CommMode::LoopIndependent => sub.clone(),
            CommMode::CarriedBy(at) | CommMode::CarriedExactlyOne(at) => {
                let k = self.prog.expect_loop(at).id;
                sub.substituted(k, &(Affine::index(k) + 1))
            }
        }
    }

    /// The mirror image of the statement-anchored producer: the *later*
    /// statement runs on one processor per sync instance, so every
    /// cross-processor dependence into it — true, anti or output, on
    /// arrays or shared scalars — is ordered once that processor has
    /// seen everyone's post. At a loop bottom the later statement
    /// belongs to the next iteration, so the collector named after
    /// iteration `k` is whoever runs it in `k + 1`: it passes the
    /// bottom of `k` only after all posts there, each of which follows
    /// its processor's work of every iteration up to `k`, so any carried
    /// distance is covered. Past the last iteration the subscript may
    /// leave the array; [`OwnerMap::owner`] still names a live
    /// processor, which waits for nothing it needs.
    fn sink_collector(
        &self,
        part2: &StmtPartition,
        site: &Site,
        mode: CommMode,
    ) -> Option<ProducerSpec> {
        let mut spec = self.one_executor(part2, site, Anchor::Sink)?;
        if let ProducerSpec::Owner { sub, .. } = &mut spec {
            *sub = self.at_next_iteration(sub, mode);
        }
        Some(spec)
    }

    /// The mirror image of [`sink_anchored_producer`] for an anti
    /// dependence whose readers are every processor: when the writing
    /// statement is owner-computes on the written array itself, whoever
    /// overwrites an element owns it, so the writer of everything that
    /// was read across processors is the owner of the *read* subscript
    /// — one processor per sync instance when only the loops around the
    /// site vary it. At a loop bottom the reads belong to the iteration
    /// that just ended, so the subscript is taken as is: that owner
    /// waits at the bottom of iteration `k` for all posts, every post
    /// follows its processor's reads of iterations up to `k` in program
    /// order, and all the owner's writes of later iterations follow the
    /// wait — any carried distance is covered.
    ///
    /// [`sink_anchored_producer`]: Self::sink_anchored_producer
    fn source_anchored_collector(
        &self,
        a1: &ArrayAccess,
        a2: &ArrayAccess,
        part2: &StmtPartition,
        site: &Site,
    ) -> Option<ProducerSpec> {
        let StmtPartition::Distributed(_, lp) = part2 else {
            return None;
        };
        if a1.is_write || !a2.is_write {
            return None;
        }
        let (array, map, owner_sub) = lp.owner_computes()?;
        let (dim, _) = self.prog.array(a2.array).dist.distributed_dim()?;
        if array != a2.array || *owner_sub != a2.subs[dim] {
            return None;
        }
        Some(ProducerSpec::Owner {
            map,
            sub: site.fix(&a1.subs[dim])?,
            anchor: Anchor::Source,
        })
    }

    /// The dual of the statement-anchored producer
    /// ([`one_executor`](Self::one_executor)) for a true dependence
    /// whose writers are every owner: when the writing
    /// statement is owner-computes on the written array itself, whoever
    /// wrote an element owns it, so the writer of everything the sink
    /// reads is the owner of the *read* subscript — one processor per
    /// sync instance when only the loops around the site vary it. At a
    /// loop bottom the sink belongs to a later iteration: the producer
    /// named after iteration `k` is the owner of what iteration `k + 1`
    /// reads. Its post follows all its earlier writes in program order
    /// and every processor passes every bottom, so any carried distance
    /// is covered; past the last iteration the subscript may leave the
    /// array, where [`OwnerMap::owner`] still names a live processor and
    /// nothing is read.
    fn sink_anchored_producer(
        &self,
        a1: &ArrayAccess,
        part1: &StmtPartition,
        a2: &ArrayAccess,
        site: &Site,
        mode: CommMode,
    ) -> Option<ProducerSpec> {
        let StmtPartition::Distributed(_, lp) = part1 else {
            return None;
        };
        if !a1.is_write || a2.is_write {
            return None;
        }
        let (array, map, owner_sub) = lp.owner_computes()?;
        let (dim, _) = self.prog.array(a1.array).dist.distributed_dim()?;
        if array != a1.array || *owner_sub != a1.subs[dim] {
            return None;
        }
        Some(ProducerSpec::Owner {
            map,
            sub: self.at_next_iteration(&site.fix(&a2.subs[dim])?, mode),
            anchor: Anchor::Sink,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::build_pair_system;
    use ir::build::*;
    use proptest::prelude::*;

    /// The producer of a counter-shaped outcome.
    fn one_producer(o: &CommOutcome) -> Option<&ProducerSpec> {
        let waits = o.wait_set()?;
        (waits.class() == CommPattern::Producer1).then(|| &waits.producers[0])
    }

    thread_local! {
        /// Calls of [`enumerated_spectrum`] on this test's thread, i.e.
        /// array pairs of its direct statement queries that reached step 4.
        static ENUMERATED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// The reference `distance_spectrum` is checked against at every
    /// step-4 array pair of every test in this crate: one `q - p == d`
    /// probe per distance in `±1..=±min(MAX_PAIR_DIST, nprocs - 1)` plus
    /// a tail probe per direction on machines wider than that window.
    pub(super) fn enumerated_spectrum(
        cq: &CommQuery,
        ps: &PairSystem,
        fwd: bool,
        bwd: bool,
    ) -> Option<DistSet> {
        ENUMERATED.set(ENUMERATED.get() + 1);
        let reach = (cq.bind.nprocs - 1).min(MAX_PAIR_DIST);
        if reach < 1 {
            return None;
        }
        let (p, q) = (ps.p, ps.q);
        if cq.bind.nprocs - 1 > MAX_PAIR_DIST {
            let tail = |hi: ineq::VarId, lo: ineq::VarId| {
                ps.feasible_with(|s| {
                    s.add_ge(
                        LinExpr::var(hi)
                            - LinExpr::var(lo)
                            - LinExpr::constant(MAX_PAIR_DIST as i128 + 1),
                    )
                })
            };
            if (fwd && tail(q, p)) || (bwd && tail(p, q)) {
                return None;
            }
        }
        let mut dists = DistSet::empty();
        let mut candidates: Vec<i64> = Vec::new();
        if fwd {
            candidates.extend(1..=reach);
        }
        if bwd {
            candidates.extend((1..=reach).map(|d| -d));
        }
        for d in candidates {
            let hit = ps.feasible_with(|s| {
                s.add_ge(LinExpr::var(q) - LinExpr::var(p) - LinExpr::constant(d as i128));
                s.add_ge(LinExpr::constant(d as i128) - LinExpr::var(q) + LinExpr::var(p));
            });
            if hit && (!dists.insert(d) || dists.len() > MAX_PAIR_FANIN) {
                return None;
            }
        }
        if (fwd && dists.fwd == 0) || (bwd && dists.bwd == 0) {
            return None;
        }
        Some(dists)
    }

    /// Machine widths the differential runs at: both sides of
    /// `MAX_PAIR_DIST + 1`, odd widths, and the smallest.
    const WIDTHS: [i64; 10] = [2, 3, 5, 8, 16, 33, 64, 65, 72, 128];

    /// Every statement pair at every query level (loop-independent, and
    /// carried by each shared sequential loop); `array_pair` asserts the
    /// closed-form spectrum against the enumeration wherever step 4 is
    /// reached.
    fn query_all_pairs(prog: &Program, values: &[(ir::SymId, i64)]) {
        let st = prog.all_statements();
        for nprocs in WIDTHS {
            let mut bind = Bindings::new(nprocs);
            for &(s, v) in values {
                bind.bind(s, v);
            }
            let q = CommQuery::new(prog, bind);
            for (k1, s1) in st.iter().enumerate() {
                for (k2, s2) in st.iter().enumerate() {
                    if k1 < k2 {
                        q.comm_stmts_detailed(s1, s2, CommMode::LoopIndependent);
                    }
                    let shared = s1.loops.iter().zip(&s2.loops).take_while(|(a, b)| a == b);
                    for (&at, _) in shared {
                        if prog.expect_loop(at).kind == ir::LoopKind::Seq {
                            q.comm_stmts_detailed(s1, s2, CommMode::CarriedBy(at));
                        }
                    }
                }
            }
        }
    }

    /// The loop-independent pair system of a program's first two
    /// statements with `subs1 == subs2` as the element equality.
    fn first_pair_system(q: &CommQuery, subs1: &[Affine], subs2: &[Affine]) -> PairSystem {
        let st = q.prog.all_statements();
        let mode = CommMode::LoopIndependent.shared_mode();
        let mut ps = build_pair_system(q.prog, &q.bind, &st[0], &st[1], mode);
        ps.add_elem_equality(&q.bind, subs1, subs2);
        ps
    }

    /// Cyclic owners `x = P·k + p` pin `d = q - p` modulo `P`, which
    /// the rational window `[-63, 63]` cannot see: the congruence leaves
    /// two candidates per stencil arm, so a 64-wide machine costs two
    /// confirmation probes instead of 126.
    #[test]
    fn cyclic_stride_two_stencil_needs_two_probes_at_p64() {
        for (shift, want) in [(2, [-2, 62]), (-2, [2, -62])] {
            let mut pb = ProgramBuilder::new("cyc2");
            let n = pb.sym("n");
            let a = pb.array("A", &[sym(n)], dist_cyclic());
            let b = pb.array("B", &[sym(n)], dist_cyclic());
            let i = pb.begin_par("i", con(0), sym(n) - 1);
            pb.assign(elem(a, [idx(i)]), ival(idx(i)));
            pb.end();
            let j = pb.begin_par("j", con(2), sym(n) - 3);
            pb.assign(elem(b, [idx(j)]), arr(a, [idx(j) + shift]));
            pb.end();
            let prog = pb.finish();
            let q = CommQuery::new(&prog, Bindings::new(64).set(n, 256));
            let st = prog.all_statements();
            let mut dists = DistSet::empty();
            for d in want {
                dists.insert(d);
            }
            assert_eq!(
                q.comm_stmts(&st[0], &st[1], CommMode::LoopIndependent),
                CommPattern::PairWise { dists }
            );
            // Count the probes of the spectrum alone (the statement
            // query above also ran the enumeration it is checked against).
            let mut ps = first_pair_system(&q, &[idx(i)], &[idx(j) + shift]);
            let cache = Arc::new(FmeCache::new());
            ps.set_cache(Some(cache.clone()));
            assert_eq!(q.distance_spectrum(&ps, true, true), Some(dists));
            let stats = cache.stats();
            assert!(stats.feas_hits + stats.feas_misses <= 4, "{stats:?}");
        }
    }

    /// Near-`i64::MAX` sizes and guard coefficients overflow the
    /// projection's exact arithmetic: it proves nothing, so the barrier
    /// stays (and nothing panics).
    #[test]
    fn overflowing_projection_keeps_barrier() {
        // Coprime multipliers near 2^61: eliminating `m`, then `k`,
        // multiplies three of them (and the 2^58 block size) together.
        let big = |w: i64| (1i64 << 61) + 2 * w + 1;
        let mut pb = ProgramBuilder::new("hugeguards");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let b = pb.array("B", &[sym(n)], dist_block());
        let i = pb.begin_par("i", con(0), sym(n) - 1);
        pb.assign(elem(a, [idx(i)]), ival(idx(i)));
        pb.end();
        let j = pb.begin_par("j", con(0), sym(n) - 1);
        let k = pb.begin_seq("k", con(0), sym(n) - 1);
        let m = pb.begin_seq("m", con(0), sym(n) - 1);
        pb.begin_guard(vec![
            ge0(idx(j) * big(0) - idx(k) * big(1)),
            ge0(idx(k) * (big(1) + 2) - idx(j) * (big(0) + 2) + 1),
            ge0(idx(k) * big(2) - idx(m) * big(3)),
            ge0(idx(m) * (big(3) + 2) - idx(k) * (big(2) + 2) + 1),
        ]);
        pb.assign(elem(b, [idx(j)]), arr(a, [idx(m)]));
        pb.end();
        pb.end();
        pb.end();
        pb.end();
        let prog = pb.finish();
        let q = CommQuery::new(&prog, Bindings::new(8).set(n, i64::MAX / 4));
        let st = prog.all_statements();
        let ps = first_pair_system(&q, &[idx(i)], &[idx(m)]);
        assert!(ps.sys.project_onto(&ps.vt, &[ps.p, ps.q]).is_none());
        assert_eq!(q.distance_spectrum(&ps, true, true), None);
        assert_eq!(
            q.comm_stmts(&st[0], &st[1], CommMode::LoopIndependent),
            CommPattern::General
        );
    }

    #[test]
    fn spectrum_matches_enumeration_on_suite_kernels() {
        for def in suite::all() {
            for scale in [suite::Scale::Test, suite::Scale::Small] {
                let built = (def.build)(scale);
                query_all_pairs(&built.prog, &built.values);
            }
        }
        // 634 when written; a floor, so the check cannot pass vacuously.
        assert!(
            ENUMERATED.get() >= 500,
            "step 4 reached {}x",
            ENUMERATED.get()
        );
    }

    #[test]
    fn spectrum_matches_enumeration_on_be_sources() {
        for src in [
            include_str!("../../../kernels/broadcast.be"),
            include_str!("../../../kernels/jacobi.be"),
            include_str!("../../../kernels/pipeline.be"),
            include_str!("../../../kernels/private_gather.be"),
            include_str!("../../../kernels/shallow.be"),
        ] {
            let prog = frontend::parse(src).expect("kernels/*.be parse");
            let values: Vec<(ir::SymId, i64)> = (0..prog.syms.len())
                .map(|k| {
                    (
                        ir::SymId(k as u32),
                        if prog.syms[k].name == "tmax" { 4 } else { 32 },
                    )
                })
                .collect();
            query_all_pairs(&prog, &values);
        }
    }

    #[test]
    fn spectrum_matches_enumeration_on_generated_programs() {
        for seed in 0..64 {
            let g = oracle::generate(seed);
            query_all_pairs(&g.prog, &g.values);
        }
        // 921 when written.
        assert!(
            ENUMERATED.get() >= 500,
            "step 4 reached {}x",
            ENUMERATED.get()
        );
    }

    /// Two sweeps over equally sized arrays distributed by `dist`: an
    /// aligned copy, a shifted read, a strided pair and a transpose.
    fn owner_input_shapes(dist: fn() -> DistSpec) -> (Program, Vec<(ir::SymId, i64)>) {
        let mut pb = ProgramBuilder::new("owner_inputs");
        let n = pb.sym("n");
        let [a, b, c, d] = ["A", "B", "C", "D"].map(|name| pb.array(name, &[sym(n)], dist()));
        let [e, f] = ["E", "F"].map(|name| pb.array(name, &[sym(n), sym(n)], dist()));
        let i = pb.begin_par("i", con(0), sym(n) - 1);
        pb.assign(elem(b, [idx(i)]), arr(a, [idx(i)]));
        pb.end();
        let j = pb.begin_par("j", con(1), sym(n) - 2);
        pb.assign(elem(c, [idx(j)]), arr(b, [idx(j)]) + arr(b, [idx(j) + 1]));
        pb.end();
        let k = pb.begin_par("k", con(0), con(11));
        pb.assign(elem(d, [idx(k) * 2]), arr(c, [idx(k) * 2]));
        pb.end();
        let l = pb.begin_par("l", con(0), con(11));
        pb.assign(elem(a, [idx(l) * 2]), arr(d, [idx(l) * 2]));
        pb.end();
        let r = pb.begin_par("r", con(0), sym(n) - 1);
        let s = pb.begin_seq("s", con(0), sym(n) - 1);
        pb.assign(elem(e, [idx(r), idx(s)]), arr(a, [idx(r)]));
        pb.end();
        pb.end();
        let u = pb.begin_par("u", con(0), sym(n) - 1);
        let v = pb.begin_seq("v", con(0), sym(n) - 1);
        pb.assign(elem(f, [idx(u), idx(v)]), arr(e, [idx(v), idx(u)]));
        pb.end();
        pb.end();
        (pb.finish(), vec![(n, 24)])
    }

    /// Step 0 (`owner_inputs_equal`) against what it was, two probes of
    /// the owner inputs, over hand-written aligned, shifted, strided and
    /// transposed pairs, the suite kernels and generated programs, at
    /// every width and shared-loop mode. Under (block-)cyclic owners it
    /// decides exactly the pairs the probes did. Under block owners it
    /// decides only pairs the probes did, and wherever the probes proved
    /// a pair local that it leaves alone, step 1 proves it local too.
    #[test]
    fn step_zero_decides_what_its_probes_did_or_step_one_does() {
        // Is `x == y` forced, i.e. neither `y - x >= 1` nor `x - y >= 1`
        // feasible?
        let equal = |ps: &PairSystem, x: &LinExpr, y: &LinExpr| {
            let beyond = |hi: &LinExpr, lo: &LinExpr| {
                ps.feasible_with(|s| s.add_ge(hi.clone() - lo.clone() - LinExpr::constant(1)))
            };
            !beyond(y, x) && !beyond(x, y)
        };
        // Per map kind (block, other): pairs the probes proved local, and
        // of those, the ones step 0 decides.
        let check = |prog: &Program, values: &[(ir::SymId, i64)]| {
            let mut local = [(0, 0); 2];
            let st = prog.all_statements();
            for nprocs in WIDTHS {
                let mut bind = Bindings::new(nprocs);
                for &(s, v) in values {
                    bind.bind(s, v);
                }
                for s1 in &st {
                    for s2 in &st {
                        let (part1, part2) = (
                            stmt_partition(prog, &bind, s1),
                            stmt_partition(prog, &bind, s2),
                        );
                        let (
                            StmtPartition::Distributed(_, lp1),
                            StmtPartition::Distributed(_, lp2),
                        ) = (&part1, &part2)
                        else {
                            continue;
                        };
                        let (Some((_, f1, sub1)), Some((_, f2, sub2))) =
                            (lp1.owner_computes(), lp2.owner_computes())
                        else {
                            continue;
                        };
                        if f1 != f2 {
                            continue;
                        }
                        let block = matches!(f1, OwnerMap::Block(_));
                        let shared = s1.loops.iter().zip(&s2.loops).take_while(|(a, b)| a == b);
                        let carried = shared
                            .filter(|(&at, _)| prog.expect_loop(at).kind == ir::LoopKind::Seq)
                            .map(|(&at, _)| SharedLoopMode::CarriedBy(at));
                        let modes: Vec<_> = std::iter::once(SharedLoopMode::SameIteration)
                            .chain(carried)
                            .collect();
                        let (acc1, _) = stmt_accesses(prog, s1.node);
                        let (acc2, _) = stmt_accesses(prog, s2.node);
                        for a1 in &acc1 {
                            for a2 in acc2.iter().filter(|a2| a2.array == a1.array) {
                                for &mode in &modes {
                                    let mut ps = build_pair_system(prog, &bind, s1, s2, mode);
                                    ps.add_elem_equality(&bind, &a1.subs, &a2.subs);
                                    let d1 = ps.tr(&bind, sub1, Side::Producer);
                                    let d2 = ps.tr(&bind, sub2, Side::Consumer);
                                    let probed = equal(&ps, &d1, &d2);
                                    let decided =
                                        owner_inputs_equal(&mut ps, &bind, (&part1, &part2));
                                    let (p, q) = (LinExpr::var(ps.p), LinExpr::var(ps.q));
                                    let whose =
                                        || format!("{} {s1:?} {s2:?} P = {nprocs}", prog.name);
                                    if block {
                                        assert!(probed || !decided, "{}", whose());
                                        assert!(
                                            decided || !probed || equal(&ps, &p, &q),
                                            "step 1 misses a local block pair: {}",
                                            whose()
                                        );
                                    } else {
                                        assert_eq!(decided, probed, "{}", whose());
                                    }
                                    let tally = &mut local[usize::from(!block)];
                                    tally.0 += usize::from(probed);
                                    tally.1 += usize::from(decided);
                                }
                            }
                        }
                    }
                }
            }
            local
        };
        // When written: 310 local pairs of the hand-written shapes under
        // each map, of which step 0 decides 260 under block owners (the
        // rest reach step 1) and all under the others.
        let [block, cyclic, block_cyclic] =
            [dist_block, dist_cyclic, || dist_block_cyclic(2)].map(|dist| {
                let (prog, values) = owner_input_shapes(dist);
                check(&prog, &values)
            });
        assert!(block[0].0 >= 300 && block[0].1 < block[0].0, "{block:?}");
        assert!(
            cyclic[1].0 >= 300 && block_cyclic[1].0 >= 300,
            "{cyclic:?} {block_cyclic:?}"
        );
        let mut corpus = [(0, 0); 2];
        let mut add = |l: [(usize, usize); 2]| {
            for (t, x) in corpus.iter_mut().zip(l) {
                t.0 += x.0;
                t.1 += x.1;
            }
        };
        for def in suite::all() {
            let built = (def.build)(suite::Scale::Test);
            add(check(&built.prog, &built.values));
        }
        for seed in 0..16 {
            let g = oracle::generate(seed);
            add(check(&g.prog, &g.values));
        }
        // 26 558 local block pairs (17 770 decided by step 0) and 2 380
        // others when written.
        assert!(corpus[0].0 >= 25_000 && corpus[1].0 >= 2_000, "{corpus:?}");
    }

    /// DOALL i: B(i) = A(i);  DOALL j: C(j) = B(j)  → aligned, no comm.
    #[test]
    fn aligned_copy_has_no_comm() {
        let mut pb = ProgramBuilder::new("aligned");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let b = pb.array("B", &[sym(n)], dist_block());
        let c = pb.array("C", &[sym(n)], dist_block());
        let i = pb.begin_par("i", con(0), sym(n) - 1);
        pb.assign(elem(b, [idx(i)]), arr(a, [idx(i)]));
        pb.end();
        let j = pb.begin_par("j", con(0), sym(n) - 1);
        pb.assign(elem(c, [idx(j)]), arr(b, [idx(j)]));
        pb.end();
        let prog = pb.finish();
        let q = CommQuery::new(&prog, Bindings::new(4).set(n, 64));
        let st = prog.all_statements();
        assert_eq!(
            q.comm_stmts(&st[0], &st[1], CommMode::LoopIndependent),
            CommPattern::NoComm
        );
    }

    /// DOALL i: B(i) = A(i);  DOALL j: C(j) = B(j-1) + B(j+1) → neighbor.
    #[test]
    fn stencil_read_is_neighbor() {
        let mut pb = ProgramBuilder::new("stencil");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let b = pb.array("B", &[sym(n)], dist_block());
        let c = pb.array("C", &[sym(n)], dist_block());
        let i = pb.begin_par("i", con(0), sym(n) - 1);
        pb.assign(elem(b, [idx(i)]), arr(a, [idx(i)]));
        pb.end();
        let j = pb.begin_par("j", con(1), sym(n) - 2);
        pb.assign(
            elem(c, [idx(j)]),
            arr(b, [idx(j) - 1]) + arr(b, [idx(j) + 1]),
        );
        pb.end();
        let prog = pb.finish();
        let q = CommQuery::new(&prog, Bindings::new(4).set(n, 64));
        let st = prog.all_statements();
        assert_eq!(
            q.comm_stmts(&st[0], &st[1], CommMode::LoopIndependent),
            CommPattern::Neighbor {
                fwd: true,
                bwd: true
            }
        );
    }

    /// Master produces a scalar consumed by a parallel loop → counter.
    #[test]
    fn master_scalar_is_producer1() {
        let mut pb = ProgramBuilder::new("bc");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let s = pb.scalar("s", 0.0);
        pb.assign(svar(s), ex(3.0));
        let i = pb.begin_par("i", con(0), sym(n) - 1);
        pb.assign(elem(a, [idx(i)]), sca(s));
        pb.end();
        let prog = pb.finish();
        let q = CommQuery::new(&prog, Bindings::new(4).set(n, 64));
        let st = prog.all_statements();
        assert_eq!(
            q.comm_stmts(&st[0], &st[1], CommMode::LoopIndependent),
            CommPattern::Producer1
        );
    }

    /// Shift by exactly two blocks: the distance spectrum is the single
    /// vector {-2}, so the former `General` cliff becomes pairwise sync.
    #[test]
    fn long_range_shift_is_pairwise() {
        let mut pb = ProgramBuilder::new("farshift");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n) * 2], dist_block());
        let b = pb.array("B", &[sym(n) * 2], dist_block());
        let i = pb.begin_par("i", con(0), sym(n) * 2 - 1);
        pb.assign(elem(a, [idx(i)]), ival(idx(i)));
        pb.end();
        let j = pb.begin_par("j", con(0), sym(n) - 1);
        pb.assign(elem(b, [idx(j)]), arr(a, [idx(j) + sym(n)]));
        pb.end();
        let prog = pb.finish();
        let q = CommQuery::new(&prog, Bindings::new(4).set(n, 32));
        let st = prog.all_statements();
        let mut want = DistSet::empty();
        want.insert(-2);
        assert_eq!(
            q.comm_stmts(&st[0], &st[1], CommMode::LoopIndependent),
            CommPattern::PairWise { dists: want }
        );
    }

    /// Array reversal at P=8: eight distinct distances exceed the
    /// pairwise fan-in budget, so the barrier stays.
    #[test]
    fn reversal_is_general() {
        let mut pb = ProgramBuilder::new("reverse");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let b = pb.array("B", &[sym(n)], dist_block());
        let i = pb.begin_par("i", con(0), sym(n) - 1);
        pb.assign(elem(a, [idx(i)]), ival(idx(i)));
        pb.end();
        let j = pb.begin_par("j", con(0), sym(n) - 1);
        pb.assign(elem(b, [idx(j)]), arr(a, [sym(n) - 1 - idx(j)]));
        pb.end();
        let prog = pb.finish();
        let q = CommQuery::new(&prog, Bindings::new(8).set(n, 64));
        let st = prog.all_statements();
        assert_eq!(
            q.comm_stmts(&st[0], &st[1], CommMode::LoopIndependent),
            CommPattern::General
        );
    }

    /// A dependence whose feasible distances straddle `MAX_PAIR_DIST` on
    /// a machine wider than the probe window (P=72, distances {-64,-65}):
    /// the in-window hit alone must not yield a spectrum that silently
    /// drops the unprobed distance 65 — the tail probe keeps the barrier.
    #[test]
    fn distance_straddling_probe_window_keeps_barrier() {
        let mut pb = ProgramBuilder::new("clampshift");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n) * 72], dist_block());
        let b = pb.array("B", &[sym(n) * 72], dist_block());
        let i = pb.begin_par("i", con(0), sym(n) * 72 - 1);
        pb.assign(elem(a, [idx(i)]), ival(idx(i)));
        pb.end();
        let j = pb.begin_par("j", con(0), sym(n) - 1);
        pb.assign(elem(b, [idx(j)]), arr(a, [idx(j) + sym(n) * 64 + con(5)]));
        pb.end();
        let prog = pb.finish();
        // block = n = 8: A[j + 64n + 5] lives on pid 64 for j < 3 and on
        // pid 65 (beyond MAX_PAIR_DIST) for j >= 3, consumer on pid 0.
        let q = CommQuery::new(&prog, Bindings::new(72).set(n, 8));
        let st = prog.all_statements();
        assert_eq!(
            q.comm_stmts(&st[0], &st[1], CommMode::LoopIndependent),
            CommPattern::General
        );
    }

    /// A direction step 1 reported feasible (e.g. via an `Unknown`
    /// overflow verdict) but with zero exact-distance hits must not
    /// return the other direction's spectrum alone: the unpinned
    /// direction's dependence would be left unsynchronized.
    #[test]
    fn unpinned_direction_keeps_barrier() {
        let mut pb = ProgramBuilder::new("unpinned");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n) * 2], dist_block());
        let b = pb.array("B", &[sym(n) * 2], dist_block());
        let i = pb.begin_par("i", con(0), sym(n) * 2 - 1);
        pb.assign(elem(a, [idx(i)]), ival(idx(i)));
        pb.end();
        let j = pb.begin_par("j", con(0), sym(n) - 1);
        pb.assign(elem(b, [idx(j)]), arr(a, [idx(j) + sym(n)]));
        pb.end();
        let prog = pb.finish();
        let q = CommQuery::new(&prog, Bindings::new(4).set(n, 32));
        let st = prog.all_statements();
        let mut ps = build_pair_system(
            &prog,
            &q.bind,
            &st[0],
            &st[1],
            CommMode::LoopIndependent.shared_mode(),
        );
        ps.add_elem_equality(&q.bind, &[idx(i)], &[idx(j) + sym(n)]);
        // Truthful directions: only bwd (producer two blocks ahead).
        let mut want = DistSet::empty();
        want.insert(-2);
        assert_eq!(q.distance_spectrum(&ps, false, true), Some(want));
        // Claim fwd is also feasible, as an upstream Unknown verdict
        // would: every exact fwd probe is infeasible, so the spectrum
        // cannot cover the claimed direction — keep the barrier.
        assert_eq!(q.distance_spectrum(&ps, true, true), None);
    }

    /// A lattice element as the nine-arm `join_comm` this lattice
    /// replaced knew it: a variant per mechanism.
    #[derive(Clone, Debug)]
    enum Old {
        NoComm,
        General,
        Neighbor(bool, bool),
        Producer1(ProducerSpec),
        /// Never neighbor- or counter-shaped, as no sampled site was.
        PairWise(WaitSet),
    }

    impl Old {
        fn outcome(&self) -> CommOutcome {
            match self {
                Old::NoComm => CommOutcome::none(),
                Old::General => CommOutcome::general(),
                Old::Neighbor(fwd, bwd) => {
                    CommOutcome::waits(WaitSet::at_distances(DistSet::neighbor(*fwd, *bwd)))
                }
                Old::Producer1(spec) => CommOutcome::waits(WaitSet::producer(spec.clone())),
                Old::PairWise(waits) => CommOutcome::waits(waits.clone()),
            }
        }
    }

    /// The variant the old `join_comm` returned for two operands, given
    /// their joined wait set: the table its arms spelled out.
    fn old_join(a: &Old, b: &Old, joined: Option<&WaitSet>) -> CommPattern {
        use Old::*;
        let label = |x: &Old| x.outcome().pattern();
        match (a, b) {
            (NoComm, x) | (x, NoComm) => label(x),
            (General, _) | (_, General) => CommPattern::General,
            (Neighbor(f1, b1), Neighbor(f2, b2)) => CommPattern::Neighbor {
                fwd: *f1 || *f2,
                bwd: *b1 || *b2,
            },
            (Producer1(p), Producer1(q)) if p == q => CommPattern::Producer1,
            // Distinct producers, and every combination with a
            // `PairWise` side or of `Producer1` with `Neighbor`: a
            // pairwise sync, unless wider than the budget.
            _ => match joined {
                Some(waits) => CommPattern::PairWise { dists: waits.dists },
                None => CommPattern::General,
            },
        }
    }

    fn same_elements(a: &[ProducerSpec], b: &[ProducerSpec]) -> bool {
        a.len() == b.len() && a.iter().all(|x| b.contains(x))
    }

    /// The laws of the join, on one pair of operands.
    fn check_join_laws(a: &Old, b: &Old) {
        let (oa, ob) = (a.outcome(), b.outcome());
        let ab = oa.clone().join(ob.clone());
        let ba = ob.clone().join(oa.clone());
        // Idempotent; commutative up to the order of the elements.
        assert_eq!(oa.clone().join(oa.clone()).comm, oa.comm);
        match (&ab.comm, &ba.comm) {
            (Comm::Waits(x), Comm::Waits(y)) => {
                assert_eq!(x.dists, y.dists);
                assert!(same_elements(&x.producers, &y.producers));
                assert!(same_elements(&x.collectors, &y.collectors));
            }
            (x, y) => assert_eq!(x, y),
        }
        // An upper bound of both sides.
        assert!(ab.covers(&oa) && ab.covers(&ob));
        // `General` only from a `General` side or past the fan-in budget.
        let both = oa.wait_set().zip(ob.wait_set());
        let wide = both.is_some_and(|(x, y)| x.clone().union(y.clone()).fanin() > MAX_PAIR_FANIN);
        let general_side = oa.comm == Comm::General || ob.comm == Comm::General;
        assert_eq!(ab.comm == Comm::General, general_side || wide);
        assert_eq!(ab.failed == Some(RULE_FANIN), wide);
        // The derived label is the variant the old arm list returned.
        assert_eq!(ab.pattern(), old_join(a, b, ab.wait_set()));
        assert!(ab.wait_set().is_none_or(|w| w.fanin() <= MAX_PAIR_FANIN));
    }

    fn spec_pool(k: u8) -> ProducerSpec {
        let owner = |map, sub, anchor| ProducerSpec::Owner { map, sub, anchor };
        match k % 5 {
            0 => ProducerSpec::Master,
            1 => owner(OwnerMap::Cyclic, Affine::constant(0), Anchor::Source),
            2 => owner(OwnerMap::Cyclic, Affine::constant(0), Anchor::Sink),
            3 => owner(OwnerMap::Cyclic, Affine::constant(3), Anchor::Source),
            _ => owner(
                OwnerMap::Block(4),
                Affine::index(LoopId(0)) + 1,
                Anchor::Sink,
            ),
        }
    }

    fn wait_set_of(dist_bits: u8, producers: &[u8], collectors: &[u8]) -> WaitSet {
        let mut dists = DistSet::empty();
        for (bit, d) in [-3, -2, -1, 1, 2, 3].into_iter().enumerate() {
            if dist_bits & (1 << bit) != 0 {
                dists.insert(d);
            }
        }
        let specs = |ks: &[u8]| union(Vec::new(), ks.iter().map(|&k| spec_pool(k)).collect());
        WaitSet {
            dists,
            producers: specs(producers),
            collectors: specs(collectors),
        }
    }

    fn old_operand() -> impl Strategy<Value = Old> {
        use proptest::collection::vec;
        (0u8..5, 0u8..64, vec(0u8..5, 0..3), vec(0u8..5, 0..2)).prop_map(
            |(tag, bits, producers, collectors)| match tag {
                0 => Old::NoComm,
                1 => Old::General,
                2 => Old::Neighbor(bits & 1 != 0 || bits & 2 == 0, bits & 2 != 0),
                3 => Old::Producer1(spec_pool(bits)),
                _ => {
                    // At most two distances, within the budget like
                    // every element of the lattice.
                    let dist = |k: u8| if k < 6 { 1 << k } else { 0 };
                    let bits = dist(bits % 7) | dist(bits / 7 % 7);
                    let mut waits = wait_set_of(bits, &producers, &collectors);
                    if waits.fanin() > MAX_PAIR_FANIN {
                        waits.collectors.clear();
                    }
                    if !matches!(waits.class(), CommPattern::PairWise { .. }) || waits.fanin() == 0
                    {
                        waits.dists.insert(2);
                    }
                    Old::PairWise(waits)
                }
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn join_laws_hold_and_labels_match_the_old_arm_list(
            a in old_operand(),
            b in old_operand(),
        ) {
            check_join_laws(&a, &b);
        }

        /// `contains` is a preorder, and a union contains both sides.
        #[test]
        fn contains_is_reflexive_and_transitive(
            a in (0u8..64, proptest::collection::vec(0u8..5, 0..3), proptest::collection::vec(0u8..5, 0..3)),
            b in (0u8..64, proptest::collection::vec(0u8..5, 0..3), proptest::collection::vec(0u8..5, 0..3)),
            c in (0u8..64, proptest::collection::vec(0u8..5, 0..3), proptest::collection::vec(0u8..5, 0..3)),
        ) {
            let set = |(bits, p, c): &(u8, Vec<u8>, Vec<u8>)| wait_set_of(*bits, p, c);
            let (a, b, c) = (set(&a), set(&b), set(&c));
            prop_assert!(a.contains(&a));
            if a.contains(&b) && b.contains(&c) {
                prop_assert!(a.contains(&c));
            }
            // Chains that are not left to chance.
            let (ab, abc) = (a.clone().union(b.clone()), a.clone().union(b.clone()).union(c.clone()));
            prop_assert!(abc.contains(&ab) && ab.contains(&a) && abc.contains(&a));
            prop_assert!(ab.contains(&b) && abc.contains(&c));
        }
    }

    /// The cases the join was first written against, through the same
    /// laws: flags joined with a counter, two counters of different
    /// producers, and a collector with each of the others — up to the
    /// fan-in budget and one past it.
    #[test]
    fn counter_flags_and_collector_fuse_into_one_wait_set() {
        let owner = |x: i64, anchor| ProducerSpec::Owner {
            map: OwnerMap::Cyclic,
            sub: ir::Affine::constant(x),
            anchor,
        };
        let collector = |spec| Old::PairWise(WaitSet::collector(spec));
        let operands = [
            Old::NoComm,
            Old::Neighbor(true, false),
            Old::Neighbor(true, true),
            Old::Producer1(ProducerSpec::Master),
            Old::Producer1(owner(3, Anchor::Source)),
            Old::Producer1(owner(0, Anchor::Sink)),
            collector(ProducerSpec::Master),
            collector(owner(0, Anchor::Source)),
        ];
        for a in &operands {
            for b in &operands {
                check_join_laws(a, b);
            }
        }
        let join = |ops: &[&Old]| {
            let outcomes = ops.iter().map(|o| o.outcome());
            outcomes.fold(CommOutcome::none(), CommOutcome::join)
        };
        // Flags and a counter: the producer is one more wait target.
        let fused = join(&[&operands[1], &operands[3]]);
        let waits = fused.wait_set().unwrap();
        assert_eq!(waits.dists, DistSet::neighbor(true, false));
        assert_eq!(waits.producers, vec![ProducerSpec::Master]);
        assert_eq!(waits.fanin(), 2);
        // Two producers: a two-entry set; the same one twice stays one.
        let two = join(&[&operands[3], &operands[4]]);
        assert_eq!(two.wait_set().unwrap().producers.len(), 2);
        assert_eq!(two.pattern().as_str(), "pair-wise");
        let same = join(&[&operands[3], &operands[3]]);
        assert_eq!(same.pattern(), CommPattern::Producer1);
        // A lone collector survives `NoComm` on either side.
        let c = operands[6].outcome();
        assert_eq!(join(&[&operands[0], &operands[6], &operands[0]]), c);
        // Its spec — not the P - 1 cells it reads — counts against the
        // fan-in: flags both ways, a producer and a collector fill it.
        let full = join(&[&operands[2], &operands[5], &operands[7]]);
        let waits = full.wait_set().unwrap();
        assert_eq!(waits.producers, vec![owner(0, Anchor::Sink)]);
        assert_eq!(waits.collectors, vec![owner(0, Anchor::Source)]);
        assert_eq!(waits.fanin(), MAX_PAIR_FANIN);
        // One more distinct spec of any kind is one too many.
        let wider = full.clone().join(operands[6].outcome());
        assert_eq!(wider.comm, Comm::General);
        assert_eq!(wider.failed, Some(RULE_FANIN));
        // The same collector again is not.
        assert_eq!(full.clone().join(operands[7].outcome()).comm, full.comm);
    }

    /// The writes of `DO m { DOALL j: A(m,j) = .. }` each run on
    /// `owner(m)`, but at the slot *after* `DO m` every owner has written
    /// and `m` has no value: neither producer rule may name it, and the
    /// transposed read of all of `A` keeps the barrier.
    #[test]
    fn no_producer_is_named_after_a_loop_inside_the_site() {
        let (prog, n, _) = oracle::gen::nested_broadcast_program(dist_block(), 1.0, 1.0);
        let a = ir::ArrayId(0);
        // Past the two initialisation statements.
        let st = &prog.all_statements()[2..];
        for nprocs in [4, 8] {
            let q = CommQuery::new(&prog, Bindings::new(nprocs).set(n, 16));
            let out = q.comm_stmts_detailed(&st[0], &st[1], CommMode::LoopIndependent);
            assert_eq!(out.pattern(), CommPattern::General, "P={nprocs}");
            let pin = out.pin().expect("a general outcome names its pin");
            assert_eq!(
                pin.pair,
                AccessPair {
                    src: st[0].node,
                    dst: st[1].node,
                    storage: Storage::Array(a),
                    dep: DepKind::True,
                }
            );
            // Inside `DO m` the same writer is one processor per visit.
            let mnode = st[0].loops[1];
            let at = (CommMode::CarriedBy(mnode), &Entry::default());
            let site = q.site_loops(&st[0], &st[0], at);
            let part = stmt_partition(&prog, &q.bind, &st[0]);
            assert!(q.one_executor(&part, &site, Anchor::Source).is_some());
        }
    }

    /// `lu` and `workvec` loop bottoms: every owner writes the trailing
    /// matrix, but iteration `k + 1` reads across processors only pivot
    /// column / row `k + 1`; the other carried pairs do not communicate.
    #[test]
    fn loop_bottom_producer_is_the_owner_of_the_next_pivot() {
        for (name, map_of) in [
            ("lu", (|_| OwnerMap::Cyclic) as fn(i64) -> OwnerMap),
            ("workvec", |p| OwnerMap::Block((12 + p - 1) / p)),
        ] {
            let built = (suite::by_name(name).unwrap().build)(suite::Scale::Test);
            let st = built.prog.all_statements();
            let body: Vec<&StmtPath> = st
                .iter()
                .filter(|s| s.loops[0] == st[st.len() - 1].loops[0])
                .collect();
            let [first, update] = body[..] else {
                panic!("{name}: two statements in the k loop");
            };
            let knode = update.loops[0];
            let k = built.prog.expect_loop(knode).id;
            for nprocs in [3, 8, 16] {
                let mut bind = Bindings::new(nprocs);
                for &(sym, v) in &built.values {
                    bind.bind(sym, v);
                }
                let q = CommQuery::new(&built.prog, bind);
                let mut joined = CommOutcome::none();
                for s1 in [first, update] {
                    for s2 in [first, update] {
                        joined =
                            joined.join(q.comm_stmts_detailed(s1, s2, CommMode::CarriedBy(knode)));
                    }
                }
                assert_eq!(
                    one_producer(&joined),
                    Some(&ProducerSpec::Owner {
                        map: map_of(nprocs),
                        sub: Affine::index(k) + 1,
                        anchor: Anchor::Sink,
                    }),
                    "{name} P={nprocs}"
                );
                assert_eq!(joined.pattern(), CommPattern::Producer1);
            }
        }
    }

    /// `DO k { DOALL i: B(i) = A(k); DOALL j: A(j) = .. }`: all
    /// processors *reading* one owner's element that the owner then
    /// overwrites is an anti dependence with every processor as a
    /// source — and, across processors, `owner(k)` as the only sink.
    fn gather_then_overwrite() -> (Program, ir::SymId) {
        let mut pb = ProgramBuilder::new("anti");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let b = pb.array("B", &[sym(n)], dist_block());
        let k = pb.begin_seq("k", con(0), sym(n) - 1);
        let i = pb.begin_par("i", con(0), sym(n) - 1);
        pb.assign(elem(b, [idx(i)]), arr(a, [idx(k)]));
        pb.end();
        let j = pb.begin_par("j", con(0), sym(n) - 1);
        pb.assign(elem(a, [idx(j)]), ival(idx(j) + idx(k)));
        pb.end();
        pb.end();
        (pb.finish(), n)
    }

    /// The producer rule is for true dependences only; the anti
    /// dependence is the source-anchored collector's, named after the
    /// *read* subscript and — the reads belonging to the iteration that
    /// just ended — not shifted at the loop bottom.
    #[test]
    fn anti_dependence_on_one_owner_is_collected_by_that_owner() {
        let (prog, n) = gather_then_overwrite();
        let st = prog.all_statements();
        let k = prog.expect_loop(st[0].loops[0]).id;
        let q = CommQuery::new(&prog, Bindings::new(8).set(n, 64));
        let owner_of_k = |anchor| ProducerSpec::Owner {
            map: OwnerMap::Block(8),
            sub: Affine::index(k),
            anchor,
        };
        let knode = st[0].loops[0];
        for mode in [CommMode::LoopIndependent, CommMode::CarriedBy(knode)] {
            let out = q.comm_stmts_detailed(&st[0], &st[1], mode);
            assert_eq!(out, {
                let mut want = CommOutcome::waits(WaitSet::collector(owner_of_k(Anchor::Source)));
                want.pair = out.pair;
                want
            });
            assert_eq!(out.pair.unwrap().dep, DepKind::Anti);
            assert_eq!(out.wait_set().unwrap().fanin(), 1);
        }
        // The true dependence the other way round is the broadcast,
        // from the owner of what the *next* iteration reads.
        let back = q.comm_stmts_detailed(&st[1], &st[0], CommMode::CarriedBy(knode));
        assert_eq!(back.pattern(), CommPattern::Producer1);
        assert_eq!(
            one_producer(&back),
            Some(&ProducerSpec::Owner {
                map: OwnerMap::Block(8),
                sub: Affine::index(k) + 1,
                anchor: Anchor::Sink,
            })
        );
    }

    /// No collector is named after a loop inside the site: read through
    /// an inner sequential loop, every owner's element is read and
    /// every owner is a sink.
    #[test]
    fn no_collector_is_named_after_a_loop_inside_the_site() {
        let mut pb = ProgramBuilder::new("antinest");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let b = pb.array("B", &[sym(n), sym(n)], dist_block());
        let _k = pb.begin_seq("k", con(0), con(3));
        let m = pb.begin_seq("m", con(0), sym(n) - 1);
        let i = pb.begin_par("i", con(0), sym(n) - 1);
        pb.assign(elem(b, [idx(i), idx(m)]), arr(a, [idx(m)]));
        pb.end();
        pb.end();
        let j = pb.begin_par("j", con(0), sym(n) - 1);
        pb.assign(elem(a, [idx(j)]), ival(idx(j)));
        pb.end();
        pb.end();
        let prog = pb.finish();
        let st = prog.all_statements();
        let q = CommQuery::new(&prog, Bindings::new(8).set(n, 64));
        let out = q.comm_stmts_detailed(&st[0], &st[1], CommMode::LoopIndependent);
        assert_eq!(out.pattern(), CommPattern::General);
        assert_eq!(out.pin().unwrap().pair.dep, DepKind::Anti);
    }

    /// A master-guarded statement is the only sink of every dependence
    /// into it — the scalar everybody read, the element everybody's
    /// loop wrote — at the loop bottom with no shift; the other way
    /// round the master is the producer.
    #[test]
    fn dependences_into_a_master_statement_are_collected_by_the_master() {
        let mut pb = ProgramBuilder::new("guarded");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_cyclic());
        let s = pb.scalar("s", 0.0);
        let _k = pb.begin_seq("k", con(0), con(3));
        pb.assign(svar(s), arr(a, [sym(n) - 1]));
        let i = pb.begin_par("i", con(0), sym(n) - 1);
        pb.assign(elem(a, [idx(i)]), arr(a, [idx(i)]) + sca(s));
        pb.end();
        pb.end();
        let prog = pb.finish();
        let st = prog.all_statements();
        let knode = st[0].loops[0];
        let q = CommQuery::new(&prog, Bindings::new(8).set(n, 64));
        let up = q.comm_stmts_detailed(&st[0], &st[1], CommMode::LoopIndependent);
        assert_eq!(one_producer(&up), Some(&ProducerSpec::Master));
        // Back up: `s` is overwritten by the master alone, and what it
        // reads of `A` was written by the element's owner alone.
        let down = q.comm_stmts_detailed(&st[1], &st[0], CommMode::CarriedBy(knode));
        let last = ProducerSpec::Owner {
            map: OwnerMap::Cyclic,
            sub: sym(n) - 1,
            anchor: Anchor::Sink,
        };
        let gather = WaitSet {
            dists: DistSet::empty(),
            producers: vec![last.clone()],
            collectors: vec![ProducerSpec::Master],
        };
        assert_eq!(down.wait_set(), Some(&gather));
        // Both at one site: everyone waits for the master's post, the
        // master for everyone's.
        let both = up.join(down);
        let waits = both.wait_set().unwrap();
        assert_eq!(waits.producers, vec![ProducerSpec::Master, last]);
        assert_eq!(waits.collectors, gather.collectors);
        assert_eq!(waits.fanin(), 3);
    }

    /// Two distributed reductions into one scalar under one operator
    /// are left out of the join and named; another operator, a
    /// right-hand side that reads the scalar, or a master reduction
    /// keeps the pair.
    #[test]
    fn same_operator_distributed_reductions_commute() {
        use ir::RedOp::{Add, Max};
        let build = |op1, op2, self_read: bool, master_first: bool| {
            let mut pb = ProgramBuilder::new("reds");
            let n = pb.sym("n");
            let a = pb.array("A", &[sym(n)], dist_block());
            let s = pb.scalar("s", 0.0);
            if master_first {
                pb.reduce(svar(s), op1, arr(a, [con(0)]));
            } else {
                let i = pb.begin_par("i", con(0), sym(n) - 1);
                pb.reduce(svar(s), op1, arr(a, [idx(i)]));
                pb.end();
            }
            let j = pb.begin_par("j", con(0), sym(n) - 1);
            let rhs = arr(a, [idx(j)]);
            pb.reduce(svar(s), op2, if self_read { rhs * sca(s) } else { rhs });
            pb.end();
            (pb.finish(), n)
        };
        let query = |(prog, n): (Program, ir::SymId)| {
            let st = prog.all_statements();
            let q = CommQuery::new(&prog, Bindings::new(4).set(n, 32));
            q.comm_stmts_detailed(&st[0], &st[1], CommMode::LoopIndependent)
        };
        let out = query(build(Max, Max, false, false));
        assert_eq!(out.pattern(), CommPattern::NoComm);
        assert_eq!(out.commuting.len(), 1);
        assert_eq!(out.commuting[0].dep, DepKind::Output);
        for (op1, op2, self_read, master_first) in [
            (Add, Max, false, false),
            (Max, Max, true, false),
            (Max, Max, false, true),
        ] {
            let out = query(build(op1, op2, self_read, master_first));
            assert_eq!(out.pattern(), CommPattern::General, "{op1:?} {op2:?}");
            assert!(out.commuting.is_empty());
            assert_eq!(out.pin().unwrap().rule, RULE_SCALAR);
        }
    }

    /// `covers` is containment of wait sets: a barrier covers all,
    /// nothing needs no cover, producers and collectors are compared by
    /// owner function and subscript (not by anchor) and never with each
    /// other.
    #[test]
    fn covers_is_containment_of_wait_sets() {
        let k = LoopId(0);
        let owner = |sub: Affine, anchor| ProducerSpec::Owner {
            map: OwnerMap::Cyclic,
            sub,
            anchor,
        };
        let nb = |fwd, bwd| CommOutcome::waits(WaitSet::at_distances(DistSet::neighbor(fwd, bwd)));
        let producer = |spec| CommOutcome::waits(WaitSet::producer(spec));
        let collector = |spec| CommOutcome::waits(WaitSet::collector(spec));
        let barrier = CommOutcome::general();
        let at_k = producer(owner(Affine::index(k), Anchor::Source));
        let at_k_sink = producer(owner(Affine::index(k), Anchor::Sink));
        let at_next = producer(owner(Affine::index(k) + 1, Anchor::Sink));
        for need in [&barrier, &at_k, &nb(true, true), &CommOutcome::none()] {
            assert!(barrier.covers(need));
            assert!(need.covers(&CommOutcome::none()));
        }
        assert!(!CommOutcome::none().covers(&nb(true, false)));
        assert!(!at_k.covers(&barrier) && !nb(true, true).covers(&barrier));
        assert!(nb(true, true).covers(&nb(true, false)));
        assert!(!nb(true, false).covers(&nb(true, true)));
        assert!(at_k.covers(&at_k_sink) && at_k_sink.covers(&at_k));
        assert!(!at_k.covers(&at_next) && !at_k.covers(&nb(true, false)));
        // One trip on, the counter of trip k is the one trip k + 1 needs.
        let shifted = at_k.clone().at_trip(k, &(Affine::index(k) + 1));
        assert!(shifted.covers(&at_next));
        // A sync that waits for nobody covers no producer.
        let nobody = CommOutcome::waits(WaitSet::default());
        assert!(!nobody.covers(&at_k) && at_k.covers(&nobody));

        // A fused sync covers each of its parts and their distances as
        // a neighbor or pairwise need, but no other producer.
        let fused = nb(true, false)
            .join(at_k.clone())
            .join(collector(ProducerSpec::Master));
        assert!(fused.covers(&nb(true, false)) && fused.covers(&at_k_sink));
        assert!(fused.covers(&collector(ProducerSpec::Master)));
        assert!(!fused.covers(&producer(ProducerSpec::Master)));
        assert!(!fused.covers(&nb(false, true)) && !nb(true, true).covers(&fused));
        let mut far = DistSet::neighbor(true, false);
        far.insert(3);
        let far = CommOutcome::waits(WaitSet::at_distances(far));
        assert!(far.covers(&nb(true, false)) && !nb(true, true).covers(&far));
    }

    /// `workvec` and `lu`, initialisation → the statement of the `k`
    /// loop that reads pivot row / column `k` across processors: with
    /// the loop taken whole no producer has a name; per trip it is the
    /// owner of `k`, at the first trip the owner of `0` — and the
    /// statement is not the same at every trip.
    #[test]
    fn entering_a_loop_names_the_producer_of_each_trip() {
        for (name, sink, map) in [
            ("workvec", 1, OwnerMap::Block(2)),
            ("lu", 4, OwnerMap::Cyclic),
        ] {
            let built = (suite::by_name(name).unwrap().build)(suite::Scale::Test);
            let st = built.prog.all_statements();
            let (init, sink) = (&st[if name == "lu" { 1 } else { 0 }], &st[sink]);
            let knode = sink.loops[0];
            let k = built.prog.expect_loop(knode).id;
            let mut bind = Bindings::new(8);
            for &(sym, v) in &built.values {
                bind.bind(sym, v);
            }
            let q = CommQuery::new(&built.prog, bind);
            let whole = q.comm_stmts_detailed(init, sink, CommMode::LoopIndependent);
            assert_eq!(whole.pattern(), CommPattern::General, "{name}");
            let named = |sub| {
                Some(ProducerSpec::Owner {
                    map,
                    sub,
                    anchor: Anchor::Sink,
                })
            };
            let per_trip = Entry {
                per_trip: vec![knode],
                first_trip: vec![],
            };
            let need = q.comm_stmts_entering(init, sink, &per_trip);
            assert_eq!(
                one_producer(&need),
                named(Affine::index(k)).as_ref(),
                "{name}"
            );
            let first_trip = Entry {
                per_trip: vec![],
                first_trip: vec![knode],
            };
            let need = q.comm_stmts_entering(init, sink, &first_trip);
            assert_eq!(
                one_producer(&need),
                named(Affine::constant(0)).as_ref(),
                "{name}"
            );
            assert_eq!(need.pair, whole.pair);
            assert!(!q.trip_invariant(sink, knode));
        }
    }

    /// `DO t { DO i = 1.. { DOALL j: X(i,j) = .. X(i-1,j) } }` after an
    /// initialisation loop, rows in blocks: held at the first trip of
    /// the sweep the read of row 0 stays inside the first block — unless
    /// blocks are single rows. The time loop changes nothing about the
    /// statement.
    #[test]
    fn the_first_trip_of_a_sweep_is_local_unless_blocks_are_single_rows() {
        let built = (suite::by_name("erlebacher").unwrap().build)(suite::Scale::Test);
        let st = built.prog.all_statements();
        let (init, sweep) = (&st[0], &st[2]);
        let (tnode, inode) = (sweep.loops[0], sweep.loops[1]);
        for (nprocs, first) in [
            (8, CommPattern::NoComm),
            (
                16,
                CommPattern::Neighbor {
                    fwd: true,
                    bwd: false,
                },
            ),
        ] {
            let mut bind = Bindings::new(nprocs);
            for &(sym, v) in &built.values {
                bind.bind(sym, v);
            }
            let q = CommQuery::new(&built.prog, bind);
            let entry = Entry {
                per_trip: vec![tnode],
                first_trip: vec![inode],
            };
            let need = q.comm_stmts_entering(init, sweep, &entry);
            assert_eq!(need.pattern(), first, "P={nprocs}");
            assert!(q.trip_invariant(sweep, tnode));
            assert!(!q.trip_invariant(sweep, inode));
        }
    }

    /// DistSet basics: insertion bounds, ordering, rendering.
    #[test]
    fn distset_round_trip() {
        let mut s = DistSet::empty();
        assert!(s.insert(3));
        assert!(s.insert(-2));
        assert!(s.insert(1));
        assert!(!s.insert(0));
        assert!(!s.insert(MAX_PAIR_DIST + 1));
        assert!(s.contains(3) && s.contains(-2) && !s.contains(2));
        assert_eq!(s.len(), 3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![-2, 1, 3]);
        assert_eq!(s.render(), "{-2,+1,+3}");
        let u = s.union(DistSet::neighbor(true, true));
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![-2, -1, 1, 3]);
    }

    /// Jacobi-style seq loop around two DOALLs: carried comm is neighbor
    /// (pipeline-able), not general.
    #[test]
    fn carried_stencil_is_neighbor() {
        let mut pb = ProgramBuilder::new("sweep");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let b = pb.array("B", &[sym(n)], dist_block());
        let t = pb.begin_seq("t", con(0), con(9));
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
        let _ = t;
        let prog = pb.finish();
        let q = CommQuery::new(&prog, Bindings::new(4).set(n, 64));
        let st = prog.all_statements();
        let tnode = prog.body[0];
        // Carried dependence: a(j) written at iteration t, read at t+1 by
        // B's stencil with offsets ±1 → neighbor reach.
        let pat = q.comm_stmts(&st[1], &st[0], CommMode::CarriedBy(tnode));
        assert_eq!(
            pat,
            CommPattern::Neighbor {
                fwd: true,
                bwd: true
            }
        );
    }

    /// Same-processor carried dependence: no comm even across iterations.
    #[test]
    fn carried_aligned_is_local() {
        let mut pb = ProgramBuilder::new("acc");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let t = pb.begin_seq("t", con(0), con(9));
        let i = pb.begin_par("i", con(0), sym(n) - 1);
        p_assign_double(&mut pb, a, i);
        pb.end();
        pb.end();
        let _ = t;
        let prog = pb.finish();
        let q = CommQuery::new(&prog, Bindings::new(4).set(n, 64));
        let st = prog.all_statements();
        let tnode = prog.body[0];
        assert_eq!(
            q.comm_stmts(&st[0], &st[0], CommMode::CarriedBy(tnode)),
            CommPattern::NoComm
        );
    }

    fn p_assign_double(pb: &mut ProgramBuilder, a: ir::ArrayId, i: ir::LoopId) {
        pb.assign(elem(a, [idx(i)]), ex(2.0) * arr(a, [idx(i)]));
    }

    /// Two loops with two statements each, as a 2x2 group query: the
    /// cached analyzer must agree with the uncached reference, and both
    /// keep the same facts table — only the cached one an FME memo.
    #[test]
    fn cached_matches_sequential_uncached() {
        let mut pb = ProgramBuilder::new("groups");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let b = pb.array("B", &[sym(n)], dist_block());
        let c = pb.array("C", &[sym(n)], dist_block());
        let d = pb.array("D", &[sym(n)], dist_block());
        let i = pb.begin_par("i", con(1), sym(n) - 2);
        pb.assign(elem(a, [idx(i)]), ival(idx(i)));
        pb.assign(elem(b, [idx(i)]), ival(idx(i)) * ex(2.0));
        pb.end();
        let j = pb.begin_par("j", con(1), sym(n) - 2);
        pb.assign(elem(c, [idx(j)]), arr(a, [idx(j) - 1]));
        pb.assign(elem(d, [idx(j)]), arr(b, [idx(j)]) + arr(a, [idx(j) + 1]));
        pb.end();
        let prog = pb.finish();
        let bind = Bindings::new(4).set(n, 64);

        let reference =
            CommQuery::with_config(&prog, bind.clone(), AnalysisConfig::sequential_uncached());
        let cached = CommQuery::new(&prog, bind);
        let st = prog.all_statements();
        let g1 = [st[0].clone(), st[1].clone()];
        let g2 = [st[2].clone(), st[3].clone()];
        let fold = |q: &CommQuery| {
            let pairs = g1.iter().flat_map(|s1| g2.iter().map(move |s2| (s1, s2)));
            pairs.fold(CommOutcome::none(), |out, (s1, s2)| {
                out.join(q.comm_stmts_detailed(s1, s2, CommMode::LoopIndependent))
            })
        };
        let want = fold(&reference);
        assert_eq!(want, fold(&cached));
        let misses = cached.stats().pair_misses;

        // The second identical query is answered entirely from the facts.
        assert_eq!(want, fold(&reference));
        assert_eq!(want, fold(&cached));
        let stats = cached.stats();
        assert_eq!(stats.pair_misses, misses, "{stats:?}");
        assert!(stats.pair_hits >= misses && misses > 0, "{stats:?}");
        assert!(stats.fme.feas_misses > 0, "{stats:?}");
        let ref_stats = reference.stats();
        assert_eq!(
            (ref_stats.pair_hits, ref_stats.pair_misses),
            (stats.pair_hits, stats.pair_misses)
        );
        assert_eq!(ref_stats.fme, FmeCacheStats::default());
    }
}
