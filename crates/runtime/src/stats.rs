//! Dynamic synchronization totals.
//!
//! Plain data: each worker of an execution owns one [`StatsSnapshot`]
//! and folds every sync event it executes into it
//! ([`StatsSnapshot::record`]); the executor merges the workers' copies
//! after the join ([`StatsSnapshot::merge`]). Nothing here is shared
//! between threads, so measuring a sync episode adds no traffic next to
//! the primitive's own cache lines.

use crate::spin::WaitEffort;

/// The kinds of synchronization the optimizer can emit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SyncKind {
    /// Full barrier across the team.
    Barrier,
    /// Counter increment / wait (producer-consumer).
    Counter,
    /// Neighbor post / wait flags.
    Neighbor,
    /// Pairwise (distance-vector) post / wait cells.
    Pairwise,
}

impl SyncKind {
    /// Every kind, in the order reports list them.
    pub const ALL: [SyncKind; 4] = [
        SyncKind::Barrier,
        SyncKind::Counter,
        SyncKind::Neighbor,
        SyncKind::Pairwise,
    ];

    /// The kind in lower case, as reports name it.
    pub fn name(self) -> &'static str {
        match self {
            SyncKind::Barrier => "barrier",
            SyncKind::Counter => "counter",
            SyncKind::Neighbor => "neighbor",
            SyncKind::Pairwise => "pairwise",
        }
    }
}

/// Dynamic synchronization counts and blocked time, by kind.
///
/// A *barrier episode* is one full barrier (all processors arriving
/// once); *arrivals* count per-processor participations. Counter,
/// neighbor and pairwise events are counted per operation. Wait
/// nanoseconds accumulate the time processors spent in sync events of
/// the kind (arrival to release); the maximum single event is kept
/// alongside (totals alone hide convoy outliers).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Completed barrier episodes.
    pub barrier_episodes: u64,
    /// Per-processor barrier arrivals.
    pub barrier_arrivals: u64,
    /// Nanoseconds blocked in barriers.
    pub barrier_wait_ns: u64,
    /// Longest single barrier wait in nanoseconds.
    pub barrier_max_wait_ns: u64,
    /// Counter increments.
    pub counter_increments: u64,
    /// Counter waits.
    pub counter_waits: u64,
    /// Nanoseconds blocked on counters.
    pub counter_wait_ns: u64,
    /// Longest single counter wait in nanoseconds.
    pub counter_max_wait_ns: u64,
    /// Neighbor posts.
    pub neighbor_posts: u64,
    /// Neighbor waits.
    pub neighbor_waits: u64,
    /// Nanoseconds blocked on neighbor flags.
    pub neighbor_wait_ns: u64,
    /// Longest single neighbor wait in nanoseconds.
    pub neighbor_max_wait_ns: u64,
    /// Pairwise posts.
    pub pairwise_posts: u64,
    /// Pairwise waits.
    pub pairwise_waits: u64,
    /// Nanoseconds blocked on pairwise cells.
    pub pairwise_wait_ns: u64,
    /// Longest single pairwise wait in nanoseconds.
    pub pairwise_max_wait_ns: u64,
    /// `spin_loop` rounds across all blocked waits (escalation phase 1).
    pub spin_rounds: u64,
    /// `yield_now` rounds across all blocked waits (escalation phase 2).
    pub yield_rounds: u64,
    /// Bounded parks across all blocked waits (escalation phase 3).
    pub parks: u64,
}

impl StatsSnapshot {
    /// The four totals of `kind`: primary operations (barrier episodes,
    /// counter increments, neighbor or pairwise posts), completed waits
    /// (barrier arrivals for a barrier), blocked nanoseconds, and the
    /// longest single event.
    pub fn of_kind(&self, kind: SyncKind) -> [u64; 4] {
        let mut copy = *self;
        copy.kind_mut(kind).map(|v| *v)
    }

    fn kind_mut(&mut self, kind: SyncKind) -> [&mut u64; 4] {
        match kind {
            SyncKind::Barrier => [
                &mut self.barrier_episodes,
                &mut self.barrier_arrivals,
                &mut self.barrier_wait_ns,
                &mut self.barrier_max_wait_ns,
            ],
            SyncKind::Counter => [
                &mut self.counter_increments,
                &mut self.counter_waits,
                &mut self.counter_wait_ns,
                &mut self.counter_max_wait_ns,
            ],
            SyncKind::Neighbor => [
                &mut self.neighbor_posts,
                &mut self.neighbor_waits,
                &mut self.neighbor_wait_ns,
                &mut self.neighbor_max_wait_ns,
            ],
            SyncKind::Pairwise => [
                &mut self.pairwise_posts,
                &mut self.pairwise_waits,
                &mut self.pairwise_wait_ns,
                &mut self.pairwise_max_wait_ns,
            ],
        }
    }

    /// Fold one sync event of `kind` into the totals: `posts` primary
    /// operations, `waits` completed waits with their summed escalation
    /// `effort`, and the `ns` the event took from arrival to release
    /// (see [`StatsSnapshot::of_kind`]).
    pub fn record(&mut self, kind: SyncKind, posts: u64, waits: u64, effort: WaitEffort, ns: u64) {
        let [p, w, total, max] = self.kind_mut(kind);
        *p += posts;
        *w += waits;
        *total += ns;
        *max = (*max).max(ns);
        self.add_effort(effort);
    }

    /// Fold one wait's escalation effort into the spin/yield/park
    /// totals alone — how a wait that belongs to no sync kind (the
    /// executor's dispatch gate) is counted.
    pub fn add_effort(&mut self, effort: WaitEffort) {
        self.spin_rounds += effort.spins;
        self.yield_rounds += effort.yields;
        self.parks += effort.parks;
    }

    /// Fold another snapshot into this one: counts and wait totals add,
    /// maxima take the max. The executor merges its workers' totals
    /// this way, and the recovery supervisor aggregates per-attempt
    /// snapshots into run totals.
    pub fn merge(&mut self, o: &StatsSnapshot) {
        for kind in SyncKind::ALL {
            let [posts, waits, ns, max_ns] = o.of_kind(kind);
            let [p, w, total, max] = self.kind_mut(kind);
            *p += posts;
            *w += waits;
            *total += ns;
            *max = (*max).max(max_ns);
        }
        self.spin_rounds += o.spin_rounds;
        self.yield_rounds += o.yield_rounds;
        self.parks += o.parks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_by_kind_and_keeps_the_largest_event() {
        let mut s = StatsSnapshot::default();
        let none = WaitEffort::default();
        s.record(SyncKind::Barrier, 1, 1, none, 50);
        s.record(SyncKind::Barrier, 0, 1, none, 700);
        s.record(SyncKind::Barrier, 0, 1, none, 70);
        s.record(SyncKind::Counter, 1, 0, none, 10);
        s.record(SyncKind::Neighbor, 1, 2, none, 5);
        assert_eq!(s.barrier_episodes, 1);
        assert_eq!(s.barrier_arrivals, 3);
        assert_eq!(s.barrier_wait_ns, 820);
        assert_eq!(s.barrier_max_wait_ns, 700);
        assert_eq!(s.counter_increments, 1);
        assert_eq!(s.counter_waits, 0);
        assert_eq!(s.counter_max_wait_ns, 10);
        assert_eq!(s.neighbor_posts, 1);
        assert_eq!(s.neighbor_waits, 2);
        assert_eq!(s.pairwise_max_wait_ns, 0);
    }

    #[test]
    fn record_sums_escalation_effort() {
        let mut s = StatsSnapshot::default();
        let effort = |spins, yields, parks| WaitEffort {
            spins,
            yields,
            parks,
        };
        s.record(SyncKind::Counter, 0, 1, effort(10, 2, 0), 1);
        s.record(SyncKind::Pairwise, 1, 1, effort(5, 0, 3), 1);
        s.record(SyncKind::Barrier, 0, 1, WaitEffort::default(), 1);
        assert_eq!((s.spin_rounds, s.yield_rounds, s.parks), (15, 2, 3));
    }

    #[test]
    fn merge_adds_counts_and_keeps_maxima() {
        let mut a = StatsSnapshot {
            barrier_episodes: 3,
            barrier_wait_ns: 100,
            barrier_max_wait_ns: 60,
            spin_rounds: 7,
            parks: 1,
            ..StatsSnapshot::default()
        };
        let b = StatsSnapshot {
            barrier_episodes: 2,
            barrier_wait_ns: 50,
            barrier_max_wait_ns: 90,
            spin_rounds: 4,
            yield_rounds: 5,
            ..StatsSnapshot::default()
        };
        a.merge(&b);
        assert_eq!(a.barrier_episodes, 5);
        assert_eq!(a.barrier_wait_ns, 150);
        assert_eq!(a.barrier_max_wait_ns, 90);
        assert_eq!(a.spin_rounds, 11);
        assert_eq!(a.yield_rounds, 5);
        assert_eq!(a.parks, 1);
    }
}
