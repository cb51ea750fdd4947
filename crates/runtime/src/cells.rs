//! Per-processor post cells: the one bank under every point-to-point
//! synchronization.
//!
//! Each processor owns one monotone cell. Arrival is a private store —
//! a processor *posts* by bumping its own cell — and the shape of a
//! synchronization is only which cells a waiter reads: the adjacent
//! ones (the paper's neighbor post/wait), one producer's (its counter),
//! the ones a dependence distance away (pairwise wavefronts), or all of
//! them (a collector: the arrival half of a barrier). The SPMD
//! traversal is replicated, so every processor knows how often any
//! other has posted by the time it passes a sync point, and a wait for
//! `cell[q] >= that count` is exactly "`q` has passed this sync point".
//! Only communicating processors touch each other's cache lines.
//!
//! A reset between attempts stamps a new generation: a guarded wait
//! that started under an older one fails with
//! [`SyncError::StaleGeneration`] instead of waiting for a count the
//! zeroed cell will never reach, and a reset that finds an unguarded
//! waiter blocked — which nothing could release — panics at the reset
//! site.

use crate::counter::WaitingGuard;
use crate::fault::{SyncError, WaitPoll, Watchdog};
use crate::spin::{SpinPolicy, SpinWait, WaitEffort};
use crate::stats::SyncKind;
use crossbeam::utils::CachePadded;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Per-processor monotone post cells.
pub struct CellBank {
    cells: Vec<CachePadded<AtomicU64>>,
    /// Bumped by every [`CellBank::reset`].
    generation: CachePadded<AtomicU64>,
    /// Unguarded waiters currently blocked on each cell;
    /// [`CellBank::reset`] refuses to run while any is nonzero. One
    /// line per target, off the cell's own: only the waiters of one
    /// processor share it.
    waiting: Vec<CachePadded<AtomicUsize>>,
}

impl CellBank {
    /// Cells for `n` processors, all at count zero.
    pub fn new(n: usize) -> Self {
        CellBank {
            cells: (0..n)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            generation: CachePadded::new(AtomicU64::new(0)),
            waiting: (0..n)
                .map(|_| CachePadded::new(AtomicUsize::new(0)))
                .collect(),
        }
    }

    /// Number of processors.
    pub fn nprocs(&self) -> usize {
        self.cells.len()
    }

    /// Post: processor `pid` announces it passed a sync point
    /// (release).
    pub fn post(&self, pid: usize) {
        self.cells[pid].fetch_add(1, Ordering::Release);
    }

    /// Wait until processor `other`'s cell reaches `count` (acquire).
    /// Out-of-range targets (off the ends of the processor line) are
    /// trivially satisfied. Returns the wait's escalation counts.
    pub fn wait(&self, other: isize, count: u64) -> WaitEffort {
        let mut sw = SpinWait::new(SpinPolicy::auto());
        let Some(q) = usize::try_from(other)
            .ok()
            .filter(|&q| q < self.cells.len())
        else {
            return sw.effort();
        };
        let cell = &self.cells[q];
        // Registered only once the wait blocks: a satisfied wait stays
        // one load of the target's line.
        if cell.load(Ordering::Acquire) < count {
            let _w = WaitingGuard::enter(&self.waiting[q]);
            while cell.load(Ordering::Acquire) < count {
                sw.snooze();
            }
        }
        sw.effort()
    }

    /// The bank as one guarded attempt sees it: waits are bounded by
    /// `wd` and fail once the bank is reset under them.
    pub fn guarded<'a>(&'a self, wd: &'a Watchdog) -> GuardedCells<'a> {
        GuardedCells {
            bank: self,
            wd,
            generation: self.generation(),
        }
    }

    /// Current post count of a processor's cell.
    pub fn count(&self, pid: usize) -> u64 {
        self.cells[pid].load(Ordering::Acquire)
    }

    /// Reset all cells to zero (only between regions or attempts, never
    /// while other processors may be waiting).
    ///
    /// A reset racing a waiter is a lost-wakeup factory: the waiter's
    /// target becomes unreachable. A guarded waiter finds out by the
    /// generation stamp; an unguarded one would spin forever, so the
    /// bank counts those and panics here if any is still blocked — a
    /// detected error at the reset site instead of a silent hang at the
    /// wait site.
    pub fn reset(&self) {
        let waiting = self.waiting();
        assert!(
            waiting == 0,
            "CellBank::reset while {waiting} waiter(s) are blocked in wait \
             (reset is only legal between regions)"
        );
        self.generation.fetch_add(1, Ordering::AcqRel);
        for c in &self.cells {
            c.store(0, Ordering::Release);
        }
    }

    /// Number of unguarded waiters currently blocked (diagnostics).
    pub fn waiting(&self) -> usize {
        let blocked = |w: &CachePadded<AtomicUsize>| w.load(Ordering::Acquire);
        self.waiting.iter().map(blocked).sum()
    }

    /// Current reset generation (bumped by every [`CellBank::reset`]).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }
}

/// A [`CellBank`] under one attempt's watchdog ([`CellBank::guarded`]),
/// stamped with the generation the attempt started under.
pub struct GuardedCells<'a> {
    bank: &'a CellBank,
    wd: &'a Watchdog,
    generation: u64,
}

impl<'a> GuardedCells<'a> {
    /// The attempt's watchdog.
    pub fn watchdog(&self) -> &'a Watchdog {
        self.wd
    }

    /// As [`CellBank::wait`] on an in-range target, but guarded:
    /// returns [`SyncError::DeadlineExceeded`] (attributed to `site` /
    /// `pid`, as a wait of `kind`) instead of hanging when the target's
    /// post never lands, bails out on region poison, and fails with
    /// [`SyncError::StaleGeneration`] once the bank has been reset
    /// since the attempt began.
    pub fn wait(
        &self,
        other: usize,
        count: u64,
        kind: SyncKind,
        site: usize,
        pid: usize,
    ) -> Result<WaitEffort, SyncError> {
        let (cell, policy) = (&self.bank.cells[other], SpinPolicy::auto());
        self.wd.guarded_wait(site, pid, kind, count, policy, || {
            if self.bank.generation() != self.generation {
                return WaitPoll::Failed(SyncError::StaleGeneration { site, pid });
            }
            let cur = cell.load(Ordering::Acquire);
            if cur >= count {
                WaitPoll::Ready
            } else {
                WaitPoll::Pending(cur)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    /// A 4-processor wavefront at distance `d`: each processor waits on
    /// `pid - d` before appending to the log. At distance 1 that is the
    /// neighbor pipeline, a strict order within every step; at distance
    /// 2 the pairs (0,2) and (1,3) are ordered while 0/1 (no wait
    /// target) proceed freely.
    #[test]
    fn wavefront_orders_the_processors_a_distance_apart() {
        for d in [1, 2] {
            let n = 4;
            let c = Arc::new(CellBank::new(n));
            let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let handles: Vec<_> = (0..n)
                .map(|pid| {
                    let c = Arc::clone(&c);
                    let log = Arc::clone(&log);
                    std::thread::spawn(move || {
                        for step in 1..=50u64 {
                            c.wait(pid as isize - d, step);
                            log.lock().push((step, pid));
                            c.post(pid);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let log = log.lock();
            for step in 1..=50u64 {
                let order: Vec<usize> = log
                    .iter()
                    .filter(|(s, _)| *s == step)
                    .map(|(_, p)| *p)
                    .collect();
                let pos = |p: usize| order.iter().position(|&x| x == p).unwrap();
                for p in d as usize..n {
                    assert!(pos(p - d as usize) < pos(p), "d={d} step {step}: {order:?}");
                }
            }
        }
    }

    #[test]
    fn out_of_range_targets_do_not_block() {
        let c = CellBank::new(2);
        c.wait(-1, u64::MAX);
        c.wait(2, u64::MAX);
        c.wait(-3, u64::MAX);
        c.wait(5, u64::MAX);
        assert_eq!(c.waiting(), 0);
    }

    #[test]
    fn guarded_wait_bounds_a_missing_post() {
        let wd = Watchdog::new(Duration::from_millis(40));
        let c = CellBank::new(3);
        c.post(1);
        let g = c.guarded(&wd);
        let free = Ok(WaitEffort::default());
        assert_eq!(g.wait(1, 1, SyncKind::Neighbor, 4, 0), free);
        // A never-posting target is a bounded failure, attributed to
        // the site and filed under the label of the sync.
        for kind in [SyncKind::Neighbor, SyncKind::Counter, SyncKind::Pairwise] {
            let err = g.wait(2, 1, kind, 4, 1).unwrap_err();
            assert_eq!(
                err,
                SyncError::DeadlineExceeded {
                    site: 4,
                    pid: 1,
                    kind,
                    expected: 1,
                    observed: 0,
                }
            );
        }
    }

    #[test]
    fn reset_zeroes_and_stamps_a_generation() {
        let c = CellBank::new(2);
        c.post(0);
        assert_eq!(c.wait(0, 1), WaitEffort::default());
        c.reset();
        assert_eq!((c.count(0), c.generation()), (0, 1));
    }

    /// Whatever the sync is labelled, a reset under a guarded waiter is
    /// an error at the waiter, not a wait to the deadline for a count
    /// the zeroed cell never reaches: flags to the neighbor, a
    /// collector's read of every cell, a counter's consumer.
    #[test]
    fn reset_under_a_guarded_wait_is_a_stale_generation() {
        let wd = Arc::new(Watchdog::new(Duration::from_secs(30)));
        for (kind, targets) in [
            (SyncKind::Neighbor, vec![1]),
            (SyncKind::Pairwise, vec![1, 2, 3]),
            (SyncKind::Counter, vec![3]),
        ] {
            let c = Arc::new(CellBank::new(4));
            let started = Arc::new(std::sync::Barrier::new(2));
            let waiter = {
                let (wd, c, started) = (Arc::clone(&wd), Arc::clone(&c), Arc::clone(&started));
                std::thread::spawn(move || {
                    let g = c.guarded(&wd);
                    started.wait();
                    targets
                        .iter()
                        .try_for_each(|&q| g.wait(q, 2, kind, 6, 0).map(drop))
                })
            };
            // The attempt has its stamp; whether the reset lands before
            // its first poll or in the middle of its wait, it is stale.
            started.wait();
            c.reset();
            let err = waiter.join().unwrap().unwrap_err();
            assert_eq!(err, SyncError::StaleGeneration { site: 6, pid: 0 });
        }
    }

    /// Each retry attempt takes its view after the reset that precedes
    /// it, so its waits run against the fresh generation and succeed.
    #[test]
    fn attempts_after_a_reset_do_not_go_stale() {
        let c = Arc::new(CellBank::new(2));
        for attempt in 0..4u64 {
            assert_eq!(c.generation(), attempt);
            let wd = Arc::new(Watchdog::new(Duration::from_secs(30)));
            let waiter = {
                let (wd, c) = (Arc::clone(&wd), Arc::clone(&c));
                std::thread::spawn(move || c.guarded(&wd).wait(0, 3, SyncKind::Pairwise, 1, 1))
            };
            for _ in 0..3 {
                c.post(0);
            }
            assert!(waiter.join().unwrap().is_ok(), "attempt {attempt}");
            c.reset();
            assert_eq!(c.count(0), 0);
        }
    }

    #[test]
    #[should_panic(expected = "CellBank::reset while")]
    fn reset_with_a_blocked_waiter_is_detected() {
        let c = Arc::new(CellBank::new(2));
        let waiter = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || c.wait(1, 1))
        };
        while c.waiting() == 0 {
            std::thread::yield_now();
        }
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.reset()));
        // Unblock the waiter before re-raising so the test thread is
        // not left with a dangling spinner.
        c.post(1);
        waiter.join().unwrap();
        if let Err(p) = r {
            std::panic::resume_unwind(p);
        }
    }
}
