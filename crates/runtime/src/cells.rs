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
//! A bank lives for one attempt and is never reset: a retry builds a
//! fresh one, and [`Team::try_run`](crate::Team::try_run) joins every
//! worker of the previous attempt before the next starts, so no waiter
//! can outlive the counts it waits for.

use crate::fault::{SyncError, WaitPoll, Watchdog};
use crate::spin::{SpinWait, WaitEffort};
use crate::stats::SyncKind;
use crossbeam::utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-processor monotone post cells.
pub struct CellBank {
    cells: Vec<CachePadded<AtomicU64>>,
}

impl CellBank {
    /// `n` cells, all at count zero.
    pub fn new(n: usize) -> Self {
        CellBank {
            cells: (0..n)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        }
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
        let mut sw = SpinWait::new();
        let Some(cell) = usize::try_from(other).ok().and_then(|q| self.cells.get(q)) else {
            return sw.effort();
        };
        while cell.load(Ordering::Acquire) < count {
            sw.snooze();
        }
        sw.effort()
    }

    /// As [`CellBank::wait`] on an in-range target, but guarded by
    /// `wd`: returns [`SyncError::DeadlineExceeded`] (attributed to
    /// `site` / `pid`, as a wait of `kind`) instead of hanging when the
    /// target's post never lands, and bails out on region poison.
    pub fn wait_until(
        &self,
        other: usize,
        count: u64,
        wd: &Watchdog,
        kind: SyncKind,
        site: usize,
        pid: usize,
    ) -> Result<WaitEffort, SyncError> {
        let cell = &self.cells[other];
        wd.guarded_wait(site, pid, kind, count, || {
            let cur = cell.load(Ordering::Acquire);
            if cur >= count {
                WaitPoll::Ready
            } else {
                WaitPoll::Pending(cur)
            }
        })
    }

    /// Current post count of a processor's cell.
    pub fn count(&self, pid: usize) -> u64 {
        self.cells[pid].load(Ordering::Acquire)
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
    }

    #[test]
    fn guarded_wait_bounds_a_missing_post() {
        let wd = Watchdog::new(Duration::from_millis(40));
        let c = CellBank::new(3);
        c.post(1);
        let free = Ok(WaitEffort::default());
        assert_eq!(c.wait_until(1, 1, &wd, SyncKind::Neighbor, 4, 0), free);
        // A never-posting target is a bounded failure, attributed to
        // the site and filed under the label of the sync.
        for kind in [SyncKind::Neighbor, SyncKind::Counter, SyncKind::Pairwise] {
            let err = c.wait_until(2, 1, &wd, kind, 4, 1).unwrap_err();
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
}
