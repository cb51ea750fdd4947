//! Point-to-point pairwise synchronization from dependence distance
//! vectors.
//!
//! Where neighbor flags cover |q - p| = 1, pairwise cells cover any
//! small fixed set of processor distances (and identifiable producers):
//! at a pairwise sync point *every* processor posts its own monotonic
//! cell, then waits only for the cells of the processors its wait
//! targets name. The SPMD traversal is replicated, so all processors
//! pass the same pairwise sites in the same order and per-pid post
//! counts stay aligned — a wait for `cell[q - d] >= my own post count`
//! is exactly "producer `q - d` has passed this sync point as often as
//! I have". Only communicating pairs touch each other's cache lines,
//! and loop-carried placements pipeline into a wavefront: processor
//! `q - d` may already be an iteration ahead while `q` catches up.

use crate::fault::{SyncError, WaitPoll, Watchdog};
use crate::spin::{SpinPolicy, SpinWait, WaitEffort};
use crate::stats::SyncKind;
use crossbeam::utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-processor monotonic post cells for pairwise synchronization.
pub struct PairwiseCells {
    cells: Vec<CachePadded<AtomicU64>>,
    policy: SpinPolicy,
}

impl PairwiseCells {
    /// Cells for `n` processors, all at count zero.
    pub fn new(n: usize) -> Self {
        PairwiseCells {
            cells: (0..n)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            policy: SpinPolicy::auto(),
        }
    }

    /// Override the spin → yield → park escalation policy.
    pub fn with_policy(mut self, policy: SpinPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Number of processors.
    pub fn nprocs(&self) -> usize {
        self.cells.len()
    }

    /// Post: processor `pid` announces it passed a pairwise sync point
    /// (release).
    pub fn post(&self, pid: usize) {
        self.cells[pid].fetch_add(1, Ordering::Release);
    }

    /// Wait until processor `other`'s cell reaches `count` (acquire).
    /// Out-of-range targets (off the ends of the processor line) and
    /// self-waits are trivially satisfied. Returns the wait's escalation
    /// counts.
    pub fn wait(&self, other: isize, count: u64) -> WaitEffort {
        let mut sw = SpinWait::new(self.policy);
        if other >= 0 && (other as usize) < self.cells.len() {
            while self.cells[other as usize].load(Ordering::Acquire) < count {
                sw.snooze();
            }
        }
        sw.effort()
    }

    /// As [`PairwiseCells::wait`], but guarded: returns
    /// [`SyncError::DeadlineExceeded`] (attributed to `site`/`pid`)
    /// instead of hanging when the target's post never lands, and bails
    /// out on region poison.
    pub fn wait_until(
        &self,
        other: isize,
        count: u64,
        wd: &Watchdog,
        site: usize,
        pid: usize,
    ) -> Result<WaitEffort, SyncError> {
        if other < 0 || other as usize >= self.cells.len() {
            return Ok(WaitEffort::default());
        }
        let cell = &self.cells[other as usize];
        wd.guarded_wait(site, pid, SyncKind::Pairwise, count, self.policy, || {
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

    /// Reset all cells (only between regions).
    pub fn reset(&self) {
        for c in &self.cells {
            c.store(0, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A 4-processor wavefront at distance 2: each processor waits on
    /// `pid - 2` before appending to the log, so within every step the
    /// pair (0,2) and the pair (1,3) are ordered, while 0/1 (no wait
    /// target) proceed freely.
    #[test]
    fn distance_two_wavefront_orders_pairs() {
        let n = 4;
        let c = Arc::new(PairwiseCells::new(n));
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let handles: Vec<_> = (0..n)
            .map(|pid| {
                let c = Arc::clone(&c);
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for step in 1..=50u64 {
                        c.wait(pid as isize - 2, step);
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
            assert!(pos(0) < pos(2), "step {step}: {order:?}");
            assert!(pos(1) < pos(3), "step {step}: {order:?}");
        }
    }

    #[test]
    fn out_of_range_targets_do_not_block() {
        let c = PairwiseCells::new(2);
        c.wait(-3, u64::MAX);
        c.wait(5, u64::MAX);
    }

    #[test]
    fn guarded_wait_bounds_a_missing_post() {
        use std::time::Duration;
        let wd = Watchdog::new(Duration::from_millis(40));
        let c = PairwiseCells::new(3);
        c.post(1);
        let free = Ok(WaitEffort::default());
        assert_eq!(c.wait_until(1, 1, &wd, 7, 0), free);
        assert_eq!(c.wait_until(-1, 99, &wd, 7, 0), free);
        assert_eq!(c.wait_until(3, 99, &wd, 7, 2), free);
        let err = c.wait_until(2, 1, &wd, 7, 1).unwrap_err();
        assert_eq!(
            err,
            SyncError::DeadlineExceeded {
                site: 7,
                pid: 1,
                kind: SyncKind::Pairwise,
                expected: 1,
                observed: 0,
            }
        );
    }

    #[test]
    fn reset_zeroes() {
        let c = PairwiseCells::new(2);
        c.post(0);
        assert_eq!(c.wait(0, 1), WaitEffort::default());
        c.reset();
        assert_eq!(c.count(0), 0);
    }
}
