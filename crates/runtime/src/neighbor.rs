//! Nearest-neighbor post/wait synchronization.
//!
//! For stencil communication the producer/consumer processors differ by
//! one. Each processor owns an epoch flag; after producing data for a
//! sync point it *posts* (bumps its flag), and before consuming it
//! *waits* for the relevant neighbor's flag to reach the current epoch.
//! Only adjacent processors touch each other's cache lines, so the cost
//! is independent of the team size — the property the paper exploits.

use crate::fault::{SyncError, WaitPoll, Watchdog};
use crate::spin::{SpinPolicy, SpinWait, WaitEffort};
use crate::stats::SyncKind;
use crossbeam::utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-processor epoch flags for neighbor synchronization.
pub struct NeighborFlags {
    flags: Vec<CachePadded<AtomicU64>>,
    policy: SpinPolicy,
}

impl NeighborFlags {
    /// Flags for `n` processors, all at epoch zero.
    pub fn new(n: usize) -> Self {
        NeighborFlags {
            flags: (0..n)
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
        self.flags.len()
    }

    /// Post: processor `pid` announces it finished producing for the
    /// current sync point (release).
    pub fn post(&self, pid: usize) {
        self.flags[pid].fetch_add(1, Ordering::Release);
    }

    /// Wait until processor `other`'s flag reaches `epoch` (acquire).
    /// Out-of-range neighbors (off the ends of the processor line) are
    /// trivially satisfied. Returns the wait's escalation counts.
    pub fn wait(&self, other: isize, epoch: u64) -> WaitEffort {
        let mut sw = SpinWait::new(self.policy);
        if other >= 0 && (other as usize) < self.flags.len() {
            while self.flags[other as usize].load(Ordering::Acquire) < epoch {
                sw.snooze();
            }
        }
        sw.effort()
    }

    /// As [`NeighborFlags::wait`], but guarded: returns
    /// [`SyncError::DeadlineExceeded`] (attributed to `site`/`pid`)
    /// instead of hanging when the neighbor's post never lands, and
    /// bails out on region poison.
    pub fn wait_until(
        &self,
        other: isize,
        epoch: u64,
        wd: &Watchdog,
        site: usize,
        pid: usize,
    ) -> Result<WaitEffort, SyncError> {
        if other < 0 || other as usize >= self.flags.len() {
            return Ok(WaitEffort::default());
        }
        let flag = &self.flags[other as usize];
        wd.guarded_wait(site, pid, SyncKind::Neighbor, epoch, self.policy, || {
            let cur = flag.load(Ordering::Acquire);
            if cur >= epoch {
                WaitPoll::Ready
            } else {
                WaitPoll::Pending(cur)
            }
        })
    }

    /// Current epoch of a processor's flag.
    pub fn epoch(&self, pid: usize) -> u64 {
        self.flags[pid].load(Ordering::Acquire)
    }

    /// Reset all flags (only between regions).
    pub fn reset(&self) {
        for f in &self.flags {
            f.store(0, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A 4-processor pipeline: each processor appends to a log after
    /// waiting for its left neighbor, giving a strict order.
    #[test]
    fn pipeline_orders_processors() {
        let n = 4;
        let f = Arc::new(NeighborFlags::new(n));
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let handles: Vec<_> = (0..n)
            .map(|pid| {
                let f = Arc::clone(&f);
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for step in 1..=10u64 {
                        f.wait(pid as isize - 1, step);
                        log.lock().push((step, pid));
                        f.post(pid);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let log = log.lock();
        // Within each step, processors appear in increasing order.
        for step in 1..=10u64 {
            let order: Vec<usize> = log
                .iter()
                .filter(|(s, _)| *s == step)
                .map(|(_, p)| *p)
                .collect();
            assert_eq!(order, vec![0, 1, 2, 3], "step {step} out of order");
        }
    }

    #[test]
    fn boundary_neighbors_do_not_block() {
        let f = NeighborFlags::new(2);
        // Processor 0 has no left neighbor; waiting on -1 returns.
        f.wait(-1, u64::MAX);
        f.wait(2, u64::MAX);
    }

    #[test]
    fn guarded_wait_bounds_a_missing_post() {
        use crate::fault::{SyncError, Watchdog};
        use crate::stats::SyncKind;
        use std::time::Duration;
        let wd = Watchdog::new(Duration::from_millis(40));
        let f = NeighborFlags::new(3);
        f.post(1);
        // Posted neighbor and out-of-range neighbors succeed.
        let free = Ok(WaitEffort::default());
        assert_eq!(f.wait_until(1, 1, &wd, 4, 0), free);
        assert_eq!(f.wait_until(-1, 99, &wd, 4, 0), free);
        assert_eq!(f.wait_until(3, 99, &wd, 4, 2), free);
        // A never-posting neighbor is a bounded, attributed failure.
        let err = f.wait_until(2, 1, &wd, 4, 1).unwrap_err();
        assert_eq!(
            err,
            SyncError::DeadlineExceeded {
                site: 4,
                pid: 1,
                kind: SyncKind::Neighbor,
                expected: 1,
                observed: 0,
            }
        );
    }

    #[test]
    fn reset_zeroes() {
        let f = NeighborFlags::new(2);
        f.post(0);
        assert_eq!(f.wait(0, 1), WaitEffort::default());
        f.reset();
        assert_eq!(f.epoch(0), 0);
    }
}
