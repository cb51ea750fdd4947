//! Barrier implementations: sense-reversing central barrier and a
//! k-ary dissemination barrier.
//!
//! The central barrier is the classic shared-memory barrier whose cost
//! grows with the processor count (the motivation figure of the paper,
//! after Chen/Su/Yew); the dissemination barrier trades single-atomic
//! contention for logarithmic depth, with the fan-in (radix)
//! configurable between 2 and 8 — wider trees are shallower but put
//! more arrivals on each flag, the trade-off the 1024-core RISC-V
//! barrier study measures.
//!
//! Both barriers are pure-atomic on their fast path: a wait is a CAS
//! or fetch-add plus a poll loop up the crate's one spin → yield →
//! park ladder ([`crate::spin`]), with no clock reads, no
//! locks, and no watchdog traffic. [`CentralBarrier::wait_until`]
//! layers the sampled watchdog of [`crate::fault`] on top for fault
//! detection. Neither counts nor times anything: a wait returns its
//! escalation [`WaitEffort`] and the caller that knows the site does
//! the measuring.
//!
//! Neither is ever reset. A barrier lives for one attempt: a retry
//! builds a fresh one, and [`Team::try_run`](crate::Team::try_run)
//! joins every worker of the previous attempt before the next starts,
//! so no straggler of an abandoned episode can arrive at the new
//! barrier. No executor runs a [`TreeBarrier`]; it is kept, pure waits
//! only, for the primitive latency rows that time it.

use crate::fault::{SyncError, WaitPoll, Watchdog};
use crate::spin::{SpinWait, WaitEffort};
use crate::stats::SyncKind;
use crossbeam::utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bits of the central barrier's packed state word holding the arrival
/// count; the remaining (upper) bits hold the episode epoch.
const COUNT_BITS: u32 = 16;
const COUNT_MASK: u64 = (1 << COUNT_BITS) - 1;

/// Thread-local episode stamp for [`CentralBarrier::wait`]: the epoch
/// the caller was last released into. Start from [`Default`] (a fresh
/// stamp adopts the barrier's current epoch on first use) and pass the
/// same variable to every wait; a debug build checks that every
/// arrival lands in the stamped epoch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BarrierEpoch(Option<u64>);

/// Sense-reversing centralized barrier.
///
/// The entire barrier is one atomic word packing `(epoch, arrivals)`.
/// The epoch is the generalized sense: an episode completes when the
/// last arrival advances the epoch, zeroing the count in the same
/// compare-exchange, and an early arrival waits for the epoch to move.
pub struct CentralBarrier {
    n: usize,
    /// Packed `(epoch << COUNT_BITS) | arrivals`.
    state: CachePadded<AtomicU64>,
}

impl CentralBarrier {
    /// A barrier for `n` processors.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        assert!(
            (n as u64) < COUNT_MASK,
            "central barrier supports at most {} processors",
            COUNT_MASK - 1
        );
        CentralBarrier {
            n,
            state: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// The barrier's current episode epoch.
    #[cfg(test)]
    fn epoch(&self) -> u64 {
        self.state.load(Ordering::Acquire) >> COUNT_BITS
    }

    /// Register one arrival in the current episode: `None` when it was
    /// the last, else the epoch to wait out.
    fn arrive(&self, local: &mut BarrierEpoch) -> Option<u64> {
        let mut s = self.state.load(Ordering::Acquire);
        loop {
            let epoch = s >> COUNT_BITS;
            let count = s & COUNT_MASK;
            debug_assert_eq!(
                local.0.unwrap_or(epoch),
                epoch,
                "arrival outside the epoch the processor was last released into"
            );
            let last = count + 1 == self.n as u64;
            let next = if last {
                epoch.wrapping_add(1) << COUNT_BITS
            } else {
                s + 1
            };
            match self
                .state
                .compare_exchange_weak(s, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    local.0 = Some(epoch.wrapping_add(1));
                    return (!last).then_some(epoch);
                }
                Err(cur) => s = cur,
            }
        }
    }

    /// Block until all `n` processors have arrived. `local` is the
    /// caller's thread-local episode stamp (start from `Default`, pass
    /// the same variable every time).
    pub fn wait(&self, local: &mut BarrierEpoch) -> WaitEffort {
        let mut sw = SpinWait::new();
        if let Some(e) = self.arrive(local) {
            while self.state.load(Ordering::Acquire) >> COUNT_BITS == e {
                sw.snooze();
            }
        }
        sw.effort()
    }

    /// As [`CentralBarrier::wait`], but guarded: returns
    /// [`SyncError::DeadlineExceeded`] (attributed to `site`/`pid`)
    /// instead of hanging when a peer never arrives, and bails out on
    /// region poison. A failed episode leaves the barrier unusable for
    /// further waits: the attempt ends, and a retry builds a fresh
    /// barrier.
    pub fn wait_until(
        &self,
        local: &mut BarrierEpoch,
        wd: &Watchdog,
        site: usize,
        pid: usize,
    ) -> Result<WaitEffort, SyncError> {
        match self.arrive(local) {
            None => Ok(WaitEffort::default()),
            // Progress is the arrival count: `expected` is full
            // attendance, `observed` how many had arrived (the epoch
            // advancing is the real exit condition).
            Some(e) => wd.guarded_wait(site, pid, SyncKind::Barrier, self.n as u64, || {
                let s = self.state.load(Ordering::Acquire);
                if s >> COUNT_BITS != e {
                    WaitPoll::Ready
                } else {
                    WaitPoll::Pending(s & COUNT_MASK)
                }
            }),
        }
    }
}

/// A k-ary dissemination barrier.
///
/// In round `r` processor `p` signals its `radix - 1` partners at
/// distances `j * radix^r` (mod `n`, for `j` in `1..radix`) and waits
/// until it has received all of round `r`'s signals; after
/// `ceil(log_radix n)` rounds every processor has transitively heard
/// from every other. Radix 2 is the classic dissemination barrier
/// (most rounds, one flag update each); radix 8 flattens the tree to a
/// third of the depth at 8× the per-round fan-out. [`TreeBarrier::new`]
/// picks a topology-aware default.
pub struct TreeBarrier {
    n: usize,
    radix: usize,
    rounds: usize,
    // One flag per (round, processor), counting signals received. Each
    // episode adds exactly `radix - 1` signals per flag, so the wait
    // target for episode `e` is `e * (radix - 1)`.
    flags: Vec<Vec<CachePadded<AtomicU64>>>,
}

impl TreeBarrier {
    /// A dissemination barrier for `n` processors with the
    /// topology-aware default fan-in (see [`TreeBarrier::default_radix`]).
    pub fn new(n: usize) -> Self {
        Self::with_radix(n, Self::default_radix(n))
    }

    /// The default fan-in for a team of `n`: a wide (4-ary) tree when
    /// the team fits the machine — fewer rounds, and the extra flag
    /// traffic lands on cores that would otherwise idle — and the
    /// classic binary dissemination when the team oversubscribes the
    /// host (each round's waits already cost a reschedule; keep them
    /// cheap).
    pub fn default_radix(n: usize) -> usize {
        if n > 2 && n <= crate::spin::host_cores() {
            4
        } else {
            2
        }
    }

    /// A dissemination barrier with an explicit fan-in (`2..=8`).
    pub fn with_radix(n: usize, radix: usize) -> Self {
        assert!(n >= 1);
        assert!(
            (2..=8).contains(&radix),
            "tree barrier radix must be in 2..=8, got {radix}"
        );
        let mut rounds = 0usize;
        let mut span = 1usize;
        while span < n {
            span = span.saturating_mul(radix);
            rounds += 1;
        }
        let flags = (0..rounds)
            .map(|_| {
                (0..n)
                    .map(|_| CachePadded::new(AtomicU64::new(0)))
                    .collect()
            })
            .collect();
        TreeBarrier {
            n,
            radix,
            rounds,
            flags,
        }
    }

    /// The configured fan-in.
    #[cfg(test)]
    fn radix(&self) -> usize {
        self.radix
    }

    /// Number of dissemination rounds (`ceil(log_radix n)`).
    #[cfg(test)]
    fn rounds(&self) -> usize {
        self.rounds
    }

    /// Send round `r`'s signals from `pid` (each partner's flag gains
    /// one; by symmetry every processor also receives `radix - 1`).
    fn signal_round(&self, r: usize, pid: usize) {
        let mut dist = 1usize;
        for _ in 0..r {
            dist *= self.radix;
        }
        for j in 1..self.radix {
            let to = (pid + j * dist) % self.n;
            self.flags[r][to].fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Block processor `pid` until all processors arrive. `epoch` is the
    /// caller's thread-local episode counter (start at 0, pass the same
    /// variable every time).
    pub fn wait(&self, pid: usize, epoch: &mut usize) -> WaitEffort {
        *epoch += 1;
        let target = (*epoch as u64) * (self.radix as u64 - 1);
        let mut effort = WaitEffort::default();
        for r in 0..self.rounds {
            self.signal_round(r, pid);
            let mut sw = SpinWait::new();
            while self.flags[r][pid].load(Ordering::Acquire) < target {
                sw.snooze();
            }
            effort += sw.effort();
        }
        effort
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    fn hammer_central(n: usize, iters: usize) {
        let b = Arc::new(CentralBarrier::new(n));
        let phase = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let b = Arc::clone(&b);
                let phase = Arc::clone(&phase);
                std::thread::spawn(move || {
                    let mut local = BarrierEpoch::default();
                    for k in 0..iters {
                        // Everyone must observe the same phase before and
                        // after each barrier.
                        let before = phase.load(Ordering::SeqCst);
                        assert!(before >= k as u64);
                        b.wait(&mut local);
                        phase.fetch_max(k as u64 + 1, Ordering::SeqCst);
                        b.wait(&mut local);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(phase.load(Ordering::SeqCst), iters as u64);
    }

    #[test]
    fn central_barrier_synchronizes() {
        hammer_central(4, 200);
    }

    #[test]
    fn central_barrier_single_processor() {
        let b = CentralBarrier::new(1);
        let mut local = BarrierEpoch::default();
        for _ in 0..10 {
            b.wait(&mut local);
        }
        assert_eq!(b.epoch(), 10);
    }

    #[test]
    fn guarded_barrier_bounds_a_missing_arrival() {
        use crate::fault::{SyncError, Watchdog};
        use std::time::Duration;
        // Only 1 of 2 processors ever arrives: the barrier must report
        // a deadline at the right site instead of hanging.
        let wd = Watchdog::new(Duration::from_millis(40));
        let b = CentralBarrier::new(2);
        let mut local = BarrierEpoch::default();
        match b.wait_until(&mut local, &wd, 9, 0).unwrap_err() {
            SyncError::DeadlineExceeded {
                site: 9,
                pid: 0,
                kind: SyncKind::Barrier,
                ..
            } => {}
            other => panic!("central: {other:?}"),
        }
    }

    #[test]
    fn guarded_barrier_completes_when_all_arrive() {
        use crate::fault::Watchdog;
        use std::time::Duration;
        let wd = Arc::new(Watchdog::new(Duration::from_secs(30)));
        for n in [1usize, 3, 4] {
            let b = Arc::new(CentralBarrier::new(n));
            let handles: Vec<_> = (0..n)
                .map(|pid| {
                    let (b, wd) = (Arc::clone(&b), Arc::clone(&wd));
                    std::thread::spawn(move || {
                        let mut local = BarrierEpoch::default();
                        for _ in 0..50 {
                            b.wait_until(&mut local, &wd, 0, pid).unwrap();
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        }
    }

    #[test]
    fn tree_barrier_synchronizes_across_radices() {
        for radix in [2usize, 3, 4, 8] {
            for n in [1usize, 2, 3, 5, 8] {
                let b = Arc::new(TreeBarrier::with_radix(n, radix));
                let counter = Arc::new(AtomicU64::new(0));
                let handles: Vec<_> = (0..n)
                    .map(|pid| {
                        let b = Arc::clone(&b);
                        let counter = Arc::clone(&counter);
                        std::thread::spawn(move || {
                            let mut epoch = 0;
                            for k in 0..100u64 {
                                counter.fetch_add(1, Ordering::SeqCst);
                                b.wait(pid, &mut epoch);
                                // After the barrier all n increments of
                                // this round are visible.
                                assert!(counter.load(Ordering::SeqCst) >= (k + 1) * n as u64);
                                b.wait(pid, &mut epoch);
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().unwrap();
                }
                assert_eq!(
                    counter.load(Ordering::SeqCst),
                    100 * n as u64,
                    "radix {radix}, n {n}"
                );
            }
        }
    }

    #[test]
    fn tree_rounds_shrink_with_radix() {
        assert_eq!(TreeBarrier::with_radix(8, 2).rounds(), 3);
        assert_eq!(TreeBarrier::with_radix(8, 4).rounds(), 2);
        assert_eq!(TreeBarrier::with_radix(8, 8).rounds(), 1);
        assert_eq!(TreeBarrier::with_radix(1, 2).rounds(), 0);
        assert_eq!(TreeBarrier::with_radix(9, 8).rounds(), 2);
        let b = TreeBarrier::new(4);
        assert!((2..=8).contains(&b.radix()));
    }
}
