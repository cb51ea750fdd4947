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
//! or fetch-add plus a [`SpinWait`] poll loop, with no clock reads, no
//! locks, and no watchdog traffic. The `*_until` variants layer the
//! sampled watchdog of [`crate::fault`] on top for fault detection.
//! Neither counts nor times anything: a wait returns its escalation
//! [`WaitEffort`] and the caller that knows the site does the
//! measuring.

use crate::fault::{SyncError, WaitPoll, Watchdog};
use crate::spin::{SpinPolicy, SpinWait, WaitEffort};
use crate::stats::SyncKind;
use crossbeam::utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bits of the central barrier's packed state word holding the arrival
/// count; the remaining (upper) bits hold the episode epoch.
const COUNT_BITS: u32 = 16;
const COUNT_MASK: u64 = (1 << COUNT_BITS) - 1;

/// Epoch distance [`CentralBarrier::reset`] jumps. Any straggler from
/// the abandoned episode carries an epoch within one of the old value,
/// so after the jump its compare-exchange can never match the live
/// word — the arrival is rejected as stale instead of landing in the
/// fresh episode as a phantom.
const RESET_STRIDE: u64 = 1 << 20;

/// Thread-local episode stamp for [`CentralBarrier::wait`]. Start from
/// [`Default`] (a fresh stamp adopts the barrier's current epoch on
/// first use) and pass the same variable to every wait; after a
/// [`CentralBarrier::reset`], start again from a fresh stamp.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BarrierEpoch(Option<u64>);

/// How one arrival at the central barrier resolved.
enum Arrival {
    /// This was the last arrival: the episode is complete.
    Released,
    /// Arrived early; wait until the epoch moves past the payload.
    Wait(u64),
    /// The caller's episode no longer exists (a reset or teardown
    /// discarded it); the arrival was *not* counted.
    Stale,
}

/// Sense-reversing centralized barrier.
///
/// The entire barrier is one atomic word packing `(epoch, arrivals)`.
/// The epoch is the generalized sense: each processor keeps a
/// thread-local [`BarrierEpoch`] and an episode completes when the last
/// arrival advances the epoch (implicitly zeroing the count in the same
/// compare-exchange). Packing count and epoch together is what closes
/// the classic reset race: an arrival is a compare-exchange that only
/// succeeds against the exact episode the caller belongs to, so a
/// straggler racing [`CentralBarrier::reset`] is rejected as stale
/// instead of contaminating the fresh episode's count and releasing a
/// later barrier early.
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

    /// Number of participating processors.
    pub fn nprocs(&self) -> usize {
        self.n
    }

    /// The barrier's current episode epoch (diagnostics and tests).
    pub fn epoch(&self) -> u64 {
        self.state.load(Ordering::Acquire) >> COUNT_BITS
    }

    /// Register one arrival for the episode `local` belongs to.
    fn arrive(&self, local: &mut BarrierEpoch) -> Arrival {
        let mut s = self.state.load(Ordering::Acquire);
        loop {
            let epoch = s >> COUNT_BITS;
            let count = s & COUNT_MASK;
            let e = local.0.unwrap_or(epoch);
            if e != epoch {
                // The episode this stamp belongs to is gone (reset or
                // completed without us — only possible mid-teardown).
                // Re-sync so the caller's next wait joins the live
                // episode, and reject the arrival.
                local.0 = Some(epoch);
                return Arrival::Stale;
            }
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
                    return if last {
                        Arrival::Released
                    } else {
                        Arrival::Wait(epoch)
                    };
                }
                Err(cur) => s = cur,
            }
        }
    }

    /// Block until all `n` processors have arrived. `local` is the
    /// caller's thread-local episode stamp (start from `Default`, pass
    /// the same variable every time).
    ///
    /// If the caller's episode was discarded by a concurrent
    /// [`CentralBarrier::reset`] (region teardown), the wait returns
    /// immediately without contributing an arrival — the guarded
    /// variant reports this as [`SyncError::StaleGeneration`].
    pub fn wait(&self, local: &mut BarrierEpoch) -> WaitEffort {
        let mut sw = SpinWait::new(SpinPolicy::auto());
        if let Arrival::Wait(e) = self.arrive(local) {
            while self.state.load(Ordering::Acquire) >> COUNT_BITS == e {
                sw.snooze();
            }
        }
        sw.effort()
    }

    /// Re-arm the barrier for a fresh region attempt by jumping the
    /// epoch `RESET_STRIDE` episodes forward with a zero count. A
    /// failed episode leaves stragglers holding stale local stamps; the
    /// jump guarantees their late arrivals can never match the live
    /// word, so they resolve as stale no-ops instead of phantom
    /// arrivals that would release a post-reset episode early. The
    /// recovery supervisor calls this between attempts — only after
    /// every worker has been joined, with callers starting from fresh
    /// `Default` stamps.
    pub fn reset(&self) {
        let epoch = self.state.load(Ordering::Acquire) >> COUNT_BITS;
        self.state.store(
            epoch.wrapping_add(RESET_STRIDE) << COUNT_BITS,
            Ordering::Release,
        );
    }

    /// As [`CentralBarrier::wait`], but guarded: returns
    /// [`SyncError::DeadlineExceeded`] (attributed to `site`/`pid`)
    /// instead of hanging when a peer never arrives, bails out on
    /// region poison, and reports a reset-discarded episode as
    /// [`SyncError::StaleGeneration`]. A failed episode leaves the
    /// barrier state unusable for further waits — the region must be
    /// torn down and the barrier [`reset`](CentralBarrier::reset)
    /// before any retry.
    pub fn wait_until(
        &self,
        local: &mut BarrierEpoch,
        wd: &Watchdog,
        site: usize,
        pid: usize,
    ) -> Result<WaitEffort, SyncError> {
        match self.arrive(local) {
            Arrival::Released => Ok(WaitEffort::default()),
            Arrival::Stale => Err(SyncError::StaleGeneration { site, pid }),
            // Progress is the arrival count: `expected` is full
            // attendance, `observed` how many had arrived (the epoch
            // advancing is the real exit condition).
            Arrival::Wait(e) => wd.guarded_wait(
                site,
                pid,
                SyncKind::Barrier,
                self.n as u64,
                SpinPolicy::auto(),
                || {
                    let s = self.state.load(Ordering::Acquire);
                    if s >> COUNT_BITS != e {
                        WaitPoll::Ready
                    } else {
                        WaitPoll::Pending(s & COUNT_MASK)
                    }
                },
            ),
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

    /// Number of participating processors.
    pub fn nprocs(&self) -> usize {
        self.n
    }

    /// The configured fan-in.
    pub fn radix(&self) -> usize {
        self.radix
    }

    /// Number of dissemination rounds (`ceil(log_radix n)`).
    pub fn rounds(&self) -> usize {
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
            let mut sw = SpinWait::new(SpinPolicy::auto());
            while self.flags[r][pid].load(Ordering::Acquire) < target {
                sw.snooze();
            }
            effort += sw.effort();
        }
        effort
    }

    /// Re-arm the barrier for a fresh region attempt: zero every
    /// dissemination flag. Only legal after all workers have been
    /// joined; callers must restart from a fresh zero epoch.
    pub fn reset(&self) {
        for round in &self.flags {
            for f in round {
                f.store(0, Ordering::Release);
            }
        }
    }

    /// As [`TreeBarrier::wait`], but guarded: each dissemination round
    /// is deadline-bounded, returning [`SyncError::DeadlineExceeded`]
    /// (attributed to `site`/`pid`) instead of hanging, and bailing out
    /// on region poison. A failed episode leaves the barrier state
    /// unusable for further waits — the region must be torn down and
    /// the barrier [`reset`](TreeBarrier::reset) before any retry.
    pub fn wait_until(
        &self,
        pid: usize,
        epoch: &mut usize,
        wd: &Watchdog,
        site: usize,
    ) -> Result<WaitEffort, SyncError> {
        *epoch += 1;
        let target = (*epoch as u64) * (self.radix as u64 - 1);
        let policy = SpinPolicy::auto();
        let mut effort = WaitEffort::default();
        for r in 0..self.rounds {
            self.signal_round(r, pid);
            let flag = &self.flags[r][pid];
            effort += wd.guarded_wait(site, pid, SyncKind::Barrier, target, policy, || {
                let cur = flag.load(Ordering::Acquire);
                if cur >= target {
                    WaitPoll::Ready
                } else {
                    WaitPoll::Pending(cur)
                }
            })?;
        }
        Ok(effort)
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
    fn guarded_barriers_bound_a_missing_arrival() {
        use crate::fault::{SyncError, Watchdog};
        use std::time::Duration;
        // Only 1 of 2 processors ever arrives: both barrier kinds must
        // report a deadline at the right site instead of hanging.
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
        let t = TreeBarrier::new(2);
        let mut epoch = 0;
        match t.wait_until(0, &mut epoch, &wd, 11).unwrap_err() {
            SyncError::DeadlineExceeded {
                site: 11,
                pid: 0,
                kind: SyncKind::Barrier,
                ..
            } => {}
            other => panic!("tree: {other:?}"),
        }
    }

    #[test]
    fn guarded_barriers_complete_when_all_arrive() {
        use crate::fault::Watchdog;
        use std::time::Duration;
        let wd = Arc::new(Watchdog::new(Duration::from_secs(30)));
        for n in [1usize, 3, 4] {
            let b = Arc::new(CentralBarrier::new(n));
            let t = Arc::new(TreeBarrier::new(n));
            let handles: Vec<_> = (0..n)
                .map(|pid| {
                    let (b, t, wd) = (Arc::clone(&b), Arc::clone(&t), Arc::clone(&wd));
                    std::thread::spawn(move || {
                        let mut local = BarrierEpoch::default();
                        let mut epoch = 0;
                        for _ in 0..50 {
                            b.wait_until(&mut local, &wd, 0, pid).unwrap();
                            t.wait_until(pid, &mut epoch, &wd, 1).unwrap();
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
    fn reset_rearms_a_failed_central_episode() {
        use crate::fault::Watchdog;
        use std::time::Duration;
        // One of two processors times out, leaving a stranded arrival
        // in the count; after reset (and fresh local stamps) the
        // barrier completes episodes again.
        let wd = Watchdog::new(Duration::from_millis(30));
        let b = Arc::new(CentralBarrier::new(2));
        let mut local = BarrierEpoch::default();
        assert!(b.wait_until(&mut local, &wd, 0, 0).is_err());
        b.reset();
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    let mut local = BarrierEpoch::default();
                    for _ in 0..20 {
                        b.wait(&mut local);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn reset_rearms_a_failed_tree_episode() {
        use crate::fault::Watchdog;
        use std::time::Duration;
        let wd = Watchdog::new(Duration::from_millis(30));
        let t = Arc::new(TreeBarrier::new(3));
        let mut epoch = 0;
        assert!(t.wait_until(0, &mut epoch, &wd, 0).is_err());
        t.reset();
        let handles: Vec<_> = (0..3)
            .map(|pid| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    let mut epoch = 0;
                    for _ in 0..20 {
                        t.wait(pid, &mut epoch);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    /// The mid-flight reset hazard (satellite of ISSUE 6): a straggler
    /// from a wedged episode whose final arrival races the supervisor's
    /// reset must never land in the fresh episode — the classic
    /// count-based barrier counted it as a phantom arrival, releasing
    /// the next episode one processor early with a stale sense.
    #[test]
    fn reset_racing_a_stragglers_final_arrival_is_rejected() {
        use crate::fault::{SyncError, Watchdog};
        use std::time::Duration;
        let wd = Watchdog::new(Duration::from_millis(30));
        let b = Arc::new(CentralBarrier::new(2));

        // A completed warm-up episode gives both processors stamps for
        // epoch 1.
        {
            let b2 = Arc::clone(&b);
            let peer = std::thread::spawn(move || {
                let mut l = BarrierEpoch::default();
                b2.wait(&mut l);
                l
            });
            let mut l0 = BarrierEpoch::default();
            b.wait(&mut l0);
            let l1 = peer.join().unwrap();

            // Episode 1 wedges: P0 arrives and times out; P1 is the
            // straggler that has not arrived yet.
            assert!(b.wait_until(&mut l0, &wd, 7, 0).is_err());
            let epoch_before = b.epoch();

            // The supervisor resets while the straggler's arrival is
            // still in flight; the arrival lands only now.
            b.reset();
            let mut l1 = l1;
            b.wait(&mut l1); // must return immediately, contributing nothing

            // No phantom arrival: the fresh epoch's count is still
            // zero, so a lone arrival in the fresh episode must time
            // out rather than be released by the straggler's ghost.
            assert_eq!(b.epoch(), epoch_before + RESET_STRIDE);
            let mut f0 = BarrierEpoch::default();
            assert!(
                b.wait_until(&mut f0, &wd, 8, 0).is_err(),
                "stale straggler arrival pre-armed the fresh episode"
            );

            // And a stale *guarded* arrival is a diagnosed error, not a
            // silent no-op.
            b.reset();
            let mut stale = f0; // stamped for the pre-reset epoch
            match b.wait_until(&mut stale, &wd, 9, 1).unwrap_err() {
                SyncError::StaleGeneration { site: 9, pid: 1 } => {}
                other => panic!("expected StaleGeneration, got {other:?}"),
            }
        }

        // After the dust settles the barrier still completes clean
        // episodes with full attendance.
        b.reset();
        let phase = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let b = Arc::clone(&b);
                let phase = Arc::clone(&phase);
                std::thread::spawn(move || {
                    let mut l = BarrierEpoch::default();
                    for k in 0..50u64 {
                        assert!(phase.load(Ordering::SeqCst) >= k);
                        b.wait(&mut l);
                        phase.fetch_max(k + 1, Ordering::SeqCst);
                        b.wait(&mut l);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(phase.load(Ordering::SeqCst), 50);
    }

    /// Probabilistic companion to the deterministic reset-race test:
    /// hammer arrivals against concurrent resets and assert the barrier
    /// is always cleanly re-armable afterwards.
    #[test]
    fn concurrent_resets_never_corrupt_the_count() {
        use crate::fault::Watchdog;
        use std::time::Duration;
        let b = Arc::new(CentralBarrier::new(2));
        let wd = Watchdog::new(Duration::from_millis(25));
        for round in 0..200 {
            let straggler = {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    let mut l = BarrierEpoch::default();
                    // Arrival races the reset below; stale or counted,
                    // never blocking (episode n=2 cannot complete, but a
                    // wait on a discarded episode returns).
                    b.arrive(&mut l);
                })
            };
            if round % 2 == 0 {
                std::thread::yield_now();
            }
            b.reset();
            straggler.join().unwrap();
            b.reset();
            // Invariant: after reset the fresh episode needs BOTH
            // arrivals — one alone must time out.
            let mut l = BarrierEpoch::default();
            assert!(
                b.wait_until(&mut l, &wd, 0, 0).is_err(),
                "round {round}: a racing arrival leaked into the fresh episode"
            );
            b.reset();
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
