//! Counter synchronization — the paper's flexible event variables.
//!
//! "Processors defining (producing) values can increment a counter, and
//! processors accessing (consuming) the values wait until the counter is
//! incremented to the proper value." Unlike full barriers, only the
//! processors actually involved in the communication pay for the
//! synchronization, and only one synchronization happens per pair of
//! communicating processors.

use crate::fault::{SyncError, WaitPoll, Watchdog};
use crate::spin::{SpinPolicy, SpinWait, WaitEffort};
use crate::stats::SyncKind;
use crossbeam::utils::CachePadded;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A bank of monotonically increasing synchronization counters.
pub struct Counters {
    c: Vec<CachePadded<AtomicU64>>,
    /// Bumped by every [`Counters::reset`]; guarded waits capture it on
    /// entry and fail if it moves mid-wait (a reset raced the wait).
    generation: CachePadded<AtomicU64>,
    /// Consumers currently blocked in a wait; [`Counters::reset`]
    /// refuses to run while nonzero.
    waiting: CachePadded<AtomicUsize>,
}

/// RAII registration of one blocked consumer (keeps the waiter count
/// correct on every exit path, including deadline errors).
pub(crate) struct WaitingGuard<'a>(&'a AtomicUsize);

impl<'a> WaitingGuard<'a> {
    pub(crate) fn enter(w: &'a AtomicUsize) -> Self {
        w.fetch_add(1, Ordering::AcqRel);
        WaitingGuard(w)
    }
}

impl Drop for WaitingGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

impl Counters {
    /// A bank of `n` counters, all starting at zero.
    pub fn new(n: usize) -> Self {
        Counters {
            c: (0..n)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            generation: CachePadded::new(AtomicU64::new(0)),
            waiting: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Number of counters in the bank.
    pub fn len(&self) -> usize {
        self.c.len()
    }

    /// True if the bank is empty.
    pub fn is_empty(&self) -> bool {
        self.c.is_empty()
    }

    /// Producer side: increment counter `id` (release ordering — the
    /// produced data becomes visible to waiters).
    pub fn increment(&self, id: usize) {
        self.c[id].fetch_add(1, Ordering::Release);
    }

    /// Consumer side: block until counter `id` reaches at least `v`
    /// (acquire ordering). Returns the wait's escalation counts.
    pub fn wait_ge(&self, id: usize, v: u64) -> WaitEffort {
        let _w = WaitingGuard::enter(&self.waiting);
        let mut sw = SpinWait::new(SpinPolicy::auto());
        while self.c[id].load(Ordering::Acquire) < v {
            sw.snooze();
        }
        sw.effort()
    }

    /// As [`Counters::wait_ge`], but guarded: returns
    /// [`SyncError::DeadlineExceeded`] (attributed to `site`/`pid`)
    /// instead of hanging when the counter never arrives, bails out on
    /// region poison, and detects a concurrent [`Counters::reset`]
    /// (stale generation) instead of waiting for a value that will
    /// never be reached again.
    pub fn wait_ge_until(
        &self,
        id: usize,
        v: u64,
        wd: &Watchdog,
        site: usize,
        pid: usize,
    ) -> Result<WaitEffort, SyncError> {
        let _w = WaitingGuard::enter(&self.waiting);
        let gen0 = self.generation.load(Ordering::Acquire);
        wd.guarded_wait(site, pid, SyncKind::Counter, v, SpinPolicy::auto(), || {
            if self.generation.load(Ordering::Acquire) != gen0 {
                return WaitPoll::Failed(SyncError::StaleGeneration { site, pid });
            }
            let cur = self.c[id].load(Ordering::Acquire);
            if cur >= v {
                WaitPoll::Ready
            } else {
                WaitPoll::Pending(cur)
            }
        })
    }

    /// Current value of counter `id`.
    pub fn value(&self, id: usize) -> u64 {
        self.c[id].load(Ordering::Acquire)
    }

    /// Reset every counter to zero (only between regions, never while
    /// other processors may be waiting).
    ///
    /// A reset racing a waiter is a lost-wakeup factory: the waiter's
    /// target can become unreachable and it spins forever. The bank
    /// therefore tracks blocked consumers and panics here if any are
    /// still waiting — a detected error at the reset site instead of a
    /// silent hang at the wait site. Guarded waits additionally carry a
    /// generation stamp, so even a reset that slips past this check
    /// (the waiter registers just after it) surfaces as
    /// [`SyncError::StaleGeneration`] rather than a hang.
    pub fn reset(&self) {
        let waiting = self.waiting.load(Ordering::Acquire);
        assert!(
            waiting == 0,
            "Counters::reset while {waiting} consumer(s) are blocked in wait_ge \
             (reset is only legal between regions)"
        );
        self.generation.fetch_add(1, Ordering::AcqRel);
        for c in &self.c {
            c.store(0, Ordering::Release);
        }
    }

    /// Number of consumers currently blocked in a wait (diagnostics).
    pub fn waiting(&self) -> usize {
        self.waiting.load(Ordering::Acquire)
    }

    /// Current reset generation (bumped by every [`Counters::reset`]).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn producer_consumer_ordering() {
        let c = Arc::new(Counters::new(1));
        let data = Arc::new(AtomicU64::new(0));
        let consumer = {
            let c = Arc::clone(&c);
            let data = Arc::clone(&data);
            std::thread::spawn(move || {
                c.wait_ge(0, 1);
                // Release/acquire on the counter publishes the data.
                assert_eq!(data.load(Ordering::Relaxed), 42);
            })
        };
        data.store(42, Ordering::Relaxed);
        c.increment(0);
        consumer.join().unwrap();
    }

    #[test]
    fn wait_for_multiple_increments() {
        let c = Arc::new(Counters::new(2));
        let n_producers = 4;
        let handles: Vec<_> = (0..n_producers)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    c.increment(1);
                })
            })
            .collect();
        c.wait_ge(1, n_producers as u64);
        assert_eq!(c.value(1), n_producers as u64);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn reset_zeroes() {
        let c = Counters::new(3);
        c.increment(2);
        c.reset();
        assert_eq!(c.value(2), 0);
        assert_eq!(c.generation(), 1);
    }

    #[test]
    fn guarded_wait_succeeds_and_times_out() {
        use crate::fault::{SyncError, Watchdog};
        use std::time::Duration;
        let wd = Watchdog::new(Duration::from_millis(40));
        let c = Counters::new(1);
        c.increment(0);
        assert_eq!(c.wait_ge_until(0, 1, &wd, 5, 2), Ok(WaitEffort::default()));
        let err = c.wait_ge_until(0, 3, &wd, 5, 2).unwrap_err();
        assert_eq!(
            err,
            SyncError::DeadlineExceeded {
                site: 5,
                pid: 2,
                kind: SyncKind::Counter,
                expected: 3,
                observed: 1,
            }
        );
        assert_eq!(c.waiting(), 0, "waiter count must unwind on error");
    }

    #[test]
    #[should_panic(expected = "Counters::reset while")]
    fn reset_with_blocked_waiter_is_detected() {
        let c = Arc::new(Counters::new(1));
        let waiter = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || c.wait_ge(0, 1))
        };
        // Wait for the consumer to register.
        while c.waiting() == 0 {
            std::thread::yield_now();
        }
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.reset()));
        // Unblock the waiter before re-raising so the test thread is
        // not left with a dangling spinner.
        c.increment(0);
        waiter.join().unwrap();
        if let Err(p) = r {
            std::panic::resume_unwind(p);
        }
    }

    /// The recovery loop's contract: each retry attempt resets the bank
    /// between attempts (bumping the generation), and waits issued
    /// *after* the reset run against the fresh generation — they must
    /// succeed normally, never trip [`SyncError::StaleGeneration`] on
    /// their own attempt's stamp.
    #[test]
    fn reset_generations_do_not_go_stale_for_fresh_waits() {
        use crate::fault::Watchdog;
        use std::time::Duration;
        let c = Arc::new(Counters::new(2));
        for attempt in 0..4u64 {
            assert_eq!(c.generation(), attempt);
            // Fresh watchdog per attempt, like the executor's guarded
            // runs re-armed by the recovery supervisor.
            let wd = Arc::new(Watchdog::new(Duration::from_secs(30)));
            let waiter = {
                let (wd, c) = (Arc::clone(&wd), Arc::clone(&c));
                std::thread::spawn(move || c.wait_ge_until(0, 3, &wd, 1, 1))
            };
            for _ in 0..3 {
                c.increment(0);
            }
            assert!(waiter.join().unwrap().is_ok(), "attempt {attempt}");
            // Counter values from the abandoned attempt must not leak
            // into the next: reset zeroes them and stamps a new
            // generation.
            c.increment(1);
            c.reset();
            assert_eq!(c.value(0), 0);
            assert_eq!(c.value(1), 0);
        }
        assert_eq!(c.generation(), 4);
    }

    #[test]
    fn guarded_wait_detects_stale_generation() {
        use crate::fault::{SyncError, Watchdog};
        use std::time::Duration;
        let wd = Arc::new(Watchdog::new(Duration::from_secs(30)));
        let c = Arc::new(Counters::new(1));
        let waiter = {
            let (wd, c) = (Arc::clone(&wd), Arc::clone(&c));
            std::thread::spawn(move || c.wait_ge_until(0, 1, &wd, 2, 1))
        };
        while c.waiting() == 0 {
            std::thread::yield_now();
        }
        // Bypass the reset assertion to model a reset that raced past
        // it: bump the generation directly.
        c.generation.fetch_add(1, Ordering::AcqRel);
        let err = waiter.join().unwrap().unwrap_err();
        assert_eq!(err, SyncError::StaleGeneration { site: 2, pid: 1 });
    }
}
