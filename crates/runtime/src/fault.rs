//! Fault detection for the blocking primitives: deadline-guarded waits
//! and region poisoning.
//!
//! Every blocking primitive in this crate spins forever in its plain
//! form — correct when the optimizer placed enough synchronization,
//! fatal when it did not (an eliminated-sync miscompile, a dropped
//! increment, a panicked producer). This module turns those silent
//! hangs into *detected* failures:
//!
//! * a [`Watchdog`] holds the team-wide wait deadline and the region's
//!   poison state;
//! * [`Watchdog::guarded_wait`] is the single escalating wait loop
//!   (spin → yield → park under a [`SpinPolicy`]) every guarded wait
//!   (`CentralBarrier::wait_until`, `GuardedCells::wait`) delegates to,
//!   returning
//!   [`SyncError::DeadlineExceeded`] with the sync site, processor, and
//!   expected/observed progress instead of hanging;
//! * [`Watchdog::poison`] marks the region failed (first cause wins)
//!   and unparks every guarded waiter, so one processor's panic or
//!   timeout tears the whole region down within one park slice instead
//!   of leaving peers wedged at the next barrier.
//!
//! # The sampled-watchdog contract
//!
//! The fault machinery stays off the per-poll fast path. A guarded
//! wait's poll loop touches only the caller's condition atomics; the
//! watchdog side-channel — one epoch-stamped status word
//! (`Watchdog::status`, internal: poison bit plus a wake epoch) and
//! one `Instant::now()` — is sampled only
//!
//! * on every park transition (the wait is already ≥ many OS quanta
//!   long, so a clock read is noise), and
//! * every [`DEADLINE_SAMPLE`] polls during the spin/yield phases
//!   (bounding detection latency while a waiter that never escalates
//!   pays at most one sample per `DEADLINE_SAMPLE` cheap polls).
//!
//! Consequently deadline and poison detection are *sampled*, not
//! instantaneous: an armed deadline fires within one sample period or
//! one park slice of the true expiry, never later than
//! `deadline + park_slice + ε`. The poison *cause* string lives behind
//! a mutex that is only touched when poisoning or when a waiter is
//! already failing — never on a healthy wait's path.
//!
//! Producers never touch the watchdog (increments stay two atomic
//! instructions), so parked waiters re-check their condition on a
//! bounded slice rather than being woken eagerly — progress latency
//! degrades to at most one slice once a wait escalates past spinning,
//! which only happens on waits that are already multiple OS quanta
//! long.

use crate::spin::{SpinPhase, SpinPolicy, SpinWait, WaitEffort};
use crate::stats::SyncKind;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Sentinel site id for the fork-join dispatch broadcast, which is not
/// part of the canonical sync-site walk.
pub const DISPATCH_SITE: usize = usize::MAX;

/// Compatibility bound on how long a guarded waiter stays parked
/// before re-checking its condition. Policies may park in shorter
/// slices; none park longer.
pub const PARK_SLICE: Duration = Duration::from_millis(1);

/// Spin/yield polls between two watchdog samples (see the module docs
/// for the sampled-watchdog contract).
pub const DEADLINE_SAMPLE: u32 = 256;

/// Poison flag inside the status word; the remaining bits are the wake
/// epoch, bumped by every poison or spurious wake.
const POISON_BIT: u64 = 1;

/// Why a guarded wait returned without its condition becoming true.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SyncError {
    /// The wait outlived the watchdog deadline: at sync site `site`,
    /// processor `pid` needed the observed progress value to reach
    /// `expected` but last saw `observed`.
    DeadlineExceeded {
        /// Canonical sync-site id ([`DISPATCH_SITE`] for the dispatch
        /// broadcast, which is outside the site walk).
        site: usize,
        /// Processor that timed out.
        pid: usize,
        /// Which primitive was blocked.
        kind: SyncKind,
        /// Progress value the wait needed.
        expected: u64,
        /// Progress value last observed.
        observed: u64,
    },
    /// Another processor poisoned the region (panic or earlier
    /// timeout) while this one was waiting.
    Poisoned {
        /// Site this processor was waiting at when it saw the poison.
        site: usize,
        /// Processor that observed the poison.
        pid: usize,
        /// First poison cause, as recorded by [`Watchdog::poison`].
        cause: String,
    },
}

impl SyncError {
    /// The sync site the error is attributed to.
    pub fn site(&self) -> usize {
        match self {
            SyncError::DeadlineExceeded { site, .. } | SyncError::Poisoned { site, .. } => *site,
        }
    }

    /// The processor the error occurred on.
    pub fn pid(&self) -> usize {
        match self {
            SyncError::DeadlineExceeded { pid, .. } | SyncError::Poisoned { pid, .. } => *pid,
        }
    }

    /// True for the variants that *initiate* a region failure (poison
    /// observations are secondary — some peer failed first).
    pub fn is_primary(&self) -> bool {
        !matches!(self, SyncError::Poisoned { .. })
    }
}

/// How reports name a wait of `kind` at `site`: the dispatch gate by
/// its own name, whatever primitive it waits through.
pub fn wait_name(site: usize, kind: SyncKind) -> &'static str {
    if site == DISPATCH_SITE {
        "dispatch"
    } else {
        kind.name()
    }
}

/// How one processor's traversal of a region ended.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum ProcEnd {
    /// It walked its whole schedule.
    #[default]
    Finished,
    /// One of its guarded waits failed.
    Fault(SyncError),
    /// It panicked, with this message.
    Panicked(String),
}

impl ProcEnd {
    /// The failed wait, when the processor ended on one.
    pub fn fault(&self) -> Option<&SyncError> {
        match self {
            ProcEnd::Fault(e) => Some(e),
            _ => None,
        }
    }
}

impl std::fmt::Display for SyncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let site_str = |s: usize| {
            if s == DISPATCH_SITE {
                "dispatch".to_string()
            } else {
                format!("s{s}")
            }
        };
        match self {
            SyncError::DeadlineExceeded {
                site,
                pid,
                kind,
                expected,
                observed,
            } => write!(
                f,
                "deadline exceeded at {} on P{pid}: {} wait needed {expected}, observed {observed}",
                site_str(*site),
                wait_name(*site, *kind)
            ),
            SyncError::Poisoned { site, pid, cause } => write!(
                f,
                "region poisoned while P{pid} waited at {}: {cause}",
                site_str(*site)
            ),
        }
    }
}

/// What a guarded wait's observation closure reports each poll.
#[derive(Debug)]
pub enum WaitPoll {
    /// The condition holds; the wait succeeds.
    Ready,
    /// Still blocked; the payload is the progress value observed (for
    /// the eventual [`SyncError::DeadlineExceeded`]).
    Pending(u64),
}

/// Team-level deadline and poison state shared by every guarded wait
/// of one region execution.
///
/// Construction is cheap; executors build one per observed run. The
/// deadline bounds each *individual* blocked interval, which is the
/// quantity a lost wakeup makes unbounded — a healthy region never
/// blocks longer than its slowest peer's work chunk.
pub struct Watchdog {
    deadline: Duration,
    /// The epoch-stamped poison word: bit 0 is the poison flag, the
    /// upper bits count wake events (poisons and spurious wakes). One
    /// acquire load tells a waiter both whether the region died and
    /// whether any wake landed since it last looked — the entire fault
    /// side-channel a healthy wait ever samples.
    status: AtomicU64,
    cause: Mutex<Option<String>>,
    parked: Mutex<Vec<Thread>>,
}

impl Watchdog {
    /// A watchdog allowing each blocking wait up to `deadline`.
    pub fn new(deadline: Duration) -> Self {
        Watchdog {
            deadline,
            status: AtomicU64::new(0),
            cause: Mutex::new(None),
            parked: Mutex::new(Vec::new()),
        }
    }

    /// The per-wait deadline.
    pub fn deadline(&self) -> Duration {
        self.deadline
    }

    /// True once any processor poisoned the region.
    pub fn is_poisoned(&self) -> bool {
        self.status.load(Ordering::Acquire) & POISON_BIT != 0
    }

    /// The first recorded poison cause, if any.
    pub fn poison_cause(&self) -> Option<String> {
        self.cause.lock().clone()
    }

    /// Mark the region failed and wake every parked guarded waiter.
    /// The first cause is kept; later calls only re-wake waiters.
    pub fn poison(&self, cause: impl Into<String>) {
        {
            let mut c = self.cause.lock();
            if c.is_none() {
                *c = Some(cause.into());
            }
        }
        // Set the flag and bump the wake epoch in one visible step
        // each: waiters racing towards a park compare the whole word.
        self.status.fetch_add(2, Ordering::AcqRel);
        self.status.fetch_or(POISON_BIT, Ordering::AcqRel);
        for t in self.parked.lock().drain(..) {
            t.unpark();
        }
    }

    /// Wake every parked guarded waiter without poisoning (used by the
    /// chaos layer to inject spurious wakeups — a correct waiter must
    /// re-check its condition and go back to sleep).
    pub fn spurious_wake(&self) {
        self.status.fetch_add(2, Ordering::AcqRel);
        for t in self.parked.lock().drain(..) {
            t.unpark();
        }
    }

    /// The escalating guarded wait every guarded primitive wait
    /// delegates to: poll `observe` under `policy`'s spin → yield →
    /// park ladder until `Ready`, poison, or the deadline. Returns the
    /// wait's escalation counts on success so callers can feed their
    /// stats.
    ///
    /// Deadline and poison are checked on the sampled side-channel
    /// only (every park transition, else every [`DEADLINE_SAMPLE`]
    /// polls) — see the module docs for the precision this trades.
    pub fn guarded_wait(
        &self,
        site: usize,
        pid: usize,
        kind: SyncKind,
        expected: u64,
        policy: SpinPolicy,
        mut observe: impl FnMut() -> WaitPoll,
    ) -> Result<WaitEffort, SyncError> {
        // Fast path: a satisfied wait costs one poll — no clock read,
        // no status load, no allocation.
        if let WaitPoll::Ready = observe() {
            return Ok(WaitEffort::default());
        }
        let deadline = Instant::now() + self.deadline;
        let mut sw = SpinWait::new(policy);
        let mut polls: u32 = 0;
        loop {
            if let WaitPoll::Ready = observe() {
                return Ok(sw.effort());
            }
            let phase = sw.advise();
            polls += 1;
            let mut now = None;
            if phase == SpinPhase::Park || polls >= DEADLINE_SAMPLE {
                polls = 0;
                if self.is_poisoned() {
                    return Err(SyncError::Poisoned {
                        site,
                        pid,
                        cause: self.poison_cause().unwrap_or_default(),
                    });
                }
                let t = Instant::now();
                if t >= deadline {
                    // One final check: the condition may have become
                    // true between the poll above and here.
                    let WaitPoll::Pending(observed) = observe() else {
                        return Ok(sw.effort());
                    };
                    return Err(SyncError::DeadlineExceeded {
                        site,
                        pid,
                        kind,
                        expected,
                        observed,
                    });
                }
                now = Some(t);
            }
            match phase {
                SpinPhase::Spin => std::hint::spin_loop(),
                SpinPhase::Yield => std::thread::yield_now(),
                SpinPhase::Park => {
                    // Register, then re-check condition and status: a
                    // poison or wake landing between the sample above
                    // and the park would otherwise be a lost wakeup.
                    self.parked.lock().push(std::thread::current());
                    let recheck_ready = matches!(observe(), WaitPoll::Ready);
                    if recheck_ready || self.is_poisoned() {
                        let me = std::thread::current().id();
                        self.parked.lock().retain(|t| t.id() != me);
                        if recheck_ready {
                            return Ok(sw.effort());
                        }
                        continue;
                    }
                    let slice = policy.park_slice.min(PARK_SLICE);
                    std::thread::park_timeout(slice.min(deadline - now.unwrap()));
                    let me = std::thread::current().id();
                    self.parked.lock().retain(|t| t.id() != me);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    fn wait_on(
        wd: &Watchdog,
        c: &AtomicU64,
        target: u64,
        site: usize,
        pid: usize,
    ) -> Result<WaitEffort, SyncError> {
        wd.guarded_wait(
            site,
            pid,
            SyncKind::Counter,
            target,
            SpinPolicy::auto(),
            || {
                let v = c.load(Ordering::Acquire);
                if v >= target {
                    WaitPoll::Ready
                } else {
                    WaitPoll::Pending(v)
                }
            },
        )
    }

    #[test]
    fn satisfied_wait_returns_ok_with_zero_effort() {
        let wd = Watchdog::new(Duration::from_secs(5));
        let c = AtomicU64::new(3);
        assert_eq!(wait_on(&wd, &c, 3, 0, 0), Ok(WaitEffort::default()));
    }

    #[test]
    fn deadline_fires_with_attribution() {
        let wd = Watchdog::new(Duration::from_millis(30));
        let c = AtomicU64::new(1);
        let t0 = Instant::now();
        let err = wait_on(&wd, &c, 4, 7, 2).unwrap_err();
        assert!(t0.elapsed() < Duration::from_secs(5), "wait did not bound");
        assert_eq!(
            err,
            SyncError::DeadlineExceeded {
                site: 7,
                pid: 2,
                kind: SyncKind::Counter,
                expected: 4,
                observed: 1,
            }
        );
    }

    #[test]
    fn blocked_wait_reports_its_escalation_effort() {
        let wd = Arc::new(Watchdog::new(Duration::from_secs(30)));
        let c = Arc::new(AtomicU64::new(0));
        let h = {
            let wd = Arc::clone(&wd);
            let c = Arc::clone(&c);
            std::thread::spawn(move || wait_on(&wd, &c, 1, 0, 0))
        };
        std::thread::sleep(Duration::from_millis(15));
        c.store(1, Ordering::Release);
        let effort = h.join().unwrap().unwrap();
        assert!(
            effort.spins + effort.yields + effort.parks > 0,
            "a 15ms block must have escalated: {effort:?}"
        );
    }

    #[test]
    fn poison_wakes_parked_waiter_promptly() {
        let wd = Arc::new(Watchdog::new(Duration::from_secs(30)));
        let c = Arc::new(AtomicU64::new(0));
        let h = {
            let wd = Arc::clone(&wd);
            let c = Arc::clone(&c);
            std::thread::spawn(move || wait_on(&wd, &c, 1, 3, 1))
        };
        // Let the waiter escalate to parking, then poison.
        std::thread::sleep(Duration::from_millis(20));
        let t0 = Instant::now();
        wd.poison("P0 panicked: boom");
        let err = h.join().unwrap().unwrap_err();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "poison took {:?} to propagate",
            t0.elapsed()
        );
        match err {
            SyncError::Poisoned {
                site: 3,
                pid: 1,
                cause,
            } => {
                assert!(cause.contains("boom"), "{cause}");
            }
            other => panic!("expected Poisoned, got {other:?}"),
        }
    }

    #[test]
    fn first_poison_cause_wins() {
        let wd = Watchdog::new(Duration::from_secs(1));
        wd.poison("first");
        wd.poison("second");
        assert_eq!(wd.poison_cause().as_deref(), Some("first"));
    }

    #[test]
    fn status_word_stamps_epochs_and_poison() {
        let wd = Watchdog::new(Duration::from_secs(1));
        // The wake epoch: the status word above the poison bit.
        let epoch = |wd: &Watchdog| wd.status.load(Ordering::Acquire) >> 1;
        assert_eq!(epoch(&wd), 0);
        assert!(!wd.is_poisoned());
        wd.spurious_wake();
        assert_eq!(epoch(&wd), 1);
        assert!(!wd.is_poisoned());
        wd.poison("x");
        assert_eq!(epoch(&wd), 2);
        assert!(wd.is_poisoned());
        wd.spurious_wake();
        assert_eq!(epoch(&wd), 3);
        assert!(wd.is_poisoned(), "wakes never clear poison");
    }

    #[test]
    fn spurious_wake_does_not_fail_the_wait() {
        let wd = Arc::new(Watchdog::new(Duration::from_secs(30)));
        let c = Arc::new(AtomicU64::new(0));
        let h = {
            let wd = Arc::clone(&wd);
            let c = Arc::clone(&c);
            std::thread::spawn(move || wait_on(&wd, &c, 1, 0, 1))
        };
        std::thread::sleep(Duration::from_millis(10));
        wd.spurious_wake();
        std::thread::sleep(Duration::from_millis(10));
        c.store(1, Ordering::Release);
        assert!(h.join().unwrap().is_ok());
    }

    /// A deadline names the wait as reports name it.
    #[test]
    fn deadline_text_names_the_site_and_the_wait() {
        let deadline = SyncError::DeadlineExceeded {
            site: 3,
            pid: 0,
            kind: SyncKind::Barrier,
            expected: 2,
            observed: 1,
        };
        assert_eq!(
            deadline.to_string(),
            "deadline exceeded at s3 on P0: barrier wait needed 2, observed 1"
        );
    }

    #[test]
    fn eager_park_policy_still_meets_the_deadline_contract() {
        let wd = Watchdog::new(Duration::from_millis(30));
        let c = AtomicU64::new(0);
        let t0 = Instant::now();
        let err = wd
            .guarded_wait(1, 0, SyncKind::Counter, 1, SpinPolicy::eager_park(), || {
                let v = c.load(Ordering::Acquire);
                if v >= 1 {
                    WaitPoll::Ready
                } else {
                    WaitPoll::Pending(v)
                }
            })
            .unwrap_err();
        assert!(matches!(err, SyncError::DeadlineExceeded { .. }));
        // Sampled contract: fires within deadline + slice + scheduling
        // noise, never unbounded.
        assert!(t0.elapsed() < Duration::from_secs(5));
    }
}
