//! Recovery policy for retried SPMD regions: retry budget, exponential
//! backoff, and the per-run quarantine ledger.
//!
//! The fault layer ([`fault`](crate::fault)) *detects* a failed region;
//! this module decides what to do next. The executor's recovery loop
//! (in the `interp` crate) consults a [`RetryPolicy`] for how many
//! attempts it may spend and how long to back off between them, and a
//! [`Quarantine`] ledger for the escalation ladder at each faulting
//! canonical sync site:
//!
//! 1. **first fault** at a site — the optimized sync op there is
//!    *demoted* to a full barrier (`spmd_opt::demote_site`), the
//!    conservative fork-join placement the paper's optimizer started
//!    from;
//! 2. **second fault** at the same site — demotion did not help, so the
//!    site is *quarantined*: the site rides out the rest of the run
//!    with its barrier and any injected dropped posts at it are masked
//!    (a deterministic injector would otherwise re-kill every retry);
//! 3. **third fault** at the same site — the fault is not local to the
//!    site (a dropped barrier arrival *aliases*: the shared barrier
//!    back-fills the skipped arrival with the dropper's next one, and
//!    the wedge surfaces at its last barrier site instead), so the
//!    supervisor *isolates* the run: every injected dropped post is
//!    masked, everywhere;
//! 4. faults with no attributable site (worker panics, dispatch
//!    timeouts) are plainly retried against the rolled-back memory.
//!
//! The ladder bounds convergence: a persistent single dropped post
//! implicates at most three distinct sites (the true site, plus the
//! alias target before and after the true site's demotion changes its
//! primitive), and isolation fires as soon as any one of them records
//! a third fault — at worst after 2+2+3 = 7 failed attempts — so the
//! run completes by attempt eight, inside the default budget of nine.
//!
//! Backoff is deterministic (`base * 2^(attempt-1)`, capped), so a
//! fault report can print the exact timeline without wall-clock noise.

use std::collections::BTreeMap;
use std::time::Duration;

/// Sticky-fault classification threshold: when the same processor is
/// the suspect of this many *consecutive* failed attempts, a supervisor
/// that can re-plan at a smaller width treats it as a permanent
/// processor loss instead of a flaky sync site.
pub const STICKY_PID_K: u32 = 2;

/// Bounds on the recovery loop.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total executions allowed, counting the first (a budget of 1
    /// means no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff interval.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            // Enough for the worst three-site ladder interleaving of a
            // single persistent drop (see module docs: 7 failed
            // attempts, clean on the 8th) with one attempt spare.
            max_attempts: 9,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(200),
        }
    }
}

impl RetryPolicy {
    /// The planned backoff before retry number `retry` (1-based: the
    /// sleep after the first failed attempt is `backoff_before(1)`).
    /// Deterministic exponential: `base * 2^(retry-1)`, capped.
    pub fn backoff_before(&self, retry: u32) -> Duration {
        if retry == 0 {
            return Duration::ZERO;
        }
        let shift = (retry - 1).min(16);
        let d = self
            .backoff_base
            .saturating_mul(1u32.checked_shl(shift).unwrap_or(u32::MAX));
        d.min(self.backoff_cap)
    }
}

/// What the escalation ladder prescribes for a newly recorded fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultDisposition {
    /// First fault at the site: demote its sync op to a full barrier.
    Demote,
    /// Second fault at the site: quarantine it (mask injected drops
    /// there for the rest of the run).
    Quarantine,
    /// Third fault at the site: quarantine was not enough — the fault
    /// originates elsewhere (barrier aliasing) — so mask every injected
    /// drop for the rest of the run.
    Isolate,
    /// The ladder is exhausted at this site (or the fault has no
    /// site): plain retry.
    Retry,
}

impl FaultDisposition {
    /// Stable lower-case name (report vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            FaultDisposition::Demote => "demote",
            FaultDisposition::Quarantine => "quarantine",
            FaultDisposition::Isolate => "isolate",
            FaultDisposition::Retry => "retry",
        }
    }
}

/// Per-round ledger of faulting canonical sync sites *and* processors:
/// how often each site faulted, and the suspect streak the
/// sticky-fault classifier reads.
#[derive(Clone, Debug, Default)]
pub struct Quarantine {
    faults: BTreeMap<usize, u32>,
    /// The pid implicated by the most recent attempts and for how many
    /// consecutive attempts it has been the primary suspect.
    streak_pid: Option<usize>,
    streak: u32,
}

impl Quarantine {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one fault attributed to `site` and return the ladder's
    /// disposition for it.
    pub fn record_fault(&mut self, site: usize) -> FaultDisposition {
        let n = self.faults.entry(site).or_insert(0);
        *n += 1;
        match *n {
            1 => FaultDisposition::Demote,
            2 => FaultDisposition::Quarantine,
            3 => FaultDisposition::Isolate,
            _ => FaultDisposition::Retry,
        }
    }

    /// Record the suspect processor of one failed attempt (`None` when
    /// the attempt had no attributable pid) and return the length of
    /// the suspect's current consecutive-attempt streak (0 when no
    /// suspect). This feeds the sticky-fault classifier: a streak
    /// reaching [`STICKY_PID_K`] means the pid is a permanent processor
    /// loss, not a flaky site.
    pub fn record_attempt_suspect(&mut self, pid: Option<usize>) -> u32 {
        match pid {
            Some(p) => {
                if self.streak_pid == Some(p) {
                    self.streak += 1;
                } else {
                    self.streak_pid = Some(p);
                    self.streak = 1;
                }
                self.streak
            }
            None => {
                self.streak_pid = None;
                self.streak = 0;
                0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy {
            max_attempts: 10,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(40),
        };
        assert_eq!(p.backoff_before(0), Duration::ZERO);
        assert_eq!(p.backoff_before(1), Duration::from_millis(5));
        assert_eq!(p.backoff_before(2), Duration::from_millis(10));
        assert_eq!(p.backoff_before(3), Duration::from_millis(20));
        assert_eq!(p.backoff_before(4), Duration::from_millis(40));
        // Capped from here on.
        assert_eq!(p.backoff_before(9), Duration::from_millis(40));
        assert_eq!(p.backoff_before(30), Duration::from_millis(40));
    }

    #[test]
    fn ladder_escalates_demote_quarantine_isolate_then_retry() {
        let mut q = Quarantine::new();
        assert_eq!(q.record_fault(3), FaultDisposition::Demote);
        assert_eq!(q.record_fault(3), FaultDisposition::Quarantine);
        // Independent ladders per site: a fresh site starts at the
        // bottom while another is mid-ladder.
        assert_eq!(q.record_fault(7), FaultDisposition::Demote);
        assert_eq!(q.record_fault(3), FaultDisposition::Isolate);
        assert_eq!(q.record_fault(3), FaultDisposition::Retry);
        assert_eq!(q.record_fault(3), FaultDisposition::Retry);
        assert_eq!(q.record_fault(7), FaultDisposition::Quarantine);
    }

    #[test]
    fn suspect_streak_counts_consecutive_attempts_only() {
        let mut q = Quarantine::new();
        assert_eq!(q.record_attempt_suspect(Some(2)), 1);
        assert_eq!(q.record_attempt_suspect(Some(2)), 2);
        // A different suspect restarts the streak.
        assert_eq!(q.record_attempt_suspect(Some(0)), 1);
        // An unattributable attempt breaks any streak.
        assert_eq!(q.record_attempt_suspect(None), 0);
        assert_eq!(q.record_attempt_suspect(Some(0)), 1);
        assert_eq!(q.record_attempt_suspect(Some(0)), 2);
        // Site faults do not touch the suspect streak.
        assert_eq!(q.record_fault(5), FaultDisposition::Demote);
        assert_eq!(q.record_attempt_suspect(Some(0)), 3);
    }
}
