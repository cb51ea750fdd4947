//! Tunable spin → `pause` → park escalation for the pure-atomic fast
//! paths.
//!
//! Every blocking primitive in this crate waits the same way: a short
//! burst of `spin_loop` hints (cheap, keeps the cache line hot), then
//! cooperative `yield_now` rounds (essential when the team is
//! oversubscribed — the producer needs the core), then bounded
//! `park_timeout` slices (stops burning a core on waits that are
//! already many OS quanta long). The thresholds between the phases are
//! the *park threshold* of the ghc-openmp journey and the spin/park
//! policy knob of the 1024-core RISC-V barrier study: the right values
//! depend on how the team maps onto the machine, so every primitive
//! starts its waits under the topology-aware [`SpinPolicy::auto`]
//! (only [`crate::Watchdog::guarded_wait`] takes a policy argument, so
//! a test can force the full ladder with [`SpinPolicy::eager_park`]).
//!
//! [`SpinWait`] is the per-wait escalation state machine. Pure waits
//! call [`SpinWait::snooze`] in their poll loop; the guarded wait in
//! [`crate::fault`] instead asks [`SpinWait::advise`] which phase is
//! next and performs the park itself (it must register with the
//! watchdog so poison can wake it). Either way the ladder only counts:
//! the counts come back as the wait's [`WaitEffort`], and the waiter —
//! the executor's sync step — turns them into its totals and its
//! escalation marks, so it can report how often waits escalated past
//! spinning — the telemetry that tells a convoying schedule from a
//! healthy one.

use std::time::Duration;

/// Escalation thresholds for one blocking wait.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpinPolicy {
    /// Polls spent issuing `spin_loop` hints before yielding.
    pub spin_limit: u32,
    /// Polls spent in `yield_now` before escalating to parking — the
    /// tunable park threshold.
    pub yield_limit: u32,
    /// Longest interval one park lasts before the waiter self-wakes and
    /// re-polls its condition.
    pub park_slice: Duration,
}

/// Cores available to this process, probed once: the probe reads the
/// affinity mask and cgroup quota (about 20 µs), and every wait reads
/// [`SpinPolicy::auto`] when it starts.
pub(crate) fn host_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

impl SpinPolicy {
    /// A policy with explicit thresholds.
    pub const fn new(spin_limit: u32, yield_limit: u32, park_slice: Duration) -> Self {
        SpinPolicy {
            spin_limit,
            yield_limit,
            park_slice,
        }
    }

    /// Topology-aware default: on a multi-core host a waiter spins
    /// longer (the producer is likely running right now); on a single
    /// core spinning is pure waste, so the waiter yields almost
    /// immediately to hand the producer the core. Both keep a generous
    /// yield phase and park late in small slices, so the common case
    /// never sleeps but a stalled wait stops burning the core.
    pub fn auto() -> Self {
        let spin_limit = if host_cores() > 1 { 64 } else { 4 };
        SpinPolicy::new(spin_limit, 256, Duration::from_micros(100))
    }

    /// Park as early as possible (no spin phase, one yield): the
    /// stress-test policy that forces every wait through the full
    /// escalation ladder, and a sensible choice when the team heavily
    /// oversubscribes the machine.
    pub const fn eager_park() -> Self {
        SpinPolicy::new(0, 1, Duration::from_micros(50))
    }
}

impl Default for SpinPolicy {
    fn default() -> Self {
        SpinPolicy::auto()
    }
}

/// Which action a waiter takes for one poll round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpinPhase {
    /// Issue a `spin_loop` hint and re-poll.
    Spin,
    /// `yield_now` and re-poll.
    Yield,
    /// Park for at most one [`SpinPolicy::park_slice`].
    Park,
}

/// Escalation counts of one completed wait — what every blocking
/// primitive returns, and the unit [`crate::stats::StatsSnapshot`]
/// aggregates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WaitEffort {
    /// `spin_loop`-hint rounds.
    pub spins: u64,
    /// `yield_now` rounds.
    pub yields: u64,
    /// Bounded parks.
    pub parks: u64,
}

impl std::ops::AddAssign for WaitEffort {
    fn add_assign(&mut self, o: WaitEffort) {
        self.spins += o.spins;
        self.yields += o.yields;
        self.parks += o.parks;
    }
}

/// Per-wait escalation state machine (create one per blocked wait; it
/// is cheap — three counters and a copied policy).
#[derive(Clone, Debug)]
pub struct SpinWait {
    policy: SpinPolicy,
    effort: WaitEffort,
}

impl SpinWait {
    /// A fresh escalation ladder under `policy`.
    pub fn new(policy: SpinPolicy) -> Self {
        SpinWait {
            policy,
            effort: WaitEffort::default(),
        }
    }

    /// Decide (and count) the next phase without performing it. The
    /// guarded wait uses this so it can sample the watchdog exactly on
    /// park transitions and do its own registered park.
    pub fn advise(&mut self) -> SpinPhase {
        if self.effort.spins < self.policy.spin_limit as u64 {
            self.effort.spins += 1;
            SpinPhase::Spin
        } else if self.effort.yields < self.policy.yield_limit as u64 {
            self.effort.yields += 1;
            SpinPhase::Yield
        } else {
            self.effort.parks += 1;
            SpinPhase::Park
        }
    }

    /// One escalation step for pure (unguarded) waits: advise, then
    /// perform the wait. Parks here are unregistered — only the
    /// `park_slice` timeout wakes the thread, which is exactly the
    /// fast-path contract: producers never pay to wake consumers.
    pub fn snooze(&mut self) {
        match self.advise() {
            SpinPhase::Spin => std::hint::spin_loop(),
            SpinPhase::Yield => std::thread::yield_now(),
            SpinPhase::Park => std::thread::park_timeout(self.policy.park_slice),
        }
    }

    /// The escalation counts so far.
    pub fn effort(&self) -> WaitEffort {
        self.effort
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_escalate_in_order_and_are_counted() {
        let mut sw = SpinWait::new(SpinPolicy::new(2, 3, Duration::from_micros(10)));
        let phases: Vec<SpinPhase> = (0..7).map(|_| sw.advise()).collect();
        assert_eq!(
            phases,
            vec![
                SpinPhase::Spin,
                SpinPhase::Spin,
                SpinPhase::Yield,
                SpinPhase::Yield,
                SpinPhase::Yield,
                SpinPhase::Park,
                SpinPhase::Park,
            ]
        );
        assert_eq!(
            sw.effort(),
            WaitEffort {
                spins: 2,
                yields: 3,
                parks: 2
            }
        );
    }

    #[test]
    fn eager_park_policy_skips_spinning() {
        let mut sw = SpinWait::new(SpinPolicy::eager_park());
        assert_eq!(sw.advise(), SpinPhase::Yield);
        assert_eq!(sw.advise(), SpinPhase::Park);
    }

    #[test]
    fn snooze_terminates_even_in_park_phase() {
        // A parked snooze must self-wake within the slice: time a few.
        let mut sw = SpinWait::new(SpinPolicy::new(0, 0, Duration::from_micros(50)));
        let t0 = std::time::Instant::now();
        for _ in 0..3 {
            sw.snooze();
        }
        assert!(t0.elapsed() < Duration::from_secs(2));
        assert_eq!(sw.effort().parks, 3);
    }

    #[test]
    fn auto_policy_is_sane() {
        let p = SpinPolicy::auto();
        assert!(p.yield_limit > 0);
        assert!(p.park_slice > Duration::ZERO);
        assert!(p.park_slice < Duration::from_millis(10));
    }
}
