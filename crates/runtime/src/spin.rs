//! The one spin → `pause` → park escalation ladder under every
//! blocking wait.
//!
//! Every blocking primitive in this crate waits the same way: a short
//! burst of `spin_loop` hints (cheap, keeps the cache line hot), then
//! cooperative `yield_now` rounds (essential when the team is
//! oversubscribed — the producer needs the core), then bounded
//! `park_timeout` slices (stops burning a core on waits that are
//! already many OS quanta long). The thresholds between the phases are
//! fixed: [`spin_limit`] spins (64 on a multi-core host, 4 on one
//! core), [`YIELD_LIMIT`] yields, then parks of [`PARK_TIMEOUT`] each.
//! The right values depend on the machine (the park threshold of the
//! ghc-openmp journey, the spin/park knob of the 1024-core RISC-V
//! barrier study), so the spin count follows the host's core count;
//! no caller sets them.
//!
//! The per-wait state machine is crate-private. Pure waits snooze in
//! their poll loop; the guarded wait in [`crate::fault`] instead asks
//! which phase is next and performs the park itself (it must register
//! with the watchdog so poison can wake it). Either way the ladder only
//! counts: the counts come back as the wait's [`WaitEffort`], and the
//! waiter — the executor's sync step — turns them into its totals and
//! its escalation marks, so it can report how often waits escalated
//! past spinning — the telemetry that tells a convoying schedule from a
//! healthy one.

use std::time::Duration;

/// Polls a wait spends in `yield_now` once its spins are used up,
/// before it parks.
pub const YIELD_LIMIT: u64 = 256;

/// Longest one park lasts before the waiter wakes itself and re-polls
/// its condition.
pub const PARK_TIMEOUT: Duration = Duration::from_micros(100);

/// Cores available to this process, probed once: the probe reads the
/// affinity mask and cgroup quota (about 20 µs), and every wait reads
/// [`spin_limit`] when it starts.
pub(crate) fn host_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Polls a wait spends issuing `spin_loop` hints before it yields. On a
/// multi-core host a waiter spins longer (the producer is likely
/// running right now); on a single core spinning is pure waste, so the
/// waiter yields almost at once to hand the producer the core.
pub fn spin_limit() -> u64 {
    if host_cores() > 1 {
        64
    } else {
        4
    }
}

/// Which action a waiter takes for one poll round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SpinPhase {
    /// Issue a `spin_loop` hint and re-poll.
    Spin,
    /// `yield_now` and re-poll.
    Yield,
    /// Park for at most [`PARK_TIMEOUT`].
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
/// is cheap — the spin limit and three counters).
#[derive(Clone, Debug)]
pub(crate) struct SpinWait {
    spin_limit: u64,
    effort: WaitEffort,
}

impl SpinWait {
    /// A fresh escalation ladder.
    pub(crate) fn new() -> Self {
        SpinWait {
            spin_limit: spin_limit(),
            effort: WaitEffort::default(),
        }
    }

    /// Decide (and count) the next phase without performing it. The
    /// guarded wait uses this so it can sample the watchdog exactly on
    /// park transitions and do its own registered park.
    pub(crate) fn advise(&mut self) -> SpinPhase {
        if self.effort.spins < self.spin_limit {
            self.effort.spins += 1;
            SpinPhase::Spin
        } else if self.effort.yields < YIELD_LIMIT {
            self.effort.yields += 1;
            SpinPhase::Yield
        } else {
            self.effort.parks += 1;
            SpinPhase::Park
        }
    }

    /// One escalation step for pure (unguarded) waits: advise, then
    /// perform the wait. Parks here are unregistered — only the
    /// [`PARK_TIMEOUT`] wakes the thread, which is exactly the
    /// fast-path contract: producers never pay to wake consumers.
    pub(crate) fn snooze(&mut self) {
        match self.advise() {
            SpinPhase::Spin => std::hint::spin_loop(),
            SpinPhase::Yield => std::thread::yield_now(),
            SpinPhase::Park => std::thread::park_timeout(PARK_TIMEOUT),
        }
    }

    /// The escalation counts so far.
    pub(crate) fn effort(&self) -> WaitEffort {
        self.effort
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_escalate_in_order_and_are_counted() {
        let mut sw = SpinWait::new();
        let phases: Vec<SpinPhase> = (0..spin_limit() + YIELD_LIMIT + 2)
            .map(|_| sw.advise())
            .collect();
        // Once a wait escalates it never steps back down.
        let order = [SpinPhase::Spin, SpinPhase::Yield, SpinPhase::Park];
        let rank = |p: &SpinPhase| order.iter().position(|q| q == p);
        assert!(phases.windows(2).all(|w| rank(&w[0]) <= rank(&w[1])));
        let count = |p| phases.iter().filter(|&&q| q == p).count() as u64;
        assert_eq!(count(SpinPhase::Park), 2);
        assert_eq!(
            sw.effort(),
            WaitEffort {
                spins: count(SpinPhase::Spin),
                yields: count(SpinPhase::Yield),
                parks: count(SpinPhase::Park)
            }
        );
    }

    /// The one ladder every wait climbs: 64 spins on a multi-core host
    /// (4 on one core), then 256 yields, then parks of 100 µs each.
    #[test]
    fn the_ladder_spins_then_yields_256_times_then_parks_in_100us_slices() {
        let spins = if host_cores() > 1 { 64 } else { 4 };
        assert_eq!(
            (spin_limit(), YIELD_LIMIT, PARK_TIMEOUT),
            (spins, 256, Duration::from_micros(100))
        );
        let mut sw = SpinWait::new();
        let phases: Vec<SpinPhase> = (0..spins + 256 + 3).map(|_| sw.advise()).collect();
        let expected: Vec<SpinPhase> = std::iter::repeat_n(SpinPhase::Spin, spins as usize)
            .chain(std::iter::repeat_n(SpinPhase::Yield, 256))
            .chain(std::iter::repeat_n(SpinPhase::Park, 3))
            .collect();
        assert_eq!(phases, expected);
        assert_eq!(
            sw.effort(),
            WaitEffort {
                spins,
                yields: 256,
                parks: 3
            }
        );
    }

    #[test]
    fn snooze_terminates_even_in_park_phase() {
        // A parked snooze must self-wake within the slice: climb to the
        // park phase, then time a few.
        let mut sw = SpinWait::new();
        for _ in 0..spin_limit() + YIELD_LIMIT {
            sw.snooze();
        }
        let t0 = std::time::Instant::now();
        for _ in 0..3 {
            sw.snooze();
        }
        assert!(t0.elapsed() < Duration::from_secs(2));
        assert_eq!(sw.effort().parks, 3);
    }
}
