//! Always-on sync profiler: per-thread lock-free event rings.
//!
//! Every profiled execution carries one [`Profiler`] whose tracks are
//! single-writer ring buffers of compact fixed-size [`ProfileEvent`]s:
//! sync arrivals/releases per canonical site, region begin/end,
//! checkpoint/rollback/retry marks from the recovery supervisor,
//! spin → yield → park escalation transitions, and FME-cache hit/miss
//! spans from the optimizer. The rings never block and never allocate
//! on the hot path: a writer stamps a monotonic `Instant`-derived
//! nanosecond timestamp, stores the event at `head & mask`, and bumps
//! `head` — when the ring is full the oldest event is overwritten and
//! counted as a drop, so the profiler's cost is bounded no matter how
//! long a run is.
//!
//! The single-writer contract: track `t` is written only by the thread
//! that owns it, and only through an explicit [`Profiler::record`] /
//! [`Profiler::record_at`] call — there is no ambient recorder. Worker
//! `pid`'s sync step writes track `pid`, escalation marks included (it
//! reads them off the [`crate::WaitEffort`] each wait returns; the
//! primitives themselves record nothing); the recovery supervisor
//! writes the extra track [`Profiler::supervisor_track`]; a profiled
//! compile's driver owns a profiler of its own and writes its track 0.
//! Slots are stored as relaxed atomic words, so the API is sound from
//! safe code unconditionally: a [`Profiler::snapshot`] that races an
//! active writer is memory-safe, it can merely observe a torn event
//! (fields mixed from two pushes into the same slot). Callers who need
//! an *exact* stream — the executor, the recovery supervisor — read
//! only while writers are quiescent (after the team run returned).
//!
//! Events are *epoch-stamped*: the recovery supervisor bumps
//! [`Profiler::bump_epoch`] before each retry attempt (each of which
//! runs on fresh sync primitives, under the same profiler), so the
//! merged stream can separate the final attempt's episodes from the
//! abandoned ones without clearing anything.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Site value for events that have no canonical sync site (region
/// markers, escalations of dispatch-gate waits, supervisor marks, FME
/// spans).
pub const NO_SITE: u32 = u32::MAX;

/// What one [`ProfileEvent`] records.
#[repr(u8)]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A processor reached a sync site (`arg` = 0-based dynamic visit).
    SyncArrive,
    /// The same processor was released from the site (`arg` = wait ns).
    SyncRelease,
    /// A processor entered its region traversal.
    RegionBegin,
    /// A processor left its region traversal (completed or faulted).
    RegionEnd,
    /// The supervisor captured the write-set checkpoint (`arg` = cells).
    Checkpoint,
    /// The supervisor rolled memory back to the checkpoint (`arg` =
    /// cells restored).
    Rollback,
    /// The supervisor launched a retry (`arg` = 1-based attempt number
    /// of the attempt that failed).
    Retry,
    /// A completed wait escalated from spinning to `yield_now` (`arg` =
    /// spin rounds burned before the transition). Stamped when the wait
    /// ends — inside its site's arrive/release interval — and carrying
    /// the wait's site ([`NO_SITE`] for the dispatch gate).
    EscalateYield,
    /// A completed wait escalated to bounded parks (`arg` = yield
    /// rounds burned before the transition). Stamped and sited like
    /// [`EventKind::EscalateYield`].
    EscalatePark,
    /// One optimizer pair query served from warm memo/FME state
    /// (`arg` = query duration ns; recorded at query end, so the span
    /// is `[t_ns - arg, t_ns]`).
    FmeHit,
    /// One optimizer pair query that ran fresh FME eliminations
    /// (`arg` = query duration ns, recorded at query end).
    FmeMiss,
}

impl EventKind {
    /// Every kind, indexed by its `#[repr(u8)]` discriminant (the slot
    /// encoding round-trips through this table).
    const ALL: [EventKind; 11] = [
        EventKind::SyncArrive,
        EventKind::SyncRelease,
        EventKind::RegionBegin,
        EventKind::RegionEnd,
        EventKind::Checkpoint,
        EventKind::Rollback,
        EventKind::Retry,
        EventKind::EscalateYield,
        EventKind::EscalatePark,
        EventKind::FmeHit,
        EventKind::FmeMiss,
    ];

    fn from_u8(v: u8) -> EventKind {
        *Self::ALL.get(v as usize).unwrap_or(&EventKind::RegionBegin)
    }

    /// Stable lowercase name (used by JSON and trace output).
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::SyncArrive => "sync-arrive",
            EventKind::SyncRelease => "sync-release",
            EventKind::RegionBegin => "region-begin",
            EventKind::RegionEnd => "region-end",
            EventKind::Checkpoint => "checkpoint",
            EventKind::Rollback => "rollback",
            EventKind::Retry => "retry",
            EventKind::EscalateYield => "escalate-yield",
            EventKind::EscalatePark => "escalate-park",
            EventKind::FmeHit => "fme-hit",
            EventKind::FmeMiss => "fme-miss",
        }
    }
}

/// One compact fixed-size profile record (24 bytes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProfileEvent {
    /// Nanoseconds since the profiler's base instant.
    pub t_ns: u64,
    /// Kind-specific payload (see [`EventKind`]).
    pub arg: u64,
    /// Canonical sync-site id, or [`NO_SITE`].
    pub site: u32,
    /// Writer track (worker pid, or the supervisor track). The slot
    /// encoding keeps 12 bits of it (tracks are worker pids plus one
    /// supervisor — far below 4096).
    pub track: u16,
    /// Recovery attempt epoch (0 on the first attempt). Saturates at
    /// `u16::MAX` — see [`Profiler::epoch`].
    pub epoch: u16,
    /// What happened.
    pub kind: EventKind,
}

/// Profiling knobs threaded through the executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProfileOptions {
    /// Ring capacity per track, rounded up to a power of two. When a
    /// track records more events than this, the oldest are overwritten
    /// and counted as drops — recording never blocks.
    pub capacity: usize,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        // 16Ki events × 24B = 384KiB per track: enough for every
        // shipped kernel at its default scale with zero drops.
        ProfileOptions { capacity: 1 << 14 }
    }
}

/// One slot: a [`ProfileEvent`] as three relaxed atomic words, so a
/// reader racing the writer can never invoke undefined behavior from
/// safe code — the worst a race yields is a torn (mixed-field) event.
/// The meta word packs `site | track << 32 | epoch << 44 | kind << 60`
/// (track 12 bits, epoch 16 bits, kind 4 bits — [`EventKind`] must
/// stay within 16 variants, checked below).
struct Slot {
    t_ns: AtomicU64,
    arg: AtomicU64,
    meta: AtomicU64,
}

// The 4-bit kind field of the slot encoding.
const _: () = assert!(EventKind::ALL.len() <= 16);

impl Slot {
    fn store(&self, ev: &ProfileEvent) {
        self.t_ns.store(ev.t_ns, Ordering::Relaxed);
        self.arg.store(ev.arg, Ordering::Relaxed);
        let meta = ev.site as u64
            | ((ev.track & 0xFFF) as u64) << 32
            | (ev.epoch as u64) << 44
            | (ev.kind as u64) << 60;
        self.meta.store(meta, Ordering::Relaxed);
    }

    fn load(&self) -> ProfileEvent {
        let meta = self.meta.load(Ordering::Relaxed);
        ProfileEvent {
            t_ns: self.t_ns.load(Ordering::Relaxed),
            arg: self.arg.load(Ordering::Relaxed),
            site: meta as u32,
            track: ((meta >> 32) & 0xFFF) as u16,
            epoch: ((meta >> 44) & 0xFFFF) as u16,
            kind: EventKind::from_u8((meta >> 60) as u8),
        }
    }
}

/// One single-writer ring. `head` counts every push ever made; the live
/// window is the last `min(head, capacity)` events.
struct EventRing {
    mask: usize,
    slots: Box<[Slot]>,
    head: AtomicU64,
}

impl EventRing {
    fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        EventRing {
            mask: cap - 1,
            slots: (0..cap)
                .map(|_| Slot {
                    t_ns: AtomicU64::new(0),
                    arg: AtomicU64::new(0),
                    meta: AtomicU64::new(0),
                })
                .collect(),
            head: AtomicU64::new(0),
        }
    }

    #[inline]
    fn push(&self, ev: ProfileEvent) {
        // Single writer: no other thread stores to these slots or head.
        let h = self.head.load(Ordering::Relaxed);
        self.slots[(h as usize) & self.mask].store(&ev);
        self.head.store(h + 1, Ordering::Release);
    }

    /// Copy out the live window (oldest-first) and the drop count.
    /// Exact only while the writer is quiescent; a racing drain is
    /// memory-safe but may return torn events (see module docs).
    fn drain(&self) -> (Vec<ProfileEvent>, u64) {
        let h = self.head.load(Ordering::Acquire) as usize;
        let cap = self.mask + 1;
        let kept = h.min(cap);
        let mut out = Vec::with_capacity(kept);
        for i in (h - kept)..h {
            out.push(self.slots[i & self.mask].load());
        }
        (out, (h - kept) as u64)
    }
}

/// The merged, analysis-ready result of one profiled execution.
#[derive(Clone, Debug, Default)]
pub struct ProfileData {
    /// Writer tracks (workers + supervisor).
    pub tracks: usize,
    /// Ring capacity per track (after power-of-two rounding).
    pub capacity: usize,
    /// Events overwritten across all tracks (0 on a well-sized ring).
    pub dropped: u64,
    /// Every live event, sorted by `(t_ns, track)`.
    pub events: Vec<ProfileEvent>,
}

impl ProfileData {
    /// Total events ever recorded (live + dropped) — the accounting
    /// identity `attempted == events.len() + dropped` always holds.
    pub fn attempted(&self) -> u64 {
        self.events.len() as u64 + self.dropped
    }
}

/// A profiled execution's clock, epoch, and per-track rings.
pub struct Profiler {
    base: Instant,
    /// Nanoseconds subtracted from every timestamp (see
    /// [`Profiler::rebase_if_unused`]).
    offset_ns: AtomicU64,
    epoch: AtomicU64,
    rings: Vec<EventRing>,
    capacity: usize,
}

impl Profiler {
    /// A profiler with `tracks` single-writer rings (workers 0..P-1
    /// plus, by convention, one supervisor track at index P).
    pub fn new(tracks: usize, opts: ProfileOptions) -> Self {
        let capacity = opts.capacity.max(2).next_power_of_two();
        Profiler {
            base: Instant::now(),
            offset_ns: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            rings: (0..tracks.max(1))
                .map(|_| EventRing::new(capacity))
                .collect(),
            capacity,
        }
    }

    /// Number of tracks.
    pub fn tracks(&self) -> usize {
        self.rings.len()
    }

    /// The conventional supervisor track (last ring).
    pub fn supervisor_track(&self) -> usize {
        self.rings.len() - 1
    }

    /// Nanoseconds on the profiler clock right now.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// Where the instant `t` falls on the profiler clock — lets a caller
    /// that already read the clock (the executor's sync step) stamp its
    /// events without reading it again.
    #[inline]
    pub fn ns_at(&self, t: Instant) -> u64 {
        (t.saturating_duration_since(self.base).as_nanos() as u64)
            .saturating_sub(self.offset_ns.load(Ordering::Relaxed))
    }

    /// Zero the clock at the current instant — but only when nothing
    /// was recorded yet. The executor calls this at its run `t0` so
    /// profile timestamps share the trace timeline's origin on the
    /// first attempt, while the later attempts of a supervised run,
    /// which share the profiler, keep its monotonic clock.
    pub fn rebase_if_unused(&self) {
        if self
            .rings
            .iter()
            .all(|r| r.head.load(Ordering::Relaxed) == 0)
        {
            self.offset_ns
                .store(self.base.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Current recovery epoch. Saturates at `u16::MAX` (65535): a run
    /// that retries more than 65535 times stamps every later event with
    /// the saturated epoch, so episode keys from those attempts can
    /// collide — the analyzer counts the events carrying the saturated
    /// stamp exactly (`epoch_clamp`) instead of reporting bogus
    /// episodes.
    pub fn epoch(&self) -> u16 {
        self.epoch.load(Ordering::Relaxed).min(u16::MAX as u64) as u16
    }

    /// Stamp all later events with the next epoch (called by the
    /// recovery supervisor between attempts; rings are kept).
    pub fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an event stamped with the current time.
    #[inline]
    pub fn record(&self, track: usize, kind: EventKind, site: u32, arg: u64) {
        let t = self.now_ns();
        self.record_at(track, kind, site, arg, t);
    }

    /// Record an event with an explicit timestamp (taken from
    /// [`Profiler::now_ns`] by the caller, e.g. to reuse one clock read
    /// for both the event and a wait-duration computation).
    #[inline]
    pub fn record_at(&self, track: usize, kind: EventKind, site: u32, arg: u64, t_ns: u64) {
        self.rings[track].push(ProfileEvent {
            t_ns,
            arg,
            site,
            track: track as u16,
            epoch: self.epoch(),
            kind,
        });
    }

    /// Merge every track's live window into one time-sorted stream.
    /// Always memory-safe; *exact* only while all writers are quiescent
    /// (the team run has returned), else racing pushes can surface as
    /// torn events. Non-destructive — rings keep accumulating
    /// afterwards, so the recovery supervisor can snapshot once at the
    /// very end and see all attempts.
    pub fn snapshot(&self) -> ProfileData {
        let mut events = Vec::new();
        let mut dropped = 0u64;
        for ring in &self.rings {
            let (evs, d) = ring.drain();
            events.extend(evs);
            dropped += d;
        }
        events.sort_by_key(|e| (e.t_ns, e.track, e.site));
        ProfileData {
            tracks: self.rings.len(),
            capacity: self.capacity,
            dropped,
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        let p = Profiler::new(1, ProfileOptions { capacity: 100 });
        assert_eq!(p.capacity, 128);
        let p = Profiler::new(1, ProfileOptions { capacity: 0 });
        assert_eq!(p.capacity, 2);
    }

    #[test]
    fn overflow_drops_oldest_and_accounts_exactly() {
        let p = Profiler::new(1, ProfileOptions { capacity: 8 });
        for k in 0..20u64 {
            p.record(0, EventKind::SyncArrive, 3, k);
        }
        let d = p.snapshot();
        assert_eq!(d.events.len(), 8);
        assert_eq!(d.dropped, 12);
        assert_eq!(d.attempted(), 20);
        // The live window is the newest events, oldest-first.
        let args: Vec<u64> = d.events.iter().map(|e| e.arg).collect();
        assert_eq!(args, (12..20).collect::<Vec<u64>>());
    }

    #[test]
    fn snapshot_merges_tracks_in_time_order() {
        let p = Profiler::new(3, ProfileOptions::default());
        p.record_at(2, EventKind::SyncArrive, 0, 0, 30);
        p.record_at(0, EventKind::SyncArrive, 0, 0, 10);
        p.record_at(1, EventKind::SyncRelease, 0, 5, 20);
        let d = p.snapshot();
        let ts: Vec<u64> = d.events.iter().map(|e| e.t_ns).collect();
        assert_eq!(ts, vec![10, 20, 30]);
        assert_eq!(d.dropped, 0);
        assert_eq!(d.tracks, 3);
    }

    #[test]
    fn epoch_stamps_later_events() {
        let p = Profiler::new(2, ProfileOptions::default());
        p.record(0, EventKind::SyncArrive, 0, 0);
        p.bump_epoch();
        p.record(0, EventKind::SyncArrive, 0, 1);
        let d = p.snapshot();
        assert_eq!(d.events[0].epoch, 0);
        assert_eq!(d.events[1].epoch, 1);
        assert_eq!(p.supervisor_track(), 1);
    }

    #[test]
    fn concurrent_single_writer_tracks_lose_nothing() {
        let p = Arc::new(Profiler::new(4, ProfileOptions { capacity: 1 << 12 }));
        let n = 1000u64;
        let handles: Vec<_> = (0..4usize)
            .map(|t| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    for k in 0..n {
                        p.record(t, EventKind::SyncArrive, t as u32, k);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let d = p.snapshot();
        assert_eq!(d.events.len(), 4 * n as usize);
        assert_eq!(d.dropped, 0);
        for t in 0..4u16 {
            let mine: Vec<u64> = d
                .events
                .iter()
                .filter(|e| e.track == t)
                .map(|e| e.arg)
                .collect();
            assert_eq!(mine.len(), n as usize);
            // Per-track order survives the time-sorted merge (timestamps
            // are monotone per writer).
            assert!(mine.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn rebase_only_applies_to_unused_profilers() {
        let p = Profiler::new(1, ProfileOptions::default());
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.rebase_if_unused();
        let t = p.now_ns();
        assert!(t < 2_000_000, "clock rebased to ~0, got {t}");
        p.record(0, EventKind::RegionBegin, NO_SITE, 0);
        let before = p.snapshot().events[0].t_ns;
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.rebase_if_unused(); // no-op: events exist
        assert_eq!(p.snapshot().events[0].t_ns, before);
        assert!(p.now_ns() > before);
    }

    #[test]
    fn epoch_saturates_at_u16_max() {
        let p = Profiler::new(1, ProfileOptions::default());
        for _ in 0..(u16::MAX as u32 + 10) {
            p.bump_epoch();
        }
        assert_eq!(p.epoch(), u16::MAX);
        p.record(0, EventKind::SyncArrive, 0, 0);
        assert_eq!(p.snapshot().events[0].epoch, u16::MAX);
    }

    #[test]
    fn event_is_compact() {
        // The decoded struct; ring storage is the 3-word Slot (24B).
        assert!(std::mem::size_of::<ProfileEvent>() <= 32);
    }

    #[test]
    fn slot_encoding_round_trips_every_field() {
        for &kind in EventKind::ALL.iter() {
            let want = ProfileEvent {
                t_ns: u64::MAX - 1,
                arg: 7,
                site: 1_234_567,
                track: 513,
                epoch: 40_000,
                kind,
            };
            let ring = EventRing::new(2);
            ring.push(want);
            let (evs, dropped) = ring.drain();
            assert_eq!(dropped, 0);
            assert_eq!(evs, vec![want]);
            assert_eq!(EventKind::from_u8(kind as u8), kind);
        }
    }
}
