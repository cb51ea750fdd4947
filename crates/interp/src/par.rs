//! Real-thread execution of a plan's walk on the `runtime` worker team.
//!
//! With [`ObserveOptions::deadline`] set, execution is *fault-guarded*:
//! every blocking wait goes through the runtime [`Watchdog`]
//! (spin → yield → park, deadline-bounded), worker panics poison the
//! region and wake parked peers, and any failure is returned as a
//! structured [`obs::FailureReport`] attributing the fault to a
//! canonical sync site and processor instead of hanging the process.
//! A [`SyncChaos`] injector can additionally perturb every sync event
//! (delays, stalls, spurious wakeups, dropped posts) to prove the
//! guards catch what they claim to catch.

use crate::events::{Cursor, DynCounts, Event, Schedule, Step, SyncStep};
use crate::kernel::Worker;
use crate::mem::Mem;
use analysis::Bindings;
use ir::Program;
use obs::{FailureReport, Span, SpanCat};
use runtime::events::{EventKind, ProfileData, ProfileOptions, Profiler, NO_SITE};
use runtime::fault::{ProcEnd, SyncError, Watchdog, DISPATCH_SITE};
use runtime::stats::{StatsSnapshot, SyncKind};
use runtime::telemetry::{CellSnapshot, SiteSnapshot};
use runtime::{BarrierEpoch, CellBank, CentralBarrier, GuardedCells, Team, WaitEffort};
use spmd_opt::SpmdProgram;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One blocking wait of the sync step: who waits (`pid`), where
/// (`site`), and how — an armed watchdog (`guard`: the cell bank
/// under it, as the attempt sees it) selects each primitive's
/// deadline-guarded wait, `None` its pure one. Either way the wait
/// hands back its escalation effort for the worker's recorder, and
/// with a `profiler` its escalations are marked first on the worker's
/// own track — the only writer of escalation marks there is.
#[derive(Clone, Copy)]
struct Waiter<'a> {
    guard: Option<&'a GuardedCells<'a>>,
    profiler: Option<&'a Profiler>,
    site: usize,
    pid: usize,
}

impl Waiter<'_> {
    /// Pass a wait's result on, marking how far a completed wait
    /// escalated (a failed one marks nothing, as it adds nothing to the
    /// totals). The marks carry the wait's site — none for the dispatch
    /// gate — and the time it ended, inside the step's arrive/release
    /// interval.
    fn done(self, r: Result<WaitEffort, SyncError>) -> Result<WaitEffort, SyncError> {
        if let (Some(p), Ok(e)) = (self.profiler, &r) {
            let site = if self.site == DISPATCH_SITE {
                NO_SITE
            } else {
                self.site as u32
            };
            if e.yields > 0 {
                p.record(self.pid, EventKind::EscalateYield, site, e.spins);
            }
            if e.parks > 0 {
                p.record(self.pid, EventKind::EscalatePark, site, e.yields);
            }
        }
        r
    }

    fn barrier(
        self,
        b: &CentralBarrier,
        epoch: &mut BarrierEpoch,
    ) -> Result<WaitEffort, SyncError> {
        self.done(match self.guard {
            Some(g) => b.wait_until(epoch, g.watchdog(), self.site, self.pid),
            None => Ok(b.wait(epoch)),
        })
    }

    /// Processor `other`'s `count`-th post, at a sync labelled `kind`.
    fn cell(
        self,
        c: &CellBank,
        other: usize,
        count: u64,
        kind: SyncKind,
    ) -> Result<WaitEffort, SyncError> {
        self.done(match self.guard {
            Some(cells) => cells.wait(other, count, kind, self.site, self.pid),
            None => Ok(c.wait(other as isize, count)),
        })
    }
}

/// The shared synchronization state of one attempt: the barrier, and
/// the cells every point-to-point sync posts to and waits on, plus one
/// more for the dispatch gate. It measures nothing — each worker's
/// `SyncRecorder` does.
///
/// A fabric lives for exactly one [`run_parallel_observed_on`] call and
/// is never reset: a failed attempt leaves the barrier mid-episode and
/// the cells part-way through their counts, and the retry gets a fresh
/// fabric. `Team::try_run` joins every worker before it returns, so no
/// waiter of one attempt outlives it.
struct SyncFabric {
    barrier: CentralBarrier,
    /// Cell `pid` per processor; cell `nprocs` is the dispatch gate,
    /// which P0 posts at every dispatch and no drop silences.
    cells: CellBank,
    /// Event-ring profiler shared by every attempt of a supervised run.
    profiler: Option<Arc<Profiler>>,
}

/// What a chaos injector may do to one sync event (see
/// [`SyncChaos::at_sync`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ChaosAction {
    /// Leave the event alone.
    #[default]
    None,
    /// Sleep before executing the event (perturbs arrival order; a
    /// long sleep models a stalled thread).
    Delay(Duration),
    /// Wake every guarded waiter parked on the watchdog without making
    /// any condition true (a correct waiter re-checks and re-parks).
    SpuriousWake,
    /// Drop the event's *post* half: the processor skips its barrier
    /// arrival, or the post to its cell — this one and every later one
    /// of the attempt. Consumers of the dropped post can only be
    /// released by the watchdog — this is the oracle's "teeth".
    Drop,
}

/// A deterministic fault-injection policy consulted at every sync
/// event of a guarded execution. Implementations must be pure
/// functions of their inputs (plus construction-time seed) so the same
/// seed injects the same schedule of faults on every run.
pub trait SyncChaos: Send + Sync {
    /// Decide the action for dynamic visit `visit` (0-based, counted
    /// per processor) of sync site `site` on processor `pid`.
    fn at_sync(&self, site: usize, pid: usize, visit: u64) -> ChaosAction;

    /// Whether the supervisor may *mask* this policy's drops
    /// when a site is quarantined or the run isolated. Site-flake
    /// injectors return the default `true` (quarantine absorbs the
    /// flake); permanent-loss policies (a killed core) return `false` —
    /// no amount of site masking revives dead hardware, and the
    /// supervisor must instead classify the pid as lost and degrade.
    fn maskable(&self) -> bool {
        true
    }
}

/// Result of a parallel run.
#[derive(Clone, Debug)]
pub struct ParallelOutcome {
    /// Measured dynamic synchronization: the workers' recorder totals,
    /// merged (always on).
    pub stats: runtime::stats::StatsSnapshot,
    /// The walk's dynamic counts (identical to what `run_virtual`
    /// reports for the same plan).
    pub counts: DynCounts,
    /// Wall-clock time of the traversal (thread startup excluded — the
    /// team is persistent, matching the paper's measurement protocol).
    pub elapsed: Duration,
    /// Per-sync-site wait telemetry (empty unless requested via
    /// [`ObserveOptions::telemetry`]).
    pub sites: Vec<SiteSnapshot>,
    /// Per-processor timeline spans (empty unless requested via
    /// [`ObserveOptions::trace`]).
    pub spans: Vec<Span>,
    /// The detected region failure, when a watchdog was armed
    /// ([`ObserveOptions::deadline`]) and the run timed out, was
    /// poisoned, or lost a worker to a panic. `None` means the region
    /// completed; results in `mem` are only meaningful then. Its
    /// headline names whichever fault was recorded first; its `ends`
    /// hold *every* processor's, so the supervisor can demote all
    /// implicated sites at once.
    pub failure: Option<FailureReport>,
    /// Per-processor post deficit: how many posts the processor's
    /// traversal *claimed* (sync events at which everybody posts,
    /// passed) minus how many actually landed in its cell. A healthy
    /// worker's deficit is always 0 — the post precedes the claim — so
    /// a positive entry is direct physical evidence that this pid's
    /// posts are being dropped (a silently dead core), no matter where
    /// the resulting wedge surfaces in the site walk. A producer's post
    /// where only producers post is claimed when it lands — one flaky
    /// counter site is the site ladder's business — and so is any post
    /// skipped only because an earlier drop silenced the cell.
    pub post_deficits: Vec<u64>,
    /// The merged profile-event stream (present iff
    /// [`ObserveOptions::profile`] was set, or the caller handed
    /// [`run_parallel_observed_on`] a profiler). Under the supervisor
    /// the stream spans *every* attempt so far, epoch-stamped per
    /// attempt.
    pub profile: Option<ProfileData>,
}

impl ParallelOutcome {
    /// True when the region completed without a detected fault.
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }
}

/// What the real-thread executor records beyond aggregate stats.
#[derive(Clone, Default)]
pub struct ObserveOptions {
    /// Attribute every sync wait to its canonical site (per-processor
    /// histograms in [`ParallelOutcome::sites`]).
    pub telemetry: bool,
    /// Capture per-processor timeline spans (work, dispatch, sync
    /// waits) in [`ParallelOutcome::spans`].
    pub trace: bool,
    /// Arm a [`Watchdog`]: every blocking wait is bounded by this
    /// deadline, worker panics poison the region instead of hanging
    /// the master, and failures come back as
    /// [`ParallelOutcome::failure`]. Telemetry is implicitly enabled
    /// so the report can show who was blocked where.
    pub deadline: Option<Duration>,
    /// Fault injector consulted at every sync event. Dropping posts
    /// ([`ChaosAction::Drop`]) without an armed deadline hangs by
    /// design — always pair chaos with [`ObserveOptions::deadline`].
    pub chaos: Option<Arc<dyn SyncChaos>>,
    /// Record per-thread event rings (sync arrivals/releases, region
    /// markers, each wait's escalation marks, recovery marks) and return the
    /// merged stream in [`ParallelOutcome::profile`]. Recording is
    /// lock-free and never blocks; ring overflow drops the oldest
    /// events and is counted in [`runtime::events::ProfileData`].
    pub profile: Option<ProfileOptions>,
}

impl std::fmt::Debug for ObserveOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObserveOptions")
            .field("telemetry", &self.telemetry)
            .field("trace", &self.trace)
            .field("deadline", &self.deadline)
            .field("chaos", &self.chaos.as_ref().map(|_| "<injector>"))
            .field("profile", &self.profile)
            .finish()
    }
}

/// Execute the schedule on `team` (whose size must match
/// `bind.nprocs`). Arrays/scalars are read and written in `mem`.
pub fn run_parallel(
    prog: &Arc<Program>,
    bind: &Arc<Bindings>,
    plan: &SpmdProgram,
    mem: &Arc<Mem>,
    team: &Team,
) -> ParallelOutcome {
    run_parallel_observed(prog, bind, plan, mem, team, &ObserveOptions::default())
}

/// What one sync event did, for the recorder: primary operations that
/// landed (barrier episodes, counter increments, posts) and the waits
/// it completed, with their summed escalation effort.
#[derive(Default)]
struct Tally {
    posts: u64,
    waits: u64,
    effort: WaitEffort,
}

impl Tally {
    /// Count a completed wait; a failed one passes its error on.
    fn waited(&mut self, r: Result<WaitEffort, SyncError>) -> Result<(), SyncError> {
        self.effort += r?;
        self.waits += 1;
        Ok(())
    }
}

/// One worker's measurements of its own traversal — plain data the
/// worker owns, handed over after the join and merged there into
/// [`ParallelOutcome::stats`], `sites`, `spans`, `failure` and
/// `post_deficits`. The sync step is its only writer and feeds it from
/// one clock pair per sync event (arrival, release), so the by-kind
/// totals, the per-site cells and the profiler's `SyncRelease` all
/// carry the same duration.
#[derive(Default)]
struct SyncRecorder {
    stats: StatsSnapshot,
    /// One cell per sync site; empty unless per-site telemetry is on.
    cells: Vec<CellSnapshot>,
    /// `(step, start, end)` of every step, when tracing; names are
    /// rendered from the schedule after the join.
    spans: Vec<(Event, Instant, Instant)>,
    /// The walk's counts, when the worker walked it to the end.
    counts: Option<DynCounts>,
    /// Posts the traversal claimed (see
    /// [`ParallelOutcome::post_deficits`]).
    claimed: u64,
    /// How the traversal ended, and when: the instant orders the
    /// faults of a run to pick its headline.
    end: ProcEnd,
    ended: Option<Instant>,
}

impl SyncRecorder {
    fn sync(&mut self, kind: SyncKind, site: usize, tally: Tally, ns: u64) {
        self.stats
            .record(kind, tally.posts, tally.waits, tally.effort, ns);
        if let Some(cell) = self.cells.get_mut(site) {
            cell.record(ns);
        }
    }
}

/// Timeline name and category of a step.
pub(crate) fn span_of(prog: &Program, sched: &Schedule, ev: Event) -> (String, SpanCat) {
    match ev {
        Event::Work { kernel } => (
            spmd_opt::node_label(prog, sched.code.kernels[kernel as usize].node),
            SpanCat::Work,
        ),
        Event::Dispatch => ("dispatch".to_string(), SpanCat::Dispatch),
        Event::Sync { op, site } => {
            let name = sched.sync_label(op, site);
            (format!("{name} wait @s{site}"), SpanCat::Sync)
        }
    }
}

/// The panic message, when the payload is a string.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic payload".to_string())
    }
}

/// As [`run_parallel`], optionally recording per-site telemetry and
/// per-processor timeline spans, arming a deadline watchdog, and
/// injecting chaos (see [`ObserveOptions`]).
pub fn run_parallel_observed(
    prog: &Arc<Program>,
    bind: &Arc<Bindings>,
    plan: &SpmdProgram,
    mem: &Arc<Mem>,
    team: &Team,
    opts: &ObserveOptions,
) -> ParallelOutcome {
    let nprocs = team.nprocs();
    let profiler = opts
        .profile
        .map(|po| Arc::new(Profiler::new(nprocs + 1, po)));
    run_parallel_observed_on(prog, bind, plan, mem, team, opts, profiler)
}

/// One attempt: as [`run_parallel_observed`], but recording into
/// `profiler` (at least one track per worker plus the supervisor's,
/// [`Profiler::supervisor_track`]) instead of one `opts.profile` asks
/// for. The supervisor runs every attempt through this, under its one
/// profiler; each call builds its own fresh sync primitives.
pub fn run_parallel_observed_on(
    prog: &Arc<Program>,
    bind: &Arc<Bindings>,
    plan: &SpmdProgram,
    mem: &Arc<Mem>,
    team: &Team,
    opts: &ObserveOptions,
    profiler: Option<Arc<Profiler>>,
) -> ParallelOutcome {
    let nprocs = team.nprocs();
    assert_eq!(
        nprocs as i64, bind.nprocs,
        "team size must match the bindings' processor count"
    );
    let fabric = Arc::new(SyncFabric {
        barrier: CentralBarrier::new(nprocs),
        cells: CellBank::new(nprocs + 1),
        profiler,
    });
    let gate = nprocs;
    let sched = Arc::new(Schedule::new(prog, bind, plan));
    let watchdog = opts.deadline.map(|d| Arc::new(Watchdog::new(d)));
    // A guarded run keeps per-site cells even when the caller did not
    // ask, so a failure report can show who was blocked where.
    let n_sites = sched.num_sites();
    let n_cells = if opts.telemetry || watchdog.is_some() {
        n_sites
    } else {
        0
    };
    let trace = opts.trace;
    // Where each worker leaves its recorder when its traversal ends —
    // completed, faulted or panicked.
    let recorders: Vec<_> = (0..nprocs).map(|_| SyncRecorder::default()).collect();
    let recorders = Arc::new(Mutex::new(recorders));

    let mem2 = Arc::clone(mem);
    let sched2 = Arc::clone(&sched);
    let fabric2 = Arc::clone(&fabric);
    let watchdog2 = watchdog.clone();
    let chaos2 = opts.chaos.clone();
    let recorders2 = Arc::clone(&recorders);

    // Align the profile clock with this run's t0 — but only if no
    // attempt has written to the rings yet (a supervised run keeps one
    // monotonic clock across attempts so epochs stay ordered).
    if let Some(p) = &fabric.profiler {
        p.rebase_if_unused();
    }
    let t0 = Instant::now();
    let team_result = team.try_run(move |pid| {
        let wd = watchdog2.as_deref();
        let (barrier, cells) = (&fabric2.barrier, &fabric2.cells);
        let guarded = wd.map(|wd| cells.guarded(wd));
        let guard = guarded.as_ref();
        // This worker writes track `pid` and nothing else does: region
        // markers, arrive/release pairs and, through `Waiter::done`,
        // the escalation marks of its own waits.
        let profiler = fabric2.profiler.as_deref();
        if let Some(p) = profiler {
            p.record(pid, EventKind::RegionBegin, NO_SITE, 0);
        }
        let waiter = |site| Waiter {
            guard,
            profiler,
            site,
            pid,
        };
        let mut rec = SyncRecorder {
            cells: vec![CellSnapshot::default(); n_cells],
            ..SyncRecorder::default()
        };
        let mut cur = sched2.cursor();
        let mut traverse = |cur: &mut Cursor| -> Result<(), SyncError> {
            let mut worker = Worker::new(&sched2, &mem2, pid);
            let mut epoch = BarrierEpoch::default();
            // Set by the first dropped post to the cell, for the rest of
            // the attempt: every point-to-point sync counts on the one
            // cell, so a later post would let the waiters of the dropped
            // one through and strand those of the last instead.
            let mut silenced = false;
            let mut site_visits = vec![0u64; n_sites];
            while let Some(Step { event, .. }) = cur.next() {
                // Work and dispatch read the clock only for the trace; a
                // sync step's span is its arrival/release pair.
                let t_start = (trace && !matches!(event, Event::Sync { .. })).then(Instant::now);
                match event {
                    Event::Work { kernel } => worker.exec_work(kernel, cur),
                    Event::Dispatch => {
                        if pid == 0 {
                            cells.post(gate);
                        } else {
                            let passed = cur.counts().dispatches;
                            let at = waiter(DISPATCH_SITE);
                            // No sync event of any kind: only the
                            // escalation totals count the gate's wait.
                            rec.stats.add_effort(at.cell(
                                cells,
                                gate,
                                passed,
                                SyncKind::Counter,
                            )?);
                        }
                    }
                    Event::Sync { op, site } => {
                        let site = site as usize;
                        let mut dropped = false;
                        // Chaos and the profiler share one per-site
                        // visit counter, so a SyncArrive's `arg` is the
                        // same episode index chaos schedules against.
                        let visit = if chaos2.is_some() || profiler.is_some() {
                            let v = site_visits[site];
                            site_visits[site] += 1;
                            v
                        } else {
                            0
                        };
                        if let Some(ch) = &chaos2 {
                            match ch.at_sync(site, pid, visit) {
                                ChaosAction::None => {}
                                ChaosAction::Delay(d) => std::thread::sleep(d),
                                ChaosAction::SpuriousWake => {
                                    if let Some(wd) = wd {
                                        wd.spurious_wake();
                                    }
                                }
                                ChaosAction::Drop => dropped = true,
                            }
                        }
                        // The event's one clock pair: arrival here (after
                        // any injected delay), release below.
                        let t_arrive = Instant::now();
                        if let Some(p) = profiler {
                            let t = p.ns_at(t_arrive);
                            p.record_at(pid, EventKind::SyncArrive, site as u32, visit, t);
                        }
                        let at = waiter(site);
                        let mut tally = Tally::default();
                        let (kind, r) = match op {
                            SyncStep::Barrier => {
                                // A dropped arrival is skipped entirely;
                                // P0 counts the episodes it is released
                                // from.
                                let r = if dropped {
                                    Ok(())
                                } else {
                                    tally.waited(at.barrier(barrier, &mut epoch))
                                };
                                tally.posts += (pid == 0 && tally.waits == 1) as u64;
                                (SyncKind::Barrier, r)
                            }
                            SyncStep::Cells { kind, .. } => {
                                // Whoever may be waited on posts its
                                // own cell, then waits on the cells the
                                // cursor names for it.
                                // Not claimed: a post skipped only
                                // because an earlier drop silenced the
                                // cell, and a named one that is dropped.
                                let mine = cur.posts(pid);
                                rec.claimed += if cur.all_post() {
                                    (dropped || !silenced) as u64
                                } else if dropped || silenced {
                                    0
                                } else {
                                    mine
                                };
                                silenced |= dropped && mine > 0;
                                if !silenced {
                                    (0..mine).for_each(|_| cells.post(pid));
                                    tally.posts += mine;
                                }
                                let r = cur.waits(pid).try_for_each(|(q, count)| {
                                    tally.waited(at.cell(cells, q, count, kind))
                                });
                                (kind, r)
                            }
                        };
                        // Recorded even on a failing wait, so the faulty
                        // episode shows its full (deadline-length) block
                        // at its site.
                        let t_release = Instant::now();
                        let ns = t_release.duration_since(t_arrive).as_nanos() as u64;
                        if let Some(p) = profiler {
                            let t = p.ns_at(t_release);
                            p.record_at(pid, EventKind::SyncRelease, site as u32, ns, t);
                        }
                        rec.sync(kind, site, tally, ns);
                        r?;
                        if trace {
                            rec.spans.push((event, t_arrive, t_release));
                        }
                    }
                }
                if let Some(t) = t_start {
                    rec.spans.push((event, t, Instant::now()));
                }
            }
            Ok(())
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| traverse(&mut cur)));
        rec.ended = Some(Instant::now());
        if let Some(p) = profiler {
            let ok = matches!(outcome, Ok(Ok(()))) as u64;
            p.record(pid, EventKind::RegionEnd, NO_SITE, ok);
        }
        // A fault poisons the region, so peers parked in guarded waits
        // tear down instead of waiting out their own deadline.
        let (end, payload) = match outcome {
            Ok(Ok(())) => {
                rec.counts = Some(cur.counts());
                (ProcEnd::Finished, None)
            }
            Ok(Err(e)) => {
                if let Some(wd) = wd.filter(|_| e.is_primary()) {
                    wd.poison(e.to_string());
                }
                (ProcEnd::Fault(e), None)
            }
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                if let Some(wd) = wd {
                    wd.poison(format!("P{pid} panicked: {msg}"));
                }
                (ProcEnd::Panicked(msg), Some(payload))
            }
        };
        rec.end = end;
        recorders2.lock().unwrap()[pid] = rec;
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    });
    let elapsed = t0.elapsed();

    // Workers have joined: fold their recorders into the outcome.
    let recorders = std::mem::take(&mut *recorders.lock().unwrap());
    let mut stats = StatsSnapshot::default();
    for r in &recorders {
        stats.merge(&r.stats);
    }
    // The processor heading the failure: the team's first panic, else
    // the first primary fault recorded, else the first poison
    // observation (one never displaces the fault that caused it).
    let first = match team_result {
        // No watchdog: preserve `Team::run` semantics (a worker panic
        // propagates to the caller; it can no longer hang the join).
        Err(e) if watchdog.is_none() => e.resume(),
        Err(e) => Some(e.pid),
        Ok(()) => recorders
            .iter()
            .enumerate()
            .filter_map(|(pid, r)| Some((!r.end.fault()?.is_primary(), r.ended, pid)))
            .min()
            .map(|(.., pid)| pid),
    };
    // Only surface the cells when the caller asked for them or the run
    // failed.
    let sites: Vec<SiteSnapshot> = if opts.telemetry || first.is_some() {
        obs::site_metas(prog, plan)
            .into_iter()
            .map(|meta| {
                let cell = |r: &SyncRecorder| r.cells.get(meta.id).cloned().unwrap_or_default();
                let per_proc = recorders.iter().map(cell).collect();
                SiteSnapshot::new(meta, per_proc)
            })
            .collect()
    } else {
        Vec::new()
    };
    let failure = first.map(|first| {
        let mut f = FailureReport {
            ends: recorders.iter().map(|r| r.end.clone()).collect(),
            first,
            site_label: String::new(),
            sites: sites.clone(),
        };
        f.site_label = match f.site() {
            Some(DISPATCH_SITE) => "dispatch".to_string(),
            Some(site) => sites
                .get(site)
                .map_or_else(|| format!("s{site}"), |s| s.meta.label.clone()),
            None => String::new(),
        };
        f
    });
    let us_of = |t: Instant| t.duration_since(t0).as_micros() as u64;
    let mut spans = Vec::new();
    for (pid, r) in recorders.iter().enumerate() {
        for &(ev, start, end) in &r.spans {
            let (name, cat) = span_of(prog, &sched, ev);
            spans.push(Span {
                pid,
                name,
                cat,
                start_us: us_of(start),
                end_us: us_of(end),
            });
        }
    }

    ParallelOutcome {
        stats,
        // Where no worker finished, a cursor of its own counts the walk.
        counts: recorders
            .iter()
            .find_map(|r| r.counts)
            .unwrap_or_else(|| sched.counts()),
        elapsed,
        sites,
        spans,
        failure,
        // Workers have joined: claims and flag cells are both final.
        post_deficits: (recorders.iter().enumerate())
            .map(|(p, r)| r.claimed.saturating_sub(fabric.cells.count(p)))
            .collect(),
        // Workers have joined, so the single-writer rings are quiescent
        // and the merged snapshot is complete for every attempt so far.
        profile: fabric.profiler.as_ref().map(|p| p.snapshot()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::WaitSet;
    use ir::build::*;
    use spmd_opt::{fork_join, optimize};

    fn sweep(n_val: i64, steps: i64, nprocs: i64) -> (Arc<Program>, Arc<Bindings>) {
        let mut pb = ProgramBuilder::new("sweep");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let b = pb.array("B", &[sym(n)], dist_block());
        let _t = pb.begin_seq("t", con(0), con(steps - 1));
        let i = pb.begin_par("i", con(1), sym(n) - 2);
        pb.assign(
            elem(b, [idx(i)]),
            ex(0.5) * (arr(a, [idx(i) - 1]) + arr(a, [idx(i) + 1])),
        );
        pb.end();
        let j = pb.begin_par("j", con(1), sym(n) - 2);
        pb.assign(elem(a, [idx(j)]), arr(b, [idx(j)]));
        pb.end();
        pb.end();
        let prog = Arc::new(pb.finish());
        let bind = Arc::new(Bindings::new(nprocs).set(n, n_val));
        (prog, bind)
    }

    #[test]
    fn parallel_matches_sequential_for_both_plans() {
        let (prog, bind) = sweep(64, 8, 4);
        let team = Team::new(4);
        let oracle = Mem::new(&prog, &bind);
        oracle.fill(ir::ArrayId(0), |s| (s[0] % 5) as f64);
        crate::run_sequential(&prog, &bind, &oracle);

        for plan in [fork_join(&prog, &bind), optimize(&prog, &bind)] {
            let mem = Arc::new(Mem::new(&prog, &bind));
            mem.fill(ir::ArrayId(0), |s| (s[0] % 5) as f64);
            let out = run_parallel(&prog, &bind, &plan, &mem, &team);
            assert_eq!(mem.max_abs_diff(&oracle), 0.0);
            assert_eq!(out.stats.barrier_episodes, out.counts.barriers);
        }
    }

    /// A master-updated scalar every processor then reads: the
    /// optimizer places a counter — and at the loop bottom, where the
    /// master alone overwrites what everybody read, a collector.
    fn scale(n_val: i64, steps: i64, nprocs: i64) -> (Arc<Program>, Arc<Bindings>) {
        let mut pb = ProgramBuilder::new("scale");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let s = pb.scalar("s", 1.0);
        let _t = pb.begin_seq("t", con(0), con(steps - 1));
        pb.assign(svar(s), sca(s) * ex(0.5));
        let j = pb.begin_par("j", con(0), sym(n) - 1);
        pb.assign(elem(a, [idx(j)]), sca(s) + arr(a, [idx(j)]));
        pb.end();
        pb.end();
        let prog = Arc::new(pb.finish());
        let bind = Arc::new(Bindings::new(nprocs).set(n, n_val));
        (prog, bind)
    }

    /// A shift by half the array — two ownership blocks at four
    /// processors, out of neighbor reach: pairwise cells.
    fn shift(n_val: i64, steps: i64, nprocs: i64) -> (Arc<Program>, Arc<Bindings>) {
        let mut pb = ProgramBuilder::new("shift");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let b = pb.array("B", &[sym(n)], dist_block());
        let _t = pb.begin_seq("t", con(0), con(steps - 1));
        let i = pb.begin_par("i", con(0), sym(n) - 1);
        pb.assign(elem(b, [idx(i)]), arr(a, [idx(i)]) * ex(0.5) + ex(1.0));
        pb.end();
        let j = pb.begin_par("j", con(n_val / 2), sym(n) - 1);
        pb.assign(elem(a, [idx(j)]), arr(b, [idx(j) - n_val / 2]) * ex(0.75));
        pb.end();
        pb.end();
        let prog = Arc::new(pb.finish());
        let bind = Arc::new(Bindings::new(nprocs).set(n, n_val));
        (prog, bind)
    }

    /// A suite kernel at `Scale::Test`.
    fn suite_kernel(name: &str, nprocs: i64) -> (Arc<Program>, Arc<Bindings>) {
        let built = (suite::by_name(name).unwrap().build)(suite::Scale::Test);
        let bind = built.bindings(nprocs);
        (Arc::new(built.prog), Arc::new(bind))
    }

    /// The recorder against the schedule: every kind, posts and waits,
    /// on one hand-built kernel per mechanism and on suite plans with a
    /// counter whose producer moves (`lu`), a collector (`shift_bcast`,
    /// at eight processors) and a producer fused with a distance
    /// (`pivot_shift`) — at two processors all three are plain flags.
    #[test]
    fn instrumentation_matches_schedule_counts() {
        let mut mechanisms = StatsSnapshot::default();
        for ((prog, bind), plan) in [
            (
                sweep(64, 10, 4),
                fork_join as fn(&Program, &Bindings) -> SpmdProgram,
            ),
            (sweep(64, 10, 4), optimize),
            (scale(32, 6, 4), optimize),
            (shift(32, 6, 4), optimize),
            (suite_kernel("lu", 4), optimize),
            (suite_kernel("shift_bcast", 8), optimize),
            (suite_kernel("pivot_shift", 4), optimize),
        ] {
            let plan = plan(&prog, &bind);
            let nprocs = bind.nprocs as u64;
            let team = Team::new(nprocs as usize);
            let mem = Arc::new(Mem::new(&prog, &bind));
            let out = run_parallel(&prog, &bind, &plan, &mem, &team);
            let (s, c) = (&out.stats, &out.counts);
            assert_eq!(s.barrier_episodes, c.barriers, "{}", prog.name);
            assert_eq!(s.barrier_arrivals, c.barriers * nprocs, "{}", prog.name);
            assert_eq!(s.counter_increments, c.counter_increments);
            assert_eq!(s.counter_waits, c.counter_waits);
            assert_eq!(s.neighbor_posts, c.neighbor_posts);
            assert_eq!(s.neighbor_waits, c.neighbor_waits);
            assert_eq!(s.pairwise_posts, c.pair_posts);
            assert_eq!(s.pairwise_waits, c.pair_waits);
            mechanisms.merge(s);
        }
        // `scale`'s loop bottom is a gather at the master: a collector's
        // waits are counted like any other pairwise wait.
        let (prog, bind) = scale(32, 6, 4);
        assert_eq!(optimize(&prog, &bind).static_stats().pair_syncs, 1);
        // The suite plans hold the wait sets they were picked for.
        let holds = |(prog, bind): (Arc<Program>, Arc<Bindings>), f: fn(&WaitSet) -> bool| {
            let plan = optimize(&prog, &bind);
            let sites = spmd_opt::sync_sites(&prog, &plan);
            assert!(
                sites.iter().filter_map(|s| s.op.waits()).any(f),
                "{}",
                prog.name
            );
        };
        holds(suite_kernel("lu", 4), |w| {
            w.fanin() == 1 && w.producers.len() == 1
        });
        holds(suite_kernel("shift_bcast", 8), |w| !w.collectors.is_empty());
        holds(suite_kernel("pivot_shift", 4), |w| {
            !w.dists.is_empty() && !w.producers.is_empty()
        });
        // Each mechanism really ran, both sides.
        let m = mechanisms;
        for n in [m.barrier_episodes, m.counter_increments, m.counter_waits] {
            assert!(n > 0, "{m:?}");
        }
        for n in [
            m.neighbor_posts,
            m.neighbor_waits,
            m.pairwise_posts,
            m.pairwise_waits,
        ] {
            assert!(n > 0, "{m:?}");
        }
    }

    /// Drops every sync post made by one processor (a model of a
    /// crashed/stuck peer), leaving everyone else to the watchdog.
    struct StuckProcessor(usize);

    impl SyncChaos for StuckProcessor {
        fn at_sync(&self, _site: usize, pid: usize, _visit: u64) -> ChaosAction {
            if pid == self.0 {
                ChaosAction::Drop
            } else {
                ChaosAction::None
            }
        }
    }

    /// Panics on one processor's `visit`-th arrival at any site
    /// (exercises the panic → poison → report path without touching
    /// program code).
    struct PanicAt {
        pid: usize,
        visit: u64,
    }

    impl SyncChaos for PanicAt {
        fn at_sync(&self, _site: usize, pid: usize, visit: u64) -> ChaosAction {
            if pid == self.pid && visit == self.visit {
                panic!("chaos-injected panic on P{pid}");
            }
            ChaosAction::None
        }
    }

    /// Benign jitter: a short delay on every third visit plus a
    /// spurious wakeup on every fifth — must never change results.
    struct Jitter;

    impl SyncChaos for Jitter {
        fn at_sync(&self, site: usize, pid: usize, visit: u64) -> ChaosAction {
            match (site + pid + visit as usize) % 5 {
                0 => ChaosAction::Delay(Duration::from_micros(200)),
                3 => ChaosAction::SpuriousWake,
                _ => ChaosAction::None,
            }
        }
    }

    #[test]
    fn stuck_processor_times_out_with_site_attribution() {
        let (prog, bind) = sweep(32, 3, 4);
        let team = Team::new(4);
        let plan = fork_join(&prog, &bind);
        let mem = Arc::new(Mem::new(&prog, &bind));
        let t0 = Instant::now();
        let out = run_parallel_observed(
            &prog,
            &bind,
            &plan,
            &mem,
            &team,
            &ObserveOptions {
                deadline: Some(Duration::from_millis(100)),
                chaos: Some(Arc::new(StuckProcessor(0))),
                ..ObserveOptions::default()
            },
        );
        // Guarded waits bound the hang: everything returns well within
        // a few deadlines, not forever.
        assert!(t0.elapsed() < Duration::from_secs(20));
        let failure = out
            .failure
            .expect("dropped barrier arrivals must be detected");
        match failure.cause() {
            ProcEnd::Fault(SyncError::DeadlineExceeded {
                pid,
                kind,
                expected,
                observed,
                ..
            }) => {
                // P0 never arrives, so a *waiter* times out seeing 3 of
                // 4 arrivals at the first barrier it reaches.
                assert_ne!(*pid, 0);
                assert_eq!(*kind, SyncKind::Barrier);
                assert_eq!(*expected, 4);
                assert!(*observed < 4);
            }
            other => panic!("expected a deadline cause, got {other:?}"),
        }
        assert!(!failure.site_label.is_empty());
        // The stuck processor itself finished its (post-free) traversal
        // or died poisoned; nobody else finished.
        assert_eq!(failure.ends.len(), 4);
        assert!(failure.ends[1..].iter().all(|e| *e != ProcEnd::Finished));
        // Telemetry rode along even though the caller didn't ask.
        assert!(!failure.sites.is_empty());
    }

    #[test]
    fn worker_panic_becomes_a_report_when_guarded() {
        let (prog, bind) = sweep(32, 2, 4);
        let team = Team::new(4);
        let plan = fork_join(&prog, &bind);
        let mem = Arc::new(Mem::new(&prog, &bind));
        let out = run_parallel_observed(
            &prog,
            &bind,
            &plan,
            &mem,
            &team,
            &ObserveOptions {
                deadline: Some(Duration::from_millis(200)),
                chaos: Some(Arc::new(PanicAt { pid: 2, visit: 0 })),
                ..ObserveOptions::default()
            },
        );
        let failure = out.failure.expect("a panicked worker is a failure");
        assert_eq!(failure.first, 2);
        match failure.cause() {
            ProcEnd::Panicked(message) => assert!(message.contains("chaos-injected panic")),
            other => panic!("expected a panic cause, got {other:?}"),
        }
        // The team survives for later (clean) regions.
        let mem2 = Arc::new(Mem::new(&prog, &bind));
        let out2 = run_parallel(&prog, &bind, &plan, &mem2, &team);
        assert!(out2.ok());
    }

    /// A worker that panics mid-region still hands over what it
    /// recorded: the report's sites hold every pid's waits up to the
    /// fault, the panicking pid's included.
    #[test]
    fn panicking_worker_keeps_its_recorded_waits() {
        let (prog, bind) = sweep(32, 4, 4);
        let team = Team::new(4);
        let plan = fork_join(&prog, &bind);
        let mem = Arc::new(Mem::new(&prog, &bind));
        let out = run_parallel_observed(
            &prog,
            &bind,
            &plan,
            &mem,
            &team,
            &ObserveOptions {
                deadline: Some(Duration::from_millis(200)),
                chaos: Some(Arc::new(PanicAt { pid: 2, visit: 2 })),
                ..ObserveOptions::default()
            },
        );
        let failure = out.failure.expect("a panicked worker is a failure");
        assert_eq!(failure.first, 2);
        assert!(matches!(failure.cause(), ProcEnd::Panicked(_)));
        // Every barrier site of the time loop was passed twice by all
        // four processors before P2 panicked at its third arrival.
        let visited: Vec<_> = failure.sites.iter().filter(|s| s.total.ops > 0).collect();
        assert!(!visited.is_empty());
        for s in &visited {
            for (pid, cell) in s.per_proc.iter().enumerate() {
                assert!(cell.ops >= 2, "s{} P{pid}: {cell:?}", s.meta.id);
                assert_eq!(cell.hist.iter().sum::<u64>(), cell.waits);
            }
        }
        // The poisoned peers' cut-short waits are in both views too.
        let in_cells: u64 = out.sites.iter().map(|s| s.total.wait_ns).sum();
        assert_eq!(out.stats.barrier_wait_ns, in_cells);
    }

    /// Holds P1 back about 20 ms at its first visit to one site, so
    /// whoever waits for it there runs the whole escalation ladder.
    struct LateP1At(usize);

    impl SyncChaos for LateP1At {
        fn at_sync(&self, site: usize, pid: usize, visit: u64) -> ChaosAction {
            if (site, pid, visit) == (self.0, 1, 0) {
                ChaosAction::Delay(Duration::from_millis(20))
            } else {
                ChaosAction::None
            }
        }
    }

    /// The escalation marks of a run against its totals: every mark on
    /// a worker track lies inside one of that worker's arrive/release
    /// intervals at the site it names (a dispatch-gate mark names none),
    /// and a mark of each kind is present exactly when the totals
    /// counted yields, or parks.
    fn marks_match_totals(profile: &ProfileData, stats: &StatsSnapshot, nprocs: usize) {
        // (track, site, arrival, release) of every visit.
        let mut visits: Vec<(u16, u32, u64, Option<u64>)> = Vec::new();
        for e in &profile.events {
            match e.kind {
                EventKind::SyncArrive => visits.push((e.track, e.site, e.t_ns, None)),
                EventKind::SyncRelease => {
                    let open = (visits.iter_mut().rev())
                        .find(|v| (v.0, v.1, v.3) == (e.track, e.site, None))
                        .expect("a release closes its own arrival");
                    open.3 = Some(e.t_ns);
                }
                _ => {}
            }
        }
        let marks = |kind| profile.events.iter().filter(move |e| e.kind == kind);
        for e in marks(EventKind::EscalateYield).chain(marks(EventKind::EscalatePark)) {
            assert!((e.track as usize) < nprocs, "{e:?}");
            if e.site != NO_SITE {
                assert!(
                    visits.iter().any(|&(track, site, arrive, release)| {
                        (track, site) == (e.track, e.site)
                            && (arrive..=release.unwrap()).contains(&e.t_ns)
                    }),
                    "{e:?} outside its wait"
                );
            }
        }
        let yields = marks(EventKind::EscalateYield).count();
        let parks = marks(EventKind::EscalatePark).count();
        assert_eq!(stats.yield_rounds > 0, yields > 0, "{stats:?}");
        assert_eq!(stats.parks > 0, parks > 0, "{stats:?}");
    }

    /// One wait has one duration: the by-kind totals, the per-site
    /// cells and the profiler's `SyncRelease` events all come from the
    /// same clock pair, so they agree to the nanosecond — injected
    /// chaos delays included in none of them. One wait has one effort
    /// too: the escalation marks and the totals both read it.
    #[test]
    fn totals_sites_and_profile_agree_on_every_wait() {
        let team = Team::new(4);
        for ((prog, bind), plan) in [
            (
                sweep(48, 4, 4),
                fork_join as fn(&Program, &Bindings) -> SpmdProgram,
            ),
            (sweep(48, 4, 4), optimize),
            (scale(32, 4, 4), optimize),
            (shift(32, 4, 4), optimize),
        ] {
            let plan = plan(&prog, &bind);
            let mem = Arc::new(Mem::new(&prog, &bind));
            let out = run_parallel_observed(
                &prog,
                &bind,
                &plan,
                &mem,
                &team,
                &ObserveOptions {
                    telemetry: true,
                    deadline: Some(Duration::from_secs(5)),
                    chaos: Some(Arc::new(Jitter)),
                    profile: Some(ProfileOptions::default()),
                    ..ObserveOptions::default()
                },
            );
            assert!(out.ok(), "benign chaos failed: {:?}", out.failure);
            let s = &out.stats;
            let mut released = 0u64;
            for (op, total) in [
                ("barrier", s.barrier_wait_ns),
                ("counter", s.counter_wait_ns),
                ("neighbor flags", s.neighbor_wait_ns),
                ("pairwise counters", s.pairwise_wait_ns),
            ] {
                let of_kind = out.sites.iter().filter(|site| site.meta.op == op);
                let cells: u64 = of_kind
                    .flat_map(|site| &site.per_proc)
                    .map(|cell| cell.wait_ns)
                    .sum();
                assert_eq!(cells, total, "{} {op}", prog.name);
                released += total;
            }
            let profile = out.profile.expect("profile requested");
            assert_eq!(profile.dropped, 0);
            let blocked: u64 = profile
                .events
                .iter()
                .filter(|e| e.kind == EventKind::SyncRelease)
                .map(|e| e.arg)
                .sum();
            assert_eq!(blocked, released, "{}", prog.name);
            marks_match_totals(&profile, s, 4);
        }

        // A peer late by 20 ms at one barrier: P0 waits there through
        // the whole ladder, and its two marks say so at that site.
        let (prog, bind) = sweep(48, 4, 4);
        let plan = fork_join(&prog, &bind);
        let sched = Schedule::new(&prog, &bind, &plan);
        let mut cur = sched.cursor();
        let site = std::iter::from_fn(|| cur.next())
            .find_map(|step| match step.event {
                Event::Sync { site, .. } => Some(site),
                _ => None,
            })
            .expect("a fork-join plan synchronizes");
        let mem = Arc::new(Mem::new(&prog, &bind));
        let out = run_parallel_observed(
            &prog,
            &bind,
            &plan,
            &mem,
            &team,
            &ObserveOptions {
                chaos: Some(Arc::new(LateP1At(site as usize))),
                profile: Some(ProfileOptions::default()),
                ..ObserveOptions::default()
            },
        );
        assert!(out.ok());
        let profile = out.profile.expect("profile requested");
        marks_match_totals(&profile, &out.stats, 4);
        let p0: Vec<_> = (profile.events.iter())
            .filter(|e| e.track == 0 && e.site == site)
            .map(|e| (e.kind, e.arg))
            .collect();
        let policy = runtime::SpinPolicy::auto();
        // The first visit: arrival, both marks at the wait's end, release.
        assert_eq!(p0[0], (EventKind::SyncArrive, 0));
        assert_eq!(p0[1], (EventKind::EscalateYield, policy.spin_limit as u64));
        assert_eq!(p0[2], (EventKind::EscalatePark, policy.yield_limit as u64));
        assert_eq!(p0[3].0, EventKind::SyncRelease);
        let at_site = |kind| {
            (profile.events.iter())
                .filter(|e| e.kind == kind && e.site == site)
                .count() as u64
        };
        let report = obs::analyze(&profile, 4);
        let counted = report.site(site as usize).expect("the site was visited");
        assert_eq!(counted.yields, at_site(EventKind::EscalateYield));
        assert_eq!(counted.parks, at_site(EventKind::EscalatePark));
        assert!(counted.parks >= 1);
    }

    #[test]
    fn benign_chaos_preserves_results_under_deadline() {
        let (prog, bind) = sweep(48, 4, 4);
        let team = Team::new(4);
        let oracle = Mem::new(&prog, &bind);
        oracle.fill(ir::ArrayId(0), |s| (s[0] % 7) as f64);
        crate::run_sequential(&prog, &bind, &oracle);

        for plan in [fork_join(&prog, &bind), optimize(&prog, &bind)] {
            let mem = Arc::new(Mem::new(&prog, &bind));
            mem.fill(ir::ArrayId(0), |s| (s[0] % 7) as f64);
            let out = run_parallel_observed(
                &prog,
                &bind,
                &plan,
                &mem,
                &team,
                &ObserveOptions {
                    deadline: Some(Duration::from_secs(5)),
                    chaos: Some(Arc::new(Jitter)),
                    ..ObserveOptions::default()
                },
            );
            assert!(out.ok(), "benign chaos failed: {:?}", out.failure);
            assert_eq!(mem.max_abs_diff(&oracle), 0.0);
        }
    }

    #[test]
    fn guarded_clean_run_reports_no_failure() {
        let (prog, bind) = sweep(48, 4, 4);
        let team = Team::new(4);
        let plan = optimize(&prog, &bind);
        let mem = Arc::new(Mem::new(&prog, &bind));
        let out = run_parallel_observed(
            &prog,
            &bind,
            &plan,
            &mem,
            &team,
            &ObserveOptions {
                deadline: Some(Duration::from_secs(5)),
                ..ObserveOptions::default()
            },
        );
        assert!(out.ok());
        // Without opts.telemetry, a clean guarded run keeps its output
        // shape identical to an unguarded one.
        assert!(out.sites.is_empty());
    }

    #[test]
    fn repeated_runs_are_deterministic_in_value() {
        let (prog, bind) = sweep(48, 6, 4);
        let team = Team::new(4);
        let plan = optimize(&prog, &bind);
        let mut checks = Vec::new();
        for _ in 0..3 {
            let mem = Arc::new(Mem::new(&prog, &bind));
            mem.fill(ir::ArrayId(0), |s| (s[0] * 3 % 11) as f64);
            run_parallel(&prog, &bind, &plan, &mem, &team);
            checks.push(mem.checksum());
        }
        assert!(checks.windows(2).all(|w| w[0] == w[1]));
    }
}
