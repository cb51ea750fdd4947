//! Self-healing execution: checkpoint, bounded retry, and per-site
//! barrier fallback.
//!
//! [`run_parallel_recovering`] wraps the guarded executor
//! ([`crate::par::run_parallel_observed_on`]) in a supervisor loop that
//! turns a detected region failure (deadline, stale generation, panic
//! poison) into a bounded, observable retry instead of a terminal
//! report:
//!
//! 1. before the first attempt, the live-in memory is checkpointed
//!    ([`crate::checkpoint`]) — pre-images of exactly the schedule's
//!    write set — and one [`SyncFabric`] is built for the whole
//!    session;
//! 2. each failed attempt rolls memory back to the checkpoint, re-arms
//!    the fabric ([`SyncFabric::reset`] — barriers re-zeroed, counter
//!    generations bumped; each attempt's workers measure into fresh
//!    recorders, so attempts never conflate), sleeps a deterministic
//!    exponential backoff, and re-executes;
//! 3. every *implicated* sync site (all primary per-processor faults,
//!    not just whichever one won the race into the headline) climbs the
//!    escalation ladder of [`runtime::recovery::Quarantine`]: first
//!    fault *demotes* the site's optimized sync op to a full barrier
//!    (`spmd_opt::demote_site` — the paper's conservative fork-join
//!    placement), a second fault *quarantines* it, which additionally
//!    masks injected dropped posts there ([`SiteMaskedChaos`]) so a
//!    deterministic injector cannot re-kill every retry, and a third
//!    fault *isolates* the run (masks every injected drop — a fault
//!    that survives quarantine is barrier aliasing from another site);
//!    faults with no attributable site (worker panics, dispatch
//!    timeouts) are plainly retried.
//!
//! The loop is bounded by [`RetryPolicy::max_attempts`]; when the
//! budget runs out the last failure is returned as the residual. The
//! whole timeline is summarized by [`RecoveryOutcome::report`] as a
//! deterministic [`obs::RecoveryReport`] (planned backoffs, no
//! wall-clock).

use crate::checkpoint::Checkpoint;
use crate::events::{unroll, Schedule};
use crate::mem::Mem;
use crate::par::{
    run_parallel_observed_on, ChaosAction, ObserveOptions, ParallelOutcome, SyncChaos, SyncFabric,
};
use analysis::Bindings;
use ir::Program;
use obs::{AttemptReport, RecoveryReport, SiteActionReport};
use runtime::events::{EventKind, NO_SITE};
use runtime::fault::DISPATCH_SITE;
use runtime::recovery::{FaultDisposition, Quarantine, RetryPolicy};
use runtime::stats::StatsSnapshot;
use runtime::Team;
use spmd_opt::{demote_site, set_site_op, sync_sites, SpmdProgram, SyncOp};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Chaos pass-through that masks [`ChaosAction::Drop`] at quarantined
/// sites (benign perturbations — delays, stalls, spurious wakes — still
/// flow). Without this, a deterministic injector that drops every visit
/// of a site would defeat any finite retry budget.
struct SiteMaskedChaos {
    inner: Arc<dyn SyncChaos>,
    masked: Mutex<BTreeSet<usize>>,
    isolated: AtomicBool,
}

impl SiteMaskedChaos {
    fn new(inner: Arc<dyn SyncChaos>) -> Self {
        SiteMaskedChaos {
            inner,
            masked: Mutex::new(BTreeSet::new()),
            isolated: AtomicBool::new(false),
        }
    }

    /// Mask drops at `site` for every later attempt. Only called
    /// between attempts (no workers running).
    fn mask(&self, site: usize) {
        self.masked.lock().unwrap().insert(site);
    }

    /// Lift a site's mask again (probation served: the site is trusted
    /// with its optimized op, so injected faults there must count
    /// again). Only called between attempts.
    fn unmask(&self, site: usize) {
        self.masked.lock().unwrap().remove(&site);
    }

    /// Mask drops everywhere (the ladder's last rung before giving
    /// up — a fault that survives per-site quarantine is aliasing from
    /// somewhere else).
    fn isolate(&self) {
        self.isolated.store(true, Ordering::Release);
    }
}

impl SyncChaos for SiteMaskedChaos {
    fn at_sync(&self, site: usize, pid: usize, visit: u64) -> ChaosAction {
        let action = self.inner.at_sync(site, pid, visit);
        // A non-maskable policy models permanent hardware loss: its
        // drops flow through quarantine and isolation untouched, so
        // the sticky-fault classifier (not the site ladder) has to
        // resolve it.
        if matches!(action, ChaosAction::Drop)
            && self.inner.maskable()
            && (self.isolated.load(Ordering::Acquire)
                || self.masked.lock().unwrap().contains(&site))
        {
            ChaosAction::None
        } else {
            action
        }
    }

    fn maskable(&self) -> bool {
        self.inner.maskable()
    }
}

/// Infer which processor a failed attempt implicates, if any.
///
/// Four signals, checked in order:
/// 1. exactly one worker *panicked* — its pid (peers that observed the
///    poison are victims, and a poison-derived headline carries the
///    observer's pid, so the per-processor states are authoritative);
/// 2. exactly one worker owes neighbor posts — its traversal passed
///    more neighbor sync events than its shared flag cell recorded
///    ([`ParallelOutcome::post_deficits`]). This is physical evidence,
///    not positional inference: a healthy worker can never claim a
///    post that did not land. It is the only signal that survives
///    neighbor-chained plans, where the wedge cascades pid-to-pid and
///    the dead processor is as likely to be *waiting* (on a victim of
///    its own dropped posts) as it is to be ahead of the pack;
/// 3. exactly one worker finished `"ok"` while at least one peer holds
///    a primary sync fault — a silently-dead processor skips its own
///    waits and sails through while everyone else times out waiting
///    for its posts, so the lone survivor is the suspect;
/// 4. exactly one worker's terminal wait is at the *dispatch/join
///    gate* while at least one peer's is at a real sync site — under a
///    barrier-only plan a dead pid posts nothing and waits for
///    nothing, so it outruns the region its whole team is still wedged
///    inside and parks at the gate. Its deadline there and its peers'
///    at their site expire within microseconds of each other, so which
///    of the two is the primary fault and which the poison observation
///    is a coin toss the inference must not depend on.
///
/// Anything else (multiple panics, several survivors, a wedge with no
/// survivors) returns `None`: the attempt breaks any sticky streak and
/// is handled by the site ladder alone.
fn infer_suspect(out: &ParallelOutcome) -> Option<usize> {
    let failure = out.failure.as_ref()?;
    let panicked: Vec<usize> = failure
        .per_proc
        .iter()
        .enumerate()
        .filter(|(_, s)| s.starts_with("panicked"))
        .map(|(p, _)| p)
        .collect();
    if panicked.len() == 1 {
        return Some(panicked[0]);
    }
    if !panicked.is_empty() {
        return None;
    }
    let owing: Vec<usize> = out
        .post_deficits
        .iter()
        .enumerate()
        .filter(|(_, &d)| d > 0)
        .map(|(p, _)| p)
        .collect();
    if owing.len() == 1 {
        return Some(owing[0]);
    }
    let finished: Vec<usize> = failure
        .per_proc
        .iter()
        .enumerate()
        .filter(|(_, s)| s.as_str() == "ok")
        .map(|(p, _)| p)
        .collect();
    let primary_real = out
        .proc_errors
        .iter()
        .flatten()
        .filter(|e| e.is_primary() && e.site() != DISPATCH_SITE)
        .count();
    if finished.len() == 1 && primary_real >= 1 {
        return Some(finished[0]);
    }
    let at_dispatch: Vec<usize> = out
        .proc_errors
        .iter()
        .enumerate()
        .filter(|(_, e)| e.as_ref().is_some_and(|e| e.site() == DISPATCH_SITE))
        .map(|(p, _)| p)
        .collect();
    let at_real_site = out
        .proc_errors
        .iter()
        .flatten()
        .filter(|e| e.site() != DISPATCH_SITE)
        .count();
    if finished.is_empty() && at_dispatch.len() == 1 && at_real_site >= 1 {
        return Some(at_dispatch[0]);
    }
    None
}

/// What a supervised execution produced: the final attempt's outcome
/// plus the full recovery timeline.
pub struct RecoveryOutcome {
    /// The final attempt (success, or the residual failure when the
    /// budget ran out). Its stats/telemetry cover that attempt only.
    pub outcome: ParallelOutcome,
    /// The failed-and-retried attempts, in order.
    pub attempts: Vec<AttemptReport>,
    /// Total executions spent (1 = clean first run).
    pub attempts_used: u32,
    /// Sites demoted to a full barrier, with labels, in demotion order.
    pub demoted: Vec<(usize, String)>,
    /// Sites quarantined after demotion did not help.
    pub quarantined: Vec<usize>,
    /// Sites restored to their optimized op after serving probation
    /// ([`RetryPolicy::probation_k`] consecutive clean episodes), with
    /// labels, in restoration order.
    pub restored: Vec<(usize, String)>,
    /// Fault count per site, sorted by site.
    pub fault_counts: Vec<(usize, u32)>,
    /// Fault count per processor, sorted by pid.
    pub pid_fault_counts: Vec<(usize, u32)>,
    /// The processor the sticky-fault rule classified as permanently
    /// lost ([`RetryPolicy::sticky_pid_k`] consecutive attempts with
    /// the same primary suspect). When set, the supervisor aborted
    /// early with memory rolled back to the region checkpoint so a
    /// degrading caller can re-dispatch on a smaller team.
    pub lost_pid: Option<usize>,
    /// The plan the final attempt ran (demotions applied).
    pub final_plan: SpmdProgram,
    /// Array cells in the write-set checkpoint.
    pub checkpoint_cells: usize,
    /// Sync stats summed over *every* attempt
    /// ([`RecoveryOutcome::outcome`] covers only the final one; metrics
    /// totals must use this field).
    pub total_stats: StatsSnapshot,
    program: String,
    nprocs: usize,
    deadline_ms: f64,
    max_attempts: u32,
}

impl RecoveryOutcome {
    /// True when the final attempt completed.
    pub fn ok(&self) -> bool {
        self.outcome.ok()
    }

    /// True when completion took at least one retry.
    pub fn recovered(&self) -> bool {
        self.ok() && !self.attempts.is_empty()
    }

    /// The deterministic recovery report (pass the chaos seed when a
    /// seeded injector was active, so repro bundles carry it).
    pub fn report(&self, chaos_seed: Option<u64>) -> RecoveryReport {
        RecoveryReport {
            program: self.program.clone(),
            nprocs: self.nprocs,
            deadline_ms: self.deadline_ms,
            max_attempts: self.max_attempts,
            attempts_used: self.attempts_used,
            recovered: self.recovered(),
            ok: self.ok(),
            attempts: self.attempts.clone(),
            demoted: self.demoted.clone(),
            quarantined: self.quarantined.clone(),
            fault_counts: self.fault_counts.clone(),
            pid_fault_counts: self.pid_fault_counts.clone(),
            restored: self.restored.clone(),
            lost_pid: self.lost_pid,
            checkpoint_cells: self.checkpoint_cells,
            chaos_seed,
            residual: self.outcome.failure.clone(),
        }
    }
}

/// Execute `plan` under the recovery supervisor (see the module docs).
///
/// `opts.deadline` must be armed — without a watchdog a fault is a hang,
/// not a detected, retryable failure. Memory is rolled back to the
/// entry checkpoint before every retry, so on success `mem` holds a
/// result indistinguishable from a clean run.
pub fn run_parallel_recovering(
    prog: &Arc<Program>,
    bind: &Arc<Bindings>,
    plan: &SpmdProgram,
    mem: &Arc<Mem>,
    team: &Team,
    opts: &ObserveOptions,
    policy: &RetryPolicy,
) -> RecoveryOutcome {
    let events = Arc::new(unroll(prog, bind, plan));
    run_recovering_on(prog, bind, plan, events, mem, team, opts, policy)
}

/// [`run_parallel_recovering`] for a caller that already unrolled
/// `plan` into `events`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_recovering_on(
    prog: &Arc<Program>,
    bind: &Arc<Bindings>,
    plan: &SpmdProgram,
    mut events: Arc<Schedule>,
    mem: &Arc<Mem>,
    team: &Team,
    opts: &ObserveOptions,
    policy: &RetryPolicy,
) -> RecoveryOutcome {
    let deadline = opts
        .deadline
        .expect("run_parallel_recovering needs an armed deadline (opts.deadline)");
    let site_labels: Vec<String> = sync_sites(prog, plan)
        .into_iter()
        .map(|s| s.label)
        .collect();
    let checkpoint = Checkpoint::capture(prog, bind, &events, mem);
    let fabric = SyncFabric::for_schedule(opts, &events);
    // Supervisor-side profile marks go on the extra track past the
    // workers' (index `nprocs`), so they never race a worker's ring.
    if let Some(p) = fabric.profiler() {
        p.record(
            p.supervisor_track(),
            EventKind::Checkpoint,
            NO_SITE,
            checkpoint.elem_cells() as u64,
        );
    }
    let mut working = plan.clone();
    let masked = opts
        .chaos
        .as_ref()
        .map(|c| Arc::new(SiteMaskedChaos::new(Arc::clone(c))));
    let mut ledger = Quarantine::new();
    let mut attempts: Vec<AttemptReport> = Vec::new();
    let mut demoted: Vec<(usize, String)> = Vec::new();
    let mut restored: Vec<(usize, String)> = Vec::new();
    // Ops displaced by demotion, kept so probation can restore them.
    let mut displaced: BTreeMap<usize, SyncOp> = BTreeMap::new();
    let max_attempts = policy.max_attempts.max(1);
    let mut attempt = 0u32;
    let mut total_stats = StatsSnapshot::default();
    loop {
        attempt += 1;
        let mut aopts = opts.clone();
        if let Some(m) = &masked {
            aopts.chaos = Some(Arc::clone(m) as Arc<dyn SyncChaos>);
        }
        let out =
            run_parallel_observed_on(prog, bind, &working, &events, mem, team, &aopts, &fabric);
        total_stats.merge(&out.stats);
        let failed = out.failure.is_some();
        let suspect = if failed { infer_suspect(&out) } else { None };
        let streak = if failed {
            ledger.record_attempt_suspect(suspect)
        } else {
            0
        };
        // Sticky-fault classification: the same pid implicated across
        // K consecutive failed attempts is a permanent processor loss,
        // not a flaky site — stop burning the retry budget and hand
        // the decision up (the degrading executor shrinks the team).
        let sticky = policy.sticky_pid_k > 0 && suspect.is_some() && streak >= policy.sticky_pid_k;
        if !failed || sticky || attempt >= max_attempts {
            if sticky {
                let failure = out.failure.as_ref().unwrap();
                attempts.push(AttemptReport {
                    attempt,
                    headline: failure.headline(),
                    actions: Vec::new(),
                    backoff_ms: 0,
                    barrier_episodes: out.stats.barrier_episodes,
                    counter_increments: out.stats.counter_increments,
                    neighbor_posts: out.stats.neighbor_posts,
                    spin_rounds: out.stats.spin_rounds,
                    yield_rounds: out.stats.yield_rounds,
                    parks: out.stats.parks,
                    suspect_pid: suspect,
                });
                // Leave memory at the region entry state so the caller
                // can re-dispatch on a smaller team immediately.
                checkpoint.rollback(mem);
                if let Some(p) = fabric.profiler() {
                    p.record(
                        p.supervisor_track(),
                        EventKind::Rollback,
                        NO_SITE,
                        checkpoint.elem_cells() as u64,
                    );
                }
            }
            return RecoveryOutcome {
                outcome: out,
                attempts,
                attempts_used: attempt,
                demoted,
                quarantined: ledger.quarantined().to_vec(),
                restored,
                fault_counts: ledger.fault_counts(),
                pid_fault_counts: ledger.pid_fault_counts(),
                lost_pid: if sticky { suspect } else { None },
                final_plan: working,
                checkpoint_cells: checkpoint.elem_cells(),
                total_stats,
                program: prog.name.clone(),
                nprocs: bind.nprocs as usize,
                deadline_ms: deadline.as_secs_f64() * 1e3,
                max_attempts,
            };
        }
        let failure = out.failure.as_ref().unwrap();
        // Every implicated site: the headline plus all primary
        // per-processor faults (poison observations are victims, not
        // causes; the dispatch sentinel is outside the site walk).
        let mut sites_hit = BTreeSet::new();
        if let Some(s) = failure.cause.site() {
            if s != DISPATCH_SITE {
                sites_hit.insert(s);
            }
        }
        for e in out.proc_errors.iter().flatten() {
            if e.is_primary() && e.site() != DISPATCH_SITE {
                sites_hit.insert(e.site());
            }
        }
        let mut actions = Vec::new();
        let mut replanned = false;
        for &site in &sites_hit {
            let label = site_labels
                .get(site)
                .cloned()
                .unwrap_or_else(|| format!("s{site}"));
            let action = match ledger.record_fault(site) {
                FaultDisposition::Demote => {
                    if let Some(old) = demote_site(&mut working, site) {
                        displaced.insert(site, old);
                        replanned = true;
                    }
                    demoted.push((site, label.clone()));
                    "demote"
                }
                FaultDisposition::Quarantine => {
                    if let Some(m) = &masked {
                        m.mask(site);
                    }
                    "quarantine"
                }
                FaultDisposition::Isolate => {
                    if let Some(m) = &masked {
                        m.isolate();
                    }
                    "isolate"
                }
                FaultDisposition::Retry => "retry",
            };
            actions.push(SiteActionReport {
                site,
                label,
                action: action.to_string(),
            });
        }
        // Probation: every site in the fault ledger that was *not*
        // implicated by this failed attempt earns a clean episode; a
        // site clean for `probation_k` consecutive episodes is
        // forgiven — quarantine mask lifted and the optimized sync op
        // it was demoted from put back in the working plan.
        if policy.probation_k > 0 {
            let on_ledger: Vec<usize> = ledger.fault_counts().iter().map(|&(s, _)| s).collect();
            for site in on_ledger {
                if sites_hit.contains(&site) {
                    continue;
                }
                if ledger.record_clean(site, policy.probation_k) {
                    if let Some(op) = displaced.remove(&site) {
                        set_site_op(&mut working, site, op);
                        replanned = true;
                    }
                    if let Some(m) = &masked {
                        m.unmask(site);
                    }
                    let label = site_labels
                        .get(site)
                        .cloned()
                        .unwrap_or_else(|| format!("s{site}"));
                    restored.push((site, label.clone()));
                    actions.push(SiteActionReport {
                        site,
                        label,
                        action: "restore".to_string(),
                    });
                }
            }
        }
        let backoff = policy.backoff_before(attempt);
        attempts.push(AttemptReport {
            attempt,
            headline: failure.headline(),
            actions,
            backoff_ms: backoff.as_millis() as u64,
            barrier_episodes: out.stats.barrier_episodes,
            counter_increments: out.stats.counter_increments,
            neighbor_posts: out.stats.neighbor_posts,
            spin_rounds: out.stats.spin_rounds,
            yield_rounds: out.stats.yield_rounds,
            parks: out.stats.parks,
            suspect_pid: suspect,
        });
        checkpoint.rollback(mem);
        if let Some(p) = fabric.profiler() {
            let track = p.supervisor_track();
            p.record(
                track,
                EventKind::Rollback,
                NO_SITE,
                checkpoint.elem_cells() as u64,
            );
            p.record(track, EventKind::Retry, NO_SITE, attempt as u64);
        }
        fabric.reset();
        if replanned {
            events = Arc::new(unroll(prog, bind, &working));
        }
        std::thread::sleep(backoff);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::BarrierKind;
    use crate::run_sequential;
    use ir::build::*;
    use runtime::fault::SyncError;
    use spmd_opt::{fork_join, optimize};
    use std::time::Duration;

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

    fn guarded(chaos: Option<Arc<dyn SyncChaos>>) -> ObserveOptions {
        ObserveOptions {
            barrier: BarrierKind::Central,
            deadline: Some(Duration::from_millis(120)),
            chaos,
            ..ObserveOptions::default()
        }
    }

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 7,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            ..RetryPolicy::default()
        }
    }

    /// Drops every visit of one (site, pid) — a persistent fault a
    /// single retry cannot outrun; only the full ladder converges.
    ///
    /// The site must be one whose dropped post actually wedges the
    /// region: with one shared barrier across sites, a skipped arrival
    /// mid-run is backfilled by the dropper's *next* arrival (episode
    /// aliasing), so the tests drop at the run's final barrier site,
    /// where no later arrival can paper over the hole.
    struct DropAt {
        site: usize,
        pid: usize,
    }

    impl SyncChaos for DropAt {
        fn at_sync(&self, site: usize, pid: usize, _visit: u64) -> ChaosAction {
            if site == self.site && pid == self.pid {
                ChaosAction::Drop
            } else {
                ChaosAction::None
            }
        }
    }

    /// A dead pid under a barrier-only plan is parked at the dispatch
    /// gate while its team is wedged at a barrier, and the two
    /// deadlines expire together: whichever wait reports the primary
    /// fault, the gate-parked pid is the suspect.
    #[test]
    fn the_gate_parked_pid_is_the_suspect_whoever_timed_out_first() {
        struct Silent;
        impl SyncChaos for Silent {
            fn at_sync(&self, _site: usize, pid: usize, _visit: u64) -> ChaosAction {
                if pid == 3 {
                    ChaosAction::Drop
                } else {
                    ChaosAction::None
                }
            }
        }
        let (prog, bind) = sweep(32, 3, 4);
        let plan = fork_join(&prog, &bind);
        let mem = Arc::new(Mem::new(&prog, &bind));
        let team = Team::new(4);
        let opts = guarded(Some(Arc::new(Silent)));
        let mut out = crate::run_parallel_observed(&prog, &bind, &plan, &mem, &team, &opts);
        assert!(out.failure.is_some());
        let waiting_at: Vec<usize> = out
            .proc_errors
            .iter()
            .map(|e| e.as_ref().expect("every wait failed").site())
            .collect();
        assert_eq!(waiting_at[3], DISPATCH_SITE);
        assert!(waiting_at[..3].iter().all(|&s| s != DISPATCH_SITE));
        for first in [0, 3] {
            for (pid, site) in waiting_at.iter().copied().enumerate() {
                out.proc_errors[pid] = Some(if pid == first {
                    SyncError::DeadlineExceeded {
                        site,
                        pid,
                        kind: runtime::stats::SyncKind::Barrier,
                        expected: 4,
                        observed: 3,
                    }
                } else {
                    SyncError::Poisoned {
                        site,
                        pid,
                        cause: String::new(),
                    }
                });
            }
            assert_eq!(infer_suspect(&out), Some(3), "P{first} timed out first");
        }
    }

    #[test]
    fn persistent_dropped_arrival_converges_via_the_ladder() {
        let (prog, bind) = sweep(32, 3, 4);
        let team = Team::new(4);
        let oracle = Mem::new(&prog, &bind);
        oracle.fill(ir::ArrayId(0), |s| (s[0] % 5) as f64);
        run_sequential(&prog, &bind, &oracle);

        let plan = fork_join(&prog, &bind);
        let last = sync_sites(&prog, &plan).len() - 1;
        let mem = Arc::new(Mem::new(&prog, &bind));
        mem.fill(ir::ArrayId(0), |s| (s[0] % 5) as f64);
        let chaos: Arc<dyn SyncChaos> = Arc::new(DropAt { site: last, pid: 0 });
        let r = run_parallel_recovering(
            &prog,
            &bind,
            &plan,
            &mem,
            &team,
            &guarded(Some(chaos)),
            &fast_policy(),
        );
        assert!(r.ok(), "must converge: {:?}", r.outcome.failure);
        assert!(r.recovered());
        // Fault 1 → demote s0, fault 2 → quarantine s0, attempt 3 is
        // clean: exactly two failed attempts.
        assert_eq!(r.attempts.len(), 2);
        assert_eq!(r.attempts_used, 3);
        assert_eq!(r.attempts[0].actions[0].action, "demote");
        assert_eq!(r.attempts[0].actions[0].site, last);
        assert_eq!(r.attempts[1].actions[0].action, "quarantine");
        assert!(r.quarantined.contains(&last));
        assert_eq!(r.demoted[0].0, last);
        // Rolled-back retries leave no trace in memory: the recovered
        // result is bit-identical to the sequential oracle.
        assert_eq!(mem.max_abs_diff(&oracle), 0.0);
        // Backoffs in the report are the planned policy values.
        assert_eq!(r.attempts[0].backoff_ms, 1);
        assert_eq!(r.attempts[1].backoff_ms, 2);
    }

    #[test]
    fn clean_run_spends_one_attempt_and_is_not_a_recovery() {
        let (prog, bind) = sweep(32, 3, 4);
        let team = Team::new(4);
        let plan = optimize(&prog, &bind);
        let mem = Arc::new(Mem::new(&prog, &bind));
        let r = run_parallel_recovering(
            &prog,
            &bind,
            &plan,
            &mem,
            &team,
            &guarded(None),
            &fast_policy(),
        );
        assert!(r.ok() && !r.recovered());
        assert_eq!(r.attempts_used, 1);
        assert!(r.attempts.is_empty() && r.demoted.is_empty());
        let rep = r.report(None);
        assert!(rep.ok && !rep.recovered);
    }

    #[test]
    fn exhausted_budget_surfaces_the_residual_failure() {
        let (prog, bind) = sweep(32, 2, 4);
        let team = Team::new(4);
        let plan = fork_join(&prog, &bind);
        let last = sync_sites(&prog, &plan).len() - 1;
        let mem = Arc::new(Mem::new(&prog, &bind));
        let chaos: Arc<dyn SyncChaos> = Arc::new(DropAt { site: last, pid: 0 });
        let policy = RetryPolicy {
            max_attempts: 1,
            ..fast_policy()
        };
        let r = run_parallel_recovering(
            &prog,
            &bind,
            &plan,
            &mem,
            &team,
            &guarded(Some(chaos)),
            &policy,
        );
        assert!(!r.ok());
        assert_eq!(r.attempts_used, 1);
        let rep = r.report(Some(9));
        assert!(!rep.ok && rep.residual.is_some());
        assert_eq!(rep.chaos_seed, Some(9));
    }

    /// A permanently dead core: drops every post on one pid, at every
    /// site, forever — and not maskable, because quarantining a site
    /// cannot revive hardware.
    struct SilentKill {
        pid: usize,
    }

    impl SyncChaos for SilentKill {
        fn at_sync(&self, _site: usize, pid: usize, _visit: u64) -> ChaosAction {
            if pid == self.pid {
                ChaosAction::Drop
            } else {
                ChaosAction::None
            }
        }

        fn maskable(&self) -> bool {
            false
        }
    }

    #[test]
    fn sticky_fault_classifies_a_dead_pid_instead_of_burning_the_budget() {
        let (prog, bind) = sweep(32, 3, 4);
        let team = Team::new(4);
        let plan = fork_join(&prog, &bind);
        let mem = Arc::new(Mem::new(&prog, &bind));
        mem.fill(ir::ArrayId(0), |s| (s[0] % 5) as f64);
        let pristine = Mem::new(&prog, &bind);
        pristine.fill(ir::ArrayId(0), |s| (s[0] % 5) as f64);
        let chaos: Arc<dyn SyncChaos> = Arc::new(SilentKill { pid: 0 });
        let policy = RetryPolicy {
            sticky_pid_k: 2,
            ..fast_policy()
        };
        let r = run_parallel_recovering(
            &prog,
            &bind,
            &plan,
            &mem,
            &team,
            &guarded(Some(chaos)),
            &policy,
        );
        // The dead pid finishes "ok" (its waits are all skipped) while
        // every peer wedges: two consecutive attempts with the same
        // lone survivor classify it as a permanent loss, well inside
        // the 7-attempt budget the site ladder would have burned.
        assert!(!r.ok());
        assert_eq!(r.lost_pid, Some(0));
        assert_eq!(r.attempts_used, 2);
        assert_eq!(r.attempts.len(), 2);
        assert_eq!(r.attempts[0].suspect_pid, Some(0));
        assert_eq!(r.attempts[1].suspect_pid, Some(0));
        assert_eq!(r.pid_fault_counts, vec![(0, 2)]);
        // The early abort leaves memory at the region entry state so a
        // degrading caller can re-dispatch immediately.
        assert_eq!(mem.max_abs_diff(&pristine), 0.0);
        let rep = r.report(None);
        assert_eq!(rep.lost_pid, Some(0));
    }

    fn is_neighbor(op: &SyncOp) -> bool {
        matches!(op.class(), Some(analysis::CommPattern::Neighbor { .. }))
    }

    /// The canonical sync-op sequence of a plan (mirrors the walk of
    /// `spmd_opt::set_site_op`), so tests can compare a site's op
    /// before demotion and after probation restores it.
    fn site_ops(plan: &SpmdProgram) -> Vec<SyncOp> {
        use spmd_opt::{RItem, TopItem};
        fn items(list: &[RItem], out: &mut Vec<SyncOp>) {
            for it in list {
                match it {
                    RItem::Phase(p) => out.push(p.after.clone()),
                    RItem::Seq {
                        body,
                        bottom,
                        after,
                        ..
                    } => {
                        items(body, out);
                        out.push(bottom.clone());
                        out.push(after.clone());
                    }
                }
            }
        }
        fn top(list: &[TopItem], out: &mut Vec<SyncOp>) {
            for it in list {
                match it {
                    TopItem::SerialStmt(_) => {}
                    TopItem::MasterLoop { body, .. } => top(body, out),
                    TopItem::Region(r) => {
                        items(&r.items, out);
                        out.push(r.end.clone());
                    }
                }
            }
        }
        let mut out = Vec::new();
        top(&plan.items, &mut out);
        out
    }

    /// Stateful injector for the probation scenario: P1 drops its
    /// neighbor posts at `site` during attempt 1 only (a transient
    /// flake that wedges the flag consumers at a neighbor site right
    /// away — no later post backfills), and P2 panics during attempts
    /// 2 and 3 (an unrelated siteless fault streak, during which the
    /// flaked site stays clean and must be forgiven). Attempts are
    /// counted per pid at `visit == 0` of `site`, which each pid
    /// reaches exactly once per attempt (visit counters reset between
    /// attempts) before anything can wedge it.
    struct TransientThenElsewhere {
        site: usize,
        p1_attempts: std::sync::atomic::AtomicU32,
        p2_attempts: std::sync::atomic::AtomicU32,
    }

    impl SyncChaos for TransientThenElsewhere {
        fn at_sync(&self, site: usize, pid: usize, visit: u64) -> ChaosAction {
            use std::sync::atomic::Ordering::SeqCst;
            if site == self.site && visit == 0 {
                if pid == 1 {
                    self.p1_attempts.fetch_add(1, SeqCst);
                }
                if pid == 2 {
                    let a = self.p2_attempts.fetch_add(1, SeqCst) + 1;
                    if a == 2 || a == 3 {
                        panic!("injected: unrelated worker fault");
                    }
                }
            }
            if site == self.site && pid == 1 && self.p1_attempts.load(SeqCst) == 1 {
                return ChaosAction::Drop;
            }
            ChaosAction::None
        }
    }

    /// Satellite: probation. A transiently-flaky site is demoted on
    /// its one fault, stays clean while later failures land elsewhere,
    /// and after `probation_k` clean episodes gets its optimized sync
    /// op back — the run does not pay the barrier tax forever.
    #[test]
    fn transient_flake_serves_probation_and_returns_to_its_optimized_op() {
        let (prog, bind) = sweep(32, 3, 4);
        let team = Team::new(4);
        let oracle = Mem::new(&prog, &bind);
        oracle.fill(ir::ArrayId(0), |s| (s[0] % 5) as f64);
        run_sequential(&prog, &bind, &oracle);

        let plan = optimize(&prog, &bind);
        let ops = site_ops(&plan);
        let site = ops
            .iter()
            .position(is_neighbor)
            .expect("optimized sweep must place a neighbor sync");
        let mem = Arc::new(Mem::new(&prog, &bind));
        mem.fill(ir::ArrayId(0), |s| (s[0] % 5) as f64);
        let chaos: Arc<dyn SyncChaos> = Arc::new(TransientThenElsewhere {
            site,
            p1_attempts: Default::default(),
            p2_attempts: Default::default(),
        });
        let policy = RetryPolicy {
            probation_k: 2,
            ..fast_policy()
        };
        let r = run_parallel_recovering(
            &prog,
            &bind,
            &plan,
            &mem,
            &team,
            &guarded(Some(chaos)),
            &policy,
        );
        assert!(r.ok(), "must converge: {:?}", r.outcome.failure);
        assert!(r.recovered());
        // Attempt 1 flakes: P1's dropped posts wedge the flag consumers
        // at a neighbor site (which of the two neighbor sites wins the
        // deadline race is timing-dependent, but a barrier site cannot
        // — nobody reaches the region end). Attempts 2-3 fail elsewhere
        // (sitelessly) while the demoted site serves probation; attempt
        // 4 is clean.
        assert_eq!(r.attempts_used, 4);
        assert!(!r.demoted.is_empty());
        for &(s, _) in &r.demoted {
            assert!(
                is_neighbor(&ops[s]),
                "attempt 1 must wedge at a neighbor site, demoted s{s} ({:?})",
                ops[s]
            );
            assert!(
                r.restored.iter().any(|&(rs, _)| rs == s),
                "probation must lift s{s}: restored={:?}",
                r.restored
            );
            assert!(r
                .attempts
                .iter()
                .flat_map(|a| a.actions.iter())
                .any(|x| x.site == s && x.action == "restore"));
            // And the forgiven site's fault ledger is clean again.
            assert!(!r.fault_counts.iter().any(|&(fs, _)| fs == s));
            assert!(!r.quarantined.contains(&s));
        }
        // The restored plan carries the original optimized ops
        // everywhere — no demotion barrier survives probation.
        assert_eq!(site_ops(&r.final_plan), ops);
        assert_eq!(mem.max_abs_diff(&oracle), 0.0);
    }

    /// Per-attempt telemetry isolation. The final outcome's stats must
    /// equal the final attempt's schedule-derived counts — nothing from
    /// the abandoned attempts leaks into it — and the run totals are
    /// exactly the attempts' snapshots summed.
    #[test]
    fn final_attempt_stats_are_not_conflated_with_retries() {
        let (prog, bind) = sweep(32, 3, 4);
        let team = Team::new(4);
        let plan = fork_join(&prog, &bind);
        let last = sync_sites(&prog, &plan).len() - 1;
        let mem = Arc::new(Mem::new(&prog, &bind));
        let chaos: Arc<dyn SyncChaos> = Arc::new(DropAt { site: last, pid: 0 });
        let r = run_parallel_recovering(
            &prog,
            &bind,
            &plan,
            &mem,
            &team,
            &guarded(Some(chaos)),
            &fast_policy(),
        );
        assert!(r.ok());
        assert_eq!(r.outcome.stats.barrier_episodes, r.outcome.counts.barriers);
        assert_eq!(
            r.outcome.stats.counter_increments,
            r.outcome.counts.counter_increments
        );
        // Each failed attempt recorded its own (partial) numbers; a
        // doubled-up count would exceed one schedule's worth.
        for a in &r.attempts {
            assert!(a.barrier_episodes <= r.outcome.counts.barriers);
        }
        assert!(!r.attempts.is_empty(), "the drop never bit");
        let (last, total) = (&r.outcome.stats, &r.total_stats);
        let summed = |of: fn(&AttemptReport) -> u64| r.attempts.iter().map(of).sum::<u64>();
        for (attempts, last, total) in [
            (
                summed(|a| a.barrier_episodes),
                last.barrier_episodes,
                total.barrier_episodes,
            ),
            (
                summed(|a| a.neighbor_posts),
                last.neighbor_posts,
                total.neighbor_posts,
            ),
            (
                summed(|a| a.spin_rounds),
                last.spin_rounds,
                total.spin_rounds,
            ),
            (
                summed(|a| a.yield_rounds),
                last.yield_rounds,
                total.yield_rounds,
            ),
            (summed(|a| a.parks), last.parks, total.parks),
        ] {
            assert_eq!(attempts + last, total);
        }
    }
}
