//! One supervisor for every fault rung: checkpoint, bounded retry,
//! per-site barrier fallback and — when the caller can re-plan —
//! elastic team shrink and the serial tail.
//!
//! [`run_parallel_supervised`] wraps the guarded executor
//! ([`crate::par::run_parallel_observed_on`]) in one attempt loop that
//! turns a detected region failure (deadline, stale generation, panic
//! poison) into a bounded, observable retry instead of a terminal
//! report:
//!
//! 1. at entry the live-in memory is checkpointed once
//!    ([`crate::checkpoint`]) — pre-images of exactly the schedule's
//!    write set. Owner-computes partitions at any team width cover the
//!    same union of iterations, so that one snapshot serves every
//!    retry, every shrunk round, and the serial tail;
//! 2. each failed attempt rolls memory back to the checkpoint — once —
//!    re-arms the fabric ([`SyncFabric::reset`]: barriers re-zeroed,
//!    cell and gate generations bumped; each attempt's workers measure
//!    into fresh recorders, so attempts never conflate), sleeps a
//!    deterministic exponential backoff, and re-executes;
//! 3. every *implicated* sync site (all primary per-processor faults,
//!    not just whichever one won the race into the headline) climbs the
//!    escalation ladder of [`runtime::recovery::Quarantine`]: the first
//!    fault *demotes* the site's optimized sync op to a full barrier
//!    (`spmd_opt::demote_site` — the paper's conservative fork-join
//!    placement), a second *quarantines* it, which additionally masks
//!    injected dropped posts there ([`SiteMaskedChaos`]) so a
//!    deterministic injector cannot re-kill every retry, and a third
//!    *isolates* the run (masks every injected drop — a fault that
//!    survives quarantine is barrier aliasing from another site);
//!    faults with no attributable site (worker panics, dispatch
//!    timeouts) are plainly retried;
//! 4. given a `replan`, the same processor suspected by
//!    [`STICKY_PID_K`] consecutive failed attempts is a permanent loss,
//!    not a flaky site: the round ends and the region re-dispatches on a
//!    team one narrower, under a plan the caller re-derives at that
//!    width — owner-computes bounds baked into the old plan are only
//!    sound for the width they were computed at (block ownership with a
//!    loop coefficient does not clamp, so a stale plan at fewer
//!    processors silently skips the missing pids' iterations).
//!    Privatized arrays need no migration: storage keeps one private
//!    copy per *original* pid, the smaller team uses the prefix, and
//!    privatizable means written-before-read. A round that fails at
//!    width 1, or without a classifiable pid, hands the region to the
//!    serial tail ([`run_sequential`]), which uses no synchronization
//!    and so cannot be wedged by any sync-level fault.
//!
//! Without `replan` a round that spends its budget
//! ([`RetryPolicy::max_attempts`]) ends the run on its last failure.
//! With it, every run terminates with memory bit-identical to the
//! sequential oracle — at worst at serial speed. Either way the whole
//! timeline is one [`FaultReport`] (planned backoffs, no wall-clock).

use crate::checkpoint::Checkpoint;
use crate::mem::Mem;
use crate::par::{
    run_parallel_observed_on, ChaosAction, ObserveOptions, ParallelOutcome, SyncChaos, SyncFabric,
};
use crate::run_sequential;
use analysis::Bindings;
use ir::Program;
use obs::{Attempt, FaultReport, Round, Rung, SiteAction};
use runtime::events::{EventKind, Profiler, NO_SITE};
use runtime::fault::DISPATCH_SITE;
use runtime::recovery::{FaultDisposition, Quarantine, RetryPolicy, STICKY_PID_K};
use runtime::stats::StatsSnapshot;
use runtime::Team;
use spmd_opt::{demote_site, sync_sites, SpmdProgram};
use std::collections::BTreeSet;
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
        self.masked.lock().expect("mask lock").insert(site);
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
                || self.masked.lock().expect("mask lock").contains(&site))
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
/// 2. exactly one worker owes posts — its traversal passed more sync
///    events at which it posts than its cell recorded
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

/// Re-derives a plan of the supervised plan's family at another width
/// (`spmd_opt::optimize` or `spmd_opt::fork_join`).
pub type Replan<'a> = &'a dyn Fn(&Program, &Bindings) -> SpmdProgram;

/// What a supervised execution produced.
pub struct Supervised {
    /// The last parallel attempt: the one that completed, or the last
    /// failure. Its stats cover that attempt only.
    pub outcome: ParallelOutcome,
    /// The plan the last parallel attempt ran, demotions applied
    /// (`None` when the serial tail finished the run).
    pub final_plan: Option<SpmdProgram>,
    /// Sync stats summed over every attempt of every round (`outcome`
    /// covers only the last one; metrics totals must use this field).
    pub total_stats: StatsSnapshot,
    /// The whole timeline. The supervisor does not know the chaos seed;
    /// a caller that injected one sets `report.chaos_seed`.
    pub report: FaultReport,
}

/// Execute `plan` under the supervisor (see the module docs). `replan`
/// — the constructor of `plan`'s family, `spmd_opt::optimize` or
/// `spmd_opt::fork_join` — enables the shrink and serial rungs; `None`
/// stops at the site ladder.
///
/// `opts.deadline` must be armed — without a watchdog a fault is a hang,
/// not a detected, retryable failure. Memory is rolled back to the
/// entry checkpoint after every failed attempt, so a completed run
/// leaves `mem` indistinguishable from a clean run, and a failed one
/// leaves it at the region entry state.
#[allow(clippy::too_many_arguments)]
pub fn run_parallel_supervised(
    prog: &Arc<Program>,
    bind: &Arc<Bindings>,
    plan: &SpmdProgram,
    mem: &Arc<Mem>,
    team: &Team,
    opts: &ObserveOptions,
    policy: &RetryPolicy,
    replan: Option<Replan<'_>>,
) -> Supervised {
    let deadline = opts
        .deadline
        .expect("run_parallel_supervised needs an armed deadline (opts.deadline)");
    let checkpoint = Checkpoint::capture(prog, bind, plan, mem);
    // One profiler for the whole run, sized for the widest team, so its
    // stream spans every round; supervisor marks go on the track past
    // the workers', so they never race a worker's ring.
    let widest = bind.nprocs as usize;
    let profiler = opts
        .profile
        .map(|po| Arc::new(Profiler::new(widest + 1, po)));
    let mark = |kind: EventKind, arg: u64| {
        if let Some(p) = &profiler {
            p.record(p.supervisor_track(), kind, NO_SITE, arg);
        }
    };
    let cells = checkpoint.elem_cells();
    mark(EventKind::Checkpoint, cells as u64);
    let mut report = FaultReport {
        program: prog.name.clone(),
        widths: Vec::new(),
        deadline_ms: deadline.as_secs_f64() * 1e3,
        budget: policy.max_attempts.max(1),
        chaos_seed: None,
        checkpoint_cells: Some(cells),
        rung: Rung::Failed,
        rounds: Vec::new(),
    };
    let mut total_stats = StatsSnapshot::default();
    // Round state: the widest round runs the caller's team, bindings
    // and plan; every shrink rebuilds all three at the new width.
    let mut round_bind = Arc::clone(bind);
    let mut round_team: Option<Team> = None;
    let mut working = plan.clone();
    loop {
        let width = round_bind.nprocs as usize;
        report.widths.push(width);
        let team = round_team.as_ref().unwrap_or(team);
        // Quarantine ledgers, masks and demotions do not carry across
        // widths: the round's plan is new.
        let masked = opts
            .chaos
            .as_ref()
            .map(|c| Arc::new(SiteMaskedChaos::new(Arc::clone(c))));
        let aopts = ObserveOptions {
            chaos: masked.clone().map(|m| m as Arc<dyn SyncChaos>),
            profile: None,
            ..opts.clone()
        };
        let fabric = SyncFabric::new(&aopts, width);
        let fabric = match &profiler {
            Some(p) => fabric.with_profiler(Arc::clone(p)),
            None => fabric,
        };
        let labels: Vec<String> = sync_sites(prog, &working)
            .into_iter()
            .map(|s| s.label)
            .collect();
        let mut ledger = Quarantine::new();
        let mut round = Round::default();
        let out = loop {
            let out =
                run_parallel_observed_on(prog, &round_bind, &working, mem, team, &aopts, &fabric);
            total_stats.merge(&out.stats);
            let mut attempt = Attempt {
                failure: out.failure.clone(),
                suspect_pid: None,
                actions: Vec::new(),
                backoff_ms: 0,
                stats: out.stats,
            };
            let Some(failure) = &out.failure else {
                round.attempts.push(attempt);
                break out;
            };
            checkpoint.rollback(mem);
            mark(EventKind::Rollback, cells as u64);
            let suspect = infer_suspect(&out);
            attempt.suspect_pid = suspect;
            let streak = ledger.record_attempt_suspect(suspect);
            // Sticky-fault classification: the same pid implicated
            // across consecutive failed attempts is a permanent loss,
            // not a flaky site — stop burning the budget and shrink.
            if replan.is_some() && streak >= STICKY_PID_K {
                round.lost_pid = suspect;
            }
            let n = round.attempts.len() as u32 + 1;
            if round.lost_pid.is_some() || n >= report.budget {
                round.attempts.push(attempt);
                break out;
            }
            // Every implicated site: the headline plus all primary
            // per-processor faults (poison observations are victims,
            // not causes; the dispatch sentinel is outside the walk).
            let primaries = out.proc_errors.iter().flatten().filter(|e| e.is_primary());
            let sites_hit: BTreeSet<usize> = failure
                .cause
                .site()
                .into_iter()
                .chain(primaries.map(|e| e.site()))
                .filter(|&s| s != DISPATCH_SITE)
                .collect();
            for site in sites_hit {
                let action = ledger.record_fault(site);
                match action {
                    FaultDisposition::Demote => {
                        demote_site(&mut working, site);
                    }
                    FaultDisposition::Quarantine => masked.iter().for_each(|m| m.mask(site)),
                    FaultDisposition::Isolate => masked.iter().for_each(|m| m.isolate()),
                    FaultDisposition::Retry => {}
                }
                let label = labels.get(site).cloned();
                let label = label.unwrap_or_else(|| format!("s{site}"));
                attempt.actions.push(SiteAction {
                    site,
                    label,
                    action,
                });
            }
            let backoff = policy.backoff_before(n);
            attempt.backoff_ms = backoff.as_millis() as u64;
            round.attempts.push(attempt);
            mark(EventKind::Retry, n as u64);
            fabric.reset();
            std::thread::sleep(backoff);
        };
        let lost = round.lost_pid;
        let recovered = round.attempts.len() > 1;
        report.rounds.push(round);
        let (rung, final_plan) = if out.ok() {
            let rung = if width < widest {
                Rung::Shrunk
            } else if recovered {
                Rung::Recovered
            } else {
                Rung::Clean
            };
            (rung, Some(working))
        } else if let Some(replan) = replan {
            if lost.is_some() && width > 1 {
                let mut nb = (*round_bind).clone();
                nb.nprocs -= 1;
                working = replan(prog, &nb);
                round_bind = Arc::new(nb);
                round_team = Some(Team::new(width - 1));
                if let Some(p) = &profiler {
                    p.bump_epoch();
                }
                continue;
            }
            // Unclassifiable fault, or nothing left to shrink: the
            // serial tail, from the checkpoint the failed attempt
            // rolled back to.
            run_sequential(prog, bind, mem);
            (Rung::Serial, None)
        } else {
            (Rung::Failed, Some(working))
        };
        report.rung = rung;
        let mut outcome = out;
        // The attempt took its snapshot before the last rollback mark.
        outcome.profile = profiler.map(|p| p.snapshot());
        return Supervised {
            outcome,
            final_plan,
            total_stats,
            report,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::build::*;
    use obs::{fault_json, render_fault, Json};
    use runtime::events::ProfileOptions;
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
        }
    }

    /// Memory the sweep starts from, and the sequential result.
    fn start(prog: &Program, bind: &Bindings) -> (Arc<Mem>, Mem) {
        let mem = Arc::new(Mem::new(prog, bind));
        mem.fill(ir::ArrayId(0), |s| (s[0] % 5) as f64);
        let oracle = Mem::new(prog, bind);
        oracle.fill(ir::ArrayId(0), |s| (s[0] % 5) as f64);
        run_sequential(prog, bind, &oracle);
        (mem, oracle)
    }

    /// Run `plan` of the 4-wide sweep under the supervisor.
    fn supervise(
        plan: fn(&Program, &Bindings) -> SpmdProgram,
        chaos: Option<Arc<dyn SyncChaos>>,
        policy: &RetryPolicy,
        degrade: bool,
    ) -> (Supervised, Arc<Mem>, Mem) {
        let (prog, bind) = sweep(32, 3, 4);
        let (mem, oracle) = start(&prog, &bind);
        let opts = ObserveOptions {
            profile: Some(ProfileOptions::default()),
            ..guarded(chaos)
        };
        let s = run_parallel_supervised(
            &prog,
            &bind,
            &plan(&prog, &bind),
            &mem,
            &Team::new(4),
            &opts,
            policy,
            degrade.then_some(&plan as Replan),
        );
        (s, mem, oracle)
    }

    /// Every rung's document: `schema_version` first, the header once
    /// (no header member anywhere under `rounds`), a lossless
    /// round-trip through the strict parser, and a text form that
    /// names the rung. And one checkpoint, one rollback per failed
    /// attempt, whatever the rung.
    fn check_document(s: &Supervised, rung: Rung) {
        let r = &s.report;
        assert_eq!(r.rung, rung);
        let doc = fault_json(r);
        let text = doc.to_string_pretty();
        assert_eq!(obs::parse(&text).unwrap(), doc);
        let Json::Obj(members) = &doc else {
            panic!("not an object")
        };
        assert_eq!(members[0].0, "schema_version");
        assert_eq!(members[0].1.as_u64(), Some(obs::SCHEMA_VERSION as u64));
        const HEADER: [&str; 8] = [
            "schema_version",
            "program",
            "widths",
            "deadline_ms",
            "budget",
            "chaos_seed",
            "checkpoint_cells",
            "nprocs",
        ];
        fn keys(j: &Json, out: &mut Vec<String>) {
            match j {
                Json::Obj(m) => m.iter().for_each(|(k, v)| {
                    out.push(k.clone());
                    keys(v, out)
                }),
                Json::Arr(a) => a.iter().for_each(|v| keys(v, out)),
                _ => {}
            }
        }
        let mut nested = Vec::new();
        keys(doc.get("rounds").unwrap(), &mut nested);
        for k in HEADER {
            assert!(!nested.iter().any(|n| n == k), "{k} repeated in the rounds");
        }
        let rendered = render_fault(r);
        assert!(
            rendered.contains(&format!("rung    : {}", rung.name())),
            "{rendered}"
        );
        assert_eq!(r.widths.len(), r.rounds.len());
        let failed = r
            .rounds
            .iter()
            .flat_map(|rd| &rd.attempts)
            .filter(|a| a.failure.is_some())
            .count() as u64;
        let profile = s.outcome.profile.as_ref().expect("profile requested");
        let count = |kind| profile.events.iter().filter(|e| e.kind == kind).count() as u64;
        assert_eq!(count(EventKind::Checkpoint), 1, "one checkpoint");
        assert_eq!(
            count(EventKind::Rollback),
            failed,
            "one rollback per failure"
        );
        // The attempts' own stats sum to the run totals.
        let mut summed = StatsSnapshot::default();
        r.rounds
            .iter()
            .flat_map(|rd| &rd.attempts)
            .for_each(|a| summed.merge(&a.stats));
        assert_eq!(summed, s.total_stats);
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

    fn drop_at_last_barrier() -> Arc<dyn SyncChaos> {
        let (prog, bind) = sweep(32, 3, 4);
        let last = sync_sites(&prog, &fork_join(&prog, &bind)).len() - 1;
        Arc::new(DropAt { site: last, pid: 0 })
    }

    /// A permanently dead core: drops every post on one pid, at every
    /// site, forever — and is not maskable, because quarantining a site
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

    /// A core that panics at its first sync event, every time.
    struct PanicKill {
        pid: usize,
    }

    impl SyncChaos for PanicKill {
        fn at_sync(&self, _site: usize, pid: usize, _visit: u64) -> ChaosAction {
            if pid == self.pid {
                panic!("injected: permanent processor fault on P{pid}");
            }
            ChaosAction::None
        }

        fn maskable(&self) -> bool {
            false
        }
    }

    /// A dead pid under a barrier-only plan is parked at the dispatch
    /// gate while its team is wedged at a barrier, and the two
    /// deadlines expire together: whichever wait reports the primary
    /// fault, the gate-parked pid is the suspect.
    #[test]
    fn the_gate_parked_pid_is_the_suspect_whoever_timed_out_first() {
        let (prog, bind) = sweep(32, 3, 4);
        let plan = fork_join(&prog, &bind);
        let mem = Arc::new(Mem::new(&prog, &bind));
        let team = Team::new(4);
        let opts = guarded(Some(Arc::new(SilentKill { pid: 3 })));
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
    fn clean_rung_spends_one_attempt() {
        let (s, mem, oracle) = supervise(optimize, None, &fast_policy(), true);
        check_document(&s, Rung::Clean);
        assert_eq!(s.report.attempts_used(), 1);
        assert!(s.report.sites_with(FaultDisposition::Demote).is_empty());
        assert_eq!(mem.max_abs_diff(&oracle), 0.0);
    }

    #[test]
    fn recovered_rung_climbs_the_ladder_and_rolls_back_bit_exact() {
        let chaos = drop_at_last_barrier();
        let (s, mem, oracle) = supervise(fork_join, Some(chaos), &fast_policy(), false);
        check_document(&s, Rung::Recovered);
        // Fault 1 → demote, fault 2 → quarantine, attempt 3 is clean.
        let attempts = &s.report.rounds[0].attempts;
        assert_eq!(attempts.len(), 3);
        let last = s.report.sites_with(FaultDisposition::Quarantine);
        assert_eq!(attempts[0].actions[0].action, FaultDisposition::Demote);
        assert_eq!(attempts[0].actions[0].site, last[0]);
        assert_eq!(attempts[1].actions[0].action, FaultDisposition::Quarantine);
        assert!(render_fault(&s.report).contains("recovered after 2 failed attempt(s)"));
        // Backoffs in the report are the planned policy values.
        assert_eq!(attempts[0].backoff_ms, 1);
        assert_eq!(attempts[1].backoff_ms, 2);
        // Rolled-back retries leave no trace in memory.
        assert_eq!(mem.max_abs_diff(&oracle), 0.0);
        // The final outcome's stats are the final attempt's alone.
        let out = &s.outcome;
        assert_eq!(out.stats.barrier_episodes, out.counts.barriers);
        assert_eq!(attempts[2].stats, out.stats);
    }

    /// Losing the top pid: two failed attempts with the same suspect
    /// classify it, and one shrink re-plans and completes — from the
    /// one entry checkpoint, rolled back once per failed attempt.
    #[test]
    fn shrunk_rung_classifies_the_dead_pid_and_replans_narrower() {
        let chaos: Arc<dyn SyncChaos> = Arc::new(SilentKill { pid: 3 });
        let (s, mem, oracle) = supervise(fork_join, Some(chaos), &fast_policy(), true);
        check_document(&s, Rung::Shrunk);
        let r = &s.report;
        assert_eq!(r.widths, [4, 3]);
        assert_eq!((r.nprocs_final(), r.procs_lost()), (3, 1));
        assert_eq!(r.rounds[0].lost_pid, Some(3));
        let suspects: Vec<_> = r.rounds[0].attempts.iter().map(|a| a.suspect_pid).collect();
        assert_eq!(suspects, [Some(3); STICKY_PID_K as usize]);
        assert!(s.final_plan.is_some());
        assert_eq!(mem.max_abs_diff(&oracle), 0.0, "bitwise oracle-exact");
    }

    /// P0 panics at every width, including 1: shrink all the way down,
    /// then finish serially.
    #[test]
    fn serial_rung_finishes_what_no_width_can() {
        let chaos: Arc<dyn SyncChaos> = Arc::new(PanicKill { pid: 0 });
        let (s, mem, oracle) = supervise(optimize, Some(chaos), &fast_policy(), true);
        check_document(&s, Rung::Serial);
        assert_eq!(s.report.widths, [4, 3, 2, 1]);
        assert_eq!(s.report.nprocs_final(), 1);
        assert!(s.final_plan.is_none());
        assert_eq!(mem.max_abs_diff(&oracle), 0.0, "bitwise oracle-exact");
    }

    /// A budget of one forbids retries: the drop is the residual
    /// failure, and memory is back at the region entry state.
    #[test]
    fn failed_rung_surfaces_the_residual_at_the_entry_state() {
        let policy = RetryPolicy {
            max_attempts: 1,
            ..fast_policy()
        };
        let chaos = drop_at_last_barrier();
        let (mut s, mem, _) = supervise(fork_join, Some(chaos), &policy, false);
        s.report.chaos_seed = Some(9);
        check_document(&s, Rung::Failed);
        assert_eq!(s.report.attempts_used(), 1);
        assert!(s.report.residual().is_some());
        assert_eq!(
            fault_json(&s.report).get("chaos_seed").unwrap().as_u64(),
            Some(9)
        );
        let (prog, bind) = sweep(32, 3, 4);
        let (pristine, _) = start(&prog, &bind);
        assert_eq!(mem.max_abs_diff(&pristine), 0.0);
    }

    /// Without a re-planner a dead processor is only a site fault: no
    /// classification, the ladder burns the budget.
    #[test]
    fn without_replan_a_dead_pid_is_never_classified() {
        let policy = RetryPolicy {
            max_attempts: 3,
            ..fast_policy()
        };
        let chaos: Arc<dyn SyncChaos> = Arc::new(SilentKill { pid: 0 });
        let (s, _, _) = supervise(fork_join, Some(chaos), &policy, false);
        assert_eq!(s.report.rung, Rung::Failed);
        assert_eq!(s.report.rounds.len(), 1);
        assert_eq!(s.report.rounds[0].lost_pid, None);
        assert_eq!(s.report.attempts_used(), 3);
    }
}
