//! Seeded, deterministic chaos fault injection for guarded executions.
//!
//! The injector perturbs the real-thread executor at every sync event
//! through the [`interp::SyncChaos`] hook: benign faults (bounded
//! delays, thread-stall-sized sleeps, spurious wakeups) that a correct
//! schedule must absorb without changing results, and one targeted
//! *dropped post* ([`DropSpec`]) that models a crashed or miscompiled
//! producer — the oracle's teeth. Every action is a pure function of
//! `(seed, site, pid, visit)` (splitmix64 mixing), so a chaos seed
//! reproduces the exact same fault schedule on every run and can ride
//! inside a repro bundle.
//!
//! [`campaign`] runs one program and plan under the supervisor: a
//! benign run, one run per droppable post and one per killed
//! processor. Each run is a [`Tooth`] holding its [`FaultReport`], and
//! [`Tooth::failure`] is the one verdict over all of them.

use analysis::Bindings;
use interp::{
    run_parallel_supervised, run_sequential, ChaosAction, Event, Mem, ObserveOptions, Replan,
    Schedule, SyncChaos, SyncStep,
};
use ir::Program;
use obs::{FailureReport, FaultReport, Rung};
use runtime::{ProfileData, ProfileOptions, RetryPolicy, SyncKind, Team};
use spmd_opt::SpmdProgram;
use std::sync::Arc;
use std::time::Duration;

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One 64-bit draw per (seed, site, pid, visit) coordinate.
fn mix(seed: u64, site: usize, pid: usize, visit: u64) -> u64 {
    splitmix64(
        seed ^ splitmix64(
            (site as u64).wrapping_mul(0x9E37) ^ splitmix64(((pid as u64) << 40) ^ visit),
        ),
    )
}

/// A targeted dropped post: processor `pid` skips the *post* half of
/// every visit `>= from_visit` of sync site `site` (the post to its
/// cell, or its barrier arrival), and once a post to its cell is
/// dropped the cell stays silent for the rest of the attempt — every
/// point-to-point sync counts on the one cell, so a later post would
/// only move the hang to another site. Consumers of the dropped post
/// can only be released by the watchdog.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DropSpec {
    /// Canonical sync-site id to sabotage.
    pub site: usize,
    /// Processor whose posts are dropped.
    pub pid: usize,
    /// First dynamic visit (0-based, per the executor's per-site visit
    /// counter) affected; every later visit is dropped too.
    pub from_visit: u64,
}

/// Injection rates and shapes. All probabilities are per-mille per
/// sync event; the partition `delay | stall | spurious | nothing` is
/// drawn from one hash, so the rates must sum to at most 1000.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Rate of short scheduling-jitter delays.
    pub delay_permille: u64,
    /// Rate of long (descheduled-thread-sized) stalls.
    pub stall_permille: u64,
    /// Rate of spurious wakeups of all parked guarded waiters.
    pub spurious_permille: u64,
    /// Upper bound on jitter delays, in microseconds.
    pub max_delay_us: u64,
    /// Length of a stall, in milliseconds.
    pub stall_ms: u64,
    /// Targeted dropped post, if any (the teeth).
    pub drop: Option<DropSpec>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            delay_permille: 120,
            stall_permille: 10,
            spurious_permille: 40,
            max_delay_us: 200,
            stall_ms: 2,
            drop: None,
        }
    }
}

/// The deterministic injector handed to the executor via
/// [`ObserveOptions::chaos`].
pub struct ChaosInjector {
    seed: u64,
    cfg: ChaosConfig,
}

impl ChaosInjector {
    /// Benign injector (default rates, no drop) for `seed`.
    pub fn new(seed: u64) -> Self {
        ChaosInjector {
            seed,
            cfg: ChaosConfig::default(),
        }
    }

    /// Injector with explicit rates and/or a targeted drop.
    pub fn with_config(seed: u64, cfg: ChaosConfig) -> Self {
        assert!(
            cfg.delay_permille + cfg.stall_permille + cfg.spurious_permille <= 1000,
            "chaos rates exceed 1000 permille"
        );
        ChaosInjector { seed, cfg }
    }

    /// The seed the schedule is derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl SyncChaos for ChaosInjector {
    fn at_sync(&self, site: usize, pid: usize, visit: u64) -> ChaosAction {
        if let Some(d) = self.cfg.drop {
            if site == d.site && pid == d.pid && visit >= d.from_visit {
                return ChaosAction::Drop;
            }
        }
        let h = mix(self.seed, site, pid, visit);
        let draw = h % 1000;
        let c = &self.cfg;
        if draw < c.delay_permille {
            ChaosAction::Delay(Duration::from_micros(
                1 + splitmix64(h) % c.max_delay_us.max(1),
            ))
        } else if draw < c.delay_permille + c.stall_permille {
            ChaosAction::Delay(Duration::from_millis(c.stall_ms))
        } else if draw < c.delay_permille + c.stall_permille + c.spurious_permille {
            ChaosAction::SpuriousWake
        } else {
            ChaosAction::None
        }
    }
}

/// Materialize an injector's non-trivial actions over a visit grid —
/// the "fault schedule" used to check determinism and to log what a
/// seed does.
pub fn injection_schedule(
    inj: &dyn SyncChaos,
    n_sites: usize,
    nprocs: usize,
    visits: u64,
) -> Vec<(usize, usize, u64, ChaosAction)> {
    let mut out = Vec::new();
    for site in 0..n_sites {
        for pid in 0..nprocs {
            for visit in 0..visits {
                let a = inj.at_sync(site, pid, visit);
                if a != ChaosAction::None {
                    out.push((site, pid, visit, a));
                }
            }
        }
    }
    out
}

/// A droppable post with its provenance (for logs and reports).
#[derive(Clone, Copy, Debug)]
pub struct DropCandidate {
    /// The drop to inject.
    pub spec: DropSpec,
    /// Label of the sync at the site ("counter", "neighbor",
    /// "pairwise", "barrier").
    pub kind: &'static str,
}

/// Enumerate the posts whose loss is *precisely attributable*: the
/// last visit of each counter-labelled site and the schedule's last
/// event under each other label — there, the post of a processor
/// somebody waits for — and one processor's arrival at the last
/// barrier. The cell a drop silences never catches up, so the waiter
/// stalls at that very site.
pub fn droppable_posts(prog: &Program, bind: &Bindings, plan: &SpmdProgram) -> Vec<DropCandidate> {
    let nprocs = bind.nprocs as usize;
    if nprocs < 2 {
        return Vec::new(); // a lone processor waits on nobody
    }
    let sched = Schedule::new(prog, bind, plan);
    let mut cur = sched.cursor();
    let mut visit = std::collections::HashMap::<usize, u64>::new();
    // The point-to-point teeth as (key, site, visit, awaited pids) — a
    // counter site answers for itself, flags and pairwise syncs for
    // their label — and the overall-last barrier.
    let mut last = Vec::<((SyncKind, Option<usize>), usize, u64, Vec<usize>)>::new();
    let mut last_barrier: Option<(usize, u64)> = None;
    while let Some(step) = cur.next() {
        let Event::Sync { op, site } = step.event else {
            continue;
        };
        let site = site as usize;
        let v = visit.entry(site).or_insert(0);
        let this = *v;
        *v += 1;
        let (dists, kind) = match op {
            SyncStep::Barrier => {
                last_barrier = Some((site, this));
                continue;
            }
            SyncStep::Cells { dists, kind } => (dists, kind),
        };
        // A positive distance d means pid d waits on P0's cell, so P0's
        // post is awaited; with only negative distances the last
        // processor's post is (pid nprocs-1+d waits on it). Producer
        // targets are awaited by every other processor, and a collector
        // awaits everybody: the highest pid not listed yet that is not
        // itself one stands for the posts only a collector reads.
        let mut pids: Vec<usize> = Vec::new();
        if dists.iter().any(|d| d > 0 && d < nprocs as i64) {
            pids.push(0);
        } else if dists.iter().any(|d| d < 0 && -d < nprocs as i64) {
            pids.push(nprocs - 1);
        }
        for &prod in cur.producers() {
            if !pids.contains(&prod) {
                pids.push(prod);
            }
        }
        let colls = cur.collectors();
        if !colls.is_empty() {
            let gathered = (0..nprocs)
                .rev()
                .find(|p| !colls.contains(p) && !pids.contains(p));
            pids.extend(gathered);
        }
        let key = (kind, (kind == SyncKind::Counter).then_some(site));
        let tooth = (key, site, this, pids);
        match last.iter_mut().find(|(k, ..)| *k == key) {
            Some(slot) => *slot = tooth,
            None => last.push(tooth),
        }
    }
    let mut out = Vec::new();
    for ((kind, _), site, from_visit, pids) in last {
        for pid in pids {
            out.push(DropCandidate {
                spec: DropSpec {
                    site,
                    pid,
                    from_visit,
                },
                kind: kind.name(),
            });
        }
    }
    if let Some((site, from_visit)) = last_barrier {
        out.push(DropCandidate {
            spec: DropSpec {
                site,
                pid: 0,
                from_visit,
            },
            kind: "barrier",
        });
    }
    out
}

/// How a permanently lost processor dies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KillMode {
    /// The pid silently drops the post half of *every* sync event it
    /// reaches, at every site, forever — a stuck or fenced-off core.
    /// Peers wedge waiting for arrivals that never come.
    Silent,
    /// The pid panics at its first sync event, every attempt — a core
    /// that reliably faults.
    Panic,
}

impl KillMode {
    /// Stable lower-case name (report vocabulary).
    pub fn as_str(&self) -> &'static str {
        match self {
            KillMode::Silent => "silent",
            KillMode::Panic => "panic",
        }
    }
}

/// Permanent kill-pid chaos policy: processor `pid` is dead for the
/// whole campaign, in the chosen [`KillMode`]. Unlike [`DropSpec`]
/// this is not a per-site fault, so it reports itself *unmaskable*
/// ([`SyncChaos::maskable`]): quarantining a sync site cannot revive
/// hardware, and the recovery ladder must not be fooled into thinking
/// it absorbed the fault.
#[derive(Clone, Copy, Debug)]
pub struct KillPidChaos {
    /// The dead processor.
    pub pid: usize,
    /// How it dies.
    pub mode: KillMode,
}

impl SyncChaos for KillPidChaos {
    fn at_sync(&self, _site: usize, pid: usize, _visit: u64) -> ChaosAction {
        if pid == self.pid {
            match self.mode {
                KillMode::Silent => return ChaosAction::Drop,
                // An injected kill is expected: unwind without the
                // panic hook, which would print it, carrying the same
                // `String` payload `panic!` would, so reports read the
                // same.
                KillMode::Panic => std::panic::resume_unwind(Box::new(format!(
                    "injected: permanent processor fault on P{pid}"
                ))),
            }
        }
        ChaosAction::None
    }

    fn maskable(&self) -> bool {
        false
    }
}

/// What one supervised run of the campaign injected.
#[derive(Clone, Copy, Debug)]
pub enum Fault {
    /// Seeded benign chaos only (delays, stalls, spurious wakeups).
    Benign,
    /// Benign chaos plus one persistent dropped post.
    Drop(DropCandidate),
    /// One permanently dead processor.
    Kill(KillPidChaos),
}

impl Fault {
    fn describe(&self) -> String {
        match self {
            Fault::Benign => "benign run".to_string(),
            Fault::Drop(c) => format!(
                "dropped {} post at s{} (P{})",
                c.kind, c.spec.site, c.spec.pid
            ),
            Fault::Kill(k) => format!("{} kill of P{}", k.mode.as_str(), k.pid),
        }
    }
}

/// One supervised run of the campaign: what was injected, the whole
/// fault timeline, and how far the final memory is from
/// `run_sequential`.
#[derive(Debug)]
pub struct Tooth {
    /// What was injected.
    pub fault: Fault,
    /// Divergence of the final memory from the sequential oracle.
    pub diff: f64,
    /// The run's fault timeline.
    pub report: FaultReport,
}

impl Tooth {
    /// The verdict: why this run fails the campaign, or `None` when it
    /// passes. The benign run must end `clean`. A drop must fail its
    /// first attempt with a report naming the dropped site and end
    /// `recovered`. A kill must complete on a rung below `clean`. Every
    /// run that completes must match the oracle within `tol`.
    pub fn failure(&self, tol: f64) -> Option<String> {
        let rung = self.report.rung;
        let wrong = match self.fault {
            Fault::Benign => {
                (rung != Rung::Clean).then(|| format!("ended on rung '{}'", rung.name()))
            }
            Fault::Drop(c) => {
                let first = self.report.rounds.first().map(|r| &r.attempts[..]);
                match first.and_then(|a| a.first()?.failure.as_ref()) {
                    None => Some("never bit: its first attempt completed".to_string()),
                    Some(f) if !report_names_site(f, c.spec.site) => {
                        Some(format!("was misattributed to {:?}", f.site()))
                    }
                    _ if rung != Rung::Recovered => Some(format!(
                        "exhausted the retry budget ({} attempts)",
                        self.report.attempts_used()
                    )),
                    _ => None,
                }
            }
            Fault::Kill(_) => match rung {
                Rung::Failed => Some("did not complete (availability lost)".to_string()),
                Rung::Clean => Some("was absorbed without degrading (never bit)".to_string()),
                _ => None,
            },
        };
        wrong
            .or_else(|| {
                (self.diff > tol).then(|| format!("diverged from the oracle by {:e}", self.diff))
            })
            .map(|w| format!("{} {w}", self.fault.describe()))
    }
}

/// The campaign's verdict for one (program, plan).
#[derive(Debug)]
pub struct CampaignReport {
    /// Program name.
    pub program: String,
    /// Tolerance every diff is checked against.
    pub tol: f64,
    /// The benign run's event rings (`None` if it recorded none).
    pub profile: Option<ProfileData>,
    /// The benign run, then one run per droppable post, then one per
    /// kill.
    pub teeth: Vec<Tooth>,
}

impl CampaignReport {
    /// True when [`CampaignReport::failures`] is empty.
    pub fn ok(&self) -> bool {
        self.failures().is_empty()
    }

    /// Every failing run's verdict, plus a line when the campaign
    /// dropped no post or the rings lost count.
    pub fn failures(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .teeth
            .iter()
            .filter_map(|t| t.failure(self.tol))
            .collect();
        if !self.teeth.iter().any(|t| matches!(t.fault, Fault::Drop(_))) {
            out.push("the campaign ran no drop teeth".to_string());
        }
        // Every event offered to the rings is recorded or counted.
        match &self.profile {
            Some(d) if d.events.len() as u64 + d.dropped == d.attempted() => {}
            _ => out.push("the benign run's event rings lost count".to_string()),
        }
        out
    }
}

/// Does any processor of the failure end on a wait at `site`?
fn report_names_site(r: &FailureReport, site: usize) -> bool {
    r.ends
        .iter()
        .any(|e| e.fault().is_some_and(|e| e.site() == site))
}

/// Run the chaos campaign for one program under the plan `family`
/// builds for it (`spmd_opt::optimize` or `spmd_opt::fork_join`), on a
/// team of `bind.nprocs`, every run under the supervisor with a
/// `deadline` watchdog and `policy`'s budget:
///
/// 1. one seeded benign run, profiled;
/// 2. one run per [`droppable_posts`] candidate, the drop persistent,
///    without a re-planner — the site ladder must absorb it, and a
///    re-planner would instead shrink the team once the dropping pid
///    failed `runtime::recovery::STICKY_PID_K` attempts;
/// 3. one run per processor silently killed, plus P0 killed by panic
///    (it exists at every width, so the run must reach the serial
///    tail), with `family` re-planning each shrink.
///
/// [`Tooth::failure`] judges each run against the sequential oracle.
pub fn campaign(
    prog: &Arc<Program>,
    bind: &Arc<Bindings>,
    family: Replan<'_>,
    seed: u64,
    deadline: Duration,
    tol: f64,
    policy: &RetryPolicy,
) -> CampaignReport {
    let plan = family(prog, bind);
    let nprocs = bind.nprocs.max(1) as usize;
    let team = Team::new(nprocs);
    let oracle = Mem::new(prog, bind);
    run_sequential(prog, bind, &oracle);

    let drops = droppable_posts(prog, bind, &plan)
        .into_iter()
        .map(Fault::Drop);
    let silent = (0..nprocs).map(|pid| (pid, KillMode::Silent));
    let kills = silent.chain([(0, KillMode::Panic)]);
    let kills = kills.map(|(pid, mode)| Fault::Kill(KillPidChaos { pid, mode }));
    let seeded = |drop| {
        let cfg = ChaosConfig {
            drop,
            ..ChaosConfig::default()
        };
        Arc::new(ChaosInjector::with_config(seed, cfg)) as Arc<dyn SyncChaos>
    };
    let mut profile = None;
    let teeth = std::iter::once(Fault::Benign)
        .chain(drops)
        .chain(kills)
        .map(|fault| {
            let (chaos, replan) = match fault {
                Fault::Benign => (seeded(None), None),
                Fault::Drop(c) => (seeded(Some(c.spec)), None),
                Fault::Kill(k) => (Arc::new(k) as Arc<dyn SyncChaos>, Some(family)),
            };
            let opts = ObserveOptions {
                deadline: Some(deadline),
                chaos: Some(chaos),
                profile: matches!(fault, Fault::Benign).then(ProfileOptions::default),
                ..ObserveOptions::default()
            };
            let mem = Arc::new(Mem::new(prog, bind));
            let mut s =
                run_parallel_supervised(prog, bind, &plan, &mem, &team, &opts, policy, replan);
            profile = profile.take().or(s.outcome.profile.take());
            if replan.is_none() {
                s.report.chaos_seed = Some(seed);
            }
            Tooth {
                fault,
                diff: mem.max_abs_diff(&oracle),
                report: s.report,
            }
        })
        .collect();

    CampaignReport {
        program: prog.name.clone(),
        tol,
        profile,
        teeth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use obs::{Attempt, Round};
    use runtime::fault::{ProcEnd, SyncError};
    use runtime::stats::SyncKind;

    #[test]
    fn same_seed_same_schedule_different_seed_differs() {
        let a = ChaosInjector::new(7);
        let b = ChaosInjector::new(7);
        let c = ChaosInjector::new(8);
        let sa = injection_schedule(&a, 6, 4, 32);
        let sb = injection_schedule(&b, 6, 4, 32);
        let sc = injection_schedule(&c, 6, 4, 32);
        assert!(!sa.is_empty(), "default rates must inject something");
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
    }

    #[test]
    fn drop_spec_overrides_the_draw() {
        let inj = ChaosInjector::with_config(
            3,
            ChaosConfig {
                drop: Some(DropSpec {
                    site: 2,
                    pid: 1,
                    from_visit: 4,
                }),
                ..ChaosConfig::default()
            },
        );
        assert_eq!(inj.at_sync(2, 1, 4), ChaosAction::Drop);
        assert_eq!(inj.at_sync(2, 1, 9), ChaosAction::Drop);
        assert_ne!(inj.at_sync(2, 1, 3), ChaosAction::Drop);
        assert_ne!(inj.at_sync(2, 0, 4), ChaosAction::Drop);
    }

    /// A run of `fault` that ended on `rung`; `first` is what its
    /// first attempt saw (`None`: it completed).
    fn tooth(fault: Fault, rung: Rung, first: Option<SyncError>) -> Tooth {
        let attempt = |failure| Attempt {
            failure,
            suspect_pid: None,
            actions: Vec::new(),
            backoff_ms: 0,
            stats: Default::default(),
        };
        let failure = first.map(|e| {
            let mut ends = vec![ProcEnd::Finished; 4];
            ends[1] = ProcEnd::Fault(e);
            FailureReport {
                ends,
                first: 1,
                site_label: String::new(),
                sites: Vec::new(),
            }
        });
        let mut attempts = vec![attempt(failure)];
        if attempts[0].failure.is_some() && rung.completed() {
            attempts.push(attempt(None));
        }
        Tooth {
            fault,
            diff: 0.0,
            report: FaultReport {
                program: "hand-made".to_string(),
                widths: vec![4],
                deadline_ms: 150.0,
                budget: 4,
                chaos_seed: None,
                checkpoint_cells: Some(0),
                rung,
                rounds: vec![Round {
                    lost_pid: None,
                    attempts,
                }],
            },
        }
    }

    fn deadline_at(site: usize) -> Option<SyncError> {
        Some(SyncError::DeadlineExceeded {
            site,
            pid: 1,
            kind: SyncKind::Counter,
            expected: 1,
            observed: 0,
        })
    }

    const DROP: Fault = Fault::Drop(DropCandidate {
        spec: DropSpec {
            site: 3,
            pid: 0,
            from_visit: 2,
        },
        kind: "counter",
    });
    const KILL: Fault = Fault::Kill(KillPidChaos {
        pid: 2,
        mode: KillMode::Silent,
    });

    fn report(teeth: Vec<Tooth>) -> CampaignReport {
        CampaignReport {
            program: "hand-made".to_string(),
            tol: 1e-9,
            profile: Some(ProfileData::default()),
            teeth,
        }
    }

    #[test]
    fn the_verdict_passes_a_campaign_that_bit_everywhere() {
        let r = report(vec![
            tooth(Fault::Benign, Rung::Clean, None),
            tooth(DROP, Rung::Recovered, deadline_at(3)),
            tooth(KILL, Rung::Shrunk, deadline_at(5)),
        ]);
        assert!(r.ok(), "{:?}", r.failures());
    }

    #[test]
    fn a_drop_whose_first_attempt_names_another_site_is_misattributed() {
        let t = tooth(DROP, Rung::Recovered, deadline_at(4));
        let f = t.failure(0.0).expect("misattributed");
        assert_eq!(
            f,
            "dropped counter post at s3 (P0) was misattributed to Some(4)"
        );
        // A stuck peer's failed wait at the site is enough.
        let mut t = t;
        let stuck = |t: &mut Tooth, site: usize| {
            let first = t.report.rounds[0].attempts[0].failure.as_mut().unwrap();
            first.ends[2] = ProcEnd::Fault(SyncError::Poisoned {
                site,
                pid: 2,
                cause: String::new(),
            });
        };
        stuck(&mut t, 3);
        assert_eq!(t.failure(0.0), None);
        stuck(&mut t, 30);
        assert!(t.failure(0.0).is_some());
    }

    #[test]
    fn a_drop_whose_first_attempt_completed_never_bit() {
        let f = tooth(DROP, Rung::Clean, None).failure(0.0).unwrap();
        assert!(f.ends_with("never bit: its first attempt completed"), "{f}");
    }

    #[test]
    fn a_drop_that_exhausts_its_budget_fails() {
        let f = tooth(DROP, Rung::Failed, deadline_at(3))
            .failure(0.0)
            .unwrap();
        assert!(
            f.ends_with("exhausted the retry budget (1 attempts)"),
            "{f}"
        );
    }

    #[test]
    fn a_kill_that_ends_clean_never_bit() {
        let f = tooth(KILL, Rung::Clean, None).failure(0.0).unwrap();
        assert_eq!(
            f,
            "silent kill of P2 was absorbed without degrading (never bit)"
        );
        assert!(tooth(KILL, Rung::Failed, deadline_at(1))
            .failure(0.0)
            .is_some());
    }

    #[test]
    fn a_benign_run_must_end_clean_and_every_run_match_the_oracle() {
        let f = tooth(Fault::Benign, Rung::Recovered, deadline_at(1));
        assert_eq!(
            f.failure(0.0).unwrap(),
            "benign run ended on rung 'recovered'"
        );
        let mut t = tooth(KILL, Rung::Serial, deadline_at(1));
        t.diff = 1e-3;
        assert!(t
            .failure(1e-9)
            .unwrap()
            .ends_with("diverged from the oracle by 1e-3"));
    }

    #[test]
    fn a_campaign_without_drop_teeth_fails() {
        let r = report(vec![
            tooth(Fault::Benign, Rung::Clean, None),
            tooth(KILL, Rung::Serial, deadline_at(1)),
        ]);
        assert_eq!(r.failures(), ["the campaign ran no drop teeth"]);
    }

    /// The real campaign on a generated program: every verdict holds,
    /// and the ladders really engaged.
    #[test]
    fn generated_program_passes_the_campaign() {
        use spmd_opt::optimize;
        let g = gen::generate(5);
        let bind = Arc::new(g.bindings(4));
        let prog = Arc::new(g.prog.clone());
        let policy = RetryPolicy {
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            ..RetryPolicy::default()
        };
        let deadline = Duration::from_millis(150);
        let r = campaign(&prog, &bind, &optimize, 11, deadline, 0.0, &policy);
        assert!(r.ok(), "campaign failed: {:?}", r.failures());
        // The benign run, the drops, 4 silent kills and the panic kill.
        let drops = r.teeth.len() - 6;
        assert!(drops >= 1);
        assert!(!r.profile.as_ref().unwrap().events.is_empty());
        for t in &r.teeth {
            match t.fault {
                Fault::Drop(_) => {
                    let demoted = t.report.sites_with(runtime::FaultDisposition::Demote);
                    assert!(!demoted.is_empty(), "the site ladder engaged");
                }
                Fault::Kill(KillPidChaos {
                    pid: 0,
                    mode: KillMode::Panic,
                }) => {
                    assert_eq!(t.report.rung, Rung::Serial, "P0 exists at every width");
                    assert_eq!(t.report.nprocs_final(), 1);
                }
                _ => {}
            }
        }
    }
}
