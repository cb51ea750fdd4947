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
//! [`chaos_check`] packages the campaign for one program: a benign run
//! (must pass and match the sequential oracle) plus one teeth run per
//! droppable post (each must terminate within the deadline with a
//! [`FaultReport`] naming the dropped site).

use analysis::Bindings;
use interp::{
    run_parallel_observed, run_parallel_supervised, run_sequential, unroll, ChaosAction, Event,
    Mem, ObserveOptions, Replan, SyncChaos, SyncStep,
};
use ir::Program;
use obs::{FailureReport, FaultReport, Rung};
use runtime::{RetryPolicy, SyncKind, Team};
use spmd_opt::SpmdProgram;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
            ChaosAction::Stall(Duration::from_millis(c.stall_ms))
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
#[derive(Clone, Debug)]
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
    let events = unroll(prog, bind, plan);
    let mut visit = std::collections::HashMap::<usize, u64>::new();
    // The point-to-point teeth as (key, site, visit, step) — a counter
    // site answers for itself, flags and pairwise syncs for their
    // label — and the overall-last barrier.
    let mut last = Vec::<((SyncKind, Option<usize>), usize, u64, SyncStep)>::new();
    let mut last_barrier: Option<(usize, u64)> = None;
    for ev in events.iter() {
        if let Event::Sync { op, site, .. } = *ev {
            let site = site as usize;
            let v = visit.entry(site).or_insert(0);
            let this = *v;
            *v += 1;
            match op {
                SyncStep::Barrier => last_barrier = Some((site, this)),
                SyncStep::Cells { kind, .. } => {
                    let key = (kind, (kind == SyncKind::Counter).then_some(site));
                    match last.iter_mut().find(|(k, ..)| *k == key) {
                        Some(slot) => *slot = (key, site, this, op),
                        None => last.push((key, site, this, op)),
                    }
                }
            }
        }
    }
    let mut out = Vec::new();
    for (_, site, from_visit, op) in last {
        let SyncStep::Cells {
            dists,
            producers,
            collectors,
            kind,
        } = op
        else {
            continue;
        };
        let (prods, colls) = (events.producers(producers), events.producers(collectors));
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
        for &prod in prods {
            if !pids.contains(&prod) {
                pids.push(prod);
            }
        }
        if !colls.is_empty() {
            let gathered = (0..nprocs)
                .rev()
                .find(|p| !colls.contains(p) && !pids.contains(p));
            pids.extend(gathered);
        }
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

/// One teeth run's verdict.
#[derive(Debug)]
pub struct ToothOutcome {
    /// What was dropped.
    pub spec: DropSpec,
    /// Primitive kind at the dropped site.
    pub kind: &'static str,
    /// The report names the dropped site — in the headline or in any
    /// processor's terminal error (a consumer stuck at the dropped
    /// site always records it, even when a downstream casualty's
    /// timeout won the race to be the headline).
    pub named_site: bool,
    /// Wall-clock of the teeth run (bounded by a few deadlines).
    pub elapsed: Duration,
    /// The report (`None` when the executor hung up or silently
    /// succeeded instead of reporting a failure).
    pub report: Option<FaultReport>,
}

impl ToothOutcome {
    /// The executor reported a failure.
    pub fn detected(&self) -> bool {
        self.report.is_some()
    }

    /// The site the report's headline cause is attributed to.
    pub fn attributed_site(&self) -> Option<usize> {
        self.report.as_ref()?.residual()?.cause.site()
    }
}

/// Chaos campaign verdict for one (program, plan).
#[derive(Debug)]
pub struct ChaosReport {
    /// Program name.
    pub program: String,
    /// Chaos seed used throughout.
    pub seed: u64,
    /// The benign run completed without a detected failure.
    pub benign_ok: bool,
    /// Divergence of the benign run from the sequential oracle.
    pub benign_diff: f64,
    /// One verdict per droppable post.
    pub teeth: Vec<ToothOutcome>,
}

impl ChaosReport {
    /// True when the benign run passed and every tooth bit.
    pub fn ok(&self) -> bool {
        self.benign_ok && self.teeth.iter().all(|t| t.detected() && t.named_site)
    }

    /// Human-readable failure lines (empty when [`ChaosReport::ok`]).
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        if !self.benign_ok {
            out.push(format!(
                "benign chaos run failed (seed {}, diff {:e})",
                self.seed, self.benign_diff
            ));
        }
        for t in &self.teeth {
            if !t.detected() {
                out.push(format!(
                    "dropped {} post at s{} (P{}) was not detected",
                    t.kind, t.spec.site, t.spec.pid
                ));
            } else if !t.named_site {
                out.push(format!(
                    "dropped {} post at s{} (P{}) was misattributed to {:?}",
                    t.kind,
                    t.spec.site,
                    t.spec.pid,
                    t.attributed_site()
                ));
            }
        }
        out
    }
}

fn report_names_site(r: &FailureReport, site: usize) -> bool {
    if r.cause.site() == Some(site) {
        return true;
    }
    let at = format!("at s{site}");
    r.per_proc.iter().any(|s| {
        // Match "at s3 on…" / "at s3:…" but not "at s30".
        s[..].match_indices(&at).any(|(k, _)| {
            s[k + at.len()..]
                .chars()
                .next()
                .map(|c| !c.is_ascii_digit())
                .unwrap_or(true)
        })
    })
}

/// Run the chaos campaign for one program and plan: a benign seeded
/// run that must pass, then one targeted drop per droppable post, each
/// of which must terminate within the deadline with a report naming
/// the dropped site. `team.nprocs()` must match `bind.nprocs`.
pub fn chaos_check(
    prog: &Arc<Program>,
    bind: &Arc<Bindings>,
    plan: &SpmdProgram,
    team: &Team,
    seed: u64,
    deadline: Duration,
    tol: f64,
) -> ChaosReport {
    let oracle = Mem::new(prog, bind);
    run_sequential(prog, bind, &oracle);

    let mem = Arc::new(Mem::new(prog, bind));
    let benign = run_parallel_observed(
        prog,
        bind,
        plan,
        &mem,
        team,
        &ObserveOptions {
            deadline: Some(deadline),
            chaos: Some(Arc::new(ChaosInjector::new(seed))),
            ..ObserveOptions::default()
        },
    );
    let benign_diff = mem.max_abs_diff(&oracle);
    let benign_ok = benign.ok() && benign_diff <= tol;

    let mut teeth = Vec::new();
    for cand in droppable_posts(prog, bind, plan) {
        let inj = ChaosInjector::with_config(
            seed,
            ChaosConfig {
                drop: Some(cand.spec),
                ..ChaosConfig::default()
            },
        );
        let mem = Arc::new(Mem::new(prog, bind));
        let t0 = Instant::now();
        let out = run_parallel_observed(
            prog,
            bind,
            plan,
            &mem,
            team,
            &ObserveOptions {
                deadline: Some(deadline),
                chaos: Some(Arc::new(inj)),
                ..ObserveOptions::default()
            },
        );
        let elapsed = t0.elapsed();
        let failure = out.failure.as_ref();
        teeth.push(ToothOutcome {
            spec: cand.spec,
            kind: cand.kind,
            named_site: failure.is_some_and(|f| report_names_site(f, cand.spec.site)),
            elapsed,
            report: failure.map(|f| {
                let ms = deadline.as_secs_f64() * 1e3;
                let nprocs = team.nprocs();
                let mut r = FaultReport::detected(&prog.name, nprocs, ms, f.clone(), out.stats);
                r.chaos_seed = Some(seed);
                r
            }),
        });
    }

    ChaosReport {
        program: prog.name.clone(),
        seed,
        benign_ok,
        benign_diff,
        teeth,
    }
}

/// One tooth's verdict under the supervisor without a re-planner: the
/// dropped post must be absorbed (demote → quarantine → isolate) within
/// the retry budget — the report's rung `recovered` — with results
/// matching the sequential oracle.
#[derive(Debug)]
pub struct RecoveredTooth {
    /// What was dropped.
    pub spec: DropSpec,
    /// Primitive kind at the dropped site.
    pub kind: &'static str,
    /// Divergence of the recovered memory from the sequential oracle.
    pub diff: f64,
    /// The full fault timeline (for `recovery.json` bundles).
    pub report: FaultReport,
}

impl RecoveredTooth {
    /// Absorbed by at least one retry, within `tol` of the oracle.
    pub fn ok(&self, tol: f64) -> bool {
        self.report.rung == Rung::Recovered && self.diff <= tol
    }
}

/// Recovery campaign verdict for one (program, plan).
#[derive(Debug)]
pub struct RecoveryCheckReport {
    /// Program name.
    pub program: String,
    /// Chaos seed used throughout.
    pub seed: u64,
    /// Tolerance the diffs were checked against.
    pub tol: f64,
    /// The benign seeded run completed (retries allowed — self-healing
    /// may absorb an unlucky stall) and matched the oracle.
    pub benign_ok: bool,
    /// Divergence of the benign run from the sequential oracle.
    pub benign_diff: f64,
    /// One verdict per droppable post.
    pub teeth: Vec<RecoveredTooth>,
}

impl RecoveryCheckReport {
    /// True when the benign run passed and every tooth was absorbed by
    /// recovery with oracle-exact results.
    pub fn ok(&self) -> bool {
        self.benign_ok && self.teeth.iter().all(|t| t.ok(self.tol))
    }

    /// Human-readable failure lines (empty when [`RecoveryCheckReport::ok`]).
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        if !self.benign_ok {
            out.push(format!(
                "benign recovering run failed (seed {}, diff {:e})",
                self.seed, self.benign_diff
            ));
        }
        for t in &self.teeth {
            let (kind, site, pid) = (t.kind, t.spec.site, t.spec.pid);
            match t.report.rung {
                Rung::Failed => out.push(format!(
                    "dropped {kind} post at s{site} (P{pid}) exhausted the retry budget ({} attempts)",
                    t.report.attempts_used()
                )),
                Rung::Clean => out.push(format!(
                    "dropped {kind} post at s{site} (P{pid}) was absorbed without any retry (tooth never bit)"
                )),
                _ if t.diff > self.tol => out.push(format!(
                    "recovered run for dropped {kind} post at s{site} diverged from the oracle by {:e}",
                    t.diff
                )),
                _ => {}
            }
        }
        out
    }
}

/// Run the chaos campaign under the self-healing supervisor: a benign
/// seeded run, then one targeted persistent drop per droppable post —
/// each must *converge via recovery* (per-site barrier fallback,
/// quarantine, isolation) with memory matching the sequential oracle,
/// instead of merely being detected as [`chaos_check`] demands. The
/// campaign layers its deadline and injector over `base`, so the same
/// drop matrix replays against tuned fabrics (tree barriers of any
/// fan-in, eager-park spin policies, …); everything else in `base` is
/// honored.
#[allow(clippy::too_many_arguments)]
pub fn recovery_check(
    prog: &Arc<Program>,
    bind: &Arc<Bindings>,
    plan: &SpmdProgram,
    team: &Team,
    seed: u64,
    deadline: Duration,
    tol: f64,
    policy: &RetryPolicy,
    base: &ObserveOptions,
) -> RecoveryCheckReport {
    let oracle = Mem::new(prog, bind);
    run_sequential(prog, bind, &oracle);
    let supervise = |chaos: ChaosInjector| {
        let mem = Arc::new(Mem::new(prog, bind));
        let opts = ObserveOptions {
            deadline: Some(deadline),
            chaos: Some(Arc::new(chaos)),
            ..base.clone()
        };
        let mut s = run_parallel_supervised(prog, bind, plan, &mem, team, &opts, policy, None);
        s.report.chaos_seed = Some(seed);
        (s.report, mem.max_abs_diff(&oracle))
    };

    let (benign, benign_diff) = supervise(ChaosInjector::new(seed));
    let benign_ok = benign.rung.completed() && benign_diff <= tol;
    let teeth = droppable_posts(prog, bind, plan)
        .into_iter()
        .map(|cand| {
            let cfg = ChaosConfig {
                drop: Some(cand.spec),
                ..ChaosConfig::default()
            };
            let (report, diff) = supervise(ChaosInjector::with_config(seed, cfg));
            RecoveredTooth {
                spec: cand.spec,
                kind: cand.kind,
                diff,
                report,
            }
        })
        .collect();

    RecoveryCheckReport {
        program: prog.name.clone(),
        seed,
        tol,
        benign_ok,
        benign_diff,
        teeth,
    }
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
                KillMode::Panic => panic!("injected: permanent processor fault on P{pid}"),
            }
        }
        ChaosAction::None
    }

    fn maskable(&self) -> bool {
        false
    }
}

/// One kill-pid run's verdict under the supervisor with a re-planner.
#[derive(Debug)]
pub struct DegradedRun {
    /// The processor that was killed.
    pub pid: usize,
    /// How it was killed.
    pub mode: KillMode,
    /// Divergence of the final memory from the sequential oracle.
    pub diff: f64,
    /// The full fault timeline (for `degrade.json` bundles); its rung
    /// must be `recovered`, `shrunk` or `serial` — `clean` means the
    /// kill never bit, `failed` that availability was lost.
    pub report: FaultReport,
}

impl DegradedRun {
    /// Completed on a degraded rung, within `tol` of the oracle.
    pub fn ok(&self, tol: f64) -> bool {
        let rung = self.report.rung;
        rung.completed() && rung != Rung::Clean && self.diff <= tol
    }
}

/// Degradation campaign verdict for one (program, plan): every pid
/// killed silently, plus pid 0 killed by panic (the forced worst case
/// — it exists at every width, so the run must descend to the serial
/// tail).
#[derive(Debug)]
pub struct DegradeCheckReport {
    /// Program name.
    pub program: String,
    /// Tolerance the diffs were checked against.
    pub tol: f64,
    /// One verdict per kill.
    pub runs: Vec<DegradedRun>,
}

impl DegradeCheckReport {
    /// True when every kill completed, degraded, and matched the
    /// oracle.
    pub fn ok(&self) -> bool {
        !self.runs.is_empty() && self.runs.iter().all(|r| r.ok(self.tol))
    }

    /// Human-readable failure lines (empty when [`DegradeCheckReport::ok`]).
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.runs.is_empty() {
            out.push("degrade campaign ran no kills".to_string());
        }
        for r in self.runs.iter().filter(|r| !r.ok(self.tol)) {
            let (mode, pid, rung) = (r.mode.as_str(), r.pid, r.report.rung);
            out.push(match rung {
                Rung::Failed => format!(
                    "{mode} kill of P{pid} did not complete (availability guarantee violated)"
                ),
                Rung::Clean => {
                    format!("{mode} kill of P{pid} was absorbed without degrading (policy never bit)")
                }
                _ => format!(
                    "{mode} kill of P{pid} completed on rung '{}' but diverged from the oracle by {:e}",
                    rung.name(),
                    r.diff
                ),
            });
        }
        out
    }
}

/// Run the total-availability campaign for one program and plan: for
/// every pid a run with that processor permanently silent-killed, plus
/// one run with pid 0 panic-killed (which survives every shrink and
/// forces the serial tail). Each run must *complete with oracle-exact
/// memory* via the degradation ladder — shrink rounds re-plan through
/// `replan`, so pass the same plan family that produced `plan`.
#[allow(clippy::too_many_arguments)]
pub fn degrade_check(
    prog: &Arc<Program>,
    bind: &Arc<Bindings>,
    plan: &SpmdProgram,
    team: &Team,
    deadline: Duration,
    tol: f64,
    policy: &RetryPolicy,
    replan: Replan<'_>,
) -> DegradeCheckReport {
    let oracle = Mem::new(prog, bind);
    run_sequential(prog, bind, &oracle);

    let nprocs = bind.nprocs.max(0) as usize;
    let mut kills: Vec<(usize, KillMode)> =
        (0..nprocs).map(|pid| (pid, KillMode::Silent)).collect();
    kills.push((0, KillMode::Panic));

    let mut runs = Vec::new();
    for (pid, mode) in kills {
        let mem = Arc::new(Mem::new(prog, bind));
        let opts = ObserveOptions {
            deadline: Some(deadline),
            chaos: Some(Arc::new(KillPidChaos { pid, mode })),
            ..ObserveOptions::default()
        };
        let s = run_parallel_supervised(prog, bind, plan, &mem, team, &opts, policy, Some(replan));
        runs.push(DegradedRun {
            pid,
            mode,
            diff: mem.max_abs_diff(&oracle),
            report: s.report,
        });
    }

    DegradeCheckReport {
        program: prog.name.clone(),
        tol,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

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

    #[test]
    fn generated_program_recovers_from_every_tooth() {
        use spmd_opt::optimize;
        let g = gen::generate(5);
        let bind = Arc::new(g.bindings(4));
        let prog = Arc::new(g.prog.clone());
        let plan = optimize(&prog, &bind);
        let team = Team::new(4);
        let policy = RetryPolicy {
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            ..RetryPolicy::default()
        };
        let r = recovery_check(
            &prog,
            &bind,
            &plan,
            &team,
            11,
            Duration::from_millis(150),
            0.0,
            &policy,
            &ObserveOptions::default(),
        );
        assert!(r.ok(), "recovery check failed: {:?}", r.failures());
        for t in &r.teeth {
            assert!(t.report.attempts_used() <= policy.max_attempts);
            assert_eq!(t.report.rung, Rung::Recovered);
            // The ladder actually engaged: something was demoted.
            let demoted = t.report.sites_with(runtime::FaultDisposition::Demote);
            assert!(!demoted.is_empty());
        }
    }

    #[test]
    fn generated_program_survives_every_kill_pid_policy() {
        use spmd_opt::optimize;
        let g = gen::generate(5);
        let bind = Arc::new(g.bindings(3));
        let prog = Arc::new(g.prog.clone());
        let plan = optimize(&prog, &bind);
        let team = Team::new(3);
        let policy = RetryPolicy {
            max_attempts: 4,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
        };
        let r = degrade_check(
            &prog,
            &bind,
            &plan,
            &team,
            Duration::from_millis(150),
            0.0,
            &policy,
            &|p, b| optimize(p, b),
        );
        assert!(r.ok(), "degrade check failed: {:?}", r.failures());
        // 3 silent kills + the forced-serial panic kill of P0.
        assert_eq!(r.runs.len(), 4);
        let worst = r.runs.last().unwrap();
        assert_eq!((worst.pid, worst.mode), (0, KillMode::Panic));
        assert_eq!(worst.report.rung, Rung::Serial, "P0 exists at every width");
        assert_eq!(worst.report.nprocs_final(), 1);
        for run in &r.runs {
            assert_eq!(run.diff, 0.0, "bitwise availability guarantee");
        }
    }

    #[test]
    fn generated_program_survives_benign_and_fails_teeth() {
        use spmd_opt::optimize;
        let g = gen::generate(5);
        let bind = Arc::new(g.bindings(4));
        let prog = Arc::new(g.prog.clone());
        let plan = optimize(&prog, &bind);
        let team = Team::new(4);
        let r = chaos_check(
            &prog,
            &bind,
            &plan,
            &team,
            11,
            Duration::from_millis(150),
            0.0,
        );
        assert!(r.benign_ok, "benign run failed: diff {:e}", r.benign_diff);
        for t in &r.teeth {
            assert!(
                t.detected(),
                "{} drop at s{} undetected",
                t.kind,
                t.spec.site
            );
            assert!(
                t.named_site,
                "{} drop at s{} attributed to {:?}",
                t.kind,
                t.spec.site,
                t.attributed_site()
            );
            assert!(t.elapsed < Duration::from_secs(30));
        }
    }
}
