//! Total-availability execution: elastic team shrink and serial
//! fallback under permanent processor loss.
//!
//! [`run_parallel_degrading`] stacks one more supervisor on top of the
//! recovery loop ([`crate::recover::run_parallel_recovering`]). The
//! recovery ladder handles *flaky sync sites* (demote → quarantine →
//! isolate); this layer handles what the ladder cannot: a processor
//! that is *permanently* gone (stuck core, repeated panic, a chaos
//! kill-pid policy). The degradation ladder has three rungs past
//! ordinary recovery:
//!
//! 1. **classify** — the recovery supervisor's sticky-fault rule
//!    ([`runtime::recovery::RetryPolicy::sticky_pid_k`]) watches the
//!    per-attempt suspect pid; the same pid implicated across K
//!    consecutive failed attempts is declared a permanent loss and the
//!    round aborts early with memory rolled back to the region entry
//!    checkpoint;
//! 2. **shrink** — the region is re-dispatched on a team of
//!    `nprocs - 1`: a fresh [`Team`]/`SyncFabric`, a fresh [`Bindings`]
//!    at the smaller count, and — crucially — a *re-planned* schedule
//!    from the caller's `replan` closure, because owner-computes bounds
//!    baked into the old plan are only sound for the proc count they
//!    were computed at (block ownership with a loop coefficient does
//!    not clamp, so a stale plan at fewer procs silently skips the
//!    iterations owned by the missing pids). Privatized arrays need no
//!    migration: the storage keeps one private copy per *original*
//!    pid, the shrunken team uses the prefix, and privatizable means
//!    written-before-read, so stale contents are harmless —
//!    re-privatization is a rollback-free no-op;
//! 3. **serial fallback** — when shrink bottoms out at one processor,
//!    or a round fails without a classifiable pid, memory is rolled
//!    back to the entry checkpoint one last time and the region runs
//!    to completion via [`run_sequential`] semantics, which use no
//!    inter-processor synchronization at all and therefore cannot be
//!    wedged by any sync-level fault.
//!
//! The result is a hard **availability guarantee**: under any seeded
//! chaos policy the run terminates with memory bit-identical to the
//! sequential oracle — at worst at serial speed. The entry checkpoint
//! is captured once from the *original* plan's schedule; owner-computes
//! partitions at any team size cover the same union of iterations, so
//! one write-set snapshot is valid for every round and for the serial
//! tail.

use crate::checkpoint::Checkpoint;
use crate::events::unroll;
use crate::mem::Mem;
use crate::par::ObserveOptions;
use crate::recover::{run_parallel_recovering, run_recovering_on, RecoveryOutcome};
use crate::run_sequential;
use analysis::Bindings;
use ir::Program;
use obs::{DegradationReport, RoundReport};
use runtime::recovery::RetryPolicy;
use runtime::stats::StatsSnapshot;
use runtime::Team;
use spmd_opt::SpmdProgram;
use std::sync::Arc;

/// Which rung of the degradation ladder completed the run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DegradeRung {
    /// First attempt at full width, no faults.
    Clean,
    /// Full width, after the site ladder absorbed one or more faults.
    Recovered,
    /// Completed on a shrunken team after one or more permanent
    /// processor losses.
    Shrunk,
    /// Completed via the sequential fallback.
    Serial,
}

impl DegradeRung {
    /// Stable lower-case name (report/JSON vocabulary).
    pub fn name(&self) -> &'static str {
        match self {
            DegradeRung::Clean => "clean",
            DegradeRung::Recovered => "recovered",
            DegradeRung::Shrunk => "shrunk",
            DegradeRung::Serial => "serial",
        }
    }
}

/// One team-width episode of the degradation ladder.
pub struct DegradeRound {
    /// Team width this round ran at.
    pub nprocs: usize,
    /// The recovery supervisor's full timeline for the round.
    pub recovery: RecoveryOutcome,
}

/// What a degrading execution produced. By construction the run always
/// completes ([`DegradeOutcome::completed`] documents the guarantee);
/// the interesting part is *how*.
pub struct DegradeOutcome {
    /// Every round, widest first. The last round is the one that
    /// completed (absent when the very first classification forced the
    /// serial fallback — impossible today, but the report tolerates
    /// it).
    pub rounds: Vec<DegradeRound>,
    /// The rung that completed the run.
    pub rung: DegradeRung,
    /// Team width of the first round.
    pub nprocs_initial: usize,
    /// Width the run completed at (1 for the serial fallback).
    pub nprocs_final: usize,
    /// Permanent processor losses classified along the way.
    pub procs_lost: usize,
    /// The schedule the completing parallel round ran (`None` when the
    /// serial fallback finished the job).
    pub final_plan: Option<SpmdProgram>,
    /// Array cells in the shared entry checkpoint.
    pub checkpoint_cells: usize,
    /// Sync stats summed over every attempt of every round.
    pub total_stats: StatsSnapshot,
    program: String,
    deadline_ms: f64,
}

impl DegradeOutcome {
    /// Always true — the availability guarantee. Kept as a method so
    /// call sites read like the recovery layer's.
    pub fn completed(&self) -> bool {
        match self.rung {
            DegradeRung::Serial => true,
            _ => self.rounds.last().map(|r| r.recovery.ok()).unwrap_or(false),
        }
    }

    /// True when completion needed anything beyond a clean first
    /// attempt.
    pub fn degraded(&self) -> bool {
        self.rung != DegradeRung::Clean
    }

    /// The deterministic degradation report (pass the chaos seed when a
    /// seeded injector was active).
    pub fn report(&self, chaos_seed: Option<u64>) -> DegradationReport {
        DegradationReport {
            program: self.program.clone(),
            nprocs_initial: self.nprocs_initial,
            nprocs_final: self.nprocs_final,
            procs_lost: self.procs_lost,
            rung: self.rung.name().to_string(),
            serial_fallback: self.rung == DegradeRung::Serial,
            completed: self.completed(),
            deadline_ms: self.deadline_ms,
            rounds: self
                .rounds
                .iter()
                .map(|r| RoundReport {
                    nprocs: r.nprocs,
                    lost_pid: r.recovery.lost_pid,
                    recovery: r.recovery.report(chaos_seed),
                })
                .collect(),
            checkpoint_cells: self.checkpoint_cells,
            chaos_seed,
        }
    }
}

/// Execute `plan` under the degradation supervisor (see the module
/// docs). `replan` must produce a schedule of the same family as
/// `plan` for an arbitrary processor count — callers pass
/// `spmd_opt::optimize` or `spmd_opt::fork_join` — and is consulted
/// once per shrink. When `policy.sticky_pid_k` is 0 (classification
/// disabled, the `RetryPolicy` default) the degrader enables it at 2:
/// without the classifier the shrink rung is unreachable and every
/// permanent loss would burn the whole budget before falling back to
/// serial.
#[allow(clippy::too_many_arguments)]
pub fn run_parallel_degrading(
    prog: &Arc<Program>,
    bind: &Arc<Bindings>,
    plan: &SpmdProgram,
    mem: &Arc<Mem>,
    team: &Team,
    opts: &ObserveOptions,
    policy: &RetryPolicy,
    replan: &dyn Fn(&Program, &Bindings) -> SpmdProgram,
) -> DegradeOutcome {
    let deadline = opts
        .deadline
        .expect("run_parallel_degrading needs an armed deadline (opts.deadline)");
    let policy = RetryPolicy {
        sticky_pid_k: if policy.sticky_pid_k == 0 {
            2
        } else {
            policy.sticky_pid_k
        },
        ..policy.clone()
    };
    // One write-set checkpoint for every rung: the union of owned
    // iterations is the whole iteration space at any team width, so
    // the original plan's schedule names the complete write set.
    let events = Arc::new(unroll(prog, bind, plan));
    let outer = Checkpoint::capture(prog, bind, &events, mem);
    let nprocs_initial = bind.nprocs as usize;
    let mut k = nprocs_initial;
    let mut procs_lost = 0usize;
    let mut rounds: Vec<DegradeRound> = Vec::new();
    let mut total_stats = StatsSnapshot::default();
    // Round state: the widest round reuses the caller's team and plan;
    // every shrink rebuilds all three at the new width.
    let mut cur_bind = Arc::clone(bind);
    let mut cur_plan: Option<SpmdProgram> = None;
    let mut cur_team: Option<Team> = None;
    loop {
        let round_team = cur_team.as_ref().unwrap_or(team);
        let r = match &cur_plan {
            None => run_recovering_on(
                prog,
                bind,
                plan,
                Arc::clone(&events),
                mem,
                round_team,
                opts,
                &policy,
            ),
            Some(shrunk) => {
                run_parallel_recovering(prog, &cur_bind, shrunk, mem, round_team, opts, &policy)
            }
        };
        total_stats.merge(&r.total_stats);
        let ok = r.ok();
        let lost = r.lost_pid;
        let recovered_here = r.recovered();
        let final_plan = ok.then(|| r.final_plan.clone());
        rounds.push(DegradeRound {
            nprocs: k,
            recovery: r,
        });
        if ok {
            let rung = if k < nprocs_initial {
                DegradeRung::Shrunk
            } else if recovered_here {
                DegradeRung::Recovered
            } else {
                DegradeRung::Clean
            };
            return DegradeOutcome {
                rounds,
                rung,
                nprocs_initial,
                nprocs_final: k,
                procs_lost,
                final_plan,
                checkpoint_cells: outer.elem_cells(),
                total_stats,
                program: prog.name.clone(),
                deadline_ms: deadline.as_secs_f64() * 1e3,
            };
        }
        // Failed round. A sticky classification already rolled memory
        // back; a residual (budget exhausted, no classifiable pid)
        // leaves the failed attempt's partial writes behind — either
        // way the entry checkpoint restores the region entry state
        // bit-exactly before the next rung.
        outer.rollback(mem);
        if lost.is_some() && k > 1 {
            procs_lost += 1;
            k -= 1;
            let mut nb = (**bind).clone();
            nb.nprocs = k as i64;
            // Owner-computes bounds are re-derived from scratch at the
            // new width; the old plan is unsound below the width it
            // was planned for.
            cur_plan = Some(replan(prog, &nb));
            cur_bind = Arc::new(nb);
            cur_team = Some(Team::new(k));
            continue;
        }
        // Unclassifiable fault, or nothing left to shrink: the serial
        // tail. Sequential semantics use no sync primitives, so no
        // sync-level chaos policy can touch it — this rung cannot
        // fail.
        run_sequential(prog, bind, mem);
        return DegradeOutcome {
            rounds,
            rung: DegradeRung::Serial,
            nprocs_initial,
            nprocs_final: 1,
            procs_lost,
            final_plan: None,
            checkpoint_cells: outer.elem_cells(),
            total_stats,
            program: prog.name.clone(),
            deadline_ms: deadline.as_secs_f64() * 1e3,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::{BarrierKind, ChaosAction, SyncChaos};
    use ir::build::*;
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
            max_attempts: 5,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
            sticky_pid_k: 2,
            ..RetryPolicy::default()
        }
    }

    /// A permanently dead core: drops every post on one pid, at every
    /// site, forever — and is not maskable, because quarantining a
    /// site cannot revive hardware.
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

    fn oracle_for(prog: &Arc<Program>, bind: &Arc<Bindings>) -> Mem {
        let oracle = Mem::new(prog, bind);
        oracle.fill(ir::ArrayId(0), |s| (s[0] % 5) as f64);
        crate::run_sequential(prog, bind, &oracle);
        oracle
    }

    #[test]
    fn clean_run_stays_on_the_top_rung() {
        let (prog, bind) = sweep(32, 3, 4);
        let team = Team::new(4);
        let plan = optimize(&prog, &bind);
        let mem = Arc::new(Mem::new(&prog, &bind));
        mem.fill(ir::ArrayId(0), |s| (s[0] % 5) as f64);
        let d = run_parallel_degrading(
            &prog,
            &bind,
            &plan,
            &mem,
            &team,
            &guarded(None),
            &fast_policy(),
            &|p, b| optimize(p, b),
        );
        assert!(d.completed() && !d.degraded());
        assert_eq!(d.rung, DegradeRung::Clean);
        assert_eq!(d.nprocs_final, 4);
        assert_eq!(d.procs_lost, 0);
        assert_eq!(d.rounds.len(), 1);
        let oracle = oracle_for(&prog, &bind);
        assert_eq!(mem.max_abs_diff(&oracle), 0.0);
    }

    #[test]
    fn losing_the_top_pid_shrinks_once_and_completes() {
        let (prog, bind) = sweep(32, 3, 4);
        let team = Team::new(4);
        let plan = fork_join(&prog, &bind);
        let mem = Arc::new(Mem::new(&prog, &bind));
        mem.fill(ir::ArrayId(0), |s| (s[0] % 5) as f64);
        let chaos: Arc<dyn SyncChaos> = Arc::new(SilentKill { pid: 3 });
        let d = run_parallel_degrading(
            &prog,
            &bind,
            &plan,
            &mem,
            &team,
            &guarded(Some(chaos)),
            &fast_policy(),
            &|p, b| fork_join(p, b),
        );
        assert!(d.completed() && d.degraded());
        assert_eq!(d.rung, DegradeRung::Shrunk);
        // P3 only exists at width 4: one shrink is enough.
        assert_eq!(d.nprocs_final, 3);
        assert_eq!(d.procs_lost, 1);
        assert_eq!(d.rounds.len(), 2);
        assert_eq!(d.rounds[0].recovery.lost_pid, Some(3));
        assert!(d.rounds[1].recovery.ok());
        assert!(d.final_plan.is_some());
        let oracle = oracle_for(&prog, &bind);
        assert_eq!(mem.max_abs_diff(&oracle), 0.0, "bitwise oracle-exact");
    }

    #[test]
    fn a_permanently_panicking_pid_zero_forces_the_serial_tail() {
        let (prog, bind) = sweep(32, 3, 4);
        let team = Team::new(4);
        let plan = optimize(&prog, &bind);
        let mem = Arc::new(Mem::new(&prog, &bind));
        mem.fill(ir::ArrayId(0), |s| (s[0] % 5) as f64);
        let chaos: Arc<dyn SyncChaos> = Arc::new(PanicKill { pid: 0 });
        let d = run_parallel_degrading(
            &prog,
            &bind,
            &plan,
            &mem,
            &team,
            &guarded(Some(chaos)),
            &fast_policy(),
            &|p, b| optimize(p, b),
        );
        // P0 panics at every width, including 1: shrink all the way
        // down, then finish serially.
        assert!(d.completed() && d.degraded());
        assert_eq!(d.rung, DegradeRung::Serial);
        assert_eq!(d.nprocs_final, 1);
        assert!(d.final_plan.is_none());
        let rep = d.report(Some(3));
        assert_eq!(rep.rung, "serial");
        assert!(rep.serial_fallback && rep.completed);
        let oracle = oracle_for(&prog, &bind);
        assert_eq!(mem.max_abs_diff(&oracle), 0.0, "bitwise oracle-exact");
    }
}
