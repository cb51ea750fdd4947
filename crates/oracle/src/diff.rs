//! Differential execution oracle.
//!
//! One program, four executions that must agree:
//!
//! * the sequential interpreter (the semantics being reproduced),
//! * the unoptimized fork-join schedule,
//! * the optimized schedule under adversarial virtual interleavings,
//! * the optimized (and fork-join) schedule on real threads.
//!
//! Final shared memory is diffed cell-by-cell against the sequential
//! run, the dynamic synchronization counts of the virtual and real
//! executors are cross-checked (both count the same walk of the plan,
//! so disagreement means an executor bug), and each plan
//! is run through the static race validator. Any discrepancy is
//! reported as a human-readable failure string carrying the plan,
//! order, processor count, and divergence magnitude.

use crate::chaos::ChaosInjector;
use crate::validate;
use analysis::Bindings;
use interp::events::DynCounts;
use interp::{
    run_parallel_observed, run_sequential, run_virtual, Mem, ObserveOptions, ScheduleOrder,
    SyncChaos,
};
use ir::Program;
use obs::FaultReport;
use runtime::Team;
use spmd_opt::{fork_join, optimize, SpmdProgram};
use std::sync::Arc;
use std::time::Duration;

/// What the differential check runs.
#[derive(Clone, Debug)]
pub struct DiffConfig {
    /// Processor counts exercised by the virtual executor.
    pub nprocs: Vec<i64>,
    /// Extra seeded-random interleavings per (plan, nprocs), on top of
    /// round-robin and reverse.
    pub random_orders: u64,
    /// Also execute both plans on real threads at `thread_nprocs`.
    pub threads: bool,
    /// Team size for the real-thread runs.
    pub thread_nprocs: i64,
    /// Also run the static race validator on both plans.
    pub validate: bool,
    /// Maximum tolerated divergence from the sequential run (0.0 for
    /// generated programs, whose reductions are order-independent;
    /// `1e-9` for suite kernels with reassociating sum reductions).
    pub tol: f64,
    /// Per-wait deadline armed on every real-thread run. A correct
    /// schedule never comes near it; a deadlocking one becomes a
    /// structured failure instead of a hung campaign.
    pub deadline: Option<Duration>,
    /// Inject benign seeded chaos (delays, stalls, spurious wakeups)
    /// into the real-thread runs. Requires `deadline`.
    pub chaos_seed: Option<u64>,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            nprocs: vec![1, 3, 4],
            random_orders: 2,
            threads: false,
            thread_nprocs: 4,
            validate: true,
            tol: 0.0,
            deadline: Some(Duration::from_secs(10)),
            chaos_seed: None,
        }
    }
}

/// Outcome of one program's differential check.
#[derive(Debug, Default)]
pub struct CaseResult {
    /// Human-readable mismatch descriptions; empty means the program
    /// passed every comparison.
    pub failures: Vec<String>,
    /// Fork-join dynamic sync counts at the largest virtual `nprocs`.
    pub fj_counts: DynCounts,
    /// Optimized dynamic sync counts at the largest virtual `nprocs`.
    pub opt_counts: DynCounts,
    /// Fault reports for real-thread runs that timed out, were
    /// poisoned, or lost a worker (one per failing run; rides into the
    /// repro bundle as `failure.json`).
    pub failure_reports: Vec<FaultReport>,
}

impl CaseResult {
    /// True when every execution agreed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

fn virt_orders(cfg: &DiffConfig) -> Vec<ScheduleOrder> {
    let mut orders = vec![ScheduleOrder::RoundRobin, ScheduleOrder::Reverse];
    for k in 0..cfg.random_orders {
        orders.push(ScheduleOrder::Random(0xC0FFEE ^ (k * 7919 + 13)));
    }
    orders
}

/// Differentially check one program: every parallel execution must
/// reproduce the sequential result within `cfg.tol`, and both plans
/// must validate race-free.
pub fn check_program(
    prog: &Program,
    mk_bind: &dyn Fn(i64) -> Bindings,
    cfg: &DiffConfig,
) -> CaseResult {
    let mut out = CaseResult::default();

    for &p in &cfg.nprocs {
        let bind = mk_bind(p);
        let bad = analysis::check_parallel_loops(prog, &bind);
        if !bad.is_empty() {
            out.failures.push(format!(
                "P={p}: generator produced dependent DOALLs {bad:?}"
            ));
            continue;
        }
        let oracle = Mem::new(prog, &bind);
        run_sequential(prog, &bind, &oracle);

        for (label, plan) in [
            ("fork-join", fork_join(prog, &bind)),
            ("optimized", optimize(prog, &bind)),
        ] {
            if cfg.validate {
                let r = validate::validate(prog, &bind, &plan);
                if !r.is_race_free() {
                    out.failures.push(format!(
                        "P={p} {label}: {} racing pairs, first: {}",
                        r.num_racing_pairs,
                        r.races.first().map(|r| r.to_string()).unwrap_or_default()
                    ));
                }
            }
            let mut counts = None;
            for order in virt_orders(cfg) {
                let mem = Mem::new(prog, &bind);
                let vo = run_virtual(prog, &bind, &plan, &mem, order);
                let diff = mem.max_abs_diff(&oracle);
                if diff > cfg.tol {
                    out.failures.push(format!(
                        "P={p} {label} virt {order:?}: diverged by {diff:e}"
                    ));
                }
                if let Some(c) = counts {
                    if c != vo.counts {
                        out.failures.push(format!(
                            "P={p} {label} virt {order:?}: counts changed across orders"
                        ));
                    }
                }
                counts = Some(vo.counts);
            }
            if Some(&p) == cfg.nprocs.iter().max() {
                match label {
                    "fork-join" => out.fj_counts = counts.unwrap_or_default(),
                    _ => out.opt_counts = counts.unwrap_or_default(),
                }
            }
        }
    }

    if cfg.threads {
        let p = cfg.thread_nprocs;
        let bind = Arc::new(mk_bind(p));
        let prog = Arc::new(prog.clone());
        let oracle = Mem::new(&prog, &bind);
        run_sequential(&prog, &bind, &oracle);
        let team = Team::new(p as usize);
        for (label, plan) in [
            ("fork-join", fork_join(&prog, &bind)),
            ("optimized", optimize(&prog, &bind)),
        ] {
            let mem = Arc::new(Mem::new(&prog, &bind));
            let po = run_parallel_observed(
                &prog,
                &bind,
                &plan,
                &mem,
                &team,
                &ObserveOptions {
                    deadline: cfg.deadline,
                    chaos: cfg
                        .chaos_seed
                        .map(|s| Arc::new(ChaosInjector::new(s, None)) as Arc<dyn SyncChaos>),
                    ..ObserveOptions::default()
                },
            );
            if let Some(f) = po.failure.clone() {
                out.failures
                    .push(format!("P={p} {label} threads: {}", f.headline()));
                let ms = cfg.deadline.unwrap_or_default().as_secs_f64() * 1e3;
                let mut r = FaultReport::detected(&prog.name, p as usize, ms, f, po.stats);
                r.chaos_seed = cfg.chaos_seed;
                out.failure_reports.push(r);
                continue; // memory/counts are meaningless after a fault
            }
            let diff = mem.max_abs_diff(&oracle);
            if diff > cfg.tol {
                out.failures
                    .push(format!("P={p} {label} threads: diverged by {diff:e}"));
            }
            // The virtual executor's counts for the same plan and
            // processor count must match by construction.
            let vmem = Mem::new(&prog, &bind);
            let vo = run_virtual(&prog, &bind, &plan, &vmem, ScheduleOrder::RoundRobin);
            if vo.counts != po.counts {
                out.failures.push(format!(
                    "P={p} {label} threads: dyn counts {:?} != virt {:?}",
                    po.counts, vo.counts
                ));
            }
        }
    }

    out
}

/// Check one plan (already built) against the sequential semantics
/// under the virtual executor only — the building block the mutation
/// tester uses on schedules it has tampered with.
pub fn plan_diverges(
    prog: &Program,
    bind: &Bindings,
    plan: &SpmdProgram,
    orders: &[ScheduleOrder],
    tol: f64,
) -> Option<f64> {
    let oracle = Mem::new(prog, bind);
    run_sequential(prog, bind, &oracle);
    let mut worst = 0.0f64;
    for &order in orders {
        let mem = Mem::new(prog, bind);
        run_virtual(prog, bind, plan, &mem, order);
        worst = worst.max(mem.max_abs_diff(&oracle));
    }
    if worst > tol {
        Some(worst)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn generated_programs_pass_quick_differential() {
        for seed in 0..8 {
            let g = gen::generate(seed);
            let cfg = DiffConfig {
                nprocs: vec![1, 4],
                random_orders: 1,
                ..DiffConfig::default()
            };
            let r = check_program(&g.prog, &|p| g.bindings(p), &cfg);
            assert!(r.ok(), "seed {seed} shape {:?}: {:?}", g.shape, r.failures);
        }
    }

    #[test]
    fn one_generated_program_passes_on_real_threads() {
        let g = gen::generate(3);
        let cfg = DiffConfig {
            nprocs: vec![4],
            threads: true,
            thread_nprocs: 4,
            ..DiffConfig::default()
        };
        let r = check_program(&g.prog, &|p| g.bindings(p), &cfg);
        assert!(r.ok(), "{:?}", r.failures);
    }
}
