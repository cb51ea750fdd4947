//! Differential tests: a memo may make the analysis faster, never
//! different. For every suite kernel and a population of
//! oracle-generated programs, the default configuration (a cold
//! Fourier–Motzkin memo) — and, over the suite, one memo shared by every
//! kernel — must produce a plan and decision log bitwise identical to
//! `AnalysisConfig::sequential_uncached()`; likewise deadline-guarded and
//! pure waits must run the same schedule to the same memory.

use spmd_opt::{
    optimize_explained, optimize_explained_shared, render_plan, AnalysisConfig, AnalysisStats,
    OptimizeOptions,
};
use std::sync::Arc;
use suite::Scale;

fn opts(analysis: AnalysisConfig) -> OptimizeOptions {
    OptimizeOptions {
        analysis,
        ..Default::default()
    }
}

/// Render the (plan, decision log) fingerprint for one configuration.
fn fingerprint(
    prog: &ir::Program,
    bind: &analysis::Bindings,
    cfg: AnalysisConfig,
) -> (String, String, AnalysisStats) {
    let (plan, log, stats) = optimize_explained(prog, bind, opts(cfg));
    let log = log
        .iter()
        .map(|d| format!("{d:?}\n"))
        .collect::<Vec<_>>()
        .concat();
    (render_plan(prog, &plan), log, stats)
}

#[test]
fn suite_kernels_cached_and_shared_memo_match_uncached() {
    let shared = Arc::new(ineq::FmeCache::new());
    for def in suite::all() {
        let (built, bind) = spmd_bench::instance(&def, Scale::Test, 4);
        let (ref_plan, ref_log, _) =
            fingerprint(&built.prog, &bind, AnalysisConfig::sequential_uncached());
        let (plan, log, stats) = fingerprint(&built.prog, &bind, AnalysisConfig::default());
        assert_eq!(ref_plan, plan, "cached plan diverged on {}", def.name);
        assert_eq!(ref_log, log, "cached log diverged on {}", def.name);
        // The guarded scan never grew past its constraint budget.
        assert!(
            stats.fme.peak_constraints <= ineq::MAX_FEAS_CONSTRAINTS,
            "{}: peak {} over budget",
            def.name,
            stats.fme.peak_constraints
        );

        // Same program under a memo shared across every kernel in this
        // loop: cross-program replay must not leak one kernel's
        // verdicts into another's decisions.
        let (plan, log, _) =
            optimize_explained_shared(&built.prog, &bind, opts(AnalysisConfig::default()), &shared);
        let log = log
            .iter()
            .map(|d| format!("{d:?}\n"))
            .collect::<Vec<_>>()
            .concat();
        assert_eq!(
            ref_plan,
            render_plan(&built.prog, &plan),
            "shared-cache plan diverged on {}",
            def.name
        );
        assert_eq!(ref_log, log, "shared-cache log diverged on {}", def.name);
    }
    let st = shared.stats();
    assert!(st.feas_hits > 0, "shared memo never hit across the suite");
}

#[test]
fn oracle_programs_cached_match_uncached() {
    for seed in 0..48 {
        let g = oracle::generate(seed);
        let bind = g.bindings(4);
        let (ref_plan, ref_log, _) =
            fingerprint(&g.prog, &bind, AnalysisConfig::sequential_uncached());
        let (plan, log, _) = fingerprint(&g.prog, &bind, AnalysisConfig::default());
        assert_eq!(
            ref_plan, plan,
            "cached plan diverged on seed {seed} ({:?})",
            g.shape
        );
        assert_eq!(
            ref_log, log,
            "cached log diverged on seed {seed} ({:?})",
            g.shape
        );
    }
}

/// The fault path is a pure robustness knob: every suite kernel under
/// both plans must compute bitwise-identical memory (to reduction noise
/// when the kernel reduces) — and drive the exact same dynamic sync
/// schedule, site for site — whether its waits
/// run on the pure-atomic fast path or through the deadline-guarded
/// watchdog. Timing may differ; decisions and data may not.
#[test]
fn guarded_and_pure_latency_paths_are_observationally_identical() {
    use interp::{run_parallel_observed, run_sequential, Mem, ObserveOptions};
    use runtime::Team;
    use std::time::Duration;

    let nprocs = 4;
    let team = Team::new(nprocs);
    for def in suite::all() {
        let (built, bind) = spmd_bench::instance(&def, Scale::Test, nprocs as i64);
        let prog = Arc::new(built.prog);
        let bind = Arc::new(bind);
        let has_reduction = prog
            .nodes
            .iter()
            .any(|n| n.as_assign().is_some_and(|a| a.reduction.is_some()));
        let oracle_mem = Mem::new(&prog, &bind);
        oracle_mem.fill(ir::ArrayId(0), |s| (s[0] % 7) as f64);
        run_sequential(&prog, &bind, &oracle_mem);

        for (label, plan) in [
            ("fork-join", spmd_opt::fork_join(&prog, &bind)),
            ("optimized", spmd_opt::optimize(&prog, &bind)),
        ] {
            let run = |deadline: Option<Duration>| {
                let mem = Arc::new(Mem::new(&prog, &bind));
                mem.fill(ir::ArrayId(0), |s| (s[0] % 7) as f64);
                let out = run_parallel_observed(
                    &prog,
                    &bind,
                    &plan,
                    &mem,
                    &team,
                    &ObserveOptions {
                        telemetry: true,
                        deadline,
                        ..ObserveOptions::default()
                    },
                );
                (mem, out)
            };
            let (pure_mem, pure) = run(None);
            let (guarded_mem, guarded) = run(Some(Duration::from_secs(30)));

            assert!(
                guarded.ok(),
                "{} ({label}): clean guarded run reported {:?}",
                def.name,
                guarded.failure
            );
            // Bitwise-identical memory, unless the program reduces: real
            // threads combine a reduction's per-processor partials in
            // arrival order, so two runs of such a kernel may differ in
            // the last ulp whichever wait path they take, and only
            // tolerance can be asked of them. A static property of the
            // program decides, never the timing of a trial run.
            if has_reduction {
                assert!(
                    pure_mem.max_abs_diff(&guarded_mem) <= 1e-9,
                    "{} ({label}): guarded path diverged beyond reduction noise",
                    def.name
                );
            } else {
                assert_eq!(
                    pure_mem.max_abs_diff(&guarded_mem),
                    0.0,
                    "{} ({label}): guarded path changed the data",
                    def.name
                );
                assert_eq!(
                    pure_mem.checksum(),
                    guarded_mem.checksum(),
                    "{} ({label}): checksum mismatch",
                    def.name
                );
            }
            // Against the *sequential* oracle only tolerance-equality
            // holds (parallel reductions reassociate); bitwise equality
            // is the pure-vs-guarded contract above.
            assert!(
                pure_mem.max_abs_diff(&oracle_mem) <= 1e-9,
                "{} ({label}): parallel run diverged from sequential oracle",
                def.name
            );
            // Identical dynamic sync schedule...
            assert_eq!(
                pure.counts, guarded.counts,
                "{} ({label}): dynamic counts diverged",
                def.name
            );
            // ...and identical per-kind operation totals from the live
            // primitives (wait *times* legitimately differ).
            for (what, a, b) in [
                (
                    "barrier episodes",
                    pure.stats.barrier_episodes,
                    guarded.stats.barrier_episodes,
                ),
                (
                    "barrier arrivals",
                    pure.stats.barrier_arrivals,
                    guarded.stats.barrier_arrivals,
                ),
                (
                    "counter increments",
                    pure.stats.counter_increments,
                    guarded.stats.counter_increments,
                ),
                (
                    "counter waits",
                    pure.stats.counter_waits,
                    guarded.stats.counter_waits,
                ),
                (
                    "neighbor posts",
                    pure.stats.neighbor_posts,
                    guarded.stats.neighbor_posts,
                ),
                (
                    "neighbor waits",
                    pure.stats.neighbor_waits,
                    guarded.stats.neighbor_waits,
                ),
            ] {
                assert_eq!(a, b, "{} ({label}): {what} diverged", def.name);
            }
            // Site-for-site decision log: same sites, same labels, same
            // per-processor op and wait counts at every site.
            assert_eq!(
                pure.sites.len(),
                guarded.sites.len(),
                "{} ({label}): site list diverged",
                def.name
            );
            for (p, g) in pure.sites.iter().zip(&guarded.sites) {
                assert_eq!(p.meta.id, g.meta.id);
                assert_eq!(p.meta.label, g.meta.label, "{} ({label})", def.name);
                assert_eq!(p.meta.op, g.meta.op, "{} ({label})", def.name);
                assert_eq!(
                    p.total.ops, g.total.ops,
                    "{} ({label}) site {}: op count diverged",
                    def.name, p.meta.id
                );
                for (pid, (pc, gc)) in p.per_proc.iter().zip(&g.per_proc).enumerate() {
                    assert_eq!(
                        pc.ops, gc.ops,
                        "{} ({label}) site {} P{pid}: ops diverged",
                        def.name, p.meta.id
                    );
                    assert_eq!(
                        pc.waits, gc.waits,
                        "{} ({label}) site {} P{pid}: waits diverged",
                        def.name, p.meta.id
                    );
                }
            }
        }
    }
}

#[test]
fn extreme_bindings_keep_barriers_instead_of_panicking() {
    // Near-i64 loop bounds push the exact arithmetic inside the
    // Fourier-Motzkin scans toward overflow. The analysis must finish
    // (no panic), and any overflow must surface as an Unknown verdict —
    // which keeps the barrier — with identical answers cached and not.
    for def in suite::all().into_iter().take(6) {
        let (built, _) = spmd_bench::instance(&def, Scale::Test, 4);
        let mut huge = analysis::Bindings::new(4);
        for &(s, _) in &built.values {
            huge.bind(s, i64::MAX / 4);
        }
        let (ref_plan, ref_log, _) =
            fingerprint(&built.prog, &huge, AnalysisConfig::sequential_uncached());
        let (plan, log, _) = fingerprint(&built.prog, &huge, AnalysisConfig::default());
        assert_eq!(ref_plan, plan, "plan diverged on {} (huge)", def.name);
        assert_eq!(ref_log, log, "log diverged on {} (huge)", def.name);
    }
}
