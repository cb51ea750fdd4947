//! Mechanism switches: disabling each replacement degrades the schedule
//! in exactly the expected way while staying sound.

use analysis::Bindings;
use ir::build::*;
use spmd_opt::{optimize, optimize_explained, optimize_with, AnalysisConfig, OptimizeOptions};

fn stencil_and_broadcast() -> (ir::Program, Bindings) {
    // A stencil pair (neighbor) plus a master-produced scalar (counter).
    let mut pb = ProgramBuilder::new("mix");
    let n = pb.sym("n");
    let a = pb.array("A", &[sym(n)], dist_block());
    let b = pb.array("B", &[sym(n)], dist_block());
    let s = pb.scalar("s", 0.0);
    pb.assign(svar(s), ex(2.0));
    let i = pb.begin_par("i", con(0), sym(n) - 1);
    pb.assign(elem(a, [idx(i)]), sca(s) + ival(idx(i)).sin());
    pb.end();
    let j = pb.begin_par("j", con(1), sym(n) - 2);
    pb.assign(
        elem(b, [idx(j)]),
        arr(a, [idx(j) - 1]) + arr(a, [idx(j) + 1]),
    );
    pb.end();
    let k = pb.begin_par("k", con(1), sym(n) - 2);
    pb.assign(elem(a, [idx(k)]), arr(b, [idx(k)]));
    pb.end();
    let prog = pb.finish();
    let bind = Bindings::new(4).set(n, 32);
    (prog, bind)
}

#[test]
fn full_options_match_default_optimize() {
    let (prog, bind) = stencil_and_broadcast();
    let a = optimize(&prog, &bind).static_stats();
    let b = optimize_with(&prog, &bind, OptimizeOptions::default()).static_stats();
    assert_eq!(a, b);
}

/// The analysis configuration (caching) tunes speed only: plan and
/// decision log must match the uncached pass exactly, entry for entry.
#[test]
fn analysis_config_never_changes_plan_or_log() {
    let (prog, bind) = stencil_and_broadcast();
    let reference = OptimizeOptions {
        analysis: AnalysisConfig::sequential_uncached(),
        ..Default::default()
    };
    let (ref_plan, ref_log, ref_stats) = optimize_explained(&prog, &bind, reference);
    assert_eq!(ref_stats.fme, Default::default(), "no FME memo uncached");
    let (plan, log, stats) = optimize_explained(&prog, &bind, OptimizeOptions::default());
    assert_eq!(
        spmd_opt::render_plan(&prog, &plan),
        spmd_opt::render_plan(&prog, &ref_plan)
    );
    assert_eq!(log.len(), ref_log.len());
    for (a, b) in log.iter().zip(&ref_log) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
    assert!(
        stats.fme.feas_misses > 0,
        "cached run records memo traffic: {stats:?}"
    );
    // The facts table is no cache knob: both runs look up and scan the
    // same access pairs.
    assert!(stats.pair_misses > 0, "{stats:?}");
    assert_eq!(
        (stats.pair_hits, stats.pair_misses),
        (ref_stats.pair_hits, ref_stats.pair_misses)
    );
}

#[test]
fn disabling_neighbor_reverts_those_slots_to_barriers() {
    let (prog, bind) = stencil_and_broadcast();
    let full = optimize(&prog, &bind).static_stats();
    let no_nb = optimize_with(
        &prog,
        &bind,
        OptimizeOptions {
            use_neighbor: false,
            ..Default::default()
        },
    )
    .static_stats();
    assert_eq!(no_nb.neighbor_syncs, 0);
    assert_eq!(
        no_nb.barriers,
        full.barriers + full.neighbor_syncs,
        "full={full:?} no_nb={no_nb:?}"
    );
    // Counters unaffected.
    assert_eq!(no_nb.counter_syncs, full.counter_syncs);
}

#[test]
fn disabling_counters_reverts_those_slots_to_barriers() {
    let (prog, bind) = stencil_and_broadcast();
    let full = optimize(&prog, &bind).static_stats();
    let no_c = optimize_with(
        &prog,
        &bind,
        OptimizeOptions {
            use_counters: false,
            ..Default::default()
        },
    )
    .static_stats();
    assert_eq!(no_c.counter_syncs, 0);
    assert_eq!(no_c.barriers, full.barriers + full.counter_syncs);
}

#[test]
fn disabling_elimination_keeps_every_slot_synchronized() {
    let (prog, bind) = stencil_and_broadcast();
    let none = optimize_with(
        &prog,
        &bind,
        OptimizeOptions {
            eliminate: false,
            use_neighbor: false,
            use_counters: false,
            ..Default::default()
        },
    )
    .static_stats();
    assert_eq!(none.eliminated, 0, "{none:?}");
    assert_eq!(none.neighbor_syncs, 0);
    assert_eq!(none.counter_syncs, 0);
}

#[test]
fn degraded_plans_stay_sound() {
    use interp::{run_sequential, run_virtual, Mem, ScheduleOrder};
    let (prog, bind) = stencil_and_broadcast();
    let oracle = Mem::new(&prog, &bind);
    run_sequential(&prog, &bind, &oracle);
    for opts in [
        OptimizeOptions {
            eliminate: false,
            ..Default::default()
        },
        OptimizeOptions {
            use_neighbor: false,
            ..Default::default()
        },
        OptimizeOptions {
            use_counters: false,
            ..Default::default()
        },
        OptimizeOptions {
            eliminate: false,
            use_neighbor: false,
            use_counters: false,
            ..Default::default()
        },
    ] {
        let plan = optimize_with(&prog, &bind, opts);
        let mem = Mem::new(&prog, &bind);
        run_virtual(&prog, &bind, &plan, &mem, ScheduleOrder::Reverse);
        assert_eq!(mem.max_abs_diff(&oracle), 0.0, "{opts:?}");
    }
}
