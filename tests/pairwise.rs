//! End-to-end tests for distance-vector pairwise synchronization.
//!
//! The unit tests in `analysis::comm` cover the lattice joins and the
//! FME distance spectrum; these tests cover the shipped promise:
//!
//! * the pipelined kernel set really loses its per-step barriers to
//!   pairwise counters (and reverts to barriers when the feature is
//!   ablated — the pre-distance-vector behavior), in the plan and in
//!   the dynamic counts of a run;
//! * pairwise plans are bitwise equal to the barrier-only plans and
//!   the sequential oracle on *random* loop-carried multi-hop
//!   programs, and the vector-clock validator certifies them;
//! * deleting any pairwise wait site is flagged as a race (the wait
//!   sets are necessary, not just sufficient);
//! * a persistently dropped pairwise cell post — one only a collector
//!   reads included — is absorbed by the demote → quarantine → isolate
//!   recovery ladder with bitwise-exact recovered memory;
//! * pairwise posts on real threads reach the run report's totals and a
//!   fault report's attempt stats.

use barrier_elim::analysis::check_parallel_loops;
use barrier_elim::interp::{
    run_parallel_observed, run_sequential, run_virtual, Mem, ObserveOptions, ScheduleOrder,
};
use barrier_elim::ir::build::*;
use barrier_elim::obs::{self, render_fault, CompileSection, Json, RunReport, RunSection, Rung};
use barrier_elim::oracle::{self, droppable_posts, Fault};
use barrier_elim::runtime::{ProcEnd, RetryPolicy, Team};
use barrier_elim::spmd_opt::{fork_join, optimize, optimize_with, OptimizeOptions};
use barrier_elim::suite::{self, Built, Scale};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// The kernels whose optimized schedules place pairwise counters at
/// four processors and Test scale.
const PAIR_KERNELS: &[&str] = &[
    "wavepipe2d",
    "trisolve_pipe",
    "multihop",
    "pivot_shift",
    "shift_bcast",
];

fn built(name: &str) -> Built {
    (suite::by_name(name).unwrap().build)(Scale::Test)
}

/// The regression the distance-vector classification fixes: with
/// pairwise sync ablated (`use_pairwise: false`, the pre-PR lattice)
/// every one of these kernels keeps extra barriers that the shipped
/// optimizer replaces with pairwise counters.
#[test]
fn ablating_pairwise_restores_the_spurious_barriers() {
    for name in PAIR_KERNELS {
        let b = built(name);
        let bind = b.bindings(4);
        let with = optimize(&b.prog, &bind).static_stats();
        let without = optimize_with(
            &b.prog,
            &bind,
            OptimizeOptions {
                use_pairwise: false,
                ..OptimizeOptions::default()
            },
        )
        .static_stats();
        assert!(with.pair_syncs >= 1, "{name}: {with:?}");
        assert_eq!(without.pair_syncs, 0, "{name}: {without:?}");
        assert!(
            without.barriers > with.barriers,
            "{name}: ablated plan has {} barriers, shipped {} — the \
             pairwise sites never replaced a barrier",
            without.barriers,
            with.barriers
        );
    }
}

/// The same promise in the counts of a run, at the scale the tables
/// report: fork-join executes at least 10× the optimized plan's barriers
/// at eight processors, through pairwise posts that really happen, and
/// both plans are race-free and bitwise equal to the sequential run
/// under opposite interleavings at four and eight.
#[test]
fn pairwise_plans_cut_dynamic_barriers_and_stay_bitwise_exact() {
    for &name in PAIR_KERNELS {
        let b = (suite::by_name(name).unwrap().build)(Scale::Small);
        for p in [4, 8] {
            let bind = b.bindings(p);
            let expect = Mem::new(&b.prog, &bind);
            run_sequential(&b.prog, &bind, &expect);
            let [fj, opt] = [fork_join(&b.prog, &bind), optimize(&b.prog, &bind)].map(|plan| {
                let valid = oracle::validate(&b.prog, &bind, &plan);
                assert!(valid.is_race_free(), "{name} P={p}: a plan races");
                let run = |order| {
                    let mem = Mem::new(&b.prog, &bind);
                    let counts = run_virtual(&b.prog, &bind, &plan, &mem, order).counts;
                    let diff = mem.max_abs_diff(&expect);
                    assert!(diff == 0.0, "{name} P={p} {order:?}: off by {diff:e}");
                    counts
                };
                run(ScheduleOrder::Reverse);
                run(ScheduleOrder::RoundRobin)
            });
            assert!(opt.pair_posts > 0, "{name} P={p}: no pairwise post");
            let ratio = fj.barriers as f64 / opt.barriers.max(1) as f64;
            assert!(p != 8 || ratio >= 10.0, "{name} P={p}: only {ratio:.1}x");
        }
    }
}

/// Pairwise work is part of every sync summary: a pipelined kernel on
/// real threads posts pairwise cells, and the run report's totals and a
/// fault report's attempt stats both carry them.
#[test]
fn pairwise_posts_reach_the_report_totals() {
    let b = (suite::by_name("wavepipe2d").unwrap().build)(Scale::Small);
    let prog = Arc::new(b.prog.clone());
    let bind = Arc::new(b.bindings(4));
    let plan = optimize(&prog, &bind);
    let mem = Arc::new(Mem::new(&prog, &bind));
    let opts = ObserveOptions {
        telemetry: true,
        ..ObserveOptions::default()
    };
    let out = run_parallel_observed(&prog, &bind, &plan, &mem, &Team::new(4), &opts);
    assert!(out.ok());
    let posts = out.stats.pairwise_posts;
    assert!(posts > 0, "wavepipe2d posted no pairwise cell");

    let report = RunReport {
        program: prog.name.clone(),
        nprocs: 4,
        compile: CompileSection {
            explain: Json::obj(),
            analysis: Default::default(),
        },
        run: Some(RunSection {
            totals: out.stats,
            sites: out.sites,
            profile: None,
            observed_vs_predicted: None,
        }),
        fault: None,
    };
    let doc = obs::report_json(&report);
    let pairwise = doc
        .get("run")
        .and_then(|r| r.get("totals"))
        .and_then(|t| t.get("pairwise"))
        .expect("the run totals name pairwise work");
    assert_eq!(pairwise.get("posts").and_then(Json::as_u64), Some(posts));

    // A fault report's attempts carry the same totals.
    let mut ends = vec![ProcEnd::Finished; 4];
    ends[0] = ProcEnd::Panicked("injected".into());
    let failure = obs::FailureReport {
        ends,
        first: 0,
        site_label: String::new(),
        sites: Vec::new(),
    };
    let fault = obs::FaultReport::detected(&prog.name, 4, 100.0, failure, out.stats);
    let doc = obs::fault_json(&fault);
    let attempt = &doc.get("rounds").and_then(Json::as_arr).unwrap()[0];
    let attempt = &attempt.get("attempts").and_then(Json::as_arr).unwrap()[0];
    let stats = attempt.get("stats").unwrap();
    let pairwise = stats
        .get("pairwise")
        .expect("attempt stats name pairwise work");
    assert_eq!(pairwise.get("posts").and_then(Json::as_u64), Some(posts));
}

/// Deleting any placed pairwise wait is caught by the vector-clock
/// validator: every distance in every wait set is load-bearing.
#[test]
fn deleting_any_pairwise_site_is_flagged_as_a_race() {
    let mut checked = 0;
    for name in PAIR_KERNELS {
        let b = built(name);
        let bind = b.bindings(4);
        let plan = optimize(&b.prog, &bind);
        assert!(
            oracle::validate(&b.prog, &bind, &plan).is_race_free(),
            "{name}: unmutated schedule must validate"
        );
        for site in oracle::sites(&plan) {
            if !site.desc.contains("pairwise") {
                continue;
            }
            let mutant = oracle::delete(&plan, site.index);
            let report = oracle::validate(&b.prog, &bind, &mutant);
            assert!(
                !report.is_race_free(),
                "{name}: deleting pairwise slot {} went unflagged",
                site.desc
            );
            checked += 1;
        }
    }
    assert!(checked >= 5, "only {checked} pairwise sites across the set");
}

/// Short backoffs keep the campaign fast.
fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
        ..RetryPolicy::default()
    }
}

/// A persistently dropped pairwise cell post on every pipelined kernel
/// is absorbed by the recovery ladder (demote-to-barrier first), with
/// recovered memory bitwise equal to the sequential oracle.
#[test]
fn dropped_pairwise_posts_are_absorbed_by_the_recovery_ladder() {
    for name in PAIR_KERNELS {
        let b = built(name);
        let prog = Arc::new(b.prog.clone());
        let bind = Arc::new(b.bindings(4));
        let plan = optimize(&prog, &bind);
        let cands = droppable_posts(&prog, &bind, &plan);
        assert!(
            cands.iter().any(|c| c.kind == "pairwise"),
            "{name}: no pairwise drop candidates in {cands:?}"
        );
        let deadline = Duration::from_millis(150);
        let r = oracle::campaign(
            &prog,
            &bind,
            &optimize,
            0xBE9,
            deadline,
            1e-9,
            &fast_policy(),
        );
        assert!(r.ok(), "{name}: {:?}", r.failures());
        assert_eq!(r.teeth[0].diff, 0.0, "{name}: benign run diverged");
        let mut pair_teeth = 0;
        for t in &r.teeth {
            let Fault::Drop(c) = t.fault else { continue };
            assert_eq!(
                t.report.rung,
                Rung::Recovered,
                "{name}: {} drop at s{} not absorbed:\n{}",
                c.kind,
                c.spec.site,
                render_fault(&t.report)
            );
            // Bitwise: recovery must not perturb a single ulp.
            assert_eq!(
                t.diff, 0.0,
                "{name}: recovered memory diverges by {:e}",
                t.diff
            );
            if c.kind == "pairwise" {
                pair_teeth += 1;
                // The stall may first be detected at the dropped
                // pairwise site or at the downstream barrier the
                // stalled consumer never reaches; either way the
                // ladder must demote on the way to convergence.
                let text = render_fault(&t.report);
                assert!(
                    text.contains("demote s"),
                    "{name}: pairwise drop at s{} recovered without any \
                     demotion:\n{text}",
                    c.spec.site
                );
            }
        }
        assert!(pair_teeth >= 1, "{name}: no pairwise tooth bit");
    }
}

/// At a collector site the post of a processor that is not a collector
/// is read by the collector (and, on `shift_bcast`, by its neighbor
/// one distance down). `droppable_posts` lists one for the collector —
/// the highest pid no distance or producer already stands for — and
/// dropping it, like the shift's, is absorbed by the ladder with
/// bitwise-exact recovered memory: on `shift_bcast` (the owner of
/// `B(0)` gathers; the last processor's post stands for the distance
/// the loop bottom is left with) and on a `GuardedSerial` program (the
/// master does).
#[test]
fn a_dropped_post_at_a_collector_site_is_absorbed() {
    let guarded = (0..32)
        .map(oracle::generate)
        .find(|g| g.shape == oracle::Shape::GuardedSerial)
        .expect("a GuardedSerial draw");
    let cases = [
        ("shift_bcast", built("shift_bcast"), 8, 0),
        (
            "guarded-serial",
            Built {
                prog: guarded.prog,
                values: guarded.values,
            },
            4,
            0,
        ),
    ];
    for (name, b, nprocs, collector) in cases {
        let prog = Arc::new(b.prog.clone());
        let bind = Arc::new(b.bindings(nprocs as i64));
        let plan = optimize(&prog, &bind);
        let cands = droppable_posts(&prog, &bind, &plan);
        let gathered: Vec<_> = cands
            .iter()
            .filter(|c| c.kind == "pairwise" && c.spec.pid != collector)
            .collect();
        let by_distance = (name == "shift_bcast") as usize;
        assert_eq!(gathered.len(), 1 + by_distance, "{name}: {cands:?}");
        assert_eq!(gathered[0].spec.pid, nprocs - 1, "{name}");
        let gathered = &gathered[by_distance..];
        assert_eq!(gathered[0].spec.pid, nprocs - 1 - by_distance, "{name}");
        let deadline = Duration::from_millis(150);
        let r = oracle::campaign(
            &prog,
            &bind,
            &optimize,
            0xC011,
            deadline,
            1e-9,
            &fast_policy(),
        );
        assert!(r.ok(), "{name}: {:?}", r.failures());
        assert_eq!(r.teeth[0].diff, 0.0, "{name}: benign run off");
        for t in &r.teeth {
            let Fault::Drop(c) = t.fault else { continue };
            assert!(
                t.failure(0.0).is_none(),
                "{name}: {} drop by P{} at s{} not absorbed exactly:\n{}",
                c.kind,
                c.spec.pid,
                c.spec.site,
                render_fault(&t.report)
            );
        }
        let spec = gathered[0].spec;
        let dropped = |t: &oracle::Tooth| matches!(t.fault, Fault::Drop(c) if c.spec == spec);
        assert!(r.teeth.iter().any(dropped));
    }
}

// ---------------------------------------------------------------------
// Random loop-carried multi-hop programs.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct HopLoop {
    /// Which array (mod #arrays) the loop writes.
    writes: u8,
    /// (array, hop in ownership-block multiples, small offset) reads.
    reads: Vec<(u8, i8, i8)>,
}

#[derive(Debug, Clone)]
struct HopSpec {
    narrays: u8,
    loops: Vec<HopLoop>,
    timesteps: u8,
}

fn hop_strategy() -> impl Strategy<Value = HopSpec> {
    let hop_loop = (
        0u8..4,
        proptest::collection::vec((0u8..4, -2i8..=2, -1i8..=1), 1..3),
    )
        .prop_map(|(writes, reads)| HopLoop { writes, reads });
    (2u8..4, proptest::collection::vec(hop_loop, 1..4), 1u8..4).prop_map(
        |(narrays, loops, timesteps)| HopSpec {
            narrays,
            loops,
            timesteps,
        },
    )
}

/// Hops are scaled by this stride. The padded extent is 32 + 2·25 =
/// 82, whose ownership block at four processors is 21: a ±1 hop stays
/// within a block (neighbor range) while a ±2 hop (24 cells) crosses
/// into distance-2 territory, so generated programs mix neighbor and
/// multi-hop pairwise patterns (plus a ±1 wobble from the small
/// offset).
const HOP: i64 = 12;

/// Materialize a spec: block-distributed arrays, a time loop around
/// phases reading other arrays at block-multiple hops. Reads never
/// target the written array inside a DOALL, so every parallel marking
/// is valid; all cross-phase and time-carried conflicts remain.
fn build_hops(spec: &HopSpec) -> Option<Built> {
    let na = spec.narrays as usize;
    let pad = 2 * HOP + 1; // max |hop·2 + 1| on either side
    let mut pb = ProgramBuilder::new("hops");
    let n = pb.sym("n");
    let arrays: Vec<_> = (0..na)
        .map(|k| pb.array(format!("A{k}"), &[sym(n) + 2 * pad], dist_block()))
        .collect();

    let i0 = pb.begin_par("i0", con(0), sym(n) + 2 * pad - 1);
    for (k, &a) in arrays.iter().enumerate() {
        pb.assign(elem(a, [idx(i0)]), ival(idx(i0) * (2 * k as i64 + 3)).sin());
    }
    pb.end();

    let _t = pb.begin_seq("t", con(0), con(spec.timesteps as i64 - 1));
    for (k, l) in spec.loops.iter().enumerate() {
        let w = arrays[l.writes as usize % na];
        let i = pb.begin_par(&format!("i{}", k + 1), con(pad), sym(n) + pad - 1);
        let mut rhs = ex(0.1);
        let mut has_read = false;
        for &(r, hop, off) in &l.reads {
            let ra = arrays[r as usize % na];
            if ra == w {
                continue; // would carry a dependence inside the DOALL
            }
            has_read = true;
            rhs = rhs + arr(ra, [idx(i) + (hop as i64 * HOP + off as i64)]) * ex(0.4);
        }
        if !has_read {
            rhs = rhs + ival(idx(i)).cos();
        }
        pb.assign(elem(w, [idx(i)]), rhs);
        pb.end();
    }
    pb.end();

    Some(Built {
        prog: pb.finish(),
        values: vec![(n, 32)],
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bitwise differential: on random loop-carried multi-hop
    /// programs, the pairwise-optimized plan, the fork-join
    /// barrier-only plan, and the sequential oracle agree to the last
    /// bit under adversarial virtual interleavings — and the
    /// vector-clock validator certifies every optimized wavefront
    /// schedule.
    #[test]
    fn pairwise_plans_are_bitwise_equal_to_barrier_only(spec in hop_strategy()) {
        if let Some(b) = build_hops(&spec) {
            for nprocs in [2i64, 4, 7] {
                let bind = b.bindings(nprocs);
                prop_assert!(
                    check_parallel_loops(&b.prog, &bind).is_empty(),
                    "generator produced an invalid DOALL"
                );
                let oracle_mem = Mem::new(&b.prog, &bind);
                run_sequential(&b.prog, &bind, &oracle_mem);
                let opt = optimize(&b.prog, &bind);
                let report = oracle::validate(&b.prog, &bind, &opt);
                prop_assert!(
                    report.is_race_free(),
                    "optimized schedule races at P={nprocs}: {} pairs",
                    report.num_racing_pairs
                );
                for (label, plan) in
                    [("fork-join", fork_join(&b.prog, &bind)), ("optimized", opt)]
                {
                    for order in [
                        ScheduleOrder::RoundRobin,
                        ScheduleOrder::Reverse,
                        ScheduleOrder::Random(0xBE9),
                    ] {
                        let mem = Mem::new(&b.prog, &bind);
                        run_virtual(&b.prog, &bind, &plan, &mem, order);
                        let diff = mem.max_abs_diff(&oracle_mem);
                        prop_assert!(
                            diff == 0.0,
                            "{label} diverged by {diff:e} under {order:?} (P={nprocs})"
                        );
                    }
                }
            }
        }
    }
}

/// The generator really produces pairwise plans (the property above
/// cannot assert it per-case: some draws are neighbor-only).
#[test]
fn hop_generator_reaches_pairwise_classifications() {
    let spec = HopSpec {
        narrays: 2,
        loops: vec![HopLoop {
            writes: 0,
            reads: vec![(1, -2, 0)],
        }],
        timesteps: 2,
    };
    let b = build_hops(&spec).unwrap();
    let bind = b.bindings(4);
    let st = optimize(&b.prog, &bind).static_stats();
    assert!(st.pair_syncs >= 1, "{st:?}");
}
