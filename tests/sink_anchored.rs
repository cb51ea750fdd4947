//! End-to-end tests for sink-anchored producers: the loop-bottom
//! barrier of a broadcast-per-step kernel (`lu`, `workvec`) becomes a
//! counter posted by the owner of what the *next* iteration reads.
//!
//! `analysis::comm` unit-tests the rule itself; here: the plans the
//! suite ships really carry the counter (and lose it again with
//! counters ablated), the counter is necessary (deleting it is a race),
//! and every plan of the suite and the `.be` corpus validates race-free
//! well past the widths the differential oracle runs at.

use barrier_elim::analysis::{Anchor, Bindings, ProducerSpec};
use barrier_elim::interp::{run_virtual, Mem, ScheduleOrder};
use barrier_elim::ir::{Program, SymId};
use barrier_elim::spmd_opt::{
    optimize, optimize_logged, optimize_with, sync_sites, OptimizeOptions, SlotKind, SpmdProgram,
    SyncOp, SyncSite,
};
use barrier_elim::suite::{self, Built, Scale};
use barrier_elim::{frontend, oracle};

/// The loop-bottom site of the plan's one region-level sequential loop.
fn loop_bottom(prog: &Program, plan: &SpmdProgram) -> SyncSite {
    let mut bottoms = sync_sites(prog, plan)
        .into_iter()
        .filter(|s| s.kind == SlotKind::LoopBottom);
    let site = bottoms.next().expect("a loop-bottom site");
    assert!(bottoms.next().is_none(), "one sequential loop expected");
    site
}

fn dyn_barriers(prog: &Program, bind: &Bindings, plan: &SpmdProgram) -> u64 {
    let mem = Mem::new(prog, bind);
    run_virtual(prog, bind, plan, &mem, ScheduleOrder::RoundRobin)
        .counts
        .barriers
}

/// `workvec`'s loop bottom holds the sink-anchored counter. `lu`'s
/// would — the same rule names the owner of column `k + 1` there — but
/// that owner posts the scale → update counter of trip `k + 1` before
/// anyone reads the column, so the bottom is covered and holds nothing:
/// the one counter in the loop body is the sink-anchored producer's.
#[test]
fn workvec_posts_a_counter_at_the_loop_bottom_and_lu_rides_the_one_in_its_body() {
    for name in ["lu", "workvec"] {
        let built = (suite::by_name(name).unwrap().build)(Scale::Test);
        for nprocs in [3, 4, 8, 16] {
            let bind = built.bindings(nprocs);
            let (plan, log) = optimize_logged(&built.prog, &bind);
            let site = loop_bottom(&built.prog, &plan);
            if name == "lu" {
                assert_eq!(site.op, SyncOp::None, "lu P={nprocs}");
                let bottom = log.iter().find(|d| d.site == site.id).unwrap();
                let by: Vec<usize> = bottom.covered.iter().map(|c| c.1).collect();
                assert_eq!(by, [site.id - 2], "lu P={nprocs}: {}", bottom.reason);
                assert_eq!(plan.static_stats().counter_syncs, 1);
            } else {
                assert!(
                    site.op.is_counter(),
                    "{name} P={nprocs}: {} holds {:?}",
                    site.label,
                    site.op
                );
                let producer = &site.op.waits().unwrap().producers[0];
                assert!(
                    matches!(
                        producer,
                        ProducerSpec::Owner {
                            anchor: Anchor::Sink,
                            ..
                        }
                    ),
                    "{name} P={nprocs}: {producer:?}"
                );
            }
            // What is left: the region end.
            assert_eq!(dyn_barriers(&built.prog, &bind, &plan), 1, "{name}");

            // The rule rides the counter switch: ablated, a barrier is
            // back in every one of the 11 iterations (the last one's is
            // the region end).
            let ablated = optimize_with(
                &built.prog,
                &bind,
                OptimizeOptions {
                    use_counters: false,
                    ..OptimizeOptions::default()
                },
            );
            assert_eq!(ablated.static_stats().counter_syncs, 0);
            assert!(dyn_barriers(&built.prog, &bind, &ablated) >= 11);
        }
    }
}

/// In `workvec` the counter is necessary, not just sufficient: without
/// it the replicated gather reads pivot row `k + 1` before its owner
/// has updated it.
#[test]
fn deleting_workvecs_loop_bottom_counter_is_a_race() {
    let built = (suite::by_name("workvec").unwrap().build)(Scale::Test);
    for nprocs in [3, 4, 8] {
        let bind = built.bindings(nprocs);
        let plan = optimize(&built.prog, &bind);
        assert!(oracle::validate(&built.prog, &bind, &plan).is_race_free());
        let bottom = loop_bottom(&built.prog, &plan).id;
        let mutant = oracle::delete(&plan, bottom);
        let report = oracle::validate(&built.prog, &bind, &mutant);
        assert!(!report.is_race_free(), "P={nprocs}: not flagged");
    }
}

/// Every plan the optimizer emits for the suite, the shipped `.be`
/// sources and `generate(0..32)` is race-free from 2 to 64 processors — in particular at the
/// widths (8 and up) where an all-to-all no longer fits the pairwise
/// fan-in and the producer rules decide.
#[test]
fn suite_and_be_plans_validate_race_free_up_to_64_processors() {
    let mut programs: Vec<(&str, Built)> = suite::all()
        .iter()
        .map(|def| (def.name, (def.build)(Scale::Test)))
        .collect();
    for (file, src) in [
        ("broadcast.be", include_str!("../kernels/broadcast.be")),
        ("jacobi.be", include_str!("../kernels/jacobi.be")),
        ("pipeline.be", include_str!("../kernels/pipeline.be")),
        (
            "private_gather.be",
            include_str!("../kernels/private_gather.be"),
        ),
        ("shallow.be", include_str!("../kernels/shallow.be")),
    ] {
        let prog = frontend::parse(src).expect("shipped kernels parse");
        let values = (0..prog.syms.len())
            .map(|k| {
                let v = if prog.syms[k].name == "tmax" { 3 } else { 12 };
                (SymId(k as u32), v)
            })
            .collect();
        programs.push((file, Built { prog, values }));
    }
    // The generated compile set: its guarded serial statements are what
    // the master collects for.
    for seed in 0..32 {
        let g = oracle::generate(seed);
        let built = Built {
            prog: g.prog,
            values: g.values,
        };
        programs.push(("generate(0..32)", built));
    }
    for (name, built) in &programs {
        for nprocs in [2, 3, 4, 5, 7, 8, 16, 64] {
            let bind = built.bindings(nprocs);
            let plan = optimize(&built.prog, &bind);
            let r = oracle::validate(&built.prog, &bind, &plan);
            assert!(
                r.is_race_free(),
                "{name} P={nprocs}: {} racing pairs, first: {:?}",
                r.num_racing_pairs,
                r.races.first()
            );
        }
    }
}
