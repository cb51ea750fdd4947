//! End-to-end tests for consumer-side synchronization: collectors (the
//! one processor that has to wait gathers everyone's post), commuting
//! reductions, and the last-trip barrier merge.
//!
//! `analysis::comm` unit-tests the rules themselves; here: the plans of
//! the programs the rules were written for really lose their interior
//! barriers (and get them back with the mechanism ablated), every
//! collector is necessary (stripping it is a race), the validator tells
//! reduction operators apart, and no optimized plan executes more
//! barriers than fork-join.

use barrier_elim::analysis::Bindings;
use barrier_elim::interp::Schedule;
use barrier_elim::ir::build::*;
use barrier_elim::ir::{Program, RedOp};
use barrier_elim::oracle::{self, Shape};
use barrier_elim::spmd_opt::{
    fork_join, optimize, optimize_with, sync_sites, OptimizeOptions, SlotKind, SpmdProgram, SyncOp,
    SyncSite,
};
use barrier_elim::suite::{self, Built, Scale};

fn dyn_barriers(prog: &Program, bind: &Bindings, plan: &SpmdProgram) -> u64 {
    Schedule::new(prog, bind, plan).counts().barriers
}

/// The sync sites that are neither eliminated nor a region end.
fn interior(prog: &Program, plan: &SpmdProgram) -> Vec<SyncSite> {
    sync_sites(prog, plan)
        .into_iter()
        .filter(|s| s.kind != SlotKind::RegionEnd && s.op.is_some())
        .collect()
}

fn has_collector(site: &SyncSite) -> bool {
    site.op.waits().is_some_and(|w| !w.collectors.is_empty())
}

/// The programs of the compile set whose loop bottom the collector
/// rules decide: the six `GuardedSerial` draws of `generate(0..32)`
/// (everybody reads `s`, then the master alone overwrites it) and
/// `shift_bcast` (everybody reads `B(0)`, then its owner overwrites it).
fn collector_programs() -> Vec<(String, Built)> {
    let mut out: Vec<_> = (0..32)
        .map(oracle::generate)
        .filter(|g| g.shape == Shape::GuardedSerial)
        .map(|g| {
            let built = Built {
                prog: g.prog,
                values: g.values,
            };
            (format!("gen{}", g.seed), built)
        })
        .collect();
    assert_eq!(out.len(), 6, "GuardedSerial draws in generate(0..32)");
    let shift_bcast = (suite::by_name("shift_bcast").unwrap().build)(Scale::Test);
    out.push(("shift_bcast".into(), shift_bcast));
    out
}

#[test]
fn collector_programs_keep_no_interior_barrier() {
    for (name, built) in collector_programs() {
        let prog = &built.prog;
        for nprocs in [3, 4, 8, 16] {
            let bind = built.bindings(nprocs);
            let plan = optimize(prog, &bind);
            let sites = interior(prog, &plan);
            assert!(
                sites.iter().all(|s| !s.op.is_barrier()),
                "{name} P={nprocs}: {sites:?}"
            );
            assert!(oracle::validate(prog, &bind, &plan).is_race_free());
            let bottom = sites
                .iter()
                .find(|s| s.kind == SlotKind::LoopBottom)
                .expect("a loop-bottom site");
            // Three processors: the two distances of the anti
            // dependence join the shift and the producer within the
            // fan-in, as they did before there were collectors. Four:
            // its three distances {-3,-2,-1} fit the fan-in on their
            // own, so the rule order never reaches the collector — and
            // the shift and the producer, which used to join them past
            // the fan-in, are covered by the sync in front of their
            // sink one trip later.
            if name == "shift_bcast" && nprocs <= 4 {
                assert!(!has_collector(bottom));
                continue;
            }
            assert!(has_collector(bottom), "{name} P={nprocs}: {:?}", bottom.op);

            // The rule rides both switches: a collector is the counter
            // rule's mirror image on the pairwise bank.
            for opts in [
                OptimizeOptions {
                    use_counters: false,
                    ..OptimizeOptions::default()
                },
                OptimizeOptions {
                    use_pairwise: false,
                    ..OptimizeOptions::default()
                },
            ] {
                let ablated = optimize_with(prog, &bind, opts);
                let bottom = interior(prog, &ablated)
                    .into_iter()
                    .find(|s| s.kind == SlotKind::LoopBottom)
                    .expect("a loop-bottom site");
                assert!(bottom.op.is_barrier(), "{name} P={nprocs}: {opts:?}");
            }
        }
    }
}

/// `tomcatv_mesh`'s loop bottom was pinned by the `MAX` reduction
/// against itself one iteration later; with that pair commuting, what
/// is left is the stencil's neighbor exchange.
#[test]
fn tomcatv_mesh_keeps_no_interior_barrier() {
    let b = (suite::by_name("tomcatv_mesh").unwrap().build)(Scale::Small);
    for nprocs in [3, 4, 8, 16] {
        let bind = b.bindings(nprocs);
        let plan = optimize(&b.prog, &bind);
        let sites = interior(&b.prog, &plan);
        assert!(
            sites.iter().all(|s| !s.op.is_barrier()),
            "P={nprocs}: {sites:?}"
        );
        assert_eq!(dyn_barriers(&b.prog, &bind, &plan), 1, "P={nprocs}");
        assert!(oracle::validate(&b.prog, &bind, &plan).is_race_free());
    }
}

/// Stripping the collectors from a pairwise sync — every post, distance
/// wait and producer wait stays — is a race: the gather is necessary.
#[test]
fn removing_a_collector_is_flagged_as_a_race() {
    let mut stripped = 0;
    for (name, built) in collector_programs() {
        let (prog, bind) = (&built.prog, built.bindings(8));
        let plan = optimize(prog, &bind);
        for site in sync_sites(prog, &plan).iter().filter(|s| has_collector(s)) {
            let mutant = oracle::drop_collectors(&plan, site.id).expect("the site has collectors");
            let report = oracle::validate(prog, &bind, &mutant);
            assert!(!report.is_race_free(), "{name}: {} not flagged", site.label);
            stripped += 1;
        }
        // A slot without collectors has no such mutant.
        let end = sync_sites(prog, &plan).len() - 1;
        assert!(oracle::drop_collectors(&plan, end).is_none());
    }
    assert_eq!(stripped, 7, "one collector site per program");
}

/// `DOALL i: s = op1(s, A(i)); DOALL j: s = op2(s, B(j))`.
fn two_reductions(op1: RedOp, op2: RedOp) -> (Program, Bindings) {
    let mut pb = ProgramBuilder::new("reds");
    let n = pb.sym("n");
    let a = pb.array("A", &[sym(n)], dist_block());
    let b = pb.array("B", &[sym(n)], dist_block());
    let s = pb.scalar("s", 0.0);
    let i = pb.begin_par("i", con(0), sym(n) - 1);
    pb.reduce(svar(s), op1, arr(a, [idx(i)]));
    pb.end();
    let j = pb.begin_par("j", con(0), sym(n) - 1);
    pb.reduce(svar(s), op2, arr(b, [idx(j)]));
    pb.end();
    (pb.finish(), Bindings::new(4).set(n, 32))
}

/// The one interior site of a two-phase program.
fn between(prog: &Program, plan: &SpmdProgram) -> SyncSite {
    sync_sites(prog, plan).swap_remove(0)
}

/// The validator is not operator-blind: `s += x` racing
/// `s = MAX(s, y)` is a race, two `MAX` flushes are not — and the
/// optimizer keeps the barrier exactly where the validator needs it.
#[test]
fn reductions_commute_only_under_one_operator() {
    let (prog, bind) = two_reductions(RedOp::Add, RedOp::Max);
    let plan = optimize(&prog, &bind);
    assert!(between(&prog, &plan).op.is_barrier());
    assert!(oracle::validate(&prog, &bind, &plan).is_race_free());
    let stripped = oracle::delete(&plan, 0);
    assert!(!oracle::validate(&prog, &bind, &stripped).is_race_free());

    let (prog, bind) = two_reductions(RedOp::Max, RedOp::Max);
    let plan = optimize(&prog, &bind);
    assert_eq!(between(&prog, &plan).op, SyncOp::None);
    assert!(oracle::validate(&prog, &bind, &plan).is_race_free());
}

/// What the reduction rule must not touch: a plain read of the running
/// value, and a master-guarded reduction (a non-atomic
/// read-modify-write) ahead of a distributed one.
#[test]
fn a_read_or_a_master_reduction_keeps_the_barrier() {
    // Reduce, then read.
    let mut pb = ProgramBuilder::new("reduce_then_read");
    let n = pb.sym("n");
    let a = pb.array("A", &[sym(n)], dist_block());
    let c = pb.array("C", &[sym(n)], dist_block());
    let s = pb.scalar("s", 0.0);
    let i = pb.begin_par("i", con(0), sym(n) - 1);
    pb.reduce(svar(s), RedOp::Add, arr(a, [idx(i)]));
    pb.end();
    let j = pb.begin_par("j", con(0), sym(n) - 1);
    pb.assign(elem(c, [idx(j)]), sca(s));
    pb.end();
    let prog = pb.finish();
    let bind = Bindings::new(4).set(n, 32);
    assert!(between(&prog, &optimize(&prog, &bind)).op.is_barrier());

    // Master reduce, then distributed reduce, same operator.
    let mut pb = ProgramBuilder::new("master_then_distributed");
    let n = pb.sym("n");
    let a = pb.array("A", &[sym(n)], dist_block());
    let s = pb.scalar("s", 0.0);
    let i0 = pb.begin_par("i0", con(0), sym(n) - 1);
    pb.assign(elem(a, [idx(i0)]), ival(idx(i0)));
    pb.end();
    pb.reduce(svar(s), RedOp::Max, arr(a, [con(0)]));
    let j = pb.begin_par("j", con(0), sym(n) - 1);
    pb.reduce(svar(s), RedOp::Max, arr(a, [idx(j)]));
    pb.end();
    let prog = pb.finish();
    let bind = Bindings::new(4).set(n, 32);
    let plan = optimize(&prog, &bind);
    let after_master = &sync_sites(&prog, &plan)[1];
    assert!(after_master.op.is_barrier(), "{after_master:?}");
    assert!(oracle::validate(&prog, &bind, &plan).is_race_free());
    let stripped = oracle::delete(&plan, 1);
    assert!(!oracle::validate(&prog, &bind, &stripped).is_race_free());
}

/// Fork-join pays one barrier per parallel loop executed; merging
/// regions must never cost more than that (it did for `transpose`,
/// whose loop-bottom barrier ran once more right before the region
/// end).
#[test]
fn optimized_plans_never_execute_more_barriers_than_fork_join() {
    for def in suite::all() {
        for scale in [Scale::Test, Scale::Small] {
            let b = (def.build)(scale);
            for nprocs in [2, 4, 8] {
                let bind = b.bindings(nprocs);
                let opt = dyn_barriers(&b.prog, &bind, &optimize(&b.prog, &bind));
                let fj = dyn_barriers(&b.prog, &bind, &fork_join(&b.prog, &bind));
                assert!(
                    opt <= fj,
                    "{} {scale:?} P={nprocs}: optimized {opt} > fork-join {fj}",
                    def.name
                );
            }
        }
    }
}
