//! Every suite kernel builds, validates, passes the dependence test and
//! gets the plan shape its header comment promises (at `Scale::Test`,
//! P = 4 unless a row says otherwise).

use spmd_opt::{PhaseKind, RItem, SlotKind, SpmdProgram, StaticStats, SyncOp, TopItem};
use suite::{Built, Scale};

#[test]
fn all_benchmarks_build_and_validate_at_test_scale() {
    for b in suite::all() {
        let built = (b.build)(Scale::Test);
        let problems = built.prog.validate();
        assert!(problems.is_empty(), "{}: {problems:?}", b.name);
        assert!(
            !built.prog.parallel_loops().is_empty(),
            "{} has no parallel loops",
            b.name
        );
    }
}

#[test]
fn all_parallel_markings_pass_the_dependence_test() {
    for b in suite::all() {
        let built = (b.build)(Scale::Test);
        let bind = built.bindings(4);
        let bad = analysis::check_parallel_loops(&built.prog, &bind);
        assert!(
            bad.is_empty(),
            "{}: loops carry dependences: {bad:?}",
            b.name
        );
    }
}

#[test]
fn names_are_unique() {
    let names: Vec<_> = suite::all().iter().map(|b| b.name).collect();
    let mut dedup = names.clone();
    dedup.sort();
    dedup.dedup();
    assert_eq!(names.len(), dedup.len());
}

#[test]
fn by_name_finds_each() {
    for b in suite::all() {
        assert!(suite::by_name(b.name).is_some());
    }
    assert!(suite::by_name("nonexistent").is_none());
}

fn plan(built: &Built, nprocs: i64) -> SpmdProgram {
    spmd_opt::optimize(&built.prog, &built.bindings(nprocs))
}

/// The wait sets of a plan's sync sites, optionally of one slot kind.
fn waits(built: &Built, plan: &SpmdProgram, kind: Option<SlotKind>) -> Vec<analysis::WaitSet> {
    spmd_opt::sync_sites(&built.prog, plan)
        .iter()
        .filter(|s| kind.is_none_or(|k| s.kind == k))
        .filter_map(|s| s.op.waits().cloned())
        .collect()
}

/// The items of each SPMD region of a plan.
fn regions(plan: &SpmdProgram) -> impl Iterator<Item = &[RItem]> {
    plan.items.iter().filter_map(|item| match item {
        TopItem::Region(r) => Some(&r.items[..]),
        _ => None,
    })
}

/// The bottom syncs of every sequential loop inside a region.
fn seq_bottoms(plan: &SpmdProgram) -> Vec<SyncOp> {
    fn walk(items: &[RItem], out: &mut Vec<SyncOp>) {
        for it in items {
            if let RItem::Seq { body, bottom, .. } = it {
                out.push(bottom.clone());
                walk(body, out);
            }
        }
    }
    let mut out = Vec::new();
    for items in regions(plan) {
        walk(items, &mut out);
    }
    out
}

fn has_replicated_phase(plan: &SpmdProgram) -> bool {
    fn walk(items: &[RItem]) -> bool {
        items.iter().any(|it| match it {
            RItem::Phase(p) => matches!(p.kind, PhaseKind::Replicated),
            RItem::Seq { body, .. } => walk(body),
        })
    }
    regions(plan).any(walk)
}

/// One row per kernel: every assertion its builder module's tests made.
#[test]
fn every_kernel_gets_its_plan_shape() {
    for def in suite::all() {
        let built = (def.build)(Scale::Test);
        let bind = built.bindings(4);
        let p4 = plan(&built, 4);
        let st: StaticStats = p4.static_stats();
        let fj = spmd_opt::fork_join(&built.prog, &bind).static_stats();
        let ctx = format!("{}: {st:?} vs fork-join {fj:?}", def.name);
        match def.name {
            "jacobi2d" | "stencil3d" | "livermore7" => {
                assert_eq!(st.regions, 1, "{ctx}");
                assert_eq!(st.barriers, 1, "{ctx}");
                assert!(st.neighbor_syncs >= 1, "{ctx}");
            }
            "copy_chain" => {
                assert_eq!(st.regions, 1, "{ctx}");
                assert_eq!(st.barriers, 1, "{ctx}");
                assert_eq!(st.neighbor_syncs, 0, "{ctx}");
                assert_eq!(st.counter_syncs, 0, "{ctx}");
                // 4 loops in the time step: 3 interior slots + bottom +
                // the init->sweep slot, all eliminated.
                assert!(st.eliminated >= 4, "{ctx}");
            }
            "redblack" | "fdtd" | "livermore18" | "mgrid" => {
                // mgrid: the stride-2 restrict/prolongate slots are
                // neighbor or eliminated, never barriers.
                assert_eq!(st.regions, 1, "{ctx}");
                assert_eq!(st.barriers, 1, "{ctx}");
                assert!(st.neighbor_syncs >= 2, "{ctx}");
            }
            "shallow" => {
                assert_eq!(st.regions, 1, "{ctx}");
                assert_eq!(st.barriers, 1, "{ctx}");
                assert!(st.neighbor_syncs >= 2, "{ctx}");
                // Baseline: 3 barriers per step + init.
                assert_eq!(fj.barriers, 4, "{ctx}");
            }
            "cg_dense" => {
                assert!(st.eliminated >= 1, "{ctx}");
                assert!(st.barriers >= 2, "reductions keep barriers: {ctx}");
                assert!(st.barriers < fj.barriers, "{ctx}");
            }
            "tomcatv_mesh" => {
                assert_eq!(st.barriers, 1, "only the region end: {ctx}");
                assert_eq!(st.neighbor_syncs, 4, "{ctx}");
            }
            "adi" => {
                assert_eq!(st.regions, 1, "{ctx}");
                assert!(st.neighbor_syncs >= 1, "{ctx}");
                // The inner i2 sequential loop's bottom sync is a
                // neighbor op, not a barrier.
                let bottoms = seq_bottoms(&p4);
                assert!(
                    bottoms
                        .iter()
                        .any(|b| matches!(b.class(), Some(analysis::CommPattern::Neighbor { .. }))),
                    "expected a pipelined bottom sync, got {bottoms:?}"
                );
            }
            "erlebacher" => {
                assert_eq!(st.regions, 1, "{ctx}");
                assert!(st.neighbor_syncs >= 2, "{ctx}");
                // Fork-join executes a barrier per inner-iteration phase.
                assert!(st.barriers < fj.barriers + 2, "{ctx}");
            }
            "lu" => {
                assert_eq!(st.regions, 1, "{ctx}");
                assert!(st.counter_syncs >= 1, "{ctx}");
                // Fork-join pays 2 barriers per outer iteration.
                assert!(st.barriers <= fj.barriers, "{ctx}");
            }
            "tred2" => {
                assert!(st.barriers >= 1, "{ctx}");
                assert!(st.barriers <= fj.barriers, "{ctx}");
                assert_eq!(st.regions, 1, "{ctx}");
                assert!(fj.regions > 1, "{ctx}");
            }
            "matmul" => {
                assert_eq!(st.regions, 1, "{ctx}");
                assert!(st.eliminated >= 2, "{ctx}");
                assert!(st.barriers < fj.barriers, "{ctx}");
            }
            "seidel_pipe" => {
                assert_eq!(st.regions, 1, "{ctx}");
                assert!(st.neighbor_syncs >= 1, "{ctx}");
                // Fork-join pays one barrier per row per time step at
                // run time; the optimized schedule pays at most the
                // region-end barrier.
                assert!(st.barriers <= 2, "{ctx}");
            }
            "wavepipe2d" | "multihop" => {
                assert_eq!(st.regions, 1, "{ctx}");
                // Out of neighbor-flag reach: the carried distance is 2
                // (wavepipe2d); multihop's inter-phase shift (+2) and
                // carried anti dependence (-2) are pairwise distances.
                let pairs = if def.name == "multihop" { 2 } else { 1 };
                assert!(st.pair_syncs >= pairs, "{ctx}");
                assert_eq!(st.neighbor_syncs, 0, "{ctx}");
                assert!(st.barriers <= 2, "{ctx}");
            }
            "trisolve_pipe" => {
                assert_eq!(st.regions, 1, "{ctx}");
                assert!(st.pair_syncs >= 1, "{ctx}");
                assert!(st.barriers <= 2, "{ctx}");
            }
            "shift_bcast" => {
                assert_eq!(st.regions, 1, "{ctx}");
                assert!(st.pair_syncs >= 1, "{ctx}");
                // At P = 4 the carried anti dependence on B(0) has the
                // distances {-3,-2,-1}; joined with the shift's +-1 and
                // the producer the wait set is wider than the pairwise
                // fan-in budget, so that barrier stays; the inter-phase
                // spurious barrier is the one that must be gone.
                assert!(st.barriers <= 2, "{ctx}");
                // The fused wait set carries the shift distance and the
                // owner of the broadcast element, also at eight
                // processors, where the broadcast's seven owner
                // distances alone would overflow the fan-in.
                for nprocs in [4, 8] {
                    let found = waits(&built, &plan(&built, nprocs), None)
                        .iter()
                        .any(|w| w.dists.contains(1) && w.producers.len() == 1);
                    assert!(found, "P={nprocs}: no fused site with +1 and one producer");
                }
                // At P = 8 the loop bottom is one pairwise sync too: the
                // shift back and the collector, the owner of B(0).
                let p8 = plan(&built, 8);
                assert_eq!(p8.static_stats().barriers, 1, "only the region end");
                let found = waits(&built, &p8, Some(SlotKind::LoopBottom))
                    .iter()
                    .any(|w| {
                        !w.dists.contains(1)
                            && w.dists.contains(-1)
                            && w.producers.is_empty()
                            && w.collectors.len() == 1
                    });
                assert!(found, "no collector at the loop bottom");
            }
            "pivot_shift" => {
                assert_eq!(st.regions, 1, "{ctx}");
                assert!(st.pair_syncs >= 1, "{ctx}");
                // The per-step inter-phase barrier is gone.
                assert!(st.barriers <= 1, "{ctx}");
                // The fused wait set names the +1 shift distance and
                // the pivot row's owner as a producer.
                let found = waits(&built, &p4, None)
                    .iter()
                    .any(|w| w.dists.contains(1) && !w.producers.is_empty());
                assert!(found, "no fused pairwise site with dist +1 and a producer");
            }
            "workvec" => {
                // The gather loop is replicated, and a shared work
                // vector (the same source with `repl` for `private`)
                // needs more barriers.
                assert!(
                    has_replicated_phase(&p4),
                    "gather loop should be replicated"
                );
                let src = include_str!("../../../kernels/suite/workvec.be").replacen(
                    "array D(n) private",
                    "array D(n) repl",
                    1,
                );
                let shared = Built {
                    prog: ir::text::parse(&src).unwrap(),
                    values: built.values.clone(),
                };
                let st_s = plan(&shared, 4).static_stats();
                assert!(
                    st.barriers < st_s.barriers,
                    "private {st:?} vs shared {st_s:?}"
                );
            }
            "transpose" => {
                // The transpose -> scale barrier and the carried barrier
                // survive (all-to-all movement).
                assert!(st.barriers >= 2, "{ctx}");
                assert_eq!(st.neighbor_syncs, 0, "{ctx}");
            }
            other => panic!("{other} has no row in this table"),
        }
    }
}
