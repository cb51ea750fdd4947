//! Symbolic-sizes mode: the optimizer produces the same schedule shape
//! with *unbound* problem sizes — the "systems of symbolic linear
//! inequalities" capability of the paper's title. (Execution still needs
//! concrete sizes; these tests check the static plans.)

use barrier_elim::analysis::{Bindings, CommMode, CommPattern, CommQuery};
use barrier_elim::ir::SymId;
use barrier_elim::spmd_opt::optimize;
use barrier_elim::suite::{self, Scale};

/// Kernels whose plans must be identical with and without size bindings
/// (block distributions + offsets within ±1 → the symbolic structural
/// path decides everything the concrete FME path decides).
const SYMBOLIC_CLEAN: &[&str] = &[
    "jacobi2d",
    "copy_chain",
    "stencil3d",
    "shallow",
    "livermore18",
    "seidel_pipe",
];

/// Kernels whose symbolic plan keeps neighbor flags in front of a sweep
/// loop that the concrete plan drops: the sweep's own bottom serves
/// every trip but the first, and that the first trip stays inside one
/// block takes a block size of at least two — which no binding means
/// no proof of. Everything else is identical.
const SYMBOLIC_FIRST_TRIP: &[&str] = &["adi", "erlebacher", "pipeline"];

#[test]
fn plans_match_concrete_plans_without_bindings() {
    for name in SYMBOLIC_CLEAN {
        let def = suite::by_name(name).unwrap();
        let built = (def.build)(Scale::Test);
        let concrete = built.bindings(4);
        let symbolic = Bindings::new(4); // nothing bound
        let st_c = optimize(&built.prog, &concrete).static_stats();
        let st_s = optimize(&built.prog, &symbolic).static_stats();
        assert_eq!(
            st_c, st_s,
            "{name}: symbolic plan differs from concrete plan"
        );
    }
    for name in SYMBOLIC_FIRST_TRIP {
        let built = match suite::by_name(name) {
            Some(def) => (def.build)(Scale::Test),
            None => {
                let src = std::fs::read_to_string(format!("kernels/{name}.be")).unwrap();
                let prog = barrier_elim::frontend::parse(&src).unwrap();
                let values = (0..prog.syms.len() as u32)
                    .map(|k| (SymId(k), 12))
                    .collect();
                suite::Built { prog, values }
            }
        };
        let st_c = optimize(&built.prog, &built.bindings(4)).static_stats();
        let mut st_s = optimize(&built.prog, &Bindings::new(4)).static_stats();
        let kept = st_c.eliminated - st_s.eliminated;
        assert!(kept > 0, "{name}: {st_c:?} vs {st_s:?}");
        st_s.eliminated += kept;
        st_s.neighbor_syncs -= kept;
        assert_eq!(st_c, st_s, "{name}: more than first-trip flags differ");
    }
}

#[test]
fn symbolic_stencil_classifies_as_neighbor() {
    use barrier_elim::ir::build::*;
    let mut pb = ProgramBuilder::new("sym_stencil");
    let n = pb.sym("n");
    let a = pb.array("A", &[sym(n)], dist_block());
    let b = pb.array("B", &[sym(n)], dist_block());
    let i = pb.begin_par("i", con(0), sym(n) - 1);
    pb.assign(elem(a, [idx(i)]), ival(idx(i)).sin());
    pb.end();
    let j = pb.begin_par("j", con(1), sym(n) - 2);
    pb.assign(
        elem(b, [idx(j)]),
        arr(a, [idx(j) - 1]) + arr(a, [idx(j) + 1]),
    );
    pb.end();
    let prog = pb.finish();
    // No value for n at all.
    let q = CommQuery::new(&prog, Bindings::new(8));
    let st = prog.all_statements();
    assert_eq!(
        q.comm_stmts(&st[0], &st[1], CommMode::LoopIndependent),
        CommPattern::Neighbor {
            fwd: true,
            bwd: true
        }
    );
}

#[test]
fn symbolic_aligned_access_is_local() {
    use barrier_elim::ir::build::*;
    let mut pb = ProgramBuilder::new("sym_aligned");
    let n = pb.sym("n");
    let a = pb.array("A", &[sym(n)], dist_block());
    let b = pb.array("B", &[sym(n)], dist_block());
    let i = pb.begin_par("i", con(0), sym(n) - 1);
    pb.assign(elem(a, [idx(i)]), ival(idx(i)).sin());
    pb.end();
    let j = pb.begin_par("j", con(0), sym(n) - 1);
    pb.assign(elem(b, [idx(j)]), arr(a, [idx(j)]));
    pb.end();
    let prog = pb.finish();
    let q = CommQuery::new(&prog, Bindings::new(8));
    let st = prog.all_statements();
    assert_eq!(
        q.comm_stmts(&st[0], &st[1], CommMode::LoopIndependent),
        CommPattern::NoComm
    );
}

#[test]
fn symbolic_long_shift_stays_general() {
    // Offset 5 could cross more than one boundary when the (unknown)
    // block size is small: must stay General symbolically even though a
    // large concrete n would classify it as Neighbor.
    use barrier_elim::ir::build::*;
    let mut pb = ProgramBuilder::new("sym_far");
    let n = pb.sym("n");
    let a = pb.array("A", &[sym(n) + 5], dist_block());
    let b = pb.array("B", &[sym(n) + 5], dist_block());
    let i = pb.begin_par("i", con(0), sym(n) - 1);
    pb.assign(elem(a, [idx(i)]), ival(idx(i)).sin());
    pb.end();
    let j = pb.begin_par("j", con(0), sym(n) - 1);
    pb.assign(elem(b, [idx(j)]), arr(a, [idx(j) + 5]));
    pb.end();
    let prog = pb.finish();
    let q = CommQuery::new(&prog, Bindings::new(8));
    let st = prog.all_statements();
    assert_eq!(
        q.comm_stmts(&st[0], &st[1], CommMode::LoopIndependent),
        CommPattern::General
    );
    // With a concrete (large) size the same access is neighbor-reachable.
    let sym_n = barrier_elim::ir::SymId(0);
    let qc = CommQuery::new(&prog, Bindings::new(8).set(sym_n, 1024));
    assert_eq!(
        qc.comm_stmts(&st[0], &st[1], CommMode::LoopIndependent),
        // The consumer reads a higher-owned element: data flows downward.
        CommPattern::Neighbor {
            fwd: false,
            bwd: true
        }
    );
}

#[test]
fn different_symbolic_extents_stay_conservative() {
    use barrier_elim::ir::build::*;
    let mut pb = ProgramBuilder::new("sym_mixed");
    let n = pb.sym("n");
    let m = pb.sym("m");
    let a = pb.array("A", &[sym(n)], dist_block());
    let b = pb.array("B", &[sym(m)], dist_block());
    let i = pb.begin_par("i", con(0), sym(n) - 1);
    pb.assign(elem(a, [idx(i)]), ival(idx(i)).sin());
    pb.end();
    let j = pb.begin_par("j", con(0), sym(n) - 1);
    pb.assign(elem(b, [idx(j)]), arr(a, [idx(j)]));
    pb.end();
    let prog = pb.finish();
    let q = CommQuery::new(&prog, Bindings::new(8));
    let st = prog.all_statements();
    // Owner functions may differ (different block sizes): conservative.
    assert_eq!(
        q.comm_stmts(&st[0], &st[1], CommMode::LoopIndependent),
        CommPattern::General
    );
}
