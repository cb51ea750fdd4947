//! End-to-end soundness: for every benchmark kernel and several
//! processor counts, the optimized SPMD schedule must reproduce the
//! sequential semantics under adversarial virtual interleavings.

use barrier_elim::interp::{run_sequential, run_virtual, Mem, ScheduleOrder};
use barrier_elim::spmd_opt::{fork_join, optimize};
use barrier_elim::suite::{self, Scale};

/// Maximum tolerated divergence: reductions may reassociate, everything
/// else must match exactly.
const TOL: f64 = 1e-9;

fn check_kernel(name: &str, nprocs: i64) {
    let def = suite::by_name(name).unwrap();
    let built = (def.build)(Scale::Test);
    let bind = built.bindings(nprocs);
    let oracle = Mem::new(&built.prog, &bind);
    run_sequential(&built.prog, &bind, &oracle);

    for (label, plan) in [
        ("fork-join", fork_join(&built.prog, &bind)),
        ("optimized", optimize(&built.prog, &bind)),
    ] {
        for order in [
            ScheduleOrder::RoundRobin,
            ScheduleOrder::Reverse,
            ScheduleOrder::Random(7),
            ScheduleOrder::Random(1234),
        ] {
            let mem = Mem::new(&built.prog, &bind);
            run_virtual(&built.prog, &bind, &plan, &mem, order);
            let diff = mem.max_abs_diff(&oracle);
            assert!(
                diff <= TOL,
                "{name} ({label}, P={nprocs}, {order:?}): diverged by {diff:e}"
            );
        }
    }
}

macro_rules! kernel_tests {
    ($($name:ident),* $(,)?) => {
        $(
            mod $name {
                #[test]
                fn p1() { super::check_kernel(stringify!($name), 1); }
                #[test]
                fn p3() { super::check_kernel(stringify!($name), 3); }
                #[test]
                fn p4() { super::check_kernel(stringify!($name), 4); }
                #[test]
                fn p8() { super::check_kernel(stringify!($name), 8); }
            }
        )*
    };
}

kernel_tests!(
    jacobi2d,
    copy_chain,
    stencil3d,
    redblack,
    shallow,
    fdtd,
    cg_dense,
    tomcatv_mesh,
    livermore7,
    livermore18,
    adi,
    erlebacher,
    lu,
    tred2,
    matmul,
    mgrid,
    seidel_pipe,
    workvec,
    transpose,
);

/// Regression, on `DO k { DO m { DOALL j: A(m,j) = .. } ; DOALL i { DO
/// jj: B(i,jj) = A(jj,i) + B(i,jj) } }` with block rows, where each
/// `DOALL j` runs on `owner(m)` alone: the slot after `DO m` used to get
/// a counter whose producer was "block owner of [m]" — a loop with no
/// value there, which the unroller read as 0 — so every consumer waited
/// on P0 alone while all owners had written.
#[test]
fn no_producer_is_named_after_a_loop_nested_inside_the_sync_site() {
    use barrier_elim::ir::build::dist_block;
    let (prog, n, tmax) =
        barrier_elim::oracle::gen::nested_broadcast_program(dist_block(), 1.0, 1.0);
    for nprocs in [2, 4, 8] {
        let bind = barrier_elim::analysis::Bindings::new(nprocs)
            .set(n, 16)
            .set(tmax, 3);
        let plan = optimize(&prog, &bind);
        let races = barrier_elim::oracle::validate(&prog, &bind, &plan);
        assert!(
            races.is_race_free(),
            "P={nprocs}: {} racing pairs, first: {:?}",
            races.num_racing_pairs,
            races.races.first()
        );
        let oracle = Mem::new(&prog, &bind);
        run_sequential(&prog, &bind, &oracle);
        for order in [
            ScheduleOrder::RoundRobin,
            ScheduleOrder::Reverse,
            ScheduleOrder::Random(3),
        ] {
            let mem = Mem::new(&prog, &bind);
            run_virtual(&prog, &bind, &plan, &mem, order);
            let diff = mem.max_abs_diff(&oracle);
            assert!(diff == 0.0, "P={nprocs}, {order:?}: diverged by {diff:e}");
        }
    }
}
