//! Full text-to-execution pipeline: parse the shipped `.be` kernels,
//! optimize, and verify under adversarial virtual interleavings.

use barrier_elim::analysis::Bindings;
use barrier_elim::frontend;
use barrier_elim::interp::{run_sequential, run_virtual, Mem, ScheduleOrder};
use barrier_elim::ir::SymId;
use barrier_elim::spmd_opt::{fork_join, optimize};

fn bind_by_name(prog: &barrier_elim::ir::Program, nprocs: i64, sets: &[(&str, i64)]) -> Bindings {
    let mut b = Bindings::new(nprocs);
    for (name, v) in sets {
        let pos = prog
            .syms
            .iter()
            .position(|s| &s.name == name)
            .unwrap_or_else(|| panic!("sym {name} missing"));
        b.bind(SymId(pos as u32), *v);
    }
    b
}

fn check(src_path: &str, sets: &[(&str, i64)]) {
    let src = std::fs::read_to_string(src_path).unwrap();
    let prog = frontend::parse(&src).unwrap_or_else(|e| panic!("{src_path}: {e}"));
    assert!(prog.validate().is_empty(), "{src_path}");
    for nprocs in [2i64, 4, 8] {
        let bind = bind_by_name(&prog, nprocs, sets);
        assert!(
            barrier_elim::analysis::check_parallel_loops(&prog, &bind).is_empty(),
            "{src_path}: invalid doall"
        );
        let oracle = Mem::new(&prog, &bind);
        run_sequential(&prog, &bind, &oracle);
        for plan in [fork_join(&prog, &bind), optimize(&prog, &bind)] {
            for order in [
                ScheduleOrder::RoundRobin,
                ScheduleOrder::Reverse,
                ScheduleOrder::Random(11),
            ] {
                let mem = Mem::new(&prog, &bind);
                run_virtual(&prog, &bind, &plan, &mem, order);
                assert_eq!(
                    mem.max_abs_diff(&oracle),
                    0.0,
                    "{src_path} P={nprocs} {order:?}"
                );
            }
        }
    }
}

#[test]
fn jacobi_kernel_file() {
    check("kernels/jacobi.be", &[("n", 48), ("tmax", 4)]);
}

#[test]
fn pipeline_kernel_file() {
    check("kernels/pipeline.be", &[("n", 16), ("tmax", 3)]);
}

#[test]
fn broadcast_kernel_file() {
    check("kernels/broadcast.be", &[("n", 12)]);
}

#[test]
fn shallow_kernel_file() {
    check("kernels/shallow.be", &[("n", 12), ("tmax", 2)]);
}

#[test]
fn private_gather_kernel_file() {
    check("kernels/private_gather.be", &[("n", 10)]);
}

#[test]
fn parsed_and_dsl_jacobi_agree() {
    // The .be jacobi and a DSL-built equivalent produce identical plans
    // (same static stats) and identical results.
    use barrier_elim::ir::build::*;
    let src = std::fs::read_to_string("kernels/jacobi.be").unwrap();
    let parsed = frontend::parse(&src).unwrap();

    let mut pb = ProgramBuilder::new("jacobi");
    let n = pb.sym("n");
    let tmax = pb.sym("tmax");
    let a = pb.array("A", &[sym(n)], dist_block());
    let b = pb.array("B", &[sym(n)], dist_block());
    let i0 = pb.begin_par("i0", con(0), sym(n) - 1);
    pb.assign(elem(a, [idx(i0)]), ival(idx(i0)).sin());
    pb.end();
    let _t = pb.begin_seq("t", con(0), sym(tmax) - 1);
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
    let dsl = pb.finish();

    let bind_p = bind_by_name(&parsed, 4, &[("n", 32), ("tmax", 3)]);
    let bind_d = Bindings::new(4).set(n, 32).set(tmax, 3);
    let st_p = optimize(&parsed, &bind_p).static_stats();
    let st_d = optimize(&dsl, &bind_d).static_stats();
    assert_eq!(st_p, st_d);

    let m1 = Mem::new(&parsed, &bind_p);
    run_sequential(&parsed, &bind_p, &m1);
    let m2 = Mem::new(&dsl, &bind_d);
    run_sequential(&dsl, &bind_d, &m2);
    assert_eq!(m1.checksum(), m2.checksum());
}

mod cli {
    /// Bindings `beopt` cannot compile or allocate under are refused in
    /// one line before anything runs — never by a panic (exit 101).
    #[test]
    fn unusable_bindings_are_refused_not_panicked_on() {
        for (nprocs, n, run, what) in [
            ("0", "n=4", false, "--nprocs 0: need at least one processor"),
            ("4", "n=-1", false, "array A: extent -1 is negative"),
            (
                "4",
                "n=9223372036854775807",
                true,
                "--run: arrays too large to allocate",
            ),
        ] {
            let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_beopt"));
            cmd.args(["kernels/jacobi.be", "--set", "tmax=2", "--set", n]);
            cmd.args(["--nprocs", nprocs]).args(run.then_some("--run"));
            let out = cmd.output().expect("spawn beopt");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "P={nprocs} {n}: {stderr}");
            assert_eq!(stderr.trim_end(), format!("beopt: {what}"));
            assert!(out.stdout.is_empty(), "refused before anything is printed");
        }
    }

    /// A source the IR builder would panic on is a parse error naming
    /// its line: exit 1, not 101.
    #[test]
    fn a_malformed_source_is_refused_not_panicked_on() {
        let path = std::env::temp_dir().join(format!("beopt-bad-{}.be", std::process::id()));
        let src = "program p\nsym n\narray A(n) block\ndoall i = 0, n-1\n  A(4611686018427387904*2*i) = 1.0\nend\n";
        std::fs::write(&path, src).unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_beopt"))
            .arg(&path)
            .args(["--set", "n=4"])
            .output()
            .expect("spawn beopt");
        std::fs::remove_file(&path).unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(
            stderr.ends_with("line 5: affine expression overflows a 64-bit integer\n"),
            "{stderr}"
        );
    }
}
