//! Criterion benches for the execution backends: virtual simulation and
//! real-thread execution of the two schedules (the per-figure speedup
//! binaries do the full sweeps; this tracks regressions), one
//! processor's work steps on their own, and the sequential reference
//! run every execution is compared against.

use criterion::{criterion_group, criterion_main, Criterion};
use interp::{run_parallel, run_sequential, run_virtual, Mem, Schedule, ScheduleOrder, Worker};
use runtime::Team;
use std::sync::Arc;
use suite::Scale;

fn bench_virtual(c: &mut Criterion) {
    let def = suite::by_name("jacobi2d").unwrap();
    let built = (def.build)(Scale::Test);
    let bind = built.bindings(4);
    let fj = spmd_opt::fork_join(&built.prog, &bind);
    let opt = spmd_opt::optimize(&built.prog, &bind);
    c.bench_function("virtual_jacobi_fork_join", |b| {
        b.iter(|| {
            let mem = Mem::new(&built.prog, &bind);
            run_virtual(&built.prog, &bind, &fj, &mem, ScheduleOrder::RoundRobin)
        })
    });
    c.bench_function("virtual_jacobi_optimized", |b| {
        b.iter(|| {
            let mem = Mem::new(&built.prog, &bind);
            run_virtual(&built.prog, &bind, &opt, &mem, ScheduleOrder::RoundRobin)
        })
    });
}

fn bench_real(c: &mut Criterion) {
    let p = std::thread::available_parallelism()
        .map(|n| n.get().min(4))
        .unwrap_or(4);
    let def = suite::by_name("jacobi2d").unwrap();
    let built = (def.build)(Scale::Small);
    let bind = Arc::new(built.bindings(p as i64));
    let prog = Arc::new(built.prog);
    let team = Team::new(p);
    let fj = spmd_opt::fork_join(&prog, &bind);
    let opt = spmd_opt::optimize(&prog, &bind);
    c.bench_function("real_jacobi_fork_join", |b| {
        b.iter(|| {
            let mem = Arc::new(Mem::new(&prog, &bind));
            run_parallel(&prog, &bind, &fj, &mem, &team)
        })
    });
    c.bench_function("real_jacobi_optimized", |b| {
        b.iter(|| {
            let mem = Arc::new(Mem::new(&prog, &bind));
            run_parallel(&prog, &bind, &opt, &mem, &team)
        })
    });
}

/// `run_sequential` (resolve, then walk; a fresh memory per call, its
/// allocation included) of two `Scale::Full` kernels re-bound to a few
/// milliseconds each: jacobi2d's 5-point sweep over 128 × 128 for 4
/// steps, stencil3d's 7-point sweep over 24³ for 3.
fn bench_oracle(c: &mut Criterion) {
    let mut group = c.benchmark_group("oracle");
    for (name, sizes) in [
        ("jacobi2d", [("n", 128), ("tmax", 4)]),
        ("stencil3d", [("n", 24), ("tmax", 3)]),
    ] {
        let built = (suite::by_name(name).unwrap().build)(Scale::Full);
        let mut bind = built.bindings(2);
        for (sym, v) in sizes {
            let id = built.prog.syms.iter().position(|s| s.name == sym).unwrap();
            bind.bind(ir::SymId(id as u32), v);
        }
        group.bench_function(format!("run_sequential_{name}"), |b| {
            b.iter(|| {
                let mem = Mem::new(&built.prog, &bind);
                run_sequential(&built.prog, &bind, &mem);
                mem
            })
        });
    }
    group.finish();
}

/// P0's share of every work step of a fine-grain plan at P = 4,
/// `tmax` = 250, walked by a fresh cursor with its syncs passed by.
/// copy_chain's optimized plan has 1 001 work steps: at n = 8 two
/// elements per step, so what shows is the fixed cost of a step; at
/// n = 1024, 256 elements per step. Divide a sample by 1 001 for the
/// time per work step, and the difference of the two by 254 × 1 001
/// for the time per element. redblack at half = 8 (two elements, four
/// accesses per step) and livermore7 at n = 16 (four elements, ten
/// accesses in its first loop) each have 501 work steps.
fn bench_work_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("work_steps");
    for (name, size, v) in [
        ("copy_chain", "n", 8),
        ("copy_chain", "n", 1024),
        ("redblack", "half", 8),
        ("livermore7", "n", 16),
    ] {
        let built = (suite::by_name(name).unwrap().build)(Scale::Small);
        let mut bind = built.bindings(4);
        for (sym, v) in [(size, v), ("tmax", 250)] {
            let id = built.prog.syms.iter().position(|s| s.name == sym).unwrap();
            bind.bind(ir::SymId(id as u32), v);
        }
        let plan = spmd_opt::optimize(&built.prog, &bind);
        let sched = Schedule::new(&built.prog, &bind, &plan);
        let mem = Mem::new(&built.prog, &bind);
        let mut worker = Worker::new(&sched, &mem, 0);
        group.bench_function(format!("{name}_{size}{v}"), |b| {
            b.iter(|| worker.exec_all())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_virtual, bench_real, bench_work_steps, bench_oracle
}
criterion_main!(benches);
