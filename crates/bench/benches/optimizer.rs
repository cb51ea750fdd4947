//! Criterion benches for the optimizer itself: how long the greedy
//! elimination takes per kernel (the paper notes its incremental greedy
//! algorithm is cheaper than all-pairs approaches), what one access
//! pair's system and probe cost, and what the Fourier–Motzkin memo buys
//! over a whole suite pass.

use analysis::translate::{build_pair_system, SharedLoopMode};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ineq::LinExpr;
use spmd_opt::{optimize_explained, optimize_explained_shared, AnalysisConfig, OptimizeOptions};
use std::sync::Arc;
use suite::Scale;

fn bench_optimize(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimize");
    for name in ["jacobi2d", "shallow", "lu", "tred2", "adi"] {
        let def = suite::by_name(name).unwrap();
        let built = (def.build)(Scale::Small);
        let bind = built.bindings(8);
        group.bench_with_input(BenchmarkId::from_parameter(name), &name, |b, _| {
            b.iter(|| spmd_opt::optimize(&built.prog, &bind))
        });
    }
    group.finish();
}

fn bench_dependence_check(c: &mut Criterion) {
    let def = suite::by_name("shallow").unwrap();
    let built = (def.build)(Scale::Small);
    let bind = built.bindings(8);
    c.bench_function("check_parallel_loops_shallow", |b| {
        b.iter(|| analysis::check_parallel_loops(&built.prog, &bind))
    });
}

/// The analysis inner loop on one jacobi2d access pair at P = 8: the
/// stencil's read of `A(i-1, j)` against the copy-back's write of
/// `A(i2, j2)`. `build_pair_system` builds its system with the element
/// equality, as each access pair the facts table has not seen does;
/// `probe` is one uncached step-1 probe (`q - p >= 1`) on it, after a
/// first probe has propagated the base and grown the scratch.
fn bench_pair_system(c: &mut Criterion) {
    let def = suite::by_name("jacobi2d").unwrap();
    let (built, bind) = spmd_bench::instance(&def, Scale::Small, 8);
    let st = built.prog.all_statements();
    let (sweep, copy) = (&st[2], &st[3]);
    let (reads, _) = analysis::comm::stmt_accesses(&built.prog, sweep.node);
    let (writes, _) = analysis::comm::stmt_accesses(&built.prog, copy.node);
    let build = || {
        let mode = SharedLoopMode::SameIteration;
        let mut ps = build_pair_system(&built.prog, &bind, sweep, copy, mode);
        ps.add_elem_equality(&bind, &reads[1].subs, &writes[0].subs);
        ps
    };
    let ps = build();
    let (p, q) = (ps.p, ps.q);
    let step1 =
        || ps.feasible_with(|s| s.add_ge(LinExpr::var(q) - LinExpr::var(p) - LinExpr::constant(1)));
    assert!(!step1(), "the stencil reads one row block down only");
    let mut group = c.benchmark_group("fme");
    group.bench_function("build_pair_system", |b| b.iter(|| black_box(build())));
    group.bench_function("probe", |b| b.iter(|| black_box(step1())));
    group.finish();
}

/// One compile of every suite kernel at P = 8, three ways: no memo,
/// the default memo (cold, one per compile), and one memo shared by the
/// whole pass that an earlier pass already filled. `uncached` over the
/// other two is what the memo buys cold and warm.
fn bench_suite_memo(c: &mut Criterion) {
    let instances: Vec<_> = suite::all()
        .iter()
        .map(|def| {
            let (built, bind) = spmd_bench::instance(def, Scale::Small, 8);
            (built.prog, bind)
        })
        .collect();
    let uncached = OptimizeOptions {
        analysis: AnalysisConfig::sequential_uncached(),
        ..Default::default()
    };
    let memo = OptimizeOptions::default();
    let warm = Arc::new(ineq::FmeCache::new());
    for (prog, bind) in &instances {
        optimize_explained_shared(prog, bind, memo, &warm);
    }
    let mut group = c.benchmark_group("suite_p8");
    for (label, opts) in [("uncached", uncached), ("cold_memo", memo)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                for (prog, bind) in &instances {
                    black_box(optimize_explained(prog, bind, opts));
                }
            })
        });
    }
    group.bench_function("warm_shared_memo", |b| {
        b.iter(|| {
            for (prog, bind) in &instances {
                black_box(optimize_explained_shared(prog, bind, memo, &warm));
            }
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_optimize, bench_dependence_check, bench_pair_system, bench_suite_memo
}
criterion_main!(benches);
