//! Criterion benches for the optimizer itself: how long the greedy
//! elimination takes per kernel (the paper notes its incremental greedy
//! algorithm is cheaper than all-pairs approaches), and what the
//! Fourier–Motzkin memo buys over a whole suite pass.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
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
    targets = bench_optimize, bench_dependence_check, bench_suite_memo
}
criterion_main!(benches);
