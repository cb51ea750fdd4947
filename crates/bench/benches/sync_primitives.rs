//! Criterion benches for the synchronization primitives (feeds the
//! barrier-cost motivation figure): central barrier, tree barrier, and
//! the post cells read as a counter handoff and as a neighbor
//! exchange, at several team sizes. The
//! central barrier is also timed under a watchdog deadline (the wait the
//! fault-tolerant executor runs) and bracketed by profiler events (what
//! an observed run records per sync visit). A team wider than the host
//! times the scheduler, not the primitive.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use runtime::events::{EventKind, ProfileOptions, Profiler};
use runtime::{BarrierEpoch, CellBank, CentralBarrier, Team, TreeBarrier, Watchdog};
use std::sync::Arc;
use std::time::Duration;

const ROUNDS: u64 = 1000;

fn bench_barriers(c: &mut Criterion) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut group = c.benchmark_group("barrier");
    for p in [2usize, 4, cores.min(8)] {
        let team = Team::new(p);
        let central = Arc::new(CentralBarrier::new(p));
        group.bench_with_input(BenchmarkId::new("central", p), &p, |b, _| {
            b.iter(|| {
                let bb = Arc::clone(&central);
                team.run(move |_| {
                    let mut sense = BarrierEpoch::default();
                    for _ in 0..ROUNDS {
                        bb.wait(&mut sense);
                    }
                });
            })
        });
        // A deadline that never fires: only the guard's bookkeeping is timed.
        let watchdog = Arc::new(Watchdog::new(Duration::from_secs(30)));
        group.bench_with_input(BenchmarkId::new("central_guarded", p), &p, |b, _| {
            b.iter(|| {
                let bb = Arc::clone(&central);
                let wd = Arc::clone(&watchdog);
                team.run(move |pid| {
                    let mut sense = BarrierEpoch::default();
                    for _ in 0..ROUNDS {
                        bb.wait_until(&mut sense, &wd, 0, pid).unwrap();
                    }
                });
            })
        });
        // One ring set for every sample: a full ring overwrites its
        // oldest slot, so a push costs the same before and after it wraps.
        let profiler = Arc::new(Profiler::new(p, ProfileOptions::default()));
        group.bench_with_input(BenchmarkId::new("central_profiled", p), &p, |b, _| {
            b.iter(|| {
                let bb = Arc::clone(&central);
                let pr = Arc::clone(&profiler);
                team.run(move |pid| {
                    let mut sense = BarrierEpoch::default();
                    for k in 0..ROUNDS {
                        let arrive = pr.now_ns();
                        pr.record_at(pid, EventKind::SyncArrive, 0, k, arrive);
                        bb.wait(&mut sense);
                        let now = pr.now_ns();
                        pr.record_at(pid, EventKind::SyncRelease, 0, now - arrive, now);
                    }
                });
            })
        });
        let tree = Arc::new(TreeBarrier::new(p));
        group.bench_with_input(BenchmarkId::new("tree", p), &p, |b, _| {
            b.iter(|| {
                let bb = Arc::clone(&tree);
                team.run(move |pid| {
                    let mut epoch = 0usize;
                    for _ in 0..ROUNDS {
                        bb.wait(pid, &mut epoch);
                    }
                });
            })
        });
    }
    group.finish();
}

fn bench_counter_and_neighbor(c: &mut Criterion) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let p = cores.min(8);
    let team = Team::new(p);
    let mut group = c.benchmark_group("replacement");
    group.bench_function(format!("counter_p{p}"), |b| {
        b.iter(|| {
            // A counter is the producer's cell: only it posts.
            let cells = Arc::new(CellBank::new(p));
            team.run(move |pid| {
                for k in 1..=ROUNDS {
                    if pid == 0 {
                        cells.post(0);
                    } else {
                        cells.wait(0, k);
                    }
                }
            });
        })
    });
    group.bench_function(format!("neighbor_p{p}"), |b| {
        b.iter(|| {
            let flags = Arc::new(CellBank::new(p));
            team.run(move |pid| {
                for k in 1..=ROUNDS {
                    flags.post(pid);
                    flags.wait(pid as isize - 1, k);
                    flags.wait(pid as isize + 1, k);
                }
            });
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_barriers, bench_counter_and_neighbor
}
criterion_main!(benches);
