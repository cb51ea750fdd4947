//! Direct latency of the `runtime` primitives on a team of `p`
//! workers: what one synchronization episode of each kind costs when
//! nothing else is going on.

use runtime::{
    BarrierEpoch, CentralBarrier, Counters, NeighborFlags, PairwiseCells, Team, TreeBarrier,
};
use std::hint::black_box;
use std::time::Instant;

const EPISODES: u64 = 20_000;
const DISPATCHES: u64 = 2_000;
const REPS: usize = 5;

/// Best-of-[`REPS`] nanoseconds per episode. `make` builds the region
/// of one rep (with a fresh primitive, since flags and counters count
/// up); every worker runs it with [`EPISODES`] iterations inside. The
/// minimum converges on the primitive's floor, where a median of a
/// 100 ns operation on a shared host mostly measures the host.
fn ns_per_episode<F>(team: &Team, make: impl Fn() -> F) -> f64
where
    F: Fn(usize) + Send + Sync + 'static,
{
    (0..REPS)
        .map(|_| {
            let region = make();
            let t0 = Instant::now();
            team.run(region);
            t0.elapsed().as_nanos() as f64 / EPISODES as f64
        })
        .fold(f64::INFINITY, f64::min)
}

pub fn measure(p: usize) -> [(&'static str, f64); 6] {
    let team = Team::new(p);

    let central = ns_per_episode(&team, || {
        let b = CentralBarrier::new(p);
        move |_| {
            let mut local = BarrierEpoch::default();
            for _ in 0..EPISODES {
                b.wait(&mut local);
            }
            black_box(local);
        }
    });

    let tree = ns_per_episode(&team, || {
        let b = TreeBarrier::new(p);
        move |pid| {
            let mut epoch = 0usize;
            for _ in 0..EPISODES {
                b.wait(pid, &mut epoch);
            }
            black_box(epoch);
        }
    });

    // Post, then wait on both neighbors: the stencil exchange.
    let neighbor = ns_per_episode(&team, || {
        let f = NeighborFlags::new(p);
        move |pid| {
            for k in 1..=EPISODES {
                f.post(pid);
                f.wait(pid as isize - 1, k);
                f.wait(pid as isize + 1, k);
            }
        }
    });

    // One producer, p-1 consumers: a post → wake round trip.
    let counter = ns_per_episode(&team, || {
        let c = Counters::new(1);
        move |pid| {
            for k in 1..=EPISODES {
                if pid == 0 {
                    c.increment(0);
                } else {
                    c.wait_ge(0, k);
                }
            }
        }
    });

    // Post, then wait on the cell one processor down: a distance-1
    // wavefront step.
    let pairwise = ns_per_episode(&team, || {
        let c = PairwiseCells::new(p);
        move |pid| {
            for k in 1..=EPISODES {
                c.post(pid);
                c.wait(pid as isize - 1, k);
            }
        }
    });

    let t0 = Instant::now();
    for _ in 0..DISPATCHES {
        team.run(|pid| {
            black_box(pid);
        });
    }
    let dispatch_us = t0.elapsed().as_secs_f64() * 1e6 / DISPATCHES as f64;

    [
        ("runtime.barrier_central_ns", central),
        ("runtime.barrier_tree_ns", tree),
        ("runtime.neighbor_ns", neighbor),
        ("runtime.counter_ns", counter),
        ("runtime.pairwise_ns", pairwise),
        ("runtime.team_dispatch_us", dispatch_us),
    ]
}
