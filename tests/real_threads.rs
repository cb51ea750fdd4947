//! Real-thread execution of every kernel matches the sequential oracle,
//! and the runtime instrumentation agrees with the schedule-derived
//! dynamic counts.

use barrier_elim::interp::{run_parallel, run_sequential, Mem};
use barrier_elim::runtime::Team;
use barrier_elim::spmd_opt::{fork_join, optimize};
use barrier_elim::suite::{self, Scale};
use std::sync::Arc;

const TOL: f64 = 1e-9;

#[test]
fn every_kernel_runs_correctly_on_real_threads() {
    let nprocs = 4;
    let team = Team::new(nprocs);
    for def in suite::all() {
        let built = (def.build)(Scale::Test);
        let bind = Arc::new(built.bindings(nprocs as i64));
        let prog = Arc::new(built.prog);
        let oracle = Mem::new(&prog, &bind);
        run_sequential(&prog, &bind, &oracle);

        for (label, plan) in [
            ("fork-join", fork_join(&prog, &bind)),
            ("optimized", optimize(&prog, &bind)),
        ] {
            let mem = Arc::new(Mem::new(&prog, &bind));
            let out = run_parallel(&prog, &bind, &plan, &mem, &team);
            let diff = mem.max_abs_diff(&oracle);
            assert!(diff <= TOL, "{} ({label}): diverged by {diff:e}", def.name);
            let (s, c) = (&out.stats, &out.counts);
            for (what, measured, scheduled) in [
                ("barrier episodes", s.barrier_episodes, c.barriers),
                (
                    "barrier arrivals",
                    s.barrier_arrivals,
                    c.barriers * nprocs as u64,
                ),
                (
                    "counter increments",
                    s.counter_increments,
                    c.counter_increments,
                ),
                ("counter waits", s.counter_waits, c.counter_waits),
                ("neighbor posts", s.neighbor_posts, c.neighbor_posts),
                ("neighbor waits", s.neighbor_waits, c.neighbor_waits),
                ("pairwise posts", s.pairwise_posts, c.pair_posts),
                ("pairwise waits", s.pairwise_waits, c.pair_waits),
            ] {
                assert_eq!(
                    measured, scheduled,
                    "{} ({label}): instrumented {what} mismatch",
                    def.name
                );
            }
        }
    }
}

#[test]
fn optimized_never_executes_more_barriers_than_fork_join() {
    let nprocs = 4;
    let team = Team::new(nprocs);
    for def in suite::all() {
        let built = (def.build)(Scale::Test);
        let bind = Arc::new(built.bindings(nprocs as i64));
        let prog = Arc::new(built.prog);
        let run = |plan| {
            let mem = Arc::new(Mem::new(&prog, &bind));
            run_parallel(&prog, &bind, &plan, &mem, &team)
        };
        let base = run(fork_join(&prog, &bind));
        let opt = run(optimize(&prog, &bind));
        assert!(
            opt.counts.barriers <= base.counts.barriers,
            "{}: {} vs {}",
            def.name,
            opt.counts.barriers,
            base.counts.barriers
        );
    }
}

#[test]
fn virtual_and_real_dynamic_counts_agree() {
    let nprocs = 4;
    let team = Team::new(nprocs);
    for name in ["jacobi2d", "adi", "lu", "tomcatv_mesh"] {
        let def = suite::by_name(name).unwrap();
        let built = (def.build)(Scale::Test);
        let bind = Arc::new(built.bindings(nprocs as i64));
        let prog = Arc::new(built.prog);
        let plan = optimize(&prog, &bind);
        let mem = Arc::new(Mem::new(&prog, &bind));
        let real = run_parallel(&prog, &bind, &plan, &mem, &team);
        let vmem = Mem::new(&prog, &bind);
        let virt = barrier_elim::interp::run_virtual(
            &prog,
            &bind,
            &plan,
            &vmem,
            barrier_elim::interp::ScheduleOrder::RoundRobin,
        );
        assert_eq!(real.counts, virt.counts, "{name}");
    }
}

// ---------------------------------------------------------------------------
// Primitive stress hammers: many epochs, odd team sizes, team of one.
// Each hammer asserts an ordering property that fails if the primitive
// ever releases a waiter early.
// ---------------------------------------------------------------------------

mod hammer {
    use barrier_elim::runtime::{BarrierEpoch, CellBank, CentralBarrier, Counters, TreeBarrier};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const EPOCHS: u64 = 800;

    /// Every thread bumps its own slot, crosses the barrier, and then
    /// observes everyone else's slot at the same epoch. A second barrier
    /// keeps fast threads from bumping again while slow ones still read.
    fn barrier_hammer(
        n: usize,
        wait: impl Fn(usize, &mut (BarrierEpoch, usize)) + Send + Sync + 'static,
    ) {
        let wait = Arc::new(wait);
        let slots: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
        let handles: Vec<_> = (0..n)
            .map(|pid| {
                let wait = Arc::clone(&wait);
                let slots = Arc::clone(&slots);
                std::thread::spawn(move || {
                    let mut state = (BarrierEpoch::default(), 0usize);
                    for k in 1..=EPOCHS {
                        slots[pid].store(k, Ordering::Release);
                        wait(pid, &mut state);
                        for (q, s) in slots.iter().enumerate() {
                            let v = s.load(Ordering::Acquire);
                            assert_eq!(v, k, "epoch {k}: pid {pid} saw slot {q} at {v}");
                        }
                        wait(pid, &mut state);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn central_barrier_epochs_odd_teams() {
        for n in [1usize, 3, 5, 7] {
            let b = Arc::new(CentralBarrier::new(n));
            barrier_hammer(n, move |_pid, state| {
                b.wait(&mut state.0);
            });
        }
    }

    #[test]
    fn tree_barrier_epochs_odd_teams() {
        // Non-power-of-two sizes exercise the wrap-around dissemination
        // partners; 1 and 8 cover the degenerate and full-tree cases.
        for n in [1usize, 3, 5, 6, 7, 8] {
            let b = Arc::new(TreeBarrier::new(n));
            barrier_hammer(n, move |pid, state| {
                b.wait(pid, &mut state.1);
            });
        }
    }

    /// Chained producer/consumer line: thread `p` may take step `k` only
    /// after thread `p - 1` has. Any early release breaks the per-step
    /// total order.
    #[test]
    fn counter_chain_orders_steps() {
        for n in [1usize, 3, 5] {
            let c = Arc::new(Counters::new(n));
            let steps: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
            let handles: Vec<_> = (0..n)
                .map(|pid| {
                    let c = Arc::clone(&c);
                    let steps = Arc::clone(&steps);
                    std::thread::spawn(move || {
                        for k in 1..=EPOCHS {
                            if pid > 0 {
                                c.wait_ge(pid - 1, k);
                                assert!(
                                    steps[pid - 1].load(Ordering::Acquire) >= k,
                                    "pid {pid} released before upstream step {k}"
                                );
                            }
                            steps[pid].store(k, Ordering::Release);
                            c.increment(pid);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            for p in 0..n {
                assert_eq!(c.value(p), EPOCHS);
            }
        }
    }

    /// Many producers, one consumer, many rounds: the consumer waits for
    /// all of round `k`'s increments, checks every producer's cell, and
    /// acks on a second counter before producers may start round `k + 1`.
    #[test]
    fn counter_fan_in_rounds() {
        let producers = 4usize;
        let rounds = 300u64;
        let c = Arc::new(Counters::new(2));
        let cells: Arc<Vec<AtomicU64>> =
            Arc::new((0..producers).map(|_| AtomicU64::new(0)).collect());
        let mut handles: Vec<_> = (0..producers)
            .map(|p| {
                let c = Arc::clone(&c);
                let cells = Arc::clone(&cells);
                std::thread::spawn(move || {
                    for k in 1..=rounds {
                        cells[p].store(k, Ordering::Release);
                        c.increment(0);
                        c.wait_ge(1, k);
                    }
                })
            })
            .collect();
        handles.push({
            let c = Arc::clone(&c);
            let cells = Arc::clone(&cells);
            std::thread::spawn(move || {
                for k in 1..=rounds {
                    c.wait_ge(0, k * producers as u64);
                    for (p, cell) in cells.iter().enumerate() {
                        assert_eq!(cell.load(Ordering::Acquire), k, "producer {p}, round {k}");
                    }
                    c.increment(1);
                }
            })
        });
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Stencil-style relaxation: each thread waits for both neighbors to
    /// reach its epoch before advancing, so no two adjacent threads are
    /// ever more than one epoch apart.
    #[test]
    fn neighbor_flags_bounded_skew() {
        for n in [1usize, 3, 5, 7] {
            let f = Arc::new(CellBank::new(n));
            let epochs_done: Arc<Vec<AtomicU64>> =
                Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
            let handles: Vec<_> = (0..n)
                .map(|pid| {
                    let f = Arc::clone(&f);
                    let done = Arc::clone(&epochs_done);
                    std::thread::spawn(move || {
                        for k in 1..=EPOCHS {
                            f.post(pid);
                            f.wait(pid as isize - 1, k);
                            f.wait(pid as isize + 1, k);
                            if pid > 0 {
                                assert!(done[pid - 1].load(Ordering::Acquire) + 1 >= k);
                            }
                            if pid + 1 < n {
                                assert!(done[pid + 1].load(Ordering::Acquire) + 1 >= k);
                            }
                            done[pid].store(k, Ordering::Release);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            for p in 0..n {
                assert_eq!(f.count(p), EPOCHS);
            }
        }
    }

    /// Forward pipeline across odd team sizes: within every step the
    /// processors must log in strictly increasing pid order.
    #[test]
    fn neighbor_flags_pipeline_odd_teams() {
        for n in [1usize, 3, 5] {
            let f = Arc::new(CellBank::new(n));
            let log = Arc::new(std::sync::Mutex::new(Vec::new()));
            let handles: Vec<_> = (0..n)
                .map(|pid| {
                    let f = Arc::clone(&f);
                    let log = Arc::clone(&log);
                    std::thread::spawn(move || {
                        for step in 1..=200u64 {
                            f.wait(pid as isize - 1, step);
                            log.lock().unwrap().push((step, pid));
                            f.post(pid);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let log = log.lock().unwrap();
            for step in 1..=200u64 {
                let order: Vec<usize> = log
                    .iter()
                    .filter(|(s, _)| *s == step)
                    .map(|(_, p)| *p)
                    .collect();
                assert_eq!(order, (0..n).collect::<Vec<_>>(), "n={n}, step {step}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Schedule exploration: drive the primitives through seeded random arrival
// orders. A turnstile forces each episode's waiters to *enter* their blocking
// call in a chosen permutation, so over many seeds every arrival interleaving
// (first-arriver releases, last-arriver releases, producer-last, …) is
// exercised. Any lost wakeup or stale-sense hang fails the run; the harness
// also checks generation monotonicity across `Counters::reset`.
// ---------------------------------------------------------------------------

mod schedule_exploration {
    use barrier_elim::runtime::{BarrierEpoch, CentralBarrier, Counters, TreeBarrier};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Barrier as StdBarrier};

    fn xorshift64(mut x: u64) -> u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }

    /// Seeded Fisher–Yates permutation of `0..n`.
    fn permutation(seed: u64, n: usize) -> Vec<usize> {
        let mut s = xorshift64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1));
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            s = xorshift64(s);
            p.swap(i, (s as usize) % (i + 1));
        }
        p
    }

    /// Spin (yielding) until it is `rank`'s turn at the turnstile, then
    /// pass it on. Callers bump the turnstile *before* their blocking
    /// wait, so the turnstile orders arrival entry without deadlocking
    /// on the wait itself.
    fn turnstile(turn: &AtomicU64, target: u64) {
        while turn.load(Ordering::Acquire) != target {
            std::thread::yield_now();
        }
        turn.fetch_add(1, Ordering::AcqRel);
    }

    fn seed_count() -> u64 {
        std::env::var("BE_SCHED_SEEDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1500)
    }

    #[test]
    fn randomized_arrival_orders_never_lose_a_wakeup() {
        let n = 4usize;
        let seeds = seed_count();
        let central = Arc::new(CentralBarrier::new(n));
        let tree = Arc::new(TreeBarrier::with_radix(n, 4));
        let counters = Arc::new(Counters::new(n));
        let turn = Arc::new(AtomicU64::new(0));
        let slots: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
        let data: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
        // Workers and the coordinator rendezvous here between seeds so
        // the coordinator can reset the primitives safely.
        let fence = Arc::new(StdBarrier::new(n + 1));

        let workers: Vec<_> = (0..n)
            .map(|pid| {
                let central = Arc::clone(&central);
                let tree = Arc::clone(&tree);
                let counters = Arc::clone(&counters);
                let turn = Arc::clone(&turn);
                let slots = Arc::clone(&slots);
                let data = Arc::clone(&data);
                let fence = Arc::clone(&fence);
                std::thread::spawn(move || {
                    for seed in 0..seeds {
                        fence.wait();
                        // Fresh local stamps each seed: the coordinator
                        // reset the barriers at the end of the last one.
                        let mut bl = BarrierEpoch::default();
                        let mut tl = 0usize;
                        let tag = seed + 1;

                        // Episode 0: central barrier, seeded entry order.
                        let perm = permutation(seed * 3, n);
                        let rank = perm.iter().position(|&q| q == pid).unwrap() as u64;
                        slots[pid].store(tag, Ordering::Release);
                        turnstile(&turn, seed * 3 * n as u64 + rank);
                        central.wait(&mut bl);
                        for (q, s) in slots.iter().enumerate() {
                            let v = s.load(Ordering::Acquire);
                            assert_eq!(
                                v, tag,
                                "seed {seed}: central released pid {pid} while slot {q} = {v}"
                            );
                        }
                        central.wait(&mut bl);

                        // Episode 1: 4-ary tree barrier, fresh order.
                        let perm = permutation(seed * 3 + 1, n);
                        let rank = perm.iter().position(|&q| q == pid).unwrap() as u64;
                        slots[pid].store(tag + seeds, Ordering::Release);
                        turnstile(&turn, (seed * 3 + 1) * n as u64 + rank);
                        tree.wait(pid, &mut tl);
                        for (q, s) in slots.iter().enumerate() {
                            let v = s.load(Ordering::Acquire);
                            assert_eq!(
                                v,
                                tag + seeds,
                                "seed {seed}: tree released pid {pid} while slot {q} = {v}"
                            );
                        }
                        tree.wait(pid, &mut tl);

                        // Episode 2: counter handoff; the producer's slot
                        // in the entry order varies per seed, so waiters
                        // both pre-block (producer last) and fast-path
                        // (producer first).
                        let perm = permutation(seed * 3 + 2, n);
                        let producer = (seed as usize) % n;
                        let rank = perm.iter().position(|&q| q == pid).unwrap() as u64;
                        turnstile(&turn, (seed * 3 + 2) * n as u64 + rank);
                        if pid == producer {
                            data[producer].store(tag, Ordering::Relaxed);
                            counters.increment(producer);
                        } else {
                            counters.wait_ge(producer, 1);
                            // Release/acquire on the counter publishes
                            // the producer's data.
                            let v = data[producer].load(Ordering::Relaxed);
                            assert_eq!(v, tag, "seed {seed}: pid {pid} woke before the post");
                        }

                        fence.wait();
                    }
                })
            })
            .collect();

        // Coordinator: reset between seeds and check generation
        // monotonicity on `Counters::reset`.
        for seed in 0..seeds {
            assert_eq!(
                counters.generation(),
                seed,
                "generation must move by exactly 1 per reset"
            );
            fence.wait(); // release the workers into seed `seed`
            fence.wait(); // wait for them to finish it
            central.reset();
            tree.reset();
            counters.reset();
        }
        assert_eq!(counters.generation(), seeds);
        for w in workers {
            w.join().unwrap();
        }
    }
}
