//! Stress tests for the synchronization primitives under oversubscription
//! (more workers than cores) and rapid reuse of one team.

use runtime::{BarrierEpoch, CellBank, CentralBarrier, Counters, Team, TreeBarrier};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn many_small_regions_dispatch_correctly() {
    let team = Team::new(6);
    let total = Arc::new(AtomicU64::new(0));
    for k in 0..500u64 {
        let total = Arc::clone(&total);
        team.run(move |pid| {
            total.fetch_add(k + pid as u64, Ordering::Relaxed);
        });
    }
    let expect: u64 = (0..500u64).map(|k| 6 * k + 15).sum();
    assert_eq!(total.load(Ordering::Relaxed), expect);
}

#[test]
fn interleaved_barrier_and_counter_protocol() {
    // Producers and consumers alternate roles across 200 rounds; any
    // ordering bug shows up as a stale read.
    let p = 4;
    let team = Team::new(p);
    let barrier = Arc::new(CentralBarrier::new(p));
    let counters = Arc::new(Counters::new(p));
    let cell = Arc::new(AtomicU64::new(0));
    let bad = Arc::new(AtomicU64::new(0));
    {
        let barrier = Arc::clone(&barrier);
        let counters = Arc::clone(&counters);
        let cell = Arc::clone(&cell);
        let bad = Arc::clone(&bad);
        team.run(move |pid| {
            let mut sense = BarrierEpoch::default();
            for round in 1..=200u64 {
                let producer = (round as usize) % 4;
                if pid == producer {
                    cell.store(round * 1000, Ordering::Relaxed);
                    counters.increment(producer);
                } else {
                    counters.wait_ge(producer, round.div_ceil(4));
                    // The counter's acquire pairs with the producer's
                    // release: the value must be current or newer.
                    if cell.load(Ordering::Relaxed) < round * 1000 {
                        bad.fetch_add(1, Ordering::Relaxed);
                    }
                }
                barrier.wait(&mut sense);
            }
        });
    }
    assert_eq!(bad.load(Ordering::Relaxed), 0);
}

#[test]
fn tree_and_central_barriers_agree_under_oversubscription() {
    // 16 workers on however few cores this host has.
    let p = 16;
    let team = Team::new(p);
    for use_tree in [false, true] {
        let central = Arc::new(CentralBarrier::new(p));
        let tree = Arc::new(TreeBarrier::new(p));
        let seq = Arc::new(AtomicU64::new(0));
        let seq2 = Arc::clone(&seq);
        team.run(move |pid| {
            let mut sense = BarrierEpoch::default();
            let mut epoch = 0usize;
            for round in 0..100u64 {
                // Everyone must observe at least `round * p` increments
                // after the barrier.
                seq2.fetch_add(1, Ordering::SeqCst);
                if use_tree {
                    tree.wait(pid, &mut epoch);
                } else {
                    central.wait(&mut sense);
                }
                assert!(seq2.load(Ordering::SeqCst) >= (round + 1) * p as u64);
            }
        });
        assert_eq!(seq.load(Ordering::SeqCst), 100 * p as u64);
    }
}

#[test]
fn neighbor_flags_long_pipeline() {
    // An 8-stage pipeline pushing 300 tokens: each stage must observe
    // every token in order.
    let p = 8;
    let team = Team::new(p);
    let flags = Arc::new(CellBank::new(p));
    let lanes: Arc<Vec<AtomicU64>> = Arc::new((0..p).map(|_| AtomicU64::new(0)).collect());
    {
        let flags = Arc::clone(&flags);
        let lanes = Arc::clone(&lanes);
        team.run(move |pid| {
            for token in 1..=300u64 {
                flags.wait(pid as isize - 1, token);
                if pid > 0 {
                    let upstream = lanes[pid - 1].load(Ordering::Relaxed);
                    assert!(upstream >= token, "stage {pid} saw stale token {upstream}");
                }
                lanes[pid].store(token, Ordering::Relaxed);
                flags.post(pid);
            }
        });
    }
    for l in lanes.iter() {
        assert_eq!(l.load(Ordering::Relaxed), 300);
    }
}

#[test]
fn fresh_counters_per_region_count_from_zero() {
    // No primitive is reset: each region builds its own bank.
    let team = Team::new(3);
    for round in 1..=10u64 {
        let c = Arc::new(Counters::new(3));
        let c2 = Arc::clone(&c);
        team.run(move |pid| {
            if pid == 0 {
                for _ in 0..round {
                    c2.increment(0);
                }
            } else {
                c2.wait_ge(0, round);
            }
        });
        assert_eq!((c.value(0), c.value(1)), (round, 0));
    }
}
