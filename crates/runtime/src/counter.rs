//! Counter synchronization — the paper's flexible event variables.
//!
//! "Processors defining (producing) values can increment a counter, and
//! processors accessing (consuming) the values wait until the counter is
//! incremented to the proper value." Unlike full barriers, only the
//! processors actually involved in the communication pay for the
//! synchronization, and only one synchronization happens per pair of
//! communicating processors.
//!
//! No executor runs a `Counters` bank: the executor's producer waits
//! are reads of the producer's cell in [`crate::CellBank`]. The bank is
//! kept, pure waits only, for the primitive latency rows that time it.
//! Like every primitive here it is never reset: a use that needs the
//! counts at zero again builds a fresh bank.

use crate::spin::{SpinWait, WaitEffort};
use crossbeam::utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// A bank of monotonically increasing synchronization counters.
pub struct Counters {
    c: Vec<CachePadded<AtomicU64>>,
}

impl Counters {
    /// A bank of `n` counters, all starting at zero.
    pub fn new(n: usize) -> Self {
        Counters {
            c: (0..n)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        }
    }

    /// Producer side: increment counter `id` (release ordering — the
    /// produced data becomes visible to waiters).
    pub fn increment(&self, id: usize) {
        self.c[id].fetch_add(1, Ordering::Release);
    }

    /// Consumer side: block until counter `id` reaches at least `v`
    /// (acquire ordering). Returns the wait's escalation counts.
    pub fn wait_ge(&self, id: usize, v: u64) -> WaitEffort {
        let mut sw = SpinWait::new();
        while self.c[id].load(Ordering::Acquire) < v {
            sw.snooze();
        }
        sw.effort()
    }

    /// Current value of counter `id`.
    pub fn value(&self, id: usize) -> u64 {
        self.c[id].load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn producer_consumer_ordering() {
        let c = Arc::new(Counters::new(1));
        let data = Arc::new(AtomicU64::new(0));
        let consumer = {
            let c = Arc::clone(&c);
            let data = Arc::clone(&data);
            std::thread::spawn(move || {
                c.wait_ge(0, 1);
                // Release/acquire on the counter publishes the data.
                assert_eq!(data.load(Ordering::Relaxed), 42);
            })
        };
        data.store(42, Ordering::Relaxed);
        c.increment(0);
        consumer.join().unwrap();
    }

    #[test]
    fn wait_for_multiple_increments() {
        let c = Arc::new(Counters::new(2));
        let n_producers = 4;
        let handles: Vec<_> = (0..n_producers)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    c.increment(1);
                })
            })
            .collect();
        c.wait_ge(1, n_producers as u64);
        assert_eq!(c.value(1), n_producers as u64);
        for h in handles {
            h.join().unwrap();
        }
    }
}
