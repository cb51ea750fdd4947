//! Offline stand-in for the `crossbeam` crate.
//!
//! The runtime only uses `crossbeam::utils::{Backoff, CachePadded}`;
//! this local crate provides both with the same semantics (exponential
//! spin backoff, cache-line-aligned padding) on top of `std`.

/// Utilities mirroring `crossbeam::utils`.
pub mod utils {
    use std::cell::Cell;

    /// Pads and aligns a value to 128 bytes so adjacent instances never
    /// share a cache line (the false-sharing guard the barrier and
    /// counter banks rely on).
    #[derive(Debug, Default)]
    #[repr(align(128))]
    pub struct CachePadded<T> {
        value: T,
    }

    impl<T> CachePadded<T> {
        /// Wrap a value.
        pub const fn new(value: T) -> Self {
            CachePadded { value }
        }

        /// Unwrap.
        pub fn into_inner(self) -> T {
            self.value
        }
    }

    impl<T> std::ops::Deref for CachePadded<T> {
        type Target = T;

        fn deref(&self) -> &T {
            &self.value
        }
    }

    impl<T> std::ops::DerefMut for CachePadded<T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.value
        }
    }

    const SPIN_LIMIT: u32 = 6;
    const YIELD_LIMIT: u32 = 10;

    /// Exponential backoff for spin loops: spin with `spin_loop` hints
    /// first, then escalate to `yield_now`; [`Backoff::is_completed`]
    /// tells the caller to park or plain-yield instead.
    #[derive(Debug, Default)]
    pub struct Backoff {
        step: Cell<u32>,
    }

    impl Backoff {
        /// Fresh backoff state.
        pub fn new() -> Self {
            Backoff { step: Cell::new(0) }
        }

        /// Reset to the initial (pure spin) state.
        pub fn reset(&self) {
            self.step.set(0);
        }

        /// Back off once: spin for `2^step` hint instructions while cheap,
        /// yield the thread once past `SPIN_LIMIT`.
        pub fn snooze(&self) {
            let step = self.step.get();
            if step <= SPIN_LIMIT {
                for _ in 0..(1u32 << step) {
                    std::hint::spin_loop();
                }
            } else {
                std::thread::yield_now();
            }
            if step <= YIELD_LIMIT {
                self.step.set(step + 1);
            }
        }

        /// True once backoff has escalated past yielding — callers should
        /// switch to their own blocking strategy.
        pub fn is_completed(&self) -> bool {
            self.step.get() > YIELD_LIMIT
        }
    }
}

#[cfg(test)]
mod tests {
    use super::utils::{Backoff, CachePadded};

    #[test]
    fn cache_padded_is_aligned_and_transparent() {
        let c = CachePadded::new(7u64);
        assert_eq!(*c, 7);
        assert_eq!(std::mem::align_of::<CachePadded<u64>>(), 128);
        assert_eq!(c.into_inner(), 7);
    }

    #[test]
    fn backoff_completes_after_enough_snoozes() {
        let b = Backoff::new();
        assert!(!b.is_completed());
        for _ in 0..32 {
            b.snooze();
        }
        assert!(b.is_completed());
        b.reset();
        assert!(!b.is_completed());
    }
}
