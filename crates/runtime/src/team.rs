//! A persistent worker team for SPMD execution.
//!
//! Threads are created once (like the paper's measured programs, whose
//! timings exclude thread startup) and then repeatedly execute SPMD
//! regions: `run` hands every worker the same closure, which receives its
//! processor id.
//!
//! Worker bodies run under `catch_unwind`: a panicking worker counts as
//! *completed* toward the region's join, so the master never hangs — it
//! gets the first panic back as a [`RegionError`] (from [`Team::try_run`])
//! or re-raised (from [`Team::run`]). The team stays usable for
//! subsequent regions; whether the *shared data* a panicked region left
//! behind is usable is the caller's judgment.
//!
//! Dispatch is intentionally *outside* the lock-free fast-path split
//! that governs the sync primitives (see `crate::spin`): regions
//! amortize one condvar round trip over their whole body, workers
//! should sleep (not burn a core) between regions, and the blocking
//! join is what lets a panicked worker wake the master unconditionally.
//! The spin → yield → park ladder applies to the per-episode waits
//! *inside* a region — barriers, counters, neighbor flags — where the
//! round trip is hundreds of nanoseconds, not to the per-region
//! dispatch, where it would be pure waste.

use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

type Job = Arc<dyn Fn(usize) + Send + Sync>;

/// A worker panicked inside an SPMD region.
pub struct RegionError {
    /// Processor id of the first worker that panicked.
    pub pid: usize,
    /// The panic payload, exactly as `catch_unwind` captured it.
    pub payload: Box<dyn Any + Send>,
}

/// A panic payload's message, when it is a string (the common case
/// for `panic!`/`assert!`).
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic payload".to_string())
    }
}

impl RegionError {
    /// Re-raise the worker's panic on the calling thread.
    pub fn resume(self) -> ! {
        resume_unwind(self.payload)
    }
}

impl std::fmt::Debug for RegionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(self, f)
    }
}

impl std::fmt::Display for RegionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = panic_message(&*self.payload);
        write!(f, "worker P{} panicked: {msg}", self.pid)
    }
}

struct State {
    gen: u64,
    job: Option<Job>,
    done: usize,
    shutdown: bool,
    /// First panic of the current region (pid, payload).
    panic: Option<(usize, Box<dyn Any + Send>)>,
}

struct Shared {
    m: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
    n: usize,
}

/// A fixed-size team of persistent worker threads.
pub struct Team {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Team {
    /// Spawn a team of `n` workers (ids `0..n`).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        let shared = Arc::new(Shared {
            m: Mutex::new(State {
                gen: 0,
                job: None,
                done: 0,
                shutdown: false,
                panic: None,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            n,
        });
        let handles = (0..n)
            .map(|pid| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("spmd-worker-{pid}"))
                    .spawn(move || worker_loop(pid, shared))
                    .expect("failed to spawn worker")
            })
            .collect();
        Team { shared, handles }
    }

    /// Number of processors in the team.
    pub fn nprocs(&self) -> usize {
        self.shared.n
    }

    /// Execute `f(pid)` on every worker and block until all finish.
    ///
    /// A worker panic is re-raised here (never a hang: panicked workers
    /// still count toward the join). Use [`Team::try_run`] to receive
    /// the panic as a [`RegionError`] instead.
    pub fn run<F>(&self, f: F)
    where
        F: Fn(usize) + Send + Sync + 'static,
    {
        if let Err(e) = self.try_run(f) {
            e.resume();
        }
    }

    /// Execute `f(pid)` on every worker; block until all finish or
    /// panic. Returns the first worker panic as a [`RegionError`].
    ///
    /// It returns only once every worker has returned or unwound from
    /// `f`: no worker still waits on anything the region shared, so
    /// the next region, or a retry of a failed one, starts with none of
    /// them in flight.
    pub fn try_run<F>(&self, f: F) -> Result<(), RegionError>
    where
        F: Fn(usize) + Send + Sync + 'static,
    {
        let mut st = self.shared.m.lock();
        st.job = Some(Arc::new(f));
        st.done = 0;
        st.panic = None;
        st.gen += 1;
        let gen = st.gen;
        self.shared.work_cv.notify_all();
        while !(st.gen == gen && st.done == self.shared.n) {
            self.shared.done_cv.wait(&mut st);
        }
        st.job = None;
        match st.panic.take() {
            Some((pid, payload)) => Err(RegionError { pid, payload }),
            None => Ok(()),
        }
    }
}

fn worker_loop(pid: usize, shared: Arc<Shared>) {
    let mut seen_gen = 0u64;
    loop {
        let job = {
            let mut st = shared.m.lock();
            while !st.shutdown && (st.gen == seen_gen || st.job.is_none()) {
                shared.work_cv.wait(&mut st);
            }
            if st.shutdown {
                return;
            }
            seen_gen = st.gen;
            Arc::clone(st.job.as_ref().unwrap())
        };
        // A panicking region body must still count toward the join —
        // otherwise `done` never reaches `n` and the master hangs
        // forever. Capture the payload; the master re-raises or
        // returns it.
        let outcome = catch_unwind(AssertUnwindSafe(|| job(pid)));
        let mut st = shared.m.lock();
        if let Err(payload) = outcome {
            if st.panic.is_none() {
                st.panic = Some((pid, payload));
            }
        }
        st.done += 1;
        if st.done == shared.n {
            shared.done_cv.notify_all();
        }
    }
}

impl Drop for Team {
    fn drop(&mut self) {
        {
            let mut st = self.shared.m.lock();
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    #[test]
    fn all_workers_run_each_region() {
        let team = Team::new(4);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let hits = Arc::clone(&hits);
            team.run(move |_pid| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(hits.load(Ordering::SeqCst), 200);
    }

    #[test]
    fn workers_receive_distinct_pids() {
        let team = Team::new(8);
        let mask = Arc::new(AtomicU64::new(0));
        {
            let mask = Arc::clone(&mask);
            team.run(move |pid| {
                mask.fetch_or(1 << pid, Ordering::SeqCst);
            });
        }
        assert_eq!(mask.load(Ordering::SeqCst), 0xFF);
    }

    #[test]
    fn run_blocks_until_completion() {
        let team = Team::new(3);
        let v = Arc::new(AtomicUsize::new(0));
        {
            let v = Arc::clone(&v);
            team.run(move |_| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                v.fetch_add(1, Ordering::SeqCst);
            });
        }
        // run() returned, so every worker finished.
        assert_eq!(v.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn single_worker_team() {
        let team = Team::new(1);
        let v = Arc::new(AtomicUsize::new(0));
        let vv = Arc::clone(&v);
        team.run(move |pid| {
            assert_eq!(pid, 0);
            vv.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(v.load(Ordering::SeqCst), 1);
    }

    /// Regression: a panicking worker used to leave `done < n` forever,
    /// hanging the master in `run`. The join must now return promptly
    /// with the panic's pid and payload.
    #[test]
    fn panicking_worker_never_hangs_the_master() {
        let team = Team::new(4);
        let t0 = Instant::now();
        let err = team
            .try_run(|pid| {
                if pid == 2 {
                    panic!("injected worker fault");
                }
            })
            .unwrap_err();
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "join took {:?}",
            t0.elapsed()
        );
        assert_eq!(err.pid, 2);
        assert_eq!(panic_message(&*err.payload), "injected worker fault");
    }

    #[test]
    fn team_survives_a_panicked_region() {
        let team = Team::new(3);
        assert!(team.try_run(|_| panic!("first region dies")).is_err());
        // The team must still run later regions normally.
        let v = Arc::new(AtomicUsize::new(0));
        let vv = Arc::clone(&v);
        team.try_run(move |_| {
            vv.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert_eq!(v.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn run_reraises_worker_panics() {
        let team = Team::new(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            team.run(|pid| {
                if pid == 1 {
                    panic!("bubbled");
                }
            })
        }));
        let payload = r.unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"bubbled"));
    }

    #[test]
    fn all_workers_panicking_reports_one_error() {
        let team = Team::new(4);
        let err = team.try_run(|pid| panic!("P{pid} down")).unwrap_err();
        assert!(err.pid < 4);
        assert!(panic_message(&*err.payload).starts_with('P'));
    }
}
