//! End-to-end robustness tests: deadline-guarded execution of the
//! shipped `.be` kernels under seeded chaos.
//!
//! The unit tests in `runtime::fault`, `runtime::team`, and
//! `interp::par` cover the primitives; these tests cover the promise
//! the fault layer makes at the tool level — a dropped counter
//! increment fails its first attempt within the deadline with a report
//! naming the counter site, the same chaos seed replays the same fault
//! schedule, and a poisoned region tears down every processor. That
//! every dropped post of every shipped kernel is detected and
//! attributed is checked on the one chaos campaign per kernel and plan
//! family in `tests/degrade.rs`.

use barrier_elim::analysis::Bindings;
use barrier_elim::frontend;
use barrier_elim::interp::{run_parallel_observed, ChaosAction, Mem, ObserveOptions, SyncChaos};
use barrier_elim::ir::SymId;
use barrier_elim::obs::FailureReport;
use barrier_elim::oracle::{
    self, droppable_posts, injection_schedule, ChaosInjector, Fault, Tooth,
};
use barrier_elim::runtime::{ProcEnd, RetryPolicy, SyncError, Team};
use barrier_elim::spmd_opt::optimize;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn load(
    kernel: &str,
    sets: &[(&str, i64)],
    nprocs: i64,
) -> (Arc<barrier_elim::ir::Program>, Arc<Bindings>) {
    let src = std::fs::read_to_string(format!("kernels/{kernel}")).unwrap();
    let prog = frontend::parse(&src).unwrap_or_else(|e| panic!("{kernel}: {e}"));
    let mut bind = Bindings::new(nprocs);
    for (name, v) in sets {
        let pos = prog
            .syms
            .iter()
            .position(|s| &s.name == name)
            .unwrap_or_else(|| panic!("sym {name} missing"));
        bind.bind(SymId(pos as u32), *v);
    }
    (Arc::new(prog), Arc::new(bind))
}

/// Short backoffs keep the campaign fast.
fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
        ..RetryPolicy::default()
    }
}

/// What the first attempt of a drop tooth saw, with the drop.
fn first_failure(t: &Tooth) -> Option<(&FailureReport, oracle::DropCandidate)> {
    let Fault::Drop(c) = t.fault else { return None };
    let first = t.report.rounds[0].attempts[0].failure.as_ref();
    Some((
        first.unwrap_or_else(|| {
            panic!(
                "dropped {} post at s{} went undetected",
                c.kind, c.spec.site
            )
        }),
        c,
    ))
}

/// A dropped *counter increment* specifically (broadcast's optimized
/// plan places one at P=4): consumers stall at exactly that site, and
/// the first attempt's report attributes the deadline to it with the
/// expected-vs-observed progress gap.
#[test]
fn dropped_counter_increment_names_the_counter_site() {
    let (prog, bind) = load("broadcast.be", &[("n", 12)], 4);
    let plan = optimize(&prog, &bind);
    let counters: Vec<_> = droppable_posts(&prog, &bind, &plan)
        .into_iter()
        .filter(|c| c.kind == "counter")
        .collect();
    assert!(
        !counters.is_empty(),
        "broadcast at P=4 must place a counter sync"
    );
    let deadline = Duration::from_millis(150);
    let r = oracle::campaign(&prog, &bind, &optimize, 7, deadline, 1e-9, &fast_policy());
    let tooth = r
        .teeth
        .iter()
        .find(|t| matches!(t.fault, Fault::Drop(c) if c.kind == "counter"))
        .expect("counter tooth ran");
    assert_eq!(tooth.failure(1e-9), None);
    let (first, c) = first_failure(tooth).unwrap();
    assert_eq!(tooth.report.chaos_seed, Some(7));
    assert_eq!(tooth.report.widths, [4]);
    // Whoever won the race to the headline, the stalled consumers at
    // the counter site recorded it in the per-processor states.
    if let ProcEnd::Fault(SyncError::DeadlineExceeded {
        site,
        pid,
        expected,
        observed,
        ..
    }) = first.cause()
    {
        if *site == c.spec.site {
            assert_ne!(
                *pid, c.spec.pid,
                "the producer cannot time out on its own dropped increment"
            );
            assert!(observed < expected);
        }
    }
}

/// Same seed, same fault schedule — the injector is a pure function of
/// (seed, site, pid, visit) — and two guarded runs under the same seed
/// produce identical results.
#[test]
fn chaos_is_deterministic_per_seed() {
    let a = ChaosInjector::new(123, None);
    let b = ChaosInjector::new(123, None);
    assert_eq!(
        injection_schedule(&a, 8, 4, 64),
        injection_schedule(&b, 8, 4, 64)
    );
    assert_ne!(
        injection_schedule(&a, 8, 4, 64),
        injection_schedule(&ChaosInjector::new(124, None), 8, 4, 64)
    );

    let (prog, bind) = load("jacobi.be", &[("n", 48), ("tmax", 4)], 4);
    let plan = optimize(&prog, &bind);
    let team = Team::new(4);
    let mut sums = Vec::new();
    for _ in 0..2 {
        let mem = Arc::new(Mem::new(&prog, &bind));
        mem.fill(barrier_elim::ir::ArrayId(0), |s| (s[0] % 9) as f64);
        let out = run_parallel_observed(
            &prog,
            &bind,
            &plan,
            &mem,
            &team,
            &ObserveOptions {
                deadline: Some(Duration::from_secs(5)),
                chaos: Some(Arc::new(ChaosInjector::new(99, None))),
                ..ObserveOptions::default()
            },
        );
        assert!(out.ok(), "benign seeded run failed: {:?}", out.failure);
        sums.push(mem.checksum());
    }
    assert_eq!(sums[0], sums[1]);
}

/// One processor stalls past the deadline; its peers time out, poison
/// the region, and the late processor observes the poison instead of
/// waiting out its own deadline at every remaining site. The whole
/// region tears down in bounded time with every processor accounted
/// for.
#[test]
fn poison_propagates_to_a_late_processor() {
    struct StallP3;
    impl SyncChaos for StallP3 {
        fn at_sync(&self, _site: usize, pid: usize, visit: u64) -> ChaosAction {
            if pid == 3 && visit == 0 {
                ChaosAction::Delay(Duration::from_millis(600))
            } else {
                ChaosAction::None
            }
        }
    }
    let (prog, bind) = load("jacobi.be", &[("n", 48), ("tmax", 4)], 4);
    let plan = optimize(&prog, &bind);
    let team = Team::new(4);
    let mem = Arc::new(Mem::new(&prog, &bind));
    let t0 = Instant::now();
    let out = run_parallel_observed(
        &prog,
        &bind,
        &plan,
        &mem,
        &team,
        &ObserveOptions {
            deadline: Some(Duration::from_millis(100)),
            chaos: Some(Arc::new(StallP3)),
            ..ObserveOptions::default()
        },
    );
    let elapsed = t0.elapsed();
    let failure = out
        .failure
        .expect("a 600ms stall under a 100ms deadline fails");
    // Detection happens about one deadline in; teardown must not take
    // a deadline *per remaining sync site*.
    assert!(
        elapsed < Duration::from_secs(10),
        "teardown took {elapsed:?}"
    );
    match failure.cause() {
        ProcEnd::Fault(SyncError::DeadlineExceeded { pid, .. }) => {
            assert_ne!(*pid, 3, "a waiter, not the staller, times out first")
        }
        other => panic!("expected a deadline cause, got {other:?}"),
    }
    // Every processor terminated with a recorded end; nobody finished
    // except possibly the stalled one that finished late.
    assert_eq!(failure.ends.len(), 4);
    let errored = failure
        .ends
        .iter()
        .filter(|e| **e != ProcEnd::Finished)
        .count();
    assert!(errored >= 3, "ends: {:?}", failure.ends);
}
