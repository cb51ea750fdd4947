//! End-to-end robustness tests: deadline-guarded execution of the
//! shipped `.be` kernels under seeded chaos.
//!
//! The unit tests in `runtime::fault`, `runtime::team`, and
//! `interp::par` cover the primitives; these tests cover the promise
//! the fault layer makes at the tool level — a sabotaged sync post on
//! a real kernel terminates within the deadline with a report naming
//! the dropped site, the same chaos seed replays the same fault
//! schedule, and a poisoned region tears down every processor.

use barrier_elim::analysis::Bindings;
use barrier_elim::frontend;
use barrier_elim::interp::{run_parallel_observed, ChaosAction, Mem, ObserveOptions, SyncChaos};
use barrier_elim::ir::SymId;
use barrier_elim::obs::FailureCause;
use barrier_elim::oracle::{chaos_check, droppable_posts, injection_schedule, ChaosInjector};
use barrier_elim::runtime::Team;
use barrier_elim::spmd_opt::optimize;
use std::sync::Arc;
use std::time::{Duration, Instant};

const KERNELS: &[(&str, &[(&str, i64)])] = &[
    ("broadcast.be", &[("n", 12)]),
    ("jacobi.be", &[("n", 48), ("tmax", 4)]),
    ("pipeline.be", &[("n", 16), ("tmax", 3)]),
    ("private_gather.be", &[("n", 10)]),
    ("shallow.be", &[("n", 12), ("tmax", 2)]),
];

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

/// The acceptance property: on every shipped kernel, dropping a sync
/// post (the final counter increment where the plan places counters,
/// else the final neighbor post / barrier arrival) terminates within
/// the deadline with a failure report naming the dropped site — and a
/// benign chaos run with the same seed passes.
#[test]
fn dropped_posts_on_all_kernels_are_detected_and_attributed() {
    let team = Team::new(4);
    for (kernel, sets) in KERNELS {
        let (prog, bind) = load(kernel, sets, 4);
        let plan = optimize(&prog, &bind);
        let r = chaos_check(
            &prog,
            &bind,
            &plan,
            &team,
            0xC0FFEE,
            Duration::from_millis(150),
            1e-9,
        );
        assert!(
            r.benign_ok,
            "{kernel}: benign chaos run failed (diff {:e})",
            r.benign_diff
        );
        assert!(!r.teeth.is_empty(), "{kernel}: no droppable posts found");
        for t in &r.teeth {
            assert!(
                t.detected(),
                "{kernel}: dropped {} post at s{} went undetected",
                t.kind,
                t.spec.site
            );
            assert!(
                t.named_site,
                "{kernel}: dropped {} post at s{} not named (headline site {:?})",
                t.kind,
                t.spec.site,
                t.attributed_site()
            );
            assert!(
                t.elapsed < Duration::from_secs(30),
                "{kernel}: teeth run took {:?}",
                t.elapsed
            );
        }
    }
}

/// A dropped *counter increment* specifically (broadcast's optimized
/// plan places one at P=4): consumers stall at exactly that site, and
/// the report's headline attributes the deadline to it with the
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
    let team = Team::new(4);
    let r = chaos_check(
        &prog,
        &bind,
        &plan,
        &team,
        7,
        Duration::from_millis(150),
        1e-9,
    );
    let tooth = r
        .teeth
        .iter()
        .find(|t| t.kind == "counter")
        .expect("counter tooth ran");
    assert!(tooth.detected() && tooth.named_site);
    let report = tooth.report.as_ref().unwrap();
    assert_eq!(report.chaos_seed, Some(7));
    assert_eq!(report.widths, [4]);
    // Whoever won the race to the headline, the stalled consumers at
    // the counter site recorded it in the per-processor states.
    if let FailureCause::Deadline {
        site,
        pid,
        expected,
        observed,
        ..
    } = &report.residual().unwrap().cause
    {
        if *site == tooth.spec.site {
            assert_ne!(
                *pid, tooth.spec.pid,
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
    let a = ChaosInjector::new(123);
    let b = ChaosInjector::new(123);
    assert_eq!(
        injection_schedule(&a, 8, 4, 64),
        injection_schedule(&b, 8, 4, 64)
    );
    assert_ne!(
        injection_schedule(&a, 8, 4, 64),
        injection_schedule(&ChaosInjector::new(124), 8, 4, 64)
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
                chaos: Some(Arc::new(ChaosInjector::new(99))),
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
                ChaosAction::Stall(Duration::from_millis(600))
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
    match &failure.cause {
        FailureCause::Deadline { pid, .. } => {
            assert_ne!(*pid, 3, "a waiter, not the staller, times out first")
        }
        other => panic!("expected a deadline cause, got {other:?}"),
    }
    // Every processor terminated with a recorded state; nobody is
    // still "ok" except possibly the stalled one that finished late.
    assert_eq!(failure.per_proc.len(), 4);
    let errored = failure.per_proc.iter().filter(|s| *s != "ok").count();
    assert!(errored >= 3, "per_proc: {:?}", failure.per_proc);
}
