//! The lowered phase kernels against the tree-walking oracle.
//!
//! `run_sequential` walks the IR; every SPMD executor runs kernels
//! lowered once per `(program, bindings, plan)`. These tests hold the
//! two to the same memory bit for bit (reassociated sum reductions to
//! 1e-9), the same bounds panics and the same access trace, and hold
//! the chunked evaluation of innermost loops to the bits of the
//! element-at-a-time one over random loop bodies.

use barrier_elim::analysis::Bindings;
use barrier_elim::interp::{
    run_parallel_observed, run_sequential, run_virtual, AccessKind, Mem, ObserveOptions, Schedule,
    ScheduleOrder, Target, TraceBuffer, Worker,
};
use barrier_elim::ir::build::*;
use barrier_elim::ir::{ArrayId, Program, RedOp};
use barrier_elim::runtime::ProcEnd;
use barrier_elim::runtime::Team;
use barrier_elim::spmd_opt::{fork_join, optimize};
use barrier_elim::suite::{self, Scale};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

const ORDERS: [ScheduleOrder; 3] = [
    ScheduleOrder::RoundRobin,
    ScheduleOrder::Reverse,
    ScheduleOrder::Random(0x5eed),
];

fn has_reduction(prog: &Program) -> bool {
    prog.nodes
        .iter()
        .any(|n| n.as_assign().is_some_and(|a| a.reduction.is_some()))
}

fn has_private_storage(prog: &Program) -> bool {
    prog.arrays.iter().any(|a| a.privatizable) || prog.scalars.iter().any(|s| s.privatizable)
}

/// Largest difference allowed from the sequential result.
fn tolerance(prog: &Program) -> f64 {
    if has_reduction(prog) {
        1e-9
    } else {
        0.0
    }
}

/// Both plans of `prog` on the virtual backend at `P ∈ {1, 2, 3, 4, 8}`
/// under every interleaving, and on real threads at the width of each
/// of `teams` (`P ∈ {2, 4}`).
fn check_program(name: &str, prog: Program, bind_for: &dyn Fn(i64) -> Bindings, teams: &[Team]) {
    let tol = tolerance(&prog);
    let prog = Arc::new(prog);
    for p in [1i64, 2, 3, 4, 8] {
        let bind = Arc::new(bind_for(p));
        let oracle = Mem::new(&prog, &bind);
        run_sequential(&prog, &bind, &oracle);
        for (label, plan) in [
            ("fork-join", fork_join(&prog, &bind)),
            ("optimized", optimize(&prog, &bind)),
        ] {
            for order in ORDERS {
                let mem = Mem::new(&prog, &bind);
                run_virtual(&prog, &bind, &plan, &mem, order);
                let d = mem.max_abs_diff(&oracle);
                assert!(d <= tol, "{name} ({label}, P={p}, {order:?}): off by {d:e}");
            }
            if let Some(team) = teams.iter().find(|t| t.nprocs() as i64 == p) {
                let mem = Arc::new(Mem::new(&prog, &bind));
                let out = run_parallel_observed(
                    &prog,
                    &bind,
                    &plan,
                    &mem,
                    team,
                    &ObserveOptions::default(),
                );
                assert!(out.ok());
                let d = mem.max_abs_diff(&oracle);
                assert!(d <= tol, "{name} ({label}, P={p}, threads): off by {d:e}");
            }
        }
    }
}

fn thread_teams() -> Vec<Team> {
    vec![Team::new(2), Team::new(4)]
}

#[test]
fn suite_kernels_match_the_oracle_at_test_scale() {
    let teams = thread_teams();
    for def in suite::all() {
        let built = (def.build)(Scale::Test);
        check_program(def.name, built.prog.clone(), &|p| built.bindings(p), &teams);
    }
}

#[test]
fn suite_kernels_match_the_oracle_at_small_scale() {
    let teams = thread_teams();
    for def in suite::all() {
        let built = (def.build)(Scale::Small);
        check_program(def.name, built.prog.clone(), &|p| built.bindings(p), &teams);
    }
}

#[test]
fn generated_programs_match_the_oracle() {
    let teams = thread_teams();
    for seed in 0..64 {
        let g = barrier_elim::oracle::generate(seed);
        let name = format!("gen#{seed} ({:?})", g.shape);
        check_program(&name, g.prog.clone(), &|p| g.bindings(p), &teams);
    }
}

/// `DOALL i: DO j = 0..7: A[i][j] = B[i][j+1]` over 4 × 8 arrays. At
/// `j = 7` the subscript leaves dimension 1 but its flat offset
/// (`8i + 8`) is still inside `B` for every row except the last, so a
/// kernel that only checked the flat offset would read the next row.
fn row_overrun() -> (Arc<Program>, Arc<Bindings>) {
    let mut pb = ProgramBuilder::new("overrun");
    let a = pb.array("A", &[con(4), con(8)], dist_block_dim(0));
    let b = pb.array("B", &[con(4), con(8)], dist_block_dim(0));
    let i = pb.begin_par("i", con(0), con(3));
    let j = pb.begin_seq("j", con(0), con(7));
    pb.assign(elem(a, [idx(i), idx(j)]), arr(b, [idx(i), idx(j) + 1]));
    pb.end();
    pb.end();
    (Arc::new(pb.finish()), Arc::new(Bindings::new(2)))
}

const OVERRUN: &str = "subscript 8 out of bounds 0..8 in dim 1";

#[test]
fn leaving_one_dimension_panics_like_the_oracle_on_the_virtual_backend() {
    let (prog, bind) = row_overrun();
    let message = |run: &dyn Fn(&Mem)| -> String {
        let mem = Mem::new(&prog, &bind);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&mem)))
            .expect_err("the overrun must panic");
        *err.downcast::<String>().expect("a formatted message")
    };
    assert_eq!(message(&|mem| run_sequential(&prog, &bind, mem)), OVERRUN);
    for plan in [fork_join(&prog, &bind), optimize(&prog, &bind)] {
        assert_eq!(
            message(&|mem| {
                run_virtual(&prog, &bind, &plan, mem, ScheduleOrder::RoundRobin);
            }),
            OVERRUN
        );
    }
}

#[test]
fn leaving_one_dimension_is_a_panic_failure_on_guarded_threads() {
    let (prog, bind) = row_overrun();
    let team = Team::new(2);
    let plan = optimize(&prog, &bind);
    let mem = Arc::new(Mem::new(&prog, &bind));
    mem.fill(barrier_elim::ir::ArrayId(1), |_| 7.0);
    let out = run_parallel_observed(
        &prog,
        &bind,
        &plan,
        &mem,
        &team,
        &ObserveOptions {
            deadline: Some(Duration::from_secs(5)),
            ..ObserveOptions::default()
        },
    );
    match out
        .failure
        .expect("the overrun must fail the region")
        .cause()
    {
        ProcEnd::Panicked(message) => assert_eq!(message, OVERRUN),
        other => panic!("expected a panic cause, got {other:?}"),
    }
    // Each processor stopped at the offending element of its first row:
    // nothing was read from beyond a row's end.
    let a = mem.array(barrier_elim::ir::ArrayId(0));
    for row in [0, 2] {
        assert_eq!(a.get(&[row, 6]), 7.0);
        assert_eq!(a.get(&[row, 7]), 0.0);
    }
}

type Touches = BTreeMap<(Target, AccessKind), usize>;

fn touches(t: &TraceBuffer) -> Touches {
    let mut m = Touches::new();
    for a in t.drain() {
        *m.entry((a.target, a.kind)).or_default() += 1;
    }
    m
}

fn element_writes(t: &Touches) -> Touches {
    t.iter()
        .filter(|((target, kind), _)| {
            matches!(target, Target::Elem(..)) && *kind == AccessKind::Write
        })
        .map(|(k, v)| (*k, *v))
        .collect()
}

/// What `run_sequential` touches, and what all processors' traced
/// kernels touch over a whole schedule.
fn traced_touches(prog: &Program, bind: &Bindings) -> (Touches, Touches) {
    let tracer = Arc::new(TraceBuffer::new());
    let mem = Mem::new(prog, bind).with_tracer(Arc::clone(&tracer));
    run_sequential(prog, bind, &mem);
    let sequential = touches(&tracer);
    let sched = Schedule::new(prog, bind, &optimize(prog, bind));
    let mem = Mem::new(prog, bind).with_tracer(Arc::clone(&tracer));
    for pid in 0..bind.nprocs as usize {
        Worker::new(&sched, &mem, pid).exec_all();
    }
    (sequential, touches(&tracer))
}

/// The traced kernel instantiation records what the oracle records.
/// Element writes — the checkpoint's write set — agree for every
/// program. The full multiset agrees wherever the SPMD execution does
/// the same accesses: a distributed scalar reduction is one atomic
/// `Reduce` per processor instead of a read and a write per instance,
/// and a replicated phase repeats its shared reads on every processor,
/// so programs with reductions or private storage are held to the
/// write set only.
#[test]
fn traced_kernels_record_what_the_oracle_records() {
    let mut programs: Vec<(String, Program, Bindings)> = Vec::new();
    for def in suite::all() {
        let built = (def.build)(Scale::Test);
        let bind = built.bindings(3);
        programs.push((def.name.to_string(), built.prog, bind));
    }
    for seed in 0..32 {
        let g = barrier_elim::oracle::generate(seed);
        let bind = g.bindings(3);
        programs.push((format!("gen#{seed}"), g.prog, bind));
    }
    let mut exact = 0;
    for (name, prog, bind) in &programs {
        let (sequential, lowered) = traced_touches(prog, bind);
        assert_eq!(
            element_writes(&sequential),
            element_writes(&lowered),
            "{name}: write sets differ"
        );
        if !has_reduction(prog) && !has_private_storage(prog) {
            assert_eq!(sequential, lowered, "{name}: traces differ");
            exact += 1;
        }
    }
    assert!(exact >= 20, "only {exact} programs compared exactly");
}

/// One array access of a generated innermost body, relative to the
/// statement's target `T[i][stride·j + BASE]`.
#[derive(Debug, Clone)]
struct ReadSpec {
    array: u8,
    /// Column coefficient, `-2..=2`; `None` takes the target's, and
    /// then `back` is a dependence distance in iterations.
    stride: Option<i8>,
    /// Read the element the target names `back` iterations earlier
    /// (later when negative).
    back: i8,
    /// Row `i − 1` instead of `i` (sequential outer loop only).
    above: bool,
}

#[derive(Debug, Clone)]
struct StmtSpec {
    /// 0–2: an element of that array; 3: sum into scalar `s`; 4: max
    /// into scalar `m`.
    target: u8,
    stride: i8,
    /// For an element target: 0 assign, 1 sum, 2 max.
    fold: u8,
    reads: Vec<ReadSpec>,
    /// `(kind, bound)`: 1 `j >= b`, 2 `j <= b`, 3 `j == b`, 4 `2j >= b`,
    /// 5 `b − 3j >= 0`; anything else: no guard.
    guard: (u8, i64),
}

#[derive(Debug, Clone)]
struct BodySpec {
    trips: i64,
    outer_par: bool,
    stmts: Vec<StmtSpec>,
}

fn body_strategy() -> impl Strategy<Value = BodySpec> {
    let chunk = barrier_elim::interp::CHUNK as i64;
    let read = (0u8..3, 0u8..5, -2i8..=2, -3i8..=3, 0u8..3).prop_map(
        |(array, own_stride, stride, back, above)| ReadSpec {
            array,
            stride: (own_stride == 0).then_some(stride),
            back,
            above: above == 0,
        },
    );
    let stmt = (
        0u8..5,
        -2i8..=2,
        0u8..3,
        proptest::collection::vec(read, 1..4),
        (0u8..9, -2i64..=2 * chunk + 6),
    )
        .prop_map(|(target, stride, fold, reads, guard)| StmtSpec {
            target,
            stride,
            fold,
            reads,
            guard,
        });
    (
        0usize..7,
        1i64..=3 * chunk,
        0u8..2,
        proptest::collection::vec(stmt, 1..4),
    )
        .prop_map(move |(pick, any, outer, stmts)| BodySpec {
            trips: [1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3, any, any][pick],
            outer_par: outer == 0,
            stmts,
        })
}

/// `DO or DOALL i = 1..4: DO j = 0..trips−1: stmts` over three `5 × w`
/// arrays with distributed rows; a `DOALL` body stays in row `i`.
fn build_body(spec: &BodySpec) -> Program {
    let base = 2 * spec.trips + 8;
    let mut pb = ProgramBuilder::new("random_body");
    let arrays: Vec<_> = (0..3)
        .map(|k| {
            let extents = [con(5), con(2 * base)];
            pb.array(format!("X{k}"), &extents, dist_block_dim(0))
        })
        .collect();
    let s = pb.scalar("s", 0.0);
    let m = pb.scalar("m", -1.0e9);
    let i = if spec.outer_par {
        pb.begin_par("i", con(1), con(4))
    } else {
        pb.begin_seq("i", con(1), con(4))
    };
    let j = pb.begin_seq("j", con(0), con(spec.trips - 1));
    for st in &spec.stmts {
        let column = idx(j) * st.stride as i64 + base;
        let mut rhs = ival(idx(j)) * ex(0.01);
        for (r, weight) in st.reads.iter().zip([0.25, -0.5, 0.375]) {
            let row = if r.above && !spec.outer_par {
                idx(i) - 1
            } else {
                idx(i)
            };
            let col = match r.stride {
                Some(stride) => idx(j) * stride as i64 + base + r.back as i64,
                None => column.clone() - (st.stride as i64 * r.back as i64),
            };
            rhs = rhs + arr(arrays[r.array as usize], [row, col]) * ex(weight);
        }
        let guard = match st.guard {
            (1, b) => Some(ge0(idx(j) - b)),
            (2, b) => Some(le0(idx(j) - b)),
            (3, b) => Some(eq0(idx(j) - b)),
            (4, b) => Some(ge0(idx(j) * 2 - b)),
            (5, b) => Some(ge0(con(b) - idx(j) * 3)),
            _ => None,
        };
        if let Some(g) = guard.clone() {
            pb.begin_guard(vec![g]);
        }
        match (st.target, st.fold) {
            (3, _) => pb.reduce(svar(s), RedOp::Add, rhs),
            (4, _) => pb.reduce(svar(m), RedOp::Max, rhs),
            (a, fold) => {
                let lhs = elem(arrays[a as usize], [idx(i), column]);
                match fold {
                    0 => pb.assign(lhs, rhs),
                    1 => pb.reduce(lhs, RedOp::Add, rhs),
                    _ => pb.reduce(lhs, RedOp::Max, rhs),
                }
            }
        };
        if guard.is_some() {
            pb.end();
        }
    }
    pb.end();
    pb.end();
    pb.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// Random innermost bodies — carried distances 0–3 in either
    /// direction, strides 0, ±1, ±2, other rows, element and scalar
    /// folds, guards — at trip counts around the chunk size: whatever
    /// chunk length they lower with, the kernels leave the bits of the
    /// element-at-a-time evaluator and of `run_sequential` (a scalar sum
    /// split over processors to 1e-9).
    #[test]
    fn random_innermost_bodies_match_the_scalar_order(spec in body_strategy()) {
        let prog = build_body(&spec);
        let fill = |mem: &Mem| {
            for a in 0..3u32 {
                mem.fill(ArrayId(a), |sub| {
                    0.1 + ((sub[0] * 31 + sub[1] * 7 + a as i64 * 5) % 23) as f64 / 7.0
                });
            }
        };
        for p in [1i64, 2, 3] {
            let bind = Bindings::new(p);
            let oracle = Mem::new(&prog, &bind);
            fill(&oracle);
            run_sequential(&prog, &bind, &oracle);
            prop_assert!(oracle.checksum().is_finite());
            let split_sum = p > 1 && spec.outer_par && spec.stmts.iter().any(|st| st.target == 3);
            let tol = if split_sum { 1e-9 } else { 0.0 };
            for plan in [fork_join(&prog, &bind), optimize(&prog, &bind)] {
                let chunked = Mem::new(&prog, &bind);
                let scalar = Mem::new(&prog, &bind).with_tracer(Arc::new(TraceBuffer::new()));
                for mem in [&chunked, &scalar] {
                    fill(mem);
                    run_virtual(&prog, &bind, &plan, mem, ScheduleOrder::Reverse);
                }
                prop_assert_eq!(chunked.max_abs_diff(&scalar), 0.0, "P={}: not the scalar order", p);
                let d = chunked.max_abs_diff(&oracle);
                prop_assert!(d <= tol, "P={}: off the oracle by {:e}", p, d);
            }
        }
    }
}
