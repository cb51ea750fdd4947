//! The analysis inner loop's allocation invariants, counted by a global
//! allocator that counts only on the thread that asked (the harness runs
//! tests on threads of their own):
//!
//! * a built pair system, once its widest probe has run, answers every
//!   further uncached probe in the buffers that one grew — no allocation
//!   at all — and so does every probe a warm memo answers;
//! * an uncached compile of the 24 suite kernels at P = 8, and one
//!   through a cold memo per compile (the default configuration), stay
//!   within 1.25× the allocation counts written down below, so a change
//!   that puts allocation back on the hot path fails here before it
//!   shows in a timing;
//! * the reference interpreter allocates per run, never per element:
//!   `run_sequential` of jacobi2d makes as many allocations at `n = 64`
//!   as at `n = 32`;
//! * an SPMD run holds its walk in O(loop depth), never per step:
//!   `run_virtual` of copy_chain allocates as many bytes at
//!   `tmax = 4000` as at `tmax = 1000`.

use barrier_elim::analysis::translate::{build_pair_system, PairSystem, SharedLoopMode};
use barrier_elim::analysis::Bindings;
use barrier_elim::ineq::{FmeCache, LinExpr};
use barrier_elim::spmd_opt::{optimize_explained, AnalysisConfig, OptimizeOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    /// Allocations on this thread since counting began, and the bytes
    /// they asked for; `None` when not counting.
    static COUNT: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

fn note(bytes: usize) {
    let _ = COUNT.try_with(|c| c.set(c.get().map(|(n, b)| (n + 1, b + bytes as u64))));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, size: usize) -> *mut u8 {
        note(size);
        System.realloc(ptr, layout, size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations `f` makes on this thread, and the bytes they ask for.
fn allocated(f: impl FnOnce()) -> (u64, u64) {
    COUNT.with(|c| c.set(Some((0, 0))));
    f();
    COUNT.with(|c| c.take()).expect("counting was on")
}

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    allocated(f).0
}

/// Allocations of an uncached compile of the 24 suite kernels
/// (`Scale::Small`) at P = 8, measured when the analysis stopped
/// allocating per probe (debug and release agree; 113 588 before).
const SUITE_P8_ALLOCATIONS: u64 = 9_235;

/// The same compile in the default configuration, a cold memo per
/// compile, measured when the memo came to key each query once (15 458
/// before): each miss copies its key into the table.
const SUITE_P8_COLD_MEMO_ALLOCATIONS: u64 = 11_263;

/// jacobi2d's stencil sweep reads `A(i-1, j)` and the copy-back after it
/// overwrites `A(i2, j2)`: the loop-independent anti pair crosses to the
/// neighbor row block.
fn jacobi2d_anti_pair() -> PairSystem {
    let built = (barrier_elim::suite::by_name("jacobi2d").unwrap().build)(
        barrier_elim::suite::Scale::Small,
    );
    let bind: Bindings = built.bindings(8);
    let st = built.prog.all_statements();
    let (sweep, copy) = (&st[2], &st[3]);
    let (reads, _) = barrier_elim::analysis::comm::stmt_accesses(&built.prog, sweep.node);
    let (writes, _) = barrier_elim::analysis::comm::stmt_accesses(&built.prog, copy.node);
    let mode = SharedLoopMode::SameIteration;
    let mut ps = build_pair_system(&built.prog, &bind, sweep, copy, mode);
    ps.add_elem_equality(&bind, &reads[1].subs, &writes[0].subs);
    ps
}

fn beyond(ps: &PairSystem, hi_is_q: bool, d: i128) -> LinExpr {
    let (hi, lo) = if hi_is_q { (ps.q, ps.p) } else { (ps.p, ps.q) };
    LinExpr::var(hi) - LinExpr::var(lo) - LinExpr::constant(d)
}

/// `q - p == d`, as step 4 asks it: two inequalities.
fn at(ps: &PairSystem, d: i128) -> bool {
    ps.feasible_with(|s| {
        s.add_ge(beyond(ps, true, d));
        s.add_ge(-beyond(ps, true, d));
    })
}

/// The pair's widest probe: a step-4 distance probe, whose elimination
/// grows the scratch to the most rows any probe of this system scans.
fn the_widest(ps: &PairSystem) -> bool {
    at(ps, 1)
}

/// What steps 1, 2 and 4 ask of the pair: the step-1 and step-2 probes,
/// the other distance probe and a repeat of the widest.
fn the_questions(ps: &PairSystem) -> [bool; 6] {
    [
        ps.feasible_with(|s| s.add_ge(beyond(ps, false, 1))),
        ps.feasible_with(|s| s.add_ge(beyond(ps, true, 1))),
        ps.feasible_with(|s| s.add_ge(beyond(ps, true, 2))),
        ps.feasible_with(|s| s.add_ge(beyond(ps, false, 2))),
        at(ps, -1),
        the_widest(ps),
    ]
}

/// The reader owns row i, the writer row i - 1: distance -1 only.
const ANSWERS: [bool; 6] = [true, false, false, false, true, false];

/// Once the widest probe has run, every other probe of the pair, asked
/// for the first time, and a repeat of itself scan in the buffers it
/// left.
#[test]
fn probes_after_the_widest_allocate_nothing() {
    let ps = jacobi2d_anti_pair();
    assert!(!the_widest(&ps), "the first probe");
    let mut answers = [false; 6];
    let count = allocations(|| answers = the_questions(&ps));
    assert_eq!(answers, ANSWERS);
    assert_eq!(count, 0, "uncached probes after the widest allocated");
}

/// A probe a warm memo answers reduces and keys its rows in the same
/// buffers and finds the verdict without copying the key: once one round
/// of hits has settled which of the scratch's swapped row buffers is
/// which (a scan leaves them in another order than a hit does), nothing.
#[test]
fn probes_a_warm_memo_answers_allocate_nothing() {
    let mut ps = jacobi2d_anti_pair();
    let cache = Arc::new(FmeCache::new());
    ps.set_cache(Some(cache.clone()));
    assert_eq!(the_questions(&ps), ANSWERS, "the round that fills the memo");
    assert_eq!(the_questions(&ps), ANSWERS, "the first round of hits");
    let mut answers = [false; 6];
    let count = allocations(|| answers = the_questions(&ps));
    assert_eq!(answers, ANSWERS);
    let st = cache.stats();
    assert_eq!((st.feas_misses, st.feas_hits), (6, 12), "{st:?}");
    assert_eq!(count, 0, "memo hits allocated");
}

fn suite_p8() -> Vec<(barrier_elim::ir::Program, Bindings)> {
    barrier_elim::suite::all()
        .iter()
        .map(|def| {
            let built = (def.build)(barrier_elim::suite::Scale::Small);
            let bind = built.bindings(8);
            (built.prog, bind)
        })
        .collect()
}

/// Allocations of one compile of every suite kernel at P = 8 under
/// `analysis`, within 1.25 × `budget`.
fn within_budget(analysis: AnalysisConfig, budget: u64, what: &str) {
    let instances = suite_p8();
    let opts = OptimizeOptions {
        analysis,
        ..OptimizeOptions::default()
    };
    let count = allocations(|| {
        for (prog, bind) in &instances {
            std::hint::black_box(optimize_explained(prog, bind, opts));
        }
    });
    eprintln!("suite P=8 {what} compile: {count} allocations");
    assert!(
        count * 4 <= budget * 5,
        "{count} allocations, budget 1.25 × {budget}"
    );
}

#[test]
fn an_uncached_suite_compile_stays_within_its_allocation_budget() {
    within_budget(
        AnalysisConfig::sequential_uncached(),
        SUITE_P8_ALLOCATIONS,
        "uncached",
    );
}

#[test]
fn a_cold_memo_suite_compile_stays_within_its_allocation_budget() {
    within_budget(
        AnalysisConfig::default(),
        SUITE_P8_COLD_MEMO_ALLOCATIONS,
        "cold-memo",
    );
}

/// Allocations of `run_sequential` of jacobi2d (`tmax` = 2) at size `n`,
/// memory allocated beforehand.
fn jacobi2d_reference_allocations(n: i64) -> u64 {
    use barrier_elim::ir::SymId;
    let built = (barrier_elim::suite::by_name("jacobi2d").unwrap().build)(
        barrier_elim::suite::Scale::Small,
    );
    let mut bind = built.bindings(2);
    for (k, s) in built.prog.syms.iter().enumerate() {
        match s.name.as_str() {
            "n" => bind.bind(SymId(k as u32), n),
            "tmax" => bind.bind(SymId(k as u32), 2),
            _ => {}
        }
    }
    let mem = barrier_elim::interp::Mem::new(&built.prog, &bind);
    allocations(|| barrier_elim::interp::run_sequential(&built.prog, &bind, &mem))
}

#[test]
fn the_reference_interpreter_allocates_nothing_per_element() {
    let (small, large) = (
        jacobi2d_reference_allocations(32),
        jacobi2d_reference_allocations(64),
    );
    eprintln!("run_sequential jacobi2d: {small} allocations at n = 32, {large} at n = 64");
    assert_eq!(small, large, "allocations grow with the problem size");
}

/// Bytes one `run_virtual` of copy_chain (n = 8, P = 4) allocates at
/// `tmax`, plan and memory built beforehand.
fn copy_chain_virtual_bytes(tmax: i64) -> u64 {
    use barrier_elim::interp::{run_virtual, Mem, ScheduleOrder};
    use barrier_elim::ir::SymId;
    let built = (barrier_elim::suite::by_name("copy_chain").unwrap().build)(
        barrier_elim::suite::Scale::Small,
    );
    let mut bind = built.bindings(4);
    for (k, s) in built.prog.syms.iter().enumerate() {
        match s.name.as_str() {
            "n" => bind.bind(SymId(k as u32), 8),
            "tmax" => bind.bind(SymId(k as u32), tmax),
            _ => {}
        }
    }
    let plan = barrier_elim::spmd_opt::optimize(&built.prog, &bind);
    let mem = Mem::new(&built.prog, &bind);
    let order = ScheduleOrder::RoundRobin;
    allocated(|| {
        std::hint::black_box(run_virtual(&built.prog, &bind, &plan, &mem, order));
    })
    .1
}

#[test]
fn a_virtual_run_allocates_nothing_per_step() {
    let (short, long) = (
        copy_chain_virtual_bytes(1000),
        copy_chain_virtual_bytes(4000),
    );
    eprintln!("run_virtual copy_chain: {short} bytes at tmax = 1000, {long} at tmax = 4000");
    assert_eq!(short, long, "allocated bytes grow with the trip count");
}
