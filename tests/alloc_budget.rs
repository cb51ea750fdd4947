//! The analysis inner loop's allocation invariants, counted by a global
//! allocator that counts only on the thread that asked (the harness runs
//! tests on threads of their own):
//!
//! * a built pair system, once its widest probe has run, answers every
//!   further uncached probe in the buffers that one grew — no allocation
//!   at all;
//! * an uncached compile of the 24 suite kernels at P = 8 stays within
//!   1.25× the allocation count written down below, so a change that
//!   puts allocation back on the hot path fails here before it shows in
//!   a timing.

use barrier_elim::analysis::translate::{build_pair_system, SharedLoopMode};
use barrier_elim::analysis::Bindings;
use barrier_elim::ineq::LinExpr;
use barrier_elim::spmd_opt::{optimize_explained, AnalysisConfig, OptimizeOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations on this thread since counting began; `None` when not
    /// counting.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note() {
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    COUNT.with(|c| c.set(Some(0)));
    f();
    COUNT.with(|c| c.take()).expect("counting was on")
}

/// Allocations of an uncached compile of the 24 suite kernels
/// (`Scale::Small`) at P = 8, measured when the analysis stopped
/// allocating per probe (debug and release agree; 113 588 before).
const SUITE_P8_ALLOCATIONS: u64 = 9_235;

/// jacobi2d's stencil sweep reads `A(i-1, j)` and the copy-back after it
/// overwrites `A(i2, j2)`: the loop-independent anti pair crosses to the
/// neighbor row block. Its widest probe is a step-4 distance probe, whose
/// elimination grows the scratch to the most rows any probe of this
/// system scans; once it has run, the step-1 and step-2 probes, the other
/// distance probe and a repeat of itself all scan in the buffers it left.
#[test]
fn probes_after_the_widest_allocate_nothing() {
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
    let (p, q) = (ps.p, ps.q);
    let beyond = |hi, lo, d| LinExpr::var(hi) - LinExpr::var(lo) - LinExpr::constant(d);
    // q - p == d, as step 4 asks it: two inequalities.
    let at = |d| {
        ps.feasible_with(|s| {
            s.add_ge(beyond(q, p, d));
            s.add_ge(-beyond(q, p, d));
        })
    };
    // The reader owns row i, the writer row i - 1: distance -1 only.
    assert!(!at(1), "the first probe");
    let mut answers = Vec::with_capacity(8);
    let count = allocations(|| {
        answers.push(ps.feasible_with(|s| s.add_ge(beyond(p, q, 1))));
        answers.push(ps.feasible_with(|s| s.add_ge(beyond(q, p, 1))));
        answers.push(ps.feasible_with(|s| s.add_ge(beyond(q, p, 2))));
        answers.push(ps.feasible_with(|s| s.add_ge(beyond(p, q, 2))));
        answers.push(at(-1));
        answers.push(at(1));
    });
    assert_eq!(answers, [true, false, false, false, true, false]);
    assert_eq!(count, 0, "uncached probes after the widest allocated");
}

#[test]
fn an_uncached_suite_compile_stays_within_its_allocation_budget() {
    let instances: Vec<_> = barrier_elim::suite::all()
        .iter()
        .map(|def| {
            let built = (def.build)(barrier_elim::suite::Scale::Small);
            let bind = built.bindings(8);
            (built.prog, bind)
        })
        .collect();
    let opts = OptimizeOptions {
        analysis: AnalysisConfig::sequential_uncached(),
        ..OptimizeOptions::default()
    };
    let count = allocations(|| {
        for (prog, bind) in &instances {
            std::hint::black_box(optimize_explained(prog, bind, opts));
        }
    });
    eprintln!("suite P=8 uncached compile: {count} allocations");
    assert!(
        count * 4 <= SUITE_P8_ALLOCATIONS * 5,
        "{count} allocations, budget 1.25 × {SUITE_P8_ALLOCATIONS}"
    );
}
