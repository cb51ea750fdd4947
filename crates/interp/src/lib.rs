//! Reference interpreter and SPMD executors.
//!
//! Three ways to run a program, all over the same [`Mem`] storage:
//!
//! * [`run_sequential`] — the original sequential semantics (the oracle
//!   every parallel execution must reproduce);
//! * [`run_virtual`] — executes an optimized [`spmd_opt::SpmdProgram`]
//!   with `P` *virtual* processors on one thread, interleaving their
//!   work chunks in any order permitted by the placed synchronization
//!   (round-robin, reversed, or seeded-random adversarial orders). This
//!   yields deterministic dynamic synchronization counts for any `P`
//!   (the paper's "barriers executed at run time") and doubles as a
//!   soundness oracle: an insufficient sync placement produces wrong
//!   results under some adversarial order;
//! * [`run_parallel`] — executes the walk on real threads
//!   (`runtime::Team`) over the runtime's barrier and post cells, each
//!   worker recording its own sync events, for wall-clock speedup
//!   measurements.
//!
//! The two SPMD executors do not walk the IR: [`Schedule::new`] lowers
//! every phase once per `(program, bindings, plan)` into a flat kernel
//! ([`kernel`]) and the plan's region tree into a walk; each processor
//! walks it with its own [`Cursor`] and runs its share of each work
//! step through a [`Worker`].
//! `run_sequential` is not lowered on purpose — it resolves the program
//! once per run and walks the IR's shape ([`eval`]), the oracle the
//! kernels are compared against.
//!
//! All array and scalar cells are relaxed atomics: the synchronization
//! placed by the optimizer provides the acquire/release ordering, and a
//! mis-placed sync produces wrong *values*, never undefined behaviour.

//! ```
//! use ir::build::*;
//! use analysis::Bindings;
//! use interp::{run_sequential, run_virtual, Mem, ScheduleOrder};
//!
//! let mut pb = ProgramBuilder::new("demo");
//! let n = pb.sym("n");
//! let a = pb.array("A", &[sym(n)], dist_block());
//! let i = pb.begin_par("i", con(0), sym(n) - 1);
//! pb.assign(elem(a, [idx(i)]), ival(idx(i) * 2));
//! pb.end();
//! let prog = pb.finish();
//! let bind = Bindings::new(4).set(n, 16);
//!
//! let oracle = Mem::new(&prog, &bind);
//! run_sequential(&prog, &bind, &oracle);
//!
//! let plan = spmd_opt::optimize(&prog, &bind);
//! let mem = Mem::new(&prog, &bind);
//! let out = run_virtual(&prog, &bind, &plan, &mem, ScheduleOrder::Reverse);
//! assert_eq!(mem.max_abs_diff(&oracle), 0.0);
//! assert_eq!(out.counts.barriers, 1);
//! ```

pub mod checkpoint;
pub mod eval;
pub mod events;
pub mod kernel;
pub mod mem;
pub mod par;
pub mod supervise;
pub mod trace;
pub mod virt;

pub use checkpoint::Checkpoint;
pub use events::{render_events, unroll, Cursor, Event, Schedule, Step, SyncStep};
pub use kernel::{Worker, CHUNK};
pub use mem::Mem;
pub use par::{
    run_parallel, run_parallel_observed, run_parallel_observed_on, ChaosAction, ObserveOptions,
    ParallelOutcome, SyncChaos,
};
pub use supervise::{run_parallel_supervised, Replan, Supervised};
pub use trace::{Access, AccessKind, Target, TraceBuffer};
pub use virt::{run_virtual, run_virtual_traced, ScheduleOrder, VirtualOutcome};

use analysis::Bindings;
use ir::Program;

/// Execute the program with its original sequential semantics.
pub fn run_sequential(prog: &Program, bind: &Bindings, mem: &Mem) {
    eval::run(prog, bind, mem)
}
