//! The synchronization optimizer — the paper's contribution.
//!
//! Starting from a compiler-parallelized program (parallel loop markings
//! + data decompositions), this crate:
//!
//! 1. **forms SPMD regions** by merging adjacent parallel loops together
//!    with replicated (privatizable-scalar) and guarded (master-only)
//!    serial statements, including whole sequential loops whose bodies are
//!    SPMD-able — the hybrid fork-join/SPMD model of §2 (after Cytron et
//!    al.);
//! 2. runs the **greedy barrier-elimination algorithm** of §3.2.2 inside
//!    each region: statements are accumulated into groups; the barrier in
//!    front of the next statement is eliminated when communication
//!    analysis proves no inter-processor data movement, and groups merge;
//! 3. where communication exists but is structured, **replaces the
//!    barrier** with cheaper synchronization: nearest-neighbor post/wait
//!    flags or producer-consumer counters (§3.3);
//! 4. analyzes **loop-carried communication** at the bottom of sequential
//!    loops inside regions, eliminating the bottom barrier or replacing
//!    it with per-iteration pipelining synchronization.
//!
//! The result is an executable [`SpmdProgram`] schedule, consumed by the
//! `interp` crate for both correctness validation and the dynamic
//! synchronization counts of the evaluation.
//!
//! ```
//! use ir::build::*;
//! use analysis::Bindings;
//!
//! // Two aligned parallel loops: the barrier between them is eliminated.
//! let mut pb = ProgramBuilder::new("demo");
//! let n = pb.sym("n");
//! let a = pb.array("A", &[sym(n)], dist_block());
//! let b = pb.array("B", &[sym(n)], dist_block());
//! let i = pb.begin_par("i", con(0), sym(n) - 1);
//! pb.assign(elem(a, [idx(i)]), ival(idx(i)).sin());
//! pb.end();
//! let j = pb.begin_par("j", con(0), sym(n) - 1);
//! pb.assign(elem(b, [idx(j)]), arr(a, [idx(j)]) * ex(2.0));
//! pb.end();
//! let prog = pb.finish();
//!
//! let bind = Bindings::new(8).set(n, 64);
//! let opt = spmd_opt::optimize(&prog, &bind).static_stats();
//! let base = spmd_opt::fork_join(&prog, &bind).static_stats();
//! assert_eq!(opt.barriers, 1);     // only the region-end barrier
//! assert_eq!(opt.eliminated, 1);   // the inter-loop barrier is gone
//! assert_eq!(base.barriers, 2);    // fork-join pays one per loop
//! ```

pub mod build;
pub mod plan;
pub mod report;
pub mod sites;

pub use analysis::{AnalysisConfig, AnalysisStats};
pub use build::{
    fork_join, optimize, optimize_explained, optimize_explained_shared, optimize_logged,
    optimize_with, pair_str, placed_str, Decision, OptimizeOptions,
};
pub use plan::{
    demote_site, demote_sites, set_site_op, site_op_mut, Phase, PhaseKind, RItem, Region,
    SpmdProgram, StaticStats, SyncOp, TopItem,
};
pub use report::render_plan;
pub use sites::{
    counter_numbers, for_each_slot, for_each_slot_mut, node_label, sync_sites, Slot, SlotKind,
    SyncSite,
};
