//! Dependence, computation-partition, and communication analysis.
//!
//! This crate implements §3.2 of Tseng (PPoPP'95): given a program whose
//! parallel loops and data decompositions are known, it decides — for any
//! pair of statement groups and any loop level — whether *inter-processor
//! data movement* can occur, and if so what shape it has (nearest
//! neighbor, unique producer, or general). The decision procedure encodes
//! loop bounds, guards, computation partitions, and array-subscript
//! equality as a system of symbolic linear inequalities (`ineq` crate)
//! and scans it with Fourier-Motzkin elimination in the paper's variable
//! order.
//!
//! The outputs feed the optimizer in `spmd-opt`: a lattice ([`Comm`]) of
//! nothing, a [`WaitSet`] — whom each processor has to wait for — or
//! everything, labelled ([`CommPattern`]) with the paper's names:
//! * [`CommPattern::NoComm`] — the barrier between the groups can be
//!   **eliminated**;
//! * [`CommPattern::Neighbor`] — a wait set of adjacent processors:
//!   neighbor post/wait flags;
//! * [`CommPattern::Producer1`] — a wait set of one producer: a counter
//!   (unique producer increments, consumers wait);
//! * [`CommPattern::PairWise`] — any other wait set;
//! * [`CommPattern::General`] — the barrier must stay.
//!
//! ```
//! use ir::build::*;
//! use analysis::{Bindings, CommMode, CommPattern, CommQuery};
//!
//! // Producer writes A(i); consumer reads A(j-1): one-element shift.
//! let mut pb = ProgramBuilder::new("shift");
//! let n = pb.sym("n");
//! let a = pb.array("A", &[sym(n)], dist_block());
//! let b = pb.array("B", &[sym(n)], dist_block());
//! let i = pb.begin_par("i", con(0), sym(n) - 1);
//! pb.assign(elem(a, [idx(i)]), ival(idx(i)).sin());
//! pb.end();
//! let j = pb.begin_par("j", con(1), sym(n) - 1);
//! pb.assign(elem(b, [idx(j)]), arr(a, [idx(j) - 1]));
//! pb.end();
//! let prog = pb.finish();
//!
//! let q = CommQuery::new(&prog, Bindings::new(8).set(n, 128));
//! let stmts = prog.all_statements();
//! assert_eq!(
//!     q.comm_stmts(&stmts[0], &stmts[1], CommMode::LoopIndependent),
//!     CommPattern::Neighbor { fwd: true, bwd: false },
//! );
//! ```

pub mod bindings;
pub mod codegen;
pub mod comm;
pub mod dep;
pub mod partition;
pub mod privatization;
pub mod translate;

pub use bindings::Bindings;
pub use codegen::{scan_owned_range, ScannedBounds};
pub use comm::{
    AccessPair, AnalysisConfig, AnalysisStats, Anchor, Comm, CommMode, CommOutcome, CommPattern,
    CommQuery, DepKind, DistSet, Entry, PairProbe, Pin, ProducerSpec, Storage, WaitSet,
    MAX_PAIR_DIST, MAX_PAIR_FANIN,
};
pub use dep::{check_parallel_loops, loop_carries_dependence};
pub use partition::{
    loop_is_replicated, loop_partition, stmt_partition, LoopPartition, OwnerMap, StmtPartition,
};
pub use privatization::check_privatizable;
