//! Affine loop-nest intermediate representation.
//!
//! This crate plays the role of the SUIF IR in the reproduction of
//! *Compiler Optimizations for Eliminating Barrier Synchronization*
//! (Tseng, PPoPP'95): sequential scientific programs are expressed as
//! nests of `DO` loops over statements whose array subscripts and loop
//! bounds are affine in the loop indices and symbolic constants. Loops
//! carry a parallel/sequential marker (the output of a parallelizing
//! front end, which the paper assumes), arrays carry data decompositions
//! (block / cyclic / replicated, the output of the global decomposition
//! pass), and the whole program can be executed by the reference
//! interpreter in `interp`.
//!
//! The representation is an arena: every structural node ([`Node`]) lives
//! in the [`Program`] and is referenced by [`NodeId`], which lets the
//! analyses attach results to nodes and lets the optimizer describe
//! transformed schedules without copying subtrees.
//!
//! Programs are written in the IR's text form, the `.be` dialect that
//! [`text`] parses (every program under `kernels/`), or built directly
//! with the [`build`] DSL (generated and test programs, as below);
//! [`pretty`] prints them.
//!
//! # Example
//!
//! ```
//! use ir::build::*;
//!
//! let mut p = ProgramBuilder::new("saxpy");
//! let n = p.sym("n");
//! let x = p.array("x", &[sym(n)], dist_block());
//! let y = p.array("y", &[sym(n)], dist_block());
//! let i = p.begin_par("i", con(1), sym(n));
//! p.assign(elem(y, [idx(i)]), ex(2.0) * arr(x, [idx(i)]) + arr(y, [idx(i)]));
//! p.end();
//! let prog = p.finish();
//! assert_eq!(prog.parallel_loops().len(), 1);
//! ```

pub mod build;
pub mod decl;
pub mod expr;
pub mod node;
pub mod pretty;
pub mod program;
pub mod text;

pub use decl::{ArrayDecl, ArrayId, DimDist, Distribution, ScalarDecl, ScalarId, SymDecl, SymId};
pub use expr::{AffAtom, Affine, BinOp, Expr, UnOp};
pub use node::{Assign, CmpOp, Guard, GuardCond, LhsRef, Loop, LoopId, LoopKind, Node, RedOp};
pub use program::{NodeId, Program, StmtPath};
