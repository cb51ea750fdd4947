//! Systems of symbolic linear inequalities and Fourier-Motzkin elimination.
//!
//! This crate is the mathematical substrate of the barrier-elimination
//! optimizer: it reimplements the inequality machinery the Stanford SUIF
//! compiler used for communication analysis (Amarasinghe & Lam, PLDI'93;
//! Ancourt & Irigoin, PPoPP'91). Local definitions and nonlocal accesses
//! are encoded as conjunctions of affine constraints over four classes of
//! variables — *symbolics*, *processors*, *loop indices*, and *array
//! indices* — and the central question ("can two different processors touch
//! the same array element?") becomes a feasibility test answered by
//! Fourier-Motzkin elimination in that scan order.
//!
//! Everything is exact: constraints carry `i128` integer coefficients and
//! are renormalized by their gcd (with floor tightening of the constant,
//! which makes the test slightly stronger than the pure rational
//! relaxation while remaining sound: *infeasible* answers are always
//! correct for integers, *feasible* answers are conservative).
//!
//! # Quick example
//!
//! ```
//! use ineq::{VarTable, VarKind, System, LinExpr};
//!
//! let mut vt = VarTable::new();
//! let i = vt.fresh("i", VarKind::LoopIndex);
//! // 1 <= i <= 10  and  i == 42  is infeasible
//! let mut sys = System::new();
//! sys.add_ge(LinExpr::var(i) - LinExpr::constant(1));   // i - 1 >= 0
//! sys.add_ge(LinExpr::constant(10) - LinExpr::var(i));  // 10 - i >= 0
//! sys.add_eq(LinExpr::var(i) - LinExpr::constant(42));  // i == 42
//! assert!(!sys.is_consistent(&vt));
//! ```

pub mod arith;
pub mod cache;
pub mod constraint;
pub mod linexpr;
pub mod probe;
pub mod rows;
pub mod scan;
pub mod snapshot;
pub mod system;
pub mod var;

pub use arith::Overflow;
pub use cache::{canonicalize, CanonicalSystem, FmeCache, FmeCacheStats};
pub use constraint::{Constraint, ConstraintKind};
pub use linexpr::LinExpr;
pub use probe::{BaseRows, ProbeScratch};
pub use rows::Rows;
pub use scan::{BoundExpr, VarBounds};
pub use snapshot::{
    decode_snapshot, encode_snapshot, load_snapshot, write_snapshot, SnapshotCorrupt, SnapshotLoad,
    SNAPSHOT_MAGIC, SNAPSHOT_SCHEMA_VERSION,
};
pub use system::{Feasibility, IntSearch, System, MAX_FEAS_CONSTRAINTS};
pub use var::{VarId, VarKind, VarTable};
