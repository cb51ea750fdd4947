//! Memory-access tracing for the schedule race validator.
//!
//! A [`TraceBuffer`] attached to a [`Mem`](crate::Mem) records every
//! *shared* memory access the evaluator performs — reads and writes of
//! shared array elements and non-privatizable scalars, plus atomic
//! reduction flushes. Privatizable storage is deliberately excluded:
//! private arrays have per-processor copies and privatizable scalars
//! are written replicated (every processor computes the same value
//! before reading it), so neither can carry cross-processor
//! communication.
//!
//! Because every subscript and guard in the IR is affine in loop
//! indices and symbolic constants — never data-dependent — the set of
//! cells a work event touches does not depend on the *values* in
//! memory. The validator exploits this: it executes each work event
//! against a scratch memory in any convenient order and the recorded
//! access sets are exactly those of a real execution.

use ir::{ArrayId, RedOp, ScalarId};
use std::sync::Mutex;

/// How a cell was touched.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum AccessKind {
    /// Plain load.
    Read,
    /// Plain store (or the store half of a non-atomic read-modify-write).
    Write,
    /// Atomic reduction update under the given operator (commutes with
    /// other such updates of the same cell under the same operator,
    /// conflicts with everything else).
    Reduce(RedOp),
}

/// A traced memory cell.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Target {
    /// Shared array element, identified by its row-major flat offset.
    Elem(ArrayId, u64),
    /// Shared (non-privatizable) scalar.
    Scalar(ScalarId),
}

/// One recorded access.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Access {
    /// The processor that performed the access.
    pub pid: usize,
    /// The cell.
    pub target: Target,
    /// Read, write, or atomic reduction.
    pub kind: AccessKind,
}

/// Accumulates accesses; attach with [`Mem::with_tracer`](crate::Mem::with_tracer)
/// and drain between work events to get per-event access sets.
#[derive(Default)]
pub struct TraceBuffer {
    entries: Mutex<Vec<Access>>,
}

impl TraceBuffer {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one access.
    #[inline]
    pub fn record(&self, pid: usize, target: Target, kind: AccessKind) {
        self.entries
            .lock()
            .unwrap()
            .push(Access { pid, target, kind });
    }

    /// Take everything recorded since the last drain.
    pub fn drain(&self) -> Vec<Access> {
        std::mem::take(&mut *self.entries.lock().unwrap())
    }
}
