//! Live-in memory checkpoints for retried executions.
//!
//! A recovery retry re-executes a schedule against the memory it
//! started from, so the supervisor must be able to roll back whatever a
//! failed attempt half-wrote. Snapshotting all of memory would work but
//! scales with the footprint, not the damage; instead the checkpoint
//! reuses the access-trace machinery ([`crate::trace`]): because every
//! subscript and guard in the IR is affine in loop indices and symbolic
//! constants — never data-dependent — the set of cells a schedule can
//! write is computable *without* running the real execution, by
//! replaying the work steps against a scratch memory with a tracer
//! attached. The checkpoint stores pre-images of exactly that write
//! set (plus every scalar — they are few and cheap), so
//! [`Checkpoint::rollback`] restores the live-in state bit-for-bit.
//!
//! Privatizable (per-processor) arrays are deliberately excluded:
//! privatizable means written-before-read within the schedule, so a
//! retry can never observe an abandoned attempt's leftovers there.

use crate::events::Schedule;
use crate::kernel::Worker;
use crate::mem::Mem;
use crate::trace::{AccessKind, Target, TraceBuffer};
use analysis::Bindings;
use ir::{ArrayId, Program};
use spmd_opt::SpmdProgram;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Pre-images of every shared cell a plan's walk can write.
pub struct Checkpoint {
    /// `(array, flat offset, f64 bits)` of each shared element in the
    /// write set.
    elems: Vec<(ArrayId, u64, u64)>,
    /// Bits of every scalar, in declaration order.
    scalars: Vec<u64>,
}

impl Checkpoint {
    /// Capture the pre-images of `plan`'s write set from `mem`.
    ///
    /// The write set is derived by executing every work step for every
    /// processor against a scratch memory with an access tracer — legal
    /// in any order precisely because access sets are value-independent
    /// (see the module docs). `mem` itself is only read.
    pub fn capture(prog: &Program, bind: &Bindings, plan: &SpmdProgram, mem: &Mem) -> Checkpoint {
        let sched = Schedule::new(prog, bind, plan);
        let tracer = Arc::new(TraceBuffer::new());
        let scratch = Mem::new(prog, bind).with_tracer(Arc::clone(&tracer));
        for pid in 0..bind.nprocs as usize {
            Worker::new(&sched, &scratch, pid).exec_all();
        }
        let mut written = BTreeSet::new();
        for a in tracer.drain() {
            if matches!(a.kind, AccessKind::Write | AccessKind::Reduce(_)) {
                if let Target::Elem(arr, off) = a.target {
                    written.insert((arr, off));
                }
            }
        }
        let elems = written
            .into_iter()
            .map(|(arr, off)| (arr, off, mem.array(arr).get_linear(off as usize).to_bits()))
            .collect();
        let scalars = (0..prog.scalars.len())
            .map(|k| mem.get_scalar(ir::ScalarId(k as u32)).to_bits())
            .collect();
        Checkpoint { elems, scalars }
    }

    /// Restore every checkpointed cell of `mem` to its pre-image,
    /// bit-for-bit.
    pub fn rollback(&self, mem: &Mem) {
        for &(arr, off, bits) in &self.elems {
            mem.array(arr)
                .set_linear(off as usize, f64::from_bits(bits));
        }
        for (k, &bits) in self.scalars.iter().enumerate() {
            mem.set_scalar(ir::ScalarId(k as u32), f64::from_bits(bits));
        }
    }

    /// Number of array elements in the snapshot (diagnostics — how
    /// "minimal" the checkpoint is relative to the full footprint).
    pub fn elem_cells(&self) -> usize {
        self.elems.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::build::*;
    use spmd_opt::optimize;

    /// DOALL writing B from A: the checkpoint must cover B (the write
    /// set) but not A, and rollback must erase a clobbered run.
    #[test]
    fn checkpoint_covers_exactly_the_write_set_and_rolls_back() {
        let mut pb = ProgramBuilder::new("cp");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let b = pb.array("B", &[sym(n)], dist_block());
        let i = pb.begin_par("i", con(0), sym(n) - 1);
        pb.assign(elem(b, [idx(i)]), arr(a, [idx(i)]) * ex(2.0));
        pb.end();
        let prog = pb.finish();
        let bind = Bindings::new(2).set(n, 8);
        let plan = optimize(&prog, &bind);

        let mem = Mem::new(&prog, &bind);
        mem.fill(a, |s| s[0] as f64);
        mem.fill(b, |s| -(s[0] as f64));
        let cp = Checkpoint::capture(&prog, &bind, &plan, &mem);
        // Only B's 8 elements are writable.
        assert_eq!(cp.elem_cells(), 8);

        // Clobber both arrays, then roll back: B (and scalars) are
        // restored; A was never checkpointed but also never written by
        // the schedule, so the test leaves it alone.
        mem.fill(b, |_| 99.0);
        cp.rollback(&mem);
        for k in 0..8 {
            assert_eq!(mem.array(b).get(&[k]), -(k as f64));
            assert_eq!(mem.array(a).get(&[k]), k as f64);
        }
    }

    #[test]
    fn rollback_restores_scalars_bit_for_bit() {
        let mut pb = ProgramBuilder::new("cps");
        let s = pb.scalar("s", 1.5);
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let i = pb.begin_par("i", con(0), sym(n) - 1);
        pb.assign(elem(a, [idx(i)]), ex(1.0));
        pb.end();
        let prog = pb.finish();
        let bind = Bindings::new(2).set(n, 4);
        let plan = optimize(&prog, &bind);
        let mem = Mem::new(&prog, &bind);
        let cp = Checkpoint::capture(&prog, &bind, &plan, &mem);
        mem.set_scalar(s, f64::NAN);
        mem.array(a).set(&[2], 7.0);
        cp.rollback(&mem);
        assert_eq!(mem.get_scalar(s), 1.5);
        assert_eq!(mem.array(a).get(&[2]), 0.0);
    }
}
