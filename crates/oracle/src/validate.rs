//! Static schedule race validator: a happens-before checker over the
//! walk of a plan.
//!
//! Every processor walks the same steps (SPMD replicated control
//! flow), so the validator walks them once, with one cursor, doing two
//! things at every step:
//!
//! 1. **Access collection.** A work step is executed per processor
//!    against a scratch memory with a recording
//!    [`interp::TraceBuffer`] attached, yielding the set
//!    of shared cells each `(step, pid)` touches. Subscripts and
//!    guards are affine in loop indices and symbolic constants — never
//!    data-dependent — so the access sets do not depend on the order
//!    (or the garbage values) of this replay.
//!
//! 2. **Vector clocks.** Each processor's vector clock is kept at
//!    every step. Work steps tick the processor's own component; sync
//!    steps join clocks exactly as the cursor's sync rule permits: a
//!    barrier joins everyone with everyone, a point-to-point sync joins
//!    a processor with the arrival clocks of the processors
//!    [`Cursor::waits`](interp::Cursor::waits) names for it, and the
//!    region dispatch joins workers with the master.
//!
//! Two accesses race when they touch the same cell from different
//! processors, at least one is a write (atomic reductions conflict
//! with reads, writes and reductions under another operator, but
//! commute with their own kind), and neither
//! happens-before the other. A sound schedule — one whose syncs order
//! every cross-processor def/use pair — validates race-free.

use analysis::Bindings;
use interp::{AccessKind, Event, Mem, Schedule, Step, SyncStep, Target, TraceBuffer, Worker};
use ir::Program;
use spmd_opt::SpmdProgram;
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;
use std::sync::Arc;

/// One side of a race.
#[derive(Clone, Copy, Debug)]
pub struct AccessAt {
    /// The step's ordinal in the walk.
    pub event: usize,
    /// The processor.
    pub pid: usize,
    /// Read, write, or reduction.
    pub kind: AccessKind,
}

/// A pair of conflicting, unordered accesses.
#[derive(Clone, Copy, Debug)]
pub struct Race {
    /// The cell both sides touch.
    pub target: Target,
    /// One side.
    pub a: AccessAt,
    /// The other side.
    pub b: AccessAt,
}

impl std::fmt::Display for Race {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?}: p{} {:?} at event {} unordered with p{} {:?} at event {}",
            self.target,
            self.a.pid,
            self.a.kind,
            self.a.event,
            self.b.pid,
            self.b.kind,
            self.b.event
        )
    }
}

/// Outcome of validating one schedule under concrete bindings.
#[derive(Debug, Default)]
pub struct RaceReport {
    /// Unordered conflicting pairs (capped at [`MAX_REPORTED`]).
    pub races: Vec<Race>,
    /// Total number of racing pairs found (uncapped).
    pub num_racing_pairs: usize,
    /// Steps in the walk.
    pub num_events: usize,
    /// Distinct `(event, pid, cell, kind)` accesses examined.
    pub num_accesses: usize,
}

/// Cap on materialized [`Race`] records (the count keeps going).
pub const MAX_REPORTED: usize = 64;

impl RaceReport {
    /// True when no unordered conflicting pair exists.
    pub fn is_race_free(&self) -> bool {
        self.num_racing_pairs == 0
    }
}

fn conflicts(a: AccessKind, b: AccessKind) -> bool {
    use AccessKind::*;
    match (a, b) {
        (Read, Read) => false,
        // Atomic flushes commute only under one operator.
        (Reduce(x), Reduce(y)) => x != y,
        _ => true,
    }
}

fn join(into: &mut [u64], other: &[u64]) {
    for (a, b) in into.iter_mut().zip(other) {
        *a = (*a).max(*b);
    }
}

/// One collected access with the owning processor's clock snapshot.
struct Acc {
    pid: usize,
    event: usize,
    kind: AccessKind,
    clock: Rc<Vec<u64>>,
}

/// `a` happens-before `b`: everything `a`'s processor had done at `a`
/// (including `a` itself) is visible in `b`'s snapshot.
fn hb(a: &Acc, b: &Acc) -> bool {
    a.clock[a.pid] <= b.clock[a.pid]
}

/// Validate a schedule: race-free means every cross-processor
/// conflicting access pair is ordered by the placed synchronization.
pub fn validate(prog: &Program, bind: &Bindings, plan: &SpmdProgram) -> RaceReport {
    let nprocs = bind.nprocs as usize;
    let sched = Schedule::new(prog, bind, plan);
    let tracer = Arc::new(TraceBuffer::new());
    let scratch = Mem::new(prog, bind).with_tracer(Arc::clone(&tracer));
    let mut workers: Vec<Worker> = (0..nprocs)
        .map(|pid| Worker::new(&sched, &scratch, pid))
        .collect();
    let mut clocks: Vec<Vec<u64>> = vec![vec![0; nprocs]; nprocs];
    let mut by_target: HashMap<Target, Vec<Acc>> = HashMap::new();
    let mut num_accesses = 0usize;
    let mut cur = sched.cursor();
    while let Some(Step { ordinal, event }) = cur.next() {
        match event {
            Event::Work { kernel } => {
                for (pid, worker) in workers.iter_mut().enumerate() {
                    worker.exec_work(kernel, &mut cur);
                    let drained = tracer.drain();
                    if drained.is_empty() {
                        continue;
                    }
                    let set: BTreeSet<(Target, AccessKind)> =
                        drained.into_iter().map(|a| (a.target, a.kind)).collect();
                    clocks[pid][pid] += 1;
                    let snap = Rc::new(clocks[pid].clone());
                    for (target, kind) in set {
                        num_accesses += 1;
                        by_target.entry(target).or_default().push(Acc {
                            pid,
                            event: ordinal,
                            kind,
                            clock: Rc::clone(&snap),
                        });
                    }
                }
            }
            Event::Dispatch => {
                let master = clocks[0].clone();
                for c in clocks.iter_mut().skip(1) {
                    join(c, &master);
                }
            }
            Event::Sync { op, .. } => match op {
                SyncStep::Barrier => {
                    let mut all = vec![0u64; nprocs];
                    for c in &clocks {
                        join(&mut all, c);
                    }
                    for c in clocks.iter_mut() {
                        c.copy_from_slice(&all);
                    }
                }
                SyncStep::Cells { .. } => {
                    // A waiter acquires the pre-sync clock of every
                    // processor it waits on (the wait is for that
                    // processor's post at this same replicated step).
                    let pre = clocks.clone();
                    for (p, c) in clocks.iter_mut().enumerate() {
                        for (q, _) in cur.waits(p) {
                            join(c, &pre[q]);
                        }
                    }
                }
            },
        }
    }

    // Race scan: pairwise within each cell's access list.
    let mut report = RaceReport {
        num_events: cur.steps(),
        num_accesses,
        ..RaceReport::default()
    };
    for (target, accs) in &by_target {
        for (x, a) in accs.iter().enumerate() {
            for b in &accs[x + 1..] {
                if a.pid == b.pid || !conflicts(a.kind, b.kind) {
                    continue;
                }
                if hb(a, b) || hb(b, a) {
                    continue;
                }
                report.num_racing_pairs += 1;
                if report.races.len() < MAX_REPORTED {
                    report.races.push(Race {
                        target: *target,
                        a: AccessAt {
                            event: a.event,
                            pid: a.pid,
                            kind: a.kind,
                        },
                        b: AccessAt {
                            event: b.event,
                            pid: b.pid,
                            kind: b.kind,
                        },
                    });
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::build::*;
    use spmd_opt::{fork_join, optimize, SyncOp};

    fn sweep() -> (Program, Bindings) {
        let mut pb = ProgramBuilder::new("sweep");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let b = pb.array("B", &[sym(n)], dist_block());
        let _t = pb.begin_seq("t", con(0), con(3));
        let i = pb.begin_par("i", con(1), sym(n) - 2);
        pb.assign(
            elem(b, [idx(i)]),
            ex(0.5) * (arr(a, [idx(i) - 1]) + arr(a, [idx(i) + 1])),
        );
        pb.end();
        let j = pb.begin_par("j", con(1), sym(n) - 2);
        pb.assign(elem(a, [idx(j)]), arr(b, [idx(j)]));
        pb.end();
        pb.end();
        let prog = pb.finish();
        let bind = Bindings::new(4).set(n, 32);
        (prog, bind)
    }

    #[test]
    fn optimized_and_fork_join_sweeps_are_race_free() {
        let (prog, bind) = sweep();
        for plan in [optimize(&prog, &bind), fork_join(&prog, &bind)] {
            let r = validate(&prog, &bind, &plan);
            assert!(r.is_race_free(), "races: {:?}", r.races);
            assert!(r.num_accesses > 0);
        }
    }

    #[test]
    fn stripping_neighbor_syncs_is_flagged() {
        let (prog, bind) = sweep();
        let mut plan = optimize(&prog, &bind);
        spmd_opt::for_each_slot_mut(&mut plan, |s| {
            if !s.op.is_barrier() {
                *s.op = SyncOp::None;
            }
        });
        let r = validate(&prog, &bind, &plan);
        assert!(!r.is_race_free(), "stripped schedule must race");
    }
}
