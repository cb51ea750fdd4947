//! Lowered phase kernels: what a processor executes for one work event.
//!
//! [`unroll`](crate::events::unroll) lowers every phase subtree of a
//! plan once per `(program, bindings, plan)` into a [`Code`] table, and
//! a per-processor [`Worker`] then runs kernels out of that table:
//!
//! * loop bounds, guards, owner subscripts and array subscripts are
//!   integer linear forms ([`Lin`]) over a dense loop-slot array (slot
//!   = `LoopId`), with every symbolic constant folded into the constant
//!   term;
//! * an array access is a list of per-dimension `(extent, stride,
//!   subscript)` triples taken from [`row_major_strides`], so its
//!   address is `Σ stride·subscript` with the per-dimension bounds
//!   check of [`ArrayStore`](crate::mem::ArrayStore) kept;
//! * a right-hand side is a postfix program over a small value stack;
//! * the owner-computes share of a distributed loop ([`Split`]) is
//!   evaluated per event from precomputed coefficients.
//!
//! **Bounds contract.** Every access is checked per dimension before
//! memory is touched, with the panic message of `ArrayStore`. For an
//! innermost loop (statements and guards, no loop inside) the check is
//! hoisted to the loop header: subscripts are affine in the loop index,
//! so both end iterations in bounds means every iteration is, and the
//! loop then advances precomputed flat offsets. When an end iteration
//! is out of bounds the loop runs the per-element check instead, which
//! panics at exactly the iteration the tree walker would (or not at
//! all, when a guard keeps the statement from running there).
//!
//! **Tracing contract.** A kernel is compiled twice (`const TRACE`);
//! the worker picks one instantiation when it is built, from whether
//! the memory has a tracer. The traced one records the same
//! `(Target, AccessKind)` sequence per statement as the reference
//! evaluator (`crate::eval`), privatizable storage excluded.
//!
//! `run_sequential` is deliberately *not* lowered: it stays the
//! independent tree-walking oracle every kernel is compared against.

use crate::events::{Event, Schedule, NO_FRAME};
use crate::mem::{row_major_strides, subscript_out_of_bounds, Mem};
use crate::trace::{AccessKind, Target, TraceBuffer};
use analysis::{Bindings, LoopPartition, OwnerMap};
use ineq::rational::{div_ceil, div_floor};
use ir::{
    AffAtom, Affine, ArrayId, Assign, BinOp, CmpOp, Expr, LhsRef, LoopId, Node, NodeId, Program,
    RedOp, ScalarId, UnOp,
};
use spmd_opt::PhaseKind;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// `c + Σ coeff·slot` with the terms in [`Code::terms`].
#[derive(Clone, Copy, Debug)]
struct Lin {
    c: i64,
    t0: u32,
    t1: u32,
}

#[derive(Clone, Copy, Debug)]
struct Term {
    slot: u32,
    coeff: i64,
}

#[derive(Clone, Copy, Debug)]
struct Cond {
    lin: Lin,
    op: CmpOp,
}

/// One dimension of an array access.
#[derive(Clone, Copy, Debug)]
struct Dim {
    extent: i64,
    stride: i64,
    sub: Lin,
    /// Coefficient of the enclosing innermost loop's index in `sub` (0
    /// when the access is not in a loop).
    inner: i64,
}

#[derive(Clone, Copy, Debug)]
struct Access {
    array: ArrayId,
    /// Shared (traced, one store) as opposed to one copy per processor.
    shared: bool,
    d0: u32,
    d1: u32,
}

/// Postfix right-hand-side program.
#[derive(Clone, Copy, Debug)]
enum Instr {
    Lit(f64),
    Idx(Lin),
    Scalar { id: ScalarId, traced: bool },
    Load(u32),
    Bin(BinOp),
    Un(UnOp),
}

#[derive(Clone, Copy, Debug)]
enum Lhs {
    Scalar {
        id: ScalarId,
        traced: bool,
    },
    /// Non-atomic read-modify-write (serial / master / replicated).
    ScalarRmw {
        id: ScalarId,
        op: RedOp,
        traced: bool,
    },
    /// Per-processor partial of a distributed phase (an index into
    /// [`Code::partials`]), flushed atomically when the phase ends.
    Partial(u32),
    Elem {
        acc: u32,
        red: Option<RedOp>,
    },
}

/// Which processor owns the element a subscript names.
#[derive(Clone, Copy, Debug)]
struct Owner {
    dist: OwnerMap,
    sub: Lin,
}

#[derive(Clone, Copy, Debug)]
struct Stmt {
    i0: u32,
    i1: u32,
    lhs: Lhs,
    /// Statement-level ownership test ([`Split::PerStmt`] kernels).
    owner: Option<Owner>,
}

#[derive(Clone, Copy, Debug)]
struct LoopOp {
    slot: u32,
    lo: Lin,
    hi: Lin,
    /// Index past the last op of the body.
    end: u32,
    /// The body's accesses, when the body holds no further loop.
    leaf: Option<(u32, u32)>,
}

/// Structured control flow laid out flat: a loop's or guard's body is
/// the ops between it and its `end`.
#[derive(Clone, Copy, Debug)]
enum Op {
    Loop(LoopOp),
    Guard { c0: u32, c1: u32, end: u32 },
    Stmt(u32),
}

/// The iterations of a distributed loop one processor executes.
#[derive(Clone, Copy, Debug)]
enum Split {
    /// Undetermined partition: the master runs every iteration.
    MasterAll,
    /// Block partition of the iteration space.
    BlockIndex { plo: i64, block: i64 },
    /// `pid·block <= a·i + rest < (pid+1)·block`, `a != 0`.
    BlockRange { a: i64, rest: Lin, block: i64 },
    /// `(a·i + rest) mod P == pid`, `a = ±1`.
    CyclicStride { a: i64, rest: Lin },
    /// The owner does not depend on the iteration: all or nothing.
    Fixed(Owner),
    /// Evaluate the owner of every iteration.
    PerIter(Owner),
    /// The owner depends on inner loop indices: every statement carries
    /// its own test.
    PerStmt,
}

#[derive(Clone, Copy, Debug)]
enum Who {
    /// Master only (serial sections and master phases).
    Master,
    /// Every processor, whole subtree (replicated computation).
    All,
    /// Every processor, its share of the loop at `ops[o0]`.
    Split(Split),
}

#[derive(Clone, Debug)]
pub(crate) struct Kernel {
    /// The phase subtree (for span names).
    pub(crate) node: NodeId,
    /// What was lowered and how the work divides, for rendering.
    pub(crate) label: &'static str,
    who: Who,
    o0: u32,
    o1: u32,
}

/// Everything lowered for one schedule.
#[derive(Default)]
pub(crate) struct Code {
    terms: Vec<Term>,
    conds: Vec<Cond>,
    dims: Vec<Dim>,
    accs: Vec<Access>,
    instrs: Vec<Instr>,
    stmts: Vec<Stmt>,
    ops: Vec<Op>,
    /// Scalar reductions accumulated per processor, one per distinct
    /// `(scalar, operator)` of each distributed kernel.
    partials: Vec<(ScalarId, RedOp)>,
    pub(crate) kernels: Vec<Kernel>,
    /// Extents the accesses were lowered against, per array, and their
    /// row-major strides.
    extents: Vec<Vec<i64>>,
    strides: Vec<Vec<i64>>,
    num_slots: usize,
    max_stack: usize,
}

/// What the statements being lowered sit under.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    /// Scalar reductions go to per-processor partials.
    partial: bool,
    /// Statement-level owner test to attach.
    owner: Option<(OwnerMap, &'a Affine)>,
    /// Slot of the innermost loop around the statement.
    leaf: Option<u32>,
}

/// Lowers phase subtrees into a [`Code`] table.
pub(crate) struct Lowerer<'a> {
    prog: &'a Program,
    bind: &'a Bindings,
    /// Loops whose index is defined where the node being lowered sits.
    in_scope: Vec<bool>,
    /// First partial of the kernel being lowered.
    r0: usize,
    code: Code,
}

impl<'a> Lowerer<'a> {
    pub(crate) fn new(prog: &'a Program, bind: &'a Bindings) -> Self {
        let extents: Vec<Vec<i64>> = prog
            .arrays
            .iter()
            .map(|a| {
                a.extents
                    .iter()
                    .map(|e| {
                        bind.eval_const(e)
                            .unwrap_or_else(|| panic!("unbound extent for array {}", a.name))
                    })
                    .collect()
            })
            .collect();
        let strides = extents.iter().map(|e| row_major_strides(e)).collect();
        Lowerer {
            prog,
            bind,
            in_scope: vec![false; prog.num_loops as usize],
            r0: 0,
            code: Code {
                extents,
                strides,
                num_slots: prog.num_loops as usize,
                ..Code::default()
            },
        }
    }

    pub(crate) fn finish(self) -> Code {
        self.code
    }

    /// Lower a phase, or with no `kind` a serial section (master only,
    /// sequential semantics); returns the kernel's index. `bound` tells
    /// which loop indices the event's frame defines.
    pub(crate) fn kernel(
        &mut self,
        node: NodeId,
        kind: Option<&PhaseKind>,
        bound: &dyn Fn(LoopId) -> bool,
    ) -> u32 {
        for (l, s) in self.in_scope.iter_mut().enumerate() {
            *s = bound(LoopId(l as u32));
        }
        let o0 = self.code.ops.len() as u32;
        self.r0 = self.code.partials.len();
        let seq = Ctx {
            partial: false,
            owner: None,
            leaf: None,
        };
        let (label, who) = match kind {
            None | Some(PhaseKind::Master) => {
                self.node(node, seq);
                let label = if kind.is_none() {
                    "serial"
                } else {
                    "work(master)"
                };
                (label, Who::Master)
            }
            Some(PhaseKind::Replicated) => {
                self.node(node, seq);
                ("work(repl)", Who::All)
            }
            Some(PhaseKind::Par { partition }) => {
                ("work(par)", Who::Split(self.split_loop(node, partition)))
            }
        };
        self.code.kernels.push(Kernel {
            node,
            label,
            who,
            o0,
            o1: self.code.ops.len() as u32,
        });
        self.code.kernels.len() as u32 - 1
    }

    /// Lower a distributed loop and decide how its iterations divide.
    /// Which shape applies is static: it depends only on the partition
    /// and on which loops the owner subscript mentions.
    fn split_loop(&mut self, node: NodeId, partition: &LoopPartition) -> Split {
        let l = self.prog.expect_loop(node);
        let phase = AffAtom::Loop(l.id);
        // The owner subscript with the distributed loop's term removed,
        // when everything left is defined at the loop header.
        let rest_of = |this: &mut Self, sub: &Affine| -> Option<Lin> {
            let mut rest = sub.clone();
            rest.set_coeff(phase, 0);
            let known = rest.loops().all(|x| this.in_scope[x.0 as usize]);
            known.then(|| this.lin(&rest))
        };
        let (dist, sub) = match partition {
            LoopPartition::Unknown | LoopPartition::SymbolicBlockOwner { .. } => {
                self.par_loop(node, None);
                return Split::MasterAll;
            }
            LoopPartition::BlockIndex { lo, block, .. } => {
                self.par_loop(node, None);
                return Split::BlockIndex {
                    plo: *lo,
                    block: *block,
                };
            }
            LoopPartition::BlockOwner { block, sub, .. } => (OwnerMap::Block(*block), sub),
            LoopPartition::CyclicOwner { sub, .. } => (OwnerMap::Cyclic, sub),
            LoopPartition::BlockCyclicOwner { block, sub, .. } => {
                (OwnerMap::BlockCyclic(*block), sub)
            }
        };
        let a = sub.coeff(phase);
        let Some(rest) = rest_of(self, sub) else {
            self.par_loop(node, Some((dist, sub)));
            return Split::PerStmt;
        };
        self.par_loop(node, None);
        match dist {
            _ if a == 0 => Split::Fixed(Owner { dist, sub: rest }),
            OwnerMap::Block(block) => Split::BlockRange { a, rest, block },
            OwnerMap::Cyclic if a.abs() == 1 => Split::CyclicStride { a, rest },
            OwnerMap::Cyclic | OwnerMap::BlockCyclic(_) => {
                self.in_scope[l.id.0 as usize] = true;
                let sub = self.lin(sub);
                self.in_scope[l.id.0 as usize] = false;
                Split::PerIter(Owner { dist, sub })
            }
        }
    }

    fn par_loop(&mut self, node: NodeId, owner: Option<(OwnerMap, &Affine)>) {
        self.node(
            node,
            Ctx {
                partial: true,
                owner,
                leaf: None,
            },
        );
    }

    fn lin(&mut self, e: &Affine) -> Lin {
        let mut c = e.constant_term();
        let t0 = self.code.terms.len() as u32;
        for (atom, coeff) in e.terms() {
            match atom {
                AffAtom::Sym(s) => {
                    c += coeff * self.bind.get(s).expect("unbound atom in affine expression")
                }
                AffAtom::Loop(l) => {
                    assert!(
                        self.in_scope[l.0 as usize],
                        "unbound atom in affine expression"
                    );
                    self.code.terms.push(Term { slot: l.0, coeff });
                }
            }
        }
        Lin {
            c,
            t0,
            t1: self.code.terms.len() as u32,
        }
    }

    fn node(&mut self, node: NodeId, ctx: Ctx) {
        let prog = self.prog;
        match prog.node(node) {
            Node::Assign(a) => self.assign(a, ctx),
            Node::Guard(g) => {
                let c0 = self.code.conds.len() as u32;
                for c in &g.conds {
                    let lin = self.lin(&c.expr);
                    self.code.conds.push(Cond { lin, op: c.op });
                }
                let c1 = self.code.conds.len() as u32;
                let at = self.code.ops.len();
                self.code.ops.push(Op::Guard { c0, c1, end: 0 });
                for &child in &g.body {
                    self.node(child, ctx);
                }
                let past = self.code.ops.len() as u32;
                if let Op::Guard { end, .. } = &mut self.code.ops[at] {
                    *end = past;
                }
            }
            Node::Loop(l) => {
                let (lo, hi) = (self.lin(&l.lo), self.lin(&l.hi));
                let mut innermost = true;
                for &child in &l.body {
                    prog.walk(child, &mut |n, _| {
                        innermost &= !matches!(prog.node(n), Node::Loop(_));
                    });
                }
                let at = self.code.ops.len();
                let a0 = self.code.accs.len() as u32;
                self.code.ops.push(Op::Stmt(0));
                self.in_scope[l.id.0 as usize] = true;
                for &child in &l.body {
                    let leaf = innermost.then_some(l.id.0);
                    self.node(child, Ctx { leaf, ..ctx });
                }
                self.in_scope[l.id.0 as usize] = false;
                self.code.ops[at] = Op::Loop(LoopOp {
                    slot: l.id.0,
                    lo,
                    hi,
                    end: self.code.ops.len() as u32,
                    leaf: innermost.then_some((a0, self.code.accs.len() as u32)),
                });
            }
        }
    }

    fn assign(&mut self, a: &Assign, ctx: Ctx) {
        let owner = match ctx.owner {
            // An owner subscript naming a loop that does not enclose
            // the statement has no value there: nobody owns it.
            Some((_, sub)) if !sub.loops().all(|l| self.in_scope[l.0 as usize]) => return,
            Some((dist, sub)) => Some(Owner {
                dist,
                sub: self.lin(sub),
            }),
            None => None,
        };
        let i0 = self.code.instrs.len() as u32;
        let depth = self.expr(&a.rhs, ctx.leaf);
        self.code.max_stack = self.code.max_stack.max(depth);
        let i1 = self.code.instrs.len() as u32;
        let lhs = match (&a.lhs, a.reduction) {
            (LhsRef::Scalar(s), None) => Lhs::Scalar {
                id: *s,
                traced: !self.prog.scalar(*s).privatizable,
            },
            (LhsRef::Scalar(s), Some(op)) if ctx.partial => {
                let mine = &self.code.partials[self.r0..];
                let k = mine.iter().position(|p| *p == (*s, op)).unwrap_or_else(|| {
                    self.code.partials.push((*s, op));
                    self.code.partials.len() - 1 - self.r0
                });
                Lhs::Partial((self.r0 + k) as u32)
            }
            (LhsRef::Scalar(s), Some(op)) => Lhs::ScalarRmw {
                id: *s,
                op,
                traced: !self.prog.scalar(*s).privatizable,
            },
            (LhsRef::Elem(arr, subs), red) => Lhs::Elem {
                acc: self.access(*arr, subs, ctx.leaf),
                red,
            },
        };
        self.code.stmts.push(Stmt { i0, i1, lhs, owner });
        self.code
            .ops
            .push(Op::Stmt(self.code.stmts.len() as u32 - 1));
    }

    fn access(&mut self, array: ArrayId, subs: &[Affine], leaf: Option<u32>) -> u32 {
        debug_assert_eq!(subs.len(), self.code.extents[array.0 as usize].len());
        let d0 = self.code.dims.len() as u32;
        for (k, sub) in subs.iter().enumerate() {
            let dim = Dim {
                extent: self.code.extents[array.0 as usize][k],
                stride: self.code.strides[array.0 as usize][k],
                sub: self.lin(sub),
                inner: leaf.map_or(0, |s| sub.coeff(AffAtom::Loop(LoopId(s)))),
            };
            self.code.dims.push(dim);
        }
        self.code.accs.push(Access {
            array,
            shared: !self.prog.array(array).privatizable,
            d0,
            d1: self.code.dims.len() as u32,
        });
        self.code.accs.len() as u32 - 1
    }

    /// Emit `e` in evaluation order; returns the stack depth it needs.
    fn expr(&mut self, e: &Expr, leaf: Option<u32>) -> usize {
        let (ins, depth) = match e {
            Expr::Lit(v) => (Instr::Lit(*v), 1),
            Expr::Idx(a) => (Instr::Idx(self.lin(a)), 1),
            Expr::Scalar(s) => (
                Instr::Scalar {
                    id: *s,
                    traced: !self.prog.scalar(*s).privatizable,
                },
                1,
            ),
            Expr::Elem(a, subs) => (Instr::Load(self.access(*a, subs, leaf)), 1),
            Expr::Bin(op, l, r) => {
                let dl = self.expr(l, leaf);
                let dr = self.expr(r, leaf);
                (Instr::Bin(*op), dl.max(dr + 1))
            }
            Expr::Un(op, a) => (Instr::Un(*op), self.expr(a, leaf)),
        };
        self.code.instrs.push(ins);
        depth
    }
}

/// The parts of a worker no kernel mutates.
struct Cx<'a> {
    code: &'a Code,
    mem: &'a Mem,
    tracer: Option<&'a TraceBuffer>,
    pid: usize,
    nprocs: i64,
}

/// Run-time state of one access.
struct Live<'a> {
    /// Cells of the array, as this processor sees it.
    cells: &'a [AtomicU64],
    /// Flat offset at the current iteration of the hoisted loop the
    /// access sits in, and what one iteration adds to it.
    off: i64,
    step: i64,
}

/// One processor's executor for the work events of a schedule: the
/// kernel table plus the scratch state kernels run in (loop slots,
/// value stack, hoisted offsets, reduction partials), allocated once
/// per run instead of once per event.
pub struct Worker<'a> {
    cx: Cx<'a>,
    sched: &'a Schedule,
    run: fn(&mut Worker<'a>, &Kernel),
    slots: Vec<i64>,
    stack: Vec<f64>,
    /// Per access of the schedule.
    live: Vec<Live<'a>>,
    /// Partial-reduction registers, and those the running kernel has
    /// touched, in first-touch order (the flush order).
    partials: Vec<f64>,
    touched: Vec<u32>,
}

impl<'a> Worker<'a> {
    /// Processor `pid`'s executor over `mem`, which must have the shape
    /// the schedule was unrolled for.
    pub fn new(sched: &'a Schedule, mem: &'a Mem, pid: usize) -> Self {
        let code = sched.code();
        for (a, extents) in code.extents.iter().enumerate() {
            assert_eq!(
                &mem.array(ArrayId(a as u32)).extents,
                extents,
                "memory shape differs from the schedule's bindings"
            );
        }
        let live = code
            .accs
            .iter()
            .map(|a| Live {
                cells: mem.array_view(a.array, pid).cells(),
                off: 0,
                step: 0,
            })
            .collect();
        let tracer = mem.tracer();
        Worker {
            cx: Cx {
                code,
                mem,
                tracer,
                pid,
                nprocs: sched.nprocs(),
            },
            sched,
            run: if tracer.is_some() {
                Worker::run::<true>
            } else {
                Worker::run::<false>
            },
            slots: vec![0; code.num_slots],
            stack: vec![0.0; code.max_stack],
            live,
            partials: vec![0.0; code.partials.len()],
            touched: Vec::new(),
        }
    }

    /// Execute one work event as this worker's processor.
    pub fn exec_work(&mut self, ev: &Event) {
        let Event::Work { kernel, frame } = *ev else {
            unreachable!("not a work event")
        };
        let (code, sched) = (self.cx.code, self.sched);
        let k = &code.kernels[kernel as usize];
        let master_only = matches!(k.who, Who::Master | Who::Split(Split::MasterAll));
        if master_only && self.cx.pid != 0 {
            return;
        }
        let mut f = frame;
        while f != NO_FRAME {
            let fr = sched.frame(f);
            self.slots[fr.slot as usize] = fr.val;
            f = fr.parent;
        }
        (self.run)(self, k);
    }

    fn run<const TRACE: bool>(&mut self, k: &Kernel) {
        let (o0, o1) = (k.o0 as usize, k.o1 as usize);
        let Who::Split(split) = k.who else {
            return self.run_ops::<TRACE, false>(o0, o1);
        };
        let Op::Loop(l) = self.cx.code.ops[o0] else {
            unreachable!("a distributed phase is a loop")
        };
        self.touched.clear();
        let cx = &self.cx;
        let (lo, hi) = (cx.eval(&l.lo, &self.slots), cx.eval(&l.hi, &self.slots));
        let (pid, p) = (cx.pid as i64, cx.nprocs);
        match split {
            // Every iteration: `exec_work` lets only the master get
            // here for `MasterAll`, and `PerStmt` statements test their
            // own owner.
            Split::MasterAll | Split::PerStmt => self.run_loop::<TRACE>(&l, o0 + 1, lo, 1, hi),
            Split::BlockIndex { plo, block } => {
                let a = (plo + pid * block).max(lo);
                let b = (plo + (pid + 1) * block - 1).min(hi);
                self.run_loop::<TRACE>(&l, o0 + 1, a, 1, b);
            }
            Split::BlockRange { a, rest, block } => {
                let r = cx.eval(&rest, &self.slots);
                // pid*block <= a*i + r <= pid*block + block - 1
                let lo_own = (pid * block - r) as i128;
                let hi_own = (pid * block + block - 1 - r) as i128;
                let (ilo, ihi) = if a > 0 {
                    (div_ceil(lo_own, a as i128), div_floor(hi_own, a as i128))
                } else {
                    (div_ceil(hi_own, a as i128), div_floor(lo_own, a as i128))
                };
                let (ilo, ihi) = (ilo.max(lo as i128), ihi.min(hi as i128));
                self.run_loop::<TRACE>(&l, o0 + 1, ilo as i64, 1, ihi as i64);
            }
            Split::CyclicStride { a, rest } => {
                // (a*i + r) mod P == pid  =>  i ≡ a*(pid - r) (mod P)
                let r = cx.eval(&rest, &self.slots);
                let residue = (a * (pid - r)).rem_euclid(p);
                let start = lo + (residue - lo).rem_euclid(p);
                self.run_loop::<TRACE>(&l, o0 + 1, start, p, hi);
            }
            Split::Fixed(owner) => {
                if cx.owner(&owner, &self.slots) == pid {
                    self.run_loop::<TRACE>(&l, o0 + 1, lo, 1, hi);
                }
            }
            Split::PerIter(owner) => {
                for i in lo..=hi {
                    self.slots[l.slot as usize] = i;
                    if self.cx.owner(&owner, &self.slots) == pid {
                        self.run_loop::<TRACE>(&l, o0 + 1, i, 1, i);
                    }
                }
            }
        }
        for &t in &self.touched {
            let (s, op) = self.cx.code.partials[t as usize];
            if TRACE {
                self.cx.trace(Target::Scalar(s), AccessKind::Reduce);
            }
            self.cx.mem.reduce_scalar(s, op, self.partials[t as usize]);
        }
    }

    /// The ops `pc..end`. `HOISTED`: they are the body of an innermost
    /// loop whose accesses were proved in bounds (see [`Worker::hoist`]).
    fn run_ops<const TRACE: bool, const HOISTED: bool>(&mut self, mut pc: usize, end: usize) {
        let code = self.cx.code;
        while pc < end {
            match code.ops[pc] {
                Op::Stmt(s) => {
                    self.run_stmt::<TRACE, HOISTED>(&code.stmts[s as usize]);
                    pc += 1;
                }
                Op::Guard { c0, c1, end: past } => {
                    let holds = code.conds[c0 as usize..c1 as usize].iter().all(|c| {
                        let v = self.cx.eval(&c.lin, &self.slots);
                        match c.op {
                            CmpOp::Eq => v == 0,
                            CmpOp::Ge => v >= 0,
                            CmpOp::Le => v <= 0,
                        }
                    });
                    if holds {
                        self.run_ops::<TRACE, HOISTED>(pc + 1, past as usize);
                    }
                    pc = past as usize;
                }
                Op::Loop(l) => {
                    let lo = self.cx.eval(&l.lo, &self.slots);
                    let hi = self.cx.eval(&l.hi, &self.slots);
                    self.run_loop::<TRACE>(&l, pc + 1, lo, 1, hi);
                    pc = l.end as usize;
                }
            }
        }
    }

    /// Iterations `start, start+step, … <= hi` of loop `l`, whose body
    /// starts at op `body`.
    fn run_loop<const TRACE: bool>(
        &mut self,
        l: &LoopOp,
        body: usize,
        start: i64,
        step: i64,
        hi: i64,
    ) {
        if start > hi {
            return;
        }
        let last = start + (hi - start) / step * step;
        match l.leaf {
            Some((a0, a1)) if self.hoist(a0 as usize..a1 as usize, l, start, step, last) => {
                self.iterate::<TRACE, true>(l, body, start, step, last)
            }
            _ => self.iterate::<TRACE, false>(l, body, start, step, last),
        }
    }

    fn iterate<const TRACE: bool, const HOISTED: bool>(
        &mut self,
        l: &LoopOp,
        body: usize,
        start: i64,
        step: i64,
        last: i64,
    ) {
        let mut i = start;
        loop {
            self.slots[l.slot as usize] = i;
            self.run_ops::<TRACE, HOISTED>(body, l.end as usize);
            if i == last {
                return;
            }
            i += step;
            if let (true, Some((a0, a1))) = (HOISTED, l.leaf) {
                for live in &mut self.live[a0 as usize..a1 as usize] {
                    live.off += live.step;
                }
            }
        }
    }

    /// Check every access of an innermost loop at its first and last
    /// iteration and set up the flat offsets the loop then advances.
    /// Subscripts are affine in the index, so both ends in bounds means
    /// every iteration is, whichever of them its guards let run.
    /// `false` when some subscript leaves its dimension at an end: the
    /// loop must then check per element (and panic where, and only if,
    /// the reference would).
    fn hoist(&mut self, accs: Range<usize>, l: &LoopOp, start: i64, step: i64, last: i64) -> bool {
        self.slots[l.slot as usize] = start;
        let code = self.cx.code;
        for a in accs {
            let acc = &code.accs[a];
            let (mut off, mut stride) = (0i64, 0i64);
            for d in &code.dims[acc.d0 as usize..acc.d1 as usize] {
                let first = self.cx.eval(&d.sub, &self.slots);
                let end = first + d.inner * (last - start);
                let extent = d.extent.max(0) as u64;
                if first as u64 >= extent || end as u64 >= extent {
                    return false;
                }
                off += first * d.stride;
                stride += d.inner * d.stride;
            }
            self.live[a].off = off;
            self.live[a].step = stride * step;
        }
        true
    }

    /// One statement instance. `HOISTED`: the enclosing loop already
    /// proved every subscript in bounds and maintains the flat offsets.
    #[inline]
    fn run_stmt<const TRACE: bool, const HOISTED: bool>(&mut self, s: &Stmt) {
        let cx = &self.cx;
        let slots = &self.slots[..];
        if let Some(owner) = &s.owner {
            if cx.owner(owner, slots) != cx.pid as i64 {
                return;
            }
        }
        let live = &self.live[..];
        // The cell an access names at this statement instance.
        let cell = |a: u32| -> (&AtomicU64, usize) {
            let l = &live[a as usize];
            let off = if HOISTED {
                l.off as usize
            } else {
                cx.addr(&cx.code.accs[a as usize], slots)
            };
            (&l.cells[off], off)
        };
        let stack = &mut self.stack[..];
        let mut sp = 0usize;
        for ins in &cx.code.instrs[s.i0 as usize..s.i1 as usize] {
            match *ins {
                Instr::Lit(v) => {
                    stack[sp] = v;
                    sp += 1;
                }
                Instr::Idx(lin) => {
                    stack[sp] = cx.eval(&lin, slots) as f64;
                    sp += 1;
                }
                Instr::Scalar { id, traced } => {
                    if TRACE && traced {
                        cx.trace(Target::Scalar(id), AccessKind::Read);
                    }
                    stack[sp] = cx.mem.get_scalar(id);
                    sp += 1;
                }
                Instr::Load(a) => {
                    let (c, off) = cell(a);
                    if TRACE {
                        cx.trace_elem(a, off, AccessKind::Read);
                    }
                    stack[sp] = f64::from_bits(c.load(Ordering::Relaxed));
                    sp += 1;
                }
                Instr::Bin(op) => {
                    sp -= 1;
                    stack[sp - 1] = op.apply(stack[sp - 1], stack[sp]);
                }
                Instr::Un(op) => stack[sp - 1] = op.apply(stack[sp - 1]),
            }
        }
        let v = stack[0];
        let trace_scalar = |id: ScalarId, traced: bool, kind: AccessKind| {
            if TRACE && traced {
                cx.trace(Target::Scalar(id), kind);
            }
        };
        match s.lhs {
            Lhs::Scalar { id, traced } => {
                trace_scalar(id, traced, AccessKind::Write);
                cx.mem.set_scalar(id, v);
            }
            Lhs::ScalarRmw { id, op, traced } => {
                trace_scalar(id, traced, AccessKind::Read);
                trace_scalar(id, traced, AccessKind::Write);
                cx.mem.set_scalar(id, op.apply(cx.mem.get_scalar(id), v));
            }
            Lhs::Partial(k) => {
                let (_, op) = cx.code.partials[k as usize];
                let reg = &mut self.partials[k as usize];
                if self.touched.contains(&k) {
                    *reg = op.apply(*reg, v);
                } else {
                    self.touched.push(k);
                    *reg = op.apply(op.identity(), v);
                }
            }
            Lhs::Elem { acc, red } => {
                let (c, off) = cell(acc);
                let v = match red {
                    None => v,
                    Some(op) => {
                        // Element reductions are a non-atomic RMW.
                        if TRACE {
                            cx.trace_elem(acc, off, AccessKind::Read);
                        }
                        op.apply(f64::from_bits(c.load(Ordering::Relaxed)), v)
                    }
                };
                if TRACE {
                    cx.trace_elem(acc, off, AccessKind::Write);
                }
                c.store(v.to_bits(), Ordering::Relaxed);
            }
        }
    }
}

impl Cx<'_> {
    #[inline]
    fn eval(&self, lin: &Lin, slots: &[i64]) -> i64 {
        let mut v = lin.c;
        for t in &self.code.terms[lin.t0 as usize..lin.t1 as usize] {
            v += t.coeff * slots[t.slot as usize];
        }
        v
    }

    /// Flat offset of an access, every dimension checked.
    #[inline]
    fn addr(&self, acc: &Access, slots: &[i64]) -> usize {
        let mut off = 0i64;
        let dims = &self.code.dims[acc.d0 as usize..acc.d1 as usize];
        for (k, d) in dims.iter().enumerate() {
            let s = self.eval(&d.sub, slots);
            if s < 0 || s >= d.extent {
                subscript_out_of_bounds(s, d.extent, k);
            }
            off += s * d.stride;
        }
        off as usize
    }

    #[inline]
    fn owner(&self, o: &Owner, slots: &[i64]) -> i64 {
        o.dist.owner(self.eval(&o.sub, slots), self.nprocs)
    }

    fn trace(&self, target: Target, kind: AccessKind) {
        let t = self.tracer.expect("traced kernels run with a tracer");
        t.record(self.pid, target, kind);
    }

    fn trace_elem(&self, acc: u32, off: usize, kind: AccessKind) {
        let a = &self.code.accs[acc as usize];
        if a.shared {
            self.trace(Target::Elem(a.array, off as u64), kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::unroll;
    use crate::{run_sequential, run_virtual, ScheduleOrder};
    use ir::build::*;
    use spmd_opt::{fork_join, optimize, RItem, SpmdProgram, TopItem};

    /// The split of the plan's first distributed phase.
    fn first_split(sched: &Schedule) -> Split {
        sched
            .code()
            .kernels
            .iter()
            .find_map(|k| match k.who {
                Who::Split(s) => Some(s),
                _ => None,
            })
            .expect("the plan has a distributed phase")
    }

    /// Run only `pids`' share of every work event, in event order.
    fn run_pids(sched: &Schedule, mem: &Mem, pids: &[usize]) {
        for &pid in pids {
            let mut w = Worker::new(sched, mem, pid);
            for ev in sched.iter().filter(|ev| ev.is_work()) {
                w.exec_work(ev);
            }
        }
    }

    /// Both plans at several widths and every interleaving reproduce
    /// `run_sequential`; `tol` is 0 except for reassociated sums.
    fn check(build: &dyn Fn() -> (Program, Vec<(ir::SymId, i64)>), tol: f64) {
        let (prog, syms) = build();
        for p in [1, 2, 3, 8] {
            let mut bind = Bindings::new(p);
            for &(s, v) in &syms {
                bind.bind(s, v);
            }
            let oracle = Mem::new(&prog, &bind);
            init(&prog, &oracle);
            run_sequential(&prog, &bind, &oracle);
            for plan in [fork_join(&prog, &bind), optimize(&prog, &bind)] {
                for order in [
                    ScheduleOrder::RoundRobin,
                    ScheduleOrder::Reverse,
                    ScheduleOrder::Random(11),
                ] {
                    let mem = Mem::new(&prog, &bind);
                    init(&prog, &mem);
                    run_virtual(&prog, &bind, &plan, &mem, order);
                    let d = mem.max_abs_diff(&oracle);
                    assert!(d <= tol, "{} P={p} {order:?}: differs by {d:e}", prog.name);
                }
            }
        }
    }

    fn init(prog: &Program, mem: &Mem) {
        for a in 0..prog.arrays.len() {
            mem.fill(ArrayId(a as u32), |s| {
                1.0 + s.iter().fold(a as i64, |h, &x| (h * 31 + x) % 17) as f64
            });
        }
    }

    /// `DOALL i = 0..n-1: A[a*i + c] = B[i] * 2` with `A` distributed
    /// by `dist`.
    fn affine_write(
        dist: DistSpec,
        a: i64,
        c: i64,
        extent: i64,
    ) -> (Program, Vec<(ir::SymId, i64)>) {
        let mut pb = ProgramBuilder::new("affine_write");
        let n = pb.sym("n");
        let arr_a = pb.array("A", &[con(extent)], dist);
        let b = pb.array("B", &[sym(n)], dist_repl());
        let i = pb.begin_par("i", con(0), sym(n) - 1);
        pb.assign(elem(arr_a, [idx(i) * a + c]), arr(b, [idx(i)]) * ex(2.0));
        pb.end();
        (pb.finish(), vec![(n, 12)])
    }

    fn split_of(build: &dyn Fn() -> (Program, Vec<(ir::SymId, i64)>), p: i64) -> Split {
        let (prog, syms) = build();
        let mut bind = Bindings::new(p);
        for &(s, v) in &syms {
            bind.bind(s, v);
        }
        first_split(&unroll(&prog, &bind, &fork_join(&prog, &bind)))
    }

    #[test]
    fn block_owner_ranges_with_positive_and_negative_coefficients() {
        let fwd = || affine_write(dist_block(), 1, 0, 12);
        assert!(matches!(split_of(&fwd, 4), Split::BlockRange { a: 1, .. }));
        check(&fwd, 0.0);
        let rev = || affine_write(dist_block(), -1, 11, 12);
        assert!(matches!(split_of(&rev, 4), Split::BlockRange { a: -1, .. }));
        check(&rev, 0.0);
        let wide = || affine_write(dist_block(), 2, 1, 24);
        assert!(matches!(split_of(&wide, 4), Split::BlockRange { a: 2, .. }));
        check(&wide, 0.0);
    }

    #[test]
    fn cyclic_owner_strides_or_tests_every_iteration() {
        let fwd = || affine_write(dist_cyclic(), 1, 0, 12);
        assert!(matches!(
            split_of(&fwd, 4),
            Split::CyclicStride { a: 1, .. }
        ));
        check(&fwd, 0.0);
        let rev = || affine_write(dist_cyclic(), -1, 11, 12);
        assert!(matches!(
            split_of(&rev, 4),
            Split::CyclicStride { a: -1, .. }
        ));
        check(&rev, 0.0);
        let wide = || affine_write(dist_cyclic(), 2, 0, 24);
        assert!(matches!(split_of(&wide, 4), Split::PerIter(_)));
        check(&wide, 0.0);
    }

    #[test]
    fn block_cyclic_owner_tests_every_iteration() {
        let bc = || affine_write(dist_block_cyclic(2), 1, 0, 12);
        assert!(matches!(split_of(&bc, 4), Split::PerIter(_)));
        check(&bc, 0.0);
    }

    /// `DO i: DOALL j: X[i][j] = X[i][j] + Y[i-1][j]`, rows distributed:
    /// the owner of a whole inner loop is fixed per `i` (`a = 0`).
    fn row_owned(dist: DistSpec) -> (Program, Vec<(ir::SymId, i64)>) {
        let mut pb = ProgramBuilder::new("row_owned");
        let n = pb.sym("n");
        let x = pb.array("X", &[sym(n), sym(n)], dist);
        let i = pb.begin_seq("i", con(1), sym(n) - 1);
        let j = pb.begin_par("j", con(0), sym(n) - 1);
        pb.assign(
            elem(x, [idx(i), idx(j)]),
            arr(x, [idx(i), idx(j)]) + arr(x, [idx(i) - 1, idx(j)]),
        );
        pb.end();
        pb.end();
        (pb.finish(), vec![(n, 9)])
    }

    #[test]
    fn iteration_independent_owner_runs_all_or_nothing() {
        for dist in [
            dist_block_dim(0),
            dist_cyclic_dim(0),
            dist_block_cyclic_dim(0, 2),
        ] {
            let build = || row_owned(dist);
            assert!(matches!(split_of(&build, 4), Split::Fixed(_)));
            check(&build, 0.0);
        }
    }

    /// `DOALL i: DO j: X[j][i] = Y[j][i] + i`, rows distributed: the
    /// owner depends on the *inner* index. The head statement sits
    /// outside the inner loop, so no processor owns it.
    fn inner_owned(dist: DistSpec) -> (Program, Vec<(ir::SymId, i64)>) {
        let mut pb = ProgramBuilder::new("inner_owned");
        let n = pb.sym("n");
        let x = pb.array("X", &[sym(n), sym(n)], dist);
        let y = pb.array("Y", &[sym(n), sym(n)], dist_repl());
        let i = pb.begin_par("i", con(0), sym(n) - 1);
        let j = pb.begin_seq("j", con(0), sym(n) - 1);
        pb.assign(
            elem(x, [idx(j), idx(i)]),
            arr(y, [idx(j), idx(i)]) + ival(idx(i)),
        );
        pb.end();
        pb.end();
        (pb.finish(), vec![(n, 7)])
    }

    #[test]
    fn inner_loop_dependent_owner_tests_every_statement() {
        for dist in [
            dist_block_dim(0),
            dist_cyclic_dim(0),
            dist_block_cyclic_dim(0, 2),
        ] {
            let build = || inner_owned(dist);
            assert!(matches!(split_of(&build, 3), Split::PerStmt));
            check(&build, 0.0);
        }
    }

    #[test]
    fn filter_skips_instances() {
        let (prog, syms) = inner_owned(dist_cyclic_dim(0));
        let mut bind = Bindings::new(3);
        bind.bind(syms[0].0, syms[0].1);
        let sched = unroll(&prog, &bind, &fork_join(&prog, &bind));
        let mem = Mem::new(&prog, &bind);
        run_pids(&sched, &mem, &[1]);
        // Processor 1 of 3 owns rows 1 and 4 of the 7.
        for j in 0..7i64 {
            for i in 0..7i64 {
                let expect = if j % 3 == 1 { i as f64 } else { 0.0 };
                assert_eq!(mem.array(ArrayId(0)).get(&[j, i]), expect, "X[{j}][{i}]");
            }
        }
    }

    /// Overwrite the partition of every distributed phase.
    fn with_partition(mut plan: SpmdProgram, part: LoopPartition) -> SpmdProgram {
        fn items(its: &mut [RItem], part: &LoopPartition) {
            for it in its {
                match it {
                    RItem::Phase(p) => {
                        if let PhaseKind::Par { partition } = &mut p.kind {
                            *partition = part.clone();
                        }
                    }
                    RItem::Seq { body, .. } => items(body, part),
                }
            }
        }
        fn top(its: &mut [TopItem], part: &LoopPartition) {
            for it in its {
                match it {
                    TopItem::Region(r) => items(&mut r.items, part),
                    TopItem::MasterLoop { body, .. } => top(body, part),
                    TopItem::SerialStmt(_) => {}
                }
            }
        }
        top(&mut plan.items, &part);
        plan
    }

    #[test]
    fn unknown_partition_runs_on_the_master() {
        let (prog, syms) = affine_write(dist_block(), 1, 0, 12);
        let mut bind = Bindings::new(4);
        bind.bind(syms[0].0, syms[0].1);
        let plan = with_partition(fork_join(&prog, &bind), LoopPartition::Unknown);
        let sched = unroll(&prog, &bind, &plan);
        assert!(matches!(first_split(&sched), Split::MasterAll));
        let oracle = Mem::new(&prog, &bind);
        init(&prog, &oracle);
        run_sequential(&prog, &bind, &oracle);
        // Workers 1..3 contribute nothing; the master alone is complete.
        let mem = Mem::new(&prog, &bind);
        init(&prog, &mem);
        run_pids(&sched, &mem, &[1, 2, 3]);
        assert_ne!(mem.max_abs_diff(&oracle), 0.0);
        run_pids(&sched, &mem, &[0]);
        assert_eq!(mem.max_abs_diff(&oracle), 0.0);
    }

    /// Scalar sum and max over a replicated array (block-partitioned
    /// iteration space), an element reduction under an inner loop, a
    /// guard, and a privatizable work array filled by a replicated
    /// phase.
    fn reductions_guards_private() -> (Program, Vec<(ir::SymId, i64)>) {
        let mut pb = ProgramBuilder::new("mixed");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let r = pb.array("R", &[sym(n)], dist_repl());
        let w = pb.private_array("W", &[sym(n)]);
        let s = pb.scalar("s", 0.5);
        let m = pb.scalar("m", -1.0);
        let k = pb.begin_par("k", con(0), sym(n) - 1);
        pb.assign(elem(w, [idx(k)]), ival(idx(k) * 2 + 1).sqrt());
        pb.end();
        let i = pb.begin_par("i", con(0), sym(n) - 1);
        pb.reduce(svar(s), RedOp::Add, arr(r, [idx(i)]) * arr(w, [idx(i)]));
        pb.reduce(svar(m), RedOp::Max, arr(r, [idx(i)]));
        pb.end();
        let i2 = pb.begin_par("i2", con(0), sym(n) - 1);
        let j = pb.begin_seq("j", con(0), con(3));
        pb.reduce(elem(a, [idx(i2)]), RedOp::Add, arr(w, [idx(j)]) + sca(s));
        pb.end();
        pb.begin_guard(vec![ge0(idx(i2) - 2), le0(idx(i2) - sym(n) + 3)]);
        pb.assign(elem(a, [idx(i2)]), arr(a, [idx(i2)]) - sca(m));
        pb.end();
        pb.end();
        (pb.finish(), vec![(n, 11)])
    }

    #[test]
    fn reductions_guards_and_private_arrays_match_sequential() {
        let build = reductions_guards_private;
        let (prog, syms) = build();
        let mut bind = Bindings::new(4);
        bind.bind(syms[0].0, syms[0].1);
        let sched = unroll(&prog, &bind, &fork_join(&prog, &bind));
        let splits: Vec<_> = sched.code().kernels.iter().map(|k| k.who).collect();
        assert!(matches!(splits[0], Who::All), "{splits:?}");
        assert!(
            matches!(splits[1], Who::Split(Split::BlockIndex { .. })),
            "{splits:?}"
        );
        check(&build, 1e-9);
    }

    #[test]
    fn reduction_direct_and_accumulated_agree() {
        let mut pb = ProgramBuilder::new("r");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_repl());
        let s = pb.scalar("s", 0.0);
        let i = pb.begin_par("i", con(0), sym(n) - 1);
        pb.reduce(svar(s), RedOp::Add, arr(a, [idx(i)]));
        pb.end();
        let prog = pb.finish();
        let bind = Bindings::new(2).set(n, 10);
        let direct = Mem::new(&prog, &bind);
        direct.fill(a, |sub| sub[0] as f64);
        run_sequential(&prog, &bind, &direct);
        assert_eq!(direct.get_scalar(s), 45.0);

        // A processor's partial reaches memory only when its phase ends.
        let sched = unroll(&prog, &bind, &fork_join(&prog, &bind));
        let mem = Mem::new(&prog, &bind);
        mem.fill(a, |sub| sub[0] as f64);
        run_pids(&sched, &mem, &[0]);
        assert_eq!(mem.get_scalar(s), 10.0, "0+1+2+3+4");
        run_pids(&sched, &mem, &[1]);
        assert_eq!(mem.get_scalar(s), 45.0);
    }

    #[test]
    fn block_owner_fast_path_partitions_iterations() {
        // A block-distributed over 4 procs with extent 16 → block 4:
        // pid owns [4p, 4p+3].
        let (prog, _) = affine_write(dist_block(), 1, 0, 16);
        let bind = Bindings::new(4).set(ir::SymId(0), 16);
        let sched = unroll(&prog, &bind, &optimize(&prog, &bind));
        let mem = Mem::new(&prog, &bind);
        mem.fill(ArrayId(1), |_| 0.5);
        run_pids(&sched, &mem, &[2]);
        for k in 0..16i64 {
            let expect = if (8..12).contains(&k) { 1.0 } else { 0.0 };
            assert_eq!(mem.array(ArrayId(0)).get(&[k]), expect, "element {k}");
        }
    }

    #[test]
    fn cyclic_fast_path_strides() {
        let (prog, _) = affine_write(dist_cyclic(), 1, 0, 16);
        let bind = Bindings::new(4).set(ir::SymId(0), 16);
        let sched = unroll(&prog, &bind, &optimize(&prog, &bind));
        let mem = Mem::new(&prog, &bind);
        mem.fill(ArrayId(1), |_| 0.5);
        run_pids(&sched, &mem, &[1]);
        for k in 0..16i64 {
            let expect = if k % 4 == 1 { 1.0 } else { 0.0 };
            assert_eq!(mem.array(ArrayId(0)).get(&[k]), expect, "element {k}");
        }
    }

    /// `DOALL i: DO j = 0..m-1: A[i][j] = B[i][j+1]` on `n × m` arrays:
    /// `j + 1 == m` leaves dimension 1 while the flat offset is still
    /// inside `B` for every row but the last.
    fn row_overrun(guarded: bool) -> (Program, Bindings) {
        let mut pb = ProgramBuilder::new("overrun");
        let a = pb.array("A", &[con(4), con(8)], dist_block_dim(0));
        let b = pb.array("B", &[con(4), con(8)], dist_block_dim(0));
        let i = pb.begin_par("i", con(0), con(3));
        let j = pb.begin_seq("j", con(0), con(7));
        if guarded {
            pb.begin_guard(vec![ge0(idx(j))]);
        }
        pb.assign(elem(a, [idx(i), idx(j)]), arr(b, [idx(i), idx(j) + 1]));
        if guarded {
            pb.end();
        }
        pb.end();
        pb.end();
        (pb.finish(), Bindings::new(2))
    }

    #[test]
    fn one_dimension_out_of_bounds_panics_before_the_access() {
        for guarded in [false, true] {
            let (prog, bind) = row_overrun(guarded);
            let plan = fork_join(&prog, &bind);
            let mem = Mem::new(&prog, &bind);
            mem.fill(ArrayId(1), |_| 7.0);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_virtual(&prog, &bind, &plan, &mem, ScheduleOrder::RoundRobin)
            }));
            let msg = *caught
                .expect_err("the overrun must panic")
                .downcast::<String>()
                .expect("a formatted panic message");
            assert_eq!(msg, "subscript 8 out of bounds 0..8 in dim 1");
            // Row 0 was copied up to the offending element and no further:
            // the read of B[0][8] (flat offset 8 = B[1][0]) never happened.
            let a = mem.array(ArrayId(0));
            assert_eq!(a.get(&[0, 6]), 7.0);
            assert_eq!(a.get(&[0, 7]), 0.0);
        }
    }

    /// The same overrun behind `j <= 6`: the offending instance never
    /// runs, so the hoisted check must not turn it into a panic.
    #[test]
    fn an_out_of_bounds_instance_a_guard_excludes_is_not_an_error() {
        let build = || {
            let mut pb = ProgramBuilder::new("guarded_overrun");
            let a = pb.array("A", &[con(4), con(8)], dist_block_dim(0));
            let b = pb.array("B", &[con(4), con(8)], dist_block_dim(0));
            let i = pb.begin_par("i", con(0), con(3));
            let j = pb.begin_seq("j", con(0), con(7));
            pb.begin_guard(vec![le0(idx(j) - 6)]);
            pb.assign(elem(a, [idx(i), idx(j)]), arr(b, [idx(i), idx(j) + 1]));
            pb.end();
            pb.end();
            pb.end();
            (pb.finish(), Vec::new())
        };
        check(&build, 0.0);
    }

    #[test]
    fn all_processors_cover_every_iteration_exactly_once() {
        let mut pb = ProgramBuilder::new("count");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let _t = pb.begin_seq("t", con(0), con(4));
        let i = pb.begin_par("i", con(1), sym(n) - 2);
        pb.reduce(elem(a, [idx(i)]), RedOp::Add, ex(1.0));
        pb.end();
        pb.end();
        let prog = pb.finish();
        let bind = Bindings::new(4).set(n, 32);
        let sched = unroll(&prog, &bind, &optimize(&prog, &bind));
        let mem = Mem::new(&prog, &bind);
        run_pids(&sched, &mem, &[0, 1, 2, 3]);
        for k in 0..32i64 {
            let expect = if (1..31).contains(&k) { 5.0 } else { 0.0 };
            assert_eq!(mem.array(a).get(&[k]), expect, "element {k}");
        }
    }
}
