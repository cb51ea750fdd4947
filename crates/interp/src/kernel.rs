//! Lowered phase kernels: what a processor executes for one work step.
//!
//! [`Schedule::new`] lowers every phase subtree of a plan once per
//! `(program, bindings, plan)` into a `Code` table, and a
//! per-processor [`Worker`] then runs kernels out of that table:
//!
//! * loop bounds, guards, owner subscripts and array subscripts are
//!   integer linear forms (`Lin`) over a dense loop-slot array (slot
//!   = `LoopId`), with every symbolic constant folded into the constant
//!   term;
//! * an array access is a list of per-dimension `(extent, stride,
//!   subscript)` triples taken from `row_major_layout`, so its
//!   address is `Σ stride·subscript` with the per-dimension bounds
//!   check of [`ArrayStore`](crate::mem::ArrayStore) kept, and in an
//!   innermost loop also that sum as one form;
//! * a right-hand side is a postfix program over a small value stack;
//! * the owner-computes share of a distributed loop (`Split`) is
//!   evaluated per step from precomputed coefficients.
//!
//! **Bounds contract.** No access touches memory outside its array's
//! dimensions, and one that would fails with the panic message of
//! `ArrayStore`, at the instance where the reference evaluator fails.
//! For an innermost loop (statements and guards, no loop inside) this
//! is *proved once per schedule* where it can be: at lowering, every
//! subscript is bounded over the loop's iteration box — each loop
//! around it, walk and kernel alike, ranging between its least lower
//! and greatest upper bound over the ranges of the loops outside it —
//! in checked arithmetic, overflow counting as unproven. A proven
//! loop's accesses are folded into one flat-offset form each, and a
//! step starts by evaluating those with no bounds test. An unproven
//! loop (a subscript only a guard keeps in bounds, or one that leaves
//! its array on some trip) checks per step as it always did: both end
//! iterations in bounds means every iteration is (subscripts are affine
//! in the index), and the loop addresses by offsets from its first
//! iteration; otherwise it runs the per-element check, which panics at
//! exactly the iteration the reference evaluator would (or not at all,
//! when a guard keeps the statement from running there). Outside
//! innermost loops every access is checked per dimension.
//!
//! **Chunked innermost loops.** A hoisted innermost loop does not
//! dispatch the postfix program per element: each statement runs over
//! up to [`CHUNK`] iterations at once, every instruction filling or
//! combining a column of values, before the next statement starts.
//! How many iterations may be taken together is decided at lowering
//! from the subscripts' linear forms (`Code::carried`): fewer than
//! the smallest distance at which one iteration touches what another
//! writes, and 1 — the original order — for whatever the forms do not
//! decide. Guards, affine in the index, clip a statement's iteration
//! range once per loop (a loop with no guard skips that), and
//! reductions fold their column in iteration order, so every element
//! sees the operations it always saw in the order it always saw them.
//!
//! **Tracing contract.** A kernel is compiled twice (`const TRACE`);
//! the worker picks one instantiation when it is built, from whether
//! the memory has a tracer. The traced one runs every loop an element
//! at a time and records the same `(Target, AccessKind)` sequence per
//! statement as the reference evaluator (`crate::eval`), privatizable
//! storage excluded.
//!
//! `run_sequential` is deliberately *not* lowered: it stays the
//! independent oracle every kernel is compared against, resolved once
//! per run and walked in the IR's shape (`crate::eval`).

use crate::events::{Cursor, Event, Schedule};
use crate::mem::{row_major_layout, subscript_out_of_bounds, Mem};
use crate::trace::{AccessKind, Target, TraceBuffer};
use analysis::{Bindings, LoopPartition, OwnerMap};
use ineq::arith::{div_ceil, div_floor};
use ir::{
    AffAtom, Affine, ArrayId, Assign, BinOp, CmpOp, Expr, LhsRef, LoopId, Node, NodeId, Program,
    RedOp, ScalarId, UnOp,
};
use spmd_opt::PhaseKind;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// `c + Σ coeff·slot` with the terms in [`Code::terms`].
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Lin {
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
    /// In an innermost loop: the flat offset `Σ stride·subscript` as
    /// one form, and what one step of the loop's index adds to it.
    flat: Lin,
    inner: i64,
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
pub(crate) struct Owner {
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

/// Most iterations of an innermost loop one statement is evaluated
/// over before the next statement runs.
pub const CHUNK: usize = 64;

/// What an innermost loop (statements and guards, no loop inside) adds
/// to a [`LoopOp`].
#[derive(Clone, Copy, Debug)]
struct Leaf {
    /// The body's accesses.
    a0: u32,
    a1: u32,
    /// Smallest distance, in values of the loop index, between two
    /// iterations that touch a location one of them writes
    /// (`i64::MAX`: no two do). Iterations closer than this can run
    /// statement by statement instead of iteration by iteration. 1
    /// also stands for "could not decide".
    carried: i64,
    /// Every access stays in bounds wherever the loop can run
    /// ([`Lowerer::prove`]): a step addresses by [`Access::flat`] with
    /// no check.
    proven: bool,
    /// The body's statements, when it holds no guard: each runs at
    /// every iteration.
    plain: Option<(u32, u32)>,
}

impl Leaf {
    /// How many consecutive iterations of a loop advancing by `step`
    /// are independent.
    fn chunk_len(&self, step: i64) -> usize {
        let span = if step == 1 {
            self.carried
        } else {
            self.carried / step
        };
        span.clamp(1, CHUNK as i64) as usize
    }
}

#[derive(Clone, Copy, Debug)]
struct LoopOp {
    slot: u32,
    lo: Lin,
    hi: Lin,
    /// Index past the last op of the body.
    end: u32,
    leaf: Option<Leaf>,
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
    /// Some statement folds into a per-processor partial.
    reduces: bool,
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
    /// Loop slots a kernel of this table runs against.
    pub(crate) num_slots: usize,
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
    /// Per loop in scope, the values its index can take there
    /// (`None`: not known to fit in `i64`), and how many of them can
    /// take none.
    ranges: Vec<Option<(i64, i64)>>,
    empty: u32,
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
        let strides = (prog.arrays.iter().zip(&extents))
            .map(|(a, e)| row_major_layout(&a.name, e).0)
            .collect();
        Lowerer {
            prog,
            bind,
            in_scope: vec![false; prog.num_loops as usize],
            ranges: vec![None; prog.num_loops as usize],
            empty: 0,
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

    /// Enter the loop `l` running from `lo` to `hi`: what is lowered
    /// until [`Lowerer::leave`] may name its index. Its index takes
    /// values between the least `lo` and the greatest `hi` the loops
    /// around it allow.
    pub(crate) fn enter(&mut self, l: LoopId, lo: &Lin, hi: &Lin) {
        let range = self
            .range(lo)
            .zip(self.range(hi))
            .map(|(lo, hi)| (lo.0, hi.1));
        self.empty += range.is_some_and(|(a, b)| a > b) as u32;
        self.ranges[l.0 as usize] = range;
        self.in_scope[l.0 as usize] = true;
    }

    pub(crate) fn leave(&mut self, l: LoopId) {
        let range = self.ranges[l.0 as usize].take();
        self.empty -= range.is_some_and(|(a, b)| a > b) as u32;
        self.in_scope[l.0 as usize] = false;
    }

    /// The least and greatest value of `lin` over the ranges of the
    /// loops in scope, from checked arithmetic in the order
    /// [`Code::eval`] takes: `None` when an intermediate value there
    /// could leave `i64`, or a loop it names has no known range.
    fn range(&self, lin: &Lin) -> Option<(i64, i64)> {
        let (mut lo, mut hi) = (lin.c, lin.c);
        for t in &self.code.terms[lin.t0 as usize..lin.t1 as usize] {
            let (a, b) = self.ranges[t.slot as usize]?;
            let (x, y) = (t.coeff.checked_mul(a)?, t.coeff.checked_mul(b)?);
            lo = lo.checked_add(x.min(y))?;
            hi = hi.checked_add(x.max(y))?;
        }
        Some((lo, hi))
    }

    /// Whether every access of `accs` (those of an innermost loop, which
    /// is in scope) stays inside its array wherever the loop can run:
    /// each subscript within its extent over the ranges of the loops in
    /// scope, and the flat offset, which this folds into
    /// [`Access::flat`], evaluated without overflow. Trivially so when
    /// some loop around can run no iteration. Guards are not consulted:
    /// an access a guard keeps in bounds is not proven, and its loop
    /// checks per step.
    fn prove(&mut self, accs: Range<u32>) -> bool {
        let mut proven = true;
        for a in accs {
            let t0 = self.code.terms.len();
            match self.flat(self.code.accs[a as usize]) {
                Some((flat, inner)) => {
                    let acc = &mut self.code.accs[a as usize];
                    (acc.flat, acc.inner) = (flat, inner);
                }
                None => {
                    self.code.terms.truncate(t0);
                    proven = false;
                }
            }
        }
        proven || self.empty > 0
    }

    /// `acc`'s flat offset and what a step of its innermost loop adds,
    /// when every subscript is within its extent over the ranges in
    /// scope and the offset's evaluation cannot overflow.
    fn flat(&mut self, acc: Access) -> Option<(Lin, i64)> {
        let t0 = self.code.terms.len() as u32;
        let (mut c, mut inner) = (0i64, 0i64);
        for k in acc.d0..acc.d1 {
            let d = self.code.dims[k as usize];
            let (lo, hi) = self.range(&d.sub)?;
            if lo < 0 || hi >= d.extent {
                return None;
            }
            c = c.checked_add(d.sub.c.checked_mul(d.stride)?)?;
            inner = inner.checked_add(d.inner.checked_mul(d.stride)?)?;
            for k in d.sub.t0..d.sub.t1 {
                let t = self.code.terms[k as usize];
                let coeff = t.coeff.checked_mul(d.stride)?;
                self.code.terms.push(Term {
                    slot: t.slot,
                    coeff,
                });
            }
        }
        let flat = Lin {
            c,
            t0,
            t1: self.code.terms.len() as u32,
        };
        self.range(&flat)?;
        Some((flat, inner))
    }

    /// Who owns element `sub` of an array distributed by `dist`.
    pub(crate) fn owner(&mut self, dist: OwnerMap, sub: &Affine) -> Owner {
        Owner {
            dist,
            sub: self.lin(sub),
        }
    }

    /// Lower a phase, or with no `kind` a serial section (master only,
    /// sequential semantics), under the sequential loops in scope;
    /// returns the kernel's index.
    pub(crate) fn kernel(&mut self, node: NodeId, kind: Option<&PhaseKind>) -> u32 {
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
            reduces: self.code.partials.len() > self.r0,
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

    pub(crate) fn lin(&mut self, e: &Affine) -> Lin {
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
                self.enter(l.id, &lo, &hi);
                for &child in &l.body {
                    let leaf = innermost.then_some(l.id.0);
                    self.node(child, Ctx { leaf, ..ctx });
                }
                let end = self.code.ops.len() as u32;
                let leaf = innermost.then(|| {
                    let a1 = self.code.accs.len() as u32;
                    // Each statement op follows its statement: with no
                    // guard, the body is the statements lowered last.
                    let body = &self.code.ops[at + 1..end as usize];
                    let plain = body.iter().all(|op| matches!(op, Op::Stmt(_))).then(|| {
                        let s1 = self.code.stmts.len() as u32;
                        (s1 - body.len() as u32, s1)
                    });
                    Leaf {
                        a0,
                        a1,
                        carried: self.code.carried(l.id.0, at + 1..end as usize, a0..a1),
                        proven: self.prove(a0..a1),
                        plain,
                    }
                });
                self.leave(l.id);
                self.code.ops[at] = Op::Loop(LoopOp {
                    slot: l.id.0,
                    lo,
                    hi,
                    end,
                    leaf,
                });
            }
        }
    }

    fn assign(&mut self, a: &Assign, ctx: Ctx) {
        let owner = match ctx.owner {
            // An owner subscript naming a loop that does not enclose
            // the statement has no value there: nobody owns it.
            Some((_, sub)) if !sub.loops().all(|l| self.in_scope[l.0 as usize]) => return,
            Some((dist, sub)) => Some(self.owner(dist, sub)),
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
            flat: Lin::default(),
            inner: 0,
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

impl Code {
    /// See [`Schedule::proven_leaves`].
    pub(crate) fn proven_leaves(&self) -> (usize, usize) {
        let leaves = self.ops.iter().filter_map(|op| match op {
            Op::Loop(LoopOp { leaf: Some(l), .. }) => Some(l.proven),
            _ => None,
        });
        leaves.fold((0, 0), |(p, n), proven| (p + proven as usize, n + 1))
    }

    /// `lin` at the loop indices in `slots`.
    #[inline]
    pub(crate) fn eval(&self, lin: &Lin, slots: &[i64]) -> i64 {
        let mut v = lin.c;
        for t in &self.terms[lin.t0 as usize..lin.t1 as usize] {
            v += t.coeff * slots[t.slot as usize];
        }
        v
    }

    /// The processor of `nprocs` that owns `o` at the loop indices in
    /// `slots`.
    #[inline]
    pub(crate) fn owner(&self, o: &Owner, slots: &[i64], nprocs: i64) -> i64 {
        o.dist.owner(self.eval(&o.sub, slots), nprocs)
    }

    /// The iterations of `lo..=hi` processor `pid` of `nprocs` runs of
    /// a loop divided as `split`, at the loop indices in `slots`, for
    /// the shapes that give each processor one interval (`None` for the
    /// others). Empty when its start passes its end.
    #[inline]
    fn interval(
        &self,
        split: Split,
        (pid, nprocs): (i64, i64),
        (lo, hi): (i64, i64),
        slots: &[i64],
    ) -> Option<(i64, i64)> {
        match split {
            Split::BlockIndex { plo, block } => Some((
                (plo + pid * block).max(lo),
                (plo + (pid + 1) * block - 1).min(hi),
            )),
            Split::BlockRange { a, rest, block } => {
                let r = self.eval(&rest, slots) as i128;
                // pid*block <= a*i + r <= pid*block + block - 1; no
                // division when |a| = 1, the common case.
                let lo_own = (pid * block) as i128 - r;
                let hi_own = (pid * block + block - 1) as i128 - r;
                let (ilo, ihi) = match a {
                    1 => (lo_own, hi_own),
                    -1 => (-hi_own, -lo_own),
                    a if a > 0 => (div_ceil(lo_own, a as i128), div_floor(hi_own, a as i128)),
                    a => (div_ceil(hi_own, a as i128), div_floor(lo_own, a as i128)),
                };
                Some((ilo.max(lo as i128) as i64, ihi.min(hi as i128) as i64))
            }
            Split::Fixed(owner) if self.owner(&owner, slots, nprocs) == pid => Some((lo, hi)),
            Split::Fixed(_) => Some((1, 0)),
            _ => None,
        }
    }

    /// [`Leaf::carried`] of the innermost loop over `slot` whose body
    /// is `ops` and whose accesses are `accs`.
    ///
    /// Evaluating a chunk of iterations statement by statement moves a
    /// statement instance past the instances of the chunk's other
    /// iterations, and one statement's loads ahead of its own stores.
    /// Both are invisible when nothing written in one iteration is
    /// touched in another iteration of the chunk, which is decided here
    /// from the linear forms alone; whatever they do not decide counts
    /// as distance 1, and one iteration at a time is always the
    /// original order.
    fn carried(&self, slot: u32, ops: Range<usize>, accs: Range<u32>) -> i64 {
        let stmts = || {
            self.ops[ops.clone()].iter().filter_map(|op| match op {
                Op::Stmt(s) => Some(&self.stmts[*s as usize]),
                _ => None,
            })
        };
        // How often the body names scalar `id`: as a target, or in a
        // right-hand side.
        let mentions = |id: ScalarId| -> usize {
            stmts()
                .map(|s| {
                    let target = match s.lhs {
                        Lhs::Scalar { id: t, .. } | Lhs::ScalarRmw { id: t, .. } => t == id,
                        Lhs::Partial(k) => self.partials[k as usize].0 == id,
                        Lhs::Elem { .. } => false,
                    };
                    let reads = self.instrs[s.i0 as usize..s.i1 as usize]
                        .iter()
                        .filter(|ins| matches!(ins, Instr::Scalar { id: r, .. } if *r == id))
                        .count();
                    target as usize + reads
                })
                .sum()
        };
        let mut carried = i64::MAX;
        for s in stmts() {
            // An owner test depends on the instance.
            if s.owner.is_some() {
                return 1;
            }
            let target = match s.lhs {
                Lhs::Elem { acc: w, .. } => {
                    for x in accs.clone().filter(|&x| x != w) {
                        if self.accs[x as usize].array == self.accs[w as usize].array {
                            carried = carried.min(self.touch_distance(slot, w, x));
                        }
                    }
                    continue;
                }
                Lhs::Scalar { id, .. } | Lhs::ScalarRmw { id, .. } => id,
                Lhs::Partial(k) => self.partials[k as usize].0,
            };
            // A scalar target is folded in iteration order by its own
            // statement; any other mention would see or reorder the
            // intermediate values.
            if mentions(target) > 1 {
                return 1;
            }
        }
        carried
    }

    /// Smallest non-zero distance `|i1 − i2|` at which access `w` in
    /// iteration `i1` of the loop over `slot` and access `x` in
    /// iteration `i2` can name the same element (`i64::MAX`: never, 1:
    /// undecided). Every other slot holds one value for the whole loop,
    /// so two subscripts of one dimension whose forms agree up to the
    /// constant, `c_w + a·i1 + r` and `c_x + a·i2 + r`, are equal
    /// exactly when `a·(i1 − i2) = c_x − c_w`.
    fn touch_distance(&self, slot: u32, w: u32, x: u32) -> i64 {
        let dims = |a: u32| {
            let a = &self.accs[a as usize];
            &self.dims[a.d0 as usize..a.d1 as usize]
        };
        let outer = |lin: &Lin| {
            self.terms[lin.t0 as usize..lin.t1 as usize]
                .iter()
                .filter(move |t| t.slot != slot)
                .map(|t| (t.slot, t.coeff))
        };
        let mut decided = true;
        // `i1 − i2`, from the dimensions the loop index moves.
        let mut delta: Option<i128> = None;
        for (dw, dx) in dims(w).iter().zip(dims(x)) {
            if dw.inner != dx.inner || !outer(&dw.sub).eq(outer(&dx.sub)) {
                decided = false;
                continue;
            }
            let diff = dx.sub.c as i128 - dw.sub.c as i128;
            let a = dw.inner as i128;
            if a == 0 {
                if diff != 0 {
                    return i64::MAX;
                }
            } else if diff % a != 0 || delta.is_some_and(|d| d != diff / a) {
                return i64::MAX;
            } else {
                delta = Some(diff / a);
            }
        }
        match delta {
            Some(0) if decided => i64::MAX,
            Some(d) if decided => i64::try_from(d.abs()).unwrap_or(i64::MAX),
            // Undecided, or the same element in every iteration.
            _ => 1,
        }
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
    /// Flat offset at the first iteration of the running hoisted loop
    /// the access sits in, and what one iteration adds.
    off: i64,
    step: i64,
}

/// One processor's executor for the work steps of a schedule: the
/// kernel table plus the scratch state kernels run in (value stack and
/// its chunk-wide columns, hoisted offsets, reduction partials),
/// allocated once per run instead of once per step.
pub struct Worker<'a> {
    cx: Cx<'a>,
    sched: &'a Schedule,
    run: fn(&mut Worker<'a>, &Kernel),
    /// The loop slots of the cursor whose step is running (empty
    /// between steps).
    slots: Vec<i64>,
    stack: Vec<f64>,
    /// One column of [`CHUNK`] values per stack slot.
    cols: Vec<f64>,
    /// Per access of the schedule.
    live: Vec<Live<'a>>,
    /// Partial-reduction registers, and those the running kernel has
    /// touched, in first-touch order (the flush order).
    partials: Vec<f64>,
    touched: Vec<u32>,
    /// The statements of the running hoisted loop, each with the
    /// iterations it runs at.
    spans: Vec<(u32, Span)>,
}

impl<'a> Worker<'a> {
    /// Processor `pid`'s executor over `mem`, which must have the shape
    /// the schedule was lowered for.
    pub fn new(sched: &'a Schedule, mem: &'a Mem, pid: usize) -> Self {
        let code = &sched.code;
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
                nprocs: sched.nprocs,
            },
            sched,
            run: if tracer.is_some() {
                Worker::run::<true>
            } else {
                Worker::run::<false>
            },
            slots: Vec::new(),
            stack: vec![0.0; code.max_stack],
            cols: vec![0.0; code.max_stack * CHUNK],
            live,
            partials: vec![0.0; code.partials.len()],
            touched: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Execute work step `kernel` of `cur`'s walk as this worker's
    /// processor. The kernel runs against the cursor's own loop slots:
    /// it reads the sequential-loop indices the cursor set there and
    /// writes only the slots of the loops inside its phase.
    pub fn exec_work(&mut self, kernel: u32, cur: &mut Cursor) {
        let k = &self.cx.code.kernels[kernel as usize];
        let master_only = matches!(k.who, Who::Master | Who::Split(Split::MasterAll));
        if master_only && self.cx.pid != 0 {
            return;
        }
        std::mem::swap(&mut self.slots, &mut cur.slots);
        (self.run)(self, k);
        std::mem::swap(&mut self.slots, &mut cur.slots);
    }

    /// Execute this processor's share of every work step of a whole
    /// walk, in order, passing its syncs by.
    pub fn exec_all(&mut self) {
        let mut cur = self.sched.cursor();
        while let Some(step) = cur.next() {
            if let Event::Work { kernel } = step.event {
                self.exec_work(kernel, &mut cur);
            }
        }
    }

    fn run<const TRACE: bool>(&mut self, k: &Kernel) {
        let (o0, o1) = (k.o0 as usize, k.o1 as usize);
        let Who::Split(split) = k.who else {
            return self.run_ops::<TRACE>(o0, o1);
        };
        let Op::Loop(l) = self.cx.code.ops[o0] else {
            unreachable!("a distributed phase is a loop")
        };
        if k.reduces {
            self.touched.clear();
        }
        let cx = &self.cx;
        let (lo, hi) = (cx.eval(&l.lo, &self.slots), cx.eval(&l.hi, &self.slots));
        let (pid, p) = (cx.pid as i64, cx.nprocs);
        match split {
            // Every iteration: `exec_work` lets only the master get
            // here for `MasterAll`, and `PerStmt` statements test their
            // own owner.
            Split::MasterAll | Split::PerStmt => self.run_loop::<TRACE>(&l, o0 + 1, lo, 1, hi),
            Split::BlockIndex { .. } | Split::BlockRange { .. } | Split::Fixed(_) => {
                let shares = cx.code.interval(split, (pid, p), (lo, hi), &self.slots);
                if let Some((a, b)) = shares {
                    self.run_loop::<TRACE>(&l, o0 + 1, a, 1, b);
                }
            }
            Split::CyclicStride { a, rest } => {
                // (a*i + r) mod P == pid  =>  i ≡ a*(pid - r) (mod P)
                let r = cx.eval(&rest, &self.slots);
                let residue = (a * (pid - r)).rem_euclid(p);
                let start = lo + (residue - lo).rem_euclid(p);
                self.run_loop::<TRACE>(&l, o0 + 1, start, p, hi);
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
        if !k.reduces {
            return;
        }
        for &t in &self.touched {
            let (s, op) = self.cx.code.partials[t as usize];
            if TRACE {
                self.cx.trace(Target::Scalar(s), AccessKind::Reduce(op));
            }
            self.cx.mem.reduce_scalar(s, op, self.partials[t as usize]);
        }
    }

    /// The ops `pc..end` at the current loop indices.
    fn run_ops<const TRACE: bool>(&mut self, mut pc: usize, end: usize) {
        let code = self.cx.code;
        while pc < end {
            match code.ops[pc] {
                Op::Stmt(s) => {
                    self.run_stmt::<TRACE, false>(&code.stmts[s as usize], 0);
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
                        self.run_ops::<TRACE>(pc + 1, past as usize);
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
    /// starts at op `body`. An innermost loop whose accesses are all in
    /// bounds runs a chunk at a time; one with an end iteration out of
    /// bounds, and every traced loop, runs an element at a time, in the
    /// reference evaluator's order.
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
        // No division at step 1, which every loop but a cyclic share
        // has.
        let trips = if step == 1 {
            hi - start + 1
        } else {
            (hi - start) / step + 1
        };
        let last = start + (trips - 1) * step;
        match l.leaf {
            Some(leaf) if !TRACE && self.hoist(&leaf, l.slot, start, step, last) => {
                self.run_chunks(l, &leaf, body, step, trips)
            }
            _ => {
                for i in (start..=last).step_by(step as usize) {
                    self.slots[l.slot as usize] = i;
                    self.run_ops::<TRACE>(body, l.end as usize);
                }
            }
        }
    }

    /// Set up the flat offsets an innermost loop addresses from, at
    /// its first iteration. A proven loop's accesses are in bounds
    /// wherever it runs. Any other loop's are checked at its first and
    /// last iteration: subscripts are affine in the index, so both ends
    /// in bounds means every iteration is, whichever of them its guards
    /// let run. `false` when some subscript leaves its dimension at an
    /// end: the loop must then check per element (and panic where, and
    /// only if, the reference would).
    fn hoist(&mut self, leaf: &Leaf, slot: u32, start: i64, step: i64, last: i64) -> bool {
        self.slots[slot as usize] = start;
        let code = self.cx.code;
        if leaf.proven {
            for a in leaf.a0 as usize..leaf.a1 as usize {
                let acc = &code.accs[a];
                self.live[a].off = code.eval(&acc.flat, &self.slots);
                self.live[a].step = acc.inner * step;
            }
            return true;
        }
        for a in leaf.a0 as usize..leaf.a1 as usize {
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

    /// A hoisted innermost loop, [`Leaf::chunk_len`] iterations at a
    /// time: each statement of the body runs over the whole chunk
    /// before the next one starts. A guard is affine in the loop index,
    /// so it holds on a range of iterations: every statement's range is
    /// worked out once, here, instead of testing guards per element.
    /// A body with no guard runs every statement at every iteration,
    /// with no clipping.
    fn run_chunks(&mut self, l: &LoopOp, leaf: &Leaf, body: usize, step: i64, trips: i64) {
        let whole = Span {
            slot: l.slot,
            step,
            lo: 0,
            hi: trips,
        };
        let len = leaf.chunk_len(step) as i64;
        if let Some((s0, s1)) = leaf.plain {
            let n = (s1 - s0) as usize;
            return self.sweep(whole, len, n, |_, k| (s0 + k as u32, whole));
        }
        self.spans.clear();
        self.clip_ops(body, l.end as usize, whole);
        let lo = self.spans.iter().map(|(_, s)| s.lo).min().unwrap_or(0);
        let hi = self.spans.iter().map(|(_, s)| s.hi).max().unwrap_or(0);
        let n = self.spans.len();
        self.sweep(Span { lo, hi, ..whole }, len, n, |w, k| w.spans[k]);
    }

    /// Iterations `at` of a hoisted loop, `len` at a time, of the `n`
    /// statements `stmt` names (each with the iterations it runs at),
    /// in body order.
    #[inline]
    fn sweep(&mut self, at: Span, len: i64, n: usize, stmt: impl Fn(&Self, usize) -> (u32, Span)) {
        let stmts = &self.cx.code.stmts;
        let (lo, hi) = (at.lo, at.hi);
        if len == 1 {
            // The reference order, where a column of one value costs
            // more than a stack slot. A loop of its own: as a branch of
            // the chunk loop below it slowed `chunk_stmt` by a third.
            let first = self.slots[at.slot as usize];
            for k in lo..hi {
                self.slots[at.slot as usize] = first + k * at.step;
                for j in 0..n {
                    let (s, span) = stmt(self, j);
                    if span.lo <= k && k < span.hi {
                        self.run_stmt::<false, true>(&stmts[s as usize], k);
                    }
                }
            }
            return;
        }
        for from in (lo..hi).step_by(len as usize) {
            for j in 0..n {
                let (s, mut span) = stmt(self, j);
                span.lo = span.lo.max(from);
                span.hi = span.hi.min(from + len);
                if span.lo < span.hi {
                    self.chunk_stmt(&stmts[s as usize], span);
                }
            }
        }
    }

    /// Collect into `self.spans` the statements among ops `pc..end` of
    /// an innermost loop's body, in order, each with the iterations of
    /// `span` its guards let it run at.
    fn clip_ops(&mut self, mut pc: usize, end: usize, span: Span) {
        let code = self.cx.code;
        while pc < end {
            match code.ops[pc] {
                Op::Stmt(s) => {
                    self.spans.push((s, span));
                    pc += 1;
                }
                Op::Guard { c0, c1, end: past } => {
                    let mut inner = span;
                    for c in &code.conds[c0 as usize..c1 as usize] {
                        let (v0, dv) = self.cx.eval_span(&c.lin, &self.slots, &span);
                        inner.clip(c.op, v0, dv);
                    }
                    if inner.lo < inner.hi {
                        self.clip_ops(pc + 1, past as usize, inner);
                    }
                    pc = past as usize;
                }
                Op::Loop(_) => unreachable!("an innermost loop holds no loop"),
            }
        }
    }

    /// One statement over the iterations of `at` (at most [`CHUNK`]):
    /// every postfix instruction fills or combines a whole column, then
    /// the left-hand side takes the result column in iteration order.
    fn chunk_stmt(&mut self, s: &Stmt, at: Span) {
        debug_assert!(s.owner.is_none(), "an owner test runs per instance");
        let cx = &self.cx;
        let slots = &self.slots[..];
        let len = (at.hi - at.lo) as usize;
        // An access at the statement's first iteration.
        let place = |a: u32| -> (&[AtomicU64], i64, i64) {
            let l = &self.live[a as usize];
            (l.cells, l.off + l.step * at.lo, l.step)
        };
        let cols = &mut self.cols[..];
        let mut sp = 0usize;
        for ins in &cx.code.instrs[s.i0 as usize..s.i1 as usize] {
            let top = sp * CHUNK;
            match *ins {
                Instr::Lit(v) => cols[top..top + len].fill(v),
                Instr::Idx(lin) => {
                    let (v0, dv) = cx.eval_span(&lin, slots, &at);
                    for (k, c) in (at.lo..at.hi).zip(&mut cols[top..top + len]) {
                        *c = (v0 + dv * k) as f64;
                    }
                }
                Instr::Scalar { id, .. } => cols[top..top + len].fill(cx.mem.get_scalar(id)),
                Instr::Load(a) => {
                    let (cells, off, step) = place(a);
                    load_col(cells, off, step, &mut cols[top..top + len]);
                }
                Instr::Bin(op) => {
                    sp -= 1;
                    let (x, y) = cols.split_at_mut(sp * CHUNK);
                    bin_col(op, &mut x[(sp - 1) * CHUNK..][..len], &y[..len]);
                    continue;
                }
                Instr::Un(op) => {
                    un_col(op, &mut cols[top - CHUNK..][..len]);
                    continue;
                }
            }
            sp += 1;
        }
        let vals = &cols[..len];
        match s.lhs {
            Lhs::Scalar { id, .. } => cx.mem.set_scalar(id, vals[len - 1]),
            Lhs::ScalarRmw { id, op, .. } => {
                cx.mem
                    .set_scalar(id, fold_col(op, cx.mem.get_scalar(id), vals));
            }
            Lhs::Partial(k) => {
                let (_, op) = cx.code.partials[k as usize];
                let reg = &mut self.partials[k as usize];
                if !self.touched.contains(&k) {
                    self.touched.push(k);
                    *reg = op.identity();
                }
                *reg = fold_col(op, *reg, vals);
            }
            Lhs::Elem { acc, red } => {
                let (cells, off, step) = place(acc);
                match red {
                    None => store_col(cells, off, step, vals),
                    // Element reductions are a non-atomic RMW; on a
                    // cell the loop does not move, one of them.
                    Some(op) if step == 0 => {
                        let c = &cells[off as usize];
                        let acc = fold_col(op, f64::from_bits(c.load(Ordering::Relaxed)), vals);
                        c.store(acc.to_bits(), Ordering::Relaxed);
                    }
                    Some(op) => {
                        for (k, &v) in vals.iter().enumerate() {
                            let c = &cells[(off + step * k as i64) as usize];
                            let acc = op.apply(f64::from_bits(c.load(Ordering::Relaxed)), v);
                            c.store(acc.to_bits(), Ordering::Relaxed);
                        }
                    }
                }
            }
        }
    }

    /// One statement instance at the current loop indices. `HOISTED`:
    /// it is iteration `k` of a hoisted loop, so its accesses are in
    /// bounds, `k` steps from their offsets at the loop's first
    /// iteration; otherwise every subscript is checked.
    #[inline]
    fn run_stmt<const TRACE: bool, const HOISTED: bool>(&mut self, s: &Stmt, k: i64) {
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
                (l.off + l.step * k) as usize
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

/// Iterations `lo..hi` of the running innermost loop over `slot`,
/// counted from its first (whose index the slot holds), the index
/// advancing by `step` per iteration.
#[derive(Clone, Copy)]
struct Span {
    slot: u32,
    step: i64,
    lo: i64,
    hi: i64,
}

impl Span {
    /// Keep the iterations `k` at which `v0 + dv·k` compares to 0 as
    /// `op` says.
    fn clip(&mut self, op: CmpOp, v0: i64, dv: i64) {
        // v0 + dv·k >= 0
        let mut ge = |v0: i128, dv: i128| {
            if dv > 0 {
                self.lo = self.lo.max(div_ceil(-v0, dv).min(self.hi as i128) as i64);
            } else if dv < 0 {
                self.hi = self
                    .hi
                    .min((div_floor(v0, -dv) + 1).max(self.lo as i128) as i64);
            } else if v0 < 0 {
                self.hi = self.lo;
            }
        };
        let (v0, dv) = (v0 as i128, dv as i128);
        if matches!(op, CmpOp::Ge | CmpOp::Eq) {
            ge(v0, dv);
        }
        if matches!(op, CmpOp::Le | CmpOp::Eq) {
            ge(-v0, -dv);
        }
    }
}

/// Column `out[k] = cells[off + step·k]`.
fn load_col(cells: &[AtomicU64], off: i64, step: i64, out: &mut [f64]) {
    let get = |c: &AtomicU64| f64::from_bits(c.load(Ordering::Relaxed));
    match step {
        1 => {
            let src = &cells[off as usize..off as usize + out.len()];
            for (o, c) in out.iter_mut().zip(src) {
                *o = get(c);
            }
        }
        0 => out.fill(get(&cells[off as usize])),
        _ => {
            for (k, o) in out.iter_mut().enumerate() {
                *o = get(&cells[(off + step * k as i64) as usize]);
            }
        }
    }
}

/// `cells[off + step·k] = vals[k]`, in order.
fn store_col(cells: &[AtomicU64], off: i64, step: i64, vals: &[f64]) {
    if step == 1 {
        let dst = &cells[off as usize..off as usize + vals.len()];
        for (c, v) in dst.iter().zip(vals) {
            c.store(v.to_bits(), Ordering::Relaxed);
        }
    } else {
        for (k, v) in vals.iter().enumerate() {
            cells[(off + step * k as i64) as usize].store(v.to_bits(), Ordering::Relaxed);
        }
    }
}

/// One loop per operator: inside each the operator is a constant, so
/// `apply` reduces to the one operation and the loop can vectorize.
macro_rules! per_operator {
    ($op:expr, $ty:ident { $($variant:ident)* }, |$o:ident| $body:expr) => {
        match $op {
            $($ty::$variant => {
                let $o = $ty::$variant;
                $body
            })*
        }
    };
}

/// `x[k] = op(x[k], y[k])`.
fn bin_col(op: BinOp, x: &mut [f64], y: &[f64]) {
    per_operator!(op, BinOp { Add Sub Mul Div Min Max }, |o| {
        for (a, b) in x.iter_mut().zip(y) {
            *a = o.apply(*a, *b);
        }
    })
}

/// `x[k] = op(x[k])`.
fn un_col(op: UnOp, x: &mut [f64]) {
    per_operator!(op, UnOp { Neg Sqrt Abs Exp Sin Cos }, |o| {
        for a in x {
            *a = o.apply(*a);
        }
    })
}

/// `op(… op(op(acc, vals[0]), vals[1]) …)`: the order a loop folds in.
fn fold_col(op: RedOp, acc: f64, vals: &[f64]) -> f64 {
    per_operator!(op, RedOp { Add Max Min }, |o| {
        vals.iter().fold(acc, |acc, &v| o.apply(acc, v))
    })
}

impl Cx<'_> {
    #[inline]
    fn eval(&self, lin: &Lin, slots: &[i64]) -> i64 {
        self.code.eval(lin, slots)
    }

    /// `lin` along a hoisted loop: its value at the loop's first
    /// iteration and what one iteration adds.
    #[inline]
    fn eval_span(&self, lin: &Lin, slots: &[i64], at: &Span) -> (i64, i64) {
        let (mut v, mut inner) = (lin.c, 0);
        for t in &self.code.terms[lin.t0 as usize..lin.t1 as usize] {
            v += t.coeff * slots[t.slot as usize];
            if t.slot == at.slot {
                inner += t.coeff;
            }
        }
        (v, inner * at.step)
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
        self.code.owner(o, slots, self.nprocs)
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
    use crate::{run_sequential, run_virtual, ScheduleOrder};
    use ir::build::*;
    use spmd_opt::{fork_join, optimize, RItem, SpmdProgram, TopItem};

    /// The split of the plan's first distributed phase.
    fn first_split(sched: &Schedule) -> Split {
        sched
            .code
            .kernels
            .iter()
            .find_map(|k| match k.who {
                Who::Split(s) => Some(s),
                _ => None,
            })
            .expect("the plan has a distributed phase")
    }

    /// [`Leaf::chunk_len`] at step 1 of every innermost loop of the
    /// plan's kernels, in lowering order: how many iterations such a
    /// loop evaluates per statement dispatch (1: iteration by
    /// iteration).
    fn chunk_lengths(sched: &Schedule) -> Vec<usize> {
        let ops = sched.code.ops.iter();
        ops.filter_map(|op| match op {
            Op::Loop(LoopOp {
                leaf: Some(leaf), ..
            }) => Some(leaf.chunk_len(1)),
            _ => None,
        })
        .collect()
    }

    /// Run only `pids`' share of every work step, in walk order.
    fn run_pids(sched: &Schedule, mem: &Mem, pids: &[usize]) {
        for &pid in pids {
            Worker::new(sched, mem, pid).exec_all();
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
        first_split(&Schedule::new(&prog, &bind, &fork_join(&prog, &bind)))
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
        let sched = Schedule::new(&prog, &bind, &fork_join(&prog, &bind));
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
        let sched = Schedule::new(&prog, &bind, &plan);
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
        let sched = Schedule::new(&prog, &bind, &fork_join(&prog, &bind));
        let splits: Vec<_> = sched.code.kernels.iter().map(|k| k.who).collect();
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
        let sched = Schedule::new(&prog, &bind, &fork_join(&prog, &bind));
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
        let sched = Schedule::new(&prog, &bind, &optimize(&prog, &bind));
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
        let sched = Schedule::new(&prog, &bind, &optimize(&prog, &bind));
        let mem = Mem::new(&prog, &bind);
        mem.fill(ArrayId(1), |_| 0.5);
        run_pids(&sched, &mem, &[1]);
        for k in 0..16i64 {
            let expect = if k % 4 == 1 { 1.0 } else { 0.0 };
            assert_eq!(mem.array(ArrayId(0)).get(&[k]), expect, "element {k}");
        }
    }

    /// `DOALL i: DO j = 0..m-1: A[i][j] = B[i][j+1]` on `4 × m` arrays:
    /// `j + 1 == m` leaves dimension 1 while the flat offset is still
    /// inside `B` for every row but the last.
    fn row_overrun(guarded: bool, m: i64) -> (Program, Bindings) {
        let mut pb = ProgramBuilder::new("overrun");
        let a = pb.array("A", &[con(4), con(m)], dist_block_dim(0));
        let b = pb.array("B", &[con(4), con(m)], dist_block_dim(0));
        let i = pb.begin_par("i", con(0), con(3));
        let j = pb.begin_seq("j", con(0), con(m - 1));
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
        // The loop is independent, so it would run 64 iterations at a
        // time; with an end out of bounds it must not, at any length.
        for (guarded, m) in [(false, 8), (true, 8), (false, 2 * CHUNK as i64 + 3)] {
            let (prog, bind) = row_overrun(guarded, m);
            let plan = fork_join(&prog, &bind);
            assert_eq!(chunk_lengths(&Schedule::new(&prog, &bind, &plan)), [CHUNK]);
            let mem = Mem::new(&prog, &bind);
            mem.fill(ArrayId(1), |_| 7.0);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_virtual(&prog, &bind, &plan, &mem, ScheduleOrder::RoundRobin)
            }));
            let msg = *caught
                .expect_err("the overrun must panic")
                .downcast::<String>()
                .expect("a formatted panic message");
            assert_eq!(msg, format!("subscript {m} out of bounds 0..{m} in dim 1"));
            // Row 0 was copied up to the offending element and no further:
            // the read of B[0][m] (flat offset m = B[1][0]) never happened.
            let a = mem.array(ArrayId(0));
            assert_eq!(a.get(&[0, m - 2]), 7.0);
            assert_eq!(a.get(&[0, m - 1]), 0.0);
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

    /// The innermost loops of `build`'s program lower with chunk lengths
    /// `lens`, and at `P ∈ {1, 2, 3}` the chunked kernels leave the same
    /// bits as the element-at-a-time evaluator (which a traced memory
    /// selects) and come within `tol` of `run_sequential` (0 unless a
    /// scalar sum is reassociated across processors). Arrays hold
    /// values whose sums round, so a reordered fold would show.
    fn check_chunks(
        build: &dyn Fn() -> (Program, Vec<(ir::SymId, i64)>),
        lens: &[usize],
        tol: f64,
    ) {
        let (prog, syms) = build();
        let fill = |mem: &Mem| {
            for a in 0..prog.arrays.len() {
                mem.fill(ArrayId(a as u32), |s| {
                    let h = s.iter().fold(a as i64 + 3, |h, &x| (h * 29 + x) % 23);
                    0.1 + h as f64 / 7.0
                });
            }
        };
        for p in [1, 2, 3] {
            let mut bind = Bindings::new(p);
            for &(s, v) in &syms {
                bind.bind(s, v);
            }
            let plan = fork_join(&prog, &bind);
            let sched = Schedule::new(&prog, &bind, &plan);
            assert_eq!(chunk_lengths(&sched), lens, "{} P={p}", prog.name);
            let oracle = Mem::new(&prog, &bind);
            fill(&oracle);
            run_sequential(&prog, &bind, &oracle);
            let chunked = Mem::new(&prog, &bind);
            let scalar = Mem::new(&prog, &bind).with_tracer(Default::default());
            for mem in [&chunked, &scalar] {
                fill(mem);
                run_virtual(&prog, &bind, &plan, mem, ScheduleOrder::Reverse);
            }
            let d = chunked.max_abs_diff(&scalar);
            assert_eq!(
                d, 0.0,
                "{} P={p}: chunked and scalar order differ",
                prog.name
            );
            let d = chunked.max_abs_diff(&oracle);
            assert!(d <= tol, "{} P={p}: off by {d:e}", prog.name);
        }
    }

    /// `DOALL i = 0..3: DO j = lo..hi: body` over `4 × w` arrays `X`,
    /// `Y`, `Z` (rows distributed) and a vector `Q` of 4.
    fn nest(
        name: &str,
        w: i64,
        (lo, hi): (i64, i64),
        body: impl Fn(&mut ProgramBuilder, [ArrayId; 4], LoopId, LoopId),
    ) -> (Program, Vec<(ir::SymId, i64)>) {
        let mut pb = ProgramBuilder::new(name);
        let arrays = [
            pb.array("X", &[con(4), con(w)], dist_block_dim(0)),
            pb.array("Y", &[con(4), con(w)], dist_block_dim(0)),
            pb.array("Z", &[con(4), con(w)], dist_block_dim(0)),
            pb.array("Q", &[con(4)], dist_block()),
        ];
        let i = pb.begin_par("i", con(0), con(3));
        let j = pb.begin_seq("j", con(lo), con(hi));
        body(&mut pb, arrays, i, j);
        pb.end();
        pb.end();
        (pb.finish(), Vec::new())
    }

    const C: i64 = CHUNK as i64;

    #[test]
    fn trip_counts_around_the_chunk_size() {
        for trips in [1, C - 1, C, C + 1, 2 * C + 3] {
            let build = || {
                nest(
                    "trips",
                    trips + 2,
                    (2, trips + 1),
                    |pb, [x, y, _, q], i, j| {
                        let here = [idx(i), idx(j)];
                        pb.assign(
                            elem(x, here.clone()),
                            arr(y, here.clone()) * ex(1.5)
                                - ival(idx(j)) / arr(y, [idx(i), idx(j) - 2]),
                        );
                        pb.reduce(elem(q, [idx(i)]), RedOp::Add, arr(x, here.clone()).sqrt());
                    },
                )
            };
            check_chunks(&build, &[CHUNK], 0.0);
        }
    }

    /// `DOALL i: A[a·i + c] = B[i]·2 − A[a·i + c]/i` under `i >= 37`,
    /// `A` distributed by `dist`.
    fn guarded_affine_write(
        dist: DistSpec,
        a: i64,
        c: i64,
        n: i64,
    ) -> (Program, Vec<(ir::SymId, i64)>) {
        let mut pb = ProgramBuilder::new("guarded_affine_write");
        let arr_a = pb.array("A", &[con(n)], dist);
        let b = pb.array("B", &[con(n)], dist_repl());
        let i = pb.begin_par("i", con(1), con(n - 1));
        pb.begin_guard(vec![ge0(idx(i) - 37)]);
        let at = [idx(i) * a + c];
        pb.assign(
            elem(arr_a, at.clone()),
            arr(b, [idx(i)]) * ex(2.0) - arr(arr_a, at) / ival(idx(i)),
        );
        pb.end();
        pb.end();
        (pb.finish(), Vec::new())
    }

    #[test]
    fn a_cyclic_split_steps_by_p_and_subscripts_may_run_backwards() {
        let n = 3 * (2 * C + 3);
        let cyclic = || guarded_affine_write(dist_cyclic(), 1, 0, n);
        assert!(matches!(
            split_of(&cyclic, 3),
            Split::CyclicStride { a: 1, .. }
        ));
        check_chunks(&cyclic, &[CHUNK], 0.0);
        let backwards = || guarded_affine_write(dist_cyclic(), -1, n - 1, n);
        check_chunks(&backwards, &[CHUNK], 0.0);
        let block = || guarded_affine_write(dist_block(), -1, n - 1, n);
        assert!(matches!(
            split_of(&block, 3),
            Split::BlockRange { a: -1, .. }
        ));
        check_chunks(&block, &[CHUNK], 0.0);
    }

    #[test]
    fn a_carried_loop_runs_no_more_iterations_at_once_than_its_distance() {
        for (dist, len) in [(1, 1), (3, 3), (C + 1, CHUNK)] {
            let build = || {
                nest(
                    "carried",
                    3 * C,
                    (dist, 3 * C - 1),
                    |pb, [x, y, _, _], i, j| {
                        pb.assign(
                            elem(x, [idx(i), idx(j)]),
                            arr(x, [idx(i), idx(j) - dist]) * ex(0.75) + arr(y, [idx(i), idx(j)]),
                        );
                    },
                )
            };
            check_chunks(&build, &[len], 0.0);
        }
        // Reading ahead is a dependence too: the next statement instance
        // must see the old value.
        let ahead = || {
            nest("ahead", 3 * C, (0, 3 * C - 3), |pb, [x, y, _, _], i, j| {
                pb.assign(
                    elem(y, [idx(i), idx(j)]),
                    arr(x, [idx(i), idx(j)]) + ex(0.3),
                );
                pb.assign(
                    elem(x, [idx(i), idx(j) + 2]),
                    arr(y, [idx(i), idx(j)]) * ex(1.1),
                );
            })
        };
        check_chunks(&ahead, &[2], 0.0);
    }

    #[test]
    fn another_row_of_the_written_array_is_independent() {
        let build = || {
            let mut pb = ProgramBuilder::new("rows");
            let x = pb.array("X", &[con(5), con(2 * C + 3)], dist_block_dim(1));
            let i = pb.begin_seq("i", con(1), con(4));
            let j = pb.begin_par("j", con(0), con(2 * C + 2));
            pb.assign(
                elem(x, [idx(i), idx(j)]),
                arr(x, [idx(i), idx(j)]) * ex(0.3) + arr(x, [idx(i) - 1, idx(j)]),
            );
            pb.end();
            pb.end();
            (pb.finish(), Vec::new())
        };
        check_chunks(&build, &[CHUNK], 0.0);
    }

    /// `X[i][2j] = f(X[i][2j + off])`: odd `off` never meets an even
    /// element, even `off` meets it `off / 2` iterations away.
    #[test]
    fn strided_accesses_are_compared_by_divisibility() {
        for (off, len) in [(1, CHUNK), (-3, CHUNK), (2, 1), (6, 3), (-4, 2)] {
            let build = || {
                nest("strided", 4 * C, (2, C + 9), |pb, [x, _, _, _], i, j| {
                    pb.assign(
                        elem(x, [idx(i), idx(j) * 2]),
                        arr(x, [idx(i), idx(j) * 2 + off]) * ex(0.9) + ex(0.1),
                    );
                })
            };
            check_chunks(&build, &[len], 0.0);
        }
    }

    #[test]
    fn undecided_pairs_run_an_iteration_at_a_time() {
        // Another stride, an index in another dimension, and a cell the
        // loop does not move that a second statement also touches.
        type Body = dyn Fn(&mut ProgramBuilder, [ArrayId; 4], LoopId, LoopId);
        let bodies: [&Body; 3] = [
            &|pb, [x, _, _, _], i, j| {
                pb.assign(
                    elem(x, [idx(i), idx(j) * 2]),
                    arr(x, [idx(i), idx(j)]) + ex(0.1),
                );
            },
            &|pb, [x, _, _, _], i, j| {
                pb.assign(
                    elem(x, [idx(i), idx(j)]),
                    arr(x, [idx(j), idx(i)]) + ex(0.1),
                );
            },
            &|pb, [x, _, _, q], i, j| {
                pb.reduce(elem(q, [idx(i)]), RedOp::Add, arr(x, [idx(i), idx(j)]));
                pb.assign(elem(x, [idx(i), idx(j)]), arr(q, [idx(i)]) * ex(0.5));
            },
        ];
        for body in bodies {
            check_chunks(&|| nest("undecided", 4 * C, (0, 3), body), &[1], 0.0);
        }
    }

    #[test]
    fn reductions_fold_in_iteration_order() {
        // An element reduction into a cell the loop does not move, a
        // scalar sum and a scalar max, all in one body.
        let build = || {
            let mut pb = ProgramBuilder::new("folds");
            let a = pb.array("A", &[con(6), con(2 * C + 3)], dist_block_dim(0));
            let v = pb.array("V", &[con(2 * C + 3)], dist_repl());
            let q = pb.array("Q", &[con(6)], dist_block());
            let s = pb.scalar("s", 0.25);
            let m = pb.scalar("m", -1.0);
            let i = pb.begin_par("i", con(0), con(5));
            let j = pb.begin_seq("j", con(0), con(2 * C + 2));
            let aij = || arr(a, [idx(i), idx(j)]);
            pb.reduce(elem(q, [idx(i)]), RedOp::Add, aij() * arr(v, [idx(j)]));
            pb.reduce(svar(s), RedOp::Add, aij() / arr(v, [idx(j)]));
            pb.reduce(svar(m), RedOp::Max, aij() - arr(v, [idx(j)]));
            pb.end();
            pb.end();
            (pb.finish(), Vec::new())
        };
        check_chunks(&build, &[CHUNK], 1e-9);
        // Two statements folding into one scalar interleave.
        let twice = || {
            let mut pb = ProgramBuilder::new("twice");
            let a = pb.array("A", &[con(6), con(C + 3)], dist_block_dim(0));
            let s = pb.scalar("s", 0.25);
            let i = pb.begin_par("i", con(0), con(5));
            let j = pb.begin_seq("j", con(0), con(C + 2));
            pb.reduce(svar(s), RedOp::Add, arr(a, [idx(i), idx(j)]));
            pb.reduce(svar(s), RedOp::Add, arr(a, [idx(i), idx(j)]).sqrt());
            pb.end();
            pb.end();
            (pb.finish(), Vec::new())
        };
        check_chunks(&twice, &[1], 1e-9);
    }

    #[test]
    fn serial_loops_fold_scalars_in_order_or_stay_scalar() {
        // Master-only loops: a read-modify-write scalar and a plain
        // scalar store nothing else mentions ...
        let build = |forward: bool| {
            let mut pb = ProgramBuilder::new("serial");
            let a = pb.array("A", &[con(C + 5)], dist_block());
            let s = pb.scalar("s", 0.25);
            let t = pb.scalar("t", 0.0);
            let j = pb.begin_seq("j", con(0), con(C + 4));
            pb.reduce(svar(s), RedOp::Add, arr(a, [idx(j)]) * ex(0.3));
            pb.assign(svar(t), arr(a, [idx(j)]) + ival(idx(j)));
            if forward {
                // ... and the same with `t` forwarded to an element.
                pb.assign(elem(a, [idx(j)]), sca(t) * ex(2.0));
            }
            pb.end();
            (pb.finish(), Vec::new())
        };
        check_chunks(&|| build(false), &[CHUNK], 0.0);
        check_chunks(&|| build(true), &[1], 0.0);
    }

    #[test]
    fn guards_clip_a_statement_to_the_iterations_they_hold_at() {
        let n = 2 * C + 3;
        let build = || {
            nest("guards", n, (0, n - 1), |pb, [x, y, z, _], i, j| {
                let here = || [idx(i), idx(j)];
                // Nowhere, at one iteration, everywhere.
                pb.begin_guard(vec![ge0(idx(j) - n)]);
                pb.assign(elem(x, here()), ex(100.0));
                pb.end();
                pb.begin_guard(vec![eq0(idx(j) - C - 6)]);
                pb.assign(elem(x, here()), arr(y, here()) * ex(2.0));
                pb.end();
                pb.begin_guard(vec![ge0(idx(j))]);
                pb.assign(elem(z, here()), arr(y, here()) + ex(1.0));
                // Nested, across a chunk boundary, a bound that is not
                // a multiple of the coefficient.
                pb.begin_guard(vec![ge0(con(C + 1) - idx(j)), le0(con(7) - idx(j) * 2)]);
                pb.assign(elem(y, here()), arr(z, here()) * arr(z, here()));
                pb.end();
                pb.end();
                // No integer solution.
                pb.begin_guard(vec![eq0(idx(j) * 2 - 7)]);
                pb.assign(elem(z, here()), ex(-1.0));
                pb.end();
            })
        };
        check_chunks(&build, &[CHUNK], 0.0);
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
        let sched = Schedule::new(&prog, &bind, &optimize(&prog, &bind));
        let mem = Mem::new(&prog, &bind);
        run_pids(&sched, &mem, &[0, 1, 2, 3]);
        for k in 0..32i64 {
            let expect = if (1..31).contains(&k) { 5.0 } else { 0.0 };
            assert_eq!(mem.array(a).get(&[k]), expect, "element {k}");
        }
    }

    /// The executor's arithmetic and `analysis::ScannedBounds` — the
    /// range a code generator reads off the owner polyhedron — agree on
    /// every one-interval split of the suite: at every step a cursor
    /// reaches, each processor runs exactly the scanned iterations.
    #[test]
    fn every_block_split_runs_its_scanned_bounds() {
        // Steps checked per shape: index blocks, owner blocks, and
        // block owners that do not depend on the loop.
        let mut checked = [0usize; 3];
        for def in suite::all() {
            let built = (def.build)(suite::Scale::Test);
            let prog = &built.prog;
            for p in [2, 3, 8] {
                let bind = built.bindings(p);
                let sched = Schedule::new(prog, &bind, &optimize(prog, &bind));
                let code = &sched.code;
                let mut scans: Vec<Option<analysis::ScannedBounds>> =
                    (0..code.kernels.len()).map(|_| None).collect();
                let mut cur = sched.cursor();
                while let Some(step) = cur.next() {
                    let Event::Work { kernel } = step.event else {
                        continue;
                    };
                    let k = &code.kernels[kernel as usize];
                    let (shape, split) = match k.who {
                        Who::Split(s @ Split::BlockIndex { .. }) => (0, s),
                        Who::Split(s @ Split::BlockRange { .. }) => (1, s),
                        Who::Split(s @ Split::Fixed(o)) if matches!(o.dist, OwnerMap::Block(_)) => {
                            (2, s)
                        }
                        _ => continue,
                    };
                    let at = format!("{} P={p} kernel {kernel}", prog.name);
                    let scan = scans[kernel as usize].get_or_insert_with(|| {
                        let partition = analysis::loop_partition(prog, &bind, k.node);
                        analysis::scan_owned_range(prog, &bind, k.node, &partition)
                            .unwrap_or_else(|| panic!("{at}: the owner polyhedron does not scan"))
                    });
                    let Op::Loop(l) = code.ops[k.o0 as usize] else {
                        unreachable!("a distributed phase is a loop")
                    };
                    let bounds = (code.eval(&l.lo, &cur.slots), code.eval(&l.hi, &cur.slots));
                    let outer = |l: LoopId| Some(cur.slots[l.0 as usize]);
                    let nonempty = |r: Option<(i64, i64)>| r.filter(|(a, b)| a <= b);
                    for pid in 0..p {
                        let runs = code.interval(split, (pid, p), bounds, &cur.slots);
                        let scanned = scan.range(&bind, pid, &outer);
                        assert_eq!(nonempty(runs), nonempty(scanned), "{at} P{pid}");
                    }
                    checked[shape] += 1;
                }
            }
        }
        assert!(checked.iter().all(|&n| n > 0), "{checked:?}");
    }
}
