//! The reference evaluator: the original sequential semantics, the
//! oracle every parallel execution is compared against. Parallel
//! executors run lowered kernels ([`crate::kernel`]) instead; this
//! module shares no code with them.
//!
//! [`run`] resolves the program once per call into a tree that mirrors
//! the IR node for node — one closure per loop, guard, assignment and
//! expression node — with everything the bindings and the memory fix
//! bound in: symbol values, each access's cells, extents and strides,
//! and whether it is traced. It then walks that tree. Its rules:
//!
//! * source order, one statement instance at a time; a right-hand side
//!   is evaluated left to right before the left-hand subscript, and a
//!   tracer records the same `(pid, Target, AccessKind)` sequence;
//! * affine arithmetic adds the constant, then the loop terms, then the
//!   symbol terms (never folded into the constant), each step checked:
//!   an `i64` overflow panics with `affine eval overflow`, in release as
//!   in debug, rather than wrapping the way a kernel would;
//! * resolving never fails: an unbound symbol, or a loop index outside
//!   its loop, panics only when its node runs (`unbound atom in affine
//!   expression`, `unbound atom in guard`), so a statement in a
//!   zero-trip loop or behind a false guard never fails;
//! * every subscript is checked against its own extent at every element,
//!   before anything is stored.

use crate::mem::{offset, ArrayStore, Mem};
use crate::trace::{AccessKind, Target, TraceBuffer};
use analysis::Bindings;
use ir::{
    AffAtom, Affine, BinOp, CmpOp, Expr, GuardCond, LhsRef, Node, NodeId, Program, RedOp, SymId,
};
use std::sync::atomic::{AtomicU64, Ordering};

const UNBOUND: &str = "unbound atom in affine expression";

/// `acc + c·v`, checked.
#[inline(always)]
fn step(acc: i64, c: i64, v: i64) -> i64 {
    c.checked_mul(v)
        .and_then(|t| acc.checked_add(t))
        .unwrap_or_else(|| overflow())
}

#[cold]
#[inline(never)]
fn overflow() -> ! {
    panic!("affine eval overflow")
}

/// Execute `prog` with its original sequential semantics (parallel loops
/// run like sequential ones, reductions apply directly) as processor 0:
/// resolve once, then walk.
pub fn run(prog: &Program, bind: &Bindings, mem: &Mem) {
    let loops = prog.num_loops as usize;
    let mut slots = vec![0; (loops + prog.syms.len()).max(1)];
    let mut bound = vec![false; slots.len()];
    for k in 0..prog.syms.len() {
        if let Some(v) = bind.get(SymId(k as u32)) {
            (slots[loops + k], bound[loops + k]) = (v, true);
        }
    }
    let mut r = Resolver { prog, mem, bound };
    for node in r.block(&prog.body) {
        node(&mut slots);
    }
}

/// What a resolved node reads: the loop-index values (slot = `LoopId`),
/// then the bound symbol values (slot = loop count + `SymId`).
type Slots = [i64];
type Int<'a> = Box<dyn Fn(&Slots) -> i64 + 'a>;
type Val<'a> = Box<dyn Fn(&Slots) -> f64 + 'a>;
type Run<'a> = Box<dyn Fn(&mut Slots) + 'a>;
/// Where a shared access is recorded: the tracer, and the target with
/// its offset still to be filled in for an array element.
type Trace<'a> = Option<(&'a TraceBuffer, Target)>;

/// An affine expression's constant and `N` bound terms in the IR's
/// order, each the slot it reads and its coefficient; a shorter one is
/// padded with zero terms, which cannot overflow.
#[derive(Clone, Copy)]
struct Lin<const N: usize>(i64, [(usize, i64); N]);

impl<const N: usize> Lin<N> {
    #[inline(always)]
    fn eval(&self, s: &Slots) -> i64 {
        self.1
            .iter()
            .fold(self.0, |acc, &(k, c)| step(acc, c, s[k]))
    }
}

#[inline(always)]
fn record(trace: Trace, off: usize, kind: AccessKind) {
    if let Some((t, target)) = trace {
        let target = match target {
            Target::Elem(a, _) => Target::Elem(a, off as u64),
            scalar => scalar,
        };
        t.record(0, target, kind);
    }
}

fn load<'a>(off: impl Fn(&Slots) -> usize + 'a, cells: &'a [AtomicU64], t: Trace<'a>) -> Val<'a> {
    Box::new(move |s| {
        let off = off(s);
        record(t, off, AccessKind::Read);
        f64::from_bits(cells[off].load(Ordering::Relaxed))
    })
}

/// An assignment: the right-hand side, then the left-hand side's
/// offset, then the store (a reduction is a non-atomic read-modify-write).
fn store<'a>(
    off: impl Fn(&Slots) -> usize + 'a,
    cells: &'a [AtomicU64],
    t: Trace<'a>,
    (rhs, reduction): (Val<'a>, Option<RedOp>),
) -> Run<'a> {
    Box::new(move |s| {
        let mut v = rhs(s);
        let off = off(s);
        if let Some(op) = reduction {
            record(t, off, AccessKind::Read);
            v = op.apply(f64::from_bits(cells[off].load(Ordering::Relaxed)), v);
        }
        record(t, off, AccessKind::Write);
        cells[off].store(v.to_bits(), Ordering::Relaxed);
    })
}

/// `$use`, with `$off` the flat-offset closure of `$lhs`: 0 for a
/// scalar; for an array element specialised by rank (1–3) and terms per
/// subscript (up to 2) where every atom is bound. Returns from the
/// enclosing function.
macro_rules! with_offset {
    ($r:expr, $lhs:expr, |$off:ident| $use:expr) => {
        with_offset!(@ $r, $lhs, $off, $use, (1, 1) (1, 2) (2, 1) (2, 2) (3, 1) (3, 2))
    };
    (@ $r:expr, $lhs:expr, $off:ident, $use:expr, $(($rank:literal, $n:literal))*) => {{
        let (r, lhs): (&Resolver, &LhsRef) = ($r, $lhs);
        if let LhsRef::Elem(arr, subs) = lhs {
            let st = r.mem.array_view(*arr, 0);
            $(if let Some(d) = r.dims::<$rank, $n>(st, subs) {
                let $off = move |s: &Slots| offset(d.iter().map(|&(e, st, l)| (e, st, l.eval(s))));
                return $use;
            })*
            let $off = r.any_offset(st, subs);
            return $use;
        }
        let $off = |_: &Slots| 0;
        $use
    }};
}

struct Resolver<'a> {
    prog: &'a Program,
    mem: &'a Mem,
    /// Which slots hold a value where the node being resolved runs: the
    /// bound symbols and the enclosing loops.
    bound: Vec<bool>,
}

impl<'a> Resolver<'a> {
    fn block(&mut self, ids: &[NodeId]) -> Vec<Run<'a>> {
        ids.iter().map(|&id| self.node(id)).collect()
    }

    fn node(&mut self, id: NodeId) -> Run<'a> {
        match self.prog.node(id) {
            Node::Assign(a) => {
                let (cells, t) = self.cells(&a.lhs);
                let rhs = (self.expr(&a.rhs), a.reduction);
                with_offset!(self, &a.lhs, |off| store(off, cells, t, rhs))
            }
            Node::Guard(g) => {
                let conds: Vec<_> = g.conds.iter().map(|c| self.cond(c)).collect();
                let body = self.block(&g.body);
                Box::new(move |s| {
                    if conds.iter().all(|c| c(s)) {
                        body.iter().for_each(|node| node(s));
                    }
                })
            }
            Node::Loop(l) => {
                let (lo, hi) = (self.int(&l.lo, UNBOUND), self.int(&l.hi, UNBOUND));
                let k = l.id.0 as usize;
                self.bound[k] = true;
                let body = self.block(&l.body);
                self.bound[k] = false;
                Box::new(move |s| {
                    let (lo, hi) = (lo(s), hi(s));
                    for i in lo..=hi {
                        s[k] = i;
                        body.iter().for_each(|node| node(s));
                    }
                })
            }
        }
    }

    fn expr(&self, e: &Expr) -> Val<'a> {
        match e {
            &Expr::Lit(v) => Box::new(move |_| v),
            Expr::Idx(a) => {
                let a = self.int(a, UNBOUND);
                Box::new(move |s| a(s) as f64)
            }
            Expr::Scalar(x) => self.read(&LhsRef::Scalar(*x)),
            Expr::Elem(arr, subs) => self.read(&LhsRef::Elem(*arr, subs.clone())),
            Expr::Bin(op, l, r) => {
                let (l, r) = (self.expr(l), self.expr(r));
                match op {
                    BinOp::Add => Box::new(move |s| l(s) + r(s)),
                    BinOp::Sub => Box::new(move |s| l(s) - r(s)),
                    BinOp::Mul => Box::new(move |s| l(s) * r(s)),
                    BinOp::Div => Box::new(move |s| l(s) / r(s)),
                    BinOp::Min => Box::new(move |s| l(s).min(r(s))),
                    BinOp::Max => Box::new(move |s| l(s).max(r(s))),
                }
            }
            Expr::Un(op, a) => {
                let (op, a) = (*op, self.expr(a));
                Box::new(move |s| op.apply(a(s)))
            }
        }
    }

    /// A read of element or scalar `r` (named as an assignment's target
    /// is).
    fn read(&self, r: &LhsRef) -> Val<'a> {
        let (cells, t) = self.cells(r);
        with_offset!(self, r, |off| load(off, cells, t))
    }

    /// The cells an access indexes, and where it is traced: shared
    /// arrays and non-privatizable scalars only.
    fn cells(&self, r: &LhsRef) -> (&'a [AtomicU64], Trace<'a>) {
        let (mem, tracer) = (self.mem, self.mem.tracer());
        match *r {
            LhsRef::Scalar(x) => {
                let shared = !self.prog.scalar(x).privatizable;
                let trace = tracer.filter(|_| shared).map(|t| (t, Target::Scalar(x)));
                (mem.scalar_cells(x), trace)
            }
            LhsRef::Elem(a, _) => {
                let trace = tracer
                    .filter(|_| !mem.is_private(a))
                    .map(|t| (t, Target::Elem(a, 0)));
                (mem.array_view(a, 0).cells(), trace)
            }
        }
    }

    fn cond(&self, c: &GuardCond) -> Box<dyn Fn(&Slots) -> bool + 'a> {
        let e = self.int(&c.expr, "unbound atom in guard");
        match c.op {
            CmpOp::Eq => Box::new(move |s| e(s) == 0),
            CmpOp::Ge => Box::new(move |s| e(s) >= 0),
            CmpOp::Le => Box::new(move |s| e(s) <= 0),
        }
    }

    /// `e`'s constant and terms, each the slot it reads (`None` where the
    /// atom is unbound here) and its coefficient.
    fn terms(&self, e: &Affine) -> (i64, Vec<(Option<usize>, i64)>) {
        let terms = e.terms().map(|(a, c)| {
            let k = match a {
                AffAtom::Loop(l) => l.0 as usize,
                AffAtom::Sym(s) => self.prog.num_loops as usize + s.0 as usize,
            };
            (self.bound.get(k).is_some_and(|&b| b).then_some(k), c)
        });
        (e.constant_term(), terms.collect())
    }

    /// `e` as a [`Lin`], when it has at most `N` terms and all are bound.
    fn lin<const N: usize>(&self, e: &Affine) -> Option<Lin<N>> {
        let (c, terms) = self.terms(e);
        if terms.len() > N {
            return None;
        }
        let mut t = [(0, 0); N];
        for (slot, &(k, coeff)) in t.iter_mut().zip(&terms) {
            *slot = (k?, coeff);
        }
        Some(Lin(c, t))
    }

    /// `e` as a closure; an unbound atom panics with `unbound` when the
    /// evaluation reaches it.
    fn int(&self, e: &Affine, unbound: &'static str) -> Int<'a> {
        if let Some(l) = self.lin::<2>(e) {
            return Box::new(move |s| l.eval(s));
        }
        let (c, t) = self.terms(e);
        Box::new(move |s| {
            let term =
                |acc, &(k, coeff): &(Option<usize>, i64)| step(acc, coeff, s[k.expect(unbound)]);
            t.iter().fold(c, term)
        })
    }

    /// The dimensions of an access of rank `R` whose subscripts are
    /// [`Lin`]s of `N` terms.
    fn dims<const R: usize, const N: usize>(
        &self,
        st: &ArrayStore,
        subs: &[Affine],
    ) -> Option<[(i64, i64, Lin<N>); R]> {
        if subs.len() != R || st.extents.len() != R {
            return None;
        }
        let mut dims = [(0, 0, Lin(0, [(0, 0); N])); R];
        for (k, dim) in dims.iter_mut().enumerate() {
            *dim = (st.extents[k], st.strides[k], self.lin(&subs[k])?);
        }
        Some(dims)
    }

    /// The flat offset through subscripts of any shape.
    fn any_offset(&self, st: &ArrayStore, subs: &[Affine]) -> impl Fn(&Slots) -> usize + 'a {
        let dims: Vec<_> = (subs.iter().zip(&st.extents).zip(&st.strides))
            .map(|((e, &extent), &stride)| (extent, stride, self.int(e, UNBOUND)))
            .collect();
        move |s| offset(dims.iter().map(|(e, st, sub)| (*e, *st, sub(s))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::build::*;

    #[test]
    fn sequential_jacobi_matches_hand_computation() {
        let mut pb = ProgramBuilder::new("j");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let b = pb.array("B", &[sym(n)], dist_block());
        let i = pb.begin_par("i", con(1), sym(n) - 2);
        pb.assign(
            elem(b, [idx(i)]),
            ex(0.5) * (arr(a, [idx(i) - 1]) + arr(a, [idx(i) + 1])),
        );
        pb.end();
        let prog = pb.finish();
        let bind = Bindings::new(2).set(n, 6);
        let mem = Mem::new(&prog, &bind);
        mem.fill(a, |s| s[0] as f64);
        crate::run_sequential(&prog, &bind, &mem);
        for k in 1..5 {
            assert_eq!(mem.array(b).get(&[k]), k as f64);
        }
        assert_eq!(mem.array(b).get(&[0]), 0.0);
    }

    /// `DO j = 0..7: A[0][j] = j + 1` over a 2 × 4 array: at `j = 4` the
    /// second subscript leaves its dimension while the flat offset (4)
    /// is still inside `A`. The store panics before touching row 1,
    /// after exactly the four in-bounds stores.
    #[test]
    fn a_store_leaving_its_dimension_panics_after_the_stores_before_it() {
        let mut pb = ProgramBuilder::new("leave");
        let a = pb.array("A", &[con(2), con(4)], dist_block());
        let j = pb.begin_seq("j", con(0), con(7));
        pb.assign(elem(a, [con(0), idx(j)]), ival(idx(j) + 1));
        pb.end();
        let prog = pb.finish();
        let bind = Bindings::new(2);
        let mem = Mem::new(&prog, &bind);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crate::run_sequential(&prog, &bind, &mem)
        }))
        .expect_err("the fifth store leaves dim 1");
        let msg = err.downcast::<String>().expect("a formatted message");
        assert_eq!(*msg, "subscript 4 out of bounds 0..4 in dim 1");
        let st = mem.array(a);
        let cells: Vec<f64> = (0..st.len()).map(|k| st.get_linear(k)).collect();
        assert_eq!(cells, [1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn guard_restricts_execution() {
        let mut pb = ProgramBuilder::new("g");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let i = pb.begin_par("i", con(0), sym(n) - 1);
        pb.begin_guard(vec![eq0(idx(i) - 3)]);
        pb.assign(elem(a, [idx(i)]), ex(9.0));
        pb.end();
        pb.end();
        let prog = pb.finish();
        let bind = Bindings::new(2).set(n, 6);
        let mem = Mem::new(&prog, &bind);
        crate::run_sequential(&prog, &bind, &mem);
        for k in 0..6 {
            let expect = if k == 3 { 9.0 } else { 0.0 };
            assert_eq!(mem.array(a).get(&[k as i64]), expect);
        }
    }
}
