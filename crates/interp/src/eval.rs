//! The reference evaluator: expression evaluation and tree-walking
//! subtree execution with the original sequential semantics. Parallel
//! executors run lowered kernels ([`crate::kernel`]) instead; this walker
//! stays as the independent oracle they are compared against.
//!
//! Its rules: it walks the IR tree in source order and shares no code
//! with the kernels; affine arithmetic is checked (an `i64` overflow
//! panics with `affine eval overflow`, in release as in debug, rather
//! than wrapping the way a kernel would); every subscript is checked
//! against its dimension as it is folded into the flat offset.

use crate::mem::{ArrayStore, Mem};
use crate::trace::{AccessKind, Target};
use analysis::Bindings;
use ir::{AffAtom, Affine, Assign, Expr, LhsRef, LoopId, Node, NodeId, Program, ScalarId, SymId};

/// The values affine expressions read: the program's symbolics, resolved
/// from the [`Bindings`] once (indexed by `SymId`), and the current
/// loop-index values (indexed by `LoopId`).
pub struct Env {
    syms: Vec<Option<i64>>,
    loops: Vec<Option<i64>>,
}

impl Env {
    /// Environment of `prog` under `bind`, with no loop bound.
    pub fn new(prog: &Program, bind: &Bindings) -> Self {
        Env {
            syms: (0..prog.syms.len())
                .map(|k| bind.get(SymId(k as u32)))
                .collect(),
            loops: vec![None; prog.num_loops as usize],
        }
    }

    /// Bind a loop index.
    #[inline]
    pub fn set(&mut self, l: LoopId, v: i64) {
        self.loops[l.0 as usize] = Some(v);
    }

    /// Unbind a loop index.
    #[inline]
    pub fn clear(&mut self, l: LoopId) {
        self.loops[l.0 as usize] = None;
    }

    /// Value of a loop index, if bound.
    #[inline]
    pub fn get(&self, l: LoopId) -> Option<i64> {
        self.loops[l.0 as usize]
    }

    /// Value of an atom, if bound.
    #[inline]
    fn atom(&self, a: AffAtom) -> Option<i64> {
        match a {
            AffAtom::Sym(s) => self.syms[s.0 as usize],
            AffAtom::Loop(l) => self.loops[l.0 as usize],
        }
    }

    /// Evaluate an affine expression; panics on unbound atoms (an
    /// interpreter bug, not a user error) and on overflow.
    #[inline]
    pub fn eval(&self, e: &Affine) -> i64 {
        self.try_eval(e).expect("unbound atom in affine expression")
    }

    /// Evaluate an affine expression, `None` when an atom is unbound;
    /// panics on overflow.
    #[inline]
    pub fn try_eval(&self, e: &Affine) -> Option<i64> {
        let mut acc = e.constant_term();
        for (a, c) in e.terms() {
            let v = self.atom(a)?;
            acc = c
                .checked_mul(v)
                .and_then(|t| acc.checked_add(t))
                .unwrap_or_else(|| overflow());
        }
        Some(acc)
    }

    /// Flat offset of element `subs` of `st`.
    #[inline]
    fn offset(&self, st: &ArrayStore, subs: &[Affine]) -> usize {
        st.flat_offset(subs.iter().map(|s| self.eval(s)))
    }
}

#[cold]
#[inline(never)]
fn overflow() -> ! {
    panic!("affine eval overflow")
}

/// Evaluate a value expression as processor `pid` (private arrays route
/// to the processor's own copy).
pub fn eval_expr(prog: &Program, mem: &Mem, env: &Env, e: &Expr, pid: usize) -> f64 {
    match e {
        Expr::Lit(v) => *v,
        Expr::Idx(a) => env.eval(a) as f64,
        Expr::Scalar(s) => {
            if !prog.scalar(*s).privatizable {
                mem.trace(pid, Target::Scalar(*s), AccessKind::Read);
            }
            mem.get_scalar(*s)
        }
        Expr::Elem(a, subs) => {
            let st = mem.array_view(*a, pid);
            let off = env.offset(st, subs);
            if !mem.is_private(*a) {
                mem.trace(pid, Target::Elem(*a, off as u64), AccessKind::Read);
            }
            st.get_linear(off)
        }
        Expr::Bin(op, l, r) => op.apply(
            eval_expr(prog, mem, env, l, pid),
            eval_expr(prog, mem, env, r, pid),
        ),
        Expr::Un(op, a) => op.apply(eval_expr(prog, mem, env, a, pid)),
    }
}

fn exec_assign(prog: &Program, mem: &Mem, env: &Env, a: &Assign, pid: usize) {
    let v = eval_expr(prog, mem, env, &a.rhs, pid);
    let trace_scalar = |s: ScalarId, kind: AccessKind| {
        if !prog.scalar(s).privatizable {
            mem.trace(pid, Target::Scalar(s), kind);
        }
    };
    match (&a.lhs, a.reduction) {
        (LhsRef::Scalar(s), None) => {
            trace_scalar(*s, AccessKind::Write);
            mem.set_scalar(*s, v);
        }
        (LhsRef::Scalar(s), Some(op)) => {
            // Non-atomic read-modify-write.
            trace_scalar(*s, AccessKind::Read);
            trace_scalar(*s, AccessKind::Write);
            mem.set_scalar(*s, op.apply(mem.get_scalar(*s), v));
        }
        (LhsRef::Elem(arr, subs), redop) => {
            let st = mem.array_view(*arr, pid);
            let off = env.offset(st, subs);
            let shared = !mem.is_private(*arr);
            let target = Target::Elem(*arr, off as u64);
            match redop {
                None => {
                    if shared {
                        mem.trace(pid, target, AccessKind::Write);
                    }
                    st.set_linear(off, v);
                }
                Some(op) => {
                    if shared {
                        // Element reductions are a non-atomic RMW.
                        mem.trace(pid, target, AccessKind::Read);
                        mem.trace(pid, target, AccessKind::Write);
                    }
                    st.set_linear(off, op.apply(st.get_linear(off), v));
                }
            }
        }
    }
}

/// Execute a subtree with plain sequential semantics (parallel loops run
/// like sequential ones, reductions apply directly).
pub fn exec_subtree_seq(prog: &Program, mem: &Mem, env: &mut Env, node: NodeId, pid: usize) {
    match prog.node(node) {
        Node::Assign(a) => exec_assign(prog, mem, env, a, pid),
        Node::Guard(g) => {
            for c in &g.conds {
                if !c.holds(&|atom| env.atom(atom).expect("unbound atom in guard")) {
                    return;
                }
            }
            for &child in &g.body {
                exec_subtree_seq(prog, mem, env, child, pid);
            }
        }
        Node::Loop(l) => {
            let lo = env.eval(&l.lo);
            let hi = env.eval(&l.hi);
            for i in lo..=hi {
                env.set(l.id, i);
                for &child in &l.body {
                    exec_subtree_seq(prog, mem, env, child, pid);
                }
            }
            env.clear(l.id);
        }
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
