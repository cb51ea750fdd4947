//! The reference evaluator: expression evaluation and tree-walking
//! subtree execution with the original sequential semantics. Parallel
//! executors run lowered kernels ([`crate::kernel`]) instead; this walker
//! stays as the independent oracle they are compared against.

use crate::mem::Mem;
use crate::trace::{AccessKind, Target};
use analysis::Bindings;
use ir::{AffAtom, Affine, Assign, Expr, LhsRef, LoopId, Node, NodeId, Program, ScalarId};

/// Current loop-index values (indexed by `LoopId`).
pub struct Env {
    vals: Vec<i64>,
    bound: Vec<bool>,
}

impl Env {
    /// Fresh environment with no loop bound.
    pub fn new(prog: &Program) -> Self {
        Env {
            vals: vec![0; prog.num_loops as usize],
            bound: vec![false; prog.num_loops as usize],
        }
    }

    /// Bind a loop index.
    #[inline]
    pub fn set(&mut self, l: LoopId, v: i64) {
        self.vals[l.0 as usize] = v;
        self.bound[l.0 as usize] = true;
    }

    /// Unbind a loop index.
    #[inline]
    pub fn clear(&mut self, l: LoopId) {
        self.bound[l.0 as usize] = false;
    }

    /// Value of a loop index, if bound.
    #[inline]
    pub fn get(&self, l: LoopId) -> Option<i64> {
        if self.bound[l.0 as usize] {
            Some(self.vals[l.0 as usize])
        } else {
            None
        }
    }
}

/// Evaluate an affine expression; panics on unbound atoms (an
/// interpreter bug, not a user error).
pub fn eval_affine(bind: &Bindings, env: &Env, e: &Affine) -> i64 {
    try_eval_affine(bind, env, e).expect("unbound atom in affine expression")
}

/// Evaluate an affine expression, `None` when an atom is unbound.
pub fn try_eval_affine(bind: &Bindings, env: &Env, e: &Affine) -> Option<i64> {
    let mut acc = e.constant_term();
    for (a, c) in e.terms() {
        let v = match a {
            AffAtom::Sym(s) => bind.get(s)?,
            AffAtom::Loop(l) => env.get(l)?,
        };
        acc += c * v;
    }
    Some(acc)
}

/// Evaluate a value expression as processor `pid` (private arrays route
/// to the processor's own copy).
pub fn eval_expr(
    prog: &Program,
    bind: &Bindings,
    mem: &Mem,
    env: &Env,
    e: &Expr,
    pid: usize,
) -> f64 {
    match e {
        Expr::Lit(v) => *v,
        Expr::Idx(a) => eval_affine(bind, env, a) as f64,
        Expr::Scalar(s) => {
            if !prog.scalar(*s).privatizable {
                mem.trace(pid, Target::Scalar(*s), AccessKind::Read);
            }
            mem.get_scalar(*s)
        }
        Expr::Elem(a, subs) => {
            let idx: Vec<i64> = subs.iter().map(|s| eval_affine(bind, env, s)).collect();
            let st = mem.array_view(*a, pid);
            if !mem.is_private(*a) {
                mem.trace(
                    pid,
                    Target::Elem(*a, st.flat_offset(&idx) as u64),
                    AccessKind::Read,
                );
            }
            st.get(&idx)
        }
        Expr::Bin(op, l, r) => op.apply(
            eval_expr(prog, bind, mem, env, l, pid),
            eval_expr(prog, bind, mem, env, r, pid),
        ),
        Expr::Un(op, a) => op.apply(eval_expr(prog, bind, mem, env, a, pid)),
    }
}

fn exec_assign(prog: &Program, bind: &Bindings, mem: &Mem, env: &Env, a: &Assign, pid: usize) {
    let v = eval_expr(prog, bind, mem, env, &a.rhs, pid);
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
            let idx: Vec<i64> = subs.iter().map(|s| eval_affine(bind, env, s)).collect();
            let st = mem.array_view(*arr, pid);
            let shared = !mem.is_private(*arr);
            let target = Target::Elem(*arr, st.flat_offset(&idx) as u64);
            match redop {
                None => {
                    if shared {
                        mem.trace(pid, target, AccessKind::Write);
                    }
                    st.set(&idx, v);
                }
                Some(op) => {
                    if shared {
                        // Element reductions are a non-atomic RMW.
                        mem.trace(pid, target, AccessKind::Read);
                        mem.trace(pid, target, AccessKind::Write);
                    }
                    st.set(&idx, op.apply(st.get(&idx), v));
                }
            }
        }
    }
}

/// Execute a subtree with plain sequential semantics (parallel loops run
/// like sequential ones, reductions apply directly).
pub fn exec_subtree_seq(
    prog: &Program,
    bind: &Bindings,
    mem: &Mem,
    env: &mut Env,
    node: NodeId,
    pid: usize,
) {
    match prog.node(node) {
        Node::Assign(a) => exec_assign(prog, bind, mem, env, a, pid),
        Node::Guard(g) => {
            for c in &g.conds {
                if !c.holds(&|atom| match atom {
                    AffAtom::Sym(s) => bind.get(s).expect("unbound symbolic in guard"),
                    AffAtom::Loop(l) => env.get(l).expect("unbound loop in guard"),
                }) {
                    return;
                }
            }
            for &child in &g.body {
                exec_subtree_seq(prog, bind, mem, env, child, pid);
            }
        }
        Node::Loop(l) => {
            let lo = eval_affine(bind, env, &l.lo);
            let hi = eval_affine(bind, env, &l.hi);
            for i in lo..=hi {
                env.set(l.id, i);
                for &child in &l.body {
                    exec_subtree_seq(prog, bind, mem, env, child, pid);
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
