//! A small builder DSL for constructing programs.
//!
//! Loops are opened with `begin_par` / `begin_seq` and closed with `end`;
//! everything emitted in between becomes the loop body. Free helper
//! functions (`con`, `sym`, `idx`, `elem`, `arr`, `ex`, …) keep
//! generated and test programs readable; [`crate::text`] lowers `.be`
//! sources through this builder.

use crate::decl::{
    ArrayDecl, ArrayId, DimDist, Distribution, ScalarDecl, ScalarId, SymDecl, SymId,
};
use crate::expr::{Affine, Expr};
use crate::node::{Assign, CmpOp, Guard, GuardCond, LhsRef, Loop, LoopId, LoopKind, Node, RedOp};
use crate::program::{NodeId, Program};

/// Constant affine expression.
pub fn con(c: i64) -> Affine {
    Affine::constant(c)
}

/// Symbolic-constant affine expression.
pub fn sym(s: SymId) -> Affine {
    Affine::sym(s)
}

/// Loop-index affine expression.
pub fn idx(l: LoopId) -> Affine {
    Affine::index(l)
}

/// Array-element assignment target.
pub fn elem<I: IntoIterator<Item = Affine>>(a: ArrayId, subs: I) -> LhsRef {
    LhsRef::Elem(a, subs.into_iter().collect())
}

/// Scalar assignment target.
pub fn svar(s: ScalarId) -> LhsRef {
    LhsRef::Scalar(s)
}

/// Array-element read expression.
pub fn arr<I: IntoIterator<Item = Affine>>(a: ArrayId, subs: I) -> Expr {
    Expr::Elem(a, subs.into_iter().collect())
}

/// Scalar read expression.
pub fn sca(s: ScalarId) -> Expr {
    Expr::Scalar(s)
}

/// Literal expression.
pub fn ex(v: f64) -> Expr {
    Expr::Lit(v)
}

/// The value of an affine integer expression, as a float.
pub fn ival(a: Affine) -> Expr {
    Expr::Idx(a)
}

/// Guard condition `e == 0`.
pub fn eq0(e: Affine) -> GuardCond {
    GuardCond {
        expr: e,
        op: CmpOp::Eq,
    }
}

/// Guard condition `e >= 0`.
pub fn ge0(e: Affine) -> GuardCond {
    GuardCond {
        expr: e,
        op: CmpOp::Ge,
    }
}

/// Guard condition `e <= 0`.
pub fn le0(e: Affine) -> GuardCond {
    GuardCond {
        expr: e,
        op: CmpOp::Le,
    }
}

/// Shorthand distribution requests, expanded to the array's rank.
#[derive(Clone, Copy, Debug)]
pub enum DistSpec {
    /// Block-distribute the given dimension.
    Block(usize),
    /// Cyclic-distribute the given dimension.
    Cyclic(usize),
    /// Block-cyclic-distribute the given dimension with block size `b`.
    BlockCyclic(usize, i64),
    /// Fully replicated.
    Repl,
}

/// Block distribution of dimension 0.
pub fn dist_block() -> DistSpec {
    DistSpec::Block(0)
}

/// Block distribution of dimension `k`.
pub fn dist_block_dim(k: usize) -> DistSpec {
    DistSpec::Block(k)
}

/// Cyclic distribution of dimension 0.
pub fn dist_cyclic() -> DistSpec {
    DistSpec::Cyclic(0)
}

/// Cyclic distribution of dimension `k`.
pub fn dist_cyclic_dim(k: usize) -> DistSpec {
    DistSpec::Cyclic(k)
}

/// Block-cyclic distribution of dimension 0 with block size `b`.
pub fn dist_block_cyclic(b: i64) -> DistSpec {
    DistSpec::BlockCyclic(0, b)
}

/// Block-cyclic distribution of dimension `k` with block size `b`.
pub fn dist_block_cyclic_dim(k: usize, b: i64) -> DistSpec {
    DistSpec::BlockCyclic(k, b)
}

/// Fully replicated.
pub fn dist_repl() -> DistSpec {
    DistSpec::Repl
}

enum Open {
    Loop(Loop),
    Guard(Guard),
}

/// Incremental program builder. See the crate-level example.
pub struct ProgramBuilder {
    prog: Program,
    /// Open bodies: index 0 is the top level; each `begin_*` pushes.
    stack: Vec<(Option<Open>, Vec<NodeId>)>,
}

impl ProgramBuilder {
    /// Start a new program.
    pub fn new(name: impl Into<String>) -> Self {
        let mut prog = Program::default();
        prog.name = name.into();
        ProgramBuilder {
            prog,
            stack: vec![(None, Vec::new())],
        }
    }

    /// Declare a symbolic constant.
    pub fn sym(&mut self, name: impl Into<String>) -> SymId {
        let id = SymId(self.prog.syms.len() as u32);
        self.prog.syms.push(SymDecl { name: name.into() });
        id
    }

    /// Declare a scalar variable.
    pub fn scalar(&mut self, name: impl Into<String>, init: f64) -> ScalarId {
        let id = ScalarId(self.prog.scalars.len() as u32);
        self.prog.scalars.push(ScalarDecl {
            name: name.into(),
            init,
            privatizable: false,
        });
        id
    }

    /// Declare a privatizable scalar (assignments to it may be replicated
    /// inside SPMD regions).
    pub fn private_scalar(&mut self, name: impl Into<String>, init: f64) -> ScalarId {
        let id = self.scalar(name, init);
        self.prog.scalars[id.0 as usize].privatizable = true;
        id
    }

    /// Declare an array with per-dimension extents and a distribution.
    pub fn array(
        &mut self,
        name: impl Into<String>,
        extents: &[Affine],
        dist: DistSpec,
    ) -> ArrayId {
        let rank = extents.len();
        let mut dims = vec![DimDist::Replicated; rank];
        match dist {
            DistSpec::Block(k) => {
                assert!(k < rank, "distributed dim out of range");
                dims[k] = DimDist::Block;
            }
            DistSpec::Cyclic(k) => {
                assert!(k < rank, "distributed dim out of range");
                dims[k] = DimDist::Cyclic;
            }
            DistSpec::BlockCyclic(k, b) => {
                assert!(k < rank, "distributed dim out of range");
                assert!(b >= 1, "block-cyclic block size must be positive");
                dims[k] = DimDist::BlockCyclic(b);
            }
            DistSpec::Repl => {}
        }
        let id = ArrayId(self.prog.arrays.len() as u32);
        self.prog.arrays.push(ArrayDecl {
            name: name.into(),
            extents: extents.to_vec(),
            dist: Distribution { dims },
            privatizable: false,
        });
        id
    }

    /// Declare a privatizable work array (replicated distribution; each
    /// processor gets its own copy at run time). The caller asserts the
    /// def-before-use property the privatization analysis would prove.
    pub fn private_array(&mut self, name: impl Into<String>, extents: &[Affine]) -> ArrayId {
        let id = self.array(name, extents, DistSpec::Repl);
        self.prog.arrays[id.0 as usize].privatizable = true;
        id
    }

    fn begin_loop(&mut self, name: &str, lo: Affine, hi: Affine, kind: LoopKind) -> LoopId {
        let id = LoopId(self.prog.num_loops);
        self.prog.num_loops += 1;
        self.prog.loop_names.push(name.to_string());
        self.stack.push((
            Some(Open::Loop(Loop {
                id,
                name: name.to_string(),
                lo,
                hi,
                kind,
                body: Vec::new(),
            })),
            Vec::new(),
        ));
        id
    }

    /// Open a parallel (`DOALL`) loop; returns its index handle.
    pub fn begin_par(&mut self, name: &str, lo: Affine, hi: Affine) -> LoopId {
        self.begin_loop(name, lo, hi, LoopKind::Par)
    }

    /// Open a sequential (`DO`) loop; returns its index handle.
    pub fn begin_seq(&mut self, name: &str, lo: Affine, hi: Affine) -> LoopId {
        self.begin_loop(name, lo, hi, LoopKind::Seq)
    }

    /// Open a guarded block (conjunction of affine conditions).
    pub fn begin_guard(&mut self, conds: Vec<GuardCond>) {
        self.stack.push((
            Some(Open::Guard(Guard {
                conds,
                body: Vec::new(),
            })),
            Vec::new(),
        ));
    }

    /// Close the innermost open loop or guard.
    pub fn end(&mut self) {
        let (open, body) = self.stack.pop().expect("end() without begin");
        let node = match open.expect("end() at top level") {
            Open::Loop(mut l) => {
                l.body = body;
                Node::Loop(l)
            }
            Open::Guard(mut g) => {
                g.body = body;
                Node::Guard(g)
            }
        };
        let id = self.push_node(node);
        self.stack.last_mut().unwrap().1.push(id);
    }

    fn push_node(&mut self, n: Node) -> NodeId {
        let id = NodeId(self.prog.nodes.len() as u32);
        self.prog.nodes.push(n);
        id
    }

    /// Emit an assignment `lhs = rhs`.
    pub fn assign(&mut self, lhs: LhsRef, rhs: Expr) -> NodeId {
        let id = self.push_node(Node::Assign(Assign {
            lhs,
            rhs,
            reduction: None,
        }));
        self.stack.last_mut().unwrap().1.push(id);
        id
    }

    /// Emit a reduction `lhs = lhs ⊕ rhs`.
    pub fn reduce(&mut self, lhs: LhsRef, op: RedOp, rhs: Expr) -> NodeId {
        let id = self.push_node(Node::Assign(Assign {
            lhs,
            rhs,
            reduction: Some(op),
        }));
        self.stack.last_mut().unwrap().1.push(id);
        id
    }

    /// Finish: validates structure (panicking on problems, which are
    /// always construction bugs) and returns the program.
    pub fn finish(self) -> Program {
        let prog = self.finish_unchecked();
        let problems = prog.validate();
        assert!(problems.is_empty(), "invalid program: {problems:?}");
        prog
    }

    /// Finish without validation (for tests that exercise `validate`).
    pub fn finish_unchecked(mut self) -> Program {
        assert_eq!(self.stack.len(), 1, "unclosed loop/guard at finish()");
        let (_, body) = self.stack.pop().unwrap();
        self.prog.body = body;
        self.prog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::LoopKind;

    #[test]
    fn nested_loops_build_correct_tree() {
        let mut p = ProgramBuilder::new("nest");
        let n = p.sym("n");
        let a = p.array("A", &[sym(n), sym(n)], dist_block());
        let i = p.begin_seq("i", con(0), sym(n) - 1);
        let j = p.begin_par("j", con(0), sym(n) - 1);
        p.assign(elem(a, [idx(i), idx(j)]), ival(idx(i) + idx(j)));
        p.end();
        p.end();
        let prog = p.finish();
        assert_eq!(prog.body.len(), 1);
        let outer = prog.expect_loop(prog.body[0]);
        assert_eq!(outer.kind, LoopKind::Seq);
        assert_eq!(outer.body.len(), 1);
        let inner = prog.expect_loop(outer.body[0]);
        assert_eq!(inner.kind, LoopKind::Par);
    }

    #[test]
    #[should_panic(expected = "unclosed")]
    fn unclosed_loop_panics() {
        let mut p = ProgramBuilder::new("bad");
        let n = p.sym("n");
        p.begin_par("i", con(0), sym(n));
        let _ = p.finish();
    }

    #[test]
    fn guards_and_reductions() {
        let mut p = ProgramBuilder::new("g");
        let n = p.sym("n");
        let a = p.array("A", &[sym(n)], dist_block());
        let s = p.scalar("s", 0.0);
        let i = p.begin_par("i", con(0), sym(n) - 1);
        p.begin_guard(vec![ge0(idx(i) - 1)]);
        p.reduce(svar(s), RedOp::Add, arr(a, [idx(i)]));
        p.end();
        p.end();
        let prog = p.finish();
        assert_eq!(prog.num_statements(), 1);
    }
}
