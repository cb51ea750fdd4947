//! The program arena, traversal helpers, and structural validation.

use crate::decl::{ArrayDecl, ArrayId, ScalarDecl, ScalarId, SymDecl, SymId};
use crate::expr::{AffAtom, Affine};
use crate::node::{GuardCond, LhsRef, Loop, LoopId, LoopKind, Node};
use std::collections::BTreeSet;

/// Handle for a node in the program arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

/// A statement's position: the node itself plus the loops enclosing it,
/// outermost first.
#[derive(Clone, Debug)]
pub struct StmtPath {
    /// The assignment node.
    pub node: NodeId,
    /// Enclosing loop nodes, outermost first.
    pub loops: Vec<NodeId>,
    /// Guard conditions enclosing the statement (conjunction).
    pub guards: Vec<GuardCond>,
}

/// A whole program: declarations plus an arena of structural nodes.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// Program name (for reports).
    pub name: String,
    /// Symbolic constants.
    pub syms: Vec<SymDecl>,
    /// Scalar variables.
    pub scalars: Vec<ScalarDecl>,
    /// Arrays with their decompositions.
    pub arrays: Vec<ArrayDecl>,
    /// Node arena.
    pub nodes: Vec<Node>,
    /// Top-level statements/loops in program order.
    pub body: Vec<NodeId>,
    /// Number of loops allocated (LoopIds are `0..num_loops`).
    pub num_loops: u32,
    /// Display names of loop index variables, indexed by `LoopId`.
    pub loop_names: Vec<String>,
}

impl Program {
    /// The node behind a handle.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// The array declaration behind a handle.
    pub fn array(&self, id: ArrayId) -> &ArrayDecl {
        &self.arrays[id.0 as usize]
    }

    /// The scalar declaration behind a handle.
    pub fn scalar(&self, id: ScalarId) -> &ScalarDecl {
        &self.scalars[id.0 as usize]
    }

    /// The symbolic-constant declaration behind a handle.
    pub fn sym(&self, id: SymId) -> &SymDecl {
        &self.syms[id.0 as usize]
    }

    /// Name of a loop index variable.
    pub fn loop_name(&self, l: LoopId) -> &str {
        &self.loop_names[l.0 as usize]
    }

    /// Pre-order traversal of the subtree rooted at `id`, invoking `f`
    /// with each node id and its depth.
    pub fn walk(&self, id: NodeId, f: &mut impl FnMut(NodeId, usize)) {
        fn rec(p: &Program, id: NodeId, depth: usize, f: &mut impl FnMut(NodeId, usize)) {
            f(id, depth);
            for &c in p.node(id).children() {
                rec(p, c, depth + 1, f);
            }
        }
        rec(self, id, 0, f);
    }

    /// Pre-order traversal of the whole program.
    pub fn walk_all(&self, f: &mut impl FnMut(NodeId, usize)) {
        for &id in &self.body {
            self.walk(id, f);
        }
    }

    /// All parallel loops in the program, in program order.
    pub fn parallel_loops(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.walk_all(&mut |id, _| {
            if let Node::Loop(l) = self.node(id) {
                if l.kind == LoopKind::Par {
                    out.push(id);
                }
            }
        });
        out
    }

    /// All assignment statements in the subtree rooted at `root`,
    /// together with their enclosing loop nodes (outermost first,
    /// *including* loops above `root` passed in `prefix`).
    pub fn statements_under(&self, root: NodeId, prefix: &[NodeId]) -> Vec<StmtPath> {
        let mut out = Vec::new();
        fn rec(
            p: &Program,
            id: NodeId,
            loops: &mut Vec<NodeId>,
            guards: &mut Vec<GuardCond>,
            out: &mut Vec<StmtPath>,
        ) {
            match p.node(id) {
                Node::Assign(_) => out.push(StmtPath {
                    node: id,
                    loops: loops.clone(),
                    guards: guards.clone(),
                }),
                Node::Loop(l) => {
                    loops.push(id);
                    for &c in &l.body {
                        rec(p, c, loops, guards, out);
                    }
                    loops.pop();
                }
                Node::Guard(g) => {
                    let before = guards.len();
                    guards.extend(g.conds.iter().cloned());
                    for &c in &g.body {
                        rec(p, c, loops, guards, out);
                    }
                    guards.truncate(before);
                }
            }
        }
        let mut loops = prefix.to_vec();
        let mut guards = Vec::new();
        rec(self, root, &mut loops, &mut guards, &mut out);
        out
    }

    /// The loop node ids (outermost first) that would enclose a statement
    /// at top level — convenience for `statements_under(root, &[])` on
    /// each top-level node.
    pub fn all_statements(&self) -> Vec<StmtPath> {
        let mut out = Vec::new();
        for &id in &self.body {
            out.extend(self.statements_under(id, &[]));
        }
        out
    }

    /// Count assignment statements (a proxy for "lines" in Table 1).
    pub fn num_statements(&self) -> usize {
        let mut n = 0;
        self.walk_all(&mut |id, _| {
            if matches!(self.node(id), Node::Assign(_)) {
                n += 1;
            }
        });
        n
    }

    /// Structural validation: subscript ranks match array ranks, loop
    /// bounds and subscripts only mention enclosing loops or symbolics,
    /// loop ids are unique. Returns a list of human-readable problems
    /// (empty = valid).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut seen_loops: BTreeSet<LoopId> = BTreeSet::new();
        let mut in_scope: Vec<LoopId> = Vec::new();

        fn check_affine(
            p: &Program,
            e: &Affine,
            in_scope: &[LoopId],
            what: &str,
            problems: &mut Vec<String>,
        ) {
            for (a, _) in e.terms() {
                match a {
                    AffAtom::Loop(l) => {
                        if !in_scope.contains(&l) {
                            problems.push(format!(
                                "{what}: loop index {} used outside its loop",
                                p.loop_name(l)
                            ));
                        }
                    }
                    AffAtom::Sym(s) => {
                        if s.0 as usize >= p.syms.len() {
                            problems.push(format!("{what}: undeclared symbolic {s:?}"));
                        }
                    }
                }
            }
        }

        fn rec(
            p: &Program,
            id: NodeId,
            in_scope: &mut Vec<LoopId>,
            seen: &mut BTreeSet<LoopId>,
            problems: &mut Vec<String>,
        ) {
            match p.node(id) {
                Node::Loop(l) => {
                    if !seen.insert(l.id) {
                        problems.push(format!("loop id {:?} used twice", l.id));
                    }
                    check_affine(p, &l.lo, in_scope, "loop lower bound", problems);
                    check_affine(p, &l.hi, in_scope, "loop upper bound", problems);
                    in_scope.push(l.id);
                    for &c in &l.body {
                        rec(p, c, in_scope, seen, problems);
                    }
                    in_scope.pop();
                }
                Node::Guard(g) => {
                    for cond in &g.conds {
                        check_affine(p, &cond.expr, in_scope, "guard", problems);
                    }
                    for &c in &g.body {
                        rec(p, c, in_scope, seen, problems);
                    }
                }
                Node::Assign(a) => {
                    let mut check_ref = |arr: ArrayId, subs: &[Affine]| {
                        let decl = p.array(arr);
                        if subs.len() != decl.rank() {
                            problems.push(format!(
                                "array {} has rank {} but subscripted with {} indices",
                                decl.name,
                                decl.rank(),
                                subs.len()
                            ));
                        }
                        for s in subs {
                            check_affine(p, s, in_scope, "subscript", problems);
                        }
                    };
                    if let LhsRef::Elem(arr, subs) = &a.lhs {
                        check_ref(*arr, subs);
                    }
                    for (arr, subs) in a.rhs.array_reads() {
                        check_ref(arr, &subs);
                    }
                }
            }
        }

        for &id in &self.body {
            rec(self, id, &mut in_scope, &mut seen_loops, &mut problems);
        }
        problems
    }

    /// The loop nodes enclosing `target` (outermost first), or `None`
    /// when `target` is not in the program tree.
    pub fn enclosing_loops(&self, target: NodeId) -> Option<Vec<NodeId>> {
        fn rec(p: &Program, id: NodeId, target: NodeId, stack: &mut Vec<NodeId>) -> bool {
            if id == target {
                return true;
            }
            match p.node(id) {
                Node::Loop(l) => {
                    stack.push(id);
                    for &c in &l.body {
                        if rec(p, c, target, stack) {
                            return true;
                        }
                    }
                    stack.pop();
                    false
                }
                Node::Guard(g) => g.body.iter().any(|&c| rec(p, c, target, stack)),
                Node::Assign(_) => false,
            }
        }
        let mut stack = Vec::new();
        for &id in &self.body {
            if rec(self, id, target, &mut stack) {
                return Some(stack);
            }
        }
        None
    }

    /// The [`Loop`] payload of a node known to be a loop.
    pub fn expect_loop(&self, id: NodeId) -> &Loop {
        self.node(id).as_loop().expect("node is not a loop")
    }
}

#[cfg(test)]
mod tests {
    use crate::build::*;

    #[test]
    fn traversal_and_counts() {
        let mut p = ProgramBuilder::new("t");
        let n = p.sym("n");
        let a = p.array("A", &[sym(n)], dist_block());
        let i = p.begin_par("i", con(0), sym(n) - 1);
        p.assign(elem(a, [idx(i)]), ex(1.0));
        p.end();
        let prog = p.finish();
        assert_eq!(prog.num_statements(), 1);
        assert_eq!(prog.parallel_loops().len(), 1);
        let stmts = prog.all_statements();
        assert_eq!(stmts.len(), 1);
        assert_eq!(stmts[0].loops.len(), 1);
        assert!(prog.validate().is_empty());
    }

    #[test]
    fn validation_catches_rank_mismatch() {
        let mut p = ProgramBuilder::new("bad");
        let n = p.sym("n");
        let a = p.array("A", &[sym(n), sym(n)], dist_block());
        let i = p.begin_par("i", con(0), sym(n) - 1);
        p.assign(elem(a, [idx(i)]), ex(0.0)); // rank 2 array, 1 subscript
        p.end();
        let prog = p.finish_unchecked();
        assert!(!prog.validate().is_empty());
    }

    #[test]
    fn validation_catches_out_of_scope_index() {
        let mut p = ProgramBuilder::new("bad2");
        let n = p.sym("n");
        let a = p.array("A", &[sym(n)], dist_block());
        let i = p.begin_par("i", con(0), sym(n) - 1);
        p.end();
        // Use i outside its loop.
        p.assign(elem(a, [idx(i)]), ex(0.0));
        let prog = p.finish_unchecked();
        assert!(!prog.validate().is_empty());
    }
}
