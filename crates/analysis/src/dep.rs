//! Plain data-dependence analysis (no processors): used to validate that
//! loops marked `DOALL` really carry no dependence, which is the
//! precondition the paper inherits from the parallelizing front end.

use crate::bindings::Bindings;
use crate::comm::stmt_accesses;
use crate::translate::{build_pair_system, SharedLoopMode};
use ir::{LoopKind, NodeId, Program};

/// Does the loop at `loop_node` carry a data dependence between two of
/// its iterations? (True ⇒ the loop must not be marked parallel.)
///
/// Scalars are handled conservatively: any non-privatizable scalar
/// written inside the loop is a carried dependence unless the write is a
/// reduction paired only with itself.
pub fn loop_carries_dependence(prog: &Program, bind: &Bindings, loop_node: NodeId) -> bool {
    let prefix = prog
        .enclosing_loops(loop_node)
        .expect("loop node must be part of the program");
    let stmts = prog.statements_under(loop_node, &prefix);
    let accesses: Vec<_> = stmts.iter().map(|s| stmt_accesses(prog, s.node)).collect();
    // Scalar test.
    for (s, (_, scalars)) in stmts.iter().zip(&accesses) {
        for sc in scalars {
            if sc.is_write && !prog.scalar(sc.scalar).privatizable {
                let is_reduction = prog
                    .node(s.node)
                    .as_assign()
                    .map(|a| a.reduction.is_some())
                    .unwrap_or(false);
                if !is_reduction {
                    return true;
                }
            }
        }
    }
    // Array test: any pair of accesses (one a write) to the same array,
    // same element, in *different* iterations of this loop.
    for (s1, (a1s, _)) in stmts.iter().zip(&accesses) {
        for (s2, (a2s, _)) in stmts.iter().zip(&accesses) {
            for a1 in a1s {
                for a2 in a2s {
                    if a1.array != a2.array || (!a1.is_write && !a2.is_write) {
                        continue;
                    }
                    // Privatization removes storage-related dependences
                    // (each iteration/processor gets a fresh copy).
                    if prog.array(a1.array).privatizable {
                        continue;
                    }
                    let mut ps =
                        build_pair_system(prog, bind, s1, s2, SharedLoopMode::CarriedBy(loop_node));
                    // Drop the partition constraints' effect by not
                    // constraining processors: the pair system already
                    // has them, but a dependence between different
                    // iterations on the *same* processor is still a
                    // dependence, so we must not require p != q. We ask
                    // only for element equality.
                    ps.add_elem_equality(bind, &a1.subs, &a2.subs);
                    if ps.feasible_with(|_| {}) {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// Check every loop marked parallel; returns the offending loop nodes
/// (empty = all markings are consistent with the dependence test).
pub fn check_parallel_loops(prog: &Program, bind: &Bindings) -> Vec<NodeId> {
    let mut bad = Vec::new();
    let mut candidates = Vec::new();
    prog.walk_all(&mut |id, _| {
        if let Some(l) = prog.node(id).as_loop() {
            if l.kind == LoopKind::Par {
                candidates.push(id);
            }
        }
    });
    for id in candidates {
        if loop_carries_dependence(prog, bind, id) {
            bad.push(id);
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bindings::Bindings;
    use ir::build::*;

    #[test]
    fn independent_loop_is_clean() {
        let mut pb = ProgramBuilder::new("ok");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let b = pb.array("B", &[sym(n)], dist_block());
        let i = pb.begin_par("i", con(0), sym(n) - 1);
        pb.assign(elem(b, [idx(i)]), arr(a, [idx(i)]) * ex(2.0));
        pb.end();
        let prog = pb.finish();
        let bind = Bindings::new(4).set(n, 32);
        assert!(check_parallel_loops(&prog, &bind).is_empty());
    }

    #[test]
    fn recurrence_is_flagged() {
        let mut pb = ProgramBuilder::new("rec");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let i = pb.begin_par("i", con(1), sym(n) - 1);
        pb.assign(elem(a, [idx(i)]), arr(a, [idx(i) - 1]) + ex(1.0));
        pb.end();
        let prog = pb.finish();
        let bind = Bindings::new(4).set(n, 32);
        assert_eq!(check_parallel_loops(&prog, &bind).len(), 1);
    }

    #[test]
    fn reduction_write_is_tolerated() {
        let mut pb = ProgramBuilder::new("red");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_repl());
        let s = pb.scalar("s", 0.0);
        let i = pb.begin_par("i", con(0), sym(n) - 1);
        pb.reduce(svar(s), ir::RedOp::Add, arr(a, [idx(i)]));
        pb.end();
        let prog = pb.finish();
        let bind = Bindings::new(4).set(n, 32);
        assert!(check_parallel_loops(&prog, &bind).is_empty());
    }

    #[test]
    fn plain_scalar_write_is_flagged() {
        let mut pb = ProgramBuilder::new("sw");
        let n = pb.sym("n");
        let s = pb.scalar("s", 0.0);
        let i = pb.begin_par("i", con(0), sym(n) - 1);
        pb.assign(svar(s), ival(idx(i)));
        pb.end();
        let prog = pb.finish();
        let bind = Bindings::new(4).set(n, 32);
        assert_eq!(check_parallel_loops(&prog, &bind).len(), 1);
    }
}
