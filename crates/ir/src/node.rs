//! Structural nodes: loops, guards, and assignment statements.

use crate::decl::{ArrayId, ScalarId};
use crate::expr::{Affine, Expr};
use crate::program::NodeId;

/// Handle for a loop (used as the loop-index atom in [`Affine`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct LoopId(pub u32);

/// Whether a loop was marked parallel by the (assumed) parallelizer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LoopKind {
    /// Ordinary sequential `DO` loop.
    Seq,
    /// `DOALL`: iterations are independent and may run concurrently.
    Par,
}

/// Reduction operators for accumulating assignments.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum RedOp {
    /// `lhs = lhs + rhs`
    Add,
    /// `lhs = max(lhs, rhs)`
    Max,
    /// `lhs = min(lhs, rhs)`
    Min,
}

impl RedOp {
    /// Apply the reduction.
    #[inline]
    pub fn apply(self, acc: f64, v: f64) -> f64 {
        match self {
            RedOp::Add => acc + v,
            RedOp::Max => acc.max(v),
            RedOp::Min => acc.min(v),
        }
    }

    /// Identity element.
    pub fn identity(self) -> f64 {
        match self {
            RedOp::Add => 0.0,
            RedOp::Max => f64::NEG_INFINITY,
            RedOp::Min => f64::INFINITY,
        }
    }
}

/// The left-hand side of an assignment.
#[derive(Clone, PartialEq, Debug)]
pub enum LhsRef {
    /// An array element.
    Elem(ArrayId, Vec<Affine>),
    /// A scalar variable.
    Scalar(ScalarId),
}

/// An assignment statement `lhs = rhs` (or `lhs = lhs ⊕ rhs` when
/// `reduction` is set).
#[derive(Clone, Debug)]
pub struct Assign {
    /// Destination.
    pub lhs: LhsRef,
    /// Source expression.
    pub rhs: Expr,
    /// Reduction operator, if this is an accumulating assignment.
    pub reduction: Option<RedOp>,
}

/// Comparison operators in affine guards.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    /// `expr == 0`
    Eq,
    /// `expr >= 0`
    Ge,
    /// `expr <= 0`
    Le,
}

/// A single affine guard condition `expr op 0`.
#[derive(Clone, Debug)]
pub struct GuardCond {
    /// The affine expression compared against zero.
    pub expr: Affine,
    /// The comparison.
    pub op: CmpOp,
}

impl GuardCond {
    /// Evaluate under an atom assignment.
    pub fn holds(&self, assign: &dyn Fn(crate::expr::AffAtom) -> i64) -> bool {
        let v = self.expr.eval(assign);
        match self.op {
            CmpOp::Eq => v == 0,
            CmpOp::Ge => v >= 0,
            CmpOp::Le => v <= 0,
        }
    }
}

/// A guarded block: the body executes when every condition holds
/// (conjunction).
#[derive(Clone, Debug)]
pub struct Guard {
    /// Conjunction of affine conditions.
    pub conds: Vec<GuardCond>,
    /// Guarded children.
    pub body: Vec<NodeId>,
}

/// A `DO` / `DOALL` loop with unit stride and inclusive bounds.
#[derive(Clone, Debug)]
pub struct Loop {
    /// The loop's index variable handle.
    pub id: LoopId,
    /// Display name of the index variable.
    pub name: String,
    /// Inclusive lower bound.
    pub lo: Affine,
    /// Inclusive upper bound.
    pub hi: Affine,
    /// Sequential or parallel.
    pub kind: LoopKind,
    /// Children in program order.
    pub body: Vec<NodeId>,
}

/// A structural node.
#[derive(Clone, Debug)]
pub enum Node {
    /// A loop.
    Loop(Loop),
    /// A guarded block.
    Guard(Guard),
    /// An assignment statement.
    Assign(Assign),
}

impl Node {
    /// Children of the node, if any.
    pub fn children(&self) -> &[NodeId] {
        match self {
            Node::Loop(l) => &l.body,
            Node::Guard(g) => &g.body,
            Node::Assign(_) => &[],
        }
    }

    /// The node as a loop, if it is one.
    pub fn as_loop(&self) -> Option<&Loop> {
        match self {
            Node::Loop(l) => Some(l),
            _ => None,
        }
    }

    /// The node as an assignment, if it is one.
    pub fn as_assign(&self) -> Option<&Assign> {
        match self {
            Node::Assign(a) => Some(a),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::AffAtom;

    #[test]
    fn redop_identities() {
        assert_eq!(RedOp::Add.apply(RedOp::Add.identity(), 5.0), 5.0);
        assert_eq!(RedOp::Max.apply(RedOp::Max.identity(), 5.0), 5.0);
        assert_eq!(RedOp::Min.apply(RedOp::Min.identity(), 5.0), 5.0);
    }

    #[test]
    fn guard_cond_eval() {
        let i = LoopId(0);
        // i - 3 == 0
        let g = GuardCond {
            expr: Affine::index(i) - 3,
            op: CmpOp::Eq,
        };
        assert!(g.holds(&|a| match a {
            AffAtom::Loop(_) => 3,
            _ => panic!(),
        }));
        assert!(!g.holds(&|_| 4));
    }
}
