//! Computation partitions derived from data decompositions.
//!
//! The paper assumes the global decomposition pass (Anderson-Lam) has
//! already distributed arrays; the computation partition follows by the
//! *owner-computes* rule: a processor executes the iterations that write
//! its local data. We attach one partition to every outermost parallel
//! loop (SUIF converts such loops into parallel procedures, so the loop
//! is the unit of distribution) and derive per-statement partitions from
//! the enclosing loop — or `Master`/`Replicated` for serial statements
//! between loops.

use crate::bindings::Bindings;
use ir::{Affine, ArrayId, DimDist, LhsRef, LoopId, LoopKind, Node, NodeId, Program, StmtPath};

/// How a distributed dimension deals subscript values to processors:
/// the one statement of the owner formulas, shared by the analysis and
/// the interpreter's lowered kernels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OwnerMap {
    /// Contiguous blocks of the given size (values past either end
    /// belong to the edge processors).
    Block(i64),
    /// Value `x` lives on processor `x mod P`.
    Cyclic,
    /// Blocks of the given size dealt round-robin: `(x / b) mod P`.
    BlockCyclic(i64),
}

impl OwnerMap {
    /// The processor owning subscript value `x` among `nprocs`.
    #[inline]
    pub fn owner(self, x: i64, nprocs: i64) -> i64 {
        match self {
            OwnerMap::Block(block) => (x / block).clamp(0, nprocs - 1),
            OwnerMap::Cyclic => x.rem_euclid(nprocs),
            OwnerMap::BlockCyclic(block) => x.div_euclid(block).rem_euclid(nprocs),
        }
    }
}

/// How the iterations of one parallel loop map onto processors.
#[derive(Clone, Debug, PartialEq)]
pub enum LoopPartition {
    /// Owner-computes for a block-distributed array: processor `p`
    /// executes iteration `i` iff `p·block <= sub(i) < (p+1)·block`.
    BlockOwner {
        /// The array whose decomposition drives the partition.
        array: ArrayId,
        /// Block size `ceil(extent / P)`.
        block: i64,
        /// Subscript expression of the distributed dimension.
        sub: Affine,
    },
    /// Owner-computes for a cyclically distributed array: processor
    /// `p = sub(i) mod P` executes iteration `i`.
    CyclicOwner {
        /// The array whose decomposition drives the partition.
        array: ArrayId,
        /// Subscript expression of the distributed dimension.
        sub: Affine,
    },
    /// Owner-computes for a block-cyclically distributed array:
    /// processor `p = (sub(i) / b) mod P` executes iteration `i`.
    BlockCyclicOwner {
        /// The array whose decomposition drives the partition.
        array: ArrayId,
        /// Dealt block size `b`.
        block: i64,
        /// Subscript expression of the distributed dimension.
        sub: Affine,
    },
    /// Block partition of the iteration space itself (the SUIF default
    /// when no decomposition constrains the loop): iteration `i` runs on
    /// `p` iff `p·block <= i - lo < (p+1)·block` with
    /// `block = ceil((hi-lo+1)/P)`.
    BlockIndex {
        /// Concrete lower bound of the loop at analysis time.
        lo: i64,
        /// Concrete upper bound.
        hi: i64,
        /// Block size.
        block: i64,
    },
    /// Owner-computes for a block-distributed array whose extent is
    /// still symbolic: the block size is unknown at analysis time, but
    /// the owner *function* is still `floor(sub / ceil(extent/P))`, so
    /// structural reasoning (equal extents + bounded subscript
    /// differences) can classify communication symbolically. Execution
    /// falls back to the master processor.
    SymbolicBlockOwner {
        /// The array whose decomposition drives the partition.
        array: ArrayId,
        /// Symbolic extent of the distributed dimension.
        extent: Affine,
        /// Subscript expression of the distributed dimension.
        sub: Affine,
    },
    /// The partition could not be determined (unbound symbolics); all
    /// communication tests involving it degrade to the conservative
    /// answer.
    Unknown,
}

/// The partition of one *statement* (the loop partition where there is an
/// enclosing parallel loop, `Master`/`Replicated` otherwise).
#[derive(Clone, Debug, PartialEq)]
pub enum StmtPartition {
    /// Statement is inside the given outermost parallel loop, which is
    /// partitioned as described; the `LoopId` is that loop's index.
    Distributed(LoopId, LoopPartition),
    /// Serial statement executed only by the master processor.
    Master,
    /// Privatizable computation replicated on every processor.
    Replicated,
}

/// The block size `ceil(n / p)` used by block decompositions.
pub fn block_size(extent: i64, nprocs: i64) -> i64 {
    assert!(extent >= 0 && nprocs >= 1);
    (extent + nprocs - 1) / nprocs
}

/// True if every assignment in the loop targets privatizable storage
/// (arrays or scalars): such a loop is a *replicated computation* —
/// every processor executes all iterations into its own copies
/// (paper §2.3).
pub fn loop_is_replicated(prog: &Program, loop_node: NodeId) -> bool {
    let mut all_private = true;
    let mut any = false;
    prog.walk(loop_node, &mut |id, _| {
        if let Node::Assign(a) = prog.node(id) {
            any = true;
            match &a.lhs {
                LhsRef::Elem(arr, _) => {
                    if !prog.array(*arr).privatizable {
                        all_private = false;
                    }
                }
                LhsRef::Scalar(s) => {
                    if !prog.scalar(*s).privatizable {
                        all_private = false;
                    }
                }
            }
        }
    });
    any && all_private
}

/// Derive the partition of a parallel loop.
///
/// Strategy (owner-computes, after [18]): scan the loop body for the
/// first assignment to a distributed array; the written element's
/// distributed-dimension subscript determines the owner function — even
/// when it does not mention the parallel index (e.g. a `DOALL j` writing
/// `X(i,j)` with `X` distributed by rows runs entirely on `owner(i)`,
/// which is what enables cross-iteration pipelining). When no write to a
/// distributed array exists (reductions, replicated arrays) the
/// iteration space itself is block-partitioned.
pub fn loop_partition(prog: &Program, bind: &Bindings, loop_node: NodeId) -> LoopPartition {
    let lp = prog.expect_loop(loop_node);
    debug_assert_eq!(lp.kind, LoopKind::Par);
    let mut found: Option<LoopPartition> = None;
    prog.walk(loop_node, &mut |id, _| {
        if found.is_some() {
            return;
        }
        if let Node::Assign(a) = prog.node(id) {
            if let LhsRef::Elem(arr, subs) = &a.lhs {
                let decl = prog.array(*arr);
                if let Some((d, kind)) = decl.dist.distributed_dim() {
                    let sub = &subs[d];
                    {
                        found = Some(match kind {
                            DimDist::Block => match bind.eval_const(&decl.extents[d]) {
                                Some(extent) => LoopPartition::BlockOwner {
                                    array: *arr,
                                    block: block_size(extent, bind.nprocs),
                                    sub: sub.clone(),
                                },
                                None => LoopPartition::SymbolicBlockOwner {
                                    array: *arr,
                                    extent: decl.extents[d].clone(),
                                    sub: sub.clone(),
                                },
                            },
                            DimDist::Cyclic => LoopPartition::CyclicOwner {
                                array: *arr,
                                sub: sub.clone(),
                            },
                            DimDist::BlockCyclic(b) => LoopPartition::BlockCyclicOwner {
                                array: *arr,
                                block: b,
                                sub: sub.clone(),
                            },
                            DimDist::Replicated => unreachable!(),
                        });
                    }
                }
            }
        }
    });
    if let Some(p) = found {
        return p;
    }
    // Fall back to block partition of the iteration space; needs concrete
    // bounds (loop bounds of an outermost parallel loop only mention
    // symbolics).
    match (bind.eval_const(&lp.lo), bind.eval_const(&lp.hi)) {
        (Some(lo), Some(hi)) if hi >= lo => LoopPartition::BlockIndex {
            lo,
            hi,
            block: block_size(hi - lo + 1, bind.nprocs),
        },
        (Some(lo), Some(hi)) => LoopPartition::BlockIndex { lo, hi, block: 1 },
        _ => LoopPartition::Unknown,
    }
}

/// The outermost parallel loop on a statement's path, if any.
pub fn outermost_parallel_loop(prog: &Program, path: &StmtPath) -> Option<NodeId> {
    path.loops
        .iter()
        .copied()
        .find(|&l| prog.expect_loop(l).kind == LoopKind::Par)
}

/// Derive the partition of a statement from its path.
pub fn stmt_partition(prog: &Program, bind: &Bindings, path: &StmtPath) -> StmtPartition {
    if let Some(pl) = outermost_parallel_loop(prog, path) {
        if loop_is_replicated(prog, pl) {
            return StmtPartition::Replicated;
        }
        let lp = prog.expect_loop(pl);
        return StmtPartition::Distributed(lp.id, loop_partition(prog, bind, pl));
    }
    // Serial statement: replicated when it only writes a privatizable
    // scalar, master-guarded otherwise.
    if let Node::Assign(a) = prog.node(path.node) {
        if let LhsRef::Scalar(s) = &a.lhs {
            if prog.scalar(*s).privatizable {
                return StmtPartition::Replicated;
            }
        }
    }
    StmtPartition::Master
}

impl LoopPartition {
    /// The owner-computes rule behind the partition, when its owner
    /// function is known: the driving array, how its distributed
    /// dimension deals subscript values to processors, and the
    /// subscript whose owner executes an instance.
    pub fn owner_computes(&self) -> Option<(ArrayId, OwnerMap, &Affine)> {
        match self {
            LoopPartition::BlockOwner { array, block, sub } => {
                Some((*array, OwnerMap::Block(*block), sub))
            }
            LoopPartition::CyclicOwner { array, sub } => Some((*array, OwnerMap::Cyclic, sub)),
            LoopPartition::BlockCyclicOwner { array, block, sub } => {
                Some((*array, OwnerMap::BlockCyclic(*block), sub))
            }
            LoopPartition::BlockIndex { .. }
            | LoopPartition::SymbolicBlockOwner { .. }
            | LoopPartition::Unknown => None,
        }
    }

    /// Evaluate, at runtime, which processor executes the iteration with
    /// distributed-loop index `dist_index`; `loop_val` supplies values for
    /// every loop index occurring in the owner subscript (including the
    /// distributed loop itself). Returns `None` for [`Unknown`] (callers
    /// then run the loop on the master and keep the barrier).
    ///
    /// [`Unknown`]: LoopPartition::Unknown
    pub fn owner_of(
        &self,
        bind: &Bindings,
        dist_index: i64,
        loop_val: &dyn Fn(LoopId) -> Option<i64>,
    ) -> Option<i64> {
        match self.owner_computes() {
            Some((_, map, sub)) => Some(map.owner(bind.eval_affine(sub, loop_val)?, bind.nprocs)),
            None => self.owner_of_index(bind, dist_index),
        }
    }

    /// Owner of iteration `i` for index-partitioned loops.
    pub fn owner_of_index(&self, bind: &Bindings, i: i64) -> Option<i64> {
        match self {
            LoopPartition::BlockIndex { lo, block, .. } => {
                Some(OwnerMap::Block(*block).owner(i - lo, bind.nprocs))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::build::*;

    fn jacobi() -> (Program, ir::SymId) {
        let mut p = ProgramBuilder::new("jacobi");
        let n = p.sym("n");
        let a = p.array("A", &[sym(n) + 2], dist_block());
        let b = p.array("B", &[sym(n) + 2], dist_block());
        let i = p.begin_par("i", con(1), sym(n));
        p.assign(
            elem(b, [idx(i)]),
            ex(0.5) * (arr(a, [idx(i) - 1]) + arr(a, [idx(i) + 1])),
        );
        p.end();
        (p.finish(), n)
    }

    #[test]
    fn block_owner_partition_from_lhs() {
        let (prog, n) = jacobi();
        let bind = Bindings::new(4).set(n, 100);
        let pl = prog.parallel_loops()[0];
        match loop_partition(&prog, &bind, pl) {
            LoopPartition::BlockOwner { block, .. } => {
                // extent = n + 2 = 102, ceil(102/4) = 26
                assert_eq!(block, 26);
            }
            other => panic!("expected BlockOwner, got {other:?}"),
        }
    }

    #[test]
    fn symbolic_owner_when_extent_unbound() {
        let (prog, _) = jacobi();
        let bind = Bindings::new(4); // n unbound
        let pl = prog.parallel_loops()[0];
        match loop_partition(&prog, &bind, pl) {
            LoopPartition::SymbolicBlockOwner { extent, .. } => {
                assert!(!extent.is_constant());
            }
            other => panic!("expected SymbolicBlockOwner, got {other:?}"),
        }
    }

    #[test]
    fn block_index_fallback() {
        let mut p = ProgramBuilder::new("red");
        let n = p.sym("n");
        let a = p.array("A", &[sym(n)], dist_repl());
        let s = p.scalar("s", 0.0);
        let i = p.begin_par("i", con(0), sym(n) - 1);
        p.reduce(svar(s), ir::RedOp::Add, arr(a, [idx(i)]));
        p.end();
        let prog = p.finish();
        let bind = Bindings::new(4).set(n, 100);
        let pl = prog.parallel_loops()[0];
        match loop_partition(&prog, &bind, pl) {
            LoopPartition::BlockIndex { lo, hi, block } => {
                assert_eq!((lo, hi, block), (0, 99, 25));
            }
            other => panic!("expected BlockIndex, got {other:?}"),
        }
    }

    #[test]
    fn owner_evaluation() {
        let bind = Bindings::new(4);
        let p = LoopPartition::BlockIndex {
            lo: 0,
            hi: 99,
            block: 25,
        };
        assert_eq!(p.owner_of_index(&bind, 0), Some(0));
        assert_eq!(p.owner_of_index(&bind, 24), Some(0));
        assert_eq!(p.owner_of_index(&bind, 25), Some(1));
        assert_eq!(p.owner_of_index(&bind, 99), Some(3));
    }

    #[test]
    fn master_and_replicated_serial_statements() {
        let mut p = ProgramBuilder::new("serial");
        let n = p.sym("n");
        let a = p.array("A", &[sym(n)], dist_block());
        let s = p.private_scalar("t", 0.0);
        let g = p.scalar("g", 0.0);
        p.assign(svar(s), ex(1.0));
        p.assign(svar(g), ex(2.0));
        let i = p.begin_par("i", con(0), sym(n) - 1);
        p.assign(elem(a, [idx(i)]), sca(s));
        p.end();
        let prog = p.finish();
        let bind = Bindings::new(4).set(n, 64);
        let stmts = prog.all_statements();
        assert_eq!(
            stmt_partition(&prog, &bind, &stmts[0]),
            StmtPartition::Replicated
        );
        assert_eq!(
            stmt_partition(&prog, &bind, &stmts[1]),
            StmtPartition::Master
        );
        assert!(matches!(
            stmt_partition(&prog, &bind, &stmts[2]),
            StmtPartition::Distributed(..)
        ));
    }
}
