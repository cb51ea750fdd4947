//! Per-processor loop bounds by *scanning the owner polyhedron*
//! (Ancourt & Irigoin \[2,3\]) — the code-generation half of the paper's
//! machinery.
//!
//! For a block-partitioned parallel loop the set of iterations processor
//! `p` executes is the polyhedron
//!
//! ```text
//! { i :  lo <= i <= hi  ∧  p·b <= sub(i) <= p·b + b - 1 }
//! ```
//!
//! Projecting everything else away and reading the bounds of `i` yields
//! closed-form lower/upper expressions in `p` (and the outer loop
//! indices), exactly what a code generator would emit as the processor's
//! private loop header. The executor's hand-derived fast path
//! (the `Split` shapes of `interp::kernel`) computes the same ranges
//! arithmetically; a test there checks the two agree on every
//! one-interval split of the suite kernels, which is precisely the
//! cross-validation the SUIF implementation relied on. The tests in
//! this module check the scan against the owner function itself.

use crate::bindings::Bindings;
use crate::partition::LoopPartition;
use ineq::scan::{bounds_of, VarBounds};
use ineq::{Constraint, LinExpr, System, VarId, VarKind, VarTable};
use ir::{AffAtom, Affine, NodeId, Program};
use std::collections::BTreeMap;

/// Closed-form per-processor bounds for one parallel loop.
pub struct ScannedBounds {
    bounds: VarBounds,
    /// Constraints not mentioning the loop index: guards on whether the
    /// processor executes the phase at all (e.g. an owner input that is
    /// an outer loop index).
    guards: Vec<Constraint>,
    p: VarId,
    /// Reverse mapping for evaluation: inequality variable → IR atom.
    atom_of: BTreeMap<VarId, AffAtom>,
}

impl ScannedBounds {
    /// Evaluate the inclusive iteration range of processor `pid`, with
    /// `outer` supplying values for outer-loop indices and unbound
    /// symbolics. `None` when the range is empty.
    pub fn range(
        &self,
        bind: &Bindings,
        pid: i64,
        outer: &dyn Fn(ir::LoopId) -> Option<i64>,
    ) -> Option<(i64, i64)> {
        let assign = |v: VarId| -> i128 {
            if v == self.p {
                return pid as i128;
            }
            match self.atom_of.get(&v) {
                Some(AffAtom::Sym(s)) => {
                    bind.get(*s).expect("unbound symbolic in scanned bounds") as i128
                }
                Some(AffAtom::Loop(l)) => {
                    outer(*l).expect("unbound outer loop in scanned bounds") as i128
                }
                None => unreachable!("auxiliary variable survived projection"),
            }
        };
        for g in &self.guards {
            if !g.holds_int(&assign) {
                return None;
            }
        }
        let (lo, hi) = self.bounds.range(&assign)?;
        Some((lo as i64, hi as i64))
    }
}

/// Translate an IR affine expression, registering atoms as variables.
fn tr(
    e: &Affine,
    vt: &mut VarTable,
    vars: &mut BTreeMap<AffAtom, VarId>,
    atom_of: &mut BTreeMap<VarId, AffAtom>,
    bind: &Bindings,
    iv: Option<(ir::LoopId, VarId)>,
) -> LinExpr {
    let mut out = LinExpr::constant(e.constant_term() as i128);
    for (a, c) in e.terms() {
        if let (Some((il, ivar)), AffAtom::Loop(l)) = (iv, a) {
            if l == il {
                out = out + LinExpr::term(ivar, c as i128);
                continue;
            }
        }
        if let AffAtom::Sym(s) = a {
            if let Some(v) = bind.get(s) {
                out = out + LinExpr::constant(c as i128 * v as i128);
                continue;
            }
        }
        let v = *vars.entry(a).or_insert_with(|| {
            // Outer atoms act like symbolic parameters of the scan.
            let v = vt.fresh(format!("{a:?}"), VarKind::Symbolic);
            atom_of.insert(v, a);
            v
        });
        out = out + LinExpr::term(v, c as i128);
    }
    out
}

/// Scan the owner polyhedron of a block-style partition. Returns `None`
/// for partitions whose iteration sets are not a single interval per
/// processor (cyclic variants) or cannot be bounded (unknown).
pub fn scan_owned_range(
    prog: &Program,
    bind: &Bindings,
    loop_node: NodeId,
    partition: &LoopPartition,
) -> Option<ScannedBounds> {
    let l = prog.expect_loop(loop_node);
    let mut vt = VarTable::new();
    let p = vt.fresh("p", VarKind::Processor);
    let i = vt.fresh(l.name.clone(), VarKind::LoopIndex);
    let mut vars: BTreeMap<AffAtom, VarId> = BTreeMap::new();
    let mut atom_of: BTreeMap<VarId, AffAtom> = BTreeMap::new();
    let mut sys = System::new();

    // Loop bounds.
    let lo = tr(
        &l.lo,
        &mut vt,
        &mut vars,
        &mut atom_of,
        bind,
        Some((l.id, i)),
    );
    let hi = tr(
        &l.hi,
        &mut vt,
        &mut vars,
        &mut atom_of,
        bind,
        Some((l.id, i)),
    );
    sys.add_range(LinExpr::var(i), lo, hi);
    // Processor bounds.
    sys.add_range(
        LinExpr::var(p),
        LinExpr::constant(0),
        LinExpr::constant(bind.nprocs as i128 - 1),
    );

    match partition {
        LoopPartition::BlockOwner { block, sub, .. } => {
            let x = tr(sub, &mut vt, &mut vars, &mut atom_of, bind, Some((l.id, i)));
            let b = *block as i128;
            sys.add_ge(x.clone() - LinExpr::term(p, b));
            sys.add_ge(LinExpr::term(p, b) + LinExpr::constant(b - 1) - x);
        }
        LoopPartition::BlockIndex { lo, block, .. } => {
            let b = *block as i128;
            sys.add_ge(LinExpr::var(i) - LinExpr::constant(*lo as i128) - LinExpr::term(p, b));
            sys.add_ge(
                LinExpr::term(p, b) + LinExpr::constant(b - 1 + *lo as i128) - LinExpr::var(i),
            );
        }
        _ => return None,
    }

    // Every constraint mentions only i, p, and parameter atoms, so the
    // bounds of `i` are directly scannable; constraints without `i`
    // become guards (the processor may own no iteration at all).
    let bounds = bounds_of(&sys, i);
    if bounds.uppers.is_empty() || bounds.lowers.is_empty() {
        return None;
    }
    let guards = sys
        .constraints()
        .iter()
        .filter(|c| c.expr.coeff(i) == 0)
        .cloned()
        .collect();
    Some(ScannedBounds {
        bounds,
        guards,
        p,
        atom_of,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::loop_partition;
    use ir::build::*;

    fn block_prog(nv: i64) -> (Program, Bindings, NodeId) {
        let mut pb = ProgramBuilder::new("cg");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n) + 2], dist_block());
        let i = pb.begin_par("i", con(1), sym(n));
        pb.assign(elem(a, [idx(i) + 1]), ival(idx(i)).sin());
        pb.end();
        let prog = pb.finish();
        let bind = Bindings::new(4).set(n, nv);
        let node = prog.parallel_loops()[0];
        (prog, bind, node)
    }

    #[test]
    fn scanned_ranges_match_owner_evaluation() {
        for nv in [5i64, 16, 29, 64] {
            let (prog, bind, node) = block_prog(nv);
            let part = loop_partition(&prog, &bind, node);
            let scanned = scan_owned_range(&prog, &bind, node, &part).expect("block scans");
            for pid in 0..4i64 {
                // Oracle: evaluate the owner function per iteration.
                let mut owned = Vec::new();
                for i in 1..=nv {
                    let owner = part.owner_of(&bind, i, &|_| Some(i));
                    if owner == Some(pid) {
                        owned.push(i);
                    }
                }
                let range = scanned.range(&bind, pid, &|_| None);
                match (owned.is_empty(), range) {
                    (true, None) => {}
                    (true, Some((lo, hi))) => {
                        assert!(lo > hi, "expected empty range, got {lo}..={hi}")
                    }
                    (false, Some((lo, hi))) => {
                        assert_eq!(
                            (lo, hi),
                            (owned[0], *owned.last().unwrap()),
                            "n={nv} pid={pid}"
                        );
                    }
                    (false, None) => panic!("scan lost iterations for pid {pid}"),
                }
            }
        }
    }

    #[test]
    fn cyclic_partitions_are_rejected() {
        let mut pb = ProgramBuilder::new("cy");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_cyclic());
        let i = pb.begin_par("i", con(0), sym(n) - 1);
        pb.assign(elem(a, [idx(i)]), ex(1.0));
        pb.end();
        let prog = pb.finish();
        let bind = Bindings::new(4).set(n, 16);
        let node = prog.parallel_loops()[0];
        let part = loop_partition(&prog, &bind, node);
        assert!(scan_owned_range(&prog, &bind, node, &part).is_none());
    }

    #[test]
    fn outer_loop_parameters_flow_through() {
        // DO k { DOALL j writing X(k, j) dist dim0 }: owner input is k,
        // so processor owner(k) gets the whole j range and others none.
        let mut pb = ProgramBuilder::new("outer");
        let n = pb.sym("n");
        let x = pb.array("X", &[sym(n), sym(n)], dist_block());
        let k = pb.begin_seq("k", con(0), sym(n) - 1);
        let j = pb.begin_par("j", con(0), sym(n) - 1);
        pb.assign(elem(x, [idx(k), idx(j)]), ival(idx(k) + idx(j)).sin());
        pb.end();
        pb.end();
        let prog = pb.finish();
        let bind = Bindings::new(4).set(n, 16); // block = 4
        let jnode = prog.parallel_loops()[0];
        let part = loop_partition(&prog, &bind, jnode);
        let scanned = scan_owned_range(&prog, &bind, jnode, &part).unwrap();
        let kid = prog.expect_loop(prog.body[0]).id;
        // k = 5 → owner 1 owns all 16 iterations; others own none.
        let outer = |l: ir::LoopId| if l == kid { Some(5) } else { None };
        assert_eq!(scanned.range(&bind, 1, &outer), Some((0, 15)));
        for pid in [0i64, 2, 3] {
            let r = scanned.range(&bind, pid, &outer);
            assert!(
                r.is_none() || r.unwrap().0 > r.unwrap().1,
                "pid {pid}: {r:?}"
            );
        }
    }
}
