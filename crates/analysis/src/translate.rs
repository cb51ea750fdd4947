//! Translation from IR objects to inequality systems over two statement
//! instances (the "producer" and "consumer" of a potential communication).

use crate::bindings::Bindings;
use crate::partition::{stmt_partition, LoopPartition, StmtPartition};
use ineq::{BaseRows, LinExpr, ProbeScratch, System, VarId, VarKind, VarTable};
use ir::{AffAtom, Affine, CmpOp, GuardCond, LoopId, NodeId, Program, StmtPath, SymId};
use std::cell::{OnceCell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

/// How the loops shared by the two statements relate in the query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SharedLoopMode {
    /// Same iteration of every shared loop (loop-independent test).
    SameIteration,
    /// The dependence is carried by the given shared loop: iterations of
    /// loops outer to it coincide, the carried loop satisfies
    /// `i2 >= i1 + 1`, shared loops inner to it are unrelated.
    CarriedBy(NodeId),
    /// As `CarriedBy` but with distance exactly one.
    CarriedExactlyOne(NodeId),
}

/// Which of the two statement instances an expression is read in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Side {
    /// The earlier statement's instance (loop variables `map1`).
    Producer,
    /// The later statement's instance (loop variables `map2`).
    Consumer,
}

/// A fully built two-instance system: variables for both statements'
/// loop nests, their processors `p` and `q`, bounds, guards, and
/// partition constraints. Communication queries add the array-element
/// equality to `sys`, then test it together with one processor relation
/// after another ([`PairSystem::feasible_with`]).
pub struct PairSystem {
    /// Variable table for the query.
    pub vt: VarTable,
    /// Base system (bounds + guards + partitions + shared-loop mode).
    /// Crate-private so that it only changes where `base` is dropped.
    pub(crate) sys: System,
    /// `sys` as rows, propagated once: built by the first probe, read by
    /// every one, dropped when `sys` changes.
    base: OnceCell<BaseRows>,
    /// The buffers each probe refills — the system's own, or the one
    /// every pair system of an analysis pass shares.
    scratch: Rc<RefCell<ProbeScratch>>,
    /// Producer processor variable.
    pub p: VarId,
    /// Consumer processor variable.
    pub q: VarId,
    /// Producer loop-index variables.
    pub map1: BTreeMap<LoopId, VarId>,
    /// Consumer loop-index variables.
    pub map2: BTreeMap<LoopId, VarId>,
    /// Carried-loop iteration variables `(i1_at, i2_at)` when the mode is
    /// carried; `None` for loop-independent queries.
    pub carried_vars: Option<(VarId, VarId)>,
    sym_vars: BTreeMap<SymId, VarId>,
    free_loops: BTreeMap<LoopId, VarId>,
    cache: Option<std::sync::Arc<ineq::FmeCache>>,
}

impl PairSystem {
    /// Translate an IR affine expression under one instance's loop
    /// variables.
    pub fn tr(&mut self, bind: &Bindings, e: &Affine, side: Side) -> LinExpr {
        let map = match side {
            Side::Producer => &self.map1,
            Side::Consumer => &self.map2,
        };
        let (mut out, mut constant) = (LinExpr::zero(), e.constant_term() as i128);
        for (a, c) in e.terms() {
            match a {
                AffAtom::Loop(l) => {
                    // Loops outside the instance's recorded path (e.g.
                    // when a caller analyzes a nested loop in isolation)
                    // become unconstrained shared variables — the
                    // conservative "some fixed but unknown iteration".
                    let v = *map.get(&l).unwrap_or_else(|| {
                        self.free_loops.entry(l).or_insert_with(|| {
                            self.vt.fresh(format!("free{}", l.0), VarKind::LoopIndex)
                        })
                    });
                    out.add_term(v, c as i128);
                }
                AffAtom::Sym(s) => match bind.get(s) {
                    Some(v) => {
                        let term = (c as i128) * (v as i128);
                        constant = constant.checked_add(term).expect("linexpr overflow");
                    }
                    None => {
                        let v = *self.sym_vars.entry(s).or_insert_with(|| {
                            self.vt.fresh(format!("sym{}", s.0), VarKind::Symbolic)
                        });
                        out.add_term(v, c as i128);
                    }
                },
            }
        }
        out + LinExpr::constant(constant)
    }

    /// A fresh auxiliary variable (eliminated first in the scan order).
    pub fn fresh_aux(&mut self, name: &'static str) -> VarId {
        self.vt.fresh(name, VarKind::ArrayIndex)
    }

    /// Add the element-equality constraints `subs1 == subs2`, dimension
    /// by dimension (both accesses refer to the same array).
    pub fn add_elem_equality(&mut self, bind: &Bindings, subs1: &[Affine], subs2: &[Affine]) {
        debug_assert_eq!(subs1.len(), subs2.len());
        for (a, b) in subs1.iter().zip(subs2) {
            let ea = self.tr(bind, a, Side::Producer);
            let eb = self.tr(bind, b, Side::Consumer);
            self.sys.add_eq(ea - eb);
        }
        self.base.take();
    }

    /// Hold a loop that encloses the later statement alone at its first
    /// trip: the later instance's index equals the loop's lower bound.
    pub fn hold_at_first_trip(&mut self, bind: &Bindings, l: &ir::Loop) {
        let lo = self.tr(bind, &l.lo, Side::Consumer);
        self.sys.add_eq(LinExpr::var(self.map2[&l.id]) - lo);
        self.base.take();
    }

    /// Route feasibility queries through a shared memo cache. Sound
    /// because the verdict is a pure function of the canonical form of
    /// the queried system (see `ineq::cache`).
    pub fn set_cache(&mut self, cache: Option<std::sync::Arc<ineq::FmeCache>>) {
        self.cache = cache;
    }

    /// Feasibility of the base system with extra constraints installed by
    /// `extra` into an empty probe system, whose rows are appended to the
    /// base's in a scratch of their own (so queries are independent).
    /// The base is propagated once and each probe replays that on its
    /// own rows (`ineq::probe`); the verdict is a fresh scan's.
    ///
    /// An `Unknown` verdict (arithmetic overflow or constraint blow-up in
    /// the scan) counts as feasible: the caller keeps the barrier.
    pub fn feasible_with(&self, extra: impl FnOnce(&mut System)) -> bool {
        let base = self.base.get_or_init(|| BaseRows::new(&self.sys, &self.vt));
        let scratch = &mut self.scratch.borrow_mut();
        base.probe(&self.sys, &self.vt, scratch, self.cache.as_deref(), extra)
            .may_hold()
    }
}

/// Build the two-instance system for statements `s1` (producer side) and
/// `s2` (consumer side) under the given shared-loop mode.
pub fn build_pair_system(
    prog: &Program,
    bind: &Bindings,
    s1: &StmtPath,
    s2: &StmtPath,
    mode: SharedLoopMode,
) -> PairSystem {
    let part1 = stmt_partition(prog, bind, s1);
    let part2 = stmt_partition(prog, bind, s2);
    let parts = ((s1, &part1), (s2, &part2));
    build_partitioned(prog, bind, parts, mode, Rc::default())
}

/// [`build_pair_system`] for statements whose partitions the caller
/// already derived, probing in `scratch`.
pub(crate) fn build_partitioned(
    prog: &Program,
    bind: &Bindings,
    ((s1, part1), (s2, part2)): ((&StmtPath, &StmtPartition), (&StmtPath, &StmtPartition)),
    mode: SharedLoopMode,
    scratch: Rc<RefCell<ProbeScratch>>,
) -> PairSystem {
    let loops = s1.loops.len() + s2.loops.len();
    let rows = 12 + 2 * loops + s1.guards.len() + s2.guards.len();
    let mut ps = PairSystem {
        vt: VarTable::with_capacity(4 + loops),
        sys: System::with_capacity(rows),
        base: OnceCell::new(),
        scratch,
        p: VarId(0),
        q: VarId(0),
        map1: BTreeMap::new(),
        map2: BTreeMap::new(),
        carried_vars: None,
        sym_vars: BTreeMap::new(),
        free_loops: BTreeMap::new(),
        cache: None,
    };
    ps.p = ps.vt.fresh("p", VarKind::Processor);
    ps.q = ps.vt.fresh("q", VarKind::Processor);
    let pr = bind.nprocs as i128;
    ps.sys.add_range(
        LinExpr::var(ps.p),
        LinExpr::constant(0),
        LinExpr::constant(pr - 1),
    );
    ps.sys.add_range(
        LinExpr::var(ps.q),
        LinExpr::constant(0),
        LinExpr::constant(pr - 1),
    );

    // Shared prefix of the two loop paths.
    let nshared = s1
        .loops
        .iter()
        .zip(&s2.loops)
        .take_while(|(a, b)| a == b)
        .count();
    let shared = &s1.loops[..nshared];
    let carried_at = match mode {
        SharedLoopMode::SameIteration => None,
        SharedLoopMode::CarriedBy(at) | SharedLoopMode::CarriedExactlyOne(at) => {
            let pos = shared
                .iter()
                .position(|&n| n == at)
                .expect("carried loop must be shared by both statements");
            Some(pos)
        }
    };

    // Create loop variables. Shared loops outside the carried level use a
    // single variable for both instances; the carried loop gets two
    // related variables; everything else gets independent variables.
    for (k, &node) in s1.loops.iter().enumerate() {
        let l = prog.expect_loop(node);
        let is_shared = k < shared.len();
        let same_var = match carried_at {
            None => is_shared,
            Some(pos) => is_shared && k < pos,
        };
        let v1 = ps.vt.fresh("i1", VarKind::LoopIndex);
        ps.map1.insert(l.id, v1);
        if same_var {
            ps.map2.insert(l.id, v1);
        }
    }
    for &node in &s2.loops {
        let l = prog.expect_loop(node);
        if ps.map2.contains_key(&l.id) {
            continue;
        }
        let v2 = ps.vt.fresh("i2", VarKind::LoopIndex);
        ps.map2.insert(l.id, v2);
    }

    // Carried-loop relation.
    if let Some(pos) = carried_at {
        let l = prog.expect_loop(shared[pos]);
        let i1 = ps.map1[&l.id];
        let i2 = ps.map2[&l.id];
        ps.carried_vars = Some((i1, i2));
        match mode {
            SharedLoopMode::CarriedBy(_) => {
                // i2 >= i1 + 1
                ps.sys
                    .add_ge(LinExpr::var(i2) - LinExpr::var(i1) - LinExpr::constant(1));
            }
            SharedLoopMode::CarriedExactlyOne(_) => {
                ps.sys
                    .add_eq(LinExpr::var(i2) - LinExpr::var(i1) - LinExpr::constant(1));
            }
            SharedLoopMode::SameIteration => unreachable!(),
        }
    }

    // Loop bounds for both instances (bounds may mention outer loop vars,
    // which are already in the maps since paths are outermost-first).
    for &node in &s1.loops {
        let l = prog.expect_loop(node);
        let v = ps.map1[&l.id];
        let lo = ps.tr(bind, &l.lo, Side::Producer);
        let hi = ps.tr(bind, &l.hi, Side::Producer);
        ps.sys.add_range(LinExpr::var(v), lo, hi);
    }
    for &node in &s2.loops {
        let l = prog.expect_loop(node);
        let v = ps.map2[&l.id];
        // Skip re-adding identical bounds for unified variables.
        if ps.map1.get(&l.id) == Some(&v) {
            continue;
        }
        let lo = ps.tr(bind, &l.lo, Side::Consumer);
        let hi = ps.tr(bind, &l.hi, Side::Consumer);
        ps.sys.add_range(LinExpr::var(v), lo, hi);
    }

    // Guards.
    add_guards(&mut ps, bind, &s1.guards, Side::Producer);
    add_guards(&mut ps, bind, &s2.guards, Side::Consumer);

    // Computation partitions.
    let p = ps.p;
    let q = ps.q;
    add_partition(&mut ps, bind, part1, p, Side::Producer);
    add_partition(&mut ps, bind, part2, q, Side::Consumer);

    ps
}

fn add_guards(ps: &mut PairSystem, bind: &Bindings, guards: &[GuardCond], side: Side) {
    for g in guards {
        let e = ps.tr(bind, &g.expr, side);
        match g.op {
            CmpOp::Eq => ps.sys.add_eq(e),
            CmpOp::Ge => ps.sys.add_ge(e),
            CmpOp::Le => ps.sys.add_ge(-e),
        }
    }
}

fn add_partition(
    ps: &mut PairSystem,
    bind: &Bindings,
    part: &StmtPartition,
    proc_var: VarId,
    side: Side,
) {
    match part {
        StmtPartition::Master => {
            ps.sys.add_eq(LinExpr::var(proc_var));
        }
        StmtPartition::Replicated => {
            // Every processor executes: no constraint beyond 0..P-1.
        }
        StmtPartition::Distributed(loop_id, lp) => match lp {
            LoopPartition::BlockOwner { block, sub, .. } => {
                let x = ps.tr(bind, sub, side);
                let b = *block as i128;
                // p*b <= x <= p*b + b - 1
                ps.sys.add_ge(x.clone() - LinExpr::term(proc_var, b));
                ps.sys
                    .add_ge(LinExpr::term(proc_var, b) + LinExpr::constant(b - 1) - x);
            }
            LoopPartition::CyclicOwner { sub, .. } => {
                let x = ps.tr(bind, sub, side);
                let k = ps.fresh_aux("k");
                // x == k*P + p
                ps.sys
                    .add_eq(x - LinExpr::term(k, bind.nprocs as i128) - LinExpr::var(proc_var));
            }
            LoopPartition::BlockCyclicOwner { block, sub, .. } => {
                let x = ps.tr(bind, sub, side);
                let k = ps.fresh_aux("k");
                let o = ps.fresh_aux("o");
                let b = *block as i128;
                // x == (k*P + p)*b + o, 0 <= o < b
                ps.sys.add_eq(
                    x - LinExpr::term(k, bind.nprocs as i128 * b)
                        - LinExpr::term(proc_var, b)
                        - LinExpr::var(o),
                );
                ps.sys.add_range(
                    LinExpr::var(o),
                    LinExpr::constant(0),
                    LinExpr::constant(b - 1),
                );
            }
            LoopPartition::BlockIndex { lo, block, .. } => {
                let map = match side {
                    Side::Producer => &ps.map1,
                    Side::Consumer => &ps.map2,
                };
                let i = map
                    .get(loop_id)
                    .copied()
                    .expect("distributed loop must be in the instance map");
                let b = *block as i128;
                // p*b <= i - lo <= p*b + b - 1
                ps.sys.add_ge(
                    LinExpr::var(i) - LinExpr::constant(*lo as i128) - LinExpr::term(proc_var, b),
                );
                ps.sys.add_ge(
                    LinExpr::term(proc_var, b) + LinExpr::constant(b - 1 + *lo as i128)
                        - LinExpr::var(i),
                );
            }
            LoopPartition::SymbolicBlockOwner { .. } | LoopPartition::Unknown => {
                // No linear constraint exists (the block size is a
                // quotient of symbolics); the processor variable stays
                // free and the structural symbolic path in `comm` takes
                // over where it applies.
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::build::*;

    /// Two adjacent DOALLs over block-distributed arrays:
    ///   DOALL i: B(i) = A(i)        (copy, aligned)
    ///   DOALL j: C(j) = B(j)        (aligned read)
    fn aligned_prog() -> (Program, ir::SymId) {
        let mut p = ProgramBuilder::new("aligned");
        let n = p.sym("n");
        let a = p.array("A", &[sym(n)], dist_block());
        let b = p.array("B", &[sym(n)], dist_block());
        let c = p.array("C", &[sym(n)], dist_block());
        let i = p.begin_par("i", con(0), sym(n) - 1);
        p.assign(elem(b, [idx(i)]), arr(a, [idx(i)]));
        p.end();
        let j = p.begin_par("j", con(0), sym(n) - 1);
        p.assign(elem(c, [idx(j)]), arr(b, [idx(j)]));
        p.end();
        (p.finish(), n)
    }

    #[test]
    fn aligned_access_stays_on_processor() {
        let (prog, n) = aligned_prog();
        let bind = Bindings::new(4).set(n, 64);
        let stmts = prog.all_statements();
        let (s1, s2) = (&stmts[0], &stmts[1]);
        let mut ps = build_pair_system(&prog, &bind, s1, s2, SharedLoopMode::SameIteration);
        // Producer writes B(i); consumer reads B(j); same element.
        let i = idx(prog.expect_loop(s1.loops[0]).id);
        let j = idx(prog.expect_loop(s2.loops[0]).id);
        ps.add_elem_equality(&bind, &[i], &[j]);
        // p != q must be infeasible in both directions.
        let p = ps.p;
        let q = ps.q;
        assert!(!ps.feasible_with(|s| {
            s.add_ge(LinExpr::var(q) - LinExpr::var(p) - LinExpr::constant(1))
        }));
        assert!(!ps.feasible_with(|s| {
            s.add_ge(LinExpr::var(p) - LinExpr::var(q) - LinExpr::constant(1))
        }));
    }

    #[test]
    fn shifted_access_crosses_processors() {
        // DOALL i: B(i) = A(i); DOALL j: C(j) = B(j-1)
        let mut pb = ProgramBuilder::new("shift");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let b = pb.array("B", &[sym(n)], dist_block());
        let c = pb.array("C", &[sym(n)], dist_block());
        let i = pb.begin_par("i", con(0), sym(n) - 1);
        pb.assign(elem(b, [idx(i)]), arr(a, [idx(i)]));
        pb.end();
        let j = pb.begin_par("j", con(1), sym(n) - 1);
        pb.assign(elem(c, [idx(j)]), arr(b, [idx(j) - 1]));
        pb.end();
        let prog = pb.finish();
        let bind = Bindings::new(4).set(n, 64);
        let stmts = prog.all_statements();
        let mut ps = build_pair_system(
            &prog,
            &bind,
            &stmts[0],
            &stmts[1],
            SharedLoopMode::SameIteration,
        );
        ps.add_elem_equality(&bind, &[idx(i)], &[idx(j) - 1]);
        let (p, q) = (ps.p, ps.q);
        // forward neighbor communication exists (q = p + 1)…
        assert!(ps.feasible_with(|s| {
            s.add_eq(LinExpr::var(q) - LinExpr::var(p) - LinExpr::constant(1))
        }));
        // …but nothing farther than one processor away.
        assert!(!ps.feasible_with(|s| {
            s.add_ge(LinExpr::var(q) - LinExpr::var(p) - LinExpr::constant(2))
        }));
        assert!(!ps.feasible_with(|s| {
            s.add_ge(LinExpr::var(p) - LinExpr::var(q) - LinExpr::constant(1))
        }));
    }
}
