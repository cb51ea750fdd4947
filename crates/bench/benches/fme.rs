//! Criterion benches for the Fourier-Motzkin core: feasibility queries
//! of the three shapes the communication analysis issues most, and the
//! phases of one guarded scan on a recorded pair system.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ineq::{LinExpr, Rows, System, VarId, VarKind, VarTable};

/// Aligned-access query: block partitions of producer and consumer with
/// identical subscripts plus p != q — infeasible.
fn aligned_query() -> (VarTable, System) {
    let mut vt = VarTable::new();
    let p = vt.fresh("p", VarKind::Processor);
    let q = vt.fresh("q", VarKind::Processor);
    let i = vt.fresh("i", VarKind::LoopIndex);
    let j = vt.fresh("j", VarKind::LoopIndex);
    let mut s = System::new();
    let b = 16i128; // block size
    for v in [p, q] {
        s.add_range(LinExpr::var(v), LinExpr::constant(0), LinExpr::constant(7));
    }
    for v in [i, j] {
        s.add_range(
            LinExpr::var(v),
            LinExpr::constant(0),
            LinExpr::constant(127),
        );
    }
    // p*b <= i <= p*b + b - 1 ; q*b <= j <= q*b + b - 1 ; i == j ; q >= p+1
    s.add_ge(LinExpr::var(i) - LinExpr::term(p, b));
    s.add_ge(LinExpr::term(p, b) + LinExpr::constant(b - 1) - LinExpr::var(i));
    s.add_ge(LinExpr::var(j) - LinExpr::term(q, b));
    s.add_ge(LinExpr::term(q, b) + LinExpr::constant(b - 1) - LinExpr::var(j));
    s.add_eq(LinExpr::var(i) - LinExpr::var(j));
    s.add_ge(LinExpr::var(q) - LinExpr::var(p) - LinExpr::constant(1));
    (vt, s)
}

/// Neighbor query: same but the consumer reads `j - 1` and we ask for
/// far communication (infeasible) — the workhorse classification test.
fn neighbor_far_query() -> (VarTable, System) {
    let mut vt = VarTable::new();
    let p = vt.fresh("p", VarKind::Processor);
    let q = vt.fresh("q", VarKind::Processor);
    let i = vt.fresh("i", VarKind::LoopIndex);
    let j = vt.fresh("j", VarKind::LoopIndex);
    let mut s = System::new();
    let b = 16i128;
    for v in [p, q] {
        s.add_range(LinExpr::var(v), LinExpr::constant(0), LinExpr::constant(7));
    }
    for v in [i, j] {
        s.add_range(
            LinExpr::var(v),
            LinExpr::constant(1),
            LinExpr::constant(127),
        );
    }
    s.add_ge(LinExpr::var(i) - LinExpr::term(p, b));
    s.add_ge(LinExpr::term(p, b) + LinExpr::constant(b - 1) - LinExpr::var(i));
    s.add_ge(LinExpr::var(j) - LinExpr::term(q, b));
    s.add_ge(LinExpr::term(q, b) + LinExpr::constant(b - 1) - LinExpr::var(j));
    // element equality with shift: i == j - 1
    s.add_eq(LinExpr::var(i) - LinExpr::var(j) + LinExpr::constant(1));
    // far: q - p >= 2
    s.add_ge(LinExpr::var(q) - LinExpr::var(p) - LinExpr::constant(2));
    (vt, s)
}

fn bench_fme(c: &mut Criterion) {
    let (vt1, s1) = aligned_query();
    c.bench_function("fme_aligned_infeasible", |b| {
        b.iter(|| {
            assert!(!s1.is_consistent(&vt1));
        })
    });
    let (vt2, s2) = neighbor_far_query();
    c.bench_function("fme_neighbor_far_infeasible", |b| {
        b.iter(|| {
            assert!(!s2.is_consistent(&vt2));
        })
    });
}

/// The pair system `workvec` (`Scale::Small`, P = 8) asks about at the
/// bottom of its `DO k`: `A(j1)` written at iteration `k1`, `A(i2)` read
/// at a later `k2` by the owner `q` of row `i2` (blocks of 6), probed
/// for `q - p >= 2`. 20 constraints over 7 variables, one equality;
/// feasible, peak 20 — the size of the suite's median query. Returns
/// the variables `[p, q, k1, j1, k2, i2, j2]`.
fn recorded_pair_system() -> (VarTable, System, [VarId; 7]) {
    let mut vt = VarTable::new();
    let [p, q] = ["p", "q"].map(|n| vt.fresh(n, VarKind::Processor));
    let [k1, j1, k2, i2, j2] =
        ["k1", "j11", "k2", "i22", "j22"].map(|n| vt.fresh(n, VarKind::LoopIndex));
    let var = LinExpr::var;
    let con = LinExpr::constant;
    let mut s = System::new();
    s.add_range(var(p), con(0), con(7));
    s.add_range(var(q), con(0), con(7));
    s.add_ge(var(k2) - var(k1) - con(1));
    s.add_range(var(k1), con(0), con(46));
    s.add_range(var(j1), con(0), con(47));
    s.add_range(var(k2), con(0), con(46));
    s.add_range(var(i2), con(0), con(47));
    s.add_range(var(j2), con(0), con(47));
    s.add_ge(var(i2) - var(k2) - con(1));
    s.add_ge(var(i2) - LinExpr::term(q, 6));
    s.add_ge(LinExpr::term(q, 6) + con(5) - var(i2));
    s.add_eq(var(j1) - var(i2));
    s.add_ge(var(q) - var(p) - con(2));
    assert_eq!((s.len(), s.vars().len()), (20, 7));
    (vt, s, [p, q, k1, j1, k2, i2, j2])
}

/// One case per phase of the guarded scan ([`ineq::rows`]), each on a
/// fresh copy of the rows it would meet in a real scan; `scan` is all of
/// them from rows to verdict, `feasibility` also builds the rows from
/// the `System`.
fn bench_scan_phases(c: &mut Criterion) {
    let (vt, sys, [.., i2, _]) = recorded_pair_system();
    let raw = Rows::new(&sys, &vt);
    let mut reduced = raw.clone();
    reduced.reduce(&[]).unwrap();
    let mut group = c.benchmark_group("scan_phase");
    let mut case = |name: &str, rows: &Rows, phase: &dyn Fn(Rows) -> Rows| {
        group.bench_function(name, |b| {
            b.iter_batched(|| rows.clone(), phase, BatchSize::SmallInput)
        });
    };
    case("normalize", &raw, &|mut rows| {
        rows.normalize();
        rows
    });
    case("unit_propagation", &raw, &|mut rows| {
        rows.propagate_units(&[]).unwrap();
        rows
    });
    // `j11 - i22 == 0` is still there: an exact pivot.
    case("eliminate_pivot", &raw, &|mut rows| {
        rows.eliminate(i2).unwrap();
        rows
    });
    // Three lower bounds against three upper bounds.
    case("eliminate_pairs", &reduced, &|mut rows| {
        rows.eliminate(i2).unwrap();
        rows
    });
    group.bench_function("scan", |b| {
        b.iter_batched(
            || raw.clone(),
            |mut rows| rows.feasibility(),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("feasibility", |b| b.iter(|| sys.feasibility_with_peak(&vt)));
    group.finish();
    assert_eq!(
        sys.feasibility_with_peak(&vt),
        (ineq::Feasibility::Feasible, 20)
    );
}

fn bench_comm_query(c: &mut Criterion) {
    // A full end-to-end communication classification on the jacobi pair.
    let def = suite::by_name("jacobi2d").unwrap();
    let built = (def.build)(suite::Scale::Small);
    let bind = built.bindings(8);
    let query = analysis::CommQuery::new(&built.prog, bind);
    let stmts = built.prog.all_statements();
    c.bench_function("comm_classify_stencil_pair", |b| {
        b.iter(|| {
            query.comm_stmts(
                &stmts[stmts.len() - 2],
                &stmts[stmts.len() - 1],
                analysis::CommMode::LoopIndependent,
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_fme, bench_scan_phases, bench_comm_query
}
criterion_main!(benches);
