//! Pins what the reference interpreter computes, cell for cell: every
//! program of the compile set (the 24 suite kernels at `Scale::Small`,
//! the five `kernels/*.be` sources, `oracle::generate(0..32)`) at
//! P ∈ {2, 8}, and the nine `exec_finegrain` and four `exec_compute`
//! cases of the benchmark, is run through `run_sequential`, and the bit
//! pattern of every shared array cell and every scalar is hashed
//! (FNV-1a) against `tests/golden/oracle_fingerprint.txt`. NaN is hashed
//! as one canonical pattern, so the file pins *which* cells are NaN but
//! not their payload. A change to the evaluator that moves one bit of
//! the oracle fails here even where no parallel run happens to compare
//! against it.
//!
//! The order of the oracle's shared accesses is pinned too: the compile
//! set at P = 2 is run with a `TraceBuffer` attached, and the ordered
//! `(pid, Target, AccessKind)` sequence is hashed against
//! `tests/golden/oracle_trace.txt` (the race validator and the traced
//! kernels compare access *sets*, so nothing else sees the order).
//!
//! Both files were written by the dense-table tree walker, before the
//! evaluator came to resolve the program once per run. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test oracle_fingerprint` only for a
//! change that is *meant* to alter sequential semantics.

use barrier_elim::analysis::Bindings;
use barrier_elim::interp::{run_sequential, AccessKind, Mem, Target, TraceBuffer};
use barrier_elim::ir::{ArrayId, Program, ScalarId, SymId};
use barrier_elim::suite::{self, Scale};
use std::fmt::Write as _;
use std::sync::Arc;

const WIDTHS: [i64; 2] = [2, 8];
const GOLDEN: &str = "tests/golden/oracle_fingerprint.txt";
const TRACE_GOLDEN: &str = "tests/golden/oracle_trace.txt";

/// The benchmark's `exec_finegrain` cases: `Scale::Full` kernels with
/// these symbols re-bound, run at P = 2.
const FINEGRAIN: [(&str, &[(&str, i64)]); 9] = [
    ("copy_chain", &[("n", 8), ("tmax", 4000)]),
    ("redblack", &[("half", 8), ("tmax", 4000)]),
    ("livermore7", &[("n", 16), ("tmax", 2000)]),
    ("seidel_pipe", &[("n", 6), ("tmax", 2000)]),
    ("erlebacher", &[("n", 6), ("tmax", 1000)]),
    ("multihop", &[("n", 16), ("tmax", 8000)]),
    ("lu", &[("n", 64)]),
    ("transpose", &[("n", 8), ("tmax", 1500)]),
    ("cg_dense", &[("n", 8), ("tmax", 1500)]),
];

/// The benchmark's `exec_compute` cases, the same way.
const COMPUTE: [(&str, &[(&str, i64)]); 4] = [
    ("jacobi2d", &[("n", 256), ("tmax", 8)]),
    ("shallow", &[("n", 128), ("tmax", 4)]),
    ("copy_chain", &[("n", 32768), ("tmax", 8)]),
    ("stencil3d", &[("n", 48), ("tmax", 3)]),
];

type Case = (String, Program, Vec<(SymId, i64)>, Vec<i64>);

/// The compile set: every program at P ∈ {2, 8}.
fn compile_set() -> Vec<Case> {
    let mut set = Vec::new();
    for def in suite::all() {
        let built = (def.build)(Scale::Small);
        set.push((
            def.name.to_string(),
            built.prog,
            built.values,
            WIDTHS.into(),
        ));
    }
    for name in [
        "broadcast",
        "jacobi",
        "pipeline",
        "private_gather",
        "shallow",
    ] {
        let src = std::fs::read_to_string(format!("kernels/{name}.be")).unwrap();
        let prog = barrier_elim::frontend::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let values = (0..prog.syms.len())
            .map(|k| {
                let v = if prog.syms[k].name == "tmax" { 4 } else { 32 };
                (SymId(k as u32), v)
            })
            .collect();
        set.push((format!("{name}.be"), prog, values, WIDTHS.into()));
    }
    for seed in 0..32 {
        let g = barrier_elim::oracle::generate(seed);
        set.push((format!("gen{seed}"), g.prog, g.values, WIDTHS.into()));
    }
    set
}

fn cases() -> Vec<Case> {
    let mut set = compile_set();
    for (name, rebind) in FINEGRAIN.iter().chain(&COMPUTE) {
        let built = (suite::by_name(name).unwrap().build)(Scale::Full);
        let mut values = built.values;
        for &(sym, v) in *rebind {
            let id = built.prog.syms.iter().position(|s| s.name == sym).unwrap();
            match values.iter_mut().find(|(s, _)| s.0 as usize == id) {
                Some(slot) => slot.1 = v,
                None => values.push((SymId(id as u32), v)),
            }
        }
        let sizes: Vec<String> = rebind.iter().map(|(s, v)| format!("{s}={v}")).collect();
        let label = format!("{name}[{}]", sizes.join(","));
        set.push((label, built.prog, values, vec![2]));
    }
    set
}

/// FNV-1a over the bits of every shared cell and scalar, NaN folded to
/// one pattern; also the number of values hashed and how many were NaN.
fn fingerprint(prog: &Program, mem: &Mem) -> (usize, usize, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let (mut cells, mut nans) = (0, 0);
    let mut eat = |v: f64| {
        let bits = if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        };
        for b in bits.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        cells += 1;
        nans += usize::from(v.is_nan());
    };
    for a in 0..mem.num_arrays() {
        let a = ArrayId(a as u32);
        if mem.is_private(a) {
            continue;
        }
        let st = mem.array(a);
        for k in 0..st.len() {
            eat(st.get_linear(k));
        }
    }
    for s in 0..prog.scalars.len() {
        eat(mem.get_scalar(ScalarId(s as u32)));
    }
    (cells, nans, h)
}

fn bindings(nprocs: i64, values: &[(SymId, i64)]) -> Bindings {
    let mut bind = Bindings::new(nprocs);
    for &(s, v) in values {
        bind.bind(s, v);
    }
    bind
}

fn render() -> String {
    let mut out = String::new();
    for (name, prog, values, widths) in cases() {
        for nprocs in widths {
            let bind = bindings(nprocs, &values);
            let mem = Mem::new(&prog, &bind);
            run_sequential(&prog, &bind, &mem);
            let (cells, nans, hash) = fingerprint(&prog, &mem);
            writeln!(
                out,
                "{name} P={nprocs} cells={cells} nan={nans} {hash:016x}"
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn every_cell_the_oracle_computes_matches_the_recorded_fingerprint() {
    let actual = render();
    assert_eq!(
        actual.lines().count(),
        61 * WIDTHS.len() + FINEGRAIN.len() + COMPUTE.len()
    );
    check_golden(
        GOLDEN,
        &actual,
        "the reference interpreter's memory drifted",
    );
}

fn check_golden(path: &str, actual: &str, what: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path}: {e} (run with UPDATE_GOLDEN=1 to create)"));
    for (a, e) in actual.lines().zip(expected.lines()) {
        assert_eq!(a, e, "{what}");
    }
    assert_eq!(actual, expected);
}

/// FNV-1a over the ordered access records: pid, then the target (tag,
/// id, flat offset), then the kind (tag, reduction operator).
fn trace_hash(trace: &[barrier_elim::interp::Access]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for acc in trace {
        eat(acc.pid as u64);
        match acc.target {
            Target::Elem(a, off) => {
                eat(0);
                eat(u64::from(a.0));
                eat(off);
            }
            Target::Scalar(s) => {
                eat(1);
                eat(u64::from(s.0));
            }
        }
        match acc.kind {
            AccessKind::Read => eat(0),
            AccessKind::Write => eat(1),
            AccessKind::Reduce(op) => eat(2 + op as u64),
        }
    }
    h
}

#[test]
fn the_oracles_access_order_matches_the_recorded_fingerprint() {
    let mut out = String::new();
    for (name, prog, values, _) in compile_set() {
        let bind = bindings(2, &values);
        let tracer = Arc::new(TraceBuffer::new());
        let mem = Mem::new(&prog, &bind).with_tracer(tracer.clone());
        run_sequential(&prog, &bind, &mem);
        let trace = tracer.drain();
        let hash = trace_hash(&trace);
        writeln!(out, "{name} P=2 accesses={} {hash:016x}", trace.len()).unwrap();
    }
    assert_eq!(out.lines().count(), 61);
    check_golden(
        TRACE_GOLDEN,
        &out,
        "the reference interpreter's access order drifted",
    );
}

/// A subscript that overflows `i64` stops the oracle instead of
/// wrapping. `i + 4·n + m` at `i = 1` wraps to 1 when `n = 2⁶²` (so an
/// unchecked evaluator would store into `A[1]`) and to `i64::MIN` when
/// `m = i64::MAX`; the checked one panics with `affine eval overflow`
/// before storing anything, in release as in debug.
#[test]
fn an_overflowing_subscript_panics_in_the_oracle() {
    use barrier_elim::ir::build::*;
    let mut pb = ProgramBuilder::new("overflow");
    let n = pb.sym("n");
    let m = pb.sym("m");
    let a = pb.array("A", &[con(4)], dist_block());
    let i = pb.begin_seq("i", con(1), con(1));
    pb.assign(elem(a, [idx(i) + sym(n) * 4 + sym(m)]), ex(1.0));
    pb.end();
    let prog = pb.finish();
    for (nv, mv) in [(1 << 62, 0), (0, i64::MAX)] {
        let bind = Bindings::new(2).set(n, nv).set(m, mv);
        let mem = Mem::new(&prog, &bind);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_sequential(&prog, &bind, &mem)
        }))
        .expect_err("the subscript overflows");
        let msg = err
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned());
        assert_eq!(
            msg.as_deref(),
            Some("affine eval overflow"),
            "n={nv} m={mv}"
        );
        assert_eq!(
            mem.max_abs_diff(&Mem::new(&prog, &bind)),
            0.0,
            "nothing stored"
        );
    }
}

/// The message of a caught panic, whether it carries a `&str` or a
/// `String`.
fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| err.downcast_ref::<String>().cloned())
        .expect("a text message")
}

/// Symbol values are added term by term after the loop terms, never
/// folded into the constant first: `i + n + m` at `i = 1` with
/// `n = i64::MAX` and `m = −i64::MAX` overflows at `1 + n`, although
/// `n + m` alone is 0.
#[test]
fn symbol_terms_are_added_one_at_a_time() {
    use barrier_elim::ir::build::*;
    let mut pb = ProgramBuilder::new("unfolded");
    let n = pb.sym("n");
    let m = pb.sym("m");
    let a = pb.array("A", &[con(4)], dist_block());
    let i = pb.begin_seq("i", con(1), con(1));
    pb.assign(elem(a, [idx(i) + sym(n) + sym(m)]), ex(1.0));
    pb.end();
    let prog = pb.finish();
    let bind = Bindings::new(2).set(n, i64::MAX).set(m, -i64::MAX);
    let mem = Mem::new(&prog, &bind);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_sequential(&prog, &bind, &mem)
    }))
    .expect_err("1 + n overflows");
    assert_eq!(panic_message(err), "affine eval overflow");
    assert_eq!(mem.max_abs_diff(&Mem::new(&prog, &bind)), 0.0);
}

/// A statement the run never reaches cannot fail it: a subscript that
/// overflows `i64`, one that reads an unbound symbol, a guard over an
/// unbound symbol and a loop bound over one, each inside a zero-trip
/// loop and behind a false guard. Reached, each panics with its own
/// message after exactly the stores before it (`A(j) = j + 1` at
/// `j = 0`).
#[test]
fn a_statement_fails_only_when_it_runs() {
    use barrier_elim::ir::build::*;
    use barrier_elim::ir::LoopId;
    type Body = fn(&mut ProgramBuilder, ArrayId, LoopId, SymId, SymId);
    let cases: [(&str, Body); 4] = [
        ("affine eval overflow", |pb, a, j, n, _| {
            pb.assign(elem(a, [idx(j) + sym(n) * 4]), ex(9.0));
        }),
        ("unbound atom in affine expression", |pb, a, j, _, k| {
            pb.assign(elem(a, [idx(j) + sym(k)]), ex(9.0));
        }),
        ("unbound atom in guard", |pb, a, j, _, k| {
            pb.begin_guard(vec![ge0(sym(k))]);
            pb.assign(elem(a, [idx(j)]), ex(9.0));
            pb.end();
        }),
        ("unbound atom in affine expression", |pb, a, _, _, k| {
            let l = pb.begin_seq("l", con(0), sym(k));
            pb.assign(elem(a, [idx(l)]), ex(9.0));
            pb.end();
        }),
    ];
    for (k, (expected, body)) in cases.into_iter().enumerate() {
        // `reached`: 0 = zero-trip loop, 1 = false guard, 2 = executed.
        for reached in 0..3 {
            let mut pb = ProgramBuilder::new("lazy");
            let n = pb.sym("n");
            let unbound = pb.sym("k");
            let a = pb.array("A", &[con(4)], dist_block());
            let hi = if reached == 0 { con(-1) } else { con(3) };
            let j = pb.begin_seq("j", con(0), hi);
            pb.assign(elem(a, [idx(j)]), ival(idx(j) + 1));
            if reached == 1 {
                pb.begin_guard(vec![eq0(con(1))]);
            }
            body(&mut pb, a, j, n, unbound);
            if reached == 1 {
                pb.end();
            }
            pb.end();
            let prog = pb.finish();
            let bind = Bindings::new(2).set(n, 1 << 62);
            let mem = Mem::new(&prog, &bind);
            let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_sequential(&prog, &bind, &mem)
            }));
            let st = mem.array(a);
            let cells: Vec<f64> = (0..st.len()).map(|c| st.get_linear(c)).collect();
            match reached {
                0 => {
                    assert!(ran.is_ok(), "case {k}: a zero-trip loop runs nothing");
                    assert_eq!(cells, [0.0; 4], "case {k}");
                }
                1 => {
                    assert!(ran.is_ok(), "case {k}: a false guard runs nothing");
                    assert_eq!(cells, [1.0, 2.0, 3.0, 4.0], "case {k}");
                }
                _ => {
                    let err = ran.expect_err("the statement runs");
                    assert_eq!(panic_message(err), expected, "case {k}");
                    assert_eq!(cells, [1.0, 0.0, 0.0, 0.0], "case {k}");
                }
            }
        }
    }
}
