//! Pins what the reference interpreter computes, cell for cell: every
//! program of the compile set (the 24 suite kernels at `Scale::Small`,
//! the five `kernels/*.be` sources, `oracle::generate(0..32)`) at
//! P ∈ {2, 8}, and the nine `exec_finegrain` cases of the benchmark, is
//! run through `run_sequential`, and the bit pattern of every shared
//! array cell and every scalar is hashed (FNV-1a) against
//! `tests/golden/oracle_fingerprint.txt`. NaN is hashed as one canonical
//! pattern, so the file pins *which* cells are NaN but not their
//! payload. A change to the evaluator that moves one bit of the oracle
//! fails here even where no parallel run happens to compare against it.
//!
//! The file was written before the evaluator's dense-table rewrite.
//! Regenerate with `UPDATE_GOLDEN=1 cargo test --test oracle_fingerprint`
//! only for a change that is *meant* to alter sequential semantics.

use barrier_elim::analysis::Bindings;
use barrier_elim::interp::{run_sequential, Mem};
use barrier_elim::ir::{ArrayId, Program, ScalarId, SymId};
use barrier_elim::suite::{self, Scale};
use std::fmt::Write as _;

const WIDTHS: [i64; 2] = [2, 8];
const GOLDEN: &str = "tests/golden/oracle_fingerprint.txt";

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

type Case = (String, Program, Vec<(SymId, i64)>, Vec<i64>);

fn cases() -> Vec<Case> {
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
    for (name, rebind) in FINEGRAIN {
        let built = (suite::by_name(name).unwrap().build)(Scale::Full);
        let mut values = built.values;
        for &(sym, v) in rebind {
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

fn render() -> String {
    let mut out = String::new();
    for (name, prog, values, widths) in cases() {
        for nprocs in widths {
            let mut bind = Bindings::new(nprocs);
            for &(s, v) in &values {
                bind.bind(s, v);
            }
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
    assert_eq!(actual.lines().count(), 61 * WIDTHS.len() + FINEGRAIN.len());
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN)
        .unwrap_or_else(|e| panic!("{GOLDEN}: {e} (run with UPDATE_GOLDEN=1 to create)"));
    for (a, e) in actual.lines().zip(expected.lines()) {
        assert_eq!(a, e, "the reference interpreter's memory drifted");
    }
    assert_eq!(actual, expected);
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
