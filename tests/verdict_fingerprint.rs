//! Pins every Fourier-Motzkin verdict of the compile set, not only the
//! plans they fold into: each of the 24 suite kernels (`Scale::Small`),
//! the five `kernels/*.be` sources and `oracle::generate(0..32)` is
//! compiled at P ∈ {2, 8, 64} through a fresh `FmeCache`, and the memo
//! it leaves behind — raw *and* reduced canonical systems with their
//! verdicts, scan cost dropped — is hashed against
//! `tests/golden/verdict_fingerprint.txt`. A change to the scan that
//! flips a verdict, or alters the reduced form `Rows::reduce` produces,
//! fails here even when no plan happens to move.
//!
//! The file was written by the commit before the flat-row scan
//! (`34e2011`, analysis sequential). Regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test verdict_fingerprint` only for a
//! change that is *meant* to alter verdicts or the canonical form.

use barrier_elim::analysis::Bindings;
use barrier_elim::ineq::{encode_snapshot, FmeCache};
use barrier_elim::ir::{Program, SymId};
use barrier_elim::spmd_opt::{optimize_explained, optimize_explained_shared, OptimizeOptions};
use std::fmt::Write as _;
use std::sync::Arc;

const WIDTHS: [i64; 3] = [2, 8, 64];
const GOLDEN: &str = "tests/golden/verdict_fingerprint.txt";

fn compile_set() -> Vec<(String, Program, Vec<(SymId, i64)>)> {
    let mut set = Vec::new();
    for def in barrier_elim::suite::all() {
        let built = (def.build)(barrier_elim::suite::Scale::Small);
        set.push((def.name.to_string(), built.prog, built.values));
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
        set.push((format!("{name}.be"), prog, values));
    }
    for seed in 0..32 {
        let g = barrier_elim::oracle::generate(seed);
        set.push((format!("gen{seed}"), g.prog, g.values));
    }
    set
}

/// FNV-1a over the memo's entries in the snapshot codec's byte layout
/// (cost zeroed), sorted — so the hash is a function of the set of
/// `(CanonicalSystem, Feasibility)` pairs alone, and of no `Hash` impl.
fn fingerprint(cache: &FmeCache) -> (usize, u64) {
    let mut entries: Vec<Vec<u8>> = cache
        .export_feas()
        .into_iter()
        .map(|(key, f, _cost)| encode_snapshot(&[(key, f, 0)]))
        .collect();
    entries.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in entries.iter().flatten() {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (entries.len(), h)
}

fn render() -> String {
    let mut out = String::new();
    for (name, prog, values) in compile_set() {
        for nprocs in WIDTHS {
            let mut bind = Bindings::new(nprocs);
            for &(s, v) in &values {
                bind.bind(s, v);
            }
            let cache = Arc::new(FmeCache::new());
            optimize_explained_shared(&prog, &bind, OptimizeOptions::default(), &cache);
            let (entries, hash) = fingerprint(&cache);
            writeln!(out, "{name} P={nprocs} entries={entries} {hash:016x}").unwrap();
        }
    }
    out
}

#[test]
fn every_verdict_of_the_compile_set_matches_the_recorded_fingerprint() {
    let actual = render();
    assert_eq!(actual.lines().count(), 61 * WIDTHS.len());
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN)
        .unwrap_or_else(|e| panic!("{GOLDEN}: {e} (run with UPDATE_GOLDEN=1 to create)"));
    for (a, e) in actual.lines().zip(expected.lines()) {
        assert_eq!(a, e, "memoized verdicts or canonical forms drifted");
    }
    assert_eq!(actual, expected);
}

/// With no worker threads in the analysis, its counters are a pure
/// function of (program, bindings, cache state): two fresh compiles
/// report the same pair and FME traffic, count for count.
#[test]
fn analysis_counters_repeat_exactly() {
    for def in barrier_elim::suite::all() {
        let built = (def.build)(barrier_elim::suite::Scale::Small);
        let bind = built.bindings(8);
        let counts = || {
            let (_, _, st) = optimize_explained(&built.prog, &bind, OptimizeOptions::default());
            let fme = (st.fme.feas_hits, st.fme.feas_misses, st.fme.entries);
            (st.pair_hits, st.pair_misses, fme, st.fme.peak_constraints)
        };
        assert_eq!(counts(), counts(), "{}", def.name);
    }
}
