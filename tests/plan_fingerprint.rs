//! Pins every plan and decision log of a wide compile set, byte for
//! byte: each of the 24 suite kernels (`Scale::Small`), the five
//! `kernels/*.be` sources and `oracle::generate(0..64)` is compiled at ten
//! machine widths under both analysis configurations, and the FNV-1a hash
//! of `{plan:?}{log:?}` (what the benchmark compares cached against
//! uncached compiles with) is checked against
//! `tests/golden/plan_fingerprint.txt`. A change to the analysis that is
//! meant to be speed-only — fewer scans, fewer allocations — must leave
//! every line alone; `verdict_fingerprint` pins the verdicts underneath
//! at three widths.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test --test plan_fingerprint`
//! only for a change that is *meant* to alter a plan or a log entry.

use barrier_elim::analysis::Bindings;
use barrier_elim::ir::{Program, SymId};
use barrier_elim::spmd_opt::{optimize_explained, AnalysisConfig, OptimizeOptions};
use std::fmt::Write as _;

const WIDTHS: [i64; 10] = [2, 3, 5, 8, 16, 33, 64, 65, 72, 128];
const GOLDEN: &str = "tests/golden/plan_fingerprint.txt";

/// A program of the set: its name, its IR and its symbol values.
type Input = (String, Program, Vec<(SymId, i64)>);

fn compile_set() -> Vec<Input> {
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
    for seed in 0..64 {
        let g = barrier_elim::oracle::generate(seed);
        set.push((format!("gen{seed}"), g.prog, g.values));
    }
    set
}

/// FNV-1a over the bytes `write!` produces.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

fn render() -> String {
    let configs = [
        ("cached", AnalysisConfig::default()),
        ("uncached", AnalysisConfig::sequential_uncached()),
    ];
    let mut out = String::new();
    for (name, prog, values) in compile_set() {
        for nprocs in WIDTHS {
            let mut bind = Bindings::new(nprocs);
            for &(s, v) in &values {
                bind.bind(s, v);
            }
            for (label, analysis) in configs {
                let opts = OptimizeOptions {
                    analysis,
                    ..OptimizeOptions::default()
                };
                let (plan, log, _) = optimize_explained(&prog, &bind, opts);
                let mut h = Fnv(0xcbf2_9ce4_8422_2325);
                write!(h, "{plan:?}{log:?}").unwrap();
                writeln!(out, "{name} P={nprocs} {label} {:016x}", h.0).unwrap();
            }
        }
    }
    out
}

#[test]
fn every_plan_of_the_compile_set_matches_the_recorded_fingerprint() {
    let actual = render();
    assert_eq!(actual.lines().count(), 93 * WIDTHS.len() * 2);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN)
        .unwrap_or_else(|e| panic!("{GOLDEN}: {e} (run with UPDATE_GOLDEN=1 to create)"));
    for (a, e) in actual.lines().zip(expected.lines()) {
        assert_eq!(a, e, "a plan or decision log drifted");
    }
    assert_eq!(actual, expected);
}
