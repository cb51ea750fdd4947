//! Pins the event sequence every processor walks, byte for byte: each of
//! the 24 suite kernels (`Scale::Test`) and the five `kernels/*.be`
//! sources (`n = 32`, `tmax = 4`) is planned at P ∈ {1, 2, 3, 8} under
//! both `fork_join` and `optimize`, and the FNV-1a hash of
//! `render_events` (one line per step: dispatch, work with its loop
//! indices, sync with the processors it resolved to) is checked, with
//! the plan's dynamic sync counts, against
//! `tests/golden/event_fingerprint.txt`. A change to how a plan is
//! walked — not to what it says — must leave every line alone.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test --test event_fingerprint`
//! only for a change that is *meant* to alter a plan.

use barrier_elim::analysis::Bindings;
use barrier_elim::interp::{render_events, Schedule};
use barrier_elim::ir::{Program, SymId};
use barrier_elim::spmd_opt::{fork_join, optimize, SpmdProgram};
use std::fmt::Write as _;

const WIDTHS: [i64; 4] = [1, 2, 3, 8];
const GOLDEN: &str = "tests/golden/event_fingerprint.txt";

/// A program of the set: its name, its IR and its symbol values.
type Input = (String, Program, Vec<(SymId, i64)>);

/// A plan family: `fork_join` or `optimize`.
type Family = fn(&Program, &Bindings) -> SpmdProgram;

fn walk_set() -> Vec<Input> {
    let mut set = Vec::new();
    for def in barrier_elim::suite::all() {
        let built = (def.build)(barrier_elim::suite::Scale::Test);
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
    let families: [(&str, Family); 2] = [("fork_join", fork_join), ("optimize", optimize)];
    let mut out = String::new();
    for (name, prog, values) in walk_set() {
        for nprocs in WIDTHS {
            let mut bind = Bindings::new(nprocs);
            for &(s, v) in &values {
                bind.bind(s, v);
            }
            for (label, family) in families {
                let plan = family(&prog, &bind);
                let sched = Schedule::new(&prog, &bind, &plan);
                let mut h = Fnv(0xcbf2_9ce4_8422_2325);
                h.write_str(&render_events(&prog, &sched)).unwrap();
                let counts = sched.counts();
                writeln!(out, "{name} P={nprocs} {label} {:016x} {counts:?}", h.0).unwrap();
            }
        }
    }
    out
}

#[test]
fn every_event_sequence_of_the_walk_set_matches_the_recorded_fingerprint() {
    let actual = render();
    assert_eq!(actual.lines().count(), 29 * WIDTHS.len() * 2);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN)
        .unwrap_or_else(|e| panic!("{GOLDEN}: {e} (run with UPDATE_GOLDEN=1 to create)"));
    for (a, e) in actual.lines().zip(expected.lines()) {
        assert_eq!(a, e, "an event sequence or its counts drifted");
    }
    assert_eq!(actual, expected);
}
