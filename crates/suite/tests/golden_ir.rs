//! The `.be` sources build exactly the programs the suite's IR-builder
//! code built: `tests/golden/suite_ir.txt` holds, per kernel and scale,
//! an FNV-1a hash of the program's `Debug` text and its symbol values,
//! written by that builder code before it was deleted (plus `lu` at
//! each ablation distribution and the five `kernels/*.be` programs).

use suite::{Built, Scale};

const GOLDEN: &str = include_str!("../../../tests/golden/suite_ir.txt");

fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn text(b: &Built) -> String {
    format!("{:?}{:?}", b.prog, b.values)
}

#[test]
fn every_program_matches_the_builder_golden() {
    let mut lines = Vec::new();
    for def in suite::all() {
        for scale in [Scale::Test, Scale::Small, Scale::Full] {
            let h = fnv(&text(&(def.build)(scale)));
            lines.push(format!("{} {scale:?} {h:016x}", def.name));
        }
    }
    for dist in ["block@1", "cyclic@1", "cyclic(2)@1", "cyclic(4)@1"] {
        let h = fnv(&text(&suite::lu_with_dist(Scale::Small, dist)));
        lines.push(format!("lu[{dist}] Small {h:016x}"));
    }
    for (name, src) in [
        ("broadcast", include_str!("../../../kernels/broadcast.be")),
        ("jacobi", include_str!("../../../kernels/jacobi.be")),
        ("pipeline", include_str!("../../../kernels/pipeline.be")),
        (
            "private_gather",
            include_str!("../../../kernels/private_gather.be"),
        ),
        ("shallow", include_str!("../../../kernels/shallow.be")),
    ] {
        let prog = ir::text::parse(src).unwrap();
        lines.push(format!("{name}.be - {:016x}", fnv(&format!("{prog:?}"))));
    }
    for (want, got) in GOLDEN.lines().zip(&lines) {
        assert_eq!(want, got);
    }
    assert_eq!(GOLDEN.lines().count(), lines.len());
}
