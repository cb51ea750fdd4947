//! The benchmark's inputs: compile sets, run cases, the seeded order
//! they are visited in, and the fingerprint that pins their content.

use analysis::Bindings;
use ir::{Program, SymId};
use std::sync::Arc;
use suite::Scale;

/// SplitMix64: the harness's only randomness, so the visiting order is
/// a pure function of `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A Fisher-Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
        order
    }
}

/// One program with concrete symbol values. `text` is set for programs
/// that enter as `.be` source: the timed compile then starts at
/// `frontend::parse`, not at the IR.
pub struct Input {
    pub name: String,
    pub text: Option<&'static str>,
    pub prog: Arc<Program>,
    pub values: Vec<(SymId, i64)>,
    /// True when some statement is a reduction: real threads may
    /// reassociate it, so memory is compared with a tolerance.
    pub reduction: bool,
}

impl Input {
    fn new(
        name: String,
        text: Option<&'static str>,
        prog: Program,
        values: Vec<(SymId, i64)>,
    ) -> Self {
        let reduction = prog
            .nodes
            .iter()
            .any(|n| n.as_assign().is_some_and(|a| a.reduction.is_some()));
        Input {
            name,
            text,
            prog: Arc::new(prog),
            values,
            reduction,
        }
    }

    pub fn bindings(&self, nprocs: i64) -> Bindings {
        let mut b = Bindings::new(nprocs);
        for &(s, v) in &self.values {
            b.bind(s, v);
        }
        b
    }
}

fn suite_input(name: &str, scale: Scale, rebind: &[(&str, i64)]) -> Input {
    let def = suite::by_name(name).unwrap_or_else(|| panic!("no suite kernel named {name}"));
    let built = (def.build)(scale);
    let mut values = built.values;
    for &(sym, v) in rebind {
        let id = built
            .prog
            .syms
            .iter()
            .position(|s| s.name == sym)
            .unwrap_or_else(|| panic!("{name} has no symbol {sym}"));
        match values.iter_mut().find(|(s, _)| s.0 as usize == id) {
            Some(slot) => slot.1 = v,
            None => values.push((SymId(id as u32), v)),
        }
    }
    let label = if rebind.is_empty() {
        name.to_string()
    } else {
        let sizes: Vec<String> = rebind.iter().map(|(s, v)| format!("{s}={v}")).collect();
        format!("{name}[{}]", sizes.join(","))
    };
    Input::new(label, None, built.prog, values)
}

/// The 24 suite kernels at one scale.
pub fn suite_at(scale: Scale) -> Vec<Input> {
    suite::all()
        .iter()
        .map(|d| suite_input(d.name, scale, &[]))
        .collect()
}

const BE_SOURCES: [(&str, &str); 5] = [
    ("broadcast.be", include_str!("../../kernels/broadcast.be")),
    ("jacobi.be", include_str!("../../kernels/jacobi.be")),
    ("pipeline.be", include_str!("../../kernels/pipeline.be")),
    (
        "private_gather.be",
        include_str!("../../kernels/private_gather.be"),
    ),
    ("shallow.be", include_str!("../../kernels/shallow.be")),
];

/// Generated programs in the compile set: `oracle::generate(0..32)`.
/// The pool is fixed — the seed permutes the visiting order instead of
/// redrawing it — because one generated program costs 0.2–27 ms to
/// compile, so a redraw moves the set's compile time by ±10 % and would
/// drown a regression of the size the bounds are meant to catch.
const GENERATED: u64 = 32;

/// The compile workloads' input set: 24 suite kernels, the 5 `.be`
/// sources (`n = 32`, `tmax = 4`), and 32 generated programs.
pub fn compile_set() -> Vec<Input> {
    let mut set = suite_at(Scale::Small);
    for (name, src) in BE_SOURCES {
        let prog = frontend::parse(src).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        let values = prog
            .syms
            .iter()
            .enumerate()
            .map(|(k, s)| (SymId(k as u32), if s.name == "tmax" { 4 } else { 32 }))
            .collect();
        set.push(Input::new(name.to_string(), Some(src), prog, values));
    }
    for k in 0..GENERATED {
        let g = oracle::generate(k);
        set.push(Input::new(
            format!("gen{k}:{:?}", g.shape),
            None,
            g.prog,
            g.values,
        ));
    }
    set
}

/// `exec_compute`: large-grain cases, per-element evaluation ≥ 95 % of
/// the run. `Scale::Full` programs with the listed symbols re-bound so
/// one optimized run takes 0.1–0.3 s at P = 2 and ≥ 11 reps fit a run.
pub fn exec_compute_cases() -> Vec<Input> {
    [
        ("jacobi2d", &[("n", 256), ("tmax", 8)][..]),
        ("shallow", &[("n", 128), ("tmax", 4)]),
        ("copy_chain", &[("n", 32768), ("tmax", 8)]),
        ("stencil3d", &[("n", 48), ("tmax", 3)]),
    ]
    .iter()
    .map(|(name, rebind)| suite_input(name, Scale::Full, rebind))
    .collect()
}

/// `exec_finegrain`: tiny phases, 10³–10⁴ sync episodes per run. At
/// P = 2 every structured pattern is nearest-neighbor, so the optimized
/// plans hold eliminated and neighbor sites only (counters and pairwise
/// cells need P > 2 and are timed by the primitive section), and
/// `transpose` is not barrier-bound; `cg_dense`, whose dot products keep
/// their barriers at any width, is the control the optimizer cannot win.
pub fn exec_finegrain_cases() -> Vec<Input> {
    [
        ("copy_chain", &[("n", 8), ("tmax", 4000)][..]),
        ("redblack", &[("half", 8), ("tmax", 4000)]),
        ("livermore7", &[("n", 16), ("tmax", 2000)]),
        ("seidel_pipe", &[("n", 6), ("tmax", 2000)]),
        ("erlebacher", &[("n", 6), ("tmax", 1000)]),
        ("multihop", &[("n", 16), ("tmax", 8000)]),
        ("lu", &[("n", 64)]),
        ("transpose", &[("n", 8), ("tmax", 1500)]),
        ("cg_dense", &[("n", 8), ("tmax", 1500)]),
    ]
    .iter()
    .map(|(name, rebind)| suite_input(name, Scale::Full, rebind))
    .collect()
}

/// FNV-1a over formatted text, without building the string.
pub struct FnvWriter(pub u64);

impl FnvWriter {
    pub fn new() -> Self {
        FnvWriter(0xcbf2_9ce4_8422_2325)
    }
}

impl std::fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// Hash of every input's pretty-printed program, `.be` text and symbol
/// values. A change to `suite`, `oracle::generate` or a kernel file
/// that alters what is measured changes this, instead of silently
/// moving the numbers.
pub fn fingerprint<'a>(inputs: impl IntoIterator<Item = &'a Input>) -> String {
    use std::fmt::Write;
    let mut h = FnvWriter::new();
    for inp in inputs {
        let _ = write!(
            h,
            "{}\n{}\n{}\n",
            inp.name,
            ir::pretty::pretty(&inp.prog),
            inp.text.unwrap_or("")
        );
        for (s, v) in &inp.values {
            let _ = write!(h, "{}={v};", inp.prog.sym(*s).name);
        }
    }
    format!("{:016x}", h.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_shuffled_order_is_a_function_of_the_seed() {
        let order = |seed| Rng::new(seed).permutation(61);
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8));
        let mut sorted = order(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..61).collect::<Vec<_>>());
        // Successive rounds of one run differ too.
        let mut rng = Rng::new(7);
        assert_ne!(rng.permutation(61), rng.permutation(61));
    }

    #[test]
    fn the_fingerprint_is_stable_and_sees_a_rebinding() {
        let a = fingerprint(&exec_finegrain_cases());
        assert_eq!(a, fingerprint(&exec_finegrain_cases()));
        let mut changed = exec_finegrain_cases();
        changed[0].values[0].1 += 1;
        assert_ne!(a, fingerprint(&changed));
        assert_eq!(fingerprint(&compile_set()), fingerprint(&compile_set()));
    }

    #[test]
    fn rebinding_replaces_the_named_symbols_only() {
        let inp = suite_input("copy_chain", Scale::Full, &[("n", 8)]);
        let by_name = |name: &str| {
            let (_, v) = inp
                .values
                .iter()
                .find(|(s, _)| inp.prog.sym(*s).name == name)
                .unwrap();
            *v
        };
        assert_eq!(by_name("n"), 8);
        assert_eq!(by_name("tmax"), 60);
        assert_eq!(inp.name, "copy_chain[n=8]");
    }
}
