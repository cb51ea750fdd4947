//! Reconstructed benchmark kernels.
//!
//! The paper evaluates on standard Fortran benchmark suites (SPEC, NAS,
//! Perfect Club, RiCEPS, Livermore); the sources and inputs are not
//! reproducible here, so each kernel in this crate reconstructs the
//! *loop and communication structure* of a named benchmark class — the
//! only thing the synchronization optimizer can see. Every kernel is a
//! `.be` source in `kernels/suite/` (the language of [`ir::text`]),
//! compiled into this crate, and:
//!
//! * has its own initialization loops (no external setup —
//!   initialization parallel loops contribute barriers exactly as real
//!   programs' do);
//! * is valid under the dependence test (`doall` markings carry no
//!   dependence);
//! * documents, in its header comment, the synchronization outcome the
//!   optimizer is expected to achieve (all-eliminated / neighbor /
//!   counters / pairwise / barrier-bound).
//!
//! This crate holds only the table: name, description, [`Expectation`]
//! and the symbol values per [`Scale`]. See `DESIGN.md` for the full
//! suite-to-kernel mapping and `EXPERIMENTS.md` for measured results.

use analysis::Bindings;
use ir::{Program, SymId};

/// Problem-size scales.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Tiny sizes for unit tests and adversarial-order validation.
    Test,
    /// Moderate sizes for dynamic synchronization counting.
    Small,
    /// Large sizes for wall-clock speedup measurement.
    Full,
}

/// A built benchmark instance: the program plus concrete symbol values.
pub struct Built {
    /// The program.
    pub prog: Program,
    /// Concrete values for each symbolic constant.
    pub values: Vec<(SymId, i64)>,
}

impl Built {
    /// Bindings for `nprocs` processors with this instance's sizes.
    pub fn bindings(&self, nprocs: i64) -> Bindings {
        let mut b = Bindings::new(nprocs);
        for &(s, v) in &self.values {
            b.bind(s, v);
        }
        b
    }
}

/// The expected synchronization outcome class, used by tests and the
/// table harness to sanity-check the optimizer against the paper's
/// qualitative claims.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Expectation {
    /// Nearly all barriers eliminated (aligned communication).
    Eliminated,
    /// Barriers replaced by neighbor post/wait flags.
    Neighbor,
    /// Barriers replaced by producer-consumer counters.
    Counters,
    /// Barriers replaced by distance-vector pairwise counters
    /// (multi-hop or mixed-pattern communication, wavefront-pipelined).
    PairWise,
    /// Reductions or unstructured communication keep most barriers.
    BarrierBound,
}

/// One benchmark definition.
pub struct BenchDef {
    /// Kernel name.
    pub name: &'static str,
    /// Which published suite/benchmark this kernel stands in for.
    pub stands_in_for: &'static str,
    /// One-line description.
    pub desc: &'static str,
    /// Expected optimizer outcome class.
    pub expect: Expectation,
    /// Builder: parses the kernel's source with the scale's sizes.
    pub build: Box<dyn Fn(Scale) -> Built + Send + Sync>,
}

/// Values per scale, `[Test, Small, Full]`, of each named symbol.
type Sizes = &'static [(&'static str, [i64; 3])];

/// A kernel's name and its `kernels/suite/<name>.be` text.
struct Source {
    name: &'static str,
    text: &'static str,
}

macro_rules! be {
    ($name:literal) => {
        Source {
            name: $name,
            text: include_str!(concat!("../../../kernels/suite/", $name, ".be")),
        }
    };
}

/// One row of the suite table.
struct Kernel {
    source: Source,
    stands_in_for: &'static str,
    desc: &'static str,
    expect: Expectation,
    /// Every `sym` of the source, in declaration order.
    syms: Sizes,
    /// The source's `param`s: literal offsets that scale with the
    /// problem size but must not become symbolic.
    params: Sizes,
}

impl Kernel {
    fn build(&self, src: &str, scale: Scale) -> Built {
        let at = |sizes: Sizes| {
            sizes
                .iter()
                .map(move |&(name, v)| (name, v[scale as usize]))
        };
        let params: Vec<(&str, i64)> = at(self.params).collect();
        let prog = ir::text::parse_with(src, &params)
            .unwrap_or_else(|e| panic!("kernels/suite/{}.be: {e}", self.source.name));
        let values = at(self.syms)
            .map(|(name, v)| {
                let k = prog.syms.iter().position(|s| s.name == name);
                (SymId(k.expect("a sized sym is declared") as u32), v)
            })
            .collect();
        Built { prog, values }
    }
}

use Expectation::*;

/// The suite, in the order used by the tables.
static KERNELS: [Kernel; 24] = [
    Kernel {
        source: be!("jacobi2d"),
        stands_in_for: "motivating stencil (paper §1 example class)",
        desc: "5-point Jacobi relaxation, time sweep, block rows",
        expect: Neighbor,
        syms: &[("n", [12, 64, 512]), ("tmax", [3, 10, 30])],
        params: &[],
    },
    Kernel {
        source: be!("copy_chain"),
        stands_in_for: "aligned BLAS-1 chains (best case)",
        desc: "chain of aligned element-wise parallel loops",
        expect: Eliminated,
        syms: &[("n", [32, 512, 1 << 17]), ("tmax", [3, 20, 60])],
        params: &[],
    },
    Kernel {
        source: be!("stencil3d"),
        stands_in_for: "NAS MG smoothing class",
        desc: "7-point 3-D stencil sweep, block planes",
        expect: Neighbor,
        syms: &[("n", [8, 24, 96]), ("tmax", [2, 6, 12])],
        params: &[],
    },
    Kernel {
        source: be!("redblack"),
        stands_in_for: "red-black SOR solvers (NAS/Perfect class)",
        desc: "1-D red-black Gauss-Seidel via doubled indices",
        expect: Neighbor,
        syms: &[("half", [8, 256, 1 << 16]), ("tmax", [3, 12, 50])],
        params: &[],
    },
    Kernel {
        source: be!("shallow"),
        stands_in_for: "RiCEPS shallow / SPEC swm256",
        desc: "shallow-water time step: 3 stencil phases + copies",
        expect: Neighbor,
        syms: &[("n", [10, 48, 384]), ("tmax", [2, 8, 24])],
        params: &[],
    },
    Kernel {
        source: be!("fdtd"),
        stands_in_for: "FDTD electromagnetic kernels (Perfect class)",
        desc: "staggered-grid E/H updates, opposite one-cell shifts",
        expect: Neighbor,
        syms: &[("n", [10, 48, 384]), ("tmax", [2, 8, 24])],
        params: &[],
    },
    Kernel {
        source: be!("cg_dense"),
        stands_in_for: "NAS CG (dense stand-in)",
        desc: "matvec + dot-product reductions + axpy chain",
        expect: BarrierBound,
        syms: &[("n", [12, 48, 256]), ("tmax", [2, 6, 10])],
        params: &[],
    },
    Kernel {
        source: be!("tomcatv_mesh"),
        stands_in_for: "SPEC92 tomcatv",
        desc: "mesh relaxation with max-residual reduction",
        expect: Neighbor,
        syms: &[("n", [10, 48, 384]), ("tmax", [2, 8, 24])],
        params: &[],
    },
    Kernel {
        source: be!("livermore7"),
        stands_in_for: "Livermore kernel 7 (equation of state)",
        desc: "wide element-wise loop with short shifted reads",
        expect: Neighbor,
        syms: &[("n", [64, 1024, 1 << 17]), ("tmax", [3, 15, 60])],
        params: &[],
    },
    Kernel {
        source: be!("livermore18"),
        stands_in_for: "Livermore kernel 18 (explicit hydro)",
        desc: "2-D hydro fragment: three stencil phases per step",
        expect: Neighbor,
        syms: &[("n", [10, 48, 384]), ("tmax", [2, 8, 24])],
        params: &[],
    },
    Kernel {
        source: be!("adi"),
        stands_in_for: "ADI integration (Perfect/NAS appsp class)",
        desc: "row sweep (local) + column sweep (pipelined)",
        expect: Neighbor,
        syms: &[("n", [12, 48, 256]), ("tmax", [2, 6, 12])],
        params: &[],
    },
    Kernel {
        source: be!("erlebacher"),
        stands_in_for: "Erlebacher tridiagonal solver",
        desc: "forward/backward substitution along distributed dim",
        expect: Neighbor,
        syms: &[("n", [12, 48, 256]), ("tmax", [2, 6, 12])],
        params: &[],
    },
    Kernel {
        source: be!("lu"),
        stands_in_for: "LU decomposition (Perfect/linpackd class)",
        desc: "right-looking LU, cyclic columns, pivot broadcast",
        expect: Counters,
        syms: &[("n", [12, 48, 192])],
        params: &[],
    },
    Kernel {
        source: be!("tred2"),
        stands_in_for: "EISPACK tred2 (Bodin et al. comparison)",
        desc: "Householder-style reduction with row broadcasts",
        expect: BarrierBound,
        syms: &[("n", [12, 48, 192])],
        params: &[],
    },
    Kernel {
        source: be!("matmul"),
        stands_in_for: "dense BLAS-3 kernels",
        desc: "blocked matrix multiply, row-owned output",
        expect: Eliminated,
        syms: &[("n", [10, 48, 256])],
        params: &[],
    },
    Kernel {
        source: be!("mgrid"),
        stands_in_for: "NAS mgrid (multigrid V-cycle)",
        desc: "fine/coarse smooth + stride-2 restrict/prolongate",
        expect: Neighbor,
        syms: &[("n", [16, 256, 1 << 15]), ("tmax", [2, 8, 30])],
        params: &[],
    },
    Kernel {
        source: be!("seidel_pipe"),
        stands_in_for: "Gauss-Seidel wavefront solvers",
        desc: "in-place 2-D relaxation pipelined over rows",
        expect: Neighbor,
        syms: &[("n", [12, 48, 256]), ("tmax", [2, 6, 12])],
        params: &[],
    },
    Kernel {
        source: be!("wavepipe2d"),
        stands_in_for: "skewed wavefront solvers (SOR/line-relaxation class)",
        desc: "2-D row sweep with a two-block reach, pipelined pairwise",
        expect: PairWise,
        syms: &[("n", [16, 64, 256]), ("tmax", [2, 4, 8])],
        // n / 2: two ownership blocks at 4 processors.
        params: &[("h", [8, 32, 128])],
    },
    Kernel {
        source: be!("trisolve_pipe"),
        stands_in_for: "blocked triangular solves (LU/linpackd class)",
        desc: "forward substitution with reaches {1,2} blocks",
        expect: PairWise,
        syms: &[("n", [16, 64, 256]), ("m", [8, 16, 64])],
        // n / 4 and n / 2: one and two ownership blocks at 4 processors.
        params: &[("r1", [4, 16, 64]), ("r2", [8, 32, 128])],
    },
    Kernel {
        source: be!("multihop"),
        stands_in_for: "long-range shift/FFT butterfly stages",
        desc: "two-phase time loop shifting by two ownership blocks",
        expect: PairWise,
        syms: &[("n", [16, 512, 4096]), ("tmax", [3, 10, 24])],
        // n / 2: two ownership blocks at 4 processors.
        params: &[("h", [8, 256, 2048])],
    },
    Kernel {
        source: be!("shift_bcast"),
        stands_in_for: "mixed shift + broadcast phases (join-cliff regression)",
        desc: "one-cell shift and B[0] broadcast over one sync site",
        expect: PairWise,
        syms: &[("n", [16, 512, 4096]), ("tmax", [3, 10, 24])],
        params: &[],
    },
    Kernel {
        source: be!("pivot_shift"),
        stands_in_for: "pivot broadcast + shift phases (Neighbor⊔Producer1 regression)",
        desc: "per-step pivot row and one-cell shift over one sync site",
        expect: PairWise,
        syms: &[("n", [16, 256, 1024]), ("tmax", [3, 12, 32])],
        params: &[],
    },
    Kernel {
        source: be!("workvec"),
        stands_in_for: "privatization-dependent codes (Tu-Padua class)",
        desc: "gather into a privatized work vector + rank-1 update",
        expect: BarrierBound,
        syms: &[("n", [12, 48, 192])],
        params: &[],
    },
    Kernel {
        source: be!("transpose"),
        stands_in_for: "FFT/transpose phases (worst case)",
        desc: "repeated out-of-place transpose (all-to-all)",
        expect: BarrierBound,
        syms: &[("n", [10, 48, 384]), ("tmax", [3, 10, 20])],
        params: &[],
    },
];

/// All benchmarks, in the order used by the tables.
pub fn all() -> Vec<BenchDef> {
    KERNELS
        .iter()
        .map(|k| BenchDef {
            name: k.source.name,
            stands_in_for: k.stands_in_for,
            desc: k.desc,
            expect: k.expect,
            build: Box::new(move |scale| k.build(k.source.text, scale)),
        })
        .collect()
}

/// Find a benchmark by name.
pub fn by_name(name: &str) -> Option<BenchDef> {
    all().into_iter().find(|b| b.name == name)
}

/// `lu` with the column distribution `dist` (`block@1`, `cyclic(2)@1`,
/// … — a `.be` distribution clause) in place of its `cyclic@1`: the
/// distribution ablation's programs.
pub fn lu_with_dist(scale: Scale, dist: &str) -> Built {
    let lu = KERNELS
        .iter()
        .find(|k| k.source.name == "lu")
        .expect("lu is in the suite");
    let decl = "array A(n, n) cyclic@1";
    assert!(lu.source.text.contains(decl), "lu.be declares `{decl}`");
    let src = lu
        .source
        .text
        .replacen(decl, &format!("array A(n, n) {dist}"), 1);
    lu.build(&src, scale)
}
