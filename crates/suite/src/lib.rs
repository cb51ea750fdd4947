//! Reconstructed benchmark kernels.
//!
//! The paper evaluates on standard Fortran benchmark suites (SPEC, NAS,
//! Perfect Club, RiCEPS, Livermore); the sources and inputs are not
//! reproducible here, so each kernel in this crate reconstructs the
//! *loop and communication structure* of a named benchmark class — the
//! only thing the synchronization optimizer can see. Every kernel:
//!
//! * builds its own initialization loops in the IR (no external setup —
//!   initialization parallel loops contribute barriers exactly as real
//!   programs' do);
//! * is valid under the dependence test (`DOALL` markings carry no
//!   dependence);
//! * documents the synchronization outcome the optimizer is expected to
//!   achieve (all-eliminated / neighbor / counters / barrier-bound).
//!
//! See `DESIGN.md` for the full suite-to-kernel mapping and
//! `EXPERIMENTS.md` for measured results.

pub mod kernels;

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
    /// Builder.
    pub build: fn(Scale) -> Built,
}

/// All benchmarks, in the order used by the tables.
pub fn all() -> Vec<BenchDef> {
    use kernels::*;
    vec![
        BenchDef {
            name: "jacobi2d",
            stands_in_for: "motivating stencil (paper §1 example class)",
            desc: "5-point Jacobi relaxation, time sweep, block rows",
            expect: Expectation::Neighbor,
            build: jacobi2d::build,
        },
        BenchDef {
            name: "copy_chain",
            stands_in_for: "aligned BLAS-1 chains (best case)",
            desc: "chain of aligned element-wise parallel loops",
            expect: Expectation::Eliminated,
            build: copy_chain::build,
        },
        BenchDef {
            name: "stencil3d",
            stands_in_for: "NAS MG smoothing class",
            desc: "7-point 3-D stencil sweep, block planes",
            expect: Expectation::Neighbor,
            build: stencil3d::build,
        },
        BenchDef {
            name: "redblack",
            stands_in_for: "red-black SOR solvers (NAS/Perfect class)",
            desc: "1-D red-black Gauss-Seidel via doubled indices",
            expect: Expectation::Neighbor,
            build: redblack::build,
        },
        BenchDef {
            name: "shallow",
            stands_in_for: "RiCEPS shallow / SPEC swm256",
            desc: "shallow-water time step: 3 stencil phases + copies",
            expect: Expectation::Neighbor,
            build: shallow::build,
        },
        BenchDef {
            name: "fdtd",
            stands_in_for: "FDTD electromagnetic kernels (Perfect class)",
            desc: "staggered-grid E/H updates, opposite one-cell shifts",
            expect: Expectation::Neighbor,
            build: fdtd::build,
        },
        BenchDef {
            name: "cg_dense",
            stands_in_for: "NAS CG (dense stand-in)",
            desc: "matvec + dot-product reductions + axpy chain",
            expect: Expectation::BarrierBound,
            build: cg_dense::build,
        },
        BenchDef {
            name: "tomcatv_mesh",
            stands_in_for: "SPEC92 tomcatv",
            desc: "mesh relaxation with max-residual reduction",
            expect: Expectation::Neighbor,
            build: tomcatv_mesh::build,
        },
        BenchDef {
            name: "livermore7",
            stands_in_for: "Livermore kernel 7 (equation of state)",
            desc: "wide element-wise loop with short shifted reads",
            expect: Expectation::Neighbor,
            build: livermore7::build,
        },
        BenchDef {
            name: "livermore18",
            stands_in_for: "Livermore kernel 18 (explicit hydro)",
            desc: "2-D hydro fragment: three stencil phases per step",
            expect: Expectation::Neighbor,
            build: livermore18::build,
        },
        BenchDef {
            name: "adi",
            stands_in_for: "ADI integration (Perfect/NAS appsp class)",
            desc: "row sweep (local) + column sweep (pipelined)",
            expect: Expectation::Neighbor,
            build: adi::build,
        },
        BenchDef {
            name: "erlebacher",
            stands_in_for: "Erlebacher tridiagonal solver",
            desc: "forward/backward substitution along distributed dim",
            expect: Expectation::Neighbor,
            build: erlebacher::build,
        },
        BenchDef {
            name: "lu",
            stands_in_for: "LU decomposition (Perfect/linpackd class)",
            desc: "right-looking LU, cyclic columns, pivot broadcast",
            expect: Expectation::Counters,
            build: lu::build,
        },
        BenchDef {
            name: "tred2",
            stands_in_for: "EISPACK tred2 (Bodin et al. comparison)",
            desc: "Householder-style reduction with row broadcasts",
            expect: Expectation::BarrierBound,
            build: tred2::build,
        },
        BenchDef {
            name: "matmul",
            stands_in_for: "dense BLAS-3 kernels",
            desc: "blocked matrix multiply, row-owned output",
            expect: Expectation::Eliminated,
            build: matmul::build,
        },
        BenchDef {
            name: "mgrid",
            stands_in_for: "NAS mgrid (multigrid V-cycle)",
            desc: "fine/coarse smooth + stride-2 restrict/prolongate",
            expect: Expectation::Neighbor,
            build: mgrid::build,
        },
        BenchDef {
            name: "seidel_pipe",
            stands_in_for: "Gauss-Seidel wavefront solvers",
            desc: "in-place 2-D relaxation pipelined over rows",
            expect: Expectation::Neighbor,
            build: seidel_pipe::build,
        },
        BenchDef {
            name: "wavepipe2d",
            stands_in_for: "skewed wavefront solvers (SOR/line-relaxation class)",
            desc: "2-D row sweep with a two-block reach, pipelined pairwise",
            expect: Expectation::PairWise,
            build: wavepipe2d::build,
        },
        BenchDef {
            name: "trisolve_pipe",
            stands_in_for: "blocked triangular solves (LU/linpackd class)",
            desc: "forward substitution with reaches {1,2} blocks",
            expect: Expectation::PairWise,
            build: trisolve_pipe::build,
        },
        BenchDef {
            name: "multihop",
            stands_in_for: "long-range shift/FFT butterfly stages",
            desc: "two-phase time loop shifting by two ownership blocks",
            expect: Expectation::PairWise,
            build: multihop::build,
        },
        BenchDef {
            name: "shift_bcast",
            stands_in_for: "mixed shift + broadcast phases (join-cliff regression)",
            desc: "one-cell shift and B[0] broadcast over one sync site",
            expect: Expectation::PairWise,
            build: shift_bcast::build,
        },
        BenchDef {
            name: "pivot_shift",
            stands_in_for: "pivot broadcast + shift phases (Neighbor⊔Producer1 regression)",
            desc: "per-step pivot row and one-cell shift over one sync site",
            expect: Expectation::PairWise,
            build: pivot_shift::build,
        },
        BenchDef {
            name: "workvec",
            stands_in_for: "privatization-dependent codes (Tu-Padua class)",
            desc: "gather into a privatized work vector + rank-1 update",
            expect: Expectation::BarrierBound,
            build: workvec::build,
        },
        BenchDef {
            name: "transpose",
            stands_in_for: "FFT/transpose phases (worst case)",
            desc: "repeated out-of-place transpose (all-to-all)",
            expect: Expectation::BarrierBound,
            build: transpose::build,
        },
    ]
}

/// Find a benchmark by name.
pub fn by_name(name: &str) -> Option<BenchDef> {
    all().into_iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_build_and_validate_at_test_scale() {
        for b in all() {
            let built = (b.build)(Scale::Test);
            let problems = built.prog.validate();
            assert!(problems.is_empty(), "{}: {problems:?}", b.name);
            assert!(
                !built.prog.parallel_loops().is_empty(),
                "{} has no parallel loops",
                b.name
            );
        }
    }

    #[test]
    fn all_parallel_markings_pass_the_dependence_test() {
        for b in all() {
            let built = (b.build)(Scale::Test);
            let bind = built.bindings(4);
            let bad = analysis::check_parallel_loops(&built.prog, &bind);
            assert!(
                bad.is_empty(),
                "{}: loops carry dependences: {bad:?}",
                b.name
            );
        }
    }

    #[test]
    fn names_are_unique() {
        let names: Vec<_> = all().iter().map(|b| b.name).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }

    #[test]
    fn by_name_finds_each() {
        for b in all() {
            assert!(by_name(b.name).is_some());
        }
        assert!(by_name("nonexistent").is_none());
    }
}
