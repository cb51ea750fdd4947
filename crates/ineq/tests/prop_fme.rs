//! Property tests: Fourier-Motzkin feasibility versus exhaustive integer
//! search on random small systems.
//!
//! The contract under test is the one the communication analysis relies
//! on: `is_consistent == false` implies there is **no** integer solution
//! (soundness of "no communication"), and whenever an integer solution
//! exists inside the bounding box, `is_consistent` must report `true`.

use ineq::{LinExpr, System, VarId, VarKind, VarTable};
use proptest::prelude::*;

const NVARS: usize = 3;
const BOX_LO: i128 = -4;
const BOX_HI: i128 = 4;

#[derive(Debug, Clone)]
struct RandConstraint {
    coeffs: Vec<i8>,
    constant: i8,
    is_eq: bool,
}

fn rand_constraint() -> impl Strategy<Value = RandConstraint> {
    (
        proptest::collection::vec(-3i8..=3, NVARS),
        -6i8..=6,
        proptest::bool::weighted(0.3),
    )
        .prop_map(|(coeffs, constant, is_eq)| RandConstraint {
            coeffs,
            constant,
            is_eq,
        })
}

fn build(rcs: &[RandConstraint]) -> (VarTable, Vec<VarId>, System) {
    let mut vt = VarTable::new();
    let kinds = [VarKind::Processor, VarKind::LoopIndex, VarKind::ArrayIndex];
    let vars: Vec<VarId> = (0..NVARS)
        .map(|k| vt.fresh(format!("v{k}"), kinds[k % kinds.len()]))
        .collect();
    let mut sys = System::new();
    // Bounding box so the brute-force oracle is complete.
    for &v in &vars {
        sys.add_range(
            LinExpr::var(v),
            LinExpr::constant(BOX_LO),
            LinExpr::constant(BOX_HI),
        );
    }
    for rc in rcs {
        let mut e = LinExpr::constant(rc.constant as i128);
        for (k, &c) in rc.coeffs.iter().enumerate() {
            e.add_term(vars[k], c as i128);
        }
        if rc.is_eq {
            sys.add_eq(e);
        } else {
            sys.add_ge(e);
        }
    }
    (vt, vars, sys)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// If FME says inconsistent, exhaustive search must find nothing.
    #[test]
    fn infeasible_verdicts_are_sound(rcs in proptest::collection::vec(rand_constraint(), 0..6)) {
        let (vt, vars, sys) = build(&rcs);
        let bounds: Vec<_> = vars.iter().map(|&v| (v, BOX_LO, BOX_HI)).collect();
        let fme = sys.is_consistent(&vt);
        let brute = sys.find_integer_solution(&bounds);
        if !fme {
            prop_assert!(brute.is_none(),
                "FME claimed infeasible but {:?} satisfies the system", brute);
        }
        // And the conservative direction: any integer solution forces `true`.
        if brute.is_some() {
            prop_assert!(fme, "integer solution exists but FME said infeasible");
        }
    }

    /// Eliminating a variable never turns a feasible system infeasible
    /// (projection only loses information in the conservative direction).
    #[test]
    fn elimination_preserves_feasibility(rcs in proptest::collection::vec(rand_constraint(), 0..6)) {
        let (vt, vars, sys) = build(&rcs);
        let bounds: Vec<_> = vars.iter().map(|&v| (v, BOX_LO, BOX_HI)).collect();
        if sys.find_integer_solution(&bounds).is_some() {
            for &v in &vars {
                let reduced = sys.eliminate(&vt, v);
                prop_assert!(reduced.is_consistent(&vt),
                    "eliminating {:?} made a feasible system infeasible", v);
            }
        }
    }

    /// Projection onto a subset keeps every point's shadow feasible: for
    /// any integer solution of the full system, plugging its kept
    /// coordinates into the projection must satisfy it.
    #[test]
    fn projection_contains_shadow(rcs in proptest::collection::vec(rand_constraint(), 0..5)) {
        let (vt, vars, sys) = build(&rcs);
        let bounds: Vec<_> = vars.iter().map(|&v| (v, BOX_LO, BOX_HI)).collect();
        if let Some(sol) = sys.find_integer_solution(&bounds) {
            let keep = [vars[0]];
            let proj = sys
                .project_onto(&vt, &keep)
                .expect("small coefficients: no overflow, no blow-up");
            prop_assert!(proj.vars().iter().all(|v| keep.contains(v)));
            let lookup = |v: VarId| sol.iter().find(|(a, _)| *a == v).unwrap().1;
            for c in proj.constraints() {
                prop_assert!(c.holds_int(&lookup),
                    "projected constraint violated by shadow of a real solution");
            }
        }
    }
}
