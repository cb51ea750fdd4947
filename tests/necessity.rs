//! Every interior sync the optimizer places is necessary: strip the
//! interior sites of each suite kernel one after the other, keeping a
//! strip whenever `oracle::validate` still calls the plan race-free, and
//! what could go is compared with an allow-list. `ablation_necessity`
//! prints the same list from the same helper.

use barrier_elim::oracle;
use barrier_elim::spmd_opt::optimize;
use barrier_elim::suite::{self, Scale};

/// `(kernel, P, site)` for every interior sync that can be stripped.
fn implied() -> Vec<(String, i64, String)> {
    let mut out = Vec::new();
    for def in suite::all() {
        let built = (def.build)(Scale::Test);
        for nprocs in [2, 3, 4, 8] {
            let bind = built.bindings(nprocs);
            let plan = optimize(&built.prog, &bind);
            for site in oracle::implied_syncs(&built.prog, &bind, &plan) {
                out.push((def.name.to_string(), nprocs, site.desc));
            }
        }
    }
    out
}

/// One sync is left that its neighbors imply: the bottom of
/// `erlebacher`'s time loop. Its carried pairs run from one sweep of
/// trip `t` into the other sweep of a later trip, and what orders them
/// is the bottom of the *inner* sweep loop they end in, one inner trip
/// before the sink — the optimizer's covering rule for a loop bottom
/// only looks at the slots of the carried loop's own body, and the one
/// slot there (between the two sweeps) is itself gone, covered the same
/// way. Walking a carried need into a nested loop would mean counting
/// the hops of a reach-bounded neighbor need (|q - p| <= trip gap)
/// through loops whose trip counts nothing bounds from below, so the
/// bottom stays: one neighbor exchange per time step next to the
/// 2(n - 1) inside it.
#[test]
fn no_interior_sync_is_implied_by_the_syncs_around_it() {
    let allowed: Vec<_> = [2, 3, 4, 8]
        .map(|p| {
            (
                "erlebacher".to_string(),
                p,
                "seq(node 10).bottom: neighbor".to_string(),
            )
        })
        .into();
    assert_eq!(implied(), allowed);
}
