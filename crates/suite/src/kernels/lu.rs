//! Right-looking LU decomposition without pivoting, columns distributed
//! cyclically (the classic dense-linear-algebra decomposition).
//!
//! At step `k` the scaling phase touches only column `k` — owned by one
//! processor — and every other processor's update phase consumes it: the
//! paper's producer-consumer *counter* pattern (cf. its pivot-broadcast
//! example). The optimizer replaces the scale→update barrier with a
//! counter incremented by `owner(k)` — and that counter is the only
//! interior sync of the plan: what the update reads of the
//! initialisation is column `k`, whose owner posts it at every trip,
//! and what trip `k + 1` reads of trip `k`'s update is column `k + 1`,
//! whose owner posts it one trip later, so the slot in front of the
//! loop and the loop bottom are both covered and hold nothing.

use crate::{Built, Scale};
use ir::build::*;

/// Build at the given scale (cyclic columns — the suite default).
pub fn build(scale: Scale) -> Built {
    build_with_dist(scale, dist_cyclic_dim(1))
}

/// Build with an explicit column distribution (used by the distribution
/// ablation: block columns localize the trailing update but idle the
/// processors that finished their columns; cyclic and block-cyclic trade
/// locality for load balance — the classic dense-LA tension).
pub fn build_with_dist(scale: Scale, dist: DistSpec) -> Built {
    let nv = match scale {
        Scale::Test => 12,
        Scale::Small => 48,
        Scale::Full => 192,
    };
    let mut pb = ProgramBuilder::new("lu");
    let n = pb.sym("n");
    let a = pb.array("A", &[sym(n), sym(n)], dist);

    // Diagonally dominant initialization keeps the factorization stable.
    let i0 = pb.begin_par("i0", con(0), sym(n) - 1);
    let j0 = pb.begin_seq("j0", con(0), sym(n) - 1);
    pb.begin_guard(vec![eq0(idx(i0) - idx(j0))]);
    pb.assign(elem(a, [idx(i0), idx(j0)]), ex(8.0) + ival(idx(i0)).sin());
    pb.end();
    pb.begin_guard(vec![ge0(idx(i0) - idx(j0) - 1)]);
    pb.assign(
        elem(a, [idx(i0), idx(j0)]),
        ival(idx(i0) + idx(j0) * 2).sin() * ex(0.25),
    );
    pb.end();
    pb.begin_guard(vec![ge0(idx(j0) - idx(i0) - 1)]);
    pb.assign(
        elem(a, [idx(i0), idx(j0)]),
        ival(idx(i0) * 2 - idx(j0)).cos() * ex(0.25),
    );
    pb.end();
    pb.end();
    pb.end();

    let k = pb.begin_seq("k", con(0), sym(n) - 2);
    // Scale the pivot column (owned entirely by owner(k)).
    let i1 = pb.begin_par("i1", con(1), sym(n) - 1);
    pb.begin_guard(vec![ge0(idx(i1) - idx(k) - 1)]);
    pb.assign(
        elem(a, [idx(i1), idx(k)]),
        arr(a, [idx(i1), idx(k)]) / arr(a, [idx(k), idx(k)]),
    );
    pb.end();
    pb.end();
    // Trailing update (each column owned cyclically).
    let j2 = pb.begin_par("j2", con(1), sym(n) - 1);
    let i2 = pb.begin_seq("i2", con(1), sym(n) - 1);
    pb.begin_guard(vec![ge0(idx(j2) - idx(k) - 1), ge0(idx(i2) - idx(k) - 1)]);
    pb.assign(
        elem(a, [idx(i2), idx(j2)]),
        arr(a, [idx(i2), idx(j2)]) - arr(a, [idx(i2), idx(k)]) * arr(a, [idx(k), idx(j2)]),
    );
    pb.end();
    pb.end();
    pb.end();
    pb.end(); // k

    Built {
        prog: pb.finish(),
        values: vec![(n, nv)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pivot_column_broadcast_uses_counters() {
        let built = build(Scale::Test);
        let bind = built.bindings(4);
        let st = spmd_opt::optimize(&built.prog, &bind).static_stats();
        assert_eq!(st.regions, 1, "{st:?}");
        assert!(st.counter_syncs >= 1, "{st:?}");
        // Fork-join pays 2 barriers per outer iteration.
        let fj = spmd_opt::fork_join(&built.prog, &bind).static_stats();
        assert!(st.barriers <= fj.barriers, "{st:?} vs {fj:?}");
    }
}
