//! Pivot-plus-shift: each time step writes a pivot row owned by one
//! identifiable processor (`X[t, ·]`, a `Producer1` pattern) and a
//! shifted vector (`B`, a `Neighbor` pattern), and the consumer phase
//! reads both across a single sync site. Regression kernel for the
//! `Neighbor ⊔ Producer1` lattice cliff: the join used to collapse to
//! `General` and keep a barrier every step; now it fuses into one
//! pairwise wait set naming the +1 distance *and* the pivot owner's
//! cell.

use crate::{Built, Scale};
use ir::build::*;

/// Build at the given scale.
pub fn build(scale: Scale) -> Built {
    let (nv, tv) = match scale {
        Scale::Test => (16, 3),
        Scale::Small => (256, 12),
        Scale::Full => (1024, 32),
    };
    let mut pb = ProgramBuilder::new("pivot_shift");
    let n = pb.sym("n");
    let tmax = pb.sym("tmax");
    let a = pb.array("A", &[sym(n)], dist_block());
    let b = pb.array("B", &[sym(n)], dist_block());
    let x = pb.array("X", &[sym(n), sym(n)], dist_block());

    let i0 = pb.begin_par("i0", con(0), sym(n) - 1);
    pb.assign(elem(a, [idx(i0)]), ival(idx(i0) * 29).sin());
    pb.end();

    let t = pb.begin_seq("t", con(0), sym(tmax) - 1);
    // Shift producer.
    let i = pb.begin_par("i", con(0), sym(n) - 1);
    pb.assign(elem(b, [idx(i)]), arr(a, [idx(i)]) * ex(0.5) + ex(1.0));
    pb.end();
    // Pivot row t: written entirely by owner(t) — the write subscript
    // of the distributed dimension depends only on the sequential
    // loop, which is what makes the producer identifiable.
    let j = pb.begin_par("j", con(0), sym(n) - 1);
    pb.assign(elem(x, [idx(t), idx(j)]), ival(idx(t) * 7 + idx(j)).sin());
    pb.end();
    // Consumer: one-cell shift of B plus the pivot row broadcast.
    let k = pb.begin_par("k", con(1), sym(n) - 1);
    pb.assign(
        elem(a, [idx(k)]),
        arr(b, [idx(k) - 1]) * ex(0.5) + arr(x, [idx(t), idx(k)]) * ex(0.25),
    );
    pb.end();
    pb.end(); // t

    Built {
        prog: pb.finish(),
        values: vec![(n, nv), (tmax, tv)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pivot_and_shift_fuse_to_pairwise() {
        let built = build(Scale::Test);
        let bind = built.bindings(4);
        let st = spmd_opt::optimize(&built.prog, &bind).static_stats();
        assert_eq!(st.regions, 1, "{st:?}");
        assert!(st.pair_syncs >= 1, "{st:?}");
        // The per-step inter-phase barrier is gone.
        assert!(st.barriers <= 1, "{st:?}");
    }

    /// The fused wait set names both halves: the +1 shift distance and
    /// the pivot row's owner as a producer target.
    #[test]
    fn fused_site_carries_distance_and_producer() {
        let built = build(Scale::Test);
        let bind = built.bindings(4);
        let plan = spmd_opt::optimize(&built.prog, &bind);
        let found = spmd_opt::sync_sites(&built.prog, &plan)
            .iter()
            .filter_map(|s| s.op.waits())
            .any(|w| w.dists.contains(1) && !w.producers.is_empty());
        assert!(found, "no fused pairwise site with dist +1 and a producer");
    }
}
