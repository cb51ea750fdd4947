//! Shift-plus-broadcast: one produced array is consumed both as a
//! one-cell shift (a `Neighbor` pattern) and as a single-element
//! broadcast of `B[0]` across the same sync site. Regression kernel
//! for the lattice cliff where any join past `Neighbor` degraded
//! straight to `General` and kept a spurious barrier every time step:
//! the broadcast — all of it read from the owner of `B[0]`, a producer
//! named from the read — fuses with the shift's +1 into one pairwise
//! wait set, at any processor count. The loop bottom is the mirror
//! image: everybody has read `B[0]` and its owner is about to overwrite
//! it, so that owner alone waits — a collector, fused with the shift's
//! ±1 and the producer into one pairwise sync (21 → 1 dynamic barriers
//! at P = 8, Small scale). At P = 4 the anti dependence has a
//! three-distance spectrum of its own, which wins the rule order and
//! then overflows the fan-in once joined: that loop-bottom barrier
//! stays.

use crate::{Built, Scale};
use ir::build::*;

/// Build at the given scale.
pub fn build(scale: Scale) -> Built {
    let (nv, tv) = match scale {
        Scale::Test => (16, 3),
        Scale::Small => (512, 10),
        Scale::Full => (4096, 24),
    };
    let mut pb = ProgramBuilder::new("shift_bcast");
    let n = pb.sym("n");
    let tmax = pb.sym("tmax");
    let a = pb.array("A", &[sym(n)], dist_block());
    let b = pb.array("B", &[sym(n)], dist_block());
    let c = pb.array("C", &[sym(n)], dist_block());
    let d = pb.array("D", &[sym(n)], dist_block());

    let i0 = pb.begin_par("i0", con(0), sym(n) - 1);
    pb.assign(elem(a, [idx(i0)]), ival(idx(i0) * 19).sin());
    pb.end();

    let _t = pb.begin_seq("t", con(0), sym(tmax) - 1);
    // Producer phase: B, including the broadcast element B[0].
    let i = pb.begin_par("i", con(0), sym(n) - 1);
    pb.assign(elem(b, [idx(i)]), arr(a, [idx(i)]) * ex(0.5) + ex(1.0));
    pb.end();
    // Consumer phase: a one-cell shift of B and a broadcast of B[0],
    // conflicting with the producer phase across one sync site.
    let j = pb.begin_par("j", con(1), sym(n) - 1);
    pb.assign(elem(c, [idx(j)]), arr(b, [idx(j) - 1]) + ex(0.125));
    pb.assign(
        elem(d, [idx(j)]),
        arr(b, [con(0)]) * ex(0.25) + arr(a, [idx(j)]),
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

    /// The regression: before distance-vector sync, the Neighbor ⊔
    /// Producer1 join at the producer phase's sync site collapsed to
    /// General and kept a barrier every time step.
    #[test]
    fn neighbor_join_broadcast_fuses_instead_of_keeping_a_barrier() {
        let built = build(Scale::Test);
        let bind = built.bindings(4);
        let st = spmd_opt::optimize(&built.prog, &bind).static_stats();
        assert_eq!(st.regions, 1, "{st:?}");
        assert!(st.pair_syncs >= 1, "{st:?}");
        // At P=4 the carried anti dependence on `B[0]` has the three
        // distances {-3,-2,-1}; joined with the shift's ±1 and the
        // producer the wait set is wider than the pairwise fan-in
        // budget, so that barrier stays; the inter-phase spurious
        // barrier is the one that must be gone.
        assert!(st.barriers <= 2, "{st:?}");
    }

    /// The fused wait set carries the shift distance and the owner of
    /// the broadcast element — also at eight processors, where the
    /// broadcast's seven owner distances alone would overflow the
    /// pairwise fan-in and keep the barrier.
    #[test]
    fn fused_site_carries_shift_distance_and_broadcast_owner() {
        let built = build(Scale::Test);
        for nprocs in [4, 8] {
            let bind = built.bindings(nprocs);
            let plan = spmd_opt::optimize(&built.prog, &bind);
            let found = spmd_opt::sync_sites(&built.prog, &plan)
                .iter()
                .filter_map(|s| s.op.waits())
                .any(|w| w.dists.contains(1) && w.producers.len() == 1);
            assert!(found, "P={nprocs}: no fused site with +1 and one producer");
        }
    }

    /// At eight processors the loop bottom is one pairwise sync too:
    /// the shift back and the collector, the owner of `B[0]`. The shift
    /// forward and the broadcast from that owner are the business of
    /// the sync between the two phases, one trip later.
    #[test]
    fn loop_bottom_gathers_at_the_owner_of_the_broadcast_element() {
        let built = build(Scale::Test);
        let bind = built.bindings(8);
        let plan = spmd_opt::optimize(&built.prog, &bind);
        assert_eq!(plan.static_stats().barriers, 1, "only the region end");
        let found = spmd_opt::sync_sites(&built.prog, &plan)
            .iter()
            .filter(|s| s.kind == spmd_opt::SlotKind::LoopBottom)
            .filter_map(|s| s.op.waits())
            .any(|w| {
                !w.dists.contains(1)
                    && w.dists.contains(-1)
                    && w.producers.is_empty()
                    && w.collectors.len() == 1
            });
        assert!(found, "no collector at the loop bottom");
    }
}
