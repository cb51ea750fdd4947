//! ADI (alternating-direction implicit) integration fragment.
//!
//! The row sweep relaxes along `j` inside each processor's rows —
//! entirely local. The column sweep relaxes along the *distributed*
//! dimension `i`, so each `DOALL j` phase belongs wholly to `owner(i)`
//! and the carried dependence `i-1 → i` crosses a processor boundary
//! once per block: the optimizer replaces the per-`i` barrier with
//! neighbor flags, producing the classic software pipeline.

use crate::{Built, Scale};
use ir::build::*;

/// Build at the given scale.
pub fn build(scale: Scale) -> Built {
    let (nv, tv) = match scale {
        Scale::Test => (12, 2),
        Scale::Small => (48, 6),
        Scale::Full => (256, 12),
    };
    let mut pb = ProgramBuilder::new("adi");
    let n = pb.sym("n");
    let tmax = pb.sym("tmax");
    let x = pb.array("X", &[sym(n), sym(n)], dist_block());
    let a = pb.array("A", &[sym(n), sym(n)], dist_block());

    let i0 = pb.begin_par("i0", con(0), sym(n) - 1);
    let j0 = pb.begin_seq("j0", con(0), sym(n) - 1);
    pb.assign(
        elem(x, [idx(i0), idx(j0)]),
        ival(idx(i0) * 17 + idx(j0)).sin(),
    );
    pb.assign(
        elem(a, [idx(i0), idx(j0)]),
        ex(0.25) + ival(idx(i0) + idx(j0) * 7).cos() * ex(0.05),
    );
    pb.end();
    pb.end();

    let _t = pb.begin_seq("t", con(0), sym(tmax) - 1);

    // Row sweep: parallel over rows, serial recurrence along j (local).
    let i1 = pb.begin_par("i1", con(0), sym(n) - 1);
    let j1 = pb.begin_seq("j1", con(1), sym(n) - 1);
    // Convex relaxation keeps the recurrence numerically bounded.
    pb.assign(
        elem(x, [idx(i1), idx(j1)]),
        ex(0.7) * arr(x, [idx(i1), idx(j1)])
            + arr(x, [idx(i1), idx(j1) - 1]) * arr(a, [idx(i1), idx(j1)]),
    );
    pb.end();
    pb.end();

    // Column sweep: serial recurrence along the distributed dimension,
    // parallel over columns — the pipelined phase.
    let i2 = pb.begin_seq("i2", con(1), sym(n) - 1);
    let j2 = pb.begin_par("j2", con(0), sym(n) - 1);
    pb.assign(
        elem(x, [idx(i2), idx(j2)]),
        ex(0.7) * arr(x, [idx(i2), idx(j2)])
            + arr(x, [idx(i2) - 1, idx(j2)]) * arr(a, [idx(i2), idx(j2)]),
    );
    pb.end();
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
    use spmd_opt::{RItem, SyncOp, TopItem};

    #[test]
    fn column_sweep_is_pipelined_with_neighbor_flags() {
        let built = build(Scale::Test);
        let bind = built.bindings(4);
        let plan = spmd_opt::optimize(&built.prog, &bind);
        let st = plan.static_stats();
        assert_eq!(st.regions, 1, "{st:?}");
        assert!(st.neighbor_syncs >= 1, "{st:?}");
        // Find the inner i2 sequential loop and check its bottom sync is
        // a neighbor op, not a barrier.
        fn find_seq_bottoms(items: &[RItem], out: &mut Vec<SyncOp>) {
            for it in items {
                if let RItem::Seq { body, bottom, .. } = it {
                    out.push(bottom.clone());
                    find_seq_bottoms(body, out);
                }
            }
        }
        let mut bottoms = Vec::new();
        for item in &plan.items {
            if let TopItem::Region(r) = item {
                find_seq_bottoms(&r.items, &mut bottoms);
            }
        }
        assert!(
            bottoms
                .iter()
                .any(|b| matches!(b.class(), Some(analysis::CommPattern::Neighbor { .. }))),
            "expected a pipelined bottom sync, got {bottoms:?}"
        );
    }
}
