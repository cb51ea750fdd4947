//! Mesh relaxation with a max-residual convergence test (stands in for
//! SPEC92 `tomcatv`).
//!
//! The residual phases are neighbor-communicating stencils. The
//! max-reduction into a shared scalar used to pin a barrier at every
//! loop bottom — against *itself* one iteration later, although
//! nothing in the region reads `rmax` — until same-operator reductions
//! in distributed loops were recognised as commuting: their
//! per-processor partials are flushed atomically. What is left at the
//! loop bottom is the stencil's neighbor exchange (25 → 1 dynamic
//! barriers at P = 8, Small scale).

use crate::{Built, Scale};
use ir::build::*;
use ir::RedOp;

/// Build at the given scale.
pub fn build(scale: Scale) -> Built {
    let (nv, tv) = match scale {
        Scale::Test => (10, 2),
        Scale::Small => (48, 8),
        Scale::Full => (384, 24),
    };
    let mut pb = ProgramBuilder::new("tomcatv_mesh");
    let n = pb.sym("n");
    let tmax = pb.sym("tmax");
    let x = pb.array("X", &[sym(n), sym(n)], dist_block());
    let y = pb.array("Y", &[sym(n), sym(n)], dist_block());
    let rx = pb.array("RX", &[sym(n), sym(n)], dist_block());
    let ry = pb.array("RY", &[sym(n), sym(n)], dist_block());
    let rmax = pb.scalar("rmax", 0.0);

    let i0 = pb.begin_par("i0", con(0), sym(n) - 1);
    let j0 = pb.begin_seq("j0", con(0), sym(n) - 1);
    pb.assign(
        elem(x, [idx(i0), idx(j0)]),
        ival(idx(i0) * 3 + idx(j0)).sin(),
    );
    pb.assign(
        elem(y, [idx(i0), idx(j0)]),
        ival(idx(i0) - idx(j0) * 2).cos(),
    );
    pb.end();
    pb.end();

    let _t = pb.begin_seq("t", con(0), sym(tmax) - 1);

    // Residuals (stencil).
    let i1 = pb.begin_par("i1", con(1), sym(n) - 2);
    let j1 = pb.begin_seq("j1", con(1), sym(n) - 2);
    pb.assign(
        elem(rx, [idx(i1), idx(j1)]),
        arr(x, [idx(i1) - 1, idx(j1)])
            + arr(x, [idx(i1) + 1, idx(j1)])
            + arr(x, [idx(i1), idx(j1) - 1])
            + arr(x, [idx(i1), idx(j1) + 1])
            - ex(4.0) * arr(x, [idx(i1), idx(j1)]),
    );
    pb.assign(
        elem(ry, [idx(i1), idx(j1)]),
        arr(y, [idx(i1) - 1, idx(j1)])
            + arr(y, [idx(i1) + 1, idx(j1)])
            + arr(y, [idx(i1), idx(j1) - 1])
            + arr(y, [idx(i1), idx(j1) + 1])
            - ex(4.0) * arr(y, [idx(i1), idx(j1)]),
    );
    pb.end();
    pb.end();

    // Max residual (reduction into a shared scalar nobody reads in the
    // region: it commutes with itself across iterations).
    let i2 = pb.begin_par("i2", con(1), sym(n) - 2);
    let j2 = pb.begin_seq("j2", con(1), sym(n) - 2);
    pb.reduce(
        svar(rmax),
        RedOp::Max,
        arr(rx, [idx(i2), idx(j2)]).abs() + arr(ry, [idx(i2), idx(j2)]).abs(),
    );
    pb.end();
    pb.end();

    // Update.
    let i3 = pb.begin_par("i3", con(1), sym(n) - 2);
    let j3 = pb.begin_seq("j3", con(1), sym(n) - 2);
    pb.assign(
        elem(x, [idx(i3), idx(j3)]),
        arr(x, [idx(i3), idx(j3)]) + ex(0.2) * arr(rx, [idx(i3), idx(j3)]),
    );
    pb.assign(
        elem(y, [idx(i3), idx(j3)]),
        arr(y, [idx(i3), idx(j3)]) + ex(0.2) * arr(ry, [idx(i3), idx(j3)]),
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

    #[test]
    fn the_reduction_pins_no_barrier() {
        let built = build(Scale::Test);
        let bind = built.bindings(4);
        let opt = spmd_opt::optimize(&built.prog, &bind).static_stats();
        assert_eq!(opt.barriers, 1, "only the region end: {opt:?}");
        assert_eq!(opt.neighbor_syncs, 4, "{opt:?}");
    }
}
