//! Householder-style reduction fragment (stands in for EISPACK `tred2`,
//! the program Bodin et al. also study).
//!
//! Per step `k`: gather row `k` into a replicated work vector, reduce a
//! dot product into a shared scalar, then rank-1-update the trailing
//! rows. The scalar reduction and the update keep a barrier per step,
//! while the update phase chain still merges — the partial-win profile
//! the paper reports for dense reductions. The slot between the
//! initialisation and the `k` loop owes the loop's first trip only (the
//! bottom barrier serves the others): a counter posted by the owner of
//! row 0.

use crate::{Built, Scale};
use ir::build::*;
use ir::RedOp;

/// Build at the given scale.
pub fn build(scale: Scale) -> Built {
    let nv = match scale {
        Scale::Test => 12,
        Scale::Small => 48,
        Scale::Full => 192,
    };
    let mut pb = ProgramBuilder::new("tred2");
    let n = pb.sym("n");
    let a = pb.array("A", &[sym(n), sym(n)], dist_block());
    let d = pb.array("D", &[sym(n)], dist_repl());
    let sigma = pb.scalar("sigma", 0.0);

    let i0 = pb.begin_par("i0", con(0), sym(n) - 1);
    let j0 = pb.begin_seq("j0", con(0), sym(n) - 1);
    pb.assign(
        elem(a, [idx(i0), idx(j0)]),
        ival(idx(i0) * 5 + idx(j0) * 3).sin() + ival(idx(i0) + idx(j0)).cos(),
    );
    pb.end();
    pb.end();

    let k = pb.begin_seq("k", con(0), sym(n) - 2);

    // Gather row k into the work vector (read crosses processors:
    // row k lives on owner(k), the gather loop is index-partitioned).
    let j1 = pb.begin_par("j1", con(0), sym(n) - 1);
    pb.assign(elem(d, [idx(j1)]), arr(a, [idx(k), idx(j1)]));
    pb.end();

    // Dot product of the work vector (reduction into a shared scalar).
    let j2 = pb.begin_par("j2", con(0), sym(n) - 1);
    pb.reduce(
        svar(sigma),
        RedOp::Add,
        arr(d, [idx(j2)]) * arr(d, [idx(j2)]),
    );
    pb.end();

    // Rank-1-style update of the trailing rows.
    let i3 = pb.begin_par("i3", con(0), sym(n) - 1);
    let j3 = pb.begin_seq("j3", con(0), sym(n) - 1);
    pb.begin_guard(vec![ge0(idx(i3) - idx(k) - 1)]);
    pb.assign(
        elem(a, [idx(i3), idx(j3)]),
        arr(a, [idx(i3), idx(j3)])
            - arr(d, [idx(j3)]) * arr(d, [idx(i3)]) * (ex(0.5) / (ex(1.0) + sca(sigma).abs())),
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
    fn reduction_bound_but_still_improves_on_fork_join() {
        let built = build(Scale::Test);
        let bind = built.bindings(4);
        let opt = spmd_opt::optimize(&built.prog, &bind).static_stats();
        let fj = spmd_opt::fork_join(&built.prog, &bind).static_stats();
        assert!(opt.barriers >= 1);
        assert!(opt.barriers <= fj.barriers, "{opt:?} vs {fj:?}");
        assert_eq!(opt.regions, 1);
        assert!(fj.regions > 1);
    }
}
