//! Array privatization showcase (the paper's §5/"future work" item,
//! implemented here): a per-step gather into a work vector followed by a
//! rank-1-style update.
//!
//! With the work vector **privatizable**, the gather loop becomes a
//! *replicated computation* (every processor fills its own copy) and the
//! gather → update barrier disappears — accesses to private storage
//! never communicate. With a plain shared work vector the same program
//! needs a barrier per step: `build_shared` exists so tests and the
//! ablation can measure exactly what privatization buys. What is left
//! in the privatized plan is the broadcast of pivot row `k`: a counter
//! at the loop bottom posted by the owner of row `k + 1`, and — the
//! bottom serving every trip but the first — one in front of the loop
//! posted by the owner of row 0.

use crate::{Built, Scale};
use ir::build::*;

fn build_impl(scale: Scale, private: bool) -> Built {
    let nv = match scale {
        Scale::Test => 12,
        Scale::Small => 48,
        Scale::Full => 192,
    };
    let mut pb = ProgramBuilder::new(if private { "workvec" } else { "workvec_shared" });
    let n = pb.sym("n");
    let a = pb.array("A", &[sym(n), sym(n)], dist_block());
    let d = if private {
        pb.private_array("D", &[sym(n)])
    } else {
        pb.array("D", &[sym(n)], dist_repl())
    };

    let i0 = pb.begin_par("i0", con(0), sym(n) - 1);
    let j0 = pb.begin_seq("j0", con(0), sym(n) - 1);
    pb.assign(
        elem(a, [idx(i0), idx(j0)]),
        ival(idx(i0) * 3 + idx(j0)).sin(),
    );
    pb.end();
    pb.end();

    let k = pb.begin_seq("k", con(0), sym(n) - 2);
    // Gather row k into the work vector.
    let j1 = pb.begin_par("j1", con(0), sym(n) - 1);
    pb.assign(elem(d, [idx(j1)]), arr(a, [idx(k), idx(j1)]) * ex(0.5));
    pb.end();
    // Update trailing rows from the work vector.
    let i2 = pb.begin_par("i2", con(0), sym(n) - 1);
    let j2 = pb.begin_seq("j2", con(0), sym(n) - 1);
    pb.begin_guard(vec![ge0(idx(i2) - idx(k) - 1)]);
    pb.assign(
        elem(a, [idx(i2), idx(j2)]),
        arr(a, [idx(i2), idx(j2)]) * ex(0.9) + arr(d, [idx(i2)]) * arr(d, [idx(j2)]) * ex(0.01),
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

/// The privatized variant (the suite entry).
pub fn build(scale: Scale) -> Built {
    build_impl(scale, true)
}

/// The shared-work-vector variant (for the privatization ablation).
pub fn build_shared(scale: Scale) -> Built {
    build_impl(scale, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn privatization_eliminates_the_gather_barrier() {
        let bindp = |b: &Built| b.bindings(4);
        let private = build(Scale::Test);
        let shared = build_shared(Scale::Test);
        let st_p = spmd_opt::optimize(&private.prog, &bindp(&private)).static_stats();
        let st_s = spmd_opt::optimize(&shared.prog, &bindp(&shared)).static_stats();
        assert!(
            st_p.barriers < st_s.barriers,
            "private {st_p:?} vs shared {st_s:?}"
        );
    }

    #[test]
    fn gather_phase_is_replicated_when_private() {
        use spmd_opt::{PhaseKind, RItem, TopItem};
        let built = build(Scale::Test);
        let bind = built.bindings(4);
        let plan = spmd_opt::optimize(&built.prog, &bind);
        let mut saw_replicated_loop = false;
        fn walk(items: &[RItem], saw: &mut bool) {
            for it in items {
                match it {
                    RItem::Phase(p) => {
                        if matches!(p.kind, PhaseKind::Replicated) {
                            *saw = true;
                        }
                    }
                    RItem::Seq { body, .. } => walk(body, saw),
                }
            }
        }
        for item in &plan.items {
            if let TopItem::Region(r) = item {
                walk(&r.items, &mut saw_replicated_loop);
            }
        }
        assert!(saw_replicated_loop, "gather loop should be replicated");
    }
}
