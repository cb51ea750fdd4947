//! Write a custom kernel and interrogate the communication analysis
//! directly: for every pair of adjacent parallel loops, print what the
//! Fourier-Motzkin test decided and why the barrier stayed or went.
//!
//! ```sh
//! cargo run --example custom_kernel
//! ```

use barrier_elim::analysis::{Bindings, CommMode, CommQuery};
use barrier_elim::ir::build::*;

fn main() {
    // Three phases with different communication shapes:
    //   phase 1 -> phase 2: aligned        (no communication)
    //   phase 2 -> phase 3: shifted by one (neighbor)
    //   phase 3 -> phase 4: transposed-ish (general)
    let mut pb = ProgramBuilder::new("custom");
    let n = pb.sym("n");
    let a = pb.array("A", &[sym(n)], dist_block());
    let b = pb.array("B", &[sym(n)], dist_block());
    let c = pb.array("C", &[sym(n)], dist_block());
    let d = pb.array("D", &[sym(n)], dist_block());

    let i1 = pb.begin_par("i1", con(0), sym(n) - 1);
    pb.assign(elem(b, [idx(i1)]), arr(a, [idx(i1)]) * ex(2.0));
    pb.end();
    let i2 = pb.begin_par("i2", con(0), sym(n) - 1);
    pb.assign(elem(c, [idx(i2)]), arr(b, [idx(i2)]) + ex(1.0));
    pb.end();
    let i3 = pb.begin_par("i3", con(1), sym(n) - 1);
    pb.assign(elem(d, [idx(i3)]), arr(c, [idx(i3) - 1]));
    pb.end();
    let i4 = pb.begin_par("i4", con(0), sym(n) - 1);
    pb.assign(elem(a, [idx(i4)]), arr(d, [sym(n) - 1 - idx(i4)]));
    pb.end();
    let prog = pb.finish();

    println!("{}", barrier_elim::ir::pretty::pretty(&prog));

    let bind = Bindings::new(8).set(n, 128);
    let query = CommQuery::new(&prog, bind.clone());
    let stmts = prog.all_statements();

    println!("pairwise loop-independent communication (P = 8, n = 128):\n");
    for w in stmts.windows(2) {
        let outcome = query.comm_stmts_detailed(&w[0], &w[1], CommMode::LoopIndependent);
        println!(
            "  loop {} -> loop {}: {:?}",
            prog.loop_name(prog.expect_loop(w[0].loops[0]).id),
            prog.loop_name(prog.expect_loop(w[1].loops[0]).id),
            outcome.pattern(),
        );
    }

    println!("\nresulting schedule:\n");
    let plan = barrier_elim::spmd_opt::optimize(&prog, &bind);
    print!("{}", barrier_elim::spmd_opt::render_plan(&prog, &plan));
    let st = plan.static_stats();
    println!(
        "\nstatic stats: {} barrier(s), {} neighbor, {} counter, {} eliminated",
        st.barriers, st.neighbor_syncs, st.counter_syncs, st.eliminated
    );
}
