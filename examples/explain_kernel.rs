//! The optimizer's schedule and decision log for one suite kernel — what
//! `beopt --explain` prints for a `.be` file.
//!
//! ```sh
//! cargo run --example explain_kernel -- lu 8
//! ```

use barrier_elim::obs::explain::render_decisions;
use barrier_elim::spmd_opt::{optimize_logged, render_plan};
use barrier_elim::suite::{self, Scale};

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "lu".into());
    let nprocs = args.next().and_then(|p| p.parse().ok()).unwrap_or(8);
    let Some(def) = suite::by_name(&name) else {
        eprintln!("explain_kernel: no suite kernel named {name}");
        std::process::exit(2);
    };
    let built = (def.build)(Scale::Test);
    let bind = built.bindings(nprocs);
    let (plan, log) = optimize_logged(&built.prog, &bind);
    println!("{}", render_plan(&built.prog, &plan));
    print!("{}", render_decisions(&built.prog, &log));
}
