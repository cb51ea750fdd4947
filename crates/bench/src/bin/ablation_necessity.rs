//! Ablation A4 — tightness of the placement: strip each placed
//! synchronization individually and check whether some adversarial
//! virtual interleaving then produces wrong results, and whether the
//! vector-clock validator then finds a race. A high "necessary"
//! fraction means the optimizer is not leaving easy eliminations on the
//! table (the complement of the soundness tests, which check it never
//! removes too much); the interior syncs the validator proves removable
//! *together* — implied by the syncs around them — are listed by name,
//! from the helper `tests/necessity.rs` holds to its allow-list.
//! Collectors are stripped on their own as well, at the width where the
//! suite has one.

use interp::ScheduleOrder;
use spmd_bench::{instance, Table};
use suite::Scale;

fn main() {
    let nprocs = 4;
    println!(
        "Ablation: how many placed syncs are demonstrably necessary? (P = {nprocs}, Test scale)\n"
    );
    println!("A sync is counted necessary when stripping it makes some of 6 adversarial");
    println!("virtual orders diverge from the sequential semantics. Syncs not caught are");
    println!("either schedule-lucky or genuinely conservative placements; the validator");
    println!("column counts the strips that leave a race whatever the order.\n");
    let mut t = Table::new(&[
        "program",
        "placed syncs",
        "demonstrably necessary",
        "fraction",
        "race when stripped",
    ]);
    let orders = [
        ScheduleOrder::Reverse,
        ScheduleOrder::RoundRobin,
        ScheduleOrder::Random(1),
        ScheduleOrder::Random(7),
        ScheduleOrder::Random(31),
        ScheduleOrder::Random(101),
    ];
    for def in suite::all() {
        let (built, bind) = instance(&def, Scale::Test, nprocs);
        let plan = spmd_opt::optimize(&built.prog, &bind);
        let sites = oracle::sites(&plan);
        let (mut necessary, mut racing) = (0, 0);
        for site in &sites {
            let stripped = oracle::delete(&plan, site.index);
            let diverged =
                oracle::plan_diverges(&built.prog, &bind, &stripped, &orders, 1e-9).is_some();
            let races = !oracle::validate(&built.prog, &bind, &stripped).is_race_free();
            necessary += diverged as usize;
            racing += races as usize;
        }
        let n = sites.len();
        t.row(vec![
            def.name.to_string(),
            n.to_string(),
            necessary.to_string(),
            if n > 0 {
                format!("{:.0}%", 100.0 * necessary as f64 / n as f64)
            } else {
                "-".into()
            },
            racing.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!("\nInterior syncs that can be stripped together without a race (implied by their");
    println!("neighbors), P = 2, 3, 4, 8:");
    let mut none = true;
    for def in suite::all() {
        for nprocs in [2, 3, 4, 8] {
            let (built, bind) = instance(&def, Scale::Test, nprocs);
            let plan = spmd_opt::optimize(&built.prog, &bind);
            for site in oracle::implied_syncs(&built.prog, &bind, &plan) {
                println!("  {} P={nprocs}: {}", def.name, site.desc);
                none = false;
            }
        }
    }
    if none {
        println!("  none");
    }

    // No plan of the suite has a collector at four processors; at eight
    // strip the gather alone — every post and every other wait stays.
    println!("\nCollectors (P = 8, Test scale), the gather alone stripped:");
    for def in suite::all() {
        let (built, bind) = instance(&def, Scale::Test, 8);
        let plan = spmd_opt::optimize(&built.prog, &bind);
        for site in oracle::sites(&plan) {
            let Some(stripped) = oracle::drop_collectors(&plan, site.index) else {
                continue;
            };
            let diverged =
                oracle::plan_diverges(&built.prog, &bind, &stripped, &orders, 1e-9).is_some();
            let races = !oracle::validate(&built.prog, &bind, &stripped).is_race_free();
            println!(
                "  {}: {}: {}, {}",
                def.name,
                site.desc,
                if diverged {
                    "diverges"
                } else {
                    "no divergence"
                },
                if races { "races" } else { "race-free" }
            );
        }
    }
}
