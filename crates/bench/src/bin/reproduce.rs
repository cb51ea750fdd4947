//! Regenerate every file in `results/`: the paper's Tables 1–3, the
//! ablations and the example transformations.
//!
//! ```sh
//! cargo run --release -p spmd-bench --bin reproduce
//! ```
//!
//! Each suite kernel is built, planned and counted once (Small scale,
//! P = 8) for Tables 1–3 and the stage ablation; the distribution and
//! necessity ablations and the example figure build their own instances.
//! Every file is deterministic, and CI reruns this binary and fails on
//! any diff under `results/`. A shape a file states in prose is asserted
//! from the rows it was computed from, and a row that breaks it panics
//! with its name before any file is written.

use interp::events::DynCounts;
use interp::{run_sequential, run_virtual, Mem, ScheduleOrder};
use spmd_bench::{all_barriers, barrierize, dyn_counts, instance, pct_reduction, Table};
use spmd_opt::{render_plan, StaticStats};
use std::fmt::Write as _;
use std::path::Path;
use suite::{BenchDef, Scale};

/// Processor count of the tables and the stage ablation.
const NPROCS: i64 = 8;

/// One suite kernel at Small scale and P = 8: its program's size, its
/// plans' static statistics, and the dynamic counts of the four
/// schedules the tables compare.
struct Row {
    def: BenchDef,
    stmts: usize,
    arrays: usize,
    par_loops: usize,
    fj_static: StaticStats,
    opt_static: StaticStats,
    /// Fork-join baseline.
    fj: DynCounts,
    /// Region merging alone: every slot of the optimized plan a barrier.
    merged: DynCounts,
    /// Elimination alone: every sync the optimizer kept a barrier.
    elim: DynCounts,
    /// The full optimizer.
    opt: DynCounts,
}

fn rows() -> Vec<Row> {
    suite::all()
        .into_iter()
        .map(|def| {
            let (built, bind) = instance(&def, Scale::Small, NPROCS);
            let prog = &built.prog;
            let fj_plan = spmd_opt::fork_join(prog, &bind);
            let opt_plan = spmd_opt::optimize(prog, &bind);
            // Sanity: the optimized schedule produces the sequential answer.
            let oracle = Mem::new(prog, &bind);
            run_sequential(prog, &bind, &oracle);
            let mem = Mem::new(prog, &bind);
            run_virtual(prog, &bind, &opt_plan, &mem, ScheduleOrder::Reverse);
            assert!(
                mem.max_abs_diff(&oracle) < 1e-6,
                "{}: optimized schedule diverged",
                def.name
            );
            let row = Row {
                stmts: prog.num_statements(),
                arrays: prog.arrays.len(),
                par_loops: prog.parallel_loops().len(),
                fj_static: fj_plan.static_stats(),
                opt_static: opt_plan.static_stats(),
                fj: dyn_counts(prog, &bind, &fj_plan),
                merged: dyn_counts(prog, &bind, &all_barriers(&opt_plan)),
                elim: dyn_counts(prog, &bind, &barrierize(&opt_plan)),
                opt: dyn_counts(prog, &bind, &opt_plan),
                def,
            };
            let name = row.def.name;
            assert!(
                row.opt.barriers <= row.fj.barriers,
                "{name}: optimized executes more barriers than fork-join"
            );
            assert!(
                row.merged.barriers >= row.fj.barriers,
                "{name}: region merging alone removed a barrier"
            );
            assert!(
                row.elim.barriers >= row.opt.barriers,
                "{name}: eliminate only executes fewer barriers than the full optimizer"
            );
            row
        })
        .collect()
}

fn table1(rows: &[Row]) -> String {
    let mut t = Table::new(&[
        "program",
        "stands in for",
        "stmts",
        "arrays",
        "par loops",
        "regions (opt)",
        "expected",
    ]);
    for r in rows {
        t.row(vec![
            r.def.name.to_string(),
            r.def.stands_in_for.to_string(),
            r.stmts.to_string(),
            r.arrays.to_string(),
            r.par_loops.to_string(),
            r.opt_static.regions.to_string(),
            format!("{:?}", r.def.expect),
        ]);
    }
    format!(
        "Table 1: benchmark characteristics (P = {NPROCS}, Small scale)\n\n{}",
        t.render()
    )
}

fn table2(rows: &[Row]) -> String {
    let mut t = Table::new(&[
        "program",
        "barriers (base)",
        "barriers (opt)",
        "eliminated",
        "neighbor",
        "counter",
        "pairwise",
        "% barriers removed",
    ]);
    let (mut sum_base, mut sum_opt) = (0u64, 0u64);
    for r in rows {
        let (base, opt) = (&r.fj_static, &r.opt_static);
        sum_base += base.barriers as u64;
        sum_opt += opt.barriers as u64;
        t.row(vec![
            r.def.name.to_string(),
            base.barriers.to_string(),
            opt.barriers.to_string(),
            opt.eliminated.to_string(),
            opt.neighbor_syncs.to_string(),
            opt.counter_syncs.to_string(),
            opt.pair_syncs.to_string(),
            format!(
                "{:.0}%",
                pct_reduction(base.barriers as u64, opt.barriers as u64)
            ),
        ]);
    }
    format!(
        "Table 2: static synchronization (P = {NPROCS}, Small scale)\n\n{}\n\
         total static barriers: base {sum_base}, optimized {sum_opt} ({:.0}% removed)\n",
        t.render(),
        pct_reduction(sum_base, sum_opt)
    )
}

/// The headline result: dynamic barriers executed at run time. The
/// paper reports an average reduction of 29%, with several programs
/// improving by orders of magnitude.
fn table3(rows: &[Row]) -> String {
    let mut t = Table::new(&[
        "program",
        "barriers (base)",
        "barriers (opt)",
        "counters",
        "neighbor posts",
        "pair posts",
        "% barriers removed",
    ]);
    let mut sum_red = 0.0;
    for r in rows {
        let red = pct_reduction(r.fj.barriers, r.opt.barriers);
        sum_red += red;
        t.row(vec![
            r.def.name.to_string(),
            r.fj.barriers.to_string(),
            r.opt.barriers.to_string(),
            r.opt.counter_increments.to_string(),
            r.opt.neighbor_posts.to_string(),
            r.opt.pair_posts.to_string(),
            format!("{red:.1}%"),
        ]);
    }
    let mean = sum_red / rows.len() as f64;
    let sum_base: u64 = rows.iter().map(|r| r.fj.barriers).sum();
    let sum_opt: u64 = rows.iter().map(|r| r.opt.barriers).sum();
    format!(
        "Table 3: dynamic barriers executed (P = {NPROCS}, Small scale)\n\n{}\n\
         mean per-program barrier reduction: {mean:.1}%  (paper: 29% average)\n\
         aggregate barrier reduction: {:.1}%  ({sum_base} -> {sum_opt})\n",
        t.render(),
        pct_reduction(sum_base, sum_opt)
    )
}

/// Ablation A2: what each stage of the optimizer buys, in dynamic
/// barriers.
fn ablation_greedy(rows: &[Row]) -> String {
    let mut t = Table::new(&[
        "program",
        "fork-join",
        "merge only",
        "eliminate only",
        "full optimizer",
        "% removed by merge",
        "% removed total",
    ]);
    for r in rows {
        t.row(vec![
            r.def.name.to_string(),
            r.fj.barriers.to_string(),
            r.merged.barriers.to_string(),
            r.elim.barriers.to_string(),
            r.opt.barriers.to_string(),
            format!("{:.0}%", pct_reduction(r.fj.barriers, r.merged.barriers)),
            format!("{:.0}%", pct_reduction(r.fj.barriers, r.opt.barriers)),
        ]);
    }
    let sum = |f: fn(&Row) -> u64| rows.iter().map(f).sum::<u64>();
    let (fj, merged, elim, opt) = (
        sum(|r| r.fj.barriers),
        sum(|r| r.merged.barriers),
        sum(|r| r.elim.barriers),
        sum(|r| r.opt.barriers),
    );
    format!(
        "Ablation: contribution of each optimizer stage (P = {NPROCS}, dynamic barriers)\n\n{}\n\
         merge only: every slot of the optimized plan a barrier; eliminate only:\n\
         every sync the optimizer kept a barrier.\n\
         total: fork-join {fj} -> merge only {merged} -> eliminate only {elim} -> full {opt}\n\
         elimination alone removes {:.1}% of the fork-join barriers, the full optimizer\n\
         {:.1}%: replacement does the rest.\n\
         Checked on every row: merge only >= fork-join >= full, eliminate only >= full.\n",
        t.render(),
        pct_reduction(fj, elim),
        pct_reduction(fj, opt)
    )
}

/// Ablation A3: LU with block, cyclic and block-cyclic column
/// distributions. Block columns keep the trailing update local longer
/// but serialize the tail; cyclic balances load but every step
/// communicates; block-cyclic interpolates.
fn ablation_dist() -> String {
    let dists = [
        ("block", "block@1"),
        ("cyclic", "cyclic@1"),
        ("cyclic(2)", "cyclic(2)@1"),
        ("cyclic(4)", "cyclic(4)@1"),
    ];
    let mut t = Table::new(&[
        "distribution",
        "barriers base",
        "barriers opt",
        "counters",
        "% barriers removed",
    ]);
    let mut first_shape = None;
    for (label, dist) in dists {
        let built = suite::lu_with_dist(Scale::Small, dist);
        let (prog, bind) = (&built.prog, built.bindings(NPROCS));
        let base = dyn_counts(prog, &bind, &spmd_opt::fork_join(prog, &bind));
        let plan = spmd_opt::optimize(prog, &bind);
        let opt = dyn_counts(prog, &bind, &plan);
        let oracle = Mem::new(prog, &bind);
        run_sequential(prog, &bind, &oracle);
        let mem = Mem::new(prog, &bind);
        run_virtual(prog, &bind, &plan, &mem, ScheduleOrder::Reverse);
        assert!(mem.max_abs_diff(&oracle) < 1e-9, "{label} diverged");
        assert!(
            opt.counter_increments > 0,
            "{label}: the counter broadcast is gone"
        );
        let shape = (opt.barriers, opt.counter_increments);
        assert_eq!(
            *first_shape.get_or_insert(shape),
            shape,
            "{label}: the schedule shape depends on the distribution"
        );
        t.row(vec![
            label.to_string(),
            base.barriers.to_string(),
            opt.barriers.to_string(),
            opt.counter_increments.to_string(),
            format!("{:.0}%", pct_reduction(base.barriers, opt.barriers)),
        ]);
    }
    format!(
        "Ablation: LU column distribution vs synchronization (P = {NPROCS})\n\n{}\n\
         Expected shape: every distribution keeps the counter broadcast; the\n\
         optimizer's reductions are distribution-robust (same schedule shape).\n",
        t.render()
    )
}

/// Ablation A4: strip each placed sync alone and look for a diverging
/// adversarial interleaving and for a race the vector-clock validator
/// finds; then the interior syncs the validator proves removable
/// together (the helper `tests/necessity.rs` holds to its allow-list),
/// and the collectors stripped on their own at the width where the
/// suite has one.
fn ablation_necessity() -> String {
    let nprocs = 4;
    let mut out = format!(
        "Ablation: how many placed syncs are demonstrably necessary? (P = {nprocs}, Test scale)\n\n\
         A sync is counted necessary when stripping it makes some of 6 adversarial\n\
         virtual orders diverge from the sequential semantics. Syncs not caught are\n\
         either schedule-lucky or genuinely conservative placements; the validator\n\
         column counts the strips that leave a race whatever the order.\n\n"
    );
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
    out += &t.render();
    out += "\nInterior syncs that can be stripped together without a race (implied by their\n\
            neighbors), P = 2, 3, 4, 8:\n";
    let mut none = true;
    for def in suite::all() {
        for nprocs in [2, 3, 4, 8] {
            let (built, bind) = instance(&def, Scale::Test, nprocs);
            let plan = spmd_opt::optimize(&built.prog, &bind);
            for site in oracle::implied_syncs(&built.prog, &bind, &plan) {
                writeln!(out, "  {} P={nprocs}: {}", def.name, site.desc).unwrap();
                none = false;
            }
        }
    }
    if none {
        out += "  none\n";
    }

    // No plan of the suite has a collector at four processors; at eight
    // strip the gather alone — every post and every other wait stays.
    out += "\nCollectors (P = 8, Test scale), the gather alone stripped:\n";
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
            writeln!(
                out,
                "  {}: {}: {}, {}",
                def.name,
                site.desc,
                if diverged {
                    "diverges"
                } else {
                    "no divergence"
                },
                if races { "races" } else { "race-free" }
            )
            .unwrap();
        }
    }
    out
}

/// The paper's code-transformation figures: source, fork-join schedule,
/// optimized SPMD schedule and greedy decisions for a stencil
/// (`jacobi2d`), a pipeline (`adi`) and a broadcast (`lu`) kernel.
fn fig_example() -> String {
    let mut out = String::new();
    for name in ["jacobi2d", "adi", "lu"] {
        let def = suite::by_name(name).expect("kernel exists");
        let (built, bind) = instance(&def, Scale::Test, 4);
        let prog = &built.prog;
        let rule = "=".repeat(66);
        writeln!(out, "{rule}\n{} — {}\n{rule}\n", def.name, def.desc).unwrap();
        writeln!(out, "--- source ---\n{}", ir::pretty::pretty(prog)).unwrap();
        let fj = spmd_opt::fork_join(prog, &bind);
        writeln!(
            out,
            "--- fork-join schedule ---\n{}",
            render_plan(prog, &fj)
        )
        .unwrap();
        let (opt, log) = spmd_opt::optimize_logged(prog, &bind);
        writeln!(
            out,
            "--- optimized SPMD schedule ---\n{}",
            render_plan(prog, &opt)
        )
        .unwrap();
        out += "--- greedy decisions ---\n";
        for d in log {
            writeln!(
                out,
                "  s{:<3} {:<28} placed: {:<14} {}",
                d.site,
                d.label,
                d.placed_str(),
                d.reason
            )
            .unwrap();
        }
        out += "\n";
    }
    out
}

fn main() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let rows = rows();
    // Everything is computed, and every shape asserted, before the first write.
    let files = [
        ("table1.txt", table1(&rows)),
        ("table2.txt", table2(&rows)),
        ("table3.txt", table3(&rows)),
        ("ablation_greedy.txt", ablation_greedy(&rows)),
        ("ablation_dist.txt", ablation_dist()),
        ("ablation_necessity.txt", ablation_necessity()),
        ("fig_example.txt", fig_example()),
    ];
    for (name, text) in files {
        std::fs::write(dir.join(name), text).unwrap_or_else(|e| panic!("results/{name}: {e}"));
        println!("wrote results/{name}");
    }
}
