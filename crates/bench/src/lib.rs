//! Shared infrastructure for `reproduce`, which writes every file in
//! `results/` (see `DESIGN.md` for the experiment index), and for the
//! criterion benches: plan transforms for the ablations, dynamic-count
//! collection, suite instances, and plain-text table rendering.

use analysis::Bindings;
use interp::{run_virtual, Mem, ScheduleOrder};
use ir::Program;
use spmd_opt::{for_each_slot_mut, SpmdProgram, SyncOp};
use suite::{Built, Scale};

/// Replace every non-barrier synchronization in the plan with a full
/// barrier (keeping the region structure). Always sound — the greedy
/// ablation's "eliminate only" column, which separates what elimination
/// removes from what replacement by counters and flags removes.
pub fn barrierize(plan: &SpmdProgram) -> SpmdProgram {
    let mut out = plan.clone();
    for_each_slot_mut(&mut out, |s| {
        if s.op.is_some() {
            *s.op = SyncOp::Barrier;
        }
    });
    out
}

/// Turn every synchronization slot of the plan into a barrier, including
/// the eliminated ones — "region merging without any elimination", the
/// most conservative SPMD schedule. Used by the greedy ablation. The
/// slot after a level's last item is left as it is: the bottom or end
/// barrier that follows does its job.
pub fn all_barriers(plan: &SpmdProgram) -> SpmdProgram {
    let mut out = plan.clone();
    for_each_slot_mut(&mut out, |s| {
        if !s.tail {
            *s.op = SyncOp::Barrier;
        }
    });
    out
}

/// Dynamic counts of a plan under virtual execution (deterministic for
/// any processor count).
pub fn dyn_counts(
    prog: &Program,
    bind: &Bindings,
    plan: &SpmdProgram,
) -> interp::events::DynCounts {
    let mem = Mem::new(prog, bind);
    run_virtual(prog, bind, plan, &mem, ScheduleOrder::RoundRobin).counts
}

/// Build a benchmark instance with bindings.
pub fn instance(def: &suite::BenchDef, scale: Scale, nprocs: i64) -> (Built, Bindings) {
    let built = (def.build)(scale);
    let bind = built.bindings(nprocs);
    (built, bind)
}

/// Minimal fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Render with padded columns.
    pub fn render(&self) -> String {
        let ncol = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (k, c) in r.iter().enumerate() {
                widths[k] = widths[k].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (k, c) in cells.iter().enumerate() {
                if k > 0 {
                    out.push_str("  ");
                }
                out.push_str(c);
                for _ in c.len()..widths[k] {
                    out.push(' ');
                }
            }
            out.push('\n');
        };
        line(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncol - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for r in &self.rows {
            line(&mut out, r);
        }
        out
    }
}

/// Percentage reduction from `base` to `opt` (0 when base is 0),
/// negative when `opt` is the larger: an increase must print as one.
pub fn pct_reduction(base: u64, opt: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        100.0 * (base as f64 - opt as f64) / base as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suite::Scale;

    #[test]
    fn barrierize_and_all_barriers_remain_correct() {
        let def = suite::by_name("jacobi2d").unwrap();
        let (built, bind) = instance(&def, Scale::Test, 4);
        let opt = spmd_opt::optimize(&built.prog, &bind);
        let oracle = Mem::new(&built.prog, &bind);
        interp::run_sequential(&built.prog, &bind, &oracle);
        for plan in [barrierize(&opt), all_barriers(&opt)] {
            let mem = Mem::new(&built.prog, &bind);
            run_virtual(&built.prog, &bind, &plan, &mem, ScheduleOrder::Reverse);
            assert!(mem.max_abs_diff(&oracle) < 1e-12);
        }
    }

    #[test]
    fn ablation_plans_order_by_barrier_count() {
        let def = suite::by_name("jacobi2d").unwrap();
        let (built, bind) = instance(&def, Scale::Test, 4);
        let opt = spmd_opt::optimize(&built.prog, &bind);
        let c_opt = dyn_counts(&built.prog, &bind, &opt);
        let c_bar = dyn_counts(&built.prog, &bind, &barrierize(&opt));
        let c_all = dyn_counts(&built.prog, &bind, &all_barriers(&opt));
        assert!(c_opt.barriers <= c_bar.barriers);
        assert!(c_bar.barriers <= c_all.barriers);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["xxx".into(), "1".into()]);
        let s = t.render();
        assert!(s.contains("a    bb"));
        assert!(s.contains("xxx  1"));
    }

    #[test]
    fn pct_reduction_handles_zero() {
        assert_eq!(pct_reduction(0, 0), 0.0);
        assert_eq!(pct_reduction(100, 71), 29.0);
        assert_eq!(pct_reduction(20, 21), -5.0);
    }
}
