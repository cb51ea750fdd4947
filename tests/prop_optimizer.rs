//! Property test: the optimizer is sound on *random* affine programs.
//!
//! A generated program is a time loop around a sequence of parallel
//! loops; each loop writes one array with an affine subscript and reads
//! other arrays at random offsets, under random distributions. By
//! construction no `DOALL` carries a dependence (a loop never reads the
//! array it writes), which `check_parallel_loops` re-verifies. The
//! optimized schedule must reproduce the sequential semantics under
//! adversarial virtual interleavings for every generated program.

use barrier_elim::analysis::check_parallel_loops;
use barrier_elim::interp::{run_sequential, run_virtual, Mem, ScheduleOrder};
use barrier_elim::ir::build::*;
use barrier_elim::ir::Program;
use barrier_elim::spmd_opt::optimize;
use barrier_elim::suite::Built;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct LoopSpec {
    /// Which array (mod #arrays) the loop writes.
    writes: u8,
    /// Subscript offset of the write.
    woff: i8,
    /// (array, offset) pairs read.
    reads: Vec<(u8, i8)>,
}

#[derive(Debug, Clone)]
struct ProgSpec {
    narrays: u8,
    dists: Vec<u8>,
    loops: Vec<LoopSpec>,
    timesteps: u8,
}

fn spec_strategy() -> impl Strategy<Value = ProgSpec> {
    let loop_spec = (
        0u8..4,
        -2i8..=2,
        proptest::collection::vec((0u8..4, -2i8..=2), 1..3),
    )
        .prop_map(|(writes, woff, reads)| LoopSpec {
            writes,
            woff,
            reads,
        });
    (
        2u8..4,
        proptest::collection::vec(0u8..3, 4),
        proptest::collection::vec(loop_spec, 1..5),
        1u8..4,
    )
        .prop_map(|(narrays, dists, loops, timesteps)| ProgSpec {
            narrays,
            dists,
            loops,
            timesteps,
        })
}

/// Materialize a spec as a program (returns `None` for degenerate specs
/// where a loop would read the array it writes).
fn build_program(spec: &ProgSpec) -> Option<Built> {
    let na = spec.narrays as usize;
    let mut pb = ProgramBuilder::new("random");
    let n = pb.sym("n");
    let arrays: Vec<_> = (0..na)
        .map(|k| {
            let dist = match spec.dists[k] {
                0 => dist_block(),
                1 => dist_cyclic(),
                _ => dist_repl(),
            };
            // Pad the extent so offsets in [-2, 2] stay in bounds.
            pb.array(format!("A{k}"), &[sym(n) + 4], dist)
        })
        .collect();

    // Deterministic init.
    let i0 = pb.begin_par("i0", con(0), sym(n) + 3);
    for (k, &a) in arrays.iter().enumerate() {
        pb.assign(elem(a, [idx(i0)]), ival(idx(i0) * (2 * k as i64 + 3)).sin());
    }
    pb.end();

    let _t = pb.begin_seq("t", con(0), con(spec.timesteps as i64 - 1));
    for (k, l) in spec.loops.iter().enumerate() {
        let w = arrays[l.writes as usize % na];
        let i = pb.begin_par(&format!("i{}", k + 1), con(2), sym(n) + 1);
        let mut rhs = ex(0.1);
        let mut has_read = false;
        for &(r, off) in &l.reads {
            let ra = arrays[r as usize % na];
            if ra == w {
                continue; // would carry a dependence inside the DOALL
            }
            has_read = true;
            rhs = rhs + arr(ra, [idx(i) + off as i64]) * ex(0.4);
        }
        if !has_read {
            rhs = rhs + ival(idx(i)).cos();
        }
        pb.assign(elem(w, [idx(i) + l.woff as i64]), rhs);
        pb.end();
    }
    pb.end();

    Some(Built {
        prog: pb.finish(),
        values: vec![(n, 24)],
    })
}

fn exercise(prog: &Program, built: &Built, nprocs: i64) {
    let bind = built.bindings(nprocs);
    // Generated loops must really be parallel.
    assert!(
        check_parallel_loops(prog, &bind).is_empty(),
        "generator produced an invalid DOALL"
    );
    let oracle = Mem::new(prog, &bind);
    run_sequential(prog, &bind, &oracle);
    let plan = optimize(prog, &bind);
    for order in [
        ScheduleOrder::RoundRobin,
        ScheduleOrder::Reverse,
        ScheduleOrder::Random(99),
    ] {
        let mem = Mem::new(prog, &bind);
        run_virtual(prog, &bind, &plan, &mem, order);
        let diff = mem.max_abs_diff(&oracle);
        assert!(
            diff == 0.0,
            "optimized schedule diverged by {diff:e} under {order:?} (P={nprocs})\n{}",
            barrier_elim::ir::pretty::pretty(prog)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn optimizer_is_sound_on_random_affine_programs(spec in spec_strategy()) {
        if let Some(built) = build_program(&spec) {
            let prog = built.prog.clone();
            for nprocs in [2i64, 4, 5] {
                exercise(&prog, &built, nprocs);
            }
        }
    }

    /// The optimizer never *increases* the dynamic barrier count by more
    /// than the merged bottom barriers (monotonicity sanity).
    #[test]
    fn optimizer_reduces_or_matches_barriers(spec in spec_strategy()) {
        if let Some(built) = build_program(&spec) {
            let bind = built.bindings(4);
            let mem1 = Mem::new(&built.prog, &bind);
            let base = run_virtual(
                &built.prog, &bind,
                &barrier_elim::spmd_opt::fork_join(&built.prog, &bind),
                &mem1, ScheduleOrder::RoundRobin,
            );
            let mem2 = Mem::new(&built.prog, &bind);
            let opt = run_virtual(
                &built.prog, &bind,
                &optimize(&built.prog, &bind),
                &mem2, ScheduleOrder::RoundRobin,
            );
            // Region merging may introduce one bottom barrier per time
            // loop, but never more than the baseline plus that.
            prop_assert!(
                opt.counts.barriers <= base.counts.barriers + spec.timesteps as u64,
                "opt {} vs base {}",
                opt.counts.barriers, base.counts.barriers
            );
        }
    }

    /// The optimizer never increases the number of dynamic sync points
    /// vs the fork-join baseline on the oracle's generated programs
    /// (which, unlike the specs above, include pipelines, broadcasts,
    /// and guarded serial sections). A sync point is one dispatch, one
    /// barrier episode, one counter increment, or one all-processor
    /// neighbor post round (`posts / P` — every processor posts exactly
    /// once per neighbor sync point).
    #[test]
    fn optimizer_never_adds_dynamic_sync_points(seed in 0u64..u64::MAX) {
        let g = barrier_elim::oracle::generate(seed);
        for nprocs in [1u64, 3, 4, 8] {
            let bind = g.bindings(nprocs as i64);
            let sync_points = |plan| {
                let mem = Mem::new(&g.prog, &bind);
                let c = run_virtual(&g.prog, &bind, &plan, &mem, ScheduleOrder::RoundRobin)
                    .counts;
                assert_eq!(c.neighbor_posts % nprocs, 0);
                c.dispatches + c.barriers + c.counter_increments + c.neighbor_posts / nprocs
            };
            let base = sync_points(barrier_elim::spmd_opt::fork_join(&g.prog, &bind));
            let opt = sync_points(optimize(&g.prog, &bind));
            prop_assert!(
                opt <= base,
                "seed {seed} ({:?}, P={nprocs}): optimized {opt} sync points vs fork-join {base}",
                g.shape
            );
        }
    }

    /// Sink-anchored producers on random `lu`/`workvec`-like programs
    /// (block, cyclic and block-cyclic rows or columns; sizes rarely a
    /// multiple of P; 0, 1, 2 or more steps, up to one past the last
    /// pivot so the last bottom's producer owns a row outside the
    /// array): race-free, and bitwise equal to the sequential run under
    /// adversarial orders.
    #[test]
    fn sink_anchored_counters_are_sound_on_random_broadcasts(seed in 0u64..u64::MAX) {
        use barrier_elim::oracle::{generate_shape, validate, Shape};
        let g = generate_shape(Shape::SinkBroadcast, seed);
        let built = Built { prog: g.prog, values: g.values };
        for nprocs in [2i64, 3, 5, 8, 16] {
            let bind = built.bindings(nprocs);
            let report = validate(&built.prog, &bind, &optimize(&built.prog, &bind));
            prop_assert!(
                report.is_race_free(),
                "seed {seed} P={nprocs}: {} racing pairs, first: {:?}",
                report.num_racing_pairs,
                report.races.first()
            );
            exercise(&built.prog, &built, nprocs);
        }
    }
}
