//! The virtual-processor simulator.
//!
//! Executes a schedule with `P` logical processors on one thread, by
//! interleaving their walks in any order the placed synchronization
//! permits: the single-threaded driver of the sync rule the cursor
//! states and the real-thread executor follows. Because the
//! interleaving policy is explicit and adversarial orders are
//! available, this doubles as a soundness oracle for the optimizer: a
//! missing synchronization lets some legal order produce results that
//! differ from the sequential semantics.

use crate::events::{Cursor, DynCounts, Event, Schedule, Step, SyncStep};
use crate::kernel::Worker;
use crate::mem::Mem;
use analysis::Bindings;
use ir::Program;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spmd_opt::SpmdProgram;

/// How the simulator picks the next virtual processor to advance.
#[derive(Clone, Copy, Debug)]
pub enum ScheduleOrder {
    /// Cycle 0, 1, …, P-1 — the "natural" order.
    RoundRobin,
    /// Cycle P-1, …, 0 — adversarial for forward-flowing dependences.
    Reverse,
    /// Seeded random choices — adversarial for everything on average.
    Random(u64),
}

/// The result of a virtual run.
#[derive(Clone, Copy, Debug)]
pub struct VirtualOutcome {
    /// Dynamic synchronization counts of the walk.
    pub counts: DynCounts,
}

/// One virtual processor: its cursor, its kernel executor, and the
/// step it has arrived at (`None` once its walk is over).
struct Proc<'a> {
    cur: Cursor<'a>,
    worker: Worker<'a>,
    at: Option<Step>,
}

/// Can processor `pid` cross the step it has arrived at? The rule the
/// real-thread executor follows, on the counts each processor's cursor
/// holds: a processor has posted its cell ([`Cursor::posted`]) and
/// arrived at its barriers on arrival, and the master dispatches when
/// it crosses.
fn can_cross(procs: &[Proc], pid: usize) -> bool {
    let me = &procs[pid];
    let Some(step) = &me.at else {
        return false;
    };
    let here = |p: &Proc| p.cur.counts();
    match step.event {
        Event::Work { .. } => true,
        // Workers wait until the master has crossed this dispatch.
        Event::Dispatch => {
            let master = &procs[0];
            let arrived = matches!(master.at.map(|s| s.event), Some(Event::Dispatch));
            pid == 0 || here(master).dispatches - arrived as u64 >= here(me).dispatches
        }
        Event::Sync { op, .. } => match op {
            SyncStep::Barrier => procs.iter().all(|p| here(p).barriers >= here(me).barriers),
            // Crossable once every processor waited on has posted at
            // this step — the wavefront release condition.
            SyncStep::Cells { .. } => me.cur.waits(pid).all(|(q, n)| procs[q].cur.posted(q) >= n),
        },
    }
}

/// Run the schedule with `nprocs` virtual processors in the given
/// interleaving order. Panics on deadlock (which would indicate a bug in
/// the scheduler or simulator, not a property of valid plans).
pub fn run_virtual(
    prog: &Program,
    bind: &Bindings,
    plan: &SpmdProgram,
    mem: &Mem,
    order: ScheduleOrder,
) -> VirtualOutcome {
    run_virtual_impl(prog, bind, plan, mem, order, None)
}

/// As [`run_virtual`], additionally building a timeline on a logical
/// clock: every scheduler step is one microsecond, each executed step
/// is a one-tick span, and a sync crossed after blocking spans the whole
/// interval from the processor's arrival at the sync to its crossing —
/// so the trace shows exactly which processors a barrier convoyed under
/// this interleaving.
pub fn run_virtual_traced(
    prog: &Program,
    bind: &Bindings,
    plan: &SpmdProgram,
    mem: &Mem,
    order: ScheduleOrder,
) -> (VirtualOutcome, Vec<obs::Span>) {
    let mut spans = Vec::new();
    let out = run_virtual_impl(prog, bind, plan, mem, order, Some(&mut spans));
    (out, spans)
}

fn run_virtual_impl(
    prog: &Program,
    bind: &Bindings,
    plan: &SpmdProgram,
    mem: &Mem,
    order: ScheduleOrder,
    mut spans: Option<&mut Vec<obs::Span>>,
) -> VirtualOutcome {
    let nprocs = bind.nprocs as usize;
    let sched = Schedule::new(prog, bind, plan);
    let mut procs: Vec<Proc> = (0..nprocs)
        .map(|pid| {
            let mut cur = sched.cursor();
            let at = cur.next();
            let worker = Worker::new(&sched, mem, pid);
            Proc { cur, worker, at }
        })
        .collect();
    let mut rng = match order {
        ScheduleOrder::Random(seed) => Some(StdRng::seed_from_u64(seed)),
        _ => None,
    };
    let mut turn = 0usize;
    // Logical clock: one scheduler step = 1µs. `arrived_at[pid]` is the
    // step at which the processor was first seen blocked at its current
    // step (None while running freely).
    let mut step = 0u64;
    let mut arrived_at: Vec<Option<u64>> = vec![None; nprocs];
    let mut walking = procs.iter().filter(|p| p.at.is_some()).count();
    while walking > 0 {
        if spans.is_some() {
            for (pid, p) in procs.iter().enumerate() {
                if p.at.is_some() && arrived_at[pid].is_none() && !can_cross(&procs, pid) {
                    arrived_at[pid] = Some(step);
                }
            }
        }
        // Pick a processor that can advance: scan all processors once,
        // starting from a policy-chosen point.
        let start = match order {
            ScheduleOrder::RoundRobin | ScheduleOrder::Reverse => turn,
            ScheduleOrder::Random(_) => rng.as_mut().unwrap().gen_range(0..nprocs),
        };
        let pick = (0..nprocs)
            .map(|k| match order {
                ScheduleOrder::Reverse => (nprocs - 1) - ((start + k) % nprocs),
                _ => (start + k) % nprocs,
            })
            .find(|&pid| can_cross(&procs, pid));
        let Some(pid) = pick else {
            for (q, p) in procs.iter().enumerate() {
                eprintln!("proc {q} at {:?}", p.at);
            }
            panic!("virtual schedule deadlocked (simulator bug)");
        };
        let p = &mut procs[pid];
        let event = p.at.expect("a processor that can cross is at a step").event;
        if let Event::Work { kernel } = event {
            p.worker.exec_work(kernel, &mut p.cur);
        }
        if let Some(buf) = spans.as_deref_mut() {
            let (name, cat) = crate::par::span_of(prog, &sched, event);
            buf.push(obs::Span {
                pid,
                name,
                cat,
                start_us: arrived_at[pid].take().unwrap_or(step),
                end_us: step + 1,
            });
        }
        p.at = p.cur.next();
        walking -= p.at.is_none() as usize;
        turn = turn.wrapping_add(1);
        step += 1;
    }
    VirtualOutcome {
        counts: procs[0].cur.counts(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::build::*;
    use spmd_opt::{fork_join, optimize, SyncOp};

    /// Build the jacobi time-sweep program.
    fn sweep(n_val: i64, steps: i64, nprocs: i64) -> (Program, Bindings) {
        let mut pb = ProgramBuilder::new("sweep");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let b = pb.array("B", &[sym(n)], dist_block());
        let _t = pb.begin_seq("t", con(0), con(steps - 1));
        let i = pb.begin_par("i", con(1), sym(n) - 2);
        pb.assign(
            elem(b, [idx(i)]),
            ex(0.5) * (arr(a, [idx(i) - 1]) + arr(a, [idx(i) + 1])),
        );
        pb.end();
        let j = pb.begin_par("j", con(1), sym(n) - 2);
        pb.assign(elem(a, [idx(j)]), arr(b, [idx(j)]));
        pb.end();
        pb.end();
        let prog = pb.finish();
        let bind = Bindings::new(nprocs).set(n, n_val);
        (prog, bind)
    }

    fn check_all_orders(prog: &Program, bind: &Bindings, plan: &spmd_opt::SpmdProgram) {
        // Sequential oracle.
        let oracle = Mem::new(prog, bind);
        oracle.fill(ir::ArrayId(0), |s| (s[0] % 7) as f64);
        crate::run_sequential(prog, bind, &oracle);

        for order in [
            ScheduleOrder::RoundRobin,
            ScheduleOrder::Reverse,
            ScheduleOrder::Random(1),
            ScheduleOrder::Random(42),
        ] {
            let mem = Mem::new(prog, bind);
            mem.fill(ir::ArrayId(0), |s| (s[0] % 7) as f64);
            run_virtual(prog, bind, plan, &mem, order);
            assert_eq!(
                mem.max_abs_diff(&oracle),
                0.0,
                "virtual execution diverged under {order:?}"
            );
        }
    }

    #[test]
    fn optimized_sweep_is_correct_under_adversarial_orders() {
        let (prog, bind) = sweep(32, 5, 4);
        let plan = optimize(&prog, &bind);
        check_all_orders(&prog, &bind, &plan);
    }

    #[test]
    fn fork_join_sweep_is_correct() {
        let (prog, bind) = sweep(32, 5, 4);
        let plan = fork_join(&prog, &bind);
        check_all_orders(&prog, &bind, &plan);
    }

    #[test]
    fn optimized_counts_far_fewer_barriers() {
        let (prog, bind) = sweep(32, 50, 4);
        let mem_a = Mem::new(&prog, &bind);
        let fj = run_virtual(
            &prog,
            &bind,
            &fork_join(&prog, &bind),
            &mem_a,
            ScheduleOrder::RoundRobin,
        );
        let mem_b = Mem::new(&prog, &bind);
        let opt = run_virtual(
            &prog,
            &bind,
            &optimize(&prog, &bind),
            &mem_b,
            ScheduleOrder::RoundRobin,
        );
        assert_eq!(fj.counts.barriers, 100);
        assert_eq!(opt.counts.barriers, 1);
        assert!(opt.counts.neighbor_posts > 0);
    }

    #[test]
    fn traced_run_matches_untraced_and_spans_are_well_formed() {
        let (prog, bind) = sweep(16, 3, 4);
        let plan = optimize(&prog, &bind);
        let mem = Mem::new(&prog, &bind);
        let (out, spans) = run_virtual_traced(&prog, &bind, &plan, &mem, ScheduleOrder::Reverse);
        let mem2 = Mem::new(&prog, &bind);
        let plain = run_virtual(&prog, &bind, &plan, &mem2, ScheduleOrder::Reverse);
        assert_eq!(out.counts, plain.counts);
        assert!(!spans.is_empty());
        // Every processor has work spans, spans never run backwards, and a
        // processor's spans are disjoint in logical time.
        for pid in 0..4 {
            let mine: Vec<_> = spans.iter().filter(|s| s.pid == pid).collect();
            assert!(mine.iter().any(|s| matches!(s.cat, obs::SpanCat::Work)));
            let mut last_end = 0;
            for s in &mine {
                assert!(s.start_us < s.end_us, "empty or inverted span {s:?}");
                assert!(s.start_us >= last_end, "overlapping spans on proc {pid}");
                last_end = s.end_us;
            }
        }
    }

    /// Deliberately broken plan: removing a needed neighbor sync must be
    /// caught by some adversarial order.
    #[test]
    fn missing_sync_is_detected_by_adversarial_order() {
        let (prog, bind) = sweep(32, 5, 4);
        let mut plan = optimize(&prog, &bind);
        // Strip every non-barrier sync from the plan.
        spmd_opt::for_each_slot_mut(&mut plan, |s| {
            if !s.op.is_barrier() {
                *s.op = SyncOp::None;
            }
        });
        let oracle = Mem::new(&prog, &bind);
        oracle.fill(ir::ArrayId(0), |s| (s[0] % 7) as f64);
        crate::run_sequential(&prog, &bind, &oracle);

        let mut diverged = false;
        for order in [ScheduleOrder::Reverse, ScheduleOrder::Random(3)] {
            let mem = Mem::new(&prog, &bind);
            mem.fill(ir::ArrayId(0), |s| (s[0] % 7) as f64);
            run_virtual(&prog, &bind, &plan, &mem, order);
            if mem.max_abs_diff(&oracle) != 0.0 {
                diverged = true;
            }
        }
        assert!(
            diverged,
            "stripping required synchronization should corrupt some order"
        );
    }
}
