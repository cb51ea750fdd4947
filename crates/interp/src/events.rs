//! Unrolling a schedule into a linear event list.
//!
//! Every processor traverses the *same* event sequence (replicated
//! control flow — the SPMD model). [`unroll`] runs once per
//! `(program, bindings, plan)`: it lowers each phase subtree into a
//! kernel ([`crate::kernel`]), resolves every sync's producer, and
//! emits compact `Copy` events that refer to both by index. The
//! enclosing sequential-loop indices of an event are a chain of
//! [`Frame`]s shared by all events of one loop iteration.

use crate::eval::Env;
use crate::kernel::{Code, Lowerer};
use analysis::{Bindings, CommPattern, DistSet, ProducerSpec};
use ir::{LoopId, NodeId, Program};
use runtime::SyncKind;
use spmd_opt::{
    counter_numbers, slot_count_items, slot_count_top, RItem, SpmdProgram, SyncOp, TopItem,
};
use std::ops::Deref;

/// "No enclosing loop" in [`Event`] frames and [`Frame::parent`].
pub(crate) const NO_FRAME: u32 = u32::MAX;

/// One binding `loop index = val` of an unrolled sequential loop; the
/// chain through `parent` gives every enclosing index.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Frame {
    pub(crate) parent: u32,
    /// The loop (`LoopId`, which is also its slot in a worker).
    pub(crate) slot: u32,
    pub(crate) val: i64,
}

/// A synchronization point with its producers resolved for the loop
/// iteration it sits in (an eliminated slot emits no event).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SyncStep {
    /// A full team barrier.
    Barrier,
    /// Per-processor cells: whoever may be waited for posts, then each
    /// processor waits on [`Schedule::pair_targets`] — `pid - d` for
    /// every distance, every producer and, as a collector, every other
    /// processor.
    Cells {
        /// Processor distances to wait on.
        dists: DistSet,
        /// The identifiable-producer targets
        /// ([`Schedule::producers`]).
        producers: Producers,
        /// The processors that wait for everyone
        /// ([`Schedule::producers`]).
        collectors: Producers,
        /// The label measurements are filed under: neighbor, counter or
        /// pairwise.
        kind: SyncKind,
    },
}

impl SyncStep {
    /// Does every processor post at this step? Where all a wait set
    /// names is producers, nobody can wait on anyone else and only they
    /// post — once per naming.
    pub fn all_post(&self) -> bool {
        match self {
            SyncStep::Barrier => false,
            SyncStep::Cells {
                dists, collectors, ..
            } => !dists.is_empty() || collectors.len > 0,
        }
    }
}

/// A run of resolved producer or collector pids in a [`Schedule`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Producers {
    start: u32,
    len: u32,
}

/// One step of the SPMD event sequence.
#[derive(Clone, Copy, Debug)]
pub enum Event {
    /// Work: a phase (distributed, master or replicated) or a
    /// master-only serial statement outside regions.
    Work {
        /// The subtree's lowered kernel.
        kernel: u32,
        /// Enclosing loop indices.
        frame: u32,
    },
    /// Region entry: workers wait for the master's arrival.
    Dispatch,
    /// A synchronization point.
    Sync {
        /// The operation.
        op: SyncStep,
        /// Canonical sync-site id (the plan's slot-walk numbering —
        /// see [`spmd_opt::sync_sites`]); loop iterations of the same
        /// slot share one id, so runtime telemetry aggregates per
        /// static site.
        site: u32,
        /// Enclosing loop indices.
        frame: u32,
    },
}

impl Event {
    /// True for the events a [`Worker`](crate::Worker) executes.
    pub fn is_work(&self) -> bool {
        matches!(self, Event::Work { .. })
    }
}

/// An unrolled plan: the event sequence every processor traverses
/// (`Deref`s to `[Event]`) plus the tables its events index — lowered
/// kernels, loop-index frames, resolved producers.
pub struct Schedule {
    events: Vec<Event>,
    frames: Vec<Frame>,
    producers: Vec<usize>,
    code: Code,
    nprocs: i64,
    num_sites: usize,
    /// `counter #k` of the counter-labelled sites, by site id.
    counters: Vec<Option<usize>>,
}

impl Deref for Schedule {
    type Target = [Event];
    fn deref(&self) -> &[Event] {
        &self.events
    }
}

impl Schedule {
    /// The producer or collector pids of a [`SyncStep::Cells`].
    pub fn producers(&self, p: Producers) -> &[usize] {
        &self.producers[p.start as usize..(p.start + p.len) as usize]
    }

    /// The processors `pid` waits on at a [`SyncStep::Cells`]:
    /// `pid - d` for every distance in range, every other producer and,
    /// when `pid` is a collector, everybody else. A processor named
    /// twice is waited on twice, harmlessly.
    pub fn pair_targets(
        &self,
        pid: usize,
        dists: DistSet,
        producers: Producers,
        collectors: Producers,
    ) -> impl Iterator<Item = usize> + '_ {
        let nprocs = self.nprocs as usize;
        let in_team = move |q: i64| usize::try_from(q).ok().filter(|&q| q < nprocs);
        let by_dist = dists.iter().filter_map(move |d| in_team(pid as i64 - d));
        let by_producer = self.producers(producers).iter().copied();
        // Once round the team for every collector spec that names `pid`.
        let gathers = self.producers(collectors).iter();
        let gathers = gathers.filter(|&&c| c == pid).count();
        let as_collector = (0..gathers * nprocs).map(move |k| k % nprocs);
        by_dist
            .chain(by_producer)
            .chain(as_collector)
            .filter(move |&q| q != pid)
    }

    /// What a sync step is called, by its label: on a timeline
    /// (`neighbor`, `counter#0`, `pairwise{-2}`) and, with the
    /// processors it resolved to, in the event list
    /// (`neighbor(fwd=true,bwd=false)`, `counter#0<-P3`,
    /// `pair{-2}+1prod->P0`).
    pub(crate) fn step_names(&self, op: SyncStep, site: u32) -> (String, String) {
        let SyncStep::Cells {
            dists,
            producers,
            collectors,
            kind,
        } = op
        else {
            return ("barrier".into(), "barrier".into());
        };
        match kind {
            SyncKind::Neighbor => {
                let (fwd, bwd) = (dists.contains(1), dists.contains(-1));
                ("neighbor".into(), format!("neighbor(fwd={fwd},bwd={bwd})"))
            }
            SyncKind::Counter => {
                let id = self.counters[site as usize].expect("a counter site has its number");
                let name = format!("counter#{id}");
                let listed = format!("{name}<-P{}", self.producers(producers)[0]);
                (name, listed)
            }
            _ => {
                let mut listed = format!("pair{}", dists.render());
                if producers.len > 0 {
                    listed += &format!("+{}prod", producers.len);
                }
                for c in self.producers(collectors) {
                    listed += &format!("->P{c}");
                }
                (format!("pairwise{}", dists.render()), listed)
            }
        }
    }

    /// One past the largest sync-site id that emitted an event.
    pub fn num_sites(&self) -> usize {
        self.num_sites
    }

    /// How many consecutive iterations of each innermost loop in the
    /// plan's kernels are independent of one another, capped at the
    /// kernels' chunk size: what such a loop evaluates per statement
    /// dispatch when it advances by 1 (1: iteration by iteration). In
    /// lowering order.
    pub fn chunk_lengths(&self) -> Vec<usize> {
        self.code.chunk_lengths().collect()
    }

    /// The phase subtree a work event's kernel was lowered from.
    pub(crate) fn kernel_node(&self, kernel: u32) -> NodeId {
        self.code.kernels[kernel as usize].node
    }

    pub(crate) fn code(&self) -> &Code {
        &self.code
    }

    pub(crate) fn nprocs(&self) -> i64 {
        self.nprocs
    }

    pub(crate) fn frame(&self, f: u32) -> Frame {
        self.frames[f as usize]
    }

    /// The loop indices an event sits under, outermost first.
    fn env_of(&self, mut f: u32) -> Vec<(LoopId, i64)> {
        let mut out = Vec::new();
        while f != NO_FRAME {
            let fr = self.frame(f);
            out.push((LoopId(fr.slot), fr.val));
            f = fr.parent;
        }
        out.reverse();
        out
    }
}

/// Unroll a schedule into events under concrete bindings, lowering each
/// phase on first sight. Sequential loops at region level and master
/// loops are unrolled; loops inside phases are not.
pub fn unroll(prog: &Program, bind: &Bindings, plan: &SpmdProgram) -> Schedule {
    let mut u = Unroller {
        prog,
        bind,
        lower: Lowerer::new(prog, bind),
        kernel_of: vec![None; prog.nodes.len()],
        env: Env::new(prog, bind),
        frame: NO_FRAME,
        events: Vec::new(),
        frames: Vec::new(),
        producers: Vec::new(),
        num_sites: 0,
    };
    u.top(&plan.items, 0);
    Schedule {
        events: u.events,
        frames: u.frames,
        producers: u.producers,
        code: u.lower.finish(),
        nprocs: bind.nprocs,
        num_sites: u.num_sites,
        counters: counter_numbers(plan),
    }
}

struct Unroller<'a> {
    prog: &'a Program,
    bind: &'a Bindings,
    lower: Lowerer<'a>,
    /// The kernel of each phase / serial subtree already lowered.
    kernel_of: Vec<Option<u32>>,
    env: Env,
    frame: u32,
    events: Vec<Event>,
    frames: Vec<Frame>,
    producers: Vec<usize>,
    num_sites: usize,
}

impl Unroller<'_> {
    /// Run `body` once per iteration of the sequential loop at `node`,
    /// with the iteration's frame current, telling it whether the trip
    /// is the loop's last.
    fn each_iteration(&mut self, node: NodeId, mut body: impl FnMut(&mut Self, bool)) {
        let l = self.prog.expect_loop(node);
        let lo = self.env.eval(&l.lo);
        let hi = self.env.eval(&l.hi);
        let outer = self.frame;
        for i in lo..=hi {
            self.env.set(l.id, i);
            self.frame = self.frames.len() as u32;
            self.frames.push(Frame {
                parent: outer,
                slot: l.id.0,
                val: i,
            });
            body(self, i == hi);
        }
        self.env.clear(l.id);
        self.frame = outer;
    }

    fn kernel(&mut self, node: NodeId, kind: Option<&spmd_opt::PhaseKind>) -> u32 {
        if let Some(k) = self.kernel_of[node.0 as usize] {
            return k;
        }
        let env = &self.env;
        let bound = |l: LoopId| env.get(l).is_some();
        let k = self.lower.kernel(node, kind, &bound);
        self.kernel_of[node.0 as usize] = Some(k);
        k
    }

    /// Which processor a producer spec names under the current loop
    /// indices. The optimizer only names producers after loops that
    /// enclose the sync site, so every index is bound here.
    fn producer(&self, spec: &ProducerSpec) -> usize {
        match spec {
            ProducerSpec::Master => 0,
            ProducerSpec::Owner { map, sub, .. } => {
                let x = self
                    .env
                    .try_eval(sub)
                    .expect("producer subscript names a loop that does not enclose its sync site");
                map.owner(x, self.bind.nprocs) as usize
            }
        }
    }

    /// The processors `specs` name under the current loop indices,
    /// appended to the schedule's table.
    fn resolve(&mut self, specs: &[ProducerSpec]) -> Producers {
        let start = self.producers.len() as u32;
        for spec in specs {
            let pid = self.producer(spec);
            self.producers.push(pid);
        }
        Producers {
            start,
            len: specs.len() as u32,
        }
    }

    fn sync(&mut self, op: &SyncOp, site: usize) {
        let op = match op {
            SyncOp::None => return,
            SyncOp::Barrier => SyncStep::Barrier,
            SyncOp::Cells { waits } => SyncStep::Cells {
                dists: waits.dists,
                producers: self.resolve(&waits.producers),
                collectors: self.resolve(&waits.collectors),
                kind: match waits.class() {
                    CommPattern::Neighbor { .. } => SyncKind::Neighbor,
                    CommPattern::Producer1 => SyncKind::Counter,
                    _ => SyncKind::Pairwise,
                },
            },
        };
        self.num_sites = self.num_sites.max(site + 1);
        self.events.push(Event::Sync {
            op,
            site: site as u32,
            frame: self.frame,
        });
    }

    /// Unroll top-level items. `slot` is the canonical site id of the
    /// first slot under `items`; each master-loop iteration reuses the
    /// same static ids (the numbering is structural, mirroring
    /// [`spmd_opt::sync_sites`]). Returns the id past the last slot.
    fn top(&mut self, items: &[TopItem], mut slot: usize) -> usize {
        for it in items {
            match it {
                TopItem::SerialStmt(n) => {
                    let kernel = self.kernel(*n, None);
                    self.events.push(Event::Work {
                        kernel,
                        frame: self.frame,
                    });
                }
                TopItem::MasterLoop { node, body } => {
                    self.each_iteration(*node, |u, _| {
                        u.top(body, slot);
                    });
                    slot += slot_count_top(body);
                }
                TopItem::Region(r) => {
                    self.events.push(Event::Dispatch);
                    let end_site = self.items(&r.items, slot);
                    self.sync(&r.end, end_site);
                    slot = end_site + 1;
                }
            }
        }
        slot
    }

    /// Unroll region items starting at canonical site id `slot`;
    /// returns the id past the items' last slot.
    fn items(&mut self, items: &[RItem], mut slot: usize) -> usize {
        for it in items {
            match it {
                RItem::Phase(p) => {
                    let kernel = self.kernel(p.node, Some(&p.kind));
                    self.events.push(Event::Work {
                        kernel,
                        frame: self.frame,
                    });
                    self.sync(&p.after, slot);
                    slot += 1;
                }
                RItem::Seq {
                    node,
                    body,
                    bottom,
                    merge_last,
                    after,
                } => {
                    let bottom_site = slot + slot_count_items(body);
                    self.each_iteration(*node, |u, last| {
                        u.items(body, slot);
                        if !(*merge_last && last) {
                            u.sync(bottom, bottom_site);
                        }
                    });
                    self.sync(after, bottom_site + 1);
                    slot = bottom_site + 2;
                }
            }
        }
        slot
    }
}

/// Dynamic synchronization counts extracted from an event walk (shared
/// by both executors so their numbers agree by construction).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DynCounts {
    /// Region dispatches (fork-join startup broadcasts).
    pub dispatches: u64,
    /// Barrier episodes executed.
    pub barriers: u64,
    /// Counter increments executed.
    pub counter_increments: u64,
    /// Counter waits executed (consumers).
    pub counter_waits: u64,
    /// Neighbor posts executed.
    pub neighbor_posts: u64,
    /// Neighbor waits executed.
    pub neighbor_waits: u64,
    /// Pairwise posts executed.
    pub pair_posts: u64,
    /// Pairwise waits executed.
    pub pair_waits: u64,
}

impl DynCounts {
    /// Count the dynamic syncs a full traversal of `events` performs
    /// with `nprocs` processors.
    pub fn from_events(events: &[Event], nprocs: usize) -> DynCounts {
        let p = nprocs as u64;
        let mut c = DynCounts::default();
        for ev in events {
            match ev {
                Event::Dispatch => c.dispatches += 1,
                Event::Sync { op, .. } => match *op {
                    SyncStep::Barrier => c.barriers += 1,
                    SyncStep::Cells {
                        dists,
                        producers,
                        collectors,
                        kind,
                    } => {
                        let (posts, waits) = match kind {
                            SyncKind::Neighbor => (&mut c.neighbor_posts, &mut c.neighbor_waits),
                            SyncKind::Counter => (&mut c.counter_increments, &mut c.counter_waits),
                            _ => (&mut c.pair_posts, &mut c.pair_waits),
                        };
                        *posts += if op.all_post() {
                            p
                        } else {
                            producers.len as u64
                        };
                        for d in dists.iter() {
                            // Every pid whose `pid - d` is a real
                            // processor waits on it.
                            *waits += (p as i64 - d.abs()).max(0) as u64;
                        }
                        // Producer-target waits: every pid except the
                        // producer itself waits on it; a collector
                        // waits on every pid except itself.
                        *waits += (producers.len + collectors.len) as u64 * (p - 1);
                    }
                },
                Event::Work { .. } => {}
            }
        }
        c
    }
}

/// Render a schedule as one line per event (debugging aid; the
/// executors traverse exactly this sequence).
pub fn render_events(prog: &Program, sched: &Schedule) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let env_str = |frame: u32| -> String {
        let env = sched.env_of(frame);
        if env.is_empty() {
            String::new()
        } else {
            let parts: Vec<String> = env
                .iter()
                .map(|(l, v)| format!("{}={v}", prog.loop_name(*l)))
                .collect();
            format!(" [{}]", parts.join(", "))
        }
    };
    for (k, ev) in sched.iter().enumerate() {
        match *ev {
            Event::Dispatch => writeln!(out, "{k:4}  dispatch").unwrap(),
            Event::Work { kernel, frame } => {
                let kern = &sched.code.kernels[kernel as usize];
                let (what, n) = (kern.label, kern.node.0);
                writeln!(out, "{k:4}  {what} node {n}{}", env_str(frame)).unwrap()
            }
            Event::Sync { op, site, frame } => {
                let (_, s) = sched.step_names(op, site);
                writeln!(out, "{k:4}  sync s{site} {s}{}", env_str(frame)).unwrap()
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::Bindings;
    use ir::build::*;
    use spmd_opt::{fork_join, optimize};

    fn sweep() -> (Program, Bindings) {
        let mut pb = ProgramBuilder::new("sweep");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let b = pb.array("B", &[sym(n)], dist_block());
        let _t = pb.begin_seq("t", con(0), con(4));
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
        let bind = Bindings::new(4).set(n, 32);
        (prog, bind)
    }

    #[test]
    fn render_events_is_line_per_event() {
        let (prog, bind) = sweep();
        let plan = optimize(&prog, &bind);
        let events = unroll(&prog, &bind, &plan);
        let text = render_events(&prog, &events);
        assert_eq!(text.lines().count(), events.len());
        assert!(text.contains("dispatch"), "{text}");
        assert!(text.contains("neighbor"), "{text}");
        assert!(text.contains("t="), "{text}");
    }

    #[test]
    fn fork_join_unrolls_barrier_per_loop_execution() {
        let (prog, bind) = sweep();
        let plan = fork_join(&prog, &bind);
        let events = unroll(&prog, &bind, &plan);
        let c = DynCounts::from_events(&events, 4);
        // 5 iterations × 2 parallel loops.
        assert_eq!(c.barriers, 10);
        assert_eq!(c.dispatches, 10);
    }

    /// `DO t { s = A(n-1) on the master; DOALL: A(i) += s }` over cyclic
    /// `A`: at the loop bottom the master waits for everyone (it
    /// overwrites the `s` they read) and for its upper neighbor, the
    /// owner of the `A(n-1)` it reads next — as everyone waits for
    /// theirs. What runs the other way, `s` and the master's read of
    /// `A(n-1)` before its owner's next write, the sync after the
    /// master's statement orders one trip later. The last trip's bottom
    /// sync is not a barrier and stays.
    #[test]
    fn collector_waits_on_every_other_cell() {
        let mut pb = ProgramBuilder::new("guarded");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_cyclic());
        let s = pb.scalar("s", 0.0);
        let _t = pb.begin_seq("t", con(0), con(2));
        pb.assign(svar(s), arr(a, [sym(n) - 1]));
        let i = pb.begin_par("i", con(0), sym(n) - 1);
        pb.assign(elem(a, [idx(i)]), arr(a, [idx(i)]) + sca(s));
        pb.end();
        pb.end();
        let prog = pb.finish();
        let bind = Bindings::new(4).set(n, 14);
        let sched = unroll(&prog, &bind, &optimize(&prog, &bind));
        let gathers: Vec<_> = sched
            .iter()
            .filter_map(|ev| match *ev {
                Event::Sync {
                    op:
                        SyncStep::Cells {
                            dists,
                            producers,
                            collectors,
                            ..
                        },
                    ..
                } if collectors.len > 0 => Some((dists, producers, collectors)),
                _ => None,
            })
            .collect();
        assert_eq!(gathers.len(), 3, "one per trip");
        let (dists, producers, collectors) = gathers[0];
        assert_eq!(dists.iter().collect::<Vec<_>>(), [-1]);
        assert!(sched.producers(producers).is_empty());
        assert_eq!(sched.producers(collectors), [0]);
        let targets = |pid| -> Vec<usize> {
            sched
                .pair_targets(pid, dists, producers, collectors)
                .collect()
        };
        assert_eq!(targets(0), [1, 1, 2, 3]);
        assert_eq!(targets(1), [2]);
        assert!(targets(3).is_empty());
        // What the counts say is what the targets add up to.
        let waits: usize = (0..4).map(|pid| targets(pid).len()).sum();
        let site = |ev: &Event| matches!(ev, Event::Sync { op: SyncStep::Cells { collectors, .. }, .. } if collectors.len > 0);
        let bottoms: Vec<Event> = sched.iter().copied().filter(site).collect();
        assert_eq!(
            DynCounts::from_events(&bottoms, 4).pair_waits,
            3 * waits as u64
        );
        assert_eq!(DynCounts::from_events(&sched, 4).barriers, 1);
        assert!(render_events(&prog, &sched).contains("pair{-1}->P0"));
    }

    #[test]
    fn optimized_unrolls_single_dispatch_and_end_barrier() {
        let (prog, bind) = sweep();
        let plan = optimize(&prog, &bind);
        let events = unroll(&prog, &bind, &plan);
        let c = DynCounts::from_events(&events, 4);
        assert_eq!(c.dispatches, 1);
        assert_eq!(c.barriers, 1, "only the region end barrier");
        assert!(c.neighbor_posts > 0);
    }
}
