//! The walk every processor takes through a plan.
//!
//! Every processor passes the *same* steps in the same order
//! (replicated control flow — the SPMD model). [`Schedule::new`] lowers
//! a plan once per `(program, bindings, plan)`: each phase into a kernel
//! ([`crate::kernel`]), and the region tree around the phases into a
//! flat walk of work, dispatch, sync and sequential-loop ops. A
//! [`Cursor`] walks it for one processor, one [`Step`] at a time, in
//! O(loop depth) memory: the sequential-loop indices live in the
//! cursor's own slots (which a [`Worker`](crate::Worker) runs kernels
//! against), a sync's producers are resolved when the cursor reaches
//! it, and every step carries its ordinal.
//!
//! The cursor also holds the one sync rule every executor and checker
//! applies — who posts at a step ([`Cursor::posts`]), whom each
//! processor then waits on and for which post count
//! ([`Cursor::waits`]), which dispatch and barrier episode a processor
//! is at — and counts what the walk performs ([`DynCounts`]).

use crate::kernel::{Code, Lin, Lowerer, Owner};
use analysis::{Bindings, CommPattern, DistSet, ProducerSpec};
use ir::{LoopId, NodeId, Program};
use runtime::SyncKind;
use spmd_opt::{counter_numbers, RItem, SpmdProgram, SyncOp, TopItem};

/// A synchronization point (an eliminated slot is no step).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SyncStep {
    /// A full team barrier.
    Barrier,
    /// Per-processor cells: whoever may be waited for posts
    /// ([`Cursor::posts`]), then each processor waits on the cells
    /// [`Cursor::waits`] names for it.
    Cells {
        /// Processor distances to wait on.
        dists: DistSet,
        /// The label measurements are filed under: neighbor, counter or
        /// pairwise.
        kind: SyncKind,
    },
}

/// What one step of the walk does.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Event {
    /// Work: a phase (distributed, master or replicated) or a
    /// master-only serial statement outside regions.
    Work {
        /// The subtree's lowered kernel.
        kernel: u32,
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
    },
}

/// One step of the walk.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Step {
    /// How many steps precede it.
    pub ordinal: usize,
    /// What it does.
    pub event: Event,
}

/// A placed sync op at `site`, lowered: each producer or collector it
/// names is the master (`None`) or whoever owns an element at the loop
/// indices the sync sits under; everybody posts there (`all_post`) or
/// each producer once per naming, and the team posts `posts` times and
/// waits `waits` times. With `merge_last` it is skipped on the last
/// trip of the innermost open loop (whose bottom it is).
#[derive(Debug)]
struct Site {
    site: u32,
    merge_last: bool,
    op: SyncStep,
    producers: Vec<Option<Owner>>,
    collectors: Vec<Option<Owner>>,
    all_post: bool,
    posts: u64,
    waits: u64,
}

/// The region tree laid out flat.
#[derive(Clone, Copy, Debug)]
enum Op {
    Work(u32),
    Dispatch,
    /// Sync op `k` of [`Schedule::syncs`].
    Sync(u32),
    /// A sequential loop over `slot`: its body runs up to the matching
    /// [`Op::Next`], and `exit` is the op past that.
    Loop {
        slot: u32,
        lo: Lin,
        hi: Lin,
        exit: u32,
    },
    /// The back edge of the innermost open loop.
    Next,
}

/// A lowered plan: the kernel table and the walk every processor
/// takes through the plan's region tree.
pub struct Schedule {
    pub(crate) code: Code,
    walk: Vec<Op>,
    syncs: Vec<Site>,
    pub(crate) nprocs: i64,
    /// `counter #k` of the counter-labelled sites, by site id.
    counters: Vec<Option<usize>>,
}

impl Schedule {
    /// Lower `plan` under concrete bindings: every phase into a kernel,
    /// once, from the plan tree. Loops inside phases are the kernels';
    /// sequential loops at region level and master loops are the
    /// walk's.
    pub fn new(prog: &Program, bind: &Bindings, plan: &SpmdProgram) -> Schedule {
        let mut b = Builder {
            prog,
            nprocs: bind.nprocs as u64,
            lower: Lowerer::new(prog, bind),
            walk: Vec::new(),
            syncs: Vec::new(),
            next_site: 0,
        };
        b.top(&plan.items);
        Schedule {
            code: b.lower.finish(),
            walk: b.walk,
            syncs: b.syncs,
            nprocs: bind.nprocs,
            counters: counter_numbers(plan),
        }
    }

    /// A cursor at the start of the walk.
    pub fn cursor(&self) -> Cursor<'_> {
        Cursor {
            sched: self,
            pc: 0,
            open: Vec::new(),
            slots: vec![0; self.code.num_slots],
            ordinal: 0,
            dists: DistSet::default(),
            producers: Vec::new(),
            collectors: Vec::new(),
            all_post: false,
            all_posts: 0,
            named_posts: vec![0; self.nprocs as usize],
            counts: DynCounts::default(),
        }
    }

    /// The dynamic syncs a whole walk performs.
    pub fn counts(&self) -> DynCounts {
        let mut cur = self.cursor();
        while cur.next().is_some() {}
        cur.counts
    }

    /// One past the largest id of a sync site the walk holds.
    pub fn num_sites(&self) -> usize {
        self.syncs
            .iter()
            .map(|s| s.site as usize + 1)
            .max()
            .unwrap_or(0)
    }

    /// What a sync step is called on a timeline: `barrier`, `neighbor`,
    /// `counter#0`, `pairwise{-2}`.
    pub(crate) fn sync_label(&self, op: SyncStep, site: u32) -> String {
        let SyncStep::Cells { dists, kind } = op else {
            return "barrier".into();
        };
        match kind {
            SyncKind::Neighbor => "neighbor".into(),
            SyncKind::Counter => {
                let id = self.counters[site as usize].expect("a counter site has its number");
                format!("counter#{id}")
            }
            _ => format!("pairwise{}", dists.render()),
        }
    }
}

/// One processor's position in the walk of a [`Schedule`].
pub struct Cursor<'a> {
    sched: &'a Schedule,
    pc: usize,
    /// The sequential loops the walk is inside, outermost first.
    open: Vec<Open>,
    /// Loop index values by slot (`LoopId`): the open loops' here, and
    /// a running kernel's own loops' too.
    pub(crate) slots: Vec<i64>,
    ordinal: usize,
    /// At the last cells step: its distances and the processors it
    /// names, resolved at the indices it sits under.
    dists: DistSet,
    producers: Vec<usize>,
    collectors: Vec<usize>,
    all_post: bool,
    /// Every processor's post count so far, the walk being replicated:
    /// the steps at which everybody posts, plus those naming `q`.
    all_posts: u64,
    named_posts: Vec<u64>,
    counts: DynCounts,
}

/// An open sequential loop: its slot, its last index value, and the
/// first op of its body.
#[derive(Clone, Copy)]
struct Open {
    slot: u32,
    hi: i64,
    body: u32,
}

impl Iterator for Cursor<'_> {
    type Item = Step;

    /// The next step, with a sync's producers resolved and its posts
    /// and waits counted.
    fn next(&mut self) -> Option<Step> {
        let sched = self.sched;
        loop {
            let op = *sched.walk.get(self.pc)?;
            self.pc += 1;
            let event = match op {
                Op::Loop { slot, lo, hi, exit } => {
                    let lo = sched.code.eval(&lo, &self.slots);
                    let hi = sched.code.eval(&hi, &self.slots);
                    if lo > hi {
                        self.pc = exit as usize;
                    } else {
                        self.slots[slot as usize] = lo;
                        let body = self.pc as u32;
                        self.open.push(Open { slot, hi, body });
                    }
                    continue;
                }
                Op::Next => {
                    let top = *self.open.last().expect("a back edge closes an open loop");
                    let i = &mut self.slots[top.slot as usize];
                    if *i < top.hi {
                        *i += 1;
                        self.pc = top.body as usize;
                    } else {
                        self.open.pop();
                    }
                    continue;
                }
                Op::Work(kernel) => Event::Work { kernel },
                Op::Dispatch => {
                    self.counts.dispatches += 1;
                    Event::Dispatch
                }
                Op::Sync(k) => {
                    let sync = &sched.syncs[k as usize];
                    if sync.merge_last && self.last_trip() {
                        continue;
                    }
                    let op = self.resolve(sync);
                    Event::Sync {
                        op,
                        site: sync.site,
                    }
                }
            };
            self.ordinal += 1;
            return Some(Step {
                ordinal: self.ordinal - 1,
                event,
            });
        }
    }
}

impl Cursor<'_> {
    /// Is the innermost open loop on its last trip?
    fn last_trip(&self) -> bool {
        let top = self.open.last().expect("a loop bottom sits in its loop");
        self.slots[top.slot as usize] == top.hi
    }

    /// Enter a sync step: count what the team performs there, resolve
    /// the processors it names and advance the post counts.
    fn resolve(&mut self, site: &Site) -> SyncStep {
        let SyncStep::Cells { dists, kind } = site.op else {
            self.counts.barriers += 1;
            return site.op;
        };
        let c = &mut self.counts;
        let (posts, waits) = match kind {
            SyncKind::Neighbor => (&mut c.neighbor_posts, &mut c.neighbor_waits),
            SyncKind::Counter => (&mut c.counter_increments, &mut c.counter_waits),
            _ => (&mut c.pair_posts, &mut c.pair_waits),
        };
        *posts += site.posts;
        *waits += site.waits;
        let (code, slots, nprocs) = (&self.sched.code, &self.slots, self.sched.nprocs);
        let who = |o: &Option<Owner>| o.map_or(0, |o| code.owner(&o, slots, nprocs) as usize);
        self.producers.clear();
        self.producers.extend(site.producers.iter().map(who));
        self.collectors.clear();
        self.collectors.extend(site.collectors.iter().map(who));
        self.dists = dists;
        self.all_post = site.all_post;
        if self.all_post {
            self.all_posts += 1;
        } else {
            for &q in &self.producers {
                self.named_posts[q] += 1;
            }
        }
        site.op
    }

    /// Steps produced so far.
    pub fn steps(&self) -> usize {
        self.ordinal
    }

    /// What the steps produced so far performed; its `dispatches` and
    /// `barriers` number the dispatch or barrier the cursor is at.
    pub fn counts(&self) -> DynCounts {
        self.counts
    }

    /// The producers the last cells step named, resolved.
    pub fn producers(&self) -> &[usize] {
        &self.producers
    }

    /// The collectors the last cells step named, resolved.
    pub fn collectors(&self) -> &[usize] {
        &self.collectors
    }

    /// Does everybody post at the last cells step (as opposed to its
    /// producers only)?
    pub fn all_post(&self) -> bool {
        self.all_post
    }

    /// How often `pid` posts its cell at the last cells step: once
    /// where everybody posts, else once per naming as a producer.
    pub fn posts(&self, pid: usize) -> u64 {
        if self.all_post {
            1
        } else {
            self.producers.iter().filter(|&&q| q == pid).count() as u64
        }
    }

    /// Whom `pid` waits on at the last cells step, each with the post
    /// count its cell must reach: `pid - d` for every distance in
    /// range, every other producer and, when `pid` is a collector,
    /// everybody else. A processor named twice is waited on twice,
    /// harmlessly. Each target posts at this step, so its count has
    /// reached the one named exactly when it has reached the step.
    pub fn waits(&self, pid: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        let nprocs = self.sched.nprocs as usize;
        let in_team = move |q: i64| usize::try_from(q).ok().filter(|&q| q < nprocs);
        let by_dist = self
            .dists
            .iter()
            .filter_map(move |d| in_team(pid as i64 - d));
        let by_producer = self.producers.iter().copied();
        // Once round the team for every collector spec that names `pid`.
        let gathers = self.collectors.iter().filter(|&&c| c == pid).count();
        let as_collector = (0..gathers * nprocs).map(move |k| k % nprocs);
        by_dist
            .chain(by_producer)
            .chain(as_collector)
            .filter(move |&q| q != pid)
            .map(move |q| (q, self.posted(q)))
    }

    /// How many posts `pid` has made to its cell once it has arrived at
    /// the cursor's step: every processor knows every other's count,
    /// the walk being replicated.
    pub fn posted(&self, pid: usize) -> u64 {
        self.all_posts + self.named_posts[pid]
    }
}

/// Lays the region tree of a plan out flat, lowering each phase on
/// the way.
struct Builder<'a> {
    prog: &'a Program,
    nprocs: u64,
    lower: Lowerer<'a>,
    walk: Vec<Op>,
    syncs: Vec<Site>,
    /// The canonical id of the next sync slot laid out: the tree is
    /// laid out in the site walk's order ([`spmd_opt::for_each_slot`]),
    /// a master loop's body once.
    next_site: u32,
}

impl Builder<'_> {
    /// The sequential loop at `node` around what `body` lays out.
    fn seq_loop(&mut self, node: NodeId, body: impl FnOnce(&mut Self)) {
        let l = self.prog.expect_loop(node);
        let (lo, hi) = (self.lower.lin(&l.lo), self.lower.lin(&l.hi));
        let at = self.walk.len();
        self.walk.push(Op::Next);
        self.lower.scope(l.id, true);
        body(self);
        self.lower.scope(l.id, false);
        self.walk.push(Op::Next);
        let exit = self.walk.len() as u32;
        let slot = l.id.0;
        self.walk[at] = Op::Loop { slot, lo, hi, exit };
    }

    fn named(&mut self, specs: &[ProducerSpec]) -> Vec<Option<Owner>> {
        let named = |spec: &ProducerSpec| match spec {
            ProducerSpec::Master => None,
            ProducerSpec::Owner { map, sub, .. } => Some(self.lower.owner(*map, sub)),
        };
        specs.iter().map(named).collect()
    }

    /// The sync op of the next slot: a step unless it is `None`.
    fn sync(&mut self, op: &SyncOp, merge_last: bool) {
        let site = self.next_site;
        self.next_site += 1;
        let (op, producers, collectors, all_post, posts, waited) = match op {
            SyncOp::None => return,
            SyncOp::Barrier => (SyncStep::Barrier, Vec::new(), Vec::new(), false, 0, 0),
            SyncOp::Cells { waits } => {
                let kind = match waits.class() {
                    CommPattern::Neighbor { .. } => SyncKind::Neighbor,
                    CommPattern::Producer1 => SyncKind::Counter,
                    _ => SyncKind::Pairwise,
                };
                // Where all a wait set names is producers, nobody can
                // wait on anyone else and only they post — once per
                // naming. Every pid whose `pid - d` is a real processor
                // waits on it, every pid but a producer waits on it, and
                // a collector on every pid but itself.
                let (p, named) = (self.nprocs, waits.producers.len() as u64);
                let all_post = !waits.dists.is_empty() || !waits.collectors.is_empty();
                let by_dist = waits
                    .dists
                    .iter()
                    .map(|d| (p as i64 - d.abs()).max(0) as u64);
                let waited =
                    by_dist.sum::<u64>() + (named + waits.collectors.len() as u64) * (p - 1);
                let op = SyncStep::Cells {
                    dists: waits.dists,
                    kind,
                };
                let (producers, collectors) =
                    (self.named(&waits.producers), self.named(&waits.collectors));
                let posts = if all_post { p } else { named };
                (op, producers, collectors, all_post, posts, waited)
            }
        };
        self.walk.push(Op::Sync(self.syncs.len() as u32));
        self.syncs.push(Site {
            site,
            merge_last,
            op,
            producers,
            collectors,
            all_post,
            posts,
            waits: waited,
        });
    }

    /// Lay out top-level items.
    fn top(&mut self, items: &[TopItem]) {
        for it in items {
            match it {
                TopItem::SerialStmt(n) => {
                    let kernel = self.lower.kernel(*n, None);
                    self.walk.push(Op::Work(kernel));
                }
                TopItem::MasterLoop { node, body } => self.seq_loop(*node, |b| b.top(body)),
                TopItem::Region(r) => {
                    self.walk.push(Op::Dispatch);
                    self.items(&r.items);
                    self.sync(&r.end, false);
                }
            }
        }
    }

    /// Lay out region items.
    fn items(&mut self, items: &[RItem]) {
        for it in items {
            match it {
                RItem::Phase(p) => {
                    let kernel = self.lower.kernel(p.node, Some(&p.kind));
                    self.walk.push(Op::Work(kernel));
                    self.sync(&p.after, false);
                }
                RItem::Seq {
                    node,
                    body,
                    bottom,
                    merge_last,
                    after,
                } => {
                    self.seq_loop(*node, |b| {
                        b.items(body);
                        b.sync(bottom, *merge_last);
                    });
                    self.sync(after, false);
                }
            }
        }
    }
}

/// Every step of one processor's walk of `plan`, collected (what the
/// executors walk one step at a time).
pub fn unroll(prog: &Program, bind: &Bindings, plan: &SpmdProgram) -> Vec<Step> {
    Schedule::new(prog, bind, plan).cursor().collect()
}

/// Dynamic synchronization counts of a walk (one cursor counts them,
/// so every executor's numbers agree by construction).
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

/// Render a schedule as one line per step (debugging aid; the
/// executors walk exactly this sequence): a sync with the processors
/// it resolved to (`neighbor(fwd=true,bwd=false)`, `counter#0<-P3`,
/// `pair{-2}+1prod->P0`), a step under sequential loops with their
/// indices.
pub fn render_events(prog: &Program, sched: &Schedule) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let mut cur = sched.cursor();
    while let Some(Step { ordinal: k, event }) = cur.next() {
        // The open sequential loops and their indices, outermost first.
        let index = |o: &Open| {
            let name = prog.loop_name(LoopId(o.slot));
            format!("{name}={}", cur.slots[o.slot as usize])
        };
        let env: Vec<String> = cur.open.iter().map(index).collect();
        let env = if env.is_empty() {
            String::new()
        } else {
            format!(" [{}]", env.join(", "))
        };
        match event {
            Event::Dispatch => writeln!(out, "{k:4}  dispatch").unwrap(),
            Event::Work { kernel } => {
                let kern = &sched.code.kernels[kernel as usize];
                let (what, n) = (kern.label, kern.node.0);
                writeln!(out, "{k:4}  {what} node {n}{env}").unwrap()
            }
            Event::Sync { op, site } => {
                let listed = match op {
                    SyncStep::Barrier => "barrier".to_string(),
                    SyncStep::Cells { dists, kind } => match kind {
                        SyncKind::Neighbor => {
                            let (fwd, bwd) = (dists.contains(1), dists.contains(-1));
                            format!("neighbor(fwd={fwd},bwd={bwd})")
                        }
                        SyncKind::Counter => {
                            let name = sched.sync_label(op, site);
                            format!("{name}<-P{}", cur.producers()[0])
                        }
                        _ => {
                            let mut listed = format!("pair{}", dists.render());
                            if !cur.producers().is_empty() {
                                listed += &format!("+{}prod", cur.producers().len());
                            }
                            for c in cur.collectors() {
                                listed += &format!("->P{c}");
                            }
                            listed
                        }
                    },
                };
                writeln!(out, "{k:4}  sync s{site} {listed}{env}").unwrap()
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
    fn render_events_is_line_per_step() {
        let (prog, bind) = sweep();
        let plan = optimize(&prog, &bind);
        let text = render_events(&prog, &Schedule::new(&prog, &bind, &plan));
        assert_eq!(text.lines().count(), unroll(&prog, &bind, &plan).len());
        assert!(text.contains("dispatch"), "{text}");
        assert!(text.contains("neighbor"), "{text}");
        assert!(text.contains("t="), "{text}");
    }

    #[test]
    fn fork_join_walks_a_barrier_per_loop_execution() {
        let (prog, bind) = sweep();
        let c = Schedule::new(&prog, &bind, &fork_join(&prog, &bind)).counts();
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
        let sched = Schedule::new(&prog, &bind, &optimize(&prog, &bind));
        let mut cur = sched.cursor();
        let mut gathers = 0;
        loop {
            let before = cur.counts();
            let Some(step) = cur.next() else { break };
            let Event::Sync {
                op: SyncStep::Cells { dists, .. },
                ..
            } = step.event
            else {
                continue;
            };
            if cur.collectors().is_empty() {
                continue;
            }
            gathers += 1;
            assert_eq!(dists.iter().collect::<Vec<_>>(), [-1]);
            assert!(cur.producers().is_empty());
            assert_eq!(cur.collectors(), [0]);
            let targets = |pid| -> Vec<usize> { cur.waits(pid).map(|(q, _)| q).collect() };
            assert_eq!(targets(0), [1, 1, 2, 3]);
            assert_eq!(targets(1), [2]);
            assert!(targets(3).is_empty());
            // Everybody posts here, once per trip so far.
            assert!((0..4).all(|pid| cur.posts(pid) == 1));
            assert!(cur.waits(0).all(|(_, n)| n == cur.all_posts));
            // What the counts say is what the targets add up to.
            let waits: usize = (0..4).map(|pid| targets(pid).len()).sum();
            assert_eq!(cur.counts().pair_waits - before.pair_waits, waits as u64);
        }
        assert_eq!(gathers, 3, "one per trip");
        assert_eq!(sched.counts().barriers, 1);
        assert!(render_events(&prog, &sched).contains("pair{-1}->P0"));
    }

    #[test]
    fn optimized_walks_a_single_dispatch_and_end_barrier() {
        let (prog, bind) = sweep();
        let c = Schedule::new(&prog, &bind, &optimize(&prog, &bind)).counts();
        assert_eq!(c.dispatches, 1);
        assert_eq!(c.barriers, 1, "only the region end barrier");
        assert!(c.neighbor_posts > 0);
    }
}
