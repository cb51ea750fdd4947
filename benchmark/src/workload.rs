//! The four workloads: set-up, the timed compile and run sections, and
//! the end-to-end metrics they produce. Everything is measured from
//! outside, by timing calls into the crates' public functions.

use crate::inputs::{self, FnvWriter, Input, Rng};
use crate::spans::Recorder;
use crate::stats::{median, percentile};
use analysis::{AnalysisConfig, AnalysisStats, Bindings};
use interp::{Mem, ObserveOptions, ParallelOutcome, ScheduleOrder};
use spmd_opt::{Decision, OptimizeOptions, SpmdProgram};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Processor counts every program of a compile set is compiled at.
/// 64 exercises the `distance_spectrum` probe window.
pub const WIDTHS: [i64; 3] = [2, 8, 64];

/// Workers for real-thread runs: never more than the host has cores,
/// so wall-clock numbers are not time-slicing artefacts.
pub fn thread_width() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// How a workload executes its run cases.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `run_virtual` with this many virtual processors on one thread:
    /// exact counts at any width, no wall-clock scaling claim.
    Virtual(i64),
    /// `run_parallel_observed` on a persistent `Team` of
    /// [`thread_width`] workers (thread start-up excluded, as in the
    /// paper's protocol).
    Threads,
}

/// One workload: what it compiles, what it runs, and how the measured
/// window is split between the two.
pub struct Spec {
    pub name: &'static str,
    /// The compile set.
    pub inputs: Vec<Input>,
    /// The run cases.
    pub cases: Vec<Input>,
    /// Compile through one shared, pre-warmed `FmeCache`.
    pub warm: bool,
    pub backend: Backend,
    /// Leading inputs whose optimized plans are, after the measured
    /// window, executed once on the virtual backend at P = 2 and P = 8
    /// and checked; the P = 8 executions give `dyn_barriers_opt`.
    pub verify: usize,
    /// Share of the measured window given to the run side.
    pub run_share: f64,
    /// Fewest reps a result is reported from.
    pub min_reps: usize,
}

/// Fewest kept compile rounds a result is reported from.
pub const MIN_ROUNDS: usize = 12;

pub fn spec(name: &str) -> Option<Spec> {
    // The compile workloads time their runs on the virtual backend at
    // `Scale::Test`: a tenth of the window then holds hundreds of reps,
    // where `Scale::Small` runs (0.5 s per rep) would leave a handful.
    let compile = |name, warm| Spec {
        name,
        inputs: inputs::compile_set(),
        cases: inputs::suite_at(suite::Scale::Test),
        warm,
        backend: Backend::Virtual(8),
        verify: suite::all().len(),
        run_share: 0.10,
        min_reps: 31,
    };
    let exec = |name, cases: fn() -> Vec<Input>, min_reps| Spec {
        name,
        inputs: cases(),
        cases: cases(),
        warm: false,
        backend: Backend::Threads,
        verify: 0,
        run_share: 0.85,
        min_reps,
    };
    match name {
        "compile_cold" => Some(compile("compile_cold", false)),
        "compile_warm" => Some(compile("compile_warm", true)),
        "exec_compute" => Some(exec("exec_compute", inputs::exec_compute_cases, 11)),
        "exec_finegrain" => Some(exec("exec_finegrain", inputs::exec_finegrain_cases, 31)),
        _ => None,
    }
}

/// Operations attempted and failed. A mismatch against the reference,
/// a `ParallelOutcome.failure` or a caught panic each fail one op.
#[derive(Default)]
pub struct Tally {
    pub ops: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.ops += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

/// Longest one operation may take before the harness gives up.
const OP_LIMIT: Duration = Duration::from_secs(120);

/// Aborts the process, naming the operation, when one runs past
/// [`OP_LIMIT`] — a deadlocked plan must not hang the pipeline.
pub struct Watchdog {
    current: Arc<Mutex<(Instant, String)>>,
    stop: Option<std::sync::mpsc::Sender<()>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    pub fn start() -> Self {
        let current = Arc::new(Mutex::new((Instant::now(), String::from("start"))));
        let (stop, stopped) = std::sync::mpsc::channel::<()>();
        let seen = Arc::clone(&current);
        let thread = std::thread::spawn(move || {
            use std::sync::mpsc::RecvTimeoutError::Timeout;
            while stopped.recv_timeout(Duration::from_secs(1)) == Err(Timeout) {
                let (since, op) = seen.lock().expect("watchdog state poisoned").clone();
                if since.elapsed() > OP_LIMIT {
                    eprintln!("benchmark: operation `{op}` exceeded {OP_LIMIT:?}; aborting");
                    std::process::exit(3);
                }
            }
        });
        Watchdog {
            current,
            stop: Some(stop),
            thread: Some(thread),
        }
    }

    /// Name the operation that starts now.
    pub fn op(&self, name: impl FnOnce() -> String) {
        *self.current.lock().expect("watchdog state poisoned") = (Instant::now(), name());
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// What the harness threads through every section.
pub struct Ctx {
    pub tally: Tally,
    pub watchdog: Watchdog,
    pub rec: Recorder,
    /// Seeded by `--seed`: the order programs and cases are visited in.
    pub rng: Rng,
}

/// One run case readied at one processor count.
pub struct Prepared {
    pub bind: Arc<Bindings>,
    pub opt: SpmdProgram,
    pub fj: SpmdProgram,
    /// Memory after `run_sequential`: what every run must reproduce.
    pub reference: Mem,
    /// Largest tolerated `max_abs_diff` (non-zero for reductions only).
    pub tol: f64,
}

/// Everything set-up builds for the timed sections.
pub struct Ready {
    /// Per input and width: hash of the plan and decision log under
    /// `AnalysisConfig::sequential_uncached()`.
    pub refs: Vec<[u64; WIDTHS.len()]>,
    /// The shared cache of a warm workload, warmed.
    pub cache: Option<Arc<ineq::FmeCache>>,
    pub cases: Vec<Prepared>,
    pub team: runtime::Team,
}

fn plan_hash(plan: &SpmdProgram, log: &[Decision]) -> u64 {
    use std::fmt::Write;
    let mut h = FnvWriter::new();
    let _ = write!(h, "{plan:?}{log:?}");
    h.0
}

/// Compile `inp` for `nprocs` processors and run the sequential
/// reference. `None` (and a failed op) when the reference run panics,
/// i.e. leaves the arrays' bounds.
pub fn prepare(inp: &Input, nprocs: i64, ctx: &mut Ctx) -> Option<Prepared> {
    ctx.watchdog
        .op(|| format!("prepare {} P={nprocs}", inp.name));
    let bind = inp.bindings(nprocs);
    let reference = Mem::new(&inp.prog, &bind);
    let ran = catch_unwind(AssertUnwindSafe(|| {
        interp::run_sequential(&inp.prog, &bind, &reference)
    }));
    ctx.tally.check(ran.is_ok(), || {
        format!("{}: the sequential reference run panicked", inp.name)
    });
    ran.ok()?;
    Some(Prepared {
        opt: spmd_opt::optimize(&inp.prog, &bind),
        fj: spmd_opt::fork_join(&inp.prog, &bind),
        bind: Arc::new(bind),
        reference,
        tol: if inp.reduction { 1e-9 } else { 0.0 },
    })
}

/// Set-up: validate every input, compute the reference plans and
/// memories, warm the shared cache, start the team.
pub fn setup(spec: &Spec, ctx: &mut Ctx) -> Ready {
    let span = ctx.rec.begin("setup", spec.name);
    let reference_opts = OptimizeOptions {
        analysis: AnalysisConfig::sequential_uncached(),
        ..OptimizeOptions::default()
    };
    let cache = spec.warm.then(|| Arc::new(ineq::FmeCache::new()));
    let mut refs = Vec::with_capacity(spec.inputs.len());
    for inp in &spec.inputs {
        ctx.watchdog.op(|| format!("validate {}", inp.name));
        let problems = inp.prog.validate();
        ctx.tally.check(problems.is_empty(), || {
            format!("{}: invalid program: {problems:?}", inp.name)
        });
        let bad = analysis::check_parallel_loops(&inp.prog, &inp.bindings(WIDTHS[0]));
        ctx.tally.check(bad.is_empty(), || {
            format!("{}: parallel loops {bad:?} carry a dependence", inp.name)
        });
        refs.push(WIDTHS.map(|w| {
            let bind = inp.bindings(w);
            if let Some(cache) = &cache {
                spmd_opt::optimize_explained_shared(
                    &inp.prog,
                    &bind,
                    OptimizeOptions::default(),
                    cache,
                );
            }
            let (plan, log, _) = spmd_opt::optimize_explained(&inp.prog, &bind, reference_opts);
            plan_hash(&plan, &log)
        }));
    }
    let run_width = match spec.backend {
        Backend::Virtual(p) => p,
        Backend::Threads => thread_width() as i64,
    };
    let cases = spec
        .cases
        .iter()
        .filter_map(|inp| prepare(inp, run_width, ctx))
        .collect();
    let ready = Ready {
        refs,
        cache,
        cases,
        team: runtime::Team::new(thread_width()),
    };
    ctx.rec.end(span);
    ready
}

/// What one timed compile yields besides its duration.
pub struct Compiled {
    /// Milliseconds, source or IR to plan (parse included for `.be`).
    pub ms: f64,
    /// Milliseconds inside `frontend::parse` (0 for IR inputs).
    pub parse_ms: f64,
    pub plan: SpmdProgram,
    pub log: Vec<Decision>,
    pub stats: AnalysisStats,
}

/// One timed compile of input `i` at width `w`, checked against the
/// uncached reference. `None` when it panicked.
pub fn compile_one(
    spec: &Spec,
    ready: &Ready,
    i: usize,
    w: usize,
    ctx: &mut Ctx,
) -> Option<Compiled> {
    let inp = &spec.inputs[i];
    ctx.watchdog
        .op(|| format!("compile {} P={}", inp.name, WIDTHS[w]));
    let bind = inp.bindings(WIDTHS[w]);
    let rec = &mut ctx.rec;
    let out = catch_unwind(AssertUnwindSafe(|| {
        let t0 = Instant::now();
        let parsed;
        let mut parse_ms = 0.0;
        let prog: &ir::Program = match inp.text {
            Some(src) => {
                let span = rec.begin("frontend.parse", &inp.name);
                parsed = frontend::parse(src).expect("a .be source of the input set parses");
                rec.end(span);
                parse_ms = t0.elapsed().as_secs_f64() * 1e3;
                &parsed
            }
            None => &inp.prog,
        };
        let span = rec.begin("core.optimize", &inp.name);
        let opts = OptimizeOptions::default();
        let (plan, log, stats) = match &ready.cache {
            Some(cache) => spmd_opt::optimize_explained_shared(prog, &bind, opts, cache),
            None => spmd_opt::optimize_explained(prog, &bind, opts),
        };
        rec.end(span);
        Compiled {
            ms: t0.elapsed().as_secs_f64() * 1e3,
            parse_ms,
            plan,
            log,
            stats,
        }
    }));
    let span = ctx.rec.begin("verify", &inp.name);
    let ok = out
        .as_ref()
        .is_ok_and(|c| plan_hash(&c.plan, &c.log) == ready.refs[i][w]);
    ctx.tally.check(ok, || {
        format!(
            "{} P={}: plan or decision log differs from the uncached reference",
            inp.name, WIDTHS[w]
        )
    });
    ctx.rec.end(span);
    out.ok()
}

/// Which of a case's two plans a run executes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    Optimized,
    ForkJoin,
}

/// What one timed run yields besides its duration.
pub struct Ran {
    pub secs: f64,
    pub barriers: u64,
    pub dispatches: u64,
    /// The real-thread outcome (`None` on the virtual backend).
    pub outcome: Option<ParallelOutcome>,
}

/// One timed run of a case's plan into fresh memory, compared with the
/// sequential reference. `None` when it panicked.
pub fn run_one(
    inp: &Input,
    prep: &Prepared,
    plan: Plan,
    backend: Backend,
    team: &runtime::Team,
    observe: &ObserveOptions,
    ctx: &mut Ctx,
) -> Option<Ran> {
    let (sched, label) = match plan {
        Plan::Optimized => (&prep.opt, "optimized"),
        Plan::ForkJoin => (&prep.fj, "fork-join"),
    };
    ctx.watchdog.op(|| format!("run {} ({label})", inp.name));
    let span = ctx.rec.begin("interp.mem_new", &inp.name);
    let mem = Arc::new(Mem::new(&inp.prog, &prep.bind));
    ctx.rec.end(span);
    let span = ctx.rec.begin(
        match backend {
            Backend::Virtual(_) => "interp.run_virtual",
            Backend::Threads => "interp.run_parallel",
        },
        &inp.name,
    );
    let out = catch_unwind(AssertUnwindSafe(|| {
        let t0 = Instant::now();
        match backend {
            Backend::Virtual(_) => {
                let o = interp::run_virtual(
                    &inp.prog,
                    &prep.bind,
                    sched,
                    &mem,
                    ScheduleOrder::RoundRobin,
                );
                Ran {
                    secs: t0.elapsed().as_secs_f64(),
                    barriers: o.counts.barriers,
                    dispatches: o.counts.dispatches,
                    outcome: None,
                }
            }
            Backend::Threads => {
                let o = interp::run_parallel_observed(
                    &inp.prog, &prep.bind, sched, &mem, team, observe,
                );
                Ran {
                    secs: t0.elapsed().as_secs_f64(),
                    barriers: o.counts.barriers,
                    dispatches: o.counts.dispatches,
                    outcome: Some(o),
                }
            }
        }
    }));
    ctx.rec.end(span);
    let span = ctx.rec.begin("verify", &inp.name);
    let ok = out.as_ref().is_ok_and(|r| {
        r.outcome.as_ref().is_none_or(ParallelOutcome::ok)
            && mem.max_abs_diff(&prep.reference) <= prep.tol
    });
    ctx.tally.check(ok, || {
        format!(
            "{} ({label}): panicked, failed, or memory differs from run_sequential",
            inp.name
        )
    });
    ctx.rec.end(span);
    out.ok()
}

/// What the measured window collects: one row per completed compile
/// round (milliseconds per compile, `input * WIDTHS.len() + width`),
/// and per case and plan the seconds of each completed run rep.
pub struct Samples {
    pub rounds: Vec<Vec<f64>>,
    pub opt: Vec<Vec<f64>>,
    pub fj: Vec<Vec<f64>>,
    /// Dynamic barriers one execution of every optimized plan performs.
    pub barriers_opt: u64,
}

/// One round: every program of the compile set, in a seeded order, at
/// every width. `None` when a compile panicked.
fn compile_round(spec: &Spec, ready: &Ready, ctx: &mut Ctx) -> Option<Vec<f64>> {
    let n = spec.inputs.len();
    let mut ms = vec![None; n * WIDTHS.len()];
    for i in ctx.rng.permutation(n) {
        for w in 0..WIDTHS.len() {
            ms[i * WIDTHS.len() + w] = compile_one(spec, ready, i, w, ctx).map(|c| c.ms);
        }
    }
    ms.into_iter().collect()
}

/// One rep: every case, in a seeded order, its fork-join and optimized
/// plans run back to back in alternating order. Returns seconds per
/// case (optimized, fork-join) and the optimized plans' dynamic
/// barriers; `None` when a run panicked.
fn run_rep(
    spec: &Spec,
    ready: &Ready,
    flip: usize,
    ctx: &mut Ctx,
) -> Option<(Vec<f64>, Vec<f64>, u64)> {
    let n = ready.cases.len();
    let (mut opt, mut fj) = (vec![None; n], vec![None; n]);
    let mut barriers = 0;
    let plain = ObserveOptions::default();
    for c in ctx.rng.permutation(n) {
        let (inp, prep) = (&spec.cases[c], &ready.cases[c]);
        let span = ctx.rec.begin("case", &inp.name);
        let order = if (c + flip).is_multiple_of(2) {
            [Plan::ForkJoin, Plan::Optimized]
        } else {
            [Plan::Optimized, Plan::ForkJoin]
        };
        for plan in order {
            let ran = run_one(inp, prep, plan, spec.backend, &ready.team, &plain, ctx);
            match plan {
                Plan::Optimized => {
                    barriers += ran.as_ref().map_or(0, |r| r.barriers);
                    opt[c] = ran.map(|r| r.secs);
                }
                Plan::ForkJoin => fj[c] = ran.map(|r| r.secs),
            }
        }
        ctx.rec.end(span);
    }
    Some((
        opt.into_iter().collect::<Option<_>>()?,
        fj.into_iter().collect::<Option<_>>()?,
        barriers,
    ))
}

/// When the measured window ends, and the floors it keeps going for.
pub struct Limits {
    /// Compile rounds run and discarded before the first kept one.
    pub warmup: usize,
    pub min_rounds: usize,
    pub min_reps: usize,
    pub deadline: Instant,
}

/// The measured window. Compile rounds and run reps alternate so that
/// each side's samples span the whole window — the host's slow phases
/// last seconds, and a section measured in one block would sit inside
/// one — with the run side getting `spec.run_share` of the time. Ends
/// at `deadline`, or later if a floor is not met yet.
pub fn measure(spec: &Spec, ready: &Ready, limits: Limits, ctx: &mut Ctx) -> Samples {
    for _ in 0..limits.warmup {
        compile_round(spec, ready, ctx);
    }
    let mut s = Samples {
        rounds: Vec::new(),
        opt: vec![Vec::new(); ready.cases.len()],
        fj: vec![Vec::new(); ready.cases.len()],
        barriers_opt: 0,
    };
    let (mut compile_s, mut run_s) = (0.0, 0.0);
    let flip = ctx.rng.next_u64() as usize;
    loop {
        let reps = s.opt.first().map_or(0, Vec::len);
        let (rounds_due, reps_due) = (s.rounds.len() < limits.min_rounds, reps < limits.min_reps);
        let in_time = Instant::now() < limits.deadline;
        if !(in_time || rounds_due || reps_due) {
            return s;
        }
        // In time (or with both floors unmet) the side that is behind
        // its share goes next; past the deadline, the side with a floor
        // still unmet.
        let run_next = if in_time || (rounds_due && reps_due) {
            run_s < spec.run_share * (run_s + compile_s)
        } else {
            reps_due
        };
        let t0 = Instant::now();
        if run_next {
            if let Some((opt, fj, barriers)) = run_rep(spec, ready, flip + reps, ctx) {
                for (c, (o, f)) in opt.into_iter().zip(fj).enumerate() {
                    s.opt[c].push(o);
                    s.fj[c].push(f);
                }
                s.barriers_opt = barriers;
            }
            run_s += t0.elapsed().as_secs_f64();
        } else {
            s.rounds.extend(compile_round(spec, ready, ctx));
            compile_s += t0.elapsed().as_secs_f64();
        }
    }
}

/// What the untraced window measures (all but `setup_s` and
/// `peak_rss_mb`, which the caller owns). `BENCHMARK.json` decides
/// which of these are end-to-end metrics, i.e. gated.
pub fn end_to_end(s: &Samples) -> BTreeMap<&'static str, f64> {
    let totals: Vec<f64> = s.rounds.iter().map(|r| r.iter().sum()).collect();
    let all: Vec<f64> = s.rounds.iter().flatten().copied().collect();
    // The fork-join and optimized runs of a case are adjacent, so the
    // ratio is taken per rep and the median of those ratios reported:
    // drift between reps cancels.
    let rep_total = |per_case: &[Vec<f64>], k: usize| per_case.iter().map(|v| v[k]).sum::<f64>();
    let ratios: Vec<f64> = (0..s.opt.first().map_or(0, Vec::len))
        .map(|k| rep_total(&s.fj, k) / rep_total(&s.opt, k))
        .collect();
    // Each program is compiled at every width back to back, so within
    // a round the widest and the narrowest compiles saw the same host.
    let at_width = |r: &[f64], w: usize| r.iter().skip(w).step_by(WIDTHS.len()).sum::<f64>();
    let widening: Vec<f64> = s
        .rounds
        .iter()
        .map(|r| at_width(r, WIDTHS.len() - 1) / at_width(r, 0))
        .collect();
    BTreeMap::from([
        ("compile_set_ms", median(&totals)),
        ("compile_ms_p50", median(&all)),
        ("compile_ms_p90", percentile(&all, 0.90).unwrap_or(0.0)),
        ("compile_p64_over_p2", median(&widening)),
        ("run_opt_s", sum_of_medians(&s.opt)),
        ("run_fj_s", sum_of_medians(&s.fj)),
        ("opt_speedup", median(&ratios)),
        ("dyn_barriers_opt", s.barriers_opt as f64),
    ])
}

/// Sum over cases of each case's median.
pub fn sum_of_medians(per_case: &[Vec<f64>]) -> f64 {
    per_case.iter().map(|v| median(v)).sum()
}

/// After the measured window: the optimized plans of the first
/// `spec.verify` inputs, executed once on the virtual backend at P = 2
/// and P = 8 and compared with `run_sequential`. Returns the dynamic
/// barriers of the P = 8 executions.
pub fn verify_virtual(spec: &Spec, ready: &Ready, ctx: &mut Ctx) -> u64 {
    let plain = ObserveOptions::default();
    let mut barriers = 0;
    for inp in &spec.inputs[..spec.verify] {
        for p in [2, 8] {
            let ran = prepare(inp, p, ctx).and_then(|prep| {
                let backend = Backend::Virtual(p);
                run_one(
                    inp,
                    &prep,
                    Plan::Optimized,
                    backend,
                    &ready.team,
                    &plain,
                    ctx,
                )
            });
            if p == 8 {
                barriers += ran.map_or(0, |r| r.barriers);
            }
        }
    }
    barriers
}
