//! The traced pass: one extra, short pass per workload that records
//! harness-side spans around every call into a layer, switches on the
//! program's own `ObserveOptions`, and reads the counters the layers
//! already return. Its numbers never enter the end-to-end metrics.

use crate::prims;
use crate::spans::ProcSpan;
use crate::stats::median;
use crate::workload::{
    compile_one, prepare, run_one, sum_of_medians, thread_width, Backend, Ctx, Plan, Prepared,
    Ready, Spec, WIDTHS,
};
use interp::{Mem, ObserveOptions};
use obs::SpanCat;
use runtime::stats::StatsSnapshot;
use std::collections::BTreeMap;
use std::time::Instant;

/// Processor-timeline spans kept per traced run for the trace file;
/// the work / dispatch / sync totals always use every span.
const PROC_SPANS_PER_RUN: usize = 2000;

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// `a / b`, or 0 when the layer was not exercised at all.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Per-layer metrics of the compile side: `rounds` traced rounds over
/// the workload's compile set. Sums are per round.
fn compile_layers(
    spec: &Spec,
    ready: &Ready,
    rounds: usize,
    ctx: &mut Ctx,
    m: &mut BTreeMap<&'static str, f64>,
) {
    let per_round = |x: f64| x / rounds as f64;
    let (mut parse_us, mut optimize_ms, mut fork_join_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut by_width = [0.0; WIDTHS.len()];
    let (mut tokens, mut ir_nodes, mut check_ms) = (0usize, 0usize, 0.0);
    let (mut sites, mut pair_hits, mut pair_misses) = (0usize, 0u64, 0u64);
    let mut st = spmd_opt::StaticStats::default();
    let mut fme = ineq::FmeCacheStats::default();
    // A shared cache reports cumulative traffic: take differences. A
    // cold compile has a cache of its own, so its stats start at zero.
    let mut seen = ready.cache.as_ref().map(|c| c.stats());
    let mut entries = 0usize;
    for _ in 0..rounds {
        for i in ctx.rng.permutation(spec.inputs.len()) {
            let inp = &spec.inputs[i];
            let case = ctx.rec.begin("case", &inp.name);
            if let Some(src) = inp.text {
                let lexed = frontend::Lexer::new(src).tokenize();
                tokens += lexed.map_or(0, |t| t.len());
                ir_nodes += inp.prog.nodes.len();
            }
            let span = ctx.rec.begin("analysis.check", &inp.name);
            let t0 = Instant::now();
            let bad = analysis::check_parallel_loops(&inp.prog, &inp.bindings(WIDTHS[0]));
            check_ms += ms_since(t0);
            ctx.rec.end(span);
            ctx.tally.check(bad.is_empty(), || {
                format!("{}: parallel loops {bad:?} carry a dependence", inp.name)
            });
            for (w, width_ms) in by_width.iter_mut().enumerate() {
                let Some(c) = compile_one(spec, ready, i, w, ctx) else {
                    continue;
                };
                if inp.text.is_some() {
                    parse_us.push(c.parse_ms * 1e3);
                }
                optimize_ms.push(c.ms - c.parse_ms);
                *width_ms += c.ms;
                sites += c.log.len();
                let s = c.plan.static_stats();
                st.barriers += s.barriers;
                st.neighbor_syncs += s.neighbor_syncs;
                st.counter_syncs += s.counter_syncs;
                st.pair_syncs += s.pair_syncs;
                st.eliminated += s.eliminated;
                pair_hits += c.stats.pair_hits;
                pair_misses += c.stats.pair_misses;
                let now = c.stats.fme;
                let was = seen.unwrap_or_default();
                fme.feas_hits += now.feas_hits - was.feas_hits;
                fme.feas_misses += now.feas_misses - was.feas_misses;
                fme.elim_misses += now.elim_misses - was.elim_misses;
                fme.unknown_verdicts += now.unknown_verdicts - was.unknown_verdicts;
                fme.scan_ns += now.scan_ns - was.scan_ns;
                fme.canon_ns += now.canon_ns - was.canon_ns;
                fme.query_ns += now.query_ns - was.query_ns;
                fme.peak_constraints = fme.peak_constraints.max(now.peak_constraints);
                match &mut seen {
                    Some(seen) => *seen = now,
                    None => entries += now.entries,
                }

                let span = ctx.rec.begin("core.fork_join", &inp.name);
                let t0 = Instant::now();
                std::hint::black_box(spmd_opt::fork_join(&inp.prog, &inp.bindings(WIDTHS[w])));
                fork_join_ms.push(ms_since(t0));
                ctx.rec.end(span);
            }
            ctx.rec.end(case);
        }
    }
    let parse_s = parse_us.iter().sum::<f64>() / 1e6;
    let queries = (fme.feas_hits + fme.feas_misses) as f64;
    let pairs = (pair_hits + pair_misses) as f64;
    let query_ms = fme.query_ns as f64 / 1e6;
    // The shared cache's size, or what the per-compile caches add up to.
    let cache_entries = seen.map_or(per_round(entries as f64), |s| s.entries as f64);
    m.extend([
        ("frontend.parse_us_p50", median(&parse_us)),
        ("frontend.tokens_per_s", ratio(tokens as f64, parse_s)),
        ("frontend.ir_nodes", per_round(ir_nodes as f64)),
        ("ineq.feas_queries", per_round(queries)),
        ("ineq.feas_hit_rate", ratio(fme.feas_hits as f64, queries)),
        ("ineq.elim_misses", per_round(fme.elim_misses as f64)),
        ("ineq.scan_ms", per_round(fme.scan_ns as f64 / 1e6)),
        ("ineq.canon_ms", per_round(fme.canon_ns as f64 / 1e6)),
        ("ineq.query_ms", per_round(query_ms)),
        ("ineq.peak_constraints", fme.peak_constraints as f64),
        (
            "ineq.unknown_verdicts",
            per_round(fme.unknown_verdicts as f64),
        ),
        ("ineq.cache_entries", cache_entries),
        ("analysis.pair_queries", per_round(pairs)),
        ("analysis.pair_hit_rate", ratio(pair_hits as f64, pairs)),
        ("analysis.check_parallel_ms", per_round(check_ms)),
        ("analysis.p64_over_p2", ratio(by_width[2], by_width[0])),
        ("core.optimize_ms_p50", median(&optimize_ms)),
        (
            "core.self_ms",
            per_round(optimize_ms.iter().sum::<f64>() - query_ms),
        ),
        ("core.fork_join_ms_p50", median(&fork_join_ms)),
        ("core.sites", per_round(sites as f64)),
        ("core.sites_eliminated", per_round(st.eliminated as f64)),
        ("core.static_barriers", per_round(st.barriers as f64)),
        ("core.static_neighbor", per_round(st.neighbor_syncs as f64)),
        ("core.static_counter", per_round(st.counter_syncs as f64)),
        ("core.static_pairwise", per_round(st.pair_syncs as f64)),
    ]);
}

/// What the observed runs of one plan add up to, over cases and reps.
#[derive(Default)]
struct Observed {
    stats: StatsSnapshot,
    wall_s: f64,
    dispatches: u64,
    /// Span time per category and pid, microseconds.
    work_us: Vec<u64>,
    dispatch_us: u64,
    sync_us: u64,
    profile_events: u64,
    profile_dropped: u64,
}

/// Per-layer metrics of the run side: per case and rep one sequential
/// run, one plain and one observed optimized run, one observed
/// fork-join run (all on real threads) and one virtual run.
fn run_layers(
    spec: &Spec,
    ready: &Ready,
    reps: usize,
    ctx: &mut Ctx,
    m: &mut BTreeMap<&'static str, f64>,
    procs: &mut Vec<ProcSpan>,
) {
    let p = thread_width();
    // A virtual-backend workload has no real-thread preparation yet.
    let own: Vec<Prepared>;
    let threaded: &[Prepared] = if spec.backend == Backend::Threads {
        &ready.cases
    } else {
        let span = ctx.rec.begin("setup", spec.name);
        own = spec
            .cases
            .iter()
            .filter_map(|inp| prepare(inp, p as i64, ctx))
            .collect();
        ctx.rec.end(span);
        &own
    };
    let observe = ObserveOptions {
        telemetry: true,
        trace: true,
        profile: Some(runtime::ProfileOptions::default()),
        ..ObserveOptions::default()
    };
    let plain = ObserveOptions::default();
    let n = threaded.len();
    let per_case = || vec![Vec::new(); n];
    let (mut seq, mut opt, mut unroll, mut mem_new, mut virt) =
        (per_case(), per_case(), per_case(), per_case(), per_case());
    let mut events = 0usize;
    let observed = || Observed {
        work_us: vec![0; p],
        ..Observed::default()
    };
    let (mut seen_opt, mut seen_fj) = (observed(), observed());
    for rep in 0..reps {
        for c in 0..n {
            let (inp, prep) = (&spec.cases[c], &threaded[c]);
            let case = ctx.rec.begin("case", &inp.name);

            let span = ctx.rec.begin("interp.mem_new", &inp.name);
            let t0 = Instant::now();
            std::hint::black_box(Mem::new(&inp.prog, &prep.bind));
            mem_new[c].push(ms_since(t0));
            ctx.rec.end(span);

            let span = ctx.rec.begin("interp.unroll", &inp.name);
            let t0 = Instant::now();
            let unrolled = interp::unroll(&inp.prog, &prep.bind, &prep.opt);
            unroll[c].push(ms_since(t0));
            ctx.rec.end(span);
            if rep == 0 {
                events += unrolled.len();
            }
            drop(unrolled);

            let mem = Mem::new(&inp.prog, &prep.bind);
            let span = ctx.rec.begin("interp.run_sequential", &inp.name);
            let t0 = Instant::now();
            interp::run_sequential(&inp.prog, &prep.bind, &mem);
            seq[c].push(t0.elapsed().as_secs_f64());
            ctx.rec.end(span);

            let backend = Backend::Threads;
            if let Some(r) = run_one(
                inp,
                prep,
                Plan::Optimized,
                backend,
                &ready.team,
                &plain,
                ctx,
            ) {
                opt[c].push(r.secs);
            }
            for (plan, seen) in [
                (Plan::Optimized, &mut seen_opt),
                (Plan::ForkJoin, &mut seen_fj),
            ] {
                let Some(r) = run_one(inp, prep, plan, backend, &ready.team, &observe, ctx) else {
                    continue;
                };
                let end_ns = ctx.rec.clock_ns();
                let o = r.outcome.expect("a real-thread run has an outcome");
                seen.stats.merge(&o.stats);
                seen.wall_s += r.secs;
                seen.dispatches += r.dispatches;
                if let Some(pd) = &o.profile {
                    seen.profile_events += pd.events.len() as u64;
                    seen.profile_dropped += pd.dropped;
                }
                // The run's own clock starts when the team is released.
                let origin_ns = end_ns.saturating_sub(o.elapsed.as_nanos() as u64);
                for (k, s) in o.spans.iter().enumerate() {
                    let us = s.end_us - s.start_us;
                    match s.cat {
                        SpanCat::Work => seen.work_us[s.pid] += us,
                        SpanCat::Dispatch => seen.dispatch_us += us,
                        SpanCat::Sync => seen.sync_us += us,
                    }
                    if rep == 0 && k < PROC_SPANS_PER_RUN {
                        procs.push(ProcSpan {
                            pid: s.pid,
                            name: s.name.clone(),
                            cat: s.cat.as_str(),
                            start_ns: origin_ns + s.start_us * 1000,
                            end_ns: origin_ns + s.end_us * 1000,
                        });
                    }
                }
            }

            let vprep = &ready.cases[c];
            let vbackend = Backend::Virtual(vprep.bind.nprocs);
            if let Some(r) = run_one(
                inp,
                vprep,
                Plan::Optimized,
                vbackend,
                &ready.team,
                &plain,
                ctx,
            ) {
                virt[c].push(r.secs);
            }
            ctx.rec.end(case);
        }
    }
    let per_rep = |x: f64| x / reps as f64;
    let (seq_s, opt_s) = (sum_of_medians(&seq), sum_of_medians(&opt));
    let work: Vec<f64> = seen_opt.work_us.iter().map(|&us| us as f64).collect();
    let work_total: f64 = work.iter().sum();
    let s = &seen_opt.stats;
    let wait_ns = s.barrier_wait_ns + s.neighbor_wait_ns + s.counter_wait_ns + s.pairwise_wait_ns;
    let ms = |ns: u64| per_rep(ns as f64 / 1e6);
    let count = |n: u64| per_rep(n as f64);
    m.extend([
        ("interp.seq_s", seq_s),
        ("interp.par_speedup", ratio(seq_s, opt_s)),
        ("interp.unroll_ms", sum_of_medians(&unroll)),
        ("interp.events", events as f64),
        ("interp.us_per_event", ratio(opt_s * 1e6, events as f64)),
        ("interp.mem_new_ms", sum_of_medians(&mem_new)),
        ("interp.virtual_s", sum_of_medians(&virt)),
        ("interp.work_ms", per_rep(work_total / 1e3)),
        (
            "interp.dispatch_ms",
            per_rep(seen_opt.dispatch_us as f64 / 1e3),
        ),
        (
            "interp.imbalance",
            ratio(
                work.iter().copied().fold(0.0, f64::max),
                work_total / p as f64,
            ),
        ),
        ("runtime.barrier_episodes", count(s.barrier_episodes)),
        ("runtime.barrier_wait_ms", ms(s.barrier_wait_ns)),
        ("runtime.neighbor_waits", count(s.neighbor_waits)),
        ("runtime.neighbor_wait_ms", ms(s.neighbor_wait_ns)),
        ("runtime.counter_waits", count(s.counter_waits)),
        ("runtime.counter_wait_ms", ms(s.counter_wait_ns)),
        ("runtime.pairwise_waits", count(s.pairwise_waits)),
        ("runtime.pairwise_wait_ms", ms(s.pairwise_wait_ns)),
        ("runtime.spin_rounds", count(s.spin_rounds)),
        ("runtime.yield_rounds", count(s.yield_rounds)),
        ("runtime.parks", count(s.parks)),
        (
            "runtime.blocked_share",
            ratio(wait_ns as f64 / 1e9, seen_opt.wall_s * p as f64),
        ),
        ("runtime.sync_ms", per_rep(seen_opt.sync_us as f64 / 1e3)),
        ("runtime.dispatches", count(seen_opt.dispatches)),
        (
            "runtime.fj_barrier_episodes",
            count(seen_fj.stats.barrier_episodes),
        ),
        ("runtime.fj_dispatches", count(seen_fj.dispatches)),
        (
            "obs.trace_overhead_x",
            ratio(seen_opt.wall_s, opt.iter().flatten().sum::<f64>()),
        ),
        ("obs.profile_events", count(seen_opt.profile_events)),
        ("obs.profile_dropped", count(seen_opt.profile_dropped)),
    ]);
}

/// The whole traced pass; returns the per-layer metrics and the
/// processor timelines for the trace file.
pub fn traced_pass(
    spec: &Spec,
    ready: &Ready,
    passes: usize,
    ctx: &mut Ctx,
) -> (BTreeMap<&'static str, f64>, Vec<ProcSpan>) {
    let mut m = BTreeMap::new();
    let mut procs = Vec::new();
    compile_layers(spec, ready, passes, ctx, &mut m);
    run_layers(spec, ready, passes, ctx, &mut m, &mut procs);
    ctx.watchdog.op(|| "runtime primitives".to_string());
    let span = ctx.rec.begin("runtime.primitives", spec.name);
    m.extend(prims::measure(thread_width()));
    ctx.rec.end(span);
    (m, procs)
}
