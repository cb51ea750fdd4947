//! `beopt` — the barrier-elimination driver.
//!
//! Reads a kernel in the text dialect (see `kernels/*.be`,
//! `kernels/suite/*.be` and the `ir::text` docs), runs the synchronization optimizer, and
//! reports the schedule. With `--run` it also executes both schedules
//! with virtual processors, verifies the optimized results against the
//! sequential semantics, and prints dynamic synchronization counts.
//!
//! Observability flags:
//!
//! * `--explain` renders the optimizer's per-sync-slot decision log —
//!   which elimination condition fired (or failed) at every phase
//!   boundary, loop bottom, and region end.
//! * `--report <path>` writes the run report (`-` for stdout): the
//!   decision log and the analysis counts, and with `--run` what the
//!   optimized schedule did on real threads (asking for a report is
//!   what runs it there) — per-site, per-processor wait cells, sync
//!   totals and the fault timeline — with a per-site wait table on
//!   stdout.
//! * `--profile` (with `--run`) records event rings during the
//!   real-thread run and the compile, runs an all-barrier baseline,
//!   prints the critical-path and observed-vs-predicted tables, and adds
//!   the episode facts to the report.
//! * `--trace-out <path>` writes a Chrome-trace (chrome://tracing /
//!   Perfetto) timeline with one track per processor — from the real
//!   threads when they ran, otherwise from the virtual interleaver's
//!   logical clock.
//!
//! ```sh
//! beopt kernels/jacobi.be --nprocs 4 --set n=64 --set tmax=10 \
//!     --run --explain --report report.json --trace-out trace.json
//! ```

use barrier_elim::analysis::Bindings;
use barrier_elim::frontend;
use barrier_elim::interp::{
    run_parallel_observed, run_parallel_supervised, run_sequential, run_virtual,
    run_virtual_traced, Mem, ObserveOptions, Replan, ScheduleOrder, SyncChaos,
};
use barrier_elim::ir::Program;
use barrier_elim::obs::{self, CompileSection, FaultReport, RunReport, RunSection, Rung};
use barrier_elim::oracle::{ChaosConfig, ChaosInjector, DropSpec};
use barrier_elim::runtime::events::{self, EventKind, ProfileData, ProfileOptions, Profiler};
use barrier_elim::runtime::{RetryPolicy, Team, NO_SITE};
use barrier_elim::spmd_opt::{
    demote_sites, fork_join, optimize, optimize_explained, render_plan, OptimizeOptions, SyncOp,
};
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    path: String,
    nprocs: i64,
    sets: Vec<(String, i64)>,
    run: bool,
    quiet: bool,
    explain: bool,
    report: Option<String>,
    trace_out: Option<String>,
    deadline_ms: Option<u64>,
    recover: bool,
    degrade: bool,
    max_attempts: Option<u32>,
    chaos_seed: Option<u64>,
    chaos_drop: Option<DropSpec>,
    profile: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: beopt <file.be> [--nprocs P] [--set sym=value]... [--run] [--quiet]\n\
         \x20            [--explain] [--report PATH] [--profile] [--trace-out PATH]\n\
         \n\
         --nprocs P          number of processors for analysis/execution (default 4)\n\
         --set sym=v         bind a symbolic constant (required for --run)\n\
         --run               execute baseline + optimized schedules and verify\n\
         --quiet             suppress the schedule listing (stats only)\n\
         --explain           print the per-sync-point decision log (why each\n\
         \x20                    barrier was kept, downgraded, or eliminated)\n\
         --report P          write the run report as JSON to P (- for stdout):\n\
         \x20                    the decision log and analysis counts; with\n\
         \x20                    --run the optimized schedule also runs on real\n\
         \x20                    threads, the per-sync-site wait table is\n\
         \x20                    printed, and the report holds its wait cells,\n\
         \x20                    totals and fault timeline\n\
         --profile           with --run: record lock-free event rings during\n\
         \x20                    the real-thread run (and the compile), run an\n\
         \x20                    all-barrier baseline, print the per-site\n\
         \x20                    critical-path and observed-vs-predicted tables,\n\
         \x20                    and add the episode facts to the report\n\
         --trace-out P       with --run: write a chrome://tracing timeline\n\
         \x20                    JSON to P\n\
         --deadline MS       with --run: execute on real threads under a\n\
         \x20                    watchdog; every blocking wait is bounded by MS\n\
         \x20                    milliseconds and a hang/panic becomes a printed\n\
         \x20                    failure report instead of a wedged process\n\
         --recover           with --run: execute under the self-healing\n\
         \x20                    supervisor — on a detected fault, roll back to\n\
         \x20                    the region checkpoint, demote the faulting site\n\
         \x20                    to a barrier, and retry with backoff; prints a\n\
         \x20                    fault report and exits 0 when the run\n\
         \x20                    completes (even after retries)\n\
         --degrade           with --run: execute under the total-availability\n\
         \x20                    supervisor — recovery plus permanent-loss\n\
         \x20                    classification, elastic team shrink, and the\n\
         \x20                    sequential fallback; prints a fault report\n\
         \x20                    and exits 0 whenever the run completes\n\
         \x20                    with verified results, even on a lower rung\n\
         \x20                    (--recover and --degrade are exclusive)\n\
         --max-attempts N    with --recover/--degrade: per-round retry budget\n\
         \x20                    (at least 1, default 9)\n\
         --chaos-seed S      with --run + --deadline: perturb every sync event\n\
         \x20                    with seeded benign chaos\n\
         --chaos-drop S:P:V  with --run + --deadline: drop processor P's posts\n\
         \x20                    at sync site S from dynamic visit V on (a\n\
         \x20                    persistent fault; without --recover this run\n\
         \x20                    fails, with it the supervisor absorbs it)"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        path: String::new(),
        nprocs: 4,
        sets: Vec::new(),
        run: false,
        quiet: false,
        explain: false,
        report: None,
        trace_out: None,
        deadline_ms: None,
        recover: false,
        degrade: false,
        max_attempts: None,
        chaos_seed: None,
        chaos_drop: None,
        profile: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--nprocs" => {
                args.nprocs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--set" => {
                let kv = it.next().unwrap_or_else(|| usage());
                let (k, v) = kv.split_once('=').unwrap_or_else(|| usage());
                let v: i64 = v.parse().unwrap_or_else(|_| usage());
                args.sets.push((k.to_string(), v));
            }
            "--run" => args.run = true,
            "--quiet" => args.quiet = true,
            "--explain" => args.explain = true,
            "--report" => args.report = Some(it.next().unwrap_or_else(|| usage())),
            "--trace-out" => args.trace_out = Some(it.next().unwrap_or_else(|| usage())),
            "--deadline" => {
                args.deadline_ms = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--recover" => args.recover = true,
            "--degrade" => args.degrade = true,
            "--max-attempts" => {
                args.max_attempts = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--chaos-seed" => {
                args.chaos_seed = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--chaos-drop" => {
                let spec = it.next().unwrap_or_else(|| usage());
                let parts: Vec<_> = spec.split(':').collect();
                let parse3 = || -> Option<DropSpec> {
                    let [s, p, v] = parts.as_slice() else {
                        return None;
                    };
                    Some(DropSpec {
                        site: s.parse().ok()?,
                        pid: p.parse().ok()?,
                        from_visit: v.parse().ok()?,
                    })
                };
                args.chaos_drop = Some(parse3().unwrap_or_else(|| usage()));
            }
            "--profile" => args.profile = true,
            "--help" | "-h" => usage(),
            _ if args.path.is_empty() && !a.starts_with('-') => args.path = a,
            _ => usage(),
        }
    }
    if args.path.is_empty() {
        usage();
    }
    if args.recover && args.degrade {
        eprintln!("beopt: --recover and --degrade are exclusive (--degrade recovers too)");
        std::process::exit(2);
    }
    // Flags that only mean something for an execution.
    let needs_run = [
        (args.deadline_ms.is_some(), "--deadline"),
        (args.recover, "--recover"),
        (args.degrade, "--degrade"),
        (args.chaos_seed.is_some(), "--chaos-seed"),
        (args.chaos_drop.is_some(), "--chaos-drop"),
        (args.profile, "--profile"),
        (args.trace_out.is_some(), "--trace-out"),
        (args.max_attempts.is_some(), "--max-attempts"),
    ];
    if let Some((_, flag)) = needs_run.iter().find(|(given, _)| *given && !args.run) {
        eprintln!("beopt: {flag} needs --run (it only applies to an execution)");
        std::process::exit(2);
    }
    match args.max_attempts {
        Some(_) if !args.recover && !args.degrade => {
            eprintln!(
                "beopt: --max-attempts needs --recover or --degrade (it is their retry budget)"
            );
            std::process::exit(2);
        }
        Some(0) => {
            eprintln!("beopt: --max-attempts 0: need at least one attempt");
            std::process::exit(2);
        }
        _ => {}
    }
    args
}

/// The bindings the flags describe, or why nothing can be compiled (or,
/// with `--run`, allocated) under them.
fn bindings_for(prog: &Program, args: &Args) -> Result<Bindings, String> {
    if args.nprocs < 1 {
        let p = args.nprocs;
        return Err(format!("--nprocs {p}: need at least one processor"));
    }
    let mut bind = Bindings::new(args.nprocs);
    for (name, value) in &args.sets {
        let Some(pos) = prog.syms.iter().position(|s| &s.name == name) else {
            return Err(format!("--set {name}: no such sym in the program"));
        };
        bind.bind(barrier_elim::ir::SymId(pos as u32), *value);
    }
    if args.run {
        for (k, s) in prog.syms.iter().enumerate() {
            if bind.get(barrier_elim::ir::SymId(k as u32)).is_none() {
                return Err(format!("--run needs --set {}=<value>", s.name));
            }
        }
    }
    // Cells one `Mem` holds; `None` once an extent does not evaluate (an
    // unbound sym, or `i64` overflow) or the count leaves `usize`.
    let mut cells = Some(0usize);
    for a in &prog.arrays {
        let copies = if a.privatizable { args.nprocs } else { 1 };
        let mut len = Some(copies as usize);
        for e in &a.extents {
            match bind.eval_const(e) {
                Some(v) if v < 0 => {
                    return Err(format!("array {}: extent {v} is negative", a.name))
                }
                Some(v) => len = len.and_then(|l| l.checked_mul(v as usize)),
                None => len = None,
            }
        }
        cells = cells.zip(len).and_then(|(c, l)| c.checked_add(l));
    }
    let fits = |n| Vec::<u64>::new().try_reserve_exact(n).is_ok();
    if args.run && !cells.is_some_and(fits) {
        return Err("--run: arrays too large to allocate".into());
    }
    Ok(bind)
}

fn write_output(path: &str, what: &str, content: &str) -> Result<(), ExitCode> {
    if path == "-" {
        print!("{content}");
        return Ok(());
    }
    if let Err(e) = std::fs::write(path, content) {
        eprintln!("beopt: cannot write {what} to {path}: {e}");
        return Err(ExitCode::FAILURE);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut report = None;
    let code = compile_and_run(&args, &mut report);
    if let (Some(path), Some(report)) = (&args.report, &report) {
        let doc = obs::report_json(report).to_string_pretty();
        if write_output(path, "run report", &doc).is_err() {
            return ExitCode::FAILURE;
        }
        if path != "-" {
            println!("report: run report written to {path}");
        }
    }
    code
}

/// Everything but writing the report: compile and print, and with
/// `--run` execute — both schedules on the virtual interleaver, checked
/// against the sequential semantics, then, when a report, a profile, a
/// watchdog or a supervisor asks for it, the optimized schedule on real
/// threads. `report` is filled in once there is a compile to report on.
fn compile_and_run(args: &Args, report: &mut Option<RunReport>) -> ExitCode {
    let src = match std::fs::read_to_string(&args.path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("beopt: cannot read {}: {e}", args.path);
            return ExitCode::FAILURE;
        }
    };
    let prog = match frontend::parse(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("beopt: {}: {e}", args.path);
            return ExitCode::FAILURE;
        }
    };
    let bind = match bindings_for(&prog, args) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("beopt: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Verify the DOALL markings before trusting them.
    let bad = barrier_elim::analysis::check_parallel_loops(&prog, &bind);
    if !bad.is_empty() {
        for node in &bad {
            let l = prog.expect_loop(*node);
            eprintln!(
                "beopt: warning: `doall {}` carries a dependence (treating results cautiously)",
                l.name
            );
        }
    }
    for w in barrier_elim::analysis::check_privatizable(&prog, &bind) {
        eprintln!("beopt: warning: {w}");
    }

    let oo = OptimizeOptions::default();
    // The ambient recorder is single-writer per track; the analysis runs
    // on this thread, so the pair probe fires here and nowhere else.
    let compile_profiler = args
        .profile
        .then(|| Arc::new(Profiler::new(1, ProfileOptions::default())));
    let guard = compile_profiler
        .as_ref()
        .map(|p| events::install(Arc::clone(p), 0));
    if guard.is_some() {
        barrier_elim::analysis::set_pair_probe(Some(Arc::new(|pr| {
            let kind = if pr.memo_hit {
                EventKind::FmeHit
            } else {
                EventKind::FmeMiss
            };
            events::emit(kind, NO_SITE, pr.elapsed_ns);
        })));
    }
    let (plan, log, stats) = optimize_explained(&prog, &bind, oo);
    if guard.is_some() {
        barrier_elim::analysis::set_pair_probe(None);
    }
    drop(guard);
    let compile_data: Option<ProfileData> = compile_profiler.as_ref().map(|p| p.snapshot());
    let base = fork_join(&prog, &bind);

    if !args.quiet {
        println!("--- optimized SPMD schedule ---");
        print!("{}", render_plan(&prog, &plan));
        println!();
    }

    if args.explain {
        print!("{}", obs::render_decisions(&prog, &log));
        println!();
        print!("{}", obs::render_analysis_stats(&stats));
        println!();
    }

    let st_b = base.static_stats();
    let st_o = plan.static_stats();
    println!(
        "static: fork-join {} barriers | optimized {} barriers, {} neighbor, {} counter, {} pairwise, {} eliminated",
        st_b.barriers,
        st_o.barriers,
        st_o.neighbor_syncs,
        st_o.counter_syncs,
        st_o.pair_syncs,
        st_o.eliminated
    );

    let report = report.insert(RunReport {
        program: prog.name.clone(),
        nprocs: args.nprocs as usize,
        compile: CompileSection {
            explain: obs::explain_json(&prog, args.nprocs, &plan, &base, &log),
            analysis: stats,
        },
        run: None,
        fault: None,
    });
    if !args.run {
        return ExitCode::SUCCESS;
    }

    let nprocs = args.nprocs as usize;
    let oracle = Mem::new(&prog, &bind);
    run_sequential(&prog, &bind, &oracle);
    let mem_b = Mem::new(&prog, &bind);
    let out_b = run_virtual(&prog, &bind, &base, &mem_b, ScheduleOrder::RoundRobin);

    // Optimized run: traced-virtual when a timeline is wanted (and real
    // threads are not providing one), plain-virtual otherwise.
    let mem_o = Mem::new(&prog, &bind);
    let want_virtual_trace = args.trace_out.is_some() && args.report.is_none();
    let (out_o, virt_spans) = if want_virtual_trace {
        let (o, s) = run_virtual_traced(&prog, &bind, &plan, &mem_o, ScheduleOrder::Reverse);
        (o, Some(s))
    } else {
        (
            run_virtual(&prog, &bind, &plan, &mem_o, ScheduleOrder::Reverse),
            None,
        )
    };
    let diff = mem_o.max_abs_diff(&oracle);
    println!(
        "dynamic: fork-join {} barriers, {} dispatches | optimized {} barriers, {} counters, {} neighbor posts, {} pairwise posts",
        out_b.counts.barriers,
        out_b.counts.dispatches,
        out_o.counts.barriers,
        out_o.counts.counter_increments,
        out_o.counts.neighbor_posts,
        out_o.counts.pair_posts,
    );
    if diff > 1e-9 {
        eprintln!("beopt: VERIFICATION FAILED: optimized results diverge by {diff:e}");
        return ExitCode::FAILURE;
    }
    println!("verify: optimized results match sequential execution (max diff {diff:e})");

    let mut spans: Option<Vec<obs::Span>> = virt_spans;
    let mut trace_source = "virtual interleaver (1 step = 1µs logical clock)";
    let mut run_stream: Option<ProfileData> = None;

    if args.report.is_some()
        || args.deadline_ms.is_some()
        || args.recover
        || args.degrade
        || args.profile
    {
        // Real-thread execution with per-site telemetry (and a timeline
        // if one was requested), optionally watchdog-guarded and/or
        // supervised by the self-healing recovery loop.
        let prog_a = Arc::new(prog.clone());
        let bind_a = Arc::new(bind.clone());
        let mem_p = Arc::new(Mem::new(&prog, &bind));
        let team = Team::new(nprocs);
        let chaos: Option<Arc<dyn SyncChaos>> =
            if args.chaos_seed.is_some() || args.chaos_drop.is_some() {
                Some(Arc::new(ChaosInjector::with_config(
                    args.chaos_seed.unwrap_or(0),
                    ChaosConfig {
                        drop: args.chaos_drop,
                        ..ChaosConfig::default()
                    },
                )))
            } else {
                None
            };
        if chaos.is_some() && args.deadline_ms.is_none() && !args.recover && !args.degrade {
            eprintln!("beopt: chaos injection needs --deadline (or --recover/--degrade), else a dropped post wedges the run");
            return ExitCode::FAILURE;
        }
        // Recovery needs bounded waits to detect faults at all: default
        // the watchdog when --recover/--degrade is given without
        // --deadline.
        let deadline_ms = match (args.deadline_ms, args.recover || args.degrade) {
            (Some(ms), _) => Some(ms),
            (None, true) => Some(250),
            (None, false) => None,
        };
        let opts = ObserveOptions {
            telemetry: true,
            trace: args.trace_out.is_some(),
            deadline: deadline_ms.map(std::time::Duration::from_millis),
            chaos,
            profile: args.profile.then(ProfileOptions::default),
        };
        // A supervised run's totals cover every attempt, where the
        // final outcome covers only the last.
        let (out_p, totals) = if args.recover || args.degrade {
            let policy = RetryPolicy {
                max_attempts: args
                    .max_attempts
                    .unwrap_or(RetryPolicy::default().max_attempts),
                ..RetryPolicy::default()
            };
            let replan: Replan = &|p, b| optimize(p, b);
            let mut s = run_parallel_supervised(
                &prog_a,
                &bind_a,
                &plan,
                &mem_p,
                &team,
                &opts,
                &policy,
                args.degrade.then_some(replan),
            );
            s.report.chaos_seed = args.chaos_seed;
            print!("{}", obs::render_fault(&s.report));
            if !s.report.rung.completed() {
                eprintln!(
                    "beopt: EXECUTION FAILED: recovery budget exhausted after {} attempt(s)",
                    s.report.attempts_used()
                );
                report.fault = Some(s.report);
                return ExitCode::FAILURE;
            }
            report.fault = Some(s.report);
            (s.outcome, s.total_stats)
        } else {
            let out_p = run_parallel_observed(&prog_a, &bind_a, &plan, &mem_p, &team, &opts);
            if let Some(failure) = &out_p.failure {
                let ms = deadline_ms.unwrap_or_default() as f64;
                let mut r =
                    FaultReport::detected(&prog.name, nprocs, ms, failure.clone(), out_p.stats);
                r.chaos_seed = args.chaos_seed;
                eprint!("{}", obs::render_fault(&r));
                eprintln!("beopt: EXECUTION FAILED: {}", failure.headline());
                report.fault = Some(r);
                return ExitCode::FAILURE;
            }
            let totals = out_p.stats;
            (out_p, totals)
        };
        let attempts_used = report.fault.as_ref().map_or(1, |r| r.attempts_used());
        let diff_p = mem_p.max_abs_diff(&oracle);
        if diff_p > 1e-9 {
            eprintln!("beopt: VERIFICATION FAILED: real-thread results diverge by {diff_p:e}");
            return ExitCode::FAILURE;
        }
        println!(
            "threads: optimized schedule on {} real threads in {:.3} ms{}{}",
            args.nprocs,
            out_p.elapsed.as_secs_f64() * 1e3,
            match deadline_ms {
                Some(ms) => format!(" (watchdog: {ms} ms per wait)"),
                None => String::new(),
            },
            if attempts_used > 1 {
                format!(" (attempt {attempts_used})")
            } else {
                String::new()
            }
        );
        println!();
        print!("{}", obs::render_site_table(&out_p.sites));
        let mut run = RunSection {
            totals,
            sites: out_p.sites,
            profile: None,
            observed_vs_predicted: None,
        };
        if let Some(data) = out_p.profile {
            let mut profile = obs::analyze(&data, nprocs);
            // The episodes' site ids name the compiled plan's slots. So
            // do the final attempt's cells, unless the supervisor shrank
            // the team (the plan was re-derived for fewer processors) or
            // finished serially: then the two do not join.
            let same_walk = report
                .fault
                .as_ref()
                .is_none_or(|f| matches!(f.rung, Rung::Clean | Rung::Recovered));
            println!();
            if same_walk {
                print!("{}", obs::render_profile(&profile, &run.sites));
                run.profile = Some(profile);
                // The observed-vs-predicted baseline: the *optimized*
                // plan with every decision-log site the optimizer
                // changed put back to a barrier. Same canonical walk, so
                // every site id joins 1:1 against the optimized run's
                // cells and episodes.
                let changed: Vec<usize> = log
                    .iter()
                    .filter(|d| !matches!(d.placed, SyncOp::Barrier))
                    .map(|d| d.site)
                    .collect();
                let mut base_plan = plan.clone();
                demote_sites(&mut base_plan, &changed);
                let mem_base = Arc::new(Mem::new(&prog, &bind));
                let bopts = ObserveOptions {
                    telemetry: true,
                    profile: Some(ProfileOptions::default()),
                    ..ObserveOptions::default()
                };
                let out_base =
                    run_parallel_observed(&prog_a, &bind_a, &base_plan, &mem_base, &team, &bopts);
                let baseline = RunSection {
                    totals: out_base.stats,
                    sites: out_base.sites,
                    profile: out_base.profile.as_ref().map(|d| obs::analyze(d, nprocs)),
                    observed_vs_predicted: None,
                };
                let rows = obs::observed_vs_predicted(&log, &baseline, &run);
                println!();
                print!("{}", obs::render_saved_wait(&rows));
                run.observed_vs_predicted = Some(rows);
            } else {
                print!("{}", obs::render_profile(&profile, &[]));
                println!();
                println!("--- observed vs predicted ---");
                println!(
                    "(not joined: the final attempt did not run the compiled plan at P={nprocs})"
                );
                // The report keeps the stream accounting and marks, not
                // episode facts under site ids the cells do not share.
                profile.sites.clear();
                run.profile = Some(profile);
            }
            if let Some(cd) = &compile_data {
                let cm = obs::analyze(cd, 1).marks;
                println!(
                    "compile: {} pair queries ({} warm, {} fresh), {:.2} ms in analysis probes",
                    cm.fme_hits + cm.fme_misses,
                    cm.fme_hits,
                    cm.fme_misses,
                    (cm.fme_hit_ns + cm.fme_miss_ns) as f64 / 1e6
                );
            }
            run_stream = Some(data);
        }
        if args.trace_out.is_some() {
            spans = Some(out_p.spans);
            trace_source = "real threads (wall-clock µs)";
        }
        report.run = Some(run);
    }

    if let Some(path) = &args.trace_out {
        let spans = spans.unwrap_or_default();
        let run = run_stream.as_ref().zip(report.run.as_ref());
        let tb = obs::invocation_trace(&prog.name, nprocs, compile_data.as_ref(), spans, run);
        if write_output(path, "trace JSON", &tb.to_json().to_string_compact()).is_err() {
            return ExitCode::FAILURE;
        }
        println!(
            "trace: {} spans from {trace_source} written to {path} (load in chrome://tracing or ui.perfetto.dev)",
            tb.len()
        );
    }

    ExitCode::SUCCESS
}
