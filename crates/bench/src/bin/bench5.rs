//! Analysis-performance regression harness: `BENCH_5.json`.
//!
//! For every suite kernel, runs the optimizer twice — once in the
//! uncached reference configuration and once with the memoized
//! analysis (a cold cache per kernel) — and records per-kernel wall-clock,
//! cache hit rates, and the peak live constraint count of the guarded
//! Fourier-Motzkin scans.
//!
//! The harness is also a correctness gate: the plan rendering and the
//! full decision log of the two configurations must be identical for
//! every kernel. Any divergence is printed and the process exits 1 —
//! caching is required to be a pure speed knob.
//!
//! Usage: `bench5 [--quick] [--out PATH] [--baseline PATH] [--nprocs P]`
//!   --quick    Test-scale kernels and fewer repetitions (CI smoke mode)
//!   --out      output path (default BENCH_5.json; `-` for stdout)
//!   --baseline prior BENCH_5.json to compare against; refused unless
//!              its `schema_version` matches this binary's
//!   --nprocs   processor count for the analysis bindings (default 8)

use obs::Json;
use spmd_opt::{
    optimize_explained, optimize_explained_shared, render_plan, AnalysisConfig, OptimizeOptions,
};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use suite::Scale;

struct KernelRow {
    name: &'static str,
    uncached_us: f64,
    cached_us: f64,
    pair_hit_rate: f64,
    fme_hit_rate: f64,
    peak_constraints: usize,
    unknown_verdicts: u64,
    matches: bool,
}

/// Best-of-`reps` wall-clock (microseconds) plus the last run's outputs.
fn run_config(
    prog: &ir::Program,
    bind: &analysis::Bindings,
    cfg: AnalysisConfig,
    reps: usize,
) -> (f64, String, String, analysis::AnalysisStats) {
    let opts = OptimizeOptions {
        analysis: cfg,
        ..Default::default()
    };
    let mut best = f64::INFINITY;
    let mut rendered = String::new();
    let mut log_str = String::new();
    let mut stats = analysis::AnalysisStats::default();
    for _ in 0..reps {
        let t0 = Instant::now();
        let (plan, log, st) = optimize_explained(prog, bind, opts);
        let dt = t0.elapsed().as_secs_f64() * 1e6;
        best = best.min(dt);
        rendered = render_plan(prog, &plan);
        log_str = log
            .iter()
            .map(|d| format!("{d:?}\n"))
            .collect::<Vec<_>>()
            .concat();
        stats = st;
    }
    (best, rendered, log_str, stats)
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut out_path = "BENCH_5.json".to_string();
    let mut nprocs: i64 = 8;
    let mut baseline_path: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = it.next().expect("--out needs a path"),
            "--baseline" => baseline_path = Some(it.next().expect("--baseline needs a path")),
            "--nprocs" => {
                nprocs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--nprocs needs an integer")
            }
            other => {
                eprintln!("bench5: unknown argument {other}");
                eprintln!("usage: bench5 [--quick] [--out PATH] [--baseline PATH] [--nprocs P]");
                return ExitCode::from(2);
            }
        }
    }
    // Resolve (and, on schema mismatch, refuse) the baseline up front,
    // before spending minutes measuring.
    let baseline = match &baseline_path {
        Some(p) => match spmd_bench::load_baseline(p, "analysis-cache-regression") {
            Ok(doc) => Some(doc),
            Err(e) => {
                eprintln!("bench5: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let (scale, reps) = if quick {
        (Scale::Test, 1)
    } else {
        (Scale::Small, 3)
    };

    let mut rows: Vec<KernelRow> = Vec::new();
    let mut references: Vec<(String, String)> = Vec::new();
    let mut instances: Vec<(ir::Program, analysis::Bindings)> = Vec::new();
    let mut diverged = false;
    for def in suite::all() {
        let (built, bind) = spmd_bench::instance(&def, scale, nprocs);
        let (unc_us, unc_plan, unc_log, _) = run_config(
            &built.prog,
            &bind,
            AnalysisConfig::sequential_uncached(),
            reps,
        );
        let (cad_us, cad_plan, cad_log, stats) =
            run_config(&built.prog, &bind, AnalysisConfig::default(), reps);
        let matches = unc_plan == cad_plan && unc_log == cad_log;
        if !matches {
            diverged = true;
            eprintln!(
                "bench5: DIVERGENCE on kernel {}: cached output differs from the uncached \
                 reference",
                def.name
            );
            if unc_plan != cad_plan {
                eprintln!("--- reference plan ---\n{unc_plan}--- cached plan ---\n{cad_plan}");
            }
            if unc_log != cad_log {
                eprintln!("--- reference log ---\n{unc_log}--- cached log ---\n{cad_log}");
            }
        }
        rows.push(KernelRow {
            name: def.name,
            uncached_us: unc_us,
            cached_us: cad_us,
            pair_hit_rate: stats.pair_hit_rate(),
            fme_hit_rate: stats.fme.feas_hit_rate(),
            peak_constraints: stats.fme.peak_constraints,
            unknown_verdicts: stats.fme.unknown_verdicts,
            matches,
        });
        references.push((unc_plan, unc_log));
        instances.push((built.prog, bind));
    }

    // Compilation-session measurement: optimize the whole suite in one
    // pass sharing a single FME memo across kernels (fresh per rep, so
    // only genuine cross-kernel reuse is measured), against the same
    // pass with caching off. Each kernel's output is still checked
    // against the sequential uncached reference.
    let session_opts = OptimizeOptions::default();
    let unc_opts = OptimizeOptions {
        analysis: AnalysisConfig::sequential_uncached(),
        ..Default::default()
    };
    let mut session_unc_us = f64::INFINITY;
    let mut session_cad_us = f64::INFINITY;
    let mut session_stats = analysis::AnalysisStats::default();
    for _ in 0..reps {
        let t0 = Instant::now();
        for (prog, bind) in &instances {
            let _ = optimize_explained(prog, bind, unc_opts);
        }
        session_unc_us = session_unc_us.min(t0.elapsed().as_secs_f64() * 1e6);

        let fme = Arc::new(ineq::FmeCache::new());
        let t0 = Instant::now();
        let mut last = analysis::AnalysisStats::default();
        for (prog, bind) in &instances {
            let (_, _, st) = optimize_explained_shared(prog, bind, session_opts, &fme);
            last = st;
        }
        session_cad_us = session_cad_us.min(t0.elapsed().as_secs_f64() * 1e6);
        session_stats = last;
    }
    // Warm-recompilation measurement: the incremental-rebuild scenario.
    // One untimed pass populates the shared memo, then the whole suite
    // is recompiled against the warm cache. Every feasibility query now
    // hits at level 1, so this bounds what memoization alone buys when
    // the same kernels are analyzed again (edit-recompile loops, build
    // servers keeping the cache across runs).
    let warm_fme = Arc::new(ineq::FmeCache::new());
    for (prog, bind) in &instances {
        let _ = optimize_explained_shared(prog, bind, session_opts, &warm_fme);
    }
    let mut session_warm_us = f64::INFINITY;
    let mut warm_stats = analysis::AnalysisStats::default();
    for _ in 0..reps {
        let t0 = Instant::now();
        let mut last = analysis::AnalysisStats::default();
        for (prog, bind) in &instances {
            let (_, _, st) = optimize_explained_shared(prog, bind, session_opts, &warm_fme);
            last = st;
        }
        session_warm_us = session_warm_us.min(t0.elapsed().as_secs_f64() * 1e6);
        warm_stats = last;
    }

    {
        // Correctness gate for the shared-cache pass (outside timing).
        let fme = Arc::new(ineq::FmeCache::new());
        for (k, (prog, bind)) in instances.iter().enumerate() {
            let (plan, log, _) = optimize_explained_shared(prog, bind, session_opts, &fme);
            let plan = render_plan(prog, &plan);
            let log = log
                .iter()
                .map(|d| format!("{d:?}\n"))
                .collect::<Vec<_>>()
                .concat();
            if (plan, log) != references[k] {
                diverged = true;
                eprintln!(
                    "bench5: DIVERGENCE on kernel {} under the shared session cache",
                    rows[k].name
                );
            }
        }
    }

    let total_unc: f64 = rows.iter().map(|r| r.uncached_us).sum();
    let total_cad: f64 = rows.iter().map(|r| r.cached_us).sum();
    let speedup = if total_cad > 0.0 {
        total_unc / total_cad
    } else {
        0.0
    };

    let mut table = spmd_bench::Table::new(&[
        "kernel",
        "uncached us",
        "cached us",
        "speedup",
        "fme hit",
        "peak",
    ]);
    for r in &rows {
        table.row(vec![
            r.name.to_string(),
            format!("{:.0}", r.uncached_us),
            format!("{:.0}", r.cached_us),
            format!(
                "{:.2}x",
                if r.cached_us > 0.0 {
                    r.uncached_us / r.cached_us
                } else {
                    0.0
                }
            ),
            format!("{:.0}%", r.fme_hit_rate * 100.0),
            r.peak_constraints.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "total: uncached {:.1} ms, cold-cached {:.1} ms, speedup {:.2}x",
        total_unc / 1e3,
        total_cad / 1e3,
        speedup
    );
    let session_speedup = if session_cad_us > 0.0 {
        session_unc_us / session_cad_us
    } else {
        0.0
    };
    println!(
        "session (shared cache across all {} kernels): uncached {:.1} ms, cached {:.1} ms, \
         speedup {:.2}x, fme hit {:.0}%",
        rows.len(),
        session_unc_us / 1e3,
        session_cad_us / 1e3,
        session_speedup,
        session_stats.fme.feas_hit_rate() * 100.0
    );
    println!(
        "session cache internals: total {:.1} ms, canonicalize {:.1} ms, scans {:.1} ms, \
         saved {:.1} ms, {} queries, {} entries",
        session_stats.fme.query_ns as f64 / 1e6,
        session_stats.fme.canon_ns as f64 / 1e6,
        session_stats.fme.scan_ns as f64 / 1e6,
        session_stats.fme.saved_ns as f64 / 1e6,
        session_stats.fme.feas_hits + session_stats.fme.feas_misses,
        session_stats.fme.entries
    );
    let warm_speedup = if session_warm_us > 0.0 {
        session_unc_us / session_warm_us
    } else {
        0.0
    };
    println!(
        "warm recompilation (memo kept across builds): {:.1} ms vs uncached {:.1} ms, \
         speedup {:.2}x, fme hit {:.0}%",
        session_warm_us / 1e3,
        session_unc_us / 1e3,
        warm_speedup,
        warm_stats.fme.feas_hit_rate() * 100.0
    );

    let kernels: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::obj()
                .set("name", r.name)
                .set("uncached_us", r.uncached_us)
                .set("cached_us", r.cached_us)
                .set(
                    "speedup",
                    if r.cached_us > 0.0 {
                        r.uncached_us / r.cached_us
                    } else {
                        0.0
                    },
                )
                .set("pair_hit_rate", r.pair_hit_rate)
                .set("fme_hit_rate", r.fme_hit_rate)
                .set("peak_constraints", r.peak_constraints as f64)
                .set("unknown_verdicts", r.unknown_verdicts as f64)
                .set("decisions_match_reference", r.matches)
        })
        .collect();
    let doc = Json::obj()
        .set("bench", "analysis-cache-regression")
        .set("mode", if quick { "quick" } else { "full" })
        .set("nprocs", nprocs as f64)
        .set("reps", reps as f64)
        .set("kernels", Json::Arr(kernels))
        .set(
            "total",
            Json::obj()
                .set("uncached_us", total_unc)
                .set("cached_us", total_cad)
                .set("speedup", speedup),
        )
        .set(
            "session",
            Json::obj()
                .set("uncached_us", session_unc_us)
                .set("cached_us", session_cad_us)
                .set("speedup", session_speedup)
                .set("fme_hit_rate", session_stats.fme.feas_hit_rate())
                .set("fme_entries", session_stats.fme.entries as f64),
        )
        .set(
            "warm_recompile",
            Json::obj()
                .set("uncached_us", session_unc_us)
                .set("warm_us", session_warm_us)
                .set("speedup", warm_speedup)
                .set("fme_hit_rate", warm_stats.fme.feas_hit_rate()),
        )
        .set("diverged", diverged);
    let doc = spmd_bench::stamp_schema(doc);
    let rendered = doc.to_string_pretty();
    if out_path == "-" {
        println!("{rendered}");
    } else if let Err(e) = std::fs::write(&out_path, rendered + "\n") {
        eprintln!("bench5: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    } else {
        println!("bench5: wrote {out_path}");
    }

    if let Some(base) = &baseline {
        let prev = base
            .get("total")
            .and_then(|t| t.get("speedup"))
            .and_then(|s| s.as_num())
            .unwrap_or(0.0);
        println!(
            "baseline {}: total cache speedup {prev:.2}x then, {speedup:.2}x now",
            baseline_path.as_deref().unwrap_or("-"),
        );
    }

    if diverged {
        eprintln!("bench5: FAILED — the cached analysis changed optimizer output");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
