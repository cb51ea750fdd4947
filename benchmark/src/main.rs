//! Elapsed-time benchmark: compile + run, fork-join vs optimized, with
//! a per-layer breakdown. See `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
//!     [--selfcheck [--runs R]]
//! ```
//!
//! With `--workload` the process measures that workload and ends its
//! standard output with one JSON result line; without it, it runs every
//! workload in a fresh process each (so `peak_rss_mb` is per workload)
//! and prints them side by side.

mod inputs;
mod layers;
mod prims;
mod report;
mod selfcheck;
mod spans;
mod stats;
mod workload;

use inputs::Rng;
use obs::Json;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::Ctx;

const USAGE: &str = "usage: e2e-benchmark [--workload W] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--quick] [--selfcheck [--runs R]]";

/// The command line.
#[derive(Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    /// Measured window per workload; `BENCHMARK.json`'s `run_seconds`
    /// when absent.
    pub seconds: Option<f64>,
    pub trace: bool,
    /// One rep, one round, one set-up: a correctness smoke run.
    pub quick: bool,
    pub selfcheck: bool,
    /// Runs per set of the self-check.
    pub runs: usize,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 0,
        seconds: None,
        trace: false,
        quick: false,
        selfcheck: false,
        runs: 1,
    };
    let mut it = argv.peekable();
    fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
        v.as_deref()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("{flag} needs a value"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = Some(value(&flag, it.next())?),
            "--seed" => a.seed = value(&flag, it.next())?,
            "--seconds" => {
                let s: f64 = value(&flag, it.next())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                a.seconds = Some(s);
            }
            // `--trace` alone switches the traced pass on; the driver
            // passes an explicit 0 or 1.
            "--trace" => match it.peek().map(String::as_str) {
                Some("0") => {
                    it.next();
                    a.trace = false;
                }
                Some("1") => {
                    it.next();
                    a.trace = true;
                }
                _ => a.trace = true,
            },
            "--quick" => a.quick = true,
            "--selfcheck" => a.selfcheck = true,
            "--runs" => a.runs = value::<usize>(&flag, it.next())?.max(1),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.selfcheck && a.quick {
        return Err(
            "--selfcheck compares full runs against the bounds; --quick has none".to_string(),
        );
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.selfcheck {
        return selfcheck::selfcheck(&args);
    }
    match &args.workload {
        Some(name) => match workload::spec(name) {
            Some(spec) => match run_workload(&spec, &args) {
                Ok(result_line) => {
                    println!("{result_line}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("e2e-benchmark: {e}");
                    ExitCode::FAILURE
                }
            },
            None => {
                eprintln!(
                    "e2e-benchmark: no workload `{name}`; one of {:?}",
                    report::declared().workloads
                );
                ExitCode::from(2)
            }
        },
        None => selfcheck::run_all(&args),
    }
}

/// Measure one workload in this process, print its report, and return
/// the result line that must end the output.
fn run_workload(spec: &workload::Spec, args: &Args) -> Result<String, String> {
    let decl = report::declared();
    let window = Duration::from_secs_f64(if args.quick {
        0.0
    } else {
        args.seconds.unwrap_or(decl.run_seconds)
    });
    let mut ctx = Ctx {
        tally: workload::Tally::default(),
        watchdog: workload::Watchdog::start(),
        rec: spans::Recorder::new(args.trace),
        rng: Rng::new(args.seed),
    };

    // Set-up runs several times so that `setup_s` is a median — three
    // times, and up to nine while they take under two seconds in all;
    // the last one is kept. Each is dropped before the next starts, so
    // peak memory is that of one.
    let mut setup_s = Vec::new();
    let mut ready = None;
    let setups_began = Instant::now();
    while ready.is_none()
        || !args.quick
            && (setup_s.len() < 3
                || setup_s.len() < 9 && setups_began.elapsed() < Duration::from_secs(2))
    {
        drop(ready.take());
        let t0 = Instant::now();
        ready = Some(workload::setup(spec, &mut ctx));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let ready = ready.expect("set-up ran at least once");
    if ready.cases.len() != spec.cases.len() {
        return Err(format!("set-up failed: {:?}", ctx.tally.notes));
    }

    let stamp = |fields: Json| {
        report::provenance(
            fields
                .set("workload", spec.name)
                .set("seed", args.seed)
                .set("seconds", window.as_secs_f64())
                .set("quick", args.quick)
                .set("trace", args.trace)
                .set(
                    "inputs_fingerprint",
                    inputs::fingerprint(spec.inputs.iter().chain(&spec.cases)),
                ),
        )
    };
    // The untraced window. A traced invocation keeps a short one, with
    // recording off, for the metrics that only exist untraced.
    ctx.rec.set_enabled(false);
    let start = Instant::now();
    let (warmup, min_rounds, min_reps, window) = if args.quick {
        (0, 1, 1, Duration::ZERO)
    } else if args.trace {
        (1, 3, 3, window.min(Duration::from_secs(5)))
    } else {
        (2, workload::MIN_ROUNDS, spec.min_reps, window)
    };
    let limits = workload::Limits {
        warmup,
        min_rounds,
        min_reps,
        deadline: start + window,
    };
    let samples = workload::measure(spec, &ready, limits, &mut ctx);
    let mut metrics = workload::end_to_end(&samples);
    if spec.verify > 0 {
        metrics.insert(
            "dyn_barriers_opt",
            workload::verify_virtual(spec, &ready, &mut ctx) as f64,
        );
    }
    metrics.insert("setup_s", stats::median(&setup_s));
    metrics.insert("peak_rss_mb", report::peak_rss_mb());
    let meta = stamp(
        Json::obj()
            .set("rounds", samples.rounds.len())
            .set(
                "compile_samples",
                samples.rounds.iter().map(Vec::len).sum::<usize>(),
            )
            .set("reps", samples.opt.first().map_or(0, Vec::len))
            .set("measured_s", start.elapsed().as_secs_f64()),
    );
    println!("provenance {}", meta.to_string_compact());
    println!(
        "  {:<32} {:>10} {:>10} {:>8}",
        "case (median ms)", "optimized", "fork-join", "fj/opt"
    );
    for (c, inp) in spec.cases.iter().enumerate() {
        let (opt, fj) = (
            stats::median(&samples.opt[c]),
            stats::median(&samples.fj[c]),
        );
        println!(
            "  {:<32} {:>10.3} {:>10.3} {:>8.3}",
            inp.name,
            opt * 1e3,
            fj * 1e3,
            fj / opt
        );
    }

    if args.trace {
        ctx.rec.set_enabled(true);
        let passes = if args.quick { 1 } else { 3 };
        let (traced, procs) = layers::traced_pass(spec, &ready, passes, &mut ctx);
        metrics.extend(traced);
        print_span_table(&ctx.rec);
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/trace-{}.json", spec.name);
        let doc = spans::chrome_trace(spec.name, &ctx.rec, &procs, meta);
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, doc.to_string_compact()))
        {
            Ok(()) => println!("trace written to {path}"),
            Err(e) => eprintln!("e2e-benchmark: cannot write {path}: {e}"),
        }
    }

    println!(
        "{}: {} ops, {} failed",
        spec.name, ctx.tally.ops, ctx.tally.failed
    );
    for note in &ctx.tally.notes {
        println!("  FAILED {note}");
    }
    // Everything measured is printed; the result line carries the list
    // the mode calls for.
    println!(" end to end (untraced, gated):");
    report::print_metrics(&decl.end_to_end, &metrics);
    println!(" per layer (informational):");
    report::print_metrics(&decl.per_layer, &metrics);
    let defs = if args.trace {
        &decl.per_layer
    } else {
        &decl.end_to_end
    };
    Ok(report::result_line(
        defs,
        &metrics,
        ctx.tally.ops,
        ctx.tally.failed,
    ))
}

/// Per span name: count, wall time and self time (span minus its
/// children), and how much of the `case` spans their children cover.
fn print_span_table(rec: &spans::Recorder) {
    let totals = rec.totals();
    println!(
        "  {:<24} {:>8} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (name, t) in &totals {
        println!(
            "  {:<24} {:>8} {:>12.3} {:>12.3}",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    if let Some(case) = totals.get("case").filter(|c| c.total_ns > 0) {
        println!(
            "  children cover {:.2}% of the case spans ({:.3} ms unattributed)",
            100.0 * (1.0 - case.self_ns as f64 / case.total_ns as f64),
            case.self_ns as f64 / 1e6
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse("--workload exec_finegrain --seed 7 --seconds 24 --trace 0").unwrap();
        assert_eq!(a.workload.as_deref(), Some("exec_finegrain"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(24.0), false));
        assert!(parse("--trace 1").unwrap().trace);
        assert!(parse("--trace --quick").unwrap().trace);
        assert!(parse("--trace --quick").unwrap().quick);
        assert!(parse("--seconds -1").is_err());
        assert!(parse("--frobnicate").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--selfcheck --quick").is_err());
    }

    /// `result_line` panics on a declared metric that was not measured,
    /// so a quick run of each mode checks `BENCHMARK.json` against the
    /// harness — and that the inputs still pass their own checks.
    #[test]
    fn a_quick_run_measures_every_declared_metric() {
        let spec = workload::spec("exec_finegrain").unwrap();
        for trace in ["--trace 0", "--trace 1"] {
            let args = parse(&format!("--quick --seed 5 {trace}")).unwrap();
            let line = run_workload(&spec, &args).unwrap();
            let doc = obs::parse(&line).unwrap();
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{line}");
            assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
            let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                panic!("no metrics in {line}");
            };
            let decl = report::declared();
            let defs = if args.trace {
                &decl.per_layer
            } else {
                &decl.end_to_end
            };
            assert_eq!(metrics.len(), defs.len());
        }
    }
}
