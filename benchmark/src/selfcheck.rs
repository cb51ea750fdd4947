//! Modes that run the workloads in fresh processes: the all-workloads
//! table and the self-check that measures the benchmark against itself.

use crate::report::{declared, MetricDef};
use crate::stats::{median, spread, within_bound, worsening};
use crate::Args;
use obs::Json;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

/// The result line of one child run.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Run one workload in a fresh process of this executable, echo its
/// report, and parse the result line that ends it.
fn child(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no path to this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("{workload}: cannot start: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (report, last) = text.trim_end().rsplit_once('\n').unwrap_or(("", &text));
    println!("{report}");
    if !out.status.success() {
        return Err(format!("{workload}: exited with {}", out.status));
    }
    let doc = obs::parse(last.trim()).map_err(|e| format!("{workload}: no result line: {e}"))?;
    let Some(Json::Obj(pairs)) = doc.get("metrics") else {
        return Err(format!("{workload}: the result line has no metrics"));
    };
    Ok(Outcome {
        correct: doc.get("correct").and_then(Json::as_bool) == Some(true),
        attempted: doc.get("attempted").and_then(Json::as_u64).unwrap_or(0),
        failed: doc.get("failed").and_then(Json::as_u64).unwrap_or(0),
        metrics: pairs
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_num()?)))
            .collect(),
    })
}

/// One row per metric, one column per workload.
fn print_side_by_side(defs: &[MetricDef], columns: &[(String, Outcome)]) {
    print!("{:<28} {:<6}", "metric", "unit");
    for (name, _) in columns {
        print!(" {name:>16}");
    }
    println!();
    for d in defs {
        print!("{:<28} {:<6}", d.name, d.unit);
        for (_, o) in columns {
            match o.metrics.get(&d.name) {
                Some(v) => print!(" {v:>16.6}"),
                None => print!(" {:>16}", "-"),
            }
        }
        println!();
    }
    print!("{:<28} {:<6}", "failed_ops / ops", "count");
    for (_, o) in columns {
        print!(" {:>16}", format!("{} / {}", o.failed, o.attempted));
    }
    println!();
}

/// Every workload, each in its own process; with `--trace` a traced
/// pass per workload follows its untraced run.
pub fn run_all(args: &Args) -> ExitCode {
    let decl = declared();
    let mut ok = true;
    for trace in [false, true] {
        if trace && !args.trace {
            break;
        }
        let mut columns = Vec::new();
        for w in &decl.workloads {
            match child(args, w, args.seed, trace) {
                Ok(o) => {
                    ok &= o.correct;
                    columns.push((w.to_string(), o));
                }
                Err(e) => {
                    eprintln!("e2e-benchmark: {e}");
                    ok = false;
                }
            }
        }
        let defs = if trace {
            &decl.per_layer
        } else {
            &decl.end_to_end
        };
        println!();
        print_side_by_side(defs, &columns);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Measure the benchmark against itself: two sets of `--runs` untraced
/// runs per workload (seeds `seed..seed + runs`, the same in both
/// sets), each run in a fresh process. A metric passes when the second
/// set's median is not worse than the first's by more than its bound
/// and — given the four runs a quartile needs, and `setup_s` apart —
/// when each set's interquartile spread stays within the bound too.
pub fn selfcheck(args: &Args) -> ExitCode {
    let decl = declared();
    // values[set][workload][metric]
    let mut values = [BTreeMap::new(), BTreeMap::new()];
    let mut ok = true;
    for set in &mut values {
        for run in 0..args.runs {
            for w in &decl.workloads {
                match child(args, w, args.seed + run as u64, false) {
                    Ok(o) => {
                        ok &= o.correct;
                        let by_metric: &mut BTreeMap<String, Vec<f64>> =
                            set.entry(w.as_str()).or_default();
                        for (k, v) in o.metrics {
                            by_metric.entry(k).or_default().push(v);
                        }
                    }
                    Err(e) => {
                        eprintln!("e2e-benchmark: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }
    println!(
        "\nself-check: two sets of {} run(s) per workload\n{:<16} {:<20} {:>14} {:>14} {:>9} {:>9} {:>9} {:>8}",
        args.runs, "workload", "metric", "first", "second", "worse %", "spread %", "bound %", ""
    );
    for w in &decl.workloads {
        for d in &decl.end_to_end {
            let bound = d.bound.unwrap_or(0.0);
            let sets = values.each_ref().map(|s| {
                &s.get(w.as_str())
                    .and_then(|m| m.get(&d.name))
                    .expect("every run reported it")[..]
            });
            let [a, b] = sets.map(median);
            // Quartiles need four runs to mean anything.
            let widest = sets
                .iter()
                .filter_map(|s| spread(s))
                .reduce(f64::max)
                .filter(|_| args.runs >= 4);
            let steady = d.name == "setup_s" || widest.is_none_or(|s| s <= bound);
            let pass = within_bound(a, b, d.better, bound) && steady;
            ok &= pass;
            println!(
                "{:<16} {:<20} {:>14.6} {:>14.6} {:>9.2} {:>9} {:>9.4} {:>8}",
                w,
                d.name,
                a,
                b,
                100.0 * worsening(a, b, d.better),
                widest.map_or("-".to_string(), |s| format!("{:.2}", 100.0 * s)),
                100.0 * bound,
                if pass { "PASS" } else { "FAIL" }
            );
        }
    }
    if ok {
        println!("self-check PASSED");
        ExitCode::SUCCESS
    } else {
        println!("self-check FAILED");
        ExitCode::FAILURE
    }
}
