//! Failure-repro bundles.
//!
//! When a fuzz case fails, printing the seed alone forces whoever
//! triages it to rebuild the whole pipeline state by hand. A repro
//! bundle captures everything needed to see the failure at a glance:
//! the program text, the optimizer's full decision log (which
//! elimination condition fired at every sync slot), and a
//! chrome://tracing timeline of the optimized schedule under an
//! adversarial interleaving.

use crate::gen::GenProgram;
use interp::{run_virtual_traced, Mem, ScheduleOrder};
use obs::{FaultReport, Json, TraceBuilder};
use spmd_opt::{fork_join, optimize_logged};
use std::io;
use std::path::{Path, PathBuf};

/// Write a repro bundle for `g` under `dir/seed-<seed>/` and return the
/// bundle directory. Contents:
///
/// * `case.txt` — seed, shape, nprocs, chaos seed (when a fault
///   injector was active), and the reported failures;
/// * `program.txt` — the generated program, pretty-printed;
/// * `decisions.json` — the explain pass (one decision per sync slot);
/// * `trace.json` — the optimized schedule's timeline under the reverse
///   (adversarial) virtual interleaving, loadable in chrome://tracing;
/// * `failure.json` — the [`FaultReport`]s of every real-thread run
///   that timed out, was poisoned, or lost a worker (only written when
///   there are any).
pub fn dump_repro(
    dir: &Path,
    g: &GenProgram,
    nprocs: i64,
    failures: &[String],
    reports: &[FaultReport],
) -> io::Result<PathBuf> {
    let bundle = dir.join(format!("seed-{}", g.seed));
    std::fs::create_dir_all(&bundle)?;

    let mut case = format!("seed: {}\nshape: {:?}\nnprocs: {nprocs}\n", g.seed, g.shape);
    if let Some(chaos) = reports.iter().find_map(|r| r.chaos_seed) {
        case.push_str(&format!("chaos seed: {chaos}\n"));
    }
    case.push_str("\nfailures:\n");
    for f in failures {
        case.push_str("  ");
        case.push_str(f);
        case.push('\n');
    }
    std::fs::write(bundle.join("case.txt"), case)?;
    if !reports.is_empty() {
        let doc = Json::Arr(reports.iter().map(obs::fault_json).collect());
        std::fs::write(bundle.join("failure.json"), doc.to_string_pretty())?;
    }
    std::fs::write(bundle.join("program.txt"), ir::pretty::pretty(&g.prog))?;

    let bind = g.bindings(nprocs);
    let (plan, log) = optimize_logged(&g.prog, &bind);
    let base = fork_join(&g.prog, &bind);
    let doc = obs::explain_json(&g.prog, nprocs, &plan, &base, &log);
    std::fs::write(bundle.join("decisions.json"), doc.to_string_pretty())?;

    let mem = Mem::new(&g.prog, &bind);
    let (_, spans) = run_virtual_traced(&g.prog, &bind, &plan, &mem, ScheduleOrder::Reverse);
    let mut tb = TraceBuilder::new(&g.prog.name, nprocs as usize);
    tb.extend(spans);
    std::fs::write(bundle.join("trace.json"), tb.to_json().to_string_compact())?;

    Ok(bundle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_contains_all_four_artifacts() {
        let g = crate::generate(7);
        let dir = std::env::temp_dir().join(format!("be-repro-test-{}", std::process::id()));
        let bundle =
            dump_repro(&dir, &g, 4, &["example failure".to_string()], &[]).expect("dump_repro");
        for name in ["case.txt", "program.txt", "decisions.json", "trace.json"] {
            let p = bundle.join(name);
            assert!(p.is_file(), "missing {name}");
            assert!(std::fs::metadata(&p).unwrap().len() > 0, "{name} is empty");
        }
        // No reports -> no failure.json.
        assert!(!bundle.join("failure.json").exists());
        // Both JSON artifacts must parse back.
        for name in ["decisions.json", "trace.json"] {
            let src = std::fs::read_to_string(bundle.join(name)).unwrap();
            obs::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        let case = std::fs::read_to_string(bundle.join("case.txt")).unwrap();
        assert!(case.contains("seed: 7") && case.contains("example failure"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failure_reports_land_in_the_bundle() {
        use obs::{FailureCause, FailureReport};
        let g = crate::generate(9);
        let dir = std::env::temp_dir().join(format!("be-repro-fail-{}", std::process::id()));
        let failure = FailureReport {
            cause: FailureCause::Panic {
                pid: 1,
                message: "example".to_string(),
            },
            site_label: String::new(),
            per_proc: vec!["ok".to_string(); 4],
            sites: Vec::new(),
        };
        let stats = Default::default();
        let mut report = FaultReport::detected(&g.prog.name, 4, 250.0, failure, stats);
        report.chaos_seed = Some(42);
        let bundle = dump_repro(&dir, &g, 4, &["boom".to_string()], &[report]).expect("dump_repro");
        let case = std::fs::read_to_string(bundle.join("case.txt")).unwrap();
        assert!(case.contains("chaos seed: 42"));
        let src = std::fs::read_to_string(bundle.join("failure.json")).unwrap();
        let doc = obs::parse(&src).expect("failure.json parses");
        match doc {
            Json::Arr(items) => {
                assert_eq!(items.len(), 1);
                assert_eq!(items[0].get("chaos_seed").unwrap().as_u64(), Some(42));
                assert_eq!(items[0].get("rung").unwrap().as_str(), Some("failed"));
            }
            other => panic!("expected array, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
