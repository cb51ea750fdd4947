//! End-to-end total-availability tests: the degradation supervisor on
//! every shipped `.be` kernel, plus the `beopt --run --degrade`
//! exit-code contract.
//!
//! The unit tests in `interp::supervise` cover the ladder mechanics;
//! these tests cover the tool-level promise — under a *persistent*
//! kill-pid chaos policy (any pid silently dead, or pid 0 panicking
//! forever, which survives every team shrink and forces the serial
//! tail), every kernel under both plan families still completes with
//! memory **bitwise** equal to the sequential oracle, and the
//! degradation report records which rung finished the job.

use barrier_elim::analysis::Bindings;
use barrier_elim::frontend;
use barrier_elim::interp::{run_parallel_supervised, Mem, ObserveOptions, Replan, SyncChaos};
use barrier_elim::ir::{Program, SymId};
use barrier_elim::obs::{render_fault, Rung};
use barrier_elim::oracle::{degrade_check, KillMode, KillPidChaos};
use barrier_elim::runtime::{RetryPolicy, Team};
use barrier_elim::spmd_opt::{fork_join, optimize, SpmdProgram};
use std::sync::Arc;
use std::time::Duration;

fn load(
    kernel: &str,
    sets: &[(&str, i64)],
    nprocs: i64,
) -> (Arc<barrier_elim::ir::Program>, Arc<Bindings>) {
    let src = std::fs::read_to_string(format!("kernels/{kernel}")).unwrap();
    let prog = frontend::parse(&src).unwrap_or_else(|e| panic!("{kernel}: {e}"));
    let mut bind = Bindings::new(nprocs);
    for (name, v) in sets {
        let pos = prog
            .syms
            .iter()
            .position(|s| &s.name == name)
            .unwrap_or_else(|| panic!("sym {name} missing"));
        bind.bind(SymId(pos as u32), *v);
    }
    (Arc::new(prog), Arc::new(bind))
}

/// Tight budgets keep the full kill matrix fast; the sticky classifier
/// needs two strikes, so three attempts per round is plenty.
fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(2),
    }
}

const DEADLINE: Duration = Duration::from_millis(120);

/// The acceptance property of the tentpole, for one kernel: every pid
/// silently killed (plus pid 0 panic-killed — the forced worst case)
/// under both plan families, and every run must complete bitwise
/// oracle-exact, on a degraded rung, with the rung recorded in the
/// report.
fn kill_matrix(kernel: &str, sets: &[(&str, i64)]) {
    let (prog, bind) = load(kernel, sets, 4);
    let team = Team::new(4);
    type Replan = fn(&Program, &Bindings) -> SpmdProgram;
    let plans: [(&str, SpmdProgram, Replan); 2] = [
        ("fork-join", fork_join(&prog, &bind), fork_join),
        ("optimized", optimize(&prog, &bind), optimize),
    ];
    for (label, plan, replan) in plans {
        let r = degrade_check(
            &prog,
            &bind,
            &plan,
            &team,
            DEADLINE,
            0.0,
            &fast_policy(),
            &replan,
        );
        assert!(
            r.ok(),
            "{kernel} {label} kill matrix failed: {:?}",
            r.failures()
        );
        // Every pid once, silently, plus the panic kill of P0.
        assert_eq!(r.runs.len(), 5);
        for run in &r.runs {
            let rung = run.report.rung;
            assert!(rung.completed(), "{kernel} {label}: P{} kill", run.pid);
            assert_eq!(
                run.diff,
                0.0,
                "{kernel} {label}: P{} {} kill not bitwise",
                run.pid,
                run.mode.as_str()
            );
            // The report records the rung that finished the job, and a
            // killed pid never yields a clean run.
            assert!(
                rung != Rung::Clean,
                "{kernel} {label}: kill absorbed silently"
            );
            assert_eq!(run.report.widths[0], 4);
            assert!(render_fault(&run.report).contains(&format!("rung    : {}", rung.name())));
        }
        // P0 exists at every width: its panic kill must descend all
        // the way to the sequential tail.
        let worst = r
            .runs
            .iter()
            .find(|k| k.mode == KillMode::Panic)
            .expect("campaign includes the panic kill");
        assert_eq!(worst.pid, 0);
        assert_eq!(worst.report.rung, Rung::Serial, "{kernel} {label}");
        assert_eq!(worst.report.nprocs_final(), 1);
    }
}

#[test]
fn broadcast_survives_every_kill_pid_policy() {
    kill_matrix("broadcast.be", &[("n", 12)]);
}

#[test]
fn jacobi_survives_every_kill_pid_policy() {
    kill_matrix("jacobi.be", &[("n", 48), ("tmax", 4)]);
}

#[test]
fn pipeline_survives_every_kill_pid_policy() {
    kill_matrix("pipeline.be", &[("n", 16), ("tmax", 3)]);
}

#[test]
fn private_gather_survives_every_kill_pid_policy() {
    kill_matrix("private_gather.be", &[("n", 10)]);
}

#[test]
fn shallow_survives_every_kill_pid_policy() {
    kill_matrix("shallow.be", &[("n", 12), ("tmax", 2)]);
}

/// Losing the top pid is recoverable by a single shrink: the report's
/// timeline shows the classification round at full width and the
/// completing round one narrower, with the plan re-derived at the new
/// width.
#[test]
fn shrink_timeline_is_recorded_round_by_round() {
    let (prog, bind) = load("jacobi.be", &[("n", 48), ("tmax", 4)], 4);
    let team = Team::new(4);
    let plan = optimize(&prog, &bind);
    let oracle = Mem::new(&prog, &bind);
    barrier_elim::interp::run_sequential(&prog, &bind, &oracle);
    let mem = Arc::new(Mem::new(&prog, &bind));
    let chaos: Arc<dyn SyncChaos> = Arc::new(KillPidChaos {
        pid: 3,
        mode: KillMode::Silent,
    });
    let replan: Replan = &|p, b| optimize(p, b);
    let d = run_parallel_supervised(
        &prog,
        &bind,
        &plan,
        &mem,
        &team,
        &ObserveOptions {
            deadline: Some(DEADLINE),
            chaos: Some(chaos),
            ..ObserveOptions::default()
        },
        &fast_policy(),
        Some(replan),
    );
    let rep = &d.report;
    assert_eq!(rep.rung, Rung::Shrunk);
    assert_eq!(rep.nprocs_final(), 3);
    assert_eq!(rep.procs_lost(), 1);
    assert_eq!(mem.max_abs_diff(&oracle), 0.0, "bitwise");
    assert_eq!(rep.widths, [4, 3]);
    assert_eq!(rep.rounds[0].lost_pid, Some(3));
    let completing = rep.rounds[1].attempts.last().unwrap();
    assert!(completing.failure.is_none());
    // The rendered timeline tells the same story.
    let txt = render_fault(rep);
    assert!(txt.contains("rung    : shrunk"), "{txt}");
    assert!(txt.contains("P3 classified as permanent loss"), "{txt}");
    assert!(txt.contains("round P=3: completed"), "{txt}");
    assert!(txt.contains("oracle-exact"), "{txt}");
}

mod cli {
    use super::*;
    use barrier_elim::oracle::droppable_posts;
    use std::process::Command;

    fn beopt(args: &[&str]) -> std::process::Output {
        Command::new(env!("CARGO_BIN_EXE_beopt"))
            .args(args)
            .output()
            .expect("spawn beopt")
    }

    /// Satellite: a degraded-but-completed run is a *successful* run —
    /// exit 0, with the degradation report on stdout. Profiled, the run
    /// report joins episodes and cells only while the final attempt ran
    /// the compiled plan at the compiled width.
    #[test]
    fn degrade_flag_turns_a_persistent_drop_into_exit_zero() {
        // A drop the optimized jacobi plan is guaranteed to wedge on:
        // the last precisely-attributable post of the schedule.
        let (prog, bind) = load("jacobi.be", &[("n", 48), ("tmax", 4)], 4);
        let plan = optimize(&prog, &bind);
        let spec = droppable_posts(&prog, &bind, &plan)
            .pop()
            .expect("jacobi has droppable posts")
            .spec;
        let drop = format!("{}:{}:{}", spec.site, spec.pid, spec.from_visit);
        let report =
            std::env::temp_dir().join(format!("beopt-degrade-{}.json", std::process::id()));
        let out = beopt(&[
            "kernels/jacobi.be",
            "--nprocs",
            "4",
            "--set",
            "n=48",
            "--set",
            "tmax=4",
            "--run",
            "--quiet",
            "--degrade",
            "--deadline",
            "150",
            "--chaos-drop",
            &drop,
            "--profile",
            "--report",
            report.to_str().unwrap(),
        ]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "beopt --degrade must exit 0 on a degraded-but-completed run:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains("--- fault report ---"), "{stdout}");
        assert!(stdout.contains("rung    :"), "{stdout}");
        assert!(
            stdout.contains("run completed with oracle-exact memory"),
            "{stdout}"
        );

        let text = std::fs::read_to_string(&report).unwrap();
        std::fs::remove_file(&report).unwrap();
        let doc = barrier_elim::obs::parse(&text).unwrap();
        let rung = doc.get("fault").and_then(|f| f.get("rung"));
        let rung = rung.and_then(|r| r.as_str()).unwrap();
        let joined = matches!(rung, "clean" | "recovered");
        let run = doc.get("run").unwrap();
        assert_eq!(run.get("observed_vs_predicted").is_some(), joined, "{rung}");
        let sites = run.get("sites").and_then(|s| s.as_arr()).unwrap();
        let with_episodes = sites.iter().any(|s| s.get("episodes").is_some());
        assert_eq!(with_episodes, joined, "{rung}");
        assert_eq!(stdout.contains("(not joined:"), !joined, "{stdout}");
    }

    /// A clean run under `--degrade` stays on the top rung and also
    /// exits 0.
    #[test]
    fn degrade_flag_is_a_no_op_on_a_clean_run() {
        let out = beopt(&[
            "kernels/shallow.be",
            "--nprocs",
            "4",
            "--set",
            "n=12",
            "--set",
            "tmax=2",
            "--run",
            "--quiet",
            "--degrade",
        ]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains("rung    : clean"), "{stdout}");
    }

    /// `--degrade` already recovers: asking for both is a usage error,
    /// one `beopt:` line and exit 2, not a silent pick.
    #[test]
    fn recover_and_degrade_together_is_a_usage_error() {
        let out = beopt(&[
            "kernels/shallow.be",
            "--set",
            "n=12",
            "--set",
            "tmax=2",
            "--run",
            "--recover",
            "--degrade",
        ]);
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        assert!(stderr.starts_with("beopt: "), "{stderr}");
        assert!(stderr.contains("--recover and --degrade"), "{stderr}");
        assert!(out.stdout.is_empty());
    }
}
