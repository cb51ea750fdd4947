//! End-to-end tests for the observability subsystem: golden snapshots
//! of the explain pass for every shipped kernel (alone and inside the
//! run report), Chrome-trace shape checks, per-site telemetry
//! attribution, the run report's round-trip and version, and byte-level
//! determinism of the decision log and of `beopt --report`.
//!
//! Regenerate the goldens with
//! `UPDATE_GOLDEN=1 cargo test --test observability`.

use barrier_elim::analysis::Bindings;
use barrier_elim::frontend;
use barrier_elim::interp::{
    run_parallel_observed, run_parallel_supervised, run_virtual_traced, Mem, ObserveOptions,
    ScheduleOrder,
};
use barrier_elim::ir::{Program, SymId};
use barrier_elim::obs::{self, CompileSection, Json, RunReport, RunSection, TraceBuilder};
use barrier_elim::oracle::{droppable_posts, ChaosConfig, ChaosInjector};
use barrier_elim::runtime::events::ProfileOptions;
use barrier_elim::runtime::{RetryPolicy, Team};
use barrier_elim::spmd_opt::{
    demote_sites, fork_join, optimize_explained, optimize_logged, placed_str, sync_sites,
    OptimizeOptions, SyncOp,
};
use std::sync::Arc;
use std::time::Duration;

fn load(kernel: &str) -> Program {
    let src = std::fs::read_to_string(format!("kernels/{kernel}")).unwrap();
    frontend::parse(&src).unwrap_or_else(|e| panic!("{kernel}: {e}"))
}

fn bind_by_name(prog: &Program, nprocs: i64, sets: &[(&str, i64)]) -> Bindings {
    let mut b = Bindings::new(nprocs);
    for (name, v) in sets {
        let pos = prog
            .syms
            .iter()
            .position(|s| &s.name == name)
            .unwrap_or_else(|| panic!("sym {name} missing"));
        b.bind(SymId(pos as u32), *v);
    }
    b
}

const KERNELS: &[(&str, &[(&str, i64)])] = &[
    ("jacobi.be", &[("n", 48), ("tmax", 4)]),
    ("pipeline.be", &[("n", 16), ("tmax", 3)]),
    ("broadcast.be", &[("n", 12)]),
    ("shallow.be", &[("n", 12), ("tmax", 2)]),
    ("private_gather.be", &[("n", 10)]),
];

fn explain_doc(kernel: &str, sets: &[(&str, i64)], nprocs: i64) -> (Program, Json) {
    let prog = load(kernel);
    let bind = bind_by_name(&prog, nprocs, sets);
    let (plan, log) = optimize_logged(&prog, &bind);
    let base = fork_join(&prog, &bind);
    let doc = obs::explain_json(&prog, nprocs, &plan, &base, &log);
    (prog, doc)
}

// --- golden snapshots of the explain pass -------------------------------

fn check_explain_golden(kernel: &str, sets: &[(&str, i64)]) {
    let (_, doc) = explain_doc(kernel, sets, 4);
    let actual = doc.to_string_pretty();
    let path = format!(
        "tests/golden/explain_{}.json",
        kernel.trim_end_matches(".be")
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all("tests/golden").unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path}: {e} (run with UPDATE_GOLDEN=1 to create)"));
    assert_eq!(
        actual, expected,
        "{kernel}: explain output drifted from {path}; rerun with UPDATE_GOLDEN=1 if intended"
    );
    // The run report carries the same document as its compile.explain,
    // so the golden pins the report too.
    let (_, _, report) = compile_report(kernel, sets);
    let doc = obs::report_json(&report);
    let explain = doc.get("compile").and_then(|c| c.get("explain")).unwrap();
    assert_eq!(
        explain.to_string_pretty(),
        expected,
        "{kernel}: the report's compile.explain differs from {path}"
    );
}

/// A kernel compiled at P = 4 the way `beopt` compiles it, with its
/// compile-only run report.
fn compile_report(kernel: &str, sets: &[(&str, i64)]) -> (Arc<Program>, Arc<Bindings>, RunReport) {
    let prog = load(kernel);
    let bind = bind_by_name(&prog, 4, sets);
    let (plan, log, analysis) = optimize_explained(&prog, &bind, OptimizeOptions::default());
    let explain = obs::explain_json(&prog, 4, &plan, &fork_join(&prog, &bind), &log);
    let report = RunReport {
        program: prog.name.clone(),
        nprocs: 4,
        compile: CompileSection { explain, analysis },
        run: None,
        fault: None,
    };
    (Arc::new(prog), Arc::new(bind), report)
}

#[test]
fn explain_golden_jacobi() {
    check_explain_golden("jacobi.be", &[("n", 48), ("tmax", 4)]);
}

#[test]
fn explain_golden_pipeline() {
    check_explain_golden("pipeline.be", &[("n", 16), ("tmax", 3)]);
}

#[test]
fn explain_golden_broadcast() {
    check_explain_golden("broadcast.be", &[("n", 12)]);
}

#[test]
fn explain_golden_shallow() {
    check_explain_golden("shallow.be", &[("n", 12), ("tmax", 2)]);
}

#[test]
fn explain_golden_private_gather() {
    check_explain_golden("private_gather.be", &[("n", 10)]);
}

// --- decision-log structure and determinism -----------------------------

/// Every sync the optimizer actually placed is explained by a decision
/// whose `placed` matches the plan, and every baseline barrier has at
/// least as many decisions accounting for it.
#[test]
fn decisions_account_for_every_placed_sync_and_baseline_barrier() {
    for (kernel, sets) in KERNELS {
        let prog = load(kernel);
        let bind = bind_by_name(&prog, 4, sets);
        let (plan, log) = optimize_logged(&prog, &bind);
        let sites = sync_sites(&prog, &plan);
        for d in &log {
            let site = &sites[d.site];
            assert_eq!(site.label, d.label, "{kernel}: site label mismatch");
            assert_eq!(
                placed_str(&site.op),
                d.placed_str(),
                "{kernel}: decision at s{} disagrees with the plan",
                d.site
            );
        }
        // A decision may explain an eliminated slot, but every slot that
        // kept some sync must be explained.
        let explained: Vec<usize> = log.iter().map(|d| d.site).collect();
        for s in &sites {
            if !matches!(s.op, barrier_elim::spmd_opt::SyncOp::None) {
                assert!(
                    explained.contains(&s.id),
                    "{kernel}: sync at s{} ({}) placed without a decision",
                    s.id,
                    s.label
                );
            }
        }
        let base_barriers = fork_join(&prog, &bind).static_stats().barriers;
        assert!(
            log.len() >= base_barriers,
            "{kernel}: {} decisions cannot cover {base_barriers} baseline barriers",
            log.len()
        );
    }
}

#[test]
fn explain_json_is_byte_identical_across_runs() {
    for (kernel, sets) in KERNELS {
        let (_, a) = explain_doc(kernel, sets, 4);
        let (_, b) = explain_doc(kernel, sets, 4);
        assert_eq!(
            a.to_string_pretty(),
            b.to_string_pretty(),
            "{kernel}: decision log is not deterministic"
        );
    }
}

// --- Chrome-trace shape -------------------------------------------------

/// The trace document must be parseable JSON with, per processor track:
/// one thread-name metadata record, non-decreasing timestamps, and
/// strictly balanced B/E span nesting.
#[test]
fn virtual_trace_is_valid_chrome_trace_json() {
    let prog = load("jacobi.be");
    let bind = bind_by_name(&prog, 4, &[("n", 48), ("tmax", 4)]);
    let (plan, _) = optimize_logged(&prog, &bind);
    let mem = Mem::new(&prog, &bind);
    let (_, spans) = run_virtual_traced(&prog, &bind, &plan, &mem, ScheduleOrder::Reverse);
    assert!(!spans.is_empty());
    let mut tb = TraceBuilder::new(&prog.name, 4);
    tb.extend(spans);
    let text = tb.to_json().to_string_compact();

    let doc = obs::parse(&text).expect("trace must round-trip through the JSON parser");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let mut meta_tracks = Vec::new();
    let mut last_ts = [0u64; 4];
    let mut depth = [0i64; 4];
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
        let tid = ev.get("tid").and_then(Json::as_u64).expect("tid") as usize;
        assert!(tid < 4, "unknown track {tid}");
        match ph {
            "M" => meta_tracks.push(tid),
            "B" | "E" => {
                let ts = ev.get("ts").and_then(Json::as_u64).expect("ts");
                assert!(
                    ts >= last_ts[tid],
                    "timestamps must be non-decreasing per track"
                );
                last_ts[tid] = ts;
                depth[tid] += if ph == "B" { 1 } else { -1 };
                assert!(depth[tid] >= 0, "E without a matching B on track {tid}");
                assert!(
                    ev.get("name").and_then(Json::as_str).is_some(),
                    "span without a name"
                );
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    meta_tracks.sort_unstable();
    assert_eq!(meta_tracks, vec![0, 1, 2, 3], "one thread name per track");
    assert!(depth.iter().all(|&d| d == 0), "unbalanced spans");
}

// --- per-site telemetry -------------------------------------------------

/// Real-thread telemetry cells line up with the canonical site walk:
/// ids are dense, labels match, eliminated slots record nothing, and
/// sync work is attributed where the plan placed it.
#[test]
fn real_thread_telemetry_attributes_waits_to_canonical_sites() {
    let prog = Arc::new(load("jacobi.be"));
    let bind = Arc::new(bind_by_name(&prog, 4, &[("n", 48), ("tmax", 4)]));
    let (plan, _) = optimize_logged(&prog, &bind);
    let sites = sync_sites(&prog, &plan);
    let mem = Arc::new(Mem::new(&prog, &bind));
    let team = Team::new(4);
    let out = run_parallel_observed(
        &prog,
        &bind,
        &plan,
        &mem,
        &team,
        &ObserveOptions {
            telemetry: true,
            ..ObserveOptions::default()
        },
    );
    assert_eq!(out.sites.len(), sites.len());
    for (snap, site) in out.sites.iter().zip(&sites) {
        assert_eq!(snap.meta.id, site.id);
        assert_eq!(snap.meta.label, site.label);
        assert_eq!(snap.meta.op, placed_str(&site.op));
        if matches!(site.op, barrier_elim::spmd_opt::SyncOp::None) {
            assert_eq!(
                snap.total.ops, 0,
                "eliminated slot s{} recorded ops",
                site.id
            );
        } else {
            assert!(
                snap.total.ops > 0,
                "live sync s{} recorded nothing",
                site.id
            );
            // The histogram must account for every recorded wait.
            let hist_total: u64 = snap.total.hist.iter().sum();
            assert_eq!(hist_total, snap.total.waits);
            assert!(snap.total.max_wait_ns <= snap.total.wait_ns);
        }
    }
    // The run report built from these cells parses and keeps the site
    // ordering, one row per canonical site.
    let (_, _, mut report) = compile_report("jacobi.be", &[("n", 48), ("tmax", 4)]);
    report.run = Some(RunSection {
        totals: out.stats,
        sites: out.sites.clone(),
        profile: None,
        observed_vs_predicted: None,
    });
    let text = obs::report_json(&report).to_string_pretty();
    let parsed = obs::parse(&text).expect("the run report must parse");
    let rows = parsed.get("run").and_then(|r| r.get("sites"));
    let ids: Vec<u64> = rows
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|s| s.get("site").and_then(Json::as_u64).unwrap())
        .collect();
    assert_eq!(ids, (0..sites.len() as u64).collect::<Vec<_>>());
}

// --- the run report -----------------------------------------------------

/// `schema_version` is the document's first member.
fn leading_version(doc: &Json) -> Option<u64> {
    let Json::Obj(members) = doc else {
        return None;
    };
    let (key, value) = members.first()?;
    (key == "schema_version").then(|| value.as_u64())?
}

/// Three reports — compile-only, profiled, and supervised through a
/// persistent drop — each round-trip through the parser and lead with
/// the version the fault report carries.
#[test]
fn run_reports_round_trip_and_share_the_fault_version() {
    let jacobi = [("n", 48), ("tmax", 4)];
    let team = Team::new(4);
    let (prog, bind, compile_only) = compile_report("jacobi.be", &jacobi);

    // Profiled: the optimized plan and its demoted baseline, with cells
    // and event rings on, joined into observed-vs-predicted rows.
    let (plan, log) = optimize_logged(&prog, &bind);
    let opts = ObserveOptions {
        telemetry: true,
        profile: Some(ProfileOptions::default()),
        ..ObserveOptions::default()
    };
    let measure = |plan| {
        let mem = Arc::new(Mem::new(&prog, &bind));
        let out = run_parallel_observed(&prog, &bind, plan, &mem, &team, &opts);
        assert!(out.ok());
        RunSection {
            totals: out.stats,
            profile: out.profile.as_ref().map(|d| obs::analyze(d, 4)),
            sites: out.sites,
            observed_vs_predicted: None,
        }
    };
    let changed: Vec<usize> = log
        .iter()
        .filter(|d| !matches!(d.placed, SyncOp::Barrier))
        .map(|d| d.site)
        .collect();
    let mut base_plan = plan.clone();
    demote_sites(&mut base_plan, &changed);
    let baseline = measure(&base_plan);
    let mut run = measure(&plan);
    let rows = obs::observed_vs_predicted(&log, &baseline, &run);
    assert_eq!(rows.len(), changed.len());
    run.observed_vs_predicted = Some(rows);
    let mut profiled = compile_only.clone();
    profiled.run = Some(run);

    // Supervised: the last droppable post of the plan, persistently
    // dropped, absorbed by the site ladder.
    let drop = droppable_posts(&prog, &bind, &plan).pop().unwrap().spec;
    let chaos = ChaosConfig {
        drop: Some(drop),
        ..ChaosConfig::default()
    };
    let guarded = ObserveOptions {
        telemetry: true,
        deadline: Some(Duration::from_millis(150)),
        chaos: Some(Arc::new(ChaosInjector::with_config(7, chaos))),
        ..ObserveOptions::default()
    };
    let policy = RetryPolicy {
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
        ..RetryPolicy::default()
    };
    let mem = Arc::new(Mem::new(&prog, &bind));
    let s = run_parallel_supervised(&prog, &bind, &plan, &mem, &team, &guarded, &policy, None);
    assert!(s.report.attempts_used() > 1, "the drop never bit");
    let fault_version = leading_version(&obs::fault_json(&s.report));
    let mut supervised = compile_only.clone();
    supervised.run = Some(RunSection {
        totals: s.total_stats,
        sites: s.outcome.sites,
        profile: None,
        observed_vs_predicted: None,
    });
    supervised.fault = Some(s.report);

    assert_eq!(fault_version, Some(obs::SCHEMA_VERSION as u64));
    for (label, report) in [
        ("compile-only", &compile_only),
        ("profiled", &profiled),
        ("supervised", &supervised),
    ] {
        let doc = obs::report_json(report);
        let text = doc.to_string_pretty();
        assert_eq!(obs::parse(&text).unwrap(), doc, "{label}: no round trip");
        assert_eq!(leading_version(&doc), fault_version, "{label}");
    }
    let profiled = obs::report_json(&profiled);
    let run = profiled.get("run").unwrap();
    assert!(run.get("profile").is_some());
    assert!(run.get("observed_vs_predicted").is_some());
    let supervised = obs::report_json(&supervised);
    let fault = supervised.get("fault").unwrap();
    assert_eq!(leading_version(fault), fault_version);
    assert_eq!(fault.get("rung").and_then(Json::as_str), Some("recovered"));
}

mod cli {
    use std::process::{Command, Output};

    fn beopt(args: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_beopt"))
            .args(args)
            .output()
            .expect("spawn beopt")
    }

    /// Two compile-only reports of one kernel are the same bytes.
    #[test]
    fn compile_only_reports_are_byte_identical() {
        let dir = std::env::temp_dir().join(format!("beopt-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let files = ["a.json", "b.json"].map(|f| dir.join(f));
        for path in &files {
            let path = path.to_str().unwrap();
            let out = beopt(&[
                "kernels/jacobi.be",
                "--nprocs",
                "4",
                "--quiet",
                "--report",
                path,
            ]);
            assert!(out.status.success(), "{out:?}");
        }
        let [a, b] = files.map(|f| std::fs::read(f).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(!a.is_empty());
        assert!(a == b, "two compile-only reports differ");
    }

    /// Every flag that only means something for an execution is refused
    /// without `--run`, in one `beopt:` line and a nonzero exit, before
    /// anything is printed; a compile-only report is fine.
    #[test]
    fn run_only_flags_need_run() {
        for flag in [
            &["--deadline", "100"][..],
            &["--recover"],
            &["--degrade"],
            &["--chaos-seed", "1"],
            &["--chaos-drop", "1:1:1"],
            &["--profile"],
            &["--trace-out", "t.json"],
            &["--max-attempts", "3"],
        ] {
            let out = beopt(&[&["kernels/jacobi.be"][..], flag].concat());
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "{flag:?} accepted without --run");
            assert_eq!(stderr.lines().count(), 1, "{flag:?}: {stderr}");
            let want = format!("beopt: {} needs --run", flag[0]);
            assert!(stderr.starts_with(&want), "{flag:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{flag:?}: printed before refusing");
        }
        // A retry budget needs a supervisor to spend it, and one attempt.
        for (flags, want) in [
            (
                &["--run", "--max-attempts", "3"][..],
                "beopt: --max-attempts needs --recover or --degrade",
            ),
            (
                &["--run", "--recover", "--max-attempts", "0"],
                "beopt: --max-attempts 0: need at least one attempt",
            ),
        ] {
            let out = beopt(&[&["kernels/jacobi.be"][..], flags].concat());
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{flags:?}: {stderr}");
            assert_eq!(stderr.lines().count(), 1, "{flags:?}: {stderr}");
            assert!(stderr.starts_with(want), "{flags:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{flags:?}: printed before refusing");
        }
        let out = beopt(&["kernels/jacobi.be", "--quiet", "--report", "-"]);
        assert!(out.status.success(), "{out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let doc = stdout.split_once('\n').map(|(_, doc)| doc).unwrap();
        assert!(barrier_elim::obs::parse(doc).is_ok(), "{stdout}");
    }
}
