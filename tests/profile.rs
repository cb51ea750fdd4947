//! End-to-end tests for the always-on sync profiler: event-ring
//! accounting and critical-path analysis on profiled real-thread runs,
//! observed-vs-predicted joins against the decision log, run-report
//! round-trips, Chrome-trace well-formedness with the profile event
//! classes (instants, async spans, flows) for every shipped kernel
//! under both plans, and stats aggregation across recovery attempts.

use barrier_elim::analysis::Bindings;
use barrier_elim::frontend;
use barrier_elim::interp::{run_parallel_observed, run_parallel_supervised, Mem, ObserveOptions};
use barrier_elim::ir::{Program, SymId};
use barrier_elim::obs::{self, CompileSection, Json, RunReport, RunSection};
use barrier_elim::oracle::{ChaosInjector, DropSpec};
use barrier_elim::runtime::events::ProfileOptions;
use barrier_elim::runtime::{RetryPolicy, Team};
use barrier_elim::spmd_opt::{
    demote_sites, fork_join, optimize_explained, OptimizeOptions, SyncOp,
};
use std::sync::Arc;
use std::time::Duration;

const KERNELS: &[(&str, &[(&str, i64)])] = &[
    ("broadcast.be", &[("n", 12)]),
    ("jacobi.be", &[("n", 48), ("tmax", 4)]),
    ("pipeline.be", &[("n", 16), ("tmax", 3)]),
    ("private_gather.be", &[("n", 10)]),
    ("shallow.be", &[("n", 12), ("tmax", 2)]),
];

fn load(kernel: &str, sets: &[(&str, i64)], nprocs: i64) -> (Arc<Program>, Arc<Bindings>) {
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

fn profiled_opts() -> ObserveOptions {
    ObserveOptions {
        telemetry: true,
        trace: true,
        profile: Some(ProfileOptions::default()),
        ..ObserveOptions::default()
    }
}

// --- event-ring accounting and analysis ---------------------------------

/// Every kernel, both plans: a profiled run returns an event stream
/// whose accounting identity holds with zero drops at the default
/// capacity, and whose analysis attributes at least one complete
/// episode to every live sync site.
#[test]
fn profiled_runs_account_for_every_event_on_every_kernel() {
    let team = Team::new(4);
    for (kernel, sets) in KERNELS {
        let (prog, bind) = load(kernel, sets, 4);
        for (label, plan) in [
            ("fork-join", fork_join(&prog, &bind)),
            ("optimized", barrier_elim::spmd_opt::optimize(&prog, &bind)),
        ] {
            let mem = Arc::new(Mem::new(&prog, &bind));
            let out = run_parallel_observed(&prog, &bind, &plan, &mem, &team, &profiled_opts());
            assert!(out.ok(), "{kernel} {label}: profiled run failed");
            let data = out.profile.as_ref().expect("profile requested");
            assert_eq!(
                data.events.len() as u64 + data.dropped,
                data.attempted(),
                "{kernel} {label}: ring accounting broken"
            );
            assert_eq!(data.dropped, 0, "{kernel} {label}: default ring overflowed");
            assert!(!data.events.is_empty(), "{kernel} {label}: no events");

            let metas = obs::site_metas(&prog, &plan);
            let report = obs::analyze(data, 4);
            assert_eq!(report.nprocs, 4);
            for sp in &report.sites {
                let meta = &metas[sp.site];
                assert!(
                    meta.op != "eliminated",
                    "{kernel} {label}: eliminated slot s{} produced sync events",
                    sp.site
                );
                assert!(
                    sp.episodes > 0,
                    "{kernel} {label}: live site s{} has no complete episode",
                    sp.site
                );
                assert!(
                    sp.crit_ns <= sp.spread_ns,
                    "{kernel} {label}: s{}: last-arriver gap exceeds full spread",
                    sp.site
                );
                let hist: u64 = sp.slack_hist.iter().sum();
                assert_eq!(
                    hist,
                    sp.episodes * 4,
                    "{kernel} {label}: s{}: slack histogram misses arrivals",
                    sp.site
                );
            }
            // Every live (non-eliminated) site shows up in the report.
            let live = metas.iter().filter(|m| m.op != "eliminated").count();
            assert_eq!(
                report.sites.len(),
                live,
                "{kernel} {label}: live sites missing from the profile"
            );
            // Region begin/end pairs: every worker ran one region.
            for pid in 0..4 {
                assert!(
                    report.region_ns_by_pid[pid] > 0,
                    "{kernel} {label}: P{pid} has no region span"
                );
            }
        }
    }
}

// --- observed vs predicted ----------------------------------------------

/// The run section of one profiled run: cells, totals and episodes.
fn run_section(out: barrier_elim::interp::ParallelOutcome) -> RunSection {
    RunSection {
        totals: out.stats,
        profile: out.profile.as_ref().map(|d| obs::analyze(d, 4)),
        sites: out.sites,
        observed_vs_predicted: None,
    }
}

/// The observed-vs-predicted join emits one row for every decision the
/// optimizer changed, keyed by canonical site id, with blocked time
/// from each run's cells; and the run report carrying it round-trips
/// through the obs JSON parser.
#[test]
fn observed_vs_predicted_covers_every_changed_decision_and_round_trips() {
    let team = Team::new(4);
    for (kernel, sets) in KERNELS {
        let (prog, bind) = load(kernel, sets, 4);
        let (plan, log, analysis) = optimize_explained(&prog, &bind, OptimizeOptions::default());
        let changed: Vec<usize> = log
            .iter()
            .filter(|d| !matches!(d.placed, SyncOp::Barrier))
            .map(|d| d.site)
            .collect();
        assert!(!changed.is_empty(), "{kernel}: optimizer changed nothing");
        let mut base_plan = plan.clone();
        demote_sites(&mut base_plan, &changed);

        let mem_o = Arc::new(Mem::new(&prog, &bind));
        let out_o = run_parallel_observed(&prog, &bind, &plan, &mem_o, &team, &profiled_opts());
        let mem_b = Arc::new(Mem::new(&prog, &bind));
        let out_b =
            run_parallel_observed(&prog, &bind, &base_plan, &mem_b, &team, &profiled_opts());

        let mut run = run_section(out_o);
        let baseline = run_section(out_b);
        let rows = obs::observed_vs_predicted(&log, &baseline, &run);
        assert_eq!(
            rows.iter().map(|r| r.site).collect::<Vec<_>>(),
            changed,
            "{kernel}: OVP rows must cover exactly the changed decisions, in site order"
        );
        for r in &rows {
            assert_eq!(
                r.saved_wait_ns,
                r.baseline_wait_ns as i64 - r.observed_wait_ns as i64,
                "{kernel}: s{}: saved-wait arithmetic",
                r.site
            );
            assert_eq!(
                r.observed_wait_ns,
                run.cells(r.site).unwrap().total.wait_ns,
                "{kernel}: s{}: observed wait is not the cells' wait",
                r.site
            );
            assert_ne!(r.placed, "barrier", "{kernel}: kept barrier in OVP rows");
            // The demoted baseline really ran the site as a barrier, so
            // it must have synchronized there.
            let base_profile = baseline.profile.as_ref().unwrap();
            assert!(
                base_profile.site(r.site).is_some(),
                "{kernel}: baseline never synced at changed site s{}",
                r.site
            );
        }

        let nsites = run.sites.len();
        let live = run.profile.as_ref().unwrap().sites.len();
        run.observed_vs_predicted = Some(rows.clone());
        let explain = obs::explain_json(&prog, 4, &plan, &fork_join(&prog, &bind), &log);
        let report = RunReport {
            program: prog.name.clone(),
            nprocs: 4,
            compile: CompileSection { explain, analysis },
            run: Some(run),
            fault: None,
        };
        let doc = obs::report_json(&report);
        let parsed = obs::parse(&doc.to_string_pretty()).expect("run report parses");
        assert_eq!(parsed, doc, "{kernel}: no round trip");
        assert_eq!(
            parsed.get("program").and_then(Json::as_str),
            Some(&*prog.name)
        );
        assert_eq!(parsed.get("nprocs").and_then(Json::as_u64), Some(4));
        let run = parsed.get("run").unwrap();
        let profile = run.get("profile").unwrap();
        assert_eq!(
            profile.get("dropped").and_then(Json::as_u64),
            Some(0),
            "{kernel}: drops must be reported in the document"
        );
        // One row per canonical site; the live ones carry episodes.
        let sites = run.get("sites").and_then(Json::as_arr).unwrap();
        assert_eq!(sites.len(), nsites);
        let with_episodes = sites.iter().filter(|s| s.get("episodes").is_some());
        assert_eq!(with_episodes.count(), live);
        let ovp = run
            .get("observed_vs_predicted")
            .and_then(Json::as_arr)
            .expect("{kernel}: OVP array present");
        assert_eq!(ovp.len(), rows.len());
        for (j, r) in ovp.iter().zip(&rows) {
            assert_eq!(j.get("site").and_then(Json::as_u64), Some(r.site as u64));
            assert_eq!(
                j.get("saved_wait_ns").and_then(Json::as_num),
                Some(r.saved_wait_ns as f64)
            );
            assert_eq!(j.get("realized").and_then(Json::as_bool), Some(r.realized));
        }
    }
}

// --- Chrome trace with profile event classes ----------------------------

/// The trace writer stays well-formed when the profile stream is lowered
/// onto it: for every kernel under both plans the document parses,
/// timestamps are non-decreasing per track, B/E nesting balances, pid
/// and tid are integers, instants carry thread scope, and async/flow
/// phases arrive in matched id-sharing pairs.
#[test]
fn profiled_trace_is_well_formed_for_every_kernel_and_plan() {
    let team = Team::new(4);
    for (kernel, sets) in KERNELS {
        let (prog, bind) = load(kernel, sets, 4);
        for (label, plan) in [
            ("fork-join", fork_join(&prog, &bind)),
            ("optimized", barrier_elim::spmd_opt::optimize(&prog, &bind)),
        ] {
            let mem = Arc::new(Mem::new(&prog, &bind));
            let out = run_parallel_observed(&prog, &bind, &plan, &mem, &team, &profiled_opts());
            assert!(out.ok(), "{kernel} {label}: run failed");
            let metas = obs::site_metas(&prog, &plan);
            let spans = out.spans.clone();
            let data = out.profile.clone().unwrap();
            let run = run_section(out);
            let tb = obs::invocation_trace(&prog.name, 4, None, spans, Some((&data, &run)));
            let text = tb.to_json().to_string_compact();
            let doc = obs::parse(&text)
                .unwrap_or_else(|e| panic!("{kernel} {label}: trace does not parse: {e}"));
            let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();

            let mut last_ts: Vec<u64> = Vec::new();
            let mut depth: Vec<i64> = Vec::new();
            let mut open_async: Vec<u64> = Vec::new();
            let mut open_flow: Vec<u64> = Vec::new();
            let mut flow_finishes: Vec<u64> = Vec::new();
            let mut saw = (0u32, 0u32, 0u32); // instants, async pairs, flow pairs
            for ev in events {
                let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
                let tid = ev
                    .get("tid")
                    .and_then(Json::as_u64)
                    .unwrap_or_else(|| panic!("{kernel} {label}: non-integer tid in {ph}"))
                    as usize;
                assert!(
                    ev.get("pid").and_then(Json::as_u64).is_some(),
                    "{kernel} {label}: non-integer pid"
                );
                if tid >= last_ts.len() {
                    last_ts.resize(tid + 1, 0);
                    depth.resize(tid + 1, 0);
                }
                if ph == "M" {
                    continue;
                }
                let ts = ev.get("ts").and_then(Json::as_u64).expect("ts");
                assert!(
                    ts >= last_ts[tid],
                    "{kernel} {label}: timestamps regress on track {tid}"
                );
                last_ts[tid] = ts;
                assert!(
                    ev.get("name").and_then(Json::as_str).is_some(),
                    "{kernel} {label}: {ph} event without a name"
                );
                match ph {
                    "B" => depth[tid] += 1,
                    "E" => {
                        depth[tid] -= 1;
                        assert!(depth[tid] >= 0, "{kernel} {label}: E without B");
                    }
                    "i" => {
                        assert_eq!(
                            ev.get("s").and_then(Json::as_str),
                            Some("t"),
                            "{kernel} {label}: instant without thread scope"
                        );
                        saw.0 += 1;
                    }
                    "b" => open_async.push(ev.get("id").and_then(Json::as_u64).expect("id")),
                    "e" => {
                        let id = ev.get("id").and_then(Json::as_u64).expect("id");
                        let k = open_async
                            .iter()
                            .position(|&x| x == id)
                            .unwrap_or_else(|| panic!("{kernel} {label}: e without b (id {id})"));
                        open_async.swap_remove(k);
                        saw.1 += 1;
                    }
                    // Flow start/finish live on different tracks, so
                    // either may come first in (tid-major) document
                    // order; Chrome pairs them by id. Collect and match
                    // at the end.
                    "s" => open_flow.push(ev.get("id").and_then(Json::as_u64).expect("id")),
                    "f" => {
                        flow_finishes.push(ev.get("id").and_then(Json::as_u64).expect("id"));
                        assert_eq!(
                            ev.get("bp").and_then(Json::as_str),
                            Some("e"),
                            "{kernel} {label}: flow finish without bp:e"
                        );
                        saw.2 += 1;
                    }
                    other => panic!("{kernel} {label}: unexpected phase {other:?}"),
                }
            }
            assert!(
                depth.iter().all(|&d| d == 0),
                "{kernel} {label}: unbalanced spans"
            );
            assert!(
                open_async.is_empty(),
                "{kernel} {label}: dangling async span"
            );
            open_flow.sort_unstable();
            flow_finishes.sort_unstable();
            assert_eq!(
                open_flow, flow_finishes,
                "{kernel} {label}: flow starts and finishes must pair by id"
            );
            // Every live site contributes one critical-path flow.
            let live = metas.iter().filter(|m| m.op != "eliminated").count() as u32;
            assert_eq!(
                saw.2, live,
                "{kernel} {label}: one flow arrow per live site"
            );
        }
    }
}

// --- recovery: profiling across attempts --------------------------------

/// A persistent drop forces retries: the profile stream spans multiple
/// epochs, records the supervisor's checkpoint/rollback/retry marks on
/// its own track, keeps its accounting identity, and the aggregated
/// `total_stats` dominate the final attempt's counters (the contract
/// behind the run report's totals under `--recover`).
#[test]
fn recovery_profile_spans_epochs_and_aggregates_stats_across_attempts() {
    let (prog, bind) = load("jacobi.be", &[("n", 48), ("tmax", 4)], 4);
    let plan = barrier_elim::spmd_opt::optimize(&prog, &bind);
    let mem = Arc::new(Mem::new(&prog, &bind));
    let team = Team::new(4);
    let opts = ObserveOptions {
        telemetry: true,
        deadline: Some(Duration::from_millis(150)),
        chaos: Some(Arc::new(ChaosInjector::new(
            7,
            Some(DropSpec {
                site: 1,
                pid: 2,
                from_visit: 1,
            }),
        ))),
        profile: Some(ProfileOptions::default()),
        ..ObserveOptions::default()
    };
    let policy = RetryPolicy {
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
        ..RetryPolicy::default()
    };
    let r = run_parallel_supervised(&prog, &bind, &plan, &mem, &team, &opts, &policy, None);
    assert!(r.report.rung.completed(), "supervised run did not converge");
    let attempts_used = r.report.attempts_used();
    assert!(attempts_used > 1, "the drop never bit");

    let data = r.outcome.profile.as_ref().expect("profile requested");
    assert_eq!(
        data.events.len() as u64 + data.dropped,
        data.attempted(),
        "ring accounting broken across retries"
    );
    let final_plan = r.final_plan.as_ref().unwrap();
    let report = obs::analyze(data, 4);
    let walk = obs::site_metas(&prog, final_plan);
    assert!(report.sites.iter().all(|s| s.site < walk.len()));
    assert_eq!(
        report.epochs as u32, attempts_used,
        "one profile epoch per attempt"
    );
    assert_eq!(report.marks.checkpoints, 1, "one checkpoint per run");
    assert_eq!(
        report.marks.rollbacks,
        attempts_used as u64 - 1,
        "one rollback per failed attempt"
    );
    assert_eq!(
        report.marks.retries,
        attempts_used as u64 - 1,
        "one retry mark per failed attempt"
    );

    // Satellite 1: totals cover every attempt, not just the final one.
    let total = &r.total_stats;
    let last = &r.outcome.stats;
    let wait = |s: &barrier_elim::runtime::stats::StatsSnapshot| {
        s.barrier_wait_ns + s.counter_wait_ns + s.neighbor_wait_ns
    };
    assert!(total.barrier_arrivals >= last.barrier_arrivals);
    assert!(
        total.spin_rounds + total.yield_rounds + total.parks
            >= last.spin_rounds + last.yield_rounds + last.parks,
        "escalation totals dropped attempts"
    );
    // The failed attempts blocked until a deadline fired, so the
    // aggregate must show strictly more blocked time than the clean
    // final attempt alone.
    assert!(
        wait(total) > wait(last),
        "aggregate wait should include the deadline-length stalls of failed attempts"
    );
    // The per-attempt reports carry their own stats, the final
    // attempt's included, and sum to the aggregate.
    let attempts = &r.report.rounds[0].attempts;
    let summed: u64 = attempts.iter().map(|a| a.stats.parks).sum();
    assert_eq!(
        total.parks, summed,
        "per-attempt park counters must sum to the total"
    );
}

// --- overflow is counted, never blocking --------------------------------

/// A deliberately tiny ring overflows: the run still completes and the
/// analyzer reports exactly the overwritten count.
#[test]
fn tiny_rings_overflow_by_counting_not_blocking() {
    let (prog, bind) = load("jacobi.be", &[("n", 48), ("tmax", 4)], 4);
    let plan = barrier_elim::spmd_opt::optimize(&prog, &bind);
    let mem = Arc::new(Mem::new(&prog, &bind));
    let team = Team::new(4);
    let opts = ObserveOptions {
        profile: Some(ProfileOptions { capacity: 8 }),
        ..ObserveOptions::default()
    };
    let out = run_parallel_observed(&prog, &bind, &plan, &mem, &team, &opts);
    assert!(out.ok(), "overflowing profiler must not affect the run");
    let data = out.profile.as_ref().unwrap();
    assert!(data.dropped > 0, "tiny ring never overflowed");
    assert_eq!(data.events.len() as u64 + data.dropped, data.attempted());
    // The drop count survives into the analyzed profile and the run
    // report.
    let report = obs::analyze(data, 4);
    assert_eq!(report.dropped, data.dropped);
    let explain = Json::obj();
    let doc = obs::report_json(&RunReport {
        program: prog.name.clone(),
        nprocs: 4,
        compile: CompileSection {
            explain,
            analysis: Default::default(),
        },
        run: Some(RunSection {
            totals: out.stats,
            sites: Vec::new(),
            profile: Some(report),
            observed_vs_predicted: None,
        }),
        fault: None,
    });
    let profile = doc.get("run").and_then(|r| r.get("profile")).unwrap();
    let dropped = profile.get("dropped").and_then(Json::as_u64);
    assert_eq!(dropped, Some(data.dropped));
    let attempted = profile.get("attempted").and_then(Json::as_u64);
    assert_eq!(attempted, Some(data.attempted()));
}
