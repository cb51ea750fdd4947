//! Fuzz-campaign driver for the barrier-elimination correctness
//! tooling.
//!
//! ```text
//! beoracle fuzz    [--count N] [--seed S] [--threads] [--nprocs 1,3,4] [--repro-dir DIR]
//!                  [--deadline MS] [--chaos] [--chaos-seed S] [--shapes A,B]
//! beoracle mutate  [--count N] [--seed S]
//! beoracle kernels [--threads] [--nprocs 1,3,4]
//! beoracle chaos   [--chaos-seed S] [--deadline MS] [--nprocs P] [--repro-dir DIR]
//!                  [--no-recover] [--recovery-json PATH] [--profile]
//!                  [--degrade] [--degrade-json PATH] [--max-attempts N]
//! beoracle service-chaos [--chaos-seed S] [--rounds N] [--nprocs P] [--json PATH]
//!                  [--snapshot-dir DIR]
//! ```
//!
//! * `fuzz` — generate `N` random programs and differentially execute
//!   each (sequential vs fork-join vs optimized; virtual interleavings
//!   and, with `--threads`, real threads with both barrier kinds),
//!   validating every schedule race-free. Real-thread runs are
//!   deadline-guarded (`--deadline`, default 10000 ms) and can be
//!   perturbed with benign seeded chaos (`--chaos`). Each failure is
//!   dumped as a repro bundle (program text, explain-pass decision
//!   log, timeline trace, structured failure reports) under
//!   `--repro-dir` (default `beoracle-repro/`). `--shapes` draws the
//!   programs round-robin from the named generator shapes — the only
//!   way to reach `sink-broadcast`, `nested-broadcast`, `gather-anti`,
//!   `reduce-chain` and `init-broadcast`, which the per-seed draw
//!   leaves out so that a seed's program never changes.
//! * `mutate` — for `N` generated programs, delete each sync op of the
//!   optimized schedule in turn and report what the race validator and
//!   the differential oracle caught.
//! * `kernels` — run the differential oracle over every suite kernel,
//!   at the `--nprocs` widths (default 1,3,4).
//! * `chaos` — run the seeded fault-injection campaign over the five
//!   shipped `.be` kernels. By default every droppable sync post
//!   (final counter increment, neighbor post, barrier arrival) is
//!   injected as a *persistent* fault and the self-healing supervisor
//!   must absorb it — rolling back to the region checkpoint, demoting
//!   the blamed site, retrying within the budget — with recovered
//!   memory matching the sequential oracle; the aggregated recovery
//!   timelines are written to `--recovery-json` (default
//!   `recovery.json`). With `--no-recover`, the older detect-only
//!   campaign runs instead: every dropped post must be detected
//!   within the deadline with a failure report naming the dropped
//!   site. With `--profile`, each kernel x plan additionally does one
//!   profiled benign run and its event-ring accounting (`events +
//!   dropped == attempted`) is checked and embedded in the JSON.
//!   With `--degrade`, the *total-availability* campaign runs instead:
//!   every pid of every kernel x plan is permanently killed (silent
//!   post-drops for each pid, plus a panic kill of P0 that survives
//!   every team shrink and forces the sequential tail) and the
//!   degradation supervisor must complete each run — classifying the
//!   loss, shrinking the team, re-planning, and at worst finishing
//!   serially — with memory matching the sequential oracle; the
//!   aggregated degradation timelines are written to `--degrade-json`
//!   (default `degrade.json`).
//! * `service-chaos` — run the *service-plane* chaos campaign: start an
//!   in-process `beoptd` service under a seeded fault schedule (shard
//!   kills mid-request and mid-snapshot, snapshot corruption, dropped
//!   and delayed connections) and drive every kernel x both plans for
//!   `--rounds` rounds through a retrying client. Every answer's
//!   explain document must be byte-identical to a clean
//!   single-process run; the report (verdicts + service fault
//!   counters) is written to `--json` (default `service.json`).
//!
//! Exits 1 on any mismatch, race, uncaught mutant, or missed fault, and
//! 2 — after `beoracle: <what>` on stderr — on input it cannot use: an
//! unknown subcommand, a malformed flag value, a kernel file that does
//! not parse or lacks a symbol the campaign binds.

use barrier_elim::analysis::Bindings;
use barrier_elim::interp::ObserveOptions;
use barrier_elim::ir::SymId;
use barrier_elim::oracle::{self, DiffConfig};
use barrier_elim::runtime::Team;
use barrier_elim::spmd_opt::{fork_join, optimize};
use barrier_elim::suite::{self, Scale};
use barrier_elim::{frontend, obs};
use std::sync::Arc;
use std::time::Duration;

fn parse_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn parse_opt(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|k| args.get(k + 1))
        .cloned()
}

/// What a subcommand returns: its exit code, or the description of the
/// input it could not use (reported by `main`, exit 2).
type Exit = Result<i32, String>;

fn parse_u64(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    match parse_opt(args, name) {
        Some(v) => v.parse().map_err(|_| format!("bad {name}: {v}")),
        None => Ok(default),
    }
}

/// `--nprocs`: a comma-separated list of positive processor counts.
fn parse_nprocs(args: &[String], default: &[i64]) -> Result<Vec<i64>, String> {
    let Some(v) = parse_opt(args, "--nprocs") else {
        return Ok(default.to_vec());
    };
    v.split(',')
        .map(|p| match p.parse() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("bad --nprocs: {v}")),
        })
        .collect()
}

/// `--shapes`: a comma-separated list of generator shape names.
fn parse_shapes(args: &[String]) -> Result<Option<Vec<oracle::Shape>>, String> {
    let Some(v) = parse_opt(args, "--shapes") else {
        return Ok(None);
    };
    v.split(',')
        .map(|name| {
            oracle::Shape::ALL
                .into_iter()
                .find(|s| s.name() == name)
                .ok_or_else(|| format!("bad --shapes: {v}"))
        })
        .collect::<Result<_, _>>()
        .map(Some)
}

/// `--nprocs` for the campaigns that run at one team size.
fn parse_team_size(args: &[String]) -> Result<i64, String> {
    match parse_nprocs(args, &[4])?[..] {
        [p] => Ok(p),
        _ => Err("bad --nprocs: this campaign takes one processor count".to_string()),
    }
}

fn cmd_fuzz(args: &[String]) -> Exit {
    let count = parse_u64(args, "--count", 200)?;
    let seed = parse_u64(args, "--seed", 0)?;
    let repro_dir = std::path::PathBuf::from(
        parse_opt(args, "--repro-dir").unwrap_or_else(|| "beoracle-repro".to_string()),
    );
    let chaos_seed = if parse_flag(args, "--chaos") || parse_opt(args, "--chaos-seed").is_some() {
        Some(parse_u64(args, "--chaos-seed", seed)?)
    } else {
        None
    };
    let cfg = DiffConfig {
        nprocs: parse_nprocs(args, &[1, 3, 4])?,
        threads: parse_flag(args, "--threads") || chaos_seed.is_some(),
        deadline: Some(Duration::from_millis(parse_u64(
            args,
            "--deadline",
            10_000,
        )?)),
        chaos_seed,
        ..DiffConfig::default()
    };
    let shapes = parse_shapes(args)?;
    let gen = |seed: u64| match &shapes {
        Some(shapes) => oracle::generate_shape(shapes[seed as usize % shapes.len()], seed),
        None => oracle::generate(seed),
    };
    println!(
        "fuzzing {count} programs from seed {seed} (nprocs {:?}, threads {}, deadline {:?}, chaos {:?})",
        cfg.nprocs, cfg.threads, cfg.deadline, cfg.chaos_seed
    );
    let s = oracle::fuzz_campaign(seed, count, &cfg, &gen);
    for (shape, n) in &s.shape_counts {
        println!("  {shape:?}: {n} programs");
    }
    let repro_nprocs = cfg.nprocs.iter().copied().max().unwrap_or(4);
    for (seed, shape, failures) in &s.failures {
        println!("FAIL seed {seed} ({shape:?}):");
        for f in failures {
            println!("  {f}");
        }
        // Bundle everything a triager needs: program text, the explain
        // pass's decision log, an adversarial-order timeline, and the
        // structured failure reports of any faulted thread runs
        // (re-derived here — the campaign summary keeps only strings).
        let g = gen(*seed);
        let r = oracle::check_program(&g.prog, &|p| g.bindings(p), &cfg);
        match oracle::dump_repro(&repro_dir, &g, repro_nprocs, failures, &r.failure_reports) {
            Ok(bundle) => println!("  repro bundle: {}", bundle.display()),
            Err(e) => eprintln!("  cannot write repro bundle: {e}"),
        }
    }
    println!("{}/{} programs passed", s.cases - s.failures.len(), s.cases);
    Ok(!s.ok() as i32)
}

fn mutate_one(
    label: &str,
    prog: &barrier_elim::ir::Program,
    bind: &barrier_elim::analysis::Bindings,
    tol: f64,
) -> u32 {
    let plan = barrier_elim::spmd_opt::optimize(prog, bind);
    let teeth = oracle::mutation_teeth(prog, bind, &plan, tol);
    let flagged = teeth.flagged();
    let diverged = teeth.sites.iter().filter(|t| t.diverged.is_some()).count();
    println!(
        "{label}: {} sites, {flagged} flagged by validator, {diverged} diverged dynamically",
        teeth.sites.len()
    );
    let mut bad = 0;
    for t in &teeth.sites {
        let mark = if t.flagged() { "caught " } else { "MISSED " };
        let dyn_mark = match t.diverged {
            Some(d) => format!("diverged {d:.2e}"),
            None => "no divergence".to_string(),
        };
        println!(
            "  {mark} {:40} {} racing pairs, {dyn_mark}",
            t.site.desc, t.racing_pairs
        );
        if !t.flagged() && t.diverged.is_some() {
            bad += 1;
        }
    }
    if teeth.clean_racing_pairs > 0 {
        println!(
            "  BAD: unmutated plan reports {} races",
            teeth.clean_racing_pairs
        );
        bad += 1;
    }
    bad
}

fn cmd_mutate(args: &[String]) -> Exit {
    let mut bad = 0;
    if parse_flag(args, "--kernels") {
        for def in suite::all() {
            let built = (def.build)(Scale::Test);
            let bind = built.bindings(4);
            bad += mutate_one(def.name, &built.prog, &bind, 1e-9);
        }
    } else {
        let count = parse_u64(args, "--count", 10)?;
        let seed = parse_u64(args, "--seed", 0)?;
        for s in seed..seed + count {
            let g = oracle::generate(s);
            let bind = g.bindings(4);
            bad += mutate_one(&format!("seed {s} ({:?})", g.shape), &g.prog, &bind, 0.0);
        }
    }
    if bad > 0 {
        println!("{bad} mutants escaped the validator");
    }
    Ok((bad > 0) as i32)
}

fn cmd_kernels(args: &[String]) -> Exit {
    let cfg = DiffConfig {
        nprocs: parse_nprocs(args, &[1, 3, 4])?,
        threads: parse_flag(args, "--threads"),
        tol: 1e-9, // suite reductions reassociate
        ..DiffConfig::default()
    };
    let mut failed = 0;
    for def in suite::all() {
        let built = (def.build)(Scale::Test);
        let r = oracle::check_program(&built.prog, &|p| built.bindings(p), &cfg);
        if r.ok() {
            println!("ok   {}", def.name);
        } else {
            failed += 1;
            println!("FAIL {}:", def.name);
            for f in &r.failures {
                println!("  {f}");
            }
        }
    }
    Ok((failed > 0) as i32)
}

/// The five shipped `.be` kernels with the bindings the golden tests
/// pin (small enough for sub-second runs, large enough to exercise
/// every placed sync kind).
const CHAOS_KERNELS: &[(&str, &[(&str, i64)])] = &[
    ("broadcast.be", &[("n", 12)]),
    ("jacobi.be", &[("n", 48), ("tmax", 4)]),
    ("pipeline.be", &[("n", 16), ("tmax", 3)]),
    ("private_gather.be", &[("n", 10)]),
    ("shallow.be", &[("n", 12), ("tmax", 2)]),
];

/// Suite kernels whose optimized plans place distance-vector pairwise
/// counters — the chaos campaign includes them (at `Scale::Test`) so
/// dropped pairwise cell posts get teeth alongside the `.be` corpus.
const PAIRWISE_CHAOS_KERNELS: &[&str] = &[
    "wavepipe2d",
    "trisolve_pipe",
    "multihop",
    "pivot_shift",
    "shift_bcast",
];

type Case = (Arc<barrier_elim::ir::Program>, Arc<Bindings>);

/// Parse a shipped `.be` kernel and bind the symbols its campaign
/// pins. The kernel files are input like any other: one that no longer
/// parses, or lacks a pinned symbol, is reported, not a panic.
fn parse_kernel(
    kernel: &str,
    src: &str,
    nprocs: i64,
    sets: &[(&str, i64)],
) -> Result<Case, String> {
    let prog = frontend::parse(src).map_err(|e| format!("{kernel}: {e}"))?;
    let mut b = Bindings::new(nprocs);
    for (name, v) in sets {
        let pos = prog
            .syms
            .iter()
            .position(|s| &s.name == name)
            .ok_or_else(|| format!("{kernel}: sym {name} missing"))?;
        b.bind(SymId(pos as u32), *v);
    }
    Ok((Arc::new(prog), Arc::new(b)))
}

/// A suite kernel at `Scale::Test`, by name.
fn suite_kernel(name: &str, nprocs: i64) -> Result<Case, String> {
    let def = suite::by_name(name).ok_or_else(|| format!("unknown suite kernel {name}"))?;
    let b = (def.build)(Scale::Test);
    let bind = Arc::new(b.bindings(nprocs));
    Ok((Arc::new(b.prog), bind))
}

/// One profiled benign run of `plan`; returns the ring-accounting
/// summary `(events, dropped, attempted)` for the campaign report.
fn profile_benign(
    prog: &Arc<barrier_elim::ir::Program>,
    bind: &Arc<Bindings>,
    plan: &barrier_elim::spmd_opt::SpmdProgram,
    team: &Team,
) -> (usize, u64, u64) {
    use barrier_elim::interp::{run_parallel_observed, Mem};
    let mem = Arc::new(Mem::new(prog, bind));
    let opts = ObserveOptions {
        profile: Some(barrier_elim::runtime::events::ProfileOptions::default()),
        ..ObserveOptions::default()
    };
    let out = run_parallel_observed(prog, bind, plan, &mem, team, &opts);
    match out.profile {
        Some(d) => (d.events.len(), d.dropped, d.attempted()),
        None => (0, 0, 0),
    }
}

/// The `chaos --degrade` campaign: every pid of every kernel x plan is
/// permanently kill-pid'ed (silent drops, plus a panic kill of P0 that
/// forces the serial tail) and the degradation supervisor must finish
/// each run with memory matching the sequential oracle. Writes the
/// aggregated timelines to `degrade_json`.
fn cmd_chaos_degrade(
    seed: u64,
    deadline: Duration,
    nprocs: i64,
    degrade_json: &str,
    max_attempts: u32,
) -> Exit {
    println!(
        "degrade campaign over {} kernels (deadline {deadline:?}, P={nprocs}, kill-pid: every pid silent + P0 panic)",
        CHAOS_KERNELS.len()
    );
    let team = Team::new(nprocs as usize);
    let policy = barrier_elim::runtime::RetryPolicy {
        max_attempts,
        ..barrier_elim::runtime::RetryPolicy::default()
    };
    let mut runs: Vec<obs::Json> = Vec::new();
    let mut failed = 0;
    for (kernel, sets) in CHAOS_KERNELS {
        let src = match std::fs::read_to_string(format!("kernels/{kernel}")) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("FAIL {kernel}: cannot read kernel file: {e}");
                failed += 1;
                continue;
            }
        };
        let (prog, bind) = parse_kernel(kernel, &src, nprocs, sets)?;
        type Replan =
            fn(&barrier_elim::ir::Program, &Bindings) -> barrier_elim::spmd_opt::SpmdProgram;
        let plans: [(&str, barrier_elim::spmd_opt::SpmdProgram, Replan); 2] = [
            ("fork-join", fork_join(&prog, &bind), fork_join),
            ("optimized", optimize(&prog, &bind), optimize),
        ];
        for (label, plan, replan) in plans {
            let r =
                oracle::degrade_check(&prog, &bind, &plan, &team, deadline, 1e-9, &policy, &replan);
            if r.ok() {
                let worst = r
                    .runs
                    .iter()
                    .find(|k| k.report.rung == obs::Rung::Serial)
                    .map(|k| format!("P{} {} kill -> serial", k.pid, k.mode.as_str()))
                    .unwrap_or_else(|| "no serial tail needed".to_string());
                println!(
                    "ok   {kernel} {label}: {} kills absorbed, worst case {worst}",
                    r.runs.len()
                );
            } else {
                failed += 1;
                println!("FAIL {kernel} {label}:");
                for f in r.failures() {
                    println!("  {f}");
                }
                for k in r.runs.iter().filter(|k| !k.ok(1e-9)) {
                    print!("{}", obs::render_fault(&k.report));
                }
            }
            let kills: Vec<obs::Json> = r
                .runs
                .iter()
                .map(|k| {
                    obs::Json::obj()
                        .set("pid", k.pid)
                        .set("mode", k.mode.as_str())
                        .set("diff", k.diff)
                        .set("report", obs::fault_json(&k.report))
                })
                .collect();
            runs.push(
                obs::Json::obj()
                    .set("kernel", *kernel)
                    .set("plan", label)
                    .set("ok", r.ok())
                    .set("kills", kills),
            );
        }
    }
    let doc = obs::Json::obj()
        .set("schema_version", obs::SCHEMA_VERSION)
        .set("campaign", "chaos-degrade")
        .set("seed", seed)
        .set("deadline_ms", deadline.as_millis() as u64)
        .set("nprocs", nprocs)
        .set("max_attempts", policy.max_attempts)
        .set("ok", failed == 0)
        .set("runs", runs);
    match std::fs::write(degrade_json, doc.to_string_pretty()) {
        Ok(()) => println!("degrade: aggregated timelines written to {degrade_json}"),
        Err(e) => {
            eprintln!("beoracle: cannot write {degrade_json}: {e}");
            failed += 1;
        }
    }
    if failed > 0 {
        println!("{failed} kernel plans failed the degrade campaign");
    }
    Ok((failed > 0) as i32)
}

fn cmd_chaos(args: &[String]) -> Exit {
    let seed = parse_u64(args, "--chaos-seed", 0)?;
    let deadline = Duration::from_millis(parse_u64(args, "--deadline", 250)?);
    let nprocs = parse_team_size(args)?;
    let no_recover = parse_flag(args, "--no-recover");
    let profile = parse_flag(args, "--profile");
    if parse_flag(args, "--degrade") {
        let degrade_json =
            parse_opt(args, "--degrade-json").unwrap_or_else(|| "degrade.json".to_string());
        let max_attempts = parse_u64(args, "--max-attempts", 4)? as u32;
        return cmd_chaos_degrade(seed, deadline, nprocs, &degrade_json, max_attempts);
    }
    let repro_dir = std::path::PathBuf::from(
        parse_opt(args, "--repro-dir").unwrap_or_else(|| "beoracle-repro".to_string()),
    );
    let recovery_json =
        parse_opt(args, "--recovery-json").unwrap_or_else(|| "recovery.json".to_string());
    println!(
        "chaos campaign over {} kernels (seed {seed}, deadline {deadline:?}, P={nprocs}, mode {})",
        CHAOS_KERNELS.len() + PAIRWISE_CHAOS_KERNELS.len(),
        if no_recover {
            "detect-only"
        } else {
            "self-healing"
        }
    );
    let team = Team::new(nprocs as usize);
    let policy = barrier_elim::runtime::RetryPolicy::default();
    let mut runs: Vec<obs::Json> = Vec::new();
    let mut failed = 0;
    // The .be corpus plus the pipelined suite kernels, so the drop
    // matrix covers every sync kind — including pairwise cell posts.
    let mut programs: Vec<(String, Case)> = Vec::new();
    for (kernel, sets) in CHAOS_KERNELS {
        let src = match std::fs::read_to_string(format!("kernels/{kernel}")) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("FAIL {kernel}: cannot read kernel file: {e}");
                failed += 1;
                continue;
            }
        };
        programs.push((
            kernel.to_string(),
            parse_kernel(kernel, &src, nprocs, sets)?,
        ));
    }
    for name in PAIRWISE_CHAOS_KERNELS {
        programs.push((name.to_string(), suite_kernel(name, nprocs)?));
    }
    for (kernel, (prog, bind)) in &programs {
        for (label, plan) in [
            ("fork-join", fork_join(&prog, &bind)),
            ("optimized", optimize(&prog, &bind)),
        ] {
            if no_recover {
                // Detection-only: every dropped post must surface as a
                // failure report naming the dropped site.
                let r = oracle::chaos_check(&prog, &bind, &plan, &team, seed, deadline, 1e-9);
                if r.ok() {
                    println!(
                        "ok   {kernel} {label}: benign passed, {} teeth bit",
                        r.teeth.len()
                    );
                } else {
                    failed += 1;
                    println!("FAIL {kernel} {label}:");
                    for f in r.failures() {
                        println!("  {f}");
                    }
                    // Persist every structured report for triage.
                    let dir =
                        repro_dir.join(format!("chaos-{}-{label}", kernel.trim_end_matches(".be")));
                    if let Err(e) = std::fs::create_dir_all(&dir) {
                        eprintln!("  cannot write repro bundle: {e}");
                        continue;
                    }
                    for (k, t) in r.teeth.iter().enumerate() {
                        if let Some(report) = &t.report {
                            let doc = obs::fault_json(report);
                            let path = dir.join(format!("failure-{k}.json"));
                            if std::fs::write(&path, doc.to_string_pretty()).is_ok() {
                                println!("  report: {}", path.display());
                            }
                        }
                    }
                }
                continue;
            }
            // Self-healing (default): every dropped post must be
            // absorbed by the recovery supervisor within its retry
            // budget, with memory matching the sequential oracle.
            let base = ObserveOptions::default();
            let r = oracle::recovery_check(
                prog, bind, &plan, &team, seed, deadline, 1e-9, &policy, &base,
            );
            let attempts = r.teeth.iter().map(|t| t.report.attempts_used());
            let worst = attempts.max().unwrap_or(1);
            if r.ok() {
                println!(
                    "ok   {kernel} {label}: benign passed, {} teeth absorbed (worst case {worst} attempts)",
                    r.teeth.len()
                );
            } else {
                failed += 1;
                println!("FAIL {kernel} {label}:");
                for f in r.failures() {
                    println!("  {f}");
                }
                for t in r.teeth.iter().filter(|t| !t.ok(1e-9)) {
                    print!("{}", obs::render_fault(&t.report));
                }
            }
            let teeth: Vec<obs::Json> = r
                .teeth
                .iter()
                .map(|t| {
                    obs::Json::obj()
                        .set("site", t.spec.site)
                        .set("pid", t.spec.pid)
                        .set("from_visit", t.spec.from_visit)
                        .set("kind", t.kind)
                        .set("diff", t.diff)
                        .set("report", obs::fault_json(&t.report))
                })
                .collect();
            let mut run = obs::Json::obj()
                .set("kernel", kernel.as_str())
                .set("plan", label)
                .set("ok", r.ok())
                .set("benign_ok", r.benign_ok)
                .set("benign_diff", r.benign_diff)
                .set("teeth", teeth);
            if profile {
                let (events, dropped, attempted) = profile_benign(&prog, &bind, &plan, &team);
                println!(
                    "  profile {kernel} {label}: {events} events, {dropped} dropped \
                     (attempted {attempted})"
                );
                if events as u64 + dropped != attempted {
                    failed += 1;
                    println!("FAIL {kernel} {label}: ring accounting broken");
                }
                run = run.set(
                    "profile",
                    obs::Json::obj()
                        .set("events", events as u64)
                        .set("dropped", dropped)
                        .set("attempted", attempted),
                );
            }
            runs.push(run);
        }
    }
    if !no_recover {
        let doc = obs::Json::obj()
            .set("schema_version", obs::SCHEMA_VERSION)
            .set("campaign", "chaos-recovery")
            .set("seed", seed)
            .set("deadline_ms", deadline.as_millis() as u64)
            .set("nprocs", nprocs)
            .set("max_attempts", policy.max_attempts)
            .set("ok", failed == 0)
            .set("runs", runs);
        match std::fs::write(&recovery_json, doc.to_string_pretty()) {
            Ok(()) => println!("recovery: aggregated timelines written to {recovery_json}"),
            Err(e) => {
                eprintln!("beoracle: cannot write {recovery_json}: {e}");
                failed += 1;
            }
        }
    }
    if failed > 0 {
        println!("{failed} kernel plans failed the chaos campaign");
    }
    Ok((failed > 0) as i32)
}

fn cmd_service_chaos(args: &[String]) -> Exit {
    let seed = parse_u64(args, "--chaos-seed", 0)?;
    let rounds = parse_u64(args, "--rounds", 3)? as u32;
    let nprocs = parse_team_size(args)?;
    let json_path = parse_opt(args, "--json").unwrap_or_else(|| "service.json".to_string());
    let snapshot_dir = std::path::PathBuf::from(
        parse_opt(args, "--snapshot-dir")
            .unwrap_or_else(|| format!("beoptd-snapshots-{}", std::process::id())),
    );
    let mut cases = Vec::new();
    for (kernel, sets) in CHAOS_KERNELS {
        let src = match std::fs::read_to_string(format!("kernels/{kernel}")) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("FAIL {kernel}: cannot read kernel file: {e}");
                return Ok(1);
            }
        };
        cases.push(oracle::ServiceChaosCase {
            name: kernel.to_string(),
            src,
            binds: sets.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
        });
    }
    println!(
        "service-chaos campaign: {} kernels x 2 plans x {rounds} rounds (seed {seed}, P={nprocs})",
        cases.len()
    );
    let cfg = oracle::ServiceChaosConfig {
        seed,
        ..Default::default()
    };
    let r = oracle::service_chaos_check(&cases, nprocs, cfg, rounds, Some(snapshot_dir.clone()));
    let _ = std::fs::remove_dir_all(&snapshot_dir);
    println!(
        "service-chaos: {}/{} answers bitwise-identical to the clean reference, {} fault(s) absorbed",
        r.matched,
        r.requests,
        r.faults_absorbed()
    );
    for f in &r.failures {
        println!("FAIL {f}");
    }
    let doc = oracle::service_chaos_json(&r);
    match std::fs::write(&json_path, doc.to_string_pretty()) {
        Ok(()) => println!("service-chaos: report written to {json_path}"),
        Err(e) => {
            eprintln!("beoracle: cannot write {json_path}: {e}");
            return Ok(1);
        }
    }
    Ok(!r.ok() as i32)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let exit = match args.first().map(String::as_str) {
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("mutate") => cmd_mutate(&args[1..]),
        Some("kernels") => cmd_kernels(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("service-chaos") => cmd_service_chaos(&args[1..]),
        _ => {
            eprintln!(
                "usage: beoracle fuzz [--count N] [--seed S] [--threads] [--nprocs 1,3,4] [--repro-dir DIR] [--deadline MS] [--chaos] [--chaos-seed S] [--shapes A,B]\n       beoracle mutate [--count N] [--seed S]\n       beoracle kernels [--threads] [--nprocs 1,3,4]\n       beoracle chaos [--chaos-seed S] [--deadline MS] [--nprocs P] [--repro-dir DIR] [--no-recover] [--recovery-json PATH] [--profile] [--degrade] [--degrade-json PATH] [--max-attempts N]\n       beoracle service-chaos [--chaos-seed S] [--rounds N] [--nprocs P] [--json PATH] [--snapshot-dir DIR]"
            );
            Ok(2)
        }
    };
    std::process::exit(exit.unwrap_or_else(|e| {
        eprintln!("beoracle: {e}");
        2
    }));
}

#[cfg(test)]
mod tests {
    /// The suite-kernel list is a constant, so no command line reaches
    /// this error; it still has to be one, not a panic.
    #[test]
    fn an_unknown_suite_kernel_is_an_error() {
        let e = super::suite_kernel("no_such_kernel", 4).unwrap_err();
        assert_eq!(e, "unknown suite kernel no_such_kernel");
        assert!(super::suite_kernel("multihop", 4).is_ok());
    }
}
