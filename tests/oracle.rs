//! Acceptance tests for the correctness-tooling subsystem (`oracle`):
//! the differential execution oracle, the schedule race validator, and
//! the sync-deletion mutation tester.

use barrier_elim::oracle::{self, DiffConfig};
use barrier_elim::spmd_opt::{fork_join, optimize};
use barrier_elim::suite::{self, Scale};

/// Suite reductions may reassociate; generated programs use only
/// order-independent reductions and must match exactly.
const KERNEL_TOL: f64 = 1e-9;

/// The differential oracle finds no mismatch on 200 fixed-seed
/// generated programs, across the virtual backend (P ∈ {1, 3, 4},
/// round-robin + reverse + random interleavings) and the real-thread
/// backend (central and tree barriers), with every schedule validating
/// race-free along the way.
#[test]
fn differential_oracle_is_clean_on_200_generated_programs() {
    let cfg = DiffConfig {
        nprocs: vec![1, 3, 4],
        threads: true,
        thread_nprocs: 4,
        ..DiffConfig::default()
    };
    let s = oracle::fuzz_campaign(0, 200, &cfg, &oracle::generate);
    assert_eq!(s.cases, 200);
    assert!(s.ok(), "failures: {:#?}", s.failures);
    assert_eq!(
        s.shape_counts.len(),
        6,
        "all six program shapes should be drawn in 200 seeds: {:?}",
        s.shape_counts
    );
}

/// Every suite kernel passes the same differential check (virtual
/// backends; the real-thread path is exercised by the generated
/// programs above and by `tests/real_threads.rs`).
#[test]
fn differential_oracle_is_clean_on_suite_kernels() {
    let cfg = DiffConfig {
        tol: KERNEL_TOL,
        ..DiffConfig::default()
    };
    let mut failures = Vec::new();
    for def in suite::all() {
        let built = (def.build)(Scale::Test);
        let r = oracle::check_program(&built.prog, &|p| built.bindings(p), &cfg);
        if !r.ok() {
            failures.push((def.name, r.failures));
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

/// Mutation teeth: across known-good optimized schedules, deleting any
/// single *required* sync op is caught by the race validator. Checked
/// in three parts on every schedule:
///
/// * the unmutated schedule validates race-free;
/// * every mutant whose divergence the differential oracle can observe
///   under adversarial interleavings is also flagged statically
///   (required ⊆ flagged);
/// * every interior deletion (phase-`after`, seq-`bottom`/`after`) is
///   flagged. Only trailing region-end barriers — unobservable because
///   both executors join at region exit anyway — may go unflagged.
#[test]
fn deleting_any_required_sync_op_is_flagged_by_the_validator() {
    // ≥ 10 known-good optimized schedules: suite kernels whose placed
    // synchronization is exact at Test scale, plus generated programs.
    let kernels = [
        "jacobi2d",
        "stencil3d",
        "redblack",
        "fdtd",
        "cg_dense",
        "tomcatv_mesh",
        "livermore7",
        "mgrid",
        "seidel_pipe",
        "workvec",
        "transpose",
        "tred2",
    ];
    let mut schedules = 0usize;
    let mut interior_sites = 0usize;
    let mut check = |label: &str,
                     prog: &barrier_elim::ir::Program,
                     bind: &barrier_elim::analysis::Bindings,
                     tol: f64| {
        let plan = optimize(prog, bind);
        let teeth = oracle::mutation_teeth(prog, bind, &plan, tol);
        assert_eq!(
            teeth.clean_racing_pairs, 0,
            "{label}: unmutated schedule must be race-free"
        );
        assert!(
            teeth.validator_covers_divergence(),
            "{label}: a dynamically-diverging mutant escaped the validator: {:#?}",
            teeth.sites
        );
        assert!(
            teeth.all_interior_flagged(),
            "{label}: an interior sync deletion went unflagged: {:#?}",
            teeth.sites
        );
        schedules += 1;
        interior_sites += teeth.sites.iter().filter(|s| !s.site.region_end).count();
    };
    for name in kernels {
        let built = (suite::by_name(name).unwrap().build)(Scale::Test);
        let bind = built.bindings(4);
        check(name, &built.prog, &bind, KERNEL_TOL);
    }
    for seed in 0..8u64 {
        let g = oracle::generate(seed);
        let bind = g.bindings(4);
        check(&format!("gen seed {seed}"), &g.prog, &bind, 0.0);
    }
    assert!(schedules >= 10, "only {schedules} schedules checked");
    assert!(
        interior_sites >= 30,
        "only {interior_sites} interior sync sites mutated"
    );
}

/// Which mutants the three fixed interleavings happen to expose, on
/// `generate(0..6)` at four processors (what `beoracle mutate --count 6`
/// prints). Observation, not soundness — the validator flags all 18 —
/// but it moves with the virtual executor's release rule (a consumer
/// crosses once its producer has *arrived*, at every point-to-point
/// site), so a change there shows here.
#[test]
fn the_mutants_that_diverge_dynamically_are_pinned() {
    let diverging: Vec<String> = (0..6u64)
        .flat_map(|seed| {
            let g = oracle::generate(seed);
            let bind = g.bindings(4);
            let plan = optimize(&g.prog, &bind);
            let teeth = oracle::mutation_teeth(&g.prog, &bind, &plan, 0.0);
            let seen = teeth.sites.into_iter().filter(|t| t.diverged.is_some());
            seen.map(move |t| format!("{seed} {}", t.site.desc))
        })
        .collect();
    let expected = [
        "0 seq(node 5).bottom: neighbor",
        "1 phase(node 1).after: neighbor",
        "1 phase(node 3).after: neighbor",
        "1 seq(node 6).bottom: neighbor",
        "2 phase(node 5).after: counter",
        "3 seq(node 5).bottom: neighbor",
        "4 phase(node 5).after: counter",
        "4 seq(node 10).bottom: pairwise",
        "4 seq(node 10).bottom: pairwise minus collectors",
        "5 phase(node 5).after: counter",
    ];
    assert_eq!(diverging, expected);
}

/// The validator accepts both the fork-join and the optimized schedule
/// of every suite kernel at several processor counts — the fork-join
/// plan is the trivially-sound baseline, so flagging it would be a
/// validator false positive.
#[test]
fn validator_accepts_known_good_schedules_at_many_processor_counts() {
    for def in suite::all() {
        let built = (def.build)(Scale::Test);
        for p in [1, 3, 4, 8] {
            let bind = built.bindings(p);
            for (label, plan) in [
                ("fork-join", fork_join(&built.prog, &bind)),
                ("optimized", optimize(&built.prog, &bind)),
            ] {
                let r = oracle::validate(&built.prog, &bind, &plan);
                assert!(
                    r.is_race_free(),
                    "{} ({label}, P={p}): {} racing pairs, first: {:?}",
                    def.name,
                    r.num_racing_pairs,
                    r.races.first()
                );
            }
        }
    }
}

/// `beoracle` reports input it cannot use as `beoracle: <what>` on
/// stderr with exit status 2 — never a panic (which would exit 101).
mod cli {
    use std::process::Command;

    /// Run `beoracle` with `args`; when `broadcast` is given, from a
    /// scratch directory whose `kernels/broadcast.be` holds that text.
    fn beoracle(args: &[&str], broadcast: Option<&str>) -> (Option<i32>, String) {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_beoracle"));
        cmd.args(args);
        let dir = broadcast.map(|text| {
            // Tests run concurrently: the text's length keeps their
            // directories apart.
            let dir = std::env::temp_dir().join(format!(
                "beoracle-cli-{}-{:x}",
                std::process::id(),
                text.len()
            ));
            std::fs::create_dir_all(dir.join("kernels")).unwrap();
            std::fs::write(dir.join("kernels/broadcast.be"), text).unwrap();
            cmd.current_dir(&dir);
            dir
        });
        let out = cmd.output().expect("spawn beoracle");
        if let Some(dir) = dir {
            std::fs::remove_dir_all(dir).unwrap();
        }
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    }

    #[test]
    fn a_bad_numeric_flag_is_a_usage_error() {
        for (args, what) in [
            (&["fuzz", "--count", "abc"][..], "bad --count: abc"),
            (&["fuzz", "--nprocs", "1,x"], "bad --nprocs: 1,x"),
            (&["fuzz", "--nprocs", "0"], "bad --nprocs: 0"),
            (&["fuzz", "--shapes", "a,b"], "bad --shapes: a,b"),
            (&["kernels", "--nprocs", "8,x"], "bad --nprocs: 8,x"),
            (&["chaos", "--nprocs", "0"], "bad --nprocs: 0"),
            (
                &["chaos", "--nprocs", "1"],
                "bad --nprocs: 1 (a dropped post needs a reader)",
            ),
            (&["chaos", "--deadline", "soon"], "bad --deadline: soon"),
        ] {
            let (code, stderr) = beoracle(args, None);
            assert_eq!(code, Some(2), "{args:?}: {stderr}");
            assert_eq!(stderr.trim_end(), format!("beoracle: {what}"));
        }
    }

    /// Each subcommand takes its own flags: `fuzz --cases 0` used to
    /// run the default 200 programs and exit 0.
    #[test]
    fn an_unknown_flag_or_a_stray_value_is_a_usage_error() {
        for (args, what) in [
            (&["fuzz", "--cases", "0"][..], "fuzz takes no flag --cases"),
            (&["kernels", "--kernels"], "kernels takes no flag --kernels"),
            (&["chaos", "--threads"], "chaos takes no flag --threads"),
            (&["mutate", "--count"], "--count needs a value"),
            (&["kernels", "8"], "kernels: unexpected argument 8"),
            (
                &["fuzz", "--count", "1", "2"],
                "fuzz: unexpected argument 2",
            ),
        ] {
            let (code, stderr) = beoracle(args, None);
            assert_eq!(code, Some(2), "{args:?}: {stderr}");
            assert_eq!(stderr.trim_end(), format!("beoracle: {what}"));
        }
    }

    #[test]
    fn a_kernel_that_does_not_parse_is_a_usage_error() {
        let (code, stderr) = beoracle(&["chaos"], Some("program broadcast\ndoall\n"));
        assert_eq!(code, Some(2), "{stderr}");
        assert!(stderr.starts_with("beoracle: broadcast.be: "), "{stderr}");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
    }

    #[test]
    fn a_kernel_without_a_pinned_symbol_is_a_usage_error() {
        let text = "program broadcast\nsym m\narray A(m) block\n\
                    doall i = 0, m-1\n  A(i) = 1.0\nend\n";
        let (code, stderr) = beoracle(&["chaos"], Some(text));
        assert_eq!(code, Some(2), "{stderr}");
        assert_eq!(stderr.trim_end(), "beoracle: broadcast.be: sym n missing");
    }
}
