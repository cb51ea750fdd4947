//! End-to-end self-healing tests: the recovery supervisor on the
//! shipped `.be` kernels and on random generated programs, plus the
//! `beopt --run --recover` exit-code contract.
//!
//! The unit tests in `runtime::recovery` and `interp::supervise` cover
//! the ladder and the loop; these tests cover the tool-level promise —
//! a *persistent* dropped sync post is absorbed by checkpoint rollback,
//! demotion and retry, the recovered memory is exactly what the
//! sequential oracle computes, and the CLI reports success (exit 0) for
//! a recovered run but failure (nonzero) when recovery is off or the
//! budget is exhausted. That every drop of every shipped kernel under
//! both plan families is absorbed is checked on the one chaos campaign
//! per kernel and family in `tests/degrade.rs`.

use barrier_elim::analysis::Bindings;
use barrier_elim::frontend;
use barrier_elim::interp::{run_parallel_supervised, run_sequential, Mem, ObserveOptions};
use barrier_elim::ir::SymId;
use barrier_elim::oracle::{self, droppable_posts, ChaosInjector, DropSpec, Fault};
use barrier_elim::runtime::{RetryPolicy, Team};
use barrier_elim::spmd_opt::optimize;
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

/// Short backoffs keep the multi-retry campaigns fast; the budget is
/// the shipping default.
fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
        ..RetryPolicy::default()
    }
}

/// The planned backoff timeline in a report is the policy's exact
/// exponential — never wall-clock noise.
#[test]
fn reported_backoffs_follow_the_policy_exponential() {
    let (prog, bind) = load("jacobi.be", &[("n", 48), ("tmax", 4)], 4);
    let policy = fast_policy();
    let deadline = Duration::from_millis(150);
    let r = oracle::campaign(&prog, &bind, &optimize, 7, deadline, 1e-9, &policy);
    for t in &r.teeth {
        let Fault::Drop(c) = t.fault else { continue };
        // Every attempt but the completing last one was retried.
        let attempts = &t.report.rounds[0].attempts;
        for (k, a) in attempts[..attempts.len() - 1].iter().enumerate() {
            assert_eq!(
                a.backoff_ms,
                policy.backoff_before(k as u32 + 1).as_millis() as u64,
                "attempt {} of {} tooth",
                k + 1,
                c.kind
            );
        }
    }
}

mod cli {
    use super::*;
    use std::process::Command;

    /// A drop spec the current optimized jacobi plan is guaranteed to
    /// wedge on: the last precisely-attributable post (a barrier
    /// arrival — counter teeth can sit earlier in the schedule).
    fn jacobi_drop() -> (Vec<String>, DropSpec) {
        let (prog, bind) = load("jacobi.be", &[("n", 48), ("tmax", 4)], 4);
        let plan = optimize(&prog, &bind);
        let cand = droppable_posts(&prog, &bind, &plan)
            .pop()
            .expect("jacobi has droppable posts");
        let base = vec![
            "kernels/jacobi.be".to_string(),
            "--nprocs".into(),
            "4".into(),
            "--set".into(),
            "n=48".into(),
            "--set".into(),
            "tmax=4".into(),
            "--run".into(),
            "--chaos-drop".into(),
            format!(
                "{}:{}:{}",
                cand.spec.site, cand.spec.pid, cand.spec.from_visit
            ),
        ];
        (base, cand.spec)
    }

    fn beopt(args: &[String]) -> std::process::Output {
        Command::new(env!("CARGO_BIN_EXE_beopt"))
            .args(args)
            .output()
            .expect("spawn beopt")
    }

    /// Satellite: a recovered run is a *successful* run — exit 0, with
    /// the recovery report on stdout.
    #[test]
    fn recover_flag_turns_a_persistent_drop_into_exit_zero() {
        let (mut args, spec) = jacobi_drop();
        args.push("--recover".into());
        let out = beopt(&args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "beopt --recover failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains("--- fault report ---"), "{stdout}");
        assert!(
            stdout.contains(&format!("demote s{}", spec.site)),
            "report does not demote the dropped site s{}:\n{stdout}",
            spec.site
        );
        assert!(stdout.contains("recovered after"), "{stdout}");
    }

    /// Satellite: without `--recover` the same fault is a hard failure
    /// — nonzero exit and a failure report.
    #[test]
    fn without_recover_the_same_drop_exits_nonzero() {
        let (mut args, _) = jacobi_drop();
        args.push("--deadline".into());
        args.push("150".into());
        let out = beopt(&args);
        assert!(
            !out.status.success(),
            "beopt without --recover should fail under a persistent drop:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("EXECUTION FAILED"), "{stderr}");
    }

    /// An exhausted budget is still a failure: `--max-attempts 1`
    /// forbids retries, so the drop surfaces as a nonzero exit even
    /// under `--recover`.
    #[test]
    fn exhausted_recovery_budget_exits_nonzero() {
        let (mut args, _) = jacobi_drop();
        args.push("--recover".into());
        args.push("--max-attempts".into());
        args.push("1".into());
        let out = beopt(&args);
        assert!(
            !out.status.success(),
            "budget of 1 cannot absorb a persistent drop:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("recovery budget exhausted"), "{stderr}");
    }
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    /// One supervised run of a generated program under a persistent
    /// drop; returns (converged, max_abs_diff vs sequential oracle).
    fn recover_generated(gen_seed: u64, chaos_seed: u64) -> Option<(bool, f64)> {
        let g = oracle::generate(gen_seed);
        let prog = Arc::new(g.prog.clone());
        let bind = Arc::new(g.bindings(4));
        let plan = optimize(&prog, &bind);
        let cand = droppable_posts(&prog, &bind, &plan).pop()?;
        let oracle_mem = Mem::new(&prog, &bind);
        run_sequential(&prog, &bind, &oracle_mem);
        let mem = Arc::new(Mem::new(&prog, &bind));
        let team = Team::new(4);
        let r = run_parallel_supervised(
            &prog,
            &bind,
            &plan,
            &mem,
            &team,
            &ObserveOptions {
                deadline: Some(Duration::from_millis(120)),
                chaos: Some(Arc::new(ChaosInjector::new(chaos_seed, Some(cand.spec)))),
                ..ObserveOptions::default()
            },
            &fast_policy(),
            None,
        );
        Some((r.report.rung.completed(), mem.max_abs_diff(&oracle_mem)))
    }

    proptest! {
        /// Satellite: the backoff schedule saturates instead of
        /// overflowing — any retry index up to `u32::MAX` yields a
        /// well-defined pause that never exceeds the cap and never
        /// shrinks as retries deepen. The exponent clamps at 2^16, so
        /// far past the clamp the pause is exactly
        /// `min(base * 2^16, cap)`.
        #[test]
        fn backoff_saturates_at_the_cap_near_u32_max(
            base_ms in 0u64..5_000,
            cap_ms in 0u64..5_000,
            lo in 1u32..64,
            hi in (u32::MAX - 64)..u32::MAX,
        ) {
            let p = RetryPolicy {
                backoff_base: Duration::from_millis(base_ms),
                backoff_cap: Duration::from_millis(cap_ms),
                ..RetryPolicy::default()
            };
            let cap = Duration::from_millis(cap_ms);
            prop_assert_eq!(p.backoff_before(0), Duration::ZERO);
            for r in [lo, hi, u32::MAX - 1, u32::MAX] {
                prop_assert!(p.backoff_before(r) <= cap);
                // Monotone: a deeper retry never sleeps less.
                prop_assert!(p.backoff_before(r) <= p.backoff_before(r.saturating_add(1)));
            }
            prop_assert!(p.backoff_before(lo) <= p.backoff_before(hi));
            let clamped = Duration::from_millis(base_ms)
                .saturating_mul(1 << 16)
                .min(cap);
            prop_assert_eq!(p.backoff_before(u32::MAX), clamped);
            prop_assert_eq!(p.backoff_before(hi), clamped);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Satellite: for any generated program and any absorbable
        /// chaos seed, the recovered memory is *bitwise* equal to the
        /// fork-join-free sequential reference — recovery never trades
        /// correctness for progress.
        #[test]
        fn recovered_memory_is_bitwise_equal_to_the_reference(
            gen_seed in 0u64..24,
            chaos_seed in 0u64..8,
        ) {
            if let Some((converged, diff)) = recover_generated(gen_seed, chaos_seed) {
                prop_assert!(converged, "seed {gen_seed}/{chaos_seed}: budget exhausted");
                prop_assert!(
                    diff == 0.0,
                    "seed {gen_seed}/{chaos_seed}: recovered memory off by {diff:e}"
                );
            }
        }
    }
}
