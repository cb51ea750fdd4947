//! Correctness tooling for the barrier-elimination optimizer: a seeded
//! random program generator, a differential execution oracle, a static
//! schedule race validator, and a sync-deletion mutation tester.
//!
//! The pieces compose into two campaigns:
//!
//! * **Fuzzing** ([`fuzz_campaign`]): generate programs with
//!   cross-processor dependences ([`gen`]), run each through the
//!   sequential interpreter, the fork-join schedule, and the optimized
//!   schedule under adversarial virtual interleavings and (optionally)
//!   real threads, diffing final memory and dynamic sync counts
//!   ([`diff`]), and validate every schedule race-free ([`mod@validate`]).
//! * **Mutation testing** ([`mutate`]): delete single sync ops from
//!   known-good schedules and prove the validator flags the hole —
//!   including every hole the differential oracle can observe.
//!
//! The `beoracle` binary in the workspace root drives both from the
//! command line.

pub mod chaos;
pub mod diff;
pub mod gen;
pub mod mutate;
pub mod repro;
pub mod service_chaos;
pub mod validate;

pub use chaos::{
    campaign, droppable_posts, injection_schedule, CampaignReport, ChaosConfig, ChaosInjector,
    DropCandidate, DropSpec, Fault, KillMode, KillPidChaos, Tooth,
};
pub use diff::{check_program, plan_diverges, CaseResult, DiffConfig};
pub use gen::{generate, generate_shape, GenProgram, Shape};
pub use mutate::{
    delete, drop_collectors, implied_syncs, mutation_teeth, sites, MutationSite, TeethReport,
};
pub use repro::dump_repro;
pub use service_chaos::{
    service_chaos_check, service_chaos_json, SeededServiceChaos, ServiceChaosCase,
    ServiceChaosConfig, ServiceChaosReport,
};
pub use validate::{validate, Race, RaceReport};

/// Outcome of a seeded fuzz campaign.
#[derive(Debug, Default)]
pub struct CampaignSummary {
    /// Programs checked.
    pub cases: usize,
    /// `(seed, shape, failures)` for every failing program.
    pub failures: Vec<(u64, Shape, Vec<String>)>,
    /// How many programs of each shape were drawn.
    pub shape_counts: Vec<(Shape, usize)>,
}

impl CampaignSummary {
    /// True when every program passed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Run the differential oracle over `count` programs drawn by `gen`
/// ([`generate`], or a closure over [`generate_shape`] for the
/// on-request shapes) from the seeds starting at `seed0`.
pub fn fuzz_campaign(
    seed0: u64,
    count: u64,
    cfg: &DiffConfig,
    gen: &dyn Fn(u64) -> GenProgram,
) -> CampaignSummary {
    let mut summary = CampaignSummary::default();
    for seed in seed0..seed0 + count {
        let g = gen(seed);
        summary.cases += 1;
        match summary.shape_counts.iter_mut().find(|(s, _)| *s == g.shape) {
            Some((_, n)) => *n += 1,
            None => summary.shape_counts.push((g.shape, 1)),
        }
        let r = check_program(&g.prog, &|p| g.bindings(p), cfg);
        if !r.ok() {
            summary.failures.push((seed, g.shape, r.failures));
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_campaign_is_clean() {
        let cfg = DiffConfig {
            nprocs: vec![3],
            random_orders: 1,
            ..DiffConfig::default()
        };
        let s = fuzz_campaign(0, 6, &cfg, &generate);
        assert_eq!(s.cases, 6);
        assert!(s.ok(), "{:?}", s.failures);
    }
}
