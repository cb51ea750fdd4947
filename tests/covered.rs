//! Teeth for the covering rule: whenever a decision leaves a pair out
//! because a sync placed elsewhere orders it, or owes only the first
//! trip of the loop behind it, that other sync carries the pair — take
//! it out of the plan and `oracle::validate` reports a race on the
//! storage the pair runs through.

use barrier_elim::analysis::Storage;
use barrier_elim::interp::Target;
use barrier_elim::oracle;
use barrier_elim::spmd_opt::{
    demote_site, optimize_logged, set_site_op, SlotKind, SpmdProgram, SyncOp,
};
use barrier_elim::suite::{self, Built, Scale};

fn kernel(name: &str) -> Built {
    (suite::by_name(name).unwrap().build)(Scale::Test)
}

/// The storage cells that race once `site` is stripped from `plan`.
fn races_without(built: &Built, nprocs: i64, plan: &SpmdProgram, site: usize) -> Vec<Target> {
    let mut mutant = plan.clone();
    let old = set_site_op(&mut mutant, site, SyncOp::None).expect("the plan has the site");
    assert!(old.is_some(), "s{site} holds a sync");
    let report = oracle::validate(&built.prog, &built.bindings(nprocs), &mutant);
    report.races.iter().map(|r| r.target).collect()
}

fn on(storage: Storage, target: &Target) -> bool {
    match (storage, target) {
        (Storage::Array(a), Target::Elem(b, _)) => a == *b,
        (Storage::Scalar(s), Target::Scalar(t)) => s == *t,
        _ => false,
    }
}

/// `lu`'s counter #0, `adi`'s and `erlebacher`'s sweep bottoms,
/// `shallow`'s first neighbor exchange: each orders pairs of slots that
/// therefore hold nothing (or less) — and each is needed for them.
#[test]
fn stripping_a_covering_site_races_on_the_covered_pair() {
    for (name, expect) in [("lu", 2), ("adi", 2), ("shallow", 1), ("erlebacher", 2)] {
        let built = kernel(name);
        for nprocs in [3, 4, 8] {
            let (plan, log) = optimize_logged(&built.prog, &built.bindings(nprocs));
            let relieved = log.iter().filter(|d| !d.covered.is_empty());
            assert!(relieved.count() >= expect, "{name} P={nprocs}");
            for d in &log {
                for (pair, site) in &d.covered {
                    // Demoted — the recovery ladder's move — the site is
                    // a barrier, which covers more.
                    let mut demoted = plan.clone();
                    demote_site(&mut demoted, *site);
                    let bind = built.bindings(nprocs);
                    assert!(oracle::validate(&built.prog, &bind, &demoted).is_race_free());
                    let races = races_without(&built, nprocs, &plan, *site);
                    assert!(
                        races.iter().any(|t| on(pair.storage, t)),
                        "{name} P={nprocs}: s{} leaves n{} -> n{} to s{site}, which can go",
                        d.site,
                        pair.src.0,
                        pair.dst.0
                    );
                }
            }
        }
    }
}

/// `workvec` and `tred2`: the slot after the initialisation loop holds
/// a counter for trip 0 alone. It is needed there, and the loop bottom
/// it leaves the later trips to is needed for them. (At three
/// processors the slot keeps the four distances it has for all trips:
/// they do not cover a counter, and a slot never gets a sync it would
/// not have had.)
#[test]
fn a_first_trip_counter_and_the_bottom_it_rides_are_both_needed() {
    for name in ["workvec", "tred2"] {
        let built = kernel(name);
        for nprocs in [4, 8, 16] {
            let (plan, log) = optimize_logged(&built.prog, &built.bindings(nprocs));
            let first = log
                .iter()
                .find(|d| d.first_trip)
                .expect("a first-trip slot");
            assert!(
                first.placed.is_counter(),
                "{name} P={nprocs}: {:?}",
                first.placed
            );
            assert!(first.reason.contains("first trip only"), "{}", first.reason);
            let bottom = log
                .iter()
                .find(|d| d.kind == SlotKind::LoopBottom && d.site > first.site)
                .expect("the loop's bottom");
            assert!(first.reason.contains(&format!("s{} ", bottom.site)));
            for site in [first.site, bottom.site] {
                let races = races_without(&built, nprocs, &plan, site);
                assert!(!races.is_empty(), "{name} P={nprocs}: s{site} can go");
            }
        }
    }
}
