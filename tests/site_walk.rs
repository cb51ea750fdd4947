//! Every consumer of a plan's canonical site ids names the same slots.
//!
//! The 24 suite kernels (`Scale::Test`) and the five `kernels/*.be`
//! sources (`n = 32`, `tmax = 4`) are planned at P ∈ {2, 3, 8} under
//! both `fork_join` and `optimize`, and for each plan:
//!
//! - `set_site_op` at every id displaces the op `sync_sites` reports
//!   there, and changes no other site;
//! - the mutation tester's `sites` are the non-`None` sites, with the
//!   same ids, and `region_end` marks exactly the region ends;
//! - every sync step a cursor walks names a non-`None` site, which holds
//!   a barrier exactly when the step is one.

use barrier_elim::analysis::Bindings;
use barrier_elim::interp::{Event, Schedule, SyncStep};
use barrier_elim::ir::{Program, SymId};
use barrier_elim::spmd_opt::{fork_join, optimize, set_site_op, sync_sites, SlotKind, SyncOp};

/// A program of the set with its bindings at `nprocs`.
fn bound_set(nprocs: i64) -> Vec<(String, Program, Bindings)> {
    let mut set = Vec::new();
    for def in barrier_elim::suite::all() {
        let built = (def.build)(barrier_elim::suite::Scale::Test);
        let bind = built.bindings(nprocs);
        set.push((def.name.to_string(), built.prog, bind));
    }
    for name in [
        "broadcast",
        "jacobi",
        "pipeline",
        "private_gather",
        "shallow",
    ] {
        let src = std::fs::read_to_string(format!("kernels/{name}.be")).unwrap();
        let prog = barrier_elim::frontend::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut bind = Bindings::new(nprocs);
        for (k, sym) in prog.syms.iter().enumerate() {
            let v = if sym.name == "tmax" { 4 } else { 32 };
            bind.bind(SymId(k as u32), v);
        }
        set.push((format!("{name}.be"), prog, bind));
    }
    set
}

#[test]
fn every_consumer_names_the_same_slots() {
    let mut plans = 0;
    for nprocs in [2, 3, 8] {
        for (name, prog, bind) in bound_set(nprocs) {
            for plan in [fork_join(&prog, &bind), optimize(&prog, &bind)] {
                plans += 1;
                let at = format!("{name} at P = {nprocs}");
                let sites = sync_sites(&prog, &plan);

                for (k, site) in sites.iter().enumerate() {
                    assert_eq!(site.id, k, "{at}");
                    let mut copy = plan.clone();
                    let old = set_site_op(&mut copy, k, SyncOp::Barrier);
                    assert_eq!(old.as_ref(), Some(&site.op), "{at}: site {k}");
                    let after = sync_sites(&prog, &copy);
                    assert_eq!(after.len(), sites.len(), "{at}: site {k}");
                    for (j, (was, now)) in sites.iter().zip(&after).enumerate() {
                        let want = if j == k { &SyncOp::Barrier } else { &was.op };
                        assert_eq!(&now.op, want, "{at}: site {j} after setting {k}");
                    }
                }
                let past = set_site_op(&mut plan.clone(), sites.len(), SyncOp::Barrier);
                assert_eq!(past, None, "{at}");

                let placed: Vec<_> = sites.iter().filter(|s| s.op.is_some()).collect();
                let mutation = barrier_elim::oracle::sites(&plan);
                assert_eq!(mutation.len(), placed.len(), "{at}");
                for (m, s) in mutation.iter().zip(&placed) {
                    assert_eq!(m.index, s.id, "{at}: {}", m.desc);
                    let end = s.kind == SlotKind::RegionEnd;
                    assert_eq!(m.region_end, end, "{at}: {}", m.desc);
                }

                let sched = Schedule::new(&prog, &bind, &plan);
                for step in sched.cursor() {
                    let Event::Sync { site, op } = step.event else {
                        continue;
                    };
                    let s = sites
                        .get(site as usize)
                        .unwrap_or_else(|| panic!("{at}: step {} names site {site}", step.ordinal));
                    assert!(s.op.is_some(), "{at}: site {site} holds no sync");
                    let barrier = op == SyncStep::Barrier;
                    assert_eq!(s.op.is_barrier(), barrier, "{at}: site {site}");
                }
            }
        }
    }
    assert_eq!(plans, 3 * 29 * 2);
}
