//! The paper's mechanisms are labels of one wait set, and the label is
//! a function of its shape. At every sync site of the compile set — the
//! 24 suite kernels, the five `kernels/*.be` sources and
//! `oracle::generate(0..32)` at P ∈ {2, 3, 8, 64} — the name reports
//! give the sync agrees with the three fields of the wait set the plan
//! holds, in both directions: neighbor flags ⇔ distances within ±1 and
//! nothing else, a counter ⇔ one producer and nothing else; no
//! point-to-point sync waits for nobody; and what the decision log says
//! was classified (directions, distances, the producer) is what was
//! placed.

use barrier_elim::analysis::CommPattern;
use barrier_elim::ir::SymId;
use barrier_elim::spmd_opt::{optimize_logged, placed_str, sync_sites, StaticStats};
use barrier_elim::suite::{self, Built};

const WIDTHS: [i64; 4] = [2, 3, 8, 64];

fn compile_set() -> Vec<(String, Built)> {
    let mut set = Vec::new();
    for def in suite::all() {
        set.push((def.name.to_string(), (def.build)(suite::Scale::Test)));
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
        let values = (0..prog.syms.len())
            .map(|k| {
                let v = if prog.syms[k].name == "tmax" { 4 } else { 32 };
                (SymId(k as u32), v)
            })
            .collect();
        set.push((format!("{name}.be"), Built { prog, values }));
    }
    for seed in 0..32 {
        let g = barrier_elim::oracle::generate(seed);
        let (prog, values) = (g.prog, g.values);
        set.push((format!("gen{seed}"), Built { prog, values }));
    }
    set
}

#[test]
fn every_label_is_the_shape_of_its_wait_set() {
    let mut seen = StaticStats::default();
    for (name, built) in compile_set() {
        let prog = &built.prog;
        for nprocs in WIDTHS {
            let (plan, log) = optimize_logged(prog, &built.bindings(nprocs));
            let at = format!("{name} P={nprocs}");
            for site in sync_sites(prog, &plan) {
                let Some(w) = site.op.waits() else {
                    continue;
                };
                let (specs, at) = (w.producers.len() + w.collectors.len(), (&at, site.id));
                assert!(!w.dists.is_empty() || specs > 0, "{at:?} waits for nobody");
                let near = specs == 0 && w.dists.iter().all(|d| d.abs() == 1);
                let lone = w.dists.is_empty() && w.collectors.is_empty() && specs == 1;
                let name = placed_str(&site.op);
                assert_eq!(name == "neighbor flags", near, "{at:?} {name}: {w:?}");
                assert_eq!(name == "counter", lone, "{at:?} {name}: {w:?}");
            }
            for d in &log {
                let Some(w) = d.placed.waits() else {
                    continue;
                };
                let at = (&at, d.site);
                match d.outcome.expect("a placed sync was classified") {
                    CommPattern::Neighbor { fwd, bwd } => {
                        assert_eq!((fwd, bwd), (w.dists.contains(1), w.dists.contains(-1)));
                    }
                    CommPattern::Producer1 => assert!(d.placed.is_counter(), "{at:?}"),
                    CommPattern::PairWise { dists } => assert_eq!(dists, w.dists, "{at:?}"),
                    other => panic!("{at:?}: {other:?} placed {:?}", d.placed),
                }
                let producer = w.producers.first().filter(|_| d.placed.is_counter());
                assert_eq!(d.producer.as_ref(), producer, "{at:?}");
            }
            let st = plan.static_stats();
            seen.neighbor_syncs += st.neighbor_syncs;
            seen.counter_syncs += st.counter_syncs;
            seen.pair_syncs += st.pair_syncs;
        }
    }
    // Every label is exercised, many times over.
    for n in [seen.neighbor_syncs, seen.counter_syncs, seen.pair_syncs] {
        assert!(n >= 50, "{seen:?}");
    }
}
