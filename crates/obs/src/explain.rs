//! The optimizer explain pass: structured and human-readable rendering
//! of the greedy algorithm's [`Decision`] log.
//!
//! Each decision maps onto the paper's Section-4 elimination conditions:
//! the communication classification (`analysis`) is the evidence, the
//! placed [`SyncOp`] is the verdict, and `reason` spells out which
//! condition fired. The JSON form is deterministic — object keys are
//! emitted in insertion order and the optimizer itself is deterministic,
//! so two runs over the same program produce byte-identical documents.

use crate::json::Json;
use analysis::{AccessPair, AnalysisStats, Anchor, CommPattern, OwnerMap, ProducerSpec};
use ir::Program;
use spmd_opt::{sync_sites, Decision, SpmdProgram, SyncOp};

/// Render a producer or collector spec with the program's symbol
/// names; `far` is the anchor that takes the subscript from the other
/// statement of the dependence, and is spelled out.
fn spec_str(prog: &Program, p: &ProducerSpec, far: Anchor) -> String {
    let ProducerSpec::Owner { map, sub, anchor } = p else {
        return "master (processor 0)".to_string();
    };
    let sub = ir::pretty::affine_str(prog, sub);
    let owner = match map {
        OwnerMap::Block(block) => format!("block owner of [{sub}] (block {block})"),
        OwnerMap::Cyclic => format!("cyclic owner of [{sub}]"),
        OwnerMap::BlockCyclic(block) => format!("block-cyclic owner of [{sub}] (block {block})"),
    };
    match far {
        _ if *anchor != far => owner,
        Anchor::Source => format!("{owner} (source-anchored)"),
        Anchor::Sink => format!("{owner} (sink-anchored)"),
    }
}

/// Render a producer spec with the program's symbol names.
pub fn producer_str(prog: &Program, p: &ProducerSpec) -> String {
    spec_str(prog, p, Anchor::Sink)
}

/// Render a collector spec with the program's symbol names.
fn collector_str(prog: &Program, p: &ProducerSpec) -> String {
    spec_str(prog, p, Anchor::Source)
}

/// `MAX reductions into rmax commute (statements n30, n30)`.
fn commuting_str(prog: &Program, pair: &AccessPair) -> String {
    let op = prog
        .node(pair.src)
        .as_assign()
        .and_then(|a| a.reduction)
        .map_or("same-operator", |op| match op {
            ir::RedOp::Add => "SUM",
            ir::RedOp::Max => "MAX",
            ir::RedOp::Min => "MIN",
        });
    format!(
        "{op} reductions into {} commute (statements n{}, n{})",
        pair.storage.name(prog),
        pair.src.0,
        pair.dst.0
    )
}

/// A placed sync by its label; `counter` is the number of a
/// counter-labelled one ([`spmd_opt::SyncSite::counter`]).
fn sync_json(prog: &Program, op: &SyncOp, counter: Option<usize>) -> Json {
    let waits = match op {
        SyncOp::None => return Json::obj().set("kind", "none"),
        SyncOp::Barrier => return Json::obj().set("kind", "barrier"),
        SyncOp::Cells { waits } => waits,
    };
    match (waits.class(), counter) {
        (CommPattern::Neighbor { fwd, bwd }, _) => Json::obj()
            .set("kind", "neighbor")
            .set("fwd", fwd)
            .set("bwd", bwd),
        (_, Some(id)) => Json::obj().set("kind", "counter").set("id", id),
        _ => {
            let j = Json::obj()
                .set("kind", "pair-counter")
                .set("dists", waits.dists.render())
                .set("producers", waits.producers.len());
            if waits.collectors.is_empty() {
                return j;
            }
            let names = waits
                .collectors
                .iter()
                .map(|c| collector_str(prog, c).into());
            j.set("collectors", Json::Arr(names.collect()))
        }
    }
}

fn analysis_json(prog: &Program, d: &Decision) -> Json {
    let Some(pat) = d.outcome else {
        return Json::Null;
    };
    let mut j = Json::obj().set("pattern", pat.as_str());
    if let CommPattern::Neighbor { fwd, bwd } = pat {
        j = j.set("fwd", fwd).set("bwd", bwd);
    }
    if let CommPattern::PairWise { dists } = pat {
        j = j.set("dists", dists.render());
    }
    if let Some(p) = &d.producer {
        j = j.set("producer", producer_str(prog, p));
    }
    if !d.commuting.is_empty() {
        let names = d.commuting.iter().map(|c| commuting_str(prog, c).into());
        j = j.set("commuting", Json::Arr(names.collect()));
    }
    if let Some(pin) = &d.pin {
        let pair = pair_json(prog, &pin.pair);
        j = j.set("pinned_by", pair.set("failed_rule", pin.rule));
    }
    j.set("evidence", pat.evidence())
}

/// The fields that name an access pair.
fn pair_json(prog: &Program, pair: &AccessPair) -> Json {
    Json::obj()
        .set("src_stmt", pair.src.0)
        .set("dst_stmt", pair.dst.0)
        .set(pair.storage.kind(), pair.storage.name(prog))
        .set("dependence", pair.dep.as_str())
}

fn decision_json(prog: &Program, d: &Decision, counter: Option<usize>) -> Json {
    let mut j = Json::obj()
        .set("site", d.site)
        .set("slot", d.kind.as_str())
        .set("label", d.label.as_str())
        .set("analysis", analysis_json(prog, d))
        .set("src_stmts", d.src_stmts)
        .set("dst_stmts", d.dst_stmts)
        .set("placed", d.placed_str())
        .set("sync", sync_json(prog, &d.placed, counter))
        .set("reason", d.reason.as_str());
    if d.merged_last_trip {
        j = j.set("merged_last_trip", true);
    }
    // Additive: a decision no other sync takes anything off keeps the
    // document it always had.
    if !d.covered.is_empty() {
        let covered = d
            .covered
            .iter()
            .map(|(pair, site)| pair_json(prog, pair).set("ordered_by_site", *site));
        j = j.set("covered", Json::Arr(covered.collect()));
    }
    if d.first_trip {
        j = j.set("first_trip", true);
    }
    j
}

/// The explain document: program identity, the optimizer's decisions
/// (one per examined sync slot, canonical site ids), the plan's full
/// site walk, and the static stats both for the optimized plan and a
/// baseline for comparison.
pub fn explain_json(
    prog: &Program,
    nprocs: i64,
    plan: &SpmdProgram,
    baseline: &SpmdProgram,
    decisions: &[Decision],
) -> Json {
    let st_o = plan.static_stats();
    let st_b = baseline.static_stats();
    let stats = |st: &spmd_opt::StaticStats| {
        Json::obj()
            .set("regions", st.regions)
            .set("barriers", st.barriers)
            .set("neighbor_syncs", st.neighbor_syncs)
            .set("counter_syncs", st.counter_syncs)
            .set("pair_syncs", st.pair_syncs)
            .set("eliminated", st.eliminated)
    };
    let walk = sync_sites(prog, plan);
    let sites: Vec<Json> = walk
        .iter()
        .map(|s| {
            Json::obj()
                .set("site", s.id)
                .set("slot", s.kind.as_str())
                .set("label", s.label.as_str())
                .set("sync", sync_json(prog, &s.op, s.counter))
        })
        .collect();
    let decisions = decisions
        .iter()
        .map(|d| decision_json(prog, d, walk[d.site].counter));
    Json::obj()
        .set("program", prog.name.as_str())
        .set("nprocs", nprocs)
        .set("decisions", Json::Arr(decisions.collect()))
        .set("sites", Json::Arr(sites))
        .set(
            "static",
            Json::obj()
                .set("optimized", stats(&st_o))
                .set("baseline", stats(&st_b)),
        )
}

/// Human-readable rendering of the decision log (what `beopt --explain`
/// prints).
pub fn render_decisions(prog: &Program, decisions: &[Decision]) -> String {
    let mut out = String::new();
    out.push_str("--- sync decisions (explain pass) ---\n");
    for d in decisions {
        out.push_str(&format!(
            "s{:<3} {:<34} {}\n",
            d.site,
            d.label,
            d.placed_str()
        ));
        if let Some(pat) = d.outcome {
            out.push_str(&format!(
                "     analysis: {} over {} x {} statement pair(s)",
                pat.as_str(),
                d.src_stmts,
                d.dst_stmts
            ));
            for c in &d.commuting {
                out.push_str(&format!("; {}", commuting_str(prog, c)));
            }
            out.push('\n');
            if let Some(p) = &d.producer {
                out.push_str(&format!("     producer: {}\n", producer_str(prog, p)));
            }
            for c in d.placed.waits().iter().flat_map(|w| &w.collectors) {
                out.push_str(&format!("     collector: {}\n", collector_str(prog, c)));
            }
            for (pair, site) in &d.covered {
                let pair = spmd_opt::pair_str(prog, pair);
                out.push_str(&format!("     covered: {pair} — ordered by s{site}\n"));
            }
        }
        out.push_str(&format!("     why: {}\n", d.reason));
    }
    out
}

/// Human-readable footer for the analysis cache counters.
///
/// This stays out of [`explain_json`]: the counts repeat from run to
/// run but differ between configurations (uncached, cold, shared
/// cache), and the JSON document must remain byte-identical across
/// both.
pub fn render_analysis_stats(stats: &AnalysisStats) -> String {
    let mut out = String::new();
    out.push_str("--- analysis cache (diagnostics; never affects decisions) ---\n");
    out.push_str(&format!(
        "access pairs: {} from the facts table, {} scanned ({:.0}% reused)\n",
        stats.pair_hits,
        stats.pair_misses,
        stats.pair_hit_rate() * 100.0
    ));
    out.push_str(&format!(
        "FME feasibility: {} hits, {} scans ({:.0}% hit rate), {} memo entries\n",
        stats.fme.feas_hits,
        stats.fme.feas_misses,
        stats.fme.feas_hit_rate() * 100.0,
        stats.fme.entries
    ));
    out.push_str(&format!(
        "FME memo bound: {} of {} entry capacity, {} second-chance eviction(s)\n",
        stats.fme.entries, stats.fme.feas_capacity, stats.fme.feas_evictions
    ));
    out.push_str(&format!(
        "scan health: peak {} constraints, {} unknown verdict(s) (overflow/budget -> barrier kept)\n",
        stats.fme.peak_constraints, stats.fme.unknown_verdicts
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::Bindings;
    use ir::build::*;
    use spmd_opt::{fork_join, optimize_logged};

    fn two_loop_chain() -> Program {
        let mut pb = ProgramBuilder::new("chain");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let b = pb.array("B", &[sym(n)], dist_block());
        let i = pb.begin_par("i", con(0), sym(n) - 1);
        pb.assign(elem(b, [idx(i)]), arr(a, [idx(i)]) * ex(2.0));
        pb.end();
        let j = pb.begin_par("j", con(0), sym(n) - 1);
        pb.assign(elem(a, [idx(j)]), arr(b, [idx(j)]) + ex(1.0));
        pb.end();
        pb.finish()
    }

    #[test]
    fn explain_document_has_one_decision_per_examined_slot() {
        let prog = two_loop_chain();
        let bind = Bindings::new(4).set(ir::SymId(0), 64);
        let (plan, log) = optimize_logged(&prog, &bind);
        let base = fork_join(&prog, &bind);
        let doc = explain_json(&prog, 4, &plan, &base, &log);
        let ds = doc.get("decisions").unwrap().as_arr().unwrap();
        assert_eq!(ds.len(), log.len());
        // The eliminated inter-loop boundary is decision 0 at site 0.
        assert_eq!(ds[0].get("site").unwrap().as_u64(), Some(0));
        assert_eq!(ds[0].get("placed").unwrap().as_str(), Some("eliminated"));
        let analysis = ds[0].get("analysis").unwrap();
        assert_eq!(analysis.get("pattern").unwrap().as_str(), Some("no-comm"));
        // Site ids in the document are valid indices into "sites".
        let sites = doc.get("sites").unwrap().as_arr().unwrap();
        for d in ds {
            let id = d.get("site").unwrap().as_u64().unwrap() as usize;
            assert!(id < sites.len());
            assert_eq!(sites[id].get("label"), d.get("label"));
        }
    }

    #[test]
    fn json_is_byte_identical_across_runs() {
        let prog = two_loop_chain();
        let bind = Bindings::new(4).set(ir::SymId(0), 64);
        let render = || {
            let (plan, log) = optimize_logged(&prog, &bind);
            let base = fork_join(&prog, &bind);
            explain_json(&prog, 4, &plan, &base, &log).to_string_pretty()
        };
        assert_eq!(render(), render());
    }

    #[test]
    fn human_rendering_names_every_site() {
        let prog = two_loop_chain();
        let bind = Bindings::new(4).set(ir::SymId(0), 64);
        let (_, log) = optimize_logged(&prog, &bind);
        let text = render_decisions(&prog, &log);
        for d in &log {
            assert!(text.contains(&d.label), "missing {}", d.label);
            assert!(text.contains(&d.reason));
        }
    }

    /// A collector is named at its site, in text and in JSON, and a
    /// reduction pair the analysis skipped is named in the analysis
    /// line of every slot that saw it.
    #[test]
    fn collectors_and_commuting_reductions_are_named() {
        let mut pb = ProgramBuilder::new("gather");
        let n = pb.sym("n");
        let a = pb.array("A", &[sym(n)], dist_block());
        let s = pb.scalar("s", 1.0);
        let m = pb.scalar("m", 0.0);
        let _t = pb.begin_seq("t", con(0), con(3));
        pb.assign(svar(s), sca(s) * ex(0.5));
        let j = pb.begin_par("j", con(0), sym(n) - 1);
        pb.assign(elem(a, [idx(j)]), sca(s) + arr(a, [idx(j)]));
        pb.reduce(svar(m), ir::RedOp::Max, arr(a, [idx(j)]));
        pb.end();
        pb.end();
        let prog = pb.finish();
        let bind = Bindings::new(4).set(n, 32);
        let (plan, log) = optimize_logged(&prog, &bind);
        let text = render_decisions(&prog, &log);
        assert!(
            text.contains("     collector: master (processor 0)\n"),
            "{text}"
        );
        assert!(text.contains("outside the fan-in budget"), "{text}");
        assert!(
            text.contains("; MAX reductions into m commute (statements n2, n2)\n"),
            "{text}"
        );
        let doc = explain_json(&prog, 4, &plan, &fork_join(&prog, &bind), &log);
        let bottom = doc
            .get("decisions")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .find(|d| d.get("slot").unwrap().as_str() == Some("loop-bottom"))
            .unwrap();
        let sync = bottom.get("sync").unwrap();
        let collectors = sync.get("collectors").unwrap().as_arr().unwrap();
        assert_eq!(collectors[0].as_str(), Some("master (processor 0)"));
        let commuting = bottom.get("analysis").unwrap().get("commuting").unwrap();
        assert_eq!(commuting.as_arr().unwrap().len(), 1);
    }

    /// Cache counters live in their own human-readable footer — and the
    /// deterministic explain JSON is byte-identical whether the analysis
    /// ran cached+parallel or sequential+uncached.
    #[test]
    fn stats_footer_renders_and_json_ignores_analysis_config() {
        use spmd_opt::{optimize_explained, AnalysisConfig, OptimizeOptions};
        let prog = two_loop_chain();
        let bind = Bindings::new(4).set(ir::SymId(0), 64);
        let render = |cfg: AnalysisConfig| {
            let opts = OptimizeOptions {
                analysis: cfg,
                ..Default::default()
            };
            let (plan, log, stats) = optimize_explained(&prog, &bind, opts);
            let base = fork_join(&prog, &bind);
            let doc = explain_json(&prog, 4, &plan, &base, &log).to_string_pretty();
            (doc, stats)
        };
        let (ref_doc, _) = render(AnalysisConfig::sequential_uncached());
        let (cached_doc, stats) = render(AnalysisConfig::default());
        assert_eq!(ref_doc, cached_doc);
        let footer = render_analysis_stats(&stats);
        assert!(footer.contains("access pairs"), "{footer}");
        assert!(footer.contains("FME feasibility"), "{footer}");
        // The JSON document must not carry configuration-dependent counters.
        assert!(!ref_doc.contains("hit"), "{ref_doc}");
    }
}
