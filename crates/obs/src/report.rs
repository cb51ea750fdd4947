//! The run report: the one document `beopt --report` writes.
//!
//! A [`RunReport`] holds what one invocation compiled, measured and
//! survived: `compile` (the explain document and the analysis cache
//! counts), `run` (sync totals over every attempt, one row of recorder
//! cells per canonical site — with that site's episode facts when the
//! event rings were on — the profile's stream accounting, and the
//! observed-vs-predicted rows against a barrier baseline run), and
//! `fault` (the [`FaultReport`] of a guarded or supervised run).
//! [`report_json`] writes it with [`SCHEMA_VERSION`] first; the fault
//! document it embeds carries the same version.
//!
//! The site rows here are also the `sites` of a failed attempt in a
//! fault report, and [`render_site_table`] is their text form.

use crate::fault::{fault_json, FaultReport};
use crate::json::Json;
use crate::profile::{OvpRow, ProfileReport, SiteProfile};
use analysis::AnalysisStats;
use runtime::stats::{StatsSnapshot, SyncKind};
use runtime::telemetry::{CellSnapshot, SiteSnapshot, WaitHistogram, HIST_BUCKETS};

/// Version of every document `obs` writes: the run report and the
/// fault report, standalone or embedded.
pub const SCHEMA_VERSION: u32 = 2;

/// What the compile decided.
#[derive(Clone, Debug)]
pub struct CompileSection {
    /// The decision log, exactly as [`crate::explain_json`] writes it.
    pub explain: Json,
    /// The analysis cache counters [`crate::render_analysis_stats`]
    /// prints. The document carries the counts only, no timings, so a
    /// compile-only report is byte-identical from run to run.
    pub analysis: AnalysisStats,
}

/// What one real-thread execution measured.
#[derive(Clone, Debug)]
pub struct RunSection {
    /// Sync totals over every attempt.
    pub totals: StatsSnapshot,
    /// Recorder cells per canonical site, in site order, of the final
    /// attempt.
    pub sites: Vec<SiteSnapshot>,
    /// The event-stream analysis, when the rings were on. Its episodes
    /// span every attempt's epoch.
    pub profile: Option<ProfileReport>,
    /// The join of this run against an all-barrier baseline run
    /// ([`crate::observed_vs_predicted`]), when one was made.
    pub observed_vs_predicted: Option<Vec<OvpRow>>,
}

impl RunSection {
    /// The recorder cells of `site`.
    pub fn cells(&self, site: usize) -> Option<&SiteSnapshot> {
        self.sites.iter().find(|s| s.meta.id == site)
    }
}

/// One invocation: the compile, the run if there was one, and what the
/// fault layer did to it.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Program name.
    pub program: String,
    /// Processor count the plan was compiled for.
    pub nprocs: usize,
    /// The compile.
    pub compile: CompileSection,
    /// The real-thread run (`None` for a compile-only invocation or a
    /// run that did not complete).
    pub run: Option<RunSection>,
    /// The fault timeline of a supervised run, or of a guarded run that
    /// failed.
    pub fault: Option<FaultReport>,
}

/// The run report document: `schema_version` first, then the members
/// of [`RunReport`] in declaration order; absent ones are left out.
/// Deterministic member order; round-trips through [`crate::parse`].
pub fn report_json(r: &RunReport) -> Json {
    let a = &r.compile.analysis;
    let analysis = Json::obj()
        .set("pair_hits", a.pair_hits)
        .set("pair_misses", a.pair_misses)
        .set("feas_hits", a.fme.feas_hits)
        .set("feas_misses", a.fme.feas_misses)
        .set("memo_entries", a.fme.entries)
        .set("memo_capacity", a.fme.feas_capacity)
        .set("memo_evictions", a.fme.feas_evictions)
        .set("peak_constraints", a.fme.peak_constraints)
        .set("unknown_verdicts", a.fme.unknown_verdicts);
    let compile = Json::obj()
        .set("explain", r.compile.explain.clone())
        .set("analysis", analysis);
    let mut doc = Json::obj()
        .set("schema_version", SCHEMA_VERSION)
        .set("program", r.program.as_str())
        .set("nprocs", r.nprocs)
        .set("compile", compile);
    if let Some(run) = &r.run {
        doc = doc.set("run", run_json(run));
    }
    if let Some(f) = &r.fault {
        doc = doc.set("fault", fault_json(f));
    }
    doc
}

fn run_json(run: &RunSection) -> Json {
    let profile = run.profile.as_ref();
    let sites = run.sites.iter().map(|s| {
        let row = site_json(s);
        match profile.and_then(|p| p.site(s.meta.id)) {
            Some(e) => episodes_json(row, e),
            None => row,
        }
    });
    let mut doc = Json::obj()
        .set("totals", totals_json(&run.totals))
        .set("sites", Json::Arr(sites.collect()));
    if let Some(p) = profile {
        doc = doc.set("profile", stream_json(p));
    }
    if let Some(rows) = &run.observed_vs_predicted {
        let rows = rows.iter().map(ovp_json).collect();
        doc = doc.set("observed_vs_predicted", Json::Arr(rows));
    }
    doc
}

/// A log₂ histogram, sparse: only non-empty buckets, as
/// `{"floor_ns": count}` pairs in bucket order.
fn hist_json(hist: &[u64; HIST_BUCKETS]) -> Json {
    let mut j = Json::obj();
    for (k, &c) in hist.iter().enumerate() {
        if c > 0 {
            j = j.set(&WaitHistogram::bucket_floor(k).to_string(), c);
        }
    }
    j
}

fn u64s(v: &[u64]) -> Json {
    Json::Arr(v.iter().map(|&x| Json::from(x)).collect())
}

fn cell_json(c: &CellSnapshot) -> Json {
    Json::obj()
        .set("ops", c.ops)
        .set("waits", c.waits)
        .set("wait_ns", c.wait_ns)
        .set("max_wait_ns", c.max_wait_ns)
        .set("hist", hist_json(&c.hist))
}

/// One site's recorder cells: identity, the team total, and one cell
/// per processor.
fn site_json(s: &SiteSnapshot) -> Json {
    Json::obj()
        .set("site", s.meta.id)
        .set("slot", s.meta.kind.as_str())
        .set("label", s.meta.label.as_str())
        .set("sync", s.meta.op.as_str())
        .set("total", cell_json(&s.total))
        .set(
            "per_proc",
            Json::Arr(s.per_proc.iter().map(cell_json).collect()),
        )
}

/// The site rows of a failed attempt in a fault report.
pub(crate) fn sites_json(sites: &[SiteSnapshot]) -> Json {
    Json::Arr(sites.iter().map(site_json).collect())
}

/// A site row with the site's episode facts appended.
fn episodes_json(row: Json, s: &SiteProfile) -> Json {
    let row = row
        .set("episodes", s.episodes)
        .set("partial_arrivals", s.partial_arrivals)
        .set("crit_ns", s.crit_ns)
        .set("spread_ns", s.spread_ns)
        .set("last_count_by_pid", u64s(&s.last_count_by_pid))
        .set("crit_ns_by_pid", u64s(&s.crit_ns_by_pid))
        .set("slack_hist", hist_json(&s.slack_hist))
        .set("yields", s.yields)
        .set("parks", s.parks);
    let Some(w) = s.worst else {
        return row;
    };
    row.set(
        "worst_episode",
        Json::obj()
            .set("crit_ns", w.crit_ns)
            .set("first_pid", w.first.1)
            .set("first_ns", w.first.0)
            .set("last_pid", w.last.1)
            .set("last_ns", w.last.0),
    )
}

/// The stream accounting, supervisor marks and run-wide episode
/// totals of a profile. (Pair-query marks come from the compile's
/// stream, never a run's.)
fn stream_json(r: &ProfileReport) -> Json {
    let marks = Json::obj()
        .set("checkpoints", r.marks.checkpoints)
        .set("rollbacks", r.marks.rollbacks)
        .set("retries", r.marks.retries)
        .set("yields", r.marks.yields)
        .set("parks", r.marks.parks);
    Json::obj()
        .set("tracks", r.tracks)
        .set("capacity", r.capacity)
        .set("events", r.events)
        .set("dropped", r.dropped)
        .set("attempted", r.events + r.dropped)
        .set("epochs", r.epochs)
        .set("epoch_clamp", r.epoch_clamp)
        .set("total_crit_ns", r.total_crit_ns())
        .set("region_ns_by_pid", u64s(&r.region_ns_by_pid))
        .set("marks", marks)
}

fn ovp_json(row: &OvpRow) -> Json {
    Json::obj()
        .set("site", row.site)
        .set("label", row.label.as_str())
        .set("placed", row.placed.as_str())
        .set("reason", row.reason.as_str())
        .set("baseline_wait_ns", row.baseline_wait_ns)
        .set("observed_wait_ns", row.observed_wait_ns)
        .set("saved_wait_ns", row.saved_wait_ns)
        .set("baseline_crit_ns", row.baseline_crit_ns)
        .set("observed_crit_ns", row.observed_crit_ns)
        .set("realized", row.realized)
}

/// Sync totals: one member per [`SyncKind`], then the escalation
/// counters. A run's `totals`, and each fault-report attempt's `stats`.
pub(crate) fn totals_json(s: &StatsSnapshot) -> Json {
    let mut doc = Json::obj();
    for kind in SyncKind::ALL {
        let [posts, waits, ns, max_ns] = s.of_kind(kind);
        let [posts_name, waits_name] = match kind {
            SyncKind::Barrier => ["episodes", "arrivals"],
            SyncKind::Counter => ["increments", "waits"],
            SyncKind::Neighbor | SyncKind::Pairwise => ["posts", "waits"],
        };
        let j = Json::obj()
            .set(posts_name, posts)
            .set(waits_name, waits)
            .set("wait_ns", ns)
            .set("max_wait_ns", max_ns);
        doc = doc.set(kind.name(), j);
    }
    doc.set(
        "escalation",
        Json::obj()
            .set("spin_rounds", s.spin_rounds)
            .set("yield_rounds", s.yield_rounds)
            .set("parks", s.parks),
    )
}

/// Nanoseconds at a readable scale (`1.50us`, `3.00ms`).
pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Human-readable per-site wait table (what `beopt --run --report`
/// prints). Sites with no activity are listed with zeros so eliminated
/// slots are visibly free.
pub fn render_site_table(sites: &[SiteSnapshot]) -> String {
    let mut out = String::new();
    out.push_str("--- per-sync-site telemetry ---\n");
    out.push_str(&format!(
        "{:<5} {:<14} {:<34} {:>8} {:>8} {:>12} {:>12}\n",
        "site", "sync", "label", "ops", "waits", "wait", "max-wait"
    ));
    for s in sites {
        out.push_str(&format!(
            "s{:<4} {:<14} {:<34} {:>8} {:>8} {:>12} {:>12}\n",
            s.meta.id,
            s.meta.op,
            s.meta.label,
            s.total.ops,
            s.total.waits,
            fmt_ns(s.total.wait_ns),
            fmt_ns(s.total.max_wait_ns),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use runtime::telemetry::SiteMeta;

    fn sample() -> Vec<SiteSnapshot> {
        let site = |id, label: &str, op: &str, pid: usize, ns| {
            let meta = SiteMeta {
                id,
                kind: "phase-after".into(),
                label: label.into(),
                op: op.into(),
            };
            let mut cells = vec![CellSnapshot::default(); 2];
            cells[pid].record(ns);
            SiteSnapshot::new(meta, cells)
        };
        vec![
            site(0, "after DOALL i [n1]", "neighbor flags", 0, 1500),
            site(1, "end of region r0", "barrier", 1, 3_000_000),
        ]
    }

    fn report(run: Option<RunSection>) -> RunReport {
        RunReport {
            program: "jacobi".into(),
            nprocs: 2,
            compile: CompileSection {
                explain: Json::obj().set("program", "jacobi"),
                analysis: AnalysisStats::default(),
            },
            run,
            fault: None,
        }
    }

    #[test]
    fn site_rows_carry_histograms() {
        let run = RunSection {
            totals: StatsSnapshot::default(),
            sites: sample(),
            profile: None,
            observed_vs_predicted: None,
        };
        let doc = report_json(&report(Some(run)));
        let arr = doc.get("run").unwrap().get("sites").unwrap();
        let arr = arr.as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        let hist = arr[0].get("total").unwrap().get("hist").unwrap();
        // 1500ns lands in the [1024, 2048) bucket.
        assert_eq!(hist.get("1024").unwrap().as_u64(), Some(1));
        let pp = arr[0].get("per_proc").unwrap().as_arr().unwrap();
        assert_eq!(pp.len(), 2);
        assert_eq!(pp[0].get("waits").unwrap().as_u64(), Some(1));
        assert_eq!(pp[1].get("waits").unwrap().as_u64(), Some(0));
        // No rings, no episode facts.
        assert!(arr[0].get("episodes").is_none());
    }

    /// Every sync kind has its member, pairwise included, and the
    /// escalation counters follow.
    #[test]
    fn totals_name_every_kind_and_the_escalations() {
        let totals = StatsSnapshot {
            pairwise_posts: 5,
            pairwise_max_wait_ns: 9,
            spin_rounds: 12,
            yield_rounds: 3,
            parks: 1,
            ..StatsSnapshot::default()
        };
        let doc = totals_json(&totals);
        let Json::Obj(members) = &doc else {
            panic!("not an object")
        };
        let names: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            ["barrier", "counter", "neighbor", "pairwise", "escalation"]
        );
        let pair = doc.get("pairwise").unwrap();
        assert_eq!(pair.get("posts").unwrap().as_u64(), Some(5));
        assert_eq!(pair.get("max_wait_ns").unwrap().as_u64(), Some(9));
        let esc = doc.get("escalation").unwrap();
        assert_eq!(esc.get("spin_rounds").unwrap().as_u64(), Some(12));
        assert_eq!(esc.get("yield_rounds").unwrap().as_u64(), Some(3));
        assert_eq!(esc.get("parks").unwrap().as_u64(), Some(1));
    }

    /// A compile-only report: version first, no run, no fault, and no
    /// timing anywhere in the analysis counts.
    #[test]
    fn compile_only_report_has_no_run_and_no_timings() {
        let doc = report_json(&report(None));
        let Json::Obj(members) = &doc else {
            panic!("not an object")
        };
        let names: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["schema_version", "program", "nprocs", "compile"]);
        let text = doc.to_string_pretty();
        assert!(!text.contains("_ns"), "{text}");
        assert_eq!(crate::json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn table_lists_every_site() {
        let sites = sample();
        let table = render_site_table(&sites);
        assert!(table.contains("after DOALL i [n1]"));
        assert!(table.contains("end of region r0"));
        assert!(table.contains("3.00ms"));
        assert!(table.contains("1.50us"));
    }
}
