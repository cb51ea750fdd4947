//! Per-sync-site metrics: the JSON document behind
//! `beopt --run --metrics-json` and the human-readable per-site table.

use crate::json::Json;
use runtime::stats::StatsSnapshot;
use runtime::telemetry::{SiteSnapshot, WaitHistogram, HIST_BUCKETS};

fn hist_json(hist: &[u64; HIST_BUCKETS]) -> Json {
    // Sparse: only non-empty buckets, as {"floor_ns": count} pairs in
    // bucket order (deterministic).
    let mut j = Json::obj();
    for (k, &c) in hist.iter().enumerate() {
        if c > 0 {
            j = j.set(&WaitHistogram::bucket_floor(k).to_string(), c);
        }
    }
    j
}

fn cell_json(c: &runtime::telemetry::CellSnapshot) -> Json {
    Json::obj()
        .set("ops", c.ops)
        .set("waits", c.waits)
        .set("wait_ns", c.wait_ns)
        .set("max_wait_ns", c.max_wait_ns)
        .set("hist", hist_json(&c.hist))
}

pub(crate) fn totals_json(s: &StatsSnapshot) -> Json {
    Json::obj()
        .set(
            "barrier",
            Json::obj()
                .set("episodes", s.barrier_episodes)
                .set("arrivals", s.barrier_arrivals)
                .set("wait_ns", s.barrier_wait_ns)
                .set("max_wait_ns", s.barrier_max_wait_ns),
        )
        .set(
            "counter",
            Json::obj()
                .set("increments", s.counter_increments)
                .set("waits", s.counter_waits)
                .set("wait_ns", s.counter_wait_ns)
                .set("max_wait_ns", s.counter_max_wait_ns),
        )
        .set(
            "neighbor",
            Json::obj()
                .set("posts", s.neighbor_posts)
                .set("waits", s.neighbor_waits)
                .set("wait_ns", s.neighbor_wait_ns)
                .set("max_wait_ns", s.neighbor_max_wait_ns),
        )
        .set(
            "escalation",
            Json::obj()
                .set("spin_rounds", s.spin_rounds)
                .set("yield_rounds", s.yield_rounds)
                .set("parks", s.parks),
        )
}

/// Per-site, per-processor wait cells (the `"sites"` member of the
/// metrics document, and of a failed attempt in a fault report).
pub(crate) fn sites_json(sites: &[SiteSnapshot]) -> Json {
    let site_arr = sites.iter().map(|s| {
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
    });
    Json::Arr(site_arr.collect())
}

/// The metrics document: per-site per-processor wait telemetry plus the
/// run's aggregate [`StatsSnapshot`].
pub fn metrics_json(
    program: &str,
    nprocs: usize,
    sites: &[SiteSnapshot],
    totals: &StatsSnapshot,
) -> Json {
    Json::obj()
        .set("program", program)
        .set("nprocs", nprocs)
        .set("sites", sites_json(sites))
        .set("totals", totals_json(totals))
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Human-readable per-site wait table (what `beopt --run` prints when
/// metrics are enabled). Sites with no activity are listed with zeros so
/// eliminated slots are visibly free.
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
    use runtime::telemetry::{CellSnapshot, SiteMeta};

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

    #[test]
    fn metrics_document_carries_histograms() {
        let sites = sample();
        let doc = metrics_json("jacobi", 2, &sites, &StatsSnapshot::default());
        let arr = doc.get("sites").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        let hist = arr[0].get("total").unwrap().get("hist").unwrap();
        // 1500ns lands in the [1024, 2048) bucket.
        assert_eq!(hist.get("1024").unwrap().as_u64(), Some(1));
        let pp = arr[0].get("per_proc").unwrap().as_arr().unwrap();
        assert_eq!(pp.len(), 2);
        assert_eq!(pp[0].get("waits").unwrap().as_u64(), Some(1));
        assert_eq!(pp[1].get("waits").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn totals_carry_escalation_counters() {
        let totals = StatsSnapshot {
            spin_rounds: 12,
            yield_rounds: 3,
            parks: 1,
            ..StatsSnapshot::default()
        };
        let doc = metrics_json("jacobi", 2, &[], &totals);
        let esc = doc.get("totals").unwrap().get("escalation").unwrap();
        assert_eq!(esc.get("spin_rounds").unwrap().as_u64(), Some(12));
        assert_eq!(esc.get("yield_rounds").unwrap().as_u64(), Some(3));
        assert_eq!(esc.get("parks").unwrap().as_u64(), Some(1));
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
