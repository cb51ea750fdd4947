//! Per-sync-site, per-processor wait telemetry.
//!
//! [`crate::stats::StatsSnapshot`] aggregates over the whole run; this
//! module attributes every synchronization event to its *site* — a slot
//! in the optimized schedule, identified by the canonical site id the
//! optimizer assigns — and to the processor executing it. Each
//! (site, processor) cell holds counts plus a log2-bucket wait-time
//! histogram, so a per-site table can show which sync points convoy and
//! which are free (after the per-barrier breakdowns of Chen/Su/Yew that
//! the paper's cost model cites).
//!
//! Like the totals, the cells are plain data: each worker records into
//! cells it owns ([`CellSnapshot::record`]) and the executor assembles
//! the per-site view after the join ([`SiteSnapshot::new`]).

/// Number of log2 buckets (covers 1ns .. ~2s and beyond; the last bucket
/// absorbs everything larger).
pub const HIST_BUCKETS: usize = 32;

/// Bucket layout of the log2 wait-time histograms: bucket `k` counts
/// waits with `ns` in `[2^k, 2^(k+1))` (bucket 0 also takes zero-length
/// waits); the final bucket absorbs the overflow.
pub struct WaitHistogram;

impl WaitHistogram {
    /// Bucket index for a wait of `ns` nanoseconds.
    pub fn bucket_of(ns: u64) -> usize {
        if ns <= 1 {
            0
        } else {
            ((63 - ns.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Lower bound (inclusive) of bucket `k` in nanoseconds.
    pub fn bucket_floor(k: usize) -> u64 {
        1u64 << k
    }
}

/// Static description of one sync site (plain strings — the runtime does
/// not know the optimizer's types; the caller renders them).
#[derive(Clone, Debug)]
pub struct SiteMeta {
    /// Canonical site id (index into the telemetry).
    pub id: usize,
    /// Structural slot kind ("phase-after", "loop-bottom", ...).
    pub kind: String,
    /// Human-readable slot location.
    pub label: String,
    /// The synchronization placed there ("barrier", "counter", ...).
    pub op: String,
}

/// One (site, processor) telemetry cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellSnapshot {
    /// Sync events executed at the site by the processor.
    pub ops: u64,
    /// Blocked intervals.
    pub waits: u64,
    /// Total nanoseconds blocked.
    pub wait_ns: u64,
    /// Longest single blocked interval.
    pub max_wait_ns: u64,
    /// Log2-bucket wait histogram.
    pub hist: [u64; HIST_BUCKETS],
}

impl Default for CellSnapshot {
    fn default() -> Self {
        CellSnapshot {
            ops: 0,
            waits: 0,
            wait_ns: 0,
            max_wait_ns: 0,
            hist: [0; HIST_BUCKETS],
        }
    }
}

impl CellSnapshot {
    /// Record one sync event that took `ns` nanoseconds from arrival
    /// to release.
    pub fn record(&mut self, ns: u64) {
        self.ops += 1;
        self.waits += 1;
        self.wait_ns += ns;
        self.max_wait_ns = self.max_wait_ns.max(ns);
        self.hist[WaitHistogram::bucket_of(ns)] += 1;
    }

    /// Merge another cell into this one (bucket-wise sum, max of maxes).
    pub fn merge(&mut self, other: &CellSnapshot) {
        self.ops += other.ops;
        self.waits += other.waits;
        self.wait_ns += other.wait_ns;
        self.max_wait_ns = self.max_wait_ns.max(other.max_wait_ns);
        for (a, b) in self.hist.iter_mut().zip(other.hist.iter()) {
            *a += b;
        }
    }
}

/// One site across the team.
#[derive(Clone, Debug)]
pub struct SiteSnapshot {
    /// The site's static description.
    pub meta: SiteMeta,
    /// One cell per processor.
    pub per_proc: Vec<CellSnapshot>,
    /// All processors merged.
    pub total: CellSnapshot,
}

impl SiteSnapshot {
    /// The site's view from its per-processor cells (pid order).
    pub fn new(meta: SiteMeta, per_proc: Vec<CellSnapshot>) -> Self {
        let mut total = CellSnapshot::default();
        for c in &per_proc {
            total.merge(c);
        }
        SiteSnapshot {
            meta,
            per_proc,
            total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(WaitHistogram::bucket_of(0), 0);
        assert_eq!(WaitHistogram::bucket_of(1), 0);
        assert_eq!(WaitHistogram::bucket_of(2), 1);
        assert_eq!(WaitHistogram::bucket_of(3), 1);
        assert_eq!(WaitHistogram::bucket_of(4), 2);
        assert_eq!(WaitHistogram::bucket_of(1023), 9);
        assert_eq!(WaitHistogram::bucket_of(1024), 10);
        assert_eq!(WaitHistogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
        let mut c = CellSnapshot::default();
        c.record(3);
        c.record(3);
        c.record(1024);
        assert_eq!(c.hist[1], 2);
        assert_eq!(c.hist[10], 1);
        assert_eq!(c.hist.iter().sum::<u64>(), 3);
    }

    #[test]
    fn site_total_merges_its_processors() {
        let meta = SiteMeta {
            id: 0,
            kind: "phase-after".into(),
            label: "site 0".into(),
            op: "barrier".into(),
        };
        let mut cells = vec![CellSnapshot::default(); 3];
        cells[0].record(100);
        cells[1].record(900);
        let site = SiteSnapshot::new(meta, cells);
        assert_eq!(site.per_proc[0].ops, 1);
        assert_eq!(site.per_proc[0].waits, 1);
        assert_eq!(site.total.waits, 2);
        assert_eq!(site.total.wait_ns, 1000);
        assert_eq!(site.total.max_wait_ns, 900);
        assert_eq!(site.per_proc[2], CellSnapshot::default());
        assert_eq!(site.total.hist.iter().sum::<u64>(), 2);
    }
}
