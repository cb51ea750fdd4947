//! Structured failure reports for detected sync faults.
//!
//! When a deadline-guarded execution times out, trips over a poisoned
//! region, or loses a worker to a panic, the executor snapshots
//! everything a triager needs into a [`FailureReport`]: the failure
//! cause attributed to a canonical sync site and processor, the site
//! walk of the schedule that was running, and the per-site wait
//! telemetry at the moment of death (which processors were blocked
//! where, and for how long). [`failure_json`] renders it with the
//! deterministic [`crate::json`] emitter so reports can ride inside
//! `beoracle` repro bundles; [`render_failure`] is the human-readable
//! form the CLIs print.

use crate::json::Json;
use crate::metrics;
use runtime::fault::{SyncError, DISPATCH_SITE};
use runtime::telemetry::SiteSnapshot;

/// Why the region died.
#[derive(Clone, Debug, PartialEq)]
pub enum FailureCause {
    /// A guarded wait outlived the watchdog deadline.
    Deadline {
        /// Canonical sync-site id (`usize::MAX` = dispatch broadcast).
        site: usize,
        /// Processor that timed out first.
        pid: usize,
        /// Primitive kind ("barrier", "counter", "neighbor",
        /// "dispatch").
        kind: String,
        /// Progress value the wait needed.
        expected: u64,
        /// Progress value last observed.
        observed: u64,
    },
    /// A worker panicked inside the region.
    Panic {
        /// Processor that panicked.
        pid: usize,
        /// Panic message.
        message: String,
    },
    /// A counter bank was reset under an in-flight guarded wait.
    StaleGeneration {
        /// Site the stale waiter was blocked at.
        site: usize,
        /// Processor whose wait went stale.
        pid: usize,
    },
}

impl FailureCause {
    /// Build the cause from a primitive-level [`SyncError`].
    pub fn from_sync_error(e: &SyncError) -> FailureCause {
        match e {
            SyncError::DeadlineExceeded {
                site,
                pid,
                kind,
                expected,
                observed,
            } => FailureCause::Deadline {
                site: *site,
                pid: *pid,
                kind: if *site == DISPATCH_SITE {
                    "dispatch".to_string()
                } else {
                    kind.name().to_string()
                },
                expected: *expected,
                observed: *observed,
            },
            // A poison observation is secondary; reports built from one
            // (no primary error was captured) surface it as a panic-ish
            // cause carrying the recorded reason.
            SyncError::Poisoned { pid, cause, .. } => FailureCause::Panic {
                pid: *pid,
                message: cause.clone(),
            },
            SyncError::StaleGeneration { site, pid } => FailureCause::StaleGeneration {
                site: *site,
                pid: *pid,
            },
        }
    }

    /// The sync site the cause is attributed to, if any.
    pub fn site(&self) -> Option<usize> {
        match self {
            FailureCause::Deadline { site, .. } | FailureCause::StaleGeneration { site, .. } => {
                Some(*site)
            }
            FailureCause::Panic { .. } => None,
        }
    }

    /// The processor the cause is attributed to.
    pub fn pid(&self) -> usize {
        match self {
            FailureCause::Deadline { pid, .. }
            | FailureCause::Panic { pid, .. }
            | FailureCause::StaleGeneration { pid, .. } => *pid,
        }
    }
}

/// Everything known about one detected region failure.
#[derive(Clone, Debug)]
pub struct FailureReport {
    /// Program whose schedule was executing.
    pub program: String,
    /// Team size.
    pub nprocs: usize,
    /// The armed per-wait deadline, in milliseconds.
    pub deadline_ms: f64,
    /// The primary failure.
    pub cause: FailureCause,
    /// Label of the site the cause is attributed to (from the canonical
    /// site walk; "dispatch" for the dispatch broadcast).
    pub site_label: String,
    /// Every processor's terminal error, in pid order, as display
    /// strings ("ok" for processors that finished their traversal).
    pub per_proc: Vec<String>,
    /// Chaos seed, when a fault injector was active (set by the
    /// oracle's chaos driver, not the executor).
    pub chaos_seed: Option<u64>,
    /// Per-site wait telemetry at the moment of failure.
    pub sites: Vec<SiteSnapshot>,
}

impl FailureReport {
    /// Short one-line summary (what CLIs print on the FAIL line).
    pub fn headline(&self) -> String {
        match &self.cause {
            FailureCause::Deadline {
                site,
                pid,
                kind,
                expected,
                observed,
            } => {
                let where_ = if *site == DISPATCH_SITE {
                    "dispatch".to_string()
                } else {
                    format!("s{site} ({})", self.site_label)
                };
                format!(
                    "deadline exceeded after {:.0}ms at {where_} on P{pid}: {kind} wait needed {expected}, observed {observed}",
                    self.deadline_ms
                )
            }
            FailureCause::Panic { pid, message } => {
                format!("worker P{pid} panicked: {message}")
            }
            FailureCause::StaleGeneration { site, pid } => {
                format!(
                    "counter bank reset under P{pid} waiting at s{site} ({})",
                    self.site_label
                )
            }
        }
    }
}

fn cause_json(c: &FailureCause) -> Json {
    match c {
        FailureCause::Deadline {
            site,
            pid,
            kind,
            expected,
            observed,
        } => Json::obj()
            .set("kind", "deadline-exceeded")
            .set(
                "site",
                if *site == DISPATCH_SITE {
                    Json::Str("dispatch".to_string())
                } else {
                    Json::Num(*site as f64)
                },
            )
            .set("pid", *pid)
            .set("sync", kind.as_str())
            .set("expected", *expected)
            .set("observed", *observed),
        FailureCause::Panic { pid, message } => Json::obj()
            .set("kind", "panic")
            .set("pid", *pid)
            .set("message", message.as_str()),
        FailureCause::StaleGeneration { site, pid } => Json::obj()
            .set("kind", "stale-generation")
            .set("site", *site)
            .set("pid", *pid),
    }
}

/// The failure document: cause + attribution + telemetry snapshot. The
/// `"sites"` member reuses the metrics schema, so existing tooling for
/// `--metrics-json` output reads the telemetry section unchanged.
pub fn failure_json(r: &FailureReport) -> Json {
    let mut doc = Json::obj()
        .set("program", r.program.as_str())
        .set("nprocs", r.nprocs)
        .set("deadline_ms", r.deadline_ms)
        .set("cause", cause_json(&r.cause))
        .set("site_label", r.site_label.as_str())
        .set(
            "per_proc",
            Json::Arr(r.per_proc.iter().map(|s| Json::Str(s.clone())).collect()),
        );
    if let Some(seed) = r.chaos_seed {
        doc = doc.set("chaos_seed", seed);
    }
    let telemetry = metrics::metrics_json(
        &r.program,
        r.nprocs,
        &r.sites,
        &runtime::stats::StatsSnapshot::default(),
    );
    doc.set(
        "sites",
        telemetry.get("sites").cloned().unwrap_or(Json::Arr(vec![])),
    )
}

/// Human-readable report (headline, per-processor state, and the wait
/// table for the sites that saw activity before the region died).
pub fn render_failure(r: &FailureReport) -> String {
    let mut out = String::new();
    out.push_str("--- sync failure report ---\n");
    out.push_str(&format!("program : {} (P={})\n", r.program, r.nprocs));
    out.push_str(&format!("cause   : {}\n", r.headline()));
    if let Some(seed) = r.chaos_seed {
        out.push_str(&format!("chaos   : seed {seed}\n"));
    }
    for (pid, state) in r.per_proc.iter().enumerate() {
        out.push_str(&format!("  P{pid}: {state}\n"));
    }
    if !r.sites.is_empty() {
        out.push_str(&metrics::render_site_table(&r.sites));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use runtime::stats::SyncKind;

    fn sample() -> FailureReport {
        FailureReport {
            program: "jacobi".to_string(),
            nprocs: 4,
            deadline_ms: 250.0,
            cause: FailureCause::from_sync_error(&SyncError::DeadlineExceeded {
                site: 2,
                pid: 3,
                kind: SyncKind::Counter,
                expected: 5,
                observed: 4,
            }),
            site_label: "after DOALL i [n5]".to_string(),
            per_proc: vec![
                "ok".to_string(),
                "ok".to_string(),
                "poisoned".to_string(),
                "deadline".to_string(),
            ],
            chaos_seed: Some(42),
            sites: Vec::new(),
        }
    }

    #[test]
    fn json_names_the_site_and_pid() {
        let doc = failure_json(&sample());
        let cause = doc.get("cause").unwrap();
        assert_eq!(
            cause.get("kind").unwrap().as_str(),
            Some("deadline-exceeded")
        );
        assert_eq!(cause.get("site").unwrap().as_u64(), Some(2));
        assert_eq!(cause.get("pid").unwrap().as_u64(), Some(3));
        assert_eq!(cause.get("expected").unwrap().as_u64(), Some(5));
        assert_eq!(doc.get("chaos_seed").unwrap().as_u64(), Some(42));
        // The document round-trips through the strict parser.
        let txt = doc.to_string_pretty();
        assert_eq!(crate::json::parse(&txt).unwrap(), doc);
    }

    #[test]
    fn dispatch_sentinel_renders_by_name() {
        let mut r = sample();
        r.cause = FailureCause::from_sync_error(&SyncError::DeadlineExceeded {
            site: DISPATCH_SITE,
            pid: 1,
            kind: SyncKind::Counter,
            expected: 3,
            observed: 2,
        });
        r.site_label = "dispatch".to_string();
        let doc = failure_json(&r);
        let cause = doc.get("cause").unwrap();
        assert_eq!(cause.get("site").unwrap().as_str(), Some("dispatch"));
        assert_eq!(cause.get("sync").unwrap().as_str(), Some("dispatch"));
        assert!(r.headline().contains("dispatch"));
    }

    #[test]
    fn rendering_carries_headline_and_per_proc() {
        let r = sample();
        let txt = render_failure(&r);
        assert!(txt.contains("deadline exceeded"));
        assert!(txt.contains("after DOALL i [n5]"));
        assert!(txt.contains("P3: deadline"));
        assert!(txt.contains("seed 42"));
    }
}
