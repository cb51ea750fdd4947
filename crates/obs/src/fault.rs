//! The fault report: one document for whatever the fault layer did to
//! one region execution.
//!
//! A guarded run that died, a supervised run that healed, and a run
//! that lost processors and shrank or finished serially are all told
//! the same way: a header naming the program, the team width of every
//! round, the armed deadline, the per-round attempt budget, the chaos
//! seed and the checkpoint size — each once — then `rounds` of
//! `attempts`. Each attempt holds its [`FailureReport`] (none for the
//! attempt that completed), the escalation-ladder actions taken after
//! it, the planned backoff, and the attempt's own [`StatsSnapshot`].
//! One [`Rung`] says how the run ended.
//!
//! The supervisor lives in `interp`; this module is plain data so `obs`
//! stays below `interp` in the crate DAG. [`fault_json`] writes the
//! document (its first member is [`SCHEMA_VERSION`]);
//! [`render_fault`] is the text the CLIs print — planned backoffs, no
//! wall-clock figures, so a fixed seed tells the same story every run.

use crate::json::Json;
use crate::report::{render_site_table, sites_json, totals_json, SCHEMA_VERSION};
use runtime::fault::{wait_name, ProcEnd, SyncError, DISPATCH_SITE};
use runtime::recovery::FaultDisposition;
use runtime::stats::StatsSnapshot;
use runtime::telemetry::SiteSnapshot;

/// What one failed attempt saw.
#[derive(Clone, Debug)]
pub struct FailureReport {
    /// Every processor's end, in pid order.
    pub ends: Vec<ProcEnd>,
    /// The processor whose end heads the report: the first primary
    /// fault recorded (a panic before any failed wait), else the first
    /// poison observation. Its end is never [`ProcEnd::Finished`].
    pub first: usize,
    /// Label of the site the headline is attributed to (from the
    /// canonical site walk; "dispatch" for the dispatch broadcast).
    pub site_label: String,
    /// Per-site wait telemetry at the moment of failure.
    pub sites: Vec<SiteSnapshot>,
}

impl FailureReport {
    /// The end that heads the report.
    pub fn cause(&self) -> &ProcEnd {
        &self.ends[self.first]
    }

    /// The sync site the headline is attributed to: that of a primary
    /// failed wait (a poison observation or a panic names none).
    pub fn site(&self) -> Option<usize> {
        self.cause()
            .fault()
            .filter(|e| e.is_primary())
            .map(SyncError::site)
    }

    /// Short one-line summary (what CLIs print on the FAIL line).
    pub fn headline(&self) -> String {
        match self.cause() {
            ProcEnd::Fault(SyncError::DeadlineExceeded {
                site,
                pid,
                kind,
                expected,
                observed,
            }) => {
                let where_ = if *site == DISPATCH_SITE {
                    "dispatch".to_string()
                } else {
                    format!("s{site} ({})", self.site_label)
                };
                let kind = wait_name(*site, *kind);
                format!(
                    "deadline exceeded at {where_} on P{pid}: {kind} wait needed {expected}, observed {observed}"
                )
            }
            // With no primary fault recorded, the poison a processor
            // observed tells what killed the region.
            ProcEnd::Fault(SyncError::Poisoned { pid, cause, .. }) => {
                format!("worker P{pid} panicked: {cause}")
            }
            ProcEnd::Panicked(message) => format!("worker P{} panicked: {message}", self.first),
            ProcEnd::Finished => format!("P{} finished", self.first),
        }
    }
}

/// A processor's end as the documents write it.
fn end_text(end: &ProcEnd) -> String {
    match end {
        ProcEnd::Finished => "ok".to_string(),
        ProcEnd::Fault(e) => e.to_string(),
        ProcEnd::Panicked(message) => format!("panicked: {message}"),
    }
}

/// How a run ended: the lowest rung of the ladder it needed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rung {
    /// First attempt at full width, no faults.
    Clean,
    /// Full width, after the site ladder absorbed one or more faults.
    Recovered,
    /// Completed on a team shrunk by one or more permanent processor
    /// losses.
    Shrunk,
    /// Completed by the sequential tail.
    Serial,
    /// Did not complete: the budget ran out with nothing lower to try.
    Failed,
}

impl Rung {
    /// Stable lower-case name (report vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            Rung::Clean => "clean",
            Rung::Recovered => "recovered",
            Rung::Shrunk => "shrunk",
            Rung::Serial => "serial",
            Rung::Failed => "failed",
        }
    }

    /// True unless the run failed — memory then holds the region's
    /// result, indistinguishable from a clean run's.
    pub fn completed(self) -> bool {
        self != Rung::Failed
    }
}

/// One escalation-ladder action applied to a sync site after a failed
/// attempt.
#[derive(Clone, Debug, PartialEq)]
pub struct SiteAction {
    /// Canonical sync-site id.
    pub site: usize,
    /// The site's label in the canonical walk.
    pub label: String,
    /// What the ladder prescribed.
    pub action: FaultDisposition,
}

/// One execution of the region.
#[derive(Clone, Debug)]
pub struct Attempt {
    /// What went wrong (`None` for the attempt that completed).
    pub failure: Option<FailureReport>,
    /// The processor the supervisor suspects caused the failure, when
    /// it could be pinned on one.
    pub suspect_pid: Option<usize>,
    /// Ladder actions taken per implicated site (empty when the fault
    /// had no attributable site — a panic or dispatch timeout — or the
    /// attempt was not retried).
    pub actions: Vec<SiteAction>,
    /// Planned backoff before the next attempt, in milliseconds (0 when
    /// none followed).
    pub backoff_ms: u64,
    /// Sync stats of this attempt only.
    pub stats: StatsSnapshot,
}

/// The attempts at one team width.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// The processor classified as permanently lost, which ended the
    /// round.
    pub lost_pid: Option<usize>,
    /// Every attempt, in order.
    pub attempts: Vec<Attempt>,
}

/// The whole fault timeline of one region execution.
#[derive(Clone, Debug)]
pub struct FaultReport {
    /// Program whose schedule ran.
    pub program: String,
    /// Team width of each round, widest first (`rounds[k]` ran at
    /// `widths[k]`).
    pub widths: Vec<usize>,
    /// The armed per-wait deadline, in milliseconds.
    pub deadline_ms: f64,
    /// Executions each round may spend.
    pub budget: u32,
    /// Chaos seed, when a seeded injector was active.
    pub chaos_seed: Option<u64>,
    /// Array cells in the entry checkpoint (`None` for an unsupervised
    /// run, which has none to roll back to).
    pub checkpoint_cells: Option<usize>,
    /// How the run ended.
    pub rung: Rung,
    /// Every round, widest first.
    pub rounds: Vec<Round>,
}

impl FaultReport {
    /// How an unsupervised guarded run reports its failure: one round
    /// of one failed attempt, a budget of one, no checkpoint.
    pub fn detected(
        program: &str,
        nprocs: usize,
        deadline_ms: f64,
        failure: FailureReport,
        stats: StatsSnapshot,
    ) -> FaultReport {
        FaultReport {
            program: program.to_string(),
            widths: vec![nprocs],
            deadline_ms,
            budget: 1,
            chaos_seed: None,
            checkpoint_cells: None,
            rung: Rung::Failed,
            rounds: vec![Round {
                lost_pid: None,
                attempts: vec![Attempt {
                    failure: Some(failure),
                    suspect_pid: None,
                    actions: Vec::new(),
                    backoff_ms: 0,
                    stats,
                }],
            }],
        }
    }

    /// Executions spent, over every round.
    pub fn attempts_used(&self) -> u32 {
        self.rounds.iter().map(|r| r.attempts.len() as u32).sum()
    }

    /// Width the run ended at (1 for the serial tail).
    pub fn nprocs_final(&self) -> usize {
        match self.rung {
            Rung::Serial => 1,
            _ => self.widths.last().copied().unwrap_or(0),
        }
    }

    /// Processors lost to shrinks.
    pub fn procs_lost(&self) -> usize {
        match (self.widths.first(), self.widths.last()) {
            (Some(first), Some(last)) => first - last,
            _ => 0,
        }
    }

    /// The failure the run ended on, when it did not complete.
    pub fn residual(&self) -> Option<&FailureReport> {
        let last = self.rounds.last()?.attempts.last()?;
        last.failure.as_ref().filter(|_| !self.rung.completed())
    }

    /// The sites the last round's ladder gave `action`, in order.
    pub fn sites_with(&self, action: FaultDisposition) -> Vec<usize> {
        let attempts = self.rounds.last().map(|r| &r.attempts[..]).unwrap_or(&[]);
        attempts
            .iter()
            .flat_map(|a| &a.actions)
            .filter(|x| x.action == action)
            .map(|x| x.site)
            .collect()
    }
}

fn cause_json(f: &FailureReport) -> Json {
    let panic = |pid: usize, message: &str| {
        Json::obj()
            .set("kind", "panic")
            .set("pid", pid)
            .set("message", message)
    };
    match f.cause() {
        ProcEnd::Fault(SyncError::DeadlineExceeded {
            site,
            pid,
            kind,
            expected,
            observed,
        }) => {
            let at = if *site == DISPATCH_SITE {
                Json::Str("dispatch".to_string())
            } else {
                Json::Num(*site as f64)
            };
            Json::obj()
                .set("kind", "deadline-exceeded")
                .set("site", at)
                .set("pid", *pid)
                .set("sync", wait_name(*site, *kind))
                .set("expected", *expected)
                .set("observed", *observed)
        }
        ProcEnd::Fault(SyncError::Poisoned { pid, cause, .. }) => panic(*pid, cause),
        ProcEnd::Panicked(message) => panic(f.first, message),
        ProcEnd::Finished => Json::obj().set("kind", "finished").set("pid", f.first),
    }
}

/// An attempt's failure: cause, attribution, every processor's end,
/// and the telemetry snapshot, whose `"sites"` are the run report's
/// site rows.
fn failure_json(f: &FailureReport) -> Json {
    let ends = f.ends.iter().map(|e| Json::Str(end_text(e)));
    Json::obj()
        .set("cause", cause_json(f))
        .set("site_label", f.site_label.as_str())
        .set("per_proc", Json::Arr(ends.collect()))
        .set("sites", sites_json(&f.sites))
}

fn attempt_json(a: &Attempt) -> Json {
    let mut doc = Json::obj();
    if let Some(f) = &a.failure {
        doc = doc.set("failure", failure_json(f));
    }
    if let Some(pid) = a.suspect_pid {
        doc = doc.set("suspect_pid", pid);
    }
    let actions = a.actions.iter().map(|x| {
        Json::obj()
            .set("site", x.site)
            .set("label", x.label.as_str())
            .set("action", x.action.name())
    });
    doc.set("actions", Json::Arr(actions.collect()))
        .set("backoff_ms", a.backoff_ms)
        .set("stats", totals_json(&a.stats))
}

/// The fault document: `schema_version` first, the header once, then
/// the rounds of attempts (deterministic member order).
pub fn fault_json(r: &FaultReport) -> Json {
    let widths = r.widths.iter().map(|&w| Json::from(w)).collect();
    let mut doc = Json::obj()
        .set("schema_version", SCHEMA_VERSION)
        .set("program", r.program.as_str())
        .set("widths", Json::Arr(widths))
        .set("deadline_ms", r.deadline_ms)
        .set("budget", r.budget);
    if let Some(seed) = r.chaos_seed {
        doc = doc.set("chaos_seed", seed);
    }
    if let Some(cells) = r.checkpoint_cells {
        doc = doc.set("checkpoint_cells", cells);
    }
    let rounds = r.rounds.iter().map(|rd| {
        let mut doc = Json::obj();
        if let Some(pid) = rd.lost_pid {
            doc = doc.set("lost_pid", pid);
        }
        doc.set(
            "attempts",
            Json::Arr(rd.attempts.iter().map(attempt_json).collect()),
        )
    });
    doc.set("rung", r.rung.name())
        .set("rounds", Json::Arr(rounds.collect()))
}

/// Human-readable fault timeline (what `beopt` prints for a failed,
/// recovered, or degraded run).
pub fn render_fault(r: &FaultReport) -> String {
    let mut out = String::from("--- fault report ---\n");
    let first = r.widths.first().copied().unwrap_or(0);
    let width = match r.nprocs_final() {
        last if last == first => format!("P={first}"),
        last => format!("P={first} -> {last}"),
    };
    out.push_str(&format!("program : {} ({width})\n", r.program));
    out.push_str(&format!(
        "rung    : {} — {}\n",
        r.rung.name(),
        if r.rung.completed() {
            "run completed with oracle-exact memory"
        } else {
            "run did not complete"
        }
    ));
    out.push_str(&format!(
        "budget  : {} attempt(s) per round, deadline {:.0}ms/wait\n",
        r.budget, r.deadline_ms
    ));
    if let Some(seed) = r.chaos_seed {
        out.push_str(&format!("chaos   : seed {seed}\n"));
    }
    for (k, (rd, width)) in r.rounds.iter().zip(&r.widths).enumerate() {
        let failed = rd.attempts.iter().filter(|a| a.failure.is_some()).count();
        let shrinks = k + 1 < r.rounds.len();
        let verdict = match rd.lost_pid {
            Some(pid) if shrinks => format!("P{pid} classified as permanent loss — shrinking"),
            Some(pid) => format!("P{pid} classified as permanent loss — serial tail"),
            None if failed == 0 => "completed".to_string(),
            None if failed < rd.attempts.len() => {
                format!("recovered after {failed} failed attempt(s)")
            }
            None if r.rung == Rung::Serial => {
                "failed without a classifiable pid — serial tail".to_string()
            }
            None => format!("failed after {failed} attempt(s) — giving up"),
        };
        out.push_str(&format!("round P={width}: {verdict}\n"));
        for (n, a) in rd.attempts.iter().enumerate() {
            let Some(f) = &a.failure else {
                out.push_str(&format!("  attempt {}: OK\n", n + 1));
                continue;
            };
            out.push_str(&format!("  attempt {}: FAILED — {}\n", n + 1, f.headline()));
            if let Some(pid) = a.suspect_pid {
                out.push_str(&format!("    suspect: P{pid}\n"));
            }
            let retried = n + 1 < rd.attempts.len();
            for x in &a.actions {
                let (name, site, label) = (x.action.name(), x.site, &x.label);
                out.push_str(&format!("    ladder : {name} s{site} ({label})\n"));
            }
            if a.actions.is_empty() && retried {
                out.push_str("    ladder : plain retry (no attributable site)\n");
            }
            if let Some(cells) = r.checkpoint_cells {
                out.push_str(&format!("    rollback to checkpoint ({cells} cells)"));
                if retried {
                    out.push_str(&format!(", backoff {}ms", a.backoff_ms));
                }
                out.push('\n');
            }
        }
    }
    if r.rung == Rung::Serial {
        out.push_str("serial tail: completed sequentially from the checkpoint\n");
    }
    if let Some(f) = r.residual() {
        for (pid, end) in f.ends.iter().enumerate() {
            out.push_str(&format!("  P{pid}: {}\n", end_text(end)));
        }
        if !f.sites.is_empty() {
            out.push_str(&render_site_table(&f.sites));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use runtime::stats::SyncKind;

    /// The dispatch broadcast sits outside the site walk: its cause
    /// names it instead of a site number, and its wait by the gate's
    /// name though the gate waits through a counter — in the document,
    /// the headline and the processor's end alike.
    #[test]
    fn dispatch_sentinel_renders_by_name() {
        let gate = SyncError::DeadlineExceeded {
            site: DISPATCH_SITE,
            pid: 1,
            kind: SyncKind::Counter,
            expected: 3,
            observed: 2,
        };
        let f = FailureReport {
            ends: vec![ProcEnd::Finished, ProcEnd::Fault(gate)],
            first: 1,
            site_label: "dispatch".to_string(),
            sites: Vec::new(),
        };
        assert!(f.headline().contains("at dispatch on P1: dispatch wait"));
        let doc = failure_json(&f);
        let cause = doc.get("cause").unwrap();
        assert_eq!(cause.get("site").unwrap().as_str(), Some("dispatch"));
        assert_eq!(cause.get("sync").unwrap().as_str(), Some("dispatch"));
        let ends = doc.get("per_proc").unwrap().as_arr().unwrap();
        assert_eq!(
            ends[1].as_str(),
            Some("deadline exceeded at dispatch on P1: dispatch wait needed 3, observed 2")
        );
    }
}
