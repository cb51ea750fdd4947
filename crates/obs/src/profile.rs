//! Profile analysis: critical path, imbalance, and the
//! observed-vs-predicted explain loop.
//!
//! The executor returns a merged [`ProfileData`] stream (see
//! [`runtime::events`]); this module turns it into per-site episode
//! facts. Blocked time is not among them: that is the recorder's cells
//! ([`crate::RunSection::sites`]), which every reading here joins by
//! canonical site id.
//!
//! * **critical-path contribution** — sync episodes are aligned across
//!   processors by their dynamic visit number (`SyncArrive.arg`), so
//!   episode *k* at site *s* is every processor's *k*-th arrival there.
//!   The last arriver gated the episode; the gap between the last and
//!   second-last arrival is the slice of wall-clock only that site's
//!   imbalance can explain, and it is attributed to the last arriver.
//!   The episode with the largest gap is kept whole (its first and last
//!   arriver), which is what the trace's flow arrow draws.
//! * **load imbalance** — per-site last-arriver counts per processor
//!   and a log₂ histogram of per-arrival *slack* (how far before the
//!   last arriver each processor showed up), reusing the bucket layout
//!   of [`runtime::telemetry`].
//! * **observed vs predicted** — [`observed_vs_predicted`] joins two
//!   profiled runs against the optimizer's decision log: the *baseline*
//!   is the optimized plan with every decision site demoted back to a
//!   barrier (`spmd_opt::demote_sites`), so both runs share one
//!   canonical site walk and the per-site wait delta is exactly the
//!   wait the optimizer's placement saved (or did not).
//!
//! Ring overflow never invalidates a report: drops are counted per
//! [`ProfileData::dropped`] and surfaced in every rendering, and the
//! accounting identity `attempted == events + dropped` is checkable by
//! consumers ("zero *unreported* drops", not "zero drops").

use crate::report::{fmt_ns, RunSection};
use runtime::events::{EventKind, ProfileData, NO_SITE};
use runtime::telemetry::{SiteSnapshot, WaitHistogram, HIST_BUCKETS};
use std::collections::BTreeMap;

/// The episode with the largest critical-path gap at a site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorstEpisode {
    /// Its last − second-last arrival gap.
    pub crit_ns: u64,
    /// The first arriver: (arrival ns, pid).
    pub first: (u64, usize),
    /// The straggler that gated it: (arrival ns, pid).
    pub last: (u64, usize),
}

/// Episode facts for one canonical sync site.
#[derive(Clone, Debug, PartialEq)]
pub struct SiteProfile {
    /// Canonical site id.
    pub site: usize,
    /// Complete episodes (all `nprocs` arrivals observed).
    pub episodes: u64,
    /// Arrivals that could not be matched into a complete episode
    /// (faulted attempts, ring drops).
    pub partial_arrivals: u64,
    /// Critical-path contribution: Σ over episodes of
    /// (last − second-last arrival).
    pub crit_ns: u64,
    /// Total arrival spread: Σ over episodes of (last − first arrival).
    pub spread_ns: u64,
    /// How often each processor was the episode's last arriver.
    pub last_count_by_pid: Vec<u64>,
    /// Critical-path nanoseconds attributed to each processor (summed
    /// over the episodes it arrived last in).
    pub crit_ns_by_pid: Vec<u64>,
    /// Log₂ histogram of per-arrival slack (last arrival − this
    /// arrival), bucket layout of [`WaitHistogram`].
    pub slack_hist: [u64; HIST_BUCKETS],
    /// Spin→yield escalations inside this site's waits.
    pub yields: u64,
    /// Yield→park escalations inside this site's waits.
    pub parks: u64,
    /// The worst complete episode (`None` without one, or on a team of
    /// one, where nobody waits for anybody).
    pub worst: Option<WorstEpisode>,
}

impl SiteProfile {
    fn new(site: usize, nprocs: usize) -> Self {
        SiteProfile {
            site,
            episodes: 0,
            partial_arrivals: 0,
            crit_ns: 0,
            spread_ns: 0,
            last_count_by_pid: vec![0; nprocs],
            crit_ns_by_pid: vec![0; nprocs],
            slack_hist: [0; HIST_BUCKETS],
            yields: 0,
            parks: 0,
            worst: None,
        }
    }

    /// The processor most often last to arrive (`None` when the site
    /// had no complete episode).
    pub fn worst_pid(&self) -> Option<usize> {
        let (pid, &n) = self
            .last_count_by_pid
            .iter()
            .enumerate()
            .max_by_key(|&(pid, &n)| (n, std::cmp::Reverse(pid)))?;
        (n > 0).then_some(pid)
    }
}

/// Supervisor, escalation and compile event totals of one profiled
/// execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProfileMarks {
    /// Write-set checkpoints captured.
    pub checkpoints: u64,
    /// Rollbacks to the checkpoint.
    pub rollbacks: u64,
    /// Retries launched after a failed attempt.
    pub retries: u64,
    /// Spin→yield escalations (all, including dispatch-gate waits,
    /// which have no site).
    pub yields: u64,
    /// Yield→park escalations.
    pub parks: u64,
    /// Optimizer pair queries answered warm (memo hit).
    pub fme_hits: u64,
    /// Optimizer pair queries that ran fresh FME scans.
    pub fme_misses: u64,
    /// Nanoseconds inside warm pair queries.
    pub fme_hit_ns: u64,
    /// Nanoseconds inside fresh pair queries.
    pub fme_miss_ns: u64,
}

/// The analyzed profile of one execution.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileReport {
    /// Worker count the stream was recorded with.
    pub nprocs: usize,
    /// Writer tracks (workers + supervisor).
    pub tracks: usize,
    /// Ring capacity per track.
    pub capacity: usize,
    /// Events overwritten by ring overflow (reported, never silent).
    pub dropped: u64,
    /// Live events analyzed.
    pub events: u64,
    /// Recovery epochs spanned (1 = single clean attempt).
    pub epochs: u64,
    /// Exactly how many analyzed events carry the saturated epoch
    /// stamp (`u16::MAX`). Zero in any sane run — reaching it means
    /// the recovery supervisor retried ≥ 65535 times, and attempts
    /// past that all share the final epoch, so their episode keys may
    /// collide (those episodes surface as `partial_arrivals`, never as
    /// bogus episodes). The count makes the accounting exact: every
    /// event is either cleanly stamped or tallied here.
    pub epoch_clamp: u64,
    /// Per-site facts, sorted by site id.
    pub sites: Vec<SiteProfile>,
    /// Per-processor region wall-clock (Σ RegionEnd − RegionBegin).
    pub region_ns_by_pid: Vec<u64>,
    /// Supervisor, escalation and compile totals.
    pub marks: ProfileMarks,
}

impl ProfileReport {
    /// Total critical-path nanoseconds across sites.
    pub fn total_crit_ns(&self) -> u64 {
        self.sites.iter().map(|s| s.crit_ns).sum()
    }

    /// The site facts for `site`, if the stream saw it.
    pub fn site(&self, site: usize) -> Option<&SiteProfile> {
        self.sites.iter().find(|s| s.site == site)
    }
}

/// Analyze a merged event stream recorded by `nprocs` workers.
pub fn analyze(data: &ProfileData, nprocs: usize) -> ProfileReport {
    let nprocs = nprocs.max(1);
    let mut sites: Vec<SiteProfile> = Vec::new();
    let site_ix = |sites: &mut Vec<SiteProfile>, id: usize| -> usize {
        match sites.binary_search_by_key(&id, |s| s.site) {
            Ok(k) => k,
            Err(k) => {
                sites.insert(k, SiteProfile::new(id, nprocs));
                k
            }
        }
    };

    // Pass 1: region spans, marks, and escalations, each attributed to
    // the site its mark carries. Per-track state is enough: events
    // within one track are in recording order after the (t_ns, track)
    // merge sort, because each single-writer track's timestamps are
    // monotone.
    let mut region_begin: Vec<Option<u64>> = vec![None; data.tracks.max(1)];
    let mut region_ns_by_pid = vec![0u64; nprocs];
    let mut marks = ProfileMarks::default();
    let mut max_epoch = 0u16;
    let mut clamped_events = 0u64;
    for e in &data.events {
        max_epoch = max_epoch.max(e.epoch);
        if e.epoch == u16::MAX {
            clamped_events += 1;
        }
        let track = (e.track as usize).min(region_begin.len() - 1);
        match e.kind {
            EventKind::SyncArrive | EventKind::SyncRelease => {}
            EventKind::RegionBegin => region_begin[track] = Some(e.t_ns),
            EventKind::RegionEnd => {
                if let (Some(t0), true) = (region_begin[track].take(), track < nprocs) {
                    region_ns_by_pid[track] += e.t_ns.saturating_sub(t0);
                }
            }
            EventKind::EscalateYield => {
                marks.yields += 1;
                if e.site != NO_SITE {
                    let k = site_ix(&mut sites, e.site as usize);
                    sites[k].yields += 1;
                }
            }
            EventKind::EscalatePark => {
                marks.parks += 1;
                if e.site != NO_SITE {
                    let k = site_ix(&mut sites, e.site as usize);
                    sites[k].parks += 1;
                }
            }
            EventKind::Checkpoint => marks.checkpoints += 1,
            EventKind::Rollback => marks.rollbacks += 1,
            EventKind::Retry => marks.retries += 1,
            EventKind::FmeHit => {
                marks.fme_hits += 1;
                marks.fme_hit_ns += e.arg;
            }
            EventKind::FmeMiss => {
                marks.fme_misses += 1;
                marks.fme_miss_ns += e.arg;
            }
        }
    }

    // Pass 2: episode alignment. Key = (epoch, site, visit); an episode
    // is complete when all nprocs arrivals are present. Each arrival
    // carries its writer track — SyncArrive is only ever recorded by
    // worker `pid` on track `pid` — so attribution uses real processor
    // ids, not the arrival's position in the time-sorted merge. Key
    // order makes the worst episode the earliest of equal gaps.
    let mut episodes: BTreeMap<(u16, u32, u64), Vec<(u64, usize)>> = BTreeMap::new();
    for e in &data.events {
        if e.kind == EventKind::SyncArrive && e.site != NO_SITE {
            episodes
                .entry((e.epoch, e.site, e.arg))
                .or_default()
                .push((e.t_ns, e.track as usize));
        }
    }
    for ((_, site, _), mut by_pid) in episodes {
        let k = site_ix(&mut sites, site as usize);
        if by_pid.len() != nprocs || by_pid.iter().any(|&(_, p)| p >= nprocs) {
            sites[k].partial_arrivals += by_pid.len() as u64;
            continue;
        }
        // Sort by arrival time; the pid rides along with each entry.
        by_pid.sort();
        let first = by_pid[0];
        let (t_last, last_pid) = by_pid[nprocs - 1];
        let crit = if nprocs >= 2 {
            t_last - by_pid[nprocs - 2].0
        } else {
            0
        };
        sites[k].episodes += 1;
        sites[k].crit_ns += crit;
        sites[k].spread_ns += t_last - first.0;
        sites[k].last_count_by_pid[last_pid] += 1;
        sites[k].crit_ns_by_pid[last_pid] += crit;
        for &(t, _) in &by_pid {
            sites[k].slack_hist[WaitHistogram::bucket_of(t_last - t)] += 1;
        }
        if nprocs >= 2 && sites[k].worst.is_none_or(|w| crit > w.crit_ns) {
            sites[k].worst = Some(WorstEpisode {
                crit_ns: crit,
                first,
                last: (t_last, last_pid),
            });
        }
    }

    ProfileReport {
        nprocs,
        tracks: data.tracks,
        capacity: data.capacity,
        dropped: data.dropped,
        events: data.events.len() as u64,
        epochs: max_epoch as u64 + 1,
        epoch_clamp: clamped_events,
        sites,
        region_ns_by_pid,
        marks,
    }
}

/// One row of the observed-vs-predicted join: what the optimizer did at
/// a site, and what the wait delta between the barrier baseline and the
/// optimized run actually was.
#[derive(Clone, Debug, PartialEq)]
pub struct OvpRow {
    /// Canonical site id (same walk in both plans).
    pub site: usize,
    /// Slot label.
    pub label: String,
    /// What the optimizer placed ("eliminated", "neighbor flags",
    /// "counter").
    pub placed: String,
    /// The optimizer's reason string from the decision log.
    pub reason: String,
    /// Blocked time at this site in the all-barrier baseline run.
    pub baseline_wait_ns: u64,
    /// Blocked time at this site in the optimized run (0 for an
    /// eliminated site — there is nothing to wait on).
    pub observed_wait_ns: u64,
    /// Baseline − observed (negative when the replacement waited
    /// *longer* than the barrier it replaced).
    pub saved_wait_ns: i64,
    /// Critical-path contribution in the baseline run.
    pub baseline_crit_ns: u64,
    /// Critical-path contribution in the optimized run.
    pub observed_crit_ns: u64,
    /// True when the placement saved wall-wait as predicted.
    pub realized: bool,
}

/// Join the decision log against a baseline and an optimized run:
/// blocked time from each run's cells, critical path from each run's
/// profile.
///
/// Emits one row per decision whose placement differs from a kept
/// barrier — exactly the sites where the optimizer claimed a win. The
/// baseline must come from the optimized plan with those same sites
/// demoted (`spmd_opt::demote_sites`), which keeps the canonical walk —
/// and therefore every site id — identical between the runs.
pub fn observed_vs_predicted(
    decisions: &[spmd_opt::Decision],
    baseline: &RunSection,
    optimized: &RunSection,
) -> Vec<OvpRow> {
    let wait = |run: &RunSection, site| run.cells(site).map_or(0, |s| s.total.wait_ns);
    let crit = |run: &RunSection, site| {
        let s = run.profile.as_ref().and_then(|p| p.site(site));
        s.map_or(0, |s| s.crit_ns)
    };
    decisions
        .iter()
        .filter(|d| !matches!(d.placed, spmd_opt::SyncOp::Barrier))
        .map(|d| {
            let baseline_wait_ns = wait(baseline, d.site);
            let observed_wait_ns = wait(optimized, d.site);
            let saved = baseline_wait_ns as i64 - observed_wait_ns as i64;
            OvpRow {
                site: d.site,
                label: d.label.clone(),
                placed: d.placed_str().to_string(),
                reason: d.reason.clone(),
                baseline_wait_ns,
                observed_wait_ns,
                saved_wait_ns: saved,
                baseline_crit_ns: crit(baseline, d.site),
                observed_crit_ns: crit(optimized, d.site),
                realized: saved > 0,
            }
        })
        .collect()
}

fn fmt_ns_i(ns: i64) -> String {
    if ns < 0 {
        format!("-{}", fmt_ns(ns.unsigned_abs()))
    } else {
        fmt_ns(ns as u64)
    }
}

/// The human-readable critical-path and imbalance table (what
/// `beopt --run --profile` prints): one row per site the stream saw,
/// its sync, label and blocked time read from that site's `cells`
/// (blank, and no wait, for a site `cells` does not list).
pub fn render_profile(r: &ProfileReport, cells: &[SiteSnapshot]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "--- sync profile (P={}, {} epoch(s), {} events, {} dropped) ---\n",
        r.nprocs, r.epochs, r.events, r.dropped
    ));
    let total_crit = r.total_crit_ns();
    out.push_str(&format!(
        "{:<5} {:<14} {:<30} {:>6} {:>10} {:>6} {:>10} {:>10} {:>9}\n",
        "site", "sync", "label", "eps", "crit", "%crit", "spread", "wait", "last-most"
    ));
    let mut total_wait = 0;
    for s in &r.sites {
        let pct = if total_crit > 0 {
            format!("{:.1}%", s.crit_ns as f64 * 100.0 / total_crit as f64)
        } else {
            "-".to_string()
        };
        let worst = match s.worst_pid() {
            Some(p) => format!("P{p}×{}", s.last_count_by_pid[p]),
            None => "-".to_string(),
        };
        let cell = cells.iter().find(|c| c.meta.id == s.site);
        let (op, label) = cell.map_or(("", ""), |c| (&c.meta.op[..], &c.meta.label[..]));
        let wait = cell.map(|c| c.total.wait_ns);
        total_wait += wait.unwrap_or(0);
        out.push_str(&format!(
            "s{:<4} {:<14} {:<30} {:>6} {:>10} {:>6} {:>10} {:>10} {:>9}\n",
            s.site,
            op,
            label,
            s.episodes,
            fmt_ns(s.crit_ns),
            pct,
            fmt_ns(s.spread_ns),
            wait.map_or("-".to_string(), fmt_ns),
            worst,
        ));
    }
    out.push_str(&format!(
        "critical path {} | wait {} | escalations {}y/{}p",
        fmt_ns(total_crit),
        fmt_ns(total_wait),
        r.marks.yields,
        r.marks.parks
    ));
    if r.marks.retries > 0 || r.marks.rollbacks > 0 {
        out.push_str(&format!(
            " | recovery {}ckpt/{}rb/{}retry",
            r.marks.checkpoints, r.marks.rollbacks, r.marks.retries
        ));
    }
    if r.marks.fme_hits + r.marks.fme_misses > 0 {
        out.push_str(&format!(
            " | fme {}h/{}m {}",
            r.marks.fme_hits,
            r.marks.fme_misses,
            fmt_ns(r.marks.fme_hit_ns + r.marks.fme_miss_ns)
        ));
    }
    out.push('\n');
    if r.dropped > 0 {
        out.push_str(&format!(
            "note: ring overflow dropped {} oldest events (capacity {}/track); totals under-count\n",
            r.dropped, r.capacity
        ));
    }
    if r.epoch_clamp > 0 {
        out.push_str(&format!(
            "note: recovery epoch stamp saturated at {}; {} event(s) carry the saturated stamp and their episodes count as partial\n",
            u16::MAX,
            r.epoch_clamp
        ));
    }
    out
}

/// The observed-vs-predicted table: per eliminated/replaced site, what
/// the barrier baseline waited there vs what the optimized run did.
pub fn render_saved_wait(rows: &[OvpRow]) -> String {
    let mut out = String::new();
    out.push_str("--- observed vs predicted ---\n");
    if rows.is_empty() {
        out.push_str("(the optimizer kept every barrier — nothing to compare)\n");
        return out;
    }
    out.push_str(&format!(
        "{:<5} {:<30} {:<15} {:>12} {:>12} {:>12} {:>9}\n",
        "site", "label", "placed", "base-wait", "obs-wait", "saved", "realized"
    ));
    let mut total_saved = 0i64;
    for row in rows {
        total_saved += row.saved_wait_ns;
        out.push_str(&format!(
            "s{:<4} {:<30} {:<15} {:>12} {:>12} {:>12} {:>9}\n",
            row.site,
            row.label,
            row.placed,
            fmt_ns(row.baseline_wait_ns),
            fmt_ns(row.observed_wait_ns),
            fmt_ns_i(row.saved_wait_ns),
            if row.realized { "yes" } else { "no" },
        ));
    }
    let realized = rows.iter().filter(|r| r.realized).count();
    out.push_str(&format!(
        "saved {} across {} site(s); {}/{} realized the predicted win\n",
        fmt_ns_i(total_saved),
        rows.len(),
        realized,
        rows.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::report::{report_json, CompileSection, RunReport};
    use runtime::events::{ProfileEvent, ProfileOptions, Profiler};
    use runtime::stats::StatsSnapshot;
    use runtime::telemetry::{CellSnapshot, SiteMeta};

    fn ev(kind: EventKind, site: u32, track: u16, arg: u64, t_ns: u64) -> ProfileEvent {
        ProfileEvent {
            t_ns,
            arg,
            site,
            track,
            epoch: 0,
            kind,
        }
    }

    /// Site `id`'s cells on a team of two: each processor blocked for
    /// the given nanoseconds in one wait.
    fn cells(id: usize, label: &str, op: &str, waits: [u64; 2]) -> SiteSnapshot {
        let meta = SiteMeta {
            id,
            kind: "phase-after".into(),
            label: label.into(),
            op: op.into(),
        };
        let per_proc = waits.map(|ns| {
            let mut c = CellSnapshot::default();
            c.record(ns);
            c
        });
        SiteSnapshot::new(meta, per_proc.to_vec())
    }

    /// Two processors, two episodes at site 0. P1 arrives last both
    /// times, 100ns and 50ns after P0.
    fn two_episode_data() -> ProfileData {
        let p = Profiler::new(2, ProfileOptions { capacity: 64 });
        p.record_at(0, EventKind::RegionBegin, NO_SITE, 0, 0);
        p.record_at(1, EventKind::RegionBegin, NO_SITE, 0, 5);
        p.record_at(0, EventKind::SyncArrive, 0, 0, 100);
        p.record_at(1, EventKind::SyncArrive, 0, 0, 200);
        p.record_at(0, EventKind::SyncRelease, 0, 110, 210);
        p.record_at(1, EventKind::SyncRelease, 0, 10, 210);
        p.record_at(0, EventKind::SyncArrive, 0, 1, 300);
        p.record_at(1, EventKind::SyncArrive, 0, 1, 350);
        p.record_at(0, EventKind::SyncRelease, 0, 60, 360);
        p.record_at(1, EventKind::SyncRelease, 0, 10, 360);
        p.record_at(0, EventKind::RegionEnd, NO_SITE, 1, 400);
        p.record_at(1, EventKind::RegionEnd, NO_SITE, 1, 405);
        p.snapshot()
    }

    #[test]
    fn last_arriver_attribution_finds_the_straggler() {
        let r = analyze(&two_episode_data(), 2);
        assert_eq!(r.sites.len(), 1);
        let s = &r.sites[0];
        assert_eq!(s.episodes, 2);
        assert_eq!(s.partial_arrivals, 0);
        // Episode 0: last−second-last = 200−100 = 100; episode 1: 50.
        assert_eq!(s.crit_ns, 150);
        assert_eq!(s.spread_ns, 150);
        assert_eq!(s.last_count_by_pid, vec![0, 2]);
        assert_eq!(s.crit_ns_by_pid, vec![0, 150]);
        assert_eq!(s.worst_pid(), Some(1));
        // The worst episode is the first one, kept whole.
        let worst = WorstEpisode {
            crit_ns: 100,
            first: (100, 0),
            last: (200, 1),
        };
        assert_eq!(s.worst, Some(worst));
        assert_eq!(r.region_ns_by_pid, vec![400, 400]);
        assert_eq!(r.total_crit_ns(), 150);
        // Slack histogram: 2 last-arrivals at slack 0 (bucket 0), one
        // at 100 (bucket 6: [64,128)), one at 50 (bucket 5: [32,64)).
        assert_eq!(s.slack_hist[0], 2);
        assert_eq!(s.slack_hist[6], 1);
        assert_eq!(s.slack_hist[5], 1);
    }

    /// The straggler is pid 0 — regression for conflating arrival rank
    /// in the time-sorted merge with processor id: the merged stream is
    /// sorted by time, so rank-as-pid always blamed the last index.
    #[test]
    fn straggler_pid_zero_is_blamed() {
        let p = Profiler::new(2, ProfileOptions { capacity: 64 });
        p.record_at(1, EventKind::SyncArrive, 0, 0, 100);
        p.record_at(0, EventKind::SyncArrive, 0, 0, 250);
        p.record_at(1, EventKind::SyncRelease, 0, 150, 260);
        p.record_at(0, EventKind::SyncRelease, 0, 10, 260);
        let r = analyze(&p.snapshot(), 2);
        let s = r.site(0).unwrap();
        assert_eq!(s.episodes, 1);
        assert_eq!(s.crit_ns, 150);
        assert_eq!(s.last_count_by_pid, vec![1, 0]);
        assert_eq!(s.crit_ns_by_pid, vec![150, 0]);
        assert_eq!(s.worst_pid(), Some(0));
        assert_eq!(s.worst.map(|w| (w.first.1, w.last.1)), Some((1, 0)));
    }

    /// An arrival from a track past the worker range (malformed stream)
    /// can never index the per-pid arrays; the episode counts as
    /// partial instead.
    #[test]
    fn out_of_range_track_arrivals_are_partial() {
        let p = Profiler::new(3, ProfileOptions { capacity: 16 });
        p.record_at(0, EventKind::SyncArrive, 1, 0, 10);
        p.record_at(2, EventKind::SyncArrive, 1, 0, 20); // supervisor track
        let r = analyze(&p.snapshot(), 2);
        let s = r.site(1).unwrap();
        assert_eq!(s.episodes, 0);
        assert_eq!(s.partial_arrivals, 2);
        assert_eq!(s.worst, None);
    }

    #[test]
    fn epoch_clamp_is_flagged_and_rendered() {
        let mut e1 = ev(EventKind::SyncArrive, 0, 0, 0, 1);
        e1.epoch = u16::MAX;
        let mut e2 = ev(EventKind::SyncRelease, 0, 0, 5, 2);
        e2.epoch = u16::MAX;
        let mut e3 = ev(EventKind::SyncArrive, 0, 0, 1, 3);
        e3.epoch = 9; // a normally-stamped event is *not* tallied
        let data = ProfileData {
            tracks: 1,
            capacity: 16,
            dropped: 0,
            events: vec![e1, e2, e3],
        };
        let r = analyze(&data, 1);
        // Accounting-exact: exactly the two saturated-stamp events.
        assert_eq!(r.epoch_clamp, 2);
        assert_eq!(r.epochs, 65536);
        assert!(render_profile(&r, &[]).contains("saturated at 65535"));
        assert!(render_profile(&r, &[]).contains("2 event(s)"));
        // The clamp count reaches the run report's profile member.
        let run = RunSection {
            totals: StatsSnapshot::default(),
            sites: Vec::new(),
            profile: Some(r),
            observed_vs_predicted: None,
        };
        let doc = report_json(&report_of(run));
        let profile = doc.get("run").unwrap().get("profile").unwrap();
        assert_eq!(profile.get("epoch_clamp").unwrap().as_u64(), Some(2));
        let clean = analyze(&two_episode_data(), 2);
        assert_eq!(clean.epoch_clamp, 0);
    }

    #[test]
    fn incomplete_episodes_are_counted_not_attributed() {
        let p = Profiler::new(3, ProfileOptions { capacity: 16 });
        // Only 2 of 3 arrivals: the faulted attempt's torn episode.
        p.record_at(0, EventKind::SyncArrive, 4, 0, 10);
        p.record_at(1, EventKind::SyncArrive, 4, 0, 20);
        let r = analyze(&p.snapshot(), 3);
        let s = r.site(4).unwrap();
        assert_eq!(s.episodes, 0);
        assert_eq!(s.crit_ns, 0);
        assert_eq!(s.partial_arrivals, 2);
    }

    #[test]
    fn escalations_attribute_to_the_enclosing_wait() {
        let evs = vec![
            ev(EventKind::SyncArrive, 2, 0, 0, 100),
            ev(EventKind::EscalateYield, 2, 0, 64, 210),
            ev(EventKind::EscalatePark, 2, 0, 256, 210),
            ev(EventKind::SyncRelease, 2, 0, 120, 220),
            // A dispatch-gate wait's mark has no site: counted in the
            // totals, not per-site.
            ev(EventKind::EscalateYield, NO_SITE, 0, 4, 300),
        ];
        let data = ProfileData {
            tracks: 1,
            capacity: 16,
            dropped: 0,
            events: evs,
        };
        let r = analyze(&data, 1);
        let s = r.site(2).unwrap();
        assert_eq!((s.yields, s.parks), (1, 1));
        assert_eq!((r.marks.yields, r.marks.parks), (2, 1));
    }

    #[test]
    fn supervisor_marks_and_fme_totals_roll_up() {
        let evs = vec![
            ev(EventKind::FmeMiss, NO_SITE, 0, 1000, 1),
            ev(EventKind::FmeHit, NO_SITE, 0, 10, 2),
            ev(EventKind::Checkpoint, NO_SITE, 1, 46, 3),
            ev(EventKind::Rollback, NO_SITE, 1, 46, 4),
            ev(EventKind::Retry, NO_SITE, 1, 1, 5),
        ];
        let data = ProfileData {
            tracks: 2,
            capacity: 16,
            dropped: 0,
            events: evs,
        };
        let r = analyze(&data, 1);
        assert_eq!(r.marks.fme_hits, 1);
        assert_eq!(r.marks.fme_misses, 1);
        assert_eq!(r.marks.fme_hit_ns, 10);
        assert_eq!(r.marks.fme_miss_ns, 1000);
        assert_eq!(r.marks.checkpoints, 1);
        assert_eq!(r.marks.rollbacks, 1);
        assert_eq!(r.marks.retries, 1);
    }

    fn decision(site: usize, label: &str, placed: spmd_opt::SyncOp) -> spmd_opt::Decision {
        spmd_opt::Decision {
            site,
            label: label.into(),
            kind: spmd_opt::SlotKind::PhaseAfter,
            outcome: None,
            producer: None,
            pin: None,
            commuting: Vec::new(),
            covered: Vec::new(),
            first_trip: false,
            placed,
            merged_last_trip: false,
            src_stmts: 1,
            dst_stmts: 1,
            reason: "test".into(),
        }
    }

    /// A profiled run of [`two_episode_data`] whose site 0 blocked
    /// `waits` nanoseconds per processor.
    fn run_section(waits: [u64; 2]) -> RunSection {
        RunSection {
            totals: StatsSnapshot::default(),
            sites: vec![cells(0, "after DOALL i", "barrier", waits)],
            profile: Some(analyze(&two_episode_data(), 2)),
            observed_vs_predicted: None,
        }
    }

    /// A report of `run` on a team of two, with an empty compile.
    fn report_of(run: RunSection) -> RunReport {
        RunReport {
            program: "jacobi".into(),
            nprocs: 2,
            compile: CompileSection {
                explain: Json::obj(),
                analysis: Default::default(),
            },
            run: Some(run),
            fault: None,
        }
    }

    /// Blocked time comes from each run's cells, the critical path from
    /// each run's episodes; a kept barrier has no row.
    #[test]
    fn observed_vs_predicted_joins_on_site_id() {
        let base = run_section([6_000, 4_000]);
        let opt = run_section([1_500, 500]);
        let decisions = vec![
            decision(0, "after DOALL i", spmd_opt::SyncOp::None),
            decision(3, "end of region r0", spmd_opt::SyncOp::Barrier),
        ];
        let rows = observed_vs_predicted(&decisions, &base, &opt);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.site, 0);
        assert_eq!(row.placed, "eliminated");
        assert_eq!(row.baseline_wait_ns, 10_000);
        assert_eq!(row.observed_wait_ns, 2_000);
        assert_eq!(row.saved_wait_ns, 8_000);
        assert_eq!((row.baseline_crit_ns, row.observed_crit_ns), (150, 150));
        assert!(row.realized);
        // A site the optimized run holds no cells for (truly eliminated
        // — nothing recorded) observes zero wait.
        let empty = RunSection {
            sites: Vec::new(),
            ..opt.clone()
        };
        let rows = observed_vs_predicted(&decisions, &base, &empty);
        assert_eq!(rows[0].observed_wait_ns, 0);
        assert_eq!(rows[0].saved_wait_ns, 10_000);
    }

    #[test]
    fn negative_savings_render_and_report_unrealized() {
        let row = OvpRow {
            site: 2,
            label: "bottom of DO t".into(),
            placed: "counter".into(),
            reason: "replaced".into(),
            baseline_wait_ns: 1_000,
            observed_wait_ns: 3_000,
            saved_wait_ns: -2_000,
            baseline_crit_ns: 0,
            observed_crit_ns: 0,
            realized: false,
        };
        let txt = render_saved_wait(&[row]);
        assert!(txt.contains("-2.00us"));
        assert!(txt.contains("0/1 realized"));
    }

    /// The profile table reads sync, label and wait from the cells.
    #[test]
    fn rendering_reads_cells_and_flags_ring_drops() {
        let run = run_section([170, 20]);
        let mut r = run.profile.unwrap();
        let txt = render_profile(&r, &run.sites);
        assert!(txt.contains("after DOALL i"), "{txt}");
        assert!(txt.contains("190ns"), "{txt}");
        assert!(txt.contains("0 dropped"));
        assert!(!txt.contains("ring overflow"));
        r.dropped = 7;
        let txt = render_profile(&r, &run.sites);
        assert!(txt.contains("ring overflow dropped 7"));
    }

    /// A profiled run's site rows carry the episode facts beside the
    /// cells, and the whole report round-trips.
    #[test]
    fn profiled_report_round_trips() {
        let mut run = run_section([170, 20]);
        let rows = observed_vs_predicted(
            &[decision(0, "after DOALL i", spmd_opt::SyncOp::None)],
            &run_section([400, 400]),
            &run,
        );
        run.observed_vs_predicted = Some(rows);
        let doc = report_json(&report_of(run));
        let run = doc.get("run").unwrap();
        let site = &run.get("sites").unwrap().as_arr().unwrap()[0];
        assert_eq!(site.get("crit_ns").unwrap().as_u64(), Some(150));
        let total = site.get("total").unwrap();
        assert_eq!(total.get("wait_ns").unwrap().as_u64(), Some(190));
        let worst = site.get("worst_episode").unwrap();
        assert_eq!(worst.get("last_pid").unwrap().as_u64(), Some(1));
        let profile = run.get("profile").unwrap();
        assert_eq!(profile.get("attempted").unwrap().as_u64(), Some(12));
        assert_eq!(profile.get("dropped").unwrap().as_u64(), Some(0));
        let ovp = run.get("observed_vs_predicted").unwrap();
        let saved = ovp.as_arr().unwrap()[0].get("saved_wait_ns");
        assert_eq!(saved.unwrap().as_num(), Some(610.0));
        let txt = doc.to_string_pretty();
        assert_eq!(crate::json::parse(&txt).unwrap(), doc);
    }
}
