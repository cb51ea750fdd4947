//! Chrome-trace (chrome://tracing / Perfetto) timeline writer.
//!
//! Executors record [`Span`]s — one per work phase, dispatch, or sync
//! wait, per processor — and this module lowers them to the Trace Event
//! Format: a `traceEvents` array of `B`/`E` duration events with
//! microsecond timestamps, one track (`tid`) per processor, plus
//! `thread_name` metadata so Perfetto labels the tracks `proc 0..P-1`.
//!
//! Within one track, events are emitted in timestamp order with `E`
//! before `B` at equal timestamps, so adjacent spans (a wait ending
//! exactly where the next phase begins) nest correctly.
//!
//! Beyond plain duration events the writer knows three more classes,
//! used for a profiled invocation ([`invocation_trace`]): instants
//! (`ph:"i"` — escalation transitions, recovery marks), async spans
//! (`ph:"b"`/`"e"` — FME pair-query spans, which may interleave and so
//! cannot nest as B/E), and flow arrows (`ph:"s"`/`"f"` — one per site
//! pointing from the first arriver of the site's worst episode to the
//! straggler that gated it, as the run report's profile holds it).

use crate::json::Json;
use crate::report::RunSection;
use runtime::events::{EventKind, ProfileData};

/// Span categories (the trace viewer colors by category).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanCat {
    /// Executing a work phase (parallel/replicated/master).
    Work,
    /// Blocked in a synchronization operation.
    Sync,
    /// Master-to-worker dispatch of a fork-join region.
    Dispatch,
}

impl SpanCat {
    /// Stable category name.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanCat::Work => "work",
            SpanCat::Sync => "sync",
            SpanCat::Dispatch => "dispatch",
        }
    }
}

/// One closed interval of one processor's timeline.
#[derive(Clone, Debug)]
pub struct Span {
    /// Processor (trace track).
    pub pid: usize,
    /// Displayed name, e.g. `DOALL i` or `barrier wait @s3`.
    pub name: String,
    /// Category.
    pub cat: SpanCat,
    /// Start, microseconds from run start.
    pub start_us: u64,
    /// End, microseconds from run start (clamped to `start_us + 1` when
    /// equal, so zero-length spans stay visible and well-nested).
    pub end_us: u64,
}

/// A non-duration trace point (instant, async endpoint, or flow
/// endpoint) on any track, including named extra tracks past the
/// processor range.
#[derive(Clone, Debug)]
struct ExtraEvent {
    tid: usize,
    name: String,
    cat: &'static str,
    ts_us: u64,
    /// Trace phase: `"i"`, `"b"`, `"e"`, `"s"`, or `"f"`.
    ph: &'static str,
    /// Correlation id for async (`b`/`e`) and flow (`s`/`f`) pairs.
    id: Option<u64>,
}

/// Collects spans and emits the Chrome-trace JSON document.
#[derive(Debug)]
pub struct TraceBuilder {
    process_name: String,
    nprocs: usize,
    spans: Vec<Span>,
    extras: Vec<ExtraEvent>,
    named_tracks: Vec<(usize, String)>,
    next_id: u64,
}

impl TraceBuilder {
    /// A trace for `nprocs` processor tracks.
    pub fn new(process_name: impl Into<String>, nprocs: usize) -> Self {
        TraceBuilder {
            process_name: process_name.into(),
            nprocs,
            spans: Vec::new(),
            extras: Vec::new(),
            named_tracks: Vec::new(),
            next_id: 1,
        }
    }

    /// Record one span.
    pub fn push(&mut self, span: Span) {
        debug_assert!(span.pid < self.nprocs);
        debug_assert!(span.start_us <= span.end_us);
        self.spans.push(span);
    }

    /// Record a span from raw parts.
    pub fn span(
        &mut self,
        pid: usize,
        name: impl Into<String>,
        cat: SpanCat,
        start_us: u64,
        end_us: u64,
    ) {
        self.push(Span {
            pid,
            name: name.into(),
            cat,
            start_us,
            end_us,
        });
    }

    /// Merge the spans of another builder (used to combine per-thread
    /// buffers after a real-thread run).
    pub fn extend(&mut self, spans: impl IntoIterator<Item = Span>) {
        self.spans.extend(spans);
    }

    /// Label an extra track past the processor range (supervisor,
    /// compile). Processor tracks `0..nprocs` are named automatically.
    pub fn named_track(&mut self, tid: usize, name: impl Into<String>) {
        let name = name.into();
        if !self.named_tracks.iter().any(|(t, _)| *t == tid) {
            self.named_tracks.push((tid, name));
        }
    }

    /// Record a thread-scoped instant (`ph:"i"`).
    pub fn instant(&mut self, tid: usize, name: impl Into<String>, cat: &'static str, ts_us: u64) {
        self.extras.push(ExtraEvent {
            tid,
            name: name.into(),
            cat,
            ts_us,
            ph: "i",
            id: None,
        });
    }

    /// Record an async span (`ph:"b"`/`"e"`): a duration that may
    /// interleave with others on the same track, so it cannot be a
    /// nested B/E pair.
    pub fn async_span(
        &mut self,
        tid: usize,
        name: impl Into<String>,
        cat: &'static str,
        start_us: u64,
        end_us: u64,
    ) {
        let id = self.next_id;
        self.next_id += 1;
        let name = name.into();
        self.extras.push(ExtraEvent {
            tid,
            name: name.clone(),
            cat,
            ts_us: start_us,
            ph: "b",
            id: Some(id),
        });
        self.extras.push(ExtraEvent {
            tid,
            name,
            cat,
            ts_us: end_us.max(start_us),
            ph: "e",
            id: Some(id),
        });
    }

    /// Record a flow arrow (`ph:"s"` → `"f"`) from one track/time to
    /// another; the viewer draws it between the enclosing slices.
    pub fn flow(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        from: (usize, u64),
        to: (usize, u64),
    ) {
        let id = self.next_id;
        self.next_id += 1;
        let name = name.into();
        self.extras.push(ExtraEvent {
            tid: from.0,
            name: name.clone(),
            cat,
            ts_us: from.1,
            ph: "s",
            id: Some(id),
        });
        self.extras.push(ExtraEvent {
            tid: to.0,
            name,
            cat,
            ts_us: to.1.max(from.1 + 1),
            ph: "f",
            id: Some(id),
        });
    }

    /// Lower a merged profile-event stream onto this trace: escalation
    /// transitions and recovery marks become instants, FME pair-query
    /// spans become async spans. `tid_base` offsets the stream's tracks
    /// — 0 maps run data onto the processor tracks (the track past
    /// `nprocs` is named "supervisor"), while a compile-time stream
    /// passes `nprocs + 1` and gets tracks named from `label_prefix`.
    /// `shift_ns` moves every timestamp.
    pub fn extend_with_profile(
        &mut self,
        data: &ProfileData,
        tid_base: usize,
        label_prefix: &str,
        shift_ns: u64,
    ) {
        for t in 0..data.tracks {
            let tid = tid_base + t;
            if tid_base == 0 && t >= self.nprocs {
                self.named_track(tid, "supervisor");
            } else if tid_base > 0 {
                self.named_track(tid, format!("{label_prefix}{t}"));
            }
        }
        let us = |ns: u64| (ns + shift_ns) / 1_000;
        for e in &data.events {
            let tid = tid_base + e.track as usize;
            match e.kind {
                EventKind::EscalateYield => {
                    self.instant(tid, "escalate: spin\u{2192}yield", "escalation", us(e.t_ns))
                }
                EventKind::EscalatePark => {
                    self.instant(tid, "escalate: yield\u{2192}park", "escalation", us(e.t_ns))
                }
                EventKind::Checkpoint => self.instant(
                    tid,
                    format!("checkpoint ({} cells)", e.arg),
                    "recovery",
                    us(e.t_ns),
                ),
                EventKind::Rollback => self.instant(
                    tid,
                    format!("rollback ({} cells)", e.arg),
                    "recovery",
                    us(e.t_ns),
                ),
                EventKind::Retry => self.instant(
                    tid,
                    format!("retry after attempt {}", e.arg),
                    "recovery",
                    us(e.t_ns),
                ),
                EventKind::FmeHit | EventKind::FmeMiss => {
                    // The probe records at query end with arg = elapsed
                    // ns: the span is [t_ns − arg, t_ns].
                    let name = if e.kind == EventKind::FmeHit {
                        "pair query (memo hit)"
                    } else {
                        "pair query (fme scan)"
                    };
                    self.async_span(
                        tid,
                        name,
                        "fme",
                        us(e.t_ns.saturating_sub(e.arg)),
                        us(e.t_ns),
                    );
                }
                _ => {}
            }
        }
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Lower to the Trace Event Format document.
    pub fn to_json(&self) -> Json {
        let mut events: Vec<Json> = Vec::new();
        for pid in 0..self.nprocs {
            events.push(
                Json::obj()
                    .set("name", "thread_name")
                    .set("ph", "M")
                    .set("pid", 1u64)
                    .set("tid", pid)
                    .set("args", Json::obj().set("name", format!("proc {pid}"))),
            );
        }
        let mut named = self.named_tracks.clone();
        named.sort();
        for (tid, name) in &named {
            events.push(
                Json::obj()
                    .set("name", "thread_name")
                    .set("ph", "M")
                    .set("pid", 1u64)
                    .set("tid", *tid)
                    .set("args", Json::obj().set("name", name.as_str())),
            );
        }
        // Unified sort key (tid, ts, rank, insertion index). Rank E=0,
        // B=1, everything else=2: at one timestamp a span closes before
        // the next opens, and instants/async/flow points land inside
        // whatever slice encloses them.
        let mut points: Vec<(usize, u64, u8, usize)> = Vec::new();
        for (k, s) in self.spans.iter().enumerate() {
            let end = s.end_us.max(s.start_us + 1);
            points.push((s.pid, s.start_us, 1, k));
            points.push((s.pid, end, 0, k));
        }
        for (k, x) in self.extras.iter().enumerate() {
            points.push((x.tid, x.ts_us, 2, self.spans.len() + k));
        }
        points.sort_by_key(|&(tid, ts, rank, k)| (tid, ts, rank, k));
        for (tid, ts, rank, k) in points {
            let ev = if rank < 2 {
                let s = &self.spans[k];
                Json::obj()
                    .set("name", s.name.as_str())
                    .set("cat", s.cat.as_str())
                    .set("ph", if rank == 1 { "B" } else { "E" })
                    .set("ts", ts)
                    .set("pid", 1u64)
                    .set("tid", tid)
            } else {
                let x = &self.extras[k - self.spans.len()];
                let mut ev = Json::obj()
                    .set("name", x.name.as_str())
                    .set("cat", x.cat)
                    .set("ph", x.ph)
                    .set("ts", ts)
                    .set("pid", 1u64)
                    .set("tid", tid);
                if let Some(id) = x.id {
                    ev = ev.set("id", id);
                }
                if x.ph == "i" {
                    ev = ev.set("s", "t");
                }
                if x.ph == "f" {
                    // Bind the arrowhead to the enclosing slice even
                    // when the finish timestamp sits exactly on its
                    // boundary.
                    ev = ev.set("bp", "e");
                }
                ev
            };
            events.push(ev);
        }
        Json::obj()
            .set("traceEvents", Json::Arr(events))
            .set("displayTimeUnit", "ms")
            .set(
                "otherData",
                Json::obj().set("process", self.process_name.as_str()),
            )
    }
}

/// The timeline of one compile-then-run invocation: the run's spans
/// on the processor tracks, its profile stream (`run`, with the report
/// section the stream was analyzed into) as instants, async spans and
/// one flow arrow per site's worst episode, and the compile's stream on
/// tracks past the processors.
///
/// The compile profiler's clock starts at its own construction, while
/// the run's spans and stream are rebased to the run's start, so both
/// begin near 0. Everything run-side is shifted past the compile
/// stream's last event, so the timeline reads compile-then-run instead
/// of overlapping.
pub fn invocation_trace(
    program: &str,
    nprocs: usize,
    compile: Option<&ProfileData>,
    spans: Vec<Span>,
    run: Option<(&ProfileData, &RunSection)>,
) -> TraceBuilder {
    let shift_ns = compile
        .and_then(|cd| cd.events.iter().map(|e| e.t_ns).max())
        .map(|last| last + 1_000)
        .unwrap_or(0);
    let mut tb = TraceBuilder::new(program, nprocs);
    tb.extend(spans.into_iter().map(|s| Span {
        start_us: s.start_us + shift_ns / 1_000,
        end_us: s.end_us + shift_ns / 1_000,
        ..s
    }));
    if let Some((data, section)) = run {
        tb.extend_with_profile(data, 0, "", shift_ns);
        // One flow per site: its worst complete episode only, so the
        // timeline stays readable at any episode count.
        let us = |(ns, pid): (u64, usize)| (pid, (ns + shift_ns) / 1_000);
        for s in section.profile.iter().flat_map(|p| &p.sites) {
            let Some(w) = s.worst else { continue };
            let label = match section.cells(s.site) {
                Some(c) => c.meta.label.clone(),
                None => format!("s{}", s.site),
            };
            let name = format!("last arriver @{label}");
            tb.flow(name, "crit-path", us(w.first), us(w.last));
        }
    }
    if let Some(cd) = compile {
        tb.extend_with_profile(cd, nprocs + 1, "compile ", 0);
    }
    tb
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_metadata_and_balanced_spans() {
        let mut tb = TraceBuilder::new("test", 2);
        tb.span(0, "DOALL i", SpanCat::Work, 0, 5);
        tb.span(0, "barrier wait @s0", SpanCat::Sync, 5, 7);
        tb.span(1, "DOALL i", SpanCat::Work, 0, 7);
        let doc = tb.to_json();
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let meta = evs
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .count();
        assert_eq!(meta, 2);
        let b = evs
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("B"))
            .count();
        let e = evs
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("E"))
            .count();
        assert_eq!(b, 3);
        assert_eq!(e, 3);
    }

    #[test]
    fn per_track_timestamps_are_monotone_and_nested() {
        let mut tb = TraceBuilder::new("test", 2);
        tb.span(0, "a", SpanCat::Work, 0, 3);
        tb.span(0, "b", SpanCat::Sync, 3, 3); // zero-length, clamps to 4
        tb.span(0, "c", SpanCat::Work, 4, 9);
        tb.span(1, "d", SpanCat::Work, 1, 2);
        let doc = tb.to_json();
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let mut last_ts = std::collections::HashMap::new();
        let mut depth = std::collections::HashMap::new();
        for e in evs {
            let ph = e.get("ph").unwrap().as_str().unwrap();
            if ph == "M" {
                continue;
            }
            let tid = e.get("tid").unwrap().as_u64().unwrap();
            let ts = e.get("ts").unwrap().as_u64().unwrap();
            let prev = last_ts.entry(tid).or_insert(0);
            assert!(ts >= *prev, "non-monotone ts on track {tid}");
            *prev = ts;
            let d = depth.entry(tid).or_insert(0i64);
            *d += if ph == "B" { 1 } else { -1 };
            assert!(*d >= 0, "E without B on track {tid}");
        }
        for (tid, d) in depth {
            assert_eq!(d, 0, "unbalanced spans on track {tid}");
        }
    }

    #[test]
    fn instants_async_and_flows_carry_their_phases() {
        let mut tb = TraceBuilder::new("test", 2);
        tb.span(0, "work", SpanCat::Work, 0, 10);
        tb.instant(0, "escalate", "escalation", 5);
        tb.async_span(1, "pair query", "fme", 2, 8);
        tb.flow("crit", "crit-path", (0, 3), (1, 6));
        tb.named_track(2, "supervisor");
        let doc = tb.to_json();
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let phase = |ph: &str| {
            evs.iter()
                .filter(|e| e.get("ph").unwrap().as_str() == Some(ph))
                .count()
        };
        assert_eq!(phase("i"), 1);
        assert_eq!(phase("b"), 1);
        assert_eq!(phase("e"), 1);
        assert_eq!(phase("s"), 1);
        assert_eq!(phase("f"), 1);
        // The supervisor track got thread_name metadata beside the two
        // processor tracks.
        assert_eq!(phase("M"), 3);
        // Async b/e and flow s/f pairs share a correlation id.
        let id_of = |ph: &str| {
            evs.iter()
                .find(|e| e.get("ph").unwrap().as_str() == Some(ph))
                .and_then(|e| e.get("id"))
                .and_then(Json::as_u64)
                .unwrap()
        };
        assert_eq!(id_of("b"), id_of("e"));
        assert_eq!(id_of("s"), id_of("f"));
        assert_ne!(id_of("b"), id_of("s"));
        // The instant is thread-scoped.
        let inst = evs
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("i"))
            .unwrap();
        assert_eq!(inst.get("s").unwrap().as_str(), Some("t"));
    }

    #[test]
    fn profile_stream_lowers_to_all_three_classes() {
        use runtime::events::{ProfileOptions, Profiler, NO_SITE};
        use runtime::telemetry::{CellSnapshot, SiteMeta, SiteSnapshot};
        let p = Profiler::new(3, ProfileOptions { capacity: 64 });
        // Two procs, one episode at site 0: P0 first, P1 the straggler.
        p.record_at(0, EventKind::SyncArrive, 0, 0, 1_000);
        p.record_at(1, EventKind::SyncArrive, 0, 0, 9_000);
        p.record_at(0, EventKind::EscalateYield, NO_SITE, 64, 5_000);
        p.record_at(0, EventKind::SyncRelease, 0, 8_000, 9_000);
        p.record_at(1, EventKind::SyncRelease, 0, 0, 9_000);
        // Supervisor mark + a compile-side FME span.
        p.record_at(2, EventKind::Checkpoint, NO_SITE, 46, 0);
        p.record_at(2, EventKind::FmeMiss, NO_SITE, 3_000, 20_000);
        let data = p.snapshot();
        let meta = SiteMeta {
            id: 0,
            kind: "phase-after".into(),
            label: "after DOALL i".into(),
            op: "barrier".into(),
        };
        let section = RunSection {
            totals: Default::default(),
            sites: vec![SiteSnapshot::new(meta, vec![CellSnapshot::default(); 2])],
            profile: Some(crate::analyze(&data, 2)),
            observed_vs_predicted: None,
        };
        let tb = invocation_trace("test", 2, None, Vec::new(), Some((&data, &section)));
        let doc = tb.to_json();
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let names: Vec<&str> = evs
            .iter()
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert!(names.contains(&"escalate: spin\u{2192}yield"));
        assert!(names.contains(&"checkpoint (46 cells)"));
        assert!(names.contains(&"pair query (fme scan)"));
        assert!(names.contains(&"last arriver @after DOALL i"));
        // The supervisor track (tid 2) was named.
        assert!(evs.iter().any(|e| {
            e.get("ph").unwrap().as_str() == Some("M")
                && e.get("tid").unwrap().as_u64() == Some(2)
                && e.get("args").unwrap().get("name").unwrap().as_str() == Some("supervisor")
        }));
        // The flow points from P0's early arrival to P1's late one.
        let s = evs
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("s"))
            .unwrap();
        let f = evs
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("f"))
            .unwrap();
        assert_eq!(s.get("tid").unwrap().as_u64(), Some(0));
        assert_eq!(s.get("ts").unwrap().as_u64(), Some(1));
        assert_eq!(f.get("tid").unwrap().as_u64(), Some(1));
        assert_eq!(f.get("ts").unwrap().as_u64(), Some(9));
        // The FME async span recovered its start from arg: [17us, 20us].
        let b = evs
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("b"))
            .unwrap();
        assert_eq!(b.get("ts").unwrap().as_u64(), Some(17));
    }

    /// The compile stream lands on tracks past the processors, and the
    /// run starts after its last event.
    #[test]
    fn compile_stream_maps_past_the_processor_tracks() {
        use runtime::events::{ProfileOptions, Profiler, NO_SITE};
        let p = Profiler::new(1, ProfileOptions { capacity: 16 });
        p.record_at(0, EventKind::FmeHit, NO_SITE, 100, 2_000);
        let work = Span {
            pid: 1,
            name: "DOALL i".into(),
            cat: SpanCat::Work,
            start_us: 0,
            end_us: 5,
        };
        let tb = invocation_trace("test", 2, Some(&p.snapshot()), vec![work], None);
        let doc = tb.to_json();
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(evs.iter().any(|e| {
            e.get("ph").unwrap().as_str() == Some("M")
                && e.get("tid").unwrap().as_u64() == Some(3)
                && e.get("args").unwrap().get("name").unwrap().as_str() == Some("compile 0")
        }));
        assert!(evs
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("b"))
            .all(|e| e.get("tid").unwrap().as_u64() == Some(3)));
        // The compile's last event is at 2us: the run begins at 3us.
        let begin = evs
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("B"))
            .unwrap();
        assert_eq!(begin.get("ts").unwrap().as_u64(), Some(3));
    }
}
