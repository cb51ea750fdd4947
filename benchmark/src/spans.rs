//! Harness-side spans: recorded in memory around the calls into each
//! layer, written out as a Chrome trace when the benchmark ends.

use obs::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed interval on the harness thread.
pub struct Span {
    pub id: usize,
    /// Id of the enclosing span (`None` for a root).
    pub parent: Option<usize>,
    pub name: &'static str,
    pub case: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle for an open span; `None` when recording is off.
#[must_use]
pub struct Open(Option<usize>);

/// Span recorder. Disabled (the untraced runs), `begin`/`end` are a
/// branch and nothing else.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Per-span-name totals: how often it ran, its wall time, and its self
/// time (wall minus the part its children cover).
#[derive(Default, Clone, Copy)]
pub struct NameTotals {
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switch recording on or off (the untraced window of a traced
    /// invocation runs with it off).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Nanoseconds since the recorder's origin; public so that spans
    /// the program itself recorded (processor timelines) can be placed
    /// on this clock.
    pub fn clock_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, case: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.clock_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            case: case.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let top = self.stack.pop();
            assert_eq!(top, Some(id), "spans must close innermost first");
            self.spans[id].end_ns = self.clock_ns();
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name, self time = span minus children.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for s in &self.spans {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns[s.id]);
        }
        out
    }
}

/// A span of one processor's timeline inside a real-thread run, placed
/// on the recorder's clock.
pub struct ProcSpan {
    pub pid: usize,
    pub name: String,
    pub cat: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The Chrome trace (Trace Event Format) of one traced pass: harness
/// spans on track 0 with `id`/`parent`/`workload`/`case` arguments,
/// processor timelines on tracks `1..=P`.
pub fn chrome_trace(workload: &str, rec: &Recorder, procs: &[ProcSpan], meta: Json) -> Json {
    let track = |tid: usize, name: String| {
        Json::obj()
            .set("name", "thread_name")
            .set("ph", "M")
            .set("pid", 1u64)
            .set("tid", tid)
            .set("args", Json::obj().set("name", name))
    };
    let mut events = vec![track(0, "harness".to_string())];
    let nprocs = procs.iter().map(|s| s.pid + 1).max().unwrap_or(0);
    events.extend((0..nprocs).map(|p| track(p + 1, format!("proc {p}"))));
    let complete = |name: &str, cat: &str, tid: usize, start_ns: u64, end_ns: u64| {
        Json::obj()
            .set("name", name)
            .set("cat", cat)
            .set("ph", "X")
            .set("pid", 1u64)
            .set("tid", tid)
            .set("ts", start_ns as f64 / 1e3)
            .set("dur", (end_ns - start_ns) as f64 / 1e3)
    };
    for s in rec.spans() {
        let mut args = Json::obj()
            .set("id", s.id)
            .set("workload", workload)
            .set("case", s.case.as_str());
        if let Some(p) = s.parent {
            args = args.set("parent", p);
        }
        events.push(complete(s.name, "harness", 0, s.start_ns, s.end_ns).set("args", args));
    }
    for s in procs {
        events.push(complete(&s.name, s.cat, s.pid + 1, s.start_ns, s.end_ns));
    }
    Json::obj()
        .set("displayTimeUnit", "ms")
        .set("metadata", meta)
        .set("traceEvents", Json::Arr(events))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut rec = Recorder::new(true);
        let case = rec.begin("case", "k");
        let a = rec.begin("core.optimize", "k");
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.end(a);
        let b = rec.begin("verify", "k");
        rec.end(b);
        rec.end(case);
        let t = rec.totals();
        let case_t = t["case"];
        assert_eq!(
            case_t.self_ns,
            case_t.total_ns - t["core.optimize"].total_ns - t["verify"].total_ns
        );
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.spans()[0].parent, None);
        assert!(t["core.optimize"].total_ns >= 2_000_000);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let s = rec.begin("case", "k");
        rec.end(s);
        assert!(rec.spans().is_empty());
    }
}
