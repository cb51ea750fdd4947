//! Observability for the barrier-elimination pipeline.
//!
//! Offline-friendly throughout (no serde — [`json`] is a small
//! deterministic emitter/parser). One document per invocation, the
//! run report, with the modules that fill and render it:
//!
//! * **[`report`]** — [`RunReport`] and [`report_json`]: the compile's
//!   decision log and analysis counts, the run's sync totals and
//!   per-site, per-processor wait cells, and the fault timeline, under
//!   one [`SCHEMA_VERSION`]; plus the per-site wait table.
//! * **[`explain`]** — renders the optimizer's per-sync-slot
//!   [`spmd_opt::Decision`] log as JSON and human-readable text: which
//!   of the paper's Section-4 elimination conditions fired at every
//!   phase boundary, loop bottom, and region end.
//! * **[`profile`]** — per-site episode facts from the event rings
//!   (critical path, arrival spread, last arrivers, slack) and the
//!   observed-vs-predicted join against an all-barrier baseline run.
//! * **[`fault`]** — the one fault report: a failed, recovered, shrunk
//!   or serially finished run as rounds of attempts under one header.
//! * **[`trace`]** — a Chrome-trace (chrome://tracing / Perfetto)
//!   writer turning per-processor spans from the virtual interleaver or
//!   real threads, and a profiled run's event stream, into loadable
//!   timelines: barrier convoys are visible before optimization,
//!   neighbor-only waits after.
//! * **[`service`]** — the compile service's request and cache
//!   counters, as text and JSON.
//!
//! The site ids used throughout are the canonical slot numbering of
//! [`spmd_opt::sync_sites`], so decisions, runtime telemetry, and
//! timeline spans all cross-reference the same sites.

pub mod explain;
pub mod fault;
pub mod json;
pub mod profile;
pub mod report;
pub mod service;
pub mod trace;

pub use explain::{explain_json, producer_str, render_analysis_stats, render_decisions};
pub use fault::{
    fault_json, render_fault, Attempt, FailureReport, FaultReport, Round, Rung, SiteAction,
};
pub use json::{parse, Json};
pub use profile::{
    analyze, observed_vs_predicted, render_profile, render_saved_wait, OvpRow, ProfileMarks,
    ProfileReport, SiteProfile, WorstEpisode,
};
pub use report::{
    render_site_table, report_json, CompileSection, RunReport, RunSection, SCHEMA_VERSION,
};
pub use service::{render_service_stats, service_stats_json, ServiceStats, ShardStats};
pub use trace::{invocation_trace, Span, SpanCat, TraceBuilder};

use spmd_opt::{sync_sites, SpmdProgram};

/// Build runtime [`runtime::telemetry::SiteMeta`] records from a plan's
/// canonical site walk (the glue between the optimizer's site numbering
/// and the runtime's telemetry cells).
pub fn site_metas(prog: &ir::Program, plan: &SpmdProgram) -> Vec<runtime::telemetry::SiteMeta> {
    sync_sites(prog, plan)
        .into_iter()
        .map(|s| runtime::telemetry::SiteMeta {
            id: s.id,
            kind: s.kind.as_str().to_string(),
            label: s.label,
            op: spmd_opt::placed_str(&s.op).to_string(),
        })
        .collect()
}
