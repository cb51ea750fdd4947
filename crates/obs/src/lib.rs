//! Observability for the barrier-elimination pipeline.
//!
//! Three pillars, all offline-friendly (no serde — [`json`] is a small
//! deterministic emitter/parser):
//!
//! * **[`explain`]** — renders the optimizer's per-sync-slot
//!   [`spmd_opt::Decision`] log as JSON and human-readable text: which
//!   of the paper's Section-4 elimination conditions fired at every
//!   phase boundary, loop bottom, and region end.
//! * **[`metrics`]** — per-sync-site, per-processor wait telemetry
//!   tables and JSON (from [`runtime::telemetry`]), attributing blocked
//!   time to individual sync points instead of run-wide totals.
//! * **[`trace`]** — a Chrome-trace (chrome://tracing / Perfetto)
//!   writer turning per-processor spans from the virtual interleaver or
//!   real threads into loadable timelines: barrier convoys are visible
//!   before optimization, neighbor-only waits after.
//! * **[`fault`]** — the one fault report: a failed, recovered, shrunk
//!   or serially finished run as rounds of attempts under one header.
//!
//! The site ids used throughout are the canonical slot numbering of
//! [`spmd_opt::sync_sites`], so decisions, runtime telemetry, and
//! timeline spans all cross-reference the same sites.

pub mod explain;
pub mod fault;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod service;
pub mod trace;

pub use explain::{explain_json, producer_str, render_analysis_stats, render_decisions};
pub use fault::{
    fault_json, render_fault, Attempt, FailureCause, FailureReport, FaultReport, Round, Rung,
    SiteAction, FAULT_SCHEMA_VERSION,
};
pub use json::{parse, Json};
pub use metrics::{metrics_json, render_site_table};
pub use profile::{
    analyze, observed_vs_predicted, profile_json, render_profile, render_saved_wait, OvpRow,
    ProfileMarks, ProfileReport, SiteProfile,
};
pub use service::{render_service_stats, service_stats_json, ServiceStats, ShardStats};
pub use trace::{Span, SpanCat, TraceBuilder};

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
