//! Shared-memory SPMD runtime.
//!
//! This crate stands in for the multiprocessor runtime (ANL-macro style)
//! that the SUIF-generated code of Tseng (PPoPP'95) ran on. It provides
//! exactly the synchronization repertoire the paper's optimizer targets:
//!
//! * **barriers** — an epoch-stamped sense-reversing central barrier and
//!   a k-ary dissemination tree barrier with configurable fan-in
//!   ([`barrier`]; no executor runs the tree);
//! * **post cells** — one monotone cell per processor under every
//!   point-to-point synchronization ([`cells`]): a processor posts its
//!   own cell and a waiter reads the cells of whoever it depends on. The
//!   paper's cheaper forms are which cells those are — the adjacent
//!   processors' (neighbor post/wait for stencils and pipelines), one
//!   producer's (its counter: "producers increment, consumers wait for a
//!   value"), a fixed distance away (pairwise wavefronts), everybody's
//!   (a collector); the executor's region dispatch gate is one more
//!   cell;
//! * **counters** — a bank of shared event counters any processor may
//!   increment ([`counter`]), which no executor runs;
//! * a persistent **worker team** that executes SPMD regions without
//!   re-spawning threads ([`team`]);
//! * **instrumentation** types — plain by-kind totals ([`stats`]),
//!   per-site cells ([`telemetry`]) and single-writer event rings
//!   ([`events`]) the executor's per-worker recorder fills in; the
//!   primitives themselves count and time nothing and record no event
//!   (a wait only returns its [`WaitEffort`], which the waiter turns
//!   into both its totals and its escalation marks), so every ring
//!   track has exactly one writer — the source of the "barriers
//!   executed at run time" numbers in the reproduction of Table 3;
//! * a **spin → `pause` → park escalation ladder** ([`spin`]) shared by
//!   every blocking wait under one topology-aware policy, keeping the
//!   common case a pure-atomic poll loop with no locks or clock reads;
//! * **fault detection** ([`fault`]) — deadline-guarded variants of every
//!   blocking wait with the watchdog sampled off the hot loop (poison
//!   via one epoch-stamped atomic, deadline checked only on park
//!   transitions or every [`fault::DEADLINE_SAMPLE`] polls), a
//!   team-level [`Watchdog`] with region poisoning, and panic-safe
//!   joins ([`Team::try_run`]), so a miscompiled schedule or a
//!   panicking worker is a diagnosed error instead of a hang;
//! * **recovery policy** ([`recovery`]) — the retry budget, deterministic
//!   exponential backoff, and per-site quarantine ledger the executor's
//!   self-healing loop consults when a detected fault is retried instead
//!   of reported terminally.
//!
//! No primitive is ever reset. A set of them lives for one attempt: a
//! retry builds fresh ones, and [`Team::try_run`] joins every worker
//! before the next attempt starts, so no waiter of an abandoned attempt
//! can meet the new primitives.

//! ```
//! use runtime::{Team, Counters};
//! use std::sync::Arc;
//!
//! // One producer hands a value chain to three consumers.
//! let team = Team::new(4);
//! let ctr = Arc::new(Counters::new(1));
//! let c = Arc::clone(&ctr);
//! team.run(move |pid| {
//!     for round in 1..=10 {
//!         if pid == 0 {
//!             c.increment(0);
//!         } else {
//!             c.wait_ge(0, round);
//!         }
//!     }
//! });
//! assert_eq!(ctr.value(0), 10);
//! ```

pub mod barrier;
pub mod cells;
pub mod counter;
pub mod events;
pub mod fault;
pub mod recovery;
pub mod spin;
pub mod stats;
pub mod team;
pub mod telemetry;

pub use barrier::{BarrierEpoch, CentralBarrier, TreeBarrier};
pub use cells::{CellBank, GuardedCells};
pub use counter::Counters;
pub use crossbeam::utils::CachePadded;
pub use events::{EventKind, ProfileData, ProfileEvent, ProfileOptions, Profiler, NO_SITE};
pub use fault::{ProcEnd, SyncError, WaitPoll, Watchdog, DEADLINE_SAMPLE, DISPATCH_SITE};

/// The name [`CellBank`] had when neighbor post/wait was a bank of its
/// own; `benchmark/src/prims.rs` imports it and is the only reason it
/// is kept.
pub type NeighborFlags = CellBank;
/// The name [`CellBank`] had when pairwise counters were a bank of
/// their own; `benchmark/src/prims.rs` imports it and is the only reason
/// it is kept.
pub type PairwiseCells = CellBank;
pub use recovery::{FaultDisposition, Quarantine, RetryPolicy};
pub use spin::{SpinPhase, SpinPolicy, SpinWait, WaitEffort};
pub use stats::{StatsSnapshot, SyncKind};
pub use team::{RegionError, Team};
pub use telemetry::{CellSnapshot, SiteMeta, SiteSnapshot, WaitHistogram, HIST_BUCKETS};
