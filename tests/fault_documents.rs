//! The rendered fault documents, byte for byte.
//!
//! Hand-built fault reports — every cause a failure can be headed by
//! (a deadline at a site, a deadline at the dispatch gate, a poison
//! observation with no primary fault, a panic),
//! every way a processor can end, and every rung — go through
//! `obs::fault_json` and `obs::render_fault`, and the concatenation is
//! compared with `tests/golden/fault_documents.txt`. A change to how a
//! fault is recorded — not to what it says — must leave every byte
//! alone.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test --test fault_documents`
//! only for a change that is *meant* to alter the documents.

use barrier_elim::obs::{
    fault_json, render_fault, Attempt, FailureReport, FaultReport, Round, Rung, SiteAction,
};
use barrier_elim::runtime::fault::{ProcEnd, SyncError, DISPATCH_SITE};
use barrier_elim::runtime::stats::{StatsSnapshot, SyncKind};
use barrier_elim::runtime::telemetry::{CellSnapshot, SiteMeta, SiteSnapshot};
use barrier_elim::runtime::FaultDisposition;

const GOLDEN: &str = "tests/golden/fault_documents.txt";

fn deadline(site: usize, pid: usize, kind: SyncKind, expected: u64, observed: u64) -> ProcEnd {
    ProcEnd::Fault(SyncError::DeadlineExceeded {
        site,
        pid,
        kind,
        expected,
        observed,
    })
}

fn poisoned(site: usize, pid: usize, cause: &str) -> ProcEnd {
    ProcEnd::Fault(SyncError::Poisoned {
        site,
        pid,
        cause: cause.to_string(),
    })
}

fn panicked(message: &str) -> ProcEnd {
    ProcEnd::Panicked(message.to_string())
}

/// A failure headed by processor `first`'s end: `site_label` names
/// the headline's site.
fn failure(
    ends: Vec<ProcEnd>,
    first: usize,
    site_label: &str,
    sites: Vec<SiteSnapshot>,
) -> FailureReport {
    FailureReport {
        ends,
        first,
        site_label: site_label.to_string(),
        sites,
    }
}

/// Two sites of a four-processor team, with a few waits recorded.
fn sites() -> Vec<SiteSnapshot> {
    let cell = |waits: u64, ns: u64| {
        let mut c = CellSnapshot::default();
        for k in 0..waits {
            c.record(ns * (k + 1));
        }
        c
    };
    let meta = |id: usize, kind: &str, label: &str, op: &str| SiteMeta {
        id,
        kind: kind.to_string(),
        label: label.to_string(),
        op: op.to_string(),
    };
    vec![
        SiteSnapshot::new(
            meta(0, "phase", "after i-loop", "barrier"),
            vec![cell(2, 1_500), cell(2, 900), cell(1, 40_000), cell(0, 0)],
        ),
        SiteSnapshot::new(
            meta(1, "loop-bottom", "bottom of t", "counter"),
            vec![
                cell(0, 0),
                cell(1, 150_000_000),
                cell(1, 2_000),
                cell(3, 700),
            ],
        ),
    ]
}

fn stats(episodes: u64, waits: u64) -> StatsSnapshot {
    StatsSnapshot {
        barrier_episodes: episodes,
        barrier_arrivals: episodes * 4,
        barrier_wait_ns: 12_345,
        counter_increments: waits,
        counter_waits: waits * 3,
        counter_wait_ns: 6_789,
        spin_rounds: 40,
        parks: 2,
        ..StatsSnapshot::default()
    }
}

fn attempt(failure: Option<FailureReport>, suspect_pid: Option<usize>) -> Attempt {
    Attempt {
        failure,
        suspect_pid,
        actions: Vec::new(),
        backoff_ms: 0,
        stats: stats(3, 1),
    }
}

fn action(site: usize, label: &str, action: FaultDisposition) -> SiteAction {
    SiteAction {
        site,
        label: label.to_string(),
        action,
    }
}

fn supervised(widths: Vec<usize>, rung: Rung, rounds: Vec<Round>) -> FaultReport {
    FaultReport {
        program: "hand-built".to_string(),
        widths,
        deadline_ms: 150.0,
        budget: 4,
        chaos_seed: None,
        checkpoint_cells: Some(96),
        rung,
        rounds,
    }
}

/// Every rung, every headline cause, every processor end.
fn reports() -> Vec<(&'static str, FaultReport)> {
    let at_s1 = || deadline(1, 1, SyncKind::Counter, 2, 1);
    let poison_s1 = "deadline exceeded at s1 on P1: counter wait needed 2, observed 1";

    let clean = supervised(
        vec![4],
        Rung::Clean,
        vec![Round {
            lost_pid: None,
            attempts: vec![attempt(None, None)],
        }],
    );

    // A deadline at a site, then one at a barrier, then a clean run.
    let mut first = attempt(
        Some(failure(
            vec![
                ProcEnd::Finished,
                at_s1(),
                poisoned(0, 2, poison_s1),
                poisoned(1, 3, poison_s1),
            ],
            1,
            "bottom of t",
            Vec::new(),
        )),
        None,
    );
    first.actions = vec![action(1, "bottom of t", FaultDisposition::Demote)];
    first.backoff_ms = 1;
    let mut second = attempt(
        Some(failure(
            vec![
                ProcEnd::Finished,
                deadline(0, 1, SyncKind::Barrier, 4, 3),
                ProcEnd::Finished,
                ProcEnd::Finished,
            ],
            1,
            "after i-loop",
            Vec::new(),
        )),
        None,
    );
    second.actions = vec![
        action(0, "after i-loop", FaultDisposition::Demote),
        action(1, "bottom of t", FaultDisposition::Quarantine),
    ];
    second.backoff_ms = 2;
    let mut recovered = supervised(
        vec![4],
        Rung::Recovered,
        vec![Round {
            lost_pid: None,
            attempts: vec![first, second, attempt(None, None)],
        }],
    );
    recovered.chaos_seed = Some(7);

    // A dead P3 coasts to the dispatch gate, twice: shrink to three.
    let gate = || {
        failure(
            vec![
                poisoned(0, 0, "x"),
                poisoned(1, 1, "x"),
                poisoned(0, 2, "x"),
                deadline(DISPATCH_SITE, 3, SyncKind::Counter, 2, 1),
            ],
            3,
            "dispatch",
            Vec::new(),
        )
    };
    let mut gated = attempt(Some(gate()), Some(3));
    gated.backoff_ms = 1;
    let shrunk = supervised(
        vec![4, 3],
        Rung::Shrunk,
        vec![
            Round {
                lost_pid: Some(3),
                attempts: vec![gated, attempt(Some(gate()), Some(3))],
            },
            Round {
                lost_pid: None,
                attempts: vec![attempt(None, None)],
            },
        ],
    );

    // P0 panics at width 2; at width 1 nothing but a poison is left.
    let panic_p0 = || {
        failure(
            vec![
                panicked("injected: permanent processor fault on P0"),
                poisoned(
                    0,
                    1,
                    "P0 panicked: injected: permanent processor fault on P0",
                ),
            ],
            0,
            "",
            Vec::new(),
        )
    };
    let mut panic_first = attempt(Some(panic_p0()), Some(0));
    panic_first.backoff_ms = 1;
    let serial = supervised(
        vec![2, 1],
        Rung::Serial,
        vec![
            Round {
                lost_pid: Some(0),
                attempts: vec![panic_first, attempt(Some(panic_p0()), Some(0))],
            },
            Round {
                lost_pid: None,
                attempts: vec![attempt(
                    Some(failure(
                        vec![poisoned(0, 0, "P9 panicked: gone")],
                        0,
                        "",
                        Vec::new(),
                    )),
                    None,
                )],
            },
        ],
    );

    // The budget runs out on a dispatch deadline: the residual lists
    // every end.
    let mut spent = attempt(Some(gate()), None);
    spent.backoff_ms = 1;
    let mut failed = supervised(
        vec![4],
        Rung::Failed,
        vec![Round {
            lost_pid: None,
            attempts: vec![spent, attempt(Some(gate()), None)],
        }],
    );
    failed.budget = 2;

    // An unsupervised guarded run: every kind of end, with the site
    // table of the moment it died.
    let detected = FaultReport::detected(
        "hand-built",
        4,
        250.0,
        failure(
            vec![
                poisoned(1, 0, poison_s1),
                at_s1(),
                panicked("index out of bounds"),
                deadline(0, 3, SyncKind::Barrier, 4, 3),
            ],
            1,
            "bottom of t",
            sites(),
        ),
        stats(2, 4),
    );

    vec![
        ("clean", clean),
        ("recovered", recovered),
        ("shrunk", shrunk),
        ("serial", serial),
        ("failed", failed),
        ("detected", detected),
    ]
}

fn render() -> String {
    let mut out = String::new();
    for (name, r) in reports() {
        out.push_str(&format!("=== {name} ===\n"));
        out.push_str(&render_fault(&r));
        out.push_str(&fault_json(&r).to_string_pretty());
        out.push('\n');
    }
    out
}

#[test]
fn the_fault_documents_match_the_recorded_bytes() {
    let actual = render();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN)
        .unwrap_or_else(|e| panic!("{GOLDEN}: {e} (run with UPDATE_GOLDEN=1 to create)"));
    for (a, e) in actual.lines().zip(expected.lines()) {
        assert_eq!(a, e, "a fault document drifted");
    }
    assert_eq!(actual, expected);
}
