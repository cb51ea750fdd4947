//! The supervised shard pool: N worker shards, each owning one slice
//! of the service's FME memo, each crash-isolated and restartable.
//!
//! A shard is a bounded admission queue plus one worker thread. The
//! worker runs every request under `catch_unwind`; a panic (a compiler
//! bug, or an injected [`ServiceFault::KillShard`]) is *fail-stop for
//! the shard, not the process*: the worker thread dies, in-flight
//! reply channels drop (the connection handler answers
//! `shard_crashed` and the client retries with backoff), queued work
//! stays in the shard-owned queue, and the supervisor restarts the
//! worker with a fresh [`FmeCache`] rejoined from the last good
//! snapshot. Nothing a crashed worker half-did is observable: plans
//! are pure functions of the request, and snapshots are atomic.
//!
//! Requests are routed to shards by a deterministic hash of the
//! program text, so repeated compiles of the same program always land
//! on the same memo slice — the warm path survives everything short
//! of losing the snapshot file itself.

use crate::chaos::{ServiceChaos, ServiceFault};
use crate::proto::{ErrorCode, ErrorReply, OptimizeReply, OptimizeRequest, PlanKind, Reply};
use crate::queue::{BoundedQueue, Pop, PushError};
use analysis::Bindings;
use ineq::cache::FxHasher;
use ineq::{load_snapshot, write_snapshot, FmeCache, SnapshotLoad};
use obs::{explain_json, Json};
use spmd_opt::{fork_join, optimize_explained_shared, OptimizeOptions};
use std::hash::Hasher;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-shard tuning, shared by every incarnation of the worker.
#[derive(Clone)]
pub struct ShardConfig {
    /// Admission queue bound (requests waiting, not in flight).
    pub queue_cap: usize,
    /// Feasibility-memo capacity for this shard's cache slice.
    pub feas_capacity: usize,
    /// Where snapshots live; `None` disables persistence.
    pub snapshot_dir: Option<PathBuf>,
    /// Persist after this many optimize requests (0 = only explicit
    /// snapshot requests and graceful shutdown).
    pub snapshot_every: u64,
    /// Service-plane fault schedule (tests and chaos campaigns).
    pub chaos: Option<Arc<dyn ServiceChaos>>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            queue_cap: 64,
            feas_capacity: ineq::cache::FEAS_MEMO_CAP,
            snapshot_dir: None,
            snapshot_every: 8,
            chaos: None,
        }
    }
}

/// One unit of admitted work: the request, its deadline, and the
/// channel the connection handler is waiting on. If the worker dies
/// mid-request the sender drops and the handler observes the crash.
pub struct Job {
    /// The compile request.
    pub req: OptimizeRequest,
    /// When the request was admitted (queue-time accounting).
    pub accepted: Instant,
    /// Absolute deadline; expired jobs are answered, not compiled.
    pub deadline: Instant,
    /// Where the connection handler listens for the outcome.
    pub reply: mpsc::Sender<Reply>,
}

/// Monotonic per-shard counters (all relaxed; they are diagnostics).
#[derive(Default)]
pub struct ShardCounters {
    /// Requests answered with a plan.
    pub served: AtomicU64,
    /// Requests answered with `bad_request`.
    pub failed: AtomicU64,
    /// Worker panics (each one is a restart).
    pub panics: AtomicU64,
    /// Worker restarts performed by the supervisor.
    pub restarts: AtomicU64,
    /// Requests refused at admission (queue full).
    pub shed: AtomicU64,
    /// Requests answered with `deadline_exceeded`.
    pub deadline_miss: AtomicU64,
    /// Snapshots successfully written.
    pub snapshots_written: AtomicU64,
    /// Memo entries rejoined from snapshots across all restarts.
    pub entries_loaded: AtomicU64,
    /// Worker starts with an empty memo (missing/rejected snapshot).
    pub cold_starts: AtomicU64,
    /// Snapshot loads rejected by validation.
    pub snapshot_rejects: AtomicU64,
    /// Requests served from a warm memo (feasibility hits observed).
    pub warm_hits: AtomicU64,
}

/// One shard: queue + cache slice + supervised worker thread.
pub struct Shard {
    /// Stable shard index (also the snapshot file name).
    pub id: usize,
    cfg: ShardConfig,
    queue: Arc<BoundedQueue<Job>>,
    fme: Mutex<Arc<FmeCache>>,
    /// Why the last snapshot load cold-started, if it did.
    last_reject: Mutex<Option<String>>,
    c: ShardCounters,
    req_seq: AtomicU64,
    snap_seq: AtomicU64,
    since_snapshot: AtomicU64,
    worker: Mutex<Option<JoinHandle<()>>>,
}

/// Route a program to a shard: deterministic across processes and
/// runs, so the same source always reaches the same memo slice.
pub fn route(program: &str, nshards: usize) -> usize {
    let mut h = FxHasher::default();
    h.write(program.as_bytes());
    (h.finish() % nshards.max(1) as u64) as usize
}

impl Shard {
    /// Build a shard, rejoin its cache from disk, start its worker.
    pub fn start(id: usize, cfg: ShardConfig) -> Arc<Shard> {
        let shard = Arc::new(Shard {
            id,
            queue: Arc::new(BoundedQueue::new(cfg.queue_cap)),
            fme: Mutex::new(Arc::new(FmeCache::with_feas_capacity(cfg.feas_capacity))),
            last_reject: Mutex::new(None),
            c: ShardCounters::default(),
            req_seq: AtomicU64::new(0),
            snap_seq: AtomicU64::new(0),
            since_snapshot: AtomicU64::new(0),
            worker: Mutex::new(None),
            cfg,
        });
        shard.rejoin_cache();
        shard.spawn_worker();
        shard
    }

    /// The snapshot path for this shard, if persistence is on.
    pub fn snapshot_path(&self) -> Option<PathBuf> {
        self.cfg
            .snapshot_dir
            .as_ref()
            .map(|d| d.join(format!("shard-{}.fme", self.id)))
    }

    /// Replace the cache with a fresh one rejoined from the last good
    /// snapshot (cold-start on missing or invalid files, never crash).
    fn rejoin_cache(&self) {
        let cache = Arc::new(FmeCache::with_feas_capacity(self.cfg.feas_capacity));
        if let Some(path) = self.snapshot_path() {
            match load_snapshot(&cache, &path) {
                SnapshotLoad::Loaded { entries, .. } => {
                    self.c
                        .entries_loaded
                        .fetch_add(entries as u64, Ordering::Relaxed);
                    *self.last_reject.lock().unwrap() = None;
                }
                SnapshotLoad::Missing => {
                    self.c.cold_starts.fetch_add(1, Ordering::Relaxed);
                }
                SnapshotLoad::Rejected { reason } => {
                    self.c.cold_starts.fetch_add(1, Ordering::Relaxed);
                    self.c.snapshot_rejects.fetch_add(1, Ordering::Relaxed);
                    *self.last_reject.lock().unwrap() = Some(reason);
                }
            }
        } else {
            self.c.cold_starts.fetch_add(1, Ordering::Relaxed);
        }
        *self.fme.lock().unwrap() = cache;
    }

    fn spawn_worker(self: &Arc<Self>) {
        let me = self.clone();
        let handle = std::thread::Builder::new()
            .name(format!("beoptd-shard-{}", self.id))
            .spawn(move || worker_main(me))
            .expect("spawn shard worker");
        *self.worker.lock().unwrap() = Some(handle);
    }

    /// Admit a job, or report why not (the load-shedding signal).
    #[allow(clippy::result_large_err)] // A refused job is handed back, as `try_push` hands it back.
    pub fn admit(&self, job: Job) -> Result<(), PushError<Job>> {
        let r = self.queue.try_push(job);
        if matches!(r, Err(PushError::Full(_))) {
            self.c.shed.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    /// Queue depth (for retry-after hints).
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// Restart the worker if its thread has died. Returns true when a
    /// restart happened. Called by the supervisor loop.
    pub fn restart_if_dead(self: &Arc<Self>) -> bool {
        let dead = {
            let g = self.worker.lock().unwrap();
            g.as_ref().is_some_and(|h| h.is_finished())
        };
        if !dead {
            return false;
        }
        if let Some(h) = self.worker.lock().unwrap().take() {
            let _ = h.join();
        }
        self.c.restarts.fetch_add(1, Ordering::Relaxed);
        self.rejoin_cache();
        self.spawn_worker();
        true
    }

    /// Close the admission queue (graceful drain).
    pub fn close(&self) {
        self.queue.close();
    }

    /// Wait for the worker to exit (after [`Shard::close`]).
    pub fn join(&self) {
        if let Some(h) = self.worker.lock().unwrap().take() {
            let _ = h.join();
        }
    }

    /// Persist the cache now (explicit `snapshot` op and graceful
    /// shutdown; never fault-injected).
    pub fn snapshot_now(&self) -> std::io::Result<usize> {
        let Some(path) = self.snapshot_path() else {
            return Ok(0);
        };
        let cache = self.fme.lock().unwrap().clone();
        let n = write_snapshot(&cache, &path)?;
        self.c.snapshots_written.fetch_add(1, Ordering::Relaxed);
        Ok(n)
    }

    /// Point-in-time stats document for this shard.
    pub fn stats(&self) -> obs::ShardStats {
        let cache = self.fme.lock().unwrap().clone();
        let fme = cache.stats();
        obs::ShardStats {
            shard: self.id,
            served: self.c.served.load(Ordering::Relaxed),
            failed: self.c.failed.load(Ordering::Relaxed),
            shed: self.c.shed.load(Ordering::Relaxed),
            deadline_miss: self.c.deadline_miss.load(Ordering::Relaxed),
            panics: self.c.panics.load(Ordering::Relaxed),
            restarts: self.c.restarts.load(Ordering::Relaxed),
            warm_hits: self.c.warm_hits.load(Ordering::Relaxed),
            backlog: self.queue.len() as u64,
            queue_cap: self.queue.capacity() as u64,
            snapshots_written: self.c.snapshots_written.load(Ordering::Relaxed),
            entries_loaded: self.c.entries_loaded.load(Ordering::Relaxed),
            cold_starts: self.c.cold_starts.load(Ordering::Relaxed),
            snapshot_rejects: self.c.snapshot_rejects.load(Ordering::Relaxed),
            last_reject: self.last_reject.lock().unwrap().clone(),
            memo_entries: fme.entries as u64,
            memo_evictions: fme.feas_evictions,
        }
    }

    /// Compile one request into its deterministic explain document.
    fn compile(&self, req: &OptimizeRequest) -> Result<(Json, bool), String> {
        let prog = frontend::parse(&req.program).map_err(|e| format!("parse error: {e}"))?;
        let mut bind = Bindings::new(req.nprocs);
        for (name, v) in &req.binds {
            let pos = prog
                .syms
                .iter()
                .position(|s| &s.name == name)
                .ok_or_else(|| format!("unknown symbol '{name}'"))?;
            bind.bind(ir::SymId(pos as u32), *v);
        }
        let baseline = fork_join(&prog, &bind);
        match req.plan {
            PlanKind::ForkJoin => Ok((
                explain_json(&prog, req.nprocs, &baseline, &baseline, &[]),
                false,
            )),
            PlanKind::Optimized => {
                let fme = self.fme.lock().unwrap().clone();
                let before = fme.stats();
                let (plan, decisions, _stats) =
                    optimize_explained_shared(&prog, &bind, OptimizeOptions::default(), &fme);
                let after = fme.stats();
                // Warm = every feasibility query hit an entry that
                // predates this request (no new misses). Within-request
                // hits on entries the same compile just created do not
                // count — a cold compile must read as cold.
                let warm =
                    after.feas_hits > before.feas_hits && after.feas_misses == before.feas_misses;
                Ok((
                    explain_json(&prog, req.nprocs, &plan, &baseline, &decisions),
                    warm,
                ))
            }
        }
    }

    /// Handle one admitted job end-to-end. Panics propagate to the
    /// worker loop's `catch_unwind` (fail-stop for the shard).
    fn handle_job(&self, job: Job, fault: Option<ServiceFault>) {
        match fault {
            Some(ServiceFault::Delay(d)) => std::thread::sleep(d),
            Some(ServiceFault::KillShard) => {
                panic!("chaos: shard {} killed mid-request", self.id)
            }
            // Transport faults do not apply at this hook.
            Some(ServiceFault::DropConnection | ServiceFault::CorruptSnapshot) | None => {}
        }
        let started = Instant::now();
        if started >= job.deadline {
            self.c.deadline_miss.fetch_add(1, Ordering::Relaxed);
            let _ = job.reply.send(Reply::Error(ErrorReply {
                id: job.req.id,
                code: ErrorCode::DeadlineExceeded,
                message: "deadline expired while queued".to_string(),
                retry_after_ms: Some(5),
            }));
            return;
        }
        match self.compile(&job.req) {
            Ok((explain, warm)) => {
                self.c.served.fetch_add(1, Ordering::Relaxed);
                if warm {
                    self.c.warm_hits.fetch_add(1, Ordering::Relaxed);
                }
                let _ = job.reply.send(Reply::Optimized(OptimizeReply {
                    id: job.req.id,
                    shard: self.id,
                    explain,
                    queue_us: started.duration_since(job.accepted).as_micros() as u64,
                    compile_us: started.elapsed().as_micros() as u64,
                    warm_hint: warm,
                }));
                self.after_serve();
            }
            Err(msg) => {
                self.c.failed.fetch_add(1, Ordering::Relaxed);
                let _ = job.reply.send(Reply::Error(ErrorReply {
                    id: job.req.id,
                    code: ErrorCode::BadRequest,
                    message: msg,
                    retry_after_ms: None,
                }));
            }
        }
    }

    /// Snapshot cadence bookkeeping + injected snapshot faults.
    fn after_serve(&self) {
        if self.cfg.snapshot_every == 0 || self.cfg.snapshot_dir.is_none() {
            return;
        }
        let since = self.since_snapshot.fetch_add(1, Ordering::Relaxed) + 1;
        if since < self.cfg.snapshot_every {
            return;
        }
        self.since_snapshot.store(0, Ordering::Relaxed);
        let snap_seq = self.snap_seq.fetch_add(1, Ordering::Relaxed);
        let fault = self
            .cfg
            .chaos
            .as_ref()
            .and_then(|c| c.at_snapshot(self.id, snap_seq));
        let Some(path) = self.snapshot_path() else {
            return;
        };
        match fault {
            Some(ServiceFault::Delay(d)) => std::thread::sleep(d),
            Some(ServiceFault::KillShard) => {
                // Die "mid-write": leave a garbage temp file behind (the
                // atomic protocol's torn-write residue) and crash. The
                // restarted worker must rejoin from the last complete
                // snapshot and the next writer must sweep the residue.
                let tmp = path.with_file_name(format!(
                    "{}.tmp.chaos",
                    path.file_name().and_then(|n| n.to_str()).unwrap_or("fme")
                ));
                if let Some(dir) = path.parent() {
                    let _ = std::fs::create_dir_all(dir);
                }
                let _ = std::fs::write(&tmp, b"torn mid-write by chaos");
                panic!("chaos: shard {} killed mid-snapshot", self.id);
            }
            _ => {}
        }
        if write_snapshot(&self.fme.lock().unwrap().clone(), &path).is_ok() {
            self.c.snapshots_written.fetch_add(1, Ordering::Relaxed);
            if matches!(fault, Some(ServiceFault::CorruptSnapshot)) {
                corrupt_file(&path);
            }
        }
    }
}

/// Flip one byte in the middle of `path` (the injected "disk
/// corruption" fault; the next load must reject and cold-start).
fn corrupt_file(path: &std::path::Path) {
    let Ok(mut bytes) = std::fs::read(path) else {
        return;
    };
    if bytes.is_empty() {
        return;
    }
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    let _ = std::fs::write(path, bytes);
}

/// The worker loop for one incarnation of a shard's thread: pop,
/// fault-check, handle under `catch_unwind`. A panic is fail-stop —
/// the thread exits and the supervisor restarts the shard.
fn worker_main(shard: Arc<Shard>) {
    loop {
        match shard.queue.pop_timeout(Duration::from_millis(100)) {
            Pop::Item(job) => {
                let seq = shard.req_seq.fetch_add(1, Ordering::Relaxed);
                let fault = shard
                    .cfg
                    .chaos
                    .as_ref()
                    .and_then(|c| c.at_request(shard.id, seq));
                let outcome = catch_unwind(AssertUnwindSafe(|| shard.handle_job(job, fault)));
                if outcome.is_err() {
                    // Fail-stop: count the panic and die. In-flight reply
                    // senders dropped during unwind; queued jobs survive in
                    // the shard-owned queue for the next incarnation.
                    shard.c.panics.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
            Pop::TimedOut => {}
            Pop::Closed => {
                // Graceful drain finished: persist and exit.
                let _ = shard.snapshot_now();
                return;
            }
        }
    }
}
