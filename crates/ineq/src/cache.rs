//! Canonicalization and memoization of FME queries.
//!
//! Communication analysis asks the same structural questions over and
//! over: statement pairs produced from structurally identical code (copy
//! chains, initialization loops, stencil sweeps) translate to `System`s
//! that differ only in which `VarId`s the pair-translation happened to
//! allocate. This module maps a `System` to a *canonical form* — sorted
//! constraints, gcd-normalized coefficients (already guaranteed by
//! normalization on `push`), and variables renamed to `(scan_rank,
//! ordinal)` — so isomorphic systems share one cache entry.
//!
//! Keys are exact structural values, not 64-bit digests: a hash collision
//! in a feasibility cache would silently flip a verdict, and "never
//! unsound" is the contract of this whole crate.
//!
//! The cached verdict is exactly what [`System::feasibility`] would
//! compute, because that scan re-sorts into the same canonical constraint
//! order before every elimination step and breaks every pivot tie by that
//! order; two systems with equal canonical forms therefore take identical
//! elimination paths. Cached and uncached runs are bitwise
//! indistinguishable (the differential suite in `tests/` holds this).

use crate::arith::Overflow;
use crate::rows::Rows;
use crate::system::{Feasibility, System};
use crate::var::{VarId, VarTable};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Fast non-cryptographic hasher (the rustc `FxHash` recurrence) for
/// memo keys. Canonical keys are long `i128` buffers; the default
/// SipHash costs enough per query to erase the memoization win on
/// small systems, and these tables never face adversarial keys.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
    fn write(&mut self, bytes: &[u8]) {
        // Integer slices (the canonical key buffers) arrive as one raw
        // byte slice; consume a word at a time, not a byte at a time.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut last = 0u64;
            for &b in rem {
                last = (last << 8) | b as u64;
            }
            self.add(last);
        }
    }
    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }
}

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The table-independent canonical form of a [`System`].
///
/// Two systems have equal canonical forms iff one can be renamed onto the
/// other by a bijection that preserves each variable's scan rank and the
/// relative id order within a rank — exactly the invariance under which
/// the guarded feasibility scan is deterministic.
///
/// The form is a single flat `i128` buffer (constraints sorted, each as
/// `[nterms << 8 | kind, constant, (rank << 32 | ordinal, coeff)...]`) so
/// key construction, hashing, and equality touch one contiguous
/// allocation — this sits on the hot path of every memoized query.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct CanonicalSystem {
    contradictory: bool,
    count: u32,
    flat: Vec<i128>,
}

impl CanonicalSystem {
    /// Number of constraints in the canonical form.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True if the form has no constraints.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Decompose into raw parts for the snapshot codec.
    pub(crate) fn parts(&self) -> (bool, u32, &[i128]) {
        (self.contradictory, self.count, &self.flat)
    }

    /// Reassemble from snapshot parts. The codec validates the buffer's
    /// structural integrity before calling this; a corrupted buffer
    /// that slips through yields a key that simply never matches a live
    /// query (wrong flat encoding), never an unsound verdict for a
    /// *different* system.
    pub(crate) fn from_parts(contradictory: bool, count: u32, flat: Vec<i128>) -> Self {
        CanonicalSystem {
            contradictory,
            count,
            flat,
        }
    }
}

/// The buffers a canonical key is built in. The caller reuses one across
/// queries, so a lookup allocates nothing; only a key that is inserted
/// is copied out.
#[derive(Default)]
pub(crate) struct KeyScratch {
    /// `rank << 32 | ordinal` per column of the rows being encoded.
    packed: Vec<i128>,
    /// The variable behind each ordinal.
    used: Vec<VarId>,
    /// Rows encoded in row order, before sorting.
    unsorted: Vec<i128>,
    /// `(start, len)` of each encoded row in `unsorted`.
    spans: Vec<(usize, usize)>,
    /// The key of the query under way.
    key: CanonicalSystem,
}

/// Number the variables that still occur in `rows`, in column order:
/// `rank << 32 | ordinal` per column into `packed` (meaningless for a
/// column of zeros, which no term names) and the variable behind each
/// ordinal into `used`.
fn ordinals(rows: &Rows, packed: &mut Vec<i128>, used: &mut Vec<VarId>) {
    packed.clear();
    packed.resize(rows.cols().len(), 0);
    for row in rows.iter() {
        for (seen, &k) in packed.iter_mut().zip(&row[1..]) {
            *seen |= (k != 0) as i128;
        }
    }
    used.clear();
    for (p, &(rank, v)) in packed.iter_mut().zip(rows.cols()) {
        if *p != 0 {
            *p = ((rank as i128) << 32) | used.len() as i128;
            used.push(v);
        }
    }
}

/// Encode `rows` into `out`, the flat canonical buffer, naming each
/// column by its entry of `packed` (from [`ordinals`]; ascending, so a
/// row's terms come out sorted); returns the row count.
fn encode_flat(
    rows: &Rows,
    packed: &[i128],
    (buf, spans): (&mut Vec<i128>, &mut Vec<(usize, usize)>),
    out: &mut Vec<i128>,
) -> u32 {
    buf.clear();
    spans.clear();
    for row in rows.iter() {
        let start = buf.len();
        buf.extend([row[0], row[row.len() - 1]]);
        for (&p, &k) in packed.iter().zip(&row[1..]) {
            if k != 0 {
                buf.extend([p, k]);
            }
        }
        let nterms = (buf.len() - start - 2) / 2;
        buf[start] |= (nterms as i128) << 8;
        spans.push((start, buf.len() - start));
    }
    spans.sort_unstable_by(|&(s1, l1), &(s2, l2)| buf[s1..s1 + l1].cmp(&buf[s2..s2 + l2]));
    out.clear();
    for &(s, l) in spans.iter() {
        out.extend_from_slice(&buf[s..s + l]);
    }
    spans.len() as u32
}

impl KeyScratch {
    /// Encode `rows` as the key of the query under way.
    fn encode(&mut self, rows: &Rows) -> &CanonicalSystem {
        ordinals(rows, &mut self.packed, &mut self.used);
        let key = &mut self.key;
        let scratch = (&mut self.unsorted, &mut self.spans);
        key.count = encode_flat(rows, &self.packed, scratch, &mut key.flat);
        key.contradictory = rows.is_contradictory();
        key
    }
}

/// Canonicalize `sys` as written (not reduced): returns the canonical
/// form plus the variable map (`map[ordinal]` is the original [`VarId`]
/// with that canonical number). The memo keys a query on the canonical
/// form of its *reduced* rows instead.
pub fn canonicalize(sys: &System, vt: &VarTable) -> (CanonicalSystem, Vec<VarId>) {
    let mut scratch = KeyScratch::default();
    let key = scratch.encode(&Rows::new(sys, vt)).clone();
    (key, scratch.used)
}

/// Snapshot of an [`FmeCache`]'s counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FmeCacheStats {
    /// Feasibility queries answered from the cache.
    pub feas_hits: u64,
    /// Feasibility queries that ran the full FME scan.
    pub feas_misses: u64,
    /// Always 0: there is no elimination memo any more. Kept because
    /// the benchmark's layer report reads `elim_misses`.
    pub elim_hits: u64,
    /// Always 0 (see `elim_hits`).
    pub elim_misses: u64,
    /// Scans that gave up (overflow / budget) and answered `Unknown`.
    pub unknown_verdicts: u64,
    /// Largest live constraint count any scan reached.
    pub peak_constraints: usize,
    /// Distinct canonical systems currently memoized.
    pub entries: usize,
    /// Nanoseconds spent building canonical keys (cache overhead).
    pub canon_ns: u64,
    /// Nanoseconds spent reducing and scanning the queries that missed.
    pub scan_ns: u64,
    /// Nanoseconds of scan work skipped by hits (each hit credits the
    /// cost its class's original scan paid).
    pub saved_ns: u64,
    /// Total nanoseconds spent inside cached feasibility queries.
    pub query_ns: u64,
    /// Feasibility memo entries evicted by the second-chance clock.
    pub feas_evictions: u64,
    /// Feasibility memo capacity (entries are evicted, not refused,
    /// once the table is full).
    pub feas_capacity: usize,
}

impl FmeCacheStats {
    /// Hit rate over all feasibility queries, in `[0, 1]`.
    pub fn feas_hit_rate(&self) -> f64 {
        let total = self.feas_hits + self.feas_misses;
        if total == 0 {
            0.0
        } else {
            self.feas_hits as f64 / total as f64
        }
    }
}

/// Default feasibility-memo capacity (entries; evicted beyond this).
pub const FEAS_MEMO_CAP: usize = 1 << 20;

/// One memoized feasibility verdict with its second-chance bit.
struct FeasSlot {
    f: Feasibility,
    cost: u64,
    referenced: bool,
}

/// The bounded feasibility memo: a hash map for lookups plus a clock
/// ring over the same (shared) keys for second-chance eviction. A hit
/// sets the entry's `referenced` bit; when the table is full, the clock
/// hand sweeps forward clearing bits and evicts the first entry it
/// finds unreferenced — so the working set of a long-lived compile
/// service survives one-off queries instead of the table silently
/// refusing new entries.
#[derive(Default)]
struct FeasTable {
    map: FxMap<std::sync::Arc<CanonicalSystem>, FeasSlot>,
    ring: Vec<std::sync::Arc<CanonicalSystem>>,
    hand: usize,
    cap: usize,
    evictions: u64,
}

impl FeasTable {
    fn with_capacity(cap: usize) -> Self {
        FeasTable {
            cap,
            ..Default::default()
        }
    }

    fn get(&mut self, key: &CanonicalSystem) -> Option<(Feasibility, u64)> {
        let slot = self.map.get_mut(key)?;
        slot.referenced = true;
        Some((slot.f, slot.cost))
    }

    /// Advance the clock hand to a victim slot: clear `referenced` bits
    /// as it sweeps, evict the first unreferenced entry. Terminates
    /// within two laps (the first lap clears every bit).
    fn evict_one(&mut self) -> usize {
        loop {
            self.hand = (self.hand + 1) % self.ring.len();
            let key = self.ring[self.hand].clone();
            let slot = self.map.get_mut(&*key).expect("clock ring key not in map");
            if slot.referenced {
                slot.referenced = false;
            } else {
                self.map.remove(&*key);
                self.evictions += 1;
                return self.hand;
            }
        }
    }

    /// Record a verdict; the key is copied only when it is new.
    fn insert(&mut self, key: &CanonicalSystem, f: Feasibility, cost: u64) {
        if self.cap == 0 {
            return;
        }
        if let Some(slot) = self.map.get_mut(key) {
            slot.f = f;
            slot.cost = cost;
            slot.referenced = true;
            return;
        }
        let key = std::sync::Arc::new(key.clone());
        if self.map.len() >= self.cap {
            let victim = self.evict_one();
            self.ring[victim] = key.clone();
        } else {
            self.ring.push(key.clone());
        }
        // A fresh entry enters referenced, buying one full clock lap
        // before it becomes an eviction candidate.
        self.map.insert(
            key,
            FeasSlot {
                f,
                cost,
                referenced: true,
            },
        );
    }
}

/// A shared, thread-safe memo for FME feasibility queries, keyed on the
/// [`CanonicalSystem`] of each query's reduced rows.
///
/// Counters are atomics so threads sharing one cache can record hits
/// without serializing. One analysis pass runs on one thread, so for a
/// cache no other thread touches the counts repeat exactly from run to
/// run; they differ between configurations (and the `*_ns` fields
/// between runs), which is why they surface through stdout/bench
/// telemetry and never through the byte-stable explain document.
pub struct FmeCache {
    feas: Mutex<FeasTable>,
    feas_hits: AtomicU64,
    feas_misses: AtomicU64,
    unknown_verdicts: AtomicU64,
    peak_constraints: AtomicUsize,
    canon_ns: AtomicU64,
    scan_ns: AtomicU64,
    saved_ns: AtomicU64,
    query_ns: AtomicU64,
}

impl Default for FmeCache {
    fn default() -> Self {
        Self::with_feas_capacity(FEAS_MEMO_CAP)
    }
}

impl FmeCache {
    /// An empty cache with the default feasibility-memo capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache whose feasibility memo holds at most `cap`
    /// entries, evicting second-chance victims beyond that. `cap == 0`
    /// disables feasibility memoization entirely (every query scans).
    pub fn with_feas_capacity(cap: usize) -> Self {
        FmeCache {
            feas: Mutex::new(FeasTable::with_capacity(cap)),
            feas_hits: AtomicU64::new(0),
            feas_misses: AtomicU64::new(0),
            unknown_verdicts: AtomicU64::new(0),
            peak_constraints: AtomicUsize::new(0),
            canon_ns: AtomicU64::new(0),
            scan_ns: AtomicU64::new(0),
            saved_ns: AtomicU64::new(0),
            query_ns: AtomicU64::new(0),
        }
    }

    /// Clone out every memoized feasibility entry `(canonical form,
    /// verdict, original scan cost in ns)` — the payload a persistent
    /// snapshot carries across process restarts.
    pub fn export_feas(&self) -> Vec<(CanonicalSystem, Feasibility, u64)> {
        let memo = self.feas.lock().unwrap();
        memo.ring
            .iter()
            .filter_map(|k| {
                let slot = memo.map.get(k)?;
                Some(((**k).clone(), slot.f, slot.cost))
            })
            .collect()
    }

    /// Seed the feasibility memo from previously exported entries (a
    /// restarted shard rejoining from its persisted snapshot). Entries
    /// beyond capacity evict as usual; preloading counts toward neither
    /// hits nor misses.
    pub fn preload_feas(
        &self,
        entries: impl IntoIterator<Item = (CanonicalSystem, Feasibility, u64)>,
    ) {
        let mut memo = self.feas.lock().unwrap();
        for (key, f, cost) in entries {
            memo.insert(&key, f, cost);
        }
    }

    /// Memoized [`System::feasibility`]. Answers from the cache when a
    /// system with the same reduced canonical form has been scanned
    /// before; otherwise runs the guarded scan and records the verdict.
    pub fn feasibility(&self, sys: &System, vt: &VarTable) -> Feasibility {
        let mut rows = Rows::new(sys, vt);
        if rows.is_contradictory() {
            return Feasibility::Infeasible;
        }
        let (raw_len, reduce) = (rows.len(), |rows: &mut Rows| rows.reduce(&[]));
        self.feasibility_in(&mut rows, raw_len, reduce, &mut KeyScratch::default())
    }

    /// [`FmeCache::feasibility`] of a query that is not contradictory as
    /// written and has `raw_len` rows there, in rows the caller keeps,
    /// with the key built in `keys`. `reduce` fills `rows` with the
    /// query's reduced form: what [`Rows::reduce`] with nothing kept
    /// makes of it (it may, say, replay a recorded propagation,
    /// [`Rows::replay_units`]). The rows are left scanned.
    ///
    /// The key is the reduced form's, the one thing the verdict is a
    /// function of; the rows as written are never encoded. A reduction
    /// that overflows has no reduced form: it answers `Unknown`, counted
    /// as a miss, and is not memoized.
    pub(crate) fn feasibility_in(
        &self,
        rows: &mut Rows,
        raw_len: usize,
        reduce: impl FnOnce(&mut Rows) -> Result<(), Overflow>,
        keys: &mut KeyScratch,
    ) -> Feasibility {
        let ns = |from: Instant, to: Instant| (to - from).as_nanos() as u64;
        let t0 = Instant::now();
        let reduced = reduce(rows);
        let t1 = Instant::now();
        if reduced.is_err() {
            self.feas_misses.fetch_add(1, Ordering::Relaxed);
            self.unknown_verdicts.fetch_add(1, Ordering::Relaxed);
            self.peak_constraints.fetch_max(raw_len, Ordering::Relaxed);
            self.scan_ns.fetch_add(ns(t0, t1), Ordering::Relaxed);
            self.query_ns.fetch_add(ns(t0, t1), Ordering::Relaxed);
            return Feasibility::Unknown;
        }
        let key = keys.encode(rows);
        let t2 = Instant::now();
        self.canon_ns.fetch_add(ns(t1, t2), Ordering::Relaxed);
        let hit = self.feas.lock().unwrap().get(key);
        if let Some((f, cost)) = hit {
            self.feas_hits.fetch_add(1, Ordering::Relaxed);
            self.saved_ns.fetch_add(cost, Ordering::Relaxed);
            self.query_ns
                .fetch_add(ns(t0, Instant::now()), Ordering::Relaxed);
            return f;
        }
        self.feas_misses.fetch_add(1, Ordering::Relaxed);
        let (f, loop_peak) = rows.scan();
        let t3 = Instant::now();
        // The recorded cost is the loop's alone: what a later hit saves.
        let cost = ns(t2, t3);
        self.scan_ns.fetch_add(ns(t0, t1) + cost, Ordering::Relaxed);
        self.query_ns.fetch_add(ns(t0, t3), Ordering::Relaxed);
        self.peak_constraints
            .fetch_max(raw_len.max(loop_peak), Ordering::Relaxed);
        if f == Feasibility::Unknown {
            self.unknown_verdicts.fetch_add(1, Ordering::Relaxed);
        }
        self.feas.lock().unwrap().insert(key, f, cost);
        f
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> FmeCacheStats {
        let (entries, feas_evictions, feas_capacity) = {
            let memo = self.feas.lock().unwrap();
            (memo.map.len(), memo.evictions, memo.cap)
        };
        FmeCacheStats {
            feas_hits: self.feas_hits.load(Ordering::Relaxed),
            feas_misses: self.feas_misses.load(Ordering::Relaxed),
            elim_hits: 0,
            elim_misses: 0,
            unknown_verdicts: self.unknown_verdicts.load(Ordering::Relaxed),
            peak_constraints: self.peak_constraints.load(Ordering::Relaxed),
            entries,
            canon_ns: self.canon_ns.load(Ordering::Relaxed),
            scan_ns: self.scan_ns.load(Ordering::Relaxed),
            saved_ns: self.saved_ns.load(Ordering::Relaxed),
            query_ns: self.query_ns.load(Ordering::Relaxed),
            feas_evictions,
            feas_capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linexpr::LinExpr;
    use crate::var::VarKind;

    fn chain(vt: &mut VarTable, tag: &str) -> System {
        // 0 <= i <= 5, j == i + 10, j <= 12  (feasible)
        let i = vt.fresh(format!("i{tag}"), VarKind::LoopIndex);
        let j = vt.fresh(format!("j{tag}"), VarKind::LoopIndex);
        let mut s = System::new();
        s.add_range(LinExpr::var(i), LinExpr::constant(0), LinExpr::constant(5));
        s.add_eq(LinExpr::var(j) - LinExpr::var(i) - LinExpr::constant(10));
        s.add_ge(LinExpr::constant(12) - LinExpr::var(j));
        s
    }

    #[test]
    fn isomorphic_systems_share_a_canonical_form() {
        let mut vt = VarTable::new();
        let a = chain(&mut vt, "a");
        let b = chain(&mut vt, "b");
        let (ka, ma) = canonicalize(&a, &vt);
        let (kb, mb) = canonicalize(&b, &vt);
        assert_eq!(ka, kb);
        assert_ne!(ma, mb, "distinct vars, same shape");
    }

    #[test]
    fn different_ranks_do_not_collide() {
        let mut vt = VarTable::new();
        let i = vt.fresh("i", VarKind::LoopIndex);
        let p = vt.fresh("p", VarKind::Processor);
        let mut a = System::new();
        a.add_ge(LinExpr::var(i) - LinExpr::constant(1));
        let mut b = System::new();
        b.add_ge(LinExpr::var(p) - LinExpr::constant(1));
        assert_ne!(canonicalize(&a, &vt).0, canonicalize(&b, &vt).0);
    }

    #[test]
    fn cache_hits_on_isomorphic_queries_and_agrees_with_direct_scan() {
        let mut vt = VarTable::new();
        let a = chain(&mut vt, "a");
        let b = chain(&mut vt, "b");
        let cache = FmeCache::new();
        let fa = cache.feasibility(&a, &vt);
        let fb = cache.feasibility(&b, &vt);
        assert_eq!(fa, a.feasibility(&vt));
        assert_eq!(fb, b.feasibility(&vt));
        assert_eq!(fa, fb);
        let st = cache.stats();
        assert_eq!(st.feas_misses, 1);
        assert_eq!(st.feas_hits, 1);
        // The single scan memoizes its reduced form alone.
        assert_eq!(st.entries, 1);
        assert!(st.feas_hit_rate() > 0.49 && st.feas_hit_rate() < 0.51);
    }

    /// Distinct (non-isomorphic) systems to fill the memo with: each
    /// tag gets a different constant bound, which survives
    /// canonicalization.
    fn distinct_system(vt: &mut VarTable, tag: i128) -> System {
        let i = vt.fresh(format!("e{tag}"), VarKind::LoopIndex);
        let mut s = System::new();
        s.add_range(
            LinExpr::var(i),
            LinExpr::constant(0),
            LinExpr::constant(100 + tag),
        );
        s
    }

    #[test]
    fn capacity_is_enforced_by_eviction_not_refusal() {
        let mut vt = VarTable::new();
        let cache = FmeCache::with_feas_capacity(8);
        for t in 0..40 {
            cache.feasibility(&distinct_system(&mut vt, t), &vt);
        }
        let st = cache.stats();
        assert!(st.entries <= 8, "capacity exceeded: {}", st.entries);
        assert_eq!(st.feas_capacity, 8);
        assert!(st.feas_evictions > 0, "nothing was evicted: {st:?}");
        // Entries keep being admitted after the table first filled: the
        // *latest* system must be resident (a refuse-at-cap policy
        // would have dropped it).
        let last = distinct_system(&mut vt, 39);
        let hits0 = cache.stats().feas_hits;
        cache.feasibility(&last, &vt);
        assert_eq!(
            cache.stats().feas_hits,
            hits0 + 1,
            "latest entry not resident"
        );
    }

    #[test]
    fn second_chance_protects_the_hot_entry() {
        let mut vt = VarTable::new();
        let cache = FmeCache::with_feas_capacity(4);
        let hot = distinct_system(&mut vt, 1000);
        cache.feasibility(&hot, &vt); // miss: resident + referenced
        for t in 0..32 {
            cache.feasibility(&distinct_system(&mut vt, t), &vt);
            // Re-touch the hot entry so its referenced bit survives
            // every clock sweep.
            cache.feasibility(&hot, &vt);
        }
        let st = cache.stats();
        assert!(st.feas_evictions >= 28, "{st:?}");
        let hits0 = st.feas_hits;
        cache.feasibility(&hot, &vt);
        assert_eq!(
            cache.stats().feas_hits,
            hits0 + 1,
            "hot entry was evicted despite constant touches"
        );
    }

    #[test]
    fn zero_capacity_disables_memoization_without_breaking_queries() {
        let mut vt = VarTable::new();
        let cache = FmeCache::with_feas_capacity(0);
        let s = distinct_system(&mut vt, 7);
        let direct = s.feasibility(&vt);
        assert_eq!(cache.feasibility(&s, &vt), direct);
        assert_eq!(cache.feasibility(&s, &vt), direct);
        let st = cache.stats();
        assert_eq!(st.feas_hits, 0);
        assert_eq!(st.feas_misses, 2);
        assert_eq!(st.entries, 0);
    }

    #[test]
    fn export_and_preload_round_trip_preserves_verdicts() {
        let mut vt = VarTable::new();
        let cache = FmeCache::new();
        let a = chain(&mut vt, "a");
        let fa = cache.feasibility(&a, &vt);
        let entries = cache.export_feas();
        assert!(!entries.is_empty());
        let fresh = FmeCache::new();
        fresh.preload_feas(entries);
        assert_eq!(fresh.stats().entries, cache.stats().entries);
        assert_eq!(fresh.feasibility(&a, &vt), fa);
        let st = fresh.stats();
        assert_eq!(st.feas_hits, 1, "preloaded verdict must hit: {st:?}");
        assert_eq!(st.feas_misses, 0);
    }

    #[test]
    fn unknown_verdicts_are_counted() {
        let mut vt = VarTable::new();
        let vs: Vec<VarId> = (0..6)
            .map(|k| vt.fresh(format!("x{k}"), VarKind::LoopIndex))
            .collect();
        let big: Vec<i128> = (0..6).map(|k| (1i128 << 64) + 2 * k + 1).collect();
        let mut s = System::new();
        for w in 0..5 {
            s.add_ge(LinExpr::term(vs[w], big[w]) - LinExpr::term(vs[w + 1], big[w + 1]));
            s.add_ge(
                LinExpr::term(vs[w + 1], big[w + 1] + 2) - LinExpr::term(vs[w], big[w] + 2)
                    + LinExpr::constant(1),
            );
        }
        let cache = FmeCache::new();
        assert_eq!(cache.feasibility(&s, &vt), Feasibility::Unknown);
        assert_eq!(cache.stats().unknown_verdicts, 1);
        // Cached replay gives the same (conservative) answer.
        assert_eq!(cache.feasibility(&s, &vt), Feasibility::Unknown);
        assert_eq!(cache.stats().feas_hits, 1);
    }
}
