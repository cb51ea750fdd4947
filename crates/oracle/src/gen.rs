//! Seeded random generator of IR programs with cross-processor
//! dependences.
//!
//! Every generated program is a *valid* input to the optimizer: `DOALL`
//! loops carry no loop-level dependence (the generator never writes and
//! reads the same array at misaligned subscripts inside one parallel
//! loop), and all subscripts and guards are affine. Programs
//! self-initialize — their first phases fill every array they later
//! read — so no external setup is needed before execution.
//!
//! Six shapes cover the synchronization patterns the optimizer handles:
//! aligned chains (barrier elimination), stencils (neighbor flags),
//! row-sequential sweeps (pipelining), pivot/master broadcasts (counter
//! synchronization), privatizable work storage (replicated phases), and
//! guarded serial code. Shape and parameters are drawn from a
//! `xoshiro`-seeded RNG, so `generate(seed)` is reproducible across
//! runs and platforms. Five more shapes aim at the producer, collector,
//! reduction and covering rules and are only drawn on request
//! ([`generate_shape`]), so the programs `generate` returns for a seed
//! never change: broadcasts whose one producer is named from the
//! reader's side, a broadcast out of a loop nested inside the sync
//! site's scope, where no producer may be named at all, gathers whose
//! one waiting processor is named from the reader's side, chains of
//! reductions into one scalar, and an initialisation broadcast into a
//! loop whose own syncs serve every trip but the first.

use ir::build::*;
use ir::{Affine, LoopId, Program, RedOp, SymId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The structural family of a generated program.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Shape {
    /// Chain of aligned parallel loops (all interior barriers
    /// eliminable), optionally capped by a max-reduction.
    AlignedChain,
    /// Jacobi-style stencil time sweep (neighbor-flag territory).
    Stencil,
    /// Row-sequential Gauss-Seidel sweep (wavefront pipeline).
    Pipeline,
    /// Pivot-normalization update with a unique producer per step
    /// (counter synchronization), plus guarded serial-ish code.
    Broadcast,
    /// Per-step gather into a work vector (privatizable → replicated).
    PrivateGather,
    /// Master-written scalar consumed by distributed loops, with a
    /// guarded serial statement in the time loop.
    GuardedSerial,
    /// `lu`/`workvec`-like elimination steps over block, cyclic or
    /// block-cyclic rows or columns: every owner writes, the next step
    /// reads one pivot row or column (sink-anchored counter). Sizes are
    /// rarely a multiple of the processor count and trip counts include
    /// 0, 1, 2 and one past the last pivot. Not drawn by [`generate`].
    SinkBroadcast,
    /// Rows rewritten one owner at a time by a sequential loop *inside*
    /// the time loop, then read transposed by every processor: the
    /// writer's owner subscript names a loop that has already finished
    /// at the sync site, so the barrier has to stay. Not drawn by
    /// [`generate`].
    NestedBroadcast,
    /// Everybody reads one owner's element or row, and that owner —
    /// like every owner — then overwrites it, between the phases or
    /// across the loop bottom (source-anchored collector): block,
    /// cyclic or block-cyclic, the subscript a constant or a function
    /// of the step, sizes off the processor count, trip counts from 0.
    /// Not drawn by [`generate`].
    GatherAnti,
    /// Reductions into one shared scalar back to back: one operator
    /// (the flushes commute) or two, a use of the running value or a
    /// master-guarded reduction in between. Not drawn by [`generate`].
    ReduceChain,
    /// An initialisation loop, then a sequential loop whose gather
    /// phase has every processor read row or element `k` of what every
    /// owner rewrites before the loop bottom: the slot in front of the
    /// loop owes its first trip at most. Block, cyclic or block-cyclic;
    /// lower bound 0, 1 or a symbol; trip counts from 0; the gather
    /// first in the body or behind a sync that does, or does not, order
    /// the same pairs; alone, under a time loop, or inside a repeat
    /// loop of its own. Not drawn by [`generate`].
    InitBroadcast,
}

/// The shapes [`generate`] draws from.
const SHAPES: [Shape; 6] = [
    Shape::AlignedChain,
    Shape::Stencil,
    Shape::Pipeline,
    Shape::Broadcast,
    Shape::PrivateGather,
    Shape::GuardedSerial,
];

impl Shape {
    /// Every shape, the on-request ones last.
    pub const ALL: [Shape; 11] = [
        Shape::AlignedChain,
        Shape::Stencil,
        Shape::Pipeline,
        Shape::Broadcast,
        Shape::PrivateGather,
        Shape::GuardedSerial,
        Shape::SinkBroadcast,
        Shape::NestedBroadcast,
        Shape::GatherAnti,
        Shape::ReduceChain,
        Shape::InitBroadcast,
    ];

    /// Command-line name (`beoracle fuzz --shapes`).
    pub fn name(self) -> &'static str {
        match self {
            Shape::AlignedChain => "aligned-chain",
            Shape::Stencil => "stencil",
            Shape::Pipeline => "pipeline",
            Shape::Broadcast => "broadcast",
            Shape::PrivateGather => "private-gather",
            Shape::GuardedSerial => "guarded-serial",
            Shape::SinkBroadcast => "sink-broadcast",
            Shape::NestedBroadcast => "nested-broadcast",
            Shape::GatherAnti => "gather-anti",
            Shape::ReduceChain => "reduce-chain",
            Shape::InitBroadcast => "init-broadcast",
        }
    }
}

/// A generated program plus the concrete sizes it was built for.
pub struct GenProgram {
    /// The program.
    pub prog: Program,
    /// Concrete values for each symbolic constant.
    pub values: Vec<(SymId, i64)>,
    /// The seed it was generated from.
    pub seed: u64,
    /// The structural family.
    pub shape: Shape,
}

impl GenProgram {
    /// Bindings for `nprocs` processors with this program's sizes.
    pub fn bindings(&self, nprocs: i64) -> analysis::Bindings {
        let mut b = analysis::Bindings::new(nprocs);
        for &(s, v) in &self.values {
            b.bind(s, v);
        }
        b
    }
}

/// Small random coefficient in `(0, 2]` with an exact binary
/// representation (keeps arithmetic reproducible across evaluation
/// orders that don't reassociate).
fn coeff(rng: &mut StdRng) -> f64 {
    rng.gen_range(1..=16) as f64 * 0.125
}

/// Generate one program from a seed, its shape drawn from the classic
/// six.
pub fn generate(seed: u64) -> GenProgram {
    let mut rng = StdRng::seed_from_u64(seed);
    let shape = SHAPES[rng.gen_range(0..SHAPES.len())];
    build(shape, seed, &mut rng)
}

/// Generate one program of the given shape from a seed.
pub fn generate_shape(shape: Shape, seed: u64) -> GenProgram {
    build(shape, seed, &mut StdRng::seed_from_u64(seed))
}

fn build(shape: Shape, seed: u64, rng: &mut StdRng) -> GenProgram {
    let (prog, values) = match shape {
        Shape::AlignedChain => aligned_chain(rng),
        Shape::Stencil => stencil(rng),
        Shape::Pipeline => pipeline(rng),
        Shape::Broadcast => broadcast(rng),
        Shape::PrivateGather => private_gather(rng),
        Shape::GuardedSerial => guarded_serial(rng),
        Shape::SinkBroadcast => sink_broadcast(rng),
        Shape::NestedBroadcast => nested_broadcast(rng),
        Shape::GatherAnti => gather_anti(rng),
        Shape::ReduceChain => reduce_chain(rng),
        Shape::InitBroadcast => init_broadcast(rng),
    };
    GenProgram {
        prog,
        values,
        seed,
        shape,
    }
}

/// Chain of `k` aligned parallel loops over block- or cyclic-
/// distributed arrays; every loop reads the previous arrays at the same
/// subscript it writes, so all interior barriers are eliminable. A
/// max-reduction tail (order-independent, hence exact under any
/// interleaving) is appended half the time.
fn aligned_chain(rng: &mut StdRng) -> (Program, Vec<(SymId, i64)>) {
    let nv = rng.gen_range(16..=40);
    let k = rng.gen_range(2..=4usize);
    let cyclic = rng.gen_bool(0.3);
    let mut pb = ProgramBuilder::new("gen_aligned_chain");
    let n = pb.sym("n");
    let dist = || if cyclic { dist_cyclic() } else { dist_block() };
    let arrays: Vec<_> = (0..=k)
        .map(|j| pb.array(format!("A{j}"), &[sym(n)], dist()))
        .collect();

    let c0 = rng.gen_range(1..=5);
    let i0 = pb.begin_par("i0", con(0), sym(n) - 1);
    pb.assign(elem(arrays[0], [idx(i0)]), ival(idx(i0) * c0 + 1).sin());
    pb.end();

    for j in 1..=k {
        let i = pb.begin_par(&format!("i{j}"), con(0), sym(n) - 1);
        let mut rhs = ex(coeff(rng)) * arr(arrays[j - 1], [idx(i)]);
        if j >= 2 && rng.gen_bool(0.5) {
            rhs = rhs + ex(coeff(rng)) * arr(arrays[j - 2], [idx(i)]);
        }
        pb.assign(elem(arrays[j], [idx(i)]), rhs);
        pb.end();
    }

    if rng.gen_bool(0.5) {
        let s = pb.scalar("m", 0.0);
        let i = pb.begin_par("ired", con(0), sym(n) - 1);
        pb.reduce(svar(s), RedOp::Max, arr(arrays[k], [idx(i)]));
        pb.end();
    }
    (pb.finish(), vec![(n, nv)])
}

/// Jacobi stencil with a random radius: a time loop around a relax
/// phase reading `A` at `i ± d` into `B`, and a copy-back phase. The
/// carried cross-block dependences make neighbor flags (block
/// distribution) or barriers (cyclic) necessary between phases.
fn stencil(rng: &mut StdRng) -> (Program, Vec<(SymId, i64)>) {
    let nv = rng.gen_range(16..=40);
    let tv = rng.gen_range(2..=4);
    let d = rng.gen_range(1..=2i64);
    let cyclic = rng.gen_bool(0.25);
    let mut pb = ProgramBuilder::new("gen_stencil");
    let n = pb.sym("n");
    let t = pb.sym("tmax");
    let dist = || if cyclic { dist_cyclic() } else { dist_block() };
    let a = pb.array("A", &[sym(n)], dist());
    let b = pb.array("B", &[sym(n)], dist());

    let c0 = rng.gen_range(1..=7);
    let i0 = pb.begin_par("i0", con(0), sym(n) - 1);
    pb.assign(elem(a, [idx(i0)]), ival(idx(i0) * c0 + 2).sin());
    pb.end();

    let (cl, cr, cc) = (coeff(rng), coeff(rng), coeff(rng));
    let _tl = pb.begin_seq("t", con(0), sym(t) - 1);
    let i = pb.begin_par("i", con(d), sym(n) - 1 - d);
    let mut rhs = ex(cl) * arr(a, [idx(i) - d]) + ex(cr) * arr(a, [idx(i) + d]);
    if rng.gen_bool(0.5) {
        rhs = rhs + ex(cc) * arr(a, [idx(i)]);
    }
    pb.assign(elem(b, [idx(i)]), rhs);
    pb.end();
    let j = pb.begin_par("j", con(d), sym(n) - 1 - d);
    pb.assign(elem(a, [idx(j)]), ex(coeff(rng)) * arr(b, [idx(j)]));
    pb.end();
    pb.end(); // t
    (pb.finish(), vec![(n, nv), (t, tv)])
}

/// Gauss-Seidel-style sweep: rows updated sequentially, columns in
/// parallel — each row phase belongs to one block owner, and the time
/// loop pipelines across processors with neighbor flags.
fn pipeline(rng: &mut StdRng) -> (Program, Vec<(SymId, i64)>) {
    let nv = rng.gen_range(8..=14);
    let tv = rng.gen_range(2..=3);
    let mut pb = ProgramBuilder::new("gen_pipeline");
    let n = pb.sym("n");
    let t = pb.sym("tmax");
    let x = pb.array("X", &[sym(n), sym(n)], dist_block());

    let c0 = rng.gen_range(1..=23);
    let i0 = pb.begin_par("i0", con(0), sym(n) - 1);
    let j0 = pb.begin_seq("j0", con(0), sym(n) - 1);
    pb.assign(
        elem(x, [idx(i0), idx(j0)]),
        ival(idx(i0) * c0 + idx(j0)).sin(),
    );
    pb.end();
    pb.end();

    let (cu, cd, cs) = (coeff(rng), coeff(rng), coeff(rng));
    let _tl = pb.begin_seq("t", con(0), sym(t) - 1);
    let i = pb.begin_seq("i", con(1), sym(n) - 2);
    let j = pb.begin_par("j", con(1), sym(n) - 2);
    pb.assign(
        elem(x, [idx(i), idx(j)]),
        ex(0.25)
            * (ex(cu) * arr(x, [idx(i) - 1, idx(j)])
                + ex(cd) * arr(x, [idx(i) + 1, idx(j)])
                + ex(cs) * arr(x, [idx(i), idx(j)])),
    );
    pb.end();
    pb.end();
    pb.end(); // t
    (pb.finish(), vec![(n, nv), (t, tv)])
}

/// LU-style pivot broadcast: at step `k` the owner of column `k`
/// normalizes it against the pivot `A(k,k)` and every processor's
/// update phase consumes it — a unique producer per step, the counter-
/// synchronization pattern. The diagonal is made dominant at
/// initialization so the divisions stay well-conditioned.
fn broadcast(rng: &mut StdRng) -> (Program, Vec<(SymId, i64)>) {
    let nv = rng.gen_range(8..=12);
    let mut pb = ProgramBuilder::new("gen_broadcast");
    let n = pb.sym("n");
    let a = pb.array("A", &[sym(n), sym(n)], dist_cyclic());

    let c0 = rng.gen_range(1..=4);
    let diag = 8.0 + coeff(rng);
    let i0 = pb.begin_par("i0", con(0), sym(n) - 1);
    let j0 = pb.begin_seq("j0", con(0), sym(n) - 1);
    pb.assign(
        elem(a, [idx(i0), idx(j0)]),
        ex(0.25) * ival(idx(i0) + idx(j0) * c0).sin(),
    );
    pb.begin_guard(vec![eq0(idx(i0) - idx(j0))]);
    pb.assign(elem(a, [idx(i0), idx(j0)]), ex(diag) + ival(idx(i0)).sin());
    pb.end();
    pb.end();
    pb.end();

    let k = pb.begin_seq("k", con(0), sym(n) - 2);
    let i1 = pb.begin_par("i1", con(1), sym(n) - 1);
    pb.begin_guard(vec![ge0(idx(i1) - idx(k) - 1)]);
    pb.assign(
        elem(a, [idx(i1), idx(k)]),
        arr(a, [idx(i1), idx(k)]) / arr(a, [idx(k), idx(k)]),
    );
    pb.end();
    pb.end();
    let j2 = pb.begin_par("j2", con(1), sym(n) - 1);
    let i2 = pb.begin_seq("i2", con(1), sym(n) - 1);
    pb.begin_guard(vec![ge0(idx(j2) - idx(k) - 1), ge0(idx(i2) - idx(k) - 1)]);
    pb.assign(
        elem(a, [idx(i2), idx(j2)]),
        arr(a, [idx(i2), idx(j2)]) - arr(a, [idx(i2), idx(k)]) * arr(a, [idx(k), idx(j2)]),
    );
    pb.end();
    pb.end();
    pb.end();
    pb.end(); // k
    (pb.finish(), vec![(n, nv)])
}

/// Per-step gather into a work vector followed by a guarded rank-1-ish
/// update. The vector is privatizable (gather replicated, barrier
/// disappears) or shared replicated (barrier stays) at random — both
/// are valid programs with very different schedules.
fn private_gather(rng: &mut StdRng) -> (Program, Vec<(SymId, i64)>) {
    let nv = rng.gen_range(10..=16);
    let private = rng.gen_bool(0.6);
    let mut pb = ProgramBuilder::new("gen_private_gather");
    let n = pb.sym("n");
    let a = pb.array("A", &[sym(n), sym(n)], dist_block());
    let d = if private {
        pb.private_array("D", &[sym(n)])
    } else {
        pb.array("D", &[sym(n)], dist_repl())
    };

    let c0 = rng.gen_range(1..=5);
    let i0 = pb.begin_par("i0", con(0), sym(n) - 1);
    let j0 = pb.begin_seq("j0", con(0), sym(n) - 1);
    pb.assign(
        elem(a, [idx(i0), idx(j0)]),
        ival(idx(i0) * c0 + idx(j0)).sin(),
    );
    pb.end();
    pb.end();

    let (cg, cu, cv) = (coeff(rng), coeff(rng), 0.0625 * coeff(rng));
    let k = pb.begin_seq("k", con(0), sym(n) - 2);
    let j1 = pb.begin_par("j1", con(0), sym(n) - 1);
    pb.assign(elem(d, [idx(j1)]), arr(a, [idx(k), idx(j1)]) * ex(cg));
    pb.end();
    let i2 = pb.begin_par("i2", con(0), sym(n) - 1);
    let j2 = pb.begin_seq("j2", con(0), sym(n) - 1);
    pb.begin_guard(vec![ge0(idx(i2) - idx(k) - 1)]);
    pb.assign(
        elem(a, [idx(i2), idx(j2)]),
        arr(a, [idx(i2), idx(j2)]) * ex(cu) + arr(d, [idx(i2)]) * arr(d, [idx(j2)]) * ex(cv),
    );
    pb.end();
    pb.end();
    pb.end();
    pb.end(); // k
    (pb.finish(), vec![(n, nv)])
}

/// Master-written scalar consumed by a distributed loop inside a time
/// loop, plus a guarded serial statement poking one array cell at a
/// specific step: serial code, broadcast of a scalar, and a
/// read-back dependence from the parallel phases into the master.
fn guarded_serial(rng: &mut StdRng) -> (Program, Vec<(SymId, i64)>) {
    let nv = rng.gen_range(12..=32);
    let mv = rng.gen_range(2..=4);
    let mut pb = ProgramBuilder::new("gen_guarded_serial");
    let n = pb.sym("n");
    let m = pb.sym("m");
    let a = pb.array("A", &[sym(n)], dist_block());
    let b = pb.array("B", &[sym(n)], dist_block());
    let s = pb.scalar("s", 0.0);

    let c0 = rng.gen_range(1..=6);
    let i0 = pb.begin_par("i0", con(0), sym(n) - 1);
    pb.assign(elem(a, [idx(i0)]), ival(idx(i0) * c0 + 3).sin());
    pb.assign(elem(b, [idx(i0)]), ival(idx(i0) + 1).sin());
    pb.end();

    let (cb, cs2) = (coeff(rng), coeff(rng));
    let poke = rng.gen_range(0..mv);
    let k = pb.begin_seq("k", con(0), sym(m) - 1);
    // Master reads the front of A (written by the previous step's
    // parallel phase) into the broadcast scalar.
    pb.assign(svar(s), arr(a, [con(0)]) * ex(coeff(rng)));
    // Guarded serial statement: at one specific step the master also
    // patches a cell of B directly.
    pb.begin_guard(vec![eq0(idx(k) - poke)]);
    pb.assign(elem(b, [con(1)]), ex(2.0) + sca(s));
    pb.end();
    let i = pb.begin_par("i", con(0), sym(n) - 1);
    pb.assign(
        elem(b, [idx(i)]),
        arr(b, [idx(i)]) * ex(cb) + sca(s) * arr(a, [idx(i)]) * ex(0.125),
    );
    pb.end();
    let j = pb.begin_par("j", con(0), sym(n) - 1);
    pb.assign(elem(a, [idx(j)]), arr(b, [idx(j)]) * ex(cs2));
    pb.end();
    pb.end(); // k
    (pb.finish(), vec![(n, nv), (m, mv)])
}

/// Block, cyclic or block-cyclic distribution of dimension `dim`, at
/// random.
fn any_dist(rng: &mut StdRng, dim: usize) -> DistSpec {
    match rng.gen_range(0..3) {
        0 => dist_block_dim(dim),
        1 => dist_cyclic_dim(dim),
        _ => dist_block_cyclic_dim(dim, rng.gen_range(2..=3)),
    }
}

/// Elimination steps whose loop-bottom dependence has every owner as a
/// writer and one owner as the source of all that is read remotely: the
/// `lu` form (columns distributed, the update reads pivot column `k`)
/// or the `workvec` form (rows distributed, a replicated gather reads
/// pivot row `k`). The step count is its own symbol so it can be 0, 1,
/// 2 or `n` — one past the last pivot, where the producer named at the
/// last bottom owns a row or column outside the array.
fn sink_broadcast(rng: &mut StdRng) -> (Program, Vec<(SymId, i64)>) {
    let nv = rng.gen_range(9..=15);
    let steps = if rng.gen_bool(0.4) {
        rng.gen_range(0..=2)
    } else {
        rng.gen_range(3..=nv)
    };
    let columns = rng.gen_bool(0.5);
    let mut pb = ProgramBuilder::new("gen_sink_broadcast");
    let n = pb.sym("n");
    let m = pb.sym("steps");
    let a = pb.array("A", &[sym(n), sym(n)], any_dist(rng, columns as usize));

    let c0 = rng.gen_range(1..=4);
    let diag = 8.0 + coeff(rng);
    let i0 = pb.begin_par("i0", con(0), sym(n) - 1);
    let j0 = pb.begin_seq("j0", con(0), sym(n) - 1);
    let (row, col) = if columns { (j0, i0) } else { (i0, j0) };
    pb.assign(
        elem(a, [idx(row), idx(col)]),
        ex(0.25) * ival(idx(row) + idx(col) * c0).sin(),
    );
    pb.begin_guard(vec![eq0(idx(row) - idx(col))]);
    pb.assign(
        elem(a, [idx(row), idx(col)]),
        ex(diag) + ival(idx(row)).sin(),
    );
    pb.end();
    pb.end();
    pb.end();

    let k = pb.begin_seq("k", con(0), sym(m) - 1);
    if columns {
        let i1 = pb.begin_par("i1", con(1), sym(n) - 1);
        pb.begin_guard(vec![ge0(idx(i1) - idx(k) - 1)]);
        pb.assign(
            elem(a, [idx(i1), idx(k)]),
            arr(a, [idx(i1), idx(k)]) / arr(a, [idx(k), idx(k)]),
        );
        pb.end();
        pb.end();
        let j2 = pb.begin_par("j2", con(1), sym(n) - 1);
        let i2 = pb.begin_seq("i2", con(1), sym(n) - 1);
        pb.begin_guard(vec![ge0(idx(j2) - idx(k) - 1), ge0(idx(i2) - idx(k) - 1)]);
        pb.assign(
            elem(a, [idx(i2), idx(j2)]),
            arr(a, [idx(i2), idx(j2)]) - arr(a, [idx(i2), idx(k)]) * arr(a, [idx(k), idx(j2)]),
        );
        pb.end();
        pb.end();
        pb.end();
    } else {
        let d = pb.private_array("D", &[sym(n)]);
        let (cg, cu, cv) = (coeff(rng), coeff(rng), 0.0625 * coeff(rng));
        let j1 = pb.begin_par("j1", con(0), sym(n) - 1);
        pb.assign(elem(d, [idx(j1)]), arr(a, [idx(k), idx(j1)]) * ex(cg));
        pb.end();
        let i2 = pb.begin_par("i2", con(0), sym(n) - 1);
        let j2 = pb.begin_seq("j2", con(0), sym(n) - 1);
        pb.begin_guard(vec![ge0(idx(i2) - idx(k) - 1)]);
        pb.assign(
            elem(a, [idx(i2), idx(j2)]),
            arr(a, [idx(i2), idx(j2)]) * ex(cu) + arr(d, [idx(i2)]) * arr(d, [idx(j2)]) * ex(cv),
        );
        pb.end();
        pb.end();
        pb.end();
    }
    pb.end(); // k
    (pb.finish(), vec![(n, nv), (m, steps)])
}

/// `DO k { DO m { DOALL j: A(m,j) = .. } ; DOALL i { DO jj: B(i,jj) =
/// A(jj,i) + B(i,jj) } }` with rows distributed: each `DOALL j` runs on
/// `owner(m)` alone, but after `DO m` every owner has written and `m`
/// has no value, while the consumer reads all of `A` transposed.
fn nested_broadcast(rng: &mut StdRng) -> (Program, Vec<(SymId, i64)>) {
    let nv = rng.gen_range(10..=18);
    let tv = rng.gen_range(2..=3);
    let dist = any_dist(rng, 0);
    let (prog, n, t) = nested_broadcast_program(dist, coeff(rng), coeff(rng));
    (prog, vec![(n, nv), (t, tv)])
}

/// The [`Shape::NestedBroadcast`] program for a given row distribution
/// and coefficients, with its size symbols `n` and `tmax` (the
/// regression tests pin block rows, `n = 16`, `tmax = 3`).
pub fn nested_broadcast_program(dist: DistSpec, ca: f64, cb: f64) -> (Program, SymId, SymId) {
    let mut pb = ProgramBuilder::new("gen_nested_broadcast");
    let n = pb.sym("n");
    let t = pb.sym("tmax");
    let a = pb.array("A", &[sym(n), sym(n)], dist);
    let b = pb.array("B", &[sym(n), sym(n)], dist);

    let i0 = pb.begin_par("i0", con(0), sym(n) - 1);
    let j0 = pb.begin_seq("j0", con(0), sym(n) - 1);
    pb.assign(
        elem(a, [idx(i0), idx(j0)]),
        ival(idx(i0) * 3 + idx(j0)).sin(),
    );
    pb.assign(elem(b, [idx(i0), idx(j0)]), ival(idx(i0) - idx(j0)).cos());
    pb.end();
    pb.end();

    let _k = pb.begin_seq("k", con(0), sym(t) - 1);
    let m = pb.begin_seq("m", con(0), sym(n) - 1);
    let j = pb.begin_par("j", con(0), sym(n) - 1);
    pb.assign(
        elem(a, [idx(m), idx(j)]),
        arr(a, [idx(m), idx(j)]) * ex(0.5) + ex(ca),
    );
    pb.end();
    pb.end();
    let i = pb.begin_par("i", con(0), sym(n) - 1);
    let jj = pb.begin_seq("jj", con(0), sym(n) - 1);
    pb.assign(
        elem(b, [idx(i), idx(jj)]),
        arr(a, [idx(jj), idx(i)]) * ex(cb) + arr(b, [idx(i), idx(jj)]),
    );
    pb.end();
    pb.end();
    pb.end(); // k
    (pb.finish(), n, t)
}

/// A gather phase (every processor reads element or row `pick(k)` of
/// `A` into its own part of `B`) and an overwrite phase (every owner
/// rewrites its part of `A`) per step, in either order: gather first,
/// the anti dependence with one sink sits between the phases and the
/// broadcast of the next element at the loop bottom; overwrite first,
/// the other way round. `pick` is a constant, `k` or `n - 1 - k`.
fn gather_anti(rng: &mut StdRng) -> (Program, Vec<(SymId, i64)>) {
    let nv = rng.gen_range(9..=23);
    let steps = if rng.gen_bool(0.4) {
        rng.gen_range(0..=2)
    } else {
        rng.gen_range(3..=8)
    };
    let rows = rng.gen_bool(0.5);
    let overwrite_first = rng.gen_bool(0.5);
    let mut pb = ProgramBuilder::new("gen_gather_anti");
    let n = pb.sym("n");
    let m = pb.sym("steps");
    let extents = if rows {
        vec![sym(n), sym(n)]
    } else {
        vec![sym(n)]
    };
    let dist = any_dist(rng, 0);
    let a = pb.array("A", &extents, dist);
    let b = pb.array("B", &extents, dist);
    // Subscripts of row (or element) `r`, column `c`.
    let at = |r: Affine, c: Option<LoopId>| -> Vec<Affine> {
        std::iter::once(r).chain(c.map(idx)).collect()
    };
    // The column loop of the row form.
    let begin_cols =
        |pb: &mut ProgramBuilder, name: &str| rows.then(|| pb.begin_seq(name, con(0), sym(n) - 1));
    let end_cols = |pb: &mut ProgramBuilder| {
        if rows {
            pb.end();
        }
    };

    let c0 = rng.gen_range(1..=5);
    let i0 = pb.begin_par("i0", con(0), sym(n) - 1);
    let j0 = begin_cols(&mut pb, "j0");
    let seed = idx(i0) * c0 + j0.map_or(con(1), idx);
    pb.assign(elem(a, at(idx(i0), j0)), ival(seed.clone()).sin());
    pb.assign(elem(b, at(idx(i0), j0)), ival(seed + 2).cos());
    end_cols(&mut pb);
    pb.end();

    let fixed = rng.gen_range(0..nv);
    let which = rng.gen_range(0..3);
    let (cb, cg, ca) = (coeff(rng), coeff(rng), coeff(rng));
    let k = pb.begin_seq("k", con(0), sym(m) - 1);
    let pick = match which {
        0 => con(fixed),
        1 => idx(k),
        _ => sym(n) - 1 - idx(k),
    };
    for gather in [!overwrite_first, overwrite_first] {
        let i = pb.begin_par(if gather { "i" } else { "j" }, con(0), sym(n) - 1);
        let c = begin_cols(&mut pb, if gather { "ic" } else { "jc" });
        if gather {
            pb.assign(
                elem(b, at(idx(i), c)),
                arr(b, at(idx(i), c)) * ex(0.25 * cb) + arr(a, at(pick.clone(), c)) * ex(cg),
            );
        } else {
            pb.assign(
                elem(a, at(idx(i), c)),
                arr(b, at(idx(i), c)) * ex(0.5 * ca) + ival(idx(i) + idx(k)).sin(),
            );
        }
        end_cols(&mut pb);
        pb.end();
    }
    pb.end(); // k
    (pb.finish(), vec![(n, nv), (m, steps)])
}

/// `DO t { DOALL: s = op1(s, A(i)); [use | master reduction];
/// DOALL: s = op2(s, B(j)); DOALL: A, B change }` and a final use of
/// `s`. Every value is a small integer, so sums are exact in whatever
/// order the processors flush their partials.
fn reduce_chain(rng: &mut StdRng) -> (Program, Vec<(SymId, i64)>) {
    const OPS: [RedOp; 3] = [RedOp::Add, RedOp::Max, RedOp::Min];
    let nv = rng.gen_range(9..=23);
    let steps = rng.gen_range(0..=3);
    let op1 = OPS[rng.gen_range(0..3)];
    let op2 = if rng.gen_bool(0.5) {
        op1
    } else {
        OPS[rng.gen_range(0..3)]
    };
    let between = rng.gen_range(0..3);
    let mut pb = ProgramBuilder::new("gen_reduce_chain");
    let n = pb.sym("n");
    let m = pb.sym("steps");
    let dist = any_dist(rng, 0);
    let a = pb.array("A", &[sym(n)], dist);
    let b = pb.array("B", &[sym(n)], dist);
    let c = pb.array("C", &[sym(n)], dist);
    let s = pb.scalar("s", 0.0);

    let c0 = rng.gen_range(1..=6);
    let i0 = pb.begin_par("i0", con(0), sym(n) - 1);
    pb.assign(elem(a, [idx(i0)]), ival(idx(i0) * c0 + 3));
    pb.assign(elem(b, [idx(i0)]), ival(sym(n) - idx(i0) * 2));
    pb.assign(elem(c, [idx(i0)]), ival(idx(i0)));
    pb.end();

    let t = pb.begin_seq("t", con(0), sym(m) - 1);
    let i = pb.begin_par("i", con(0), sym(n) - 1);
    pb.reduce(svar(s), op1, arr(a, [idx(i)]));
    pb.end();
    match between {
        0 => {}
        1 => {
            let u = pb.begin_par("u", con(0), sym(n) - 1);
            pb.assign(elem(c, [idx(u)]), arr(c, [idx(u)]) + sca(s));
            pb.end();
        }
        _ => {
            pb.reduce(svar(s), OPS[rng.gen_range(0..3)], arr(a, [con(0)]));
        }
    }
    let j = pb.begin_par("j", con(0), sym(n) - 1);
    pb.reduce(svar(s), op2, arr(b, [idx(j)]));
    pb.end();
    let w = pb.begin_par("w", con(0), sym(n) - 1);
    pb.assign(elem(a, [idx(w)]), arr(a, [idx(w)]) + ival(idx(t) + 1));
    pb.assign(elem(b, [idx(w)]), arr(b, [idx(w)]) - ex(1.0));
    pb.end();
    pb.end(); // t

    let z = pb.begin_par("z", con(0), sym(n) - 1);
    pb.assign(elem(c, [idx(z)]), arr(c, [idx(z)]) + sca(s));
    pb.end();
    (pb.finish(), vec![(n, nv), (m, steps)])
}

/// `DO k = lb, lb + steps - 1 { [front;] gather; update }` after an
/// initialisation loop: the gather has every processor read row (or
/// element) `k` of `A`, the update has every owner rewrite its part, so
/// the loop bottom broadcasts from `owner(k + 1)` and the slot in front
/// of the loop owes trip `lb` alone — or nothing, when a `front` phase
/// in which `owner(k)` rescales its row puts the very counter the
/// gather needs in front of it on every trip. The other `front` is a
/// neighbor exchange, which orders none of it. `nest` wraps the steps
/// in a time loop, or the gather in a repeat loop of its own.
fn init_broadcast(rng: &mut StdRng) -> (Program, Vec<(SymId, i64)>) {
    let nv = rng.gen_range(9..=17);
    let steps = if rng.gen_bool(0.5) {
        rng.gen_range(0..=2)
    } else {
        rng.gen_range(3..=5)
    };
    let lov = rng.gen_range(0..=3);
    let rows = rng.gen_bool(0.5);
    let (bound, front, nest) = (
        rng.gen_range(0..3),
        rng.gen_range(0..3),
        rng.gen_range(0..3),
    );
    let mut pb = ProgramBuilder::new("gen_init_broadcast");
    let n = pb.sym("n");
    let m = pb.sym("steps");
    let lo = pb.sym("lo");
    let reps = pb.sym("reps");
    let extents = if rows {
        vec![sym(n), sym(n)]
    } else {
        vec![sym(n)]
    };
    let dist = any_dist(rng, 0);
    let [a, b, c] = ["A", "B", "C"].map(|name| pb.array(name, &extents, dist));
    // Subscripts of row (or element) `r`, column `col`.
    let at = |r: Affine, col: Option<LoopId>| -> Vec<Affine> {
        std::iter::once(r).chain(col.map(idx)).collect()
    };
    // The column loop of the row form.
    let begin_cols =
        |pb: &mut ProgramBuilder, name: &str| rows.then(|| pb.begin_seq(name, con(0), sym(n) - 1));
    let end_cols = |pb: &mut ProgramBuilder| {
        if rows {
            pb.end();
        }
    };

    let c0 = rng.gen_range(1..=5);
    let i0 = pb.begin_par("i0", con(0), sym(n) - 1);
    let j0 = begin_cols(&mut pb, "j0");
    let seed = idx(i0) * c0 + j0.map_or(con(1), idx);
    pb.assign(elem(a, at(idx(i0), j0)), ival(seed.clone()).sin());
    pb.assign(elem(b, at(idx(i0), j0)), ival(seed.clone() + 2).cos());
    pb.assign(elem(c, at(idx(i0), j0)), ival(seed - 1).cos());
    end_cols(&mut pb);
    pb.end();

    let (cf, cb, cg, ca) = (coeff(rng), coeff(rng), coeff(rng), coeff(rng));
    let lb = match bound {
        0 => con(0),
        1 => con(1),
        _ => sym(lo),
    };
    if nest == 1 {
        pb.begin_seq("t", con(0), sym(reps) - 1);
    }
    let k = pb.begin_seq("k", lb.clone(), lb + sym(m) - 1);
    match front {
        0 => {}
        1 if rows => {
            let j1 = pb.begin_par("j1", con(0), sym(n) - 1);
            let own = at(idx(k), Some(j1));
            pb.assign(elem(a, own.clone()), arr(a, own) * ex(0.5) + ex(cf));
            pb.end();
        }
        _ => {
            let f = pb.begin_par("f", con(1), sym(n) - 1);
            let fc = begin_cols(&mut pb, "fc");
            pb.assign(
                elem(c, at(idx(f), fc)),
                arr(c, at(idx(f), fc)) * ex(0.5) + arr(b, at(idx(f) - 1, fc)) * ex(cf),
            );
            end_cols(&mut pb);
            pb.end();
        }
    }
    if nest == 2 {
        pb.begin_seq("r", con(0), sym(reps) - 1);
    }
    let i = pb.begin_par("i", con(0), sym(n) - 1);
    let ic = begin_cols(&mut pb, "ic");
    pb.assign(
        elem(b, at(idx(i), ic)),
        arr(b, at(idx(i), ic)) * ex(0.25 * cb) + arr(a, at(idx(k), ic)) * ex(cg),
    );
    end_cols(&mut pb);
    pb.end();
    if nest == 2 {
        pb.end();
    }
    let j = pb.begin_par("j", con(0), sym(n) - 1);
    let jc = begin_cols(&mut pb, "jc");
    pb.assign(
        elem(a, at(idx(j), jc)),
        arr(a, at(idx(j), jc)) * ex(0.5 * ca) + arr(b, at(idx(j), jc)) * ex(0.125),
    );
    end_cols(&mut pb);
    pb.end();
    pb.end(); // k
    if nest == 1 {
        pb.end();
    }
    (pb.finish(), vec![(n, nv), (m, steps), (lo, lov), (reps, 2)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 17, 123456] {
            let a = generate(seed);
            let b = generate(seed);
            assert_eq!(a.shape, b.shape);
            assert_eq!(a.values, b.values);
            assert_eq!(format!("{:?}", a.prog.body), format!("{:?}", b.prog.body));
        }
    }

    #[test]
    fn all_shapes_appear_within_a_small_seed_range() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..64 {
            seen.insert(generate(seed).shape);
        }
        assert_eq!(seen.len(), SHAPES.len(), "seen {seen:?}");
    }

    /// The on-request shapes leave `generate` alone, and the sink
    /// broadcast covers what it is for within a few seeds: both forms,
    /// all three distributions, and the short and overlong trip counts.
    #[test]
    fn on_request_shapes_cover_their_parameters() {
        for seed in 0..64 {
            assert!(SHAPES.contains(&generate(seed).shape));
        }
        let mut dists = std::collections::HashSet::new();
        let mut trips = std::collections::BTreeSet::new();
        for seed in 0..128 {
            let g = generate_shape(Shape::SinkBroadcast, seed);
            assert_eq!(g.shape, Shape::SinkBroadcast);
            let (dim, kind) = g.prog.arrays[0].dist.distributed_dim().unwrap();
            dists.insert((dim, std::mem::discriminant(&kind)));
            let (n, steps) = (g.values[0].1, g.values[1].1);
            if steps <= 2 {
                trips.insert(steps);
            } else if steps == n {
                trips.insert(3);
            }
        }
        assert_eq!(dists.len(), 2 * 3, "rows and columns x three distributions");
        assert_eq!(trips.into_iter().collect::<Vec<_>>(), [0, 1, 2, 3]);
    }

    /// The consumer-side shapes reach the rules they are for within a
    /// few seeds: most gathers get a collector at eight processors (not
    /// the zero-trip ones), and the reduction chains come both with a
    /// commuting pair and without.
    #[test]
    fn gather_and_reduce_shapes_reach_their_rules() {
        let (mut gathered, mut commuting) = (0, 0);
        for seed in 0..32 {
            let g = generate_shape(Shape::GatherAnti, seed);
            let (_, log) = spmd_opt::optimize_logged(&g.prog, &g.bindings(8));
            gathered += log
                .iter()
                .filter_map(|d| d.placed.waits())
                .any(|waits| !waits.collectors.is_empty()) as usize;
            let g = generate_shape(Shape::ReduceChain, seed);
            let (_, log) = spmd_opt::optimize_logged(&g.prog, &g.bindings(8));
            commuting += log.iter().any(|d| !d.commuting.is_empty()) as usize;
        }
        assert!(gathered >= 20, "{gathered} of 32 gathers have a collector");
        assert!((6..=26).contains(&commuting), "{commuting} of 32 chains");
    }

    /// The initialisation broadcast draws every lower bound, nesting
    /// and short trip count within a few seeds, and at eight processors
    /// reaches both covering paths into a loop: a first-trip sync in
    /// front of it (a plain counter among them), and pairs a body slot
    /// orders on every trip.
    #[test]
    fn init_broadcast_shape_reaches_the_covering_rules() {
        let (mut first, mut counters, mut covered) = (0, 0, 0);
        let mut bounds = std::collections::BTreeSet::new();
        let mut nests = std::collections::BTreeSet::new();
        let mut trips = std::collections::BTreeSet::new();
        for seed in 0..64 {
            let g = generate_shape(Shape::InitBroadcast, seed);
            let mut nest = "";
            g.prog.walk_all(&mut |id, _| {
                let Some(l) = g.prog.node(id).as_loop() else {
                    return;
                };
                match l.name.as_str() {
                    "k" if l.lo.is_constant() => bounds.insert(l.lo.constant_term()),
                    "k" => bounds.insert(-1),
                    "t" | "r" => std::mem::replace(&mut nest, &l.name).is_empty(),
                    _ => false,
                };
            });
            nests.insert(nest.to_string());
            trips.insert(g.values[1].1.min(3));
            let (_, log) = spmd_opt::optimize_logged(&g.prog, &g.bindings(8));
            first += log.iter().any(|d| d.first_trip) as usize;
            counters += log.iter().any(|d| d.first_trip && d.placed.is_counter()) as usize;
            covered += log
                .iter()
                .any(|d| d.kind != spmd_opt::SlotKind::LoopBottom && !d.covered.is_empty())
                as usize;
        }
        assert_eq!(bounds.into_iter().collect::<Vec<_>>(), [-1, 0, 1]);
        assert_eq!(nests.into_iter().collect::<Vec<_>>(), ["", "r", "t"]);
        assert_eq!(trips.into_iter().collect::<Vec<_>>(), [0, 1, 2, 3]);
        assert!(first >= 24, "{first} of 64 with a first-trip sync");
        assert!(counters >= 8, "{counters} of 64 with a first-trip counter");
        assert!(
            covered >= 8,
            "{covered} of 64 with a pair covered in the loop"
        );
    }

    #[test]
    fn generated_doalls_carry_no_dependence() {
        for shape in [
            Shape::SinkBroadcast,
            Shape::NestedBroadcast,
            Shape::GatherAnti,
            Shape::ReduceChain,
            Shape::InitBroadcast,
        ] {
            for seed in 0..8 {
                let g = generate_shape(shape, seed);
                for p in [3, 8] {
                    let bad = analysis::check_parallel_loops(&g.prog, &g.bindings(p));
                    assert!(bad.is_empty(), "{shape:?} seed {seed}: {bad:?}");
                }
            }
        }
        for seed in 0..40 {
            let g = generate(seed);
            for p in [1, 3, 4] {
                let bind = g.bindings(p);
                let bad = analysis::check_parallel_loops(&g.prog, &bind);
                assert!(
                    bad.is_empty(),
                    "seed {seed} shape {:?}: dependent DOALLs {bad:?}",
                    g.shape
                );
            }
        }
    }
}
