//! Shared program memory: arrays and scalars as relaxed atomic `f64`
//! cells.

use crate::trace::TraceBuffer;
use analysis::Bindings;
use ir::{ArrayId, Program, ScalarId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One array's storage (row-major).
pub struct ArrayStore {
    /// Extent of each dimension.
    pub extents: Vec<i64>,
    /// Row-major strides.
    pub strides: Vec<i64>,
    data: Vec<AtomicU64>,
}

/// Row-major strides and element count of array `name` with the given
/// extents, in checked arithmetic: panics with `array extent overflow`
/// when either does not fit `i64`, in release as in debug.
pub(crate) fn row_major_layout(name: &str, extents: &[i64]) -> (Vec<i64>, i64) {
    let overflow = || -> ! { panic!("array extent overflow: {name}") };
    let mut strides = vec![1i64; extents.len()];
    for k in (0..extents.len().saturating_sub(1)).rev() {
        strides[k] =
            (strides[k + 1].checked_mul(extents[k + 1].max(0))).unwrap_or_else(|| overflow());
    }
    let len =
        (extents.iter().try_fold(1i64, |p, &e| p.checked_mul(e))).unwrap_or_else(|| overflow());
    (strides, len.max(0))
}

/// The flat offset through `(extent, stride, subscript)` per dimension,
/// outermost first, each subscript checked against its extent before the
/// next one is taken (panics when out of bounds).
#[inline(always)]
pub(crate) fn offset(dims: impl Iterator<Item = (i64, i64, i64)>) -> usize {
    let mut off = 0;
    for (k, (extent, stride, s)) in dims.enumerate() {
        if s < 0 || s >= extent {
            subscript_out_of_bounds(s, extent, k);
        }
        off += s * stride;
    }
    off as usize
}

/// The panic of a subscript outside its dimension.
#[cold]
#[inline(never)]
pub(crate) fn subscript_out_of_bounds(s: i64, extent: i64, dim: usize) -> ! {
    panic!("subscript {s} out of bounds 0..{extent} in dim {dim}")
}

impl ArrayStore {
    fn new(name: &str, extents: Vec<i64>) -> Self {
        let (strides, len) = row_major_layout(name, &extents);
        let data = (0..len).map(|_| AtomicU64::new(0)).collect();
        ArrayStore {
            extents,
            strides,
            data,
        }
    }

    /// Row-major flat offset of the element whose subscripts `subs`
    /// yields, outermost first; each is checked against its dimension
    /// as it is folded in (panics when out of bounds, like `get`/`set`).
    ///
    /// The offset cannot overflow: with every `s` in `0..extent` and each
    /// stride the product of the extents after it, the sum is at most
    /// the element count minus one, which `new` checked fits `i64`.
    #[inline]
    pub fn flat_offset(&self, subs: impl ExactSizeIterator<Item = i64>) -> usize {
        debug_assert_eq!(subs.len(), self.extents.len());
        let dims = self.extents.iter().zip(&self.strides).zip(subs);
        offset(dims.map(|((&extent, &stride), s)| (extent, stride, s)))
    }

    /// Read element `subs`.
    #[inline]
    pub fn get(&self, subs: &[i64]) -> f64 {
        f64::from_bits(self.data[self.flat_offset(subs.iter().copied())].load(Ordering::Relaxed))
    }

    /// Write element `subs`.
    #[inline]
    pub fn set(&self, subs: &[i64], v: f64) {
        self.data[self.flat_offset(subs.iter().copied())].store(v.to_bits(), Ordering::Relaxed);
    }

    /// The cells in row-major order (lowered kernels index them by
    /// flat offset).
    pub(crate) fn cells(&self) -> &[AtomicU64] {
        &self.data
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Linear read (for checksums).
    pub fn get_linear(&self, k: usize) -> f64 {
        f64::from_bits(self.data[k].load(Ordering::Relaxed))
    }

    /// Linear write (checkpoint rollback restores pre-images by flat
    /// offset, bit-exact).
    pub fn set_linear(&self, k: usize, v: f64) {
        self.data[k].store(v.to_bits(), Ordering::Relaxed);
    }
}

enum Slot {
    /// One shared store (distributed / replicated arrays).
    Shared(ArrayStore),
    /// One store per processor (privatizable work arrays).
    Private(Vec<ArrayStore>),
}

/// Program memory: one [`ArrayStore`] per array (or one per processor
/// for privatizable arrays) plus atomic scalars.
pub struct Mem {
    slots: Vec<Slot>,
    scalars: Vec<AtomicU64>,
    tracer: Option<Arc<TraceBuffer>>,
}

impl Mem {
    /// Allocate memory for a program under concrete bindings (array
    /// extents must evaluate). Scalars take their declared initial
    /// values; array elements start at zero.
    pub fn new(prog: &Program, bind: &Bindings) -> Self {
        let slots = prog
            .arrays
            .iter()
            .map(|a| {
                let extents: Vec<i64> = a
                    .extents
                    .iter()
                    .map(|e| {
                        bind.eval_const(e)
                            .unwrap_or_else(|| panic!("unbound extent for array {}", a.name))
                    })
                    .collect();
                if a.privatizable {
                    Slot::Private(
                        (0..bind.nprocs)
                            .map(|_| ArrayStore::new(&a.name, extents.clone()))
                            .collect(),
                    )
                } else {
                    Slot::Shared(ArrayStore::new(&a.name, extents))
                }
            })
            .collect();
        let scalars = prog
            .scalars
            .iter()
            .map(|s| AtomicU64::new(s.init.to_bits()))
            .collect();
        Mem {
            slots,
            scalars,
            tracer: None,
        }
    }

    /// Attach an access tracer: the evaluator records every shared
    /// array-element and non-privatizable scalar access into it.
    pub fn with_tracer(mut self, t: Arc<TraceBuffer>) -> Self {
        self.tracer = Some(t);
        self
    }

    /// The attached tracer, if any.
    pub(crate) fn tracer(&self) -> Option<&TraceBuffer> {
        self.tracer.as_deref()
    }

    /// The storage of one array as seen by processor 0 (tests / oracle).
    #[inline]
    pub fn array(&self, a: ArrayId) -> &ArrayStore {
        self.array_view(a, 0)
    }

    /// The storage of one array as seen by processor `pid` (private
    /// arrays route to the processor's own copy).
    #[inline]
    pub fn array_view(&self, a: ArrayId, pid: usize) -> &ArrayStore {
        match &self.slots[a.0 as usize] {
            Slot::Shared(st) => st,
            Slot::Private(copies) => &copies[pid],
        }
    }

    /// True for privatizable (per-processor) arrays.
    #[inline]
    pub fn is_private(&self, a: ArrayId) -> bool {
        matches!(self.slots[a.0 as usize], Slot::Private(_))
    }

    /// Number of arrays.
    pub fn num_arrays(&self) -> usize {
        self.slots.len()
    }

    /// Read a scalar.
    #[inline]
    pub fn get_scalar(&self, s: ScalarId) -> f64 {
        f64::from_bits(self.scalars[s.0 as usize].load(Ordering::Relaxed))
    }

    /// Scalar `s`'s cell, as a slice of one.
    pub(crate) fn scalar_cells(&self, s: ScalarId) -> &[AtomicU64] {
        std::slice::from_ref(&self.scalars[s.0 as usize])
    }

    /// Write a scalar.
    #[inline]
    pub fn set_scalar(&self, s: ScalarId, v: f64) {
        self.scalars[s.0 as usize].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Atomically apply a reduction to a scalar (used when flushing
    /// per-processor partials).
    pub fn reduce_scalar(&self, s: ScalarId, op: ir::RedOp, v: f64) {
        let cell = &self.scalars[s.0 as usize];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let new = op.apply(f64::from_bits(cur), v).to_bits();
            match cell.compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => return,
                Err(c) => cur = c,
            }
        }
    }

    /// Fill an array with a function of its indices (test setup; private
    /// arrays have every copy filled identically).
    pub fn fill(&self, a: ArrayId, f: impl Fn(&[i64]) -> f64) {
        let stores: Vec<&ArrayStore> = match &self.slots[a.0 as usize] {
            Slot::Shared(st) => vec![st],
            Slot::Private(copies) => copies.iter().collect(),
        };
        for st in stores {
            let rank = st.extents.len();
            let mut subs = vec![0i64; rank];
            if st.extents.iter().any(|&e| e <= 0) {
                continue;
            }
            'odo: loop {
                st.set(&subs, f(&subs));
                let mut k = rank;
                loop {
                    if k == 0 {
                        break 'odo;
                    }
                    k -= 1;
                    subs[k] += 1;
                    if subs[k] < st.extents[k] {
                        break;
                    }
                    subs[k] = 0;
                }
            }
        }
    }

    /// A position-weighted checksum over all *shared* arrays and all
    /// scalars (private arrays are scratch storage whose final contents
    /// are unspecified — the paper's finalization concern applies only
    /// when they are live-out, which the suite avoids).
    pub fn checksum(&self) -> f64 {
        let mut acc = 0.0f64;
        for slot in &self.slots {
            let Slot::Shared(st) = slot else { continue };
            for k in 0..st.len() {
                acc += st.get_linear(k) * (1.0 + (k % 97) as f64 * 1e-3);
            }
        }
        for k in 0..self.scalars.len() {
            acc +=
                f64::from_bits(self.scalars[k].load(Ordering::Relaxed)) * (1.0 + k as f64 * 1e-2);
        }
        acc
    }

    /// Maximum absolute difference of all *shared* cells between two
    /// memories of identical shape (private scratch is excluded), cell
    /// by cell: 0 where the bits are identical or both are NaN, +∞ where
    /// exactly one is NaN, `|a − b|` otherwise — so a NaN never compares
    /// as equal to a number, and the result is never NaN.
    pub fn max_abs_diff(&self, other: &Mem) -> f64 {
        fn diff(a: f64, b: f64) -> f64 {
            if a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()) {
                0.0
            } else if a.is_nan() || b.is_nan() {
                f64::INFINITY
            } else {
                (a - b).abs()
            }
        }
        let mut m: f64 = 0.0;
        for (sa, sb) in self.slots.iter().zip(&other.slots) {
            let (Slot::Shared(a), Slot::Shared(b)) = (sa, sb) else {
                continue;
            };
            assert_eq!(a.len(), b.len(), "memory shapes differ");
            for k in 0..a.len() {
                m = m.max(diff(a.get_linear(k), b.get_linear(k)));
            }
        }
        for (a, b) in self.scalars.iter().zip(&other.scalars) {
            m = m.max(diff(
                f64::from_bits(a.load(Ordering::Relaxed)),
                f64::from_bits(b.load(Ordering::Relaxed)),
            ));
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir::build::*;

    fn mem1d(n: i64) -> (ir::Program, Mem, ArrayId) {
        let mut pb = ProgramBuilder::new("m");
        let s = pb.sym("n");
        let a = pb.array("A", &[sym(s)], dist_block());
        let prog = pb.finish();
        let bind = Bindings::new(2).set(s, n);
        let mem = Mem::new(&prog, &bind);
        (prog, mem, a)
    }

    #[test]
    fn get_set_roundtrip() {
        let (_, mem, a) = mem1d(10);
        mem.array(a).set(&[3], 1.5);
        assert_eq!(mem.array(a).get(&[3]), 1.5);
        assert_eq!(mem.array(a).get(&[4]), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let (_, mem, a) = mem1d(10);
        mem.array(a).get(&[10]);
    }

    #[test]
    fn strides_are_row_major() {
        let mut pb = ProgramBuilder::new("m2");
        let a = pb.array("A", &[con(3), con(4)], dist_block());
        let prog = pb.finish();
        let mem = Mem::new(&prog, &Bindings::new(2));
        mem.array(a).set(&[1, 2], 7.0);
        assert_eq!(mem.array(a).get_linear(6), 7.0);
    }

    /// `A(m, 8)` with `m = 2⁶¹ + 1` has 2⁶⁴ + 8 elements: unchecked, the
    /// count wraps to 8 and the strides to `[8, 1]`, so `A(m − 1, 0)`
    /// would share the cell of `A(0, 0)`.
    #[test]
    fn an_array_too_large_for_i64_panics_instead_of_wrapping() {
        let mut pb = ProgramBuilder::new("huge");
        let m = pb.sym("m");
        pb.array("A", &[sym(m), con(8)], dist_block());
        let prog = pb.finish();
        let bind = Bindings::new(2).set(m, (1 << 61) + 1);
        let err = std::panic::catch_unwind(|| Mem::new(&prog, &bind)).err();
        let msg = err.and_then(|e| e.downcast::<String>().ok());
        assert_eq!(
            msg.as_deref().map(String::as_str),
            Some("array extent overflow: A")
        );
        // The strides are checked on their own: an empty array whose
        // stride does not fit panics too.
        let err = std::panic::catch_unwind(|| row_major_layout("B", &[0, 1 << 62, 4])).err();
        let msg = err.and_then(|e| e.downcast::<String>().ok());
        assert_eq!(
            msg.as_deref().map(String::as_str),
            Some("array extent overflow: B")
        );
        assert_eq!(row_major_layout("C", &[3, 4, 5]), (vec![20, 5, 1], 60));
    }

    #[test]
    fn fill_and_checksum_depend_on_position() {
        let (_, mem, a) = mem1d(8);
        mem.fill(a, |s| s[0] as f64);
        let c1 = mem.checksum();
        // Swap two values; plain sum would be identical.
        mem.array(a).set(&[0], 7.0);
        mem.array(a).set(&[7], 0.0);
        assert_ne!(c1, mem.checksum());
    }

    #[test]
    fn max_abs_diff_sees_nan() {
        let mut pb = ProgramBuilder::new("nan");
        let a = pb.array("A", &[con(2)], dist_block());
        let s = pb.scalar("s", 0.0);
        let prog = pb.finish();
        let bind = Bindings::new(2);
        let (x, y) = (Mem::new(&prog, &bind), Mem::new(&prog, &bind));
        let diff_of = |u: f64, v: f64| {
            x.array(a).set(&[1], u);
            y.array(a).set(&[1], v);
            let cells = x.max_abs_diff(&y);
            x.array(a).set(&[1], 0.0);
            y.array(a).set(&[1], 0.0);
            x.set_scalar(s, u);
            y.set_scalar(s, v);
            let scalars = x.max_abs_diff(&y);
            x.set_scalar(s, 0.0);
            y.set_scalar(s, 0.0);
            assert_eq!(cells.to_bits(), scalars.to_bits(), "{u} vs {v}");
            cells
        };
        let inf = f64::INFINITY;
        // A number where the reference holds NaN is a difference.
        assert_eq!(diff_of(12345.0, f64::NAN), inf);
        assert_eq!(diff_of(f64::NAN, 12345.0), inf);
        assert_eq!(diff_of(f64::NAN, inf), inf);
        // NaN against NaN, whatever the payload, is not.
        assert_eq!(diff_of(f64::NAN, -f64::NAN), 0.0);
        assert_eq!(
            diff_of(f64::NAN, f64::from_bits(f64::NAN.to_bits() | 1)),
            0.0
        );
        // Infinities: equal ones agree, anything else is infinitely far.
        assert_eq!(diff_of(inf, inf), 0.0);
        assert_eq!(diff_of(-inf, -inf), 0.0);
        assert_eq!(diff_of(inf, -inf), inf);
        assert_eq!(diff_of(inf, 1.0), inf);
        // Numbers: the absolute difference, signed zeros equal.
        assert_eq!(diff_of(0.0, -0.0), 0.0);
        assert_eq!(diff_of(1.5, -2.0), 3.5);
    }

    #[test]
    fn reduce_scalar_applies_op() {
        let mut pb = ProgramBuilder::new("r");
        let s = pb.scalar("s", 10.0);
        let prog = pb.finish();
        let mem = Mem::new(&prog, &Bindings::new(2));
        mem.reduce_scalar(s, ir::RedOp::Add, 5.0);
        assert_eq!(mem.get_scalar(s), 15.0);
        mem.reduce_scalar(s, ir::RedOp::Max, 100.0);
        assert_eq!(mem.get_scalar(s), 100.0);
    }
}
