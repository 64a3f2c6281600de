//! Dense, row-major `f64` tensors with copy-on-write storage.
//!
//! A tensor remembers two passes over its elements once something has made
//! them. Each is a whole pass over a large input, and a session or a
//! checkpoint would otherwise make it again every time.
//!
//! * Its squared Frobenius norm ‖T‖²: CP-ALS reads it once per run (the
//!   fitness of Eq. (3)), and the pass is all of a session's set-up. The
//!   value is always the bits of that pass, the elements' squares summed
//!   from the first to the last with one accumulator; nothing
//!   re-associates it. [`DenseTensor::norm_sq`] computes it on first call
//!   and keeps it; [`DenseTensor::remembered_norm_sq`] reads it without a
//!   pass. A writer whose own last pass is serial and in element order
//!   hands it over from that pass: [`DenseTensor::axpy_norm_sq`],
//!   [`DenseTensor::map_norm_sq`], and [`crate::rng::gaussian_tensor`].
//! * Its fingerprint ([`DenseTensor::fingerprint`]): FNV-1a over the dims
//!   and the element bits, what a checkpoint stores to bind itself to its
//!   input (about 1.7 ns a byte).
//!
//! Each is kept in the tensor itself, beside the buffer, so remembering
//! costs no allocation:
//!
//! * A clone carries both, as they were when it was made; what either side
//!   computes later stays with that side.
//! * [`DenseTensor::reshape`] keeps the norm and forgets the fingerprint,
//!   which hashes the dims.
//! * A new tensor starts without either, a shared run
//!   ([`DenseTensor::share_run`]) and a slice
//!   ([`DenseTensor::slice_along`]) too.
//! * Every write forgets both: they all go through one private path
//!   (`data_mut`, `set`, `axpy`, `scale`, `fill_zero`, `append_leading`,
//!   `append_leading_with`), which drops them before it hands the buffer
//!   out.

use crate::fnv::Fnv;
use crate::shape::Shape;
use crate::store::{is_mapped, ALIGN, HUGE_BYTES};
use crate::workspace::Buffer;
use std::sync::{Arc, OnceLock};

/// A dense tensor of `f64` values in row-major layout.
///
/// This is the storage type used for input tensors and for all dimension-tree
/// intermediates. Intermediates 𝓜^(S) of the paper are stored with the CP
/// rank as a trailing mode, i.e. shape `[s_{i1}, ..., s_{im}, R]`. The
/// storage is a [`Buffer`]: one drawn from a [`crate::Workspace`] goes back
/// to it when the last tensor holding it is dropped, and every tensor made
/// inside the crates (all but [`DenseTensor::from_vec`]'s adopted `Vec`)
/// starts on a 64-byte boundary and sits in huge pages from 2 MiB up.
///
/// Storage is copy-on-write. A clone shares the buffer (a refcount bump),
/// except that an adopted `Vec` is copied onto the store, so a clone is
/// always placed. [`DenseTensor::share_run`] shares one contiguous run of
/// a buffer the same way. The first write through either side of a shared
/// buffer ([`DenseTensor::data_mut`], `set`, `axpy`, `scale`, `fill_zero`,
/// `append_leading`) copies it onto a fresh store, and the other side never
/// sees the write; a run that is not its whole buffer moves onto a store of
/// its own first even when it is the buffer's last holder. A sole owner of
/// a whole buffer writes in place.
pub struct DenseTensor {
    shape: Shape,
    buf: Arc<Buffer>,
    /// Where the tensor's elements start in `buf`; they run for
    /// `shape.len()`.
    start: usize,
    /// What is remembered of the elements (see the module docs); every
    /// write empties it.
    known: Remembered,
}

/// The passes over a tensor's elements that it remembers once made.
#[derive(Default, Clone)]
struct Remembered {
    /// ‖T‖², once computed or handed over.
    norm_sq: OnceLock<f64>,
    /// [`DenseTensor::fingerprint`], once computed.
    fingerprint: OnceLock<u64>,
}

impl Clone for DenseTensor {
    fn clone(&self) -> Self {
        let (buf, start) = if self.buf.is_adopted() {
            (Arc::new(Buffer::copy_of(self.data())), 0)
        } else {
            (Arc::clone(&self.buf), self.start)
        };
        // The same elements: the same remembered passes.
        DenseTensor {
            shape: self.shape.clone(),
            buf,
            start,
            known: self.known.clone(),
        }
    }
}

/// Contents, not storage: a run equals the tensor it was copied to.
impl PartialEq for DenseTensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data() == other.data()
    }
}

impl DenseTensor {
    /// A tensor that is all of `buf`.
    fn whole(shape: Shape, buf: Buffer) -> Self {
        DenseTensor {
            shape,
            buf: Arc::new(buf),
            start: 0,
            known: Remembered::default(),
        }
    }

    /// All-zeros tensor of the given shape.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let buf = Buffer::zeroed(shape.len());
        DenseTensor::whole(shape, buf)
    }

    /// Build a tensor from a function of the multi-index.
    pub fn from_fn(shape: impl Into<Shape>, mut f: impl FnMut(&[usize]) -> f64) -> Self {
        let shape = shape.into();
        let mut t = DenseTensor::zeros(shape.clone());
        for (x, idx) in t.data_mut().iter_mut().zip(shape.indices()) {
            *x = f(&idx);
        }
        t
    }

    /// Wrap an existing buffer as it is (no copy, so no alignment promise).
    /// Panics if the buffer length does not match.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f64>) -> Self {
        DenseTensor::from_buffer(shape, data.into())
    }

    /// [`DenseTensor::from_vec`] over a (possibly workspace-drawn) buffer.
    pub fn from_buffer(shape: impl Into<Shape>, data: Buffer) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.len(),
            data.len(),
            "buffer length {} does not match shape {}",
            data.len(),
            shape
        );
        DenseTensor::whole(shape, data)
    }

    /// Share elements `[start, start + shape.len())` of this tensor as a
    /// tensor of `shape`, without a copy: the buffer's refcount goes up, and
    /// a write to either side goes as for a clone. Only where the run keeps
    /// the placement promise: the buffer is a store (never an adopted
    /// `Vec`, whose clone would copy all of it) and the run starts on a
    /// cache line, and from the size rule up on a huge page. `None`
    /// otherwise, and when the run does not fit in this tensor.
    pub fn share_run(&self, start: usize, shape: impl Into<Shape>) -> Option<DenseTensor> {
        let shape = shape.into();
        let run = self.data().get(start..start.checked_add(shape.len())?)?;
        let bytes = std::mem::size_of_val(run);
        let align = if is_mapped(bytes) { HUGE_BYTES } else { ALIGN };
        let placed = (run.as_ptr() as usize).is_multiple_of(align);
        (placed && !self.buf.is_adopted()).then(|| DenseTensor {
            shape,
            buf: Arc::clone(&self.buf),
            start: self.start + start,
            known: Remembered::default(),
        })
    }

    /// Whether the tensor's elements are its whole buffer (not a run of a
    /// longer one).
    #[inline]
    fn is_whole(&self) -> bool {
        self.start == 0 && self.buf.len() == self.shape.len()
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Tensor order (number of modes).
    #[inline]
    pub fn order(&self) -> usize {
        self.shape.order()
    }

    /// Extent of mode `k`.
    #[inline]
    pub fn dim(&self, k: usize) -> usize {
        self.shape.dim(k)
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.shape.len()
    }

    /// True when the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Immutable view of the flat row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.buf[self.start..self.start + self.shape.len()]
    }

    /// Mutable view of the flat row-major buffer. If a clone shares the
    /// buffer, this tensor first moves to a copy of its own on the store.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        self.buffer_mut()
    }

    /// The one way to write: the buffer itself when this tensor is its
    /// sole owner, a fresh store copy of it otherwise. A run of a longer
    /// buffer first moves onto a store holding only the run. The caller
    /// may write anything, so what it remembers goes.
    #[inline]
    fn buffer_mut(&mut self) -> &mut Buffer {
        self.known = Remembered::default();
        if !self.is_whole() {
            *self = DenseTensor::whole(self.shape.clone(), Buffer::copy_of(self.data()));
        }
        Arc::make_mut(&mut self.buf)
    }

    /// Consume the tensor, returning its elements: without a copy when the
    /// tensor is the sole owner of a [`DenseTensor::from_vec`] buffer, by
    /// copy otherwise (a store, a run of a buffer, or a buffer a clone
    /// still shares).
    pub fn into_vec(self) -> Vec<f64> {
        if !self.is_whole() {
            return self.data().to_vec();
        }
        Arc::try_unwrap(self.buf).map_or_else(|shared| shared.to_vec(), Buffer::into_vec)
    }

    /// Element access by multi-index.
    #[inline]
    pub fn get(&self, idx: &[usize]) -> f64 {
        self.data()[self.shape.linearize(idx)]
    }

    /// Element assignment by multi-index.
    #[inline]
    pub fn set(&mut self, idx: &[usize], v: f64) {
        let lin = self.shape.linearize(idx);
        self.buffer_mut()[lin] = v;
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Squared Frobenius norm: one serial pass on the first call, the
    /// remembered value after (see the module docs).
    pub fn norm_sq(&self) -> f64 {
        *self.known.norm_sq.get_or_init(|| self.serial_norm_sq())
    }

    /// The pass: every element's square, summed in element order with one
    /// accumulator.
    fn serial_norm_sq(&self) -> f64 {
        self.data().iter().map(|x| x * x).sum()
    }

    /// The remembered ‖T‖², if there is one: what [`DenseTensor::norm_sq`]
    /// returns without a pass.
    pub fn remembered_norm_sq(&self) -> Option<f64> {
        self.known.norm_sq.get().copied()
    }

    /// Remember `norm_sq`, which a writer summed in its last pass over the
    /// elements, in [`DenseTensor::norm_sq`]'s order; returns it. Debug
    /// builds check it against that pass.
    pub(crate) fn remember_norm_sq(&self, norm_sq: f64) -> f64 {
        debug_assert_eq!(
            norm_sq.to_bits(),
            self.serial_norm_sq().to_bits(),
            "a handed-over ‖T‖² is not the serial sum"
        );
        *self.known.norm_sq.get_or_init(|| norm_sq)
    }

    /// FNV-1a 64-bit fingerprint of the tensor: its order, each extent and
    /// each element's bits, every one a little-endian `u64`, as a
    /// checkpoint lays them out. One pass on the first call, the
    /// remembered value after (see the module docs).
    pub fn fingerprint(&self) -> u64 {
        *self.known.fingerprint.get_or_init(|| {
            let mut h = Fnv::new();
            h.u64_(self.order() as u64);
            for &d in self.shape.dims() {
                h.u64_(d as u64);
            }
            for &x in self.data() {
                h.u64_(x.to_bits());
            }
            h.finish()
        })
    }

    /// Inner product `<self, other>` (shapes must match).
    pub fn inner(&self, other: &DenseTensor) -> f64 {
        assert_eq!(self.shape, other.shape, "inner product shape mismatch");
        self.data()
            .iter()
            .zip(other.data())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// `self += alpha * other` (shapes must match).
    pub fn axpy(&mut self, alpha: f64, other: &DenseTensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, b) in self.buffer_mut().iter_mut().zip(other.data()) {
            *a += alpha * b;
        }
    }

    /// [`DenseTensor::axpy`] that sums the result's squares in the same
    /// pass, in element order: returns ‖self‖² after the update, and
    /// remembers it.
    pub fn axpy_norm_sq(&mut self, alpha: f64, other: &DenseTensor) -> f64 {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        let norm_sq = self
            .buffer_mut()
            .iter_mut()
            .zip(other.data())
            .map(|(a, b)| {
                *a += alpha * b;
                *a * *a
            })
            .sum();
        self.remember_norm_sq(norm_sq)
    }

    /// Replace every element `x`, in element order, by `f(x)`, summing the
    /// results' squares in the same pass: returns the new ‖self‖², and
    /// remembers it.
    pub fn map_norm_sq(&mut self, mut f: impl FnMut(f64) -> f64) -> f64 {
        let norm_sq = self
            .buffer_mut()
            .iter_mut()
            .map(|x| {
                *x = f(*x);
                *x * *x
            })
            .sum();
        self.remember_norm_sq(norm_sq)
    }

    /// Scale every element by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for x in self.buffer_mut().iter_mut() {
            *x *= alpha;
        }
    }

    /// Set every element to zero, keeping the allocation (unless a clone
    /// shares it).
    pub fn fill_zero(&mut self) {
        self.buffer_mut().fill(0.0);
    }

    /// Reinterpret the buffer under a new shape with the same element
    /// count; a remembered ‖T‖² stays, the fingerprint (which hashes the
    /// dims) goes.
    pub fn reshape(self, shape: impl Into<Shape>) -> DenseTensor {
        let shape = shape.into();
        assert_eq!(
            shape.len(),
            self.len(),
            "reshape to {} changes element count",
            shape
        );
        let known = Remembered {
            norm_sq: self.known.norm_sq.clone(),
            fingerprint: OnceLock::new(),
        };
        DenseTensor {
            shape,
            known,
            ..self
        }
    }

    /// Grow the leading mode in place: append `other` (same trailing
    /// extents) after `self`'s last leading index. Row-major storage makes
    /// this a tail copy of `other`'s buffer: the buffer reserves
    /// geometrically, and from 2 MiB up a move hands its pages over (one
    /// page-table entry per huge page) instead of copying them — values
    /// verbatim, so the result is bit-identical to a tensor built whole.
    /// A buffer a clone shares is copied once first, as any write does.
    /// The primitive behind streaming growth along an evolving mode.
    pub fn append_leading(&mut self, other: &DenseTensor) {
        let mut dims = self.shape.dims().to_vec();
        assert!(!dims.is_empty(), "append_leading needs a leading mode");
        assert_eq!(
            dims[1..],
            other.shape.dims()[1..],
            "append_leading trailing-extent mismatch"
        );
        dims[0] += other.dim(0);
        self.buffer_mut().extend_from_slice(other.data());
        self.shape = Shape::new(dims);
    }

    /// [`DenseTensor::append_leading`] of `rows` leading indices that
    /// `fill` writes straight into the grown tail: it gets the tail with
    /// unspecified contents (`rows` times the trailing volume) and must
    /// write all of it. Nothing is laid out elsewhere first.
    pub fn append_leading_with(&mut self, rows: usize, fill: impl FnOnce(&mut [f64])) {
        let mut dims = self.shape.dims().to_vec();
        assert!(!dims.is_empty(), "append_leading needs a leading mode");
        dims[0] += rows;
        let n = dims[1..].iter().product::<usize>() * rows;
        self.buffer_mut().extend_with(n, fill);
        self.shape = Shape::new(dims);
    }

    /// Copy out the sub-tensor covering indices `[start, start+len)` of
    /// mode `axis` (all other modes in full).
    pub fn slice_along(&self, axis: usize, start: usize, len: usize) -> DenseTensor {
        assert!(axis < self.order(), "slice_along axis out of range");
        assert!(
            start + len <= self.dim(axis),
            "slice_along range {start}+{len} exceeds extent {}",
            self.dim(axis)
        );
        let inner: usize = self.shape.dims()[axis + 1..].iter().product();
        let src_block = self.dim(axis) * inner;
        let mut dims = self.shape.dims().to_vec();
        dims[axis] = len;
        let mut out = DenseTensor::zeros(dims);
        let src = self.data();
        if len * inner > 0 {
            for (o, run) in out.data_mut().chunks_exact_mut(len * inner).enumerate() {
                let base = o * src_block + start * inner;
                run.copy_from_slice(&src[base..base + len * inner]);
            }
        }
        out
    }

    /// Maximum absolute difference against another tensor of the same shape.
    pub fn max_abs_diff(&self, other: &DenseTensor) -> f64 {
        assert_eq!(self.shape, other.shape, "max_abs_diff shape mismatch");
        self.data()
            .iter()
            .zip(other.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl std::fmt::Debug for DenseTensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DenseTensor({}, {} elems)", self.shape, self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::mttv::mttv_in;
    use crate::kernels::ttm::{ttm, ttm_at_in, ttm_first_in, ttm_last_in};
    use crate::matrix::Matrix;
    use crate::store::{is_mapped, ALIGN, HUGE_BYTES, MAP_MIN_BYTES};
    use crate::transpose::{move_mode_first, move_mode_last, permute};
    use crate::Workspace;

    /// Where a tensor made inside the crate starts: on a cache line, and
    /// from the size rule up on a huge-page boundary.
    fn assert_placed(t: &DenseTensor, what: &str) {
        let addr = t.data().as_ptr() as usize;
        assert_eq!(addr % ALIGN, 0, "{what} ({}): cache line", t.shape());
        if is_mapped(t.len() * 8) {
            assert_eq!(addr % HUGE_BYTES, 0, "{what} ({}): huge page", t.shape());
        }
    }

    #[test]
    fn every_tensor_made_in_the_crate_is_aligned() {
        // Under the size rule, and with every output at or over it.
        for (dims, r) in [(vec![3usize, 5, 7], 3usize), (vec![64, 65, 64], 64)] {
            let mapped = is_mapped(dims.iter().product::<usize>() * 8);
            assert_eq!(mapped, is_mapped(MAP_MIN_BYTES) && dims[0] > 3);
            let fill = |idx: &[usize]| (idx[0] * 31 + idx[1] * 7 + idx[2]) as f64 / 64.0;
            let zeros = DenseTensor::zeros(dims.clone());
            assert!(zeros
                .data()
                .iter()
                .all(|&x| x == 0.0 && x.is_sign_positive()));
            assert_placed(&zeros, "zeros");
            let t = DenseTensor::from_fn(dims.clone(), fill);
            assert_placed(&t, "from_fn");
            // A caller's `Vec` is adopted where it lies; its copy is placed.
            let adopted = DenseTensor::from_vec(dims.clone(), t.data().to_vec());
            assert_placed(&adopted.clone(), "clone");
            assert_placed(&t.slice_along(1, 0, dims[1] - 1), "slice_along");
            assert_placed(&permute(&t, &[2, 0, 1]), "permute");
            assert_placed(&permute(&t, &[0, 1, 2]), "identity permute");
            assert_placed(&move_mode_first(&t, 1), "move_mode_first");
            assert_placed(&move_mode_last(&t, 0), "move_mode_last");
            // A shared run keeps the promise, or is not shared.
            let n = t.len();
            assert_placed(&t.share_run(0, dims.clone()).unwrap(), "share_run whole");
            assert!(
                t.share_run(1, vec![n - 1]).is_none(),
                "share_run off a line"
            );
            let tail = HUGE_BYTES / 8;
            let mut shared = 0;
            for (start, len) in [(8, n - 8), (n / 2, n / 2), (tail, n.saturating_sub(tail))] {
                if let Some(run) = t.share_run(start, vec![len]) {
                    assert_placed(&run, "share_run");
                    shared += 1;
                }
            }
            assert!(shared > 0, "a placed run is shared");

            let factor = |rows| Matrix::from_fn(rows, r, |i, j| ((i + 2 * j) % 5) as f64 - 2.0);
            let ws = Workspace::new();
            for lap in ["miss", "hit"] {
                let last = ttm_last_in(&ws, &t, &factor(dims[2]));
                assert_placed(&last, &format!("ttm_last {lap}"));
                assert_placed(
                    &ttm_first_in(&ws, &t, &factor(dims[0])),
                    &format!("ttm_first {lap}"),
                );
                assert_placed(
                    &ttm_at_in(&ws, &t, 1, &factor(dims[1])),
                    &format!("ttm_at {lap}"),
                );
                assert_placed(&ttm(&t, 1, &factor(dims[1])).tensor, "ttm");
                // An mTTV output as large as its input: a mode of extent 1.
                let inter = last.reshape(vec![dims[0] * dims[1], 1, r]);
                let out = mttv_in(&ws, &inter, 1, &factor(1)).tensor;
                assert_eq!(is_mapped(out.len() * 8), mapped, "mttv output size");
                assert_placed(&out, &format!("mttv {lap}"));
                let drawn = DenseTensor::from_buffer(dims.clone(), ws.draw(t.len()));
                assert_placed(&drawn, &format!("draw {lap}"));
                let drawn = DenseTensor::from_buffer(dims.clone(), ws.draw_zeroed(t.len()));
                assert_placed(&drawn, &format!("draw_zeroed {lap}"));
            }
            // (Release builds let the small case bypass the pool.)
            let s = ws.stats();
            if mapped || cfg!(debug_assertions) {
                assert!(s.draws > s.misses, "the second lap drew recycled buffers");
            }
        }
    }

    #[test]
    fn growth_across_the_size_rule_equals_the_tensor_built_whole() {
        // Rows of 4 KiB: from a quarter of the rule, through it, to more
        // than four times it (two doublings past the first move).
        let row = 512;
        let rows = 5 * MAP_MIN_BYTES / (8 * row);
        let whole = DenseTensor::from_fn(vec![rows, row], |idx| {
            (idx[0] * row + idx[1]) as f64 * 0.5 - 7.0
        });
        for start_adopted in [false, true] {
            let head = whole.slice_along(0, 0, rows / 20);
            let mut grown = if start_adopted {
                DenseTensor::from_vec(head.shape().clone(), head.into_vec())
            } else {
                head
            };
            let mut at = grown.dim(0);
            let mut moves = 0;
            while at < rows {
                let step = (rows / 16 + 1).min(rows - at);
                let before = grown.data().as_ptr();
                grown.append_leading(&whole.slice_along(0, at, step));
                moves += usize::from(grown.data().as_ptr() != before);
                at += step;
            }
            assert_eq!(grown.shape(), whole.shape());
            let bits =
                |t: &DenseTensor| -> Vec<u64> { t.data().iter().map(|x| x.to_bits()).collect() };
            assert_eq!(bits(&grown), bits(&whole));
            assert!(
                moves <= 7,
                "{moves} moves: growth is geometric, not per append"
            );
            if !start_adopted {
                assert_placed(&grown, "grown");
            }
        }
    }

    #[test]
    fn vec_round_trips() {
        // Adopted: the very allocation goes in and comes back out.
        let v: Vec<f64> = (0..24).map(|x| x as f64).collect();
        let (at, want) = (v.as_ptr(), v.clone());
        let t = DenseTensor::from_vec(vec![2, 3, 4], v);
        assert_eq!(t.data().as_ptr(), at, "from_vec does not copy");
        let back = t.into_vec();
        assert_eq!(back.as_ptr(), at, "nor does into_vec of an adopted Vec");
        assert_eq!(back, want);
        // Made in the crate: the elements come out by copy, under and over
        // the size rule.
        for n in [24, MAP_MIN_BYTES / 8 + 3] {
            let t = DenseTensor::from_fn(vec![n], |idx| idx[0] as f64 - 1.5);
            let want = t.data().to_vec();
            assert_eq!(t.clone().into_vec(), want);
            let again = DenseTensor::from_vec(vec![n], t.into_vec());
            assert_eq!(again.data(), &want[..]);
        }
        assert_eq!(DenseTensor::zeros(vec![0, 4]).into_vec(), Vec::<f64>::new());
    }

    fn bits(t: &DenseTensor) -> Vec<u64> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn clones_share_until_one_side_writes() {
        type Write = fn(&mut DenseTensor);
        let writes: [(&str, Write); 6] = [
            ("data_mut", |t| t.data_mut()[1] = -3.0),
            ("set", |t| t.set(&[0, 1], -3.0)),
            ("axpy", |t| {
                let ones = DenseTensor::from_fn(t.shape().clone(), |_| 1.0);
                t.axpy(0.5, &ones)
            }),
            ("scale", |t| t.scale(-2.0)),
            ("fill_zero", |t| t.fill_zero()),
            ("append_leading", |t| {
                let row = t.slice_along(0, 0, 1);
                t.append_leading(&row)
            }),
        ];
        // Under the size rule and over it.
        for rows in [3, MAP_MIN_BYTES / (8 * 64) + 1] {
            let make = || DenseTensor::from_fn(vec![rows, 64], |idx| (idx[0] * 64 + idx[1]) as f64);
            for (name, write) in writes {
                // What the write gives a sole owner, which writes in place
                // (growth may move, at its doubling).
                let mut alone = make();
                let at = alone.data().as_ptr();
                write(&mut alone);
                if name != "append_leading" {
                    assert_eq!(
                        alone.data().as_ptr(),
                        at,
                        "{name}: a sole owner writes in place"
                    );
                }
                for writer_is_the_clone in [false, true] {
                    let original = make();
                    let clone = original.clone();
                    let shared = original.data().as_ptr();
                    assert_eq!(clone.data().as_ptr(), shared, "a clone shares the store");
                    let (mut writer, reader) = if writer_is_the_clone {
                        (clone, original)
                    } else {
                        (original, clone)
                    };
                    write(&mut writer);
                    assert_eq!(bits(&reader), bits(&make()), "{name}: the reader's bits");
                    assert_eq!(
                        reader.data().as_ptr(),
                        shared,
                        "{name}: the reader keeps the store"
                    );
                    assert_ne!(writer.data().as_ptr(), shared, "{name}: the writer moves");
                    assert_eq!(bits(&writer), bits(&alone), "{name}: the write itself");
                    assert_placed(&writer, name);
                }
            }
        }
        // Shared runs: the two halves of a global, each on a cache line and
        // the large ones on a huge page.
        for rows in [3, HUGE_BYTES / (8 * 64)] {
            let global =
                DenseTensor::from_fn(vec![2 * rows, 64], |idx| (idx[0] * 64 + idx[1]) as f64);
            let run_len = rows * 64;
            for (name, write) in writes {
                for half in [0, 1] {
                    for last_holder in [false, true] {
                        let g = global.clone();
                        let mut runs = [0, run_len].map(|at| {
                            g.share_run(at, vec![rows, 64])
                                .expect("a placed run is shared")
                        });
                        runs.swap(0, half);
                        let [mut writer, sibling] = runs;
                        let at = g.data()[half * run_len..].as_ptr();
                        assert_eq!(writer.data().as_ptr(), at, "a run shares the store");
                        let mut alone = g.slice_along(0, half * rows, rows);
                        write(&mut alone);
                        let (g_at, sibling_at) = (g.data().as_ptr(), sibling.data().as_ptr());
                        let (want_g, want_sibling) = (bits(&g), bits(&sibling));
                        let held = if last_holder {
                            drop((g, sibling));
                            None
                        } else {
                            Some((g, sibling))
                        };
                        write(&mut writer);
                        let what = format!("{name} on run {half} of {rows} rows");
                        assert_ne!(writer.data().as_ptr(), at, "{what}: the writer moves");
                        assert_eq!(
                            (
                                writer.start,
                                writer.buf.len(),
                                Arc::strong_count(&writer.buf)
                            ),
                            (0, writer.len(), 1),
                            "{what}: the new buffer holds only the run"
                        );
                        assert_eq!(bits(&writer), bits(&alone), "{what}: the write itself");
                        assert_placed(&writer, &what);
                        if let Some((g, sibling)) = held {
                            assert_eq!(bits(&g), want_g, "{what}: the global's bits");
                            assert_eq!(bits(&sibling), want_sibling, "{what}: the sibling's");
                            assert_eq!(g.data().as_ptr(), g_at, "{what}: the global stays");
                            assert_eq!(sibling.data().as_ptr(), sibling_at, "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_run_reads_through_every_view_and_compares_by_contents() {
        let g = DenseTensor::from_fn(vec![4, 16], |idx| (idx[0] * 16 + idx[1]) as f64 - 9.5);
        let run = g.share_run(32, vec![2, 16]).unwrap();
        let copy = g.slice_along(0, 2, 2);
        assert_eq!(run.data(), &g.data()[32..]);
        assert_eq!((run.len(), run.is_empty()), (32, false));
        assert_eq!(format!("{run:?}"), "DenseTensor(2x16, 32 elems)");
        // Equality is contents and shape, never storage.
        assert_eq!(run, copy);
        assert_ne!(run, g.slice_along(0, 0, 2));
        assert_ne!(run, copy.clone().reshape(vec![4, 8]));
        assert_eq!(run.clone().into_vec(), g.data()[32..].to_vec());
        // A reshape keeps sharing; a run of a run adds the offsets.
        let flat = run.clone().reshape(vec![4, 8]);
        assert_eq!(flat.data().as_ptr(), run.data().as_ptr());
        assert_eq!(flat.get(&[3, 7]), g.data()[63]);
        let row = flat.share_run(16, vec![16]).unwrap();
        assert_eq!(row.data(), &g.data()[48..]);
        assert_eq!(row.slice_along(0, 2, 3).data(), &g.data()[50..53]);
        // Growth reads the run and writes a store of its own.
        let mut grown = run.clone();
        grown.append_leading(&g.slice_along(0, 0, 1));
        assert_eq!(grown.data()[..32], g.data()[32..]);
        assert_eq!(grown.data()[32..], g.data()[..16]);
        assert_eq!(run.data(), &g.data()[32..], "the run itself is untouched");
        // Not shared: off a cache line, past the end, an adopted `Vec`.
        assert!(g.share_run(1, vec![16]).is_none());
        assert!(g.share_run(56, vec![16]).is_none());
        assert!(g.share_run(usize::MAX, vec![16]).is_none());
        let adopted = DenseTensor::from_vec(vec![4, 16], g.data().to_vec());
        assert!(adopted.share_run(0, vec![2, 16]).is_none());
        // A run from the size rule up only on a huge page.
        let big = DenseTensor::zeros(vec![3 * HUGE_BYTES / 8]);
        let huge = HUGE_BYTES / 8;
        assert!(big.share_run(huge, vec![huge]).is_some());
        assert_eq!(
            big.share_run(8, vec![huge]).is_some(),
            !is_mapped(HUGE_BYTES),
            "a mapped-size run off a huge page is copied"
        );
        assert!(big.share_run(8, vec![huge - 8]).is_some());
    }

    #[test]
    fn into_vec_of_a_shared_tensor_copies_and_leaves_the_other_intact() {
        for n in [24, MAP_MIN_BYTES / 8 + 3] {
            let t = DenseTensor::from_fn(vec![n], |idx| idx[0] as f64 * 0.75 - 2.0);
            let want = bits(&t);
            let v = t.clone().into_vec();
            assert_eq!(v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), want);
            assert_eq!(bits(&t), want);
            assert_placed(&t, "the other side");
        }
    }

    #[test]
    fn a_shared_workspace_buffer_goes_home_once_on_the_last_drop() {
        let len = 1 << 17; // pooled in release builds too
        let ws = Workspace::new();
        let a = DenseTensor::from_buffer(vec![len], ws.draw_zeroed(len));
        let addr = a.data().as_ptr();
        let b = a.clone();
        let s = ws.stats();
        assert_eq!((s.draws, s.live_elems, s.held_elems), (1, len, 0));
        drop(a);
        assert_eq!(ws.stats().live_elems, len, "the clone still holds it");
        // A writer leaves with a copy that has no home.
        let mut c = b.clone();
        c.scale(2.0);
        drop(c);
        assert_eq!(ws.stats().held_elems, 0);
        drop(b);
        let s = ws.stats();
        assert_eq!((s.live_elems, s.held_elems), (0, len), "home exactly once");
        assert_eq!(ws.draw(len).as_ptr(), addr, "and drawn again");
        let s = ws.stats();
        assert_eq!((s.draws, s.misses, s.high_water_bufs), (2, 1, 1));
    }

    #[test]
    fn zeros_and_set_get() {
        let mut t = DenseTensor::zeros(vec![2, 3]);
        t.set(&[1, 2], 5.0);
        assert_eq!(t.get(&[1, 2]), 5.0);
        assert_eq!(t.get(&[0, 0]), 0.0);
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn from_fn_layout() {
        let t = DenseTensor::from_fn(vec![2, 2], |idx| (idx[0] * 10 + idx[1]) as f64);
        assert_eq!(t.data(), &[0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    fn norms_and_inner() {
        let t = DenseTensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert!((t.norm_sq() - 30.0).abs() < 1e-12);
        let u = DenseTensor::from_vec(vec![2, 2], vec![1.0, 1.0, 1.0, 1.0]);
        assert!((t.inner(&u) - 10.0).abs() < 1e-12);
    }

    /// The bits of one serial pass over `t`'s elements.
    fn serial_norm_sq(t: &DenseTensor) -> u64 {
        t.data().iter().map(|x| x * x).sum::<f64>().to_bits()
    }

    /// The fingerprint `t` remembers, if any.
    fn remembered_print(t: &DenseTensor) -> Option<u64> {
        t.known.fingerprint.get().copied()
    }

    /// The fingerprint of `t`'s elements, hashed by a new tensor that
    /// remembers nothing.
    fn fresh_fingerprint(t: &DenseTensor) -> u64 {
        DenseTensor::from_vec(t.shape().clone(), t.data().to_vec()).fingerprint()
    }

    /// `t` remembers no ‖T‖² and no fingerprint; asked, it computes and
    /// keeps the serial sum and the hash of its elements.
    fn assert_forgot(t: &DenseTensor, what: &str) {
        assert_eq!(t.remembered_norm_sq(), None, "{what}: still remembered");
        assert_eq!(remembered_print(t), None, "{what}: fingerprint");
        assert_eq!(t.norm_sq().to_bits(), serial_norm_sq(t), "{what}");
        let kept = t.remembered_norm_sq().map(f64::to_bits);
        assert_eq!(kept, Some(serial_norm_sq(t)), "{what}: kept");
        assert_eq!(t.fingerprint(), fresh_fingerprint(t), "{what}");
        assert_eq!(remembered_print(t), Some(fresh_fingerprint(t)));
    }

    /// Values whose squares sum to other bits in another order.
    fn uneven(dims: Vec<usize>) -> DenseTensor {
        let mut lin = 0;
        DenseTensor::from_fn(dims, |_| {
            lin += 1;
            (lin as f64 * 0.37).sin() * 10f64.powi(lin % 7 - 3)
        })
    }

    #[test]
    fn every_write_forgets_the_remembered_norm() {
        type Write = fn(&mut DenseTensor);
        let writes: [(&str, Write); 7] = [
            ("data_mut", |t| t.data_mut()[3] = 7.5),
            ("set", |t| t.set(&[0, 1, 2], -2.25)),
            ("axpy", |t| {
                let u = uneven(t.shape().dims().to_vec());
                t.axpy(0.5, &u)
            }),
            ("scale", |t| t.scale(2.0)),
            ("fill_zero", DenseTensor::fill_zero),
            ("append_leading", |t| {
                let head = t.slice_along(0, 0, 1);
                t.append_leading(&head)
            }),
            ("append_leading_with", |t| {
                t.append_leading_with(2, |tail| tail.fill(3.0));
            }),
        ];
        for (what, write) in writes {
            // Sole owner of a store, of an adopted `Vec`, and a side of a
            // shared buffer.
            let store = uneven(vec![3, 4, 5]);
            let adopted = DenseTensor::from_vec(vec![3, 4, 5], store.data().to_vec());
            for (start, mut t) in [("store", store.clone()), ("adopted", adopted)] {
                let other = t.clone();
                for shared in [true, false] {
                    let what = format!("{what} on a {start}, shared {shared}");
                    let before = t.norm_sq();
                    assert_eq!(t.remembered_norm_sq(), Some(before), "{what}");
                    let print = t.fingerprint();
                    let held = shared.then(|| t.clone());
                    write(&mut t);
                    assert_forgot(&t, &what);
                    if let Some(held) = held {
                        assert_eq!(held.remembered_norm_sq(), Some(before), "{what}");
                        assert_eq!(remembered_print(&held), Some(print), "{what}");
                    }
                    t = other.clone();
                }
            }
        }
    }

    #[test]
    fn a_clone_carries_the_norm_and_a_write_to_one_side_forgets_only_there() {
        for t in [
            uneven(vec![4, 3, 5]),
            DenseTensor::from_vec(vec![4, 3, 5], uneven(vec![4, 3, 5]).into_vec()),
        ] {
            let norm = t.norm_sq();
            assert_eq!(norm.to_bits(), serial_norm_sq(&t));
            let mut c = t.clone();
            assert_eq!(c.remembered_norm_sq(), Some(norm), "the clone carries it");
            c.scale(3.0);
            assert_forgot(&c, "the written clone");
            assert_eq!(t.remembered_norm_sq(), Some(norm), "the other side");
            let mut t = t;
            let c = t.clone();
            t.data_mut()[0] = -1.0;
            assert_forgot(&t, "the written original");
            assert_eq!(c.remembered_norm_sq(), Some(norm), "the clone");
            assert_eq!(norm.to_bits(), serial_norm_sq(&c));
        }
    }

    #[test]
    fn a_clone_carries_the_fingerprint_it_was_made_with() {
        // What the original remembered when the clone was made, the clone
        // remembers; what one side computes after stays on that side.
        for t in [
            uneven(vec![4, 3, 5]),
            DenseTensor::from_vec(vec![4, 3, 5], uneven(vec![4, 3, 5]).into_vec()),
        ] {
            let early = t.clone();
            let print = t.fingerprint();
            assert_eq!(print, fresh_fingerprint(&t));
            assert_eq!(remembered_print(&early), None, "made before");
            let mut late = t.clone();
            assert_eq!(remembered_print(&late), Some(print), "made after");
            late.scale(-1.0);
            assert_forgot(&late, "the written clone");
            assert_eq!(remembered_print(&t), Some(print), "the other side");
            assert_eq!(early.fingerprint(), print);
        }
    }

    #[test]
    fn reshape_keeps_the_norm_and_runs_and_slices_start_without_it() {
        let t = uneven(vec![4, 6, 8]);
        let norm = t.norm_sq();
        let print = t.fingerprint();
        let r = t.clone().reshape(vec![24, 8]);
        assert_eq!(r.remembered_norm_sq(), Some(norm), "reshape");
        // The fingerprint hashes the dims: the reshaped tensor's is its own.
        assert_eq!(remembered_print(&r), None, "reshape");
        assert_eq!(r.fingerprint(), fresh_fingerprint(&r));
        assert_ne!(r.fingerprint(), print);
        assert_eq!(remembered_print(&t), Some(print), "the original");
        for (start, len) in [(0, t.len()), (8, t.len() - 8), (64, 64)] {
            let run = t.share_run(start, vec![len]).expect("a placed run");
            assert_forgot(&run, &format!("share_run {start}+{len}"));
        }
        assert_forgot(&t.slice_along(1, 1, 3), "slice_along");
        assert_forgot(&t.slice_along(0, 0, 4), "slice_along whole");
        assert_eq!(t.remembered_norm_sq(), Some(norm));
    }

    #[test]
    fn a_fused_pass_hands_over_the_serial_norm() {
        let u = uneven(vec![5, 4, 3]);
        // A sole owner, a side of a shared buffer, and a run of a longer one.
        for start in ["store", "shared", "run"] {
            let held = uneven(vec![if start == "run" { 7 } else { 5 }, 4, 3]);
            held.norm_sq();
            let fresh = || match start {
                "store" => uneven(vec![5, 4, 3]),
                "shared" => held.clone(),
                _ => held.share_run(16, vec![5, 4, 3]).expect("a placed run"),
            };
            let mut t = fresh();
            let got = t.axpy_norm_sq(-0.75, &u);
            let mut want = fresh();
            want.axpy(-0.75, &u);
            assert_eq!(t.data(), want.data(), "axpy_norm_sq on a {start}");
            assert_eq!(
                got.to_bits(),
                serial_norm_sq(&t),
                "axpy_norm_sq on a {start}"
            );
            assert_eq!(t.remembered_norm_sq(), Some(got));

            let mut t = fresh();
            let mut k = 0.0;
            let got = t.map_norm_sq(|x| {
                k += 1.0;
                x * 1.5 - k
            });
            assert_eq!(
                got.to_bits(),
                serial_norm_sq(&t),
                "map_norm_sq on a {start}"
            );
            assert_eq!(t.remembered_norm_sq(), Some(got));
            let kept = held.remembered_norm_sq().map(f64::to_bits);
            assert_eq!(kept, Some(serial_norm_sq(&held)), "the other side");
        }
        // The empty sum keeps its sign, as `Iterator::sum` gives it.
        let mut e = DenseTensor::zeros(vec![3, 0]);
        let got = e.map_norm_sq(|x| x);
        assert_eq!(got.to_bits(), serial_norm_sq(&e));
    }

    #[test]
    fn axpy_scale() {
        let mut t = DenseTensor::from_vec(vec![2], vec![1.0, 2.0]);
        let u = DenseTensor::from_vec(vec![2], vec![10.0, 20.0]);
        t.axpy(0.5, &u);
        assert_eq!(t.data(), &[6.0, 12.0]);
        t.scale(2.0);
        assert_eq!(t.data(), &[12.0, 24.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = DenseTensor::from_vec(vec![2, 3], vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let r = t.reshape(vec![3, 2]);
        assert_eq!(r.get(&[2, 1]), 5.0);
    }

    #[test]
    #[should_panic]
    fn reshape_bad_len_panics() {
        let t = DenseTensor::zeros(vec![2, 3]);
        let _ = t.reshape(vec![4, 2]);
    }

    #[test]
    fn slice_then_append_roundtrips_the_leading_mode() {
        let t = DenseTensor::from_fn(vec![4, 3, 5], |idx| {
            (idx[0] * 100 + idx[1] * 10 + idx[2]) as f64
        });
        for cut in 1..t.dim(0) {
            let mut grown = t.slice_along(0, 0, cut);
            grown.append_leading(&t.slice_along(0, cut, t.dim(0) - cut));
            assert_eq!(grown.shape().dims(), t.shape().dims());
            assert_eq!(grown.data(), t.data(), "cut {cut}");
        }
    }

    #[test]
    fn slice_along_picks_the_right_elements() {
        let t = DenseTensor::from_fn(vec![2, 3, 2], |idx| {
            (idx[0] * 100 + idx[1] * 10 + idx[2]) as f64
        });
        let s = t.slice_along(1, 1, 2);
        assert_eq!(s.shape().dims(), &[2, 2, 2]);
        for i in 0..2 {
            for j in 0..2 {
                for k in 0..2 {
                    assert_eq!(s.get(&[i, j, k]), t.get(&[i, j + 1, k]));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "extent mismatch")]
    fn append_rejects_mismatched_trailing_extents() {
        let mut a = DenseTensor::zeros(vec![2, 3]);
        let b = DenseTensor::zeros(vec![2, 4]);
        a.append_leading(&b);
    }
}
