//! The input tensor, stored in exactly one layout.
//!
//! Every first-level dimension-tree contraction (TTM) contracts its mode
//! where it sits in that layout: the first mode with `ttm_first`, the last
//! with `ttm_last`, and any interior mode with `ttm_at` — one transposed
//! GEMM per slab of the modes in front of it. None moves data, so MSDT,
//! which makes every mode the first-contracted one in turn, needs no more
//! than the standard tree does. (The paper's implementation stores permuted
//! copies of the input for MSDT instead, §IV; its Table I cost model never
//! counted them.)
//!
//! A fixed input keeps the canonical mode order. A **streaming** input
//! ([`InputTensor::evolving`]) grows along one mode `e` and is stored
//! `[e, others ascending]`, so appending a slice is a tail append and every
//! intermediate that keeps `e` keeps it in front. The layout is a pure
//! function of (order, `e`) — never of arrival history. An arriving slice
//! is laid out straight into the input's grown tail
//! ([`InputTensor::append_evolving`]), and read back from there.
//!
//! A **sparse** input ([`InputTensor::new_sparse`]) stores no dense layout
//! and makes no first-level contraction: it holds the sorted COO, whose
//! CSF forest (one fiber tree per mode) the tensor itself keeps, so every
//! input over one tensor or its clones reads one forest. Every method runs
//! on the forest — each MTTKRP is one direct sparse MTTKRP, and each PP
//! pair operator one walk of a tree.

use pp_tensor::kernels::ttm::ttm_at_in;
use pp_tensor::sparse::SparseTensor;
use pp_tensor::transpose::{move_mode_first, move_mode_first_into, permute};
use pp_tensor::{DenseTensor, Matrix, Workspace};
use std::borrow::Cow;
use std::time::{Duration, Instant};

/// The CP input tensor in its one stored layout, with a uniform "contract
/// one mode" entry point. A sparse-backed input stores no dense layout; the
/// engine routes its MTTKRPs through the CSF kernel instead.
pub struct InputTensor {
    /// `mode_order[k]` = which original tensor mode sits at position `k`
    /// of the stored layout (canonical for fixed and sparse inputs).
    mode_order: Vec<usize>,
    dense: Option<DenseTensor>,
    sparse: Option<SparseTensor>,
    /// The mode a streaming input grows along; it heads the layout.
    evolving: Option<usize>,
}

/// Outcome of a first-level contraction.
pub struct FirstLevel {
    /// The intermediate `𝓜^(rest)`, rank trailing.
    pub tensor: DenseTensor,
    /// Original tensor modes of the result, in the result's layout order.
    pub mode_order: Vec<usize>,
    /// Flops spent.
    pub flops: u64,
    /// Contraction time.
    pub ttm_time: Duration,
}

impl InputTensor {
    /// Wrap a tensor in its canonical layout.
    pub fn new(t: DenseTensor) -> Self {
        InputTensor {
            mode_order: (0..t.order()).collect(),
            dense: Some(t),
            sparse: None,
            evolving: None,
        }
    }

    /// Wrap a sparse tensor: reads the CSF forest (one fiber tree per
    /// mode) the engine's sparse MTTKRP fast path and the PP pair walks
    /// run over, which the tensor builds on its first request and keeps
    /// ([`SparseTensor::csf`]). No dense layout is materialized.
    pub fn new_sparse(sp: SparseTensor) -> Self {
        sp.csf();
        InputTensor {
            mode_order: (0..sp.order()).collect(),
            dense: None,
            sparse: Some(sp),
            evolving: None,
        }
    }

    /// The same as [`InputTensor::new_sparse`]: every sparse input runs on
    /// the CSF forest, whatever the tree policy.
    pub fn new_sparse_chained(sp: SparseTensor) -> Self {
        Self::new_sparse(sp)
    }

    /// The sparse tensor, when this input is sparse; its forest is
    /// [`SparseTensor::csf`].
    pub fn sparse(&self) -> Option<&SparseTensor> {
        self.sparse.as_ref()
    }

    /// Whether this input is sparse-backed.
    pub fn is_sparse(&self) -> bool {
        self.sparse.is_some()
    }

    /// The same as [`InputTensor::new`]: MSDT contracts every mode in
    /// place, so it stores no copies.
    pub fn with_msdt_copies(t: DenseTensor) -> Self {
        Self::new(t)
    }

    /// Lay `t` out for **growth along mode `e`**: `[e, others ascending]`
    /// (see the module docs), built from the borrowed tensor in one
    /// de-interleaving pass. Used alike for the initial tensor, a tensor
    /// rebuilt at resume, and each arriving slice — the slice's layout then
    /// mirrors the input's, so an append is a tail append and a slice
    /// contraction is the row-for-row sub-computation of the full one.
    pub fn evolving(t: &DenseTensor, e: usize) -> Self {
        let order = t.order();
        assert!(
            e < order,
            "evolving mode {e} out of range for order {order}"
        );
        InputTensor {
            mode_order: std::iter::once(e)
                .chain((0..order).filter(|&m| m != e))
                .collect(),
            dense: Some(move_mode_first(t, e)),
            sparse: None,
            evolving: Some(e),
        }
    }

    /// The mode a streaming input grows along ([`InputTensor::evolving`]).
    pub(crate) fn evolving_mode(&self) -> Option<usize> {
        self.evolving
    }

    /// The stored dense layout (`None` when sparse-backed).
    pub fn dense(&self) -> Option<&DenseTensor> {
        self.dense.as_ref()
    }

    /// Tensor order.
    pub fn order(&self) -> usize {
        self.mode_order.len()
    }

    /// The dense layout; panics on a sparse-backed input.
    fn layout(&self) -> &DenseTensor {
        self.dense
            .as_ref()
            .expect("sparse input has no dense layout")
    }

    /// Position of original mode `m` in the stored layout.
    fn position(&self, m: usize) -> usize {
        self.mode_order.iter().position(|&x| x == m).unwrap()
    }

    /// Extent of original mode `m`.
    pub fn dim(&self, m: usize) -> usize {
        match &self.sparse {
            Some(sp) => sp.dim(m),
            None => self.layout().dim(self.position(m)),
        }
    }

    /// The tensor in the canonical ascending-mode order — borrowed when the
    /// layout already is canonical, un-permuted from it otherwise (a
    /// streaming input leads with its evolving mode). Panics on a
    /// sparse-backed input (which stores no dense layout); see
    /// [`InputTensor::sparse`].
    pub fn canonical(&self) -> Cow<'_, DenseTensor> {
        let layout = self.layout();
        if self.mode_order.iter().enumerate().all(|(k, &m)| k == m) {
            return Cow::Borrowed(layout);
        }
        let to_canonical: Vec<usize> = (0..self.order()).map(|m| self.position(m)).collect();
        Cow::Owned(permute(layout, &to_canonical))
    }

    /// Number of stored dense layouts: 1, or 0 when sparse-backed.
    pub fn layout_count(&self) -> usize {
        usize::from(self.dense.is_some())
    }

    /// Stored elements: dense volume, or `nnz` when sparse.
    pub fn len(&self) -> usize {
        match &self.sparse {
            Some(sp) => sp.nnz(),
            None => self.layout().len(),
        }
    }

    /// True if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Contract original mode `mode` with `factor` (first-level TTM) in
    /// place in the stored layout.
    pub fn contract_mode(&self, mode: usize, factor: &Matrix) -> FirstLevel {
        self.contract_mode_in(&Workspace::unpooled(), mode, factor)
    }

    /// [`InputTensor::contract_mode`] with the result drawn from `ws`.
    /// Panics on a sparse input, whose MTTKRPs bypass the dimension tree
    /// and so never ask for a first-level contraction.
    pub fn contract_mode_in(&self, ws: &Workspace, mode: usize, factor: &Matrix) -> FirstLevel {
        assert!(mode < self.order());
        let t0 = Instant::now();
        // Contract the mode where it sits; the rest keep their order.
        let at = self.position(mode);
        let mut mode_order = self.mode_order.clone();
        mode_order.remove(at);
        let tensor = ttm_at_in(ws, self.layout(), at, factor);
        FirstLevel {
            tensor,
            mode_order,
            flops: 2 * self.len() as u64 * factor.cols() as u64,
            ttm_time: t0.elapsed(),
        }
    }

    /// Grow original mode `e` by appending `slice` (given in the canonical
    /// ascending-mode layout). An input not yet laid out for growth along
    /// `e` re-lays itself out once through [`InputTensor::evolving`]; from
    /// then on every call is the O(slice) [`InputTensor::append_evolving`].
    /// Dense inputs only.
    pub fn extend_mode(&mut self, e: usize, slice: &DenseTensor) {
        assert!(self.sparse.is_none(), "streaming growth is dense-only");
        assert_eq!(slice.order(), self.order(), "slice order mismatch");
        if self.evolving != Some(e) {
            *self = InputTensor::evolving(&self.canonical(), e);
        }
        self.append_evolving(slice);
    }

    /// Grow a streaming input along its evolving mode by `slice` (given in
    /// the canonical ascending-mode layout), laid out straight into the
    /// input's grown tail: one de-interleaving pass, a tail append in
    /// place. Returns the slice as an input laid out like this one — a
    /// shared run of that tail ([`DenseTensor::share_run`]) where the run
    /// is placed, a copy of it where it is not (a run of 2 MiB or more off
    /// a huge page). The shared run holds this input's storage: drop it
    /// before the next append, or that append copies the whole input.
    pub fn append_evolving(&mut self, slice: &DenseTensor) -> InputTensor {
        let e = self
            .evolving
            .expect("append_evolving needs an input laid out along an evolving mode");
        assert_eq!(slice.order(), self.order(), "slice order mismatch");
        for (k, &m) in self.mode_order.iter().enumerate().skip(1) {
            assert_eq!(
                slice.dim(m),
                self.layout().dim(k),
                "slice extent of mode {m}"
            );
        }
        let layout = self.dense.as_mut().expect("evolving inputs are dense");
        let (at, rows) = (layout.len(), slice.dim(e));
        layout.append_leading_with(rows, |tail| move_mode_first_into(slice, e, tail));
        let mut dims = layout.shape().dims().to_vec();
        dims[0] = rows;
        let tail = layout
            .share_run(at, dims)
            .unwrap_or_else(|| layout.slice_along(0, layout.dim(0) - rows, rows));
        InputTensor {
            mode_order: self.mode_order.clone(),
            dense: Some(tail),
            sparse: None,
            evolving: Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_tensor::kernels::ttm::ttm;
    use pp_tensor::Shape;

    fn seq_tensor(dims: Vec<usize>) -> DenseTensor {
        let shape = Shape::new(dims);
        let len = shape.len();
        DenseTensor::from_vec(
            shape,
            (0..len)
                .map(|x| ((x * 37) % 19) as f64 / 7.0 - 1.0)
                .collect(),
        )
    }

    fn factor(rows: usize, r: usize) -> Matrix {
        Matrix::from_fn(rows, r, |i, j| ((i * 5 + j * 3) % 13) as f64 / 6.0 - 1.0)
    }

    /// Map a FirstLevel result (arbitrary mode order) back to the canonical
    /// ascending-mode layout for comparison.
    fn canonicalize(fl: &FirstLevel) -> DenseTensor {
        // Result tensor dims: [modes in fl.mode_order..., R].
        let m = fl.mode_order.len();
        let mut sorted: Vec<usize> = fl.mode_order.clone();
        sorted.sort_unstable();
        // perm[k] = position in fl's layout of the k-th canonical mode.
        let mut perm: Vec<usize> = sorted
            .iter()
            .map(|m0| fl.mode_order.iter().position(|x| x == m0).unwrap())
            .collect();
        perm.push(m); // rank mode stays last
        permute(&fl.tensor, &perm)
    }

    /// One tensor of each order 2–5.
    fn tensors() -> Vec<DenseTensor> {
        [
            vec![3, 4],
            vec![3, 4, 5],
            vec![3, 4, 5, 2],
            vec![2, 3, 2, 3, 2],
        ]
        .into_iter()
        .map(seq_tensor)
        .collect()
    }

    #[test]
    fn msdt_copy_count_matches_paper() {
        // The paper (§IV) stores one permuted copy at orders 3–4 and two at
        // order 5; its Table I cost model counts none. Here an MSDT input
        // stores no copy at any order: one layout, the canonical one.
        for t in tensors() {
            let order = t.order();
            let msdt = InputTensor::with_msdt_copies(t.clone());
            assert_eq!(msdt.layout_count(), 1, "order {order}");
            assert_eq!(msdt.mode_order, (0..order).collect::<Vec<_>>());
            assert_eq!(msdt.len(), t.len());
            assert!(matches!(msdt.canonical(), Cow::Borrowed(_)));
            for e in 0..order {
                assert_eq!(InputTensor::evolving(&t, e).layout_count(), 1);
            }
        }
        let sp = SparseTensor::from_coo(vec![2, 3], vec![0, 1, 1, 2], vec![1.0, 2.0]);
        assert_eq!(InputTensor::new_sparse(sp).layout_count(), 0);
    }

    #[test]
    fn a_fixed_input_shares_the_callers_tensor() {
        // A session wraps `t.clone()`: the same store, never written. Growth
        // moves the input to a copy of its own and leaves the caller's alone.
        for t in tensors() {
            let t = t.clone(); // onto the store: an adopted `Vec` is copied
            let want = t.data().to_vec();
            let mut input = InputTensor::new(t.clone());
            assert_eq!(input.layout().data().as_ptr(), t.data().as_ptr());
            for mode in 0..t.order() {
                let _ = input.contract_mode(mode, &factor(t.dim(mode), 2));
            }
            assert_eq!(input.layout().data().as_ptr(), t.data().as_ptr());
            input.extend_mode(0, &t.slice_along(0, 0, 1));
            assert_ne!(input.layout().data().as_ptr(), t.data().as_ptr());
            assert_eq!(t.data(), &want[..]);
        }
    }

    #[test]
    fn plain_input_transposes_middle_modes() {
        // No longer: a plain input plans every interior mode at its own
        // position over the one stored tensor (no transposed copy), and the
        // in-place contraction is the oracle's, bit for bit.
        for base in tensors().into_iter().filter(|t| t.order() >= 3) {
            let input = InputTensor::new(base.clone());
            for mode in 1..base.order() - 1 {
                assert_eq!(input.position(mode), mode);
                let a = factor(base.dim(mode), 2);
                let fl = input.contract_mode(mode, &a);
                let want = ttm(&base, mode, &a).tensor;
                assert_eq!(fl.tensor.data(), want.data(), "mode {mode}");
            }
        }
    }

    #[test]
    fn transpose_caching_learns_layouts() {
        // Nothing is learned: contracting every mode leaves the one stored
        // tensor as it was, and growth keeps the count at one.
        for t in tensors() {
            let order = t.order();
            let mut inputs = vec![
                InputTensor::new(t.clone()),
                InputTensor::with_msdt_copies(t.clone()),
            ];
            inputs.extend((0..order).map(|e| InputTensor::evolving(&t, e)));
            for mut input in inputs {
                let stored = input.layout().data().as_ptr();
                for mode in 0..order {
                    let _ = input.contract_mode(mode, &factor(t.dim(mode), 2));
                }
                assert_eq!(input.layout_count(), 1, "order {order}");
                assert_eq!(stored, input.layout().data().as_ptr());
                input.extend_mode(order - 1, &t.slice_along(order - 1, 0, 1));
                assert_eq!(input.layout_count(), 1, "order {order}");
            }
        }
    }

    #[test]
    fn contract_all_modes_matches_ttm_oracle() {
        // A fixed input contracts every mode where it sits in the canonical
        // layout: the remaining modes stay ascending and every element is
        // the oracle's, bit for bit.
        for base in tensors() {
            for input in [
                InputTensor::new(base.clone()),
                InputTensor::with_msdt_copies(base.clone()),
            ] {
                for mode in 0..base.order() {
                    let a = factor(base.dim(mode), 3);
                    let fl = input.contract_mode(mode, &a);
                    let rest: Vec<usize> = (0..base.order()).filter(|&m| m != mode).collect();
                    assert_eq!(fl.mode_order, rest);
                    let want = ttm(&base, mode, &a).tensor;
                    assert_eq!(fl.tensor.data(), want.data(), "mode {mode}");
                }
            }
        }
    }

    #[test]
    fn evolving_layouts_lead_with_the_evolving_mode() {
        // `[e, others ascending]`, whatever the order and `e`; one layout,
        // and the canonical tensor comes back unchanged.
        for t in tensors() {
            for e in 0..t.order() {
                let input = InputTensor::evolving(&t, e);
                let mut want = vec![e];
                want.extend((0..t.order()).filter(|&m| m != e));
                assert_eq!(input.mode_order, want);
                assert_eq!(input.layout_count(), 1);
                assert_eq!(input.canonical().data(), t.data());
                assert!((0..t.order()).all(|m| input.dim(m) == t.dim(m)));
            }
        }
    }

    #[test]
    fn evolving_input_contracts_every_mode_without_a_transpose() {
        for base in tensors() {
            for e in 0..base.order() {
                let input = InputTensor::evolving(&base, e);
                for mode in 0..base.order() {
                    let a = factor(base.dim(mode), 3);
                    let fl = input.contract_mode(mode, &a);
                    let want = ttm(&base, mode, &a).tensor;
                    assert_eq!(
                        canonicalize(&fl).data(),
                        want.data(),
                        "{:?} e={e} mode {mode}",
                        base.shape()
                    );
                    if mode != e {
                        assert_eq!(fl.mode_order[0], e, "e must stay in front");
                    }
                }
            }
        }
    }

    #[test]
    fn an_appended_slice_reads_back_from_the_inputs_tail() {
        // 4×3×5 along mode 1: 20 elements a step, so a tail starts on a
        // cache line (8 elements) every second step and is shared there;
        // elsewhere it is a copy. Either way it is the slice's layout.
        let whole = seq_tensor(vec![4, 6, 5]);
        let e = 1;
        let mut input = InputTensor::evolving(&whole.slice_along(e, 0, 2), e);
        for (i, rows) in [(2, 1), (3, 2), (5, 1)] {
            let slice = whole.slice_along(e, i, rows);
            let tail = input.append_evolving(&slice);
            let want = InputTensor::evolving(&slice, e);
            assert_eq!(tail.mode_order, want.mode_order);
            assert_eq!(tail.layout(), want.layout(), "step {i}");
            let at = input.layout().data()[i * 20..].as_ptr();
            let shared = tail.layout().data().as_ptr() == at;
            assert_eq!(shared, (i * 20) % 8 == 0, "step {i}");
        }
        assert_eq!(input.canonical().data(), whole.data());
    }

    #[test]
    fn appends_reproduce_the_layouts_of_the_whole_tensor() {
        for dims in [vec![4, 3, 5], vec![3, 4, 2, 5], vec![2, 3, 2, 4, 2]] {
            let whole = seq_tensor(dims.clone());
            for e in 0..dims.len() {
                // Start canonical (the re-layout path), then one row of `e`
                // at a time.
                let mut grown = InputTensor::new(whole.slice_along(e, 0, 1));
                for i in 1..dims[e] {
                    grown.extend_mode(e, &whole.slice_along(e, i, 1));
                }
                let built = InputTensor::evolving(&whole, e);
                assert_eq!(grown.mode_order, built.mode_order);
                let (g, b) = (grown.layout(), built.layout());
                assert_eq!(g.shape(), b.shape());
                assert_eq!(g.data(), b.data(), "{dims:?} e={e}");
            }
        }
    }
}
