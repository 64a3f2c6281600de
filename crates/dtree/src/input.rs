//! The input tensor with optional pre-permuted copies.
//!
//! First-level dimension-tree contractions (TTMs) are free of data movement
//! only when the contracted mode is the first or last mode of some stored
//! layout. The standard dimension tree only ever contracts extreme modes,
//! so it needs no copies; MSDT cycles through *every* mode as the
//! first-level contraction, so the paper's implementation stores permuted
//! copies of the input tensor to avoid per-sweep transposes (§IV). One copy
//! suffices for orders 3 and 4 (each copy exposes two more modes: one
//! first, one last).
//!
//! A **streaming** input ([`InputTensor::evolving`]) grows along one mode
//! `e`, so every one of its layouts is `[e, a, ..., b]`: appending a slice
//! is a tail append on each layout, `e` contracts with `ttm_first`, `b`
//! with `ttm_last`, and `a` with `ttm_first_batched` (one transposed GEMM
//! per `e`-slab). Each layout exposes two modes besides `e`, so orders up
//! to 3 need one layout and orders 4 and 5 two. The layouts are a pure
//! function of (order, `e`, copies or not) — never of arrival history.

use crate::cache::Payload;
use pp_tensor::kernels::ttm::{ttm_first_batched_in, ttm_first_in, ttm_last_in};
use pp_tensor::semisparse::{csf_ttm_in, TtmPlan};
use pp_tensor::sparse::{CsfTensor, SparseTensor};
use pp_tensor::transpose::{move_mode_first, permute};
use pp_tensor::{DenseTensor, Matrix, Workspace};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One stored layout: a permutation of the base tensor's modes. The
/// tensor sits behind an `Arc` so a [`ContractPlan`] can ship it to a pool
/// worker (cross-mode lookahead) without copying gigabytes.
struct Layout {
    /// `mode_order[k]` = which original tensor mode sits at position `k`.
    mode_order: Vec<usize>,
    tensor: Arc<DenseTensor>,
}

/// The mode orders an input stores, base layout first. `lead` is the
/// evolving mode of a streaming input (it heads every layout) or `None`
/// for a fixed one. The base keeps the remaining modes ascending, which
/// makes the first and the last of them contractible; with `copies`, the
/// modes in between are covered pairwise by `[lead, a, ..., b]` layouts.
fn layout_orders(order: usize, lead: Option<usize>, copies: bool) -> Vec<Vec<usize>> {
    let others: Vec<usize> = (0..order).filter(|&m| Some(m) != lead).collect();
    let with_lead = |tail: Vec<usize>| -> Vec<usize> { lead.into_iter().chain(tail).collect() };
    let mut orders = vec![with_lead(others.clone())];
    if copies {
        let mut uncovered: Vec<usize> = others
            .get(1..others.len().saturating_sub(1))
            .unwrap_or_default()
            .to_vec();
        while !uncovered.is_empty() {
            let a = uncovered.remove(0);
            let b = uncovered.pop();
            let mut tail = vec![a];
            tail.extend(others.iter().filter(|&&m| m != a && Some(m) != b));
            tail.extend(b);
            orders.push(with_lead(tail));
        }
    }
    orders
}

/// A sparse input: the sorted-coordinate ingest form plus either the CSF
/// forest the direct sparse-MTTKRP fast path runs over (`method=dt`), or
/// per-mode semi-sparse TTM plans that let the dimension-tree engine plan
/// first-level contractions over the sparse representation (`pp`/`msdt`).
/// Shared by `Arc` so sessions can hand it to the engine — and contraction
/// plans can ship it to pool workers — without copying the nonzeros.
pub struct SparseInput {
    /// Sorted COO form (fingerprinting, norms, densify-for-oracle).
    pub coo: SparseTensor,
    /// The per-mode fiber forest (direct-kernel inputs; `None` when the
    /// input plans dimension-tree chains instead).
    pub csf: Option<CsfTensor>,
    /// Per-mode semi-sparse TTM plans (chain-planned inputs; empty for
    /// direct-kernel inputs).
    pub plans: Vec<TtmPlan>,
}

impl SparseInput {
    /// Auxiliary structure memory in f64-equivalent words (forest, or
    /// plans with their grouped nonzero values and memoized patterns) —
    /// the admission-control estimate.
    pub fn memory_words(&self) -> usize {
        self.csf.as_ref().map_or(0, |c| c.memory_words())
            + self.plans.iter().map(|p| p.memory_words()).sum::<usize>()
    }
}

/// The CP input tensor plus any pre-permuted copies, with a uniform
/// "contract one mode" entry point that picks the cheapest path. A
/// sparse-backed input stores no dense layouts; the engine routes its
/// MTTKRPs through the CSF kernel instead of the dimension tree.
pub struct InputTensor {
    layouts: Vec<Layout>,
    order: usize,
    /// Whether to create (and keep) a permuted copy when a contraction
    /// would otherwise need an explicit transpose.
    cache_transposes: bool,
    sparse: Option<Arc<SparseInput>>,
    /// The mode a streaming input grows along; it heads every layout.
    evolving: Option<usize>,
}

/// Outcome of a first-level contraction.
pub struct FirstLevel {
    /// The intermediate `𝓜^(rest)` in either representation, rank
    /// trailing.
    pub payload: Payload,
    /// Original tensor modes of the result, in the result's layout order.
    pub mode_order: Vec<usize>,
    /// Flops spent (useful flops for semi-sparse: `2 · nnz · R`).
    pub flops: u64,
    /// Time spent in an explicit transpose, if one was needed.
    pub transpose_time: Duration,
    /// Main-memory words moved by that transpose.
    pub transpose_words: u64,
    /// Contraction time (excluding the transpose).
    pub ttm_time: Duration,
    /// Input entries visited (semi-sparse contractions only; 0 for dense).
    pub entries: u64,
}

/// Which end of a stored layout a planned first-level contraction touches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContractEnd {
    /// The contracted mode is the layout's first mode (`ttm_first`).
    First,
    /// The contracted mode is the layout's last mode (`ttm_last`).
    Last,
    /// The contracted mode is the layout's second mode, right behind the
    /// evolving mode of a streaming input (`ttm_first_batched`).
    Second,
}

/// The data a [`ContractPlan`] executes over: a dense stored layout with
/// the contracted mode extremal, or the sparse input with its precomputed
/// per-mode semi-sparse TTM plan.
enum PlanSource {
    Dense {
        tensor: Arc<DenseTensor>,
        end: ContractEnd,
    },
    Sparse {
        input: Arc<SparseInput>,
        mode: usize,
    },
}

/// A zero-copy plan for a first-level contraction. The data is shared by
/// `Arc`, so the plan can outlive `&self` and execute on another thread —
/// the speculative half of the engine's cross-mode lookahead.
pub struct ContractPlan {
    source: PlanSource,
    /// Original tensor modes of the *result*, in its layout order.
    pub mode_order: Vec<usize>,
}

impl ContractPlan {
    /// Execute the planned contraction — the identical kernel call
    /// [`InputTensor::contract_mode`] would issue on the same layout/plan,
    /// so the result is bit-identical to the non-speculative path. The
    /// output is drawn from `ws`.
    pub fn run(&self, factor: &Matrix, ws: &Workspace) -> Payload {
        match &self.source {
            PlanSource::Dense { tensor, end } => Payload::Dense(Arc::new(match end {
                ContractEnd::Last => ttm_last_in(ws, tensor, factor),
                ContractEnd::First => ttm_first_in(ws, tensor, factor),
                ContractEnd::Second => ttm_first_batched_in(ws, tensor, factor),
            })),
            PlanSource::Sparse { input, mode } => Payload::SemiSparse(Arc::new(csf_ttm_in(
                ws,
                &input.coo,
                &input.plans[*mode],
                factor,
            ))),
        }
    }

    /// Elements of the input (dense layout volume, or `nnz`) — for flop
    /// accounting: flops = `2 · input_elems · R` either way.
    pub fn input_elems(&self) -> usize {
        match &self.source {
            PlanSource::Dense { tensor, .. } => tensor.len(),
            PlanSource::Sparse { input, .. } => input.coo.nnz(),
        }
    }

    /// Input entries a semi-sparse execution visits (0 for dense plans) —
    /// feeds the engine's semi-sparse fiber counter on speculative hits.
    pub fn input_entries(&self) -> u64 {
        match &self.source {
            PlanSource::Dense { .. } => 0,
            PlanSource::Sparse { input, .. } => input.coo.nnz() as u64,
        }
    }
}

impl InputTensor {
    /// Wrap a tensor with no extra copies (standard dimension tree).
    pub fn new(t: DenseTensor) -> Self {
        let order = t.order();
        InputTensor {
            layouts: vec![Layout {
                mode_order: (0..order).collect(),
                tensor: Arc::new(t),
            }],
            order,
            cache_transposes: false,
            sparse: None,
            evolving: None,
        }
    }

    /// Wrap a sparse tensor: builds the CSF forest (one fiber tree per
    /// mode) the engine's sparse MTTKRP fast path runs over. No dense
    /// layouts are materialized.
    pub fn new_sparse(sp: SparseTensor) -> Self {
        let order = sp.order();
        let csf = CsfTensor::build(&sp);
        InputTensor {
            layouts: Vec::new(),
            order,
            cache_transposes: false,
            sparse: Some(Arc::new(SparseInput {
                coo: sp,
                csf: Some(csf),
                plans: Vec::new(),
            })),
            evolving: None,
        }
    }

    /// Wrap a sparse tensor for **dimension-tree planning**: instead of
    /// the CSF forest, build one semi-sparse TTM plan per mode, so every
    /// first-level contraction the standard/MSDT chains or the PP operator
    /// tree asks for executes over the sparse representation — the `pp`
    /// and `msdt` methods on sparse inputs. The input is never densified.
    pub fn new_sparse_chained(sp: SparseTensor) -> Self {
        let order = sp.order();
        let plans = crate::par_collect(order, |m| TtmPlan::build(&sp, m));
        InputTensor {
            layouts: Vec::new(),
            order,
            cache_transposes: false,
            sparse: Some(Arc::new(SparseInput {
                coo: sp,
                csf: None,
                plans,
            })),
            evolving: None,
        }
    }

    /// Whether this sparse input plans dimension-tree chains (semi-sparse
    /// intermediates) rather than the direct CSF kernel.
    pub fn is_sparse_chained(&self) -> bool {
        self.sparse.as_ref().is_some_and(|sp| !sp.plans.is_empty())
    }

    /// The sparse backing, when this input is sparse.
    pub fn sparse(&self) -> Option<&SparseInput> {
        self.sparse.as_deref()
    }

    /// Whether this input is sparse-backed.
    pub fn is_sparse(&self) -> bool {
        self.sparse.is_some()
    }

    /// Wrap a tensor and pre-create the permuted copies MSDT needs so every
    /// mode is the first or last mode of some stored layout. The copies are
    /// independent reads of the base tensor, so they are built in parallel
    /// on the persistent pool (each permutation is itself pool-parallel).
    pub fn with_msdt_copies(t: DenseTensor) -> Self {
        let mut input = InputTensor::new(t);
        input.cache_transposes = true;
        // Base layout covers modes 0 and order-1; the copies the rest.
        let perms = layout_orders(input.order, None, true).split_off(1);
        let tensors = {
            let base = &input.layouts[0].tensor;
            crate::par_collect(perms.len(), |i| permute(base, &perms[i]))
        };
        for (perm, tensor) in perms.into_iter().zip(tensors) {
            input.layouts.push(Layout {
                mode_order: perm,
                tensor: Arc::new(tensor),
            });
        }
        input
    }

    /// Lay `t` out for **growth along mode `e`**: every layout leads with
    /// `e` (see the module docs), with the MSDT copies when `copies` is set
    /// (the multi-sweep tree; the standard tree's two first-level modes are
    /// already extremal in the base layout). Used alike for the initial
    /// tensor, a tensor rebuilt at resume, and each arriving slice — the
    /// slice's layouts then mirror the input's, so [`InputTensor::append`]
    /// is a tail append per layout and a slice contraction is the
    /// row-for-row sub-computation of the full one.
    ///
    /// The base layout is built straight from the borrowed tensor (one
    /// de-interleaving pass), the copies from the base layout, whose
    /// trailing modes they keep contiguous.
    pub fn evolving(t: &DenseTensor, e: usize, copies: bool) -> Self {
        let order = t.order();
        assert!(
            e < order,
            "evolving mode {e} out of range for order {order}"
        );
        let orders = layout_orders(order, Some(e), copies);
        let base = move_mode_first(t, e);
        let tensors = crate::par_collect(orders.len() - 1, |i| {
            let from_base: Vec<usize> = orders[i + 1]
                .iter()
                .map(|m| orders[0].iter().position(|x| x == m).unwrap())
                .collect();
            permute(&base, &from_base)
        });
        let layouts = orders
            .into_iter()
            .zip(std::iter::once(base).chain(tensors))
            .map(|(mode_order, tensor)| Layout {
                mode_order,
                tensor: Arc::new(tensor),
            })
            .collect();
        InputTensor {
            layouts,
            order,
            cache_transposes: copies,
            sparse: None,
            evolving: Some(e),
        }
    }

    /// Tensor order.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Extent of original mode `m`.
    pub fn dim(&self, m: usize) -> usize {
        if let Some(sp) = &self.sparse {
            return sp.coo.dim(m);
        }
        let pos = self.layouts[0]
            .mode_order
            .iter()
            .position(|&x| x == m)
            .unwrap();
        self.layouts[0].tensor.dim(pos)
    }

    /// The tensor in the canonical ascending-mode order — borrowed when the
    /// base layout already is canonical, un-permuted from it otherwise (a
    /// streaming input leads with its evolving mode). Panics on a
    /// sparse-backed input (which stores no dense layout); see
    /// [`InputTensor::sparse`].
    pub fn canonical(&self) -> Cow<'_, DenseTensor> {
        assert!(
            self.sparse.is_none(),
            "sparse input has no dense base tensor"
        );
        let base = &self.layouts[0];
        if base.mode_order.iter().enumerate().all(|(k, &m)| k == m) {
            return Cow::Borrowed(&base.tensor);
        }
        let to_canonical: Vec<usize> = (0..self.order)
            .map(|m| base.mode_order.iter().position(|&x| x == m).unwrap())
            .collect();
        Cow::Owned(permute(&base.tensor, &to_canonical))
    }

    /// Number of stored layouts (1 = no copies; 0 = sparse-backed).
    pub fn layout_count(&self) -> usize {
        self.layouts.len()
    }

    /// Stored elements: dense volume of one copy, or `nnz` when sparse.
    pub fn len(&self) -> usize {
        if let Some(sp) = &self.sparse {
            return sp.coo.nnz();
        }
        self.layouts[0].tensor.len()
    }

    /// True if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        if let Some(sp) = &self.sparse {
            return sp.coo.is_empty();
        }
        self.layouts[0].tensor.is_empty()
    }

    /// Plan contracting `mode` without mutating or copying: `Some` iff
    /// some stored layout has `mode` extremal — chosen with the same
    /// layout-selection order as [`InputTensor::contract_mode`], so a plan
    /// executed speculatively reproduces the sync path bit for bit.
    /// `None` when an explicit transpose would be needed (not worth
    /// speculating).
    pub fn plan_contract(&self, mode: usize) -> Option<ContractPlan> {
        assert!(mode < self.order);
        if let Some(sp) = &self.sparse {
            if sp.plans.is_empty() {
                // Direct-CSF input: sparse MTTKRPs bypass the dimension
                // tree entirely, so there is no first-level TTM to plan.
                return None;
            }
            // Chain-planned input: semi-sparse TTM over the plan for
            // `mode`. The result's surviving levels keep the canonical
            // ascending mode order (the plan's stable sort preserves it).
            return Some(ContractPlan {
                source: PlanSource::Sparse {
                    input: sp.clone(),
                    mode,
                },
                mode_order: (0..self.order).filter(|&m| m != mode).collect(),
            });
        }
        // 1. A layout with `mode` last?
        if let Some(l) = self
            .layouts
            .iter()
            .find(|l| *l.mode_order.last().unwrap() == mode)
        {
            return Some(ContractPlan {
                source: PlanSource::Dense {
                    tensor: l.tensor.clone(),
                    end: ContractEnd::Last,
                },
                mode_order: l.mode_order[..self.order - 1].to_vec(),
            });
        }
        // 2. A layout with `mode` first?
        if let Some(l) = self.layouts.iter().find(|l| l.mode_order[0] == mode) {
            return Some(ContractPlan {
                source: PlanSource::Dense {
                    tensor: l.tensor.clone(),
                    end: ContractEnd::First,
                },
                mode_order: l.mode_order[1..].to_vec(),
            });
        }
        // 3. Streaming input: a layout with `mode` right behind the
        //    evolving mode? (Fixed inputs keep to the two ends.)
        if self.evolving.is_some() {
            if let Some(l) = self
                .layouts
                .iter()
                .find(|l| l.mode_order.get(1) == Some(&mode))
            {
                let mut mode_order = l.mode_order.clone();
                mode_order.remove(1);
                return Some(ContractPlan {
                    source: PlanSource::Dense {
                        tensor: l.tensor.clone(),
                        end: ContractEnd::Second,
                    },
                    mode_order,
                });
            }
        }
        None
    }

    /// Contract original mode `mode` with `factor` (first-level TTM),
    /// choosing a stored layout where `mode` is extremal if possible and
    /// transposing (with cost accounted) otherwise.
    pub fn contract_mode(&mut self, mode: usize, factor: &Matrix) -> FirstLevel {
        self.contract_mode_in(&Workspace::unpooled(), mode, factor)
    }

    /// [`InputTensor::contract_mode`] with the result drawn from `ws`.
    pub fn contract_mode_in(&mut self, ws: &Workspace, mode: usize, factor: &Matrix) -> FirstLevel {
        assert!(mode < self.order);
        assert!(
            self.sparse.is_none() || self.is_sparse_chained(),
            "first-level contraction on a direct-CSF sparse input (engine bug)"
        );
        let r = factor.cols();
        let total = self.len();
        let flops = 2 * total as u64 * r as u64;

        if let Some(plan) = self.plan_contract(mode) {
            let entries = plan.input_entries();
            let t0 = Instant::now();
            let out = plan.run(factor, ws);
            let ttm_time = t0.elapsed();
            return FirstLevel {
                payload: out,
                mode_order: plan.mode_order,
                flops,
                transpose_time: Duration::ZERO,
                transpose_words: 0,
                ttm_time,
                entries,
            };
        }
        // Transpose: move `mode` last in a fresh copy.
        let t0 = Instant::now();
        let mut perm: Vec<usize> = Vec::with_capacity(self.order);
        let base = &self.layouts[0];
        // Positions in the base layout.
        let pos_of = |m: usize| base.mode_order.iter().position(|&x| x == m).unwrap();
        for &m in base.mode_order.iter().filter(|&&m| m != mode) {
            perm.push(pos_of(m));
        }
        perm.push(pos_of(mode));
        let mode_order_new: Vec<usize> = perm.iter().map(|&p| base.mode_order[p]).collect();
        let moved = Arc::new(permute(&base.tensor, &perm));
        let transpose_time = t0.elapsed();
        let transpose_words = 2 * total as u64;

        let t1 = Instant::now();
        let out = ttm_last_in(ws, &moved, factor);
        let ttm_time = t1.elapsed();
        let result_modes = mode_order_new[..self.order - 1].to_vec();
        if self.cache_transposes {
            self.layouts.push(Layout {
                mode_order: mode_order_new,
                tensor: moved,
            });
        }
        FirstLevel {
            payload: Payload::Dense(Arc::new(out)),
            mode_order: result_modes,
            flops,
            transpose_time,
            transpose_words,
            ttm_time,
            entries: 0,
        }
    }

    /// Grow original mode `e` by appending `slice` (given in the canonical
    /// ascending-mode layout). An input not yet laid out for growth along
    /// `e` re-lays itself out once through [`InputTensor::evolving`]
    /// (keeping its copies-or-not choice); from then on every call is the
    /// O(slice) [`InputTensor::append`]. Dense inputs only.
    pub fn extend_mode(&mut self, e: usize, slice: &DenseTensor) {
        assert!(self.sparse.is_none(), "streaming growth is dense-only");
        assert_eq!(slice.order(), self.order, "slice order mismatch");
        if self.evolving != Some(e) {
            *self = InputTensor::evolving(&self.canonical(), e, self.cache_transposes);
        }
        self.append(&InputTensor::evolving(slice, e, self.cache_transposes));
    }

    /// Append a slice already laid out like this input (same evolving mode,
    /// same layouts — [`InputTensor::evolving`] with the same arguments):
    /// one tail append per layout, in place. A layout still shared with a
    /// live [`ContractPlan`] is copied first, so the plan keeps the tensor
    /// it was made for.
    pub fn append(&mut self, slice: &InputTensor) {
        assert!(
            self.evolving.is_some() && self.evolving == slice.evolving,
            "append needs two inputs laid out along the same evolving mode"
        );
        assert_eq!(self.layouts.len(), slice.layouts.len(), "layout mismatch");
        for (layout, piece) in self.layouts.iter_mut().zip(&slice.layouts) {
            assert_eq!(layout.mode_order, piece.mode_order, "layout mismatch");
            Arc::make_mut(&mut layout.tensor).append_leading(&piece.tensor);
        }
    }

    /// Which original modes are contractible without a transpose. Every
    /// mode of a sparse input qualifies (the CSF forest has a tree rooted
    /// at each).
    pub fn free_modes(&self) -> Vec<usize> {
        if self.sparse.is_some() {
            return (0..self.order).collect();
        }
        let mut v: Vec<usize> = self
            .layouts
            .iter()
            .flat_map(|l| {
                let second = self.evolving.and(l.mode_order.get(1).copied());
                [l.mode_order[0], *l.mode_order.last().unwrap()]
                    .into_iter()
                    .chain(second)
            })
            .collect();
        v.sort_unstable();
        v.dedup();
        v
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
        permute(fl.payload.dense(), &perm)
    }

    #[test]
    fn msdt_copy_count_matches_paper() {
        // One copy for order 3 and order 4 (paper §IV).
        let t3 = InputTensor::with_msdt_copies(seq_tensor(vec![3, 4, 5]));
        assert_eq!(t3.layout_count(), 2);
        assert_eq!(t3.free_modes(), vec![0, 1, 2]);
        let t4 = InputTensor::with_msdt_copies(seq_tensor(vec![2, 3, 4, 3]));
        assert_eq!(t4.layout_count(), 2);
        assert_eq!(t4.free_modes(), vec![0, 1, 2, 3]);
        // Order 5 needs two copies (modes 1, 2, 3 to cover).
        let t5 = InputTensor::with_msdt_copies(seq_tensor(vec![2, 2, 2, 2, 2]));
        assert_eq!(t5.layout_count(), 3);
        assert_eq!(t5.free_modes(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn contract_all_modes_matches_ttm_oracle() {
        let dims = vec![3, 4, 5, 2];
        for msdt in [false, true] {
            let base = seq_tensor(dims.clone());
            let mut input = if msdt {
                InputTensor::with_msdt_copies(base.clone())
            } else {
                InputTensor::new(base.clone())
            };
            for (mode, &dim) in dims.iter().enumerate() {
                let a = factor(dim, 3);
                let fl = input.contract_mode(mode, &a);
                let got = canonicalize(&fl);
                let want = ttm(&base, mode, &a).tensor;
                assert!(got.max_abs_diff(&want) < 1e-10, "mode {mode}, msdt={msdt}");
                if msdt {
                    assert_eq!(fl.transpose_words, 0, "MSDT copies must avoid transposes");
                }
            }
        }
    }

    #[test]
    fn evolving_layouts_lead_with_the_evolving_mode() {
        // The layout rule, spelled out: the paper's one-copy count for
        // order 4 carries over, order 3 needs no copy at all, and every
        // layout keeps `e` in front.
        let orders = |order, e, copies| layout_orders(order, Some(e), copies);
        assert_eq!(orders(3, 2, true), vec![vec![2, 0, 1]]);
        assert_eq!(orders(4, 3, true), vec![vec![3, 0, 1, 2], vec![3, 1, 0, 2]]);
        assert_eq!(
            orders(5, 1, true),
            vec![vec![1, 0, 2, 3, 4], vec![1, 2, 0, 4, 3]]
        );
        assert_eq!(orders(4, 1, false), vec![vec![1, 0, 2, 3]]);
        // Fixed inputs keep the layouts they always had.
        assert_eq!(
            layout_orders(4, None, true),
            vec![vec![0, 1, 2, 3], vec![1, 0, 3, 2]]
        );
        assert_eq!(
            layout_orders(5, None, true),
            vec![
                vec![0, 1, 2, 3, 4],
                vec![1, 0, 2, 4, 3],
                vec![2, 0, 1, 3, 4]
            ]
        );
    }

    #[test]
    fn evolving_input_contracts_every_mode_without_a_transpose() {
        for dims in [vec![3, 4, 5], vec![3, 4, 5, 2], vec![2, 3, 2, 3, 2]] {
            let base = seq_tensor(dims.clone());
            for e in 0..dims.len() {
                for copies in [false, true] {
                    let mut input = InputTensor::evolving(&base, e, copies);
                    assert_eq!(input.canonical().data(), base.data());
                    let free = input.free_modes();
                    for (mode, &dim) in dims.iter().enumerate() {
                        let a = factor(dim, 3);
                        let fl = input.contract_mode(mode, &a);
                        let want = ttm(&base, mode, &a).tensor;
                        assert!(
                            canonicalize(&fl).max_abs_diff(&want) < 1e-10,
                            "{dims:?} e={e} copies={copies} mode {mode}"
                        );
                        assert_eq!(fl.transpose_words == 0, free.contains(&mode));
                        if mode != e {
                            assert_eq!(fl.mode_order[0], e, "e must stay in front");
                        }
                    }
                    // The standard tree's two first-level modes are free
                    // without copies; with copies every mode is.
                    assert!(free.contains(&0) && free.contains(&(dims.len() - 1)));
                    if copies {
                        assert_eq!(free.len(), dims.len());
                    }
                }
            }
        }
    }

    #[test]
    fn appends_reproduce_the_layouts_of_the_whole_tensor() {
        for dims in [vec![4, 3, 5], vec![3, 4, 2, 5], vec![2, 3, 2, 4, 2]] {
            let whole = seq_tensor(dims.clone());
            for e in 0..dims.len() {
                for copies in [false, true] {
                    // Start canonical (the re-layout path), then one row of
                    // `e` at a time.
                    let mut grown = if copies {
                        InputTensor::with_msdt_copies(whole.slice_along(e, 0, 1))
                    } else {
                        InputTensor::new(whole.slice_along(e, 0, 1))
                    };
                    for i in 1..dims[e] {
                        grown.extend_mode(e, &whole.slice_along(e, i, 1));
                    }
                    let built = InputTensor::evolving(&whole, e, copies);
                    assert_eq!(grown.layouts.len(), built.layouts.len());
                    for (g, b) in grown.layouts.iter().zip(&built.layouts) {
                        assert_eq!(g.mode_order, b.mode_order);
                        assert_eq!(g.tensor.shape(), b.tensor.shape());
                        assert_eq!(g.tensor.data(), b.tensor.data(), "{dims:?} e={e}");
                    }
                }
            }
        }
    }

    #[test]
    fn append_leaves_a_live_plan_its_tensor() {
        // A plan made before the append shares the layout's `Arc`; the
        // append must copy rather than grow the tensor under it.
        let whole = seq_tensor(vec![3, 4, 5, 6]);
        let e = 3;
        let old = whole.slice_along(e, 0, 4);
        let mut input = InputTensor::evolving(&old, e, true);
        let a = factor(4, 3);
        let plan = input.plan_contract(1).expect("mode 1 is free");
        input.append(&InputTensor::evolving(&whole.slice_along(e, 4, 2), e, true));
        assert_eq!(input.canonical().data(), whole.data());
        assert_eq!(input.dim(e), 6);
        let before = InputTensor::evolving(&old, e, true)
            .contract_mode(1, &a)
            .payload;
        let ran = plan.run(&a, &Workspace::unpooled());
        assert_eq!(ran.dense().data(), before.dense().data());
        let after = InputTensor::evolving(&whole, e, true)
            .contract_mode(1, &a)
            .payload;
        assert_eq!(
            input.contract_mode(1, &a).payload.dense().data(),
            after.dense().data()
        );
    }

    #[test]
    fn plain_input_transposes_middle_modes() {
        let dims = vec![3, 4, 5];
        let mut input = InputTensor::new(seq_tensor(dims));
        let a = factor(4, 2);
        let fl = input.contract_mode(1, &a);
        assert!(fl.transpose_words > 0);
    }

    #[test]
    fn transpose_caching_learns_layouts() {
        let dims = vec![3, 4, 5, 2, 2];
        let mut input = InputTensor::with_msdt_copies(seq_tensor(dims.clone()));
        // Order 5 with copies: all modes free already.
        assert_eq!(input.free_modes().len(), 5);
        let a = factor(dims[2], 2);
        let fl = input.contract_mode(2, &a);
        assert_eq!(fl.transpose_words, 0);
    }
}
