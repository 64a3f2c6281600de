//! Semi-sparse tensors: the result of a *partial* (TTM-style) contraction
//! of a sparse tensor, and the kernels that contract them further.
//!
//! Contracting one mode of a CSF/COO sparse tensor with an `s_k × R`
//! factor yields a tensor that is **dense along the rank mode** but keeps
//! the sparse fiber structure of the surviving modes: each surviving
//! coordinate tuple that had at least one nonzero under it carries an
//! R-wide dense value panel. This is exactly the first-level intermediate
//! `𝓜^(S)` of a dimension tree (Eq. 4), kept sparse (Phan et al.'s
//! structure-exploiting CP-gradient contractions, arXiv:1204.1586).
//!
//! No session runs these kernels: every sparse method runs on the CSF
//! forest of [`crate::sparse`], whose MTTKRP costs `O(nnz · R)` per mode
//! and leaves the dimension tree nothing to amortize. They remain as rungs
//! of the benchmark's kernel ladder ([`TtmPlan::build`], [`csf_ttm`],
//! [`ss_mttv`]) and as an independent second association for the forest's
//! pair walks in the parity tests.
//!
//! # Symbolic / numeric split
//!
//! Everything that depends only on the *sparsity pattern* is computed once
//! and kept; a kernel call does arithmetic and nothing else.
//!
//! * [`TtmPlan::build`] (once per input mode) sorts the nonzeros by
//!   surviving tuple and stores, **in group order**, the contracted
//!   coordinate and the value of every nonzero (`kidx`, `vals`) next to
//!   the group pointers and the output [`SsPattern`]. [`csf_ttm`] then
//!   reads two contiguous streams plus factor rows and never touches the
//!   COO.
//! * An [`SsPattern`] (surviving extents + sorted unique tuples) is shared
//!   by `Arc` between every tensor that has it — all results of one plan,
//!   all results of one [`ss_mttv`] position. It memoizes, per contracted
//!   position, the mTTV plan: the grouping permutation (only when the
//!   position is not the last level — canonical order already groups
//!   that one), the group pointers, and the child pattern. The sort and
//!   the grouping therefore run once per (pattern, position) for the life
//!   of the pattern: every later call at that position reuses them. A
//!   tensor rebuilt by [`SemiSparseTensor::from_parts`] starts with an
//!   empty memo and refills it on first use.
//! * The numeric phase streams through `#[target_feature]` clones
//!   dispatched on `simd_level()`, rank-specialised for `R ∈ {8, 16, 32}`
//!   like [`crate::kernels::mttv`] — so every fused multiply-add is one
//!   hardware instruction (the `simd` module docs state the rule).
//!
//! # Bitwise parity with the dense oracle
//!
//! The kernels here are **bit-identical** to densifying the input and
//! running the dense kernels ([`crate::kernels::ttm`] /
//! [`crate::kernels::mttv`]) on the result, at any thread count. The
//! symbolic phase decides only *where* operands are read from; the
//! operation sequence per output element is the dense one:
//!
//! * [`csf_ttm`] mirrors the packed GEMM's accumulation discipline: the
//!   same size-based small-vs-packed dispatch (`m·n·k` against the dense
//!   work), the same KC-deep k-panel grouping with one local accumulator
//!   per panel and a `C += acc` epilogue, and fused multiply-adds exactly
//!   when the GEMM's SIMD clones would use them. Skipped structural zeros
//!   contribute `±0.0` products to accumulators that are never `-0.0`, so
//!   dropping them is an exact no-op (the same argument as
//!   [`crate::sparse`]).
//! * [`ss_mttv`] mirrors [`crate::kernels::mttv`]: per output element, one
//!   accumulator, contributions in ascending contracted-index order, each
//!   one FMA exactly where the dense kernel's clones fuse (the row op
//!   `slab_axpy_body` from that module).
//! * Both kernels partition *output entries* into contiguous blocks; each
//!   output panel is written by exactly one task in a fixed order, so
//!   results are bit-identical at any thread count (the packed GEMM's
//!   one-accumulator-per-element discipline).

use crate::dense::DenseTensor;
use crate::gemm::{panel_kc, small_work_limit};
use crate::kernels::mttv::slab_axpy_body;
use crate::matrix::Matrix;
use crate::shape::Shape;
use crate::simd::{simd_level, SimdLevel};
use crate::sparse::SparseTensor;
use crate::workspace::{Buffer, Workspace};
use rayon::prelude::*;
use std::cmp::Ordering;
use std::sync::{Arc, OnceLock};

/// The sparsity pattern of a semi-sparse tensor: the extents of its `L`
/// surviving levels and its `E` coordinate tuples, plus the memoized
/// symbolic plans for contracting each level (module docs). Immutable
/// once built and shared by `Arc`.
#[derive(Debug)]
pub struct SsPattern {
    /// Extents of the `L` surviving levels, in level order.
    dims: Vec<usize>,
    /// `E × L` flattened coordinate tuples, lexicographically sorted,
    /// unique.
    inds: Vec<u32>,
    /// One slot per level: the symbolic mTTV plan contracting that level.
    mttv: Vec<OnceLock<MttvPlan>>,
}

/// The pattern-only half of an [`ss_mttv`] call at one position.
#[derive(Debug)]
struct MttvPlan {
    /// Input entry ids grouped by output tuple, the contracted coordinate
    /// ascending within a group. `None` when the last level is contracted:
    /// the groups are then contiguous runs of the canonical order.
    perm: Option<Vec<u32>>,
    /// `ptr[e]..ptr[e+1]` = the (grouped) input entries feeding output `e`.
    ptr: Vec<usize>,
    /// Pattern of the result, shared by every result at this position.
    child: Arc<SsPattern>,
}

impl SsPattern {
    fn new(dims: Vec<usize>, inds: Vec<u32>) -> Self {
        let mttv = dims.iter().map(|_| OnceLock::new()).collect();
        SsPattern { dims, inds, mttv }
    }

    /// Extents of the surviving levels, in level order.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of coordinate tuples.
    pub fn n_entries(&self) -> usize {
        self.inds.len() / self.dims.len()
    }

    /// The mTTV plan for contracting level `pos`, built on first request.
    /// The build is serial, so a pool worker that finds another worker
    /// mid-build just waits for it — exactly one build per slot.
    fn mttv_plan(&self, pos: usize) -> &MttvPlan {
        self.mttv[pos].get_or_init(|| {
            let l = self.dims.len();
            let keep: Vec<usize> = (0..l).filter(|&m| m != pos).collect();
            let perm = (pos != l - 1).then(|| order_by_kept(&self.inds, l, &keep, &self.dims));
            let (out_inds, ptr) = group_by_kept(&self.inds, l, &keep, perm.as_deref(), |_| {});
            let out_dims = keep.iter().map(|&m| self.dims[m]).collect();
            MttvPlan {
                perm,
                ptr,
                child: Arc::new(SsPattern::new(out_dims, out_inds)),
            }
        })
    }

    /// Footprint of this pattern in f64-equivalent words: its tuples plus
    /// the mTTV plans memoized so far (children not included — each is
    /// counted where a tensor or [`TtmPlan`] holds it).
    pub fn memory_words(&self) -> usize {
        let plans: usize = self
            .mttv
            .iter()
            .filter_map(OnceLock::get)
            .map(|p| p.perm.as_ref().map_or(0, Vec::len) * 4 + p.ptr.len() * 8)
            .sum();
        (self.inds.len() * 4 + plans) / 8
    }

    /// [`SsPattern::memory_words`] plus every memoized descendant pattern.
    fn memory_words_deep(&self) -> usize {
        self.memory_words()
            + self
                .mttv
                .iter()
                .filter_map(OnceLock::get)
                .map(|p| p.child.memory_words_deep())
                .sum::<usize>()
    }
}

/// Stable order of the `width`-coordinate tuples in `inds` by their `keep`
/// coordinates: ties keep the incoming (canonical) order, which for a fixed
/// kept tuple is ascending in the dropped coordinate. Sorts on a linearized
/// `u64` key of the kept tuple; falls back to comparing tuples when the
/// kept extents' volume does not fit in a `u64`.
fn order_by_kept(inds: &[u32], width: usize, keep: &[usize], dims: &[usize]) -> Vec<u32> {
    let n = inds.len() / width;
    assert!(n <= u32::MAX as usize, "entry ids are u32");
    let mut strides = vec![0u64; keep.len()];
    let mut volume = Some(1u64);
    for (s, &m) in strides.iter_mut().zip(keep).rev() {
        *s = volume.unwrap_or(0);
        volume = volume.and_then(|v| v.checked_mul(dims[m] as u64));
    }
    if volume.is_some() {
        let mut keyed: Vec<(u64, u32)> = inds
            .chunks_exact(width)
            .zip(0u32..)
            .map(|(t, e)| {
                let key = keep.iter().zip(&strides).map(|(&m, &s)| t[m] as u64 * s);
                (key.sum(), e)
            })
            .collect();
        // Unique (key, id) pairs: the unstable sort *is* the stable order.
        keyed.sort_unstable();
        keyed.into_iter().map(|(_, e)| e).collect()
    } else {
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let tuple = |e: u32| &inds[e as usize * width..][..width];
        perm.sort_by(|&a, &b| {
            let (ta, tb) = (tuple(a), tuple(b));
            keep.iter()
                .map(|&m| ta[m].cmp(&tb[m]))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        });
        perm
    }
}

/// Walk the tuples of `inds` in `order` (canonical order when `None`),
/// which must bring equal `keep` tuples together, and return the distinct
/// kept tuples with their group pointers. `visit(e)` sees every entry id in
/// walk order.
fn group_by_kept(
    inds: &[u32],
    width: usize,
    keep: &[usize],
    order: Option<&[u32]>,
    mut visit: impl FnMut(usize),
) -> (Vec<u32>, Vec<usize>) {
    let n = inds.len() / width;
    let mut out_inds: Vec<u32> = Vec::new();
    let mut ptr: Vec<usize> = vec![0];
    for p in 0..n {
        let e = order.map_or(p, |o| o[p] as usize);
        let tuple = &inds[e * width..(e + 1) * width];
        let last = &out_inds[out_inds.len().saturating_sub(keep.len())..];
        if p == 0 || keep.iter().zip(last).any(|(&m, &o)| tuple[m] != o) {
            if p > 0 {
                ptr.push(p);
            }
            out_inds.extend(keep.iter().map(|&m| tuple[m]));
        }
        visit(e);
    }
    if n > 0 {
        ptr.push(n);
    }
    (out_inds, ptr)
}

/// A semi-sparse tensor: `E` unique surviving coordinate tuples
/// (lexicographically sorted in level order) each carrying an `R`-wide
/// dense value panel. The tuples live in a shared [`SsPattern`].
#[derive(Clone, Debug)]
pub struct SemiSparseTensor {
    pattern: Arc<SsPattern>,
    /// `E × R` dense rank panels aligned with the pattern's tuples.
    panels: Buffer,
    r: usize,
}

impl SemiSparseTensor {
    /// Assemble from stored parts (the checkpoint reader validates the
    /// semi-sparse entries older checkpoints hold), checking what the
    /// kernels rely on: consistent lengths, every coordinate inside its
    /// extent, tuples strictly ascending. The pattern starts with an empty
    /// memo.
    pub fn from_parts(
        dims: Vec<usize>,
        inds: Vec<u32>,
        panels: Vec<f64>,
        r: usize,
    ) -> Result<Self, String> {
        let l = dims.len();
        if r == 0 || l == 0 {
            return Err("semi-sparse tensors need a rank and at least one level".into());
        }
        if !inds.len().is_multiple_of(l) || (inds.len() / l).checked_mul(r) != Some(panels.len()) {
            return Err("index/panel lengths disagree".into());
        }
        for (e, tuple) in inds.chunks_exact(l).enumerate() {
            if let Some(m) = (0..l).find(|&m| tuple[m] as usize >= dims[m]) {
                return Err(format!(
                    "entry {e}: index {} out of range for level {m} (extent {})",
                    tuple[m], dims[m]
                ));
            }
            if e > 0 && inds[(e - 1) * l..e * l] >= *tuple {
                return Err(format!("entry {e}: tuples not strictly ascending"));
            }
        }
        Ok(SemiSparseTensor {
            pattern: Arc::new(SsPattern::new(dims, inds)),
            panels: panels.into(),
            r,
        })
    }

    /// The shared sparsity pattern.
    pub fn pattern(&self) -> &Arc<SsPattern> {
        &self.pattern
    }

    /// Number of surviving (sparse) levels.
    pub fn levels(&self) -> usize {
        self.pattern.dims.len()
    }

    /// Extents of the surviving levels, in level order.
    pub fn dims(&self) -> &[usize] {
        &self.pattern.dims
    }

    /// Extent of level `l`.
    pub fn dim(&self, l: usize) -> usize {
        self.pattern.dims[l]
    }

    /// The dense rank extent `R`.
    pub fn rank(&self) -> usize {
        self.r
    }

    /// Number of stored coordinate tuples (each owns an `R` panel).
    pub fn n_entries(&self) -> usize {
        self.pattern.n_entries()
    }

    /// Flattened sorted coordinate tuples (`E × L`).
    pub fn inds(&self) -> &[u32] {
        &self.pattern.inds
    }

    /// Coordinate tuple of entry `e`.
    pub fn idx(&self, e: usize) -> &[u32] {
        let l = self.levels();
        &self.pattern.inds[e * l..(e + 1) * l]
    }

    /// All value panels (`E × R`, row-major).
    pub fn panels(&self) -> &[f64] {
        &self.panels
    }

    /// Value panel of entry `e`.
    pub fn panel(&self, e: usize) -> &[f64] {
        &self.panels[e * self.r..(e + 1) * self.r]
    }

    /// Memory footprint in f64-equivalent words (index words counted at
    /// their true size). Includes the pattern, which other tensors may
    /// share.
    pub fn memory_words(&self) -> usize {
        self.pattern.memory_words() + self.panels.len()
    }

    /// Densify: scatter the panels into a `[dims..., R]` dense tensor (the
    /// oracle path for parity tests).
    pub fn to_dense(&self) -> DenseTensor {
        let mut dims = self.dims().to_vec();
        dims.push(self.r);
        let shape = Shape::new(dims);
        let strides = shape.strides();
        let mut t = DenseTensor::zeros(shape);
        let data = t.data_mut();
        for e in 0..self.n_entries() {
            let base: usize = self
                .idx(e)
                .iter()
                .zip(strides.iter())
                .map(|(&i, &s)| i as usize * s)
                .sum();
            data[base..base + self.r].copy_from_slice(self.panel(e));
        }
        t
    }

    /// Scatter a single-level semi-sparse tensor into a dense `rows × R`
    /// matrix — the final dimension-tree step producing an MTTKRP result.
    pub fn to_matrix(&self, rows: usize) -> Matrix {
        assert_eq!(
            self.levels(),
            1,
            "to_matrix needs a fully contracted (single-level) tensor"
        );
        // Every stored index is below `dims[0]` (checked at construction).
        assert!(rows >= self.dim(0) || self.n_entries() == 0);
        let mut out = Matrix::zeros(rows, self.r);
        let data = out.data_mut();
        for (e, &row) in self.inds().iter().enumerate() {
            let row = row as usize;
            data[row * self.r..(row + 1) * self.r].copy_from_slice(self.panel(e));
        }
        out
    }
}

/// Precomputed contraction plan for one mode of a sorted-COO sparse
/// tensor: the output pattern plus the nonzeros re-laid in group order, so
/// [`csf_ttm`] streams through it in `O(nnz · R)` from shared references.
pub struct TtmPlan {
    /// The contracted mode.
    mode: usize,
    /// Surviving modes (ascending original order) and their sorted unique
    /// tuples — the pattern of every result of this plan.
    pattern: Arc<SsPattern>,
    /// `ptr[e]..ptr[e+1]` = the nonzeros feeding output tuple `e`.
    ptr: Vec<usize>,
    /// Contracted coordinate of every nonzero, grouped by output tuple and
    /// ascending within a group (the dense GEMM's k-loop order).
    kidx: Vec<u32>,
    /// Value of every nonzero, aligned with `kidx`.
    vals: Vec<f64>,
    /// Rows of the dense matricized view (`volume / s_mode`, saturating) —
    /// the `m` of the GEMM whose accumulation order this plan mirrors.
    dense_rows: usize,
    /// Extent of the contracted mode (the GEMM's `k`).
    k_dim: usize,
}

impl TtmPlan {
    /// Build the plan for contracting `mode` of `sp`: order the nonzeros by
    /// surviving tuple (`order_by_kept`; the canonical COO order
    /// already is that order when `mode` is the last one), then lay the
    /// contracted coordinates and values out in that order.
    pub fn build(sp: &SparseTensor, mode: usize) -> Self {
        let order = sp.order();
        assert!(mode < order, "mode {mode} out of range for order {order}");
        assert!(order >= 2);
        let keep: Vec<usize> = (0..order).filter(|&m| m != mode).collect();
        let perm = (mode != order - 1).then(|| order_by_kept(sp.inds(), order, &keep, sp.dims()));
        let mut kidx: Vec<u32> = Vec::with_capacity(sp.nnz());
        let mut vals: Vec<f64> = Vec::with_capacity(sp.nnz());
        let (out_inds, ptr) = group_by_kept(sp.inds(), order, &keep, perm.as_deref(), |e| {
            kidx.push(sp.idx(e)[mode]);
            vals.push(sp.vals()[e]);
        });
        let out_dims: Vec<usize> = keep.iter().map(|&m| sp.dim(m)).collect();
        let dense_rows = out_dims.iter().fold(1usize, |a, &d| a.saturating_mul(d));
        TtmPlan {
            mode,
            pattern: Arc::new(SsPattern::new(out_dims, out_inds)),
            ptr,
            kidx,
            vals,
            dense_rows,
            k_dim: sp.dim(mode),
        }
    }

    /// The contracted mode.
    pub fn mode(&self) -> usize {
        self.mode
    }

    /// Output tuples this plan produces.
    pub fn n_out(&self) -> usize {
        self.ptr.len().saturating_sub(1)
    }

    /// Plan memory in f64-equivalent words: the grouped nonzero streams,
    /// the output pattern and every mTTV plan memoized beneath it.
    pub fn memory_words(&self) -> usize {
        (self.kidx.len() * 4 + self.ptr.len() * 8) / 8
            + self.vals.len()
            + self.pattern.memory_words_deep()
    }
}

/// Entry-block oversubscription for the parallel output partition (same
/// policy as the sparse MTTKRP's row blocks).
const ENTRY_BLOCK_OVERSUB: usize = 4;

/// Work threshold (in `contributions · R` units) below which the kernels
/// stay serial.
const PAR_THRESHOLD: usize = 1 << 14;

/// Run `block(e0, out)` over contiguous blocks of `R`-wide output panels
/// (`e0` = first output entry of the block), fanned over the pool when
/// `work` clears [`PAR_THRESHOLD`]. Each panel belongs to one block, so the
/// partition never shows in the result.
fn for_entry_blocks(
    panels: &mut [f64],
    r: usize,
    work: usize,
    block: impl Fn(usize, &mut [f64]) + Sync,
) {
    let e_out = panels.len() / r;
    let threads = rayon::current_num_threads();
    if threads <= 1 || work < PAR_THRESHOLD || e_out == 0 {
        block(0, panels);
    } else {
        let len = e_out.div_ceil(ENTRY_BLOCK_OVERSUB * threads).max(1);
        panels
            .par_chunks_mut(len * r)
            .enumerate()
            .for_each(|(b, chunk)| block(b * len, chunk));
    }
}

/// How a [`csf_ttm`] call accumulates — the dense dispatch it mirrors.
#[derive(Clone, Copy)]
enum TtmPath {
    /// `small_serial`: plain multiply-adds straight into C.
    Small,
    /// Packed path with this KC panel depth.
    Packed(usize),
}

/// Semi-sparse TTM: contract `plan.mode()` of `sp` with `factor`
/// (`s_mode × R`), producing the first-level semi-sparse intermediate.
///
/// Bit-identical to densifying `sp` and running the dense TTM
/// ([`crate::kernels::ttm::ttm_last`] on the mode-last permutation, or
/// equivalently any `gemm_slice` matricization) at any thread count: the
/// accumulation replays the packed GEMM's per-element operation sequence —
/// small-serial plain multiply-adds under the same `m·n·k` threshold,
/// otherwise KC-panel-local accumulators (fused iff the GEMM's SIMD clones
/// fuse) flushed with one `+=` per panel — and skipped structural zeros
/// are exact no-ops (module docs). `plan` must have been built from `sp`.
pub fn csf_ttm(sp: &SparseTensor, plan: &TtmPlan, factor: &Matrix) -> SemiSparseTensor {
    assert_eq!(factor.rows(), plan.k_dim, "factor rows");
    assert_eq!(sp.dim(plan.mode), plan.k_dim, "plan/tensor mismatch");
    assert_eq!(sp.nnz(), plan.vals.len(), "plan/tensor mismatch");
    let r = factor.cols();
    let nnz = plan.vals.len();
    // Zero-filled: both accumulation paths add into the panels.
    let mut panels = Workspace::unpooled().draw_zeroed(plan.n_out() * r);

    // The dense dispatch this call mirrors: m·n·k of the matricized GEMM.
    let dense_work = plan.dense_rows.saturating_mul(r).saturating_mul(plan.k_dim);
    let path = if dense_work < small_work_limit() {
        TtmPath::Small
    } else {
        TtmPath::Packed(panel_kc())
    };
    let fac = factor.data();
    for_entry_blocks(&mut panels, r, nnz * r, |e0, out| {
        ttm_block(plan, fac, r, path, e0, out)
    });
    SemiSparseTensor {
        pattern: plan.pattern.clone(),
        panels,
        r,
    }
}

/// One block of [`csf_ttm`] output panels, on the best clone the CPU runs.
fn ttm_block(plan: &TtmPlan, fac: &[f64], r: usize, path: TtmPath, e0: usize, out: &mut [f64]) {
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `simd_level` probed AVX-512F+FMA at runtime.
        SimdLevel::Avx512 => unsafe { ttm_block_avx512(plan, fac, r, path, e0, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `simd_level` probed AVX2+FMA at runtime.
        SimdLevel::Avx2 => unsafe { ttm_block_avx2(plan, fac, r, path, e0, out) },
        SimdLevel::Scalar => ttm_block_body::<false>(plan, fac, r, path, e0, out),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
fn ttm_block_avx512(
    plan: &TtmPlan,
    fac: &[f64],
    r: usize,
    path: TtmPath,
    e0: usize,
    out: &mut [f64],
) {
    ttm_block_body::<true>(plan, fac, r, path, e0, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn ttm_block_avx2(
    plan: &TtmPlan,
    fac: &[f64],
    r: usize,
    path: TtmPath,
    e0: usize,
    out: &mut [f64],
) {
    ttm_block_body::<true>(plan, fac, r, path, e0, out)
}

/// Rank dispatch: `R ∈ {8, 16, 32}` hand [`ttm_rows`] a constant width and
/// a stack accumulator, so the per-nonzero row op unrolls into registers.
#[inline(always)]
fn ttm_block_body<const FMA: bool>(
    plan: &TtmPlan,
    fac: &[f64],
    r: usize,
    path: TtmPath,
    e0: usize,
    out: &mut [f64],
) {
    match r {
        8 => ttm_rows::<FMA>(plan, fac, 8, &mut [0.0; 8], path, e0, out),
        16 => ttm_rows::<FMA>(plan, fac, 16, &mut [0.0; 16], path, e0, out),
        32 => ttm_rows::<FMA>(plan, fac, 32, &mut [0.0; 32], path, e0, out),
        _ => ttm_rows::<FMA>(plan, fac, r, &mut vec![0.0; r], path, e0, out),
    }
}

/// The output panels of one block, `acc` (at least `r` long) being the
/// KC-panel accumulator of the packed path.
#[inline(always)]
fn ttm_rows<const FMA: bool>(
    plan: &TtmPlan,
    fac: &[f64],
    r: usize,
    acc: &mut [f64],
    path: TtmPath,
    e0: usize,
    out: &mut [f64],
) {
    let acc = &mut acc[..r];
    for (local, out_panel) in out.chunks_exact_mut(r).enumerate() {
        let group = plan.ptr[e0 + local]..plan.ptr[e0 + local + 1];
        let entries = plan.kidx[group.clone()].iter().zip(&plan.vals[group]);
        match path {
            // Contracted index ascending, accumulated straight into C
            // (α = 1 leaves values exact).
            TtmPath::Small => {
                for (&ik, &v) in entries {
                    let fr = &fac[ik as usize * r..][..r];
                    for j in 0..r {
                        out_panel[j] += v * fr[j];
                    }
                }
            }
            // Per KC-deep k panel, a local accumulator starting at 0.0,
            // flushed into C once per panel — the micro-kernel's `acc` +
            // `C += α·acc` epilogue. Panels with no nonzeros contribute
            // exactly +0.0 and are skipped. `panel_end` is the exclusive
            // upper k of the open panel (0 = none open yet).
            TtmPath::Packed(kc) => {
                let mut panel_end = 0usize;
                for (&ik, &v) in entries {
                    let ik = ik as usize;
                    if ik >= panel_end {
                        if panel_end != 0 {
                            for j in 0..r {
                                out_panel[j] += acc[j];
                            }
                        }
                        acc.fill(0.0);
                        panel_end = (ik / kc + 1) * kc;
                    }
                    let fr = &fac[ik * r..][..r];
                    for j in 0..r {
                        if FMA {
                            acc[j] = v.mul_add(fr[j], acc[j]);
                        } else {
                            acc[j] += v * fr[j];
                        }
                    }
                }
                if panel_end != 0 {
                    for j in 0..r {
                        out_panel[j] += acc[j];
                    }
                }
            }
        }
    }
}

/// Semi-sparse mTTV: contract level `pos` of `ss` with `factor` (rows
/// matching that level's extent, columns matching the rank), producing a
/// semi-sparse tensor with one fewer level.
///
/// Bit-identical to densifying and running [`crate::kernels::mttv::mttv`]
/// at the same position: per output panel, contributions accumulate in
/// ascending contracted-coordinate order through the dense kernel's own
/// row operation. The grouping comes from the pattern's memo (module
/// docs); results at one position share one child pattern.
pub fn ss_mttv(ss: &SemiSparseTensor, pos: usize, factor: &Matrix) -> SemiSparseTensor {
    let l = ss.levels();
    assert!(l >= 2, "contraction needs at least two surviving levels");
    assert!(pos < l, "pos {pos} out of range ({l} levels)");
    let r = ss.rank();
    assert_eq!(factor.cols(), r, "factor columns must equal rank extent");
    assert_eq!(
        factor.rows(),
        ss.dim(pos),
        "factor rows must match contracted extent"
    );
    let e_in = ss.n_entries();
    let plan = ss.pattern.mttv_plan(pos);
    let mut panels = Workspace::unpooled().draw_zeroed(plan.child.n_entries() * r);

    let fac = factor.data();
    for_entry_blocks(&mut panels, r, e_in * r, |e0, out| {
        mttv_block(ss, plan, pos, fac, e0, out)
    });
    SemiSparseTensor {
        pattern: plan.child.clone(),
        panels,
        r,
    }
}

/// One block of [`ss_mttv`] output panels, on the best clone the CPU runs.
fn mttv_block(
    ss: &SemiSparseTensor,
    plan: &MttvPlan,
    pos: usize,
    fac: &[f64],
    e0: usize,
    out: &mut [f64],
) {
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `simd_level` probed AVX-512F+FMA at runtime.
        SimdLevel::Avx512 => unsafe { mttv_block_avx512(ss, plan, pos, fac, e0, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `simd_level` probed AVX2+FMA at runtime.
        SimdLevel::Avx2 => unsafe { mttv_block_avx2(ss, plan, pos, fac, e0, out) },
        SimdLevel::Scalar => mttv_block_body::<false>(ss, plan, pos, fac, e0, out),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
fn mttv_block_avx512(
    ss: &SemiSparseTensor,
    plan: &MttvPlan,
    pos: usize,
    fac: &[f64],
    e0: usize,
    out: &mut [f64],
) {
    mttv_block_body::<true>(ss, plan, pos, fac, e0, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn mttv_block_avx2(
    ss: &SemiSparseTensor,
    plan: &MttvPlan,
    pos: usize,
    fac: &[f64],
    e0: usize,
    out: &mut [f64],
) {
    mttv_block_body::<true>(ss, plan, pos, fac, e0, out)
}

#[inline(always)]
fn mttv_block_body<const FMA: bool>(
    ss: &SemiSparseTensor,
    plan: &MttvPlan,
    pos: usize,
    fac: &[f64],
    e0: usize,
    out: &mut [f64],
) {
    let (l, r) = (ss.levels(), ss.r);
    let (inds, panels) = (ss.inds(), ss.panels());
    // No closures in here: a closure body is a function of its own, outside
    // the caller's `#[target_feature]` set, and would fall back to libm.
    for (local, out_panel) in out.chunks_exact_mut(r).enumerate() {
        for g in plan.ptr[e0 + local]..plan.ptr[e0 + local + 1] {
            let p = match &plan.perm {
                Some(perm) => perm[g] as usize,
                None => g,
            };
            // out[j] += in[p, j] · a[y, j] — the dense kernel's chain step,
            // with y read from the parent tuple of the gathered entry.
            let y = inds[p * l + pos] as usize;
            slab_axpy_body::<FMA>(
                out_panel,
                &panels[p * r..(p + 1) * r],
                &fac[y * r..(y + 1) * r],
            );
        }
    }
}

/// Full semi-sparse MTTKRP finish: contract every level of a first-level
/// intermediate except the target mode `n`, last position first (each step
/// then needs no regrouping permutation), and scatter into the dense
/// `s_n × R` output.
///
/// `mode_order[l]` names the original tensor mode stored at level `l`.
/// Bit-identical to densifying `ss` and running the dense mTTV chain over
/// the same positions.
pub fn semisparse_mttkrp(
    ss: &SemiSparseTensor,
    mode_order: &[usize],
    factors: &[Matrix],
    n: usize,
) -> Matrix {
    assert_eq!(mode_order.len(), ss.levels(), "one mode per level");
    assert!(mode_order.contains(&n), "target mode must survive");
    let mut order: Vec<usize> = mode_order.to_vec();
    let mut owned: Option<SemiSparseTensor> = None;
    while order.len() > 1 {
        let pos = (0..order.len())
            .rev()
            .find(|&p| order[p] != n)
            .expect("a non-target level remains");
        owned = Some(ss_mttv(
            owned.as_ref().unwrap_or(ss),
            pos,
            &factors[order[pos]],
        ));
        order.remove(pos);
    }
    owned.as_ref().unwrap_or(ss).to_matrix(factors[n].rows())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::mttv::mttv;
    use crate::kernels::ttm::ttm;
    use crate::rng::{seeded, uniform_matrix};
    use rand::Rng;
    use std::collections::BTreeMap;

    fn random_sparse(dims: &[usize], nnz: usize, seed: u64) -> SparseTensor {
        let mut rng = seeded(seed);
        let order = dims.len();
        let mut inds = Vec::with_capacity(nnz * order);
        let mut vals = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            for &d in dims {
                inds.push(rng.random_range(0..d));
            }
            vals.push(rng.random::<f64>() * 2.0 - 1.0);
        }
        SparseTensor::from_coo(dims.to_vec(), inds, vals)
    }

    fn factors_for(dims: &[usize], r: usize, seed: u64) -> Vec<Matrix> {
        let mut rng = seeded(seed);
        dims.iter()
            .map(|&d| uniform_matrix(d, r, &mut rng))
            .collect()
    }

    /// Dense TTM of `mode` with surviving modes kept in ascending order —
    /// the layout `csf_ttm` produces.
    fn dense_ttm_oracle(sp: &SparseTensor, mode: usize, factor: &Matrix) -> DenseTensor {
        ttm(&sp.to_dense(), mode, factor).tensor
    }

    /// Every kernel against its dense oracle on `sp`: `csf_ttm` of every
    /// mode, `ss_mttv` of every position of every first level, and
    /// `semisparse_mttkrp` down to every surviving target.
    fn assert_chain_matches_dense(sp: &SparseTensor, r: usize, seed: u64, what: &str) {
        let order = sp.order();
        let factors = factors_for(sp.dims(), r, seed);
        for k in 0..order {
            let plan = TtmPlan::build(sp, k);
            let ss = csf_ttm(sp, &plan, &factors[k]);
            let dense = dense_ttm_oracle(sp, k, &factors[k]);
            assert_eq!(ss.to_dense().data(), dense.data(), "{what} r {r} ttm {k}");
            let mode_order: Vec<usize> = (0..order).filter(|&m| m != k).collect();
            for (pos, &m) in mode_order.iter().enumerate() {
                let got = ss_mttv(&ss, pos, &factors[m]).to_dense();
                let want = mttv(&dense, pos, &factors[m]).tensor;
                assert_eq!(got.data(), want.data(), "{what} r {r} ttm {k} pos {pos}");
            }
            for &n in &mode_order {
                let got = semisparse_mttkrp(&ss, &mode_order, &factors, n);
                let mut cur = dense.clone();
                let mut ord = mode_order.clone();
                while ord.len() > 1 {
                    let pos = (0..ord.len()).rev().find(|&p| ord[p] != n).unwrap();
                    cur = mttv(&cur, pos, &factors[ord[pos]]).tensor;
                    ord.remove(pos);
                }
                assert_eq!(got.data(), cur.data(), "{what} r {r} ttm {k} target {n}");
            }
        }
    }

    #[test]
    fn csf_ttm_matches_dense_ttm_bitwise() {
        for (dims, nnz, seed) in [
            (vec![5, 6, 4], 25usize, 2u64),
            (vec![7, 3, 5], 60, 3),
            (vec![4, 4, 4, 4], 45, 4),
            (vec![16, 12, 10], 400, 5), // big enough for the packed path
        ] {
            let sp = random_sparse(&dims, nnz, seed);
            let factors = factors_for(&dims, 3, seed + 100);
            for (mode, factor) in factors.iter().enumerate() {
                let plan = TtmPlan::build(&sp, mode);
                let got = csf_ttm(&sp, &plan, factor).to_dense();
                let want = dense_ttm_oracle(&sp, mode, factor);
                assert_eq!(
                    got.data(),
                    want.data(),
                    "dims {dims:?} mode {mode} (nnz {})",
                    sp.nnz()
                );
            }
        }
    }

    #[test]
    fn chain_matches_dense_across_ranks_dispatch_sides_and_kc_panels() {
        let kc = panel_kc();
        let small = vec![3usize, 4, 2];
        let packed = vec![16usize, 12, 10];
        let deep = vec![4usize, 3, 2 * kc + 5]; // three KC panels along mode 2
        for r in [1usize, 3, 8, 16, 32] {
            // Both sides of the dense small-vs-packed dispatch: the GEMM's
            // m·n·k is volume·R whichever mode is contracted.
            for (dims, is_small) in [(&small, true), (&packed, false)] {
                let volume: usize = dims.iter().product();
                assert_eq!(volume * r < small_work_limit(), is_small);
            }
            assert_chain_matches_dense(&random_sparse(&small, 14, 40), r, 41, "small");
            assert_chain_matches_dense(&random_sparse(&packed, 400, 42), r, 43, "packed");
            assert_chain_matches_dense(&random_sparse(&deep, 700, 44), r, 45, "deep");
        }
    }

    #[test]
    fn ss_mttv_matches_dense_mttv_bitwise() {
        let dims = vec![6, 5, 4, 3];
        let sp = random_sparse(&dims, 70, 9);
        let factors = factors_for(&dims, 4, 10);
        let plan = TtmPlan::build(&sp, 3);
        let ss = csf_ttm(&sp, &plan, &factors[3]);
        let dense = ss.to_dense();
        // Surviving modes are 0,1,2 at levels 0,1,2.
        for (pos, factor) in factors.iter().enumerate().take(3) {
            let got = ss_mttv(&ss, pos, factor).to_dense();
            let want = mttv(&dense, pos, factor).tensor;
            assert_eq!(got.data(), want.data(), "pos {pos}");
        }
    }

    #[test]
    fn semisparse_mttkrp_matches_dense_chain_bitwise() {
        for (dims, nnz, seed) in [(vec![6, 5, 4], 40usize, 11u64), (vec![4, 5, 3, 4], 50, 12)] {
            assert_chain_matches_dense(&random_sparse(&dims, nnz, seed), 3, seed + 7, "chain");
        }
    }

    #[test]
    fn empty_tensor_yields_empty_intermediates() {
        let sp = SparseTensor::from_coo(vec![4, 3, 5], vec![], vec![]);
        let factors = factors_for(&[4, 3, 5], 2, 1);
        let plan = TtmPlan::build(&sp, 2);
        let ss = csf_ttm(&sp, &plan, &factors[2]);
        assert_eq!(ss.n_entries(), 0);
        assert_eq!(ss_mttv(&ss, 0, &factors[0]).n_entries(), 0);
        let m = semisparse_mttkrp(&ss, &[0, 1], &factors, 0);
        assert!(m.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn single_entry_and_single_fiber_tensors_match_dense() {
        let dims = [5usize, 4, 6];
        let one = SparseTensor::from_coo(dims.to_vec(), vec![3, 1, 4], vec![-0.75]);
        assert_chain_matches_dense(&one, 16, 3, "one nonzero");
        // Every nonzero under one (mode-0, mode-1) tuple: a single fiber
        // along mode 2, a single output entry when mode 2 is contracted.
        let inds: Vec<usize> = (0..6).flat_map(|k| [2, 3, k]).collect();
        let vals: Vec<f64> = (0..6).map(|k| 0.5 - k as f64 * 0.3).collect();
        let fiber = SparseTensor::from_coo(dims.to_vec(), inds, vals);
        assert_eq!(TtmPlan::build(&fiber, 2).n_out(), 1);
        assert_chain_matches_dense(&fiber, 16, 4, "one fiber");
        assert_chain_matches_dense(&fiber, 5, 5, "one fiber");
    }

    /// Exact-arithmetic reference for `csf_ttm` on tensors too large to
    /// densify: small-integer values and factor entries make every product
    /// and partial sum exact, so the result is independent of grouping,
    /// fusion and order.
    fn assert_ttm_matches_integer_reference(sp: &SparseTensor, mode: usize, r: usize) {
        let factor = Matrix::from_fn(sp.dim(mode), r, |i, j| ((i * 3 + j) % 5) as f64 - 2.0);
        let ss = csf_ttm(sp, &TtmPlan::build(sp, mode), &factor);
        let mut want: BTreeMap<Vec<u32>, Vec<f64>> = BTreeMap::new();
        for e in 0..sp.nnz() {
            let mut tuple = sp.idx(e).to_vec();
            let k = tuple.remove(mode) as usize;
            let panel = want.entry(tuple).or_insert_with(|| vec![0.0; r]);
            for (j, p) in panel.iter_mut().enumerate() {
                *p += sp.vals()[e] * factor.get(k, j);
            }
        }
        assert_eq!(ss.n_entries(), want.len());
        for (e, (tuple, panel)) in want.iter().enumerate() {
            assert_eq!(ss.idx(e), &tuple[..], "mode {mode} entry {e}");
            assert_eq!(ss.panel(e), &panel[..], "mode {mode} entry {e}");
        }
    }

    #[test]
    fn plan_build_orders_huge_extents() {
        // 2^60 surviving volume: linearized u64 keys near the top of their
        // range. 2^66: the volume overflows u64 and the build falls back to
        // comparing tuples. Both must group like the reference.
        for big in [1usize << 20, 1 << 22] {
            let dims = vec![3, big, big, big];
            let far = big - 1;
            let inds = [
                [2, far, 0, far],
                [0, far, 0, far],
                [1, 0, far, 5],
                [0, 0, far, 5],
                [2, 7, 7, 7],
                [1, far, far, far],
                [0, far, far, far],
                [2, far, 0, far - 1],
            ];
            let vals = vec![1.0, 2.0, -3.0, 4.0, 5.0, -6.0, 7.0, 8.0];
            let sp = SparseTensor::from_coo(dims, inds.concat(), vals);
            assert_ttm_matches_integer_reference(&sp, 0, 2);
            assert_ttm_matches_integer_reference(&sp, 3, 1);
        }
    }

    #[test]
    fn results_share_patterns_and_the_memo_builds_once() {
        let dims = [9usize, 8, 7, 6];
        let sp = random_sparse(&dims, 300, 51);
        let factors = factors_for(&dims, 4, 52);
        let plan = TtmPlan::build(&sp, 1);
        let a = csf_ttm(&sp, &plan, &factors[1]);
        let b = csf_ttm(&sp, &plan, &factors[1]);
        assert!(Arc::ptr_eq(a.pattern(), b.pattern()));

        // Levels hold modes 0, 2, 3. Same position → same child pattern,
        // from either parent; another position → another pattern.
        let c = ss_mttv(&a, 0, &factors[0]);
        let d = ss_mttv(&b, 0, &factors[0]);
        assert!(Arc::ptr_eq(c.pattern(), d.pattern()));
        assert!(!Arc::ptr_eq(
            c.pattern(),
            ss_mttv(&a, 2, &factors[3]).pattern()
        ));

        // First requested by eight threads at once (a fresh plan, so the
        // memo is empty): every result must hold the one pattern the single
        // build produced.
        let fresh = csf_ttm(&sp, &TtmPlan::build(&sp, 1), &factors[1]);
        let gate = std::sync::Barrier::new(8);
        let patterns: Vec<Arc<SsPattern>> = std::thread::scope(|s| {
            let spawned: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        gate.wait();
                        ss_mttv(&fresh, 1, &factors[2]).pattern().clone()
                    })
                })
                .collect();
            spawned.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(patterns.iter().all(|p| Arc::ptr_eq(p, &patterns[0])));
    }

    #[test]
    fn from_parts_rebuild_contracts_bit_identically() {
        let dims = [7usize, 6, 5, 4];
        let sp = random_sparse(&dims, 200, 61);
        let factors = factors_for(&dims, 8, 62);
        let ss = csf_ttm(&sp, &TtmPlan::build(&sp, 0), &factors[0]);
        let rebuilt = SemiSparseTensor::from_parts(
            ss.dims().to_vec(),
            ss.inds().to_vec(),
            ss.panels().to_vec(),
            ss.rank(),
        )
        .expect("a kernel result is well formed");
        assert!(!Arc::ptr_eq(ss.pattern(), rebuilt.pattern()));
        for pos in 0..3 {
            let (a, b) = (
                ss_mttv(&ss, pos, &factors[pos + 1]),
                ss_mttv(&rebuilt, pos, &factors[pos + 1]),
            );
            assert_eq!(a.inds(), b.inds(), "pos {pos}");
            assert_eq!(a.panels(), b.panels(), "pos {pos}");
        }
    }

    #[test]
    fn from_parts_rejects_malformed_parts() {
        let parts = |dims: &[usize], inds: &[u32], panels: usize, r: usize| {
            SemiSparseTensor::from_parts(dims.to_vec(), inds.to_vec(), vec![0.0; panels], r)
        };
        assert!(parts(&[3, 4], &[0, 1, 2, 3], 4, 2).is_ok());
        assert!(parts(&[3, 4], &[0, 1, 2], 4, 2).is_err(), "ragged tuples");
        assert!(parts(&[3, 4], &[0, 1, 2, 3], 3, 2).is_err(), "short panels");
        assert!(parts(&[3, 4], &[0, 1, 2, 3], 0, 0).is_err(), "zero rank");
        assert!(parts(&[], &[], 0, 2).is_err(), "no levels");
        let e = parts(&[3, 4], &[0, 1, 3, 0], 4, 2).unwrap_err();
        assert!(e.contains("out of range"), "{e}");
        let e = parts(&[3, 4], &[2, 3, 0, 1], 4, 2).unwrap_err();
        assert!(e.contains("ascending"), "{e}");
        assert!(parts(&[3, 4], &[1, 1, 1, 1], 4, 2).is_err(), "duplicate");
    }

    #[test]
    fn memory_words_count_indices_and_panels() {
        let sp = random_sparse(&[5, 4, 3], 20, 31);
        let plan = TtmPlan::build(&sp, 1);
        // Values and contracted coordinates of every nonzero live in the
        // plan, beside the output tuples and group pointers.
        let fresh_plan = plan.memory_words();
        assert!(fresh_plan >= sp.nnz() + sp.nnz() / 2);
        let factors = factors_for(&[5, 4, 3], 2, 32);
        let ss = csf_ttm(&sp, &plan, &factors[1]);
        let e = ss.n_entries();
        assert_eq!(ss.memory_words(), (e * 2 * 4 + e * 2 * 8) / 8);
        // A memoized mTTV plan is charged to the pattern that holds it and,
        // with the child pattern, to the input plan above.
        let child = ss_mttv(&ss, 0, &factors[0]);
        assert!(ss.memory_words() > (e * 2 * 4 + e * 2 * 8) / 8);
        assert!(plan.memory_words() >= fresh_plan + child.pattern().memory_words());
    }
}
