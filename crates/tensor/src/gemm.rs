//! Packed, register-tiled GEMM (BLIS-style), standing in for MKL.
//!
//! `C ← α·op(A)·op(B) + β·C` is driven by an `MR×NR` micro-kernel over
//! *packed* operand panels:
//!
//! * `op(A)` is packed into `MC×KC` row blocks of `MR`-row micro-panels
//!   (`ap[l·MR + i]`), so the micro-kernel reads A unit-stride even when
//!   `Trans::Yes` stores it k-major;
//! * `op(B)` is packed into `KC×NR` column panels (`bp[l·NR + j]`) — or
//!   used in place when it is untransposed and a single panel covers all
//!   of `n`, the tall-skinny ALS shape (`n = rank`);
//! * the micro-kernel keeps an `MR×NR` accumulator block in registers and
//!   streams both panels with unit stride, writing C once per `KC` panel
//!   instead of once per `k` step.
//!
//! Every ALS matmul here is tall-skinny with `n = rank` (16–50), so the
//! panel width is **rank-specialized**: `n ∈ {8, 16, 32}` dispatches to
//! monomorphized fixed-`n` micro-kernels (the whole C row-strip lives in
//! the accumulator block and the `j` loops unroll); other widths run
//! `NR = 8` panels with a zero-padded edge panel.
//!
//! **Determinism.** Row chunks of C are distributed over the persistent
//! pool, but each output element is produced by the same arithmetic
//! regardless of chunk boundaries: one scalar accumulator per element,
//! `k` traversed in `KC`-panel order, `c += α·acc` once per panel, and
//! zero-padded edge micro-tiles that never touch real elements. Results
//! are therefore bit-identical for any thread count (see
//! `crates/tensor/tests/pool_determinism.rs`).

use crate::matrix::Matrix;
use crate::simd::{simd_level, SimdLevel};
use rayon::prelude::*;
use std::cell::{Cell, RefCell};

/// Transpose flag for a GEMM operand.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the operand's transpose.
    Yes,
}

/// Micro-kernel row count: each micro-tile update keeps `MR` rows of C in
/// the accumulator block.
const MR: usize = 8;
/// Generic panel width (the fixed-`n` paths use `n` itself).
const NR: usize = 8;
/// Default rows per packed-A block (multiple of `MR`); with `KC` chosen so
/// an `MC×KC` A block (128 KiB) stays L2-resident while B panels stay in
/// L1. Tuned for this container's cache ladder.
const MC_DEFAULT: usize = 64;
/// Default depth of one k panel.
const KC_DEFAULT: usize = 256;

/// Resolved `(MC, KC)` panel constants. Fleet hardware with a different
/// cache ladder retunes **without a rebuild** via the `PP_GEMM_MC` /
/// `PP_GEMM_KC` environment variables, read once at first use. Overrides
/// are validated by [`resolve_panel`]; a malformed value warns on stderr
/// and falls back to the default (same policy as `PP_NUM_THREADS`).
static PANELS: std::sync::OnceLock<(usize, usize)> = std::sync::OnceLock::new();

fn panel_constants() -> (usize, usize) {
    *PANELS.get_or_init(|| {
        (
            resolve_panel(
                "PP_GEMM_MC",
                std::env::var("PP_GEMM_MC").ok().as_deref(),
                MC_DEFAULT,
                MR,
            ),
            resolve_panel(
                "PP_GEMM_KC",
                std::env::var("PP_GEMM_KC").ok().as_deref(),
                KC_DEFAULT,
                1,
            ),
        )
    })
}

/// Validate one panel override: positive integers are clamped to
/// `[round_to, 4096]` and rounded **up** to a multiple of `round_to` (MC
/// must cover whole `MR`-row micro-panels); anything else keeps the
/// default with a warning. Pure, so the policy is unit-testable without
/// touching process environment.
fn resolve_panel(name: &str, raw: Option<&str>, default: usize, round_to: usize) -> usize {
    let Some(raw) = raw else {
        return default;
    };
    match raw.trim().parse::<usize>() {
        Ok(v) if v > 0 => v.clamp(1, 4096).div_ceil(round_to) * round_to,
        _ => {
            eprintln!("warning: ignoring invalid {name}={raw:?} (want a positive integer)");
            default
        }
    }
}

/// Below this many multiply-adds the packing overhead is not worth it and
/// a plain serial triple loop runs instead (size-based, so the choice is
/// deterministic and thread-count independent).
const SMALL_WORK: usize = 1 << 10;

/// The resolved KC panel depth (after any `PP_GEMM_KC` override) — exposed
/// so kernels on other representations (the semi-sparse TTM) can replay
/// the packed path's per-panel accumulation order bit for bit.
pub fn panel_kc() -> usize {
    panel_constants().1
}

/// The small-vs-packed dispatch threshold in multiply-adds (`m·n·k`) —
/// exposed for the same bitwise-mirroring reason as [`panel_kc`].
pub fn small_work_limit() -> usize {
    SMALL_WORK
}

/// Minimum number of multiply-adds before it is worth fanning out to the
/// rayon pool; below this the dispatch overhead exceeds the work. With the
/// persistent pool, dispatch is an enqueue + atomic chunk claims (no thread
/// spawn), so this sits 4× lower than the per-call-spawn era (2^18).
const PAR_WORK_THRESHOLD: usize = 1 << 16;

/// Row chunks handed to the pool per worker thread. Oversubscribing ~4×
/// lets the dynamic chunk claiming balance uneven progress across workers
/// at negligible cost (one atomic op per chunk).
const CHUNKS_PER_THREAD: usize = 4;

/// Per-thread tally of packed-GEMM activity, sampled by the dimension-tree
/// engine (`KernelStats`) and the bench binaries. Counters are
/// thread-local and bumped by the *calling* thread once per `gemm_slice`,
/// so a driver thread sampling [`thread_gemm_counters`] around a kernel
/// call sees exactly its own calls even while other ranks compute
/// concurrently.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GemmCounters {
    /// GEMM invocations (any path).
    pub calls: u64,
    /// Multiply-add flops issued (`2·m·n·k` per call).
    pub flops: u64,
    /// Calls dispatched to a monomorphized fixed-`n` micro-kernel
    /// (`n ∈ {8, 16, 32}`).
    pub fixed_n_calls: u64,
    /// Calls running generic `NR = 8` panels (including the small-size
    /// serial path).
    pub generic_calls: u64,
}

impl GemmCounters {
    const ZERO: GemmCounters = GemmCounters {
        calls: 0,
        flops: 0,
        fixed_n_calls: 0,
        generic_calls: 0,
    };

    /// Component-wise difference against an earlier snapshot.
    pub fn since(&self, earlier: &GemmCounters) -> GemmCounters {
        GemmCounters {
            calls: self.calls.saturating_sub(earlier.calls),
            flops: self.flops.saturating_sub(earlier.flops),
            fixed_n_calls: self.fixed_n_calls.saturating_sub(earlier.fixed_n_calls),
            generic_calls: self.generic_calls.saturating_sub(earlier.generic_calls),
        }
    }
}

thread_local! {
    static COUNTERS: Cell<GemmCounters> = const { Cell::new(GemmCounters::ZERO) };
    /// Reusable packing buffers. `PACK_A` is borrowed by whichever thread
    /// executes a row chunk; `PACK_B` by the calling thread for the
    /// duration of the call. Distinct keys, so a caller participating in
    /// its own batch never re-borrows.
    static PACK_A: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    static PACK_B: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Snapshot of this thread's packed-GEMM counters (monotonic; diff two
/// snapshots with [`GemmCounters::since`]).
pub fn thread_gemm_counters() -> GemmCounters {
    COUNTERS.with(|c| c.get())
}

/// Credit `calls` products of logical shape `m×n×k` to this thread's
/// counters. [`gemm_slice`] credits its own call; a kernel that fans
/// [`gemm_slice_uncounted`] calls out over the pool credits them here, on
/// the thread that issued the batch, so the tally does not depend on which
/// worker ran what.
pub(crate) fn count_gemm_calls(calls: u64, m: usize, n: usize, k: usize) {
    // The rank-specialized micro-kernels serve n ∈ {8, 16, 32} above the
    // small-work threshold; everything else is a generic call.
    let fixed = m * n * k >= SMALL_WORK && matches!(n, 8 | 16 | 32);
    COUNTERS.with(|c| {
        let mut v = c.get();
        v.calls += calls;
        v.flops += calls * gemm_flops(m, n, k);
        if fixed {
            v.fixed_n_calls += calls;
        } else {
            v.generic_calls += calls;
        }
        c.set(v);
    });
}

/// Run `f` on a zeroable scratch slice of `len` f64s, reusing the given
/// thread-local buffer when it is free and falling back to a fresh
/// allocation under re-entrancy (defensive: the kernel never calls itself,
/// but a fallback is cheaper than reasoning about every future caller).
fn with_scratch<R>(
    tls: &'static std::thread::LocalKey<RefCell<Vec<f64>>>,
    len: usize,
    f: impl FnOnce(&mut [f64]) -> R,
) -> R {
    tls.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => {
            if buf.len() < len {
                buf.resize(len, 0.0);
            }
            f(&mut buf[..len])
        }
        Err(_) => f(&mut vec![0.0; len]),
    })
}

/// General matrix multiply over `Matrix` values: `C ← α·op(A)·op(B) + β·C`.
///
/// Shapes (after applying the transpose flags) must satisfy
/// `op(A): m×k`, `op(B): k×n`, `C: m×n`; panics otherwise.
pub fn gemm(ta: Trans, tb: Trans, alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    let (ar, ac) = (a.rows(), a.cols());
    let (br, bc) = (b.rows(), b.cols());
    let (cr, cc) = (c.rows(), c.cols());
    gemm_slice(
        ta,
        tb,
        alpha,
        a.data(),
        ar,
        ac,
        b.data(),
        br,
        bc,
        beta,
        c.data_mut(),
        cr,
        cc,
    );
}

/// Validate shapes shared by the packed and reference kernels; returns the
/// logical `(m, n, k)`.
#[allow(clippy::too_many_arguments)]
fn check_shapes(
    ta: Trans,
    tb: Trans,
    a: &[f64],
    a_rows: usize,
    a_cols: usize,
    b: &[f64],
    b_rows: usize,
    b_cols: usize,
    c: &[f64],
    c_rows: usize,
    c_cols: usize,
) -> (usize, usize, usize) {
    assert_eq!(a.len(), a_rows * a_cols, "A buffer length mismatch");
    assert_eq!(b.len(), b_rows * b_cols, "B buffer length mismatch");
    assert_eq!(c.len(), c_rows * c_cols, "C buffer length mismatch");
    let (m, ka) = match ta {
        Trans::No => (a_rows, a_cols),
        Trans::Yes => (a_cols, a_rows),
    };
    let (kb, n) = match tb {
        Trans::No => (b_rows, b_cols),
        Trans::Yes => (b_cols, b_rows),
    };
    assert_eq!(ka, kb, "gemm inner dimension mismatch: {ka} vs {kb}");
    assert_eq!(c_rows, m, "gemm output row mismatch");
    assert_eq!(c_cols, n, "gemm output col mismatch");
    (m, n, ka)
}

/// β-scale a C block in place (shared prologue of every path).
fn beta_scale(c: &mut [f64], beta: f64) {
    if beta == 0.0 {
        c.fill(0.0);
    } else if beta != 1.0 {
        for x in c.iter_mut() {
            *x *= beta;
        }
    }
}

/// Slice-based GEMM core: operands are row-major buffers with explicit
/// dimensions, letting tensor kernels multiply matricized views without
/// copying into `Matrix` values. This is the packed micro-kernel engine;
/// [`gemm_slice_ref`] keeps the cache-blocked predecessor as an oracle.
#[allow(clippy::too_many_arguments)]
pub fn gemm_slice(
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: &[f64],
    a_rows: usize,
    a_cols: usize,
    b: &[f64],
    b_rows: usize,
    b_cols: usize,
    beta: f64,
    c: &mut [f64],
    c_rows: usize,
    c_cols: usize,
) {
    let (mc_c, kc_c) = panel_constants();
    gemm_slice_with_panels(
        ta, tb, alpha, a, a_rows, a_cols, b, b_rows, b_cols, beta, c, c_rows, c_cols, mc_c, kc_c,
    )
}

/// [`gemm_slice`] without the counter bump — for kernels that issue many
/// products from pool tasks and credit them once with
/// [`count_gemm_calls`]. Arithmetic is identical.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_slice_uncounted(
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: &[f64],
    a_rows: usize,
    a_cols: usize,
    b: &[f64],
    b_rows: usize,
    b_cols: usize,
    beta: f64,
    c: &mut [f64],
    c_rows: usize,
    c_cols: usize,
) {
    let (mc_c, kc_c) = panel_constants();
    gemm_core(
        ta, tb, alpha, a, a_rows, a_cols, b, b_rows, b_cols, beta, c, c_rows, c_cols, mc_c, kc_c,
    );
}

/// [`gemm_slice`] with explicit `(MC, KC)` panel constants — the body
/// behind the `PP_GEMM_MC`/`PP_GEMM_KC` override, exposed so tests can
/// exercise arbitrary (including pathological) panel geometries against
/// the reference kernel without mutating process environment.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn gemm_slice_with_panels(
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: &[f64],
    a_rows: usize,
    a_cols: usize,
    b: &[f64],
    b_rows: usize,
    b_cols: usize,
    beta: f64,
    c: &mut [f64],
    c_rows: usize,
    c_cols: usize,
    mc_c: usize,
    kc_c: usize,
) {
    if let Some((m, n, k)) = gemm_core(
        ta, tb, alpha, a, a_rows, a_cols, b, b_rows, b_cols, beta, c, c_rows, c_cols, mc_c, kc_c,
    ) {
        count_gemm_calls(1, m, n, k);
    }
}

/// The product itself; returns its logical `(m, n, k)` unless the shape
/// was degenerate (nothing multiplied, nothing to count).
#[allow(clippy::too_many_arguments)]
fn gemm_core(
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: &[f64],
    a_rows: usize,
    a_cols: usize,
    b: &[f64],
    b_rows: usize,
    b_cols: usize,
    beta: f64,
    c: &mut [f64],
    c_rows: usize,
    c_cols: usize,
    mc_c: usize,
    kc_c: usize,
) -> Option<(usize, usize, usize)> {
    assert!(
        mc_c >= MR && mc_c.is_multiple_of(MR),
        "MC must cover micro-panels"
    );
    assert!(kc_c >= 1, "KC must be positive");
    let (m, n, k) = check_shapes(
        ta, tb, a, a_rows, a_cols, b, b_rows, b_cols, c, c_rows, c_cols,
    );
    if m == 0 || n == 0 {
        return None;
    }
    if k == 0 {
        beta_scale(c, beta);
        return None;
    }

    let work = m * n * k;
    if work < SMALL_WORK {
        small_serial(ta, tb, alpha, a, a_cols, b, b_cols, beta, c, m, n, k);
        return Some((m, n, k));
    }

    // Rank-specialization: every path runs MR×NR register tiles, but for
    // `n ∈ {8, 16, 32}` the per-tile panel count is monomorphized (1, 2 or
    // 4 fully unrolled NR-wide panels); other widths take the generic
    // runtime-count loop with a zero-padded edge panel. Size-based only —
    // never thread-dependent.
    let npad = n.div_ceil(NR) * NR;

    // `op(B)` untransposed with a single full-width panel is already in
    // packed layout: use it in place (the `n = NR` case).
    let b_in_place = matches!(tb, Trans::No) && n == NR;

    let mut run = |b_packed: &[f64]| {
        let body = |row_start: usize, c_chunk: &mut [f64]| {
            let rows_here = c_chunk.len() / n;
            beta_scale(c_chunk, beta);
            // Scratch covers one MC×KC block, clamped to what this call
            // can actually fill — a large PP_GEMM_MC/KC override must not
            // pin panel-sized thread-local buffers under small matrices.
            let mc_eff = mc_c.min(rows_here.div_ceil(MR) * MR);
            let a_buf_len = mc_eff.div_ceil(MR) * MR * kc_c.min(k);
            with_scratch(&PACK_A, a_buf_len, |ap_buf| {
                let mut kp = 0;
                while kp < k {
                    let kc = kc_c.min(k - kp);
                    let bp = &b_packed[kp * npad..kp * npad + kc * npad];
                    let mut ip = 0;
                    while ip < rows_here {
                        let mc = mc_c.min(rows_here - ip);
                        let ap = &mut ap_buf[..mc.div_ceil(MR) * MR * kc];
                        pack_a(ta, a, a_cols, row_start + ip, mc, kp, kc, ap);
                        match n {
                            8 => block_panel::<1>(kc, mc, n, alpha, ap, bp, c_chunk, ip),
                            16 => block_panel::<2>(kc, mc, n, alpha, ap, bp, c_chunk, ip),
                            32 => block_panel::<4>(kc, mc, n, alpha, ap, bp, c_chunk, ip),
                            // 0 = runtime panel count (generic widths).
                            _ => block_panel::<0>(kc, mc, n, alpha, ap, bp, c_chunk, ip),
                        }
                        ip += mc;
                    }
                    kp += kc;
                }
            });
        };

        if work >= PAR_WORK_THRESHOLD && m > 1 {
            // Split C into contiguous row chunks, claimed dynamically off
            // the persistent pool.
            let nthreads = rayon::current_num_threads().max(1);
            let rows_per_chunk = m.div_ceil(nthreads * CHUNKS_PER_THREAD).max(1);
            c.par_chunks_mut(rows_per_chunk * n)
                .enumerate()
                .for_each(|(ci, chunk)| body(ci * rows_per_chunk, chunk));
        } else {
            body(0, c);
        }
    };

    if b_in_place {
        run(b);
    } else {
        with_scratch(&PACK_B, k * npad, |pb| {
            let mut kp = 0;
            while kp < k {
                let kc = kc_c.min(k - kp);
                pack_b(
                    tb,
                    b,
                    b_cols,
                    kp,
                    kc,
                    n,
                    NR,
                    &mut pb[kp * npad..kp * npad + kc * npad],
                );
                kp += kc;
            }
            run(pb);
        });
    }
    Some((m, n, k))
}

/// Pack the k-panel `[kp, kp+kc)` of `op(B)` into `nr`-wide column panels:
/// panel `jp` occupies `dst[jp·kc·nr ..]` with element `(l, j)` at
/// `l·nr + j`. Edge columns beyond `n` are zero-filled so the micro-kernel
/// never branches on width.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    tb: Trans,
    b: &[f64],
    ld: usize,
    kp: usize,
    kc: usize,
    n: usize,
    nr: usize,
    dst: &mut [f64],
) {
    let npanels = n.div_ceil(nr);
    for jp in 0..npanels {
        let j0 = jp * nr;
        let jw = nr.min(n - j0);
        let block = &mut dst[jp * kc * nr..(jp + 1) * kc * nr];
        match tb {
            Trans::No => {
                for (l, row) in block.chunks_exact_mut(nr).enumerate() {
                    let src = &b[(kp + l) * ld + j0..(kp + l) * ld + j0 + jw];
                    row[..jw].copy_from_slice(src);
                    row[jw..].fill(0.0);
                }
            }
            Trans::Yes => {
                // Stored n×k: column j of op(B) is a contiguous stored row.
                if jw < nr {
                    block.fill(0.0);
                }
                for jj in 0..jw {
                    let col = &b[(j0 + jj) * ld + kp..(j0 + jj) * ld + kp + kc];
                    for (l, &v) in col.iter().enumerate() {
                        block[l * nr + jj] = v;
                    }
                }
            }
        }
    }
}

/// Pack rows `[gr0, gr0+mc)` × k-panel `[kp, kp+kc)` of `op(A)` into
/// `MR`-row micro-panels: micro-panel `ib` occupies `dst[ib·kc·MR ..]`
/// with element `(i, l)` at `l·MR + i`. Edge rows beyond `mc` are
/// zero-filled (their accumulator rows are discarded at writeback).
#[allow(clippy::too_many_arguments)]
fn pack_a(
    ta: Trans,
    a: &[f64],
    ld: usize,
    gr0: usize,
    mc: usize,
    kp: usize,
    kc: usize,
    dst: &mut [f64],
) {
    let npanels = mc.div_ceil(MR);
    for ib in 0..npanels {
        let i0 = ib * MR;
        let iw = MR.min(mc - i0);
        let block = &mut dst[ib * kc * MR..(ib + 1) * kc * MR];
        match ta {
            Trans::No => {
                if iw < MR {
                    block.fill(0.0);
                }
                for ii in 0..iw {
                    let row = &a[(gr0 + i0 + ii) * ld + kp..(gr0 + i0 + ii) * ld + kp + kc];
                    for (l, &v) in row.iter().enumerate() {
                        block[l * MR + ii] = v;
                    }
                }
            }
            Trans::Yes => {
                // Stored k×m: row l of op(A)ᵀ is contiguous, so the inner
                // copy is unit-stride — the whole point of packing the
                // transposed operand.
                for (l, mrow) in block.chunks_exact_mut(MR).enumerate() {
                    let src = &a[(kp + l) * ld + gr0 + i0..(kp + l) * ld + gr0 + i0 + iw];
                    mrow[..iw].copy_from_slice(src);
                    mrow[iw..].fill(0.0);
                }
            }
        }
    }
}

/// One packed A block × all B panels of one k panel: an `MR×NR`
/// register-tiled micro-kernel over every tile, then `c += α·acc` on the
/// real rows/columns. `NPAN` monomorphizes the per-tile panel count for
/// the rank-specialized widths (`n = NPAN·NR` for `NPAN ∈ {1, 2, 4}`);
/// `NPAN = 0` is the generic runtime-count path. Dispatches to a
/// feature-specialized clone of [`block_panel_body`].
#[allow(clippy::too_many_arguments)]
fn block_panel<const NPAN: usize>(
    kc: usize,
    mc: usize,
    n: usize,
    alpha: f64,
    ap: &[f64],
    bp: &[f64],
    c_chunk: &mut [f64],
    row0: usize,
) {
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `simd_level` returned this variant only after
        // `is_x86_feature_detected!` confirmed the features are present.
        SimdLevel::Avx512 => unsafe {
            block_panel_avx512::<NPAN>(kc, mc, n, alpha, ap, bp, c_chunk, row0)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above — AVX2+FMA were detected at runtime.
        SimdLevel::Avx2 => unsafe {
            block_panel_avx2::<NPAN>(kc, mc, n, alpha, ap, bp, c_chunk, row0)
        },
        SimdLevel::Scalar => {
            block_panel_body::<NPAN, false>(kc, mc, n, alpha, ap, bp, c_chunk, row0)
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
#[allow(clippy::too_many_arguments)]
fn block_panel_avx512<const NPAN: usize>(
    kc: usize,
    mc: usize,
    n: usize,
    alpha: f64,
    ap: &[f64],
    bp: &[f64],
    c_chunk: &mut [f64],
    row0: usize,
) {
    block_panel_body::<NPAN, true>(kc, mc, n, alpha, ap, bp, c_chunk, row0)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
fn block_panel_avx2<const NPAN: usize>(
    kc: usize,
    mc: usize,
    n: usize,
    alpha: f64,
    ap: &[f64],
    bp: &[f64],
    c_chunk: &mut [f64],
    row0: usize,
) {
    block_panel_body::<NPAN, true>(kc, mc, n, alpha, ap, bp, c_chunk, row0)
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn block_panel_body<const NPAN: usize, const FMA: bool>(
    kc: usize,
    mc: usize,
    n: usize,
    alpha: f64,
    ap: &[f64],
    bp: &[f64],
    c_chunk: &mut [f64],
    row0: usize,
) {
    let npan_i = mc.div_ceil(MR);
    let npan_j = if NPAN > 0 { NPAN } else { n.div_ceil(NR) };
    for ib in 0..npan_i {
        let iw = MR.min(mc - ib * MR);
        let apanel = &ap[ib * kc * MR..(ib + 1) * kc * MR];
        for jp in 0..npan_j {
            let j0 = jp * NR;
            let jw = NR.min(n - j0);
            let bpanel = &bp[jp * kc * NR..(jp + 1) * kc * NR];
            let mut acc = [[0.0f64; NR]; MR];
            microkernel::<FMA>(kc, apanel, bpanel, &mut acc);
            for (ii, arow) in acc.iter().enumerate().take(iw) {
                let ci = (row0 + ib * MR + ii) * n + j0;
                let crow = &mut c_chunk[ci..ci + jw];
                for (cv, av) in crow.iter_mut().zip(arow[..jw].iter()) {
                    *cv += alpha * av;
                }
            }
        }
    }
}

/// The register-tiled core: `acc[i][j] += Σ_l ap[l·MR+i] · bp[l·NR+j]`,
/// one scalar accumulator per element, `l` strictly ascending — the
/// arithmetic contract the determinism argument rests on. The `MR×NR`
/// accumulator block (64 doubles) lives entirely in vector registers on
/// AVX-512 and mostly so on AVX2.
#[inline(always)]
fn microkernel<const FMA: bool>(kc: usize, ap: &[f64], bp: &[f64], acc: &mut [[f64; NR]; MR]) {
    debug_assert!(ap.len() == kc * MR && bp.len() == kc * NR);
    for (arow, brow) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        let arow: &[f64; MR] = arow.try_into().unwrap();
        let brow: &[f64; NR] = brow.try_into().unwrap();
        for i in 0..MR {
            let ai = arow[i];
            for j in 0..NR {
                // `mul_add` emits a hardware FMA only inside the
                // feature-gated clones; the scalar clone keeps separate
                // mul+add (a software-emulated fused op would be ~100×
                // slower there).
                if FMA {
                    acc[i][j] = ai.mul_add(brow[j], acc[i][j]);
                } else {
                    acc[i][j] += ai * brow[j];
                }
            }
        }
    }
}

/// Serial triple loop for products too small to amortize packing.
#[allow(clippy::too_many_arguments)]
fn small_serial(
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: &[f64],
    a_cols: usize,
    b: &[f64],
    b_cols: usize,
    beta: f64,
    c: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
) {
    beta_scale(c, beta);
    for i in 0..m {
        let crow = &mut c[i * n..(i + 1) * n];
        for l in 0..k {
            let aval = match ta {
                Trans::No => a[i * a_cols + l],
                Trans::Yes => a[l * a_cols + i],
            };
            let scaled = alpha * aval;
            match tb {
                Trans::No => {
                    let brow = &b[l * b_cols..l * b_cols + n];
                    for (cv, bv) in crow.iter_mut().zip(brow.iter()) {
                        *cv += scaled * bv;
                    }
                }
                Trans::Yes => {
                    for (j, cv) in crow.iter_mut().enumerate() {
                        *cv += scaled * b[j * b_cols + l];
                    }
                }
            }
        }
    }
}

/// The pre-packing cache-blocked kernel (PRs 1–3), kept verbatim as the
/// comparison baseline for `bench_gemm`/EXPERIMENTS.md and as a second
/// oracle for parity tests. Semantics identical to [`gemm_slice`]; only
/// the flop rate differs.
#[allow(clippy::too_many_arguments)]
pub fn gemm_slice_ref(
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: &[f64],
    a_rows: usize,
    a_cols: usize,
    b: &[f64],
    b_rows: usize,
    b_cols: usize,
    beta: f64,
    c: &mut [f64],
    c_rows: usize,
    c_cols: usize,
) {
    let (m, n, k) = check_shapes(
        ta, tb, a, a_rows, a_cols, b, b_rows, b_cols, c, c_rows, c_cols,
    );
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        beta_scale(c, beta);
        return;
    }

    const REF_MC: usize = 64;
    const REF_KC: usize = 256;

    // Pack `op(B)` once if it is transposed, so the inner loop always
    // streams unit-stride rows of B.
    let b_packed: Option<Vec<f64>> = match tb {
        Trans::No => None,
        Trans::Yes => {
            let mut packed = vec![0.0; k * n];
            for j in 0..n {
                for l in 0..k {
                    packed[l * n + j] = b[j * b_cols + l];
                }
            }
            Some(packed)
        }
    };
    let b_slice: &[f64] = match &b_packed {
        Some(p) => p,
        None => b,
    };

    let a_data = a;

    let body = |row_start: usize, c_chunk: &mut [f64]| {
        let rows_here = c_chunk.len() / c_cols;
        beta_scale(c_chunk, beta);
        let mut kp = 0;
        while kp < k {
            let kend = (kp + REF_KC).min(k);
            let mut ip = 0;
            while ip < rows_here {
                let iend = (ip + REF_MC).min(rows_here);
                for i in ip..iend {
                    let gi = row_start + i;
                    let crow = &mut c_chunk[i * c_cols..(i + 1) * c_cols];
                    for l in kp..kend {
                        let aval = match ta {
                            Trans::No => a_data[gi * a_cols + l],
                            Trans::Yes => a_data[l * a_cols + gi],
                        };
                        if aval == 0.0 {
                            continue;
                        }
                        let scaled = alpha * aval;
                        let brow = &b_slice[l * n..(l + 1) * n];
                        for (cv, bv) in crow.iter_mut().zip(brow.iter()) {
                            *cv += scaled * bv;
                        }
                    }
                }
                ip = iend;
            }
            kp = kend;
        }
    };

    if m * n * k >= PAR_WORK_THRESHOLD && m > 1 {
        let nthreads = rayon::current_num_threads().max(1);
        let rows_per_chunk = m.div_ceil(nthreads * CHUNKS_PER_THREAD).max(1);
        c.par_chunks_mut(rows_per_chunk * c_cols)
            .enumerate()
            .for_each(|(ci, chunk)| body(ci * rows_per_chunk, chunk));
    } else {
        body(0, c);
    }
}

/// Flop count of a GEMM with the given logical dimensions (`2·m·n·k`).
#[inline]
pub fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * (m as u64) * (n as u64) * (k as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(ta: Trans, tb: Trans, a: &Matrix, b: &Matrix) -> Matrix {
        let (m, k) = match ta {
            Trans::No => (a.rows(), a.cols()),
            Trans::Yes => (a.cols(), a.rows()),
        };
        let n = match tb {
            Trans::No => b.cols(),
            Trans::Yes => b.rows(),
        };
        let mut c = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for l in 0..k {
                    let av = match ta {
                        Trans::No => a.get(i, l),
                        Trans::Yes => a.get(l, i),
                    };
                    let bv = match tb {
                        Trans::No => b.get(l, j),
                        Trans::Yes => b.get(j, l),
                    };
                    acc += av * bv;
                }
                c.set(i, j, acc);
            }
        }
        c
    }

    fn test_mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| {
            let x = (i as u64)
                .wrapping_mul(2654435761)
                .wrapping_add((j as u64).wrapping_mul(40503))
                .wrapping_add(seed);
            ((x % 1000) as f64 - 500.0) / 250.0
        })
    }

    fn check_all_transposes(m: usize, n: usize, k: usize, tol: f64) {
        for &(ta, tb) in &[
            (Trans::No, Trans::No),
            (Trans::Yes, Trans::No),
            (Trans::No, Trans::Yes),
            (Trans::Yes, Trans::Yes),
        ] {
            let a = match ta {
                Trans::No => test_mat(m, k, 1),
                Trans::Yes => test_mat(k, m, 1),
            };
            let b = match tb {
                Trans::No => test_mat(k, n, 2),
                Trans::Yes => test_mat(n, k, 2),
            };
            let mut c = Matrix::zeros(m, n);
            gemm(ta, tb, 1.0, &a, &b, 0.0, &mut c);
            let want = naive(ta, tb, &a, &b);
            assert!(
                c.max_abs_diff(&want) < tol,
                "mismatch for ({m},{n},{k}) {ta:?},{tb:?}"
            );
        }
    }

    #[test]
    fn matches_naive_all_transposes() {
        check_all_transposes(17, 13, 29, 1e-10);
    }

    #[test]
    fn matches_naive_packed_path_prime_dims() {
        // Big enough for the packed path (≥ SMALL_WORK), dims prime so
        // every edge micro-tile and padded panel is exercised.
        check_all_transposes(37, 13, 23, 1e-10);
        check_all_transposes(67, 7, 31, 1e-10);
    }

    #[test]
    fn matches_naive_fixed_n_variants() {
        // n = 8/16/32 dispatch to the monomorphized micro-kernels; k
        // crossing KC exercises multi-panel accumulation.
        for n in [8usize, 16, 32] {
            check_all_transposes(41, n, 300, 1e-9);
        }
    }

    #[test]
    fn alpha_beta_accumulate() {
        let a = test_mat(5, 7, 3);
        let b = test_mat(7, 4, 4);
        let mut c = test_mat(5, 4, 5);
        let c0 = c.clone();
        gemm(Trans::No, Trans::No, 2.0, &a, &b, 0.5, &mut c);
        let mut want = naive(Trans::No, Trans::No, &a, &b);
        want.scale(2.0);
        let mut expected = c0.clone();
        expected.scale(0.5);
        expected.axpy(1.0, &want);
        assert!(c.max_abs_diff(&expected) < 1e-10);
    }

    #[test]
    fn alpha_beta_accumulate_packed_path() {
        // Same α/β semantics above the packing threshold.
        let (m, n, k) = (70, 11, 37);
        let a = test_mat(m, k, 6);
        let b = test_mat(k, n, 7);
        let mut c = test_mat(m, n, 8);
        let c0 = c.clone();
        gemm(Trans::No, Trans::No, -1.5, &a, &b, 2.0, &mut c);
        let mut want = naive(Trans::No, Trans::No, &a, &b);
        want.scale(-1.5);
        let mut expected = c0;
        expected.scale(2.0);
        expected.axpy(1.0, &want);
        assert!(c.max_abs_diff(&expected) < 1e-9);
    }

    #[test]
    fn packed_matches_reference_kernel() {
        // The packed engine and the retained blocked kernel agree to
        // rounding on every transpose combination.
        for &(m, n, k) in &[(64usize, 16usize, 96usize), (33, 19, 257), (128, 32, 64)] {
            for &(ta, tb) in &[
                (Trans::No, Trans::No),
                (Trans::Yes, Trans::No),
                (Trans::No, Trans::Yes),
                (Trans::Yes, Trans::Yes),
            ] {
                let (ar, ac) = match ta {
                    Trans::No => (m, k),
                    Trans::Yes => (k, m),
                };
                let (br, bc) = match tb {
                    Trans::No => (k, n),
                    Trans::Yes => (n, k),
                };
                let a = test_mat(ar, ac, 11);
                let b = test_mat(br, bc, 12);
                let mut c_new = test_mat(m, n, 13);
                let mut c_ref = c_new.clone();
                gemm_slice(
                    ta,
                    tb,
                    1.25,
                    a.data(),
                    ar,
                    ac,
                    b.data(),
                    br,
                    bc,
                    0.5,
                    c_new.data_mut(),
                    m,
                    n,
                );
                gemm_slice_ref(
                    ta,
                    tb,
                    1.25,
                    a.data(),
                    ar,
                    ac,
                    b.data(),
                    br,
                    bc,
                    0.5,
                    c_ref.data_mut(),
                    m,
                    n,
                );
                assert!(
                    c_new.max_abs_diff(&c_ref) < 1e-9,
                    "packed vs ref ({m},{n},{k}) {ta:?},{tb:?}"
                );
            }
        }
    }

    #[test]
    fn large_parallel_path() {
        let (m, n, k) = (150, 130, 40);
        let a = test_mat(m, k, 7);
        let b = test_mat(k, n, 8);
        let mut c = Matrix::zeros(m, n);
        gemm(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c);
        let want = naive(Trans::No, Trans::No, &a, &b);
        assert!(c.max_abs_diff(&want) < 1e-9);
    }

    #[test]
    fn degenerate_dims() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 2);
        let mut c = Matrix::zeros(0, 2);
        gemm(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c);

        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 3);
        let mut c = Matrix::from_fn(2, 3, |_, _| 1.0);
        gemm(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c);
        assert_eq!(c.data(), &[0.0; 6]);
    }

    #[test]
    fn counters_attribute_fixed_and_generic_calls() {
        let before = thread_gemm_counters();
        let a = test_mat(40, 64, 1);
        let b16 = test_mat(64, 16, 2);
        let mut c = Matrix::zeros(40, 16);
        gemm(Trans::No, Trans::No, 1.0, &a, &b16, 0.0, &mut c);
        let b24 = test_mat(64, 24, 3);
        let mut c24 = Matrix::zeros(40, 24);
        gemm(Trans::No, Trans::No, 1.0, &a, &b24, 0.0, &mut c24);
        let d = thread_gemm_counters().since(&before);
        assert_eq!(d.calls, 2);
        assert_eq!(d.fixed_n_calls, 1);
        assert_eq!(d.generic_calls, 1);
        assert_eq!(d.flops, gemm_flops(40, 16, 64) + gemm_flops(40, 24, 64));
    }

    #[test]
    fn resolve_panel_policy() {
        // Absent → default, untouched.
        assert_eq!(resolve_panel("PP_GEMM_MC", None, MC_DEFAULT, MR), 64);
        assert_eq!(resolve_panel("PP_GEMM_KC", None, KC_DEFAULT, 1), 256);
        // Valid values pass through.
        assert_eq!(resolve_panel("PP_GEMM_KC", Some("128"), KC_DEFAULT, 1), 128);
        assert_eq!(
            resolve_panel("PP_GEMM_MC", Some(" 96 "), MC_DEFAULT, MR),
            96
        );
        // MC is rounded *up* to whole MR-row micro-panels.
        assert_eq!(resolve_panel("PP_GEMM_MC", Some("20"), MC_DEFAULT, MR), 24);
        assert_eq!(resolve_panel("PP_GEMM_MC", Some("1"), MC_DEFAULT, MR), MR);
        // Oversized values are clamped (then rounded).
        assert_eq!(
            resolve_panel("PP_GEMM_KC", Some("999999"), KC_DEFAULT, 1),
            4096
        );
        // Garbage and zero keep the default.
        assert_eq!(resolve_panel("PP_GEMM_MC", Some("abc"), MC_DEFAULT, MR), 64);
        assert_eq!(resolve_panel("PP_GEMM_KC", Some("0"), KC_DEFAULT, 1), 256);
        assert_eq!(resolve_panel("PP_GEMM_KC", Some("-4"), KC_DEFAULT, 1), 256);
    }

    /// Any validated (MC, KC) geometry must produce the same numbers as
    /// the blocked reference kernel — the override can mistune
    /// performance, never correctness.
    #[test]
    fn overridden_panels_match_reference() {
        let mut rng = crate::rng::seeded(77);
        // Odd shapes crossing every panel boundary for the small overrides.
        let (m, n, k) = (61, 13, 67);
        for (mc, kc) in [(8usize, 1usize), (8, 16), (24, 7), (64, 256), (4096, 4096)] {
            for ta in [Trans::No, Trans::Yes] {
                for tb in [Trans::No, Trans::Yes] {
                    let (ar, ac) = match ta {
                        Trans::No => (m, k),
                        Trans::Yes => (k, m),
                    };
                    let (br, bc) = match tb {
                        Trans::No => (k, n),
                        Trans::Yes => (n, k),
                    };
                    let a = crate::rng::uniform_matrix(ar, ac, &mut rng);
                    let b = crate::rng::uniform_matrix(br, bc, &mut rng);
                    let mut c1 = crate::rng::uniform_matrix(m, n, &mut rng);
                    let mut c2 = c1.clone();
                    gemm_slice_with_panels(
                        ta,
                        tb,
                        1.25,
                        a.data(),
                        ar,
                        ac,
                        b.data(),
                        br,
                        bc,
                        0.5,
                        c1.data_mut(),
                        m,
                        n,
                        mc,
                        kc,
                    );
                    gemm_slice_ref(
                        ta,
                        tb,
                        1.25,
                        a.data(),
                        ar,
                        ac,
                        b.data(),
                        br,
                        bc,
                        0.5,
                        c2.data_mut(),
                        m,
                        n,
                    );
                    assert!(
                        c1.max_abs_diff(&c2) < 1e-10,
                        "MC={mc} KC={kc} {ta:?}{tb:?} diverged"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "MC must cover micro-panels")]
    fn unvalidated_mc_is_rejected() {
        let a = [0.0; 4];
        let b = [0.0; 4];
        let mut c = [0.0; 4];
        gemm_slice_with_panels(
            Trans::No,
            Trans::No,
            1.0,
            &a,
            2,
            2,
            &b,
            2,
            2,
            0.0,
            &mut c,
            2,
            2,
            3, // not a multiple of MR
            16,
        );
    }
}
