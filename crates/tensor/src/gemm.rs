//! Register-strip GEMM (standing in for MKL), shaped for ALS.
//!
//! Every hot product here is tall-skinny: `m` is a tensor matricization
//! (10⁴–10⁶ rows), `n` is the CP rank (8–50) and `k` one tensor extent. So
//! `C ← α·op(A)·op(B) + β·C` is driven by one kernel that keeps a `TM × n`
//! strip of C — the *whole* rank-wide row strip, `n` padded to the vector
//! width; `n > 32` in column blocks — in registers across a `KC` panel of
//! `k`:
//!
//! * `op(A)` is **never packed**: with `n = rank` every A element feeds a
//!   single strip, so a packing pass costs as much memory traffic as the
//!   product itself. The kernel broadcasts straight from where A lies, and
//!   keeps its stream ahead of the FMAs with software prefetch;
//! * an untransposed `op(A)` is read from `TM` row-major rows per strip;
//!   every 8 steps of `l` a strip hints one line of each of the next
//!   strip's rows into L1, so a strip starts on a panel already fetched;
//! * a transposed `op(A)` (stored `k × m`, or a batch of such slabs whose
//!   rows stack) is streamed: a row chunk is cut into tiles of up to
//!   `ACC_TILE / ldb` rows inside one slab, and each tile reads its
//!   slab's stored rows a chunk of `LC` at a time, each strip broadcasting
//!   its `TM` contiguous elements of a stored row in place and hinting the
//!   same rows `PF_AHEAD` elements on. The strip's accumulators go to an
//!   L2-resident accumulator tile between chunks and come back for the
//!   next — an exact store and load, so the arithmetic is the contract's;
//! * `op(B)` is laid out once per call as `k × ⌈n/8⌉·8` row-major,
//!   zero-padded — or used in place when it already is (`Trans::No`,
//!   `8 | n`: the ALS factor matrix);
//! * C is touched once per `KC` panel; with `β = 0` the first panel stores
//!   `0.0 + α·acc` without reading (or pre-zeroing) C.
//!
//! Tile shape (`TM` per strip width, `MC`, `LC`, the accumulator tile) is a
//! constant of the SIMD level (`simd.rs`); nothing about it is
//! configurable, and nothing about it is visible in the result:
//!
//! **Determinism.** Each output element is produced by the same arithmetic
//! whatever the tile shape, chunking or thread count: one scalar
//! accumulator starting at `0`, `l` ascending within global `KC = 256`
//! panels, `c += α·acc` once per panel (after `c ← β·c`), padded lanes and
//! rows never stored. `KC` *is* part of the result — it places the
//! roundings — so it is a constant, mirrored by the semi-sparse TTM through
//! [`panel_kc`]. Products below [`small_work_limit`] multiply-adds take a
//! serial triple loop with its own (equally fixed) order; a batch of
//! products (one per slab of an in-place TTM) runs, and is judged, as one
//! product over its stacked rows. Results are
//! bit-identical for any thread count
//! (`crates/tensor/tests/pool_determinism.rs`) and equal, bit for bit, the
//! contract written out as a scalar loop (`tests/gemm_packed_parity.rs`).
//!
//! **No counters.** The kernel counts nothing: whoever runs a contraction
//! records its flops in the one kernel ledger, `pp_dtree::KernelStats`
//! (a first-level TTM is `2·len·R`, whatever GEMM path it takes).

use crate::matrix::Matrix;
use crate::simd::{prefetch, simd_level, SimdLevel};
use rayon::prelude::*;
use std::cell::RefCell;

/// Transpose flag for a GEMM operand.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the operand's transpose.
    Yes,
}

/// Depth of one k panel. Part of the numeric contract, not a tuning knob:
/// it decides where each element's running sum is rounded into C.
const KC: usize = 256;
/// Rows per block of an untransposed A: a multiple of every strip height,
/// sized so an `MC × KC` block (384 KiB) stays L2-resident across the
/// column blocks of a wide `op(B)`.
const MC: usize = 192;
/// Least common multiple of the strip heights in use (6, 8, 12): the rows
/// of a transposed A's accumulator tile are a multiple of it, so every
/// strip, the short last one too, has its accumulator rows there.
const TM_LCM: usize = 24;
/// The tallest strip.
const TM_MAX: usize = 12;
/// Stored rows of a transposed A streamed per chunk: each accumulator goes
/// to the tile and back once per chunk. A chunk's rows lie a whole stored
/// row apart; where that stride is a multiple of [`ALIAS_STRIDE`] bytes
/// they all fall in one set of the 16-way L2 (and of L1), and a chunk
/// keeps to [`LC_ALIASED`] of them.
const LC: usize = 32;
const LC_ALIASED: usize = 8;
/// Stride (bytes) from which a transposed A's stored rows share L2 sets.
const ALIAS_STRIDE: usize = 64 << 10;
/// How far ahead along its stored rows a transposed-A strip hints lines
/// in (eight lines; several strips' worth of latency).
const PF_AHEAD: usize = 64;
/// Doubles in a transposed A's accumulator tile (192 KiB, L2-resident):
/// 768 rows of C at rank 32, 3072 at rank 8.
const ACC_TILE: usize = 32 * 768;
/// Column granule: strip widths are multiples of it (one AVX-512 vector).
const NV: usize = 8;

/// Below this many multiply-adds the strip machinery is not worth it and
/// a plain serial triple loop runs instead (size-based, so the choice is
/// deterministic and thread-count independent).
const SMALL_WORK: usize = 1 << 10;

/// The KC panel depth — exposed so kernels on other representations (the
/// semi-sparse TTM) can replay the per-panel accumulation order bit for
/// bit.
pub fn panel_kc() -> usize {
    KC
}

/// The small-vs-strip dispatch threshold in multiply-adds (`m·n·k`) —
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

thread_local! {
    /// Reusable operand buffers. `ACC` holds a transposed A's accumulator
    /// tile and short-strip pad (at most [`ACC_TILE`] + `LC × TM_MAX`
    /// doubles; never allocated for an untransposed A) and is borrowed by
    /// whichever thread executes a row chunk; `PACK_B` holds a re-laid-out
    /// `op(B)` and is borrowed by the calling thread for the duration of
    /// the call. Distinct keys, so a caller participating in its own batch
    /// never re-borrows.
    static ACC: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    static PACK_B: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
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

/// Validate operand shapes (`a` and `c` hold `batch` blocks each); returns
/// the logical `(m, n, k)` of one product.
#[allow(clippy::too_many_arguments)]
fn check_shapes(
    batch: usize,
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
    assert_eq!(a.len(), batch * a_rows * a_cols, "A buffer length mismatch");
    assert_eq!(b.len(), b_rows * b_cols, "B buffer length mismatch");
    assert_eq!(c.len(), batch * c_rows * c_cols, "C buffer length mismatch");
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

/// β-scale a C block in place (the `k = 0` product and the serial path's
/// prologue; the strip kernel folds β into its first panel's store).
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
/// copying into `Matrix` values.
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
    gemm_batched(
        1, ta, tb, alpha, a, a_rows, a_cols, b, b_rows, b_cols, beta, c, c_rows, c_cols,
    );
}

/// `batch` products sharing one `op(B)`: `C_i ← α·op(A_i)·op(B) + β·C_i`,
/// where `A_i` is the `i`-th `a_rows × a_cols` block of `a` and `C_i` the
/// `i`-th `c_rows × c_cols` block of `c` — one product per slab of a TTM
/// that contracts a mode in place. They run as **one** product over the
/// `batch·m` stacked rows of C: C is contiguous already, an untransposed A
/// too, and a transposed A's copied blocks gather each row's run from the
/// product it belongs to. So:
///
/// * small vs strip is decided on the whole product `batch·m·n·k`, and
///   every element comes out of the arithmetic one GEMM over the same
///   elements would use. Two batches that both clear
///   [`small_work_limit`] therefore agree, bit for bit, on every product
///   they share;
/// * rows, not products, are the parallel unit: row chunks run across
///   product boundaries, so a batch of many small products never pays a
///   dispatch per product, and nothing fans out inside anything else.
///
/// The batch is one product of shape `batch·m × n × k`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_batched(
    batch: usize,
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
    gemm_core(
        batch, ta, tb, alpha, a, a_rows, a_cols, b, b_rows, b_cols, beta, c, c_rows, c_cols, KC,
    );
}

/// The products themselves. `kc_c` is always [`KC`] outside this
/// module's tests, which use shallow panels to cross many panel boundaries
/// with small operands.
#[allow(clippy::too_many_arguments)]
fn gemm_core(
    batch: usize,
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
    kc_c: usize,
) {
    let (m, n, k) = check_shapes(
        batch, ta, tb, a, a_rows, a_cols, b, b_rows, b_cols, c, c_rows, c_cols,
    );
    if batch == 0 || m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        beta_scale(c, beta);
        return;
    }

    // One product over the stacked rows of every slab: row `i` of C is row
    // `i % m` of product `i / m`.
    let (a_len, rows) = (a_rows * a_cols, batch * m);
    let work = rows * n * k;
    #[cfg(test)]
    tally::count(work);
    if work < SMALL_WORK {
        for (a, c) in a.chunks_exact(a_len).zip(c.chunks_exact_mut(m * n)) {
            small_serial(ta, tb, alpha, a, a_cols, b, b_cols, beta, c, m, n, k);
        }
        return;
    }

    let ldb = n.next_multiple_of(NV);
    let mut run = |b: &[f64]| {
        let p = Product {
            ta,
            alpha,
            beta,
            a,
            lda: a_cols,
            slab_rows: m,
            slab_len: a_len,
            b,
            ldb,
            n,
            k,
            kc: kc_c,
        };
        if work >= PAR_WORK_THRESHOLD && rows > 1 {
            // Split C into contiguous row chunks, claimed dynamically off
            // the persistent pool.
            let nthreads = rayon::current_num_threads().max(1);
            let rows_per_chunk = rows.div_ceil(nthreads * CHUNKS_PER_THREAD).max(1);
            c.par_chunks_mut(rows_per_chunk * n)
                .enumerate()
                .for_each(|(ci, chunk)| row_chunk(&p, ci * rows_per_chunk, chunk));
        } else {
            row_chunk(&p, 0, c);
        }
    };

    // An untransposed `op(B)` whose width is a whole number of granules is
    // already `k × ldb` row-major — the ALS factor matrix. Use it in place.
    if matches!(tb, Trans::No) && ldb == n {
        run(b);
    } else {
        with_scratch(&PACK_B, k * ldb, |pb| {
            pack_b(tb, b, b_cols, n, ldb, pb);
            run(pb);
        });
    }
}

/// Lay `op(B)` out as `k × ldb` row-major, columns `n..ldb` zero, so the
/// kernel never branches on width.
fn pack_b(tb: Trans, b: &[f64], ld: usize, n: usize, ldb: usize, dst: &mut [f64]) {
    match tb {
        Trans::No => {
            for (row, src) in dst.chunks_exact_mut(ldb).zip(b.chunks_exact(ld)) {
                row[..n].copy_from_slice(src);
                row[n..].fill(0.0);
            }
        }
        Trans::Yes => {
            // Stored n×k: column j of op(B) is a contiguous stored row.
            for (l, row) in dst.chunks_exact_mut(ldb).enumerate() {
                for (j, v) in row[..n].iter_mut().enumerate() {
                    *v = b[j * ld + l];
                }
                row[n..].fill(0.0);
            }
        }
    }
}

/// One product as a row chunk sees it.
struct Product<'a> {
    ta: Trans,
    alpha: f64,
    beta: f64,
    a: &'a [f64],
    /// Stored row length of A.
    lda: usize,
    /// Rows of C per stacked product, and stored elements of A per product
    /// (only a transposed A needs them: its rows do not run on across
    /// products).
    slab_rows: usize,
    slab_len: usize,
    /// `op(B)`, `k × ldb` row-major with `ldb = ⌈n/NV⌉·NV`.
    b: &'a [f64],
    ldb: usize,
    n: usize,
    k: usize,
    kc: usize,
}

/// Rows `[row0, row0 + c_chunk.len()/n)` of the product, on the calling
/// thread. Borrows the accumulator scratch (empty unless A is transposed)
/// and enters the clone of [`chunk_body`] compiled for this CPU.
fn row_chunk(p: &Product, row0: usize, c_chunk: &mut [f64]) {
    let scratch = match p.ta {
        Trans::No => 0,
        Trans::Yes => tile_rows(p.ldb, c_chunk.len() / p.n) * p.ldb + LC * TM_MAX,
    };
    with_scratch(&ACC, scratch, |scratch| match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `simd_level` returned this variant only after
        // `is_x86_feature_detected!` confirmed the features are present.
        SimdLevel::Avx512 => unsafe { chunk_avx512(p, row0, c_chunk, scratch) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above — AVX2+FMA were detected at runtime.
        SimdLevel::Avx2 => unsafe { chunk_avx2(p, row0, c_chunk, scratch) },
        SimdLevel::Scalar => chunk_body::<false, false>(p, row0, c_chunk, scratch),
    })
}

/// Rows of C per accumulator tile of a transposed A: as many as
/// [`ACC_TILE`] doubles hold at row width `ldb`, a multiple of every strip
/// height, and no more than a chunk of `rows` rows needs.
fn tile_rows(ldb: usize, rows: usize) -> usize {
    (ACC_TILE / ldb / TM_LCM).max(1).min(rows.div_ceil(TM_LCM)) * TM_LCM
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
fn chunk_avx512(p: &Product, row0: usize, c_chunk: &mut [f64], scratch: &mut [f64]) {
    chunk_body::<true, true>(p, row0, c_chunk, scratch)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn chunk_avx2(p: &Product, row0: usize, c_chunk: &mut [f64], scratch: &mut [f64]) {
    chunk_body::<true, false>(p, row0, c_chunk, scratch)
}

/// One row chunk, by where `op(A)` is stored. `WIDE` selects the tile
/// table: 32-register AVX-512 holds strips up to 32 wide (24 accumulator
/// registers at every width), the 16-register levels run 6 × 8 strips (12
/// accumulators).
#[inline(always)]
fn chunk_body<const FMA: bool, const WIDE: bool>(
    p: &Product,
    row0: usize,
    c_chunk: &mut [f64],
    scratch: &mut [f64],
) {
    match p.ta {
        Trans::No => rows_body::<FMA, WIDE>(p, row0, c_chunk),
        Trans::Yes => cols_body::<FMA, WIDE>(p, row0, c_chunk, scratch),
    }
}

/// How the first panel's `α·acc` meets C; every later panel adds.
fn panel_store(kp: usize, beta: f64) -> Store {
    if kp > 0 || beta == 1.0 {
        Store::Add
    } else if beta == 0.0 {
        Store::Overwrite
    } else {
        Store::Scale(beta)
    }
}

/// Run the strip kernel `$f` at the register tile of a `$w`-wide column
/// block: `TM × NP` with `NP = ⌈w/8⌉·8` on the wide table, `6 × 8` on the
/// narrow one.
macro_rules! by_tile {
    ($wide:expr, $w:expr, $f:ident::<$fma:ident>($($arg:expr),*)) => {
        match ($wide, $w.div_ceil(NV)) {
            (true, 4) => $f::<$fma, 6, 32>($($arg),*),
            (true, 3) => $f::<$fma, 8, 24>($($arg),*),
            (true, 2) => $f::<$fma, 12, 16>($($arg),*),
            (true, _) => $f::<$fma, 12, 8>($($arg),*),
            (false, _) => $f::<$fma, 6, 8>($($arg),*),
        }
    };
}

/// Untransposed A: `KC` panels outermost (so `op(B)` streams once), `MC`
/// row blocks inside, then column blocks × strips, broadcasting straight
/// from A's stored rows.
#[inline(always)]
fn rows_body<const FMA: bool, const WIDE: bool>(p: &Product, row0: usize, c_chunk: &mut [f64]) {
    let n = p.n;
    let rows = c_chunk.len() / n;
    let mut kp = 0;
    while kp < p.k {
        let kc = p.kc.min(p.k - kp);
        let store = panel_store(kp, p.beta);
        let b_panel = &p.b[kp * p.ldb..(kp + kc) * p.ldb];
        let mut ip = 0;
        while ip < rows {
            let mc = MC.min(rows - ip);
            let c_blk = &mut c_chunk[ip * n..(ip + mc) * n];
            let mut j0 = 0;
            while j0 < n {
                let w = if WIDE { 4 * NV } else { NV }.min(n - j0);
                let blk = Block {
                    a: &p.a[(row0 + ip) * p.lda + kp..],
                    lda: p.lda,
                    mc,
                    kc,
                    b: &b_panel[j0..],
                    ldb: p.ldb,
                    alpha: p.alpha,
                    store,
                    n,
                    j0,
                    w,
                };
                by_tile!(WIDE, w, strips::<FMA>(&blk, c_blk));
                j0 += w;
            }
            ip += mc;
        }
        kp += kc;
    }
}

/// How a panel's `α·acc` meets C.
#[derive(Clone, Copy)]
enum Store {
    /// First panel, `β = 0`: `c = 0.0 + α·acc`, C never read. (The `0.0 +`
    /// is what filling with zeros and then accumulating gives: a `-0.0`
    /// product comes out `+0.0`.)
    Overwrite,
    /// First panel, `β ∉ {0, 1}`: `c = β·c + α·acc`.
    Scale(f64),
    /// Later panels, and the first under `β = 1`: `c += α·acc`.
    Add,
}

/// One `mc`-row block of an untransposed `op(A)` against one column block
/// of one panel of `op(B)`: the unit [`strips`] cuts into register strips.
struct Block<'a> {
    /// A from the block's first row and the panel's first column on:
    /// element `(i, l)` at `a[i·lda + l]`.
    a: &'a [f64],
    lda: usize,
    mc: usize,
    kc: usize,
    /// `op(B)` from the panel's first row and the block's first column on;
    /// rows `ldb` apart.
    b: &'a [f64],
    ldb: usize,
    alpha: f64,
    store: Store,
    /// Row length of C, and the block's first column and real width in it.
    n: usize,
    j0: usize,
    w: usize,
}

/// The register-tiled core of an untransposed A. For each `TM`-row strip
/// of the block: `acc[i][j] = Σ_l a(i, l) · b(l, j)` over the panel — one
/// scalar accumulator per element starting at 0, `l` strictly ascending,
/// the arithmetic contract the determinism argument rests on — then one
/// `α·acc` store per real element.
///
/// A is read where it is stored, so nothing but the strip's own loads
/// pulls it in: every [`NV`] `l` the loop hints one line of each of the
/// *next* strip's `TM` rows into L1, and a strip starts on a panel the
/// previous strip has already fetched.
///
/// The `TM × NP` accumulator block must live in vector registers for the
/// whole `l` loop, and in safe Rust that is a property of how the code is
/// written, not of an annotation: `acc` is only ever indexed by constants
/// (after unrolling), so it is split into registers; one run-time index —
/// or a panic edge in the `l` loop — pins it to the stack and stores it
/// back after every FMA (3× slower). After touching this function check
/// that the `vfmadd231pd` runs of `chunk_avx512` have no stack stores
/// between them.
#[inline(always)]
fn strips<const FMA: bool, const TM: usize, const NP: usize>(blk: &Block, c_blk: &mut [f64]) {
    let &Block {
        a,
        lda,
        mc,
        kc,
        ldb,
        ..
    } = blk;
    debug_assert!(blk.b.len() >= (kc - 1) * ldb + NP);
    let mut i0 = 0;
    while i0 < mc {
        let tm = TM.min(mc - i0);
        let mut acc = [[0.0f64; NP]; TM];
        // A short last strip re-reads its last real row; the extra
        // accumulator rows are never stored.
        let rows: [&[f64]; TM] = std::array::from_fn(|i| {
            let at = (i0 + i.min(tm - 1)) * lda;
            &a[at..at + kc]
        });
        // The next strip's rows; past A's last row, the last row again.
        let last = (a.len() - kc) / lda;
        let next: [&[f64]; TM] = std::array::from_fn(|i| {
            let at = (i0 + TM + i).min(last) * lda;
            &a[at..at + kc]
        });
        // Lockstep iterators and a `let-else` exit that never fires:
        // nothing in the `l` loop can panic.
        let mut b_rows = blk.b.chunks(ldb);
        for l in 0..kc {
            let Some(brow) = b_rows.next().and_then(<[f64]>::first_chunk::<NP>) else {
                break;
            };
            if l % NV == 0 {
                for row in next {
                    prefetch(row, l);
                }
            }
            fma_rows::<FMA, TM, NP>(&rows, l, brow, &mut acc);
        }
        store_strip(
            &acc,
            blk.alpha,
            blk.store,
            c_blk,
            [i0, tm],
            [blk.n, blk.j0, blk.w],
        );
        i0 += TM;
    }
}

/// Transposed A (stored `k × m` per product): no copy. The chunk's rows
/// are cut into tiles that stay inside one product, of at most as many
/// rows as an L2-resident accumulator tile ([`ACC_TILE`] doubles) holds,
/// and each tile streams its product's stored rows `LC` at a time
/// (`LC_ALIASED` where the rows share cache sets):
/// [`col_strips`] broadcasts each strip's `TM` elements of a stored row
/// where they lie, and an accumulator leaves its register only between
/// chunks, to the tile and back — an exact store and load, so every
/// element is still one accumulator from 0 with `l` ascending through the
/// panel. A small product is one tile, read front to back.
#[inline(always)]
fn cols_body<const FMA: bool, const WIDE: bool>(
    p: &Product,
    row0: usize,
    c_chunk: &mut [f64],
    scratch: &mut [f64],
) {
    let n = p.n;
    let rows = c_chunk.len() / n;
    let (acc, pad) = scratch.split_at_mut(scratch.len() - LC * TM_MAX);
    let tw = acc.len() / p.ldb;
    let depth = match (p.lda * std::mem::size_of::<f64>()) % ALIAS_STRIDE {
        0 => LC_ALIASED,
        _ => LC,
    };
    let mut r = 0;
    while r < rows {
        // Row `row0 + r` of C is row `j` of product `slab`.
        let (slab, j) = ((row0 + r) / p.slab_rows, (row0 + r) % p.slab_rows);
        let tr = tw.min(p.slab_rows - j).min(rows - r);
        let c_tile = &mut c_chunk[r * n..(r + tr) * n];
        let mut kp = 0;
        while kp < p.k {
            let kc = p.kc.min(p.k - kp);
            let store = panel_store(kp, p.beta);
            let mut l0 = kp;
            while l0 < kp + kc {
                let lc = depth.min(kp + kc - l0);
                let (mut j0, mut off) = (0, 0);
                while j0 < n {
                    let w = if WIDE { 4 * NV } else { NV }.min(n - j0);
                    let np = w.next_multiple_of(NV);
                    let ch = ColChunk {
                        a: p.a,
                        lda: p.lda,
                        at: slab * p.slab_len + j,
                        tr,
                        l0,
                        lc,
                        b: p.b,
                        ldb: p.ldb,
                        first: l0 == kp,
                        last: (l0 + lc == kp + kc).then_some(store),
                        alpha: p.alpha,
                        n,
                        j0,
                        w,
                    };
                    let acc_blk = &mut acc[off * tw..(off + np) * tw];
                    by_tile!(WIDE, w, col_strips::<FMA>(&ch, acc_blk, pad, c_tile));
                    (j0, off) = (j0 + w, off + np);
                }
                l0 += lc;
            }
            kp += kc;
        }
        r += tr;
    }
}

/// One `l`-chunk of a tile of a transposed A against one column block:
/// the unit [`col_strips`] cuts into register strips.
struct ColChunk<'a> {
    /// The whole stored A, `k × lda` per product: element `(i, l)` of the
    /// tile (its `tr` rows of one product) lies at `a[at + l·lda + i]`.
    a: &'a [f64],
    lda: usize,
    at: usize,
    tr: usize,
    /// The chunk's first `l` and depth (`1..=LC`, within one panel).
    l0: usize,
    lc: usize,
    /// The whole `op(B)`, rows `ldb` apart.
    b: &'a [f64],
    ldb: usize,
    /// First chunk of its panel: the accumulators start at 0.
    first: bool,
    /// Last chunk of its panel: `α·acc` meets C this way instead of going
    /// back to the tile.
    last: Option<Store>,
    alpha: f64,
    /// Row length of C, and the column block's first column and real
    /// width in it.
    n: usize,
    j0: usize,
    w: usize,
}

/// The register-tiled core of a transposed A. For each `TM`-row strip of
/// the tile: load its accumulators from the tile (or start them at 0), run
/// the chunk's `l` ascending, then put them back — or, on the panel's last
/// chunk, store `α·acc` into C. `acc` is indexed by constants only, and
/// the `l` loop walks the chunk's rows of `op(B)` and one offset into A
/// that steps a stored row at a time, leaving by a `let-else` that never
/// fires: no bookkeeping beyond that, and nothing in it can panic (the
/// register rule of [`strips`]).
///
/// A strip broadcasts its `TM` elements of a stored row where they lie. A
/// short strip at the tile's end reads on past it into the stored row's
/// next elements, which feed accumulator rows that are never stored in C;
/// only where that would run off the end of A does it read from `pad`,
/// copied and zero-filled. Before its FMAs a strip hints its lines of the
/// same rows `PF_AHEAD` elements on — past the tile's end, of the next
/// chunk's rows — so the stream arrives while the chunk computes.
#[inline(always)]
fn col_strips<const FMA: bool, const TM: usize, const NP: usize>(
    ch: &ColChunk,
    acc_tile: &mut [f64],
    pad: &mut [f64],
    c_tile: &mut [f64],
) {
    let &ColChunk {
        a,
        lda,
        at: tile_at,
        tr,
        l0,
        lc,
        ..
    } = ch;
    debug_assert!((1..=LC).contains(&lc) && TM <= TM_MAX);
    let brows: [&[f64; NP]; LC] = std::array::from_fn(|l| {
        let at = (l0 + l.min(lc - 1)) * ch.ldb + ch.j0;
        ch.b[at..].first_chunk().expect("op(B) row")
    });
    let (pad, _) = pad.as_chunks_mut::<TM>();
    let (tile, _) = acc_tile.as_chunks_mut::<NP>();
    let (tile, _) = tile[..tr.next_multiple_of(TM)].as_chunks_mut::<TM>();
    for (s, acc_rows) in tile.iter_mut().enumerate() {
        let i0 = s * TM;
        let tm = TM.min(tr - i0);
        let at = tile_at + l0 * lda + i0;
        // Where the strip's `TM` elements of each stored row start, and
        // their stride: in place, or for a short strip at the very end of
        // A zero-padded copies.
        let (src, at, ld): (&[f64], usize, usize) = if at + (lc - 1) * lda + TM <= a.len() {
            (a, at, lda)
        } else {
            for (l, row) in pad.iter_mut().enumerate().take(lc) {
                let src = &a[at + l * lda..at + l * lda + tm];
                for (i, v) in row.iter_mut().enumerate() {
                    *v = src.get(i).copied().unwrap_or(0.0);
                }
            }
            (pad.as_flattened(), 0, TM)
        };
        let ahead = i0 + PF_AHEAD;
        let (row, col) = if ahead < tr {
            (l0, ahead)
        } else {
            (l0 + lc, ahead - tr)
        };
        let first = tile_at + row * lda + col;
        if col < tr && first + (lc - 1) * lda + TM <= a.len() {
            for l in 0..lc {
                for i in (0..TM).step_by(NV) {
                    prefetch(a, first + l * lda + i);
                }
            }
        }
        // Element by element: a whole-array copy becomes a `memcpy`
        // into a stack array, and the vectorizer then gathers from it.
        let mut acc = [[0.0f64; NP]; TM];
        if !ch.first {
            for i in 0..TM {
                for j in 0..NP {
                    acc[i][j] = acc_rows[i][j];
                }
            }
        }
        let mut at = at;
        for brow in &brows[..lc] {
            let Some(arow) = src.get(at..).and_then(<[f64]>::first_chunk::<TM>) else {
                break;
            };
            fma_strip::<FMA, TM, NP>(arow, brow, &mut acc);
            at += ld;
        }
        match ch.last {
            Some(store) => {
                store_strip(&acc, ch.alpha, store, c_tile, [i0, tm], [ch.n, ch.j0, ch.w]);
            }
            None => {
                for i in 0..TM {
                    for j in 0..NP {
                        acc_rows[i][j] = acc[i][j];
                    }
                }
            }
        }
    }
}

/// `α·acc` of a strip's first `tm` rows into rows `i0..` of `c`, columns
/// `j0..j0 + w` of rows `n` long, the way `store` says; padded lanes and
/// rows are never stored.
#[inline(always)]
fn store_strip<const TM: usize, const NP: usize>(
    acc: &[[f64; NP]; TM],
    alpha: f64,
    store: Store,
    c: &mut [f64],
    [i0, tm]: [usize; 2],
    [n, j0, w]: [usize; 3],
) {
    // Scale through constant indices (`j` outermost keeps the vectorizer
    // on the unit-stride axis), then let the ragged store index the scaled
    // copy at run time.
    let mut out = [[0.0f64; NP]; TM];
    for j in 0..NP {
        for i in 0..TM {
            out[i][j] = alpha * acc[i][j];
        }
    }
    for (i, orow) in out.iter().enumerate().take(tm) {
        let at = (i0 + i) * n + j0;
        let crow = &mut c[at..at + w];
        match store {
            Store::Overwrite => {
                for (cv, ov) in crow.iter_mut().zip(orow) {
                    *cv = 0.0 + ov;
                }
            }
            Store::Scale(beta) => {
                for (cv, ov) in crow.iter_mut().zip(orow) {
                    *cv = *cv * beta + ov;
                }
            }
            Store::Add => {
                for (cv, ov) in crow.iter_mut().zip(orow) {
                    *cv += ov;
                }
            }
        }
    }
}

/// `acc[i][j] += arow[i] · brow[j]` over a whole strip, written out row by
/// row. As a loop over `i` it is one the vectorizer may take *across* the
/// rows when `TM` is a whole vector (as `8 × 24` is): it then gathers and
/// scatters the accumulators through memory on every step.
#[inline(always)]
fn fma_strip<const FMA: bool, const TM: usize, const NP: usize>(
    arow: &[f64; TM],
    brow: &[f64; NP],
    acc: &mut [[f64; NP]; TM],
) {
    debug_assert!(TM <= TM_MAX);
    macro_rules! rows {
        ($($i:literal)*) => {
            $(if $i < TM {
                fma_row::<FMA, NP>(arow[$i], brow, &mut acc[$i]);
            })*
        };
    }
    rows!(0 1 2 3 4 5 6 7 8 9 10 11);
}

/// [`fma_strip`] with strip row `i`'s element at `rows[i][l]`.
#[inline(always)]
fn fma_rows<const FMA: bool, const TM: usize, const NP: usize>(
    rows: &[&[f64]; TM],
    l: usize,
    brow: &[f64; NP],
    acc: &mut [[f64; NP]; TM],
) {
    debug_assert!(TM <= TM_MAX);
    macro_rules! rows {
        ($($i:literal)*) => {
            $(if $i < TM {
                fma_row::<FMA, NP>(rows[$i][l], brow, &mut acc[$i]);
            })*
        };
    }
    rows!(0 1 2 3 4 5 6 7 8 9 10 11);
}

/// `acc[j] += a · b[j]` across one strip row.
#[inline(always)]
fn fma_row<const FMA: bool, const NP: usize>(a: f64, b: &[f64; NP], acc: &mut [f64; NP]) {
    for j in 0..NP {
        // `mul_add` emits a hardware FMA only inside the feature-gated
        // clones; the scalar clone keeps separate mul+add (a
        // software-emulated fused op would be ~100× slower there).
        if FMA {
            acc[j] = a.mul_add(b[j], acc[j]);
        } else {
            acc[j] += a * b[j];
        }
    }
}

/// Serial triple loop for products too small to amortize the strip set-up.
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

/// Products this thread has run and their multiply-adds, for the tests
/// that check which calls route through this kernel (a batch is one
/// product over its stacked rows).
#[cfg(test)]
pub(crate) mod tally {
    use std::cell::Cell;

    thread_local! {
        static TALLY: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }

    pub(super) fn count(work: usize) {
        TALLY.with(|t| {
            let (products, madds) = t.get();
            t.set((products + 1, madds + work as u64));
        });
    }

    /// `(products, multiply-adds)` run on this thread so far.
    pub(crate) fn read() -> (u64, u64) {
        TALLY.with(Cell::get)
    }
}

/// The numeric contract as a scalar loop (shared with the integration
/// tests).
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod contract;

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
        // Big enough for the strip path (≥ SMALL_WORK), dims prime so
        // short strips and padded widths are exercised.
        check_all_transposes(37, 13, 23, 1e-10);
        check_all_transposes(67, 7, 31, 1e-10);
    }

    #[test]
    fn matches_naive_fixed_n_variants() {
        // n = 8/16/32 are whole-vector strip widths; k crossing KC
        // exercises multi-panel accumulation.
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
        // Same α/β semantics above the small-work threshold.
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

    /// `gemm_core` at panel depth `kc` against the contract oracle, all
    /// four transpose combinations, bitwise.
    fn check_against_contract(m: usize, n: usize, k: usize, alpha: f64, beta: f64, kc: usize) {
        let mut rng = crate::rng::seeded((m * 31 + n * 7 + k) as u64);
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
                let mut got = crate::rng::uniform_matrix(m, n, &mut rng);
                let mut want = got.clone();
                gemm_core(
                    1,
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
                    got.data_mut(),
                    m,
                    n,
                    kc,
                );
                contract::contract_gemm(
                    (m, n, k),
                    (a.data(), ta == Trans::Yes),
                    (b.data(), tb == Trans::Yes),
                    alpha,
                    beta,
                    want.data_mut(),
                    kc,
                    SMALL_WORK,
                );
                assert_eq!(
                    got.data(),
                    want.data(),
                    "({m},{n},{k}) {ta:?},{tb:?} KC={kc} left the contract"
                );
            }
        }
    }

    #[test]
    fn packed_matches_reference_kernel() {
        // The strip kernel (B packed, A not) and the contract's scalar
        // loop agree bit for bit on every transpose combination.
        for &(m, n, k) in &[(64usize, 16usize, 96usize), (33, 19, 257), (128, 32, 64)] {
            check_against_contract(m, n, k, 1.25, 0.5, KC);
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

    /// Panel depth places the roundings and nothing else: at any depth the
    /// kernel equals the contract evaluated at that depth. Shallow panels
    /// cross many panel boundaries (first-panel store, then accumulate)
    /// with operands small enough for a unit test.
    #[test]
    fn overridden_panels_match_reference() {
        // Odd shapes crossing every strip, block and panel boundary.
        for kc in [1usize, 7, 16, KC, 4096] {
            check_against_contract(61, 13, 67, 1.25, 0.5, kc);
            check_against_contract(29, 40, 67, -0.5, 0.0, kc);
        }
    }

    /// A batch runs as one product over its stacked rows, so strips, copied
    /// blocks and row chunks straddle product boundaries; each product must
    /// still equal the contract on its own, bit for bit.
    #[test]
    fn stacked_products_match_the_contract_one_by_one() {
        let (n, k) = (13, 67);
        for (batch, m) in [(5usize, 7usize), (3, 61), (40, 13), (2, 300)] {
            for kc in [7, KC] {
                let mut rng = crate::rng::seeded((batch * 131 + m) as u64);
                for ta in [Trans::No, Trans::Yes] {
                    let a = crate::rng::uniform_matrix(batch * m, k, &mut rng);
                    let b = crate::rng::uniform_matrix(k, n, &mut rng);
                    let (ar, ac) = match ta {
                        Trans::No => (m, k),
                        Trans::Yes => (k, m),
                    };
                    let mut got = vec![f64::NAN; batch * m * n];
                    gemm_core(
                        batch,
                        ta,
                        Trans::No,
                        1.0,
                        a.data(),
                        ar,
                        ac,
                        b.data(),
                        k,
                        n,
                        0.0,
                        &mut got,
                        m,
                        n,
                        kc,
                    );
                    for (i, (ai, ci)) in a.data().chunks(m * k).zip(got.chunks(m * n)).enumerate() {
                        let mut want = vec![0.0; m * n];
                        contract::contract_gemm(
                            (m, n, k),
                            (ai, ta == Trans::Yes),
                            (b.data(), false),
                            1.0,
                            0.0,
                            &mut want,
                            kc,
                            SMALL_WORK,
                        );
                        assert_eq!(ci, &want[..], "product {i} of {batch}×{m} {ta:?} KC={kc}");
                    }
                }
            }
        }
    }

    /// `op(A)` is read in place either way: untransposed, the scratch is
    /// never allocated; transposed, it holds one accumulator tile and the
    /// short-strip pad, at most `ACC_TILE + LC × TM_MAX` doubles.
    #[test]
    fn a_scratch_is_only_for_transposed_a() {
        // A fresh thread owns fresh thread-locals; the products stay below
        // the pool threshold, so they run on it.
        std::thread::spawn(|| {
            let capacity = || ACC.with(|buf| buf.borrow().capacity());
            let (m, n, k) = (50, 4, 300);
            assert!((SMALL_WORK..PAR_WORK_THRESHOLD).contains(&(m * n * k)));
            let b = test_mat(k, n, 2);
            let mut c = Matrix::zeros(m, n);
            gemm(
                Trans::No,
                Trans::No,
                1.0,
                &test_mat(m, k, 1),
                &b,
                0.0,
                &mut c,
            );
            assert_eq!(capacity(), 0, "Trans::No must not touch the scratch");
            gemm(
                Trans::Yes,
                Trans::No,
                1.0,
                &test_mat(k, m, 1),
                &b,
                0.0,
                &mut c,
            );
            assert!((1..=ACC_TILE + LC * TM_MAX).contains(&capacity()));
        })
        .join()
        .unwrap();
    }
}
