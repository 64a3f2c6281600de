//! Determinism of pooled kernels: GEMM, Khatri-Rao, and batched TTV must
//! produce **bit-identical** outputs whether the pool runs 1 thread or
//! many. Each output element is computed by the same sequential loop
//! regardless of how chunks are claimed, so equality is exact, not
//! approximate — this is what makes `PP_NUM_THREADS` a pure performance
//! knob.

use pp_tensor::gemm::{gemm, panel_kc, small_work_limit, Trans};
use pp_tensor::kernels::krp::khatri_rao;
use pp_tensor::kernels::mttv::mttv;
use pp_tensor::kernels::ttm::{ttm, ttm_at, ttm_at_in, ttm_first};
use pp_tensor::rng::{seeded, uniform_matrix, uniform_tensor};
use pp_tensor::semisparse::{csf_ttm, semisparse_mttkrp, ss_mttv, TtmPlan};
use pp_tensor::sparse::{sparse_mttkrp, CsfTensor, SparseTensor};
use pp_tensor::Matrix;

mod common;

/// Run `f` under a pinned pool width and return its result.
fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _guard = rayon::scoped_num_threads(n);
    f()
}

#[test]
fn gemm_bit_identical_across_thread_counts() {
    let mut rng = seeded(42);
    // Big enough to clear the parallel-work threshold (m·n·k ≥ 2^16).
    let a = uniform_matrix(96, 64, &mut rng);
    let b = uniform_matrix(64, 80, &mut rng);
    let run = |threads: usize| {
        with_threads(threads, || {
            let mut c = Matrix::zeros(96, 80);
            gemm(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c);
            c
        })
    };
    let serial = run(1);
    for threads in [2, 4, 8] {
        let par = run(threads);
        assert_eq!(
            serial.data(),
            par.data(),
            "gemm output differs at {threads} threads"
        );
    }
}

#[test]
fn gemm_packed_tall_skinny_bit_identical_1_vs_4_threads() {
    // The acceptance shape of the strip kernel: tall-skinny with n = rank.
    // m is prime, so thread-count-dependent chunk boundaries shift every
    // strip alignment and put the short last strips in different places
    // per thread count — the determinism argument (one accumulator per
    // element, global k-panel order) must make the outputs bitwise equal
    // anyway. Covers a 12×16 strip, an 8×24 strip, and a transposed-A
    // operand (copied blocks) at 6×32.
    let mut rng = seeded(99);
    let m = 1031; // prime, ≫ MC
    let k = 96;
    for &(ta, n) in &[(Trans::No, 16usize), (Trans::No, 24), (Trans::Yes, 32)] {
        let (ar, ac) = match ta {
            Trans::No => (m, k),
            Trans::Yes => (k, m),
        };
        let a = uniform_matrix(ar, ac, &mut rng);
        let b = uniform_matrix(k, n, &mut rng);
        let run = |threads: usize| {
            with_threads(threads, || {
                let mut c = Matrix::zeros(m, n);
                gemm(ta, Trans::No, 1.0, &a, &b, 0.0, &mut c);
                c
            })
        };
        let serial = run(1);
        let par = run(4);
        assert_eq!(
            serial.data(),
            par.data(),
            "gemm {ta:?} n={n} differs between 1 and 4 threads"
        );
    }
}

const TRANSES: [(Trans, Trans); 4] = [
    (Trans::No, Trans::No),
    (Trans::Yes, Trans::No),
    (Trans::No, Trans::Yes),
    (Trans::Yes, Trans::Yes),
];
const SCALINGS: [(f64, f64); 3] = [(1.0, 0.0), (-0.5, 1.0), (2.0, 0.5)];

/// One `m × n × k` product under pools of 1, 2, 4 and 8 threads, each
/// compared **bitwise** with the contract oracle — so the kernel equals
/// the scalar loop it promises *and* itself at any width. Takes the pin
/// lock itself.
fn assert_gemm_is_the_contract(
    (m, n, k): (usize, usize, usize),
    (ta, tb): (Trans, Trans),
    (alpha, beta): (f64, f64),
) {
    let mut rng = seeded((m * 131 + n * 17 + k) as u64);
    let (ar, ac) = match ta {
        Trans::No => (m, k),
        Trans::Yes => (k, m),
    };
    let (br, bc) = match tb {
        Trans::No => (k, n),
        Trans::Yes => (n, k),
    };
    let a = uniform_matrix(ar, ac, &mut rng);
    let b = uniform_matrix(br, bc, &mut rng);
    let c0 = uniform_matrix(m, n, &mut rng);
    let mut want = c0.clone();
    common::contract_gemm(
        (m, n, k),
        (a.data(), ta == Trans::Yes),
        (b.data(), tb == Trans::Yes),
        alpha,
        beta,
        want.data_mut(),
        panel_kc(),
        small_work_limit(),
    );
    for threads in [1, 2, 4, 8] {
        let got = with_threads(threads, || {
            let mut c = c0.clone();
            gemm(ta, tb, alpha, &a, &b, beta, &mut c);
            c
        });
        assert!(
            got.data()
                .iter()
                .zip(want.data())
                .all(|(g, w)| g.to_bits() == w.to_bits()),
            "({m},{n},{k}) {ta:?},{tb:?} α={alpha} β={beta} left the contract at {threads} threads"
        );
    }
}

#[test]
fn gemm_every_strip_width_is_the_contract_at_any_thread_count() {
    // Every padded width and lane count of every strip shape (n ≤ 32), the
    // two-column-block widths beyond, both operand layouts. m is prime and
    // large enough that the product clears the pool threshold, so 1 to 8
    // threads cut it into different row chunks and different short strips.
    let k = 96;
    let primes = [53usize, 97, 193, 389, 691];
    for (at, n) in (1..=40).chain([48, 64]).enumerate() {
        let m = *primes.iter().find(|&&p| p * n * k >= 1 << 16).unwrap();
        for (tt, &trans) in TRANSES.iter().enumerate() {
            assert_gemm_is_the_contract((m, n, k), trans, SCALINGS[(at + tt) % 3]);
        }
    }
}

#[test]
fn gemm_every_row_residue_is_the_contract() {
    // m through every residue modulo the strip heights (6, 8, 12) and their
    // common multiple, then primes around the 192-row A block and the row
    // chunk sizes; widths on each strip shape and on two column blocks.
    for m in (1..=25).chain([97, 193, 211, 389]) {
        for (at, n) in [5usize, 24, 32, 40].into_iter().enumerate() {
            for ta in [Trans::No, Trans::Yes] {
                assert_gemm_is_the_contract((m, n, 64), (ta, Trans::No), SCALINGS[(m + at) % 3]);
            }
        }
    }
}

#[test]
fn gemm_every_panel_count_and_scaling_is_the_contract() {
    // k below, at, just past and well past the 256-deep panel (1 to 3
    // panels: first-panel store, then accumulate) under overwrite (β = 0),
    // accumulate (β = 1) and scale semantics. k = 1 needs the taller m to
    // stay above the serial small-product path.
    for (at, k) in [1usize, 255, 256, 257, 700].into_iter().enumerate() {
        let m = if k == 1 { 211 } else { 97 };
        for (nt, n) in [7usize, 32].into_iter().enumerate() {
            for (st, &scaling) in SCALINGS.iter().enumerate() {
                assert_gemm_is_the_contract((m, n, k), TRANSES[(at + nt + st) % 4], scaling);
            }
        }
    }
}

#[test]
fn gemm_beta_zero_never_reads_c() {
    // β = 0 overwrites: NaNs in C must not survive, and a product of −0.0
    // comes out +0.0 — what zero-filling and then accumulating gave.
    let mut rng = seeded(5);
    let (m, n, k) = (211, 24, 300);
    let b = uniform_matrix(k, n, &mut rng);
    for ta in [Trans::No, Trans::Yes] {
        let (ar, ac) = match ta {
            Trans::No => (m, k),
            Trans::Yes => (k, m),
        };
        for threads in [1, 4] {
            let mut c = Matrix::from_fn(m, n, |_, _| f64::NAN);
            let a = uniform_matrix(ar, ac, &mut rng);
            with_threads(threads, || gemm(ta, Trans::No, 1.5, &a, &b, 0.0, &mut c));
            assert!(c.data().iter().all(|x| x.is_finite()), "NaN survived β = 0");

            let mut c = Matrix::from_fn(m, n, |_, _| f64::NAN);
            let zero = Matrix::zeros(ar, ac);
            with_threads(threads, || {
                gemm(ta, Trans::No, -1.0, &zero, &b, 0.0, &mut c)
            });
            assert!(
                c.data().iter().all(|x| x.to_bits() == 0),
                "α·acc = −0.0 must store +0.0 under β = 0"
            );
        }
    }
}

#[test]
fn khatri_rao_bit_identical_across_thread_counts() {
    let mut rng = seeded(7);
    let a = uniform_matrix(60, 32, &mut rng);
    let b = uniform_matrix(50, 32, &mut rng);
    let serial = with_threads(1, || khatri_rao(&[&a, &b]));
    for threads in [2, 4, 8] {
        let par = with_threads(threads, || khatri_rao(&[&a, &b]));
        assert_eq!(
            serial.data(),
            par.data(),
            "khatri_rao output differs at {threads} threads"
        );
    }
}

#[test]
fn mttv_bit_identical_across_thread_counts() {
    let mut rng = seeded(13);
    // 64 · 48 · 24 = 73_728 elements ≥ the 64K parallel threshold.
    let inter = uniform_tensor(&[64, 48, 24], &mut rng);
    let fac1 = uniform_matrix(48, 24, &mut rng);
    let fac0 = uniform_matrix(64, 24, &mut rng);
    // pos 1 exercises the outer-slab path, pos 0 the leading-mode path.
    for (pos, fac) in [(1usize, &fac1), (0usize, &fac0)] {
        let serial = with_threads(1, || mttv(&inter, pos, fac).tensor);
        for threads in [2, 4, 8] {
            let par = with_threads(threads, || mttv(&inter, pos, fac).tensor);
            assert_eq!(
                serial.data(),
                par.data(),
                "mttv pos {pos} differs at {threads} threads"
            );
        }
    }

    // Rank-specialized width (r = 32 hits the monomorphized inner loop).
    let inter32 = uniform_tensor(&[64, 48, 32], &mut rng);
    let fac32 = uniform_matrix(48, 32, &mut rng);
    let serial = with_threads(1, || mttv(&inter32, 1, &fac32).tensor);
    for threads in [2, 4] {
        let par = with_threads(threads, || mttv(&inter32, 1, &fac32).tensor);
        assert_eq!(
            serial.data(),
            par.data(),
            "fixed-r mttv differs at {threads} threads"
        );
    }
}

#[test]
fn ttm_first_batched_bit_identical_1_vs_4_threads() {
    // `ttm_at` at positions 1 and N−2, over 1/2/4/8 threads. The slabs run
    // as one product over their stacked rows, so row chunks (and strips)
    // cut across slab boundaries at thread-count-dependent places — many
    // small slabs, or `[2, 300, 300]`'s two large ones. Which worker runs
    // which rows must not show.
    let mut rng = seeded(31);
    for dims in [vec![5, 40, 7, 41], vec![2, 300, 300], vec![3, 5, 40, 7, 9]] {
        let t = uniform_tensor(&dims, &mut rng);
        for p in [1, dims.len() - 2] {
            for r in [16usize, 24] {
                let fac = uniform_matrix(dims[p], r, &mut rng);
                let serial = with_threads(1, || ttm_at(&t, p, &fac));
                for threads in [2, 4, 8] {
                    let par = with_threads(threads, || ttm_at(&t, p, &fac));
                    assert_eq!(
                        serial.data(),
                        par.data(),
                        "{dims:?} p={p} r={r} differs at {threads} threads"
                    );
                }
            }
        }
    }
}

/// `nnz` pseudo-random nonzeros over `dims` (duplicates merge at ingest).
fn lcg_sparse(dims: &[usize], nnz: usize, seed: u64) -> SparseTensor {
    let mut lcg = seed;
    let mut next = |m: usize| {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((lcg >> 33) as usize) % m
    };
    let vals_src = uniform_matrix(nnz, 1, &mut seeded(77));
    let mut inds = Vec::with_capacity(nnz * dims.len());
    for _ in 0..nnz {
        for &d in dims {
            inds.push(next(d));
        }
    }
    SparseTensor::from_coo(dims.to_vec(), inds, vals_src.data().to_vec())
}

#[test]
fn sparse_mttkrp_bit_identical_1_vs_4_threads() {
    // CSF MTTKRP splits the root level into per-thread output-row blocks;
    // a prime leading extent keeps block boundaries misaligned with fiber
    // boundaries at every width. nnz·R clears the 2^14 parallel threshold,
    // so 4 threads genuinely takes the pooled path while 1 thread takes
    // the serial fallback — outputs must still match bit for bit. R = 16
    // and 32 are widths of the CSF walk, R = 12 runs zero-padded to 16.
    let dims = [101usize, 64, 32];
    let sp = lcg_sparse(&dims, 1500, 0x5EED_1234);
    let mut rng = seeded(78);
    let csf = CsfTensor::build(&sp);
    for r in [12, 16, 32] {
        assert!(sp.nnz() * r >= 1 << 14, "case must clear the par threshold");
        let factors: Vec<Matrix> = dims
            .iter()
            .map(|&d| uniform_matrix(d, r, &mut rng))
            .collect();
        for n in 0..dims.len() {
            let one = with_threads(1, || sparse_mttkrp(&csf, &factors, n));
            for threads in [2, 4, 8] {
                let par = with_threads(threads, || sparse_mttkrp(&csf, &factors, n));
                assert_eq!(
                    one.data(),
                    par.data(),
                    "sparse MTTKRP r={r} mode {n} differs at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn semisparse_chain_bit_identical_across_thread_counts() {
    // csf_ttm and ss_mttv split their *output entries* into per-thread
    // blocks; prime extents and a skewed group-size distribution keep block
    // boundaries off group boundaries at every width. R = 16 runs the
    // rank-specialised bodies, R = 5 the generic ones; both clear the 2^14
    // parallel threshold on the first level.
    let dims = [53usize, 47, 31, 11];
    let sp = lcg_sparse(&dims, 6000, 0xC0FF_EE11);
    for r in [16usize, 5] {
        assert!(sp.nnz() * r >= 1 << 14, "case must clear the par threshold");
        let mut rng = seeded(79);
        let factors: Vec<Matrix> = dims
            .iter()
            .map(|&d| uniform_matrix(d, r, &mut rng))
            .collect();
        for k in 0..dims.len() {
            let plan = TtmPlan::build(&sp, k);
            let mode_order: Vec<usize> = (0..dims.len()).filter(|&m| m != k).collect();
            let n = mode_order[1];
            let chain = |threads: usize| {
                with_threads(threads, || {
                    let first = csf_ttm(&sp, &plan, &factors[k]);
                    let head = ss_mttv(&first, 0, &factors[mode_order[0]]);
                    let tail = ss_mttv(&first, 2, &factors[mode_order[2]]);
                    let m = semisparse_mttkrp(&first, &mode_order, &factors, n);
                    (first, head, tail, m)
                })
            };
            let one = chain(1);
            for threads in [2, 4, 8] {
                let par = chain(threads);
                let what = format!("r {r} ttm {k} at {threads} threads");
                assert_eq!(one.0.panels(), par.0.panels(), "csf_ttm {what}");
                assert_eq!(one.1.panels(), par.1.panels(), "ss_mttv head {what}");
                assert_eq!(one.2.panels(), par.2.panels(), "ss_mttv tail {what}");
                assert_eq!(one.3.data(), par.3.data(), "mttkrp {what}");
            }
        }
    }
}

#[test]
fn first_level_contractions_agree_bitwise_at_every_whole_vector_rank() {
    // R ∈ {8, 16, 24, 32} are the four register-strip shapes. Each slab of
    // a batched contraction equals the unbatched contraction of that slab,
    // and the semi-sparse TTM — which replays the GEMM's panel order on CSF
    // groups — equals the dense TTM of the densified tensor, three KC
    // panels deep, at any thread count.
    let mut rng = seeded(57);
    let t = uniform_tensor(&[3, 40, 7, 41], &mut rng);
    let deep = [5usize, 7, 2 * panel_kc() + 5];
    let sp = lcg_sparse(&deep, 2500, 0xFEED_0018);
    let dense = sp.to_dense();
    let plan = TtmPlan::build(&sp, 2);
    for r in [8usize, 16, 24, 32] {
        let fac = uniform_matrix(40, r, &mut rng);
        let deep_fac = uniform_matrix(deep[2], r, &mut rng);
        for threads in [1, 2, 4, 8] {
            with_threads(threads, || {
                let batched = ttm_at(&t, 1, &fac);
                for i in 0..3 {
                    assert_eq!(
                        batched.slice_along(0, i, 1).data(),
                        ttm_first(&t.slice_along(0, i, 1).reshape(vec![40, 7, 41]), &fac).data(),
                        "slab {i} r={r} at {threads} threads"
                    );
                }
                assert_eq!(
                    csf_ttm(&sp, &plan, &deep_fac).to_dense().data(),
                    ttm(&dense, 2, &deep_fac).tensor.data(),
                    "csf_ttm r={r} at {threads} threads"
                );
            });
        }
    }
}

/// FNV-1a over the bits of a tensor's elements.
fn digest(t: &pp_tensor::DenseTensor) -> u64 {
    t.data().iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Shapes of the first-level TTM pin, orders 3–5. Each has an extent of
/// 300 (two 256-deep panels) and row counts the goldens' small tensors
/// never reach: slabs of 29, 287, 41 and 55 rows straddle the 192-row
/// blocks, and the batch-1 and many-slab positions of orders 4 and 5 give
/// row chunks of several blocks at every width.
const TTM_PIN_SHAPES: [&[usize]; 3] = [&[300, 23, 29], &[3, 300, 7, 41], &[2, 3, 300, 5, 11]];
/// Every column-block width of the strip kernel: ragged 5, 12 and 24, one
/// whole 32-wide block, and two blocks at 40.
const TTM_PIN_RANKS: [usize; 5] = [5, 12, 24, 32, 40];

/// Digest of the output bits per shape, position and rank, in the loop
/// order of `ttm_at_keeps_its_digests_at_every_position_and_width`.
const TTM_DIGESTS: [u64; 60] = [
    0xc3c6_159d_0636_cef3, // 300x23x29 p=0 R=5
    0xeafa_3438_41bb_478c, // 300x23x29 p=0 R=12
    0xfb19_e631_19ed_7351, // 300x23x29 p=0 R=24
    0x837a_790b_ac54_96d8, // 300x23x29 p=0 R=32
    0xc34e_2009_eb82_d415, // 300x23x29 p=0 R=40
    0x260d_934b_f4e1_ac4d, // 300x23x29 p=1 R=5
    0xd4ac_4cae_50b0_6198, // 300x23x29 p=1 R=12
    0x7239_a009_3f43_a4c5, // 300x23x29 p=1 R=24
    0xa774_cdda_d222_6d8f, // 300x23x29 p=1 R=32
    0x26b3_f0ba_966e_9f6a, // 300x23x29 p=1 R=40
    0x9e35_daa1_7883_2d85, // 300x23x29 p=2 R=5
    0xfb78_07fa_ad2b_8918, // 300x23x29 p=2 R=12
    0x3979_808b_f5ed_9931, // 300x23x29 p=2 R=24
    0xadb1_51b4_b3bc_1c73, // 300x23x29 p=2 R=32
    0xf321_207b_f0d9_0cd1, // 300x23x29 p=2 R=40
    0x4a07_802c_746e_0f8f, // 3x300x7x41 p=0 R=5
    0xd255_f767_e444_d302, // 3x300x7x41 p=0 R=12
    0x13e3_9213_e09f_cb49, // 3x300x7x41 p=0 R=24
    0x6a69_2aed_3b19_4e00, // 3x300x7x41 p=0 R=32
    0xe30f_7c42_fcad_6de6, // 3x300x7x41 p=0 R=40
    0x19db_66ce_e84d_d711, // 3x300x7x41 p=1 R=5
    0x7ee7_77c6_9279_f084, // 3x300x7x41 p=1 R=12
    0xf3e9_e1da_caf8_10d1, // 3x300x7x41 p=1 R=24
    0xf563_f401_2658_1d16, // 3x300x7x41 p=1 R=32
    0x366d_b98b_1ec0_27b1, // 3x300x7x41 p=1 R=40
    0x502f_46a5_dad6_c436, // 3x300x7x41 p=2 R=5
    0x9560_0d38_3d51_f288, // 3x300x7x41 p=2 R=12
    0x9dbd_ce26_45e0_8537, // 3x300x7x41 p=2 R=24
    0x34bb_40e4_42bc_430d, // 3x300x7x41 p=2 R=32
    0xccd8_1d11_727e_6a10, // 3x300x7x41 p=2 R=40
    0x4f9f_1277_332f_23a4, // 3x300x7x41 p=3 R=5
    0x2ec6_4997_3a81_d549, // 3x300x7x41 p=3 R=12
    0x7233_cb86_862d_6e5d, // 3x300x7x41 p=3 R=24
    0x621e_6467_5b46_1de1, // 3x300x7x41 p=3 R=32
    0xfb40_8f05_58fa_e370, // 3x300x7x41 p=3 R=40
    0x2121_a5f4_371d_2b2d, // 2x3x300x5x11 p=0 R=5
    0x2a76_1e1f_5af6_795f, // 2x3x300x5x11 p=0 R=12
    0x543a_6067_ee0a_e359, // 2x3x300x5x11 p=0 R=24
    0x8f94_0951_04da_39e0, // 2x3x300x5x11 p=0 R=32
    0x05b4_0750_fa62_2b70, // 2x3x300x5x11 p=0 R=40
    0x0f67_035d_9752_ab0a, // 2x3x300x5x11 p=1 R=5
    0xc993_bc9c_6cab_8d0b, // 2x3x300x5x11 p=1 R=12
    0x81c5_caed_e44c_7436, // 2x3x300x5x11 p=1 R=24
    0x5d73_b42e_945e_b3e0, // 2x3x300x5x11 p=1 R=32
    0x4ba4_21b4_f7b5_db80, // 2x3x300x5x11 p=1 R=40
    0x2a4b_f416_3c25_b101, // 2x3x300x5x11 p=2 R=5
    0x239a_5829_bec6_4658, // 2x3x300x5x11 p=2 R=12
    0x2a4f_8461_75e8_46de, // 2x3x300x5x11 p=2 R=24
    0x8e59_e2d3_63b6_4040, // 2x3x300x5x11 p=2 R=32
    0x85c8_6edb_c261_4853, // 2x3x300x5x11 p=2 R=40
    0x0493_4cfd_b68f_5edf, // 2x3x300x5x11 p=3 R=5
    0x6834_ceb0_38de_e658, // 2x3x300x5x11 p=3 R=12
    0x4983_a45c_6762_ab82, // 2x3x300x5x11 p=3 R=24
    0xe41e_7f60_9a66_302f, // 2x3x300x5x11 p=3 R=32
    0xda28_8cec_d12d_5ee6, // 2x3x300x5x11 p=3 R=40
    0x85b4_501c_b7b7_4a4e, // 2x3x300x5x11 p=4 R=5
    0xbe36_8e60_7711_54b0, // 2x3x300x5x11 p=4 R=12
    0x1def_1a27_72b5_7043, // 2x3x300x5x11 p=4 R=24
    0xf8fe_73a4_aec4_70cc, // 2x3x300x5x11 p=4 R=32
    0x57ed_9d75_c516_a437, // 2x3x300x5x11 p=4 R=40
];

#[test]
fn ttm_at_keeps_its_digests_at_every_position_and_width() {
    // How the strip GEMM walks, copies, prefetches or streams its operands
    // may change; no bit of any first-level TTM may. One pooled workspace
    // serves every call, so outputs land in recycled (in debug builds
    // NaN-poisoned) buffers.
    let ws = pp_tensor::Workspace::new();
    let mut rng = seeded(4099);
    let mut got = Vec::new();
    for dims in TTM_PIN_SHAPES {
        let t = uniform_tensor(dims, &mut rng);
        for (p, &s) in dims.iter().enumerate() {
            for r in TTM_PIN_RANKS {
                let fac = uniform_matrix(s, r, &mut rng);
                let at = |threads| with_threads(threads, || digest(&ttm_at_in(&ws, &t, p, &fac)));
                let d = at(1);
                for threads in [2, 4] {
                    assert_eq!(at(threads), d, "{dims:?} p={p} R={r} at {threads} threads");
                }
                got.push(d);
            }
        }
    }
    assert_eq!(got, TTM_DIGESTS, "{got:#018x?}");
}
