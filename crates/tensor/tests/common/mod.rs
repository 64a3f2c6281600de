//! The GEMM numeric contract, written out as the scalar loop it promises —
//! the oracle every kernel test compares against **bitwise**. Shared (by
//! `#[path]`) between this crate's unit tests, its integration tests and
//! the workspace's `tests/gemm_packed_parity.rs`, so it names no crate type.

/// Whether the kernel's inner product is fused on this CPU: mirrors
/// `simd::simd_level()` (FMA together with AVX2 or AVX-512F); the scalar
/// level multiplies, rounds, then adds.
pub fn hardware_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("fma")
            && (std::arch::is_x86_feature_detected!("avx2")
                || std::arch::is_x86_feature_detected!("avx512f"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `C ← α·op(A)·op(B) + β·C` on row-major buffers; an operand is
/// `(stored buffer, is it stored transposed)`. Per element: `c ← β·c`
/// (exactly 0 when `β = 0`, untouched when `β = 1`), then for each panel
/// of `kc` consecutive `l`: `acc = 0; acc = fma(a, b, acc)` ascending,
/// `c += α·acc`. Products of fewer than `small_work` multiply-adds use the
/// serial form instead: `c += (α·a)·b` for `l` ascending, never fused.
#[allow(clippy::too_many_arguments)]
pub fn contract_gemm(
    (m, n, k): (usize, usize, usize),
    (a, a_transposed): (&[f64], bool),
    (b, b_transposed): (&[f64], bool),
    alpha: f64,
    beta: f64,
    c: &mut [f64],
    kc: usize,
    small_work: usize,
) {
    let a = |i: usize, l: usize| {
        if a_transposed {
            a[l * m + i]
        } else {
            a[i * k + l]
        }
    };
    let b = |l: usize, j: usize| {
        if b_transposed {
            b[j * k + l]
        } else {
            b[l * n + j]
        }
    };
    let fused = hardware_fma();
    for (at, cv) in c.iter_mut().enumerate() {
        let (i, j) = (at / n, at % n);
        if beta == 0.0 {
            *cv = 0.0;
        } else if beta != 1.0 {
            *cv *= beta;
        }
        if m * n * k < small_work {
            for l in 0..k {
                *cv += (alpha * a(i, l)) * b(l, j);
            }
            continue;
        }
        for kp in (0..k).step_by(kc) {
            let mut acc = 0.0f64;
            for l in kp..k.min(kp + kc) {
                acc = if fused {
                    a(i, l).mul_add(b(l, j), acc)
                } else {
                    acc + a(i, l) * b(l, j)
                };
            }
            *cv += alpha * acc;
        }
    }
}
