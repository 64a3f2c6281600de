//! Runtime SIMD capability probe shared by the hot kernels.
//!
//! The workspace compiles for baseline x86-64 (no `-C target-cpu`), so the
//! innermost kernel loops are compiled several times behind
//! `#[target_feature]` and dispatched on the level probed here — standard
//! function multiversioning. The probe depends only on the CPU (never on
//! data or thread count), so kernel determinism across thread counts is
//! unaffected; levels differ across *machines* only in whether `mul_add`
//! maps to a hardware FMA.
//!
//! The clones: the GEMM strip chunk (`gemm`), the mTTV slab row op
//! (`kernels::mttv`), the Khatri-Rao row fill (`kernels::krp`), the
//! semi-sparse TTM and mTTV blocks (`semisparse`), and the CSF MTTKRP walk
//! (`sparse`). The Khatri-Rao fill and the CSF walk never fuse, so their
//! clones enable no FMA and every level gives the same bits.
//!
//! # The `mul_add` rule
//!
//! `mul_add` appears only in bodies reached through a `#[target_feature]`
//! clone; on the baseline build a bare `mul_add` is a libm call (`fma` in
//! `compiler_builtins`, tens of nanoseconds per element instead of a
//! fraction of one). Concretely a kernel's inner loop is an
//! `#[inline(always)] fn body<const FMA: bool>` whose only callers are the
//! `avx512f,fma` / `avx2,fma` clones (`FMA = true`) and the scalar arm of
//! the `simd_level()` dispatch (`FMA = false`, separate multiply and add).
//! Closures do not carry the rule: a closure is a function of its own and
//! is not compiled with its caller's features unless it is inlined, so a
//! body that fuses must loop, not call a closure.

/// Best vector extension the running CPU supports (with FMA, which every
/// AVX2/AVX-512 part of interest has — both are required together so the
/// feature-gated kernel clones may use `f64::mul_add`). Ordered by width.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) enum SimdLevel {
    /// Baseline codegen, separate mul+add.
    Scalar,
    /// 256-bit vectors + FMA.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// 512-bit vectors + FMA.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// Probe once (first call), then serve from a relaxed atomic.
pub(crate) fn simd_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::atomic::{AtomicU8, Ordering};
        static LEVEL: AtomicU8 = AtomicU8::new(u8::MAX);
        let mut l = LEVEL.load(Ordering::Relaxed);
        if l == u8::MAX {
            l = if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("fma")
            {
                2
            } else if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                1
            } else {
                0
            };
            LEVEL.store(l, Ordering::Relaxed);
        }
        match l {
            2 => SimdLevel::Avx512,
            1 => SimdLevel::Avx2,
            _ => SimdLevel::Scalar,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdLevel::Scalar
    }
}
