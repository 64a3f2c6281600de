//! Helpers shared by the end-to-end parity suites: bitwise run comparison
//! and serialization of sections that pin the process-global pool width,
//! plus the pointwise oracle of the PP pair walk. Each suite uses a subset.
#![allow(dead_code)]

use parallel_pp::core::AlsOutput;
use parallel_pp::tensor::sparse::SparseTensor;
use parallel_pp::tensor::{DenseTensor, Matrix, Shape};
use std::sync::Mutex;

/// The thread override is process-global and the test harness runs tests
/// concurrently, so pinned sections must be serialized — otherwise one
/// test's "1-thread" baseline could silently run wide under another's pin.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Take the override lock (poison-tolerant).
pub fn override_lock() -> std::sync::MutexGuard<'static, ()> {
    OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Assert two driver runs are **bitwise identical**: same sweep schedule,
/// bit-equal fitness trace, bit-equal factors.
pub fn assert_identical(a: &AlsOutput, b: &AlsOutput) {
    assert_eq!(a.report.sweeps.len(), b.report.sweeps.len(), "sweep count");
    for (i, (sa, sb)) in a
        .report
        .sweeps
        .iter()
        .zip(b.report.sweeps.iter())
        .enumerate()
    {
        assert_eq!(sa.kind, sb.kind, "sweep kind diverged at sweep {i}");
        assert_eq!(
            sa.fitness.to_bits(),
            sb.fitness.to_bits(),
            "fitness diverged at sweep {i}: {} vs {}",
            sa.fitness,
            sb.fitness
        );
    }
    for (n, (fa, fb)) in a.factors.iter().zip(b.factors.iter()).enumerate() {
        assert_eq!(fa.data(), fb.data(), "factor {n} diverged");
    }
}

/// Pointwise oracle for the PP pair operator `𝓜^(i,j)` (layout
/// `[i, j, R]`): for every nonzero in lexicographic order,
/// `p = v · ∏ A^(m)[i_m]` over the modes `m ∉ {i, j}` ascending, multiplied
/// left to right and unfused, then `out[i_i, i_j] += p`.
pub fn pair_pointwise(sp: &SparseTensor, factors: &[Matrix], i: usize, j: usize) -> DenseTensor {
    let dims = sp.dims();
    let m0 = (0..dims.len()).find(|&m| m != i && m != j).unwrap();
    let r = factors[m0].cols();
    let mut out = DenseTensor::zeros(Shape::new(vec![dims[i], dims[j], r]));
    let data = out.data_mut();
    let mut p = vec![0.0; r];
    for (e, &v) in sp.vals().iter().enumerate() {
        let idx = sp.idx(e);
        p.fill(v);
        for (m, f) in factors.iter().enumerate() {
            if m != i && m != j {
                for (p, &x) in p.iter_mut().zip(f.row(idx[m] as usize)) {
                    *p *= x;
                }
            }
        }
        let base = (idx[i] as usize * dims[j] + idx[j] as usize) * r;
        for (y, &p) in data[base..base + r].iter_mut().zip(&p) {
            *y += p;
        }
    }
    out
}
