//! The kernel ladder: the program's public kernels called standalone on a
//! workload's real operands (its tensor, its seeded initial factors).
//!
//! Every rung reports the best of its repetitions — a kernel call is short
//! enough that the container's noise either misses it or does not. Rates are
//! computed from operand sizes (labelled "computed": they ignore cache
//! misses), never read from the program's own counters.

use crate::adapter::{self, kernels, Dense, Mat, Sparse};
use crate::sheet::Sheet;
use std::hint::black_box;
use std::time::Instant;

/// Best wall (seconds) of `f` over at least 3 calls and `slot_s` seconds,
/// after one untimed call.
pub fn best_s(slot_s: f64, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    let mut best = f64::MAX;
    let mut reps = 0;
    while reps < 3 || (t0.elapsed().as_secs_f64() < slot_s && reps < 500) {
        let a = Instant::now();
        f();
        best = best.min(a.elapsed().as_secs_f64());
        reps += 1;
    }
    best
}

/// One rung: the best wall (seconds) of `f` with the pool pinned to `width`.
fn rung<R>(width: usize, slot_s: f64, mut f: impl FnMut() -> R) -> f64 {
    adapter::with_threads(width, || best_s(slot_s, || drop(black_box(f()))))
}

/// Dense rungs on tensor `t` (any order ≥ 3) with factor matrices `factors`.
pub fn dense(sheet: &mut Sheet, t: &Dense, factors: &[Mat], width: usize, slot_s: f64) {
    let n = factors.len();
    let rank = factors[0].cols();
    let (a_first, a_last) = (&factors[0], &factors[n - 1]);

    let ttm_last = rung(width, slot_s, || kernels::ttm_last(t, a_last));
    let ttm_last_one = rung(1, slot_s, || kernels::ttm_last(t, a_last));
    let ttm_first = rung(width, slot_s, || kernels::ttm_first(t, a_first));
    sheet.push("tensor.ttm_last_ms", ttm_last * 1e3);
    sheet.push("tensor.ttm_first_ms", ttm_first * 1e3);
    let flops = 2.0 * t.len() as f64 * rank as f64;
    sheet.push("tensor.ttm_gflops", flops / ttm_last / 1e9);
    sheet.push("tensor.ttm_thread_speedup", ttm_last_one / ttm_last);

    // The first-level intermediate the tree's mTTV reads: [s_0 .. s_{N-2}, R].
    let inter = kernels::ttm_last(t, a_last);
    let a_mid = &factors[n - 2];
    let out_len = inter.len() / a_mid.rows();
    let mttv = rung(width, slot_s, || kernels::mttv(&inter, n - 2, a_mid));
    let bytes = 8.0 * (inter.len() + out_len + a_mid.data().len()) as f64;
    sheet.push("tensor.mttv_ms", mttv * 1e3);
    sheet.push("tensor.mttv_gbps", bytes / mttv / 1e9);

    let permute = rung(width, slot_s, || kernels::move_mode_last(t, 0));
    sheet.push("tensor.permute_ms", permute * 1e3);
}

/// The R×R and s×R rungs every method runs each mode update.
pub fn small(sheet: &mut Sheet, factors: &[Mat], width: usize, slot_s: f64) {
    let grams: Vec<Mat> = factors.iter().map(kernels::gram).collect();
    let gamma = kernels::hadamard_chain_skip(&grams, 0);
    // An s_0 × R right-hand side; the solve's cost does not depend on its
    // values.
    let rhs = &factors[0];
    let gram = rung(width, slot_s, || kernels::gram(&factors[0]));
    let hadamard = rung(width, slot_s, || kernels::hadamard_chain_skip(&grams, 0));
    let solve = rung(width, slot_s, || kernels::solve_gram(&gamma, rhs));
    sheet.push("tensor.gram_us", gram * 1e6);
    sheet.push("tensor.hadamard_us", hadamard * 1e6);
    sheet.push("tensor.solve_us", solve * 1e6);
}

/// Sparse rungs of the direct-CSF path (`dt` on a sparse input).
pub fn sparse_direct(sheet: &mut Sheet, sp: &Sparse, factors: &[Mat], width: usize, slot_s: f64) {
    let build = rung(width, slot_s, || kernels::csf_build(sp));
    sheet.push("tensor.csf_build_ms", build * 1e3);
    let csf = kernels::csf_build(sp);
    let mttkrp = rung(width, slot_s, || kernels::sparse_mttkrp(&csf, factors, 0));
    let mttkrp_one = rung(1, slot_s, || kernels::sparse_mttkrp(&csf, factors, 0));
    sheet.push("tensor.sparse_mttkrp_ms", mttkrp * 1e3);
    sheet.push("tensor.sparse_mnnz_per_s", sp.nnz() as f64 / mttkrp / 1e6);
    sheet.push("tensor.sparse_thread_speedup", mttkrp_one / mttkrp);
}

/// Sparse rungs of the semi-sparse chain (`pp` / `msdt` on a sparse input).
pub fn sparse_chained(sheet: &mut Sheet, sp: &Sparse, factors: &[Mat], width: usize, slot_s: f64) {
    let n = factors.len();
    let plan_build = rung(width, slot_s, || kernels::ttmplan_build(sp, n - 1));
    let plan = kernels::ttmplan_build(sp, n - 1);
    let ttm = rung(width, slot_s, || {
        kernels::csf_ttm(sp, &plan, &factors[n - 1])
    });
    let ss = kernels::csf_ttm(sp, &plan, &factors[n - 1]);
    let mttv = rung(width, slot_s, || {
        kernels::ss_mttv(&ss, n - 2, &factors[n - 2])
    });
    sheet.push("tensor.ttmplan_build_ms", plan_build * 1e3);
    sheet.push("tensor.csf_ttm_ms", ttm * 1e3);
    sheet.push("tensor.ss_mttv_ms", mttv * 1e3);
}
