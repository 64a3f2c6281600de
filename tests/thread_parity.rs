//! End-to-end determinism of the sessions across pool widths: exact and
//! PP sessions must produce **identical** fitness traces and factors under
//! a 1-thread pool and an N-thread pool. Every parallel kernel partitions
//! its output disjointly and computes each element with a fixed-order
//! sequential loop, so equality is exact (bitwise), not approximate.
//!
//! The 40³ tensor is chosen to actually cross the GEMM parallel-work
//! threshold (K·s·R = 1600·40·8 ≈ 5×10⁵ ≥ 2¹⁶), so the N-thread run
//! really exercises the pooled parallel paths.

use parallel_pp::core::{AlsConfig, AlsSession, SessionKind};
use parallel_pp::datagen::lowrank::noisy_rank;
use parallel_pp::dtree::{KernelStats, TreePolicy};

mod common;
use common::{assert_identical, override_lock};

#[test]
fn cp_als_trace_identical_under_1_and_n_threads() {
    let _serial = override_lock();
    let t = noisy_rank(&[40, 40, 40], 6, 0.05, 21);
    let run = |threads: usize| {
        AlsSession::new(
            &t,
            &AlsConfig::new(8)
                .with_max_sweeps(8)
                .with_tol(0.0)
                .with_threads(threads),
            SessionKind::Exact,
        )
        .run()
    };
    let serial = run(1);
    let parallel = run(4);
    assert_identical(&serial, &parallel);
}

#[test]
fn msdt_cp_als_trace_identical_under_1_and_n_threads() {
    let _serial = override_lock();
    let t = noisy_rank(&[40, 40, 40], 6, 0.05, 33);
    let run = |threads: usize| {
        AlsSession::new(
            &t,
            &AlsConfig::new(8)
                .with_policy(TreePolicy::MultiSweep)
                .with_max_sweeps(8)
                .with_tol(0.0)
                .with_threads(threads),
            SessionKind::Exact,
        )
        .run()
    };
    let serial = run(1);
    let parallel = run(4);
    assert_identical(&serial, &parallel);
}

#[test]
fn pp_cp_als_trace_identical_under_1_and_n_threads() {
    let _serial = override_lock();
    let t = noisy_rank(&[40, 40, 40], 6, 0.05, 55);
    let run = |threads: usize| {
        AlsSession::new(
            &t,
            &AlsConfig::new(8)
                .with_max_sweeps(20)
                .with_tol(0.0)
                // Loose ε so the run actually enters the PP regime and the
                // parallel pair-operator construction is exercised.
                .with_pp_tol(0.5)
                .with_threads(threads),
            SessionKind::Pp,
        )
        .run()
    };
    let serial = run(1);
    let parallel = run(4);
    // The PP regime must have fired for this test to mean anything.
    assert!(
        serial
            .report
            .sweeps
            .iter()
            .any(|s| s.kind == parallel_pp::core::SweepKind::PpInit),
        "PP regime never engaged; loosen pp_tol"
    );
    assert_identical(&serial, &parallel);
}

#[test]
fn sparse_msdt_trace_identical_under_1_and_n_threads() {
    // The semi-sparse chain (csf_ttm + ss_mttv) partitions its output
    // panels disjointly, so MSDT on a sparse input must be bitwise
    // deterministic across pool widths. Density is chosen so the entry
    // count crosses the kernels' parallel-work threshold.
    let _serial = override_lock();
    let (sp, _) = parallel_pp::datagen::sparse::sparse_lowrank(&[40, 36, 30], 4, 0.12, 71);
    let run = |threads: usize| {
        AlsSession::new_sparse(
            &sp,
            &AlsConfig::new(8)
                .with_policy(TreePolicy::MultiSweep)
                .with_max_sweeps(6)
                .with_tol(0.0)
                .with_threads(threads),
            SessionKind::Exact,
        )
        .run()
    };
    let serial = run(1);
    assert!(
        serial.report.stats.semisparse_ttm_flops > 0,
        "semi-sparse chain never ran"
    );
    assert_identical(&serial, &run(4));
}

#[test]
fn sparse_pp_trace_identical_under_1_and_n_threads() {
    let _serial = override_lock();
    let (sp, _) = parallel_pp::datagen::sparse::sparse_lowrank(&[40, 36, 30], 4, 0.12, 77);
    let run = |threads: usize| {
        AlsSession::new_sparse(
            &sp,
            &AlsConfig::new(8)
                .with_policy(TreePolicy::MultiSweep)
                .with_max_sweeps(18)
                .with_tol(0.0)
                .with_pp_tol(0.5)
                .with_threads(threads),
            SessionKind::Pp,
        )
        .run()
    };
    let serial = run(1);
    assert!(
        serial
            .report
            .sweeps
            .iter()
            .any(|s| s.kind == parallel_pp::core::SweepKind::PpInit),
        "PP regime never engaged; loosen pp_tol"
    );
    assert_identical(&serial, &run(4));
}

/// Every count of the kernel ledger. The destructuring names each field,
/// so a field added to `KernelStats` does not compile here until it is
/// sorted into a count (compared) or a wall time (not).
fn ledger_counts(s: &KernelStats) -> [(&'static str, u64); 12] {
    let KernelStats {
        ttm_secs: _,
        mttv_secs: _,
        hadamard_secs: _,
        solve_secs: _,
        other_secs: _,
        ttm_flops,
        mttv_flops,
        ttm_count,
        mttv_count,
        gemm_packed_flops,
        gemm_fixed_n_calls,
        gemm_generic_calls,
        sparse_mttkrp_flops,
        sparse_fibers_visited,
        semisparse_ttm_flops,
        semisparse_ttv_flops,
        semisparse_entries_visited,
    } = *s;
    [
        ("ttm_flops", ttm_flops),
        ("mttv_flops", mttv_flops),
        ("ttm_count", ttm_count),
        ("mttv_count", mttv_count),
        ("gemm_packed_flops", gemm_packed_flops),
        ("gemm_fixed_n_calls", gemm_fixed_n_calls),
        ("gemm_generic_calls", gemm_generic_calls),
        ("sparse_mttkrp_flops", sparse_mttkrp_flops),
        ("sparse_fibers_visited", sparse_fibers_visited),
        ("semisparse_ttm_flops", semisparse_ttm_flops),
        ("semisparse_ttv_flops", semisparse_ttv_flops),
        ("semisparse_entries_visited", semisparse_entries_visited),
    ]
}

#[test]
fn kernel_ledger_counts_every_ttm_once_at_any_width() {
    // Every first-level TTM of a dense exact session is one GEMM run from
    // the sweeping thread, so the GEMM ledger carries all of its flops
    // (both are 2·len·R per TTM), and every count repeats exactly across
    // pool widths.
    let _serial = override_lock();
    let t = noisy_rank(&[64, 60, 56], 6, 0.05, 91);
    for policy in [TreePolicy::Standard, TreePolicy::MultiSweep] {
        let run = |threads: usize| {
            let cfg = AlsConfig::new(16)
                .with_policy(policy)
                .with_max_sweeps(6)
                .with_tol(0.0)
                .with_threads(threads);
            AlsSession::new(&t, &cfg, SessionKind::Exact)
                .run()
                .report
                .stats
        };
        let (one, four) = (run(1), run(4));
        assert!(one.ttm_count > 0, "{policy:?}: no TTM ran");
        assert_eq!(one.gemm_packed_flops, one.ttm_flops, "{policy:?}");
        assert_eq!(ledger_counts(&one), ledger_counts(&four), "{policy:?}");
    }
}
