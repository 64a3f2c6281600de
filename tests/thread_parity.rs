//! End-to-end determinism of the sessions across pool widths: exact and
//! PP sessions must produce **identical** fitness traces and factors under
//! a 1-thread pool and an N-thread pool. Every parallel kernel partitions
//! its output disjointly and computes each element with a fixed-order
//! sequential loop, so equality is exact (bitwise), not approximate.
//!
//! The 40³ tensor is chosen to actually cross the GEMM parallel-work
//! threshold (K·s·R = 1600·40·8 ≈ 5×10⁵ ≥ 2¹⁶), so the N-thread run
//! really exercises the pooled parallel paths.

use parallel_pp::core::{AlsConfig, AlsSession, SessionKind, Step, SweepKind};
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
    // MSDT on a sparse input runs the CSF forest, whose MTTKRP writes
    // each output row from one task, so it must be bitwise deterministic
    // across pool widths. Density is chosen so the nonzero count crosses
    // the kernel's parallel-work threshold.
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
    let stats = &serial.report.stats;
    // Six sweeps of three CSF MTTKRPs, each nnz·R·N flops.
    assert_eq!(stats.ttm_count, 18, "CSF forest never ran");
    assert_eq!(stats.ttm_flops, 18 * sp.nnz() as u64 * 8 * 3);
    assert_eq!(stats.mttv_count, 0, "no tree levels on the forest");
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
fn ledger_counts(s: &KernelStats) -> [(&'static str, u64); 4] {
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
    } = *s;
    [
        ("ttm_flops", ttm_flops),
        ("mttv_flops", mttv_flops),
        ("ttm_count", ttm_count),
        ("mttv_count", mttv_count),
    ]
}

#[test]
fn kernel_ledger_counts_every_ttm_once_at_any_width() {
    // Every first-level TTM of a dense exact session contracts one mode
    // of the whole input, so each carries 2·len·R flops, and every count
    // repeats exactly across pool widths.
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
        let per_ttm = 2 * t.len() as u64 * 16;
        assert_eq!(one.ttm_flops, one.ttm_count * per_ttm, "{policy:?}");
        assert_eq!(ledger_counts(&one), ledger_counts(&four), "{policy:?}");
    }
}

/// One sweep of a session: its kind and what the kernel ledger recorded
/// during it.
#[derive(Debug, PartialEq)]
struct SweepLedger {
    kind: SweepKind,
    mttv_calls: u64,
    mttv_flops: u64,
    ttm_flops: u64,
}

/// Each sweep of a session run to its end.
fn ledger_per_sweep(mut session: AlsSession) -> Vec<SweepLedger> {
    let mut sweeps = Vec::new();
    let mut before = KernelStats::default();
    while let Step::Swept(rec) = session.step() {
        let s = *session.stats();
        sweeps.push(SweepLedger {
            kind: rec.kind,
            mttv_calls: s.mttv_count - before.mttv_count,
            mttv_flops: s.mttv_flops - before.mttv_flops,
            ttm_flops: s.ttm_flops - before.ttm_flops,
        });
        before = s;
    }
    sweeps
}

/// Σ of one ledger column over a run's first `sweeps` sweeps.
fn sum_over(run: &[SweepLedger], sweeps: usize, col: fn(&SweepLedger) -> u64) -> u64 {
    run[..sweeps].iter().map(col).sum()
}

#[test]
fn paper_table1_msdt_ttm_flops_are_n_over_2n_minus_2_of_dt() {
    // Table I: DT runs two first-level TTMs per sweep, MSDT runs N per
    // N − 1 sweeps, each 2·s^N·R flops on an equal-extent input. So over
    // any k·(N − 1) exact sweeps from the first, 2(N − 1)·MSDT = N·DT
    // holds exactly, at every pool width. MSDT also runs more mTTV flops
    // than DT at N ≥ 4 (printed): that is the lower-order term the table
    // drops.
    let _serial = override_lock();
    let rank = 8;
    for dims in [&[24usize; 3][..], &[12; 4], &[8; 5]] {
        let n = dims.len();
        let t = noisy_rank(dims, 6, 0.05, 93);
        for threads in [1, 4] {
            let run = |policy| {
                let cfg = AlsConfig::new(rank)
                    .with_policy(policy)
                    .with_max_sweeps(2 * (n - 1))
                    .with_tol(0.0)
                    .with_threads(threads);
                ledger_per_sweep(AlsSession::new(&t, &cfg, SessionKind::Exact))
            };
            let (dt, msdt) = (run(TreePolicy::Standard), run(TreePolicy::MultiSweep));
            for k in 1..=2 {
                let w = k * (n - 1);
                let (dt_ttm, ms_ttm) = (
                    sum_over(&dt, w, |s| s.ttm_flops),
                    sum_over(&msdt, w, |s| s.ttm_flops),
                );
                let (dt_mttv, ms_mttv) = (
                    sum_over(&dt, w, |s| s.mttv_flops),
                    sum_over(&msdt, w, |s| s.mttv_flops),
                );
                println!(
                    "Table I, N={n}, {w} sweeps, width {threads}: TTM flops DT {dt_ttm}, MSDT {ms_ttm} \
                     (MSDT/DT {:.4}, N/(2(N-1)) {:.4}); mTTV flops DT {dt_mttv}, MSDT {ms_mttv}",
                    ms_ttm as f64 / dt_ttm as f64,
                    n as f64 / (2 * (n - 1)) as f64,
                );
                assert!(dt_ttm > 0, "N={n}: no TTM ran");
                assert_eq!(
                    2 * (n as u64 - 1) * ms_ttm,
                    n as u64 * dt_ttm,
                    "N={n}, {w} sweeps, width {threads}"
                );
            }
        }
    }
}

#[test]
fn paper_fig3_per_sweep_flops_order_pp_approx_msdt_dt() {
    // Fig. 3's ordering, on flops (the kernel ledger's TTM + mTTV): at
    // s ≫ R an approximated sweep (N(N − 1) corrections of 2·s²·R flops)
    // costs less than an MSDT sweep, which costs less than a DT sweep.
    // MSDT's cost varies from sweep to sweep, so the exact methods are
    // averaged over a window of 2(N − 1) sweeps.
    let (dims, rank) = ([40usize; 3], 8);
    let t = noisy_rank(&dims, 6, 0.05, 55);
    let cfg = |policy| {
        AlsConfig::new(rank)
            .with_policy(policy)
            .with_max_sweeps(18)
            .with_tol(0.0)
            .with_pp_tol(0.5)
    };
    let flops = |s: &SweepLedger| s.ttm_flops + s.mttv_flops;
    let w = 2 * (dims.len() - 1);
    let exact = |policy| {
        let cfg = cfg(policy).with_max_sweeps(w);
        sum_over(
            &ledger_per_sweep(AlsSession::new(&t, &cfg, SessionKind::Exact)),
            w,
            flops,
        )
    };
    let (dt, msdt) = (exact(TreePolicy::Standard), exact(TreePolicy::MultiSweep));
    let pp = ledger_per_sweep(AlsSession::new(
        &t,
        &cfg(TreePolicy::MultiSweep),
        SessionKind::Pp,
    ));
    // The largest approximated sweep: one that runs every correction.
    let approx = pp
        .iter()
        .filter(|s| s.kind == SweepKind::PpApprox)
        .map(flops)
        .max()
        .expect("PP regime never engaged; loosen pp_tol");
    println!(
        "Fig. 3 (flops per sweep), {dims:?} R={rank}: DT {}, MSDT {}, PP-approx {approx}",
        dt / w as u64,
        msdt / w as u64,
    );
    assert!(
        approx * (w as u64) < msdt,
        "PP-approx {approx} vs MSDT {msdt}/{w}"
    );
    assert!(msdt < dt, "MSDT {msdt} vs DT {dt} over {w} sweeps");
}

#[test]
fn pp_ledger_counts_the_corrections_that_run_at_any_width() {
    // An approximated sweep runs one first-order correction per ordered
    // pair of modes, 2·|𝓜^(n,i)| flops each, except against a drift that
    // is exactly zero: the first one after a PP-init meets dA^(i) = 0 for
    // every mode it has not updated yet, so it runs N(N−1)/2 fewer. A
    // sparse PP-init contracts N − 1 anchors (the walk of 𝓜^(0,1) folds
    // the first). Every per-sweep count repeats at widths 1 and 4.
    let _serial = override_lock();
    let rank = 8;
    let dense3 = noisy_rank(&[40, 40, 40], 6, 0.05, 55);
    let dense4 = noisy_rank(&[14, 13, 12, 11], 5, 0.05, 57);
    let (sparse3, _) = parallel_pp::datagen::sparse::sparse_lowrank(&[40, 36, 30], 4, 0.12, 77);
    let cfg = |threads: usize| {
        AlsConfig::new(rank)
            .with_policy(TreePolicy::MultiSweep)
            .with_max_sweeps(18)
            .with_tol(0.0)
            .with_pp_tol(0.5)
            .with_threads(threads)
    };
    let session = |case: usize, w: usize| match case {
        0 => AlsSession::new(&dense3, &cfg(w), SessionKind::Pp),
        1 => AlsSession::new(&dense4, &cfg(w), SessionKind::Pp),
        _ => AlsSession::new_sparse(&sparse3, &cfg(w), SessionKind::Pp),
    };
    let shapes: [&[usize]; 3] = [&[40, 40, 40], &[14, 13, 12, 11], &[40, 36, 30]];
    for (case, dims) in shapes.into_iter().enumerate() {
        let order = dims.len() as u64;
        // Σ over the corrections of a sweep: all ordered pairs, or only
        // those whose partner came first.
        let flops = |first_after_init: bool| -> u64 {
            let mut sum = 0;
            for (n, &sn) in dims.iter().enumerate() {
                for (i, &si) in dims.iter().enumerate() {
                    if i != n && (!first_after_init || i < n) {
                        sum += 2 * (sn * si * rank) as u64;
                    }
                }
            }
            sum
        };
        let one = ledger_per_sweep(session(case, 1));
        let inits = one.iter().filter(|s| s.kind == SweepKind::PpInit).count();
        assert!(inits >= 2, "{dims:?}: {inits} PP-inits; loosen pp_tol");
        for (k, s) in one.iter().enumerate() {
            let (calls, fl) = (s.mttv_calls, s.mttv_flops);
            let after_init = k > 0 && one[k - 1].kind == SweepKind::PpInit;
            match s.kind {
                SweepKind::PpApprox if after_init => {
                    assert_eq!(
                        (calls, fl),
                        (order * (order - 1) / 2, flops(true)),
                        "{dims:?} {k}"
                    );
                }
                SweepKind::PpApprox => {
                    assert_eq!(
                        (calls, fl),
                        (order * (order - 1), flops(false)),
                        "{dims:?} {k}"
                    );
                }
                SweepKind::PpInit if case == 2 => {
                    assert_eq!(calls, order - 1, "{dims:?} sweep {k}");
                }
                _ => {}
            }
        }
        assert_eq!(one, ledger_per_sweep(session(case, 4)), "{dims:?}");
    }
}
