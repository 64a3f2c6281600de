//! Session-parity suite: stepping an [`AlsSession`] under arbitrary
//! pause/resume/interleave schedules is **bitwise identical** to running
//! it straight through with `run()`, for randomized seeds and methods.
//!
//! Together with `tests/golden_traces.rs` (which pins the traces
//! themselves) this closes the loop: any interleaving of step-loops ==
//! `run()` == the golden trace.

mod common;

use common::assert_identical;
use parallel_pp::core::{AlsConfig, AlsOutput, AlsSession, SessionKind, Step, StopReason};
use parallel_pp::datagen::lowrank::noisy_rank;
use parallel_pp::dtree::{KernelStats, TreePolicy};
use parallel_pp::serve::JobMethod;
use parallel_pp::tensor::DenseTensor;
use proptest::prelude::*;

/// Decode a proptest-generated index (the vendored shim has no
/// enum/oneof strategies).
fn nth_method(i: usize) -> JobMethod {
    [
        JobMethod::Dt,
        JobMethod::Msdt,
        JobMethod::Pp,
        JobMethod::Nncp,
    ][i % 4]
}

/// The method's configuration; a generous ε so the PP regime activates
/// within the budget.
fn config(method: JobMethod, rank: usize, sweeps: usize) -> AlsConfig {
    let cfg = AlsConfig::new(rank)
        .with_max_sweeps(sweeps)
        .with_tol(0.0)
        .with_policy(method.policy());
    match method {
        JobMethod::Pp => cfg.with_pp_tol(0.4),
        _ => cfg,
    }
}

/// The uninterrupted run.
fn run(t: &DenseTensor, cfg: &AlsConfig, method: JobMethod) -> AlsOutput {
    AlsSession::new(t, cfg, method.session_kind()).run()
}

/// An unrelated decomposition run to completion between steps (dirties
/// the pool and the allocator).
fn intermission(seed: u64) {
    let other = noisy_rank(&[6, 5, 7], 2, 0.05, seed);
    let cfg = AlsConfig::new(2).with_max_sweeps(3).with_tol(0.0);
    let _ = AlsSession::new(&other, &cfg, SessionKind::Exact).run();
}

// Case counts tuned for a < 60 s debug budget; each case runs two or three
// full (small) decompositions.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Stop at sweep k, run an unrelated decomposition in between (dirties
    /// the pool), resume, compare the tail.
    #[test]
    fn stop_at_k_resume_tail_matches(
        k in 1usize..5,
        method_idx in 0usize..4,
        seed in 0u64..500,
    ) {
        let method = nth_method(method_idx);
        let t = noisy_rank(&[8, 7, 6], 3, 0.05, seed);
        let cfg = config(method, 3, 8).with_seed(seed);
        let a = run(&t, &cfg, method);

        let mut s = AlsSession::new(&t, &cfg, method.session_kind());
        for _ in 0..k {
            let _ = s.step();
        }
        intermission(seed.wrapping_add(1));
        // Resume the original session and drain it.
        while let Step::Swept(_) = s.step() {}
        let b = s.finish();
        assert_identical(&a, &b);
    }

    /// Two sessions stepped alternately (the batch scheduler's round-robin)
    /// each match their solo runs — tenant isolation at the numeric level.
    #[test]
    fn interleaved_sessions_are_isolated(
        method_a_idx in 0usize..4,
        method_b_idx in 0usize..4,
        seed in 0u64..500,
    ) {
        let method_a = nth_method(method_a_idx);
        let method_b = nth_method(method_b_idx);
        let ta = noisy_rank(&[8, 6, 7], 3, 0.05, seed);
        let tb = noisy_rank(&[6, 7, 6], 2, 0.05, seed.wrapping_add(7));
        let cfg_a = config(method_a, 3, 6).with_seed(seed);
        let cfg_b = config(method_b, 2, 9).with_seed(seed.wrapping_add(7));
        let solo_a = run(&ta, &cfg_a, method_a);
        let solo_b = run(&tb, &cfg_b, method_b);

        let mut sa = AlsSession::new(&ta, &cfg_a, method_a.session_kind());
        let mut sb = AlsSession::new(&tb, &cfg_b, method_b.session_kind());
        let (mut da, mut db) = (false, false);
        while !(da && db) {
            if !da {
                da = matches!(sa.step(), Step::Done(_));
            }
            if !db {
                db = matches!(sb.step(), Step::Done(_));
            }
        }
        assert_identical(&solo_a, &sa.finish());
        assert_identical(&solo_b, &sb.finish());
    }
}

/// The PP regime must survive a pause landing *inside* it: pause right
/// after the PP-init sweep, resume, and still match the uninterrupted run.
#[test]
fn pause_inside_pp_regime_matches() {
    let t = noisy_rank(&[10, 9, 11], 3, 0.05, 7);
    let cfg = AlsConfig::new(3)
        .with_policy(TreePolicy::MultiSweep)
        .with_pp_tol(0.3)
        .with_max_sweeps(40)
        .with_tol(1e-9);
    let a = AlsSession::new(&t, &cfg, SessionKind::Pp).run();
    let init_pos = a
        .report
        .sweeps
        .iter()
        .position(|s| s.kind == parallel_pp::core::SweepKind::PpInit)
        .expect("PP must activate in this configuration");

    let mut s = AlsSession::new(&t, &cfg, SessionKind::Pp);
    for _ in 0..=init_pos {
        let _ = s.step();
    }
    // Intermission inside the approximated regime.
    intermission(9);
    while let Step::Swept(_) = s.step() {}
    assert_identical(&a, &s.finish());
}

/// Convergence under stepping: the sweep that meets the Δ criterion is
/// the last one, every later step is `Done(Converged)`, and the sealed
/// output is the uninterrupted run's.
#[test]
fn convergence_matches_under_stepping() {
    let (t, _) = parallel_pp::datagen::lowrank::exact_rank(&[7, 7, 7], 2, 5);
    let cfg = AlsConfig::new(2).with_max_sweeps(300).with_tol(1e-5);
    let a = AlsSession::new(&t, &cfg, SessionKind::Exact).run();
    assert!(a.report.converged);

    let mut s = AlsSession::new(&t, &cfg, SessionKind::Exact);
    while !s.converged() {
        assert!(
            matches!(s.step(), Step::Swept(_)),
            "stopped before converging"
        );
    }
    assert_eq!(s.sweeps_done(), a.report.sweeps.len());
    assert!(s.is_finished());
    for _ in 0..2 {
        assert!(matches!(s.step(), Step::Done(StopReason::Converged)));
    }
    assert_identical(&a, &s.finish());
}

/// A PPCK v3 checkpoint committed as bytes, written by
/// `AlsSession::checkpoint_bytes` from `pause_inside_pp_regime_matches`'s
/// run paused after five sweeps (exact, exact, PP-init, two approximated):
/// inside the approximated regime, with a nonzero drift, a frozen
/// reference and pair operators. Resumed and run to the end, it must give
/// the uninterrupted run bit for bit — so the format and the regime's
/// state keep their meaning across changes to the code that reads them.
#[test]
fn committed_mid_regime_checkpoint_resumes_bitwise() {
    let t = noisy_rank(&[10, 9, 11], 3, 0.05, 7);
    let cfg = AlsConfig::new(3)
        .with_policy(TreePolicy::MultiSweep)
        .with_pp_tol(0.3)
        .with_max_sweeps(40)
        .with_tol(1e-9);
    let a = AlsSession::new(&t, &cfg, SessionKind::Pp).run();
    let bytes = include_bytes!("golden/pp_mid_regime.ppck");
    let (mut s, tag) = AlsSession::resume_from_bytes(bytes, &t).unwrap();
    assert_eq!(tag, 0x7070_6d69_6472_6567);
    assert_eq!(s.sweeps_done(), 5);
    while let Step::Swept(_) = s.step() {}
    let b = s.finish();
    assert_identical(&a, &b);
    // The final factors' digest, pinned when the fixture was written.
    let digest = b
        .factors
        .iter()
        .flat_map(|f| f.data())
        .fold(0u64, |d, x| (d ^ x.to_bits()).wrapping_mul(0x100_0000_01b3));
    assert_eq!(digest, 0x0bd6_1d8f_9046_6395);
}

/// `tests/golden/sparse_msdt_mid_run.ppck` holds a sparse `msdt` session
/// (`sparse_lowrank(&[18, 16, 14], 3, 0.06, 6)`, R 3, multi-sweep, tol 0,
/// 10 sweeps) paused after three exact sweeps, written by a build whose
/// sparse msdt ran the semi-sparse TTM chain: its cache holds that chain's
/// intermediates (representation tag 1) and its stats block the chain's
/// counters. Whatever the session runs on now, the file must keep
/// resuming: same tag, same three sweeps, then on to the cap.
#[test]
fn committed_sparse_msdt_checkpoint_resumes() {
    let sp = parallel_pp::datagen::sparse::sparse_lowrank(&[18, 16, 14], 3, 0.06, 6).0;
    let bytes = include_bytes!("golden/sparse_msdt_mid_run.ppck");
    let (mut s, tag) = AlsSession::resume_from_bytes_sparse(bytes, &sp).unwrap();
    assert_eq!(tag, 0x7370_6d73_6474_3033);
    assert_eq!(s.sweeps_done(), 3);
    assert_eq!(s.cache_memory_elems(), 0);
    let stored: Vec<_> = s
        .report()
        .sweeps
        .iter()
        .map(|r| (r.kind, r.fitness.to_bits()))
        .collect();
    let exact = parallel_pp::core::SweepKind::Exact;
    assert_eq!(
        stored,
        [
            (exact, 0x3faa_9c44_3f7a_b0f0),
            (exact, 0x3fb2_f534_9d44_8b78),
            (exact, 0x3fb6_3287_2786_8ea8),
        ]
    );
    while let Step::Swept(_) = s.step() {}
    let out = s.finish();
    assert_eq!(out.report.sweeps.len(), 10);
    assert!(out.report.sweeps.iter().all(|r| r.fitness.is_finite()));
}

/// Every match in `bytes` of a stats block whose ledger counts are `s`'s,
/// as the eight `u64` slots that follow the nine ledger fields (PPCK v3
/// keeps them, retired).
fn retired_stats_slots(bytes: &[u8], s: &KernelStats) -> Vec<[u64; 8]> {
    let key: Vec<u8> = [s.ttm_flops, s.mttv_flops, s.ttm_count, s.mttv_count]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    (0..bytes.len() - key.len())
        .filter(|&at| bytes[at..].starts_with(&key))
        .map(|at| std::array::from_fn(|i| word(at + key.len() + 8 * i)))
        .collect()
}

/// PPCK v3's stats block keeps eight retired `u64` slots after the kernel
/// ledger. A checkpoint written now holds zeros in all eight; the two
/// committed fixtures, written while some of those counters were live,
/// hold their values there, and resume (their kinds and fitness bits are
/// pinned by the two tests above) with the ledger they stored.
#[test]
fn ppck_retired_stats_slots_are_written_as_zeros_and_skipped() {
    let t = noisy_rank(&[10, 9, 11], 3, 0.05, 7);
    let cfg = AlsConfig::new(3)
        .with_policy(TreePolicy::MultiSweep)
        .with_pp_tol(0.3)
        .with_max_sweeps(40)
        .with_tol(1e-9);
    let sp = parallel_pp::datagen::sparse::sparse_lowrank(&[18, 16, 14], 3, 0.06, 6).0;
    let sparse_cfg = AlsConfig::new(3)
        .with_policy(TreePolicy::MultiSweep)
        .with_max_sweeps(10)
        .with_tol(0.0);

    let mut dense = AlsSession::new(&t, &cfg, SessionKind::Pp);
    let mut sparse = AlsSession::new_sparse(&sp, &sparse_cfg, SessionKind::Exact);
    for (s, sweeps) in [(&mut dense, 5), (&mut sparse, 3)] {
        for _ in 0..sweeps {
            let _ = s.step();
        }
        let bytes = s.checkpoint_bytes(1);
        assert_eq!(retired_stats_slots(&bytes, s.stats()), [[0; 8]]);
    }

    // The dense fixture's packed-GEMM slots read 17 820 flops in 3 calls
    // against the ledger's 29 700 in 5 TTMs: the PP-init's TTMs were
    // never sampled. The sparse one holds the semi-sparse chain's three.
    let dense_bytes: &[u8] = include_bytes!("golden/pp_mid_regime.ppck");
    let sparse_bytes: &[u8] = include_bytes!("golden/sparse_msdt_mid_run.ppck");
    let fixtures = [
        (
            dense_bytes,
            AlsSession::resume_from_bytes(dense_bytes, &t),
            ([29700, 10710, 5, 18], [17820, 0, 3, 0, 0, 0, 0, 0]),
        ),
        (
            sparse_bytes,
            AlsSession::resume_from_bytes_sparse(sparse_bytes, &sp),
            ([7140, 8796, 5, 9], [0, 0, 0, 0, 0, 7140, 8796, 2656]),
        ),
    ];
    for (bytes, resumed, (ledger, slots)) in fixtures {
        let (s, _) = resumed.unwrap();
        let st = s.stats();
        assert_eq!(
            [st.ttm_flops, st.mttv_flops, st.ttm_count, st.mttv_count],
            ledger
        );
        assert_eq!(retired_stats_slots(bytes, st), [slots]);
    }
}
