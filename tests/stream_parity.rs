//! End-to-end correctness of streaming CP (`StreamingSession`):
//!
//! * the incremental dimension-tree cache extension equals the
//!   full-recompute oracle **bitwise** over randomized arrival schedules
//!   (property-based), for the exact and PP session kinds, both tree
//!   policies, and the evolving mode at every position of a permuted
//!   time-lapse;
//! * streamed traces are bit-identical under a 1-thread and a 4-thread
//!   pool (the threshold-crossing slice sizes actually exercise the
//!   pooled kernels);
//! * a session parked to a `PPCK` checkpoint **mid-window, mid-stream**
//!   and resumed from disk replays the remaining arrivals bit-identically
//!   to an uninterrupted run.

use parallel_pp::core::checkpoint;
use parallel_pp::core::{AlsConfig, AlsOutput, SessionKind, StreamingSession};
use parallel_pp::datagen::timelapse::{TimelapseConfig, TimelapseStream, TIME_MODE};
use parallel_pp::dtree::{CacheUpdate, TreePolicy};
use parallel_pp::tensor::transpose::permute;
use parallel_pp::tensor::DenseTensor;
use proptest::prelude::*;

mod common;
use common::assert_identical;

/// Drive the whole arrival schedule under one cache-update policy.
fn drive(
    feed: &TimelapseStream,
    cfg: &AlsConfig,
    kind: SessionKind,
    spa: usize,
    update: CacheUpdate,
) -> AlsOutput {
    drive_along(feed, TIME_MODE, cfg, kind, spa, update)
}

/// A time-lapse piece with its time mode moved to position `e`.
fn time_at(t: &DenseTensor, e: usize) -> DenseTensor {
    let mut perm: Vec<usize> = (0..t.order()).filter(|&m| m != TIME_MODE).collect();
    perm.insert(e, TIME_MODE);
    permute(t, &perm)
}

/// [`drive`] over the feed permuted so that it evolves along mode `e`.
fn drive_along(
    feed: &TimelapseStream,
    e: usize,
    cfg: &AlsConfig,
    kind: SessionKind,
    spa: usize,
    update: CacheUpdate,
) -> AlsOutput {
    let mut s = StreamingSession::new(&time_at(&feed.initial(), e), cfg, kind, e, spa, update);
    s.run_window();
    for i in 0..feed.n_arrivals() {
        s.arrive(&time_at(&feed.slice(i), e));
        s.run_window();
    }
    s.finish()
}

/// The mid-size feed used by the thread- and checkpoint-parity tests:
/// large enough that mode-0/1/2 GEMMs cross the parallel-work threshold.
fn midsize_feed() -> TimelapseStream {
    let cfg = TimelapseConfig {
        height: 12,
        width: 10,
        bands: 8,
        times: 7,
        materials: 3,
        noise: 1e-3,
    };
    TimelapseStream::new(&cfg, 17, 3, 2).unwrap()
}

// Case counts tuned for the suite's < 60 s debug budget; each case is a
// handful of sweeps over a tiny order-4 tensor (~1 ms).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Incremental == recompute, bitwise, over random arrival schedules,
    /// with the evolving mode at any position. Rank 8 over a 6×6×4 frame
    /// keeps even a one-step slice's first-level GEMMs on the packed path
    /// (144·8 ≥ 2^10), so the multi-sweep arm — the one that consumes
    /// extended entries — compares the same kernel on slice and whole.
    #[test]
    fn incremental_matches_recompute_oracle(
        initial in 1usize..5,
        arrive in 1usize..4,
        n_arrivals in 1usize..4,
        spa in 1usize..4,
        pp in 0usize..2,
        msdt in 0usize..2,
        e in 0usize..4,
        seed in 0u64..1000,
    ) {
        let tcfg = TimelapseConfig {
            height: 6,
            width: 6,
            bands: 4,
            times: initial + arrive * n_arrivals,
            materials: 2,
            noise: 1e-2,
        };
        let feed = TimelapseStream::new(&tcfg, seed, initial, arrive).unwrap();
        let policy = if msdt == 1 { TreePolicy::MultiSweep } else { TreePolicy::Standard };
        let cfg = AlsConfig::new(8)
            .with_policy(policy)
            .with_tol(0.0)
            .with_pp_tol(0.3)
            .with_seed(seed ^ 0x9e37);
        let kind = if pp == 1 { SessionKind::Pp } else { SessionKind::Exact };
        let a = drive_along(&feed, e, &cfg, kind, spa, CacheUpdate::Incremental);
        let b = drive_along(&feed, e, &cfg, kind, spa, CacheUpdate::Recompute);
        prop_assert_eq!(a.report.sweeps.len(), b.report.sweeps.len());
        for (x, y) in a.report.sweeps.iter().zip(b.report.sweeps.iter()) {
            prop_assert_eq!(x.kind, y.kind);
            prop_assert_eq!(x.fitness.to_bits(), y.fitness.to_bits());
        }
        for (fa, fb) in a.factors.iter().zip(b.factors.iter()) {
            prop_assert_eq!(fa.data(), fb.data());
        }
    }
}

#[test]
fn streamed_trace_identical_under_1_and_n_threads() {
    let feed = midsize_feed();
    for kind in [SessionKind::Exact, SessionKind::Pp] {
        let run = |threads: usize| {
            let cfg = AlsConfig::new(8)
                .with_tol(0.0)
                .with_pp_tol(0.3)
                .with_threads(threads);
            drive(&feed, &cfg, kind, 3, CacheUpdate::Incremental)
        };
        assert_identical(&run(1), &run(4));
    }
}

#[test]
fn checkpoint_mid_stream_resumes_bit_identically() {
    let feed = midsize_feed();
    let cfg = AlsConfig::new(6).with_tol(0.0).with_pp_tol(0.3);
    let spa = 3;
    let full = drive(&feed, &cfg, SessionKind::Pp, spa, CacheUpdate::Incremental);

    // Interrupted twin: park to disk mid-window after the first arrival,
    // drop everything, resume from the file, replay the rest.
    let path = std::env::temp_dir().join(format!("pp-stream-parity-{}.ppck", std::process::id()));
    let tag = 0xfeed_beef;
    {
        let mut s = StreamingSession::new(
            &feed.initial(),
            &cfg,
            SessionKind::Pp,
            TIME_MODE,
            spa,
            CacheUpdate::Incremental,
        );
        s.run_window();
        s.arrive(&feed.slice(0));
        s.step(); // window half-done: 1 of 3 sweeps
        checkpoint::write_file(&path, &s.checkpoint_bytes(tag)).unwrap();
    }
    let bytes = checkpoint::read_file(&path).unwrap();
    let (mut s, read_tag) =
        StreamingSession::resume_from_bytes(&bytes, |extent| feed.prefix(extent)).unwrap();
    assert_eq!(read_tag, tag);
    assert_eq!(s.arrivals_done(), 1);
    s.run_window();
    for i in s.arrivals_done()..feed.n_arrivals() {
        s.arrive(&feed.slice(i));
        s.run_window();
    }
    assert_identical(&full, &s.finish());

    // A truncated file must be refused cleanly, not panic or half-resume.
    let err = StreamingSession::resume_from_bytes(&bytes[..bytes.len() / 2], |e| feed.prefix(e))
        .err()
        .unwrap();
    assert!(
        err.contains("truncated") || err.contains("length mismatch"),
        "{err}"
    );
    let _ = std::fs::remove_file(&path);
}

/// Incremental == recompute, bitwise, where the input and every cached
/// first-level intermediate are their own huge-page mappings, so each
/// arrival grows them by moving pages (`pp_tensor`'s store) rather than by
/// copying: a 16×16×16 frame at rank 16 (every first-level contraction is
/// as large as the input), 64 initial steps (2 MiB, the size rule) and
/// three arrivals of 32, so the input's capacity doubles twice
/// (64 → 128 → 256 steps) and every arrival extends a mapped intermediate.
#[test]
fn incremental_matches_recompute_at_mapped_sizes() {
    /// `MAP_MIN_BYTES` of `pp_tensor`'s store: from here up a store is a
    /// mapping of its own.
    const MAP_MIN_BYTES: usize = 2 << 20;
    let (frame, rank, initial, arrive, n_arrivals) = ([16, 16, 16], 16, 64, 32, 3);
    let frame_elems: usize = frame.iter().product();
    let tcfg = TimelapseConfig {
        height: frame[0],
        width: frame[1],
        bands: frame[2],
        times: initial + arrive * n_arrivals,
        materials: 3,
        noise: 1e-3,
    };
    // The input and the smallest first-level intermediate start mapped...
    let input_bytes = initial * frame_elems * std::mem::size_of::<f64>();
    assert!(input_bytes >= MAP_MIN_BYTES);
    let smallest_first_level = input_bytes / frame.iter().max().unwrap() * rank;
    assert!(smallest_first_level >= MAP_MIN_BYTES);
    // ...and the input outgrows its capacity twice (each move doubles it).
    assert!(initial + arrive <= 2 * initial && tcfg.times > 2 * initial);
    // TTM flops the incremental arm saves by extending one first-level
    // intermediate at every arrival instead of recontracting it.
    let one_per_arrival: u64 = (0..n_arrivals)
        .map(|i| (2 * (initial + i * arrive) * frame_elems * rank) as u64)
        .sum();
    let feed = TimelapseStream::new(&tcfg, 4242, initial, arrive).unwrap();
    for kind in [SessionKind::Exact, SessionKind::Pp] {
        let cfg = AlsConfig::new(rank)
            .with_policy(TreePolicy::MultiSweep)
            .with_tol(0.0)
            .with_pp_tol(0.3);
        let a = drive(&feed, &cfg, kind, 2, CacheUpdate::Incremental);
        let b = drive(&feed, &cfg, kind, 2, CacheUpdate::Recompute);
        assert_identical(&a, &b);
        let saved = b.report.stats.ttm_flops - a.report.stats.ttm_flops;
        assert!(
            saved >= one_per_arrival,
            "{kind:?}: the cache was extended for {saved} of {one_per_arrival} flops"
        );
    }
}
