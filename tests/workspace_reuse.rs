//! The engine-owned workspace, end to end: what a session draws it draws
//! again from what it returned, memory never passes what the session peaked
//! at anyway, and nothing stays out once the session is gone.
//!
//! Every assertion is on a count that repeats exactly
//! (`Workspace::stats()`), none on wall time. Sizes are chosen so the
//! first-level intermediates clear the 1 MiB bypass of release builds —
//! the suite means the same under `cargo test` and `cargo test --release`.
//! Bit-for-bit equality with and without recycled (in debug builds:
//! NaN-poisoned) buffers is what the golden, parity and checkpoint suites
//! already pin; this file pins the recycling itself.

use parallel_pp::core::{
    AlsConfig, AlsSession, SessionKind, Step, StreamingSession, SweepKind, SweepRecord,
};
use parallel_pp::datagen::collinearity::{collinearity_tensor, CollinearityConfig};
use parallel_pp::datagen::lowrank::noisy_rank;
use parallel_pp::datagen::sparse::sparse_lowrank;
use parallel_pp::datagen::timelapse::{TimelapseConfig, TimelapseStream, TIME_MODE};
use parallel_pp::dtree::{CacheUpdate, TreePolicy};
use parallel_pp::tensor::{DenseTensor, Workspace, WorkspaceStats};

mod common;
use common::assert_identical;

/// The memory bound, checked wherever a test looks at the counters.
fn assert_bounded(s: &WorkspaceStats) {
    assert!(
        s.live_elems + s.held_elems <= s.high_water_elems,
        "live + held passed the high-water mark: {s:?}"
    );
}

/// Step `session` to its budget; per sweep, the record and the draws and
/// misses it added, with the memory bound checked at every boundary.
fn sweep_misses(session: &mut AlsSession) -> Vec<(SweepRecord, u64, u64)> {
    let ws = session.workspace().clone();
    let mut seen = ws.stats();
    let mut out = Vec::new();
    while let Step::Swept(rec) = session.step() {
        let now = ws.stats();
        assert_bounded(&now);
        out.push((rec, now.draws - seen.draws, now.misses - seen.misses));
        seen = now;
    }
    out
}

/// 56⁴ collinear at a scale a debug build sweeps in a second: 24³·16
/// first levels (1.7 MiB), and on this seed the schedule the issue names —
/// exact ×4, init, approx ×2, exact, init, approx….
fn pp_case() -> (DenseTensor, AlsConfig) {
    let ccfg = CollinearityConfig {
        s: 24,
        r: 16,
        order: 4,
        lo: 0.6,
        hi: 0.8,
    };
    let cfg = AlsConfig::new(16)
        .with_policy(TreePolicy::MultiSweep)
        .with_pp_tol(0.2)
        .with_tol(0.0)
        .with_seed(7)
        .with_max_sweeps(10);
    (collinearity_tensor(&ccfg, 3).0, cfg)
}

#[test]
fn msdt_session_stops_missing_once_its_classes_are_warm() {
    // Order 3, 64³ at rank 32: every first-level output is exactly 1 MiB.
    let t = noisy_rank(&[64, 64, 64], 8, 0.05, 11);
    let cfg = AlsConfig::new(32)
        .with_policy(TreePolicy::MultiSweep)
        .with_max_sweeps(6)
        .with_tol(0.0);
    let mut session = AlsSession::new(&t, &cfg, SessionKind::Exact);
    let ws = session.workspace().clone();
    assert_eq!(ws.stats(), WorkspaceStats::default(), "nothing at set-up");
    let sweeps = sweep_misses(&mut session);
    assert_eq!(sweeps.len(), 6);
    let s = ws.stats();
    // MSDT at order 3: three TTMs per two sweeps, every one drawn.
    assert!(s.draws >= 9, "{s:?}");
    assert!(
        s.misses as usize <= s.high_water_bufs,
        "a draw missed below the high-water mark: {s:?}"
    );
    let late: u64 = sweeps[4..].iter().map(|(_, _, m)| m).sum();
    assert_eq!(late, 0, "misses per sweep {sweeps:?}");
    let out = session.finish();
    assert_eq!(out.report.sweeps.len(), 6);
    assert_eq!(ws.stats().live_elems, 0, "finish returned everything");
}

#[test]
fn pp_second_init_finds_the_first_inits_buffers() {
    // One pool thread: the N anchor mTTVs of an init are drawn from one
    // class, and how many are out at once is otherwise up to the pool.
    let (t, cfg) = pp_case();
    let mut session = AlsSession::new(&t, &cfg.with_threads(1), SessionKind::Pp);
    let ws = session.workspace().clone();
    let sweeps = sweep_misses(&mut session);
    let kinds: Vec<SweepKind> = sweeps.iter().map(|(r, _, _)| r.kind).collect();
    let inits: Vec<usize> = (0..kinds.len())
        .filter(|&i| kinds[i] == SweepKind::PpInit)
        .collect();
    assert!(inits.len() >= 2, "schedule lost its second init: {kinds:?}");
    let between = &kinds[inits[0] + 1..inits[1]];
    assert!(
        between.contains(&SweepKind::PpApprox) && between.contains(&SweepKind::Exact),
        "want init → approx → exact → init, got {kinds:?}"
    );
    // The first init draws from the pool — in release builds only its
    // first-level TTMs, which land in the buffer the exact sweeps' root
    // went back to — and the second finds everything the first drew.
    let (first, second) = (&sweeps[inits[0]], &sweeps[inits[1]]);
    assert!(first.1 > 0, "the first init drew nothing from the pool");
    assert_eq!(second.2, 0, "draws and misses per sweep: {sweeps:?}");
    let s = ws.stats();
    assert!(s.misses as usize <= s.high_water_bufs, "{s:?}");
    drop(session.finish());
    assert_eq!(ws.stats().live_elems, 0, "operators and cache went home");
}

#[test]
fn nothing_stays_out_after_a_session_ends_short_of_its_budget() {
    let t = noisy_rank(&[64, 64, 64], 8, 0.05, 13);
    let cfg = AlsConfig::new(32)
        .with_policy(TreePolicy::MultiSweep)
        .with_max_sweeps(6)
        .with_tol(0.0);

    // Finished early.
    let mut session = AlsSession::new(&t, &cfg, SessionKind::Exact);
    let ws = session.workspace().clone();
    for _ in 0..3 {
        assert!(matches!(session.step(), Step::Swept(_)));
    }
    assert!(ws.stats().live_elems > 0, "a live session holds its cache");
    drop(session.finish());
    assert_eq!(ws.stats().live_elems, 0);

    // Dropped instead: same.
    let mut session = AlsSession::new(&t, &cfg, SessionKind::Exact);
    let ws = session.workspace().clone();
    for _ in 0..3 {
        assert!(matches!(session.step(), Step::Swept(_)));
    }
    drop(session);
    assert_eq!(ws.stats().live_elems, 0);
}

#[test]
fn a_resumed_session_starts_with_an_empty_workspace() {
    let (t, cfg) = pp_case();
    let whole = AlsSession::new(&t, &cfg, SessionKind::Pp).run();
    // Cut inside the first approximated regime (sweeps: E E E E I A | A …).
    let mut session = AlsSession::new(&t, &cfg, SessionKind::Pp);
    for _ in 0..6 {
        assert!(matches!(session.step(), Step::Swept(_)));
    }
    assert_eq!(session.report().sweeps[5].kind, SweepKind::PpApprox);
    let bytes = session.checkpoint_bytes(9);
    let parked = session.workspace().stats();
    assert!(parked.draws > 0 && parked.live_elems + parked.held_elems > 0);
    drop(session);

    let (mut resumed, tag) = AlsSession::resume_from_bytes(&bytes, &t).expect("resume");
    assert_eq!(tag, 9);
    assert_eq!(resumed.workspace().stats(), WorkspaceStats::default());
    while let Step::Swept(_) = resumed.step() {}
    assert!(resumed.workspace().stats().draws > 0);
    assert_identical(&whole, &resumed.finish());
}

#[test]
fn a_growing_input_gives_up_its_pool_at_the_first_arrival() {
    // Every intermediate that keeps the evolving mode changes length with
    // each arrival, so an exact-length pool has nothing for it: the first
    // window is pooled like any session's, and from the first arrival on
    // nothing is drawn, nothing is held, and nothing that contains the
    // evolving extent can be left behind.
    let tl = TimelapseConfig {
        height: 64,
        width: 64,
        bands: 16,
        times: 14,
        materials: 6,
        noise: 0.01,
    };
    let feed = TimelapseStream::new(&tl, 5, 8, 3).expect("schedule");
    let cfg = AlsConfig::new(16)
        .with_policy(TreePolicy::MultiSweep)
        .with_tol(0.0);
    let mut s = StreamingSession::new(
        &feed.initial(),
        &cfg,
        SessionKind::Exact,
        TIME_MODE,
        2,
        CacheUpdate::Incremental,
    );
    let first_window: Workspace = s.session().workspace().clone();
    s.run_window();
    let warm = first_window.stats();
    assert_bounded(&warm);
    // 64·64·8·16 first levels: pooled in release builds too.
    assert!(warm.draws > 0 && warm.live_elems > 0, "{warm:?}");
    // What is held is charged to the tenant (the admission metric).
    assert!(s.cache_memory_elems() >= warm.held_elems);

    for i in 0..feed.n_arrivals() {
        s.arrive(&feed.slice(i));
        s.run_window();
        assert_eq!(s.session().workspace().stats(), WorkspaceStats::default());
    }
    // The first window's buffers: extended entries left the pool as they
    // grew, evicted ones came back to it (this test's handle keeps it
    // alive; without one they are freed), none is still out.
    assert_eq!(first_window.stats().draws, warm.draws);
    assert_eq!(first_window.stats().live_elems, 0);
    drop(s.finish());
}

#[test]
fn the_direct_csf_path_never_touches_the_workspace() {
    let (sp, _) = sparse_lowrank(&[96, 96, 64], 8, 0.01, 17);
    let cfg = AlsConfig::new(8)
        .with_policy(TreePolicy::Standard)
        .with_max_sweeps(3)
        .with_tol(0.0);
    let mut session = AlsSession::new_sparse(&sp, &cfg, SessionKind::Exact);
    while let Step::Swept(_) = session.step() {}
    assert_eq!(session.workspace().stats(), WorkspaceStats::default());
    assert_eq!(session.cache_memory_elems(), 0);
}

/// A cubic collinear tensor of order `order` whose PP sessions open the
/// gate within the budget: 64³ at rank 32 and 24⁴ at rank 16, so every
/// first-level intermediate (s^{N−1}·R doubles) clears the 1 MiB bypass.
fn live_peak_case(order: usize) -> (DenseTensor, usize, usize) {
    let (s, r) = if order == 3 { (64, 32) } else { (24, 16) };
    let ccfg = CollinearityConfig {
        s,
        r,
        order,
        lo: 0.6,
        hi: 0.8,
    };
    (collinearity_tensor(&ccfg, 3).0, s, r)
}

#[test]
fn one_first_level_intermediate_is_live_at_a_time() {
    // A first-level intermediate is dropped once no read can use it: at
    // the first MTTKRP that passes its subtree by, and after a PP
    // initialization, once its pairs are built. So the first-level class
    // never has two buffers out — except at order 3, where the roots are
    // the pair operators: the regime holds them until the next PP
    // initialization replaces them, beside one exact sweep's root between
    // regimes.
    for order in [3usize, 4] {
        let (t, s, r) = live_peak_case(order);
        let first_level = s.pow(order as u32 - 1) * r;
        let n_pairs = order * (order - 1) / 2;
        for (policy, kind) in [
            (TreePolicy::Standard, SessionKind::Exact),
            (TreePolicy::MultiSweep, SessionKind::Exact),
            (TreePolicy::MultiSweep, SessionKind::Pp),
            (TreePolicy::Standard, SessionKind::Pp),
        ] {
            let label = format!("order {order}, {policy:?}, {kind:?}");
            let cfg = AlsConfig::new(r)
                .with_policy(policy)
                .with_pp_tol(0.2)
                .with_tol(0.0)
                .with_seed(7)
                .with_max_sweeps(10);
            let mut session = AlsSession::new(&t, &cfg, kind);
            let ws = session.workspace().clone();
            let mut kinds = Vec::new();
            while let Step::Swept(rec) = session.step() {
                assert_bounded(&ws.stats());
                kinds.push(rec.kind);
                let roots_are_pairs = order == 3 && kinds.contains(&SweepKind::PpInit);
                let peak = if roots_are_pairs {
                    n_pairs..=n_pairs + 1
                } else {
                    1..=1
                };
                let high = ws.class_high_water(first_level);
                assert!(peak.contains(&high), "{label}: {high} after {kinds:?}");
                if rec.kind == SweepKind::PpInit {
                    // What the build leaves cached is the pair operators.
                    let cache = session.cache();
                    assert!(
                        cache.entries_sorted().iter().all(|e| e.set().len() == 2),
                        "{label}: an (N-1)-set outlived the build"
                    );
                    assert_eq!(cache.memory_elems(), n_pairs * s * s * r, "{label}");
                }
            }
            if kind == SessionKind::Pp {
                assert!(kinds.contains(&SweepKind::PpInit), "{label}: {kinds:?}");
            }
            drop(session.finish());
            assert_eq!(ws.stats().live_elems, 0, "{label}");
        }
    }
}
