//! Session-level cross-check of the measured communication ledger against
//! the closed-form Table I model (`pp_comm::model::sweep_cost`).
//!
//! `crates/comm/tests/collective_costs.rs` pins each collective's ledger
//! to its §II-E closed form; this suite closes the remaining gap: the
//! *composition* of collectives a real parallel sweep issues must agree
//! with the per-sweep Table I formulas up to the leading-order constants
//! the table drops. Concretely, for exact parallel ALS at small `P`:
//!
//! * measured messages per sweep = `c₁ · N log₂ P` and measured words per
//!   sweep = `c₂ · N s R / P^{1/N}` with **constants bounded and stable
//!   across P** — if an implementation change added a collective per mode
//!   or started shipping operator-sized payloads, the ratio would jump and
//!   this suite fails;
//! * the PP-approx sweep's horizontal communication stays within a
//!   constant factor of the exact sweep's (the core claim behind
//!   Algorithm 4: approximated steps do **not** add communication).
//!
//! `paper_table1_comm_counts_per_sweep_kind` pins the same column exactly:
//! each sweep kind's ledger messages and words on two grids.

use parallel_pp::comm::model::{sweep_cost, Method};
use parallel_pp::comm::{CostCounters, RankCtx, Runtime};
use parallel_pp::core::ref_pp::{ref_pp_approx_correction, ref_pp_init};
use parallel_pp::core::{AlsConfig, ParKind, ParSession, SweepKind};
use parallel_pp::datagen::collinearity::{collinearity_tensor, CollinearityConfig};
use parallel_pp::datagen::lowrank::noisy_rank;
use parallel_pp::dtree::correct::first_order_correction;
use parallel_pp::dtree::TreePolicy;
use parallel_pp::grid::{DistTensor, ProcGrid};
use parallel_pp::tensor::DenseTensor;
use std::sync::Arc;

const S: usize = 16;
const R: usize = 4;
const N: usize = 3;

/// Rank-0 ledger for an exact parallel run of `sweeps` sweeps.
fn measure_exact(p: usize, grid_dims: Vec<usize>, sweeps: usize) -> CostCounters {
    let t = Arc::new(noisy_rank(&[S; N], R, 0.1, 5));
    let cfg = AlsConfig::new(R).with_max_sweeps(sweeps).with_tol(0.0);
    let grid = ProcGrid::new(grid_dims);
    let out = Runtime::new(p).run(move |ctx| {
        let local = DistTensor::from_global(&t, &grid, ctx.rank());
        let _ = ParSession::new(ctx, &grid, &local, &cfg, ParKind::Exact).run(ctx);
    });
    out.costs[0]
}

/// Steady-state per-sweep ledger: difference of a long and a short run
/// divided by the extra sweeps, cancelling init/gather costs.
fn per_sweep_exact(p: usize, grid_dims: Vec<usize>) -> (f64, f64) {
    let (s1, s2) = (2usize, 6usize);
    let a = measure_exact(p, grid_dims.clone(), s1);
    let b = measure_exact(p, grid_dims, s2);
    let d = (s2 - s1) as f64;
    (
        (b.messages - a.messages) as f64 / d,
        (b.comm_words - a.comm_words) as f64 / d,
    )
}

#[test]
fn exact_sweep_ledger_tracks_table1_scaling() {
    let cases: [(usize, Vec<usize>); 3] =
        [(2, vec![2, 1, 1]), (4, vec![2, 2, 1]), (8, vec![2, 2, 2])];
    let mut msg_ratios = Vec::new();
    let mut word_ratios = Vec::new();
    for (p, grid) in cases {
        let (msgs, words) = per_sweep_exact(p, grid);
        let model = sweep_cost(Method::Dt, N, S as f64, R as f64, p as f64);
        let mr = msgs / model.h_messages;
        let wr = words / model.h_words;
        // Leading-order constants: one exact update issues a handful of
        // collectives per mode (Reduce-Scatter, Gram All-Reduce, P-block
        // All-Gather, solve barrier) against the table's single N log P
        // term, so the constant sits in the low single digits.
        assert!((1.0..=12.0).contains(&mr), "P={p}: message ratio {mr}");
        assert!((0.05..=20.0).contains(&wr), "P={p}: word ratio {wr}");
        msg_ratios.push(mr);
        word_ratios.push(wr);
    }
    // The constants must be *stable* across P — that is what makes the
    // Table I expression the right asymptotic form.
    for ratios in [&msg_ratios, &word_ratios] {
        let (lo, hi) = ratios
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(l, h), &r| (l.min(r), h.max(r)));
        assert!(
            hi / lo <= 3.0,
            "ratio drifts with P: {ratios:?} (model scaling violated)"
        );
    }
}

#[test]
fn pp_approx_sweeps_add_no_asymptotic_communication() {
    // Table I: PP-approx h_words = N s R / P^{1/N} — identical to the
    // exact sweep's. Measure a parallel PP run that reaches the regime and
    // charge-compare its per-sweep-kind ledgers.
    let ccfg = CollinearityConfig {
        s: 12,
        r: 3,
        order: 3,
        lo: 0.5,
        hi: 0.7,
    };
    let (t, _, _) = collinearity_tensor(&ccfg, 3);
    let t = Arc::new(t);
    let base = AlsConfig::new(3)
        .with_policy(TreePolicy::MultiSweep)
        .with_pp_tol(0.3)
        .with_tol(1e-12);
    let grid = ProcGrid::new(vec![2, 2, 1]);

    // Two runs: up to just before the first approx sweep, and through a
    // few approx sweeps, so the delta isolates approx-sweep communication.
    let probe = {
        let (t2, g2, c2) = (t.clone(), grid.clone(), base.clone().with_max_sweeps(30));
        Runtime::new(4)
            .run(move |ctx| {
                let local = DistTensor::from_global(&t2, &g2, ctx.rank());
                ParSession::new(ctx, &g2, &local, &c2, ParKind::Pp)
                    .run(ctx)
                    .report
            })
            .results
            .remove(0)
    };
    let kinds: Vec<SweepKind> = probe.sweeps.iter().map(|s| s.kind).collect();
    let first_init = kinds.iter().position(|&k| k == SweepKind::PpInit);
    let Some(first_init) = first_init else {
        panic!("PP regime must activate for this cross-check");
    };
    let approx_after: usize = kinds[first_init + 1..]
        .iter()
        .take_while(|&&k| k == SweepKind::PpApprox)
        .count();
    assert!(approx_after >= 2, "need ≥ 2 consecutive approx sweeps");

    let measure = |sweeps: usize| -> CostCounters {
        let (t2, g2, c2) = (
            t.clone(),
            grid.clone(),
            base.clone().with_max_sweeps(sweeps),
        );
        Runtime::new(4)
            .run(move |ctx| {
                let local = DistTensor::from_global(&t2, &g2, ctx.rank());
                let _ = ParSession::new(ctx, &g2, &local, &c2, ParKind::Pp).run(ctx);
            })
            .costs[0]
    };
    // Per exact sweep (before the regime): sweeps 1..first_init.
    let e1 = measure(1);
    let e2 = measure(first_init);
    let exact_words = (e2.comm_words - e1.comm_words) as f64 / (first_init - 1).max(1) as f64;
    // Per approx sweep: the +1 skips the PpInit sweep itself.
    let a1 = measure(first_init + 1);
    let a2 = measure(first_init + 1 + approx_after);
    let approx_words = (a2.comm_words - a1.comm_words) as f64 / approx_after as f64;

    let model_exact = sweep_cost(Method::Msdt, 3, 12.0, 3.0, 4.0);
    let model_approx = sweep_cost(Method::PpApprox, 3, 12.0, 3.0, 4.0);
    assert_eq!(
        model_exact.h_words, model_approx.h_words,
        "Table I asserts identical leading-order horizontal words"
    );
    let ratio = approx_words / exact_words.max(1.0);
    assert!(
        (0.2..=5.0).contains(&ratio),
        "approx sweeps changed communication asymptotics: {approx_words} vs {exact_words} words/sweep"
    );
}

/// Rank 0's ledger messages for one PP initialization and for each of two
/// approximated sweeps, built either as Algorithm 4 does (local
/// operators, locally summed corrections) or as the Cyclops-style
/// reference does (`ref_pp`). Each mode's MTTKRP then goes through the
/// same Reduce-Scatter.
fn pp_messages(grid_dims: &[usize], reference: bool) -> (u64, Vec<u64>) {
    let grid = ProcGrid::new(grid_dims.to_vec());
    let dims: Vec<usize> = grid_dims.iter().map(|g| 3 * g).collect();
    let t = Arc::new(noisy_rank(&dims, 3, 0.05, 17));
    let cfg = AlsConfig::new(3)
        .with_policy(TreePolicy::MultiSweep)
        .with_tol(0.0);
    let messages = |ctx: &RankCtx| ctx.comm.ledger().snapshot().messages;
    let out = Runtime::from_env(grid.size()).run(move |ctx| {
        let local = DistTensor::from_global(&t, &grid, ctx.rank());
        let mut s = ParSession::new(ctx, &grid, &local, &cfg, ParKind::Exact);
        let n_modes = s.factors().len();
        let _ = s.step(ctx);
        let before = messages(ctx);
        let ops = if reference {
            ref_pp_init(ctx, &mut s)
        } else {
            s.build_pp_operators()
        };
        let init = messages(ctx) - before;
        let p_p = s.factors().to_vec();
        let mut approx = Vec::new();
        for _ in 0..2 {
            // Move every factor, so each correction has a drift to act on.
            let _ = s.step(ctx);
            let before = messages(ctx);
            let st = &s.st;
            for n in 0..n_modes {
                let m_local = if reference {
                    ref_pp_approx_correction(ctx, &s, &ops, &p_p, n)
                } else {
                    let mut m = ops.firsts[n].clone();
                    for (i, p_ref) in p_p.iter().enumerate().filter(|&(i, _)| i != n) {
                        let d_p = s.factors()[i].sub(p_ref);
                        m.axpy(1.0, &first_order_correction(&ops, n, i, &d_p));
                    }
                    m
                };
                let _ = st.dist_factors[n].reduce_scatter_rows(&m_local, &st.slices[n]);
            }
            approx.push(messages(ctx) - before);
        }
        (init, approx)
    });
    out.results.into_iter().next().unwrap()
}

#[test]
fn paper_table2_pp_approx_sends_fewer_messages_than_the_reference() {
    // Table II's gap, counted on the comm ledger (a collective on a group
    // of p ranks charges ⌈log₂ max(p, 2)⌉ messages, an All-Reduce twice
    // that). An approximated sweep of Algorithm 4 sends one Reduce-Scatter
    // per mode over its slice; the reference adds a world All-Reduce per
    // correction, N(N − 1) per sweep. Algorithm 4 builds its operators
    // without communicating; the reference gathers every factor and
    // redistributes each of its N(N − 1)/2 pair and N first-level
    // operators with an All-to-All.
    let cases: [(&[usize], [u64; 3]); 3] = [
        // grid, [reference init, Algorithm 4 approx, reference approx]
        (&[2, 1, 2], [18, 4, 28]),
        (&[2, 2, 2], [27, 6, 42]),
        (&[1, 2, 2, 2], [42, 9, 81]),
    ];
    for (grid, [ref_init, ours_approx, ref_approx]) in cases {
        let ours = pp_messages(grid, false);
        let theirs = pp_messages(grid, true);
        println!(
            "Table II, grid {grid:?}: messages at init {} vs reference {}, per approximated sweep {:?} vs reference {:?}",
            ours.0, theirs.0, ours.1, theirs.1
        );
        assert_eq!(ours, (0, vec![ours_approx; 2]), "grid {grid:?}");
        assert_eq!(theirs, (ref_init, vec![ref_approx; 2]), "grid {grid:?}");
        assert!(ours.0 < theirs.0 && ours_approx < ref_approx);
    }
}

/// Rank 0's ledger and sweep kinds after a `kind` run of `cfg.max_sweeps`
/// sweeps on `grid_dims`. Set-up and the final gather cost the same at any
/// budget, so the difference of two budgets is the extra sweeps' traffic.
fn measure_run(
    t: &Arc<DenseTensor>,
    grid_dims: &[usize],
    cfg: &AlsConfig,
    kind: ParKind,
) -> (Vec<SweepKind>, CostCounters) {
    let (t, grid, cfg) = (t.clone(), ProcGrid::new(grid_dims.to_vec()), cfg.clone());
    let out = Runtime::new(grid.size()).run(move |ctx| {
        let local = DistTensor::from_global(&t, &grid, ctx.rank());
        let report = ParSession::new(ctx, &grid, &local, &cfg, kind)
            .run(ctx)
            .report;
        report.sweeps.iter().map(|s| s.kind).collect::<Vec<_>>()
    });
    (out.results[0].clone(), out.costs[0])
}

/// Rank 0's (messages, words) in sweep `k` of a `kind` run.
fn sweep_traffic(
    t: &Arc<DenseTensor>,
    grid_dims: &[usize],
    cfg: &AlsConfig,
    kind: ParKind,
    k: usize,
) -> (u64, u64) {
    let run = |sweeps| measure_run(t, grid_dims, &cfg.clone().with_max_sweeps(sweeps), kind).1;
    let (a, b) = (run(k), run(k + 1));
    (b.messages - a.messages, b.comm_words - a.comm_words)
}

#[test]
fn paper_table1_comm_counts_per_sweep_kind() {
    // Table I's communication column as exact per-sweep counts on rank 0's
    // ledger (a collective over p ranks charges ⌈log₂ max(p, 2)⌉ messages,
    // an All-Reduce twice that; a Reduce-Scatter or All-Gather charges its
    // whole buffer in words, an All-Reduce twice its payload). The R = 3
    // runs below, on P = 4 with world log 2:
    //
    // * exact sweep, per mode: Reduce-Scatter and All-Gather of the padded
    //   P rows over the mode slice, one R² Gram All-Reduce, the solve
    //   barrier; then one scalar fitness All-Reduce. DT and MSDT issue the
    //   same collectives: MSDT changes only the local contractions (§IV).
    // * a PP session's exact sweep adds one 2-scalar drift All-Reduce per
    //   mode (Alg. 4's gate).
    // * PP-init: one barrier, no words — the operators are built locally.
    // * PP-approx, per mode: the exact sweep's collectives plus N R²
    //   All-Reduces of the dS matrices (Eq. 8), then the fitness and the
    //   drift All-Reduces.
    //
    // On 2×2×1 (s 12): exact 8 + 8 + 10 messages + 4 = 30; words 54 + 54 +
    // 90 + 2 = 200. PP exact + 3·(4, 4). Approx messages 20 + 20 + 22 + 4
    // + 12 = 78, words 108 + 108 + 144 + 2 + 12 = 374.
    // On 2×1×2×1 (s 8): exact 8 + 10 + 8 + 10 + 4 = 40 messages, 42 + 66 +
    // 42 + 66 + 2 = 218 words. PP exact + 4·(4, 4). Approx 36 + 4·16 + 4 +
    // 16 = 120 messages, 216 + 4·72 + 2 + 16 = 522 words.
    type Counts = (u64, u64);
    let cases: [(&[usize], usize, usize, [Counts; 4]); 2] = [
        // grid, order, s, [exact (DT = MSDT), PP exact, PP-init, PP-approx]
        (&[2, 2, 1], 3, 12, [(30, 200), (42, 212), (2, 0), (78, 374)]),
        (
            &[2, 1, 2, 1],
            4,
            8,
            [(40, 218), (56, 234), (2, 0), (120, 522)],
        ),
    ];
    for (grid, order, s, [exact, pp_exact, pp_init, pp_approx]) in cases {
        let ccfg = CollinearityConfig {
            s,
            r: 3,
            order,
            lo: 0.5,
            hi: 0.7,
        };
        let t = Arc::new(collinearity_tensor(&ccfg, 3).0);
        let dt = AlsConfig::new(3).with_tol(1e-12);
        let msdt = dt.clone().with_policy(TreePolicy::MultiSweep);
        let pp = msdt.clone().with_pp_tol(0.3);
        let (kinds, _) = measure_run(&t, grid, &pp.clone().with_max_sweeps(30), ParKind::Pp);
        let init = kinds
            .iter()
            .position(|&k| k == SweepKind::PpInit)
            .expect("PP regime must activate for this cross-check");
        assert_eq!(kinds[init + 1], SweepKind::PpApprox, "grid {grid:?}");
        let got_dt = sweep_traffic(&t, grid, &dt, ParKind::Exact, 1);
        let got_msdt = sweep_traffic(&t, grid, &msdt, ParKind::Exact, 1);
        let got = [
            got_dt,
            sweep_traffic(&t, grid, &pp, ParKind::Pp, 0),
            sweep_traffic(&t, grid, &pp, ParKind::Pp, init),
            sweep_traffic(&t, grid, &pp, ParKind::Pp, init + 1),
        ];
        println!(
            "Table I comm, grid {grid:?}: (messages, words) per sweep: DT {got_dt:?}, MSDT {got_msdt:?}, PP exact {:?}, PP-init {:?}, PP-approx {:?}",
            got[1], got[2], got[3]
        );
        assert_eq!(
            got_dt, got_msdt,
            "grid {grid:?}: MSDT changes no communication"
        );
        assert_eq!(got, [exact, pp_exact, pp_init, pp_approx], "grid {grid:?}");
    }
}

#[test]
fn paper_kernel_flops_reach_the_rank_ledger_in_their_sweep() {
    // Every sweep forwards its kernel flops (the `KernelStats` TTM and mTTV
    // counts) to the rank's cost ledger before it returns, so each sweep
    // kind's ledger flops are its kernels' plus the solves and the
    // All-Reduce sums. On 2×2×1 (s 12, R 3, ε 0.3), rank 0: a PP-init
    // charges its pair-operator TTMs alone; an approximated sweep charges
    // 355 flops of solves and sums beside its first-order corrections,
    // half of which run in the first sweep after the init (the other
    // modes' drift is still zero). An exact sweep charges its TTMs and
    // 274 flops of solves and sums.
    let ccfg = CollinearityConfig {
        s: 12,
        r: 3,
        order: 3,
        lo: 0.5,
        hi: 0.7,
    };
    let t = Arc::new(collinearity_tensor(&ccfg, 3).0);
    let grid = ProcGrid::new(vec![2, 2, 1]);
    let cfg = AlsConfig::new(3)
        .with_policy(TreePolicy::MultiSweep)
        .with_pp_tol(0.3)
        .with_tol(1e-12);
    // Rank 0's sweep kinds, ledger flops and kernel flops after `sweeps`.
    let run = |sweeps: usize| {
        let (t, grid, cfg) = (t.clone(), grid.clone(), cfg.clone().with_max_sweeps(sweeps));
        let mut out = Runtime::new(grid.size()).run(move |ctx| {
            let local = DistTensor::from_global(&t, &grid, ctx.rank());
            ParSession::new(ctx, &grid, &local, &cfg, ParKind::Pp)
                .run(ctx)
                .report
        });
        let report = out.results.remove(0);
        let kinds: Vec<SweepKind> = report.sweeps.iter().map(|s| s.kind).collect();
        let kernel = report.stats.ttm_flops + report.stats.mttv_flops;
        (kinds, out.costs[0].flops, kernel)
    };
    let (kinds, _, _) = run(30);
    let init = kinds
        .iter()
        .position(|&k| k == SweepKind::PpInit)
        .expect("PP regime must activate for this cross-check");
    assert_eq!(kinds[init - 1], SweepKind::Exact);
    assert_eq!(kinds[init + 1..init + 3], [SweepKind::PpApprox; 2]);
    // (ledger, kernel) flops of sweep k, for the exact sweep before the
    // init, the init and the two approximated sweeps after it.
    let delta = |k: usize| {
        let ((_, l0, k0), (_, l1, k1)) = (run(k), run(k + 1));
        (l1 - l0, k1 - k0)
    };
    let got = [init - 1, init, init + 1, init + 2].map(delta);
    println!(
        "rank-0 ledger flops per sweep (ledger, kernels): PP exact {:?}, PP-init {:?}, PP-approx {:?} then {:?}",
        got[0], got[1], got[2], got[3]
    );
    let [exact, pp_init, approx1, approx2] = got;
    assert_eq!(pp_init, (6048, 6048));
    assert_eq!(approx1, (355 + 1080, 1080));
    assert_eq!(approx2, (355 + 2160, 2160));
    assert_eq!(exact, (274 + 6048, 6048));
}
