//! Algorithm 3, parallel CP-ALS, end to end: a `ParSession` per rank in
//! `ParKind::Exact`, run in lockstep, must trace the sequential session.

mod tests {
    use crate::config::SolveStrategy;
    use crate::{AlsConfig, AlsOutput, AlsSession, ParKind, ParSession, SessionKind, SweepKind};
    use pp_comm::{Backend, Collectives, Runtime};
    use pp_datagen::collinearity::{collinearity_tensor, CollinearityConfig};
    use pp_datagen::lowrank::noisy_rank;
    use pp_dtree::TreePolicy;
    use pp_grid::{DistTensor, FactorLayout, ProcGrid};
    use pp_tensor::Matrix;
    use std::sync::Arc;

    fn run_parallel(
        dims: &[usize],
        grid_dims: &[usize],
        cfg: AlsConfig,
        seed: u64,
    ) -> (AlsOutput, AlsOutput) {
        let t = Arc::new(noisy_rank(dims, cfg.rank, 0.1, seed));
        let seq = AlsSession::new(&t, &cfg, SessionKind::Exact).run();

        let grid = ProcGrid::new(grid_dims.to_vec());
        let p = grid.size();
        let cfg2 = cfg.clone();
        let t2 = t.clone();
        let grid2 = grid.clone();
        let out = Runtime::from_env(p).run(move |ctx| {
            let local = DistTensor::from_global(&t2, &grid2, ctx.rank());
            ParSession::new(ctx, &grid2, &local, &cfg2, ParKind::Exact).run(ctx)
        });
        let mut results = out.results;
        (seq, results.remove(0))
    }

    #[test]
    fn matches_sequential_order3() {
        let cfg = AlsConfig::new(3).with_max_sweeps(8).with_tol(0.0);
        let (seq, par) = run_parallel(&[6, 7, 5], &[2, 2, 1], cfg, 3);
        assert_eq!(seq.report.sweeps.len(), par.report.sweeps.len());
        for (a, b) in seq.report.sweeps.iter().zip(par.report.sweeps.iter()) {
            assert!(
                (a.fitness - b.fitness).abs() < 1e-8,
                "seq {} vs par {}",
                a.fitness,
                b.fitness
            );
        }
        for (fa, fb) in seq.factors.iter().zip(par.factors.iter()) {
            assert!(fa.max_abs_diff(fb) < 1e-6);
        }
    }

    #[test]
    fn matches_sequential_order4() {
        let cfg = AlsConfig::new(2).with_max_sweeps(6).with_tol(0.0);
        let (seq, par) = run_parallel(&[4, 5, 4, 3], &[2, 1, 2, 1], cfg, 7);
        for (a, b) in seq.report.sweeps.iter().zip(par.report.sweeps.iter()) {
            assert!((a.fitness - b.fitness).abs() < 1e-8);
        }
    }

    #[test]
    fn msdt_parallel_matches_sequential() {
        let cfg = AlsConfig::new(2)
            .with_max_sweeps(7)
            .with_tol(0.0)
            .with_policy(TreePolicy::MultiSweep);
        let (seq, par) = run_parallel(&[6, 5, 7], &[1, 2, 2], cfg, 11);
        for (a, b) in seq.report.sweeps.iter().zip(par.report.sweeps.iter()) {
            assert!((a.fitness - b.fitness).abs() < 1e-8);
        }
    }

    #[test]
    fn padded_grids_are_correct() {
        // Mode sizes that do not divide the grid extents: padding paths.
        let cfg = AlsConfig::new(2).with_max_sweeps(5).with_tol(0.0);
        let (seq, par) = run_parallel(&[7, 5, 9], &[2, 2, 2], cfg, 13);
        for (a, b) in seq.report.sweeps.iter().zip(par.report.sweeps.iter()) {
            assert!(
                (a.fitness - b.fitness).abs() < 1e-8,
                "seq {} vs par {}",
                a.fitness,
                b.fitness
            );
        }
    }

    #[test]
    fn replicated_solve_same_results() {
        let cfg = AlsConfig::new(2)
            .with_max_sweeps(5)
            .with_tol(0.0)
            .with_solve(SolveStrategy::Replicated);
        let (seq, par) = run_parallel(&[6, 6, 6], &[2, 1, 2], cfg, 17);
        for (a, b) in seq.report.sweeps.iter().zip(par.report.sweeps.iter()) {
            assert!((a.fitness - b.fitness).abs() < 1e-8);
        }
    }

    /// A one-rank `ParSession` is the sequential session, bit for bit: the
    /// sweep kinds, every fitness bit, every factor element and the four
    /// kernel-ledger counts, for DT, DT with the replicated solve, MSDT and
    /// PP, at orders 3 and 4, at pool widths 1 and 4, on both backends.
    #[test]
    fn one_rank_par_session_is_the_sequential_session() {
        let tensors = [(14, 3), (8, 4)].map(|(s, order)| {
            let ccfg = CollinearityConfig {
                s,
                r: 4,
                order,
                lo: 0.5,
                hi: 0.7,
            };
            Arc::new(collinearity_tensor(&ccfg, 3).0)
        });
        let dt = AlsConfig::new(4).with_max_sweeps(30).with_tol(0.0);
        let msdt = dt.clone().with_policy(TreePolicy::MultiSweep);
        let cases = [
            (dt.clone(), SessionKind::Exact, ParKind::Exact),
            (
                dt.clone().with_solve(SolveStrategy::Replicated),
                SessionKind::Exact,
                ParKind::Exact,
            ),
            (msdt.clone(), SessionKind::Exact, ParKind::Exact),
            (msdt.with_pp_tol(0.3), SessionKind::Pp, ParKind::Pp),
        ];
        for t in &tensors {
            let grid = ProcGrid::new(vec![1; t.order()]);
            for (cfg, kind, par_kind) in &cases {
                for threads in [1, 4] {
                    let cfg = cfg.clone().with_threads(threads);
                    let seq = AlsSession::new(t, &cfg, *kind).run();
                    if *kind == SessionKind::Pp {
                        assert!(seq.report.count(SweepKind::PpApprox) > 0);
                    }
                    for backend in [Backend::Rendezvous, Backend::P2p] {
                        let label =
                            format!("{kind:?} {:?} width {threads} {backend:?}", cfg.policy);
                        let (t, grid, cfg, kind) =
                            (t.clone(), grid.clone(), cfg.clone(), *par_kind);
                        let par = Runtime::with_backend(1, backend)
                            .run(move |ctx| {
                                let local = DistTensor::from_global(&t, &grid, ctx.rank());
                                ParSession::new(ctx, &grid, &local, &cfg, kind).run(ctx)
                            })
                            .results
                            .remove(0);
                        assert_eq!(seq.report.sweeps.len(), par.report.sweeps.len(), "{label}");
                        for (a, b) in seq.report.sweeps.iter().zip(&par.report.sweeps) {
                            assert_eq!(a.kind, b.kind, "{label}");
                            assert_eq!(a.fitness.to_bits(), b.fitness.to_bits(), "{label}");
                        }
                        for (a, b) in seq.factors.iter().zip(&par.factors) {
                            assert_eq!(a.data(), b.data(), "{label}");
                        }
                        let ledger = |s: &pp_dtree::KernelStats| {
                            [s.ttm_flops, s.ttm_count, s.mttv_flops, s.mttv_count]
                        };
                        assert_eq!(
                            ledger(&seq.report.stats),
                            ledger(&par.report.stats),
                            "{label}"
                        );
                    }
                }
            }
        }
    }

    /// FNV-1a over 64-bit words.
    fn fnv(words: impl Iterator<Item = u64>) -> u64 {
        words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// `(factor digest, fitness digest)` per tensor, grid and kind, in the
    /// loop order of `leading_mode_grids_keep_their_digests`.
    const LEADING_MODE_DIGESTS: [(u64, u64); 12] = [
        (0x4a73_bc11_458a_6e3b, 0xb67b_6da3_1da7_dcbd), // 16^3 on 2x1.., dt
        (0x7112_53e5_95c6_34f1, 0xc818_8a5d_1360_d9b7), // 16^3 on 2x1.., msdt
        (0xf3ba_8385_52fa_3f44, 0xf89e_1182_6d51_1ff3), // 16^3 on 2x1.., pp
        (0xf524_9ae8_1b4d_cd39, 0x8dac_1970_ad54_c93a), // 16^3 on 4x1.., dt
        (0xcfbd_6bbe_0437_f6f5, 0xe6c3_1372_2783_073c), // 16^3 on 4x1.., msdt
        (0xa18d_aeff_3254_2709, 0xb856_35ef_e8d1_876c), // 16^3 on 4x1.., pp
        (0x6d47_edcd_9c5d_2b9b, 0x0858_d951_b666_721e), // 8^4 on 2x1.., dt
        (0xda24_e211_9d29_c32a, 0x37bf_afd7_eb9b_c03d), // 8^4 on 2x1.., msdt
        (0xc5b9_601f_4505_8caf, 0x79cb_8a77_3b92_0b68), // 8^4 on 2x1.., pp
        (0xd7a9_eb77_d7d8_a52d, 0x989a_6fd0_92f9_1213), // 8^4 on 4x1.., dt
        (0x64e6_0960_b07a_c84c, 0xf0c0_4031_2d1e_9420), // 8^4 on 4x1.., msdt
        (0x6d9a_91c6_f3f4_bfc9, 0xd4f5_36b1_3833_5809), // 8^4 on 4x1.., pp
    ];

    /// On P×1×1 grids without padding every block is one contiguous run of
    /// the global tensor. Pin what such runs compute — the factor bits and
    /// the fitness bits of rank 0 — for DT, MSDT and PP, on both backends,
    /// whether the global is placed on the store or an adopted `Vec`.
    #[test]
    fn leading_mode_grids_keep_their_digests() {
        let tensors = [(16, 3), (8, 4)].map(|(s, order)| {
            let ccfg = CollinearityConfig {
                s,
                r: 4,
                order,
                lo: 0.5,
                hi: 0.7,
            };
            collinearity_tensor(&ccfg, 5).0
        });
        let dt = AlsConfig::new(4).with_max_sweeps(16).with_tol(0.0);
        let msdt = dt.clone().with_policy(TreePolicy::MultiSweep);
        let kinds = [
            (dt, ParKind::Exact),
            (msdt.clone(), ParKind::Exact),
            (msdt.with_pp_tol(0.3), ParKind::Pp),
        ];
        let mut got = Vec::new();
        for t in &tensors {
            let adopted = pp_tensor::DenseTensor::from_vec(t.shape().clone(), t.data().to_vec());
            let globals = [Arc::new(t.clone()), Arc::new(adopted)];
            for p in [2, 4] {
                let mut dims = vec![1; t.order()];
                dims[0] = p;
                let grid = ProcGrid::new(dims);
                for (cfg, kind) in &kinds {
                    let mut digests = Vec::new();
                    for global in &globals {
                        for backend in [Backend::Rendezvous, Backend::P2p] {
                            let (t, grid, cfg, kind) =
                                (global.clone(), grid.clone(), cfg.clone(), *kind);
                            let out = Runtime::with_backend(p, backend)
                                .run(move |ctx| {
                                    let local = DistTensor::from_global(&t, &grid, ctx.rank());
                                    ParSession::new(ctx, &grid, &local, &cfg, kind).run(ctx)
                                })
                                .results
                                .remove(0);
                            if kind == ParKind::Pp {
                                assert!(out.report.count(SweepKind::PpApprox) > 0);
                            }
                            let factors = out
                                .factors
                                .iter()
                                .flat_map(|f| f.data().iter().map(|x| x.to_bits()));
                            let fitness = out.report.sweeps.iter().map(|s| s.fitness.to_bits());
                            digests.push((fnv(factors), fnv(fitness)));
                        }
                    }
                    assert!(digests.iter().all(|d| *d == digests[0]), "{digests:x?}");
                    got.push(digests[0]);
                }
            }
        }
        assert_eq!(got, LEADING_MODE_DIGESTS, "{got:#x?}");
    }

    /// `(factor digest, fitness digest)` of rank 0 per shape and kind, in
    /// the loop order of `padded_grids_keep_their_digests`.
    const PADDED_DIGESTS: [(u64, u64); 9] = [
        (0x9e9a_d85d_f726_46bd, 0xf475_df84_40ae_923a), // 7x5x9 on 2x2x2, dt
        (0xbe4c_afce_5375_a1f7, 0x50df_2763_35dd_2fd9), // 7x5x9 on 2x2x2, msdt
        (0xf52b_dc0b_be70_d84f, 0x0098_7427_ff15_8be9), // 7x5x9 on 2x2x2, pp
        (0x3d3d_bc9a_1b95_6f29, 0x956d_b70a_d240_1833), // 13x11x10 on 2x2x1, dt
        (0x9f75_a14c_0525_92fe, 0x914e_a1cb_d0ae_f0d4), // 13x11x10 on 2x2x1, msdt
        (0xc8fb_422e_791e_d014, 0x2bf5_6d8c_3b1b_5b08), // 13x11x10 on 2x2x1, pp
        (0xedee_6262_42c8_b139, 0xd924_a467_767c_8dd8), // 5x7x6x3 on 2x1x3x1, dt
        (0xa06d_6dfd_bf9c_7fd2, 0xf227_6967_031f_597b), // 5x7x6x3 on 2x1x3x1, msdt
        (0x9ba4_1e7e_fc18_a81c, 0x0efe_c04c_9f37_0e98), // 5x7x6x3 on 2x1x3x1, pp
    ];

    /// Rank 0's comm ledger `[messages, words, flops]` for the same runs.
    const PADDED_LEDGERS: [[u64; 3]; 9] = [
        [672, 2_280, 15_498],   // 7x5x9 on 2x2x2, dt
        [672, 2_280, 13_650],   // 7x5x9 on 2x2x2, msdt
        [1_458, 4_066, 11_510], // 7x5x9 on 2x2x2, pp
        [448, 3_144, 86_772],   // 13x11x10 on 2x2x1, dt
        [448, 3_144, 71_484],   // 13x11x10 on 2x2x1, msdt
        [972, 4_870, 42_053],   // 13x11x10 on 2x2x1, pp
        [894, 3_132, 33_581],   // 5x7x6x3 on 2x1x3x1, dt
        [894, 3_132, 30_779],   // 5x7x6x3 on 2x1x3x1, msdt
        [1_932, 5_492, 24_271], // 5x7x6x3 on 2x1x3x1, pp
    ];

    /// Padded grids, and grids with several ranks per slice, are checked
    /// against the sequential session only to 1e-8 above. Pin what they
    /// compute — rank 0's factor bits, fitness bits and comm ledger
    /// (messages, words, flops) — for DT, MSDT and PP on both backends.
    #[test]
    fn padded_grids_keep_their_digests() {
        let shapes: [(&[usize], &[usize]); 3] = [
            (&[7, 5, 9], &[2, 2, 2]),
            (&[13, 11, 10], &[2, 2, 1]),
            (&[5, 7, 6, 3], &[2, 1, 3, 1]),
        ];
        let dt = AlsConfig::new(3).with_max_sweeps(14).with_tol(0.0);
        let msdt = dt.clone().with_policy(TreePolicy::MultiSweep);
        let kinds = [
            (dt, ParKind::Exact),
            (msdt.clone(), ParKind::Exact),
            (msdt.with_pp_tol(0.5), ParKind::Pp),
        ];
        let mut got = Vec::new();
        for (dims, grid_dims) in shapes {
            let t = Arc::new(noisy_rank(dims, 3, 0.1, 56));
            let grid = ProcGrid::new(grid_dims.to_vec());
            for (cfg, kind) in &kinds {
                let mut digests = Vec::new();
                for backend in [Backend::Rendezvous, Backend::P2p] {
                    let (t, grid, cfg, kind) = (t.clone(), grid.clone(), cfg.clone(), *kind);
                    let mut run = Runtime::with_backend(grid.size(), backend).run(move |ctx| {
                        let local = DistTensor::from_global(&t, &grid, ctx.rank());
                        ParSession::new(ctx, &grid, &local, &cfg, kind).run(ctx)
                    });
                    let out = run.results.remove(0);
                    if kind == ParKind::Pp {
                        assert!(out.report.count(SweepKind::PpApprox) > 0);
                    }
                    let factors = out
                        .factors
                        .iter()
                        .flat_map(|f| f.data().iter().map(|x| x.to_bits()));
                    let fitness = out.report.sweeps.iter().map(|s| s.fitness.to_bits());
                    let ledger = run.costs[0];
                    digests.push((
                        (fnv(factors), fnv(fitness)),
                        [ledger.messages, ledger.comm_words, ledger.flops],
                    ));
                }
                assert!(digests.iter().all(|d| *d == digests[0]), "{digests:x?}");
                got.push(digests[0]);
            }
        }
        let (digests, ledgers): (Vec<_>, Vec<_>) = got.into_iter().unzip();
        assert_eq!(digests, PADDED_DIGESTS, "{digests:#x?}");
        assert_eq!(ledgers, PADDED_LEDGERS, "{ledgers:?}");
    }

    /// A rank keeps only its P blocks, and its Q rows are cut from them:
    /// on the padded 2×2×2 grid, after every step of DT and PP, the Q rows
    /// of every rank's `factors()`, gathered and placed by the Q layout,
    /// are exactly what `finish` then returns.
    #[test]
    fn q_rows_of_the_p_blocks_are_the_finished_factors() {
        let dims = [7, 5, 9];
        let t = Arc::new(noisy_rank(&dims, 3, 0.1, 56));
        let grid = ProcGrid::new(vec![2, 2, 2]);
        let dt = AlsConfig::new(3).with_max_sweeps(8).with_tol(0.0);
        let pp = dt
            .clone()
            .with_policy(TreePolicy::MultiSweep)
            .with_pp_tol(0.5);
        for (cfg, kind) in [(dt, ParKind::Exact), (pp, ParKind::Pp)] {
            for steps in 1..=cfg.max_sweeps {
                let (t, g, c) = (t.clone(), grid.clone(), cfg.clone());
                let (q_rows, out) = Runtime::from_env(g.size())
                    .run(move |ctx| {
                        let local = DistTensor::from_global(&t, &g, ctx.rank());
                        let mut s = ParSession::new(ctx, &g, &local, &c, kind);
                        for _ in 0..steps {
                            let _ = s.step(ctx);
                        }
                        let q_rows: Vec<_> = (s.st.dist_factors.iter().zip(s.factors()))
                            .map(|(f, p)| ctx.comm.all_gather_v(f.q_rows(p).data()))
                            .collect();
                        (q_rows, s.finish(ctx))
                    })
                    .results
                    .remove(0);
                if kind == ParKind::Pp && steps == cfg.max_sweeps {
                    assert!(out.report.count(SweepKind::PpApprox) > 0);
                }
                for (n, blocks) in q_rows.iter().enumerate() {
                    let layout = FactorLayout::new(dims[n], &grid, n, 3);
                    let mut placed = Matrix::from_fn(dims[n], 3, |_, _| f64::NAN);
                    for (rank, block) in blocks.iter().enumerate() {
                        let coord = grid.coords_of(rank)[n];
                        let members = grid.slice_members(n, rank);
                        let pos = members.iter().position(|&m| m == rank).unwrap();
                        for (l, row) in block.chunks(3).enumerate() {
                            if let Some(g) = layout.global_row(coord, pos, l) {
                                placed.row_mut(g).copy_from_slice(row);
                            } else {
                                assert!(row.iter().all(|&x| x == 0.0), "{kind:?} mode {n}");
                            }
                        }
                    }
                    assert_eq!(
                        placed, out.factors[n],
                        "{kind:?} after {steps} steps, mode {n}"
                    );
                }
            }
        }
    }
}
