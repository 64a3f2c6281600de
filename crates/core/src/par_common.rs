//! Shared per-rank state and update steps of the parallel algorithms
//! (Algorithms 3 and 4 of the paper): [`crate::ParSession`] and the
//! reference PP timings of [`crate::ref_pp`] run over it.

use crate::config::{AlsConfig, SolveStrategy};
use crate::fitness::fitness_from_residual;
use crate::init::init_factors;
use pp_comm::{Collectives, RankCtx};
use pp_dtree::{DimTreeEngine, FactorState, InputTensor, Kernel};
use pp_grid::{DistFactor, DistTensor, FactorLayout, ProcGrid};
use pp_tensor::matrix::hadamard_chain_skip;
use pp_tensor::solve::{solve_flops, solve_gram};
use pp_tensor::Matrix;
use std::time::Instant;

/// Everything one rank holds while running parallel CP-ALS.
pub struct ParState {
    pub grid: ProcGrid,
    /// Mode-slice communicators, one per tensor mode.
    pub slices: Vec<pp_comm::Communicator>,
    /// Per-mode factor layouts.
    pub layouts: Vec<FactorLayout>,
    /// Distributed factors (Q + P blocks).
    pub dist_factors: Vec<DistFactor>,
    /// Local factor state (P blocks) driving the local dimension tree.
    pub fs_local: FactorState,
    /// Replicated Gram matrices `S^(i)`.
    pub grams: Vec<Matrix>,
    /// Local dimension-tree engine.
    pub engine: DimTreeEngine,
    /// Local tensor block, in its one layout for either tree.
    pub input: InputTensor,
    /// Global `‖T‖²_F`.
    pub t_norm_sq: f64,
    /// This rank's cost ledger (shared with the communicator); local
    /// kernel flops are charged here so modeled times cover computation.
    ledger: pp_comm::CostLedger,
    /// Kernel flops already forwarded to the ledger.
    flops_charged: u64,
}

impl ParState {
    /// Initialize the SPMD state (Alg. 3 lines 1-9). Every rank generates
    /// the same seeded global factors and takes its blocks, which is
    /// communication-free and bitwise consistent with the sequential init.
    pub fn init(ctx: &mut RankCtx, grid: &ProcGrid, local: &DistTensor, cfg: &AlsConfig) -> Self {
        let n_modes = grid.order();
        assert_eq!(local.global_shape().order(), n_modes);
        let coords = grid.coords_of(ctx.rank());

        let slices: Vec<_> = (0..n_modes)
            .map(|i| grid.slice_comm(&ctx.comm, i))
            .collect();
        let layouts: Vec<FactorLayout> = (0..n_modes)
            .map(|i| FactorLayout::new(local.global_shape().dim(i), grid, i, cfg.rank))
            .collect();

        let globals = init_factors(local.global_shape().dims(), cfg.rank, cfg.seed);
        let dist_factors: Vec<DistFactor> = (0..n_modes)
            .map(|i| DistFactor::from_global(&globals[i], layouts[i], coords[i], slices[i].rank()))
            .collect();

        let fs_local = FactorState::new(dist_factors.iter().map(|f| f.p().clone()).collect());
        let grams: Vec<Matrix> = dist_factors
            .iter()
            .map(|f| f.gram_allreduce(&ctx.comm))
            .collect();

        let input = InputTensor::new(local.local().clone());
        let engine = DimTreeEngine::new(cfg.policy, n_modes);

        let t_norm_sq = ctx.comm.all_reduce_sum(&[local.local().norm_sq()])[0];

        ParState {
            grid: grid.clone(),
            slices,
            layouts,
            dist_factors,
            fs_local,
            grams,
            engine,
            input,
            t_norm_sq,
            ledger: ctx.comm.ledger().clone(),
            flops_charged: 0,
        }
    }

    /// Forward any engine kernel flops not yet charged to the rank ledger.
    pub fn sync_ledger_flops(&mut self) {
        let total = self.engine.stats.ttm_flops + self.engine.stats.mttv_flops;
        if total < self.flops_charged {
            // The engine stats were drained (take_stats); restart the watermark.
            self.flops_charged = 0;
        }
        if total > self.flops_charged {
            self.ledger.charge_flops(total - self.flops_charged);
            self.flops_charged = total;
        }
    }

    /// Tensor order.
    pub fn n_modes(&self) -> usize {
        self.layouts.len()
    }

    /// One exact factor update (Alg. 3 lines 12-18) for mode `n`.
    /// Returns `(Γ^(n), M^(n) Q-rows)` for the residual formula.
    pub fn update_mode_exact(
        &mut self,
        ctx: &mut RankCtx,
        cfg: &AlsConfig,
        n: usize,
    ) -> (Matrix, Matrix) {
        let h0 = Instant::now();
        let gamma = hadamard_chain_skip(&self.grams, n);
        self.engine.stats.record(Kernel::Hadamard, h0.elapsed(), 0);

        // Local MTTKRP through the dimension tree (no communication).
        let m_local = self.engine.mttkrp(&mut self.input, &self.fs_local, n);

        // Sum over the mode slice, scatter Q rows (line 14).
        let c0 = Instant::now();
        let m_q = self.dist_factors[n].reduce_scatter_rows(&m_local, &self.slices[n]);
        self.engine.stats.record(Kernel::Other, c0.elapsed(), 0);

        let q_new = self.solve(ctx, cfg, &gamma, &m_q);
        self.commit_update(ctx, n, q_new);
        self.sync_ledger_flops();
        (gamma, m_q)
    }

    /// Solve `A_q = M_q Γ†` under the configured strategy.
    pub fn solve(
        &mut self,
        ctx: &mut RankCtx,
        cfg: &AlsConfig,
        gamma: &Matrix,
        m_q: &Matrix,
    ) -> Matrix {
        let s0 = Instant::now();
        let r = cfg.rank as u64;
        match cfg.solve {
            SolveStrategy::Distributed => {
                // ScaLAPACK-style: factorization work is spread over ranks.
                // Functionally each rank still solves its own rows (the
                // result is identical); the cost model reflects the shared
                // factorization plus the extra synchronization latency.
                ctx.comm
                    .ledger()
                    .charge_flops(r * r * r / (3 * ctx.size() as u64).max(1));
                ctx.comm.barrier();
            }
            SolveStrategy::Replicated => {
                // PLANC-style: every rank factorizes Γ redundantly.
                ctx.comm.ledger().charge_flops(r * r * r / 3);
            }
        }
        ctx.comm
            .ledger()
            .charge_flops(solve_flops(cfg.rank, m_q.rows()) - r * r * r / 3);
        let (q_new, _) = solve_gram(gamma, m_q);
        self.engine.stats.record(Kernel::Solve, s0.elapsed(), 0);
        q_new
    }

    /// Install a new Q block for mode `n`: refresh Gram (All-Reduce),
    /// refresh the P block (slice All-Gather), bump the local factor state.
    pub fn commit_update(&mut self, ctx: &mut RankCtx, n: usize, q_new: Matrix) {
        let c0 = Instant::now();
        self.dist_factors[n].set_q(q_new);
        self.grams[n] = self.dist_factors[n].gram_allreduce(&ctx.comm);
        self.dist_factors[n].refresh_p(&self.slices[n]);
        self.engine.stats.record(Kernel::Other, c0.elapsed(), 0);
        self.fs_local.update(n, self.dist_factors[n].p().clone());
    }

    /// Fitness after the last mode of a sweep, via Eq. (3) with the
    /// distributed inner product `⟨M^(N), A^(N)⟩` (one scalar All-Reduce).
    pub fn fitness(&self, ctx: &mut RankCtx, gamma_last: &Matrix, m_q_last: &Matrix) -> f64 {
        let n = self.n_modes() - 1;
        let local_cross = m_q_last.inner(self.dist_factors[n].q());
        let cross = ctx.comm.all_reduce_sum(&[local_cross])[0];
        let model_norm_sq = gamma_last.inner(&self.grams[n]);
        let resid_sq = (self.t_norm_sq + model_norm_sq - 2.0 * cross).max(0.0);
        let r = (resid_sq / self.t_norm_sq.max(1e-300)).sqrt();
        fitness_from_residual(r)
    }

    /// Gather the global factor matrices (diagnostic / final output).
    pub fn gather_factors(&self, ctx: &mut RankCtx) -> Vec<Matrix> {
        (0..self.n_modes())
            .map(|n| self.dist_factors[n].gather_global(&ctx.comm, &self.grid, n))
            .collect()
    }
}
