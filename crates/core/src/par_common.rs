//! One rank's place on a processor grid, and the grid context the one
//! sweep body of [`crate::session`] runs against there: the same sweep as
//! the sequential session's, with Algorithm 3's collectives per mode
//! update (Reduce-Scatter, Gram All-Reduce, All-Gather) and Algorithm 4's
//! `dS` All-Reduces. [`crate::ParSession`] and the reference PP timings of
//! [`crate::ref_pp`] run over it.

use crate::config::{AlsConfig, SolveStrategy};
use crate::init::init_factors;
use crate::session::Grid;
use pp_comm::{Collectives, Communicator, RankCtx};
use pp_dtree::KernelStats;
use pp_grid::{DistFactor, DistTensor, FactorLayout, ProcGrid};
use pp_tensor::solve::solve_flops;
use pp_tensor::Matrix;
use std::borrow::Cow;

/// One rank's place on the processor grid: its mode-slice communicators
/// and its place in each distributed factor. The factor rows themselves
/// (the P blocks) are the block session's.
pub struct ParState {
    pub grid: ProcGrid,
    /// Mode-slice communicators, one per tensor mode.
    pub slices: Vec<Communicator>,
    /// This rank's place in each distributed factor.
    pub dist_factors: Vec<DistFactor>,
    /// Kernel flops already forwarded to the rank's cost ledger.
    flops_charged: u64,
}

impl ParState {
    /// Take this rank's place (Alg. 3 lines 1-6) and return it with this
    /// rank's initial P blocks. Every rank generates the same seeded global
    /// factors and takes its blocks, which is communication-free and
    /// bitwise consistent with the sequential init.
    pub fn init(
        ctx: &mut RankCtx,
        grid: &ProcGrid,
        local: &DistTensor,
        cfg: &AlsConfig,
    ) -> (Self, Vec<Matrix>) {
        let n_modes = grid.order();
        assert_eq!(local.global_shape().order(), n_modes);
        let coords = grid.coords_of(ctx.rank());
        let slices: Vec<_> = (0..n_modes)
            .map(|i| grid.slice_comm(&ctx.comm, i))
            .collect();
        let dist_factors: Vec<_> = (0..n_modes)
            .map(|i| {
                let layout = FactorLayout::new(local.global_shape().dim(i), grid, i, cfg.rank);
                DistFactor::new(layout, coords[i], slices[i].rank())
            })
            .collect();
        let globals = init_factors(local.global_shape().dims(), cfg.rank, cfg.seed);
        let p_blocks = (dist_factors.iter().zip(&globals))
            .map(|(f, g)| f.p_block(g))
            .collect();
        let st = ParState {
            grid: grid.clone(),
            slices,
            dist_factors,
            flops_charged: 0,
        };
        (st, p_blocks)
    }
}

/// The grid context of one rank's sweep: its world communicator and its
/// place on the grid. The local rows are P blocks, this rank's own rows
/// their Q rows.
pub(crate) struct OnGrid<'a> {
    pub(crate) ctx: &'a mut RankCtx,
    pub(crate) st: &'a mut ParState,
}

impl Grid for OnGrid<'_> {
    fn sum(&mut self, v: Vec<f64>) -> Vec<f64> {
        self.ctx.comm.all_reduce_sum(&v)
    }

    fn reduce_scatter(&mut self, n: usize, m: Matrix) -> Matrix {
        self.st.dist_factors[n].reduce_scatter_rows(&m, &self.st.slices[n])
    }

    fn own_rows<'a>(&self, n: usize, local: &'a Matrix) -> Cow<'a, Matrix> {
        Cow::Owned(self.st.dist_factors[n].q_rows(local))
    }

    fn commit(&mut self, n: usize, rows: Matrix) -> (Matrix, Matrix) {
        self.st.dist_factors[n].commit(rows, &self.ctx.comm, &self.st.slices[n])
    }

    fn solve_cost(&mut self, cfg: &AlsConfig, rows: usize) {
        let comm = &self.ctx.comm;
        let r = cfg.rank as u64;
        match cfg.solve {
            SolveStrategy::Distributed => {
                // ScaLAPACK-style: factorization work is spread over ranks.
                // Functionally each rank still solves its own rows (the
                // result is identical); the cost model reflects the shared
                // factorization plus the extra synchronization latency.
                comm.ledger()
                    .charge_flops(r * r * r / (3 * comm.size() as u64).max(1));
                comm.barrier();
            }
            // PLANC-style: every rank factorizes Γ redundantly.
            SolveStrategy::Replicated => comm.ledger().charge_flops(r * r * r / 3),
        }
        comm.ledger()
            .charge_flops(solve_flops(cfg.rank, rows) - r * r * r / 3);
    }

    fn barrier(&mut self) {
        self.ctx.comm.barrier();
    }

    fn charge(&mut self, stats: &KernelStats) {
        let total = stats.ttm_flops + stats.mttv_flops;
        self.ctx
            .comm
            .ledger()
            .charge_flops(total - self.st.flops_charged);
        self.st.flops_charged = total;
    }
}
