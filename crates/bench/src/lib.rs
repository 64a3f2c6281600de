//! # pp-bench — harness shared by the figure/table reproduction binaries.
//!
//! Each evaluation artifact of the paper maps to one binary (see
//! DESIGN.md §3):
//!
//! * `table1` — analytic cost-model table;
//! * `fig3` — weak scaling + per-kernel breakdown (Fig. 3a–f);
//! * `table2` — PP kernels vs the Cyclops-style reference;
//! * `fig4` — PP speed-up vs collinearity (+ Table III);
//! * `fig5` — fitness-vs-time on application tensors (+ Table IV).
//!
//! Criterion micro-benchmarks live in `benches/`.

use pp_comm::{Collectives, CostModel, Runtime};
use pp_core::ref_pp::{time_pp_kernels, PpKernelTimes, PpVariant};
use pp_core::{AlsConfig, SolveStrategy};
use pp_dtree::{KernelStats, TreePolicy};
use pp_grid::{DistTensor, ProcGrid};
use pp_tensor::rng::seeded;
use pp_tensor::rng::uniform_tensor;
use pp_tensor::DenseTensor;
use std::sync::Arc;
use std::time::Instant;

/// Honor a `--threads <n>` flag (shared by every bench binary): installs
/// the process-wide *base* pool width (the bench process is single
/// purpose; library callers should prefer the scoped
/// `AlsConfig::threads`). Exits with status 2 on a malformed value.
/// Returns the effective thread count.
pub fn apply_threads_flag() -> usize {
    let argv: Vec<String> = std::env::args().collect();
    if let Some(i) = argv.iter().position(|a| a == "--threads") {
        match argv.get(i + 1).map(|v| v.parse::<usize>()) {
            Some(Ok(n)) if n > 0 => {
                rayon::set_num_threads(n);
            }
            _ => {
                eprintln!("error: --threads expects a positive integer");
                std::process::exit(2);
            }
        }
    }
    rayon::current_num_threads()
}

/// The per-sweep-time methods of Fig. 3's legend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fig3Method {
    Planc,
    Dt,
    Msdt,
    PpInit,
    PpApprox,
}

impl Fig3Method {
    pub fn label(&self) -> &'static str {
        match self {
            Fig3Method::Planc => "PLANC",
            Fig3Method::Dt => "DT",
            Fig3Method::Msdt => "MSDT",
            Fig3Method::PpInit => "PP-init",
            Fig3Method::PpApprox => "PP-approx",
        }
    }

    pub fn all() -> [Fig3Method; 5] {
        [
            Fig3Method::Planc,
            Fig3Method::Dt,
            Fig3Method::Msdt,
            Fig3Method::PpInit,
            Fig3Method::PpApprox,
        ]
    }
}

/// A weak-scaling measurement: per-sweep seconds plus kernel breakdown.
#[derive(Clone, Debug)]
pub struct SweepMeasurement {
    pub method: Fig3Method,
    pub grid: Vec<usize>,
    pub secs: f64,
    pub stats: KernelStats,
}

/// Synthetic weak-scaling tensor: mode `i` has size `s_local · grid[i]`.
pub fn weak_scaling_tensor(s_local: usize, grid: &ProcGrid, seed: u64) -> DenseTensor {
    let dims: Vec<usize> = (0..grid.order()).map(|i| s_local * grid.dim(i)).collect();
    let mut rng = seeded(seed);
    uniform_tensor(&dims, &mut rng)
}

/// Measure mean per-sweep time for one method on one grid (Fig. 3a/b).
pub fn measure_per_sweep(
    method: Fig3Method,
    grid_dims: &[usize],
    s_local: usize,
    rank: usize,
    sweeps: usize,
) -> SweepMeasurement {
    let grid = ProcGrid::new(grid_dims.to_vec());
    let t = Arc::new(weak_scaling_tensor(s_local, &grid, 7));
    let p = grid.size();

    let cfg = match method {
        Fig3Method::Planc => AlsConfig::new(rank)
            .with_policy(TreePolicy::Standard)
            .with_solve(SolveStrategy::Replicated),
        Fig3Method::Dt => AlsConfig::new(rank).with_policy(TreePolicy::Standard),
        Fig3Method::Msdt | Fig3Method::PpInit | Fig3Method::PpApprox => {
            AlsConfig::new(rank).with_policy(TreePolicy::MultiSweep)
        }
    }
    .with_max_sweeps(sweeps)
    .with_tol(0.0);

    match method {
        Fig3Method::Planc | Fig3Method::Dt | Fig3Method::Msdt => {
            let (t2, g2, c2) = (t.clone(), grid.clone(), cfg.clone());
            let out = Runtime::new(p).run(move |ctx| {
                let local = DistTensor::from_global(&t2, &g2, ctx.rank());
                // Warm-up sweep, then timed sweeps.
                let mut st = pp_core::par_common::ParState::init(ctx, &g2, &local, &c2);
                for n in 0..g2.order() {
                    let _ = st.update_mode_exact(ctx, &c2, n);
                }
                st.engine.take_stats();
                ctx.comm.barrier();
                let t0 = Instant::now();
                for _ in 0..c2.max_sweeps {
                    for n in 0..g2.order() {
                        let _ = st.update_mode_exact(ctx, &c2, n);
                    }
                }
                ctx.comm.barrier();
                let secs = t0.elapsed().as_secs_f64() / c2.max_sweeps as f64;
                (
                    secs,
                    st.engine.take_stats().scaled(1.0 / c2.max_sweeps as f64),
                )
            });
            let (secs, stats) = out.results.into_iter().next().unwrap();
            SweepMeasurement {
                method,
                grid: grid_dims.to_vec(),
                secs,
                stats,
            }
        }
        Fig3Method::PpInit | Fig3Method::PpApprox => {
            let (t2, g2, c2) = (t.clone(), grid.clone(), cfg.clone());
            let out = Runtime::new(p).run(move |ctx| {
                let local = DistTensor::from_global(&t2, &g2, ctx.rank());
                time_pp_kernels(ctx, &g2, &local, &c2, sweeps, PpVariant::Ours)
            });
            let times: PpKernelTimes = out.results[0];
            let secs = match method {
                Fig3Method::PpInit => times.init_secs,
                _ => times.approx_secs,
            };
            SweepMeasurement {
                method,
                grid: grid_dims.to_vec(),
                secs,
                stats: KernelStats::default(),
            }
        }
    }
}

/// The measured grid ladder for order-3 weak scaling (≤ the machine's
/// parallelism) and the full paper ladder for model extrapolation.
pub fn order3_grids_measured() -> Vec<Vec<usize>> {
    vec![
        vec![1, 1, 1],
        vec![1, 1, 2],
        vec![1, 2, 2],
        vec![2, 2, 2],
        vec![2, 2, 4],
    ]
}

pub fn order3_grids_paper() -> Vec<Vec<usize>> {
    vec![
        vec![1, 1, 1],
        vec![1, 1, 2],
        vec![1, 2, 2],
        vec![2, 2, 2],
        vec![2, 2, 4],
        vec![2, 4, 4],
        vec![4, 4, 4],
        vec![4, 4, 8],
        vec![4, 8, 8],
        vec![8, 8, 8],
        vec![8, 8, 16],
    ]
}

pub fn order4_grids_measured() -> Vec<Vec<usize>> {
    vec![
        vec![1, 1, 1, 1],
        vec![1, 1, 1, 2],
        vec![1, 1, 2, 2],
        vec![1, 2, 2, 2],
        vec![2, 2, 2, 2],
    ]
}

pub fn order4_grids_paper() -> Vec<Vec<usize>> {
    vec![
        vec![1, 1, 1, 1],
        vec![1, 1, 1, 2],
        vec![1, 1, 2, 2],
        vec![1, 2, 2, 2],
        vec![2, 2, 2, 2],
        vec![2, 2, 2, 4],
        vec![2, 2, 4, 4],
        vec![2, 4, 4, 4],
        vec![4, 4, 4, 4],
        vec![4, 4, 4, 8],
        vec![4, 4, 8, 8],
    ]
}

/// Modeled per-sweep time for a method at paper scale, using the Table I
/// formulas with the given machine model.
pub fn modeled_per_sweep(
    method: Fig3Method,
    grid_dims: &[usize],
    s_local: usize,
    rank: usize,
    model: &CostModel,
) -> f64 {
    let p: usize = grid_dims.iter().product();
    let n = grid_dims.len();
    // Equivalent equidimensional global size: geometric mean of the mode
    // sizes (exact for cubic grids; the paper's ladders are near-cubic).
    let s_geo: f64 = grid_dims
        .iter()
        .map(|&g| (s_local * g) as f64)
        .product::<f64>()
        .powf(1.0 / n as f64);
    let m = match method {
        Fig3Method::Planc | Fig3Method::Dt => pp_comm::Method::Dt,
        Fig3Method::Msdt => pp_comm::Method::Msdt,
        Fig3Method::PpInit => pp_comm::Method::PpInit,
        Fig3Method::PpApprox => pp_comm::Method::PpApprox,
    };
    pp_comm::sweep_cost(m, n, s_geo, rank as f64, p as f64).modeled_time(model)
}

/// Format a seconds value compactly.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:7.3} s")
    } else if s >= 1e-3 {
        format!("{:7.3} ms", s * 1e3)
    } else {
        format!("{:7.3} µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weak_scaling_tensor_dims() {
        let grid = ProcGrid::new(vec![2, 1, 4]);
        let t = weak_scaling_tensor(3, &grid, 1);
        assert_eq!(t.shape().dims(), &[6, 3, 12]);
    }

    #[test]
    fn measured_ladder_fits_machine() {
        for g in order3_grids_measured() {
            assert!(g.iter().product::<usize>() <= 16);
        }
        for g in order4_grids_measured() {
            assert!(g.iter().product::<usize>() <= 16);
        }
    }

    #[test]
    fn modeled_ordering_holds_at_paper_scale() {
        let m = CostModel::stampede2_like();
        let dt = modeled_per_sweep(Fig3Method::Dt, &[8, 8, 16], 400, 400, &m);
        let ms = modeled_per_sweep(Fig3Method::Msdt, &[8, 8, 16], 400, 400, &m);
        let pp = modeled_per_sweep(Fig3Method::PpApprox, &[8, 8, 16], 400, 400, &m);
        assert!(ms < dt && pp < ms, "dt={dt} ms={ms} pp={pp}");
    }
}
