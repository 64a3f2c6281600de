//! Configuration for the CP-ALS drivers.

use pp_dtree::TreePolicy;

/// How the `R × R` normal-equation solves are carried out (paper §II-E).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveStrategy {
    /// This paper's choice: rows of `M^(n)` stay distributed and the solve
    /// work is spread across ranks (ScaLAPACK-style) — lower flops and
    /// bandwidth per rank, one extra synchronization of latency.
    Distributed,
    /// PLANC's choice: every rank redundantly factorizes Γ and solves its
    /// own rows (no extra communication, replicated `R³/3` work).
    Replicated,
}

/// Parameters for a CP-ALS / PP-CP-ALS run.
#[derive(Clone, Debug)]
pub struct AlsConfig {
    /// CP rank `R`.
    pub rank: usize,
    /// Stopping criterion Δ: stop when the fitness change between
    /// consecutive sweeps drops below this.
    pub tol: f64,
    /// Hard sweep limit (paper: 300).
    pub max_sweeps: usize,
    /// Dimension-tree policy for exact sweeps.
    pub policy: TreePolicy,
    /// Solve strategy.
    pub solve: SolveStrategy,
    /// PP tolerance ε: PP sweeps run while `‖dA^(i)‖F < ε‖A^(i)‖F` for all
    /// modes (paper: 0.2 synthetic, 0.1 application tensors).
    pub pp_tol: f64,
    /// RNG seed for the factor initialization.
    pub seed: u64,
    /// Intra-rank thread count for the persistent kernel pool (the paper's
    /// OpenMP/MKL threads per rank). `None` follows `PP_NUM_THREADS` / the
    /// hardware; `Some(n)` pins the pool width for the duration of the run.
    /// Results are bit-identical for any value — this is a pure
    /// performance knob.
    ///
    /// Contract: the pin is a *scoped* override of the stepping thread's
    /// width ([`rayon::scoped_num_threads`]) released when the driver
    /// returns, including on panic. Nested runs compose (innermost pin
    /// wins, outer pin restored), and runs on different threads never see
    /// each other's pins: every rank of a simulated parallel run, or two
    /// sessions stepped at once at different widths, runs at its own.
    pub threads: Option<usize>,
}

impl AlsConfig {
    /// Pin the pool width for this run; released (restoring the previous
    /// effective width) when the driver returns. See
    /// [`AlsConfig::threads`] for the nesting/concurrency contract.
    pub(crate) fn thread_guard(&self) -> Option<rayon::ThreadGuard> {
        self.threads.map(rayon::scoped_num_threads)
    }
}

impl AlsConfig {
    /// Reasonable defaults at the given rank: Δ = 1e-5, 300 sweeps, MSDT
    /// off (standard DT), distributed solve, ε = 0.1.
    pub fn new(rank: usize) -> Self {
        AlsConfig {
            rank,
            tol: 1e-5,
            max_sweeps: 300,
            policy: TreePolicy::Standard,
            solve: SolveStrategy::Distributed,
            pp_tol: 0.1,
            seed: 42,
            threads: None,
        }
    }

    /// Builder-style setters.
    pub fn with_policy(mut self, p: TreePolicy) -> Self {
        self.policy = p;
        self
    }

    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    pub fn with_max_sweeps(mut self, n: usize) -> Self {
        self.max_sweeps = n;
        self
    }

    pub fn with_pp_tol(mut self, eps: f64) -> Self {
        self.pp_tol = eps;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_solve(mut self, s: SolveStrategy) -> Self {
        self.solve = s;
        self
    }

    pub fn with_threads(mut self, n: usize) -> Self {
        assert!(n > 0, "thread count must be non-zero");
        self.threads = Some(n);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let c = AlsConfig::new(8)
            .with_policy(TreePolicy::MultiSweep)
            .with_tol(1e-4)
            .with_max_sweeps(50)
            .with_pp_tol(0.2)
            .with_seed(7)
            .with_solve(SolveStrategy::Replicated)
            .with_threads(3);
        assert_eq!(c.rank, 8);
        assert_eq!(c.threads, Some(3));
        assert_eq!(c.policy, TreePolicy::MultiSweep);
        assert_eq!(c.max_sweeps, 50);
        assert_eq!(c.solve, SolveStrategy::Replicated);
        assert_eq!(c.seed, 7);
        assert!((c.pp_tol - 0.2).abs() < 1e-15);
    }
}
