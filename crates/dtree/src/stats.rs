//! Per-kernel timing and flop ledger — the categories of the paper's
//! Fig. 3c–f time breakdown: TTM, mTTV, Hadamard, solve, and others. The
//! figure also has a transpose bucket (folded into mTTV); it has no
//! counterpart here, because every first-level contraction runs in place.
//!
//! This is the one flop count of a run. The kernels count nothing
//! themselves: each contraction is recorded once, by the code that runs
//! it, with the flops of its shape — a dense first-level TTM `2·len·R`, a
//! CSF MTTKRP `nnz·R·N`, a CSF pair walk `(N−1)·nnz·R` (Table I's TTM
//! column is `ttm_flops`).

use std::time::Duration;

/// Kernel categories for time breakdowns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// First-level tensor-times-matrix contractions.
    Ttm,
    /// Batched TTV contractions (all lower dimension-tree levels and PP
    /// first-order corrections).
    Mttv,
    /// Hadamard products (Γ chains and second-order PP corrections).
    Hadamard,
    /// Normal-equation solves.
    Solve,
    /// Everything else (residual updates, bookkeeping, collectives).
    Other,
}

impl Kernel {
    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Kernel::Ttm => "TTM",
            Kernel::Mttv => "mTTV",
            Kernel::Hadamard => "hadamard",
            Kernel::Solve => "solve",
            Kernel::Other => "others",
        }
    }
}

/// Accumulated seconds and flops per kernel category.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelStats {
    pub ttm_secs: f64,
    pub mttv_secs: f64,
    pub hadamard_secs: f64,
    pub solve_secs: f64,
    pub other_secs: f64,
    pub ttm_flops: u64,
    pub mttv_flops: u64,
    pub ttm_count: u64,
    pub mttv_count: u64,
}

impl KernelStats {
    /// Record elapsed time (and optional flops) for a category.
    pub fn record(&mut self, kernel: Kernel, elapsed: Duration, flops: u64) {
        let secs = elapsed.as_secs_f64();
        match kernel {
            Kernel::Ttm => {
                self.ttm_secs += secs;
                self.ttm_flops += flops;
                self.ttm_count += 1;
            }
            Kernel::Mttv => {
                self.mttv_secs += secs;
                self.mttv_flops += flops;
                self.mttv_count += 1;
            }
            Kernel::Hadamard => self.hadamard_secs += secs,
            Kernel::Solve => self.solve_secs += secs,
            Kernel::Other => self.other_secs += secs,
        }
    }

    /// Total seconds across all categories.
    pub fn total_secs(&self) -> f64 {
        self.ttm_secs + self.mttv_secs + self.hadamard_secs + self.solve_secs + self.other_secs
    }

    /// Component-wise sum.
    pub fn add(&mut self, other: &KernelStats) {
        self.ttm_secs += other.ttm_secs;
        self.mttv_secs += other.mttv_secs;
        self.hadamard_secs += other.hadamard_secs;
        self.solve_secs += other.solve_secs;
        self.other_secs += other.other_secs;
        self.ttm_flops += other.ttm_flops;
        self.mttv_flops += other.mttv_flops;
        self.ttm_count += other.ttm_count;
        self.mttv_count += other.mttv_count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_total() {
        let mut s = KernelStats::default();
        s.record(Kernel::Ttm, Duration::from_millis(100), 1000);
        s.record(Kernel::Mttv, Duration::from_millis(50), 500);
        s.record(Kernel::Solve, Duration::from_millis(25), 0);
        assert!((s.total_secs() - 0.175).abs() < 1e-9);
        assert_eq!(s.ttm_flops, 1000);
        assert_eq!(s.ttm_count, 1);
    }

    #[test]
    fn add_and_scale() {
        let mut a = KernelStats::default();
        a.record(Kernel::Hadamard, Duration::from_millis(10), 0);
        let mut b = KernelStats::default();
        b.record(Kernel::Hadamard, Duration::from_millis(30), 0);
        b.record(Kernel::Ttm, Duration::from_millis(5), 700);
        a.add(&b);
        assert!((a.hadamard_secs - 0.04).abs() < 1e-9);
        assert_eq!((a.ttm_flops, a.ttm_count), (700, 1));
        // Adding a ledger to a copy of itself scales every field by two.
        let mut doubled = a;
        doubled.add(&a);
        assert!((doubled.hadamard_secs - 0.08).abs() < 1e-9);
        assert!((doubled.total_secs() - 2.0 * a.total_secs()).abs() < 1e-9);
        assert_eq!((doubled.ttm_flops, doubled.ttm_count), (1400, 2));
    }
}
