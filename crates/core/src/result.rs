//! Run reports: per-sweep traces, sweep-kind counts, kernel breakdowns.

use pp_dtree::KernelStats;
use pp_tensor::Matrix;

/// The kind of work a recorded sweep performed (the categories of the
/// paper's Tables III and IV).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SweepKind {
    /// Exact ALS sweep through a dimension tree.
    Exact,
    /// PP initialization (operator construction).
    PpInit,
    /// PP approximated sweep.
    PpApprox,
}

impl SweepKind {
    pub fn label(&self) -> &'static str {
        match self {
            SweepKind::Exact => "ALS",
            SweepKind::PpInit => "PP-init",
            SweepKind::PpApprox => "PP-approx",
        }
    }
}

/// One sweep's record in the trace.
#[derive(Clone, Copy, Debug)]
pub struct SweepRecord {
    pub kind: SweepKind,
    /// Wall-clock seconds of this sweep.
    pub secs: f64,
    /// Fitness `1 − r` after this sweep. A PP initialization computes
    /// none and repeats the previous sweep's (NaN if it comes first).
    pub fitness: f64,
    /// Cumulative seconds since the run started.
    pub cumulative_secs: f64,
}

/// Aggregated report of one CP-ALS / PP-CP-ALS run.
#[derive(Clone, Debug, Default)]
pub struct AlsReport {
    /// Per-sweep trace in execution order.
    pub sweeps: Vec<SweepRecord>,
    /// Kernel time/flop breakdown summed over the run.
    pub stats: KernelStats,
    /// Fitness after the final sweep.
    pub final_fitness: f64,
    /// Whether the Δ stopping criterion was reached (vs. the sweep limit).
    pub converged: bool,
}

impl AlsReport {
    /// Number of sweeps of a given kind (Table III / IV columns).
    pub fn count(&self, kind: SweepKind) -> usize {
        self.sweeps.iter().filter(|s| s.kind == kind).count()
    }

    /// Total wall-clock seconds.
    pub fn total_secs(&self) -> f64 {
        self.sweeps.last().map_or(0.0, |s| s.cumulative_secs)
    }

    /// Time to first reach the given fitness, if ever reached.
    pub fn time_to_fitness(&self, target: f64) -> Option<f64> {
        self.sweeps
            .iter()
            .find(|s| s.fitness >= target)
            .map(|s| s.cumulative_secs)
    }
}

/// Output of a run: the factor matrices plus the report.
pub struct AlsOutput {
    /// Final factor matrices `A^(0..N)` (of a parallel run: gathered, the
    /// same on every rank).
    pub factors: Vec<Matrix>,
    /// Trace and statistics.
    pub report: AlsReport,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: SweepKind, secs: f64, fitness: f64, cum: f64) -> SweepRecord {
        SweepRecord {
            kind,
            secs,
            fitness,
            cumulative_secs: cum,
        }
    }

    #[test]
    fn counts_and_means() {
        let report = AlsReport {
            sweeps: vec![
                rec(SweepKind::Exact, 1.0, 0.5, 1.0),
                rec(SweepKind::PpInit, 0.5, 0.5, 1.5),
                rec(SweepKind::PpApprox, 0.1, 0.6, 1.6),
                rec(SweepKind::PpApprox, 0.3, 0.7, 1.9),
            ],
            ..Default::default()
        };
        assert_eq!(report.count(SweepKind::Exact), 1);
        assert_eq!(report.count(SweepKind::PpApprox), 2);
        assert_eq!(report.total_secs(), 1.9);
        assert_eq!(report.time_to_fitness(0.65), Some(1.9));
        assert_eq!(report.time_to_fitness(0.9), None);
    }
}
