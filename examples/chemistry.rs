//! Quantum-chemistry workload (paper Fig. 5b–d): CP-compress a synthetic
//! density-fitting Cholesky factor and compare DT, MSDT and PP.
//!
//! Run: `cargo run --release --example chemistry`

use parallel_pp::core::{AlsConfig, AlsSession, SessionKind, SweepKind};
use parallel_pp::datagen::chemistry::{density_fitting_tensor, ChemistryConfig};
use parallel_pp::dtree::TreePolicy;

fn main() {
    let cfg = ChemistryConfig {
        n_orb: 28,
        n_aux: 16 * 28,
        ..ChemistryConfig::default()
    };
    let t = density_fitting_tensor(&cfg, 7);
    println!(
        "density-fitting surrogate: {} (aux × orb × orb), ‖T‖ = {:.3e}",
        t.shape(),
        t.norm()
    );

    for rank in [12usize, 24] {
        println!("\n--- CP rank {rank} ---");
        let base = AlsConfig::new(rank)
            .with_tol(1e-5)
            .with_max_sweeps(80)
            .with_pp_tol(0.1);

        let run = |policy, kind| AlsSession::new(&t, &base.clone().with_policy(policy), kind).run();
        let dt = run(TreePolicy::Standard, SessionKind::Exact);
        let msdt = run(TreePolicy::MultiSweep, SessionKind::Exact);
        let pp = run(TreePolicy::MultiSweep, SessionKind::Pp);

        println!(
            "DT   : fitness {:.4} in {:6.2}s ({} sweeps)",
            dt.report.final_fitness,
            dt.report.total_secs(),
            dt.report.sweeps.len()
        );
        println!(
            "MSDT : fitness {:.4} in {:6.2}s ({} sweeps)",
            msdt.report.final_fitness,
            msdt.report.total_secs(),
            msdt.report.sweeps.len()
        );
        println!(
            "PP   : fitness {:.4} in {:6.2}s ({} exact + {} init + {} approx sweeps)",
            pp.report.final_fitness,
            pp.report.total_secs(),
            pp.report.count(SweepKind::Exact),
            pp.report.count(SweepKind::PpInit),
            pp.report.count(SweepKind::PpApprox),
        );

        let target = dt
            .report
            .final_fitness
            .min(msdt.report.final_fitness)
            .min(pp.report.final_fitness)
            - 1e-4;
        if let (Some(a), Some(c)) = (
            dt.report.time_to_fitness(target),
            pp.report.time_to_fitness(target),
        ) {
            println!("PP speed-up to fitness {target:.4}: {:.2}x over DT", a / c);
        }
    }
}
