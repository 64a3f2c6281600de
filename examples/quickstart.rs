//! Quickstart: decompose a noisy low-rank tensor with CP-ALS and with
//! pairwise perturbation, and compare. Each decomposition is an
//! `AlsSession` run to the end (`step()` it instead to pause between
//! sweeps).
//!
//! Run: `cargo run --release --example quickstart`

use parallel_pp::core::{AlsConfig, AlsSession, SessionKind, SweepKind};
use parallel_pp::datagen::lowrank::noisy_rank;
use parallel_pp::dtree::TreePolicy;

fn main() {
    // A 60×60×60 tensor of CP rank 8 plus 5% Gaussian noise.
    let t = noisy_rank(&[60, 60, 60], 8, 0.05, 42);
    println!("input tensor: {} ({} elements)", t.shape(), t.len());

    // --- exact CP-ALS through the multi-sweep dimension tree -------------
    let cfg = AlsConfig::new(8)
        .with_policy(TreePolicy::MultiSweep)
        .with_tol(1e-6)
        .with_max_sweeps(100);
    let exact = AlsSession::new(&t, &cfg, SessionKind::Exact).run();
    println!(
        "\nMSDT CP-ALS: {} sweeps, final fitness {:.5}, total {:.2}s",
        exact.report.sweeps.len(),
        exact.report.final_fitness,
        exact.report.total_secs()
    );

    // --- pairwise-perturbation CP-ALS -------------------------------------
    let pp = AlsSession::new(&t, &cfg.clone().with_pp_tol(0.2), SessionKind::Pp).run();
    println!(
        "PP-CP-ALS:   {} sweeps ({} exact, {} PP-init, {} PP-approx), final fitness {:.5}, total {:.2}s",
        pp.report.sweeps.len(),
        pp.report.count(SweepKind::Exact),
        pp.report.count(SweepKind::PpInit),
        pp.report.count(SweepKind::PpApprox),
        pp.report.final_fitness,
        pp.report.total_secs()
    );
    println!(
        "speed-up to finish: {:.2}x",
        exact.report.total_secs() / pp.report.total_secs()
    );

    // First few points of the fitness trace.
    println!("\nfitness trace (PP):");
    for s in pp.report.sweeps.iter().take(8) {
        println!(
            "  {:9} t={:7.3}s fitness={:.5}",
            format!("{:?}", s.kind),
            s.cumulative_secs,
            s.fitness
        );
    }
}
