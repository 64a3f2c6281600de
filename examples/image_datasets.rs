//! Image workloads (paper Fig. 5e–f): the COIL-like rotating-object tensor
//! and the hyperspectral time-lapse surrogate, decomposed with DT vs PP.
//!
//! Run: `cargo run --release --example image_datasets`

use parallel_pp::core::{AlsConfig, AlsSession, SessionKind, SweepKind};
use parallel_pp::datagen::coil::{coil_tensor, CoilConfig};
use parallel_pp::datagen::timelapse::{timelapse_tensor, TimelapseConfig};
use parallel_pp::dtree::TreePolicy;
use parallel_pp::tensor::DenseTensor;

fn compare(name: &str, t: &DenseTensor, rank: usize, pp_tol: f64) {
    println!("\n=== {name}: {} , R={rank} ===", t.shape());
    let base = AlsConfig::new(rank)
        .with_tol(1e-5)
        .with_max_sweeps(60)
        .with_pp_tol(pp_tol);
    let run = |policy, kind| AlsSession::new(t, &base.clone().with_policy(policy), kind).run();
    let dt = run(TreePolicy::Standard, SessionKind::Exact);
    let pp = run(TreePolicy::MultiSweep, SessionKind::Pp);
    println!(
        "DT : fitness {:.4} in {:6.2}s ({} sweeps)",
        dt.report.final_fitness,
        dt.report.total_secs(),
        dt.report.sweeps.len()
    );
    println!(
        "PP : fitness {:.4} in {:6.2}s ({} exact / {} init / {} approx)",
        pp.report.final_fitness,
        pp.report.total_secs(),
        pp.report.count(SweepKind::Exact),
        pp.report.count(SweepKind::PpInit),
        pp.report.count(SweepKind::PpApprox),
    );
    let target = dt.report.final_fitness.min(pp.report.final_fitness) - 1e-4;
    if let (Some(a), Some(b)) = (
        dt.report.time_to_fitness(target),
        pp.report.time_to_fitness(target),
    ) {
        println!("PP speed-up to fitness {target:.4}: {:.2}x", a / b);
    }
}

fn main() {
    let coil = coil_tensor(&CoilConfig {
        size: 32,
        objects: 5,
        poses: 24,
    });
    compare("COIL-like (Fig. 5e)", &coil, 20, 0.1);

    let tl = timelapse_tensor(
        &TimelapseConfig {
            height: 48,
            width: 64,
            bands: 33,
            times: 9,
            materials: 12,
            noise: 5e-3,
        },
        11,
    );
    compare("Time-lapse-like (Fig. 5f)", &tl, 25, 0.1);
}
