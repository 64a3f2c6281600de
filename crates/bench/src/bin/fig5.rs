//! Fig. 5 + Table IV reproduction: fitness-vs-time of PP vs MSDT vs DT on
//! the application tensors (collinearity, quantum-chemistry surrogate,
//! COIL-like, time-lapse-like), plus per-run sweep counts and mean sweep
//! times.
//!
//! Run: `cargo run --release -p pp-bench --bin fig5 [-- col|chem|coil|timelapse|all] [--full]`

use pp_core::{AlsConfig, AlsOutput, AlsSession, SessionKind, SweepKind};
use pp_datagen::chemistry::{density_fitting_tensor, ChemistryConfig};
use pp_datagen::coil::{coil_tensor, CoilConfig};
use pp_datagen::collinearity::{collinearity_tensor, CollinearityConfig};
use pp_datagen::timelapse::{timelapse_tensor, TimelapseConfig};
use pp_dtree::TreePolicy;
use pp_tensor::DenseTensor;

fn run_all(name: &str, t: &DenseTensor, rank: usize, max_sweeps: usize, pp_tol: f64) {
    println!("\n== {name}: shape {}, R={rank} ==", t.shape());
    let base = AlsConfig::new(rank)
        .with_tol(1e-5)
        .with_max_sweeps(max_sweeps)
        .with_pp_tol(pp_tol);

    let run = |policy, kind| AlsSession::new(t, &base.clone().with_policy(policy), kind).run();
    let dt = run(TreePolicy::Standard, SessionKind::Exact);
    let msdt = run(TreePolicy::MultiSweep, SessionKind::Exact);
    let pp = run(TreePolicy::MultiSweep, SessionKind::Pp);

    // Fitness-vs-time series (downsampled print).
    let print_series = |label: &str, out: &AlsOutput| {
        let series = out.report.fitness_series();
        let step = (series.len() / 12).max(1);
        let pts: Vec<String> = series
            .iter()
            .step_by(step)
            .map(|(t, f)| format!("({t:.2}s,{f:.4})"))
            .collect();
        println!("  {label:5} {}", pts.join(" "));
    };
    print_series("DT", &dt);
    print_series("MSDT", &msdt);
    print_series("PP", &pp);

    // Table IV row.
    println!(
        "  Table IV: N-ALS={} N-PP-init={} N-PP-approx={} | T-ALS={:.4}s T-PP-init={:.4}s T-PP-approx={:.4}s",
        pp.report.count(SweepKind::Exact),
        pp.report.count(SweepKind::PpInit),
        pp.report.count(SweepKind::PpApprox),
        dt.report.mean_secs(SweepKind::Exact),
        pp.report.mean_secs(SweepKind::PpInit),
        pp.report.mean_secs(SweepKind::PpApprox),
    );

    // Speed-up to a common fitness target: the lowest of the finals, less
    // a small margin (the paper quotes time-to-convergence ratios).
    let target = dt
        .report
        .final_fitness
        .min(msdt.report.final_fitness)
        .min(pp.report.final_fitness)
        - 1e-4;
    let tt = |o: &AlsOutput| o.report.time_to_fitness(target);
    match (tt(&dt), tt(&msdt), tt(&pp)) {
        (Some(a), Some(b), Some(c)) => println!(
            "  time to fitness {target:.4}: DT {a:.2}s, MSDT {b:.2}s (x{:.2}), PP {c:.2}s (x{:.2})",
            a / b,
            a / c
        ),
        _ => println!("  (common fitness target not reached by all methods)"),
    }
    println!(
        "  final fitness: DT {:.4}  MSDT {:.4}  PP {:.4}",
        dt.report.final_fitness, msdt.report.final_fitness, pp.report.final_fitness
    );
}

fn main() {
    let threads = pp_bench::apply_threads_flag();
    eprintln!("[pool] {threads} kernel threads");
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--threads <n>` was consumed by `apply_threads_flag`; strip it so its
    // value is not mistaken for the positional figure selector.
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        args.drain(i..(i + 2).min(args.len()));
    }
    let full = args.iter().any(|a| a == "--full");
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".into());

    let scale = if full { 2 } else { 1 };

    if which == "col" || which == "all" {
        // Fig. 5a: collinearity ∈ [0.6, 0.8).
        let cfg = CollinearityConfig {
            s: 100 * scale,
            r: 20 * scale,
            order: 3,
            lo: 0.6,
            hi: 0.8,
        };
        let (t, _, _) = collinearity_tensor(&cfg, 77);
        run_all("Fig. 5a collinearity [0.6,0.8)", &t, cfg.r, 200, 0.2);
    }

    if which == "chem" || which == "all" {
        // Fig. 5b-d: chemistry surrogate at three ranks. The tensor must be
        // large enough that the O(s²R) approximated sweeps beat the
        // O(s³R/N) exact sweeps on wall clock, not just in flops.
        let cc = ChemistryConfig {
            n_orb: 48 * scale,
            n_aux: 16 * 48 * scale,
            ..ChemistryConfig::default()
        };
        let t = density_fitting_tensor(&cc, 5);
        for (fig, r) in [("5b", 20 * scale), ("5c", 40 * scale), ("5d", 64 * scale)] {
            run_all(&format!("Fig. {fig} chemistry"), &t, r, 120, 0.1);
        }
    }

    if which == "coil" || which == "all" {
        let cc = CoilConfig {
            size: 32 * scale,
            objects: 5 * scale,
            poses: 24,
        };
        let t = coil_tensor(&cc);
        run_all("Fig. 5e COIL-like", &t, 20, 80, 0.1);
    }

    if which == "timelapse" || which == "all" {
        let tc = TimelapseConfig {
            height: 64 * scale,
            width: 84 * scale,
            bands: 33,
            times: 9,
            materials: 12,
            noise: 5e-3,
        };
        let t = timelapse_tensor(&tc, 9);
        run_all("Fig. 5f time-lapse-like", &t, 25 * scale, 80, 0.1);
    }
}
