//! The scheduler isolates tenant panics into `JobStatus::Failed` — and
//! the default panic hook's crash printout must stay muted for *all*
//! threads involved in a batch: the driver threads **and** the kernel
//! pool workers that a sweep fans out to (a worker-side panic is caught
//! and re-thrown on the driver). Unrelated threads keep full diagnostics.
//!
//! stderr of the current process cannot be captured in-process, so each
//! scenario re-executes this test binary as a child with a marker env var
//! and asserts on the child's captured stderr.

use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const CHILD_ENV: &str = "PP_PANIC_QUIET_CHILD";

/// Child scenario: a batch is live and a panic fires on a pool worker
/// (inside a parallel loop) and on a driver (via fault injection). Nothing
/// may reach stderr.
fn child_quiet() {
    let _guard = pp_serve::scheduler::quiet_hook_for_tests();
    // Worker-side: a unit panics only where a persistent pool worker runs
    // it, while the batch guard is registered. The calling thread holds
    // its own unit until a worker has taken one, so the case cannot pass
    // by the caller draining the loop alone.
    let _w = rayon::scoped_num_threads(2);
    let worker_ran = AtomicBool::new(false);
    let mut units = [0u8; 64];
    let caught = catch_unwind(AssertUnwindSafe(|| {
        units.par_chunks_mut(1).for_each(|_| {
            if rayon::is_pool_worker() {
                worker_ran.store(true, Ordering::SeqCst);
                panic!("worker-side panic (must be quiet)");
            }
            let t0 = Instant::now();
            while !worker_ran.load(Ordering::SeqCst) && t0.elapsed() < Duration::from_secs(10) {
                std::thread::yield_now();
            }
        });
    }));
    assert!(
        caught.is_err() && worker_ran.load(Ordering::SeqCst),
        "no unit ran on a pool worker"
    );

    // Driver-side: a real batch whose job panics mid-step.
    let mut doomed = pp_serve::JobSpec::new("doomed");
    doomed.method = pp_serve::JobMethod::Msdt;
    doomed.rank = 2;
    doomed.max_sweeps = 4;
    doomed.tol = 0.0;
    doomed.fail_after = Some(1);
    doomed.dataset = pp_serve::DatasetSpec::Lowrank {
        dims: vec![8, 8, 8],
        gen_rank: 2,
        noise: 0.05,
        seed: 3,
    };
    let report =
        pp_serve::run_batch(&[doomed], &pp_serve::ServeConfig::new(1).with_drivers(2)).unwrap();
    assert_eq!(report.failed(), 1);
}

/// Child scenario: no batch anywhere — a panic on an ordinary thread must
/// still print the default diagnostics.
fn child_loud() {
    let t = std::thread::spawn(|| panic!("unrelated panic (must be loud)"));
    assert!(t.join().is_err());
}

#[test]
fn batch_panics_are_quiet_and_unrelated_panics_are_loud() {
    match std::env::var(CHILD_ENV).as_deref() {
        Ok("quiet") => return child_quiet(),
        Ok("loud") => return child_loud(),
        _ => {}
    }

    let exe = std::env::current_exe().unwrap();
    let run = |mode: &str| {
        Command::new(&exe)
            .arg("batch_panics_are_quiet_and_unrelated_panics_are_loud")
            .arg("--exact")
            .arg("--nocapture")
            .env(CHILD_ENV, mode)
            .env("PP_NUM_THREADS", "2")
            .output()
            .expect("re-exec test binary")
    };

    let quiet = run("quiet");
    let stderr = String::from_utf8_lossy(&quiet.stderr);
    assert!(quiet.status.success(), "quiet child failed:\n{stderr}");
    assert!(
        !stderr.contains("panicked at"),
        "batch panics leaked to stderr:\n{stderr}"
    );

    let loud = run("loud");
    let stderr = String::from_utf8_lossy(&loud.stderr);
    assert!(loud.status.success(), "loud child failed:\n{stderr}");
    assert!(
        stderr.contains("panicked at"),
        "default hook was muted for an unrelated thread:\n{stderr}"
    );
}
