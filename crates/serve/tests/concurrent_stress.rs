//! Stress contract of the multi-core scheduler: at any driver count,
//! every job's trace stays bit-identical to a solo run, every job reaches
//! exactly one terminal status, and a batch drained mid-flight resumes
//! from its checkpoint directory bit-identically.

use pp_core::{AlsOutput, AlsSession};
use pp_serve::{parse_manifest, run_batch, JobMethod, JobSpec, JobStatus, ServeConfig};

/// Run `spec` alone: its session, run to the end.
fn solo(spec: &JobSpec) -> AlsOutput {
    AlsSession::new(
        &spec.dataset.build(),
        &spec.als_config(),
        spec.method.session_kind(),
    )
    .run()
}

fn assert_bitwise(name: &str, a: &AlsOutput, b: &AlsOutput) {
    assert_eq!(a.report.sweeps.len(), b.report.sweeps.len(), "{name}");
    for (i, (x, y)) in a
        .report
        .sweeps
        .iter()
        .zip(b.report.sweeps.iter())
        .enumerate()
    {
        assert_eq!(x.kind, y.kind, "{name}: kind at sweep {i}");
        assert_eq!(
            x.fitness.to_bits(),
            y.fitness.to_bits(),
            "{name}: fitness at sweep {i}"
        );
    }
    for (n, (fa, fb)) in a.factors.iter().zip(b.factors.iter()).enumerate() {
        assert_eq!(fa.data(), fb.data(), "{name}: factor {n}");
    }
}

/// Mixed-method manifest: enough jobs that 4 drivers genuinely contend.
const MANIFEST: &str = "\
job name=dt-a   method=dt   rank=3 sweeps=5 tol=0.0 dims=10x9x8  gen-rank=3 noise=0.05 data-seed=11
job name=ms-b   method=msdt rank=3 sweeps=6 tol=0.0 dims=9x10x8  gen-rank=3 noise=0.05 data-seed=13
job name=pp-c   method=pp   rank=3 sweeps=15 tol=1e-9 pp-tol=0.3 dataset=collinearity s=12 r=3 lo=0.5 hi=0.7 data-seed=3
job name=nn-d   method=nncp rank=3 sweeps=5 tol=0.0 dims=8x9x10 gen-rank=3 noise=0.05 data-seed=17
job name=ms-e   method=msdt rank=2 sweeps=7 tol=0.0 dims=8x8x9  gen-rank=2 noise=0.05 data-seed=19
job name=dt-f   method=dt   rank=2 sweeps=4 tol=0.0 dims=9x8x8  gen-rank=2 noise=0.05 data-seed=23
";

#[test]
fn any_driver_count_matches_solo_bitwise() {
    let jobs = parse_manifest(MANIFEST).unwrap();
    let baselines: Vec<AlsOutput> = jobs.iter().map(solo).collect();
    for drivers in [1usize, 4] {
        let cfg = ServeConfig::new(3).with_drivers(drivers);
        let report = run_batch(&jobs, &cfg).unwrap();
        assert_eq!(report.failed(), 0, "drivers={drivers}");
        assert_eq!(report.completed(), jobs.len(), "drivers={drivers}");
        for ((spec, result), alone) in jobs.iter().zip(report.jobs.iter()).zip(baselines.iter()) {
            assert_eq!(spec.name, result.name);
            let batched = result.output.as_ref().expect("completed job has output");
            assert_bitwise(
                &format!("{} (drivers={drivers})", spec.name),
                alone,
                batched,
            );
        }
        // The trace covers every performed sweep exactly once: turns are
        // a permutation-free 0..n sequence after the sort, and per-job
        // sweep indices are each job's 0..k without gaps.
        for (i, e) in report.schedule.iter().enumerate() {
            assert_eq!(e.turn, i, "drivers={drivers}");
            assert!(e.driver < drivers, "drivers={drivers}");
        }
        for (j, out) in report.jobs.iter().enumerate() {
            let mut sweeps: Vec<usize> = report
                .schedule
                .iter()
                .filter(|e| e.job == j)
                .map(|e| e.sweep)
                .collect();
            sweeps.sort_unstable();
            let expected: Vec<usize> =
                (0..out.output.as_ref().unwrap().report.sweeps.len()).collect();
            assert_eq!(sweeps, expected, "job {j}, drivers={drivers}");
        }
    }
}

#[test]
fn terminal_status_is_reached_exactly_once_under_faults() {
    // A fault-injected job and a construction-failing job among healthy
    // ones, stepped by 4 drivers: every job still lands on exactly one
    // terminal status and healthy traces stay solo-identical.
    let mut jobs = parse_manifest(MANIFEST).unwrap();
    jobs[1].fail_after = Some(2);
    jobs[4].dataset = pp_serve::DatasetSpec::Lowrank {
        dims: vec![6, 6], // order-2 tensor: PP construction panics
        gen_rank: 2,
        noise: 0.0,
        seed: 1,
    };
    jobs[4].method = JobMethod::Pp;
    for drivers in [1usize, 4] {
        let report = run_batch(&jobs, &ServeConfig::new(4).with_drivers(drivers)).unwrap();
        assert_eq!(report.jobs.len(), jobs.len());
        assert_eq!(report.failed(), 2, "drivers={drivers}");
        assert_eq!(report.completed(), jobs.len() - 2, "drivers={drivers}");
        for (spec, res) in jobs.iter().zip(report.jobs.iter()) {
            match &res.status {
                JobStatus::Completed { .. } => {
                    assert_bitwise(&spec.name, &solo(spec), res.output.as_ref().unwrap())
                }
                JobStatus::Failed { error } => {
                    assert!(!error.is_empty());
                    assert!(res.output.is_none());
                }
                JobStatus::Parked => panic!("{}: no drain was requested", spec.name),
            }
        }
    }
}

#[test]
fn drain_and_resume_from_checkpoints_is_bit_identical() {
    let jobs = parse_manifest(MANIFEST).unwrap();
    let baselines: Vec<AlsOutput> = jobs.iter().map(solo).collect();
    for drivers in [1usize, 4] {
        let dir =
            std::env::temp_dir().join(format!("ppck-stress-{}-d{drivers}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Phase 1: drain after 7 batch-wide sweeps, checkpointing.
        let cfg = ServeConfig::new(3)
            .with_drivers(drivers)
            .with_checkpoint_dir(&dir)
            .with_stop_after_turns(7);
        let partial = run_batch(&jobs, &cfg).unwrap();
        assert_eq!(partial.failed(), 0, "drivers={drivers}");
        assert!(
            partial.parked() > 0,
            "drivers={drivers}: drain parked nothing"
        );
        // Concurrent drivers may each have one step in flight when the
        // stop threshold trips, so the turn count can overshoot slightly.
        assert!(
            partial.schedule.len() >= 7 && partial.schedule.len() < 7 + drivers,
            "drivers={drivers}: {} turns",
            partial.schedule.len()
        );
        // Every in-flight (admitted, non-terminal) job left a checkpoint.
        let on_disk = std::fs::read_dir(&dir).unwrap().count();
        assert!(on_disk > 0, "drivers={drivers}: no checkpoints written");

        // Phase 2: same manifest, same dir, no stop — runs to completion,
        // resuming parked jobs mid-stream.
        let cfg = ServeConfig::new(3)
            .with_drivers(drivers)
            .with_checkpoint_dir(&dir);
        let resumed = run_batch(&jobs, &cfg).unwrap();
        assert_eq!(resumed.failed(), 0, "drivers={drivers}");
        assert_eq!(resumed.completed(), jobs.len(), "drivers={drivers}");
        for ((spec, result), alone) in jobs.iter().zip(resumed.jobs.iter()).zip(baselines.iter()) {
            let batched = result.output.as_ref().unwrap();
            assert_bitwise(
                &format!("{} resumed (drivers={drivers})", spec.name),
                alone,
                batched,
            );
        }
        // Terminal jobs reap their checkpoint files.
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "drivers={drivers}: stale checkpoints left behind"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn checkpoint_from_a_different_spec_is_refused() {
    // A checkpoint written by one manifest must not silently seed another:
    // the stored spec fingerprint turns the mismatch into a job failure.
    let dir = std::env::temp_dir().join(format!("ppck-mismatch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let jobs = parse_manifest(MANIFEST).unwrap();
    let cfg = ServeConfig::new(2)
        .with_checkpoint_dir(&dir)
        .with_stop_after_turns(3);
    let partial = run_batch(&jobs, &cfg).unwrap();
    assert!(partial.parked() > 0);

    // Same dir, different job specs in the same slots.
    let mut other = parse_manifest(MANIFEST).unwrap();
    for j in &mut other {
        j.rank += 1;
    }
    let report = run_batch(&other, &ServeConfig::new(2).with_checkpoint_dir(&dir)).unwrap();
    let mismatches = report
        .jobs
        .iter()
        .filter(|j| match &j.status {
            JobStatus::Failed { error } => error.contains("different job spec"),
            _ => false,
        })
        .count();
    assert!(mismatches > 0, "mismatched checkpoints were accepted");
    let _ = std::fs::remove_dir_all(&dir);
}
