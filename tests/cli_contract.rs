//! The command-line contract, driven through the built `ppcp` binary:
//!
//! * a CLI run **is** a one-job manifest — `ppcp <flags>` and `ppcp batch`
//!   on the line spelling the same keys agree sweep for sweep, dense,
//!   sparse and streaming;
//! * the `kernel ledger:` line a single run prints is its report's
//!   `KernelStats` counts;
//! * every argument error exits 2 and names the flag or key on stderr;
//! * `--help` / `--version` short-circuit in all three modes;
//! * a distributed run (`--ranks P`) prints the same on either collective
//!   backend;
//! * a stream drained to a checkpoint resumes (under any `--threads`) to
//!   the uninterrupted result and removes the file; a foreign or corrupt
//!   checkpoint is refused with exit 2.

use parallel_pp::serve::{parse_manifest, run_sequential};
use std::path::PathBuf;
use std::process::{Command, Output};

fn ppcp(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ppcp"))
        .args(args.split_whitespace())
        .output()
        .expect("ppcp runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Stdout of a run that must exit 0.
fn ok(args: &str) -> String {
    let out = ppcp(args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "ppcp {args}: {err}");
    stdout(&out)
}

/// Fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ppcp-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `N sweeps (… exact, … PP-init, … PP-approx), fitness F` of a report line.
fn summary(text: &str, marker: &str) -> String {
    let line = text.lines().find(|l| l.contains(marker)).expect(marker);
    let from = line.find(marker).unwrap() + marker.len();
    let to = line.find(", fitness ").unwrap() + ", fitness 0.00000".len();
    line[from..to].to_string()
}

/// The one-job manifest line spelling `flags` (`--key value` is the token
/// `key=value`), after the tokens only a manifest needs.
fn manifest_line(name: &str, manifest_only: &str, flags: &str) -> String {
    let words: Vec<&str> = flags.split_whitespace().collect();
    let tokens: Vec<String> = words
        .chunks(2)
        .map(|kv| format!("{}={}", kv[0].trim_start_matches("--"), kv[1]))
        .collect();
    format!("job name={name} {manifest_only} {}\n", tokens.join(" "))
}

/// `(kind, fitness)` of every `--trace` line of a single run.
fn trace(text: &str) -> Vec<(String, String)> {
    text.lines()
        .filter_map(|l| {
            let (head, fitness) = l.split_once(" fitness=")?;
            let kind = head.split_whitespace().next()?;
            Some((kind.to_string(), fitness.to_string()))
        })
        .collect()
}

#[test]
fn a_cli_run_is_a_one_job_manifest() {
    let dir = scratch("one-job");
    // Every key the two sides' defaults could disagree on is spelled out,
    // so each flag `--key value` is exactly the manifest token `key=value`.
    let cases = [
        (
            "dense",
            "",
            "--dataset lowrank --dims 14x12x10 --gen-rank 3 --noise 0.05 --data-seed 11 \
             --method pp --rank 3 --sweeps 14 --tol 1e-9 --pp-tol 0.3 --seed 5",
            "",
        ),
        (
            "sparse",
            "",
            "--dataset sparse-lowrank --dims 20x18x16 --gen-rank 3 --density 0.05 --data-seed 4 \
             --method msdt --rank 3 --sweeps 6 --tol 0 --pp-tol 0.1 --seed 9",
            "",
        ),
        (
            "stream",
            "stream",
            "--height 12 --width 10 --bands 8 --times 7 --materials 3 --noise 1e-3 \
             --data-seed 17 --initial-times 3 --arrive 2 --sweeps-per-arrival 3 \
             --update incremental --method pp --rank 4 --tol 1e-5 --pp-tol 0.1 --seed 42",
            "dataset=timelapse stream=on",
        ),
    ];
    for (name, mode, flags, manifest_only) in cases {
        let single = ok(&format!("{mode} {flags} --trace"));
        let steps = trace(&single);
        assert!(steps.len() >= 6, "{name}: {single}");

        let line = manifest_line(name, manifest_only, flags);
        let manifest = dir.join(format!("{name}.manifest"));
        std::fs::write(&manifest, &line).unwrap();
        let batch = ok(&format!(
            "batch --manifest {} --jobs 1 --drivers 1 --trace",
            manifest.display()
        ));

        // Same summary, and the schedule trace names the same sweep kinds.
        assert_eq!(
            summary(&single, "finished: "),
            summary(&batch, "ok: "),
            "{name}"
        );
        let scheduled: Vec<&str> = batch
            .lines()
            .filter(|l| l.trim_start().starts_with("turn "))
            .map(|l| l.split_whitespace().last().unwrap())
            .collect();
        let kinds: Vec<&str> = steps.iter().map(|(kind, _)| kind.as_str()).collect();
        assert_eq!(kinds, scheduled, "{name}");

        // The batch binary prints no per-sweep fitness; the library run of
        // the same line does, to the digit.
        let report = run_sequential(&parse_manifest(&line).unwrap());
        let out = report.jobs[0].output.as_ref().expect("job completes");
        let fitness: Vec<String> = out
            .report
            .sweeps
            .iter()
            .map(|s| format!("{:.6}", s.fitness))
            .collect();
        let printed: Vec<&str> = steps.iter().map(|(_, f)| f.as_str()).collect();
        assert_eq!(printed, fitness, "{name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `kernel ledger:` line of a single run is the report's kernel
/// ledger: its four integers are the `report.stats` counts of the library
/// run of the same manifest line — PP-init's TTMs included, on dense and
/// sparse input, and a stream's arrivals.
#[test]
fn the_ledger_line_is_the_reports_kernel_counts() {
    let cases = [
        (
            "dense-pp",
            "",
            "--dataset collinearity --s 16 --r 3 --lo 0.5 --hi 0.7 --data-seed 3 --method pp \
             --rank 3 --sweeps 12 --tol 0 --pp-tol 0.3 --seed 5",
            "",
        ),
        (
            "sparse-pp",
            "",
            "--dataset sparse-lowrank --dims 20x18x16 --gen-rank 3 --density 0.05 --data-seed 4 \
             --method pp --rank 3 --sweeps 16 --tol 0 --pp-tol 0.5 --seed 9",
            "",
        ),
        (
            "stream",
            "stream",
            "--height 12 --width 10 --bands 8 --times 7 --materials 3 --noise 1e-3 \
             --data-seed 17 --initial-times 3 --arrive 2 --sweeps-per-arrival 3 \
             --update incremental --method pp --rank 4 --tol 1e-5 --pp-tol 0.1 --seed 42",
            "dataset=timelapse stream=on",
        ),
    ];
    for (name, mode, flags, manifest_only) in cases {
        let single = ok(&format!("{mode} {flags}"));
        let line = single
            .lines()
            .find_map(|l| l.strip_prefix("kernel ledger: "))
            .unwrap_or_else(|| panic!("{name}: no ledger line in {single}"));
        let printed: Vec<u64> = line
            .split_whitespace()
            .filter_map(|w| w.parse().ok())
            .collect();

        let report =
            run_sequential(&parse_manifest(&manifest_line(name, manifest_only, flags)).unwrap());
        let out = report.jobs[0].output.as_ref().expect("job completes");
        let s = &out.report.stats;
        assert_eq!(
            printed,
            [s.ttm_flops, s.ttm_count, s.mttv_flops, s.mttv_count],
            "{name}: {line}"
        );
        if name != "stream" {
            let kind = parallel_pp::core::SweepKind::PpInit;
            assert!(out.report.count(kind) > 0, "{name}: PP regime never opened");
        }
    }
}

#[test]
fn argument_errors_exit_2_and_name_the_flag_or_key() {
    let dir = scratch("rejections");
    let corrupt = dir.join("corrupt.ppck");
    std::fs::write(&corrupt, b"PPCKgarbage").unwrap();
    let corrupt_ckpt = format!("stream --checkpoint {}", corrupt.display());
    for (args, named) in [
        ("--frobnicate", "--frobnicate"),
        ("--dataset netflix", "dataset 'netflix'"),
        ("--method turbo", "method 'turbo'"),
        ("--rank abc", "rank"),
        ("--seed", "--seed"),
        ("--threads 0", "--threads"),
        ("batch --manifest m --threads 0", "--threads"),
        ("stream --threads 0", "--threads"),
        ("--dataset sparse-powerlaw --method nncp", "nncp"),
        ("--dataset sparse-lowrank --ranks 2", "--ranks 1"),
        ("--method nncp --ranks 2", "--ranks 1"),
        ("--ranks 0", "--ranks"),
        ("--method pp --dims 12x11", "method=pp"),
        ("--method pp --dims 12x11 --ranks 2", "method=pp"),
        ("--gen-rank 0", "gen-rank"),
        ("--dims 0x4x4", "dims"),
        ("--noise -1", "noise"),
        ("--noise nan", "noise"),
        ("--tol nan", "tol"),
        ("--pp-tol nan", "pp-tol"),
        ("--dataset collinearity --lo 0.9 --hi 0.1", "lo=0.9 hi=0.1"),
        ("--dataset collinearity --order 1", "order"),
        ("--dataset collinearity --s 0", "s must be at least 1"),
        ("stream --times 0", "times"),
        ("stream --method nncp", "method"),
        ("stream --arrive 4", "arrive"),
        ("stream --backend p2p", "--backend"),
        ("--policy priority", "--policy"),
        ("--no-lookahead", "--no-lookahead"),
        ("--lookahead off", "--lookahead"),
        ("batch --manifest m --no-park", "--no-park"),
        ("batch", "--manifest"),
        (
            "batch --manifest /nonexistent/jobs.txt",
            "/nonexistent/jobs.txt",
        ),
        (corrupt_ckpt.as_str(), "corrupt.ppck"),
    ] {
        let out = ppcp(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "ppcp {args}: {err}");
        assert!(
            err.starts_with("error: ") && err.contains(named),
            "ppcp {args}: {err}"
        );
        assert!(out.stdout.is_empty(), "ppcp {args} printed before failing");
    }
    // A manifest error names the file, the line and the token.
    let manifest = dir.join("bad.manifest");
    std::fs::write(&manifest, "job name=a\njob rank=abc\n").unwrap();
    let out = ppcp(&format!("batch --manifest {}", manifest.display()));
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(
        err.contains("bad.manifest: line 2") && err.contains("'rank=abc'"),
        "{err}"
    );
    std::fs::write(&manifest, "job lookahead=off\n").unwrap();
    let out = ppcp(&format!("batch --manifest {}", manifest.display()));
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("unknown key 'lookahead'"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Stdout lines with the wall times (`t=…s`, `…s total`) and the backend
/// name masked, padding normalized.
fn masked(text: &str) -> Vec<String> {
    text.lines()
        .map(|line| {
            let line = line.split(", backend: ").next().unwrap();
            line.split_whitespace()
                .filter(|w| *w != "t=")
                .map(|w| {
                    let secs = w.trim_start_matches("t=").strip_suffix('s');
                    if secs.is_some_and(|n| n.parse::<f64>().is_ok()) {
                        "…s"
                    } else {
                        w
                    }
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

#[test]
fn distributed_runs_print_the_same_on_either_backend() {
    let run = "--ranks 4 --trace --dataset collinearity --s 16 --r 3 --lo 0.5 --hi 0.7 \
               --rank 3 --pp-tol 0.3 --tol 0 --sweeps 12";
    for method in ["pp", "msdt"] {
        let on = |backend: &str| ok(&format!("{run} --method {method} --backend {backend}"));
        let (p2p, rendezvous) = (on("p2p"), on("rendezvous"));
        assert!(p2p.contains("P=4") && p2p.contains("backend: p2p"), "{p2p}");
        assert_eq!(trace(&p2p).len(), 12, "{p2p}");
        if method == "pp" {
            assert!(
                p2p.contains("PP-approx t="),
                "PP regime never entered: {p2p}"
            );
        }
        assert_eq!(masked(&p2p), masked(&rendezvous), "{method}");
    }
}

#[test]
fn help_and_version_short_circuit_in_every_mode() {
    for mode in ["", "batch", "stream"] {
        for rest in ["", "--frobnicate", "--rank abc", "--threads 0"] {
            let version = ok(&format!("{mode} {rest} --version"));
            assert_eq!(version.trim(), concat!("ppcp ", env!("CARGO_PKG_VERSION")));
            let help = ok(&format!("{mode} --help {rest}"));
            assert!(
                help.contains("ppcp batch") && help.contains("--threads"),
                "{help}"
            );
        }
    }
}

#[test]
fn stream_drains_resumes_and_cleans_up() {
    let dir = scratch("stream-resume");
    let stream = "stream --height 12 --width 10 --bands 8 --times 7 --materials 3 --noise 1e-3 \
                  --method pp --rank 4 --sweeps-per-arrival 3 --threads 1";
    let straight = ok(&format!("{stream} --trace"));

    let ckpt = dir.join("s.ppck");
    let with_ckpt = format!("{stream} --checkpoint {}", ckpt.display());
    let cut = ok(&format!("{with_ckpt} --stop-after-arrivals 1"));
    assert!(
        cut.contains("drained after 1 arrivals (resumable from checkpoint)"),
        "{cut}"
    );
    assert!(ckpt.exists());

    // Another configuration is refused (exit 2) and leaves the file alone.
    let foreign = ppcp(&with_ckpt.replace("--rank 4", "--rank 5"));
    let err = String::from_utf8_lossy(&foreign.stderr);
    assert_eq!(foreign.status.code(), Some(2), "{err}");
    assert!(
        err.contains("s.ppck") && err.contains("different job spec"),
        "{err}"
    );
    assert!(ckpt.exists());

    // The pool width is a run flag, outside the fingerprinted spec: the
    // resume may change it, and still lands on the uninterrupted trace.
    let resumed = ok(&format!("{with_ckpt} --trace").replace("--threads 1", "--threads 2"));
    assert!(resumed.starts_with(&format!(
        "resumed {} at extent 5 (1 arrivals",
        ckpt.display()
    )));
    assert_eq!(trace(&resumed), trace(&straight));
    assert_eq!(
        summary(&resumed, "finished: "),
        summary(&straight, "finished: ")
    );
    assert!(!ckpt.exists(), "a completed stream removes its checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
}
