//! Where a sweep's page faults go: run every job of a benchmark manifest
//! as a solo session for a few warm laps and print, per sweep,
//! `kind : ms / minor faults / workspace draws / misses / huge of resident
//! MiB` — plus the
//! session's set-up, each streaming arrival, and `finish` — under a header
//! naming the transparent-huge-page mode the kernel runs with.
//!
//! Minor faults are field 10 of `/proc/self/stat` (process-wide, so the
//! faults of pool threads count in the sweep that fanned out to them);
//! the last column is `AnonHugePages` of `Rss` from `/proc/self/smaps_rollup`
//! at the end of the phase, i.e. how much of the resident process is backed
//! by 2 MiB pages (the tensor store asks for them from 2 MiB up; with THP
//! `never` it reads 0 and the fault counts are those of 4 KiB pages). Elsewhere than Linux the columns
//! read `-`. Workspace draws are the pooled requests of the phase
//! ([`WorkspaceStats::draws`]), misses the draws among them that had to
//! allocate ([`WorkspaceStats::misses`]): a phase that draws and misses
//! nothing mapped no intermediate fresh.
//!
//! Run: `cargo run --release --example fault_probe --
//!       benchmark/workloads/dense4-pp.manifest [--seed S] [--laps K]`

use parallel_pp::core::{AlsSession, Step, StreamingSession, SweepKind};
use parallel_pp::datagen::timelapse::TIME_MODE;
use parallel_pp::serve::{parse_manifest, JobSpec};
use parallel_pp::tensor::{DenseTensor, Workspace, WorkspaceStats};
use std::time::Instant;

/// Field 10 (`minflt`) of `/proc/self/stat`, or `None` where there is no
/// such file. The fields are counted from behind the `(comm)` field, which
/// may itself hold spaces.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let after_comm = &stat[stat.rfind(')')? + 1..];
    after_comm.split_whitespace().nth(7)?.parse().ok()
}

/// `Rss` and `AnonHugePages` of `/proc/self/smaps_rollup` in MiB, or
/// `None` where there is no such file.
fn resident_and_huge_mib() -> Option<(f64, f64)> {
    let rollup = std::fs::read_to_string("/proc/self/smaps_rollup").ok()?;
    let mib = |key: &str| -> Option<f64> {
        let line = rollup.lines().find(|l| l.starts_with(key))?;
        let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kib / 1024.0)
    };
    Some((mib("Rss:")?, mib("AnonHugePages:")?))
}

/// The bracketed choice of `/sys/kernel/mm/transparent_hugepage/enabled`
/// (`always`, `madvise` or `never`), or `None` where THP does not exist.
fn thp_mode() -> Option<String> {
    let modes = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled").ok()?;
    let open = modes.find('[')?;
    let close = open + modes[open..].find(']')?;
    Some(modes[open + 1..close].to_string())
}

/// Wall time, fault and workspace counters at one instant.
struct Mark {
    at: Instant,
    faults: Option<u64>,
    pool: WorkspaceStats,
}

impl Mark {
    fn now(ws: Option<&Workspace>) -> Mark {
        Mark {
            at: Instant::now(),
            faults: minor_faults(),
            pool: ws.map(Workspace::stats).unwrap_or_default(),
        }
    }

    /// Print one row covering `self..now` and return the new mark.
    fn row(&self, label: &str, ws: Option<&Workspace>) -> Mark {
        let now = Mark::now(ws);
        let ms = (now.at - self.at).as_secs_f64() * 1e3;
        let faults = match (self.faults, now.faults) {
            (Some(a), Some(b)) => (b - a).to_string(),
            _ => "-".into(),
        };
        let draws = now.pool.draws - self.pool.draws;
        let misses = now.pool.misses - self.pool.misses;
        let memory = resident_and_huge_mib().map_or("-".into(), |(rss, huge)| {
            format!("{huge:.0} of {rss:.0} MiB huge")
        });
        println!(
            "  {label:<10}: {ms:8.2} ms / {faults:>7} faults / {draws:>3} draws / {misses:>3} misses / {memory}"
        );
        now
    }
}

/// `{seed}` / `{seed+K}` placeholders of a benchmark manifest.
fn instantiate(manifest: &str, seed: u64) -> Result<String, String> {
    let mut out = String::new();
    let mut rest = manifest;
    while let Some(at) = rest.find("{seed") {
        out.push_str(&rest[..at]);
        let tail = &rest[at + 5..];
        let close = tail.find('}').ok_or("unclosed {seed placeholder")?;
        let offset: u64 = match &tail[..close] {
            "" => 0,
            plus => plus
                .strip_prefix('+')
                .and_then(|k| k.parse().ok())
                .ok_or("placeholder is {seed} or {seed+K}")?,
        };
        out.push_str(&(seed + offset).to_string());
        rest = &tail[close + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

fn kind_label(kind: SweepKind) -> &'static str {
    match kind {
        SweepKind::Exact => "exact",
        SweepKind::PpInit => "pp-init",
        SweepKind::PpApprox => "pp-approx",
    }
}

/// One lap of a batch job: construct, step to the budget, finish.
fn batch_lap(spec: &JobSpec, new: &dyn Fn() -> AlsSession) -> Result<(), String> {
    let mark = Mark::now(None);
    let mut session = new();
    let ws = session.workspace().clone();
    let mut mark = mark.row("setup", Some(&ws));
    while let Step::Swept(rec) = session.step() {
        mark = mark.row(kind_label(rec.kind), Some(&ws));
    }
    let out = session.finish();
    mark.row("finish", Some(&ws));
    println!(
        "  {}: fitness {:.5} after {} sweeps",
        spec.name,
        out.report.final_fitness,
        out.report.sweeps.len()
    );
    Ok(())
}

/// One lap of a streaming job: every window, every arrival, finish.
fn stream_lap(spec: &JobSpec, initial: &DenseTensor, slices: &[DenseTensor]) -> Result<(), String> {
    let stream = spec.stream.ok_or("not a streaming job")?;
    let mark = Mark::now(None);
    let mut session = StreamingSession::new(
        initial,
        &spec.als_config(),
        spec.method.session_kind(),
        TIME_MODE,
        stream.sweeps_per_arrival,
        stream.update,
    );
    let ws = session.session().workspace().clone();
    let mut mark = mark.row("setup", Some(&ws));
    for slice in std::iter::once(None).chain(slices.iter().map(Some)) {
        if let Some(slice) = slice {
            session.arrive(slice);
            mark = mark.row("arrive", Some(&ws));
        }
        while let Step::Swept(rec) = session.step() {
            mark = mark.row(kind_label(rec.kind), Some(&ws));
        }
    }
    let out = session.finish();
    mark.row("finish", Some(&ws));
    println!(
        "  {}: fitness {:.5} after {} sweeps",
        spec.name,
        out.report.final_fitness,
        out.report.sweeps.len()
    );
    Ok(())
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut path = None;
    let (mut seed, mut laps) = (1u64, 2usize);
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            let v = args.next().ok_or(format!("{flag} expects a value"))?;
            v.parse::<u64>()
                .map_err(|_| format!("{flag} expects a non-negative integer, got '{v}'"))
        };
        match arg.as_str() {
            "--seed" => seed = value("--seed")?,
            "--laps" => laps = value("--laps")? as usize,
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            p => path = Some(p.to_string()),
        }
    }
    let path = path.ok_or("usage: fault_probe <manifest> [--seed S] [--laps K]")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let specs = parse_manifest(&instantiate(&text, seed)?)?;
    println!(
        "transparent_hugepage: {}",
        thp_mode().as_deref().unwrap_or("unavailable")
    );

    for spec in &specs {
        println!(
            "== {} ({}, seed {seed}): 1 cold lap, then {laps} warm",
            spec.name,
            spec.method.label()
        );
        let cfg = spec.als_config();
        let kind = spec.method.session_kind();
        let each_lap = |lap: &dyn Fn() -> Result<(), String>| {
            (0..=laps).try_for_each(|i| {
                println!(" lap {i}{}", if i == 0 { " (cold)" } else { "" });
                lap()
            })
        };
        if spec.stream.is_some() {
            let feed = spec.build_stream()?;
            let initial = feed.initial();
            let slices: Vec<DenseTensor> = (0..feed.n_arrivals()).map(|i| feed.slice(i)).collect();
            each_lap(&|| stream_lap(spec, &initial, &slices))?;
        } else if spec.dataset.is_sparse() {
            let sp = spec.dataset.build_sparse();
            each_lap(&|| batch_lap(spec, &|| AlsSession::new_sparse(&sp, &cfg, kind)))?;
        } else {
            let t = spec.dataset.build();
            each_lap(&|| batch_lap(spec, &|| AlsSession::new(&t, &cfg, kind)))?;
        }
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}
