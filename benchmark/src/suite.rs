//! `run`: every workload in its own child process, assembled into one run
//! record. `compare`: two records, row by row, against each metric's bound.

use crate::catalog::{self, Better, WORKLOADS};
use crate::json::Json;
use crate::Args;
use std::process::{Command, Stdio};

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn simd_level() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("fma")
        {
            return "avx512";
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return "avx2";
        }
    }
    "scalar"
}

/// Where and on what the numbers were taken.
fn machine() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0);
    // A checkout without git history (the driver's) has no commit to name.
    let commit = command_line("git", &["rev-parse", "--short", "HEAD"]);
    let dirty = command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    let nproc = crate::laps::nproc();
    Json::obj(vec![
        ("commit", commit.map_or(Json::Null, Json::Str)),
        ("dirty", dirty.map_or(Json::Null, Json::Bool)),
        ("nproc", Json::Num(nproc as f64)),
        ("pool_width", Json::Num(nproc as f64)),
        ("cpu", Json::Str(cpu)),
        ("simd", Json::str(simd_level())),
        (
            "rustc",
            command_line("rustc", &["--version"]).map_or(Json::Null, Json::Str),
        ),
        ("loadavg_start", Json::Num(loadavg)),
    ])
}

fn unit_of(name: &str) -> &'static str {
    catalog::metric(name).map_or("", |(d, _)| d.unit)
}

/// Run every workload as a child of this executable and print each metric by
/// name with its unit. Exits non-zero when any gate failed.
pub fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out_dir = std::path::Path::new("benchmark/out");
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let mode = if args.trace { "trace" } else { "run" };
    let machine = machine();
    let mut rows = Vec::new();
    let mut all_correct = true;
    for w in WORKLOADS {
        let record = out_dir.join(format!("{mode}-{}-seed{}.json", w.name, args.seed));
        eprintln!(
            "== {} ({mode}, seed {}, {} s)",
            w.name, args.seed, args.seconds
        );
        let status = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--record")
            .arg(&record)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("spawn {}: {e}", w.name))?;
        let row = std::fs::read_to_string(&record)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text));
        match row {
            Ok(row) => {
                all_correct &=
                    status.success() && row.get("correct").and_then(Json::as_bool) == Some(true);
                let _ = std::fs::remove_file(&record);
                rows.push(row);
            }
            // A child that died before writing its record (a panic outside
            // a lap, a kill) is one failed operation of that workload.
            Err(e) => {
                eprintln!("pp-benchmark: {} left no record ({e}; {status})", w.name);
                all_correct = false;
                rows.push(Json::obj(vec![
                    ("workload", Json::str(w.name)),
                    ("correct", Json::Bool(false)),
                    ("attempted", Json::Num(1.0)),
                    ("failed", Json::Num(1.0)),
                    ("fail_frac", Json::Num(1.0)),
                    ("metrics", Json::Obj(Vec::new())),
                ]));
            }
        }
    }

    println!(
        "{:<14} {:<28} {:>14} {:<7} {:>12} {:>12} {:>3}",
        "workload", "metric", "median", "unit", "q1", "q3", "n"
    );
    for row in &rows {
        let name = row.get("workload").and_then(Json::as_str).unwrap_or("?");
        let num = |m: &Json, k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        for (metric, m) in row.get("metrics").map_or(&[][..], Json::entries) {
            println!(
                "{name:<14} {metric:<28} {:>14.6} {:<7} {:>12.6} {:>12.6} {:>3}",
                num(m, "value"),
                unit_of(metric),
                num(m, "q1"),
                num(m, "q3"),
                num(m, "n"),
            );
        }
        println!(
            "{name:<14} {:<28} {:>14.6} {:<7}",
            "fail_frac",
            num(row, "fail_frac"),
            "ratio"
        );
    }

    let record = Json::obj(vec![
        ("benchmark", Json::str("pp-benchmark")),
        ("mode", Json::str(mode)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("machine", machine),
        ("correct", Json::Bool(all_correct)),
        ("workloads", Json::Arr(rows)),
    ]);
    let path = args
        .file
        .clone()
        .unwrap_or_else(|| format!("benchmark/out/{mode}-seed{}.json", args.seed));
    std::fs::write(&path, record.pretty()).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("record: {path}");
    Ok(all_correct)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `(median, spread)` of one metric row; spread = (q3 − q1) / median.
fn stat(m: &Json) -> Option<(f64, f64)> {
    let v = m.get("value")?.as_f64()?;
    let q1 = m.get("q1")?.as_f64()?;
    let q3 = m.get("q3")?.as_f64()?;
    Some((v, (q3 - q1) / v.abs().max(1e-300)))
}

/// One row per (metric, workload): how much worse B's median is than A's as
/// a share of A's. An end-to-end metric — universal or the workload's own —
/// is held to its bound wherever both records carry it: `unresolved` when
/// either side's own quartile spread exceeds the bound. Per-layer metrics
/// carry no bound and are listed with their change only.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let by_name = |rec: &Json| -> Vec<(String, Json)> {
        match rec.get("workloads") {
            Some(Json::Arr(rows)) => rows
                .iter()
                .filter_map(|r| Some((r.get("workload")?.as_str()?.to_string(), r.clone())))
                .collect(),
            _ => Vec::new(),
        }
    };
    let (rows_a, rows_b) = (by_name(&a), by_name(&b));
    let mut ok = true;
    println!(
        "{:<14} {:<28} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse", "bound"
    );
    for (name, ra) in &rows_a {
        let Some((_, rb)) = rows_b.iter().find(|(n, _)| n == name) else {
            println!("{name:<14} missing from {b_path}");
            ok = false;
            continue;
        };
        for side in [ra, rb] {
            if side.get("failed").and_then(Json::as_f64).unwrap_or(1.0) > 0.0 {
                println!("{name:<14} {:<28} a correctness gate failed", "fail_frac");
                ok = false;
            }
        }
        for (metric, ma) in ra.get("metrics").map_or(&[][..], Json::entries) {
            let Some(mb) = rb.get("metrics").and_then(|m| m.get(metric)) else {
                println!("{name:<14} {metric:<28} missing from {b_path}");
                ok = false;
                continue;
            };
            let (Some((va, spread_a)), Some((vb, spread_b))) = (stat(ma), stat(mb)) else {
                continue;
            };
            let def = catalog::metric(metric);
            let worse = match def.map(|(d, _)| d.better) {
                Some(Better::Higher) => (va - vb) / va.abs().max(1e-300),
                _ => (vb - va) / va.abs().max(1e-300),
            };
            let bound = def.and_then(|(_, bound)| bound);
            let verdict = match bound {
                None => "",
                Some(bound) if spread_a > bound || spread_b > bound => "unresolved",
                Some(bound) if worse > bound => {
                    ok = false;
                    "OUT OF BOUND"
                }
                Some(_) => "ok",
            };
            let bound = bound.map_or(String::new(), |b| format!("{b:.2}"));
            println!(
                "{name:<14} {metric:<28} {va:>12.6} {vb:>12.6} {:>+8.1}% {bound:>7}  {verdict}",
                worse * 100.0
            );
        }
    }
    Ok(ok)
}
