//! `pp-benchmark`: the repository's benchmark.
//!
//! ```text
//! pp-benchmark --workload W --seed N --seconds S --trace 0|1 [--record FILE]
//! pp-benchmark run [--seed N] [--seconds S] [--trace] [--out FILE]
//! pp-benchmark compare A.json B.json
//! pp-benchmark manifest
//! ```
//!
//! The first form is what the driver calls: one workload, one process (so
//! `peak_rss_mb` is per workload), one JSON object as the last line of
//! stdout. `run` launches that form once per workload as child processes and
//! assembles the run record; see `benchmark/README.md`.

mod adapter;
mod catalog;
mod json;
mod ladder;
mod laps;
mod layers;
mod sheet;
mod suite;
mod trace;

use catalog::{Workload, END_TO_END};
use json::Json;
use sheet::Sheet;
use std::process::ExitCode;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `--record` (single workload) or `--out` (`run`).
    file: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(catalog::RUN_SECONDS),
        trace: false,
        file: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(value("a workload name")?),
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err(format!("--seconds {} is outside (0, 600]", out.seconds));
                }
            }
            "--record" | "--out" => out.file = Some(value("a path")?),
            // `--trace 0|1` from the driver, bare `--trace` from a person.
            "--trace" => {
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(out)
}

/// One workload in this process. Prints the driver's result line last.
fn run_one(w: &'static Workload, args: &Args) -> Result<bool, String> {
    let prepared = laps::prepare(w, args.seed)?;
    let (sheet, attempted, failed, defs): (Sheet, u64, u64, Vec<(&str, &str)>) = if args.trace {
        let out = layers::run_per_layer(w, &prepared, args.seed, args.seconds)?;
        let defs = catalog::per_layer().map(|d| (d.name, d.unit)).collect();
        (out.sheet, out.attempted, out.failed, defs)
    } else {
        let out = laps::run_end_to_end(w, &prepared, args.seconds);
        let defs = END_TO_END.iter().map(|(d, _)| (d.name, d.unit)).collect();
        (out.sheet, out.attempted, out.failed, defs)
    };

    // The result line: every metric the mode declares, by name, with its
    // unit. An end-to-end metric must have been measured; a per-layer metric
    // the workload bypasses reads 0.
    let mut metrics = Vec::new();
    for (name, unit) in &defs {
        let value = match sheet.value(name) {
            Some(v) if v.is_finite() => v,
            Some(v) => return Err(format!("metric {name} is {v}")),
            None if args.trace => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        metrics.push((
            name.to_string(),
            Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::str(*unit)),
            ]),
        ));
    }
    // The record: every metric that was measured, the workload's own
    // end-to-end metrics among them in either mode.
    let rows = END_TO_END
        .iter()
        .map(|(d, _)| d)
        .chain(catalog::per_layer())
        .filter(|d| !sheet.samples(d.name).is_empty())
        .map(|d| (d.name.to_string(), sheet.row(d.name, d.unit)))
        .collect();
    let correct = failed == 0;
    if let Some(path) = &args.file {
        let record = Json::obj(vec![
            ("workload", Json::str(w.name)),
            ("seed", Json::Num(args.seed as f64)),
            ("trace", Json::Bool(args.trace)),
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            (
                "fail_frac",
                Json::Num(failed as f64 / attempted.max(1) as f64),
            ),
            ("datagen_s", Json::Num(prepared.datagen_s)),
            ("metrics", Json::Obj(rows)),
        ]);
        std::fs::write(path, record.pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    for (name, m) in &metrics {
        eprintln!(
            "{:<14} {:<28} {:>14.6} {}",
            w.name,
            name,
            m.get("value").and_then(Json::as_f64).unwrap_or(0.0),
            m.get("unit").and_then(Json::as_str).unwrap_or("")
        );
    }
    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.compact());
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", catalog::benchmark_json().pretty());
            Ok(true)
        }
        Some("compare") => match argv.as_slice() {
            [_, a, b] => suite::compare(a, b),
            _ => Err("usage: pp-benchmark compare A.json B.json".into()),
        },
        Some("run") => parse_args(&argv[1..]).and_then(|a| suite::run_all(&a)),
        _ => parse_args(&argv).and_then(|a| match &a.workload {
            Some(name) => {
                let w = catalog::workload(name).ok_or_else(|| {
                    let known: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload '{name}' (one of {})", known.join(", "))
                })?;
                run_one(w, &a)
            }
            None => suite::run_all(&a),
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pp-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
