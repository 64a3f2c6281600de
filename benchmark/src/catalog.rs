//! The benchmark's fixed vocabulary: workloads, metrics, units, bounds.
//! `BENCHMARK.json` is printed from these tables (`pp-benchmark manifest`).

use crate::json::Json;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics with the share of the parent's median each may worsen
/// by. Every one applies to every workload and is never 0 (the driver's
/// contract).
pub const END_TO_END: &[(MetricDef, f64)] = &[
    (lo("setup_s", "s"), 0.25),
    (lo("solve_s", "s"), 0.25),
    (lo("peak_rss_mb", "MiB"), 0.20),
];

/// End-to-end metrics only some workloads have. The driver wants every
/// end-to-end metric on every workload, so `BENCHMARK.json` lists these with
/// the per-layer metrics; `compare` holds each to `WORKLOAD_BOUND` wherever a
/// record carries it.
pub const WORKLOAD_END_TO_END: &[MetricDef] = &[
    lo("time_to_fit_s", "s"),
    lo("sweep_exact_s", "s"),
    lo("sweep_pp_init_s", "s"),
    lo("sweep_pp_approx_s", "s"),
    lo("arrive_s", "s"),
    hi("jobs_per_s", "1/s"),
    hi("thread_speedup", "ratio"),
];
pub const WORKLOAD_BOUND: f64 = 0.25;

pub const LAYERS: &[MetricDef] = &[
    // pp-tensor: the kernel ladder.
    lo("tensor.ttm_last_ms", "ms"),
    lo("tensor.ttm_first_ms", "ms"),
    hi("tensor.ttm_gflops", "GF/s"),
    hi("tensor.ttm_thread_speedup", "ratio"),
    lo("tensor.mttv_ms", "ms"),
    hi("tensor.mttv_gbps", "GB/s"),
    lo("tensor.permute_ms", "ms"),
    lo("tensor.solve_us", "us"),
    lo("tensor.hadamard_us", "us"),
    lo("tensor.gram_us", "us"),
    lo("tensor.sparse_mttkrp_ms", "ms"),
    hi("tensor.sparse_mnnz_per_s", "Mnnz/s"),
    hi("tensor.sparse_thread_speedup", "ratio"),
    lo("tensor.csf_build_ms", "ms"),
    lo("tensor.csf_ttm_ms", "ms"),
    lo("tensor.ss_mttv_ms", "ms"),
    lo("tensor.ttmplan_build_ms", "ms"),
    // pp-dtree: spans of the replay.
    lo("dtree.input_build_s", "s"),
    lo("dtree.mttkrp_ms", "ms"),
    lo("dtree.mttkrp_mode0_ms", "ms"),
    lo("dtree.mttkrp_mode1_ms", "ms"),
    lo("dtree.mttkrp_mode2_ms", "ms"),
    lo("dtree.mttkrp_mode3_ms", "ms"),
    lo("dtree.tree_self_frac", "ratio"),
    lo("dtree.pp_build_ms", "ms"),
    lo("dtree.pp_correct_ms", "ms"),
    lo("dtree.input_extend_ms", "ms"),
    lo("dtree.extend_share", "ratio"),
    lo("dtree.cache_mb", "MiB"),
    lo("dtree.pp_ops_mb", "MiB"),
    // pp-core: sessions.
    lo("core.step_exact_ms", "ms"),
    lo("core.step_pp_init_ms", "ms"),
    lo("core.step_pp_approx_ms", "ms"),
    lo("core.sweep_p90_s", "s"),
    lo("core.finish_ms", "ms"),
    lo("core.cold_lap_ratio", "ratio"),
    lo("core.session_over_replay", "ratio"),
    lo("core.n_exact", "count"),
    lo("core.n_pp_init", "count"),
    hi("core.n_pp_approx", "count"),
    lo("core.sweeps_to_fit", "count"),
    hi("core.fit_max", "ratio"),
    hi("core.fit_final", "ratio"),
    lo("core.stream_window_ms", "ms"),
    lo("core.ckpt_bytes", "bytes"),
    lo("core.ckpt_write_ms", "ms"),
    lo("core.ckpt_resume_ms", "ms"),
    lo("core.par_step_ms", "ms"),
    lo("core.par_new_s", "s"),
    // pp-grid / pp-comm.
    lo("grid.from_global_s", "s"),
    lo("comm.ledger_msgs", "count"),
    lo("comm.ledger_words", "words"),
    lo("comm.wire_msgs", "count"),
    lo("comm.wire_words", "words"),
    lo("comm.allreduce_us", "us"),
    lo("comm.reduce_scatter_us", "us"),
    lo("comm.allgather_us", "us"),
    lo("comm.barrier_us", "us"),
    lo("comm.collective_share", "ratio"),
    lo("comm.p2p_over_rendezvous", "ratio"),
    // pp-serve.
    lo("serve.parse_us", "us"),
    lo("serve.batch_s", "s"),
    lo("serve.sequential_s", "s"),
    lo("serve.interleave_overhead", "ratio"),
    hi("serve.driver_speedup", "ratio"),
    lo("serve.turns", "count"),
    lo("serve.job_p50_s", "s"),
    lo("serve.job_max_s", "s"),
    lo("serve.max_kernel_share", "ratio"),
    // pp-datagen: never program time.
    lo("datagen.build_s", "s"),
    // The traced lap itself.
    lo("trace_overhead_frac", "ratio"),
    hi("replay_parity", "count"),
    hi("replay_coverage", "ratio"),
    hi("replay_sweeps", "count"),
];

/// What `BENCHMARK.json` lists as `per_layer`, and `--trace 1` reports.
pub fn per_layer() -> impl Iterator<Item = &'static MetricDef> {
    WORKLOAD_END_TO_END.iter().chain(LAYERS)
}

/// A metric's definition and, for an end-to-end metric, its bound.
pub fn metric(name: &str) -> Option<(&'static MetricDef, Option<f64>)> {
    let universal = END_TO_END.iter().map(|(d, bound)| (d, Some(*bound)));
    let workload = WORKLOAD_END_TO_END
        .iter()
        .map(|d| (d, Some(WORKLOAD_BOUND)));
    universal
        .chain(workload)
        .chain(LAYERS.iter().map(|d| (d, None)))
        .find(|(d, _)| d.name == name)
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// One `AlsSession` per lap.
    Session,
    /// One `ParSession` per rank on this grid, p2p backend.
    Dist { grid: &'static [usize] },
    /// One `StreamingSession` per lap over the arrival schedule.
    Stream,
    /// One `run_batch` per lap with this admission window.
    Serve { window: usize },
}

#[derive(Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub manifest: &'static str,
    pub family: Family,
    /// Sweep budget of the convergence laps the traced run adds: long enough
    /// for `time_to_fit_s` and for PP's fitness to peak and decay. 0 = the
    /// ordinary lap serves.
    pub fit_sweeps: usize,
    /// The trace's best fitness must reach this.
    pub fit_floor: f64,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "dense3-msdt",
        why: "256^3 dense MSDT: TTM/packed GEMM carries ~90% of a sweep; bypasses PP, sparse, comm and serve",
        manifest: include_str!("../workloads/dense3-msdt.manifest"),
        family: Family::Session,
        fit_sweeps: 24,
        fit_floor: 0.8,
    },
    Workload {
        name: "dense4-pp",
        why: "56^4 collinear PP: exact, PP-init and PP-approx sweeps all occur; pair-operator build and corrections ride on the first-level TTMs",
        manifest: include_str!("../workloads/dense4-pp.manifest"),
        family: Family::Session,
        fit_sweeps: 60,
        fit_floor: 0.5,
    },
    Workload {
        name: "sparse3-dt",
        why: "512x512x256 at 0.8% density: the direct CSF MTTKRP is ~97% of a sweep; bypasses GEMM, the semi-sparse chain and PP",
        manifest: include_str!("../workloads/sparse3-dt.manifest"),
        family: Family::Session,
        fit_sweeps: 120,
        fit_floor: 0.001,
    },
    Workload {
        name: "sparse3-pp",
        why: "the sparse3-dt tensor through the semi-sparse TTM chain and dense pair operators; where sparse PP must earn its keep",
        manifest: include_str!("../workloads/sparse3-pp.manifest"),
        family: Family::Session,
        fit_sweeps: 24,
        fit_floor: 0.001,
    },
    Workload {
        name: "dist3-p2p",
        why: "the dense3 tensor on a 2x1x1 grid, standard tree, p2p backend: the only path through pp-grid, pp-comm and ParSession",
        manifest: include_str!("../workloads/dist3-p2p.manifest"),
        family: Family::Dist { grid: &[2, 1, 1] },
        fit_sweeps: 20,
        fit_floor: 0.8,
    },
    Workload {
        name: "stream4-incr",
        why: "64x64x32x52 time-lapse in 12 arrivals: absorbing a slice dominates and grows with the extent; short sweeps show session overhead",
        manifest: include_str!("../workloads/stream4-incr.manifest"),
        family: Family::Stream,
        fit_sweeps: 0,
        fit_floor: 0.5,
    },
    Workload {
        name: "serve-mix",
        why: "12 tenants of every method share one pool through the scheduler: no kernel dominates, so scheduler and overhead regressions show fully",
        manifest: include_str!("../workloads/serve-mix.manifest"),
        family: Family::Serve { window: 4 },
        fit_sweeps: 0,
        fit_floor: 0.0,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The measuring time one driver run gets, and the default of `run`.
pub const RUN_SECONDS: u32 = 12;

fn better(b: Better) -> Json {
    Json::str(match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    })
}

/// `BENCHMARK.json`, exactly the keys the driver's contract names.
pub fn benchmark_json() -> Json {
    Json::obj(vec![
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|(d, bound)| {
                        Json::obj(vec![
                            ("name", Json::str(d.name)),
                            ("unit", Json::str(d.unit)),
                            ("better", better(d.better)),
                            ("bound", Json::Num(*bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .map(|d| {
                        Json::obj(vec![
                            ("name", Json::str(d.name)),
                            ("unit", Json::str(d.unit)),
                            ("better", better(d.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Substitute `{seed}` and `{seed+K}` in a manifest.
pub fn instantiate(manifest: &str, seed: u64) -> String {
    let mut out = String::with_capacity(manifest.len());
    let mut rest = manifest;
    while let Some(at) = rest.find("{seed") {
        out.push_str(&rest[..at]);
        let tail = &rest[at + 5..];
        let close = tail.find('}').expect("unclosed {seed placeholder");
        let offset: u64 = match &tail[..close] {
            "" => 0,
            plus => plus
                .strip_prefix('+')
                .and_then(|k| k.parse().ok())
                .expect("placeholder is {seed} or {seed+K}"),
        };
        out.push_str(&(seed + offset).to_string());
        rest = &tail[close + 1..];
    }
    out.push_str(rest);
    out
}
