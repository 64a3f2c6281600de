//! Golden fitness-trace regression suite.
//!
//! Every (method × dataset) case runs a small seeded decomposition and
//! compares its sweep trace **bitwise** — sweep-kind schedule, per-sweep
//! fitness bit patterns, convergence flag, and an FNV-1a digest of the
//! final factor matrices — against a committed JSON trace under
//! `tests/golden/`. The committed traces were generated from the
//! pre-session monolithic drivers, so any kernel or session refactor that
//! drifts numerics by even one ulp fails loudly here.
//!
//! Kernel results are bit-identical across pool widths (see
//! `tests/thread_parity.rs`), so these traces hold under the CI
//! `PP_NUM_THREADS` matrix.
//!
//! To regenerate after an *intentional* numeric change:
//!
//! ```text
//! PP_UPDATE_GOLDEN=1 cargo test --test golden_traces
//! ```

use parallel_pp::comm::Runtime;
use parallel_pp::core::{
    AlsConfig, AlsReport, AlsSession, ParKind, ParSession, SessionKind, SweepKind,
};
use parallel_pp::datagen::collinearity::{collinearity_tensor, CollinearityConfig};
use parallel_pp::datagen::lowrank::noisy_rank;
use parallel_pp::dtree::TreePolicy;
use parallel_pp::grid::{DistTensor, ProcGrid};
use parallel_pp::tensor::{DenseTensor, Matrix};
use std::path::PathBuf;
use std::sync::Arc;

/// The five methods the golden suite pins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Method {
    /// Exact CP-ALS through the standard dimension tree.
    Dt,
    /// Exact CP-ALS through the multi-sweep dimension tree.
    Msdt,
    /// Pairwise-perturbation CP-ALS (MSDT exact sweeps).
    Pp,
    /// Nonnegative CP (HALS) on MSDT.
    Nncp,
    /// Parallel PP: Algorithm 4 on a 2×2×1 grid, 4 ranks.
    Par,
}

impl Method {
    fn tag(&self) -> &'static str {
        match self {
            Method::Dt => "dt",
            Method::Msdt => "msdt",
            Method::Pp => "pp",
            Method::Nncp => "nncp",
            Method::Par => "par",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dataset {
    /// `noisy_rank(&[12, 10, 11], 4, 0.05, 7)`.
    Lowrank,
    /// Collinearity tensor, s=12, r=3, [0.5, 0.7], seed 3.
    Collin,
    /// Order-4 collinearity tensor, s=24, r=8, [0.5, 0.7], seed 3: every
    /// first-level contraction of an order-4 MSDT, interior modes included.
    Collin4,
}

impl Dataset {
    fn tag(&self) -> &'static str {
        match self {
            Dataset::Lowrank => "lowrank",
            Dataset::Collin => "collin",
            Dataset::Collin4 => "collin4",
        }
    }

    fn tensor(&self) -> DenseTensor {
        let collin = |s, r, order| {
            let cfg = CollinearityConfig {
                s,
                r,
                order,
                lo: 0.5,
                hi: 0.7,
            };
            collinearity_tensor(&cfg, 3).0
        };
        match self {
            Dataset::Lowrank => noisy_rank(&[12, 10, 11], 4, 0.05, 7),
            Dataset::Collin => collin(12, 3, 3),
            Dataset::Collin4 => collin(24, 8, 4),
        }
    }

    /// CP rank used for this dataset's runs.
    fn rank(&self) -> usize {
        match self {
            Dataset::Lowrank => 4,
            Dataset::Collin => 3,
            Dataset::Collin4 => 8,
        }
    }
}

/// Run one golden case, returning the report and the final factors.
fn run_case(method: Method, dataset: Dataset) -> (AlsReport, Vec<Matrix>) {
    let t = dataset.tensor();
    let exact_cfg = AlsConfig::new(dataset.rank())
        .with_max_sweeps(15)
        .with_tol(0.0);
    let pp_cfg = AlsConfig::new(dataset.rank())
        .with_policy(TreePolicy::MultiSweep)
        .with_pp_tol(0.3)
        .with_max_sweeps(30)
        .with_tol(1e-9);
    let (cfg, kind) = match method {
        Method::Dt => (exact_cfg, SessionKind::Exact),
        Method::Msdt => (
            exact_cfg.with_policy(TreePolicy::MultiSweep),
            SessionKind::Exact,
        ),
        Method::Pp => (pp_cfg, SessionKind::Pp),
        Method::Nncp => (
            exact_cfg.with_policy(TreePolicy::MultiSweep),
            SessionKind::NonNeg,
        ),
        Method::Par => {
            let t = Arc::new(t);
            let grid = ProcGrid::new(vec![2, 2, 1]);
            let out = Runtime::new(4).run(move |ctx| {
                let local = DistTensor::from_global(&t, &grid, ctx.rank());
                ParSession::new(ctx, &grid, &local, &pp_cfg, ParKind::Pp).run(ctx)
            });
            let r = out.results.into_iter().next().unwrap();
            return (r.report, r.factors);
        }
    };
    let out = AlsSession::new(&t, &cfg, kind).run();
    (out.report, out.factors)
}

/// FNV-1a 64 over the bit patterns of every factor entry, mode order.
fn factors_digest(factors: &[Matrix]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in factors {
        for &x in f.data() {
            for b in x.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// Serialize a run into the golden JSON format.
fn to_json(method: &str, dataset: &str, report: &AlsReport, factors: &[Matrix]) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"method\": \"{method}\",");
    let _ = writeln!(s, "  \"dataset\": \"{dataset}\",");
    let _ = writeln!(s, "  \"converged\": {},", report.converged);
    let _ = writeln!(
        s,
        "  \"final_fitness_bits\": \"{:016X}\",",
        report.final_fitness.to_bits()
    );
    let _ = writeln!(
        s,
        "  \"factors_fnv\": \"{:016X}\",",
        factors_digest(factors)
    );
    s.push_str("  \"sweeps\": [\n");
    for (i, rec) in report.sweeps.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"kind\": \"{}\", \"fitness_bits\": \"{:016X}\", \"fitness\": {:.12}}}",
            rec.kind.label(),
            rec.fitness.to_bits(),
            rec.fitness
        );
        s.push_str(if i + 1 < report.sweeps.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Extract the first `"key": "value"` occurrence after `from` in `json`.
fn quoted_value<'a>(json: &'a str, key: &str, from: usize) -> Option<(&'a str, usize)> {
    let pat = format!("\"{key}\": \"");
    let start = json[from..].find(&pat)? + from + pat.len();
    let end = json[start..].find('"')? + start;
    Some((&json[start..end], end))
}

/// Parsed golden trace: (kind, fitness bits) pairs plus trailer fields.
struct Golden {
    sweeps: Vec<(String, u64)>,
    converged: bool,
    final_fitness_bits: u64,
    factors_fnv: u64,
}

fn parse_golden(json: &str) -> Golden {
    let (conv, _) = {
        let pat = "\"converged\": ";
        let start = json.find(pat).expect("converged field") + pat.len();
        let end = json[start..].find(',').unwrap() + start;
        (json[start..end].trim() == "true", end)
    };
    let (ffb, _) = quoted_value(json, "final_fitness_bits", 0).expect("final_fitness_bits");
    let (fnv, _) = quoted_value(json, "factors_fnv", 0).expect("factors_fnv");
    let mut sweeps = Vec::new();
    let mut pos = json.find("\"sweeps\"").expect("sweeps array");
    while let Some((kind, after_kind)) = quoted_value(json, "kind", pos) {
        let (bits, after_bits) =
            quoted_value(json, "fitness_bits", after_kind).expect("fitness_bits after kind");
        sweeps.push((kind.to_string(), u64::from_str_radix(bits, 16).unwrap()));
        pos = after_bits;
    }
    Golden {
        sweeps,
        converged: conv,
        final_fitness_bits: u64::from_str_radix(ffb, 16).unwrap(),
        factors_fnv: u64::from_str_radix(fnv, 16).unwrap(),
    }
}

fn golden_path(method: Method, dataset: Dataset) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{}_{}.json", method.tag(), dataset.tag()))
}

/// Verify (or, under PP_UPDATE_GOLDEN=1, rewrite) one golden trace file.
fn check_trace(
    path: &PathBuf,
    label: &str,
    method_tag: &str,
    dataset_tag: &str,
    report: &AlsReport,
    factors: &[Matrix],
) {
    if std::env::var("PP_UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, to_json(method_tag, dataset_tag, report, factors)).unwrap();
        eprintln!("updated {}", path.display());
        return;
    }
    let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing golden trace {} ({e}); regenerate with PP_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    let golden = parse_golden(&json);
    assert_eq!(
        golden.sweeps.len(),
        report.sweeps.len(),
        "{label}: sweep count drifted"
    );
    for (i, (rec, (kind, bits))) in report.sweeps.iter().zip(golden.sweeps.iter()).enumerate() {
        assert_eq!(
            rec.kind.label(),
            kind,
            "{label}: sweep-kind schedule drifted at sweep {i}"
        );
        assert_eq!(
            rec.fitness.to_bits(),
            *bits,
            "{label}: fitness drifted at sweep {i}: {} vs golden {}",
            rec.fitness,
            f64::from_bits(*bits)
        );
    }
    assert_eq!(report.converged, golden.converged, "{label}");
    assert_eq!(
        report.final_fitness.to_bits(),
        golden.final_fitness_bits,
        "{label}: final fitness drifted"
    );
    assert_eq!(
        factors_digest(factors),
        golden.factors_fnv,
        "{label}: final factors drifted"
    );
}

fn check_case(method: Method, dataset: Dataset) {
    let (report, factors) = run_case(method, dataset);
    let path = golden_path(method, dataset);
    check_trace(
        &path,
        &format!("{method:?}/{dataset:?}"),
        method.tag(),
        dataset.tag(),
        &report,
        &factors,
    );
}

macro_rules! golden_case {
    ($name:ident, $method:expr, $dataset:expr) => {
        #[test]
        fn $name() {
            check_case($method, $dataset);
        }
    };
}

/// Sparse golden cases, all on the CSF forest: DT and MSDT over the direct
/// CSF MTTKRP, and PP over the same forest (exact sweeps on the CSF
/// MTTKRP, pair operators from fiber walks). The input never densifies
/// inside the session; the DT traces (at rank 8, a rank-specialised width
/// of the CSF walk) and the MSDT traces (rank 3) pin the sparse MTTKRP
/// kernel, bit for bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SparseDataset {
    /// `powerlaw_sparse(&[24, 20, 16], 800, 1.8, 5)`.
    Powerlaw,
    /// `sparse_lowrank(&[18, 16, 14], 3, 0.06, 6)`.
    Lowrank,
}

impl SparseDataset {
    fn tag(&self) -> &'static str {
        match self {
            SparseDataset::Powerlaw => "powerlaw",
            SparseDataset::Lowrank => "lowrank",
        }
    }

    fn tensor(&self) -> parallel_pp::tensor::sparse::SparseTensor {
        match self {
            SparseDataset::Powerlaw => {
                parallel_pp::datagen::sparse::powerlaw_sparse(&[24, 20, 16], 800, 1.8, 5)
            }
            SparseDataset::Lowrank => {
                parallel_pp::datagen::sparse::sparse_lowrank(&[18, 16, 14], 3, 0.06, 6).0
            }
        }
    }
}

fn run_sparse_case(method: Method, dataset: SparseDataset) -> (AlsReport, Vec<Matrix>) {
    use parallel_pp::core::{AlsSession, SessionKind};
    let sp = dataset.tensor();
    let out = match method {
        Method::Dt => AlsSession::new_sparse(
            &sp,
            &AlsConfig::new(8).with_max_sweeps(10).with_tol(0.0),
            SessionKind::Exact,
        )
        .run(),
        Method::Msdt => AlsSession::new_sparse(
            &sp,
            &AlsConfig::new(3)
                .with_policy(TreePolicy::MultiSweep)
                .with_max_sweeps(10)
                .with_tol(0.0),
            SessionKind::Exact,
        )
        .run(),
        Method::Pp => AlsSession::new_sparse(
            &sp,
            &AlsConfig::new(3)
                .with_policy(TreePolicy::MultiSweep)
                .with_pp_tol(0.5)
                .with_max_sweeps(16)
                .with_tol(0.0),
            SessionKind::Pp,
        )
        .run(),
        other => unreachable!("no sparse golden case for {other:?}"),
    };
    // The traces pin a run that stayed sparse end to end: the ledger holds
    // the forest's TTMs and nothing else — nnz·R·N per MTTKRP of an exact
    // sweep and, per PP-init, three pair walks of (N−1)·nnz·R plus the
    // anchor's fold into 𝓜^(0,1), 2·s₀·s₁·R.
    let (nnz, r, dims) = (sp.nnz() as u64, out.factors[0].cols() as u64, sp.dims());
    let count = |kind| out.report.count(kind) as u64;
    let pp_init = 3 * 2 * nnz * r + 2 * (dims[0] * dims[1]) as u64 * r;
    assert_eq!(
        out.report.stats.ttm_flops,
        count(SweepKind::Exact) * 3 * nnz * r * 3 + count(SweepKind::PpInit) * pp_init,
        "sparse case densified its input"
    );
    (out.report, out.factors)
}

fn check_sparse_case(method: Method, dataset: SparseDataset) {
    let (report, factors) = run_sparse_case(method, dataset);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("sparse_{}_{}.json", method.tag(), dataset.tag()));
    check_trace(
        &path,
        &format!("sparse {method:?}/{dataset:?}"),
        method.tag(),
        &format!("sparse-{}", dataset.tag()),
        &report,
        &factors,
    );
}

macro_rules! sparse_golden_case {
    ($name:ident, $method:expr, $dataset:expr) => {
        #[test]
        fn $name() {
            check_sparse_case($method, $dataset);
        }
    };
}

sparse_golden_case!(sparse_pp_powerlaw, Method::Pp, SparseDataset::Powerlaw);
sparse_golden_case!(sparse_pp_lowrank, Method::Pp, SparseDataset::Lowrank);
sparse_golden_case!(sparse_msdt_powerlaw, Method::Msdt, SparseDataset::Powerlaw);
sparse_golden_case!(sparse_msdt_lowrank, Method::Msdt, SparseDataset::Lowrank);
sparse_golden_case!(sparse_dt_powerlaw, Method::Dt, SparseDataset::Powerlaw);
sparse_golden_case!(sparse_dt_lowrank, Method::Dt, SparseDataset::Lowrank);

/// The sparse PP cases must actually enter the PP regime.
#[test]
fn sparse_pp_cases_reach_pp_regime() {
    for dataset in [SparseDataset::Powerlaw, SparseDataset::Lowrank] {
        let (report, _) = run_sparse_case(Method::Pp, dataset);
        let has_approx = report.sweeps.iter().any(|s| s.kind.label() == "PP-approx");
        assert!(has_approx, "{dataset:?}: sparse PP regime never activated");
    }
}

golden_case!(dt_lowrank, Method::Dt, Dataset::Lowrank);
golden_case!(dt_collin, Method::Dt, Dataset::Collin);
golden_case!(msdt_lowrank, Method::Msdt, Dataset::Lowrank);
golden_case!(msdt_collin, Method::Msdt, Dataset::Collin);
golden_case!(pp_lowrank, Method::Pp, Dataset::Lowrank);
golden_case!(pp_collin, Method::Pp, Dataset::Collin);
golden_case!(nncp_lowrank, Method::Nncp, Dataset::Lowrank);
golden_case!(nncp_collin, Method::Nncp, Dataset::Collin);
golden_case!(par_lowrank, Method::Par, Dataset::Lowrank);
golden_case!(par_collin, Method::Par, Dataset::Collin);
golden_case!(msdt_collin4, Method::Msdt, Dataset::Collin4);
golden_case!(pp_collin4, Method::Pp, Dataset::Collin4);

/// A streamed time-lapse (12×10×8, 3 initial frames, 4 arrivals of 2) at
/// rank 8, two sweeps per window, the incremental cache refresh: pins the
/// evolving-mode-major input, its slice contractions and the in-place cache
/// extension, which no fixed-input case reaches.
fn run_stream_case(method: Method) -> (AlsReport, Vec<Matrix>) {
    use parallel_pp::core::{SessionKind, StreamingSession};
    use parallel_pp::datagen::timelapse::{TimelapseConfig, TimelapseStream, TIME_MODE};
    use parallel_pp::dtree::CacheUpdate;
    let tl = TimelapseConfig {
        height: 12,
        width: 10,
        bands: 8,
        times: 11,
        materials: 3,
        noise: 1e-3,
    };
    let feed = TimelapseStream::new(&tl, 19, 3, 2).unwrap();
    let cfg = AlsConfig::new(8)
        .with_policy(TreePolicy::MultiSweep)
        .with_pp_tol(0.5)
        .with_tol(0.0);
    let kind = match method {
        Method::Msdt => SessionKind::Exact,
        Method::Pp => SessionKind::Pp,
        other => unreachable!("no stream golden case for {other:?}"),
    };
    let mut s = StreamingSession::new(
        &feed.initial(),
        &cfg,
        kind,
        TIME_MODE,
        2,
        CacheUpdate::Incremental,
    );
    s.run_window();
    for i in 0..feed.n_arrivals() {
        s.arrive(&feed.slice(i));
        s.run_window();
    }
    let out = s.finish();
    (out.report, out.factors)
}

fn check_stream_case(method: Method) {
    let (report, factors) = run_stream_case(method);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("stream_{}_timelapse.json", method.tag()));
    check_trace(
        &path,
        &format!("stream {method:?}/timelapse"),
        method.tag(),
        "stream-timelapse",
        &report,
        &factors,
    );
}

#[test]
fn stream_msdt_timelapse() {
    check_stream_case(Method::Msdt);
}

#[test]
fn stream_pp_timelapse() {
    check_stream_case(Method::Pp);
}

/// The PP cases must actually exercise the PP regime, otherwise the golden
/// trace pins nothing interesting — guard against silently losing coverage
/// to a future config tweak.
#[test]
fn pp_cases_reach_pp_regime() {
    for dataset in [Dataset::Lowrank, Dataset::Collin, Dataset::Collin4] {
        let (report, _) = run_case(Method::Pp, dataset);
        let has_init = report.sweeps.iter().any(|s| s.kind.label() == "PP-init");
        let has_approx = report.sweeps.iter().any(|s| s.kind.label() == "PP-approx");
        assert!(
            has_init && has_approx,
            "{dataset:?}: PP regime never activated (init={has_init}, approx={has_approx})"
        );
    }
}
