//! Job specifications and the plain-text jobs manifest.
//!
//! A manifest is line-oriented: blank lines and `#` comments are ignored,
//! and every remaining line declares one job as `job` followed by
//! space-separated `key=value` tokens:
//!
//! ```text
//! # name      dataset                         method/config
//! job name=chem  dataset=lowrank dims=16x14x15 gen-rank=4 noise=0.05 data-seed=3 \
//!     method=pp rank=4 sweeps=40 tol=1e-7 pp-tol=0.3 seed=42
//! job name=imgs  dataset=collinearity s=14 r=4 lo=0.5 hi=0.7 data-seed=5 method=msdt rank=4
//! job name=live  dataset=timelapse height=12 width=10 bands=8 times=9 materials=3 \
//!     stream=on initial-times=3 arrive=2 sweeps-per-arrival=4 update=incremental method=pp
//! ```
//!
//! (No line continuations — the `\` above is for readability only.)
//! Unknown keys, unknown dataset/method values, and unparsable numbers are
//! hard errors naming the offending line and token — no silent fallbacks.
//!
//! The same vocabulary is the `ppcp` command line: `--key value` there is
//! the token `key=value` here, both read by [`JobSpec::from_tokens`], so a
//! CLI run *is* a one-job manifest. The keys (defaults are a manifest
//! line's; `ppcp` applies its own presets first):
//!
//! | keys | meaning |
//! |------|---------|
//! | `method` | `dt\|msdt\|pp\|nncp` (sparse and stream jobs: not `nncp`; `pp`: order ≥ 3) |
//! | `rank` `sweeps` `tol` `pp-tol` `seed` | CP rank, sweep limit, Δ, PP ε, factor-init seed |
//! | `threads` | per-job pool width (manifest only — `ppcp --threads` pins the run) |
//! | `dataset` | one of [`DATASET_NAMES`]; `chemistry` and `coil` have a fixed size |
//! | `data-seed` | generator seed, every dataset but `coil` |
//! | `dims` `gen-rank` `noise` | `lowrank`; `dims` `gen-rank` `density` for `sparse-lowrank`; `dims` `nnz` `skew` for `sparse-powerlaw` |
//! | `s` `r` `order` `lo` `hi` | `collinearity` |
//! | `height` `width` `bands` `times` `materials` `noise` | `timelapse` |
//! | `stream` `initial-times` `arrive` `sweeps-per-arrival` `update` | the arrival schedule of a streaming `timelapse` job |
//! | `name` `policy` `priority` `deadline` `fail-after` | scheduler-only (manifest only) |

use pp_core::{AlsConfig, SessionKind};
use pp_datagen::collinearity::CollinearityConfig;
use pp_datagen::timelapse::{TimelapseConfig, TimelapseStream};
use pp_dtree::{CacheUpdate, TreePolicy};
use pp_tensor::DenseTensor;

/// Which driver method a job runs (the `ppcp --method` vocabulary).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobMethod {
    /// Exact ALS, standard dimension tree.
    Dt,
    /// Exact ALS, multi-sweep dimension tree.
    Msdt,
    /// Pairwise-perturbation ALS (MSDT exact sweeps).
    Pp,
    /// Nonnegative CP (HALS), MSDT.
    Nncp,
}

impl JobMethod {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "dt" => Ok(JobMethod::Dt),
            "msdt" => Ok(JobMethod::Msdt),
            "pp" => Ok(JobMethod::Pp),
            "nncp" => Ok(JobMethod::Nncp),
            other => Err(format!("unknown method '{other}' (dt|msdt|pp|nncp)")),
        }
    }

    /// The session update rule this method maps to.
    pub fn session_kind(&self) -> SessionKind {
        match self {
            JobMethod::Dt | JobMethod::Msdt => SessionKind::Exact,
            JobMethod::Pp => SessionKind::Pp,
            JobMethod::Nncp => SessionKind::NonNeg,
        }
    }

    /// The dimension-tree policy this method maps to.
    pub fn policy(&self) -> TreePolicy {
        match self {
            JobMethod::Dt => TreePolicy::Standard,
            _ => TreePolicy::MultiSweep,
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            JobMethod::Dt => "dt",
            JobMethod::Msdt => "msdt",
            JobMethod::Pp => "pp",
            JobMethod::Nncp => "nncp",
        }
    }
}

/// How a job's input tensor is produced.
#[derive(Clone, Debug, PartialEq)]
pub enum DatasetSpec {
    /// `noisy_rank(dims, gen_rank, noise, seed)`.
    Lowrank {
        dims: Vec<usize>,
        gen_rank: usize,
        noise: f64,
        seed: u64,
    },
    /// Collinearity tensor (paper §V-A).
    Collinearity {
        s: usize,
        r: usize,
        order: usize,
        lo: f64,
        hi: f64,
        seed: u64,
    },
    /// `powerlaw_sparse(dims, nnz, skew, seed)` — a power-law
    /// user×item×time style sampler. `nnz` is the sample count; duplicate
    /// draws merge, so the stored nonzero count may land slightly below it.
    SparsePowerlaw {
        dims: Vec<usize>,
        nnz: usize,
        skew: f64,
        seed: u64,
    },
    /// `sparse_lowrank(dims, gen_rank, density, seed)` — a planted CP
    /// model observed on a uniform random coordinate set of the given
    /// density.
    SparseLowrank {
        dims: Vec<usize>,
        gen_rank: usize,
        density: f64,
        seed: u64,
    },
    /// Density-fitting surrogate at its one size in use, 640 × 40 × 40
    /// (auxiliary × orbital²).
    Chemistry { seed: u64 },
    /// COIL-style image stack at its one size in use, 32 × 32 × 3 × 144
    /// (6 objects × 24 poses); the renderer is deterministic, so there is
    /// no seed.
    Coil,
    /// Time-lapse hyperspectral surrogate (`height × width × bands ×
    /// times`) — the only dataset that can also feed streaming jobs
    /// (`stream=on`), arriving slice-by-slice along the time mode.
    Timelapse {
        height: usize,
        width: usize,
        bands: usize,
        times: usize,
        materials: usize,
        noise: f64,
        seed: u64,
    },
}

// `chemistry` and `coil` have one size in use, so constants rather than
// keys: orbital / auxiliary extents; image size, objects, poses per object.
const CHEMISTRY_ORB: usize = 40;
const CHEMISTRY_AUX: usize = 640;
const COIL_SIZE: usize = 32;
const COIL_OBJECTS: usize = 6;
const COIL_POSES: usize = 24;

impl DatasetSpec {
    /// The `dataset=` name of this spec.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetSpec::Lowrank { .. } => "lowrank",
            DatasetSpec::Collinearity { .. } => "collinearity",
            DatasetSpec::Chemistry { .. } => "chemistry",
            DatasetSpec::Coil => "coil",
            DatasetSpec::Timelapse { .. } => "timelapse",
            DatasetSpec::SparsePowerlaw { .. } => "sparse-powerlaw",
            DatasetSpec::SparseLowrank { .. } => "sparse-lowrank",
        }
    }

    /// Mode extents of the tensor this spec builds (a streaming timelapse:
    /// of the full horizon).
    pub fn dims(&self) -> Vec<usize> {
        match self {
            DatasetSpec::Lowrank { dims, .. }
            | DatasetSpec::SparsePowerlaw { dims, .. }
            | DatasetSpec::SparseLowrank { dims, .. } => dims.clone(),
            DatasetSpec::Collinearity { s, order, .. } => vec![*s; *order],
            DatasetSpec::Chemistry { .. } => vec![CHEMISTRY_AUX, CHEMISTRY_ORB, CHEMISTRY_ORB],
            DatasetSpec::Coil => vec![COIL_SIZE, COIL_SIZE, 3, COIL_OBJECTS * COIL_POSES],
            DatasetSpec::Timelapse {
                height,
                width,
                bands,
                times,
                ..
            } => vec![*height, *width, *bands, *times],
        }
    }

    /// Whether this spec materializes a sparse tensor (CSF path).
    pub fn is_sparse(&self) -> bool {
        matches!(
            self,
            DatasetSpec::SparsePowerlaw { .. } | DatasetSpec::SparseLowrank { .. }
        )
    }

    /// Materialize a dense tensor. May panic on degenerate parameters —
    /// the scheduler isolates that per job. Panics on sparse specs: those
    /// build through [`DatasetSpec::build_sparse`] and never densify.
    pub fn build(&self) -> DenseTensor {
        match self {
            DatasetSpec::Lowrank {
                dims,
                gen_rank,
                noise,
                seed,
            } => pp_datagen::lowrank::noisy_rank(dims, *gen_rank, *noise, *seed),
            DatasetSpec::Collinearity { seed, .. } => {
                pp_datagen::collinearity::collinearity_tensor(&self.collinearity_config(), *seed).0
            }
            DatasetSpec::Chemistry { seed } => pp_datagen::chemistry::density_fitting_tensor(
                &pp_datagen::chemistry::ChemistryConfig {
                    n_orb: CHEMISTRY_ORB,
                    n_aux: CHEMISTRY_AUX,
                    ..Default::default()
                },
                *seed,
            ),
            DatasetSpec::Coil => pp_datagen::coil::coil_tensor(&pp_datagen::coil::CoilConfig {
                size: COIL_SIZE,
                objects: COIL_OBJECTS,
                poses: COIL_POSES,
            }),
            DatasetSpec::Timelapse { seed, .. } => {
                pp_datagen::timelapse::timelapse_tensor(&self.timelapse_config(), *seed)
            }
            other => panic!("sparse dataset {other:?} builds via build_sparse, not densify"),
        }
    }

    /// Materialize a sparse tensor. Panics on dense specs.
    pub fn build_sparse(&self) -> pp_tensor::sparse::SparseTensor {
        match self {
            DatasetSpec::SparsePowerlaw {
                dims,
                nnz,
                skew,
                seed,
            } => pp_datagen::sparse::powerlaw_sparse(dims, *nnz, *skew, *seed),
            DatasetSpec::SparseLowrank {
                dims,
                gen_rank,
                density,
                seed,
            } => pp_datagen::sparse::sparse_lowrank(dims, *gen_rank, *density, *seed).0,
            other => panic!("dense dataset {other:?} has no sparse build"),
        }
    }

    /// Refuse what the generator would assert on across keys (one key's
    /// own range is checked as the token is read).
    fn validate(&self) -> Result<(), String> {
        match self {
            DatasetSpec::Collinearity { .. } => self.collinearity_config().validate(),
            DatasetSpec::Timelapse { .. } => self.timelapse_config().validate(),
            _ => Ok(()),
        }
    }

    /// The generator config of a [`DatasetSpec::Collinearity`] spec.
    /// Panics on other variants (callers gate on the variant first).
    fn collinearity_config(&self) -> CollinearityConfig {
        match self {
            DatasetSpec::Collinearity {
                s,
                r,
                order,
                lo,
                hi,
                ..
            } => CollinearityConfig {
                s: *s,
                r: *r,
                order: *order,
                lo: *lo,
                hi: *hi,
            },
            other => panic!("dataset {other:?} is not a collinearity tensor"),
        }
    }

    /// The generator config of a [`DatasetSpec::Timelapse`] spec. Panics
    /// on other variants (callers gate on the variant first).
    fn timelapse_config(&self) -> TimelapseConfig {
        match self {
            DatasetSpec::Timelapse {
                height,
                width,
                bands,
                times,
                materials,
                noise,
                ..
            } => TimelapseConfig {
                height: *height,
                width: *width,
                bands: *bands,
                times: *times,
                materials: *materials,
                noise: *noise,
            },
            other => panic!("dataset {other:?} is not a timelapse"),
        }
    }

    /// A-priori nonzero count for sparse specs (sample-count upper bound
    /// for the power-law sampler), None for dense ones.
    pub fn est_nnz(&self) -> Option<usize> {
        match self {
            DatasetSpec::SparsePowerlaw { nnz, .. } => Some(*nnz),
            DatasetSpec::SparseLowrank { dims, density, .. } => {
                let volume: usize = dims.iter().product();
                Some(((volume as f64) * density).round() as usize)
            }
            _ => None,
        }
    }
}

/// Scheduling class of a job (`policy=` manifest key). Selection is
/// score-based with aging — see `crate::scheduler` for the exact rule —
/// so every class is starvation-free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Round-robin (the default): all jobs share turns fairly.
    Rr,
    /// Higher [`JobSpec::priority`] steps first, aged so low-priority
    /// jobs cannot starve.
    Priority,
    /// Earliest [`JobSpec::deadline`] (in scheduler turns) steps first.
    Deadline,
}

impl SchedPolicy {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "rr" => Ok(SchedPolicy::Rr),
            "priority" => Ok(SchedPolicy::Priority),
            "deadline" => Ok(SchedPolicy::Deadline),
            other => Err(format!("unknown policy '{other}' (rr|priority|deadline)")),
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            SchedPolicy::Rr => "rr",
            SchedPolicy::Priority => "priority",
            SchedPolicy::Deadline => "deadline",
        }
    }
}

/// Arrival schedule of a streaming job (`stream=on`): how the time-lapse
/// horizon is carved and how many sweeps each arrival's window gets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamSpec {
    /// Time points served up front (`initial-times=`).
    pub initial: usize,
    /// Time points per arriving slice (`arrive=`).
    pub arrive: usize,
    /// Sweep budget per window, the initial window included
    /// (`sweeps-per-arrival=`).
    pub sweeps_per_arrival: usize,
    /// Incremental cache delta-extension or the recompute oracle
    /// (`update=incremental|recompute`) — bit-identical either way.
    pub update: CacheUpdate,
}

/// One tenant's decomposition request.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Human-readable identifier (reported in traces and results).
    pub name: String,
    pub method: JobMethod,
    pub dataset: DatasetSpec,
    /// CP rank `R`.
    pub rank: usize,
    pub max_sweeps: usize,
    pub tol: f64,
    pub pp_tol: f64,
    /// Factor-initialization seed.
    pub seed: u64,
    /// Per-job pool-width pin (None follows the process default). With
    /// more than one driver thread the pin is ignored — concurrent pins of
    /// different widths would contradict each other — which is numerically
    /// safe: the pool width is a pure performance knob.
    pub threads: Option<usize>,
    /// Scheduling class (`policy=rr|priority|deadline`).
    pub policy: SchedPolicy,
    /// Weight for [`SchedPolicy::Priority`] (higher steps first).
    pub priority: u64,
    /// Deadline in scheduler turns for [`SchedPolicy::Deadline`]
    /// (smaller = more urgent; the default is least urgent).
    pub deadline: u64,
    /// Fault injection for tests (`fail-after=N`): panic the job's turn
    /// after its `N`-th sweep completes, exercising the failed-step path.
    pub fail_after: Option<usize>,
    /// Streaming arrival schedule (`stream=on`); requires a
    /// [`DatasetSpec::Timelapse`] dataset. `None` runs the ordinary batch
    /// session over the fully materialized tensor.
    pub stream: Option<StreamSpec>,
}

impl JobSpec {
    /// The defaults a manifest line starts from.
    pub fn new(name: impl Into<String>) -> Self {
        JobSpec {
            name: name.into(),
            method: JobMethod::Msdt,
            dataset: DatasetSpec::Lowrank {
                dims: vec![16, 14, 15],
                gen_rank: 4,
                noise: 0.05,
                seed: 7,
            },
            rank: 8,
            max_sweeps: 50,
            tol: 1e-5,
            pp_tol: 0.1,
            seed: 42,
            threads: None,
            policy: SchedPolicy::Rr,
            priority: 0,
            deadline: u64::MAX,
            fail_after: None,
            stream: None,
        }
    }

    /// Materialize the arrival feed of a streaming job. Errors on
    /// non-streaming specs and on schedules the horizon cannot satisfy
    /// (mirroring [`TimelapseStream::new`]'s validation).
    pub fn build_stream(&self) -> Result<TimelapseStream, String> {
        let stream = self
            .stream
            .ok_or_else(|| format!("job '{}' has no stream schedule", self.name))?;
        let DatasetSpec::Timelapse { seed, .. } = &self.dataset else {
            return Err(format!(
                "job '{}': streaming requires dataset=timelapse",
                self.name
            ));
        };
        TimelapseStream::new(
            &self.dataset.timelapse_config(),
            *seed,
            stream.initial,
            stream.arrive,
        )
    }

    /// Conservative cache-memory estimate (f64 elements) used by the
    /// scheduler's admission control *before* the session exists: twice
    /// the largest first-level intermediate (the dimension-tree chain
    /// holds the first level plus strictly smaller children, and MSDT may
    /// retain two mode-sets across a sweep boundary), plus the PP pair
    /// operators and anchors for PP jobs.
    pub fn est_cache_elems(&self) -> usize {
        // Sparse jobs scale with the nonzero count, density-aware by
        // construction: for the planted sparse model `nnz = volume ·
        // density`.
        let dims = self.dataset.dims();
        if let Some(nnz) = self.dataset.est_nnz() {
            let order = dims.len();
            // Every method holds the CSF forest: one fiber tree per mode,
            // each at most `order` index levels of `nnz` entries plus the
            // value array — and no dimension-tree cache at all (the direct
            // kernel bypasses the tree).
            let forest = order * (order + 1) * nnz;
            // PP walks its pair operators out of the forest: dense
            // s_i·s_j·R blocks (operator-sized, not input-sized) plus the
            // s_i·R anchors.
            if self.method == JobMethod::Pp {
                return forest + self.pp_operator_elems();
            }
            return forest;
        }
        // Streaming jobs grow toward the full horizon (`dims` is the final
        // extent), so the reservation is sized for it up front.
        let total: usize = dims.iter().product();
        let min_dim = dims.iter().copied().min().unwrap_or(1).max(1);
        let mut est = 2 * (total / min_dim) * self.rank;
        if self.method == JobMethod::Pp {
            est += self.pp_operator_elems();
        }
        est
    }

    /// The PP operators of this job's dataset, in f64 elements: a pair
    /// operator `s_i·s_j·R` per mode pair and an anchor `s_i·R` per mode.
    fn pp_operator_elems(&self) -> usize {
        let dims = self.dataset.dims();
        let mut est = 0;
        for (i, &si) in dims.iter().enumerate() {
            est += si * self.rank; // anchor Mp^(i)
            for &sj in dims.iter().skip(i + 1) {
                est += si * sj * self.rank; // pair operator
            }
        }
        est
    }

    /// The `AlsConfig` this job runs under.
    pub fn als_config(&self) -> AlsConfig {
        let mut cfg = AlsConfig::new(self.rank)
            .with_policy(self.method.policy())
            .with_max_sweeps(self.max_sweeps)
            .with_tol(self.tol)
            .with_pp_tol(self.pp_tol)
            .with_seed(self.seed);
        if let Some(t) = self.threads {
            cfg = cfg.with_threads(t);
        }
        cfg
    }
}

/// The dataset vocabulary — of manifests and of `ppcp --dataset` alike.
pub const DATASET_NAMES: &str =
    "lowrank|collinearity|chemistry|coil|timelapse|sparse-powerlaw|sparse-lowrank";

fn parse_num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse()
        .map_err(|e| format!("invalid value for {key}: {e}"))
}

/// A count key that must be at least 1.
fn parse_positive(key: &str, v: &str) -> Result<usize, String> {
    match parse_num(key, v)? {
        0 => Err(format!("{key} must be at least 1")),
        n => Ok(n),
    }
}

/// A real key that must be a number `>= 0` (NaN is refused; `finite`
/// refuses infinity too).
fn parse_nonneg(key: &str, v: &str, finite: bool) -> Result<f64, String> {
    let x: f64 = parse_num(key, v)?;
    if x >= 0.0 && (x.is_finite() || !finite) {
        Ok(x)
    } else {
        let what = if finite {
            "a finite number"
        } else {
            "a number"
        };
        Err(format!("{key} must be {what} >= 0, got {x}"))
    }
}

/// Parse `AxBxC` dims.
fn parse_dims(v: &str) -> Result<Vec<usize>, String> {
    let dims: Result<Vec<usize>, _> = v.split('x').map(|d| d.parse::<usize>()).collect();
    match dims {
        Ok(d) if d.len() >= 2 && !d.contains(&0) => Ok(d),
        _ => Err(format!(
            "invalid dims '{v}' (expected e.g. 16x14x15, every extent at least 1)"
        )),
    }
}

/// Dataset keys collected as tokens stream by, assembled into a
/// [`DatasetSpec`] once the whole line is read (so key order within the
/// line does not matter).
struct DatasetKeys {
    dataset: String,
    dims: Vec<usize>,
    gen_rank: usize,
    noise: f64,
    data_seed: u64,
    s: usize,
    r: usize,
    order: usize,
    lo: f64,
    hi: f64,
    nnz: usize,
    skew: f64,
    density: f64,
    height: usize,
    width: usize,
    bands: usize,
    times: usize,
    materials: usize,
    stream: bool,
    initial_times: usize,
    arrive: usize,
    sweeps_per_arrival: usize,
    update: CacheUpdate,
}

impl Default for DatasetKeys {
    fn default() -> Self {
        DatasetKeys {
            dataset: "lowrank".into(),
            dims: vec![16, 14, 15],
            gen_rank: 4,
            noise: 0.05,
            data_seed: 7,
            s: 14,
            r: 4,
            order: 3,
            lo: 0.5,
            hi: 0.7,
            nnz: 2000,
            skew: 2.0,
            density: 0.01,
            height: 12,
            width: 10,
            bands: 8,
            times: 9,
            materials: 3,
            stream: false,
            initial_times: 3,
            arrive: 2,
            sweeps_per_arrival: 4,
            update: CacheUpdate::Incremental,
        }
    }
}

impl DatasetKeys {
    fn into_spec(self) -> DatasetSpec {
        match self.dataset.as_str() {
            "lowrank" => DatasetSpec::Lowrank {
                dims: self.dims,
                gen_rank: self.gen_rank,
                noise: self.noise,
                seed: self.data_seed,
            },
            "collinearity" => DatasetSpec::Collinearity {
                s: self.s,
                r: self.r,
                order: self.order,
                lo: self.lo,
                hi: self.hi,
                seed: self.data_seed,
            },
            "chemistry" => DatasetSpec::Chemistry {
                seed: self.data_seed,
            },
            "coil" => DatasetSpec::Coil,
            "sparse-powerlaw" => DatasetSpec::SparsePowerlaw {
                dims: self.dims,
                nnz: self.nnz,
                skew: self.skew,
                seed: self.data_seed,
            },
            "timelapse" => DatasetSpec::Timelapse {
                height: self.height,
                width: self.width,
                bands: self.bands,
                times: self.times,
                materials: self.materials,
                noise: self.noise,
                seed: self.data_seed,
            },
            _ => DatasetSpec::SparseLowrank {
                dims: self.dims,
                gen_rank: self.gen_rank,
                density: self.density,
                seed: self.data_seed,
            },
        }
    }
}

/// Apply one `key=value` token to the job being assembled. Errors are
/// plain messages; the caller wraps them with the line number and the
/// offending token.
fn apply_token(
    job: &mut JobSpec,
    dk: &mut DatasetKeys,
    key: &str,
    value: &str,
) -> Result<(), String> {
    match key {
        "name" => job.name = value.to_string(),
        "method" => job.method = JobMethod::parse(value)?,
        "dataset" => {
            if !DATASET_NAMES.split('|').any(|name| name == value) {
                return Err(format!("unknown dataset '{value}' ({DATASET_NAMES})"));
            }
            dk.dataset = value.to_string()
        }
        "dims" => dk.dims = parse_dims(value)?,
        "gen-rank" => dk.gen_rank = parse_positive(key, value)?,
        "noise" => dk.noise = parse_nonneg(key, value, true)?,
        "data-seed" => dk.data_seed = parse_num(key, value)?,
        "s" => dk.s = parse_positive(key, value)?,
        "r" => dk.r = parse_positive(key, value)?,
        "order" => dk.order = parse_num(key, value)?,
        "lo" => dk.lo = parse_num(key, value)?,
        "hi" => dk.hi = parse_num(key, value)?,
        "nnz" => dk.nnz = parse_positive(key, value)?,
        "skew" => {
            dk.skew = parse_num(key, value)?;
            if dk.skew.is_nan() || dk.skew < 1.0 {
                return Err(format!("skew must be at least 1.0, got {}", dk.skew));
            }
        }
        "density" => {
            dk.density = parse_num(key, value)?;
            if !(dk.density > 0.0 && dk.density <= 1.0) {
                return Err(format!("density must be in (0, 1], got {}", dk.density));
            }
        }
        "height" => dk.height = parse_positive(key, value)?,
        "width" => dk.width = parse_positive(key, value)?,
        "bands" => dk.bands = parse_positive(key, value)?,
        "times" => dk.times = parse_positive(key, value)?,
        "materials" => dk.materials = parse_positive(key, value)?,
        "stream" => {
            dk.stream = match value {
                "on" | "true" | "1" => true,
                "off" | "false" | "0" => false,
                other => return Err(format!("invalid stream '{other}' (on|off)")),
            }
        }
        "initial-times" => dk.initial_times = parse_num(key, value)?,
        "arrive" => dk.arrive = parse_num(key, value)?,
        "sweeps-per-arrival" => dk.sweeps_per_arrival = parse_positive(key, value)?,
        "update" => {
            dk.update = match value {
                "incremental" => CacheUpdate::Incremental,
                "recompute" => CacheUpdate::Recompute,
                other => return Err(format!("unknown update '{other}' (incremental|recompute)")),
            }
        }
        "rank" => job.rank = parse_positive(key, value)?,
        "sweeps" => job.max_sweeps = parse_num(key, value)?,
        "tol" => job.tol = parse_nonneg(key, value, false)?,
        "pp-tol" => job.pp_tol = parse_nonneg(key, value, false)?,
        "seed" => job.seed = parse_num(key, value)?,
        "threads" => job.threads = Some(parse_positive(key, value)?),
        "policy" => job.policy = SchedPolicy::parse(value)?,
        "priority" => job.priority = parse_num(key, value)?,
        "deadline" => job.deadline = parse_num(key, value)?,
        "fail-after" => job.fail_after = Some(parse_num(key, value)?),
        other => return Err(format!("unknown key '{other}'")),
    }
    Ok(())
}

impl JobSpec {
    /// Whether `key` is in the job vocabulary. Asks the token reader itself,
    /// so the answer cannot drift from what a manifest accepts.
    pub fn knows_key(key: &str) -> bool {
        let (mut job, mut dk) = (JobSpec::new(""), DatasetKeys::default());
        !matches!(apply_token(&mut job, &mut dk, key, ""), Err(e) if e.starts_with("unknown key"))
    }

    /// Assemble one job from `key=value` tokens over the defaults of
    /// [`JobSpec::new`] — the one reader behind a manifest line and a
    /// `ppcp` command line. Later tokens win; key order does not matter
    /// otherwise. Token errors quote the offending token.
    pub fn from_tokens<'a>(
        name: impl Into<String>,
        tokens: impl IntoIterator<Item = &'a str>,
    ) -> Result<JobSpec, String> {
        let mut job = JobSpec::new(name);
        let mut dk = DatasetKeys::default();
        for tok in tokens {
            let (key, value) = tok
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, found '{tok}'"))?;
            apply_token(&mut job, &mut dk, key, value)
                .map_err(|e| format!("{e} (offending token '{tok}')"))?;
        }
        let sparse = matches!(dk.dataset.as_str(), "sparse-powerlaw" | "sparse-lowrank");
        if sparse && job.method == JobMethod::Nncp {
            return Err(format!(
                "dataset '{}' supports method=dt|pp|msdt (nncp's row-wise HALS needs the \
                 dense residual and cannot run on sparse inputs)",
                dk.dataset
            ));
        }
        if dk.stream {
            if dk.dataset != "timelapse" {
                return Err(format!(
                    "stream=on requires dataset=timelapse, got '{}'",
                    dk.dataset
                ));
            }
            if job.method == JobMethod::Nncp {
                return Err(
                    "stream jobs support method=dt|pp|msdt (streaming warm-starts \
                            are unconstrained least-squares rows)"
                        .into(),
                );
            }
            if dk.initial_times == 0 || dk.initial_times >= dk.times {
                return Err(format!(
                    "streaming needs 0 < initial-times < times, got {} of {}",
                    dk.initial_times, dk.times
                ));
            }
            if dk.arrive == 0 || (dk.times - dk.initial_times) % dk.arrive != 0 {
                return Err(format!(
                    "remaining {} time points do not divide into slices of arrive={}",
                    dk.times - dk.initial_times,
                    dk.arrive
                ));
            }
            job.stream = Some(StreamSpec {
                initial: dk.initial_times,
                arrive: dk.arrive,
                sweeps_per_arrival: dk.sweeps_per_arrival,
                update: dk.update,
            });
        }
        job.dataset = dk.into_spec();
        job.dataset.validate()?;
        let order = job.dataset.dims().len();
        if job.method == JobMethod::Pp && order < 3 {
            return Err(format!(
                "method=pp needs a tensor of order 3 or more, dataset '{}' has order {order}",
                job.dataset.name()
            ));
        }
        Ok(job)
    }
}

/// Parse a jobs manifest. See the module docs for the format.
pub fn parse_manifest(text: &str) -> Result<Vec<JobSpec>, String> {
    let mut jobs = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let mut tokens = raw.split_whitespace();
        match tokens.next() {
            Some("job") => {}
            Some(other) if !other.starts_with('#') => {
                return Err(format!(
                    "line {line_no}: expected a 'job' declaration, found '{other}'"
                ))
            }
            _ => continue,
        }
        let job = JobSpec::from_tokens(format!("job{}", jobs.len()), tokens)
            .map_err(|e| format!("line {line_no}: {e}"))?;
        jobs.push(job);
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_defaults_and_overrides() {
        let jobs = parse_manifest(
            "# comment\n\n\
             job name=a method=pp rank=4 sweeps=30 tol=1e-7 pp-tol=0.3 seed=5\n\
             job dataset=collinearity s=12 r=3 lo=0.4 hi=0.6 data-seed=9 method=nncp\n",
        )
        .unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].name, "a");
        assert_eq!(jobs[0].method, JobMethod::Pp);
        assert_eq!(jobs[0].rank, 4);
        assert_eq!(jobs[0].seed, 5);
        assert!((jobs[0].pp_tol - 0.3).abs() < 1e-15);
        assert_eq!(jobs[1].name, "job1", "default name is positional");
        assert_eq!(jobs[1].method, JobMethod::Nncp);
        assert_eq!(
            jobs[1].dataset,
            DatasetSpec::Collinearity {
                s: 12,
                r: 3,
                order: 3,
                lo: 0.4,
                hi: 0.6,
                seed: 9
            }
        );
    }

    #[test]
    fn dims_parse() {
        let jobs = parse_manifest("job dims=8x9x10x11\n").unwrap();
        match &jobs[0].dataset {
            DatasetSpec::Lowrank { dims, .. } => assert_eq!(dims, &[8, 9, 10, 11]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors_name_the_line_and_token() {
        // Every key-level error reports the 1-based line number AND the
        // offending `key=value` token verbatim.
        for (text, needle, token) in [
            (
                "job method=turbo",
                "unknown method 'turbo'",
                Some("method=turbo"),
            ),
            (
                "job dataset=netflix",
                "unknown dataset 'netflix'",
                Some("dataset=netflix"),
            ),
            ("job rank=abc", "invalid value for rank", Some("rank=abc")),
            (
                "job frobnicate=1",
                "unknown key 'frobnicate'",
                Some("frobnicate=1"),
            ),
            ("job rank", "expected key=value", None),
            ("run name=a", "expected a 'job' declaration", None),
            (
                "job threads=0",
                "threads must be at least 1",
                Some("threads=0"),
            ),
            ("job dims=7", "invalid dims", Some("dims=7")),
            (
                "job lookahead=off",
                "unknown key 'lookahead'",
                Some("lookahead=off"),
            ),
            (
                "job policy=fifo",
                "unknown policy 'fifo'",
                Some("policy=fifo"),
            ),
            (
                "job priority=high",
                "invalid value for priority",
                Some("priority=high"),
            ),
            (
                "job deadline=soon",
                "invalid value for deadline",
                Some("deadline=soon"),
            ),
            (
                "job fail-after=x",
                "invalid value for fail-after",
                Some("fail-after=x"),
            ),
            ("job rank=0", "rank must be at least 1", Some("rank=0")),
            ("job nnz=0", "nnz must be at least 1", Some("nnz=0")),
            (
                "job skew=0.5",
                "skew must be at least 1.0",
                Some("skew=0.5"),
            ),
            (
                "job density=1.5",
                "density must be in (0, 1]",
                Some("density=1.5"),
            ),
            (
                "job dataset=sparse-powerlaw method=nncp",
                "supports method=dt|pp|msdt",
                None,
            ),
            (
                "job method=pp dims=12x11",
                "method=pp needs a tensor of order 3 or more",
                None,
            ),
            (
                "job method=pp dataset=collinearity order=2",
                "dataset 'collinearity' has order 2",
                None,
            ),
        ] {
            let err = parse_manifest(text).unwrap_err();
            assert!(err.contains(needle), "{text}: {err}");
            assert!(err.contains("line 1"), "{text}: {err}");
            if let Some(tok) = token {
                assert!(
                    err.contains(&format!("offending token '{tok}'")),
                    "{text}: {err}"
                );
            }
        }
        // The line number reflects the failing line, not the first.
        let err = parse_manifest("job name=ok\njob rank=abc\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("offending token 'rank=abc'"), "{err}");
        // The dataset rejection enumerates the full vocabulary.
        let err = parse_manifest("job dataset=netflix").unwrap_err();
        assert!(err.contains(DATASET_NAMES), "{err}");
    }

    #[test]
    fn degenerate_dataset_keys_are_refused_by_name() {
        // Every value a generator would assert on, and every NaN that
        // would pass silently, is a line error naming its key.
        for (text, needle) in [
            ("dims=0x4x4", "invalid dims '0x4x4'"),
            ("gen-rank=0", "gen-rank must be at least 1"),
            ("noise=-1", "noise must be a finite number >= 0"),
            ("noise=nan", "noise must be a finite number >= 0"),
            ("noise=inf", "noise must be a finite number >= 0"),
            ("tol=nan", "tol must be a number >= 0"),
            ("tol=-1e-6", "tol must be a number >= 0"),
            ("pp-tol=nan", "pp-tol must be a number >= 0"),
            (
                "dataset=sparse-powerlaw skew=nan",
                "skew must be at least 1.0",
            ),
            (
                "dataset=sparse-lowrank gen-rank=0",
                "gen-rank must be at least 1",
            ),
            ("dataset=collinearity s=0", "s must be at least 1"),
            ("dataset=collinearity r=0", "r must be at least 1"),
            ("dataset=collinearity s=4 r=4", "s=4 must exceed r=4"),
            ("dataset=collinearity order=1", "order must be at least 2"),
            ("dataset=collinearity lo=0.9 hi=0.1", "lo=0.9 hi=0.1"),
            ("dataset=collinearity hi=1", "need 0 <= lo <= hi < 1"),
            ("dataset=collinearity lo=nan", "need 0 <= lo <= hi < 1"),
            ("dataset=timelapse height=0", "height must be at least 1"),
            ("dataset=timelapse width=0", "width must be at least 1"),
            ("dataset=timelapse bands=0", "bands must be at least 1"),
            ("dataset=timelapse times=0", "times must be at least 1"),
            (
                "dataset=timelapse materials=0",
                "materials must be at least 1",
            ),
            (
                "dataset=timelapse noise=-0.5",
                "noise must be a finite number >= 0",
            ),
        ] {
            let err = parse_manifest(&format!("job {text}")).unwrap_err();
            assert!(
                err.contains(needle) && err.contains("line 1"),
                "{text}: {err}"
            );
        }
        // The edges themselves are fine.
        for text in [
            "noise=0 tol=0 pp-tol=0",
            "tol=inf pp-tol=inf",
            "dataset=collinearity s=2 r=1 order=2 lo=0 hi=0",
            "dataset=timelapse height=1 width=1 bands=1 times=1 materials=1 noise=0",
        ] {
            parse_manifest(&format!("job {text}")).unwrap();
        }
    }

    #[test]
    fn from_tokens_is_the_manifest_line_reader() {
        // Later tokens win — how `ppcp` lays its presets under the user's.
        let job = JobSpec::from_tokens("cli", ["rank=16", "method=pp", "rank=5"]).unwrap();
        assert_eq!(
            (job.name.as_str(), job.rank, job.method),
            ("cli", 5, JobMethod::Pp)
        );
        // Errors carry the token but no line number (the manifest adds it).
        let err = JobSpec::from_tokens("cli", ["rank=abc"]).unwrap_err();
        assert!(err.starts_with("invalid value for rank"), "{err}");
        assert!(err.ends_with("(offending token 'rank=abc')"), "{err}");
        // The key test is the reader's own, value-blind.
        for key in ["rank", "dims", "stream", "fail-after", "policy"] {
            assert!(JobSpec::knows_key(key), "{key}");
        }
        for key in ["", "ranks", "backend", "frobnicate", "lookahead"] {
            assert!(!JobSpec::knows_key(key), "{key}");
        }
    }

    #[test]
    fn fixed_size_datasets_parse_and_build() {
        let jobs = parse_manifest("job dataset=chemistry data-seed=9\njob dataset=coil\n").unwrap();
        assert_eq!(jobs[0].dataset, DatasetSpec::Chemistry { seed: 9 });
        assert_eq!(jobs[1].dataset, DatasetSpec::Coil);
        for job in &jobs {
            let name = job.dataset.name();
            assert!(DATASET_NAMES.split('|').any(|n| n == name), "{name}");
            assert!(!job.dataset.is_sparse());
        }
        // The admission estimate knows their shapes: 640×40×40 drops a 40.
        assert_eq!(jobs[0].dataset.dims(), [640, 40, 40]);
        assert_eq!(jobs[0].est_cache_elems(), 2 * 640 * 40 * jobs[0].rank);
        assert_eq!(jobs[1].dataset.dims(), [32, 32, 3, 144]);
        assert_eq!(jobs[1].dataset.build().shape().dims(), [32, 32, 3, 144]);
    }

    #[test]
    fn sparse_datasets_parse() {
        let jobs = parse_manifest(
            "job name=pl dataset=sparse-powerlaw dims=64x48x32 nnz=500 skew=1.5 \
             data-seed=3 method=dt rank=4\n\
             job name=lr dataset=sparse-lowrank dims=20x20x20 gen-rank=3 density=0.05 \
             data-seed=4 method=dt\n",
        )
        .unwrap();
        assert_eq!(
            jobs[0].dataset,
            DatasetSpec::SparsePowerlaw {
                dims: vec![64, 48, 32],
                nnz: 500,
                skew: 1.5,
                seed: 3,
            }
        );
        assert!(jobs[0].dataset.is_sparse());
        assert_eq!(jobs[0].method, JobMethod::Dt);
        assert_eq!(
            jobs[1].dataset,
            DatasetSpec::SparseLowrank {
                dims: vec![20, 20, 20],
                gen_rank: 3,
                density: 0.05,
                seed: 4,
            }
        );
        // est_nnz is density-aware: 8000 elements at 5%.
        assert_eq!(jobs[1].dataset.est_nnz(), Some(400));
        assert_eq!(jobs[0].dataset.est_nnz(), Some(500));
        assert!(!JobSpec::new("d").dataset.is_sparse());
    }

    #[test]
    fn sparse_datasets_admit_pp_and_msdt() {
        let jobs = parse_manifest(
            "job name=a dataset=sparse-powerlaw method=pp rank=4\n\
             job name=b dataset=sparse-lowrank method=msdt rank=4\n",
        )
        .unwrap();
        assert_eq!(jobs[0].method, JobMethod::Pp);
        assert_eq!(jobs[1].method, JobMethod::Msdt);
    }

    #[test]
    fn timelapse_and_stream_keys_parse() {
        let jobs = parse_manifest(
            "job name=batch dataset=timelapse height=10 width=9 bands=6 times=5 materials=2 \
             noise=0.01 data-seed=13 method=msdt rank=4\n\
             job name=live dataset=timelapse times=9 stream=on initial-times=3 arrive=2 \
             sweeps-per-arrival=5 update=recompute method=pp rank=4\n",
        )
        .unwrap();
        assert_eq!(
            jobs[0].dataset,
            DatasetSpec::Timelapse {
                height: 10,
                width: 9,
                bands: 6,
                times: 5,
                materials: 2,
                noise: 0.01,
                seed: 13,
            }
        );
        assert_eq!(jobs[0].stream, None, "stream defaults to off");
        assert!(!jobs[0].dataset.is_sparse());
        assert_eq!(
            jobs[1].stream,
            Some(StreamSpec {
                initial: 3,
                arrive: 2,
                sweeps_per_arrival: 5,
                update: CacheUpdate::Recompute,
            })
        );
        // The reservation covers the final horizon (times=9), not the
        // initial prefix: 2 · (12·10·8·9 / 8) · R plus the PP operators.
        assert!(jobs[1].est_cache_elems() >= 2 * (12 * 10 * 8 * 9 / 8) * 4);
        // The feed materializes and carves the declared schedule.
        let feed = jobs[1].build_stream().unwrap();
        assert_eq!(feed.initial().dim(3), 3);
        assert_eq!(feed.n_arrivals(), 3);
        // A batch job has no feed to build.
        assert!(jobs[0].build_stream().err().unwrap().contains("no stream"));
    }

    #[test]
    fn stream_misconfigurations_are_parse_errors() {
        for (text, needle) in [
            (
                "job dataset=lowrank stream=on",
                "stream=on requires dataset=timelapse",
            ),
            (
                "job dataset=timelapse stream=on method=nncp",
                "stream jobs support method=dt|pp|msdt",
            ),
            (
                "job dataset=timelapse times=5 stream=on initial-times=5",
                "0 < initial-times < times",
            ),
            (
                "job dataset=timelapse times=9 stream=on initial-times=3 arrive=4",
                "do not divide",
            ),
            (
                "job dataset=timelapse stream=on sweeps-per-arrival=0",
                "sweeps-per-arrival must be at least 1",
            ),
            ("job stream=maybe", "invalid stream 'maybe'"),
            ("job update=lazy", "unknown update 'lazy'"),
        ] {
            let err = parse_manifest(text).unwrap_err();
            assert!(err.contains(needle), "{text}: {err}");
            assert!(err.contains("line 1"), "{text}: {err}");
        }
    }

    #[test]
    fn scheduling_keys_parse() {
        let jobs = parse_manifest(
            "job name=p policy=priority priority=9\n\
             job name=d policy=deadline deadline=30\n\
             job name=f fail-after=2\n\
             job name=r\n",
        )
        .unwrap();
        assert_eq!(jobs[0].policy, SchedPolicy::Priority);
        assert_eq!(jobs[0].priority, 9);
        assert_eq!(jobs[1].policy, SchedPolicy::Deadline);
        assert_eq!(jobs[1].deadline, 30);
        assert_eq!(jobs[2].fail_after, Some(2));
        assert_eq!(jobs[3].policy, SchedPolicy::Rr);
        assert_eq!(jobs[3].deadline, u64::MAX);
        assert_eq!(jobs[3].fail_after, None);
    }

    #[test]
    fn cache_estimate_scales_with_method() {
        let mut j = JobSpec::new("x");
        j.rank = 4;
        j.dataset = DatasetSpec::Lowrank {
            dims: vec![10, 8, 12],
            gen_rank: 3,
            noise: 0.0,
            seed: 1,
        };
        // Largest first-level intermediate drops the smallest mode:
        // (10*12)*4, held twice.
        assert_eq!(j.est_cache_elems(), 2 * 10 * 12 * 4);
        j.method = JobMethod::Pp;
        let pp_extra = (10 + 8 + 12) * 4 + (10 * 8 + 10 * 12 + 8 * 12) * 4;
        assert_eq!(j.est_cache_elems(), 2 * 10 * 12 * 4 + pp_extra);
        // Sparse estimates scale with nnz, not volume: dt and msdt hold
        // only the CSF forest, pp the forest plus the dense pair operators
        // and anchors.
        let legacy = 3 * 7 * 500; // the old method-blind formula
        j.method = JobMethod::Dt;
        j.dataset = DatasetSpec::SparsePowerlaw {
            dims: vec![100, 100, 100],
            nnz: 500,
            skew: 2.0,
            seed: 1,
        };
        assert_eq!(j.est_cache_elems(), 3 * 4 * 500);
        assert!(
            j.est_cache_elems() < legacy,
            "dt must reserve less than the old formula (no tree cache)"
        );
        j.method = JobMethod::Msdt;
        assert_eq!(j.est_cache_elems(), 3 * 4 * 500);
        j.method = JobMethod::Pp;
        let sparse_pp = 3 * 4 * 500 + (100 + 100 + 100) * 4 + 3 * (100 * 100) * 4;
        assert_eq!(j.est_cache_elems(), sparse_pp);
        assert!(
            j.est_cache_elems() > legacy,
            "pp must reserve more than the old formula (dense pair operators)"
        );
        j.method = JobMethod::Dt;
        j.dataset = DatasetSpec::SparseLowrank {
            dims: vec![100, 100, 100],
            gen_rank: 3,
            density: 0.001,
            seed: 1,
        };
        assert_eq!(j.est_cache_elems(), 3 * 4 * 1000);
        assert!(
            j.est_cache_elems() < 2 * 100 * 100 * 4,
            "sparse estimate must undercut the dense formula at low density"
        );
    }

    #[test]
    fn sparse_pp_estimate_is_the_forest_plus_the_operators() {
        // A sparse PP session holds the CSF forest dt holds, plus its pair
        // operators and anchors. At the 512×512×256, 0.8 % density,
        // rank-16 scale that is about 15 M elements.
        let mut j = JobSpec::new("x");
        j.rank = 16;
        j.dataset = DatasetSpec::SparseLowrank {
            dims: vec![512, 512, 256],
            gen_rank: 16,
            density: 0.008,
            seed: 1,
        };
        j.method = JobMethod::Dt;
        let forest = j.est_cache_elems();
        j.method = JobMethod::Pp;
        let pairs = (512 * 512 + 2 * 512 * 256) * 16;
        let anchors = (512 + 512 + 256) * 16;
        assert_eq!(j.est_cache_elems(), forest + pairs + anchors);
        assert!((14_000_000..16_000_000).contains(&j.est_cache_elems()));
        j.method = JobMethod::Msdt;
        assert_eq!(j.est_cache_elems(), forest, "msdt holds what dt holds");
    }

    #[test]
    fn method_mapping() {
        assert_eq!(JobMethod::Dt.policy(), TreePolicy::Standard);
        assert_eq!(JobMethod::Msdt.policy(), TreePolicy::MultiSweep);
        assert_eq!(JobMethod::Pp.session_kind(), SessionKind::Pp);
        assert_eq!(JobMethod::Nncp.session_kind(), SessionKind::NonNeg);
    }

    #[test]
    fn als_config_reflects_spec() {
        let mut job = JobSpec::new("x");
        job.method = JobMethod::Dt;
        job.rank = 6;
        job.threads = Some(2);
        let cfg = job.als_config();
        assert_eq!(cfg.rank, 6);
        assert_eq!(cfg.policy, TreePolicy::Standard);
        assert_eq!(cfg.threads, Some(2));
    }
}
