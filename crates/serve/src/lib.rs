//! # pp-serve — multi-tenant batch serving of CP decompositions
//!
//! The drivers in `pp-core` decompose **one** tensor per call. Real dense-CP
//! workloads (PLANC's serving scenario: many image/chemistry tensors, many
//! tenants) need many decompositions to make progress *concurrently* without
//! over-subscribing the machine. This crate schedules **resumable sessions**
//! ([`pp_core::AlsSession`]) instead of monolithic runs:
//!
//! * the batch scheduler ([`scheduler::run_batch`]) is **work-conserving
//!   and multi-core**: a pool of driver threads ([`ServeConfig::drivers`])
//!   pulls runnable sessions from a shared ready queue and steps several
//!   tenants' sweeps concurrently over the one persistent kernel pool;
//! * up to `J` jobs are admitted at a time, subject to a **cache-memory
//!   budget** ([`ServeConfig::cache_budget_elems`]): jobs whose estimated
//!   dimension-tree/PP-operator footprint would overflow the budget queue
//!   instead of OOMing the machine;
//! * ready jobs are picked by **scheduling policy** ([`job::SchedPolicy`]:
//!   round-robin, priority, or earliest-deadline-first) with aging, so
//!   every class is starvation-free;
//! * the sweep boundary is the natural preemption point of the paper's
//!   algorithms (MSDT's cache and PP's operators survive suspension inside
//!   the session), so interleaving changes **nothing numerically** — each
//!   job's trace is bit-identical to running it alone, at any driver count;
//! * with [`ServeConfig::checkpoint_dir`] set, every swept turn persists
//!   the session to a `PPCK` checkpoint file; a batch killed mid-flight
//!   resumes from the directory bit-identically, and a graceful drain
//!   ([`ServeConfig::stop_after_turns`]) parks in-flight jobs on purpose;
//! * jobs that name the same sparse dataset open over one build of it,
//!   so it is generated and its CSF forest built once per batch;
//! * jobs that converge exit early and free their admission slot for the
//!   next pending job; a job that panics (bad manifest entry, degenerate
//!   tensor, injected fault) is isolated and reported without killing the
//!   batch — on driver threads and pool workers alike;
//! * with one driver (the golden path) the schedule trace is fully
//!   deterministic: admission order, turn order, and per-job sweep counts
//!   depend only on the job specs;
//! * **streaming tenants** (`stream=on` on a timelapse dataset) hold a
//!   [`pp_core::StreamingSession`] instead: when a sweep window closes the
//!   scheduler feeds the next arriving slice on that tenant's own turn, so
//!   online jobs interleave with batch jobs at sweep granularity, park and
//!   checkpoint mid-arrival, and resume bit-identically.
//!
//! A job is described once, by a [`JobSpec`] read from `key=value` tokens
//! ([`job`]): a line of the plain-text manifest `ppcp batch` consumes, or
//! the `--key value` flags of a `ppcp` run. [`Tenant`] is the one road from
//! that description to a live session — dense, sparse or streaming, fresh
//! or resumed from a checkpoint — for the scheduler and the CLI alike.

pub mod job;
pub mod scheduler;

pub use job::{
    parse_manifest, DatasetSpec, JobMethod, JobSpec, SchedPolicy, StreamSpec, DATASET_NAMES,
};
pub use scheduler::{
    run_batch, run_sequential, BatchReport, JobResult, JobStatus, ScheduleEvent, ServeConfig,
    Tenant,
};
