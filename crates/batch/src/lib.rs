#![warn(missing_docs)]
//! # eco-batch — manifest-driven batch orchestration with a cross-job memo cache
//!
//! Runs many ECO jobs from a declarative manifest (a TOML or JSON list of
//! `{faulty, golden, weights, targets, budget}` entries) over one global
//! scoped-thread worker pool that steals work at *job* granularity: a
//! worker that finishes one instance immediately pulls the next, whatever
//! job it belongs to, so a long job never serializes the batch behind it.
//!
//! At the core sits a [`JobCore`], shared with the `eco-serve` daemon:
//! the [`eco_core::MemoCache`] that memoizes FRAIG sweeps,
//! rectifiability verdicts, and verified patches across jobs (cached
//! patches are re-verified by a fresh SAT miter, so hits change only
//! wall time; see `eco_core::memo`), the durable memo store and the
//! job [`Journal`] behind `--journal`/`--resume` ([`wal`]), and
//! [`JobCore::run`], the one place a job executes. This crate adds the
//! manifest, the job-stealing pool ([`run_indexed`]), and resume order.
//!
//! The run-wide governor budget ([`BatchOptions::budget`]) is apportioned
//! across jobs with [`eco_core::Budget::child`]: every job shares the
//! deadline while conflict allowances are divided, so a starved batch
//! degrades to per-job `Complete | Partial` records instead of dying.
//!
//! Results stream as JSONL — one line per completed job, emitted in
//! deterministic `(pass, job)` order regardless of `--jobs` — via
//! [`report`].
//!
//! # Examples
//!
//! ```
//! use eco_batch::{run_batch, BatchJob, BatchOptions, JobStatus};
//! use eco_core::EcoInstance;
//! use eco_netlist::{parse_verilog, WeightTable};
//!
//! let faulty = parse_verilog(
//!     "module f (a, b, c, t, y); input a, b, c, t; output y;
//!      xor g1 (y, t, c); endmodule",
//! )?;
//! let golden = parse_verilog(
//!     "module g (a, b, c, y); input a, b, c; output y;
//!      wire w; and g1 (w, a, b); xor g2 (y, w, c); endmodule",
//! )?;
//! let inst = EcoInstance::from_netlists(
//!     "demo", &faulty, &golden, vec!["t".into()], &WeightTable::new(1),
//! )?;
//! // Two structurally identical jobs: the second hits the memo cache.
//! let jobs = vec![
//!     BatchJob::from_instance("one", inst.clone()),
//!     BatchJob::from_instance("two", inst),
//! ];
//! let outcome = run_batch(&jobs, &BatchOptions::default());
//! assert!(outcome
//!     .records
//!     .iter()
//!     .all(|r| r.status == JobStatus::Complete));
//! assert!(outcome.memo.hits > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod executor;
mod job_core;
pub mod json;
mod manifest;
pub mod report;
mod runner;
pub mod wal;

pub use crate::executor::{run_indexed, BoundedQueue, PushError};
pub use crate::job_core::{execute_job, JobCore};
pub use crate::manifest::{job_spec_from_json, JobSpec, Manifest, ManifestError};
pub use crate::report::{exit_code, record_from_json, record_json, records_jsonl, stats_json};
pub use crate::runner::{
    load_job_instance, load_jobs, run_batch, BatchJob, BatchOptions, BatchOutcome, JobRecord,
    JobStatus,
};
pub use crate::wal::{
    job_fingerprint, request_fingerprint, Journal, JournalFile, JournalState, BATCH_WAL,
    REQUEST_WAL,
};
