//! The batch runner: a global scoped-thread worker pool over jobs.
//!
//! Work stealing happens at *job* granularity: every worker thread pulls
//! the next unclaimed job index from one shared atomic counter, so a
//! worker that finishes early immediately picks up work from the rest of
//! the batch instead of idling behind a long job (the same
//! counter-plus-slots pattern the engine uses for clusters, lifted one
//! level up). Each job runs its engine single-threaded (`jobs = 1`) —
//! the pool is already saturated at job granularity, and nesting
//! per-cluster pools under it would oversubscribe the machine.
//!
//! Jobs run through the [`JobCore`] shared with the `eco-serve` daemon,
//! so all of them share one memo cache: a sweep, rectifiability verdict,
//! or complete verified patch computed for one job is reused by every
//! structurally identical (sub-)instance later in the batch — including
//! later `repeat` passes, which model warm-cache runs. This module keeps
//! what is batch-only: the manifest loader, the job pool, and resume
//! keyed by job content in manifest order.
//!
//! The run-wide budget is apportioned: each job's [`Budget::child`]
//! shares the batch deadline while the conflict allowance is divided
//! evenly across jobs (a per-job manifest `budget` tightens it further).
//! A starved batch therefore degrades job by job to `Partial` records
//! instead of failing wholesale. Note that a job running under any
//! limit bypasses the memo cache (truncated results are not reusable
//! pure functions; see `eco_core::memo`).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use eco_core::{Budget, BudgetOptions, EcoInstance, EcoOptions, MemoStats};
use eco_netlist::{elaborate, parse_blif, parse_verilog, parse_weights, WeightTable};

use crate::executor::{resolve_workers, run_indexed};
use crate::job_core::{JobCore, PANICKED};
use crate::manifest::{JobSpec, Manifest};
use crate::report::{record_from_json, record_json};
use crate::wal::{job_fingerprint, BATCH_WAL};

/// Knobs for a batch run.
#[derive(Clone, Debug, Default)]
pub struct BatchOptions {
    /// Worker threads stealing jobs; `0` = one per available core.
    pub jobs: usize,
    /// Passes over the job list sharing one memo cache (`0` acts as 1).
    /// Pass 0 is the cold run; later passes model warm-cache runs.
    pub repeat: usize,
    /// Run-wide governor budget, apportioned across jobs.
    pub budget: BudgetOptions,
    /// Base engine options for every job. The runner overrides `jobs`
    /// (to 1), `memo` (to the shared cache), and ignores `budget` (the
    /// apportioned child budget is passed directly).
    pub eco: EcoOptions,
    /// State directory for crash safety: a write-ahead job journal
    /// (`batch.wal`) plus the durable memo store (`memo.snap` /
    /// `memo.wal`). `None` (the default) runs fully in memory.
    pub journal: Option<PathBuf>,
    /// Replay `journal` before running: completed jobs (matched by
    /// content fingerprint) are emitted verbatim from the journal, only
    /// unfinished ones execute. Requires `journal`.
    pub resume: bool,
}

/// How a job ended, in order of increasing exit-code severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Every cluster patched and the result freshly verified.
    Complete,
    /// The governor degraded the job to completed clusters only.
    Partial,
    /// Proven impossible to rectify over the given candidates.
    Unrectifiable,
    /// Load, parse, or engine error (including a panicking worker).
    Error,
}

impl JobStatus {
    /// Lowercase tag used in JSONL records.
    pub fn tag(self) -> &'static str {
        match self {
            JobStatus::Complete => "complete",
            JobStatus::Partial => "partial",
            JobStatus::Unrectifiable => "unrectifiable",
            JobStatus::Error => "error",
        }
    }

    /// Inverse of [`JobStatus::tag`] (journal replay).
    pub fn from_tag(tag: &str) -> Option<JobStatus> {
        match tag {
            "complete" => Some(JobStatus::Complete),
            "partial" => Some(JobStatus::Partial),
            "unrectifiable" => Some(JobStatus::Unrectifiable),
            "error" => Some(JobStatus::Error),
            _ => None,
        }
    }
}

/// One job's deterministic outcome record — exactly the fields that are
/// a pure function of the instance and options, so the JSONL report is
/// byte-identical for any `--jobs` setting. Timing and cache counters
/// deliberately live elsewhere ([`BatchOutcome`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobRecord {
    /// Repeat pass this record belongs to (0 = cold).
    pub pass: usize,
    /// Job index in manifest order.
    pub index: usize,
    /// Job name from the manifest.
    pub name: String,
    /// Outcome class.
    pub status: JobStatus,
    /// Number of rectification targets.
    pub targets: usize,
    /// Patches emitted (one per target on completion).
    pub patches: usize,
    /// Total base cost of the emitted patches.
    pub cost: u64,
    /// Total patch size in AND gates.
    pub size: u64,
    /// `true` iff a fresh SAT miter proved the patched circuit
    /// equivalent to the golden one in *this* run (memo hits included:
    /// cached patches are re-verified before being trusted).
    pub verified: bool,
    /// Failure reason or degradation summary; empty on completion.
    pub detail: String,
}

impl JobRecord {
    /// An `error` record for job `name` that produced nothing — the
    /// starting point of every record, and the whole record of a job
    /// that failed to load or panicked.
    pub(crate) fn failed(name: &str, detail: impl Into<String>) -> JobRecord {
        JobRecord {
            pass: 0,
            index: 0,
            name: name.to_string(),
            status: JobStatus::Error,
            targets: 0,
            patches: 0,
            cost: 0,
            size: 0,
            verified: false,
            detail: detail.into(),
        }
    }
}

/// A loaded batch entry: a named instance or the error that prevented
/// loading it (kept so one broken entry doesn't abort the batch).
pub struct BatchJob {
    /// Display name for reports.
    pub name: String,
    /// The instance, or why it could not be built.
    pub source: Result<EcoInstance, String>,
    /// Optional per-job conflict allowance from the manifest.
    pub budget: Option<u64>,
}

impl BatchJob {
    /// Wraps an in-memory instance (mainly for tests and embedding).
    pub fn from_instance(name: impl Into<String>, instance: EcoInstance) -> Self {
        BatchJob {
            name: name.into(),
            source: Ok(instance),
            budget: None,
        }
    }
}

/// Everything a batch run produced.
pub struct BatchOutcome {
    /// Job records for all passes, sorted by `(pass, index)`.
    pub records: Vec<JobRecord>,
    /// Wall-clock time of each pass (cold first).
    pub pass_wall: Vec<Duration>,
    /// Final shared-cache counters.
    pub memo: MemoStats,
    /// Records replayed from the journal instead of recomputed
    /// (`--resume` only).
    pub reused: u64,
    /// Memo entries recovered from the durable store on startup.
    pub memo_loaded: u64,
    /// Journal/store records skipped as corrupt, torn, or undecodable,
    /// plus state that failed to open and journal appends and store
    /// operations that failed (durability degraded, the batch
    /// continued).
    pub persist_errors: u64,
}

/// Builds [`BatchJob`]s from a manifest, reading circuits and weights
/// from disk. Load failures become `Err` sources, not panics.
pub fn load_jobs(manifest: &Manifest) -> Vec<BatchJob> {
    manifest
        .jobs
        .iter()
        .map(|spec| BatchJob {
            name: spec.name.clone(),
            source: load_job_instance(spec),
            budget: spec.budget,
        })
        .collect()
}

/// Loads one job spec's circuits and weights into an [`EcoInstance`] —
/// the same path the manifest runner uses, exposed so `eco-serve` can
/// load protocol requests identically. Failures are messages, not panics.
pub fn load_job_instance(spec: &JobSpec) -> Result<EcoInstance, String> {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let weights = match &spec.weights {
        Some(p) => parse_weights(&read(p)?).map_err(|e| format!("{}: {e}", p.display()))?,
        None => WeightTable::new(1),
    };
    let is_verilog = |p: &Path| p.extension().and_then(|e| e.to_str()) != Some("blif");
    // Mirrors the `eco-patch` CLI: Verilog pairs keep the gate structure
    // (structural target-independence filter), BLIF goes via the AIG.
    if is_verilog(&spec.faulty) && is_verilog(&spec.golden) {
        let faulty = parse_verilog(&read(&spec.faulty)?)
            .map_err(|e| format!("{}: {e}", spec.faulty.display()))?;
        let golden = parse_verilog(&read(&spec.golden)?)
            .map_err(|e| format!("{}: {e}", spec.golden.display()))?;
        let targets = if spec.targets.is_empty() {
            default_targets(faulty.inputs.iter().map(String::as_str))?
        } else {
            spec.targets.clone()
        };
        EcoInstance::from_netlists(&spec.name, &faulty, &golden, targets, &weights)
            .map_err(|e| e.to_string())
    } else {
        let (faulty_aig, faulty_nets) = read_circuit(&spec.faulty)?;
        let (golden_aig, _) = read_circuit(&spec.golden)?;
        let targets = if spec.targets.is_empty() {
            default_targets((0..faulty_aig.num_inputs()).map(|i| faulty_aig.input_name(i)))?
        } else {
            spec.targets.clone()
        };
        EcoInstance::from_elaborated(
            &spec.name,
            faulty_aig,
            &faulty_nets,
            golden_aig,
            targets,
            &weights,
        )
        .map_err(|e| e.to_string())
    }
}

/// Default targets when the manifest names none: every `t_`-prefixed
/// input of the faulty circuit (the workgen/contest convention).
fn default_targets<'a>(inputs: impl Iterator<Item = &'a str>) -> Result<Vec<String>, String> {
    let targets: Vec<String> = inputs
        .filter(|n| n.starts_with("t_"))
        .map(str::to_string)
        .collect();
    if targets.is_empty() {
        return Err(
            "no targets: manifest names none and the faulty circuit has no \
                    t_-prefixed inputs"
                .into(),
        );
    }
    Ok(targets)
}

fn read_circuit(
    path: &Path,
) -> Result<
    (
        eco_aig::Aig,
        std::collections::HashMap<String, eco_aig::Lit>,
    ),
    String,
> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if path.extension().and_then(|e| e.to_str()) == Some("blif") {
        let m = parse_blif(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok((m.aig, m.net_lits))
    } else {
        let nl = parse_verilog(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let e = elaborate(&nl).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok((e.aig, e.net_lits))
    }
}

/// Runs every job (for every repeat pass) over the shared worker pool
/// and memo cache. Records come back in `(pass, index)` order no matter
/// how the pool interleaved the work.
pub fn run_batch(jobs: &[BatchJob], opts: &BatchOptions) -> BatchOutcome {
    // Crash-safety state: recover the durable memo store and open the
    // job journal before anything executes. Failures here degrade to an
    // in-memory run (counted), they never abort the batch.
    let core = JobCore::open(opts.journal.as_deref(), BATCH_WAL);
    // Resume: journaled records replay verbatim. A failed read is
    // counted by the core and replays nothing; a record that no longer
    // decodes is counted here and its job recomputes.
    let mut done: HashMap<u128, JobRecord> = HashMap::new();
    let mut undecodable = 0u64;
    if opts.resume {
        for (fp, line) in core.load_journal().unwrap_or_default().done {
            match record_from_json(&line) {
                Ok(record) => {
                    done.insert(fp, record);
                }
                Err(_) => undecodable += 1,
            }
        }
    }
    let reused = AtomicU64::new(0);
    // Apportion the batch-wide conflict allowance evenly across jobs.
    let apportioned = opts
        .budget
        .cluster_conflicts
        .map(|total| (total / jobs.len().max(1) as u64).max(1));
    let run_budget = Budget::new(&opts.budget).child(apportioned);
    let workers = resolve_workers(opts.jobs).min(jobs.len().max(1));
    let repeat = opts.repeat.max(1);

    let mut records = Vec::with_capacity(jobs.len() * repeat);
    let mut pass_wall = Vec::with_capacity(repeat);
    for pass in 0..repeat {
        let t0 = Instant::now();
        let run_one = |index: usize| {
            let job = &jobs[index];
            let fp = job_fingerprint(pass, index, job);
            if let Some(record) = done.get(&fp) {
                // Completed before the crash: replay the journaled
                // record verbatim, never recompute.
                reused.fetch_add(1, Ordering::Relaxed);
                return record.clone();
            }
            // Write-ahead: the job is on disk before it executes, so a
            // kill here is a journaled-but-unfinished job the next
            // resume picks up.
            if let Some(journal) = core.journal() {
                journal.admit(fp, "");
            }
            let mut record = core.run(
                &job.name,
                || &job.source,
                &opts.eco,
                &run_budget,
                job.budget,
            );
            record.pass = pass;
            record.index = index;
            if let Some(journal) = core.journal() {
                journal.done(fp, &record_json(&record));
            }
            record
        };
        // The shared claim-counter pool (executor.rs): one slot per job,
        // merged in index order, a panic that escapes the job core
        // isolated to one error record.
        records.extend(run_indexed(workers, jobs.len(), run_one, |index| {
            JobRecord {
                pass,
                index,
                ..JobRecord::failed(&jobs[index].name, PANICKED)
            }
        }));
        pass_wall.push(t0.elapsed());
    }

    core.checkpoint();
    BatchOutcome {
        records,
        pass_wall,
        memo: core.memo_stats(),
        reused: reused.load(Ordering::Relaxed),
        memo_loaded: core.memo_loaded(),
        persist_errors: core.persist_errors() + undecodable,
    }
}
