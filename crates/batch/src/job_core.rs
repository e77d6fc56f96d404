//! The job core shared by both front-ends, [`crate::run_batch`] and the
//! `eco-serve` daemon: the memo cache with its optional durable store,
//! the [`Journal`], [`JobCore::run`] (the only place a job executes),
//! and the durability roll-ups. The front-ends keep only what differs:
//! where jobs come from, how they are scheduled, and how resume is keyed
//! and ordered. State-directory failures degrade to an in-memory run,
//! counted in [`JobCore::persist_errors`], and never stop the run.

use std::borrow::Borrow;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use eco_core::{
    faultpoint, Budget, EcoEngine, EcoError, EcoInstance, EcoOptions, EcoOutcome, MemoCache,
    MemoLoadStats, MemoStats, MemoStore,
};

use crate::runner::{JobRecord, JobStatus};
use crate::wal::{Journal, JournalFile, JournalState};

/// Detail of the error record a panicking job becomes.
pub(crate) const PANICKED: &str = "job worker panicked";

/// The shared memo, durable state, and journal behind one front-end.
pub struct JobCore {
    cache: Arc<MemoCache>,
    store: Option<Arc<MemoStore>>,
    journal: Option<Journal>,
    state_dir: Option<PathBuf>,
    file: JournalFile,
    memo_loaded: u64,
    state_error: Option<String>,
    persist_errors: AtomicU64,
}

impl JobCore {
    /// A core with a fresh memo cache. With a `state_dir`, the durable
    /// memo store is loaded into the cache, then attached (so replayed
    /// entries are not re-journaled), then `file` is opened as the job
    /// journal. Records the store skipped as torn or corrupt and each
    /// part that failed to open count as persist errors.
    pub fn open(state_dir: Option<&Path>, file: JournalFile) -> JobCore {
        let cache = Arc::new(MemoCache::new());
        let (mut store, mut journal, mut loaded) = (None, None, MemoLoadStats::default());
        let mut errors = Vec::new();
        if let Some(dir) = state_dir {
            match MemoStore::open(dir) {
                Ok(opened) => {
                    loaded = opened.load_into(&cache);
                    opened.attach(&cache);
                    store = Some(opened);
                }
                Err(e) => errors.push(format!("memo store: {e}")),
            }
            match Journal::open(dir, file) {
                Ok(opened) => journal = Some(opened),
                Err(e) => errors.push(format!("journal: {e}")),
            }
        }
        JobCore {
            cache,
            store,
            journal,
            state_dir: state_dir.map(Path::to_path_buf),
            file,
            memo_loaded: loaded.loaded,
            persist_errors: AtomicU64::new(loaded.skipped + errors.len() as u64),
            state_error: (!errors.is_empty()).then(|| errors.join("; ")),
        }
    }

    /// Counters of the shared memo cache.
    pub fn memo_stats(&self) -> MemoStats {
        self.cache.stats()
    }

    /// The job journal, when a state directory opened one.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Memo entries recovered from the durable store.
    pub fn memo_loaded(&self) -> u64 {
        self.memo_loaded
    }

    /// Why the state directory failed to open, naming every part that
    /// failed (the run continues in memory for those parts).
    pub fn state_error(&self) -> Option<&str> {
        self.state_error.as_deref()
    }

    /// Loads the journal earlier runs left in the state directory (an
    /// empty state without one). Skipped records, and a failed read,
    /// count as persist errors.
    pub fn load_journal(&self) -> io::Result<JournalState> {
        let Some(dir) = &self.state_dir else {
            return Ok(JournalState::default());
        };
        let count = |n| {
            self.persist_errors.fetch_add(n, Ordering::Relaxed);
        };
        let state = Journal::load(dir, self.file).inspect_err(|_| count(1))?;
        count(state.skipped());
        Ok(state)
    }

    /// Runs one job to a deterministic [`JobRecord`] over the shared
    /// cache. The job's budget is a [`Budget::child`] of `budget` whose
    /// conflict allowance is the smaller of `budget`'s and the job's own
    /// `allowance`. `source` loads the job's instance inside the panic
    /// boundary: a panic anywhere in loading or running becomes an
    /// `error` record.
    pub fn run<S>(
        &self,
        name: &str,
        source: impl FnOnce() -> S,
        eco: &EcoOptions,
        budget: &Budget,
        allowance: Option<u64>,
    ) -> JobRecord
    where
        S: Borrow<Result<EcoInstance, String>>,
    {
        let allowance = budget
            .cluster_conflicts()
            .into_iter()
            .chain(allowance)
            .min();
        let budget = budget.child(allowance);
        catch_unwind(AssertUnwindSafe(|| {
            execute_job(name, source().borrow(), eco, &budget, &self.cache)
        }))
        .unwrap_or_else(|_| JobRecord::failed(name, PANICKED))
    }

    /// Graceful-finish checkpoint: compacts the memo store into its
    /// snapshot so the next run warm-starts from one clean file. A
    /// failure is counted, never fatal.
    pub fn checkpoint(&self) {
        if let Some(store) = &self.store {
            if store.snapshot(&self.cache).is_err() {
                self.persist_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Journal and memo-store records appended so far.
    pub fn appended(&self) -> u64 {
        self.journal.as_ref().map_or(0, Journal::appended)
            + self.store.as_ref().map_or(0, |s| s.appended())
    }

    /// Durability failures so far: state that failed to open, torn or
    /// corrupt records skipped on load, failed checkpoints, and failed
    /// journal and store appends. Each degraded durability only.
    pub fn persist_errors(&self) -> u64 {
        self.persist_errors.load(Ordering::Relaxed)
            + self.journal.as_ref().map_or(0, Journal::append_errors)
            + self.store.as_ref().map_or(0, |s| s.append_errors())
    }
}

/// Runs one loaded job to a deterministic [`JobRecord`] — the engine
/// call under [`JobCore::run`], for callers that manage their own cache
/// and budget. The engine runs single-threaded (`jobs = 1`; the caller's
/// pool is already saturated at job granularity) over `cache`. A
/// panicking engine becomes an `error` record. `pass` and `index` are
/// zero; callers embedding the record in a batch set them afterwards.
pub fn execute_job(
    name: &str,
    source: &Result<EcoInstance, String>,
    eco_base: &EcoOptions,
    budget: &Budget,
    cache: &Arc<MemoCache>,
) -> JobRecord {
    let instance = match source {
        Ok(instance) => instance,
        Err(msg) => return JobRecord::failed(name, msg),
    };
    let mut record = JobRecord::failed(name, "");
    record.targets = instance.targets.len();

    let mut eco = eco_base.clone();
    eco.jobs = 1;
    eco.memo = Some(Arc::clone(cache));
    let engine = EcoEngine::new(instance.clone(), eco);

    // A panicking job must not take the whole pool down with it; it
    // becomes an `error` record like any other failure. The chaos
    // `solver.panic` site detonates here, inside the isolation boundary
    // it exists to exercise.
    match catch_unwind(AssertUnwindSafe(|| {
        faultpoint::maybe_panic("solver.panic");
        engine.run_governed(budget)
    })) {
        Err(_) => record.detail = PANICKED.into(),
        Ok(Err(EcoError::Unrectifiable(why))) => {
            record.status = JobStatus::Unrectifiable;
            record.detail = why;
        }
        Ok(Err(e)) => record.detail = e.to_string(),
        Ok(Ok(EcoOutcome::Complete(result))) => {
            record.status = JobStatus::Complete;
            record.patches = result.patches.len();
            record.cost = result.cost;
            record.size = result.size as u64;
            record.verified = true;
        }
        Ok(Ok(EcoOutcome::Partial(partial))) => {
            record.status = JobStatus::Partial;
            record.patches = partial.patches.len();
            record.cost = partial.cost;
            record.size = partial.size as u64;
            record.detail = partial.reason;
        }
    }
    record
}
