//! The job journal behind `--resume` in both front-ends: one
//! [`Journal`] type on one of two files, [`BATCH_WAL`] or
//! [`REQUEST_WAL`]. Every record is a tag byte, a 16-byte job
//! fingerprint, and a body, framed by the checksummed record log
//! ([`eco_core::LogWriter`]), so a SIGKILL mid-append leaves at worst a
//! torn tail the loader discards. `admit` is written before a job runs
//! (batch: empty body; serve: the raw request line) and `done` holds the
//! job's answer verbatim (batch: its JSONL record; serve: its response
//! line), so replayed answers reproduce the uninterrupted output byte
//! for byte. Only the daemon writes `refused` (shed or quarantined: not
//! resumed) and `attempt` (a resume re-execution: drives quarantine).
//! Batch keys records by job content ([`job_fingerprint`]), the daemon
//! by request line ([`request_fingerprint`]). Journal IO failures are
//! counted ([`Journal::append_errors`]) and never stop the run.

use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use eco_aig::FpHasher;
use eco_core::{read_log, LogStats, LogWriter};

use crate::executor::lock_recovering;
use crate::runner::BatchJob;

/// Magic prefix of `batch.wal` files.
pub const BATCH_WAL_MAGIC: [u8; 8] = *b"ECOBWAL1";

/// A journal file of a state directory: its name and its magic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalFile {
    /// File name inside the state directory.
    pub name: &'static str,
    /// Magic prefix identifying the file.
    pub magic: [u8; 8],
}

/// The batch runner's job journal.
pub const BATCH_WAL: JournalFile = JournalFile {
    name: "batch.wal",
    magic: BATCH_WAL_MAGIC,
};

/// The daemon's request journal.
pub const REQUEST_WAL: JournalFile = JournalFile {
    name: "requests.wal",
    magic: *b"ECORQJL1",
};

const REC_ADMIT: u8 = 1;
const REC_DONE: u8 = 2;
const REC_REFUSED: u8 = 3;
const REC_ATTEMPT: u8 = 4;

/// Content fingerprint identifying one job slot of one batch pass: the
/// batch resume key. Covers the pass, index, name, per-job budget, and —
/// for loadable jobs — both circuits' structural fingerprints plus the
/// target list (for broken jobs, the load error text), so editing an
/// input between crash and resume forces that job to recompute.
pub fn job_fingerprint(pass: usize, index: usize, job: &BatchJob) -> u128 {
    let mut h = FpHasher::new();
    h.word(0xba7c_4a1d); // domain tag: batch WAL fingerprints
    h.word(pass as u64);
    h.word(index as u64);
    h.str(&job.name);
    h.word(job.budget.unwrap_or(u64::MAX));
    match &job.source {
        Ok(inst) => {
            for fp in [
                inst.faulty.structural_fingerprint(),
                inst.golden.structural_fingerprint(),
            ] {
                h.word(fp.0 as u64);
                h.word((fp.0 >> 64) as u64);
                h.word(fp.1 as u64);
                h.word((fp.1 >> 64) as u64);
            }
            h.word(inst.targets.len() as u64);
            for t in &inst.targets {
                h.str(t);
            }
        }
        Err(msg) => {
            h.str("load-error");
            h.str(msg);
        }
    }
    h.finish().0
}

/// Fingerprint of one request line (trimmed): the daemon's resume key.
/// The line includes the client-chosen `id`, so two submissions of the
/// same job under different ids are distinct journal entries — each
/// client gets its answer.
pub fn request_fingerprint(line: &str) -> u128 {
    let mut h = FpHasher::new();
    h.word(0x5e59_4a1d); // domain tag: serve request-journal fingerprints
    h.str(line.trim());
    h.finish().0
}

/// Append handle on a state directory's job journal.
#[derive(Debug)]
pub struct Journal {
    log: Mutex<LogWriter>,
    path: PathBuf,
    magic: [u8; 8],
    appended: AtomicU64,
    append_errors: AtomicU64,
}

impl Journal {
    /// Opens (creating if needed) `<dir>/<file.name>` for appending.
    pub fn open(dir: &Path, file: JournalFile) -> io::Result<Journal> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(file.name);
        let log = LogWriter::open_append(&path, &file.magic)?;
        Ok(Journal {
            log: Mutex::new(log),
            path,
            magic: file.magic,
            appended: AtomicU64::new(0),
            append_errors: AtomicU64::new(0),
        })
    }

    /// Journals a job as admitted, before it can run.
    pub fn admit(&self, fp: u128, body: &str) {
        self.append(REC_ADMIT, fp, body.as_bytes());
    }

    /// Journals a job's answer — before it is delivered, so every answer
    /// a client or report ever saw is durable.
    pub fn done(&self, fp: u128, answer: &str) {
        self.append(REC_DONE, fp, answer.as_bytes());
    }

    /// Journals that an admitted job was refused (shed or quarantined):
    /// resume must not re-execute it.
    pub fn refused(&self, fp: u128) {
        self.append(REC_REFUSED, fp, &[]);
    }

    /// Journals a resume re-execution attempt, *before* it runs; the
    /// attempt count drives per-job quarantine.
    pub fn attempt(&self, fp: u128) {
        self.append(REC_ATTEMPT, fp, &[]);
    }

    /// Truncates the journal back to an empty log — the daemon's
    /// checkpoint after a graceful drain, when every admitted job's
    /// answer has been written. Failure leaves the old journal in place
    /// (a later resume merely replays already-answered work) and is
    /// counted.
    pub fn reset(&self) {
        match LogWriter::create(&self.path, &self.magic) {
            Ok(log) => *lock_recovering(&self.log) = log,
            Err(_) => {
                self.append_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Records appended so far.
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    /// Appends (and resets) that failed: journaling degraded, the run
    /// continued.
    pub fn append_errors(&self) -> u64 {
        self.append_errors.load(Ordering::Relaxed)
    }

    fn append(&self, tag: u8, fp: u128, body: &[u8]) {
        let mut payload = Vec::with_capacity(17 + body.len());
        payload.push(tag);
        payload.extend_from_slice(&fp.to_le_bytes());
        payload.extend_from_slice(body);
        // A panic mid-append leaves at most a torn tail, which the
        // loader discards; the writer handle stays valid.
        match lock_recovering(&self.log).append(&payload) {
            Ok(()) => self.appended.fetch_add(1, Ordering::Relaxed),
            Err(_) => self.append_errors.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Loads `<dir>/<file.name>`. A missing journal is an empty state;
    /// torn or corrupt frames and undecodable payloads are skipped and
    /// counted.
    pub fn load(dir: &Path, file: JournalFile) -> io::Result<JournalState> {
        let (records, log) = read_log(&dir.join(file.name), &file.magic)?;
        let mut state = JournalState {
            log,
            ..Default::default()
        };
        let mut seen_admits: HashSet<u128> = HashSet::new();
        for payload in records {
            if payload.len() < 17 {
                state.bad_records += 1;
                continue;
            }
            let fp =
                u128::from_le_bytes(payload[1..17].try_into().expect("17-byte prefix checked"));
            let body = || String::from_utf8(payload[17..].to_vec()).ok();
            match payload[0] {
                REC_ADMIT => match body() {
                    Some(line) if seen_admits.insert(fp) => state.admits.push((fp, line)),
                    Some(_) => {} // duplicate resubmission of the same job
                    None => state.bad_records += 1,
                },
                REC_DONE => match body() {
                    Some(answer) => {
                        state.done.insert(fp, answer);
                    }
                    None => state.bad_records += 1,
                },
                REC_REFUSED => {
                    state.refused.insert(fp);
                }
                REC_ATTEMPT => *state.attempts.entry(fp).or_insert(0) += 1,
                _ => state.bad_records += 1,
            }
        }
        Ok(state)
    }
}

/// What a journal load recovered.
#[derive(Debug, Default)]
pub struct JournalState {
    /// Admit bodies in first-admit order, deduplicated by fingerprint —
    /// the daemon's resume replay order.
    pub admits: Vec<(u128, String)>,
    /// Answers by fingerprint (replayed verbatim on resume).
    pub done: HashMap<u128, String>,
    /// Fingerprints refused (shed or quarantined): not resumed.
    pub refused: HashSet<u128>,
    /// Prior resume attempts by fingerprint (drives quarantine).
    pub attempts: HashMap<u128, u32>,
    /// Raw log framing stats (torn tails, discarded bytes).
    pub log: LogStats,
    /// Structurally invalid payloads skipped.
    pub bad_records: u64,
}

impl JournalState {
    /// Torn/corrupt frames plus undecodable payloads discarded.
    pub fn skipped(&self) -> u64 {
        self.log.skipped_frames + self.bad_records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{record_from_json, record_json, run_batch, BatchOptions, JobRecord, JobStatus};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("eco_journal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn job(name: &str) -> BatchJob {
        use eco_netlist::{parse_verilog, WeightTable};
        let faulty = "module f (a, b, c, t, y); input a, b, c, t; output y; \
                      xor g1 (y, t, c); endmodule";
        let golden = "module g (a, b, c, y); input a, b, c; output y; \
                      wire w; and g1 (w, a, b); xor g2 (y, w, c); endmodule";
        let instance = eco_core::EcoInstance::from_netlists(
            "fp",
            &parse_verilog(faulty).expect("faulty"),
            &parse_verilog(golden).expect("golden"),
            vec!["t".into()],
            &WeightTable::new(1),
        );
        BatchJob::from_instance(name, instance.expect("instance"))
    }

    #[test]
    fn journal_round_trips_all_record_kinds() {
        let dir = tmpdir("roundtrip");
        let journal = Journal::open(&dir, REQUEST_WAL).expect("open");
        let line = |id: u32| format!("{{\"op\": \"run\", \"id\": {id}}}");
        let [a, b, c] = [1, 2, 3].map(|id| request_fingerprint(&line(id)));
        journal.admit(a, &line(1));
        journal.done(a, "{\"id\": 1, \"ok\": true}");
        journal.admit(b, &line(2));
        journal.refused(b);
        journal.admit(c, &line(3)); // the crash victim
        journal.attempt(c);
        journal.admit(c, &line(3)); // duplicate admit
        assert_eq!((journal.appended(), journal.append_errors()), (7, 0));
        drop(journal);
        let state = Journal::load(&dir, REQUEST_WAL).expect("load");
        let admits = [(a, line(1)), (b, line(2)), (c, line(3))];
        assert_eq!(state.admits, admits, "deduped, in first-admit order");
        assert_eq!(
            state.done,
            HashMap::from([(a, "{\"id\": 1, \"ok\": true}".into())])
        );
        assert_eq!(state.refused, HashSet::from([b]));
        assert_eq!(state.attempts, HashMap::from([(c, 1)]));
        assert_eq!(state.skipped(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The batch front-end admits with an empty body and answers with
    /// the job's JSONL record; each front-end reads only its own file.
    #[test]
    fn batch_admit_has_an_empty_body_and_done_holds_the_record() {
        let dir = tmpdir("batch");
        let journal = Journal::open(&dir, BATCH_WAL).expect("open");
        let record = JobRecord {
            status: JobStatus::Complete,
            verified: true,
            ..JobRecord::failed("job0", "")
        };
        journal.admit(7, "");
        journal.done(7, &record_json(&record));
        journal.admit(9, ""); // admitted, never finished
        drop(journal);
        let state = Journal::load(&dir, BATCH_WAL).expect("load");
        assert_eq!(state.admits, [(7, String::new()), (9, String::new())]);
        assert_eq!(state.done.len(), 1);
        assert_eq!(record_from_json(&state.done[&7]), Ok(record));
        let other = Journal::load(&dir, REQUEST_WAL).expect("load");
        assert!(other.admits.is_empty() && other.done.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reset_truncates_to_an_empty_log() {
        let dir = tmpdir("reset");
        let journal = Journal::open(&dir, REQUEST_WAL).expect("open");
        journal.admit(1, "line");
        journal.reset();
        journal.admit(2, "line2"); // post-reset appends still land
        drop(journal);
        let state = Journal::load(&dir, REQUEST_WAL).expect("load");
        assert_eq!(state.admits, [(2, "line2".to_string())]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_payloads_and_torn_tails_are_counted_not_fatal() {
        let dir = tmpdir("garbage");
        let missing = Journal::load(&dir, BATCH_WAL).expect("a missing journal is empty");
        assert!(missing.admits.is_empty() && missing.skipped() == 0);
        std::fs::create_dir_all(&dir).expect("dir");
        let path = dir.join(BATCH_WAL.name);
        let mut log = LogWriter::create(&path, &BATCH_WAL_MAGIC).expect("create");
        log.append(b"short").expect("append");
        log.append(b"\x09sixteen-bytes!!!unknown-tag")
            .expect("append");
        log.append(b"\x02sixteen-bytes!!!\xff\xfe") // done, not UTF-8
            .expect("append");
        log.append(b"\x01sixteen-bytes!!!").expect("append");
        drop(log);
        // A torn frame after the intact records: the prefix survives.
        let mut wal = std::fs::OpenOptions::new().append(true).open(&path);
        std::io::Write::write_all(wal.as_mut().expect("open"), &[0x7f; 9]).expect("tear");
        let state = Journal::load(&dir, BATCH_WAL).expect("load");
        assert_eq!(state.admits.len(), 1);
        assert!(state.done.is_empty());
        assert_eq!((state.bad_records, state.log.skipped_frames), (3, 1));
        assert_eq!(state.skipped(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A journaled `done` record that no longer decodes as a job record
    /// is a persist error, and the job recomputes instead of replaying.
    #[test]
    fn undecodable_done_record_counts_and_the_job_recomputes() {
        let dir = tmpdir("undecodable");
        let jobs = [job("one")];
        let fp = job_fingerprint(0, 0, &jobs[0]);
        let journal = Journal::open(&dir, BATCH_WAL).expect("open");
        journal.admit(fp, "");
        journal.done(fp, "{\"pass\": 0, \"job\": 0}");
        drop(journal);
        let opts = BatchOptions {
            jobs: 1,
            journal: Some(dir.clone()),
            resume: true,
            ..BatchOptions::default()
        };
        let outcome = run_batch(&jobs, &opts);
        assert_eq!((outcome.reused, outcome.persist_errors), (0, 1));
        assert_eq!(outcome.records[0].status, JobStatus::Complete);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprints_separate_slots_content_and_request_ids() {
        let job = job("a");
        let fp = job_fingerprint(0, 0, &job);
        assert_eq!(fp, job_fingerprint(0, 0, &job));
        assert_ne!(fp, job_fingerprint(1, 0, &job), "pass is part of the key");
        assert_ne!(fp, job_fingerprint(0, 1, &job), "index is part of the key");
        let broken = BatchJob {
            source: Err("no such file".into()),
            ..job
        };
        assert_ne!(
            fp,
            job_fingerprint(0, 0, &broken),
            "content is part of the key"
        );
        let a = request_fingerprint("{\"op\": \"run\", \"id\": 1}");
        let b = request_fingerprint("{\"op\": \"run\", \"id\": 2}");
        assert_ne!(
            a, b,
            "the id is part of the key: every client gets an answer"
        );
        assert_eq!(a, request_fingerprint("  {\"op\": \"run\", \"id\": 1}\n"));
    }
}
