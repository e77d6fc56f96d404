//! Durable [`MemoCache`] persistence: snapshot + append-only journal,
//! with a checksummed record log shared by every WAL in the workspace.
//!
//! # Record log format
//!
//! A log file is an 8-byte magic followed by length-prefixed records:
//!
//! ```text
//! [magic: 8 bytes] ([len: u32 LE] [crc32: u32 LE] [payload: len bytes])*
//! ```
//!
//! Every record carries a CRC-32 (IEEE) of its payload, so loading
//! tolerates exactly the failures a crash can produce: a torn tail
//! (partial last record after a kill mid-write) or a flipped byte. The
//! reader stops at the first frame whose length or checksum doesn't
//! hold and reports how much it discarded — an append-only log has no
//! trustworthy data past its first bad frame. The same framing backs
//! the serve request journal and the batch WAL ([`LogWriter`] /
//! [`read_log`] are public for that reason).
//!
//! # What the memo store persists
//!
//! [`MemoStore`] journals **rectifiability verdicts** and **complete
//! patch results** as they are inserted (via the crate-internal cache
//! sink) and compacts them into a snapshot on graceful shutdown. Sweep
//! entries are deliberately *not* persisted: they are per-cluster
//! derived artifacts that are cheap relative to the patch results that
//! subsume them, and their payload (equivalence-class tables) does not
//! have a stable serial form. Patch circuits travel as binary AIGER
//! ([`eco_aig::write_aiger_binary`]), which round-trips input/output
//! names exactly.
//!
//! # Why a corrupt-but-checksum-valid entry is still safe
//!
//! Durability never weakens the cache's soundness contract: a loaded
//! patch entry is SAT re-verified against the live instance on every
//! hit (see [`crate::MemoCache`]), and counterexample verdicts are
//! audited with a fresh B-check. The checksums exist to keep *recovery*
//! clean and counted — correctness never depends on them.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use eco_aig::{parse_aiger_binary, write_aiger_binary};

use crate::engine::{EcoResult, TargetPatch};
use crate::faultpoint;
use crate::memo::{Entry, EntrySink, MemoCache};
use crate::rectifiable::Rectifiability;

/// Magic prefix of memo snapshot and journal files.
pub const MEMO_MAGIC: [u8; 8] = *b"ECOMEMO1";

/// Upper bound on a single record payload; longer length prefixes are
/// treated as corruption (a flipped length byte must not trigger a
/// gigabyte allocation).
const MAX_RECORD_LEN: u32 = 256 * 1024 * 1024;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), byte-at-a-time with a const-built table.

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `data` — the per-record checksum of every log.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Framed record log.

/// Append handle on a framed record log (see the [module docs](self)).
#[derive(Debug)]
pub struct LogWriter {
    file: File,
}

impl LogWriter {
    /// Creates (truncating) a log at `path` with the given magic.
    pub fn create(path: &Path, magic: &[u8; 8]) -> std::io::Result<LogWriter> {
        let mut file = File::create(path)?;
        file.write_all(magic)?;
        Ok(LogWriter { file })
    }

    /// Opens a log for appending, creating it (with magic) if missing or
    /// empty. Rejects a file that exists with a different magic.
    pub fn open_append(path: &Path, magic: &[u8; 8]) -> std::io::Result<LogWriter> {
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let len = file.metadata()?.len();
        if len == 0 {
            file.write_all(magic)?;
        } else {
            let mut head = [0u8; 8];
            let n = file.read(&mut head)?;
            if n < 8 || head != *magic {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{}: not a record log (bad magic)", path.display()),
                ));
            }
        }
        Ok(LogWriter { file })
    }

    /// Appends one framed record. Consults the `io.write` fault point.
    pub fn append(&mut self, payload: &[u8]) -> std::io::Result<()> {
        faultpoint::inject_io("io.write")?;
        // One write_all for the whole frame: a crash can still tear it,
        // but only at the tail the reader is built to discard.
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.write_all(&frame)
    }

    /// Flushes file data to disk. Consults the `io.fsync` fault point.
    pub fn sync(&mut self) -> std::io::Result<()> {
        faultpoint::inject_io("io.fsync")?;
        self.file.sync_data()
    }
}

/// What [`read_log`] found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Records read intact.
    pub records: u64,
    /// Corrupt or torn frames hit (at most 1: reading stops there).
    pub skipped_frames: u64,
    /// Bytes discarded from the first bad frame to end-of-file.
    pub discarded_bytes: u64,
}

/// Reads every intact record of the log at `path`. A missing file is an
/// empty log; a file with the wrong magic yields no records and counts
/// one skipped frame. Reading stops at the first torn or corrupt frame
/// (append-only logs have no trustworthy data past it).
pub fn read_log(path: &Path, magic: &[u8; 8]) -> std::io::Result<(Vec<Vec<u8>>, LogStats)> {
    let data = match std::fs::read(path) {
        Ok(d) => d,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok((Vec::new(), LogStats::default()))
        }
        Err(e) => return Err(e),
    };
    let mut stats = LogStats::default();
    if data.len() < 8 || data[..8] != *magic {
        stats.skipped_frames = 1;
        stats.discarded_bytes = data.len() as u64;
        return Ok((Vec::new(), stats));
    }
    let mut records = Vec::new();
    let mut pos = 8usize;
    while pos < data.len() {
        let rest = &data[pos..];
        if rest.len() < 8 {
            break; // torn frame header
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if len > MAX_RECORD_LEN || rest.len() < 8 + len as usize {
            break; // implausible length or torn payload
        }
        let payload = &rest[8..8 + len as usize];
        if crc32(payload) != crc {
            break; // flipped bytes
        }
        records.push(payload.to_vec());
        stats.records += 1;
        pos += 8 + len as usize;
    }
    if pos < data.len() {
        stats.skipped_frames = 1;
        stats.discarded_bytes = (data.len() - pos) as u64;
    }
    Ok((records, stats))
}

// ---------------------------------------------------------------------------
// Entry codec.

const TAG_RECT: u8 = 1;
const TAG_PATCH: u8 = 2;

struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u128(&mut self, v: u128) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.0.extend_from_slice(v);
    }
    fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

struct Dec<'a>(&'a [u8]);

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.0.len() < n {
            return None;
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Some(head)
    }
    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }
    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
    fn u128(&mut self) -> Option<u128> {
        Some(u128::from_le_bytes(self.take(16)?.try_into().ok()?))
    }
    fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }
    fn str(&mut self) -> Option<String> {
        String::from_utf8(self.bytes()?.to_vec()).ok()
    }
}

/// Serializes a cache entry, or `None` for kinds the store skips
/// (sweeps — see the [module docs](self)).
pub(crate) fn encode_memo_entry(key: u128, entry: &Entry) -> Option<Vec<u8>> {
    let mut e = Enc(Vec::new());
    match entry {
        Entry::Sweep { .. } => return None,
        Entry::Rect { check, verdict } => {
            e.u8(TAG_RECT);
            e.u128(key);
            e.u128(*check);
            match verdict {
                Rectifiability::Rectifiable => e.u8(0),
                Rectifiability::Counterexample(cex) => {
                    e.u8(1);
                    e.u32(cex.len() as u32);
                    for (name, value) in cex {
                        e.str(name);
                        e.u8(u8::from(*value));
                    }
                }
                // Never stored (claim_rect debug-asserts); skip defensively.
                Rectifiability::Unknown => return None,
            }
        }
        Entry::Patch { check, result } => {
            e.u8(TAG_PATCH);
            e.u128(key);
            e.u128(*check);
            e.u64(result.cost);
            e.u64(result.size as u64);
            e.u8(u8::from(result.localization_fallback));
            e.u64(result.interpolation_fallbacks as u64);
            e.u64(result.optimize_delta.0);
            e.u64(result.optimize_delta.1);
            e.u32(result.patches.len() as u32);
            for patch in &result.patches {
                e.str(&patch.target);
                e.u32(patch.base.len() as u32);
                for b in &patch.base {
                    e.str(b);
                }
                e.u64(patch.size as u64);
            }
            e.bytes(&write_aiger_binary(&result.patch_aig));
        }
    }
    Some(e.0)
}

/// Deserializes one journaled entry; `None` means the payload is
/// structurally invalid (counted as skipped by the loader).
pub(crate) fn decode_memo_entry(payload: &[u8]) -> Option<(u128, Entry)> {
    let mut d = Dec(payload);
    match d.u8()? {
        TAG_RECT => {
            let key = d.u128()?;
            let check = d.u128()?;
            let verdict = match d.u8()? {
                0 => Rectifiability::Rectifiable,
                1 => {
                    let n = d.u32()? as usize;
                    let mut cex = Vec::with_capacity(n.min(4096));
                    for _ in 0..n {
                        let name = d.str()?;
                        let value = match d.u8()? {
                            0 => false,
                            1 => true,
                            _ => return None,
                        };
                        cex.push((name, value));
                    }
                    Rectifiability::Counterexample(cex)
                }
                _ => return None,
            };
            Some((key, Entry::Rect { check, verdict }))
        }
        TAG_PATCH => {
            let key = d.u128()?;
            let check = d.u128()?;
            let cost = d.u64()?;
            let size = d.u64()? as usize;
            let localization_fallback = d.u8()? != 0;
            let interpolation_fallbacks = d.u64()? as usize;
            let optimize_delta = (d.u64()?, d.u64()?);
            let n = d.u32()? as usize;
            let mut patches = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                let target = d.str()?;
                let nb = d.u32()? as usize;
                let mut base = Vec::with_capacity(nb.min(4096));
                for _ in 0..nb {
                    base.push(d.str()?);
                }
                let psize = d.u64()? as usize;
                patches.push(TargetPatch {
                    target,
                    base,
                    size: psize,
                });
            }
            let patch_aig = parse_aiger_binary(d.bytes()?).ok()?;
            let result = EcoResult {
                patches,
                patch_aig,
                cost,
                size,
                localization_fallback,
                interpolation_fallbacks,
                optimize_delta,
                // Telemetry describes a producing run, never a cached
                // value; claim_patch already strips it.
                telemetry: Default::default(),
            };
            Some((
                key,
                Entry::Patch {
                    check,
                    result: Box::new(result),
                },
            ))
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// The durable store.

/// What a [`MemoStore::load_into`] pass recovered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoLoadStats {
    /// Entries decoded and inserted into the cache.
    pub loaded: u64,
    /// Records skipped: torn/corrupt frames, undecodable payloads, and
    /// `memo.load` fault injections.
    pub skipped: u64,
    /// Bytes discarded at torn tails (snapshot + journal).
    pub discarded_bytes: u64,
}

/// Durable backing for a [`MemoCache`]: `memo.snap` (compacted
/// snapshot) plus `memo.wal` (append-only journal of inserts since the
/// snapshot), both in the state directory handed to [`MemoStore::open`].
///
/// Lifecycle: `open` → [`MemoStore::load_into`] (recover) →
/// [`MemoStore::attach`] (journal new inserts) → serve →
/// [`MemoStore::snapshot`] on graceful drain (compact + truncate the
/// journal). Append failures degrade durability, never serving: they
/// are counted ([`MemoStore::append_errors`]) and the entry stays
/// cached in memory.
#[derive(Debug)]
pub struct MemoStore {
    snap_path: PathBuf,
    wal_path: PathBuf,
    wal: Mutex<Option<LogWriter>>,
    appended: AtomicU64,
    append_errors: AtomicU64,
}

impl MemoStore {
    /// Opens (creating if needed) the store in `dir`.
    pub fn open(dir: &Path) -> std::io::Result<Arc<MemoStore>> {
        std::fs::create_dir_all(dir)?;
        let snap_path = dir.join("memo.snap");
        let wal_path = dir.join("memo.wal");
        let wal = LogWriter::open_append(&wal_path, &MEMO_MAGIC)?;
        Ok(Arc::new(MemoStore {
            snap_path,
            wal_path,
            wal: Mutex::new(Some(wal)),
            appended: AtomicU64::new(0),
            append_errors: AtomicU64::new(0),
        }))
    }

    /// Replays the snapshot, then the journal, into `cache`. Corrupt,
    /// torn, or undecodable records are skipped and counted — recovery
    /// never fails, it only recovers less. Call before [`MemoStore::attach`]
    /// so the replay is not re-journaled. Each record also consults the
    /// `memo.load` fault point (injected hit ⇒ treated as corrupt).
    pub fn load_into(&self, cache: &MemoCache) -> MemoLoadStats {
        let mut stats = MemoLoadStats::default();
        for path in [&self.snap_path, &self.wal_path] {
            let (records, log) = match read_log(path, &MEMO_MAGIC) {
                Ok(r) => r,
                Err(_) => {
                    stats.skipped += 1;
                    continue;
                }
            };
            stats.skipped += log.skipped_frames;
            stats.discarded_bytes += log.discarded_bytes;
            for payload in records {
                if faultpoint::should_fail("memo.load") {
                    stats.skipped += 1;
                    continue;
                }
                match decode_memo_entry(&payload) {
                    Some((key, entry)) => {
                        cache.import(key, entry);
                        stats.loaded += 1;
                    }
                    None => stats.skipped += 1,
                }
            }
        }
        stats
    }

    /// Attaches this store as the cache's insert journal.
    pub fn attach(self: &Arc<Self>, cache: &MemoCache) {
        cache.set_sink(self.clone());
    }

    /// Compacts every resident entry of `cache` into a fresh snapshot
    /// (written to a temp file, fsynced, renamed over `memo.snap`) and
    /// truncates the journal. Returns the number of entries written.
    pub fn snapshot(&self, cache: &MemoCache) -> std::io::Result<u64> {
        let tmp_path = self.snap_path.with_extension("snap.tmp");
        let mut tmp = LogWriter::create(&tmp_path, &MEMO_MAGIC)?;
        let mut written = 0u64;
        for (key, entry) in cache.export_entries() {
            if let Some(bytes) = encode_memo_entry(key, &entry) {
                tmp.append(&bytes)?;
                written += 1;
            }
        }
        tmp.sync()?;
        std::fs::rename(&tmp_path, &self.snap_path)?;
        // Everything journaled so far is now in the snapshot.
        let fresh = LogWriter::create(&self.wal_path, &MEMO_MAGIC)?;
        *self.lock_wal() = Some(fresh);
        Ok(written)
    }

    /// Journal records appended since open.
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    /// Journal appends that failed (durability degraded, serving
    /// continued).
    pub fn append_errors(&self) -> u64 {
        self.append_errors.load(Ordering::Relaxed)
    }

    fn lock_wal(&self) -> std::sync::MutexGuard<'_, Option<LogWriter>> {
        // A panic mid-append leaves at worst a torn tail, which the
        // loader discards; the writer handle itself is always valid.
        self.wal.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl EntrySink for MemoStore {
    fn encode(&self, key: u128, entry: &Entry) -> Option<Vec<u8>> {
        encode_memo_entry(key, entry)
    }

    fn append(&self, bytes: &[u8]) {
        let mut guard = self.lock_wal();
        let result = match guard.as_mut() {
            Some(wal) => wal.append(bytes),
            None => return,
        };
        drop(guard);
        match result {
            Ok(()) => {
                self.appended.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.append_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EcoEngine, EcoOptions};
    use crate::instance::EcoInstance;
    use crate::memo::patch_memo_key;
    use eco_netlist::{parse_verilog, WeightTable};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("eco_memo_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tmpdir");
        dir
    }

    fn instance() -> EcoInstance {
        EcoInstance::from_netlists(
            "store-test",
            &parse_verilog(
                "module f (a, b, c, t, y); input a, b, c, t; output y; \
                 xor g1 (y, t, c); endmodule",
            )
            .expect("faulty"),
            &parse_verilog(
                "module g (a, b, c, y); input a, b, c; output y; \
                 wire w; and g1 (w, a, b); xor g2 (y, w, c); endmodule",
            )
            .expect("golden"),
            vec!["t".into()],
            &WeightTable::new(1),
        )
        .expect("instance")
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn log_round_trips_and_missing_file_is_empty() {
        let dir = tmpdir("log");
        let path = dir.join("t.log");
        let (records, stats) = read_log(&path, &MEMO_MAGIC).expect("missing ok");
        assert!(records.is_empty());
        assert_eq!(stats, LogStats::default());
        let mut w = LogWriter::create(&path, &MEMO_MAGIC).expect("create");
        w.append(b"alpha").expect("a");
        w.append(b"").expect("empty payload is a valid record");
        w.append(b"gamma").expect("g");
        w.sync().expect("sync");
        let (records, stats) = read_log(&path, &MEMO_MAGIC).expect("read");
        assert_eq!(
            records,
            vec![b"alpha".to_vec(), Vec::new(), b"gamma".to_vec()]
        );
        assert_eq!(stats.records, 3);
        assert_eq!(stats.skipped_frames, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_discarded_and_counted() {
        let dir = tmpdir("torn");
        let path = dir.join("t.log");
        let mut w = LogWriter::create(&path, &MEMO_MAGIC).expect("create");
        w.append(b"first").expect("a");
        w.append(b"second-record").expect("b");
        drop(w);
        let full = std::fs::read(&path).expect("read file");
        // Tear mid-way through the second record's payload.
        std::fs::write(&path, &full[..full.len() - 4]).expect("tear");
        let (records, stats) = read_log(&path, &MEMO_MAGIC).expect("read");
        assert_eq!(records, vec![b"first".to_vec()]);
        assert_eq!(stats.records, 1);
        assert_eq!(stats.skipped_frames, 1);
        assert!(stats.discarded_bytes > 0);
        // Appending after the tear still works (open_append), and the
        // reader keeps stopping at the tear: no data past it is trusted.
        let mut w = LogWriter::open_append(&path, &MEMO_MAGIC).expect("reopen");
        w.append(b"third").expect("c");
        let (records, _) = read_log(&path, &MEMO_MAGIC).expect("read");
        assert_eq!(records, vec![b"first".to_vec()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_byte_stops_the_read() {
        let dir = tmpdir("flip");
        let path = dir.join("t.log");
        let mut w = LogWriter::create(&path, &MEMO_MAGIC).expect("create");
        w.append(b"aaaa").expect("a");
        w.append(b"bbbb").expect("b");
        w.append(b"cccc").expect("c");
        drop(w);
        let mut data = std::fs::read(&path).expect("read");
        // Flip one payload byte of the middle record.
        let mid = 8 + (8 + 4) + 8 + 1;
        data[mid] ^= 0x40;
        std::fs::write(&path, &data).expect("write");
        let (records, stats) = read_log(&path, &MEMO_MAGIC).expect("read");
        assert_eq!(records, vec![b"aaaa".to_vec()]);
        assert_eq!(stats.skipped_frames, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_magic_yields_no_records() {
        let dir = tmpdir("magic");
        let path = dir.join("t.log");
        std::fs::write(&path, b"NOTALOG!junkjunkjunk").expect("write");
        let (records, stats) = read_log(&path, &MEMO_MAGIC).expect("read");
        assert!(records.is_empty());
        assert_eq!(stats.skipped_frames, 1);
        assert!(LogWriter::open_append(&path, &MEMO_MAGIC).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rect_entries_round_trip_through_snapshot() {
        let dir = tmpdir("rect");
        let store = MemoStore::open(&dir).expect("open");
        let cache = MemoCache::new();
        cache.claim_rect(11, 101).fill(&Rectifiability::Rectifiable);
        cache
            .claim_rect(12, 102)
            .fill(&Rectifiability::Counterexample(vec![
                ("a".into(), true),
                ("b".into(), false),
            ]));
        assert_eq!(store.snapshot(&cache).expect("snapshot"), 2);
        let fresh = MemoCache::new();
        let stats = store.load_into(&fresh);
        assert_eq!(stats.loaded, 2);
        assert_eq!(stats.skipped, 0);
        assert_eq!(
            fresh.claim_rect(11, 101).hit(),
            Some(Rectifiability::Rectifiable)
        );
        assert_eq!(
            fresh.claim_rect(12, 102).hit(),
            Some(Rectifiability::Counterexample(vec![
                ("a".into(), true),
                ("b".into(), false)
            ]))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn attached_sink_journals_inserts_for_the_next_process() {
        let dir = tmpdir("sink");
        let inst = instance();
        let opts = EcoOptions::default();
        let (key, check) = patch_memo_key(&inst, &opts);
        let result = EcoEngine::new(inst, opts)
            .run()
            .expect("doc example rectifies");
        {
            let store = MemoStore::open(&dir).expect("open");
            let cache = MemoCache::new();
            store.attach(&cache);
            cache.claim_patch(key, check).fill(&result);
            cache.claim_rect(5, 6).fill(&Rectifiability::Rectifiable);
            assert_eq!(store.appended(), 2);
            assert_eq!(store.append_errors(), 0);
            // No snapshot: simulate a crash (journal only).
        }
        let store = MemoStore::open(&dir).expect("reopen");
        let cache = MemoCache::new();
        let stats = store.load_into(&cache);
        assert_eq!(stats.loaded, 2);
        let cached = cache
            .claim_patch(key, check)
            .hit()
            .expect("patch recovered");
        assert_eq!(cached.cost, result.cost);
        assert_eq!(cached.size, result.size);
        assert_eq!(cached.patches.len(), result.patches.len());
        assert_eq!(cached.patches[0].target, result.patches[0].target);
        assert_eq!(cached.patches[0].base, result.patches[0].base);
        assert_eq!(
            cached.patch_aig.structural_fingerprint(),
            result.patch_aig.structural_fingerprint(),
            "patch circuit must round-trip structurally intact"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_entries_are_not_persisted() {
        let dir = tmpdir("sweep");
        let store = MemoStore::open(&dir).expect("open");
        let cache = MemoCache::new();
        store.attach(&cache);
        cache.claim_sweep(1, 2).fill(&Default::default());
        assert_eq!(store.appended(), 0, "sweep inserts are not journaled");
        assert_eq!(store.snapshot(&cache).expect("snapshot"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn undecodable_journal_record_is_skipped_not_fatal() {
        let dir = tmpdir("undecodable");
        let store = MemoStore::open(&dir).expect("open");
        {
            let mut wal = LogWriter::open_append(&dir.join("memo.wal"), &MEMO_MAGIC).expect("wal");
            wal.append(b"\xffgarbage-payload").expect("append");
        }
        let cache = MemoCache::new();
        let cache_stats_before = cache.stats();
        let stats = store.load_into(&cache);
        assert_eq!(stats.loaded, 0);
        assert_eq!(stats.skipped, 1);
        assert_eq!(cache.stats().entries, cache_stats_before.entries);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_truncates_the_journal() {
        let dir = tmpdir("truncate");
        let store = MemoStore::open(&dir).expect("open");
        let cache = MemoCache::new();
        store.attach(&cache);
        cache.claim_rect(1, 2).fill(&Rectifiability::Rectifiable);
        assert_eq!(store.appended(), 1);
        store.snapshot(&cache).expect("snapshot");
        let (wal_records, _) = read_log(&dir.join("memo.wal"), &MEMO_MAGIC).expect("read");
        assert!(wal_records.is_empty(), "journal compacted into snapshot");
        let fresh = MemoCache::new();
        assert_eq!(store.load_into(&fresh).loaded, 1, "entry survives in snap");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
