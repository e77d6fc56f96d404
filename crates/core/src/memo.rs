//! Cross-job memoization of solver verdicts, keyed by structural
//! fingerprints.
//!
//! A [`MemoCache`] is a sharded, lock-striped concurrent map shared by
//! every job of a batch run. It memoizes the three expensive, *pure*
//! computations of the flow — whole FRAIG sweeps over cluster
//! sub-workspaces, Eq.-2 rectifiability verdicts, and complete verified
//! patch results — keyed by dual 128-bit structural fingerprints
//! ([`eco_aig::Aig::structural_fingerprint`]) of the inputs plus every
//! option knob that can change the output.
//!
//! # Single flight
//!
//! Each key is computed at most once at a time. The first claimant of a
//! missing key is its **leader**: [`MemoCache::claim_patch`] (and its
//! rect and sweep siblings) returns [`Lookup::Miss`] with an RAII
//! [`Claim`], registered in the key's shard next to the map. A later
//! claimant of the same in-flight key is a **waiter**: it blocks on the
//! shard's condvar and, once the claim ends, looks again. The leader's
//! stored value is then an ordinary hit, re-checked exactly like any
//! other (the patch by a fresh SAT miter, a counterexample by its
//! [`crate::check_rect_cex`] audit). A **failed leader** — one that
//! returns an error, `Partial`, or `Unknown`, or panics — drops its claim
//! without storing; the drop wakes the waiters and the first to look
//! again becomes the next leader and computes for itself, so nobody
//! hangs. A hit holds no claim: a thread whose hit is refuted recomputes
//! without one, so a poisoned entry never blocks its duplicates.
//!
//! A hit costs one shard lock: only a miss registers a claim, and only
//! the end of a claim notifies.
//!
//! **Why it cannot deadlock.** A waiter holds no shard lock while it
//! waits (the condvar releases it), so only claims can form a cycle.
//! Claims nest in one direction: a patch leader (`EcoEngine::run_governed`)
//! takes rect claims (the precheck) and sweep claims (per cluster) while
//! it computes, and never the reverse. A thread holding a rect or sweep
//! claim runs a memo-free computation (`check_rectifiable`, one FRAIG
//! sweep) and never waits on any key. Every waits-for edge therefore
//! ends at a thread that waits on nothing, and such a thread finishes
//! or unwinds, dropping its claim, on its own.
//!
//! # Determinism
//!
//! Whether a lookup hits does not depend on scheduling. Every key is
//! computed by one leader and every later claimant — waiter or
//! latecomer — takes its stored value as a hit, so for a given job list
//! the `hits`, `misses` and `insertions` counters are the same for any
//! worker count or interleaving (`tests/determinism.rs` checks this at
//! 1, 2 and 4 workers). Only `waits`, which counts the lookups that
//! found their key in flight, depends on timing. Hits still never change
//! *what* is computed: every memoized granularity is a pure function of
//! its key, so a hit returns exactly the value a fresh computation would
//! produce and results are byte-identical whatever the interleaving.
//!
//! # Soundness
//!
//! A 2⁻¹²⁸ key collision — or a deliberately poisoned entry — must not
//! produce a wrong answer:
//!
//! * every entry stores an independent `check` digest; a mismatch on
//!   lookup is treated as a miss;
//! * cached **patch results** are re-verified with a fresh SAT miter
//!   against the actual instance before being returned ([`crate::EcoEngine`]
//!   does this in `run_governed`); a refuted entry falls back to the
//!   full pipeline and is counted in [`MemoStats::fallbacks`];
//! * cached **counterexample** verdicts are audited with a single B-check
//!   ([`crate::check_rect_cex`]) before being trusted;
//! * cached **sweep classes** feed localization only; a wrong class can
//!   at worst produce a patch that fails the (always fresh) final
//!   verification, which triggers the engine's existing
//!   localization-fallback retry;
//! * a shard lock poisoned by a panicking worker is **recovered**, not
//!   propagated: the shard's map is valid at every unwind point and all
//!   of the guards above still apply, so siblings degrade to
//!   recompute-on-mismatch instead of aborting a long-lived daemon.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use eco_aig::FpHasher;
use eco_fraig::{EquivClasses, SweepStats};

use crate::engine::{EcoOptions, EcoResult};
use crate::instance::EcoInstance;
use crate::rectifiable::Rectifiability;

/// Shard count (power of two; shards are selected by the key's low bits,
/// which are uniformly mixed by the fingerprint hasher).
const SHARDS: usize = 16;

/// Default per-shard entry capacity (FIFO eviction beyond it).
const DEFAULT_SHARD_CAPACITY: usize = 1024;

/// One memoized value, tagged by kind so distinct computations can never
/// alias even if their keys collided. Crate-visible so the durable store
/// ([`crate::memo_store`]) can serialize entries without widening the
/// public API.
#[derive(Clone, Debug)]
pub(crate) enum Entry {
    Sweep {
        check: u128,
        classes: Box<EquivClasses>,
        stats: SweepStats,
    },
    Rect {
        check: u128,
        verdict: Rectifiability,
    },
    Patch {
        check: u128,
        result: Box<EcoResult>,
    },
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<u128, Entry>,
    order: VecDeque<u128>,
    /// Keys whose leader holds a [`Claim`] (a handful at most: one per
    /// worker and nesting level).
    in_flight: Vec<u128>,
}

/// One lock stripe: the shard and the condvar its waiters block on.
#[derive(Debug, Default)]
struct Stripe {
    shard: Mutex<Shard>,
    released: Condvar,
}

/// Crate-internal observer of cache insertions — the hook the durable
/// store uses to journal new entries as they are produced. Encoding
/// happens *outside* the shard lock and appending happens after the
/// insert, so a slow disk never stalls sibling lookups on the stripe.
pub(crate) trait EntrySink: Send + Sync {
    /// Serializes an entry for the journal, or `None` for kinds the sink
    /// does not persist.
    fn encode(&self, key: u128, entry: &Entry) -> Option<Vec<u8>>;
    /// Appends previously encoded bytes. Must not panic; IO failures are
    /// counted by the sink, not propagated (durability degrades, serving
    /// does not).
    fn append(&self, bytes: &[u8]);
}

/// Write-once slot for the optional entry sink (newtype so `MemoCache`
/// keeps its derived `Debug`).
#[derive(Default)]
struct SinkSlot(OnceLock<Arc<dyn EntrySink>>);

impl std::fmt::Debug for SinkSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.get().is_some() {
            "SinkSlot(attached)"
        } else {
            "SinkSlot(none)"
        })
    }
}

/// Cumulative counters of one cache over its lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups that returned a value (kind and check digest matched).
    pub hits: u64,
    /// Lookups that found nothing usable (each one became a leader).
    pub misses: u64,
    /// Lookups that blocked on an in-flight leader before they hit or
    /// missed. The only counter that depends on scheduling.
    pub waits: u64,
    /// Entries stored.
    pub insertions: u64,
    /// Entries evicted by the FIFO capacity bound.
    pub evictions: u64,
    /// Hits later discarded because revalidation refuted the entry.
    pub fallbacks: u64,
    /// Entries currently resident.
    pub entries: u64,
}

impl MemoStats {
    /// The counters as one JSON object, the `"memo"` value of
    /// `eco-batch --stats=json` and of the eco-serve `stats` op and
    /// summary.
    pub fn json(&self) -> String {
        crate::JsonObj::new()
            .u64("hits", self.hits)
            .u64("misses", self.misses)
            .u64("waits", self.waits)
            .u64("insertions", self.insertions)
            .u64("evictions", self.evictions)
            .u64("fallbacks", self.fallbacks)
            .u64("entries", self.entries)
            .build()
    }
}

/// What a claim on a key found: the stored value, or the leadership.
#[derive(Debug)]
pub enum Lookup<'a, T> {
    /// A stored value (possibly one a leader stored while this claimant
    /// waited). The caller re-checks it as the [module docs](self) say.
    Hit(T),
    /// Nothing usable: the caller leads this key and should compute it,
    /// then [`Claim::store`] the result or drop the claim.
    Miss(Claim<'a, T>),
}

/// The leadership of one in-flight key. Claimants of the same key wait
/// until it ends; dropping it without [`Claim::store`] (an error, a
/// partial result, a panic) wakes them to compute for themselves.
#[must_use = "dropping a claim without storing abandons the computation"]
pub struct Claim<'a, T> {
    cache: &'a MemoCache,
    key: u128,
    check: u128,
    wrap: fn(u128, &T) -> Entry,
}

impl<T> std::fmt::Debug for Claim<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Claim").field("key", &self.key).finish()
    }
}

impl<T> Claim<'_, T> {
    /// Stores the computed value under the claimed key, then ends the
    /// claim, waking every waiter to take the value as a hit.
    pub fn store(self, value: &T) {
        self.cache.store(self.key, (self.wrap)(self.check, value));
    }
}

impl<T> Drop for Claim<'_, T> {
    fn drop(&mut self) {
        let stripe = self.cache.stripe(self.key);
        {
            let mut shard = lock(stripe);
            if let Some(i) = shard.in_flight.iter().position(|&k| k == self.key) {
                shard.in_flight.swap_remove(i);
            }
        }
        stripe.released.notify_all();
    }
}

/// Locks a shard, recovering from poisoning: a job thread that panicked
/// while holding the stripe (e.g. mid-`clone` of a cached value) must
/// degrade that shard to recompute-on-mismatch for its siblings, not
/// abort the whole batch or daemon. The shard data is a plain map, FIFO
/// order list and in-flight list whose invariants hold at every point a
/// panic can unwind through, and every returned entry is still guarded
/// by its `check` digest and downstream SAT re-verification, so
/// recovered reads stay sound.
fn lock(stripe: &Stripe) -> MutexGuard<'_, Shard> {
    stripe.shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Sharded, lock-striped, single-flight memo cache shared across the jobs
/// of a batch run (see the [module docs](self) for the single-flight,
/// determinism and soundness contracts).
#[derive(Debug)]
pub struct MemoCache {
    stripes: Vec<Stripe>,
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    waits: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    fallbacks: AtomicU64,
    sink: SinkSlot,
}

impl Default for MemoCache {
    fn default() -> Self {
        MemoCache::new()
    }
}

impl MemoCache {
    /// A cache with the default capacity.
    pub fn new() -> Self {
        MemoCache::with_shard_capacity(DEFAULT_SHARD_CAPACITY)
    }

    /// A cache holding at most `capacity` entries per shard
    /// (16 shards; oldest entries evicted first).
    pub fn with_shard_capacity(capacity: usize) -> Self {
        MemoCache {
            stripes: (0..SHARDS).map(|_| Stripe::default()).collect(),
            shard_capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            sink: SinkSlot::default(),
        }
    }

    /// Attaches the journal sink. Returns `false` (and leaves the
    /// existing sink) if one is already attached. Attach *after* loading
    /// persisted entries, so a reload does not re-journal its own input.
    pub(crate) fn set_sink(&self, sink: Arc<dyn EntrySink>) -> bool {
        self.sink.0.set(sink).is_ok()
    }

    /// Inserts a recovered entry (durable-store load path). Same
    /// first-write-wins semantics as a live insert; call before
    /// [`MemoCache::set_sink`] so the replay is not re-journaled.
    pub(crate) fn import(&self, key: u128, entry: Entry) {
        self.store(key, entry);
    }

    /// Clones every resident entry, shard by shard in FIFO order — the
    /// durable store's snapshot source.
    pub(crate) fn export_entries(&self) -> Vec<(u128, Entry)> {
        let mut out = Vec::new();
        for stripe in &self.stripes {
            let shard = lock(stripe);
            for key in &shard.order {
                if let Some(entry) = shard.map.get(key) {
                    out.push((*key, entry.clone()));
                }
            }
        }
        out
    }

    fn stripe(&self, key: u128) -> &Stripe {
        &self.stripes[(key as usize) & (SHARDS - 1)]
    }

    /// The single-flight lookup behind the three `claim_*` methods: a
    /// usable entry is a hit; otherwise the caller becomes the key's
    /// leader, unless another leader holds it, in which case the caller
    /// waits for that claim to end and looks again.
    fn claim<T>(
        &self,
        key: u128,
        check: u128,
        extract: impl Fn(&Entry) -> Option<T>,
        wrap: fn(u128, &T) -> Entry,
    ) -> Lookup<'_, T> {
        let stripe = self.stripe(key);
        let mut shard = lock(stripe);
        let mut waited = false;
        let hit = loop {
            if let Some(value) = shard.map.get(&key).and_then(&extract) {
                break Some(value);
            }
            if !shard.in_flight.contains(&key) {
                shard.in_flight.push(key);
                break None;
            }
            if !waited {
                waited = true;
                self.waits.fetch_add(1, Ordering::Relaxed);
            }
            shard = stripe
                .released
                .wait(shard)
                .unwrap_or_else(PoisonError::into_inner);
        };
        drop(shard);
        match hit {
            Some(value) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Lookup::Hit(value)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Lookup::Miss(Claim {
                    cache: self,
                    key,
                    check,
                    wrap,
                })
            }
        }
    }

    fn store(&self, key: u128, entry: Entry) {
        // Serialize for the journal before taking the stripe: encoding a
        // patch result (AIGER emission) is the slow part and must not
        // run under the shard lock.
        let encoded = self.sink.0.get().and_then(|sink| sink.encode(key, &entry));
        {
            let mut shard = lock(self.stripe(key));
            if shard.map.contains_key(&key) {
                // First write wins: the value is a pure function of the
                // key, so a concurrent duplicate carries the same data
                // (and needs no journal record either).
                return;
            }
            if shard.map.len() >= self.shard_capacity {
                if let Some(old) = shard.order.pop_front() {
                    shard.map.remove(&old);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
            shard.map.insert(key, entry);
            shard.order.push_back(key);
            self.insertions.fetch_add(1, Ordering::Relaxed);
        }
        if let (Some(sink), Some(bytes)) = (self.sink.0.get(), encoded) {
            sink.append(&bytes);
        }
    }

    /// Claims the complete result for an instance key. A hit **must** be
    /// re-verified against the live instance before it is trusted (and
    /// [`MemoCache::record_fallback`] called when it is refuted); a miss
    /// stores only a complete, verified result.
    pub fn claim_patch(&self, key: u128, check: u128) -> Lookup<'_, EcoResult> {
        self.claim(
            key,
            check,
            |e| match e {
                Entry::Patch { check: c, result } if *c == check => Some((**result).clone()),
                _ => None,
            },
            |check, result| {
                // Telemetry describes the producing run, not the value;
                // strip it so hits report their own (fresh) telemetry.
                let mut result = Box::new(result.clone());
                result.telemetry = Default::default();
                Entry::Patch { check, result }
            },
        )
    }

    /// Claims the rectifiability verdict for an instance key. A
    /// `Counterexample` hit must be audited via [`crate::check_rect_cex`]
    /// before use; a miss stores only a decided (never `Unknown`) verdict.
    pub fn claim_rect(&self, key: u128, check: u128) -> Lookup<'_, Rectifiability> {
        self.claim(
            key,
            check,
            |e| match e {
                Entry::Rect { check: c, verdict } if *c == check => Some(verdict.clone()),
                _ => None,
            },
            |check, verdict| {
                debug_assert!(!matches!(verdict, Rectifiability::Unknown));
                Entry::Rect {
                    check,
                    verdict: verdict.clone(),
                }
            },
        )
    }

    /// Claims the result of one FRAIG sweep, keyed by
    /// [`eco_fraig::sweep_fingerprint`]. The sweep is deterministic in
    /// its key, so a hit is byte-for-byte what a fresh sweep computes; a
    /// miss stores only an unlimited (never `ctl`-cancelled) sweep.
    pub fn claim_sweep(&self, key: u128, check: u128) -> Lookup<'_, (EquivClasses, SweepStats)> {
        self.claim(
            key,
            check,
            |e| match e {
                Entry::Sweep {
                    check: c,
                    classes,
                    stats,
                } if *c == check => Some(((**classes).clone(), *stats)),
                _ => None,
            },
            |check, (classes, stats)| Entry::Sweep {
                check,
                classes: Box::new(classes.clone()),
                stats: *stats,
            },
        )
    }

    /// Counts a hit that revalidation refuted (the caller fell back to the
    /// full computation).
    pub fn record_fallback(&self) {
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the cache's counters.
    pub fn stats(&self) -> MemoStats {
        let entries: usize = self.stripes.iter().map(|s| lock(s).map.len()).sum();
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            waits: self.waits.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            entries: entries as u64,
        }
    }
}

/// Absorbs the identity of an instance and every result-relevant engine
/// option into `h`. Shared by the patch and rectifiability keys.
fn absorb_instance(h: &mut FpHasher, inst: &EcoInstance, opts: &EcoOptions) {
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
    h.word(inst.candidates.len() as u64);
    for c in &inst.candidates {
        h.str(&c.name);
        h.word(u64::from(c.lit.code()));
        h.word(c.weight);
    }
    // Result-relevant engine knobs. `jobs` and `budget` are excluded on
    // purpose: jobs never changes results (tests/determinism.rs) and the
    // memo is only consulted under an unlimited budget. The Debug
    // renderings of the plain option structs are stable and contain no
    // addresses.
    h.word(u64::from(opts.localization));
    h.str(&format!("{:?}", opts.initial_patch));
    h.word(u64::from(opts.optimize));
    h.str(&format!("{:?}", opts.optimize_opts));
    h.word(opts.fraig.sim_words as u64);
    h.word(opts.fraig.seed);
    h.word(opts.fraig.max_rounds as u64);
    h.word(opts.fraig.conflict_budget);
    h.word(opts.fraig.max_total_conflicts);
    h.word(opts.synth_budget);
    h.word(opts.verify_budget);
    h.word(u64::from(opts.precheck_rectifiability));
    h.word(u64::from(opts.size_optimize));
    h.str(&format!("{:?}", opts.size_opts));
}

/// Dual fingerprint identifying a whole instance run (patch-result memo):
/// both circuits' structures, targets, weighted candidates, and every
/// option that can change the emitted patches. The instance *name* is
/// excluded — identical circuits under different job names share entries.
pub fn patch_memo_key(inst: &EcoInstance, opts: &EcoOptions) -> (u128, u128) {
    let mut h = FpHasher::new();
    h.word(0x70a7_c4ac); // domain tag: patch-result entries
    absorb_instance(&mut h, inst, opts);
    h.finish()
}

/// Dual fingerprint identifying a rectifiability check over an instance.
pub fn rect_memo_key(inst: &EcoInstance, opts: &EcoOptions) -> (u128, u128) {
    let mut h = FpHasher::new();
    h.word(0x4ec7_cec2); // domain tag: rectifiability entries
    absorb_instance(&mut h, inst, opts);
    h.finish()
}

#[cfg(test)]
impl<T> Lookup<'_, T> {
    /// The hit's value; a miss drops its claim.
    pub(crate) fn hit(self) -> Option<T> {
        match self {
            Lookup::Hit(value) => Some(value),
            Lookup::Miss(_) => None,
        }
    }

    /// Stores `value` if this was a miss.
    pub(crate) fn fill(self, value: &T) {
        if let Lookup::Miss(claim) = self {
            claim.store(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_netlist::{parse_verilog, WeightTable};
    use std::sync::{mpsc, Barrier};
    use std::thread;
    use std::time::Duration;

    fn instance(name: &str, targets: &[&str]) -> EcoInstance {
        EcoInstance::from_netlists(
            name,
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
            targets.iter().map(|s| s.to_string()).collect(),
            &WeightTable::new(1),
        )
        .expect("instance")
    }

    const OK: Rectifiability = Rectifiability::Rectifiable;

    #[test]
    fn keys_ignore_name_but_cover_options() {
        let opts = EcoOptions::default();
        let a = patch_memo_key(&instance("one", &["t"]), &opts);
        let b = patch_memo_key(&instance("two", &["t"]), &opts);
        assert_eq!(a, b, "instance name must not affect the key");

        let other = EcoOptions {
            localization: false,
            ..Default::default()
        };
        assert_ne!(a, patch_memo_key(&instance("one", &["t"]), &other));

        let mut other = EcoOptions::default();
        other.fraig.seed ^= 1;
        assert_ne!(a, patch_memo_key(&instance("one", &["t"]), &other));

        assert_ne!(
            a,
            rect_memo_key(&instance("one", &["t"]), &opts),
            "domain tags separate patch and rectifiability keys"
        );
    }

    #[test]
    fn check_digest_guards_against_key_collisions() {
        let cache = MemoCache::new();
        cache.claim_rect(7, 100).fill(&OK);
        assert_eq!(cache.claim_rect(7, 100).hit(), Some(OK));
        assert_eq!(
            cache.claim_rect(7, 999).hit(),
            None,
            "check mismatch is a miss"
        );
        assert_eq!(cache.claim_rect(8, 100).hit(), None);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.waits, 0);
    }

    #[test]
    fn kinds_never_alias_even_on_equal_keys() {
        let cache = MemoCache::new();
        cache.claim_rect(42, 1).fill(&OK);
        assert!(
            cache.claim_sweep(42, 1).hit().is_none(),
            "a rect entry must not satisfy a sweep lookup"
        );
        assert!(cache.claim_patch(42, 1).hit().is_none());
    }

    #[test]
    fn fifo_eviction_bounds_each_shard() {
        let cache = MemoCache::with_shard_capacity(2);
        // Keys 0, 16, 32, 48 all land in shard 0.
        for k in [0u128, 16, 32] {
            cache.claim_rect(k, 1).fill(&OK);
        }
        assert!(
            cache.claim_rect(0, 1).hit().is_none(),
            "oldest entry evicted"
        );
        assert!(cache.claim_rect(16, 1).hit().is_some());
        assert!(cache.claim_rect(32, 1).hit().is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
    }

    /// Regression: a job thread that panics while holding a shard lock
    /// poisons it; every cache operation must keep working afterwards
    /// (degrading to recompute on mismatch) instead of aborting the
    /// daemon with it.
    #[test]
    fn poisoned_shard_degrades_to_recompute_instead_of_panicking() {
        let cache = MemoCache::new();
        cache.claim_rect(0, 1).fill(&OK);
        // Poison shard 0 the way a dying worker would: panic while the
        // stripe is held.
        let _ = thread::scope(|s| {
            s.spawn(|| {
                let _guard = cache.stripes[0].shard.lock().unwrap();
                panic!("worker dies holding the memo shard");
            })
            .join()
        });
        assert!(
            cache.stripes[0].shard.lock().is_err(),
            "the shard must actually be poisoned"
        );
        // Every operation on the poisoned shard still works.
        assert_eq!(cache.claim_rect(0, 1).hit(), Some(OK));
        assert_eq!(cache.claim_rect(16, 1).hit(), None, "miss degrades cleanly");
        cache.claim_rect(16, 1).fill(&OK);
        assert_eq!(cache.claim_rect(16, 1).hit(), Some(OK));
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
    }

    /// Every key has exactly one leader however the threads interleave:
    /// misses and insertions equal the key count.
    #[test]
    fn concurrent_claims_have_one_leader_per_key() {
        let cache = MemoCache::new();
        thread::scope(|s| {
            for t in 0..4u64 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..200u64 {
                        let key = u128::from(i % 32);
                        cache.claim_rect(key, 5).fill(&OK);
                        assert_eq!(cache.claim_rect(key, 5).hit(), Some(OK), "thread {t}");
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.entries, 32);
        assert_eq!(stats.insertions, 32);
        assert_eq!(stats.misses, 32, "single flight: one leader per key");
        assert_eq!(stats.hits, 2 * 4 * 200 - 32);
    }

    /// A leader claims key 3; once a second thread is blocked on it, the
    /// leader ends its claim with `finish`. Returns what the waiter's
    /// claim found and the counters, and fails instead of hanging if the
    /// waiter is never woken.
    fn leader_then(finish: fn(Claim<'_, Rectifiability>)) -> (Option<Rectifiability>, MemoStats) {
        let cache = Arc::new(MemoCache::new());
        let barrier = Arc::new(Barrier::new(2));
        let leader = {
            let (cache, barrier) = (Arc::clone(&cache), Arc::clone(&barrier));
            thread::spawn(move || {
                let Lookup::Miss(claim) = cache.claim_rect(3, 4) else {
                    panic!("a cold cache misses");
                };
                barrier.wait();
                while cache.stats().waits == 0 {
                    thread::yield_now();
                }
                finish(claim);
            })
        };
        let (tx, rx) = mpsc::channel();
        {
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                barrier.wait();
                let _ = tx.send(cache.claim_rect(3, 4).hit());
            });
        }
        let found = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the waiter must be woken when the claim ends");
        let _ = leader.join();
        (found, cache.stats())
    }

    #[test]
    fn waiter_computes_for_itself_when_the_leader_panics() {
        let (found, stats) = leader_then(|claim| {
            let _held = claim;
            panic!("leader dies holding its claim");
        });
        assert_eq!(found, None, "the waiter leads the key next");
        assert_eq!((stats.hits, stats.misses, stats.waits), (0, 2, 1));
        assert_eq!(stats.insertions, 0);
    }

    /// `Partial`, `Unrectifiable` and `Unknown` outcomes drop the claim
    /// without storing.
    #[test]
    fn waiter_computes_for_itself_when_the_leader_does_not_store() {
        let (found, stats) = leader_then(|claim| drop(claim));
        assert_eq!(found, None, "the waiter leads the key next");
        assert_eq!((stats.hits, stats.misses, stats.waits), (0, 2, 1));
        assert_eq!(stats.insertions, 0);
    }

    #[test]
    fn waiter_takes_the_leaders_value_as_a_hit() {
        let (found, stats) = leader_then(|claim| claim.store(&OK));
        assert_eq!(found, Some(OK));
        assert_eq!((stats.hits, stats.misses, stats.waits), (1, 1, 1));
        assert_eq!(stats.insertions, 1);
    }
}
