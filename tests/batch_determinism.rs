//! Batch-layer regressions: the JSONL stream report must be
//! byte-identical for any `--jobs` setting (work stealing may interleave
//! jobs arbitrarily, but records carry only scheduling-independent
//! fields and merge in manifest order), warm passes over the shared memo
//! cache must reproduce the cold pass exactly while actually hitting the
//! cache, and a poisoned cache entry must never reach the output — the
//! fresh SAT re-verification of every cached patch has to reject it and
//! fall back to a full run.

mod common;

use std::path::PathBuf;
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use eco::batch::{
    execute_job, exit_code, load_jobs, records_jsonl, run_batch, BatchJob, BatchOptions, JobStatus,
    Manifest,
};
use eco::core::{patch_memo_key, Budget, BudgetOptions, EcoEngine, EcoOptions, Lookup, MemoCache};
use eco::workgen::{contest_suite, manifest_toml, write_unit, SuiteUnit};

/// Small, fast suite units (skips the difficult datapath ones).
fn fast_units(n: usize) -> Vec<SuiteUnit> {
    contest_suite()
        .into_iter()
        .filter(|u| !u.spec.difficult)
        .take(n)
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eco_batch_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// End to end through the manifest layer: emit a workgen suite to disk,
/// load it back, and require byte-identical JSONL for jobs=1 vs jobs=4.
#[test]
fn jsonl_is_byte_identical_across_jobs_settings() {
    let dir = temp_dir("jobs");
    let entries: Vec<_> = fast_units(5)
        .iter()
        .map(|u| write_unit(&dir, u).expect("write unit"))
        .collect();
    let manifest_path = dir.join("manifest.toml");
    std::fs::write(&manifest_path, manifest_toml(&entries)).expect("write manifest");

    let manifest = Manifest::load(&manifest_path).expect("load manifest");
    assert_eq!(manifest.jobs.len(), 5);
    let jobs = load_jobs(&manifest);

    let run = |workers: usize| {
        let outcome = run_batch(
            &jobs,
            &BatchOptions {
                jobs: workers,
                ..Default::default()
            },
        );
        (records_jsonl(&outcome.records), outcome)
    };
    let (seq_jsonl, seq) = run(1);
    let (par_jsonl, _) = run(4);
    assert_eq!(seq_jsonl, par_jsonl, "JSONL must not depend on --jobs");
    assert!(
        seq.records.iter().all(|r| r.status == JobStatus::Complete),
        "suite units are rectifiable by construction: {seq_jsonl}"
    );
    assert_eq!(exit_code(&seq.records), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A warm pass over the shared cache must reproduce the cold pass
/// byte-for-byte (modulo the pass number) while reporting real hits.
#[test]
fn warm_pass_reuses_cache_without_changing_results() {
    let jobs: Vec<BatchJob> = fast_units(4)
        .iter()
        .map(|u| BatchJob::from_instance(u.spec.name.clone(), u.instance().expect("valid")))
        .collect();
    let outcome = run_batch(
        &jobs,
        &BatchOptions {
            jobs: 4,
            repeat: 2,
            ..Default::default()
        },
    );
    assert_eq!(outcome.records.len(), 8);
    assert!(outcome.memo.hits > 0, "warm pass must hit the cache");
    assert_eq!(outcome.memo.fallbacks, 0);
    let line = |r| {
        format!("{:?}", r)
            .replacen("pass: 0", "pass: N", 1)
            .replacen("pass: 1", "pass: N", 1)
    };
    for i in 0..4 {
        assert_eq!(
            line(&outcome.records[i]),
            line(&outcome.records[i + 4]),
            "warm record {i} diverged from cold"
        );
        assert!(
            outcome.records[i].verified,
            "cached patches are re-verified"
        );
    }
}

/// Poisoning defense: a wrong patch planted under an instance's true
/// memo key must be rejected by the fresh SAT re-verification, counted
/// as a fallback, and replaced by the full computation's result.
#[test]
fn poisoned_memo_entry_falls_back_to_full_sat_check() {
    let units = fast_units(2);
    let victim = units[0].instance().expect("valid");
    let donor = units[1].instance().expect("valid");

    // The donor's (correct, verified) result is a wrong patch for the
    // victim — its outputs drive the donor's targets, not the victim's.
    let donor_result = EcoEngine::new(donor, EcoOptions::default())
        .run()
        .expect("donor rectifiable");

    let cache = std::sync::Arc::new(MemoCache::new());
    let options = EcoOptions {
        jobs: 1,
        memo: Some(std::sync::Arc::clone(&cache)),
        ..Default::default()
    };
    let (key, check) = patch_memo_key(&victim, &options);
    let Lookup::Miss(claim) = cache.claim_patch(key, check) else {
        panic!("a fresh cache misses");
    };
    claim.store(&donor_result);

    let fresh = EcoEngine::new(victim.clone(), EcoOptions::default())
        .run()
        .expect("victim rectifiable");
    let engine = EcoEngine::new(victim, options);
    let poisoned_run = engine.run().expect("victim rectifiable");

    let stats = cache.stats();
    assert!(stats.fallbacks > 0, "poisoned entry must be refuted");
    assert_eq!(
        poisoned_run.cost, fresh.cost,
        "fallback must match fresh run"
    );
    assert_eq!(poisoned_run.size, fresh.size);
    assert_eq!(
        format!("{:?}", poisoned_run.patch_aig),
        format!("{:?}", fresh.patch_aig),
        "fallback patch must be the fresh patch, not the planted one"
    );
    common::assert_patched_equals_golden(&units[0].faulty, &units[0].golden, &poisoned_run);
}

/// Single flight never blocks on a poisoned entry: two duplicate jobs
/// started together both hit the planted patch, both refute it, and
/// both recompute without a claim, so neither waits for the other. The
/// counters match the same two jobs run one after the other.
#[test]
fn refuted_hit_does_not_block_a_concurrent_duplicate() {
    let units = fast_units(2);
    let victim = units[0].instance().expect("valid");
    let donor = units[1].instance().expect("valid");
    let donor_result = EcoEngine::new(donor, EcoOptions::default())
        .run()
        .expect("donor rectifiable");
    let options = EcoOptions::default();
    let (key, check) = patch_memo_key(&victim, &options);
    let poisoned = || {
        let cache = Arc::new(MemoCache::new());
        let Lookup::Miss(claim) = cache.claim_patch(key, check) else {
            panic!("a fresh cache misses");
        };
        claim.store(&donor_result);
        cache
    };
    let run = move |name: &str, cache: &Arc<MemoCache>| {
        let source = Ok(victim.clone());
        let record = execute_job(name, &source, &options, &Budget::unlimited(), cache);
        assert_eq!(record.status, JobStatus::Complete, "{record:?}");
        assert!(record.verified);
    };

    let sequential = poisoned();
    run("dup-a", &sequential);
    run("dup-b", &sequential);

    // Plain threads, so a hung duplicate fails the wait below instead of
    // hanging the test.
    let concurrent = poisoned();
    let run = Arc::new(run);
    let barrier = Arc::new(Barrier::new(2));
    let (tx, rx) = mpsc::channel();
    for name in ["dup-a", "dup-b"] {
        let (run, cache, barrier, tx) = (
            Arc::clone(&run),
            Arc::clone(&concurrent),
            Arc::clone(&barrier),
            tx.clone(),
        );
        std::thread::spawn(move || {
            barrier.wait();
            run(name, &cache);
            let _ = tx.send(());
        });
    }
    drop(tx);
    for _ in 0..2 {
        rx.recv_timeout(Duration::from_secs(300))
            .expect("a duplicate of a refuted entry must finish, not hang");
    }
    let (seq, par) = (sequential.stats(), concurrent.stats());
    assert_eq!(par.fallbacks, 2, "both duplicates refute the planted patch");
    assert_eq!(
        (par.hits, par.misses, par.insertions, par.fallbacks),
        (seq.hits, seq.misses, seq.insertions, seq.fallbacks)
    );
}

/// A starved batch degrades to per-job outcomes instead of erroring:
/// with a zero deadline every job must still produce a well-formed
/// `complete` or `partial` record, and the exit code reflects it.
#[test]
fn starved_batch_degrades_to_partial_records() {
    let jobs: Vec<BatchJob> = fast_units(3)
        .iter()
        .map(|u| BatchJob::from_instance(u.spec.name.clone(), u.instance().expect("valid")))
        .collect();
    let outcome = run_batch(
        &jobs,
        &BatchOptions {
            jobs: 2,
            budget: BudgetOptions {
                timeout: Some(std::time::Duration::ZERO),
                cluster_conflicts: Some(3),
            },
            ..Default::default()
        },
    );
    for record in &outcome.records {
        assert!(
            matches!(record.status, JobStatus::Complete | JobStatus::Partial),
            "starvation must degrade, not error: {record:?}"
        );
    }
    let code = exit_code(&outcome.records);
    assert!(code == 0 || code == 4, "unexpected exit code {code}");
    // Limited budgets bypass the memo cache entirely.
    assert_eq!(outcome.memo.hits + outcome.memo.misses, 0);
}
