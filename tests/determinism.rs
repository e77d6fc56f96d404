//! Determinism regression: the per-cluster patch-generation stage runs on
//! scoped worker threads when `jobs > 1`, but merges in cluster order, so
//! every `jobs` value must produce *identical* results — same cost, same
//! size, same per-target base sets, byte-identical patch AIG. The batch
//! layer's memo counters must not depend on the worker count either.

mod common;

use eco::batch::{records_jsonl, run_batch, BatchJob, BatchOptions};
use eco::core::{
    Budget, BudgetOptions, ClusterDiagnosis, EcoEngine, EcoOptions, EcoOutcome, EcoResult,
};
use eco::workgen::contest_suite;

fn run_with_jobs(inst: &eco::core::EcoInstance, jobs: usize, precheck: bool) -> EcoResult {
    EcoEngine::new(
        inst.clone(),
        EcoOptions {
            jobs,
            precheck_rectifiability: precheck,
            ..Default::default()
        },
    )
    .run()
    .expect("rectifiable")
}

fn assert_identical(unit: &str, seq: &EcoResult, par: &EcoResult) {
    assert_eq!(seq.cost, par.cost, "{unit}: cost differs");
    assert_eq!(seq.size, par.size, "{unit}: size differs");
    assert_eq!(
        seq.patches.len(),
        par.patches.len(),
        "{unit}: patch count differs"
    );
    for (a, b) in seq.patches.iter().zip(&par.patches) {
        assert_eq!(a.target, b.target, "{unit}: target order differs");
        assert_eq!(a.base, b.base, "{unit}: base set differs for {}", a.target);
        assert_eq!(
            a.size, b.size,
            "{unit}: patch size differs for {}",
            a.target
        );
    }
    assert_eq!(
        format!("{:?}", seq.patch_aig),
        format!("{:?}", par.patch_aig),
        "{unit}: patch AIG differs structurally"
    );
}

/// Multi-cluster units from the synthetic contest suite, jobs=1 vs jobs=4,
/// with the Eq.-2 rectifiability precheck off and on. The precheck runs
/// on a scratch workspace, so it must not change the patches either.
#[test]
fn parallel_patchgen_is_deterministic() {
    let subset = ["unit02", "unit04", "unit06", "unit10", "unit12"];
    let mut checked = 0;
    for unit in contest_suite() {
        if !subset.contains(&unit.spec.name.as_str()) {
            continue;
        }
        let inst = unit.instance().expect("valid instance");
        let seq = run_with_jobs(&inst, 1, false);
        for (jobs, precheck) in [(4, false), (1, true), (4, true)] {
            let label = format!("{} (jobs {jobs}, precheck {precheck})", unit.spec.name);
            let other = run_with_jobs(&inst, jobs, precheck);
            common::assert_patched_equals_golden(&unit.faulty, &unit.golden, &other);
            assert_identical(&label, &seq, &other);
            assert!(
                other.telemetry.jobs >= 1 && other.telemetry.clusters >= 1,
                "{label}: telemetry must record the flow shape"
            );
        }
        checked += 1;
    }
    assert_eq!(checked, subset.len(), "suite units went missing");
}

/// Degradation must be jobs-independent too: under a fixed conflict
/// budget (no wall clock), the patched-vs-exhausted cluster split and the
/// merged partial patches are identical for `--jobs 1` and `--jobs 4`,
/// because conflict accounting is worker-local and charged with
/// deterministic SAT conflict counts.
#[test]
fn degradation_is_jobs_independent() {
    let run_governed = |inst: &eco::core::EcoInstance, jobs: usize, conflicts: u64| {
        let budget = BudgetOptions {
            timeout: None,
            cluster_conflicts: Some(conflicts),
        };
        EcoEngine::new(
            inst.clone(),
            EcoOptions {
                jobs,
                ..Default::default()
            },
        )
        .run_governed(&Budget::new(&budget))
        .expect("governed runs degrade, they do not error")
    };
    let unit = contest_suite()
        .into_iter()
        .find(|u| u.spec.name == "unit06")
        .expect("unit06 exists");
    let inst = unit.instance().expect("valid instance");
    // A zero allowance exhausts every cluster up front; a generous one
    // completes. Either way jobs=1 and jobs=4 must agree exactly.
    for conflicts in [0, 1 << 30] {
        let seq = run_governed(&inst, 1, conflicts);
        let par = run_governed(&inst, 4, conflicts);
        match (&seq, &par) {
            (EcoOutcome::Complete(a), EcoOutcome::Complete(b)) => {
                assert_identical("unit06-governed", a, b);
            }
            (EcoOutcome::Partial(a), EcoOutcome::Partial(b)) => {
                assert_eq!(a.reason, b.reason, "degradation reason differs");
                assert_eq!(a.clusters.len(), b.clusters.len());
                for (ca, cb) in a.clusters.iter().zip(&b.clusters) {
                    assert_eq!(ca.targets, cb.targets, "cluster order differs");
                    assert_eq!(
                        ca.diagnosis, cb.diagnosis,
                        "diagnosis differs for {:?}",
                        ca.targets
                    );
                }
                assert_eq!(a.cost, b.cost);
                assert_eq!(a.size, b.size);
                assert_eq!(
                    format!("{:?}", a.patch_aig),
                    format!("{:?}", b.patch_aig),
                    "partial patch AIG differs structurally"
                );
            }
            _ => panic!("jobs=1 and jobs=4 disagree on complete-vs-partial"),
        }
        if conflicts == 0 {
            let EcoOutcome::Partial(p) = &seq else {
                panic!("a zero allowance must degrade");
            };
            assert!(p
                .clusters
                .iter()
                .all(|c| c.diagnosis == ClusterDiagnosis::BudgetExhausted));
        } else {
            assert!(
                matches!(seq, EcoOutcome::Complete(_)),
                "a generous allowance must complete"
            );
        }
    }
}

/// The sequential flow (`eco-patch --unroll`) must be jobs-invariant
/// end to end: the unrolled combinational stage runs on worker threads,
/// but the folded sequential patch — and the emitted BTOR2 of the
/// patched design — is byte-identical for every `jobs` value.
#[test]
fn unrolled_seq_eco_is_jobs_invariant() {
    use eco::core::EcoOptions;
    use eco::seq::{write_btor2, SeqEcoEngine, SeqEcoOptions};
    use eco::workgen::gen_seq_unit;

    let unit = (0..64)
        .find_map(|s| gen_seq_unit(0, s, 1))
        .expect("some seed yields a unit");
    let run = |jobs: usize| {
        SeqEcoEngine::new(
            unit.faulty.clone(),
            unit.golden.clone(),
            unit.targets.clone(),
            unit.weights.clone(),
            SeqEcoOptions {
                frames: unit.frames,
                eco: EcoOptions {
                    jobs,
                    ..Default::default()
                },
            },
        )
        .expect("valid engine")
        .run()
        .expect("rectifiable by construction")
    };
    let seq = run(1);
    let par = run(4);
    assert_eq!(seq.cost, par.cost, "seq ECO cost differs across jobs");
    assert_eq!(seq.size, par.size, "seq ECO size differs across jobs");
    assert_eq!(seq.fold_frames, par.fold_frames, "fold frames differ");
    assert_eq!(
        write_btor2(&seq.patched),
        write_btor2(&par.patched),
        "patched BTOR2 output is not byte-identical across jobs"
    );
}

/// `jobs: 0` (auto) must agree with explicit sequential execution too.
#[test]
fn auto_jobs_matches_sequential() {
    for unit in contest_suite() {
        if unit.spec.name != "unit06" {
            continue;
        }
        let inst = unit.instance().expect("valid instance");
        let seq = run_with_jobs(&inst, 1, false);
        let auto = run_with_jobs(&inst, 0, false);
        assert_identical(&unit.spec.name, &seq, &auto);
    }
}

/// The memo counters do not depend on scheduling: a duplicate-heavy job
/// list (fast suite units, each twice back to back) on a cold cache
/// gives the same hits, misses and insertions, and byte-identical JSONL,
/// at 1, 2 and 4 workers. Without single flight both workers of a
/// duplicate pair can miss at once.
#[test]
fn memo_counters_are_jobs_independent() {
    let jobs: Vec<BatchJob> = contest_suite()
        .into_iter()
        .filter(|u| !u.spec.difficult)
        .take(6)
        .flat_map(|u| {
            let inst = u.instance().expect("valid instance");
            ["a", "b"]
                .map(|tag| BatchJob::from_instance(format!("{}-{tag}", u.spec.name), inst.clone()))
        })
        .collect();
    let runs = [1, 2, 4].map(|workers| {
        let outcome = run_batch(
            &jobs,
            &BatchOptions {
                jobs: workers,
                ..Default::default()
            },
        );
        let m = outcome.memo;
        (
            workers,
            records_jsonl(&outcome.records),
            (m.hits, m.misses, m.insertions),
        )
    });
    let (_, jsonl, counters) = &runs[0];
    assert!(counters.0 >= 6, "every duplicate hits: {counters:?}");
    for (workers, other_jsonl, other) in &runs[1..] {
        assert_eq!(other_jsonl, jsonl, "JSONL differs at {workers} workers");
        assert_eq!(
            other, counters,
            "memo (hits, misses, insertions) differ at {workers} workers"
        );
    }
}
