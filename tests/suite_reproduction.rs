//! Table-2-shape reproduction as a test: on the synthetic contest suite,
//! the cost-aware engine must (a) always produce verified patches and
//! (b) beat the PI-support baseline on every difficult unit.
//!
//! The full 20-unit sweep lives in `cargo run -p eco-bench --bin table2`;
//! this test pins the *shape* on a fast subset so regressions surface in
//! `cargo test`, and pins each fast unit's exact (cost, size) so a change
//! that makes a patch costlier or larger fails here.

mod common;

use eco::core::{EcoEngine, EcoOptions};
use eco::workgen::contest_suite;

/// The fast subset with each unit's pinned (cost, size) under the default
/// options.
const FAST_SUBSET: [(&str, u64, usize); 8] = [
    ("unit01", 2, 3),
    ("unit02", 10, 0),
    ("unit03", 33, 0),
    ("unit04", 33, 1),
    ("unit06", 10, 4),
    ("unit10", 18, 9),
    ("unit12", 36, 0),
    ("unit15", 8, 1),
];

#[test]
fn suite_units_patch_and_verify() {
    let mut seen = 0;
    for unit in contest_suite() {
        let name = unit.spec.name.as_str();
        let Some(&(_, cost, size)) = FAST_SUBSET.iter().find(|(n, ..)| *n == name) else {
            continue;
        };
        let inst = unit.instance().expect("valid instance");
        let result = EcoEngine::new(inst, EcoOptions::default())
            .run()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        common::assert_patched_equals_golden(&unit.faulty, &unit.golden, &result);
        assert_eq!(
            (result.cost, result.size),
            (cost, size),
            "{name} (cost, size)"
        );
        seen += 1;
    }
    assert_eq!(seen, FAST_SUBSET.len(), "every pinned unit is in the suite");
}

#[test]
fn difficult_units_beat_baseline_on_cost_and_size() {
    for unit in contest_suite() {
        if !unit.spec.difficult {
            continue;
        }
        let inst = unit.instance().expect("valid instance");
        let ours = EcoEngine::new(inst.clone(), EcoOptions::default())
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", unit.spec.name));
        let baseline = EcoEngine::new(inst, EcoOptions::baseline())
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", unit.spec.name));
        common::assert_patched_equals_golden(&unit.faulty, &unit.golden, &baseline);
        assert!(
            ours.cost * 2 <= baseline.cost,
            "{}: ours {} vs baseline {} — expected a decisive cost win on a difficult unit",
            unit.spec.name,
            ours.cost,
            baseline.cost
        );
        assert!(
            ours.size <= baseline.size,
            "{}: patch size {} vs baseline {}",
            unit.spec.name,
            ours.size,
            baseline.size
        );
    }
}

#[test]
fn baseline_is_also_sound() {
    for unit in contest_suite() {
        if !matches!(unit.spec.name.as_str(), "unit01" | "unit05" | "unit09") {
            continue;
        }
        let inst = unit.instance().expect("valid instance");
        let result = EcoEngine::new(inst, EcoOptions::baseline())
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", unit.spec.name));
        common::assert_patched_equals_golden(&unit.faulty, &unit.golden, &result);
    }
}

/// Regression: unit17's shape (many targets, no localization, adaptive
/// interpolation kicking in) once produced an unsound interpolant through
/// over-eager conflict-clause minimization. Pin the whole path.
#[test]
fn many_target_unlocalized_adaptive_interpolation_is_sound() {
    let unit = contest_suite()
        .into_iter()
        .find(|u| u.spec.name == "unit17")
        .expect("unit17");
    let inst = unit.instance().expect("valid");
    let baseline = EcoEngine::new(inst, EcoOptions::baseline())
        .run()
        .expect("rectifiable by construction");
    common::assert_patched_equals_golden(&unit.faulty, &unit.golden, &baseline);
}

/// Stress units (bigger multiplier/shifter/datapath workloads) all patch
/// and verify under the default configuration.
#[test]
#[ignore = "heavier workloads; run with `cargo test -- --ignored`"]
fn stress_suite_patches_and_verifies() {
    for unit in eco::workgen::stress_suite() {
        let inst = unit.instance().expect("valid instance");
        let result = EcoEngine::new(inst, EcoOptions::default())
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", unit.spec.name));
        common::assert_patched_equals_golden(&unit.faulty, &unit.golden, &result);
    }
}

/// The cheapest stress unit runs un-ignored as a smoke check.
#[test]
fn stress_smoke_unit() {
    let unit = eco::workgen::stress_suite()
        .into_iter()
        .find(|u| u.spec.name == "stress05")
        .expect("stress05");
    let inst = unit.instance().expect("valid instance");
    let result = EcoEngine::new(inst, EcoOptions::default())
        .run()
        .expect("rectifiable");
    common::assert_patched_equals_golden(&unit.faulty, &unit.golden, &result);
}
