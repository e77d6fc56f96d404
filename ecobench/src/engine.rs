//! Driving the engine the way `eco-patch` does, and summing what its
//! telemetry reports about each layer.

use std::hint::black_box;
use std::time::{Duration, Instant};

use eco_core::{EcoEngine, EcoInstance, EcoOptions, EcoResult, Stage, TelemetrySnapshot};
use eco_netlist::{
    netlist_from_aig, parse_verilog, parse_weights, write_verilog, Netlist, WeightTable,
};

use crate::gen::UnitText;
use crate::report::Report;
use crate::stats::thread_cpu_seconds;
use crate::trace::LayerTimes;

/// The contest configuration: the engine's defaults, one thread, no memo.
pub fn contest_options() -> EcoOptions {
    EcoOptions {
        jobs: 1,
        ..EcoOptions::default()
    }
}

/// One unit run end to end, plus what the oracle needs to check it.
pub struct UnitRun {
    pub faulty: Netlist,
    pub golden: Netlist,
    pub result: EcoResult,
    pub wall: Duration,
    /// CPU time of the calling thread over the run, in seconds.
    pub cpu_s: f64,
}

/// Parses a unit's faulty and golden Verilog and its weights.
pub fn parse_unit(u: &UnitText) -> Result<(Netlist, Netlist, WeightTable), String> {
    let faulty = parse_verilog(&u.faulty).map_err(|e| format!("{} faulty: {e}", u.name))?;
    let golden = parse_verilog(&u.golden).map_err(|e| format!("{} golden: {e}", u.name))?;
    let weights = parse_weights(&u.weights).map_err(|e| format!("{} weights: {e}", u.name))?;
    Ok((faulty, golden, weights))
}

/// Parses a unit's texts, builds the instance, runs the engine and writes
/// the patch back as Verilog — `eco-patch` minus process start-up and
/// file I/O. Each call into a layer is timed into `layers`.
pub fn run_unit(u: &UnitText, layers: &mut LayerTimes) -> Result<UnitRun, String> {
    let cpu0 = thread_cpu_seconds();
    let t0 = Instant::now();
    let (faulty, golden, weights) = layers.time("netlist.parse", || parse_unit(u))?;
    let instance = layers
        .time("core.instance", || {
            EcoInstance::from_netlists(&u.name, &faulty, &golden, u.targets.clone(), &weights)
        })
        .map_err(|e| format!("instance: {e}"))?;
    let result = layers
        .time("core.run", || {
            EcoEngine::new(instance, contest_options()).run()
        })
        .map_err(|e| format!("engine: {e}"))?;
    layers.time("netlist.write", || {
        black_box(write_verilog(&netlist_from_aig(&result.patch_aig, "patch")));
    });
    Ok(UnitRun {
        faulty,
        golden,
        result,
        wall: t0.elapsed(),
        cpu_s: thread_cpu_seconds() - cpu0,
    })
}

/// Engine-layer work summed over runs, from `EcoResult::telemetry`.
#[derive(Debug, Default)]
pub struct EngineLayers {
    stage_ns: [u64; 6],
    solvers: u64,
    conflicts: u64,
    decisions: u64,
    propagations: u64,
    sweep_sat_calls: u64,
    sweep_proven: u64,
    interpolation_fallbacks: u64,
    localization_fallbacks: u64,
    cost_before: u64,
    cost_after: u64,
}

impl EngineLayers {
    pub fn add(&mut self, result: &EcoResult) {
        let t: &TelemetrySnapshot = &result.telemetry;
        for (i, stage) in Stage::ALL.iter().enumerate() {
            self.stage_ns[i] += t.stage_nanos(*stage);
        }
        self.solvers += t.sat.solvers;
        self.conflicts += t.sat.conflicts;
        self.decisions += t.sat.decisions;
        self.propagations += t.sat.propagations;
        self.sweep_sat_calls += t.sweep.sat_calls;
        self.sweep_proven += t.sweep.proven;
        self.interpolation_fallbacks += t.interpolation_fallbacks;
        self.localization_fallbacks += t.localization_fallbacks;
        self.cost_before += result.optimize_delta.0;
        self.cost_after += result.optimize_delta.1;
    }

    fn stage_ms(&self, stage: Stage) -> f64 {
        let i = Stage::ALL
            .iter()
            .position(|s| *s == stage)
            .expect("stage listed");
        self.stage_ns[i] as f64 / 1e6
    }

    /// Milliseconds of the stages that partition the engine's run: every
    /// stage but FRAIG, whose sweeps run inside patch generation.
    pub fn partition_ms(&self) -> f64 {
        [
            Stage::Clustering,
            Stage::PatchGen,
            Stage::Optimize,
            Stage::Verify,
            Stage::Assemble,
        ]
        .iter()
        .map(|&s| self.stage_ms(s))
        .sum()
    }

    /// Sets the engine-layer metrics, with times and counts divided by
    /// `per` (the number of passes the sums cover).
    pub fn report(&self, r: &mut Report, per: f64) {
        let per = per.max(1.0);
        for (stage, name) in [
            (Stage::Fraig, "core.fraig_ms"),
            (Stage::Clustering, "core.clustering_ms"),
            (Stage::PatchGen, "core.patchgen_ms"),
            (Stage::Optimize, "core.optimize_ms"),
            (Stage::Verify, "core.verify_ms"),
            (Stage::Assemble, "core.assemble_ms"),
        ] {
            r.set(name, self.stage_ms(stage) / per);
        }
        r.set("sat.solvers", self.solvers as f64 / per);
        r.set("sat.conflicts", self.conflicts as f64 / per);
        r.set("sat.decisions", self.decisions as f64 / per);
        r.set("sat.propagations", self.propagations as f64 / per);
        r.set("fraig.sat_calls", self.sweep_sat_calls as f64 / per);
        r.set(
            "fraig.proven_frac",
            self.sweep_proven as f64 / self.sweep_sat_calls.max(1) as f64,
        );
        r.set(
            "patchgen.interpolation_fallbacks",
            self.interpolation_fallbacks as f64 / per,
        );
        r.set(
            "optimize.cost_ratio",
            self.cost_before as f64 / self.cost_after.max(1) as f64,
        );
        r.set(
            "core.localization_fallbacks",
            self.localization_fallbacks as f64 / per,
        );
    }
}
