//! contest20: one cold engine run per unit of the 20-unit Table 2 suite,
//! pass after pass, each unit parsed from text and its patch written
//! back (the `eco-patch` path minus process start-up).

use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::engine::{run_unit, EngineLayers};
use crate::gen::{self, UnitText};
use crate::oracle;
use crate::report::Report;
use crate::stats::{
    geomean, median, minimum, peak_rss_mb, percentile, qor_geomeans, release_free_memory,
    reset_peak_rss,
};
use crate::trace::LayerTimes;
use crate::{Args, SETUP_REPEATS};

/// One unit's runs across the passes of this process.
struct UnitLog {
    walls_ms: Vec<f64>,
    cpus_s: Vec<f64>,
    /// Cost and size of the first successful run; later runs must match.
    qor: Option<(u64, u64)>,
    ok: Vec<bool>,
    last: Option<crate::engine::UnitRun>,
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();

    // Set-up: generate the suite's texts, then one untimed warm-up pass
    // so that heap growth and lazy initialisation finish before timing.
    let mut off = LayerTimes::new(false);
    let mut setups = Vec::new();
    let mut units = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        units = gen::suite_text();
        for unit in &units {
            let _ = std::hint::black_box(run_unit(unit, &mut off));
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    report.set("setup_s", median(&setups));
    if let Err(e) = gen::self_check(args.seed, &units) {
        report.check_errors.push(e);
    }

    let mut logs: Vec<UnitLog> = units
        .iter()
        .map(|_| UnitLog {
            walls_ms: Vec::new(),
            cpus_s: Vec::new(),
            qor: None,
            ok: Vec::new(),
            last: None,
        })
        .collect();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut layers = EngineLayers::default();
    let mut traced_times = LayerTimes::new(true);
    let mut peaks_mb = Vec::new();
    release_free_memory();
    if !reset_peak_rss() {
        eprintln!("contest20: cannot reset the RSS peak; peak_rss_mb includes set-up");
    }
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let min_passes = if args.trace { 2 } else { 1 };
    let mut pass = 0usize;
    while pass < min_passes || Instant::now() < deadline {
        // A traced run alternates untraced and traced passes, so that the
        // tracing overhead is measured under the same conditions.
        let traced = args.trace && pass % 2 == 1;
        let times = if traced { &mut traced_times } else { &mut off };
        reset_peak_rss();
        let t0 = Instant::now();
        for i in gen::contest_order(args.seed, pass as u64, units.len()) {
            let outcome = run_unit(&units[i], times);
            let log = &mut logs[i];
            match outcome {
                Ok(run) => {
                    let qor = (run.result.cost, run.result.size as u64);
                    let same = *log.qor.get_or_insert(qor) == qor;
                    log.walls_ms.push(run.wall.as_secs_f64() * 1e3);
                    log.cpus_s.push(run.cpu_s);
                    log.ok.push(same);
                    if traced {
                        layers.add(&run.result);
                    }
                    log.last = Some(run);
                }
                Err(e) => {
                    eprintln!("contest20: {}: {e}", units[i].name);
                    log.ok.push(false);
                }
            }
        }
        let wall = t0.elapsed();
        peaks_mb.push(peak_rss_mb());
        if traced {
            traced_walls.push(wall.as_secs_f64());
        } else {
            plain_walls.push(wall.as_secs_f64());
        }
        pass += 1;
    }

    // The oracle, outside the timed passes: every unit's patch must make
    // the faulty circuit equal to the golden one under simulation. A unit
    // that fails it fails every one of its runs.
    for (log, unit) in logs.iter_mut().zip(&units) {
        let verdict = match &log.last {
            Some(run) => {
                oracle::check_patch(&run.faulty, &run.golden, &run.result.patch_aig, args.seed)
            }
            None => Err("no successful run".into()),
        };
        if let Err(e) = verdict {
            eprintln!("contest20: {}: oracle: {e}", unit.name);
            log.ok.iter_mut().for_each(|ok| *ok = false);
        }
    }
    negative_control(&logs, args.seed, &mut report);
    held_out_check(gen::held_out_text(args.seed), args.seed, &mut report);
    for log in &logs {
        for &ok in &log.ok {
            report.op(ok);
        }
    }

    // Every run of a unit does the same work on one thread, so its
    // fastest run is the one the host's neighbours disturbed least; the
    // timing metrics are built from each unit's fastest run.
    let runs = logs.iter().map(|l| l.walls_ms.len()).sum::<usize>();
    let best_ms: Vec<f64> = logs.iter().map(|l| minimum(&l.walls_ms)).collect();
    let best_pass_s = best_ms.iter().sum::<f64>() / 1e3;
    let qors: Vec<(u64, u64)> = logs.iter().map(|l| l.qor.unwrap_or((0, 0))).collect();
    let (cost, size) = qor_geomeans(&qors);
    report.set("wall_s", best_pass_s);
    report.set("unit_wall_geomean_ms", geomean(best_ms.iter().copied()));
    report.set("cost_geomean", cost);
    report.set("size_geomean", size);
    report.set("rps", units.len() as f64 / best_pass_s.max(1e-9));
    report.set("latency_p50_ms", percentile(&best_ms, 50.0));
    report.set("latency_p99_ms", percentile(&best_ms, 99.0));
    report.set(
        "cpu_s",
        logs.iter().map(|l| minimum(&l.cpus_s)).sum::<f64>(),
    );
    report.set("peak_rss_mb", median(&peaks_mb));
    report.set("success_frac", report.success_frac());
    eprintln!(
        "contest20: {pass} passes, {runs} unit runs; pass wall median {:.3}s, min {:.3}s, sum of unit bests {best_pass_s:.3}s",
        median(&plain_walls),
        minimum(&plain_walls)
    );

    if args.trace {
        let passes = traced_walls.len() as f64;
        layers.report(&mut report, passes);
        let per_pass = |name: &str| traced_times.total(name).as_secs_f64() / passes;
        for (layer, metric) in [
            ("netlist.parse", "netlist.parse_us"),
            ("core.instance", "core.instance_us"),
            ("netlist.write", "netlist.write_us"),
        ] {
            report.set(metric, traced_times.median_us(layer));
        }
        let engine_ms = per_pass("core.run") * 1e3;
        let stages_ms = layers.partition_ms() / passes;
        report.set("core.untimed_ms", (engine_ms - stages_ms).max(0.0));
        let named_s = per_pass("netlist.parse")
            + per_pass("core.instance")
            + per_pass("netlist.write")
            + stages_ms / 1e3;
        let traced_wall = median(&traced_walls);
        report.set("trace.layer_share", named_s / (traced_wall.max(1e-9)));
        report.set(
            "trace.overhead_frac",
            traced_wall / median(&plain_walls).max(1e-9) - 1.0,
        );
        report.set("latency.samples", runs as f64);
        for (log, unit) in logs.iter().zip(&units) {
            let (cost, size) = log.qor.unwrap_or((0, 0));
            report.set(&format!("{}.wall_ms", unit.name), median(&log.walls_ms));
            report.set(&format!("{}.cost", unit.name), cost as f64);
            report.set(&format!("{}.size", unit.name), size as f64);
        }
        eprintln!(
            "contest20 trace: layers explain {:.1}% of the traced pass ({:.3}s); engine time outside its stages {:.1} ms/pass",
            100.0 * named_s / traced_wall.max(1e-9),
            traced_wall,
            (engine_ms - stages_ms).max(0.0)
        );
    }
    report
}

/// The oracle's negative control: unit01's patch with every target
/// complemented must be rejected (unit01 is an XOR tree, so the flip
/// reaches an output under every seed).
fn negative_control(logs: &[UnitLog], seed: u64, report: &mut Report) {
    let Some(run) = logs.first().and_then(|l| l.last.as_ref()) else {
        report
            .check_errors
            .push("negative control: unit01 produced no patch".into());
        return;
    };
    let bad = oracle::corrupt(&run.result.patch_aig);
    if oracle::check_patch(&run.faulty, &run.golden, &bad, seed).is_ok() {
        report
            .check_errors
            .push("negative control: a corrupted patch passed the oracle".into());
    }
}

/// Wall-clock allowance of the held-out pass, so that a seed whose
/// instances are hard cannot push the run past its time limit. Only
/// unit17 comes near it: it takes 3–35 s, depending on the seed, where
/// the other units take under 2 s together.
const HELD_OUT_SECONDS: u64 = 15;

/// The untimed correctness pass over the seed's held-out instances: each
/// unit runs once on the contest path and its patch must pass the oracle.
/// A failure makes the run incorrect; no metric changes. The units run
/// smallest first on a thread of their own; those not done within the
/// allowance are reported as unchecked, not as failed, and their thread
/// is left to end with the process (the engine's time budget does not
/// stop every stage promptly).
pub fn held_out_check(mut units: Vec<UnitText>, seed: u64, report: &mut Report) {
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs(HELD_OUT_SECONDS);
    units.sort_by_key(|u| u.faulty.len() + u.golden.len());
    let names: Vec<String> = units.iter().map(|u| u.name.clone()).collect();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut off = LayerTimes::new(false);
        for u in &units {
            let verdict = run_unit(u, &mut off).and_then(|run| {
                oracle::check_patch(&run.faulty, &run.golden, &run.result.patch_aig, seed)
            });
            if tx.send(verdict).is_err() {
                return;
            }
        }
    });
    let mut done = 0;
    while done < names.len() {
        match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(verdict) => {
                if let Err(e) = verdict {
                    report.check_errors.push(format!(
                        "{}: held-out instance of seed {seed}: {e}",
                        names[done]
                    ));
                }
                done += 1;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => break,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                report
                    .check_errors
                    .push(format!("{}: held-out run panicked", names[done]));
                break;
            }
        }
    }
    eprintln!(
        "held-out check: {done} of {} units of seed {seed} checked in {:.2}s; out of time: {:?}",
        names.len(),
        t0.elapsed().as_secs_f64(),
        &names[done..]
    );
}

/// Contest-path reference results of `units`: cost and size per unit,
/// each patch checked by the oracle. Used by serve-hot and batch-dup to
/// check every record they receive.
pub fn reference(units: &[UnitText], seed: u64, report: &mut Report) -> Vec<(u64, u64)> {
    let mut off = LayerTimes::new(false);
    units
        .iter()
        .map(|u| match run_unit(u, &mut off) {
            Ok(run) => {
                if let Err(e) =
                    oracle::check_patch(&run.faulty, &run.golden, &run.result.patch_aig, seed)
                {
                    report
                        .check_errors
                        .push(format!("{}: reference patch: {e}", u.name));
                }
                (run.result.cost, run.result.size as u64)
            }
            Err(e) => {
                report
                    .check_errors
                    .push(format!("{}: reference run: {e}", u.name));
                (u64::MAX, u64::MAX)
            }
        })
        .collect()
}
