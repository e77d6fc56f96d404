//! serve-hot: an in-process `eco-serve` daemon on a unix socket, warmed
//! through its durable state directory, answering seeded request streams
//! from two closed-loop connections.

use std::io::{self, BufReader};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use eco_batch::{execute_job, json, load_job_instance, JobSpec};
use eco_core::{
    patch_memo_key, Budget, BudgetOptions, EcoEngine, EcoInstance, EcoOptions, MemoCache,
};
use eco_serve::proto::{parse_request, Request};
use eco_serve::{run_client, ClientOptions, ServeOptions, ServeSummary, Server};
use eco_workgen::{request_stream, ManifestEntry};

use crate::engine::{parse_unit, EngineLayers};
use crate::gen::{self, UnitText, SERVED_UNITS};
use crate::report::Report;
use crate::stats::{
    cpu_seconds, geomean, lower_quartile, median, peak_rss_mb, percentile, qor_geomeans,
    release_free_memory, reset_peak_rss, upper_quartile,
};
use crate::{contest, Args, SETUP_REPEATS};

/// Daemon worker threads (one per core of the reference host).
const WORKERS: usize = 2;
/// How long to wait for the daemon's socket to accept connections.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

fn serve_options(state: &Path) -> ServeOptions {
    ServeOptions {
        workers: WORKERS,
        state_dir: Some(state.to_path_buf()),
        ..ServeOptions::default()
    }
}

/// One client connection: the buffered read half and the write half.
struct Conn {
    rx: BufReader<UnixStream>,
    tx: UnixStream,
}

fn connect(sock: &Path) -> Result<Conn, String> {
    let t0 = Instant::now();
    loop {
        match UnixStream::connect(sock) {
            Ok(stream) => {
                let tx = stream
                    .try_clone()
                    .map_err(|e| format!("clone socket: {e}"))?;
                return Ok(Conn {
                    rx: BufReader::new(stream),
                    tx,
                });
            }
            Err(e) if t0.elapsed() > CONNECT_TIMEOUT => {
                return Err(format!("connect {}: {e}", sock.display()))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// What one connection of one stream returned.
struct ConnResult {
    latencies_us: Vec<u64>,
    responses: Vec<u8>,
}

fn drive(conn: &mut Conn, lines: &str) -> io::Result<ConnResult> {
    let mut responses = Vec::new();
    let summary = run_client(
        &mut conn.rx,
        &mut conn.tx,
        &mut lines.as_bytes(),
        &mut responses,
        &ClientOptions::default(),
    )?;
    Ok(ConnResult {
        latencies_us: summary.latencies_us,
        responses,
    })
}

/// Checks one `run` response against the unit's reference record.
fn response_ok(line: &str, unit: &UnitText, expect: (u64, u64)) -> bool {
    let Ok(json::Value::Obj(fields)) = json::parse(line.trim()) else {
        return false;
    };
    let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    matches!(get("ok"), Some(json::Value::Bool(true)))
        && matches!(get("status"), Some(json::Value::Str(s)) if s == "complete")
        && matches!(get("verified"), Some(json::Value::Bool(true)))
        && matches!(get("name"), Some(json::Value::Str(s)) if *s == unit.name)
        && matches!(get("cost"), Some(json::Value::Int(c)) if *c == expect.0)
        && matches!(get("size"), Some(json::Value::Int(s)) if *s == expect.1)
}

/// Starts a daemon on a fresh state directory, sends it one request per
/// served unit, and shuts it down: its memo store now holds every unit.
fn warm(state: &Path, sock: &Path, lines: &str) -> Result<(Vec<u8>, ServeSummary), String> {
    let server = Server::new(serve_options(state));
    if let Some(e) = server.state_error() {
        return Err(format!("state dir: {e}"));
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let daemon = s.spawn(|| server.serve_unix(sock, &stop));
        let client = connect(sock).and_then(|mut c| {
            let mut out = Vec::new();
            let opts = ClientOptions {
                shutdown: true,
                ..ClientOptions::default()
            };
            run_client(&mut c.rx, &mut c.tx, &mut lines.as_bytes(), &mut out, &opts)
                .map(|_| out)
                .map_err(|e| format!("warm client: {e}"))
        });
        stop.store(true, Ordering::Relaxed);
        let summary = daemon
            .join()
            .expect("daemon thread panicked")
            .map_err(|e| format!("warm daemon: {e}"))?;
        Ok((client?, summary))
    })
}

/// Per-stream figures of one run, one entry per stream.
#[derive(Default)]
struct StreamFigures {
    wall_s: Vec<f64>,
    rps: Vec<f64>,
    p50_ms: Vec<f64>,
    p99_ms: Vec<f64>,
    /// Geomean over units of the unit's median request latency.
    unit_geomean_ms: Vec<f64>,
}

impl StreamFigures {
    /// Adds one stream: its wall time and its request latencies by unit.
    fn add(&mut self, wall_s: f64, by_unit: &[Vec<f64>]) {
        let all: Vec<f64> = by_unit.iter().flatten().copied().collect();
        self.wall_s.push(wall_s);
        self.rps.push(all.len() as f64 / wall_s.max(1e-9));
        self.p50_ms.push(percentile(&all, 50.0));
        self.p99_ms.push(percentile(&all, 99.0));
        self.unit_geomean_ms
            .push(geomean(by_unit.iter().map(|l| median(l))));
    }
}

/// Everything a measured run needs, made by one set-up.
struct Prepared {
    inputs: PathBuf,
    entries: Vec<ManifestEntry>,
    sock: PathBuf,
    warm_responses: Vec<u8>,
}

/// Writes the inputs, warms a daemon's state directory, and restarts a
/// daemon on it (the restarted daemon is returned, not yet serving).
fn prepare(dir: &Path, units: &[UnitText]) -> Result<(Prepared, Server), String> {
    let inputs = dir.join("in");
    let entries = gen::write_units(&inputs, units).map_err(|e| format!("write inputs: {e}"))?;
    let state = dir.join("state");
    let sock = dir.join("s.sock");
    let (warm_responses, _) = warm(&state, &sock, &request_stream(&inputs, &entries))?;
    let server = Server::new(serve_options(&state));
    if let Some(e) = server.state_error() {
        return Err(format!("state dir: {e}"));
    }
    let prepared = Prepared {
        inputs,
        entries,
        sock,
        warm_responses,
    };
    Ok((prepared, server))
}

pub fn run(args: &Args, work: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let all = gen::suite_text();
    if let Err(e) = gen::self_check(args.seed, &all) {
        report.check_errors.push(e);
    }
    let units = &all[..SERVED_UNITS];
    let refs = contest::reference(units, args.seed, &mut report);

    let mut setups = Vec::new();
    let mut kept = None;
    for k in 0..SETUP_REPEATS {
        let dir = work.join(format!("serve{k}"));
        let t0 = Instant::now();
        let (prepared, server) = prepare(&dir, units)?;
        setups.push(t0.elapsed().as_secs_f64());
        if k + 1 == SETUP_REPEATS {
            kept = Some((prepared, server));
        } else {
            drop(server);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    report.set("setup_s", median(&setups));
    let (prep, server) = kept.expect("at least one set-up");
    for (line, (unit, &expect)) in String::from_utf8_lossy(&prep.warm_responses)
        .lines()
        .zip(units.iter().zip(&refs))
    {
        if !response_ok(line, unit, expect) {
            report
                .check_errors
                .push(format!("{}: warm response {line}", unit.name));
        }
    }

    let stop = AtomicBool::new(false);
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); SERVED_UNITS];
    let (mut plain_walls, mut traced_walls, mut cpus) = (Vec::new(), Vec::new(), Vec::new());
    let mut figures = StreamFigures::default();
    let mut peaks_mb = Vec::new();
    let summary = std::thread::scope(|s| -> Result<ServeSummary, String> {
        let daemon = s.spawn(|| server.serve_unix(&prep.sock, &stop));
        let streams = (|| -> Result<(), String> {
            let mut conns = [connect(&prep.sock)?, connect(&prep.sock)?];
            release_free_memory();
            if !reset_peak_rss() {
                eprintln!("serve-hot: cannot reset the RSS peak; peak_rss_mb includes set-up");
            }
            let deadline = Instant::now() + Duration::from_secs(args.seconds);
            let min_streams = if args.trace { 2 } else { 1 };
            let mut k = 0u64;
            while k < min_streams || Instant::now() < deadline {
                let traced = args.trace && k % 2 == 1;
                let stream = gen::serve_stream(args.seed, k, &prep.inputs, &prep.entries);
                reset_peak_rss();
                let cpu0 = cpu_seconds();
                let t0 = Instant::now();
                let [c0, c1] = &mut conns;
                let [l0, l1] = &stream.lines;
                let results = std::thread::scope(|s2| {
                    let a = s2.spawn(move || drive(c0, l0));
                    let b = s2.spawn(move || drive(c1, l1));
                    [a.join(), b.join()]
                });
                let wall = t0.elapsed();
                cpus.push(cpu_seconds() - cpu0);
                peaks_mb.push(peak_rss_mb());
                let mut stream_latencies: Vec<Vec<f64>> = vec![Vec::new(); SERVED_UNITS];
                for (conn, result) in results.into_iter().enumerate() {
                    let result = result
                        .expect("client thread panicked")
                        .map_err(|e| format!("client: {e}"))?;
                    let text = String::from_utf8_lossy(&result.responses);
                    let lines: Vec<&str> = text.lines().collect();
                    for (i, &u) in stream.units[conn].iter().enumerate() {
                        let ok = lines
                            .get(i)
                            .is_some_and(|l| response_ok(l, &units[u], refs[u]));
                        report.op(ok);
                        if let Some(&us) = result.latencies_us.get(i) {
                            stream_latencies[u].push(us as f64 / 1e3);
                        }
                    }
                }
                figures.add(wall.as_secs_f64(), &stream_latencies);
                for (all, stream) in latencies.iter_mut().zip(stream_latencies) {
                    all.extend(stream);
                }
                if traced {
                    traced_walls.push(wall.as_secs_f64());
                } else {
                    plain_walls.push(wall.as_secs_f64());
                }
                k += 1;
            }
            let opts = ClientOptions {
                shutdown: true,
                ..ClientOptions::default()
            };
            let [c0, _] = &mut conns;
            run_client(
                &mut c0.rx,
                &mut c0.tx,
                &mut io::empty(),
                &mut io::sink(),
                &opts,
            )
            .map_err(|e| format!("shutdown: {e}"))?;
            Ok(())
        })();
        stop.store(true, Ordering::Relaxed);
        let summary = daemon
            .join()
            .expect("daemon thread panicked")
            .map_err(|e| format!("daemon: {e}"))?;
        streams.map(|()| summary)
    })?;
    let mut held_out = gen::held_out_text(args.seed);
    held_out.truncate(SERVED_UNITS);
    contest::held_out_check(held_out, args.seed, &mut report);

    // Each figure is taken per stream, and the run reports its quartile
    // on the good side over the streams (see `lower_quartile`).
    let pooled: Vec<f64> = latencies.iter().flatten().copied().collect();
    report.set("wall_s", lower_quartile(&figures.wall_s));
    report.set(
        "unit_wall_geomean_ms",
        lower_quartile(&figures.unit_geomean_ms),
    );
    let (cost, size) = qor_geomeans(&refs);
    report.set("cost_geomean", cost);
    report.set("size_geomean", size);
    report.set("rps", upper_quartile(&figures.rps));
    report.set("latency_p50_ms", lower_quartile(&figures.p50_ms));
    report.set("latency_p99_ms", lower_quartile(&figures.p99_ms));
    report.set("cpu_s", lower_quartile(&cpus));
    report.set("peak_rss_mb", median(&peaks_mb));
    report.set("success_frac", report.success_frac());
    eprintln!(
        "serve-hot: {} streams, {} requests; stream wall median {:.3}s; pooled p50 {:.3} ms, p99 {:.3} ms; daemon served {} busy {} memo hits {} misses {}",
        plain_walls.len() + traced_walls.len(),
        pooled.len(),
        median(&figures.wall_s),
        percentile(&pooled, 50.0),
        percentile(&pooled, 99.0),
        summary.served,
        summary.busy,
        summary.memo.hits,
        summary.memo.misses
    );

    if args.trace {
        let lookups = (summary.memo.hits + summary.memo.misses).max(1) as f64;
        report.set("core.memo_hit_frac", summary.memo.hits as f64 / lookups);
        report.set("core.memo_miss_frac", summary.memo.misses as f64 / lookups);
        report.set("serve.busy_refusals", summary.busy as f64);
        report.set(
            "serve.journal_records_per_req",
            summary.journal_appended as f64 / summary.served.max(1) as f64,
        );
        let probe = hit_path_probe(units, &prep.inputs, &prep.entries)?;
        probe.layers.report(&mut report, 1.0);
        for (name, per_unit) in &probe.per_unit_us {
            report.set(name, median(per_unit));
        }
        // The share of the mean request latency that parsing the request,
        // loading the job and answering it from the memo explain; every
        // unit has the same share of the stream.
        let explained_us: f64 = probe
            .per_unit_us
            .iter()
            .filter(|(n, _)| {
                matches!(
                    *n,
                    "serve.proto_parse_us" | "batch.load_job_us" | "core.hit_path_us"
                )
            })
            .map(|(_, per_unit)| per_unit.iter().sum::<f64>() / per_unit.len().max(1) as f64)
            .sum();
        let mean_ms = pooled.iter().sum::<f64>() / pooled.len().max(1) as f64;
        report.set("trace.layer_share", explained_us / 1e3 / mean_ms.max(1e-9));
        report.set(
            "trace.overhead_frac",
            median(&traced_walls) / median(&plain_walls).max(1e-9) - 1.0,
        );
        report.set("latency.samples", pooled.len() as f64);
        for (i, unit) in units.iter().enumerate() {
            report.set(&format!("{}.wall_ms", unit.name), median(&latencies[i]));
            report.set(&format!("{}.cost", unit.name), refs[i].0 as f64);
            report.set(&format!("{}.size", unit.name), refs[i].1 as f64);
        }
    }
    Ok(report)
}

/// Per-layer costs of one request on the hit path, measured call by call
/// outside the daemon.
pub struct Probe {
    /// `(metric, per-unit median µs)`, units in suite order.
    pub per_unit_us: Vec<(&'static str, Vec<f64>)>,
    /// The engine's own telemetry for one hit per unit.
    pub layers: EngineLayers,
}

/// Times each layer a hit-path request passes through, for every unit:
/// request parsing, job loading (file reads and netlist parsing), instance
/// building, the memo key, and `execute_job` answered from a warm cache.
pub fn hit_path_probe(
    units: &[UnitText],
    dir: &Path,
    entries: &[ManifestEntry],
) -> Result<Probe, String> {
    const REPS: usize = 5;
    let opts = EcoOptions::default();
    let unlimited = Budget::new(&BudgetOptions::default());
    let time_us = |f: &mut dyn FnMut()| {
        let samples: Vec<f64> = (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&samples)
    };
    let names = [
        "serve.proto_parse_us",
        "batch.load_job_us",
        "netlist.parse_us",
        "core.instance_us",
        "core.memo_key_us",
        "core.hit_path_us",
    ];
    let mut per_unit: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    let mut layers = EngineLayers::default();
    for (unit, entry) in units.iter().zip(entries) {
        let line = request_stream(dir, std::slice::from_ref(entry));
        let spec: JobSpec = match parse_request(line.trim()) {
            Ok(Request::Run { spec, .. }) => spec,
            other => return Err(format!("{}: probe request: {other:?}", unit.name)),
        };
        let instance = load_job_instance(&spec)?;
        let cache = std::sync::Arc::new(MemoCache::new());
        let source: Result<EcoInstance, String> = Ok(instance.clone());
        let cold = execute_job(&unit.name, &source, &opts, &unlimited, &cache);
        if !cold.verified {
            return Err(format!("{}: probe cold run: {}", unit.name, cold.detail));
        }
        let samples = [
            time_us(&mut || {
                std::hint::black_box(parse_request(line.trim()).is_ok());
            }),
            time_us(&mut || {
                std::hint::black_box(load_job_instance(&spec).is_ok());
            }),
            time_us(&mut || {
                std::hint::black_box(parse_unit(unit).is_ok());
            }),
            {
                let (faulty, golden, weights) = parse_unit(unit)?;
                time_us(&mut || {
                    let i = EcoInstance::from_netlists(
                        &unit.name,
                        &faulty,
                        &golden,
                        unit.targets.clone(),
                        &weights,
                    );
                    std::hint::black_box(i.is_ok());
                })
            },
            time_us(&mut || {
                std::hint::black_box(patch_memo_key(&instance, &opts));
            }),
            time_us(&mut || {
                let r = execute_job(&unit.name, &source, &opts, &unlimited, &cache);
                std::hint::black_box(r.verified);
            }),
        ];
        for (slot, v) in per_unit.iter_mut().zip(samples) {
            slot.push(v);
        }
        let hit = EcoEngine::new(
            instance,
            EcoOptions {
                jobs: 1,
                memo: Some(cache),
                ..EcoOptions::default()
            },
        )
        .run()
        .map_err(|e| format!("{}: probe hit: {e}", unit.name))?;
        layers.add(&hit);
    }
    Ok(Probe {
        per_unit_us: names.into_iter().zip(per_unit).collect(),
        layers,
    })
}
