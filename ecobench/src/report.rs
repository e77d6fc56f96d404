//! The result line and the metric catalogue.
//!
//! The catalogue lists every metric the benchmark reports, with its unit;
//! `BENCHMARK.json` declares the same names (a test keeps the two in
//! step). Every workload reports every end-to-end metric in a timed run
//! and every per-layer metric in a traced run; a per-layer metric of a
//! layer the workload does not reach reads 0.

use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("unit_wall_geomean_ms", "ms"),
    ("cost_geomean", "count"),
    ("size_geomean", "count"),
    ("rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("success_frac", "frac"),
];

/// Per-layer metrics other than the per-unit rows: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.parse_us", "us"),
    ("core.instance_us", "us"),
    ("netlist.write_us", "us"),
    ("core.fraig_ms", "ms"),
    ("core.clustering_ms", "ms"),
    ("core.patchgen_ms", "ms"),
    ("core.optimize_ms", "ms"),
    ("core.verify_ms", "ms"),
    ("core.assemble_ms", "ms"),
    ("core.untimed_ms", "ms"),
    ("sat.solvers", "count"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("fraig.sat_calls", "count"),
    ("fraig.proven_frac", "frac"),
    ("patchgen.interpolation_fallbacks", "count"),
    ("optimize.cost_ratio", "ratio"),
    ("core.localization_fallbacks", "count"),
    ("serve.proto_parse_us", "us"),
    ("batch.load_job_us", "us"),
    ("core.memo_key_us", "us"),
    ("core.hit_path_us", "us"),
    ("core.memo_hit_frac", "frac"),
    ("core.memo_miss_frac", "frac"),
    ("serve.busy_refusals", "count"),
    ("serve.journal_records_per_req", "ratio"),
    ("batch.load_ms", "ms"),
    ("batch.wal_records", "count"),
    ("latency.samples", "count"),
    ("trace.overhead_frac", "frac"),
    ("trace.layer_share", "frac"),
];

/// Number of contest units, hence of `unitNN.*` rows.
pub const UNITS: usize = 20;

/// The per-unit row suffixes and their units.
pub const UNIT_ROWS: &[(&str, &str)] = &[("wall_ms", "ms"), ("cost", "count"), ("size", "count")];

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer_catalogue() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for unit in 1..=UNITS {
        for &(row, u) in UNIT_ROWS {
            all.push((format!("unit{unit:02}.{row}"), u));
        }
    }
    all
}

/// One run's outcome: the counts of operations attempted and failed, the
/// verdict of every correctness check, and the named metric values.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks other than per-operation failures (the
    /// generator contracts, the oracle's negative control).
    pub check_errors: Vec<String>,
    values: Vec<(String, f64)>,
}

impl Report {
    /// Sets metric `name` (overwriting an earlier value).
    pub fn set(&mut self, name: &str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Counts one operation, failed or not.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The share of attempted operations that succeeded.
    pub fn success_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }

    /// `true` when every operation succeeded and every check passed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.check_errors.is_empty()
    }

    /// The result line: exactly the catalogue of the run's kind, in
    /// catalogue order. A metric the workload left unset reads 0 (only
    /// per-layer metrics may be unset; a missing or non-finite end-to-end
    /// value makes the run incorrect).
    pub fn to_json(&self, traced: bool) -> String {
        let catalogue: Vec<(String, &str)> = if traced {
            per_layer_catalogue()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let mut correct = self.correct();
        let mut metrics = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = match self.get(name) {
                Some(v) if v.is_finite() => v,
                _ => {
                    correct &= traced;
                    0.0
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted, self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(name, unit)` pairs of one `BENCHMARK.json` metric list, read
    /// from the `"name": …, "unit": …` entries between `"<list>":` and the
    /// next `]` (the file's numbers are floats, which the workspace's JSON
    /// subset does not parse).
    fn declared(text: &str, list: &str) -> Vec<(String, String)> {
        let start = text.find(&format!("\"{list}\":")).expect(list);
        let body = &text[start..];
        let body = &body[..body.find(']').expect("list end")];
        let quoted = |s: &str, key: &str| -> Option<String> {
            let rest = &s[s.find(&format!("\"{key}\": \""))? + key.len() + 5..];
            Some(rest[..rest.find('"')?].to_string())
        };
        body.split('{')
            .skip(1)
            .map(|m| {
                (
                    quoted(m, "name").expect("name"),
                    quoted(m, "unit").expect("unit"),
                )
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.into(), u.into()))
            .collect();
        assert_eq!(declared(&text, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_catalogue()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared(&text, "per_layer"), layers);
    }

    #[test]
    fn result_line_lists_the_whole_catalogue() {
        let mut r = Report::default();
        r.op(true);
        for &(name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let line = r.to_json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, "));
        assert_eq!(line.matches("\"unit\":").count(), END_TO_END.len());
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));

        r.set("wall_s", f64::NAN);
        assert!(r.to_json(false).starts_with("{\"correct\": false"));

        let traced = Report::default().to_json(true);
        assert_eq!(
            traced.matches("\"unit\":").count(),
            per_layer_catalogue().len()
        );
        assert!(traced.contains("\"unit20.size\""));
        assert!(traced.starts_with("{\"correct\": false"));
    }
}
