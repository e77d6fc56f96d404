//! Per-layer timers: the benchmark's own clocks around each call it makes
//! into a layer, kept as one list of durations per layer name.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::stats::median;

/// Durations of timed calls, by layer name. A disabled recorder runs the
/// calls untimed and keeps nothing.
pub struct LayerTimes {
    enabled: bool,
    times: BTreeMap<&'static str, Vec<Duration>>,
}

impl LayerTimes {
    pub fn new(enabled: bool) -> Self {
        LayerTimes {
            enabled,
            times: BTreeMap::new(),
        }
    }

    /// Runs `f`, adding its duration to layer `name` when enabled.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.times.entry(name).or_default().push(t0.elapsed());
        out
    }

    /// Total time spent in layer `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.times
            .get(name)
            .map_or(Duration::ZERO, |d| d.iter().sum())
    }

    /// Median duration of one call into layer `name`, in microseconds.
    pub fn median_us(&self, name: &str) -> f64 {
        let calls: Vec<f64> = self
            .times
            .get(name)
            .map(|d| d.iter().map(|d| d.as_secs_f64() * 1e6).collect())
            .unwrap_or_default();
        median(&calls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_calls_by_layer() {
        let mut t = LayerTimes::new(true);
        let v = t.time("outer", || {
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        t.time("outer", || std::thread::sleep(Duration::from_millis(2)));
        assert_eq!(v, 7);
        assert!(t.total("outer") >= Duration::from_millis(4));
        assert!(t.median_us("outer") >= 2000.0);
        assert_eq!(t.total("inner"), Duration::ZERO);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut t = LayerTimes::new(false);
        assert_eq!(t.time("x", || 7), 7);
        assert_eq!(t.total("x"), Duration::ZERO);
        assert_eq!(t.median_us("x"), 0.0);
    }
}
