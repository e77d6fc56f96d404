//! Summary statistics and process resource probes.

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `p`-th percentile (`0 < p <= 100`); 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Lower quartile of `values` (nearest rank); 0 when empty. The timed
/// figure of a workload whose iterations vary by themselves: the host's
/// neighbours only ever add time, so the faster quarter of a run's
/// iterations shows the program with the least outside interference.
pub fn lower_quartile(values: &[f64]) -> f64 {
    percentile(values, 25.0)
}

/// Upper quartile of `values` (nearest rank); 0 when empty. The
/// counterpart of [`lower_quartile`] for higher-is-better figures.
pub fn upper_quartile(values: &[f64]) -> f64 {
    percentile(values, 75.0)
}

/// Smallest of `values`; 0 when empty.
pub fn minimum(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Geometric mean of strictly positive values; 0 when empty.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0usize);
    for x in values {
        log_sum += x.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// User plus system CPU time of this process so far, in seconds, from
/// `/proc/self/stat` (all threads, including ones that have exited).
/// Linux reports it in clock ticks of 1/100 s.
pub fn cpu_seconds() -> f64 {
    const TICKS_PER_SECOND: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND
}

/// CPU time of the calling thread so far, in seconds, with nanosecond
/// resolution (`CLOCK_THREAD_CPUTIME_ID`); 0 when the clock is not
/// available.
pub fn thread_cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec; the clock id is the
    // Linux value of CLOCK_THREAD_CPUTIME_ID.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Geometric means over units of `max(1, cost)` and `max(1, size)`: the
/// paper's metrics (a) and (b), floored at 1 because a patch may cost or
/// measure 0.
pub fn qor_geomeans(qor: &[(u64, u64)]) -> (f64, f64) {
    (
        geomean(qor.iter().map(|q| (q.0 as f64).max(1.0))),
        geomean(qor.iter().map(|q| (q.1 as f64).max(1.0))),
    )
}

/// Resets this process's resident-set high-water mark to its current
/// resident set (Linux: writing `5` to `/proc/self/clear_refs`), so that a
/// later `peak_rss_mb` covers only what ran after the reset. Returns
/// false when the reset is not available; the peak then covers the whole
/// process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Hands the allocator's free memory back to the operating system
/// (glibc `malloc_trim(0)`, which covers every thread's arena). Called
/// once between set-up and the measured loop, so that the resident set
/// the loop starts from holds live data, not whatever the set-up's
/// threads happened to leave cached in their arenas.
pub fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: malloc_trim takes no pointers and may be called at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// Resident-set high-water mark of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    eco_core::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(lower_quartile(&v), 25.0);
        assert_eq!(upper_quartile(&v), 75.0);
        assert_eq!(minimum(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(minimum(&[]), 0.0);
        let (cost, size) = qor_geomeans(&[(0, 2), (4, 8)]);
        assert!((cost - 2.0).abs() < 1e-12 && (size - 4.0).abs() < 1e-12);
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn process_probes_read_proc() {
        let (t0, thread0) = (cpu_seconds(), thread_cpu_seconds());
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= t0);
        assert!(thread0 > 0.0 && thread_cpu_seconds() > thread0);
        assert!(peak_rss_mb() > 0.0);
        let big = std::hint::black_box(vec![1u8; 64 << 20]);
        let with_big = peak_rss_mb();
        drop(big);
        if reset_peak_rss() {
            assert!(peak_rss_mb() < with_big - 32.0);
        }
    }
}
