//! Minimal wall-clock timing harness for the `report host` microbenches.
//! The offline build environment has no external bench framework, so
//! [`measure()`] times plain closures and reports per-iteration statistics.

use std::time::Instant;

/// Per-iteration wall-clock statistics from one [`measure`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingStats {
    /// Mean per-iteration time, milliseconds.
    pub mean_ms: f64,
    /// Fastest iteration, milliseconds.
    pub best_ms: f64,
    /// Median iteration, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile iteration (the slowest iteration for runs shorter
    /// than 100 iterations), milliseconds.
    pub p99_ms: f64,
    /// Timed iterations (the warmup call is not counted).
    pub iters: usize,
}

/// Percentile by the nearest-rank method over an ascending-sorted sample.
fn percentile(sorted: &[f64], pct: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Run `f` for `iters` timed iterations (after one warmup call) and return
/// the per-iteration statistics.
pub fn measure<T, F: FnMut() -> T>(iters: usize, mut f: F) -> TimingStats {
    std::hint::black_box(f());
    let iters = iters.max(1);
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        std::hint::black_box(f());
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let mean_ms = samples.iter().sum::<f64>() / iters as f64;
    samples.sort_by(|a, b| a.partial_cmp(b).expect("elapsed times are finite"));
    TimingStats {
        mean_ms,
        best_ms: samples[0],
        p50_ms: percentile(&samples, 50.0),
        p99_ms: percentile(&samples, 99.0),
        iters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_consistent() {
        let mut n = 0u64;
        let s = measure(16, || {
            n += 1;
            std::hint::black_box(n)
        });
        assert_eq!(s.iters, 16);
        assert!(s.best_ms <= s.p50_ms);
        assert!(s.p50_ms <= s.p99_ms);
        assert!(s.best_ms <= s.mean_ms);
        assert!(s.mean_ms <= s.p99_ms + 1e-9);
        // Warmup + 16 timed iterations.
        assert_eq!(n, 17);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 99.0), 2.0);
    }

    #[test]
    fn zero_iters_clamps_to_one() {
        let s = measure(0, || 1);
        assert_eq!(s.iters, 1);
    }
}
