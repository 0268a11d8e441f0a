//! A minimal wall-clock benchmarking harness (no external dependencies).
//!
//! The bench targets in `benches/` are plain `main()` binaries built with
//! `harness = false`; they call into this module. The goal is honest
//! relative numbers — median / mean / min nanoseconds per iteration over a
//! fixed number of samples — not criterion-grade statistics.
//!
//! Iteration counts auto-scale from a calibration pass so each sample runs
//! for roughly `TARGET_SAMPLE` (20 ms). `BENCH_FAST=1` in the environment cuts
//! samples and targets drastically so CI can smoke-test every bench target
//! in seconds.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Samples collected per benchmark.
const SAMPLES: usize = 20;
/// Target wall-clock duration of one sample.
const TARGET_SAMPLE: Duration = Duration::from_millis(20);

fn fast_mode() -> bool {
    std::env::var_os("BENCH_FAST").is_some_and(|v| v != "0" && !v.is_empty())
}

/// Results of one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Fastest sample.
    pub min_ns: f64,
    /// Median sample.
    pub median_ns: f64,
    /// Mean over all samples.
    pub mean_ns: f64,
    /// Total iterations executed across all samples.
    pub iters: u64,
}

fn human(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:8.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:8.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:8.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:8.2} s ", ns / 1_000_000_000.0)
    }
}

fn report(group: &str, name: &str, s: Stats) {
    println!(
        "{group:<14} {name:<28} median {}  mean {}  min {}  ({} iters)",
        human(s.median_ns),
        human(s.mean_ns),
        human(s.min_ns),
        s.iters
    );
}

fn summarize(mut per_iter: Vec<f64>, iters: u64) -> Stats {
    per_iter.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let min_ns = per_iter[0];
    let median_ns = per_iter[per_iter.len() / 2];
    let mean_ns = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
    Stats {
        min_ns,
        median_ns,
        mean_ns,
        iters,
    }
}

/// Benchmark a routine whose result matters (it is `black_box`ed so the
/// optimizer cannot delete the work). Prints one line and returns the
/// stats.
pub fn bench<T>(group: &str, name: &str, mut f: impl FnMut() -> T) -> Stats {
    let (samples, target) = if fast_mode() {
        (3, Duration::from_millis(2))
    } else {
        (SAMPLES, TARGET_SAMPLE)
    };

    // Calibrate: how many iterations fill one sample?
    let start = Instant::now();
    let mut calib_iters: u64 = 0;
    while start.elapsed() < target && calib_iters < 1_000_000 {
        black_box(f());
        calib_iters += 1;
    }
    let per = start.elapsed().as_secs_f64() / calib_iters as f64;
    let batch = ((target.as_secs_f64() / per).round() as u64).clamp(1, 10_000_000);

    let mut per_iter = Vec::with_capacity(samples);
    let mut total: u64 = calib_iters;
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        per_iter.push(t.elapsed().as_secs_f64() * 1e9 / batch as f64);
        total += batch;
    }
    let s = summarize(per_iter, total);
    report(group, name, s);
    s
}

/// Benchmark a routine that consumes a freshly set-up value each
/// iteration; only the routine is timed, and the routine's result is
/// dropped *outside* the timed region (so expensive drops — a 32 MB
/// machine — do not pollute the numbers).
pub fn bench_with_setup<S, T>(
    group: &str,
    name: &str,
    mut setup: impl FnMut() -> S,
    mut routine: impl FnMut(S) -> T,
) -> Stats {
    let (samples, iters_per_sample) = if fast_mode() { (3, 2) } else { (SAMPLES, 10) };

    let mut per_iter = Vec::with_capacity(samples);
    let mut graveyard = Vec::with_capacity(iters_per_sample);
    let mut total: u64 = 0;
    for _ in 0..samples {
        let mut elapsed = Duration::ZERO;
        for _ in 0..iters_per_sample {
            let input = setup();
            let t = Instant::now();
            let out = black_box(routine(black_box(input)));
            elapsed += t.elapsed();
            graveyard.push(out);
        }
        per_iter.push(elapsed.as_secs_f64() * 1e9 / iters_per_sample as f64);
        graveyard.clear();
        total += iters_per_sample as u64;
    }
    let s = summarize(per_iter, total);
    report(group, name, s);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_sane_numbers() {
        // SAFETY-free smoke test: run in fast mode regardless of env by
        // benching something trivially fast and checking the stats shape.
        let s = bench("test", "noop-add", || std::hint::black_box(1u64) + 1);
        assert!(s.iters > 0);
        assert!(s.min_ns >= 0.0);
        assert!(s.min_ns <= s.median_ns);
        assert!(s.median_ns.is_finite() && s.mean_ns.is_finite());
    }

    #[test]
    fn bench_with_setup_times_only_routine() {
        let s = bench_with_setup("test", "consume-vec", || vec![0u8; 16], |v| v.len());
        assert!(s.iters > 0);
        assert!(s.mean_ns.is_finite());
    }

    #[test]
    fn human_units() {
        assert!(human(12.0).contains("ns"));
        assert!(human(12_000.0).contains("µs"));
        assert!(human(12_000_000.0).contains("ms"));
        assert!(human(12_000_000_000.0).contains('s'));
    }
}
