//! Minimal wall-clock micro-benchmark support for the `harness = false`
//! bench binaries (the offline build carries no benchmarking crate).
//!
//! Methodology: each case runs `SAMPLES` timed samples of `iters`
//! iterations after a warmup pass; a sample's cost is its total divided by
//! `iters`. The minimum sample is the headline number (least scheduler
//! noise), the mean is reported alongside for context.

use std::hint::black_box;
use std::time::Instant;

/// Number of timed samples per case.
const SAMPLES: u32 = 5;

/// One timed case's summary.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Iterations per sample.
    pub iters: u32,
    /// Best (minimum) per-iteration time across samples, nanoseconds.
    pub min_ns: f64,
    /// Mean per-iteration time across samples, nanoseconds.
    pub mean_ns: f64,
}

impl Measurement {
    /// Best per-iteration time in seconds.
    pub fn min_secs(&self) -> f64 {
        self.min_ns * 1e-9
    }
}

/// Formats a nanosecond figure with an adaptive unit.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns * 1e-9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns * 1e-6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns * 1e-3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Times `iters` iterations of `f` per sample, printing and returning the
/// summary. The closure's result is passed through [`black_box`] so the
/// optimizer cannot delete the work.
pub fn bench<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) -> Measurement {
    assert!(iters > 0, "bench needs at least one iteration");
    // Warmup: one untimed sample (caches, branch predictors, allocators).
    for _ in 0..iters {
        black_box(f());
    }
    let mut sample_ns = [0.0f64; SAMPLES as usize];
    for slot in &mut sample_ns {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        *slot = start.elapsed().as_nanos() as f64 / f64::from(iters);
    }
    let min_ns = sample_ns.iter().copied().fold(f64::INFINITY, f64::min);
    let mean_ns = sample_ns.iter().sum::<f64>() / f64::from(SAMPLES);
    let m = Measurement {
        iters,
        min_ns,
        mean_ns,
    };
    println!(
        "{name:<40} {:>12} (mean {:>12}, {iters} iters x {SAMPLES} samples)",
        fmt_ns(m.min_ns),
        fmt_ns(m.mean_ns),
    );
    m
}

/// Times a single execution of `f` (for long-running cases where repeated
/// sampling is impractical), returning the elapsed seconds and the result.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = black_box(f());
    (start.elapsed().as_secs_f64(), out)
}

/// The spread of a set of timed runs of one case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Fastest run, seconds (the run least disturbed by scheduler noise).
    pub min_s: f64,
    /// Median run, seconds (the upper middle one for an even count).
    pub median_s: f64,
}

impl Spread {
    /// The spread of `samples` (seconds); both fields are NaN when empty.
    pub fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self {
            min_s: sorted.first().copied().unwrap_or(f64::NAN),
            median_s: sorted.get(sorted.len() / 2).copied().unwrap_or(f64::NAN),
        }
    }
}

/// Times `reps` rounds of `cases` cases, interleaved: each round runs
/// case 0, then case 1, and so on, so no case gets all the warm caches
/// or all the quiet moments. `run(i)` runs case `i` once. Returns each
/// case's spread with the result of its last run, in case order; empty
/// when `reps` or `cases` is zero.
pub fn time_interleaved<T>(
    reps: u32,
    cases: usize,
    mut run: impl FnMut(usize) -> T,
) -> Vec<(Spread, T)> {
    let mut samples = vec![Vec::new(); cases];
    let mut last: Vec<Option<T>> = (0..cases).map(|_| None).collect();
    for _ in 0..reps {
        for (case, (times, out)) in samples.iter_mut().zip(&mut last).enumerate() {
            let (secs, value) = time_once(|| run(case));
            times.push(secs);
            *out = Some(value);
        }
    }
    samples
        .iter()
        .zip(last)
        .filter_map(|(times, out)| Some((Spread::of(times), out?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_positive_times() {
        let m = bench("spin", 100, || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(m.min_ns > 0.0);
        assert!(m.mean_ns >= m.min_ns);
    }

    #[test]
    fn time_once_returns_result() {
        let (secs, value) = time_once(|| 41 + 1);
        assert_eq!(value, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn interleaved_timing_runs_every_case_each_round() {
        let mut order = Vec::new();
        let timed = time_interleaved(3, 2, |case| {
            order.push(case);
            case * 10
        });
        assert_eq!(order, [0, 1, 0, 1, 0, 1]);
        assert_eq!(timed.len(), 2);
        assert_eq!((timed[0].1, timed[1].1), (0, 10));
        assert!(timed.iter().all(|(s, _)| s.min_s <= s.median_s));
        assert!(time_interleaved(0, 2, |case| case).is_empty());
    }

    #[test]
    fn spread_picks_min_and_median() {
        let s = Spread::of(&[3.0, 1.0, 2.0, 5.0]);
        assert_eq!((s.min_s, s.median_s), (1.0, 3.0));
        assert!(Spread::of(&[]).min_s.is_nan());
    }

    #[test]
    fn ns_formatting_picks_units() {
        assert_eq!(fmt_ns(12.0), "12.0 ns");
        assert_eq!(fmt_ns(12_500.0), "12.500 µs");
        assert_eq!(fmt_ns(3.2e6), "3.200 ms");
        assert_eq!(fmt_ns(2.5e9), "2.500 s");
    }
}
