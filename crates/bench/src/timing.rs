//! Wall-clock timing for the `harness = false` bench binaries (the
//! offline build carries no benchmarking crate): single timed runs, and
//! interleaved rounds summarized by their min and median.

use std::hint::black_box;
use std::time::Instant;

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
}
