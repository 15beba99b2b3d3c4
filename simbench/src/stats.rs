//! Order statistics for timing samples.

/// Median of `values` (mean of the middle pair for an even count); `NaN`
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, the rule the benchmark's spread
/// criterion is stated in. A single sample is its own quartiles; an empty
/// slice gives `NaN`s.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let len = data.len();
    match len {
        0 => (f64::NAN, f64::NAN),
        1 => (data[0], data[0]),
        _ => {
            let cut = |i: usize| {
                let m = len + 1;
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            (cut(1), cut(3))
        }
    }
}

/// Median, quartiles and sample count of one timing series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median sample.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarizes `values`.
    pub fn of(values: &[f64]) -> Self {
        let (q1, q3) = quartiles(values);
        Self {
            median: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
