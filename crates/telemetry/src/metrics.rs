//! The metrics registry: named counters, gauges and histograms with a
//! deterministic merge.
//!
//! Metric values are plain data. A fleet shard accumulates into its own
//! [`Metrics`] and shards are merged **in node order** with
//! [`Metrics::merge_from`]; because merging is a fixed-order fold, the
//! merged floating-point sums are bit-identical no matter how phase 1 was
//! scheduled across threads.

use picocube_units::json::{field, FromJson, Json, JsonError, ToJson};

/// Bucket upper bounds used when a histogram is observed before being
/// registered: half-decade steps spanning sub-µs to minutes when values are
/// in µs, or nW to watts when values are in µW.
pub const DEFAULT_BOUNDS: [f64; 12] = [
    0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8,
];

/// A fixed-bucket histogram with exact counts and guarded aggregates.
///
/// * `NaN` observations are counted separately ([`Histogram::nan_count`])
///   and never touch the buckets, sum, min or max.
/// * Non-finite observations (`±inf`) land in the terminal buckets but are
///   excluded from the running sum/min/max, so aggregates stay finite.
/// * `0` and negative values fall into the first bucket whose upper bound
///   contains them (bounds are inclusive upper limits).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// One count per bound, plus the overflow bucket at the end.
    counts: Vec<u64>,
    sum: f64,
    count: u64,
    finite_count: u64,
    nan_count: u64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Creates a histogram over ascending inclusive upper `bounds`. An
    /// implicit overflow bucket catches values above the last bound.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty, non-ascending, or contains a non-finite
    /// bound.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must ascend"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
            finite_count: 0,
            nan_count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation (see the type docs for the NaN/∞ rules).
    pub fn observe(&mut self, value: f64) {
        if value.is_nan() {
            self.nan_count += 1;
            return;
        }
        let bucket = self.bounds.partition_point(|&b| b < value);
        self.counts[bucket] += 1;
        self.count += 1;
        if value.is_finite() {
            self.sum += value;
            self.finite_count += 1;
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
    }

    /// The inclusive upper bounds (the overflow bucket is implicit).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; the final entry is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Observations recorded (excluding NaNs).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// NaN observations rejected by the guard.
    pub fn nan_count(&self) -> u64 {
        self.nan_count
    }

    /// Sum of all finite observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest finite observation, if any.
    pub fn min(&self) -> Option<f64> {
        (self.min <= self.max).then_some(self.min)
    }

    /// Largest finite observation, if any.
    pub fn max(&self) -> Option<f64> {
        (self.min <= self.max).then_some(self.max)
    }

    /// Mean of the finite observations, or `None` before the first.
    pub fn mean(&self) -> Option<f64> {
        // Non-finite observations inflate `count` but not `sum`; mean is
        // over the finite population.
        (self.finite_count > 0).then(|| self.sum / self.finite_count as f64)
    }

    /// Adds another histogram's observations into this one.
    ///
    /// # Panics
    ///
    /// Panics if the bucket bounds differ — merging histograms of different
    /// shapes silently would corrupt every percentile read from them — or
    /// if the merged count overflows `u64`.
    pub fn merge_from(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bounds"
        );
        let merged = self.add(other);
        assert!(merged.is_some(), "histogram count overflows u64");
    }

    /// Adds another histogram's observations; the bounds must be equal.
    /// Returns `None`, leaving `self` as it was, when a count would
    /// overflow. Every histogram keeps `count` = Σ`counts` ≥ `finite_count`
    /// (observation keeps it, the decoder rejects any other), so a merged
    /// `count` that fits bounds every bucket and the finite count.
    fn add(&mut self, other: &Histogram) -> Option<()> {
        let count = self.count.checked_add(other.count)?;
        let nan_count = self.nan_count.checked_add(other.nan_count)?;
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.sum += other.sum;
        self.count = count;
        self.finite_count += other.finite_count;
        self.nan_count = nan_count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        Some(())
    }
}

impl ToJson for Histogram {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("bounds".into(), self.bounds.to_json()),
            ("counts".into(), self.counts.to_json()),
            ("count".into(), self.count.to_json()),
            ("finite_count".into(), self.finite_count.to_json()),
            ("nan_count".into(), self.nan_count.to_json()),
            ("sum".into(), self.sum.to_json()),
            ("min".into(), self.min().to_json()),
            ("max".into(), self.max().to_json()),
        ])
    }
}

impl FromJson for Histogram {
    /// Rebuilds a histogram from its [`ToJson`] form, bit-exactly: every
    /// field round-trips (`units::json` preserves `f64` bits), and the
    /// `min`/`max` sentinels for an empty histogram are restored from the
    /// serialized `null`s — the checkpoint/resume contract. A `count` that
    /// is not the sum of `counts`, or a `finite_count` above it, is
    /// rejected: no observation sequence produces one, and a merge relies
    /// on it.
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let bounds: Vec<f64> = FromJson::from_json(field(value, "bounds")?)?;
        if bounds.is_empty() || !bounds.iter().all(|b| b.is_finite()) {
            return Err(JsonError::new("histogram bounds must be finite, non-empty"));
        }
        if !bounds.windows(2).all(|w| matches!(w, [a, b] if a < b)) {
            return Err(JsonError::new("histogram bounds must ascend"));
        }
        let counts: Vec<u64> = FromJson::from_json(field(value, "counts")?)?;
        if counts.len() != bounds.len() + 1 {
            return Err(JsonError::new(
                "histogram needs one count per bound plus the overflow bucket",
            ));
        }
        let count: u64 = FromJson::from_json(field(value, "count")?)?;
        let total = counts.iter().try_fold(0u64, |sum, c| sum.checked_add(*c));
        if total != Some(count) {
            return Err(JsonError::new(format!(
                "histogram count {count} is not the sum of its counts"
            )));
        }
        let finite_count: u64 = FromJson::from_json(field(value, "finite_count")?)?;
        if finite_count > count {
            return Err(JsonError::new(format!(
                "histogram finite_count {finite_count} exceeds its count {count}"
            )));
        }
        let min: Option<f64> = FromJson::from_json(field(value, "min")?)?;
        let max: Option<f64> = FromJson::from_json(field(value, "max")?)?;
        Ok(Self {
            bounds,
            counts,
            sum: FromJson::from_json(field(value, "sum")?)?,
            count,
            finite_count,
            nan_count: FromJson::from_json(field(value, "nan_count")?)?,
            min: min.unwrap_or(f64::INFINITY),
            max: max.unwrap_or(f64::NEG_INFINITY),
        })
    }
}

/// One registered metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotonic integer count (packets, wakes, events).
    Counter(u64),
    /// Accumulating float (per-rail µJ, seconds of residency). Gauges merge
    /// by **addition**, so a fleet-merged gauge is the sum over nodes.
    Gauge(f64),
    /// Distribution of observations.
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Self::Counter(_) => "counter",
            Self::Gauge(_) => "gauge",
            Self::Histogram(_) => "histogram",
        }
    }
}

impl ToJson for Metric {
    fn to_json(&self) -> Json {
        match self {
            Self::Counter(v) => v.to_json(),
            Self::Gauge(v) => v.to_json(),
            Self::Histogram(h) => h.to_json(),
        }
    }
}

impl FromJson for Metric {
    /// The wire form is self-describing: counters serialize as JSON
    /// integers, gauges always carry a decimal marker (`units::json` keeps
    /// the two token families distinct), and histograms are objects.
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::UInt(v) => Ok(Self::Counter(*v)),
            Json::Num(v) => Ok(Self::Gauge(*v)),
            Json::Obj(_) => Ok(Self::Histogram(FromJson::from_json(value)?)),
            _ => Err(JsonError::new("expected a counter, gauge or histogram")),
        }
    }
}

/// A metric two registries hold in shapes that cannot merge: different
/// kinds, histograms with different bucket bounds, or counts whose sum
/// overflows `u64`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeConflict {
    /// The metric's name.
    pub name: String,
    /// How the two sides differ.
    pub detail: String,
}

impl core::fmt::Display for MergeConflict {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "metric {} {}", self.name, self.detail)
    }
}

impl std::error::Error for MergeConflict {}

impl MergeConflict {
    fn overflow(name: &str) -> Self {
        Self {
            name: name.to_string(),
            detail: "overflows u64 when merged".into(),
        }
    }
}

/// Insertion-ordered registry of named metrics.
///
/// Names are dotted paths (`"radio.tx.packets"`, `"power.rail.VBAT.uj"`).
/// Lookup is linear — registries hold tens of entries and the hot-path
/// operations are integer adds, so a hash map would cost more than it
/// saves.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    entries: Vec<(String, Metric)>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments the counter `name` by `by`, registering it at zero first
    /// if needed.
    ///
    /// # Panics
    ///
    /// Panics if `name` is registered as a different metric kind.
    pub fn inc(&mut self, name: &str, by: u64) {
        match self.entry(name, || Metric::Counter(0)) {
            Metric::Counter(v) => *v += by,
            other => panic!("{name} is a {}, not a counter", other.kind()),
        }
    }

    /// Adds `by` to the gauge `name`, registering it at zero first if
    /// needed.
    ///
    /// # Panics
    ///
    /// Panics if `name` is registered as a different metric kind.
    pub fn add(&mut self, name: &str, by: f64) {
        match self.entry(name, || Metric::Gauge(0.0)) {
            Metric::Gauge(v) => *v += by,
            other => panic!("{name} is a {}, not a gauge", other.kind()),
        }
    }

    /// Records `value` into the histogram `name`, registering it over
    /// [`DEFAULT_BOUNDS`] first if needed. Use
    /// [`register_histogram`](Self::register_histogram) for custom buckets.
    ///
    /// # Panics
    ///
    /// Panics if `name` is registered as a different metric kind.
    pub fn observe(&mut self, name: &str, value: f64) {
        match self.entry(name, || Metric::Histogram(Histogram::new(&DEFAULT_BOUNDS))) {
            Metric::Histogram(h) => h.observe(value),
            other => panic!("{name} is a {}, not a histogram", other.kind()),
        }
    }

    /// Registers (or re-shapes, if empty) a histogram with explicit bounds.
    ///
    /// # Panics
    ///
    /// Panics if `name` already holds a non-histogram metric, or bounds are
    /// invalid (see [`Histogram::new`]).
    pub fn register_histogram(&mut self, name: &str, bounds: &[f64]) {
        match self.entry(name, || Metric::Histogram(Histogram::new(bounds))) {
            Metric::Histogram(_) => {}
            other => panic!("{name} is a {}, not a histogram", other.kind()),
        }
    }

    /// The counter's current value (zero if unregistered).
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(Metric::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// The gauge's current value (zero if unregistered).
    pub fn gauge(&self, name: &str) -> f64 {
        match self.get(name) {
            Some(Metric::Gauge(v)) => *v,
            _ => 0.0,
        }
    }

    /// The histogram registered under `name`, if any.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.get(name) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, m)| m)
    }

    /// Iterates `(name, metric)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.entries.iter().map(|(n, m)| (n.as_str(), m))
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Folds another registry into this one: counters and gauges add,
    /// histograms merge bucket-wise, and names unknown to `self` are
    /// appended in `other`'s order.
    ///
    /// Merging shard registries **in node order** yields bit-identical
    /// results regardless of which thread produced each shard — the
    /// parallel engine's determinism contract.
    ///
    /// # Panics
    ///
    /// Panics with the [`MergeConflict`] that
    /// [`try_merge_from`](Self::try_merge_from) returns.
    pub fn merge_from(&mut self, other: &Metrics) {
        if let Err(conflict) = self.try_merge_from(other) {
            panic!("{conflict}");
        }
    }

    /// [`merge_from`](Self::merge_from), returning the first name
    /// registered with different kinds (or histogram bounds) on the two
    /// sides, or whose counts would overflow `u64`, instead of panicking.
    /// The metrics before it stay merged; it keeps its value.
    ///
    /// # Errors
    ///
    /// Returns the conflicting metric as a [`MergeConflict`].
    pub fn try_merge_from(&mut self, other: &Metrics) -> Result<(), MergeConflict> {
        for (name, theirs) in &other.entries {
            match self.entries.iter_mut().find(|(n, _)| n == name) {
                None => self.entries.push((name.clone(), theirs.clone())),
                Some((_, mine)) => match (mine, theirs) {
                    (Metric::Counter(a), Metric::Counter(b)) => match a.checked_add(*b) {
                        Some(sum) => *a = sum,
                        None => return Err(MergeConflict::overflow(name)),
                    },
                    (Metric::Gauge(a), Metric::Gauge(b)) => *a += b,
                    (Metric::Histogram(a), Metric::Histogram(b)) if a.bounds == b.bounds => {
                        if a.add(b).is_none() {
                            return Err(MergeConflict::overflow(name));
                        }
                    }
                    (mine, theirs) => {
                        let detail = match (mine.kind(), theirs.kind()) {
                            (a, b) if a == b => format!("is a {a} with different bounds"),
                            (a, b) => format!("is a {a} on one side and a {b} on the other"),
                        };
                        return Err(MergeConflict {
                            name: name.clone(),
                            detail,
                        });
                    }
                },
            }
        }
        Ok(())
    }

    fn entry(&mut self, name: &str, default: impl FnOnce() -> Metric) -> &mut Metric {
        let i = match self.entries.iter().position(|(n, _)| n == name) {
            Some(i) => i,
            None => {
                self.entries.push((name.to_string(), default()));
                self.entries.len() - 1
            }
        };
        &mut self.entries[i].1
    }
}

impl ToJson for Metrics {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.entries
                .iter()
                .map(|(n, m)| (n.clone(), m.to_json()))
                .collect(),
        )
    }
}

impl FromJson for Metrics {
    /// Rebuilds a registry from its [`ToJson`] object, preserving the
    /// insertion order the deterministic merge depends on.
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let Json::Obj(entries) = value else {
            return Err(JsonError::new("expected a metrics object"));
        };
        let mut out = Self::new();
        for (name, raw) in entries {
            if out.get(name).is_some() {
                return Err(JsonError::new(format!("duplicate metric {name:?}")));
            }
            let metric = Metric::from_json(raw)
                .map_err(|e| JsonError::new(format!("metric {name}: {}", e.message)))?;
            out.entries.push((name.clone(), metric));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.inc("a", 1);
        m.inc("a", 2);
        m.inc("b", 5);
        assert_eq!(m.counter("a"), 3);
        assert_eq!(m.counter("b"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn gauges_accumulate_floats() {
        let mut m = Metrics::new();
        m.add("e", 1.5);
        m.add("e", 2.25);
        assert_eq!(m.gauge("e"), 3.75);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_confusion_panics() {
        let mut m = Metrics::new();
        m.inc("x", 1);
        m.add("x", 1.0);
    }

    #[test]
    fn histogram_buckets_by_inclusive_upper_bound() {
        let mut h = Histogram::new(&[1.0, 10.0, 100.0]);
        for v in [0.5, 1.0, 1.1, 10.0, 99.0, 101.0] {
            h.observe(v);
        }
        assert_eq!(h.counts(), &[2, 2, 1, 1]); // 1.0 and 10.0 land inclusive
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), Some(0.5));
        assert_eq!(h.max(), Some(101.0));
    }

    #[test]
    fn histogram_zero_goes_in_first_bucket() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        h.observe(0.0);
        h.observe(-3.0); // negative values also clamp into the first bucket
        assert_eq!(h.counts(), &[2, 0, 0]);
        assert_eq!(h.min(), Some(-3.0));
    }

    #[test]
    fn histogram_nan_guard() {
        let mut h = Histogram::new(&[1.0]);
        h.observe(f64::NAN);
        h.observe(0.5);
        h.observe(f64::NAN);
        assert_eq!(h.nan_count(), 2);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 0.5);
        assert!(h.mean().unwrap().is_finite());
    }

    #[test]
    fn histogram_max_and_infinities_stay_finite() {
        let mut h = Histogram::new(&[1.0, 1e300]);
        h.observe(f64::MAX); // above the last bound: overflow bucket
        h.observe(f64::INFINITY); // counted, excluded from aggregates
        h.observe(f64::NEG_INFINITY); // first bucket, excluded likewise
        h.observe(2.0);
        assert_eq!(h.counts(), &[1, 1, 2]);
        assert_eq!(h.count(), 4);
        assert!(h.sum().is_finite());
        assert_eq!(h.min(), Some(2.0)); // f64::MAX is finite and tracked
        assert_eq!(h.max(), Some(f64::MAX));
        assert!(h.mean().unwrap().is_finite());
    }

    #[test]
    fn empty_histogram_has_no_aggregates() {
        let h = Histogram::new(&[1.0]);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    #[should_panic(expected = "must ascend")]
    fn unsorted_bounds_rejected() {
        Histogram::new(&[10.0, 1.0]);
    }

    #[test]
    fn conflicting_registries_fail_typed() {
        let mut counter = Metrics::new();
        counter.inc("a", 1);
        counter.inc("x", 1);
        let mut gauge = Metrics::new();
        gauge.add("a", 2.0);
        let mut wide = Metrics::new();
        wide.register_histogram("h", &[1.0, 2.0]);
        let mut narrow = Metrics::new();
        narrow.register_histogram("h", &[1.0]);
        let conflict = counter.clone().try_merge_from(&gauge).unwrap_err();
        assert_eq!(
            conflict.to_string(),
            "metric a is a counter on one side and a gauge on the other"
        );
        let conflict = wide.try_merge_from(&narrow).unwrap_err();
        assert_eq!(
            conflict.to_string(),
            "metric h is a histogram with different bounds"
        );
        // A clean merge still adds.
        counter
            .try_merge_from(&counter.clone())
            .expect("same shapes merge");
        assert_eq!(counter.counter("x"), 2);
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn merging_mismatched_histograms_panics() {
        let mut a = Histogram::new(&[1.0]);
        let b = Histogram::new(&[2.0]);
        a.merge_from(&b);
    }

    #[test]
    fn overflowing_counts_are_merge_conflicts() {
        let mut a = Metrics::new();
        a.inc("wakes", u64::MAX);
        a.observe("airtime", 1.0);
        let mut b = Metrics::new();
        b.inc("wakes", 1);
        let err = a.try_merge_from(&b).expect_err("u64::MAX + 1");
        assert_eq!(err.name, "wakes");
        assert!(err.to_string().contains("overflows u64"), "{err}");
        assert_eq!(a.counter("wakes"), u64::MAX, "the conflict keeps its value");

        // A histogram whose count sits at u64::MAX, as a checkpoint may
        // carry it, fails the same way and stays as it was.
        let text = a.to_json().to_string().replace(
            r#""counts":[0,0,0,1,0,0,0,0,0,0,0,0,0],"count":1"#,
            r#""counts":[0,0,0,18446744073709551615,0,0,0,0,0,0,0,0,0],"count":18446744073709551615"#,
        );
        let mut full = Metrics::from_json(&Json::parse(&text).unwrap()).unwrap();
        let before = full.clone();
        let mut one = Metrics::new();
        one.observe("airtime", 1.0);
        let err = full
            .try_merge_from(&one)
            .expect_err("histogram count overflows");
        assert_eq!(err.name, "airtime");
        assert_eq!(full.histogram("airtime"), before.histogram("airtime"));
    }

    #[test]
    fn inconsistent_histograms_are_rejected_naming_the_metric() {
        let mut m = Metrics::new();
        m.observe("airtime", 1.0);
        m.observe("airtime", f64::INFINITY);
        let text = m.to_json().to_string();
        assert!(Metrics::from_json(&Json::parse(&text).unwrap()).is_ok());
        for (from, to, phrase) in [
            (
                r#""count":2"#,
                r#""count":3"#,
                "is not the sum of its counts",
            ),
            (
                r#""finite_count":1"#,
                r#""finite_count":3"#,
                "exceeds its count",
            ),
        ] {
            let hostile = text.replace(from, to);
            assert_ne!(hostile, text);
            let err = Metrics::from_json(&Json::parse(&hostile).unwrap()).expect_err(phrase);
            assert!(
                err.message.starts_with("metric airtime:") && err.message.contains(phrase),
                "{err}"
            );
        }
    }

    #[test]
    fn merge_is_a_fixed_order_fold() {
        let shard = |seed: u64| {
            let mut m = Metrics::new();
            m.inc("packets", seed);
            m.add("energy_uj", seed as f64 * 0.1);
            m.observe("airtime", seed as f64);
            m
        };
        let mut left = Metrics::new();
        for s in [1, 2, 3] {
            left.merge_from(&shard(s));
        }
        let mut right = Metrics::new();
        for s in [1, 2, 3] {
            right.merge_from(&shard(s));
        }
        assert_eq!(left, right);
        assert_eq!(left.counter("packets"), 6);
        assert_eq!(
            left.gauge("energy_uj").to_bits(),
            right.gauge("energy_uj").to_bits()
        );
        assert_eq!(left.histogram("airtime").unwrap().count(), 3);
    }

    #[test]
    fn merge_appends_unknown_names_in_order() {
        let mut a = Metrics::new();
        a.inc("x", 1);
        let mut b = Metrics::new();
        b.inc("y", 2);
        b.inc("z", 3);
        a.merge_from(&b);
        let names: Vec<&str> = a.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["x", "y", "z"]);
    }

    #[test]
    fn metrics_round_trip_through_json_bit_exactly() {
        let mut m = Metrics::new();
        m.inc("fleet.offered", 7);
        m.add("power.total.uj", 12.5 + 0.1); // a non-terminating binary sum
        m.observe("airtime_us", 1040.0);
        m.observe("airtime_us", f64::NAN);
        m.observe("airtime_us", f64::INFINITY);
        m.register_histogram("empty.hist", &[1.0, 2.0]);
        let text = m.to_json().to_string();
        let back = Metrics::from_json(&Json::parse(&text).unwrap()).unwrap();
        // Bit-exact: the gauge sum, the histogram aggregates and the empty
        // histogram's min/max sentinels all survive the text round trip.
        assert_eq!(m, back);
        assert_eq!(
            m.gauge("power.total.uj").to_bits(),
            back.gauge("power.total.uj").to_bits()
        );
        let (a, b) = (
            m.histogram("airtime_us").unwrap(),
            back.histogram("airtime_us").unwrap(),
        );
        assert_eq!(a.mean().unwrap().to_bits(), b.mean().unwrap().to_bits());
        assert_eq!(b.nan_count(), 1);
        // Registration order (the merge law's fold order) is preserved.
        let names: Vec<&str> = back.iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            [
                "fleet.offered",
                "power.total.uj",
                "airtime_us",
                "empty.hist"
            ]
        );
    }

    #[test]
    fn metric_from_json_rejects_foreign_shapes() {
        assert!(Metric::from_json(&Json::Str("x".into())).is_err());
        assert!(Metric::from_json(&Json::Int(-3)).is_err());
        assert!(Metrics::from_json(&Json::Arr(Vec::new())).is_err());
        // A histogram missing its overflow bucket is structurally invalid.
        let mut h = Histogram::new(&[1.0]);
        h.observe(0.5);
        let mut json = h.to_json();
        if let Json::Obj(fields) = &mut json {
            for (k, v) in fields.iter_mut() {
                if k == "counts" {
                    *v = Json::Arr(vec![Json::UInt(1)]);
                }
            }
        }
        assert!(Histogram::from_json(&json).is_err());
    }

    #[test]
    fn metrics_serialize_to_json_object() {
        let mut m = Metrics::new();
        m.inc("fleet.offered", 7);
        m.add("power.total.uj", 12.5);
        m.observe("airtime_us", 1040.0);
        let json = m.to_json();
        assert_eq!(json.get("fleet.offered").and_then(Json::as_u64), Some(7));
        assert!(json
            .get("airtime_us")
            .and_then(|h| h.get("counts"))
            .is_some());
        // The document parses back as JSON text (the JSONL contract).
        assert!(Json::parse(&json.to_string()).is_ok());
    }
}
