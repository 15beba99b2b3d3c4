//! Synthetic speed profiles that excite the motion-driven harvesters.

use picocube_power::PowerError;
use picocube_units::json::{field, FromJson, Json, JsonError, ToJson};
use picocube_units::{MetersPerSecond, Seconds};

/// One linear-ramp segment of a drive cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrivePhase {
    /// Segment duration.
    pub duration: Seconds,
    /// Speed at the start of the segment.
    pub start_speed: MetersPerSecond,
    /// Speed at the end of the segment (linear interpolation between).
    pub end_speed: MetersPerSecond,
}

impl DrivePhase {
    /// A constant-speed segment.
    pub fn cruise(duration: Seconds, speed: MetersPerSecond) -> Self {
        Self {
            duration,
            start_speed: speed,
            end_speed: speed,
        }
    }

    /// A linear ramp between two speeds.
    pub fn ramp(duration: Seconds, from: MetersPerSecond, to: MetersPerSecond) -> Self {
        Self {
            duration,
            start_speed: from,
            end_speed: to,
        }
    }
}

/// A repeating, piecewise-linear speed profile.
///
/// # Examples
///
/// ```
/// use picocube_harvest::DriveCycle;
/// use picocube_units::Seconds;
///
/// let cycle = DriveCycle::urban();
/// let v = cycle.speed_at(Seconds::new(120.0));
/// assert!(v.kmh() >= 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DriveCycle {
    phases: Vec<DrivePhase>,
    period: Seconds,
}

impl DriveCycle {
    /// Builds a cycle from segments. The profile repeats with the summed
    /// period.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidParameter`] if `phases` is empty or any
    /// duration is non-positive.
    pub fn new(phases: Vec<DrivePhase>) -> Result<Self, PowerError> {
        if phases.is_empty() {
            return Err(PowerError::InvalidParameter {
                what: "drive cycle needs at least one phase",
            });
        }
        if !phases.iter().all(|p| p.duration.value() > 0.0) {
            return Err(PowerError::InvalidParameter {
                what: "phase durations must be positive",
            });
        }
        Ok(Self::from_phases(phases))
    }

    /// Builds a cycle from phases [`DriveCycle::new`] accepts
    /// (`presets_pass_the_checked_constructor` pins the presets).
    fn from_phases(phases: Vec<DrivePhase>) -> Self {
        let period = Seconds::new(phases.iter().map(|p| p.duration.value()).sum());
        Self { phases, period }
    }

    /// Urban stop-and-go: accelerate to 50 km/h, cruise, brake, idle at a
    /// light; 2-minute period.
    pub fn urban() -> Self {
        Self::from_phases(urban_phases())
    }

    /// Highway: long 110 km/h cruise with a brief slowdown; 10-minute
    /// period.
    pub fn highway() -> Self {
        Self::from_phases(highway_phases())
    }

    /// The §6 retreat demo: a bicycle wheel spun to ~20 km/h, coasting
    /// down, with pauses.
    pub fn bicycle() -> Self {
        Self::from_phases(bicycle_phases())
    }

    /// Parked: permanently stationary (the harvester-outage worst case).
    pub fn parked() -> Self {
        Self::from_phases(parked_phases())
    }

    /// The repeat period of the cycle.
    pub fn period(&self) -> Seconds {
        self.period
    }

    /// Speed at absolute time `t` (the cycle repeats).
    pub fn speed_at(&self, t: Seconds) -> MetersPerSecond {
        match self.locate(t.value()).1 {
            Some((index, into_phase)) => {
                let phase = &self.phases[index];
                let frac = into_phase / phase.duration.value();
                phase.start_speed + (phase.end_speed - phase.start_speed) * frac
            }
            // Floating-point edge: land on the period boundary.
            None => self.phases[0].start_speed,
        }
    }

    /// Where [`speed_at`](Self::speed_at) reads time `t` (seconds): the
    /// time into the period, and the index of the phase that holds it with
    /// the time into that phase. The phase is `None` on the period-end
    /// fall-through, where rounding in the running subtraction leaves a
    /// time just short of the period past the last phase.
    fn locate(&self, t: f64) -> (f64, Option<(usize, f64)>) {
        let period = self.period.value();
        // IEEE `fmod` returns `t` itself when 0 <= t < period.
        let into_period = if (0.0..period).contains(&t) {
            t
        } else {
            t.rem_euclid(period)
        };
        let mut remainder = into_period;
        for (index, phase) in self.phases.iter().enumerate() {
            let d = phase.duration.value();
            if remainder < d {
                return (into_period, Some((index, remainder)));
            }
            remainder -= d;
        }
        (into_period, None)
    }

    /// Whether [`speed_at`](Self::speed_at) returns the same bits at every
    /// time in `[a, b]` (seconds): both ends lie, less than a period apart,
    /// in one constant-speed phase of one period. DESIGN.md §11 gives the
    /// exactness argument.
    pub(crate) fn constant_over(&self, a: f64, b: f64) -> bool {
        if !(0.0 <= a && a <= b && b - a < self.period.value()) {
            return false;
        }
        let (into_a, phase_a) = self.locate(a);
        let (into_b, phase_b) = self.locate(b);
        // The fall-through reads `phases[0]`, not the phase before it.
        let (Some((i, _)), Some((j, _))) = (phase_a, phase_b) else {
            return false;
        };
        // Less than a period apart, the ends share a period exactly when
        // the later one is no earlier into it.
        i == j
            && into_b >= into_a
            && self
                .phases
                .get(i)
                .is_some_and(|p| (p.end_speed - p.start_speed).value() == 0.0)
    }

    /// Time-averaged speed over one period.
    pub fn average_speed(&self) -> MetersPerSecond {
        let weighted: f64 = self
            .phases
            .iter()
            .map(|p| 0.5 * (p.start_speed + p.end_speed).value() * p.duration.value())
            .sum();
        MetersPerSecond::new(weighted / self.period.value())
    }

    /// Fraction of the period spent moving (above 0.5 m/s).
    pub fn duty_moving(&self) -> f64 {
        let n = 10_000;
        let moving = (0..n)
            .filter(|&i| {
                let t = Seconds::new(self.period.value() * i as f64 / n as f64);
                self.speed_at(t).value() > 0.5
            })
            .count();
        moving as f64 / n as f64
    }
}

fn urban_phases() -> Vec<DrivePhase> {
    let kmh = MetersPerSecond::from_kmh;
    vec![
        DrivePhase::ramp(Seconds::new(10.0), kmh(0.0), kmh(50.0)),
        DrivePhase::cruise(Seconds::new(60.0), kmh(50.0)),
        DrivePhase::ramp(Seconds::new(8.0), kmh(50.0), kmh(0.0)),
        DrivePhase::cruise(Seconds::new(42.0), kmh(0.0)),
    ]
}

fn highway_phases() -> Vec<DrivePhase> {
    let kmh = MetersPerSecond::from_kmh;
    vec![
        DrivePhase::cruise(Seconds::new(500.0), kmh(110.0)),
        DrivePhase::ramp(Seconds::new(20.0), kmh(110.0), kmh(80.0)),
        DrivePhase::cruise(Seconds::new(60.0), kmh(80.0)),
        DrivePhase::ramp(Seconds::new(20.0), kmh(80.0), kmh(110.0)),
    ]
}

fn bicycle_phases() -> Vec<DrivePhase> {
    let kmh = MetersPerSecond::from_kmh;
    vec![
        DrivePhase::ramp(Seconds::new(5.0), kmh(0.0), kmh(20.0)),
        DrivePhase::ramp(Seconds::new(40.0), kmh(20.0), kmh(5.0)),
        DrivePhase::ramp(Seconds::new(10.0), kmh(5.0), kmh(0.0)),
        DrivePhase::cruise(Seconds::new(15.0), kmh(0.0)),
    ]
}

fn parked_phases() -> Vec<DrivePhase> {
    vec![DrivePhase::cruise(Seconds::HOUR, MetersPerSecond::ZERO)]
}

impl ToJson for DrivePhase {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("duration".into(), self.duration.to_json()),
            ("start_speed".into(), self.start_speed.to_json()),
            ("end_speed".into(), self.end_speed.to_json()),
        ])
    }
}

impl FromJson for DrivePhase {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            duration: FromJson::from_json(field(value, "duration")?)?,
            start_speed: FromJson::from_json(field(value, "start_speed")?)?,
            end_speed: FromJson::from_json(field(value, "end_speed")?)?,
        })
    }
}

impl ToJson for DriveCycle {
    fn to_json(&self) -> Json {
        // Only the phases carry information; the period is derived.
        Json::Obj(vec![("phases".into(), self.phases.to_json())])
    }
}

impl FromJson for DriveCycle {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let phases: Vec<DrivePhase> = FromJson::from_json(field(value, "phases")?)?;
        let bad = |p: &DrivePhase| p.duration.value() <= 0.0 || p.duration.value().is_nan();
        if phases.is_empty() || phases.iter().any(bad) {
            return Err(JsonError::new("invalid drive cycle phases"));
        }
        Self::new(phases).map_err(|_| JsonError::new("invalid drive cycle phases"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Harvester, WheelHarvester};

    #[test]
    fn presets_pass_the_checked_constructor() {
        for (phases, preset) in [
            (urban_phases(), DriveCycle::urban()),
            (highway_phases(), DriveCycle::highway()),
            (bicycle_phases(), DriveCycle::bicycle()),
            (parked_phases(), DriveCycle::parked()),
        ] {
            assert_eq!(DriveCycle::new(phases), Ok(preset));
        }
    }

    #[test]
    fn urban_cycle_period() {
        assert_eq!(DriveCycle::urban().period(), Seconds::new(120.0));
    }

    #[test]
    fn speed_interpolates_within_ramps() {
        let cycle = DriveCycle::urban();
        // Midway through the 10 s 0→50 km/h ramp.
        let v = cycle.speed_at(Seconds::new(5.0));
        assert!((v.kmh() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn profile_repeats() {
        let cycle = DriveCycle::urban();
        let a = cycle.speed_at(Seconds::new(30.0));
        let b = cycle.speed_at(Seconds::new(30.0 + 120.0 * 7.0));
        assert!((a.value() - b.value()).abs() < 1e-9);
    }

    #[test]
    fn average_speed_weighted_by_duration() {
        let cycle = DriveCycle::new(vec![
            DrivePhase::cruise(Seconds::new(10.0), MetersPerSecond::new(10.0)),
            DrivePhase::cruise(Seconds::new(30.0), MetersPerSecond::new(2.0)),
        ])
        .expect("valid cycle");
        assert!((cycle.average_speed().value() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn urban_duty_includes_the_idle() {
        let duty = DriveCycle::urban().duty_moving();
        // ~65 % of the urban period is in motion.
        assert!(duty > 0.55 && duty < 0.75, "duty {duty:.2}");
    }

    #[test]
    fn parked_never_moves() {
        let cycle = DriveCycle::parked();
        assert_eq!(cycle.duty_moving(), 0.0);
        assert_eq!(cycle.average_speed(), MetersPerSecond::ZERO);
    }

    /// Compares `average_power` over each span, at 2 and 16 samples, with
    /// the per-sample reference by bits, and counts the spans that took the
    /// constant path.
    fn check_spans(h: &WheelHarvester, spans: &[(f64, f64)], taken: &mut [usize; 2]) {
        for &(t0, t1) in spans {
            let (t0, t1) = (Seconds::new(t0), Seconds::new(t1));
            for n in [2, 16] {
                let fast = h.average_power(t0, t1, n);
                let reference = crate::trapezoid(h, t0, t1, n, |_, _| false, None);
                assert_eq!(
                    fast.value().to_bits(),
                    reference.value().to_bits(),
                    "{t0:?}..{t1:?} at n = {n} on {:?}",
                    h.cycle()
                );
                let mut constant = false;
                crate::trapezoid(
                    h,
                    t0,
                    t1,
                    n,
                    |a, b| {
                        constant = h.cycle().constant_over(a, b);
                        constant
                    },
                    None,
                );
                taken[usize::from(constant)] += 1;
            }
        }
    }

    /// Walks back-to-back spans of `step` seconds through `periods` periods,
    /// as a node's settles do, and checks each average against the
    /// per-sample reference by bits. On the constant path it counts the
    /// memo's hits (`counts[0]`) and misses (`counts[1]`) and checks what
    /// the memo then holds; off it, that the memo is left alone. Every
    /// ninth span takes 2 samples, so a memo keyed on power alone fails.
    fn check_memo_runs(h: &WheelHarvester, step: f64, periods: f64, counts: &mut [usize; 2]) {
        let end = periods * h.cycle().period().value();
        let mut k = 0usize;
        while (k as f64) * step < end {
            let t = k as f64 * step;
            let (t0, t1) = (Seconds::new(t), Seconds::new(t + step));
            let n = if k % 9 == 8 { 2 } else { 16 };
            k += 1;
            let before = h.memo.get();
            let fast = h.average_power(t0, t1, n);
            let reference = crate::trapezoid(h, t0, t1, n, |_, _| false, None);
            assert_eq!(
                fast.value().to_bits(),
                reference.value().to_bits(),
                "{t0:?}..{t1:?} at n = {n} on {:?}",
                h.cycle()
            );
            // The trapezoid's first and last sample times: its last sample
            // sits at `t0 + ((n - 1) / (n - 1)) * span`, and x / x is
            // exactly 1.
            let last = t0.value() + (t1 - t0).value();
            if !h.cycle().constant_over(t0.value(), last) {
                assert_eq!(h.memo.get(), before, "the per-sample path wrote the memo");
                continue;
            }
            let key = (h.power_at(t0).value().to_bits(), n);
            let hit = before.is_some_and(|(bits, samples, _)| (bits, samples) == key);
            counts[usize::from(!hit)] += 1;
            assert_eq!(h.memo.get(), Some((key.0, key.1, fast)));
        }
    }

    /// Spans at the edges of a cycle's phases: inside each phase, ending
    /// on, starting on and straddling each boundary (the period end too),
    /// one and more periods long, empty, and all of these again in later
    /// periods.
    fn edge_spans(cycle: &DriveCycle) -> Vec<(f64, f64)> {
        let period = cycle.period().value();
        let mut bounds = vec![0.0];
        for phase in &cycle.phases {
            let end = bounds.last().copied().unwrap_or(0.0) + phase.duration.value();
            bounds.push(end);
        }
        let mut spans = Vec::new();
        for pair in bounds.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let d = b - a;
            spans.extend([
                (a + 0.25 * d, a + 0.75 * d),
                (a + 0.1 * d, a + 0.1 * d + 0.02),
                (a, a + 0.4 * d),
                (b - 0.4 * d, b),
                (b - 0.4 * d, b + 0.01),
                (a + 0.5 * d, a + 0.5 * d + period),
                (a + 0.5 * d, a + 0.5 * d + 2.5 * period),
                (a + 0.5 * d, a + 0.5 * d),
            ]);
        }
        spans.push((period - 0.01, period + 0.01));
        let first: Vec<(f64, f64)> = spans.clone();
        for k in [1.0, 7.0] {
            spans.extend(first.iter().map(|&(a, b)| (a + k * period, b + k * period)));
        }
        spans
    }

    #[test]
    fn constant_phase_average_matches_every_sample_by_bits() {
        let mut taken = [0usize; 2];
        for cycle in [
            DriveCycle::urban(),
            DriveCycle::highway(),
            DriveCycle::bicycle(),
            DriveCycle::parked(),
        ] {
            let spans = edge_spans(&cycle);
            check_spans(
                &WheelHarvester::automotive(cycle.clone()),
                &spans,
                &mut taken,
            );
            check_spans(&WheelHarvester::bicycle(cycle), &spans, &mut taken);
        }
        let mut rng = picocube_sim::SimRng::seed_from(0x5EED);
        for case in 0..200 {
            // Case 0 and every seventh case is a one-phase cycle.
            let phases = if case % 7 == 0 { 1 } else { 1 + rng.index(5) };
            let cycle = DriveCycle::new(
                (0..phases)
                    .map(|_| {
                        let duration = Seconds::new(rng.uniform(0.05, 30.0));
                        let from = MetersPerSecond::new(rng.uniform(0.0, 40.0));
                        if rng.bernoulli(0.5) {
                            DrivePhase::cruise(duration, from)
                        } else {
                            let to = MetersPerSecond::new(rng.uniform(0.0, 40.0));
                            DrivePhase::ramp(duration, from, to)
                        }
                    })
                    .collect(),
            )
            .expect("valid cycle");
            let period = cycle.period().value();
            let mut spans = edge_spans(&cycle);
            for _ in 0..20 {
                let t0 = rng.uniform(0.0, 3.0 * period);
                let len = match rng.index(4) {
                    0 => 0.02,
                    1 => rng.uniform(0.0, period),
                    2 => period,
                    _ => rng.uniform(period, 3.0 * period),
                };
                spans.push((t0, t0 + len));
            }
            check_spans(&WheelHarvester::automotive(cycle), &spans, &mut taken);
        }
        assert!(
            taken[0] > 1000 && taken[1] > 1000,
            "per-sample {} and constant {} spans",
            taken[0],
            taken[1]
        );

        // Runs of same-phase settles with phase changes between them: the
        // highway returns to its 110 km/h cruise, and the last cycle's two
        // crawls below the generator's cut-in are different phases of the
        // same (zero) power, so the memo hits across that phase change.
        let mps = MetersPerSecond::new;
        let kmh = MetersPerSecond::from_kmh;
        let returns = DriveCycle::new(vec![
            DrivePhase::cruise(Seconds::new(5.0), kmh(30.0)),
            DrivePhase::cruise(Seconds::new(5.0), kmh(60.0)),
            DrivePhase::cruise(Seconds::new(5.0), kmh(30.0)),
            DrivePhase::ramp(Seconds::new(3.0), kmh(30.0), mps(0.2)),
            DrivePhase::cruise(Seconds::new(4.0), mps(0.2)),
            DrivePhase::cruise(Seconds::new(4.0), mps(0.4)),
            DrivePhase::ramp(Seconds::new(3.0), mps(0.4), kmh(30.0)),
        ])
        .expect("valid cycle");
        let mut memo = [0usize; 2];
        for cycle in [
            DriveCycle::urban(),
            DriveCycle::highway(),
            DriveCycle::bicycle(),
            DriveCycle::parked(),
            returns,
        ] {
            let step = cycle.period().value() / 240.0;
            check_memo_runs(
                &WheelHarvester::automotive(cycle.clone()),
                step,
                2.5,
                &mut memo,
            );
            check_memo_runs(&WheelHarvester::bicycle(cycle), 0.02, 0.01, &mut memo);
        }
        assert!(
            memo[0] > 1000 && memo[1] > 100,
            "memo hits {} and misses {}",
            memo[0],
            memo[1]
        );
    }

    #[test]
    fn the_period_end_fall_through_is_never_a_phase() {
        // Summed left to right, 0.1 + 0.2 + 0.3 rounds up to
        // 0.6000000000000001, so at 0.6 the running subtraction leaves the
        // last phase and `speed_at` falls through to the first phase's
        // speed: 5 m/s, not the 20 m/s of the phase the span starts in.
        let mps = MetersPerSecond::new;
        let cycle = DriveCycle::new(vec![
            DrivePhase::cruise(Seconds::new(0.1), mps(5.0)),
            DrivePhase::cruise(Seconds::new(0.2), mps(10.0)),
            DrivePhase::cruise(Seconds::new(0.3), mps(20.0)),
        ])
        .expect("valid cycle");
        let (t0, t1) = (0.55, 0.6);
        assert_eq!(t0 + 1.0 * (t1 - t0), t1, "the last sample lands on t1");
        assert!(cycle.locate(t1).1.is_none(), "0.6 is the fall-through");
        assert_eq!(cycle.speed_at(Seconds::new(t1)), mps(5.0));
        let mut taken = [0usize; 2];
        let h = WheelHarvester::automotive(cycle);
        check_spans(&h, &[(t0, t1), (0.35, 0.5)], &mut taken);
        assert_eq!(taken, [2, 2], "only the span inside the phase is constant");
    }

    #[test]
    fn empty_cycle_rejected() {
        let err = DriveCycle::new(vec![]).unwrap_err();
        assert!(matches!(err, PowerError::InvalidParameter { what } if what.contains("phase")));
    }
}
