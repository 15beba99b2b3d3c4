//! Rim-mounted rotational harvester for the tire-pressure application.
//!
//! §1 notes that TPMS is exactly the case where "a substantial amount of
//! 'mechanical mass' is required to provide the necessary energy" — the
//! harvester lives on the rim, outside the 1 cm³ node. The generator is an
//! eccentric proof mass / coil arrangement whose electrical output grows
//! with the square of wheel speed until magnetic saturation.

use crate::{ConstantAverage, DriveCycle, Harvester};
use picocube_power::PowerError;
use picocube_units::{Meters, Rpm, Seconds, Watts};

/// A wheel-speed-driven electromagnetic generator.
#[derive(Debug, Clone)]
pub struct WheelHarvester {
    cycle: DriveCycle,
    wheel_radius: Meters,
    /// Output power per (rad/s)² below saturation.
    k_w_per_rad2: f64,
    /// Saturation ceiling of the magnetics.
    p_max: Watts,
    /// Minimum rotation rate before the generator overcomes cogging.
    cut_in: Rpm,
    /// The last constant-phase average (DESIGN.md §11): a run of settles
    /// inside one cruise phase sums its trapezoid once.
    pub(crate) memo: ConstantAverage,
}

/// The model's parameters; the memo is a cache, not part of the value.
impl PartialEq for WheelHarvester {
    fn eq(&self, other: &Self) -> bool {
        self.cycle == other.cycle
            && self.wheel_radius == other.wheel_radius
            && self.k_w_per_rad2 == other.k_w_per_rad2
            && self.p_max == other.p_max
            && self.cut_in == other.cut_in
    }
}

/// A preset's wheel radius, power coefficient, saturation and cut-in.
type Preset = (Meters, f64, Watts, Rpm);

/// The automotive preset: 90 km/h on a 0.3 m wheel is ω = 83.3 rad/s,
/// and 450 µW / ω² ≈ 6.5e-8.
fn automotive_preset() -> Preset {
    (
        Meters::new(0.3),
        6.48e-8,
        Watts::from_milli(2.0),
        Rpm::new(30.0),
    )
}

/// The bicycle preset: a 0.34 m wheel and smaller magnetics.
fn bicycle_preset() -> Preset {
    (
        Meters::new(0.34),
        2.0e-7,
        Watts::from_milli(1.0),
        Rpm::new(15.0),
    )
}

impl WheelHarvester {
    /// Creates a wheel harvester.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidParameter`] if the radius or power
    /// coefficient is not strictly positive.
    pub fn new(
        cycle: DriveCycle,
        wheel_radius: Meters,
        k_w_per_rad2: f64,
        p_max: Watts,
        cut_in: Rpm,
    ) -> Result<Self, PowerError> {
        if !crate::positive(wheel_radius.value()) {
            return Err(PowerError::InvalidParameter {
                what: "wheel radius must be positive",
            });
        }
        if !crate::positive(k_w_per_rad2) {
            return Err(PowerError::InvalidParameter {
                what: "power coefficient must be positive",
            });
        }
        Ok(Self::from_preset(
            cycle,
            (wheel_radius, k_w_per_rad2, p_max, cut_in),
        ))
    }

    /// Builds a harvester from parameters [`WheelHarvester::new`] accepts
    /// (`presets_pass_the_checked_constructor` pins the presets).
    fn from_preset(cycle: DriveCycle, (wheel_radius, k_w_per_rad2, p_max, cut_in): Preset) -> Self {
        Self {
            cycle,
            wheel_radius,
            k_w_per_rad2,
            p_max,
            cut_in,
            memo: ConstantAverage::default(),
        }
    }

    /// The automotive TPMS harvester: 0.3 m wheel, calibrated to produce
    /// ≈ 450 µW at 90 km/h (the synchronous rectifier's characterization
    /// point) and saturating at 2 mW.
    pub fn automotive(cycle: DriveCycle) -> Self {
        Self::from_preset(cycle, automotive_preset())
    }

    /// The §6 demo harvester on a bicycle wheel (0.34 m radius), smaller
    /// magnetics.
    pub fn bicycle(cycle: DriveCycle) -> Self {
        Self::from_preset(cycle, bicycle_preset())
    }

    /// Wheel rotation rate at time `t`.
    pub fn rpm_at(&self, t: Seconds) -> Rpm {
        self.cycle.speed_at(t).wheel_rpm(self.wheel_radius)
    }

    /// The drive cycle powering this harvester.
    pub fn cycle(&self) -> &DriveCycle {
        &self.cycle
    }

    /// Output power at a given rotation rate.
    pub fn power_at_rpm(&self, rpm: Rpm) -> Watts {
        if rpm < self.cut_in {
            return Watts::ZERO;
        }
        let omega = rpm.value() * 2.0 * core::f64::consts::PI / 60.0;
        Watts::new(self.k_w_per_rad2 * omega * omega).min(self.p_max)
    }
}

impl Harvester for WheelHarvester {
    fn name(&self) -> &'static str {
        "wheel generator"
    }

    fn power_at(&self, t: Seconds) -> Watts {
        self.power_at_rpm(self.rpm_at(t))
    }

    /// The trapezoid of the trait's default, evaluating `power_at` once
    /// when every sample falls in one constant-speed phase, and reusing
    /// the last such average computed for the same power.
    fn average_power(&self, t0: Seconds, t1: Seconds, n: usize) -> Watts {
        crate::trapezoid(
            self,
            t0,
            t1,
            n,
            |a, b| self.cycle.constant_over(a, b),
            Some(&self.memo),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picocube_units::MetersPerSecond;

    fn cruise(kmh: f64) -> DriveCycle {
        DriveCycle::new(vec![crate::DrivePhase::cruise(
            Seconds::HOUR,
            MetersPerSecond::from_kmh(kmh),
        )])
        .expect("valid cycle")
    }

    #[test]
    fn presets_pass_the_checked_constructor() {
        let cycle = DriveCycle::urban();
        for (preset, built) in [
            (
                automotive_preset(),
                WheelHarvester::automotive(cycle.clone()),
            ),
            (bicycle_preset(), WheelHarvester::bicycle(cycle.clone())),
        ] {
            let (radius, k, p_max, cut_in) = preset;
            let checked = WheelHarvester::new(cycle.clone(), radius, k, p_max, cut_in);
            assert_eq!(checked, Ok(built));
        }
    }

    #[test]
    fn calibration_point_450_uw_at_90_kmh() {
        let h = WheelHarvester::automotive(cruise(90.0));
        let p = h.power_at(Seconds::new(10.0));
        assert!((p.micro() - 450.0).abs() < 5.0, "p = {:.1} µW", p.micro());
    }

    #[test]
    fn power_quadratic_in_speed_below_saturation() {
        let p30 = WheelHarvester::automotive(cruise(30.0)).power_at(Seconds::ZERO);
        let p60 = WheelHarvester::automotive(cruise(60.0)).power_at(Seconds::ZERO);
        assert!((p60.value() / p30.value() - 4.0).abs() < 0.01);
    }

    #[test]
    fn saturates_at_p_max() {
        let h = WheelHarvester::automotive(cruise(300.0));
        assert_eq!(h.power_at(Seconds::ZERO), Watts::from_milli(2.0));
    }

    #[test]
    fn parked_produces_nothing() {
        let h = WheelHarvester::automotive(DriveCycle::parked());
        assert_eq!(
            h.average_power(Seconds::ZERO, Seconds::HOUR, 100),
            Watts::ZERO
        );
    }

    #[test]
    fn cut_in_suppresses_creep() {
        let h = WheelHarvester::automotive(cruise(1.0));
        assert_eq!(h.power_at(Seconds::ZERO), Watts::ZERO);
    }

    #[test]
    fn urban_average_exceeds_node_budget() {
        // Even stop-and-go traffic must out-run the 6 µW node: the paper's
        // energy-neutrality premise.
        let h = WheelHarvester::automotive(DriveCycle::urban());
        let avg = h.average_power(Seconds::ZERO, Seconds::new(240.0), 2000);
        assert!(
            avg > Watts::from_micro(60.0),
            "urban avg {:.1} µW",
            avg.micro()
        );
    }

    #[test]
    fn flat_wheel_rejected() {
        let err = WheelHarvester::new(
            DriveCycle::urban(),
            Meters::ZERO,
            6.48e-8,
            Watts::from_milli(2.0),
            Rpm::new(30.0),
        )
        .unwrap_err();
        assert!(matches!(err, PowerError::InvalidParameter { what } if what.contains("radius")));
    }

    #[test]
    fn bicycle_demo_produces_power_while_spinning() {
        let h = WheelHarvester::bicycle(DriveCycle::bicycle());
        let spinning = h.power_at(Seconds::new(6.0));
        assert!(spinning > Watts::from_micro(50.0));
        let stopped = h.power_at(Seconds::new(60.0));
        assert_eq!(stopped, Watts::ZERO);
    }
}
