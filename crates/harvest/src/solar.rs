//! Photovoltaic cladding: §1's alternative for well-lit deployments —
//! "under well-lit conditions cladding the outside of the node with solar
//! cells would provide sufficient energy."

use crate::Harvester;
use picocube_power::PowerError;
use picocube_units::json::{field, FromJson, Json, JsonError, ToJson};
use picocube_units::{Seconds, SquareMillimeters, Watts};

/// The lighting environment driving a [`SolarCladding`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Irradiance {
    /// Constant irradiance in W/m² (indoor office ≈ 5–10, overcast window
    /// ≈ 100, full sun ≈ 1000).
    Constant(f64),
    /// A diurnal cycle: half-sine daylight of the given peak W/m² over
    /// `daylight_hours`, dark otherwise, repeating every 24 h.
    Diurnal {
        /// Peak irradiance at solar noon, W/m².
        peak: f64,
        /// Hours of daylight per day.
        daylight_hours: f64,
    },
}

impl Irradiance {
    /// Office lighting: 8 W/m² around the clock.
    pub fn office() -> Self {
        Self::Constant(8.0)
    }

    /// Outdoor temperate-latitude cycle: 800 W/m² peak, 12 h of daylight.
    pub fn outdoor() -> Self {
        Self::Diurnal {
            peak: 800.0,
            daylight_hours: 12.0,
        }
    }

    /// Irradiance at time `t` from scenario start (taken as midnight for
    /// diurnal cycles).
    pub fn at(&self, t: Seconds) -> f64 {
        match *self {
            Self::Constant(w) => w.max(0.0),
            Self::Diurnal {
                peak,
                daylight_hours,
            } => {
                let hour = (t.value() / 3600.0).rem_euclid(24.0);
                let dawn = 12.0 - daylight_hours / 2.0;
                let dusk = 12.0 + daylight_hours / 2.0;
                if hour < dawn || hour > dusk {
                    0.0
                } else {
                    let frac = (hour - dawn) / daylight_hours;
                    peak * (core::f64::consts::PI * frac).sin()
                }
            }
        }
    }
}

impl ToJson for Irradiance {
    fn to_json(&self) -> Json {
        // Externally tagged, mirroring the variant names.
        match *self {
            Self::Constant(w) => Json::Obj(vec![("Constant".into(), w.to_json())]),
            Self::Diurnal {
                peak,
                daylight_hours,
            } => Json::Obj(vec![(
                "Diurnal".into(),
                Json::Obj(vec![
                    ("peak".into(), peak.to_json()),
                    ("daylight_hours".into(), daylight_hours.to_json()),
                ]),
            )]),
        }
    }
}

impl FromJson for Irradiance {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        if let Some(w) = value.get("Constant") {
            return Ok(Self::Constant(FromJson::from_json(w)?));
        }
        if let Some(d) = value.get("Diurnal") {
            return Ok(Self::Diurnal {
                peak: FromJson::from_json(field(d, "peak")?)?,
                daylight_hours: FromJson::from_json(field(d, "daylight_hours")?)?,
            });
        }
        Err(JsonError::new("unknown Irradiance variant"))
    }
}

/// The five-face preset's active area, cell efficiency and orientation
/// factor.
fn five_faces_preset() -> (SquareMillimeters, f64, f64) {
    (SquareMillimeters::new(5.0 * 100.0), 0.15, 0.4)
}

/// Solar cells on the exposed faces of the cube.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolarCladding {
    active_area: SquareMillimeters,
    /// Cell conversion efficiency.
    efficiency: f64,
    /// Average cosine/shadowing factor across the cladded faces.
    orientation_factor: f64,
    light: Irradiance,
}

impl SolarCladding {
    /// Creates a cladding model.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidParameter`] if the area is non-positive
    /// or either factor is outside `(0, 1]`.
    pub fn new(
        active_area: SquareMillimeters,
        efficiency: f64,
        orientation_factor: f64,
        light: Irradiance,
    ) -> Result<Self, PowerError> {
        if !crate::positive(active_area.value()) {
            return Err(PowerError::InvalidParameter {
                what: "area must be positive",
            });
        }
        if !(crate::positive(efficiency) && efficiency <= 1.0) {
            return Err(PowerError::InvalidParameter {
                what: "bad efficiency: must be in (0, 1]",
            });
        }
        if !(crate::positive(orientation_factor) && orientation_factor <= 1.0) {
            return Err(PowerError::InvalidParameter {
                what: "bad orientation factor: must be in (0, 1]",
            });
        }
        Ok(Self {
            active_area,
            efficiency,
            orientation_factor,
            light,
        })
    }

    /// Cladding of five faces of the 1 cm cube (the sixth mounts), 15 %
    /// cells, 0.4 average orientation factor.
    pub fn five_faces(light: Irradiance) -> Self {
        // Parameters `new` accepts (`presets_pass_the_checked_constructor`).
        let (active_area, efficiency, orientation_factor) = five_faces_preset();
        Self {
            active_area,
            efficiency,
            orientation_factor,
            light,
        }
    }

    /// Total active cell area.
    pub fn active_area(&self) -> SquareMillimeters {
        self.active_area
    }
}

impl Harvester for SolarCladding {
    fn name(&self) -> &'static str {
        "solar cladding"
    }

    fn power_at(&self, t: Seconds) -> Watts {
        let area_m2 = self.active_area.value() * 1e-6;
        Watts::new(self.light.at(t) * area_m2 * self.efficiency * self.orientation_factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_pass_the_checked_constructor() {
        let (active_area, efficiency, orientation_factor) = five_faces_preset();
        for light in [Irradiance::office(), Irradiance::outdoor()] {
            assert_eq!(
                SolarCladding::new(active_area, efficiency, orientation_factor, light),
                Ok(SolarCladding::five_faces(light))
            );
        }
    }

    #[test]
    fn office_light_covers_the_node_budget() {
        // 8 W/m² × 5 cm² × 15 % × 0.4 = 240 µW — forty times the 6 µW
        // node: the paper's "well-lit conditions would provide sufficient
        // energy".
        let s = SolarCladding::five_faces(Irradiance::office());
        let p = s.power_at(Seconds::ZERO);
        assert!((p.micro() - 240.0).abs() < 0.5, "p = {:.1} µW", p.micro());
        assert!(p > Watts::from_micro(6.0));
    }

    #[test]
    fn diurnal_cycle_dark_at_midnight_peak_at_noon() {
        let light = Irradiance::outdoor();
        assert_eq!(light.at(Seconds::ZERO), 0.0);
        assert!((light.at(Seconds::from_hours(12.0)) - 800.0).abs() < 1e-9);
        assert_eq!(light.at(Seconds::from_hours(23.0)), 0.0);
    }

    #[test]
    fn diurnal_repeats_daily() {
        let light = Irradiance::outdoor();
        let a = light.at(Seconds::from_hours(10.0));
        let b = light.at(Seconds::from_hours(10.0 + 24.0 * 3.0));
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn outdoor_daily_average_is_generous() {
        let s = SolarCladding::five_faces(Irradiance::outdoor());
        let avg = s.average_power(Seconds::ZERO, Seconds::DAY, 2_000);
        // Half-sine over 12 of 24 h: mean = peak·(2/π)·0.5 ≈ 255 W/m²
        // → ≈ 7.6 mW across the cladding.
        assert!(
            avg > Watts::from_milli(5.0) && avg < Watts::from_milli(10.0),
            "avg {avg:?}"
        );
    }

    #[test]
    fn negative_constant_clamps_to_zero() {
        assert_eq!(Irradiance::Constant(-5.0).at(Seconds::ZERO), 0.0);
    }

    #[test]
    fn zero_efficiency_rejected() {
        let err = SolarCladding::new(
            SquareMillimeters::new(100.0),
            0.0,
            0.5,
            Irradiance::office(),
        )
        .unwrap_err();
        assert!(
            matches!(err, PowerError::InvalidParameter { what } if what.contains("efficiency"))
        );
    }
}
