//! Resonant vibration harvesting (the Roundy/Wright/Rabaey model of the
//! paper's references \[3–5\]).
//!
//! A spring-mass-damper with proof mass `m`, natural frequency `f_n` and
//! quality factor `Q`, driven by ambient acceleration of amplitude `A` at
//! frequency `f`, delivers at most `P = m·Q·A² / (4·ω_n)` at resonance,
//! rolling off with the resonator's Lorentzian response off-resonance —
//! which is why reference \[5\] is titled "improving power output": ambient
//! spectra rarely sit exactly on `f_n`.

use crate::Harvester;
use picocube_power::PowerError;
use picocube_units::{Grams, Hertz, MetersPerSecond2, Seconds, Watts};

/// The Roundy preset's proof mass, natural frequency, Q, drive
/// acceleration and drive frequency.
fn roundy_preset() -> (Grams, Hertz, f64, MetersPerSecond2, Hertz) {
    (
        Grams::new(1.0),
        Hertz::new(120.0),
        30.0,
        MetersPerSecond2::new(2.5),
        Hertz::new(120.0),
    )
}

/// A resonant cantilever vibration harvester.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VibrationBeam {
    proof_mass: Grams,
    natural: Hertz,
    q_factor: f64,
    /// Ambient excitation.
    drive_accel: MetersPerSecond2,
    drive_freq: Hertz,
}

impl VibrationBeam {
    /// Creates a beam harvester under a given ambient excitation.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidParameter`] if mass, frequencies or Q
    /// are not strictly positive, or the drive acceleration is negative.
    pub fn new(
        proof_mass: Grams,
        natural: Hertz,
        q_factor: f64,
        drive_accel: MetersPerSecond2,
        drive_freq: Hertz,
    ) -> Result<Self, PowerError> {
        if !crate::positive(proof_mass.value()) {
            return Err(PowerError::InvalidParameter {
                what: "proof mass must be positive",
            });
        }
        if !(crate::positive(natural.value()) && crate::positive(drive_freq.value())) {
            return Err(PowerError::InvalidParameter {
                what: "frequencies must be positive",
            });
        }
        if !crate::positive(q_factor) {
            return Err(PowerError::InvalidParameter {
                what: "Q must be positive",
            });
        }
        if !crate::non_negative(drive_accel.value()) {
            return Err(PowerError::InvalidParameter {
                what: "drive acceleration must be non-negative",
            });
        }
        Ok(Self {
            proof_mass,
            natural,
            q_factor,
            drive_accel,
            drive_freq,
        })
    }

    /// The Roundy benchmark: 1 g proof mass tuned to the 120 Hz line of
    /// machinery vibration at 2.5 m/s², Q = 30 — the ≈ 200 µW/cm³ class of
    /// reference \[4\].
    pub fn roundy_120hz() -> Self {
        // Parameters `new` accepts (`presets_pass_the_checked_constructor`).
        let (proof_mass, natural, q_factor, drive_accel, drive_freq) = roundy_preset();
        Self {
            proof_mass,
            natural,
            q_factor,
            drive_accel,
            drive_freq,
        }
    }

    /// Natural (resonant) frequency.
    pub fn natural_frequency(&self) -> Hertz {
        self.natural
    }

    /// Peak output power at resonance: `m·Q·A² / (4·ω_n)`.
    pub fn resonant_power(&self) -> Watts {
        let m_kg = self.proof_mass.value() * 1e-3;
        let a = self.drive_accel.value();
        let omega_n = 2.0 * core::f64::consts::PI * self.natural.value();
        Watts::new(m_kg * self.q_factor * a * a / (4.0 * omega_n))
    }

    /// Output at the configured drive frequency: Lorentzian rolloff around
    /// resonance, `P_res / (1 + Q²·(f/f_n − f_n/f)²)`.
    pub fn output_power(&self) -> Watts {
        let r = self.drive_freq.value() / self.natural.value();
        let detune = r - 1.0 / r;
        let denom = 1.0 + self.q_factor * self.q_factor * detune * detune;
        self.resonant_power() / denom
    }

    /// Re-tunes the ambient excitation (amplitude and frequency).
    pub fn set_drive(&mut self, accel: MetersPerSecond2, freq: Hertz) {
        assert!(accel.value() >= 0.0 && freq.value() > 0.0, "invalid drive");
        self.drive_accel = accel;
        self.drive_freq = freq;
    }
}

impl Harvester for VibrationBeam {
    fn name(&self) -> &'static str {
        "vibration beam"
    }

    fn power_at(&self, _t: Seconds) -> Watts {
        // Stationary ambient spectrum: constant envelope power.
        self.output_power()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_pass_the_checked_constructor() {
        let (proof_mass, natural, q_factor, drive_accel, drive_freq) = roundy_preset();
        assert_eq!(
            VibrationBeam::new(proof_mass, natural, q_factor, drive_accel, drive_freq),
            Ok(VibrationBeam::roundy_120hz())
        );
    }

    #[test]
    fn roundy_benchmark_is_hundreds_of_microwatts() {
        let beam = VibrationBeam::roundy_120hz();
        let p = beam.resonant_power();
        // m·Q·A²/(4ω) = 1e-3 · 30 · 6.25 / (4·754) ≈ 62 µW — the right
        // order for a 1 cm³-class scavenger (ref [4] reports up to ~200
        // µW/cm³ with optimized transduction).
        assert!(
            p > Watts::from_micro(30.0) && p < Watts::from_micro(120.0),
            "p {p:?}"
        );
    }

    #[test]
    fn on_resonance_output_equals_peak() {
        let beam = VibrationBeam::roundy_120hz();
        assert!((beam.output_power().value() / beam.resonant_power().value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn detuning_collapses_output() {
        let mut beam = VibrationBeam::roundy_120hz();
        beam.set_drive(MetersPerSecond2::new(2.5), Hertz::new(100.0));
        // 17 % detune at Q = 30 loses over 90 % of the power — the
        // reference [5] motivation.
        assert!(beam.output_power().value() < 0.1 * beam.resonant_power().value());
    }

    #[test]
    fn power_quadratic_in_drive_amplitude() {
        let mut beam = VibrationBeam::roundy_120hz();
        let p1 = beam.output_power();
        beam.set_drive(MetersPerSecond2::new(5.0), Hertz::new(120.0));
        let p2 = beam.output_power();
        assert!((p2.value() / p1.value() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn rolloff_is_symmetric_in_log_frequency() {
        let mut lo = VibrationBeam::roundy_120hz();
        lo.set_drive(MetersPerSecond2::new(2.5), Hertz::new(60.0));
        let mut hi = VibrationBeam::roundy_120hz();
        hi.set_drive(MetersPerSecond2::new(2.5), Hertz::new(240.0));
        assert!((lo.output_power().value() - hi.output_power().value()).abs() < 1e-12);
    }

    #[test]
    fn unphysical_beam_rejected() {
        let err = VibrationBeam::new(
            Grams::new(0.0),
            Hertz::new(120.0),
            30.0,
            MetersPerSecond2::new(2.5),
            Hertz::new(120.0),
        )
        .unwrap_err();
        assert!(
            matches!(err, PowerError::InvalidParameter { what } if what.contains("proof mass"))
        );
    }

    #[test]
    fn still_machine_produces_nothing() {
        let mut beam = VibrationBeam::roundy_120hz();
        beam.set_drive(MetersPerSecond2::ZERO, Hertz::new(120.0));
        assert_eq!(beam.output_power(), Watts::ZERO);
    }
}
