//! The electromagnetic shaker: the pulsed source the §7.1 synchronous
//! rectifier was designed against ("the synchronous rectifier interfaces
//! the electromagnetic shaker (scavenger), which puts out a pulsed
//! waveform").

use crate::Harvester;
use picocube_power::PowerError;
use picocube_units::{Hertz, Joules, Seconds, Watts};

/// The bench preset's excitation rate, pulse energy and pulse duty.
fn bench_preset() -> (Hertz, Joules, f64) {
    (Hertz::new(50.0), Joules::from_micro(9.0), 0.25)
}

/// A proof-mass/coil generator producing energy pulses at an excitation
/// rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElectromagneticShaker {
    excitation: Hertz,
    energy_per_pulse: Joules,
    /// Fraction of each excitation period during which the pulse delivers.
    pulse_duty: f64,
}

impl ElectromagneticShaker {
    /// Creates a shaker.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidParameter`] if any parameter is
    /// non-positive or the duty exceeds 1.
    pub fn new(
        excitation: Hertz,
        energy_per_pulse: Joules,
        pulse_duty: f64,
    ) -> Result<Self, PowerError> {
        if !crate::positive(excitation.value()) {
            return Err(PowerError::InvalidParameter {
                what: "excitation rate must be positive",
            });
        }
        if !crate::positive(energy_per_pulse.value()) {
            return Err(PowerError::InvalidParameter {
                what: "pulse energy must be positive",
            });
        }
        if !(crate::positive(pulse_duty) && pulse_duty <= 1.0) {
            return Err(PowerError::InvalidParameter {
                what: "duty must be in (0, 1]",
            });
        }
        Ok(Self {
            excitation,
            energy_per_pulse,
            pulse_duty,
        })
    }

    /// The bench characterization source: 50 Hz excitation, 9 µJ pulses in
    /// a quarter-period window — 450 µW average, matching the rectifier's
    /// published operating point.
    pub fn bench_450uw() -> Self {
        // Parameters `new` accepts (`presets_pass_the_checked_constructor`).
        let (excitation, energy_per_pulse, pulse_duty) = bench_preset();
        Self {
            excitation,
            energy_per_pulse,
            pulse_duty,
        }
    }

    /// Excitation rate.
    pub fn excitation(&self) -> Hertz {
        self.excitation
    }

    /// Average output power: `f × E_pulse`.
    pub fn average(&self) -> Watts {
        Watts::new(self.excitation.value() * self.energy_per_pulse.value())
    }

    /// Peak power inside a pulse: average / duty.
    pub fn peak(&self) -> Watts {
        self.average() / self.pulse_duty
    }

    /// The conduction duty the downstream rectifier sees.
    pub fn duty(&self) -> f64 {
        self.pulse_duty
    }
}

impl Harvester for ElectromagneticShaker {
    fn name(&self) -> &'static str {
        "electromagnetic shaker"
    }

    fn power_at(&self, t: Seconds) -> Watts {
        // Pulse occupies the first `duty` fraction of each period.
        let period = 1.0 / self.excitation.value();
        let phase = t.value().rem_euclid(period) / period;
        if phase < self.pulse_duty {
            self.peak()
        } else {
            Watts::ZERO
        }
    }

    fn average_power(&self, t0: Seconds, t1: Seconds, _n: usize) -> Watts {
        assert!(t1 >= t0, "reversed interval");
        // Closed form: the pulse train's average is exact.
        self.average()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_pass_the_checked_constructor() {
        let (excitation, energy_per_pulse, pulse_duty) = bench_preset();
        assert_eq!(
            ElectromagneticShaker::new(excitation, energy_per_pulse, pulse_duty),
            Ok(ElectromagneticShaker::bench_450uw())
        );
    }

    #[test]
    fn bench_source_averages_450_uw() {
        let s = ElectromagneticShaker::bench_450uw();
        assert!((s.average().micro() - 450.0).abs() < 1e-9);
    }

    #[test]
    fn peak_is_average_over_duty() {
        let s = ElectromagneticShaker::bench_450uw();
        assert!((s.peak().micro() - 1800.0).abs() < 1e-9);
    }

    #[test]
    fn waveform_is_pulsed() {
        let s = ElectromagneticShaker::bench_450uw();
        // Pulse window: first 5 ms of each 20 ms period.
        assert_eq!(s.power_at(Seconds::new(0.001)), s.peak());
        assert_eq!(s.power_at(Seconds::new(0.010)), Watts::ZERO);
        assert_eq!(s.power_at(Seconds::new(0.021)), s.peak());
    }

    #[test]
    fn sampled_average_matches_closed_form() {
        let s = ElectromagneticShaker::bench_450uw();
        // Integrate the waveform directly over many whole periods.
        let n = 100_000;
        let span = 1.0; // 50 periods
        let sum: f64 = (0..n)
            .map(|i| s.power_at(Seconds::new(span * i as f64 / n as f64)).value())
            .sum();
        let sampled = sum / n as f64;
        assert!((sampled / s.average().value() - 1.0).abs() < 0.01);
    }

    #[test]
    fn zero_duty_rejected() {
        let err =
            ElectromagneticShaker::new(Hertz::new(50.0), Joules::from_micro(1.0), 0.0).unwrap_err();
        assert!(matches!(err, PowerError::InvalidParameter { what } if what.contains("duty")));
    }
}
