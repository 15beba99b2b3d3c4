//! Energy-harvester models.
//!
//! The paper is deliberately source-agnostic — "the Cube requires an AC
//! source that meets specifications determined by the storage and management
//! blocks" (§4.4) — and defers harvester design to its references \[3–5\]
//! (Roundy, Wright, Rabaey). The node was demonstrated with an
//! electromagnetic shaker on a bicycle wheel (§6), tire-pressure monitoring
//! is the motivating application, and solar cladding is suggested for
//! well-lit deployments (§1).
//!
//! This crate provides those sources as [`Harvester`] implementations that
//! report available AC power over time, plus the drive-cycle generators
//! that excite the motion-driven ones:
//!
//! * [`ElectromagneticShaker`] — pulsed-EMF proof-mass generator.
//! * [`WheelHarvester`] — rim-mounted generator driven by a speed profile.
//! * [`VibrationBeam`] — resonant cantilever (Roundy model) for machine
//!   vibration.
//! * [`SolarCladding`] — photovoltaic skin on the cube faces.
//! * [`IndoorLightPanel`] — scheduled office-light PV (the Pible workload,
//!   see `PAPERS.md`).
//! * [`PiezoHarvester`] — piezo beam on a duty-cycled machine (the
//!   Kassan-style workload, see `PAPERS.md`).
//! * [`DriveCycle`] — synthetic vehicle/bicycle speed profiles.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod drive_cycle;
mod indoor;
mod piezo;
mod shaker;
mod solar;
mod vibration;
mod wheel;

pub use drive_cycle::{DriveCycle, DrivePhase};
pub use indoor::{IndoorLightPanel, IndoorLightTrace};
pub use piezo::{PiezoDrive, PiezoHarvester};
pub use shaker::ElectromagneticShaker;
pub use solar::{Irradiance, SolarCladding};
pub use vibration::VibrationBeam;
pub use wheel::WheelHarvester;

/// The workspace power-model error type. Harvester constructors return
/// `Result<Self, PowerError>` (rejecting unphysical parameters as
/// [`PowerError::InvalidParameter`]) so the harvest and power crates share
/// one error path; the named presets (`bench_450uw`, `five_faces`,
/// `automotive`, …) are infallible.
pub use picocube_power::PowerError;

use core::cell::Cell;
use picocube_units::{Seconds, Watts};

/// NaN-rejecting "strictly positive" check for constructor validation:
/// unlike `x <= 0.0`, a NaN parameter fails this and is rejected.
pub(crate) fn positive(x: f64) -> bool {
    x > 0.0
}

/// NaN-rejecting "zero or positive" check for constructor validation.
pub(crate) fn non_negative(x: f64) -> bool {
    x >= 0.0
}

/// A source of harvested AC power.
///
/// Harvesters report the *electrical power available at their terminals*
/// as a function of time; rectification and storage losses are downstream
/// (the `picocube-power` crate). Implementations are deterministic given
/// their configuration and any RNG they were built with.
pub trait Harvester {
    /// Human-readable source name.
    fn name(&self) -> &'static str;

    /// Available AC power at simulated time `t` (measured from scenario
    /// start).
    fn power_at(&self, t: Seconds) -> Watts;

    /// Average power over `[t0, t1]`, by trapezoidal integration at `n`
    /// samples. Implementations with closed forms may override.
    ///
    /// # Panics
    ///
    /// Panics if `t1 < t0` or `n < 2`.
    fn average_power(&self, t0: Seconds, t1: Seconds, n: usize) -> Watts {
        trapezoid(self, t0, t1, n, |_, _| false, None)
    }
}

/// The last constant-power average a harvester computed: the power's
/// bits, the sample count and the average. The trapezoid of a constant is
/// a pure function of those two keys, so a hit returns the exact bits a
/// fresh sum would.
pub(crate) type ConstantAverage = Cell<Option<(u64, usize, Watts)>>;

/// Trapezoidal average of `source`'s power over `[t0, t1]` at `n` samples.
///
/// `constant` sees the first and last sample times (in seconds) before any
/// sample is taken. When it vouches that `power_at` returns the same bits
/// at every time between them, `power_at` is evaluated once; the weighted
/// sum keeps its order, so the result is bit-identical to evaluating
/// every sample. A `constant` that always says `false` is the per-sample
/// reference. On the constant path, `memo` (when given) returns the last
/// average it holds for the same power bits and sample count instead of
/// summing again, and keeps the new one otherwise.
///
/// # Panics
///
/// Panics if `t1 < t0` or `n < 2`.
pub(crate) fn trapezoid<H: Harvester + ?Sized>(
    source: &H,
    t0: Seconds,
    t1: Seconds,
    n: usize,
    constant: impl FnOnce(f64, f64) -> bool,
    memo: Option<&ConstantAverage>,
) -> Watts {
    assert!(t1 >= t0, "reversed interval");
    assert!(n >= 2, "need at least two samples");
    let span = (t1 - t0).value();
    if span == 0.0 {
        return source.power_at(t0);
    }
    let intervals = (n - 1) as f64;
    let at = |i: usize| Seconds::new(t0.value() + i as f64 / intervals * span);
    let same = constant(at(0).value(), at(n - 1).value()).then(|| source.power_at(at(0)));
    let key = same.map(|p| (p.value().to_bits(), n));
    if let (Some(key), Some(memo)) = (key, memo) {
        if let Some((bits, samples, average)) = memo.get() {
            if (bits, samples) == key {
                return average;
            }
        }
    }
    let mut acc = 0.0;
    for i in 0..n {
        let w = if i == 0 || i == n - 1 { 0.5 } else { 1.0 };
        acc += w * same.unwrap_or_else(|| source.power_at(at(i))).value();
    }
    let average = Watts::new(acc / intervals);
    if let (Some((bits, samples)), Some(memo)) = (key, memo) {
        memo.set(Some((bits, samples, average)));
    }
    average
}
