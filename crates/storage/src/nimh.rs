//! The NiMH cell on the storage board.
//!
//! §4.4: "A NiMH battery was chosen for two reasons. First, its discharge
//! characteristics provide a nominal 1.2 V that is stable until just prior
//! to full discharge […] Second, NiMH can be trickle charged for an
//! indefinite period at one-tenth the capacity (C/10) without damage."
//! The PicoCube carries a 15 mAh cell epoxied to the storage board.

use crate::element::{StepOutcome, StorageElement};
use crate::NIMH_ENERGY_DENSITY;
use picocube_units::{Amps, Celsius, Coulombs, Joules, JoulesPerGram, Ohms, Seconds, Volts};

/// Open-circuit voltage vs state-of-charge, piecewise-linear. The long flat
/// plateau is the property the §4.4 battery discussion selects NiMH for
/// (nominal 1.2 V cell voltage; curve shape from NiMH datasheet practice).
const OCV_TABLE: [(f64, f64); 10] = [
    (0.00, 1.00),
    (0.02, 1.10),
    (0.05, 1.16),
    (0.10, 1.19),
    (0.20, 1.21),
    (0.50, 1.23),
    (0.80, 1.24),
    (0.90, 1.26),
    (0.97, 1.33),
    (1.00, 1.40),
];

/// A nickel-metal-hydride cell with plateau discharge curve, internal
/// resistance, coulombic losses, self-discharge, and trickle-charge rules.
#[derive(Debug, Clone, PartialEq)]
pub struct NimhCell {
    /// Full-charge capacity.
    capacity: Coulombs,
    /// Present charge.
    charge: Coulombs,
    nominal: Volts,
    internal_resistance: Ohms,
    /// Fraction of stored charge lost per second (self-discharge).
    self_discharge_rate: f64,
    /// Charge acceptance (fraction of input charge actually stored).
    coulombic_efficiency: f64,
    /// Safe burst discharge limit as a multiple of C.
    burst_c_rating: f64,
    damaged: bool,
    /// Cell temperature: automotive TPMS cells live from −40 to +85 °C.
    temperature: Celsius,
}

impl NimhCell {
    /// Creates a cell of the given charge capacity
    /// ([`Coulombs::from_milliamp_hours`] converts from the datasheet unit).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not strictly positive.
    pub fn new(capacity: Coulombs) -> Self {
        assert!(capacity.value() > 0.0, "capacity must be positive");
        Self {
            capacity,
            charge: capacity * 0.8, // delivered partially charged
            nominal: Volts::new(1.2),
            internal_resistance: Ohms::new(0.8),
            // NiMH loses roughly 20 % per month at room temperature.
            self_discharge_rate: 0.20 / (30.0 * 86_400.0),
            coulombic_efficiency: 0.90,
            burst_c_rating: 2.0,
            damaged: false,
            temperature: Celsius::new(25.0),
        }
    }

    /// Sets the cell temperature. Cold raises the internal resistance
    /// (~2× at −20 °C) and freezes out part of the capacity; heat
    /// accelerates self-discharge (~2× per 10 °C).
    pub fn set_temperature(&mut self, t: Celsius) {
        self.temperature = t;
    }

    /// Present cell temperature.
    pub fn temperature(&self) -> Celsius {
        self.temperature
    }

    /// Internal resistance at the present temperature.
    pub fn internal_resistance(&self) -> Ohms {
        let cold = (25.0 - self.temperature.value()).max(0.0);
        self.internal_resistance * (1.0 + 0.022 * cold)
    }

    /// Fraction of the rated capacity electrochemically unavailable at the
    /// present temperature (0 at/above room temperature, ~22 % at −20 °C).
    pub fn frozen_fraction(&self) -> f64 {
        let cold = (25.0 - self.temperature.value()).max(0.0);
        (0.005 * cold).min(0.5)
    }

    /// The PicoCube's 15 mAh cell.
    pub fn picocube() -> Self {
        Self::new(Coulombs::from_milliamp_hours(15.0))
    }

    /// Rated capacity as a current: `1C` in amps.
    pub fn c_rate(&self) -> Amps {
        Amps::new(self.capacity.value() / 3600.0)
    }

    /// The indefinite-trickle limit, C/10.
    pub fn trickle_limit(&self) -> Amps {
        self.c_rate() / 10.0
    }

    /// Whether the cell has been abused (overcharged above C/10 while full).
    pub fn is_damaged(&self) -> bool {
        self.damaged
    }

    /// Sets the state of charge directly (for scenario setup).
    ///
    /// # Panics
    ///
    /// Panics if `soc` is outside `[0, 1]`.
    pub fn set_state_of_charge(&mut self, soc: f64) {
        assert!(
            (0.0..=1.0).contains(&soc),
            "state of charge must be in [0, 1]"
        );
        self.charge = self.capacity * soc;
    }

    /// Fraction of the discharge range over which the open-circuit voltage
    /// stays within ±5 % of nominal — the "stable until just prior to full
    /// discharge" property, measurable for the §4.4 comparison.
    pub fn plateau_fraction(&self) -> f64 {
        let lo = self.nominal.value() * 0.95;
        let hi = self.nominal.value() * 1.05;
        let n = 1000;
        let inside = (0..=n)
            .filter(|&i| {
                let v = ocv(i as f64 / n as f64);
                (lo..=hi).contains(&v)
            })
            .count();
        inside as f64 / (n + 1) as f64
    }
}

/// Self-discharge multiplier at cell temperature `t` (doubles per 10 °C
/// above 25 °C, halves below).
fn self_discharge_factor(t: Celsius) -> f64 {
    2f64.powf((t.value() - 25.0) / 10.0)
}

fn ocv(soc: f64) -> f64 {
    let soc = soc.clamp(0.0, 1.0);
    let mut prev = OCV_TABLE[0];
    for &(s, v) in &OCV_TABLE[1..] {
        if soc <= s {
            let (s0, v0) = prev;
            let frac = if s > s0 { (soc - s0) / (s - s0) } else { 0.0 };
            return v0 + frac * (v - v0);
        }
        prev = (s, v);
    }
    OCV_TABLE[OCV_TABLE.len() - 1].1
}

impl StorageElement for NimhCell {
    fn name(&self) -> &'static str {
        "NiMH"
    }

    fn open_circuit_voltage(&self) -> Volts {
        Volts::new(ocv(self.state_of_charge()))
    }

    fn terminal_voltage(&self, current: Amps) -> Volts {
        self.open_circuit_voltage() + current * self.internal_resistance()
    }

    fn stored_energy(&self) -> Joules {
        // Plateau chemistry: energy tracks charge at the nominal voltage to
        // within a few percent; the residual is inside the OCV table.
        Joules::new(self.charge.value() * self.nominal.value())
    }

    fn capacity(&self) -> Joules {
        Joules::new(self.capacity.value() * self.nominal.value())
    }

    fn energy_density(&self) -> JoulesPerGram {
        NIMH_ENERGY_DENSITY
    }

    fn max_burst_current(&self) -> Amps {
        // Burst capability scales inversely with the (temperature-raised)
        // internal resistance.
        let derate = self.internal_resistance.value() / self.internal_resistance().value();
        self.c_rate() * self.burst_c_rating * derate
    }

    fn step(&mut self, current: Amps, dt: Seconds) -> StepOutcome {
        assert!(dt.value() >= 0.0, "negative time step");
        let mut dissipated = Joules::ZERO;
        let mut depleted = false;

        // Self-discharge first (independent of the external current).
        let leak = Coulombs::new(
            self.charge.value()
                * self.self_discharge_rate
                * self_discharge_factor(self.temperature)
                * dt.value(),
        );
        self.charge = Coulombs::new((self.charge - leak).value().max(0.0));
        dissipated += Joules::new(leak.value() * self.nominal.value());

        let accepted;
        if current.value() >= 0.0 {
            // Charging. Coulombic losses always; at full charge, everything
            // goes to heat (that is what trickle charging *is*), and the
            // paper's no-damage guarantee only holds at ≤ C/10.
            let q_in = current * dt;
            let headroom = self.capacity - self.charge;
            let storable =
                Coulombs::new((q_in.value() * self.coulombic_efficiency).min(headroom.value()));
            self.charge += storable;
            let wasted = q_in.value() - storable.value();
            dissipated += Joules::new(wasted * self.nominal.value());
            if self.state_of_charge() >= 0.999 && current > self.trickle_limit() {
                self.damaged = true;
            }
            accepted = current;
        } else {
            // Discharging; clamp at the temperature-dependent floor (cold
            // freezes out part of the charge).
            let q_out = Coulombs::new((-current.value()) * dt.value());
            let floor = self.capacity.value() * self.frozen_fraction();
            let available = Coulombs::new((self.charge.value() - floor).max(0.0));
            let removed = Coulombs::new(q_out.value().min(available.value()));
            self.charge -= removed;
            if removed < q_out {
                depleted = true;
            }
            accepted = if dt.value() > 0.0 {
                Amps::new(-removed.value() / dt.value())
            } else {
                Amps::ZERO
            };
        }
        StepOutcome {
            accepted,
            dissipated,
            depleted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plateau_is_most_of_the_discharge_range() {
        let cell = NimhCell::picocube();
        // §4.4: stable "until just prior to full discharge".
        assert!(
            cell.plateau_fraction() > 0.8,
            "plateau {:.2}",
            cell.plateau_fraction()
        );
    }

    #[test]
    fn ocv_monotonic_in_soc() {
        let mut prev = ocv(0.0);
        for i in 1..=100 {
            let v = ocv(i as f64 / 100.0);
            assert!(v >= prev, "ocv not monotonic at {i}");
            prev = v;
        }
    }

    #[test]
    fn capacity_is_64_8_joules() {
        // 15 mAh at 1.2 V.
        let cell = NimhCell::picocube();
        assert!((cell.capacity().value() - 64.8).abs() < 1e-9);
    }

    #[test]
    fn trickle_limit_is_1_5_ma() {
        let cell = NimhCell::picocube();
        assert!((cell.trickle_limit().milli() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn indefinite_trickle_does_no_damage() {
        let mut cell = NimhCell::picocube();
        cell.set_state_of_charge(1.0);
        // A simulated month of continuous C/10 trickle.
        for _ in 0..(30 * 24) {
            cell.step(cell.trickle_limit(), Seconds::HOUR);
        }
        assert!(!cell.is_damaged());
        assert!(cell.state_of_charge() > 0.99);
    }

    #[test]
    fn fast_charge_at_full_damages() {
        let mut cell = NimhCell::picocube();
        cell.set_state_of_charge(1.0);
        cell.step(cell.c_rate(), Seconds::MINUTE); // 1C into a full cell
        assert!(cell.is_damaged());
    }

    #[test]
    fn fast_charge_when_empty_is_fine() {
        let mut cell = NimhCell::picocube();
        cell.set_state_of_charge(0.1);
        cell.step(cell.c_rate(), Seconds::MINUTE);
        assert!(!cell.is_damaged());
    }

    #[test]
    fn discharge_sags_terminal_voltage() {
        let cell = NimhCell::picocube();
        let rest = cell.terminal_voltage(Amps::ZERO);
        let loaded = cell.terminal_voltage(Amps::from_milli(-10.0));
        assert!(loaded < rest);
        assert!((rest - loaded).milli() - 8.0 < 1e-6); // 10 mA × 0.8 Ω
    }

    #[test]
    fn overcharge_energy_goes_to_heat() {
        let mut cell = NimhCell::picocube();
        cell.set_state_of_charge(1.0);
        let before = cell.stored_energy();
        let out = cell.step(cell.trickle_limit(), Seconds::HOUR);
        assert!(cell.stored_energy() <= before + Joules::from_micro(1.0));
        // All the trickle charge turned into heat (≈ 1.5 mA·h ≈ 6.5 J).
        assert!(out.dissipated > Joules::new(5.0));
    }

    #[test]
    fn depletion_is_flagged_and_clamped() {
        let mut cell = NimhCell::picocube();
        cell.set_state_of_charge(0.001);
        let out = cell.step(Amps::from_milli(-15.0), Seconds::HOUR);
        assert!(out.depleted);
        assert_eq!(cell.stored_energy(), Joules::ZERO);
        assert!(out.accepted.abs() < Amps::from_milli(15.0).abs());
    }

    #[test]
    fn self_discharge_over_a_month() {
        let mut cell = NimhCell::picocube();
        cell.set_state_of_charge(1.0);
        for _ in 0..30 {
            cell.step(Amps::ZERO, Seconds::DAY);
        }
        // ~20 %/month (compounding brings it slightly under a flat 20 %).
        let soc = cell.state_of_charge();
        assert!(soc > 0.78 && soc < 0.85, "soc after a month: {soc:.3}");
    }

    #[test]
    fn self_discharge_alone_costs_microwatts() {
        // A full 15 mAh cell leaking 20 %/month loses ≈ 5 µJ/s — the same
        // order as the whole node's 6 µW budget, which is why harvesting
        // must run ahead of both the load *and* the leak.
        let mut cell = NimhCell::picocube();
        cell.set_state_of_charge(1.0);
        let out = cell.step(Amps::ZERO, Seconds::new(1.0));
        assert!(out.dissipated > Joules::from_micro(3.0));
        assert!(out.dissipated < Joules::from_micro(8.0));
    }

    #[test]
    fn coulombic_efficiency_applies_when_charging() {
        let mut cell = NimhCell::picocube();
        cell.set_state_of_charge(0.5);
        let before = cell.stored_energy();
        cell.step(Amps::from_milli(1.5), Seconds::HOUR); // C/10 for 1 h
        let gained = cell.stored_energy() - before;
        // 1.5 mAh × 1.2 V × 0.9 ≈ 5.8 J stored of 6.5 J applied (minus a
        // whisker of self-discharge).
        assert!(
            gained.value() > 5.5 && gained.value() < 6.0,
            "gained {gained:?}"
        );
    }

    #[test]
    fn burst_limit_is_2c() {
        let cell = NimhCell::picocube();
        assert!((cell.max_burst_current().milli() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn cold_cell_is_stiffer_and_smaller() {
        let mut cell = NimhCell::picocube();
        cell.set_state_of_charge(1.0);
        let warm_r = cell.internal_resistance();
        let warm_burst = cell.max_burst_current();
        cell.set_temperature(Celsius::new(-20.0));
        assert!(cell.internal_resistance().value() > 1.9 * warm_r.value());
        assert!(cell.max_burst_current() < warm_burst * 0.6);
        // Discharge at −20 °C leaves the frozen fraction in the cell.
        let out = cell.step(Amps::from_milli(-30.0), Seconds::from_hours(2.0));
        assert!(out.depleted);
        let frozen = cell.frozen_fraction();
        assert!(
            (cell.state_of_charge() - frozen).abs() < 0.01,
            "soc {}",
            cell.state_of_charge()
        );
        // Warming the cell back up releases it.
        cell.set_temperature(Celsius::new(25.0));
        let out = cell.step(Amps::from_milli(-15.0), Seconds::HOUR);
        assert!(!out.depleted || cell.state_of_charge() < 0.01);
    }

    #[test]
    fn heat_accelerates_self_discharge() {
        let mut hot = NimhCell::picocube();
        hot.set_state_of_charge(1.0);
        hot.set_temperature(Celsius::new(45.0));
        let mut warm = NimhCell::picocube();
        warm.set_state_of_charge(1.0);
        for _ in 0..30 {
            hot.step(Amps::ZERO, Seconds::DAY);
            warm.step(Amps::ZERO, Seconds::DAY);
        }
        let hot_loss = 1.0 - hot.state_of_charge();
        let warm_loss = 1.0 - warm.state_of_charge();
        assert!(
            (hot_loss / warm_loss - 4.0).abs() < 1.0,
            "45 °C should leak ~4× faster: {hot_loss:.3} vs {warm_loss:.3}"
        );
    }

    #[test]
    fn room_temperature_behaviour_is_unchanged() {
        let cell = NimhCell::picocube();
        assert_eq!(cell.temperature(), Celsius::new(25.0));
        assert_eq!(cell.frozen_fraction(), 0.0);
        assert!((cell.internal_resistance().value() - 0.8).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        NimhCell::new(Coulombs::ZERO);
    }

    #[test]
    #[should_panic(expected = "state of charge")]
    fn bad_soc_rejected() {
        NimhCell::picocube().set_state_of_charge(1.5);
    }
}
