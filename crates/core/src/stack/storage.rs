//! The storage board: NiMH button cell (or Pible-style supercapacitor),
//! harvester, and the supply supervisor (§3, §5).

use super::switch::SwitchBoard;
use crate::node::{BuildError, HarvestDropout, HarvesterKind, NodeConfig, StorageKind};
use picocube_harvest::{
    ElectromagneticShaker, Harvester, IndoorLightPanel, IndoorLightTrace, PiezoHarvester,
    PowerError, SolarCladding, WheelHarvester,
};
use picocube_sim::{SimDuration, SimTime};
use picocube_storage::{CapacitorBank, NimhCell, StorageElement};
use picocube_telemetry::{keys, Metrics};
use picocube_units::{Amps, Celsius, Coulombs, Joules, Seconds, Volts, Watts};

/// Maps a harvester-model parameter rejection onto the node build error.
fn invalid_harvester(e: PowerError) -> BuildError {
    match e {
        PowerError::InvalidParameter { what } => BuildError::InvalidConfig(what),
        _ => BuildError::InvalidConfig("harvester parameters out of range"),
    }
}

/// Chaos wrapper: gates an inner harvester off for `off_s` out of every
/// `period_s` seconds. The phase within the period is a deterministic
/// hash of the node seed — staggering a fleet's dropouts without drawing
/// from any simulation RNG stream (which would shift the seed-stream
/// discipline and break bit-identity for unrelated configs).
struct GatedHarvester {
    inner: Box<dyn Harvester + Send>,
    period_s: f64,
    on_s: f64,
    phase_s: f64,
}

impl GatedHarvester {
    fn new(inner: Box<dyn Harvester + Send>, dropout: HarvestDropout, seed: u64) -> Self {
        // splitmix64 finalizer: seed → uniform phase fraction in [0, 1).
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let frac = (z >> 11) as f64 / (1u64 << 53) as f64;
        Self {
            inner,
            period_s: dropout.period_s,
            on_s: dropout.period_s - dropout.off_s,
            phase_s: frac * dropout.period_s,
        }
    }
}

impl Harvester for GatedHarvester {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn power_at(&self, t: Seconds) -> Watts {
        if (t.value() + self.phase_s).rem_euclid(self.period_s) < self.on_s {
            self.inner.power_at(t)
        } else {
            Watts::ZERO
        }
    }
}

/// Builds the configured harvester, if any, wrapped in the harvest-dropout
/// chaos gate when one is configured.
///
/// # Errors
///
/// Returns [`BuildError::InvalidConfig`] for unphysical harvester or
/// dropout parameters (specs arrive from JSON, not just from presets).
pub(super) fn harvester_for(
    config: &NodeConfig,
) -> Result<Option<Box<dyn Harvester + Send>>, BuildError> {
    if let Some(d) = config.harvest_dropout {
        if !(d.period_s.is_finite() && d.period_s > 0.0) {
            return Err(BuildError::InvalidConfig(
                "harvest dropout period must be positive",
            ));
        }
        if !(d.off_s.is_finite() && (0.0..=d.period_s).contains(&d.off_s)) {
            return Err(BuildError::InvalidConfig(
                "harvest dropout off-span must be in [0, period]",
            ));
        }
    }
    let base: Option<Box<dyn Harvester + Send>> = match &config.harvester {
        HarvesterKind::Automotive => Some(Box::new(WheelHarvester::automotive(
            config.drive_cycle.clone(),
        ))),
        HarvesterKind::Bicycle => Some(Box::new(WheelHarvester::bicycle(
            config.drive_cycle.clone(),
        ))),
        HarvesterKind::Solar(light) => Some(Box::new(SolarCladding::five_faces(*light))),
        HarvesterKind::Shaker => Some(Box::new(ElectromagneticShaker::bench_450uw())),
        HarvesterKind::IndoorLight(trace) => {
            // Re-validate: the trace may arrive from a JSON spec, and the
            // plain-data struct carries no invariants of its own.
            let trace =
                IndoorLightTrace::new(trace.lit_wm2, trace.dark_wm2, trace.on_hour, trace.off_hour)
                    .map_err(invalid_harvester)?;
            Some(Box::new(IndoorLightPanel::pible(trace)))
        }
        HarvesterKind::Piezo(drive) => Some(Box::new(
            PiezoHarvester::machine(*drive).map_err(invalid_harvester)?,
        )),
        HarvesterKind::None => None,
    };
    Ok(match (base, config.harvest_dropout) {
        (Some(inner), Some(dropout)) => {
            Some(Box::new(GatedHarvester::new(inner, dropout, config.seed)))
        }
        (base, _) => base,
    })
}

/// The storage element behind the board: the as-built NiMH cell or the
/// Pible-style supercapacitor bank in its footprint.
pub(super) enum StorageCell {
    Nimh(NimhCell),
    Supercap(CapacitorBank),
}

impl StorageCell {
    /// Builds and charges the configured element, applying the
    /// battery-aging and ambient-temperature chaos knobs.
    pub(super) fn for_config(config: &NodeConfig) -> Result<Self, BuildError> {
        let fraction = config.battery_capacity_fraction;
        if !(fraction.is_finite() && fraction > 0.0 && fraction <= 1.0) {
            return Err(BuildError::InvalidConfig(
                "battery capacity fraction must be in (0, 1]",
            ));
        }
        if let Some(t) = config.ambient_celsius {
            if !(t.is_finite() && (-40.0..=85.0).contains(&t)) {
                return Err(BuildError::InvalidConfig(
                    "ambient temperature must be in [-40, 85] degrees C",
                ));
            }
        }
        let mut cell = match config.storage {
            StorageKind::Nimh => {
                // Aging scales the nameplate 15 mAh; fraction 1.0 is exact
                // (15.0 * 1.0 == 15.0 bitwise), so un-aged configs stay
                // bit-identical to the pre-scenario engine.
                let mut battery = NimhCell::new(Coulombs::from_milliamp_hours(15.0 * fraction));
                battery.set_state_of_charge(config.initial_soc);
                Self::Nimh(battery)
            }
            StorageKind::Supercap => {
                if fraction != 1.0 {
                    return Err(BuildError::InvalidConfig(
                        "battery capacity fraction models NiMH aging; \
                         not supported with supercap storage",
                    ));
                }
                let mut bank = CapacitorBank::picocube_stack();
                // E = C·V²/2, so SOC maps to voltage as sqrt(soc)·V_rated.
                let v = bank.rated_voltage().value() * config.initial_soc.sqrt();
                bank.set_voltage(Volts::new(v));
                Self::Supercap(bank)
            }
        };
        if let Some(t) = config.ambient_celsius {
            cell.set_temperature(Celsius::new(t));
        }
        Ok(cell)
    }

    fn open_circuit_voltage(&self) -> Volts {
        match self {
            Self::Nimh(c) => c.open_circuit_voltage(),
            Self::Supercap(c) => c.open_circuit_voltage(),
        }
    }

    fn terminal_voltage(&self, current: Amps) -> Volts {
        match self {
            Self::Nimh(c) => c.terminal_voltage(current),
            Self::Supercap(c) => c.terminal_voltage(current),
        }
    }

    fn state_of_charge(&self) -> f64 {
        match self {
            Self::Nimh(c) => c.state_of_charge(),
            Self::Supercap(c) => c.state_of_charge(),
        }
    }

    fn step(&mut self, current: Amps, dt: Seconds) {
        match self {
            Self::Nimh(c) => {
                c.step(current, dt);
            }
            Self::Supercap(c) => {
                c.step(current, dt);
            }
        }
    }

    /// Temperature coupling: the NiMH cell's resistance and self-discharge
    /// track it; the capacitor model's leak is temperature-flat.
    fn set_temperature(&mut self, t: Celsius) {
        match self {
            Self::Nimh(c) => c.set_temperature(t),
            Self::Supercap(_) => {}
        }
    }
}

/// What the supply supervisor decided after a battery settle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SupervisorVerdict {
    /// No threshold was crossed; the stack carries on.
    Unchanged,
    /// The cell fell below the hold threshold: the stack must be held in
    /// reset with every rail unloaded.
    BrownedOut,
    /// The cell recovered past the restart threshold: the stack must
    /// cold-boot and reschedule its boards.
    Recovered,
}

/// The storage board: the storage cell, the harvester charging it, and the
/// supply supervisor that holds the stack in reset on deep discharge.
pub(crate) struct StorageBoard {
    cell: StorageCell,
    harvester: Option<Box<dyn Harvester + Send>>,
    harvested: Joules,
    last_update: SimTime,
    last_consumed: Joules,
    browned_out: Option<SimTime>,
    brownout_count: u32,
}

impl core::fmt::Debug for StorageBoard {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("StorageBoard")
            .field("soc", &self.soc())
            .field("harvester", &self.harvester.is_some())
            .field("harvested", &self.harvested)
            .field("browned_out", &self.browned_out)
            .field("brownout_count", &self.brownout_count)
            .finish_non_exhaustive()
    }
}

impl StorageBoard {
    pub(super) fn new(cell: StorageCell, harvester: Option<Box<dyn Harvester + Send>>) -> Self {
        Self {
            cell,
            harvester,
            harvested: Joules::ZERO,
            last_update: SimTime::ZERO,
            last_consumed: Joules::ZERO,
            browned_out: None,
            brownout_count: 0,
        }
    }

    /// Present battery state of charge.
    pub fn soc(&self) -> f64 {
        self.cell.state_of_charge()
    }

    /// Total energy delivered into the cell by the harvester (after the
    /// rectifier).
    pub fn harvested(&self) -> Joules {
        self.harvested
    }

    /// When the node browned out, if it is currently held in reset.
    pub fn browned_out_at(&self) -> Option<SimTime> {
        self.browned_out
    }

    /// Brown-out events over the node's lifetime.
    pub fn brownout_count(&self) -> u32 {
        self.brownout_count
    }

    /// Whether the supervisor is currently holding the stack in reset.
    pub fn held(&self) -> bool {
        self.browned_out.is_some()
    }

    /// The cell's unloaded terminal voltage (the VBAT rail level).
    pub(super) fn terminal_voltage(&self) -> Volts {
        self.cell.terminal_voltage(Amps::ZERO)
    }

    /// The cell rides on the rim at tire temperature: cold stiffens it,
    /// heat leaks it (automotive reality).
    pub(super) fn set_temperature(&mut self, t: Celsius) {
        self.cell.set_temperature(t);
    }

    /// Settles harvest and consumption into the cell over the span since
    /// the last settle. Returns `false` (and does nothing) when no time
    /// has elapsed; the harvest path routes through the switch board's
    /// rectifier.
    pub(super) fn settle(
        &mut self,
        now: SimTime,
        vbat: Volts,
        consumed_total: Joules,
        switch: &SwitchBoard,
    ) -> bool {
        let dt = now
            .checked_duration_since(self.last_update)
            .unwrap_or(SimDuration::ZERO)
            .as_seconds();
        if dt.value() <= 0.0 {
            return false;
        }
        // Harvest: average source power over the interval, through the
        // chain's rectifier.
        let mut charge_current = Amps::ZERO;
        if let Some(h) = &self.harvester {
            let raw = h.average_power(self.last_update.as_seconds(), now.as_seconds(), 16);
            let delivered = switch.harvest(raw, vbat);
            self.harvested += delivered * dt;
            charge_current = delivered / vbat;
        }
        let drawn = consumed_total - self.last_consumed;
        self.last_consumed = consumed_total;
        let discharge_current = drawn / dt / vbat;
        self.cell.step(charge_current - discharge_current, dt);
        self.last_update = now;
        true
    }

    /// Supply supervision: below 1.05 V the pump can no longer hold the
    /// rails; the node is held in reset until the cell recovers to 1.15 V
    /// (hysteresis), at which point the firmware cold-boots.
    pub(super) fn supervise(&mut self, now: SimTime) -> SupervisorVerdict {
        let ocv = self.cell.open_circuit_voltage();
        match self.browned_out {
            None => {
                if ocv < Volts::new(1.05) {
                    self.browned_out = Some(now);
                    self.brownout_count += 1;
                    SupervisorVerdict::BrownedOut
                } else {
                    SupervisorVerdict::Unchanged
                }
            }
            Some(_) => {
                if ocv >= Volts::new(1.15) {
                    self.browned_out = None;
                    SupervisorVerdict::Recovered
                } else {
                    SupervisorVerdict::Unchanged
                }
            }
        }
    }

    /// Publishes the board's lifetime telemetry under `board.storage.*`.
    pub(super) fn export_metrics(&self, metrics: &mut Metrics) {
        metrics.inc(
            keys::BOARD_STORAGE_BROWNOUTS,
            u64::from(self.brownout_count),
        );
        metrics.add(keys::BOARD_STORAGE_SOC, self.soc());
        metrics.add(keys::BOARD_STORAGE_HARVESTED_UJ, self.harvested.micro());
    }
}
