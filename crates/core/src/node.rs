//! Node configuration, build errors and the run report.
//!
//! The simulation engine itself is a [`Stack`](crate::Stack), assembled
//! from the five paper boards by [`Stack::new`](crate::Stack::new).

use crate::bus::TransmittedPacket;
use crate::stack::NodeFault;
use picocube_harvest::{DriveCycle, IndoorLightTrace, Irradiance, PiezoDrive};
use picocube_units::json::{field, FromJson, Json, JsonError, ToJson};
use picocube_units::{Joules, Seconds, Watts};

/// Which power train feeds the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerChainKind {
    /// The as-built COTS chain: TPS60313 pump + gated LT3020 + shunt.
    Cots,
    /// The §7.1 integrated power interface IC.
    IntegratedIc,
}

/// Which harvester feeds the storage board.
#[derive(Debug, Clone, PartialEq)]
pub enum HarvesterKind {
    /// Rim-mounted generator driven by the node's drive cycle.
    Automotive,
    /// The §6 bicycle-wheel scavenger.
    Bicycle,
    /// Solar cladding under the given lighting.
    Solar(Irradiance),
    /// The bench electromagnetic shaker (450 µW average).
    Shaker,
    /// Pible-style indoor PV panel under a scheduled office-light trace
    /// (see `PAPERS.md`); pairs naturally with [`StorageKind::Supercap`].
    IndoorLight(IndoorLightTrace),
    /// Kassan-style piezoelectric beam on a duty-cycled machine
    /// (see `PAPERS.md`).
    Piezo(PiezoDrive),
    /// No harvester: run down the battery.
    None,
}

/// Which storage element sits on the storage board.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageKind {
    /// The as-built 15 mAh NiMH button cell (§3).
    Nimh,
    /// A supercapacitor bank in the cell's footprint — the Pible-style
    /// storage for indoor-light harvesting (see `PAPERS.md`).
    Supercap,
}

/// Deterministic square-wave harvest dropout — the chaos-plan knob that
/// gates the harvester off for `off_s` out of every `period_s` seconds
/// (a parked car, lights-out, a stopped machine). The phase within the
/// period is derived from the node seed, so a fleet's dropouts are
/// staggered but reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HarvestDropout {
    /// Square-wave period (seconds).
    pub period_s: f64,
    /// Portion of each period with the harvester gated off (seconds).
    pub off_s: f64,
}

/// Node configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeConfig {
    /// Power train selection.
    pub power_chain: PowerChainKind,
    /// Harvester selection.
    pub harvester: HarvesterKind,
    /// Vehicle/wheel speed profile (drives the tire environment and the
    /// motion-coupled harvesters).
    pub drive_cycle: DriveCycle,
    /// Node id byte placed in every packet.
    pub node_id: u8,
    /// Master random seed (ADC noise, channel realizations).
    pub seed: u64,
    /// Initial battery state of charge.
    pub initial_soc: f64,
    /// Slow-leak rate for the tire model (kPa/hour), TPMS only.
    pub leak_kpa_per_hour: f64,
    /// Fit the §7.3 always-on wakeup receiver (an extension study: adds a
    /// standing ~50 µW listener so the node could take downlink commands).
    pub wakeup_receiver: bool,
    /// Offset of the first sensor wake (models the power-up phase of the
    /// free-running SP12 timer; fleets use this to stagger nodes).
    pub first_wake_offset_ms: u64,
    /// Deviation of the sensor timer from its nominal period, in parts per
    /// million (RC-oscillator tolerance; what slowly de-collides
    /// clock-locked nodes in a dense deployment).
    pub wake_interval_ppm: f64,
    /// Low-pressure alarm threshold (kPa). When set, the node runs the
    /// alarm firmware: packets for samples below this pressure transmit
    /// twice.
    pub alarm_threshold_kpa: Option<f64>,
    /// Ablation: leave the radio-rail LT3020 un-gated (its 120 µA ground
    /// current burns continuously). The §4.3 design argument, made
    /// measurable at node level.
    pub ungated_rf_ldo: bool,
    /// Override the SP12's 6 s wake interval (seconds), for duty-cycle
    /// design-space sweeps. `None` keeps the stock 6 s part.
    pub sample_period_s: Option<f64>,
    /// Storage element selection (NiMH cell or supercapacitor bank).
    pub storage: StorageKind,
    /// Battery-aging chaos knob: remaining capacity as a fraction of the
    /// nameplate 15 mAh, in `(0, 1]`. `1.0` is a fresh cell and is exact
    /// (bit-identical to the un-aged path).
    pub battery_capacity_fraction: f64,
    /// Initial storage temperature (°C), `None` for the stock 25 °C.
    /// Drives the NiMH temperature-dependent self-discharge
    /// (`2^((T-25)/10)`) — the leakage chaos knob. The TPMS application
    /// overwrites it with tire temperature on every wake; motion/beacon
    /// nodes keep it for life.
    pub ambient_celsius: Option<f64>,
    /// Harvest-dropout chaos knob: square-wave gating of the harvester.
    pub harvest_dropout: Option<HarvestDropout>,
}

impl Default for NodeConfig {
    fn default() -> Self {
        Self {
            power_chain: PowerChainKind::Cots,
            harvester: HarvesterKind::Automotive,
            drive_cycle: DriveCycle::highway(),
            node_id: 0x42,
            seed: 42,
            initial_soc: 0.8,
            leak_kpa_per_hour: 0.0,
            wakeup_receiver: false,
            first_wake_offset_ms: 0,
            wake_interval_ppm: 0.0,
            alarm_threshold_kpa: None,
            ungated_rf_ldo: false,
            sample_period_s: None,
            storage: StorageKind::Nimh,
            battery_capacity_fraction: 1.0,
            ambient_celsius: None,
            harvest_dropout: None,
        }
    }
}

/// Node construction failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// The embedded firmware failed to assemble (a bug).
    Firmware(picocube_mcu::asm::AsmError),
    /// A configuration value is out of range.
    InvalidConfig(&'static str),
    /// The power chain could not solve the initial operating point.
    PowerChain(NodeFault),
}

impl core::fmt::Display for BuildError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Firmware(e) => write!(f, "firmware assembly failed: {e}"),
            Self::InvalidConfig(what) => write!(f, "invalid configuration: {what}"),
            Self::PowerChain(fault) => write!(f, "power chain failed at build: {fault}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<picocube_mcu::asm::AsmError> for BuildError {
    fn from(e: picocube_mcu::asm::AsmError) -> Self {
        Self::Firmware(e)
    }
}

impl From<picocube_sim::LedgerError> for BuildError {
    fn from(e: picocube_sim::LedgerError) -> Self {
        Self::PowerChain(e.into())
    }
}

/// Summary of a simulation run.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// Simulated time covered.
    pub elapsed: Seconds,
    /// Battery-side average power (the paper's 6 µW headline for TPMS).
    pub average_power: Watts,
    /// Peak instantaneous battery-side power (the Fig. 6 burst top).
    pub peak_power: Watts,
    /// Total energy drawn from the cell.
    pub consumed: Joules,
    /// Total energy delivered into the cell by the harvester (after the
    /// rectifier).
    pub harvested: Joules,
    /// Rail/load energy breakdown.
    pub power: picocube_sim::PowerReport,
    /// Packets put on the air.
    pub packets: Vec<TransmittedPacket>,
    /// Wake (sample cycle) count.
    pub wakes: u64,
    /// Battery state of charge at the end.
    pub final_soc: f64,
    /// Brown-out events over the node's lifetime.
    pub brownout_count: u32,
    /// Whether the run ended with the supervisor holding the node in
    /// reset (browned out, awaiting recharge).
    pub browned_out: bool,
    /// The latched fault that ended the run early, if any.
    pub fault: Option<NodeFault>,
}

impl ToJson for PowerChainKind {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                Self::Cots => "Cots",
                Self::IntegratedIc => "IntegratedIc",
            }
            .into(),
        )
    }
}

impl FromJson for PowerChainKind {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value.as_str() {
            Some("Cots") => Ok(Self::Cots),
            Some("IntegratedIc") => Ok(Self::IntegratedIc),
            _ => Err(JsonError::new("unknown PowerChainKind")),
        }
    }
}

impl ToJson for StorageKind {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                Self::Nimh => "Nimh",
                Self::Supercap => "Supercap",
            }
            .into(),
        )
    }
}

impl FromJson for StorageKind {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value.as_str() {
            Some("Nimh") => Ok(Self::Nimh),
            Some("Supercap") => Ok(Self::Supercap),
            _ => Err(JsonError::new("unknown StorageKind")),
        }
    }
}

impl ToJson for HarvestDropout {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("period_s".into(), self.period_s.to_json()),
            ("off_s".into(), self.off_s.to_json()),
        ])
    }
}

impl FromJson for HarvestDropout {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            period_s: FromJson::from_json(field(value, "period_s")?)?,
            off_s: FromJson::from_json(field(value, "off_s")?)?,
        })
    }
}

impl ToJson for HarvesterKind {
    fn to_json(&self) -> Json {
        match self {
            Self::Automotive => Json::Str("Automotive".into()),
            Self::Bicycle => Json::Str("Bicycle".into()),
            Self::Shaker => Json::Str("Shaker".into()),
            Self::None => Json::Str("None".into()),
            Self::Solar(irr) => Json::Obj(vec![("Solar".into(), irr.to_json())]),
            Self::IndoorLight(trace) => Json::Obj(vec![("IndoorLight".into(), trace.to_json())]),
            Self::Piezo(drive) => Json::Obj(vec![("Piezo".into(), drive.to_json())]),
        }
    }
}

impl FromJson for HarvesterKind {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        if let Some(irr) = value.get("Solar") {
            return Ok(Self::Solar(FromJson::from_json(irr)?));
        }
        if let Some(trace) = value.get("IndoorLight") {
            return Ok(Self::IndoorLight(FromJson::from_json(trace)?));
        }
        if let Some(drive) = value.get("Piezo") {
            return Ok(Self::Piezo(FromJson::from_json(drive)?));
        }
        match value.as_str() {
            Some("Automotive") => Ok(Self::Automotive),
            Some("Bicycle") => Ok(Self::Bicycle),
            Some("Shaker") => Ok(Self::Shaker),
            Some("None") => Ok(Self::None),
            _ => Err(JsonError::new("unknown HarvesterKind")),
        }
    }
}

impl ToJson for NodeConfig {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("power_chain".into(), self.power_chain.to_json()),
            ("harvester".into(), self.harvester.to_json()),
            ("drive_cycle".into(), self.drive_cycle.to_json()),
            ("node_id".into(), self.node_id.to_json()),
            ("seed".into(), self.seed.to_json()),
            ("initial_soc".into(), self.initial_soc.to_json()),
            ("leak_kpa_per_hour".into(), self.leak_kpa_per_hour.to_json()),
            ("wakeup_receiver".into(), self.wakeup_receiver.to_json()),
            (
                "first_wake_offset_ms".into(),
                self.first_wake_offset_ms.to_json(),
            ),
            ("wake_interval_ppm".into(), self.wake_interval_ppm.to_json()),
            (
                "alarm_threshold_kpa".into(),
                self.alarm_threshold_kpa.to_json(),
            ),
            ("ungated_rf_ldo".into(), self.ungated_rf_ldo.to_json()),
            ("sample_period_s".into(), self.sample_period_s.to_json()),
            ("storage".into(), self.storage.to_json()),
            (
                "battery_capacity_fraction".into(),
                self.battery_capacity_fraction.to_json(),
            ),
            ("ambient_celsius".into(), self.ambient_celsius.to_json()),
            ("harvest_dropout".into(), self.harvest_dropout.to_json()),
        ])
    }
}

impl FromJson for NodeConfig {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            power_chain: FromJson::from_json(field(value, "power_chain")?)?,
            harvester: FromJson::from_json(field(value, "harvester")?)?,
            drive_cycle: FromJson::from_json(field(value, "drive_cycle")?)?,
            node_id: FromJson::from_json(field(value, "node_id")?)?,
            seed: FromJson::from_json(field(value, "seed")?)?,
            initial_soc: FromJson::from_json(field(value, "initial_soc")?)?,
            leak_kpa_per_hour: FromJson::from_json(field(value, "leak_kpa_per_hour")?)?,
            wakeup_receiver: FromJson::from_json(field(value, "wakeup_receiver")?)?,
            first_wake_offset_ms: FromJson::from_json(field(value, "first_wake_offset_ms")?)?,
            wake_interval_ppm: FromJson::from_json(field(value, "wake_interval_ppm")?)?,
            alarm_threshold_kpa: FromJson::from_json(field(value, "alarm_threshold_kpa")?)?,
            ungated_rf_ldo: FromJson::from_json(field(value, "ungated_rf_ldo")?)?,
            sample_period_s: FromJson::from_json(field(value, "sample_period_s")?)?,
            // Configs written before the scenario engine lack the storage
            // and chaos knobs; default them to the exact stock behavior.
            storage: match value.get("storage") {
                Some(v) => FromJson::from_json(v)?,
                None => StorageKind::Nimh,
            },
            battery_capacity_fraction: match value.get("battery_capacity_fraction") {
                Some(v) => FromJson::from_json(v)?,
                None => 1.0,
            },
            ambient_celsius: match value.get("ambient_celsius") {
                Some(v) => FromJson::from_json(v)?,
                None => None,
            },
            harvest_dropout: match value.get("harvest_dropout") {
                Some(v) => FromJson::from_json(v)?,
                None => None,
            },
        })
    }
}

impl ToJson for NodeFault {
    fn to_json(&self) -> Json {
        let mut obj = vec![("kind".into(), Json::Str(self.tag().into()))];
        match self {
            NodeFault::IllegalInstruction { word, at } => {
                obj.push(("word".into(), u64::from(*word).to_json()));
                obj.push(("at".into(), u64::from(*at).to_json()));
            }
            NodeFault::Stuck { steps } => obj.push(("steps".into(), steps.to_json())),
            NodeFault::PowerChain { rail } => {
                obj.push(("rail".into(), Json::Str((*rail).into())));
            }
            NodeFault::Accounting => {}
        }
        Json::Obj(obj)
    }
}

impl FromJson for NodeFault {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value.get("kind").and_then(Json::as_str) {
            Some("illegal_instruction") => Ok(Self::IllegalInstruction {
                word: u64::from_json(field(value, "word")?)? as u16,
                at: u64::from_json(field(value, "at")?)? as u16,
            }),
            Some("stuck") => Ok(Self::Stuck {
                steps: u64::from_json(field(value, "steps")?)?,
            }),
            Some("power_chain") => {
                // The rail names form a closed set (one per converter).
                let rail = match field(value, "rail")?.as_str() {
                    Some("pump operating point") => "pump operating point",
                    Some("shunt operating point") => "shunt operating point",
                    Some("rf rail operating point") => "rf rail operating point",
                    Some("1:2 converter operating point") => "1:2 converter operating point",
                    Some("3:2 converter operating point") => "3:2 converter operating point",
                    _ => return Err(JsonError::new("unknown power-chain rail")),
                };
                Ok(Self::PowerChain { rail })
            }
            Some("accounting") => Ok(Self::Accounting),
            _ => Err(JsonError::new("unknown NodeFault kind")),
        }
    }
}

impl ToJson for NodeReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("elapsed".into(), self.elapsed.to_json()),
            ("average_power".into(), self.average_power.to_json()),
            ("peak_power".into(), self.peak_power.to_json()),
            ("consumed".into(), self.consumed.to_json()),
            ("harvested".into(), self.harvested.to_json()),
            ("power".into(), self.power.to_json()),
            ("packets".into(), self.packets.to_json()),
            ("wakes".into(), self.wakes.to_json()),
            ("final_soc".into(), self.final_soc.to_json()),
            ("brownout_count".into(), self.brownout_count.to_json()),
            ("browned_out".into(), self.browned_out.to_json()),
            ("fault".into(), self.fault.to_json()),
        ])
    }
}

impl FromJson for NodeReport {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            elapsed: FromJson::from_json(field(value, "elapsed")?)?,
            average_power: FromJson::from_json(field(value, "average_power")?)?,
            peak_power: FromJson::from_json(field(value, "peak_power")?)?,
            consumed: FromJson::from_json(field(value, "consumed")?)?,
            harvested: FromJson::from_json(field(value, "harvested")?)?,
            power: FromJson::from_json(field(value, "power")?)?,
            packets: FromJson::from_json(field(value, "packets")?)?,
            wakes: FromJson::from_json(field(value, "wakes")?)?,
            final_soc: FromJson::from_json(field(value, "final_soc")?)?,
            // Reports written before the board-stack engine lack the
            // brownout/fault fields; default them.
            brownout_count: match value.get("brownout_count") {
                Some(v) => FromJson::from_json(v)?,
                None => 0,
            },
            browned_out: match value.get("browned_out") {
                Some(v) => FromJson::from_json(v)?,
                None => false,
            },
            fault: match value.get("fault") {
                Some(v) => FromJson::from_json(v)?,
                None => None,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::{AppBoard, RunOutcome, Stack};
    use picocube_sensors::Sp12;
    use picocube_sim::{SimDuration, SimTime};

    fn tpms(config: NodeConfig) -> Result<Stack, BuildError> {
        Stack::new(config, AppBoard::Tpms)
    }

    fn run_tpms_for(secs: u64, config: NodeConfig) -> (Stack, NodeReport) {
        let mut node = tpms(config).expect("node builds");
        node.run_for(SimDuration::from_secs(secs));
        let report = node.report();
        (node, report)
    }

    #[test]
    fn average_power_is_about_6_microwatts() {
        // §6: "Average Cube power consumption using the TPMS sensor is
        // 6 µW, dominated by quiescent losses from the power management
        // circuitry."
        let (_, report) = run_tpms_for(60, NodeConfig::default());
        let avg = report.average_power;
        assert!(
            avg > Watts::from_micro(3.0) && avg < Watts::from_micro(10.0),
            "average power {:.2} µW (paper: 6 µW)",
            avg.micro()
        );
    }

    #[test]
    fn wakes_every_six_seconds_and_transmits() {
        let (_, report) = run_tpms_for(61, NodeConfig::default());
        assert_eq!(report.wakes, 10);
        assert_eq!(report.packets.len(), 10);
    }

    #[test]
    fn telemetry_counts_wakes_packets_and_residency() {
        let (mut node, report) = run_tpms_for(61, NodeConfig::default());
        let telemetry = node.drain_telemetry();
        assert_eq!(telemetry.metrics.counter("node.wakes"), report.wakes);
        assert_eq!(
            telemetry.metrics.counter("radio.tx.packets"),
            report.packets.len() as u64
        );
        // Per-rail energy export totals the run's consumption (in µJ).
        let total_uj = telemetry.metrics.gauge("power.total.uj");
        assert!((total_uj - report.consumed.micro()).abs() < 1e-6);
        // A TPMS node sleeps nearly the whole minute.
        let lpm = telemetry.metrics.counter("mcu.lpm_ns");
        let active = telemetry.metrics.counter("mcu.active_ns");
        assert!(lpm > 60 * (active + 1), "lpm {lpm} active {active}");
        // Events are off by default: the buffer stays empty.
        assert!(telemetry.events().is_empty());
    }

    #[test]
    fn event_recording_captures_wake_and_tx_events() {
        let mut node = tpms(NodeConfig::default()).expect("node builds");
        node.set_event_recording(true);
        node.run_for(SimDuration::from_secs(20));
        let telemetry = node.drain_telemetry();
        use picocube_telemetry::EventKind;
        let wakes = telemetry
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Wake { .. }))
            .count();
        let txs: Vec<_> = telemetry
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Tx { .. }))
            .collect();
        assert_eq!(wakes as u64, telemetry.metrics.counter("node.wakes"));
        assert_eq!(
            txs.len() as u64,
            telemetry.metrics.counter("radio.tx.packets")
        );
        for tx in txs {
            if let EventKind::Tx {
                bytes,
                airtime_us,
                energy_uj,
            } = tx.kind
            {
                assert!(bytes > 0);
                assert!(airtime_us > 0.0);
                assert!(energy_uj > 0.0);
            }
        }
        // Timestamps are monotone (the node records as it simulates).
        let times: Vec<u64> = telemetry.events().iter().map(|e| e.t_ns).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn packets_decode_with_tire_data() {
        let (_, report) = run_tpms_for(20, NodeConfig::default());
        let packet = &report.packets[0];
        let frame =
            picocube_radio::packet::decode(&packet.bytes, picocube_radio::packet::Checksum::Xor)
                .expect("packet decodes");
        assert_eq!(frame.node_id, 0x42);
        assert_eq!(frame.payload.len(), 8);
        // Channel 0 (pressure) decodes near the 220 kPa fill.
        let code = u16::from(frame.payload[0]) << 8 | u16::from(frame.payload[1]);
        let sp12 = Sp12::new();
        let kpa = sp12.decode(picocube_sensors::Sp12Channel::Pressure, code);
        assert!((kpa - 220.0).abs() < 15.0, "decoded {kpa:.1} kPa");
    }

    #[test]
    fn active_burst_shape_matches_fig6() {
        let (node, report) = run_tpms_for(13, NodeConfig::default());
        // Peak (burst) power is orders of magnitude above the sleep floor.
        let sleep_floor = node.power_trace().power_at(SimTime::from_secs(3)).unwrap();
        assert!(
            report.peak_power > Watts::from_milli(1.0),
            "peak {:?}",
            report.peak_power
        );
        assert!(
            sleep_floor < Watts::from_micro(5.0),
            "floor {sleep_floor:?}"
        );
        assert!(report.peak_power.value() / sleep_floor.value() > 100.0);
    }

    #[test]
    fn harvesting_keeps_the_battery_charged_on_the_highway() {
        let (_, report) = run_tpms_for(120, NodeConfig::default());
        assert!(report.harvested > report.consumed);
        assert!(report.final_soc >= 0.8 - 1e-6);
    }

    #[test]
    fn no_harvester_drains_the_battery() {
        let config = NodeConfig {
            harvester: HarvesterKind::None,
            ..NodeConfig::default()
        };
        let (node, report) = run_tpms_for(120, config);
        assert_eq!(report.harvested, Joules::ZERO);
        assert!(node.battery_soc() < 0.8);
    }

    #[test]
    fn integrated_ic_node_runs() {
        let config = NodeConfig {
            power_chain: PowerChainKind::IntegratedIc,
            ..NodeConfig::default()
        };
        let (_, report) = run_tpms_for(31, config);
        assert_eq!(report.wakes, 5);
        assert_eq!(report.packets.len(), 5);
        // The IC's 6.5 µA leakage makes its floor a touch higher.
        assert!(report.average_power > Watts::from_micro(6.0));
        assert!(report.average_power < Watts::from_micro(20.0));
    }

    #[test]
    fn motion_node_sleeps_until_handled() {
        let config = NodeConfig {
            harvester: HarvesterKind::None,
            seed: 9,
            ..NodeConfig::default()
        };
        let mut node = Stack::new(
            config,
            AppBoard::Motion {
                rest_s: 20.0,
                handled_s: 8.0,
                vigor_g: 1.2,
            },
        )
        .expect("node builds");
        // First 20 s are at-rest: no packets.
        node.run_for(SimDuration::from_secs(19));
        assert!(node.packets().is_empty());
        // Handling window 20–28 s: interrupts arrive.
        node.run_for(SimDuration::from_secs(11));
        let report = node.report();
        assert!(!report.packets.is_empty());
        let frame = picocube_radio::packet::decode(
            &report.packets[0].bytes,
            picocube_radio::packet::Checksum::Xor,
        )
        .expect("demo packet decodes");
        assert_eq!(frame.payload.len(), 6);
    }

    #[test]
    fn report_breakdown_names_the_rails() {
        let (_, report) = run_tpms_for(12, NodeConfig::default());
        let names: Vec<&str> = report.power.rails[0]
            .loads
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert!(names.contains(&"power chain overhead"));
        assert!(names.contains(&"radio RF rail"));
        // The standing terms (chain quiescent + always-on MCU/sensor rail)
        // dominate the budget, as §6 reports.
        let overhead = report.power.rails[0].loads[0].1;
        let vdd = report.power.rails[0].loads[1].1;
        assert!(overhead.value() > 0.05 * report.consumed.value());
        assert!((overhead + vdd).value() > 0.5 * report.consumed.value());
    }

    #[test]
    fn deep_discharge_browns_out_then_recovers_on_harvest() {
        // Start the cell below the 1.05 V supervisor threshold with a bench
        // shaker attached: the node browns out at the first supervisor
        // check, recharges while held in reset (432 µW delivered), and
        // reboots once the cell crosses 1.15 V (~0.045 SoC, ≲2 h).
        let config = NodeConfig {
            harvester: HarvesterKind::Shaker,
            initial_soc: 0.009,
            ..NodeConfig::default()
        };
        let mut node = tpms(config).expect("node builds");
        node.run_for(SimDuration::from_secs(3 * 3_600));
        assert!(
            node.brownout_count() >= 1,
            "expected at least one brown-out"
        );
        // The 450 µW shaker recharges 1.05→1.15 V territory within the
        // hour, so the node must be running again and sampling.
        assert!(
            node.browned_out_at().is_none(),
            "node should have recovered"
        );
        let report = node.report();
        assert!(report.wakes > 0);
        assert!(!report.packets.is_empty());
        // The report now carries the supervisor state directly.
        assert!(report.brownout_count >= 1);
        assert!(!report.browned_out);
        assert_eq!(report.fault, None);
    }

    #[test]
    fn deep_discharge_without_harvester_stays_down() {
        let config = NodeConfig {
            harvester: HarvesterKind::None,
            initial_soc: 0.009, // below the 1.05 V threshold from the start
            ..NodeConfig::default()
        };
        let mut node = tpms(config).expect("node builds");
        node.run_for(SimDuration::from_secs(1_200));
        assert!(node.browned_out_at().is_some());
        let report = node.report();
        assert!(report.browned_out);
        // Held in reset: at most the first cycle escaped before the
        // supervisor tripped, and the floor is zero afterwards.
        assert!(
            report.packets.len() <= 1,
            "packets {}",
            report.packets.len()
        );
        let late_power = node
            .power_trace()
            .power_at(picocube_sim::SimTime::from_secs(1_000))
            .unwrap();
        assert_eq!(late_power, Watts::ZERO);
    }

    #[test]
    fn low_pressure_alarm_doubles_transmissions() {
        // A fast leak with an alarm threshold: once the tire deflates past
        // 180 kPa, each wake transmits the packet twice.
        let config = NodeConfig {
            leak_kpa_per_hour: 300.0, // punctured: hits 180 kPa in ~8 min
            alarm_threshold_kpa: Some(180.0),
            drive_cycle: picocube_harvest::DriveCycle::parked(),
            ..NodeConfig::default()
        };
        let mut node = tpms(config).expect("node builds");
        node.run_for(SimDuration::from_secs(1_201)); // 20 minutes
        let report = node.report();
        assert_eq!(report.wakes, 200);
        assert!(
            report.packets.len() > 220 && report.packets.len() < 400,
            "expected healthy-then-alarming mix, got {} packets",
            report.packets.len()
        );
        // Early packets single, late packets doubled: compare inter-packet
        // spacing at the start and end.
        let healthy_first = report.packets[1]
            .time
            .duration_since(report.packets[0].time);
        let last = report.packets.len() - 1;
        let alarm_gap = report.packets[last]
            .time
            .duration_since(report.packets[last - 1].time);
        assert!(
            alarm_gap < healthy_first,
            "alarm repetition should be back-to-back"
        );
    }

    #[test]
    fn ungated_ldo_ablation_craters_the_budget() {
        // §4.3's motivation measured at node level: leaving the LT3020
        // enabled between transmissions multiplies the average by ~25×.
        let (_, gated) = run_tpms_for(60, NodeConfig::default());
        let (_, ungated) = run_tpms_for(
            60,
            NodeConfig {
                ungated_rf_ldo: true,
                ..NodeConfig::default()
            },
        );
        assert!(
            ungated.average_power.value() / gated.average_power.value() > 15.0,
            "ungated {:.1} µW vs gated {:.1} µW",
            ungated.average_power.micro(),
            gated.average_power.micro()
        );
        assert!(ungated.average_power > Watts::from_micro(100.0));
    }

    #[test]
    fn alarm_threshold_validated() {
        let bad = NodeConfig {
            alarm_threshold_kpa: Some(900.0),
            ..NodeConfig::default()
        };
        assert!(matches!(tpms(bad), Err(BuildError::InvalidConfig(_))));
    }

    #[test]
    fn healthy_tire_never_alarms() {
        let config = NodeConfig {
            alarm_threshold_kpa: Some(180.0),
            ..NodeConfig::default()
        };
        let mut node = tpms(config).expect("node builds");
        node.run_for(SimDuration::from_secs(61));
        let report = node.report();
        assert_eq!(report.wakes, 10);
        assert_eq!(report.packets.len(), 10, "no repeats above threshold");
    }

    #[test]
    fn beacon_node_transmits_on_the_timer() {
        // No sensor interrupt at all: Timer A paces sampling. 31 s at a
        // 5 s period → 6 beacons regardless of motion.
        let config = NodeConfig {
            harvester: HarvesterKind::None,
            seed: 5,
            ..NodeConfig::default()
        };
        let mut node = Stack::new(
            config,
            AppBoard::Beacon {
                rest_s: 20.0,
                handled_s: 8.0,
                vigor_g: 1.2,
                period_s: 5,
            },
        )
        .expect("node builds");
        node.run_for(SimDuration::from_secs(31));
        let report = node.report();
        assert_eq!(report.packets.len(), 6, "timer beacons");
        // Each decodes as a 6-byte motion payload.
        let frame = picocube_radio::packet::decode(
            &report.packets[0].bytes,
            picocube_radio::packet::Checksum::Xor,
        )
        .expect("beacon decodes");
        assert_eq!(frame.payload.len(), 6);
        // The SCA3000's standing ~10 µA motion-detect bias (reflected 2×
        // through the pump) dominates: ~27 µW — the accelerometer board
        // was never the 6 µW configuration; that headline belongs to the
        // TPMS board.
        assert!(report.average_power > Watts::from_micro(20.0));
        assert!(report.average_power < Watts::from_micro(40.0));
    }

    #[test]
    fn invalid_apps_fail_typed_at_every_entry_point() {
        use crate::fleet::{CheckpointError, FleetConfig, FleetConfigError, StackCheckpoint};
        use crate::mesh::{MeshConfig, MeshConfigError};
        use crate::scenario::{Scenario, ScenarioError};

        let motion = |rest_s, handled_s, vigor_g| AppBoard::Motion {
            rest_s,
            handled_s,
            vigor_g,
        };
        // JSON has no NaN (the codec writes `null`, which fails to parse
        // as a number), so the NaN row reaches only the in-memory entry
        // points.
        let json_rows = [
            (motion(-1.0, 8.0, 1.2), "rest_s"),
            (motion(20.0, 0.0, 1.2), "handled_s"),
            (motion(20.0, 8.0, -1.0), "vigor_g"),
            (
                AppBoard::Beacon {
                    rest_s: 20.0,
                    handled_s: 8.0,
                    vigor_g: 1.2,
                    period_s: 0,
                },
                "period_s",
            ),
        ];
        let names = |app: AppBoard, field: &str, message: String| {
            assert!(
                message.contains(field),
                "{app:?}: {message:?} does not name {field}"
            );
        };
        for (app, field) in json_rows
            .into_iter()
            .chain([(motion(f64::NAN, 8.0, 1.2), "rest_s")])
        {
            let err = Stack::new(NodeConfig::default(), app).unwrap_err();
            assert!(matches!(err, BuildError::InvalidConfig(_)), "{err:?}");
            names(app, field, err.to_string());

            let fleet = FleetConfig {
                app,
                ..FleetConfig::default()
            };
            let err = fleet.validate().unwrap_err();
            assert!(matches!(err, FleetConfigError::InvalidApp(_)), "{err:?}");
            names(app, field, err.to_string());

            let mesh = MeshConfig {
                app,
                ..MeshConfig::default()
            };
            let err = mesh.validate().unwrap_err();
            assert!(matches!(err, MeshConfigError::InvalidApp(_)), "{err:?}");
            names(app, field, err.to_string());
        }
        for (app, field) in json_rows {
            let app_json = app.to_json().to_string();
            let spec = format!(
                r#"{{"name": "bad app", "seed": 1, "duration_s": 12.0, "nodes": 2, "app": {app_json}}}"#
            );
            let err = Scenario::parse(&spec).unwrap_err();
            assert!(matches!(err, ScenarioError::Invalid(_)), "{err:?}");
            names(app, field, err.to_string());

            let text = StackCheckpoint::new(NodeConfig::default(), app, SimDuration::ZERO, false)
                .to_json()
                .to_string();
            let checkpoint = StackCheckpoint::from_json(&Json::parse(&text).expect("parses"))
                .expect("a checkpoint file is only decoded here, not checked");
            let err = checkpoint.resume().unwrap_err();
            assert!(
                matches!(err, CheckpointError::Build(BuildError::InvalidConfig(_))),
                "{err:?}"
            );
            names(app, field, err.to_string());
        }
    }

    #[test]
    fn wakeup_receiver_option_costs_50_uw() {
        let base = NodeConfig::default();
        let with_wakeup = NodeConfig {
            wakeup_receiver: true,
            ..NodeConfig::default()
        };
        let (_, plain) = run_tpms_for(60, base);
        let (_, listening) = run_tpms_for(60, with_wakeup);
        let delta = listening.average_power - plain.average_power;
        // §7.3: the always-on listener adds its ~50 µW on top of the node.
        assert!(
            (delta.micro() - 50.0).abs() < 3.0,
            "wakeup delta {:.1} µW",
            delta.micro()
        );
        let names: Vec<&str> = listening.power.rails[0]
            .loads
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert!(names.contains(&"wakeup receiver"));
    }

    #[test]
    fn invalid_config_rejected() {
        let bad = NodeConfig {
            initial_soc: 1.5,
            ..NodeConfig::default()
        };
        assert!(matches!(tpms(bad), Err(BuildError::InvalidConfig(_))));
    }

    #[test]
    fn deterministic_given_a_seed() {
        let (_, a) = run_tpms_for(30, NodeConfig::default());
        let (_, b) = run_tpms_for(30, NodeConfig::default());
        assert_eq!(a.packets, b.packets);
        assert_eq!(a.consumed, b.consumed);
    }

    #[test]
    fn four_days_in_one_call_are_not_stuck() {
        // The stuck guard counts one active stretch: 345,600 s holds
        // 57,600 healthy wakes, whose instructions together pass its
        // limit.
        let mut node = tpms(NodeConfig::default()).expect("node builds");
        let outcome = node.run_for(SimDuration::from_secs(345_600));
        assert_eq!(outcome, RunOutcome::Completed);
        assert_eq!(node.fault(), None);
        assert!(node.report().wakes > 57_000);
    }

    #[test]
    fn node_report_json_round_trips_with_fault_state() {
        let (_, report) = run_tpms_for(13, NodeConfig::default());
        let json = Json::parse(&report.to_json().to_string()).expect("parses");
        let back = NodeReport::from_json(&json).expect("round trips");
        assert_eq!(back.wakes, report.wakes);
        assert_eq!(back.brownout_count, report.brownout_count);
        assert_eq!(back.browned_out, report.browned_out);
        assert_eq!(back.fault, report.fault);
        // Pre-stack reports (no brownout/fault keys) still parse.
        let legacy = Json::parse(
            r#"{"elapsed": 1.0, "average_power": 6e-6, "peak_power": 1e-3,
                "consumed": 6e-6, "harvested": 0.0,
                "power": {"elapsed": 1.0, "total_energy": 6e-6,
                          "average_power": 6e-6, "rails": []},
                "packets": [], "wakes": 0, "final_soc": 0.8}"#,
        )
        .expect("legacy parses");
        let legacy = NodeReport::from_json(&legacy).expect("legacy report accepted");
        assert_eq!(legacy.brownout_count, 0);
        assert!(!legacy.browned_out);
        assert_eq!(legacy.fault, None);
    }

    #[test]
    fn node_fault_json_round_trips() {
        let faults = [
            NodeFault::IllegalInstruction {
                word: 0x4303,
                at: 0xF010,
            },
            NodeFault::Stuck { steps: 200_000_001 },
            NodeFault::PowerChain {
                rail: "pump operating point",
            },
            NodeFault::Accounting,
        ];
        for fault in faults {
            let json = Json::parse(&fault.to_json().to_string()).expect("parses");
            assert_eq!(NodeFault::from_json(&json).expect("round trips"), fault);
        }
    }
}
