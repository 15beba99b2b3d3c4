//! The board stack: the five-board PicoCube as composable components.
//!
//! The paper's central contribution is *modularity* — five vertically
//! stacked 1 cm² boards (storage, controller, sensor, switch, radio)
//! joined by elastomeric connectors so boards can be swapped per
//! application (§2, §4–6). This module mirrors that architecture in
//! code: each physical board is a crate-private component that owns its
//! devices, and [`Stack`] is the chassis — the emulated MSP430
//! controller plus one event scheduler that calls the boards directly.
//!
//! | Paper board (§2)       | Component                                  |
//! |------------------------|--------------------------------------------|
//! | storage (NiMH + harvester) | `StorageBoard`                         |
//! | controller (MSP430)    | [`Stack`]'s MCU + scheduler loop           |
//! | sensor (SP12 / SCA3000)| `SensorBoard`                              |
//! | power switch           | `SwitchBoard`                              |
//! | radio (FBAR OOK TX)    | `RadioBoard`                               |
//!
//! [`Stack::new`] assembles a stack from a [`NodeConfig`] plus a
//! plain-data [`AppBoard`], which it validates; it is the only place an
//! app becomes a sensor board. `tests/stack_compat.rs` pins its results to
//! pre-refactor golden traces. A stack is plain owned data (each board
//! owns its devices and the MCU borrows the SPI bus per call), so it is
//! `Send`.
//!
//! The scheduler's order contract: a due sensor event fires before a due
//! radio event, and the sensor's tire temperature and interrupt pulse
//! are applied as soon as it returns (the radio's event reads neither the
//! cell nor the MCU pins). Board metrics export in stack order: storage,
//! sensor, switch, radio.
//!
//! Faults (an illegal firmware instruction, a stuck active loop, an
//! unsolvable power-chain operating point) no longer panic: the
//! scheduler latches a [`NodeFault`], [`Stack::run_for`] reports it in
//! its [`RunOutcome`], and the fault rides along in [`NodeReport`] and
//! the fleet outcome.

mod radio;
mod sensor;
mod storage;
mod switch;

use radio::RadioBoard;
pub(crate) use sensor::SensorBoard;
use storage::{StorageBoard, SupervisorVerdict};
use switch::SwitchBoard;

use crate::bus::{pa_enabled, BusMux, TransmittedPacket};
use crate::node::{BuildError, NodeConfig, NodeReport};
use picocube_mcu::firmware::{self, PIN_RADIO_SPI};
use picocube_mcu::{Mcu, OperatingMode, SegmentStop};
use picocube_sensors::{MotionScenario, Sp12};
use picocube_sim::{
    CycleLog, LoadId, PowerLedger, PowerTrace, RailId, ScalarTrace, SimDuration, SimTime,
};
use picocube_telemetry::{keys, EventKind, TelemetryBuffer};
use picocube_units::json::{field, FromJson, Json, JsonError, ToJson};
use picocube_units::{Amps, Gs, Seconds, Volts};

/// Instructions a node may run without reaching a low-power mode before
/// the scheduler latches [`NodeFault::Stuck`].
const STUCK_STEPS: u64 = 200_000_000;

/// Why a running node stopped making progress.
///
/// These were `panic!`s in the pre-stack engine; the scheduler now
/// latches them so a single bad node degrades (and is reported) instead
/// of tearing down a whole fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum NodeFault {
    /// The firmware executed an undecodable opcode.
    IllegalInstruction {
        /// The instruction word.
        word: u16,
        /// Program counter at the fault.
        at: u16,
    },
    /// The simulation made no scheduling progress for an implausible
    /// number of active steps (a firmware spin with interrupts off).
    Stuck {
        /// Active steps taken without reaching a sleep state.
        steps: u64,
    },
    /// A power-chain operating point failed to solve for the present
    /// load — the electrical model has been driven outside its domain.
    PowerChain {
        /// Which rail conversion failed to solve.
        rail: &'static str,
    },
    /// The power ledger rejected a rail or load handle — the node's
    /// internal wiring is inconsistent (a stack bug, never a model
    /// outcome). Latching it lets the offending node degrade instead of
    /// panicking a whole fleet run.
    Accounting,
}

impl NodeFault {
    /// Stable wire tag for telemetry and JSON.
    pub fn tag(&self) -> &'static str {
        match self {
            Self::IllegalInstruction { .. } => "illegal_instruction",
            Self::Stuck { .. } => "stuck",
            Self::PowerChain { .. } => "power_chain",
            Self::Accounting => "accounting",
        }
    }
}

impl From<picocube_sim::LedgerError> for NodeFault {
    fn from(_: picocube_sim::LedgerError) -> Self {
        Self::Accounting
    }
}

impl core::fmt::Display for NodeFault {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::IllegalInstruction { word, at } => {
                write!(f, "firmware fault: opcode {word:#06x} at {at:#06x}")
            }
            Self::Stuck { steps } => {
                write!(
                    f,
                    "node simulation stuck in active state after {steps} steps"
                )
            }
            Self::PowerChain { rail } => {
                write!(f, "{rail} operating point failed to solve")
            }
            Self::Accounting => {
                write!(f, "power ledger rejected a rail or load handle")
            }
        }
    }
}

impl std::error::Error for NodeFault {}

/// What [`Stack::run_for`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The node simulated the full requested span.
    Completed,
    /// The node latched a fault and stopped early; further `run_for`
    /// calls return the same fault without advancing time.
    Faulted(NodeFault),
}

impl RunOutcome {
    /// The fault, if the run ended in one.
    pub fn fault(&self) -> Option<NodeFault> {
        match self {
            Self::Completed => None,
            Self::Faulted(fault) => Some(*fault),
        }
    }

    /// Whether the requested span completed fault-free.
    pub fn is_completed(&self) -> bool {
        matches!(self, Self::Completed)
    }
}

/// Which application firmware/sensor-board pairing a node carries.
///
/// Plain data (`Copy`, `Send`, JSON-able): a fleet, a mesh, a scenario
/// and a checkpoint all store this one value, and [`Stack::new`] slots
/// it. The constructor seeds a motion or beacon board's handling script
/// from [`NodeConfig::seed`], so fleets of motion nodes decorrelate.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AppBoard {
    /// Tire-pressure stack (SP12 board, TPMS firmware) — the default.
    #[default]
    Tpms,
    /// §6 motion-demo stack (SCA3000 board, motion firmware).
    Motion {
        /// Mean rest span between handling bouts, seconds.
        rest_s: f64,
        /// Mean handled (shaken) span, seconds.
        handled_s: f64,
        /// Peak handling acceleration, g.
        vigor_g: f64,
    },
    /// Timer-paced beacon stack (SCA3000 board, beacon firmware).
    Beacon {
        /// Mean rest span between handling bouts, seconds.
        rest_s: f64,
        /// Mean handled (shaken) span, seconds.
        handled_s: f64,
        /// Peak handling acceleration, g.
        vigor_g: f64,
        /// Beacon period programmed into Timer A, seconds (at least 1).
        period_s: u16,
    },
}

impl AppBoard {
    /// Checks the parameters [`MotionScenario::new`] and the beacon
    /// firmware would otherwise reject by panicking. The error names the
    /// offending field.
    pub(crate) fn validate(&self) -> Result<(), &'static str> {
        let (rest_s, handled_s, vigor_g, period_s) = match *self {
            Self::Tpms => return Ok(()),
            Self::Motion {
                rest_s,
                handled_s,
                vigor_g,
            } => (rest_s, handled_s, vigor_g, None),
            Self::Beacon {
                rest_s,
                handled_s,
                vigor_g,
                period_s,
            } => (rest_s, handled_s, vigor_g, Some(period_s)),
        };
        let positive = |v: f64| v.is_finite() && v > 0.0;
        if !positive(rest_s) {
            return Err("app rest_s must be positive and finite");
        }
        if !positive(handled_s) {
            return Err("app handled_s must be positive and finite");
        }
        if !(vigor_g.is_finite() && vigor_g >= 0.0) {
            return Err("app vigor_g must be non-negative and finite");
        }
        if period_s == Some(0) {
            return Err("app period_s must be at least 1 s");
        }
        Ok(())
    }
}

impl ToJson for AppBoard {
    fn to_json(&self) -> Json {
        match *self {
            Self::Tpms => Json::Str("Tpms".into()),
            Self::Motion {
                rest_s,
                handled_s,
                vigor_g,
            } => Json::Obj(vec![(
                "Motion".into(),
                Json::Obj(vec![
                    ("rest_s".into(), rest_s.to_json()),
                    ("handled_s".into(), handled_s.to_json()),
                    ("vigor_g".into(), vigor_g.to_json()),
                ]),
            )]),
            Self::Beacon {
                rest_s,
                handled_s,
                vigor_g,
                period_s,
            } => Json::Obj(vec![(
                "Beacon".into(),
                Json::Obj(vec![
                    ("rest_s".into(), rest_s.to_json()),
                    ("handled_s".into(), handled_s.to_json()),
                    ("vigor_g".into(), vigor_g.to_json()),
                    ("period_s".into(), period_s.to_json()),
                ]),
            )]),
        }
    }
}

impl FromJson for AppBoard {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        if let Some(body) = value.get("Motion") {
            return Ok(Self::Motion {
                rest_s: FromJson::from_json(field(body, "rest_s")?)?,
                handled_s: FromJson::from_json(field(body, "handled_s")?)?,
                vigor_g: FromJson::from_json(field(body, "vigor_g")?)?,
            });
        }
        if let Some(body) = value.get("Beacon") {
            return Ok(Self::Beacon {
                rest_s: FromJson::from_json(field(body, "rest_s")?)?,
                handled_s: FromJson::from_json(field(body, "handled_s")?)?,
                vigor_g: FromJson::from_json(field(body, "vigor_g")?)?,
                period_s: FromJson::from_json(field(body, "period_s")?)?,
            });
        }
        let tag: String = FromJson::from_json(value)?;
        match tag.as_str() {
            "Tpms" => Ok(Self::Tpms),
            other => Err(JsonError::new(format!("unknown app board {other:?}"))),
        }
    }
}

/// The assembled node: the controller board (emulated MSP430) plus the
/// four swappable boards, run by one shared event scheduler. Built by
/// [`Stack::new`].
pub struct Stack {
    mcu: Mcu,
    sensor: SensorBoard,
    radio: RadioBoard,
    switch: SwitchBoard,
    storage: StorageBoard,
    ledger: PowerLedger,
    rail: RailId,
    load_overhead: LoadId,
    load_vdd: LoadId,
    load_digital: LoadId,
    load_rf: LoadId,
    load_wakeup: LoadId,
    trace: PowerTrace,
    soc_trace: ScalarTrace,
    telemetry: TelemetryBuffer,
    slept: SimDuration,
    vdd: Volts,
    last_inputs: (Amps, Amps, bool, bool),
    /// Reusable run-length cycle log for the segmented active path
    /// (scratch; contents never outlive one segment).
    seg_log: CycleLog,
    /// Instructions run since the core last reached a low-power mode,
    /// across `run_for` calls: the stuck guard's count.
    active_steps: u64,
    fault: Option<NodeFault>,
}

impl core::fmt::Debug for Stack {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Stack")
            .field("now", &self.now())
            .field("wakes", &self.sensor.fires())
            .field("soc", &self.storage.soc())
            .field("browned_out", &self.storage.browned_out_at())
            .field("brownout_count", &self.storage.brownout_count())
            .field("fault", &self.fault)
            .finish_non_exhaustive()
    }
}

impl Stack {
    /// Builds a node: validates `app`, selects its firmware image and
    /// sensor board, and assembles the chassis around them. All three
    /// applications share the same chassis and differ only in the
    /// firmware and the sensor board slotted into the stack.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] when the configuration or the board's
    /// parameters are invalid.
    ///
    /// # Examples
    ///
    /// ```
    /// use picocube_node::{AppBoard, NodeConfig, Stack};
    ///
    /// let node = Stack::new(NodeConfig::default(), AppBoard::Tpms)?;
    /// assert_eq!(node.brownout_count(), 0);
    /// # Ok::<(), picocube_node::BuildError>(())
    /// ```
    pub fn new(config: NodeConfig, app: AppBoard) -> Result<Self, BuildError> {
        app.validate().map_err(BuildError::InvalidConfig)?;
        let motion = |rest_s, handled_s, vigor_g| {
            SensorBoard::sca3000(MotionScenario::new(
                Seconds::new(rest_s),
                Seconds::new(handled_s),
                Gs::new(vigor_g),
                config.seed,
            ))
        };
        let (image, sensor) = match app {
            AppBoard::Tpms => {
                let image = match config.alarm_threshold_kpa {
                    Some(kpa) => {
                        if !(0.0..=450.0).contains(&kpa) {
                            return Err(BuildError::InvalidConfig(
                                "alarm threshold outside the SP12's 0-450 kPa range",
                            ));
                        }
                        let code = Sp12::new().encode(picocube_sensors::Sp12Channel::Pressure, kpa);
                        firmware::tpms_alarm_app(config.node_id, code)?
                    }
                    None => firmware::tpms_app(config.node_id)?,
                };
                let mut env =
                    picocube_sensors::TireEnvironment::passenger_car(config.drive_cycle.clone());
                if config.leak_kpa_per_hour > 0.0 {
                    env = env.with_leak(picocube_units::Kilopascals::new(config.leak_kpa_per_hour));
                }
                let mut sp12 = Sp12::new().with_noise(config.seed);
                if let Some(period) = config.sample_period_s {
                    if period <= 0.0 {
                        return Err(BuildError::InvalidConfig("sample period must be positive"));
                    }
                    sp12 = sp12.with_wake_interval(Seconds::new(period));
                }
                // Checked: an offset past the nanosecond clock's range would
                // wrap the first wake into the past.
                let wake = config
                    .first_wake_offset_ms
                    .checked_mul(1_000_000)
                    .and_then(|offset_ns| {
                        SimTime::from_seconds(sp12.wake_interval())
                            .as_nanos()
                            .checked_add(offset_ns)
                    })
                    .map(SimTime::from_nanos)
                    .ok_or(BuildError::InvalidConfig(
                        "first_wake_offset_ms overflows the simulation clock",
                    ))?;
                let interval_scale = 1.0 + config.wake_interval_ppm * 1e-6;
                let sensor = SensorBoard::sp12(sp12, env, wake, interval_scale);
                (image, sensor)
            }
            AppBoard::Motion {
                rest_s,
                handled_s,
                vigor_g,
            } => (
                firmware::motion_app(config.node_id)?,
                motion(rest_s, handled_s, vigor_g),
            ),
            AppBoard::Beacon {
                rest_s,
                handled_s,
                vigor_g,
                period_s,
            } => (
                firmware::beacon_app(config.node_id, period_s)?,
                motion(rest_s, handled_s, vigor_g),
            ),
        };
        Self::assemble(config, image, sensor)
    }

    fn assemble(
        config: NodeConfig,
        image: picocube_mcu::Image,
        sensor: SensorBoard,
    ) -> Result<Self, BuildError> {
        if !(0.0..=1.0).contains(&config.initial_soc) {
            return Err(BuildError::InvalidConfig("initial_soc must be in [0, 1]"));
        }
        if config.leak_kpa_per_hour < 0.0 {
            return Err(BuildError::InvalidConfig("leak rate must be non-negative"));
        }
        let mut mcu = Mcu::new();
        mcu.load(&image);
        mcu.reset();

        let cell = storage::StorageCell::for_config(&config)?;

        let switch = SwitchBoard::new(config.power_chain, config.ungated_rf_ldo);
        let storage = StorageBoard::new(cell, storage::harvester_for(&config)?);
        let wakeup = config
            .wakeup_receiver
            .then(picocube_radio::WakeupReceiver::bwrc);
        let radio = RadioBoard::new(wakeup);

        let mut ledger = PowerLedger::new();
        let rail = ledger.add_rail("VBAT", storage.terminal_voltage());
        let load_overhead = ledger.register_load(rail, "power chain overhead")?;
        let load_vdd = ledger.register_load(rail, "mcu+sensor (via pump)")?;
        let load_digital = ledger.register_load(rail, "radio digital (via pump)")?;
        let load_rf = ledger.register_load(rail, "radio RF rail")?;
        let load_wakeup = ledger.register_load(rail, "wakeup receiver")?;

        let mut node = Self {
            mcu,
            sensor,
            radio,
            switch,
            storage,
            ledger,
            rail,
            load_overhead,
            load_vdd,
            load_digital,
            load_rf,
            load_wakeup,
            trace: PowerTrace::new("node_power_w"),
            soc_trace: ScalarTrace::new("battery_soc"),
            telemetry: TelemetryBuffer::new(),
            slept: SimDuration::ZERO,
            vdd: Volts::new(2.4),
            last_inputs: (Amps::new(-1.0), Amps::new(-1.0), false, false),
            seg_log: CycleLog::new(),
            active_steps: 0,
            fault: None,
        };
        node.soc_trace.record(SimTime::ZERO, node.storage.soc());
        node.update_currents(true).map_err(BuildError::PowerChain)?;
        Ok(node)
    }

    /// Current simulation time (derived from the MCU's cycle counter at
    /// 1 µs per MCLK cycle).
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.mcu.cycles())
    }

    /// The battery-side power trace (the Fig. 6 instrument).
    pub fn power_trace(&self) -> &PowerTrace {
        &self.trace
    }

    /// Turns structured event recording on or off (metrics counters are
    /// always maintained). Off by default: the hot path then pays one
    /// branch per potential event.
    pub fn set_event_recording(&mut self, enabled: bool) {
        self.telemetry.set_events_enabled(enabled);
    }

    /// Live view of the node's telemetry (counters accumulated so far and
    /// any buffered events).
    pub fn telemetry(&self) -> &TelemetryBuffer {
        &self.telemetry
    }

    /// Finalizes and takes the node's telemetry: the buffered events plus
    /// the metric registry, extended with the run's sleep/active residency
    /// (`mcu.lpm_ns` / `mcu.active_ns`), the ledger's per-rail, per-load
    /// energy export, and each board's `board.<name>.*` scope.
    ///
    /// Intended to be called once at the end of a run; the node keeps
    /// recording into a fresh buffer afterwards, but residency and energy
    /// totals restart from zero only for events — the power ledger and
    /// board counters keep integrating, so a second drain would re-export
    /// their lifetime totals.
    pub fn drain_telemetry(&mut self) -> TelemetryBuffer {
        let enabled = self.telemetry.events_enabled();
        let mut buf = std::mem::take(&mut self.telemetry);
        self.telemetry.set_events_enabled(enabled);
        let lpm_ns = self.slept.as_nanos();
        buf.metrics.inc(keys::MCU_LPM_NS, lpm_ns);
        buf.metrics.inc(
            keys::MCU_ACTIVE_NS,
            self.now().as_nanos().saturating_sub(lpm_ns),
        );
        self.ledger.export_metrics(&mut buf.metrics);
        // Stack order, bottom to top: the registry keeps insertion order.
        self.storage.export_metrics(&mut buf.metrics);
        self.sensor.export_metrics(&mut buf.metrics);
        self.switch.export_metrics(&mut buf.metrics);
        self.radio.export_metrics(&mut buf.metrics);
        buf
    }

    /// Battery state-of-charge trace over the run.
    pub fn soc_trace(&self) -> &ScalarTrace {
        &self.soc_trace
    }

    /// Packets transmitted so far, borrowed from the radio board.
    pub fn packets(&self) -> &[TransmittedPacket] {
        self.radio.packets()
    }

    /// How many packets have been transmitted so far — a cursor for
    /// [`packets_since`](Self::packets_since).
    pub fn packet_count(&self) -> usize {
        self.radio.packets().len()
    }

    /// Packets transmitted at or after cursor `from` (a prior
    /// [`packet_count`](Self::packet_count) observation), so windowed
    /// consumers collect only the new tail.
    pub fn packets_since(&self, from: usize) -> &[TransmittedPacket] {
        self.radio.packets().get(from..).unwrap_or_default()
    }

    /// The fitted wakeup receiver, if any (the `wakeup_receiver` config
    /// option or a [`fit_mesh_rx`](Self::fit_mesh_rx) detector).
    pub fn wakeup_receiver(&self) -> Option<&picocube_radio::WakeupReceiver> {
        self.radio.wakeup()
    }

    /// Fits the mesh receive path: installs `detector` as the always-on
    /// wakeup receiver and arms the radio board's relay queue. Call
    /// before running — the detector's standing listen draw starts
    /// immediately, which is why this re-solves the rails.
    ///
    /// # Errors
    ///
    /// Returns the fault if the added listen draw drives the power chain
    /// outside its solvable domain.
    pub fn fit_mesh_rx(
        &mut self,
        detector: picocube_radio::WakeupReceiver,
    ) -> Result<(), NodeFault> {
        self.radio.fit_rx(detector);
        self.update_currents(true)
    }

    /// Schedules a rebroadcast of `bytes` at `at` (clamped to the present
    /// if already past) on the radio board's relay queue. The board wakes
    /// the scheduler at the deadline, keys the PA for the frame's airtime
    /// and accounts the RF energy like any firmware transmission.
    ///
    /// Returns `false` when the node cannot relay: no mesh receive path
    /// fitted ([`fit_mesh_rx`](Self::fit_mesh_rx)) or a latched fault.
    /// Pending relays are dropped if the supervisor cold-boots the node.
    pub fn inject_relay(&mut self, at: SimTime, bytes: Vec<u8>) -> bool {
        if self.fault.is_some() {
            return false;
        }
        self.radio.schedule_relay(at.max(self.now()), bytes)
    }

    /// Present battery state of charge.
    pub fn battery_soc(&self) -> f64 {
        self.storage.soc()
    }

    /// When the node browned out (battery too depleted to hold the rails),
    /// if it has.
    ///
    /// A browned-out node stops waking and transmitting; harvested energy
    /// keeps trickling into the cell, and the node restarts once the cell
    /// recovers above the restart threshold (a 10 % hysteresis band, like
    /// a supply supervisor).
    pub fn browned_out_at(&self) -> Option<SimTime> {
        self.storage.browned_out_at()
    }

    /// How many brown-out events have occurred over the node's lifetime.
    pub fn brownout_count(&self) -> u32 {
        self.storage.brownout_count()
    }

    /// The latched fault, if a run ended in one.
    pub fn fault(&self) -> Option<NodeFault> {
        self.fault
    }

    /// The always-on supply voltage currently delivered to MCU and sensor.
    pub fn vdd(&self) -> Volts {
        self.vdd
    }

    /// The earliest scheduled board event: the sensor board always has
    /// one, the radio board only while a relay is queued or on the air.
    fn next_board_event(&self) -> SimTime {
        let sensor = self.sensor.next_event();
        self.radio
            .next_event()
            .map_or(sensor, |radio| sensor.min(radio))
    }

    /// Fires every board whose event is due, sensor before radio, and
    /// recomputes rail currents if anything fired.
    fn fire_due_events(&mut self) -> Result<(), NodeFault> {
        let now = self.now();
        let mut fired = false;
        if self.sensor.next_event() <= now {
            let (temperature, irq) = self.sensor.fire(now, self.vdd, &mut self.telemetry);
            if let Some(t) = temperature {
                self.storage.set_temperature(t);
            }
            if irq {
                // The sensor's digital die raises its interrupt line.
                self.mcu.drive_p1(0, false);
                self.mcu.drive_p1(0, true);
            }
            fired = true;
        }
        if self.radio.next_event().is_some_and(|at| at <= now) {
            self.radio.fire(now, &mut self.telemetry);
            fired = true;
        }
        if fired {
            self.update_currents(false)?;
        }
        Ok(())
    }

    /// Recomputes rail currents from the boards' demands. `force` records
    /// even if nothing changed.
    fn update_currents(&mut self, force: bool) -> Result<(), NodeFault> {
        if self.storage.held() {
            return Ok(()); // supervisor holds everything unpowered
        }
        let i_mcu = self.mcu.current_draw();
        let i_sensor = self.sensor.draw();
        let p1 = self.mcu.p1_output();
        let spi_on = p1 & PIN_RADIO_SPI != 0;
        // The RF LDO is keyed by the firmware's PA pin or by an in-flight
        // mesh relay pulse (which transmits without waking the MCU).
        let pa_on = pa_enabled(p1) || self.radio.relay_active();
        let inputs = (i_mcu, i_sensor, spi_on, pa_on);
        if !force && inputs == self.last_inputs {
            return Ok(());
        }
        self.last_inputs = inputs;

        let vbat = self.ledger.rail_voltage(self.rail)?;
        // VDD rail demand in stack order: controller, then sensor, then
        // the radio board's level shifters (zero while SPI is off).
        let i_vdd = i_mcu + i_sensor + self.radio.vdd_draw(self.vdd);
        let solve = self
            .switch
            .rails(vbat, i_vdd, spi_on, pa_on, self.radio.rf_draw())?;

        self.vdd = solve.vdd_out;
        if let Some(listen) = self.radio.listen_power() {
            self.ledger
                .set_load_current(self.load_wakeup, listen / vbat)?;
        }
        self.ledger
            .set_load_current(self.load_overhead, solve.overhead)?;
        self.ledger
            .set_load_current(self.load_vdd, solve.vdd_reflected)?;
        self.ledger
            .set_load_current(self.load_digital, solve.digital)?;
        self.ledger.set_load_current(self.load_rf, solve.rf)?;
        self.trace
            .record(self.ledger.now(), self.ledger.total_power());
        Ok(())
    }

    /// Settles harvest/consumption into the battery over the elapsed span
    /// and runs the supply supervisor.
    fn settle_battery(&mut self) -> Result<(), NodeFault> {
        let now = self.now();
        let vbat = self.ledger.rail_voltage(self.rail)?;
        let consumed = self.ledger.total_energy();
        if !self.storage.settle(now, vbat, consumed, &self.switch) {
            return Ok(());
        }
        self.soc_trace.record(now, self.storage.soc());
        // Battery sag/recovery feeds back into the rail voltage.
        self.ledger
            .set_rail_voltage(self.rail, self.storage.terminal_voltage())?;
        self.supervise(now)
    }

    /// Applies the storage board's supervisor verdict: holds the stack in
    /// reset on brown-out, cold-boots and reschedules every board on
    /// recovery.
    fn supervise(&mut self, now: SimTime) -> Result<(), NodeFault> {
        match self.storage.supervise(now) {
            SupervisorVerdict::Unchanged => Ok(()),
            SupervisorVerdict::BrownedOut => {
                self.telemetry.metrics.inc(keys::NODE_BROWNOUTS, 1);
                self.telemetry
                    .record(self.now().as_nanos(), EventKind::BrownOut);
                self.mcu.set_register(2, 0); // hold in reset: GIE off
                self.mcu.clear_pending_irqs();
                for load in [
                    self.load_overhead,
                    self.load_vdd,
                    self.load_digital,
                    self.load_rf,
                    self.load_wakeup,
                ] {
                    self.ledger.set_load_current(load, Amps::ZERO)?;
                }
                self.trace
                    .record(self.ledger.now(), self.ledger.total_power());
                Ok(())
            }
            SupervisorVerdict::Recovered => {
                self.telemetry
                    .record(self.now().as_nanos(), EventKind::Recovered);
                self.mcu.warm_reset();
                // Boards reschedule relative to the reboot.
                self.sensor.on_restart(self.now());
                self.radio.on_restart();
                self.update_currents(true)
            }
        }
    }

    /// Runs the node for a span of simulated time.
    ///
    /// A fault (illegal instruction, stuck firmware, unsolvable power
    /// chain) latches: the outcome reports it, [`Stack::fault`] and the
    /// [`NodeReport`] carry it, and subsequent calls return it without
    /// advancing time.
    pub fn run_for(&mut self, duration: SimDuration) -> RunOutcome {
        if let Some(fault) = self.fault {
            return RunOutcome::Faulted(fault);
        }
        let end = self.now() + duration;
        let finished = self.run_until(end).and_then(|()| {
            self.ledger.advance_to(end.max(self.ledger.now()));
            self.settle_battery()?;
            self.update_currents(true)
        });
        match finished {
            Ok(()) => RunOutcome::Completed,
            Err(fault) => self.latch(fault),
        }
    }

    /// Latches a fault: records it in telemetry and freezes the node.
    fn latch(&mut self, fault: NodeFault) -> RunOutcome {
        self.fault = Some(fault);
        self.telemetry.metrics.inc(keys::NODE_FAULTS, 1);
        self.telemetry.record(
            self.now().as_nanos(),
            EventKind::Fault { what: fault.tag() },
        );
        RunOutcome::Faulted(fault)
    }

    /// The shared scheduler loop: one pass over sleep-skip, board events,
    /// controller steps and supervisor holds until `end`.
    fn run_until(&mut self, end: SimTime) -> Result<(), NodeFault> {
        while self.now() < end {
            if self.storage.held() {
                // Held in reset: advance in supervisor-poll chunks, letting
                // the harvester recharge the cell toward the restart
                // threshold.
                let next = (self.now() + SimDuration::from_secs(60)).min(end);
                let gap = next
                    .checked_duration_since(self.now())
                    .unwrap_or(SimDuration::ZERO);
                if gap.is_zero() {
                    break;
                }
                let mut bus = spi_bus(&self.mcu, &mut self.sensor, &mut self.radio);
                self.mcu.sleep(gap.as_nanos() / 1_000, &mut bus);
                self.slept += gap;
                self.ledger.advance_to(self.now());
                self.settle_battery()?;
                continue;
            }
            let asleep = self.mcu.mode() != OperatingMode::Active && !self.mcu.has_pending_irq();
            if asleep {
                let next = self.next_board_event().min(end);
                let gap = next
                    .checked_duration_since(self.now())
                    .unwrap_or(SimDuration::ZERO);
                if !gap.is_zero() {
                    // `Mcu::sleep` returns early the moment an interrupt
                    // latches (a timer tick during the span), so the ledger
                    // integrates to the actual post-sleep clock, not `next`.
                    let cycles = gap.as_nanos() / 1_000; // 1 µs per cycle
                    let mut bus = spi_bus(&self.mcu, &mut self.sensor, &mut self.radio);
                    self.mcu.sleep(cycles.max(1), &mut bus);
                    self.slept += gap;
                    self.ledger.advance_to(self.now());
                }
                self.settle_battery()?;
                if self.now() >= end {
                    break;
                }
                if !self.storage.held() {
                    self.fire_due_events()?;
                }
            } else {
                // Active: run a whole observable-equivalent *segment* in one
                // call, then integrate power and re-sample the world once at
                // its boundary. `run_segment` stops after the first
                // instruction that changes anything a board can see (GPIO
                // outputs, the SPI draw epoch, operating mode), so deferring
                // the `on_bus` / `update_currents` epilogue to the boundary
                // is bit-identical to running it per instruction: for every
                // interior instruction it was a no-op by construction.
                let p1_before = self.mcu.p1_output();
                debug_assert_eq!(self.ledger.now(), self.now());
                // The old per-step loop gate `now() < end`, in cycles: a
                // step may start while `cycles * 1000 < end_ns`.
                let limit_cycles = end.as_nanos().div_ceil(1_000);
                // Cap instructions so the stuck guard trips on exactly the
                // first instruction past its limit.
                let max_insns = STUCK_STEPS + 1 - self.active_steps;
                self.seg_log.clear();
                let mut bus = spi_bus(&self.mcu, &mut self.sensor, &mut self.radio);
                let stop =
                    self.mcu
                        .run_segment(limit_cycles, max_insns, &mut self.seg_log, &mut bus);
                // Replay the segment's per-instruction advances through the
                // ledger in one pass (bit-identical to per-step advance_to).
                self.ledger.advance_log(&self.seg_log);
                self.active_steps += self.seg_log.insns();
                if let SegmentStop::Fault { word, at } = stop {
                    // A faulting fetch is reported without running the
                    // epilogue (it consumed no cycles).
                    return Err(NodeFault::IllegalInstruction { word, at });
                }
                // Boards watch the pin edges.
                let p1_now = self.mcu.p1_output();
                // `on_bus` is a pure P1 edge detector (the radio watches for
                // its PA window closing), so a step that left P1 unchanged
                // cannot have anything to deliver.
                if p1_now != p1_before {
                    self.radio
                        .on_bus(p1_before, p1_now, self.now(), &mut self.telemetry);
                }
                self.update_currents(false)?;
                // Reaching a low-power mode ends the active stretch the
                // stuck guard counts, however many `run_for` calls it
                // spanned.
                if self.mcu.mode() != OperatingMode::Active {
                    self.active_steps = 0;
                } else if self.active_steps > STUCK_STEPS {
                    return Err(NodeFault::Stuck {
                        steps: self.active_steps,
                    });
                }
            }
        }
        Ok(())
    }

    /// Produces the run summary.
    pub fn report(&self) -> NodeReport {
        NodeReport {
            elapsed: self.now().as_seconds(),
            average_power: self.ledger.average_power(),
            peak_power: self.trace.peak(),
            consumed: self.ledger.total_energy(),
            harvested: self.storage.harvested(),
            power: self.ledger.report(),
            packets: self.packets().to_vec(),
            wakes: self.sensor.fires(),
            final_soc: self.storage.soc(),
            brownout_count: self.storage.brownout_count(),
            browned_out: self.storage.browned_out_at().is_some(),
            fault: self.fault,
        }
    }
}

/// The SPI bus as the MCU drives it now: routed by its output pins to the
/// sensor board's part or the radio board's front end.
fn spi_bus<'a>(mcu: &Mcu, sensor: &'a mut SensorBoard, radio: &'a mut RadioBoard) -> BusMux<'a> {
    BusMux {
        p1: mcu.p1_output(),
        p2: mcu.p2_output(),
        sensor,
        radio: radio.frontend_mut(),
    }
}
