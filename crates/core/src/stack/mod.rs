//! The board stack: the five-board PicoCube as composable components.
//!
//! The paper's central contribution is *modularity* — five vertically
//! stacked 1 cm² boards (storage, controller, sensor, switch, radio)
//! joined by elastomeric connectors so boards can be swapped per
//! application (§2, §4–6). This module mirrors that architecture in
//! code: each physical board is a [`Board`] implementation with a
//! uniform interface, and [`Stack`] is the chassis — the emulated MSP430
//! controller plus one shared event scheduler that polls the boards.
//!
//! | Paper board (§2)       | Component                                  |
//! |------------------------|--------------------------------------------|
//! | storage (NiMH + harvester) | [`StorageBoard`]                       |
//! | controller (MSP430)    | [`Stack`]'s MCU + scheduler loop           |
//! | sensor (SP12 / SCA3000)| [`SensorBoard`]                            |
//! | power switch           | [`SwitchBoard`]                            |
//! | radio (FBAR OOK TX)    | [`RadioBoard`]                             |
//!
//! A [`StackBuilder`] assembles a stack from a [`NodeConfig`] plus an
//! [`AppBoard`] selection; `tests/stack_compat.rs` pins its results to
//! pre-refactor golden traces. A stack is plain owned data (each board
//! owns its devices and the MCU borrows the SPI bus per call), so it is
//! `Send`.
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

pub use radio::RadioBoard;
pub use sensor::SensorBoard;
pub use storage::{StorageBoard, SupervisorVerdict};
pub use switch::{RailSolve, SwitchBoard};

use crate::bus::{pa_enabled, BusMux, TransmittedPacket};
use crate::node::{BuildError, NodeConfig, NodeReport};
use picocube_mcu::firmware::{self, PIN_RADIO_SPI};
use picocube_mcu::{Mcu, OperatingMode, SegmentStop};
use picocube_sensors::{MotionScenario, Sp12};
use picocube_sim::{
    CycleLog, LoadId, PowerLedger, PowerTrace, RailId, ScalarTrace, SimDuration, SimTime,
};
use picocube_telemetry::{keys, EventKind, Metrics, TelemetryBuffer};
use picocube_units::{Amps, Celsius, Seconds, Volts, Watts};

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

/// A board's standing current demand, split by the rail it loads.
///
/// The scheduler sums these across boards and hands the totals to the
/// [`SwitchBoard`], which reflects them through the power train to
/// battery-side currents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoardDraw {
    /// Current drawn from the pumped always-on VDD rail.
    pub vdd: Amps,
    /// Current demanded from the gated radio RF rail.
    pub rf: Amps,
    /// Standing battery-direct power (e.g. the §7.3 wakeup receiver),
    /// `None` when the board has no battery-direct load fitted.
    pub battery: Option<Watts>,
}

impl BoardDraw {
    /// No demand on any rail.
    pub const ZERO: Self = Self {
        vdd: Amps::ZERO,
        rf: Amps::ZERO,
        battery: None,
    };
}

/// What a board can see and do while handling a scheduler callback.
///
/// Cross-board side effects (battery temperature from the tire
/// environment, the sensor interrupt line into the MCU) are staged here
/// and applied by the scheduler once the callback returns, so boards
/// never hold references into each other.
#[derive(Debug)]
pub struct StackCtx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The always-on supply voltage currently delivered by the switch
    /// board.
    pub vdd: Volts,
    /// The node's telemetry accumulator.
    pub telemetry: &'a mut TelemetryBuffer,
    /// Lifetime wake (sample-cycle) counter, shared across boards.
    pub wakes: &'a mut u64,
    battery_temperature: Option<Celsius>,
    irq_pulse: bool,
}

impl StackCtx<'_> {
    /// Stages a battery temperature update (the storage cell rides at
    /// tire temperature in the TPMS stack); applied after the callback.
    pub fn set_battery_temperature(&mut self, t: Celsius) {
        self.battery_temperature = Some(t);
    }

    /// Stages a pulse of the sensor interrupt line into the controller;
    /// applied after the callback.
    pub fn pulse_sensor_irq(&mut self) {
        self.irq_pulse = true;
    }
}

/// The uniform interface every stacked board presents to the scheduler.
///
/// All methods default to "nothing to do", so a board implements only
/// the slices of the contract its hardware has: the sensor board
/// schedules events, the radio board watches the bus, the switch board
/// solves rails, the storage board settles charge.
pub trait Board {
    /// Short stable name, used as the board's telemetry scope
    /// (`board.<name>.*`) and in diagnostics.
    fn name(&self) -> &'static str;

    /// When this board next needs the scheduler, if ever.
    fn next_event(&self) -> Option<SimTime> {
        None
    }

    /// Handles the event scheduled for `ctx.now` (the scheduler calls
    /// this once per due event).
    fn fire_event(&mut self, ctx: &mut StackCtx<'_>) {
        let _ = ctx;
    }

    /// The board's standing current demand at the present VDD.
    fn currents(&self, vdd: Volts) -> BoardDraw {
        let _ = vdd;
        BoardDraw::ZERO
    }

    /// Observes one controller step's worth of bus/pin activity (the
    /// radio board detects its PA window closing here).
    fn on_bus(&mut self, p1_before: u8, p1_now: u8, ctx: &mut StackCtx<'_>) {
        let _ = (p1_before, p1_now, ctx);
    }

    /// The supply supervisor restarted the node at `now`; boards
    /// reschedule themselves relative to the reboot.
    fn on_restart(&mut self, now: SimTime) {
        let _ = now;
    }

    /// Publishes the board's lifetime telemetry under its
    /// `board.<name>.*` scope (called from
    /// [`Stack::drain_telemetry`]).
    fn export_metrics(&self, metrics: &mut Metrics) {
        let _ = metrics;
    }
}

/// Which application firmware/sensor-board pairing the builder stacks.
///
/// This is the typed surface the declarative scenario layer lowers onto:
/// one enum value selects the firmware image and the sensor board, and
/// [`StackBuilder::app`] slots it.
#[derive(Clone)]
pub enum AppBoard {
    /// SP12 TPMS board with the tire-pressure firmware.
    Tpms,
    /// SCA3000 board with interrupt-driven motion firmware.
    Motion {
        /// The scripted handling pattern driving the accelerometer.
        scenario: MotionScenario,
    },
    /// SCA3000 board with timer-paced beacon firmware.
    Beacon {
        /// The scripted handling pattern driving the accelerometer.
        scenario: MotionScenario,
        /// Seconds between beacons (Timer A pacing, at least 1).
        period_s: u16,
    },
}

impl core::fmt::Debug for AppBoard {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Tpms => f.write_str("Tpms"),
            Self::Motion { .. } => f.write_str("Motion"),
            Self::Beacon { period_s, .. } => write!(f, "Beacon({period_s} s)"),
        }
    }
}

/// Assembles a [`Stack`] from a [`NodeConfig`] plus a board selection.
///
/// This replaces the old constructor triplication: all three
/// applications share the same chassis assembly and differ only in the
/// firmware image and the sensor board slotted into the stack.
///
/// # Examples
///
/// ```
/// use picocube_node::{AppBoard, NodeConfig, StackBuilder};
///
/// let node = StackBuilder::new(NodeConfig::default())
///     .app(AppBoard::Tpms)
///     .build()?;
/// assert_eq!(node.brownout_count(), 0);
/// # Ok::<(), picocube_node::BuildError>(())
/// ```
#[derive(Debug)]
pub struct StackBuilder {
    config: NodeConfig,
    app: Option<AppBoard>,
}

impl StackBuilder {
    /// Starts a builder over `config` with no application board chosen.
    pub fn new(config: NodeConfig) -> Self {
        Self { config, app: None }
    }

    /// Slots the given application board (firmware + sensor pairing).
    /// The `Scenario` spec layer lowers its `app` field here.
    pub fn app(mut self, app: AppBoard) -> Self {
        self.app = Some(app);
        self
    }

    /// Builds the stack.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] when no application board was selected or
    /// the configuration is invalid.
    pub fn build(self) -> Result<Stack, BuildError> {
        let Self { config, app } = self;
        let Some(app) = app else {
            return Err(BuildError::InvalidConfig(
                "no application board selected (tpms/motion/beacon)",
            ));
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
                let wake = SimTime::from_seconds(sp12.wake_interval())
                    + SimDuration::from_millis(config.first_wake_offset_ms);
                let interval_scale = 1.0 + config.wake_interval_ppm * 1e-6;
                let sensor = SensorBoard::sp12(sp12, env, wake, interval_scale);
                (image, sensor)
            }
            AppBoard::Motion { scenario } => (
                firmware::motion_app(config.node_id)?,
                SensorBoard::sca3000(scenario),
            ),
            AppBoard::Beacon { scenario, period_s } => {
                if period_s == 0 {
                    return Err(BuildError::InvalidConfig(
                        "beacon period must be at least 1 s",
                    ));
                }
                let image = firmware::beacon_app(config.node_id, period_s)?;
                (image, SensorBoard::sca3000(scenario))
            }
        };
        Stack::assemble(config, image, sensor)
    }
}

/// The assembled node: the controller board (emulated MSP430) plus the
/// four swappable boards, run by one shared event scheduler. Built by
/// [`StackBuilder`].
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
    wakes: u64,
    vdd: Volts,
    last_inputs: (Amps, Amps, bool, bool),
    /// Cached earliest pending board deadline (the event horizon).
    /// `horizon_valid == false` means it must be recomputed from the
    /// boards; boards only reschedule inside `fire_event`/`on_restart`,
    /// so those are the sole invalidation points.
    horizon: Option<SimTime>,
    horizon_valid: bool,
    /// Draw signature of the last active step: `(mode, P1, P2, SPI draw
    /// epoch)`. Every input to the `last_inputs` guard in
    /// [`Stack::update_currents`] is a function of these plus the sensor's
    /// draw. That draw changes only on an SPI completion the bus mux
    /// reports as a draw change (an epoch bump) or in `fire_event`, which
    /// poisons this to `None`. While the signature is unchanged the old
    /// per-step `update_currents` call would have early-returned, so
    /// skipping it is bit-invisible.
    draw_sig: Option<(OperatingMode, u8, u8, u32)>,
    /// Reusable run-length cycle log for the segmented active path
    /// (scratch; contents never outlive one segment).
    seg_log: CycleLog,
    fault: Option<NodeFault>,
}

impl core::fmt::Debug for Stack {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Stack")
            .field("now", &self.now())
            .field("wakes", &self.wakes)
            .field("soc", &self.storage.soc())
            .field("browned_out", &self.storage.browned_out_at())
            .field("brownout_count", &self.storage.brownout_count())
            .field("fault", &self.fault)
            .finish_non_exhaustive()
    }
}

impl Stack {
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
            wakes: 0,
            vdd: Volts::new(2.4),
            last_inputs: (Amps::new(-1.0), Amps::new(-1.0), false, false),
            horizon: None,
            horizon_valid: false,
            draw_sig: None,
            seg_log: CycleLog::new(),
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
        for board in self.boards() {
            board.export_metrics(&mut buf.metrics);
        }
        buf
    }

    /// Battery state-of-charge trace over the run.
    pub fn soc_trace(&self) -> &ScalarTrace {
        &self.soc_trace
    }

    /// Packets transmitted so far.
    pub fn packets(&self) -> Vec<TransmittedPacket> {
        self.radio.packets()
    }

    /// Consumes a finished node, handing over its packet list without the
    /// copy [`packets`](Self::packets) makes.
    pub(crate) fn into_packets(self) -> Vec<TransmittedPacket> {
        self.radio.into_packets()
    }

    /// How many packets have been transmitted so far — a cursor for
    /// [`packets_since`](Self::packets_since).
    pub fn packet_count(&self) -> usize {
        self.radio.packet_count()
    }

    /// Packets transmitted at or after cursor `from` (a prior
    /// [`packet_count`](Self::packet_count) observation), so windowed
    /// consumers like the mesh engine collect only the new tail.
    pub fn packets_since(&self, from: usize) -> Vec<TransmittedPacket> {
        self.radio.packets_since(from)
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
        self.horizon_valid = false;
        self.draw_sig = None;
        self.last_inputs = (Amps::new(-1.0), Amps::new(-1.0), false, false);
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
        let accepted = self.radio.schedule_relay(at.max(self.now()), bytes);
        if accepted {
            // External injection: the cached event horizon is stale.
            self.horizon_valid = false;
        }
        accepted
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

    /// The four swappable boards, in stack order (storage at the bottom,
    /// radio on top), behind the uniform [`Board`] interface.
    pub fn boards(&self) -> impl Iterator<Item = &dyn Board> {
        [
            &self.storage as &dyn Board,
            &self.sensor,
            &self.switch,
            &self.radio,
        ]
        .into_iter()
    }

    /// The earliest scheduled board event, if any board has one pending.
    fn next_board_event(&self) -> Option<SimTime> {
        self.boards().filter_map(Board::next_event).min()
    }

    /// [`Stack::next_board_event`] through the cached event horizon: the
    /// vtable-min scan runs only after an invalidation (a board fired or
    /// the supervisor restarted the stack), not on every scheduler pass.
    fn board_horizon(&mut self) -> Option<SimTime> {
        if !self.horizon_valid {
            self.horizon = self.next_board_event();
            self.horizon_valid = true;
        }
        debug_assert_eq!(
            self.horizon,
            self.next_board_event(),
            "event horizon went stale: a board rescheduled outside fire_event/on_restart"
        );
        self.horizon
    }

    /// Fires every board whose event is due, applies staged cross-board
    /// effects, and recomputes rail currents if anything fired.
    fn fire_due_events(&mut self) -> Result<(), NodeFault> {
        let now = self.now();
        let mut ctx = StackCtx {
            now,
            vdd: self.vdd,
            telemetry: &mut self.telemetry,
            wakes: &mut self.wakes,
            battery_temperature: None,
            irq_pulse: false,
        };
        let mut fired = false;
        let boards: [&mut dyn Board; 4] = [
            &mut self.storage,
            &mut self.sensor,
            &mut self.switch,
            &mut self.radio,
        ];
        for board in boards {
            if board.next_event().is_some_and(|at| at <= now) {
                board.fire_event(&mut ctx);
                fired = true;
            }
        }
        let StackCtx {
            battery_temperature,
            irq_pulse,
            ..
        } = ctx;
        if let Some(t) = battery_temperature {
            self.storage.set_temperature(t);
        }
        if irq_pulse {
            // The sensor's digital die raises its interrupt line.
            self.mcu.drive_p1(0, false);
            self.mcu.drive_p1(0, true);
        }
        if fired {
            // The fired boards rescheduled themselves, and their device
            // state (hence their draws) may have changed outside the draw
            // signature's view: invalidate both caches.
            self.horizon_valid = false;
            self.draw_sig = None;
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
        let sensor_draw = self.sensor.currents(self.vdd);
        let radio_draw = self.radio.currents(self.vdd);
        let p1 = self.mcu.p1_output();
        let spi_on = p1 & PIN_RADIO_SPI != 0;
        // The RF LDO is keyed by the firmware's PA pin or by an in-flight
        // mesh relay pulse (which transmits without waking the MCU).
        let pa_on = pa_enabled(p1) || self.radio.relay_active();
        let inputs = (i_mcu, sensor_draw.vdd, spi_on, pa_on);
        if !force && inputs == self.last_inputs {
            return Ok(());
        }
        self.last_inputs = inputs;
        // A solve changes VDD: make the next active step re-derive the draw
        // signature rather than trust one computed against the old rail.
        self.draw_sig = None;

        let vbat = self.ledger.rail_voltage(self.rail)?;
        // VDD rail demand in stack order: controller, then sensor, then
        // the radio board's level shifters (zero while SPI is off).
        let i_vdd = i_mcu + sensor_draw.vdd + radio_draw.vdd;
        let solve = self
            .switch
            .rails(vbat, i_vdd, spi_on, pa_on, radio_draw.rf)?;

        self.vdd = solve.vdd_out;
        if let Some(listen) = radio_draw.battery {
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
                self.draw_sig = None;
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
                let now = self.now();
                let boards: [&mut dyn Board; 4] = [
                    &mut self.storage,
                    &mut self.sensor,
                    &mut self.switch,
                    &mut self.radio,
                ];
                for board in boards {
                    board.on_restart(now);
                }
                self.horizon_valid = false;
                self.draw_sig = None;
                self.last_inputs = (Amps::new(-1.0), Amps::new(-1.0), false, false);
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
        // Guard against a stuck simulation (firmware fault).
        let mut fault_guard: u64 = 0;
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
                let next = self.board_horizon().unwrap_or(end).min(end);
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
                // the `on_bus` / draw-signature epilogue to the boundary
                // is bit-identical to running it per instruction: for every
                // interior instruction it was a no-op by construction.
                let p1_before = self.mcu.p1_output();
                debug_assert_eq!(self.ledger.now(), self.now());
                // The old per-step loop gate `now() < end`, in cycles: a
                // step may start while `cycles * 1000 < end_ns`.
                let limit_cycles = end.as_nanos().div_ceil(1_000);
                // Cap instructions so the stuck guard trips on exactly the
                // same instruction as the old one-check-per-step loop.
                let max_insns = 200_000_001 - fault_guard;
                self.seg_log.clear();
                let mut bus = spi_bus(&self.mcu, &mut self.sensor, &mut self.radio);
                let stop =
                    self.mcu
                        .run_segment(limit_cycles, max_insns, &mut self.seg_log, &mut bus);
                // Replay the segment's per-instruction advances through the
                // ledger in one pass (bit-identical to per-step advance_to).
                self.ledger.advance_log(&self.seg_log);
                fault_guard += self.seg_log.insns();
                match stop {
                    SegmentStop::Fault { word, at } => {
                        // As before: a faulting fetch is reported without
                        // running the epilogue (it consumed no cycles).
                        return Err(NodeFault::IllegalInstruction { word, at });
                    }
                    // The old loop counted a sleep-reporting `step` like any
                    // other poll of the core.
                    SegmentStop::Sleeping(_) => fault_guard += 1,
                    SegmentStop::Budget | SegmentStop::Observable => {}
                }
                // Boards watch the pin edges.
                let p1_now = self.mcu.p1_output();
                let p2_now = self.mcu.p2_output();
                // `on_bus` is a pure P1 edge detector (the radio watches for
                // its PA window closing), so a step that left P1 unchanged
                // cannot have anything to deliver.
                if p1_now != p1_before {
                    let mut ctx = StackCtx {
                        now: self.now(),
                        vdd: self.vdd,
                        telemetry: &mut self.telemetry,
                        wakes: &mut self.wakes,
                        battery_temperature: None,
                        irq_pulse: false,
                    };
                    self.radio.on_bus(p1_before, p1_now, &mut ctx);
                }
                // Draw gate: every input to `update_currents`'s change guard
                // is a function of this signature (see the `draw_sig` field
                // docs), so an unchanged signature means the call would have
                // early-returned — skip it.
                let sig = (self.mcu.mode(), p1_now, p2_now, self.mcu.spi_draw_epoch());
                if self.draw_sig != Some(sig) {
                    self.draw_sig = Some(sig);
                    self.update_currents(false)?;
                }
                if fault_guard > 200_000_000 {
                    return Err(NodeFault::Stuck { steps: fault_guard });
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
            packets: self.packets(),
            wakes: self.wakes,
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
