//! The sensor board: SP12 TPMS (§5) or SCA3000 motion (§6), with its
//! free-running wake timer and interrupt line into the controller.

use picocube_sensors::{MotionScenario, Sca3000, Sp12, TireEnvironment};
use picocube_sim::{SimDuration, SimTime};
use picocube_telemetry::{keys, EventKind, Metrics, TelemetryBuffer};
use picocube_units::{Amps, Celsius, Volts};

enum SensorState {
    Tpms {
        env: Box<TireEnvironment>,
        device: Sp12,
        next_wake: SimTime,
        interval_scale: f64,
    },
    Motion {
        scenario: Box<MotionScenario>,
        device: Sca3000,
        next_check: SimTime,
    },
}

/// The sensor board slotted into the stack: either the SP12 TPMS board or
/// the SCA3000 accelerometer board, driving its environment model and
/// raising the interrupt line toward the controller when it has data.
pub(crate) struct SensorBoard {
    state: SensorState,
    fires: u64,
}

impl core::fmt::Debug for SensorBoard {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let (kind, next) = match &self.state {
            SensorState::Tpms { next_wake, .. } => ("Sp12", next_wake),
            SensorState::Motion { next_check, .. } => ("Sca3000", next_check),
        };
        f.debug_struct("SensorBoard")
            .field("kind", &kind)
            .field("next_event", next)
            .field("fires", &self.fires)
            .finish()
    }
}

impl SensorBoard {
    /// The SP12 TPMS board with its tire environment and wake schedule.
    pub(crate) fn sp12(
        device: Sp12,
        env: TireEnvironment,
        next_wake: SimTime,
        interval_scale: f64,
    ) -> Self {
        Self {
            state: SensorState::Tpms {
                env: Box::new(env),
                device,
                next_wake,
                interval_scale,
            },
            fires: 0,
        }
    }

    /// The SCA3000 accelerometer board replaying a motion scenario.
    pub(crate) fn sca3000(scenario: MotionScenario) -> Self {
        Self {
            state: SensorState::Motion {
                scenario: Box::new(scenario),
                device: Sca3000::new(),
                next_check: SimTime::from_millis(100),
            },
            fires: 0,
        }
    }

    /// Exchanges one SPI byte with the board's part, reporting whether
    /// the exchange moved the part's supply draw (an SP12 conversion
    /// starting or being read out).
    pub(crate) fn transfer_observed(&mut self, mosi: u8) -> (u8, bool) {
        let before = self.draw();
        let miso = match &mut self.state {
            SensorState::Tpms { device, .. } => device.spi(mosi),
            SensorState::Motion { device, .. } => device.spi(mosi),
        };
        (miso, self.draw() != before)
    }

    /// The part's supply current.
    pub(super) fn draw(&self) -> Amps {
        match &self.state {
            SensorState::Tpms { device, .. } => device.current_draw(),
            SensorState::Motion { device, .. } => device.current_draw(),
        }
    }

    /// Lifetime count of fires that raised the interrupt line: the node's
    /// wake count.
    pub(super) fn fires(&self) -> u64 {
        self.fires
    }

    /// When the board next needs the scheduler: the SP12's wake timer or
    /// the SCA3000's next motion check.
    pub(super) fn next_event(&self) -> SimTime {
        match &self.state {
            SensorState::Tpms { next_wake, .. } => *next_wake,
            SensorState::Motion { next_check, .. } => *next_check,
        }
    }

    /// Handles the event due at `now`, with `vdd` on the always-on rail.
    /// Returns the tire temperature the storage cell now rides at (TPMS
    /// only) and whether the board pulsed its interrupt line into the
    /// controller; the scheduler applies both.
    pub(super) fn fire(
        &mut self,
        now: SimTime,
        vdd: Volts,
        telemetry: &mut TelemetryBuffer,
    ) -> (Option<Celsius>, bool) {
        let t_ns = now.as_nanos();
        match &mut self.state {
            SensorState::Tpms {
                env,
                device,
                next_wake,
                interval_scale,
            } => {
                let interval = device.wake_interval();
                let mut sample = env.step(interval);
                sample.supply = vdd;
                device.set_sample(sample);
                *next_wake += SimDuration::from_seconds(interval * *interval_scale);
                self.fires += 1;
                telemetry.metrics.inc(keys::NODE_WAKES, 1);
                telemetry.record(t_ns, EventKind::Wake { index: self.fires });
                // The cell rides on the rim at tire temperature, and the
                // SP12 digital die raises its interrupt line.
                (Some(sample.temperature), true)
            }
            SensorState::Motion {
                scenario,
                device,
                next_check,
            } => {
                let t = next_check.as_seconds();
                let sample = scenario.sample_at(t);
                let triggered = device.update(sample);
                *next_check += SimDuration::from_millis(100);
                if triggered {
                    self.fires += 1;
                    telemetry.metrics.inc(keys::NODE_WAKES, 1);
                    telemetry.record(t_ns, EventKind::Wake { index: self.fires });
                }
                (None, triggered)
            }
        }
    }

    /// How long after a reboot the board first needs the scheduler: the
    /// SP12's wake interval or the SCA3000's check period.
    pub(super) fn restart_delay(&self) -> SimDuration {
        match &self.state {
            SensorState::Tpms { device, .. } => SimDuration::from_seconds(device.wake_interval()),
            SensorState::Motion { .. } => SimDuration::from_millis(100),
        }
    }

    /// The supply supervisor restarted the node at `now`: reschedule
    /// relative to the reboot.
    pub(super) fn on_restart(&mut self, now: SimTime) {
        let next = now + self.restart_delay();
        match &mut self.state {
            SensorState::Tpms { next_wake, .. } => *next_wake = next,
            SensorState::Motion { next_check, .. } => *next_check = next,
        }
    }

    /// Publishes the board's lifetime telemetry under `board.sensor.*`.
    pub(super) fn export_metrics(&self, metrics: &mut Metrics) {
        metrics.inc(keys::BOARD_SENSOR_FIRES, self.fires);
    }
}
