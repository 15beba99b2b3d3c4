//! The sensor board: SP12 TPMS (§5) or SCA3000 motion (§6), with its
//! free-running wake timer and interrupt line into the controller.

use super::{Board, BoardDraw, StackCtx};
use picocube_sensors::{MotionScenario, Sca3000, Sp12, TireEnvironment};
use picocube_sim::{SimDuration, SimTime};
use picocube_telemetry::{keys, EventKind, Metrics};
use picocube_units::{Amps, Volts};

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
pub struct SensorBoard {
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
    fn draw(&self) -> Amps {
        match &self.state {
            SensorState::Tpms { device, .. } => device.current_draw(),
            SensorState::Motion { device, .. } => device.current_draw(),
        }
    }
}

impl Board for SensorBoard {
    fn name(&self) -> &'static str {
        "sensor"
    }

    fn next_event(&self) -> Option<SimTime> {
        Some(match &self.state {
            SensorState::Tpms { next_wake, .. } => *next_wake,
            SensorState::Motion { next_check, .. } => *next_check,
        })
    }

    fn fire_event(&mut self, ctx: &mut StackCtx<'_>) {
        let t_ns = ctx.now.as_nanos();
        match &mut self.state {
            SensorState::Tpms {
                env,
                device,
                next_wake,
                interval_scale,
            } => {
                let interval = device.wake_interval();
                let mut sample = env.step(interval);
                sample.supply = ctx.vdd;
                device.set_sample(sample);
                // The cell rides on the rim at tire temperature (applied by
                // the scheduler once this callback returns).
                ctx.set_battery_temperature(sample.temperature);
                *next_wake += SimDuration::from_seconds(interval * *interval_scale);
                *ctx.wakes += 1;
                self.fires += 1;
                ctx.telemetry.metrics.inc(keys::NODE_WAKES, 1);
                ctx.telemetry
                    .record(t_ns, EventKind::Wake { index: *ctx.wakes });
                // The SP12 digital die raises its interrupt line.
                ctx.pulse_sensor_irq();
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
                    *ctx.wakes += 1;
                    self.fires += 1;
                    ctx.telemetry.metrics.inc(keys::NODE_WAKES, 1);
                    ctx.telemetry
                        .record(t_ns, EventKind::Wake { index: *ctx.wakes });
                    ctx.pulse_sensor_irq();
                }
            }
        }
    }

    fn currents(&self, _vdd: Volts) -> BoardDraw {
        BoardDraw {
            vdd: self.draw(),
            rf: Amps::ZERO,
            battery: None,
        }
    }

    fn on_restart(&mut self, now: SimTime) {
        // Reschedule relative to the reboot.
        match &mut self.state {
            SensorState::Tpms {
                device, next_wake, ..
            } => {
                *next_wake = now + SimDuration::from_seconds(device.wake_interval());
            }
            SensorState::Motion { next_check, .. } => {
                *next_check = now + SimDuration::from_millis(100);
            }
        }
    }

    fn export_metrics(&self, metrics: &mut Metrics) {
        metrics.inc(keys::BOARD_SENSOR_FIRES, self.fires);
    }
}
