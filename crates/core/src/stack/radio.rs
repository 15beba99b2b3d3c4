//! The radio board: FBAR-based OOK transmitter (§4.2), its level
//! shifters, the optional §7.3 wakeup receiver — and, when the mesh
//! receive path is fitted, a relay queue that rebroadcasts frames the
//! wakeup detector heard.

use super::{Board, BoardDraw, StackCtx};
use crate::bus::{pa_enabled, RadioFrontend, TransmittedPacket};
use picocube_mcu::firmware::PIN_RADIO_SPI;
use picocube_power::switches::LevelShifter;
use picocube_radio::OokTransmitter;
use picocube_radio::WakeupReceiver;
use picocube_sim::{SimDuration, SimTime};
use picocube_telemetry::{keys, EventKind, Metrics};
use picocube_units::{Amps, Hertz, Volts};

/// Receive-path state fitted by [`crate::Stack::fit_mesh_rx`]: the relay
/// queue the wakeup detector feeds and its lifetime accounting.
///
/// Detection itself (sensitivity gate, dedup, hop limiting) happens in the
/// mesh engine's match phase, which knows every node's receive level; the
/// board's job is to *execute* accepted relays on the scheduler — wake at
/// the deadline, key the PA, account the energy.
#[derive(Debug, Default)]
struct MeshRx {
    /// Pending rebroadcasts, ascending by deadline.
    queue: Vec<(SimTime, Vec<u8>)>,
    /// End of the in-flight relay's PA pulse, while one is on the air.
    active_until: Option<SimTime>,
    /// Lifetime rebroadcast count.
    relays: u64,
    /// Lifetime rebroadcast RF energy in microjoules.
    relay_energy_uj: f64,
}

/// The radio board: watches the firmware's SPI/PA lines for transmit
/// windows, accounts its rail draws, and carries the optional always-on
/// wakeup receiver (plus, in mesh deployments, the relay queue it feeds).
pub struct RadioBoard {
    frontend: RadioFrontend,
    wakeup: Option<WakeupReceiver>,
    /// The controller's P1 output pins as of the last [`Board::on_bus`].
    p1: u8,
    rx: Option<MeshRx>,
}

impl core::fmt::Debug for RadioBoard {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RadioBoard")
            .field("packets", &self.frontend.packets().len())
            .field("wakeup", &self.wakeup.is_some())
            .field("mesh_rx", &self.rx.is_some())
            .finish_non_exhaustive()
    }
}

impl RadioBoard {
    pub(super) fn new(wakeup: Option<WakeupReceiver>) -> Self {
        Self {
            frontend: RadioFrontend::new(OokTransmitter::picocube()),
            wakeup,
            p1: 0,
            rx: None,
        }
    }

    /// The baseband front end, as the SPI bus reaches it.
    pub(super) fn frontend_mut(&mut self) -> &mut RadioFrontend {
        &mut self.frontend
    }

    /// Packets transmitted so far.
    pub fn packets(&self) -> &[TransmittedPacket] {
        self.frontend.packets()
    }

    /// Installs `detector` as the always-on wakeup receiver and arms the
    /// relay queue.
    pub(super) fn fit_rx(&mut self, detector: WakeupReceiver) {
        self.wakeup = Some(detector);
        self.rx = Some(MeshRx::default());
    }

    /// The fitted wakeup receiver, if any.
    pub(super) fn wakeup(&self) -> Option<&WakeupReceiver> {
        self.wakeup.as_ref()
    }

    /// Whether a relay transmission is currently keying the PA.
    pub(super) fn relay_active(&self) -> bool {
        self.rx.as_ref().is_some_and(|rx| rx.active_until.is_some())
    }

    /// Queues a rebroadcast of `bytes` at `at`. Returns `false` when no
    /// mesh receive path is fitted.
    pub(super) fn schedule_relay(&mut self, at: SimTime, bytes: Vec<u8>) -> bool {
        let Some(rx) = self.rx.as_mut() else {
            return false;
        };
        let pos = rx.queue.partition_point(|&(t, _)| t <= at);
        rx.queue.insert(pos, (at, bytes));
        true
    }
}

impl Board for RadioBoard {
    fn next_event(&self) -> Option<SimTime> {
        let rx = self.rx.as_ref()?;
        match (rx.queue.first(), rx.active_until) {
            (Some(&(at, _)), Some(done)) => Some(at.min(done)),
            (Some(&(at, _)), None) => Some(at),
            (None, done) => done,
        }
    }

    fn fire_event(&mut self, ctx: &mut StackCtx<'_>) {
        let Some(rx) = self.rx.as_mut() else {
            return;
        };
        let now = ctx.now;
        if rx.active_until.is_some_and(|done| done <= now) {
            // The in-flight relay's PA pulse ended; the scheduler's
            // post-event current recompute drops the RF draw.
            rx.active_until = None;
        }
        if let Some(done) = rx.active_until {
            // Half-duplex: a rebroadcast due while another is on the air
            // defers until the PA frees up.
            if let Some(head) = rx.queue.first_mut() {
                if head.0 <= now {
                    head.0 = done;
                }
            }
            return;
        }
        if rx.queue.first().is_some_and(|&(at, _)| at <= now) {
            let (_, bytes) = rx.queue.remove(0);
            let frame_len = bytes.len() as u32;
            let transmission = self.frontend.transmit_relay(now, bytes);
            rx.relays += 1;
            rx.relay_energy_uj += transmission.energy.micro();
            rx.active_until = Some(now + SimDuration::from_seconds(transmission.duration));
            transmission.export_metrics(&mut ctx.telemetry.metrics);
            if ctx.telemetry.events_enabled() {
                ctx.telemetry.record(
                    (now + SimDuration::from_seconds(transmission.duration)).as_nanos(),
                    EventKind::Tx {
                        bytes: frame_len,
                        airtime_us: transmission.duration.value() * 1e6,
                        energy_uj: transmission.energy.micro(),
                    },
                );
            }
        }
    }

    fn currents(&self, vdd: Volts) -> BoardDraw {
        let spi_on = self.p1 & PIN_RADIO_SPI != 0;
        let pa_on = pa_enabled(self.p1) || self.relay_active();
        let vdd_draw = if spi_on {
            // CSP level shifters between the VDD and radio logic domains.
            let shifters = LevelShifter::radio_board();
            let p = shifters.power(vdd, Hertz::from_kilo(100.0));
            p / vdd
        } else {
            Amps::ZERO
        };
        // Radio RF rail draw: 50 % OOK average while the PA window is open
        // (a firmware window or an in-flight relay pulse).
        let rf = if pa_on {
            self.frontend.transmitter().supply_current_on() * 0.5
        } else {
            Amps::ZERO
        };
        BoardDraw {
            vdd: vdd_draw,
            rf,
            battery: self.wakeup.as_ref().map(WakeupReceiver::listen_power),
        }
    }

    fn on_bus(&mut self, p1_before: u8, p1_now: u8, ctx: &mut StackCtx<'_>) {
        self.p1 = p1_now;
        // A falling PA line closes the transmit window: flush the frames
        // the firmware shifted out and account airtime/energy for each.
        if pa_enabled(p1_before) && !pa_enabled(p1_now) {
            let now = ctx.now;
            let radio = &mut self.frontend;
            let before = radio.packets().len();
            radio.close_window(now);
            for packet in radio.packets().get(before..).unwrap_or_default() {
                packet
                    .transmission
                    .export_metrics(&mut ctx.telemetry.metrics);
                if ctx.telemetry.events_enabled() {
                    ctx.telemetry.record(
                        packet.time.as_nanos(),
                        EventKind::Tx {
                            bytes: packet.bytes.len() as u32,
                            airtime_us: packet.transmission.duration.value() * 1e6,
                            energy_uj: packet.transmission.energy.micro(),
                        },
                    );
                }
            }
        }
    }

    fn on_restart(&mut self, _now: SimTime) {
        // A cold boot drops pending rebroadcasts and any in-flight pulse.
        if let Some(rx) = self.rx.as_mut() {
            rx.queue.clear();
            rx.active_until = None;
        }
    }

    fn export_metrics(&self, metrics: &mut Metrics) {
        let packets = self.frontend.packets();
        metrics.inc(keys::BOARD_RADIO_PACKETS, packets.len() as u64);
        metrics.inc(
            keys::BOARD_RADIO_BYTES,
            packets.iter().map(|p| p.bytes.len() as u64).sum(),
        );
        if let Some(rx) = &self.rx {
            metrics.inc(keys::BOARD_RADIO_RELAYS, rx.relays);
            metrics.add(keys::BOARD_RADIO_RELAY_ENERGY_UJ, rx.relay_energy_uj);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picocube_mcu::firmware::PIN_RADIO_PA;
    use picocube_radio::packet::{encode, Checksum};
    use picocube_telemetry::TelemetryBuffer;

    fn ctx<'a>(
        now: SimTime,
        telemetry: &'a mut TelemetryBuffer,
        wakes: &'a mut u64,
    ) -> StackCtx<'a> {
        StackCtx {
            now,
            vdd: Volts::new(2.4),
            telemetry,
            wakes,
            battery_temperature: None,
            irq_pulse: false,
        }
    }

    #[test]
    fn on_bus_accounts_every_frame_of_a_window() {
        // Regression: a PA window flushing two frames used to record a Tx
        // event and metrics only for the first.
        let mut board = RadioBoard::new(None);
        let frame = encode(0x42, &[1, 2, 3, 4, 5, 6], Checksum::Xor);
        for b in frame.iter().chain(&frame) {
            board.frontend_mut().feed(*b);
        }
        let mut telemetry = TelemetryBuffer::with_events(true);
        let mut wakes = 0u64;
        board.on_bus(
            PIN_RADIO_PA,
            0,
            &mut ctx(SimTime::from_millis(40), &mut telemetry, &mut wakes),
        );
        assert_eq!(telemetry.metrics.counter("radio.tx.packets"), 2);
        let tx_events = telemetry
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Tx { .. }))
            .count();
        assert_eq!(tx_events, 2, "one Tx event per flushed frame");
        assert_eq!(board.packets().len(), 2);
    }

    #[test]
    fn relay_fires_from_the_queue_and_accounts_energy() {
        let mut board = RadioBoard::new(None);
        board.fit_rx(WakeupReceiver::mesh_correlator());
        let frame = encode(0x07, &[9, 9, 9, 9, 9, 9], Checksum::Xor);
        let deadline = SimTime::from_millis(20);
        assert!(board.schedule_relay(deadline, frame.clone()));
        assert_eq!(board.next_event(), Some(deadline));

        let mut telemetry = TelemetryBuffer::with_events(true);
        let mut wakes = 0u64;
        board.fire_event(&mut ctx(deadline, &mut telemetry, &mut wakes));
        assert!(board.relay_active(), "PA keyed for the relay pulse");
        let packets = board.packets();
        assert_eq!(packets.len(), 1);
        assert!(packets[0].relayed);
        assert_eq!(packets[0].bytes, frame);
        assert_eq!(telemetry.metrics.counter("radio.tx.packets"), 1);

        // The pulse-end event clears the PA.
        let done = board.next_event().expect("pulse end scheduled");
        assert!(done > deadline);
        board.fire_event(&mut ctx(done, &mut telemetry, &mut wakes));
        assert!(!board.relay_active());
        assert_eq!(board.next_event(), None);

        let mut metrics = Metrics::new();
        board.export_metrics(&mut metrics);
        assert_eq!(metrics.counter("board.radio.relays"), 1);
        assert!(metrics.gauge("board.radio.relay_energy_uj") > 0.0);
    }

    #[test]
    fn half_duplex_defers_an_overlapping_relay() {
        let mut board = RadioBoard::new(None);
        board.fit_rx(WakeupReceiver::mesh_correlator());
        let frame = encode(0x07, &[1, 1, 1, 1, 1, 1], Checksum::Xor);
        let first = SimTime::from_millis(20);
        board.schedule_relay(first, frame.clone());
        // Second deadline lands inside the first pulse's airtime (~1.3 ms).
        board.schedule_relay(first + SimDuration::from_micros(200), frame);

        let mut telemetry = TelemetryBuffer::new();
        let mut wakes = 0u64;
        board.fire_event(&mut ctx(first, &mut telemetry, &mut wakes));
        // Firing at the second deadline mid-pulse defers it, not transmits.
        board.fire_event(&mut ctx(
            first + SimDuration::from_micros(200),
            &mut telemetry,
            &mut wakes,
        ));
        assert_eq!(board.packets().len(), 1, "second relay deferred");
        // The deferred head now shares the pulse-end deadline; firing there
        // clears the PA and transmits the deferred relay in one step.
        let pulse_end = match board.next_event() {
            Some(t) => t,
            None => unreachable!("a pulse is in flight"),
        };
        assert!(pulse_end > first + SimDuration::from_micros(200));
        board.fire_event(&mut ctx(pulse_end, &mut telemetry, &mut wakes));
        assert_eq!(board.packets().len(), 2);
    }
}
