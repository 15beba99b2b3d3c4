//! The radio board: FBAR-based OOK transmitter (§4.2), its level
//! shifters, the optional §7.3 wakeup receiver — and, when the mesh
//! receive path is fitted, a relay queue that rebroadcasts frames the
//! wakeup detector heard.

use crate::bus::{pa_enabled, RadioFrontend, TransmittedPacket};
use picocube_mcu::firmware::PIN_RADIO_SPI;
use picocube_power::switches::LevelShifter;
use picocube_radio::OokTransmitter;
use picocube_radio::WakeupReceiver;
use picocube_sim::{SimDuration, SimTime};
use picocube_telemetry::{keys, EventKind, Metrics, TelemetryBuffer};
use picocube_units::{Amps, Hertz, Volts, Watts};

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
pub(crate) struct RadioBoard {
    frontend: RadioFrontend,
    wakeup: Option<WakeupReceiver>,
    /// The controller's P1 output pins as of the last [`RadioBoard::on_bus`].
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

    /// When the relay queue next needs the scheduler (the head relay's
    /// deadline or the in-flight pulse's end); `None` without a mesh
    /// receive path or with nothing queued.
    pub(super) fn next_event(&self) -> Option<SimTime> {
        let rx = self.rx.as_ref()?;
        match (rx.queue.first(), rx.active_until) {
            (Some(&(at, _)), Some(done)) => Some(at.min(done)),
            (Some(&(at, _)), None) => Some(at),
            (None, done) => done,
        }
    }

    /// Handles the relay-queue event due at `now`: ends a finished pulse,
    /// defers a relay that would overlap one, or keys the PA for the head
    /// relay.
    pub(super) fn fire(&mut self, now: SimTime, telemetry: &mut TelemetryBuffer) {
        let Some(rx) = self.rx.as_mut() else {
            return;
        };
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
            transmission.export_metrics(&mut telemetry.metrics);
            if telemetry.events_enabled() {
                telemetry.record(
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

    /// The level shifters' draw on the VDD rail at `vdd`, while the
    /// firmware powers the radio SPI.
    pub(super) fn vdd_draw(&self, vdd: Volts) -> Amps {
        if self.p1 & PIN_RADIO_SPI != 0 {
            // CSP level shifters between the VDD and radio logic domains.
            let shifters = LevelShifter::radio_board();
            let p = shifters.power(vdd, Hertz::from_kilo(100.0));
            p / vdd
        } else {
            Amps::ZERO
        }
    }

    /// Radio RF rail draw: 50 % OOK average while the PA window is open
    /// (a firmware window or an in-flight relay pulse).
    pub(super) fn rf_draw(&self) -> Amps {
        if pa_enabled(self.p1) || self.relay_active() {
            self.frontend.transmitter().supply_current_on() * 0.5
        } else {
            Amps::ZERO
        }
    }

    /// The fitted wakeup receiver's standing battery-direct listen power.
    pub(super) fn listen_power(&self) -> Option<Watts> {
        self.wakeup.as_ref().map(WakeupReceiver::listen_power)
    }

    /// Observes one controller segment's P1 edge at `now`.
    pub(super) fn on_bus(
        &mut self,
        p1_before: u8,
        p1_now: u8,
        now: SimTime,
        telemetry: &mut TelemetryBuffer,
    ) {
        self.p1 = p1_now;
        // A falling PA line closes the transmit window: flush the frames
        // the firmware shifted out and account airtime/energy for each.
        if pa_enabled(p1_before) && !pa_enabled(p1_now) {
            let radio = &mut self.frontend;
            let before = radio.packets().len();
            radio.close_window(now);
            for packet in radio.packets().get(before..).unwrap_or_default() {
                packet.transmission.export_metrics(&mut telemetry.metrics);
                if telemetry.events_enabled() {
                    telemetry.record(
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

    /// A cold boot drops pending rebroadcasts and any in-flight pulse.
    pub(super) fn on_restart(&mut self) {
        if let Some(rx) = self.rx.as_mut() {
            rx.queue.clear();
            rx.active_until = None;
        }
    }

    /// Publishes the board's lifetime telemetry under `board.radio.*`.
    pub(super) fn export_metrics(&self, metrics: &mut Metrics) {
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
        board.on_bus(PIN_RADIO_PA, 0, SimTime::from_millis(40), &mut telemetry);
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
        board.fire(deadline, &mut telemetry);
        assert!(board.relay_active(), "PA keyed for the relay pulse");
        let packets = board.packets();
        assert_eq!(packets.len(), 1);
        assert!(packets[0].relayed);
        assert_eq!(packets[0].bytes, frame);
        assert_eq!(telemetry.metrics.counter("radio.tx.packets"), 1);

        // The pulse-end event clears the PA.
        let done = board.next_event().expect("pulse end scheduled");
        assert!(done > deadline);
        board.fire(done, &mut telemetry);
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
        board.fire(first, &mut telemetry);
        // Firing at the second deadline mid-pulse defers it, not transmits.
        board.fire(first + SimDuration::from_micros(200), &mut telemetry);
        assert_eq!(board.packets().len(), 1, "second relay deferred");
        // The deferred head now shares the pulse-end deadline; firing there
        // clears the PA and transmits the deferred relay in one step.
        let pulse_end = match board.next_event() {
            Some(t) => t,
            None => unreachable!("a pulse is in flight"),
        };
        assert!(pulse_end > first + SimDuration::from_micros(200));
        board.fire(pulse_end, &mut telemetry);
        assert_eq!(board.packets().len(), 2);
    }
}
