//! The 18-signal bus: SPI multiplexing between sensor and radio, and the
//! radio front-end that turns firmware SPI writes into on-air packets.

use crate::stack::SensorBoard;
use picocube_mcu::firmware::{PIN_RADIO_PA, PIN_RADIO_SPI, PIN_SENSOR_CS};
use picocube_mcu::SpiDevice;
use picocube_radio::packet::{self, Checksum, PREAMBLE, PREAMBLE_LEN, SYNC};
use picocube_radio::{OokTransmitter, Transmission};
use picocube_sim::{SimDuration, SimTime};

/// A packet the node put on the air, with its RF accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct TransmittedPacket {
    /// When the transmission ended (the PA window closed, or — for a
    /// multi-frame window — the next frame started).
    pub time: SimTime,
    /// The frame bytes as clocked to the radio.
    pub bytes: Vec<u8>,
    /// RF energy/duration accounting from the transmitter model.
    pub transmission: Transmission,
    /// Whether this packet was a mesh rebroadcast (synthesized by the
    /// relay path rather than clocked out by the firmware).
    pub relayed: bool,
}

impl TransmittedPacket {
    /// When the transmission started: `time` less the modeled duration. A
    /// packet whose duration exceeds its completion timestamp (a
    /// transmission already in flight at t=0, or a corrupted report
    /// replayed into a merge) clamps to the simulation origin instead of
    /// underflowing.
    pub(crate) fn start(&self) -> SimTime {
        self.time
            .checked_sub(SimDuration::from_seconds(self.transmission.duration))
            .unwrap_or(SimTime::ZERO)
    }
}

impl picocube_units::json::ToJson for TransmittedPacket {
    fn to_json(&self) -> picocube_units::json::Json {
        use picocube_units::json::Json;
        let mut obj = vec![
            ("time".into(), self.time.to_json()),
            ("bytes".into(), self.bytes.to_json()),
            ("transmission".into(), self.transmission.to_json()),
        ];
        // Omitted when false, keeping pre-mesh serializations byte-stable.
        if self.relayed {
            obj.push(("relayed".into(), self.relayed.to_json()));
        }
        Json::Obj(obj)
    }
}

impl picocube_units::json::FromJson for TransmittedPacket {
    fn from_json(
        value: &picocube_units::json::Json,
    ) -> Result<Self, picocube_units::json::JsonError> {
        use picocube_units::json::{field, FromJson};
        Ok(Self {
            time: FromJson::from_json(field(value, "time")?)?,
            bytes: FromJson::from_json(field(value, "bytes")?)?,
            transmission: FromJson::from_json(field(value, "transmission")?)?,
            relayed: match value.get("relayed") {
                Some(flag) => FromJson::from_json(flag)?,
                None => false,
            },
        })
    }
}

/// The on-air frame header every application firmware emits: the
/// preamble bytes and the start symbol of `picocube_radio::packet`.
const FRAME_HEADER: [u8; PREAMBLE_LEN + 1] = {
    let mut header = [PREAMBLE; PREAMBLE_LEN + 1];
    header[PREAMBLE_LEN] = SYNC;
    header
};

/// Splits a PA-window buffer into consecutive well-formed frames.
///
/// The firmware frame format carries no length field, so the split is
/// structural: a boundary is accepted only where the preceding segment
/// decodes cleanly (XOR checksum) *and* the next segment starts with the
/// frame header — and the whole buffer must be covered. Returns `None`
/// unless that yields at least two frames, so single-frame (and
/// unparseable) windows keep the historical one-packet accounting.
fn split_frames(bytes: &[u8]) -> Option<Vec<Vec<u8>>> {
    let mut frames = Vec::new();
    let mut start = 0usize;
    while start < bytes.len() {
        let rest = bytes.get(start..)?;
        if !rest.starts_with(&FRAME_HEADER) {
            return None;
        }
        // Shortest prefix that decodes and ends at the next header (or
        // the end of the buffer).
        let mut frame_len = None;
        for (offset, window) in rest.windows(FRAME_HEADER.len()).enumerate().skip(1) {
            let prefix_decodes = rest
                .get(..offset)
                .is_some_and(|prefix| packet::decode(prefix, Checksum::Xor).is_ok());
            if window == FRAME_HEADER && prefix_decodes {
                frame_len = Some(offset);
                break;
            }
        }
        let frame_len = match frame_len {
            Some(len) => len,
            None if packet::decode(rest, Checksum::Xor).is_ok() => rest.len(),
            None => return None,
        };
        frames.push(rest.get(..frame_len)?.to_vec());
        start += frame_len;
    }
    (frames.len() >= 2).then_some(frames)
}

/// The radio board's baseband side: buffers bytes the firmware clocks in
/// over SPI while the radio is selected, and finalizes a packet when the
/// PA window closes.
#[derive(Debug)]
pub(crate) struct RadioFrontend {
    tx: OokTransmitter,
    buffer: Vec<u8>,
    packets: Vec<TransmittedPacket>,
}

impl RadioFrontend {
    /// Creates a front-end around a transmitter model.
    pub fn new(tx: OokTransmitter) -> Self {
        Self {
            tx,
            buffer: Vec::new(),
            packets: Vec::new(),
        }
    }

    /// The transmitter model.
    pub fn transmitter(&self) -> &OokTransmitter {
        &self.tx
    }

    /// Accepts one byte from the firmware.
    pub fn feed(&mut self, byte: u8) {
        self.buffer.push(byte);
    }

    /// Whether bytes are pending in the current window.
    #[cfg(test)]
    fn window_open(&self) -> bool {
        !self.buffer.is_empty()
    }

    /// Closes the PA window: accounts the buffered bytes as on-air packets.
    ///
    /// A window holding several back-to-back frames (the alarm firmware
    /// double-transmits inside one PA pulse) is split structurally and
    /// accounted frame by frame: the last frame ends when the PA closes at
    /// `at`, each earlier one when its successor starts. Buffers that do
    /// not parse as at least two well-formed frames remain one packet.
    pub fn close_window(&mut self, at: SimTime) {
        if self.buffer.is_empty() {
            return;
        }
        let bytes = std::mem::take(&mut self.buffer);
        let frames = split_frames(&bytes).unwrap_or_else(|| vec![bytes]);
        let mut window: Vec<TransmittedPacket> = Vec::with_capacity(frames.len());
        let mut end = at;
        for frame in frames.into_iter().rev() {
            let transmission = self.tx.transmit(&frame);
            let start = end
                .checked_sub(SimDuration::from_seconds(transmission.duration))
                .unwrap_or(SimTime::ZERO);
            window.push(TransmittedPacket {
                time: end,
                bytes: frame,
                transmission,
                relayed: false,
            });
            end = start;
        }
        window.reverse();
        self.packets.extend(window);
    }

    /// Synthesizes a transmission that bypasses the firmware SPI path: the
    /// mesh relay hands a received frame straight to the transmitter at
    /// `start`. The packet is recorded with its end time and the `relayed`
    /// marker; the RF accounting is returned for the caller's energy and
    /// telemetry bookkeeping.
    pub fn transmit_relay(&mut self, start: SimTime, bytes: Vec<u8>) -> Transmission {
        let transmission = self.tx.transmit(&bytes);
        self.packets.push(TransmittedPacket {
            time: start + SimDuration::from_seconds(transmission.duration),
            bytes,
            transmission,
            relayed: true,
        });
        transmission
    }

    /// All packets transmitted so far.
    pub fn packets(&self) -> &[TransmittedPacket] {
        &self.packets
    }
}

/// Routes the MCU's SPI transfers by the same GPIO lines the firmware
/// drives: sensor when its chip select is high, radio when the radio SPI
/// power is on. The stack lends one to each MCU call, borrowing the
/// sensor board and the radio front end from itself.
pub(crate) struct BusMux<'a> {
    /// P1 output pins when the MCU call began (a segment ends at the first
    /// pin change).
    pub(crate) p1: u8,
    /// P2 output pins, likewise.
    pub(crate) p2: u8,
    pub(crate) sensor: &'a mut SensorBoard,
    pub(crate) radio: &'a mut RadioFrontend,
}

impl SpiDevice for BusMux<'_> {
    fn transfer(&mut self, mosi: u8) -> u8 {
        self.transfer_observed(mosi).0
    }

    /// Reports a change only when the selected sensor's supply draw moved
    /// (an SP12 conversion starting or being read out). Radio bytes only
    /// fill the frame buffer, which no draw depends on, and an unselected
    /// transfer touches nothing.
    fn transfer_observed(&mut self, mosi: u8) -> (u8, bool) {
        if self.p2 & PIN_SENSOR_CS != 0 {
            self.sensor.transfer_observed(mosi)
        } else if self.p1 & PIN_RADIO_SPI != 0 {
            self.radio.feed(mosi);
            (0x00, false)
        } else {
            // Nothing selected: the bus floats high.
            (0xFF, false)
        }
    }
}

/// Exposed for tests: is the PA window currently flagged by the pins?
pub(crate) fn pa_enabled(p1: u8) -> bool {
    p1 & PIN_RADIO_PA != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use picocube_sensors::{MotionScenario, Sp12, TireEnvironment};

    /// The boards a test mux borrows: an SP12 board and a radio.
    struct Boards {
        sensor: SensorBoard,
        radio: RadioFrontend,
    }

    impl Boards {
        fn new() -> Self {
            let env = TireEnvironment::passenger_car(picocube_harvest::DriveCycle::parked());
            Self {
                sensor: SensorBoard::sp12(Sp12::new(), env, SimTime::ZERO, 1.0),
                radio: RadioFrontend::new(OokTransmitter::picocube()),
            }
        }

        fn mux(&mut self, p1: u8, p2: u8) -> BusMux<'_> {
            BusMux {
                p1,
                p2,
                sensor: &mut self.sensor,
                radio: &mut self.radio,
            }
        }
    }

    #[test]
    fn routes_to_sensor_when_selected() {
        // Idle status read: SP12 answers ready.
        assert_eq!(Boards::new().mux(0, PIN_SENSOR_CS).transfer(0xF0) & 1, 1);
    }

    #[test]
    fn routes_to_radio_when_powered() {
        let mut boards = Boards::new();
        let mut mux = boards.mux(PIN_RADIO_SPI, 0);
        mux.transfer(0xAA);
        mux.transfer(0xD3);
        assert!(boards.radio.window_open());
    }

    #[test]
    fn the_frame_header_is_what_the_encoder_writes() {
        assert_eq!(FRAME_HEADER, [0xAA, 0xAA, 0xD3]);
        assert!(packet::encode(7, &[1, 2], Checksum::Xor).starts_with(&FRAME_HEADER));
    }

    #[test]
    fn floats_high_when_nothing_selected() {
        assert_eq!(Boards::new().mux(0, 0).transfer(0x55), 0xFF);
    }

    #[test]
    fn sensor_wins_over_radio() {
        // Firmware never enables both, but the mux must be deterministic.
        let mut boards = Boards::new();
        boards.mux(PIN_RADIO_SPI, PIN_SENSOR_CS).transfer(0xF0);
        assert!(!boards.radio.window_open());
    }

    #[test]
    fn only_sensor_draw_changes_are_reported() {
        let mut boards = Boards::new();
        let mut sensor = boards.mux(0, PIN_SENSOR_CS);
        // Starting a conversion switches the SP12's analog bias on.
        assert_eq!(sensor.transfer_observed(0xA0), (0x00, true), "convert");
        // Polling status and reading the high byte leave it on.
        assert!(!sensor.transfer_observed(0xF0).1, "status poll");
        assert!(!sensor.transfer_observed(0xF1).1, "read-hi");
        // Reading the low byte ends the conversion.
        assert!(sensor.transfer_observed(0xF2).1, "read-lo");
        assert!(!sensor.transfer_observed(0xF2).1, "read-lo while idle");
        // Radio bytes only fill the frame buffer, even a convert byte.
        let radio_byte = boards.mux(PIN_RADIO_SPI, 0).transfer_observed(0xA1);
        assert_eq!(radio_byte, (0x00, false), "radio byte");
        assert!(boards.radio.window_open());
        // Nothing selected: nothing changes.
        let floating = boards.mux(0, 0).transfer_observed(0xA2);
        assert_eq!(floating, (0xFF, false), "unselected");
        // An SCA3000 read never moves the part's draw.
        boards.sensor = SensorBoard::sca3000(MotionScenario::retreat_table(1));
        let mut sca3000 = boards.mux(0, PIN_SENSOR_CS);
        assert!(!sca3000.transfer_observed(0x10).1, "axis read");
        assert!(!sca3000.transfer_observed(0xF2).1, "axis read-lo");
    }

    #[test]
    fn closure_devices_report_every_completion() {
        let mut echo = |mosi: u8| mosi;
        assert_eq!(SpiDevice::transfer_observed(&mut echo, 0x5A), (0x5A, true));
    }

    #[test]
    fn two_frames_in_one_window_become_two_packets() {
        let mut fe = RadioFrontend::new(OokTransmitter::picocube());
        let frame = packet::encode(0x42, &[1, 2, 3, 4, 5, 6], Checksum::Xor);
        for b in frame.iter().chain(&frame) {
            fe.feed(*b);
        }
        fe.close_window(SimTime::from_millis(40));
        assert_eq!(fe.packets().len(), 2, "double-tx window splits");
        let (first, second) = (&fe.packets()[0], &fe.packets()[1]);
        assert_eq!(first.bytes, frame);
        assert_eq!(second.bytes, frame);
        // The second frame ends at the PA close; the first ends where the
        // second started.
        assert_eq!(second.time, SimTime::from_millis(40));
        assert_eq!(
            first.time,
            second
                .time
                .checked_sub(SimDuration::from_seconds(second.transmission.duration))
                .expect("window start after t=0")
        );
        assert!(!first.relayed && !second.relayed);
    }

    #[test]
    fn corrupt_window_stays_one_packet() {
        // A buffer that fails structural parsing keeps the historical
        // one-packet accounting (here: the second "frame" checksum is bad).
        let mut fe = RadioFrontend::new(OokTransmitter::picocube());
        let frame = packet::encode(0x42, &[1, 2, 3, 4, 5, 6], Checksum::Xor);
        let mut bad = frame.clone();
        if let Some(last) = bad.last_mut() {
            *last ^= 0xFF;
        }
        for b in frame.iter().chain(&bad) {
            fe.feed(*b);
        }
        fe.close_window(SimTime::from_millis(40));
        assert_eq!(fe.packets().len(), 1);
        assert_eq!(fe.packets()[0].bytes.len(), 2 * frame.len());
    }

    #[test]
    fn relay_transmission_is_marked_and_timed() {
        let mut fe = RadioFrontend::new(OokTransmitter::picocube());
        let frame = packet::encode(0x07, &[1, 2, 3, 4, 5, 6], Checksum::Xor);
        let start = SimTime::from_millis(25);
        let transmission = fe.transmit_relay(start, frame.clone());
        assert_eq!(fe.packets().len(), 1);
        let p = &fe.packets()[0];
        assert!(p.relayed);
        assert_eq!(p.bytes, frame);
        assert_eq!(
            p.time,
            start + SimDuration::from_seconds(transmission.duration)
        );
        // The relayed flag survives (and its absence defaults) in JSON.
        use picocube_units::json::{FromJson, Json, ToJson};
        let text = p.to_json().to_string();
        assert!(text.contains("\"relayed\""));
        let back = TransmittedPacket::from_json(&Json::parse(&text).expect("parses"))
            .expect("round trips");
        assert_eq!(&back, p);
    }

    #[test]
    fn frontend_packetizes_on_window_close() {
        let mut fe = RadioFrontend::new(OokTransmitter::picocube());
        fe.close_window(SimTime::ZERO); // empty window: no packet
        assert!(fe.packets().is_empty());
        for b in [0xAA, 0xAA, 0xD3, 0x42, 1, 2, 3] {
            fe.feed(b);
        }
        fe.close_window(SimTime::from_millis(10));
        assert_eq!(fe.packets().len(), 1);
        let p = &fe.packets()[0];
        assert_eq!(p.bytes.len(), 7);
        assert_eq!(p.transmission.bits, 56);
        assert!(p.transmission.energy.value() > 0.0);
        // The window resets.
        assert!(!fe.window_open());
    }
}
